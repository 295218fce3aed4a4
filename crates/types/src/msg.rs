//! The coherence message taxonomy and flit accounting.
//!
//! Every message the protocols exchange is an instance of [`Msg`]. The
//! network-traffic figures of the paper (Figures 2c, 3c, 4c) report *flit
//! crossings* — flits times links traversed — split into four classes
//! ([`MsgClass`]): data reads, data registrations (writes), writebacks /
//! writethroughs, and atomics. [`Msg::flits`] implements the paper's
//! Garnet-style sizing: a 16-byte flit, one-flit control messages, and
//! `1 + ceil(payload/16B)` flits for data-carrying messages. GPU coherence
//! always moves whole 64-byte lines (5 flits); DeNovo moves only the words
//! named in the [`WordMask`] — the "decoupled granularity" advantage of
//! Table 2.

use crate::addr::{LineAddr, WordAddr, WordMask, WORDS_PER_LINE, WORD_BYTES};
use crate::ids::NodeId;
use crate::sync::{AtomicOp, Scope, SyncOrd, Value};

/// Bytes per network flit (Garnet-style 128-bit flits).
pub const FLIT_BYTES: u64 = 16;
/// Flits in a control (payload-free) message.
pub const CTRL_FLITS: u32 = 1;

/// Traffic class of a message, the paper's network-traffic breakdown.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MsgClass {
    /// Data read requests and their data responses.
    Read,
    /// Data registration (ownership) requests and grants — DeNovo writes.
    Registration,
    /// Writebacks and writethroughs (including their acks).
    WbWt,
    /// Synchronization/atomic requests and responses.
    Atomic,
}

impl MsgClass {
    /// All classes in the figures' legend order.
    pub const ALL: [MsgClass; 4] = [
        MsgClass::Read,
        MsgClass::Registration,
        MsgClass::WbWt,
        MsgClass::Atomic,
    ];

    /// The figure-legend label.
    pub fn label(self) -> &'static str {
        match self {
            MsgClass::Read => "Read",
            MsgClass::Registration => "Regist.",
            MsgClass::WbWt => "WB/WT",
            MsgClass::Atomic => "Atomics",
        }
    }

    /// Index into per-class counter arrays.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            MsgClass::Read => 0,
            MsgClass::Registration => 1,
            MsgClass::WbWt => 2,
            MsgClass::Atomic => 3,
        }
    }
}

/// Which controller at the destination node receives a message.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Component {
    /// The node's private L1 controller.
    L1,
    /// The node's bank of the shared L2 (for DeNovo: the registry bank).
    L2,
}

/// A line's worth of data words; only the positions named by the
/// accompanying mask are meaningful.
pub type LineData = [Value; WORDS_PER_LINE];

/// The payload-specific part of a coherence message.
///
/// Requests carry the requester so responses (possibly from a *forwarded*
/// third party, DeNovo's extra hop) can be routed straight back.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MsgKind {
    /// L1 -> L2: read the masked words of `line`.
    ReadReq {
        /// The line being read.
        line: LineAddr,
        /// The words wanted.
        mask: WordMask,
        /// Who the data response must go to (possibly via an owner
        /// forward).
        requester: NodeId,
    },
    /// L2/remote-L1 -> L1: data response; `mask` names the valid words.
    ReadResp {
        /// The line being filled.
        line: LineAddr,
        /// Which words of `data` are meaningful.
        mask: WordMask,
        /// The data (masked positions only).
        data: LineData,
    },
    /// GPU coherence, L1 -> L2: write the masked words through to the L2.
    WriteThrough {
        /// The line being written.
        line: LineAddr,
        /// Which words carry dirty data.
        mask: WordMask,
        /// The dirty values (masked positions only).
        data: LineData,
    },
    /// L2 -> L1: writethrough acknowledged (release counting).
    WtAck {
        /// The written-through line.
        line: LineAddr,
    },
    /// DeNovo, L1 -> L2 registry: request ownership of the masked words.
    /// `sync` marks synchronization registrations (DeNovoSync0 registers
    /// both sync reads and sync writes).
    RegReq {
        /// The line whose words are requested.
        line: LineAddr,
        /// The words to register.
        mask: WordMask,
        /// Whether this is a synchronization registration (DeNovoSync0
        /// registers both sync reads and sync writes).
        sync: bool,
        /// The new owner.
        requester: NodeId,
    },
    /// L2/old-owner -> L1: ownership granted; `data` carries current
    /// values for the masked words (needed by sync RMWs).
    RegResp {
        /// The granted line.
        line: LineAddr,
        /// The granted words.
        mask: WordMask,
        /// Current values (meaningful for sync grants, whose RMW reads
        /// them; data grants are pure acks).
        data: LineData,
        /// Whether this grants a synchronization registration.
        sync: bool,
    },
    /// DeNovo, L2 -> old owner: ownership of the masked words has been
    /// transferred to `new_owner`; send them the data (the distributed
    /// queue of DeNovoSync0 when the old owner's own ack is in flight).
    RegFwd {
        /// The line whose words were re-registered.
        line: LineAddr,
        /// The transferred words.
        mask: WordMask,
        /// Where ownership (and, for sync, the data) must go.
        new_owner: NodeId,
        /// Whether the new registration is a synchronization one.
        sync: bool,
    },
    /// GPU coherence, L1 -> L2: atomic performed at the L2 bank.
    AtomicReq {
        /// The synchronization word.
        word: WordAddr,
        /// The read-modify-write operation.
        op: AtomicOp,
        /// The operation's operands.
        operands: [Value; 2],
        /// Acquire/release flavour (informational at the L2).
        ord: SyncOrd,
        /// The HRF scope (informational at the L2).
        scope: Scope,
        /// Who receives the response.
        requester: NodeId,
    },
    /// L2 -> L1: atomic done; `old` is the pre-operation value.
    AtomicResp {
        /// The synchronization word.
        word: WordAddr,
        /// The pre-operation value.
        old: Value,
    },
    /// DeNovo, L1 -> L2: voluntary writeback of owned (registered) words
    /// on eviction; ownership returns to the registry.
    WbReq {
        /// The evicted line.
        line: LineAddr,
        /// The owned words being returned.
        mask: WordMask,
        /// Their values.
        data: LineData,
    },
    /// L2 -> L1: writeback accepted; echoes the written-back mask so the
    /// L1 can retire the right in-flight writeback when several race on
    /// one line.
    WbAck {
        /// The written-back line.
        line: LineAddr,
        /// The mask the writeback carried.
        mask: WordMask,
    },
}

impl MsgKind {
    /// The traffic class this message is accounted under.
    pub fn class(&self) -> MsgClass {
        match self {
            MsgKind::ReadReq { .. } | MsgKind::ReadResp { .. } => MsgClass::Read,
            MsgKind::RegReq { sync, .. }
            | MsgKind::RegResp { sync, .. }
            | MsgKind::RegFwd { sync, .. } => {
                if *sync {
                    MsgClass::Atomic
                } else {
                    MsgClass::Registration
                }
            }
            MsgKind::WriteThrough { .. }
            | MsgKind::WtAck { .. }
            | MsgKind::WbReq { .. }
            | MsgKind::WbAck { .. } => MsgClass::WbWt,
            MsgKind::AtomicReq { .. } | MsgKind::AtomicResp { .. } => MsgClass::Atomic,
        }
    }

    /// Payload words carried by this message (0 for control messages).
    fn payload_words(&self) -> u32 {
        match self {
            MsgKind::ReadResp { mask, .. }
            | MsgKind::WriteThrough { mask, .. }
            | MsgKind::WbReq { mask, .. } => mask.count(),
            // A registration grant only needs data for sync registrations
            // (the RMW reads the value); data-write grants are acks since
            // the writer overwrites the whole word.
            MsgKind::RegResp { mask, sync, .. } if *sync => mask.count(),
            MsgKind::AtomicResp { .. } => 1,
            MsgKind::AtomicReq { .. } => 1, // carries operands
            _ => 0,
        }
    }
}

/// A coherence message in flight on the interconnect.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Msg {
    /// Sending node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Destination controller at `dst`.
    pub dst_comp: Component,
    /// Payload.
    pub kind: MsgKind,
}

impl Msg {
    /// Number of flits this message occupies on a link.
    ///
    /// Control messages are a single flit; data-carrying messages take one
    /// header flit plus `ceil(payload_bytes / 16)` payload flits. A full
    /// 64-byte line is therefore 5 flits.
    ///
    /// # Examples
    ///
    /// ```
    /// use gsim_types::{Msg, MsgKind, Component, NodeId, LineAddr, WordMask};
    ///
    /// let full = Msg {
    ///     src: NodeId(0), dst: NodeId(1), dst_comp: Component::L2,
    ///     kind: MsgKind::ReadResp {
    ///         line: LineAddr(0), mask: WordMask::full(), data: [0; 16],
    ///     },
    /// };
    /// assert_eq!(full.flits(), 5);
    /// let one_word = Msg {
    ///     kind: MsgKind::ReadResp {
    ///         line: LineAddr(0), mask: WordMask::single(0), data: [0; 16],
    ///     },
    ///     ..full
    /// };
    /// assert_eq!(one_word.flits(), 2);
    /// ```
    pub fn flits(&self) -> u32 {
        let words = self.kind.payload_words();
        if words == 0 {
            CTRL_FLITS
        } else {
            let payload_bytes = words as u64 * WORD_BYTES;
            CTRL_FLITS + payload_bytes.div_ceil(FLIT_BYTES) as u32
        }
    }

    /// The traffic class this message is accounted under.
    #[inline]
    pub fn class(&self) -> MsgClass {
        self.kind.class()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(kind: MsgKind) -> Msg {
        Msg {
            src: NodeId(0),
            dst: NodeId(5),
            dst_comp: Component::L2,
            kind,
        }
    }

    #[test]
    fn control_messages_are_one_flit() {
        let m = msg(MsgKind::ReadReq {
            line: LineAddr(1),
            mask: WordMask::full(),
            requester: NodeId(0),
        });
        assert_eq!(m.flits(), 1);
        let m = msg(MsgKind::WtAck { line: LineAddr(1) });
        assert_eq!(m.flits(), 1);
        let m = msg(MsgKind::WbAck {
            line: LineAddr(1),
            mask: WordMask::full(),
        });
        assert_eq!(m.flits(), 1);
    }

    #[test]
    fn data_message_sizing() {
        for (words, want) in [(1u32, 2u32), (4, 2), (5, 3), (8, 3), (16, 5)] {
            let mask: WordMask = (0..words as usize).collect();
            let m = msg(MsgKind::WriteThrough {
                line: LineAddr(0),
                mask,
                data: [0; WORDS_PER_LINE],
            });
            assert_eq!(m.flits(), want, "words={words}");
        }
    }

    #[test]
    fn reg_grant_is_ack_unless_sync() {
        let data_grant = msg(MsgKind::RegResp {
            line: LineAddr(0),
            mask: WordMask::single(3),
            data: [0; WORDS_PER_LINE],
            sync: false,
        });
        assert_eq!(data_grant.flits(), 1);
        let sync_grant = msg(MsgKind::RegResp {
            line: LineAddr(0),
            mask: WordMask::single(3),
            data: [0; WORDS_PER_LINE],
            sync: true,
        });
        assert_eq!(sync_grant.flits(), 2);
    }

    #[test]
    fn classes() {
        assert_eq!(
            MsgKind::ReadReq {
                line: LineAddr(0),
                mask: WordMask::full(),
                requester: NodeId(0)
            }
            .class(),
            MsgClass::Read
        );
        assert_eq!(
            MsgKind::RegReq {
                line: LineAddr(0),
                mask: WordMask::single(0),
                sync: false,
                requester: NodeId(0)
            }
            .class(),
            MsgClass::Registration
        );
        assert_eq!(
            MsgKind::RegReq {
                line: LineAddr(0),
                mask: WordMask::single(0),
                sync: true,
                requester: NodeId(0)
            }
            .class(),
            MsgClass::Atomic
        );
        assert_eq!(
            MsgKind::WbAck {
                line: LineAddr(0),
                mask: WordMask::full()
            }
            .class(),
            MsgClass::WbWt
        );
        assert_eq!(
            MsgKind::AtomicResp {
                word: WordAddr(0),
                old: 0
            }
            .class(),
            MsgClass::Atomic
        );
        // Legend order is stable.
        for (i, c) in MsgClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }
}
