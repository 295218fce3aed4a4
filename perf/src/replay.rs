//! Per-layer attribution by replay.
//!
//! A traced run records the operation streams that cross three layer
//! boundaries — NoC sends, event-queue deliveries, and L1 MSHR
//! allocate/retire — and each stream is then replayed alone through that
//! layer's public API. Replay time per operation, multiplied by the full
//! operation count of the run, estimates the layer's share of host time.
//!
//! Known approximation: the trace stamps a send with the cycle of the
//! event being dispatched, while the engine injects it at that cycle plus
//! the handler's delay. The NoC replay therefore sees a slightly
//! different contention pattern, and many replayed arrival cycles differ
//! from the recorded ones. Traffic totals do not depend on timing and
//! match exactly.

use gsim_core::equeue::EventQueue;
use gsim_core::QueueKind;
use gsim_mem::{CacheArray, CacheGeometry, MshrFile};
use gsim_noc::{Mesh, Topology};
use gsim_trace::{TraceEvent, TraceSink};
use gsim_types::{
    Component, Cycle, LineAddr, Msg, MsgClass, MsgKind, NodeId, TrafficBreakdown, WordAddr,
    WordMask, FLIT_BYTES, WORD_BYTES,
};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

/// Longest stream kept per cell; longer runs replay a prefix and scale
/// its cost to the full count.
pub const STREAM_CAP: usize = 4_000_000;

/// One recorded NoC injection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SendRec {
    /// Cycle of the dispatched event that sent it.
    pub at: Cycle,
    /// Arrival cycle the engine computed.
    pub arrival: Cycle,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Traffic class.
    pub class: MsgClass,
    /// Size in flits.
    pub flits: u32,
}

/// One recorded MSHR allocation (a fresh entry) or retirement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MshrRec {
    /// The L1's node.
    pub node: NodeId,
    /// The missing line.
    pub line: LineAddr,
    /// `true` for an allocation, `false` for a retirement.
    pub alloc: bool,
}

/// Everything a traced run recorded.
#[derive(Debug, Default)]
pub struct Recording {
    /// Events seen, by [`TraceEvent::name`].
    pub kinds: BTreeMap<&'static str, u64>,
    /// NoC sends, up to [`STREAM_CAP`].
    pub sends: Vec<SendRec>,
    /// MSHR allocations and retirements, up to [`STREAM_CAP`].
    pub mshr: Vec<MshrRec>,
    /// Whether a stream hit the cap.
    pub truncated: bool,
}

impl Recording {
    /// Events of one kind.
    pub fn count(&self, kind: &str) -> u64 {
        self.kinds.get(kind).copied().unwrap_or(0)
    }

    /// Events of every kind.
    pub fn events(&self) -> u64 {
        self.kinds.values().sum()
    }
}

fn push_capped<T>(v: &mut Vec<T>, truncated: &mut bool, x: T) {
    if v.len() < STREAM_CAP {
        v.push(x);
    } else {
        *truncated = true;
    }
}

/// A [`TraceSink`] filling a shared [`Recording`], which stays readable
/// after the simulator drops its trace handles.
#[derive(Debug)]
pub struct RecordingSink(pub Rc<RefCell<Recording>>);

impl TraceSink for RecordingSink {
    fn record(&mut self, at: Cycle, ev: &TraceEvent) {
        let mut r = self.0.borrow_mut();
        *r.kinds.entry(ev.name()).or_default() += 1;
        let r = &mut *r;
        match *ev {
            TraceEvent::MsgSend {
                src,
                dst,
                class,
                flits,
                arrival,
                ..
            } => push_capped(
                &mut r.sends,
                &mut r.truncated,
                SendRec {
                    at,
                    arrival,
                    src,
                    dst,
                    class,
                    flits,
                },
            ),
            TraceEvent::MshrAlloc { node, line, .. }
            | TraceEvent::MshrRetire { node, line, .. } => {
                let alloc = matches!(ev, TraceEvent::MshrAlloc { .. });
                push_capped(&mut r.mshr, &mut r.truncated, MshrRec { node, line, alloc });
            }
            _ => {}
        }
    }
}

/// A message of `class` and `flits` from `src` to `dst` — the only
/// fields the NoC reads. `None` for a pair no protocol message has
/// (a data-carrying data registration).
pub fn replay_msg(src: NodeId, dst: NodeId, class: MsgClass, flits: u32) -> Option<Msg> {
    let line = LineAddr(0);
    let data = [0; gsim_types::WORDS_PER_LINE];
    let words_per_flit = (FLIT_BYTES / WORD_BYTES) as u32;
    let mask = if flits > 1 {
        let words = (flits - 1) * words_per_flit;
        if words as usize > gsim_types::WORDS_PER_LINE {
            return None;
        }
        (0..words as usize).collect()
    } else {
        WordMask::empty()
    };
    let kind = match (class, flits) {
        (MsgClass::Read, 1) => MsgKind::ReadReq {
            line,
            mask: WordMask::full(),
            requester: src,
        },
        (MsgClass::Read, _) => MsgKind::ReadResp { line, mask, data },
        (MsgClass::Registration, 1) => MsgKind::RegReq {
            line,
            mask: WordMask::single(0),
            sync: false,
            requester: src,
        },
        (MsgClass::WbWt, 1) => MsgKind::WtAck { line },
        (MsgClass::WbWt, _) => MsgKind::WriteThrough { line, mask, data },
        (MsgClass::Atomic, 1) => MsgKind::RegReq {
            line,
            mask: WordMask::single(0),
            sync: true,
            requester: src,
        },
        (MsgClass::Atomic, 2) => MsgKind::AtomicResp {
            word: WordAddr(0),
            old: 0,
        },
        (MsgClass::Atomic, _) => MsgKind::RegResp {
            line,
            mask,
            data,
            sync: true,
        },
        (MsgClass::Registration, _) => return None,
    };
    let msg = Msg {
        src,
        dst,
        dst_comp: Component::L2,
        kind,
    };
    (msg.flits() == flits && msg.class() == class).then_some(msg)
}

/// Runs `f` three times and returns the fastest time in nanoseconds
/// with the last result.
fn best_of_3<R>(mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..3 {
        let t = Instant::now();
        let r = black_box(f());
        best = best.min(t.elapsed().as_secs_f64() * 1e9);
        out = Some(r);
    }
    (best, out.expect("three repetitions ran"))
}

/// Result of the NoC replay.
#[derive(Clone, Copy, Debug)]
pub struct NocReplay {
    /// Fastest replay, nanoseconds.
    pub best_ns: f64,
    /// Flit crossings the replay produced.
    pub traffic: TrafficBreakdown,
    /// Sends whose replayed arrival differs from the recorded one.
    pub arrivals_differ: u64,
}

/// Replays `sends` through a fresh [`Mesh`] of `topology`. Each send
/// copies a prebuilt message of its class and size, so the replay holds
/// no per-send message.
///
/// # Errors
///
/// When a send has a (class, flits) pair [`replay_msg`] cannot build.
pub fn replay_noc(sends: &[SendRec], topology: Topology) -> Result<NocReplay, String> {
    let templates: Vec<Vec<Option<Msg>>> = MsgClass::ALL
        .iter()
        .map(|&c| {
            (0..=5)
                .map(|f| replay_msg(NodeId(0), NodeId(0), c, f))
                .collect()
        })
        .collect();
    let template = |s: &SendRec| {
        templates[s.class.index()]
            .get(s.flits as usize)
            .copied()
            .flatten()
    };
    if let Some(s) = sends.iter().find(|s| template(s).is_none()) {
        return Err(format!(
            "no message of class {:?} with {} flits",
            s.class, s.flits
        ));
    }
    let (best_ns, (traffic, arrivals_differ)) = best_of_3(|| {
        let mut mesh = Mesh::with_topology(topology);
        let mut differ = 0u64;
        for s in sends {
            let mut m = template(s).expect("every send has a template");
            (m.src, m.dst) = (s.src, s.dst);
            differ += u64::from(mesh.send(s.at, &m) != s.arrival);
        }
        (*mesh.traffic(), differ)
    });
    Ok(NocReplay {
        best_ns,
        traffic,
        arrivals_differ,
    })
}

/// Replays message deliveries through an [`EventQueue`] of `kind`:
/// before each send, pop every delivery due by its cycle, then push its
/// arrival; finally drain. Returns the fastest time in nanoseconds for
/// the `2 * sends.len()` operations, and the number of pops. Only
/// deliveries are replayed, so this is a lower bound on the queue's work.
pub fn replay_equeue(sends: &[SendRec], kind: QueueKind) -> (f64, u64) {
    best_of_3(|| {
        let mut q = EventQueue::new(kind);
        let mut popped = 0u64;
        for s in sends {
            while q.next_cycle().is_some_and(|c| c <= s.at) {
                q.pop();
                popped += 1;
            }
            q.push(s.arrival, s.dst);
        }
        while q.pop().is_some() {
            popped += 1;
        }
        popped
    })
}

/// Result of the MSHR replay.
#[derive(Clone, Copy, Debug)]
pub struct MshrReplay {
    /// Fastest replay, nanoseconds.
    pub best_ns: f64,
    /// Most entries any one L1 held at once.
    pub high_water: usize,
    /// Entries left outstanding at the end, over all L1s.
    pub outstanding: usize,
}

/// Replays allocations and retirements through one [`MshrFile`] of
/// `capacity` entries per L1.
///
/// # Errors
///
/// When an allocation finds its L1's file full.
pub fn replay_mshr(ops: &[MshrRec], capacity: usize) -> Result<MshrReplay, String> {
    let (best_ns, files) = best_of_3(|| {
        let mut files: Vec<Option<MshrFile<(), ()>>> = (0..256).map(|_| None).collect();
        for op in ops {
            let f = files[op.node.index()].get_or_insert_with(|| MshrFile::new(capacity));
            if op.alloc {
                if !f.has_room_for(op.line) {
                    return Err(format!(
                        "{:?} allocates line {} with {} of {capacity} entries held",
                        op.node,
                        op.line.0,
                        f.outstanding()
                    ));
                }
                f.request(op.line, WordMask::full(), ());
            } else {
                f.complete(op.line, WordMask::full());
            }
        }
        Ok(files)
    });
    let files = files?;
    let live = files.iter().flatten();
    Ok(MshrReplay {
        best_ns,
        high_water: live.clone().map(MshrFile::high_water).max().unwrap_or(0),
        outstanding: live.map(MshrFile::outstanding).sum(),
    })
}

/// Result of the cache-array replay.
#[derive(Clone, Copy, Debug)]
pub struct CacheReplay {
    /// Fastest replay, nanoseconds.
    pub best_ns: f64,
    /// Allocations whose line was still resident.
    pub hits: u64,
}

/// Replays the miss stream through one L1 [`CacheArray`] of `geometry`
/// per node: each allocation looks its line up, each retirement inserts
/// the filled line.
pub fn replay_cache(ops: &[MshrRec], geometry: CacheGeometry) -> CacheReplay {
    let (best_ns, hits) = best_of_3(|| {
        let mut caches: Vec<Option<CacheArray<()>>> = (0..256).map(|_| None).collect();
        let mut hits = 0u64;
        for op in ops {
            let c = caches[op.node.index()].get_or_insert_with(|| CacheArray::new(geometry));
            if op.alloc {
                hits += u64::from(c.lookup(op.line).is_some());
            } else {
                c.insert(op.line);
            }
        }
        hits
    });
    CacheReplay { best_ns, hits }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_protocol_size_has_a_replay_message() {
        for flits in 1..=5 {
            for class in MsgClass::ALL {
                let m = replay_msg(NodeId(0), NodeId(3), class, flits);
                let expect = !(class == MsgClass::Registration && flits > 1);
                assert_eq!(m.is_some(), expect, "{class:?} x {flits}");
            }
        }
        assert!(replay_msg(NodeId(0), NodeId(1), MsgClass::Read, 6).is_none());
    }

    #[test]
    fn mshr_replay_rejects_overflow_and_counts_leaks() {
        let op = |line, alloc| MshrRec {
            node: NodeId(2),
            line: LineAddr(line),
            alloc,
        };
        let ok = replay_mshr(&[op(1, true), op(2, true), op(1, false)], 2).unwrap();
        assert_eq!((ok.high_water, ok.outstanding), (2, 1));
        assert!(replay_mshr(&[op(1, true), op(2, true), op(3, true)], 2).is_err());
    }

    #[test]
    fn equeue_replay_pops_everything_it_pushes() {
        let s = |at, arrival| SendRec {
            at,
            arrival,
            src: NodeId(0),
            dst: NodeId(1),
            class: MsgClass::Read,
            flits: 1,
        };
        let sends = [s(0, 5), s(3, 9), s(6, 7), s(20, 30)];
        let (ns, popped) = replay_equeue(&sends, QueueKind::Calendar);
        assert!(ns > 0.0);
        assert_eq!(popped, 4);
    }
}
