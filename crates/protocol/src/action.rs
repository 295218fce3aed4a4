//! The interface between the coherence controllers and the simulation
//! engine: [`Action`]s a controller emits and the [`Issue`] outcome of a
//! core-initiated operation.
//!
//! Controllers are pure state machines: they never touch the network or
//! the event queue directly. Every externally visible effect — a message
//! to inject, a blocked thread block to resume — is appended as an
//! `Action` to a caller-owned sink (`out: &mut Vec<Action>`) for the
//! engine (`gsim-core`) to carry out. The sink is append-only: an entry
//! point never reads, reorders or removes what the caller already put
//! there, and pushes its own actions in the order they must take effect.
//! This keeps each protocol unit-testable in isolation: tests drive a
//! controller with operations and messages and assert on the appended
//! actions.

use gsim_types::{Cycle, Msg, ReqId, Value};

/// An externally visible effect requested by a coherence controller.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Action {
    /// Inject `msg` into the interconnect after `delay` cycles of local
    /// processing (e.g. an L2 bank's access latency, or a DRAM fill).
    Send {
        /// The message to inject.
        msg: Msg,
        /// Local processing delay before injection.
        delay: Cycle,
    },
    /// Resume the thread block blocked on `req` after `delay` cycles,
    /// delivering `value` (loads and atomics; 0 for fences).
    Complete {
        /// The blocked request.
        req: ReqId,
        /// The loaded / pre-atomic value (0 for fences).
        value: Value,
        /// Local processing delay before the completion fires.
        delay: Cycle,
    },
}

impl Action {
    /// A message injected with no extra local delay (L1-side sends; the
    /// L1 access cycle is charged by the core model).
    pub fn send(msg: Msg) -> Action {
        Action::Send { msg, delay: 0 }
    }

    /// An immediate completion.
    pub fn complete(req: ReqId, value: Value) -> Action {
        Action::Complete {
            req,
            value,
            delay: 0,
        }
    }
}

/// Outcome of a core-initiated memory operation at the L1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Issue {
    /// Completed immediately; `0` carries the loaded / pre-atomic value
    /// (meaningless for stores and releases).
    Hit(Value),
    /// In flight: an [`Action::Complete`] carrying the operation's
    /// [`ReqId`] will arrive later.
    Pending,
    /// Structural hazard (MSHR full): the thread block must retry the
    /// same operation next cycle.
    Retry,
    /// Back off: retry the same operation after the given delay
    /// (DeNovoSync's read-read contention throttle).
    RetryAfter(Cycle),
}

/// Sink helpers shared by the controllers' unit tests.
#[cfg(test)]
pub(crate) mod testing {
    use super::{Action, Issue};

    /// Runs one core-side entry point against a fresh sink, returning
    /// its outcome and the actions it appended.
    pub(crate) fn run_op(f: impl FnOnce(&mut Vec<Action>) -> Issue) -> (Issue, Vec<Action>) {
        let mut out = Vec::new();
        let issue = f(&mut out);
        (issue, out)
    }

    /// Runs one message handler against a fresh sink, returning the
    /// actions it appended.
    pub(crate) fn run_handler(f: impl FnOnce(&mut Vec<Action>)) -> Vec<Action> {
        let mut out = Vec::new();
        f(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsim_types::{Component, LineAddr, MsgKind, NodeId};

    #[test]
    fn constructors() {
        let msg = Msg {
            src: NodeId(0),
            dst: NodeId(1),
            dst_comp: Component::L2,
            kind: MsgKind::WtAck { line: LineAddr(0) },
        };
        assert_eq!(Action::send(msg), Action::Send { msg, delay: 0 });
        assert_eq!(
            Action::complete(ReqId(3), 9),
            Action::Complete {
                req: ReqId(3),
                value: 9,
                delay: 0
            }
        );
    }
}
