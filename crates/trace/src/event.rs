//! The structured event taxonomy the trace recorder keeps.
//!
//! Events are small `Copy` values — constructing one is a handful of
//! register moves, and construction only happens when a sink is
//! installed (a hook builds the event it carries after the `None` test,
//! and [`TraceHandle::emit`](crate::TraceHandle::emit) takes a
//! closure). Each event belongs to a [`Category`], the coarse grouping
//! exporters and filters key on.

use gsim_types::{Cycle, LineAddr, MsgClass, NodeId, Scope, SyncOrd, TbId, WordAddr};
use std::fmt;

/// Coarse event grouping (the Chrome trace-event `cat` field).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Category {
    /// Thread-block lifecycle (launch/retire).
    Tb,
    /// Kernel-launch boundaries.
    Kernel,
    /// Synchronization operations (acquire/release, lock/barrier traffic).
    Sync,
    /// Coherence-protocol word-state transitions.
    Protocol,
    /// Cache structural events (evictions, invalidations).
    Cache,
    /// Store-buffer flush activity.
    Sb,
    /// MSHR allocate/retire.
    Mshr,
    /// Network-on-chip message traffic.
    Noc,
    /// Conformance-checker violations (gsim-check).
    Check,
}

impl Category {
    /// All categories, in display order.
    pub const ALL: [Category; 9] = [
        Category::Tb,
        Category::Kernel,
        Category::Sync,
        Category::Protocol,
        Category::Cache,
        Category::Sb,
        Category::Mshr,
        Category::Noc,
        Category::Check,
    ];

    /// The lowercase label used in exported traces.
    pub fn label(self) -> &'static str {
        match self {
            Category::Tb => "tb",
            Category::Kernel => "kernel",
            Category::Sync => "sync",
            Category::Protocol => "protocol",
            Category::Cache => "cache",
            Category::Sb => "sb",
            Category::Mshr => "mshr",
            Category::Noc => "noc",
            Category::Check => "check",
        }
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Which cache level an event concerns.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Level {
    /// A per-CU L1 data cache.
    L1,
    /// A bank of the shared L2 (the DeNovo registry).
    L2,
}

impl Level {
    /// Short label for export.
    pub fn label(self) -> &'static str {
        match self {
            Level::L1 => "L1",
            Level::L2 => "L2",
        }
    }
}

/// A word's coherence state as seen by the trace layer.
///
/// Mirrors the protocols' word states without depending on their
/// internal representations: GPU lines are Invalid/Valid, DeNovo words
/// add Owned (registered).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WState {
    /// Not present / self-invalidated.
    Invalid,
    /// Present and readable, not owned.
    Valid,
    /// Registered (owned) — DeNovo's dirty/exclusive state.
    Owned,
}

impl WState {
    /// Short label for export.
    pub fn label(self) -> &'static str {
        match self {
            WState::Invalid => "I",
            WState::Valid => "V",
            WState::Owned => "O",
        }
    }
}

/// Why a store buffer began draining.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FlushReason {
    /// A release (or acq-rel) synchronization operation.
    Release,
    /// A kernel boundary (implicit global release).
    KernelEnd,
    /// Capacity overflow forced an early flush.
    Overflow,
}

impl FlushReason {
    /// Short label for export.
    pub fn label(self) -> &'static str {
        match self {
            FlushReason::Release => "release",
            FlushReason::KernelEnd => "kernel-end",
            FlushReason::Overflow => "overflow",
        }
    }
}

/// One structured trace event.
///
/// The `Cycle` timestamp is *not* part of the event — the
/// [`TraceHandle`](crate::TraceHandle) stamps it at record time, so
/// emitting components never need to know the current cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A thread block became resident on a CU.
    TbLaunch {
        /// The launched block.
        tb: TbId,
        /// Its CU's node.
        cu: NodeId,
    },
    /// A thread block halted.
    TbRetire {
        /// The retiring block.
        tb: TbId,
        /// Its CU's node.
        cu: NodeId,
    },
    /// A kernel launch began (all its blocks become runnable).
    KernelBegin {
        /// Kernel index within the workload.
        index: u32,
        /// Number of thread blocks in the launch.
        tbs: u32,
    },
    /// A kernel completed (all blocks halted, store buffers drained).
    KernelEnd {
        /// Kernel index within the workload.
        index: u32,
    },
    /// An acquire-side synchronization performed at a cache: the
    /// invalidation sweep (DeNovo: valid-word self-invalidation; GPU:
    /// flash invalidate).
    SyncAcquire {
        /// The acquiring L1's node.
        node: NodeId,
        /// The synchronization scope.
        scope: Scope,
        /// Words invalidated by the sweep.
        invalidated: u64,
        /// Whether the whole cache was flash-invalidated (GPU protocol).
        flash: bool,
    },
    /// A release-side synchronization began (store-buffer drain ordered
    /// before the releasing access).
    SyncRelease {
        /// The releasing L1's node.
        node: NodeId,
        /// The synchronization scope.
        scope: Scope,
    },
    /// A synchronization (atomic) operation issued by a thread block.
    AtomicIssue {
        /// The issuing block.
        tb: TbId,
        /// The issuing L1's node.
        cu: NodeId,
        /// Target word.
        word: WordAddr,
        /// Ordering attribute.
        ord: SyncOrd,
        /// Scope attribute (Global under DRF).
        scope: Scope,
    },
    /// A word (range) changed coherence state.
    StateChange {
        /// The cache's node.
        node: NodeId,
        /// Which level.
        level: Level,
        /// The line containing the words.
        line: LineAddr,
        /// How many words transitioned.
        words: u32,
        /// State before.
        from: WState,
        /// State after.
        to: WState,
    },
    /// A line was evicted from a cache.
    Eviction {
        /// The cache's node.
        node: NodeId,
        /// Which level.
        level: Level,
        /// The victim line.
        line: LineAddr,
        /// Owned words written back (DeNovo) or dirty words lost (0 for
        /// clean GPU lines).
        owned_words: u32,
    },
    /// Store-buffer drain began.
    SbFlushBegin {
        /// The L1's node.
        node: NodeId,
        /// Why the drain started.
        reason: FlushReason,
        /// Entries pending at drain start.
        pending: u32,
    },
    /// Store-buffer drain completed (all writes acknowledged).
    SbFlushEnd {
        /// The L1's node.
        node: NodeId,
    },
    /// An MSHR entry was allocated for a missing line.
    MshrAlloc {
        /// The cache's node.
        node: NodeId,
        /// The missing line.
        line: LineAddr,
        /// Outstanding entries after allocation.
        outstanding: u32,
    },
    /// An MSHR entry retired (its fill arrived and waiters resumed).
    MshrRetire {
        /// The cache's node.
        node: NodeId,
        /// The filled line.
        line: LineAddr,
        /// Waiters woken by the fill.
        waiters: u32,
    },
    /// A message was injected into the mesh.
    MsgSend {
        /// Source node.
        src: NodeId,
        /// Destination node.
        dst: NodeId,
        /// Traffic class.
        class: MsgClass,
        /// Payload size in flits.
        flits: u32,
        /// Links the XY route traverses.
        hops: u32,
        /// Cycle the message will arrive.
        arrival: Cycle,
    },
    /// A message was delivered to its destination component.
    MsgDeliver {
        /// Source node.
        src: NodeId,
        /// Destination node.
        dst: NodeId,
        /// Traffic class.
        class: MsgClass,
    },
    /// The conformance checker recorded a violation. The full detail
    /// string lives in the [`CheckReport`](../gsim_check) the run
    /// returns; the event carries the violation's kind label so a trace
    /// timeline shows *when* the check tripped.
    CheckViolation {
        /// The violation kind's kebab-case label (e.g. "race",
        /// "quiesce-leak").
        kind: &'static str,
    },
}

impl TraceEvent {
    /// The event's category.
    pub fn category(&self) -> Category {
        match self {
            TraceEvent::TbLaunch { .. } | TraceEvent::TbRetire { .. } => Category::Tb,
            TraceEvent::KernelBegin { .. } | TraceEvent::KernelEnd { .. } => Category::Kernel,
            TraceEvent::SyncAcquire { .. }
            | TraceEvent::SyncRelease { .. }
            | TraceEvent::AtomicIssue { .. } => Category::Sync,
            TraceEvent::StateChange { .. } => Category::Protocol,
            TraceEvent::Eviction { .. } => Category::Cache,
            TraceEvent::SbFlushBegin { .. } | TraceEvent::SbFlushEnd { .. } => Category::Sb,
            TraceEvent::MshrAlloc { .. } | TraceEvent::MshrRetire { .. } => Category::Mshr,
            TraceEvent::MsgSend { .. } | TraceEvent::MsgDeliver { .. } => Category::Noc,
            TraceEvent::CheckViolation { .. } => Category::Check,
        }
    }

    /// A short human-readable event name (the Chrome `name` field).
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::TbLaunch { .. } => "tb-launch",
            TraceEvent::TbRetire { .. } => "tb-retire",
            TraceEvent::KernelBegin { .. } => "kernel-begin",
            TraceEvent::KernelEnd { .. } => "kernel-end",
            TraceEvent::SyncAcquire { .. } => "acquire",
            TraceEvent::SyncRelease { .. } => "release",
            TraceEvent::AtomicIssue { .. } => "atomic",
            TraceEvent::StateChange { .. } => "state-change",
            TraceEvent::Eviction { .. } => "eviction",
            TraceEvent::SbFlushBegin { .. } => "sb-flush",
            TraceEvent::SbFlushEnd { .. } => "sb-flush-end",
            TraceEvent::MshrAlloc { .. } => "mshr-alloc",
            TraceEvent::MshrRetire { .. } => "mshr-retire",
            TraceEvent::MsgSend { .. } => "msg-send",
            TraceEvent::MsgDeliver { .. } => "msg-deliver",
            TraceEvent::CheckViolation { .. } => "check-violation",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn categories_cover_the_taxonomy() {
        assert_eq!(Category::ALL.len(), 9);
        let ev = TraceEvent::TbLaunch {
            tb: TbId(1),
            cu: NodeId(0),
        };
        assert_eq!(ev.category(), Category::Tb);
        assert_eq!(ev.category().label(), "tb");
        assert_eq!(ev.name(), "tb-launch");
        let ev = TraceEvent::MsgDeliver {
            src: NodeId(0),
            dst: NodeId(1),
            class: MsgClass::Read,
        };
        assert_eq!(ev.category(), Category::Noc);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Level::L1.label(), "L1");
        assert_eq!(WState::Owned.label(), "O");
        assert_eq!(FlushReason::KernelEnd.label(), "kernel-end");
        assert_eq!(Category::Protocol.to_string(), "protocol");
    }
}
