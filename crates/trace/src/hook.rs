//! The value types hooks carry beyond `gsim-types`: why a CU cycle was
//! spent ([`StallKind`]), what kind of request a journey follows
//! ([`JourneyKind`]), and the engine's periodic counter snapshot
//! ([`IntervalSample`]).

use gsim_types::Cycle;

/// Number of attribution buckets.
pub const NUM_STALL_KINDS: usize = 8;

/// What a CU cycle was spent on. Every resident-CU cycle is charged to
/// exactly one of these.
///
/// When several thread blocks of one CU are blocked for different
/// reasons, the CU-level state is the highest-priority reason in the
/// order `GlobalSpin > LocalSpin > Barrier > SbDrain > SbFull >
/// LoadUse > Issue > Idle` — a deliberate approximation that favours
/// synchronization visibility (the paper's §5 narrative is about where
/// sync cycles go), documented in DESIGN.md §7f.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum StallKind {
    /// Issuing instructions, or compute latency (`Compute` sleeps).
    Issue = 0,
    /// Waiting for a load (includes MSHR-full retry spins and load
    /// backoff sleeps).
    LoadUse = 1,
    /// A store found the store buffer full and forced an overflow
    /// flush this cycle.
    SbFull = 2,
    /// Draining the store buffer for a release (the release phase of a
    /// sync op, or an end-of-kernel flush).
    SbDrain = 3,
    /// Spinning on a globally scoped (or DRF-effectively-global)
    /// acquire.
    GlobalSpin = 4,
    /// Spinning on a locally scoped acquire (HRF configs only).
    LocalSpin = 5,
    /// Waiting on a sync *read* (`AtomicOp::Read`): barrier flag and
    /// ticket-turn waits.
    Barrier = 6,
    /// No resident thread block.
    Idle = 7,
}

/// All kinds, in bucket order (stable across reports and JSON).
pub const STALL_KINDS: [StallKind; NUM_STALL_KINDS] = [
    StallKind::Issue,
    StallKind::LoadUse,
    StallKind::SbFull,
    StallKind::SbDrain,
    StallKind::GlobalSpin,
    StallKind::LocalSpin,
    StallKind::Barrier,
    StallKind::Idle,
];

impl StallKind {
    /// Stable lowercase label (report columns, JSON keys, CSV headers).
    pub fn label(self) -> &'static str {
        match self {
            StallKind::Issue => "issue",
            StallKind::LoadUse => "load-use",
            StallKind::SbFull => "sb-full",
            StallKind::SbDrain => "sb-drain",
            StallKind::GlobalSpin => "global-acquire-spin",
            StallKind::LocalSpin => "local-acquire-spin",
            StallKind::Barrier => "barrier-wait",
            StallKind::Idle => "idle",
        }
    }

    /// Compact label for per-CU table columns.
    pub fn short_label(self) -> &'static str {
        match self {
            StallKind::Issue => "issue",
            StallKind::LoadUse => "ld-use",
            StallKind::SbFull => "sb-full",
            StallKind::SbDrain => "sb-drain",
            StallKind::GlobalSpin => "g-spin",
            StallKind::LocalSpin => "l-spin",
            StallKind::Barrier => "barrier",
            StallKind::Idle => "idle",
        }
    }

    /// Priority when several blocked thread blocks disagree about why
    /// their CU is stalled (higher wins; see the type docs).
    pub fn priority(self) -> u8 {
        match self {
            StallKind::GlobalSpin => 7,
            StallKind::LocalSpin => 6,
            StallKind::Barrier => 5,
            StallKind::SbDrain => 4,
            StallKind::SbFull => 3,
            StallKind::LoadUse => 2,
            StallKind::Issue => 1,
            StallKind::Idle => 0,
        }
    }

    /// Of two reasons, the one that should label the CU.
    pub fn max_priority(self, other: StallKind) -> StallKind {
        if other.priority() > self.priority() {
            other
        } else {
            self
        }
    }
}

/// What kind of request a journey follows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JourneyKind {
    /// A load that missed in the L1 (or coalesced into an outstanding
    /// miss).
    Load,
    /// A read-modify-write executed at the L2 bank.
    Atomic,
}

impl JourneyKind {
    /// Short lowercase label (JSON, Perfetto span names).
    pub fn label(self) -> &'static str {
        match self {
            JourneyKind::Load => "load",
            JourneyKind::Atomic => "atomic",
        }
    }
}

/// One snapshot, taken every `ObserveSpec::interval` cycles. Counter
/// fields are cumulative since cycle 0; `*_occupancy`, `pending_reqs`
/// and `outstanding_syncs` are instantaneous gauges.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IntervalSample {
    /// The sample boundary (a multiple of the sampling interval).
    pub cycle: Cycle,
    /// Cumulative instructions retired.
    pub instructions: u64,
    /// Cumulative L1 load hits (all L1s).
    pub l1_load_hits: u64,
    /// Cumulative L1 load misses (all L1s).
    pub l1_load_misses: u64,
    /// Cumulative mesh messages sent.
    pub messages: u64,
    /// Cumulative flit-hop crossings.
    pub flits: u64,
    /// MSHR entries in flight across all L1s, at sample time.
    pub mshr_occupancy: u64,
    /// Store-buffer lines held across all L1s, at sample time.
    pub sb_occupancy: u64,
    /// Requests in the engine's pending table, at sample time.
    pub pending_reqs: u64,
    /// Sync operations (atomics) in flight, at sample time.
    pub outstanding_syncs: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priorities_are_distinct_and_sync_wins() {
        let mut ps: Vec<u8> = STALL_KINDS.iter().map(|k| k.priority()).collect();
        ps.sort_unstable();
        ps.dedup();
        assert_eq!(ps.len(), NUM_STALL_KINDS);
        assert_eq!(
            StallKind::LoadUse.max_priority(StallKind::GlobalSpin),
            StallKind::GlobalSpin
        );
        assert_eq!(
            StallKind::Idle.max_priority(StallKind::Issue),
            StallKind::Issue
        );
    }
}
