//! The value types hooks carry beyond `gsim-types`: why a CU cycle was
//! spent ([`StallKind`]), what kind of request a journey follows
//! ([`JourneyKind`]), the engine's periodic counter snapshot
//! ([`IntervalSample`]) and end-of-run summary ([`RunEnd`]), the
//! bounded store that time series are kept in ([`SampleRing`]), and
//! the shape of the machine a run reports from ([`RunShape`]).

use gsim_types::{Counts, Cycle};

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

/// The shape of the simulated machine one run reports from: how many
/// nodes it has, how they group into devices, which of them host a CU,
/// and the L2 service time. It owns the CU-node rule: the first
/// `cus_per_device` nodes of each device host a CU, and the rest (the
/// CPU/L2-only node) do not. Dense CU index `cu` is local CU
/// `cu % cus_per_device` of device `cu / cus_per_device`.
///
/// # Examples
///
/// ```
/// use gsim_trace::RunShape;
///
/// // Two devices of 16 nodes, 15 CUs each.
/// let shape = RunShape::new(32, 16, 15, 26);
/// assert_eq!(shape.cus(), 30);
/// assert!(!shape.is_cu(15) && !shape.is_cu(31));
/// assert_eq!(shape.node_of(15), 16);
/// assert_eq!(shape.cu_of(16), 15);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunShape {
    /// Nodes, over every device.
    pub nodes: usize,
    /// Nodes per device.
    pub nodes_per_device: usize,
    /// CU nodes per device: the first this many of each device's nodes.
    pub cus_per_device: usize,
    /// The service time of one L2 bank access, in cycles.
    pub l2_latency: Cycle,
}

impl RunShape {
    /// The shape with these fields, in their order.
    pub fn new(
        nodes: usize,
        nodes_per_device: usize,
        cus_per_device: usize,
        l2_latency: Cycle,
    ) -> Self {
        RunShape {
            nodes,
            nodes_per_device,
            cus_per_device,
            l2_latency,
        }
    }

    /// The CU count, over every device.
    pub fn cus(&self) -> usize {
        self.nodes / self.nodes_per_device * self.cus_per_device
    }

    /// Whether `node` hosts a CU.
    pub fn is_cu(&self, node: usize) -> bool {
        node % self.nodes_per_device < self.cus_per_device
    }

    /// The dense CU index of CU node `node`.
    pub fn cu_of(&self, node: usize) -> usize {
        debug_assert!(self.is_cu(node), "node {node} hosts no CU");
        node / self.nodes_per_device * self.cus_per_device + node % self.nodes_per_device
    }

    /// The node hosting dense CU index `cu`.
    pub fn node_of(&self, cu: usize) -> usize {
        debug_assert!(cu < self.cus(), "CU {cu} of {}", self.cus());
        cu / self.cus_per_device * self.nodes_per_device + cu % self.cus_per_device
    }

    /// Every CU node, in node order.
    pub fn cu_nodes(&self) -> impl Iterator<Item = usize> + 'static {
        let shape = *self;
        (0..self.nodes).filter(move |&n| shape.is_cu(n))
    }
}

/// What the engine reports once a run has verified: its final cycle
/// and the counters its components kept, beside the engine's own.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunEnd {
    /// `SimStats::cycles` of the run.
    pub cycles: Cycle,
    /// Final L1 counters, indexed by node (CU and non-CU nodes alike).
    pub l1_counts: Vec<Counts>,
    /// Final L2 counters.
    pub l2_counts: Counts,
    /// `Counts::messages_sent` of the run.
    pub messages_sent: u64,
    /// `Counts::flit_hops` of the run.
    pub flit_hops: u64,
}

/// The sampling interval of a time series when its view is not told
/// otherwise, in cycles.
pub const DEFAULT_SAMPLE_INTERVAL: Cycle = 1024;

/// One snapshot, taken every sampling interval (the period the run's
/// consumers declare through `TraceSink::sample_interval`). Counter
/// fields are cumulative since cycle 0; `*_occupancy`, `pending_reqs`
/// and `outstanding_syncs` are instantaneous gauges. The engine takes
/// them lazily, from the event loop: an idle gap spanning several
/// boundaries yields several identical snapshots, which render as
/// zero-delta intervals.
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

/// How many samples a [`SampleRing`] keeps. Later samples are counted
/// as dropped rather than recorded, keeping the *earliest* window as
/// the trace ring keeps its earliest events; a paper-scale run at the
/// default interval stays well under this.
pub const MAX_SAMPLES: usize = 1 << 16;

/// The bounded store of an interval time series: the profiler keeps
/// each [`IntervalSample`] in one, the flow collector its own sample
/// built from the same hook. Samples hold cumulative values; exports
/// compute the per-interval deltas.
#[derive(Clone, Debug)]
pub struct SampleRing<S> {
    samples: Vec<S>,
    dropped: u64,
}

impl<S> Default for SampleRing<S> {
    fn default() -> Self {
        SampleRing {
            samples: Vec::new(),
            dropped: 0,
        }
    }
}

impl<S> SampleRing<S> {
    /// Records a sample, or counts it dropped when full.
    pub fn push(&mut self, s: S) {
        if self.samples.len() < MAX_SAMPLES {
            self.samples.push(s);
        } else {
            self.dropped += 1;
        }
    }

    /// Consumes the ring: the recorded samples in time order, and how
    /// many arrived after it filled.
    pub fn into_parts(self) -> (Vec<S>, u64) {
        (self.samples, self.dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_ring_keeps_the_earliest_window_and_counts_drops() {
        let mut r = SampleRing::default();
        for cycle in 0..(MAX_SAMPLES as u64 + 5) {
            r.push(cycle);
        }
        let (samples, dropped) = r.into_parts();
        assert_eq!(samples.len(), MAX_SAMPLES);
        assert_eq!(dropped, 5);
        assert_eq!(samples[0], 0, "earliest window kept");
    }

    #[test]
    fn run_shape_maps_cu_nodes_both_ways() {
        // Two devices of 4 nodes with 3 CUs each.
        let shape = RunShape::new(8, 4, 3, 26);
        assert_eq!(shape.cus(), 6);
        assert_eq!(shape.cu_nodes().collect::<Vec<_>>(), [0, 1, 2, 4, 5, 6]);
        for (cu, node) in shape.cu_nodes().enumerate() {
            assert_eq!(shape.node_of(cu), node);
            assert_eq!(shape.cu_of(node), cu);
        }
        let one = RunShape::new(16, 16, 15, 26);
        assert!(
            (0..15).all(|cu| one.node_of(cu) == cu),
            "identity on one device"
        );
        assert!(!one.is_cu(15));
    }

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
