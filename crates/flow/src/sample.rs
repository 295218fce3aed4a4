//! The occupancy time-series: periodic snapshots of cumulative flow
//! counters and instantaneous memory-system occupancies.
//!
//! Sampling runs on the clock the collector declares (its
//! `sample_interval`, which the profiler shares): at every multiple of
//! it the engine crosses it reports one `interval_sample` hook, and the
//! collector turns it into a
//! [`FlowSample`] of its own cumulative counters plus the engine's
//! gauges, kept in a [`gsim_trace::SampleRing`]. Exports compute
//! per-interval deltas.

use gsim_types::Cycle;

/// One snapshot. `flits`, `queue_cycles`, and `l2_msgs` are cumulative
/// since cycle 0; the `*_occupancy`, `pending_reqs`, and
/// `active_journeys` fields are instantaneous gauges.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlowSample {
    /// The sample boundary (a multiple of the sampling interval).
    pub cycle: Cycle,
    /// Cumulative flit-link crossings, all classes.
    pub flits: u64,
    /// Cumulative cycles messages spent queued for busy links.
    pub queue_cycles: u64,
    /// Cumulative messages delivered to L2 banks.
    pub l2_msgs: u64,
    /// MSHR entries in flight across all L1s, at sample time.
    pub mshr_occupancy: u64,
    /// Store-buffer lines held across all L1s, at sample time.
    pub sb_occupancy: u64,
    /// Requests in the engine's pending table, at sample time.
    pub pending_reqs: u64,
    /// Sampled journeys begun but not yet finished, at sample time.
    pub active_journeys: u64,
}
