//! The occupancy time-series: periodic snapshots of cumulative flow
//! counters and instantaneous memory-system occupancies.
//!
//! Sampling shares `gsim_prof`'s clock: at every multiple of
//! `ObserveSpec::interval` the engine crosses it reports one
//! `interval_sample` hook, and the collector turns it into a
//! [`FlowSample`] of its own cumulative counters plus the engine's
//! gauges. Exports compute per-interval deltas.

use gsim_types::Cycle;

/// Ring capacity: samples beyond this are counted as dropped rather
/// than recorded (keeping the *earliest* window, like the trace ring).
pub const MAX_SAMPLES: usize = 1 << 16;

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

/// The bounded sample store.
#[derive(Clone, Debug, Default)]
pub struct SampleRing {
    samples: Vec<FlowSample>,
    dropped: u64,
}

impl SampleRing {
    /// Records a sample, or counts it dropped when full.
    pub fn push(&mut self, s: FlowSample) {
        if self.samples.len() < MAX_SAMPLES {
            self.samples.push(s);
        } else {
            self.dropped += 1;
        }
    }

    /// The recorded samples, in time order.
    pub fn samples(&self) -> &[FlowSample] {
        &self.samples
    }

    /// Samples that arrived after the ring filled.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Consumes the ring.
    pub fn into_parts(self) -> (Vec<FlowSample>, u64) {
        (self.samples, self.dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_bounds_and_counts_drops() {
        let mut r = SampleRing::default();
        for i in 0..(MAX_SAMPLES as u64 + 3) {
            r.push(FlowSample {
                cycle: i,
                ..Default::default()
            });
        }
        assert_eq!(r.samples().len(), MAX_SAMPLES);
        assert_eq!(r.dropped(), 3);
        assert_eq!(r.samples()[0].cycle, 0, "earliest window kept");
    }
}
