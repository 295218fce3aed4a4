//! The interval time-series: periodic snapshots of cumulative counters
//! and instantaneous occupancies.
//!
//! The engine samples at every multiple of `ProfSpec::interval` it
//! crosses (lazily, from the event loop — an idle gap spanning several
//! boundaries yields several identical snapshots, which honestly render
//! as zero-delta intervals). Samples hold *cumulative* values; exports
//! compute per-interval deltas so a CSV row or a Perfetto counter point
//! describes one interval.

use gsim_trace::IntervalSample;

/// Ring capacity: samples beyond this are counted as dropped rather
/// than recorded (keeping the *earliest* window, like the trace ring
/// keeps its earliest events; a paper-scale run at the default interval
/// stays well under this).
pub const MAX_SAMPLES: usize = 1 << 16;

/// The bounded sample store.
#[derive(Clone, Debug, Default)]
pub struct IntervalRing {
    samples: Vec<IntervalSample>,
    dropped: u64,
}

impl IntervalRing {
    /// Records a sample, or counts it dropped when full.
    pub fn push(&mut self, s: IntervalSample) {
        if self.samples.len() < MAX_SAMPLES {
            self.samples.push(s);
        } else {
            self.dropped += 1;
        }
    }

    /// The recorded samples, in time order.
    pub fn samples(&self) -> &[IntervalSample] {
        &self.samples
    }

    /// Samples that arrived after the ring filled.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Consumes the ring.
    pub fn into_parts(self) -> (Vec<IntervalSample>, u64) {
        (self.samples, self.dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_bounds_and_counts_drops() {
        let mut r = IntervalRing::default();
        for i in 0..(MAX_SAMPLES as u64 + 5) {
            r.push(IntervalSample {
                cycle: i,
                ..Default::default()
            });
        }
        assert_eq!(r.samples().len(), MAX_SAMPLES);
        assert_eq!(r.dropped(), 5);
        assert_eq!(r.samples()[0].cycle, 0, "earliest window kept");
    }
}
