//! Log2-bucketed latency histograms and the per-run latency breakdown.
//!
//! The paper attributes its performance gaps to *where time goes* —
//! load-to-use stalls, atomic round-trips, synchronization spinning,
//! store-buffer drains at releases. Aggregate cycle counts can't show
//! that, so the simulator folds four always-on latency histograms into
//! [`SimStats`](crate::SimStats) as a [`LatencyBreakdown`].
//!
//! A histogram is a fixed array of 32 power-of-two buckets: bucket 0
//! holds samples 0 and 1, and bucket `k` (for `k ≥ 1`) holds samples in
//! `[2^k, 2^(k+1))`. Recording a sample is two adds and a
//! `leading_zeros` — cheap enough to leave on in every run — and
//! percentiles are answered from the bucket counts with a worst-case
//! error of one bucket width (≤ 2x, which is exactly the fidelity a
//! log-scale latency plot communicates anyway).

use crate::ids::Cycle;
use std::fmt;
use std::ops::AddAssign;

/// Number of log2 buckets. Bucket 31 is a saturating catch-all, so the
/// histogram covers `[0, 2^31)` exactly (buckets 0–30) and everything
/// above approximately.
pub const BUCKETS: usize = 32;

/// A fixed-size log2-bucketed histogram of cycle latencies.
///
/// # Examples
///
/// ```
/// use gsim_types::LatencyHistogram;
///
/// let mut h = LatencyHistogram::default();
/// for v in [1, 2, 3, 100] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 4);
/// assert_eq!(h.max(), 100);
/// assert!(h.percentile(50.0).unwrap() <= 3);
/// assert!(h.percentile(99.0).unwrap() >= 100);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            counts: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl LatencyHistogram {
    /// The bucket a sample lands in: 0 for values ≤ 1, otherwise the
    /// position of the highest set bit (`2, 3 → 1`, `4..8 → 2`, ...),
    /// saturating at [`BUCKETS`]` - 1`.
    #[inline]
    fn bucket_index(value: Cycle) -> usize {
        if value <= 1 {
            0
        } else {
            (63 - value.leading_zeros() as usize).min(BUCKETS - 1)
        }
    }

    /// The inclusive upper bound of a bucket (what percentiles report).
    #[inline]
    fn bucket_upper_bound(index: usize) -> Cycle {
        if index >= BUCKETS - 1 {
            u64::MAX
        } else {
            (2u64 << index) - 1
        }
    }

    /// Records one latency sample.
    #[inline]
    pub fn record(&mut self, value: Cycle) {
        self.counts[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no sample has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all samples (for the mean).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample; 0 when empty.
    pub fn min(&self) -> Cycle {
        if self.is_empty() {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample; 0 when empty.
    pub fn max(&self) -> Cycle {
        self.max
    }

    /// Mean of the samples; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// The `q`-th percentile (`0 < q ≤ 100`) as the upper bound of the
    /// bucket containing it, clamped to the observed maximum. `None`
    /// when the histogram is empty.
    pub fn percentile(&self, q: f64) -> Option<Cycle> {
        if self.count == 0 {
            return None;
        }
        // Rank of the wanted sample, 1-based, ceiling — p100 is the last.
        let rank = ((q / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Self::bucket_upper_bound(i).min(self.max));
            }
        }
        Some(self.max)
    }

    /// The raw bucket counts (for exporters and tests).
    pub fn buckets(&self) -> &[u64; BUCKETS] {
        &self.counts
    }

    /// Reconstructs a histogram from serialized raw parts (the inverse
    /// of [`LatencyHistogram::buckets`]/[`sum`](LatencyHistogram::sum)/
    /// [`min`](LatencyHistogram::min)/[`max`](LatencyHistogram::max)).
    /// The sample count is derived from the bucket counts, and `min` is
    /// normalized back to the empty-histogram sentinel when no samples
    /// were recorded.
    pub fn from_raw(counts: [u64; BUCKETS], sum: u64, min: Cycle, max: Cycle) -> Self {
        let count: u64 = counts.iter().sum();
        LatencyHistogram {
            counts,
            count,
            sum,
            min: if count == 0 { u64::MAX } else { min },
            max,
        }
    }
}

impl AddAssign for LatencyHistogram {
    fn add_assign(&mut self, rhs: Self) {
        for i in 0..BUCKETS {
            self.counts[i] += rhs.counts[i];
        }
        self.count += rhs.count;
        self.sum = self.sum.saturating_add(rhs.sum);
        self.min = self.min.min(rhs.min);
        self.max = self.max.max(rhs.max);
    }
}

/// The four latency populations the simulator attributes cycles to.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LatencyBreakdown {
    /// Load issue to value availability (L1 hits record 1 cycle).
    pub load_to_use: LatencyHistogram,
    /// Atomic issue to completion, one attempt (includes any release
    /// phase the same instruction performs first).
    pub atomic_rtt: LatencyHistogram,
    /// Synchronization wait: first issue attempt of a sync instruction
    /// to its completion, spanning retries and DeNovoSync0 backoff —
    /// barrier waits and lock-acquire spins dominate this population.
    pub barrier_wait: LatencyHistogram,
    /// Store-buffer drain at releases and kernel boundaries.
    pub sb_drain: LatencyHistogram,
}

impl LatencyBreakdown {
    /// `(label, histogram)` pairs in display order.
    pub fn named(&self) -> [(&'static str, &LatencyHistogram); 4] {
        [
            ("load-to-use", &self.load_to_use),
            ("atomic-rtt", &self.atomic_rtt),
            ("barrier-wait", &self.barrier_wait),
            ("sb-drain", &self.sb_drain),
        ]
    }
}

impl AddAssign for LatencyBreakdown {
    fn add_assign(&mut self, rhs: Self) {
        self.load_to_use += rhs.load_to_use;
        self.atomic_rtt += rhs.atomic_rtt;
        self.barrier_wait += rhs.barrier_wait;
        self.sb_drain += rhs.sb_drain;
    }
}

impl fmt::Display for LatencyBreakdown {
    /// Renders the percentile table the CLI's `--hist` flag prints.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<14}{:>10}{:>8}{:>8}{:>8}{:>8}{:>10}",
            "latency", "samples", "p50", "p95", "p99", "max", "mean"
        )?;
        for (name, h) in self.named() {
            if h.is_empty() {
                writeln!(
                    f,
                    "{name:<14}{:>10}       -       -       -       -         -",
                    0
                )?;
            } else {
                writeln!(
                    f,
                    "{name:<14}{:>10}{:>8}{:>8}{:>8}{:>8}{:>10.1}",
                    h.count(),
                    h.percentile(50.0).unwrap(),
                    h.percentile(95.0).unwrap(),
                    h.percentile(99.0).unwrap(),
                    h.max(),
                    h.mean().unwrap(),
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = LatencyHistogram::default();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), None);
        assert_eq!(h.percentile(50.0), None);
        assert_eq!(h.percentile(99.0), None);
    }

    #[test]
    fn single_sample() {
        let mut h = LatencyHistogram::default();
        h.record(37);
        assert_eq!(h.count(), 1);
        assert_eq!(h.min(), 37);
        assert_eq!(h.max(), 37);
        assert_eq!(h.mean(), Some(37.0));
        // Every percentile is that one sample, clamped to the max.
        assert_eq!(h.percentile(1.0), Some(37));
        assert_eq!(h.percentile(50.0), Some(37));
        assert_eq!(h.percentile(100.0), Some(37));
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(LatencyHistogram::bucket_index(0), 0);
        assert_eq!(LatencyHistogram::bucket_index(1), 0);
        assert_eq!(LatencyHistogram::bucket_index(2), 1);
        assert_eq!(LatencyHistogram::bucket_index(3), 1);
        assert_eq!(LatencyHistogram::bucket_index(4), 2);
        assert_eq!(LatencyHistogram::bucket_index(7), 2);
        assert_eq!(LatencyHistogram::bucket_index(8), 3);
        assert_eq!(LatencyHistogram::bucket_upper_bound(0), 1);
        assert_eq!(LatencyHistogram::bucket_upper_bound(1), 3);
        assert_eq!(LatencyHistogram::bucket_upper_bound(2), 7);
        assert_eq!(LatencyHistogram::bucket_upper_bound(BUCKETS - 1), u64::MAX);
    }

    /// Exhaustive sweep of every power-of-two boundary in the domain:
    /// `2^k - 1`, `2^k`, and `2^k + 1` must land where the bucket
    /// contract says, all the way up to the saturating catch-all.
    #[test]
    fn bucket_index_at_every_power_of_two_boundary() {
        assert_eq!(LatencyHistogram::bucket_index(0), 0);
        assert_eq!(LatencyHistogram::bucket_index(1), 0);
        for k in 1..64u32 {
            let p = 1u64 << k;
            let expect = (k as usize).min(BUCKETS - 1);
            assert_eq!(
                LatencyHistogram::bucket_index(p - 1),
                (k as usize - 1).min(BUCKETS - 1),
                "2^{k} - 1"
            );
            assert_eq!(LatencyHistogram::bucket_index(p), expect, "2^{k}");
            assert_eq!(LatencyHistogram::bucket_index(p + 1), expect, "2^{k} + 1");
        }
        assert_eq!(LatencyHistogram::bucket_index(Cycle::MAX), BUCKETS - 1);
    }

    /// `bucket_upper_bound` is the exact inverse of `bucket_index`: the
    /// bound itself is the last value mapping to the bucket, and the
    /// next value maps to the bucket after it (except the catch-all,
    /// whose bound is `u64::MAX` with nothing beyond it).
    #[test]
    fn bucket_upper_bound_is_inclusive_and_tight() {
        for k in 0..BUCKETS {
            let ub = LatencyHistogram::bucket_upper_bound(k);
            assert_eq!(LatencyHistogram::bucket_index(ub), k, "bound of bucket {k}");
            if k < BUCKETS - 1 {
                assert_eq!(
                    LatencyHistogram::bucket_index(ub + 1),
                    k + 1,
                    "value past bucket {k}"
                );
            } else {
                assert_eq!(ub, u64::MAX, "catch-all bound saturates");
            }
        }
        // Out-of-range indices also saturate instead of shifting past
        // the word width (`2u64 << 63` would overflow).
        assert_eq!(LatencyHistogram::bucket_upper_bound(BUCKETS), u64::MAX);
        assert_eq!(LatencyHistogram::bucket_upper_bound(usize::MAX), u64::MAX);
        // The exactly-covered range: bucket 30 ends at 2^31 - 1.
        assert_eq!(
            LatencyHistogram::bucket_upper_bound(BUCKETS - 2),
            (1u64 << 31) - 1
        );
    }

    /// Recording the extreme values must not overflow or misfile.
    #[test]
    fn extreme_samples_record_cleanly() {
        let mut h = LatencyHistogram::default();
        h.record(0);
        h.record(1);
        h.record(Cycle::MAX);
        assert_eq!(h.count(), 3);
        assert_eq!(h.buckets()[0], 2, "0 and 1 share bucket 0");
        assert_eq!(h.buckets()[BUCKETS - 1], 1);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), Cycle::MAX);
        // sum saturates rather than wrapping.
        assert_eq!(h.sum(), u64::MAX);
        h.record(Cycle::MAX);
        assert_eq!(h.sum(), u64::MAX, "sum saturates on repeat overflow");
    }

    #[test]
    fn saturating_bucket() {
        let mut h = LatencyHistogram::default();
        h.record(u64::MAX);
        h.record(1u64 << 40);
        assert_eq!(h.buckets()[BUCKETS - 1], 2, "both land in the catch-all");
        // Within the catch-all bucket only the observed max is known.
        assert_eq!(h.percentile(50.0), Some(u64::MAX));
        assert_eq!(h.percentile(100.0), Some(u64::MAX));
        let mut g = LatencyHistogram::default();
        g.record(1u64 << 40);
        assert_eq!(
            g.percentile(50.0),
            Some(1u64 << 40),
            "clamped to observed max"
        );
    }

    #[test]
    fn percentiles_track_distribution() {
        let mut h = LatencyHistogram::default();
        // 90 fast ops at 1 cycle, 10 slow ones at ~1000.
        for _ in 0..90 {
            h.record(1);
        }
        for _ in 0..10 {
            h.record(1000);
        }
        assert_eq!(h.percentile(50.0), Some(1));
        assert_eq!(h.percentile(90.0), Some(1));
        // p95/p99 land in the 1000-cycle bucket [512, 1024).
        assert_eq!(h.percentile(95.0), Some(1000));
        assert_eq!(h.percentile(99.0), Some(1000));
        assert_eq!(h.mean(), Some((90.0 + 10_000.0) / 100.0));
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = LatencyHistogram::default();
        a.record(5);
        let mut b = LatencyHistogram::default();
        b.record(500);
        a += b;
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 5);
        assert_eq!(a.max(), 500);
        let mut empty = LatencyHistogram::default();
        empty += a;
        assert_eq!(empty.count(), 2);
        assert_eq!(
            empty.min(),
            5,
            "min survives merging into an empty histogram"
        );
    }

    #[test]
    fn breakdown_table_renders() {
        let mut b = LatencyBreakdown::default();
        b.load_to_use.record(3);
        b.barrier_wait.record(700);
        let txt = b.to_string();
        assert!(txt.contains("load-to-use"));
        assert!(txt.contains("barrier-wait"));
        assert!(txt.contains("sb-drain"));
        assert!(txt.contains("p99"));
    }
}
