//! A small, deterministic pseudo-random number generator for workload
//! generation and randomized testing.
//!
//! The simulator is fully deterministic and self-contained; pulling in an
//! external RNG crate for the handful of seeded generators the workloads
//! and tests need would be the repository's only third-party dependency.
//! [`Rng64`] is a SplitMix64 generator — the standard seeding generator
//! from Steele et al., *Fast splittable pseudorandom number generators*
//! (OOPSLA 2014) — which passes BigCrush and is more than adequate for
//! generating test inputs and unbalanced trees.
//!
//! Determinism is load-bearing: the same seed must produce the same
//! workload on every platform and in every run, because host-side
//! expected results are computed from the same generator stream.

/// A seeded SplitMix64 pseudo-random number generator.
///
/// # Examples
///
/// ```
/// use gsim_types::Rng64;
///
/// let mut a = Rng64::seed_from_u64(7);
/// let mut b = Rng64::seed_from_u64(7);
/// assert_eq!(a.next_u64(), b.next_u64()); // deterministic
/// let x = a.gen_u32(10, 20);
/// assert!((10..20).contains(&x));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rng64 {
    state: u64,
}

impl Rng64 {
    /// Creates a generator from a 64-bit seed. Distinct seeds give
    /// statistically independent streams.
    pub fn seed_from_u64(seed: u64) -> Self {
        Rng64 { state: seed }
    }

    /// The next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `u64` in `[lo, hi)` via widening multiply (Lemire's
    /// nearly-divisionless method, without the rejection step — the bias
    /// is ≤ 2⁻⁶⁴ · span, irrelevant for test-input generation).
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn gen_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        let span = hi - lo;
        let wide = (self.next_u64() as u128) * (span as u128);
        lo + (wide >> 64) as u64
    }

    /// Uniform `u32` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn gen_u32(&mut self, lo: u32, hi: u32) -> u32 {
        self.gen_u64(lo as u64, hi as u64) as u32
    }

    /// Uniform `usize` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn gen_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.gen_u64(lo as u64, hi as u64) as usize
    }

    /// A uniformly random boolean.
    pub fn gen_bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_stream() {
        let mut a = Rng64::seed_from_u64(0xDEAD_BEEF);
        let mut b = Rng64::seed_from_u64(0xDEAD_BEEF);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn known_splitmix64_vector() {
        // Reference outputs for seed 0 from the canonical C implementation.
        let mut r = Rng64::seed_from_u64(0);
        assert_eq!(r.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(r.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(r.next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = Rng64::seed_from_u64(42);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..10_000 {
            let v = r.gen_u32(5, 13);
            assert!((5..13).contains(&v));
            seen_lo |= v == 5;
            seen_hi |= v == 12;
        }
        assert!(seen_lo && seen_hi, "both endpoints reachable");
        assert_eq!(r.gen_usize(3, 4), 3, "singleton range");
    }

    #[test]
    fn roughly_uniform() {
        let mut r = Rng64::seed_from_u64(1);
        let mut buckets = [0u32; 10];
        for _ in 0..100_000 {
            buckets[r.gen_usize(0, 10)] += 1;
        }
        for &b in &buckets {
            assert!((8_000..12_000).contains(&b), "bucket count {b}");
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        Rng64::seed_from_u64(0).gen_u32(5, 5);
    }
}
