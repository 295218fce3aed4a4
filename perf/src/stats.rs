//! Order statistics and the two-run comparison rule.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so spreads computed here and by a script
//! over the same values agree.

use crate::metrics::Better;

/// The median of `xs` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no values");
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartiles of `xs`, as `statistics.quantiles(xs, n=4)`
/// gives them. A single value is its own quartiles.
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(!xs.is_empty(), "quartiles of no values");
    let v = sorted(xs);
    let ld = v.len();
    if ld == 1 {
        return (v[0], v[0]);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The outcome of comparing one metric between a parent run `a` and a
/// changed run `b`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// `b` wins at least nine tenths of at least [`MIN_PAIRS`] paired
    /// samples and its value beats `a`'s by more than `a`'s quartile
    /// spread.
    Better,
    /// `b`'s value is worse than `a`'s by more than the bound.
    Worse,
    /// Within the bound, and not a resolved gain.
    Unchanged,
    /// `a`'s own spread is wider than the bound, so a regression of the
    /// bound's size could hide in the noise, and not every sample of `b`
    /// beats every sample of `a`.
    Unresolved,
}

impl Verdict {
    /// Lowercase label for tables.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b` is than `a` as a share of `a` (negative: better).
/// A zero parent makes any worsening infinite.
pub fn worsening(a: f64, b: f64, better: Better) -> f64 {
    let diff = match better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if diff == 0.0 {
        0.0
    } else if a == 0.0 {
        diff.signum() * f64::INFINITY
    } else {
        diff / a.abs()
    }
}

/// Fewest paired samples on which a gain can be claimed.
pub const MIN_PAIRS: usize = 10;

/// One side of a comparison: a run's reported value for a metric and
/// the per-pass samples behind it.
#[derive(Clone, Copy, Debug)]
pub struct Side<'a> {
    /// The reported value.
    pub value: f64,
    /// Per-pass samples (at least one).
    pub samples: &'a [f64],
}

/// Applies the comparison rule to one metric of parent `a` and change
/// `b`: their values, the parent's quartile spread, and the metric's
/// `bound` (the share by which the value may worsen).
pub fn verdict(a: Side, b: Side, better: Better, bound: f64) -> Verdict {
    let (q1, q3) = quartiles(a.samples);
    let spread = q3 - q1;
    let is_better = |x: f64, y: f64| worsening(x, y, better) < 0.0;
    let pairs = a.samples.len().min(b.samples.len());
    let wins = a
        .samples
        .iter()
        .zip(b.samples)
        .filter(|&(&x, &y)| is_better(x, y))
        .count();
    let gain = is_better(a.value, b.value)
        && (b.value - a.value).abs() > spread
        && pairs >= MIN_PAIRS
        && wins * 10 >= pairs * 9;
    let settled = if gain {
        Verdict::Better
    } else {
        Verdict::Unchanged
    };
    if a.value != 0.0 && spread / a.value.abs() > bound {
        // A regression the size of the bound could hide in the noise,
        // unless every sample of the change beats every one of the parent.
        let all_b_better = a
            .samples
            .iter()
            .all(|&x| b.samples.iter().all(|&y| is_better(x, y)));
        return if all_b_better {
            settled
        } else {
            Verdict::Unresolved
        };
    }
    if worsening(a.value, b.value, better) > bound {
        Verdict::Worse
    } else {
        settled
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A side whose value is the median of its samples.
    fn med(samples: &[f64]) -> Side<'_> {
        Side {
            value: median(samples),
            samples,
        }
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[9.0]), (9.0, 9.0));
    }

    #[test]
    fn worsening_follows_the_direction() {
        assert!((worsening(10.0, 11.0, Better::Lower) - 0.1).abs() < 1e-12);
        assert!((worsening(10.0, 11.0, Better::Higher) + 0.1).abs() < 1e-12);
        assert_eq!(worsening(0.0, 0.0, Better::Lower), 0.0);
        assert_eq!(worsening(0.0, 0.5, Better::Lower), f64::INFINITY);
    }

    #[test]
    fn comparator_applies_bound_spread_and_wins() {
        let a = [10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.03, 9.97, 10.0];
        // Same distribution: unchanged.
        assert_eq!(
            verdict(med(&a), med(&a), Better::Lower, 0.1),
            Verdict::Unchanged
        );
        // 5% slower with a 10% bound: still unchanged.
        let slower: Vec<f64> = a.iter().map(|x| x * 1.05).collect();
        assert_eq!(
            verdict(med(&a), med(&slower), Better::Lower, 0.1),
            Verdict::Unchanged
        );
        // 20% slower: worse.
        let slow: Vec<f64> = a.iter().map(|x| x * 1.2).collect();
        assert_eq!(
            verdict(med(&a), med(&slow), Better::Lower, 0.1),
            Verdict::Worse
        );
        // The same change on a higher-is-better metric is a gain.
        assert_eq!(
            verdict(med(&a), med(&slow), Better::Higher, 0.1),
            Verdict::Better
        );
        // 3% faster on every sample, beyond the 0.1 quartile spread.
        let fast: Vec<f64> = a.iter().map(|x| x * 0.97).collect();
        assert_eq!(
            verdict(med(&a), med(&fast), Better::Lower, 0.1),
            Verdict::Better
        );
    }

    #[test]
    fn comparator_needs_nine_tenths_of_ten_pairs_for_a_gain() {
        let a = [10.0; 10];
        // Median clearly faster, but two pairs of ten lost: 80% < 90%.
        let b = [9.0, 9.0, 9.0, 9.0, 11.0, 9.0, 9.0, 9.0, 9.0, 11.0];
        assert_eq!(
            verdict(med(&a), med(&b), Better::Lower, 0.25),
            Verdict::Unchanged
        );
        // Five pairs, all won: too few to claim a gain.
        assert_eq!(
            verdict(med(&a[..5]), med(&[9.0; 5]), Better::Lower, 0.25),
            Verdict::Unchanged
        );
    }

    #[test]
    fn comparator_reports_noise_wider_than_the_bound_as_unresolved() {
        let a = [10.0, 14.0, 8.0, 12.0, 6.0];
        let b = [10.5, 13.0, 8.5, 12.5, 6.5];
        assert_eq!(
            verdict(med(&a), med(&b), Better::Lower, 0.1),
            Verdict::Unresolved
        );
        // Unless every run of the change beats every run of the parent:
        // no regression, though three pairs cannot show a gain.
        let c = [1.0, 2.0, 3.0];
        assert_eq!(
            verdict(med(&a), med(&c), Better::Lower, 0.1),
            Verdict::Unchanged
        );
    }

    #[test]
    fn zero_bound_flags_any_new_failure() {
        assert_eq!(
            verdict(med(&[0.0]), med(&[0.0]), Better::Lower, 0.0),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(med(&[0.0]), med(&[0.01]), Better::Lower, 0.0),
            Verdict::Worse
        );
    }

    #[test]
    fn comparator_judges_reported_values_against_pass_spread() {
        // Values are each side's fastest pass; samples carry the noise.
        let a = [10.0, 10.4, 10.2, 10.1, 10.3];
        let b = [11.5, 12.0, 11.8, 11.6, 11.9];
        let side = |v, s| Side {
            value: v,
            samples: s,
        };
        assert_eq!(
            verdict(side(10.0, &a), side(11.5, &b), Better::Lower, 0.2),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(side(10.0, &a), side(11.5, &b), Better::Lower, 0.1),
            Verdict::Worse
        );
    }
}
