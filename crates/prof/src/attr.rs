//! Cycle attribution: the per-CU charging state machine over the eight
//! [`StallKind`] buckets.
//!
//! The engine drives one [`CuAttr`] per CU. Every attributed interval
//! is half-open `[since, now)` and every transition both charges the
//! elapsed interval and moves `since`, so the buckets of a CU always
//! sum *exactly* to the cycles attributed so far — there is no way to
//! double-charge or drop a cycle. Issue ticks additionally charge the
//! issuing cycle itself to the instruction's bucket (normally
//! [`StallKind::Issue`]; [`StallKind::SbFull`] when the instruction hit
//! a full store buffer or a full MSHR and burned the cycle retrying).

use gsim_trace::{StallKind, NUM_STALL_KINDS};
use gsim_types::Cycle;

/// The charging state machine of one CU.
#[derive(Clone, Debug)]
pub struct CuAttr {
    kind: StallKind,
    since: Cycle,
    /// The bucket the most recent issue tick charged (so `finish` can
    /// reclaim a tick that landed on the run's final cycle).
    last_tick: StallKind,
    /// Cycles charged per bucket, indexed by `StallKind as usize`.
    pub buckets: [u64; NUM_STALL_KINDS],
}

impl Default for CuAttr {
    fn default() -> Self {
        CuAttr {
            kind: StallKind::Idle,
            since: 0,
            last_tick: StallKind::Idle,
            buckets: [0; NUM_STALL_KINDS],
        }
    }
}

impl CuAttr {
    /// Charges `[since, now)` to the current state and moves `since`.
    /// A `now` before `since` (a state transition in the same cycle as
    /// an already-charged issue tick) has nothing elapsed to charge.
    #[inline]
    fn charge_to(&mut self, now: Cycle) {
        if now < self.since {
            return;
        }
        self.buckets[self.kind as usize] += now - self.since;
        self.since = now;
    }

    /// An issue tick at `now`: the elapsed interval goes to the current
    /// state, the issuing cycle itself to `bucket`, and the CU enters
    /// `next` (or keeps its state when `next` is `None` — used when a
    /// kernel boundary already set it this cycle).
    #[inline]
    pub fn tick(&mut self, now: Cycle, bucket: StallKind, next: Option<StallKind>) {
        self.charge_to(now);
        self.buckets[bucket as usize] += 1;
        self.last_tick = bucket;
        self.since = now + 1;
        if let Some(next) = next {
            self.kind = next;
        }
    }

    /// A state transition at `now` (completion, wake-up, kernel
    /// boundary): charge the elapsed interval, then switch.
    #[inline]
    pub fn set_state(&mut self, now: Cycle, kind: StallKind) {
        self.charge_to(now);
        self.kind = kind;
    }

    /// Charges the tail interval up to the end of the run. If the run's
    /// final event was an issue tick at `end`, its issuing-cycle charge
    /// lies past the accounted range `[0, end)` and is reclaimed, so
    /// the buckets sum to exactly `end`.
    pub fn finish(&mut self, end: Cycle) {
        if self.since > end {
            self.buckets[self.last_tick as usize] -= self.since - end;
            self.since = end;
            return;
        }
        self.charge_to(end);
    }

    /// Total cycles attributed so far.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whatever sequence of ticks and transitions runs, the buckets sum
    /// exactly to the final cycle count.
    #[test]
    fn attribution_is_exact() {
        let mut a = CuAttr::default();
        a.set_state(0, StallKind::Issue); // kernel start
        a.tick(1, StallKind::Issue, Some(StallKind::LoadUse)); // issue, then block
        a.set_state(9, StallKind::Issue); // load completed at 9
        a.tick(10, StallKind::Issue, Some(StallKind::GlobalSpin));
        a.set_state(52, StallKind::Issue);
        a.tick(52, StallKind::SbFull, Some(StallKind::Idle)); // same-cycle wake+tick
        a.finish(100);
        assert_eq!(a.total(), 100);
        // Issue: [0,1) + tick@1 + [9,10) + tick@10.
        assert_eq!(a.buckets[StallKind::Issue as usize], 4);
        assert_eq!(a.buckets[StallKind::SbFull as usize], 1);
        assert_eq!(a.buckets[StallKind::LoadUse as usize], 7); // [2, 9)
        assert_eq!(a.buckets[StallKind::GlobalSpin as usize], 41); // [11, 52)
        assert_eq!(a.buckets[StallKind::Idle as usize], 47); // [53, 100)
    }

    /// A tick on the run's very last cycle charges past `end`; `finish`
    /// reclaims it so totals still equal the cycle count.
    #[test]
    fn final_cycle_tick_is_reclaimed() {
        let mut a = CuAttr::default();
        a.set_state(0, StallKind::Issue);
        a.tick(10, StallKind::Issue, Some(StallKind::Idle));
        a.finish(10);
        assert_eq!(a.total(), 10);
        assert_eq!(a.buckets[StallKind::Issue as usize], 10);
    }

    /// A kernel-boundary transition in the same cycle as a just-charged
    /// tick charges nothing extra but does switch state.
    #[test]
    fn same_cycle_transition_after_tick() {
        let mut a = CuAttr::default();
        a.set_state(0, StallKind::Issue);
        a.tick(4, StallKind::Issue, Some(StallKind::Idle));
        a.set_state(4, StallKind::SbDrain); // end-of-kernel, same cycle
        a.finish(20);
        assert_eq!(a.total(), 20);
        assert_eq!(a.buckets[StallKind::Issue as usize], 5); // [0,4) + tick@4
        assert_eq!(a.buckets[StallKind::SbDrain as usize], 15); // [5,20)
        assert_eq!(a.buckets[StallKind::Idle as usize], 0);
    }

    #[test]
    fn tick_with_none_keeps_state() {
        let mut a = CuAttr::default();
        a.set_state(5, StallKind::SbDrain);
        a.tick(5, StallKind::Issue, None); // halt cycle during a drain
        a.finish(20);
        assert_eq!(a.buckets[StallKind::Idle as usize], 5); // [0, 5)
        assert_eq!(a.buckets[StallKind::Issue as usize], 1);
        assert_eq!(a.buckets[StallKind::SbDrain as usize], 14); // [6, 20)
        assert_eq!(a.total(), 20);
    }
}
