//! The simulator's event queue: a bucketed calendar queue.
//!
//! Almost every event the engine schedules lands within a few hundred
//! cycles of "now" (mesh hops, L2 bank busy time, DRAM fills); only
//! long `Compute` sleeps reach further. A calendar queue — a ring of
//! per-cycle FIFO buckets over a fixed horizon, with a small overflow
//! heap for the far future — turns both `push` and `pop` into O(1)
//! bucket operations for that common case, replacing the O(log n)
//! `BinaryHeap` the engine used before.
//!
//! **Ordering contract** (asserted against a `BinaryHeap` model by the
//! unit tests): events pop in strictly increasing `(cycle, seq)` order,
//! where `seq` is the queue-assigned push serial. Same-cycle events
//! therefore pop in push (FIFO) order — the property every golden
//! statistic depends on.
//!
//! **Candidate view** (schedule exploration, `gsim-explore`): the head
//! bucket holds every event at the earliest queued cycle, in `seq`
//! order. [`EventQueue::candidates`] shows it and
//! [`EventQueue::pop_nth`] pops any one of it; `pop_nth(0)` is
//! [`EventQueue::pop`], so a run that always takes choice 0 is the
//! production run.
//!
//! # Examples
//!
//! ```
//! use gsim_core::equeue::{EventQueue, QueueKind};
//!
//! let mut q: EventQueue<&str> = EventQueue::new(QueueKind::Calendar);
//! q.push(5, "later");
//! q.push(1, "first");
//! q.push(5, "even later"); // same cycle: FIFO
//! assert_eq!(q.pop(), Some((1, 2, "first")));
//! let (cycle, head) = q.candidates().expect("two events queued");
//! assert_eq!(cycle, 5);
//! assert_eq!(head.collect::<Vec<_>>(), [(1, &"later"), (3, &"even later")]);
//! assert_eq!(q.pop_nth(1), Some((5, 3, "even later")));
//! assert_eq!(q.pop(), Some((5, 1, "later")));
//! assert_eq!(q.pop(), None);
//! ```

use gsim_types::Cycle;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Which event-queue implementation a run uses. There is one, the
/// calendar queue; the type stays because `SystemConfig::event_queue`
/// and [`EventQueue::new`] name it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum QueueKind {
    /// Bucketed calendar queue (O(1) push/pop for near-future events).
    #[default]
    Calendar,
}

/// Ring width: how many cycles ahead of the cursor get their own FIFO
/// bucket. Must be a power of two (the bucket index is a mask).
/// Covers every latency the memory system generates (mesh + L2 + DRAM
/// is < 300 cycles); only long `Compute` sleeps overflow.
const DEFAULT_HORIZON: u64 = 1024;

/// A bucketed calendar/timing-wheel queue over [`Cycle`] timestamps.
///
/// One FIFO bucket per cycle over a power-of-two horizon; events beyond
/// the horizon wait in an overflow heap and migrate into the ring as the
/// cursor advances. Within a cycle, events pop in push order (`seq`).
#[derive(Debug)]
pub struct EventQueue<T> {
    /// The scan cursor: no queued event is earlier than this cycle.
    cur: Cycle,
    /// Bucket index mask (`horizon - 1`).
    mask: u64,
    /// Per-cycle FIFO buckets for `at - cur < horizon`, each sorted by
    /// `seq` (push order, with overflow migrations merged in place).
    buckets: Box<[VecDeque<(Cycle, u64, T)>]>,
    /// Events in the ring.
    ring_len: usize,
    /// Far-future events (`at - cur >= horizon` at push time).
    overflow: BinaryHeap<OverflowEntry<T>>,
    /// Push serial, shared tie-breaker of the ordering contract.
    seq: u64,
}

/// Overflow-heap entry: min-heap on `(at, seq)` (payload ignored).
#[derive(Debug)]
struct OverflowEntry<T> {
    at: Cycle,
    seq: u64,
    item: T,
}

impl<T> PartialEq for OverflowEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for OverflowEntry<T> {}
impl<T> PartialOrd for OverflowEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for OverflowEntry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, the earliest entry must win.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue of the given kind (a calendar queue with
    /// the default 1024-cycle horizon).
    pub fn new(kind: QueueKind) -> Self {
        match kind {
            QueueKind::Calendar => Self::with_horizon(DEFAULT_HORIZON),
        }
    }

    /// Creates an empty queue with a custom ring horizon (power of two).
    /// Small horizons force frequent overflow migration and ring wrap —
    /// useful for stress tests.
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is not a power of two.
    fn with_horizon(horizon: u64) -> Self {
        assert!(
            horizon.is_power_of_two(),
            "horizon {horizon} is not a power of two"
        );
        EventQueue {
            cur: 0,
            mask: horizon - 1,
            buckets: (0..horizon).map(|_| VecDeque::new()).collect(),
            ring_len: 0,
            overflow: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.ring_len + self.overflow.len()
    }

    /// Whether no events are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn horizon(&self) -> u64 {
        self.mask + 1
    }

    /// Schedules `item` at cycle `at` (which must not precede the last
    /// pop's cycle) and returns the assigned `seq`.
    #[inline]
    pub fn push(&mut self, at: Cycle, item: T) -> u64 {
        debug_assert!(
            at >= self.cur,
            "scheduled an event at {at}, before the queue cursor {}",
            self.cur
        );
        self.seq += 1;
        let seq = self.seq;
        if at - self.cur < self.horizon() {
            self.buckets[(at & self.mask) as usize].push_back((at, seq, item));
            self.ring_len += 1;
        } else {
            self.overflow.push(OverflowEntry { at, seq, item });
        }
        seq
    }

    /// Moves every overflow event that now falls inside the ring horizon
    /// into its bucket, keeping each bucket sorted by `seq`.
    fn migrate_overflow(&mut self) {
        while let Some(head) = self.overflow.peek() {
            if head.at - self.cur >= self.horizon() {
                break;
            }
            let OverflowEntry { at, seq, item } = self.overflow.pop().expect("peeked entry");
            let bucket = &mut self.buckets[(at & self.mask) as usize];
            // Direct pushes carry later seqs, so the entry usually merges
            // at the front; search from the back for the rare interleave.
            let pos = bucket.partition_point(|&(_, s, _)| s < seq);
            bucket.insert(pos, (at, seq, item));
            self.ring_len += 1;
        }
    }

    /// Moves the cursor to the earliest queued cycle and returns that
    /// cycle's bucket, which then holds every event at the cycle in
    /// `seq` order; `None` when the queue is empty. Every pop goes
    /// through here, so settling again before a pop changes nothing.
    #[inline]
    fn settle(&mut self) -> Option<&mut VecDeque<(Cycle, u64, T)>> {
        if self.overflow.is_empty() {
            if self.ring_len == 0 {
                return None;
            }
        } else {
            self.migrate_overflow();
        }
        if self.ring_len == 0 {
            // Everything lives beyond the horizon: jump the cursor.
            self.cur = self.overflow.peek().expect("queue is non-empty").at;
            self.migrate_overflow();
        }
        // Scan forward to the next non-empty bucket. Every ring event
        // satisfies cur <= at < cur + horizon and sits in bucket
        // `at % horizon`, so a non-empty bucket at offset k holds exactly
        // the events for cycle cur + k — the first hit is the minimum,
        // and the overflow heap (all >= cur + horizon after migration)
        // cannot beat it.
        while self.buckets[(self.cur & self.mask) as usize].is_empty() {
            self.cur += 1;
        }
        let bucket = &mut self.buckets[(self.cur & self.mask) as usize];
        debug_assert!(
            bucket.front().is_some_and(|&(at, _, _)| at == self.cur),
            "bucket holds a foreign cycle"
        );
        Some(bucket)
    }

    /// Removes and returns the earliest event as `(cycle, seq, item)`;
    /// ties on cycle break by push order.
    #[inline]
    pub fn pop(&mut self) -> Option<(Cycle, u64, T)> {
        let event = self.settle()?.pop_front();
        self.ring_len -= 1;
        event
    }

    /// The candidate set: the earliest queued cycle and, in `seq` order,
    /// the `(seq, item)` of every event scheduled at it; `None` when
    /// empty. Settles the cursor as [`pop`](Self::pop) does, so a
    /// decision point exists exactly when the view has two or more
    /// entries.
    pub fn candidates(&mut self) -> Option<(Cycle, impl ExactSizeIterator<Item = (u64, &T)> + '_)> {
        let bucket = self.settle()?;
        Some((
            bucket[0].0,
            bucket.iter().map(|(_, seq, item)| (*seq, item)),
        ))
    }

    /// Pops the `k`-th candidate (in `seq` order) of the earliest queued
    /// cycle. `k == 0` is the identity choice, the event
    /// [`pop`](Self::pop) would return. Returns `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if the queue is non-empty and `k` is out of range for the
    /// candidate set — a schedule word must only index real candidates.
    pub fn pop_nth(&mut self, k: usize) -> Option<(Cycle, u64, T)> {
        let bucket = self.settle()?;
        let n = bucket.len();
        let event = bucket
            .remove(k)
            .unwrap_or_else(|| panic!("schedule choice {k} out of range ({n} candidates)"));
        self.ring_len -= 1;
        Some(event)
    }

    /// The cycle of the earliest queued event, without removing it.
    ///
    /// Non-mutating: the cursor does not advance and no overflow
    /// migration happens, so the ring scan is O(horizon) worst case.
    /// The engine calls this at cycle boundaries (its deferred kernel
    /// transitions), not on the per-event hot path.
    ///
    /// The overflow heap must be consulted even when the ring is
    /// non-empty: pops migrate overflow *before* advancing the cursor,
    /// so after a long cursor jump the heap can briefly hold events
    /// that now fall inside the ring window — and beat a ring event
    /// pushed after the jump.
    pub fn next_cycle(&self) -> Option<Cycle> {
        let overflow_min = self.overflow.peek().map(|e| e.at);
        if self.ring_len == 0 {
            return overflow_min;
        }
        for k in 0..=self.mask {
            let c = self.cur + k;
            if let Some(&(at, _, _)) = self.buckets[(c & self.mask) as usize].front() {
                debug_assert_eq!(at, c, "bucket holds a foreign cycle");
                return Some(overflow_min.map_or(at, |o| o.min(at)));
            }
        }
        unreachable!("ring_len > 0 but no ring bucket is populated");
    }

    /// Iterates over queued events in no particular order (diagnostics).
    pub fn iter(&self) -> impl Iterator<Item = (Cycle, &T)> {
        self.buckets
            .iter()
            .flat_map(|b| b.iter().map(|(at, _, item)| (*at, item)))
            .chain(self.overflow.iter().map(|e| (e.at, &e.item)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsim_types::Rng64;
    use std::cmp::Reverse;

    /// The reference model of the ordering contract: a `BinaryHeap` on
    /// `(cycle, seq)`, the engine's original queue.
    struct HeapModel<T> {
        heap: BinaryHeap<Reverse<(Cycle, u64, T)>>,
        seq: u64,
    }

    impl<T: Ord> HeapModel<T> {
        fn new() -> Self {
            HeapModel {
                heap: BinaryHeap::new(),
                seq: 0,
            }
        }

        fn push(&mut self, at: Cycle, item: T) -> u64 {
            self.seq += 1;
            self.heap.push(Reverse((at, self.seq, item)));
            self.seq
        }

        fn pop(&mut self) -> Option<(Cycle, u64, T)> {
            self.heap.pop().map(|Reverse(e)| e)
        }

        fn len(&self) -> usize {
            self.heap.len()
        }
    }

    fn calendar<T>() -> EventQueue<T> {
        EventQueue::new(QueueKind::Calendar)
    }

    #[test]
    fn fifo_within_a_cycle() {
        let mut q: EventQueue<u32> = calendar();
        for i in 0..100 {
            q.push(7, i);
        }
        let popped: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|(_, _, v)| v).collect();
        assert_eq!(popped, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn far_future_goes_through_overflow_and_back() {
        let mut q: EventQueue<&str> = EventQueue::with_horizon(8);
        q.push(1_000_000, "far");
        q.push(3, "near");
        q.push(1_000_000, "far2");
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop().map(|(at, _, v)| (at, v)), Some((3, "near")));
        assert_eq!(q.pop().map(|(at, _, v)| (at, v)), Some((1_000_000, "far")));
        assert_eq!(q.pop().map(|(at, _, v)| (at, v)), Some((1_000_000, "far2")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ring_rollover_across_many_revolutions() {
        // With a tiny horizon every push wraps the ring repeatedly.
        let mut q: EventQueue<u64> = EventQueue::with_horizon(4);
        let mut t = 0;
        for i in 0..1000u64 {
            t += i % 7; // irregular strides, many multiples of the horizon
            q.push(t, i);
            if i % 3 == 0 {
                let (at, _, _) = q.pop().expect("non-empty");
                assert!(at <= t);
            }
        }
        let mut last = 0;
        while let Some((at, _, _)) = q.pop() {
            assert!(at >= last, "time went backwards");
            last = at;
        }
    }

    #[test]
    fn overflow_migration_preserves_seq_order_within_cycle() {
        // An overflow event and later direct pushes landing on the same
        // cycle must still pop in push (seq) order.
        let mut q: EventQueue<&str> = EventQueue::with_horizon(8);
        q.push(100, "overflowed first"); // beyond horizon: overflow
        q.push(0, "warm"); // keeps the ring busy
        assert_eq!(q.pop().map(|(at, _, v)| (at, v)), Some((0, "warm")));
        // Cursor is at 0; 100 is still beyond the 8-cycle horizon.
        q.push(96, "direct"); // also overflow at push time
        q.push(97, "bridge");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop()).map(|(_, _, v)| v).collect();
        assert_eq!(order, ["direct", "bridge", "overflowed first"]);
    }

    #[test]
    fn cursor_near_u64_max_does_not_wrap_forever() {
        let mut q: EventQueue<&str> = EventQueue::with_horizon(8);
        q.push(u64::MAX - 1, "penultimate");
        q.push(u64::MAX, "last");
        assert_eq!(
            q.pop().map(|(at, _, v)| (at, v)),
            Some((u64::MAX - 1, "penultimate"))
        );
        assert_eq!(q.pop().map(|(at, _, v)| (at, v)), Some((u64::MAX, "last")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn push_at_current_cycle_during_drain() {
        // The engine schedules work at the cycle it is currently
        // processing (TbWake -> ensure_tick at `now`).
        let mut q: EventQueue<u32> = calendar();
        q.push(5, 1);
        assert_eq!(q.pop().map(|(at, _, v)| (at, v)), Some((5, 1)));
        q.push(5, 2); // same cycle as the pop we just did
        assert_eq!(q.pop().map(|(at, _, v)| (at, v)), Some((5, 2)));
    }

    /// The calendar queue against the heap model, driven by seeded
    /// random schedules: pop order must match on every `(cycle, seq)`.
    #[test]
    fn differential_random_ops_match_heap_model() {
        let mut rng = Rng64::seed_from_u64(0xca1e);
        for round in 0..50 {
            // Exercise tiny horizons (constant migration) and the default.
            let horizon = [4u64, 16, 256, 1024][round % 4];
            let mut cal: EventQueue<u64> = EventQueue::with_horizon(horizon);
            let mut heap: HeapModel<u64> = HeapModel::new();
            let mut now = 0u64;
            let mut payload = 0u64;
            for _ in 0..rng.gen_usize(10, 400) {
                if rng.gen_u32(0, 3) == 0 {
                    let got = cal.pop();
                    let want = heap.pop();
                    assert_eq!(got, want, "divergent pop (horizon {horizon})");
                    if let Some((at, _, _)) = got {
                        now = at;
                    }
                } else {
                    // Mostly near-future, sometimes far beyond the horizon.
                    let delay = if rng.gen_u32(0, 10) == 0 {
                        rng.gen_u64(0, 1 << 20)
                    } else {
                        rng.gen_u64(0, 300)
                    };
                    payload += 1;
                    let s1 = cal.push(now + delay, payload);
                    let s2 = heap.push(now + delay, payload);
                    assert_eq!(s1, s2, "seq assignment diverged");
                }
                assert_eq!(cal.len(), heap.len());
            }
            loop {
                let (got, want) = (cal.pop(), heap.pop());
                assert_eq!(got, want, "divergent drain (horizon {horizon})");
                if got.is_none() {
                    break;
                }
            }
        }
    }

    /// The exact horizon boundary at the default 1024-cycle ring: a
    /// delta of `horizon - 1` is the last direct-to-bucket push, a delta
    /// of exactly `horizon` is the first overflow push (it would land in
    /// the bucket the cursor is about to scan), and `horizon + 1` is
    /// clearly overflow. All three must pop in time order regardless of
    /// which side of the boundary they took.
    #[test]
    fn deltas_straddling_the_default_horizon_boundary() {
        for base in [0u64, 1, 1023, 1024, 1025, 70_000] {
            let mut q: EventQueue<&str> = calendar();
            if base > 0 {
                // Advance the cursor to `base` so the deltas are measured
                // from a non-zero origin (exercises the `at - cur` maths).
                q.push(base, "cursor");
                assert_eq!(q.pop().map(|(at, _, v)| (at, v)), Some((base, "cursor")));
            }
            q.push(base + 1025, "over+1");
            q.push(base + 1023, "ring-edge");
            q.push(base + 1024, "over-edge");
            assert_eq!(q.len(), 3);
            assert_eq!(
                q.pop().map(|(at, _, v)| (at, v)),
                Some((base + 1023, "ring-edge")),
                "base {base}"
            );
            // Popping the edge event advanced the cursor; the two
            // overflow events migrate in and pop in cycle order.
            assert_eq!(
                q.pop().map(|(at, _, v)| (at, v)),
                Some((base + 1024, "over-edge")),
                "base {base}"
            );
            assert_eq!(
                q.pop().map(|(at, _, v)| (at, v)),
                Some((base + 1025, "over+1")),
                "base {base}"
            );
            assert_eq!(q.pop(), None);
        }
    }

    /// Same-cycle FIFO order must hold even when the cycle sits exactly
    /// on the horizon boundary, so some of its events went to the ring
    /// and some to the overflow heap.
    #[test]
    fn same_cycle_fifo_across_the_boundary_split() {
        let mut q: EventQueue<u32> = calendar();
        q.push(1024, 0); // delta 1024 from cursor 0: overflow
        q.push(1, 100); // keeps the ring busy
        assert_eq!(q.pop().map(|(at, _, v)| (at, v)), Some((1, 100)));
        // Cursor is now 1, so delta to 1024 is 1023: direct to bucket.
        q.push(1024, 1);
        q.push(1024, 2);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|(_, _, v)| v).collect();
        assert_eq!(order, [0, 1, 2], "same-cycle events must pop in push order");
    }

    /// Far-future stress against the heap model: every event is pushed
    /// far beyond the horizon, so every pop goes through a cursor jump
    /// and an overflow migration. Strides are multiples of the horizon
    /// (the worst case for `at & mask` aliasing: every event of a wave
    /// maps to the same bucket).
    #[test]
    fn far_future_stress_matches_heap_model() {
        let mut rng = Rng64::seed_from_u64(0xbeef_cafe);
        for horizon in [4u64, 64, 1024] {
            let mut cal: EventQueue<u64> = EventQueue::with_horizon(horizon);
            let mut heap: HeapModel<u64> = HeapModel::new();
            let mut now = 0u64;
            for i in 0..2000u64 {
                // Always at least one horizon ahead; often an exact
                // multiple of the horizon (bucket aliasing).
                let delay = horizon * rng.gen_u64(1, 50) + rng.gen_u64(0, 2);
                cal.push(now + delay, i);
                heap.push(now + delay, i);
                if rng.gen_u32(0, 2) == 0 {
                    let (got, want) = (cal.pop(), heap.pop());
                    assert_eq!(got, want, "divergent pop (horizon {horizon})");
                    if let Some((at, _, _)) = got {
                        now = at;
                    }
                }
            }
            loop {
                let (got, want) = (cal.pop(), heap.pop());
                assert_eq!(got, want, "divergent drain (horizon {horizon})");
                if got.is_none() {
                    break;
                }
            }
        }
    }

    /// Ring wrap mid-migration: a migrated overflow event lands in a
    /// bucket *behind* the cursor's ring index (its cycle modulo the
    /// horizon is smaller than the cursor's), which is only reachable
    /// after the cursor wraps the ring. The scan must still find it at
    /// the right cycle, and later pushes onto the same bucket must not
    /// shadow it.
    #[test]
    fn migrated_event_behind_the_cursor_index_pops_in_order() {
        let mut q: EventQueue<&str> = EventQueue::with_horizon(8);
        q.push(6, "warm"); // cursor will sit at ring index 6
        q.push(9, "wrapped"); // delta 9 > 8: overflow; ring index 1 < 6
        assert_eq!(q.pop().map(|(at, _, v)| (at, v)), Some((6, "warm")));
        // Migration at this pop put "wrapped" into bucket 1, behind the
        // cursor index. Push a nearer event into a bucket between them.
        q.push(7, "between");
        assert_eq!(q.pop().map(|(at, _, v)| (at, v)), Some((7, "between")));
        assert_eq!(q.pop().map(|(at, _, v)| (at, v)), Some((9, "wrapped")));
        assert_eq!(q.pop(), None);
    }

    /// The candidates of `q` as `(cycle, [item])`.
    fn head<T: Copy>(q: &mut EventQueue<T>) -> Option<(Cycle, Vec<T>)> {
        q.candidates()
            .map(|(at, events)| (at, events.map(|(_, &v)| v).collect()))
    }

    #[test]
    fn candidates_are_the_head_cycle_in_seq_order() {
        let mut q: EventQueue<&str> = calendar();
        assert!(q.candidates().is_none());
        q.push(9, "later");
        q.push(4, "a");
        q.push(4, "b");
        q.push(4, "c");
        let (at, events) = q.candidates().expect("non-empty");
        assert_eq!(at, 4);
        assert_eq!(events.len(), 3);
        let seqs: Vec<u64> = events.map(|(seq, _)| seq).collect();
        assert_eq!(seqs, [2, 3, 4]);
        assert_eq!(head(&mut q), Some((4, vec!["a", "b", "c"])));
        // Looking settles the cursor but removes nothing.
        assert_eq!(q.len(), 4);
        assert_eq!(q.pop().map(|(at, _, v)| (at, v)), Some((4, "a")));
    }

    #[test]
    fn pop_nth_reorders_only_within_the_cycle() {
        let mut q: EventQueue<u32> = calendar();
        q.push(1, 10);
        q.push(1, 11);
        q.push(1, 12);
        q.push(2, 20);
        // Pick the middle candidate, then the (new) second, then the rest.
        assert_eq!(q.pop_nth(1).map(|(at, _, v)| (at, v)), Some((1, 11)));
        assert_eq!(q.pop_nth(1).map(|(at, _, v)| (at, v)), Some((1, 12)));
        assert_eq!(q.pop_nth(0).map(|(at, _, v)| (at, v)), Some((1, 10)));
        // Cycle 2 was never a candidate while cycle 1 had events.
        assert_eq!(q.pop_nth(0).map(|(at, _, v)| (at, v)), Some((2, 20)));
        assert_eq!(q.pop_nth(0), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn pop_nth_rejects_out_of_range_choice() {
        let mut q: EventQueue<u32> = calendar();
        q.push(1, 10);
        q.pop_nth(1);
    }

    /// A head cycle whose events were split between the overflow heap
    /// (pushed while the cycle lay beyond the horizon) and direct pushes:
    /// the view must show the migrated event first, in `seq` order, and
    /// `pop_nth` must index that merged order.
    #[test]
    fn candidates_merge_an_overflow_and_direct_split_head() {
        let mut q: EventQueue<&str> = EventQueue::with_horizon(8);
        q.push(0, "warm");
        q.push(10, "overflowed"); // delta 10 >= 8: overflow
        assert_eq!(q.pop().map(|(_, _, v)| v), Some("warm"));
        q.push(5, "step");
        assert_eq!(q.pop().map(|(_, _, v)| v), Some("step"));
        // Cursor 5: cycle 10 is now inside the ring, but "overflowed"
        // still waits in the heap until the next settle.
        q.push(10, "direct");
        assert_eq!(head(&mut q), Some((10, vec!["overflowed", "direct"])));
        assert_eq!(q.pop_nth(1).map(|(at, _, v)| (at, v)), Some((10, "direct")));
        assert_eq!(head(&mut q), Some((10, vec!["overflowed"])));
        assert_eq!(q.pop_nth(0).map(|(_, _, v)| v), Some("overflowed"));
        assert!(q.candidates().is_none());
    }

    /// Every event beyond the horizon: the view jumps the cursor to the
    /// far head cycle and migrates only that wave.
    #[test]
    fn candidates_jump_the_cursor_past_the_horizon() {
        let mut q: EventQueue<&str> = EventQueue::with_horizon(4);
        q.push(1000, "p");
        q.push(2000, "r");
        q.push(1000, "q");
        assert_eq!(head(&mut q), Some((1000, vec!["p", "q"])));
        assert_eq!(q.pop_nth(1).map(|(at, _, v)| (at, v)), Some((1000, "q")));
        assert_eq!(head(&mut q), Some((1000, vec!["p"])));
        // A push at the settled cycle joins its candidate set.
        q.push(1000, "s");
        assert_eq!(head(&mut q), Some((1000, vec!["p", "s"])));
        assert_eq!(q.pop().map(|(_, _, v)| v), Some("p"));
        assert_eq!(q.pop().map(|(_, _, v)| v), Some("s"));
        assert_eq!(head(&mut q), Some((2000, vec!["r"])));
    }

    /// Random choices against a model that keeps every event in push
    /// order: the candidates are the events at the minimum cycle, and
    /// `pop_nth(k)` removes the `k`-th of them. Horizons down to one
    /// bucket keep nearly every event in the overflow heap.
    #[test]
    fn pop_nth_matches_a_push_order_model_at_tiny_horizons() {
        let mut rng = Rng64::seed_from_u64(0x5eed_c401);
        for horizon in [1u64, 2, 4, 1024] {
            let mut q: EventQueue<u64> = EventQueue::with_horizon(horizon);
            let mut model: Vec<(Cycle, u64, u64)> = Vec::new();
            let mut now = 0u64;
            for i in 0..3000u64 {
                if rng.gen_u32(0, 5) < 2 && !model.is_empty() {
                    let min = model.iter().map(|e| e.0).min().expect("non-empty");
                    let heads: Vec<usize> =
                        (0..model.len()).filter(|&j| model[j].0 == min).collect();
                    let (at, view) = q.candidates().expect("model is non-empty");
                    let view: Vec<u64> = view.map(|(seq, _)| seq).collect();
                    let want: Vec<u64> = heads.iter().map(|&j| model[j].1).collect();
                    assert_eq!((at, view), (min, want), "view diverged (horizon {horizon})");
                    let k = rng.gen_usize(0, heads.len());
                    assert_eq!(
                        q.pop_nth(k),
                        Some(model.remove(heads[k])),
                        "horizon {horizon}"
                    );
                    now = min;
                } else {
                    let delay = if rng.gen_u32(0, 8) == 0 {
                        rng.gen_u64(0, 5000)
                    } else {
                        rng.gen_u64(0, 3)
                    };
                    let seq = q.push(now + delay, i);
                    model.push((now + delay, seq, i));
                }
                assert_eq!(q.len(), model.len());
            }
        }
    }

    /// The identity schedule is the production order: over random event
    /// streams, `pop_nth(0)` (after looking at the candidates, as the
    /// engine's scheduled pop does) returns what `pop` returns, and both
    /// follow the heap model, so an exploration run that never deviates
    /// from choice 0 is bit-identical to a production run.
    #[test]
    fn identity_schedule_matches_calendar_and_heap_order() {
        let mut rng = Rng64::seed_from_u64(0xdec1_510e);
        for round in 0..40 {
            let horizon = [4u64, 64, 1024][round % 3];
            let mut cal: EventQueue<u64> = EventQueue::with_horizon(horizon);
            let mut nth: EventQueue<u64> = EventQueue::with_horizon(horizon);
            let mut heap: HeapModel<u64> = HeapModel::new();
            let mut now = 0u64;
            let mut payload = 0u64;
            for _ in 0..rng.gen_usize(10, 300) {
                if rng.gen_u32(0, 3) == 0 {
                    let want = heap.pop();
                    assert_eq!(cal.pop(), want, "pop diverged from the heap model");
                    let first = nth.candidates().map(|(at, mut view)| {
                        let (seq, _) = view.next().expect("a settled head is non-empty");
                        (at, seq)
                    });
                    assert_eq!(first, want.map(|(at, seq, _)| (at, seq)));
                    assert_eq!(nth.pop_nth(0), want, "pop_nth(0) diverged");
                    if let Some((at, _, _)) = want {
                        now = at;
                    }
                } else {
                    let delay = if rng.gen_u32(0, 10) == 0 {
                        rng.gen_u64(0, 1 << 20)
                    } else {
                        rng.gen_u64(0, 300)
                    };
                    payload += 1;
                    let s1 = heap.push(now + delay, payload);
                    assert_eq!(cal.push(now + delay, payload), s1);
                    assert_eq!(nth.push(now + delay, payload), s1, "seq diverged");
                }
                assert_eq!(cal.len(), nth.len());
            }
            loop {
                let want = heap.pop();
                assert_eq!(cal.pop(), want);
                assert_eq!(nth.pop_nth(0), want, "pop_nth(0) drain diverged");
                if want.is_none() {
                    break;
                }
            }
        }
    }

    /// Horizon-boundary audit for the overflow-migration merge
    /// (`partition_point` in `migrate_overflow`): a cycle exactly at the
    /// 1024-bucket horizon receives events from *both* sides of the
    /// split — direct pushes (late seqs) and overflow migrations (early
    /// seqs) — in permuted push orders. The merged bucket must always
    /// pop in global seq order, for every permutation of which path each
    /// event took.
    #[test]
    fn permuted_same_cycle_events_merge_in_seq_order_at_the_horizon() {
        // Each mask bit decides whether event i is pushed before (1) or
        // after (0) the cursor advance that flips cycle `base + 1024`
        // from overflow to direct — 2^5 path permutations.
        for mask in 0u32..32 {
            let mut cal: EventQueue<u32> = calendar();
            let mut heap: HeapModel<u32> = HeapModel::new();
            let base = 7u64; // non-zero cursor origin
            cal.push(base, 0);
            heap.push(base, 0);
            let target = base + 1024;
            // Phase 1: cursor at 0..=base-ish, target is overflow.
            for i in 0..5u32 {
                if mask & (1 << i) != 0 {
                    cal.push(target, i + 1);
                    heap.push(target, i + 1);
                }
            }
            // Advance the cursor past `base`: delta to target becomes
            // 1023 and phase-2 pushes go direct to the bucket while the
            // phase-1 events still sit in the overflow heap.
            assert_eq!(cal.pop().map(|(at, _, v)| (at, v)), Some((base, 0)));
            assert_eq!(heap.pop().map(|(at, _, v)| (at, v)), Some((base, 0)));
            for i in 0..5u32 {
                if mask & (1 << i) == 0 {
                    cal.push(target, i + 1);
                    heap.push(target, i + 1);
                }
            }
            // Seq order == value order here only when the overflow subset
            // was pushed first; in general the heap model defines truth.
            loop {
                let (got, want) = (cal.pop(), heap.pop());
                assert_eq!(got, want, "mask {mask:05b}: merge broke seq order");
                if got.is_none() {
                    break;
                }
            }
        }
    }

    /// The same horizon-straddling merge with interleaved pops, so
    /// migration happens while the target bucket is mid-drain.
    #[test]
    fn migration_into_a_draining_bucket_keeps_fifo() {
        let mut cal: EventQueue<u32> = EventQueue::with_horizon(8);
        let mut heap: HeapModel<u32> = HeapModel::new();
        for (at, v) in [(10u64, 0u32), (3, 1), (10, 2), (4, 3), (10, 4)] {
            cal.push(at, v);
            heap.push(at, v);
        }
        // Pops at 3 and 4 advance the cursor, migrating the cycle-10
        // events (pushed to overflow at delta >= 8) one wave at a time
        // into a bucket that also receives fresh direct pushes.
        assert_eq!(cal.pop(), heap.pop());
        cal.push(10, 5);
        heap.push(10, 5);
        assert_eq!(cal.pop(), heap.pop());
        cal.push(10, 6);
        heap.push(10, 6);
        loop {
            let (got, want) = (cal.pop(), heap.pop());
            assert_eq!(got, want, "mid-drain migration broke FIFO");
            if got.is_none() {
                break;
            }
        }
    }

    /// `next_cycle` must agree with the next `pop` across random
    /// schedules, without mutating.
    #[test]
    fn next_cycle_agrees_with_pop() {
        let mut rng = Rng64::seed_from_u64(0x9eec);
        for horizon in [4u64, 1024] {
            let mut q: EventQueue<u64> = EventQueue::with_horizon(horizon);
            let mut now = 0u64;
            for i in 0..500u64 {
                if rng.gen_u32(0, 3) == 0 {
                    let peek = q.next_cycle();
                    let peek2 = q.next_cycle(); // idempotent
                    assert_eq!(peek, peek2, "peek mutated the queue (horizon {horizon})");
                    let got = q.pop();
                    assert_eq!(
                        got.map(|(at, _, _)| at),
                        peek,
                        "peek != pop (horizon {horizon})"
                    );
                    if let Some((at, _, _)) = got {
                        now = at;
                    }
                } else {
                    let delay = if rng.gen_u32(0, 10) == 0 {
                        rng.gen_u64(0, 1 << 20)
                    } else {
                        rng.gen_u64(0, 300)
                    };
                    q.push(now + delay, i);
                }
            }
            while let Some(peek) = q.next_cycle() {
                assert_eq!(q.pop().map(|(at, _, _)| at), Some(peek));
            }
            assert_eq!(q.pop(), None);
        }
    }

    /// The subtle calendar case: after a long cursor jump, the overflow
    /// heap can hold an event *inside* the ring window (migration only
    /// runs at pop), and that event can be earlier than a ring event
    /// pushed after the jump. `next_cycle` must report the overflow one.
    #[test]
    fn next_cycle_sees_unmigrated_overflow_inside_the_window() {
        let mut q: EventQueue<&str> = EventQueue::with_horizon(8);
        q.push(0, "warm");
        q.push(100, "jump target");
        q.push(104, "stale overflow"); // delta 104 >= 8: overflow
        assert_eq!(q.pop().map(|(_, _, v)| v), Some("warm"));
        // This pop migrates with cur=0 (nothing fits), then jumps the
        // cursor to 100 and pops. "stale overflow" (at=104) now lies
        // inside [100, 108) but still sits in the overflow heap.
        assert_eq!(q.pop().map(|(_, _, v)| v), Some("jump target"));
        q.push(106, "ring late"); // direct to bucket, later cycle
        assert_eq!(q.next_cycle(), Some(104), "missed unmigrated overflow");
        assert_eq!(
            q.pop().map(|(at, _, v)| (at, v)),
            Some((104, "stale overflow"))
        );
        assert_eq!(q.next_cycle(), Some(106));
        assert_eq!(q.pop().map(|(at, _, v)| (at, v)), Some((106, "ring late")));
        assert_eq!(q.next_cycle(), None);
    }

    /// Cycle-boundary shape: events one short message latency past the
    /// current cycle must be visible to `next_cycle` and pop after every
    /// event of the current cycle.
    #[test]
    fn events_just_past_the_current_cycle_order_after_it() {
        const DELAY: u64 = 3; // mesh router + one hop
        let mut q: EventQueue<u32> = calendar();
        let epoch = 41u64;
        q.push(epoch, 0);
        q.push(epoch + DELAY, 10); // an adjacent-node delivery
        q.push(epoch, 1); // same-cycle tie: FIFO after 0
        q.push(epoch + DELAY, 11);
        assert_eq!(q.next_cycle(), Some(epoch));
        assert_eq!(q.pop().map(|(at, _, v)| (at, v)), Some((epoch, 0)));
        assert_eq!(q.pop().map(|(at, _, v)| (at, v)), Some((epoch, 1)));
        assert_eq!(q.next_cycle(), Some(epoch + DELAY));
        assert_eq!(q.pop().map(|(at, _, v)| (at, v)), Some((epoch + DELAY, 10)));
        assert_eq!(q.pop().map(|(at, _, v)| (at, v)), Some((epoch + DELAY, 11)));
        assert_eq!(q.pop(), None);
    }
}
