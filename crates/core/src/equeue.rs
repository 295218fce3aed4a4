//! The simulator's event queue: a bucketed calendar queue with a
//! binary-heap reference implementation.
//!
//! Almost every event the engine schedules lands within a few hundred
//! cycles of "now" (mesh hops, L2 bank busy time, DRAM fills); only
//! long `Compute` sleeps reach further. A calendar queue — a ring of
//! per-cycle FIFO buckets over a fixed horizon, with a small overflow
//! heap for the far future — turns both `push` and `pop` into O(1)
//! bucket operations for that common case, replacing the O(log n)
//! `BinaryHeap` the engine used before.
//!
//! **Ordering contract** (shared by both implementations, asserted by
//! the differential tests): events pop in strictly increasing
//! `(cycle, seq)` order, where `seq` is the queue-assigned push serial.
//! Same-cycle events therefore pop in push (FIFO) order — the property
//! every golden statistic depends on, which is why swapping the queue
//! implementation is bit-invisible to `SimStats`.
//!
//! # Examples
//!
//! ```
//! use gsim_core::equeue::{CalendarQueue, EventQueue, QueueKind};
//!
//! let mut q: CalendarQueue<&str> = CalendarQueue::new();
//! q.push(5, "later");
//! q.push(1, "first");
//! q.push(5, "even later"); // same cycle: FIFO
//! assert_eq!(q.pop(), Some((1, 2, "first")));
//! assert_eq!(q.pop(), Some((5, 1, "later")));
//! assert_eq!(q.pop(), Some((5, 3, "even later")));
//! assert_eq!(q.pop(), None);
//!
//! // The engine-facing dispatcher picks the implementation per run:
//! let mut q: EventQueue<u32> = EventQueue::new(QueueKind::Calendar);
//! q.push(0, 7);
//! assert_eq!(q.pop(), Some((0, 1, 7)));
//! ```

use gsim_types::Cycle;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

/// Which event-queue implementation a run uses.
///
/// `Calendar` is the production default; `Heap` is kept as the simple
/// reference model so differential tests can prove the two agree on
/// every pop and every statistic. `Controlled` is the exploration
/// queue: same ordering contract by default, but it additionally
/// exposes the set of same-cycle candidates at the queue head so a
/// schedule controller can pick which one pops first (`gsim-explore`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum QueueKind {
    /// Bucketed calendar queue (O(1) push/pop for near-future events).
    #[default]
    Calendar,
    /// `BinaryHeap<(cycle, seq)>` reference implementation.
    Heap,
    /// Decision-point queue for schedule exploration: `pop_nth(0)`
    /// reproduces the `(cycle, seq)` contract exactly; `pop_nth(k)`
    /// reorders same-cycle events under explorer control.
    Controlled,
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
pub struct CalendarQueue<T> {
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

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> CalendarQueue<T> {
    /// Creates an empty queue with the default 1024-cycle horizon.
    pub fn new() -> Self {
        Self::with_horizon(DEFAULT_HORIZON)
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
        CalendarQueue {
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

    /// Removes and returns the earliest event as `(cycle, seq, item)`;
    /// ties on cycle break by push order.
    #[inline]
    pub fn pop(&mut self) -> Option<(Cycle, u64, T)> {
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
        // and the overflow heap (all >= cur + horizon at scan start)
        // cannot beat it.
        loop {
            let bucket = &mut self.buckets[(self.cur & self.mask) as usize];
            if let Some(&(at, _, _)) = bucket.front() {
                debug_assert_eq!(at, self.cur, "bucket holds a foreign cycle");
                let (at, seq, item) = bucket.pop_front().expect("checked front");
                self.ring_len -= 1;
                return Some((at, seq, item));
            }
            self.cur += 1;
        }
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

/// The binary-heap reference queue (the engine's original
/// implementation), kept so differential tests can replay any run under
/// both queues and assert bit-identical behaviour.
#[derive(Debug)]
pub struct HeapQueue<T> {
    heap: BinaryHeap<OverflowEntry<T>>,
    seq: u64,
}

impl<T> Default for HeapQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> HeapQueue<T> {
    /// Creates an empty heap queue.
    pub fn new() -> Self {
        HeapQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are queued.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `item` at cycle `at`, returning the assigned `seq`.
    pub fn push(&mut self, at: Cycle, item: T) -> u64 {
        self.seq += 1;
        self.heap.push(OverflowEntry {
            at,
            seq: self.seq,
            item,
        });
        self.seq
    }

    /// Removes and returns the earliest event as `(cycle, seq, item)`.
    pub fn pop(&mut self) -> Option<(Cycle, u64, T)> {
        self.heap.pop().map(|e| (e.at, e.seq, e.item))
    }

    /// The cycle of the earliest queued event, without removing it.
    pub fn next_cycle(&self) -> Option<Cycle> {
        self.heap.peek().map(|e| e.at)
    }

    /// Iterates over queued events in no particular order (diagnostics).
    pub fn iter(&self) -> impl Iterator<Item = (Cycle, &T)> {
        self.heap.iter().map(|e| (e.at, &e.item))
    }
}

/// The decision-point queue used by schedule exploration
/// (`gsim-explore`).
///
/// A `BTreeMap` from cycle to that cycle's FIFO of `(seq, item)` pairs.
/// The head bucket (minimum cycle) is the *candidate set*: every event
/// there is legally poppable this cycle, and a schedule controller may
/// pop any of them via [`ControlledQueue::pop_nth`]. `pop_nth(0)` always
/// takes the lowest `seq`, so an identity schedule reproduces the
/// `(cycle, seq)` ordering contract of [`CalendarQueue`] exactly
/// (asserted by the `identity_schedule_matches_*` property tests).
///
/// Within a bucket, entries are kept sorted by `seq` for free: `push`
/// assigns monotonically increasing seqs, so appending preserves order
/// (debug-asserted). There is no horizon/overflow split — exploration
/// runs are tiny litmus programs, so O(log n) map ops are irrelevant,
/// and a single structure keeps the candidate-set semantics obvious.
#[derive(Debug)]
pub struct ControlledQueue<T> {
    /// cycle -> FIFO of `(seq, item)`, each FIFO sorted ascending by seq.
    buckets: BTreeMap<Cycle, VecDeque<(u64, T)>>,
    /// Total queued events across all buckets.
    len: usize,
    /// Push serial, shared tie-breaker of the ordering contract.
    seq: u64,
}

impl<T> Default for ControlledQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> ControlledQueue<T> {
    /// Creates an empty controlled queue.
    pub fn new() -> Self {
        ControlledQueue {
            buckets: BTreeMap::new(),
            len: 0,
            seq: 0,
        }
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules `item` at cycle `at`, returning the assigned `seq`.
    pub fn push(&mut self, at: Cycle, item: T) -> u64 {
        self.seq += 1;
        let seq = self.seq;
        let bucket = self.buckets.entry(at).or_default();
        debug_assert!(
            bucket.back().is_none_or(|&(s, _)| s < seq),
            "push seq regressed within a bucket"
        );
        bucket.push_back((seq, item));
        self.len += 1;
        seq
    }

    /// The candidate set: the minimum queued cycle and, in `seq` order,
    /// every event scheduled at it. Empty queue returns `None`. A
    /// decision point exists iff the returned bucket has >= 2 entries.
    pub fn candidates(&self) -> Option<(Cycle, &VecDeque<(u64, T)>)> {
        self.buckets
            .first_key_value()
            .map(|(&at, bucket)| (at, bucket))
    }

    /// Number of events poppable at the minimum queued cycle (0 when
    /// empty).
    #[cfg(test)]
    fn candidate_count(&self) -> usize {
        self.buckets
            .first_key_value()
            .map_or(0, |(_, bucket)| bucket.len())
    }

    /// Pops the `k`-th candidate (in `seq` order) of the minimum queued
    /// cycle. `k == 0` is the default/identity choice — the same event
    /// [`CalendarQueue::pop`] would return. Returns `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if the queue is non-empty and `k` is out of range for the
    /// candidate set — a schedule word must only index real candidates.
    pub fn pop_nth(&mut self, k: usize) -> Option<(Cycle, u64, T)> {
        let mut entry = self.buckets.first_entry()?;
        let at = *entry.key();
        let bucket = entry.get_mut();
        let n = bucket.len();
        let (seq, item) = bucket
            .remove(k)
            .unwrap_or_else(|| panic!("schedule choice {k} out of range ({n} candidates)"));
        if bucket.is_empty() {
            entry.remove();
        }
        self.len -= 1;
        Some((at, seq, item))
    }

    /// Removes and returns the earliest event as `(cycle, seq, item)`;
    /// ties on cycle break by push order (identity choice).
    pub fn pop(&mut self) -> Option<(Cycle, u64, T)> {
        self.pop_nth(0)
    }

    /// The cycle of the earliest queued event, without removing it.
    pub fn next_cycle(&self) -> Option<Cycle> {
        self.buckets.first_key_value().map(|(&at, _)| at)
    }

    /// Iterates over queued events in no particular order (diagnostics).
    pub fn iter(&self) -> impl Iterator<Item = (Cycle, &T)> {
        self.buckets
            .iter()
            .flat_map(|(&at, bucket)| bucket.iter().map(move |(_, item)| (at, item)))
    }
}

/// The engine-facing queue, dispatching to the implementation selected
/// by [`crate::SystemConfig::event_queue`].
#[derive(Debug)]
pub enum EventQueue<T> {
    /// Production calendar queue.
    Calendar(CalendarQueue<T>),
    /// Reference heap queue (differential testing).
    Heap(HeapQueue<T>),
    /// Decision-point queue (schedule exploration).
    Controlled(ControlledQueue<T>),
}

impl<T> EventQueue<T> {
    /// Creates an empty queue of the given kind.
    pub fn new(kind: QueueKind) -> Self {
        match kind {
            QueueKind::Calendar => EventQueue::Calendar(CalendarQueue::new()),
            QueueKind::Heap => EventQueue::Heap(HeapQueue::new()),
            QueueKind::Controlled => EventQueue::Controlled(ControlledQueue::new()),
        }
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        match self {
            EventQueue::Calendar(q) => q.len(),
            EventQueue::Heap(q) => q.len(),
            EventQueue::Controlled(q) => q.len(),
        }
    }

    /// Whether no events are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedules `item` at cycle `at`, returning the assigned `seq`.
    /// The production calendar queue is handled inline; the test and
    /// exploration queues go through an out-of-line cold path.
    #[inline]
    pub fn push(&mut self, at: Cycle, item: T) -> u64 {
        match self {
            EventQueue::Calendar(q) => q.push(at, item),
            _ => self.push_cold(at, item),
        }
    }

    #[cold]
    #[inline(never)]
    fn push_cold(&mut self, at: Cycle, item: T) -> u64 {
        match self {
            EventQueue::Calendar(q) => q.push(at, item),
            EventQueue::Heap(q) => q.push(at, item),
            EventQueue::Controlled(q) => q.push(at, item),
        }
    }

    /// Removes and returns the earliest event as `(cycle, seq, item)`,
    /// inline for the calendar queue as [`push`](Self::push) is.
    #[inline]
    pub fn pop(&mut self) -> Option<(Cycle, u64, T)> {
        match self {
            EventQueue::Calendar(q) => q.pop(),
            _ => self.pop_cold(),
        }
    }

    #[cold]
    #[inline(never)]
    fn pop_cold(&mut self) -> Option<(Cycle, u64, T)> {
        match self {
            EventQueue::Calendar(q) => q.pop(),
            EventQueue::Heap(q) => q.pop(),
            EventQueue::Controlled(q) => q.pop(),
        }
    }

    /// The cycle of the earliest queued event, without removing it.
    /// Calendar queues answer with a non-mutating ring scan (see
    /// [`CalendarQueue::next_cycle`]); the engine only asks at cycle
    /// boundaries, never per event.
    pub fn next_cycle(&self) -> Option<Cycle> {
        match self {
            EventQueue::Calendar(q) => q.next_cycle(),
            EventQueue::Heap(q) => q.next_cycle(),
            EventQueue::Controlled(q) => q.next_cycle(),
        }
    }

    /// The controlled implementation, if this queue is one. The engine's
    /// scheduled-pop path uses this to reach the candidate-set API.
    pub fn as_controlled_mut(&mut self) -> Option<&mut ControlledQueue<T>> {
        match self {
            EventQueue::Controlled(q) => Some(q),
            _ => None,
        }
    }

    /// Immutable view of the controlled implementation, if any.
    pub fn as_controlled(&self) -> Option<&ControlledQueue<T>> {
        match self {
            EventQueue::Controlled(q) => Some(q),
            _ => None,
        }
    }

    /// Iterates over queued events in no particular order (diagnostics).
    pub fn iter(&self) -> Box<dyn Iterator<Item = (Cycle, &T)> + '_> {
        match self {
            EventQueue::Calendar(q) => Box::new(q.iter()),
            EventQueue::Heap(q) => Box::new(q.iter()),
            EventQueue::Controlled(q) => Box::new(q.iter()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsim_types::Rng64;

    #[test]
    fn fifo_within_a_cycle() {
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        for i in 0..100 {
            q.push(7, i);
        }
        let popped: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|(_, _, v)| v).collect();
        assert_eq!(popped, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn far_future_goes_through_overflow_and_back() {
        let mut q: CalendarQueue<&str> = CalendarQueue::with_horizon(8);
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
        let mut q: CalendarQueue<u64> = CalendarQueue::with_horizon(4);
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
        let mut q: CalendarQueue<&str> = CalendarQueue::with_horizon(8);
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
        let mut q: CalendarQueue<&str> = CalendarQueue::with_horizon(8);
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
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        q.push(5, 1);
        assert_eq!(q.pop().map(|(at, _, v)| (at, v)), Some((5, 1)));
        q.push(5, 2); // same cycle as the pop we just did
        assert_eq!(q.pop().map(|(at, _, v)| (at, v)), Some((5, 2)));
    }

    /// The calendar queue against the heap reference, driven by seeded
    /// random schedules: pop order must match on every `(cycle, seq)`.
    #[test]
    fn differential_random_ops_match_heap_model() {
        let mut rng = Rng64::seed_from_u64(0xca1e);
        for round in 0..50 {
            // Exercise tiny horizons (constant migration) and the default.
            let horizon = [4u64, 16, 256, 1024][round % 4];
            let mut cal: CalendarQueue<u64> = CalendarQueue::with_horizon(horizon);
            let mut heap: HeapQueue<u64> = HeapQueue::new();
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
            let mut q: CalendarQueue<&str> = CalendarQueue::new();
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
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        q.push(1024, 0); // delta 1024 from cursor 0: overflow
        q.push(1, 100); // keeps the ring busy
        assert_eq!(q.pop().map(|(at, _, v)| (at, v)), Some((1, 100)));
        // Cursor is now 1, so delta to 1024 is 1023: direct to bucket.
        q.push(1024, 1);
        q.push(1024, 2);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|(_, _, v)| v).collect();
        assert_eq!(order, [0, 1, 2], "same-cycle events must pop in push order");
    }

    /// Far-future stress against the heap reference: every event is
    /// pushed far beyond the horizon, so every pop goes through a cursor
    /// jump and an overflow migration. Strides are multiples of the
    /// horizon (the worst case for `at & mask` aliasing: every event of
    /// a wave maps to the same bucket).
    #[test]
    fn far_future_stress_matches_heap_model() {
        let mut rng = Rng64::seed_from_u64(0xbeef_cafe);
        for horizon in [4u64, 64, 1024] {
            let mut cal: CalendarQueue<u64> = CalendarQueue::with_horizon(horizon);
            let mut heap: HeapQueue<u64> = HeapQueue::new();
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
        let mut q: CalendarQueue<&str> = CalendarQueue::with_horizon(8);
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

    #[test]
    fn dispatcher_routes_all_kinds() {
        for kind in [QueueKind::Calendar, QueueKind::Heap, QueueKind::Controlled] {
            let mut q: EventQueue<u32> = EventQueue::new(kind);
            assert_eq!(q.len(), 0);
            q.push(2, 20);
            q.push(1, 10);
            assert_eq!(q.iter().count(), 2);
            assert_eq!(q.pop(), Some((1, 2, 10)));
            assert_eq!(q.pop(), Some((2, 1, 20)));
            assert_eq!(q.pop(), None);
        }
    }

    #[test]
    fn controlled_candidates_are_the_min_cycle_in_seq_order() {
        let mut q: ControlledQueue<&str> = ControlledQueue::new();
        assert_eq!(q.candidate_count(), 0);
        assert!(q.candidates().is_none());
        q.push(9, "later");
        q.push(4, "a");
        q.push(4, "b");
        q.push(4, "c");
        let (at, bucket) = q.candidates().expect("non-empty");
        assert_eq!(at, 4);
        let names: Vec<&str> = bucket.iter().map(|&(_, v)| v).collect();
        assert_eq!(names, ["a", "b", "c"]);
        assert_eq!(q.candidate_count(), 3);
    }

    #[test]
    fn controlled_pop_nth_reorders_only_within_the_cycle() {
        let mut q: ControlledQueue<u32> = ControlledQueue::new();
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
    fn controlled_pop_nth_rejects_out_of_range_choice() {
        let mut q: ControlledQueue<u32> = ControlledQueue::new();
        q.push(1, 10);
        q.pop_nth(1);
    }

    /// Property test for the decision-point API: over random event
    /// streams, controller-driven pops with the identity schedule word
    /// (always choice 0) produce the exact `(cycle, seq)` order of
    /// `CalendarQueue` — and of `HeapQueue` — so an exploration run that
    /// never deviates from the default schedule is bit-identical to a
    /// production run.
    #[test]
    fn identity_schedule_matches_calendar_and_heap_order() {
        let mut rng = Rng64::seed_from_u64(0xdec1_510e);
        for round in 0..40 {
            let horizon = [4u64, 64, 1024][round % 3];
            let mut cal: CalendarQueue<u64> = CalendarQueue::with_horizon(horizon);
            let mut heap: HeapQueue<u64> = HeapQueue::new();
            let mut ctl: ControlledQueue<u64> = ControlledQueue::new();
            let mut now = 0u64;
            let mut payload = 0u64;
            for _ in 0..rng.gen_usize(10, 300) {
                if rng.gen_u32(0, 3) == 0 {
                    let want = cal.pop();
                    assert_eq!(heap.pop(), want, "heap diverged");
                    // Identity choice: pop_nth(0), i.e. lowest seq at the
                    // minimum cycle.
                    assert_eq!(ctl.pop_nth(0), want, "controlled diverged");
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
                    let s1 = cal.push(now + delay, payload);
                    assert_eq!(heap.push(now + delay, payload), s1);
                    assert_eq!(ctl.push(now + delay, payload), s1, "seq diverged");
                }
                assert_eq!(cal.len(), ctl.len());
            }
            loop {
                let want = cal.pop();
                assert_eq!(heap.pop(), want);
                assert_eq!(ctl.pop(), want, "controlled drain diverged");
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
            let mut cal: CalendarQueue<u32> = CalendarQueue::new();
            let mut heap: HeapQueue<u32> = HeapQueue::new();
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

    /// The same horizon-straddling merge, driven through the dispatcher
    /// with interleaved pops so migration happens while the target
    /// bucket is mid-drain.
    #[test]
    fn migration_into_a_draining_bucket_keeps_fifo() {
        let mut cal: CalendarQueue<u32> = CalendarQueue::with_horizon(8);
        let mut heap: HeapQueue<u32> = HeapQueue::new();
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

    /// `next_cycle` must agree with the next `pop` on all three
    /// implementations, across random schedules, without mutating.
    #[test]
    fn next_cycle_agrees_with_pop_on_all_kinds() {
        let mut rng = Rng64::seed_from_u64(0x9eec);
        for kind in [QueueKind::Calendar, QueueKind::Heap, QueueKind::Controlled] {
            let mut q: EventQueue<u64> = EventQueue::new(kind);
            let mut now = 0u64;
            for i in 0..500u64 {
                if rng.gen_u32(0, 3) == 0 {
                    let peek = q.next_cycle();
                    let peek2 = q.next_cycle(); // idempotent
                    assert_eq!(peek, peek2, "peek mutated the queue ({kind:?})");
                    let got = q.pop();
                    assert_eq!(got.map(|(at, _, _)| at), peek, "peek != pop ({kind:?})");
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
        let mut q: CalendarQueue<&str> = CalendarQueue::with_horizon(8);
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
    /// event of the current cycle, for all three implementations.
    #[test]
    fn events_just_past_the_current_cycle_order_after_it() {
        const DELAY: u64 = 3; // mesh router + one hop
        for kind in [QueueKind::Calendar, QueueKind::Heap, QueueKind::Controlled] {
            let mut q: EventQueue<u32> = EventQueue::new(kind);
            let epoch = 41u64;
            q.push(epoch, 0);
            q.push(epoch + DELAY, 10); // an adjacent-node delivery
            q.push(epoch, 1); // same-cycle tie: FIFO after 0
            q.push(epoch + DELAY, 11);
            assert_eq!(q.next_cycle(), Some(epoch));
            assert_eq!(q.pop().map(|(at, _, v)| (at, v)), Some((epoch, 0)));
            assert_eq!(q.pop().map(|(at, _, v)| (at, v)), Some((epoch, 1)));
            assert_eq!(q.next_cycle(), Some(epoch + DELAY), "{kind:?}");
            assert_eq!(q.pop().map(|(at, _, v)| (at, v)), Some((epoch + DELAY, 10)));
            assert_eq!(q.pop().map(|(at, _, v)| (at, v)), Some((epoch + DELAY, 11)));
            assert_eq!(q.pop(), None);
        }
    }
}
