//! Miss status holding registers (MSHRs) with same-line coalescing and
//! DeNovoSync0 distributed-queue slots.
//!
//! One [`MshrFile`] sits next to each L1. Every outstanding line has one
//! [`MshrEntry`] that tracks:
//!
//! * which words have requests in flight (`pending`) — further misses on
//!   those words coalesce instead of re-requesting;
//! * the *waiters*: core requests that complete once their words arrive.
//!   Multiple thread blocks on the same CU coalesce here, which is how
//!   DeNovo services all local synchronization requests before any queued
//!   remote request (paper §3);
//! * the *queued forwards*: registration-forward messages that arrived
//!   while this cache's own registration ack was still in flight — the
//!   distributed queue of DeNovoSync0. They are released only after the
//!   fill, and after all local waiters were serviced.

use gsim_types::{FxHashMap, LineAddr, WordMask};

/// One outstanding line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MshrEntry<W, F> {
    /// Words with a request in flight.
    pub pending: WordMask,
    /// Core requests waiting on words of this line; each completes when
    /// its whole mask has been filled.
    pub waiters: Vec<(WordMask, W)>,
    /// Remote registration forwards queued behind our own pending
    /// registration (DeNovoSync0 distributed queue).
    pub queued_fwds: Vec<F>,
}

impl<W, F> Default for MshrEntry<W, F> {
    fn default() -> Self {
        MshrEntry {
            pending: WordMask::empty(),
            waiters: Vec::new(),
            queued_fwds: Vec::new(),
        }
    }
}

/// The MSHR file of one cache.
///
/// `W` is the controller's waiter token (e.g. a request id plus operation
/// kind); `F` is its queued-forward record.
///
/// # Examples
///
/// ```
/// use gsim_mem::MshrFile;
/// use gsim_types::{LineAddr, WordMask};
///
/// let mut m: MshrFile<u32, ()> = MshrFile::new(4);
/// // First miss on word 3: must send a request.
/// let send = m.request(LineAddr(9), WordMask::single(3), 100);
/// assert_eq!(send, WordMask::single(3));
/// // Second miss on the same word coalesces: nothing new to send.
/// let send = m.request(LineAddr(9), WordMask::single(3), 101);
/// assert!(send.is_empty());
/// // The fill completes both waiters.
/// let (done, _fwds) = m.complete(LineAddr(9), WordMask::single(3));
/// assert_eq!(done, vec![100, 101]);
/// ```
#[derive(Debug)]
pub struct MshrFile<W, F> {
    entries: FxHashMap<LineAddr, MshrEntry<W, F>>,
    capacity: usize,
    high_water: usize,
}

impl<W, F> MshrFile<W, F> {
    /// Creates an MSHR file holding up to `capacity` outstanding lines.
    pub fn new(capacity: usize) -> Self {
        MshrFile {
            entries: FxHashMap::default(),
            capacity,
            high_water: 0,
        }
    }

    /// Number of outstanding lines.
    pub fn outstanding(&self) -> usize {
        self.entries.len()
    }

    /// Highest simultaneous occupancy observed.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// The configured capacity in outstanding lines (pairs with
    /// [`outstanding`](Self::outstanding) for occupancy reporting).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether a new line can be accepted.
    pub fn has_room_for(&self, line: LineAddr) -> bool {
        self.entries.contains_key(&line) || self.entries.len() < self.capacity
    }

    /// The outstanding lines with their pending word masks, sorted by
    /// line address (the quiesce audit names leaked entries with this).
    pub fn outstanding_lines(&self) -> Vec<(LineAddr, WordMask)> {
        let mut v: Vec<(LineAddr, WordMask)> =
            self.entries.iter().map(|(&l, e)| (l, e.pending)).collect();
        v.sort_by_key(|&(l, _)| l);
        v
    }

    /// Registers a core request for `mask` words of `line` and returns
    /// the subset of words that must actually be requested from the next
    /// level (words already pending coalesce and return empty).
    ///
    /// # Panics
    ///
    /// Panics if the MSHR file is full and `line` has no entry — callers
    /// must check [`MshrFile::has_room_for`] first; the simulation engine
    /// stalls the issuing thread block in that case.
    pub fn request(&mut self, line: LineAddr, mask: WordMask, waiter: W) -> WordMask {
        assert!(
            self.has_room_for(line),
            "MSHR overflow: {} outstanding lines",
            self.entries.len()
        );
        let entry = self.entries.entry(line).or_default();
        let to_send = mask & !entry.pending;
        entry.pending |= mask;
        entry.waiters.push((mask, waiter));
        self.high_water = self.high_water.max(self.entries.len());
        to_send
    }

    /// Like [`MshrFile::request`], but decouples what the waiter *waits
    /// on* (`waiter_mask`) from what is *fetched* (`fetch_mask`) — DeNovo
    /// demand loads wait on one word while fetching the rest of the line.
    /// Returns the subset of `fetch_mask` that must actually be requested.
    ///
    /// Every word in `fetch_mask` must eventually be filled via
    /// [`MshrFile::complete`] or the entry never retires; the DeNovo L2
    /// guarantees this by answering (directly or through an owner forward)
    /// every requested word.
    ///
    /// # Panics
    ///
    /// Panics if the MSHR file is full and `line` has no entry, or if
    /// `waiter_mask` is not contained in `fetch_mask` union the already
    /// pending words.
    pub fn request_fetch(
        &mut self,
        line: LineAddr,
        waiter_mask: WordMask,
        fetch_mask: WordMask,
        waiter: W,
    ) -> WordMask {
        assert!(
            self.has_room_for(line),
            "MSHR overflow: {} outstanding lines",
            self.entries.len()
        );
        let entry = self.entries.entry(line).or_default();
        assert!(
            (waiter_mask & !(fetch_mask | entry.pending)).is_empty(),
            "waiter waits on words that are never fetched"
        );
        let to_send = fetch_mask & !entry.pending;
        entry.pending |= fetch_mask;
        entry.waiters.push((waiter_mask, waiter));
        self.high_water = self.high_water.max(self.entries.len());
        to_send
    }

    /// Queues a remote registration forward behind this cache's own
    /// pending registration for `line`. Returns `Err(fwd)` when there is
    /// no entry (the caller should handle the forward immediately).
    pub fn queue_fwd(&mut self, line: LineAddr, fwd: F) -> Result<(), F> {
        match self.entries.get_mut(&line) {
            Some(e) => {
                e.queued_fwds.push(fwd);
                Ok(())
            }
            None => Err(fwd),
        }
    }

    /// Whether `line` has an entry (i.e. an in-flight request).
    pub fn is_pending(&self, line: LineAddr) -> bool {
        self.entries.contains_key(&line)
    }

    /// Words of `line` with requests in flight.
    #[cfg(test)]
    fn pending_mask(&self, line: LineAddr) -> WordMask {
        self.entries
            .get(&line)
            .map(|e| e.pending)
            .unwrap_or_default()
    }

    /// Records the arrival of `filled` words for `line`. Returns the
    /// waiters whose masks are now fully satisfied (in arrival order —
    /// all same-CU waiters are serviced here, before any queued remote
    /// forward) and, when the entry retires (no pending words or waiters
    /// remain), the queued forwards to process next.
    pub fn complete(&mut self, line: LineAddr, filled: WordMask) -> (Vec<W>, Vec<F>) {
        let Some(entry) = self.entries.get_mut(&line) else {
            return (Vec::new(), Vec::new());
        };
        entry.pending = entry.pending & !filled;
        let mut done = Vec::new();
        let mut remaining = Vec::with_capacity(entry.waiters.len());
        for (mask, w) in entry.waiters.drain(..) {
            let left = mask & !filled;
            if left.is_empty() {
                done.push(w);
            } else {
                remaining.push((left, w));
            }
        }
        entry.waiters = remaining;
        if entry.pending.is_empty() && entry.waiters.is_empty() {
            let e = self.entries.remove(&line).expect("entry exists");
            (done, e.queued_fwds)
        } else {
            (done, Vec::new())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type M = MshrFile<u32, &'static str>;

    #[test]
    fn coalescing_suppresses_duplicate_requests() {
        let mut m = M::new(8);
        let l = LineAddr(1);
        assert_eq!(m.request(l, WordMask::single(0), 1), WordMask::single(0));
        assert!(m.request(l, WordMask::single(0), 2).is_empty());
        // A different word of the same line still needs a request.
        assert_eq!(m.request(l, WordMask::single(4), 3), WordMask::single(4));
        assert_eq!(m.outstanding(), 1);
        assert_eq!(m.high_water(), 1);
    }

    #[test]
    fn partial_fill_completes_only_satisfied_waiters() {
        let mut m = M::new(8);
        let l = LineAddr(2);
        let both = WordMask::single(0) | WordMask::single(1);
        m.request(l, both, 10);
        m.request(l, WordMask::single(0), 11);
        let (done, fwds) = m.complete(l, WordMask::single(0));
        assert_eq!(done, vec![11]);
        assert!(fwds.is_empty());
        assert!(m.is_pending(l));
        let (done, _) = m.complete(l, WordMask::single(1));
        assert_eq!(done, vec![10]);
        assert!(!m.is_pending(l));
    }

    #[test]
    fn queued_forwards_release_on_retire() {
        let mut m = M::new(8);
        let l = LineAddr(3);
        m.request(l, WordMask::single(5), 1);
        assert!(m.queue_fwd(l, "remote-a").is_ok());
        assert!(m.queue_fwd(l, "remote-b").is_ok());
        // No entry for another line: forward bounces back.
        assert_eq!(m.queue_fwd(LineAddr(9), "x"), Err("x"));
        let (done, fwds) = m.complete(l, WordMask::single(5));
        assert_eq!(done, vec![1]);
        assert_eq!(fwds, vec!["remote-a", "remote-b"]);
    }

    #[test]
    fn local_waiters_drain_before_forwards() {
        // Two local waiters and a queued remote forward: the fill hands
        // back both waiters and only then the forward, in one call —
        // callers service `done` before `fwds`.
        let mut m = M::new(8);
        let l = LineAddr(4);
        m.request(l, WordMask::single(0), 100);
        m.request(l, WordMask::single(0), 101);
        m.queue_fwd(l, "steal").unwrap();
        let (done, fwds) = m.complete(l, WordMask::single(0));
        assert_eq!(done, vec![100, 101]);
        assert_eq!(fwds, vec!["steal"]);
    }

    #[test]
    fn capacity_enforced() {
        let mut m = M::new(2);
        m.request(LineAddr(0), WordMask::single(0), 1);
        m.request(LineAddr(1), WordMask::single(0), 2);
        assert!(!m.has_room_for(LineAddr(2)));
        assert!(m.has_room_for(LineAddr(1))); // existing entry always ok
        assert_eq!(m.high_water(), 2);
    }

    #[test]
    #[should_panic(expected = "MSHR overflow")]
    fn overflow_panics() {
        let mut m = M::new(1);
        m.request(LineAddr(0), WordMask::single(0), 1);
        m.request(LineAddr(1), WordMask::single(0), 2);
    }

    #[test]
    fn request_fetch_decouples_demand_from_fetch() {
        let mut m = M::new(8);
        let l = LineAddr(5);
        // Demand word 2, fetch the whole line.
        let send = m.request_fetch(l, WordMask::single(2), WordMask::full(), 7);
        assert_eq!(send, WordMask::full());
        // A later demand on an already-fetching word sends nothing.
        let send = m.request_fetch(l, WordMask::single(9), WordMask::single(9), 8);
        assert!(send.is_empty());
        // Partial fill with the demand word completes the first waiter only.
        let (done, _) = m.complete(l, WordMask::single(2));
        assert_eq!(done, vec![7]);
        assert!(m.is_pending(l));
        // Filling everything else retires the entry.
        let (done, _) = m.complete(l, !WordMask::single(2));
        assert_eq!(done, vec![8]);
        assert!(!m.is_pending(l));
    }

    #[test]
    #[should_panic(expected = "never fetched")]
    fn request_fetch_rejects_unwaitable_masks() {
        let mut m = M::new(8);
        m.request_fetch(LineAddr(0), WordMask::single(3), WordMask::single(1), 1);
    }

    #[test]
    fn fill_unknown_line_is_noop() {
        let mut m = M::new(2);
        let (done, fwds) = m.complete(LineAddr(77), WordMask::full());
        assert!(done.is_empty() && fwds.is_empty());
    }

    mod properties {
        use super::*;
        use gsim_types::{Rng64, WORDS_PER_LINE};
        use std::collections::{BTreeMap, HashMap};

        fn random_mask(rng: &mut Rng64) -> WordMask {
            (0..WORDS_PER_LINE)
                .filter(|_| rng.gen_bool())
                .fold(WordMask::empty(), |m, i| m | WordMask::single(i))
        }

        /// Random coalescing requests and partial fills, against a
        /// word-level model: occupancy never exceeds capacity, the file
        /// only ever sends words not already in flight, and every waiter
        /// completes exactly once.
        #[test]
        fn merge_respects_capacity_and_waiters_complete_exactly_once() {
            let mut rng = Rng64::seed_from_u64(0x3511);
            for _ in 0..48 {
                let cap = rng.gen_usize(1, 6);
                let mut m: MshrFile<u32, ()> = MshrFile::new(cap);
                // BTreeMap: the "pick a line to fill" choice below must
                // be deterministic for the seed to reproduce.
                let mut pending: BTreeMap<u64, WordMask> = BTreeMap::new();
                let mut done: Vec<u32> = Vec::new();
                let mut issued = 0u32;
                for _ in 0..rng.gen_usize(50, 300) {
                    if rng.gen_bool() {
                        let line = LineAddr(rng.gen_u64(0, 8));
                        let mask = random_mask(&mut rng);
                        if mask.is_empty() || !m.has_room_for(line) {
                            continue;
                        }
                        let sent = m.request(line, mask, issued);
                        let model = pending.entry(line.0).or_default();
                        assert_eq!(sent, mask & !*model, "send only words not in flight");
                        *model |= mask;
                        issued += 1;
                    } else if let Some((&l, &words)) = pending.iter().next() {
                        let fill = random_mask(&mut rng) & words;
                        if fill.is_empty() {
                            continue;
                        }
                        let (completed, _) = m.complete(LineAddr(l), fill);
                        done.extend(completed);
                        let left = words & !fill;
                        if left.is_empty() {
                            pending.remove(&l);
                            assert!(!m.is_pending(LineAddr(l)), "fully filled entry retires");
                        } else {
                            pending.insert(l, left);
                            assert_eq!(m.pending_mask(LineAddr(l)), left);
                        }
                    }
                    assert!(m.outstanding() <= cap);
                    assert!(m.high_water() <= cap);
                }
                // Flush everything still in flight.
                for (l, words) in pending {
                    let (completed, _) = m.complete(LineAddr(l), words);
                    done.extend(completed);
                }
                assert_eq!(m.outstanding(), 0);
                done.sort_unstable();
                assert_eq!(done, (0..issued).collect::<Vec<_>>(), "each waiter once");
            }
        }

        /// Queued remote forwards (the DeNovoSync0 distributed queue)
        /// are handed back exactly once, in arrival order, and only when
        /// their line retires; forwards for idle lines bounce.
        #[test]
        fn queued_forwards_release_once_in_order_at_retire() {
            let mut rng = Rng64::seed_from_u64(0x3512);
            for _ in 0..48 {
                let mut m: MshrFile<u32, u32> = MshrFile::new(4);
                let mut queued: HashMap<u64, Vec<u32>> = HashMap::new();
                let mut released: Vec<u32> = Vec::new();
                let mut next = (0u32, 0u32); // (waiter id, fwd id)
                for _ in 0..rng.gen_usize(50, 200) {
                    let line = LineAddr(rng.gen_u64(0, 6));
                    match rng.gen_u32(0, 3) {
                        0 if m.has_room_for(line) => {
                            m.request(line, random_mask(&mut rng) | WordMask::single(0), next.0);
                            next.0 += 1;
                        }
                        1 => {
                            let res = m.queue_fwd(line, next.1);
                            if m.is_pending(line) {
                                assert_eq!(res, Ok(()));
                                queued.entry(line.0).or_default().push(next.1);
                            } else {
                                assert_eq!(res, Err(next.1), "idle line bounces the forward");
                            }
                            next.1 += 1;
                        }
                        _ => {
                            let (_, fwds) = m.complete(line, m.pending_mask(line));
                            if !m.is_pending(line) {
                                assert_eq!(fwds, queued.remove(&line.0).unwrap_or_default());
                                released.extend(fwds);
                            } else {
                                assert!(fwds.is_empty(), "forwards only release at retire");
                            }
                        }
                    }
                }
                let mut expect: Vec<u32> = (0..next.1).collect();
                expect.retain(|f| !released.contains(f));
                // Everything not yet released is still queued (or bounced).
                let still: Vec<u32> = queued.into_values().flatten().collect();
                assert!(still.iter().all(|f| expect.contains(f)));
            }
        }
    }
}
