//! The coalescing store buffer (paper Table 3: 256 entries per L1).
//!
//! GPU coherence buffers writethroughs here and coalesces writes to the
//! same line "until the next release (or until the buffer is full)"
//! (paper §1). DeNovo uses the same structure to hold store values until
//! a release or an overflow sends them for ownership (registration). Both
//! behaviours the paper highlights fall out of this module:
//!
//! * **bursty release traffic** — the release-time flush pops every
//!   entry at once ([`StoreBuffer::pop_oldest`]);
//! * **overflow** — when a new line arrives with the buffer full, the
//!   oldest entry is evicted ([`StoreOutcome::Overflow`]) and must be
//!   written through immediately, defeating later coalescing (the LavaMD
//!   effect of paper §6.2.1).

use gsim_types::{FxHashMap, LineAddr, Value, WordAddr, WordMask, WORDS_PER_LINE};
use std::collections::VecDeque;

/// One store-buffer entry: the dirty words of one line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SbEntry {
    /// The line these words belong to.
    pub line: LineAddr,
    /// Which words are dirty.
    pub mask: WordMask,
    /// The dirty values (meaningful where `mask` is set).
    pub data: [Value; WORDS_PER_LINE],
}

/// Result of inserting a store.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreOutcome {
    /// Merged into an existing entry for the same line.
    Coalesced,
    /// Allocated a fresh entry.
    NewEntry,
    /// Allocated a fresh entry by evicting the oldest entry, which the
    /// caller must write through / register immediately.
    Overflow(SbEntry),
}

/// A FIFO, coalescing store buffer.
///
/// # Examples
///
/// ```
/// use gsim_mem::{StoreBuffer, StoreOutcome};
/// use gsim_types::WordAddr;
///
/// let mut sb = StoreBuffer::new(2);
/// assert_eq!(sb.write(WordAddr(0), 1), StoreOutcome::NewEntry);
/// assert_eq!(sb.write(WordAddr(1), 2), StoreOutcome::Coalesced); // same line
/// assert_eq!(sb.lookup(WordAddr(1)), Some(2));
/// assert_eq!(sb.write(WordAddr(100), 3), StoreOutcome::NewEntry);
/// // Third distinct line: the oldest entry (line 0) overflows out.
/// match sb.write(WordAddr(200), 4) {
///     StoreOutcome::Overflow(e) => assert_eq!(e.mask.count(), 2),
///     o => panic!("expected overflow, got {o:?}"),
/// }
/// ```
#[derive(Debug)]
pub struct StoreBuffer {
    entries: FxHashMap<LineAddr, SbEntry>,
    fifo: VecDeque<LineAddr>,
    capacity: usize,
}

impl StoreBuffer {
    /// Creates a store buffer holding up to `capacity` line entries.
    pub fn new(capacity: usize) -> Self {
        StoreBuffer {
            entries: FxHashMap::default(),
            fifo: VecDeque::new(),
            capacity,
        }
    }

    /// The buffered lines and their dirty word masks, oldest first (the
    /// quiesce audit names leaked words with this).
    pub fn pending_entries(&self) -> Vec<(LineAddr, WordMask)> {
        self.fifo
            .iter()
            .map(|l| (*l, self.entries[l].mask))
            .collect()
    }

    /// Number of occupied entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The configured capacity in line entries (pairs with
    /// [`len`](Self::len) for occupancy reporting).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Buffers a store, coalescing with an existing entry for the same
    /// line. On overflow the oldest entry is evicted and returned.
    pub fn write(&mut self, word: WordAddr, value: Value) -> StoreOutcome {
        let line = word.line();
        let idx = word.index_in_line();
        if let Some(e) = self.entries.get_mut(&line) {
            e.mask.insert(idx);
            e.data[idx] = value;
            return StoreOutcome::Coalesced;
        }
        let overflow = if self.entries.len() >= self.capacity {
            self.pop_oldest()
        } else {
            None
        };
        let mut entry = SbEntry {
            line,
            mask: WordMask::empty(),
            data: [0; WORDS_PER_LINE],
        };
        entry.mask.insert(idx);
        entry.data[idx] = value;
        self.entries.insert(line, entry);
        self.fifo.push_back(line);
        match overflow {
            Some(e) => StoreOutcome::Overflow(e),
            None => StoreOutcome::NewEntry,
        }
    }

    /// Store-to-load forwarding: the buffered value for `word`, if any.
    pub fn lookup(&self, word: WordAddr) -> Option<Value> {
        let e = self.entries.get(&word.line())?;
        e.mask
            .contains(word.index_in_line())
            .then(|| e.data[word.index_in_line()])
    }

    /// Removes the oldest entry. Popping every entry this way is the
    /// release-time flush whose burstiness the paper charges against GPU
    /// coherence.
    pub fn pop_oldest(&mut self) -> Option<SbEntry> {
        let line = self.fifo.pop_front()?;
        self.entries.remove(&line)
    }

    /// Pops every entry, oldest first.
    #[cfg(test)]
    fn drain(&mut self) -> Vec<SbEntry> {
        std::iter::from_fn(|| self.pop_oldest()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalesce_same_line() {
        let mut sb = StoreBuffer::new(4);
        assert_eq!(sb.write(WordAddr(16), 1), StoreOutcome::NewEntry);
        assert_eq!(sb.write(WordAddr(17), 2), StoreOutcome::Coalesced);
        assert_eq!(sb.write(WordAddr(16), 3), StoreOutcome::Coalesced); // overwrite
        assert_eq!(sb.len(), 1);
        assert_eq!(sb.lookup(WordAddr(16)), Some(3));
        assert_eq!(sb.lookup(WordAddr(17)), Some(2));
        assert_eq!(sb.lookup(WordAddr(18)), None);
        assert_eq!(sb.lookup(WordAddr(999)), None);
    }

    #[test]
    fn overflow_evicts_fifo_order() {
        let mut sb = StoreBuffer::new(2);
        sb.write(WordAddr(0), 1); // line 0
        sb.write(WordAddr(16), 2); // line 1
        match sb.write(WordAddr(32), 3) {
            StoreOutcome::Overflow(e) => {
                assert_eq!(e.line, LineAddr(0));
                assert_eq!(e.data[0], 1);
            }
            o => panic!("expected overflow of line 0, got {o:?}"),
        }
        // Oldest surviving entry is now line 1.
        assert_eq!(sb.pop_oldest().unwrap().line, LineAddr(1));
    }

    #[test]
    fn coalescing_to_old_entry_does_not_overflow() {
        let mut sb = StoreBuffer::new(2);
        sb.write(WordAddr(0), 1);
        sb.write(WordAddr(16), 2);
        // Buffer is full but line 0 is resident: coalesce, no overflow.
        assert_eq!(sb.write(WordAddr(1), 9), StoreOutcome::Coalesced);
        assert_eq!(sb.len(), 2);
    }

    #[test]
    fn drain_is_oldest_first_and_empties() {
        let mut sb = StoreBuffer::new(8);
        for i in 0..5u64 {
            sb.write(LineAddr(i).word(0), i as Value);
        }
        let drained = sb.drain();
        assert_eq!(drained.len(), 5);
        assert!(drained.windows(2).all(|w| w[0].line.0 < w[1].line.0));
        assert!(sb.is_empty());
        assert!(sb.drain().is_empty());
    }

    mod properties {
        use super::*;
        use gsim_types::Rng64;

        #[test]
        fn never_exceeds_capacity() {
            let mut rng = Rng64::seed_from_u64(0x5b01);
            for _ in 0..64 {
                let mut sb = StoreBuffer::new(16);
                for _ in 0..rng.gen_usize(1, 300) {
                    sb.write(WordAddr(rng.gen_u64(0, 512)), rng.gen_u32(0, 100));
                    assert!(sb.len() <= 16);
                }
            }
        }

        #[test]
        fn forwarding_returns_last_write() {
            let mut rng = Rng64::seed_from_u64(0x5b02);
            for _ in 0..64 {
                // Capacity large enough that nothing overflows: the buffer
                // must forward exactly the last written value per word.
                let mut sb = StoreBuffer::new(64);
                let mut model = std::collections::HashMap::new();
                for _ in 0..rng.gen_usize(1, 100) {
                    let (w, v) = (rng.gen_u64(0, 64), rng.gen_u32(0, 100));
                    sb.write(WordAddr(w), v);
                    model.insert(w, v);
                }
                for (w, v) in model {
                    assert_eq!(sb.lookup(WordAddr(w)), Some(v));
                }
            }
        }

        /// Applies every dirty word of `e` to a word->value map, the way
        /// a writethrough (overflow) or release flush reaches memory.
        fn apply(mem: &mut std::collections::HashMap<u64, Value>, e: &SbEntry) {
            for i in 0..WORDS_PER_LINE {
                if e.mask.contains(i) {
                    mem.insert(e.line.word(i).0, e.data[i]);
                }
            }
        }

        /// Coalescing never loses a word: under random writes at random
        /// (small) capacities, every written word reaches "memory" with
        /// its final value — either flushed by an overflow eviction or
        /// handed back by the release-time drain.
        #[test]
        fn no_word_lost_through_overflow_and_drain() {
            let mut rng = Rng64::seed_from_u64(0x5b03);
            for _ in 0..48 {
                let mut sb = StoreBuffer::new(rng.gen_usize(1, 12));
                let mut memory = std::collections::HashMap::new();
                let mut written = std::collections::HashMap::new();
                for _ in 0..rng.gen_usize(1, 400) {
                    let (w, v) = (rng.gen_u64(0, 256), rng.gen_u32(1, 1_000_000));
                    if let StoreOutcome::Overflow(e) = sb.write(WordAddr(w), v) {
                        apply(&mut memory, &e);
                    }
                    written.insert(w, v);
                }
                for e in sb.drain() {
                    apply(&mut memory, &e);
                }
                assert_eq!(memory, written);
            }
        }

        /// The release-fence drain respects FIFO order: entries come
        /// back in first-write order, with overflow evictions always
        /// taking the oldest entry (re-written lines move to the back).
        #[test]
        fn drain_order_is_first_write_order() {
            let mut rng = Rng64::seed_from_u64(0x5b04);
            for _ in 0..48 {
                let mut sb = StoreBuffer::new(rng.gen_usize(1, 8));
                let mut order: Vec<u64> = Vec::new(); // resident lines, oldest first
                for _ in 0..rng.gen_usize(1, 200) {
                    let w = rng.gen_u64(0, 128);
                    let line = WordAddr(w).line().0;
                    let resident = order.contains(&line);
                    match sb.write(WordAddr(w), 1) {
                        StoreOutcome::Coalesced => assert!(resident),
                        StoreOutcome::NewEntry => {
                            assert!(!resident);
                            order.push(line);
                        }
                        StoreOutcome::Overflow(e) => {
                            assert!(!resident);
                            assert_eq!(e.line.0, order.remove(0), "evict the oldest");
                            order.push(line);
                        }
                    }
                }
                let drained: Vec<u64> = sb.drain().iter().map(|e| e.line.0).collect();
                assert_eq!(drained, order);
            }
        }
    }
}
