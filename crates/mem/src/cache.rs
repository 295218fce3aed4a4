//! Set-associative cache arrays with word-granularity coherence state.
//!
//! The same array backs every studied protocol (paper §4.2):
//!
//! * **GPU-D**: only line-level validity is used (a line is valid iff any
//!   word is [`WordState::Valid`]); dirty data lives in the store buffer.
//! * **GPU-H**: per-word dirty bits — [`WordState::Owned`] means *dirty*.
//! * **DeNovo (DD/DD+RO/DH)**: the full three-state word protocol —
//!   [`WordState::Owned`] means *registered*.
//!
//! The [`CacheLine::extra`] type parameter carries protocol-specific
//! per-line metadata: the DeNovo L2 registry stores the owner core per
//! word there, and DD+RO tags words belonging to the read-only region.

use gsim_types::{LineAddr, Value, WordMask, WORDS_PER_LINE};

/// Coherence state of one word in a cache line (2 bits in hardware —
/// exactly the paper's §4.2 overhead accounting).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum WordState {
    /// No usable copy of the word.
    #[default]
    Invalid,
    /// A readable copy that self-invalidation may discard at an acquire.
    Valid,
    /// DeNovo: *Registered* (this cache owns the word — the up-to-date
    /// copy, kept across acquires). GPU-H: *dirty* (written locally,
    /// logically part of the store buffer).
    Owned,
}

impl WordState {
    /// Whether a load may be satisfied from this word.
    #[inline]
    pub fn readable(self) -> bool {
        !matches!(self, WordState::Invalid)
    }
}

/// Cache geometry: total capacity and associativity over fixed 64 B lines.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Total data capacity in bytes.
    pub size_bytes: u64,
    /// Ways per set.
    pub ways: usize,
}

impl CacheGeometry {
    /// The paper's L1: 32 KB, 8-way (Table 3).
    pub fn l1() -> Self {
        CacheGeometry {
            size_bytes: 32 * 1024,
            ways: 8,
        }
    }

    /// One bank of the paper's L2: 4 MB / 16 banks = 256 KB, 16-way.
    pub fn l2_bank() -> Self {
        CacheGeometry {
            size_bytes: 256 * 1024,
            ways: 16,
        }
    }

    /// Number of sets.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide into whole sets.
    pub fn sets(&self) -> usize {
        let lines = self.size_bytes / gsim_types::LINE_BYTES;
        let sets = lines as usize / self.ways;
        assert!(
            sets > 0 && sets * self.ways == lines as usize,
            "geometry {self:?} does not divide into whole sets"
        );
        sets
    }
}

/// One cache line: tag, per-word state, data, and protocol metadata.
///
/// Per-word coherence state is packed into two [`WordMask`] bitmaps
/// (exactly-Valid and Owned; a word in neither is Invalid), so flash
/// operations and state-mask queries — the hottest loops of the GPU
/// protocols' acquire/release paths — are a couple of 16-bit bit ops
/// per line instead of a 16-element scan.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheLine<X> {
    /// The line address this way currently holds.
    pub tag: LineAddr,
    /// Words in [`WordState::Valid`] (disjoint from `owned`).
    valid: WordMask,
    /// Words in [`WordState::Owned`].
    owned: WordMask,
    /// Per-word data (meaningful only where the state is readable).
    pub data: [Value; WORDS_PER_LINE],
    /// Protocol-specific per-line metadata.
    pub extra: X,
    lru_stamp: u64,
}

impl<X> CacheLine<X> {
    /// The coherence state of word `i`.
    #[inline]
    pub fn word(&self, i: usize) -> WordState {
        if self.owned.contains(i) {
            WordState::Owned
        } else if self.valid.contains(i) {
            WordState::Valid
        } else {
            WordState::Invalid
        }
    }

    /// Sets the coherence state of word `i`.
    #[inline]
    pub fn set_word(&mut self, i: usize, to: WordState) {
        self.valid.remove(i);
        self.owned.remove(i);
        match to {
            WordState::Invalid => {}
            WordState::Valid => self.valid.insert(i),
            WordState::Owned => self.owned.insert(i),
        }
    }

    /// Sets every word in `mask` to `to`.
    #[inline]
    pub fn set_mask(&mut self, mask: WordMask, to: WordState) {
        self.valid = self.valid & !mask;
        self.owned = self.owned & !mask;
        match to {
            WordState::Invalid => {}
            WordState::Valid => self.valid |= mask,
            WordState::Owned => self.owned |= mask,
        }
    }

    /// Mask of words in the given state.
    #[inline]
    pub fn mask_in(&self, s: WordState) -> WordMask {
        match s {
            WordState::Invalid => !(self.valid | self.owned),
            WordState::Valid => self.valid,
            WordState::Owned => self.owned,
        }
    }

    /// Mask of readable (Valid or Owned) words.
    #[inline]
    pub fn readable_mask(&self) -> WordMask {
        self.valid | self.owned
    }

    /// Whether any word is owned.
    #[inline]
    fn any_owned(&self) -> bool {
        !self.owned.is_empty()
    }

    /// Fills the masked words with `data`, setting them to `to`.
    pub fn fill(&mut self, mask: WordMask, data: &[Value; WORDS_PER_LINE], to: WordState) {
        self.set_mask(mask, to);
        for i in mask.iter() {
            self.data[i] = data[i];
        }
    }

    /// The acquire self-invalidation sweep on one line: drops every
    /// [`WordState::Valid`] word except those in `keep` (DD+RO passes
    /// its read-only-region words; a GPU flash passes the empty mask),
    /// leaving Owned words untouched. Returns the mask of words
    /// actually dropped — the quantity the observability layers
    /// (gsim-prof's hot-line sketch, gsim-lens's acquire cost ledger)
    /// attribute per line.
    #[inline]
    pub fn invalidate_valid(&mut self, keep: WordMask) -> WordMask {
        let dropped = self.valid & !keep;
        self.valid = self.valid & keep;
        dropped
    }
}

/// Result of [`CacheArray::insert`].
#[derive(Debug, PartialEq, Eq)]
pub enum InsertOutcome<X> {
    /// The line was already present; nothing changed.
    AlreadyPresent,
    /// The line was inserted into a free way.
    Inserted,
    /// The line was inserted; the LRU way's previous occupant is returned
    /// so the caller can write back owned words or recall ownership.
    Evicted(CacheLine<X>),
}

/// A set-associative, true-LRU cache array.
///
/// # Examples
///
/// ```
/// use gsim_mem::{CacheArray, CacheGeometry, WordState};
/// use gsim_types::{LineAddr, WordMask};
///
/// let mut c: CacheArray<()> = CacheArray::new(CacheGeometry::l1());
/// c.insert(LineAddr(7));
/// let line = c.lookup(LineAddr(7)).unwrap();
/// line.fill(WordMask::single(3), &[9; 16], WordState::Valid);
/// assert!(c.lookup(LineAddr(7)).unwrap().word(3).readable());
/// assert_eq!(c.lookup(LineAddr(7)).unwrap().data[3], 9);
/// ```
#[derive(Debug)]
pub struct CacheArray<X> {
    geometry: CacheGeometry,
    sets: Vec<Vec<CacheLine<X>>>,
    /// One bit per set that may hold a [`WordState::Valid`] word; a
    /// clear bit guarantees the set holds none. Set wherever a line is
    /// handed out mutably ([`lookup`](Self::lookup),
    /// [`for_each_line_mut`](Self::for_each_line_mut)), cleared by
    /// [`sweep_valid`](Self::sweep_valid), so an acquire visits only the
    /// sets written since the last one.
    maybe_valid: Vec<u64>,
    next_stamp: u64,
}

impl<X: Default> CacheArray<X> {
    /// Creates an empty cache with the given geometry.
    pub fn new(geometry: CacheGeometry) -> Self {
        let sets = geometry.sets();
        CacheArray {
            geometry,
            sets: (0..sets).map(|_| Vec::new()).collect(),
            maybe_valid: vec![0; sets.div_ceil(64)],
            next_stamp: 0,
        }
    }

    /// The cache geometry.
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geometry
    }

    #[inline]
    fn set_index(&self, line: LineAddr) -> usize {
        (line.0 % self.sets.len() as u64) as usize
    }

    /// Looks up a line, updating LRU on hit.
    #[inline]
    pub fn lookup(&mut self, line: LineAddr) -> Option<&mut CacheLine<X>> {
        let si = self.set_index(line);
        let stamp = {
            self.next_stamp += 1;
            self.next_stamp
        };
        match self.sets[si].iter_mut().find(|l| l.tag == line) {
            Some(l) => {
                l.lru_stamp = stamp;
                self.maybe_valid[si / 64] |= 1 << (si % 64);
                Some(l)
            }
            None => None,
        }
    }

    /// Looks up a line without touching LRU.
    #[inline]
    pub fn peek(&self, line: LineAddr) -> Option<&CacheLine<X>> {
        let si = self.set_index(line);
        self.sets[si].iter().find(|l| l.tag == line)
    }

    /// Whether the line is present.
    #[inline]
    pub fn contains(&self, line: LineAddr) -> bool {
        self.peek(line).is_some()
    }

    /// Ensures `line` has a way in its set (with all words Invalid when
    /// newly inserted), evicting the LRU occupant if the set is full.
    ///
    /// Victim selection prefers lines with no owned words so that owned
    /// (registered/dirty) data stays resident as long as possible; when
    /// every candidate owns data, the overall LRU line is evicted and the
    /// caller must write its owned words back.
    pub fn insert(&mut self, line: LineAddr) -> InsertOutcome<X> {
        let si = self.set_index(line);
        self.next_stamp += 1;
        let stamp = self.next_stamp;
        let set = &mut self.sets[si];
        if let Some(l) = set.iter_mut().find(|l| l.tag == line) {
            l.lru_stamp = stamp;
            return InsertOutcome::AlreadyPresent;
        }
        let fresh = CacheLine {
            tag: line,
            valid: WordMask::empty(),
            owned: WordMask::empty(),
            data: [0; WORDS_PER_LINE],
            extra: X::default(),
            lru_stamp: stamp,
        };
        if set.len() < self.geometry.ways {
            set.push(fresh);
            return InsertOutcome::Inserted;
        }
        // Prefer the LRU line without owned words; fall back to pure LRU.
        let victim_idx = set
            .iter()
            .enumerate()
            .filter(|(_, l)| !l.any_owned())
            .min_by_key(|(_, l)| l.lru_stamp)
            .map(|(i, _)| i)
            .unwrap_or_else(|| {
                set.iter()
                    .enumerate()
                    .min_by_key(|(_, l)| l.lru_stamp)
                    .map(|(i, _)| i)
                    .expect("set is full, so non-empty")
            });
        let victim = std::mem::replace(&mut set[victim_idx], fresh);
        InsertOutcome::Evicted(victim)
    }

    /// Removes a line from the cache, returning it.
    pub fn remove(&mut self, line: LineAddr) -> Option<CacheLine<X>> {
        let si = self.set_index(line);
        let set = &mut self.sets[si];
        let idx = set.iter().position(|l| l.tag == line)?;
        Some(set.swap_remove(idx))
    }

    /// Applies `f` to every resident line, in set order.
    pub fn for_each_line_mut(&mut self, mut f: impl FnMut(&mut CacheLine<X>)) {
        for (si, set) in self.sets.iter_mut().enumerate() {
            for l in set.iter_mut() {
                f(l);
                if !l.valid.is_empty() {
                    self.maybe_valid[si / 64] |= 1 << (si % 64);
                }
            }
        }
    }

    /// The acquire sweep: applies `f` to every resident line that may
    /// hold a [`WordState::Valid`] word, in the order
    /// [`for_each_line_mut`](Self::for_each_line_mut) would reach it.
    /// Lines it skips hold no Valid word. `f` must not make a word
    /// Valid.
    pub fn sweep_valid(&mut self, mut f: impl FnMut(&mut CacheLine<X>)) {
        for (w, bits) in self.maybe_valid.iter_mut().enumerate() {
            let mut todo = *bits;
            while todo != 0 {
                let bit = todo.trailing_zeros();
                todo &= todo - 1;
                let mut valid = false;
                for l in self.sets[w * 64 + bit as usize].iter_mut() {
                    f(l);
                    valid |= !l.valid.is_empty();
                }
                if !valid {
                    *bits &= !(1 << bit);
                }
            }
        }
        debug_assert!(
            self.sets.iter().enumerate().all(|(si, set)| {
                self.maybe_valid[si / 64] & (1 << (si % 64)) != 0
                    || set.iter().all(|l| l.valid.is_empty())
            }),
            "a set left out of the acquire sweep holds a Valid word"
        );
    }

    /// Iterates over all resident lines.
    pub fn iter(&self) -> impl Iterator<Item = &CacheLine<X>> {
        self.sets.iter().flat_map(|s| s.iter())
    }

    /// Number of resident lines.
    pub fn occupancy(&self) -> usize {
        self.sets.iter().map(|s| s.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CacheArray<u8> {
        // 2 sets x 2 ways.
        CacheArray::new(CacheGeometry {
            size_bytes: 4 * gsim_types::LINE_BYTES,
            ways: 2,
        })
    }

    #[test]
    fn geometry_math() {
        assert_eq!(CacheGeometry::l1().sets(), 64);
        assert_eq!(CacheGeometry::l2_bank().sets(), 256);
    }

    #[test]
    #[should_panic(expected = "whole sets")]
    fn bad_geometry_panics() {
        CacheGeometry {
            size_bytes: 96,
            ways: 3,
        }
        .sets();
    }

    #[test]
    fn insert_lookup_remove() {
        let mut c = small();
        assert!(matches!(c.insert(LineAddr(0)), InsertOutcome::Inserted));
        assert!(matches!(
            c.insert(LineAddr(0)),
            InsertOutcome::AlreadyPresent
        ));
        assert!(c.contains(LineAddr(0)));
        assert_eq!(c.occupancy(), 1);
        let removed = c.remove(LineAddr(0)).unwrap();
        assert_eq!(removed.tag, LineAddr(0));
        assert!(!c.contains(LineAddr(0)));
        assert!(c.remove(LineAddr(0)).is_none());
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = small();
        // Lines 0, 2, 4 map to set 0 (2 sets).
        c.insert(LineAddr(0));
        c.insert(LineAddr(2));
        c.lookup(LineAddr(0)); // make 2 the LRU
        match c.insert(LineAddr(4)) {
            InsertOutcome::Evicted(v) => assert_eq!(v.tag, LineAddr(2)),
            o => panic!("expected eviction, got {o:?}"),
        }
        assert!(c.contains(LineAddr(0)) && c.contains(LineAddr(4)));
    }

    #[test]
    fn eviction_prefers_unowned_victims() {
        let mut c = small();
        c.insert(LineAddr(0));
        c.lookup(LineAddr(0)).unwrap().set_word(0, WordState::Owned);
        c.insert(LineAddr(2)); // 0 is older but owned
        match c.insert(LineAddr(4)) {
            InsertOutcome::Evicted(v) => assert_eq!(v.tag, LineAddr(2)),
            o => panic!("expected eviction, got {o:?}"),
        }
        // When everything is owned, pure LRU applies.
        c.lookup(LineAddr(4)).unwrap().set_word(0, WordState::Owned);
        match c.insert(LineAddr(6)) {
            InsertOutcome::Evicted(v) => assert_eq!(v.tag, LineAddr(0)),
            o => panic!("expected eviction, got {o:?}"),
        }
    }

    #[test]
    fn masks_and_fill() {
        let mut c = small();
        c.insert(LineAddr(1));
        let l = c.lookup(LineAddr(1)).unwrap();
        assert!(l.readable_mask().is_empty());
        l.fill(
            WordMask::single(2) | WordMask::single(5),
            &[7; WORDS_PER_LINE],
            WordState::Valid,
        );
        l.set_word(5, WordState::Owned);
        assert_eq!(l.mask_in(WordState::Valid).iter().collect::<Vec<_>>(), [2]);
        assert_eq!(l.mask_in(WordState::Owned).iter().collect::<Vec<_>>(), [5]);
        assert_eq!(l.readable_mask().iter().collect::<Vec<_>>(), vec![2, 5]);
        assert!(l.any_owned());
    }

    #[test]
    fn flash_operation_via_for_each() {
        let mut c = small();
        for i in 0..4u64 {
            c.insert(LineAddr(i));
            c.lookup(LineAddr(i)).unwrap().set_word(0, WordState::Valid);
        }
        let mut invalidated = 0;
        c.for_each_line_mut(|l| {
            let v = l.mask_in(WordState::Valid);
            invalidated += v.count();
            l.set_mask(v, WordState::Invalid);
        });
        assert_eq!(invalidated, 4);
        assert!(c.iter().all(|l| l.readable_mask().is_empty()));
    }

    #[test]
    fn sweep_visits_only_sets_that_may_hold_valid_words() {
        let mut c = small();
        for i in 0..4u64 {
            c.insert(LineAddr(i));
        }
        // Set 0 gets a Valid word, set 1 only an Owned one: both are
        // marked by the lookup.
        c.lookup(LineAddr(0)).unwrap().set_word(0, WordState::Valid);
        c.lookup(LineAddr(1)).unwrap().set_word(0, WordState::Owned);
        let mut seen = Vec::new();
        c.sweep_valid(|l| {
            seen.push(l.tag.0);
            l.invalidate_valid(WordMask::empty());
        });
        assert_eq!(seen, [0, 2, 1, 3], "both marked sets, in set order");
        // Neither set kept a Valid word, so the next sweep visits none.
        let mut seen = Vec::new();
        c.sweep_valid(|l| seen.push(l.tag.0));
        assert!(seen.is_empty());
        // A kept Valid word keeps its set marked.
        c.lookup(LineAddr(3)).unwrap().set_word(1, WordState::Valid);
        for _ in 0..2 {
            let mut seen = Vec::new();
            c.sweep_valid(|l| {
                seen.push(l.tag.0);
                l.invalidate_valid(WordMask::single(1));
            });
            assert_eq!(seen, [1, 3]);
        }
    }

    mod properties {
        use super::*;
        use gsim_types::Rng64;

        /// Random insertion sequences (seeded, deterministic — the
        /// offline replacement for the old proptest generators).
        fn random_sequences(seed: u64, f: impl Fn(&mut CacheArray<u8>, LineAddr)) {
            let mut rng = Rng64::seed_from_u64(seed);
            for _ in 0..64 {
                let mut c = small();
                let n = rng.gen_usize(1, 200);
                for _ in 0..n {
                    f(&mut c, LineAddr(rng.gen_u64(0, 64)));
                }
            }
        }

        #[test]
        fn occupancy_never_exceeds_capacity() {
            random_sequences(0xcac4e, |c, l| {
                c.insert(l);
                assert!(c.occupancy() <= 4);
            });
        }

        /// Random lookups, writes and sweeps: a sweep drops exactly the
        /// Valid words a sweep over every resident line would.
        #[test]
        fn sweep_drops_what_a_full_scan_would() {
            let mut rng = Rng64::seed_from_u64(0x5eeb);
            for _ in 0..64 {
                let mut c = small();
                for _ in 0..rng.gen_usize(1, 200) {
                    let line = LineAddr(rng.gen_u64(0, 16));
                    match rng.gen_u32(0, 4) {
                        0 => {
                            c.insert(line);
                        }
                        1 | 2 => {
                            if let Some(l) = c.lookup(line) {
                                let to = [WordState::Valid, WordState::Owned][rng.gen_usize(0, 2)];
                                l.set_word(rng.gen_usize(0, WORDS_PER_LINE), to);
                            }
                        }
                        _ => {
                            let mut want = 0;
                            for l in c.iter() {
                                want += l.mask_in(WordState::Valid).count();
                            }
                            let mut got = 0;
                            c.sweep_valid(|l| got += l.invalidate_valid(WordMask::empty()).count());
                            assert_eq!(got, want);
                            assert!(c.iter().all(|l| l.mask_in(WordState::Valid).is_empty()));
                        }
                    }
                }
            }
        }

        #[test]
        fn inserted_line_is_resident() {
            random_sequences(0xcac4f, |c, l| {
                c.insert(l);
                assert!(c.contains(l));
            });
        }
    }
}
