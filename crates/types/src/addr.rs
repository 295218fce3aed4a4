//! Byte, word, and line addressing.
//!
//! The simulator fixes the paper's geometry: 4-byte words, 64-byte lines
//! (16 words). Coherence state is kept per *word*; tags and transfers are
//! per *line* (DeNovo decouples the two, GPU coherence moves whole lines).

use std::fmt;

/// Bytes per machine word (the paper's coherence granularity for DeNovo).
pub const WORD_BYTES: u64 = 4;
/// Bytes per cache line (tag granularity for every protocol).
pub const LINE_BYTES: u64 = 64;
/// Words per cache line.
pub const WORDS_PER_LINE: usize = (LINE_BYTES / WORD_BYTES) as usize;

/// A byte address in the unified CPU-GPU address space.
///
/// Addresses used for memory operations must be word aligned; none of the
/// paper's benchmarks perform byte-granularity accesses (paper footnote 1).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(pub u64);

/// A word-granularity address (`byte address / 4`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct WordAddr(pub u64);

/// A line-granularity address (`byte address / 64`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(pub u64);

impl Addr {
    /// The word containing this address.
    #[inline]
    pub fn word(self) -> WordAddr {
        WordAddr(self.0 / WORD_BYTES)
    }

    /// The line containing this address.
    #[inline]
    pub fn line(self) -> LineAddr {
        LineAddr(self.0 / LINE_BYTES)
    }

    /// Whether the address is word aligned.
    #[inline]
    pub fn is_word_aligned(self) -> bool {
        self.0.is_multiple_of(WORD_BYTES)
    }
}

impl WordAddr {
    /// The line containing this word.
    #[inline]
    pub fn line(self) -> LineAddr {
        LineAddr(self.0 / WORDS_PER_LINE as u64)
    }

    /// Index of this word within its line (`0..WORDS_PER_LINE`).
    #[inline]
    pub fn index_in_line(self) -> usize {
        (self.0 % WORDS_PER_LINE as u64) as usize
    }

    /// The byte address of this word.
    #[inline]
    pub fn addr(self) -> Addr {
        Addr(self.0 * WORD_BYTES)
    }
}

impl LineAddr {
    /// The `i`-th word of this line.
    ///
    /// # Panics
    ///
    /// Panics if `i >= WORDS_PER_LINE`.
    #[inline]
    pub fn word(self, i: usize) -> WordAddr {
        assert!(i < WORDS_PER_LINE, "word index {i} out of line");
        WordAddr(self.0 * WORDS_PER_LINE as u64 + i as u64)
    }
}

impl From<u64> for Addr {
    fn from(v: u64) -> Self {
        Addr(v)
    }
}

impl fmt::Debug for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Addr({:#x})", self.0)
    }
}

impl fmt::Debug for WordAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "WordAddr({:#x}.{})", self.line().0, self.index_in_line())
    }
}

impl fmt::Debug for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LineAddr({:#x})", self.0)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// A per-line word bitmask: bit `i` refers to word `i` of a line.
///
/// Used throughout the coherence messages to express which words of a line
/// a request, response, or writeback covers — this is how DeNovo decouples
/// the coherence granularity (words) from the tag granularity (lines).
///
/// # Examples
///
/// ```
/// use gsim_types::WordMask;
///
/// let m = WordMask::single(3) | WordMask::single(7);
/// assert_eq!(m.count(), 2);
/// assert!(m.contains(3));
/// assert_eq!(m.iter().collect::<Vec<_>>(), vec![3, 7]);
/// assert_eq!(WordMask::full().count(), 16);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct WordMask(pub u16);

impl WordMask {
    /// The empty mask.
    #[inline]
    pub fn empty() -> Self {
        WordMask(0)
    }

    /// The mask covering all words of a line.
    #[inline]
    pub fn full() -> Self {
        WordMask(u16::MAX)
    }

    /// The mask covering only word `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= WORDS_PER_LINE`.
    #[inline]
    pub fn single(i: usize) -> Self {
        assert!(i < WORDS_PER_LINE, "word index {i} out of line");
        WordMask(1 << i)
    }

    /// Whether word `i` is in the mask.
    #[inline]
    pub fn contains(self, i: usize) -> bool {
        i < WORDS_PER_LINE && self.0 & (1 << i) != 0
    }

    /// Adds word `i` to the mask.
    #[inline]
    pub fn insert(&mut self, i: usize) {
        assert!(i < WORDS_PER_LINE, "word index {i} out of line");
        self.0 |= 1 << i;
    }

    /// Removes word `i` from the mask.
    #[inline]
    pub fn remove(&mut self, i: usize) {
        self.0 &= !(1u16 << i);
    }

    /// Number of words in the mask.
    #[inline]
    pub fn count(self) -> u32 {
        self.0.count_ones()
    }

    /// Whether the mask is empty.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Iterates over the word indices in the mask, in increasing order.
    pub fn iter(self) -> impl Iterator<Item = usize> {
        (0..WORDS_PER_LINE).filter(move |&i| self.contains(i))
    }
}

impl std::ops::BitOr for WordMask {
    type Output = WordMask;
    fn bitor(self, rhs: WordMask) -> WordMask {
        WordMask(self.0 | rhs.0)
    }
}

impl std::ops::BitOrAssign for WordMask {
    fn bitor_assign(&mut self, rhs: WordMask) {
        self.0 |= rhs.0;
    }
}

impl std::ops::BitAnd for WordMask {
    type Output = WordMask;
    fn bitand(self, rhs: WordMask) -> WordMask {
        WordMask(self.0 & rhs.0)
    }
}

impl std::ops::Not for WordMask {
    type Output = WordMask;
    fn not(self) -> WordMask {
        WordMask(!self.0)
    }
}

impl fmt::Debug for WordMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "WordMask({:#018b})", self.0)
    }
}

impl FromIterator<usize> for WordMask {
    fn from_iter<T: IntoIterator<Item = usize>>(iter: T) -> Self {
        let mut m = WordMask::empty();
        for i in iter {
            m.insert(i);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_line_round_trip() {
        let a = Addr(0x12345 * WORD_BYTES);
        assert_eq!(a.word().addr(), a);
        let w = a.word();
        assert_eq!(w.line().word(w.index_in_line()), w);
    }

    #[test]
    fn line_geometry() {
        let l = LineAddr(5);
        assert_eq!(l.word(0).line(), l);
        assert_eq!(l.word(WORDS_PER_LINE - 1).line(), l);
        assert_eq!(
            l.word(WORDS_PER_LINE - 1).index_in_line(),
            WORDS_PER_LINE - 1
        );
    }

    #[test]
    #[should_panic(expected = "out of line")]
    fn line_word_out_of_range_panics() {
        let _ = LineAddr(0).word(WORDS_PER_LINE);
    }

    #[test]
    fn alignment() {
        assert!(Addr(64).is_word_aligned());
        assert!(!Addr(65).is_word_aligned());
    }

    #[test]
    fn mask_ops() {
        let mut m = WordMask::empty();
        assert!(m.is_empty());
        m.insert(0);
        m.insert(15);
        assert_eq!(m.count(), 2);
        assert!(m.contains(0) && m.contains(15) && !m.contains(7));
        m.remove(0);
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![15]);
        assert_eq!(WordMask::full().count(), WORDS_PER_LINE as u32);
        assert!(!WordMask::full().contains(WORDS_PER_LINE)); // out of range is "absent"
    }

    #[test]
    fn mask_bit_algebra() {
        let a = WordMask::single(1) | WordMask::single(2);
        let b = WordMask::single(2) | WordMask::single(3);
        assert_eq!((a & b).iter().collect::<Vec<_>>(), vec![2]);
        assert_eq!((!a & a), WordMask::empty());
        let c: WordMask = [4usize, 9].into_iter().collect();
        assert_eq!(c.count(), 2);
    }
}
