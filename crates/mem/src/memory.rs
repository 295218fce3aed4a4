//! Backing memory: the flat functional [`MemoryImage`] and the banked
//! [`Dram`] timing model.
//!
//! The simulator is *functional + timing*: every load returns a real value
//! and every workload verifies its final memory contents, so a coherence
//! bug that violates SC-for-DRF breaks the run, not just the numbers. The
//! `MemoryImage` is the ground truth behind the shared L2 — an L2 bank
//! miss reads a line from here, an L2 eviction writes one back.
//!
//! Timing is separate: [`Dram::access`] models per-bank busy time on top
//! of a fixed access latency, calibrated (together with the mesh and L2
//! latencies) so end-to-end memory latency lands in Table 3's 197-261
//! cycle range.

use gsim_types::{Addr, Cycle, FxHashMap, LineAddr, Value, WordAddr, WordMask, WORDS_PER_LINE};

/// A line's worth of values.
pub type Line = [Value; WORDS_PER_LINE];

/// Lines per page (16 KB of data per page at 64-byte lines).
const PAGE_LINES: usize = 256;
/// Log2 of [`PAGE_LINES`], for address splitting.
const PAGE_SHIFT: u32 = PAGE_LINES.trailing_zeros();
/// Pages reachable through the dense page vector. Line addresses below
/// `DENSE_PAGES * PAGE_LINES` (a 256 MB span) index the vector directly;
/// anything above falls back to a hash map so one write at a huge
/// address cannot balloon the vector.
const DENSE_PAGES: usize = 1 << 14;

/// One page of backing storage, zero-filled on allocation, so unwritten
/// lines inside an allocated page still read as zero.
#[derive(Clone)]
struct Page {
    lines: [Line; PAGE_LINES],
}

impl Page {
    fn zeroed() -> Box<Page> {
        Box::new(Page {
            lines: [[0; WORDS_PER_LINE]; PAGE_LINES],
        })
    }
}

/// The flat, functional backing store of the unified address space.
///
/// Paged: a line address splits into a page index and a slot, the page
/// index goes through a dense page vector (with a hash-map fallback for
/// far-out sparse pages), and the slot indexes a zero-filled 16 KB page
/// arena directly — no per-line hashing on the L2 miss/writeback path.
/// Untouched lines read as zero, like freshly allocated device memory
/// in the modelled system.
///
/// # Examples
///
/// ```
/// use gsim_mem::MemoryImage;
/// use gsim_types::{Addr, WordAddr};
///
/// let mut mem = MemoryImage::new();
/// mem.write_word(WordAddr(17), 99);
/// assert_eq!(mem.read_word(WordAddr(17)), 99);
/// assert_eq!(mem.read_word(WordAddr(18)), 0); // untouched reads as zero
/// mem.write_u32_slice(Addr(0x1000), &[1, 2, 3]);
/// assert_eq!(mem.read_u32_slice(Addr(0x1000), 3), vec![1, 2, 3]);
/// ```
#[derive(Default, Clone)]
pub struct MemoryImage {
    /// Dense pages: index is the page number, grown on demand.
    pages: Vec<Option<Box<Page>>>,
    /// Sparse fallback for pages at or beyond [`DENSE_PAGES`].
    high: FxHashMap<u64, Box<Page>>,
}

impl std::fmt::Debug for MemoryImage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryImage")
            .field(
                "pages",
                &(self.pages.iter().flatten().count() + self.high.len()),
            )
            .finish()
    }
}

/// Splits a line address into `(page, slot-in-page)`.
#[inline]
fn split(line: LineAddr) -> (u64, usize) {
    (line.0 >> PAGE_SHIFT, (line.0 as usize) & (PAGE_LINES - 1))
}

impl MemoryImage {
    /// Creates an empty (all-zero) memory image.
    pub fn new() -> Self {
        Self::default()
    }

    /// The page holding `line`, if it was ever written.
    #[inline]
    fn page(&self, line: LineAddr) -> Option<(&Page, usize)> {
        let (page, slot) = split(line);
        let p = if page < DENSE_PAGES as u64 {
            self.pages.get(page as usize)?.as_deref()?
        } else {
            self.high.get(&page)?
        };
        Some((p, slot))
    }

    /// The page holding `line`, allocated (zero-filled) on first use.
    #[inline]
    fn page_mut(&mut self, line: LineAddr) -> (&mut Page, usize) {
        let (page, slot) = split(line);
        let p = if page < DENSE_PAGES as u64 {
            let idx = page as usize;
            if idx >= self.pages.len() {
                self.pages.resize_with(idx + 1, || None);
            }
            self.pages[idx].get_or_insert_with(Page::zeroed)
        } else {
            self.high.entry(page).or_insert_with(Page::zeroed)
        };
        (p, slot)
    }

    /// Reads one word.
    #[inline]
    pub fn read_word(&self, word: WordAddr) -> Value {
        self.page(word.line())
            .map(|(p, slot)| p.lines[slot][word.index_in_line()])
            .unwrap_or(0)
    }

    /// Writes one word.
    #[inline]
    pub fn write_word(&mut self, word: WordAddr, value: Value) {
        let (p, slot) = self.page_mut(word.line());
        p.lines[slot][word.index_in_line()] = value;
    }

    /// Reads a whole line.
    #[inline]
    pub fn read_line(&self, line: LineAddr) -> Line {
        self.page(line)
            .map(|(p, slot)| p.lines[slot])
            .unwrap_or([0; WORDS_PER_LINE])
    }

    /// Writes the masked words of a line.
    pub fn write_line(&mut self, line: LineAddr, mask: WordMask, data: &Line) {
        let (p, slot) = self.page_mut(line);
        let l = &mut p.lines[slot];
        for i in mask.iter() {
            l[i] = data[i];
        }
    }

    /// Host (CPU-side, untimed) bulk write of consecutive `u32` values
    /// starting at a word-aligned byte address — how workloads initialize
    /// their inputs, mirroring the paper's functional CPU.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not word aligned.
    pub fn write_u32_slice(&mut self, base: Addr, values: &[Value]) {
        assert!(base.is_word_aligned(), "unaligned base {base}");
        let w0 = base.word();
        for (i, &v) in values.iter().enumerate() {
            self.write_word(WordAddr(w0.0 + i as u64), v);
        }
    }

    /// Host bulk read of `count` consecutive `u32` values — how workload
    /// verifiers inspect the final memory state.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not word aligned.
    pub fn read_u32_slice(&self, base: Addr, count: usize) -> Vec<Value> {
        assert!(base.is_word_aligned(), "unaligned base {base}");
        let w0 = base.word();
        (0..count)
            .map(|i| self.read_word(WordAddr(w0.0 + i as u64)))
            .collect()
    }
}

/// DRAM timing parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DramConfig {
    /// Cycles from request acceptance to data availability.
    pub latency: Cycle,
    /// Number of independent DRAM banks.
    pub banks: usize,
    /// Cycles a bank stays busy per access (row activation + transfer).
    pub busy: Cycle,
}

impl Default for DramConfig {
    fn default() -> Self {
        // Calibrated with the mesh + L2 latencies so end-to-end memory
        // accesses land in Table 3's 197-261 cycle range.
        DramConfig {
            latency: 170,
            banks: 16,
            busy: 8,
        }
    }
}

/// The DRAM timing model: fixed access latency plus per-bank serialization.
///
/// Functional data lives in [`MemoryImage`]; `Dram` only answers *when* a
/// line access completes.
///
/// # Examples
///
/// ```
/// use gsim_mem::{Dram, DramConfig};
/// use gsim_types::LineAddr;
///
/// let mut dram = Dram::new(DramConfig::default());
/// let t1 = dram.access(0, LineAddr(0));
/// let t2 = dram.access(0, LineAddr(16)); // same bank: serialized
/// assert!(t2 > t1);
/// let t3 = dram.access(0, LineAddr(1)); // different bank: unaffected
/// assert_eq!(t3, t1);
/// ```
#[derive(Debug)]
pub struct Dram {
    config: DramConfig,
    bank_free: Vec<Cycle>,
    accesses: u64,
}

impl Dram {
    /// Creates a DRAM model with the given configuration.
    pub fn new(config: DramConfig) -> Self {
        Dram {
            bank_free: vec![0; config.banks],
            config,
            accesses: 0,
        }
    }

    /// The DRAM configuration.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Total accesses performed.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Performs a (read or write) access to `line` at cycle `now`,
    /// returning the completion cycle. The line's bank is busy for
    /// [`DramConfig::busy`] cycles.
    pub fn access(&mut self, now: Cycle, line: LineAddr) -> Cycle {
        self.accesses += 1;
        let bank = (line.0 % self.config.banks as u64) as usize;
        let start = now.max(self.bank_free[bank]);
        self.bank_free[bank] = start + self.config.busy;
        start + self.config.latency
    }

    /// Resets timing state (for reuse between independent simulations).
    pub fn reset(&mut self) {
        self.bank_free.fill(0);
        self.accesses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_fill_semantics() {
        let mem = MemoryImage::new();
        assert_eq!(mem.read_word(WordAddr(12345)), 0);
        assert_eq!(mem.read_line(LineAddr(7)), [0; WORDS_PER_LINE]);
    }

    #[test]
    fn word_round_trip() {
        let mut mem = MemoryImage::new();
        mem.write_word(WordAddr(5), 42);
        mem.write_word(WordAddr(5 + WORDS_PER_LINE as u64), 43);
        assert_eq!(mem.read_word(WordAddr(5)), 42);
        assert_eq!(mem.read_word(WordAddr(5 + WORDS_PER_LINE as u64)), 43);
        assert_eq!(mem.clone().read_word(WordAddr(5)), 42);
    }

    #[test]
    fn masked_line_write() {
        let mut mem = MemoryImage::new();
        mem.write_word(WordAddr(0), 7);
        let data = [9; WORDS_PER_LINE];
        mem.write_line(LineAddr(0), WordMask::single(3), &data);
        assert_eq!(mem.read_word(WordAddr(3)), 9);
        assert_eq!(mem.read_word(WordAddr(0)), 7, "unmasked word untouched");
    }

    #[test]
    fn slice_helpers_cross_lines() {
        let mut mem = MemoryImage::new();
        let vals: Vec<Value> = (0..40).collect();
        mem.write_u32_slice(Addr(60), &vals); // straddles a line boundary
        assert_eq!(mem.read_u32_slice(Addr(60), 40), vals);
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn unaligned_slice_panics() {
        let mem = MemoryImage::new();
        let _ = mem.read_u32_slice(Addr(2), 1);
    }

    #[test]
    fn dram_bank_serialization() {
        let cfg = DramConfig {
            latency: 100,
            banks: 4,
            busy: 10,
        };
        let mut d = Dram::new(cfg);
        assert_eq!(d.access(0, LineAddr(0)), 100);
        assert_eq!(d.access(0, LineAddr(4)), 110, "same bank waits");
        assert_eq!(d.access(0, LineAddr(1)), 100, "other bank free");
        assert_eq!(d.accesses(), 3);
        d.reset();
        assert_eq!(d.access(0, LineAddr(0)), 100);
        assert_eq!(d.accesses(), 1);
    }

    #[test]
    fn dram_idle_bank_does_not_backdate() {
        let mut d = Dram::new(DramConfig::default());
        let t = d.access(1000, LineAddr(0));
        assert_eq!(t, 1000 + DramConfig::default().latency);
    }

    #[test]
    fn sparse_high_pages_fall_back_to_the_map() {
        let mut mem = MemoryImage::new();
        // Far beyond the dense page span: must not balloon the vector.
        let far = WordAddr(u64::MAX / 2);
        mem.write_word(far, 77);
        mem.write_word(WordAddr(0), 1);
        assert_eq!(mem.read_word(far), 77);
        assert_eq!(mem.read_word(WordAddr(0)), 1);
        assert_eq!(mem.read_word(WordAddr(far.0 + 1)), 0);
        assert!(mem.pages.len() <= 1, "high write grew the dense vector");
    }

    mod properties {
        use super::*;
        use gsim_types::Rng64;
        use std::collections::HashMap;

        #[test]
        fn image_is_a_map() {
            let mut rng = Rng64::seed_from_u64(0x3e3);
            for _ in 0..64 {
                let mut mem = MemoryImage::new();
                let mut model = HashMap::new();
                for _ in 0..rng.gen_usize(1, 200) {
                    let (w, v) = (rng.gen_u64(0, 256), rng.gen_u32(0, 1000));
                    mem.write_word(WordAddr(w), v);
                    model.insert(w, v);
                }
                for (w, v) in model {
                    assert_eq!(mem.read_word(WordAddr(w)), v);
                }
            }
        }

        #[test]
        fn dram_completion_monotone_per_bank() {
            let mut rng = Rng64::seed_from_u64(0xd4a3);
            for _ in 0..64 {
                let mut d = Dram::new(DramConfig::default());
                let mut times: Vec<u64> = (0..rng.gen_usize(1, 50))
                    .map(|_| rng.gen_u64(0, 10_000))
                    .collect();
                times.sort_unstable();
                let mut last = 0;
                for t in times {
                    let done = d.access(t, LineAddr(0));
                    assert!(done >= t + DramConfig::default().latency);
                    assert!(done >= last);
                    last = done;
                }
            }
        }
    }
}
