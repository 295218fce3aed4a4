//! A tiny bump allocator for laying out workload data in the unified
//! address space.
//!
//! Every allocation is line-aligned so distinct arrays never share a
//! cache line (the paper's benchmarks are similarly padded), and
//! synchronization variables can be given lines of their own.
//!
//! [`Layout::alloc_named`] additionally records the allocation in a
//! [`RegionMap`], which the profiler's hot-line report uses to print
//! `lock[3]` instead of a raw line address.

use gsim_types::{Addr, RegionMap, Value, WORDS_PER_LINE};

/// Line-aligned bump allocator over word addresses.
///
/// # Examples
///
/// ```
/// use gsim_workloads::layout::Layout;
///
/// let mut l = Layout::new();
/// let a = l.alloc(10);
/// let b = l.alloc(1);
/// assert_eq!(a, 0);
/// assert_eq!(b, 16, "next allocation starts on a fresh line");
/// ```
#[derive(Debug, Default)]
pub struct Layout {
    next_word: u64,
    regions: RegionMap,
}

impl Layout {
    /// Starts allocating at address zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates `words` words on a fresh cache line, returning the base
    /// *word address* (the unit kernel registers hold).
    ///
    /// # Panics
    ///
    /// Panics if the 32-bit word address space is exhausted (the
    /// workloads use a few megabytes).
    pub fn alloc(&mut self, words: usize) -> Value {
        let base = self.next_word;
        self.next_word += words as u64;
        // Round up to the next line.
        let lines = self.next_word.div_ceil(WORDS_PER_LINE as u64);
        self.next_word = lines * WORDS_PER_LINE as u64;
        assert!(base <= u32::MAX as u64, "address space exhausted");
        base as Value
    }

    /// Allocates one word on its own line (locks, counters, flags).
    pub fn alloc_word(&mut self) -> Value {
        self.alloc(1)
    }

    /// As [`alloc`](Self::alloc), additionally recording the region
    /// under `name` for profiler annotation.
    pub fn alloc_named(&mut self, name: impl Into<String>, words: usize) -> Value {
        let base = self.alloc(words);
        self.regions.add(name, base as u64, words as u64);
        base
    }

    /// The named regions recorded by [`alloc_named`](Self::alloc_named).
    pub fn regions(&self) -> &RegionMap {
        &self.regions
    }

    /// The byte address of a word address (what the memory image's
    /// `write_u32_slice`/`read_u32_slice` helpers take).
    pub fn byte_addr(word: Value) -> Addr {
        Addr(word as u64 * 4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocations_are_line_aligned_and_disjoint() {
        let mut l = Layout::new();
        let a = l.alloc(17); // 2 lines
        let b = l.alloc_word();
        let c = l.alloc(16);
        assert_eq!(a % 16, 0);
        assert_eq!(b, a + 32);
        assert_eq!(c, b + 16);
        assert_eq!(Layout::byte_addr(c), Addr(c as u64 * 4));
    }

    #[test]
    fn named_allocations_are_recorded() {
        let mut l = Layout::new();
        let lock = l.alloc_named("lock[]", 2);
        let data = l.alloc_named("data[]", 10);
        let anon = l.alloc(4);
        assert_eq!(l.regions().len(), 2);
        assert_eq!(l.regions().label_word(lock as u64), Some("lock[]"));
        assert_eq!(l.regions().label_word(data as u64 + 9), Some("data[]"));
        assert_eq!(l.regions().label_word(anon as u64), None);
    }
}
