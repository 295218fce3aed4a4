//! Workload region names for address annotation.
//!
//! Workload builders allocate their shared arrays through
//! `gsim_workloads::layout::Layout`; `Layout::alloc_named` records the
//! `(name, base, length)` triples that become a [`RegionMap`], and the
//! views' line reports resolve raw line addresses against it — so a
//! report says `lock[3]` instead of `line 0x2a`.

use crate::addr::{LineAddr, WORDS_PER_LINE};

#[derive(Clone, Debug, PartialEq, Eq)]
struct Region {
    name: String,
    base_word: u64,
    words: u64,
}

/// Named word ranges of one workload's memory layout.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RegionMap {
    regions: Vec<Region>,
}

impl RegionMap {
    /// Records a region covering `words` words starting at `base_word`.
    pub fn add(&mut self, name: impl Into<String>, base_word: u64, words: u64) {
        self.regions.push(Region {
            name: name.into(),
            base_word,
            words,
        });
    }

    /// Whether any region is recorded.
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }

    /// Number of regions.
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// The region containing word address `w`, if any.
    pub fn label_word(&self, w: u64) -> Option<&str> {
        self.regions
            .iter()
            .find(|r| w >= r.base_word && w < r.base_word + r.words)
            .map(|r| r.name.as_str())
    }

    /// The region overlapping `line`, if any. Layout allocations are
    /// line-aligned, so at most one region overlaps a line in practice;
    /// on overlap the first recorded region wins.
    pub fn label_line(&self, line: LineAddr) -> Option<&str> {
        let lo = line.0 * WORDS_PER_LINE as u64;
        let hi = lo + WORDS_PER_LINE as u64;
        self.regions
            .iter()
            .find(|r| r.base_word < hi && r.base_word + r.words > lo)
            .map(|r| r.name.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_and_line_lookup() {
        let mut m = RegionMap::default();
        m.add("lock[]", 0, 2);
        m.add("data[]", 16, 10);
        assert_eq!(m.label_word(0), Some("lock[]"));
        assert_eq!(m.label_word(1), Some("lock[]"));
        assert_eq!(m.label_word(2), None);
        assert_eq!(m.label_word(20), Some("data[]"));
        assert_eq!(m.label_line(LineAddr(0)), Some("lock[]"));
        assert_eq!(m.label_line(LineAddr(1)), Some("data[]"));
        assert_eq!(m.label_line(LineAddr(2)), None);
        assert_eq!(m.len(), 2);
        assert!(!m.is_empty());
        assert!(RegionMap::default().is_empty());
    }

    #[test]
    fn region_spanning_lines() {
        let mut m = RegionMap::default();
        m.add("grid", 32, 100); // lines 2..9
        assert_eq!(m.label_line(LineAddr(2)), Some("grid"));
        assert_eq!(m.label_line(LineAddr(8)), Some("grid"));
        assert_eq!(m.label_line(LineAddr(9)), None);
    }
}
