//! A fixed-capacity space-saving (heavy-hitter) sketch over cache
//! lines.
//!
//! Classic Metwally-Agrawala-El Abbadi space saving on the *total*
//! per-line event weight: when a new line arrives at a full sketch it
//! evicts the minimum-weight entry and inherits its weight as `err`.
//! The standard guarantees follow:
//!
//! * any line whose true weight exceeds `total / capacity` is present;
//! * a reported weight overestimates the truth by at most `err`, and
//!   `err ≤ total / capacity`.
//!
//! The per-metric fields ([`LineTally`]) are exact *for the period the
//! line was resident* — only the inherited `err` portion is of unknown
//! composition. Reports surface `err` so readers can judge.

use gsim_types::{FxHashMap, LineAddr};

/// Capacity of each space-saving hot-line sketch (one per L1, one at
/// the L2 registry). Any line whose true event count exceeds
/// `total / SKETCH_LINES` is guaranteed to be present.
pub const SKETCH_LINES: usize = 64;

/// Per-line event counters tracked by the sketch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LineTally {
    /// Program accesses (loads, stores, atomics) touching the line.
    pub accesses: u64,
    /// Words of the line invalidated by acquire sweeps / flash
    /// invalidations at this cache.
    pub invalidations: u64,
    /// Words whose registration moved between L1s (ownership
    /// ping-pong; DeNovo registry only).
    pub transfers: u64,
    /// Registry forwards targeting the line (DeNovo registry only).
    pub forwards: u64,
}

impl LineTally {
    /// One access.
    pub fn access() -> Self {
        LineTally {
            accesses: 1,
            ..Default::default()
        }
    }

    /// `words` invalidated.
    pub fn invalidated(words: u64) -> Self {
        LineTally {
            invalidations: words,
            ..Default::default()
        }
    }

    /// `words` whose ownership transferred.
    pub fn transferred(words: u64) -> Self {
        LineTally {
            transfers: words,
            ..Default::default()
        }
    }

    /// One registry forward.
    pub fn forward() -> Self {
        LineTally {
            forwards: 1,
            ..Default::default()
        }
    }

    /// Total event weight.
    pub fn weight(&self) -> u64 {
        self.accesses + self.invalidations + self.transfers + self.forwards
    }

    /// Accumulates another tally.
    pub fn merge(&mut self, other: &LineTally) {
        self.accesses += other.accesses;
        self.invalidations += other.invalidations;
        self.transfers += other.transfers;
        self.forwards += other.forwards;
    }
}

#[derive(Clone, Debug)]
struct Entry {
    line: LineAddr,
    tally: LineTally,
    /// Weight inherited from the entry this one evicted (overestimate
    /// bound).
    err: u64,
}

impl Entry {
    fn weight(&self) -> u64 {
        self.tally.weight() + self.err
    }
}

/// The sketch: at most `capacity` resident lines, heavy hitters
/// guaranteed present.
#[derive(Clone, Debug)]
pub struct SpaceSaving {
    capacity: usize,
    entries: Vec<Entry>,
    index: FxHashMap<LineAddr, usize>,
    total: u64,
}

impl SpaceSaving {
    /// An empty sketch holding at most `capacity` lines (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        SpaceSaving {
            capacity,
            entries: Vec::with_capacity(capacity),
            index: FxHashMap::default(),
            total: 0,
        }
    }

    /// Adds events for `line`.
    pub fn add(&mut self, line: LineAddr, delta: LineTally) {
        self.total += delta.weight();
        if let Some(&i) = self.index.get(&line) {
            self.entries[i].tally.merge(&delta);
        } else if self.entries.len() < self.capacity {
            self.index.insert(line, self.entries.len());
            self.entries.push(Entry {
                line,
                tally: delta,
                err: 0,
            });
        } else {
            // Evict the minimum-weight entry; the newcomer inherits its
            // weight as error. Ties break on the lower line address so
            // replacement is deterministic.
            let (i, _) = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| (e.weight(), e.line))
                .expect("capacity >= 1");
            let evicted = self.entries[i].weight();
            self.index.remove(&self.entries[i].line);
            self.index.insert(line, i);
            self.entries[i] = Entry {
                line,
                tally: delta,
                err: evicted,
            };
        }
    }

    /// Total event weight ever added (the denominator of the error
    /// bound `err ≤ total / capacity`).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The sketch capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Resident `(line, tally, err)` rows, sorted by line address
    /// (deterministic; callers re-rank by weight as needed).
    pub fn rows(&self) -> Vec<(LineAddr, LineTally, u64)> {
        let mut v: Vec<_> = self
            .entries
            .iter()
            .map(|e| (e.line, e.tally, e.err))
            .collect();
        v.sort_unstable_by_key(|&(line, _, _)| line);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_below_capacity() {
        let mut s = SpaceSaving::new(4);
        for i in 0..4u64 {
            for _ in 0..=i {
                s.add(LineAddr(i), LineTally::access());
            }
        }
        let rows = s.rows();
        assert_eq!(rows.len(), 4);
        for (i, &(line, tally, err)) in rows.iter().enumerate() {
            assert_eq!(line, LineAddr(i as u64));
            assert_eq!(tally.accesses, i as u64 + 1);
            assert_eq!(err, 0, "no eviction, no error");
        }
        assert_eq!(s.total(), 1 + 2 + 3 + 4);
    }

    /// The space-saving guarantee: a heavy hitter survives any stream
    /// of light keys, and the error bound holds.
    #[test]
    fn heavy_hitter_survives_churn() {
        let cap = 8;
        let mut s = SpaceSaving::new(cap);
        let heavy = LineAddr(999);
        for i in 0..1000u64 {
            s.add(LineAddr(i % 100), LineTally::access());
            if i % 4 == 0 {
                s.add(heavy, LineTally::invalidated(2));
            }
        }
        let rows = s.rows();
        let hot = rows
            .iter()
            .find(|(l, _, _)| *l == heavy)
            .expect("heavy hitter must be present");
        assert_eq!(hot.1.invalidations, 500, "resident-period tally exact");
        for &(_, tally, err) in &rows {
            assert!(
                err <= s.total() / cap as u64,
                "err {err} exceeds total/capacity = {}",
                s.total() / cap as u64
            );
            let _ = tally;
        }
    }

    #[test]
    fn multi_metric_tallies_merge() {
        let mut s = SpaceSaving::new(2);
        let l = LineAddr(7);
        s.add(l, LineTally::access());
        s.add(l, LineTally::transferred(3));
        s.add(l, LineTally::forward());
        let rows = s.rows();
        assert_eq!(rows.len(), 1);
        let (_, t, _) = rows[0];
        assert_eq!((t.accesses, t.transfers, t.forwards), (1, 3, 1));
        assert_eq!(t.weight(), 5);
    }

    #[test]
    fn deterministic_under_ties() {
        // Two identical streams must produce identical rows even though
        // evictions tie on weight.
        let run = || {
            let mut s = SpaceSaving::new(2);
            for i in 0..10u64 {
                s.add(LineAddr(i), LineTally::access());
            }
            s.rows()
        };
        assert_eq!(run(), run());
    }
}
