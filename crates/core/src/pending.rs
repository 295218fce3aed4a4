//! A slot-indexed table for in-flight requests, keyed by dense
//! monotonically minted [`ReqId`]s.
//!
//! The engine mints request ids from a counter and only a bounded window
//! of them is ever in flight (the MSHRs and store buffers cap outstanding
//! misses), so the id space at any instant is a dense sliding window.
//! Instead of hashing every insert/remove on the hot completion path,
//! [`PendingTable`] stores entries in a `VecDeque` of slots indexed by
//! `id - base` and advances `base` over the drained prefix — O(1)
//! amortized insert and remove, no hashing, no rehash pauses.
//!
//! # Examples
//!
//! ```
//! use gsim_core::pending::PendingTable;
//! use gsim_types::ReqId;
//!
//! let mut t: PendingTable<&str> = PendingTable::new();
//! t.insert(ReqId(1), "load");
//! t.insert(ReqId(3), "atomic"); // id 2 hit in the L1, never inserted
//! assert_eq!(t.remove(ReqId(1)), Some("load"));
//! assert_eq!(t.remove(ReqId(1)), None);
//! assert_eq!(t.len(), 1);
//! ```

use gsim_types::ReqId;
use std::collections::VecDeque;

/// A sliding-window slot table over monotonically allocated [`ReqId`]s.
#[derive(Debug, Clone)]
pub struct PendingTable<T> {
    /// The [`ReqId`] value slot 0 corresponds to.
    base: u64,
    /// One slot per id in `[base, base + slots.len())`; `None` slots are
    /// ids that completed immediately or already finished.
    slots: VecDeque<Option<T>>,
    /// Number of occupied slots.
    live: usize,
}

impl<T> Default for PendingTable<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> PendingTable<T> {
    /// Creates an empty table.
    pub fn new() -> Self {
        PendingTable {
            base: 0,
            slots: VecDeque::new(),
            live: 0,
        }
    }

    /// Number of in-flight entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no entries are in flight.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Records `value` for `req`.
    ///
    /// # Panics
    ///
    /// Panics if `req` is already present or precedes an id whose slot
    /// was already reclaimed (ids must be minted monotonically).
    #[inline]
    pub fn insert(&mut self, req: ReqId, value: T) {
        if self.slots.is_empty() {
            self.base = req.0;
        }
        assert!(
            req.0 >= self.base,
            "request id {req:?} precedes the reclaimed window base {}",
            self.base
        );
        let idx = (req.0 - self.base) as usize;
        while idx >= self.slots.len() {
            self.slots.push_back(None);
        }
        let slot = &mut self.slots[idx];
        assert!(slot.is_none(), "request id {req:?} inserted twice");
        *slot = Some(value);
        self.live += 1;
    }

    /// Removes and returns the entry for `req`, reclaiming the drained
    /// window prefix.
    #[inline]
    pub fn remove(&mut self, req: ReqId) -> Option<T> {
        if req.0 < self.base {
            return None;
        }
        let idx = (req.0 - self.base) as usize;
        let value = self.slots.get_mut(idx)?.take()?;
        self.live -= 1;
        // Advance the window past the drained prefix so the deque stays
        // as small as the in-flight span.
        while matches!(self.slots.front(), Some(None)) {
            self.slots.pop_front();
            self.base += 1;
        }
        if self.slots.is_empty() {
            self.base = 0;
        }
        self.live_check();
        Some(value)
    }

    /// Returns the entry for `req` without removing it.
    #[inline]
    pub fn get(&self, req: ReqId) -> Option<&T> {
        if req.0 < self.base {
            return None;
        }
        self.slots.get((req.0 - self.base) as usize)?.as_ref()
    }

    /// Iterates over in-flight entries in id order.
    pub fn iter(&self) -> impl Iterator<Item = (ReqId, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| Some((ReqId(self.base + i as u64), s.as_ref()?)))
    }

    #[inline]
    fn live_check(&self) {
        debug_assert!(self.live <= self.slots.len());
        debug_assert_eq!(self.live, self.slots.iter().filter(|s| s.is_some()).count());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsim_types::Rng64;
    use std::collections::HashMap;

    #[test]
    fn insert_remove_round_trip_with_gaps() {
        let mut t: PendingTable<u32> = PendingTable::new();
        t.insert(ReqId(5), 50);
        t.insert(ReqId(9), 90); // 6..=8 were hits, never inserted
        assert_eq!(t.len(), 2);
        assert_eq!(t.remove(ReqId(9)), Some(90));
        assert_eq!(t.remove(ReqId(5)), Some(50));
        assert!(t.is_empty());
        assert_eq!(t.slots.len(), 0, "drained table did not reclaim");
    }

    #[test]
    fn window_slides_past_completed_prefix() {
        let mut t: PendingTable<u32> = PendingTable::new();
        for i in 1..=100 {
            t.insert(ReqId(i), i as u32);
        }
        for i in 1..=99 {
            assert_eq!(t.remove(ReqId(i)), Some(i as u32));
        }
        assert_eq!(t.len(), 1);
        assert!(t.slots.len() <= 1, "window failed to slide");
        assert_eq!(t.iter().next(), Some((ReqId(100), &100)));
    }

    #[test]
    fn remove_of_unknown_or_stale_ids_is_none() {
        let mut t: PendingTable<u32> = PendingTable::new();
        t.insert(ReqId(10), 1);
        assert_eq!(t.remove(ReqId(3)), None, "below the window");
        assert_eq!(t.remove(ReqId(11)), None, "beyond the window");
        assert_eq!(t.remove(ReqId(10)), Some(1));
        assert_eq!(t.remove(ReqId(10)), None, "double remove");
    }

    #[test]
    #[should_panic(expected = "inserted twice")]
    fn double_insert_panics() {
        let mut t: PendingTable<u32> = PendingTable::new();
        t.insert(ReqId(4), 1);
        t.insert(ReqId(4), 2);
    }

    #[test]
    fn iter_is_id_ordered() {
        let mut t: PendingTable<u32> = PendingTable::new();
        for id in [2u64, 5, 3, 9] {
            t.insert(ReqId(id), id as u32);
        }
        let ids: Vec<u64> = t.iter().map(|(r, _)| r.0).collect();
        assert_eq!(ids, [2, 3, 5, 9]);
    }

    /// The first insert snaps the window to its id, so the table works
    /// when the very first id is enormous and the whole stream stays
    /// near it.
    #[test]
    fn window_works_from_a_large_first_id() {
        for high in [0u64, 1, 3, 255] {
            let base = high << 56;
            let mut t: PendingTable<u64> = PendingTable::new();
            for i in 1..=64 {
                t.insert(ReqId(base | i), i);
            }
            // Ids below the window are simply unknown, not a
            // corruption: lookups return None.
            if high > 0 {
                assert_eq!(t.remove(ReqId(7)), None);
                assert_eq!(t.get(ReqId(7)), None);
            }
            for i in 1..=63 {
                assert_eq!(t.remove(ReqId(base | i)), Some(i));
            }
            assert_eq!(t.len(), 1);
            assert!(t.slots.len() <= 1, "window failed to slide at base {base}");
            assert_eq!(t.iter().next(), Some((ReqId(base | 64), &64)));
            assert_eq!(t.remove(ReqId(base | 64)), Some(64));
            assert!(t.is_empty());
        }
    }

    /// Differential check against a `HashMap` model under the engine's
    /// access pattern: monotonic id minting, a bounded in-flight window,
    /// random completion order within it.
    #[test]
    fn matches_hash_map_model_under_random_traffic() {
        let mut rng = Rng64::seed_from_u64(0xbeef);
        for _ in 0..32 {
            let mut t: PendingTable<u64> = PendingTable::new();
            let mut model: HashMap<u64, u64> = HashMap::new();
            let mut next_id = 0u64;
            for _ in 0..rng.gen_usize(50, 500) {
                let insert = model.len() < 64 && (model.is_empty() || rng.gen_bool());
                if insert {
                    next_id += 1 + rng.gen_u64(0, 3); // hits skip ids
                    t.insert(ReqId(next_id), next_id * 7);
                    model.insert(next_id, next_id * 7);
                } else {
                    let keys: Vec<u64> = {
                        let mut k: Vec<u64> = model.keys().copied().collect();
                        k.sort_unstable();
                        k
                    };
                    let pick = keys[rng.gen_usize(0, keys.len())];
                    assert_eq!(t.remove(ReqId(pick)), model.remove(&pick));
                }
                assert_eq!(t.len(), model.len());
            }
            let mut left: Vec<(u64, u64)> = t.iter().map(|(r, &v)| (r.0, v)).collect();
            let mut want: Vec<(u64, u64)> = model.into_iter().collect();
            left.sort_unstable();
            want.sort_unstable();
            assert_eq!(left, want);
        }
    }
}
