//! The engine- and protocol-facing lens collector: shared state behind
//! a cheap-to-clone handle.
//!
//! [`LensHandle`] mirrors `gsim-flow`'s `FlowHandle`: an
//! `Option<Rc<RefCell<LensCollector>>>`. The engine holds one handle
//! and every L1/L2 controller holds a clone, so acquire sweeps, fills,
//! registrations, and evictions all reach the same collector. A
//! disabled handle is `None` and every hook is one branch.
//!
//! The collector is observation-only by construction: no method
//! schedules an event, touches protocol or cache state, or returns
//! anything the engine acts on (other than [`LensHandle::is_enabled`],
//! constant for a run).
//!
//! # The refetch watch
//!
//! The waste measurement works by *watching* every word an acquire
//! sweep dropped while it was still valid. A subsequent local store to
//! a watched word retires it as `words_overwritten` (the data was dead
//! anyway — the invalidation cost nothing). A subsequent fill that
//! re-installs a watched word retires it as `words_refetched`: the
//! protocol paid flits and a round-trip to re-obtain data it already
//! had, which is the paper's "GPU coherence throws away reuse at
//! synchronization" mechanism, observed per word.

use crate::report::{
    reuse_bucket, AcquireEvent, AcquireLedger, LensReport, LineRow, REUSE_BUCKETS,
};
use crate::spec::LensSpec;
use gsim_types::{Cycle, FxHashMap, LineAddr, ReqId, WordAddr, WordMask};
use std::cell::RefCell;
use std::rc::Rc;

/// Per-line table capacity: lifecycle updates to further distinct lines
/// are counted as dropped rather than tracked (ledger and global
/// counters stay exact — only the per-line view truncates). Paper-scale
/// footprints stay far under this.
pub const MAX_TRACKED_LINES: usize = 65536;

/// Acquire-event series capacity (the Perfetto counter track). Ledger
/// totals keep counting past it.
pub const MAX_EVENTS: usize = 16384;

/// Words carried per 16-byte payload flit (the `Msg::flits` convention:
/// one header flit plus `ceil(words / 4)` payload flits).
const WORDS_PER_FLIT: u64 = 4;

/// The collection state of one lens-observed run.
#[derive(Clone, Debug)]
pub struct LensCollector {
    spec: LensSpec,
    nodes: usize,
    /// Per-node acquire cost ledgers, indexed by node.
    ledger: Vec<AcquireLedger>,
    /// Per-node global-acquire epoch (reuse distances are measured in
    /// these).
    epoch: Vec<u64>,
    /// Per-node index into `events` of the acquire currently sweeping,
    /// so `invalidated` can attribute drops to it.
    open_event: Vec<Option<usize>>,
    events: Vec<AcquireEvent>,
    dropped_events: u64,
    /// `(node, line)` -> mask of words dropped-while-valid and not yet
    /// overwritten or re-fetched.
    watch: FxHashMap<(usize, u64), u16>,
    /// Requests that missed on a watched word -> the missing node.
    stall_reqs: FxHashMap<u64, usize>,
    /// Per-line lifecycle accumulators.
    lines: FxHashMap<u64, LineRow>,
    dropped_lines: u64,
    /// `(node, line)` -> epoch of the previous access (reuse distance).
    last_epoch: FxHashMap<(usize, u64), u64>,
    reuse_hits: [u64; REUSE_BUCKETS],
    reuse_misses: [u64; REUSE_BUCKETS],
    ownership_wb_words: u64,
    steal_words: u64,
    l2_reg_words: u64,
    l2_transfer_words: u64,
}

impl LensCollector {
    fn new(spec: LensSpec, nodes: usize) -> Self {
        LensCollector {
            spec,
            nodes,
            ledger: (0..nodes)
                .map(|n| AcquireLedger {
                    node: n as u32,
                    ..AcquireLedger::default()
                })
                .collect(),
            epoch: vec![0; nodes],
            open_event: vec![None; nodes],
            events: Vec::new(),
            dropped_events: 0,
            watch: FxHashMap::default(),
            stall_reqs: FxHashMap::default(),
            lines: FxHashMap::default(),
            dropped_lines: 0,
            last_epoch: FxHashMap::default(),
            reuse_hits: [0; REUSE_BUCKETS],
            reuse_misses: [0; REUSE_BUCKETS],
            ownership_wb_words: 0,
            steal_words: 0,
            l2_reg_words: 0,
            l2_transfer_words: 0,
        }
    }

    /// The per-line accumulator of `line`, or `None` (counted as a
    /// dropped update) once the table is full.
    fn line_row(&mut self, line: u64) -> Option<&mut LineRow> {
        if !self.lines.contains_key(&line) {
            if self.lines.len() >= MAX_TRACKED_LINES {
                self.dropped_lines += 1;
                return None;
            }
            self.lines.insert(
                line,
                LineRow {
                    line,
                    ..LineRow::default()
                },
            );
        }
        self.lines.get_mut(&line)
    }
}

/// A shared, cheaply clonable reference to a [`LensCollector`] — or
/// nothing.
#[derive(Clone, Debug, Default)]
pub struct LensHandle {
    inner: Option<Rc<RefCell<LensCollector>>>,
}

impl LensHandle {
    /// A disabled handle: every hook is a no-op.
    pub fn disabled() -> Self {
        LensHandle { inner: None }
    }

    /// A handle collecting under `spec` on a `nodes`-node fabric.
    pub fn new(spec: LensSpec, nodes: usize) -> Self {
        LensHandle {
            inner: Some(Rc::new(RefCell::new(LensCollector::new(spec, nodes)))),
        }
    }

    /// Another handle to the same collector (what the L1/L2 `set_lens`
    /// methods clone).
    pub fn share(&self) -> LensHandle {
        LensHandle {
            inner: self.inner.clone(),
        }
    }

    /// Whether lens collection is active.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    // ---- acquire boundary (engine hook) ----

    /// A global acquire is about to sweep node `node`'s L1 at `now`.
    /// Bumps the node's acquire epoch and opens an [`AcquireEvent`]
    /// that the sweep's [`invalidated`](Self::invalidated) calls
    /// attribute their drops to.
    #[inline]
    pub fn sync_boundary(&self, node: usize, now: Cycle) {
        if let Some(c) = &self.inner {
            let mut c = c.borrow_mut();
            c.epoch[node] += 1;
            c.ledger[node].acquires += 1;
            if c.events.len() < MAX_EVENTS {
                let idx = c.events.len();
                c.events.push(AcquireEvent {
                    cycle: now,
                    node: node as u32,
                    words_dropped: 0,
                });
                c.open_event[node] = Some(idx);
            } else {
                c.dropped_events += 1;
                c.open_event[node] = None;
            }
        }
    }

    // ---- acquire sweep (L1 hooks) ----

    /// Node `node`'s acquire flash-invalidated its whole cache (GPU
    /// coherence; called once per global acquire, beside the
    /// `Counts::flash_invalidations` bump it reconciles against).
    #[inline]
    pub fn flash(&self, node: usize) {
        if let Some(c) = &self.inner {
            c.borrow_mut().ledger[node].flash_acquires += 1;
        }
    }

    /// The acquire sweep on node `node` dropped `dropped` still-valid
    /// words of `line`. Called beside the `Counts::words_invalidated`
    /// bump; arms the refetch watch for every dropped word.
    #[inline]
    pub fn invalidated(&self, node: usize, line: LineAddr, dropped: WordMask) {
        if dropped.is_empty() {
            return;
        }
        if let Some(c) = &self.inner {
            let mut c = c.borrow_mut();
            let n = dropped.count() as u64;
            c.ledger[node].words_dropped += n;
            if let Some(idx) = c.open_event[node] {
                c.events[idx].words_dropped += n;
            }
            *c.watch.entry((node, line.0)).or_insert(0) |= dropped.0;
            if let Some(row) = c.line_row(line.0) {
                row.inv_words += n;
            }
        }
    }

    // ---- demand stream (L1 hooks) ----

    /// An L1 load on node `node` touched `line` (`hit` says whether it
    /// hit). Feeds the cross-sync reuse histograms: the distance is the
    /// number of acquire epochs since the node's previous access to the
    /// line (first touches only start the clock).
    #[inline]
    pub fn access(&self, node: usize, line: LineAddr, hit: bool) {
        if let Some(c) = &self.inner {
            let mut c = c.borrow_mut();
            let e = c.epoch[node];
            if let Some(prev) = c.last_epoch.insert((node, line.0), e) {
                let bucket = reuse_bucket(e - prev);
                if hit {
                    c.reuse_hits[bucket] += 1;
                } else {
                    c.reuse_misses[bucket] += 1;
                }
                let cross = e != prev;
                if let Some(row) = c.line_row(line.0) {
                    row.reuse[bucket] += 1;
                    match (hit, cross) {
                        (true, false) => row.hits_same += 1,
                        (true, true) => row.hits_cross += 1,
                        (false, false) => row.miss_same += 1,
                        (false, true) => row.miss_cross += 1,
                    }
                }
            }
        }
    }

    /// An L1 load miss on node `node` needs `word`, fetched under
    /// request `req`. If the word is on the refetch watch, the miss
    /// (and, via [`load_done`](Self::load_done), its load-to-use
    /// latency) is charged to the invalidation that dropped it.
    #[inline]
    pub fn load_miss(&self, node: usize, word: WordAddr, req: ReqId) {
        if let Some(c) = &self.inner {
            let mut c = c.borrow_mut();
            let watched = c
                .watch
                .get(&(node, word.line().0))
                .is_some_and(|m| m & (1 << word.index_in_line()) != 0);
            if watched {
                c.ledger[node].refetch_misses += 1;
                c.stall_reqs.insert(req.0, node);
            }
        }
    }

    /// Request `req` completed after `latency` load-to-use cycles
    /// (engine hook). Charges the latency to the drop that caused the
    /// miss, if [`load_miss`](Self::load_miss) marked it.
    #[inline]
    pub fn load_done(&self, req: ReqId, latency: Cycle) {
        if let Some(c) = &self.inner {
            let mut c = c.borrow_mut();
            if let Some(node) = c.stall_reqs.remove(&req.0) {
                c.ledger[node].stall_cycles += latency;
            }
        }
    }

    /// A local store on node `node` wrote `word`: a watched word dies
    /// overwritten — invalidated, but not wasted.
    #[inline]
    pub fn store(&self, node: usize, word: WordAddr) {
        if let Some(c) = &self.inner {
            let mut c = c.borrow_mut();
            if let Some(m) = c.watch.get_mut(&(node, word.line().0)) {
                let bit = 1u16 << word.index_in_line();
                if *m & bit != 0 {
                    *m &= !bit;
                    if *m == 0 {
                        c.watch.remove(&(node, word.line().0));
                    }
                    c.ledger[node].words_overwritten += 1;
                }
            }
        }
    }

    /// A fill installed `installed` words of `line` on node `node`
    /// (`owned` distinguishes registration grants from read fills).
    /// Watched words among them retire as re-fetched: the provable
    /// waste, priced in payload flits.
    #[inline]
    pub fn filled(&self, node: usize, line: LineAddr, installed: WordMask, owned: bool) {
        if installed.is_empty() {
            return;
        }
        if let Some(c) = &self.inner {
            let mut c = c.borrow_mut();
            if let Some(&m) = c.watch.get(&(node, line.0)) {
                let wasted = (m & installed.0).count_ones() as u64;
                if wasted > 0 {
                    c.ledger[node].words_refetched += wasted;
                    c.ledger[node].refetch_flits += wasted.div_ceil(WORDS_PER_FLIT);
                    let left = m & !installed.0;
                    if left == 0 {
                        c.watch.remove(&(node, line.0));
                    } else {
                        c.watch.insert((node, line.0), left);
                    }
                    if let Some(row) = c.line_row(line.0) {
                        row.refetch_words += wasted;
                    }
                }
            }
            let n = installed.count() as u64;
            if let Some(row) = c.line_row(line.0) {
                if owned {
                    row.owned_installs += n;
                } else {
                    row.valid_installs += n;
                }
            }
        }
    }

    // ---- ownership lifecycle (DeNovo hooks) ----

    /// Node `node` evicted `line` with `words` owned words, writing
    /// them back (called beside the `Counts::ownership_writebacks`
    /// bump it reconciles against).
    #[inline]
    pub fn ownership_writeback(&self, node: usize, line: LineAddr, words: u32) {
        let _ = node;
        if let Some(c) = &self.inner {
            let mut c = c.borrow_mut();
            c.ownership_wb_words += words as u64;
            if let Some(row) = c.line_row(line.0) {
                row.wb_words += words as u64;
            }
        }
    }

    /// A forwarded registration stole `words` owned words of `line`
    /// from node `node` (ownership moved L1-to-L1).
    #[inline]
    pub fn ownership_stolen(&self, node: usize, line: LineAddr, words: u32) {
        let _ = node;
        if let Some(c) = &self.inner {
            let mut c = c.borrow_mut();
            c.steal_words += words as u64;
            if let Some(row) = c.line_row(line.0) {
                row.steals += words as u64;
            }
        }
    }

    /// The L2 registry granted `words` words of `line` to a new owner
    /// immediately (no previous owner).
    #[inline]
    pub fn l2_register(&self, line: LineAddr, words: u32) {
        if let Some(c) = &self.inner {
            let mut c = c.borrow_mut();
            c.l2_reg_words += words as u64;
            if let Some(row) = c.line_row(line.0) {
                row.l2_reg_words += words as u64;
            }
        }
    }

    /// The L2 registry moved `words` words of `line` from one owner to
    /// another (registration churn).
    #[inline]
    pub fn l2_transfer(&self, line: LineAddr, words: u32) {
        if let Some(c) = &self.inner {
            let mut c = c.borrow_mut();
            c.l2_transfer_words += words as u64;
            if let Some(row) = c.line_row(line.0) {
                row.l2_transfer_words += words as u64;
            }
        }
    }

    // ---- report ----

    /// Assembles the report at end-of-run cycle `end`, draining the
    /// collector. The per-line table keeps the spec's top-k hottest
    /// lines (activity descending, line ascending); `None` when
    /// disabled.
    pub fn take_report(&self, end: Cycle) -> Option<LensReport> {
        let c = self.inner.as_ref()?;
        let mut c = c.borrow_mut();
        let mut lines: Vec<LineRow> = std::mem::take(&mut c.lines).into_values().collect();
        lines.sort_by(|a, b| b.activity().cmp(&a.activity()).then(a.line.cmp(&b.line)));
        lines.truncate(c.spec.topk);
        Some(LensReport {
            cycles: end,
            nodes: c.nodes,
            topk: c.spec.topk,
            ledger: std::mem::take(&mut c.ledger),
            lines,
            dropped_lines: c.dropped_lines,
            ownership_wb_words: c.ownership_wb_words,
            steal_words: c.steal_words,
            l2_reg_words: c.l2_reg_words,
            l2_transfer_words: c.l2_transfer_words,
            reuse_hits: c.reuse_hits,
            reuse_misses: c.reuse_misses,
            events: std::mem::take(&mut c.events),
            dropped_events: c.dropped_events,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let h = LensHandle::disabled();
        assert!(!h.is_enabled());
        h.sync_boundary(0, 10);
        h.flash(0);
        h.invalidated(0, LineAddr(1), WordMask::full());
        h.access(0, LineAddr(1), true);
        h.load_miss(0, LineAddr(1).word(0), ReqId(1));
        h.load_done(ReqId(1), 40);
        h.store(0, LineAddr(1).word(0));
        h.filled(0, LineAddr(1), WordMask::full(), false);
        h.ownership_writeback(0, LineAddr(1), 4);
        h.l2_register(LineAddr(1), 4);
        assert!(h.take_report(100).is_none());
    }

    #[test]
    fn shared_handles_reach_one_collector() {
        let h = LensHandle::new(LensSpec::default(), 16);
        let clone = h.share();
        h.sync_boundary(3, 50);
        clone.flash(3);
        clone.invalidated(3, LineAddr(7), WordMask::single(0) | WordMask::single(1));
        let r = h.take_report(100).unwrap();
        assert_eq!(r.ledger[3].acquires, 1);
        assert_eq!(r.ledger[3].flash_acquires, 1);
        assert_eq!(r.ledger[3].words_dropped, 2);
        assert_eq!(
            r.events,
            vec![AcquireEvent {
                cycle: 50,
                node: 3,
                words_dropped: 2
            }]
        );
    }

    #[test]
    fn refetch_watch_counts_waste_and_overwrites() {
        let h = LensHandle::new(LensSpec::default(), 16);
        let line = LineAddr(7);
        h.sync_boundary(0, 10);
        // Drop words 0..=4 while valid; word 0 is overwritten locally,
        // words 1..=4 come back in a full-line fill: 4 wasted words = 1
        // payload flit.
        let dropped: WordMask = (0..5).collect();
        h.invalidated(0, line, dropped);
        h.store(0, line.word(0));
        h.load_miss(0, line.word(1), ReqId(9));
        h.filled(0, line, WordMask::full(), false);
        h.load_done(ReqId(9), 40);
        // A second fill finds nothing watched.
        h.filled(0, line, WordMask::full(), false);
        let r = h.take_report(100).unwrap();
        let l = &r.ledger[0];
        assert_eq!(l.words_dropped, 5);
        assert_eq!(l.words_overwritten, 1);
        assert_eq!(l.words_refetched, 4);
        assert_eq!(l.refetch_flits, 1);
        assert_eq!(l.refetch_misses, 1);
        assert_eq!(l.stall_cycles, 40);
        let row = &r.lines[0];
        assert_eq!(row.line, 7);
        assert_eq!(row.inv_words, 5);
        assert_eq!(row.refetch_words, 4);
        assert_eq!(row.valid_installs, 32);
        let counts = gsim_types::Counts {
            words_invalidated: 5,
            ..gsim_types::Counts::default()
        };
        r.reconcile(&counts).unwrap();
    }

    #[test]
    fn unwatched_misses_do_not_charge_stalls() {
        let h = LensHandle::new(LensSpec::default(), 16);
        h.load_miss(0, LineAddr(7).word(1), ReqId(5));
        h.load_done(ReqId(5), 100);
        h.load_done(ReqId(6), 100); // never missed at all
        let r = h.take_report(50).unwrap();
        assert_eq!(r.ledger[0].refetch_misses, 0);
        assert_eq!(r.ledger[0].stall_cycles, 0);
    }

    #[test]
    fn reuse_distances_cross_acquire_epochs() {
        let h = LensHandle::new(LensSpec::default(), 16);
        let line = LineAddr(3);
        h.access(0, line, false); // first touch: starts the clock only
        h.access(0, line, true); // distance 0, hit
        h.sync_boundary(0, 10);
        h.access(0, line, false); // distance 1, miss (GPU-style)
        h.sync_boundary(0, 20);
        h.sync_boundary(0, 30);
        h.access(0, line, true); // distance 2, hit (DeNovo-style)
                                 // Another node's epoch is independent.
        h.access(1, line, false);
        h.access(1, line, true); // distance 0 on node 1
        let r = h.take_report(100).unwrap();
        assert_eq!(r.reuse_hits, [2, 0, 1, 0, 0]);
        assert_eq!(r.reuse_misses, [0, 1, 0, 0, 0]);
        let row = &r.lines[0];
        assert_eq!(row.hits_same, 2);
        assert_eq!(row.hits_cross, 1);
        assert_eq!(row.miss_cross, 1);
        assert_eq!(row.reuse, [2, 1, 1, 0, 0]);
    }

    #[test]
    fn ownership_lifecycle_accumulates_globally_and_per_line() {
        let h = LensHandle::new(LensSpec::default(), 16);
        h.l2_register(LineAddr(1), 4);
        h.l2_transfer(LineAddr(1), 3);
        h.ownership_stolen(2, LineAddr(1), 2);
        h.ownership_writeback(2, LineAddr(1), 6);
        h.filled(2, LineAddr(1), WordMask::single(0), true);
        let r = h.take_report(100).unwrap();
        assert_eq!(r.l2_reg_words, 4);
        assert_eq!(r.l2_transfer_words, 3);
        assert_eq!(r.steal_words, 2);
        assert_eq!(r.ownership_wb_words, 6);
        let row = &r.lines[0];
        assert_eq!(row.l2_reg_words, 4);
        assert_eq!(row.l2_transfer_words, 3);
        assert_eq!(row.steals, 2);
        assert_eq!(row.wb_words, 6);
        assert_eq!(row.owned_installs, 1);
    }

    #[test]
    fn line_table_ranks_by_activity_and_truncates_to_topk() {
        let spec = LensSpec { topk: 2 };
        let h = LensHandle::new(spec, 16);
        h.sync_boundary(0, 1);
        h.invalidated(0, LineAddr(10), WordMask::single(0));
        h.invalidated(0, LineAddr(11), WordMask::full());
        h.invalidated(0, LineAddr(12), (0..3).collect());
        let r = h.take_report(100).unwrap();
        assert_eq!(r.lines.len(), 2);
        assert_eq!(r.lines[0].line, 11, "hottest first");
        assert_eq!(r.lines[1].line, 12);
        assert_eq!(r.topk, 2);
    }
}
