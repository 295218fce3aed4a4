//! The lens collector: a [`TraceSink`] consumer following each line's
//! coherence lifecycle.
//!
//! The engine installs one [`LensCollector`] on the run's trace handle
//! and keeps an `Rc` to it to take the report; acquire sweeps, fills,
//! registrations and evictions in every L1 and the L2 registry reach it
//! through hooks of that handle. It only observes: no hook schedules an
//! event, touches protocol or cache state, or returns anything the
//! engine acts on.
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
use gsim_trace::{TraceEvent, TraceSink};
use gsim_types::{Cycle, FxHashMap, LineAddr, NodeId, ReqId, WordAddr, WordMask};

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
    /// A collector for `spec` on a `nodes`-node fabric.
    pub fn new(spec: LensSpec, nodes: usize) -> Self {
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

    /// Assembles the report at end-of-run cycle `end`, draining the
    /// collector. The per-line table keeps the spec's top-k hottest
    /// lines (activity descending, line ascending).
    pub fn take_report(&mut self, end: Cycle) -> LensReport {
        let mut lines: Vec<LineRow> = std::mem::take(&mut self.lines).into_values().collect();
        lines.sort_by(|a, b| b.activity().cmp(&a.activity()).then(a.line.cmp(&b.line)));
        lines.truncate(self.spec.topk);
        LensReport {
            cycles: end,
            nodes: self.nodes,
            topk: self.spec.topk,
            ledger: std::mem::take(&mut self.ledger),
            lines,
            dropped_lines: self.dropped_lines,
            ownership_wb_words: self.ownership_wb_words,
            steal_words: self.steal_words,
            l2_reg_words: self.l2_reg_words,
            l2_transfer_words: self.l2_transfer_words,
            reuse_hits: self.reuse_hits,
            reuse_misses: self.reuse_misses,
            events: std::mem::take(&mut self.events),
            dropped_events: self.dropped_events,
        }
    }
}

impl TraceSink for LensCollector {
    fn record(&mut self, _: Cycle, _: &TraceEvent) {}

    // ---- acquire boundary (engine hook) ----

    /// A global acquire is about to sweep node `node`'s L1 at `now`.
    /// Bumps the node's acquire epoch and opens an [`AcquireEvent`]
    /// that the sweep's [`invalidated`](Self::invalidated) calls
    /// attribute their drops to.
    fn global_acquire(&mut self, node: NodeId, now: Cycle) {
        let node = node.index();
        self.epoch[node] += 1;
        self.ledger[node].acquires += 1;
        if self.events.len() < MAX_EVENTS {
            let idx = self.events.len();
            self.events.push(AcquireEvent {
                cycle: now,
                node: node as u32,
                words_dropped: 0,
            });
            self.open_event[node] = Some(idx);
        } else {
            self.dropped_events += 1;
            self.open_event[node] = None;
        }
    }

    // ---- acquire sweep (L1 hooks) ----

    /// Node `node`'s acquire flash-invalidated its whole cache (GPU
    /// coherence; called once per global acquire, beside the
    /// `Counts::flash_invalidations` bump it reconciles against).
    fn flash(&mut self, node: NodeId) {
        self.ledger[node.index()].flash_acquires += 1;
    }

    /// The acquire sweep on node `node` dropped `dropped` still-valid
    /// words of `line`. Called beside the `Counts::words_invalidated`
    /// bump; arms the refetch watch for every dropped word.
    fn invalidated(&mut self, node: NodeId, line: LineAddr, dropped: WordMask) {
        if dropped.is_empty() {
            return;
        }
        let node = node.index();
        let n = dropped.count() as u64;
        self.ledger[node].words_dropped += n;
        if let Some(idx) = self.open_event[node] {
            self.events[idx].words_dropped += n;
        }
        *self.watch.entry((node, line.0)).or_insert(0) |= dropped.0;
        if let Some(row) = self.line_row(line.0) {
            row.inv_words += n;
        }
    }

    // ---- demand stream (L1 hooks) ----

    /// An L1 load on node `node` touched `line` (`hit` says whether it
    /// hit). Feeds the cross-sync reuse histograms: the distance is the
    /// number of acquire epochs since the node's previous access to the
    /// line (first touches only start the clock).
    fn l1_access(&mut self, node: NodeId, line: LineAddr, hit: bool) {
        let node = node.index();
        let e = self.epoch[node];
        if let Some(prev) = self.last_epoch.insert((node, line.0), e) {
            let bucket = reuse_bucket(e - prev);
            if hit {
                self.reuse_hits[bucket] += 1;
            } else {
                self.reuse_misses[bucket] += 1;
            }
            let cross = e != prev;
            if let Some(row) = self.line_row(line.0) {
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

    /// An L1 load miss on node `node` needs `word`, fetched under
    /// request `req`. If the word is on the refetch watch, the miss
    /// (and, via [`request_done`](Self::request_done), its load-to-use
    /// latency) is charged to the invalidation that dropped it.
    fn l1_miss(&mut self, node: NodeId, word: WordAddr, req: ReqId) {
        let node = node.index();
        let watched = self
            .watch
            .get(&(node, word.line().0))
            .is_some_and(|m| m & (1 << word.index_in_line()) != 0);
        if watched {
            self.ledger[node].refetch_misses += 1;
            self.stall_reqs.insert(req.0, node);
        }
    }

    /// Request `req` completed: a load's load-to-use latency is charged
    /// to the drop that caused its miss, if
    /// [`l1_miss`](Self::l1_miss) marked it.
    fn request_done(&mut self, req: ReqId, issued: Cycle, now: Cycle) {
        if let Some(node) = self.stall_reqs.remove(&req.0) {
            self.ledger[node].stall_cycles += now - issued;
        }
    }

    /// A local write (store or atomic) on node `node` wrote `word`: a watched word dies
    /// overwritten — invalidated, but not wasted.
    fn l1_write(&mut self, node: NodeId, word: WordAddr, _: bool) {
        let node = node.index();
        if let Some(m) = self.watch.get_mut(&(node, word.line().0)) {
            let bit = 1u16 << word.index_in_line();
            if *m & bit != 0 {
                *m &= !bit;
                if *m == 0 {
                    self.watch.remove(&(node, word.line().0));
                }
                self.ledger[node].words_overwritten += 1;
            }
        }
    }

    /// A fill installed `installed` words of `line` on node `node`
    /// (`owned` distinguishes registration grants from read fills).
    /// Watched words among them retire as re-fetched: the provable
    /// waste, priced in payload flits.
    fn filled(&mut self, node: NodeId, line: LineAddr, installed: WordMask, owned: bool) {
        if installed.is_empty() {
            return;
        }
        let node = node.index();
        if let Some(&m) = self.watch.get(&(node, line.0)) {
            let wasted = (m & installed.0).count_ones() as u64;
            if wasted > 0 {
                self.ledger[node].words_refetched += wasted;
                self.ledger[node].refetch_flits += wasted.div_ceil(WORDS_PER_FLIT);
                let left = m & !installed.0;
                if left == 0 {
                    self.watch.remove(&(node, line.0));
                } else {
                    self.watch.insert((node, line.0), left);
                }
                if let Some(row) = self.line_row(line.0) {
                    row.refetch_words += wasted;
                }
            }
        }
        let n = installed.count() as u64;
        if let Some(row) = self.line_row(line.0) {
            if owned {
                row.owned_installs += n;
            } else {
                row.valid_installs += n;
            }
        }
    }

    // ---- ownership lifecycle (DeNovo hooks) ----

    /// Node `node` evicted `line` with `words` owned words, writing
    /// them back (called beside the `Counts::ownership_writebacks`
    /// bump it reconciles against).
    fn ownership_writeback(&mut self, _: NodeId, line: LineAddr, words: u32) {
        self.ownership_wb_words += words as u64;
        if let Some(row) = self.line_row(line.0) {
            row.wb_words += words as u64;
        }
    }

    /// A forwarded registration stole `words` owned words of `line`
    /// from node `node` (ownership moved L1-to-L1).
    fn ownership_stolen(&mut self, _: NodeId, line: LineAddr, words: u32) {
        self.steal_words += words as u64;
        if let Some(row) = self.line_row(line.0) {
            row.steals += words as u64;
        }
    }

    /// The registry granted `words` free words of `line` at once; words
    /// it moves from a previous owner arrive at
    /// [`l2_transfer`](Self::l2_transfer) instead.
    fn l2_register(&mut self, line: LineAddr, words: u32) {
        self.l2_reg_words += words as u64;
        if let Some(row) = self.line_row(line.0) {
            row.l2_reg_words += words as u64;
        }
    }

    /// The L2 registry moved `words` words of `line` from one owner to
    /// another (registration churn).
    fn l2_transfer(&mut self, line: LineAddr, words: u32) {
        self.l2_transfer_words += words as u64;
        if let Some(row) = self.line_row(line.0) {
            row.l2_transfer_words += words as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsim_trace::TraceHandle;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn hooks_through_a_shared_handle_reach_one_collector() {
        let c = Rc::new(RefCell::new(LensCollector::new(LensSpec::default(), 16)));
        let h = TraceHandle::disabled().with_consumers([c.clone() as Rc<RefCell<dyn TraceSink>>]);
        let clone = h.share();
        h.global_acquire(NodeId(3), 50);
        clone.flash(NodeId(3));
        clone.invalidated(
            NodeId(3),
            LineAddr(7),
            WordMask::single(0) | WordMask::single(1),
        );
        let r = c.borrow_mut().take_report(100);
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
        let mut h = LensCollector::new(LensSpec::default(), 16);
        let line = LineAddr(7);
        h.global_acquire(NodeId(0), 10);
        // Drop words 0..=4 while valid; word 0 is overwritten locally,
        // words 1..=4 come back in a full-line fill: 4 wasted words = 1
        // payload flit.
        let dropped: WordMask = (0..5).collect();
        h.invalidated(NodeId(0), line, dropped);
        h.l1_write(NodeId(0), line.word(0), false);
        h.l1_miss(NodeId(0), line.word(1), ReqId(9));
        h.filled(NodeId(0), line, WordMask::full(), false);
        h.request_done(ReqId(9), 0, 40);
        // A second fill finds nothing watched.
        h.filled(NodeId(0), line, WordMask::full(), false);
        let r = h.take_report(100);
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
        let mut h = LensCollector::new(LensSpec::default(), 16);
        h.l1_miss(NodeId(0), LineAddr(7).word(1), ReqId(5));
        h.request_done(ReqId(5), 0, 100);
        h.request_done(ReqId(6), 0, 100); // never missed at all
        let r = h.take_report(50);
        assert_eq!(r.ledger[0].refetch_misses, 0);
        assert_eq!(r.ledger[0].stall_cycles, 0);
    }

    #[test]
    fn reuse_distances_cross_acquire_epochs() {
        let mut h = LensCollector::new(LensSpec::default(), 16);
        let line = LineAddr(3);
        h.l1_access(NodeId(0), line, false); // first touch: starts the clock only
        h.l1_access(NodeId(0), line, true); // distance 0, hit
        h.global_acquire(NodeId(0), 10);
        h.l1_access(NodeId(0), line, false); // distance 1, miss (GPU-style)
        h.global_acquire(NodeId(0), 20);
        h.global_acquire(NodeId(0), 30);
        h.l1_access(NodeId(0), line, true); // distance 2, hit (DeNovo-style)
                                            // Another node's epoch is independent.
        h.l1_access(NodeId(1), line, false);
        h.l1_access(NodeId(1), line, true); // distance 0 on node 1
        let r = h.take_report(100);
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
        let mut h = LensCollector::new(LensSpec::default(), 16);
        h.l2_register(LineAddr(1), 4);
        h.l2_transfer(LineAddr(1), 3);
        h.ownership_stolen(NodeId(2), LineAddr(1), 2);
        h.ownership_writeback(NodeId(2), LineAddr(1), 6);
        h.filled(NodeId(2), LineAddr(1), WordMask::single(0), true);
        let r = h.take_report(100);
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
        let mut h = LensCollector::new(spec, 16);
        h.global_acquire(NodeId(0), 1);
        h.invalidated(NodeId(0), LineAddr(10), WordMask::single(0));
        h.invalidated(NodeId(0), LineAddr(11), WordMask::full());
        h.invalidated(NodeId(0), LineAddr(12), (0..3).collect());
        let r = h.take_report(100);
        assert_eq!(r.lines.len(), 2);
        assert_eq!(r.lines[0].line, 11, "hottest first");
        assert_eq!(r.lines[1].line, 12);
        assert_eq!(r.topk, 2);
    }
}
