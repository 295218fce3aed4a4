//! Vector-clock happens-before race detection over the kernel IR
//! access stream.
//!
//! # Model
//!
//! Every thread block of every kernel launch is a *thread* with a
//! globally unique id and a vector clock. Plain loads and stores are
//! *data* accesses; atomics are *sync* accesses. Sync accesses to the
//! same word under the same [`SyncKey`] establish happens-before edges
//! per the DRF/HRF rules:
//!
//! * a **release** joins the releasing thread's clock *into* the sync
//!   variable's clock, then ticks the thread;
//! * an **acquire** joins the sync variable's clock into the acquiring
//!   thread's clock;
//! * a **kernel boundary** joins every thread's clock into a boundary
//!   clock that seeds all threads of the next launch (kernel launches
//!   are implicit global release/acquire pairs, paper §2).
//!
//! Under HRF (scoped) configurations a locally scoped sync access keys
//! the sync variable per CU ([`SyncKey::Local`]): two thread blocks on
//! *different* CUs synchronizing through "local" operations share no
//! sync clock, so their data accesses are correctly reported racy —
//! exactly the HRF pitfall the paper argues against.
//!
//! # Conflict rules
//!
//! Two accesses to the same word conflict when at least one writes and
//! they are not both sync accesses (sync accesses *are* the
//! synchronization — contended atomics are never races). A conflicting
//! pair unordered by happens-before is reported as a race, once per
//! word.
//!
//! # Soundness of the event placement
//!
//! The engine reports release-joins at the *issue* of the sync access
//! and acquire-joins at its *completion*. In simulated time a release
//! issues before it performs at the shared point, and an acquire
//! performs before it completes; any acquire that reads a release's
//! value therefore completes strictly after that release issued, so
//! every true synchronization edge is processed in order and a
//! data-race-free execution reports zero races. The approximations all
//! point the same way — joining (rather than copying) on release, and
//! an acquire observing joins from releases it did not read — each only
//! *adds* happens-before edges, which can hide an exotic race but can
//! never flag a synchronized pair. A checker that must stay silent on
//! the paper's DRF workloads wants exactly this bias.

use crate::{CheckKind, Violation};
use gsim_types::{FxHashMap, FxHashSet, NodeId, ReqId, SyncOrd, WordAddr};

/// A growable vector clock indexed by global thread id.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VecClock(Vec<u64>);

impl VecClock {
    /// The component for thread `t` (0 when never set).
    #[inline]
    pub fn get(&self, t: usize) -> u64 {
        self.0.get(t).copied().unwrap_or(0)
    }

    /// Sets the component for thread `t`.
    pub fn set(&mut self, t: usize, v: u64) {
        if self.0.len() <= t {
            self.0.resize(t + 1, 0);
        }
        self.0[t] = v;
    }

    /// Pointwise maximum with `other`.
    pub fn join(&mut self, other: &VecClock) {
        if self.0.len() < other.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        for (a, b) in self.0.iter_mut().zip(other.0.iter()) {
            *a = (*a).max(*b);
        }
    }

    /// Increments thread `t`'s own component.
    pub fn tick(&mut self, t: usize) {
        let v = self.get(t);
        self.set(t, v + 1);
    }
}

/// Which sync clock a scoped atomic uses.
///
/// DRF configurations (and globally scoped HRF atomics) synchronize
/// through the global key; an HRF atomic whose scope is honoured as
/// local only synchronizes threads on the same CU.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SyncKey {
    /// Device-wide synchronization.
    Global,
    /// CU-local synchronization (GPU-H / DeNovo-H honouring `Scope::Local`).
    Local(NodeId),
}

/// One recorded access: who, at what clock value.
#[derive(Clone, Copy, Debug)]
struct Epoch {
    tid: u32,
    at: u64,
}

/// What kind of access an epoch describes, for reporting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum AccessKind {
    DataRead,
    DataWrite,
    SyncRead,
    SyncWrite,
}

impl AccessKind {
    fn label(self) -> &'static str {
        match self {
            AccessKind::DataRead => "read",
            AccessKind::DataWrite => "write",
            AccessKind::SyncRead => "sync-read",
            AccessKind::SyncWrite => "sync-write",
        }
    }

    fn is_sync(self) -> bool {
        matches!(self, AccessKind::SyncRead | AccessKind::SyncWrite)
    }
}

/// Per-word access history: the last data write, the data reads since,
/// and the last sync write / sync reads (kept separately so sync-sync
/// pairs are never reported).
#[derive(Debug, Default)]
struct WordHist {
    data_write: Option<Epoch>,
    data_reads: Vec<Epoch>,
    sync_write: Option<Epoch>,
    sync_reads: Vec<Epoch>,
}

/// A sync access issued but not yet completed (its acquire side joins
/// at completion).
#[derive(Debug)]
struct PendingSync {
    tid: usize,
    word: WordAddr,
    key: SyncKey,
}

/// The happens-before race detector (see the module docs for rules).
#[derive(Debug, Default)]
pub struct RaceDetector {
    /// Per-thread vector clocks, indexed by global thread id.
    threads: Vec<VecClock>,
    /// Human labels ("k0/tb3") parallel to `threads`.
    labels: Vec<String>,
    /// First thread id of the current kernel launch.
    base: usize,
    /// Kernel launches seen so far.
    kernels: u32,
    /// Per-(word, key) sync-variable clocks.
    sync_clocks: FxHashMap<(WordAddr, SyncKey), VecClock>,
    /// Per-word access history.
    words: FxHashMap<WordAddr, WordHist>,
    /// Sync accesses awaiting completion, by request id.
    pending: FxHashMap<ReqId, PendingSync>,
    /// Words already reported (one race per word keeps reports readable).
    reported: FxHashSet<WordAddr>,
    /// Races found, drained by the engine.
    found: Vec<Violation>,
    /// Total conflicting-pair checks performed (for tests/telemetry).
    checks: u64,
}

impl RaceDetector {
    /// A fresh detector with no threads.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a kernel launch of `tbs` thread blocks: joins every
    /// existing thread into the boundary clock and seeds the new
    /// threads from it (launch boundaries order everything before
    /// against everything after).
    pub fn begin_kernel(&mut self, tbs: usize) {
        let mut boundary = VecClock::default();
        for c in &self.threads {
            boundary.join(c);
        }
        self.base = self.threads.len();
        for tb in 0..tbs {
            let t = self.base + tb;
            let mut clock = boundary.clone();
            // A thread is born at its own component 1 so its epochs are
            // distinguishable from the all-zero initial clocks.
            clock.set(t, 1);
            self.threads.push(clock);
            self.labels.push(format!("k{}/tb{}", self.kernels, tb));
        }
        self.kernels += 1;
    }

    /// The global thread id of thread block `tb` in the current kernel.
    #[inline]
    fn tid(&self, tb: usize) -> usize {
        self.base + tb
    }

    fn epoch(&self, t: usize) -> Epoch {
        Epoch {
            tid: t as u32,
            at: self.threads[t].get(t),
        }
    }

    /// Whether epoch `e` happens-before the current point of thread `t`.
    #[inline]
    fn hb(&self, e: Epoch, t: usize) -> bool {
        e.tid as usize == t || self.threads[t].get(e.tid as usize) >= e.at
    }

    fn report(
        &mut self,
        word: WordAddr,
        prior: Epoch,
        prior_kind: AccessKind,
        t: usize,
        kind: AccessKind,
    ) {
        if !self.reported.insert(word) {
            return;
        }
        let detail = format!(
            "word {}: {} by {} and {} by {} are unordered by happens-before",
            word.0,
            prior_kind.label(),
            self.labels[prior.tid as usize],
            kind.label(),
            self.labels[t],
        );
        self.found.push(Violation::new(CheckKind::Race, detail));
    }

    /// Checks one access against the word's history and records it.
    fn access(&mut self, t: usize, word: WordAddr, kind: AccessKind) {
        let h = self.words.entry(word).or_default();
        let mut conflicts: Vec<(Epoch, AccessKind)> = Vec::new();
        // Prior writes conflict with everything; prior reads only with
        // writes. Sync-sync pairs never conflict.
        for (e, k) in h
            .data_write
            .iter()
            .map(|&e| (e, AccessKind::DataWrite))
            .chain(h.sync_write.iter().map(|&e| (e, AccessKind::SyncWrite)))
        {
            if kind.is_sync() && k.is_sync() {
                continue;
            }
            conflicts.push((e, k));
        }
        if matches!(kind, AccessKind::DataWrite | AccessKind::SyncWrite) {
            for &e in &h.data_reads {
                conflicts.push((e, AccessKind::DataRead));
            }
            if !kind.is_sync() {
                for &e in &h.sync_reads {
                    conflicts.push((e, AccessKind::SyncRead));
                }
            }
        }
        self.checks += conflicts.len() as u64;
        for (e, k) in conflicts {
            if !self.hb(e, t) {
                self.report(word, e, k, t, kind);
            }
        }
        let me = self.epoch(t);
        let h = self.words.entry(word).or_default();
        let upsert = |list: &mut Vec<Epoch>| {
            if let Some(slot) = list.iter_mut().find(|e| e.tid == me.tid) {
                *slot = me;
            } else {
                list.push(me);
            }
        };
        match kind {
            AccessKind::DataRead => upsert(&mut h.data_reads),
            AccessKind::DataWrite => {
                h.data_write = Some(me);
                h.data_reads.clear();
            }
            AccessKind::SyncRead => upsert(&mut h.sync_reads),
            AccessKind::SyncWrite => {
                h.sync_write = Some(me);
                h.sync_reads.clear();
            }
        }
    }

    /// Records a plain load by thread block `tb` of the current kernel.
    pub fn data_read(&mut self, tb: usize, word: WordAddr) {
        let t = self.tid(tb);
        self.access(t, word, AccessKind::DataRead);
    }

    /// Records a plain store by thread block `tb` of the current kernel.
    pub fn data_write(&mut self, tb: usize, word: WordAddr) {
        let t = self.tid(tb);
        self.access(t, word, AccessKind::DataWrite);
    }

    /// Records a sync access that completed synchronously (an L1 hit):
    /// conflict check, release-join at this point, acquire-join at this
    /// point.
    pub fn sync_hit(
        &mut self,
        tb: usize,
        word: WordAddr,
        key: SyncKey,
        ord: SyncOrd,
        writes: bool,
    ) {
        let t = self.tid(tb);
        self.sync_issue_at(t, word, key, ord, writes);
        if ord.acquires() {
            self.acquire_join(t, word, key);
        }
    }

    /// Records the *issue* of a sync access whose completion will
    /// arrive later as `req`: conflict check and release-join now, the
    /// acquire side deferred to [`sync_finish`](Self::sync_finish).
    pub fn sync_pending(
        &mut self,
        req: ReqId,
        tb: usize,
        word: WordAddr,
        key: SyncKey,
        ord: SyncOrd,
        writes: bool,
    ) {
        let t = self.tid(tb);
        self.sync_issue_at(t, word, key, ord, writes);
        if ord.acquires() {
            self.pending.insert(req, PendingSync { tid: t, word, key });
        }
    }

    /// Completes a pending sync access: the acquire-side join.
    pub fn sync_finish(&mut self, req: ReqId) {
        if let Some(p) = self.pending.remove(&req) {
            self.acquire_join(p.tid, p.word, p.key);
        }
    }

    fn sync_issue_at(
        &mut self,
        t: usize,
        word: WordAddr,
        key: SyncKey,
        ord: SyncOrd,
        writes: bool,
    ) {
        let kind = if writes {
            AccessKind::SyncWrite
        } else {
            AccessKind::SyncRead
        };
        self.access(t, word, kind);
        if ord.releases() {
            let clock = self.threads[t].clone();
            self.sync_clocks
                .entry((word, key))
                .or_default()
                .join(&clock);
            self.threads[t].tick(t);
        }
    }

    fn acquire_join(&mut self, t: usize, word: WordAddr, key: SyncKey) {
        if let Some(sc) = self.sync_clocks.get(&(word, key)) {
            let sc = sc.clone();
            self.threads[t].join(&sc);
        }
    }

    /// Drains the races found since the last call.
    pub fn take_found(&mut self) -> Vec<Violation> {
        std::mem::take(&mut self.found)
    }

    /// Conflicting-pair checks performed so far.
    pub fn checks(&self) -> u64 {
        self.checks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const W: WordAddr = WordAddr(100);
    const FLAG: WordAddr = WordAddr(0);

    fn races(d: &mut RaceDetector) -> Vec<Violation> {
        d.take_found()
    }

    #[test]
    fn message_passing_is_race_free() {
        let mut d = RaceDetector::new();
        d.begin_kernel(2);
        // Producer tb0: write data, release flag.
        d.data_write(0, W);
        d.sync_hit(0, FLAG, SyncKey::Global, SyncOrd::Release, true);
        // Consumer tb1: acquire flag (spin: one failed read then the hit),
        // read data.
        d.sync_hit(1, FLAG, SyncKey::Global, SyncOrd::Acquire, false);
        d.data_read(1, W);
        assert!(races(&mut d).is_empty(), "MP is properly synchronized");
    }

    #[test]
    fn unsynchronized_writes_race() {
        let mut d = RaceDetector::new();
        d.begin_kernel(2);
        d.data_write(0, W);
        d.data_write(1, W);
        let r = races(&mut d);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].kind, CheckKind::Race);
        assert!(r[0].detail.contains("word 100"), "{}", r[0].detail);
        assert!(r[0].detail.contains("k0/tb0") && r[0].detail.contains("k0/tb1"));
    }

    #[test]
    fn write_then_unordered_read_races_once_per_word() {
        let mut d = RaceDetector::new();
        d.begin_kernel(3);
        d.data_write(0, W);
        d.data_read(1, W);
        d.data_read(2, W); // same word: deduplicated
        assert_eq!(races(&mut d).len(), 1);
        d.data_write(1, WordAddr(101));
        d.data_write(2, WordAddr(101));
        assert_eq!(races(&mut d).len(), 1, "a second word reports again");
    }

    #[test]
    fn sync_vs_sync_is_never_a_race() {
        let mut d = RaceDetector::new();
        d.begin_kernel(4);
        for tb in 0..4 {
            // Contended lock: everyone RMWs the same word, unordered.
            d.sync_hit(tb, FLAG, SyncKey::Global, SyncOrd::AcqRel, true);
        }
        assert!(races(&mut d).is_empty());
    }

    #[test]
    fn sync_vs_data_on_same_word_is_a_race() {
        let mut d = RaceDetector::new();
        d.begin_kernel(2);
        d.data_write(0, FLAG);
        d.sync_hit(1, FLAG, SyncKey::Global, SyncOrd::AcqRel, true);
        assert_eq!(races(&mut d).len(), 1, "plain store vs atomic is racy");
    }

    #[test]
    fn pending_sync_joins_at_completion() {
        let mut d = RaceDetector::new();
        d.begin_kernel(2);
        d.data_write(0, W);
        d.sync_hit(0, FLAG, SyncKey::Global, SyncOrd::Release, true);
        // The consumer's acquire misses and completes later.
        d.sync_pending(ReqId(7), 1, FLAG, SyncKey::Global, SyncOrd::Acquire, false);
        d.sync_finish(ReqId(7));
        d.data_read(1, W);
        assert!(races(&mut d).is_empty());
    }

    #[test]
    fn mismatched_local_scopes_do_not_synchronize() {
        let mut d = RaceDetector::new();
        d.begin_kernel(2);
        d.data_write(0, W);
        d.sync_hit(0, FLAG, SyncKey::Local(NodeId(0)), SyncOrd::Release, true);
        // tb1 lives on another CU: local-scope sync through the same
        // word shares no clock — the HRF scope pitfall.
        d.sync_hit(1, FLAG, SyncKey::Local(NodeId(1)), SyncOrd::Acquire, false);
        d.data_read(1, W);
        let r = races(&mut d);
        assert_eq!(r.len(), 1);
        assert!(r[0].detail.contains("word 100"));
    }

    #[test]
    fn kernel_boundary_orders_across_launches() {
        let mut d = RaceDetector::new();
        d.begin_kernel(2);
        d.data_write(0, W);
        d.begin_kernel(2);
        d.data_read(1, W); // k1/tb1 reads what k0/tb0 wrote: ordered
        d.begin_kernel(1);
        d.data_write(0, W); // k2/tb0 overwrites after the boundary: ordered
        assert!(races(&mut d).is_empty());
    }

    #[test]
    fn release_chain_through_one_sync_var_accumulates() {
        // t0 rel L; t1 acq L, writes, rel L; t2 acq L reads both writes.
        let mut d = RaceDetector::new();
        d.begin_kernel(3);
        d.data_write(0, W);
        d.sync_hit(0, FLAG, SyncKey::Global, SyncOrd::Release, true);
        d.sync_hit(1, FLAG, SyncKey::Global, SyncOrd::AcqRel, true);
        d.data_write(1, W);
        d.sync_hit(1, FLAG, SyncKey::Global, SyncOrd::Release, true);
        d.sync_hit(2, FLAG, SyncKey::Global, SyncOrd::Acquire, false);
        d.data_read(2, W);
        assert!(races(&mut d).is_empty());
    }
}
