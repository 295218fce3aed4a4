//! The DeNovo hybrid hardware-software coherence protocol applied to GPUs
//! (the paper's DeNovo-D, DeNovo-D+RO, and DeNovo-H configurations).
//!
//! DeNovo (paper §3) keeps coherence state per *word* with exactly three
//! states — Invalid, Valid, Registered (here [`WordState::Owned`]) — and
//! no transient states, because it exploits data-race-freedom and has no
//! writer-initiated invalidations. The shared L2 doubles as the
//! *registry*: each word either holds the up-to-date value or the ID of
//! the owning L1.
//!
//! * **Loads** hit on Valid or Registered words; a miss fetches the line
//!   from the home bank, which supplies the words it has and *forwards*
//!   the rest to their owner L1s — only useful words travel (the
//!   "decoupled granularity" advantage of Table 2).
//! * **Stores** buffer in the store buffer; ownership (registration) is
//!   requested lazily — at a release, or early on buffer overflow
//!   (paper §6.2.3: a full store buffer costs only an ownership request
//!   per line, not a data writethrough). Once a word is Registered,
//!   further stores hit in the L1 and bypass the buffer entirely.
//! * **Synchronization** uses DeNovoSync0 (the paper's reference 18):
//!   both sync reads
//!   and sync writes *register*. Racy registrations are served at the
//!   registry in arrival order; a request for an already-registered word
//!   is forwarded to the owner, queueing in the owner's MSHR when the
//!   owner's own acknowledgment is still in flight — a distributed
//!   queue. Same-CU requests coalesce in the MSHR and are all serviced
//!   before any queued remote request.
//! * **Acquires** invalidate only Valid words — Registered words are
//!   up-to-date by construction and survive, which is how DeNovo reuses
//!   written data and synchronization variables across synchronization
//!   boundaries. DD+RO additionally keeps Valid words of the software
//!   read-only region.
//! * **Releases** wait until every buffered store has obtained
//!   registration (no bursty data writethroughs).
//!
//! DeNovo-H adds HRF scopes on top: locally scoped operations skip the
//! invalidate/flush entirely, and with
//! [`DnConfig::delayed_local_ownership`] local sync ops do not register
//! at all (the paper's "can delay obtaining ownership" remark).

use crate::action::{Action, Issue};
use crate::chassis::{L1Chassis, L1Config, L1Core, L2Chassis, L2Config, L2Core, LineData};
use gsim_mem::{InsertOutcome, MemoryImage, WordState};
use gsim_trace::Level;
use gsim_types::{
    AtomicOp, Component, Cycle, FxHashMap, LineAddr, Msg, MsgKind, NodeId, Region, ReqId, Value,
    WordAddr, WordMask, WORDS_PER_LINE,
};
use std::collections::VecDeque;

/// Per-line L1 metadata: which Valid words belong to the software
/// read-only region (the DD+RO enhancement reuses spare coherence-state
/// encodings, paper §4.2, so this costs no extra bits).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoBits(pub WordMask);

/// Configuration of a DeNovo L1 controller.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DnConfig {
    /// Placement and sizing shared with the GPU protocol.
    pub l1: L1Config,
    /// DD+RO: keep Valid words of the read-only region at acquires.
    pub read_only_region: bool,
    /// DeNovo-H ablation: locally scoped sync ops do not register; their
    /// results live in the store buffer until a global release.
    pub delayed_local_ownership: bool,
    /// DeNovoSync's reader backoff (the paper's §3 mentions it and omits
    /// it "for simplicity"; we ship it as an opt-in extension): when a
    /// sync-read registration keeps being stolen before it is reused,
    /// later sync reads of that word back off exponentially instead of
    /// joining the registry's distributed queue.
    pub sync_read_backoff: bool,
}

impl DnConfig {
    /// Baseline DeNovo-D parameters for `node`.
    pub fn micro15(node: NodeId) -> Self {
        DnConfig {
            l1: L1Config::micro15(node),
            read_only_region: false,
            delayed_local_ownership: false,
            sync_read_backoff: false,
        }
    }
}

/// Per-word read-read contention state for the DeNovoSync backoff.
#[derive(Debug, Default, Clone, Copy)]
struct BackoffState {
    /// Exponential level: the next backoff is `BACKOFF_BASE << level`.
    level: u32,
    /// Whether the word was reused (hit) since its last grant here.
    used_since_grant: bool,
    /// The pending attempt already served its backoff and may issue.
    primed: bool,
}

/// Base sync-read backoff in cycles (doubles per contention event).
const BACKOFF_BASE: Cycle = 32;
/// Maximum backoff level (caps the delay at `32 << 5` = 1024 cycles).
const BACKOFF_MAX_LEVEL: u32 = 5;

/// What a thread block (or the release machinery) awaits on a line fill.
#[derive(Clone, Copy, Debug)]
enum Waiter {
    /// A demand load of one word.
    Load { req: ReqId, word: WordAddr },
    /// A synchronization operation awaiting registration of its word.
    Atomic {
        req: ReqId,
        word: WordAddr,
        op: AtomicOp,
        operands: [Value; 2],
    },
    /// A delayed-ownership local sync op awaiting a plain data fill.
    DelayedAtomic {
        req: ReqId,
        word: WordAddr,
        op: AtomicOp,
        operands: [Value; 2],
    },
}

impl From<(ReqId, WordAddr)> for Waiter {
    fn from((req, word): (ReqId, WordAddr)) -> Self {
        Waiter::Load { req, word }
    }
}

/// A remote request queued behind this L1's own in-flight registration —
/// DeNovoSync0's distributed queue.
#[derive(Clone, Copy, Debug)]
struct QueuedFwd {
    mask: WordMask,
    kind: FwdKind,
}

#[derive(Clone, Copy, Debug)]
enum FwdKind {
    /// A forwarded data read; ownership stays here.
    Read { requester: NodeId },
    /// An ownership transfer to `new_owner`.
    Reg { new_owner: NodeId, sync: bool },
}

/// Buffered store values whose registration request is in flight.
#[derive(Clone, Copy, Debug)]
struct RegPending {
    mask: WordMask,
    data: LineData,
}

/// The per-CU L1 controller of the DeNovo protocol.
///
/// See the [module documentation](self) for the protocol. Like
/// [`GpuL1`](crate::GpuL1), this is a pure state machine appending
/// [`Action`]s to the caller's sink.
#[derive(Debug)]
pub struct DnL1 {
    core: L1Core<RoBits, Waiter, QueuedFwd>,
    config: DnConfig,
    /// Store values whose registration is in flight, by line.
    reg_pending: FxHashMap<LineAddr, RegPending>,
    /// Words with a *sync* registration in flight: a plain read fill for
    /// such a word must not fill it or complete its waiters — only the
    /// registration grant may (the sync op needs ownership, not a copy).
    sync_pending: FxHashMap<LineAddr, WordMask>,
    /// Eviction writebacks in flight, oldest first per line.
    wb_pending: FxHashMap<LineAddr, VecDeque<(WordMask, LineData)>>,
    /// Read-only-region markings awaiting their fill.
    ro_intent: FxHashMap<LineAddr, WordMask>,
    /// Data-write words with registration in flight (releases wait on 0).
    outstanding_writes: u64,
    /// Per-word contention state (only populated with
    /// [`DnConfig::sync_read_backoff`]).
    backoff: FxHashMap<WordAddr, BackoffState>,
}

impl DnL1 {
    /// Creates the DeNovo L1 controller for `config.l1.node`.
    pub fn new(config: DnConfig) -> Self {
        DnL1 {
            core: L1Core::new(config.l1),
            reg_pending: FxHashMap::default(),
            sync_pending: FxHashMap::default(),
            wb_pending: FxHashMap::default(),
            ro_intent: FxHashMap::default(),
            outstanding_writes: 0,
            backoff: FxHashMap::default(),
            config,
        }
    }

    /// The parts this L1 shares with every family: counters, occupancy
    /// gauges, audits and the trace hook.
    pub fn chassis(&self) -> &dyn L1Chassis {
        &self.core
    }

    /// Mutable access to [`chassis`](Self::chassis).
    pub fn chassis_mut(&mut self) -> &mut dyn L1Chassis {
        &mut self.core
    }

    /// Whether every fill, registration, and writeback has completed.
    pub fn quiesced(&self) -> bool {
        self.core.quiesced()
            && self.reg_pending.is_empty()
            && self.sync_pending.is_empty()
            && self.wb_pending.is_empty()
            && self.outstanding_writes == 0
    }

    /// All currently Registered words and their values — the functional
    /// drain the simulator applies to the memory image at end of run
    /// (the real system's CPU would fetch them through the registry).
    pub fn owned_words(&self) -> Vec<(WordAddr, Value)> {
        let mut out = Vec::new();
        for line in self.core.cache.iter() {
            for i in line.mask_in(WordState::Owned).iter() {
                out.push((line.tag.word(i), line.data[i]));
            }
        }
        out
    }

    /// Valid words left outside the read-only region right after a
    /// global acquire — must be zero: the self-invalidation sweep clears
    /// every Valid word except RO-region words (DD+RO), and only
    /// Registered words legally survive.
    pub fn post_acquire_residue(&self) -> u64 {
        let keep_ro = self.config.read_only_region;
        let mut words = 0u64;
        for l in self.core.cache.iter() {
            let mut v = l.mask_in(WordState::Valid);
            if keep_ro {
                v = v & !l.extra.0;
            }
            words += u64::from(v.count());
        }
        words
    }

    /// Names every resource still allocated after the run drained, each
    /// paired with the trace event that allocated it. Empty iff
    /// [`quiesced`](Self::quiesced) and the store buffer is empty.
    pub fn quiesce_leaks(&self) -> Vec<String> {
        let n = self.core.config.node;
        let sorted_lines = |keys: Vec<LineAddr>| {
            let mut k = keys;
            k.sort();
            k
        };
        let mut in_flight = Vec::new();
        for line in sorted_lines(self.reg_pending.keys().copied().collect()) {
            in_flight.push(format!(
                "{n}: registration in flight for line {} (alloc event: msg-send)",
                line.0
            ));
        }
        for line in sorted_lines(self.sync_pending.keys().copied().collect()) {
            in_flight.push(format!(
                "{n}: sync registration in flight for line {} (alloc event: atomic)",
                line.0
            ));
        }
        for line in sorted_lines(self.wb_pending.keys().copied().collect()) {
            in_flight.push(format!(
                "{n}: eviction writeback in flight for line {} (alloc event: eviction)",
                line.0
            ));
        }
        let mut writes = Vec::new();
        if self.outstanding_writes > 0 {
            writes.push(format!(
                "{n}: {} data-write registration(s) outstanding (alloc event: msg-send)",
                self.outstanding_writes
            ));
        }
        self.core.leaks(in_flight, writes, Vec::new())
    }

    /// The freshest locally visible value, honouring the buffering
    /// hierarchy: store buffer, then in-flight registrations, then the
    /// cache.
    fn local_value(&mut self, word: WordAddr) -> Option<Value> {
        if let Some(v) = self.core.sb.lookup(word) {
            return Some(v);
        }
        let i = word.index_in_line();
        if let Some(p) = self.reg_pending.get(&word.line()) {
            if p.mask.contains(i) {
                return Some(p.data[i]);
            }
        }
        let line = self.core.cache.lookup(word.line())?;
        line.word(i).readable().then(|| line.data[i])
    }

    /// Whether `word` is Registered in the cache.
    fn is_owned(&self, word: WordAddr) -> bool {
        self.core
            .cache
            .peek(word.line())
            .map(|l| l.word(word.index_in_line()) == WordState::Owned)
            .unwrap_or(false)
    }

    /// A demand load of `word`; `region` is the software annotation the
    /// DD+RO configuration consumes (conveyed by an opcode bit in the
    /// paper).
    pub fn load(
        &mut self,
        word: WordAddr,
        region: Region,
        req: ReqId,
        out: &mut Vec<Action>,
    ) -> Issue {
        let node = self.core.config.node;
        if let Some(v) = self.local_value(word) {
            self.core.counts.l1_accesses += 1;
            self.core.counts.l1_load_hits += 1;
            self.core.trace.l1_access(node, word.line(), true);
            if region == Region::ReadOnly && self.config.read_only_region {
                if let Some(l) = self.core.cache.lookup(word.line()) {
                    l.extra.0.insert(word.index_in_line());
                }
            }
            return Issue::Hit(v);
        }
        let line = word.line();
        if !self.core.mshr.has_room_for(line) || self.core.is_stale(line) {
            return Issue::Retry;
        }
        self.core.counts.l1_accesses += 1;
        self.core.counts.l1_load_misses += 1;
        self.core.trace.l1_access(node, line, false);
        self.core.trace.l1_miss(node, word, req);
        let i = word.index_in_line();
        if region == Region::ReadOnly && self.config.read_only_region {
            self.ro_intent.entry(line).or_default().insert(i);
        }
        // Fetch the whole line's missing words but wait only on the
        // demand word; the registry answers every word, directly or via
        // an owner forward.
        let readable = self
            .core
            .cache
            .peek(line)
            .map(|l| l.readable_mask())
            .unwrap_or_default();
        let waiter = Waiter::Load { req, word };
        self.core
            .read_miss(line, WordMask::single(i), !readable, waiter, out);
        Issue::Pending
    }

    /// A data store. Registered words are written in place (no store
    /// buffer); otherwise the value is buffered and registered lazily at
    /// the next release or on buffer overflow.
    pub fn store(&mut self, word: WordAddr, value: Value, out: &mut Vec<Action>) -> Issue {
        self.core.counts.l1_accesses += 1;
        self.core.trace.l1_write(self.core.config.node, word, false);
        let i = word.index_in_line();
        if self.is_owned(word) {
            self.core.counts.l1_store_hits += 1;
            let l = self
                .core
                .cache
                .lookup(word.line())
                .expect("owned implies resident");
            l.data[i] = value;
            return Issue::Hit(0);
        }
        if let Some(p) = self.reg_pending.get_mut(&word.line()) {
            if p.mask.contains(i) {
                p.data[i] = value;
                return Issue::Hit(0);
            }
        }
        if let Some(e) = self.core.buffer(word, value) {
            self.register_entry(e.line, e.mask, &e.data, out);
        }
        Issue::Hit(0)
    }

    /// Sends (or coalesces) a data-registration request for the given
    /// buffered words, moving their values into `reg_pending`.
    ///
    /// Data registrations deliberately bypass the MSHR: a read of the
    /// same word may already be in flight, and the registration must
    /// still be sent (the read fill cannot grant ownership). They need
    /// no distributed-queue slot either — the registry acks a data
    /// registration itself, so on the FIFO L2-to-L1 path the grant
    /// always lands before any forward for the newly owned words.
    fn register_entry(
        &mut self,
        line: LineAddr,
        mask: WordMask,
        data: &LineData,
        out: &mut Vec<Action>,
    ) {
        let p = self.reg_pending.entry(line).or_insert(RegPending {
            mask: WordMask::empty(),
            data: [0; WORDS_PER_LINE],
        });
        let new_words = mask & !p.mask;
        for i in mask.iter() {
            p.data[i] = data[i];
        }
        p.mask |= mask;
        if new_words.is_empty() {
            return;
        }
        self.outstanding_writes += new_words.count() as u64;
        self.core.counts.registrations += new_words.count() as u64;
        out.push(Action::send(self.core.msg_to_home(
            line,
            MsgKind::RegReq {
                line,
                mask: new_words,
                sync: false,
                requester: self.core.config.node,
            },
        )));
    }

    /// A synchronization access (DeNovoSync0): performed at the L1 once
    /// the word is Registered; otherwise a sync registration is issued.
    ///
    /// With [`DnConfig::delayed_local_ownership`], a `local` op skips
    /// registration entirely: it reads the freshest local copy, applies
    /// the operation, and buffers the result like a plain store.
    ///
    /// # Panics
    ///
    /// Panics if the word has an unregistered buffered plain store — a
    /// data race under DRF/HRF.
    pub fn atomic(
        &mut self,
        word: WordAddr,
        op: AtomicOp,
        operands: [Value; 2],
        local: bool,
        req: ReqId,
        out: &mut Vec<Action>,
    ) -> Issue {
        if local && self.config.delayed_local_ownership {
            return self.delayed_atomic(word, op, operands, req, out);
        }
        let i = word.index_in_line();
        if self.is_owned(word) {
            self.core.counts.l1_accesses += 1;
            self.core.counts.l1_atomics += 1;
            self.core.counts.l1_atomic_hits += 1;
            if self.config.sync_read_backoff {
                if let Some(b) = self.backoff.get_mut(&word) {
                    b.used_since_grant = true;
                    b.level = 0;
                }
            }
            let l = self
                .core
                .cache
                .lookup(word.line())
                .expect("owned implies resident");
            let (new, old) = op.apply(l.data[i], operands);
            if op.writes() {
                l.data[i] = new;
            }
            return Issue::Hit(old);
        }
        assert!(
            self.core.sb.lookup(word).is_none(),
            "sync access to {word:?} with an unregistered buffered store: \
             the program is racy under DRF"
        );
        let line = word.line();
        if !self.core.mshr.has_room_for(line) {
            return Issue::Retry;
        }
        // DeNovoSync reader backoff: a contended sync read throttles
        // itself instead of re-joining the distributed queue — unless a
        // registration for the word is already in flight here (then it
        // coalesces for free).
        if self.config.sync_read_backoff && op == AtomicOp::Read {
            let already = self
                .sync_pending
                .get(&line)
                .is_some_and(|sp| sp.contains(i));
            if !already {
                if let Some(b) = self.backoff.get_mut(&word) {
                    if b.level > 0 && !b.primed {
                        b.primed = true; // the retried attempt goes through
                        return Issue::RetryAfter(BACKOFF_BASE << b.level);
                    }
                    b.primed = false;
                }
            }
        }
        self.core.counts.l1_accesses += 1;
        self.core.counts.l1_atomics += 1;
        // The registration must go out even when a plain read of the
        // same word is already in flight (the read fill cannot grant
        // ownership) — so the dedup key is `sync_pending`, not the
        // MSHR's pending mask.
        let waiter = Waiter::Atomic {
            req,
            word,
            op,
            operands,
        };
        let one = WordMask::single(i);
        self.core.request_miss(line, one, one, waiter);
        let sp = self.sync_pending.entry(line).or_default();
        if !sp.contains(i) {
            sp.insert(i);
            self.core.counts.registrations += 1;
            out.push(Action::send(self.core.msg_to_home(
                line,
                MsgKind::RegReq {
                    line,
                    mask: one,
                    sync: true,
                    requester: self.core.config.node,
                },
            )));
        }
        Issue::Pending
    }

    /// The delayed-ownership local sync path (DeNovo-H ablation).
    fn delayed_atomic(
        &mut self,
        word: WordAddr,
        op: AtomicOp,
        operands: [Value; 2],
        req: ReqId,
        out: &mut Vec<Action>,
    ) -> Issue {
        if let Some(current) = self.local_value(word) {
            self.core.counts.l1_accesses += 1;
            self.core.counts.l1_atomics += 1;
            self.core.counts.l1_atomic_hits += 1;
            let (new, old) = op.apply(current, operands);
            if op.writes() {
                if self.is_owned(word) {
                    let l = self
                        .core
                        .cache
                        .lookup(word.line())
                        .expect("owned implies resident");
                    l.data[word.index_in_line()] = new;
                } else if let Some(e) = self.core.buffer(word, new) {
                    self.register_entry(e.line, e.mask, &e.data, out);
                }
            }
            return Issue::Hit(old);
        }
        let line = word.line();
        if !self.core.mshr.has_room_for(line) {
            return Issue::Retry;
        }
        self.core.counts.l1_accesses += 1;
        self.core.counts.l1_atomics += 1;
        let one = WordMask::single(word.index_in_line());
        let waiter = Waiter::DelayedAtomic {
            req,
            word,
            op,
            operands,
        };
        self.core.read_miss(line, one, one, waiter, out);
        Issue::Pending
    }

    /// An acquire: self-invalidate Valid words. Registered words are
    /// up-to-date and survive; under DD+RO so do Valid words of the
    /// read-only region. Locally scoped acquires (DeNovo-H) are free.
    pub fn acquire(&mut self, local: bool) {
        let keep_ro = self.config.read_only_region;
        self.core.acquire(
            local,
            false,
            |ro: &RoBits| {
                if keep_ro {
                    ro.0
                } else {
                    WordMask::empty()
                }
            },
        );
    }

    /// A release: every buffered store obtains registration; completes
    /// when no data-write registration remains in flight. Locally scoped
    /// releases (DeNovo-H) are free.
    pub fn release(&mut self, local: bool, req: ReqId, out: &mut Vec<Action>) -> Issue {
        let Some(pending) = self.core.open_release(local) else {
            return Issue::Hit(0);
        };
        while let Some(e) = self.core.release_pop() {
            self.register_entry(e.line, e.mask, &e.data, out);
        }
        self.core
            .close_release(self.outstanding_writes > 0, pending, req)
    }

    /// Delivers a network message to this L1.
    ///
    /// # Panics
    ///
    /// Panics on message kinds a DeNovo L1 never receives (writethrough
    /// acks, L2-executed atomics) and on forwards for words this L1 has
    /// no record of — protocol bugs.
    pub fn handle(&mut self, msg: &Msg, out: &mut Vec<Action>) {
        match msg.kind {
            MsgKind::ReadResp { line, mask, data } => self.fill_read(line, mask, &data, out),
            MsgKind::RegResp {
                line,
                mask,
                data,
                sync,
            } => {
                if sync {
                    self.fill_sync_grant(line, mask, &data, out)
                } else {
                    self.fill_data_grant(line, mask, out)
                }
            }
            MsgKind::RegFwd {
                line,
                mask,
                new_owner,
                sync,
            } => self.forward(line, mask, FwdKind::Reg { new_owner, sync }, out),
            MsgKind::ReadReq {
                line,
                mask,
                requester,
            } => self.forward(line, mask, FwdKind::Read { requester }, out),
            MsgKind::WbAck { line, mask } => {
                let q = self
                    .wb_pending
                    .get_mut(&line)
                    .expect("writeback ack without a pending writeback");
                let (front_mask, _) = q.pop_front().expect("pending queue is non-empty");
                assert!(
                    (front_mask & !mask).is_empty(),
                    "writeback ack mask mismatch"
                );
                if q.is_empty() {
                    self.wb_pending.remove(&line);
                }
            }
            ref k => panic!("DeNovo L1 received unexpected message {k:?}"),
        }
    }

    /// Ensures `line` has a way, writing back any evicted Registered
    /// words (ownership returns to the registry).
    fn ensure_way(&mut self, line: LineAddr, out: &mut Vec<Action>) {
        if let InsertOutcome::Evicted(victim) = self.core.cache.insert(line) {
            let (owned, node) = (victim.mask_in(WordState::Owned), self.core.config.node);
            self.core
                .trace
                .evicted(node, Level::L1, victim.tag, owned.count());
            if !owned.is_empty() {
                self.core.counts.ownership_writebacks += owned.count() as u64;
                self.wb_pending
                    .entry(victim.tag)
                    .or_default()
                    .push_back((owned, victim.data));
                out.push(Action::send(self.core.msg_to_home(
                    victim.tag,
                    MsgKind::WbReq {
                        line: victim.tag,
                        mask: owned,
                        data: victim.data,
                    },
                )));
            }
        }
    }

    /// Applies a data read fill (Valid words) and services waiters.
    /// Words with a sync registration in flight are skipped entirely:
    /// their fill is the registration grant.
    fn fill_read(
        &mut self,
        line: LineAddr,
        mask: WordMask,
        data: &LineData,
        out: &mut Vec<Action>,
    ) {
        let mask = mask & !self.sync_pending.get(&line).copied().unwrap_or_default();
        if !self.core.is_stale(line) {
            self.ensure_way(line, out);
            let intent = self.ro_intent.remove(&line).unwrap_or_default();
            let l = self.core.cache.lookup(line).expect("just ensured");
            let mut installed = WordMask::default();
            for i in mask.iter() {
                if l.word(i) == WordState::Owned {
                    continue; // never downgrade a Registered word
                }
                l.set_word(i, WordState::Valid);
                l.data[i] = data[i];
                installed.insert(i);
                if intent.contains(i) {
                    l.extra.0.insert(i);
                } else {
                    l.extra.0.remove(i);
                }
            }
            let node = self.core.config.node;
            self.core.trace.filled(node, line, installed, false);
            if !(intent & !mask).is_empty() {
                // Part of the intent is still in flight (another
                // response).
                self.ro_intent.insert(line, intent & !mask);
            }
        }
        self.complete_fill(line, mask, Some(data), out);
    }

    /// Applies a sync registration grant: the granted words become
    /// Registered with the grant's (freshest) values, then the waiting
    /// sync ops execute in arrival order.
    fn fill_sync_grant(
        &mut self,
        line: LineAddr,
        mask: WordMask,
        data: &LineData,
        out: &mut Vec<Action>,
    ) {
        if let Some(sp) = self.sync_pending.get_mut(&line) {
            *sp = *sp & !mask;
            if sp.is_empty() {
                self.sync_pending.remove(&line);
            }
        }
        self.ensure_way(line, out);
        let l = self.core.cache.lookup(line).expect("just ensured");
        for i in mask.iter() {
            l.set_word(i, WordState::Owned);
            l.data[i] = data[i];
            l.extra.0.remove(i);
        }
        debug_assert!(!mask.is_empty(), "empty sync grant");
        self.core
            .trace
            .filled(self.core.config.node, line, mask, true);
        if self.config.sync_read_backoff {
            for i in mask.iter() {
                let b = self.backoff.entry(line.word(i)).or_default();
                b.used_since_grant = false;
            }
        }
        self.complete_fill(line, mask, None, out);
    }

    /// Applies a data registration grant: the buffered store values
    /// become Registered cache contents.
    fn fill_data_grant(&mut self, line: LineAddr, mask: WordMask, out: &mut Vec<Action>) {
        self.ensure_way(line, out);
        let p = self
            .reg_pending
            .get_mut(&line)
            .expect("data grant without pending stores");
        debug_assert!((mask & !p.mask).is_empty(), "grant exceeds pending words");
        let l = self.core.cache.lookup(line).expect("just ensured");
        for i in mask.iter() {
            l.set_word(i, WordState::Owned);
            l.data[i] = p.data[i];
            l.extra.0.remove(i);
        }
        debug_assert!(!mask.is_empty(), "empty data grant");
        self.core
            .trace
            .filled(self.core.config.node, line, mask, true);
        p.mask = p.mask & !mask;
        if p.mask.is_empty() {
            self.reg_pending.remove(&line);
        }
        self.outstanding_writes -= mask.count() as u64;
        if self.outstanding_writes == 0 {
            self.core.drained(out);
        }
    }

    /// Retires MSHR waiters satisfied by a fill, then (if the entry
    /// retired) serves the queued remote forwards — local requests always
    /// drain first (DeNovoSync0). `fill_data` backs waiter completion
    /// when a stale (pre-acquire) fill was not installed in the cache.
    fn complete_fill(
        &mut self,
        line: LineAddr,
        mask: WordMask,
        fill_data: Option<&LineData>,
        out: &mut Vec<Action>,
    ) {
        let (done, fwds) = self.core.complete_miss(line, mask);
        for w in done {
            match w {
                Waiter::Load { req, word } => {
                    let v = self
                        .local_value(word)
                        .or_else(|| fill_data.map(|d| d[word.index_in_line()]))
                        .expect("filled word is readable");
                    out.push(Action::complete(req, v));
                }
                Waiter::Atomic {
                    req,
                    word,
                    op,
                    operands,
                } => {
                    let i = word.index_in_line();
                    let l = self
                        .core
                        .cache
                        .lookup(word.line())
                        .expect("granted word resident");
                    debug_assert_eq!(l.word(i), WordState::Owned);
                    let (new, old) = op.apply(l.data[i], operands);
                    if op.writes() {
                        l.data[i] = new;
                    }
                    out.push(Action::complete(req, old));
                }
                Waiter::DelayedAtomic {
                    req,
                    word,
                    op,
                    operands,
                } => {
                    let current = self
                        .local_value(word)
                        .or_else(|| fill_data.map(|d| d[word.index_in_line()]))
                        .expect("filled word is readable");
                    let (new, old) = op.apply(current, operands);
                    if op.writes() {
                        if let Some(e) = self.core.buffer(word, new) {
                            self.register_entry(e.line, e.mask, &e.data, out);
                        }
                    }
                    out.push(Action::complete(req, old));
                }
            }
        }
        for f in fwds {
            let served = self.serve_forward(line, f.mask, f.kind, out);
            assert_eq!(
                served, f.mask,
                "queued forward for words the fill did not deliver"
            );
        }
    }

    /// Handles a forwarded request from the registry: serve what is
    /// locally available (cache, then in-flight writebacks), queue the
    /// rest behind our own pending registration.
    fn forward(&mut self, line: LineAddr, mask: WordMask, kind: FwdKind, out: &mut Vec<Action>) {
        let served = self.serve_forward(line, mask, kind, out);
        let rest = mask & !served;
        if !rest.is_empty() {
            self.core.counts.reg_queued += 1;
            self.core
                .mshr
                .queue_fwd(line, QueuedFwd { mask: rest, kind })
                .unwrap_or_else(|_| {
                    panic!("forward for {line:?} words {rest:?} this L1 has no record of")
                });
        }
    }

    /// Serves the locally available part of a forward, returning the
    /// served mask.
    fn serve_forward(
        &mut self,
        line: LineAddr,
        mask: WordMask,
        kind: FwdKind,
        out: &mut Vec<Action>,
    ) -> WordMask {
        let mut avail = WordMask::empty();
        let mut data = [0; WORDS_PER_LINE];
        if let Some(l) = self.core.cache.lookup(line) {
            let here = mask & l.mask_in(WordState::Owned);
            for i in here.iter() {
                avail.insert(i);
                data[i] = l.data[i];
            }
        }
        // Words in flight to the registry: the newest writeback element
        // holding each word has the freshest value.
        if let Some(q) = self.wb_pending.get(&line) {
            for i in (mask & !avail).iter() {
                for (m, d) in q.iter().rev() {
                    if m.contains(i) {
                        avail.insert(i);
                        data[i] = d[i];
                        break;
                    }
                }
            }
        }
        if avail.is_empty() {
            return avail;
        }
        match kind {
            FwdKind::Read { requester } => {
                // Ownership stays; just supply the data.
                out.push(Action::send(Msg {
                    src: self.core.config.node,
                    dst: requester,
                    dst_comp: Component::L1,
                    kind: MsgKind::ReadResp {
                        line,
                        mask: avail,
                        data,
                    },
                }));
            }
            FwdKind::Reg { new_owner, sync } => {
                // Ownership moves: invalidate every local record. A sync
                // word stolen before we reused it is read-read
                // contention: escalate its backoff (DeNovoSync).
                if self.config.sync_read_backoff {
                    for i in avail.iter() {
                        if let Some(b) = self.backoff.get_mut(&line.word(i)) {
                            b.level = if b.used_since_grant {
                                0
                            } else {
                                (b.level + 1).min(BACKOFF_MAX_LEVEL)
                            };
                        }
                    }
                }
                if let Some(l) = self.core.cache.lookup(line) {
                    let steal = avail & l.mask_in(WordState::Owned);
                    let stolen = steal.count();
                    l.set_mask(steal, WordState::Invalid);
                    if stolen > 0 {
                        let node = self.core.config.node;
                        self.core.trace.ownership_stolen(node, line, stolen);
                    }
                }
                if let Some(q) = self.wb_pending.get_mut(&line) {
                    for (m, _) in q.iter_mut() {
                        *m = *m & !avail;
                    }
                }
                if sync {
                    out.push(Action::send(Msg {
                        src: self.core.config.node,
                        dst: new_owner,
                        dst_comp: Component::L1,
                        kind: MsgKind::RegResp {
                            line,
                            mask: avail,
                            data,
                            sync: true,
                        },
                    }));
                }
                // Data-write transfers need no reply: the registry
                // already granted the new owner, who overwrites the
                // whole word.
            }
        }
        avail
    }
}

/// Per-line registry metadata: the owning L1 of each word, if any.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Owners(pub [Option<NodeId>; WORDS_PER_LINE]);

/// The DeNovo shared L2: data banks doubling as the *registry*.
///
/// Each resident word is either up-to-date here
/// ([`WordState::Valid`]/[`WordState::Owned`] = clean/dirty) or
/// registered to an L1 ([`WordState::Invalid`] with an [`Owners`] entry).
/// Racy registrations are served immediately in arrival order; requests
/// for registered words are forwarded to the owner (paper §3).
///
/// When a bank evicts a line that still has registered words, the owner
/// ids spill to an unbounded *overflow table* instead of triggering
/// recalls; see DESIGN.md §5b for why this substitution is benign at the
/// paper's 4 MB L2.
#[derive(Debug)]
pub struct DnL2 {
    core: L2Core<Owners>,
    overflow: FxHashMap<LineAddr, Owners>,
}

impl DnL2 {
    /// Creates the registry over an initial memory image.
    pub fn new(config: L2Config, memory: MemoryImage) -> Self {
        DnL2 {
            core: L2Core::new(config, memory),
            overflow: FxHashMap::default(),
        }
    }

    /// The parts this registry shares with the GPU L2: counters, the
    /// memory image and the trace hook.
    pub fn chassis(&self) -> &dyn L2Chassis {
        &self.core
    }

    /// Mutable access to [`chassis`](Self::chassis).
    pub fn chassis_mut(&mut self) -> &mut dyn L2Chassis {
        &mut self.core
    }

    /// Every word the registry currently records as registered, with its
    /// owner — bank arrays and the overflow spill table combined, sorted
    /// by word. The conformance checker compares this against the L1s'
    /// actual Registered words at end of run.
    pub fn registry_owners(&self) -> Vec<(WordAddr, NodeId)> {
        let mut out = Vec::new();
        for bank in &self.core.banks {
            for line in bank.iter() {
                for (i, owner) in line.extra.0.iter().enumerate() {
                    if let Some(n) = owner {
                        out.push((line.tag.word(i), *n));
                    }
                }
            }
        }
        for (line, owners) in &self.overflow {
            for (i, owner) in owners.0.iter().enumerate() {
                if let Some(n) = owner {
                    out.push((line.word(i), *n));
                }
            }
        }
        out.sort_by_key(|&(w, _)| w);
        out
    }

    /// Starts an in-order bank operation on `line` (see
    /// `L2Core::bank_op`). A line fetched from DRAM gets back the owner
    /// ids it spilled when it was last evicted; a line it displaces
    /// spills its registered words' owner ids to the overflow table.
    fn registry_op(&mut self, now: Cycle, line: LineAddr) -> Cycle {
        let overflow = &mut self.overflow;
        self.core.bank_op(now, line, |counts, l, data, victim| {
            if let Some(victim) = victim {
                let spilled = victim.extra.0.iter().filter(|o| o.is_some()).count();
                if spilled > 0 {
                    counts.registry_overflow_words += spilled as u64;
                    overflow.insert(victim.tag, victim.extra);
                }
            }
            let owners = overflow.remove(&line).unwrap_or_default();
            for (i, owner) in owners.0.iter().enumerate() {
                if owner.is_some() {
                    l.set_word(i, WordState::Invalid);
                } else {
                    l.set_word(i, WordState::Valid);
                    l.data[i] = data[i];
                }
            }
            l.extra = owners;
        })
    }

    /// Delivers a network message to the addressed registry bank.
    ///
    /// # Panics
    ///
    /// Panics on GPU-only message kinds (writethroughs, L2 atomics) — a
    /// protocol bug.
    pub fn handle(&mut self, now: Cycle, msg: &Msg, out: &mut Vec<Action>) {
        match msg.kind {
            MsgKind::ReadReq {
                line,
                mask,
                requester,
            } => self.read(now, msg.dst, line, mask, requester, out),
            MsgKind::RegReq {
                line,
                mask,
                sync,
                requester,
            } => self.register(now, msg.dst, line, mask, sync, requester, out),
            MsgKind::WbReq { line, mask, data } => self.writeback(now, msg, line, mask, &data, out),
            ref k => panic!("DeNovo L2 received unexpected message {k:?}"),
        }
    }

    /// A data read: supply what the bank has, forward the rest to the
    /// owning L1s (the DeNovo extra hop).
    fn read(
        &mut self,
        now: Cycle,
        bank_node: NodeId,
        line: LineAddr,
        mask: WordMask,
        requester: NodeId,
        out: &mut Vec<Action>,
    ) {
        self.core.counts.l2_accesses += 1;
        self.core.trace.l2_access(line);
        let delay = self.registry_op(now, line);
        let l = self.core.resident(line);
        let mut avail = WordMask::empty();
        let mut by_owner: FxHashMap<NodeId, WordMask> = FxHashMap::default();
        for i in mask.iter() {
            match l.extra.0[i] {
                Some(owner) => by_owner.entry(owner).or_default().insert(i),
                None => avail.insert(i),
            }
        }
        let data = l.data;
        if !avail.is_empty() {
            out.push(Action::Send {
                msg: Msg {
                    src: bank_node,
                    dst: requester,
                    dst_comp: Component::L1,
                    kind: MsgKind::ReadResp {
                        line,
                        mask: avail,
                        data,
                    },
                },
                delay,
            });
        }
        for (owner, m) in sorted(by_owner) {
            self.core.counts.reg_forwards += 1;
            self.core.trace.l2_forward(line);
            out.push(Action::Send {
                msg: Msg {
                    src: bank_node,
                    dst: owner,
                    dst_comp: Component::L1,
                    kind: MsgKind::ReadReq {
                        line,
                        mask: m,
                        requester,
                    },
                },
                delay,
            });
        }
    }

    /// A registration: grant available words immediately (in arrival
    /// order — DeNovoSync0 never blocks at the registry) and forward
    /// already-registered words to their previous owners.
    #[allow(clippy::too_many_arguments)]
    fn register(
        &mut self,
        now: Cycle,
        bank_node: NodeId,
        line: LineAddr,
        mask: WordMask,
        sync: bool,
        requester: NodeId,
        out: &mut Vec<Action>,
    ) {
        self.core.counts.l2_accesses += 1;
        self.core.trace.l2_access(line);
        let delay = self.registry_op(now, line);
        let l = self.core.resident(line);
        let mut granted = WordMask::empty();
        let mut by_owner: FxHashMap<NodeId, WordMask> = FxHashMap::default();
        for i in mask.iter() {
            match l.extra.0[i] {
                Some(prev) => by_owner.entry(prev).or_default().insert(i),
                None => granted.insert(i),
            }
            l.extra.0[i] = Some(requester);
            l.set_word(i, WordState::Invalid); // the value now lives at the owner
        }
        let data = l.data;
        self.core
            .trace
            .l2_register(bank_node, line, mask.count(), granted.count());
        if !granted.is_empty() {
            // Sync grants carry the current value (the RMW reads it);
            // data grants are pure acks.
            out.push(Action::Send {
                msg: Msg {
                    src: bank_node,
                    dst: requester,
                    dst_comp: Component::L1,
                    kind: MsgKind::RegResp {
                        line,
                        mask: granted,
                        data,
                        sync,
                    },
                },
                delay,
            });
        }
        for (prev, m) in sorted(by_owner) {
            self.core.counts.reg_forwards += 1;
            // The words in `m` change registered owner (ping-pong) and
            // the previous owner takes a forward.
            self.core.trace.l2_forward(line);
            self.core.trace.l2_transfer(line, m.count());
            out.push(Action::Send {
                msg: Msg {
                    src: bank_node,
                    dst: prev,
                    dst_comp: Component::L1,
                    kind: MsgKind::RegFwd {
                        line,
                        mask: m,
                        new_owner: requester,
                        sync,
                    },
                },
                delay,
            });
            if !sync {
                // The previous owner's value is dead (the new owner
                // overwrites whole words): ack the transfer directly.
                out.push(Action::Send {
                    msg: Msg {
                        src: bank_node,
                        dst: requester,
                        dst_comp: Component::L1,
                        kind: MsgKind::RegResp {
                            line,
                            mask: m,
                            data,
                            sync: false,
                        },
                    },
                    delay,
                });
            }
        }
    }

    /// An eviction writeback: accept words the sender still owns (stale
    /// words lost a racing transfer and are ignored) and ack.
    fn writeback(
        &mut self,
        now: Cycle,
        msg: &Msg,
        line: LineAddr,
        mask: WordMask,
        data: &LineData,
        out: &mut Vec<Action>,
    ) {
        self.core.counts.l2_accesses += 1;
        self.core.trace.l2_access(line);
        let delay = self.registry_op(now, line);
        let l = self.core.resident(line);
        for i in mask.iter() {
            if l.extra.0[i] == Some(msg.src) {
                l.extra.0[i] = None;
                l.set_word(i, WordState::Owned); // dirty at the L2 now
                l.data[i] = data[i];
            }
        }
        out.push(Action::Send {
            msg: Msg {
                src: msg.dst,
                dst: msg.src,
                dst_comp: Component::L1,
                kind: MsgKind::WbAck { line, mask },
            },
            delay,
        });
    }
}

/// Deterministic iteration order for per-owner forward maps.
fn sorted(m: FxHashMap<NodeId, WordMask>) -> Vec<(NodeId, WordMask)> {
    let mut v: Vec<_> = m.into_iter().collect();
    v.sort_by_key(|(n, _)| *n);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::testing::{run_handler, run_op};
    use gsim_trace::{FlushReason, RingRecorder, TraceEvent, TraceHandle};

    fn l1_at(node: u8) -> DnL1 {
        DnL1::new(DnConfig::micro15(NodeId(node)))
    }

    fn l2_with(words: &[(u64, Value)]) -> DnL2 {
        let mut mem = MemoryImage::new();
        for &(w, v) in words {
            mem.write_word(WordAddr(w), v);
        }
        DnL2::new(L2Config::default(), mem)
    }

    /// A tiny deterministic message pump over a set of L1s and the L2:
    /// delivers sends breadth-first and collects completions.
    fn pump(l1s: &mut [&mut DnL1], l2: &mut DnL2, actions: Vec<Action>) -> Vec<Action> {
        let mut queue: VecDeque<Action> = actions.into_iter().collect();
        let mut out = Vec::new();
        let mut replies = Vec::new();
        while let Some(a) = queue.pop_front() {
            let Action::Send { msg, .. } = a else {
                out.push(a);
                continue;
            };
            match msg.dst_comp {
                Component::L2 => l2.handle(0, &msg, &mut replies),
                Component::L1 => l1s
                    .iter_mut()
                    .find(|l| l.chassis().node() == msg.dst)
                    .expect("destination L1 exists")
                    .handle(&msg, &mut replies),
            }
            queue.extend(replies.drain(..));
        }
        out
    }

    #[test]
    fn load_miss_fills_line_then_hits() {
        let mut a = l1_at(0);
        let mut l2 = l2_with(&[(3, 30), (4, 40)]);
        let (issue, acts) = run_op(|o| a.load(WordAddr(3), Region::Default, ReqId(1), o));
        assert_eq!(issue, Issue::Pending);
        let done = pump(&mut [&mut a], &mut l2, acts);
        assert_eq!(done, vec![Action::complete(ReqId(1), 30)]);
        // The rest of the line came along.
        let (issue, _) = run_op(|o| a.load(WordAddr(4), Region::Default, ReqId(2), o));
        assert_eq!(issue, Issue::Hit(40));
    }

    #[test]
    fn store_registers_lazily_then_hits() {
        let mut a = l1_at(0);
        let mut l2 = l2_with(&[]);
        let (issue, acts) = run_op(|o| a.store(WordAddr(0), 7, o));
        assert_eq!(issue, Issue::Hit(0));
        assert!(acts.is_empty(), "no registration until the release");
        // Forwarding from the buffer.
        let (issue, _) = run_op(|o| a.load(WordAddr(0), Region::Default, ReqId(1), o));
        assert_eq!(issue, Issue::Hit(7));
        // Release registers and completes.
        let (issue, acts) = run_op(|o| a.release(false, ReqId(2), o));
        assert_eq!(issue, Issue::Pending);
        let done = pump(&mut [&mut a], &mut l2, acts);
        assert_eq!(done, vec![Action::complete(ReqId(2), 0)]);
        assert_eq!(a.chassis().counts().registrations, 1);
        // Registered: the next store to the word hits in place.
        let (issue, acts) = run_op(|o| a.store(WordAddr(0), 8, o));
        assert_eq!(issue, Issue::Hit(0));
        assert!(acts.is_empty());
        assert_eq!(a.chassis().counts().l1_store_hits, 1);
        assert!(a.quiesced());
        assert_eq!(a.owned_words(), vec![(WordAddr(0), 8)]);
    }

    #[test]
    fn registered_data_survives_acquire() {
        let mut a = l1_at(0);
        let mut l2 = l2_with(&[(16, 5)]);
        // Own word 0 (via store+release) and cache word 16 (via load).
        a.store(WordAddr(0), 1, &mut Vec::new());
        let (_, acts) = run_op(|o| a.release(false, ReqId(1), o));
        pump(&mut [&mut a], &mut l2, acts);
        let (_, acts) = run_op(|o| a.load(WordAddr(16), Region::Default, ReqId(2), o));
        pump(&mut [&mut a], &mut l2, acts);
        a.acquire(false);
        // Valid word gone, Registered word kept.
        let (issue, _) = run_op(|o| a.load(WordAddr(0), Region::Default, ReqId(3), o));
        assert_eq!(issue, Issue::Hit(1));
        let (issue, _) = run_op(|o| a.load(WordAddr(16), Region::Default, ReqId(4), o));
        assert_eq!(issue, Issue::Pending);
        assert!(a.chassis().counts().words_invalidated >= 1);
    }

    #[test]
    fn read_only_region_survives_acquire_under_ddro() {
        let mut a = DnL1::new(DnConfig {
            read_only_region: true,
            ..DnConfig::micro15(NodeId(0))
        });
        let mut l2 = l2_with(&[(0, 11), (16, 22)]);
        let (_, acts) = run_op(|o| a.load(WordAddr(0), Region::ReadOnly, ReqId(1), o));
        pump(&mut [&mut a], &mut l2, acts);
        let (_, acts) = run_op(|o| a.load(WordAddr(16), Region::Default, ReqId(2), o));
        pump(&mut [&mut a], &mut l2, acts);
        a.acquire(false);
        let (issue, _) = run_op(|o| a.load(WordAddr(0), Region::ReadOnly, ReqId(3), o));
        assert_eq!(issue, Issue::Hit(11), "read-only word survives");
        let (issue, _) = run_op(|o| a.load(WordAddr(16), Region::Default, ReqId(4), o));
        assert_eq!(issue, Issue::Pending, "default-region word invalidated");
    }

    #[test]
    fn ro_annotation_ignored_without_the_enhancement() {
        let mut a = l1_at(0); // plain DD
        let mut l2 = l2_with(&[(0, 11)]);
        let (_, acts) = run_op(|o| a.load(WordAddr(0), Region::ReadOnly, ReqId(1), o));
        pump(&mut [&mut a], &mut l2, acts);
        a.acquire(false);
        let (issue, _) = run_op(|o| a.load(WordAddr(0), Region::ReadOnly, ReqId(2), o));
        assert_eq!(issue, Issue::Pending);
    }

    #[test]
    fn sync_atomic_registers_then_hits_for_whole_cu() {
        let mut a = l1_at(0);
        let mut l2 = l2_with(&[(0, 100)]);
        let (issue, acts) =
            run_op(|o| a.atomic(WordAddr(0), AtomicOp::Add, [1, 0], false, ReqId(1), o));
        assert_eq!(issue, Issue::Pending);
        let done = pump(&mut [&mut a], &mut l2, acts);
        assert_eq!(done, vec![Action::complete(ReqId(1), 100)]);
        // Another thread block on the same CU: a pure L1 hit now.
        let (issue, acts) =
            run_op(|o| a.atomic(WordAddr(0), AtomicOp::Add, [1, 0], false, ReqId(2), o));
        assert_eq!(issue, Issue::Hit(101));
        assert!(acts.is_empty());
        assert_eq!(a.chassis().counts().l1_atomic_hits, 1);
    }

    #[test]
    fn same_cu_sync_coalesces_in_mshr() {
        let mut a = l1_at(0);
        let mut l2 = l2_with(&[(0, 0)]);
        let (_, acts1) =
            run_op(|o| a.atomic(WordAddr(0), AtomicOp::Add, [1, 0], false, ReqId(1), o));
        let (issue2, acts2) =
            run_op(|o| a.atomic(WordAddr(0), AtomicOp::Add, [1, 0], false, ReqId(2), o));
        assert_eq!(issue2, Issue::Pending);
        assert!(acts2.is_empty(), "coalesced: one registration in flight");
        let done = pump(&mut [&mut a], &mut l2, acts1);
        assert_eq!(
            done,
            vec![Action::complete(ReqId(1), 0), Action::complete(ReqId(2), 1)]
        );
    }

    #[test]
    fn ownership_transfers_between_cus() {
        let mut a = l1_at(0);
        let mut b = l1_at(1);
        let mut l2 = l2_with(&[(0, 50)]);
        // CU0 registers the sync word.
        let (_, acts) =
            run_op(|o| a.atomic(WordAddr(0), AtomicOp::Add, [1, 0], false, ReqId(1), o));
        pump(&mut [&mut a, &mut b], &mut l2, acts);
        // CU1 requests it: registry forwards to CU0, which transfers.
        let (issue, acts) =
            run_op(|o| b.atomic(WordAddr(0), AtomicOp::Add, [1, 0], false, ReqId(2), o));
        assert_eq!(issue, Issue::Pending);
        let done = pump(&mut [&mut a, &mut b], &mut l2, acts);
        assert_eq!(done, vec![Action::complete(ReqId(2), 51)]);
        assert_eq!(l2.chassis().counts().reg_forwards, 1);
        // CU0 no longer owns the word.
        assert!(a.owned_words().is_empty());
        assert_eq!(b.owned_words(), vec![(WordAddr(0), 52)]);
    }

    #[test]
    fn remote_read_forwarded_to_owner_keeps_ownership() {
        let mut a = l1_at(0);
        let mut b = l1_at(1);
        let mut l2 = l2_with(&[]);
        // CU0 owns word 0 with value 9 (store + release).
        a.store(WordAddr(0), 9, &mut Vec::new());
        let (_, acts) = run_op(|o| a.release(false, ReqId(1), o));
        pump(&mut [&mut a, &mut b], &mut l2, acts);
        // CU1 reads it: L2 forwards to CU0, extra hop, data arrives.
        let (issue, acts) = run_op(|o| b.load(WordAddr(0), Region::Default, ReqId(2), o));
        assert_eq!(issue, Issue::Pending);
        let done = pump(&mut [&mut a, &mut b], &mut l2, acts);
        assert_eq!(done, vec![Action::complete(ReqId(2), 9)]);
        assert_eq!(a.owned_words(), vec![(WordAddr(0), 9)], "still the owner");
    }

    #[test]
    fn racy_registrations_queue_at_pending_owner() {
        // CU1's registration is granted but the grant is held back; CU2's
        // request forwards to CU1 and must queue in CU1's MSHR, and is
        // served only after CU1's own (coalesced) ops.
        let mut a = l1_at(1);
        let mut b = l1_at(2);
        let mut l2 = l2_with(&[(0, 0)]);
        let (_, acts_a) =
            run_op(|o| a.atomic(WordAddr(0), AtomicOp::Add, [1, 0], false, ReqId(1), o));
        let (_, acts_a2) =
            run_op(|o| a.atomic(WordAddr(0), AtomicOp::Add, [1, 0], false, ReqId(2), o));
        assert!(acts_a2.is_empty());
        // CU1's RegReq reaches the registry first...
        let Action::Send { msg: reg_a, .. } = acts_a[0] else {
            panic!()
        };
        let grant_a = run_handler(|o| l2.handle(0, &reg_a, o));
        // ...then CU2's, which forwards to CU1 (now the owner of record).
        let (_, acts_b) =
            run_op(|o| b.atomic(WordAddr(0), AtomicOp::Add, [10, 0], false, ReqId(3), o));
        let Action::Send { msg: reg_b, .. } = acts_b[0] else {
            panic!()
        };
        let fwd_b = run_handler(|o| l2.handle(0, &reg_b, o));
        // Deliver the forward to CU1 BEFORE CU1's own grant: it queues.
        let mut fwd_actions = Vec::new();
        for f in &fwd_b {
            let Action::Send { msg, .. } = f else {
                panic!()
            };
            a.handle(msg, &mut fwd_actions);
        }
        assert!(fwd_actions.is_empty(), "forward queued, nothing served yet");
        assert_eq!(a.chassis().counts().reg_queued, 1);
        // Now CU1's grant lands: both local ops complete FIRST, then the
        // queued transfer releases to CU2, whose op completes last.
        let done = pump(&mut [&mut a, &mut b], &mut l2, grant_a);
        assert_eq!(
            done,
            vec![
                Action::complete(ReqId(1), 0),
                Action::complete(ReqId(2), 1),
                Action::complete(ReqId(3), 2),
            ]
        );
        assert_eq!(b.owned_words(), vec![(WordAddr(0), 12)]);
        assert!(a.owned_words().is_empty());
    }

    #[test]
    fn eviction_writes_back_ownership() {
        // A tiny 1-set x 2-way cache forces an eviction of owned data.
        let mut a = DnL1::new(DnConfig {
            l1: L1Config {
                geometry: gsim_mem::CacheGeometry {
                    size_bytes: 2 * gsim_types::LINE_BYTES,
                    ways: 2,
                },
                ..L1Config::micro15(NodeId(0))
            },
            read_only_region: false,
            delayed_local_ownership: false,
            sync_read_backoff: false,
        });
        let mut l2 = l2_with(&[]);
        // Own a word in each of 2 lines, then touch a third line.
        for line in 0..2u64 {
            a.store(LineAddr(line).word(0), line as Value + 1, &mut Vec::new());
        }
        let (_, acts) = run_op(|o| a.release(false, ReqId(1), o));
        pump(&mut [&mut a], &mut l2, acts);
        let (_, acts) = run_op(|o| a.load(LineAddr(2).word(0), Region::Default, ReqId(2), o));
        let done = pump(&mut [&mut a], &mut l2, acts);
        assert_eq!(done, vec![Action::complete(ReqId(2), 0)]);
        assert_eq!(a.chassis().counts().ownership_writebacks, 1);
        // The written-back value is now at the L2, not lost.
        l2.chassis_mut().flush_to_memory();
        let wb0 = l2.chassis().memory().read_word(WordAddr(0));
        let wb1 = l2
            .chassis()
            .memory()
            .read_word(LineAddr(1).word(0).addr().word());
        assert!(wb0 == 1 || wb1 == 2, "one of the two lines was evicted");
        assert!(a.quiesced());
    }

    #[test]
    fn registry_spills_owner_ids_across_bank_evictions() {
        let mut a = l1_at(0);
        let mut l2 = DnL2::new(
            L2Config {
                bank_geometry: gsim_mem::CacheGeometry {
                    size_bytes: 2 * gsim_types::LINE_BYTES,
                    ways: 2,
                },
                ..L2Config::default()
            },
            MemoryImage::new(),
        );
        // Own a word of line 0 (bank 0).
        a.store(WordAddr(0), 77, &mut Vec::new());
        let (_, acts) = run_op(|o| a.release(false, ReqId(1), o));
        pump(&mut [&mut a], &mut l2, acts);
        // Thrash bank 0 with other lines so line 0 is evicted.
        let mut b = l1_at(1);
        for k in 1..=2u64 {
            let line = LineAddr(k * 16); // all map to bank 0
            let (_, acts) = run_op(|o| b.load(line.word(0), Region::Default, ReqId(10 + k), o));
            pump(&mut [&mut a, &mut b], &mut l2, acts);
        }
        assert!(l2.chassis().counts().registry_overflow_words >= 1);
        // A third CU can still find the owner through the overflow table.
        let mut c = l1_at(2);
        let (_, acts) = run_op(|o| c.load(WordAddr(0), Region::Default, ReqId(20), o));
        let done = pump(&mut [&mut a, &mut b, &mut c], &mut l2, acts);
        assert_eq!(done, vec![Action::complete(ReqId(20), 77)]);
    }

    #[test]
    fn delayed_local_ownership_skips_registration() {
        let mut a = DnL1::new(DnConfig {
            delayed_local_ownership: true,
            ..DnConfig::micro15(NodeId(0))
        });
        let mut l2 = l2_with(&[(0, 5)]);
        // Local sync op: plain data fill, no registration.
        let (issue, acts) =
            run_op(|o| a.atomic(WordAddr(0), AtomicOp::Add, [1, 0], true, ReqId(1), o));
        assert_eq!(issue, Issue::Pending);
        let done = pump(&mut [&mut a], &mut l2, acts);
        assert_eq!(done, vec![Action::complete(ReqId(1), 5)]);
        assert_eq!(a.chassis().counts().registrations, 0);
        // The updated value is locally visible and hits.
        let (issue, _) =
            run_op(|o| a.atomic(WordAddr(0), AtomicOp::Add, [1, 0], true, ReqId(2), o));
        assert_eq!(issue, Issue::Hit(6));
        // A global release registers the buffered result.
        let (_, acts) = run_op(|o| a.release(false, ReqId(3), o));
        let done = pump(&mut [&mut a], &mut l2, acts);
        assert_eq!(done, vec![Action::complete(ReqId(3), 0)]);
        assert_eq!(a.owned_words(), vec![(WordAddr(0), 7)]);
    }

    #[test]
    fn delayed_ownership_overflow_opens_a_flush_span() {
        let mut a = DnL1::new(DnConfig {
            l1: L1Config {
                sb_entries: 1,
                ..L1Config::micro15(NodeId(0))
            },
            delayed_local_ownership: true,
            ..DnConfig::micro15(NodeId(0))
        });
        let trace = TraceHandle::new(RingRecorder::new(256));
        a.chassis_mut().set_trace(&trace);
        let mut l2 = l2_with(&[(0, 5), (16, 7), (32, 9)]);
        fn local_add(a: &mut DnL1, l2: &mut DnL2, w: u64, req: u64) {
            let (_, acts) =
                run_op(|o| a.atomic(WordAddr(w), AtomicOp::Add, [1, 0], true, ReqId(req), o));
            pump(&mut [a], l2, acts);
        }
        // Line 0's result fills the one-entry buffer; line 1's, buffered
        // by the fill's `DelayedAtomic` waiter, displaces it.
        local_add(&mut a, &mut l2, 0, 1);
        local_add(&mut a, &mut l2, 16, 2);
        // A hit in `delayed_atomic` displaces line 1 in turn.
        let (_, acts) = run_op(|o| a.load(WordAddr(32), Region::Default, ReqId(3), o));
        pump(&mut [&mut a], &mut l2, acts);
        local_add(&mut a, &mut l2, 32, 4);
        assert_eq!(a.chassis().counts().sb_overflow_flushes, 2);
        let spans: Vec<TraceEvent> = trace
            .recorder()
            .expect("ring-recorded handle")
            .borrow()
            .events()
            .map(|&(_, e)| e)
            .filter(|e| {
                matches!(
                    e,
                    TraceEvent::SbFlushBegin { .. } | TraceEvent::SbFlushEnd { .. }
                )
            })
            .collect();
        let begin = TraceEvent::SbFlushBegin {
            node: NodeId(0),
            reason: FlushReason::Overflow,
            pending: 1,
        };
        let end = TraceEvent::SbFlushEnd { node: NodeId(0) };
        assert_eq!(spans, vec![begin, end, begin, end]);
    }

    #[test]
    fn local_scope_skips_invalidate_and_flush() {
        let mut a = l1_at(0);
        let mut l2 = l2_with(&[(16, 9)]);
        let (_, acts) = run_op(|o| a.load(WordAddr(16), Region::Default, ReqId(1), o));
        pump(&mut [&mut a], &mut l2, acts);
        a.store(WordAddr(0), 1, &mut Vec::new());
        a.acquire(true);
        let (issue, acts) = run_op(|o| a.release(true, ReqId(2), o));
        assert_eq!(issue, Issue::Hit(0));
        assert!(acts.is_empty());
        let (issue, _) = run_op(|o| a.load(WordAddr(16), Region::Default, ReqId(3), o));
        assert_eq!(issue, Issue::Hit(9), "valid data survives local acquire");
        assert_eq!(
            a.chassis().counts().registrations,
            0,
            "local release registers nothing"
        );
    }

    #[test]
    fn partial_line_read_moves_only_useful_words() {
        // CU0 owns words 0..8 of a line; CU1 reads word 15: the L2
        // supplies what it has and only forwards the owned words.
        let mut a = l1_at(0);
        let mut b = l1_at(1);
        let mut l2 = l2_with(&[(15, 3)]);
        for i in 0..8 {
            a.store(WordAddr(i), i as Value, &mut Vec::new());
        }
        let (_, acts) = run_op(|o| a.release(false, ReqId(1), o));
        pump(&mut [&mut a, &mut b], &mut l2, acts);
        let (_, acts) = run_op(|o| b.load(WordAddr(15), Region::Default, ReqId(2), o));
        // Inspect the response sizes: the L2's direct response covers the
        // 8 unowned words, the forward covers the 8 owned ones.
        let done = pump(&mut [&mut a, &mut b], &mut l2, acts);
        assert_eq!(done, vec![Action::complete(ReqId(2), 3)]);
        // CU1 now has the whole line readable (8 from L2 + 8 forwarded).
        for i in 0..8 {
            let (issue, _) = run_op(|o| b.load(WordAddr(i), Region::Default, ReqId(10 + i), o));
            assert_eq!(issue, Issue::Hit(i as Value));
        }
    }

    #[test]
    #[should_panic(expected = "racy under DRF")]
    fn atomic_over_buffered_store_is_rejected() {
        let mut a = l1_at(0);
        a.store(WordAddr(0), 1, &mut Vec::new());
        let _ = run_op(|o| a.atomic(WordAddr(0), AtomicOp::Add, [1, 0], false, ReqId(1), o));
    }

    #[test]
    fn sync_read_backoff_escalates_and_resets() {
        let mut a = DnL1::new(DnConfig {
            sync_read_backoff: true,
            ..DnConfig::micro15(NodeId(0))
        });
        let mut b = l1_at(1);
        let mut l2 = l2_with(&[(0, 0)]);
        fn read(l1: &mut DnL1, req: u64) -> (Issue, Vec<Action>) {
            run_op(|o| l1.atomic(WordAddr(0), AtomicOp::Read, [0, 0], false, ReqId(req), o))
        }
        // CU0 registers the word via a sync read; CU1 steals it before
        // CU0 reuses it — read-read contention.
        let (_, acts) = read(&mut a, 1);
        pump(&mut [&mut a, &mut b], &mut l2, acts);
        let (_, acts) = read(&mut b, 2);
        pump(&mut [&mut a, &mut b], &mut l2, acts);
        // CU0's next read backs off once, then goes through.
        let (issue, _) = read(&mut a, 3);
        assert!(
            matches!(issue, Issue::RetryAfter(d) if d >= BACKOFF_BASE),
            "expected a backoff, got {issue:?}"
        );
        let (issue, acts) = read(&mut a, 3);
        assert_eq!(issue, Issue::Pending, "primed attempt issues");
        pump(&mut [&mut a, &mut b], &mut l2, acts);
        // A successful local reuse resets the backoff...
        let (issue, _) = read(&mut a, 4);
        assert_eq!(issue, Issue::Hit(0));
        // ...so a steal after a *productive* grant costs no backoff:
        // the next read registers immediately.
        let (_, acts) = read(&mut b, 5);
        pump(&mut [&mut a, &mut b], &mut l2, acts);
        let (issue, acts) = read(&mut a, 6);
        assert_eq!(issue, Issue::Pending, "no backoff after a reused grant");
        pump(&mut [&mut a, &mut b], &mut l2, acts);
    }

    #[test]
    fn backoff_disabled_by_default() {
        let mut a = l1_at(0);
        let mut b = l1_at(1);
        let mut l2 = l2_with(&[(0, 0)]);
        for round in 0..3u64 {
            let (_, acts) = run_op(|o| {
                a.atomic(
                    WordAddr(0),
                    AtomicOp::Read,
                    [0, 0],
                    false,
                    ReqId(round * 2),
                    o,
                )
            });
            pump(&mut [&mut a, &mut b], &mut l2, acts);
            let (_, acts) = run_op(|o| {
                b.atomic(
                    WordAddr(0),
                    AtomicOp::Read,
                    [0, 0],
                    false,
                    ReqId(round * 2 + 1),
                    o,
                )
            });
            pump(&mut [&mut a, &mut b], &mut l2, acts);
        }
        // DeNovoSync0: never a backoff, always registration.
        let (issue, _) =
            run_op(|o| a.atomic(WordAddr(0), AtomicOp::Read, [0, 0], false, ReqId(99), o));
        assert!(!matches!(issue, Issue::RetryAfter(_)));
    }

    #[test]
    fn retry_when_mshr_full() {
        let mut a = DnL1::new(DnConfig {
            l1: L1Config {
                mshr_entries: 1,
                ..L1Config::micro15(NodeId(0))
            },
            read_only_region: false,
            delayed_local_ownership: false,
            sync_read_backoff: false,
        });
        let (i1, _) = run_op(|o| a.load(WordAddr(0), Region::Default, ReqId(1), o));
        assert_eq!(i1, Issue::Pending);
        let (i2, _) = run_op(|o| a.load(LineAddr(1).word(0), Region::Default, ReqId(2), o));
        assert_eq!(i2, Issue::Retry);
        let (i3, _) = run_op(|o| {
            a.atomic(
                LineAddr(2).word(0),
                AtomicOp::Add,
                [1, 0],
                false,
                ReqId(3),
                o,
            )
        });
        assert_eq!(i3, Issue::Retry);
    }

    #[test]
    fn data_grant_beats_stale_read_fill() {
        // A read fill arriving after a word became Registered must not
        // downgrade it or clobber the registered value.
        let mut a = l1_at(0);
        let mut l2 = l2_with(&[(1, 111)]);
        // Start a read of word 1 (fetches the whole line) but hold the
        // response back.
        let (_, read_acts) = run_op(|o| a.load(WordAddr(1), Region::Default, ReqId(1), o));
        let Action::Send { msg: read_req, .. } = read_acts[0] else {
            panic!()
        };
        let read_resp = run_handler(|o| l2.handle(0, &read_req, o));
        // Meanwhile word 0 is stored and registered.
        a.store(WordAddr(0), 42, &mut Vec::new());
        let (_, rel_acts) = run_op(|o| a.release(false, ReqId(2), o));
        pump(&mut [&mut a], &mut l2, rel_acts);
        assert_eq!(a.owned_words(), vec![(WordAddr(0), 42)]);
        // Now the stale read response lands.
        pump(&mut [&mut a], &mut l2, read_resp);
        assert_eq!(a.owned_words(), vec![(WordAddr(0), 42)], "not clobbered");
        let (issue, _) = run_op(|o| a.load(WordAddr(0), Region::Default, ReqId(3), o));
        assert_eq!(issue, Issue::Hit(42));
    }
}
