//! Conventional GPU software coherence (the paper's GPU-D and GPU-H).
//!
//! The protocol (paper §3) has no writer-initiated invalidations, no
//! ownership, and no directory:
//!
//! * **Loads** hit on valid words; misses fetch whole 64 B lines from the
//!   shared L2 (the home bank, `line % banks`).
//! * **Stores** are buffered and coalesced in the store buffer and written
//!   through to the L2 — at a release, or early when the buffer
//!   overflows.
//! * **Acquires** flash-invalidate the entire L1.
//! * **Releases** drain the store buffer and wait until every
//!   writethrough has reached the L2 (its ack returned).
//! * **Global synchronization** executes remotely at the L2 bank
//!   ([`MsgKind::AtomicReq`]); under HRF, *locally scoped*
//!   synchronization executes at the L1 on the line's local copy, and
//!   locally scoped acquires/releases skip the invalidate/flush
//!   ([`GpuL1`] receives `local = true` and does nothing).
//!
//! GPU-D and GPU-H share this implementation: the consistency model only
//! changes which operations the core model marks `local` (never, for
//! DRF).

use crate::action::{Action, Issue};
use gsim_mem::{
    CacheArray, CacheGeometry, Dram, DramConfig, InsertOutcome, MemoryImage, MshrFile, StoreBuffer,
    WordState,
};
use gsim_trace::{FlushReason, Level, TraceEvent, TraceHandle, WState};
use gsim_types::{
    AtomicOp, Component, Counts, Cycle, FxHashMap, LineAddr, Msg, MsgKind, NodeId, ReqId, Scope,
    SyncOrd, Value, WordAddr, WordMask, WORDS_PER_LINE,
};
use std::collections::VecDeque;

/// What a thread block is waiting on when its line fill returns.
#[derive(Clone, Copy, Debug)]
enum Waiter {
    /// A demand load of one word.
    Load { req: ReqId, word: WordAddr },
    /// A locally scoped atomic that missed and needs the line first.
    LocalAtomic {
        req: ReqId,
        word: WordAddr,
        op: AtomicOp,
        operands: [Value; 2],
    },
}

/// Sizing and placement parameters shared by both L1 protocol families.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct L1Config {
    /// This L1's mesh node.
    pub node: NodeId,
    /// Cache geometry (paper Table 3: 32 KB, 8-way).
    pub geometry: CacheGeometry,
    /// Store-buffer capacity in line entries (paper Table 3: 256).
    pub sb_entries: usize,
    /// Maximum outstanding miss lines.
    pub mshr_entries: usize,
    /// Number of L2 banks (= mesh nodes; the home bank of line `l` is
    /// node `l % banks`).
    pub banks: u8,
}

impl L1Config {
    /// The paper's Table 3 parameters for the L1 at `node`.
    pub fn micro15(node: NodeId) -> Self {
        L1Config {
            node,
            geometry: CacheGeometry::l1(),
            sb_entries: 256,
            mshr_entries: 32,
            banks: 16,
        }
    }

    /// The home L2 bank of a line.
    #[inline]
    pub fn home(&self, line: LineAddr) -> NodeId {
        NodeId((line.0 % self.banks as u64) as u8)
    }
}

/// The per-CU L1 controller of conventional GPU coherence.
///
/// See the [module documentation](self) for the protocol. The controller
/// is a pure state machine: operations and message deliveries append
/// [`Action`]s to the caller's sink for the engine to perform.
#[derive(Debug)]
pub struct GpuL1 {
    config: L1Config,
    cache: CacheArray<()>,
    sb: StoreBuffer,
    mshr: MshrFile<Waiter, ()>,
    /// Writethroughs in flight (awaiting [`MsgKind::WtAck`]).
    pending_wt: u64,
    /// Per-line words with a writethrough in flight, and how many acks
    /// are owed. A fill must not install these words: its data may
    /// predate the writethrough at the L2, and the store-buffer entry
    /// that would have shadowed it is already gone.
    wt_inflight: FxHashMap<LineAddr, (u32, WordMask)>,
    /// Bumped by every global acquire. Fills for requests issued in an
    /// older epoch deliver data to their (pre-acquire) waiters but do
    /// not install it — installing would let post-acquire loads read
    /// pre-acquire line contents (stale under DRF).
    epoch: u64,
    /// The epoch each outstanding miss line was requested in.
    entry_epoch: FxHashMap<LineAddr, u64>,
    /// Releases blocked until `pending_wt` reaches zero.
    pending_releases: Vec<ReqId>,
    /// Globally scoped atomics outstanding at the L2, per word, in issue
    /// order (responses on one src/dst pair arrive in order).
    pending_atomics: FxHashMap<WordAddr, VecDeque<ReqId>>,
    counts: Counts,
    trace: TraceHandle,
    /// Whether an `SbFlushBegin` trace event is awaiting its matching
    /// end (emitted when `pending_wt` returns to zero).
    sb_draining: bool,
}

impl GpuL1 {
    /// Creates the L1 controller for `config.node`.
    pub fn new(config: L1Config) -> Self {
        GpuL1 {
            cache: CacheArray::new(config.geometry),
            sb: StoreBuffer::new(config.sb_entries),
            mshr: MshrFile::new(config.mshr_entries),
            pending_wt: 0,
            wt_inflight: FxHashMap::default(),
            epoch: 0,
            entry_epoch: FxHashMap::default(),
            pending_releases: Vec::new(),
            pending_atomics: FxHashMap::default(),
            counts: Counts::default(),
            trace: TraceHandle::disabled(),
            sb_draining: false,
            config,
        }
    }

    /// Installs the run's trace handle: protocol, cache, store-buffer
    /// and MSHR events, the demand stream, acquire sweeps and fills are
    /// reported through it from then on. Observation-only.
    pub fn set_trace(&mut self, trace: &TraceHandle) {
        self.trace = trace.share();
    }

    /// Store-buffer entries currently held (profiler occupancy gauge).
    pub fn sb_occupancy(&self) -> usize {
        self.sb.len()
    }

    /// Outstanding MSHR lines (profiler occupancy gauge).
    pub fn mshr_outstanding(&self) -> usize {
        self.mshr.outstanding()
    }

    /// Emits the `SbFlushBegin` trace event and arms the matching end
    /// (fired when `pending_wt` drains back to zero).
    fn begin_sb_drain(&mut self, reason: FlushReason, pending: u32) {
        if !self.sb_draining {
            self.sb_draining = true;
            let node = self.config.node;
            self.trace.emit(|| TraceEvent::SbFlushBegin {
                node,
                reason,
                pending,
            });
        }
    }

    /// Event counters accumulated so far.
    pub fn counts(&self) -> &Counts {
        &self.counts
    }

    /// The mesh node this L1 lives on.
    pub fn node(&self) -> NodeId {
        self.config.node
    }

    /// Whether any writethrough, fill, or atomic is still in flight.
    pub fn quiesced(&self) -> bool {
        self.sb.is_empty()
            && self.pending_wt == 0
            && self.wt_inflight.is_empty()
            && self.entry_epoch.is_empty()
            && self.pending_releases.is_empty()
            && self.pending_atomics.values().all(|q| q.is_empty())
            && self.mshr.outstanding() == 0
    }

    /// Readable words left in the cache right after a global acquire —
    /// must be zero: the flash invalidate clears every Valid word, no
    /// word is ever Owned here, and dirty data lives only in the store
    /// buffer (which legally survives the acquire).
    pub fn post_acquire_residue(&self) -> u64 {
        let mut words = 0u64;
        for l in self.cache.iter() {
            words += u64::from(l.readable_mask().count());
        }
        words
    }

    /// Words whose valid and owned masks overlap, across all lines.
    /// Structurally impossible with the two-bitmap line representation;
    /// audited anyway so a future representation change cannot silently
    /// break the three-state model.
    pub fn state_mask_overlaps(&self) -> u64 {
        let mut words = 0u64;
        for l in self.cache.iter() {
            words += u64::from((l.mask_in(WordState::Valid) & l.mask_in(WordState::Owned)).count());
        }
        words
    }

    /// Store-buffer entries currently pending (line, dirty mask).
    pub fn sb_entries(&self) -> Vec<(LineAddr, WordMask)> {
        self.sb.pending_entries()
    }

    /// Names every resource still allocated after the run drained, each
    /// paired with the trace event that allocated it. Empty iff
    /// [`quiesced`](Self::quiesced) and the store buffer is empty.
    pub fn quiesce_leaks(&self) -> Vec<String> {
        let n = self.config.node;
        let mut leaks = Vec::new();
        for (line, mask) in self.mshr.outstanding_lines() {
            leaks.push(format!(
                "{n}: MSHR entry for line {} ({} word(s) pending; alloc event: mshr-alloc)",
                line.0,
                mask.count()
            ));
        }
        for (line, mask) in self.sb.pending_entries() {
            leaks.push(format!(
                "{n}: store-buffer entry for line {} ({} dirty word(s); alloc event: sb-flush)",
                line.0,
                mask.count()
            ));
        }
        if self.pending_wt > 0 {
            leaks.push(format!(
                "{n}: {} writethrough ack(s) outstanding (alloc event: sb-flush)",
                self.pending_wt
            ));
        }
        let mut wt: Vec<_> = self.wt_inflight.iter().collect();
        wt.sort_by_key(|(&l, _)| l);
        for (&line, &(acks, _)) in wt {
            leaks.push(format!(
                "{n}: {acks} writethrough(s) in flight for line {} (alloc event: msg-send)",
                line.0
            ));
        }
        let mut ee: Vec<_> = self.entry_epoch.keys().copied().collect();
        ee.sort();
        for line in ee {
            leaks.push(format!(
                "{n}: miss-epoch record for line {} (alloc event: mshr-alloc)",
                line.0
            ));
        }
        for req in &self.pending_releases {
            leaks.push(format!(
                "{n}: release {req:?} never completed (alloc event: release)"
            ));
        }
        let mut at: Vec<_> = self
            .pending_atomics
            .iter()
            .filter(|(_, q)| !q.is_empty())
            .collect();
        at.sort_by_key(|(&w, _)| w);
        for (&word, q) in at {
            leaks.push(format!(
                "{n}: {} atomic(s) outstanding on word {} (alloc event: atomic)",
                q.len(),
                word.0
            ));
        }
        leaks
    }

    /// Test-only: plants an MSHR entry that will never complete, so the
    /// quiesce audit's leak naming can be exercised end to end.
    #[doc(hidden)]
    pub fn debug_leak_mshr_entry(&mut self, line: LineAddr) {
        self.mshr.request(
            line,
            WordMask::single(0),
            Waiter::Load {
                req: ReqId(u64::MAX),
                word: line.word(0),
            },
        );
    }

    /// Test-only: plants a store-buffer word that no release will drain
    /// (bypassing the overflow path), for the leak-naming tests.
    #[doc(hidden)]
    pub fn debug_leak_sb_word(&mut self, word: WordAddr, value: Value) {
        let _ = self.sb.write(word, value);
    }

    fn msg_to_home(&self, line: LineAddr, kind: MsgKind) -> Msg {
        Msg {
            src: self.config.node,
            dst: self.config.home(line),
            dst_comp: Component::L2,
            kind,
        }
    }

    /// Sends one writethrough, recording its in-flight words so racing
    /// fills do not resurrect stale values.
    fn send_writethrough(&mut self, e: gsim_mem::SbEntry, out: &mut Vec<Action>) {
        self.pending_wt += 1;
        let slot = self.wt_inflight.entry(e.line).or_default();
        slot.0 += 1;
        slot.1 |= e.mask;
        out.push(Action::send(self.msg_to_home(
            e.line,
            MsgKind::WriteThrough {
                line: e.line,
                mask: e.mask,
                data: e.data,
            },
        )));
    }

    /// Buffers a store, emitting the overflow writethrough if the oldest
    /// entry is displaced.
    fn buffer_store(&mut self, word: WordAddr, value: Value, out: &mut Vec<Action>) {
        if let gsim_mem::StoreOutcome::Overflow(e) = self.sb.write(word, value) {
            self.counts.sb_overflow_flushes += 1;
            let pending = e.mask.count();
            self.begin_sb_drain(FlushReason::Overflow, pending);
            self.send_writethrough(e, out);
        }
    }

    /// The freshest locally visible value of `word`, if any: the store
    /// buffer shadows the cache.
    fn local_value(&mut self, word: WordAddr) -> Option<Value> {
        if let Some(v) = self.sb.lookup(word) {
            return Some(v);
        }
        let line = self.cache.lookup(word.line())?;
        let i = word.index_in_line();
        line.word(i).readable().then(|| line.data[i])
    }

    /// A demand load of `word`.
    pub fn load(&mut self, word: WordAddr, req: ReqId, out: &mut Vec<Action>) -> Issue {
        if let Some(v) = self.local_value(word) {
            self.counts.l1_accesses += 1;
            self.counts.l1_load_hits += 1;
            self.trace.l1_access(self.config.node, word.line(), true);
            return Issue::Hit(v);
        }
        let line = word.line();
        if !self.mshr.has_room_for(line) || self.entry_is_stale(line) {
            return Issue::Retry;
        }
        self.counts.l1_accesses += 1;
        self.counts.l1_load_misses += 1;
        self.trace.l1_access(self.config.node, line, false);
        self.trace.l1_miss(self.config.node, word, req);
        self.entry_epoch.entry(line).or_insert(self.epoch);
        let was_pending = self.mshr.is_pending(line);
        let to_send = self
            .mshr
            .request(line, WordMask::full(), Waiter::Load { req, word });
        if !was_pending {
            self.emit_mshr_alloc(line);
        }
        if !to_send.is_empty() {
            out.push(Action::send(self.msg_to_home(
                line,
                MsgKind::ReadReq {
                    line,
                    mask: WordMask::full(),
                    requester: self.config.node,
                },
            )));
        }
        Issue::Pending
    }

    /// A data store: write-update the local copy and buffer the
    /// writethrough. Never blocks (overflow evicts the oldest entry).
    pub fn store(&mut self, word: WordAddr, value: Value, out: &mut Vec<Action>) -> Issue {
        self.counts.l1_accesses += 1;
        self.trace.l1_write(self.config.node, word, false);
        let i = word.index_in_line();
        if let Some(line) = self.cache.lookup(word.line()) {
            line.data[i] = value;
            line.set_word(i, WordState::Valid);
        }
        self.buffer_store(word, value, out);
        Issue::Hit(0)
    }

    /// A synchronization access. Globally scoped atomics execute remotely
    /// at the line's home L2 bank; locally scoped atomics (`local`,
    /// GPU-H only) execute here on the L1 copy.
    #[allow(clippy::too_many_arguments)]
    pub fn atomic(
        &mut self,
        word: WordAddr,
        op: AtomicOp,
        operands: [Value; 2],
        ord: SyncOrd,
        local: bool,
        req: ReqId,
        out: &mut Vec<Action>,
    ) -> Issue {
        if !local {
            let msg = self.msg_to_home(
                word.line(),
                MsgKind::AtomicReq {
                    word,
                    op,
                    operands,
                    ord,
                    scope: Scope::Global,
                    requester: self.config.node,
                },
            );
            self.pending_atomics.entry(word).or_default().push_back(req);
            out.push(Action::send(msg));
            return Issue::Pending;
        }
        if let Some(current) = self.local_value(word) {
            self.counts.l1_accesses += 1;
            self.counts.l1_atomics += 1;
            self.counts.l1_atomic_hits += 1;
            let (new, old) = op.apply(current, operands);
            self.apply_local_write(word, new, op, out);
            return Issue::Hit(old);
        }
        let line = word.line();
        if !self.mshr.has_room_for(line) || self.entry_is_stale(line) {
            return Issue::Retry;
        }
        self.counts.l1_accesses += 1;
        self.counts.l1_atomics += 1;
        self.entry_epoch.entry(line).or_insert(self.epoch);
        let was_pending = self.mshr.is_pending(line);
        let to_send = self.mshr.request(
            line,
            WordMask::full(),
            Waiter::LocalAtomic {
                req,
                word,
                op,
                operands,
            },
        );
        if !was_pending {
            self.emit_mshr_alloc(line);
        }
        if !to_send.is_empty() {
            out.push(Action::send(self.msg_to_home(
                line,
                MsgKind::ReadReq {
                    line,
                    mask: WordMask::full(),
                    requester: self.config.node,
                },
            )));
        }
        Issue::Pending
    }

    /// Applies the write half of a locally performed atomic: update the
    /// cache copy and buffer the (eventual) writethrough.
    fn apply_local_write(
        &mut self,
        word: WordAddr,
        new: Value,
        op: AtomicOp,
        out: &mut Vec<Action>,
    ) {
        if !op.writes() {
            return;
        }
        let i = word.index_in_line();
        if let Some(line) = self.cache.lookup(word.line()) {
            line.data[i] = new;
            line.set_word(i, WordState::Valid);
        }
        self.trace.l1_write(self.config.node, word, true);
        self.buffer_store(word, new, out);
    }

    /// An acquire: flash-invalidate the whole cache (global scope), or
    /// nothing (local scope, GPU-H). Dirty data survives in the store
    /// buffer and keeps shadowing the cache.
    pub fn acquire(&mut self, local: bool) {
        if local {
            return;
        }
        self.epoch += 1; // in-flight fills must not install post-acquire
        self.counts.flash_invalidations += 1;
        let mut invalidated: u64 = 0;
        let (trace, node) = (&self.trace, self.config.node);
        trace.flash(node);
        self.cache.for_each_line_mut(|l| {
            let v = l.invalidate_valid(WordMask::empty());
            invalidated += u64::from(v.count());
            if !v.is_empty() {
                trace.invalidated(node, l.tag, v);
            }
        });
        self.counts.words_invalidated += invalidated;
        self.trace.emit(|| TraceEvent::SyncAcquire {
            node,
            scope: Scope::Global,
            invalidated,
            flash: true,
        });
    }

    /// A release: flush the store buffer and wait for every writethrough
    /// (including earlier overflow flushes) to reach the L2. Locally
    /// scoped releases (GPU-H) complete immediately.
    pub fn release(&mut self, local: bool, req: ReqId, out: &mut Vec<Action>) -> Issue {
        if local {
            return Issue::Hit(0);
        }
        let node = self.config.node;
        self.trace.emit(|| TraceEvent::SyncRelease {
            node,
            scope: Scope::Global,
        });
        let pending = self.sb.len() as u32;
        while let Some(e) = self.sb.pop_oldest() {
            self.counts.sb_release_flushes += 1;
            self.send_writethrough(e, out);
        }
        if self.pending_wt == 0 {
            Issue::Hit(0)
        } else {
            self.begin_sb_drain(FlushReason::Release, pending);
            self.pending_releases.push(req);
            Issue::Pending
        }
    }

    /// Delivers a network message to this L1.
    ///
    /// # Panics
    ///
    /// Panics on message kinds conventional GPU coherence never receives
    /// (registration grants, forwards, recalls) — a protocol bug.
    pub fn handle(&mut self, msg: &Msg, out: &mut Vec<Action>) {
        match msg.kind {
            MsgKind::ReadResp { line, mask, data } => self.fill(line, mask, &data, out),
            MsgKind::WtAck { line } => {
                self.pending_wt -= 1;
                if let Some(slot) = self.wt_inflight.get_mut(&line) {
                    slot.0 -= 1;
                    if slot.0 == 0 {
                        self.wt_inflight.remove(&line);
                    }
                }
                if self.pending_wt == 0 {
                    if self.sb_draining {
                        self.sb_draining = false;
                        let node = self.config.node;
                        self.trace.emit(|| TraceEvent::SbFlushEnd { node });
                    }
                    out.extend(
                        self.pending_releases
                            .drain(..)
                            .map(|req| Action::complete(req, 0)),
                    );
                }
            }
            MsgKind::AtomicResp { word, old } => {
                let req = self
                    .pending_atomics
                    .get_mut(&word)
                    .and_then(|q| q.pop_front())
                    .expect("atomic response without a pending request");
                out.push(Action::complete(req, old));
            }
            ref k => panic!("GPU L1 received unexpected message {k:?}"),
        }
    }

    /// Emits the `MshrAlloc` trace event for a freshly allocated entry.
    fn emit_mshr_alloc(&mut self, line: LineAddr) {
        let (node, outstanding) = (self.config.node, self.mshr.outstanding() as u32);
        self.trace.emit(|| TraceEvent::MshrAlloc {
            node,
            line,
            outstanding,
        });
    }

    /// Whether the outstanding miss on `line` predates the last acquire.
    fn entry_is_stale(&self, line: LineAddr) -> bool {
        self.entry_epoch.get(&line).is_some_and(|&e| e < self.epoch)
    }

    /// Applies a line fill and services the waiters.
    ///
    /// Two squash rules keep fills from resurrecting stale data:
    /// words with a writethrough in flight are not installed (the fill
    /// may predate the writethrough at the L2), and fills whose request
    /// predates the last acquire install nothing at all — their waiters
    /// are pre-acquire accesses and are served straight from the fill.
    fn fill(
        &mut self,
        line: LineAddr,
        mask: WordMask,
        data: &[Value; WORDS_PER_LINE],
        out: &mut Vec<Action>,
    ) {
        let stale = self.entry_is_stale(line);
        if !stale {
            let skip = self.wt_inflight.get(&line).map(|s| s.1).unwrap_or_default();
            // GPU victims are clean: silent drop.
            if let InsertOutcome::Evicted(victim) = self.cache.insert(line) {
                let node = self.config.node;
                self.trace.emit(|| TraceEvent::Eviction {
                    node,
                    level: Level::L1,
                    line: victim.tag,
                    owned_words: 0,
                });
            }
            let installed = (mask & !skip).count();
            if installed > 0 {
                let node = self.config.node;
                self.trace.emit(|| TraceEvent::StateChange {
                    node,
                    level: Level::L1,
                    line,
                    words: installed,
                    from: WState::Invalid,
                    to: WState::Valid,
                });
            }
            self.trace
                .filled(self.config.node, line, mask & !skip, false);
            let entry = self.cache.lookup(line).expect("just inserted");
            entry.fill(mask & !skip, data, WordState::Valid);
            // Local pending stores are newer than the L2's copy: re-apply
            // them so the cached words never go stale once the buffer
            // drains.
            for i in mask.iter() {
                if let Some(v) = self.sb.lookup(line.word(i)) {
                    entry.data[i] = v;
                    entry.set_word(i, WordState::Valid);
                }
            }
        }
        let (done, _) = self.mshr.complete(line, mask);
        if !self.mshr.is_pending(line) {
            self.entry_epoch.remove(&line);
            let (node, waiters) = (self.config.node, done.len() as u32);
            self.trace.emit(|| TraceEvent::MshrRetire {
                node,
                line,
                waiters,
            });
        }
        for w in done {
            match w {
                Waiter::Load { req, word } => {
                    let v = self.local_value(word).unwrap_or(data[word.index_in_line()]);
                    out.push(Action::complete(req, v));
                }
                Waiter::LocalAtomic {
                    req,
                    word,
                    op,
                    operands,
                } => {
                    let current = self.local_value(word).unwrap_or(data[word.index_in_line()]);
                    let (new, old) = op.apply(current, operands);
                    self.apply_local_write(word, new, op, out);
                    out.push(Action::complete(req, old));
                }
            }
        }
    }
}

/// Timing and sizing of the shared L2.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct L2Config {
    /// Bank access latency in cycles (tag + data array).
    pub latency: Cycle,
    /// Per-bank cache geometry (paper Table 3: 4 MB / 16 banks).
    pub bank_geometry: CacheGeometry,
    /// Number of banks (one per mesh node).
    pub banks: usize,
    /// Backing DRAM timing.
    pub dram: DramConfig,
}

impl Default for L2Config {
    fn default() -> Self {
        // `latency` is calibrated (with the mesh) so end-to-end L2 hits
        // land in Table 3's 29-61 cycle range; see gsim-core's tests.
        L2Config {
            latency: 26,
            bank_geometry: CacheGeometry::l2_bank(),
            banks: 16,
            dram: DramConfig::default(),
        }
    }
}

/// The shared L2 of conventional GPU coherence: all 16 NUCA banks plus
/// the backing DRAM and the functional memory image.
///
/// One instance serves every bank; the engine routes a message here
/// whenever `dst_comp == Component::L2`, and the bank is implied by the
/// line address (`line % banks == dst node`).
#[derive(Debug)]
pub struct GpuL2 {
    config: L2Config,
    banks: Vec<CacheArray<()>>,
    /// Per-bank in-order pipeline: the cycle each bank next accepts a
    /// request. A bank blocked on a DRAM fill delays later requests, so
    /// responses leave every bank in arrival order — the point-to-point
    /// ordering the L1 controllers rely on.
    bank_busy: Vec<Cycle>,
    memory: MemoryImage,
    dram: Dram,
    counts: Counts,
    trace: TraceHandle,
}

impl GpuL2 {
    /// Creates the shared L2 over an initial memory image.
    pub fn new(config: L2Config, memory: MemoryImage) -> Self {
        GpuL2 {
            banks: (0..config.banks)
                .map(|_| CacheArray::new(config.bank_geometry))
                .collect(),
            bank_busy: vec![0; config.banks],
            dram: Dram::new(config.dram),
            memory,
            counts: Counts::default(),
            trace: TraceHandle::disabled(),
            config,
        }
    }

    /// Installs the run's trace handle: bank evictions and bank
    /// operations are reported through it from then on.
    /// Observation-only.
    pub fn set_trace(&mut self, trace: &TraceHandle) {
        self.trace = trace.share();
    }

    /// Starts a bank operation on `line` at `now`: waits for the bank,
    /// fetches the line if missing, and occupies the bank until the data
    /// is available. Returns the delay (relative to `now`) after which
    /// responses go out.
    fn bank_op(&mut self, now: Cycle, line: LineAddr) -> Cycle {
        let bank = (line.0 % self.config.banks as u64) as usize;
        let start = now.max(self.bank_busy[bank]);
        let d = self.ensure_line(start, line);
        self.bank_busy[bank] = start + d + 1;
        start + d + self.config.latency - now
    }

    /// Event counters accumulated so far.
    pub fn counts(&self) -> &Counts {
        &self.counts
    }

    /// The functional memory image (final state inspection).
    ///
    /// Note: words still buffered in L1 store buffers are not yet here;
    /// run verification only after every kernel's final release.
    pub fn memory(&self) -> &MemoryImage {
        &self.memory
    }

    /// Mutable access to the memory image (host-side initialization).
    pub fn memory_mut(&mut self) -> &mut MemoryImage {
        &mut self.memory
    }

    fn bank_node(&self, line: LineAddr) -> NodeId {
        NodeId((line.0 % self.config.banks as u64) as u8)
    }

    /// Ensures `line` is resident in its bank, returning the extra delay
    /// (0 on a bank hit, the DRAM round trip on a miss).
    fn ensure_line(&mut self, now: Cycle, line: LineAddr) -> Cycle {
        let bank = (line.0 % self.config.banks as u64) as usize;
        if self.banks[bank].contains(line) {
            return 0;
        }
        let done = self.dram.access(now, line);
        self.counts.dram_reads += 1;
        let data = self.memory.read_line(line);
        if let InsertOutcome::Evicted(victim) = self.banks[bank].insert(line) {
            let dirty = victim.mask_in(WordState::Owned);
            let node = self.bank_node(victim.tag);
            self.trace.emit(|| TraceEvent::Eviction {
                node,
                level: Level::L2,
                line: victim.tag,
                owned_words: dirty.count(),
            });
            if !dirty.is_empty() {
                self.memory.write_line(victim.tag, dirty, &victim.data);
                self.dram.access(now, victim.tag);
                self.counts.dram_writes += 1;
            }
        }
        let l = self.banks[bank].lookup(line).expect("just inserted");
        l.fill(WordMask::full(), &data, WordState::Valid);
        done - now
    }

    /// Delivers a network message to the addressed bank.
    ///
    /// # Panics
    ///
    /// Panics on DeNovo-only message kinds (registrations, writebacks,
    /// recalls) — a protocol bug.
    pub fn handle(&mut self, now: Cycle, msg: &Msg, out: &mut Vec<Action>) {
        match msg.kind {
            MsgKind::ReadReq {
                line, requester, ..
            } => {
                debug_assert_eq!(msg.dst, self.bank_node(line), "misrouted L2 request");
                self.counts.l2_accesses += 1;
                self.trace.l2_access(line);
                let delay = self.bank_op(now, line);
                let bank = (line.0 % self.config.banks as u64) as usize;
                let data = self.banks[bank].peek(line).expect("resident").data;
                out.push(Action::Send {
                    msg: Msg {
                        src: msg.dst,
                        dst: requester,
                        dst_comp: Component::L1,
                        kind: MsgKind::ReadResp {
                            line,
                            mask: WordMask::full(),
                            data,
                        },
                    },
                    delay,
                });
            }
            MsgKind::WriteThrough { line, mask, data } => {
                self.counts.l2_accesses += 1;
                self.trace.l2_access(line);
                let delay = self.bank_op(now, line);
                let bank = (line.0 % self.config.banks as u64) as usize;
                let l = self.banks[bank].lookup(line).expect("resident");
                l.fill(mask, &data, WordState::Owned);
                out.push(Action::Send {
                    msg: Msg {
                        src: msg.dst,
                        dst: msg.src,
                        dst_comp: Component::L1,
                        kind: MsgKind::WtAck { line },
                    },
                    delay,
                });
            }
            MsgKind::AtomicReq {
                word,
                op,
                operands,
                requester,
                ..
            } => {
                self.counts.l2_accesses += 1;
                self.counts.l2_atomics += 1;
                let line = word.line();
                self.trace.l2_access(line);
                let delay = self.bank_op(now, line);
                let bank = (line.0 % self.config.banks as u64) as usize;
                let l = self.banks[bank].lookup(line).expect("resident");
                let i = word.index_in_line();
                let (new, old) = op.apply(l.data[i], operands);
                if op.writes() {
                    l.data[i] = new;
                    l.set_word(i, WordState::Owned);
                }
                out.push(Action::Send {
                    msg: Msg {
                        src: msg.dst,
                        dst: requester,
                        dst_comp: Component::L1,
                        kind: MsgKind::AtomicResp { word, old },
                    },
                    delay,
                });
            }
            ref k => panic!("GPU L2 received unexpected message {k:?}"),
        }
    }

    /// Flushes every dirty L2 word into the memory image (end of run, so
    /// verifiers see the complete final state).
    pub fn flush_to_memory(&mut self) {
        for bank in &mut self.banks {
            let mut writes = Vec::new();
            bank.for_each_line_mut(|l| {
                let dirty = l.mask_in(WordState::Owned);
                if !dirty.is_empty() {
                    writes.push((l.tag, dirty, l.data));
                    l.set_mask(dirty, WordState::Valid);
                }
            });
            for (tag, mask, data) in writes {
                self.memory.write_line(tag, mask, &data);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::testing::{run_handler, run_op};

    fn l1() -> GpuL1 {
        GpuL1::new(L1Config::micro15(NodeId(0)))
    }

    fn l2_with(words: &[(u64, Value)]) -> GpuL2 {
        let mut mem = MemoryImage::new();
        for &(w, v) in words {
            mem.write_word(WordAddr(w), v);
        }
        GpuL2::new(L2Config::default(), mem)
    }

    /// Runs a full L1 -> L2 -> L1 round trip for one message.
    fn bounce(l1c: &mut GpuL1, l2c: &mut GpuL2, actions: Vec<Action>) -> Vec<Action> {
        let mut out = Vec::new();
        for a in actions {
            let Action::Send { msg, .. } = a else {
                out.push(a);
                continue;
            };
            assert_eq!(msg.dst_comp, Component::L2, "GPU L1s only talk to the L2");
            for r in run_handler(|o| l2c.handle(0, &msg, o)) {
                let Action::Send { msg: m2, .. } = r else {
                    out.push(r);
                    continue;
                };
                l1c.handle(&m2, &mut out);
            }
        }
        out
    }

    #[test]
    fn load_miss_then_hit() {
        let mut l1c = l1();
        let mut l2c = l2_with(&[(3, 77)]);
        let (issue, actions) = run_op(|o| l1c.load(WordAddr(3), ReqId(1), o));
        assert_eq!(issue, Issue::Pending);
        let done = bounce(&mut l1c, &mut l2c, actions);
        assert_eq!(done, vec![Action::complete(ReqId(1), 77)]);
        // Second load to any word of the line hits.
        let (issue, _) = run_op(|o| l1c.load(WordAddr(0), ReqId(2), o));
        assert_eq!(issue, Issue::Hit(0));
        let (issue, _) = run_op(|o| l1c.load(WordAddr(3), ReqId(3), o));
        assert_eq!(issue, Issue::Hit(77));
        assert_eq!(l1c.counts().l1_load_hits, 2);
        assert_eq!(l1c.counts().l1_load_misses, 1);
    }

    #[test]
    fn coalesced_misses_complete_together() {
        let mut l1c = l1();
        let mut l2c = l2_with(&[(0, 5), (1, 6)]);
        let (_, a1) = run_op(|o| l1c.load(WordAddr(0), ReqId(1), o));
        let (issue2, a2) = run_op(|o| l1c.load(WordAddr(1), ReqId(2), o));
        assert_eq!(issue2, Issue::Pending);
        assert!(a2.is_empty(), "second miss coalesces, no new request");
        let done = bounce(&mut l1c, &mut l2c, a1);
        assert_eq!(
            done,
            vec![Action::complete(ReqId(1), 5), Action::complete(ReqId(2), 6)]
        );
    }

    #[test]
    fn store_forwards_and_release_flushes() {
        let mut l1c = l1();
        let mut l2c = l2_with(&[]);
        let (issue, actions) = run_op(|o| l1c.store(WordAddr(8), 42, o));
        assert_eq!(issue, Issue::Hit(0));
        assert!(actions.is_empty(), "store buffered, nothing sent yet");
        // Store-to-load forwarding.
        let (issue, _) = run_op(|o| l1c.load(WordAddr(8), ReqId(1), o));
        assert_eq!(issue, Issue::Hit(42));
        // Release drains the buffer and blocks until the ack.
        let (issue, actions) = run_op(|o| l1c.release(false, ReqId(2), o));
        assert_eq!(issue, Issue::Pending);
        assert_eq!(actions.len(), 1);
        let done = bounce(&mut l1c, &mut l2c, actions);
        assert_eq!(done, vec![Action::complete(ReqId(2), 0)]);
        assert_eq!(l1c.counts().sb_release_flushes, 1);
        assert_eq!(l2c.memory_after_flush(WordAddr(8)), 42);
        assert!(l1c.quiesced());
    }

    impl GpuL2 {
        fn memory_after_flush(&mut self, w: WordAddr) -> Value {
            self.flush_to_memory();
            self.memory().read_word(w)
        }
    }

    #[test]
    fn empty_release_completes_immediately() {
        let mut l1c = l1();
        let (issue, actions) = run_op(|o| l1c.release(false, ReqId(9), o));
        assert_eq!(issue, Issue::Hit(0));
        assert!(actions.is_empty());
    }

    #[test]
    fn acquire_invalidates_but_store_buffer_survives() {
        let mut l1c = l1();
        let mut l2c = l2_with(&[(0, 1)]);
        let (_, a) = run_op(|o| l1c.load(WordAddr(0), ReqId(1), o));
        bounce(&mut l1c, &mut l2c, a);
        l1c.store(WordAddr(1), 9, &mut Vec::new());
        l1c.acquire(false);
        assert_eq!(l1c.counts().flash_invalidations, 1);
        assert_eq!(l1c.counts().words_invalidated, 16);
        // The cached word is gone...
        let (issue, a) = run_op(|o| l1c.load(WordAddr(0), ReqId(2), o));
        assert_eq!(issue, Issue::Pending);
        bounce(&mut l1c, &mut l2c, a);
        // ...but the dirty word still forwards.
        let (issue, _) = run_op(|o| l1c.load(WordAddr(1), ReqId(3), o));
        assert_eq!(issue, Issue::Hit(9));
        // Local acquire (GPU-H) invalidates nothing.
        l1c.acquire(true);
        assert_eq!(l1c.counts().flash_invalidations, 1);
    }

    #[test]
    fn global_atomic_executes_at_l2() {
        let mut l1c = l1();
        let mut l2c = l2_with(&[(4, 10)]);
        let (issue, actions) = run_op(|o| {
            l1c.atomic(
                WordAddr(4),
                AtomicOp::Add,
                [5, 0],
                SyncOrd::AcqRel,
                false,
                ReqId(1),
                o,
            )
        });
        assert_eq!(issue, Issue::Pending);
        let done = bounce(&mut l1c, &mut l2c, actions);
        assert_eq!(done, vec![Action::complete(ReqId(1), 10)]);
        assert_eq!(l2c.counts().l2_atomics, 1);
        assert_eq!(l1c.counts().l1_atomics, 0, "performed remotely");
        // The L2 word was updated in place.
        l2c.flush_to_memory();
        assert_eq!(l2c.memory().read_word(WordAddr(4)), 15);
    }

    #[test]
    fn local_atomic_executes_at_l1() {
        let mut l1c = l1();
        let mut l2c = l2_with(&[(4, 10)]);
        // Miss: fetch the line, then perform locally.
        let (issue, actions) = run_op(|o| {
            l1c.atomic(
                WordAddr(4),
                AtomicOp::Add,
                [5, 0],
                SyncOrd::AcqRel,
                true,
                ReqId(1),
                o,
            )
        });
        assert_eq!(issue, Issue::Pending);
        let done = bounce(&mut l1c, &mut l2c, actions);
        assert_eq!(done, vec![Action::complete(ReqId(1), 10)]);
        // Now a hit, entirely at the L1.
        let (issue, actions) = run_op(|o| {
            l1c.atomic(
                WordAddr(4),
                AtomicOp::Add,
                [1, 0],
                SyncOrd::AcqRel,
                true,
                ReqId(2),
                o,
            )
        });
        assert_eq!(issue, Issue::Hit(15));
        assert!(actions.is_empty());
        assert_eq!(l1c.counts().l1_atomic_hits, 1);
        assert_eq!(l2c.counts().l2_atomics, 0);
        // The value reaches the L2 at the next global release.
        let (_, actions) = run_op(|o| l1c.release(false, ReqId(3), o));
        bounce(&mut l1c, &mut l2c, actions);
        l2c.flush_to_memory();
        assert_eq!(l2c.memory().read_word(WordAddr(4)), 16);
    }

    #[test]
    fn same_word_atomics_complete_in_order() {
        let mut l1c = l1();
        let mut l2c = l2_with(&[(0, 0)]);
        let (_, a1) = run_op(|o| {
            l1c.atomic(
                WordAddr(0),
                AtomicOp::Add,
                [1, 0],
                SyncOrd::AcqRel,
                false,
                ReqId(1),
                o,
            )
        });
        let (_, a2) = run_op(|o| {
            l1c.atomic(
                WordAddr(0),
                AtomicOp::Add,
                [1, 0],
                SyncOrd::AcqRel,
                false,
                ReqId(2),
                o,
            )
        });
        let d1 = bounce(&mut l1c, &mut l2c, a1);
        let d2 = bounce(&mut l1c, &mut l2c, a2);
        assert_eq!(d1, vec![Action::complete(ReqId(1), 0)]);
        assert_eq!(d2, vec![Action::complete(ReqId(2), 1)]);
    }

    #[test]
    fn sb_overflow_writes_through_early() {
        let mut l1c = GpuL1::new(L1Config {
            sb_entries: 2,
            ..L1Config::micro15(NodeId(0))
        });
        let mut actions = Vec::new();
        for line in 0..3u64 {
            let (_, a) = run_op(|o| l1c.store(LineAddr(line).word(0), line as Value, o));
            actions.extend(a);
        }
        assert_eq!(actions.len(), 1, "oldest entry written through");
        assert_eq!(l1c.counts().sb_overflow_flushes, 1);
        assert!(matches!(
            actions[0],
            Action::Send {
                msg: Msg {
                    kind: MsgKind::WriteThrough {
                        line: LineAddr(0),
                        ..
                    },
                    ..
                },
                ..
            }
        ));
    }

    #[test]
    fn retry_when_mshr_full() {
        let mut l1c = GpuL1::new(L1Config {
            mshr_entries: 1,
            ..L1Config::micro15(NodeId(0))
        });
        let (i1, _) = run_op(|o| l1c.load(WordAddr(0), ReqId(1), o));
        assert_eq!(i1, Issue::Pending);
        let (i2, a2) = run_op(|o| l1c.load(LineAddr(1).word(0), ReqId(2), o));
        assert_eq!(i2, Issue::Retry);
        assert!(a2.is_empty());
        // Same line still coalesces even when the file is "full".
        let (i3, _) = run_op(|o| l1c.load(WordAddr(1), ReqId(3), o));
        assert_eq!(i3, Issue::Pending);
    }

    #[test]
    fn l2_dram_miss_then_bank_hit() {
        let mut l2c = l2_with(&[(0, 123)]);
        let req = Msg {
            src: NodeId(2),
            dst: NodeId(0),
            dst_comp: Component::L2,
            kind: MsgKind::ReadReq {
                line: LineAddr(0),
                mask: WordMask::full(),
                requester: NodeId(2),
            },
        };
        let first = run_handler(|o| l2c.handle(0, &req, o));
        let Action::Send { delay: d1, msg } = first[0] else {
            panic!("expected a send");
        };
        assert!(matches!(msg.kind, MsgKind::ReadResp { .. }));
        assert_eq!(l2c.counts().dram_reads, 1);
        let second = run_handler(|o| l2c.handle(1000, &req, o));
        let Action::Send { delay: d2, .. } = second[0] else {
            panic!("expected a send");
        };
        assert!(d1 > d2, "bank hit is faster than the DRAM miss");
        assert_eq!(d2, L2Config::default().latency);
        assert_eq!(l2c.counts().dram_reads, 1, "no second DRAM access");
    }

    #[test]
    fn writethrough_marks_dirty_and_eviction_persists() {
        let mut l2c = l2_with(&[]);
        let wt = Msg {
            src: NodeId(1),
            dst: NodeId(0),
            dst_comp: Component::L2,
            kind: MsgKind::WriteThrough {
                line: LineAddr(0),
                mask: WordMask::single(0),
                data: [55; WORDS_PER_LINE],
            },
        };
        let acks = run_handler(|o| l2c.handle(0, &wt, o));
        assert!(matches!(
            acks[0],
            Action::Send {
                msg: Msg {
                    kind: MsgKind::WtAck { .. },
                    ..
                },
                ..
            }
        ));
        assert_eq!(l2c.memory().read_word(WordAddr(0)), 0, "not yet in DRAM");
        l2c.flush_to_memory();
        assert_eq!(l2c.memory().read_word(WordAddr(0)), 55);
    }
}
