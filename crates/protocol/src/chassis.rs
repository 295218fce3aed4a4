//! The L1 and L2 machinery both coherence families share.
//!
//! GPU coherence and DeNovo sit on the same hardware (paper §3, Table
//! 2): each L1 is a cache, a coalescing store buffer and MSHRs, and the
//! L2 is a set of in-order banks over DRAM. `L1Core` and `L2Core`
//! own that hardware and every mechanism the two families run the same
//! way. The families keep only where they differ:
//!
//! * an acquire invalidates every Valid word (GPU) or only those outside
//!   the read-only region, keeping Registered words (DeNovo);
//! * a release writes buffered data through (GPU) or registers the
//!   words (DeNovo);
//! * synchronization runs at the L2 bank (GPU) or in an owned L1 word
//!   (DeNovo);
//! * the L2 is a cache (GPU) or a registry of owners (DeNovo).
//!
//! The engine reads the shared part of any controller through
//! [`L1Chassis`] and [`L2Chassis`], without knowing its family.

use crate::action::{Action, Issue};
use gsim_mem::{
    CacheArray, CacheGeometry, CacheLine, Dram, DramConfig, InsertOutcome, MemoryImage, MshrFile,
    SbEntry, StoreBuffer, StoreOutcome, WordState,
};
use gsim_trace::{FlushReason, Level, TraceEvent, TraceHandle};
use gsim_types::{
    Component, Counts, Cycle, FxHashMap, LineAddr, Msg, MsgKind, NodeId, ReqId, Scope, Value,
    WordAddr, WordMask, WORDS_PER_LINE,
};

/// A line's worth of data.
pub(crate) type LineData = [Value; WORDS_PER_LINE];

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

/// The family-independent part of an L1 controller, as the engine and
/// the conformance checker see it.
pub trait L1Chassis {
    /// The mesh node this L1 lives on.
    fn node(&self) -> NodeId;
    /// Event counters accumulated so far.
    fn counts(&self) -> &Counts;
    /// Installs the run's trace handle: protocol, cache, store-buffer
    /// and MSHR events, the demand stream, acquire sweeps, fills and
    /// ownership changes are reported through it from then on.
    /// Observation-only.
    fn set_trace(&mut self, trace: &TraceHandle);
    /// Store-buffer entries currently held (profiler occupancy gauge).
    fn sb_occupancy(&self) -> usize;
    /// Outstanding MSHR lines (profiler occupancy gauge).
    fn mshr_outstanding(&self) -> usize;
    /// Words whose valid and owned masks overlap, across all lines.
    /// Structurally impossible with the two-bitmap line representation;
    /// audited anyway so a future representation change cannot silently
    /// break the three-state model.
    fn state_mask_overlaps(&self) -> u64;
    /// Store-buffer entries currently pending (line, dirty mask).
    fn sb_entries(&self) -> Vec<(LineAddr, WordMask)>;
    /// Test-only: plants an MSHR entry that will never complete, so the
    /// quiesce audit's leak naming can be exercised end to end.
    #[doc(hidden)]
    fn debug_leak_mshr_entry(&mut self, line: LineAddr);
    /// Test-only: plants a store-buffer word that no release will drain
    /// (bypassing the overflow path), for the leak-naming tests.
    #[doc(hidden)]
    fn debug_leak_sb_word(&mut self, word: WordAddr, value: Value);
}

/// The L1 hardware both families share: the cache (`X` is the family's
/// per-line metadata), the store buffer, the MSHRs (`W` and `F` are the
/// family's waiter and queued-forward records), the miss-epoch guard,
/// the release drain, the counters and the trace handle.
#[derive(Debug)]
pub(crate) struct L1Core<X, W, F> {
    pub(crate) config: L1Config,
    pub(crate) cache: CacheArray<X>,
    pub(crate) sb: StoreBuffer,
    pub(crate) mshr: MshrFile<W, F>,
    /// Bumped by every global acquire. A fill for a miss requested in an
    /// older epoch serves its (pre-acquire) waiters but installs nothing:
    /// installing would let post-acquire loads read pre-acquire line
    /// contents (stale under DRF).
    epoch: u64,
    /// The epoch each outstanding miss line was requested in.
    entry_epoch: FxHashMap<LineAddr, u64>,
    /// Releases waiting for the family's writes to drain.
    pending_releases: Vec<ReqId>,
    pub(crate) counts: Counts,
    pub(crate) trace: TraceHandle,
    /// Whether an `SbFlushBegin` trace event is awaiting its matching
    /// end (emitted by [`drained`](Self::drained)).
    sb_draining: bool,
}

impl<X: Default, W, F> L1Core<X, W, F> {
    pub(crate) fn new(config: L1Config) -> Self {
        L1Core {
            cache: CacheArray::new(config.geometry),
            sb: StoreBuffer::new(config.sb_entries),
            mshr: MshrFile::new(config.mshr_entries),
            epoch: 0,
            entry_epoch: FxHashMap::default(),
            pending_releases: Vec::new(),
            counts: Counts::default(),
            trace: TraceHandle::disabled(),
            sb_draining: false,
            config,
        }
    }

    /// A message from this L1 to the home L2 bank of `line`.
    pub(crate) fn msg_to_home(&self, line: LineAddr, kind: MsgKind) -> Msg {
        Msg {
            src: self.config.node,
            dst: self.config.home(line),
            dst_comp: Component::L2,
            kind,
        }
    }

    /// Buffers a store; returns the oldest entry if the buffer
    /// overflowed and displaced it (the family writes it through or
    /// registers it). An overflow opens the flush trace span.
    pub(crate) fn buffer(&mut self, word: WordAddr, value: Value) -> Option<SbEntry> {
        match self.sb.write(word, value) {
            StoreOutcome::Overflow(e) => {
                self.counts.sb_overflow_flushes += 1;
                self.begin_sb_drain(FlushReason::Overflow, e.mask.count());
                Some(e)
            }
            _ => None,
        }
    }

    /// Emits the `SbFlushBegin` trace event and arms the matching end.
    pub(crate) fn begin_sb_drain(&mut self, reason: FlushReason, pending: u32) {
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

    /// The family's writes have drained: ends the flush trace span and
    /// completes every waiting release.
    pub(crate) fn drained(&mut self, out: &mut Vec<Action>) {
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

    /// Whether the outstanding miss on `line` predates the last acquire.
    /// A post-acquire access must not coalesce with it.
    pub(crate) fn is_stale(&self, line: LineAddr) -> bool {
        self.entry_epoch.get(&line).is_some_and(|&e| e < self.epoch)
    }

    /// Records a miss on `line` in the MSHRs: `waiter` waits on `wait`,
    /// and `fetch` is requested. Returns the words that must actually be
    /// sent for (the rest coalesce with requests in flight).
    pub(crate) fn request_miss(
        &mut self,
        line: LineAddr,
        wait: WordMask,
        fetch: WordMask,
        waiter: W,
    ) -> WordMask {
        self.entry_epoch.entry(line).or_insert(self.epoch);
        let was_pending = self.mshr.is_pending(line);
        let to_send = self.mshr.request_fetch(line, wait, fetch, waiter);
        if !was_pending {
            let (node, outstanding) = (self.config.node, self.mshr.outstanding() as u32);
            self.trace.emit(|| TraceEvent::MshrAlloc {
                node,
                line,
                outstanding,
            });
        }
        to_send
    }

    /// [`request_miss`](Self::request_miss), then a read request to the
    /// home bank for whatever is not already in flight.
    pub(crate) fn read_miss(
        &mut self,
        line: LineAddr,
        wait: WordMask,
        fetch: WordMask,
        waiter: W,
        out: &mut Vec<Action>,
    ) {
        let mask = self.request_miss(line, wait, fetch, waiter);
        if !mask.is_empty() {
            out.push(Action::send(self.msg_to_home(
                line,
                MsgKind::ReadReq {
                    line,
                    mask,
                    requester: self.config.node,
                },
            )));
        }
    }

    /// Records the arrival of `mask` words of `line`: returns the
    /// satisfied waiters and, when the entry retires, its queued
    /// forwards.
    pub(crate) fn complete_miss(&mut self, line: LineAddr, mask: WordMask) -> (Vec<W>, Vec<F>) {
        let (done, fwds) = self.mshr.complete(line, mask);
        if !self.mshr.is_pending(line) {
            self.entry_epoch.remove(&line);
            let (node, waiters) = (self.config.node, done.len() as u32);
            self.trace.emit(|| TraceEvent::MshrRetire {
                node,
                line,
                waiters,
            });
        }
        (done, fwds)
    }

    /// An acquire. Locally scoped ones (HRF) do nothing. A global one
    /// starts a new miss epoch and invalidates every Valid word except
    /// those `keep` names for its line; `flash` marks the GPU's
    /// whole-cache flash invalidation. The sweep visits only the sets
    /// that may hold a Valid word ([`CacheArray::sweep_valid`]).
    pub(crate) fn acquire(&mut self, local: bool, flash: bool, keep: impl Fn(&X) -> WordMask) {
        if local {
            return;
        }
        self.epoch += 1;
        let (trace, node) = (&self.trace, self.config.node);
        if flash {
            self.counts.flash_invalidations += 1;
        }
        let mut invalidated: u64 = 0;
        self.cache.sweep_valid(|l| {
            let v = l.invalidate_valid(keep(&l.extra));
            invalidated += u64::from(v.count());
            if !v.is_empty() {
                trace.invalidated(node, l.tag, v);
            }
        });
        self.counts.words_invalidated += invalidated;
        self.trace.acquired(node, invalidated, flash);
    }

    /// Opens a release. Returns `None` for a locally scoped one (HRF),
    /// which completes at once; otherwise reports it and returns the
    /// store-buffer occupancy the drain starts from.
    pub(crate) fn open_release(&mut self, local: bool) -> Option<u32> {
        if local {
            return None;
        }
        let node = self.config.node;
        self.trace.emit(|| TraceEvent::SyncRelease {
            node,
            scope: Scope::Global,
        });
        Some(self.sb.len() as u32)
    }

    /// The next store-buffer entry a release drains, oldest first.
    pub(crate) fn release_pop(&mut self) -> Option<SbEntry> {
        let e = self.sb.pop_oldest()?;
        self.counts.sb_release_flushes += 1;
        Some(e)
    }

    /// Closes a release that drained `pending` entries: it completes now
    /// unless the family still has writes in flight, in which case it
    /// waits for [`drained`](Self::drained).
    pub(crate) fn close_release(&mut self, in_flight: bool, pending: u32, req: ReqId) -> Issue {
        if !in_flight {
            return Issue::Hit(0);
        }
        self.begin_sb_drain(FlushReason::Release, pending);
        self.pending_releases.push(req);
        Issue::Pending
    }

    /// Whether the shared part holds nothing: no buffered store, miss,
    /// miss epoch or waiting release.
    pub(crate) fn quiesced(&self) -> bool {
        self.sb.is_empty()
            && self.mshr.outstanding() == 0
            && self.entry_epoch.is_empty()
            && self.pending_releases.is_empty()
    }

    /// The quiesce audit: names every resource still allocated, each
    /// with the trace event that allocated it. The family's own records
    /// go where each family has always listed them: `in_flight` after
    /// the buffers, `writes` after the miss epochs, `atomics` last.
    pub(crate) fn leaks(
        &self,
        in_flight: Vec<String>,
        writes: Vec<String>,
        atomics: Vec<String>,
    ) -> Vec<String> {
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
        leaks.extend(in_flight);
        let mut epochs: Vec<_> = self.entry_epoch.keys().copied().collect();
        epochs.sort();
        for line in epochs {
            leaks.push(format!(
                "{n}: miss-epoch record for line {} (alloc event: mshr-alloc)",
                line.0
            ));
        }
        leaks.extend(writes);
        for req in &self.pending_releases {
            leaks.push(format!(
                "{n}: release {req:?} never completed (alloc event: release)"
            ));
        }
        leaks.extend(atomics);
        leaks
    }
}

impl<X: Default, W: From<(ReqId, WordAddr)>, F> L1Chassis for L1Core<X, W, F> {
    fn node(&self) -> NodeId {
        self.config.node
    }

    fn counts(&self) -> &Counts {
        &self.counts
    }

    fn set_trace(&mut self, trace: &TraceHandle) {
        self.trace = trace.share();
    }

    fn sb_occupancy(&self) -> usize {
        self.sb.len()
    }

    fn mshr_outstanding(&self) -> usize {
        self.mshr.outstanding()
    }

    fn state_mask_overlaps(&self) -> u64 {
        let mut words = 0u64;
        for l in self.cache.iter() {
            words += u64::from((l.mask_in(WordState::Valid) & l.mask_in(WordState::Owned)).count());
        }
        words
    }

    fn sb_entries(&self) -> Vec<(LineAddr, WordMask)> {
        self.sb.pending_entries()
    }

    fn debug_leak_mshr_entry(&mut self, line: LineAddr) {
        self.mshr.request(
            line,
            WordMask::single(0),
            W::from((ReqId(u64::MAX), line.word(0))),
        );
    }

    fn debug_leak_sb_word(&mut self, word: WordAddr, value: Value) {
        let _ = self.sb.write(word, value);
    }
}

/// The family-independent part of the shared L2, as the engine sees it.
pub trait L2Chassis {
    /// Event counters accumulated so far.
    fn counts(&self) -> &Counts;
    /// Installs the run's trace handle: bank evictions, bank operations
    /// and (DeNovo) registrations, forwards and ownership transfers are
    /// reported through it from then on. Observation-only.
    fn set_trace(&mut self, trace: &TraceHandle);
    /// The functional memory image (final state inspection).
    ///
    /// Words still buffered in L1 store buffers, or Registered in an L1,
    /// are not yet here; run verification only after every kernel's
    /// final release and the simulator's ownership drain.
    fn memory(&self) -> &MemoryImage;
    /// Mutable access to the memory image (host-side initialization and
    /// the end-of-run ownership drain).
    fn memory_mut(&mut self) -> &mut MemoryImage;
    /// Flushes every dirty L2 word into the memory image (end of run, so
    /// verifiers see the complete final state).
    fn flush_to_memory(&mut self);
}

/// The banked L2 both families share: every bank's array (`E` is the
/// family's per-line metadata), each bank's in-order pipeline, the
/// backing DRAM and the functional memory image.
///
/// One instance serves every bank; the engine routes a message here
/// whenever `dst_comp == Component::L2`, and the bank is implied by the
/// line address (`line % banks == dst node`).
#[derive(Debug)]
pub(crate) struct L2Core<E> {
    config: L2Config,
    pub(crate) banks: Vec<CacheArray<E>>,
    /// Per-bank in-order pipeline: the cycle each bank next accepts a
    /// request. A bank blocked on a DRAM fill delays later requests, so
    /// responses and forwards leave every bank in arrival order — the
    /// point-to-point ordering the L1 controllers rely on.
    bank_busy: Vec<Cycle>,
    memory: MemoryImage,
    dram: Dram,
    pub(crate) counts: Counts,
    pub(crate) trace: TraceHandle,
}

impl<E: Default> L2Core<E> {
    pub(crate) fn new(config: L2Config, memory: MemoryImage) -> Self {
        L2Core {
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

    /// The bank holding `line`.
    pub(crate) fn bank(&self, line: LineAddr) -> usize {
        (line.0 % self.config.banks as u64) as usize
    }

    /// The resident `line` (touching LRU); only valid after
    /// [`bank_op`](Self::bank_op) on it.
    pub(crate) fn resident(&mut self, line: LineAddr) -> &mut CacheLine<E> {
        let bank = self.bank(line);
        self.banks[bank].lookup(line).expect("resident")
    }

    /// Starts an in-order bank operation on `line` at `now`: waits for
    /// the bank, fetches the line if missing, and occupies the bank until
    /// the data is available. Returns the delay (relative to `now`) after
    /// which this operation's messages go out.
    ///
    /// On a miss, `install` receives the counters, the fresh line (all
    /// words Invalid), its memory contents and the line it displaced
    /// (its dirty words already written back).
    pub(crate) fn bank_op(
        &mut self,
        now: Cycle,
        line: LineAddr,
        install: impl FnOnce(&mut Counts, &mut CacheLine<E>, &LineData, Option<CacheLine<E>>),
    ) -> Cycle {
        let bank = self.bank(line);
        let start = now.max(self.bank_busy[bank]);
        let d = self.ensure_line(start, line, install);
        self.bank_busy[bank] = start + d + 1;
        start + d + self.config.latency - now
    }

    /// Ensures `line` is resident in its bank, returning the extra delay
    /// (0 on a bank hit, the DRAM round trip on a miss).
    fn ensure_line(
        &mut self,
        now: Cycle,
        line: LineAddr,
        install: impl FnOnce(&mut Counts, &mut CacheLine<E>, &LineData, Option<CacheLine<E>>),
    ) -> Cycle {
        let bank = self.bank(line);
        if self.banks[bank].contains(line) {
            return 0;
        }
        let done = self.dram.access(now, line);
        self.counts.dram_reads += 1;
        let data = self.memory.read_line(line);
        let victim = match self.banks[bank].insert(line) {
            InsertOutcome::Evicted(victim) => {
                let dirty = victim.mask_in(WordState::Owned);
                let node = NodeId(self.bank(victim.tag) as u8);
                self.trace
                    .evicted(node, Level::L2, victim.tag, dirty.count());
                if !dirty.is_empty() {
                    self.memory.write_line(victim.tag, dirty, &victim.data);
                    self.dram.access(now, victim.tag);
                    self.counts.dram_writes += 1;
                }
                Some(victim)
            }
            _ => None,
        };
        let l = self.banks[bank].lookup(line).expect("just inserted");
        install(&mut self.counts, l, &data, victim);
        done - now
    }
}

impl<E: Default> L2Chassis for L2Core<E> {
    fn counts(&self) -> &Counts {
        &self.counts
    }

    fn set_trace(&mut self, trace: &TraceHandle) {
        self.trace = trace.share();
    }

    fn memory(&self) -> &MemoryImage {
        &self.memory
    }

    fn memory_mut(&mut self) -> &mut MemoryImage {
        &mut self.memory
    }

    fn flush_to_memory(&mut self) {
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
