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
use crate::chassis::{L1Chassis, L1Config, L1Core, L2Chassis, L2Config, L2Core, LineData};
use gsim_mem::{CacheLine, InsertOutcome, MemoryImage, SbEntry, WordState};
use gsim_trace::Level;
use gsim_types::{
    AtomicOp, Component, Counts, Cycle, FxHashMap, LineAddr, Msg, MsgKind, NodeId, ReqId, Scope,
    SyncOrd, Value, WordAddr, WordMask,
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

impl From<(ReqId, WordAddr)> for Waiter {
    fn from((req, word): (ReqId, WordAddr)) -> Self {
        Waiter::Load { req, word }
    }
}

/// The per-CU L1 controller of conventional GPU coherence.
///
/// See the [module documentation](self) for the protocol. The controller
/// is a pure state machine: operations and message deliveries append
/// [`Action`]s to the caller's sink for the engine to perform.
#[derive(Debug)]
pub struct GpuL1 {
    core: L1Core<(), Waiter, ()>,
    /// Writethroughs in flight (awaiting [`MsgKind::WtAck`]).
    pending_wt: u64,
    /// Per-line words with a writethrough in flight, and how many acks
    /// are owed. A fill must not install these words: its data may
    /// predate the writethrough at the L2, and the store-buffer entry
    /// that would have shadowed it is already gone.
    wt_inflight: FxHashMap<LineAddr, (u32, WordMask)>,
    /// Globally scoped atomics outstanding at the L2, per word, in issue
    /// order (responses on one src/dst pair arrive in order).
    pending_atomics: FxHashMap<WordAddr, VecDeque<ReqId>>,
}

impl GpuL1 {
    /// Creates the L1 controller for `config.node`.
    pub fn new(config: L1Config) -> Self {
        GpuL1 {
            core: L1Core::new(config),
            pending_wt: 0,
            wt_inflight: FxHashMap::default(),
            pending_atomics: FxHashMap::default(),
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

    /// Whether any writethrough, fill, or atomic is still in flight.
    pub fn quiesced(&self) -> bool {
        self.core.quiesced()
            && self.pending_wt == 0
            && self.wt_inflight.is_empty()
            && self.pending_atomics.values().all(|q| q.is_empty())
    }

    /// Readable words left in the cache right after a global acquire —
    /// must be zero: the flash invalidate clears every Valid word, no
    /// word is ever Owned here, and dirty data lives only in the store
    /// buffer (which legally survives the acquire).
    pub fn post_acquire_residue(&self) -> u64 {
        let mut words = 0u64;
        for l in self.core.cache.iter() {
            words += u64::from(l.readable_mask().count());
        }
        words
    }

    /// Names every resource still allocated after the run drained, each
    /// paired with the trace event that allocated it. Empty iff
    /// [`quiesced`](Self::quiesced) and the store buffer is empty.
    pub fn quiesce_leaks(&self) -> Vec<String> {
        let n = self.core.config.node;
        let mut in_flight = Vec::new();
        if self.pending_wt > 0 {
            in_flight.push(format!(
                "{n}: {} writethrough ack(s) outstanding (alloc event: sb-flush)",
                self.pending_wt
            ));
        }
        let mut wt: Vec<_> = self.wt_inflight.iter().collect();
        wt.sort_by_key(|(&l, _)| l);
        for (&line, &(acks, _)) in wt {
            in_flight.push(format!(
                "{n}: {acks} writethrough(s) in flight for line {} (alloc event: msg-send)",
                line.0
            ));
        }
        let mut at: Vec<_> = self
            .pending_atomics
            .iter()
            .filter(|(_, q)| !q.is_empty())
            .collect();
        at.sort_by_key(|(&w, _)| w);
        let atomics = at
            .into_iter()
            .map(|(&word, q)| {
                format!(
                    "{n}: {} atomic(s) outstanding on word {} (alloc event: atomic)",
                    q.len(),
                    word.0
                )
            })
            .collect();
        self.core.leaks(in_flight, Vec::new(), atomics)
    }

    /// Sends one writethrough, recording its in-flight words so racing
    /// fills do not resurrect stale values.
    fn send_writethrough(&mut self, e: SbEntry, out: &mut Vec<Action>) {
        self.pending_wt += 1;
        let slot = self.wt_inflight.entry(e.line).or_default();
        slot.0 += 1;
        slot.1 |= e.mask;
        out.push(Action::send(self.core.msg_to_home(
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
        if let Some(e) = self.core.buffer(word, value) {
            self.send_writethrough(e, out);
        }
    }

    /// The freshest locally visible value of `word`, if any: the store
    /// buffer shadows the cache.
    fn local_value(&mut self, word: WordAddr) -> Option<Value> {
        if let Some(v) = self.core.sb.lookup(word) {
            return Some(v);
        }
        let line = self.core.cache.lookup(word.line())?;
        let i = word.index_in_line();
        line.word(i).readable().then(|| line.data[i])
    }

    /// A demand load of `word`.
    pub fn load(&mut self, word: WordAddr, req: ReqId, out: &mut Vec<Action>) -> Issue {
        let node = self.core.config.node;
        if let Some(v) = self.local_value(word) {
            self.core.counts.l1_accesses += 1;
            self.core.counts.l1_load_hits += 1;
            self.core.trace.l1_access(node, word.line(), true);
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
        let full = WordMask::full();
        self.core
            .read_miss(line, full, full, Waiter::Load { req, word }, out);
        Issue::Pending
    }

    /// A data store: write-update the local copy and buffer the
    /// writethrough. Never blocks (overflow evicts the oldest entry).
    pub fn store(&mut self, word: WordAddr, value: Value, out: &mut Vec<Action>) -> Issue {
        self.core.counts.l1_accesses += 1;
        self.core.trace.l1_write(self.core.config.node, word, false);
        let i = word.index_in_line();
        if let Some(line) = self.core.cache.lookup(word.line()) {
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
            let msg = self.core.msg_to_home(
                word.line(),
                MsgKind::AtomicReq {
                    word,
                    op,
                    operands,
                    ord,
                    scope: Scope::Global,
                    requester: self.core.config.node,
                },
            );
            self.pending_atomics.entry(word).or_default().push_back(req);
            out.push(Action::send(msg));
            return Issue::Pending;
        }
        if let Some(current) = self.local_value(word) {
            self.core.counts.l1_accesses += 1;
            self.core.counts.l1_atomics += 1;
            self.core.counts.l1_atomic_hits += 1;
            let (new, old) = op.apply(current, operands);
            self.apply_local_write(word, new, op, out);
            return Issue::Hit(old);
        }
        let line = word.line();
        if !self.core.mshr.has_room_for(line) || self.core.is_stale(line) {
            return Issue::Retry;
        }
        self.core.counts.l1_accesses += 1;
        self.core.counts.l1_atomics += 1;
        let full = WordMask::full();
        let waiter = Waiter::LocalAtomic {
            req,
            word,
            op,
            operands,
        };
        self.core.read_miss(line, full, full, waiter, out);
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
        if let Some(line) = self.core.cache.lookup(word.line()) {
            line.data[i] = new;
            line.set_word(i, WordState::Valid);
        }
        self.core.trace.l1_write(self.core.config.node, word, true);
        self.buffer_store(word, new, out);
    }

    /// An acquire: flash-invalidate the whole cache (global scope), or
    /// nothing (local scope, GPU-H). Dirty data survives in the store
    /// buffer and keeps shadowing the cache.
    pub fn acquire(&mut self, local: bool) {
        self.core.acquire(local, true, |_| WordMask::empty());
    }

    /// A release: flush the store buffer and wait for every writethrough
    /// (including earlier overflow flushes) to reach the L2. Locally
    /// scoped releases (GPU-H) complete immediately.
    pub fn release(&mut self, local: bool, req: ReqId, out: &mut Vec<Action>) -> Issue {
        let Some(pending) = self.core.open_release(local) else {
            return Issue::Hit(0);
        };
        while let Some(e) = self.core.release_pop() {
            self.send_writethrough(e, out);
        }
        self.core.close_release(self.pending_wt > 0, pending, req)
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
                    self.core.drained(out);
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

    /// Applies a line fill and services the waiters.
    ///
    /// Two squash rules keep fills from resurrecting stale data:
    /// words with a writethrough in flight are not installed (the fill
    /// may predate the writethrough at the L2), and fills whose request
    /// predates the last acquire install nothing at all — their waiters
    /// are pre-acquire accesses and are served straight from the fill.
    fn fill(&mut self, line: LineAddr, mask: WordMask, data: &LineData, out: &mut Vec<Action>) {
        if !self.core.is_stale(line) {
            let skip = self.wt_inflight.get(&line).map(|s| s.1).unwrap_or_default();
            let node = self.core.config.node;
            // GPU victims are clean: silent drop.
            if let InsertOutcome::Evicted(victim) = self.core.cache.insert(line) {
                self.core.trace.evicted(node, Level::L1, victim.tag, 0);
            }
            self.core.trace.filled(node, line, mask & !skip, false);
            let entry = self.core.cache.lookup(line).expect("just inserted");
            entry.fill(mask & !skip, data, WordState::Valid);
            // Local pending stores are newer than the L2's copy: re-apply
            // them so the cached words never go stale once the buffer
            // drains.
            for i in mask.iter() {
                if let Some(v) = self.core.sb.lookup(line.word(i)) {
                    entry.data[i] = v;
                    entry.set_word(i, WordState::Valid);
                }
            }
        }
        let (done, _) = self.core.complete_miss(line, mask);
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

/// The shared L2 of conventional GPU coherence: a plain cache in every
/// bank, where global synchronization also executes.
#[derive(Debug)]
pub struct GpuL2 {
    core: L2Core<()>,
}

/// Installs a line fetched from DRAM: every word Valid (clean).
fn fill_clean(_: &mut Counts, l: &mut CacheLine<()>, data: &LineData, _: Option<CacheLine<()>>) {
    l.fill(WordMask::full(), data, WordState::Valid);
}

impl GpuL2 {
    /// Creates the shared L2 over an initial memory image.
    pub fn new(config: L2Config, memory: MemoryImage) -> Self {
        GpuL2 {
            core: L2Core::new(config, memory),
        }
    }

    /// The parts this L2 shares with the DeNovo registry: counters,
    /// the memory image and the trace hook.
    pub fn chassis(&self) -> &dyn L2Chassis {
        &self.core
    }

    /// Mutable access to [`chassis`](Self::chassis).
    pub fn chassis_mut(&mut self) -> &mut dyn L2Chassis {
        &mut self.core
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
                let bank = self.core.bank(line);
                debug_assert_eq!(msg.dst, NodeId(bank as u8), "misrouted L2 request");
                self.core.counts.l2_accesses += 1;
                self.core.trace.l2_access(line);
                let delay = self.core.bank_op(now, line, fill_clean);
                let data = self.core.banks[bank].peek(line).expect("resident").data;
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
                self.core.counts.l2_accesses += 1;
                self.core.trace.l2_access(line);
                let delay = self.core.bank_op(now, line, fill_clean);
                self.core.resident(line).fill(mask, &data, WordState::Owned);
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
                self.core.counts.l2_accesses += 1;
                self.core.counts.l2_atomics += 1;
                let line = word.line();
                self.core.trace.l2_access(line);
                let delay = self.core.bank_op(now, line, fill_clean);
                let l = self.core.resident(line);
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::testing::{run_handler, run_op};
    use gsim_types::WORDS_PER_LINE;

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
        assert_eq!(l1c.chassis().counts().l1_load_hits, 2);
        assert_eq!(l1c.chassis().counts().l1_load_misses, 1);
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
        assert_eq!(l1c.chassis().counts().sb_release_flushes, 1);
        assert_eq!(l2c.memory_after_flush(WordAddr(8)), 42);
        assert!(l1c.quiesced());
    }

    impl GpuL2 {
        fn memory_after_flush(&mut self, w: WordAddr) -> Value {
            self.chassis_mut().flush_to_memory();
            self.chassis().memory().read_word(w)
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
        assert_eq!(l1c.chassis().counts().flash_invalidations, 1);
        assert_eq!(l1c.chassis().counts().words_invalidated, 16);
        // The cached word is gone...
        let (issue, a) = run_op(|o| l1c.load(WordAddr(0), ReqId(2), o));
        assert_eq!(issue, Issue::Pending);
        bounce(&mut l1c, &mut l2c, a);
        // ...but the dirty word still forwards.
        let (issue, _) = run_op(|o| l1c.load(WordAddr(1), ReqId(3), o));
        assert_eq!(issue, Issue::Hit(9));
        // Local acquire (GPU-H) invalidates nothing.
        l1c.acquire(true);
        assert_eq!(l1c.chassis().counts().flash_invalidations, 1);
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
        assert_eq!(l2c.chassis().counts().l2_atomics, 1);
        assert_eq!(l1c.chassis().counts().l1_atomics, 0, "performed remotely");
        // The L2 word was updated in place.
        l2c.chassis_mut().flush_to_memory();
        assert_eq!(l2c.chassis().memory().read_word(WordAddr(4)), 15);
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
        assert_eq!(l1c.chassis().counts().l1_atomic_hits, 1);
        assert_eq!(l2c.chassis().counts().l2_atomics, 0);
        // The value reaches the L2 at the next global release.
        let (_, actions) = run_op(|o| l1c.release(false, ReqId(3), o));
        bounce(&mut l1c, &mut l2c, actions);
        l2c.chassis_mut().flush_to_memory();
        assert_eq!(l2c.chassis().memory().read_word(WordAddr(4)), 16);
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
        assert_eq!(l1c.chassis().counts().sb_overflow_flushes, 1);
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
        assert_eq!(l2c.chassis().counts().dram_reads, 1);
        let second = run_handler(|o| l2c.handle(1000, &req, o));
        let Action::Send { delay: d2, .. } = second[0] else {
            panic!("expected a send");
        };
        assert!(d1 > d2, "bank hit is faster than the DRAM miss");
        assert_eq!(d2, L2Config::default().latency);
        assert_eq!(
            l2c.chassis().counts().dram_reads,
            1,
            "no second DRAM access"
        );
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
        assert_eq!(
            l2c.chassis().memory().read_word(WordAddr(0)),
            0,
            "not yet in DRAM"
        );
        l2c.chassis_mut().flush_to_memory();
        assert_eq!(l2c.chassis().memory().read_word(WordAddr(0)), 55);
    }
}
