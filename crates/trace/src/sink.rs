//! The [`TraceSink`] consumer trait, the shared [`TraceHandle`] every
//! component reports through, and the bounded [`RingRecorder`].
//!
//! # One handle, many consumers
//!
//! Every component of the simulated machine (engine, L1s, L2, mesh)
//! holds one clone of the run's [`TraceHandle`] and reports each fact it
//! observes once, through the handle method of the same name as the
//! [`TraceSink`] hook (an L1 access, an acquire sweep's dropped words, a
//! link crossing, ...). The handle fans the hook out to every installed
//! consumer, in installation order. A hook whose fact is also a
//! structured [`TraceEvent`] declares that event beside it in the
//! `hooks!` list: the handle then builds the event and hands it to every
//! consumer's [`record`](TraceSink::record), stamped with the shared
//! clock. The few facts no hook carries (thread-block and kernel
//! lifecycle, store-buffer drains, MSHR allocate and retire, releases,
//! checker violations) go straight to [`emit`](TraceHandle::emit).
//!
//! The trace recorder, the profiler, the flow collector and the lens
//! are all consumers; a new view is one more `TraceSink` impl, with no
//! component edits. A consumer that keeps a time series declares its
//! period ([`sample_interval`](TraceSink::sample_interval)); the handle
//! checks that every declared period agrees, and the engine samples on
//! that one clock. After the run verifies, every consumer hears
//! [`run_finished`](TraceSink::run_finished) once, last.
//!
//! # Zero cost when disabled
//!
//! A handle with no consumer is `None` inside: every hook is one pointer
//! test, and no event is ever constructed ([`TraceHandle::emit`] takes a
//! *closure*). The simulator is single-threaded by design (determinism
//! is a correctness property here), so the handle is an `Rc`, not an
//! `Arc`, and cloning it into every component is free of
//! synchronization.

use crate::event::{Level, TraceEvent, WState};
use crate::hook::{IntervalSample, JourneyKind, RunEnd, StallKind};
use gsim_types::{
    Cycle, LineAddr, Msg, MsgClass, NodeId, ReqId, Scope, SyncOrd, TbId, WordAddr, WordMask,
};
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

/// Defines the hook vocabulary once: each hook becomes a [`TraceSink`]
/// method with an empty default body, a forwarding method of the boxed
/// sink, and the [`TraceHandle`] method that fans it out. A hook written
/// `fn name(..) => event;` also carries a trace event: `event` (a
/// [`TraceEvent`], or an `Option` of one for a hook that carries it only
/// sometimes) is built from the hook's arguments after every consumer
/// has seen the hook, and recorded.
macro_rules! hooks {
    ($(
        $(#[$doc:meta])*
        fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $(=> $ev:expr)?;
    )*) => {
        /// A consumer of what the simulated machine reports.
        ///
        /// The hooks receive the typed facts, each reported where it
        /// happens (beside the `Counts` field it reconciles against,
        /// where there is one); [`record`](Self::record) receives the
        /// structured events a recorder keeps. A consumer overrides only
        /// what it reads; the rest default to nothing.
        ///
        /// Facts arrive in deterministic simulation order (the engine is
        /// single-threaded and tie-breaks by sequence number), so two runs
        /// of the same workload deliver identical streams — a property
        /// the test suite asserts. Consumers only observe: nothing a hook
        /// does can reach the simulated machine.
        pub trait TraceSink: std::fmt::Debug {
            /// Records one event at simulated cycle `at`.
            #[allow(unused_variables)]
            fn record(&mut self, at: Cycle, ev: &TraceEvent) {}
            /// The period, in cycles, at which this consumer wants
            /// [`interval_sample`](Self::interval_sample); `None` (the
            /// default) wants no samples. Every consumer of one handle
            /// that declares a period must declare the same one: it is
            /// the run's one sampling clock.
            fn sample_interval(&self) -> Option<Cycle> {
                None
            }
            $(
                $(#[$doc])*
                #[inline]
                #[allow(unused_variables)]
                fn $name(&mut self, $($arg: $ty),*) {}
            )*
        }

        impl<S: TraceSink + ?Sized> TraceSink for Box<S> {
            fn record(&mut self, at: Cycle, ev: &TraceEvent) {
                (**self).record(at, ev);
            }
            fn sample_interval(&self) -> Option<Cycle> {
                (**self).sample_interval()
            }
            $(
                #[inline]
                fn $name(&mut self, $($arg: $ty),*) {
                    (**self).$name($($arg),*);
                }
            )*
        }

        impl TraceHandle {
            $(
                $(#[$doc])*
                #[inline]
                pub fn $name(&self, $($arg: $ty),*) {
                    if let Some(inner) = &self.inner {
                        inner.$name($($arg),*);
                    }
                }
            )*
        }

        // The observed half of each handle method, kept out of line so
        // an unobserved site inlines only its `None` test.
        impl Shared {
            $(
                #[inline(never)]
                fn $name(&self, $($arg: $ty),*) {
                    for sink in &self.sinks {
                        sink.borrow_mut().$name($($arg),*);
                    }
                    $(
                        if let Some(ev) = Option::<TraceEvent>::from($ev) {
                            self.record(&ev);
                        }
                    )?
                }
            )*
        }
    };
}

hooks! {
    // ---- engine: CU cycles and requests ----

    /// An issue tick on CU node `node` at `now` spent its cycle on
    /// `spent`, retired `instructions` instructions (`scratch` of them
    /// scratchpad accesses) and leaves the CU in state `next` (`None`
    /// keeps the state a kernel boundary set this cycle).
    fn cu_tick(
        node: NodeId,
        now: Cycle,
        spent: StallKind,
        next: Option<StallKind>,
        instructions: u64,
        scratch: u64,
    );
    /// CU node `node` changed state at `now` (a completion, a wake-up or
    /// a kernel boundary).
    fn cu_state(node: NodeId, now: Cycle, state: StallKind);
    /// A global acquire is about to sweep the L1 on `node` at `now`.
    fn global_acquire(node: NodeId, now: Cycle);
    /// Thread block `tb` on CU node `cu` issued an atomic on `word` with
    /// ordering `ord` and scope `scope`. Carries `AtomicIssue`.
    fn atomic_issued(tb: TbId, cu: NodeId, word: WordAddr, ord: SyncOrd, scope: Scope)
        => TraceEvent::AtomicIssue { tb, cu, word, ord, scope };
    /// Memory request `req` from CU node `node` for `line` went pending
    /// at `now`. Request ids are minted densely in issue order.
    fn request_issued(req: ReqId, node: NodeId, line: LineAddr, kind: JourneyKind, now: Cycle);
    /// Request `req`, issued at `issued`, completed at `now`.
    fn request_done(req: ReqId, issued: Cycle, now: Cycle);
    /// `msg` reached its destination component (an L1 or an L2 bank).
    /// Carries `MsgDeliver`.
    fn msg_delivered(msg: &Msg)
        => TraceEvent::MsgDeliver { src: msg.src, dst: msg.dst, class: msg.class() };
    /// The engine's counter snapshot at a sample boundary (one clock
    /// serves every time series). Arrives only when a consumer declares
    /// a [`sample_interval`](TraceSink::sample_interval).
    fn interval_sample(sample: &IntervalSample);
    /// The run verified and ended as `end` says; nothing follows.
    fn run_finished(end: &RunEnd);

    // ---- L1 controllers ----

    /// A demand load of `line` on `node` hit (`hit`) or missed (beside
    /// `Counts::l1_load_hits` / `l1_load_misses`).
    fn l1_access(node: NodeId, line: LineAddr, hit: bool);
    /// The load miss on `node` needs `word`, fetched under request
    /// `req` (beside `Counts::l1_load_misses`).
    fn l1_miss(node: NodeId, word: WordAddr, req: ReqId);
    /// The L1 on `node` wrote `word` locally: a program store, or
    /// (`atomic`) the write half of an atomic performed at the L1.
    fn l1_write(node: NodeId, word: WordAddr, atomic: bool);
    /// An acquire sweep on `node` dropped the still-valid words
    /// `dropped` (never empty) of `line` (beside
    /// `Counts::words_invalidated`).
    fn invalidated(node: NodeId, line: LineAddr, dropped: WordMask);
    /// A global acquire on `node` finished its sweep, invalidating
    /// `invalidated` words in all; `flash` marks the GPU's whole-cache
    /// flash invalidation (beside `Counts::flash_invalidations`).
    /// Carries `SyncAcquire`.
    fn acquired(node: NodeId, invalidated: u64, flash: bool)
        => TraceEvent::SyncAcquire { node, scope: Scope::Global, invalidated, flash };
    /// A fill installed `installed` words of `line` on `node`: a
    /// registration grant (`owned`) or a read fill. Carries a
    /// `StateChange` from Invalid when `installed` is not empty.
    fn filled(node: NodeId, line: LineAddr, installed: WordMask, owned: bool)
        => (!installed.is_empty()).then(|| TraceEvent::StateChange {
            node,
            level: Level::L1,
            line,
            words: installed.count(),
            from: WState::Invalid,
            to: if owned { WState::Owned } else { WState::Valid },
        });
    /// A forwarded registration stole `words` owned words of `line` from
    /// `node` (ownership moved L1 to L1). Carries a `StateChange` from
    /// Owned to Invalid.
    fn ownership_stolen(node: NodeId, line: LineAddr, words: u32)
        => TraceEvent::StateChange {
            node,
            level: Level::L1,
            line,
            words,
            from: WState::Owned,
            to: WState::Invalid,
        };
    /// The cache at `level` on `node` evicted `line`, writing back its
    /// `owned_words` owned (L1) or dirty (L2) words; at an L1 they are
    /// beside `Counts::ownership_writebacks`. Carries `Eviction`.
    fn evicted(node: NodeId, level: Level, line: LineAddr, owned_words: u32)
        => TraceEvent::Eviction { node, level, line, owned_words };

    // ---- L2 and registry ----

    /// An L2 or registry operation on `line` (beside
    /// `Counts::l2_accesses`).
    fn l2_access(line: LineAddr);
    /// The registry forwarded a request on `line` to the L1 owning some
    /// of its words (beside `Counts::reg_forwards`).
    fn l2_forward(line: LineAddr);
    /// The registry moved `words` words of `line` from one owner to
    /// another (registration ping-pong).
    fn l2_transfer(line: LineAddr, words: u32);
    /// The registry on `bank` registered `words` words of `line` and
    /// granted `granted` of them at once, being free (words it moves
    /// from a previous owner are reported to `l2_transfer`; with it,
    /// beside `Counts::registrations`). Carries a `StateChange` of the
    /// `granted` words from Valid to Invalid at the L2 when there are
    /// any: a moved word was already Invalid there.
    fn l2_register(bank: NodeId, line: LineAddr, words: u32, granted: u32)
        => (granted > 0).then_some(TraceEvent::StateChange {
            node: bank,
            level: Level::L2,
            line,
            words: granted,
            from: WState::Valid,
            to: WState::Invalid,
        });

    // ---- interconnect ----

    /// A message crossed the directed link `from -> to`: `flits` flits
    /// of `class` after `queue` cycles waiting for the link, then
    /// `transit` cycles on the wire.
    fn link_crossing(
        from: NodeId,
        to: NodeId,
        class: MsgClass,
        flits: u32,
        queue: Cycle,
        transit: Cycle,
    );
    /// `msg`, injected at `inject`, fully arrived at `arrival` after
    /// `hops` links and `queue` cycles waiting for them (beside
    /// `Counts::messages_sent`). Carries `MsgSend`.
    fn msg_sent(msg: &Msg, inject: Cycle, arrival: Cycle, queue: Cycle, hops: u32)
        => TraceEvent::MsgSend {
            src: msg.src,
            dst: msg.dst,
            class: msg.class(),
            flits: msg.flits(),
            hops,
            arrival,
        };
}

struct Shared {
    now: Cell<Cycle>,
    /// The sampling period every consumer that declares one agrees on.
    interval: Option<Cycle>,
    sinks: Vec<Rc<RefCell<dyn TraceSink>>>,
}

impl Shared {
    /// Hands `ev` to every consumer, stamped with the shared clock.
    #[inline]
    fn record(&self, ev: &TraceEvent) {
        let at = self.now.get();
        for sink in &self.sinks {
            sink.borrow_mut().record(at, ev);
        }
    }
}

/// The cloneable handle every component reports through.
///
/// Components store a clone; the simulation engine advances the shared
/// clock with [`set_now`](TraceHandle::set_now) as it dispatches events,
/// so emitting components never need to thread the current cycle around.
///
/// # Examples
///
/// ```
/// use gsim_trace::{RingRecorder, TraceEvent, TraceHandle};
/// use gsim_types::{NodeId, TbId};
///
/// let off = TraceHandle::disabled();
/// off.emit(|| unreachable!("closure never runs when disabled"));
///
/// let on = TraceHandle::new(RingRecorder::new(16));
/// on.set_now(42);
/// on.emit(|| TraceEvent::TbLaunch { tb: TbId(0), cu: NodeId(0) });
/// let events = on.recorder().unwrap().borrow().to_vec();
/// assert_eq!(events.len(), 1);
/// assert_eq!(events[0].0, 42);
/// ```
#[derive(Clone, Default)]
pub struct TraceHandle {
    inner: Option<Rc<Shared>>,
    recorder: Option<Rc<RefCell<RingRecorder>>>,
}

impl std::fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceHandle")
            .field("enabled", &self.inner.is_some())
            .finish()
    }
}

impl TraceHandle {
    /// A handle with no consumer: every hook and every
    /// [`emit`](Self::emit) is a no-op, and `emit`'s closure is never
    /// evaluated.
    pub fn disabled() -> Self {
        TraceHandle {
            inner: None,
            recorder: None,
        }
    }

    /// A handle recording into a [`RingRecorder`], which stays reachable
    /// through [`recorder`](Self::recorder) after the run.
    pub fn new(recorder: RingRecorder) -> Self {
        let rec = Rc::new(RefCell::new(recorder));
        let mut handle =
            TraceHandle::disabled().with_consumers([rec.clone() as Rc<RefCell<dyn TraceSink>>]);
        handle.recorder = Some(rec);
        handle
    }

    /// A handle feeding an arbitrary [`TraceSink`].
    pub fn with_sink(sink: Box<dyn TraceSink>) -> Self {
        TraceHandle::disabled().with_consumers([Rc::new(RefCell::new(sink)) as _])
    }

    /// A handle feeding this handle's consumers, then `consumers`, on a
    /// clock of its own. The caller keeps its `Rc`s to read the
    /// consumers back after the run; a handle with no consumer at all is
    /// [`disabled`](Self::disabled).
    ///
    /// # Panics
    ///
    /// Panics, naming both, if two consumers declare different
    /// [`sample_interval`](TraceSink::sample_interval)s.
    pub fn with_consumers(
        &self,
        consumers: impl IntoIterator<Item = Rc<RefCell<dyn TraceSink>>>,
    ) -> TraceHandle {
        let mut sinks: Vec<_> = self.inner.iter().flat_map(|s| s.sinks.clone()).collect();
        sinks.extend(consumers);
        // The first declared period, with the position of its consumer.
        let mut interval: Option<(Cycle, usize)> = None;
        for (i, sink) in sinks.iter().enumerate() {
            if let Some(period) = sink.borrow().sample_interval() {
                let (first, j) = *interval.get_or_insert((period, i));
                assert_eq!(
                    first, period,
                    "consumers disagree on the sampling interval: consumer {j} declares \
                     {first} cycles, consumer {i} declares {period}"
                );
            }
        }
        TraceHandle {
            inner: (!sinks.is_empty()).then(|| {
                Rc::new(Shared {
                    now: Cell::new(0),
                    interval: interval.map(|(period, _)| period),
                    sinks,
                })
            }),
            recorder: self.recorder.clone(),
        }
    }

    /// The run's sampling period: the one every consumer that declares
    /// a [`sample_interval`](TraceSink::sample_interval) agrees on, or
    /// `None` when no consumer wants samples.
    pub fn sample_interval(&self) -> Option<Cycle> {
        self.inner.as_ref().and_then(|s| s.interval)
    }

    /// Another handle on the same consumers and clock — what each
    /// simulated component stores. Spelled as a method (rather than
    /// `Clone`) at the call sites so wiring code reads as sharing one
    /// handle, not copying a tracer.
    #[inline]
    pub fn share(&self) -> TraceHandle {
        self.clone()
    }

    /// Whether any consumer is installed.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Advances the shared clock; called by the engine at each
    /// discrete-event dispatch.
    #[inline]
    pub fn set_now(&self, cycle: Cycle) {
        if let Some(inner) = &self.inner {
            inner.now.set(cycle);
        }
    }

    /// Emits an event that no hook carries to every consumer, stamped
    /// with the shared clock. The closure is evaluated only when a
    /// consumer is installed, so instrumentation sites cost one branch
    /// otherwise.
    #[inline]
    pub fn emit(&self, f: impl FnOnce() -> TraceEvent) {
        if let Some(inner) = &self.inner {
            inner.record(&f());
        }
    }

    /// The ring recorder behind a handle built with [`new`](Self::new)
    /// (or derived from one); `None` for disabled or custom-sink handles.
    pub fn recorder(&self) -> Option<&Rc<RefCell<RingRecorder>>> {
        self.recorder.as_ref()
    }
}

/// A bounded in-memory recorder: keeps the most recent `capacity`
/// events and counts how many older ones it had to drop.
///
/// Bounding matters: a paper-scale run emits hundreds of millions of
/// events, and an unbounded buffer would dwarf the simulated machine.
/// The ring keeps the *tail* of the stream — usually what you want when
/// staring at the cycles right before a hang or at steady-state
/// behaviour — and the drop count keeps the truncation honest.
#[derive(Debug)]
pub struct RingRecorder {
    capacity: usize,
    events: VecDeque<(Cycle, TraceEvent)>,
    dropped: u64,
}

impl RingRecorder {
    /// A recorder keeping at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        RingRecorder {
            capacity: capacity.max(1),
            events: VecDeque::new(),
            dropped: 0,
        }
    }

    /// The recorded `(cycle, event)` pairs, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &(Cycle, TraceEvent)> {
        self.events.iter()
    }

    /// The recorded pairs as an owned vector (oldest first).
    pub fn to_vec(&self) -> Vec<(Cycle, TraceEvent)> {
        self.events.iter().copied().collect()
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been recorded (or everything was dropped).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

impl TraceSink for RingRecorder {
    fn record(&mut self, at: Cycle, ev: &TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back((at, *ev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(n: u32) -> TraceEvent {
        TraceEvent::TbLaunch {
            tb: TbId(n),
            cu: NodeId(0),
        }
    }

    #[test]
    fn disabled_handle_never_evaluates() {
        let h = TraceHandle::disabled();
        assert!(!h.is_enabled());
        h.set_now(99);
        h.emit(|| panic!("must not run"));
        h.evicted(NodeId(0), Level::L1, LineAddr(0), 0); // builds no event
        assert!(h.recorder().is_none());
    }

    #[test]
    fn ring_keeps_the_tail_and_counts_drops() {
        let mut r = RingRecorder::new(3);
        for i in 0..5 {
            r.record(i as u64, &ev(i));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        let kept: Vec<u64> = r.events().map(|(c, _)| *c).collect();
        assert_eq!(kept, vec![2, 3, 4], "oldest events evicted first");
    }

    #[test]
    fn handle_stamps_the_shared_clock() {
        let h = TraceHandle::new(RingRecorder::new(8));
        assert!(h.is_enabled());
        h.emit(|| ev(0));
        h.set_now(10);
        h.emit(|| ev(1));
        h.set_now(25);
        let h2 = h.clone();
        h2.emit(|| ev(2)); // clones share clock and sink
        let got = h.recorder().unwrap().borrow().to_vec();
        assert_eq!(
            got.iter().map(|(c, _)| *c).collect::<Vec<_>>(),
            vec![0, 10, 25]
        );
        assert_eq!(got[2].1, ev(2));
    }

    /// Logs the L2 accesses, evictions and events it is shown, in order.
    #[derive(Debug, Default)]
    struct Log(Vec<String>);

    impl TraceSink for Log {
        fn record(&mut self, at: Cycle, ev: &TraceEvent) {
            self.0.push(format!("{ev:?} at {at}"));
        }
        fn l2_access(&mut self, line: LineAddr) {
            self.0.push(format!("l2 {}", line.0));
        }
        fn evicted(&mut self, _: NodeId, _: Level, line: LineAddr, _: u32) {
            self.0.push(format!("evicted {}", line.0));
        }
    }

    #[test]
    fn hooks_fan_out_to_every_consumer() {
        let boxed = Rc::new(RefCell::new(Log::default()));
        let base = TraceHandle::with_sink(Box::new(SharedLog(boxed.clone())));
        let extra = Rc::new(RefCell::new(Log::default()));
        let h = base.with_consumers([extra.clone() as Rc<RefCell<dyn TraceSink>>]);
        h.l2_access(LineAddr(3));
        h.share().l2_access(LineAddr(4));
        assert_eq!(boxed.borrow().0, ["l2 3", "l2 4"], "the boxed sink");
        assert_eq!(extra.borrow().0, ["l2 3", "l2 4"], "the added consumer");

        // A hook that carries an event: every consumer sees the hook,
        // then the event stamped with the shared clock. A fill that
        // installs nothing, or a registration that grants nothing at
        // once, carries no event.
        h.set_now(7);
        h.evicted(NodeId(1), Level::L2, LineAddr(5), 2);
        h.filled(NodeId(1), LineAddr(5), WordMask::empty(), false);
        h.l2_register(NodeId(1), LineAddr(5), 3, 0);
        h.ownership_stolen(NodeId(2), LineAddr(9), 4);
        h.filled(NodeId(2), LineAddr(9), WordMask::single(1), true);
        let state = |words, from, to| TraceEvent::StateChange {
            node: NodeId(2),
            level: Level::L1,
            line: LineAddr(9),
            words,
            from,
            to,
        };
        let events = [
            TraceEvent::Eviction {
                node: NodeId(1),
                level: Level::L2,
                line: LineAddr(5),
                owned_words: 2,
            },
            state(4, WState::Owned, WState::Invalid),
            state(1, WState::Invalid, WState::Owned),
        ];
        let mut want = vec!["l2 3".to_string(), "l2 4".into(), "evicted 5".into()];
        want.extend(events.iter().map(|ev| format!("{ev:?} at 7")));
        for log in [&boxed, &extra] {
            assert_eq!(log.borrow().0, want);
        }
        assert!(!TraceHandle::disabled()
            .with_consumers(std::iter::empty())
            .is_enabled());
    }

    /// A boxed sink forwarding to a log the test keeps.
    #[derive(Debug)]
    struct SharedLog(Rc<RefCell<Log>>);

    impl TraceSink for SharedLog {
        fn record(&mut self, at: Cycle, ev: &TraceEvent) {
            self.0.borrow_mut().record(at, ev);
        }
        fn l2_access(&mut self, line: LineAddr) {
            self.0.borrow_mut().l2_access(line);
        }
        fn evicted(&mut self, node: NodeId, level: Level, line: LineAddr, words: u32) {
            self.0.borrow_mut().evicted(node, level, line, words);
        }
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut r = RingRecorder::new(0);
        r.record(1, &ev(0));
        r.record(2, &ev(1));
        assert_eq!(r.len(), 1);
        assert_eq!(r.dropped(), 1);
    }
}
