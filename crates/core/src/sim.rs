//! The discrete-event simulation engine and the [`Simulator`] facade.
//!
//! One machine instance simulates one workload run: 15 GPU CUs (each
//! a set of resident thread blocks interpreting the [kernel
//! IR](crate::kernel)), the per-node L1 controllers, the shared
//! L2/registry, and the 4x4 mesh, all driven by a deterministic event
//! queue ordered by `(cycle, sequence number)`.
//!
//! The DRF/HRF program-order rules of the paper's §2 are enforced here,
//! around the interpreter:
//!
//! 1. an *acquire* completes before any younger access issues — thread
//!    blocks are in-order and block on sync operations, and the
//!    acquire-side invalidation runs when the sync operation completes;
//! 2. older data writes complete before a *release* — the release phase
//!    of a releasing sync operation drains the store buffer and waits
//!    (writethrough acks for GPU coherence, registration grants for
//!    DeNovo) before the sync access itself issues;
//! 3. sync accesses are mutually ordered — they block their thread
//!    block.
//!
//! Kernel boundaries get the conventional GPU treatment: an acquire
//! (cache self-invalidation) at launch, a release (full flush) at
//! completion, on every CU.

use crate::config::SystemConfig;
use crate::equeue::EventQueue;
use crate::kernel::{Instr, NUM_REGS};
use crate::pending::PendingTable;
use crate::proto::{L1, L2};
use crate::workload::{KernelLaunch, Workload};
use gsim_check::{CheckKind, CheckLevel, CheckReport, RaceDetector, SyncKey, Violation};
use gsim_energy::EnergyModel;
use gsim_mem::MemoryImage;
use gsim_noc::Mesh;
use gsim_protocol::{Action, Issue, L1Config};
use gsim_trace::{
    IntervalSample, JourneyKind, RunEnd, RunShape, StallKind, TraceEvent, TraceHandle,
};
use gsim_types::{
    AtomicOp, Component, Counts, Cycle, FxHashMap, LatencyBreakdown, Msg, NodeId, ReqId, Scope,
    SimStats, TbId, Value, WordAddr,
};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::Arc;

/// Why a run failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The watchdog fired: likely a livelock or a deadlocked workload.
    Watchdog {
        /// The cycle limit that was hit.
        cycles: Cycle,
        /// A thread-block state dump to locate the stuck code.
        report: String,
    },
    /// The workload's verifier rejected the final memory image.
    Verify(String),
    /// The conformance checker found violations (see [`gsim_check`]).
    Check {
        /// The rendered [`CheckReport`]: one line per violation.
        report: String,
    },
    /// The workload does not fit the system (a thread block pinned to a
    /// CU the topology lacks, or more resident blocks per CU than the
    /// scheduler tracks); nothing was simulated.
    Workload(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Watchdog { cycles, report } => {
                write!(
                    f,
                    "watchdog fired after {cycles} cycles (deadlock?)\n{report}"
                )
            }
            SimError::Verify(msg) => write!(f, "verification failed: {msg}"),
            SimError::Check { report } => write!(f, "conformance check failed: {report}"),
            SimError::Workload(msg) => write!(f, "workload does not fit the system: {msg}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Where an event's synchronous state mutation lands — the conflict
/// granularity the schedule explorer (`gsim-explore`) prunes on.
///
/// Every engine event mutates exactly one component's state when it is
/// processed: a `CuTick`/`TbWake`/`Finish` touches one CU and its
/// private L1; a `Deliver` touches its destination L1 or L2 bank.
/// Two same-cycle events with *different* footprints commute up to
/// event-sequence renumbering: any downstream ordering effect surfaces
/// as a later same-cycle tie, which is itself a decision point the
/// explorer can flip. (Cross-component coupling through NoC link
/// arbitration is the one deliberate approximation — see DESIGN.md
/// §7h; the explorer's naive mode branches on every candidate and is
/// differentially compared against DPOR in `tests/explore.rs`.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Footprint {
    /// One node's CU + private L1 state.
    L1Node(u8),
    /// One shared L2 bank (home of the lines it serves).
    L2Bank(u8),
}

impl Footprint {
    /// Whether two same-cycle events may influence each other's effect.
    pub fn conflicts(self, other: Footprint) -> bool {
        self == other
    }
}

/// One poppable event at a decision point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// The queue push serial — the event's stable identity in this run.
    pub seq: u64,
    /// Conflict footprint (see [`Footprint`]).
    pub fp: Footprint,
}

/// One decision point of a scheduled run: a cycle at which ≥ 2 events
/// were simultaneously poppable, and which one the schedule picked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decision {
    /// The cycle of the tie.
    pub cycle: Cycle,
    /// The candidate set, in `seq` (program/default) order.
    pub candidates: Vec<Candidate>,
    /// Index into `candidates` that the schedule popped first.
    pub chosen: u32,
}

/// The result of a scheduled (exploration/replay) run: the usual stats,
/// the full decision trace (one entry per same-cycle tie, including
/// those the schedule left at the default choice 0), and the final
/// values of the requested observation words.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploredRun {
    /// Run statistics, byte-comparable via `SimStats::to_json` for
    /// replay-determinism assertions.
    pub stats: SimStats,
    /// Every decision point encountered, in order.
    pub decisions: Vec<Decision>,
    /// Final memory values of the observation words, in request order.
    pub observed: Vec<Value>,
}

/// The schedule controller state of an exploration/replay run.
struct SchedState {
    /// Choice at decision point `i` (`0` = default past the end).
    prefix: Vec<u32>,
    /// Decisions recorded so far.
    decisions: Vec<Decision>,
}

/// Where the engine stands in the kernel-launch lifecycle. Transitions
/// happen only at *cycle boundaries* (no event left at the current
/// cycle): the last thread block to retire, or the last end-of-kernel
/// drain to complete, does not advance the kernel itself. Every event
/// of its cycle is processed first, so the timing of a kernel switch
/// never depends on where in a cycle's event order that event fell.
/// The golden stats pin this timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KernelPhase {
    /// About to launch kernel `i` (or finish, if `i` is past the end).
    Launch(usize),
    /// Thread blocks executing; ready to advance when all have retired.
    Running,
    /// End-of-kernel releases issued; ready when every drain completed.
    Draining,
    /// All kernels done.
    Finished,
}

/// The public entry point: runs workloads under one [`SystemConfig`].
///
/// # Examples
///
/// ```
/// use gsim_core::{Simulator, SystemConfig};
/// use gsim_core::kernel::{imm, KernelBuilder};
/// use gsim_core::workload::{KernelLaunch, TbSpec, Workload};
/// use gsim_types::ProtocolConfig;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = KernelBuilder::new();
/// b.mov(1, imm(0)); // r1 = base word address 0
/// b.st(b.at(1, 0), imm(42));
/// b.halt();
/// let w = Workload {
///     name: "store42".into(),
///     init: Box::new(|_| {}),
///     kernels: vec![KernelLaunch { program: b.build(), tbs: vec![TbSpec::with_regs(&[])] }],
///     verify: Box::new(|mem| {
///         (mem.read_word(gsim_types::WordAddr(0)) == 42)
///             .then_some(())
///             .ok_or_else(|| "lost the store".to_string())
///     }),
/// };
/// let sim = Simulator::new(SystemConfig::micro15(ProtocolConfig::Dd));
/// let stats = sim.run(&w)?;
/// assert!(stats.cycles > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Simulator {
    config: SystemConfig,
}

impl Simulator {
    /// Creates a simulator for the given system configuration.
    pub fn new(config: SystemConfig) -> Self {
        Simulator { config }
    }

    /// The configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Runs `workload` to completion, verifies its final memory image,
    /// and returns the run statistics.
    ///
    /// # Errors
    ///
    /// [`SimError::Watchdog`] if the cycle limit is exceeded,
    /// [`SimError::Verify`] if the functional check fails,
    /// [`SimError::Workload`] if the workload does not fit the system.
    pub fn run(&self, workload: &Workload) -> Result<SimStats, SimError> {
        self.run_traced(workload, TraceHandle::disabled())
    }

    /// As [`run`](Self::run), with every component reporting through
    /// `trace`: the one observed run path. The consumers installed on
    /// the handle (a recorder, the profile, flow and lens collectors,
    /// any other [`TraceSink`](gsim_trace::TraceSink)) see every hook;
    /// [`interval_sample`](gsim_trace::TraceSink::interval_sample)
    /// arrives every [`TraceHandle::sample_interval`] cycles, when a
    /// consumer declares one, and
    /// [`run_finished`](gsim_trace::TraceSink::run_finished) once, after
    /// the run verifies. With no consumer, each hook costs one branch.
    ///
    /// Consumers only observe: the returned `SimStats` are identical to
    /// what [`run`](Self::run) produces (asserted by the root crate's
    /// `trace`, `profiler`, `flow` and `lens` tests).
    ///
    /// # Errors
    ///
    /// As [`run`](Self::run).
    pub fn run_traced(
        &self,
        workload: &Workload,
        trace: TraceHandle,
    ) -> Result<SimStats, SimError> {
        Machine::new(&self.config, workload, trace)?
            .run(workload)
            .map(|out| out.stats)
    }

    /// Runs `workload` under explorer control: at every cycle where ≥ 2
    /// events are simultaneously poppable (the event queue's
    /// [`candidates`](EventQueue::candidates)), the event at index
    /// `prefix[i]` (in `seq` order; default `0` past the prefix's end)
    /// pops first at the `i`-th such decision point. The identity
    /// schedule (`prefix = &[]`) reproduces the production
    /// `(cycle, seq)` order exactly.
    ///
    /// Returns the stats, the full decision trace (the explorer's
    /// branching input), and the final values of the `obs` words.
    ///
    /// # Errors
    ///
    /// As [`run`](Self::run). Note the configured [`SystemConfig::check`]
    /// level applies; explorers of racy shapes should use
    /// `CheckLevel::Invariants` so the race detector does not fail the
    /// run before the outcome is observed.
    pub fn run_explored(
        &self,
        workload: &Workload,
        prefix: &[u32],
        obs: &[WordAddr],
    ) -> Result<ExploredRun, SimError> {
        let mut m = Machine::new(&self.config, workload, TraceHandle::disabled())?;
        m.sched = Some(SchedState {
            prefix: prefix.to_vec(),
            decisions: Vec::new(),
        });
        m.obs_words = obs.to_vec();
        m.run(workload).map(|out| ExploredRun {
            stats: out.stats,
            decisions: out.decisions,
            observed: out.observed,
        })
    }
}

/// Initial capacity of [`Machine::actions`]. Most controller calls
/// append 0-3 actions and a release one per drained store-buffer line.
/// Sizing the sink once per run keeps it from regrowing through every
/// power of two in each run; measured over 25 back-to-back tiny_matrix
/// passes in one process, that regrowth alone raised peak RSS by 5-9%.
const ACTION_SINK_CAPACITY: usize = 64;

/// The most resident thread blocks a CU can hold: one bit each in
/// [`Cu::ready`].
const MAX_TBS_PER_CU: usize = u64::BITS as usize;

/// What [`Machine::run`] hands back on success.
#[derive(Debug)]
struct RunOut {
    stats: SimStats,
    /// Decision trace (empty unless the run was scheduled).
    decisions: Vec<Decision>,
    /// Final values of `Machine::obs_words` (empty unless requested).
    observed: Vec<Value>,
}

/// What a completing request should do.
#[derive(Debug, Clone, Copy)]
enum Cont {
    /// Write the value to `dst` and advance.
    Load { dst: u8 },
    /// Write the pre-op value to `dst`, run the acquire side (with the
    /// given effective locality) if any, clear the release latch,
    /// advance.
    AtomicDone { dst: u8, acquire: Option<bool> },
    /// The release phase of a releasing sync op finished: re-execute the
    /// same instruction with the latch set.
    ReleaseForAtomic,
}

/// Who a completion belongs to.
#[derive(Debug, Clone, Copy)]
enum Target {
    Tb {
        tb: usize,
        cont: Cont,
    },
    /// An end-of-kernel release on `cu`.
    KernelDrain {
        cu: usize,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum TbStatus {
    Ready,
    Blocked,
    Done,
}

/// One resident or queued thread block. Its index into `Machine::tbs`
/// is its index in the kernel launch, i.e. its [`TbId`] (register 0 by
/// workload convention).
#[derive(Debug)]
struct Tb {
    cu: usize,
    slot: usize,
    pc: usize,
    regs: [Value; NUM_REGS],
    scratch: Vec<Value>,
    program: Arc<crate::kernel::Program>,
    status: TbStatus,
    /// The release phase of the current releasing sync op is done.
    released: bool,
    /// When the currently stalled sync operation first issued (spans
    /// retries and backoff; feeds the barrier-wait histogram).
    sync_started: Option<Cycle>,
    /// Why this thread block is blocked, when it is (profiler cycle
    /// attribution; meaningless while `Ready`).
    wait: StallKind,
}

/// Per-CU scheduling state.
#[derive(Debug)]
struct Cu {
    /// Resident thread-block indices (into `Machine::tbs`).
    slots: Vec<Option<usize>>,
    /// Bit `s` is set iff slot `s` holds a [`TbStatus::Ready`] thread
    /// block; kept by [`Machine::set_status`].
    ready: u64,
    /// Thread blocks waiting for a slot.
    queue: VecDeque<usize>,
    /// Round-robin pointer.
    rr: usize,
    tick_scheduled: bool,
}

/// One queued engine event. Every payload is an index or a completion's
/// `(ReqId, Value)`, so an event is 16 bytes and a calendar ring entry
/// (`(cycle, seq, Event)`) 32. A delivery names the slot of
/// [`Machine::in_flight`] its message waits in instead of carrying it.
#[derive(Debug)]
enum Event {
    /// Issue one instruction on the CU node.
    CuTick(u32),
    /// The message in this slot of [`Machine::in_flight`] arrives.
    Deliver(u32),
    /// A delayed completion fires.
    Finish { req: ReqId, value: Value },
    /// A compute-blocked thread block (index into `Machine::tbs`)
    /// becomes ready.
    TbWake { tb: u32 },
}

const _: () = assert!(std::mem::size_of::<Event>() == 16);

impl Event {
    /// The conflict footprint of a queued event (see [`Footprint`]).
    fn footprint(
        &self,
        tbs: &[Tb],
        in_flight: &MsgSlab,
        pending: &PendingTable<(Target, Cycle)>,
    ) -> Footprint {
        match self {
            Event::CuTick(cu) => Footprint::L1Node(*cu as u8),
            Event::TbWake { tb } => Footprint::L1Node(tbs[*tb as usize].cu as u8),
            Event::Deliver(slot) => {
                let msg = in_flight.get(*slot);
                match msg.dst_comp {
                    Component::L1 => Footprint::L1Node(msg.dst.0),
                    Component::L2 => Footprint::L2Bank(msg.dst.0),
                }
            }
            Event::Finish { req, .. } => {
                let cu = match pending
                    .get(*req)
                    .expect("queued completion for an unknown request")
                {
                    (Target::Tb { tb, .. }, _) => tbs[*tb].cu,
                    (Target::KernelDrain { cu }, _) => *cu,
                };
                Footprint::L1Node(cu as u8)
            }
        }
    }
}

/// Messages between their send and their delivery: a slab of slots with
/// a last-in first-out free list. A slot number only links a queued
/// [`Event::Deliver`] to its message; deliveries pop in the queue's
/// `(cycle, seq)` order whatever slot they name, so slot reuse cannot
/// reach `SimStats`.
#[derive(Debug, Default)]
struct MsgSlab {
    msgs: Vec<Msg>,
    free: Vec<u32>,
}

impl MsgSlab {
    /// Parks `msg` in a free slot (the most recently freed one, else a
    /// new one) and returns the slot.
    fn insert(&mut self, msg: Msg) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.msgs[slot as usize] = msg;
                slot
            }
            None => {
                self.msgs.push(msg);
                u32::try_from(self.msgs.len() - 1).expect("fewer than 2^32 messages in flight")
            }
        }
    }

    /// The message parked in `slot`.
    fn get(&self, slot: u32) -> &Msg {
        &self.msgs[slot as usize]
    }

    /// Takes the message out of `slot`, freeing the slot.
    fn take(&mut self, slot: u32) -> Msg {
        self.free.push(slot);
        self.msgs[slot as usize]
    }
}

struct Machine {
    protocol: gsim_types::ProtocolConfig,
    /// Which nodes host a CU; its CUs per device are the default
    /// thread-block mapping's modulus.
    shape: RunShape,
    tbs_per_cu: usize,
    max_cycles: Cycle,

    now: Cycle,
    /// The calendar queue (or, for differential testing, the heap
    /// reference) ordering events by `(cycle, push sequence)`.
    events: EventQueue<Event>,
    /// The messages of the queued [`Event::Deliver`]s.
    in_flight: MsgSlab,

    mesh: Mesh,
    l1s: Vec<L1>,
    l2: L2,
    /// The one action sink every controller call appends to. Each call
    /// site hands it to a controller and then runs
    /// [`process_actions`](Machine::process_actions), which drains it in
    /// push order — the order that assigns the resulting events' `seq`
    /// numbers — so it is empty between calls and its buffer is reused.
    actions: Vec<Action>,
    cus: Vec<Cu>,
    tbs: Vec<Tb>,

    /// In-flight requests with their issue cycle (for the latency
    /// histograms), slot-indexed by the densely minted [`ReqId`]s.
    pending: PendingTable<(Target, Cycle)>,
    next_req: u64,

    kernels_done: usize,
    tbs_finished: usize,
    drain_left: usize,
    /// Index of the kernel currently executing (for trace events).
    kernel_index: usize,
    /// Where the engine stands in the kernel lifecycle (advanced only
    /// at cycle boundaries; see [`KernelPhase`]).
    phase: KernelPhase,
    /// Engine-side counters (instructions, scratch, active cycles).
    counts: Counts,
    /// Engine-attributed latency histograms.
    latency: LatencyBreakdown,
    /// The run's one observation handle: every component reports
    /// through a clone of it, and it fans each report out to the
    /// consumers the caller installed (no consumer: every hook is one
    /// branch).
    trace: TraceHandle,
    /// The next sample boundary (`Cycle::MAX` when no consumer declares
    /// a sampling interval, so the hot-loop test never fires).
    next_sample: Cycle,
    /// The sampling period ([`TraceHandle::sample_interval`], at least
    /// 1; `Cycle::MAX` when there is none).
    interval: Cycle,
    /// Sync operations (atomics) currently in flight — a profiler
    /// gauge, maintained unconditionally (one integer).
    sync_inflight: u64,

    /// Conformance-checking level for this run.
    check: CheckLevel,
    /// The happens-before race detector (only under [`CheckLevel::Full`];
    /// boxed because its maps dwarf the rest of the machine). Thread
    /// blocks are keyed by their index into `tbs`.
    races: Option<Box<RaceDetector>>,
    /// Violations accumulated by every checker layer.
    report: CheckReport,
    /// Schedule controller for exploration/replay runs (`None` on the
    /// production path: the hot loop pays one branch).
    sched: Option<SchedState>,
    /// Words whose final memory values the caller wants reported.
    obs_words: Vec<WordAddr>,
}

impl Machine {
    /// Builds the machine for one run of `workload`, every component
    /// reporting through `trace`. Every run passes through here, so
    /// this is where a workload that does not fit the system is
    /// rejected.
    fn new(
        config: &SystemConfig,
        workload: &Workload,
        trace: TraceHandle,
    ) -> Result<Machine, SimError> {
        if config.tbs_per_cu > MAX_TBS_PER_CU {
            return Err(SimError::Workload(format!(
                "{} resident thread blocks per CU exceed the {MAX_TBS_PER_CU} a CU's ready mask tracks",
                config.tbs_per_cu
            )));
        }
        let shape = config.run_shape();
        let total_cus = shape.cus();
        for (k, launch) in workload.kernels.iter().enumerate() {
            let mut pins = launch.tbs.iter().filter_map(|tb| tb.cu);
            if let Some(cu) = pins.find(|&cu| cu >= total_cus) {
                return Err(SimError::Workload(format!(
                    "kernel {k} pins a thread block to CU {cu}, but the system has {total_cus} CUs \
                     ({} device(s) x {} CUs)",
                    config.topology.devices, config.gpu_cus
                )));
            }
        }
        let mut memory = MemoryImage::new();
        (workload.init)(&mut memory);
        let nodes = shape.nodes;
        let interval = trace.sample_interval().map_or(Cycle::MAX, |p| p.max(1));
        let l1s = (0..nodes as u8)
            .map(NodeId)
            .map(|n| {
                L1::build(
                    config.protocol,
                    L1Config {
                        node: n,
                        geometry: config.l1_geometry,
                        sb_entries: config.sb_entries,
                        mshr_entries: config.mshr_entries,
                        banks: config.l2.banks as u8,
                    },
                    config.dh_delayed_ownership,
                    config.denovo_sync_backoff,
                    &trace,
                )
            })
            .collect();
        // One slot per node: the entries at each device's non-CU node
        // (the CPU/L2-only node) stay empty, so `cu` indexes both this
        // vector and `l1s` by global node id.
        let cus = (0..nodes)
            .map(|_| Cu {
                slots: vec![None; config.tbs_per_cu],
                ready: 0,
                queue: VecDeque::new(),
                rr: 0,
                tick_scheduled: false,
            })
            .collect();
        let mut mesh = Mesh::with_topology(config.topology);
        mesh.set_trace(&trace);
        let l2 = L2::build(config.protocol, config.l2, memory, &trace);
        Ok(Machine {
            protocol: config.protocol,
            shape,
            tbs_per_cu: config.tbs_per_cu,
            max_cycles: config.max_cycles,
            now: 0,
            events: EventQueue::new(config.event_queue),
            in_flight: MsgSlab::default(),
            mesh,
            l1s,
            l2,
            actions: Vec::with_capacity(ACTION_SINK_CAPACITY),
            cus,
            tbs: Vec::new(),
            pending: PendingTable::new(),
            next_req: 0,
            kernels_done: 0,
            tbs_finished: 0,
            drain_left: 0,
            kernel_index: 0,
            phase: KernelPhase::Launch(0),
            counts: Counts::default(),
            latency: LatencyBreakdown::default(),
            trace,
            next_sample: interval,
            interval,
            sync_inflight: 0,
            check: config.check,
            races: config.check.races().then(|| Box::new(RaceDetector::new())),
            report: CheckReport::default(),
            sched: None,
            obs_words: Vec::new(),
        })
    }

    /// Pops the next event: the production path is a straight
    /// `events.pop()`; scheduled runs detour through the decision-point
    /// recorder.
    #[inline]
    fn next_event(&mut self) -> Option<(Cycle, u64, Event)> {
        if self.sched.is_none() {
            return self.events.pop();
        }
        self.pop_scheduled()
    }

    /// The scheduled pop: when ≥ 2 events are poppable at the head
    /// cycle, record a [`Decision`] (candidates with their conflict
    /// footprints, in `seq` order) and pop the one the schedule prefix
    /// picks — default choice 0, which is exactly what a production pop
    /// would return.
    fn pop_scheduled(&mut self) -> Option<(Cycle, u64, Event)> {
        let Machine {
            events,
            sched,
            tbs,
            in_flight,
            pending,
            ..
        } = self;
        let chosen = {
            let (cycle, view) = events.candidates()?;
            if view.len() < 2 {
                0
            } else {
                let candidates: Vec<Candidate> = view
                    .map(|(seq, ev)| Candidate {
                        seq,
                        fp: ev.footprint(tbs, in_flight, pending),
                    })
                    .collect();
                let sched = sched.as_mut().expect("checked by next_event");
                let idx = sched.decisions.len();
                let chosen = sched.prefix.get(idx).copied().unwrap_or(0);
                assert!(
                    (chosen as usize) < candidates.len(),
                    "schedule choice {chosen} at decision {idx} out of range ({} candidates)",
                    candidates.len()
                );
                sched.decisions.push(Decision {
                    cycle,
                    candidates,
                    chosen,
                });
                chosen
            }
        };
        events.pop_nth(chosen as usize)
    }

    /// Records a checker violation: one trace instant plus a report line.
    fn violation(&mut self, kind: CheckKind, detail: String) {
        self.trace
            .emit(|| TraceEvent::CheckViolation { kind: kind.label() });
        self.report.push(Violation::new(kind, detail));
    }

    /// Moves races found so far from the detector into the report.
    fn drain_races(&mut self) {
        if let Some(mut r) = self.races.take() {
            for v in r.take_found() {
                self.trace.emit(|| TraceEvent::CheckViolation {
                    kind: v.kind.label(),
                });
                self.report.push(v);
            }
            self.races = Some(r);
        }
    }

    /// Invariant: right after a *global* acquire, no stale word may
    /// remain readable (GPU: flash invalidate leaves nothing; DeNovo:
    /// only Owned and read-only-region words survive).
    fn check_post_acquire(&mut self, cu: usize) {
        if !self.check.invariants() {
            return;
        }
        let residue = self.l1s[cu].post_acquire_residue();
        if residue > 0 {
            self.violation(
                CheckKind::PostAcquireResidue,
                format!("node {cu}: {residue} readable word(s) survived a global acquire"),
            );
        }
    }

    /// The one acquire path. Every acquire — kernel launch, an acquiring
    /// sync that hit, or an acquiring sync completion — reports the
    /// acquire boundary (global acquires only; local ones are free and
    /// invalidate nothing), runs the L1's self-invalidation, and audits
    /// the post-acquire invariant.
    fn global_acquire(&mut self, cu: usize, local: bool) {
        if !local {
            self.trace.global_acquire(NodeId(cu as u8), self.now);
        }
        self.l1s[cu].acquire(local);
        if !local {
            self.check_post_acquire(cu);
        }
    }

    fn alloc_req(&mut self) -> ReqId {
        self.next_req += 1;
        ReqId(self.next_req)
    }

    /// Maps a program-level scope to the effective locality under the
    /// configured consistency model (DRF ignores scopes).
    fn effective_local(&self, scope: Scope) -> bool {
        self.protocol.honours_scopes() && scope == Scope::Local
    }

    fn ensure_tick(&mut self, cu: usize, at: Cycle) {
        if !self.cus[cu].tick_scheduled {
            self.cus[cu].tick_scheduled = true;
            self.events.push(at, Event::CuTick(cu as u32));
        }
    }

    /// Carries out everything the controllers appended to
    /// [`Machine::actions`] since the last call, in push order, leaving
    /// the sink empty (with its buffer kept for the next call).
    fn process_actions(&mut self) {
        let mut actions = std::mem::take(&mut self.actions);
        for a in actions.drain(..) {
            match a {
                Action::Send { msg, delay } => {
                    let arrival = self.mesh.send(self.now + delay, &msg);
                    let slot = self.in_flight.insert(msg);
                    self.events.push(arrival, Event::Deliver(slot));
                }
                Action::Complete { req, value, delay } => {
                    self.events
                        .push(self.now + delay, Event::Finish { req, value });
                }
            }
        }
        self.actions = actions;
    }

    fn start_kernel(&mut self, index: usize, launch: &KernelLaunch) {
        self.kernel_index = index;
        self.trace.emit(|| TraceEvent::KernelBegin {
            index: index as u32,
            tbs: launch.tbs.len() as u32,
        });
        // Kernel-launch acquire on every CU (paper §1: invalidate at the
        // start of the kernel).
        for cu in self.shape.cu_nodes() {
            self.global_acquire(cu, false);
        }
        if let Some(r) = &mut self.races {
            r.begin_kernel(launch.tbs.len());
        }
        self.tbs.clear();
        self.tbs_finished = 0;
        for c in &mut self.cus {
            c.slots.fill(None);
            c.ready = 0;
            c.queue.clear();
            c.rr = 0;
        }
        for (i, spec) in launch.tbs.iter().enumerate() {
            // Unpinned blocks follow the `tb % gpu_cus` contract (device
            // 0's CU nodes, preserving every single-device workload's
            // co-location); pinned blocks resolve their dense CU index,
            // which `Machine::new` has checked against the topology.
            let cu = match spec.cu {
                Some(c) => self.shape.node_of(c),
                None => i % self.shape.cus_per_device,
            };
            self.tbs.push(Tb {
                cu,
                slot: usize::MAX,
                pc: 0,
                regs: spec.regs,
                scratch: vec![0; spec.scratch_words],
                program: Arc::clone(&launch.program),
                status: TbStatus::Ready,
                released: false,
                sync_started: None,
                wait: StallKind::Issue,
            });
            self.cus[cu].queue.push_back(i);
        }
        for cu in self.shape.cu_nodes() {
            for slot in 0..self.tbs_per_cu {
                if let Some(tb) = self.cus[cu].queue.pop_front() {
                    self.seat(tb, slot);
                    let id = TbId(tb as u32);
                    self.trace.emit(|| TraceEvent::TbLaunch {
                        tb: id,
                        cu: NodeId(cu as u8),
                    });
                } else {
                    break;
                }
            }
            if self.cus[cu].slots.iter().any(Option::is_some) {
                let at = self.now + 1;
                self.ensure_tick(cu, at);
                self.trace
                    .cu_state(NodeId(cu as u8), self.now, StallKind::Issue);
            } else {
                self.trace
                    .cu_state(NodeId(cu as u8), self.now, StallKind::Idle);
            }
        }
    }

    /// End-of-kernel release on every CU; the next kernel starts
    /// when every flush completes (a [`KernelPhase::Draining`] boundary).
    fn end_kernel(&mut self) {
        debug_assert_eq!(self.drain_left, 0);
        for cu in self.shape.cu_nodes() {
            let req = self.alloc_req();
            let issue = self.l1s[cu].release(false, req, &mut self.actions);
            if issue == Issue::Pending {
                self.pending
                    .insert(req, (Target::KernelDrain { cu }, self.now));
                self.drain_left += 1;
                self.trace
                    .cu_state(NodeId(cu as u8), self.now, StallKind::SbDrain);
            } else {
                self.trace
                    .cu_state(NodeId(cu as u8), self.now, StallKind::Idle);
            }
        }
        self.process_actions();
    }

    /// Every end-of-kernel release completed (the
    /// [`KernelPhase::Draining`] boundary fired). Invariant: a completed
    /// release leaves the store buffer empty — anything still pending
    /// here is a word the flush silently dropped.
    fn on_kernel_drained(&mut self) {
        self.kernels_done += 1;
        let index = self.kernel_index as u32;
        self.trace.emit(|| TraceEvent::KernelEnd { index });
        if self.check.invariants() {
            let mut dirty = Vec::new();
            for (cu, l1) in self.l1s.iter().enumerate() {
                let sb = l1.chassis().sb_entries();
                if !sb.is_empty() {
                    let words: u32 = sb.iter().map(|(_, m)| m.count()).sum();
                    dirty.push(format!(
                        "node {cu}: store buffer holds {words} word(s) across {} line(s) after kernel {index} drained",
                        sb.len()
                    ));
                }
            }
            for detail in dirty {
                self.violation(CheckKind::SbNotEmpty, detail);
            }
        }
    }

    fn on_tb_finished(&mut self, tb: usize) {
        let (cu, slot) = (self.tbs[tb].cu, self.tbs[tb].slot);
        self.set_status(tb, TbStatus::Done);
        self.cus[cu].slots[slot] = None;
        self.tbs_finished += 1;
        let id = TbId(tb as u32);
        self.trace.emit(|| TraceEvent::TbRetire {
            tb: id,
            cu: NodeId(cu as u8),
        });
        if let Some(next) = self.cus[cu].queue.pop_front() {
            self.seat(next, slot);
            let id = TbId(next as u32);
            self.trace.emit(|| TraceEvent::TbLaunch {
                tb: id,
                cu: NodeId(cu as u8),
            });
        }
        if self.cus[cu].slots.iter().all(Option::is_none) {
            // The CU emptied mid-kernel: idle until the next kernel
            // boundary (which may override to a drain wait).
            self.trace
                .cu_state(NodeId(cu as u8), self.now, StallKind::Idle);
        }
        // The last retirement does NOT end the kernel here: that is a
        // cycle-boundary step (see `KernelPhase`).
    }

    /// Executes one instruction (or one phase of a releasing sync op)
    /// for `tb`, and returns the attribution bucket the issuing cycle
    /// is charged to (almost always [`StallKind::Issue`]; a cycle
    /// burned retrying a full resource charges the resource's bucket).
    /// When the step blocks the thread block, it also records *why* in
    /// [`Tb::wait`] so the CU-level stall state can be derived.
    fn exec_step(&mut self, tb: usize) -> StallKind {
        let instr = self.tbs[tb].program.instr(self.tbs[tb].pc);
        let cu = self.tbs[tb].cu;
        match instr {
            Instr::Mov { dst, src } => {
                self.counts.instructions += 1;
                let v = src.eval(&self.tbs[tb].regs);
                self.tbs[tb].regs[dst as usize] = v;
                self.tbs[tb].pc += 1;
                StallKind::Issue
            }
            Instr::Alu { dst, a, op, b } => {
                self.counts.instructions += 1;
                let regs = &self.tbs[tb].regs;
                let v = op.apply(a.eval(regs), b.eval(regs));
                self.tbs[tb].regs[dst as usize] = v;
                self.tbs[tb].pc += 1;
                StallKind::Issue
            }
            Instr::Ld { dst, addr, region } => {
                let word = addr.word(&self.tbs[tb].regs);
                let req = self.alloc_req();
                let issue = self.l1s[cu].load(word, region, req, &mut self.actions);
                if matches!(issue, Issue::Hit(_) | Issue::Pending) {
                    if let Some(r) = &mut self.races {
                        r.data_read(tb, word);
                    }
                }
                let bucket = match issue {
                    Issue::Hit(v) => {
                        self.counts.instructions += 1;
                        self.latency.load_to_use.record(1);
                        self.tbs[tb].regs[dst as usize] = v;
                        self.tbs[tb].pc += 1;
                        StallKind::Issue
                    }
                    Issue::Pending => {
                        self.counts.instructions += 1;
                        self.set_status(tb, TbStatus::Blocked);
                        self.tbs[tb].wait = StallKind::LoadUse;
                        self.trace.request_issued(
                            req,
                            NodeId(cu as u8),
                            word.line(),
                            JourneyKind::Load,
                            self.now,
                        );
                        self.pending.insert(
                            req,
                            (
                                Target::Tb {
                                    tb,
                                    cont: Cont::Load { dst },
                                },
                                self.now,
                            ),
                        );
                        StallKind::Issue
                    }
                    // A cycle burned on a full MSHR: reissued next time
                    // this TB is picked.
                    Issue::Retry => StallKind::LoadUse,
                    Issue::RetryAfter(d) => {
                        // Backoff: sleep, then reissue the same load.
                        self.set_status(tb, TbStatus::Blocked);
                        self.tbs[tb].wait = StallKind::LoadUse;
                        let at = self.now + d;
                        self.events.push(at, Event::TbWake { tb: tb as u32 });
                        StallKind::LoadUse
                    }
                };
                self.process_actions();
                bucket
            }
            Instr::St { addr, src } => {
                self.counts.instructions += 1;
                let regs = &self.tbs[tb].regs;
                let (word, v) = (addr.word(regs), src.eval(regs));
                let overflows_before = if self.trace.is_enabled() {
                    self.l1s[cu].chassis().counts().sb_overflow_flushes
                } else {
                    0
                };
                self.l1s[cu].store(word, v, &mut self.actions);
                if let Some(r) = &mut self.races {
                    r.data_write(tb, word);
                }
                self.tbs[tb].pc += 1;
                self.process_actions();
                // A store that forced an overflow flush spent its cycle
                // on a full store buffer, not useful issue.
                if self.trace.is_enabled()
                    && self.l1s[cu].chassis().counts().sb_overflow_flushes > overflows_before
                {
                    StallKind::SbFull
                } else {
                    StallKind::Issue
                }
            }
            Instr::Atomic {
                dst,
                addr,
                op,
                a,
                b,
                ord,
                scope,
            } => {
                let local = self.effective_local(scope);
                // The whole sync op — release phase, retries, backoff —
                // counts toward the barrier-wait histogram.
                if self.tbs[tb].sync_started.is_none() {
                    self.tbs[tb].sync_started = Some(self.now);
                }
                // Program-order rule 2: older writes complete before a
                // release — run the release phase first, once.
                if ord.releases() && !self.tbs[tb].released {
                    self.counts.instructions += 1;
                    let req = self.alloc_req();
                    let issue = self.l1s[cu].release(local, req, &mut self.actions);
                    match issue {
                        Issue::Hit(_) => self.tbs[tb].released = true,
                        Issue::Pending => {
                            self.set_status(tb, TbStatus::Blocked);
                            self.tbs[tb].wait = StallKind::SbDrain;
                            self.pending.insert(
                                req,
                                (
                                    Target::Tb {
                                        tb,
                                        cont: Cont::ReleaseForAtomic,
                                    },
                                    self.now,
                                ),
                            );
                        }
                        Issue::Retry | Issue::RetryAfter(_) => {
                            unreachable!("releases never retry")
                        }
                    }
                    self.process_actions();
                    return StallKind::Issue;
                }
                // Which sync wait this operation represents if it has
                // to spin or block: a sync *read* is a barrier-style
                // flag wait; writes/RMWs spin on an acquire.
                let sync_kind = if matches!(op, AtomicOp::Read) {
                    StallKind::Barrier
                } else if local {
                    StallKind::LocalSpin
                } else {
                    StallKind::GlobalSpin
                };
                let regs = &self.tbs[tb].regs;
                let (word, operands) = (addr.word(regs), [a.eval(regs), b.eval(regs)]);
                let req = self.alloc_req();
                let issue =
                    self.l1s[cu].atomic(word, op, operands, ord, local, req, &mut self.actions);
                if matches!(issue, Issue::Hit(_) | Issue::Pending) {
                    self.trace
                        .atomic_issued(TbId(tb as u32), NodeId(cu as u8), word, ord, scope);
                    if let Some(r) = &mut self.races {
                        let key = if local {
                            SyncKey::Local(NodeId(cu as u8))
                        } else {
                            SyncKey::Global
                        };
                        let writes = !matches!(op, AtomicOp::Read);
                        if matches!(issue, Issue::Hit(_)) {
                            r.sync_hit(tb, word, key, ord, writes);
                        } else {
                            r.sync_pending(req, tb, word, key, ord, writes);
                        }
                    }
                }
                let bucket = match issue {
                    Issue::Hit(old) => {
                        self.counts.instructions += 1;
                        self.latency.atomic_rtt.record(1);
                        let started = self.tbs[tb].sync_started.take().unwrap_or(self.now);
                        self.latency.barrier_wait.record(self.now - started);
                        self.tbs[tb].regs[dst as usize] = old;
                        // Program-order rule 1: the acquire side runs
                        // when the sync access completes, before any
                        // younger access issues.
                        if ord.acquires() {
                            self.global_acquire(cu, local);
                        }
                        self.tbs[tb].released = false;
                        self.tbs[tb].pc += 1;
                        StallKind::Issue
                    }
                    Issue::Pending => {
                        self.counts.instructions += 1;
                        self.set_status(tb, TbStatus::Blocked);
                        self.tbs[tb].wait = sync_kind;
                        self.sync_inflight += 1;
                        self.trace.request_issued(
                            req,
                            NodeId(cu as u8),
                            word.line(),
                            JourneyKind::Atomic,
                            self.now,
                        );
                        self.pending.insert(
                            req,
                            (
                                Target::Tb {
                                    tb,
                                    cont: Cont::AtomicDone {
                                        dst,
                                        acquire: ord.acquires().then_some(local),
                                    },
                                },
                                self.now,
                            ),
                        );
                        sync_kind
                    }
                    // A cycle burned on a contended registration.
                    Issue::Retry => sync_kind,
                    Issue::RetryAfter(d) => {
                        // DeNovoSync backoff: sleep, then reissue the
                        // same sync operation (the release latch stays).
                        self.set_status(tb, TbStatus::Blocked);
                        self.tbs[tb].wait = sync_kind;
                        let at = self.now + d;
                        self.events.push(at, Event::TbWake { tb: tb as u32 });
                        sync_kind
                    }
                };
                self.process_actions();
                bucket
            }
            Instr::LdScratch { dst, addr } => {
                self.counts.instructions += 1;
                self.counts.scratch_accesses += 1;
                let idx = addr.word(&self.tbs[tb].regs).0 as usize;
                let v = self.tbs[tb].scratch[idx];
                self.tbs[tb].regs[dst as usize] = v;
                self.tbs[tb].pc += 1;
                StallKind::Issue
            }
            Instr::StScratch { addr, src } => {
                self.counts.instructions += 1;
                self.counts.scratch_accesses += 1;
                let regs = &self.tbs[tb].regs;
                let (idx, v) = (addr.word(regs).0 as usize, src.eval(regs));
                self.tbs[tb].scratch[idx] = v;
                self.tbs[tb].pc += 1;
                StallKind::Issue
            }
            Instr::Compute { cycles } => {
                self.counts.instructions += 1;
                let n = cycles.eval(&self.tbs[tb].regs) as Cycle;
                self.tbs[tb].pc += 1;
                if n > 0 {
                    self.set_status(tb, TbStatus::Blocked);
                    // Compute latency counts as useful execution, not a
                    // stall.
                    self.tbs[tb].wait = StallKind::Issue;
                    let at = self.now + n;
                    self.events.push(at, Event::TbWake { tb: tb as u32 });
                }
                StallKind::Issue
            }
            Instr::Jmp { target } => {
                self.counts.instructions += 1;
                self.tbs[tb].pc = target;
                StallKind::Issue
            }
            Instr::Bnz { cond, target } => {
                self.counts.instructions += 1;
                let taken = cond.eval(&self.tbs[tb].regs) != 0;
                self.tbs[tb].pc = if taken { target } else { self.tbs[tb].pc + 1 };
                StallKind::Issue
            }
            Instr::Bz { cond, target } => {
                self.counts.instructions += 1;
                let taken = cond.eval(&self.tbs[tb].regs) == 0;
                self.tbs[tb].pc = if taken { target } else { self.tbs[tb].pc + 1 };
                StallKind::Issue
            }
            Instr::Halt => {
                self.counts.instructions += 1;
                self.on_tb_finished(tb);
                StallKind::Issue
            }
        }
    }

    /// Sets `tb`'s status and keeps its CU's ready mask in step. Every
    /// status change of a seated thread block goes through here.
    fn set_status(&mut self, tb: usize, status: TbStatus) {
        let t = &mut self.tbs[tb];
        t.status = status;
        let (ready, bit) = (&mut self.cus[t.cu].ready, 1u64 << t.slot);
        if status == TbStatus::Ready {
            *ready |= bit;
        } else {
            *ready &= !bit;
        }
    }

    /// Seats `tb` in `slot` of its CU.
    fn seat(&mut self, tb: usize, slot: usize) {
        self.cus[self.tbs[tb].cu].slots[slot] = Some(tb);
        self.tbs[tb].slot = slot;
        self.set_status(tb, self.tbs[tb].status);
    }

    /// `cu`'s ready mask recomputed from its slots: the debug-build
    /// cross-check of [`Cu::ready`].
    fn ready_scan(&self, cu: usize) -> u64 {
        let slots = self.cus[cu].slots.iter().enumerate();
        slots
            .filter(|&(_, t)| t.is_some_and(|t| self.tbs[t].status == TbStatus::Ready))
            .fold(0, |mask, (s, _)| mask | 1 << s)
    }

    fn on_cu_tick(&mut self, cu: usize) {
        self.cus[cu].tick_scheduled = false;
        debug_assert_eq!(
            self.cus[cu].ready,
            self.ready_scan(cu),
            "CU {cu}: the ready mask disagrees with the slots"
        );
        let c = &self.cus[cu];
        if c.ready == 0 {
            return; // all blocked or empty: completions restart the tick
        }
        // Round robin: the first ready slot at or after `rr`, else the
        // first ready slot.
        let from_rr = c.ready & (u64::MAX << c.rr);
        let s = if from_rr != 0 { from_rr } else { c.ready }.trailing_zeros() as usize;
        let (tb, slots) = (c.slots[s], c.slots.len());
        let tb = tb.expect("a ready bit names a seated thread block");
        self.cus[cu].rr = if s + 1 == slots { 0 } else { s + 1 };
        self.counts.cu_active_cycles += 1;
        let (instructions, scratch) = (self.counts.instructions, self.counts.scratch_accesses);
        let bucket = self.exec_step(tb);
        // Keep issuing while any resident block is ready.
        let any_ready = self.cus[cu].ready != 0;
        if any_ready {
            let at = self.now + 1;
            self.ensure_tick(cu, at);
        }
        if self.trace.is_enabled() {
            // What the CU does after this cycle: keep issuing, wait on
            // the highest-priority reason among its blocked thread
            // blocks, or — when the step emptied the CU — whatever
            // state the kernel boundary set during the step (`None`).
            let next = if self.cus[cu].slots.iter().all(Option::is_none) {
                None
            } else if any_ready {
                Some(StallKind::Issue)
            } else {
                let mut k = StallKind::Idle;
                for &t in self.cus[cu].slots.iter().flatten() {
                    if self.tbs[t].status == TbStatus::Blocked {
                        k = k.max_priority(self.tbs[t].wait);
                    }
                }
                Some(k)
            };
            self.trace.cu_tick(
                NodeId(cu as u8),
                self.now,
                bucket,
                next,
                self.counts.instructions - instructions,
                self.counts.scratch_accesses - scratch,
            );
        }
    }

    fn finish_req(&mut self, req: ReqId, value: Value) {
        let (target, issued_at) = self
            .pending
            .remove(req)
            .expect("completion for an unknown request");
        self.trace.request_done(req, issued_at, self.now);
        match target {
            Target::KernelDrain { cu } => {
                self.latency.sb_drain.record(self.now - issued_at);
                self.trace
                    .cu_state(NodeId(cu as u8), self.now, StallKind::Idle);
                // `drain_left == 0` fires `on_kernel_drained` at the
                // next cycle boundary (see `kernel_boundary_step`).
                self.drain_left -= 1;
            }
            Target::Tb { tb, cont } => {
                match cont {
                    Cont::Load { dst } => {
                        self.latency.load_to_use.record(self.now - issued_at);
                        self.tbs[tb].regs[dst as usize] = value;
                        self.tbs[tb].pc += 1;
                    }
                    Cont::AtomicDone { dst, acquire } => {
                        self.sync_inflight -= 1;
                        self.latency.atomic_rtt.record(self.now - issued_at);
                        let started = self.tbs[tb].sync_started.take().unwrap_or(issued_at);
                        self.latency.barrier_wait.record(self.now - started);
                        self.tbs[tb].regs[dst as usize] = value;
                        if let Some(r) = &mut self.races {
                            r.sync_finish(req);
                        }
                        if let Some(local) = acquire {
                            let cu = self.tbs[tb].cu;
                            self.global_acquire(cu, local);
                        }
                        self.tbs[tb].released = false;
                        self.tbs[tb].pc += 1;
                    }
                    Cont::ReleaseForAtomic => {
                        self.latency.sb_drain.record(self.now - issued_at);
                        self.tbs[tb].released = true; // pc unchanged: reissue
                    }
                }
                self.set_status(tb, TbStatus::Ready);
                let (cu, at) = (self.tbs[tb].cu, self.now + 1);
                self.ensure_tick(cu, at);
            }
        }
    }

    /// Whether the kernel lifecycle can advance at the next cycle
    /// boundary (all thread blocks retired, all drains completed, or a
    /// launch is simply due).
    fn boundary_ready(&self) -> bool {
        match self.phase {
            KernelPhase::Launch(_) => true,
            KernelPhase::Running => self.tbs_finished == self.tbs.len(),
            KernelPhase::Draining => self.drain_left == 0,
            KernelPhase::Finished => false,
        }
    }

    /// One kernel-lifecycle transition, fired at a cycle boundary (no
    /// event left at the current cycle, [`Self::boundary_ready`]). A
    /// kernel with no thread blocks cascades through launch → end →
    /// drained → next launch at a single boundary.
    fn kernel_boundary_step(&mut self, workload: &Workload) {
        match self.phase {
            KernelPhase::Launch(i) => {
                if i < workload.kernels.len() {
                    self.start_kernel(i, &workload.kernels[i]);
                    self.phase = KernelPhase::Running;
                } else {
                    self.phase = KernelPhase::Finished;
                }
            }
            KernelPhase::Running => {
                self.end_kernel();
                self.phase = KernelPhase::Draining;
            }
            KernelPhase::Draining => {
                self.on_kernel_drained();
                self.phase = KernelPhase::Launch(self.kernel_index + 1);
            }
            KernelPhase::Finished => unreachable!("no boundary past the last kernel"),
        }
    }

    /// Processes one popped event.
    fn handle_event(&mut self, ev: Event) {
        match ev {
            Event::CuTick(cu) => self.on_cu_tick(cu as usize),
            Event::Deliver(slot) => {
                let msg = self.in_flight.take(slot);
                self.trace.msg_delivered(&msg);
                match msg.dst_comp {
                    Component::L1 => self.l1s[msg.dst.index()].handle(&msg, &mut self.actions),
                    Component::L2 => self.l2.handle(self.now, &msg, &mut self.actions),
                }
                self.process_actions();
            }
            Event::Finish { req, value } => self.finish_req(req, value),
            Event::TbWake { tb } => {
                let tb = tb as usize;
                if self.tbs[tb].status == TbStatus::Blocked {
                    self.set_status(tb, TbStatus::Ready);
                }
                let (cu, at) = (self.tbs[tb].cu, self.now);
                self.ensure_tick(cu, at);
            }
        }
    }

    fn run(&mut self, workload: &Workload) -> Result<RunOut, SimError> {
        let total_kernels = workload.kernels.len();
        loop {
            // Kernel transitions fire only once the current cycle has
            // fully drained (see `KernelPhase`).
            while self.boundary_ready() && self.events.next_cycle() != Some(self.now) {
                self.kernel_boundary_step(workload);
            }
            let Some((at, _seq, ev)) = self.next_event() else {
                break;
            };
            debug_assert!(at >= self.now, "time went backwards");
            self.now = at;
            self.trace.set_now(self.now);
            // Lazy interval sampling: catch up on every boundary the
            // event gap crossed (identical snapshots over an idle gap
            // honestly render as zero-delta intervals).
            while self.now >= self.next_sample {
                self.record_sample();
                self.next_sample += self.interval;
            }
            if self.now > self.max_cycles {
                return Err(SimError::Watchdog {
                    cycles: self.max_cycles,
                    report: self.watchdog_report(),
                });
            }
            self.handle_event(ev);
        }
        assert_eq!(
            self.kernels_done, total_kernels,
            "event queue drained before every kernel completed (deadlock)"
        );
        if self.check.invariants() {
            self.end_of_run_audit();
        } else {
            for l1 in &self.l1s {
                assert!(
                    l1.quiesced(),
                    "an L1 still has in-flight state at end of run"
                );
            }
        }
        self.drain_races();
        if !self.report.is_clean() {
            return Err(SimError::Check {
                report: self.report.to_string(),
            });
        }
        // Functional drain: registered words and dirty L2 words reach the
        // memory image so the verifier sees the complete final state.
        let mut owned = Vec::new();
        for l1 in &self.l1s {
            owned.extend(l1.owned_words());
        }
        for (w, v) in owned {
            self.l2.chassis_mut().memory_mut().write_word(w, v);
        }
        self.l2.chassis_mut().flush_to_memory();
        (workload.verify)(self.l2.chassis().memory()).map_err(SimError::Verify)?;
        let observed = self
            .obs_words
            .iter()
            .map(|&w| self.l2.chassis().memory().read_word(w))
            .collect();
        let stats = self.stats();
        if self.trace.is_enabled() {
            let (messages_sent, flit_hops) = self.mesh_counters();
            self.trace.run_finished(&RunEnd {
                cycles: self.now,
                l1_counts: self.l1s.iter().map(|l| *l.chassis().counts()).collect(),
                l2_counts: *self.l2.chassis().counts(),
                messages_sent,
                flit_hops,
            });
        }
        let decisions = self.sched.take().map_or(Vec::new(), |s| s.decisions);
        Ok(RunOut {
            stats,
            decisions,
            observed,
        })
    }

    /// The two mesh-side cumulative counters every snapshot path reads:
    /// `(messages sent, flit crossings)`. The single source of truth for
    /// flit accounting is the per-class traffic breakdown — the mesh
    /// asserts its scalar `flit_hops` counter always equals the
    /// breakdown's total.
    fn mesh_counters(&self) -> (u64, u64) {
        (self.mesh.messages_sent(), self.mesh.flit_hops())
    }

    /// One tick of the sampling clock: cumulative counters plus
    /// instantaneous occupancies, gathered across the engine, the L1s,
    /// and the mesh, in the one snapshot every time series reads.
    fn record_sample(&mut self) {
        let mut l1_load_hits = 0;
        let mut l1_load_misses = 0;
        let mut mshr_occupancy = 0;
        let mut sb_occupancy = 0;
        for l1 in &self.l1s {
            let c = l1.chassis().counts();
            l1_load_hits += c.l1_load_hits;
            l1_load_misses += c.l1_load_misses;
            mshr_occupancy += l1.chassis().mshr_outstanding() as u64;
            sb_occupancy += l1.chassis().sb_occupancy() as u64;
        }
        let (messages, flits) = self.mesh_counters();
        self.trace.interval_sample(&IntervalSample {
            cycle: self.next_sample,
            instructions: self.counts.instructions,
            l1_load_hits,
            l1_load_misses,
            messages,
            flits,
            mshr_occupancy,
            sb_occupancy,
            pending_reqs: self.pending.len() as u64,
            outstanding_syncs: self.sync_inflight,
        });
    }

    /// The end-of-run audit (replaces the bare quiesce assertions when
    /// checking is on): every structure that holds in-flight state must
    /// have drained to zero, the valid/owned word masks must be
    /// disjoint, at most one L1 may hold each word registered, and the
    /// LLC registry must agree with the L1s about every owner.
    fn end_of_run_audit(&mut self) {
        let mut found: Vec<(CheckKind, String)> = Vec::new();

        // Quiesce: leaked resources, each named with its allocating
        // trace event.
        for l1 in &self.l1s {
            for leak in l1.quiesce_leaks() {
                found.push((CheckKind::QuiesceLeak, leak));
            }
        }
        if !self.pending.is_empty() {
            let mut detail = format!(
                "{} engine pending-table slot(s) never completed:",
                self.pending.len()
            );
            for (req, (target, at)) in self.pending.iter().take(4) {
                use std::fmt::Write as _;
                let _ = write!(detail, " {req:?} issued at {at} for {target:?};");
            }
            found.push((CheckKind::QuiesceLeak, detail));
        }

        // Valid/owned disjointness per L1.
        for (cu, l1) in self.l1s.iter().enumerate() {
            let n = l1.chassis().state_mask_overlaps();
            if n > 0 {
                found.push((
                    CheckKind::StateMask,
                    format!("node {cu}: {n} word(s) marked both valid and owned"),
                ));
            }
        }

        for (kind, detail) in found {
            self.violation(kind, detail);
        }
        let busy = self.mesh.links_busy_after(self.now);
        if busy > 0 {
            self.violation(
                CheckKind::QuiesceLeak,
                format!("{busy} NoC link(s) busy past the final cycle (alloc event: msg-send)"),
            );
        }
        let mut owned = Vec::new();
        for (cu, l1) in self.l1s.iter().enumerate() {
            owned.extend(l1.owned_words().into_iter().map(|(w, _)| (w, cu)));
        }
        let registry = self.l2.registry_owners();
        for (kind, detail) in audit_ownership(&owned, &registry) {
            self.violation(kind, detail);
        }
    }

    /// Summarizes thread-block and request state when the watchdog fires.
    fn watchdog_report(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let mut by_state: HashMap<(TbStatus, usize, bool), usize> = HashMap::new();
        for tb in &self.tbs {
            *by_state.entry((tb.status, tb.pc, tb.released)).or_default() += 1;
        }
        let mut rows: Vec<_> = by_state.into_iter().collect();
        rows.sort_by_key(|((_, pc, _), n)| (usize::MAX - n, *pc));
        for ((status, pc, released), n) in rows.into_iter().take(8) {
            let _ = writeln!(
                s,
                "  {n} blocks {status:?} at pc {pc} (released={released})"
            );
        }
        let _ = writeln!(
            s,
            "  {} requests in flight, {} kernel drains outstanding, {} events queued",
            self.pending.len(),
            self.drain_left,
            self.events.len(),
        );
        for (req, t) in self.pending.iter().take(8) {
            let _ = writeln!(s, "  {req:?}: {t:?}");
        }
        for (at, ev) in self.events.iter().take(8) {
            let _ = match ev {
                Event::Deliver(slot) => {
                    writeln!(
                        s,
                        "  event at {at}: Deliver({:?})",
                        self.in_flight.get(*slot)
                    )
                }
                _ => writeln!(s, "  event at {at}: {ev:?}"),
            };
        }
        s
    }

    fn stats(&self) -> SimStats {
        let mut counts = self.counts;
        for l1 in &self.l1s {
            counts += *l1.chassis().counts();
        }
        counts += *self.l2.chassis().counts();
        let (messages_sent, flit_hops) = self.mesh_counters();
        counts.messages_sent = messages_sent;
        counts.flit_hops = flit_hops;
        let traffic = *self.mesh.traffic();
        let energy = EnergyModel::micro15().energy(&counts, &traffic);
        SimStats {
            cycles: self.now,
            counts,
            traffic,
            energy,
            latency: self.latency,
        }
    }
}

/// Cross-L1 ownership audit: at most one L1 may hold each registered
/// word, and the LLC registry must agree with the L1s about every owner
/// in both directions. `owned` lists `(word, node)` in node order.
fn audit_ownership(
    owned: &[(WordAddr, usize)],
    registry: &[(WordAddr, NodeId)],
) -> Vec<(CheckKind, String)> {
    let mut found: Vec<(CheckKind, String)> = Vec::new();
    let mut owners: FxHashMap<WordAddr, usize> = FxHashMap::default();
    for &(w, cu) in owned {
        if let Some(prev) = owners.insert(w, cu) {
            found.push((
                CheckKind::MultipleOwners,
                format!("word {}: registered at both node {prev} and node {cu}", w.0),
            ));
        }
    }
    for &(w, n) in registry {
        match owners.get(&w) {
            Some(&cu) if cu == n.index() => {}
            Some(&cu) => found.push((
                CheckKind::RegistryMismatch,
                format!(
                    "word {}: registry records owner node {}, but node {cu} holds it",
                    w.0,
                    n.index()
                ),
            )),
            None => found.push((
                CheckKind::RegistryMismatch,
                format!(
                    "word {}: registry records owner node {}, but no L1 owns it",
                    w.0,
                    n.index()
                ),
            )),
        }
    }
    let registered: FxHashMap<WordAddr, NodeId> = registry.iter().copied().collect();
    for (&w, &cu) in &owners {
        if !registered.contains_key(&w) {
            found.push((
                CheckKind::RegistryMismatch,
                format!(
                    "word {}: node {cu} holds a registration the registry lost",
                    w.0
                ),
            ));
        }
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{imm, r, AluOp, KernelBuilder};
    use gsim_types::{AtomicOp, ProtocolConfig, SyncOrd, WordAddr};

    fn one_tb(b: KernelBuilder, verify_word: u64, want: Value) -> Workload {
        Workload {
            name: "test".into(),
            init: Box::new(|_| {}),
            kernels: vec![KernelLaunch {
                program: b.build(),
                tbs: vec![crate::workload::TbSpec::with_regs(&[])],
            }],
            verify: Box::new(move |mem| {
                let got = mem.read_word(WordAddr(verify_word));
                (got == want)
                    .then_some(())
                    .ok_or_else(|| format!("word {verify_word}: got {got}, want {want}"))
            }),
        }
    }

    fn run_all_configs(mk: impl Fn() -> Workload) -> Vec<SimStats> {
        ProtocolConfig::ALL
            .iter()
            .map(|&p| {
                Simulator::new(SystemConfig::micro15(p))
                    .run(&mk())
                    .unwrap_or_else(|e| panic!("{p}: {e}"))
            })
            .collect()
    }

    #[test]
    fn store_then_load_round_trip_all_configs() {
        let mk = || {
            let mut b = KernelBuilder::new();
            b.mov(1, imm(0));
            b.st(b.at(1, 3), imm(99));
            b.ld(2, b.at(1, 3));
            b.st(b.at(1, 4), r(2)); // copy through a register
            b.halt();
            one_tb(b, 4, 99)
        };
        for stats in run_all_configs(mk) {
            assert!(stats.cycles > 0);
            assert!(stats.counts.instructions >= 5);
        }
    }

    #[test]
    fn atomic_add_accumulates_across_tbs() {
        // 30 TBs on 15 CUs each atomically increment a global counter.
        let mk = || {
            let mut b = KernelBuilder::new();
            b.mov(1, imm(0));
            b.atomic(
                2,
                b.at(1, 0),
                AtomicOp::Add,
                imm(1),
                imm(0),
                SyncOrd::AcqRel,
                Scope::Global,
            );
            b.halt();
            Workload {
                name: "count".into(),
                init: Box::new(|_| {}),
                kernels: vec![KernelLaunch {
                    program: b.build(),
                    tbs: vec![crate::workload::TbSpec::with_regs(&[]); 30],
                }],
                verify: Box::new(|mem| {
                    let got = mem.read_word(WordAddr(0));
                    (got == 30)
                        .then_some(())
                        .ok_or_else(|| format!("counter: got {got}, want 30"))
                }),
            }
        };
        for stats in run_all_configs(mk) {
            assert!(stats.cycles > 0);
        }
    }

    #[test]
    fn spin_lock_protects_a_plain_counter() {
        // Two TBs per CU contend on one global lock around an unlocked
        // read-modify-write of a plain word: the classic DRF litmus.
        const TBS: u32 = 30;
        const ITERS: u32 = 5;
        let mk = || {
            let mut b = KernelBuilder::new();
            b.mov(1, imm(0)); // r1 = lock word 0; data word 1
            b.mov(5, imm(ITERS));
            b.label("iter");
            b.label("spin");
            b.atomic(
                2,
                b.at(1, 0),
                AtomicOp::Exch,
                imm(1),
                imm(0),
                SyncOrd::AcqRel,
                Scope::Global,
            );
            b.bnz(r(2), "spin");
            b.ld(3, b.at(1, 1));
            b.alu_add(3, r(3), imm(1));
            b.st(b.at(1, 1), r(3));
            b.atomic(
                2,
                b.at(1, 0),
                AtomicOp::Write,
                imm(0),
                imm(0),
                SyncOrd::Release,
                Scope::Global,
            );
            b.alu(5, r(5), AluOp::Sub, imm(1));
            b.bnz(r(5), "iter");
            b.halt();
            Workload {
                name: "spinlock".into(),
                init: Box::new(|_| {}),
                kernels: vec![KernelLaunch {
                    program: b.build(),
                    tbs: vec![crate::workload::TbSpec::with_regs(&[]); TBS as usize],
                }],
                verify: Box::new(|mem| {
                    let got = mem.read_word(WordAddr(1));
                    (got == TBS * ITERS)
                        .then_some(())
                        .ok_or_else(|| format!("counter: got {got}, want {}", TBS * ITERS))
                }),
            }
        };
        for (p, stats) in ProtocolConfig::ALL.iter().zip(run_all_configs(mk)) {
            assert!(stats.cycles > 0, "{p}");
        }
    }

    #[test]
    fn values_flow_between_kernels() {
        // Kernel 1 stores, kernel 2 (different CU mapping irrelevant;
        // single TB) reads and doubles.
        let mut b1 = KernelBuilder::new();
        b1.mov(1, imm(0));
        b1.st(b1.at(1, 0), imm(21));
        b1.halt();
        let mut b2 = KernelBuilder::new();
        b2.mov(1, imm(0));
        b2.ld(2, b2.at(1, 0));
        b2.alu(2, r(2), AluOp::Mul, imm(2));
        b2.st(b2.at(1, 1), r(2));
        b2.halt();
        let w = Workload {
            name: "two-kernels".into(),
            init: Box::new(|_| {}),
            kernels: vec![
                KernelLaunch {
                    program: b1.build(),
                    tbs: vec![crate::workload::TbSpec::with_regs(&[])],
                },
                KernelLaunch {
                    program: b2.build(),
                    tbs: vec![crate::workload::TbSpec::with_regs(&[])],
                },
            ],
            verify: Box::new(|mem| {
                let got = mem.read_word(WordAddr(1));
                (got == 42)
                    .then_some(())
                    .ok_or_else(|| format!("got {got}, want 42"))
            }),
        };
        for p in ProtocolConfig::ALL {
            Simulator::new(SystemConfig::micro15(p))
                .run(&w)
                .unwrap_or_else(|e| panic!("{p}: {e}"));
        }
    }

    #[test]
    fn compute_blocks_only_the_issuing_tb() {
        // TB0 computes for 10_000 cycles; TB1 (same CU — 2 TBs, 1 CU
        // position apart by modulo... use 16 TBs so two land on CU 0)
        // finishes long before. Total time is dominated by the compute.
        let mut b = KernelBuilder::new();
        b.mov(1, imm(0));
        // r0 = tb id; tb 0 computes, tb 15 stores.
        b.bnz(r(0), "storer");
        b.compute(imm(10_000));
        b.halt();
        b.label("storer");
        b.st(b.at(1, 0), imm(7));
        b.halt();
        let mut tbs = Vec::new();
        for i in 0..16u32 {
            tbs.push(crate::workload::TbSpec::with_regs(&[i]));
        }
        let w = Workload {
            name: "compute".into(),
            init: Box::new(|_| {}),
            kernels: vec![KernelLaunch {
                program: b.build(),
                tbs,
            }],
            verify: Box::new(|mem| {
                (mem.read_word(WordAddr(0)) == 7)
                    .then_some(())
                    .ok_or_else(|| "store lost".to_string())
            }),
        };
        let stats = Simulator::new(SystemConfig::micro15(ProtocolConfig::Gd))
            .run(&w)
            .unwrap();
        assert!(stats.cycles >= 10_000);
        assert!(stats.cycles < 20_000, "compute overlapped everything else");
    }

    #[test]
    fn scratchpad_roundtrip_and_energy_component() {
        let mut b = KernelBuilder::new();
        b.mov(1, imm(0));
        b.st_scratch(b.at(1, 5), imm(31));
        b.ld_scratch(2, b.at(1, 5));
        b.st(b.at(1, 0), r(2));
        b.halt();
        let w = one_tb(b, 0, 31);
        let stats = Simulator::new(SystemConfig::micro15(ProtocolConfig::Dd))
            .run(&Workload {
                kernels: vec![KernelLaunch {
                    program: {
                        let mut b = KernelBuilder::new();
                        b.mov(1, imm(0));
                        b.st_scratch(b.at(1, 5), imm(31));
                        b.ld_scratch(2, b.at(1, 5));
                        b.st(b.at(1, 0), r(2));
                        b.halt();
                        b.build()
                    },
                    tbs: vec![crate::workload::TbSpec::with_regs(&[]).scratch(8)],
                }],
                ..w
            })
            .unwrap();
        assert_eq!(stats.counts.scratch_accesses, 2);
        assert!(stats.energy.scratch_pj > 0.0);
    }

    #[test]
    fn failing_verifier_reports() {
        let mut b = KernelBuilder::new();
        b.halt();
        let w = one_tb(b, 0, 1); // nothing ever writes word 0
        let err = Simulator::new(SystemConfig::micro15(ProtocolConfig::Gd))
            .run(&w)
            .unwrap_err();
        assert!(matches!(err, SimError::Verify(_)));
        assert!(err.to_string().contains("want 1"));
    }

    #[test]
    fn watchdog_catches_infinite_loops() {
        let mut b = KernelBuilder::new();
        b.label("fore");
        b.mov(1, imm(0));
        b.jmp("fore");
        let w = one_tb(b, 0, 0);
        let mut cfg = SystemConfig::micro15(ProtocolConfig::Gd);
        cfg.max_cycles = 10_000;
        let err = Simulator::new(cfg).run(&w).unwrap_err();
        assert!(matches!(err, SimError::Watchdog { cycles: 10_000, .. }));
    }

    #[test]
    fn flit_hops_counter_matches_traffic_breakdown_total() {
        // `Counts::flit_hops` and the per-class `TrafficBreakdown` are
        // maintained by different code paths in the mesh; stats must
        // agree between them under every configuration.
        let mk = || {
            let mut b = KernelBuilder::new();
            b.mov(1, imm(0));
            b.st(b.at(1, 3), imm(7));
            b.ld(2, b.at(1, 3));
            b.atomic(
                3,
                b.at(1, 16),
                AtomicOp::Add,
                imm(1),
                imm(0),
                SyncOrd::AcqRel,
                Scope::Global,
            );
            b.halt();
            one_tb(b, 3, 7)
        };
        for stats in run_all_configs(mk) {
            assert_eq!(stats.counts.flit_hops, stats.traffic.total());
            assert!(stats.counts.flit_hops > 0);
        }
    }

    #[test]
    fn determinism_same_config_same_stats() {
        let mk = || {
            let mut b = KernelBuilder::new();
            b.mov(1, imm(0));
            b.atomic(
                2,
                b.at(1, 0),
                AtomicOp::Add,
                imm(1),
                imm(0),
                SyncOrd::AcqRel,
                Scope::Global,
            );
            b.halt();
            Workload {
                name: "det".into(),
                init: Box::new(|_| {}),
                kernels: vec![KernelLaunch {
                    program: b.build(),
                    tbs: vec![crate::workload::TbSpec::with_regs(&[]); 45],
                }],
                verify: Box::new(|_| Ok(())),
            }
        };
        let a = Simulator::new(SystemConfig::micro15(ProtocolConfig::Dd))
            .run(&mk())
            .unwrap();
        let b = Simulator::new(SystemConfig::micro15(ProtocolConfig::Dd))
            .run(&mk())
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn every_message_slot_is_free_again_after_a_run() {
        // 45 thread blocks each store 16 private words and bump one
        // shared counter 16 times: thousands of messages, many in
        // flight at once, so slots are freed and reused all run long.
        const TBS: u32 = 45;
        const ITERS: u32 = 16;
        for p in ProtocolConfig::ALL {
            let mut b = KernelBuilder::new();
            b.mov(1, imm(0));
            b.alu(2, r(0), AluOp::Mul, imm(ITERS));
            for j in 0..ITERS {
                b.st(b.at(2, 64 + j), imm(j));
                b.atomic(
                    3,
                    b.at(1, 0),
                    AtomicOp::Add,
                    imm(1),
                    imm(0),
                    SyncOrd::AcqRel,
                    Scope::Global,
                );
            }
            b.halt();
            let w = Workload {
                name: "slab".into(),
                init: Box::new(|_| {}),
                kernels: vec![KernelLaunch {
                    program: b.build(),
                    tbs: vec![crate::workload::TbSpec::with_regs(&[]); TBS as usize],
                }],
                verify: Box::new(|mem| {
                    let got = mem.read_word(WordAddr(0));
                    (got == TBS * ITERS)
                        .then_some(())
                        .ok_or_else(|| format!("counter: got {got}"))
                }),
            };
            let cfg = SystemConfig::micro15(p);
            let mut m = Machine::new(&cfg, &w, TraceHandle::disabled()).unwrap();
            let out = m.run(&w).unwrap();
            let slots = m.in_flight.msgs.len();
            let mut free = m.in_flight.free.clone();
            free.sort_unstable();
            assert_eq!(
                free,
                (0..slots as u32).collect::<Vec<_>>(),
                "{p}: every slot must be on the free list exactly once"
            );
            assert!(slots > 1, "{p}: messages overlapped in flight");
            assert_eq!(
                m.mesh.links_busy_after(m.now),
                0,
                "{p}: a link outlived the run"
            );
            assert!(
                out.stats.counts.messages_sent > 10 * slots as u64,
                "{p}: {} messages through {slots} slots should reuse them",
                out.stats.counts.messages_sent
            );
        }
    }

    #[test]
    fn resident_blocks_per_cu_are_bounded_by_the_ready_mask() {
        let mk = || {
            let mut b = KernelBuilder::new();
            b.mov(1, imm(0));
            b.st(b.at(1, 0), imm(1));
            b.halt();
            let mut w = one_tb(b, 0, 1);
            w.kernels[0].tbs = vec![crate::workload::TbSpec::with_regs(&[]); 80];
            w
        };
        let mut cfg = SystemConfig::micro15(ProtocolConfig::Gd);
        cfg.tbs_per_cu = MAX_TBS_PER_CU;
        Simulator::new(cfg)
            .run(&mk())
            .expect("64 resident blocks fit");
        cfg.tbs_per_cu = MAX_TBS_PER_CU + 1;
        let err = Simulator::new(cfg).run(&mk()).unwrap_err();
        assert!(matches!(err, SimError::Workload(_)), "{err}");
        assert!(
            err.to_string().contains("65 resident thread blocks"),
            "{err}"
        );
    }

    #[test]
    fn quiesce_audit_names_a_leaked_mshr_entry() {
        // Plant an MSHR entry that no fill will ever retire, run a real
        // workload to completion, and check the audit (a) fails the run
        // and (b) names the resource together with its allocating trace
        // event.
        for p in ProtocolConfig::ALL {
            let mut b = KernelBuilder::new();
            b.mov(1, imm(0));
            b.st(b.at(1, 3), imm(7));
            b.ld(2, b.at(1, 3));
            b.halt();
            let w = one_tb(b, 3, 7);
            let mut cfg = SystemConfig::micro15(p);
            cfg.check = CheckLevel::Invariants;
            let mut m = Machine::new(&cfg, &w, TraceHandle::disabled()).unwrap();
            // A line far outside the workload's footprint.
            m.l1s[0]
                .chassis_mut()
                .debug_leak_mshr_entry(gsim_types::LineAddr(0xdead0));
            let err = m.run(&w).expect_err("the quiesce audit must fail the run");
            let msg = err.to_string();
            assert!(matches!(err, SimError::Check { .. }), "{p}: {msg}");
            assert!(msg.contains("quiesce-leak"), "{p}: {msg}");
            assert!(msg.contains("MSHR entry"), "{p}: {msg}");
            assert!(msg.contains("mshr-alloc"), "{p}: {msg}");
        }
    }

    #[test]
    fn quiesce_audit_names_a_leaked_store_buffer_word() {
        // A planted store-buffer word cannot survive a full run (the
        // kernel-end release drains the buffer), so exercise the leak
        // naming directly on the controller.
        use gsim_protocol::L1Config;
        for p in ProtocolConfig::ALL {
            let mut l1 = L1::build(
                p,
                L1Config::micro15(NodeId(0)),
                false,
                false,
                &TraceHandle::disabled(),
            );
            l1.chassis_mut().debug_leak_sb_word(WordAddr(40), 1);
            assert!(!l1.quiesced(), "{p}");
            let leaks = l1.quiesce_leaks();
            assert_eq!(leaks.len(), 1, "{p}: {leaks:?}");
            assert!(leaks[0].contains("store-buffer"), "{p}: {}", leaks[0]);
            assert!(leaks[0].contains("sb-flush"), "{p}: {}", leaks[0]);
        }
    }

    #[test]
    fn full_check_flags_unsynchronized_stores() {
        // Two thread blocks store the same word with no ordering: the
        // race detector must fail the run under every configuration.
        for p in ProtocolConfig::ALL {
            let mut b = KernelBuilder::new();
            b.mov(1, imm(0));
            b.st(b.at(1, 0), imm(1));
            b.halt();
            let w = Workload {
                name: "racy".into(),
                init: Box::new(|_| {}),
                kernels: vec![KernelLaunch {
                    program: b.build(),
                    tbs: vec![crate::workload::TbSpec::with_regs(&[]); 2],
                }],
                verify: Box::new(|_| Ok(())),
            };
            let mut cfg = SystemConfig::micro15(p);
            cfg.check = CheckLevel::Full;
            let err = Simulator::new(cfg)
                .run(&w)
                .expect_err("racy stores must be flagged");
            let msg = err.to_string();
            assert!(matches!(err, SimError::Check { .. }), "{p}: {msg}");
            assert!(msg.contains("[race]"), "{p}: {msg}");
            assert!(msg.contains("unordered by happens-before"), "{p}: {msg}");
        }
    }

    #[test]
    fn full_check_is_silent_on_drf_programs() {
        // Contended atomics and lock-protected plain accesses are DRF:
        // zero races, zero invariant violations, under every config.
        const TBS: u32 = 30;
        for p in ProtocolConfig::ALL {
            let mut b = KernelBuilder::new();
            b.mov(1, imm(0)); // lock word 0, counter word 1
            b.label("spin");
            b.atomic(
                2,
                b.at(1, 0),
                AtomicOp::Exch,
                imm(1),
                imm(0),
                SyncOrd::AcqRel,
                Scope::Global,
            );
            b.bnz(r(2), "spin");
            b.ld(3, b.at(1, 1));
            b.alu_add(3, r(3), imm(1));
            b.st(b.at(1, 1), r(3));
            b.atomic(
                2,
                b.at(1, 0),
                AtomicOp::Write,
                imm(0),
                imm(0),
                SyncOrd::Release,
                Scope::Global,
            );
            b.halt();
            let w = Workload {
                name: "drf-lock".into(),
                init: Box::new(|_| {}),
                kernels: vec![KernelLaunch {
                    program: b.build(),
                    tbs: vec![crate::workload::TbSpec::with_regs(&[]); TBS as usize],
                }],
                verify: Box::new(|mem| {
                    let got = mem.read_word(WordAddr(1));
                    (got == TBS)
                        .then_some(())
                        .ok_or_else(|| format!("counter: got {got}, want {TBS}"))
                }),
            };
            let mut cfg = SystemConfig::micro15(p);
            cfg.check = CheckLevel::Full;
            Simulator::new(cfg)
                .run(&w)
                .unwrap_or_else(|e| panic!("{p}: {e}"));
        }
    }
}
