//! Differential test for the event-queue overhaul: the calendar queue
//! must be bit-invisible relative to the binary-heap reference.
//!
//! Two levels of evidence, per the ordering contract in `gsim_core::equeue`:
//!
//! * **Pop order** — replaying one engine run's exact push schedule
//!   through both queue implementations must yield the identical
//!   `(cycle, seq)` pop sequence (the schedule is captured from a real
//!   run, so it contains the engine's actual patterns: same-cycle
//!   bursts, far-future compute sleeps, pushes at the cycle being
//!   drained).
//! * **Whole-system behaviour** — running the same workloads under
//!   `QueueKind::Calendar` and `QueueKind::Heap` must produce
//!   byte-identical `SimStats` JSON and identical cycle-stamped trace
//!   event streams, across all five protocol configurations.

use gsim_core::equeue::{CalendarQueue, EventQueue, HeapQueue, QueueKind};
use gsim_core::kernel::{imm, r, AluOp, KernelBuilder};
use gsim_core::workload::{KernelLaunch, TbSpec, Workload};
use gsim_core::{Simulator, SystemConfig};
use gsim_trace::{RingRecorder, TraceHandle};
use gsim_types::{AtomicOp, ProtocolConfig, Scope, SimStats, SyncOrd, WordAddr};

/// A contended spin-lock litmus: 30 thread blocks (two per CU) take a
/// global lock around a plain read-modify-write, with a long `Compute`
/// sleep inside the critical section so `TbWake` events land far beyond
/// the calendar ring horizon (1024 cycles) and exercise the overflow
/// path.
fn contended_workload() -> Workload {
    const TBS: u32 = 30;
    const ITERS: u32 = 3;
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
    b.compute(imm(2_000)); // sleeps past the ring horizon
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
        name: "queue-diff".into(),
        init: Box::new(|_| {}),
        kernels: vec![KernelLaunch {
            program: b.build(),
            tbs: vec![TbSpec::with_regs(&[]); TBS as usize],
        }],
        verify: Box::new(|mem| {
            let got = mem.read_word(WordAddr(1));
            (got == TBS * ITERS)
                .then_some(())
                .ok_or_else(|| format!("counter: got {got}, want {}", TBS * ITERS))
        }),
    }
}

fn run_with(
    protocol: ProtocolConfig,
    kind: QueueKind,
) -> (SimStats, Vec<(u64, gsim_trace::TraceEvent)>) {
    run_on(SystemConfig::micro15(protocol), kind, &contended_workload())
}

/// Runs `workload` on `cfg` under queue `kind`, recording every trace
/// event.
fn run_on(
    mut cfg: SystemConfig,
    kind: QueueKind,
    workload: &Workload,
) -> (SimStats, Vec<(u64, gsim_trace::TraceEvent)>) {
    let protocol = cfg.protocol;
    cfg.event_queue = kind;
    let trace = TraceHandle::new(RingRecorder::new(4_000_000));
    let stats = Simulator::new(cfg)
        .run_traced(workload, trace.clone())
        .unwrap_or_else(|e| panic!("{protocol} under {kind:?}: {e}"));
    let rec = trace.recorder().expect("recording handle").borrow();
    assert_eq!(rec.dropped(), 0, "trace ring too small for the comparison");
    (stats, rec.to_vec())
}

/// Both queue kinds produce byte-identical `SimStats` JSON and identical
/// cycle-stamped trace streams, for every protocol configuration.
#[test]
fn calendar_and_heap_runs_are_bit_identical_across_all_configs() {
    for protocol in ProtocolConfig::ALL {
        let (cal_stats, cal_trace) = run_with(protocol, QueueKind::Calendar);
        let (heap_stats, heap_trace) = run_with(protocol, QueueKind::Heap);
        assert_eq!(
            cal_stats.to_json(),
            heap_stats.to_json(),
            "{protocol}: SimStats JSON diverged between queue kinds"
        );
        assert_eq!(
            cal_trace.len(),
            heap_trace.len(),
            "{protocol}: trace length diverged between queue kinds"
        );
        for (i, (c, h)) in cal_trace.iter().zip(&heap_trace).enumerate() {
            assert_eq!(c, h, "{protocol}: trace event {i} diverged");
        }
    }
}

/// The same on a two-device fabric running the system-scope mutex
/// (XDEV_S): every lock and data access crosses the inter-device link,
/// so deliveries with long, mixed latencies keep many messages parked
/// in the engine's in-flight slab at once.
#[test]
fn calendar_and_heap_agree_on_a_two_device_fabric() {
    let workload = || gsim_workloads::sync::xdev::system_scope(gsim_workloads::Scale::Tiny);
    for protocol in ProtocolConfig::ALL {
        let cfg = SystemConfig::fabric(protocol, 2, 40);
        let (cal_stats, cal_trace) = run_on(cfg, QueueKind::Calendar, &workload());
        let (heap_stats, heap_trace) = run_on(cfg, QueueKind::Heap, &workload());
        assert!(
            cal_stats.counts.messages_sent > 1_000,
            "{protocol}: XDEV_S sent only {} messages",
            cal_stats.counts.messages_sent
        );
        assert_eq!(
            cal_stats.to_json(),
            heap_stats.to_json(),
            "{protocol} on 2 devices: SimStats JSON diverged between queue kinds"
        );
        assert_eq!(
            cal_trace, heap_trace,
            "{protocol} on 2 devices: trace streams diverged between queue kinds"
        );
    }
}

/// Replays a real engine run's push schedule through both raw queue
/// implementations and asserts the identical `(cycle, seq)` pop order.
///
/// The schedule is reconstructed from a traced `Heap` run: every trace
/// event's cycle stamp marks an engine pop, and the inter-event cycle
/// deltas give push targets when re-offset from the replay clock. That
/// keeps the replay shaped like the engine's real load (same-cycle
/// bursts, short memory latencies, kilocycle compute sleeps) without
/// needing hooks inside the engine.
#[test]
fn replayed_engine_schedule_pops_identically() {
    let (_, trace) = run_with(ProtocolConfig::Dd, QueueKind::Heap);
    assert!(trace.len() > 1_000, "replay schedule suspiciously small");

    let mut cal: CalendarQueue<usize> = CalendarQueue::new();
    let mut heap: HeapQueue<usize> = HeapQueue::new();
    let mut now = 0u64;
    let mut queued = 0usize;
    let mut popped_cal = Vec::new();
    let mut popped_heap = Vec::new();
    for (i, &(cycle, _)) in trace.iter().enumerate() {
        // Each traced event becomes a push whose delay is derived from
        // its original cycle stamp, so the replay keeps the engine's mix
        // of same-cycle bursts, short latencies, and kilocycle sleeps;
        // popping on two of every three steps keeps a real population.
        let at = now + (cycle % 1500);
        let s1 = cal.push(at, i);
        let s2 = heap.push(at, i);
        assert_eq!(s1, s2, "seq assignment diverged at push {i}");
        queued += 1;
        if i % 3 != 0 {
            let a = cal.pop().expect("calendar queue empty during replay");
            let b = heap.pop().expect("heap queue empty during replay");
            popped_cal.push((a.0, a.1));
            popped_heap.push((b.0, b.1));
            assert_eq!(a, b, "pop diverged at step {i}");
            now = a.0;
            queued -= 1;
        }
    }
    while queued > 0 {
        let a = cal.pop().expect("calendar drain short");
        let b = heap.pop().expect("heap drain short");
        popped_cal.push((a.0, a.1));
        popped_heap.push((b.0, b.1));
        queued -= 1;
    }
    assert_eq!(popped_cal, popped_heap, "(cycle, seq) pop order diverged");
    assert_eq!(cal.pop(), None);
    assert_eq!(heap.pop(), None);
}

/// The config default is the calendar queue, and the engine accepts an
/// explicit override through the dispatch wrapper.
#[test]
fn default_config_uses_calendar_queue() {
    let cfg = SystemConfig::micro15(ProtocolConfig::Gd);
    assert_eq!(cfg.event_queue, QueueKind::Calendar);
    assert!(matches!(
        EventQueue::<u32>::new(cfg.event_queue),
        EventQueue::Calendar(_)
    ));
}
