//! The event queue's two pop paths must be bit-invisible to each other.
//!
//! Two levels of evidence, per the ordering contract in `gsim_core::equeue`:
//!
//! * **Pop order** — replaying one engine run's exact push schedule
//!   through the calendar queue and a `BinaryHeap` model must yield the
//!   identical `(cycle, seq)` pop sequence (the schedule is captured
//!   from a real run, so it contains the engine's actual patterns:
//!   same-cycle bursts, far-future compute sleeps, pushes at the cycle
//!   being drained).
//! * **Whole-system behaviour** — a scheduled run that takes choice 0
//!   at every decision point (`Simulator::run_explored` with an empty
//!   prefix, which pops through `candidates`/`pop_nth`) must produce
//!   byte-identical `SimStats` JSON to a plain run (which pops through
//!   `pop`), across all five protocol configurations.

use gsim_core::equeue::{EventQueue, QueueKind};
use gsim_core::kernel::{imm, r, AluOp, KernelBuilder};
use gsim_core::workload::{KernelLaunch, TbSpec, Workload};
use gsim_core::{Simulator, SystemConfig};
use gsim_trace::{RingRecorder, TraceHandle};
use gsim_types::{AtomicOp, ProtocolConfig, Scope, SimStats, SyncOrd, WordAddr};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

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

/// Runs `workload` on `cfg` through the plain pop path, recording
/// every trace event.
fn traced_run(cfg: SystemConfig, workload: &Workload) -> Vec<(u64, gsim_trace::TraceEvent)> {
    let trace = TraceHandle::new(RingRecorder::new(4_000_000));
    Simulator::new(cfg)
        .run_traced(workload, trace.clone())
        .unwrap_or_else(|e| panic!("{}: {e}", cfg.protocol));
    let rec = trace.recorder().expect("recording handle").borrow();
    assert_eq!(rec.dropped(), 0, "trace ring too small for the replay");
    rec.to_vec()
}

/// Runs `workload` on `cfg` twice, plainly and as the identity
/// schedule, and returns both statistics records and the number of
/// decision points the scheduled run passed.
fn plain_and_scheduled(cfg: SystemConfig, workload: &Workload) -> (SimStats, SimStats, usize) {
    let sim = Simulator::new(cfg);
    let plain = sim
        .run(workload)
        .unwrap_or_else(|e| panic!("{} plain: {e}", cfg.protocol));
    let scheduled = sim
        .run_explored(workload, &[], &[])
        .unwrap_or_else(|e| panic!("{} scheduled: {e}", cfg.protocol));
    (plain, scheduled.stats, scheduled.decisions.len())
}

/// The identity schedule produces byte-identical `SimStats` JSON to
/// the plain run, for every protocol configuration.
#[test]
fn scheduled_identity_run_equals_plain_run_across_all_configs() {
    for protocol in ProtocolConfig::ALL {
        let cfg = SystemConfig::micro15(protocol);
        let (plain, scheduled, decisions) = plain_and_scheduled(cfg, &contended_workload());
        assert!(decisions > 0, "{protocol}: no decision point was reached");
        assert_eq!(
            plain.to_json(),
            scheduled.to_json(),
            "{protocol}: SimStats JSON diverged between the pop paths"
        );
    }
}

/// The same on a two-device fabric running the system-scope mutex
/// (XDEV_S): every lock and data access crosses the inter-device link,
/// so deliveries with long, mixed latencies keep many messages parked
/// in the engine's in-flight slab at once.
#[test]
fn scheduled_identity_run_equals_plain_run_on_a_two_device_fabric() {
    let workload = || gsim_workloads::sync::xdev::system_scope(gsim_workloads::Scale::Tiny);
    for protocol in ProtocolConfig::ALL {
        let cfg = SystemConfig::fabric(protocol, 2, 40);
        let (plain, scheduled, decisions) = plain_and_scheduled(cfg, &workload());
        assert!(
            plain.counts.messages_sent > 1_000,
            "{protocol}: XDEV_S sent only {} messages",
            plain.counts.messages_sent
        );
        assert!(decisions > 0, "{protocol}: no decision point was reached");
        assert_eq!(
            plain.to_json(),
            scheduled.to_json(),
            "{protocol} on 2 devices: SimStats JSON diverged between the pop paths"
        );
    }
}

/// Replays a real engine run's push schedule through the calendar queue
/// and a `BinaryHeap` model of the ordering contract and asserts the
/// identical `(cycle, seq)` pop order.
///
/// The schedule is reconstructed from a traced run: every trace event's
/// cycle stamp marks an engine pop, and the inter-event cycle deltas
/// give push targets when re-offset from the replay clock. That keeps
/// the replay shaped like the engine's real load (same-cycle bursts,
/// short memory latencies, kilocycle compute sleeps) without needing
/// hooks inside the engine.
#[test]
fn replayed_engine_schedule_pops_identically() {
    let trace = traced_run(
        SystemConfig::micro15(ProtocolConfig::Dd),
        &contended_workload(),
    );
    assert!(trace.len() > 1_000, "replay schedule suspiciously small");

    let mut cal: EventQueue<usize> = EventQueue::new(QueueKind::Calendar);
    let mut heap: BinaryHeap<Reverse<(u64, u64, usize)>> = BinaryHeap::new();
    let mut heap_seq = 0u64;
    let mut now = 0u64;
    for (i, &(cycle, _)) in trace.iter().enumerate() {
        // Each traced event becomes a push whose delay is derived from
        // its original cycle stamp, so the replay keeps the engine's mix
        // of same-cycle bursts, short latencies, and kilocycle sleeps;
        // popping on two of every three steps keeps a real population.
        let at = now + (cycle % 1500);
        heap_seq += 1;
        heap.push(Reverse((at, heap_seq, i)));
        assert_eq!(
            cal.push(at, i),
            heap_seq,
            "seq assignment diverged at push {i}"
        );
        if i % 3 != 0 {
            let a = cal.pop().expect("calendar queue empty during replay");
            let Reverse(b) = heap.pop().expect("heap model empty during replay");
            assert_eq!(a, b, "pop diverged at step {i}");
            now = a.0;
        }
    }
    while let Some(Reverse(b)) = heap.pop() {
        assert_eq!(cal.pop(), Some(b), "drain diverged");
    }
    assert_eq!(cal.pop(), None);
}
