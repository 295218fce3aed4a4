//! Engine-behaviour tests: thread-block scheduling, kernel lifecycle,
//! and issue-bandwidth properties of the simulation core, independent of
//! any particular protocol result.

use gsim_core::kernel::{imm, r, AluOp, KernelBuilder};
use gsim_core::{KernelLaunch, SimError, Simulator, SystemConfig, TbSpec, Workload};
use gsim_types::{ProtocolConfig, Value, WordAddr};

fn sim(p: ProtocolConfig) -> Simulator {
    Simulator::new(SystemConfig::micro15(p))
}

/// More thread blocks than resident slots: the queue drains and every
/// block runs exactly once.
#[test]
fn oversubscribed_blocks_all_run() {
    // 200 blocks on 15 CUs x 3 slots: heavy queueing.
    const N: u32 = 200;
    let mut b = KernelBuilder::new();
    b.mov(1, imm(0));
    // out[tb] = tb + 1
    b.alu_add(2, r(1), r(0));
    b.alu_add(3, r(0), imm(1));
    b.st(b.at(2, 0), r(3));
    b.halt();
    let w = Workload {
        name: "oversubscribed".into(),
        init: Box::new(|_| {}),
        kernels: vec![KernelLaunch {
            program: b.build(),
            tbs: (0..N).map(|i| TbSpec::with_regs(&[i])).collect(),
        }],
        verify: Box::new(|mem| {
            for i in 0..N as u64 {
                let got = mem.read_word(WordAddr(i));
                if got != i as Value + 1 {
                    return Err(format!("tb {i} wrote {got}"));
                }
            }
            Ok(())
        }),
    };
    for p in [ProtocolConfig::Gd, ProtocolConfig::Dd] {
        sim(p).run(&w).unwrap_or_else(|e| panic!("{p}: {e}"));
    }
}

/// A CU issues at most one instruction per cycle: N pure-ALU blocks on
/// one CU take ~N times as long as one block.
#[test]
fn issue_bandwidth_is_one_per_cycle_per_cu() {
    let mk = |tbs_on_cu0: usize| {
        let mut b = KernelBuilder::new();
        for _ in 0..200 {
            b.alu_add(1, r(1), imm(1));
        }
        b.halt();
        // Blocks i, i+15, i+30... land on CU i%15; use multiples of 15
        // to stack them all on CU 0.
        Workload {
            name: "alu".into(),
            init: Box::new(|_| {}),
            kernels: vec![KernelLaunch {
                program: b.build(),
                tbs: vec![TbSpec::with_regs(&[]); 1 + (tbs_on_cu0 - 1) * 15],
            }],
            verify: Box::new(|_| Ok(())),
        }
    };
    let one = sim(ProtocolConfig::Gd).run(&mk(1)).unwrap().cycles;
    let three = sim(ProtocolConfig::Gd).run(&mk(3)).unwrap().cycles;
    // Three co-resident ALU blocks share the issue port: ~3x the time.
    assert!(
        three > 2 * one && three < 4 * one,
        "one block: {one} cycles, three blocks: {three}"
    );
}

/// Kernel launches are fully serialized: kernel 2 cannot start until
/// kernel 1's release drains, so its reads see every kernel-1 write.
#[test]
fn kernels_serialize_through_the_boundary() {
    const WORDS: u32 = 64;
    let mut k1 = KernelBuilder::new();
    k1.mov(1, imm(0));
    k1.mov(2, imm(0)); // i
    k1.label("w");
    k1.alu_add(3, r(1), r(2));
    k1.st(k1.at(3, 0), imm(7));
    k1.alu_add(2, r(2), imm(1));
    k1.alu(4, r(2), AluOp::CmpLt, imm(WORDS));
    k1.bnz(r(4), "w");
    k1.halt();
    let mut k2 = KernelBuilder::new();
    k2.mov(1, imm(0));
    k2.mov(2, imm(0));
    k2.mov(5, imm(0)); // sum
    k2.label("rd");
    k2.alu_add(3, r(1), r(2));
    k2.ld(4, k2.at(3, 0));
    k2.alu_add(5, r(5), r(4));
    k2.alu_add(2, r(2), imm(1));
    k2.alu(4, r(2), AluOp::CmpLt, imm(WORDS));
    k2.bnz(r(4), "rd");
    k2.st(k2.at(1, 1000), r(5));
    k2.halt();
    let w = Workload {
        name: "serialized".into(),
        init: Box::new(|_| {}),
        kernels: vec![
            KernelLaunch {
                program: k1.build(),
                tbs: vec![TbSpec::with_regs(&[0])],
            },
            KernelLaunch {
                // The reader runs on a DIFFERENT CU (block id 5).
                program: k2.build(),
                tbs: vec![TbSpec::with_regs(&[5])],
            },
        ],
        verify: Box::new(move |mem| {
            let got = mem.read_word(WordAddr(1000));
            (got == 7 * WORDS)
                .then_some(())
                .ok_or_else(|| format!("sum {got}, want {}", 7 * WORDS))
        }),
    };
    for p in ProtocolConfig::ALL {
        sim(p).run(&w).unwrap_or_else(|e| panic!("{p}: {e}"));
    }
}

/// Scratchpads are private per thread block: two blocks using the same
/// scratch indices never interfere.
#[test]
fn scratchpads_are_private() {
    let mut b = KernelBuilder::new();
    b.mov(1, imm(0));
    // scratch[0] = tb; spin a little; out[tb] = scratch[0]
    b.st_scratch(b.at(1, 0), r(0));
    b.compute(imm(50));
    b.ld_scratch(2, b.at(1, 0));
    b.alu_add(3, r(1), r(0));
    b.st(b.at(3, 64), r(2));
    b.halt();
    let w = Workload {
        name: "scratch-private".into(),
        init: Box::new(|_| {}),
        kernels: vec![KernelLaunch {
            program: b.build(),
            tbs: (0..30)
                .map(|i| TbSpec::with_regs(&[i]).scratch(4))
                .collect(),
        }],
        verify: Box::new(|mem| {
            for i in 0..30u64 {
                let got = mem.read_word(WordAddr(64 + i));
                if got != i as Value {
                    return Err(format!("tb {i} read back {got}"));
                }
            }
            Ok(())
        }),
    };
    sim(ProtocolConfig::Dd).run(&w).unwrap();
}

/// The watchdog report names the stuck pc so users can find the loop in
/// the disassembly.
#[test]
fn watchdog_report_is_actionable() {
    let mut b = KernelBuilder::new();
    b.mov(1, imm(0)); // pc 0
    b.label("stuck"); // pc 1
    b.jmp("stuck");
    let program = b.build();
    let listing = program.to_string();
    assert!(listing.contains("1: jmp -> 1"), "disassembly:\n{listing}");
    let w = Workload {
        name: "stuck".into(),
        init: Box::new(|_| {}),
        kernels: vec![KernelLaunch {
            program,
            tbs: vec![TbSpec::with_regs(&[])],
        }],
        verify: Box::new(|_| Ok(())),
    };
    let mut cfg = SystemConfig::micro15(ProtocolConfig::Gd);
    cfg.max_cycles = 5_000;
    let err = Simulator::new(cfg).run(&w).unwrap_err();
    let SimError::Watchdog { report, .. } = err else {
        panic!("expected a watchdog");
    };
    assert!(
        report.contains("pc 1"),
        "report should name the pc:\n{report}"
    );
}

/// Stats decompose sensibly: cycles, instructions, and active cycles are
/// all positive and mutually consistent on a real run.
#[test]
fn stats_are_internally_consistent() {
    let mut b = KernelBuilder::new();
    b.mov(1, imm(0));
    for j in 0..32 {
        b.st(b.at(1, j), imm(j));
    }
    b.halt();
    let w = Workload {
        name: "stats".into(),
        init: Box::new(|_| {}),
        kernels: vec![KernelLaunch {
            program: b.build(),
            tbs: vec![TbSpec::with_regs(&[]); 45],
        }],
        verify: Box::new(|_| Ok(())),
    };
    let stats = sim(ProtocolConfig::Gh).run(&w).unwrap();
    assert!(stats.counts.instructions >= 45 * 34);
    assert!(stats.counts.cu_active_cycles >= stats.counts.instructions / 15);
    assert!(stats.counts.cu_active_cycles <= stats.cycles * 15);
    assert!(stats.energy.total_pj() > 0.0);
    assert_eq!(
        stats.counts.flit_hops,
        stats.traffic.total(),
        "engine and mesh agree on traffic"
    );
}

/// A watchdog report lists the queued events, and a queued delivery
/// shows its message (source, destination, kind), not just where the
/// engine parked it.
#[test]
fn watchdog_report_shows_queued_messages() {
    let build = gsim_workloads::by_name("SPM_G").expect("registered").build;
    let mut cfg = SystemConfig::micro15(ProtocolConfig::Gd);
    cfg.max_cycles = 300;
    let err = Simulator::new(cfg)
        .run(&build(gsim_workloads::Scale::Tiny))
        .unwrap_err();
    let SimError::Watchdog { report, .. } = err else {
        panic!("expected a watchdog");
    };
    let delivery = report
        .lines()
        .find(|l| l.contains("Deliver("))
        .unwrap_or_else(|| panic!("no queued delivery in the report:\n{report}"));
    for field in ["src:", "dst:", "kind:"] {
        assert!(delivery.contains(field), "{delivery} lacks {field}");
    }
}
