//! Capacity stress: tiny MSHR, tiny L1, and tiny L2 banks force the
//! eviction and stall edge paths that comfortable default sizes never
//! reach — DeNovo owned-line eviction (registration must write the
//! owned words back), MSHR check-and-stall at every miss-issuing call
//! site, and store-buffer backpressure.
//!
//! The `streaming_ownership` shape is the regression test for the
//! owned-victim eviction path: with a 4-line L1 and 32-line store
//! streams, every DeNovo config *must* evict lines it owns, and the
//! `ownership_writebacks` counter proves the surfaced-words writeback
//! path ran (silently dropping the owned words would also fail the
//! functional verifier, but the counter pins the mechanism).

mod stress;

use gpu_denovo::sim::kernel::{imm, r, AluOp, KernelBuilder};
use gpu_denovo::types::{AtomicOp, ProtocolConfig, Scope, SyncOrd, WordAddr};
use gpu_denovo::{KernelLaunch, Simulator, TbSpec, Workload};
use stress::{streaming_ownership, tiny_cfg};

/// Contended spin lock with streaming stores inside the critical
/// section: sync + data misses compete for a tiny MSHR.
fn lock_with_streaming() -> Workload {
    const TBS: u32 = 30;
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
    // Stream over 8 private lines while holding the lock.
    b.alu(4, r(0), AluOp::Mul, imm(8 * 16));
    b.alu_add(4, r(4), imm(1024));
    b.mov(5, imm(0));
    b.label("wr");
    b.alu(6, r(5), AluOp::Mul, imm(16));
    b.alu_add(6, r(6), r(4));
    b.mov(7, r(6));
    b.st(b.at(7, 0), r(5));
    b.alu_add(5, r(5), imm(1));
    b.alu(8, r(5), AluOp::CmpLt, imm(8));
    b.bnz(r(8), "wr");
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
    let tbs: Vec<TbSpec> = (0..TBS).map(|t| TbSpec::with_regs(&[t])).collect();
    Workload {
        name: "lock-stream".into(),
        init: Box::new(|_| {}),
        kernels: vec![KernelLaunch {
            program: b.build(),
            tbs,
        }],
        verify: Box::new(move |m| {
            let got = m.read_word(WordAddr(1));
            (got == TBS)
                .then_some(())
                .ok_or_else(|| format!("counter {got}, want {TBS}"))
        }),
    }
}

/// Both shapes under every configuration with 1- and 2-entry MSHRs.
/// The built-in conformance checker (`CheckLevel::Invariants` is the
/// test-build default) audits quiesce state on top of the functional
/// verifiers.
#[test]
fn tiny_mshr_and_cache_stress() {
    for p in ProtocolConfig::ALL {
        for mshr in [1, 2] {
            for (name, mk) in [
                ("stream", streaming_ownership as fn() -> Workload),
                ("lock", lock_with_streaming as fn() -> Workload),
            ] {
                let cfg = tiny_cfg(p, mshr);
                Simulator::new(cfg)
                    .run(&mk())
                    .unwrap_or_else(|e| panic!("{p} mshr={mshr} {name}: {e}"));
            }
        }
    }
}

/// The owned-victim eviction regression pinned by its counter: every
/// DeNovo configuration must take the ownership-writeback path when a
/// tiny L1 evicts registered lines (and the GPU configs, which never
/// own lines, must not).
#[test]
fn streaming_evictions_write_back_owned_words() {
    for p in ProtocolConfig::ALL {
        let stats = Simulator::new(tiny_cfg(p, 2))
            .run(&streaming_ownership())
            .unwrap_or_else(|e| panic!("{p}: {e}"));
        let wb = stats.counts.ownership_writebacks;
        if p.coherence() == gpu_denovo::types::Coherence::DeNovo {
            assert!(
                wb > 0,
                "{p}: streaming through a 4-line DeNovo L1 must evict \
                 owned lines and write their words back (got {wb})"
            );
        } else {
            assert_eq!(wb, 0, "{p}: GPU L1s never own lines (got {wb})");
        }
    }
}
