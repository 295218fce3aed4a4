//! The Stuart & Owens mutex microbenchmarks (paper Table 4), as modified
//! by the paper's §5.4.2: every thread block runs the critical section
//! `iters` times, performing 10 loads and 10 stores inside it.
//!
//! Each algorithm comes in two variants:
//!
//! * `_G` (global): one lock, and the *same* 10 data words accessed by
//!   all 45 thread blocks — the synchronization inherently requires
//!   global scope.
//! * `_L` (local): one lock per CU with HRF `Scope::Local`, and unique
//!   data per CU — only the 3 thread blocks sharing an L1 synchronize.
//!   (DRF configurations ignore the scope annotation and treat these
//!   accesses as global — exactly the comparison the paper draws.)
//!
//! The four algorithms:
//!
//! * **SPM** — spin mutex: spin on `Exch(lock, 1)`.
//! * **SPMBO** — spin mutex with capped exponential backoff.
//! * **SLM** — sleep mutex: a fixed sleep between attempts.
//! * **FAM** — fetch-and-add (ticket) mutex: `Add` on the ticket word,
//!   spin on the turn word, release by writing `ticket + 1`.
//!
//! Verification: every protected word must end at
//! `sharers x iters` — any mutual-exclusion or coherence bug loses
//! increments.

use crate::layout::Layout;
use crate::params::{Scale, SyncParams};
use gsim_core::kernel::{imm, r, AluOp, KernelBuilder};
use gsim_core::{KernelLaunch, TbSpec, Workload};
use gsim_types::{AtomicOp, RegionMap, Scope, SyncOrd, Value};
use std::sync::Arc;

/// Which mutex algorithm to build.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MutexAlgo {
    /// Spin mutex (SPM).
    Spin,
    /// Spin mutex with exponential backoff (SPMBO).
    SpinBackoff,
    /// Sleep mutex (SLM).
    Sleep,
    /// Fetch-and-add ticket mutex (FAM).
    FetchAdd,
}

impl MutexAlgo {
    /// Table 4 abbreviation stem.
    pub fn stem(self) -> &'static str {
        match self {
            MutexAlgo::Spin => "SPM",
            MutexAlgo::SpinBackoff => "SPMBO",
            MutexAlgo::Sleep => "SLM",
            MutexAlgo::FetchAdd => "FAM",
        }
    }
}

/// Register conventions of the mutex kernels.
const R_LOCK: u8 = 1; // lock base word address (ticket word for FAM)
const R_DATA: u8 = 2; // data base word address
const R_ITER: u8 = 3; // remaining iterations
const R_OLD: u8 = 5; // atomic result
const R_TMP: u8 = 6;
const R_BACKOFF: u8 = 7;
const R_TICKET: u8 = 8;
const R_TMP2: u8 = 9;

/// Fixed sleep of the sleep mutex, in cycles.
const SLEEP_CYCLES: u32 = 200;
/// Backoff bounds of SPMBO, in cycles.
const BACKOFF_MIN: u32 = 16;
const BACKOFF_MAX: u32 = 1024;

/// Emits the lock-acquire sequence for `algo`.
fn emit_acquire(b: &mut KernelBuilder, algo: MutexAlgo, scope: Scope) {
    match algo {
        MutexAlgo::Spin => {
            b.label("spin");
            b.atomic(
                R_OLD,
                b.at(R_LOCK, 0),
                AtomicOp::Exch,
                imm(1),
                imm(0),
                SyncOrd::AcqRel,
                scope,
            );
            b.bnz(r(R_OLD), "spin");
        }
        MutexAlgo::SpinBackoff => {
            b.mov(R_BACKOFF, imm(BACKOFF_MIN));
            b.label("spin");
            b.atomic(
                R_OLD,
                b.at(R_LOCK, 0),
                AtomicOp::Exch,
                imm(1),
                imm(0),
                SyncOrd::AcqRel,
                scope,
            );
            b.bz(r(R_OLD), "acquired");
            b.compute(r(R_BACKOFF));
            b.alu(R_BACKOFF, r(R_BACKOFF), AluOp::Shl, imm(1));
            b.alu(R_BACKOFF, r(R_BACKOFF), AluOp::Min, imm(BACKOFF_MAX));
            b.jmp("spin");
            b.label("acquired");
        }
        MutexAlgo::Sleep => {
            b.label("spin");
            b.atomic(
                R_OLD,
                b.at(R_LOCK, 0),
                AtomicOp::Exch,
                imm(1),
                imm(0),
                SyncOrd::AcqRel,
                scope,
            );
            b.bz(r(R_OLD), "acquired");
            b.compute(imm(SLEEP_CYCLES));
            b.jmp("spin");
            b.label("acquired");
        }
        MutexAlgo::FetchAdd => {
            // Take a ticket (word 0), spin until the turn word (word 1)
            // shows it.
            b.atomic(
                R_TICKET,
                b.at(R_LOCK, 0),
                AtomicOp::Add,
                imm(1),
                imm(0),
                SyncOrd::AcqRel,
                scope,
            );
            b.label("spin");
            b.atomic(
                R_OLD,
                b.at(R_LOCK, 1),
                AtomicOp::Read,
                imm(0),
                imm(0),
                SyncOrd::Acquire,
                scope,
            );
            b.alu(R_TMP, r(R_OLD), AluOp::CmpNe, r(R_TICKET));
            b.bnz(r(R_TMP), "spin");
        }
    }
}

/// Emits the lock-release sequence for `algo`.
fn emit_release(b: &mut KernelBuilder, algo: MutexAlgo, scope: Scope) {
    match algo {
        MutexAlgo::FetchAdd => {
            b.alu(R_TMP2, r(R_TICKET), AluOp::Add, imm(1));
            b.atomic(
                R_OLD,
                b.at(R_LOCK, 1),
                AtomicOp::Write,
                r(R_TMP2),
                imm(0),
                SyncOrd::Release,
                scope,
            );
        }
        _ => {
            b.atomic(
                R_OLD,
                b.at(R_LOCK, 0),
                AtomicOp::Write,
                imm(0),
                imm(0),
                SyncOrd::Release,
                scope,
            );
        }
    }
}

/// Builds the mutex kernel: `iters` critical sections, each reading and
/// incrementing `ld_st` protected words. Shared with the fabric
/// microbenchmarks ([`crate::sync::xdev`]), which run it against locks
/// homed on different devices.
pub(crate) fn mutex_program(
    algo: MutexAlgo,
    scope: Scope,
    p: &SyncParams,
) -> Arc<gsim_core::kernel::Program> {
    let mut b = KernelBuilder::new();
    b.mov(R_ITER, imm(p.iters));
    b.label("iter");
    emit_acquire(&mut b, algo, scope);
    for j in 0..p.ld_st {
        b.ld(R_TMP, b.at(R_DATA, j as u32));
        b.alu_add(R_TMP, r(R_TMP), imm(1));
        b.st(b.at(R_DATA, j as u32), r(R_TMP));
    }
    emit_release(&mut b, algo, scope);
    b.alu(R_ITER, r(R_ITER), AluOp::Sub, imm(1));
    b.bnz(r(R_ITER), "iter");
    b.halt();
    b.build()
}

/// The `*_G` memory layout: one lock line, one shared data array.
fn global_layout(layout: &mut Layout, p: &SyncParams) -> (Value, Value) {
    let lock = layout.alloc_named("lock[]", 2); // ticket+turn for FAM; word 0 otherwise
    let data = layout.alloc_named("data[]", p.ld_st);
    (lock, data)
}

/// The `*_L` memory layout: a lock line and data array per CU.
///
/// Lock and data allocations interleave so CU c's lock lands on L2 bank
/// 2c mod 16 — decorrelated from the CU's own node, as arbitrary heap
/// addresses would be (only CU 0 is "lucky").
fn local_layout(layout: &mut Layout, p: &SyncParams) -> (Vec<Value>, Vec<Value>) {
    (0..p.cus)
        .map(|cu| {
            (
                layout.alloc_named(format!("lock[{cu}]"), 2),
                layout.alloc_named(format!("data[{cu}]"), p.ld_st),
            )
        })
        .unzip()
}

/// The named regions of the `*_G` layout at `scale` (profiler
/// annotation; identical across the four algorithms).
pub fn global_regions(scale: Scale) -> RegionMap {
    let p = SyncParams::new(scale);
    let mut layout = Layout::new();
    global_layout(&mut layout, &p);
    layout.regions().clone()
}

/// The named regions of the `*_L` layout at `scale`.
pub fn local_regions(scale: Scale) -> RegionMap {
    let p = SyncParams::new(scale);
    let mut layout = Layout::new();
    local_layout(&mut layout, &p);
    layout.regions().clone()
}

/// Builds the globally scoped variant (`*_G`): one lock, shared data.
pub fn global(algo: MutexAlgo, scale: Scale) -> Workload {
    let p = SyncParams::new(scale);
    let mut layout = Layout::new();
    let (lock, data) = global_layout(&mut layout, &p);
    let program = mutex_program(algo, Scope::Global, &p);
    let tbs = (0..p.total_tbs() as u32)
        .map(|i| TbSpec::with_regs(&[i, lock, data, 0]))
        .collect();
    let (ld_st, want) = (p.ld_st, p.total_tbs() as Value * p.iters);
    Workload {
        name: format!("{}_G", algo.stem()),
        init: Box::new(|_| {}),
        kernels: vec![KernelLaunch { program, tbs }],
        verify: Box::new(move |mem| {
            for j in 0..ld_st {
                let got = mem.read_u32_slice(Layout::byte_addr(data), ld_st)[j];
                if got != want {
                    return Err(format!("data[{j}] = {got}, want {want}"));
                }
            }
            Ok(())
        }),
    }
}

/// Builds the locally scoped variant (`*_L`): a lock and data per CU,
/// `Scope::Local` synchronization.
pub fn local(algo: MutexAlgo, scale: Scale) -> Workload {
    let p = SyncParams::new(scale);
    let mut layout = Layout::new();
    let (locks, datas) = local_layout(&mut layout, &p);
    let program = mutex_program(algo, Scope::Local, &p);
    let tbs = (0..p.total_tbs() as u32)
        .map(|i| {
            let cu = i as usize % p.cus;
            TbSpec::with_regs(&[i, locks[cu], datas[cu], 0])
        })
        .collect();
    let (ld_st, want) = (p.ld_st, p.tbs_per_cu as Value * p.iters);
    Workload {
        name: format!("{}_L", algo.stem()),
        init: Box::new(|_| {}),
        kernels: vec![KernelLaunch { program, tbs }],
        verify: Box::new(move |mem| {
            for (cu, &d) in datas.iter().enumerate() {
                let words = mem.read_u32_slice(Layout::byte_addr(d), ld_st);
                for (j, &got) in words.iter().enumerate() {
                    if got != want {
                        return Err(format!("cu {cu} data[{j}] = {got}, want {want}"));
                    }
                }
            }
            Ok(())
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsim_core::{Simulator, SystemConfig};
    use gsim_types::ProtocolConfig;

    const ALGOS: [MutexAlgo; 4] = [
        MutexAlgo::Spin,
        MutexAlgo::SpinBackoff,
        MutexAlgo::Sleep,
        MutexAlgo::FetchAdd,
    ];

    #[test]
    fn global_mutexes_verify_under_every_config() {
        for algo in ALGOS {
            for p in ProtocolConfig::ALL {
                let w = global(algo, Scale::Tiny);
                Simulator::new(SystemConfig::micro15(p))
                    .run(&w)
                    .unwrap_or_else(|e| panic!("{}_G under {p}: {e}", algo.stem()));
            }
        }
    }

    #[test]
    fn local_mutexes_verify_under_every_config() {
        for algo in ALGOS {
            for p in ProtocolConfig::ALL {
                let w = local(algo, Scale::Tiny);
                Simulator::new(SystemConfig::micro15(p))
                    .run(&w)
                    .unwrap_or_else(|e| panic!("{}_L under {p}: {e}", algo.stem()));
            }
        }
    }

    #[test]
    fn local_scope_pays_off_under_hrf() {
        // The headline HRF effect: local-variant atomics execute at the
        // L1 under GH, so atomic network traffic collapses versus GD.
        let gd = Simulator::new(SystemConfig::micro15(ProtocolConfig::Gd))
            .run(&local(MutexAlgo::Spin, Scale::Tiny))
            .unwrap();
        let gh = Simulator::new(SystemConfig::micro15(ProtocolConfig::Gh))
            .run(&local(MutexAlgo::Spin, Scale::Tiny))
            .unwrap();
        assert!(
            gh.traffic.class(gsim_types::MsgClass::Atomic)
                < gd.traffic.class(gsim_types::MsgClass::Atomic) / 4,
            "GH should eliminate nearly all atomic traffic: gd={} gh={}",
            gd.traffic.class(gsim_types::MsgClass::Atomic),
            gh.traffic.class(gsim_types::MsgClass::Atomic)
        );
        assert!(gh.cycles < gd.cycles);
    }

    #[test]
    fn denovo_reuses_global_sync_in_l1() {
        // The headline DeNovo effect: once a CU owns the (global) lock
        // word, the other blocks on that CU hit in the L1.
        let dd = Simulator::new(SystemConfig::micro15(ProtocolConfig::Dd))
            .run(&global(MutexAlgo::Spin, Scale::Tiny))
            .unwrap();
        assert!(dd.counts.l1_atomic_hits > 0, "no sync reuse at the L1");
        let gd = Simulator::new(SystemConfig::micro15(ProtocolConfig::Gd))
            .run(&global(MutexAlgo::Spin, Scale::Tiny))
            .unwrap();
        assert_eq!(gd.counts.l1_atomic_hits, 0, "GPU-D has no L1 atomics");
    }
}
