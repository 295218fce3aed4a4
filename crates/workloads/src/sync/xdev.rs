//! Cross-device (fabric) synchronization microbenchmarks.
//!
//! The paper's system is a single GPU; the fabric extension joins
//! several device meshes with a slower inter-device link (see
//! `gsim_noc::Topology`). These microbenchmarks measure what the scoped
//! literature calls *device scope* versus *system scope*
//! synchronization on that fabric — without adding a scope level to the
//! consistency model, exactly in the paper's spirit: the distinction is
//! purely *where the synchronization variable's L2 home bank lives*.
//!
//! * **XDEV_D** (device scope): the spin-mutex microbenchmark with the
//!   lock and data homed on the device that runs every thread block.
//!   Acquire/release round trips stay inside one mesh.
//! * **XDEV_S** (system scope): the identical workload with the lock
//!   and data homed on the *other* device. Every acquire, release, and
//!   critical-section miss crosses the inter-device link both ways, so
//!   the latency gap versus `XDEV_D` is the cost of system-scoped
//!   synchronization.
//! * **XPC** (cross-device producer-consumer): a flag/ack message-
//!   passing handshake between a producer block on device 0 and a
//!   consumer block pinned to device 1 ([`TbSpec::on_cu`]). Requires a
//!   topology with at least two devices.
//!
//! Line homes follow the L2 registry's striping, `home(line) = line %
//! banks` with one bank per fabric node (`SystemConfig::fabric`), so a
//! workload places a word on a device simply by choosing its line
//! address. On a single-device system the same addresses fold back onto
//! the one mesh (`line % 16`) and `XDEV_D`/`XDEV_S` degenerate to the
//! same placement — only a multi-device run shows a gap.

use crate::layout::Layout;
use crate::params::{Scale, SyncParams};
use crate::sync::mutex::{mutex_program, MutexAlgo};
use gsim_core::kernel::{imm, r, AluOp, KernelBuilder};
use gsim_core::{KernelLaunch, MeshConfig, TbSpec, Topology, Workload, XLinkConfig};
use gsim_types::{AtomicOp, RegionMap, Scope, SyncOrd, Value, WORDS_PER_LINE};

/// The fabric shape these microbenchmarks assume: two of the paper's
/// 4x4 meshes. Only node *counts* matter here (for line homing and CU
/// pinning); link latencies stay free for the harness to sweep.
fn fabric_topology() -> Topology {
    Topology::fabric(MeshConfig::default(), 2, XLinkConfig::default())
}

/// Word address of the `k`-th line homing at L2 bank `home` under
/// line-interleaved striping over `banks` banks.
fn homed_line(home: usize, k: usize, banks: usize) -> Value {
    ((home + k * banks) * WORDS_PER_LINE) as Value
}

/// An interior node of the local mesh (device 0) to home the
/// device-scope lock at — deliberately not the gateway (node 0), so the
/// device-scope variant pays ordinary mesh hops, not a lucky co-home.
const HOME_LOCAL: usize = 5;

/// Registers of the producer-consumer kernel.
const R_FLAG: u8 = 1; // flag word address
const R_DATA: u8 = 2; // data base word address
const R_ACK: u8 = 3; // ack word address
const R_RES: u8 = 4; // result word address (consumer)
const R_I: u8 = 5; // current round, 1..=iters
const R_OLD: u8 = 6; // atomic result
const R_TMP: u8 = 7;
const R_ACC: u8 = 8; // consumer checksum accumulator

/// Builds one scoped spin-mutex variant: the standard `SPM` kernel over
/// a lock/data pair homed at fabric node `home`.
fn scoped(name: &'static str, home: usize, scale: Scale) -> Workload {
    let p = SyncParams::new(scale);
    let banks = fabric_topology().nodes();
    let lock = homed_line(home, 0, banks);
    let data = homed_line(home, 1, banks);
    let program = mutex_program(MutexAlgo::Spin, Scope::Global, &p);
    let tbs = (0..p.total_tbs() as u32)
        .map(|i| TbSpec::with_regs(&[i, lock, data, 0]))
        .collect();
    let (ld_st, want) = (p.ld_st, p.total_tbs() as Value * p.iters);
    Workload {
        name: name.to_string(),
        init: Box::new(|_| {}),
        kernels: vec![KernelLaunch { program, tbs }],
        verify: Box::new(move |mem| {
            let words = mem.read_u32_slice(Layout::byte_addr(data), ld_st);
            for (j, &got) in words.iter().enumerate() {
                if got != want {
                    return Err(format!("data[{j}] = {got}, want {want}"));
                }
            }
            Ok(())
        }),
    }
}

/// Named regions of a scoped variant's layout (profiler annotation).
fn scoped_regions(home: usize, scale: Scale) -> RegionMap {
    let p = SyncParams::new(scale);
    let banks = fabric_topology().nodes();
    let mut map = RegionMap::default();
    map.add("lock[]", homed_line(home, 0, banks) as u64, 2);
    map.add("data[]", homed_line(home, 1, banks) as u64, p.ld_st as u64);
    map
}

/// `XDEV_D`: spin mutex with the lock homed on the running device.
pub fn device_scope(scale: Scale) -> Workload {
    scoped("XDEV_D", HOME_LOCAL, scale)
}

/// Regions of [`device_scope`].
pub fn device_regions(scale: Scale) -> RegionMap {
    scoped_regions(HOME_LOCAL, scale)
}

/// `XDEV_S`: the identical workload with the lock homed at the mirror
/// node of device 1 — every synchronization action crosses the fabric.
pub fn system_scope(scale: Scale) -> Workload {
    let remote = fabric_topology().nodes_per_device() + HOME_LOCAL;
    scoped("XDEV_S", remote, scale)
}

/// Regions of [`system_scope`].
pub fn system_regions(scale: Scale) -> RegionMap {
    let remote = fabric_topology().nodes_per_device() + HOME_LOCAL;
    scoped_regions(remote, scale)
}

/// Builds the producer-consumer kernel. Thread block 0 is the producer,
/// every other block a consumer (XPC launches exactly one of each).
///
/// Per round `i` (1..=iters): the producer stores `i` to the data words
/// and releases `flag = i`; the consumer acquires the flag, sums the
/// data words into its checksum, and releases `ack = i`, which the
/// producer acquires before starting round `i + 1`. The handshake keeps
/// the plain data accesses race-free (each side's accesses are ordered
/// by an acquire of the other's release), so the run is DRF and every
/// configuration must produce the same checksum.
fn pc_program(p: &SyncParams) -> std::sync::Arc<gsim_core::kernel::Program> {
    let rounds_done = imm(p.iters + 1);
    let mut b = KernelBuilder::new();
    b.mov(R_I, imm(1));
    b.bnz(r(0), "consumer");

    // -- Producer (thread block 0) --
    b.label("produce");
    for j in 0..p.ld_st {
        b.st(b.at(R_DATA, j as u32), r(R_I));
    }
    b.atomic(
        R_OLD,
        b.at(R_FLAG, 0),
        AtomicOp::Write,
        r(R_I),
        imm(0),
        SyncOrd::Release,
        Scope::Global,
    );
    b.label("wait_ack");
    b.atomic(
        R_OLD,
        b.at(R_ACK, 0),
        AtomicOp::Read,
        imm(0),
        imm(0),
        SyncOrd::Acquire,
        Scope::Global,
    );
    b.alu(R_TMP, r(R_OLD), AluOp::CmpNe, r(R_I));
    b.bnz(r(R_TMP), "wait_ack");
    b.alu_add(R_I, r(R_I), imm(1));
    b.alu(R_TMP, r(R_I), AluOp::CmpNe, rounds_done);
    b.bnz(r(R_TMP), "produce");
    b.halt();

    // -- Consumer --
    b.label("consumer");
    b.mov(R_ACC, imm(0));
    b.label("consume");
    b.label("wait_flag");
    b.atomic(
        R_OLD,
        b.at(R_FLAG, 0),
        AtomicOp::Read,
        imm(0),
        imm(0),
        SyncOrd::Acquire,
        Scope::Global,
    );
    b.alu(R_TMP, r(R_OLD), AluOp::CmpNe, r(R_I));
    b.bnz(r(R_TMP), "wait_flag");
    for j in 0..p.ld_st {
        b.ld(R_TMP, b.at(R_DATA, j as u32));
        b.alu_add(R_ACC, r(R_ACC), r(R_TMP));
    }
    b.atomic(
        R_OLD,
        b.at(R_ACK, 0),
        AtomicOp::Write,
        r(R_I),
        imm(0),
        SyncOrd::Release,
        Scope::Global,
    );
    b.alu_add(R_I, r(R_I), imm(1));
    b.alu(R_TMP, r(R_I), AluOp::CmpNe, rounds_done);
    b.bnz(r(R_TMP), "consume");
    b.st(b.at(R_RES, 0), r(R_ACC));
    b.halt();
    b.build()
}

/// `XPC`: producer on device 0, consumer pinned to device 1.
///
/// The flag and data home on device 0 (local to the producer, remote to
/// the consumer) and the ack on device 1 — every round is two
/// inter-device crossings at minimum, so end-to-end cycles track the
/// link latency directly.
///
/// # Panics (at run time)
///
/// The consumer is pinned to dense CU index `gpu_cus` (device 1, local
/// CU 0); running the workload on a single-device system panics in
/// `start_kernel` with an out-of-range CU.
pub fn producer_consumer(scale: Scale) -> Workload {
    let p = SyncParams::new(scale);
    let t = fabric_topology();
    let banks = t.nodes();
    let (flag, data) = (homed_line(0, 0, banks), homed_line(0, 1, banks));
    let ack = homed_line(t.nodes_per_device(), 0, banks);
    let result = homed_line(1, 0, banks);
    let program = pc_program(&p);
    let regs = |tb: u32| [tb, flag, data, ack, result];
    let tbs = vec![
        TbSpec::with_regs(&regs(0)),
        // Dense CU index gpu_cus = first CU of device 1.
        TbSpec::with_regs(&regs(1)).on_cu(p.cus),
    ];
    let iters = p.iters as u64;
    let want = (p.ld_st as u64 * iters * (iters + 1) / 2) as Value;
    Workload {
        name: "XPC".to_string(),
        init: Box::new(|_| {}),
        kernels: vec![KernelLaunch { program, tbs }],
        verify: Box::new(move |mem| {
            let got = mem.read_u32_slice(Layout::byte_addr(result), 1)[0];
            if got != want {
                return Err(format!("consumer checksum {got}, want {want}"));
            }
            Ok(())
        }),
    }
}

/// Regions of [`producer_consumer`].
pub fn pc_regions(scale: Scale) -> RegionMap {
    let p = SyncParams::new(scale);
    let t = fabric_topology();
    let banks = t.nodes();
    let mut map = RegionMap::default();
    map.add("flag", homed_line(0, 0, banks) as u64, 1);
    map.add("data[]", homed_line(0, 1, banks) as u64, p.ld_st as u64);
    map.add("ack", homed_line(t.nodes_per_device(), 0, banks) as u64, 1);
    map.add("result", homed_line(1, 0, banks) as u64, 1);
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsim_core::{SimError, Simulator, SystemConfig};
    use gsim_types::ProtocolConfig;

    fn fabric(p: ProtocolConfig) -> SystemConfig {
        SystemConfig::fabric(p, 2, 40)
    }

    #[test]
    fn scoped_variants_verify_under_every_config_on_two_devices() {
        for p in ProtocolConfig::ALL {
            for build in [device_scope, system_scope] {
                let w = build(Scale::Tiny);
                Simulator::new(fabric(p))
                    .run(&w)
                    .unwrap_or_else(|e| panic!("{} under {p}: {e}", w.name));
            }
        }
    }

    #[test]
    fn scoped_variants_also_run_on_a_single_device() {
        // The remote home folds back onto the one mesh: no gap, but the
        // workload must still verify.
        for build in [device_scope, system_scope] {
            Simulator::new(SystemConfig::micro15(ProtocolConfig::Dd))
                .run(&build(Scale::Tiny))
                .unwrap();
        }
    }

    #[test]
    fn system_scope_pays_the_inter_device_link() {
        // The acceptance gap: under every configuration, homing the lock
        // across the fabric must cost measurably more than homing it on
        // the running device.
        for p in ProtocolConfig::ALL {
            let d = Simulator::new(fabric(p))
                .run(&device_scope(Scale::Tiny))
                .unwrap();
            let s = Simulator::new(fabric(p))
                .run(&system_scope(Scale::Tiny))
                .unwrap();
            assert!(
                s.cycles > d.cycles + d.cycles / 4,
                "{p}: system-scope {} cycles vs device-scope {}",
                s.cycles,
                d.cycles
            );
        }
    }

    #[test]
    fn producer_consumer_verifies_under_every_config() {
        for p in ProtocolConfig::ALL {
            Simulator::new(fabric(p))
                .run(&producer_consumer(Scale::Tiny))
                .unwrap_or_else(|e| panic!("XPC under {p}: {e}"));
        }
    }

    #[test]
    fn producer_consumer_tracks_the_link_latency() {
        let near = Simulator::new(SystemConfig::fabric(ProtocolConfig::Dd, 2, 10))
            .run(&producer_consumer(Scale::Tiny))
            .unwrap();
        let far = Simulator::new(SystemConfig::fabric(ProtocolConfig::Dd, 2, 400))
            .run(&producer_consumer(Scale::Tiny))
            .unwrap();
        assert!(
            far.cycles > near.cycles + 400,
            "xlink latency must dominate XPC: near={} far={}",
            near.cycles,
            far.cycles
        );
    }

    #[test]
    fn producer_consumer_is_rejected_on_one_device() {
        let err = Simulator::new(SystemConfig::micro15(ProtocolConfig::Dd))
            .run(&producer_consumer(Scale::Tiny))
            .expect_err("device 1's CUs do not exist on one device");
        assert!(matches!(err, SimError::Workload(_)), "{err}");
        assert!(err.to_string().contains("CU 15"), "{err}");
    }
}
