//! Multi-device fabric integration tests: the litmus battery on
//! non-default geometries, observer reconciliation on the multi-device
//! link set, and sweep determinism on a fabric.
//!
//! The consistency arguments of the paper are geometry-free — the same
//! SC-for-DRF outcomes must hold whether the L2 home of a line is one
//! mesh hop away, across a rectangular mesh, or on another device
//! entirely. These tests pin that down.

use gpu_denovo::harness::{self, FabricSpec};
use gpu_denovo::types::NodeId;
use gpu_denovo::workloads::registry;
use gpu_denovo::workloads::{litmus, Scale};
use gpu_denovo::{
    CheckLevel, FlowSpec, MeshConfig, ObserveSpec, ProtocolConfig, Simulator, SystemConfig,
    Topology,
};

/// Full-checking config on an arbitrary topology. The L2 keeps one bank
/// per node so home striping covers the whole fabric (what
/// `SystemConfig::fabric` does for the standard shapes).
fn full_on(topology: Topology, p: ProtocolConfig) -> SystemConfig {
    let mut cfg = SystemConfig::micro15(p);
    cfg.topology = topology;
    cfg.l2.banks = topology.nodes();
    cfg.check = CheckLevel::Full;
    cfg
}

/// The litmus battery stays clean on a non-square 2x8 mesh: same node
/// count as the paper's 4x4 (so the shapes' CU co-location holds), but
/// every hardcoded square-side assumption would misroute.
#[test]
fn litmus_battery_is_clean_on_a_2x8_mesh() {
    let mesh = MeshConfig::grid(8, 2);
    for shape in litmus::battery() {
        for p in ProtocolConfig::ALL {
            Simulator::new(full_on(Topology::single(mesh), p))
                .run(&(shape.build)())
                .unwrap_or_else(|e| panic!("{} under {p} on 2x8: {e}", shape.name));
        }
    }
}

/// The litmus battery stays clean on a two-device fabric under every
/// configuration: half the observation lines home on the remote device,
/// so acquire/release round trips cross the inter-device link — with
/// full invariant checking and the race detector armed.
#[test]
fn litmus_battery_is_clean_on_two_devices() {
    let topology = Topology::fabric(MeshConfig::default(), 2, Default::default());
    for shape in litmus::battery() {
        for p in ProtocolConfig::ALL {
            Simulator::new(full_on(topology, p))
                .run(&(shape.build)())
                .unwrap_or_else(|e| panic!("{} under {p} on 2 devices: {e}", shape.name));
        }
    }
}

/// Profiling reconciles on a multi-device run: every one of the 30 CU
/// rows' buckets must sum to the run's cycles, and the row sums plus
/// residual must match the global counters.
#[test]
fn profile_reconciles_on_a_two_device_run() {
    for bench in ["XDEV_S", "XPC"] {
        let b = registry::by_name(bench).unwrap();
        let cfg = SystemConfig::fabric(ProtocolConfig::Dd, 2, 40);
        let observe = ObserveSpec {
            prof: true,
            ..ObserveSpec::default()
        };
        let (stats, reports) = Simulator::new(cfg)
            .run_observed(&(b.build)(Scale::Tiny), &observe)
            .unwrap_or_else(|e| panic!("{bench}: {e}"));
        reports
            .profile
            .expect("profiling enabled")
            .reconcile(stats.cycles, &stats.counts)
            .unwrap_or_else(|e| panic!("{bench}: profile does not reconcile: {e}"));
    }
}

/// Each CU row carries its own node's L1 counters on a multi-device
/// fabric, whose device-1 rows skip device 0's non-CU node. XPC runs
/// its producer on CU 0 and pins its consumer to CU 15, the first CU of
/// the second device: a row that ran nothing made no L1 access, and the
/// consumer's row shows the atomics it spun on.
#[test]
fn profile_rows_carry_their_own_nodes_l1_on_two_devices() {
    let b = registry::by_name("XPC").unwrap();
    let observe = ObserveSpec {
        prof: true,
        ..ObserveSpec::default()
    };
    let (_, reports) = Simulator::new(SystemConfig::fabric(ProtocolConfig::Dd, 2, 40))
        .run_observed(&(b.build)(Scale::Tiny), &observe)
        .expect("XPC runs on two devices");
    let rows = reports.profile.expect("profiling enabled").cus;
    assert_eq!(rows.len(), 30);
    for (row, cu) in rows.iter().enumerate() {
        if cu.counts.instructions == 0 {
            assert_eq!(
                cu.counts.l1_accesses, 0,
                "row {row} ran nothing but shows L1 accesses"
            );
        }
    }
    assert!(rows[15].counts.instructions > 0);
    assert!(
        rows[15].counts.l1_atomics > 0,
        "the consumer's row lacks its atomics"
    );
}

/// Flow observation reconciles on the multi-device link set: per-link
/// flit sums (mesh links *and* the inter-device links) must match the
/// aggregate traffic breakdown class for class, and the inter-device
/// link must actually carry traffic.
#[test]
fn flow_reconciles_on_a_two_device_run() {
    for bench in ["XDEV_S", "XPC"] {
        let b = registry::by_name(bench).unwrap();
        let cfg = SystemConfig::fabric(ProtocolConfig::Dd, 2, 40);
        let observe = ObserveSpec {
            flow: Some(FlowSpec::default()),
            ..ObserveSpec::default()
        };
        let (stats, reports) = Simulator::new(cfg)
            .run_observed(&(b.build)(Scale::Tiny), &observe)
            .unwrap_or_else(|e| panic!("{bench}: {e}"));
        let report = reports.flow.expect("flow enabled");
        report
            .reconcile(&stats.traffic)
            .unwrap_or_else(|e| panic!("{bench}: flow does not reconcile: {e}"));
        let topology = cfg.topology;
        let crossed: u64 = report
            .links
            .iter()
            .filter(|l| topology.is_xlink(NodeId(l.from), NodeId(l.to)))
            .map(|l| l.flits.iter().sum::<u64>())
            .sum();
        assert!(crossed > 0, "{bench}: no flits crossed the xlink");
    }
}

/// A two-device harness sweep is byte-deterministic across worker
/// counts, and shows the device- vs system-scope gap in its
/// emitted rows.
#[test]
fn fabric_sweep_bytes_are_stable_and_show_the_gap() {
    let fabric = FabricSpec::new(2, 40);
    let cells: Vec<harness::Cell> =
        harness::matrix_of(&["XDEV_D", "XDEV_S"], &ProtocolConfig::ALL, Scale::Tiny)
            .into_iter()
            .map(|c| c.on_fabric(fabric))
            .collect();
    let one = harness::run_cells(&cells, 1, None).unwrap();
    let many = harness::run_cells(&cells, 4, None).unwrap();
    assert_eq!(harness::to_csv(&one), harness::to_csv(&many));
    assert_eq!(harness::to_json(&one), harness::to_json(&many));
    for p in 0..ProtocolConfig::ALL.len() {
        let (d, s) = (&one[p], &one[ProtocolConfig::ALL.len() + p]);
        assert!(
            s.stats.cycles > d.stats.cycles,
            "{}: XDEV_S ({}) must out-cycle XDEV_D ({})",
            s.cell.config,
            s.stats.cycles,
            d.stats.cycles
        );
    }
}
