//! Integration tests of the flow layer against the real simulator.
//!
//! Three properties are load-bearing:
//!
//! 1. **Reconciliation** — per-link flit sums reproduce the aggregate
//!    `TrafficBreakdown` class-for-class, on every litmus shape and a
//!    spread of Table 4 benchmarks under all five configurations. The
//!    link attribution and the aggregate counter are maintained by
//!    independent code paths, so agreement is evidence both are right.
//! 2. **Zero perturbation** — a flow-observed run's `SimStats` are
//!    byte-identical (as serialized JSON) to an unobserved run's, so the
//!    committed numbers never depend on whether someone was watching.
//! 3. **Determinism** — journeys are sampled by dense request id, so
//!    two observed runs of the same cell produce identical reports.

use gpu_denovo::flow::{JourneyKind, STAGE_LABELS};
use gpu_denovo::types::Cycle;
use gpu_denovo::workloads::litmus;
use gpu_denovo::{
    registry, FlowReport, FlowSpec, ObserveSpec, ProtocolConfig, Scale, SimStats, Simulator,
    SystemConfig, Workload,
};

fn flowed_with(p: ProtocolConfig, w: &Workload, observe: &ObserveSpec) -> (SimStats, FlowReport) {
    let (stats, reports) = Simulator::new(SystemConfig::micro15(p))
        .run_observed(w, observe)
        .expect("run succeeds");
    (stats, reports.flow.expect("flow collection enabled"))
}

fn flowed(p: ProtocolConfig, w: &Workload) -> (SimStats, FlowReport) {
    flowed_with(
        p,
        w,
        &ObserveSpec {
            flow: Some(FlowSpec::default()),
            ..ObserveSpec::default()
        },
    )
}

/// Tiny-scale benchmarks spanning all three Table 4 groups.
const BENCHES: [&str; 4] = ["BP", "SPM_G", "SPM_L", "UTS"];

#[test]
fn litmus_shapes_reconcile_under_every_config() {
    for shape in litmus::battery() {
        let w = (shape.build)();
        for p in ProtocolConfig::ALL {
            let (stats, report) = flowed(p, &w);
            report
                .reconcile(&stats.traffic)
                .unwrap_or_else(|e| panic!("{} under {p}: {e}", shape.name));
        }
    }
}

#[test]
fn benchmarks_reconcile_under_every_config() {
    for name in BENCHES {
        let b = registry::by_name(name).unwrap();
        let w = (b.build)(Scale::Tiny);
        for p in ProtocolConfig::ALL {
            let (stats, report) = flowed(p, &w);
            report
                .reconcile(&stats.traffic)
                .unwrap_or_else(|e| panic!("{name} under {p}: {e}"));
            // The attribution is not vacuous: flits crossed links, and
            // the L2 banks saw every request-side delivery.
            assert!(report.total_flits() > 0, "{name} under {p}");
            assert!(report.bank_msgs.iter().sum::<u64>() > 0, "{name} under {p}");
        }
    }
}

#[test]
fn flow_observation_never_perturbs_stats() {
    for name in ["SPM_L", "UTS"] {
        let b = registry::by_name(name).unwrap();
        let w = (b.build)(Scale::Tiny);
        for p in ProtocolConfig::ALL {
            let plain = Simulator::new(SystemConfig::micro15(p))
                .run(&w)
                .expect("run succeeds");
            let (stats, _) = flowed(p, &w);
            assert_eq!(
                plain.to_json_value().to_string(),
                stats.to_json_value().to_string(),
                "{name} under {p}: flow observation changed the serialized stats"
            );
            assert_eq!(plain, stats, "{name} under {p}");
        }
    }
}

#[test]
fn reports_are_deterministic_across_runs() {
    let b = registry::by_name("SPM_G").unwrap();
    let w = (b.build)(Scale::Tiny);
    for p in [ProtocolConfig::Gd, ProtocolConfig::Dd] {
        let (_, first) = flowed(p, &w);
        let (_, second) = flowed(p, &w);
        assert_eq!(first, second, "{p}: flow reports differ between runs");
        assert_eq!(
            first.to_json(),
            second.to_json(),
            "{p}: serialized reports differ"
        );
    }
}

#[test]
fn journeys_decompose_latency_exactly() {
    let b = registry::by_name("SPM_G").unwrap();
    let w = (b.build)(Scale::Tiny);
    let observe = ObserveSpec {
        flow: Some(FlowSpec {
            journey_period: 1, // follow every request
        }),
        ..ObserveSpec::default()
    };
    for p in ProtocolConfig::ALL {
        let (_, report) = flowed_with(p, &w, &observe);
        assert!(!report.journeys.is_empty(), "{p}: no journeys sampled");
        assert!(
            report
                .journeys
                .iter()
                .any(|j| j.kind == JourneyKind::Atomic),
            "{p}: a sync-heavy benchmark must sample atomic journeys"
        );
        for j in &report.journeys {
            let stages = j.stages();
            assert_eq!(stages.len(), STAGE_LABELS.len());
            assert_eq!(
                stages.iter().sum::<Cycle>(),
                j.latency(),
                "{p}: journey {} stages must sum exactly to its latency",
                j.req
            );
            assert!(
                j.end >= j.start,
                "{p}: journey {} ends before it starts",
                j.req
            );
        }
        // Journeys that crossed the mesh carry per-hop spans.
        assert!(
            report.journeys.iter().any(|j| !j.hops.is_empty()),
            "{p}: every journey hopless"
        );
    }
}

#[test]
fn samples_land_on_interval_boundaries() {
    let b = registry::by_name("SPM_L").unwrap();
    let w = (b.build)(Scale::Tiny);
    let observe = ObserveSpec {
        interval: 256,
        flow: Some(FlowSpec::default()),
        ..ObserveSpec::default()
    };
    let (stats, report) = flowed_with(ProtocolConfig::Dd, &w, &observe);
    assert!(!report.samples.is_empty());
    for s in &report.samples {
        assert_eq!(s.cycle % 256, 0, "samples land on interval boundaries");
        assert!(s.cycle <= stats.cycles + 256);
    }
    assert!(
        report.samples.windows(2).all(|w| w[0].cycle < w[1].cycle
            && w[0].flits <= w[1].flits
            && w[0].queue_cycles <= w[1].queue_cycles
            && w[0].l2_msgs <= w[1].l2_msgs),
        "cumulative columns are monotone"
    );
}

#[test]
fn denovo_trades_writethrough_traffic_for_registration_traffic() {
    // The paper's §5.2 traffic story on a globally synchronized
    // microbenchmark: the GPU protocols writethrough every dirty word
    // (WB/WT traffic, no registrations); DeNovo registers ownership
    // instead (registration traffic, no writethroughs) and moves fewer
    // flits overall.
    use gpu_denovo::types::MsgClass;
    let b = registry::by_name("SPM_G").unwrap();
    let w = (b.build)(Scale::Tiny);
    let (gd, _) = flowed(ProtocolConfig::Gd, &w);
    let (dd, _) = flowed(ProtocolConfig::Dd, &w);
    assert!(gd.traffic.class(MsgClass::WbWt) > 0);
    assert_eq!(gd.traffic.class(MsgClass::Registration), 0);
    assert!(dd.traffic.class(MsgClass::Registration) > 0);
    assert_eq!(dd.traffic.class(MsgClass::WbWt), 0);
    assert!(
        dd.traffic.total() < gd.traffic.total(),
        "DD must move fewer flits than GD on SPM_G: DD {}, GD {}",
        dd.traffic.total(),
        gd.traffic.total()
    );
}
