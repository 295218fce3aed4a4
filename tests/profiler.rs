//! Integration tests of the profiler against the real simulator.
//!
//! Three properties are load-bearing:
//!
//! 1. **Exactness** — per-CU stall buckets sum to exactly the run's
//!    cycle count, and per-CU counter rows plus the residual reproduce
//!    the global `Counts` field-for-field, on every litmus shape and a
//!    spread of Table 4 benchmarks under all five configurations.
//! 2. **Zero perturbation** — a profiled run's `SimStats` are equal to
//!    an unprofiled run's, so the committed performance numbers never
//!    depend on whether someone was watching.
//! 3. **The paper's §5 narrative** — on a locally synchronized
//!    microbenchmark, DeNovo (DD) burns strictly fewer cycles spinning
//!    on global acquires than the GPU baseline (GD), which is *why* it
//!    wins there.

use gpu_denovo::workloads::litmus;
use gpu_denovo::{
    registry, ObserveSpec, ProfileReport, ProtocolConfig, Scale, SimStats, Simulator, StallKind,
    SystemConfig, Workload,
};

fn profiled_with(p: ProtocolConfig, w: &Workload, interval: u64) -> (SimStats, ProfileReport) {
    let observe = ObserveSpec {
        interval,
        prof: true,
        ..ObserveSpec::default()
    };
    let (stats, reports) = Simulator::new(SystemConfig::micro15(p))
        .run_observed(w, &observe)
        .expect("run succeeds");
    (stats, reports.profile.expect("profiling enabled"))
}

fn profiled(p: ProtocolConfig, w: &Workload) -> (SimStats, ProfileReport) {
    profiled_with(p, w, ObserveSpec::default().interval)
}

/// Tiny-scale benchmarks spanning all three Table 4 groups.
const BENCHES: [&str; 6] = ["BP", "NN", "SPM_G", "SPM_L", "TB_LG", "UTS"];

#[test]
fn litmus_shapes_reconcile_under_every_config() {
    for shape in litmus::battery() {
        let w = (shape.build)();
        for p in ProtocolConfig::ALL {
            let (stats, profile) = profiled(p, &w);
            profile
                .reconcile(stats.cycles, &stats.counts)
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
            let (stats, profile) = profiled(p, &w);
            profile
                .reconcile(stats.cycles, &stats.counts)
                .unwrap_or_else(|e| panic!("{name} under {p}: {e}"));
            // The attribution is not vacuous: instructions were charged
            // and every CU row sums to the run's cycles.
            assert!(profile.bucket(StallKind::Issue) > 0, "{name} under {p}");
            for row in &profile.cus {
                assert_eq!(row.attributed(), stats.cycles, "{name} under {p}");
            }
        }
    }
}

#[test]
fn profiling_never_perturbs_stats() {
    for name in ["SPM_L", "UTS"] {
        let b = registry::by_name(name).unwrap();
        let w = (b.build)(Scale::Tiny);
        for p in ProtocolConfig::ALL {
            let plain = Simulator::new(SystemConfig::micro15(p))
                .run(&w)
                .expect("run succeeds");
            let (stats, _) = profiled(p, &w);
            assert_eq!(plain, stats, "{name} under {p}: profiling changed the run");
        }
    }
}

#[test]
fn dd_spins_less_on_global_acquires_than_gd_on_local_sync() {
    let b = registry::by_name("SPM_L").unwrap();
    let w = (b.build)(Scale::Tiny);
    let (_, gd) = profiled(ProtocolConfig::Gd, &w);
    let (_, dd) = profiled(ProtocolConfig::Dd, &w);
    let gd_spin = gd.bucket(StallKind::GlobalSpin);
    let dd_spin = dd.bucket(StallKind::GlobalSpin);
    assert!(
        dd_spin < gd_spin,
        "expected DD to spin strictly less than GD on SPM_L: DD {dd_spin}, GD {gd_spin}"
    );
    // Scoped configs retire the same acquires locally instead.
    let (_, dh) = profiled(ProtocolConfig::Dh, &w);
    assert_eq!(dh.bucket(StallKind::GlobalSpin), 0);
    assert!(dh.bucket(StallKind::LocalSpin) > 0);
}

#[test]
fn interval_samples_land_on_boundaries_and_regions_annotate() {
    let b = registry::by_name("SPM_L").unwrap();
    let w = (b.build)(Scale::Tiny);
    let (stats, mut profile) = profiled_with(ProtocolConfig::Dd, &w, 256);
    assert!(!profile.samples.is_empty());
    for s in &profile.samples {
        assert_eq!(s.cycle % 256, 0, "samples land on interval boundaries");
        assert!(s.cycle <= stats.cycles + 256);
    }
    assert!(
        profile
            .samples
            .windows(2)
            .all(|w| w[0].cycle < w[1].cycle && w[0].instructions <= w[1].instructions),
        "cumulative columns are monotone"
    );
    let regions = (b.regions.expect("mutexes declare regions"))(Scale::Tiny);
    profile.annotate(&regions);
    assert!(
        profile
            .hot_lines
            .iter()
            .any(|h| h.region.as_deref().is_some_and(|r| r.starts_with("lock["))),
        "a lock line is among the hot lines"
    );
}
