//! Integration tests of the lens layer against the real simulator.
//!
//! Three properties are load-bearing:
//!
//! 1. **Reconciliation** — the acquire cost ledger reproduces the
//!    protocol's own invalidation and ownership counters **exactly**,
//!    on every litmus shape and a spread of Table 4 benchmarks under
//!    all five configurations. The lens hooks and the `Counts` bumps
//!    sit on independent paths, so agreement is evidence the hooks
//!    fire once per event, never zero, never twice.
//! 2. **Zero perturbation** — a lens-observed run's `SimStats` are
//!    byte-identical (as serialized JSON) to an unobserved run's, so
//!    the committed numbers never depend on whether someone was
//!    watching.
//! 3. **Determinism** — the per-line table ranks with a deterministic
//!    tie-break and the event stream follows simulation order, so two
//!    observed runs of the same cell produce identical reports.

use gpu_denovo::lens::DEFAULT_TOPK;
use gpu_denovo::trace::TraceHandle;
use gpu_denovo::workloads::litmus;
use gpu_denovo::{
    registry, LensCollector, LensReport, ProtocolConfig, Scale, SimStats, Simulator, SystemConfig,
    Workload,
};
use std::cell::RefCell;
use std::rc::Rc;

fn lensed_with(p: ProtocolConfig, w: &Workload, topk: usize) -> (SimStats, LensReport) {
    let cfg = SystemConfig::micro15(p);
    let lens = Rc::new(RefCell::new(LensCollector::new(&cfg.run_shape(), topk)));
    let handle = TraceHandle::disabled().with_consumers([lens.clone() as _]);
    let stats = Simulator::new(cfg)
        .run_traced(w, handle)
        .expect("run succeeds");
    let report = lens.borrow_mut().take_report();
    (stats, report)
}

fn lensed(p: ProtocolConfig, w: &Workload) -> (SimStats, LensReport) {
    lensed_with(p, w, DEFAULT_TOPK)
}

/// Tiny-scale benchmarks spanning all three Table 4 groups.
const BENCHES: [&str; 4] = ["BP", "SPM_G", "SPM_L", "UTS"];

#[test]
fn litmus_shapes_reconcile_under_every_config() {
    for shape in litmus::battery() {
        let w = (shape.build)();
        for p in ProtocolConfig::ALL {
            let (stats, report) = lensed(p, &w);
            report
                .reconcile(&stats.counts)
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
            let (stats, report) = lensed(p, &w);
            report
                .reconcile(&stats.counts)
                .unwrap_or_else(|e| panic!("{name} under {p}: {e}"));
            // The ledger is not vacuous: every configuration performs
            // global acquires (kernel launches at minimum), and on the
            // invalidating protocols the drop is visible.
            assert!(report.acquires() > 0, "{name} under {p}: no acquires");
            assert_eq!(
                report.words_dropped(),
                stats.counts.words_invalidated,
                "{name} under {p}"
            );
        }
    }
}

#[test]
fn lens_observation_never_perturbs_stats() {
    for name in ["SPM_L", "UTS"] {
        let b = registry::by_name(name).unwrap();
        let w = (b.build)(Scale::Tiny);
        for p in ProtocolConfig::ALL {
            let plain = Simulator::new(SystemConfig::micro15(p))
                .run(&w)
                .expect("run succeeds");
            let (stats, _) = lensed(p, &w);
            assert_eq!(
                plain.to_json_value().to_string(),
                stats.to_json_value().to_string(),
                "{name} under {p}: lens observation changed the serialized stats"
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
        let (_, first) = lensed(p, &w);
        let (_, second) = lensed(p, &w);
        assert_eq!(first, second, "{p}: lens reports differ between runs");
        assert_eq!(
            first.to_json(),
            second.to_json(),
            "{p}: serialized reports differ"
        );
    }
}

#[test]
fn waste_ledger_is_internally_consistent() {
    for name in BENCHES {
        let b = registry::by_name(name).unwrap();
        let w = (b.build)(Scale::Tiny);
        for p in ProtocolConfig::ALL {
            let (_, r) = lensed(p, &w);
            for l in &r.ledger {
                assert!(
                    l.words_refetched + l.words_overwritten <= l.words_dropped,
                    "{name} under {p} node {}: refetched {} + overwritten {} > dropped {}",
                    l.node,
                    l.words_refetched,
                    l.words_overwritten,
                    l.words_dropped
                );
                assert!(
                    l.flash_acquires <= l.acquires,
                    "{name} under {p} node {}: more flashes than acquires",
                    l.node
                );
                // 4 words per payload flit: the flit bill never exceeds
                // one flit per refetched word and is zero iff no words
                // were refetched.
                assert_eq!(
                    l.refetch_flits == 0,
                    l.words_refetched == 0,
                    "{name} under {p} node {}",
                    l.node
                );
                assert!(l.refetch_flits <= l.words_refetched);
            }
            // Per-line refetch attribution never exceeds the global sum
            // (the table is top-k truncated, so <=, not ==).
            let line_refetch: u64 = r.lines.iter().map(|row| row.refetch_words).sum();
            assert!(line_refetch <= r.words_refetched(), "{name} under {p}");
        }
    }
}

#[test]
fn gpu_coherence_wastes_what_denovo_retains() {
    // The paper's reuse story (§5), observed directly on the benchmark
    // built to show it: SPM_L synchronizes locally, so data in the L1
    // is still valid at every boundary. GD's flash invalidation throws
    // it away and pays to re-fetch it; DD's selective self-invalidation
    // (and DH's) keeps ownership and hits across the sync.
    let b = registry::by_name("SPM_L").unwrap();
    let w = (b.build)(Scale::Tiny);
    let (_, gd) = lensed(ProtocolConfig::Gd, &w);
    let (_, dd) = lensed(ProtocolConfig::Dd, &w);
    let (_, dh) = lensed(ProtocolConfig::Dh, &w);
    assert!(
        gd.words_refetched() > dd.words_refetched(),
        "GD must re-fetch more invalidated words than DD on SPM_L: GD {}, DD {}",
        gd.words_refetched(),
        dd.words_refetched()
    );
    assert_eq!(
        gd.cross_sync_hits(),
        0,
        "flash invalidation leaves nothing to hit across a boundary"
    );
    assert!(gd.flash_acquires() > 0, "GD acquires flash-invalidate");
    assert_eq!(dd.flash_acquires(), 0, "DeNovo never flash-invalidates");
    assert!(
        dd.cross_sync_hits() > 0,
        "DD must retain reuse across sync boundaries on SPM_L"
    );
    assert_eq!(
        dh.words_dropped(),
        0,
        "DH's locally scoped acquires invalidate nothing on SPM_L"
    );
}

#[test]
fn topk_caps_the_line_table_not_the_ledger() {
    let b = registry::by_name("UTS").unwrap();
    let w = (b.build)(Scale::Tiny);
    let (stats, capped) = lensed_with(ProtocolConfig::Gd, &w, 2);
    let (_, full) = lensed(ProtocolConfig::Gd, &w);
    assert!(capped.lines.len() <= 2);
    assert!(full.lines.len() >= capped.lines.len());
    // Truncating the per-line view must not touch the exact ledger.
    capped.reconcile(&stats.counts).expect("capped reconciles");
    assert_eq!(capped.ledger, full.ledger);
    assert_eq!(capped.reuse_hits, full.reuse_hits);
    assert_eq!(capped.reuse_misses, full.reuse_misses);
    // The kept rows are the hottest ones, in rank order.
    for pair in capped.lines.windows(2) {
        assert!(pair[0].activity() >= pair[1].activity());
    }
}

#[test]
fn per_line_rows_annotate_with_the_benchmark_regions() {
    let b = registry::by_name("SPM_L").unwrap();
    let regions = b.regions.expect("SPM_L declares its regions");
    let (stats, mut report) = lensed(ProtocolConfig::Gd, &(b.build)(Scale::Tiny));
    assert!(report.lines.iter().all(|row| row.region.is_none()));
    report.annotate(&regions(Scale::Tiny));
    assert!(
        report.lines.iter().any(|row| row.region.is_some()),
        "per-line rows annotated with the benchmark's regions"
    );
    // Annotation labels rows; it never changes what was counted.
    report
        .reconcile(&stats.counts)
        .expect("annotated report reconciles");
}
