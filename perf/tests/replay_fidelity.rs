//! The traced pass observes without perturbing, and each layer replay
//! reproduces what the run did: on the contended single-mesh spin mutex
//! and on the cross-device mutex of a two-device fabric.

use gsim_core::{Simulator, SystemConfig};
use gsim_harness::FabricSpec;
use gsim_perf::bench::{run_workload, Options, Passes};
use gsim_perf::cells::{parse_golden, WorkloadKind};
use gsim_perf::metrics::{END_TO_END, PER_LAYER};
use gsim_perf::replay::{replay_msg, replay_mshr, replay_noc, Recording, RecordingSink};
use gsim_perf::report::table;
use gsim_perf::spans::Spans;
use gsim_trace::TraceHandle;
use gsim_types::{ProtocolConfig, Rng64, SimStats};
use gsim_workloads::{registry, Scale};
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

fn traced(bench: &str, config: SystemConfig) -> (SimStats, SimStats, Recording) {
    let w = (registry::by_name(bench).expect("registered").build)(Scale::Tiny);
    let plain = Simulator::new(config).run(&w).expect("plain run");
    let shared = Rc::new(RefCell::new(Recording::default()));
    let trace = TraceHandle::with_sink(Box::new(RecordingSink(shared.clone())));
    let stats = Simulator::new(config)
        .run_traced(&w, trace)
        .expect("traced run");
    (plain, stats, shared.take())
}

fn cases() -> Vec<(&'static str, SystemConfig)> {
    vec![
        ("SPM_G", SystemConfig::micro15(ProtocolConfig::Gd)),
        ("XDEV_S", FabricSpec::new(2, 40).system(ProtocolConfig::Dd)),
    ]
}

#[test]
fn traced_runs_reproduce_the_plain_stats() {
    for (bench, config) in cases() {
        let (plain, stats, rec) = traced(bench, config);
        assert_eq!(stats, plain, "{bench}");
        assert!(rec.events() > 0 && !rec.truncated, "{bench}");
        assert_eq!(
            rec.sends.len() as u64,
            plain.counts.messages_sent,
            "{bench}"
        );
    }
}

#[test]
fn noc_replay_reproduces_the_traffic_exactly() {
    for (bench, config) in cases() {
        let (_, stats, rec) = traced(bench, config);
        let replay = replay_noc(&rec.sends, config.topology).expect("every send replays");
        assert_eq!(replay.traffic, stats.traffic, "{bench}");
        assert!(stats.traffic.total() > 0, "{bench} crosses links");
    }
}

#[test]
fn mshr_replay_stays_within_capacity_and_drains() {
    for (bench, config) in cases() {
        let (_, _, rec) = traced(bench, config);
        assert!(rec.mshr.iter().any(|op| op.alloc), "{bench} misses");
        let replay = replay_mshr(&rec.mshr, config.mshr_entries).expect("never overflows");
        assert!(replay.high_water <= config.mshr_entries, "{bench}");
        assert_eq!(replay.outstanding, 0, "{bench}");
    }
}

#[test]
fn replay_messages_round_trip_every_traced_size() {
    for (bench, config) in cases() {
        let (_, _, rec) = traced(bench, config);
        let pairs: BTreeSet<(usize, u32)> = rec
            .sends
            .iter()
            .map(|s| (s.class.index(), s.flits))
            .collect();
        assert!(pairs.len() > 1, "{bench}");
        for s in &rec.sends {
            let m = replay_msg(s.src, s.dst, s.class, s.flits)
                .unwrap_or_else(|| panic!("{bench}: no message for {:?} x {}", s.class, s.flits));
            assert_eq!(
                (m.src, m.dst, m.class(), m.flits()),
                (s.src, s.dst, s.class, s.flits)
            );
        }
    }
}

#[test]
fn one_pass_smoke_run_reports_every_metric() {
    let kind = WorkloadKind::TinyMatrix;
    let mut cells = kind.cells(&mut Rng64::seed_from_u64(1));
    cells.truncate(10);
    let golden_file = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/tiny_matrix.csv");
    let golden = parse_golden(&std::fs::read_to_string(golden_file).expect("golden file"))
        .expect("golden parses");
    let opts = Options {
        passes: Passes::Count(1),
        traced: true,
    };
    let report = run_workload(kind, &cells, &golden, &opts, &mut Spans::default());
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    assert_eq!(report.passes, 1);
    // Warm-up, one timed pass and the traced pass, ten cells each.
    assert_eq!(report.attempted, 30);
    let printed = table(&[report]);
    for m in END_TO_END.iter().chain(PER_LAYER) {
        assert!(
            printed.contains(&format!("| {} | {} |", m.name, m.unit)),
            "{} missing from\n{printed}",
            m.name
        );
    }
}
