//! End-to-end tracing tests: the simulator's event stream must be a
//! *deterministic function of the workload and configuration* — the
//! whole point of tracing a simulator is reproducing the exact cycle
//! you saw yesterday — and exported traces must carry the full event
//! taxonomy and well-formed JSON.

mod stress;

use gpu_denovo::lens::DEFAULT_TOPK;
use gpu_denovo::trace::{to_chrome_json, Level, RingRecorder, TraceEvent, TraceHandle};
use gpu_denovo::types::Counts;
use gpu_denovo::{
    registry, LensCollector, ProtocolConfig, Scale, Simulator, SystemConfig, Workload,
};
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

fn traced_run(name: &str, p: ProtocolConfig) -> (u64, String) {
    let b = registry::by_name(name).expect("known benchmark");
    let cfg = SystemConfig::micro15(p);
    let handle = TraceHandle::new(RingRecorder::new(1 << 20));
    let stats = Simulator::new(cfg)
        .run_traced(&(b.build)(Scale::Tiny), handle.clone())
        .expect("verified run");
    let json = to_chrome_json(&cfg.run_shape(), &handle.recorder().unwrap().borrow());
    (stats.cycles, json)
}

/// Two traced runs of the same workload produce byte-identical traces.
#[test]
fn traced_runs_are_deterministic() {
    for p in [ProtocolConfig::Dd, ProtocolConfig::Gd] {
        let (cycles_a, json_a) = traced_run("SPM_G", p);
        let (cycles_b, json_b) = traced_run("SPM_G", p);
        assert_eq!(cycles_a, cycles_b, "cycle counts diverge under {p}");
        assert_eq!(json_a, json_b, "trace bytes diverge under {p}");
    }
}

/// A global-sync benchmark exercises at least six event categories
/// (the paper's breakdown needs sync, protocol, sb, mshr, noc, and the
/// tb/kernel lifecycle to attribute cycles).
#[test]
fn exported_trace_covers_the_taxonomy() {
    let b = registry::by_name("SPM_G").expect("known benchmark");
    let handle = TraceHandle::new(RingRecorder::new(1 << 20));
    Simulator::new(SystemConfig::micro15(ProtocolConfig::Dd))
        .run_traced(&(b.build)(Scale::Tiny), handle.clone())
        .expect("verified run");
    let rec = handle.recorder().unwrap().borrow();
    let cats: BTreeSet<&str> = rec.events().map(|(_, ev)| ev.category().label()).collect();
    assert!(
        cats.len() >= 6,
        "expected >= 6 distinct categories, got {cats:?}"
    );
    for want in ["tb", "kernel", "sync", "protocol", "mshr", "noc"] {
        assert!(cats.contains(want), "missing category {want:?} in {cats:?}");
    }
}

/// The exported JSON is structurally sound: one object, balanced
/// duration begin/end markers, and the drop accounting footer.
#[test]
fn exported_json_is_well_formed() {
    let (_, json) = traced_run("SPM_G", ProtocolConfig::Dd);
    assert!(json.starts_with("{\"traceEvents\":[\n"));
    assert!(json.ends_with('}'));
    let begins = json.matches("\"ph\":\"B\"").count();
    let ends = json.matches("\"ph\":\"E\"").count();
    assert_eq!(begins, ends, "unbalanced duration events");
    assert!(begins > 0, "no duration slices at all");
    assert!(json.contains("\"otherData\":{\"recorded\":"));
    // Each line of the event array is one JSON object.
    for line in json.lines().skip(1) {
        let line = line.trim_end_matches(',');
        if line.starts_with('{') {
            assert!(line.ends_with('}'), "truncated event line: {line}");
        }
    }
}

/// An untraced run and a traced run agree on every statistic — the
/// instrumentation observes, it must not perturb.
#[test]
fn tracing_does_not_perturb_the_simulation() {
    let b = registry::by_name("UTS").expect("known benchmark");
    let plain = Simulator::new(SystemConfig::micro15(ProtocolConfig::Dh))
        .run(&(b.build)(Scale::Tiny))
        .expect("verified run");
    let handle = TraceHandle::new(RingRecorder::new(1 << 16));
    let traced = Simulator::new(SystemConfig::micro15(ProtocolConfig::Dh))
        .run_traced(&(b.build)(Scale::Tiny), handle)
        .expect("verified run");
    assert_eq!(plain.cycles, traced.cycles);
    assert_eq!(plain.counts, traced.counts);
    assert_eq!(plain.traffic, traced.traffic);
    assert_eq!(plain.latency, traced.latency);
}

/// Runs `w` with a recorder that drops nothing, and a lens beside it,
/// and checks the recorded stream against the run's `Counts`: every
/// send is delivered, each acquire carries its sweep, each atomic is
/// issued once, and the L1 evictions carry every ownership writeback.
/// The L2 state changes carry exactly the registrations granted at
/// once, the words the lens counts apart from owner-to-owner transfers.
/// An event that goes missing or is recorded twice breaks one of these
/// sums.
fn reconcile_stream(cfg: SystemConfig, w: &Workload, cell: &str) -> Counts {
    let lens = Rc::new(RefCell::new(LensCollector::new(
        &cfg.run_shape(),
        DEFAULT_TOPK,
    )));
    let handle = TraceHandle::new(RingRecorder::new(1 << 22)).with_consumers([lens.clone() as _]);
    let stats = Simulator::new(cfg)
        .run_traced(w, handle.clone())
        .unwrap_or_else(|e| panic!("{cell}: {e}"));
    let rec = handle.recorder().unwrap().borrow();
    assert_eq!(rec.dropped(), 0, "{cell}: the recorder dropped events");
    let (mut sends, mut delivers, mut flashes, mut invalidated, mut atomics, mut wb) =
        (0, 0, 0, 0, 0, 0);
    let mut l2_invalidated = 0;
    for (_, ev) in rec.events() {
        match *ev {
            TraceEvent::MsgSend { .. } => sends += 1,
            TraceEvent::MsgDeliver { .. } => delivers += 1,
            TraceEvent::SyncAcquire {
                invalidated: words,
                flash,
                ..
            } => {
                flashes += u64::from(flash);
                invalidated += words;
            }
            TraceEvent::AtomicIssue { .. } => atomics += 1,
            TraceEvent::Eviction {
                level: Level::L1,
                owned_words,
                ..
            } => wb += u64::from(owned_words),
            TraceEvent::StateChange {
                level: Level::L2,
                words,
                ..
            } => l2_invalidated += u64::from(words),
            _ => {}
        }
    }
    let c = stats.counts;
    assert_eq!(sends, c.messages_sent, "{cell}: msg-send events");
    assert_eq!(delivers, c.messages_sent, "{cell}: msg-deliver events");
    assert_eq!(flashes, c.flash_invalidations, "{cell}: flash acquires");
    assert_eq!(invalidated, c.words_invalidated, "{cell}: acquire words");
    assert_eq!(atomics, c.l1_atomics + c.l2_atomics, "{cell}: atomics");
    assert_eq!(wb, c.ownership_writebacks, "{cell}: L1 eviction words");
    let lens = lens.borrow_mut().take_report();
    assert_eq!(
        l2_invalidated, lens.l2_reg_words,
        "{cell}: L2 state changes"
    );
    assert_eq!(
        lens.l2_reg_words,
        c.registrations - lens.l2_transfer_words,
        "{cell}: registrations granted at once"
    );
    c
}

/// The recorded event stream reconciles with `Counts` on six Table 4
/// benchmarks under every configuration.
#[test]
fn recorded_stream_reconciles_with_counts() {
    for name in ["SPM_G", "SPM_L", "UTS", "LUD", "TB_LG", "SS_L"] {
        let b = registry::by_name(name).expect("known benchmark");
        for p in ProtocolConfig::ALL {
            let c = reconcile_stream(
                SystemConfig::micro15(p),
                &(b.build)(Scale::Tiny),
                &format!("{name}/{p}"),
            );
            assert!(
                c.messages_sent > 0,
                "{name}/{p}: an idle run proves nothing"
            );
        }
    }
}

/// The L1 eviction identity on a run where it is not zero: streaming
/// stores through a 4-line L1 evict owned lines under every DeNovo
/// configuration.
#[test]
fn recorded_evictions_reconcile_with_ownership_writebacks() {
    for p in ProtocolConfig::ALL {
        let c = reconcile_stream(
            stress::tiny_cfg(p, 2),
            &stress::streaming_ownership(),
            &format!("stream/{p}"),
        );
        let denovo = p.coherence() == gpu_denovo::types::Coherence::DeNovo;
        assert_eq!(c.ownership_writebacks > 0, denovo, "stream/{p}");
    }
}
