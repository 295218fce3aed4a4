//! Golden-file test of the Chrome trace exporter.
//!
//! A fixed event sequence covering every [`TraceEvent`] variant is
//! rendered and compared byte-for-byte against a checked-in reference.
//! Any change to the export format — field order, escaping, metadata,
//! the `otherData` footer — shows up as a readable diff here instead of
//! as a silently broken Perfetto import.
//!
//! To regenerate after an intentional format change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p gsim-trace --test golden
//! ```

use gsim_trace::{chrome_json, CounterTrack, FlushReason, Level, RunShape, TraceEvent, WState};
use gsim_types::{Cycle, LineAddr, MsgClass, NodeId, Scope, SyncOrd, TbId, WordAddr};

/// One event of every variant, with balanced begin/end pairs, spread
/// over a handful of nodes and cycles.
fn fixture() -> Vec<(Cycle, TraceEvent)> {
    vec![
        (0, TraceEvent::KernelBegin { index: 0, tbs: 2 }),
        (
            0,
            TraceEvent::TbLaunch {
                tb: TbId(0),
                cu: NodeId(0),
            },
        ),
        (
            1,
            TraceEvent::TbLaunch {
                tb: TbId(1),
                cu: NodeId(5),
            },
        ),
        (
            3,
            TraceEvent::MshrAlloc {
                node: NodeId(0),
                line: LineAddr(16),
                outstanding: 1,
            },
        ),
        (
            3,
            TraceEvent::MsgSend {
                src: NodeId(0),
                dst: NodeId(12),
                class: MsgClass::Read,
                flits: 1,
                hops: 4,
                arrival: 9,
            },
        ),
        (
            9,
            TraceEvent::MsgDeliver {
                src: NodeId(0),
                dst: NodeId(12),
                class: MsgClass::Read,
            },
        ),
        (
            14,
            TraceEvent::StateChange {
                node: NodeId(0),
                level: Level::L1,
                line: LineAddr(16),
                words: 8,
                from: WState::Invalid,
                to: WState::Valid,
            },
        ),
        (
            14,
            TraceEvent::MshrRetire {
                node: NodeId(0),
                line: LineAddr(16),
                waiters: 1,
            },
        ),
        (
            20,
            TraceEvent::AtomicIssue {
                tb: TbId(1),
                cu: NodeId(5),
                word: WordAddr(5),
                ord: SyncOrd::AcqRel,
                scope: Scope::Global,
            },
        ),
        (
            20,
            TraceEvent::SyncRelease {
                node: NodeId(5),
                scope: Scope::Global,
            },
        ),
        (
            20,
            TraceEvent::SbFlushBegin {
                node: NodeId(5),
                reason: FlushReason::Release,
                pending: 3,
            },
        ),
        (26, TraceEvent::SbFlushEnd { node: NodeId(5) }),
        (
            27,
            TraceEvent::SyncAcquire {
                node: NodeId(5),
                scope: Scope::Global,
                invalidated: 12,
                flash: false,
            },
        ),
        (
            30,
            TraceEvent::Eviction {
                node: NodeId(0),
                level: Level::L1,
                line: LineAddr(16),
                owned_words: 2,
            },
        ),
        (
            31,
            TraceEvent::Eviction {
                node: NodeId(15),
                level: Level::L2,
                line: LineAddr(99),
                owned_words: 0,
            },
        ),
        (
            40,
            TraceEvent::TbRetire {
                tb: TbId(0),
                cu: NodeId(0),
            },
        ),
        (
            41,
            TraceEvent::TbRetire {
                tb: TbId(1),
                cu: NodeId(5),
            },
        ),
        (45, TraceEvent::KernelEnd { index: 0 }),
    ]
}

#[test]
fn chrome_export_matches_golden() {
    let json = chrome_json(&RunShape::new(16, 16, 15, 26), &fixture(), 3, &[], &[]);
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/chrome_small.json"
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &json).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(path).expect("golden file exists");
    assert_eq!(
        json, golden,
        "Chrome export changed; rerun with UPDATE_GOLDEN=1 if intentional"
    );
}

/// Two counter tracks mimicking the profiler's interval export.
fn counter_fixture() -> Vec<CounterTrack> {
    vec![
        CounterTrack {
            name: "ipc".into(),
            points: vec![(0, 0.0), (16, 1.5), (32, 0.75)],
        },
        CounterTrack {
            name: "l1-hit-rate".into(),
            points: vec![(16, 0.875), (32, 0.9375)],
        },
    ]
}

#[test]
fn chrome_counter_export_matches_golden() {
    let json = chrome_json(
        &RunShape::new(16, 16, 15, 26),
        &fixture(),
        3,
        &counter_fixture(),
        &[],
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/chrome_counters.json"
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &json).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(path).expect("golden file exists");
    assert_eq!(
        json, golden,
        "Chrome counter export changed; rerun with UPDATE_GOLDEN=1 if intentional"
    );
}

#[test]
fn counter_tracks_are_well_formed() {
    let json = chrome_json(
        &RunShape::new(16, 16, 15, 26),
        &fixture(),
        3,
        &counter_fixture(),
        &[],
    );
    // Every sample becomes one ph:"C" event.
    assert_eq!(json.matches("\"ph\":\"C\"").count(), 5);
    // The counters process and each track are named exactly once.
    assert_eq!(json.matches("\"name\":\"counters\"").count(), 1);
    assert_eq!(
        json.matches(
            "\"name\":\"process_name\",\"cat\":\"__metadata\",\"ph\":\"M\",\"ts\":0,\"pid\":3"
        )
        .count(),
        1
    );
    assert_eq!(
        json.matches(
            "\"name\":\"thread_name\",\"cat\":\"__metadata\",\"ph\":\"M\",\"ts\":0,\"pid\":3"
        )
        .count(),
        2
    );
    // Counter values travel in args.value.
    assert!(json.contains("\"args\":{\"value\":1.5}"));
    assert!(json.contains("\"args\":{\"value\":0.9375}"));
}

#[test]
fn golden_fixture_covers_every_category() {
    let cats: std::collections::BTreeSet<&str> = fixture()
        .iter()
        .map(|(_, ev)| ev.category().label())
        .collect();
    assert_eq!(
        cats.into_iter().collect::<Vec<_>>(),
        ["cache", "kernel", "mshr", "noc", "protocol", "sb", "sync", "tb"]
    );
}
