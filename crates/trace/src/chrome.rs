//! Dependency-free Chrome/Perfetto trace-event JSON export.
//!
//! The output is the Trace Event Format's "JSON object" flavour —
//! `{"traceEvents": [...]}` — which loads directly in
//! <https://ui.perfetto.dev> and `chrome://tracing`. The mapping:
//!
//! * **pid 0, "memory-system"** — one track (`tid`) per mesh node,
//!   named `cuN` for a CU node and `cpu` for each device's non-CU node
//!   (the run's [`RunShape`] says which is which). Protocol, cache,
//!   MSHR, sync, and NoC events appear as instant
//!   events on their node's track; store-buffer drains appear as
//!   duration slices.
//! * **pid 1, "thread-blocks"** — one track per thread block; its
//!   residency (launch→retire) is a duration slice, so CU occupancy
//!   reads straight off the timeline.
//! * **pid 2, "kernels"** — one duration slice per kernel launch.
//!
//! Timestamps are simulated GPU cycles written into the `ts`
//! (microsecond) field: 1 µs on screen = 1 cycle, which keeps the
//! numbers readable without a fake clock-frequency conversion.
//!
//! Since a [`RingRecorder`] keeps only the tail of the stream, a
//! duration *end* can arrive whose *begin* was evicted; such orphans
//! are downgraded to instant events so the JSON always nests cleanly.

use crate::event::TraceEvent;
use crate::hook::RunShape;
use crate::sink::RingRecorder;
use gsim_types::json::escape;
use gsim_types::Cycle;
use std::collections::{BTreeSet, HashMap};
use std::fmt::Write as _;

const PID_MEM: u32 = 0;
const PID_TB: u32 = 1;
const PID_KERNEL: u32 = 2;
const PID_COUNTER: u32 = 3;
const PID_JOURNEY: u32 = 4;

/// One named counter series — rendered under **pid 3, "counters"** as
/// `ph:"C"` events, which Perfetto draws as a step-line track. The
/// profiler's interval time-series export produces these (IPC, hit
/// rate, occupancy gauges); any `(cycle, value)` series works.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CounterTrack {
    /// Track name shown in the UI (e.g. `"ipc"`).
    pub name: String,
    /// `(cycle, value)` samples, oldest first.
    pub points: Vec<(Cycle, f64)>,
}

impl CounterTrack {
    /// An empty track named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        CounterTrack {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Appends one sample.
    pub fn push(&mut self, cycle: Cycle, value: f64) {
        self.points.push((cycle, value));
    }
}

/// One sampled request journey rendered under **pid 4, "journeys"**:
/// each journey gets its own track, every pipeline stage becomes a
/// duration slice, and a flow arrow (`ph:"s"`/`ph:"f"`) with the
/// journey's id connects issue to completion. `gsim-flow`'s report
/// produces these; any contiguous `(label, start, end)` stage list
/// works.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct JourneySpan {
    /// Flow-event id (the request id for simulator journeys).
    pub id: u64,
    /// Track name shown in the UI (e.g. `"load req 65 cu3"`).
    pub name: String,
    /// `(label, start, end)` stages, oldest first, non-overlapping.
    pub stages: Vec<(String, Cycle, Cycle)>,
}

/// Renders an `f64` as a JSON number (JSON has no NaN/inf literals, so
/// non-finite values are written as 0).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

struct Writer {
    out: String,
    first: bool,
}

impl Writer {
    fn new() -> Self {
        Writer {
            out: String::from("{\"traceEvents\":[\n"),
            first: true,
        }
    }

    /// Appends one trace-event object; `args` is pre-rendered JSON
    /// (without braces), e.g. `"flits":5,"hops":3`.
    #[allow(clippy::too_many_arguments)]
    fn event(
        &mut self,
        name: &str,
        cat: &str,
        ph: char,
        ts: Cycle,
        pid: u32,
        tid: u64,
        args: &str,
    ) {
        if !self.first {
            self.out.push_str(",\n");
        }
        self.first = false;
        let _ = write!(
            self.out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{}\",\"ts\":{},\"pid\":{},\"tid\":{}",
            escape(name),
            escape(cat),
            ph,
            ts,
            pid,
            tid
        );
        if ph == 'i' {
            // Thread-scoped instant: renders as a tick on its track.
            self.out.push_str(",\"s\":\"t\"");
        }
        if !args.is_empty() {
            let _ = write!(self.out, ",\"args\":{{{args}}}");
        }
        self.out.push('}');
    }

    /// Like [`event`](Self::event) but with a top-level `id` field (flow
    /// and async phases); `extra` is raw JSON appended after the id,
    /// e.g. `,"bp":"e"`.
    #[allow(clippy::too_many_arguments)]
    fn event_id(
        &mut self,
        name: &str,
        cat: &str,
        ph: char,
        ts: Cycle,
        pid: u32,
        tid: u64,
        id: u64,
        extra: &str,
    ) {
        if !self.first {
            self.out.push_str(",\n");
        }
        self.first = false;
        let _ = write!(
            self.out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{}\",\"ts\":{},\"pid\":{},\"tid\":{},\"id\":{}{}}}",
            escape(name),
            escape(cat),
            ph,
            ts,
            pid,
            tid,
            id,
            extra
        );
    }

    fn metadata(&mut self, name: &str, pid: u32, tid: u64, value: &str) {
        self.event(
            name,
            "__metadata",
            'M',
            0,
            pid,
            tid,
            &format!("\"name\":\"{}\"", escape(value)),
        );
    }

    fn finish(mut self, dropped: u64, total: u64) -> String {
        let _ = write!(
            self.out,
            "\n],\"otherData\":{{\"recorded\":{total},\"dropped\":{dropped}}}}}"
        );
        self.out
    }
}

/// Renders a recorder's contents, recorded on a machine of `shape`, as
/// Chrome trace-event JSON.
pub fn to_chrome_json(shape: &RunShape, rec: &RingRecorder) -> String {
    chrome_json(shape, &rec.to_vec(), rec.dropped(), &[], &[])
}

/// Renders `(cycle, event)` pairs (oldest first), recorded on a machine
/// of `shape`, as Chrome trace-event JSON; `dropped` is reported in
/// `otherData`. Each `counters` track
/// becomes a counter track under pid 3, and each `journeys` span a
/// track of per-stage duration slices under pid 4, with a flow arrow
/// from issue to completion. With both slices empty, only the events
/// are rendered.
pub fn chrome_json(
    shape: &RunShape,
    events: &[(Cycle, TraceEvent)],
    dropped: u64,
    counters: &[CounterTrack],
    journeys: &[JourneySpan],
) -> String {
    let mut w = Writer::new();

    // Name the processes and every track that will appear. Each
    // process_name / thread_name pair is emitted exactly once.
    w.metadata("process_name", PID_MEM, 0, "memory-system");
    w.metadata("process_name", PID_TB, 0, "thread-blocks");
    w.metadata("process_name", PID_KERNEL, 0, "kernels");
    if !counters.is_empty() {
        w.metadata("process_name", PID_COUNTER, 0, "counters");
        for (tid, track) in counters.iter().enumerate() {
            w.metadata("thread_name", PID_COUNTER, tid as u64, &track.name);
        }
    }
    if !journeys.is_empty() {
        w.metadata("process_name", PID_JOURNEY, 0, "journeys");
        for (tid, j) in journeys.iter().enumerate() {
            w.metadata("thread_name", PID_JOURNEY, tid as u64, &j.name);
        }
    }
    let mut nodes: BTreeSet<u64> = BTreeSet::new();
    let mut tbs: BTreeSet<u64> = BTreeSet::new();
    for (_, ev) in events {
        match ev {
            TraceEvent::TbLaunch { tb, cu } | TraceEvent::TbRetire { tb, cu } => {
                tbs.insert(tb.0 as u64);
                nodes.insert(cu.index() as u64);
            }
            TraceEvent::AtomicIssue { cu, .. } => {
                nodes.insert(cu.index() as u64);
            }
            TraceEvent::SyncAcquire { node, .. }
            | TraceEvent::SyncRelease { node, .. }
            | TraceEvent::StateChange { node, .. }
            | TraceEvent::Eviction { node, .. }
            | TraceEvent::SbFlushBegin { node, .. }
            | TraceEvent::SbFlushEnd { node }
            | TraceEvent::MshrAlloc { node, .. }
            | TraceEvent::MshrRetire { node, .. } => {
                nodes.insert(node.index() as u64);
            }
            TraceEvent::MsgSend { src, .. } | TraceEvent::MsgDeliver { src, .. } => {
                nodes.insert(src.index() as u64);
            }
            TraceEvent::KernelBegin { .. }
            | TraceEvent::KernelEnd { .. }
            | TraceEvent::CheckViolation { .. } => {}
        }
    }
    for &n in &nodes {
        let label = if shape.is_cu(n as usize) {
            format!("cu{n}")
        } else {
            "cpu".to_string()
        };
        w.metadata("thread_name", PID_MEM, n, &label);
    }
    for &t in &tbs {
        w.metadata("thread_name", PID_TB, t, &format!("tb{t}"));
    }
    w.metadata("thread_name", PID_KERNEL, 0, "launches");

    // Depth per (pid, tid) so duration ends whose begins were evicted
    // from the ring degrade to instants instead of corrupting nesting.
    let mut depth: HashMap<(u32, u64), u32> = HashMap::new();

    for &(ts, ev) in events {
        let cat = ev.category().label();
        let name = ev.name();
        match ev {
            TraceEvent::TbLaunch { tb, cu } => {
                *depth.entry((PID_TB, tb.0 as u64)).or_insert(0) += 1;
                w.event(
                    "resident",
                    cat,
                    'B',
                    ts,
                    PID_TB,
                    tb.0 as u64,
                    &format!("\"cu\":\"{cu}\""),
                );
            }
            TraceEvent::TbRetire { tb, cu } => {
                let d = depth.entry((PID_TB, tb.0 as u64)).or_insert(0);
                if *d > 0 {
                    *d -= 1;
                    w.event("resident", cat, 'E', ts, PID_TB, tb.0 as u64, "");
                } else {
                    w.event(
                        name,
                        cat,
                        'i',
                        ts,
                        PID_TB,
                        tb.0 as u64,
                        &format!("\"cu\":\"{cu}\""),
                    );
                }
            }
            TraceEvent::KernelBegin { index, tbs } => {
                *depth.entry((PID_KERNEL, 0)).or_insert(0) += 1;
                w.event(
                    &format!("kernel{index}"),
                    cat,
                    'B',
                    ts,
                    PID_KERNEL,
                    0,
                    &format!("\"tbs\":{tbs}"),
                );
            }
            TraceEvent::KernelEnd { index } => {
                let d = depth.entry((PID_KERNEL, 0)).or_insert(0);
                if *d > 0 {
                    *d -= 1;
                    w.event(&format!("kernel{index}"), cat, 'E', ts, PID_KERNEL, 0, "");
                } else {
                    w.event(name, cat, 'i', ts, PID_KERNEL, 0, "");
                }
            }
            TraceEvent::SbFlushBegin { node, reason, pending } => {
                let tid = node.index() as u64;
                *depth.entry((PID_MEM, tid)).or_insert(0) += 1;
                w.event(
                    "sb-drain",
                    cat,
                    'B',
                    ts,
                    PID_MEM,
                    tid,
                    &format!("\"reason\":\"{}\",\"pending\":{pending}", reason.label()),
                );
            }
            TraceEvent::SbFlushEnd { node } => {
                let tid = node.index() as u64;
                let d = depth.entry((PID_MEM, tid)).or_insert(0);
                if *d > 0 {
                    *d -= 1;
                    w.event("sb-drain", cat, 'E', ts, PID_MEM, tid, "");
                } else {
                    w.event(name, cat, 'i', ts, PID_MEM, tid, "");
                }
            }
            TraceEvent::SyncAcquire {
                node,
                scope,
                invalidated,
                flash,
            } => w.event(
                name,
                cat,
                'i',
                ts,
                PID_MEM,
                node.index() as u64,
                &format!("\"scope\":\"{scope}\",\"invalidated\":{invalidated},\"flash\":{flash}"),
            ),
            TraceEvent::SyncRelease { node, scope } => w.event(
                name,
                cat,
                'i',
                ts,
                PID_MEM,
                node.index() as u64,
                &format!("\"scope\":\"{scope}\""),
            ),
            TraceEvent::AtomicIssue {
                tb,
                cu,
                word,
                ord,
                scope,
            } => w.event(
                name,
                cat,
                'i',
                ts,
                PID_MEM,
                cu.index() as u64,
                &format!(
                    "\"tb\":{},\"word\":{},\"ord\":\"{ord:?}\",\"scope\":\"{scope}\"",
                    tb.0, word.0
                ),
            ),
            TraceEvent::StateChange {
                node,
                level,
                line,
                words,
                from,
                to,
            } => w.event(
                name,
                cat,
                'i',
                ts,
                PID_MEM,
                node.index() as u64,
                &format!(
                    "\"level\":\"{}\",\"line\":{},\"words\":{words},\"from\":\"{}\",\"to\":\"{}\"",
                    level.label(),
                    line.0,
                    from.label(),
                    to.label()
                ),
            ),
            TraceEvent::Eviction {
                node,
                level,
                line,
                owned_words,
            } => w.event(
                name,
                cat,
                'i',
                ts,
                PID_MEM,
                node.index() as u64,
                &format!(
                    "\"level\":\"{}\",\"line\":{},\"owned_words\":{owned_words}",
                    level.label(),
                    line.0
                ),
            ),
            TraceEvent::MshrAlloc {
                node,
                line,
                outstanding,
            } => w.event(
                name,
                cat,
                'i',
                ts,
                PID_MEM,
                node.index() as u64,
                &format!("\"line\":{},\"outstanding\":{outstanding}", line.0),
            ),
            TraceEvent::MshrRetire { node, line, waiters } => w.event(
                name,
                cat,
                'i',
                ts,
                PID_MEM,
                node.index() as u64,
                &format!("\"line\":{},\"waiters\":{waiters}", line.0),
            ),
            TraceEvent::MsgSend {
                src,
                dst,
                class,
                flits,
                hops,
                arrival,
            } => w.event(
                name,
                cat,
                'i',
                ts,
                PID_MEM,
                src.index() as u64,
                &format!(
                    "\"src\":\"{src}\",\"dst\":\"{dst}\",\"class\":\"{}\",\"flits\":{flits},\"hops\":{hops},\"arrival\":{arrival}",
                    class.label()
                ),
            ),
            TraceEvent::MsgDeliver { src, dst, class } => w.event(
                name,
                cat,
                'i',
                ts,
                PID_MEM,
                dst.index() as u64,
                &format!("\"src\":\"{src}\",\"dst\":\"{dst}\",\"class\":\"{}\"", class.label()),
            ),
            TraceEvent::CheckViolation { kind } => w.event(
                name,
                cat,
                'i',
                ts,
                PID_KERNEL,
                0,
                &format!("\"kind\":\"{}\"", escape(kind)),
            ),
        }
    }

    for (tid, track) in counters.iter().enumerate() {
        for &(ts, value) in &track.points {
            w.event(
                &track.name,
                "counter",
                'C',
                ts,
                PID_COUNTER,
                tid as u64,
                &format!("\"value\":{}", json_num(value)),
            );
        }
    }

    for (tid, j) in journeys.iter().enumerate() {
        let tid = tid as u64;
        for (label, start, end) in &j.stages {
            w.event(label, "journey", 'B', *start, PID_JOURNEY, tid, "");
            w.event(label, "journey", 'E', *end, PID_JOURNEY, tid, "");
        }
        // A flow arrow from the first stage to the last, carrying the
        // request id, so issue and completion link up even when a UI
        // collapses the track.
        if let (Some(first), Some(last)) = (j.stages.first(), j.stages.last()) {
            w.event_id(
                "journey",
                "journey",
                's',
                first.1,
                PID_JOURNEY,
                tid,
                j.id,
                "",
            );
            w.event_id(
                "journey",
                "journey",
                'f',
                last.2,
                PID_JOURNEY,
                tid,
                j.id,
                ",\"bp\":\"e\"",
            );
        }
    }

    w.finish(dropped, events.len() as u64 + dropped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::FlushReason;
    use crate::sink::TraceSink;
    use gsim_types::{NodeId, TbId};

    /// The Table 3 machine: 16 nodes, node 15 the CPU.
    fn one_device() -> RunShape {
        RunShape::new(16, 16, 15, 26)
    }

    #[test]
    fn exports_balanced_durations() {
        let mut r = RingRecorder::new(64);
        r.record(
            5,
            &TraceEvent::TbLaunch {
                tb: TbId(3),
                cu: NodeId(1),
            },
        );
        r.record(
            9,
            &TraceEvent::SbFlushBegin {
                node: NodeId(1),
                reason: FlushReason::Release,
                pending: 4,
            },
        );
        r.record(20, &TraceEvent::SbFlushEnd { node: NodeId(1) });
        r.record(
            30,
            &TraceEvent::TbRetire {
                tb: TbId(3),
                cu: NodeId(1),
            },
        );
        let json = to_chrome_json(&one_device(), &r);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"B\""));
        assert!(json.contains("\"ph\":\"E\""));
        assert_eq!(json.matches("\"ph\":\"B\"").count(), 2);
        assert_eq!(json.matches("\"ph\":\"E\"").count(), 2);
        assert!(json.contains("\"dropped\":0"));
        assert!(
            json.contains("\"name\":\"tb3\""),
            "thread named after the block"
        );
    }

    #[test]
    fn journey_spans_export_golden_json() {
        let j = JourneySpan {
            id: 65,
            name: "load req 65 cu3".into(),
            stages: vec![
                ("l1-issue".into(), 100, 102),
                ("req-transit".into(), 102, 110),
            ],
        };
        let json = chrome_json(&one_device(), &[], 0, &[], &[j]);
        let expected = concat!(
            "{\"traceEvents\":[\n",
            "{\"name\":\"process_name\",\"cat\":\"__metadata\",\"ph\":\"M\",\"ts\":0,\"pid\":0,\"tid\":0,\"args\":{\"name\":\"memory-system\"}},\n",
            "{\"name\":\"process_name\",\"cat\":\"__metadata\",\"ph\":\"M\",\"ts\":0,\"pid\":1,\"tid\":0,\"args\":{\"name\":\"thread-blocks\"}},\n",
            "{\"name\":\"process_name\",\"cat\":\"__metadata\",\"ph\":\"M\",\"ts\":0,\"pid\":2,\"tid\":0,\"args\":{\"name\":\"kernels\"}},\n",
            "{\"name\":\"process_name\",\"cat\":\"__metadata\",\"ph\":\"M\",\"ts\":0,\"pid\":4,\"tid\":0,\"args\":{\"name\":\"journeys\"}},\n",
            "{\"name\":\"thread_name\",\"cat\":\"__metadata\",\"ph\":\"M\",\"ts\":0,\"pid\":4,\"tid\":0,\"args\":{\"name\":\"load req 65 cu3\"}},\n",
            "{\"name\":\"thread_name\",\"cat\":\"__metadata\",\"ph\":\"M\",\"ts\":0,\"pid\":2,\"tid\":0,\"args\":{\"name\":\"launches\"}},\n",
            "{\"name\":\"l1-issue\",\"cat\":\"journey\",\"ph\":\"B\",\"ts\":100,\"pid\":4,\"tid\":0},\n",
            "{\"name\":\"l1-issue\",\"cat\":\"journey\",\"ph\":\"E\",\"ts\":102,\"pid\":4,\"tid\":0},\n",
            "{\"name\":\"req-transit\",\"cat\":\"journey\",\"ph\":\"B\",\"ts\":102,\"pid\":4,\"tid\":0},\n",
            "{\"name\":\"req-transit\",\"cat\":\"journey\",\"ph\":\"E\",\"ts\":110,\"pid\":4,\"tid\":0},\n",
            "{\"name\":\"journey\",\"cat\":\"journey\",\"ph\":\"s\",\"ts\":100,\"pid\":4,\"tid\":0,\"id\":65},\n",
            "{\"name\":\"journey\",\"cat\":\"journey\",\"ph\":\"f\",\"ts\":110,\"pid\":4,\"tid\":0,\"id\":65,\"bp\":\"e\"}\n",
            "],\"otherData\":{\"recorded\":0,\"dropped\":0}}",
        );
        assert_eq!(json, expected);
    }

    #[test]
    fn counter_tracks_emit_counter_events_and_metadata_once() {
        let mut ipc = CounterTrack::new("ipc");
        ipc.push(0, 0.5);
        ipc.push(1024, 1.25);
        let mut hits = CounterTrack::new("l1-hit-rate");
        hits.push(1024, 0.875);
        let json = chrome_json(&one_device(), &[], 0, &[ipc, hits], &[]);
        assert_eq!(json.matches("\"ph\":\"C\"").count(), 3);
        assert_eq!(json.matches("\"name\":\"counters\"").count(), 1);
        assert_eq!(
            json.matches("\"name\":\"ipc\"").count(),
            3,
            "meta + 2 samples"
        );
        assert!(json.contains("\"args\":{\"value\":1.25}"));
        assert!(
            json.contains("\"pid\":3,\"tid\":1"),
            "second track on tid 1"
        );
    }

    #[test]
    fn non_finite_counter_values_stay_valid_json() {
        let mut t = CounterTrack::new("bad");
        t.push(0, f64::NAN);
        t.push(1, f64::INFINITY);
        let json = chrome_json(&one_device(), &[], 0, &[t], &[]);
        assert!(!json.contains("NaN"));
        assert!(!json.contains("inf"));
        assert_eq!(json.matches("\"value\":0").count(), 2);
    }

    #[test]
    fn each_devices_non_cu_node_is_labelled_cpu() {
        let mut r = RingRecorder::new(8);
        for node in [0, 15, 16, 31] {
            r.record(1, &TraceEvent::SbFlushEnd { node: NodeId(node) });
        }
        let label = |n: u32| format!("\"tid\":{n},\"args\":{{\"name\":");
        let json = to_chrome_json(&RunShape::new(32, 16, 15, 26), &r);
        for (node, name) in [(0, "cu0"), (15, "cpu"), (16, "cu16"), (31, "cpu")] {
            let want = format!("{}\"{name}\"}}", label(node));
            assert!(json.contains(&want), "node {node} is {name}: {json}");
        }
    }

    #[test]
    fn orphan_end_degrades_to_instant() {
        // A ring so small the Begin fell off before export.
        let mut r = RingRecorder::new(1);
        r.record(
            9,
            &TraceEvent::SbFlushBegin {
                node: NodeId(0),
                reason: FlushReason::Overflow,
                pending: 1,
            },
        );
        r.record(20, &TraceEvent::SbFlushEnd { node: NodeId(0) });
        let json = to_chrome_json(&one_device(), &r);
        assert!(!json.contains("\"ph\":\"E\""), "no unmatched end");
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"dropped\":1"));
    }
}
