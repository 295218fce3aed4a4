//! A new view is one consumer: a `TraceSink` that overrides the hooks it
//! reads, installed through `TraceHandle::with_sink`, with no change to
//! any component. The first one here counts L1 load hits and misses and
//! mesh messages, and must agree with the `Counts` the run reports. The
//! rest pin the contract every consumer, the built-in views included,
//! runs under: the clock it declares, the run's end, and independence
//! from the other consumers of the same run.

use gpu_denovo::flow::DEFAULT_JOURNEY_PERIOD;
use gpu_denovo::lens::DEFAULT_TOPK;
use gpu_denovo::trace::{
    IntervalSample, RingRecorder, RunEnd, TraceEvent, TraceHandle, TraceSink,
    DEFAULT_SAMPLE_INTERVAL,
};
use gpu_denovo::types::{Cycle, LineAddr, Msg, NodeId, ReqId, WordAddr};
use gpu_denovo::{
    registry, FlowCollector, LensCollector, Profiler, ProtocolConfig, Scale, SimStats, Simulator,
    SystemConfig, Workload,
};
use std::cell::RefCell;
use std::rc::Rc;

/// What the consumer counted.
#[derive(Debug, Default)]
struct Tally {
    hits: u64,
    missed_accesses: u64,
    misses: u64,
    messages: u64,
}

/// The consumer: a shared tally the test reads back after the run.
#[derive(Debug)]
struct Counter(Rc<RefCell<Tally>>);

impl TraceSink for Counter {
    fn l1_access(&mut self, _: NodeId, _: LineAddr, hit: bool) {
        let mut t = self.0.borrow_mut();
        if hit {
            t.hits += 1;
        } else {
            t.missed_accesses += 1;
        }
    }

    fn l1_miss(&mut self, _: NodeId, _: WordAddr, _: ReqId) {
        self.0.borrow_mut().misses += 1;
    }

    fn msg_sent(&mut self, _: &Msg, _: Cycle, _: Cycle, _: Cycle, _: u32) {
        self.0.borrow_mut().messages += 1;
    }
}

#[test]
fn a_consumer_installed_through_the_handle_sees_every_hook() {
    for bench in ["SPM_G", "UTS"] {
        let b = registry::by_name(bench).expect("known benchmark");
        for p in ProtocolConfig::ALL {
            let tally = Rc::new(RefCell::new(Tally::default()));
            let handle = TraceHandle::with_sink(Box::new(Counter(tally.clone())));
            let stats = Simulator::new(SystemConfig::micro15(p))
                .run_traced(&(b.build)(Scale::Tiny), handle)
                .unwrap_or_else(|e| panic!("{bench} under {p}: {e}"));
            let t = tally.borrow();
            let c = &stats.counts;
            assert!(c.l1_load_hits > 0 && c.messages_sent > 0, "{bench}/{p}");
            assert_eq!(t.hits, c.l1_load_hits, "load hits, {bench}/{p}");
            assert_eq!(t.missed_accesses, c.l1_load_misses, "{bench}/{p}");
            assert_eq!(t.misses, c.l1_load_misses, "load misses, {bench}/{p}");
            assert_eq!(t.messages, c.messages_sent, "messages, {bench}/{p}");
        }
    }
}

/// What the clock consumer saw.
#[derive(Debug, Default)]
struct Clocked {
    samples: Vec<Cycle>,
    ends: Vec<RunEnd>,
    /// Hooks or events that arrived after `run_finished`.
    late: u64,
}

/// A consumer declaring `interval` (or none), logging its samples and
/// the run's end, and flagging anything that arrives after the end.
#[derive(Debug)]
struct Clock {
    interval: Option<Cycle>,
    seen: Rc<RefCell<Clocked>>,
}

impl Clock {
    fn saw(&self) {
        let mut s = self.seen.borrow_mut();
        if !s.ends.is_empty() {
            s.late += 1;
        }
    }
}

impl TraceSink for Clock {
    fn sample_interval(&self) -> Option<Cycle> {
        self.interval
    }
    fn record(&mut self, _: Cycle, _: &TraceEvent) {
        self.saw();
    }
    fn l1_access(&mut self, _: NodeId, _: LineAddr, _: bool) {
        self.saw();
    }
    fn msg_sent(&mut self, _: &Msg, _: Cycle, _: Cycle, _: Cycle, _: u32) {
        self.saw();
    }
    fn interval_sample(&mut self, sample: &IntervalSample) {
        self.saw();
        self.seen.borrow_mut().samples.push(sample.cycle);
    }
    fn run_finished(&mut self, end: &RunEnd) {
        self.saw();
        self.seen.borrow_mut().ends.push(end.clone());
    }
}

/// Runs SPM_L at Tiny scale under DD with a [`Clock`] declaring
/// `interval`.
fn clocked(interval: Option<Cycle>) -> (SimStats, Clocked) {
    let b = registry::by_name("SPM_L").expect("known benchmark");
    let seen = Rc::new(RefCell::new(Clocked::default()));
    let clock = Clock {
        interval,
        seen: seen.clone(),
    };
    let stats = Simulator::new(SystemConfig::micro15(ProtocolConfig::Dd))
        .run_traced(
            &(b.build)(Scale::Tiny),
            TraceHandle::with_sink(Box::new(clock)),
        )
        .expect("verified run");
    let seen = seen.take();
    (stats, seen)
}

#[test]
fn a_declared_interval_samples_on_its_boundaries_and_the_end_comes_last() {
    let (stats, seen) = clocked(Some(256));
    let boundaries: Vec<Cycle> = (1..=stats.cycles / 256).map(|k| k * 256).collect();
    assert!(boundaries.len() > 2, "a run this short proves nothing");
    assert_eq!(seen.samples, boundaries, "one sample per boundary crossed");
    assert_eq!(seen.ends.len(), 1, "run_finished fires once");
    let end = &seen.ends[0];
    assert_eq!(end.cycles, stats.cycles);
    assert_eq!(end.l1_counts.len(), 16, "one L1 per node");
    assert_eq!(end.messages_sent, stats.counts.messages_sent);
    assert_eq!(end.flit_hops, stats.counts.flit_hops);
    assert_eq!(seen.late, 0, "nothing arrives after run_finished");
}

#[test]
fn without_a_declared_interval_no_sample_arrives() {
    let (stats, seen) = clocked(None);
    assert!(seen.samples.is_empty(), "no consumer asked for samples");
    assert_eq!(seen.ends.len(), 1);
    assert_eq!(seen.ends[0].cycles, stats.cycles);
}

#[test]
#[should_panic(expected = "consumers disagree on the sampling interval")]
fn consumers_with_different_intervals_do_not_share_a_handle() {
    let shape = SystemConfig::micro15(ProtocolConfig::Dd).run_shape();
    let prof = Rc::new(RefCell::new(Profiler::new(&shape, 1024)));
    let flow = Rc::new(RefCell::new(FlowCollector::new(&shape, 256, 64)));
    let _ = TraceHandle::disabled().with_consumers([prof as _, flow as _]);
}

/// One installed consumer of each kind, any of them possibly absent.
#[derive(Default)]
struct Views {
    prof: Option<Rc<RefCell<Profiler>>>,
    flow: Option<Rc<RefCell<FlowCollector>>>,
    lens: Option<Rc<RefCell<LensCollector>>>,
    trace: Option<TraceHandle>,
}

/// Runs `w` under `cfg` with the views `on` names installed on one
/// handle.
fn observed(cfg: SystemConfig, w: &Workload, on: &[&str]) -> Views {
    let shape = cfg.run_shape();
    let (interval, period) = (DEFAULT_SAMPLE_INTERVAL, DEFAULT_JOURNEY_PERIOD);
    let wants = |v| on.contains(&v);
    let views = Views {
        prof: wants("prof").then(|| Rc::new(RefCell::new(Profiler::new(&shape, interval)))),
        flow: wants("flow")
            .then(|| Rc::new(RefCell::new(FlowCollector::new(&shape, interval, period)))),
        lens: wants("lens")
            .then(|| Rc::new(RefCell::new(LensCollector::new(&shape, DEFAULT_TOPK)))),
        trace: wants("trace").then(|| TraceHandle::new(RingRecorder::new(1 << 22))),
    };
    let mut consumers: Vec<Rc<RefCell<dyn TraceSink>>> = Vec::new();
    consumers.extend(views.prof.clone().map(|c| c as _));
    consumers.extend(views.flow.clone().map(|c| c as _));
    consumers.extend(views.lens.clone().map(|c| c as _));
    let base = views.trace.clone().unwrap_or_default();
    Simulator::new(cfg)
        .run_traced(w, base.with_consumers(consumers))
        .expect("verified run");
    views
}

#[test]
fn views_installed_together_report_what_each_reports_alone() {
    let b = registry::by_name("SPM_G").expect("known benchmark");
    let w = (b.build)(Scale::Tiny);
    for p in [ProtocolConfig::Gd, ProtocolConfig::Dd] {
        let cfg = SystemConfig::micro15(p);
        let all = observed(cfg, &w, &["prof", "flow", "lens", "trace"]);
        let take = |v: &Views| {
            (
                v.prof.as_ref().map(|c| c.borrow_mut().take_report()),
                v.flow.as_ref().map(|c| c.borrow_mut().take_report()),
                v.lens.as_ref().map(|c| c.borrow_mut().take_report()),
                (v.trace.as_ref()).map(|h| h.recorder().unwrap().borrow().to_vec()),
            )
        };
        let (prof, flow, lens, events) = take(&all);
        assert_eq!(prof, take(&observed(cfg, &w, &["prof"])).0, "{p}: profile");
        assert_eq!(flow, take(&observed(cfg, &w, &["flow"])).1, "{p}: flow");
        assert_eq!(lens, take(&observed(cfg, &w, &["lens"])).2, "{p}: lens");
        let alone = take(&observed(cfg, &w, &["trace"])).3;
        assert!(
            events.as_ref().is_some_and(|e| !e.is_empty()),
            "{p}: no events"
        );
        assert_eq!(events, alone, "{p}: recorded stream");
    }
}
