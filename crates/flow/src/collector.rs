//! The flow collector: a [`TraceSink`] consumer attributing link
//! traffic, sampling occupancy and following sampled request journeys.
//!
//! The engine installs one [`FlowCollector`] on the run's trace handle
//! and keeps an `Rc` to it to take the report; the mesh's link
//! crossings, the engine's L2 deliveries, interval samples and journey
//! milestones all reach it through hooks of that handle. It
//! only observes: no hook schedules an event, touches protocol or
//! network state, or returns anything the engine acts on.

use crate::journey::{Journey, JourneyHop};
use crate::report::{FlowReport, LinkRow};
use crate::sample::{FlowSample, SampleRing};
use crate::spec::FlowSpec;
use gsim_trace::{IntervalSample, JourneyKind, TraceEvent, TraceSink};
use gsim_types::{Component, Cycle, FxHashMap, LineAddr, Msg, MsgClass, MsgKind, NodeId, ReqId};

/// Journey store capacity: journeys begun beyond this are counted as
/// dropped rather than recorded (keeping the earliest, like the sample
/// ring). At the default sampling period a paper-scale run stays well
/// under this.
pub const MAX_JOURNEYS: usize = 4096;

/// Hops recorded per journey before further messages on its line are
/// ignored (a spinning lock line could otherwise grow one journey
/// without bound).
const MAX_HOPS_PER_JOURNEY: usize = 64;

/// While a journey is in flight its `end` holds this sentinel;
/// `take_report` drops journeys still carrying it.
const IN_FLIGHT: Cycle = Cycle::MAX;

/// Accumulated statistics of one directed mesh link.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct LinkStats {
    /// Flit crossings per message class (`MsgClass::index` order).
    flits: [u64; 4],
    /// Messages that crossed the link.
    msgs: u64,
    /// Cycles messages waited for this link to free up.
    queue_cycles: u64,
    /// Cycles spent actually traversing (hop latency).
    transit_cycles: u64,
}

/// The collection state of one flow-observed run.
#[derive(Clone, Debug)]
pub struct FlowCollector {
    spec: FlowSpec,
    /// The engine's sampling interval, echoed in the report.
    interval: Cycle,
    nodes: usize,
    l2_latency: Cycle,
    /// Per-directed-link stats, indexed `from * nodes + to`.
    links: Vec<LinkStats>,
    /// Messages delivered per L2 bank (indexed by node).
    bank_msgs: Vec<u64>,
    total_flits: u64,
    total_queue: u64,
    total_l2_msgs: u64,
    journeys: Vec<Journey>,
    /// Request id -> index into `journeys` for in-flight journeys.
    by_req: FxHashMap<u64, usize>,
    /// Line -> in-flight journey indices watching it.
    watching: FxHashMap<u64, Vec<usize>>,
    dropped_journeys: u64,
    ring: SampleRing,
}

impl FlowCollector {
    /// A collector for `spec` on a `nodes`-node fabric whose L2 banks
    /// have `l2_latency` cycles of service time (used only to render
    /// busy fractions). `interval` is the period the engine samples at.
    pub fn new(spec: FlowSpec, interval: Cycle, nodes: usize, l2_latency: Cycle) -> Self {
        FlowCollector {
            spec,
            interval,
            nodes,
            l2_latency,
            links: vec![LinkStats::default(); nodes * nodes],
            bank_msgs: vec![0; nodes],
            total_flits: 0,
            total_queue: 0,
            total_l2_msgs: 0,
            journeys: Vec::new(),
            by_req: FxHashMap::default(),
            watching: FxHashMap::default(),
            dropped_journeys: 0,
            ring: SampleRing::default(),
        }
    }
}

/// The cache line a message is about (atomics address a word; everything
/// else carries the line directly).
fn msg_line(kind: &MsgKind) -> LineAddr {
    match kind {
        MsgKind::ReadReq { line, .. }
        | MsgKind::ReadResp { line, .. }
        | MsgKind::WriteThrough { line, .. }
        | MsgKind::WtAck { line }
        | MsgKind::RegReq { line, .. }
        | MsgKind::RegResp { line, .. }
        | MsgKind::RegFwd { line, .. }
        | MsgKind::WbReq { line, .. }
        | MsgKind::WbAck { line, .. } => *line,
        MsgKind::AtomicReq { word, .. } | MsgKind::AtomicResp { word, .. } => word.line(),
    }
}

impl FlowCollector {
    /// Assembles the report at end-of-run cycle `end`, draining the
    /// collector. Journeys still in flight are discarded (the quiesced
    /// engine has none in a clean run).
    pub fn take_report(&mut self, end: Cycle) -> FlowReport {
        let nodes = self.nodes;
        let links = self
            .links
            .iter()
            .enumerate()
            .filter(|(_, l)| l.msgs > 0)
            .map(|(i, l)| LinkRow {
                from: (i / nodes) as u8,
                to: (i % nodes) as u8,
                flits: l.flits,
                msgs: l.msgs,
                queue_cycles: l.queue_cycles,
                transit_cycles: l.transit_cycles,
            })
            .collect();
        let journeys = std::mem::take(&mut self.journeys)
            .into_iter()
            .filter(|j| j.end != IN_FLIGHT)
            .collect();
        let (samples, dropped_samples) = std::mem::take(&mut self.ring).into_parts();
        FlowReport {
            cycles: end,
            interval: self.interval,
            journey_period: self.spec.journey_period.max(1),
            nodes,
            l2_latency: self.l2_latency,
            links,
            bank_msgs: std::mem::take(&mut self.bank_msgs),
            samples,
            dropped_samples,
            journeys,
            dropped_journeys: self.dropped_journeys,
        }
    }
}

impl TraceSink for FlowCollector {
    fn record(&mut self, _: Cycle, _: &TraceEvent) {}

    // ---- link attribution (mesh hooks) ----

    fn link_crossing(
        &mut self,
        from: NodeId,
        to: NodeId,
        class: MsgClass,
        flits: u32,
        queue: Cycle,
        transit: Cycle,
    ) {
        let l = &mut self.links[from.index() * self.nodes + to.index()];
        l.flits[class.index()] += flits as u64;
        l.msgs += 1;
        l.queue_cycles += queue;
        l.transit_cycles += transit;
        self.total_flits += flits as u64;
        self.total_queue += queue;
    }

    /// Journeys watching the message's line (and touching its
    /// endpoints) record it as a hop.
    fn msg_sent(&mut self, msg: &Msg, inject: Cycle, arrival: Cycle, queue: Cycle) {
        if self.by_req.is_empty() {
            return;
        }
        let line = msg_line(&msg.kind).0;
        let Some(watchers) = self.watching.get(&line).cloned() else {
            return;
        };
        for idx in watchers {
            let cu = self.journeys[idx].cu;
            if cu != msg.src && cu != msg.dst {
                continue;
            }
            let j = &mut self.journeys[idx];
            if j.hops.len() >= MAX_HOPS_PER_JOURNEY {
                continue;
            }
            j.hops.push(JourneyHop {
                src: msg.src,
                dst: msg.dst,
                to_l2: msg.dst_comp == Component::L2,
                class: msg.class(),
                flits: msg.flits(),
                inject,
                arrival,
                queue,
            });
        }
    }

    // ---- memory-system occupancy (engine hooks) ----

    fn l2_delivery(&mut self, bank: NodeId) {
        self.bank_msgs[bank.index()] += 1;
        self.total_l2_msgs += 1;
    }

    /// The collector's cumulative network counters beside the engine's
    /// memory-system gauges.
    fn interval_sample(&mut self, s: &IntervalSample) {
        self.ring.push(FlowSample {
            cycle: s.cycle,
            flits: self.total_flits,
            queue_cycles: self.total_queue,
            l2_msgs: self.total_l2_msgs,
            mshr_occupancy: s.mshr_occupancy,
            sb_occupancy: s.sb_occupancy,
            pending_reqs: s.pending_reqs,
            active_journeys: self.by_req.len() as u64,
        });
    }

    // ---- journey sampling (engine hooks) ----

    /// Every `journey_period`-th request id begins a journey — ids are
    /// minted densely in issue order, so the selection is deterministic
    /// and identical whether or not anyone observes the run.
    fn request_issued(
        &mut self,
        req: ReqId,
        node: NodeId,
        line: LineAddr,
        kind: JourneyKind,
        now: Cycle,
    ) {
        let period = self.spec.journey_period.max(1);
        if !(req.0.wrapping_sub(1)).is_multiple_of(period) {
            return;
        }
        if self.journeys.len() >= MAX_JOURNEYS {
            self.dropped_journeys += 1;
            return;
        }
        let idx = self.journeys.len();
        self.journeys.push(Journey {
            req: req.0,
            cu: node,
            kind,
            line: line.0,
            start: now,
            end: IN_FLIGHT,
            hops: Vec::new(),
        });
        self.by_req.insert(req.0, idx);
        self.watching.entry(line.0).or_default().push(idx);
    }

    /// Closes the journey begun for `req`, if any.
    fn request_done(&mut self, req: ReqId, _: Cycle, now: Cycle) {
        let Some(idx) = self.by_req.remove(&req.0) else {
            return;
        };
        self.journeys[idx].end = now;
        let line = self.journeys[idx].line;
        if let Some(w) = self.watching.get_mut(&line) {
            w.retain(|&i| i != idx);
            if w.is_empty() {
                self.watching.remove(&line);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsim_trace::TraceHandle;
    use gsim_types::WordMask;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn read_req(src: u8, dst: u8, line: u64) -> Msg {
        Msg {
            src: NodeId(src),
            dst: NodeId(dst),
            dst_comp: Component::L2,
            kind: MsgKind::ReadReq {
                line: LineAddr(line),
                mask: WordMask::full(),
                requester: NodeId(src),
            },
        }
    }

    #[test]
    fn hooks_through_a_shared_handle_reach_one_collector() {
        let c = Rc::new(RefCell::new(FlowCollector::new(
            FlowSpec::default(),
            1024,
            16,
            26,
        )));
        let h = TraceHandle::disabled().with_consumers([c.clone() as Rc<RefCell<dyn TraceSink>>]);
        let clone = h.share();
        h.link_crossing(NodeId(0), NodeId(1), MsgClass::Read, 2, 3, 2);
        clone.link_crossing(NodeId(0), NodeId(1), MsgClass::WbWt, 5, 0, 2);
        clone.l2_delivery(NodeId(1));
        let r = c.borrow_mut().take_report(100);
        assert_eq!(r.links.len(), 1);
        assert_eq!(r.links[0].flits[MsgClass::Read.index()], 2);
        assert_eq!(r.links[0].flits[MsgClass::WbWt.index()], 5);
        assert_eq!(r.links[0].msgs, 2);
        assert_eq!(r.links[0].queue_cycles, 3);
        assert_eq!(r.bank_msgs[1], 1);
    }

    #[test]
    fn journey_sampling_follows_the_period() {
        let spec = FlowSpec { journey_period: 4 };
        let mut h = FlowCollector::new(spec, 1024, 16, 26);
        for req in 1..=9u64 {
            h.request_issued(ReqId(req), NodeId(0), LineAddr(req), JourneyKind::Load, req);
            h.request_done(ReqId(req), 0, req + 10);
        }
        let r = h.take_report(100);
        let sampled: Vec<u64> = r.journeys.iter().map(|j| j.req).collect();
        assert_eq!(sampled, vec![1, 5, 9], "every 4th request id from 1");
    }

    #[test]
    fn journeys_collect_matching_messages_only() {
        let spec = FlowSpec { journey_period: 1 };
        let mut h = FlowCollector::new(spec, 1024, 16, 26);
        h.request_issued(ReqId(1), NodeId(0), LineAddr(7), JourneyKind::Load, 10);
        h.msg_sent(&read_req(0, 5, 7), 12, 20, 1); // same line, same cu
        h.msg_sent(&read_req(3, 5, 7), 12, 20, 1); // same line, other cu
        h.msg_sent(&read_req(0, 5, 8), 12, 20, 1); // other line
        h.request_done(ReqId(1), 0, 40);
        h.msg_sent(&read_req(0, 5, 7), 45, 50, 0); // after the journey closed
        let r = h.take_report(100);
        assert_eq!(r.journeys.len(), 1);
        let j = &r.journeys[0];
        assert_eq!(j.hops.len(), 1);
        assert_eq!(j.hops[0].inject, 12);
        assert!(j.hops[0].to_l2);
        assert_eq!(j.stages().iter().sum::<Cycle>(), 30);
    }

    #[test]
    fn unfinished_journeys_are_discarded() {
        let spec = FlowSpec { journey_period: 1 };
        let mut h = FlowCollector::new(spec, 1024, 16, 26);
        h.request_issued(ReqId(1), NodeId(0), LineAddr(1), JourneyKind::Load, 5);
        h.request_issued(ReqId(2), NodeId(1), LineAddr(2), JourneyKind::Atomic, 6);
        h.request_done(ReqId(2), 0, 30);
        let r = h.take_report(100);
        assert_eq!(r.journeys.len(), 1);
        assert_eq!(r.journeys[0].req, 2);
    }

    #[test]
    fn sample_captures_cumulative_totals_and_gauges() {
        let mut h = FlowCollector::new(FlowSpec::default(), 1024, 16, 26);
        h.link_crossing(NodeId(0), NodeId(1), MsgClass::Atomic, 1, 2, 2);
        h.interval_sample(&IntervalSample {
            cycle: 1024,
            mshr_occupancy: 3,
            sb_occupancy: 4,
            pending_reqs: 5,
            ..IntervalSample::default()
        });
        h.link_crossing(NodeId(1), NodeId(2), MsgClass::Atomic, 1, 0, 2);
        h.interval_sample(&IntervalSample {
            cycle: 2048,
            ..IntervalSample::default()
        });
        let r = h.take_report(4096);
        assert_eq!(r.samples.len(), 2);
        assert_eq!(r.samples[0].flits, 1);
        assert_eq!(r.samples[0].queue_cycles, 2);
        assert_eq!(r.samples[0].mshr_occupancy, 3);
        assert_eq!(r.samples[0].sb_occupancy, 4);
        assert_eq!(r.samples[0].pending_reqs, 5);
        assert_eq!(r.samples[1].flits, 2);
    }
}
