//! The engine- and mesh-facing flow collector: shared state behind a
//! cheap-to-clone handle.
//!
//! [`FlowHandle`] mirrors `gsim-prof`'s `ProfHandle`: an
//! `Option<Rc<RefCell<FlowCollector>>>`. The engine holds one handle
//! and the mesh holds a clone, so link crossings, L2 deliveries, and
//! journey milestones all reach the same collector. A disabled handle
//! is `None` and every hook is one branch.
//!
//! The collector is observation-only by construction: no method
//! schedules an event, touches protocol or network state, or returns
//! anything the engine acts on (other than [`FlowHandle::is_enabled`]
//! and [`FlowHandle::sample_interval`], both constant for a run).

use crate::journey::{Journey, JourneyHop, JourneyKind};
use crate::report::{FlowReport, LinkRow};
use crate::sample::{FlowSample, SampleRing};
use crate::spec::FlowSpec;
use gsim_types::{Component, Cycle, FxHashMap, LineAddr, Msg, MsgClass, MsgKind, NodeId, ReqId};
use std::cell::RefCell;
use std::rc::Rc;

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
    fn new(spec: FlowSpec, nodes: usize, l2_latency: Cycle) -> Self {
        FlowCollector {
            spec,
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

/// A shared, cheaply clonable reference to a [`FlowCollector`] — or
/// nothing.
#[derive(Clone, Debug, Default)]
pub struct FlowHandle {
    inner: Option<Rc<RefCell<FlowCollector>>>,
}

impl FlowHandle {
    /// A disabled handle: every hook is a no-op.
    pub fn disabled() -> Self {
        FlowHandle { inner: None }
    }

    /// A handle for `spec` on a `nodes`-node mesh whose L2 banks have
    /// `l2_latency` cycles of service time (used only to render busy
    /// fractions).
    pub fn new(spec: FlowSpec, nodes: usize, l2_latency: Cycle) -> Self {
        FlowHandle {
            inner: Some(Rc::new(RefCell::new(FlowCollector::new(
                spec, nodes, l2_latency,
            )))),
        }
    }

    /// Another handle to the same collector (what `Mesh::set_flow`
    /// clones).
    pub fn share(&self) -> FlowHandle {
        FlowHandle {
            inner: self.inner.clone(),
        }
    }

    /// Whether flow collection is active.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The occupancy sampling interval, or `Cycle::MAX` when disabled
    /// (so the engine's `now >= next_sample` test is always false).
    pub fn sample_interval(&self) -> Cycle {
        match &self.inner {
            Some(c) => c.borrow().spec.interval.max(1),
            None => Cycle::MAX,
        }
    }

    // ---- link attribution (mesh hooks) ----

    /// One message crossing the directed link `from -> to`: `flits`
    /// flits after `queue` cycles waiting for the link, then `transit`
    /// cycles on the wire.
    #[inline]
    pub fn link_crossing(
        &self,
        from: NodeId,
        to: NodeId,
        class: MsgClass,
        flits: u32,
        queue: Cycle,
        transit: Cycle,
    ) {
        if let Some(c) = &self.inner {
            let mut c = c.borrow_mut();
            let li = from.index() * c.nodes + to.index();
            let l = &mut c.links[li];
            l.flits[class.index()] += flits as u64;
            l.msgs += 1;
            l.queue_cycles += queue;
            l.transit_cycles += transit;
            c.total_flits += flits as u64;
            c.total_queue += queue;
        }
    }

    /// A whole message injected at `inject`, fully arrived at
    /// `arrival`, having queued `queue` cycles in total. Journeys
    /// watching the message's line (and touching its endpoints) record
    /// it as a hop.
    #[inline]
    pub fn msg_sent(&self, msg: &Msg, inject: Cycle, arrival: Cycle, queue: Cycle) {
        if let Some(c) = &self.inner {
            let mut c = c.borrow_mut();
            if c.by_req.is_empty() {
                return;
            }
            let line = msg_line(&msg.kind).0;
            let Some(watchers) = c.watching.get(&line).cloned() else {
                return;
            };
            for idx in watchers {
                let cu = c.journeys[idx].cu;
                if cu != msg.src && cu != msg.dst {
                    continue;
                }
                let j = &mut c.journeys[idx];
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
    }

    // ---- memory-system occupancy (engine hooks) ----

    /// One message delivered to the L2 bank at `bank`.
    #[inline]
    pub fn l2_delivery(&self, bank: NodeId) {
        if let Some(c) = &self.inner {
            let mut c = c.borrow_mut();
            c.bank_msgs[bank.index()] += 1;
            c.total_l2_msgs += 1;
        }
    }

    /// Records one occupancy sample (the engine gathers the gauges).
    pub fn record_sample(&self, cycle: Cycle, mshr: u64, sb: u64, pending: u64) {
        if let Some(c) = &self.inner {
            let mut c = c.borrow_mut();
            let s = FlowSample {
                cycle,
                flits: c.total_flits,
                queue_cycles: c.total_queue,
                l2_msgs: c.total_l2_msgs,
                mshr_occupancy: mshr,
                sb_occupancy: sb,
                pending_reqs: pending,
                active_journeys: c.by_req.len() as u64,
            };
            c.ring.push(s);
        }
    }

    // ---- journey sampling (engine hooks) ----

    /// A memory request entered the pending table. Every
    /// `journey_period`-th request id begins a journey — ids are minted
    /// densely in issue order, so the selection is deterministic and
    /// identical whether or not anyone observes the run.
    #[inline]
    pub fn begin_journey(
        &self,
        req: ReqId,
        cu: NodeId,
        line: LineAddr,
        kind: JourneyKind,
        now: Cycle,
    ) {
        if let Some(c) = &self.inner {
            let mut c = c.borrow_mut();
            let period = c.spec.journey_period.max(1);
            if !(req.0.wrapping_sub(1)).is_multiple_of(period) {
                return;
            }
            if c.journeys.len() >= MAX_JOURNEYS {
                c.dropped_journeys += 1;
                return;
            }
            let idx = c.journeys.len();
            c.journeys.push(Journey {
                req: req.0,
                cu,
                kind,
                line: line.0,
                start: now,
                end: IN_FLIGHT,
                hops: Vec::new(),
            });
            c.by_req.insert(req.0, idx);
            c.watching.entry(line.0).or_default().push(idx);
        }
    }

    /// The request's value reached its CU; closes the journey if one
    /// was begun for `req` (no-op otherwise).
    #[inline]
    pub fn end_journey(&self, req: ReqId, now: Cycle) {
        if let Some(c) = &self.inner {
            let mut c = c.borrow_mut();
            let Some(idx) = c.by_req.remove(&req.0) else {
                return;
            };
            c.journeys[idx].end = now;
            let line = c.journeys[idx].line;
            if let Some(w) = c.watching.get_mut(&line) {
                w.retain(|&i| i != idx);
                if w.is_empty() {
                    c.watching.remove(&line);
                }
            }
        }
    }

    // ---- report ----

    /// Assembles the report at end-of-run cycle `end`, draining the
    /// collector. Journeys still in flight are discarded (the quiesced
    /// engine has none in a clean run); `None` when disabled.
    pub fn take_report(&self, end: Cycle) -> Option<FlowReport> {
        let c = self.inner.as_ref()?;
        let mut c = c.borrow_mut();
        let nodes = c.nodes;
        let links = c
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
        let journeys = std::mem::take(&mut c.journeys)
            .into_iter()
            .filter(|j| j.end != IN_FLIGHT)
            .collect();
        let ring = std::mem::take(&mut c.ring);
        let (samples, dropped_samples) = ring.into_parts();
        Some(FlowReport {
            cycles: end,
            interval: c.spec.interval.max(1),
            journey_period: c.spec.journey_period.max(1),
            nodes,
            l2_latency: c.l2_latency,
            links,
            bank_msgs: std::mem::take(&mut c.bank_msgs),
            samples,
            dropped_samples,
            journeys,
            dropped_journeys: c.dropped_journeys,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsim_types::WordMask;

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
    fn disabled_handle_is_inert() {
        let h = FlowHandle::disabled();
        assert!(!h.is_enabled());
        assert_eq!(h.sample_interval(), Cycle::MAX);
        h.link_crossing(NodeId(0), NodeId(1), MsgClass::Read, 5, 0, 2);
        h.l2_delivery(NodeId(3));
        h.begin_journey(ReqId(1), NodeId(0), LineAddr(7), JourneyKind::Load, 10);
        h.end_journey(ReqId(1), 50);
        assert!(h.take_report(100).is_none());
    }

    #[test]
    fn shared_handles_reach_one_collector() {
        let h = FlowHandle::new(FlowSpec::default(), 16, 26);
        let clone = h.share();
        h.link_crossing(NodeId(0), NodeId(1), MsgClass::Read, 2, 3, 2);
        clone.link_crossing(NodeId(0), NodeId(1), MsgClass::WbWt, 5, 0, 2);
        clone.l2_delivery(NodeId(1));
        let r = h.take_report(100).unwrap();
        assert_eq!(r.links.len(), 1);
        assert_eq!(r.links[0].flits[MsgClass::Read.index()], 2);
        assert_eq!(r.links[0].flits[MsgClass::WbWt.index()], 5);
        assert_eq!(r.links[0].msgs, 2);
        assert_eq!(r.links[0].queue_cycles, 3);
        assert_eq!(r.bank_msgs[1], 1);
    }

    #[test]
    fn journey_sampling_follows_the_period() {
        let spec = FlowSpec {
            journey_period: 4,
            ..FlowSpec::default()
        };
        let h = FlowHandle::new(spec, 16, 26);
        for req in 1..=9u64 {
            h.begin_journey(ReqId(req), NodeId(0), LineAddr(req), JourneyKind::Load, req);
            h.end_journey(ReqId(req), req + 10);
        }
        let r = h.take_report(100).unwrap();
        let sampled: Vec<u64> = r.journeys.iter().map(|j| j.req).collect();
        assert_eq!(sampled, vec![1, 5, 9], "every 4th request id from 1");
    }

    #[test]
    fn journeys_collect_matching_messages_only() {
        let spec = FlowSpec {
            journey_period: 1,
            ..FlowSpec::default()
        };
        let h = FlowHandle::new(spec, 16, 26);
        h.begin_journey(ReqId(1), NodeId(0), LineAddr(7), JourneyKind::Load, 10);
        h.msg_sent(&read_req(0, 5, 7), 12, 20, 1); // same line, same cu
        h.msg_sent(&read_req(3, 5, 7), 12, 20, 1); // same line, other cu
        h.msg_sent(&read_req(0, 5, 8), 12, 20, 1); // other line
        h.end_journey(ReqId(1), 40);
        h.msg_sent(&read_req(0, 5, 7), 45, 50, 0); // after the journey closed
        let r = h.take_report(100).unwrap();
        assert_eq!(r.journeys.len(), 1);
        let j = &r.journeys[0];
        assert_eq!(j.hops.len(), 1);
        assert_eq!(j.hops[0].inject, 12);
        assert!(j.hops[0].to_l2);
        assert_eq!(j.stages().iter().sum::<Cycle>(), 30);
    }

    #[test]
    fn unfinished_journeys_are_discarded() {
        let spec = FlowSpec {
            journey_period: 1,
            ..FlowSpec::default()
        };
        let h = FlowHandle::new(spec, 16, 26);
        h.begin_journey(ReqId(1), NodeId(0), LineAddr(1), JourneyKind::Load, 5);
        h.begin_journey(ReqId(2), NodeId(1), LineAddr(2), JourneyKind::Atomic, 6);
        h.end_journey(ReqId(2), 30);
        let r = h.take_report(100).unwrap();
        assert_eq!(r.journeys.len(), 1);
        assert_eq!(r.journeys[0].req, 2);
    }

    #[test]
    fn sample_captures_cumulative_totals_and_gauges() {
        let h = FlowHandle::new(FlowSpec::default(), 16, 26);
        h.link_crossing(NodeId(0), NodeId(1), MsgClass::Atomic, 1, 2, 2);
        h.record_sample(1024, 3, 4, 5);
        h.link_crossing(NodeId(1), NodeId(2), MsgClass::Atomic, 1, 0, 2);
        h.record_sample(2048, 0, 0, 0);
        let r = h.take_report(4096).unwrap();
        assert_eq!(r.samples.len(), 2);
        assert_eq!(r.samples[0].flits, 1);
        assert_eq!(r.samples[0].queue_cycles, 2);
        assert_eq!(r.samples[0].mshr_occupancy, 3);
        assert_eq!(r.samples[0].sb_occupancy, 4);
        assert_eq!(r.samples[0].pending_reqs, 5);
        assert_eq!(r.samples[1].flits, 2);
    }
}
