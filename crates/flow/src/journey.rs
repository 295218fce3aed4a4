//! Sampled request journeys: a per-hop record of one memory request's
//! life, from the cycle its CU issued it to the cycle its value came
//! back.
//!
//! Sampling is by request id — ids are minted densely in issue order,
//! so "every Nth request" is deterministic and independent of anything
//! an observer could perturb. A sampled journey collects every message
//! the mesh carries for its cache line while it is in flight, each with
//! injection/arrival cycles and the link-queueing share of its latency.
//! [`Journey::stages`] then decomposes the end-to-end latency into the
//! pipeline stages of the paper's Table 3 walk (L1 miss handling,
//! request network, L2 bank service, reply network, completion), with
//! an exact-sum guarantee: the seven stage durations always add up to
//! the journey's latency.

use gsim_trace::JourneyKind;
use gsim_types::{Cycle, JsonValue, MsgClass, NodeId};

/// Stage labels, in pipeline order. `Journey::stages` returns durations
/// in this order.
pub const STAGE_LABELS: [&str; 7] = [
    "l1-issue",
    "req-queue",
    "req-transit",
    "l2-service",
    "reply-queue",
    "reply-transit",
    "complete",
];

/// One mesh message observed on behalf of a journey.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JourneyHop {
    /// Injecting node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Whether the message was addressed to an L2 bank (the request
    /// direction) as opposed to an L1 (the reply direction).
    pub to_l2: bool,
    /// Message class.
    pub class: MsgClass,
    /// Flit count.
    pub flits: u32,
    /// Injection cycle.
    pub inject: Cycle,
    /// Arrival cycle (head + tail serialization).
    pub arrival: Cycle,
    /// Cycles spent waiting for busy links along the route.
    pub queue: Cycle,
}

/// One sampled request journey.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Journey {
    /// The request id (dense issue order; `(req - 1) % period == 0`
    /// selected it).
    pub req: u64,
    /// The issuing CU's node.
    pub cu: NodeId,
    /// Request kind.
    pub kind: JourneyKind,
    /// The cache line the request targets.
    pub line: u64,
    /// Cycle the CU issued the request (journey start).
    pub start: Cycle,
    /// Cycle the value came back to the CU (journey end).
    pub end: Cycle,
    /// Messages observed for this journey's line while in flight, in
    /// injection order.
    pub hops: Vec<JourneyHop>,
}

/// Subtract-and-clamp: takes `want` cycles out of `rem`, returning what
/// was actually available. Sequential clamping is what makes the stage
/// decomposition exact-sum even when hop attribution overlaps.
fn take(rem: &mut Cycle, want: Cycle) -> Cycle {
    let t = want.min(*rem);
    *rem -= t;
    t
}

impl Journey {
    /// End-to-end latency (matches the always-on load-to-use histogram
    /// for `Load` journeys).
    pub fn latency(&self) -> Cycle {
        self.end.saturating_sub(self.start)
    }

    /// Decomposes the latency into the seven [`STAGE_LABELS`] stages.
    ///
    /// Network stages are summed from the observed hops (queueing and
    /// transit, split by direction), L1 issue is the gap before the
    /// first message, completion is the gap after the last arrival, and
    /// L2/registry/DRAM service is the residual. Each stage is clamped
    /// to the cycles not yet attributed, so the seven durations always
    /// sum to exactly [`Journey::latency`]. A journey with no hops
    /// (e.g. a miss coalesced into an outstanding MSHR entry) lands
    /// entirely in `l1-issue`.
    pub fn stages(&self) -> [Cycle; 7] {
        let mut rem = self.latency();
        let l1 = match self.hops.first() {
            Some(h) => take(&mut rem, h.inject.saturating_sub(self.start)),
            None => std::mem::take(&mut rem),
        };
        let dir_sum = |to_l2: bool| -> (Cycle, Cycle) {
            let mut queue = 0;
            let mut transit = 0;
            for h in self.hops.iter().filter(|h| h.to_l2 == to_l2) {
                queue += h.queue;
                transit += h.arrival.saturating_sub(h.inject).saturating_sub(h.queue);
            }
            (queue, transit)
        };
        let (req_q, req_t) = dir_sum(true);
        let (reply_q, reply_t) = dir_sum(false);
        let req_queue = take(&mut rem, req_q);
        let req_transit = take(&mut rem, req_t);
        let reply_queue = take(&mut rem, reply_q);
        let reply_transit = take(&mut rem, reply_t);
        let complete = match self.hops.last() {
            Some(h) => take(&mut rem, self.end.saturating_sub(h.arrival)),
            None => 0,
        };
        // Whatever is left was spent being serviced (L2 bank, registry,
        // DRAM) between the request and reply networks.
        let l2_service = rem;
        [
            l1,
            req_queue,
            req_transit,
            l2_service,
            reply_queue,
            reply_transit,
            complete,
        ]
    }

    /// JSON form (for the harness cache).
    pub fn to_json_value(&self) -> JsonValue {
        JsonValue::Obj(vec![
            ("req".into(), JsonValue::num(self.req)),
            ("cu".into(), JsonValue::num(self.cu.0)),
            ("kind".into(), JsonValue::Str(self.kind.label().into())),
            ("line".into(), JsonValue::num(self.line)),
            ("start".into(), JsonValue::num(self.start)),
            ("end".into(), JsonValue::num(self.end)),
            (
                "hops".into(),
                JsonValue::Arr(
                    self.hops
                        .iter()
                        .map(|h| {
                            JsonValue::Obj(vec![
                                ("src".into(), JsonValue::num(h.src.0)),
                                ("dst".into(), JsonValue::num(h.dst.0)),
                                ("to_l2".into(), JsonValue::num(h.to_l2 as u64)),
                                ("class".into(), JsonValue::num(h.class.index())),
                                ("flits".into(), JsonValue::num(h.flits)),
                                ("inject".into(), JsonValue::num(h.inject)),
                                ("arrival".into(), JsonValue::num(h.arrival)),
                                ("queue".into(), JsonValue::num(h.queue)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hop(to_l2: bool, inject: Cycle, arrival: Cycle, queue: Cycle) -> JourneyHop {
        JourneyHop {
            src: NodeId(0),
            dst: NodeId(5),
            to_l2,
            class: MsgClass::Read,
            flits: 1,
            inject,
            arrival,
            queue,
        }
    }

    #[test]
    fn stages_sum_exactly_to_latency() {
        let j = Journey {
            req: 1,
            cu: NodeId(0),
            kind: JourneyKind::Load,
            line: 7,
            start: 100,
            end: 160,
            hops: vec![hop(true, 102, 110, 3), hop(false, 130, 141, 0)],
        };
        let s = j.stages();
        assert_eq!(s.iter().sum::<Cycle>(), j.latency());
        assert_eq!(s[0], 2, "l1-issue = gap before first inject");
        assert_eq!(s[1], 3, "req-queue");
        assert_eq!(s[2], 5, "req-transit = 8 - 3 queued");
        assert_eq!(s[3], 20, "l2-service residual: 130 inject - 110 arrival");
        assert_eq!(s[4], 0);
        assert_eq!(s[5], 11);
        assert_eq!(s[6], 19, "complete = 160 - 141");
    }

    #[test]
    fn hopless_journey_is_all_l1_issue() {
        let j = Journey {
            req: 65,
            cu: NodeId(3),
            kind: JourneyKind::Load,
            line: 9,
            start: 50,
            end: 90,
            hops: vec![],
        };
        let s = j.stages();
        assert_eq!(s[0], 40);
        assert_eq!(s.iter().sum::<Cycle>(), 40);
    }

    #[test]
    fn overlapping_attribution_still_sums_exactly() {
        // Hop claims more cycles than the journey has: clamping caps it.
        let j = Journey {
            req: 1,
            cu: NodeId(0),
            kind: JourneyKind::Atomic,
            line: 0,
            start: 10,
            end: 20,
            hops: vec![hop(true, 11, 40, 25)],
        };
        let s = j.stages();
        assert_eq!(s.iter().sum::<Cycle>(), 10);
    }
}
