//! The flow report: the immutable result of a flow-observed run, with
//! reconciliation against the mesh's aggregate traffic, JSON
//! export, CSV/Perfetto exports, and text renderers.

use crate::journey::{Journey, STAGE_LABELS};
use crate::sample::FlowSample;
use gsim_trace::{JourneyKind, JourneySpan};
use gsim_types::{Cycle, JsonValue, MsgClass, TrafficBreakdown};
use std::fmt::Write as _;

/// One directed link's accumulated traffic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LinkRow {
    /// Source node of the link.
    pub from: u8,
    /// Destination node of the link.
    pub to: u8,
    /// Flit crossings per message class (`MsgClass::index` order).
    pub flits: [u64; 4],
    /// Messages that crossed the link.
    pub msgs: u64,
    /// Cycles messages waited for the link.
    pub queue_cycles: u64,
    /// Cycles messages spent traversing the link.
    pub transit_cycles: u64,
}

impl LinkRow {
    /// Total flits, all classes.
    pub fn total_flits(&self) -> u64 {
        self.flits.iter().sum()
    }
}

/// Everything a flow-observed run produced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlowReport {
    /// `SimStats::cycles` of the run.
    pub cycles: Cycle,
    /// The occupancy sampling interval used.
    pub interval: Cycle,
    /// The journey sampling period used.
    pub journey_period: u64,
    /// Mesh node count (links index into an `nodes x nodes` grid).
    pub nodes: usize,
    /// L2 bank service latency (denominator of the busy fraction).
    pub l2_latency: Cycle,
    /// Active links (at least one message), ordered by `(from, to)`.
    pub links: Vec<LinkRow>,
    /// Messages delivered per L2 bank, indexed by node.
    pub bank_msgs: Vec<u64>,
    /// Occupancy samples, cumulative counters plus gauges.
    pub samples: Vec<FlowSample>,
    /// Samples dropped after the ring filled.
    pub dropped_samples: u64,
    /// Completed sampled journeys, in begin order.
    pub journeys: Vec<Journey>,
    /// Journeys dropped after the store filled.
    pub dropped_journeys: u64,
}

impl FlowReport {
    /// Per-class flit totals summed over all links.
    pub fn class_totals(&self) -> [u64; 4] {
        let mut t = [0u64; 4];
        for l in &self.links {
            for (acc, f) in t.iter_mut().zip(l.flits.iter()) {
                *acc += f;
            }
        }
        t
    }

    /// Total flits over all links and classes.
    pub fn total_flits(&self) -> u64 {
        self.class_totals().iter().sum()
    }

    /// Checks the attribution invariant against the mesh's aggregate
    /// accounting: summing this report's per-link flit counts must
    /// reproduce `traffic` class-for-class (each message contributes
    /// its flit count to every link on its route, and the aggregate
    /// records `flits x hops` per message).
    pub fn reconcile(&self, traffic: &TrafficBreakdown) -> Result<(), String> {
        let totals = self.class_totals();
        for class in MsgClass::ALL {
            let got = totals[class.index()];
            let want = traffic.class(class);
            if got != want {
                return Err(format!(
                    "per-link {} flits sum to {got}, mesh aggregate says {want}",
                    class.label()
                ));
            }
        }
        Ok(())
    }

    // ---- JSON ----

    /// The report as a JSON tree (stable schema).
    pub fn to_json_value(&self) -> JsonValue {
        let links = self
            .links
            .iter()
            .map(|l| {
                JsonValue::Obj(vec![
                    ("from".into(), JsonValue::num(l.from)),
                    ("to".into(), JsonValue::num(l.to)),
                    (
                        "flits".into(),
                        JsonValue::Arr(l.flits.iter().map(|&f| JsonValue::num(f)).collect()),
                    ),
                    ("msgs".into(), JsonValue::num(l.msgs)),
                    ("queue_cycles".into(), JsonValue::num(l.queue_cycles)),
                    ("transit_cycles".into(), JsonValue::num(l.transit_cycles)),
                ])
            })
            .collect();
        let samples = self
            .samples
            .iter()
            .map(|s| {
                JsonValue::Obj(vec![
                    ("cycle".into(), JsonValue::num(s.cycle)),
                    ("flits".into(), JsonValue::num(s.flits)),
                    ("queue_cycles".into(), JsonValue::num(s.queue_cycles)),
                    ("l2_msgs".into(), JsonValue::num(s.l2_msgs)),
                    ("mshr_occupancy".into(), JsonValue::num(s.mshr_occupancy)),
                    ("sb_occupancy".into(), JsonValue::num(s.sb_occupancy)),
                    ("pending_reqs".into(), JsonValue::num(s.pending_reqs)),
                    ("active_journeys".into(), JsonValue::num(s.active_journeys)),
                ])
            })
            .collect();
        JsonValue::Obj(vec![
            ("cycles".into(), JsonValue::num(self.cycles)),
            ("interval".into(), JsonValue::num(self.interval)),
            ("journey_period".into(), JsonValue::num(self.journey_period)),
            ("nodes".into(), JsonValue::num(self.nodes as u64)),
            ("l2_latency".into(), JsonValue::num(self.l2_latency)),
            (
                "dropped_samples".into(),
                JsonValue::num(self.dropped_samples),
            ),
            (
                "dropped_journeys".into(),
                JsonValue::num(self.dropped_journeys),
            ),
            ("links".into(), JsonValue::Arr(links)),
            (
                "bank_msgs".into(),
                JsonValue::Arr(self.bank_msgs.iter().map(|&m| JsonValue::num(m)).collect()),
            ),
            ("samples".into(), JsonValue::Arr(samples)),
            (
                "journeys".into(),
                JsonValue::Arr(self.journeys.iter().map(Journey::to_json_value).collect()),
            ),
        ])
    }

    /// Compact JSON text.
    pub fn to_json(&self) -> String {
        self.to_json_value().to_string()
    }

    // ---- exports ----

    /// The occupancy series as CSV with per-interval deltas for the
    /// counter columns and instantaneous values for the gauges.
    pub fn intervals_csv(&self) -> String {
        let mut out = String::from(
            "cycle,flits,queue_cycles,l2_msgs,mshr_occupancy,sb_occupancy,pending_reqs,active_journeys\n",
        );
        let mut prev = FlowSample::default();
        for s in &self.samples {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{},{}",
                s.cycle,
                s.flits - prev.flits,
                s.queue_cycles - prev.queue_cycles,
                s.l2_msgs - prev.l2_msgs,
                s.mshr_occupancy,
                s.sb_occupancy,
                s.pending_reqs,
                s.active_journeys,
            );
            prev = *s;
        }
        out
    }

    /// The per-link table as CSV, one row per active link.
    pub fn links_csv(&self) -> String {
        let mut out =
            String::from("from,to,read_flits,reg_flits,wbwt_flits,atomic_flits,msgs,queue_cycles,transit_cycles\n");
        for l in &self.links {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{},{},{}",
                l.from,
                l.to,
                l.flits[0],
                l.flits[1],
                l.flits[2],
                l.flits[3],
                l.msgs,
                l.queue_cycles,
                l.transit_cycles,
            );
        }
        out
    }

    /// The occupancy series as named counter tracks — one
    /// `(name, points)` pair per metric, ready for `gsim-trace`'s
    /// Perfetto counter-track writer. Rates are per-interval deltas;
    /// occupancies are gauges.
    pub fn counter_series(&self) -> Vec<(String, Vec<(Cycle, f64)>)> {
        let n = self.samples.len();
        let mut flits = Vec::with_capacity(n);
        let mut queue = Vec::with_capacity(n);
        let mut l2 = Vec::with_capacity(n);
        let mut mshr = Vec::with_capacity(n);
        let mut sb = Vec::with_capacity(n);
        let mut pending = Vec::with_capacity(n);
        let mut active = Vec::with_capacity(n);
        let mut prev = FlowSample::default();
        for s in &self.samples {
            flits.push((s.cycle, (s.flits - prev.flits) as f64));
            queue.push((s.cycle, (s.queue_cycles - prev.queue_cycles) as f64));
            l2.push((s.cycle, (s.l2_msgs - prev.l2_msgs) as f64));
            mshr.push((s.cycle, s.mshr_occupancy as f64));
            sb.push((s.cycle, s.sb_occupancy as f64));
            pending.push((s.cycle, s.pending_reqs as f64));
            active.push((s.cycle, s.active_journeys as f64));
            prev = *s;
        }
        vec![
            ("flits-per-interval".into(), flits),
            ("link-queue-per-interval".into(), queue),
            ("l2-msgs-per-interval".into(), l2),
            ("mshr-occupancy".into(), mshr),
            ("sb-occupancy".into(), sb),
            ("pending-reqs".into(), pending),
            ("active-journeys".into(), active),
        ]
    }

    /// The sampled journeys as Perfetto span groups: one async track
    /// per journey, one span per non-empty pipeline stage, contiguous
    /// from issue to completion.
    pub fn journey_spans(&self) -> Vec<JourneySpan> {
        self.journeys
            .iter()
            .map(|j| {
                let mut stages = Vec::new();
                let mut t = j.start;
                for (label, d) in STAGE_LABELS.iter().zip(j.stages()) {
                    if d > 0 {
                        stages.push(((*label).to_string(), t, t + d));
                    }
                    t += d;
                }
                JourneySpan {
                    id: j.req,
                    name: format!(
                        "{} req {} cu{} line {:#x}",
                        j.kind.label(),
                        j.req,
                        j.cu.0,
                        j.line
                    ),
                    stages,
                }
            })
            .collect()
    }

    // ---- renderers ----

    /// The per-link table, hottest first: flits by class, utilization
    /// (a link moves one flit per cycle), and the queueing share of
    /// link occupancy.
    pub fn render_links(&self, topn: usize) -> String {
        let mut ranked: Vec<&LinkRow> = self.links.iter().collect();
        ranked
            .sort_by(|a, b| (b.total_flits(), a.from, a.to).cmp(&(a.total_flits(), b.from, b.to)));
        let mut out = format!(
            "per-link traffic (top {} of {} active links; {} flits total)\n",
            topn.min(ranked.len()),
            ranked.len(),
            self.total_flits()
        );
        let _ = writeln!(
            out,
            "  {:<8} {:>9} {:>9} {:>9} {:>9} {:>9} {:>6} {:>7}",
            "link", "flits", "Read", "Regist.", "WB/WT", "Atomics", "util%", "queue%"
        );
        for l in ranked.into_iter().take(topn) {
            let util = if self.cycles > 0 {
                100.0 * l.total_flits() as f64 / self.cycles as f64
            } else {
                0.0
            };
            let occ = l.queue_cycles + l.transit_cycles;
            let queue = if occ > 0 {
                100.0 * l.queue_cycles as f64 / occ as f64
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "  {:<8} {:>9} {:>9} {:>9} {:>9} {:>9} {:>5.1}% {:>6.1}%",
                format!("{}->{}", l.from, l.to),
                l.total_flits(),
                l.flits[0],
                l.flits[1],
                l.flits[2],
                l.flits[3],
                util,
                queue,
            );
        }
        out
    }

    /// Per-L2-bank delivery counts and busy fractions (messages times
    /// the bank service latency over the run's cycles).
    pub fn render_banks(&self) -> String {
        let total: u64 = self.bank_msgs.iter().sum();
        let mut out = format!(
            "L2 bank occupancy ({total} deliveries, {} cycles service each)\n",
            self.l2_latency
        );
        let _ = writeln!(out, "  {:>4} {:>10} {:>7}", "bank", "msgs", "busy%");
        for (bank, &msgs) in self.bank_msgs.iter().enumerate() {
            let busy = if self.cycles > 0 {
                100.0 * (msgs * self.l2_latency) as f64 / self.cycles as f64
            } else {
                0.0
            };
            let _ = writeln!(out, "  {bank:>4} {msgs:>10} {busy:>6.1}%");
        }
        out
    }

    /// The latency waterfall: per-stage medians, means, and maxima over
    /// the sampled journeys, decomposing the end-to-end latency
    /// distribution into pipeline stages.
    pub fn render_waterfall(&self) -> String {
        let loads = self
            .journeys
            .iter()
            .filter(|j| j.kind == JourneyKind::Load)
            .count();
        let mut out = format!(
            "journey waterfall ({} journeys, every {}th request: {} loads, {} atomics",
            self.journeys.len(),
            self.journey_period,
            loads,
            self.journeys.len() - loads,
        );
        if self.dropped_journeys > 0 {
            let _ = write!(out, "; {} dropped", self.dropped_journeys);
        }
        out.push_str(")\n");
        let _ = writeln!(
            out,
            "  {:<14} {:>8} {:>8} {:>8}",
            "stage", "median", "mean", "max"
        );
        let mut stage_values: Vec<Vec<Cycle>> = vec![Vec::new(); STAGE_LABELS.len()];
        let mut totals: Vec<Cycle> = Vec::new();
        for j in &self.journeys {
            for (vals, d) in stage_values.iter_mut().zip(j.stages()) {
                vals.push(d);
            }
            totals.push(j.latency());
        }
        let row = |out: &mut String, label: &str, vals: &mut Vec<Cycle>| {
            if vals.is_empty() {
                return;
            }
            vals.sort_unstable();
            let median = vals[vals.len() / 2];
            let mean = vals.iter().sum::<Cycle>() as f64 / vals.len() as f64;
            let max = *vals.last().unwrap();
            let _ = writeln!(out, "  {label:<14} {median:>8} {mean:>8.1} {max:>8}");
        };
        for (label, vals) in STAGE_LABELS.iter().zip(stage_values.iter_mut()) {
            row(&mut out, label, vals);
        }
        row(&mut out, "total", &mut totals);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journey::JourneyHop;
    use gsim_types::NodeId;

    fn sample_report() -> FlowReport {
        FlowReport {
            cycles: 1000,
            interval: 256,
            journey_period: 4,
            nodes: 16,
            l2_latency: 26,
            links: vec![
                LinkRow {
                    from: 0,
                    to: 1,
                    flits: [10, 0, 4, 2],
                    msgs: 7,
                    queue_cycles: 6,
                    transit_cycles: 14,
                },
                LinkRow {
                    from: 1,
                    to: 2,
                    flits: [5, 3, 0, 0],
                    msgs: 3,
                    queue_cycles: 0,
                    transit_cycles: 6,
                },
            ],
            bank_msgs: {
                let mut b = vec![0; 16];
                b[2] = 9;
                b
            },
            samples: vec![
                FlowSample {
                    cycle: 256,
                    flits: 12,
                    queue_cycles: 4,
                    l2_msgs: 5,
                    mshr_occupancy: 2,
                    sb_occupancy: 1,
                    pending_reqs: 3,
                    active_journeys: 1,
                },
                FlowSample {
                    cycle: 512,
                    flits: 24,
                    queue_cycles: 6,
                    l2_msgs: 9,
                    mshr_occupancy: 0,
                    sb_occupancy: 0,
                    pending_reqs: 0,
                    active_journeys: 0,
                },
            ],
            dropped_samples: 0,
            journeys: vec![Journey {
                req: 1,
                cu: NodeId(0),
                kind: JourneyKind::Load,
                line: 0x2a,
                start: 100,
                end: 160,
                hops: vec![
                    JourneyHop {
                        src: NodeId(0),
                        dst: NodeId(2),
                        to_l2: true,
                        class: MsgClass::Read,
                        flits: 1,
                        inject: 102,
                        arrival: 110,
                        queue: 3,
                    },
                    JourneyHop {
                        src: NodeId(2),
                        dst: NodeId(0),
                        to_l2: false,
                        class: MsgClass::Read,
                        flits: 5,
                        inject: 136,
                        arrival: 149,
                        queue: 0,
                    },
                ],
            }],
            dropped_journeys: 0,
        }
    }

    #[test]
    fn reconcile_accepts_and_rejects() {
        let r = sample_report();
        let mut traffic = TrafficBreakdown::default();
        let totals = r.class_totals();
        assert_eq!(totals, [15, 3, 4, 2]);
        for class in MsgClass::ALL {
            traffic.record(class, 1, totals[class.index()] as u32);
        }
        assert!(r.reconcile(&traffic).is_ok());
        traffic.record(MsgClass::Read, 1, 1);
        let err = r.reconcile(&traffic).unwrap_err();
        assert!(err.contains("Read"), "{err}");
    }

    #[test]
    fn csv_deltas_and_series() {
        let r = sample_report();
        let csv = r.intervals_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("cycle,flits,queue_cycles,l2_msgs"));
        assert_eq!(lines[1], "256,12,4,5,2,1,3,1");
        assert_eq!(lines[2], "512,12,2,4,0,0,0,0");
        let series = r.counter_series();
        assert_eq!(series.len(), 7);
        assert_eq!(series[0].0, "flits-per-interval");
        assert_eq!(series[0].1, vec![(256, 12.0), (512, 12.0)]);
        assert_eq!(series[6].1, vec![(256, 1.0), (512, 0.0)]);
        let links = r.links_csv();
        assert_eq!(links.lines().nth(1).unwrap(), "0,1,10,0,4,2,7,6,14");
    }

    #[test]
    fn journey_spans_are_contiguous() {
        let r = sample_report();
        let spans = r.journey_spans();
        assert_eq!(spans.len(), 1);
        let s = &spans[0];
        assert_eq!(s.id, 1);
        assert!(s.name.contains("load"), "{}", s.name);
        assert_eq!(s.stages.first().unwrap().1, 100, "starts at issue");
        assert_eq!(s.stages.last().unwrap().2, 160, "ends at completion");
        for w in s.stages.windows(2) {
            assert_eq!(w[0].2, w[1].1, "stages tile the journey");
        }
    }

    #[test]
    fn renderers_mention_stages_links_and_banks() {
        let r = sample_report();
        let links = r.render_links(10);
        assert!(links.contains("0->1"), "{links}");
        assert!(links.contains("Regist."), "{links}");
        let banks = r.render_banks();
        assert!(banks.contains("busy%"), "{banks}");
        let wf = r.render_waterfall();
        for label in STAGE_LABELS {
            assert!(wf.contains(label), "{wf}");
        }
        assert!(wf.contains("total"), "{wf}");
    }
}
