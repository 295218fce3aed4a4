//! The profile report: the immutable result of a profiled run, with
//! reconciliation, annotation, JSON export, and renderers.

use gsim_trace::{IntervalSample, StallKind, NUM_STALL_KINDS, STALL_KINDS};
use gsim_types::{Counts, Cycle, JsonValue, LineAddr, RegionMap};
use std::fmt::Write as _;

/// One CU's share of the run: its stall buckets and its counters (the
/// engine-side per-CU counters plus its L1's counters).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CuRow {
    /// Cycles charged per bucket, indexed by `StallKind as usize`; sums
    /// exactly to the run's cycles.
    pub buckets: [u64; NUM_STALL_KINDS],
    /// This CU's counters.
    pub counts: Counts,
}

impl CuRow {
    /// Cycles this row attributes (equals the run's cycles).
    pub fn attributed(&self) -> u64 {
        self.buckets.iter().sum()
    }
}

/// One contended line from the merged sketches.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HotLine {
    /// The line address (line index, not bytes).
    pub line: u64,
    /// Workload region containing the line, when a [`RegionMap`] was
    /// supplied (see [`ProfileReport::annotate`]).
    pub region: Option<String>,
    /// Program accesses at L1s plus L2/registry operations.
    pub accesses: u64,
    /// Words invalidated by acquire sweeps.
    pub invalidations: u64,
    /// Words whose registered owner changed (DeNovo ping-pong).
    pub transfers: u64,
    /// Registry forwards targeting the line.
    pub forwards: u64,
    /// Sketch overestimate bound inherited through evictions; the
    /// tallies above are exact for the line's resident period.
    pub err: u64,
}

impl HotLine {
    /// Total event weight (the ranking key).
    pub fn weight(&self) -> u64 {
        self.accesses + self.invalidations + self.transfers + self.forwards
    }
}

/// Everything a profiled run produced.
#[derive(Clone, Debug, PartialEq)]
pub struct ProfileReport {
    /// `SimStats::cycles` of the run.
    pub cycles: Cycle,
    /// The sampling interval used.
    pub interval: Cycle,
    /// Per-CU rows, indexed by CU.
    pub cus: Vec<CuRow>,
    /// The residual: non-CU L1s, the L2, and the mesh counters. The CU
    /// rows plus this sum exactly to the run's global `Counts`.
    pub other: Counts,
    /// Contended lines, ranked by weight descending (ties: lower line
    /// address first).
    pub hot_lines: Vec<HotLine>,
    /// Sketch capacity per cache (the error-bound denominator).
    pub sketch_capacity: usize,
    /// Total sketch updates across all caches (the error-bound
    /// numerator source: per-sketch `err <= updates / capacity`).
    pub sketch_updates: u64,
    /// Interval samples, cumulative counters plus gauges.
    pub samples: Vec<IntervalSample>,
    /// Samples dropped after the ring filled.
    pub dropped_samples: u64,
}

impl ProfileReport {
    /// Bucket sums across all CUs.
    pub fn bucket_totals(&self) -> [u64; NUM_STALL_KINDS] {
        let mut t = [0u64; NUM_STALL_KINDS];
        for cu in &self.cus {
            for (acc, b) in t.iter_mut().zip(cu.buckets.iter()) {
                *acc += b;
            }
        }
        t
    }

    /// Cycles attributed to one bucket, summed over CUs.
    pub fn bucket(&self, kind: StallKind) -> u64 {
        self.cus.iter().map(|c| c.buckets[kind as usize]).sum()
    }

    /// Sum of all per-CU rows plus the residual — must equal the run's
    /// global `Counts`.
    fn total_counts(&self) -> Counts {
        let mut t = self.other;
        for cu in &self.cus {
            t += cu.counts;
        }
        t
    }

    /// Checks the report's two exactness invariants against the run's
    /// stats: every CU's buckets sum to `stats.cycles`, and the CU rows
    /// plus the residual reproduce `stats.counts` field-for-field.
    pub fn reconcile(&self, cycles: Cycle, counts: &Counts) -> Result<(), String> {
        if self.cycles != cycles {
            return Err(format!(
                "report cycles {} != run cycles {}",
                self.cycles, cycles
            ));
        }
        for (cu, row) in self.cus.iter().enumerate() {
            let got = row.attributed();
            if got != cycles {
                return Err(format!(
                    "CU {cu}: attributed {got} cycles, run has {cycles}"
                ));
            }
        }
        let total = self.total_counts();
        if total != *counts {
            return Err(format!(
                "per-CU rows + residual do not reproduce global counts:\n  rows: {:?}\n  glob: {:?}",
                total, counts
            ));
        }
        Ok(())
    }

    /// Resolves hot-line addresses against a workload's region map.
    pub fn annotate(&mut self, regions: &RegionMap) {
        for h in &mut self.hot_lines {
            h.region = regions.label_line(LineAddr(h.line)).map(str::to_owned);
        }
    }

    // ---- JSON ----

    /// The report as a JSON tree (stable schema).
    pub fn to_json_value(&self) -> JsonValue {
        let cus = self
            .cus
            .iter()
            .map(|row| {
                let buckets = STALL_KINDS
                    .into_iter()
                    .map(|k| {
                        (
                            k.label().to_string(),
                            JsonValue::num(row.buckets[k as usize]),
                        )
                    })
                    .collect();
                JsonValue::Obj(vec![
                    ("buckets".into(), JsonValue::Obj(buckets)),
                    ("counts".into(), row.counts.to_json_value()),
                ])
            })
            .collect();
        let hot_lines = self
            .hot_lines
            .iter()
            .map(|h| {
                JsonValue::Obj(vec![
                    ("line".into(), JsonValue::num(h.line)),
                    (
                        "region".into(),
                        match &h.region {
                            Some(r) => JsonValue::Str(r.clone()),
                            None => JsonValue::Null,
                        },
                    ),
                    ("accesses".into(), JsonValue::num(h.accesses)),
                    ("invalidations".into(), JsonValue::num(h.invalidations)),
                    ("transfers".into(), JsonValue::num(h.transfers)),
                    ("forwards".into(), JsonValue::num(h.forwards)),
                    ("err".into(), JsonValue::num(h.err)),
                ])
            })
            .collect();
        let samples = self
            .samples
            .iter()
            .map(|s| {
                JsonValue::Obj(vec![
                    ("cycle".into(), JsonValue::num(s.cycle)),
                    ("instructions".into(), JsonValue::num(s.instructions)),
                    ("l1_load_hits".into(), JsonValue::num(s.l1_load_hits)),
                    ("l1_load_misses".into(), JsonValue::num(s.l1_load_misses)),
                    ("messages".into(), JsonValue::num(s.messages)),
                    ("flits".into(), JsonValue::num(s.flits)),
                    ("mshr_occupancy".into(), JsonValue::num(s.mshr_occupancy)),
                    ("sb_occupancy".into(), JsonValue::num(s.sb_occupancy)),
                    (
                        "outstanding_syncs".into(),
                        JsonValue::num(s.outstanding_syncs),
                    ),
                ])
            })
            .collect();
        JsonValue::Obj(vec![
            ("cycles".into(), JsonValue::num(self.cycles)),
            ("interval".into(), JsonValue::num(self.interval)),
            (
                "sketch_capacity".into(),
                JsonValue::num(self.sketch_capacity as u64),
            ),
            ("sketch_updates".into(), JsonValue::num(self.sketch_updates)),
            (
                "dropped_samples".into(),
                JsonValue::num(self.dropped_samples),
            ),
            ("cus".into(), JsonValue::Arr(cus)),
            ("other".into(), self.other.to_json_value()),
            ("hot_lines".into(), JsonValue::Arr(hot_lines)),
            ("samples".into(), JsonValue::Arr(samples)),
        ])
    }

    /// Compact JSON text.
    pub fn to_json(&self) -> String {
        self.to_json_value().to_string()
    }

    // ---- time-series exports ----

    /// The interval series as CSV with per-interval deltas for the
    /// counter columns and instantaneous values for the gauges.
    pub fn intervals_csv(&self) -> String {
        let mut out = String::from(
            "cycle,instructions,ipc,l1_hit_rate,messages,flits,mshr_occupancy,sb_occupancy,outstanding_syncs\n",
        );
        let mut prev = IntervalSample::default();
        for s in &self.samples {
            let dc = s.cycle.saturating_sub(prev.cycle);
            let di = s.instructions - prev.instructions;
            let dh = s.l1_load_hits - prev.l1_load_hits;
            let dm = s.l1_load_misses - prev.l1_load_misses;
            let ipc = if dc > 0 { di as f64 / dc as f64 } else { 0.0 };
            let hit = if dh + dm > 0 {
                dh as f64 / (dh + dm) as f64
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "{},{},{:.4},{:.4},{},{},{},{},{}",
                s.cycle,
                di,
                ipc,
                hit,
                s.messages - prev.messages,
                s.flits - prev.flits,
                s.mshr_occupancy,
                s.sb_occupancy,
                s.outstanding_syncs,
            );
            prev = *s;
        }
        out
    }

    /// The interval series as named counter tracks — one
    /// `(name, points)` pair per derived metric, ready for
    /// `gsim-trace`'s Perfetto counter-track writer. Rates are
    /// per-interval deltas; occupancies are gauges.
    pub fn counter_series(&self) -> Vec<(String, Vec<(Cycle, f64)>)> {
        let n = self.samples.len();
        let mut ipc = Vec::with_capacity(n);
        let mut hit = Vec::with_capacity(n);
        let mut flits = Vec::with_capacity(n);
        let mut mshr = Vec::with_capacity(n);
        let mut sb = Vec::with_capacity(n);
        let mut syncs = Vec::with_capacity(n);
        let mut prev = IntervalSample::default();
        for s in &self.samples {
            let dc = s.cycle.saturating_sub(prev.cycle);
            let di = s.instructions - prev.instructions;
            let dh = s.l1_load_hits - prev.l1_load_hits;
            let dm = s.l1_load_misses - prev.l1_load_misses;
            ipc.push((s.cycle, if dc > 0 { di as f64 / dc as f64 } else { 0.0 }));
            hit.push((
                s.cycle,
                if dh + dm > 0 {
                    dh as f64 / (dh + dm) as f64
                } else {
                    0.0
                },
            ));
            flits.push((s.cycle, (s.flits - prev.flits) as f64));
            mshr.push((s.cycle, s.mshr_occupancy as f64));
            sb.push((s.cycle, s.sb_occupancy as f64));
            syncs.push((s.cycle, s.outstanding_syncs as f64));
            prev = *s;
        }
        vec![
            ("ipc".into(), ipc),
            ("l1-hit-rate".into(), hit),
            ("flits-per-interval".into(), flits),
            ("mshr-occupancy".into(), mshr),
            ("sb-occupancy".into(), sb),
            ("outstanding-syncs".into(), syncs),
        ]
    }

    // ---- renderers ----

    /// The stall breakdown summed over CUs: one row per bucket with
    /// cycles and share of total attributed cycles.
    pub fn render_stalls(&self) -> String {
        let totals = self.bucket_totals();
        let grand: u64 = totals.iter().sum();
        let mut out = format!(
            "stall breakdown ({} CUs x {} cycles = {} attributed)\n",
            self.cus.len(),
            self.cycles,
            grand
        );
        let _ = writeln!(out, "  {:<20} {:>14} {:>8}", "bucket", "cycles", "share");
        for k in STALL_KINDS {
            let c = totals[k as usize];
            let share = if grand > 0 {
                100.0 * c as f64 / grand as f64
            } else {
                0.0
            };
            let _ = writeln!(out, "  {:<20} {:>14} {:>7.1}%", k.label(), c, share);
        }
        out
    }

    /// The per-CU matrix: one row per CU, one column per bucket, plus
    /// instructions and IPC.
    pub fn render_cus(&self) -> String {
        let mut out = String::from("per-CU attribution (cycles per bucket)\n");
        let mut header = format!("  {:>3}", "cu");
        for k in STALL_KINDS {
            let _ = write!(header, " {:>10}", k.short_label());
        }
        let _ = writeln!(out, "{header} {:>12} {:>6}", "instrs", "ipc");
        for (cu, row) in self.cus.iter().enumerate() {
            let mut line = format!("  {cu:>3}");
            for k in STALL_KINDS {
                let _ = write!(line, " {:>10}", row.buckets[k as usize]);
            }
            let ipc = if self.cycles > 0 {
                row.counts.instructions as f64 / self.cycles as f64
            } else {
                0.0
            };
            let _ = writeln!(out, "{line} {:>12} {:>6.3}", row.counts.instructions, ipc);
        }
        out
    }

    /// The top-`topn` contended lines as a table. Lines are annotated
    /// with workload regions when [`annotate`](Self::annotate) ran.
    pub fn render_hot_lines(&self, topn: usize) -> String {
        let mut out = format!(
            "hot lines (top {} of {}; sketch cap {} per cache, {} updates)\n",
            topn.min(self.hot_lines.len()),
            self.hot_lines.len(),
            self.sketch_capacity,
            self.sketch_updates
        );
        let _ = writeln!(
            out,
            "  {:>10} {:<14} {:>10} {:>8} {:>9} {:>8} {:>6}",
            "line", "region", "accesses", "invals", "transfers", "fwds", "err"
        );
        for h in self.hot_lines.iter().take(topn) {
            let _ = writeln!(
                out,
                "  {:>#10x} {:<14} {:>10} {:>8} {:>9} {:>8} {:>6}",
                h.line,
                h.region.as_deref().unwrap_or("-"),
                h.accesses,
                h.invalidations,
                h.transfers,
                h.forwards,
                h.err
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> ProfileReport {
        let mut cus = Vec::new();
        for cu in 0..2u64 {
            let mut buckets = [0u64; NUM_STALL_KINDS];
            buckets[StallKind::Issue as usize] = 60 + cu;
            buckets[StallKind::Idle as usize] = 40 - cu;
            let counts = Counts {
                instructions: 60 + cu,
                l1_accesses: 10 * (cu + 1),
                ..Default::default()
            };
            cus.push(CuRow { buckets, counts });
        }
        let other = Counts {
            l2_accesses: 7,
            messages_sent: 21,
            flit_hops: 63,
            ..Default::default()
        };
        ProfileReport {
            cycles: 100,
            interval: 16,
            cus,
            other,
            hot_lines: vec![HotLine {
                line: 0x2a,
                region: None,
                accesses: 5,
                invalidations: 2,
                transfers: 1,
                forwards: 0,
                err: 0,
            }],
            sketch_capacity: 64,
            sketch_updates: 8,
            samples: vec![
                IntervalSample {
                    cycle: 16,
                    instructions: 20,
                    l1_load_hits: 6,
                    l1_load_misses: 2,
                    messages: 4,
                    flits: 12,
                    mshr_occupancy: 1,
                    sb_occupancy: 2,
                    pending_reqs: 0,
                    outstanding_syncs: 0,
                },
                IntervalSample {
                    cycle: 32,
                    instructions: 50,
                    l1_load_hits: 14,
                    l1_load_misses: 2,
                    messages: 9,
                    flits: 30,
                    mshr_occupancy: 0,
                    sb_occupancy: 0,
                    pending_reqs: 0,
                    outstanding_syncs: 3,
                },
            ],
            dropped_samples: 0,
        }
    }

    #[test]
    fn reconcile_accepts_and_rejects() {
        let r = sample_report();
        let mut global = r.total_counts();
        assert!(r.reconcile(100, &global).is_ok());
        assert!(r.reconcile(99, &global).is_err(), "wrong cycles");
        global.instructions += 1;
        assert!(r.reconcile(100, &global).is_err(), "wrong counts");
        let mut bad = r.clone();
        bad.cus[0].buckets[0] += 1;
        assert!(
            bad.reconcile(100, &bad.total_counts()).is_err(),
            "row does not sum to cycles"
        );
    }

    #[test]
    fn csv_deltas_and_series() {
        let r = sample_report();
        let csv = r.intervals_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("cycle,instructions,ipc,l1_hit_rate"));
        // Second interval: 30 instrs over 16 cycles, 8 hits 0 misses.
        assert_eq!(lines[2], "32,30,1.8750,1.0000,5,18,0,0,3");
        let series = r.counter_series();
        assert_eq!(series.len(), 6);
        let ipc = &series[0];
        assert_eq!(ipc.0, "ipc");
        assert_eq!(ipc.1, vec![(16, 1.25), (32, 1.875)]);
        let syncs = &series[5];
        assert_eq!(syncs.1[1], (32, 3.0));
    }

    #[test]
    fn annotate_labels_hot_lines() {
        let mut r = sample_report();
        let mut m = RegionMap::default();
        // Line 0x2a = word 672; cover it.
        m.add("flags[]", 0x2a * 16, 16);
        r.annotate(&m);
        assert_eq!(r.hot_lines[0].region.as_deref(), Some("flags[]"));
        let rendered = r.render_hot_lines(10);
        assert!(rendered.contains("flags[]"), "{rendered}");
        assert!(rendered.contains("0x2a"), "{rendered}");
    }

    #[test]
    fn renderers_mention_buckets() {
        let r = sample_report();
        let s = r.render_stalls();
        assert!(s.contains("global-acquire-spin"));
        assert!(s.contains("issue"));
        let c = r.render_cus();
        assert!(c.contains("g-spin"));
        assert!(c.lines().count() >= 4);
    }
}
