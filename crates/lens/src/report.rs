//! The lens report: the immutable result of a lens-observed run, with
//! exact reconciliation against the protocol counters, JSON export,
//! CSV/Perfetto exports, and text renderers.

use gsim_prof::RegionMap;
use gsim_types::{Counts, Cycle, JsonValue, LineAddr};
use std::fmt::Write as _;

/// Reuse-distance histogram buckets: acquire epochs between two
/// accesses to the same line by the same node — `0` (same epoch), `1`
/// (survived exactly one boundary, the paper's "retained at
/// synchronization" case), `2`, `3-7`, `8+`.
pub const REUSE_BUCKETS: usize = 5;

/// Human labels of the [`REUSE_BUCKETS`] distance buckets.
pub const REUSE_LABELS: [&str; REUSE_BUCKETS] = ["0", "1", "2", "3-7", "8+"];

/// The histogram bucket of one reuse distance (in acquire epochs).
pub fn reuse_bucket(distance: u64) -> usize {
    match distance {
        0 => 0,
        1 => 1,
        2 => 2,
        3..=7 => 3,
        _ => 4,
    }
}

/// One node's acquire cost ledger: what its L1 dropped at global
/// acquires, and how much of that drop was provably wasted (re-fetched
/// before being overwritten).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AcquireLedger {
    /// The L1's node id.
    pub node: u32,
    /// Global acquires that reached this L1 (kernel launches and
    /// globally scoped sync acquires; local acquires invalidate
    /// nothing and are not counted).
    pub acquires: u64,
    /// Acquires that flash-invalidated the whole cache (GPU coherence
    /// only; sums to `Counts::flash_invalidations`).
    pub flash_acquires: u64,
    /// Words dropped while still valid (sums to
    /// `Counts::words_invalidated`).
    pub words_dropped: u64,
    /// Dropped words later re-fetched from L2 before any local store
    /// overwrote them — the provably wasted share of `words_dropped`.
    pub words_refetched: u64,
    /// Payload flits those re-fetches cost (4 words per 16-byte flit,
    /// excluding the shared message header).
    pub refetch_flits: u64,
    /// Demand misses whose missing word had been dropped at an acquire
    /// (each one a round-trip the invalidation caused).
    pub refetch_misses: u64,
    /// Load-to-use cycles spent waiting on those refetch misses.
    pub stall_cycles: u64,
    /// Dropped words overwritten by a local store before any re-fetch
    /// (invalidated, but the data was dead anyway — not waste).
    pub words_overwritten: u64,
}

/// Lifecycle counters of one hot cache line.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LineRow {
    /// The line address.
    pub line: u64,
    /// Workload region containing the line, when the benchmark declares
    /// named regions (see [`LensReport::annotate`]).
    pub region: Option<String>,
    /// Valid words dropped at acquires, summed over nodes.
    pub inv_words: u64,
    /// Dropped words re-fetched before overwrite (waste on this line).
    pub refetch_words: u64,
    /// Words installed as Valid (read fills).
    pub valid_installs: u64,
    /// Words installed as Owned (registration grants).
    pub owned_installs: u64,
    /// Owned words stolen by a forwarded registration (ownership
    /// transferred L1-to-L1 without an L2 round-trip for the data).
    pub steals: u64,
    /// Owned words written back on eviction.
    pub wb_words: u64,
    /// Words registered at the L2 (immediate grants).
    pub l2_reg_words: u64,
    /// Words whose L2 registration moved to a new owner (ownership
    /// churn at the registry).
    pub l2_transfer_words: u64,
    /// L1 load hits within the same acquire epoch as the previous
    /// access.
    pub hits_same: u64,
    /// L1 load hits that crossed at least one acquire boundary since
    /// the previous access — data the protocol retained across sync.
    pub hits_cross: u64,
    /// L1 load misses within the same acquire epoch.
    pub miss_same: u64,
    /// L1 load misses across an acquire boundary — reuse the protocol
    /// failed to retain.
    pub miss_cross: u64,
    /// Reuse-distance histogram of this line's repeat accesses
    /// (hits and misses combined), bucketed by [`reuse_bucket`].
    pub reuse: [u64; REUSE_BUCKETS],
}

impl LineRow {
    /// Total lifecycle activity — the ranking key of the per-line
    /// table.
    pub fn activity(&self) -> u64 {
        self.inv_words
            + self.refetch_words
            + self.valid_installs
            + self.owned_installs
            + self.steals
            + self.wb_words
            + self.l2_reg_words
            + self.l2_transfer_words
            + self.hits_same
            + self.hits_cross
            + self.miss_same
            + self.miss_cross
    }
}

/// One global-acquire event: when, where, and how many still-valid
/// words the sweep dropped.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AcquireEvent {
    /// Cycle of the acquire.
    pub cycle: Cycle,
    /// The acquiring L1's node id.
    pub node: u32,
    /// Valid words the sweep dropped.
    pub words_dropped: u64,
}

/// Everything a lens-observed run produced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LensReport {
    /// `SimStats::cycles` of the run.
    pub cycles: Cycle,
    /// Node count of the fabric (ledger rows cover `0..nodes`).
    pub nodes: usize,
    /// The per-line table size the run was configured with.
    pub topk: usize,
    /// Per-node acquire cost ledgers, indexed by node.
    pub ledger: Vec<AcquireLedger>,
    /// The top-`topk` hottest lines by [`LineRow::activity`],
    /// descending (ties toward the lower line address).
    pub lines: Vec<LineRow>,
    /// Per-line lifecycle updates discarded after the line-tracking
    /// map filled (global and ledger counters stay exact — only the
    /// per-line view truncates).
    pub dropped_lines: u64,
    /// Owned words written back on eviction, all lines (sums to
    /// `Counts::ownership_writebacks`).
    pub ownership_wb_words: u64,
    /// Owned words transferred L1-to-L1 via forwarded registrations.
    pub steal_words: u64,
    /// Words registered at the L2 (immediate grants), all lines. With
    /// `l2_transfer_words`, sums to `Counts::registrations`.
    pub l2_reg_words: u64,
    /// Words whose registration moved owners at the L2, all lines.
    pub l2_transfer_words: u64,
    /// Reuse-distance histogram of L1 load hits with a prior access to
    /// the same line ([`REUSE_LABELS`] buckets).
    pub reuse_hits: [u64; REUSE_BUCKETS],
    /// Reuse-distance histogram of L1 load misses with a prior access.
    pub reuse_misses: [u64; REUSE_BUCKETS],
    /// Per-acquire drop events, in cycle order (the Perfetto counter
    /// track), capped at the collector's event budget.
    pub events: Vec<AcquireEvent>,
    /// Acquire events dropped after the event budget filled.
    pub dropped_events: u64,
}

impl LensReport {
    // ---- ledger totals ----

    /// Global acquires over all nodes.
    pub fn acquires(&self) -> u64 {
        self.ledger.iter().map(|l| l.acquires).sum()
    }

    /// Flash invalidations over all nodes.
    pub fn flash_acquires(&self) -> u64 {
        self.ledger.iter().map(|l| l.flash_acquires).sum()
    }

    /// Still-valid words dropped over all nodes.
    pub fn words_dropped(&self) -> u64 {
        self.ledger.iter().map(|l| l.words_dropped).sum()
    }

    /// Dropped words re-fetched before overwrite, over all nodes.
    pub fn words_refetched(&self) -> u64 {
        self.ledger.iter().map(|l| l.words_refetched).sum()
    }

    /// Payload flits the re-fetches cost, over all nodes.
    pub fn refetch_flits(&self) -> u64 {
        self.ledger.iter().map(|l| l.refetch_flits).sum()
    }

    /// Demand misses caused by acquire drops, over all nodes.
    pub fn refetch_misses(&self) -> u64 {
        self.ledger.iter().map(|l| l.refetch_misses).sum()
    }

    /// Load-to-use cycles spent on those misses, over all nodes.
    pub fn stall_cycles(&self) -> u64 {
        self.ledger.iter().map(|l| l.stall_cycles).sum()
    }

    /// Dropped words overwritten before re-fetch, over all nodes.
    pub fn words_overwritten(&self) -> u64 {
        self.ledger.iter().map(|l| l.words_overwritten).sum()
    }

    /// The wasted share of the drop: `words_refetched / words_dropped`
    /// as a percentage (0 when nothing was dropped).
    pub fn waste_pct(&self) -> f64 {
        let dropped = self.words_dropped();
        if dropped == 0 {
            return 0.0;
        }
        100.0 * self.words_refetched() as f64 / dropped as f64
    }

    /// Hits across an acquire boundary — the paper's "retained at
    /// synchronization" reuse, observed directly.
    pub fn cross_sync_hits(&self) -> u64 {
        self.reuse_hits[1..].iter().sum()
    }

    /// Misses across an acquire boundary — reuse the protocol failed to
    /// retain.
    fn cross_sync_misses(&self) -> u64 {
        self.reuse_misses[1..].iter().sum()
    }

    // ---- reconciliation ----

    /// Checks the ledger against the protocol's own counters: the lens
    /// hooks sit beside the counter bumps, so the sums must reproduce
    /// `Counts` **exactly** — any drift means a hook was missed or
    /// double-fired.
    pub fn reconcile(&self, counts: &Counts) -> Result<(), String> {
        let checks = [
            (
                "flash_invalidations",
                self.flash_acquires(),
                counts.flash_invalidations,
            ),
            (
                "words_invalidated",
                self.words_dropped(),
                counts.words_invalidated,
            ),
            (
                "ownership_writebacks",
                self.ownership_wb_words,
                counts.ownership_writebacks,
            ),
            (
                "registrations",
                self.l2_reg_words + self.l2_transfer_words,
                counts.registrations,
            ),
        ];
        for (name, got, want) in checks {
            if got != want {
                return Err(format!("ledger sums {name} to {got}, Counts says {want}"));
            }
        }
        let (refetched, overwritten, dropped) = (
            self.words_refetched(),
            self.words_overwritten(),
            self.words_dropped(),
        );
        if refetched + overwritten > dropped {
            return Err(format!(
                "refetched ({refetched}) + overwritten ({overwritten}) exceed dropped ({dropped})"
            ));
        }
        Ok(())
    }

    /// Labels every per-line row with the workload region containing
    /// it, like `ProfileReport::annotate` does for hot lines.
    pub fn annotate(&mut self, regions: &RegionMap) {
        for row in &mut self.lines {
            row.region = regions.label_line(LineAddr(row.line)).map(str::to_owned);
        }
    }

    /// Per-region reuse histograms assembled from the (annotated)
    /// per-line table: `(region, accesses-by-distance)` in first-seen
    /// order, unlabelled lines under `"-"`. Covers the top-k lines the
    /// table kept, which is what the per-region view is for.
    fn region_reuse(&self) -> Vec<(String, [u64; REUSE_BUCKETS])> {
        let mut out: Vec<(String, [u64; REUSE_BUCKETS])> = Vec::new();
        for row in &self.lines {
            let name = row.region.as_deref().unwrap_or("-");
            let entry = match out.iter_mut().find(|(n, _)| n == name) {
                Some(e) => e,
                None => {
                    out.push((name.to_string(), [0; REUSE_BUCKETS]));
                    out.last_mut().unwrap()
                }
            };
            for (acc, v) in entry.1.iter_mut().zip(row.reuse.iter()) {
                *acc += v;
            }
        }
        out
    }

    // ---- JSON ----

    /// The report as a JSON tree (stable schema).
    pub fn to_json_value(&self) -> JsonValue {
        fn hist(h: &[u64; REUSE_BUCKETS]) -> JsonValue {
            JsonValue::Arr(h.iter().map(|&v| JsonValue::num(v)).collect())
        }
        let ledger = self
            .ledger
            .iter()
            .map(|l| {
                JsonValue::Obj(vec![
                    ("node".into(), JsonValue::num(l.node)),
                    ("acquires".into(), JsonValue::num(l.acquires)),
                    ("flash_acquires".into(), JsonValue::num(l.flash_acquires)),
                    ("words_dropped".into(), JsonValue::num(l.words_dropped)),
                    ("words_refetched".into(), JsonValue::num(l.words_refetched)),
                    ("refetch_flits".into(), JsonValue::num(l.refetch_flits)),
                    ("refetch_misses".into(), JsonValue::num(l.refetch_misses)),
                    ("stall_cycles".into(), JsonValue::num(l.stall_cycles)),
                    (
                        "words_overwritten".into(),
                        JsonValue::num(l.words_overwritten),
                    ),
                ])
            })
            .collect();
        let lines = self
            .lines
            .iter()
            .map(|r| {
                let mut fields = vec![("line".into(), JsonValue::num(r.line))];
                if let Some(region) = &r.region {
                    fields.push(("region".into(), JsonValue::Str(region.clone())));
                }
                fields.extend([
                    ("inv_words".into(), JsonValue::num(r.inv_words)),
                    ("refetch_words".into(), JsonValue::num(r.refetch_words)),
                    ("valid_installs".into(), JsonValue::num(r.valid_installs)),
                    ("owned_installs".into(), JsonValue::num(r.owned_installs)),
                    ("steals".into(), JsonValue::num(r.steals)),
                    ("wb_words".into(), JsonValue::num(r.wb_words)),
                    ("l2_reg_words".into(), JsonValue::num(r.l2_reg_words)),
                    (
                        "l2_transfer_words".into(),
                        JsonValue::num(r.l2_transfer_words),
                    ),
                    ("hits_same".into(), JsonValue::num(r.hits_same)),
                    ("hits_cross".into(), JsonValue::num(r.hits_cross)),
                    ("miss_same".into(), JsonValue::num(r.miss_same)),
                    ("miss_cross".into(), JsonValue::num(r.miss_cross)),
                    ("reuse".into(), hist(&r.reuse)),
                ]);
                JsonValue::Obj(fields)
            })
            .collect();
        let events = self
            .events
            .iter()
            .map(|e| {
                JsonValue::Obj(vec![
                    ("cycle".into(), JsonValue::num(e.cycle)),
                    ("node".into(), JsonValue::num(e.node)),
                    ("words_dropped".into(), JsonValue::num(e.words_dropped)),
                ])
            })
            .collect();
        JsonValue::Obj(vec![
            ("cycles".into(), JsonValue::num(self.cycles)),
            ("nodes".into(), JsonValue::num(self.nodes as u64)),
            ("topk".into(), JsonValue::num(self.topk as u64)),
            ("dropped_lines".into(), JsonValue::num(self.dropped_lines)),
            (
                "ownership_wb_words".into(),
                JsonValue::num(self.ownership_wb_words),
            ),
            ("steal_words".into(), JsonValue::num(self.steal_words)),
            ("l2_reg_words".into(), JsonValue::num(self.l2_reg_words)),
            (
                "l2_transfer_words".into(),
                JsonValue::num(self.l2_transfer_words),
            ),
            ("dropped_events".into(), JsonValue::num(self.dropped_events)),
            ("reuse_hits".into(), hist(&self.reuse_hits)),
            ("reuse_misses".into(), hist(&self.reuse_misses)),
            ("ledger".into(), JsonValue::Arr(ledger)),
            ("lines".into(), JsonValue::Arr(lines)),
            ("events".into(), JsonValue::Arr(events)),
        ])
    }

    /// Compact JSON text.
    pub fn to_json(&self) -> String {
        self.to_json_value().to_string()
    }

    // ---- exports ----

    /// The per-line lifecycle table as CSV, one row per kept line.
    pub fn lines_csv(&self) -> String {
        let mut out = String::from(
            "line,region,inv_words,refetch_words,valid_installs,owned_installs,steals,wb_words,\
             l2_reg_words,l2_transfer_words,hits_same,hits_cross,miss_same,miss_cross,\
             reuse0,reuse1,reuse2,reuse3_7,reuse8\n",
        );
        for r in &self.lines {
            let _ = writeln!(
                out,
                "{:#x},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
                r.line,
                r.region.as_deref().unwrap_or("-"),
                r.inv_words,
                r.refetch_words,
                r.valid_installs,
                r.owned_installs,
                r.steals,
                r.wb_words,
                r.l2_reg_words,
                r.l2_transfer_words,
                r.hits_same,
                r.hits_cross,
                r.miss_same,
                r.miss_cross,
                r.reuse[0],
                r.reuse[1],
                r.reuse[2],
                r.reuse[3],
                r.reuse[4],
            );
        }
        out
    }

    /// The acquire-drop series as named counter tracks, ready for
    /// `gsim-trace`'s Perfetto counter-track writer: per-event drop
    /// sizes and the cumulative total.
    pub fn counter_series(&self) -> Vec<(String, Vec<(Cycle, f64)>)> {
        let mut per_event = Vec::with_capacity(self.events.len());
        let mut cumulative = Vec::with_capacity(self.events.len());
        let mut total = 0u64;
        for e in &self.events {
            total += e.words_dropped;
            per_event.push((e.cycle, e.words_dropped as f64));
            cumulative.push((e.cycle, total as f64));
        }
        vec![
            ("invalidated-words-per-acquire".into(), per_event),
            ("invalidated-words-cumulative".into(), cumulative),
        ]
    }

    // ---- renderers ----

    /// The per-node acquire cost ledger, nodes with activity only.
    pub fn render_ledger(&self) -> String {
        let mut out = format!(
            "acquire cost ledger ({} global acquires, {} words dropped, {} re-fetched = {:.1}% wasted)\n",
            self.acquires(),
            self.words_dropped(),
            self.words_refetched(),
            self.waste_pct(),
        );
        let _ = writeln!(
            out,
            "  {:>4} {:>8} {:>7} {:>9} {:>9} {:>7} {:>8} {:>10} {:>9}",
            "node",
            "acquires",
            "flash",
            "dropped",
            "refetched",
            "flits",
            "misses",
            "stall-cyc",
            "overwrit"
        );
        for l in &self.ledger {
            if l.acquires == 0 && l.words_dropped == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "  {:>4} {:>8} {:>7} {:>9} {:>9} {:>7} {:>8} {:>10} {:>9}",
                l.node,
                l.acquires,
                l.flash_acquires,
                l.words_dropped,
                l.words_refetched,
                l.refetch_flits,
                l.refetch_misses,
                l.stall_cycles,
                l.words_overwritten,
            );
        }
        out
    }

    /// The per-line lifecycle table, hottest first.
    pub fn render_lines(&self, topn: usize) -> String {
        let mut out = format!(
            "per-line lifecycle (top {} of {} kept lines",
            topn.min(self.lines.len()),
            self.lines.len()
        );
        if self.dropped_lines > 0 {
            let _ = write!(out, "; {} untracked", self.dropped_lines);
        }
        out.push_str(")\n");
        let _ = writeln!(
            out,
            "  {:<10} {:<12} {:>7} {:>7} {:>7} {:>7} {:>6} {:>6} {:>6} {:>6} {:>8} {:>8}",
            "line",
            "region",
            "inv",
            "refetch",
            "validIn",
            "ownedIn",
            "steal",
            "wb",
            "l2reg",
            "l2xfer",
            "hit-x",
            "miss-x"
        );
        for r in self.lines.iter().take(topn) {
            let _ = writeln!(
                out,
                "  {:<10} {:<12} {:>7} {:>7} {:>7} {:>7} {:>6} {:>6} {:>6} {:>6} {:>8} {:>8}",
                format!("{:#x}", r.line),
                r.region.as_deref().unwrap_or("-"),
                r.inv_words,
                r.refetch_words,
                r.valid_installs,
                r.owned_installs,
                r.steals,
                r.wb_words,
                r.l2_reg_words,
                r.l2_transfer_words,
                r.hits_cross,
                r.miss_cross,
            );
        }
        out
    }

    /// The cross-sync reuse histograms: global hit/miss distance
    /// distributions, then the per-region breakdown from the kept
    /// lines.
    pub fn render_reuse(&self) -> String {
        let mut out = format!(
            "cross-sync reuse ({} hits / {} misses crossed an acquire boundary)\n",
            self.cross_sync_hits(),
            self.cross_sync_misses(),
        );
        let _ = writeln!(
            out,
            "  {:<12} {:>5}: {:>9} {:>9}",
            "", "dist", "hits", "misses"
        );
        for (i, label) in REUSE_LABELS.iter().enumerate() {
            let _ = writeln!(
                out,
                "  {:<12} {:>5}: {:>9} {:>9}",
                "", label, self.reuse_hits[i], self.reuse_misses[i]
            );
        }
        for (region, hist) in self.region_reuse() {
            let _ = write!(out, "  {region:<12}");
            for (label, v) in REUSE_LABELS.iter().zip(hist.iter()) {
                let _ = write!(out, " {label}:{v}");
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> LensReport {
        LensReport {
            cycles: 1000,
            nodes: 16,
            topk: 32,
            ledger: vec![
                AcquireLedger {
                    node: 0,
                    acquires: 3,
                    flash_acquires: 3,
                    words_dropped: 40,
                    words_refetched: 24,
                    refetch_flits: 6,
                    refetch_misses: 5,
                    stall_cycles: 220,
                    words_overwritten: 4,
                },
                AcquireLedger {
                    node: 1,
                    acquires: 2,
                    flash_acquires: 2,
                    words_dropped: 8,
                    words_refetched: 0,
                    refetch_flits: 0,
                    refetch_misses: 0,
                    stall_cycles: 0,
                    words_overwritten: 8,
                },
            ],
            lines: vec![
                LineRow {
                    line: 0x40,
                    region: Some("lock".into()),
                    inv_words: 30,
                    refetch_words: 20,
                    valid_installs: 50,
                    owned_installs: 2,
                    steals: 1,
                    wb_words: 3,
                    l2_reg_words: 4,
                    l2_transfer_words: 2,
                    hits_same: 10,
                    hits_cross: 7,
                    miss_same: 2,
                    miss_cross: 6,
                    reuse: [12, 8, 2, 2, 1],
                },
                LineRow {
                    line: 0x41,
                    region: None,
                    inv_words: 18,
                    refetch_words: 4,
                    ..LineRow::default()
                },
            ],
            dropped_lines: 0,
            ownership_wb_words: 3,
            steal_words: 1,
            l2_reg_words: 4,
            l2_transfer_words: 2,
            reuse_hits: [12, 7, 1, 0, 0],
            reuse_misses: [2, 5, 1, 2, 1],
            events: vec![
                AcquireEvent {
                    cycle: 100,
                    node: 0,
                    words_dropped: 25,
                },
                AcquireEvent {
                    cycle: 600,
                    node: 0,
                    words_dropped: 15,
                },
            ],
            dropped_events: 0,
        }
    }

    #[test]
    fn bucket_edges() {
        assert_eq!(reuse_bucket(0), 0);
        assert_eq!(reuse_bucket(1), 1);
        assert_eq!(reuse_bucket(2), 2);
        assert_eq!(reuse_bucket(3), 3);
        assert_eq!(reuse_bucket(7), 3);
        assert_eq!(reuse_bucket(8), 4);
        assert_eq!(reuse_bucket(1_000_000), 4);
    }

    #[test]
    fn reconcile_accepts_and_rejects() {
        let r = sample_report();
        let mut counts = Counts {
            flash_invalidations: 5,
            words_invalidated: 48,
            ownership_writebacks: 3,
            registrations: 6,
            ..Counts::default()
        };
        assert!(r.reconcile(&counts).is_ok());
        counts.registrations = 4;
        let err = r.reconcile(&counts).unwrap_err();
        assert!(
            err.contains("registrations"),
            "granted + transferred: {err}"
        );
        counts.registrations = 6;
        counts.words_invalidated = 47;
        let err = r.reconcile(&counts).unwrap_err();
        assert!(err.contains("words_invalidated"), "{err}");
        counts.words_invalidated = 48;
        counts.flash_invalidations = 1;
        let err = r.reconcile(&counts).unwrap_err();
        assert!(err.contains("flash_invalidations"), "{err}");
    }

    #[test]
    fn reconcile_rejects_impossible_waste() {
        let mut r = sample_report();
        r.ledger[0].words_refetched = 100;
        let counts = Counts {
            flash_invalidations: 5,
            words_invalidated: 48,
            ownership_writebacks: 3,
            registrations: 6,
            ..Counts::default()
        };
        let err = r.reconcile(&counts).unwrap_err();
        assert!(err.contains("exceed"), "{err}");
    }

    #[test]
    fn totals_and_waste() {
        let r = sample_report();
        assert_eq!(r.acquires(), 5);
        assert_eq!(r.flash_acquires(), 5);
        assert_eq!(r.words_dropped(), 48);
        assert_eq!(r.words_refetched(), 24);
        assert_eq!(r.refetch_flits(), 6);
        assert_eq!(r.stall_cycles(), 220);
        assert_eq!(r.words_overwritten(), 12);
        assert!((r.waste_pct() - 50.0).abs() < 1e-9);
        assert_eq!(r.cross_sync_hits(), 8);
        assert_eq!(r.cross_sync_misses(), 9);
    }

    #[test]
    fn region_reuse_groups_by_label() {
        let r = sample_report();
        let per = r.region_reuse();
        assert_eq!(per.len(), 2);
        assert_eq!(per[0].0, "lock");
        assert_eq!(per[0].1, [12, 8, 2, 2, 1]);
        assert_eq!(per[1].0, "-");
    }

    #[test]
    fn csv_and_series() {
        let r = sample_report();
        let lines = r.lines_csv();
        assert!(lines.starts_with("line,region,"));
        assert!(lines.contains("0x40,lock,30,20,50,2,1,3,4,2,10,7,2,6,12,8,2,2,1"));
        let series = r.counter_series();
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].1, vec![(100, 25.0), (600, 15.0)]);
        assert_eq!(series[1].1, vec![(100, 25.0), (600, 40.0)]);
    }

    #[test]
    fn renderers_mention_ledger_lines_and_reuse() {
        let r = sample_report();
        let ledger = r.render_ledger();
        assert!(ledger.contains("50.0% wasted"), "{ledger}");
        assert!(ledger.contains("stall-cyc"), "{ledger}");
        let lines = r.render_lines(10);
        assert!(lines.contains("lock"), "{lines}");
        assert!(lines.contains("0x41"), "{lines}");
        let reuse = r.render_reuse();
        for label in REUSE_LABELS {
            assert!(reuse.contains(label), "{reuse}");
        }
        assert!(reuse.contains("lock"), "{reuse}");
    }
}
