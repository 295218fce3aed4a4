//! Stable serialization of [`SimStats`]: an exact JSON round-trip (what
//! the result cache persists) and a flat CSV emit (what `sweep --out`
//! and the `matrix` subcommand write).
//!
//! Stability is the contract here: the JSON field set and the CSV column
//! order are part of the cache/CI interface, so both are generated from
//! one field list (`counts_fields!`) and pinned by tests. Energy values
//! are `f64` and use Rust's shortest round-trip formatting; every other
//! value is an exact `u64`.

use crate::hist::{LatencyBreakdown, LatencyHistogram, BUCKETS};
use crate::json::JsonValue;
use crate::msg::MsgClass;
use crate::stats::{Counts, EnergyBreakdown, SimStats, TrafficBreakdown};

/// Applies a macro to every [`Counts`] field, in declaration order.
/// Single source of truth for the JSON field set and CSV columns.
macro_rules! counts_fields {
    ($apply:ident) => {
        $apply!(
            instructions,
            cu_active_cycles,
            l1_accesses,
            l1_load_hits,
            l1_load_misses,
            l1_store_hits,
            l1_atomics,
            l1_atomic_hits,
            scratch_accesses,
            l2_accesses,
            l2_atomics,
            dram_reads,
            dram_writes,
            words_invalidated,
            flash_invalidations,
            sb_overflow_flushes,
            sb_release_flushes,
            registrations,
            reg_forwards,
            reg_queued,
            ownership_writebacks,
            registry_overflow_words,
            messages_sent,
            flit_hops
        )
    };
}

/// Stable machine-readable identifier for a traffic class (the display
/// labels — "Regist.", "WB/WT" — are unfit for CSV headers or JSON keys).
fn class_slug(cl: MsgClass) -> &'static str {
    match cl {
        MsgClass::Read => "read",
        MsgClass::Registration => "registration",
        MsgClass::WbWt => "wbwt",
        MsgClass::Atomic => "atomics",
    }
}

/// Energy components as `(json/csv name, accessor)` pairs.
type EnergyAccessor = fn(&EnergyBreakdown) -> f64;
const ENERGY_FIELDS: [(&str, EnergyAccessor); 5] = [
    ("core_pj", |e| e.core_pj),
    ("scratch_pj", |e| e.scratch_pj),
    ("l1_pj", |e| e.l1_pj),
    ("l2_pj", |e| e.l2_pj),
    ("noc_pj", |e| e.noc_pj),
];

fn counts_to_json(c: &Counts) -> JsonValue {
    macro_rules! emit {
        ($($f:ident),*) => {
            JsonValue::Obj(vec![$((stringify!($f).to_string(), JsonValue::num(c.$f))),*])
        };
    }
    counts_fields!(emit)
}

fn counts_from_json(v: &JsonValue) -> Result<Counts, String> {
    let mut c = Counts::default();
    macro_rules! read {
        ($($f:ident),*) => {
            $(
                c.$f = v
                    .get(stringify!($f))
                    .and_then(JsonValue::as_u64)
                    .ok_or_else(|| format!("counts.{} missing or not a u64", stringify!($f)))?;
            )*
        };
    }
    counts_fields!(read);
    Ok(c)
}

impl Counts {
    /// Serializes the counter record with the same stable field set and
    /// order as [`SimStats::to_json`] (per-CU profiler rows reuse this).
    pub fn to_json_value(&self) -> JsonValue {
        counts_to_json(self)
    }
}

fn hist_to_json(h: &LatencyHistogram) -> JsonValue {
    JsonValue::Obj(vec![
        (
            "buckets".into(),
            JsonValue::Arr(h.buckets().iter().map(JsonValue::num).collect()),
        ),
        ("sum".into(), JsonValue::num(h.sum())),
        ("min".into(), JsonValue::num(h.min())),
        ("max".into(), JsonValue::num(h.max())),
    ])
}

fn hist_from_json(v: &JsonValue) -> Result<LatencyHistogram, String> {
    let raw = v
        .get("buckets")
        .and_then(JsonValue::as_arr)
        .ok_or("histogram buckets missing")?;
    if raw.len() != BUCKETS {
        return Err(format!(
            "histogram has {} buckets, want {BUCKETS}",
            raw.len()
        ));
    }
    let mut counts = [0u64; BUCKETS];
    for (i, b) in raw.iter().enumerate() {
        counts[i] = b.as_u64().ok_or("bucket not a u64")?;
    }
    let field = |name: &str| {
        v.get(name)
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("histogram {name} missing"))
    };
    Ok(LatencyHistogram::from_raw(
        counts,
        field("sum")?,
        field("min")?,
        field("max")?,
    ))
}

impl SimStats {
    /// Serializes the complete statistics record as compact JSON. The
    /// output is deterministic (fixed field order) and round-trips
    /// exactly through [`SimStats::from_json_value`].
    pub fn to_json(&self) -> String {
        self.to_json_value().to_string()
    }

    /// As [`SimStats::to_json`], but returns the tree for embedding in
    /// larger documents (cache files, `matrix --out` records).
    pub fn to_json_value(&self) -> JsonValue {
        let traffic = JsonValue::Obj(
            MsgClass::ALL
                .iter()
                .map(|&cl| {
                    (
                        class_slug(cl).to_string(),
                        JsonValue::num(self.traffic.class(cl)),
                    )
                })
                .collect(),
        );
        let energy = JsonValue::Obj(
            ENERGY_FIELDS
                .iter()
                .map(|&(name, get)| (name.to_string(), JsonValue::float(get(&self.energy))))
                .collect(),
        );
        let latency = JsonValue::Obj(
            self.latency
                .named()
                .iter()
                .map(|(name, h)| (name.to_string(), hist_to_json(h)))
                .collect(),
        );
        JsonValue::Obj(vec![
            ("cycles".into(), JsonValue::num(self.cycles)),
            ("counts".into(), counts_to_json(&self.counts)),
            ("traffic".into(), traffic),
            ("energy".into(), energy),
            ("latency".into(), latency),
        ])
    }

    /// Parses a record produced by [`SimStats::to_json`].
    #[cfg(test)]
    fn from_json(text: &str) -> Result<SimStats, String> {
        Self::from_json_value(&JsonValue::parse(text)?)
    }

    /// Parses a record from an already-parsed JSON tree.
    pub fn from_json_value(v: &JsonValue) -> Result<SimStats, String> {
        let cycles = v
            .get("cycles")
            .and_then(JsonValue::as_u64)
            .ok_or("cycles missing")?;
        let counts = counts_from_json(v.get("counts").ok_or("counts missing")?)?;

        let tv = v.get("traffic").ok_or("traffic missing")?;
        let mut traffic = TrafficBreakdown::default();
        for &cl in &MsgClass::ALL {
            let flits = tv
                .get(class_slug(cl))
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("traffic.{} missing", class_slug(cl)))?;
            traffic.flit_crossings[cl.index()] = flits;
        }

        let ev = v.get("energy").ok_or("energy missing")?;
        let mut energy = EnergyBreakdown::default();
        for &(name, _) in &ENERGY_FIELDS {
            let pj = ev
                .get(name)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("energy.{name} missing"))?;
            match name {
                "core_pj" => energy.core_pj = pj,
                "scratch_pj" => energy.scratch_pj = pj,
                "l1_pj" => energy.l1_pj = pj,
                "l2_pj" => energy.l2_pj = pj,
                "noc_pj" => energy.noc_pj = pj,
                _ => unreachable!(),
            }
        }

        let lv = v.get("latency").ok_or("latency missing")?;
        let latency = LatencyBreakdown {
            load_to_use: hist_from_json(lv.get("load-to-use").ok_or("load-to-use missing")?)?,
            atomic_rtt: hist_from_json(lv.get("atomic-rtt").ok_or("atomic-rtt missing")?)?,
            barrier_wait: hist_from_json(lv.get("barrier-wait").ok_or("barrier-wait missing")?)?,
            sb_drain: hist_from_json(lv.get("sb-drain").ok_or("sb-drain missing")?)?,
        };

        Ok(SimStats {
            cycles,
            counts,
            traffic,
            energy,
            latency,
        })
    }

    /// The CSV column names [`SimStats::csv_row`] emits, comma-joined.
    /// Callers prepend their own identifying columns (benchmark, config,
    /// scale).
    pub fn csv_header() -> String {
        let mut cols = vec!["cycles".to_string(), "energy_total_pj".to_string()];
        cols.extend(ENERGY_FIELDS.iter().map(|&(n, _)| format!("energy_{n}")));
        cols.push("traffic_total_flits".to_string());
        for cl in MsgClass::ALL {
            cols.push(format!("traffic_{}_flits", class_slug(cl)));
        }
        macro_rules! names {
            ($($f:ident),*) => { $(cols.push(stringify!($f).to_string());)* };
        }
        counts_fields!(names);
        cols.join(",")
    }

    /// One CSV row matching [`SimStats::csv_header`]. Deterministic:
    /// identical stats always print identical bytes.
    pub fn csv_row(&self) -> String {
        let mut cols = vec![
            self.cycles.to_string(),
            format!("{}", self.energy.total_pj()),
        ];
        cols.extend(
            ENERGY_FIELDS
                .iter()
                .map(|&(_, get)| format!("{}", get(&self.energy))),
        );
        cols.push(self.traffic.total().to_string());
        for cl in MsgClass::ALL {
            cols.push(self.traffic.class(cl).to_string());
        }
        let c = &self.counts;
        macro_rules! vals {
            ($($f:ident),*) => { $(cols.push(c.$f.to_string());)* };
        }
        counts_fields!(vals);
        cols.join(",")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SimStats {
        let mut s = SimStats {
            cycles: 123_456,
            ..SimStats::default()
        };
        s.counts.instructions = 999;
        s.counts.flit_hops = u64::MAX; // exactness check
        s.counts.reg_queued = 7;
        s.traffic.record(MsgClass::Read, 10, 3);
        s.traffic.record(MsgClass::Atomic, 2, 6);
        s.energy.core_pj = 1234.5678;
        s.energy.noc_pj = 0.125;
        s.latency.load_to_use.record(3);
        s.latency.load_to_use.record(900);
        s.latency.barrier_wait.record(40);
        s
    }

    #[test]
    fn json_round_trip_is_exact() {
        let s = sample();
        let text = s.to_json();
        let back = SimStats::from_json(&text).unwrap();
        assert_eq!(back, s);
        // And the re-serialization is byte-identical (stable ordering).
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn empty_stats_round_trip() {
        let s = SimStats::default();
        let back = SimStats::from_json(&s.to_json()).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.latency.load_to_use.min(), 0);
        assert!(back.latency.load_to_use.is_empty());
    }

    #[test]
    fn histogram_percentiles_survive_round_trip() {
        let s = sample();
        let back = SimStats::from_json(&s.to_json()).unwrap();
        assert_eq!(
            back.latency.load_to_use.percentile(50.0),
            s.latency.load_to_use.percentile(50.0)
        );
        assert_eq!(back.latency.load_to_use.count(), 2);
        assert_eq!(back.latency.load_to_use.max(), 900);
    }

    #[test]
    fn csv_header_and_row_align() {
        let s = sample();
        let header = SimStats::csv_header();
        let row = s.csv_row();
        assert_eq!(
            header.split(',').count(),
            row.split(',').count(),
            "header and row column counts differ"
        );
        assert!(header.starts_with("cycles,energy_total_pj,"));
        assert!(row.starts_with("123456,"));
        // u64::MAX survives CSV too.
        assert!(row.ends_with(&u64::MAX.to_string()));
    }

    #[test]
    fn from_json_rejects_malformed_records() {
        assert!(SimStats::from_json("{}").is_err());
        assert!(SimStats::from_json("not json").is_err());
        // A record with a missing counter field is rejected, not zeroed.
        let mut v = sample().to_json();
        v = v.replace("\"instructions\":999,", "");
        assert!(SimStats::from_json(&v).is_err());
    }
}
