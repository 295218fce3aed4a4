//! Rendering and reading results: the metric table, the one-line result
//! object, the run file, and the comparison of two run files.

use crate::bench::{Measured, WorkloadReport};
use crate::metrics::{self, MetricDef};
use crate::stats::{quartiles, verdict, worsening, Side, Verdict};
use gsim_types::JsonValue;
use std::fmt::Write as _;

/// Formats a value compactly for tables.
fn show(v: f64) -> String {
    if v == 0.0 || (1e-3..1e6).contains(&v.abs()) {
        format!("{v:.4}")
    } else {
        format!("{v:.4e}")
    }
}

fn num(v: f64) -> JsonValue {
    if v.is_finite() {
        JsonValue::float(v)
    } else {
        JsonValue::Null
    }
}

/// A markdown table of every metric (rows) of every report (columns).
pub fn table(reports: &[WorkloadReport]) -> String {
    let mut s = String::from("| metric | unit |");
    for r in reports {
        let _ = write!(s, " {} |", r.name);
    }
    s.push_str("\n|---|---|");
    s.push_str(&"---:|".repeat(reports.len()));
    s.push('\n');
    let defs = metrics::END_TO_END.iter().chain(metrics::PER_LAYER);
    for def in defs {
        let cells: Vec<String> = reports
            .iter()
            .map(|r| {
                r.metrics
                    .iter()
                    .find(|m| m.def.name == def.name)
                    .map_or(String::new(), |m| show(m.value))
            })
            .collect();
        if cells.iter().all(String::is_empty) {
            continue;
        }
        let _ = writeln!(s, "| {} | {} | {} |", def.name, def.unit, cells.join(" | "));
    }
    s
}

/// The one-line result object: `correct`, `attempted`, `failed`, and
/// each measured metric's value and unit.
pub fn result_line(r: &WorkloadReport) -> String {
    let metrics = r
        .metrics
        .iter()
        .map(|m| {
            let v = JsonValue::Obj(vec![
                ("value".into(), num(m.value)),
                ("unit".into(), JsonValue::Str(m.def.unit.into())),
            ]);
            (m.def.name.to_string(), v)
        })
        .collect();
    JsonValue::Obj(vec![
        ("correct".into(), JsonValue::Bool(r.failed == 0)),
        ("attempted".into(), JsonValue::num(r.attempted)),
        ("failed".into(), JsonValue::num(r.failed)),
        ("metrics".into(), JsonValue::Obj(metrics)),
    ])
    .to_string()
}

fn measured_json(m: &Measured) -> JsonValue {
    let (q1, q3) = quartiles(&m.samples);
    JsonValue::Obj(vec![
        ("name".into(), JsonValue::Str(m.def.name.into())),
        ("unit".into(), JsonValue::Str(m.def.unit.into())),
        ("value".into(), num(m.value)),
        ("q1".into(), num(q1)),
        ("q3".into(), num(q3)),
        ("n".into(), JsonValue::num(m.samples.len())),
        (
            "samples".into(),
            JsonValue::Arr(m.samples.iter().map(|&v| num(v)).collect()),
        ),
    ])
}

/// A run file: where and how the run was made, then every workload's
/// counts, errors and metrics with their samples.
pub fn run_json(reports: &[WorkloadReport], provenance: Vec<(String, JsonValue)>) -> String {
    let workloads = reports
        .iter()
        .map(|r| {
            JsonValue::Obj(vec![
                ("name".into(), JsonValue::Str(r.name.clone())),
                ("cells".into(), JsonValue::num(r.cells)),
                ("passes".into(), JsonValue::num(r.passes)),
                ("attempted".into(), JsonValue::num(r.attempted)),
                ("failed".into(), JsonValue::num(r.failed)),
                (
                    "errors".into(),
                    JsonValue::Arr(r.errors.iter().cloned().map(JsonValue::Str).collect()),
                ),
                (
                    "metrics".into(),
                    JsonValue::Arr(r.metrics.iter().map(measured_json).collect()),
                ),
            ])
        })
        .collect();
    let mut fields = vec![("schema".to_string(), JsonValue::num(1))];
    fields.extend(provenance);
    fields.push(("workloads".into(), JsonValue::Arr(workloads)));
    let mut s = JsonValue::Obj(fields).to_string();
    s.push('\n');
    s
}

/// One workload's (value, samples) per metric name, read back from a run
/// file.
type Readings = Vec<(String, f64, Vec<f64>)>;

fn read_run(text: &str) -> Result<Vec<(String, Readings)>, String> {
    let doc = JsonValue::parse(text)?;
    let workloads = doc
        .get("workloads")
        .and_then(JsonValue::as_arr)
        .ok_or("no workloads array")?;
    workloads
        .iter()
        .map(|w| {
            let name = w
                .get("name")
                .and_then(JsonValue::as_str)
                .ok_or("workload without a name")?;
            let count = |k: &str| w.get(k).and_then(JsonValue::as_f64).unwrap_or(0.0);
            let failed_frac = count("failed") / count("attempted").max(1.0);
            let mut readings = vec![(
                metrics::FAILED_FRAC.name.to_string(),
                failed_frac,
                vec![failed_frac],
            )];
            for m in w.get("metrics").and_then(JsonValue::as_arr).unwrap_or(&[]) {
                let metric = m
                    .get("name")
                    .and_then(JsonValue::as_str)
                    .ok_or("metric without a name")?;
                let value = m
                    .get("value")
                    .and_then(JsonValue::as_f64)
                    .unwrap_or(f64::NAN);
                let samples = m
                    .get("samples")
                    .and_then(JsonValue::as_arr)
                    .ok_or("metric without samples")?
                    .iter()
                    .map(|v| v.as_f64().unwrap_or(f64::NAN))
                    .collect();
                readings.push((metric.to_string(), value, samples));
            }
            Ok((name.to_string(), readings))
        })
        .collect()
}

/// Compares run file `b` (the change) with run file `a` (the parent),
/// workload by workload. End-to-end metrics and `failed_frac` get a
/// verdict under their bound; per-layer metrics are listed with their
/// change, and counts are marked same or changed. Returns the markdown
/// report and whether any end-to-end row is worse.
///
/// # Errors
///
/// When either file does not parse as a run file.
pub fn compare(a: &str, b: &str) -> Result<(String, bool), String> {
    let (a, b) = (read_run(a)?, read_run(b)?);
    let mut out = String::from(
        "| workload | metric | A value [pass q1, q3] | B value [pass q1, q3] | worse by | bound | verdict |\n\
         |---|---|---:|---:|---:|---:|---|\n",
    );
    let mut any_worse = false;
    for (name, sa) in &a {
        let Some((_, sb)) = b.iter().find(|(n, _)| n == name) else {
            let _ = writeln!(out, "| {name} | (missing from B) | | | | | worse |");
            any_worse = true;
            continue;
        };
        for (metric, va, xa) in sa {
            let Some(def) = metrics::def(metric) else {
                continue;
            };
            let Some((_, vb, xb)) = sb.iter().find(|(m, ..)| m == metric) else {
                continue;
            };
            let side = |value: &f64, samples| Side {
                value: *value,
                samples,
            };
            let (row, worse) = compare_row(def, side(va, xa), side(vb, xb));
            any_worse |= worse;
            let _ = writeln!(out, "| {name} | {metric} | {row} |");
        }
    }
    Ok((out, any_worse))
}

fn compare_row(def: &MetricDef, a: Side, b: Side) -> (String, bool) {
    let cell = |x: Side| {
        let (q1, q3) = quartiles(x.samples);
        format!("{} [{}, {}]", show(x.value), show(q1), show(q3))
    };
    let by = worsening(a.value, b.value, def.better);
    let by = if by.is_finite() {
        format!("{:+.2}%", by * 100.0)
    } else {
        "inf".into()
    };
    let (bound, label, worse) = match def.bound {
        Some(bound) => {
            let v = verdict(a, b, def.better, bound);
            (
                format!("{:.0}%", bound * 100.0),
                v.label(),
                v == Verdict::Worse,
            )
        }
        None if def.unit == "count" => {
            let same = a.value == b.value;
            ("-".into(), if same { "same" } else { "changed" }, false)
        }
        None => ("-".into(), "info", false),
    };
    (
        format!("{} | {} | {by} | {bound} | {label}", cell(a), cell(b)),
        worse,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::Measured;

    fn report(wall: &[f64], failed: u64) -> WorkloadReport {
        let defs = [
            metrics::def("wall_s").unwrap(),
            metrics::def("noc.msgs").unwrap(),
        ];
        WorkloadReport {
            name: "nosync".into(),
            cells: 6,
            passes: wall.len(),
            attempted: 36,
            failed,
            errors: vec![],
            metrics: vec![
                Measured {
                    def: defs[0],
                    value: wall.iter().copied().fold(f64::INFINITY, f64::min),
                    samples: wall.to_vec(),
                },
                Measured {
                    def: defs[1],
                    value: 1000.0,
                    samples: vec![1000.0],
                },
            ],
        }
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let line = result_line(&report(&[2.0, 1.0, 3.0], 0));
        let v = JsonValue::parse(&line).unwrap();
        assert_eq!(v.get("correct"), Some(&JsonValue::Bool(true)));
        assert_eq!(v.get("attempted").and_then(JsonValue::as_u64), Some(36));
        let wall = v.get("metrics").and_then(|m| m.get("wall_s")).unwrap();
        assert_eq!(wall.get("value").and_then(JsonValue::as_f64), Some(1.0));
        assert_eq!(wall.get("unit").and_then(JsonValue::as_str), Some("s"));
    }

    #[test]
    fn compare_flags_slower_runs_and_new_failures() {
        let base = run_json(&[report(&[10.0, 10.1, 9.9, 10.0, 10.05], 0)], vec![]);
        let same = run_json(&[report(&[10.02, 9.95, 10.1, 10.0, 9.97], 0)], vec![]);
        let slow = run_json(&[report(&[13.0, 13.1, 12.9, 13.0, 13.05], 0)], vec![]);
        let broken = run_json(&[report(&[10.0, 10.1, 9.9, 10.0, 10.05], 1)], vec![]);
        let (text, worse) = compare(&base, &same).unwrap();
        assert!(!worse, "{text}");
        assert!(text.contains("| nosync | noc.msgs |") && text.contains("same"));
        assert!(compare(&base, &slow).unwrap().1);
        let (text, worse) = compare(&base, &broken).unwrap();
        assert!(worse && text.contains("failed_frac"), "{text}");
    }

    #[test]
    fn table_lists_each_metric_once_per_workload() {
        let t = table(&[report(&[1.0], 0), report(&[2.0], 0)]);
        assert!(t.starts_with("| metric | unit | nosync | nosync |"));
        assert!(t.contains("| wall_s | s | 1.0000 | 2.0000 |"));
        assert!(!t.contains("setup_s"), "unmeasured metrics are left out");
    }
}
