//! The figure/table regeneration harness: shared plumbing for the bench
//! targets that reproduce every table and figure of the paper.
//!
//! Each `cargo bench` target prints the paper-formatted result to stdout
//! and writes a machine-readable CSV under `target/paper-results/`,
//! which EXPERIMENTS.md records.
//!
//! Figure panels fan their (benchmark, config) grids through the
//! parallel harness with the shared result cache, so re-generating a
//! figure after an unrelated change is mostly cache hits.

use gsim_core::{Simulator, SystemConfig};
use gsim_harness::{matrix_of, run_cells, ResultCache};
use gsim_types::{MsgClass, ProtocolConfig, SimStats};
use gsim_workloads::{registry, Scale};
use std::fmt::Write as _;
use std::path::PathBuf;

/// Runs one Table 4 benchmark under one configuration at the evaluation
/// scale, panicking (with the failure) if it does not verify.
pub fn run(name: &str, protocol: ProtocolConfig) -> SimStats {
    run_with(name, SystemConfig::micro15(protocol))
}

/// As [`run`], with a custom system configuration (ablations).
pub fn run_with(name: &str, config: SystemConfig) -> SimStats {
    let b = registry::by_name(name).unwrap_or_else(|| panic!("unknown benchmark {name}"));
    Simulator::new(config)
        .run(&(b.build)(Scale::Paper))
        .unwrap_or_else(|e| panic!("{name} under {}: {e}", config.protocol))
}

/// Where CSV outputs go.
fn results_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/paper-results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Writes `content` to `target/paper-results/<file>`.
pub fn save(file: &str, content: &str) {
    let path = results_dir().join(file);
    std::fs::write(&path, content).expect("write results file");
    println!("[saved {}]", path.display());
}

/// One figure panel: a metric per (benchmark, configuration), printed as
/// percentages of each benchmark's baseline configuration — the paper's
/// normalized bars — plus the cross-benchmark average.
pub struct Panel {
    /// Panel caption, e.g. `"Fig 3a: Execution time"`.
    pub title: String,
    /// Configuration labels, in column order.
    pub configs: Vec<String>,
    /// `(benchmark, per-config metric)` rows.
    pub rows: Vec<(String, Vec<f64>)>,
    /// Which column is the 100% baseline.
    pub baseline: usize,
}

impl Panel {
    /// Renders the panel as a text table of percentages.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{}", self.title);
        let _ = write!(s, "{:<10}", "");
        for c in &self.configs {
            let _ = write!(s, "{c:>9}");
        }
        let _ = writeln!(s);
        let mut sums = vec![0.0; self.configs.len()];
        for (name, vals) in &self.rows {
            let base = vals[self.baseline];
            let _ = write!(s, "{name:<10}");
            for (i, v) in vals.iter().enumerate() {
                let pct = if base > 0.0 { v / base * 100.0 } else { 0.0 };
                sums[i] += pct;
                let _ = write!(s, "{pct:>8.1}%");
            }
            let _ = writeln!(s);
        }
        let n = self.rows.len() as f64;
        let _ = write!(s, "{:<10}", "AVG");
        for sum in &sums {
            let _ = write!(s, "{:>8.1}%", sum / n);
        }
        let _ = writeln!(s);
        s
    }

    /// The cross-benchmark average of one configuration column, in
    /// percent of baseline.
    pub fn average(&self, config: usize) -> f64 {
        let n = self.rows.len() as f64;
        self.rows
            .iter()
            .map(|(_, v)| v[config] / v[self.baseline] * 100.0)
            .sum::<f64>()
            / n
    }

    /// Renders the panel as CSV (absolute values, not normalized).
    pub fn to_csv(&self) -> String {
        let mut s = String::new();
        let _ = write!(s, "benchmark");
        for c in &self.configs {
            let _ = write!(s, ",{c}");
        }
        let _ = writeln!(s);
        for (name, vals) in &self.rows {
            let _ = write!(s, "{name}");
            for v in vals {
                let _ = write!(s, ",{v}");
            }
            let _ = writeln!(s);
        }
        s
    }
}

/// Collects the paper's three panels (execution time, dynamic energy,
/// network traffic) for a benchmark list under a configuration list.
/// Every underlying run functionally verifies before it is counted.
pub fn three_panels(
    figure: &str,
    benches: &[&str],
    configs: &[ProtocolConfig],
    labels: &[&str],
    baseline: usize,
) -> [Panel; 3] {
    let cells = matrix_of(benches, configs, Scale::Paper);
    let cache = ResultCache::open_default().ok();
    eprintln!(
        "  running {} cells ({} benchmarks x {} configs) in parallel ...",
        cells.len(),
        benches.len(),
        configs.len()
    );
    let results = run_cells(&cells, 0, cache.as_ref()).unwrap_or_else(|e| panic!("{e}"));
    if let Some(c) = &cache {
        eprintln!(
            "  cache: {} of {} cells served from {}",
            c.hits(),
            cells.len(),
            c.dir().display()
        );
    }

    let mut time_rows = Vec::new();
    let mut energy_rows = Vec::new();
    let mut traffic_rows = Vec::new();
    for (bi, &bench) in benches.iter().enumerate() {
        // Cell order is bench-major: this benchmark's configs are one chunk.
        let stats = results[bi * configs.len()..(bi + 1) * configs.len()]
            .iter()
            .map(|r| &r.stats);
        time_rows.push((
            bench.to_string(),
            stats.clone().map(|s| s.cycles as f64).collect(),
        ));
        energy_rows.push((
            bench.to_string(),
            stats.clone().map(|s| s.energy.total_pj()).collect(),
        ));
        traffic_rows.push((
            bench.to_string(),
            stats.map(|s| s.traffic.total() as f64).collect(),
        ));
    }
    let labels: Vec<String> = labels.iter().map(|s| s.to_string()).collect();
    [
        Panel {
            title: format!("{figure}a: Execution time (% of {})", labels[baseline]),
            configs: labels.clone(),
            rows: time_rows,
            baseline,
        },
        Panel {
            title: format!("{figure}b: Dynamic energy (% of {})", labels[baseline]),
            configs: labels.clone(),
            rows: energy_rows,
            baseline,
        },
        Panel {
            title: format!("{figure}c: Network traffic (% of {})", labels[baseline]),
            configs: labels,
            rows: traffic_rows,
            baseline,
        },
    ]
}

/// The traffic class split of a run (the paper's stacked traffic bars:
/// Read / Regist. / WB-WT / Atomics).
pub fn traffic_split(stats: &SimStats) -> String {
    let t = &stats.traffic;
    let total = t.total().max(1) as f64;
    MsgClass::ALL
        .iter()
        .map(|&c| format!("{} {:.0}%", c.label(), t.class(c) as f64 / total * 100.0))
        .collect::<Vec<_>>()
        .join(" / ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panel_math() {
        let p = Panel {
            title: "t".into(),
            configs: vec!["A".into(), "B".into()],
            rows: vec![
                ("x".into(), vec![100.0, 50.0]),
                ("y".into(), vec![200.0, 150.0]),
            ],
            baseline: 0,
        };
        assert!((p.average(1) - 62.5).abs() < 1e-9);
        assert!((p.average(0) - 100.0).abs() < 1e-9);
        let txt = p.render();
        assert!(txt.contains("AVG"));
        assert!(txt.contains("50.0%"));
        let csv = p.to_csv();
        assert!(csv.starts_with("benchmark,A,B"));
        assert!(csv.contains("x,100,50"));
    }
}
