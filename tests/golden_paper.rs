//! Golden-stats pin for the Paper-scale Table 4 matrix.
//!
//! Every number in EXPERIMENTS.md comes from a Paper-scale run, so this
//! pin covers all 115 cells (23 benchmarks x 5 configs) that the paper's
//! verdicts are read from: any change to any cell's stats fails here and
//! the message names the cell. It takes about a minute in release mode
//! and far longer in debug, so debug test runs skip it. Run it with:
//!
//! ```text
//! cargo test --release --test golden_paper
//! ```
//!
//! Regenerate (only when an intentional behaviour change lands) with:
//!
//! ```text
//! GSIM_BLESS_GOLDEN=1 cargo test --release --test golden_paper
//! ```

mod common;

use gsim_harness::matrix::{full_matrix, run_each_cell};
use gsim_workloads::Scale;

const GOLDEN_PATH: &str = "tests/golden/paper_matrix.json";

/// One `"BENCH/CONFIG": <stats json>` line per cell, in matrix order, so
/// diffs name the exact cell that drifted.
fn current_snapshot() -> String {
    let cells = full_matrix(Scale::Paper);
    assert_eq!(cells.len(), 115, "23 Table 4 benchmarks x 5 configs");
    let rows: Vec<String> = run_each_cell(&cells, 0, None)
        .into_iter()
        .zip(&cells)
        .map(|(result, cell)| {
            let r = result.unwrap_or_else(|e| panic!("{}/{}: {e}", cell.bench, cell.config));
            format!("\"{}/{}\": {}", cell.bench, cell.config, r.stats.to_json())
        })
        .collect();
    format!("{{\n{}\n}}\n", rows.join(",\n"))
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "Paper-scale matrix; run with --release (CI job paper-golden)"
)]
fn paper_matrix_stats_match_the_golden() {
    common::check_golden(
        GOLDEN_PATH,
        &current_snapshot(),
        "Paper-scale matrix stats drifted from the golden",
    );
}
