#![warn(missing_docs)]

//! Parallel experiment harness for the `gpu-denovo` evaluation matrix.
//!
//! The paper's evaluation is a grid — 23 benchmarks × 5 protocol
//! configurations (Table 4) — and every cell is an independent,
//! deterministic simulation. This crate turns that grid into a job list
//! and runs it on worker threads with a content-addressed result cache:
//!
//! - [`pool`] — a scoped-thread job pool whose output order depends only
//!   on the job list, never on worker count or scheduling. `--jobs 1`
//!   and `--jobs 8` produce byte-identical CSV/JSON.
//! - [`cache`] — one JSON file per cell under `target/gsim-cache/`,
//!   keyed by a hash of (benchmark, config, scale, workload params,
//!   crate version, simulator sources). Sound because the simulator is
//!   deterministic; a second unchanged sweep is served almost entirely
//!   from disk, and a sweep after a code change recomputes.
//! - [`matrix`] — the cell vocabulary ([`Cell`], [`CellResult`]), grid
//!   builders, the cached parallel runners [`run_cells`] (every cell or
//!   the first error) and [`run_each_cell`] (one outcome per cell), and
//!   the stable [`to_csv`]/[`to_json`] emitters.
//!
//! # Examples
//!
//! ```
//! use gsim_harness::{matrix_of, run_cells, to_csv};
//! use gsim_types::ProtocolConfig;
//! use gsim_workloads::Scale;
//!
//! let cells = matrix_of(&["SPM_G"], &[ProtocolConfig::Dd, ProtocolConfig::Gd], Scale::Tiny);
//! let results = run_cells(&cells, 2, None).unwrap();
//! let csv = to_csv(&results);
//! assert!(csv.starts_with("benchmark,config,scale,cycles,"));
//! assert_eq!(csv.lines().count(), 3);
//! ```

pub mod cache;
pub mod matrix;
pub mod pool;

pub use cache::{CacheKey, ResultCache, SCHEMA_VERSION, SOURCE_HASH};
pub use matrix::{
    cell_key, full_matrix, group_matrix, matrix_of, run_cells, run_each_cell, to_csv, to_json,
    Cell, CellResult, FabricSpec,
};
pub use pool::run_parallel;
