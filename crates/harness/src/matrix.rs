//! The experiment matrix: cells, the cached parallel runner, and the
//! machine-readable emitters.
//!
//! A [`Cell`] names one run — (benchmark, configuration, scale) — and
//! [`run_cells`] executes any cell list through the job pool, consulting
//! the [`ResultCache`](crate::ResultCache) per cell. Results come back
//! in cell order with identical bytes from [`to_csv`]/[`to_json`]
//! whatever the worker count, and whether a cell was computed or served
//! from cache.

use crate::cache::{CacheKey, ResultCache};
use crate::pool;
use gsim_core::{Simulator, SystemConfig, XLinkConfig};
use gsim_types::{Cycle, JsonValue, ProtocolConfig, SimStats};
use gsim_workloads::registry::{self, Group};
use gsim_workloads::Scale;

/// The multi-device shape of a cell's system. The default — one device —
/// is the paper's plain `micro15` system, and cells carrying it keep the
/// exact pre-fabric cache keys.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FabricSpec {
    /// Device meshes in the fabric (1 = the plain single-GPU system).
    pub devices: u8,
    /// One-way inter-device link latency, cycles (ignored when
    /// `devices == 1`).
    pub xlink_latency: Cycle,
}

impl Default for FabricSpec {
    fn default() -> Self {
        FabricSpec {
            devices: 1,
            xlink_latency: XLinkConfig::default().latency,
        }
    }
}

impl FabricSpec {
    /// A fabric of `devices` meshes at `xlink_latency`.
    pub fn new(devices: u8, xlink_latency: Cycle) -> Self {
        FabricSpec {
            devices: devices.max(1),
            xlink_latency,
        }
    }

    /// Whether this is the plain single-device system.
    fn is_single(&self) -> bool {
        self.devices <= 1
    }

    /// The system this spec describes under `protocol`.
    pub fn system(&self, protocol: ProtocolConfig) -> SystemConfig {
        if self.is_single() {
            SystemConfig::micro15(protocol)
        } else {
            SystemConfig::fabric(protocol, self.devices, self.xlink_latency)
        }
    }

    /// The cache-key token of this shape: `"micro15"` for a single
    /// device (byte-identical to the pre-fabric keys, so existing caches
    /// stay valid), a fabric-qualified token otherwise.
    fn cache_token(&self) -> String {
        if self.is_single() {
            "micro15".into()
        } else {
            format!("fabric:d{}:x{}", self.devices, self.xlink_latency)
        }
    }
}

/// One experiment: a benchmark under a configuration at a scale, on a
/// fabric shape (default: the paper's single-device system).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cell {
    /// Benchmark name (Table 4 abbreviation, e.g. `"SPM_G"`).
    pub bench: String,
    /// Protocol/consistency configuration.
    pub config: ProtocolConfig,
    /// Workload scale.
    pub scale: Scale,
    /// Multi-device topology of the run.
    pub fabric: FabricSpec,
}

impl Cell {
    /// This cell moved onto `fabric` (sweeps map this over a matrix).
    pub fn on_fabric(mut self, fabric: FabricSpec) -> Self {
        self.fabric = fabric;
        self
    }

    /// The system configuration this cell runs on.
    fn system(&self) -> SystemConfig {
        self.fabric.system(self.config)
    }
}

/// The outcome of one cell.
#[derive(Clone, Debug, PartialEq)]
pub struct CellResult {
    /// The cell that ran.
    pub cell: Cell,
    /// Its (functionally verified) statistics.
    pub stats: SimStats,
    /// Whether the result came from the cache instead of a fresh run.
    pub from_cache: bool,
}

/// The full Table 4 grid: every registered benchmark under every one of
/// the five configurations, in presentation order.
pub fn full_matrix(scale: Scale) -> Vec<Cell> {
    matrix_of(
        &registry::all().iter().map(|b| b.name).collect::<Vec<_>>(),
        &ProtocolConfig::ALL,
        scale,
    )
}

/// The grid restricted to one group (`None` = all Table 4 groups). The
/// extension and fabric groups live outside Table 4, so they only
/// appear when named explicitly.
pub fn group_matrix(group: Option<Group>, scale: Scale) -> Vec<Cell> {
    let pool = match group {
        Some(Group::Extension) => registry::extensions(),
        Some(Group::Fabric) => registry::fabric(),
        _ => registry::all(),
    };
    let benches: Vec<&str> = pool
        .iter()
        .filter(|b| group.is_none_or(|g| b.group == g))
        .map(|b| b.name)
        .collect();
    matrix_of(&benches, &ProtocolConfig::ALL, scale)
}

/// An arbitrary benches × configs grid.
pub fn matrix_of(benches: &[&str], configs: &[ProtocolConfig], scale: Scale) -> Vec<Cell> {
    benches
        .iter()
        .flat_map(|&bench| {
            configs.iter().map(move |&config| Cell {
                bench: bench.to_string(),
                config,
                scale,
                fabric: FabricSpec::default(),
            })
        })
        .collect()
}

/// The cache key of a cell run through [`run_cells`]. Single-device
/// cells keep the historical `micro15;...` keys; fabric cells get a
/// token naming the device count and link latency, so shapes never
/// serve each other's results. Exposed so tests and the CLI can reason
/// about what invalidates what.
pub fn cell_key(cell: &Cell) -> Result<CacheKey, String> {
    let b = registry::by_name(&cell.bench)
        .ok_or_else(|| format!("unknown benchmark {:?}", cell.bench))?;
    Ok(CacheKey {
        bench: cell.bench.clone(),
        config: cell.config,
        scale: cell.scale,
        params: format!("{};{}", cell.fabric.cache_token(), b.table4_input),
    })
}

/// Runs one cell, consulting the cache first. Fresh results are
/// functionally verified by the simulator before they are stored.
fn run_cell(cell: &Cell, cache: Option<&ResultCache>) -> Result<CellResult, String> {
    let key = cell_key(cell)?;
    if let Some(c) = cache {
        if let Some(stats) = c.get(&key) {
            return Ok(CellResult {
                cell: cell.clone(),
                stats,
                from_cache: true,
            });
        }
    }
    let b = registry::by_name(&cell.bench).expect("checked by cell_key");
    let stats = Simulator::new(cell.system())
        .run(&(b.build)(cell.scale))
        .map_err(|e| format!("{} under {}: {e}", cell.bench, cell.config))?;
    if let Some(c) = cache {
        c.put(&key, &stats);
    }
    Ok(CellResult {
        cell: cell.clone(),
        stats,
        from_cache: false,
    })
}

/// Executes every cell on `jobs` workers (0 = auto), returning each
/// cell's own outcome in cell order: a failing cell costs only its own
/// result. Failures are never cached, so they rerun every time.
pub fn run_each_cell(
    cells: &[Cell],
    jobs: usize,
    cache: Option<&ResultCache>,
) -> Vec<Result<CellResult, String>> {
    pool::run_parallel(cells, jobs, |cell| run_cell(cell, cache))
}

/// Executes every cell on `jobs` workers (0 = auto), returning results
/// in cell order. The first failing cell's error is returned (all
/// cells still run first; [`run_each_cell`] keeps the others' results).
pub fn run_cells(
    cells: &[Cell],
    jobs: usize,
    cache: Option<&ResultCache>,
) -> Result<Vec<CellResult>, String> {
    run_each_cell(cells, jobs, cache).into_iter().collect()
}

fn scale_slug(scale: Scale) -> String {
    format!("{scale:?}").to_lowercase()
}

/// Renders results as CSV: identifying columns, then the full
/// [`SimStats::csv_header`] column set. Byte-deterministic in the cell
/// list — independent of worker count and cache state.
pub fn to_csv(results: &[CellResult]) -> String {
    let mut s = String::new();
    s.push_str("benchmark,config,scale,");
    s.push_str(&SimStats::csv_header());
    s.push('\n');
    for r in results {
        s.push_str(&format!(
            "{},{},{},{}\n",
            r.cell.bench,
            r.cell.config.abbrev(),
            scale_slug(r.cell.scale),
            r.stats.csv_row()
        ));
    }
    s
}

/// Renders results as a JSON document with the full per-cell statistics
/// (including latency histograms, which CSV omits). Byte-deterministic
/// like [`to_csv`].
pub fn to_json(results: &[CellResult]) -> String {
    let cells = results
        .iter()
        .map(|r| {
            JsonValue::Obj(vec![
                ("benchmark".into(), JsonValue::Str(r.cell.bench.clone())),
                (
                    "config".into(),
                    JsonValue::Str(r.cell.config.abbrev().into()),
                ),
                ("scale".into(), JsonValue::Str(scale_slug(r.cell.scale))),
                ("stats".into(), r.stats.to_json_value()),
            ])
        })
        .collect();
    JsonValue::Obj(vec![
        (
            "schema".into(),
            JsonValue::num(crate::cache::SCHEMA_VERSION),
        ),
        ("results".into(), JsonValue::Arr(cells)),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_matrix_is_the_table4_grid() {
        let cells = full_matrix(Scale::Tiny);
        assert_eq!(cells.len(), 23 * 5);
        assert_eq!(cells[0].bench, "BP");
        assert_eq!(cells[0].config, ProtocolConfig::Gd);
        assert_eq!(cells[4].config, ProtocolConfig::Dh);
        assert_eq!(cells[5].bench, "PF");
    }

    #[test]
    fn group_matrix_filters() {
        let global = group_matrix(Some(Group::GlobalSync), Scale::Tiny);
        assert_eq!(global.len(), 4 * 5);
        assert!(global.iter().all(|c| c.bench.ends_with("_G")));
        assert_eq!(group_matrix(None, Scale::Tiny).len(), 23 * 5);
    }

    #[test]
    fn unknown_benchmark_is_an_error() {
        let cells = matrix_of(&["NOPE"], &[ProtocolConfig::Dd], Scale::Tiny);
        let err = run_cells(&cells, 1, None).unwrap_err();
        assert!(err.contains("NOPE"), "error names the benchmark: {err}");
    }

    #[test]
    fn a_failing_cell_costs_only_its_own_result() {
        let dir = std::env::temp_dir().join(format!("gsim-each-cell-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::open(&dir).unwrap();
        // XPC pins a block to device 1, so it cannot run on one device.
        let cells = matrix_of(
            &["XDEV_D", "XPC", "XDEV_S"],
            &[ProtocolConfig::Dd],
            Scale::Tiny,
        );
        for pass in 0..2 {
            let out = run_each_cell(&cells, 2, Some(&cache));
            assert_eq!(out.len(), 3);
            assert_eq!(out[0].as_ref().unwrap().cell, cells[0]);
            let err = out[1].as_ref().unwrap_err();
            assert!(
                err.starts_with("XPC under DD:") && err.contains("CU 15"),
                "{err}"
            );
            assert_eq!(out[2].as_ref().unwrap().cell, cells[2]);
            assert_eq!(out[2].as_ref().unwrap().from_cache, pass == 1);
        }
        assert_eq!(cache.stores(), 2, "the failure is never cached");
        assert_eq!(cache.hits(), 2);
        assert!(run_cells(&cells, 1, Some(&cache)).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn emitters_are_deterministic_across_worker_counts() {
        let cells = matrix_of(&["SPM_G", "NN"], &ProtocolConfig::ALL, Scale::Tiny);
        let one = run_cells(&cells, 1, None).unwrap();
        let many = run_cells(&cells, 4, None).unwrap();
        assert_eq!(to_csv(&one), to_csv(&many));
        assert_eq!(to_json(&one), to_json(&many));
        let csv = to_csv(&one);
        assert!(csv.starts_with("benchmark,config,scale,cycles,"));
        assert_eq!(csv.lines().count(), 1 + 10, "header + one row per cell");
        assert!(csv.contains("SPM_G,DD+RO,tiny,"));
    }

    #[test]
    fn fabric_cells_key_separately_and_single_device_keys_are_unchanged() {
        let cell = &matrix_of(&["SPM_G"], &[ProtocolConfig::Dd], Scale::Tiny)[0];
        let plain = cell_key(cell).unwrap();
        assert!(
            plain.params.starts_with("micro15;"),
            "pre-fabric cache keys must survive verbatim: {}",
            plain.params
        );
        let two = cell_key(&cell.clone().on_fabric(FabricSpec::new(2, 40))).unwrap();
        assert!(two.params.starts_with("fabric:d2:x40;"), "{}", two.params);
        let far = cell_key(&cell.clone().on_fabric(FabricSpec::new(2, 400))).unwrap();
        let wide = cell_key(&cell.clone().on_fabric(FabricSpec::new(4, 40))).unwrap();
        let fps: Vec<_> = [&plain, &two, &far, &wide]
            .iter()
            .map(|k| k.fingerprint())
            .collect();
        for i in 0..fps.len() {
            for j in i + 1..fps.len() {
                assert_ne!(fps[i], fps[j], "shapes {i} and {j} share a key");
            }
        }
        // devices=1 is the plain system whatever the link latency says.
        let one = cell_key(&cell.clone().on_fabric(FabricSpec::new(1, 999))).unwrap();
        assert_eq!(one.fingerprint(), plain.fingerprint());
    }

    #[test]
    fn fabric_sweep_is_deterministic_across_worker_counts() {
        let fabric = FabricSpec::new(2, 40);
        let cells: Vec<Cell> = matrix_of(
            &["XDEV_D", "XDEV_S", "XPC"],
            &[ProtocolConfig::Gd, ProtocolConfig::Dd],
            Scale::Tiny,
        )
        .into_iter()
        .map(|c| c.on_fabric(fabric))
        .collect();
        let one = run_cells(&cells, 1, None).unwrap();
        let many = run_cells(&cells, 4, None).unwrap();
        assert_eq!(to_csv(&one), to_csv(&many));
        assert_eq!(to_json(&one), to_json(&many));
    }

    #[test]
    fn fabric_sweep_shows_the_scope_gap() {
        let fabric = FabricSpec::new(2, 40);
        let cells: Vec<Cell> = matrix_of(&["XDEV_D", "XDEV_S"], &[ProtocolConfig::Dd], Scale::Tiny)
            .into_iter()
            .map(|c| c.on_fabric(fabric))
            .collect();
        let r = run_cells(&cells, 1, None).unwrap();
        assert!(
            r[1].stats.cycles > r[0].stats.cycles,
            "system scope ({}) must out-cycle device scope ({})",
            r[1].stats.cycles,
            r[0].stats.cycles
        );
    }

    #[test]
    fn cache_serves_second_run_and_bytes_match() {
        let dir = std::env::temp_dir().join(format!("gsim-matrix-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::open(&dir).unwrap();
        let cells = matrix_of(&["SPM_G"], &ProtocolConfig::ALL, Scale::Tiny);

        let first = run_cells(&cells, 2, Some(&cache)).unwrap();
        assert!(first.iter().all(|r| !r.from_cache));
        assert_eq!(cache.stores(), 5);

        let second = run_cells(&cells, 2, Some(&cache)).unwrap();
        assert!(second.iter().all(|r| r.from_cache), "all cells cached");
        assert_eq!(cache.hits(), 5);
        assert_eq!(to_csv(&first), to_csv(&second));
        assert_eq!(to_json(&first), to_json(&second));

        // Uncached agrees with cached: the cache is transparent.
        let fresh = run_cells(&cells, 1, None).unwrap();
        assert_eq!(to_csv(&fresh), to_csv(&second));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
