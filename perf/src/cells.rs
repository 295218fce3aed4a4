//! The four workloads, the cells each runs, and their result rows.
//!
//! A cell is one simulation: a program (a Table 4 benchmark or a
//! synthetic-mutex point) under one protocol configuration, at one scale,
//! on one fabric shape. The seed chooses the synthetic points and the
//! order cells run in; the simulator itself sees only the built
//! workloads.

use gsim_core::{SystemConfig, Workload};
use gsim_harness::{Cell, FabricSpec};
use gsim_types::{ProtocolConfig, Rng64, Scope, SimStats};
use gsim_workloads::synth::{synthetic_mutex, SynthParams};
use gsim_workloads::{registry, Benchmark, Scale};
use std::collections::BTreeMap;

use ProtocolConfig::{Dd, Dh, Gd, Gh};

/// One of the benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Compute-bound Figure 2 kernels, Paper scale.
    NoSync,
    /// Contended global synchronization (Figure 3), Paper scale, plus the
    /// cross-device spin mutex on a two-device fabric.
    GlobalSync,
    /// Local and hybrid synchronization (Figure 4) plus seeded
    /// synthetic-mutex points, Paper scale.
    LocalSync,
    /// Every Table 4 benchmark under every configuration, Tiny scale,
    /// run through the harness.
    TinyMatrix,
}

impl WorkloadKind {
    /// All workloads, in report order.
    pub const ALL: [WorkloadKind; 4] = [
        WorkloadKind::NoSync,
        WorkloadKind::GlobalSync,
        WorkloadKind::LocalSync,
        WorkloadKind::TinyMatrix,
    ];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::NoSync => "nosync",
            WorkloadKind::GlobalSync => "global_sync",
            WorkloadKind::LocalSync => "local_sync",
            WorkloadKind::TinyMatrix => "tiny_matrix",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<WorkloadKind> {
        WorkloadKind::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the timed passes go through `gsim_harness::run_cells`.
    pub fn via_harness(self) -> bool {
        self == WorkloadKind::TinyMatrix
    }

    /// The workload's cells in canonical (golden-file) order. `rng`
    /// draws the synthetic-mutex points of `local_sync`.
    pub fn cells(self, rng: &mut Rng64) -> Vec<PerfCell> {
        let single = FabricSpec::default();
        match self {
            WorkloadKind::NoSync => grid(&["LUD", "HS", "SGEMM"], &[Gd, Dd], single),
            WorkloadKind::GlobalSync => {
                let mut cells = grid(&["SPM_G", "SLM_G", "SPMBO_G"], &[Gd, Dd], single);
                cells.extend(grid(&["XDEV_S"], &[Gd, Dd], FabricSpec::new(2, 40)));
                cells
            }
            WorkloadKind::LocalSync => {
                let mut cells = grid(&["UTS"], &[Dd, Dh], single);
                cells.extend(grid(
                    &["TB_LG", "TBEX_LG", "SPM_L", "SS_L"],
                    &[Gh, Dd, Dh],
                    single,
                ));
                for p in synth_points(rng) {
                    cells.extend([Gh, Dd, Dh].map(|config| PerfCell {
                        program: Program::Synth(p),
                        config,
                        scale: Scale::Paper,
                        fabric: single,
                    }));
                }
                cells
            }
            WorkloadKind::TinyMatrix => registry::all()
                .into_iter()
                .flat_map(|b| {
                    ProtocolConfig::ALL.map(|config| PerfCell {
                        program: Program::Bench(b),
                        config,
                        scale: Scale::Tiny,
                        fabric: single,
                    })
                })
                .collect(),
        }
    }
}

fn grid(benches: &[&str], configs: &[ProtocolConfig], fabric: FabricSpec) -> Vec<PerfCell> {
    benches
        .iter()
        .flat_map(|name| {
            let b = registry::by_name(name).expect("workload names a registered benchmark");
            configs.iter().map(move |&config| PerfCell {
                program: Program::Bench(b),
                config,
                scale: Scale::Paper,
                fabric,
            })
        })
        .collect()
}

/// Four synthetic-mutex points: one per lock count in {3, 5, 15, 45}
/// (so every seed covers the same contention range), each with a seeded
/// critical-section size and think time. Locks are locally scoped
/// exactly when that is sound.
///
/// The critical section stays near Table 4's 10 loads and stores: on a
/// contended lock host time grows with its size, and a wider range would
/// make `local_sync`'s pass time depend on the seed more than the
/// benchmark's 10% bound allows.
pub fn synth_points(rng: &mut Rng64) -> Vec<SynthParams> {
    let mut locks = [3, 5, 15, 45];
    permute(&mut locks, rng);
    locks
        .into_iter()
        .map(|locks| {
            let mut p = SynthParams {
                locks,
                iters: 25,
                cs_words: rng.gen_usize(8, 13),
                think_cycles: rng.gen_u32(0, 401),
                ..SynthParams::default()
            };
            if p.local_is_sound() {
                p.scope = Scope::Local;
            }
            p
        })
        .collect()
}

/// Fisher-Yates shuffle driven by `rng`.
pub fn permute<T>(xs: &mut [T], rng: &mut Rng64) {
    for i in (1..xs.len()).rev() {
        xs.swap(i, rng.gen_usize(0, i + 1));
    }
}

/// What a cell simulates.
#[derive(Clone, Copy, Debug)]
pub enum Program {
    /// A registered benchmark.
    Bench(Benchmark),
    /// A synthetic-mutex point.
    Synth(SynthParams),
}

/// One simulation of a workload.
#[derive(Clone, Copy, Debug)]
pub struct PerfCell {
    /// The simulated program.
    pub program: Program,
    /// Protocol configuration.
    pub config: ProtocolConfig,
    /// Input scale.
    pub scale: Scale,
    /// Device count and inter-device link latency.
    pub fabric: FabricSpec,
}

impl PerfCell {
    /// The program's name: the benchmark abbreviation, or
    /// `SYNTH_L<locks>_W<cs_words>_T<think>` for a synthetic point.
    pub fn program_name(&self) -> String {
        match self.program {
            Program::Bench(b) => b.name.to_string(),
            Program::Synth(p) => {
                format!("SYNTH_L{}_W{}_T{}", p.locks, p.cs_words, p.think_cycles)
            }
        }
    }

    /// Whether the seed chose this cell's program.
    pub fn is_synthetic(&self) -> bool {
        matches!(self.program, Program::Synth(_))
    }

    /// `benchmark,config,scale`: the identifying columns of the cell's
    /// result row, unique within a workload.
    pub fn key(&self) -> String {
        format!(
            "{},{},{}",
            self.program_name(),
            self.config.abbrev(),
            scale_slug(self.scale)
        )
    }

    /// Builds the simulated workload.
    pub fn build(&self) -> Workload {
        match self.program {
            Program::Bench(b) => (b.build)(self.scale),
            Program::Synth(p) => synthetic_mutex(&p),
        }
    }

    /// The system the cell runs on.
    pub fn system(&self) -> SystemConfig {
        self.fabric.system(self.config)
    }

    /// The harness's name for the cell (registered benchmarks only).
    pub fn harness_cell(&self) -> Option<Cell> {
        match self.program {
            Program::Bench(b) => Some(Cell {
                bench: b.name.to_string(),
                config: self.config,
                scale: self.scale,
                fabric: self.fabric,
            }),
            Program::Synth(_) => None,
        }
    }

    /// The cell's result row, byte-identical to the row
    /// `gsim_harness::to_csv` writes for the same run.
    pub fn csv_row(&self, stats: &SimStats) -> String {
        format!("{},{}", self.key(), stats.csv_row())
    }
}

fn scale_slug(scale: Scale) -> String {
    format!("{scale:?}").to_lowercase()
}

/// The header line of a result CSV (as `gsim_harness::to_csv` writes it).
pub fn csv_header() -> String {
    format!("benchmark,config,scale,{}", SimStats::csv_header())
}

/// Renders a golden file: the header, then one row per cell.
pub fn golden_csv<'a>(rows: impl IntoIterator<Item = &'a String>) -> String {
    let mut s = csv_header();
    s.push('\n');
    for r in rows {
        s.push_str(r);
        s.push('\n');
    }
    s
}

/// Parses a golden file into rows keyed by [`PerfCell::key`].
///
/// # Errors
///
/// When the header does not match this build's statistics columns.
pub fn parse_golden(text: &str) -> Result<BTreeMap<String, String>, String> {
    let mut lines = text.lines();
    if lines.next() != Some(csv_header().as_str()) {
        return Err("golden header does not match the statistics columns".into());
    }
    Ok(lines
        .map(|row| {
            let key = row.splitn(4, ',').take(3).collect::<Vec<_>>().join(",");
            (key, row.to_string())
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsim_core::Simulator;
    use gsim_harness::{run_cells, to_csv};

    #[test]
    fn workloads_have_the_documented_cells() {
        let mut rng = Rng64::seed_from_u64(1);
        let count = |w: WorkloadKind, rng: &mut Rng64| w.cells(rng).len();
        assert_eq!(count(WorkloadKind::NoSync, &mut rng), 6);
        assert_eq!(count(WorkloadKind::GlobalSync, &mut rng), 8);
        assert_eq!(count(WorkloadKind::LocalSync, &mut rng), 2 + 12 + 12);
        assert_eq!(count(WorkloadKind::TinyMatrix, &mut rng), 115);
        for w in WorkloadKind::ALL {
            assert_eq!(WorkloadKind::parse(w.name()), Some(w));
            let cells = w.cells(&mut Rng64::seed_from_u64(1));
            let mut keys: Vec<String> = cells.iter().map(PerfCell::key).collect();
            keys.sort();
            keys.dedup();
            assert_eq!(keys.len(), cells.len(), "{} keys are unique", w.name());
        }
    }

    #[test]
    fn synthetic_points_are_seeded_and_sound() {
        let a = synth_points(&mut Rng64::seed_from_u64(7));
        let b = synth_points(&mut Rng64::seed_from_u64(7));
        let c = synth_points(&mut Rng64::seed_from_u64(8));
        let names = |ps: &[SynthParams]| {
            ps.iter()
                .map(|p| (p.locks, p.cs_words, p.think_cycles))
                .collect::<Vec<_>>()
        };
        assert_eq!(names(&a), names(&b), "same seed, same points");
        assert_ne!(names(&a), names(&c), "another seed, other points");
        let mut locks: Vec<usize> = a.iter().map(|p| p.locks).collect();
        locks.sort_unstable();
        assert_eq!(locks, [3, 5, 15, 45]);
        for p in &a {
            assert!((8..=12).contains(&p.cs_words) && p.think_cycles <= 400);
            assert_eq!(p.scope == Scope::Local, p.local_is_sound());
        }
    }

    #[test]
    fn permutation_is_a_seeded_shuffle() {
        let mut a: Vec<u32> = (0..20).collect();
        let mut b = a.clone();
        permute(&mut a, &mut Rng64::seed_from_u64(3));
        permute(&mut b, &mut Rng64::seed_from_u64(3));
        assert_eq!(a, b);
        assert_ne!(a, (0..20).collect::<Vec<_>>());
        a.sort_unstable();
        assert_eq!(a, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn rows_are_the_harness_csv_rows() {
        let cells: Vec<PerfCell> = WorkloadKind::TinyMatrix
            .cells(&mut Rng64::seed_from_u64(1))
            .into_iter()
            .filter(|c| c.program_name() == "SPM_G")
            .collect();
        let harness: Vec<Cell> = cells.iter().filter_map(PerfCell::harness_cell).collect();
        let expected = to_csv(&run_cells(&harness, 1, None).unwrap());
        let rows: Vec<String> = cells
            .iter()
            .map(|c| c.csv_row(&Simulator::new(c.system()).run(&c.build()).unwrap()))
            .collect();
        assert_eq!(golden_csv(&rows), expected);
        let parsed = parse_golden(&expected).unwrap();
        assert_eq!(parsed.len(), cells.len());
        assert_eq!(parsed[&cells[0].key()], rows[0]);
    }
}
