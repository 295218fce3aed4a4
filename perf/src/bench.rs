//! The run protocol of one workload.
//!
//! Closed loop, one client, one thread: every cell runs to completion
//! before the next starts, and each cell starts with empty simulated
//! caches. Per workload:
//!
//! 1. set-up — build every cell's workload;
//! 2. one untimed warm-up pass over all cells;
//! 3. timed passes, tracing off — these give the end-to-end metrics,
//!    with each cell counted at its fastest timed run;
//! 4. optionally one traced pass, whose recorded streams are replayed
//!    layer by layer for the per-layer metrics.
//!
//! Every pass checks each cell's result row against the golden file (or,
//! for a synthetic point the seed chose, against the warm-up pass).

use crate::cells::{PerfCell, WorkloadKind};
use crate::metrics::{self, MetricDef};
use crate::replay::{
    replay_cache, replay_equeue, replay_mshr, replay_noc, Recording, RecordingSink,
};
use crate::spans::{SpanId, Spans};
use crate::stats::median;
use gsim_core::kernel::KernelBuilder;
use gsim_core::{KernelLaunch, Simulator, SystemConfig, TbSpec, Workload};
use gsim_harness::{full_matrix, run_cells, to_csv, Cell, ResultCache};
use gsim_trace::TraceHandle;
use gsim_types::{Counts, ProtocolConfig, SimStats};
use gsim_workloads::Scale;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::rc::Rc;

/// Set-ups before each pass. The first builds in a process fault in
/// fresh memory; three per pass let steady-state builds carry the median.
pub const SETUPS_PER_PASS: usize = 3;
/// Fewest timed passes a time-limited run makes.
pub const MIN_TIMED_PASSES: usize = 3;

/// How many timed passes to make.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Passes {
    /// Exactly this many.
    Count(usize),
    /// Until this many seconds of timed passes have run, and at least
    /// [`MIN_TIMED_PASSES`].
    Seconds(f64),
}

impl Passes {
    fn done(self, passes: usize, secs: f64) -> bool {
        match self {
            Passes::Count(n) => passes >= n,
            Passes::Seconds(s) => passes >= MIN_TIMED_PASSES && secs >= s,
        }
    }
}

/// Options of one run.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// Timed pass count.
    pub passes: Passes,
    /// Whether to make the traced pass and report per-layer metrics.
    pub traced: bool,
}

/// A metric's reported value with the samples behind it.
#[derive(Clone, Debug)]
pub struct Measured {
    /// The metric.
    pub def: &'static MetricDef,
    /// The reported value.
    pub value: f64,
    /// One value per timed pass or set-up repetition; the value alone
    /// for per-layer metrics and memory.
    pub samples: Vec<f64>,
}

/// Everything one workload run produced.
#[derive(Clone, Debug)]
pub struct WorkloadReport {
    /// Workload name.
    pub name: String,
    /// Cells per pass.
    pub cells: usize,
    /// Timed passes made.
    pub passes: usize,
    /// Cell runs attempted (all passes, traced pass included).
    pub attempted: u64,
    /// Cell runs that failed: a simulator error, a row differing from
    /// its reference, or a traced run or replay disagreeing with the
    /// plain run.
    pub failed: u64,
    /// One line per failure.
    pub errors: Vec<String>,
    /// End-to-end metrics, then per-layer metrics when traced.
    pub metrics: Vec<Measured>,
}

/// Where spans and the harness's scratch cache go: `out/` in the
/// package directory.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// Checks result rows and counts failures.
struct Checker<'g> {
    golden: &'g BTreeMap<String, String>,
    first: BTreeMap<String, String>,
    attempted: u64,
    errors: Vec<String>,
}

impl Checker<'_> {
    fn fail(&mut self, msg: String) {
        self.errors.push(msg);
    }

    /// Checks one cell run; returns its stats when it ran.
    fn cell(&mut self, cell: &PerfCell, result: Result<SimStats, String>) -> Option<SimStats> {
        self.attempted += 1;
        let stats = match result {
            Ok(s) => s,
            Err(e) => {
                self.fail(format!("{}: {e}", cell.key()));
                return None;
            }
        };
        let (key, row) = (cell.key(), cell.csv_row(&stats));
        match self.golden.get(&key).or_else(|| self.first.get(&key)) {
            Some(want) if *want != row => self.fail(format!("{key}: result row differs")),
            Some(_) => {}
            None if !cell.is_synthetic() && !self.golden.is_empty() => {
                self.fail(format!("{key}: no golden row"))
            }
            None => {
                self.first.insert(key, row);
            }
        }
        Some(stats)
    }
}

/// Runs one workload: set-up, warm-up, timed passes and, when
/// `opts.traced`, the traced pass. `cells` are in run order; `golden`
/// maps cell keys to expected rows (empty: check passes against the
/// warm-up only).
pub fn run_workload(
    kind: WorkloadKind,
    cells: &[PerfCell],
    golden: &BTreeMap<String, String>,
    opts: &Options,
    spans: &mut Spans,
) -> WorkloadReport {
    let root = spans.open(format!("workload:{}", kind.name()), None);
    let mut check = Checker {
        golden,
        first: BTreeMap::new(),
        attempted: 0,
        errors: Vec::new(),
    };
    reset_peak_rss();

    // Set-up is repeated before every pass, so that `setup_s`, the
    // median, samples the host across the whole run.
    let mut setup = Vec::new();
    let mut builds = vec![Vec::new(); cells.len()];
    let mut workloads = Vec::new();
    let harness_cells: Vec<Cell> = if kind.via_harness() {
        let cell = |c: &PerfCell| {
            c.harness_cell()
                .expect("harness cells are registered benchmarks")
        };
        cells.iter().map(cell).collect()
    } else {
        Vec::new()
    };

    let mut wall = Vec::new();
    let mut cell_secs = vec![Vec::new(); cells.len()];
    let mut plain: Vec<Option<SimStats>> = vec![None; cells.len()];
    for pass in 0.. {
        if pass > 0 && opts.passes.done(wall.len(), wall.iter().sum()) {
            break;
        }
        let name = if pass == 0 {
            "warmup".to_string()
        } else {
            format!("pass:{pass}")
        };
        for _ in 0..SETUPS_PER_PASS {
            setup.push(set_up(cells, &mut workloads, &mut builds, spans, root));
        }
        let id = spans.open(name, Some(root));
        let results: Vec<Result<SimStats, String>> = if kind.via_harness() {
            match run_cells(&harness_cells, 1, None) {
                Ok(rs) => rs.into_iter().map(|r| Ok(r.stats)).collect(),
                Err(e) => vec![Err(e); cells.len()],
            }
        } else {
            let mut results = Vec::with_capacity(cells.len());
            for (i, (c, w)) in cells.iter().zip(&workloads).enumerate() {
                let sim = Simulator::new(c.system());
                let (r, secs) = spans.time(format!("run:{}", c.key()), Some(id), || sim.run(w));
                if pass > 0 {
                    cell_secs[i].push(secs);
                }
                results.push(r.map_err(|e| e.to_string()));
            }
            results
        };
        let secs = spans.close(id);
        for (i, r) in results.into_iter().enumerate() {
            plain[i] = check.cell(&cells[i], r);
        }
        if pass > 0 {
            wall.push(secs);
        }
    }
    let rss = peak_rss_mb().unwrap_or_else(|| {
        check.fail("VmHWM unavailable in /proc/self/status".into());
        0.0
    });

    // The host's speed drifts in spells of seconds, so each cell counts
    // at its fastest timed run; a harness pass is timed only as a whole.
    let fastest = |xs: &[f64]| xs.iter().copied().fold(f64::INFINITY, f64::min);
    let wall_s = if kind.via_harness() {
        fastest(&wall)
    } else {
        cell_secs.iter().map(|c| fastest(c)).sum()
    };
    let mut work = Counts::default();
    let mut cycles = 0;
    for s in plain.iter().flatten() {
        work += s.counts;
        cycles += s.cycles;
    }
    let mut measured: BTreeMap<&'static str, Measured> = BTreeMap::new();
    let mut put = |name, value, samples| {
        let def = metrics::def(name).expect("a defined metric");
        measured.insert(
            def.name,
            Measured {
                def,
                value,
                samples,
            },
        );
    };
    put("wall_s", wall_s, wall.clone());
    for (name, n) in [
        ("sim_cycles_per_s", cycles),
        ("sim_instr_per_s", work.instructions),
        ("sim_msgs_per_s", work.messages_sent),
    ] {
        let n = n as f64;
        put(name, n / wall_s, wall.iter().map(|t| n / t).collect());
    }
    put("setup_s", median(&setup), setup);
    put("peak_rss_mb", rss, vec![rss]);
    if opts.traced {
        let build_s: f64 = builds.iter().map(|b| median(b)).sum();
        // A harness pass builds each workload before running it.
        let run_s = wall_s - if kind.via_harness() { build_s } else { 0.0 };
        let layers = traced_pass(cells, &workloads, &plain, run_s, &mut check, spans, root);
        for (name, v) in layers
            .into_iter()
            .chain([("workloads.build_s", build_s), ("core.run_s", run_s)])
        {
            put(name, v, vec![v]);
        }
    }
    spans.close(root);

    let defs = metrics::END_TO_END
        .iter()
        .chain(if opts.traced { metrics::PER_LAYER } else { &[] });
    let metrics = defs
        .map(|def| {
            measured
                .remove(def.name)
                .unwrap_or_else(|| panic!("metric {} was not measured", def.name))
        })
        .collect();
    WorkloadReport {
        name: kind.name().to_string(),
        cells: cells.len(),
        passes: wall.len(),
        attempted: check.attempted,
        failed: check.errors.len() as u64,
        errors: check.errors,
        metrics,
    }
}

/// Builds every cell's workload into `workloads`, recording each build's
/// time in `builds`; returns the time of the whole set-up.
fn set_up(
    cells: &[PerfCell],
    workloads: &mut Vec<Workload>,
    builds: &mut [Vec<f64>],
    spans: &mut Spans,
    parent: SpanId,
) -> f64 {
    workloads.clear();
    let id = spans.open("setup", Some(parent));
    for (c, times) in cells.iter().zip(builds) {
        let (w, secs) = spans.time(format!("build:{}", c.key()), Some(id), || c.build());
        times.push(secs);
        workloads.push(w);
    }
    spans.close(id)
}

/// `x / n`, or 0 for an empty denominator.
fn ratio(x: f64, n: f64) -> f64 {
    if n == 0.0 {
        0.0
    } else {
        x / n
    }
}

/// Replay totals over the cells of a traced pass. Times are nanoseconds.
#[derive(Debug, Default)]
struct Replayed {
    noc_ns: f64,
    noc_ops: f64,
    noc_est_ns: f64,
    eq_ns: f64,
    eq_ops: f64,
    eq_est_ns: f64,
    mshr_ns: f64,
    cache_ns: f64,
    mem_ops: f64,
    mem_est_ns: f64,
    cache_hits: f64,
    arrivals_differ: f64,
}

/// Replays one traced cell's streams through the NoC, the event queue,
/// the MSHR files and the cache arrays, checking each against the run.
/// Estimates scale each replay's cost per operation to the run's full
/// operation count, so a stream cut at the cap still counts in full.
fn replay_cell(
    cell: &PerfCell,
    stats: &SimStats,
    rec: &Recording,
    acc: &mut Replayed,
    errs: &mut Vec<String>,
    spans: &mut Spans,
    parent: SpanId,
) {
    let sys = cell.system();
    let (sends, mshr_ops) = (rec.sends.len() as f64, rec.mshr.len() as f64);
    let msgs = stats.counts.messages_sent as f64;

    let (noc, _) = spans.time("replay.noc", Some(parent), || {
        replay_noc(&rec.sends, sys.topology)
    });
    match noc {
        Ok(n) => {
            if !rec.truncated && n.traffic != stats.traffic {
                errs.push("replayed NoC traffic differs".into());
            }
            acc.noc_ns += n.best_ns;
            acc.noc_ops += sends;
            acc.noc_est_ns += msgs * ratio(n.best_ns, sends);
            acc.arrivals_differ += n.arrivals_differ as f64;
        }
        Err(e) => errs.push(e),
    }

    let ((eq_ns, _), _) = spans.time("replay.equeue", Some(parent), || {
        replay_equeue(&rec.sends, sys.event_queue)
    });
    acc.eq_ns += eq_ns;
    acc.eq_ops += 2.0 * sends;
    acc.eq_est_ns += 2.0 * msgs * ratio(eq_ns, 2.0 * sends);

    let (mshr, _) = spans.time("replay.mshr", Some(parent), || {
        replay_mshr(&rec.mshr, sys.mshr_entries)
    });
    let mshr_ns = match mshr {
        Ok(m) => {
            if !rec.truncated && m.outstanding != 0 {
                errs.push(format!(
                    "{} MSHR entries outstanding after replay",
                    m.outstanding
                ));
            }
            m.best_ns
        }
        Err(e) => {
            errs.push(e);
            0.0
        }
    };
    let (cache, _) = spans.time("replay.cache", Some(parent), || {
        replay_cache(&rec.mshr, sys.l1_geometry)
    });
    acc.mshr_ns += mshr_ns;
    acc.cache_ns += cache.best_ns;
    acc.mem_ops += mshr_ops;
    acc.cache_hits += cache.hits as f64;
    let mshr_full = (rec.count("mshr-alloc") + rec.count("mshr-retire")) as f64;
    let cache_full = (stats.counts.l1_accesses + stats.counts.l2_accesses) as f64;
    acc.mem_est_ns +=
        mshr_full * ratio(mshr_ns, mshr_ops) + cache_full * ratio(cache.best_ns, mshr_ops);
}

/// The traced pass: each cell once with a recording sink, its streams
/// replayed layer by layer. `run_s` is the plain host time of the same
/// cells. Returns every per-layer metric except `workloads.build_s` and
/// `core.run_s`, which come from set-up and the timed passes.
fn traced_pass(
    cells: &[PerfCell],
    workloads: &[Workload],
    plain: &[Option<SimStats>],
    run_s: f64,
    check: &mut Checker,
    spans: &mut Spans,
    root: SpanId,
) -> BTreeMap<&'static str, f64> {
    let pass = spans.open("traced", Some(root));
    let mut counts = Counts::default();
    let mut cycles = 0u64;
    let mut traced_s = 0.0;
    let mut rec_totals = Recording::default();
    let mut acc = Replayed::default();
    for ((cell, w), plain) in cells.iter().zip(workloads).zip(plain) {
        let key = cell.key();
        let cell_span = spans.open(format!("cell:{key}"), Some(pass));
        let shared = Rc::new(RefCell::new(Recording::default()));
        let trace = TraceHandle::with_sink(Box::new(RecordingSink(shared.clone())));
        let sim = Simulator::new(cell.system());
        let (result, secs) = spans.time("run.traced", Some(cell_span), || sim.run_traced(w, trace));
        let rec = shared.take();
        traced_s += secs;
        check.attempted += 1;
        let mut errs = Vec::new();
        match result {
            Ok(stats) if Some(stats) == *plain => {
                replay_cell(cell, &stats, &rec, &mut acc, &mut errs, spans, cell_span);
                counts += stats.counts;
                cycles += stats.cycles;
            }
            Ok(_) => errs.push("traced stats differ from the plain run".into()),
            Err(e) => errs.push(e.to_string()),
        }
        for (kind, n) in rec.kinds {
            *rec_totals.kinds.entry(kind).or_default() += n;
        }
        if !errs.is_empty() {
            check.fail(format!("{key} (traced): {}", errs.join("; ")));
        }
        spans.close(cell_span);
    }
    spans.close(pass);
    if acc.noc_ops > 0.0 {
        eprintln!(
            "  replay: {:.1}% of {} replayed arrival cycles differ from the traced run",
            100.0 * acc.arrivals_differ / acc.noc_ops,
            acc.noc_ops
        );
    }

    let (cold, warm, hit_frac) = harness_passes(check, spans, root);
    let est_s = |ns: f64| ns * 1e-9;
    let share = |s: f64| ratio(s, run_s);
    let self_s = run_s - est_s(acc.noc_est_ns + acc.eq_est_ns + acc.mem_est_ns);
    let msgs = counts.messages_sent as f64;
    let allocs = rec_totals.count("mshr-alloc") as f64;
    BTreeMap::from([
        ("harness.cold_pass_s", cold),
        ("harness.warm_pass_s", warm),
        ("harness.hit_frac", hit_frac),
        ("core.fixed_run_us", fixed_run_us(spans, root)),
        ("core.instructions", counts.instructions as f64),
        (
            "core.ns_per_instr",
            ratio(self_s * 1e9, counts.instructions as f64),
        ),
        ("core.ns_per_cycle", ratio(self_s * 1e9, cycles as f64)),
        ("core.self_s", self_s),
        ("core.self_share", share(self_s)),
        ("equeue.ops", 2.0 * msgs),
        ("equeue.ns_per_op", ratio(acc.eq_ns, acc.eq_ops)),
        ("equeue.est_s", est_s(acc.eq_est_ns)),
        ("equeue.share", share(est_s(acc.eq_est_ns))),
        ("noc.msgs", msgs),
        ("noc.flit_hops", counts.flit_hops as f64),
        ("noc.ns_per_send", ratio(acc.noc_ns, acc.noc_ops)),
        ("noc.est_s", est_s(acc.noc_est_ns)),
        ("noc.share", share(est_s(acc.noc_est_ns))),
        ("protocol.l1_accesses", counts.l1_accesses as f64),
        (
            "protocol.l1_load_hit_rate",
            counts.l1_load_hit_rate().unwrap_or(0.0),
        ),
        (
            "protocol.l1_atomic_hit_rate",
            counts.l1_atomic_hit_rate().unwrap_or(0.0),
        ),
        ("protocol.l2_accesses", counts.l2_accesses as f64),
        ("protocol.l2_atomics", counts.l2_atomics as f64),
        ("protocol.registrations", counts.registrations as f64),
        ("protocol.reg_forwards", counts.reg_forwards as f64),
        (
            "protocol.words_invalidated",
            counts.words_invalidated as f64,
        ),
        (
            "protocol.flash_invalidations",
            counts.flash_invalidations as f64,
        ),
        ("mem.mshr_allocs", allocs),
        ("mem.mshr.ns_per_op", ratio(acc.mshr_ns, acc.mem_ops)),
        ("mem.cache.ns_per_op", ratio(acc.cache_ns, acc.mem_ops)),
        ("mem.cache.replay_hit_rate", ratio(acc.cache_hits, allocs)),
        ("mem.est_s", est_s(acc.mem_est_ns)),
        ("mem.sb_flushes", rec_totals.count("sb-flush") as f64),
        (
            "mem.dram_accesses",
            (counts.dram_reads + counts.dram_writes) as f64,
        ),
        ("mem.evictions", rec_totals.count("eviction") as f64),
        ("trace.events", rec_totals.events() as f64),
        ("trace.overhead_frac", share(traced_s) - 1.0),
    ])
}

/// Two passes of the Tiny matrix through `run_cells` against a fresh
/// result cache: cold (every cell computed and stored), then warm (every
/// cell served). Returns (cold seconds, warm seconds, warm hit share).
fn harness_passes(check: &mut Checker, spans: &mut Spans, root: SpanId) -> (f64, f64, f64) {
    let dir = out_dir().join(format!("cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = match ResultCache::open(&dir) {
        Ok(c) => c,
        Err(e) => {
            check.fail(format!(
                "harness: cannot open a cache in {}: {e}",
                dir.display()
            ));
            return (0.0, 0.0, 0.0);
        }
    };
    let cells = full_matrix(Scale::Tiny);
    let (cold, cold_s) = spans.time("harness.cold", Some(root), || {
        run_cells(&cells, 1, Some(&cache))
    });
    let stored = cache.hits();
    let (warm, warm_s) = spans.time("harness.warm", Some(root), || {
        run_cells(&cells, 1, Some(&cache))
    });
    let hit_frac = (cache.hits() - stored) as f64 / cells.len() as f64;
    match (cold, warm) {
        (Ok(c), Ok(w)) if to_csv(&c) == to_csv(&w) => {}
        (Ok(_), Ok(_)) => check.fail("harness: cached pass differs from the computed pass".into()),
        (Err(e), _) | (_, Err(e)) => check.fail(format!("harness: {e}")),
    }
    let _ = std::fs::remove_dir_all(&dir);
    (cold_s, warm_s, hit_frac)
}

/// Median host time, in microseconds, of a run that launches one thread
/// block which halts at once: the simulator's fixed cost per run.
fn fixed_run_us(spans: &mut Spans, root: SpanId) -> f64 {
    let mut b = KernelBuilder::new();
    b.halt();
    let w = Workload {
        name: "empty".into(),
        init: Box::new(|_| {}),
        kernels: vec![KernelLaunch {
            program: b.build(),
            tbs: vec![TbSpec::with_regs(&[])],
        }],
        verify: Box::new(|_| Ok(())),
    };
    let sim = Simulator::new(SystemConfig::micro15(ProtocolConfig::Gd));
    let id = spans.open("core.fixed_run", Some(root));
    let samples: Vec<f64> = (0..220)
        .map(|_| {
            let t = std::time::Instant::now();
            let r = std::hint::black_box(sim.run(&w));
            let us = t.elapsed().as_secs_f64() * 1e6;
            r.expect("an empty kernel runs");
            us
        })
        .skip(20)
        .collect();
    spans.close(id);
    median(&samples)
}

/// Resets the kernel's peak-RSS mark for this process, so the next
/// [`peak_rss_mb`] covers only what follows.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set (`VmHWM`) in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
