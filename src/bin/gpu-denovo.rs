//! The `gpu-denovo` command-line interface: run any Table 4 benchmark
//! under any protocol/consistency configuration and inspect the paper's
//! three metrics, with the full counter breakdown on request.
//!
//! `sweep` and `matrix` execute their grids through the parallel
//! harness (`--jobs N`) with a content-addressed result cache under
//! `target/gsim-cache/` (disable with `--no-cache`); output bytes are
//! identical for any `--jobs` value.
//!
//! ```text
//! gpu-denovo list
//! gpu-denovo run SPM_G --config DD --paper --detail
//! gpu-denovo compare UTS --paper
//! gpu-denovo sweep --group global --paper --jobs 8 --out results.csv
//! gpu-denovo matrix --paper --jobs 8 --out results.json
//! gpu-denovo check
//! gpu-denovo check --bench SPM_G
//! ```
//!
//! `check` runs the conformance battery: every litmus shape under
//! `CheckLevel::Full` on every configuration (coherence invariants,
//! quiesce audits, and the happens-before race detector all armed),
//! verifies the deliberately racy negative *is* flagged, and optionally
//! puts one Table 4 benchmark under the same microscope.

use gpu_denovo::explore::{self, Budget, ExploreMode, ScheduleId};
use gpu_denovo::harness::{self, Cell, CellResult, FabricSpec, ResultCache};
use gpu_denovo::trace::{
    chrome_json_full, to_chrome_json, CounterTrack, JourneySpan, RingRecorder, TraceHandle,
};
use gpu_denovo::types::{Cycle, JsonValue, MsgClass};
use gpu_denovo::workloads::litmus;
use gpu_denovo::{
    registry, CheckLevel, FlowReport, FlowSpec, LensReport, LensSpec, ObserveSpec, ProfileReport,
    ProtocolConfig, Reports, Scale, SimError, SimStats, Simulator, StallKind, SystemConfig,
};
use std::process::ExitCode;

const CONFIG_NAMES: &str = "GD, GH, DD, DD+RO, DH";
const GROUP_NAMES: &str = "nosync, global, local, extension, fabric";

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  \
         gpu-denovo list\n  \
         gpu-denovo run <BENCH> [--config GD|GH|DD|DD+RO|DH] [--paper] [--detail] [--hist]\n              \
         [--devices N] [--xlink-latency N]\n  \
         gpu-denovo compare <BENCH> [--paper] [--devices N] [--xlink-latency N]\n  \
         gpu-denovo sweep [--group nosync|global|local|extension|fabric] [--paper] [--jobs N]\n                   \
         [--devices N] [--xlink-latency N] [--out FILE.csv|FILE.json] [--no-cache]\n  \
         gpu-denovo matrix [--paper] [--jobs N] [--out FILE.csv|FILE.json]\n                    \
         [--devices N] [--xlink-latency N] [--no-cache]\n  \
         gpu-denovo trace <BENCH> [--config GD|GH|DD|DD+RO|DH] [--paper] --out <FILE>\n                   \
         [--devices N] [--xlink-latency N]\n  \
         gpu-denovo profile <BENCH> [--config GD|GH|DD|DD+RO|DH] [--paper] [--interval N]\n                     \
         [--topn N] [--json] [--out FILE.csv|FILE.json|FILE.perfetto.json]\n                     \
         [--devices N] [--xlink-latency N]\n  \
         gpu-denovo flow <BENCH> [--config GD|GH|DD|DD+RO|DH] [--paper] [--interval N]\n                  \
         [--period N] [--topn N] [--json] [--out FILE.csv|FILE.json|FILE.perfetto.json]\n                  \
         [--devices N] [--xlink-latency N]\n  \
         gpu-denovo lens <BENCH> [--config GD|GH|DD|DD+RO|DH] [--paper] [--topk N]\n                  \
         [--topn N] [--json] [--out FILE.csv|FILE.json|FILE.perfetto.json]\n                  \
         [--devices N] [--xlink-latency N]\n  \
         gpu-denovo check [--bench <BENCH>] [--paper]\n  \
         gpu-denovo explore [--shape <NAME>] [--config GD|GH|DD|DD+RO|DH] [--budget N]\n                     \
         [--naive] [--json] [--replay <ID>]\n\n\
         <BENCH> is a Table 4 abbreviation (see `gpu-denovo list`).\n\
         `sweep` prints per-benchmark tables; `matrix` emits the full\n\
         benchmark x config grid as CSV (or JSON with --out FILE.json).\n\
         Both run cells on `--jobs` worker threads (0 or default = all\n\
         cores) and cache results in target/gsim-cache/; output is\n\
         byte-identical regardless of --jobs.\n\
         `--devices N` joins N device meshes into one fabric over a\n\
         slower inter-device link (`--xlink-latency`, default 40 cycles);\n\
         L2 homes stripe across all devices. The fabric group's XDEV_D /\n\
         XDEV_S / XPC microbenchmarks measure device- vs system-scope\n\
         synchronization on it (XPC needs --devices >= 2).\n\
         `trace` writes a Chrome/Perfetto trace (load it at ui.perfetto.dev\n\
         or chrome://tracing).\n\
         `profile` attributes every CU cycle to a stall bucket and tracks\n\
         contended lines. Without --config it compares the stall mix of all\n\
         five configurations; with --config it prints the per-CU matrix and\n\
         the hot-line table. --out exports the interval time-series (.csv:\n\
         delta CSV; .perfetto.json: counter tracks; .json: the full report).\n\
         `flow` attributes NoC traffic to directed mesh links per message\n\
         class and follows every --period'th memory request hop by hop.\n\
         Without --config it prints the cross-config traffic matrix (the\n\
         paper's writethrough-vs-registration story); with --config the\n\
         per-link table, L2 bank occupancy, and journey waterfall. --out\n\
         exports .csv (per-link table), .json (full report), or\n\
         .perfetto.json (occupancy counter tracks + journey flow spans).\n\
         `lens` follows every cache line's coherence lifecycle: what each\n\
         global acquire invalidated, how much of the drop was provably\n\
         wasted (re-fetched before overwrite), and how much reuse crossed\n\
         a synchronization boundary. Without --config it prints the\n\
         cross-config invalidation-waste table (the paper's reuse story:\n\
         GD drops and re-fetches what DD retains); with --config the\n\
         per-node ledger, the top --topn hot-line lifecycle table\n\
         (--topk bounds how many lines are tracked), and the cross-sync\n\
         reuse histograms. --out exports .csv (per-line table), .json\n\
         (full report), or .perfetto.json (acquire-drop counter tracks).\n\
         `check` runs the conformance battery (litmus shapes under\n\
         CheckLevel::Full on every config, racy negative flagged), plus\n\
         one benchmark under full checking with --bench.\n\
         `explore` enumerates every same-cycle event ordering of each\n\
         litmus shape (all shapes x all configs by default; narrow with\n\
         --shape/--config) and reports the exact reachable outcome set\n\
         with a replayable schedule id per outcome. --naive disables\n\
         DPOR pruning (ground truth); --budget caps schedules per cell\n\
         (default 4096); --replay ID re-runs one schedule (requires\n\
         --shape, and --config unless the default DD is meant).\n\
         Every command rejects a flag it does not accept."
    );
    ExitCode::FAILURE
}

/// The flags each subcommand accepts, space-separated. Any other
/// `--flag` is an error, so a typo never silently falls back to a
/// default.
const FLAGS: &[(&str, &str)] = &[
    ("list", ""),
    (
        "run",
        "--config --paper --detail --hist --devices --xlink-latency",
    ),
    ("compare", "--paper --devices --xlink-latency"),
    (
        "sweep",
        "--group --paper --jobs --devices --xlink-latency --out --no-cache",
    ),
    (
        "matrix",
        "--paper --jobs --out --devices --xlink-latency --no-cache",
    ),
    ("trace", "--config --paper --out --devices --xlink-latency"),
    (
        "profile",
        "--config --paper --interval --topn --json --out --devices --xlink-latency",
    ),
    (
        "flow",
        "--config --paper --interval --period --topn --json --out --devices --xlink-latency",
    ),
    (
        "lens",
        "--config --paper --topk --topn --json --out --devices --xlink-latency",
    ),
    ("check", "--bench --paper"),
    (
        "explore",
        "--shape --config --budget --naive --json --replay",
    ),
];

/// Rejects the first `--flag` that `cmd` does not accept, naming it and
/// the flags `cmd` does accept. Unknown commands pass (they print usage).
fn check_flags(cmd: &str, args: &[String]) -> Result<(), String> {
    let Some((_, accepted)) = FLAGS.iter().find(|(c, _)| *c == cmd) else {
        return Ok(());
    };
    let Some(flag) = args
        .iter()
        .find(|a| a.starts_with("--") && !accepted.split(' ').any(|f| f == a.as_str()))
    else {
        return Ok(());
    };
    if accepted.is_empty() {
        Err(format!(
            "unknown flag {flag} for `{cmd}`: it accepts no flags"
        ))
    } else {
        Err(format!(
            "unknown flag {flag} for `{cmd}`: accepted flags are {}",
            accepted.replace(' ', ", ")
        ))
    }
}

/// The value following `flag`, if the flag is present. `Err` means the
/// flag is there but its value is missing (absent or another flag).
fn flag_value<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    match args.get(i + 1) {
        Some(v) if !v.starts_with("--") => Ok(Some(v)),
        _ => Err(format!("missing value after {flag}")),
    }
}

fn parse_config(args: &[String]) -> Result<ProtocolConfig, String> {
    let Some(s) =
        flag_value(args, "--config").map_err(|e| format!("{e} (one of {CONFIG_NAMES})"))?
    else {
        return Ok(ProtocolConfig::Dd);
    };
    ProtocolConfig::ALL
        .into_iter()
        .find(|p| p.abbrev().eq_ignore_ascii_case(s) || p.paper_name().eq_ignore_ascii_case(s))
        .ok_or_else(|| format!("unknown config {s:?}: valid configs are {CONFIG_NAMES}"))
}

fn parse_group(args: &[String]) -> Result<Option<registry::Group>, String> {
    let Some(s) = flag_value(args, "--group").map_err(|e| format!("{e} (one of {GROUP_NAMES})"))?
    else {
        return Ok(None);
    };
    match s {
        "nosync" => Ok(Some(registry::Group::NoSync)),
        "global" => Ok(Some(registry::Group::GlobalSync)),
        "local" => Ok(Some(registry::Group::LocalSync)),
        "extension" => Ok(Some(registry::Group::Extension)),
        "fabric" => Ok(Some(registry::Group::Fabric)),
        _ => Err(format!(
            "unknown group {s:?}: valid groups are {GROUP_NAMES}"
        )),
    }
}

/// `--devices N` and `--xlink-latency N`: run on a multi-device fabric
/// (the default is the paper's single-device system, where
/// `--xlink-latency` is ignored).
fn parse_fabric(args: &[String]) -> Result<FabricSpec, String> {
    let mut fabric = FabricSpec::default();
    if let Some(v) = flag_value(args, "--devices").map_err(|e| format!("{e} (a device count)"))? {
        let max = SystemConfig::max_devices();
        fabric.devices = match v.parse::<u8>() {
            Ok(n) if (1..=max).contains(&n) => n,
            _ => {
                return Err(format!(
                    "invalid --devices value {v:?}: expected a device count from 1 to {max} \
                     (one L2 bank per node, at most {} banks)",
                    SystemConfig::MAX_L2_BANKS
                ))
            }
        };
    }
    if let Some(v) =
        flag_value(args, "--xlink-latency").map_err(|e| format!("{e} (a cycle count)"))?
    {
        fabric.xlink_latency = match v.parse() {
            Ok(n) => n,
            Err(_) => {
                return Err(format!(
                    "invalid --xlink-latency value {v:?}: expected a cycle count"
                ))
            }
        };
    }
    Ok(fabric)
}

/// `--jobs N`; absent or 0 means auto (all cores).
fn parse_jobs(args: &[String]) -> Result<usize, String> {
    let Some(s) = flag_value(args, "--jobs").map_err(|e| format!("{e} (a worker count)"))? else {
        return Ok(0);
    };
    s.parse::<usize>()
        .map_err(|_| format!("invalid --jobs value {s:?}: expected a non-negative integer"))
}

enum OutFormat {
    Csv,
    Json,
}

/// `--out FILE.csv|FILE.json`; the extension selects the format.
fn parse_out(args: &[String]) -> Result<Option<(String, OutFormat)>, String> {
    let Some(path) = flag_value(args, "--out").map_err(|e| format!("{e} (an output file)"))? else {
        return Ok(None);
    };
    let format = if path.ends_with(".csv") {
        OutFormat::Csv
    } else if path.ends_with(".json") {
        OutFormat::Json
    } else {
        return Err(format!(
            "unsupported --out file {path:?}: expected a .csv or .json extension"
        ));
    };
    Ok(Some((path.to_string(), format)))
}

fn scale(args: &[String]) -> Scale {
    if args.iter().any(|a| a == "--paper") {
        Scale::Paper
    } else {
        Scale::Tiny
    }
}

fn lookup_bench(name: &str) -> Result<registry::Benchmark, String> {
    registry::by_name(name).ok_or_else(|| {
        format!("unknown benchmark {name:?}: run `gpu-denovo list` for the Table 4 names")
    })
}

fn run_one(
    name: &str,
    p: ProtocolConfig,
    s: Scale,
    fabric: FabricSpec,
) -> Result<SimStats, String> {
    let b = lookup_bench(name)?;
    Simulator::new(fabric.system(p))
        .run(&(b.build)(s))
        .map_err(|e| format!("{name} under {p}: {e}"))
}

/// Ring capacity for `gpu-denovo trace`: enough for any Tiny-scale run
/// and the tail of a Paper-scale one (the drop count is reported).
const TRACE_CAPACITY: usize = 1 << 20;

fn trace_one(
    name: &str,
    p: ProtocolConfig,
    s: Scale,
    fabric: FabricSpec,
) -> Result<(SimStats, TraceHandle), String> {
    let b = lookup_bench(name)?;
    let handle = TraceHandle::new(RingRecorder::new(TRACE_CAPACITY));
    let stats = Simulator::new(fabric.system(p))
        .run_traced(&(b.build)(s), handle.clone())
        .map_err(|e| format!("{name} under {p}: {e}"))?;
    Ok((stats, handle))
}

/// One observed run: build, run with the observers `observe` switches
/// on, annotate every report that names lines with the benchmark's
/// regions, and reconcile each report against the run's stats.
fn observe_one(
    b: &registry::Benchmark,
    p: ProtocolConfig,
    s: Scale,
    fabric: FabricSpec,
    observe: &ObserveSpec,
) -> Result<(SimStats, Reports), String> {
    let (stats, mut reports) = Simulator::new(fabric.system(p))
        .run_observed(&(b.build)(s), observe)
        .map_err(|e| format!("{} under {p}: {e}", b.name))?;
    let regions = b.regions.map(|r| r(s));
    let drift =
        |view: &str, e: String| format!("{} under {p}: {view} does not reconcile: {e}", b.name);
    if let Some(r) = &mut reports.profile {
        if let Some(m) = &regions {
            r.annotate(m);
        }
        r.reconcile(stats.cycles, &stats.counts)
            .map_err(|e| drift("profile", e))?;
    }
    if let Some(r) = &reports.flow {
        r.reconcile(&stats.traffic).map_err(|e| drift("flow", e))?;
    }
    if let Some(r) = &mut reports.lens {
        if let Some(m) = &regions {
            r.annotate(m);
        }
        r.reconcile(&stats.counts).map_err(|e| drift("lens", e))?;
    }
    Ok((stats, reports))
}

/// One observed view of a run: `profile`, `flow` or `lens`. The driver
/// [`drive_view`] owns what the views share (the bench, scale and
/// fabric, `--config` and `--topn`, the runs, `--json`, `--out`
/// dispatch and both layouts); an impl holds only what differs.
trait View: Sized {
    /// The subcommand, also the report's key in the `--json` array.
    const NAME: &'static str;
    /// What `--topn` counts (its missing-value message names it).
    const TOPN_OF: &'static str;
    /// The note under the cross-config table.
    const LEGEND: &'static str;
    /// Switches the view on in `observe`, applying its own flags.
    fn parse(args: &[String], observe: &mut ObserveSpec) -> Result<(), String>;
    /// The view's report among one run's reports.
    fn take(reports: Reports) -> Self;
    /// The run parameters the banner names.
    fn params(observe: &ObserveSpec) -> String;
    /// The report's JSON tree (`--json`, `--out FILE.json`).
    fn json(&self) -> JsonValue;
    /// The `--out FILE.csv` payload.
    fn csv(&self) -> String;
    /// The Perfetto counter tracks of `--out FILE.perfetto.json`.
    fn counters(&self) -> Vec<(String, Vec<(Cycle, f64)>)>;
    /// The Perfetto journey spans of `--out FILE.perfetto.json`.
    fn spans(&self) -> Vec<JourneySpan> {
        Vec::new()
    }
    /// What a written `--out` file holds.
    fn wrote(&self) -> String;
    /// The single-run tables, printed a blank line apart.
    fn sections(&self, topn: usize) -> [String; 3];
    /// The line(s) under the single-run tables.
    fn footer(&self) -> String;
    /// The cross-config table's columns after `config`.
    fn compare_header() -> String;
    /// This run's cells in those columns.
    fn compare_row(&self, stats: &SimStats) -> String;
}

/// A flag that must be a positive integer, if present: `what` names the
/// unit in both error messages.
fn positive_flag(args: &[String], flag: &str, what: &str) -> Result<Option<u64>, String> {
    let Some(v) = flag_value(args, flag).map_err(|e| format!("{e} (a {what})"))? else {
        return Ok(None);
    };
    match v.parse::<u64>() {
        Ok(n) if n > 0 => Ok(Some(n)),
        _ => Err(format!(
            "invalid {flag} value {v:?}: expected a positive {what}"
        )),
    }
}

/// `--interval N`: the sampling period of the profile and flow time
/// series.
fn parse_interval(args: &[String], observe: &mut ObserveSpec) -> Result<(), String> {
    if let Some(n) = positive_flag(args, "--interval", "cycle count")? {
        observe.interval = n;
    }
    Ok(())
}

/// A `profile`, `flow` or `lens` subcommand.
fn observe_view<V: View>(args: &[String]) -> ExitCode {
    let Some(name) = args.get(1).filter(|a| !a.starts_with("--")) else {
        return usage();
    };
    match drive_view::<V>(name, args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(e),
    }
}

/// Runs `name` under one config (`--config`) or all five with view `V`
/// on, then prints the `--json` array, or writes `--out` (single run
/// only) and prints the single-run tables or the cross-config table.
fn drive_view<V: View>(name: &str, args: &[String]) -> Result<(), String> {
    let b = lookup_bench(name)?;
    let s = scale(args);
    let mut observe = ObserveSpec::default();
    V::parse(args, &mut observe)?;
    let topn = match flag_value(args, "--topn").map_err(|e| format!("{e} ({})", V::TOPN_OF))? {
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| format!("invalid --topn value {v:?}: expected an integer"))?,
        None => 10,
    };
    let single = args.iter().any(|a| a == "--config");
    let configs = if single {
        vec![parse_config(args)?]
    } else {
        ProtocolConfig::ALL.to_vec()
    };
    let fabric = parse_fabric(args)?;
    let mut rows = Vec::new();
    for p in configs {
        let (stats, reports) = observe_one(&b, p, s, fabric, &observe)?;
        rows.push((p, stats, V::take(reports)));
    }
    if args.iter().any(|a| a == "--json") {
        let doc = JsonValue::Arr(
            rows.iter()
                .map(|(p, _, r)| {
                    JsonValue::Obj(vec![
                        ("config".into(), JsonValue::Str(p.abbrev().into())),
                        (V::NAME.into(), r.json()),
                    ])
                })
                .collect(),
        );
        println!("{doc}");
        return Ok(());
    }
    if let Some(path) = flag_value(args, "--out").map_err(|e| format!("{e} (an output file)"))? {
        let [(_, _, r)] = rows.as_slice() else {
            return Err(format!(
                "{} --out needs a single run: add --config",
                V::NAME
            ));
        };
        let text = if path.ends_with(".perfetto.json") {
            let tracks: Vec<CounterTrack> = (r.counters().into_iter())
                .map(|(name, points)| CounterTrack { name, points })
                .collect();
            chrome_json_full(&[], 0, &tracks, &r.spans())
        } else if path.ends_with(".json") {
            r.json().to_string()
        } else if path.ends_with(".csv") {
            r.csv()
        } else {
            return Err(format!(
                "unsupported --out file {path:?}: expected .csv, .json, or .perfetto.json"
            ));
        };
        std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path} ({})", r.wrote());
    }
    println!(
        "{} of {name} at {s:?} scale ({})\n",
        V::NAME,
        V::params(&observe)
    );
    if single {
        let (p, stats, r) = &rows[0];
        println!("== {p} ({} cycles) ==", stats.cycles);
        print!("{}", r.sections(topn).join("\n"));
        println!("\n{}", r.footer());
    } else {
        println!("{:<8} {}", "config", V::compare_header());
        for (p, stats, r) in &rows {
            println!("{:<8} {}", p.to_string(), r.compare_row(stats));
        }
        println!("\n{}", V::LEGEND);
    }
    Ok(())
}

/// Where CU cycles go: the cross-config table puts the acquire-spin
/// buckets front and center (the paper's §5 story).
impl View for ProfileReport {
    const NAME: &'static str = "profile";
    const TOPN_OF: &'static str = "a line count";
    const LEGEND: &'static str =
        "(g-spin/l-spin: cycles CUs spent retrying global/local acquires,\n\
         summed over CUs; every CU cycle lands in exactly one bucket.)";

    fn parse(args: &[String], observe: &mut ObserveSpec) -> Result<(), String> {
        parse_interval(args, observe)?;
        observe.prof = true;
        Ok(())
    }
    fn take(reports: Reports) -> Self {
        reports.profile.expect("profiling on")
    }
    fn params(observe: &ObserveSpec) -> String {
        format!(
            "interval {} cycles, sketch {} lines",
            observe.interval,
            gpu_denovo::prof::SKETCH_LINES
        )
    }
    fn json(&self) -> JsonValue {
        self.to_json_value()
    }
    fn csv(&self) -> String {
        self.intervals_csv()
    }
    fn counters(&self) -> Vec<(String, Vec<(Cycle, f64)>)> {
        self.counter_series()
    }
    fn wrote(&self) -> String {
        format!("{} interval samples", self.samples.len())
    }
    fn sections(&self, topn: usize) -> [String; 3] {
        [
            self.render_stalls(),
            self.render_cus(),
            self.render_hot_lines(topn),
        ]
    }
    fn footer(&self) -> String {
        format!(
            "{} interval samples ({} dropped); export with --out FILE.csv",
            self.samples.len(),
            self.dropped_samples
        )
    }
    fn compare_header() -> String {
        format!(
            "{:>12} {:>7} {:>12} {:>7} {:>12} {:>7} {:>7} {:>7}",
            "cycles", "issue%", "g-spin", "g-spin%", "l-spin", "l-spin%", "barr%", "idle%"
        )
    }
    fn compare_row(&self, stats: &SimStats) -> String {
        let grand: u64 = self.bucket_totals().iter().sum();
        let pct = |k: StallKind| {
            if grand > 0 {
                100.0 * self.bucket(k) as f64 / grand as f64
            } else {
                0.0
            }
        };
        format!(
            "{:>12} {:>6.1}% {:>12} {:>6.1}% {:>12} {:>6.1}% {:>6.1}% {:>6.1}%",
            stats.cycles,
            pct(StallKind::Issue),
            self.bucket(StallKind::GlobalSpin),
            pct(StallKind::GlobalSpin),
            self.bucket(StallKind::LocalSpin),
            pct(StallKind::LocalSpin),
            pct(StallKind::Barrier),
            pct(StallKind::Idle),
        )
    }
}

/// Where NoC traffic goes: the cross-config matrix shows per-class flit
/// totals (the paper's §5.2 story: DeNovo trades the GPU protocols'
/// writethrough traffic for registration traffic), the share of link
/// time spent queueing, and the journey sample count.
impl View for FlowReport {
    const NAME: &'static str = "flow";
    const TOPN_OF: &'static str = "a link count";
    const LEGEND: &'static str =
        "(per-link flit sums reconcile with the aggregate traffic breakdown\n\
         class-for-class; queue%: share of link time spent waiting for a\n\
         busy link rather than traversing it.)";

    fn parse(args: &[String], observe: &mut ObserveSpec) -> Result<(), String> {
        parse_interval(args, observe)?;
        let mut spec = FlowSpec::default();
        if let Some(n) = positive_flag(args, "--period", "request count")? {
            spec.journey_period = n;
        }
        observe.flow = Some(spec);
        Ok(())
    }
    fn take(reports: Reports) -> Self {
        reports.flow.expect("flow on")
    }
    fn params(observe: &ObserveSpec) -> String {
        let period = observe.flow.map_or(0, |f| f.journey_period);
        format!(
            "interval {} cycles, journey period {period}",
            observe.interval
        )
    }
    fn json(&self) -> JsonValue {
        self.to_json_value()
    }
    fn csv(&self) -> String {
        self.links_csv()
    }
    fn counters(&self) -> Vec<(String, Vec<(Cycle, f64)>)> {
        self.counter_series()
    }
    fn spans(&self) -> Vec<JourneySpan> {
        self.journey_spans()
    }
    fn wrote(&self) -> String {
        format!(
            "{} links, {} journeys, {} interval samples",
            self.links.len(),
            self.journeys.len(),
            self.samples.len()
        )
    }
    fn sections(&self, topn: usize) -> [String; 3] {
        [
            self.render_links(topn),
            self.render_banks(),
            self.render_waterfall(),
        ]
    }
    fn footer(&self) -> String {
        format!(
            "{} journeys sampled ({} dropped); {} interval samples ({} dropped);\n\
             export with --out FILE.csv|FILE.json|FILE.perfetto.json",
            self.journeys.len(),
            self.dropped_journeys,
            self.samples.len(),
            self.dropped_samples
        )
    }
    fn compare_header() -> String {
        format!(
            "{:>12} {:>10} {:>10} {:>10} {:>10} {:>8} {:>9}",
            "flits", "read", "regist.", "wb/wt", "atomics", "queue%", "journeys"
        )
    }
    fn compare_row(&self, stats: &SimStats) -> String {
        let (mut queue, mut transit) = (0u64, 0u64);
        for l in &self.links {
            queue += l.queue_cycles;
            transit += l.transit_cycles;
        }
        let queue_pct = if queue + transit > 0 {
            100.0 * queue as f64 / (queue + transit) as f64
        } else {
            0.0
        };
        format!(
            "{:>12} {:>10} {:>10} {:>10} {:>10} {:>7.1}% {:>9}",
            stats.traffic.total(),
            stats.traffic.class(MsgClass::Read),
            stats.traffic.class(MsgClass::Registration),
            stats.traffic.class(MsgClass::WbWt),
            stats.traffic.class(MsgClass::Atomic),
            queue_pct,
            self.journeys.len(),
        )
    }
}

/// What acquires cost in reuse: the cross-config table shows how many
/// still-valid words each configuration's acquires dropped and how many
/// it provably re-fetched before overwriting (pure waste, priced in
/// flits and load-use stall cycles). Expect GD ≫ DD on reuse-heavy
/// benchmarks.
impl View for LensReport {
    const NAME: &'static str = "lens";
    const TOPN_OF: &'static str = "a line count";
    const LEGEND: &'static str = "(dropped: still-valid words the acquire sweeps invalidated;\n\
         refetched: the share provably re-fetched from L2 before any\n\
         overwrite — pure waste the protocol's invalidation caused;\n\
         x-sync-hit: L1 load hits that crossed an acquire boundary,\n\
         i.e. reuse the protocol retained through synchronization.)";

    fn parse(args: &[String], observe: &mut ObserveSpec) -> Result<(), String> {
        let mut spec = LensSpec::default();
        if let Some(n) = positive_flag(args, "--topk", "line count")? {
            spec.topk = n as usize;
        }
        observe.lens = Some(spec);
        Ok(())
    }
    fn take(reports: Reports) -> Self {
        reports.lens.expect("lens on")
    }
    fn params(observe: &ObserveSpec) -> String {
        let topk = observe.lens.map_or(0, |l| l.topk);
        format!("tracking the {topk} hottest lines")
    }
    fn json(&self) -> JsonValue {
        self.to_json_value()
    }
    fn csv(&self) -> String {
        self.lines_csv()
    }
    fn counters(&self) -> Vec<(String, Vec<(Cycle, f64)>)> {
        self.counter_series()
    }
    fn wrote(&self) -> String {
        format!(
            "{} lines kept, {} acquire events",
            self.lines.len(),
            self.events.len()
        )
    }
    fn sections(&self, topn: usize) -> [String; 3] {
        [
            self.render_ledger(),
            self.render_lines(topn),
            self.render_reuse(),
        ]
    }
    fn footer(&self) -> String {
        format!(
            "{} acquire events recorded ({} dropped);\n\
             export with --out FILE.csv|FILE.json|FILE.perfetto.json",
            self.events.len(),
            self.dropped_events
        )
    }
    fn compare_header() -> String {
        format!(
            "{:>12} {:>9} {:>10} {:>10} {:>7} {:>10} {:>11} {:>10}",
            "cycles",
            "acquires",
            "dropped",
            "refetched",
            "waste%",
            "re-flits",
            "stall-cyc",
            "x-sync-hit"
        )
    }
    fn compare_row(&self, stats: &SimStats) -> String {
        format!(
            "{:>12} {:>9} {:>10} {:>10} {:>6.1}% {:>10} {:>11} {:>10}",
            stats.cycles,
            self.acquires(),
            self.words_dropped(),
            self.words_refetched(),
            self.waste_pct(),
            self.refetch_flits(),
            self.stall_cycles(),
            self.cross_sync_hits(),
        )
    }
}

fn print_row(p: ProtocolConfig, stats: &SimStats) {
    println!(
        "{:<8} {:>12} {:>14.1} {:>16} {:>10}",
        p.to_string(),
        stats.cycles,
        stats.energy.total_pj() / 1e3,
        stats.traffic.total(),
        stats
            .counts
            .l1_load_hit_rate()
            .map(|r| format!("{:.1}", r * 100.0))
            .unwrap_or_else(|| "-".into()),
    );
}

fn print_detail(stats: &SimStats) {
    let c = &stats.counts;
    println!("\n-- counters --");
    println!("instructions            {:>14}", c.instructions);
    println!("CU active cycles        {:>14}", c.cu_active_cycles);
    println!("L1 accesses             {:>14}", c.l1_accesses);
    println!(
        "L1 load hits/misses     {:>14} / {}",
        c.l1_load_hits, c.l1_load_misses
    );
    println!("L1 store hits (owned)   {:>14}", c.l1_store_hits);
    println!(
        "L1 atomics (hits)       {:>14} ({})",
        c.l1_atomics, c.l1_atomic_hits
    );
    println!(
        "L2 accesses (atomics)   {:>14} ({})",
        c.l2_accesses, c.l2_atomics
    );
    println!("scratch accesses        {:>14}", c.scratch_accesses);
    println!(
        "DRAM reads/writes       {:>14} / {}",
        c.dram_reads, c.dram_writes
    );
    println!("flash invalidations     {:>14}", c.flash_invalidations);
    println!("words invalidated       {:>14}", c.words_invalidated);
    println!(
        "SB flushes (ovf/rel)    {:>14} / {}",
        c.sb_overflow_flushes, c.sb_release_flushes
    );
    println!("registrations           {:>14}", c.registrations);
    println!(
        "reg forwards (queued)   {:>14} ({})",
        c.reg_forwards, c.reg_queued
    );
    println!("ownership writebacks    {:>14}", c.ownership_writebacks);
    println!("registry spills         {:>14}", c.registry_overflow_words);
    println!("messages sent           {:>14}", c.messages_sent);
    println!("\n-- traffic (flit crossings) --");
    for class in MsgClass::ALL {
        println!(
            "{:<8}               {:>14}",
            class.label(),
            stats.traffic.class(class)
        );
    }
    println!("\n-- energy (nJ) --");
    let e = &stats.energy;
    for (label, pj) in [
        ("GPU core+", e.core_pj),
        ("scratch", e.scratch_pj),
        ("L1 D$", e.l1_pj),
        ("L2 $", e.l2_pj),
        ("network", e.noc_pj),
    ] {
        println!("{label:<10}             {:>14.1}", pj / 1e3);
    }
}

fn header() {
    println!(
        "{:<8} {:>12} {:>14} {:>16} {:>10}",
        "config", "cycles", "energy (nJ)", "traffic (flits)", "L1 hit %"
    );
}

/// Shared tail of `sweep` and `matrix`: run the cells through the
/// harness, write `--out` for the cells that ran if asked, report cache
/// accounting. Returns the cells that ran, in cell order, for
/// command-specific presentation, and the errors of those that failed
/// (for [`matrix_exit`]).
fn run_matrix(cells: &[Cell], args: &[String]) -> Result<(Vec<CellResult>, Vec<String>), String> {
    let jobs = parse_jobs(args)?;
    let fabric = parse_fabric(args)?;
    let cells: Vec<Cell> = cells.iter().map(|c| c.clone().on_fabric(fabric)).collect();
    let cells = cells.as_slice();
    let out = parse_out(args)?;
    let cache = if args.iter().any(|a| a == "--no-cache") {
        None
    } else {
        Some(
            ResultCache::open_default()
                .map_err(|e| format!("opening cache {:?}: {e}", ResultCache::default_dir()))?,
        )
    };
    let mut results = Vec::with_capacity(cells.len());
    let mut failures = Vec::new();
    for outcome in harness::run_each_cell(cells, jobs, cache.as_ref()) {
        match outcome {
            Ok(r) => results.push(r),
            Err(e) => failures.push(e),
        }
    }

    if let Some((path, format)) = out {
        let text = match format {
            OutFormat::Csv => harness::to_csv(&results),
            OutFormat::Json => harness::to_json(&results),
        };
        std::fs::write(&path, text).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {} rows to {path}", results.len());
    }
    match &cache {
        Some(c) => {
            let served = results.iter().filter(|r| r.from_cache).count();
            eprintln!(
                "cache: {served}/{} cells served from {} ({} stored this run)",
                cells.len(),
                c.dir().display(),
                c.stores(),
            );
        }
        None => eprintln!("cache: disabled (--no-cache)"),
    }
    Ok((results, failures))
}

/// How `sweep` and `matrix` end once the cells that ran are printed:
/// success, or each failed cell's error on stderr and exit 1.
fn matrix_exit(failures: &[String], cells: usize) -> ExitCode {
    if failures.is_empty() {
        return ExitCode::SUCCESS;
    }
    eprintln!("{} of {cells} cells failed:", failures.len());
    for e in failures {
        eprintln!("  {e}");
    }
    ExitCode::FAILURE
}

fn fail(e: String) -> ExitCode {
    eprintln!("{e}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    if let Err(e) = check_flags(cmd, &args) {
        return fail(e);
    }
    match cmd.as_str() {
        "list" => {
            println!("{:<10} {:<12} Table 4 input", "name", "group");
            for b in registry::all()
                .into_iter()
                .chain(registry::extensions())
                .chain(registry::fabric())
            {
                println!(
                    "{:<10} {:<12} {}",
                    b.name,
                    format!("{:?}", b.group),
                    b.table4_input
                );
            }
            ExitCode::SUCCESS
        }
        "run" => {
            let Some(name) = args.get(1).filter(|a| !a.starts_with("--")) else {
                return usage();
            };
            let config = match parse_config(&args) {
                Ok(c) => c,
                Err(e) => return fail(e),
            };
            let fabric = match parse_fabric(&args) {
                Ok(f) => f,
                Err(e) => return fail(e),
            };
            match run_one(name, config, scale(&args), fabric) {
                Ok(stats) => {
                    header();
                    print_row(config, &stats);
                    if args.iter().any(|a| a == "--detail") {
                        print_detail(&stats);
                    }
                    if args.iter().any(|a| a == "--hist") {
                        println!("\n-- latency percentiles (cycles) --");
                        print!("{}", stats.latency);
                    }
                    println!("\nrun verified functionally.");
                    ExitCode::SUCCESS
                }
                Err(e) => fail(e),
            }
        }
        "trace" => {
            let Some(name) = args.get(1).filter(|a| !a.starts_with("--")) else {
                return usage();
            };
            let config = match parse_config(&args) {
                Ok(c) => c,
                Err(e) => return fail(e),
            };
            let out = match flag_value(&args, "--out") {
                Ok(Some(path)) => path.to_string(),
                Ok(None) => return fail("trace requires --out <FILE>".into()),
                Err(e) => return fail(format!("{e} (an output file)")),
            };
            let fabric = match parse_fabric(&args) {
                Ok(f) => f,
                Err(e) => return fail(e),
            };
            match trace_one(name, config, scale(&args), fabric) {
                Ok((stats, handle)) => {
                    let rec = handle.recorder().expect("ring-backed handle").borrow();
                    let json = to_chrome_json(&rec);
                    if let Err(e) = std::fs::write(&out, &json) {
                        return fail(format!("writing {out}: {e}"));
                    }
                    let mut cats: Vec<&str> =
                        rec.events().map(|(_, ev)| ev.category().label()).collect();
                    cats.sort_unstable();
                    cats.dedup();
                    println!(
                        "wrote {out}: {} events ({} dropped), {} cycles simulated",
                        rec.len(),
                        rec.dropped(),
                        stats.cycles
                    );
                    println!("categories: {}", cats.join(", "));
                    println!("open at ui.perfetto.dev or chrome://tracing.");
                    ExitCode::SUCCESS
                }
                Err(e) => fail(e),
            }
        }
        "profile" => observe_view::<ProfileReport>(&args),
        "flow" => observe_view::<FlowReport>(&args),
        "lens" => observe_view::<LensReport>(&args),
        "compare" => {
            let Some(name) = args.get(1).filter(|a| !a.starts_with("--")) else {
                return usage();
            };
            if let Err(e) = lookup_bench(name) {
                return fail(e);
            }
            let fabric = match parse_fabric(&args) {
                Ok(f) => f,
                Err(e) => return fail(e),
            };
            header();
            for p in ProtocolConfig::ALL {
                match run_one(name, p, scale(&args), fabric) {
                    Ok(stats) => print_row(p, &stats),
                    Err(e) => return fail(e),
                }
            }
            ExitCode::SUCCESS
        }
        "sweep" => {
            let group = match parse_group(&args) {
                Ok(g) => g,
                Err(e) => return fail(e),
            };
            let cells = harness::group_matrix(group, scale(&args));
            let (results, failures) = match run_matrix(&cells, &args) {
                Ok(r) => r,
                Err(e) => return fail(e),
            };
            for chunk in results.chunk_by(|a, b| a.cell.bench == b.cell.bench) {
                println!("\n== {} ==", chunk[0].cell.bench);
                header();
                for r in chunk {
                    print_row(r.cell.config, &r.stats);
                }
            }
            matrix_exit(&failures, cells.len())
        }
        "check" => {
            let mut failures: Vec<String> = Vec::new();
            let full = |p: ProtocolConfig| {
                let mut cfg = SystemConfig::micro15(p);
                cfg.check = CheckLevel::Full;
                cfg
            };
            println!(
                "conformance battery: {} litmus shapes x {} configs under CheckLevel::Full",
                litmus::battery().len(),
                ProtocolConfig::ALL.len()
            );
            for shape in litmus::battery() {
                let mut bad = 0;
                for p in ProtocolConfig::ALL {
                    if let Err(e) = Simulator::new(full(p)).run(&(shape.build)()) {
                        bad += 1;
                        failures.push(format!("{} under {p}: {e}", shape.name));
                    }
                }
                match bad {
                    0 => println!("  {:<16} clean under every config", shape.name),
                    n => println!("  {:<16} FAILED under {n} config(s)", shape.name),
                }
            }
            // The negative control: the detector must flag the race.
            let mut bad = 0;
            for p in ProtocolConfig::ALL {
                match Simulator::new(full(p)).run(&litmus::racy_negative()) {
                    Err(SimError::Check { .. }) => {}
                    Ok(_) => {
                        bad += 1;
                        failures.push(format!("racy-negative under {p}: race not detected"));
                    }
                    Err(e) => {
                        bad += 1;
                        failures.push(format!("racy-negative under {p}: wrong failure: {e}"));
                    }
                }
            }
            match bad {
                0 => println!(
                    "  {:<16} flagged as racy under every config",
                    "racy-negative"
                ),
                n => println!("  {:<16} MISSED under {n} config(s)", "racy-negative"),
            }
            // Optionally a Table 4 benchmark under the same microscope.
            if let Some(name) = match flag_value(&args, "--bench") {
                Ok(v) => v.map(str::to_string),
                Err(e) => return fail(format!("{e} (a Table 4 name)")),
            } {
                let b = match lookup_bench(&name) {
                    Ok(b) => b,
                    Err(e) => return fail(e),
                };
                let s = scale(&args);
                println!("benchmark {name} at {s:?} scale under CheckLevel::Full:");
                for p in ProtocolConfig::ALL {
                    match Simulator::new(full(p)).run(&(b.build)(s)) {
                        Ok(stats) => {
                            println!("  {:<8} clean ({} cycles)", p.to_string(), stats.cycles)
                        }
                        Err(e) => failures.push(format!("{name} under {p}: {e}")),
                    }
                }
            }
            if failures.is_empty() {
                println!("conformance check passed.");
                ExitCode::SUCCESS
            } else {
                for f in &failures {
                    eprintln!("FAIL {f}");
                }
                fail(format!("{} conformance failure(s)", failures.len()))
            }
        }
        "explore" => {
            // All battery shapes plus the exploration racy negative;
            // --shape narrows to one.
            let shapes: Vec<litmus::Litmus> = {
                let mut v: Vec<litmus::Litmus> = litmus::battery().to_vec();
                v.push(litmus::racy_explore());
                v
            };
            let shapes: Vec<litmus::Litmus> = match flag_value(&args, "--shape") {
                Ok(Some(name)) => match shapes.iter().find(|l| l.name == name) {
                    Some(l) => vec![*l],
                    None => {
                        let names: Vec<&str> = shapes.iter().map(|l| l.name).collect();
                        return fail(format!(
                            "unknown shape {name:?}: valid shapes are {}",
                            names.join(", ")
                        ));
                    }
                },
                Ok(None) => shapes,
                Err(e) => return fail(format!("{e} (a litmus shape name)")),
            };
            let configs: Vec<ProtocolConfig> = if args.iter().any(|a| a == "--config") {
                match parse_config(&args) {
                    Ok(c) => vec![c],
                    Err(e) => return fail(e),
                }
            } else {
                ProtocolConfig::ALL.to_vec()
            };
            // --replay short-circuits: one schedule, one shape, one config.
            match flag_value(&args, "--replay") {
                Ok(Some(id)) => {
                    let id = match ScheduleId::parse(id) {
                        Ok(id) => id,
                        Err(e) => return fail(format!("bad --replay id: {e}")),
                    };
                    if shapes.len() != 1 || configs.len() != 1 {
                        return fail("explore --replay needs --shape and --config".into());
                    }
                    let (shape, p) = (&shapes[0], configs[0]);
                    return match explore::replay(shape, p, &id) {
                        Ok(run) => {
                            let tuple: Vec<u32> = run.observed.clone();
                            if args.iter().any(|a| a == "--json") {
                                println!(
                                    "{{\"shape\":\"{}\",\"config\":\"{p}\",\"schedule\":\"{id}\",\
                                     \"outcome\":{:?},\"decisions\":{},\"stats\":{}}}",
                                    shape.name,
                                    tuple,
                                    run.decisions.len(),
                                    run.stats.to_json()
                                );
                            } else {
                                println!(
                                    "{} under {p}, schedule {id}: outcome {} after {} decisions, {} cycles",
                                    shape.name,
                                    litmus::OutcomeSpec::fmt_tuple(&tuple),
                                    run.decisions.len(),
                                    run.stats.cycles
                                );
                            }
                            ExitCode::SUCCESS
                        }
                        Err(e) => fail(format!("{} under {p}, schedule {id}: {e}", shape.name)),
                    };
                }
                Ok(None) => {}
                Err(e) => return fail(format!("{e} (a schedule id)")),
            }
            let budget = match positive_flag(&args, "--budget", "schedule count") {
                Ok(n) => n.map_or_else(Budget::default, Budget::schedules),
                Err(e) => return fail(e),
            };
            let mode = if args.iter().any(|a| a == "--naive") {
                ExploreMode::Naive
            } else {
                ExploreMode::Dpor
            };
            let json = args.iter().any(|a| a == "--json");
            if !json {
                println!(
                    "schedule exploration ({mode} mode, budget {} schedules per cell)\n",
                    budget.max_schedules
                );
                println!(
                    "{:<14} {:<8} {:>9} {:>9} {:>5} {:<6} outcomes (schedules each; ! = forbidden, ? = undeclared)",
                    "shape", "config", "explored", "pruned", "dec", "set"
                );
            }
            let mut docs: Vec<String> = Vec::new();
            let mut bad = 0u32;
            for shape in &shapes {
                for &p in &configs {
                    let r = explore::explore(shape, p, mode, budget);
                    if json {
                        docs.push(r.to_json());
                        continue;
                    }
                    let set = if r.conforms(&shape.spec) {
                        "exact"
                    } else {
                        bad += 1;
                        "DIFFS"
                    };
                    let trunc = if r.truncated {
                        format!(" (truncated, {} schedules left)", r.frontier_left)
                    } else {
                        String::new()
                    };
                    println!(
                        "{:<14} {:<8} {:>9} {:>9} {:>5} {:<6} {}{}",
                        shape.name,
                        p.to_string(),
                        r.explored,
                        r.pruned(),
                        r.max_decisions,
                        set,
                        r.outcome_cell(),
                        trunc
                    );
                    for v in &r.violations {
                        println!("    schedule {}: {}", v.id, v.error);
                    }
                }
            }
            if json {
                println!("[{}]", docs.join(","));
                return ExitCode::SUCCESS;
            }
            println!(
                "\n(set column: `exact` = observed outcome set matches the shape's declared\n\
                 allowed set for that config; replay any witness with\n\
                 `gpu-denovo explore --shape S --config C --replay ID`.)"
            );
            if bad > 0 {
                return fail(format!(
                    "{bad} shape/config cell(s) diverge from their declared outcome sets"
                ));
            }
            ExitCode::SUCCESS
        }
        "matrix" => {
            let cells = harness::full_matrix(scale(&args));
            match run_matrix(&cells, &args) {
                Ok((results, failures)) => {
                    // Without --out, the grid itself goes to stdout.
                    if parse_out(&args).ok().flatten().is_none() {
                        print!("{}", harness::to_csv(&results));
                    }
                    matrix_exit(&failures, cells.len())
                }
                Err(e) => fail(e),
            }
        }
        _ => usage(),
    }
}
