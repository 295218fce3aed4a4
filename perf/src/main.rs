//! Command line of the host-time benchmark.
//!
//! ```text
//! gsim-perf run [--workload NAME|all] [--seed N] [--passes N | --seconds S]
//!               [--trace 0|1] [--out FILE.json]
//! gsim-perf compare A.json B.json
//! gsim-perf bless [--workload NAME|all]
//! ```

use gsim_core::Simulator;
use gsim_perf::bench::{out_dir, run_workload, Options, Passes, WorkloadReport};
use gsim_perf::cells::{golden_csv, parse_golden, permute, PerfCell, WorkloadKind};
use gsim_perf::report::{compare, result_line, run_json, table};
use gsim_perf::spans::Spans;
use gsim_types::{JsonValue, Rng64};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  gsim-perf run [--workload NAME|all] [--seed N] [--passes N | --seconds S]
                [--trace 0|1] [--out FILE.json]
  gsim-perf compare A.json B.json
  gsim-perf bless [--workload NAME|all]
workloads: nosync, global_sync, local_sync, tiny_matrix";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("bless") => bless(&args[1..]),
        _ => Err(String::new()),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("gsim-perf: {e}");
            }
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// `--flag value` pairs, each flag at most once, from `allowed` only.
fn flags<'a>(args: &'a [String], allowed: &[&str]) -> Result<BTreeMap<&'a str, &'a str>, String> {
    let mut out = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if !allowed.contains(&flag.as_str()) {
            return Err(format!("unknown argument {flag:?}"));
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        if out.insert(flag.as_str(), value.as_str()).is_some() {
            return Err(format!("{flag} given twice"));
        }
    }
    Ok(out)
}

fn parse<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("bad value {v:?} for {flag}"))
}

fn workloads(arg: Option<&&str>) -> Result<Vec<WorkloadKind>, String> {
    match arg.copied().unwrap_or("all") {
        "all" => Ok(WorkloadKind::ALL.to_vec()),
        name => WorkloadKind::parse(name)
            .map(|w| vec![w])
            .ok_or_else(|| format!("unknown workload {name:?}")),
    }
}

fn golden_path(kind: WorkloadKind) -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/golden"))
        .join(format!("{}.csv", kind.name()))
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let f = flags(
        args,
        &[
            "--workload",
            "--seed",
            "--passes",
            "--seconds",
            "--trace",
            "--out",
        ],
    )?;
    let kinds = workloads(f.get("--workload"))?;
    let seed: u64 = f.get("--seed").map_or(Ok(1), |v| parse("--seed", v))?;
    let passes = match (f.get("--passes"), f.get("--seconds")) {
        (Some(_), Some(_)) => return Err("give --passes or --seconds, not both".into()),
        (Some(n), None) => Passes::Count(parse::<usize>("--passes", n)?.max(1)),
        (None, Some(s)) => match parse::<f64>("--seconds", s)? {
            secs if secs.is_finite() && secs >= 0.0 => Passes::Seconds(secs),
            _ => return Err(format!("bad value {s:?} for --seconds")),
        },
        (None, None) => Passes::Count(5),
    };
    // Which metrics the result line carries: 0 end-to-end, 1 per-layer,
    // absent both. Only a traced run measures per-layer metrics.
    let trace: Option<bool> = match f.get("--trace").copied() {
        None => None,
        Some("0") => Some(false),
        Some("1") => Some(true),
        Some(v) => return Err(format!("bad value {v:?} for --trace")),
    };
    let opts = Options {
        passes,
        traced: trace != Some(false),
    };

    let mut spans = Spans::default();
    let mut reports = Vec::new();
    for kind in kinds {
        let mut rng = Rng64::seed_from_u64(seed);
        let mut cells = kind.cells(&mut rng);
        permute(&mut cells, &mut rng);
        let golden = match std::fs::read_to_string(golden_path(kind)) {
            Ok(text) => parse_golden(&text)?,
            Err(e) => {
                eprintln!(
                    "warning: no golden for {}: {e}; checking passes against each other only",
                    kind.name()
                );
                BTreeMap::new()
            }
        };
        eprintln!("{}: {} cells, seed {seed}", kind.name(), cells.len());
        let report = run_workload(kind, &cells, &golden, &opts, &mut spans);
        for e in &report.errors {
            eprintln!("  FAILED {e}");
        }
        eprintln!(
            "  {} timed passes, {} of {} cell runs failed",
            report.passes, report.failed, report.attempted
        );
        reports.push(report);
    }

    let dir = out_dir();
    let spans_file = dir.join("spans.json");
    if let Err(e) = std::fs::create_dir_all(&dir)
        .and_then(|_| std::fs::write(&spans_file, spans.to_chrome_json()))
    {
        eprintln!("warning: cannot write {}: {e}", spans_file.display());
    }
    if let Some(out) = f.get("--out") {
        std::fs::write(out, run_json(&reports, provenance(seed, passes)))
            .map_err(|e| format!("cannot write {out}: {e}"))?;
        eprintln!("wrote {out}");
    }
    print!("{}", table(&reports));
    for r in &reports {
        println!("{}", result_line(&select(r, trace)));
    }
    Ok(ExitCode::SUCCESS)
}

/// The report restricted to the metrics its result line carries.
fn select(r: &WorkloadReport, trace: Option<bool>) -> WorkloadReport {
    let mut r = r.clone();
    if let Some(per_layer) = trace {
        r.metrics.retain(|m| m.def.bound.is_none() == per_layer);
    }
    r
}

/// Host and build facts recorded in a run file.
fn provenance(seed: u64, passes: Passes) -> Vec<(String, JsonValue)> {
    let tool = |cmd: &str, args: &[&str]| {
        std::process::Command::new(cmd)
            .args(args)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or("unknown".to_string(), |o| {
                String::from_utf8_lossy(&o.stdout).trim().to_string()
            })
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let passes = match passes {
        Passes::Count(n) => format!("{n}"),
        Passes::Seconds(s) => format!("{s}s"),
    };
    vec![
        (
            "git".into(),
            JsonValue::Str(tool("git", &["describe", "--always", "--dirty"])),
        ),
        ("rustc".into(), JsonValue::Str(tool("rustc", &["-V"]))),
        ("nproc".into(), JsonValue::num(nproc)),
        ("jobs".into(), JsonValue::num(1)),
        ("seed".into(), JsonValue::num(seed)),
        ("passes".into(), JsonValue::Str(passes)),
    ]
}

fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("compare takes two run files".into());
    };
    let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"));
    let (text, worse) = compare(&read(a)?, &read(b)?).map_err(|e| format!("bad run file: {e}"))?;
    print!("{text}");
    Ok(if worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// Regenerates the golden result rows at seed 1.
fn bless(args: &[String]) -> Result<ExitCode, String> {
    let f = flags(args, &["--workload"])?;
    for kind in workloads(f.get("--workload"))? {
        let cells = kind.cells(&mut Rng64::seed_from_u64(1));
        let rows = cells
            .iter()
            .map(|c: &PerfCell| {
                Simulator::new(c.system())
                    .run(&c.build())
                    .map(|s| c.csv_row(&s))
                    .map_err(|e| format!("{}: {e}", c.key()))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let path = golden_path(kind);
        std::fs::create_dir_all(path.parent().expect("golden files live in a directory"))
            .and_then(|_| std::fs::write(&path, golden_csv(&rows)))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("blessed {} ({} rows)", path.display(), rows.len());
    }
    Ok(ExitCode::SUCCESS)
}
