//! Microbenchmarks of the *simulator itself*: how fast the engine
//! retires simulated work under each protocol family. Useful for
//! keeping the reproduction practical to run (the figures re-simulate
//! 23 benchmarks x 5 configurations).
//!
//! Dependency-free harness: each case runs a warmup pass and then a
//! fixed number of timed iterations, reporting min/mean wall time.

use gsim_core::{Simulator, SystemConfig};
use gsim_harness::{default_jobs, full_matrix, run_cells};
use gsim_types::ProtocolConfig;
use gsim_workloads::{registry, Scale};
use std::hint::black_box;
use std::time::Instant;

const ITERS: usize = 10;

fn bench_config(name: &str, protocol: ProtocolConfig) {
    let bench = registry::by_name(name).expect("known benchmark");
    // Warmup.
    let stats = Simulator::new(SystemConfig::micro15(protocol))
        .run(&(bench.build)(Scale::Tiny))
        .expect("verified run");
    let cycles = stats.cycles;
    let mut times = Vec::with_capacity(ITERS);
    for _ in 0..ITERS {
        let start = Instant::now();
        let stats = Simulator::new(SystemConfig::micro15(protocol))
            .run(&(bench.build)(Scale::Tiny))
            .expect("verified run");
        black_box(stats.cycles);
        times.push(start.elapsed());
    }
    let min = times.iter().min().unwrap();
    let mean = times.iter().sum::<std::time::Duration>() / ITERS as u32;
    println!("{name}/{protocol}: min {min:>10.2?}  mean {mean:>10.2?}  ({cycles} sim cycles)");
}

/// Wall time of the full Table 4 matrix (115 cells, Tiny scale, cache
/// disabled) at each worker count: the harness scaling curve. On an
/// N-core machine jobs=N should approach N x jobs=1; on one core the
/// pool must cost nothing (jobs=1 runs inline).
fn bench_harness_scaling() {
    let cores = default_jobs();
    println!("\nharness scaling (full Tiny matrix, no cache, {cores} cores available)");
    let cells = full_matrix(Scale::Tiny);
    let mut base = None;
    for jobs in [1usize, 2, 4, 8] {
        let start = Instant::now();
        let results = run_cells(&cells, jobs, None).expect("all cells verify");
        let t = start.elapsed();
        black_box(results.len());
        let speedup = base.get_or_insert(t).as_secs_f64() / t.as_secs_f64();
        println!(
            "  jobs={jobs}: {t:>10.2?} for {} cells  ({speedup:.2}x vs jobs=1)",
            cells.len()
        );
    }
}

/// Times the Tiny-scale three_panels workload — the full benchmark x
/// config matrix at jobs=1 — and records the throughput in a JSON
/// baseline file (`BENCH_throughput.json`, or `$BENCH_OUT`), naming the
/// host's core count (`nproc`) so a baseline says where it was taken.
///
/// The committed copy at the repository root is the perf baseline the
/// CI perf-smoke job compares against; regenerate it on a quiet machine
/// with `cargo bench -p gsim-bench --bench sim_throughput` and copy the
/// emitted file over the committed one. Best-of-N wall time is used
/// because shared runners are noisy.
fn bench_matrix_baseline() {
    const REPS: usize = 3;
    let cells = full_matrix(Scale::Tiny);
    let mut best = None;
    let mut sim_cycles: u64 = 0;
    for _ in 0..REPS {
        let start = Instant::now();
        let results = run_cells(&cells, 1, None).expect("all cells verify");
        let t = start.elapsed();
        sim_cycles = results.iter().map(|r| r.stats.cycles).sum();
        best = Some(best.map_or(t, |b: std::time::Duration| b.min(t)));
    }
    let wall = best.expect("at least one rep");
    let wall_ms = wall.as_secs_f64() * 1e3;
    let cycles_per_sec = sim_cycles as f64 / wall.as_secs_f64();
    println!(
        "\nthree_panels Tiny matrix (jobs=1, best of {REPS}): {wall_ms:.2}ms, \
         {sim_cycles} sim cycles, {cycles_per_sec:.0} cycles/sec"
    );
    let nproc = default_jobs();
    let out = std::env::var("BENCH_OUT").unwrap_or_else(|_| "BENCH_throughput.json".into());
    let json = format!(
        "{{\n  \"case\": \"three_panels_tiny_matrix\",\n  \"scale\": \"Tiny\",\n  \
         \"jobs\": 1,\n  \"nproc\": {nproc},\n  \"cells\": {},\n  \
         \"reps\": {REPS},\n  \
         \"wall_ms\": {wall_ms:.2},\n  \"sim_cycles\": {sim_cycles},\n  \
         \"cycles_per_sec\": {cycles_per_sec:.0}\n}}\n",
        cells.len()
    );
    std::fs::write(&out, json).expect("write throughput baseline");
    println!("baseline written to {out}");
}

fn main() {
    // The committed baseline is only meaningful with the conformance
    // checker off. Benches compile without debug assertions, so
    // micro15's default must resolve to Off here — if this fires, a
    // config change put checking (and its overhead) into the timed path.
    let check = SystemConfig::micro15(ProtocolConfig::Gd).check;
    assert_eq!(
        check,
        gsim_core::CheckLevel::Off,
        "throughput bench must run with conformance checking off"
    );
    // Observers (trace, prof, flow, lens) are per-run arguments of
    // Simulator::run_observed; the plain `run` timed here has none.
    // The schedule explorer's controlled event queue is opt-in via
    // Simulator::run_explored; the production pop path (and so this
    // baseline) stays on the calendar queue.
    assert_eq!(
        SystemConfig::micro15(ProtocolConfig::Gd).event_queue,
        gsim_core::QueueKind::Calendar,
        "throughput bench must run on the calendar event queue"
    );
    println!("simulator throughput ({ITERS} iterations per case, Tiny scale)");
    for protocol in [ProtocolConfig::Gd, ProtocolConfig::Gh, ProtocolConfig::Dd] {
        bench_config("SPM_G", protocol);
        bench_config("UTS", protocol);
        bench_config("SGEMM", protocol);
    }
    bench_harness_scaling();
    bench_matrix_baseline();
}
