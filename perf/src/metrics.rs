//! Every metric the benchmark reports: name, unit, direction, and (for
//! end-to-end metrics) the bound by which a change may worsen it.
//!
//! `BENCHMARK.json` at the repository root lists the same metrics; a
//! test keeps the two in step.

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory, work counts).
    Lower,
    /// Larger is better (rates, hit rates).
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's definition.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// `[A-Za-z0-9_.-]+`; per-layer names are `<crate>.<metric>`.
    pub name: &'static str,
    /// Unit label.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Allowed worsening as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Metrics a user of the simulator sees, measured with tracing off.
pub const END_TO_END: &[MetricDef] = &[
    e2e("wall_s", "s", Lower, 0.20),
    e2e("sim_cycles_per_s", "1/s", Higher, 0.20),
    e2e("sim_instr_per_s", "1/s", Higher, 0.20),
    e2e("sim_msgs_per_s", "1/s", Higher, 0.20),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.10),
];

/// The share of attempted cell runs that failed. It is zero on a healthy
/// run, so it is reported through the result line's `failed` and
/// `attempted` counts rather than as a metric, and compared with bound 0.
pub const FAILED_FRAC: MetricDef = e2e("failed_frac", "frac", Lower, 0.0);

/// Metrics of single layers, from the separate traced pass.
pub const PER_LAYER: &[MetricDef] = &[
    layer("workloads.build_s", "s", Lower),
    layer("harness.cold_pass_s", "s", Lower),
    layer("harness.warm_pass_s", "s", Lower),
    layer("harness.hit_frac", "frac", Higher),
    layer("core.run_s", "s", Lower),
    layer("core.fixed_run_us", "us", Lower),
    layer("core.instructions", "count", Lower),
    layer("core.ns_per_instr", "ns", Lower),
    layer("core.ns_per_cycle", "ns", Lower),
    layer("core.self_s", "s", Lower),
    layer("core.self_share", "frac", Lower),
    layer("equeue.ops", "count", Lower),
    layer("equeue.ns_per_op", "ns", Lower),
    layer("equeue.est_s", "s", Lower),
    layer("equeue.share", "frac", Lower),
    layer("noc.msgs", "count", Lower),
    layer("noc.flit_hops", "count", Lower),
    layer("noc.ns_per_send", "ns", Lower),
    layer("noc.est_s", "s", Lower),
    layer("noc.share", "frac", Lower),
    layer("protocol.l1_accesses", "count", Lower),
    layer("protocol.l1_load_hit_rate", "frac", Higher),
    layer("protocol.l1_atomic_hit_rate", "frac", Higher),
    layer("protocol.l2_accesses", "count", Lower),
    layer("protocol.l2_atomics", "count", Lower),
    layer("protocol.registrations", "count", Lower),
    layer("protocol.reg_forwards", "count", Lower),
    layer("protocol.words_invalidated", "count", Lower),
    layer("protocol.flash_invalidations", "count", Lower),
    layer("mem.mshr_allocs", "count", Lower),
    layer("mem.mshr.ns_per_op", "ns", Lower),
    layer("mem.cache.ns_per_op", "ns", Lower),
    layer("mem.cache.replay_hit_rate", "frac", Higher),
    layer("mem.est_s", "s", Lower),
    layer("mem.sb_flushes", "count", Lower),
    layer("mem.dram_accesses", "count", Lower),
    layer("mem.evictions", "count", Lower),
    layer("trace.events", "count", Lower),
    layer("trace.overhead_frac", "frac", Lower),
];

/// Looks a metric up by name among both lists and [`FAILED_FRAC`].
pub fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .chain(std::iter::once(&FAILED_FRAC))
        .find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsim_types::JsonValue;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_are_valid_and_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        assert!(all.iter().all(|n| valid_name(n)), "{all:?}");
        let mut dedup = all.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len());
        assert!(PER_LAYER.len() <= 128);
        let setup = def("setup_s").expect("setup_s is defined");
        let largest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(largest),
            "setup_s carries the largest bound"
        );
    }

    /// The metric lists in `BENCHMARK.json` are the ones defined here.
    #[test]
    fn benchmark_json_matches_the_definitions() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let doc = JsonValue::parse(&text).expect("BENCHMARK.json parses");
        let check = |key: &str, defs: &[MetricDef]| {
            let listed = doc.get(key).and_then(JsonValue::as_arr).expect(key);
            assert_eq!(listed.len(), defs.len(), "{key} length");
            for (j, d) in listed.iter().zip(defs) {
                assert_eq!(j.get("name").and_then(JsonValue::as_str), Some(d.name));
                assert_eq!(j.get("unit").and_then(JsonValue::as_str), Some(d.unit));
                assert_eq!(
                    j.get("better").and_then(JsonValue::as_str),
                    Some(d.better.label()),
                    "{}",
                    d.name
                );
                assert_eq!(
                    j.get("bound").and_then(JsonValue::as_f64),
                    d.bound,
                    "{}",
                    d.name
                );
            }
        };
        check("end_to_end", END_TO_END);
        check("per_layer", PER_LAYER);
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(JsonValue::as_arr)
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(JsonValue::as_str))
            .collect();
        let ours: Vec<&str> = crate::cells::WorkloadKind::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, ours);
    }
}
