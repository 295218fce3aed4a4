//! Golden-stats pin for the default single-device 4x4 system.
//!
//! The fabric generalization (multi-device `Topology`) must not change a
//! single bit of the default `micro15` system's behaviour: these stats
//! were captured *before* the topology refactor and every fresh run must
//! reproduce them byte-for-byte. Regenerate (only when an intentional
//! behaviour change lands) with:
//!
//! ```text
//! GSIM_BLESS_GOLDEN=1 cargo test --test golden_micro15
//! ```

mod common;

use gsim_core::{Simulator, SystemConfig};
use gsim_types::ProtocolConfig;
use gsim_workloads::{registry, Scale};

const GOLDEN_PATH: &str = "tests/golden/micro15_simstats.json";
const BENCHES: [&str; 3] = ["BP", "SPM_G", "SPM_L"];

/// One `"BENCH/CONFIG": <stats json>` line per cell, in a fixed order,
/// so diffs name the exact cell that drifted.
fn current_snapshot() -> String {
    let mut out = String::from("{\n");
    let mut first = true;
    for bench in BENCHES {
        let b = registry::by_name(bench).expect("registered benchmark");
        for config in ProtocolConfig::ALL {
            let stats = Simulator::new(SystemConfig::micro15(config))
                .run(&(b.build)(Scale::Tiny))
                .unwrap_or_else(|e| panic!("{bench} under {config}: {e}"));
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&format!("\"{bench}/{config}\": {}", stats.to_json()));
        }
    }
    out.push_str("\n}\n");
    out
}

#[test]
fn default_4x4_stats_match_the_pre_fabric_golden() {
    common::check_golden(
        GOLDEN_PATH,
        &current_snapshot(),
        "single-device stats drifted from the pre-fabric golden",
    );
}
