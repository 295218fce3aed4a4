//! Golden-stats pin for the multi-device fabric and DeNovo forwarding.
//!
//! The cross-device benchmarks (XDEV_D, XDEV_S, XPC on a 2-device fabric
//! with inter-device latency 40) exercise the xlink routing path and the
//! remote-home L2 round trips; UTS on the default 4x4 mesh exercises
//! DeNovo's registration forwarding between L1s. Every fresh run must
//! reproduce the pinned stats byte-for-byte under all five configs.
//! Regenerate (only when an intentional behaviour change lands) with:
//!
//! ```text
//! GSIM_BLESS_GOLDEN=1 cargo test --test golden_fabric
//! ```

mod common;

use gsim_core::{Simulator, SystemConfig};
use gsim_types::ProtocolConfig;
use gsim_workloads::{registry, Scale};

const GOLDEN_PATH: &str = "tests/golden/fabric2_simstats.json";
const FABRIC_BENCHES: [&str; 3] = ["XDEV_D", "XDEV_S", "XPC"];

/// One `"BENCH@SHAPE/CONFIG": <stats json>` line per cell, in a fixed
/// order, so diffs name the exact cell that drifted.
fn current_snapshot() -> String {
    let mut cells: Vec<(String, SystemConfig, &str)> = Vec::new();
    for bench in FABRIC_BENCHES {
        for config in ProtocolConfig::ALL {
            let cfg = SystemConfig::fabric(config, 2, 40);
            cells.push((format!("{bench}@d2x40/{config}"), cfg, bench));
        }
    }
    for config in ProtocolConfig::ALL {
        let cfg = SystemConfig::micro15(config);
        cells.push((format!("UTS@4x4/{config}"), cfg, "UTS"));
    }
    let rows: Vec<String> = cells
        .into_iter()
        .map(|(key, cfg, bench)| {
            let b = registry::by_name(bench).expect("registered benchmark");
            let stats = Simulator::new(cfg)
                .run(&(b.build)(Scale::Tiny))
                .unwrap_or_else(|e| panic!("{key}: {e}"));
            format!("\"{key}\": {}", stats.to_json())
        })
        .collect();
    format!("{{\n{}\n}}\n", rows.join(",\n"))
}

#[test]
fn fabric_and_forwarding_stats_match_the_golden() {
    common::check_golden(
        GOLDEN_PATH,
        &current_snapshot(),
        "fabric stats drifted from the golden",
    );
}
