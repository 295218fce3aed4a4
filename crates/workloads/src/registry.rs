//! The Table 4 registry: every studied benchmark, its group, the paper's
//! input description, and a builder.

use crate::apps;
use crate::params::Scale;
use crate::sync::{barrier, mutex, semaphore};
use crate::uts;
use gsim_core::Workload;
use gsim_types::RegionMap;

/// Which part of the evaluation a benchmark belongs to (Table 4's three
/// sections, which are also the figure groupings, plus our extensions).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Group {
    /// No intra-kernel synchronization (Figure 2).
    NoSync,
    /// Globally scoped fine-grained synchronization (Figure 3).
    GlobalSync,
    /// Mostly locally scoped / hybrid synchronization (Figure 4).
    LocalSync,
    /// Not in Table 4: Pannotia-style graph workloads (§7.2 notes the
    /// originals were not publicly available).
    Extension,
    /// Not in Table 4: multi-device fabric microbenchmarks (device-scope
    /// vs system-scope synchronization, cross-device producer-consumer).
    Fabric,
}

/// One Table 4 row.
#[derive(Clone, Copy)]
pub struct Benchmark {
    /// The paper's abbreviation (e.g. `"SPM_G"`).
    pub name: &'static str,
    /// Evaluation group.
    pub group: Group,
    /// The paper's input description (Table 4).
    pub table4_input: &'static str,
    /// Builds the workload at the given scale.
    pub build: fn(Scale) -> Workload,
    /// Named memory regions of the workload's layout at the given
    /// scale, for profiler hot-line annotation (`None`: report raw
    /// addresses).
    pub regions: Option<fn(Scale) -> RegionMap>,
}

impl std::fmt::Debug for Benchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Benchmark")
            .field("name", &self.name)
            .field("group", &self.group)
            .finish()
    }
}

use mutex::MutexAlgo::{FetchAdd, Sleep, Spin, SpinBackoff};

/// Every benchmark of Table 4, in the paper's order.
pub fn all() -> Vec<Benchmark> {
    vec![
        // -- Applications without intra-kernel synchronization --
        Benchmark {
            name: "BP",
            group: Group::NoSync,
            table4_input: "32 KB",
            build: apps::backprop::backprop,
            regions: None,
        },
        Benchmark {
            name: "PF",
            group: Group::NoSync,
            table4_input: "10 x 100K matrix",
            build: apps::pathfinder::pathfinder,
            regions: None,
        },
        Benchmark {
            name: "LUD",
            group: Group::NoSync,
            table4_input: "256x256 matrix",
            build: apps::lud::lud,
            regions: None,
        },
        Benchmark {
            name: "NW",
            group: Group::NoSync,
            table4_input: "512x512 matrix",
            build: apps::nw::nw,
            regions: None,
        },
        Benchmark {
            name: "SGEMM",
            group: Group::NoSync,
            table4_input: "medium",
            build: apps::sgemm::sgemm,
            regions: None,
        },
        Benchmark {
            name: "ST",
            group: Group::NoSync,
            table4_input: "128x128x4, 4 iters",
            build: apps::stencil::stencil,
            regions: None,
        },
        Benchmark {
            name: "HS",
            group: Group::NoSync,
            table4_input: "512x512 matrix",
            build: apps::hotspot::hotspot,
            regions: None,
        },
        Benchmark {
            name: "NN",
            group: Group::NoSync,
            table4_input: "171K records",
            build: apps::nn::nn,
            regions: None,
        },
        Benchmark {
            name: "SRAD",
            group: Group::NoSync,
            table4_input: "256x256 matrix",
            build: apps::srad::srad,
            regions: None,
        },
        Benchmark {
            name: "LAVA",
            group: Group::NoSync,
            table4_input: "2x2x2 matrix",
            build: apps::lavamd::lavamd,
            regions: None,
        },
        // -- Global synchronization --
        Benchmark {
            name: "FAM_G",
            group: Group::GlobalSync,
            table4_input: "3 TBs/CU, 100 iters, 10 Ld&St",
            build: |s| mutex::global(FetchAdd, s),
            regions: Some(mutex::global_regions),
        },
        Benchmark {
            name: "SLM_G",
            group: Group::GlobalSync,
            table4_input: "3 TBs/CU, 100 iters, 10 Ld&St",
            build: |s| mutex::global(Sleep, s),
            regions: Some(mutex::global_regions),
        },
        Benchmark {
            name: "SPM_G",
            group: Group::GlobalSync,
            table4_input: "3 TBs/CU, 100 iters, 10 Ld&St",
            build: |s| mutex::global(Spin, s),
            regions: Some(mutex::global_regions),
        },
        Benchmark {
            name: "SPMBO_G",
            group: Group::GlobalSync,
            table4_input: "3 TBs/CU, 100 iters, 10 Ld&St",
            build: |s| mutex::global(SpinBackoff, s),
            regions: Some(mutex::global_regions),
        },
        // -- Local or hybrid synchronization --
        Benchmark {
            name: "FAM_L",
            group: Group::LocalSync,
            table4_input: "3 TBs/CU, 100 iters, 10 Ld&St",
            build: |s| mutex::local(FetchAdd, s),
            regions: Some(mutex::local_regions),
        },
        Benchmark {
            name: "SLM_L",
            group: Group::LocalSync,
            table4_input: "3 TBs/CU, 100 iters, 10 Ld&St",
            build: |s| mutex::local(Sleep, s),
            regions: Some(mutex::local_regions),
        },
        Benchmark {
            name: "SPM_L",
            group: Group::LocalSync,
            table4_input: "3 TBs/CU, 100 iters, 10 Ld&St",
            build: |s| mutex::local(Spin, s),
            regions: Some(mutex::local_regions),
        },
        Benchmark {
            name: "SPMBO_L",
            group: Group::LocalSync,
            table4_input: "3 TBs/CU, 100 iters, 10 Ld&St",
            build: |s| mutex::local(SpinBackoff, s),
            regions: Some(mutex::local_regions),
        },
        Benchmark {
            name: "SS_L",
            group: Group::LocalSync,
            table4_input: "readers 10 Ld, writers 20 St",
            build: |s| semaphore::spin_semaphore(s, false),
            regions: None,
        },
        Benchmark {
            name: "SSBO_L",
            group: Group::LocalSync,
            table4_input: "readers 10 Ld, writers 20 St",
            build: |s| semaphore::spin_semaphore(s, true),
            regions: None,
        },
        Benchmark {
            name: "TBEX_LG",
            group: Group::LocalSync,
            table4_input: "3 TBs/CU, 100 iters, 10 Ld&St",
            build: |s| barrier::tree_barrier(s, true),
            regions: None,
        },
        Benchmark {
            name: "TB_LG",
            group: Group::LocalSync,
            table4_input: "3 TBs/CU, 100 iters, 10 Ld&St",
            build: |s| barrier::tree_barrier(s, false),
            regions: None,
        },
        Benchmark {
            name: "UTS",
            group: Group::LocalSync,
            table4_input: "16K nodes",
            build: uts::uts,
            regions: None,
        },
    ]
}

/// Extension benchmarks beyond Table 4 (see [`Group::Extension`]).
pub fn extensions() -> Vec<Benchmark> {
    vec![
        Benchmark {
            name: "BFS",
            group: Group::Extension,
            table4_input: "4096 vertices, ~16K edges (extension)",
            build: crate::graph::bfs,
            regions: None,
        },
        Benchmark {
            name: "SSSP",
            group: Group::Extension,
            table4_input: "4096 vertices, ~16K edges (extension)",
            build: crate::graph::sssp,
            regions: None,
        },
    ]
}

/// The multi-device fabric microbenchmarks (see [`Group::Fabric`] and
/// [`crate::sync::xdev`]). Meaningful on a multi-device topology
/// (`SystemConfig::fabric`); `XPC` *requires* one.
pub fn fabric() -> Vec<Benchmark> {
    use crate::sync::xdev;
    vec![
        Benchmark {
            name: "XDEV_D",
            group: Group::Fabric,
            table4_input: "3 TBs/CU, lock homed on-device (fabric)",
            build: xdev::device_scope,
            regions: Some(xdev::device_regions),
        },
        Benchmark {
            name: "XDEV_S",
            group: Group::Fabric,
            table4_input: "3 TBs/CU, lock homed cross-device (fabric)",
            build: xdev::system_scope,
            regions: Some(xdev::system_regions),
        },
        Benchmark {
            name: "XPC",
            group: Group::Fabric,
            table4_input: "producer dev0 / consumer dev1 (fabric)",
            build: xdev::producer_consumer,
            regions: Some(xdev::pc_regions),
        },
    ]
}

/// Looks a benchmark up by name — Table 4 first, then the extensions
/// and the fabric microbenchmarks.
pub fn by_name(name: &str) -> Option<Benchmark> {
    all()
        .into_iter()
        .chain(extensions())
        .chain(fabric())
        .find(|b| b.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_is_complete() {
        let b = all();
        assert_eq!(b.len(), 23);
        assert_eq!(b.iter().filter(|x| x.group == Group::NoSync).count(), 10);
        assert_eq!(b.iter().filter(|x| x.group == Group::GlobalSync).count(), 4);
        assert_eq!(b.iter().filter(|x| x.group == Group::LocalSync).count(), 9);
        // Names unique.
        let mut names: Vec<_> = b.iter().map(|x| x.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 23);
    }

    #[test]
    fn lookup_by_name() {
        assert!(by_name("UTS").is_some());
        assert!(by_name("SPM_G").is_some());
        assert!(by_name("BFS").is_some(), "extensions resolve too");
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn extensions_are_separate_from_table4() {
        assert_eq!(extensions().len(), 2);
        assert!(all().iter().all(|b| b.group != Group::Extension));
    }

    #[test]
    fn fabric_benches_are_separate_and_resolvable() {
        assert_eq!(fabric().len(), 3);
        assert!(all().iter().all(|b| b.group != Group::Fabric));
        assert!(by_name("XDEV_D").is_some());
        assert!(by_name("XDEV_S").is_some());
        assert!(by_name("XPC").is_some());
    }
}
