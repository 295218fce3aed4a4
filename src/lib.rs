#![warn(missing_docs)]

//! **gpu-denovo** — a full reproduction of Sinclair, Alsop & Adve,
//! *"Efficient GPU Synchronization without Scopes: Saying No to Complex
//! Consistency Models"* (MICRO 2015), as a deterministic, functional +
//! timing simulator of a tightly coupled CPU-GPU system.
//!
//! The paper's question: can GPUs support fine-grained synchronization
//! efficiently *without* the scoped-synchronization HRF memory model?
//! Its answer — reproduced by this crate — is yes: the DeNovo hybrid
//! coherence protocol under plain DRF is a sweet spot in performance,
//! energy, hardware overhead, and memory-model complexity.
//!
//! # Quickstart
//!
//! Run a Table 4 benchmark under two of the paper's configurations and
//! compare:
//!
//! ```
//! use gpu_denovo::{registry, ProtocolConfig, Scale, Simulator, SystemConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let bench = registry::by_name("SPM_G").expect("a Table 4 name");
//! let gd = Simulator::new(SystemConfig::micro15(ProtocolConfig::Gd))
//!     .run(&(bench.build)(Scale::Tiny))?;
//! let dd = Simulator::new(SystemConfig::micro15(ProtocolConfig::Dd))
//!     .run(&(bench.build)(Scale::Tiny))?;
//! // The paper's Figure 3: DeNovo wins on global-scope synchronization.
//! assert!(dd.cycles < gd.cycles);
//! # Ok(())
//! # }
//! ```
//!
//! # Crate map
//!
//! | Layer | Crate | What it models |
//! |---|---|---|
//! | shared vocabulary | [`types`] | addressing, scopes, messages, statistics |
//! | interconnect | [`noc`] | 4x4 mesh, XY routing, flit-crossing accounting |
//! | memory structures | [`mem`] | word-state caches, MSHRs, store buffers, DRAM |
//! | coherence protocols | [`protocol`] | GPU (GD/GH) and DeNovo (DD/DD+RO/DH) controllers |
//! | simulation core | [`sim`] | kernel IR, CU model, DRF/HRF enforcement, engine |
//! | energy | [`energy`] | GPUWattch/McPAT-style per-event model |
//! | workloads | [`workloads`] | all 23 Table 4 benchmarks, functionally verified |
//! | tracing | [`trace`] | structured events, ring recorder, Chrome/Perfetto export |
//! | profiling | [`prof`] | cycle attribution, hot-line sketches, interval time-series |
//! | flow observation | [`flow`] | per-link traffic attribution, occupancy series, request journeys |
//! | lifecycle lens | [`lens`] | acquire invalidation-waste ledger, per-line lifecycle, cross-sync reuse |
//! | conformance | [`check`] | coherence invariants, happens-before race detection, quiesce audits |
//! | schedule exploration | [`explore`] | DPOR enumeration of same-cycle orderings, replayable schedules |
//! | experiment harness | [`harness`] | parallel matrix runner, content-addressed result cache |
//!
//! Every table and figure of the paper regenerates from the benches in
//! `crates/bench` (see EXPERIMENTS.md for the index and the measured
//! results).

pub use gsim_check as check;
pub use gsim_core as sim;
pub use gsim_energy as energy;
pub use gsim_explore as explore;
pub use gsim_flow as flow;
pub use gsim_harness as harness;
pub use gsim_lens as lens;
pub use gsim_mem as mem;
pub use gsim_noc as noc;
pub use gsim_prof as prof;
pub use gsim_protocol as protocol;
pub use gsim_trace as trace;
pub use gsim_types as types;
pub use gsim_workloads as workloads;

pub use gsim_check::CheckLevel;
pub use gsim_core::{
    KernelLaunch, MeshConfig, ObserveSpec, Reports, SimError, Simulator, SystemConfig, TbSpec,
    Topology, Workload, XLinkConfig,
};
pub use gsim_explore::{Budget, ExploreMode, ScheduleId, ShapeReport};
pub use gsim_flow::{FlowReport, FlowSpec};
pub use gsim_lens::{LensReport, LensSpec};
pub use gsim_prof::{ProfileReport, StallKind};
pub use gsim_types::{ProtocolConfig, SimStats};
pub use gsim_workloads::{registry, Scale};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_reexports_compose() {
        let cfg = SystemConfig::micro15(ProtocolConfig::DdRo);
        assert!(cfg.protocol.read_only_region());
        assert_eq!(registry::all().len(), 23);
    }
}
