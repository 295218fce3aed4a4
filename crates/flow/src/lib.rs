#![warn(missing_docs)]

//! Memory-system flow observability for the `gpu-denovo` simulator:
//! where the paper's third metric — network traffic — actually goes.
//!
//! Three views, switched on per run by `flow: Some(FlowSpec)` in the
//! `ObserveSpec` given to `Simulator::run_observed`, and all
//! observation-only:
//!
//! 1. **Per-link traffic attribution** — flit counts and
//!    queueing-vs-transit cycles for every directed mesh link, split by
//!    the paper's four message classes, with a reconciliation proof
//!    that per-link sums reproduce the mesh's aggregate
//!    `TrafficBreakdown` class-for-class.
//! 2. **Occupancy time-series** — interval snapshots of link
//!    utilization, per-L2-bank load, and MSHR/store-buffer/pending
//!    occupancy ([`FlowSample`]), exported as delta CSV and Perfetto
//!    counter tracks.
//! 3. **Sampled request journeys** — every Nth memory request (by
//!    dense request id: deterministic and seed-stable) records per-hop
//!    spans from L1 miss to reply ([`Journey`]), decomposed into an
//!    exact-sum latency waterfall and exported as Perfetto spans.
//!
//! The collection plumbing mirrors `gsim-trace`/`gsim-prof`: the
//! engine and mesh hold [`FlowHandle`] clones, every hook is one
//! branch when disabled, and a flow-observed run's `SimStats` are
//! byte-identical to an unobserved run's.

pub mod handle;
pub mod journey;
pub mod report;
pub mod sample;
pub mod spec;

pub use handle::{FlowCollector, FlowHandle, MAX_JOURNEYS};
pub use journey::{Journey, JourneyHop, JourneyKind, STAGE_LABELS};
pub use report::{FlowReport, LinkRow};
pub use sample::{FlowSample, SampleRing, MAX_SAMPLES};
pub use spec::FlowSpec;
