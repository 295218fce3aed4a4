#![warn(missing_docs)]

//! Memory-system flow observability for the `gpu-denovo` simulator:
//! where the paper's third metric — network traffic — actually goes.
//!
//! Three views, collected by a [`FlowCollector`] the caller installs on
//! a run's trace handle, and all observation-only:
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
//! The [`FlowCollector`] is a `gsim-trace`
//! [`TraceSink`](gsim_trace::TraceSink) consumer: the caller installs it
//! on the run's trace handle, and the mesh and engine reach it through
//! the hooks they already report there. An unobserved run has no
//! consumer, so each hook is one branch, and a flow-observed run's
//! `SimStats` are byte-identical to an unobserved run's.

pub mod collector;
pub mod journey;
pub mod report;
pub mod sample;

pub use collector::{FlowCollector, DEFAULT_JOURNEY_PERIOD, MAX_JOURNEYS};
pub use gsim_trace::JourneyKind;
pub use journey::{Journey, JourneyHop, STAGE_LABELS};
pub use report::{FlowReport, LinkRow};
pub use sample::FlowSample;
