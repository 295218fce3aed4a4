#![warn(missing_docs)]

//! `gsim-perf`: the host-time benchmark of the gpu-denovo simulator.
//!
//! Four workloads ([`cells::WorkloadKind`]) are timed end to end with
//! tracing off ([`bench`]); a separate traced pass then attributes host
//! time to the NoC, the event queue and the memory structures by
//! replaying the recorded operation streams through each layer alone
//! ([`replay`]), leaving the rest to the core engine. The benchmark
//! drives the simulator only through its public API, from outside.
//!
//! See `README.md` beside this crate for the workloads, the metrics and
//! their bounds, and how to run, compare and bless.

pub mod bench;
pub mod cells;
pub mod metrics;
pub mod replay;
pub mod report;
pub mod spans;
pub mod stats;
