#![warn(missing_docs)]

//! The `gpu-denovo` simulation core: everything that assembles the
//! paper's system out of the substrate crates.
//!
//! * [`config`] — the Table 3 system parameters ([`SystemConfig`]).
//! * [`equeue`] — the calendar event queue the engine schedules on
//!   (with a heap reference implementation for differential testing).
//! * [`kernel`] — the kernel IR thread blocks execute, with a
//!   label-resolving [`KernelBuilder`](kernel::KernelBuilder).
//! * [`workload`] — the benchmark interface: initialization, kernel
//!   launches, functional verification.
//! * [`proto`] — static dispatch over the GPU and DeNovo protocol
//!   families from `gsim-protocol`.
//! * [`sim`] — the deterministic discrete-event engine, the CU/thread
//!   block interpreter with the DRF/HRF program-order rules of the
//!   paper's §2, and the [`Simulator`] facade.
//!
//! Observation is the caller's: the engine builds no observer and
//! depends on no view crate. A caller installs its consumers (a trace
//! recorder, gsim-prof's, gsim-flow's or gsim-lens's collector, any
//! [`TraceSink`](gsim_trace::TraceSink)) on the handle it passes to
//! [`Simulator::run_traced`], so an edit to a view leaves the engine,
//! and the result cache keyed on its sources, as they were.
//!
//! See the crate-level example on [`Simulator`] for the 30-second tour.

pub mod config;
pub mod equeue;
pub mod kernel;
pub mod pending;
pub mod proto;
pub mod sim;
pub mod workload;

pub use config::SystemConfig;
pub use equeue::QueueKind;
pub use gsim_check::{CheckLevel, CheckReport};
pub use gsim_noc::{MeshConfig, Topology, XLinkConfig};
pub use sim::{Candidate, Decision, ExploredRun, Footprint, SimError, Simulator};
pub use workload::{KernelLaunch, TbSpec, Workload};
