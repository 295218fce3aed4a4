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
pub use sim::{
    Candidate, Decision, ExploredRun, Footprint, ObserveSpec, Reports, SimError, Simulator,
};
pub use workload::{KernelLaunch, TbSpec, Workload};
