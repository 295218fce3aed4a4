#![warn(missing_docs)]

//! The coherence protocols of Sinclair et al., MICRO 2015.
//!
//! This crate implements both protocol families the paper studies as
//! message-driven controller state machines:
//!
//! * [`gpu`] — conventional GPU software coherence (configurations GPU-D
//!   and GPU-H): reader-initiated full-cache invalidation, buffered and
//!   coalesced writethroughs, synchronization at the shared L2 (or at the
//!   L1 for HRF local scopes).
//! * [`denovo`] — the DeNovo hybrid hardware-software protocol
//!   (configurations DeNovo-D, DeNovo-D+RO, DeNovo-H): reader-initiated
//!   *selective* invalidation, word-granularity hardware ownership
//!   (registration) tracked at the L2 registry, and DeNovoSync0
//!   synchronization with same-CU coalescing and the distributed queue
//!   for racy registrations.
//!
//! Both families run on one shared chassis ([`chassis`]): the L1's
//! cache, store buffer, MSHRs, miss-epoch guard and release drain, and
//! the L2's banks, in-order pipelines and DRAM. Each family module keeps
//! only the paper-level differences.
//!
//! Controllers are pure state machines connected to the engine through
//! the [`action`] vocabulary (each entry point appends to a caller-owned
//! `Vec<Action>` sink), so every protocol transition is unit-tested in
//! isolation here, independent of timing.
//!
//! The qualitative side of the paper lives in three data modules:
//! [`taxonomy`] (Table 1), [`features`] (Tables 2 and 5), and
//! [`overhead`] (the §4.2 state-bit accounting).

pub mod action;
pub mod chassis;
pub mod denovo;
pub mod features;
pub mod gpu;
pub mod overhead;
pub mod taxonomy;

pub use action::{Action, Issue};
pub use chassis::{L1Chassis, L1Config, L2Chassis, L2Config};
pub use denovo::{DnL1, DnL2};
pub use gpu::{GpuL1, GpuL2};
