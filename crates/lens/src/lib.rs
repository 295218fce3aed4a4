#![warn(missing_docs)]

//! Per-line coherence lifecycle observability for the `gpu-denovo`
//! simulator: what the paper's protocols actually do to a cache line,
//! and what it costs.
//!
//! Three views, collected by a [`LensCollector`] the caller installs on
//! a run's trace handle, and all observation-only:
//!
//! 1. **Acquire cost ledger** — per global acquire, how many
//!    still-valid words the invalidation sweep dropped, and (by
//!    watching subsequent misses and fills of the same words) how many
//!    were re-fetched before being overwritten: the *provably wasted*
//!    share of the invalidation, priced in payload flits and
//!    load-to-use stall cycles. [`LensReport::reconcile`] proves the
//!    ledger sums reproduce `Counts::flash_invalidations` /
//!    `words_invalidated` / `ownership_writebacks` exactly.
//! 2. **Per-line lifecycle table** — Valid/Owned install churn,
//!    ownership transfers and steals, L2 registration churn, and
//!    eviction writebacks for the top-k hottest lines, annotated with
//!    the workload region names of a `gsim_types::RegionMap`.
//! 3. **Cross-sync reuse histograms** — reuse distance in acquire
//!    epochs for hits and misses, globally and per region: the direct
//!    measurement of the paper's "DeNovo retains data at
//!    synchronization points" mechanism (GPU coherence shows its reuse
//!    as cross-boundary *misses*, DeNovo as cross-boundary *hits*).
//!
//! The [`LensCollector`] is a `gsim-trace`
//! [`TraceSink`](gsim_trace::TraceSink) consumer: the caller installs it
//! on the run's trace handle, and both protocols' controllers and the
//! engine reach it through the hooks they already report there. An
//! unobserved run has no consumer, so each hook is one branch, and a
//! lens-observed run's `SimStats` are byte-identical to an unobserved
//! run's.

pub mod collector;
pub mod report;

pub use collector::{LensCollector, DEFAULT_TOPK, MAX_EVENTS, MAX_TRACKED_LINES};
pub use report::{
    reuse_bucket, AcquireEvent, AcquireLedger, LensReport, LineRow, REUSE_BUCKETS, REUSE_LABELS,
};
