#![warn(missing_docs)]

//! **gsim-prof** — the opt-in profiling layer of the gpu-denovo
//! simulator.
//!
//! The paper's headline claims are *attribution* claims: DeNovo wins on
//! locally synchronized benchmarks because acquire spins stay in the L1
//! and flash invalidations disappear. Whole-run aggregates
//! ([`SimStats`](gsim_types::SimStats)) cannot show that; this crate
//! can. It adds three views, collected by a [`Profiler`] the caller
//! installs on a run's trace handle, and all *observation-only* — a
//! profiled run produces byte-identical statistics to an unprofiled
//! one:
//!
//! 1. **Cycle attribution** ([`StallKind`], [`CuRow`]): the engine
//!    charges every cycle of every CU to exactly one of eight buckets
//!    (compute/issue, load-use stall, store-buffer full, SB release
//!    drain, global-acquire spin, local-acquire spin, barrier wait,
//!    idle), alongside per-CU copies of the engine counters. The
//!    invariant — checked by [`ProfileReport::reconcile`] — is that
//!    per-CU rows sum *exactly* to the global totals.
//! 2. **Hot-line contention** ([`SpaceSaving`], [`HotLine`]): a
//!    fixed-capacity heavy-hitter sketch per L1 and one at the L2
//!    registry track the top lines by accesses, invalidations received,
//!    ownership transfers (ping-pong), and registry forwards. Reports
//!    annotate lines with workload region names (`lock[3]`, `data[]`)
//!    via a [`RegionMap`](gsim_types::RegionMap).
//! 3. **Interval time-series** ([`IntervalSample`]): every interval the
//!    profiler declares (its `sample_interval`) the engine snapshots
//!    cumulative counters and instantaneous occupancies into a bounded
//!    ring, exported as delta CSV and as Perfetto counter tracks.
//!
//! The [`Profiler`] is a `gsim-trace` [`TraceSink`](gsim_trace::TraceSink)
//! consumer: the caller installs it on the run's trace handle, and it
//! reads the hooks every component already reports through that handle.
//! An unobserved run has no consumer, so each hook costs one branch, and
//! the profiler never schedules events or mutates simulation state.

mod attr;
mod profiler;
mod report;
mod sketch;

pub use attr::CuAttr;
pub use gsim_trace::{IntervalSample, StallKind, NUM_STALL_KINDS, STALL_KINDS};
pub use profiler::Profiler;
pub use report::{CuRow, HotLine, ProfileReport};
pub use sketch::{LineTally, SpaceSaving, SKETCH_LINES};
