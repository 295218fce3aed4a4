#![warn(missing_docs)]

//! The observation vocabulary of the `gpu-denovo` simulator: structured
//! events, typed hooks, and the one handle every component reports
//! through.
//!
//! The simulator's headline numbers — cycles, traffic, energy — say
//! *how much*; this crate says *when* and *where*. Every protocol
//! controller, the mesh, and the engine itself carry a clone of one
//! [`TraceHandle`]. Through it they report each fact they observe once,
//! as a typed hook of [`TraceSink`] (an L1 access, an acquire sweep's
//! dropped words, a link crossing, ...), which the handle fans out to
//! every consumer its caller installed: the [`RingRecorder`], and
//! gsim-prof's, gsim-flow's and gsim-lens's collectors, each sized by
//! the run's [`RunShape`]. A hook whose fact is also a structured
//! [`TraceEvent`] (a message send, a fill's state change, an eviction,
//! ...) declares that event once, and the handle records it for every
//! consumer; the facts no hook carries go to [`TraceHandle::emit`]. The
//! 16 events fall in 9 categories:
//!
//! | [`Category`] | events |
//! |---|---|
//! | `tb` | thread-block launch / retire |
//! | `kernel` | kernel-launch begin / end |
//! | `sync` | atomic issue, acquire invalidation sweeps, releases |
//! | `protocol` | word coherence-state transitions |
//! | `cache` | line evictions (with owned-word writeback counts) |
//! | `sb` | store-buffer drain begin / end |
//! | `mshr` | MSHR allocate / retire |
//! | `noc` | mesh message send (flits, hops) / deliver |
//! | `check` | conformance-checker violations |
//!
//! # Cost model
//!
//! Observation must never tax the unobserved hot path: a handle with no
//! consumer is a `None`, and an event is only constructed when a
//! consumer is installed — every hook and event site compiles to a
//! single predictable branch otherwise.
//!
//! # Consuming traces
//!
//! Implement [`TraceSink`] for streaming consumption (override the
//! hooks you read, or [`record`](TraceSink::record) for the events), or
//! use the bounded [`RingRecorder`] and export with [`to_chrome_json`]
//! for visual analysis in [Perfetto](https://ui.perfetto.dev) or
//! `chrome://tracing`. [`chrome_json`] also renders [`CounterTrack`]
//! time-series (the profiler's interval samples — IPC, hit rates,
//! occupancies) as Perfetto counter tracks alongside the events, and
//! [`JourneySpan`] request journeys (gsim-flow's sampled per-request
//! waterfalls) as per-journey span tracks with flow arrows:
//!
//! ```
//! use gsim_trace::{to_chrome_json, RingRecorder, RunShape, TraceEvent, TraceHandle};
//! use gsim_types::{NodeId, TbId};
//!
//! let handle = TraceHandle::new(RingRecorder::new(1 << 20));
//! // ... hand clones of `handle` to the simulator, run ...
//! handle.set_now(17);
//! handle.emit(|| TraceEvent::TbLaunch { tb: TbId(0), cu: NodeId(2) });
//! let shape = RunShape::new(16, 16, 15, 26); // the machine that ran
//! let json = to_chrome_json(&shape, &handle.recorder().unwrap().borrow());
//! assert!(json.contains("\"traceEvents\""));
//! ```

pub mod chrome;
pub mod event;
pub mod hook;
pub mod sink;

pub use chrome::{chrome_json, to_chrome_json, CounterTrack, JourneySpan};
pub use event::{Category, FlushReason, Level, TraceEvent, WState};
pub use hook::{
    IntervalSample, JourneyKind, RunEnd, RunShape, SampleRing, StallKind, DEFAULT_SAMPLE_INTERVAL,
    MAX_SAMPLES, NUM_STALL_KINDS, STALL_KINDS,
};
pub use sink::{RingRecorder, TraceHandle, TraceSink};
