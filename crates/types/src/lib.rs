#![warn(missing_docs)]

//! Shared vocabulary for the `gpu-denovo` simulator.
//!
//! This crate defines the types every other `gsim-*` crate speaks:
//! word/line [addressing](addr), [node identifiers](ids), the
//! [synchronization attributes](sync) of the DRF and HRF consistency
//! models, the [coherence message taxonomy](msg), the five
//! [protocol configurations](config) studied by the paper, and the
//! [statistics counters](stats) behind every figure.
//!
//! The geometry constants match the paper's Table 3: 4-byte words and
//! 64-byte cache lines (16 words per line, like a sector cache — DeNovo
//! keeps *tags* at line granularity but *coherence state* at word
//! granularity).
//!
//! # Examples
//!
//! ```
//! use gsim_types::{Addr, WordAddr, LineAddr, WORDS_PER_LINE};
//!
//! let a = Addr(0x1040);
//! let w: WordAddr = a.word();
//! assert_eq!(w.index_in_line(), 0);
//! let l: LineAddr = a.line();
//! assert_eq!(l.word(0).addr(), Addr(0x1040));
//! assert_eq!(WORDS_PER_LINE, 16);
//! ```

pub mod addr;
pub mod config;
pub mod fxhash;
pub mod hist;
pub mod ids;
pub mod json;
pub mod msg;
pub mod region;
pub mod rng;
pub mod serial;
pub mod stats;
pub mod sync;

pub use addr::{Addr, LineAddr, WordAddr, WordMask, LINE_BYTES, WORDS_PER_LINE, WORD_BYTES};
pub use config::{Coherence, Consistency, ProtocolConfig};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use hist::{LatencyBreakdown, LatencyHistogram};
pub use ids::{Cycle, NodeId, ReqId, TbId};
pub use json::JsonValue;
pub use msg::{Component, Msg, MsgClass, MsgKind, CTRL_FLITS, FLIT_BYTES};
pub use region::RegionMap;
pub use rng::Rng64;
pub use stats::{Counts, EnergyBreakdown, SimStats, TrafficBreakdown};
pub use sync::{AtomicOp, Region, Scope, SyncOrd, Value};
