//! Flow-observation parameters. A run is flow-observed when the
//! `ObserveSpec` it is given carries `Some(FlowSpec)`; `None` leaves
//! every hook one branch.

use gsim_types::Cycle;

/// Flow-observability parameters for one run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FlowSpec {
    /// Sampling period of the occupancy time-series, in cycles.
    pub interval: Cycle,
    /// Journey sampling period: every `journey_period`-th memory
    /// request (by issue order — request ids are minted densely, so
    /// this is deterministic and seed-stable) records a full per-hop
    /// journey. `1` traces every request.
    pub journey_period: u64,
}

impl Default for FlowSpec {
    fn default() -> Self {
        FlowSpec {
            interval: 1024,
            journey_period: 64,
        }
    }
}
