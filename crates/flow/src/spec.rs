//! Flow-observation parameters. A run is flow-observed when the
//! `ObserveSpec` it is given carries `Some(FlowSpec)`; `None` leaves
//! every hook one branch. The occupancy time-series samples on the
//! engine's one clock, `ObserveSpec::interval`.

/// Flow-observability parameters for one run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FlowSpec {
    /// Journey sampling period: every `journey_period`-th memory
    /// request (by issue order — request ids are minted densely, so
    /// this is deterministic and seed-stable) records a full per-hop
    /// journey. `1` traces every request.
    pub journey_period: u64,
}

impl Default for FlowSpec {
    fn default() -> Self {
        FlowSpec { journey_period: 64 }
    }
}
