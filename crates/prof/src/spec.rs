//! Profiling parameters. A run is profiled when the `ObserveSpec` it is
//! given carries `Some(ProfSpec)`; `None` leaves every hook one branch.

use gsim_types::Cycle;

/// Capacity of each space-saving hot-line sketch (one per L1, one at
/// the L2 registry). Any line whose true event count exceeds
/// `total / SKETCH_LINES` is guaranteed to be present.
pub const SKETCH_LINES: usize = 64;

/// Profiling parameters for one run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ProfSpec {
    /// Sampling period of the interval time-series, in cycles.
    pub interval: Cycle,
}

impl Default for ProfSpec {
    fn default() -> Self {
        ProfSpec { interval: 1024 }
    }
}
