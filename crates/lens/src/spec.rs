//! Lens parameters. A run is lens-observed when the `ObserveSpec` it is
//! given carries `Some(LensSpec)`; `None` leaves every hook one branch.

/// Coherence-lifecycle observability parameters for one run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct LensSpec {
    /// How many of the hottest lines the per-line lifecycle table keeps
    /// (ranked by total lifecycle activity; ties break toward the lower
    /// line address, so the cut is deterministic).
    pub topk: usize,
}

impl Default for LensSpec {
    fn default() -> Self {
        LensSpec { topk: 32 }
    }
}
