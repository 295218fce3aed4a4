//! The workload interface: what a benchmark gives the simulator.
//!
//! A [`Workload`] is a host-side memory initializer (the paper's
//! functionally simulated CPU), a sequence of [`KernelLaunch`]es, and a
//! verifier that checks the final memory image — simulation here is
//! functional *and* timed, so a coherence bug breaks the run rather than
//! silently skewing the numbers.

use crate::kernel::{Program, NUM_REGS};
use gsim_mem::MemoryImage;
use gsim_types::Value;
use std::sync::Arc;

/// Initial state of one thread block.
#[derive(Clone, Debug)]
pub struct TbSpec {
    /// Initial register file (thread-block id, base pointers, sizes —
    /// whatever the kernel expects).
    pub regs: [Value; NUM_REGS],
    /// Scratchpad words allocated to this thread block.
    pub scratch_words: usize,
    /// Explicit CU placement: a *dense* CU index (`device * gpu_cus +
    /// local CU`, see `gsim_trace::RunShape::node_of`). `None` (the default)
    /// follows the `tb % gpu_cus` mapping, which always lands on device
    /// 0 — cross-device workloads pin their remote blocks with
    /// [`on_cu`](Self::on_cu).
    pub cu: Option<usize>,
}

impl TbSpec {
    /// A spec with the given leading registers set and no scratchpad.
    ///
    /// # Panics
    ///
    /// Panics if more than [`NUM_REGS`] values are given.
    pub fn with_regs(values: &[Value]) -> Self {
        assert!(values.len() <= NUM_REGS, "too many initial registers");
        let mut regs = [0; NUM_REGS];
        regs[..values.len()].copy_from_slice(values);
        TbSpec {
            regs,
            scratch_words: 0,
            cu: None,
        }
    }

    /// Adds a scratchpad allocation.
    pub fn scratch(mut self, words: usize) -> Self {
        self.scratch_words = words;
        self
    }

    /// Pins the block to dense CU index `cu` (device `cu / gpu_cus`,
    /// local CU `cu % gpu_cus`).
    pub fn on_cu(mut self, cu: usize) -> Self {
        self.cu = Some(cu);
        self
    }
}

/// One GPU kernel launch: a program and its grid of thread blocks.
///
/// Thread block `i` is scheduled on CU `i % gpu_cus`
/// ([`SystemConfig::cu_of_tb`](crate::SystemConfig::cu_of_tb)), so
/// workloads with locally scoped synchronization can co-locate the
/// blocks that synchronize; a block carrying [`TbSpec::cu`] overrides
/// the mapping (how multi-device workloads place blocks off device 0).
#[derive(Clone, Debug)]
pub struct KernelLaunch {
    /// The kernel body, shared by every thread block.
    pub program: Arc<Program>,
    /// One spec per thread block, in thread-block-id order.
    pub tbs: Vec<TbSpec>,
}

/// A complete benchmark: initialization, kernels, verification.
pub struct Workload {
    /// Display name (Table 4's abbreviation, e.g. `"SPM_L"`).
    pub name: String,
    /// Host-side input initialization (untimed, like the paper's
    /// functional CPU).
    pub init: Box<dyn Fn(&mut MemoryImage) + Send + Sync>,
    /// Kernel launches, run back to back with the usual GPU coherence
    /// actions at the boundaries (acquire at launch, release at end).
    pub kernels: Vec<KernelLaunch>,
    /// Checks the final memory image; `Err` describes the mismatch.
    #[allow(clippy::type_complexity)]
    pub verify: Box<dyn Fn(&MemoryImage) -> Result<(), String> + Send + Sync>,
}

impl std::fmt::Debug for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Workload")
            .field("name", &self.name)
            .field("kernels", &self.kernels.len())
            .field(
                "total_tbs",
                &self.kernels.iter().map(|k| k.tbs.len()).sum::<usize>(),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tb_spec_builders() {
        let s = TbSpec::with_regs(&[1, 2, 3]).scratch(64);
        assert_eq!(s.regs[0..4], [1, 2, 3, 0]);
        assert_eq!(s.scratch_words, 64);
    }

    #[test]
    #[should_panic(expected = "too many")]
    fn overlong_regs_panic() {
        let _ = TbSpec::with_regs(&[0; NUM_REGS + 1]);
    }
}
