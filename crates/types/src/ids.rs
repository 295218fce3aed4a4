//! Identifiers for nodes, requests, thread blocks, and simulated time.

use std::fmt;

/// Simulated time, in GPU clock cycles (700 MHz in the paper's Table 3).
pub type Cycle = u64;

/// A network-node identifier on the mesh (or fabric of meshes).
///
/// The modelled system (paper Figure 1) places one L1 cache and one bank of
/// the shared NUCA L2 at each of 16 nodes; nodes `0..15` host GPU compute
/// units (with scratchpads) and node `15` hosts the single CPU core. Which
/// nodes of a run host a CU is its `gsim_trace::RunShape`'s to say.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u8);

impl NodeId {
    /// The CPU core's node in the baseline system.
    pub const CPU: NodeId = NodeId(15);

    /// This node's index as a `usize` (for array indexing).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == NodeId::CPU {
            write!(f, "cpu")
        } else {
            write!(f, "cu{}", self.0)
        }
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A unique transaction identifier minted by the simulation engine.
///
/// Every core-initiated memory operation that can block a thread block
/// (loads, atomics, fences/releases) carries a `ReqId`; protocol controllers
/// echo it back in completion actions so the engine can resume the right
/// thread block.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ReqId(pub u64);

impl fmt::Debug for ReqId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "req#{}", self.0)
    }
}

/// A thread-block identifier, global across the kernel launch.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TbId(pub u32);

impl fmt::Debug for TbId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tb{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_roles() {
        assert_eq!(format!("{:?}", NodeId(3)), "cu3");
        assert_eq!(format!("{:?}", NodeId::CPU), "cpu");
    }
}
