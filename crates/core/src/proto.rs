//! Static dispatch over the two protocol families.
//!
//! The engine talks to "an L1" and "the L2"; these enums pick the GPU or
//! DeNovo controller once per run based on the [`ProtocolConfig`]
//! under study.

use gsim_mem::MemoryImage;
use gsim_protocol::denovo::DnConfig;
use gsim_protocol::{
    Action, DnL1, DnL2, GpuL1, GpuL2, Issue, L1Chassis, L1Config, L2Chassis, L2Config,
};
use gsim_trace::TraceHandle;
use gsim_types::{AtomicOp, Cycle, Msg, ProtocolConfig, Region, ReqId, SyncOrd, Value, WordAddr};

/// One node's private L1 controller.
#[derive(Debug)]
pub enum L1 {
    /// Conventional GPU coherence (GD, GH).
    Gpu(GpuL1),
    /// DeNovo coherence (DD, DD+RO, DH).
    Dn(DnL1),
}

impl L1 {
    /// Builds the right controller for `protocol`, reporting through
    /// `trace`.
    pub fn build(
        protocol: ProtocolConfig,
        l1: L1Config,
        dh_delayed: bool,
        sync_backoff: bool,
        trace: &TraceHandle,
    ) -> L1 {
        match protocol {
            ProtocolConfig::Gd | ProtocolConfig::Gh => {
                let mut c = GpuL1::new(l1);
                c.chassis_mut().set_trace(trace);
                L1::Gpu(c)
            }
            ProtocolConfig::Dd | ProtocolConfig::DdRo | ProtocolConfig::Dh => {
                let mut c = DnL1::new(DnConfig {
                    l1,
                    read_only_region: protocol.read_only_region(),
                    delayed_local_ownership: protocol == ProtocolConfig::Dh && dh_delayed,
                    sync_read_backoff: sync_backoff,
                });
                c.chassis_mut().set_trace(trace);
                L1::Dn(c)
            }
        }
    }

    /// The family-independent part of this L1: counters, occupancy
    /// gauges, audits and the leak-test hooks.
    pub fn chassis(&self) -> &dyn L1Chassis {
        match self {
            L1::Gpu(c) => c.chassis(),
            L1::Dn(c) => c.chassis(),
        }
    }

    /// Mutable access to [`chassis`](Self::chassis).
    pub fn chassis_mut(&mut self) -> &mut dyn L1Chassis {
        match self {
            L1::Gpu(c) => c.chassis_mut(),
            L1::Dn(c) => c.chassis_mut(),
        }
    }

    /// A demand load; its actions are appended to `out`.
    pub fn load(
        &mut self,
        word: WordAddr,
        region: Region,
        req: ReqId,
        out: &mut Vec<Action>,
    ) -> Issue {
        match self {
            L1::Gpu(c) => c.load(word, req, out),
            L1::Dn(c) => c.load(word, region, req, out),
        }
    }

    /// A data store; its actions are appended to `out`.
    pub fn store(&mut self, word: WordAddr, value: Value, out: &mut Vec<Action>) -> Issue {
        match self {
            L1::Gpu(c) => c.store(word, value, out),
            L1::Dn(c) => c.store(word, value, out),
        }
    }

    /// A synchronization access; `local` is the *effective* scope (false
    /// under DRF configurations). Its actions are appended to `out`.
    #[allow(clippy::too_many_arguments)]
    pub fn atomic(
        &mut self,
        word: WordAddr,
        op: AtomicOp,
        operands: [Value; 2],
        ord: SyncOrd,
        local: bool,
        req: ReqId,
        out: &mut Vec<Action>,
    ) -> Issue {
        match self {
            L1::Gpu(c) => c.atomic(word, op, operands, ord, local, req, out),
            L1::Dn(c) => c.atomic(word, op, operands, local, req, out),
        }
    }

    /// An acquire (self-invalidation).
    pub fn acquire(&mut self, local: bool) {
        match self {
            L1::Gpu(c) => c.acquire(local),
            L1::Dn(c) => c.acquire(local),
        }
    }

    /// A release (writethrough flush / registration drain); its actions
    /// are appended to `out`.
    pub fn release(&mut self, local: bool, req: ReqId, out: &mut Vec<Action>) -> Issue {
        match self {
            L1::Gpu(c) => c.release(local, req, out),
            L1::Dn(c) => c.release(local, req, out),
        }
    }

    /// Delivers a network message, appending the reactions to `out`.
    pub fn handle(&mut self, msg: &Msg, out: &mut Vec<Action>) {
        match self {
            L1::Gpu(c) => c.handle(msg, out),
            L1::Dn(c) => c.handle(msg, out),
        }
    }

    /// Whether nothing is in flight.
    pub fn quiesced(&self) -> bool {
        match self {
            L1::Gpu(c) => c.quiesced(),
            L1::Dn(c) => c.quiesced(),
        }
    }

    /// Registered words to drain into the memory image at end of run
    /// (empty for GPU coherence, which owns nothing).
    pub fn owned_words(&self) -> Vec<(WordAddr, Value)> {
        match self {
            L1::Gpu(_) => Vec::new(),
            L1::Dn(c) => c.owned_words(),
        }
    }

    /// Readable words that illegally survived a global acquire (checker
    /// hook; see the per-protocol definitions).
    pub fn post_acquire_residue(&self) -> u64 {
        match self {
            L1::Gpu(c) => c.post_acquire_residue(),
            L1::Dn(c) => c.post_acquire_residue(),
        }
    }

    /// Names every undrained resource for the end-of-run quiesce audit.
    pub fn quiesce_leaks(&self) -> Vec<String> {
        match self {
            L1::Gpu(c) => c.quiesce_leaks(),
            L1::Dn(c) => c.quiesce_leaks(),
        }
    }
}

/// The shared L2 (all banks).
#[derive(Debug)]
pub enum L2 {
    /// Conventional GPU shared cache.
    Gpu(GpuL2),
    /// DeNovo registry.
    Dn(DnL2),
}

impl L2 {
    /// Builds the right L2 for `protocol` over an initial memory image,
    /// reporting through `trace`.
    pub fn build(
        protocol: ProtocolConfig,
        config: L2Config,
        memory: MemoryImage,
        trace: &TraceHandle,
    ) -> L2 {
        match protocol {
            ProtocolConfig::Gd | ProtocolConfig::Gh => {
                let mut c = GpuL2::new(config, memory);
                c.chassis_mut().set_trace(trace);
                L2::Gpu(c)
            }
            _ => {
                let mut c = DnL2::new(config, memory);
                c.chassis_mut().set_trace(trace);
                L2::Dn(c)
            }
        }
    }

    /// The family-independent part of the L2: counters and the memory
    /// image.
    pub fn chassis(&self) -> &dyn L2Chassis {
        match self {
            L2::Gpu(c) => c.chassis(),
            L2::Dn(c) => c.chassis(),
        }
    }

    /// Mutable access to [`chassis`](Self::chassis).
    pub fn chassis_mut(&mut self) -> &mut dyn L2Chassis {
        match self {
            L2::Gpu(c) => c.chassis_mut(),
            L2::Dn(c) => c.chassis_mut(),
        }
    }

    /// Delivers a network message to the addressed bank, appending the
    /// reactions to `out`.
    pub fn handle(&mut self, now: Cycle, msg: &Msg, out: &mut Vec<Action>) {
        match self {
            L2::Gpu(c) => c.handle(now, msg, out),
            L2::Dn(c) => c.handle(now, msg, out),
        }
    }

    /// The registry's (word, owner) records — empty for the GPU L2,
    /// which has no registry. The checker compares this against the
    /// L1s' Registered words at end of run.
    pub fn registry_owners(&self) -> Vec<(WordAddr, gsim_types::NodeId)> {
        match self {
            L2::Gpu(_) => Vec::new(),
            L2::Dn(c) => c.registry_owners(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsim_types::NodeId;

    #[test]
    fn build_picks_the_family() {
        for p in ProtocolConfig::ALL {
            let off = TraceHandle::disabled();
            let l1 = L1::build(p, L1Config::micro15(NodeId(0)), false, false, &off);
            let l2 = L2::build(p, L2Config::default(), MemoryImage::new(), &off);
            let gpu = matches!(p, ProtocolConfig::Gd | ProtocolConfig::Gh);
            assert_eq!(matches!(l1, L1::Gpu(_)), gpu, "{p}");
            assert_eq!(matches!(l2, L2::Gpu(_)), gpu, "{p}");
        }
    }

    #[test]
    fn gpu_l1_owns_nothing() {
        let l1 = L1::build(
            ProtocolConfig::Gh,
            L1Config::micro15(NodeId(0)),
            false,
            false,
            &TraceHandle::disabled(),
        );
        assert!(l1.owned_words().is_empty());
        assert!(l1.quiesced());
    }
}
