//! Static dispatch over the two protocol families.
//!
//! The engine talks to "an L1" and "the L2"; these enums pick the GPU or
//! DeNovo controller once per run based on the [`ProtocolConfig`]
//! under study.

use gsim_mem::MemoryImage;
use gsim_protocol::denovo::DnConfig;
use gsim_protocol::{Action, DnL1, DnL2, GpuL1, GpuL2, Issue, L1Config, L2Config};
use gsim_trace::TraceHandle;
use gsim_types::{
    AtomicOp, Counts, Cycle, Msg, ProtocolConfig, Region, ReqId, SyncOrd, Value, WordAddr,
};

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
                c.set_trace(trace);
                L1::Gpu(c)
            }
            ProtocolConfig::Dd | ProtocolConfig::DdRo | ProtocolConfig::Dh => {
                let mut c = DnL1::new(DnConfig {
                    l1,
                    read_only_region: protocol.read_only_region(),
                    delayed_local_ownership: protocol == ProtocolConfig::Dh && dh_delayed,
                    sync_read_backoff: sync_backoff,
                });
                c.set_trace(trace);
                L1::Dn(c)
            }
        }
    }

    /// Store-buffer entries currently occupied (profiler gauge).
    pub fn sb_occupancy(&self) -> usize {
        match self {
            L1::Gpu(c) => c.sb_occupancy(),
            L1::Dn(c) => c.sb_occupancy(),
        }
    }

    /// MSHR lines currently outstanding (profiler gauge).
    pub fn mshr_outstanding(&self) -> usize {
        match self {
            L1::Gpu(c) => c.mshr_outstanding(),
            L1::Dn(c) => c.mshr_outstanding(),
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

    /// Event counters.
    pub fn counts(&self) -> &Counts {
        match self {
            L1::Gpu(c) => c.counts(),
            L1::Dn(c) => c.counts(),
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

    /// Words whose valid and owned masks overlap (checker hook; always
    /// zero with the current line representation).
    pub fn state_mask_overlaps(&self) -> u64 {
        match self {
            L1::Gpu(c) => c.state_mask_overlaps(),
            L1::Dn(c) => c.state_mask_overlaps(),
        }
    }

    /// Store-buffer entries currently pending (line, dirty mask).
    pub fn sb_entries(&self) -> Vec<(gsim_types::LineAddr, gsim_types::WordMask)> {
        match self {
            L1::Gpu(c) => c.sb_entries(),
            L1::Dn(c) => c.sb_entries(),
        }
    }

    /// Names every undrained resource for the end-of-run quiesce audit.
    pub fn quiesce_leaks(&self) -> Vec<String> {
        match self {
            L1::Gpu(c) => c.quiesce_leaks(),
            L1::Dn(c) => c.quiesce_leaks(),
        }
    }

    /// Test-only: plants an MSHR entry that never completes.
    #[doc(hidden)]
    pub fn debug_leak_mshr_entry(&mut self, line: gsim_types::LineAddr) {
        match self {
            L1::Gpu(c) => c.debug_leak_mshr_entry(line),
            L1::Dn(c) => c.debug_leak_mshr_entry(line),
        }
    }

    /// Test-only: plants an undrainable store-buffer word.
    #[doc(hidden)]
    pub fn debug_leak_sb_word(&mut self, word: WordAddr, value: Value) {
        match self {
            L1::Gpu(c) => c.debug_leak_sb_word(word, value),
            L1::Dn(c) => c.debug_leak_sb_word(word, value),
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
                c.set_trace(trace);
                L2::Gpu(c)
            }
            _ => {
                let mut c = DnL2::new(config, memory);
                c.set_trace(trace);
                L2::Dn(c)
            }
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

    /// Event counters.
    pub fn counts(&self) -> &Counts {
        match self {
            L2::Gpu(c) => c.counts(),
            L2::Dn(c) => c.counts(),
        }
    }

    /// The functional memory image.
    pub fn memory(&self) -> &MemoryImage {
        match self {
            L2::Gpu(c) => c.memory(),
            L2::Dn(c) => c.memory(),
        }
    }

    /// Mutable access (initialization and the end-of-run drain).
    pub fn memory_mut(&mut self) -> &mut MemoryImage {
        match self {
            L2::Gpu(c) => c.memory_mut(),
            L2::Dn(c) => c.memory_mut(),
        }
    }

    /// Flushes dirty L2 words into the memory image.
    pub fn flush_to_memory(&mut self) {
        match self {
            L2::Gpu(c) => c.flush_to_memory(),
            L2::Dn(c) => c.flush_to_memory(),
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
