//! Statistics: everything behind the paper's figures.
//!
//! Each figure reports three metrics per benchmark and configuration:
//! execution time (cycles), dynamic energy split into five components
//! ([`EnergyBreakdown`]), and network traffic in flit crossings split into
//! four classes ([`TrafficBreakdown`]). [`Counts`] holds the raw event
//! counters every component increments during simulation; the energy model
//! (crate `gsim-energy`) converts counts into an [`EnergyBreakdown`].

use crate::hist::LatencyBreakdown;
use crate::msg::MsgClass;
use std::fmt;
use std::ops::AddAssign;

/// Network traffic in flit crossings (flits x links traversed), by class.
///
/// This is the paper's Figure 2c/3c/4c metric.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TrafficBreakdown {
    /// Flit crossings per [`MsgClass`], indexed by [`MsgClass::index`].
    pub flit_crossings: [u64; 4],
}

impl TrafficBreakdown {
    /// Records `flits` flits traversing `hops` links for class `class`.
    #[inline]
    pub fn record(&mut self, class: MsgClass, flits: u32, hops: u32) {
        self.flit_crossings[class.index()] += flits as u64 * hops as u64;
    }

    /// Flit crossings for one class.
    #[inline]
    pub fn class(&self, class: MsgClass) -> u64 {
        self.flit_crossings[class.index()]
    }

    /// Total flit crossings across all classes.
    pub fn total(&self) -> u64 {
        self.flit_crossings.iter().sum()
    }
}

impl AddAssign for TrafficBreakdown {
    fn add_assign(&mut self, rhs: Self) {
        for i in 0..4 {
            self.flit_crossings[i] += rhs.flit_crossings[i];
        }
    }
}

/// Dynamic energy by component, in picojoules.
///
/// This is the paper's Figure 2b/3b/4b breakdown: "GPU core+" (instruction
/// cache, register file, FPU, scheduler, pipeline), scratchpad, L1 data
/// cache, L2 cache, and network. The CPU core is functionally simulated
/// and carries no energy, exactly as in the paper.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// GPU core+ (pipeline, register file, scheduler, FPU, i-cache).
    pub core_pj: f64,
    /// Scratchpad accesses.
    pub scratch_pj: f64,
    /// L1 data cache accesses (including flash-invalidate operations).
    pub l1_pj: f64,
    /// L2 cache/registry bank accesses.
    pub l2_pj: f64,
    /// Network routers and links, per flit-hop.
    pub noc_pj: f64,
}

impl EnergyBreakdown {
    /// Total dynamic energy in picojoules.
    pub fn total_pj(&self) -> f64 {
        self.core_pj + self.scratch_pj + self.l1_pj + self.l2_pj + self.noc_pj
    }
}

impl AddAssign for EnergyBreakdown {
    fn add_assign(&mut self, rhs: Self) {
        self.core_pj += rhs.core_pj;
        self.scratch_pj += rhs.scratch_pj;
        self.l1_pj += rhs.l1_pj;
        self.l2_pj += rhs.l2_pj;
        self.noc_pj += rhs.noc_pj;
    }
}

/// Raw event counters incremented by the simulator's components.
///
/// All counters are totals across the whole run (all kernels).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Instructions interpreted by thread blocks (all kinds).
    pub instructions: u64,
    /// Cycles during which at least one thread block was resident on a CU.
    pub cu_active_cycles: u64,
    /// L1 data-cache accesses (tag + data array), loads and stores.
    pub l1_accesses: u64,
    /// L1 load hits.
    pub l1_load_hits: u64,
    /// L1 load misses.
    pub l1_load_misses: u64,
    /// Stores that hit an owned (registered/dirty) word in the L1.
    pub l1_store_hits: u64,
    /// Atomic operations performed at an L1.
    pub l1_atomics: u64,
    /// Atomic operations that hit (registered word / local scope) at an L1.
    pub l1_atomic_hits: u64,
    /// Scratchpad accesses.
    pub scratch_accesses: u64,
    /// L2 bank accesses (data or registry operations).
    pub l2_accesses: u64,
    /// Atomic operations performed at an L2 bank.
    pub l2_atomics: u64,
    /// DRAM line reads.
    pub dram_reads: u64,
    /// DRAM line writes.
    pub dram_writes: u64,
    /// Words invalidated by acquire-induced self-invalidation.
    pub words_invalidated: u64,
    /// Full-cache flash invalidations (GPU acquires).
    pub flash_invalidations: u64,
    /// Store-buffer entries flushed because the buffer was full.
    pub sb_overflow_flushes: u64,
    /// Store-buffer entries flushed at releases/kernel boundaries.
    pub sb_release_flushes: u64,
    /// Ownership (registration) requests issued by L1s.
    pub registrations: u64,
    /// Registration requests forwarded to a remote owner L1 (extra hop).
    pub reg_forwards: u64,
    /// Registration forwards that queued at a pending owner (the
    /// DeNovoSync0 distributed queue).
    pub reg_queued: u64,
    /// Owned words written back on L1 eviction.
    pub ownership_writebacks: u64,
    /// Owned words whose registry entries spilled to the registry
    /// overflow table on an L2 bank eviction (see DESIGN.md §6).
    pub registry_overflow_words: u64,
    /// Messages injected into the network.
    pub messages_sent: u64,
    /// Flit-hops traversed (total, all classes).
    pub flit_hops: u64,
}

impl Counts {
    /// L1 load hit rate in `[0, 1]`; `None` when there were no loads.
    pub fn l1_load_hit_rate(&self) -> Option<f64> {
        let total = self.l1_load_hits + self.l1_load_misses;
        (total > 0).then(|| self.l1_load_hits as f64 / total as f64)
    }

    /// Fraction of L1 atomics that hit; `None` when there were none.
    pub fn l1_atomic_hit_rate(&self) -> Option<f64> {
        (self.l1_atomics > 0).then(|| self.l1_atomic_hits as f64 / self.l1_atomics as f64)
    }
}

impl AddAssign for Counts {
    fn add_assign(&mut self, rhs: Self) {
        self.instructions += rhs.instructions;
        self.cu_active_cycles += rhs.cu_active_cycles;
        self.l1_accesses += rhs.l1_accesses;
        self.l1_load_hits += rhs.l1_load_hits;
        self.l1_load_misses += rhs.l1_load_misses;
        self.l1_store_hits += rhs.l1_store_hits;
        self.l1_atomics += rhs.l1_atomics;
        self.l1_atomic_hits += rhs.l1_atomic_hits;
        self.scratch_accesses += rhs.scratch_accesses;
        self.l2_accesses += rhs.l2_accesses;
        self.l2_atomics += rhs.l2_atomics;
        self.dram_reads += rhs.dram_reads;
        self.dram_writes += rhs.dram_writes;
        self.words_invalidated += rhs.words_invalidated;
        self.flash_invalidations += rhs.flash_invalidations;
        self.sb_overflow_flushes += rhs.sb_overflow_flushes;
        self.sb_release_flushes += rhs.sb_release_flushes;
        self.registrations += rhs.registrations;
        self.reg_forwards += rhs.reg_forwards;
        self.reg_queued += rhs.reg_queued;
        self.ownership_writebacks += rhs.ownership_writebacks;
        self.registry_overflow_words += rhs.registry_overflow_words;
        self.messages_sent += rhs.messages_sent;
        self.flit_hops += rhs.flit_hops;
    }
}

/// Results of a complete simulation run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SimStats {
    /// Execution time in GPU cycles (kernel launch to completion, summed
    /// over all kernels).
    pub cycles: u64,
    /// Raw event counters.
    pub counts: Counts,
    /// Network traffic by class.
    pub traffic: TrafficBreakdown,
    /// Dynamic energy by component (filled by the energy model).
    pub energy: EnergyBreakdown,
    /// Latency histograms (always recorded; see [`LatencyBreakdown`]).
    pub latency: LatencyBreakdown,
}

impl fmt::Display for SimStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "cycles: {}", self.cycles)?;
        writeln!(
            f,
            "traffic (flit crossings): total {} [read {} / reg {} / wb-wt {} / atomics {}]",
            self.traffic.total(),
            self.traffic.class(MsgClass::Read),
            self.traffic.class(MsgClass::Registration),
            self.traffic.class(MsgClass::WbWt),
            self.traffic.class(MsgClass::Atomic),
        )?;
        writeln!(
            f,
            "energy (nJ): total {:.1} [core {:.1} / scratch {:.1} / l1 {:.1} / l2 {:.1} / noc {:.1}]",
            self.energy.total_pj() / 1e3,
            self.energy.core_pj / 1e3,
            self.energy.scratch_pj / 1e3,
            self.energy.l1_pj / 1e3,
            self.energy.l2_pj / 1e3,
            self.energy.noc_pj / 1e3,
        )?;
        write!(
            f,
            "l1 load hit rate: {}, l1 atomic hit rate: {}",
            match self.counts.l1_load_hit_rate() {
                Some(r) => format!("{:.1}%", r * 100.0),
                None => "n/a".to_string(),
            },
            match self.counts.l1_atomic_hit_rate() {
                Some(r) => format!("{:.1}%", r * 100.0),
                None => "n/a".to_string(),
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_accounting() {
        let mut t = TrafficBreakdown::default();
        t.record(MsgClass::Read, 5, 3);
        t.record(MsgClass::Atomic, 1, 6);
        t.record(MsgClass::Read, 2, 0); // local delivery crosses no links
        assert_eq!(t.class(MsgClass::Read), 15);
        assert_eq!(t.class(MsgClass::Atomic), 6);
        assert_eq!(t.total(), 21);
        let mut u = t;
        u += t;
        assert_eq!(u.total(), 42);
    }

    #[test]
    fn energy_totals() {
        let e = EnergyBreakdown {
            core_pj: 1.0,
            scratch_pj: 2.0,
            l1_pj: 3.0,
            l2_pj: 4.0,
            noc_pj: 5.0,
        };
        assert_eq!(e.total_pj(), 15.0);
        let mut f = e;
        f += e;
        assert_eq!(f.total_pj(), 30.0);
    }

    #[test]
    fn hit_rates() {
        let mut c = Counts::default();
        assert!(c.l1_load_hit_rate().is_none());
        assert!(c.l1_atomic_hit_rate().is_none());
        c.l1_load_hits = 3;
        c.l1_load_misses = 1;
        c.l1_atomics = 10;
        c.l1_atomic_hits = 9;
        assert_eq!(c.l1_load_hit_rate(), Some(0.75));
        assert_eq!(c.l1_atomic_hit_rate(), Some(0.9));
    }

    #[test]
    fn counts_aggregate() {
        let mut a = Counts {
            instructions: 5,
            flit_hops: 7,
            ..Counts::default()
        };
        let b = Counts {
            instructions: 2,
            reg_queued: 4,
            ..Counts::default()
        };
        a += b;
        assert_eq!(a.instructions, 7);
        assert_eq!(a.reg_queued, 4);
        assert_eq!(a.flit_hops, 7);
    }

    #[test]
    fn stats_display_mentions_key_fields() {
        let s = SimStats {
            cycles: 42,
            ..SimStats::default()
        };
        let txt = s.to_string();
        assert!(txt.contains("cycles: 42"));
        assert!(txt.contains("flit crossings"));
        assert!(txt.contains("n/a"));
    }
}
