//! Whole-system configuration: the paper's Table 3 parameters plus the
//! protocol/consistency configuration under study.

use crate::equeue::QueueKind;
use gsim_check::CheckLevel;
use gsim_mem::CacheGeometry;
use gsim_noc::{MeshConfig, Topology, XLinkConfig};
use gsim_protocol::L2Config;
use gsim_trace::RunShape;
use gsim_types::{Cycle, ProtocolConfig};

/// Configuration of one simulated heterogeneous system.
///
/// [`SystemConfig::micro15`] reproduces the paper's Table 3: 15 GPU CUs
/// plus one (functional) CPU core on a 4x4 mesh, 32 KB 8-way L1s, a 4 MB
/// 16-bank NUCA L2, and 256-entry coalescing store buffers. The
/// interconnect, L2, and DRAM latencies are calibrated so the achieved
/// end-to-end latencies land in Table 3's ranges (asserted by this
/// crate's `latency_ranges` tests).
///
/// [`SystemConfig::fabric`] scales that system to several devices on a
/// shared fabric (see [`Topology`]): every device replicates the Table 3
/// mesh, L2 banks stripe line-interleaved across **all** devices'
/// nodes (so each line has a home device and cross-device lines pay the
/// inter-device link), and `gpu_cus` stays the *per-device* CU count.
///
/// # Examples
///
/// ```
/// use gsim_core::SystemConfig;
/// use gsim_types::ProtocolConfig;
///
/// let cfg = SystemConfig::micro15(ProtocolConfig::Dd);
/// assert_eq!(cfg.gpu_cus, 15);
/// assert_eq!(cfg.sb_entries, 256);
///
/// let two = SystemConfig::fabric(ProtocolConfig::Dd, 2, 40);
/// assert_eq!(two.topology.nodes(), 32);
/// assert_eq!(two.l2.banks, 32);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct SystemConfig {
    /// The protocol/consistency configuration under study (paper §5.3).
    pub protocol: ProtocolConfig,
    /// Fabric topology: per-device mesh geometry and link timing, the
    /// device count, and the inter-device link class.
    pub topology: Topology,
    /// Shared L2 sizing and timing (includes DRAM).
    pub l2: L2Config,
    /// Per-CU L1 geometry.
    pub l1_geometry: CacheGeometry,
    /// Store-buffer capacity in line entries.
    pub sb_entries: usize,
    /// Maximum outstanding miss lines per L1.
    pub mshr_entries: usize,
    /// Number of GPU compute units **per device** (the last node of each
    /// device's mesh hosts the CPU core / an L2 bank only).
    pub gpu_cus: usize,
    /// Resident thread blocks per CU (further blocks queue).
    pub tbs_per_cu: usize,
    /// DeNovo-H ablation: local sync ops delay obtaining ownership.
    pub dh_delayed_ownership: bool,
    /// DeNovoSync extension: exponential backoff on contended sync-read
    /// registrations (the paper's §3 omits it "for simplicity").
    pub denovo_sync_backoff: bool,
    /// Watchdog: abort the run after this many cycles.
    pub max_cycles: Cycle,
    /// Which event-queue implementation the engine schedules on. There
    /// is one kind, the calendar queue, which also serves schedule
    /// exploration; the field stays while gsim-perf (`perf/`) names it.
    pub event_queue: QueueKind,
    /// How much runtime conformance checking the run performs. Defaults
    /// to [`CheckLevel::Invariants`] in debug builds (so every test run
    /// is checked) and [`CheckLevel::Off`] in release builds (so
    /// benchmark throughput is unaffected). Checking never perturbs
    /// timing — only observes — so results are identical across levels.
    pub check: CheckLevel,
}

impl SystemConfig {
    /// The most L2 banks a system can have: each L1's home map names a
    /// bank with a `u8`.
    pub const MAX_L2_BANKS: usize = 255;

    /// The paper's Table 3 system running `protocol`.
    pub fn micro15(protocol: ProtocolConfig) -> Self {
        SystemConfig {
            protocol,
            topology: Topology::single(MeshConfig::default()),
            l2: L2Config::default(),
            l1_geometry: CacheGeometry::l1(),
            sb_entries: 256,
            mshr_entries: 32,
            gpu_cus: 15,
            tbs_per_cu: 3,
            dh_delayed_ownership: false,
            denovo_sync_backoff: false,
            max_cycles: 2_000_000_000,
            event_queue: QueueKind::Calendar,
            check: CheckLevel::default_for_build(),
        }
    }

    /// `devices` copies of the Table 3 system joined by inter-device
    /// links of `xlink_latency` cycles (default bandwidth class). L2
    /// banks stripe across every node of every device — line
    /// interleaved, so each line has a *home device* and ownership
    /// registration / flush / invalidate traffic to a remote home pays
    /// the inter-device link. Thread blocks are placed on device 0 by
    /// default (the workload generators' co-location contract is per
    /// device); cross-device workloads pin blocks explicitly via
    /// `TbSpec::on_cu`.
    ///
    /// `devices == 1` is exactly [`micro15`](Self::micro15).
    ///
    /// # Panics
    ///
    /// Panics if `devices` exceeds [`max_devices`](Self::max_devices).
    pub fn fabric(protocol: ProtocolConfig, devices: u8, xlink_latency: Cycle) -> Self {
        let mut config = SystemConfig::micro15(protocol);
        if devices <= 1 {
            return config;
        }
        let xlink = XLinkConfig {
            latency: xlink_latency,
            ..XLinkConfig::default()
        };
        config.topology = Topology::fabric(MeshConfig::default(), devices, xlink);
        let banks = config.topology.nodes();
        assert!(
            banks <= Self::MAX_L2_BANKS,
            "{banks} L2 banks exceed the u8 home map"
        );
        config.l2.banks = banks;
        config
    }

    /// The largest device count [`fabric`](Self::fabric) accepts: one
    /// L2 bank per node, so both the node id space and the home map
    /// bound it.
    pub fn max_devices() -> u8 {
        let limit = Self::MAX_L2_BANKS.min(Topology::MAX_NODES);
        (limit / MeshConfig::default().nodes()) as u8
    }

    /// The shape of the machine this configuration builds: its nodes,
    /// which of them host a CU, and the L2 service time. Views take it
    /// to size their per-node and per-CU tables.
    pub fn run_shape(&self) -> RunShape {
        RunShape::new(
            self.topology.nodes(),
            self.topology.nodes_per_device(),
            self.gpu_cus,
            self.l2.latency,
        )
    }

    /// The CU node a thread block is scheduled on by default — the fixed
    /// modulo mapping shared with the workload generators, so locally
    /// scoped workloads can co-locate the thread blocks that synchronize
    /// locally. Unpinned blocks always land on device 0 (whose CU nodes
    /// are `0..gpu_cus` in every topology); blocks pinned with
    /// `TbSpec::on_cu` override this per block.
    pub fn cu_of_tb(&self, tb: u32) -> usize {
        tb as usize % self.gpu_cus
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_parameters() {
        let c = SystemConfig::micro15(ProtocolConfig::Gd);
        assert_eq!(c.l1_geometry.size_bytes, 32 * 1024);
        assert_eq!(c.l1_geometry.ways, 8);
        assert_eq!(c.l2.bank_geometry.size_bytes * c.l2.banks as u64, 4 << 20);
        assert_eq!(c.topology.nodes(), 16);
        assert_eq!(c.tbs_per_cu, 3);
        // Release builds, and so every timed run, leave checking off.
        for p in ProtocolConfig::ALL {
            assert_eq!(
                SystemConfig::micro15(p).check,
                CheckLevel::default_for_build()
            );
        }
    }

    #[test]
    fn fabric_stripes_l2_banks_across_devices() {
        let c = SystemConfig::fabric(ProtocolConfig::Dd, 2, 40);
        assert_eq!(c.topology.devices, 2);
        assert_eq!(c.topology.nodes(), 32);
        assert_eq!(c.l2.banks, 32);
        assert_eq!(c.gpu_cus, 15, "gpu_cus stays per-device");
        assert_eq!(c.run_shape().cus(), 30);
        // One device falls back to the exact Table 3 system.
        let one = SystemConfig::fabric(ProtocolConfig::Dd, 1, 40);
        assert_eq!(
            one.topology,
            SystemConfig::micro15(ProtocolConfig::Dd).topology
        );
        assert_eq!(one.l2.banks, 16);
    }

    #[test]
    fn max_devices_is_the_largest_fabric_that_builds() {
        let max = SystemConfig::max_devices();
        assert_eq!(max, 15, "255 banks / 16 nodes per device");
        let c = SystemConfig::fabric(ProtocolConfig::Dd, max, 40);
        assert!(c.l2.banks <= SystemConfig::MAX_L2_BANKS);
        let over = std::panic::catch_unwind(|| {
            SystemConfig::fabric(ProtocolConfig::Dd, max + 1, 40);
        });
        assert!(over.is_err(), "one device more must not build");
    }

    #[test]
    fn tb_mapping_is_modulo() {
        let c = SystemConfig::micro15(ProtocolConfig::Dd);
        assert_eq!(c.cu_of_tb(0), 0);
        assert_eq!(c.cu_of_tb(15), 0);
        assert_eq!(c.cu_of_tb(16), 1);
        assert_eq!(c.cu_of_tb(44), 14);
        // The default mapping is identical on a fabric (device 0), so
        // every single-device workload's co-location survives unchanged.
        let f = SystemConfig::fabric(ProtocolConfig::Dd, 2, 40);
        for tb in 0..64 {
            assert_eq!(f.cu_of_tb(tb), c.cu_of_tb(tb));
        }
    }

    #[test]
    fn dense_cu_indices_skip_the_cpu_nodes() {
        let f = SystemConfig::fabric(ProtocolConfig::Dd, 2, 40).run_shape();
        assert_eq!(f.node_of(0), 0);
        assert_eq!(f.node_of(14), 14);
        assert_eq!(f.node_of(15), 16, "device 1's first CU skips node 15");
        assert_eq!(f.node_of(29), 30);
        let one = SystemConfig::micro15(ProtocolConfig::Dd).run_shape();
        assert_eq!(
            one.l2_latency,
            SystemConfig::micro15(ProtocolConfig::Dd).l2.latency
        );
        for cu in 0..one.cus() {
            assert_eq!(one.node_of(cu), cu, "identity on a single device");
        }
    }
}
