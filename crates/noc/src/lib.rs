#![warn(missing_docs)]

//! On-chip/inter-device network model: one or more 2D meshes with XY
//! dimension-order routing, joined into a fabric by inter-device links,
//! with per-link serialization and per-class flit-crossing accounting.
//!
//! This is the Garnet substitute of the `gpu-denovo` simulator (paper
//! §5.2). Each mesh node hosts a GPU CU or the CPU core plus one bank of
//! the shared L2 (paper Figure 1; 4x4 by default). Messages are
//! wormhole-style multi-flit packets; each directed link carries one flit
//! per `cycles_per_flit` cycles, so a message of `f` flits occupies a
//! link for `f x cpf` cycles and contends with other traffic
//! ([`Mesh::send`] models this with per-link next-free times).
//!
//! A [`Topology`] composes `devices` identical meshes: node ids are
//! global (`device * mesh.nodes() + local`), each device's local node 0
//! is its gateway, and gateways are fully connected by inter-device
//! links with their own latency/bandwidth class ([`XLinkConfig`]).
//! Routing is hierarchical: XY within the source mesh to its gateway,
//! one gateway-to-gateway crossing, then XY within the destination mesh
//! — so a single-device topology routes exactly as the original mesh.
//!
//! The network-traffic metric of the paper's figures — flit crossings by
//! message class — is accumulated in [`Mesh::traffic`].
//!
//! # Examples
//!
//! ```
//! use gsim_noc::{Mesh, MeshConfig};
//! use gsim_types::{Msg, MsgKind, Component, NodeId, LineAddr, WordMask};
//!
//! let mut mesh = Mesh::new(MeshConfig::default());
//! let msg = Msg {
//!     src: NodeId(0), dst: NodeId(15), dst_comp: Component::L2,
//!     kind: MsgKind::ReadReq {
//!         line: LineAddr(0), mask: WordMask::full(), requester: NodeId(0),
//!     },
//! };
//! let arrival = mesh.send(100, &msg);
//! assert!(arrival > 100);
//! assert_eq!(mesh.traffic().total(), 6); // 1 flit x 6 hops (corner to corner)
//! ```
//!
//! Two devices, with the cross-device link paid once:
//!
//! ```
//! use gsim_noc::{Mesh, MeshConfig, Topology, XLinkConfig};
//! use gsim_types::{Msg, MsgKind, Component, NodeId, LineAddr, WordMask};
//!
//! let t = Topology::fabric(MeshConfig::default(), 2, XLinkConfig::default());
//! assert_eq!(t.nodes(), 32);
//! assert_eq!(t.gateway(1), NodeId(16));
//! // 5 -> 20 routes through both gateways: 5 -> 4 -> 0 on device 0, the
//! // inter-device link 0 -> 16, then 16 -> 20 on device 1.
//! assert_eq!(t.hops(NodeId(5), NodeId(20)), 4);
//! let mut mesh = Mesh::with_topology(t);
//! let msg = Msg {
//!     src: NodeId(5), dst: NodeId(20), dst_comp: Component::L2,
//!     kind: MsgKind::ReadReq {
//!         line: LineAddr(4), mask: WordMask::full(), requester: NodeId(5),
//!     },
//! };
//! mesh.send(0, &msg);
//! assert_eq!(mesh.traffic().total(), 4); // 1 flit x 4 hops
//! ```

use gsim_trace::TraceHandle;
use gsim_types::{Cycle, Msg, NodeId, TrafficBreakdown};

/// Mesh geometry and timing parameters.
///
/// Defaults model the paper's 4x4 mesh with timing calibrated so the
/// end-to-end latencies land in Table 3's ranges (L2 hits 29-61 cycles
/// round trip, remote L1 hits 35-83 cycles — asserted by tests in
/// `gsim-core`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MeshConfig {
    /// Mesh columns.
    pub cols: u8,
    /// Mesh rows.
    pub rows: u8,
    /// Cycles for a flit to traverse one link (wire + downstream router).
    pub hop_latency: Cycle,
    /// Cycles spent in the injecting router before the first link.
    pub router_latency: Cycle,
}

impl Default for MeshConfig {
    fn default() -> Self {
        MeshConfig {
            cols: 4,
            rows: 4,
            hop_latency: 2,
            router_latency: 1,
        }
    }
}

impl MeshConfig {
    /// A non-default geometry with the default timing.
    pub fn grid(cols: u8, rows: u8) -> Self {
        MeshConfig {
            cols,
            rows,
            ..MeshConfig::default()
        }
    }

    /// Total node count.
    pub fn nodes(&self) -> usize {
        self.cols as usize * self.rows as usize
    }

    /// (x, y) coordinates of a node (row-major numbering).
    ///
    /// # Panics
    ///
    /// Panics if `node` is not on this mesh.
    fn coords(&self, node: NodeId) -> (u8, u8) {
        assert!(
            (node.0 as usize) < self.nodes(),
            "node {node} not on a {}x{} mesh",
            self.cols,
            self.rows
        );
        (node.0 % self.cols, node.0 / self.cols)
    }

    /// The node at (x, y) — the inverse of [`coords`](Self::coords).
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are off the mesh.
    #[cfg(test)]
    fn node_at(&self, x: u8, y: u8) -> NodeId {
        assert!(x < self.cols && y < self.rows, "({x}, {y}) off the mesh");
        NodeId(y * self.cols + x)
    }

    /// Manhattan (hop) distance between two nodes.
    pub fn hops(&self, a: NodeId, b: NodeId) -> u32 {
        let (ax, ay) = self.coords(a);
        let (bx, by) = self.coords(b);
        (ax.abs_diff(bx) + ay.abs_diff(by)) as u32
    }

    /// Uncontended arrival delta of a `flits`-flit message from `src` to
    /// `dst`: exactly what [`Mesh::send`] returns on an idle
    /// single-device mesh, as a latency rather than an absolute cycle.
    /// The tests' reference for `send`.
    #[cfg(test)]
    fn base_latency(&self, src: NodeId, dst: NodeId, flits: u32) -> Cycle {
        let hops = self.hops(src, dst) as Cycle;
        let tail = if hops > 0 { flits as Cycle - 1 } else { 0 };
        self.router_latency + hops * self.hop_latency + tail
    }

    /// The XY dimension-order route from `src` to `dst`, as the sequence
    /// of nodes visited (excluding `src`, including `dst`). Empty when
    /// `src == dst`.
    #[cfg(test)]
    fn route(&self, src: NodeId, dst: NodeId) -> Vec<NodeId> {
        let mut path = Vec::new();
        self.route_into(src, dst, 0, &mut path);
        path
    }

    /// Appends the XY route `src -> dst` to `path`, with every node id
    /// offset by `base` (how a fabric route embeds a device's mesh).
    fn route_into(&self, src: NodeId, dst: NodeId, base: usize, path: &mut Vec<NodeId>) {
        let (mut x, mut y) = self.coords(src);
        let (dx, dy) = self.coords(dst);
        while x != dx {
            x = if dx > x { x + 1 } else { x - 1 };
            path.push(NodeId((base + (y * self.cols + x) as usize) as u8));
        }
        while y != dy {
            y = if dy > y { y + 1 } else { y - 1 };
            path.push(NodeId((base + (y * self.cols + x) as usize) as u8));
        }
    }
}

/// Timing of one inter-device (gateway-to-gateway) link.
///
/// Modelled on PCIe/NVLink-class interconnects relative to the on-chip
/// mesh: an order of magnitude more latency and a fraction of the
/// per-flit bandwidth.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct XLinkConfig {
    /// Cycles for a flit to traverse the inter-device link.
    pub latency: Cycle,
    /// Cycles of link occupancy per flit (the mesh's links carry one
    /// flit per cycle; inter-device links are narrower). Values below 1
    /// are treated as 1.
    pub cycles_per_flit: Cycle,
}

impl Default for XLinkConfig {
    fn default() -> Self {
        XLinkConfig {
            latency: 40,
            cycles_per_flit: 4,
        }
    }
}

impl XLinkConfig {
    /// The occupancy multiplier, floored at one cycle per flit.
    fn cpf(&self) -> Cycle {
        self.cycles_per_flit.max(1)
    }
}

/// A fabric of `devices` identical meshes joined by inter-device links.
///
/// Node ids are global: device `d`'s local node `l` is
/// `d * mesh.nodes() + l`. Each device's local node 0 is its *gateway*;
/// gateways are fully connected by [`XLinkConfig`]-class links, and a
/// cross-device route is `src ->(XY) gateway(src dev) ->(xlink)
/// gateway(dst dev) ->(XY) dst`. A `devices == 1` topology is exactly
/// the original single mesh: same routes, same latencies, same link
/// arithmetic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Topology {
    /// Per-device mesh geometry and on-chip timing.
    pub mesh: MeshConfig,
    /// Number of devices (>= 1).
    pub devices: u8,
    /// Inter-device link class (unused when `devices == 1`).
    pub xlink: XLinkConfig,
}

impl Default for Topology {
    fn default() -> Self {
        Topology::single(MeshConfig::default())
    }
}

impl Topology {
    /// A single-device topology: the plain mesh.
    pub fn single(mesh: MeshConfig) -> Self {
        Topology {
            mesh,
            devices: 1,
            xlink: XLinkConfig::default(),
        }
    }

    /// The most nodes a fabric can have: node ids are a `u8`.
    pub const MAX_NODES: usize = 256;

    /// A multi-device fabric.
    ///
    /// # Panics
    ///
    /// Panics if `devices` is zero or the global node count would not
    /// fit a `NodeId` (`devices * mesh.nodes() > MAX_NODES`).
    pub fn fabric(mesh: MeshConfig, devices: u8, xlink: XLinkConfig) -> Self {
        assert!(devices >= 1, "a fabric needs at least one device");
        assert!(
            devices as usize * mesh.nodes() <= Self::MAX_NODES,
            "{} devices x {} nodes exceeds the {}-node id space",
            devices,
            mesh.nodes(),
            Self::MAX_NODES
        );
        Topology {
            mesh,
            devices,
            xlink,
        }
    }

    /// Nodes per device.
    pub fn nodes_per_device(&self) -> usize {
        self.mesh.nodes()
    }

    /// Total node count across all devices.
    pub fn nodes(&self) -> usize {
        self.devices as usize * self.mesh.nodes()
    }

    /// The device a global node belongs to.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not on this topology.
    fn device_of(&self, node: NodeId) -> u8 {
        assert!(
            (node.0 as usize) < self.nodes(),
            "node {node} not on a {}-device fabric of {} nodes each",
            self.devices,
            self.mesh.nodes()
        );
        (node.0 as usize / self.mesh.nodes()) as u8
    }

    /// A global node's local id within its device's mesh.
    pub fn local(&self, node: NodeId) -> NodeId {
        self.device_of(node); // range check
        NodeId((node.0 as usize % self.mesh.nodes()) as u8)
    }

    /// The global node id of device `dev`'s local node `local` — the
    /// inverse of ([`device_of`](Self::device_of), [`local`](Self::local)).
    ///
    /// # Panics
    ///
    /// Panics if `dev` or `local` is out of range.
    fn node_at(&self, dev: u8, local: NodeId) -> NodeId {
        assert!(dev < self.devices, "device {dev} of {}", self.devices);
        assert!(
            (local.0 as usize) < self.mesh.nodes(),
            "local node {local} not on the {}x{} device mesh",
            self.mesh.cols,
            self.mesh.rows
        );
        NodeId((dev as usize * self.mesh.nodes() + local.0 as usize) as u8)
    }

    /// Device `dev`'s gateway: its local node 0, where the inter-device
    /// links attach.
    pub fn gateway(&self, dev: u8) -> NodeId {
        self.node_at(dev, NodeId(0))
    }

    /// Whether the directed link `from -> to` is an inter-device link
    /// (both must be adjacent on some route for the answer to describe a
    /// real link; for non-adjacent pairs it merely classifies the pair).
    pub fn is_xlink(&self, from: NodeId, to: NodeId) -> bool {
        self.device_of(from) != self.device_of(to)
    }

    /// `(latency, cycles-per-flit)` of the directed link `from -> to`.
    fn link_timing(&self, from: NodeId, to: NodeId) -> (Cycle, Cycle) {
        if self.is_xlink(from, to) {
            (self.xlink.latency, self.xlink.cpf())
        } else {
            (self.mesh.hop_latency, 1)
        }
    }

    /// [`route_into`](Self::route_into) as a fresh vector.
    #[cfg(test)]
    fn route(&self, src: NodeId, dst: NodeId) -> Vec<NodeId> {
        let mut path = Vec::new();
        self.route_into(src, dst, &mut path);
        path
    }

    /// Appends the hierarchical route from `src` to `dst` to `path`: XY
    /// within one device, or XY to the source gateway, one gateway
    /// crossing, then XY to the destination. Excludes `src`, includes
    /// `dst`; empty when equal. [`Mesh::with_topology`] stores every
    /// route once, as links.
    fn route_into(&self, src: NodeId, dst: NodeId, path: &mut Vec<NodeId>) {
        let (sd, dd) = (self.device_of(src), self.device_of(dst));
        let per = self.mesh.nodes();
        if sd == dd {
            self.mesh
                .route_into(self.local(src), self.local(dst), sd as usize * per, path);
        } else {
            self.mesh
                .route_into(self.local(src), NodeId(0), sd as usize * per, path);
            path.push(self.gateway(dd));
            self.mesh
                .route_into(NodeId(0), self.local(dst), dd as usize * per, path);
        }
    }

    /// Hop count of the hierarchical route from `a` to `b` (see
    /// [`Mesh::send`]).
    pub fn hops(&self, a: NodeId, b: NodeId) -> u32 {
        if self.device_of(a) == self.device_of(b) {
            self.mesh.hops(self.local(a), self.local(b))
        } else {
            self.mesh.hops(self.local(a), NodeId(0)) + 1 + self.mesh.hops(NodeId(0), self.local(b))
        }
    }

    /// The longest route on this topology, in hops: corner to corner
    /// within one device, or corner -> gateway -> gateway -> corner
    /// across devices. Every [`route`](Self::route) is at most this
    /// long.
    #[cfg(test)]
    fn max_route_len(&self) -> usize {
        let intra = (self.mesh.cols as usize - 1) + (self.mesh.rows as usize - 1);
        if self.devices > 1 {
            2 * intra + 1
        } else {
            intra
        }
    }

    /// Uncontended arrival delta of a `flits`-flit message from `src` to
    /// `dst`: exactly what [`Mesh::send`] returns on an idle fabric, as
    /// a latency rather than an absolute cycle. The tests' reference for
    /// `send`.
    #[cfg(test)]
    fn base_latency(&self, src: NodeId, dst: NodeId, flits: u32) -> Cycle {
        let (sd, dd) = (self.device_of(src), self.device_of(dst));
        if sd == dd {
            return self
                .mesh
                .base_latency(self.local(src), self.local(dst), flits);
        }
        let mesh_hops = (self.mesh.hops(self.local(src), NodeId(0))
            + self.mesh.hops(NodeId(0), self.local(dst))) as Cycle;
        // Head-flit time over every link, then the tail drains at the
        // slowest link's pace (the inter-device link, by construction).
        self.mesh.router_latency
            + mesh_hops * self.mesh.hop_latency
            + self.xlink.latency
            + (flits as Cycle - 1) * self.xlink.cpf()
    }
}

/// The fabric interconnect: routing, contention, and traffic accounting.
///
/// Single-threaded and deterministic: message latency depends only on the
/// injection time and previously sent messages.
///
/// Every directed link between adjacent nodes has a dense `u16` id, and
/// every route is computed once, at construction, as the ids of the
/// links it crosses, so [`send`](Self::send) walks a slice.
#[derive(Debug)]
pub struct Mesh {
    topology: Topology,
    /// Node count, the stride of the route table's `(src, dst)` index.
    nodes: usize,
    /// Next cycle at which each directed link is free, by link id.
    link_free: Vec<Cycle>,
    /// `(latency, cycles-per-flit)` of each directed link, by link id.
    link_timing: Vec<(Cycle, Cycle)>,
    /// `(from, to)` nodes of each directed link, by link id: what a
    /// crossing reports to the trace.
    link_ends: Vec<(NodeId, NodeId)>,
    /// The route table, in CSR form: route `src -> dst` crosses the links
    /// `route_links[route_start[i]..route_start[i + 1]]`, where
    /// `i = src * nodes + dst`, in route order.
    route_start: Vec<u32>,
    route_links: Vec<u16>,
    traffic: TrafficBreakdown,
    messages: u64,
    trace: TraceHandle,
}

impl Mesh {
    /// Creates a single-device mesh with the given configuration.
    pub fn new(config: MeshConfig) -> Self {
        Mesh::with_topology(Topology::single(config))
    }

    /// Creates the interconnect of a (possibly multi-device) topology,
    /// with its route table: link ids are handed out in the order the
    /// routes, taken source-major, first cross each link.
    ///
    /// # Panics
    ///
    /// Panics if the topology has `u16::MAX` directed links or more. No
    /// topology can: 255 one-node devices, fully connected, have 64,770.
    pub fn with_topology(topology: Topology) -> Self {
        let n = topology.nodes();
        let total_hops: u32 = (0..n * n)
            .map(|i| topology.hops(NodeId((i / n) as u8), NodeId((i % n) as u8)))
            .sum();
        let mut route_start = Vec::with_capacity(n * n + 1);
        let mut route_links = Vec::with_capacity(total_hops as usize);
        let (mut link_timing, mut link_ends) = (Vec::new(), Vec::new());
        // `from * n + to` -> link id, while the table is built.
        let mut id_of = vec![u16::MAX; n * n];
        let mut path = Vec::new();
        route_start.push(0);
        for src in (0..n).map(|s| NodeId(s as u8)) {
            for dst in (0..n).map(|d| NodeId(d as u8)) {
                path.clear();
                topology.route_into(src, dst, &mut path);
                let mut from = src;
                for &to in &path {
                    let id = &mut id_of[from.index() * n + to.index()];
                    if *id == u16::MAX {
                        assert!(link_ends.len() < usize::from(u16::MAX), "too many links");
                        *id = link_ends.len() as u16;
                        link_ends.push((from, to));
                        link_timing.push(topology.link_timing(from, to));
                    }
                    route_links.push(*id);
                    from = to;
                }
                route_start.push(route_links.len() as u32);
            }
        }
        Mesh {
            topology,
            nodes: n,
            link_free: vec![0; link_ends.len()],
            link_timing,
            link_ends,
            route_start,
            route_links,
            traffic: TrafficBreakdown::default(),
            messages: 0,
            trace: TraceHandle::disabled(),
        }
    }

    /// Installs the run's trace handle: every subsequent
    /// [`send`](Self::send) reports each link crossing (flits, queueing,
    /// transit, by class), the whole message's injection and arrival,
    /// and a `noc` event with flit, hop and arrival-time detail.
    pub fn set_trace(&mut self, trace: &TraceHandle) {
        self.trace = trace.share();
    }

    /// The per-device mesh configuration.
    pub fn config(&self) -> &MeshConfig {
        &self.topology.mesh
    }

    /// The full topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Accumulated flit-crossing traffic by class.
    pub fn traffic(&self) -> &TrafficBreakdown {
        &self.traffic
    }

    /// Total messages injected.
    pub fn messages_sent(&self) -> u64 {
        self.messages
    }

    /// Total flit-hop crossings, all classes (shorthand for
    /// `traffic().total()`; the engine samples this every profiling
    /// interval).
    pub fn flit_hops(&self) -> u64 {
        self.traffic.total()
    }

    /// Number of links still occupied past `now`. A message's tail flit
    /// clears its last link no later than the message's delivery, so
    /// once the event queue has drained this must be zero — a non-zero
    /// count at end of run is leaked in-flight traffic, and the quiesce
    /// audit reports it.
    pub fn links_busy_after(&self, now: Cycle) -> usize {
        self.link_free.iter().filter(|&&t| t > now).count()
    }

    /// Injects `msg` at cycle `now` and returns its arrival cycle at the
    /// destination node, modelling per-link serialization: a link is
    /// busy for `flits x cycles-per-flit` cycles per message crossing it
    /// (mesh links carry a flit per cycle; inter-device links are slower
    /// and narrower per [`XLinkConfig`]).
    ///
    /// Traffic accounting: `flits x hops` crossings are charged to the
    /// message's class, with the gateway crossing counting as one hop. A
    /// message to the local node (`src == dst`) crosses no links, costs
    /// only the router latency, and adds no traffic — this is how
    /// locally scoped synchronization and same-node L2 bank accesses
    /// avoid network overhead.
    ///
    /// # Panics
    ///
    /// Panics if `msg.src` or `msg.dst` is not on the topology.
    pub fn send(&mut self, now: Cycle, msg: &Msg) -> Cycle {
        let (src, dst) = (msg.src.index(), msg.dst.index());
        assert!(
            src < self.nodes && dst < self.nodes,
            "{} -> {} is not a route on a fabric of {} nodes",
            msg.src,
            msg.dst,
            self.nodes
        );
        self.messages += 1;
        let flits = msg.flits();
        let i = src * self.nodes + dst;
        let links =
            &self.route_links[self.route_start[i] as usize..self.route_start[i + 1] as usize];
        let hops = links.len() as u32;
        self.traffic.record(msg.class(), flits, hops);

        // Head-flit timing with per-link serialization; the tail has
        // fully arrived `(flits - 1) x cpf` cycles after the head, paced
        // by the slowest link on the path.
        let mut t = now + self.topology.mesh.router_latency;
        let mut queued: Cycle = 0;
        let mut tail_cpf: Cycle = 1;
        for &li in links {
            let li = usize::from(li);
            let (latency, cpf) = self.link_timing[li];
            let ready = t;
            t = t.max(self.link_free[li]);
            let wait = t - ready;
            queued += wait;
            self.link_free[li] = t + flits as Cycle * cpf;
            let (from, to) = self.link_ends[li];
            self.trace
                .link_crossing(from, to, msg.class(), flits, wait, latency);
            t += latency;
            tail_cpf = tail_cpf.max(cpf);
        }
        if hops > 0 {
            t += (flits as Cycle - 1) * tail_cpf; // tail serialization at destination
        }
        self.trace.msg_sent(msg, now, t, queued, hops);
        t
    }

    /// Resets contention state and traffic counters (for reuse between
    /// independent simulations).
    pub fn reset(&mut self) {
        self.link_free.fill(0);
        self.traffic = TrafficBreakdown::default();
        self.messages = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsim_flow::{FlowCollector, DEFAULT_JOURNEY_PERIOD};
    use gsim_trace::{RunEnd, RunShape};
    use gsim_types::{Component, LineAddr, MsgClass, MsgKind, WordMask, WORDS_PER_LINE};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn ctrl(src: u8, dst: u8) -> Msg {
        Msg {
            src: NodeId(src),
            dst: NodeId(dst),
            dst_comp: Component::L2,
            kind: MsgKind::ReadReq {
                line: LineAddr(0),
                mask: WordMask::full(),
                requester: NodeId(src),
            },
        }
    }

    fn data(src: u8, dst: u8, words: usize) -> Msg {
        Msg {
            src: NodeId(src),
            dst: NodeId(dst),
            dst_comp: Component::L1,
            kind: MsgKind::ReadResp {
                line: LineAddr(0),
                mask: (0..words).collect(),
                data: [0; WORDS_PER_LINE],
            },
        }
    }

    impl Mesh {
        /// The nodes route `src -> dst` visits according to the route
        /// table, checking that each link starts where the last ended.
        fn table_route(&self, src: NodeId, dst: NodeId) -> Vec<NodeId> {
            let i = src.index() * self.nodes + dst.index();
            let links =
                &self.route_links[self.route_start[i] as usize..self.route_start[i + 1] as usize];
            let mut from = src;
            links
                .iter()
                .map(|&li| {
                    let (a, b) = self.link_ends[usize::from(li)];
                    assert_eq!(
                        a, from,
                        "{src}->{dst}: link {li} does not continue the route"
                    );
                    from = b;
                    b
                })
                .collect()
        }
    }

    /// Every node id of a config, so no test hardcodes the node count.
    fn all_nodes(c: &MeshConfig) -> impl Iterator<Item = u8> {
        0..c.nodes() as u8
    }

    #[test]
    fn coords_and_hops() {
        let c = MeshConfig::default();
        assert_eq!(c.coords(NodeId(0)), (0, 0));
        assert_eq!(c.coords(NodeId(3)), (3, 0));
        assert_eq!(c.coords(NodeId(15)), (3, 3));
        assert_eq!(c.hops(NodeId(0), NodeId(15)), 6);
        assert_eq!(c.hops(NodeId(5), NodeId(5)), 0);
        assert_eq!(c.hops(NodeId(4), NodeId(7)), 3);
    }

    #[test]
    fn coords_on_a_non_square_mesh() {
        let c = MeshConfig::grid(8, 2);
        assert_eq!(c.nodes(), 16);
        assert_eq!(c.coords(NodeId(7)), (7, 0));
        assert_eq!(c.coords(NodeId(8)), (0, 1));
        assert_eq!(c.hops(NodeId(0), NodeId(15)), 8);
        assert_eq!(Topology::single(c).max_route_len(), 8);
        for n in all_nodes(&c) {
            let (x, y) = c.coords(NodeId(n));
            assert_eq!(c.node_at(x, y), NodeId(n), "round trip for {n}");
        }
    }

    #[test]
    fn xy_route_shape() {
        let c = MeshConfig::default();
        // X first, then Y: 0 -> 15 goes 1, 2, 3, 7, 11, 15.
        let path: Vec<u8> = c.route(NodeId(0), NodeId(15)).iter().map(|n| n.0).collect();
        assert_eq!(path, vec![1, 2, 3, 7, 11, 15]);
        assert!(c.route(NodeId(6), NodeId(6)).is_empty());
        // Reverse direction.
        let back: Vec<u8> = c.route(NodeId(15), NodeId(0)).iter().map(|n| n.0).collect();
        assert_eq!(back, vec![14, 13, 12, 8, 4, 0]);
    }

    #[test]
    fn local_delivery_is_free() {
        let mut m = Mesh::new(MeshConfig::default());
        let arr = m.send(10, &ctrl(5, 5));
        assert_eq!(arr, 10 + m.config().router_latency);
        assert_eq!(m.traffic().total(), 0);
        assert_eq!(m.messages_sent(), 1);
    }

    #[test]
    fn latency_scales_with_distance() {
        let mut m = Mesh::new(MeshConfig::default());
        let near = m.send(0, &ctrl(0, 1));
        m.reset(); // independent measurements
        let far = m.send(0, &ctrl(0, 15));
        assert!(far > near);
        let cfg = MeshConfig::default();
        assert_eq!(near, cfg.router_latency + cfg.hop_latency);
        assert_eq!(far, cfg.router_latency + 6 * cfg.hop_latency);
    }

    #[test]
    fn flit_crossings_accounting() {
        let mut m = Mesh::new(MeshConfig::default());
        m.send(0, &data(0, 15, WORDS_PER_LINE)); // 5 flits x 6 hops
        assert_eq!(m.traffic().class(MsgClass::Read), 30);
        m.send(0, &data(0, 1, 1)); // 2 flits x 1 hop
        assert_eq!(m.traffic().class(MsgClass::Read), 32);
    }

    #[test]
    fn link_contention_serializes() {
        let mut m = Mesh::new(MeshConfig::default());
        // Two 5-flit messages over the same first link at the same time:
        // the second is delayed by the first's serialization.
        let a = m.send(0, &data(0, 1, WORDS_PER_LINE));
        let b = m.send(0, &data(0, 1, WORDS_PER_LINE));
        assert!(b >= a + 5, "second message must wait: a={a} b={b}");
        // A message on a disjoint path is unaffected.
        let mut m2 = Mesh::new(MeshConfig::default());
        let c0 = m2.send(0, &data(15, 14, WORDS_PER_LINE));
        m2.reset();
        m2.send(0, &data(0, 1, WORDS_PER_LINE));
        let c1 = m2.send(0, &data(15, 14, WORDS_PER_LINE));
        assert_eq!(c0, c1);
    }

    #[test]
    fn tail_serialization_charged_once() {
        let m_cfg = MeshConfig::default();
        let mut m = Mesh::new(m_cfg);
        // 5-flit message over 2 hops: router + 2*hop + (5-1) tail.
        let arr = m.send(0, &data(0, 2, WORDS_PER_LINE));
        assert_eq!(arr, m_cfg.router_latency + 2 * m_cfg.hop_latency + 4);
    }

    #[test]
    fn latency_accessors_match_send_on_an_idle_mesh() {
        let cfg = MeshConfig::default();
        // base_latency is definitionally what send() returns uncontended:
        // verify over every (src, dst) pair for a control and a full-line
        // message.
        for a in all_nodes(&cfg) {
            for b in all_nodes(&cfg) {
                let mut m = Mesh::new(cfg);
                let msg = ctrl(a, b);
                let arr = m.send(1000, &msg);
                assert_eq!(
                    arr,
                    1000 + cfg.base_latency(NodeId(a), NodeId(b), msg.flits()),
                    "ctrl {a}->{b}"
                );
                let mut m = Mesh::new(cfg);
                let msg = data(a, b, WORDS_PER_LINE);
                let arr = m.send(1000, &msg);
                assert_eq!(
                    arr,
                    1000 + cfg.base_latency(NodeId(a), NodeId(b), msg.flits()),
                    "data {a}->{b}"
                );
            }
        }
    }

    #[test]
    fn latency_floors_are_tight() {
        let cfg = MeshConfig::default();
        let (local, remote) = (cfg.router_latency, cfg.router_latency + cfg.hop_latency);
        // Tight: an adjacent-node single-flit message pays the router
        // and one hop, a same-node message the router alone.
        let mut m = Mesh::new(cfg);
        assert_eq!(m.send(0, &ctrl(0, 1)), remote);
        assert_eq!(m.send(50, &ctrl(9, 9)), 50 + local);
        // Floors: no (src, dst, flits) combination beats them, and
        // distinct nodes never beat router plus one hop.
        for a in all_nodes(&cfg) {
            for b in all_nodes(&cfg) {
                for msg in [ctrl(a, b), data(a, b, 3)] {
                    let base = cfg.base_latency(NodeId(a), NodeId(b), msg.flits());
                    assert!(base >= local);
                    if a != b {
                        assert!(base >= remote, "{a}->{b}");
                    }
                }
            }
        }
    }

    #[test]
    fn corner_routes_are_golden() {
        let c = MeshConfig::default();
        // The other corner pair, both directions: X fully, then Y.
        let down: Vec<u8> = c.route(NodeId(3), NodeId(12)).iter().map(|n| n.0).collect();
        assert_eq!(down, vec![2, 1, 0, 4, 8, 12]);
        let up: Vec<u8> = c.route(NodeId(12), NodeId(3)).iter().map(|n| n.0).collect();
        assert_eq!(up, vec![13, 14, 15, 11, 7, 3]);
        // Pure-row and pure-column routes have no turn.
        let row: Vec<u8> = c.route(NodeId(4), NodeId(7)).iter().map(|n| n.0).collect();
        assert_eq!(row, vec![5, 6, 7]);
        let col: Vec<u8> = c.route(NodeId(1), NodeId(13)).iter().map(|n| n.0).collect();
        assert_eq!(col, vec![5, 9, 13]);
    }

    #[test]
    fn same_node_send_touches_no_link() {
        let mut m = Mesh::new(MeshConfig::default());
        for _ in 0..3 {
            m.send(0, &data(9, 9, WORDS_PER_LINE));
        }
        assert_eq!(m.traffic().total(), 0);
        assert_eq!(m.flit_hops(), 0);
        assert_eq!(m.links_busy_after(0), 0, "no link was ever reserved");
        assert_eq!(m.messages_sent(), 3);
    }

    #[test]
    fn simultaneous_arrivals_queue_in_injection_order() {
        let mut m = Mesh::new(MeshConfig::default());
        let cfg = MeshConfig::default();
        // Two 5-flit messages hit link 0->1 on the same cycle: the
        // first injected crosses first; the second waits out the full
        // 5-flit serialization. Golden arrivals.
        let a = m.send(0, &data(0, 1, WORDS_PER_LINE));
        let b = m.send(0, &data(0, 1, WORDS_PER_LINE));
        assert_eq!(a, cfg.router_latency + cfg.hop_latency + 4);
        assert_eq!(b, cfg.router_latency + 5 + cfg.hop_latency + 4);
        // A third message injected later but before the link frees
        // queues behind both.
        let c = m.send(2, &data(0, 1, WORDS_PER_LINE));
        assert_eq!(c, cfg.router_latency + 10 + cfg.hop_latency + 4);
    }

    #[test]
    fn flit_hops_equals_traffic_total() {
        // The two aggregate views of mesh traffic must never drift:
        // `flit_hops()` is what interval samplers read, `traffic()` is
        // what `SimStats` reports.
        let mut m = Mesh::new(MeshConfig::default());
        m.send(0, &data(0, 15, WORDS_PER_LINE));
        m.send(3, &ctrl(5, 5));
        m.send(7, &data(12, 3, 2));
        assert_eq!(m.flit_hops(), m.traffic().total());
        assert!(m.flit_hops() > 0);
    }

    /// A trace handle feeding a fresh flow collector on `nodes` nodes
    /// (flow reads only the node count and the L2 latency of a shape).
    fn flow_collector(nodes: usize) -> (TraceHandle, Rc<RefCell<FlowCollector>>) {
        let shape = RunShape::new(nodes, nodes, 0, 26);
        let flow = FlowCollector::new(&shape, 1024, DEFAULT_JOURNEY_PERIOD);
        let flow = Rc::new(RefCell::new(flow));
        let h = TraceHandle::disabled().with_consumers([flow.clone() as _]);
        (h, flow)
    }

    #[test]
    fn flow_attribution_reconciles_with_aggregate_traffic() {
        let (h, flow) = flow_collector(MeshConfig::default().nodes());
        let mut m = Mesh::new(MeshConfig::default());
        m.set_trace(&h);
        m.send(0, &data(0, 15, WORDS_PER_LINE));
        m.send(0, &data(0, 15, WORDS_PER_LINE)); // queues behind the first
        m.send(1, &ctrl(3, 12));
        m.send(5, &ctrl(9, 9)); // local: no link crossing
        h.run_finished(&RunEnd::default());
        let r = flow.borrow_mut().take_report();
        r.reconcile(m.traffic()).expect("per-link sums match");
        assert_eq!(r.total_flits(), m.traffic().total());
        // The second 5-flit message waited on every one of the 6 links.
        let queued: u64 = r.links.iter().map(|l| l.queue_cycles).sum();
        assert!(queued > 0, "contention was observed");
        // Timing is untouched by observation: an identical unobserved
        // mesh produces identical link-free state and arrivals.
        let mut plain = Mesh::new(MeshConfig::default());
        plain.send(0, &data(0, 15, WORDS_PER_LINE));
        plain.send(0, &data(0, 15, WORDS_PER_LINE));
        let observed_arrival = m.send(20, &ctrl(0, 15));
        let plain_arrival = plain.send(20, &ctrl(0, 15));
        assert_eq!(observed_arrival, plain_arrival);
    }

    #[test]
    fn reset_clears_state() {
        let mut m = Mesh::new(MeshConfig::default());
        m.send(0, &data(0, 15, 4));
        m.reset();
        assert_eq!(m.traffic().total(), 0);
        assert_eq!(m.messages_sent(), 0);
        let a = m.send(0, &ctrl(0, 1));
        assert_eq!(
            a,
            MeshConfig::default().router_latency + MeshConfig::default().hop_latency
        );
    }

    #[test]
    #[should_panic(expected = "not on a")]
    fn off_mesh_node_panics() {
        let c = MeshConfig::default();
        let _ = c.coords(NodeId(c.nodes() as u8));
    }

    mod fabric {
        use super::*;

        fn two_dev() -> Topology {
            Topology::fabric(MeshConfig::default(), 2, XLinkConfig::default())
        }

        #[test]
        fn single_device_topology_matches_the_plain_mesh() {
            let cfg = MeshConfig::default();
            let t = Topology::single(cfg);
            assert_eq!(t.nodes(), cfg.nodes());
            assert_eq!(t.max_route_len(), 6);
            for a in all_nodes(&cfg) {
                for b in all_nodes(&cfg) {
                    let (a, b) = (NodeId(a), NodeId(b));
                    assert_eq!(t.route(a, b), cfg.route(a, b));
                    assert_eq!(t.hops(a, b), cfg.hops(a, b));
                    for flits in [1, 5] {
                        assert_eq!(t.base_latency(a, b, flits), cfg.base_latency(a, b, flits));
                    }
                }
            }
        }

        #[test]
        fn global_ids_round_trip() {
            let t = two_dev();
            assert_eq!(t.nodes(), 32);
            assert_eq!(t.nodes_per_device(), 16);
            for n in 0..t.nodes() as u8 {
                let node = NodeId(n);
                let (dev, local) = (t.device_of(node), t.local(node));
                assert_eq!(t.node_at(dev, local), node);
            }
            assert_eq!(t.gateway(0), NodeId(0));
            assert_eq!(t.gateway(1), NodeId(16));
        }

        #[test]
        fn cross_device_routes_go_gateway_to_gateway() {
            let t = two_dev();
            // 5 (dev 0) -> 22 (dev 1): XY to gateway 0, xlink to
            // gateway 16, XY onward. Node 5 is at (1,1): X back to
            // (0,1)=4, Y up to (0,0)=0; then 16; then 16->...->22.
            let path: Vec<u8> = t.route(NodeId(5), NodeId(22)).iter().map(|n| n.0).collect();
            assert_eq!(path, vec![4, 0, 16, 17, 18, 22]);
            // From a gateway to a gateway: exactly one hop.
            let gw: Vec<u8> = t.route(NodeId(0), NodeId(16)).iter().map(|n| n.0).collect();
            assert_eq!(gw, vec![16]);
            // Same-device routing never leaves the device.
            for n in t.route(NodeId(17), NodeId(31)) {
                assert_eq!(t.device_of(n), 1);
            }
        }

        #[test]
        fn longest_cross_device_route_fits_and_is_valid() {
            // The longest route of a fabric runs far corner to far
            // corner through both gateways: 6 + 1 + 6 = 13 hops on two
            // 4x4 devices, 14 + 1 + 14 = 29 on two 8x8 devices. The
            // route table stores it hop for hop.
            for (t, src, dst, len) in [
                (two_dev(), 15, 31, 13),
                (
                    Topology::fabric(MeshConfig::grid(8, 8), 2, XLinkConfig::default()),
                    63,
                    127,
                    29,
                ),
            ] {
                let (src, dst) = (NodeId(src), NodeId(dst));
                let route = t.route(src, dst);
                assert_eq!(route.len(), len);
                assert_eq!(route.len(), t.max_route_len());
                assert_eq!(route.last().copied(), Some(dst));
                let mut prev = src;
                for &n in &route {
                    assert_eq!(t.hops(prev, n), 1, "{prev}->{n} must be one hop");
                    prev = n;
                }
                assert_eq!(Mesh::with_topology(t).table_route(src, dst), route);
            }
        }

        #[test]
        fn send_matches_base_latency_across_devices() {
            let t = two_dev();
            for (a, b) in [(0u8, 16u8), (5, 22), (15, 31), (31, 4), (20, 9)] {
                for msg in [ctrl(a, b), data(a, b, WORDS_PER_LINE)] {
                    let mut m = Mesh::with_topology(t);
                    let arr = m.send(500, &msg);
                    assert_eq!(
                        arr,
                        500 + t.base_latency(NodeId(a), NodeId(b), msg.flits()),
                        "{a}->{b} x{}",
                        msg.flits()
                    );
                }
            }
        }

        #[test]
        fn xlink_latency_dominates_cross_device_sends() {
            let t = two_dev();
            let mut m = Mesh::with_topology(t);
            let local = m.send(0, &ctrl(0, 15));
            m.reset();
            let cross = m.send(0, &ctrl(0, 16));
            assert!(
                cross > local,
                "one gateway crossing ({cross}) must outweigh a full on-chip route ({local})"
            );
            assert_eq!(cross, t.mesh.router_latency + t.xlink.latency);
        }

        #[test]
        fn xlink_serialization_uses_cycles_per_flit() {
            let t = two_dev();
            let mut m = Mesh::with_topology(t);
            // Two full-line messages gateway-to-gateway: the second
            // waits out flits x cpf of link occupancy.
            let a = m.send(0, &data(0, 16, WORDS_PER_LINE));
            let b = m.send(0, &data(0, 16, WORDS_PER_LINE));
            let occupancy = 5 * t.xlink.cycles_per_flit;
            assert_eq!(b - a, occupancy);
            // And the tail drains at the xlink's pace.
            assert_eq!(
                a,
                t.mesh.router_latency + t.xlink.latency + 4 * t.xlink.cycles_per_flit
            );
        }

        #[test]
        fn one_link_arrivals_follow_the_link_class() {
            // Slow xlink: an adjacent mesh hop is the cheapest crossing
            // (the common case).
            let slow = two_dev();
            let mut m = Mesh::with_topology(slow);
            assert_eq!(
                m.send(0, &ctrl(0, 1)),
                slow.mesh.router_latency + slow.mesh.hop_latency
            );
            // Fast xlink (faster than a mesh hop): a gateway-to-gateway
            // message arrives after the router and the xlink alone.
            let fast = Topology::fabric(
                MeshConfig::default(),
                2,
                XLinkConfig {
                    latency: 1,
                    cycles_per_flit: 1,
                },
            );
            let mut m = Mesh::with_topology(fast);
            assert_eq!(m.send(0, &ctrl(0, 16)), fast.mesh.router_latency + 1);
        }

        #[test]
        fn traffic_counts_the_gateway_crossing_as_one_hop() {
            let t = two_dev();
            let mut m = Mesh::with_topology(t);
            m.send(0, &ctrl(0, 16)); // 1 flit x 1 hop
            assert_eq!(m.traffic().total(), 1);
            m.send(0, &data(15, 31, WORDS_PER_LINE)); // 5 flits x 13 hops
            assert_eq!(m.traffic().total(), 1 + 5 * 13);
        }

        #[test]
        fn flow_reconciles_on_the_multi_device_link_set() {
            let t = two_dev();
            let (h, flow) = flow_collector(t.nodes());
            let mut m = Mesh::with_topology(t);
            m.set_trace(&h);
            m.send(0, &data(5, 22, WORDS_PER_LINE));
            m.send(0, &data(15, 31, WORDS_PER_LINE));
            m.send(2, &ctrl(16, 0));
            m.send(3, &ctrl(9, 9));
            h.run_finished(&RunEnd::default());
            let r = flow.borrow_mut().take_report();
            r.reconcile(m.traffic()).expect("per-link sums match");
            // The gateway links appear in the report as ordinary links.
            assert!(
                r.links
                    .iter()
                    .any(|l| t.is_xlink(NodeId(l.from), NodeId(l.to))),
                "inter-device crossings must be attributed"
            );
        }

        /// The route table against the XY route it was built from, for
        /// every `(src, dst)` pair, up to the largest fabric the CLI
        /// accepts (15 devices of 4x4: 240 nodes, 930 links). Each link
        /// id names one directed link, and the link timing follows the
        /// link's class.
        #[test]
        fn route_table_matches_the_xy_route_for_every_pair() {
            let x = XLinkConfig::default();
            for t in [
                Topology::single(MeshConfig::default()),
                Topology::single(MeshConfig::grid(2, 8)),
                two_dev(),
                Topology::fabric(MeshConfig::grid(8, 8), 2, x),
                Topology::fabric(MeshConfig::default(), 15, x),
            ] {
                let m = Mesh::with_topology(t);
                for a in 0..t.nodes() as u8 {
                    for b in 0..t.nodes() as u8 {
                        let (a, b) = (NodeId(a), NodeId(b));
                        assert_eq!(m.table_route(a, b), t.route(a, b), "{a}->{b}");
                    }
                }
                let mut ends = m.link_ends.clone();
                ends.sort_unstable_by_key(|&(a, b)| (a.0, b.0));
                ends.dedup();
                assert_eq!(ends.len(), m.link_ends.len(), "a link has two ids");
                for (&(a, b), &timing) in m.link_ends.iter().zip(&m.link_timing) {
                    assert_eq!(timing, t.link_timing(a, b), "{a}->{b}");
                }
                assert_eq!(m.link_free.len(), m.link_ends.len());
            }
            let m = Mesh::with_topology(Topology::fabric(MeshConfig::default(), 15, x));
            assert_eq!(m.link_ends.len(), 15 * 48 + 15 * 14);
        }

        #[test]
        #[should_panic(expected = "is not a route")]
        fn send_to_an_off_fabric_node_panics() {
            let mut m = Mesh::with_topology(two_dev());
            m.send(0, &ctrl(3, 32));
        }

        #[test]
        #[should_panic(expected = "exceeds the 256-node id space")]
        fn oversized_fabric_panics() {
            let _ = Topology::fabric(MeshConfig::grid(8, 8), 5, XLinkConfig::default());
        }

        #[test]
        #[should_panic(expected = "not on a")]
        fn off_fabric_node_panics() {
            let t = two_dev();
            let _ = t.device_of(NodeId(32));
        }
    }

    mod properties {
        use super::*;
        use gsim_types::Rng64;

        /// Exhaustive over all (src, dst) pairs of several geometries:
        /// route length matches the Manhattan distance and every step is
        /// one hop.
        #[test]
        fn routes_are_shortest_and_adjacent() {
            for c in [
                MeshConfig::default(),
                MeshConfig::grid(2, 8),
                MeshConfig::grid(5, 3),
            ] {
                for a in all_nodes(&c) {
                    for b in all_nodes(&c) {
                        let route = c.route(NodeId(a), NodeId(b));
                        assert_eq!(route.len() as u32, c.hops(NodeId(a), NodeId(b)));
                        assert!(route.len() <= Topology::single(c).max_route_len());
                        let mut prev = NodeId(a);
                        for n in route {
                            assert_eq!(c.hops(prev, n), 1, "{a}->{b} via {n}");
                            prev = n;
                        }
                        if a != b {
                            assert_eq!(prev, NodeId(b));
                        }
                    }
                }
            }
        }

        /// Randomized widths, heights, and device counts: `coords` /
        /// `node_at` and `device_of` / `local` / `node_at` round-trip,
        /// and every route is valid — adjacent hops, correct endpoints,
        /// length within `max_route_len`.
        #[test]
        fn random_topologies_route_validly() {
            let mut rng = Rng64::seed_from_u64(0xfab1);
            for _ in 0..64 {
                let cols = rng.gen_u32(1, 9) as u8;
                let rows = rng.gen_u32(1, 9) as u8;
                let mesh = MeshConfig::grid(cols, rows);
                let max_dev = (256 / mesh.nodes()).clamp(1, 4);
                let devices = rng.gen_u32(1, max_dev as u32 + 1) as u8;
                let t = Topology::fabric(
                    mesh,
                    devices,
                    XLinkConfig {
                        latency: rng.gen_u64(1, 100),
                        cycles_per_flit: rng.gen_u64(1, 8),
                    },
                );
                // Round trips over every node.
                for n in 0..t.nodes() as u8 {
                    let node = NodeId(n);
                    let local = t.local(node);
                    let (x, y) = t.mesh.coords(local);
                    assert_eq!(t.mesh.node_at(x, y), local);
                    assert_eq!(t.node_at(t.device_of(node), local), node);
                }
                // Random route pairs.
                for _ in 0..32 {
                    let a = NodeId(rng.gen_u32(0, t.nodes() as u32) as u8);
                    let b = NodeId(rng.gen_u32(0, t.nodes() as u32) as u8);
                    let route = t.route(a, b);
                    assert_eq!(route.len() as u32, t.hops(a, b));
                    assert!(
                        route.len() <= t.max_route_len(),
                        "{a}->{b} on {cols}x{rows}x{devices}"
                    );
                    let mut prev = a;
                    let mut xlinks = 0;
                    for &n in &route {
                        assert_eq!(t.hops(prev, n), 1);
                        if t.is_xlink(prev, n) {
                            xlinks += 1;
                            assert_eq!(t.local(prev), NodeId(0), "xlink leaves a gateway");
                            assert_eq!(t.local(n), NodeId(0), "xlink enters a gateway");
                        }
                        prev = n;
                    }
                    assert_eq!(xlinks, u32::from(t.device_of(a) != t.device_of(b)));
                    if a != b {
                        assert_eq!(prev, b);
                    } else {
                        assert!(route.is_empty());
                    }
                }
            }
        }

        #[test]
        fn arrival_never_before_injection() {
            let cfg = MeshConfig::default();
            let mut rng = Rng64::seed_from_u64(0x90c1);
            for _ in 0..256 {
                let n = cfg.nodes() as u32;
                let (a, b) = (rng.gen_u32(0, n) as u8, rng.gen_u32(0, n) as u8);
                let now = rng.gen_u64(0, 100_000);
                let mut m = Mesh::new(cfg);
                let arr = m.send(now, &ctrl(a, b));
                assert!(arr >= now + cfg.router_latency);
            }
        }

        #[test]
        fn traffic_is_flits_times_hops() {
            let t = Topology::fabric(MeshConfig::default(), 2, XLinkConfig::default());
            let mut rng = Rng64::seed_from_u64(0x90c2);
            for _ in 0..256 {
                let n = t.nodes() as u32;
                let (a, b) = (rng.gen_u32(0, n) as u8, rng.gen_u32(0, n) as u8);
                let words = rng.gen_usize(1, 17);
                let mut m = Mesh::with_topology(t);
                let msg = data(a, b, words);
                m.send(0, &msg);
                let want = msg.flits() as u64 * t.hops(NodeId(a), NodeId(b)) as u64;
                assert_eq!(m.traffic().total(), want);
            }
        }

        #[test]
        fn send_emits_noc_trace_events() {
            use gsim_trace::{RingRecorder, TraceEvent, TraceHandle};
            let h = TraceHandle::new(RingRecorder::new(16));
            let mut m = Mesh::new(MeshConfig::default());
            m.set_trace(&h);
            h.set_now(7);
            let arr = m.send(7, &ctrl(0, 15));
            let got = h.recorder().unwrap().borrow().to_vec();
            assert_eq!(got.len(), 1);
            match got[0] {
                (
                    7,
                    TraceEvent::MsgSend {
                        src,
                        dst,
                        flits,
                        hops,
                        arrival,
                        ..
                    },
                ) => {
                    assert_eq!((src, dst), (NodeId(0), NodeId(15)));
                    assert_eq!((flits, hops), (1, 6));
                    assert_eq!(arrival, arr);
                }
                other => panic!("unexpected event {other:?}"),
            }
        }
    }
}
