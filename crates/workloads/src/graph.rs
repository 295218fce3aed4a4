//! Pannotia-style graph workloads (extension): level-synchronous BFS
//! and Bellman-Ford SSSP over a CSR graph, relaxing distances with
//! globally scoped `atomicMin`.
//!
//! The paper's related work (§7.2) notes that RemoteScopes evaluated on
//! Pannotia graph benchmarks with fine-grained synchronization that
//! "are not publicly available" — these are our equivalents, built on
//! the same algorithmic skeleton Pannotia describes: one kernel per
//! round, every edge relaxation an atomic, no scope ever applicable
//! (any vertex may be touched by any CU — dynamic sharing again).
//!
//! Data-race-freedom is taken seriously: because distance words are
//! concurrently `Min`-ed, the per-vertex distance *reads* are
//! acquire-ordered synchronization reads too, not plain loads. The CSR
//! structure (row offsets, column indices, weights) is read-only and
//! annotated for DD+RO.

use crate::layout::Layout;
use crate::params::Scale;
use gsim_core::kernel::{imm, r, AluOp, KernelBuilder, Program};
use gsim_core::{KernelLaunch, TbSpec, Workload};
use gsim_types::{AtomicOp, Region, Rng64, Scope, SyncOrd};
use std::sync::Arc;

/// "Infinite" distance (fits comfortably under wrap-around sums).
pub const INF: u32 = u32::MAX / 4;

/// A directed graph in CSR form with small positive edge weights.
#[derive(Debug)]
pub struct Csr {
    /// `row[v]..row[v + 1]` indexes `col`/`weight` for vertex `v`.
    pub row: Vec<u32>,
    /// Edge destinations.
    pub col: Vec<u32>,
    /// Edge weights (1 for BFS semantics, 1..=7 otherwise).
    pub weight: Vec<u32>,
}

impl Csr {
    /// Generates a deterministic sparse digraph: a ring (so everything
    /// is reachable from vertex 0) plus `extra_per_vertex` random edges.
    pub fn generate(n: usize, extra_per_vertex: usize, weighted: bool, seed: u64) -> Csr {
        let mut rng = Rng64::seed_from_u64(seed);
        let mut adj: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
        for (v, edges) in adj.iter_mut().enumerate() {
            let w = if weighted { rng.gen_u32(1, 8) } else { 1 };
            edges.push((((v + 1) % n) as u32, w));
            for _ in 0..extra_per_vertex {
                let u = rng.gen_usize(0, n) as u32;
                let w = if weighted { rng.gen_u32(1, 8) } else { 1 };
                edges.push((u, w));
            }
        }
        let mut row = Vec::with_capacity(n + 1);
        let mut col = Vec::new();
        let mut weight = Vec::new();
        row.push(0);
        for edges in &adj {
            for &(u, w) in edges {
                col.push(u);
                weight.push(w);
            }
            row.push(col.len() as u32);
        }
        Csr { row, col, weight }
    }

    /// Vertex count.
    pub fn vertices(&self) -> usize {
        self.row.len() - 1
    }

    /// Edge count.
    pub fn edges(&self) -> usize {
        self.col.len()
    }

    /// Host Bellman-Ford from vertex 0: returns the fixpoint distances
    /// and the number of *Jacobi* rounds to reach it (each round reads
    /// only the previous round's values). That is the conservative bound
    /// the parallel kernel needs: a kernel round relaxes every edge once
    /// with inputs at least as fresh as the Jacobi round's, and the
    /// atomic-min lattice means fresher inputs only converge faster.
    fn reference_distances(&self) -> (Vec<u32>, usize) {
        let n = self.vertices();
        let mut dist = vec![INF; n];
        dist[0] = 0;
        let mut rounds = 0;
        loop {
            rounds += 1;
            let prev = dist.clone();
            let mut changed = false;
            for (v, &dv) in prev.iter().enumerate() {
                if dv == INF {
                    continue;
                }
                for e in self.row[v] as usize..self.row[v + 1] as usize {
                    let u = self.col[e] as usize;
                    let nd = dv.saturating_add(self.weight[e]);
                    if nd < dist[u] {
                        dist[u] = nd;
                        changed = true;
                    }
                }
            }
            if !changed {
                return (dist, rounds);
            }
        }
    }
}

// Register conventions of the relaxation kernel.
const R_ROW: u8 = 1; // CSR row base (read-only)
const R_COL: u8 = 2; // CSR col base (read-only)
const R_WGT: u8 = 3; // CSR weight base (read-only)
const R_DIST: u8 = 4; // distance array base (sync accesses)
const R_V0: u8 = 5; // first vertex of this block
const R_V1: u8 = 6; // one past the last
const R_V: u8 = 7;
const R_D: u8 = 8;
const R_E: u8 = 9;
const R_EEND: u8 = 10;
const R_U: u8 = 11;
const R_ND: u8 = 12;
const R_ADDR: u8 = 13;
const R_TMP: u8 = 14;

/// One relaxation round: for every owned vertex with a finite distance,
/// `atomicMin` each out-neighbour's distance.
fn relax_program() -> Arc<Program> {
    let mut b = KernelBuilder::new();
    b.mov(R_V, r(R_V0));
    b.label("vertex");
    // d = dist[v] — an acquire sync read (others may be Min-ing it).
    b.alu(R_ADDR, r(R_DIST), AluOp::Add, r(R_V));
    b.atomic(
        R_D,
        b.at(R_ADDR, 0),
        AtomicOp::Read,
        imm(0),
        imm(0),
        SyncOrd::Acquire,
        Scope::Global,
    );
    b.alu(R_TMP, r(R_D), AluOp::CmpGe, imm(INF));
    b.bnz(r(R_TMP), "next_vertex");
    // Edge range.
    b.alu(R_ADDR, r(R_ROW), AluOp::Add, r(R_V));
    b.ld_region(R_E, b.at(R_ADDR, 0), Region::ReadOnly);
    b.ld_region(R_EEND, b.at(R_ADDR, 1), Region::ReadOnly);
    b.label("edge");
    b.alu(R_TMP, r(R_E), AluOp::CmpLt, r(R_EEND));
    b.bz(r(R_TMP), "next_vertex");
    b.alu(R_ADDR, r(R_COL), AluOp::Add, r(R_E));
    b.ld_region(R_U, b.at(R_ADDR, 0), Region::ReadOnly);
    b.alu(R_ADDR, r(R_WGT), AluOp::Add, r(R_E));
    b.ld_region(R_ND, b.at(R_ADDR, 0), Region::ReadOnly);
    b.alu(R_ND, r(R_ND), AluOp::Add, r(R_D));
    // atomicMin(dist[u], nd) — release so the relaxed value publishes.
    b.alu(R_ADDR, r(R_DIST), AluOp::Add, r(R_U));
    b.atomic(
        R_TMP,
        b.at(R_ADDR, 0),
        AtomicOp::Min,
        r(R_ND),
        imm(0),
        SyncOrd::AcqRel,
        Scope::Global,
    );
    b.alu(R_E, r(R_E), AluOp::Add, imm(1));
    b.jmp("edge");
    b.label("next_vertex");
    b.alu(R_V, r(R_V), AluOp::Add, imm(1));
    b.alu(R_TMP, r(R_V), AluOp::CmpLt, r(R_V1));
    b.bnz(r(R_TMP), "vertex");
    b.halt();
    b.build()
}

fn graph_workload(name: &str, csr: Csr) -> Workload {
    let n = csr.vertices();
    let m = csr.edges();
    let (dist_ref, rounds) = csr.reference_distances();
    let mut layout = Layout::new();
    let row = layout.alloc(n + 1);
    let col = layout.alloc(m);
    let wgt = layout.alloc(m);
    let dist = layout.alloc(n);

    let program = relax_program();
    let tbs_n = 45usize;
    let per = n.div_ceil(tbs_n);
    let tbs: Vec<TbSpec> = (0..tbs_n)
        .filter(|t| t * per < n)
        .map(|t| {
            let mut regs = [0u32; 7];
            regs[R_ROW as usize] = row;
            regs[R_COL as usize] = col;
            regs[R_WGT as usize] = wgt;
            regs[R_DIST as usize] = dist;
            regs[R_V0 as usize] = (t * per) as u32;
            regs[R_V1 as usize] = ((t + 1) * per).min(n) as u32;
            TbSpec::with_regs(&regs)
        })
        .collect();
    let kernels = (0..rounds)
        .map(|_| KernelLaunch {
            program: program.clone(),
            tbs: tbs.clone(),
        })
        .collect();

    let (row_v, col_v, wgt_v) = (csr.row, csr.col, csr.weight);
    Workload {
        name: name.to_string(),
        init: Box::new(move |mem| {
            mem.write_u32_slice(Layout::byte_addr(row), &row_v);
            mem.write_u32_slice(Layout::byte_addr(col), &col_v);
            mem.write_u32_slice(Layout::byte_addr(wgt), &wgt_v);
            let mut d = vec![INF; n];
            d[0] = 0;
            mem.write_u32_slice(Layout::byte_addr(dist), &d);
        }),
        kernels,
        verify: Box::new(move |mem| {
            let got = mem.read_u32_slice(Layout::byte_addr(dist), n);
            if got != dist_ref {
                let bad = got.iter().zip(&dist_ref).position(|(a, b)| a != b).unwrap();
                return Err(format!(
                    "dist[{bad}] = {}, want {}",
                    got[bad], dist_ref[bad]
                ));
            }
            Ok(())
        }),
    }
}

/// Level-synchronous BFS (unit weights) from vertex 0.
pub fn bfs(scale: Scale) -> Workload {
    let n = match scale {
        Scale::Tiny => 120,
        Scale::Paper => 4096,
    };
    graph_workload("BFS", Csr::generate(n, 3, false, 0xBF5))
}

/// Bellman-Ford single-source shortest paths (weights 1..=7).
pub fn sssp(scale: Scale) -> Workload {
    let n = match scale {
        Scale::Tiny => 120,
        Scale::Paper => 4096,
    };
    graph_workload("SSSP", Csr::generate(n, 3, true, 0x555))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsim_core::{Simulator, SystemConfig};
    use gsim_types::ProtocolConfig;

    #[test]
    fn csr_generator_is_deterministic_and_connected() {
        let g = Csr::generate(500, 3, true, 1);
        assert_eq!(g.vertices(), 500);
        assert_eq!(g.edges(), 500 * 4);
        let (dist, rounds) = g.reference_distances();
        assert!(
            dist.iter().all(|&d| d < INF),
            "ring edges connect everything"
        );
        assert!(rounds >= 2);
        let g2 = Csr::generate(500, 3, true, 1);
        assert_eq!(g.col, g2.col);
    }

    #[test]
    fn bfs_verifies_under_every_config() {
        for p in ProtocolConfig::ALL {
            Simulator::new(SystemConfig::micro15(p))
                .run(&bfs(Scale::Tiny))
                .unwrap_or_else(|e| panic!("BFS under {p}: {e}"));
        }
    }

    #[test]
    fn sssp_verifies_under_every_config() {
        for p in ProtocolConfig::ALL {
            Simulator::new(SystemConfig::micro15(p))
                .run(&sssp(Scale::Tiny))
                .unwrap_or_else(|e| panic!("SSSP under {p}: {e}"));
        }
    }

    #[test]
    fn relaxations_are_atomic_heavy() {
        // The defining Pannotia property: most traffic is fine-grained
        // synchronization, and ownership keeps much of it in the L1.
        let stats = Simulator::new(SystemConfig::micro15(ProtocolConfig::Dd))
            .run(&bfs(Scale::Tiny))
            .unwrap();
        assert!(stats.counts.l1_atomics > 500);
        assert!(stats.counts.l1_atomic_hits > 0);
    }
}
