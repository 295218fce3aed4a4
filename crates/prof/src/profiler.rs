//! The profiler: a [`TraceSink`] consumer collecting cycle
//! attribution, hot-line sketches and interval samples.
//!
//! The engine installs one [`Profiler`] on the run's trace handle and
//! keeps an `Rc` to it to take the report; every component reaches it through the hooks it already
//! reports. It only observes: no hook schedules an event, touches
//! protocol state, or returns anything the engine acts on.

use crate::attr::CuAttr;
use crate::report::{CuRow, ProfileReport};
use crate::sketch::{LineTally, SpaceSaving, SKETCH_LINES};
use gsim_trace::{IntervalSample, SampleRing, StallKind, TraceSink};
use gsim_types::{Counts, Cycle, LineAddr, NodeId, Scope, SyncOrd, TbId, WordAddr, WordMask};

/// The collection state of one profiled run.
#[derive(Clone, Debug)]
pub struct Profiler {
    /// The engine's sampling interval, echoed in the report.
    interval: Cycle,
    /// CUs per device and nodes per device: a CU node's attribution row
    /// is `device * cus_per_device + local node` (rows skip each
    /// device's non-CU node).
    cus_per_device: usize,
    nodes_per_device: usize,
    attr: Vec<CuAttr>,
    cu_counts: Vec<Counts>,
    l1_sketches: Vec<SpaceSaving>,
    l2_sketch: SpaceSaving,
    ring: SampleRing<IntervalSample>,
}

/// End-of-run inputs the engine owns and the profiler needs to build
/// its report: the final cycle and the counters of the non-engine
/// components.
#[derive(Clone, Debug)]
pub struct ReportInputs {
    /// `SimStats::cycles` of the run.
    pub end: Cycle,
    /// Final L1 counters, indexed by node (CU and non-CU nodes alike).
    pub l1_counts: Vec<Counts>,
    /// Final L2 counters.
    pub l2_counts: Counts,
    /// `Counts::messages_sent` of the run.
    pub messages_sent: u64,
    /// `Counts::flit_hops` of the run.
    pub flit_hops: u64,
}

impl Profiler {
    /// A profiler on a fabric of `nodes` nodes, `nodes_per_device` per
    /// device, the first `cus_per_device` of each device hosting a CU:
    /// every CU gets an attribution row, every L1 a sketch. `interval`
    /// is the period the engine samples at.
    pub fn new(
        interval: Cycle,
        cus_per_device: usize,
        nodes_per_device: usize,
        nodes: usize,
    ) -> Self {
        let cus = nodes / nodes_per_device * cus_per_device;
        Profiler {
            interval,
            cus_per_device,
            nodes_per_device,
            attr: vec![CuAttr::default(); cus],
            cu_counts: vec![Counts::default(); cus],
            l1_sketches: (0..nodes).map(|_| SpaceSaving::new(SKETCH_LINES)).collect(),
            l2_sketch: SpaceSaving::new(SKETCH_LINES),
            ring: SampleRing::default(),
        }
    }

    /// The attribution row of CU node `node`.
    fn row(&self, node: NodeId) -> usize {
        let n = node.index();
        n / self.nodes_per_device * self.cus_per_device + n % self.nodes_per_device
    }

    /// The node of attribution row `row` (the inverse of
    /// [`row`](Self::row)).
    fn node(&self, row: usize) -> usize {
        row / self.cus_per_device * self.nodes_per_device + row % self.cus_per_device
    }

    /// A program access to `line` from the L1 on `node`.
    fn line_access(&mut self, node: NodeId, line: LineAddr) {
        self.l1_sketches[node.index()].add(line, LineTally::access());
    }

    /// Flushes the attribution tails and assembles the report, leaving
    /// the profiler drained.
    pub fn take_report(&mut self, inputs: ReportInputs) -> ProfileReport {
        let cus = self.attr.len();
        for a in &mut self.attr {
            a.finish(inputs.end);
        }
        let rows: Vec<CuRow> = (0..cus)
            .map(|cu| {
                let mut counts = self.cu_counts[cu];
                if let Some(l1) = inputs.l1_counts.get(self.node(cu)) {
                    counts += *l1;
                }
                CuRow {
                    buckets: self.attr[cu].buckets,
                    counts,
                }
            })
            .collect();
        // Everything outside the CU rows: each device's non-CU L1 (the
        // functional CPU node), the L2, and the mesh counters — so the
        // rows plus this residual sum exactly to the global `Counts`.
        let mut other = Counts::default();
        for (node, l1) in inputs.l1_counts.iter().enumerate() {
            if node % self.nodes_per_device >= self.cus_per_device {
                other += *l1;
            }
        }
        other += inputs.l2_counts;
        other.messages_sent = inputs.messages_sent;
        other.flit_hops = inputs.flit_hops;
        // Merge the per-L1 sketches and the L2 sketch by line.
        let mut merged: Vec<(LineAddr, LineTally, u64)> = Vec::new();
        let mut sketch_updates = 0u64;
        for sk in &self.l1_sketches {
            sketch_updates += sk.total();
            merge_rows(&mut merged, sk.rows());
        }
        sketch_updates += self.l2_sketch.total();
        merge_rows(&mut merged, self.l2_sketch.rows());
        // Rank by total weight descending, line address ascending on
        // ties, so reports are deterministic.
        merged.sort_by(|a, b| (b.1.weight() + b.2, a.0).cmp(&(a.1.weight() + a.2, b.0)));
        let hot_lines = merged
            .into_iter()
            .map(|(line, t, err)| crate::report::HotLine {
                line: line.0,
                region: None,
                accesses: t.accesses,
                invalidations: t.invalidations,
                transfers: t.transfers,
                forwards: t.forwards,
                err,
            })
            .collect();
        let (samples, dropped_samples) = std::mem::take(&mut self.ring).into_parts();
        ProfileReport {
            cycles: inputs.end,
            interval: self.interval,
            cus: rows,
            other,
            hot_lines,
            sketch_capacity: SKETCH_LINES,
            sketch_updates,
            samples,
            dropped_samples,
        }
    }
}

impl TraceSink for Profiler {
    /// An issued atomic is a program access to its line.
    fn atomic_issued(&mut self, _: TbId, cu: NodeId, word: WordAddr, _: SyncOrd, _: Scope) {
        self.line_access(cu, word.line());
    }

    fn cu_tick(
        &mut self,
        node: NodeId,
        now: Cycle,
        spent: StallKind,
        next: Option<StallKind>,
        instructions: u64,
        scratch: u64,
    ) {
        let row = self.row(node);
        self.attr[row].tick(now, spent, next);
        let c = &mut self.cu_counts[row];
        c.cu_active_cycles += 1;
        c.instructions += instructions;
        c.scratch_accesses += scratch;
    }

    fn cu_state(&mut self, node: NodeId, now: Cycle, state: StallKind) {
        let row = self.row(node);
        self.attr[row].set_state(now, state);
    }

    fn interval_sample(&mut self, sample: &IntervalSample) {
        self.ring.push(*sample);
    }

    fn l1_access(&mut self, node: NodeId, line: LineAddr, _: bool) {
        self.line_access(node, line);
    }

    fn l1_write(&mut self, node: NodeId, word: WordAddr, atomic: bool) {
        // An atomic's access is counted once, at its issue.
        if !atomic {
            self.line_access(node, word.line());
        }
    }

    fn invalidated(&mut self, node: NodeId, line: LineAddr, dropped: WordMask) {
        let words = u64::from(dropped.count());
        if words > 0 {
            self.l1_sketches[node.index()].add(line, LineTally::invalidated(words));
        }
    }

    fn l2_access(&mut self, line: LineAddr) {
        self.l2_sketch.add(line, LineTally::access());
    }

    fn l2_forward(&mut self, line: LineAddr) {
        self.l2_sketch.add(line, LineTally::forward());
    }

    fn l2_transfer(&mut self, line: LineAddr, words: u32) {
        if words > 0 {
            self.l2_sketch
                .add(line, LineTally::transferred(u64::from(words)));
        }
    }
}

/// Merges sketch rows into an accumulator keyed by line (both sides
/// sorted or small; linear scan keeps it simple and deterministic).
fn merge_rows(acc: &mut Vec<(LineAddr, LineTally, u64)>, rows: Vec<(LineAddr, LineTally, u64)>) {
    for (line, tally, err) in rows {
        if let Some(e) = acc.iter_mut().find(|(l, _, _)| *l == line) {
            e.1.merge(&tally);
            e.2 += err;
        } else {
            acc.push((line, tally, err));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsim_trace::{TraceHandle, NUM_STALL_KINDS};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn inputs(end: Cycle, nodes: usize) -> ReportInputs {
        ReportInputs {
            end,
            l1_counts: vec![Counts::default(); nodes],
            l2_counts: Counts::default(),
            messages_sent: 0,
            flit_hops: 0,
        }
    }

    #[test]
    fn hooks_through_a_shared_handle_reach_one_profiler() {
        let p = Rc::new(RefCell::new(Profiler::new(1024, 2, 3, 3)));
        let h = TraceHandle::disabled().with_consumers([p.clone() as Rc<RefCell<dyn TraceSink>>]);
        let clone = h.share();
        h.cu_tick(NodeId(0), 0, StallKind::Issue, None, 1, 0);
        clone.cu_tick(NodeId(0), 1, StallKind::Issue, None, 1, 1);
        clone.l1_access(NodeId(1), LineAddr(9), true);
        let r = p.borrow_mut().take_report(inputs(100, 3));
        assert_eq!(r.cus[0].counts.instructions, 2);
        assert_eq!(r.cus[0].counts.scratch_accesses, 1);
        assert_eq!(r.cus[0].counts.cu_active_cycles, 2);
        assert_eq!(r.hot_lines.len(), 1);
        assert_eq!(r.hot_lines[0].line, 9);
    }

    #[test]
    fn rows_skip_each_devices_non_cu_node() {
        // Two devices of 4 nodes with 3 CUs each: node 5 is device 1's
        // second CU, row 4.
        let mut p = Profiler::new(1024, 3, 4, 8);
        p.cu_tick(NodeId(5), 0, StallKind::Issue, None, 1, 0);
        let mut ins = inputs(10, 8);
        for (node, l1) in ins.l1_counts.iter_mut().enumerate() {
            l1.l1_accesses = 1 << node;
        }
        let r = p.take_report(ins);
        assert_eq!(r.cus.len(), 6);
        assert_eq!(r.cus[4].counts.instructions, 1);
        // Each row carries its own node's L1; nodes 3 and 7 go to `other`.
        let rows: Vec<u64> = r.cus.iter().map(|c| c.counts.l1_accesses).collect();
        assert_eq!(rows, [1 << 0, 1 << 1, 1 << 2, 1 << 4, 1 << 5, 1 << 6]);
        assert_eq!(r.other.l1_accesses, (1 << 3) + (1 << 7));
    }

    #[test]
    fn report_charges_tails_to_cycles() {
        let mut p = Profiler::new(1024, 2, 2, 2);
        p.cu_state(NodeId(0), 0, StallKind::Issue);
        p.cu_tick(
            NodeId(0),
            10,
            StallKind::Issue,
            Some(StallKind::GlobalSpin),
            1,
            0,
        );
        let r = p.take_report(inputs(50, 2));
        for cu in &r.cus {
            let total: u64 = cu.buckets.iter().sum();
            assert_eq!(total, 50, "buckets must sum to cycles");
        }
        assert_eq!(r.cus.len(), 2);
        assert_eq!(r.cus[0].buckets.len(), NUM_STALL_KINDS);
    }
}
