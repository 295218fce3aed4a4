//! The profiler: a [`TraceSink`] consumer collecting cycle
//! attribution, hot-line sketches and interval samples.
//!
//! The caller installs one [`Profiler`] on the trace handle of the run
//! and keeps an `Rc` to it to take the report; every component reaches
//! it through the hooks it already reports. It only observes: no hook
//! schedules an event, touches protocol state, or returns anything the
//! engine acts on.

use crate::attr::CuAttr;
use crate::report::{CuRow, ProfileReport};
use crate::sketch::{LineTally, SpaceSaving, SKETCH_LINES};
use gsim_trace::{IntervalSample, RunEnd, RunShape, SampleRing, StallKind, TraceSink};
use gsim_types::{Counts, Cycle, LineAddr, NodeId, Scope, SyncOrd, TbId, WordAddr, WordMask};

/// The collection state of one profiled run.
#[derive(Clone, Debug)]
pub struct Profiler {
    /// The sampling interval it declares, echoed in the report.
    interval: Cycle,
    /// The machine profiled: a CU node's attribution row is its dense
    /// CU index.
    shape: RunShape,
    attr: Vec<CuAttr>,
    cu_counts: Vec<Counts>,
    l1_sketches: Vec<SpaceSaving>,
    l2_sketch: SpaceSaving,
    ring: SampleRing<IntervalSample>,
    /// The run's end, once it has finished.
    end: RunEnd,
}

impl Profiler {
    /// A profiler for one run on a machine of `shape`, sampling every
    /// `interval` cycles (0 is taken as 1): every CU gets an attribution
    /// row, every L1 a sketch.
    pub fn new(shape: &RunShape, interval: Cycle) -> Self {
        Profiler {
            interval: interval.max(1),
            shape: *shape,
            attr: vec![CuAttr::default(); shape.cus()],
            cu_counts: vec![Counts::default(); shape.cus()],
            l1_sketches: (0..shape.nodes)
                .map(|_| SpaceSaving::new(SKETCH_LINES))
                .collect(),
            l2_sketch: SpaceSaving::new(SKETCH_LINES),
            ring: SampleRing::default(),
            end: RunEnd::default(),
        }
    }

    /// A program access to `line` from the L1 on `node`.
    fn line_access(&mut self, node: NodeId, line: LineAddr) {
        self.l1_sketches[node.index()].add(line, LineTally::access());
    }

    /// Flushes the attribution tails and assembles the report of the
    /// finished run, leaving the profiler drained.
    pub fn take_report(&mut self) -> ProfileReport {
        let end = std::mem::take(&mut self.end);
        let cus = self.attr.len();
        for a in &mut self.attr {
            a.finish(end.cycles);
        }
        let rows: Vec<CuRow> = (0..cus)
            .map(|cu| {
                let mut counts = self.cu_counts[cu];
                if let Some(l1) = end.l1_counts.get(self.shape.node_of(cu)) {
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
        for (node, l1) in end.l1_counts.iter().enumerate() {
            if !self.shape.is_cu(node) {
                other += *l1;
            }
        }
        other += end.l2_counts;
        other.messages_sent = end.messages_sent;
        other.flit_hops = end.flit_hops;
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
            cycles: end.cycles,
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
    fn sample_interval(&self) -> Option<Cycle> {
        Some(self.interval)
    }

    fn run_finished(&mut self, end: &RunEnd) {
        self.end = end.clone();
    }

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
        let row = self.shape.cu_of(node.index());
        self.attr[row].tick(now, spent, next);
        let c = &mut self.cu_counts[row];
        c.cu_active_cycles += 1;
        c.instructions += instructions;
        c.scratch_accesses += scratch;
    }

    fn cu_state(&mut self, node: NodeId, now: Cycle, state: StallKind) {
        let row = self.shape.cu_of(node.index());
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

    fn end(cycles: Cycle, nodes: usize) -> RunEnd {
        RunEnd {
            cycles,
            l1_counts: vec![Counts::default(); nodes],
            ..RunEnd::default()
        }
    }

    #[test]
    fn hooks_through_a_shared_handle_reach_one_profiler() {
        let p = Rc::new(RefCell::new(Profiler::new(
            &RunShape::new(3, 3, 2, 26),
            1024,
        )));
        let h = TraceHandle::disabled().with_consumers([p.clone() as Rc<RefCell<dyn TraceSink>>]);
        assert_eq!(h.sample_interval(), Some(1024), "the profiler's clock");
        let clone = h.share();
        h.cu_tick(NodeId(0), 0, StallKind::Issue, None, 1, 0);
        clone.cu_tick(NodeId(0), 1, StallKind::Issue, None, 1, 1);
        clone.l1_access(NodeId(1), LineAddr(9), true);
        clone.run_finished(&end(100, 3));
        let r = p.borrow_mut().take_report();
        assert_eq!(r.cycles, 100);
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
        let mut p = Profiler::new(&RunShape::new(8, 4, 3, 26), 1024);
        p.cu_tick(NodeId(5), 0, StallKind::Issue, None, 1, 0);
        let mut fin = end(10, 8);
        for (node, l1) in fin.l1_counts.iter_mut().enumerate() {
            l1.l1_accesses = 1 << node;
        }
        p.run_finished(&fin);
        let r = p.take_report();
        assert_eq!(r.cus.len(), 6);
        assert_eq!(r.cus[4].counts.instructions, 1);
        // Each row carries its own node's L1; nodes 3 and 7 go to `other`.
        let rows: Vec<u64> = r.cus.iter().map(|c| c.counts.l1_accesses).collect();
        assert_eq!(rows, [1 << 0, 1 << 1, 1 << 2, 1 << 4, 1 << 5, 1 << 6]);
        assert_eq!(r.other.l1_accesses, (1 << 3) + (1 << 7));
    }

    #[test]
    fn report_charges_tails_to_cycles() {
        let mut p = Profiler::new(&RunShape::new(2, 2, 2, 26), 1024);
        p.cu_state(NodeId(0), 0, StallKind::Issue);
        p.cu_tick(
            NodeId(0),
            10,
            StallKind::Issue,
            Some(StallKind::GlobalSpin),
            1,
            0,
        );
        p.run_finished(&end(50, 2));
        let r = p.take_report();
        for cu in &r.cus {
            let total: u64 = cu.buckets.iter().sum();
            assert_eq!(total, 50, "buckets must sum to cycles");
        }
        assert_eq!(r.cus.len(), 2);
        assert_eq!(r.cus[0].buckets.len(), NUM_STALL_KINDS);
    }
}
