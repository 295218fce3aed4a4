//! The engine-facing profiler: shared collection state behind a
//! cheap-to-clone handle.
//!
//! [`ProfHandle`] mirrors `gsim-trace`'s `TraceHandle`: an
//! `Option<Rc<RefCell<Profiler>>>`. The engine holds one handle and
//! every cache controller holds a clone, so hooks anywhere in the
//! memory system reach the same sketches. A disabled handle is `None`
//! and every hook is one branch.
//!
//! The profiler is observation-only by construction: no method
//! schedules an event, touches protocol state, or returns anything the
//! engine acts on (other than [`ProfHandle::is_enabled`], which is
//! constant for a run).

use crate::attr::{CuAttr, StallKind};
use crate::interval::{IntervalRing, IntervalSample};
use crate::report::{CuRow, ProfileReport};
use crate::sketch::{LineTally, SpaceSaving};
use crate::spec::{ProfSpec, SKETCH_LINES};
use gsim_types::{Counts, Cycle, LineAddr};
use std::cell::RefCell;
use std::rc::Rc;

/// The collection state of one profiled run.
#[derive(Clone, Debug)]
pub struct Profiler {
    spec: ProfSpec,
    gpu_cus: usize,
    attr: Vec<CuAttr>,
    cu_counts: Vec<Counts>,
    l1_sketches: Vec<SpaceSaving>,
    l2_sketch: SpaceSaving,
    ring: IntervalRing,
}

impl Profiler {
    fn new(spec: ProfSpec, gpu_cus: usize, nodes: usize) -> Self {
        Profiler {
            spec,
            gpu_cus,
            attr: vec![CuAttr::default(); gpu_cus],
            cu_counts: vec![Counts::default(); gpu_cus],
            l1_sketches: (0..nodes).map(|_| SpaceSaving::new(SKETCH_LINES)).collect(),
            l2_sketch: SpaceSaving::new(SKETCH_LINES),
            ring: IntervalRing::default(),
        }
    }
}

/// End-of-run inputs the engine owns and the profiler needs to build
/// its report: the final cycle and the counters of the non-engine
/// components.
#[derive(Clone, Debug)]
pub struct ReportInputs {
    /// `SimStats::cycles` of the run.
    pub end: Cycle,
    /// Final per-node L1 counters (all nodes, CU order first).
    pub l1_counts: Vec<Counts>,
    /// Final L2 counters.
    pub l2_counts: Counts,
    /// `Counts::messages_sent` of the run.
    pub messages_sent: u64,
    /// `Counts::flit_hops` of the run.
    pub flit_hops: u64,
}

/// A shared, cheaply clonable reference to a [`Profiler`] — or nothing.
#[derive(Clone, Debug, Default)]
pub struct ProfHandle {
    inner: Option<Rc<RefCell<Profiler>>>,
}

impl ProfHandle {
    /// A disabled handle: every hook is a no-op.
    pub fn disabled() -> Self {
        ProfHandle { inner: None }
    }

    /// A handle collecting under `spec`. `gpu_cus` CUs get attribution
    /// rows, `nodes` L1s get sketches.
    pub fn new(spec: ProfSpec, gpu_cus: usize, nodes: usize) -> Self {
        ProfHandle {
            inner: Some(Rc::new(RefCell::new(Profiler::new(spec, gpu_cus, nodes)))),
        }
    }

    /// Another handle to the same profiler (what `set_prof` clones into
    /// each cache controller).
    pub fn share(&self) -> ProfHandle {
        ProfHandle {
            inner: self.inner.clone(),
        }
    }

    /// Whether profiling is collecting.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The sampling interval, or `Cycle::MAX` when disabled (so the
    /// engine's `now >= next_sample` test is always false).
    pub fn sample_interval(&self) -> Cycle {
        match &self.inner {
            Some(p) => p.borrow().spec.interval.max(1),
            None => Cycle::MAX,
        }
    }

    // ---- cycle attribution (engine hooks) ----

    /// An issue tick on `cu` at `now`: charge the issued cycle to
    /// `bucket` and enter `next` (`None` keeps the state a kernel
    /// boundary set this cycle).
    #[inline]
    pub fn tick(&self, cu: usize, now: Cycle, bucket: StallKind, next: Option<StallKind>) {
        if let Some(p) = &self.inner {
            p.borrow_mut().attr[cu].tick(now, bucket, next);
        }
    }

    /// A CU state transition at `now` (completion, wake, kernel
    /// boundary).
    #[inline]
    pub fn set_state(&self, cu: usize, now: Cycle, kind: StallKind) {
        if let Some(p) = &self.inner {
            p.borrow_mut().attr[cu].set_state(now, kind);
        }
    }

    // ---- per-CU engine counters ----

    /// One instruction retired on `cu`.
    #[inline]
    pub fn instr(&self, cu: usize) {
        if let Some(p) = &self.inner {
            p.borrow_mut().cu_counts[cu].instructions += 1;
        }
    }

    /// One scratchpad access on `cu`.
    #[inline]
    pub fn scratch(&self, cu: usize) {
        if let Some(p) = &self.inner {
            p.borrow_mut().cu_counts[cu].scratch_accesses += 1;
        }
    }

    /// One active (issuing) cycle on `cu`.
    #[inline]
    pub fn cu_active(&self, cu: usize) {
        if let Some(p) = &self.inner {
            p.borrow_mut().cu_counts[cu].cu_active_cycles += 1;
        }
    }

    // ---- hot-line sketches (engine + protocol hooks) ----

    /// A program access to `line` from the L1 at `node`.
    #[inline]
    pub fn line_access(&self, node: usize, line: LineAddr) {
        if let Some(p) = &self.inner {
            p.borrow_mut().l1_sketches[node].add(line, LineTally::access());
        }
    }

    /// `words` of `line` invalidated by an acquire sweep at `node`.
    #[inline]
    pub fn line_invalidated(&self, node: usize, line: LineAddr, words: u64) {
        if words == 0 {
            return;
        }
        if let Some(p) = &self.inner {
            p.borrow_mut().l1_sketches[node].add(line, LineTally::invalidated(words));
        }
    }

    /// An L2/registry operation on `line`.
    #[inline]
    pub fn l2_access(&self, line: LineAddr) {
        if let Some(p) = &self.inner {
            p.borrow_mut().l2_sketch.add(line, LineTally::access());
        }
    }

    /// `words` of `line` changed registered owner (ping-pong).
    #[inline]
    pub fn ownership_transfer(&self, line: LineAddr, words: u64) {
        if words == 0 {
            return;
        }
        if let Some(p) = &self.inner {
            p.borrow_mut()
                .l2_sketch
                .add(line, LineTally::transferred(words));
        }
    }

    /// A registry forward targeting `line`.
    #[inline]
    pub fn registry_forward(&self, line: LineAddr) {
        if let Some(p) = &self.inner {
            p.borrow_mut().l2_sketch.add(line, LineTally::forward());
        }
    }

    // ---- interval sampling ----

    /// Records one interval sample (the engine gathers the values).
    pub fn record_sample(&self, s: IntervalSample) {
        if let Some(p) = &self.inner {
            p.borrow_mut().ring.push(s);
        }
    }

    // ---- report ----

    /// Flushes the attribution tails and assembles the report. Leaves
    /// the profiler drained; `None` when disabled.
    pub fn take_report(&self, inputs: ReportInputs) -> Option<ProfileReport> {
        let p = self.inner.as_ref()?;
        let mut p = p.borrow_mut();
        let gpu_cus = p.gpu_cus;
        let spec = p.spec;
        for a in &mut p.attr {
            a.finish(inputs.end);
        }
        let cus: Vec<CuRow> = (0..gpu_cus)
            .map(|cu| {
                let mut counts = p.cu_counts[cu];
                if let Some(l1) = inputs.l1_counts.get(cu) {
                    counts += *l1;
                }
                CuRow {
                    buckets: p.attr[cu].buckets,
                    counts,
                }
            })
            .collect();
        // Everything outside the CU rows: non-CU L1s (the functional
        // CPU node), the L2, and the mesh counters — so the rows plus
        // this residual sum exactly to the global `Counts`.
        let mut other = Counts::default();
        for l1 in inputs.l1_counts.iter().skip(gpu_cus) {
            other += *l1;
        }
        other += inputs.l2_counts;
        other.messages_sent = inputs.messages_sent;
        other.flit_hops = inputs.flit_hops;
        // Merge the per-L1 sketches and the L2 sketch by line.
        let mut merged: Vec<(LineAddr, LineTally, u64)> = Vec::new();
        let mut sketch_updates = 0u64;
        for sk in &p.l1_sketches {
            sketch_updates += sk.total();
            merge_rows(&mut merged, sk.rows());
        }
        sketch_updates += p.l2_sketch.total();
        merge_rows(&mut merged, p.l2_sketch.rows());
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
        let ring = std::mem::take(&mut p.ring);
        let (samples, dropped_samples) = ring.into_parts();
        Some(ProfileReport {
            cycles: inputs.end,
            interval: spec.interval.max(1),
            cus,
            other,
            hot_lines,
            sketch_capacity: SKETCH_LINES,
            sketch_updates,
            samples,
            dropped_samples,
        })
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
    use crate::attr::NUM_STALL_KINDS;

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
    fn disabled_handle_is_inert() {
        let h = ProfHandle::disabled();
        assert!(!h.is_enabled());
        assert_eq!(h.sample_interval(), Cycle::MAX);
        h.tick(0, 5, StallKind::Issue, None);
        h.instr(0);
        h.line_access(0, LineAddr(1));
        assert!(h.take_report(inputs(10, 2)).is_none());
    }

    #[test]
    fn shared_handles_reach_one_profiler() {
        let h = ProfHandle::new(ProfSpec::default(), 2, 3);
        let clone = h.share();
        h.instr(0);
        clone.instr(0);
        clone.line_access(1, LineAddr(9));
        let r = h.take_report(inputs(100, 3)).unwrap();
        assert_eq!(r.cus[0].counts.instructions, 2);
        assert_eq!(r.hot_lines.len(), 1);
        assert_eq!(r.hot_lines[0].line, 9);
    }

    #[test]
    fn report_charges_tails_to_cycles() {
        let h = ProfHandle::new(ProfSpec::default(), 2, 2);
        h.set_state(0, 0, StallKind::Issue);
        h.tick(0, 10, StallKind::Issue, Some(StallKind::GlobalSpin));
        let r = h.take_report(inputs(50, 2)).unwrap();
        for cu in &r.cus {
            let total: u64 = cu.buckets.iter().sum();
            assert_eq!(total, 50, "buckets must sum to cycles");
        }
        assert_eq!(r.cus.len(), 2);
        assert_eq!(r.cus[0].buckets.len(), NUM_STALL_KINDS);
    }
}
