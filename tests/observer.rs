//! A new view is one consumer: a `TraceSink` that overrides the hooks it
//! reads, installed through `TraceHandle::with_sink`, with no change to
//! any component. This one counts L1 load hits and misses and mesh
//! messages, and must agree with the `Counts` the run reports.

use gpu_denovo::trace::{TraceHandle, TraceSink};
use gpu_denovo::types::{Cycle, LineAddr, Msg, NodeId, ReqId, WordAddr};
use gpu_denovo::{registry, ProtocolConfig, Scale, Simulator, SystemConfig};
use std::cell::RefCell;
use std::rc::Rc;

/// What the consumer counted.
#[derive(Debug, Default)]
struct Tally {
    hits: u64,
    missed_accesses: u64,
    misses: u64,
    messages: u64,
}

/// The consumer: a shared tally the test reads back after the run.
#[derive(Debug)]
struct Counter(Rc<RefCell<Tally>>);

impl TraceSink for Counter {
    fn l1_access(&mut self, _: NodeId, _: LineAddr, hit: bool) {
        let mut t = self.0.borrow_mut();
        if hit {
            t.hits += 1;
        } else {
            t.missed_accesses += 1;
        }
    }

    fn l1_miss(&mut self, _: NodeId, _: WordAddr, _: ReqId) {
        self.0.borrow_mut().misses += 1;
    }

    fn msg_sent(&mut self, _: &Msg, _: Cycle, _: Cycle, _: Cycle, _: u32) {
        self.0.borrow_mut().messages += 1;
    }
}

#[test]
fn a_consumer_installed_through_the_handle_sees_every_hook() {
    for bench in ["SPM_G", "UTS"] {
        let b = registry::by_name(bench).expect("known benchmark");
        for p in ProtocolConfig::ALL {
            let tally = Rc::new(RefCell::new(Tally::default()));
            let handle = TraceHandle::with_sink(Box::new(Counter(tally.clone())));
            let stats = Simulator::new(SystemConfig::micro15(p))
                .run_traced(&(b.build)(Scale::Tiny), handle)
                .unwrap_or_else(|e| panic!("{bench} under {p}: {e}"));
            let t = tally.borrow();
            let c = &stats.counts;
            assert!(c.l1_load_hits > 0 && c.messages_sent > 0, "{bench}/{p}");
            assert_eq!(t.hits, c.l1_load_hits, "load hits, {bench}/{p}");
            assert_eq!(t.missed_accesses, c.l1_load_misses, "{bench}/{p}");
            assert_eq!(t.misses, c.l1_load_misses, "load misses, {bench}/{p}");
            assert_eq!(t.messages, c.messages_sent, "messages, {bench}/{p}");
        }
    }
}
