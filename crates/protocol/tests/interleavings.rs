//! Randomized interleaving exploration of the coherence protocols.
//!
//! The simulation engine delivers messages in one deterministic order per
//! run; this harness instead explores *many* delivery orders directly at
//! the controller level. The only constraint it preserves is the one the
//! real system guarantees — per-(source, destination) FIFO — and within
//! that it picks the next deliverable message at random (seeded).
//!
//! Under every explored order, the protocol invariants must hold: atomic
//! read-modify-writes on one word must linearize (sum conservation and
//! per-L1 completion order), ownership must end up in exactly one place,
//! and every request must complete. This drives DeNovoSync0's
//! registration forwarding and distributed queueing through interleavings
//! far stranger than any single timed run produces.

use gsim_mem::MemoryImage;
use gsim_protocol::denovo::DnConfig;
use gsim_protocol::{Action, DnL1, DnL2, GpuL1, GpuL2, Issue, L1Config, L2Config};
use gsim_types::{AtomicOp, Component, Msg, NodeId, ReqId, Rng64, SyncOrd, Value, WordAddr};
use std::collections::VecDeque;

/// Runs one core-side entry point against a fresh sink, returning its
/// outcome and the actions it appended.
fn run_op(f: impl FnOnce(&mut Vec<Action>) -> Issue) -> (Issue, Vec<Action>) {
    let mut out = Vec::new();
    let issue = f(&mut out);
    (issue, out)
}

/// An in-flight message network preserving per-channel FIFO but
/// otherwise delivering in the order a seeded RNG picks.
struct ChaosNet {
    /// One FIFO per (src, dst) channel.
    channels: Vec<((NodeId, NodeId), VecDeque<Msg>)>,
    rng: Rng64,
}

impl ChaosNet {
    fn new(seed: u64) -> Self {
        ChaosNet {
            channels: Vec::new(),
            rng: Rng64::seed_from_u64(seed),
        }
    }

    fn push(&mut self, msg: Msg) {
        let key = (msg.src, msg.dst);
        if let Some((_, q)) = self.channels.iter_mut().find(|(k, _)| *k == key) {
            q.push_back(msg);
        } else {
            self.channels.push((key, VecDeque::from([msg])));
        }
    }

    fn push_actions(
        &mut self,
        actions: impl IntoIterator<Item = Action>,
        done: &mut Vec<(ReqId, Value)>,
    ) {
        for a in actions {
            match a {
                Action::Send { msg, .. } => self.push(msg),
                Action::Complete { req, value, .. } => done.push((req, value)),
            }
        }
    }

    /// Pops the head of a randomly chosen non-empty channel.
    fn pop(&mut self) -> Option<Msg> {
        self.channels.retain(|(_, q)| !q.is_empty());
        if self.channels.is_empty() {
            return None;
        }
        let i = self.rng.gen_usize(0, self.channels.len());
        self.channels[i].1.pop_front()
    }
}

/// Runs the DeNovo system to quiescence under one random delivery order.
fn pump_denovo(
    net: &mut ChaosNet,
    l1s: &mut [DnL1],
    l2: &mut DnL2,
    done: &mut Vec<(ReqId, Value)>,
) {
    let mut replies = Vec::new();
    while let Some(msg) = net.pop() {
        match msg.dst_comp {
            Component::L2 => l2.handle(0, &msg, &mut replies),
            Component::L1 => l1s
                .iter_mut()
                .find(|l| l.chassis().node() == msg.dst)
                .expect("known L1")
                .handle(&msg, &mut replies),
        }
        net.push_actions(replies.drain(..), done);
    }
}

fn pump_gpu(net: &mut ChaosNet, l1s: &mut [GpuL1], l2: &mut GpuL2, done: &mut Vec<(ReqId, Value)>) {
    let mut replies = Vec::new();
    while let Some(msg) = net.pop() {
        match msg.dst_comp {
            Component::L2 => l2.handle(0, &msg, &mut replies),
            Component::L1 => l1s
                .iter_mut()
                .find(|l| l.chassis().node() == msg.dst)
                .expect("known L1")
                .handle(&msg, &mut replies),
        }
        net.push_actions(replies.drain(..), done);
    }
}

/// The core DeNovoSync0 scenario: many L1s issue fetch-and-adds on one
/// word, all requests in flight at once, delivered chaotically.
fn denovo_racy_adds(seed: u64, n_l1s: usize, adds_per_l1: usize) {
    let mut l1s: Vec<DnL1> = (0..n_l1s as u8)
        .map(|i| DnL1::new(DnConfig::micro15(NodeId(i))))
        .collect();
    let mut l2 = DnL2::new(L2Config::default(), MemoryImage::new());
    let mut net = ChaosNet::new(seed);
    let mut done = Vec::new();
    let word = WordAddr(5);

    let mut expected_reqs = Vec::new();
    let mut req = 0u64;
    for round in 0..adds_per_l1 {
        for l1 in l1s.iter_mut() {
            req += 1;
            let (issue, actions) =
                run_op(|o| l1.atomic(word, AtomicOp::Add, [1, 0], false, ReqId(req), o));
            expected_reqs.push(ReqId(req));
            match issue {
                Issue::Hit(_) => done.push((ReqId(req), u32::MAX)), // value checked via sum
                Issue::Pending => {}
                other => panic!("round {round}: unexpected {other:?}"),
            }
            net.push_actions(actions, &mut done);
        }
        // Interleave deliveries between issue rounds too.
        for _ in 0..3 {
            if let Some(msg) = net.pop() {
                let mut replies = Vec::new();
                match msg.dst_comp {
                    Component::L2 => l2.handle(0, &msg, &mut replies),
                    Component::L1 => l1s
                        .iter_mut()
                        .find(|l| l.chassis().node() == msg.dst)
                        .expect("known L1")
                        .handle(&msg, &mut replies),
                }
                net.push_actions(replies, &mut done);
            }
        }
    }
    pump_denovo(&mut net, &mut l1s, &mut l2, &mut done);

    // Every request completed exactly once.
    assert_eq!(
        done.len(),
        expected_reqs.len(),
        "lost or duplicated completions"
    );
    // Exactly one L1 owns the word, holding the full sum.
    let total = (n_l1s * adds_per_l1) as u32;
    let owners: Vec<_> = l1s
        .iter()
        .flat_map(|l| l.owned_words())
        .filter(|(w, _)| *w == word)
        .collect();
    assert_eq!(owners.len(), 1, "exactly one owner at quiescence");
    assert_eq!(
        owners[0].1, total,
        "no increment lost under any interleaving"
    );
    for l in &l1s {
        assert!(l.quiesced(), "L1 {} left residue", l.chassis().node());
    }
}

/// The GPU analogue: racy L2 atomics with chaotic delivery.
fn gpu_racy_adds(seed: u64, n_l1s: usize, adds_per_l1: usize) {
    let mut l1s: Vec<GpuL1> = (0..n_l1s as u8)
        .map(|i| GpuL1::new(L1Config::micro15(NodeId(i))))
        .collect();
    let mut l2 = GpuL2::new(L2Config::default(), MemoryImage::new());
    let mut net = ChaosNet::new(seed);
    let mut done = Vec::new();
    let word = WordAddr(5);

    let mut issued = 0usize;
    let mut req = 0u64;
    for _ in 0..adds_per_l1 {
        for l1 in l1s.iter_mut() {
            req += 1;
            let (issue, actions) = run_op(|o| {
                l1.atomic(
                    word,
                    AtomicOp::Add,
                    [1, 0],
                    SyncOrd::AcqRel,
                    false,
                    ReqId(req),
                    o,
                )
            });
            assert_eq!(issue, Issue::Pending);
            issued += 1;
            net.push_actions(actions, &mut done);
        }
    }
    pump_gpu(&mut net, &mut l1s, &mut l2, &mut done);
    assert_eq!(done.len(), issued);
    l2.chassis_mut().flush_to_memory();
    assert_eq!(
        l2.chassis().memory().read_word(word),
        (n_l1s * adds_per_l1) as u32,
        "sum conserved at the L2"
    );
    for l in &l1s {
        assert!(l.quiesced());
    }
}

/// Derives 24 (seed, n_l1s, adds) cases from a master seed — the
/// offline replacement for the old proptest generators; every case is
/// deterministic and reproducible from the printed parameters.
fn explore(master: u64, f: impl Fn(u64, usize, usize)) {
    let mut rng = Rng64::seed_from_u64(master);
    for case in 0..24 {
        let seed = rng.next_u64();
        let n_l1s = rng.gen_usize(2, 8);
        let adds = rng.gen_usize(1, 6);
        eprintln!("case {case}: seed={seed:#x} n_l1s={n_l1s} adds={adds}");
        f(seed, n_l1s, adds);
    }
}

#[test]
fn denovo_sync_linearizes_under_any_interleaving() {
    explore(0xde0, denovo_racy_adds);
}

#[test]
fn gpu_atomics_linearize_under_any_interleaving() {
    explore(0x6b0, gpu_racy_adds);
}

/// A deterministic heavy case for the plain test run.
#[test]
fn denovo_fifteen_way_contention() {
    denovo_racy_adds(0x1234, 15, 8);
}

#[test]
fn gpu_fifteen_way_contention() {
    gpu_racy_adds(0x1234, 15, 8);
}
