//! A guided tour of the two coherence protocols at message granularity:
//! drive the controllers *directly* (no simulator) through the scenarios
//! that define the paper's comparison, printing every message.
//!
//! ```text
//! cargo run --example protocol_tour
//! ```

use gpu_denovo::mem::MemoryImage;
use gpu_denovo::protocol::denovo::DnConfig;
use gpu_denovo::protocol::{Action, DnL1, DnL2, GpuL1, GpuL2, Issue, L1Config, L2Config};
use gpu_denovo::types::{
    AtomicOp, Component, Msg, NodeId, Region, ReqId, SyncOrd, Value, WordAddr,
};

/// Delivers queued sends until quiescence, narrating each hop.
/// Controllers append their reactions to the caller's sink (`queue`
/// here), so delivering a message simply grows the work list.
fn pump_gpu(l1: &mut GpuL1, l2: &mut GpuL2, mut queue: Vec<Action>) {
    while let Some(a) = queue.pop() {
        match a {
            Action::Send { msg, .. } => {
                narrate(&msg);
                match msg.dst_comp {
                    Component::L2 => l2.handle(0, &msg, &mut queue),
                    Component::L1 => l1.handle(&msg, &mut queue),
                }
            }
            Action::Complete { req, value, .. } => {
                println!("    -> {req:?} completes with value {value}");
            }
        }
    }
}

fn pump_dn(l1s: &mut [&mut DnL1], l2: &mut DnL2, actions: Vec<Action>) {
    let mut queue: std::collections::VecDeque<Action> = actions.into();
    let mut replies = Vec::new();
    while let Some(a) = queue.pop_front() {
        match a {
            Action::Send { msg, .. } => {
                narrate(&msg);
                match msg.dst_comp {
                    Component::L2 => l2.handle(0, &msg, &mut replies),
                    Component::L1 => l1s
                        .iter_mut()
                        .find(|l| l.chassis().node() == msg.dst)
                        .expect("known L1")
                        .handle(&msg, &mut replies),
                }
                queue.extend(replies.drain(..));
            }
            Action::Complete { req, value, .. } => {
                println!("    -> {req:?} completes with value {value}");
            }
        }
    }
}

fn narrate(msg: &Msg) {
    println!("    {} -> {}: {}", msg.src, msg.dst, kind_name(msg));
}

fn kind_name(msg: &Msg) -> String {
    let k = format!("{:?}", msg.kind);
    k.split_whitespace()
        .next()
        .unwrap_or("?")
        .trim_end_matches('{')
        .to_string()
        + &format!(" [{} flits]", msg.flits())
}

fn main() {
    let word = WordAddr(0);

    println!("=== Conventional GPU coherence (GD): a lock acquire ===\n");
    println!("The atomic executes remotely at the L2 bank; the acquire");
    println!("then flash-invalidates the whole L1.\n");
    let mut g1 = GpuL1::new(L1Config::micro15(NodeId(2)));
    let mut g2 = GpuL2::new(L2Config::default(), MemoryImage::new());
    let mut actions = Vec::new();
    let issue = g1.atomic(
        word,
        AtomicOp::Exch,
        [1, 0],
        SyncOrd::AcqRel,
        false,
        ReqId(1),
        &mut actions,
    );
    assert_eq!(issue, Issue::Pending);
    pump_gpu(&mut g1, &mut g2, actions);
    g1.acquire(false);
    println!(
        "    (flash invalidation: {} words dropped)\n",
        g1.chassis().counts().words_invalidated
    );
    println!("Every later acquire repeats the same L2 round trip: GPU");
    println!("coherence cannot reuse synchronization variables in the L1.\n");

    println!("=== DeNovo (DD): the same lock, with ownership ===\n");
    let mut a = DnL1::new(DnConfig::micro15(NodeId(2)));
    let mut b = DnL1::new(DnConfig::micro15(NodeId(7)));
    let mut reg = DnL2::new(L2Config::default(), MemoryImage::new());
    println!("First access registers the word (control traffic only):");
    let mut actions = Vec::new();
    a.atomic(word, AtomicOp::Exch, [1, 0], false, ReqId(2), &mut actions);
    pump_dn(&mut [&mut a, &mut b], &mut reg, actions);
    println!("\nSecond access from the same CU: a pure L1 hit.");
    let mut actions = Vec::new();
    let issue = a.atomic(word, AtomicOp::Write, [0, 0], false, ReqId(3), &mut actions);
    assert!(actions.is_empty());
    println!("    -> {issue:?} (no messages at all)");
    println!("\nAnother CU takes the lock: the registry forwards to the");
    println!("current owner, which transfers ownership directly:");
    b.atomic(word, AtomicOp::Exch, [1, 0], false, ReqId(4), &mut actions);
    pump_dn(&mut [&mut a, &mut b], &mut reg, actions);

    println!("\n=== DeNovo: decoupled transfer granularity ===\n");
    println!("CU2 owns half a line; CU7 reads one word. The registry");
    println!("supplies what it has and forwards only the owned words:");
    let mut actions = Vec::new();
    for i in 0..8 {
        a.store(WordAddr(64 + i), i as Value, &mut actions);
    }
    a.release(false, ReqId(5), &mut actions);
    pump_dn(&mut [&mut a, &mut b], &mut reg, actions);
    println!();
    let mut actions = Vec::new();
    b.load(WordAddr(64 + 15), Region::Default, ReqId(6), &mut actions);
    pump_dn(&mut [&mut a, &mut b], &mut reg, actions);
    println!("\nCompare the flit counts above with a GPU full-line fill");
    println!("(5 flits every time): DeNovo moves only useful words.");
}
