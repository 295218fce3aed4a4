//! The action-sink contract of every controller entry point.
//!
//! Each entry point appends to a caller-owned `Vec<Action>`: it must
//! leave whatever the caller already put there untouched and in order,
//! append its own actions in the order they must take effect, and append
//! nothing at all on an L1 hit. The engine relies on all three — it
//! shares one sink across calls, and the push order assigns event
//! sequence numbers.
//!
//! Every case below is a closure that rebuilds its controllers from
//! scratch, sets up history with throwaway sinks, then calls the entry
//! point under test with the given sink. [`appended`] runs it into an
//! empty sink and into one pre-filled with [`prefix`], and checks that
//! the second run is exactly the prefix followed by the first run.

use gsim_mem::{CacheGeometry, MemoryImage};
use gsim_protocol::denovo::DnConfig;
use gsim_protocol::{Action, DnL1, DnL2, GpuL1, GpuL2, Issue, L1Config, L2Config};
use gsim_types::{
    AtomicOp, Component, LineAddr, Msg, MsgKind, NodeId, Region, ReqId, SyncOrd, WordAddr,
    WordMask, LINE_BYTES,
};
use std::collections::VecDeque;
use std::fmt::Debug;

/// Entries a caller already holds in the sink before the call.
fn prefix() -> Vec<Action> {
    vec![
        Action::complete(ReqId(900), 1),
        Action::send(Msg {
            src: NodeId(9),
            dst: NodeId(3),
            dst_comp: Component::L1,
            kind: MsgKind::WtAck { line: LineAddr(77) },
        }),
        Action::Complete {
            req: ReqId(901),
            value: 2,
            delay: 5,
        },
    ]
}

/// Runs `case` into an empty sink and into a pre-filled one; asserts the
/// prefix survives in order and the appended tail equals the fresh run.
/// Returns the fresh run's outcome and actions.
fn appended<T: PartialEq + Debug>(case: impl Fn(&mut Vec<Action>) -> T) -> (T, Vec<Action>) {
    let mut fresh = Vec::new();
    let outcome = case(&mut fresh);
    let mut held = prefix();
    let held_outcome = case(&mut held);
    assert_eq!(
        outcome, held_outcome,
        "a pre-filled sink changed the outcome"
    );
    let n = prefix().len();
    assert!(held.len() >= n, "entries already in the sink were removed");
    assert_eq!(
        held[..n],
        prefix()[..],
        "entries already in the sink changed"
    );
    assert_eq!(
        held[n..],
        fresh[..],
        "appended actions differ from a fresh sink"
    );
    (outcome, fresh)
}

/// The message kinds of the sends in an action list, in order.
fn send_kinds(actions: &[Action]) -> Vec<&'static str> {
    actions
        .iter()
        .map(|a| match a {
            Action::Send { msg, .. } => match msg.kind {
                MsgKind::ReadReq { .. } => "ReadReq",
                MsgKind::ReadResp { .. } => "ReadResp",
                MsgKind::WriteThrough { .. } => "WriteThrough",
                MsgKind::WtAck { .. } => "WtAck",
                MsgKind::AtomicReq { .. } => "AtomicReq",
                MsgKind::AtomicResp { .. } => "AtomicResp",
                MsgKind::RegReq { .. } => "RegReq",
                MsgKind::RegResp { .. } => "RegResp",
                MsgKind::RegFwd { .. } => "RegFwd",
                MsgKind::WbReq { .. } => "WbReq",
                MsgKind::WbAck { .. } => "WbAck",
            },
            Action::Complete { .. } => "Complete",
        })
        .collect()
}

/// The single send in an action list.
fn only_send(actions: &[Action]) -> Msg {
    match actions {
        [Action::Send { msg, .. }] => *msg,
        other => panic!("expected exactly one send, got {other:?}"),
    }
}

/// Delivers sends between GPU controllers until none remain; returns
/// the completions, in delivery order.
fn pump_gpu(l1: &mut GpuL1, l2: &mut GpuL2, actions: Vec<Action>) -> Vec<Action> {
    let mut queue: VecDeque<Action> = actions.into();
    let (mut done, mut replies) = (Vec::new(), Vec::new());
    while let Some(a) = queue.pop_front() {
        let Action::Send { msg, .. } = a else {
            done.push(a);
            continue;
        };
        match msg.dst_comp {
            Component::L2 => l2.handle(0, &msg, &mut replies),
            Component::L1 => l1.handle(&msg, &mut replies),
        }
        queue.extend(replies.drain(..));
    }
    done
}

/// Delivers sends between DeNovo controllers until none remain.
fn pump_dn(l1s: &mut [&mut DnL1], l2: &mut DnL2, actions: Vec<Action>) -> Vec<Action> {
    let mut queue: VecDeque<Action> = actions.into();
    let (mut done, mut replies) = (Vec::new(), Vec::new());
    while let Some(a) = queue.pop_front() {
        let Action::Send { msg, .. } = a else {
            done.push(a);
            continue;
        };
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
    done
}

fn gpu_l1() -> GpuL1 {
    GpuL1::new(L1Config::micro15(NodeId(0)))
}

fn gpu_l2() -> GpuL2 {
    GpuL2::new(L2Config::default(), MemoryImage::new())
}

fn dn_l1(node: u8) -> DnL1 {
    DnL1::new(DnConfig::micro15(NodeId(node)))
}

fn dn_l2() -> DnL2 {
    DnL2::new(L2Config::default(), MemoryImage::new())
}

/// A DeNovo L1 with a 1-set x 2-way cache, so a third line evicts.
fn dn_l1_two_lines() -> DnL1 {
    DnL1::new(DnConfig {
        l1: L1Config {
            geometry: CacheGeometry {
                size_bytes: 2 * LINE_BYTES,
                ways: 2,
            },
            ..L1Config::micro15(NodeId(0))
        },
        ..DnConfig::micro15(NodeId(0))
    })
}

#[test]
fn gpu_l1_load_appends_one_request_and_a_hit_appends_nothing() {
    let (issue, acts) = appended(|out| gpu_l1().load(WordAddr(3), ReqId(1), out));
    assert_eq!(issue, Issue::Pending);
    assert_eq!(send_kinds(&acts), ["ReadReq"]);
    let (issue, acts) = appended(|out| {
        let (mut l1, mut l2) = (gpu_l1(), gpu_l2());
        let mut miss = Vec::new();
        l1.load(WordAddr(3), ReqId(1), &mut miss);
        pump_gpu(&mut l1, &mut l2, miss);
        l1.load(WordAddr(4), ReqId(2), out)
    });
    assert_eq!(issue, Issue::Hit(0));
    assert!(acts.is_empty(), "a load hit appended {acts:?}");
}

#[test]
fn gpu_l1_store_appends_only_the_overflow_writethrough() {
    let (issue, acts) = appended(|out| gpu_l1().store(WordAddr(8), 42, out));
    assert_eq!(issue, Issue::Hit(0));
    assert!(acts.is_empty(), "a buffered store appended {acts:?}");
    let (_, acts) = appended(|out| {
        let mut l1 = GpuL1::new(L1Config {
            sb_entries: 1,
            ..L1Config::micro15(NodeId(0))
        });
        l1.store(LineAddr(0).word(0), 1, &mut Vec::new());
        l1.store(LineAddr(1).word(0), 2, out)
    });
    assert_eq!(send_kinds(&acts), ["WriteThrough"]);
}

#[test]
fn gpu_l1_atomics_append_the_remote_request_or_nothing_on_a_local_hit() {
    let global = |out: &mut Vec<Action>| {
        gpu_l1().atomic(
            WordAddr(4),
            AtomicOp::Add,
            [1, 0],
            SyncOrd::AcqRel,
            false,
            ReqId(1),
            out,
        )
    };
    let (issue, acts) = appended(global);
    assert_eq!(issue, Issue::Pending);
    assert_eq!(send_kinds(&acts), ["AtomicReq"]);
    let (issue, acts) = appended(|out| {
        let mut l1 = gpu_l1();
        l1.store(WordAddr(4), 10, &mut Vec::new());
        l1.atomic(
            WordAddr(4),
            AtomicOp::Add,
            [1, 0],
            SyncOrd::AcqRel,
            true,
            ReqId(2),
            out,
        )
    });
    assert_eq!(issue, Issue::Hit(10));
    assert!(acts.is_empty(), "a local atomic hit appended {acts:?}");
}

#[test]
fn gpu_l1_release_appends_writethroughs_oldest_first() {
    let (issue, acts) = appended(|out| {
        let mut l1 = gpu_l1();
        for line in [5u64, 2, 9] {
            l1.store(LineAddr(line).word(0), 1, &mut Vec::new());
        }
        l1.release(false, ReqId(1), out)
    });
    assert_eq!(issue, Issue::Pending);
    let lines: Vec<u64> = acts
        .iter()
        .map(|a| match a {
            Action::Send {
                msg:
                    Msg {
                        kind: MsgKind::WriteThrough { line, .. },
                        ..
                    },
                ..
            } => line.0,
            other => panic!("expected a writethrough, got {other:?}"),
        })
        .collect();
    assert_eq!(lines, [5, 2, 9]);
    let (issue, acts) = appended(|out| gpu_l1().release(true, ReqId(1), out));
    assert_eq!(issue, Issue::Hit(0));
    assert!(acts.is_empty());
}

#[test]
fn gpu_l1_handle_appends_completions_in_waiter_order() {
    // A fill serves its coalesced waiters in arrival order.
    let ((), acts) = appended(|out| {
        let (mut l1, mut l2) = (gpu_l1(), gpu_l2());
        let mut req = Vec::new();
        l1.load(WordAddr(1), ReqId(1), &mut req);
        l1.load(WordAddr(2), ReqId(2), &mut Vec::new());
        let mut resp = Vec::new();
        l2.handle(0, &only_send(&req), &mut resp);
        l1.handle(&only_send(&resp), out);
    });
    assert_eq!(
        acts,
        [Action::complete(ReqId(1), 0), Action::complete(ReqId(2), 0)]
    );
    // The last writethrough ack releases every blocked release, oldest
    // first.
    let ((), acts) = appended(|out| {
        let (mut l1, mut l2) = (gpu_l1(), gpu_l2());
        let mut wt = Vec::new();
        l1.store(WordAddr(0), 1, &mut Vec::new());
        l1.release(false, ReqId(1), &mut wt);
        l1.release(false, ReqId(2), &mut wt);
        let mut ack = Vec::new();
        l2.handle(0, &only_send(&wt), &mut ack);
        l1.handle(&only_send(&ack), out);
    });
    assert_eq!(
        acts,
        [Action::complete(ReqId(1), 0), Action::complete(ReqId(2), 0)]
    );
}

#[test]
fn gpu_l2_handle_appends_one_response() {
    let ((), acts) = appended(|out| {
        let mut req = Vec::new();
        gpu_l1().load(WordAddr(0), ReqId(1), &mut req);
        gpu_l2().handle(0, &only_send(&req), out);
    });
    assert_eq!(send_kinds(&acts), ["ReadResp"]);
}

#[test]
fn dn_l1_load_appends_one_request_and_a_hit_appends_nothing() {
    let (issue, acts) = appended(|out| dn_l1(0).load(WordAddr(3), Region::Default, ReqId(1), out));
    assert_eq!(issue, Issue::Pending);
    assert_eq!(send_kinds(&acts), ["ReadReq"]);
    let (issue, acts) = appended(|out| {
        let (mut l1, mut l2) = (dn_l1(0), dn_l2());
        let mut miss = Vec::new();
        l1.load(WordAddr(3), Region::Default, ReqId(1), &mut miss);
        pump_dn(&mut [&mut l1], &mut l2, miss);
        l1.load(WordAddr(4), Region::Default, ReqId(2), out)
    });
    assert_eq!(issue, Issue::Hit(0));
    assert!(acts.is_empty(), "a load hit appended {acts:?}");
}

#[test]
fn dn_l1_store_and_atomic_hits_on_owned_words_append_nothing() {
    let owned = |l1: &mut DnL1, l2: &mut DnL2| {
        let mut reg = Vec::new();
        l1.atomic(
            WordAddr(0),
            AtomicOp::Add,
            [1, 0],
            false,
            ReqId(1),
            &mut reg,
        );
        pump_dn(&mut [l1], l2, reg);
    };
    let (issue, acts) = appended(|out| {
        let (mut l1, mut l2) = (dn_l1(0), dn_l2());
        owned(&mut l1, &mut l2);
        l1.store(WordAddr(0), 5, out)
    });
    assert_eq!(issue, Issue::Hit(0));
    assert!(acts.is_empty(), "an owned store appended {acts:?}");
    let (issue, acts) = appended(|out| {
        let (mut l1, mut l2) = (dn_l1(0), dn_l2());
        owned(&mut l1, &mut l2);
        l1.atomic(WordAddr(0), AtomicOp::Add, [1, 0], false, ReqId(2), out)
    });
    assert_eq!(issue, Issue::Hit(1));
    assert!(acts.is_empty(), "an owned atomic appended {acts:?}");
    let (issue, acts) =
        appended(|out| dn_l1(0).atomic(WordAddr(0), AtomicOp::Add, [1, 0], false, ReqId(1), out));
    assert_eq!(issue, Issue::Pending);
    assert_eq!(send_kinds(&acts), ["RegReq"]);
}

#[test]
fn dn_l1_release_appends_registrations_oldest_first() {
    let (issue, acts) = appended(|out| {
        let mut l1 = dn_l1(0);
        for line in [5u64, 2, 9] {
            l1.store(LineAddr(line).word(3), 1, &mut Vec::new());
        }
        l1.release(false, ReqId(1), out)
    });
    assert_eq!(issue, Issue::Pending);
    let lines: Vec<u64> = acts
        .iter()
        .map(|a| match a {
            Action::Send {
                msg:
                    Msg {
                        kind: MsgKind::RegReq { line, .. },
                        ..
                    },
                ..
            } => line.0,
            other => panic!("expected a registration, got {other:?}"),
        })
        .collect();
    assert_eq!(lines, [5, 2, 9]);
}

#[test]
fn dn_l1_fill_appends_the_eviction_writeback_before_the_completion() {
    let ((), acts) = appended(|out| {
        let (mut l1, mut l2) = (dn_l1_two_lines(), dn_l2());
        // Own a word in both ways, then miss on a third line: the fill
        // evicts an owned line.
        let mut reg = Vec::new();
        l1.store(LineAddr(0).word(0), 1, &mut reg);
        l1.store(LineAddr(1).word(0), 2, &mut reg);
        l1.release(false, ReqId(1), &mut reg);
        pump_dn(&mut [&mut l1], &mut l2, reg);
        let mut miss = Vec::new();
        l1.load(LineAddr(2).word(0), Region::Default, ReqId(2), &mut miss);
        let mut fill = Vec::new();
        l2.handle(0, &only_send(&miss), &mut fill);
        l1.handle(&only_send(&fill), out);
    });
    assert_eq!(send_kinds(&acts), ["WbReq", "Complete"]);
    assert_eq!(acts[1], Action::complete(ReqId(2), 0));
}

#[test]
fn dn_l1_forward_appends_the_ownership_transfer() {
    let ((), acts) = appended(|out| {
        let (mut a, mut b, mut l2) = (dn_l1(1), dn_l1(2), dn_l2());
        let mut reg = Vec::new();
        a.atomic(
            WordAddr(0),
            AtomicOp::Add,
            [1, 0],
            false,
            ReqId(1),
            &mut reg,
        );
        pump_dn(&mut [&mut a, &mut b], &mut l2, reg);
        let mut steal = Vec::new();
        b.atomic(
            WordAddr(0),
            AtomicOp::Add,
            [1, 0],
            false,
            ReqId(2),
            &mut steal,
        );
        let mut fwd = Vec::new();
        l2.handle(0, &only_send(&steal), &mut fwd);
        a.handle(&only_send(&fwd), out);
    });
    let msg = only_send(&acts);
    assert_eq!(msg.dst, NodeId(2));
    assert!(matches!(msg.kind, MsgKind::RegResp { sync: true, .. }));
}

#[test]
fn dn_l2_register_appends_grant_then_forward_then_ack() {
    let ((), acts) = appended(|out| {
        let (mut a, mut l2) = (dn_l1(1), dn_l2());
        // Node 1 owns word 0; node 2 then registers words 0 and 1.
        let mut reg = Vec::new();
        a.store(WordAddr(0), 7, &mut reg);
        a.release(false, ReqId(1), &mut reg);
        pump_dn(&mut [&mut a], &mut l2, reg);
        let req = Msg {
            src: NodeId(2),
            dst: NodeId(0),
            dst_comp: Component::L2,
            kind: MsgKind::RegReq {
                line: LineAddr(0),
                mask: [0, 1].into_iter().collect::<WordMask>(),
                sync: false,
                requester: NodeId(2),
            },
        };
        l2.handle(0, &req, out);
    });
    assert_eq!(send_kinds(&acts), ["RegResp", "RegFwd", "RegResp"]);
    let dsts: Vec<NodeId> = acts
        .iter()
        .map(|a| match a {
            Action::Send { msg, .. } => msg.dst,
            Action::Complete { .. } => unreachable!(),
        })
        .collect();
    assert_eq!(dsts, [NodeId(2), NodeId(1), NodeId(2)]);
}
