//! Race-window tests: drive the controllers through the message
//! interleavings that broke earlier designs (see DESIGN.md §5b), holding
//! messages back and delivering them out of the convenient order.

use gsim_mem::MemoryImage;
use gsim_protocol::denovo::DnConfig;
use gsim_protocol::{Action, DnL1, DnL2, GpuL1, GpuL2, Issue, L1Config, L2Config};
use gsim_types::{
    AtomicOp, Component, LineAddr, Msg, NodeId, Region, ReqId, SyncOrd, Value, WordAddr,
};

/// Runs one core-side entry point against a fresh sink, returning its
/// outcome and the actions it appended.
fn run_op(f: impl FnOnce(&mut Vec<Action>) -> Issue) -> (Issue, Vec<Action>) {
    let mut out = Vec::new();
    let issue = f(&mut out);
    (issue, out)
}

/// Runs one message handler against a fresh sink, returning the
/// actions it appended.
fn run_handler(f: impl FnOnce(&mut Vec<Action>)) -> Vec<Action> {
    let mut out = Vec::new();
    f(&mut out);
    out
}

/// Extracts the sent messages from an action list.
fn sends(actions: &[Action]) -> Vec<Msg> {
    actions
        .iter()
        .filter_map(|a| match a {
            Action::Send { msg, .. } => Some(*msg),
            _ => None,
        })
        .collect()
}

/// Drives every send to quiescence, breadth first.
fn pump_gpu(
    l1: &mut GpuL1,
    l2: &mut GpuL2,
    actions: impl IntoIterator<Item = Action>,
) -> Vec<(ReqId, Value)> {
    let mut queue: std::collections::VecDeque<Action> = actions.into_iter().collect();
    let mut done = Vec::new();
    while let Some(a) = queue.pop_front() {
        match a {
            Action::Send { msg, .. } => {
                let mut replies = Vec::new();
                match msg.dst_comp {
                    Component::L2 => l2.handle(0, &msg, &mut replies),
                    Component::L1 => l1.handle(&msg, &mut replies),
                }
                queue.extend(replies);
            }
            Action::Complete { req, value, .. } => done.push((req, value)),
        }
    }
    done
}

fn pump_dn(
    l1s: &mut [&mut DnL1],
    l2: &mut DnL2,
    actions: impl IntoIterator<Item = Action>,
) -> Vec<(ReqId, Value)> {
    let mut queue: std::collections::VecDeque<Action> = actions.into_iter().collect();
    let mut done = Vec::new();
    while let Some(a) = queue.pop_front() {
        match a {
            Action::Send { msg, .. } => {
                let mut replies = Vec::new();
                match msg.dst_comp {
                    Component::L2 => l2.handle(0, &msg, &mut replies),
                    Component::L1 => l1s
                        .iter_mut()
                        .find(|l| l.chassis().node() == msg.dst)
                        .expect("known L1")
                        .handle(&msg, &mut replies),
                }
                queue.extend(replies);
            }
            Action::Complete { req, value, .. } => done.push((req, value)),
        }
    }
    done
}

/// GPU: a fill that raced past an overflow writethrough must not
/// resurrect the pre-store value (the bug the differential tests found).
#[test]
fn gpu_fill_does_not_resurrect_flushed_store() {
    let mut l1 = GpuL1::new(L1Config {
        sb_entries: 1, // force immediate overflow on the second line
        ..L1Config::micro15(NodeId(3))
    });
    let mut l2 = GpuL2::new(L2Config::default(), MemoryImage::new());
    // 1. A load of line 0 goes out; hold the response.
    let (issue, acts) = run_op(|o| l1.load(WordAddr(5), ReqId(1), o));
    assert_eq!(issue, Issue::Pending);
    let read_req = sends(&acts)[0];
    let held_fill = run_handler(|o| l2.handle(0, &read_req, o));
    // 2. Store to word 5 of the same line, then overflow it out of the
    //    tiny store buffer by storing to another line.
    l1.store(WordAddr(5), 777, &mut Vec::new());
    let (_, acts) = run_op(|o| l1.store(LineAddr(9).word(0), 1, o));
    let wt = sends(&acts);
    assert_eq!(wt.len(), 1, "line 0 written through on overflow");
    // 3. The writethrough reaches the L2 AFTER the held fill was
    //    generated. On the bank-to-L1 path the fill precedes the ack
    //    (in-order bank + FIFO links), so deliver in that order: the
    //    stale fill first, while the writethrough is still unacked.
    let done = pump_gpu(&mut l1, &mut l2, held_fill);
    assert_eq!(done.len(), 1, "the blocked load completes");
    let acks = run_handler(|o| l2.handle(0, &wt[0], o));
    pump_gpu(&mut l1, &mut l2, acks);
    // 4. The word must NOT read stale: either it re-misses (squashed) or
    //    it reads 777 — never the pre-store zero.
    let (issue, acts) = run_op(|o| l1.load(WordAddr(5), ReqId(2), o));
    match issue {
        Issue::Hit(v) => assert_eq!(v, 777, "stale value resurrected by the fill"),
        Issue::Pending => {
            let done = pump_gpu(&mut l1, &mut l2, acts);
            assert_eq!(done, vec![(ReqId(2), 777)]);
        }
        Issue::Retry | Issue::RetryAfter(_) => panic!("unexpected retry"),
    }
}

/// GPU: a fill requested before an acquire must not install data that a
/// post-acquire load could hit (the epoch squash).
#[test]
fn gpu_preacquire_fill_does_not_serve_postacquire_loads() {
    let mut l1 = GpuL1::new(L1Config::micro15(NodeId(0)));
    let mut mem = MemoryImage::new();
    mem.write_word(WordAddr(0), 1);
    let mut l2 = GpuL2::new(L2Config::default(), mem);
    // 1. Load word 0; hold the fill.
    let (_, acts) = run_op(|o| l1.load(WordAddr(0), ReqId(1), o));
    let held_fill = run_handler(|o| l2.handle(0, &sends(&acts)[0], o));
    // 2. Another CU updates word 0 at the L2 (atomic write) and our CU
    //    acquires.
    let update = Msg {
        src: NodeId(5),
        dst: NodeId(0),
        dst_comp: Component::L2,
        kind: gsim_types::MsgKind::AtomicReq {
            word: WordAddr(0),
            op: AtomicOp::Write,
            operands: [2, 0],
            ord: SyncOrd::Release,
            scope: gsim_types::Scope::Global,
            requester: NodeId(5),
        },
    };
    let _ = run_handler(|o| l2.handle(0, &update, o));
    l1.acquire(false);
    // 3. A post-acquire load must not coalesce with the stale entry.
    let (issue, _) = run_op(|o| l1.load(WordAddr(0), ReqId(2), o));
    assert_eq!(
        issue,
        Issue::Retry,
        "post-acquire load must wait, not coalesce"
    );
    // 4. The stale fill arrives: the pre-acquire load completes (any
    //    value is legal for it), nothing is installed.
    let done = pump_gpu(&mut l1, &mut l2, held_fill);
    assert_eq!(done.len(), 1);
    // 5. The retried load now fetches fresh data.
    let (issue, acts) = run_op(|o| l1.load(WordAddr(0), ReqId(3), o));
    assert_eq!(issue, Issue::Pending);
    let done = pump_gpu(&mut l1, &mut l2, acts);
    assert_eq!(
        done,
        vec![(ReqId(3), 2)],
        "post-acquire load sees the release"
    );
    assert!(l1.quiesced());
}

/// DeNovo: same epoch rule for read fills.
#[test]
fn denovo_preacquire_fill_does_not_install() {
    let mut a = DnL1::new(DnConfig::micro15(NodeId(0)));
    let mut mem = MemoryImage::new();
    mem.write_word(WordAddr(0), 10);
    let mut l2 = DnL2::new(L2Config::default(), mem);
    let (_, acts) = run_op(|o| a.load(WordAddr(0), Region::Default, ReqId(1), o));
    let held = run_handler(|o| l2.handle(0, &sends(&acts)[0], o));
    a.acquire(false);
    let (issue, _) = run_op(|o| a.load(WordAddr(0), Region::Default, ReqId(2), o));
    assert_eq!(issue, Issue::Retry);
    let done = pump_dn(&mut [&mut a], &mut l2, held);
    assert_eq!(done.len(), 1, "pre-acquire load served");
    // Post-acquire load re-fetches (nothing was installed).
    let (issue, acts) = run_op(|o| a.load(WordAddr(0), Region::Default, ReqId(3), o));
    assert_eq!(issue, Issue::Pending);
    let done = pump_dn(&mut [&mut a], &mut l2, acts);
    assert_eq!(done, vec![(ReqId(3), 10)]);
    assert!(a.quiesced());
}

/// DeNovo: registration grants DO install across an acquire — ownership
/// data is fresh by construction, and the sync op must not deadlock.
#[test]
fn denovo_sync_grant_survives_acquire_window() {
    let mut a = DnL1::new(DnConfig::micro15(NodeId(0)));
    let mut l2 = DnL2::new(L2Config::default(), MemoryImage::new());
    let (issue, acts) =
        run_op(|o| a.atomic(WordAddr(0), AtomicOp::Add, [1, 0], false, ReqId(1), o));
    assert_eq!(issue, Issue::Pending);
    let held_grant = run_handler(|o| l2.handle(0, &sends(&acts)[0], o));
    // An unrelated acquire (another thread block's) lands first.
    a.acquire(false);
    let done = pump_dn(&mut [&mut a], &mut l2, held_grant);
    assert_eq!(
        done,
        vec![(ReqId(1), 0)],
        "grant still completes the sync op"
    );
    assert_eq!(
        a.owned_words(),
        vec![(WordAddr(0), 1)],
        "ownership installed"
    );
}

/// DeNovo: eviction writeback racing with a registration forward — the
/// forward is served from the in-flight writeback data and the stale
/// writeback is ignored at the registry.
#[test]
fn denovo_forward_served_from_inflight_writeback() {
    // Tiny cache: 1 set x 2 ways forces the eviction.
    let mut a = DnL1::new(DnConfig {
        l1: L1Config {
            geometry: gsim_mem::CacheGeometry {
                size_bytes: 2 * gsim_types::LINE_BYTES,
                ways: 2,
            },
            ..L1Config::micro15(NodeId(0))
        },
        read_only_region: false,
        delayed_local_ownership: false,
        sync_read_backoff: false,
    });
    let mut b = DnL1::new(DnConfig::micro15(NodeId(1)));
    let mut l2 = DnL2::new(L2Config::default(), MemoryImage::new());
    // CU0 owns a word in each of the two ways of set 0 (victim selection
    // prefers unowned lines, so both must be owned to force an owned
    // eviction).
    a.store(WordAddr(0), 42, &mut Vec::new());
    a.store(LineAddr(1).word(0), 9, &mut Vec::new());
    let (_, acts) = run_op(|o| a.release(false, ReqId(1), o));
    pump_dn(&mut [&mut a, &mut b], &mut l2, acts);
    // Load line 2: line 0 (LRU) is evicted at fill time. Intercept the
    // fill delivery by hand so the WbReq can be held back.
    let (_, acts) = run_op(|o| a.load(LineAddr(2).word(0), Region::Default, ReqId(10), o));
    let fill = run_handler(|o| l2.handle(0, &sends(&acts)[0], o));
    let mut held_wb = Vec::new();
    for act in fill {
        let Action::Send { msg, .. } = act else {
            continue;
        };
        let replies = run_handler(|o| a.handle(&msg, o));
        for r in replies {
            let Action::Send { msg, .. } = r else {
                continue;
            };
            assert!(
                matches!(msg.kind, gsim_types::MsgKind::WbReq { .. }),
                "only the eviction writeback is expected here"
            );
            held_wb.push(msg);
        }
    }
    assert_eq!(held_wb.len(), 1, "one eviction writeback in flight");
    // CU1 registers word 0: the registry still thinks CU0 owns it and
    // forwards; CU0 must serve the transfer from the in-flight writeback.
    let (issue, acts) =
        run_op(|o| b.atomic(WordAddr(0), AtomicOp::Add, [1, 0], false, ReqId(2), o));
    assert_eq!(issue, Issue::Pending);
    let done = pump_dn(&mut [&mut a, &mut b], &mut l2, acts);
    assert_eq!(
        done,
        vec![(ReqId(2), 42)],
        "value came from the writeback data"
    );
    assert_eq!(b.owned_words(), vec![(WordAddr(0), 43)]);
    // The stale writeback finally lands at the registry and is ignored.
    let acks = run_handler(|o| l2.handle(0, &held_wb[0], o));
    pump_dn(&mut [&mut a, &mut b], &mut l2, acks);
    assert!(a.quiesced());
    // CU1 still owns the word with the fresh value.
    assert_eq!(b.owned_words(), vec![(WordAddr(0), 43)]);
}

/// GPU: same-word atomics from one L1 complete in issue order even when
/// the first misses to DRAM at the bank and the second hits — the
/// in-order bank pipeline the deadlocking semaphore exposed.
#[test]
fn gpu_bank_keeps_atomic_responses_in_order() {
    let mut l1 = GpuL1::new(L1Config::micro15(NodeId(0)));
    let mut l2 = GpuL2::new(L2Config::default(), MemoryImage::new());
    let (_, a1) = run_op(|o| {
        l1.atomic(
            WordAddr(0),
            AtomicOp::Add,
            [1, 0],
            SyncOrd::AcqRel,
            false,
            ReqId(1),
            o,
        )
    });
    let (_, a2) = run_op(|o| {
        l1.atomic(
            WordAddr(0),
            AtomicOp::Add,
            [1, 0],
            SyncOrd::AcqRel,
            false,
            ReqId(2),
            o,
        )
    });
    // Deliver both requests to the bank in order; the first misses to
    // DRAM, the second hits. The bank must emit the responses with
    // non-decreasing delays.
    let r1 = run_handler(|o| l2.handle(0, &sends(&a1)[0], o));
    let r2 = run_handler(|o| l2.handle(0, &sends(&a2)[0], o));
    let d1 = match r1[0] {
        Action::Send { delay, .. } => delay,
        _ => panic!(),
    };
    let d2 = match r2[0] {
        Action::Send { delay, .. } => delay,
        _ => panic!(),
    };
    assert!(
        d2 > d1,
        "bank hit (delay {d2}) must not overtake the DRAM miss (delay {d1})"
    );
    // And the completions carry the right old values, in order.
    assert_eq!(pump_gpu(&mut l1, &mut l2, r1), vec![(ReqId(1), 0)]);
    assert_eq!(pump_gpu(&mut l1, &mut l2, r2), vec![(ReqId(2), 1)]);
}

/// DeNovo: a store to a word whose line has a read in flight still
/// registers at release and wins over the late fill.
#[test]
fn denovo_registration_beats_inflight_read() {
    let mut a = DnL1::new(DnConfig::micro15(NodeId(0)));
    let mut mem = MemoryImage::new();
    mem.write_word(WordAddr(1), 111);
    let mut l2 = DnL2::new(L2Config::default(), mem);
    // Read word 1 (fetches the line incl. word 0); hold the fill.
    let (_, acts) = run_op(|o| a.load(WordAddr(1), Region::Default, ReqId(1), o));
    let held = run_handler(|o| l2.handle(0, &sends(&acts)[0], o));
    // Store to word 0 and release: registration must go out even though
    // a read of the same line is pending.
    a.store(WordAddr(0), 5, &mut Vec::new());
    let (issue, acts) = run_op(|o| a.release(false, ReqId(2), o));
    assert_eq!(issue, Issue::Pending);
    let done = pump_dn(&mut [&mut a], &mut l2, acts);
    assert_eq!(done, vec![(ReqId(2), 0)], "release completes via the grant");
    assert_eq!(a.owned_words(), vec![(WordAddr(0), 5)]);
    // The held read fill lands late: must not clobber the owned word.
    let done = pump_dn(&mut [&mut a], &mut l2, held);
    assert_eq!(done, vec![(ReqId(1), 111)]);
    assert_eq!(a.owned_words(), vec![(WordAddr(0), 5)], "not clobbered");
}
