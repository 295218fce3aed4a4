//! Schedule-exploration tests: the litmus battery's declared outcome
//! sets are *exact* (every allowed tuple reachable, nothing else
//! reachable) over every same-cycle event ordering, DPOR pruning is
//! differentially validated against the unpruned ground truth, and any
//! explored schedule replays byte-identically from its id.

use gpu_denovo::explore::{explore, replay, Budget, ExploreMode, ScheduleId};
use gpu_denovo::workloads::litmus;
use gpu_denovo::{CheckLevel, ProtocolConfig, SimError, Simulator, SystemConfig};

/// Enough schedules to reach every declared outcome of every battery
/// shape (the widest, exch-race, needs 4), small enough that the
/// whale-sized trees (ring, kernel-boundary) stop early instead of
/// running for minutes. Truncation is fine: the assertions demand the
/// observed set *equals* the declared set, which budget-stopping can
/// only violate by missing an outcome — and then the test fails, as it
/// should.
const TEST_BUDGET: Budget = Budget {
    max_schedules: 64,
    max_depth: usize::MAX,
};

/// Tentpole acceptance: for every battery shape under all five
/// configurations, exploration's observed outcome set is exactly the
/// declared allowed set, with zero forbidden tuples and zero failing
/// runs.
#[test]
fn battery_outcome_sets_are_exact_under_every_config() {
    for shape in litmus::battery() {
        for p in ProtocolConfig::ALL {
            let r = explore(&shape, p, ExploreMode::Dpor, TEST_BUDGET);
            assert!(
                r.violations.is_empty(),
                "{} under {p}: {:?}",
                shape.name,
                r.violations
            );
            let allowed = shape.spec.allowed_for(p);
            let observed = r.observed();
            assert_eq!(
                observed.len(),
                allowed.len(),
                "{} under {p}: observed {observed:?}, declared {allowed:?}",
                shape.name
            );
            for o in &r.outcomes {
                assert!(
                    o.allowed,
                    "{} under {p}: undeclared outcome {:?} (witness {})",
                    shape.name, o.tuple, o.witness
                );
                assert!(
                    !o.forbidden,
                    "{} under {p}: forbidden outcome {:?} (witness {})",
                    shape.name, o.tuple, o.witness
                );
            }
            assert!(r.explored >= 1, "{} under {p}: nothing ran", shape.name);
        }
    }
}

/// DPOR differential validation on every shape whose naive tree fits a
/// test-sized budget: the pruned mode reaches exactly the ground-truth
/// outcome set while exploring at least 2x fewer schedules.
#[test]
fn dpor_matches_naive_outcomes_with_at_least_2x_pruning() {
    // (shape index, exhaustive naive budget) — sizes measured by the
    // `explore` CLI; the budget is a ceiling, the assert below proves
    // the enumeration actually completed under it.
    let shapes = litmus::battery();
    let cells: &[(&str, u64)] = &[
        ("mp", 1024),
        ("mp-ctrl", 1024),
        ("s", 2048),
        ("corr-coww", 64),
    ];
    for &(name, naive_budget) in cells {
        let shape = shapes
            .iter()
            .find(|l| l.name == name)
            .expect("battery shape");
        for p in ProtocolConfig::ALL {
            let naive = explore(
                shape,
                p,
                ExploreMode::Naive,
                Budget::schedules(naive_budget),
            );
            assert!(
                !naive.truncated,
                "{name} under {p}: naive enumeration did not complete ({} left)",
                naive.frontier_left
            );
            assert_eq!(naive.pruned(), 0, "{name} under {p}: naive mode pruned");
            let dpor = explore(shape, p, ExploreMode::Dpor, Budget::schedules(naive_budget));
            assert_eq!(
                naive.observed(),
                dpor.observed(),
                "{name} under {p}: DPOR changed the reachable outcome set"
            );
            assert!(
                naive.explored >= 2 * dpor.explored,
                "{name} under {p}: DPOR explored {} of naive's {} — less than 2x pruning",
                dpor.explored,
                naive.explored
            );
        }
    }
}

/// Sleep sets alone (no footprint-based independence pruning) also
/// preserve the observed outcome set while skipping redundant
/// interleavings. Sleep pruning needs a bucket holding three or more
/// events with mutually independent pairs — only mp-local's L1-local
/// synchronization produces those — and that shape's unpruned tree is
/// too large to exhaust, so this differential runs both modes to the
/// same bounded budget (the *exhaustive* naive-vs-pruned comparison is
/// `dpor_matches_naive_outcomes_with_at_least_2x_pruning`).
#[test]
fn sleep_sets_match_naive_outcomes_and_prune() {
    let shapes = litmus::battery();
    let shape = shapes.iter().find(|l| l.name == "mp-local").unwrap();
    let p = ProtocolConfig::Gd;
    let budget = Budget::schedules(1500);
    let naive = explore(shape, p, ExploreMode::Naive, budget);
    let sleep = explore(shape, p, ExploreMode::Sleep, budget);
    assert_eq!(naive.observed(), sleep.observed());
    assert_eq!(naive.observed(), shape.spec.allowed_for(p));
    assert!(
        sleep.pruned_sleep > 0,
        "sleep sets pruned nothing on the diamond-heavy shape"
    );
}

/// The racy negative built for exploration: its non-default outcome —
/// unreachable on the identity schedule — MUST be found, proving the
/// explorer drives real arbitration ties rather than replaying the
/// production order with extra steps.
#[test]
fn exploration_finds_the_racy_forbidden_outcome() {
    let shape = litmus::racy_explore();
    for p in ProtocolConfig::ALL {
        let r = explore(&shape, p, ExploreMode::Dpor, TEST_BUDGET);
        let identity =
            replay(&shape, p, &ScheduleId::root()).unwrap_or_else(|e| panic!("{p}: {e}"));
        for f in shape.spec.forbidden {
            assert_ne!(
                &identity.observed, f,
                "{p}: the identity schedule already shows {f:?} — the shape no longer \
                 demonstrates exploration-only reachability"
            );
            let hit = r
                .outcomes
                .iter()
                .find(|o| &o.tuple == f)
                .unwrap_or_else(|| {
                    panic!(
                        "{p}: exploration missed the racy outcome {f:?} (saw {:?})",
                        r.observed()
                    )
                });
            // The witness is live: replaying it reproduces the outcome.
            let rerun = replay(&shape, p, &hit.witness).unwrap_or_else(|e| panic!("{p}: {e}"));
            assert_eq!(&rerun.observed, f, "{p}: witness {} diverged", hit.witness);
        }
    }
}

/// The same program is a *race* — `gsim-check`'s happens-before
/// detector must flag it under `CheckLevel::Full` on every config, on
/// the identity schedule, with no exploration needed.
#[test]
fn racy_explore_shape_is_flagged_by_the_race_detector() {
    let shape = litmus::racy_explore();
    for p in ProtocolConfig::ALL {
        let mut cfg = SystemConfig::micro15(p);
        cfg.check = CheckLevel::Full;
        let err = Simulator::new(cfg)
            .run(&(shape.build)())
            .expect_err("the race detector must flag racy-explore");
        let msg = err.to_string();
        assert!(matches!(err, SimError::Check { .. }), "{p}: {msg}");
        assert!(msg.contains("[race]"), "{p}: {msg}");
    }
}

/// Replay determinism: every witness id from an exploration, parsed
/// back from its rendered form, replays to byte-identical statistics —
/// twice.
#[test]
fn witness_schedules_replay_byte_identical() {
    let shapes = litmus::battery();
    let shape = shapes.iter().find(|l| l.name == "exch-race").unwrap();
    for p in [ProtocolConfig::Gd, ProtocolConfig::Dd] {
        let r = explore(shape, p, ExploreMode::Dpor, TEST_BUDGET);
        assert!(r.outcomes.len() >= 2, "{p}: exch-race lost an outcome");
        for o in &r.outcomes {
            let id = ScheduleId::parse(&o.witness.to_string())
                .unwrap_or_else(|e| panic!("{p}: witness {} unparseable: {e}", o.witness));
            assert_eq!(id, o.witness, "{p}: witness id round trip");
            let a = replay(shape, p, &id).unwrap_or_else(|e| panic!("{p}/{id}: {e}"));
            let b = replay(shape, p, &id).unwrap_or_else(|e| panic!("{p}/{id}: {e}"));
            assert_eq!(a.observed, o.tuple, "{p}/{id}: outcome drifted");
            assert_eq!(
                a.stats.to_json(),
                b.stats.to_json(),
                "{p}/{id}: replay is not byte-deterministic"
            );
            assert_eq!(a.decisions, b.decisions, "{p}/{id}: decision trace drifted");
        }
    }
}

/// The identity schedule is the production run: popping choice 0 at
/// every decision point through the event queue's candidate view gives
/// the same statistics, byte for byte, as the plain `pop` path. (The
/// equeue unit tests prove `pop_nth(0) == pop` on random streams; this
/// proves it end to end through the engine.)
#[test]
fn identity_schedule_reproduces_the_production_run() {
    for shape in litmus::battery() {
        for p in [ProtocolConfig::Gh, ProtocolConfig::DdRo] {
            let mut cfg = SystemConfig::micro15(p);
            cfg.check = CheckLevel::Invariants;
            let production = Simulator::new(cfg)
                .run(&(shape.build)())
                .unwrap_or_else(|e| panic!("{} under {p}: {e}", shape.name));
            let scheduled = replay(&shape, p, &ScheduleId::root())
                .unwrap_or_else(|e| panic!("{} under {p}: {e}", shape.name));
            assert_eq!(
                production.to_json(),
                scheduled.stats.to_json(),
                "{} under {p}: the scheduled identity run diverges from the plain run",
                shape.name
            );
        }
    }
}

/// Budget honesty: a one-schedule budget on a branching shape must
/// report truncation and a nonzero unexplored frontier, not silently
/// claim exhaustiveness.
#[test]
fn truncated_exploration_reports_its_frontier() {
    let shapes = litmus::battery();
    let shape = shapes.iter().find(|l| l.name == "exch-race").unwrap();
    let r = explore(
        shape,
        ProtocolConfig::Dd,
        ExploreMode::Dpor,
        Budget::schedules(1),
    );
    assert_eq!(r.explored, 1);
    assert!(r.truncated, "budget exhausted but not reported");
    assert!(r.frontier_left > 0, "frontier not reported");
    // And the full run on the same shape is not truncated.
    let full = explore(shape, ProtocolConfig::Dd, ExploreMode::Dpor, TEST_BUDGET);
    assert!(!full.truncated);
    assert_eq!(full.frontier_left, 0);
}
