#![warn(missing_docs)]

//! Schedule exploration for the litmus battery: stateless model
//! checking over the engine's same-cycle event orderings.
//!
//! The deterministic engine pops events in `(cycle, seq)` order, so a
//! cycle whose bucket holds two or more events hides an arbitration
//! choice: which same-cycle event the hardware would service first. The
//! event queue's candidate view (`EventQueue::candidates` and
//! `pop_nth`, on the production calendar queue) exposes each such
//! bucket as a *decision point*, and this crate drives a DFS over
//! *schedule prefixes* — vectors of per-decision choices, where every
//! index past the prefix defaults to choice 0 — to enumerate the
//! outcomes a litmus shape can reach under **every** same-cycle
//! ordering, not just the production one.
//!
//! Three modes, strictly ordered by how much they prune:
//!
//! * [`ExploreMode::Naive`] branches every alternative at every
//!   decision — the ground-truth interleaving tree, exponential but
//!   exact, never consulting footprints. Tests use it to
//!   differentially validate both pruned modes.
//! * [`ExploreMode::Sleep`] adds sleep sets: a sibling already
//!   explored at a decision stays asleep in later-branched siblings
//!   until an event conflicting with it executes, collapsing the
//!   diamonds that independent same-cycle events open up.
//! * [`ExploreMode::Dpor`] adds dynamic partial-order reduction:
//!   an alternative is branched only if its [`Footprint`] conflicts
//!   with the chosen event's (same-cycle events with disjoint
//!   footprints commute, so swapping them alone cannot change the
//!   final state).
//!
//! Every run is named by a replayable [`ScheduleId`] — a sparse
//! encoding of its nonzero choices — so any explored outcome can be
//! reproduced exactly, byte-identical statistics included, from the id
//! alone.
//!
//! The enumeration is *honest about its limits*: a [`Budget`] caps the
//! number of schedules executed, and [`ShapeReport`] carries the
//! `truncated` flag plus the unexplored frontier size, so "explored N
//! schedules" can never silently mean "explored N of 10 000".

use std::collections::BTreeMap;
use std::fmt;

use gsim_check::CheckLevel;
use gsim_core::{ExploredRun, Footprint, SimError, Simulator, SystemConfig};
use gsim_types::{ProtocolConfig, WordAddr};
use gsim_workloads::litmus::{Litmus, OutcomeSpec};

/// Which pruning discipline the DFS applies.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExploreMode {
    /// Branch every alternative at every decision point, no pruning of
    /// any kind. Exponential; the differential ground truth the other
    /// modes are validated against (it never consults footprints, so it
    /// cannot inherit a bug in the conflict relation).
    Naive,
    /// Branch every alternative, but suppress siblings the sleep set
    /// proves redundant: an alternative already explored at this
    /// decision stays asleep in later-branched siblings until an event
    /// whose footprint conflicts with it executes. Prunes the
    /// independent-event diamonds that dominate naive's tree.
    Sleep,
    /// [`Sleep`](ExploreMode::Sleep) plus dynamic partial-order
    /// reduction: branch only alternatives whose footprint conflicts
    /// with the chosen event's. Sound for outcome enumeration because
    /// disjoint-footprint same-cycle events commute (see `DESIGN.md`
    /// §7h for the one documented approximation, NoC link arbitration).
    Dpor,
}

impl ExploreMode {
    fn sleeps(self) -> bool {
        self != ExploreMode::Naive
    }
}

impl fmt::Display for ExploreMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ExploreMode::Naive => "naive",
            ExploreMode::Sleep => "sleep",
            ExploreMode::Dpor => "dpor",
        })
    }
}

/// Caps on the DFS, so exploration terminates on shapes whose
/// interleaving tree is large.
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    /// Maximum number of schedules (complete runs) to execute.
    pub max_schedules: u64,
    /// Maximum prefix length to branch from; decisions deeper than
    /// this keep their default choice. `usize::MAX` = unbounded.
    pub max_depth: usize,
}

impl Default for Budget {
    fn default() -> Self {
        Budget {
            max_schedules: 4096,
            max_depth: usize::MAX,
        }
    }
}

impl Budget {
    /// A budget capped at `max_schedules` runs, depth unbounded.
    pub fn schedules(max_schedules: u64) -> Self {
        Budget {
            max_schedules,
            ..Budget::default()
        }
    }
}

/// A compact, replayable name for one explored schedule: the nonzero
/// entries of its choice prefix.
///
/// The identity schedule (every decision takes choice 0 — exactly the
/// production `(cycle, seq)` order) renders as `"r"`. Any other
/// schedule renders its nonzero choices as `index.choice` pairs joined
/// by `-`, e.g. `"3.1-7.2"`: decision 3 took alternative 1, decision 7
/// took alternative 2, every other decision took the default.
///
/// # Examples
///
/// ```
/// use gsim_explore::ScheduleId;
///
/// let id = ScheduleId::parse("2.1-4.2").unwrap();
/// assert_eq!(id.to_string(), "2.1-4.2");
/// assert_eq!(id.prefix(), &[0, 0, 1, 0, 2]);
/// assert_eq!(ScheduleId::root().to_string(), "r");
/// ```
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct ScheduleId(Vec<u32>);

impl ScheduleId {
    /// The identity schedule: every decision takes choice 0.
    pub fn root() -> Self {
        ScheduleId(Vec::new())
    }

    /// Builds an id from a choice prefix, trimming trailing defaults
    /// so equal schedules get equal ids.
    fn from_prefix(prefix: &[u32]) -> Self {
        let len = prefix.len() - prefix.iter().rev().take_while(|&&c| c == 0).count();
        ScheduleId(prefix[..len].to_vec())
    }

    /// The choice prefix to force when replaying this schedule.
    pub fn prefix(&self) -> &[u32] {
        &self.0
    }

    /// Parses the [`Display`](fmt::Display) form back into an id.
    ///
    /// # Errors
    ///
    /// A description of the malformed pair on any input this crate
    /// would not itself print (bad number, zero choice, out-of-order
    /// or duplicate indices).
    pub fn parse(s: &str) -> Result<Self, String> {
        if s == "r" {
            return Ok(ScheduleId::root());
        }
        let mut prefix: Vec<u32> = Vec::new();
        for pair in s.split('-') {
            let (idx, choice) = pair
                .split_once('.')
                .ok_or_else(|| format!("schedule id pair `{pair}` is not `index.choice`"))?;
            let idx: usize = idx
                .parse()
                .map_err(|_| format!("schedule id `{pair}`: bad decision index"))?;
            let choice: u32 = choice
                .parse()
                .map_err(|_| format!("schedule id `{pair}`: bad choice"))?;
            if choice == 0 {
                return Err(format!(
                    "schedule id `{pair}`: choice 0 is the default and is never written"
                ));
            }
            if idx < prefix.len() {
                return Err(format!(
                    "schedule id `{pair}`: decision indices must be strictly increasing"
                ));
            }
            prefix.resize(idx, 0);
            prefix.push(choice);
        }
        Ok(ScheduleId(prefix))
    }
}

impl fmt::Display for ScheduleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_empty() {
            return f.write_str("r");
        }
        let mut first = true;
        for (i, &c) in self.0.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if !first {
                f.write_str("-")?;
            }
            write!(f, "{i}.{c}")?;
            first = false;
        }
        Ok(())
    }
}

/// One distinct final-state tuple reached during exploration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OutcomeRow {
    /// The observed values of the shape's observation words.
    pub tuple: Vec<u32>,
    /// How many explored schedules produced this tuple.
    pub schedules: u64,
    /// The first schedule that produced it — replay this id to
    /// reproduce the outcome deterministically.
    pub witness: ScheduleId,
    /// Whether the shape's spec declares the tuple reachable.
    pub allowed: bool,
    /// Whether the spec explicitly names the tuple as model-forbidden.
    pub forbidden: bool,
}

/// A run that failed (watchdog, verifier, or conformance check),
/// pinned to the schedule that provoked it.
#[derive(Clone, Debug)]
pub struct Violation {
    /// The failing schedule.
    pub id: ScheduleId,
    /// The rendered [`SimError`].
    pub error: String,
}

/// The result of exploring one shape under one configuration.
#[derive(Clone, Debug)]
pub struct ShapeReport {
    /// The shape's stable name.
    pub shape: &'static str,
    /// The configuration explored under.
    pub config: ProtocolConfig,
    /// The pruning mode used.
    pub mode: ExploreMode,
    /// Distinct outcomes, in tuple order, each with a replay witness.
    pub outcomes: Vec<OutcomeRow>,
    /// Schedules actually executed.
    pub explored: u64,
    /// Alternatives skipped because their footprint does not conflict
    /// with the chosen event's (DPOR independence).
    pub pruned_indep: u64,
    /// Alternatives skipped by the sleep set (already explored at this
    /// decision, no conflicting event executed since).
    pub pruned_sleep: u64,
    /// Alternatives skipped because they branch deeper than
    /// [`Budget::max_depth`].
    pub pruned_depth: u64,
    /// Whether [`Budget::max_schedules`] stopped the DFS early.
    pub truncated: bool,
    /// Schedules still queued when the budget ran out (0 unless
    /// `truncated`): the honest "explored N, M left" denominator.
    pub frontier_left: u64,
    /// Runs that returned an error instead of an outcome.
    pub violations: Vec<Violation>,
    /// The largest decision count seen in any run.
    pub max_decisions: usize,
}

impl ShapeReport {
    /// Whether the observed outcome set is *exactly* the declared
    /// allowed set — no extra tuples, no missing tuples — and no run
    /// errored.
    pub fn conforms(&self, spec: &OutcomeSpec) -> bool {
        if !self.violations.is_empty() {
            return false;
        }
        let allowed = spec.allowed_for(self.config);
        self.outcomes.len() == allowed.len() && self.outcomes.iter().all(|o| o.allowed)
    }

    /// The observed tuples, in enumeration order.
    pub fn observed(&self) -> Vec<&[u32]> {
        self.outcomes.iter().map(|o| o.tuple.as_slice()).collect()
    }

    /// Total alternatives pruned across all disciplines.
    pub fn pruned(&self) -> u64 {
        self.pruned_indep + self.pruned_sleep + self.pruned_depth
    }

    /// Renders the one-line outcome summary used by the CLI table,
    /// e.g. `"(0, 1)=3 (2, 0)=1"`.
    pub fn outcome_cell(&self) -> String {
        let cells: Vec<String> = self
            .outcomes
            .iter()
            .map(|o| {
                let mark = if o.forbidden {
                    "!"
                } else if o.allowed {
                    ""
                } else {
                    "?"
                };
                format!("{mark}{}={}", OutcomeSpec::fmt_tuple(&o.tuple), o.schedules)
            })
            .collect();
        cells.join(" ")
    }

    /// Serializes the report as a JSON object (no external
    /// dependencies, field order stable).
    pub fn to_json(&self) -> String {
        let outcomes: Vec<String> = self
            .outcomes
            .iter()
            .map(|o| {
                let tuple: Vec<String> = o.tuple.iter().map(u32::to_string).collect();
                format!(
                    "{{\"tuple\":[{}],\"schedules\":{},\"witness\":\"{}\",\"allowed\":{},\"forbidden\":{}}}",
                    tuple.join(","),
                    o.schedules,
                    o.witness,
                    o.allowed,
                    o.forbidden
                )
            })
            .collect();
        let violations: Vec<String> = self
            .violations
            .iter()
            .map(|v| {
                format!(
                    "{{\"schedule\":\"{}\",\"error\":\"{}\"}}",
                    v.id,
                    v.error.replace('\\', "\\\\").replace('"', "\\\"")
                )
            })
            .collect();
        format!(
            "{{\"shape\":\"{}\",\"config\":\"{}\",\"mode\":\"{}\",\"outcomes\":[{}],\
             \"explored\":{},\"pruned_indep\":{},\"pruned_sleep\":{},\"pruned_depth\":{},\
             \"truncated\":{},\"frontier_left\":{},\"violations\":[{}],\"max_decisions\":{}}}",
            self.shape,
            self.config,
            self.mode,
            outcomes.join(","),
            self.explored,
            self.pruned_indep,
            self.pruned_sleep,
            self.pruned_depth,
            self.truncated,
            self.frontier_left,
            violations.join(","),
            self.max_decisions
        )
    }
}

/// A queued DFS node: the choice prefix to force, plus the sleep set —
/// `(seq, footprint)` of sibling alternatives already explored at the
/// branch decision, to be skipped until a conflicting event executes.
struct Node {
    prefix: Vec<u32>,
    sleep: Vec<(u64, Footprint)>,
}

/// The system configuration exploration runs under: the paper's
/// microbenchmark machine with invariant checks on.
///
/// `CheckLevel::Invariants` rather than `Full`: the battery's racy
/// negatives *race by design* on every schedule, and exploration wants
/// their outcome sets, not 2^N copies of the same race report. The
/// conformance tests run the race detector on the battery separately.
fn explore_config(protocol: ProtocolConfig) -> SystemConfig {
    let mut cfg = SystemConfig::micro15(protocol);
    cfg.check = CheckLevel::Invariants;
    cfg
}

/// Replays one schedule of `litmus` under `protocol` and returns the
/// full run (statistics, decision trace, observed tuple).
///
/// # Errors
///
/// As [`Simulator::run`]; additionally panics inside the engine if the
/// id forces a choice index past a decision's candidate count (ids are
/// only meaningful for the shape and configuration they came from).
pub fn replay(
    litmus: &Litmus,
    protocol: ProtocolConfig,
    id: &ScheduleId,
) -> Result<ExploredRun, SimError> {
    let sim = Simulator::new(explore_config(protocol));
    let workload = (litmus.build)();
    let words: Vec<WordAddr> = litmus.spec.words.iter().map(|&w| WordAddr(w)).collect();
    sim.run_explored(&workload, id.prefix(), &words)
}

/// Explores `litmus` under `protocol`: DFS over schedule prefixes from
/// the identity schedule, branching per `mode`, stopping at `budget`.
pub fn explore(
    litmus: &Litmus,
    protocol: ProtocolConfig,
    mode: ExploreMode,
    budget: Budget,
) -> ShapeReport {
    let sim = Simulator::new(explore_config(protocol));
    let words: Vec<WordAddr> = litmus.spec.words.iter().map(|&w| WordAddr(w)).collect();
    let allowed = litmus.spec.allowed_for(protocol);

    let mut report = ShapeReport {
        shape: litmus.name,
        config: protocol,
        mode,
        outcomes: Vec::new(),
        explored: 0,
        pruned_indep: 0,
        pruned_sleep: 0,
        pruned_depth: 0,
        truncated: false,
        frontier_left: 0,
        violations: Vec::new(),
        max_decisions: 0,
    };
    // tuple -> (count, first witness), ordered for stable output.
    let mut outcomes: BTreeMap<Vec<u32>, (u64, ScheduleId)> = BTreeMap::new();

    let mut stack: Vec<Node> = vec![Node {
        prefix: Vec::new(),
        sleep: Vec::new(),
    }];
    while let Some(node) = stack.pop() {
        if report.explored >= budget.max_schedules {
            report.truncated = true;
            report.frontier_left = stack.len() as u64 + 1;
            break;
        }
        report.explored += 1;
        let id = ScheduleId::from_prefix(&node.prefix);
        let workload = (litmus.build)();
        let run = match sim.run_explored(&workload, &node.prefix, &words) {
            Ok(run) => run,
            Err(e) => {
                report.violations.push(Violation {
                    id,
                    error: e.to_string(),
                });
                continue;
            }
        };
        report.max_decisions = report.max_decisions.max(run.decisions.len());
        outcomes
            .entry(run.observed.clone())
            .and_modify(|(n, _)| *n += 1)
            .or_insert((1, id));

        // Branch: for every decision past the forced prefix, queue the
        // alternatives this run did not take.
        let mut sleep = node.sleep;
        for (i, d) in run.decisions.iter().enumerate().skip(node.prefix.len()) {
            let chosen = d.candidates[d.chosen as usize];
            // Executing an event wakes every sleeping event it
            // conflicts with (their order relative to it now matters).
            sleep.retain(|&(_, fp)| !fp.conflicts(chosen.fp));
            if i >= budget.max_depth {
                report.pruned_depth += d.candidates.len() as u64 - 1;
                continue;
            }
            // Siblings branched at this decision, for sleep propagation.
            let mut branched: Vec<(u64, Footprint)> = Vec::new();
            for (k, cand) in d.candidates.iter().enumerate() {
                if k == d.chosen as usize {
                    continue;
                }
                if mode.sleeps() && sleep.iter().any(|&(seq, _)| seq == cand.seq) {
                    report.pruned_sleep += 1;
                    continue;
                }
                if mode == ExploreMode::Dpor && !cand.fp.conflicts(chosen.fp) {
                    report.pruned_indep += 1;
                    continue;
                }
                let mut prefix: Vec<u32> = run.decisions[..i].iter().map(|d| d.chosen).collect();
                prefix.push(k as u32);
                // The child must not re-explore orders this run (and
                // earlier siblings) already cover: everything already
                // taken at this decision sleeps in the child, unless it
                // conflicts with the child's own choice (then the
                // child's whole point is the other order).
                let mut child_sleep = sleep.clone();
                if mode.sleeps() {
                    child_sleep.extend(
                        branched
                            .iter()
                            .chain(std::iter::once(&(chosen.seq, chosen.fp)))
                            .filter(|&&(_, fp)| !fp.conflicts(cand.fp))
                            .copied(),
                    );
                }
                stack.push(Node {
                    prefix,
                    sleep: child_sleep,
                });
                branched.push((cand.seq, cand.fp));
            }
        }
    }

    report.outcomes = outcomes
        .into_iter()
        .map(|(tuple, (schedules, witness))| {
            let is = |set: &[&[u32]]| set.contains(&tuple.as_slice());
            OutcomeRow {
                allowed: is(allowed),
                forbidden: is(litmus.spec.forbidden),
                tuple,
                schedules,
                witness,
            }
        })
        .collect();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_id_round_trips() {
        for prefix in [
            vec![],
            vec![0, 0, 0],
            vec![1],
            vec![0, 2],
            vec![1, 0, 3, 0],
            vec![0, 0, 1, 0, 2, 0, 0],
        ] {
            let id = ScheduleId::from_prefix(&prefix);
            let back = ScheduleId::parse(&id.to_string()).unwrap();
            assert_eq!(back, id, "prefix {prefix:?} via `{id}`");
            // The round-tripped prefix replays identically: trailing
            // defaults are the engine's own behaviour.
            let trimmed =
                &prefix[..prefix.len() - prefix.iter().rev().take_while(|&&c| c == 0).count()];
            assert_eq!(back.prefix(), trimmed);
        }
    }

    #[test]
    fn schedule_id_rejects_malformed_input() {
        for bad in ["x", "1", "1.0", "3.1-2.1", "1.1-1.2", "a.b", ""] {
            assert!(ScheduleId::parse(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn identity_id_is_root() {
        assert_eq!(ScheduleId::root().to_string(), "r");
        assert_eq!(ScheduleId::parse("r").unwrap(), ScheduleId::root());
        assert_eq!(ScheduleId::from_prefix(&[0, 0]), ScheduleId::root());
    }
}
