//! Bounded exhaustive schedule exploration with sleep-set pruning.
//!
//! The explorer drives a *replayable scenario*: a closure that runs one
//! complete simulation following a schedule script and reports what
//! happened. A script is a sequence of option indices; whenever the
//! engine's `ScriptedPolicy` faces more than one runnable task it
//! records a [`Choice`] (the sorted candidate tids and which index it
//! took) and consults the script, defaulting to index 0 past the end.
//!
//! Exploration is a depth-first walk of the prefix tree of scripts:
//! every node is one run (the prefix, then all-defaults), and the
//! node's children are the alternative options at the first choice
//! point beyond the prefix. The walk asserts that every complete
//! schedule yields the *same* [`Outcome`] and that none deadlocks.
//!
//! Pruning is Godefroid-style sleep sets: after fully exploring task
//! `a`'s subtree at a node, `a` goes to sleep for the sibling subtrees
//! and stays asleep below them until a *dependent* transition runs.
//! Dependence comes from the happens-before detector's per-slice
//! [`Footprint`]s: two slices are dependent iff their footprints
//! conflict (shared sync var, or shared location with a write). A
//! footprint the explorer has not seen — or has seen disagree across
//! runs — is treated as dependent, so unknown structure never prunes a
//! schedule (sound, merely slower).

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use crate::detect::Footprint;

/// One recorded scheduling decision: the runnable tasks (sorted tids)
/// and which index the script chose.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Choice {
    /// The runnable tasks at the decision, in ascending tid order.
    pub options: Vec<u32>,
    /// The index into `options` that ran.
    pub chosen: usize,
    /// Parallel to `options`: the 1-indexed scheduling-slice number the
    /// task's *next* dispatch would begin (its completed dispatch count
    /// plus one). This keys the footprint DB soundly even when tasks
    /// are also dispatched at singleton, unrecorded picks.
    pub slices: Vec<u32>,
}

/// What one complete schedule produced. Two schedules of a correct
/// scenario must produce *equal* outcomes.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Outcome {
    /// Final simulated clock, in cycles.
    pub elapsed: u64,
    /// Per-proc CPU accounts, `(tid, cycles)` sorted by tid.
    pub cpu: Vec<(u32, u64)>,
    /// Scenario-curated counters (channel sums, core digests, trace
    /// counters) — named so a mismatch report reads well.
    pub payload: Vec<(String, u64)>,
    /// `Some` if the run deadlocked or panicked.
    pub error: Option<String>,
}

/// Everything one run reports back to the explorer.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// The run's outcome.
    pub outcome: Outcome,
    /// Every choice point hit, in order (prefix included).
    pub choices: Vec<Choice>,
    /// Per `(task, slice)` footprints from the armed detector; empty
    /// disables pruning (everything is dependent).
    pub footprints: Vec<((u32, u32), Footprint)>,
}

/// The result of exploring one scenario.
#[derive(Clone, Debug)]
pub struct ExploreReport {
    /// Complete schedules whose outcomes were checked.
    pub schedules: usize,
    /// Subtrees skipped by sleep sets.
    pub pruned: usize,
    /// Total scenario runs (interior prefix-probe runs included).
    pub runs: usize,
    /// Distinct outcomes observed (correct scenarios: exactly 1).
    pub distinct_outcomes: usize,
    /// The canonical outcome (from the first schedule).
    pub outcome: Option<Outcome>,
    /// Human-readable failures: outcome divergence, deadlocks, or the
    /// run cap tripping.
    pub failures: Vec<String>,
}

impl ExploreReport {
    /// No divergence, no deadlock, not capped.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Explores every schedule of `run` (a replayable scenario), up to
/// `max_runs` scenario executions. `expected` pins the canonical
/// outcome (a clean build's), so a deterministic-but-wrong mutant that
/// produces the same wrong answer on every schedule still fails.
pub fn explore<F>(mut run: F, max_runs: usize, expected: Option<&Outcome>) -> ExploreReport
where
    F: FnMut(&[usize]) -> RunResult,
{
    let mut ctx = Ctx {
        report: ExploreReport {
            schedules: 0,
            pruned: 0,
            runs: 0,
            distinct_outcomes: 0,
            outcome: expected.cloned(),
            failures: Vec::new(),
        },
        expected_pinned: expected.is_some(),
        outcomes: Vec::new(),
        db: FootprintDb::default(),
        max_runs,
        capped: false,
    };
    if let Some(exp) = expected {
        ctx.outcomes.push(exp.clone());
        ctx.report.distinct_outcomes = 1;
    }
    dfs(&mut ctx, &mut run, Vec::new(), BTreeSet::new());
    if ctx.capped {
        ctx.report.failures.push(format!(
            "run cap of {max_runs} hit before exhausting schedules"
        ));
    }
    ctx.report
}

#[derive(Default)]
struct FootprintDb {
    /// `None` marks a footprint that disagreed across runs: always
    /// dependent.
    by_slice: BTreeMap<(u32, u32), Option<Footprint>>,
}

impl FootprintDb {
    fn merge(&mut self, fps: Vec<((u32, u32), Footprint)>) {
        for (key, fp) in fps {
            match self.by_slice.get(&key) {
                None => {
                    self.by_slice.insert(key, Some(fp));
                }
                Some(Some(existing)) if *existing == fp => {}
                Some(Some(_)) => {
                    self.by_slice.insert(key, None);
                }
                Some(None) => {}
            }
        }
    }

    /// Whether the next slices of two tasks are provably independent.
    /// Unknown or unstable footprints are dependent (no pruning).
    fn independent(&self, a: (u32, u32), b: (u32, u32)) -> bool {
        match (self.by_slice.get(&a), self.by_slice.get(&b)) {
            (Some(Some(fa)), Some(Some(fb))) => !fa.conflicts(fb),
            _ => false,
        }
    }
}

struct Ctx {
    report: ExploreReport,
    expected_pinned: bool,
    outcomes: Vec<Outcome>,
    db: FootprintDb,
    max_runs: usize,
    capped: bool,
}

impl Ctx {
    fn note_schedule(&mut self, outcome: &Outcome) {
        self.report.schedules += 1;
        if let Some(err) = &outcome.error {
            self.report
                .failures
                .push(format!("schedule {}: {}", self.report.schedules, err));
        }
        if self.report.outcome.is_none() {
            self.report.outcome = Some(outcome.clone());
        }
        if !self.outcomes.iter().any(|o| o == outcome) {
            self.outcomes.push(outcome.clone());
            self.report.distinct_outcomes = self.outcomes.len();
            let baseline = &self.outcomes[0];
            if self.outcomes.len() > 1 {
                self.report.failures.push(format!(
                    "schedule {} diverged{}: {}",
                    self.report.schedules,
                    if self.expected_pinned && self.outcomes.len() == 2 {
                        " from the pinned expected outcome"
                    } else {
                        ""
                    },
                    diff_outcomes(baseline, outcome)
                ));
            }
        }
    }
}

/// A terse, deterministic description of how two outcomes differ.
fn diff_outcomes(a: &Outcome, b: &Outcome) -> String {
    let mut parts = Vec::new();
    if a.elapsed != b.elapsed {
        parts.push(format!("elapsed {} vs {}", a.elapsed, b.elapsed));
    }
    if a.cpu != b.cpu {
        parts.push(format!("cpu {:?} vs {:?}", a.cpu, b.cpu));
    }
    if a.payload != b.payload {
        parts.push(format!("payload {:?} vs {:?}", a.payload, b.payload));
    }
    match (&a.error, &b.error) {
        (x, y) if x != y => parts.push(format!("error {x:?} vs {y:?}")),
        _ => {}
    }
    if parts.is_empty() {
        "outcomes compare unequal but render identically".to_string()
    } else {
        parts.join("; ")
    }
}

fn dfs<F>(ctx: &mut Ctx, run: &mut F, prefix: Vec<usize>, sleep: BTreeSet<u32>)
where
    F: FnMut(&[usize]) -> RunResult,
{
    if ctx.capped {
        return;
    }
    if ctx.report.runs >= ctx.max_runs {
        ctx.capped = true;
        return;
    }
    ctx.report.runs += 1;
    let res = run(&prefix);
    ctx.db.merge(res.footprints);
    let depth = prefix.len();
    if depth > res.choices.len() {
        // The scenario shrank under this prefix (a mutant changed the
        // choice structure); count the run as a schedule and stop.
        ctx.note_schedule(&res.outcome);
        return;
    }
    if depth == res.choices.len() {
        // No choice point beyond the prefix: this run IS the complete
        // schedule for this leaf.
        ctx.note_schedule(&res.outcome);
        return;
    }
    let node = res.choices[depth].clone();
    // A sleeping task has not run since the node recorded it, so its
    // next-slice index is whatever this node's options row says; a
    // slept task missing from the options was disabled by a dependent
    // transition and must not prune.
    let slice_of = |task: u32| -> Option<(u32, u32)> {
        node.options
            .iter()
            .position(|&t| t == task)
            .map(|i| (task, node.slices.get(i).copied().unwrap_or(0)))
    };
    let mut done: Vec<u32> = Vec::new();
    for (i, &tid) in node.options.iter().enumerate() {
        if sleep.contains(&tid) {
            ctx.report.pruned += 1;
            continue;
        }
        let tid_key = (tid, node.slices.get(i).copied().unwrap_or(0));
        let mut child_sleep = BTreeSet::new();
        for &slept in sleep.iter().chain(done.iter()) {
            if let Some(slept_key) = slice_of(slept) {
                if ctx.db.independent(slept_key, tid_key) {
                    child_sleep.insert(slept);
                }
            }
        }
        let mut child = prefix.clone();
        child.push(i);
        dfs(ctx, run, child, child_sleep);
        done.push(tid);
        if ctx.capped {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::{Loc, SyncId};

    /// A toy scenario: `n` tasks each take one slice, every
    /// interleaving allowed, outcome independent of order. `deps`
    /// marks task pairs that conflict (sharing a written location).
    fn toy(n: u32, conflict_all: bool) -> impl FnMut(&[usize]) -> RunResult {
        move |script: &[usize]| {
            let mut remaining: Vec<u32> = (1..=n).collect();
            let mut choices = Vec::new();
            let mut order = Vec::new();
            let mut footprints = Vec::new();
            while !remaining.is_empty() {
                let chosen = if remaining.len() == 1 {
                    0
                } else {
                    let idx = choices.len();
                    let pick = script
                        .get(idx)
                        .copied()
                        .unwrap_or(0)
                        .min(remaining.len() - 1);
                    choices.push(Choice {
                        options: remaining.clone(),
                        chosen: pick,
                        // Each toy task runs exactly one slice.
                        slices: vec![1; remaining.len()],
                    });
                    pick
                };
                let tid = remaining.remove(chosen);
                order.push(tid);
                let mut fp = Footprint::default();
                if conflict_all {
                    fp.locs.insert(Loc::Named("shared", 0), true);
                } else {
                    fp.locs.insert(Loc::Named("private", u64::from(tid)), true);
                    fp.syncs.insert(SyncId::Named("own", u64::from(tid)));
                }
                footprints.push(((tid, 1), fp));
            }
            RunResult {
                outcome: Outcome {
                    elapsed: 100,
                    cpu: (1..=n).map(|t| (t, 10)).collect(),
                    payload: vec![("order-len".to_string(), order.len() as u64)],
                    error: None,
                },
                choices,
                footprints,
            }
        }
    }

    #[test]
    fn exhaustive_enumeration_without_conflicts_prunes_to_linear() {
        // 3 fully independent tasks: sleep sets should collapse the 6
        // interleavings to far fewer complete schedules.
        let report = explore(toy(3, false), 1_000, None);
        assert!(report.passed(), "{:?}", report.failures);
        assert_eq!(report.distinct_outcomes, 1);
        assert!(report.pruned > 0, "independent tasks should prune");
        assert!(
            report.schedules < 6,
            "expected pruning below 3! = 6 schedules, got {}",
            report.schedules
        );
    }

    #[test]
    fn conflicting_tasks_enumerate_every_interleaving() {
        let report = explore(toy(3, true), 1_000, None);
        assert!(report.passed(), "{:?}", report.failures);
        assert_eq!(
            report.schedules, 6,
            "all-dependent tasks must enumerate 3! interleavings"
        );
        assert_eq!(report.pruned, 0);
        assert_eq!(report.distinct_outcomes, 1);
    }

    #[test]
    fn missing_footprints_disable_pruning() {
        let mut inner = toy(3, false);
        let report = explore(
            move |s: &[usize]| {
                let mut r = inner(s);
                r.footprints.clear();
                r
            },
            1_000,
            None,
        );
        assert!(report.passed());
        assert_eq!(report.schedules, 6, "no footprints, no pruning");
    }

    #[test]
    fn schedule_dependent_outcome_is_reported() {
        // Outcome leaks the order of the first pick.
        let mut inner = toy(2, true);
        let report = explore(
            move |s: &[usize]| {
                let mut r = inner(s);
                let first = s.first().copied().unwrap_or(0) as u64;
                r.outcome.payload.push(("first-pick".to_string(), first));
                r
            },
            1_000,
            None,
        );
        assert!(!report.passed());
        assert_eq!(report.distinct_outcomes, 2);
        assert!(
            report.failures[0].contains("diverged"),
            "{:?}",
            report.failures
        );
    }

    #[test]
    fn deadlock_outcomes_fail_the_report() {
        let mut inner = toy(2, true);
        let report = explore(
            move |s: &[usize]| {
                let mut r = inner(s);
                if s.first() == Some(&1) {
                    r.outcome.error = Some("deadlock: everyone blocked".to_string());
                }
                r
            },
            1_000,
            None,
        );
        assert!(!report.passed());
        assert!(
            report.failures.iter().any(|f| f.contains("deadlock")),
            "{:?}",
            report.failures
        );
    }

    #[test]
    fn pinned_expected_outcome_catches_consistent_mutants() {
        // Every schedule agrees with every other — but not with the
        // clean build's pinned outcome.
        let clean = explore(toy(2, true), 1_000, None);
        let mut expected = clean.outcome.clone().unwrap();
        let report = explore(toy(2, true), 1_000, Some(&expected));
        assert!(report.passed(), "same outcome passes against the pin");
        expected.elapsed += 1;
        let report = explore(toy(2, true), 1_000, Some(&expected));
        assert!(!report.passed(), "consistently-wrong outcome is caught");
        assert!(report.failures[0].contains("pinned expected outcome"));
    }

    #[test]
    fn run_cap_is_reported() {
        let report = explore(toy(4, true), 3, None);
        assert!(!report.passed());
        assert!(report.failures.iter().any(|f| f.contains("run cap")));
    }

    #[test]
    fn pruned_and_unpruned_agree_on_outcomes() {
        // The safety net the docs promise: pruning changes the count,
        // never the verdict.
        let pruned = explore(toy(3, false), 1_000, None);
        let mut inner = toy(3, false);
        let unpruned = explore(
            move |s: &[usize]| {
                let mut r = inner(s);
                r.footprints.clear();
                r
            },
            1_000,
            None,
        );
        assert_eq!(pruned.passed(), unpruned.passed());
        assert_eq!(pruned.outcome, unpruned.outcome);
        assert!(pruned.schedules <= unpruned.schedules);
    }
}
