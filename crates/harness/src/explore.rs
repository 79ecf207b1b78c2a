//! The canned schedule-exploration scenarios behind `reproduce explore`.
//!
//! Each scenario is a small (2–4 process) simulation exercising one of
//! the engine's synchronization mechanisms; `tnt_race::explore`
//! replays it under every interleaving of contended dispatches (with
//! sleep-set pruning fed by the happens-before detector's footprints)
//! and asserts the outcome never changes, no schedule deadlocks, and no
//! wakeup is lost. A pass here is the engine's determinism claim made
//! schedule-quantified: *N schedules, one outcome*.

use std::sync::Arc;

use parking_lot::Mutex;
use tnt_runner::json::Value;
use tnt_sim::proc::{block_any, block_on, LiteScheduler, ProcCtx, Step, WaitReason};
use tnt_sim::race::{explore, run_scripted, Collector, ExploreReport};
use tnt_sim::{Cycles, Sim, SimChannel, SimMutex};

/// A named exploration scenario.
pub struct ExploreScenario {
    /// Stable id used on the command line and in `EXPLORE.json`.
    pub name: &'static str,
    /// One-line description for `--list` and the report.
    pub about: &'static str,
    build: fn(&Sim) -> Collector,
}

/// Three processes increment a shared counter under a `SimMutex`; the
/// final count and simulated time must not depend on who wins the lock.
/// One critical section each keeps the interleaving space closed under
/// a few hundred schedules while still contending every lock handoff.
fn mutex_contention(s: &Sim) -> Collector {
    let m = Arc::new(SimMutex::new(s));
    let counter = Arc::new(Mutex::new(0u64));
    for name in ["a", "b", "c"] {
        let m = m.clone();
        let counter = counter.clone();
        s.spawn_task(name, move |s| async move {
            m.lock(&s).await;
            s.race_write("explore.counter", 0);
            let v = *counter.lock();
            s.advance(Cycles(10));
            *counter.lock() = v + 1;
            m.unlock(&s);
            s.yield_now().await;
        });
    }
    let sim = s.clone();
    Box::new(move || {
        vec![
            ("counter".to_string(), *counter.lock()),
            ("now".to_string(), sim.now().0),
        ]
    })
}

/// Two producers and one consumer rendezvous over a capacity-1
/// `SimChannel`; the received multiset (checked as sum and count) must
/// be schedule-invariant even though arrival order is contended.
fn channel_rendezvous(s: &Sim) -> Collector {
    let ch = Arc::new(SimChannel::new(s, 1));
    for (name, base) in [("p0", 10u64), ("p1", 20u64)] {
        let tx = ch.clone();
        s.spawn_task(name, move |s| async move {
            for i in 1..=2 {
                tx.send(&s, base + i).await;
            }
        });
    }
    let sum = Arc::new(Mutex::new((0u64, 0u64)));
    let out = sum.clone();
    let rx = ch.clone();
    s.spawn_task("consumer", move |s| async move {
        for _ in 0..4 {
            let v: u64 = rx.recv(&s).await;
            s.advance(Cycles(25));
            let mut g = out.lock();
            g.0 += v;
            g.1 += 1;
        }
    });
    let sim = s.clone();
    Box::new(move || {
        let (total, count) = *sum.lock();
        vec![
            ("sum".to_string(), total),
            ("count".to_string(), count),
            ("now".to_string(), sim.now().0),
        ]
    })
}

/// A lite process parked on a wait queue is woken by a task: the
/// mailbox-token plus doorbell path that mixes the two process models
/// in one wakeup.
fn lite_mix(s: &Sim) -> Collector {
    let q = s.new_queue();
    let woken_at = Arc::new(Mutex::new(0u64));
    let out = woken_at.clone();
    let mut sched = LiteScheduler::new(s);
    let mut waited = false;
    sched.spawn(
        "waiter",
        Box::new(move |ctx: &mut ProcCtx| {
            if !waited {
                waited = true;
                return block_on(q, "await signal");
            }
            *out.lock() = ctx.sim().now().0;
            Step::Done
        }),
    );
    sched.start("sched");
    s.spawn_task("waker", move |s| async move {
        s.sleep(Cycles(1_000)).await;
        s.wakeup_one(q);
    });
    Box::new(move || vec![("woken_at".to_string(), *woken_at.lock())])
}

/// A host-armed queue wakeup ties with a wait timeout at the same
/// simulated instant; the engine's `(at, seq)` FIFO tie-break must
/// deliver the wakeup (armed first) on every schedule.
fn timer_race(s: &Sim) -> Collector {
    let q = s.new_queue();
    s.wakeup_one_at(q, Cycles(1_000));
    let woken = Arc::new(Mutex::new(0u64));
    let out = woken.clone();
    s.spawn_task("waiter", move |s| async move {
        let signalled = s.wait_on_timeout(q, Cycles(1_000), "tie wait").await;
        *out.lock() = u64::from(signalled);
    });
    Box::new(move || vec![("signalled".to_string(), *woken.lock())])
}

/// The fault-plane's RTO shape: the first reply misses the client's
/// retransmit timeout, the retransmitted wait catches it. Retry count
/// and completion time must be schedule-invariant.
fn retransmit(s: &Sim) -> Collector {
    let reply_q = s.new_queue();
    let done = Arc::new(Mutex::new((0u64, 0u64)));
    let out = done.clone();
    s.spawn_task("client", move |s| async move {
        let mut retries = 0u64;
        while !s.wait_on_timeout(reply_q, Cycles(500), "await reply").await {
            retries += 1;
            assert!(retries < 8, "reply never arrived");
        }
        *out.lock() = (retries, s.now().0);
    });
    s.spawn_task("server", move |s| async move {
        s.sleep(Cycles(800)).await;
        s.wakeup_one(reply_q);
    });
    let sim = s.clone();
    Box::new(move || {
        let (retries, at) = *done.lock();
        vec![
            ("retries".to_string(), retries),
            ("done_at".to_string(), at),
            ("now".to_string(), sim.now().0),
        ]
    })
}

/// A lite `select(2)`: reply-or-timeout where the reply wins, then a
/// sleep across the dead deadline — the cancelled-timeout path of
/// `WaitReason::Any`.
fn any_select(s: &Sim) -> Collector {
    let q = s.new_queue();
    let log = Arc::new(Mutex::new(Vec::new()));
    let out = log.clone();
    let mut sched = LiteScheduler::new(s);
    let mut phase = 0;
    sched.spawn(
        "client",
        Box::new(move |ctx: &mut ProcCtx| {
            phase += 1;
            match phase {
                1 => block_any(ctx, &[q], Some(Cycles(10_000)), "reply or rto"),
                2 => {
                    out.lock().push(ctx.sim().now().0);
                    Step::Block(WaitReason::Until(25_000))
                }
                _ => {
                    out.lock().push(ctx.sim().now().0);
                    Step::Done
                }
            }
        }),
    );
    sched.start("sched");
    s.spawn_task("server", move |s| async move {
        s.sleep(Cycles(4_000)).await;
        s.wakeup_one(q);
    });
    Box::new(move || {
        log.lock()
            .iter()
            .enumerate()
            .map(|(i, t)| (format!("wake{i}"), *t))
            .collect()
    })
}

/// The scenario registry, in report order.
pub fn explore_scenarios() -> Vec<ExploreScenario> {
    vec![
        ExploreScenario {
            name: "mutex-contention",
            about: "three procs race a SimMutex-guarded counter",
            build: mutex_contention,
        },
        ExploreScenario {
            name: "channel-rendezvous",
            about: "two producers, one consumer over a capacity-1 SimChannel",
            build: channel_rendezvous,
        },
        ExploreScenario {
            name: "lite-mix",
            about: "a task wakes a lite proc (mailbox token + doorbell)",
            build: lite_mix,
        },
        ExploreScenario {
            name: "timer-race",
            about: "queue wakeup ties a wait timeout at the same instant",
            build: timer_race,
        },
        ExploreScenario {
            name: "retransmit",
            about: "RTO fires before the late reply; the retry catches it",
            build: retransmit,
        },
        ExploreScenario {
            name: "any-select",
            about: "lite select(2): reply beats timeout, deadline is cancelled",
            build: any_select,
        },
    ]
}

/// Names of every canned scenario, in report order.
pub fn explore_ids() -> Vec<&'static str> {
    explore_scenarios().iter().map(|s| s.name).collect()
}

/// Outcome of exploring one scenario.
#[derive(Debug)]
pub struct ExploreOutcome {
    /// Scenario name.
    pub name: &'static str,
    /// Scenario description.
    pub about: &'static str,
    /// The explorer's report.
    pub report: ExploreReport,
}

/// Schedule-explores the named scenarios (every canned one when `names`
/// is empty or contains `"all"`). `max_runs` caps the runs per scenario;
/// hitting the cap is reported as a failure, never a silent truncation.
/// Unknown names are an error listing the valid ids.
pub fn run_explore(names: &[String], max_runs: usize) -> Result<Vec<ExploreOutcome>, String> {
    let scenarios = explore_scenarios();
    let all = names.is_empty() || names.iter().any(|n| n == "all");
    if !all {
        for n in names {
            if !scenarios.iter().any(|s| s.name == n) {
                return Err(format!(
                    "unknown explore scenario {n:?}; valid: {}",
                    explore_ids().join(" ")
                ));
            }
        }
    }
    Ok(scenarios
        .into_iter()
        .filter(|s| all || names.iter().any(|n| n == s.name))
        .map(|s| {
            let build = s.build;
            let report = explore(|script| run_scripted(script, build), max_runs, None);
            ExploreOutcome {
                name: s.name,
                about: s.about,
                report,
            }
        })
        .collect())
}

/// Renders the human-readable block for one scenario.
pub fn render_explore(o: &ExploreOutcome) -> String {
    let r = &o.report;
    let verdict = if r.passed() { "PASS" } else { "FAIL" };
    let mut out = format!(
        "  {:<20} {:>5} schedule(s)  {:>5} pruned  {:>5} run(s)  {} outcome(s)  {}\n",
        o.name, r.schedules, r.pruned, r.runs, r.distinct_outcomes, verdict
    );
    for f in &r.failures {
        out.push_str(&format!("    FAIL: {f}\n"));
    }
    out
}

/// The `EXPLORE.json` artifact: per-scenario schedule counts and the
/// overall verdict, for the CI schedule-count upload.
pub fn explore_json(outcomes: &[ExploreOutcome]) -> Value {
    let passed = outcomes.iter().all(|o| o.report.passed());
    Value::Obj(vec![
        ("artifact".into(), Value::Str("explore".into())),
        ("passed".into(), Value::Bool(passed)),
        (
            "scenarios".into(),
            Value::Arr(
                outcomes
                    .iter()
                    .map(|o| {
                        Value::Obj(vec![
                            ("name".into(), Value::Str(o.name.into())),
                            ("about".into(), Value::Str(o.about.into())),
                            ("schedules".into(), Value::Num(o.report.schedules as f64)),
                            ("pruned".into(), Value::Num(o.report.pruned as f64)),
                            ("runs".into(), Value::Num(o.report.runs as f64)),
                            (
                                "distinct_outcomes".into(),
                                Value::Num(o.report.distinct_outcomes as f64),
                            ),
                            ("passed".into(), Value::Bool(o.report.passed())),
                            (
                                "failures".into(),
                                Value::Arr(
                                    o.report
                                        .failures
                                        .iter()
                                        .map(|f| Value::Str(f.clone()))
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tentpole acceptance check: every canned scenario passes —
    /// one outcome across every explored schedule, no deadlocks.
    #[test]
    fn every_canned_scenario_is_schedule_invariant() {
        let outcomes = run_explore(&[], 512).unwrap();
        assert_eq!(outcomes.len(), explore_ids().len());
        for o in &outcomes {
            assert!(o.report.passed(), "{}: {:?}", o.name, o.report.failures);
            assert_eq!(o.report.distinct_outcomes, 1, "{}", o.name);
            assert!(o.report.schedules >= 1, "{}", o.name);
        }
        // Contended scenarios genuinely branch: at least one explores
        // more than one schedule.
        assert!(
            outcomes.iter().any(|o| o.report.schedules > 1),
            "no scenario had any scheduling freedom"
        );
    }

    #[test]
    fn unknown_scenarios_are_rejected() {
        let err = run_explore(&["mutex-contention".into(), "nope".into()], 16).unwrap_err();
        assert!(err.contains("nope") && err.contains("mutex-contention"));
    }

    #[test]
    fn selected_scenarios_run_alone() {
        let outcomes = run_explore(&["timer-race".into()], 64).unwrap();
        assert_eq!(outcomes.len(), 1);
        assert_eq!(outcomes[0].name, "timer-race");
        assert!(
            outcomes[0].report.passed(),
            "{:?}",
            outcomes[0].report.failures
        );
    }

    #[test]
    fn explore_json_carries_schedule_counts() {
        let outcomes = run_explore(&["lite-mix".into()], 64).unwrap();
        let text = explore_json(&outcomes).render();
        assert!(text.contains("\"lite-mix\""));
        assert!(text.contains("\"schedules\""));
        assert!(text.contains("\"passed\": true"), "{text}");
    }
}
