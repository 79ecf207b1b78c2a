//! Regression gate for the race tooling: planted engine bugs (the
//! `MUTANT_*` bits in `engine.rs`) that the happens-before checker or
//! the schedule explorer must catch, plus positive/negative checks for
//! the user-facing `race_read`/`race_write` hooks. Every mutant is a
//! real bug class the deterministic engine is designed out of: a lost
//! doorbell wakeup, a broken timer tie-break, an unlocked trace-ring
//! write, and a stale `WaitReason::Any` queue token. The engine's own
//! structure accesses (run queue, trace ring, timer heap) are ordered
//! by the engine lock and create no happens-before edge, so a yield, a
//! charge or a sleep between two user writes orders nothing.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::engine::{
    Sim, SimConfig, SimError, MUTANT_DROP_DOORBELL, MUTANT_SKIP_ANY_CANCEL,
    MUTANT_TIMER_TIE_REORDER, MUTANT_UNLOCKED_RING_WRITE,
};
use crate::lite::{block_any, block_on, LiteScheduler, ProcCtx};
use crate::lock::SimMutex;
use crate::policy::FifoPolicy;
use crate::race::{explore, run_scripted, Collector, ExploreReport};
use crate::time::Cycles;
use tnt_proc::Step;

fn sim() -> Sim {
    Sim::new(Box::new(FifoPolicy::new()), SimConfig::default())
}

#[test]
fn detector_is_disarmed_by_default() {
    let s = sim();
    assert!(!s.race_armed());
    // The hooks are free no-ops when disarmed.
    s.race_write("anything", 7);
    s.race_read("anything", 7);
    s.spawn_task("w", |s| async move {
        s.race_write("anything", 7);
        s.advance(Cycles(10));
    });
    let _ = s.run().unwrap();
}

#[test]
fn unordered_user_writes_race() {
    let s = sim();
    s.arm_race_detector();
    for name in ["a", "b"] {
        s.spawn_task(name, |s| async move {
            s.advance(Cycles(10));
            s.race_write("shared-counter", 0);
        });
    }
    let err = s.run().unwrap_err();
    match err {
        SimError::ProcPanic(msg) => {
            assert!(msg.contains("data race"), "panic message: {msg}");
            assert!(msg.contains("shared-counter"), "panic message: {msg}");
        }
        other => panic!("expected a proc panic, got {other:?}"),
    }
}

/// Runs two tasks that write one location with nothing ordering them:
/// the first does `between` after its write, the second before its
/// write. The engine structures `between` touches are no edge, so the
/// run must fail with the race.
fn assert_unordered_writes_race<F>(between: fn(Sim) -> F)
where
    F: std::future::Future<Output = ()> + Send + 'static,
{
    let s = sim();
    s.arm_race_detector();
    s.spawn_task("first", move |s| async move {
        s.race_write("shared-counter", 0);
        between(s).await;
    });
    s.spawn_task("second", move |s| async move {
        between(s.clone()).await;
        s.race_write("shared-counter", 0);
    });
    match s.run().unwrap_err() {
        SimError::ProcPanic(msg) => {
            assert!(msg.contains("data race"), "panic message: {msg}");
            assert!(msg.contains("shared-counter"), "panic message: {msg}");
        }
        other => panic!("expected a proc panic, got {other:?}"),
    }
}

#[test]
fn a_yield_between_unordered_writes_orders_nothing() {
    assert_unordered_writes_race(|s| async move { s.yield_now().await });
}

#[test]
fn a_charge_between_unordered_writes_orders_nothing() {
    assert_unordered_writes_race(|s| async move { s.advance(Cycles(10)) });
}

#[test]
fn a_sleep_between_unordered_writes_orders_nothing() {
    assert_unordered_writes_race(|s| async move { s.sleep(Cycles(10)).await });
}

#[test]
fn mutex_ordered_user_writes_do_not_race() {
    let s = sim();
    s.arm_race_detector();
    let m = Arc::new(SimMutex::new(&s));
    for name in ["a", "b"] {
        let m = m.clone();
        s.spawn_task(name, move |s| async move {
            s.advance(Cycles(10));
            m.lock(&s).await;
            s.race_write("shared-counter", 0);
            m.unlock(&s);
        });
    }
    let _ = s.run().unwrap();
}

#[test]
fn channel_ordered_user_writes_do_not_race() {
    let s = sim();
    s.arm_race_detector();
    let ch = Arc::new(crate::chan::SimChannel::new(&s, 1));
    let tx = ch.clone();
    s.spawn_task("producer", move |s| async move {
        s.race_write("handoff", 0);
        tx.send(&s, 1u32).await;
    });
    let rx = ch.clone();
    s.spawn_task("consumer", move |s| async move {
        let _ = rx.recv(&s).await;
        s.race_write("handoff", 0);
    });
    let _ = s.run().unwrap();
}

// ----------------------------------------------------------------------
// Planted mutants.
// ----------------------------------------------------------------------

/// Mutant 3: the charge path writes the trace ring without its lock
/// discipline. Two procs that never synchronize both charge; the
/// happens-before checker sees the raw write unordered with the other
/// proc's disciplined one and fails the run.
#[test]
fn mutant_unlocked_ring_write_is_caught_by_the_checker() {
    let run = |mutant: bool| {
        let s = sim();
        if mutant {
            s.set_mutant(MUTANT_UNLOCKED_RING_WRITE);
        }
        s.arm_race_detector();
        for name in ["a", "b"] {
            s.spawn_task(name, |s| async move {
                s.advance(Cycles(100));
            });
        }
        s.run()
    };
    let _ = run(false).expect("disciplined ring writes never race");
    let err = run(true).unwrap_err();
    match err {
        SimError::ProcPanic(msg) => {
            assert!(msg.contains("data race"), "panic message: {msg}");
            assert!(msg.contains("TraceRing"), "panic message: {msg}");
        }
        other => panic!("expected a proc panic, got {other:?}"),
    }
}

/// A lite waiter woken by a task: the scenario whose doorbell ring
/// mutant 1 drops.
fn lite_mix_scenario(mutant: bool) -> impl Fn(&Sim) -> Collector {
    move |s: &Sim| {
        if mutant {
            s.set_mutant(MUTANT_DROP_DOORBELL);
        }
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
}

/// Mutant 1: the wakeup token is delivered but the scheduler's doorbell
/// is never rung — a lost wakeup. Every schedule the explorer tries
/// deadlocks, and the report says so.
#[test]
fn mutant_dropped_doorbell_is_caught_by_the_explorer() {
    let clean = explore(
        |script| run_scripted(script, lite_mix_scenario(false)),
        256,
        None,
    );
    assert!(
        clean.passed(),
        "clean engine must pass: {:?}",
        clean.failures
    );
    let report = explore(
        |script| run_scripted(script, lite_mix_scenario(true)),
        256,
        None,
    );
    assert!(!report.passed());
    assert!(
        report.failures.iter().any(|f| f.contains("deadlock")),
        "failures: {:?}",
        report.failures
    );
}

/// Equal-instant timers: a host-armed queue wakeup (armed first) ties
/// with a proc's wait timeout. The FIFO tie-break delivers the wakeup;
/// the timeout then finds nobody waiting.
fn timer_tie_scenario(mutant: bool) -> impl Fn(&Sim) -> Collector {
    move |s: &Sim| {
        if mutant {
            s.set_mutant(MUTANT_TIMER_TIE_REORDER);
        }
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
}

/// Mutant 2: equal-instant timers fire in reverse arming order. Every
/// mutated schedule consistently reports the timeout instead of the
/// wakeup, so only the pinned clean-run outcome exposes the bug.
#[test]
fn mutant_timer_tie_reorder_is_caught_by_pinned_outcome() {
    let clean = explore(
        |script| run_scripted(script, timer_tie_scenario(false)),
        256,
        None,
    );
    assert!(
        clean.passed(),
        "clean engine must pass: {:?}",
        clean.failures
    );
    let expected = clean.outcome.clone().expect("clean run has an outcome");
    assert_eq!(expected.payload, vec![("signalled".to_string(), 1)]);
    let report = explore(
        |script| run_scripted(script, timer_tie_scenario(true)),
        256,
        Some(&expected),
    );
    assert!(!report.passed());
    assert!(
        report.failures.iter().any(|f| f.contains("pinned")),
        "failures: {:?}",
        report.failures
    );
}

/// A lite `Any` wait whose timeout wins, then a late signal on the
/// losing queue while the client sleeps: the disarm in the drive loop
/// is what keeps the late signal from waking the next wait.
fn stale_any_scenario(mutant: bool) -> impl Fn(&Sim) -> Collector {
    move |s: &Sim| {
        if mutant {
            s.set_mutant(MUTANT_SKIP_ANY_CANCEL);
        }
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
                    1 => block_any(ctx, &[q], Some(Cycles(5_000)), "reply or rto"),
                    2 => {
                        out.lock().push(ctx.sim().now().0);
                        Step::Block(tnt_proc::WaitReason::Until(20_000))
                    }
                    _ => {
                        out.lock().push(ctx.sim().now().0);
                        Step::Done
                    }
                }
            }),
        );
        sched.start("sched");
        s.spawn_task("late-server", move |s| async move {
            s.sleep(Cycles(8_000)).await;
            s.wakeup_one(q);
        });
        let log = log.clone();
        Box::new(move || {
            log.lock()
                .iter()
                .enumerate()
                .map(|(i, t)| (format!("wake{i}"), *t))
                .collect()
        })
    }
}

/// Mutant 4: the timed-out `Any` wait's queue tokens stay armed, so the
/// late signal yanks the client out of its *next* wait at 8_000 instead
/// of letting it sleep to 20_000. Caught against the pinned outcome.
#[test]
fn mutant_stale_any_token_is_caught_by_pinned_outcome() {
    let clean = explore(
        |script| run_scripted(script, stale_any_scenario(false)),
        256,
        None,
    );
    assert!(
        clean.passed(),
        "clean engine must pass: {:?}",
        clean.failures
    );
    let expected = clean.outcome.clone().expect("clean run has an outcome");
    assert_eq!(
        expected.payload,
        vec![("wake0".to_string(), 5_000), ("wake1".to_string(), 20_000)]
    );
    let report = explore(
        |script| run_scripted(script, stale_any_scenario(true)),
        256,
        Some(&expected),
    );
    assert!(!report.passed(), "stale token must change the outcome");
}

/// The explorer on the clean engine: schedule-invariant scenarios pass,
/// and sleep-set pruning keeps the run count below the naive factorial.
#[test]
fn clean_scenarios_are_schedule_invariant() {
    let report: ExploreReport = explore(
        |script| run_scripted(script, timer_tie_scenario(false)),
        256,
        None,
    );
    assert!(report.passed(), "failures: {:?}", report.failures);
    assert_eq!(report.distinct_outcomes, 1);
    assert!(report.schedules >= 1);
}
