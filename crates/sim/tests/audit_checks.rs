//! Integration tests for the dynamic audit checkers: the SimMutex
//! lock-order graph and the lost-wakeup diagnosis.
//!
//! Each deliberate violation surfaces as `SimError::ProcPanic` (the
//! checker panics inside the offending simulated process) or as an
//! augmented `SimError::Deadlock` message, so the tests assert on the
//! error text rather than on raw panics — except one `#[should_panic]`
//! case that re-raises to prove the failure is loud.

use std::sync::Arc;

use tnt_sim::{Cycles, FifoPolicy, Sim, SimConfig, SimError, SimMutex};

fn sim() -> Sim {
    Sim::new(Box::new(FifoPolicy::new()), SimConfig::default())
}

#[test]
fn lock_order_cycle_detected_without_deadlocking() {
    // One process takes A then B; later another takes B then A. The
    // interleaving is serial — no deadlock occurs — but the reversed
    // order is a deadlock one interleaving away, and the graph sees it.
    let s = sim();
    let a = Arc::new(SimMutex::new(&s));
    let b = Arc::new(SimMutex::new(&s));
    let (a1, b1) = (a.clone(), b.clone());
    s.spawn_task("forward", move |s| async move {
        a1.lock(&s).await;
        b1.lock(&s).await;
        b1.unlock(&s);
        a1.unlock(&s);
    });
    let (a2, b2) = (a.clone(), b.clone());
    s.spawn_task("reversed", move |s| async move {
        s.advance(Cycles(10));
        b2.lock(&s).await;
        a2.lock(&s).await; // trips: order a -> b already established
        a2.unlock(&s);
        b2.unlock(&s);
    });
    match s.run() {
        Err(SimError::ProcPanic(msg)) => {
            assert!(msg.contains("lock-order violation"), "got: {msg}");
            assert!(msg.contains("reversed"), "names the process: {msg}");
        }
        other => panic!("expected lock-order panic, got {other:?}"),
    }
}

#[test]
fn ab_ba_interleaving_trips_before_the_deadlock() {
    // The classic: p1 holds A and wants B, p2 holds B and wants A.
    // The checker fires on p2's acquisition attempt — before the
    // engine would have to diagnose an opaque deadlock.
    let s = sim();
    let a = Arc::new(SimMutex::new(&s));
    let b = Arc::new(SimMutex::new(&s));
    let (a1, b1) = (a.clone(), b.clone());
    s.spawn_task("p1", move |s| async move {
        a1.lock(&s).await;
        s.yield_now().await;
        b1.lock(&s).await;
        b1.unlock(&s);
        a1.unlock(&s);
    });
    let (a2, b2) = (a.clone(), b.clone());
    s.spawn_task("p2", move |s| async move {
        b2.lock(&s).await;
        s.yield_now().await;
        a2.lock(&s).await;
        a2.unlock(&s);
        b2.unlock(&s);
    });
    match s.run() {
        Err(SimError::ProcPanic(msg)) => {
            assert!(msg.contains("lock-order violation"), "got: {msg}");
        }
        other => panic!("expected lock-order panic, got {other:?}"),
    }
}

#[test]
#[should_panic(expected = "lock-order violation")]
fn lock_order_violation_is_loud() {
    let s = sim();
    let a = Arc::new(SimMutex::new(&s));
    let b = Arc::new(SimMutex::new(&s));
    let (a1, b1) = (a.clone(), b.clone());
    s.spawn_task("fwd", move |s| async move {
        a1.lock(&s).await;
        b1.lock(&s).await;
        b1.unlock(&s);
        a1.unlock(&s);
    });
    s.spawn_task("rev", move |s| async move {
        s.advance(Cycles(1));
        b.lock(&s).await;
        a.lock(&s).await;
        a.unlock(&s);
        b.unlock(&s);
    });
    if let Err(e) = s.run() {
        panic!("{e}");
    }
}

#[test]
fn consistent_lock_order_is_fine() {
    // Many processes, same order, contention and blocking inside the
    // sections: the graph stays acyclic and the run completes.
    let s = sim();
    let a = Arc::new(SimMutex::new(&s));
    let b = Arc::new(SimMutex::new(&s));
    for i in 0..4 {
        let (a, b) = (a.clone(), b.clone());
        s.spawn_task(format!("p{i}"), move |s| async move {
            for _ in 0..3 {
                a.lock(&s).await;
                b.lock(&s).await;
                s.sleep(Cycles(100)).await;
                b.unlock(&s);
                a.unlock(&s);
                s.yield_now().await;
            }
        });
    }
    let _ = s.run().expect("consistent order must not trip the checker");
}

#[test]
fn lost_wakeup_is_diagnosed_at_deadlock() {
    // Signal-before-wait: the waker signals an empty queue and exits;
    // the waiter blocks afterwards and waits forever. The deadlock
    // report must point at the into-the-void signal.
    let s = sim();
    let q = s.new_queue();
    s.spawn_task("waker", move |s| async move {
        s.advance(Cycles(5));
        let woke = s.wakeup_one(q); // nobody is waiting yet
        assert!(!woke);
    });
    s.spawn_task("waiter", move |s| async move {
        s.advance(Cycles(50));
        s.wait_on(q, "condition").await; // too late: the signal is gone
    });
    match s.run() {
        Err(SimError::Deadlock(msg)) => {
            assert!(msg.contains("waiter"), "got: {msg}");
            assert!(msg.contains("possible lost wakeup"), "got: {msg}");
            assert!(msg.contains("t=5"), "names the signal time: {msg}");
        }
        other => panic!("expected deadlock with lost-wakeup hint, got {other:?}"),
    }
}

#[test]
fn delivered_signal_clears_the_lost_wakeup_record() {
    // An early empty signal followed by a later, delivered one must not
    // smear the diagnosis onto an unrelated deadlock.
    let s = sim();
    let q = s.new_queue();
    let dead = s.new_queue();
    s.spawn_task("waker", move |s| async move {
        s.wakeup_one(q); // empty signal at t=0
        s.sleep(Cycles(100)).await;
        s.wakeup_one(q); // delivered: the waiter is blocked by now
    });
    s.spawn_task("waiter", move |s| async move {
        s.advance(Cycles(10));
        s.wait_on(q, "first wait").await; // woken by the delivered signal
        s.wait_on(dead, "second wait").await; // deadlocks, but q is not to blame
    });
    match s.run() {
        Err(SimError::Deadlock(msg)) => {
            assert!(
                !msg.contains("possible lost wakeup"),
                "stale hint survived: {msg}"
            );
        }
        other => panic!("expected plain deadlock, got {other:?}"),
    }
}
