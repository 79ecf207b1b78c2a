//! A mutex for simulated processes.
//!
//! Host `Mutex`es must never be held across a blocking call: a task
//! holding a guard across an `.await` fails `spawn_task`'s `Send` bound,
//! and a threaded process that parked with one held would leave the next
//! process to block on it at the host level, invisible to the engine — a
//! real deadlock. When kernel code needs mutual exclusion *across*
//! blocking operations — e.g. one RPC in flight at a time — it awaits
//! this lock instead: contenders block through the engine's wait queues,
//! so the scheduler keeps control.

use std::sync::atomic::{AtomicBool, Ordering};

use crate::engine::{Sim, WaitId};

/// A simulation-aware mutual-exclusion lock (no data; guard the state it
/// protects by convention, as 1990s kernels did).
pub struct SimMutex {
    held: AtomicBool,
    waiters: WaitId,
}

impl SimMutex {
    /// Creates an unlocked mutex on `sim`.
    pub fn new(sim: &Sim) -> SimMutex {
        SimMutex {
            held: AtomicBool::new(false),
            waiters: sim.new_queue(),
        }
    }

    /// Acquires the lock, blocking the calling simulated process while
    /// another holds it. A threaded process runs it through `Sim::block_on`.
    ///
    /// The acquisition is recorded in the engine's lock-order graph;
    /// establishing both `A -> B` and `B -> A` orders across the run
    /// fails the simulation loudly even when this particular
    /// interleaving happens not to deadlock.
    pub async fn lock(&self, sim: &Sim) {
        sim.audit_mutex_acquiring(self.waiters);
        // Processes run atomically between blocking calls, so this
        // check-then-set cannot race; the atomic is only for `Sync`.
        while self.held.load(Ordering::Relaxed) {
            sim.wait_on(self.waiters, "sim mutex").await;
        }
        self.held.store(true, Ordering::Relaxed);
        sim.audit_mutex_acquired(self.waiters);
    }

    /// Releases the lock and wakes one waiter.
    ///
    /// # Panics
    ///
    /// Panics if the lock is not held.
    pub fn unlock(&self, sim: &Sim) {
        assert!(
            self.held.swap(false, Ordering::Relaxed),
            "unlock of an unheld SimMutex"
        );
        sim.audit_mutex_released(self.waiters);
        sim.wakeup_one(self.waiters);
    }

    /// Whether the lock is currently held.
    pub fn is_locked(&self) -> bool {
        self.held.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SimConfig;
    use crate::policy::FifoPolicy;
    use crate::time::Cycles;
    use parking_lot::Mutex;
    use std::sync::Arc;

    #[test]
    fn serializes_critical_sections() {
        let sim = Sim::new(Box::new(FifoPolicy::new()), SimConfig::default());
        let lock = Arc::new(SimMutex::new(&sim));
        let log = Arc::new(Mutex::new(Vec::new()));
        for i in 0..3 {
            let lock = lock.clone();
            let log = log.clone();
            sim.spawn_task(format!("p{i}"), move |s| async move {
                lock.lock(&s).await;
                log.lock().push((i, "in"));
                s.sleep(Cycles(1_000)).await; // Blocking inside the section.
                s.advance(Cycles(10));
                log.lock().push((i, "out"));
                lock.unlock(&s);
            });
        }
        let _ = sim.run().unwrap();
        let log = log.lock();
        assert_eq!(log.len(), 6);
        // Sections never interleave: every "in" is followed by its "out".
        for pair in log.chunks(2) {
            assert_eq!(pair[0].0, pair[1].0, "interleaved sections: {log:?}");
            assert_eq!((pair[0].1, pair[1].1), ("in", "out"));
        }
    }

    #[test]
    #[should_panic(expected = "unheld")]
    fn unlock_unheld_panics() {
        let sim = Sim::new(Box::new(FifoPolicy::new()), SimConfig::default());
        let lock = Arc::new(SimMutex::new(&sim));
        let l2 = lock.clone();
        sim.spawn_task("bad", move |s| async move { l2.unlock(&s) });
        // The panic propagates through run() as an error; re-panic for
        // should_panic to observe.
        if let Err(e) = sim.run() {
            panic!("{e}");
        }
    }

    #[test]
    fn is_locked_reflects_state() {
        let sim = Sim::new(Box::new(FifoPolicy::new()), SimConfig::default());
        let lock = Arc::new(SimMutex::new(&sim));
        assert!(!lock.is_locked());
        let l2 = lock.clone();
        sim.spawn_task("p", move |s| async move {
            l2.lock(&s).await;
            assert!(l2.is_locked());
            l2.unlock(&s);
            assert!(!l2.is_locked());
        });
        let _ = sim.run().unwrap();
    }
}
