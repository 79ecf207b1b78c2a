//! Pluggable run-queue policy: which runnable process runs next and what
//! the dispatch costs.
//!
//! Each modelled operating system supplies its own [`RunPolicy`]; the
//! differences between them (Linux's O(n) task-table scan, FreeBSD's
//! constant-time queues, Solaris's dispatcher overhead) are what produce
//! Figure 1 of the paper.

use rand::rngs::StdRng;

use crate::time::Cycles;

/// Identifier of a simulated process within one simulation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Tid(pub u32);

/// Context handed to the policy when it must pick the next process.
pub struct DispatchEnv<'a> {
    /// Number of live (not yet exited) processes in the system, including
    /// blocked ones. Linux 1.2's scheduler cost scales with this.
    pub nlive: usize,
    /// Current simulated time.
    pub now: Cycles,
    /// Deterministic per-run RNG for modelled scheduling jitter.
    pub rng: &'a mut StdRng,
}

/// The policy's choice: who runs next, and the CPU cost of deciding.
#[derive(Clone, Copy, Debug)]
pub struct Pick {
    /// The process to run.
    pub tid: Tid,
    /// Scheduler overhead charged to the simulated clock for this dispatch
    /// (run-queue search, dispatcher locks, register reload, ...).
    pub cost: Cycles,
}

/// A run-queue policy. Implementations must be deterministic given the
/// same sequence of calls and the same RNG stream.
pub trait RunPolicy: Send {
    /// Adds a process to the runnable set.
    ///
    /// Called when a process is spawned, woken, or yields. A tid is never
    /// enqueued twice without an intervening `pick` or `forget` of it.
    /// `tag` is the opaque label given at spawn time (the tnt kernels use
    /// it to route processes to the right machine's scheduler).
    fn enqueue(&mut self, tid: Tid, tag: u32);

    /// Removes and returns the next process to run, or `None` if the
    /// runnable set is empty.
    fn pick(&mut self, env: &mut DispatchEnv<'_>) -> Option<Pick>;

    /// Removes a process from the runnable set if present (process killed).
    fn forget(&mut self, tid: Tid);

    /// Number of runnable processes.
    fn runnable(&self) -> usize;
}

/// A trivial FIFO policy with zero dispatch cost; used by unit tests and
/// by pure device simulations that do not model scheduler overhead.
#[derive(Default)]
pub struct FifoPolicy {
    queue: std::collections::VecDeque<Tid>,
}

impl FifoPolicy {
    /// Creates an empty FIFO policy.
    pub fn new() -> FifoPolicy {
        FifoPolicy::default()
    }
}

impl RunPolicy for FifoPolicy {
    fn enqueue(&mut self, tid: Tid, _tag: u32) {
        debug_assert!(!self.queue.contains(&tid), "tid {tid:?} enqueued twice");
        self.queue.push_back(tid);
    }

    fn pick(&mut self, _env: &mut DispatchEnv<'_>) -> Option<Pick> {
        self.queue.pop_front().map(|tid| Pick {
            tid,
            cost: Cycles::ZERO,
        })
    }

    fn forget(&mut self, tid: Tid) {
        self.queue.retain(|t| *t != tid);
    }

    fn runnable(&self) -> usize {
        self.queue.len()
    }
}

/// Shared log of the scheduling choices a [`ScriptedPolicy`] made: one
/// [`tnt_race::Choice`] per dispatch at which more than one process was
/// runnable. The explorer reads it back after each run to learn the
/// branch points of that schedule.
pub type ScheduleLog = std::sync::Arc<parking_lot::Mutex<Vec<tnt_race::Choice>>>;

/// The explorer's controlled scheduler: a zero-cost policy whose every
/// contended dispatch is decided by a replay *script* instead of queue
/// order.
///
/// At each pick with more than one runnable process the policy sorts
/// the candidates by tid, consults the next script entry (or takes
/// option 0 past the script's end — the canonical continuation), and
/// records a [`tnt_race::Choice`] carrying the candidate set and each
/// candidate's would-be slice number. Singleton picks are forced moves:
/// not recorded, not script-consuming. Deterministic and RNG-free by
/// construction.
pub struct ScriptedPolicy {
    runnable: std::collections::BTreeSet<Tid>,
    script: Vec<usize>,
    depth: usize,
    /// Completed dispatches per tid; a candidate's next slice is this
    /// plus one, matching the detector's `slice_begin` numbering.
    picks: std::collections::BTreeMap<u32, u32>,
    log: ScheduleLog,
}

impl ScriptedPolicy {
    /// Creates a policy replaying `script` and appending every branch
    /// point to `log`.
    pub fn new(script: Vec<usize>, log: ScheduleLog) -> ScriptedPolicy {
        ScriptedPolicy {
            runnable: std::collections::BTreeSet::new(),
            script,
            depth: 0,
            picks: std::collections::BTreeMap::new(),
            log,
        }
    }
}

impl RunPolicy for ScriptedPolicy {
    fn enqueue(&mut self, tid: Tid, _tag: u32) {
        debug_assert!(!self.runnable.contains(&tid), "tid {tid:?} enqueued twice");
        self.runnable.insert(tid);
    }

    fn pick(&mut self, _env: &mut DispatchEnv<'_>) -> Option<Pick> {
        if self.runnable.is_empty() {
            return None;
        }
        let options: Vec<Tid> = self.runnable.iter().copied().collect();
        let tid = if options.len() == 1 {
            options[0]
        } else {
            let idx = self
                .script
                .get(self.depth)
                .copied()
                .unwrap_or(0)
                .min(options.len() - 1);
            self.depth += 1;
            self.log.lock().push(tnt_race::Choice {
                options: options.iter().map(|t| t.0).collect(),
                chosen: idx,
                slices: options
                    .iter()
                    .map(|t| self.picks.get(&t.0).copied().unwrap_or(0) + 1)
                    .collect(),
            });
            options[idx]
        };
        self.runnable.remove(&tid);
        *self.picks.entry(tid.0).or_insert(0) += 1;
        Some(Pick {
            tid,
            cost: Cycles::ZERO,
        })
    }

    fn forget(&mut self, tid: Tid) {
        self.runnable.remove(&tid);
    }

    fn runnable(&self) -> usize {
        self.runnable.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn fifo_order_and_forget() {
        let mut p = FifoPolicy::new();
        let mut rng = StdRng::seed_from_u64(0);
        p.enqueue(Tid(1), 0);
        p.enqueue(Tid(2), 0);
        p.enqueue(Tid(3), 0);
        assert_eq!(p.runnable(), 3);
        p.forget(Tid(2));
        let mut env = DispatchEnv {
            nlive: 3,
            now: Cycles::ZERO,
            rng: &mut rng,
        };
        assert_eq!(p.pick(&mut env).unwrap().tid, Tid(1));
        assert_eq!(p.pick(&mut env).unwrap().tid, Tid(3));
        assert!(p.pick(&mut env).is_none());
    }

    #[test]
    fn fifo_zero_cost() {
        let mut p = FifoPolicy::new();
        let mut rng = StdRng::seed_from_u64(0);
        p.enqueue(Tid(7), 0);
        let mut env = DispatchEnv {
            nlive: 1,
            now: Cycles(5),
            rng: &mut rng,
        };
        assert_eq!(p.pick(&mut env).unwrap().cost, Cycles::ZERO);
    }

    #[test]
    fn scripted_policy_records_contended_picks_only() {
        let log: ScheduleLog = Default::default();
        let mut p = ScriptedPolicy::new(vec![1], log.clone());
        let mut rng = StdRng::seed_from_u64(0);
        let mut env = DispatchEnv {
            nlive: 3,
            now: Cycles::ZERO,
            rng: &mut rng,
        };
        p.enqueue(Tid(5), 0);
        // Singleton: forced move, nothing logged, script untouched.
        assert_eq!(p.pick(&mut env).unwrap().tid, Tid(5));
        assert!(log.lock().is_empty());
        p.enqueue(Tid(5), 0);
        p.enqueue(Tid(3), 0);
        // Contended: script entry 1 picks the second-lowest tid.
        assert_eq!(p.pick(&mut env).unwrap().tid, Tid(5));
        let rec = log.lock().clone();
        assert_eq!(rec.len(), 1);
        assert_eq!(rec[0].options, vec![3, 5]);
        assert_eq!(rec[0].chosen, 1);
        // Tid 5 has run once already, so its next slice is 2; tid 3 has
        // never run, so its next slice is 1.
        assert_eq!(rec[0].slices, vec![1, 2]);
        // Past the script's end the canonical option 0 is taken.
        p.enqueue(Tid(5), 0);
        assert_eq!(p.pick(&mut env).unwrap().tid, Tid(3));
        assert_eq!(log.lock().len(), 2);
        assert_eq!(log.lock()[1].chosen, 0);
    }

    #[test]
    fn scripted_policy_clamps_out_of_range_entries() {
        let log: ScheduleLog = Default::default();
        let mut p = ScriptedPolicy::new(vec![9], log.clone());
        let mut rng = StdRng::seed_from_u64(0);
        let mut env = DispatchEnv {
            nlive: 2,
            now: Cycles::ZERO,
            rng: &mut rng,
        };
        p.enqueue(Tid(1), 0);
        p.enqueue(Tid(2), 0);
        assert_eq!(p.pick(&mut env).unwrap().tid, Tid(2));
    }
}
