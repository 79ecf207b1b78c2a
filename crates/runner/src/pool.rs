//! The worker pool.
//!
//! All jobs are known up front (the experiment matrix is static), so
//! the pool is a fork-join executor over one job order: cost
//! descending, ties in submission order. The costliest jobs start
//! first and the cheap ones fill in behind them, so a shard that
//! dwarfs the rest (Figure 1's big-N context-switch legs) does not end
//! the run alone. Workers claim the next job through an atomic cursor;
//! no job ever enqueues another, so a worker that finds the cursor
//! past the end is done for good.
//!
//! Results are merged back by submission index, so the returned vector
//! is deterministic regardless of which worker ran what — the ordered
//! merge the harness's byte-identical guarantee rests on.

use std::any::Any;
use std::cmp::Reverse;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A job's boxed closure: runs on an arbitrary pool thread exactly once.
pub type Work<T> = Box<dyn FnOnce() -> T + Send + 'static>;

/// One unit of work: a cost hint for the job order plus the closure.
pub struct Job<T> {
    /// Relative cost hint (any unit; only ordering matters).
    pub cost: u64,
    /// The work.
    pub work: Work<T>,
}

impl<T> Job<T> {
    /// Convenience constructor.
    pub fn new(cost: u64, work: impl FnOnce() -> T + Send + 'static) -> Job<T> {
        Job {
            cost,
            work: Box::new(work),
        }
    }
}

/// A job that panicked instead of returning.
#[derive(Clone, Debug)]
pub struct JobPanic {
    /// Index of the job in the submitted set.
    pub index: usize,
    /// The panic payload, stringified.
    pub message: String,
}

/// The outcome of one job: its value (or isolated panic) and how long
/// it ran on its worker.
pub struct JobOutcome<T> {
    /// The job's return value, or the captured panic.
    pub result: Result<T, JobPanic>,
    /// Wall-clock execution time of this job alone.
    pub elapsed: Duration,
}

fn panic_message(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

fn run_job<T>(index: usize, work: Work<T>) -> JobOutcome<T> {
    #[expect(
        clippy::disallowed_methods,
        reason = "feeds wall_ms only, which bless never stores and check never diffs"
    )]
    let start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(work)).map_err(|payload| JobPanic {
        index,
        message: panic_message(payload),
    });
    JobOutcome {
        result,
        elapsed: start.elapsed(),
    }
}

/// Runs every job and returns their outcomes **in submission order**.
///
/// `workers <= 1` (or a single job) runs inline on the calling thread,
/// in order — the serial reference path. More workers run the jobs on
/// `min(workers, jobs)` threads, costliest first; the merge back into
/// submission order makes the two paths indistinguishable from the
/// outside except for wall-clock time.
pub fn run_ordered<T: Send + 'static>(jobs: Vec<Job<T>>, workers: usize) -> Vec<JobOutcome<T>> {
    let n_jobs = jobs.len();
    if workers <= 1 || n_jobs <= 1 {
        return jobs
            .into_iter()
            .enumerate()
            .map(|(i, job)| run_job(i, job.work))
            .collect();
    }
    let n_workers = workers.min(n_jobs);
    // A stable sort: equal-cost jobs keep submission order.
    let mut order: Vec<(usize, Job<T>)> = jobs.into_iter().enumerate().collect();
    order.sort_by_key(|(_, job)| Reverse(job.cost));
    // A worker claims position `k` of the order by advancing the cursor
    // past it, then takes the closure out of its slot. The slot's mutex,
    // not the cursor, hands the closure over, so `Relaxed` suffices.
    let queue: Vec<_> = order
        .into_iter()
        .map(|(i, job)| Mutex::new(Some((i, job.work))))
        .collect();
    let cursor = AtomicUsize::new(0);
    let mut results: Vec<Option<JobOutcome<T>>> = (0..n_jobs).map(|_| None).collect();

    #[expect(
        clippy::disallowed_methods,
        reason = "the worker pool's job is running whole experiments on host threads"
    )]
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..n_workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    while let Some(slot) = queue.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                        let (idx, work) = slot
                            .lock()
                            .expect("a slot is never locked across a panic")
                            .take()
                            .expect("job claimed twice");
                        done.push((idx, run_job(idx, work)));
                    }
                    done
                })
            })
            .collect();
        for worker in workers {
            for (idx, outcome) in worker.join().expect("jobs are panic-isolated") {
                results[idx] = Some(outcome);
            }
        }
    });

    results
        .into_iter()
        .map(|slot| slot.expect("worker exited with unfinished job"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn results_come_back_in_submission_order() {
        // Costs are deliberately inverted so the pool reorders
        // execution; the merge must undo that.
        let jobs: Vec<Job<usize>> = (0..50)
            .map(|i| Job::new(50 - i as u64, move || i * 3))
            .collect();
        for workers in [1, 2, 8] {
            let out = run_ordered(
                jobs.iter()
                    .enumerate()
                    .map(|(i, j)| Job::new(j.cost, move || i * 3))
                    .collect(),
                workers,
            );
            let values: Vec<usize> = out.into_iter().map(|o| o.result.unwrap()).collect();
            assert_eq!(values, (0..50).map(|i| i * 3).collect::<Vec<_>>());
        }
        drop(jobs);
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let counter = Arc::new(AtomicUsize::new(0));
        let jobs: Vec<Job<()>> = (0..200)
            .map(|_| {
                let c = counter.clone();
                Job::new(1, move || {
                    c.fetch_add(1, Ordering::SeqCst);
                })
            })
            .collect();
        run_ordered(jobs, 8);
        assert_eq!(counter.load(Ordering::SeqCst), 200);
    }

    #[test]
    fn work_spreads_across_threads() {
        // With more workers than needed the jobs still all run; on a
        // multi-core host they run on several distinct threads. (On a
        // single-core host the scheduler may serialise them — only
        // assert the set is non-empty and the results correct.)
        let jobs: Vec<Job<std::thread::ThreadId>> = (0..64)
            .map(|_| {
                Job::new(1, || {
                    std::thread::sleep(Duration::from_millis(1));
                    std::thread::current().id()
                })
            })
            .collect();
        let out = run_ordered(jobs, 4);
        #[expect(
            clippy::disallowed_types,
            reason = "counts distinct host thread ids; never iterated into an output"
        )]
        let tids: std::collections::HashSet<_> =
            out.into_iter().map(|o| o.result.unwrap()).collect();
        assert!(!tids.is_empty());
    }

    #[test]
    fn more_workers_than_jobs() {
        let out = run_ordered(vec![Job::new(3, || 'a'), Job::new(7, || 'b')], 5);
        let values: Vec<char> = out.into_iter().map(|o| o.result.unwrap()).collect();
        assert_eq!(values, vec!['a', 'b']);
    }

    #[test]
    fn a_panicking_job_is_isolated() {
        let jobs: Vec<Job<u32>> = (0..10)
            .map(|i| {
                Job::new(1, move || {
                    if i == 4 {
                        panic!("job four exploded");
                    }
                    i
                })
            })
            .collect();
        let out = run_ordered(jobs, 4);
        for (i, o) in out.iter().enumerate() {
            match &o.result {
                Ok(v) => {
                    assert_ne!(i, 4);
                    assert_eq!(*v, i as u32);
                }
                Err(p) => {
                    assert_eq!(i, 4);
                    assert_eq!(p.index, 4);
                    assert!(p.message.contains("job four exploded"));
                }
            }
        }
    }

    #[test]
    fn serial_path_runs_inline() {
        let tid = std::thread::current().id();
        let out = run_ordered(vec![Job::new(1, move || std::thread::current().id())], 8);
        assert_eq!(out[0].result.as_ref().unwrap(), &tid);
    }

    #[test]
    fn elapsed_is_recorded() {
        let out = run_ordered(
            vec![Job::new(1, || std::thread::sleep(Duration::from_millis(5)))],
            1,
        );
        assert!(out[0].elapsed >= Duration::from_millis(4));
    }
}
