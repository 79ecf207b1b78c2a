//! The lite-scheduler glue: runs a `tnt_proc::Core` inside one engine
//! slot.
//!
//! A [`LiteScheduler`] is one engine task that multiplexes thousands of
//! cooperative [`LiteProc`] state machines through a single slot, so a
//! crowd costs no host thread at all: its drive loop is polled by
//! whichever thread holds the baton, like every other task. The crowd
//! shares everything observable with the engine's other processes: the
//! clock and run policy (the scheduler yields the baton whenever another
//! engine process is runnable), the timer queue (lite sleeps become
//! scheduler timeouts), trace attribution (each lite process has its own
//! pid from the engine's tid namespace), and the wait queues (a lite
//! process blocking on a `WaitId` parks a mailbox token — see
//! `Waiter::Lite` in the engine).
//!
//! Determinism carries over unchanged: the core's run queue is FIFO, its
//! sleep heap breaks ties by arming order, and mailbox tokens are
//! delivered in wakeup order, so two same-seed runs are byte-identical.

use std::sync::Arc;

use parking_lot::Mutex;
use tnt_proc::{Core, Lid, LiteProc, Step, WaitReason, Wake};

use crate::engine::{LitePollGuard, Sim, WaitId, MUTANT_SKIP_ANY_CANCEL};
use crate::time::Cycles;
use crate::trace::Counter;

/// The context a [`LiteScheduler`] threads through every `poll`: the
/// engine handle plus the identity of the process being polled.
pub struct ProcCtx {
    sim: Sim,
    pid: u32,
    wake: Wake,
    spawns: Vec<(String, Box<dyn LiteProc<ProcCtx>>)>,
}

impl ProcCtx {
    /// The simulation engine. Non-blocking calls only — a lite process
    /// that runs a blocking primitive through `Sim::block_on` inside
    /// `poll` fails the engine's host-park assertion; block by returning
    /// [`Step::Block`].
    pub fn sim(&self) -> &Sim {
        &self.sim
    }

    /// The virtual pid of the process being polled (trace attribution
    /// uses it automatically for charges made during the poll).
    pub fn pid(&self) -> u32 {
        self.pid
    }

    /// How this process's most recent blocking wait ended — the
    /// `select(2)` return value of a [`block_any`] wait.
    /// [`Wake::Queue`]`(i)` names the index into the wait's queue slice,
    /// [`Wake::Timeout`] means the deadline (or a plain sleep) expired.
    pub fn wake(&self) -> Wake {
        self.wake
    }

    /// Spawns a sibling lite process into the same scheduler; it becomes
    /// runnable after the current poll returns.
    pub fn spawn(&mut self, name: impl Into<String>, machine: Box<dyn LiteProc<ProcCtx>>) {
        self.spawns.push((name.into(), machine));
    }
}

/// Builds the [`Step`] that blocks a lite process on an engine wait
/// queue — the lite analogue of [`Sim::wait_on`]. The next
/// `wakeup_one`/`wakeup_all` on `q` that reaches this process resumes
/// it, without waking any host thread.
pub fn block_on(q: WaitId, reason: &'static str) -> Step {
    Step::Block(WaitReason::Queue {
        queue: q.raw(),
        reason,
    })
}

/// Builds the [`Step`] that blocks a lite process on up to two engine
/// wait queues at once, with an optional relative timeout — the lite
/// analogue of [`Sim::wait_on_any`] plus `select(2)`'s timeout, in one
/// engine slot instead of a waiter-plus-watchdog pair. After resuming,
/// [`ProcCtx::wake`] reports whether a queue signal (and which queue) or
/// the timeout ended the wait; queues that did not fire are cancelled,
/// so a late signal on them is simply lost, like a `select` caller that
/// closed the other descriptor.
pub fn block_any(
    ctx: &ProcCtx,
    queues: &[WaitId],
    timeout: Option<Cycles>,
    reason: &'static str,
) -> Step {
    assert!(
        queues.len() <= 2,
        "lite Any waits support at most two queues"
    );
    assert!(
        !queues.is_empty() || timeout.is_some(),
        "a lite Any wait with no queues and no timeout would never resume"
    );
    let mut qs = [None, None];
    for (i, q) in queues.iter().enumerate() {
        qs[i] = Some(q.raw());
    }
    Step::Block(WaitReason::Any {
        queues: qs,
        deadline: timeout.map(|t| ctx.sim().now().0 + t.0),
        reason,
    })
}

/// Final accounting of a finished [`LiteScheduler`] run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LiteStats {
    /// Total lite dispatches (`Core::polls`) — the crowd analogue of the
    /// engine's dispatch count.
    pub polls: u64,
    /// Per-process `(pid, cpu)` in spawn order; byte-stable across
    /// same-seed runs, so tests can checksum it.
    pub cpu_by_pid: Vec<(u32, u64)>,
}

/// Handle to a running (or finished) lite scheduler.
pub struct LiteHandle {
    stats: Arc<Mutex<Option<LiteStats>>>,
}

impl LiteHandle {
    /// The scheduler's final accounting. Panics if called before the
    /// scheduler's drive loop has finished (i.e. before `Sim::run`
    /// returned).
    pub fn stats(&self) -> LiteStats {
        self.stats
            .lock()
            .clone()
            .expect("lite scheduler has not finished")
    }
}

/// A cooperative scheduler occupying one engine slot and running a crowd
/// of lite processes inside it.
///
/// Build it on the host, [`LiteScheduler::spawn`] the initial crowd,
/// then [`LiteScheduler::start`] it before `Sim::run`. Lite processes
/// spawned at runtime go through [`ProcCtx::spawn`].
pub struct LiteScheduler {
    sim: Sim,
    core: Core<ProcCtx>,
}

impl LiteScheduler {
    /// Creates an empty scheduler for `sim`.
    pub fn new(sim: &Sim) -> LiteScheduler {
        LiteScheduler {
            sim: sim.clone(),
            core: Core::new(),
        }
    }

    /// Adds a lite process to the initial crowd. Its pid comes from the
    /// engine's tid namespace, so traces distinguish every lite process
    /// from every threaded one.
    pub fn spawn(&mut self, name: &str, machine: Box<dyn LiteProc<ProcCtx>>) -> Lid {
        let pid = self.sim.alloc_lite_pid(name);
        self.core.spawn(pid, machine)
    }

    /// Spawns the scheduler's drive loop as an engine task (named
    /// `name`, see [`Sim::spawn_task`]) and returns a handle for
    /// post-run statistics. The loop awaits the engine's async
    /// primitives, so the crowd runs on the thread that holds the baton.
    pub fn start(self, name: impl Into<String>) -> LiteHandle {
        let LiteScheduler { sim, mut core } = self;
        let stats = Arc::new(Mutex::new(None));
        let out = stats.clone();
        sim.spawn_task(name, move |s| async move {
            drive(&s, &mut core).await;
            *out.lock() = Some(LiteStats {
                polls: core.polls(),
                cpu_by_pid: core.cpu_by_pid(),
            });
        });
        LiteHandle { stats }
    }
}

/// The scheduler's drive loop: the body of its engine task.
async fn drive(sim: &Sim, core: &mut Core<ProcCtx>) {
    let doorbell = sim.new_queue();
    sim.register_lite_sched(doorbell);
    let mut ctx = ProcCtx {
        sim: sim.clone(),
        pid: 0,
        wake: Wake::None,
        spawns: Vec::new(),
    };
    // Each lite process's queue waits, indexed by lid (lids are dense
    // slot indices). An `Any` token encodes the queue index so the
    // mailbox can report *which* queue fired; when one path wins, the
    // sibling tokens are cancelled here before the process can block
    // again.
    let mut waits: Vec<Waits> = Vec::new();
    // The mailbox drained last, reused so a drain allocates nothing.
    let mut tokens = Vec::new();
    // A process that yielded last timeslice requeues only *after* the
    // wakeups its own charges caused: in the threaded model a sleeper
    // whose deadline is crossed mid-charge enqueues before the running
    // process yields, and keeping that order is what makes a lite ring
    // byte-identical to its threaded twin.
    let mut yielded: Option<Lid> = None;
    // Whether the last step polled a lite process.
    let mut polled = false;
    loop {
        // Wakeups delivered by other processes since we last looked, the
        // clock, and how many engine processes are runnable, all read
        // under one engine lock. Nothing below moves the clock before
        // the next poll or wait, so `now` serves both.
        tokens.clear();
        let (mut now, runnable) = sim.lite_take_mailbox(&mut tokens);
        // Fairness with the rest of the engine: after a poll, offer the
        // baton if another engine process is queued runnable. A
        // pure-lite simulation never pays this (the run queue stays
        // empty). Wakeups delivered while the others run queue up
        // behind the ones just drained, and the clock moves on.
        if std::mem::take(&mut polled) && runnable > 0 {
            sim.yield_now().await;
            now = sim.lite_take_mailbox(&mut tokens).0;
        }
        let now = now.0;
        for &token in &tokens {
            let lid = Lid((token & 0xffff_ffff) as u32);
            if let Some(armed) = take_any(&mut waits, lid) {
                // An `Any` wait resolved through one of its queues:
                // cancel the siblings, record which index fired.
                for t in armed.into_iter().flatten() {
                    if t != token {
                        sim.lite_wait_cancel(t);
                    }
                }
                core.wake_queue(lid, (token >> 32) as u8 & 1);
            } else {
                core.wake(lid);
            }
        }
        core.fire_due(now);
        // `Any` waits whose deadline won: disarm their queue tokens so a
        // later signal cannot wake the process out of its next wait.
        // Planted bug (`MUTANT_SKIP_ANY_CANCEL`): skip the disarm and
        // leave stale tokens parked on the queues.
        for lid in core.drain_timed_out() {
            if let Some(armed) = take_any(&mut waits, lid) {
                if sim.mutant_enabled(MUTANT_SKIP_ANY_CANCEL) {
                    continue;
                }
                for t in armed.into_iter().flatten() {
                    sim.lite_wait_cancel(t);
                }
            }
        }
        if let Some(lid) = yielded.take() {
            core.yield_to_back(lid);
        }

        if let Some(lid) = core.next_runnable() {
            sim.count(Counter::LiteDispatches, 1);
            ctx.pid = core.pid(lid);
            ctx.wake = core.wake_of(lid);
            // While the guard lives, charges and spans from inside
            // `poll` are attributed to the lite process, and blocking
            // engine primitives are rejected.
            let guard = LitePollGuard::new(ctx.pid);
            loop {
                match core.poll(lid, &mut ctx) {
                    Step::Charge(cy) => {
                        // Record the *scaled* amount, matching what the
                        // engine accounts to a threaded process.
                        let scaled = sim.charge_scaled(Cycles(cy));
                        core.charge(lid, scaled.0);
                    }
                    Step::Yield => {
                        yielded = Some(lid);
                        break;
                    }
                    Step::Block(WaitReason::Sleep(d)) => {
                        core.sleep_until(lid, sim.now().0 + d);
                        break;
                    }
                    Step::Block(WaitReason::Until(at)) => {
                        core.sleep_until(lid, at);
                        break;
                    }
                    Step::Block(WaitReason::Queue { queue, reason }) => {
                        // Park on the engine queue *before* any chance
                        // of losing the baton: processes are atomic
                        // between blocking calls, so the check the lite
                        // process made inside this poll is still valid.
                        core.wait(lid, reason);
                        let gen = next_wait(&mut waits, lid).gen;
                        sim.lite_wait_enqueue(queue, token(lid, 0, gen), reason);
                        break;
                    }
                    Step::Block(WaitReason::Any {
                        queues,
                        deadline,
                        reason,
                    }) => {
                        core.wait_any(lid, reason, deadline);
                        let w = next_wait(&mut waits, lid);
                        for (i, q) in queues.into_iter().enumerate() {
                            if let Some(q) = q {
                                sim.lite_wait_enqueue(q, token(lid, i, w.gen), reason);
                                w.any[i] = true;
                            }
                        }
                        break;
                    }
                    Step::Done => {
                        core.finish(lid);
                        break;
                    }
                }
            }
            drop(guard);
            for (name, machine) in ctx.spawns.drain(..) {
                let pid = sim.alloc_lite_pid(&name);
                core.spawn(pid, machine);
            }
            polled = true;
            continue;
        }

        if core.live() == 0 {
            break;
        }
        // Nothing runnable: wait until the next lite sleeper is due or
        // the doorbell rings, whichever comes first. The mailbox was
        // drained above and we hold the baton, so no wakeup can slip in
        // between the check and the wait.
        match core.next_wake() {
            Some(at) => {
                if at > now {
                    sim.wait_on_timeout(doorbell, Cycles(at - now), "lite sleepers")
                        .await;
                }
            }
            None => sim.wait_on(doorbell, "lite procs waiting").await,
        }
    }
    sim.unregister_lite_sched();
}

/// The queue waits of one lite process, as the drive loop tracks them.
#[derive(Clone, Copy, Default)]
struct Waits {
    /// Counts the process's queue waits. Every token of a wait carries
    /// it, so an entry an earlier wait left on a queue never matches the
    /// token the engine holds armed for a later one.
    gen: u32,
    /// The queue indices its live `Any` wait armed.
    any: [bool; 2],
}

/// Opens a new queue wait of `lid`: its entry in `waits` (grown on first
/// use), with the generation bumped.
fn next_wait(waits: &mut Vec<Waits>, lid: Lid) -> &mut Waits {
    let i = lid.0 as usize;
    if i >= waits.len() {
        waits.resize(i + 1, Waits::default());
    }
    let w = &mut waits[i];
    w.gen = w.gen.wrapping_add(1);
    w
}

/// The engine token of queue index `idx` (0 or 1) of `lid`'s wait
/// generation `gen`: `lid | idx << 32 | gen << 33`, the generation
/// counted modulo 2^31.
fn token(lid: Lid, idx: usize, gen: u32) -> u64 {
    u64::from(lid.0) | (idx as u64) << 32 | u64::from(gen) << 33
}

/// Takes the queue tokens lid's live `Any` wait armed, if it has any.
fn take_any(waits: &mut [Waits], lid: Lid) -> Option<[Option<u64>; 2]> {
    let w = waits.get_mut(lid.0 as usize)?;
    let any = std::mem::take(&mut w.any);
    let gen = w.gen;
    any.contains(&true)
        .then(|| [0, 1].map(|i| any[i].then(|| token(lid, i, gen))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SimConfig;
    use crate::policy::FifoPolicy;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn sim() -> Sim {
        Sim::new(Box::new(FifoPolicy::new()), SimConfig::default())
    }

    #[test]
    fn lite_crowd_runs_to_completion() {
        let s = sim();
        let mut sched = LiteScheduler::new(&s);
        for i in 0..100u32 {
            let mut rounds = 10;
            sched.spawn(
                &format!("c{i}"),
                Box::new(move |_: &mut ProcCtx| {
                    if rounds == 0 {
                        return Step::Done;
                    }
                    rounds -= 1;
                    Step::Charge(100)
                }),
            );
        }
        let handle = sched.start("crowd");
        let elapsed = s.run().unwrap();
        assert_eq!(elapsed, Cycles(100 * 10 * 100));
        let stats = handle.stats();
        assert_eq!(stats.cpu_by_pid.len(), 100);
        assert!(stats.cpu_by_pid.iter().all(|(_, cpu)| *cpu == 1_000));
    }

    #[test]
    fn lite_sleeps_ride_the_engine_timer_queue() {
        let s = sim();
        let mut sched = LiteScheduler::new(&s);
        let mut phase = 0;
        sched.spawn(
            "sleeper",
            Box::new(move |ctx: &mut ProcCtx| {
                phase += 1;
                match phase {
                    1 => Step::Block(WaitReason::Sleep(5_000)),
                    2 => {
                        assert_eq!(ctx.sim().now(), Cycles(5_000));
                        Step::Block(WaitReason::Until(12_000))
                    }
                    _ => {
                        assert_eq!(ctx.sim().now(), Cycles(12_000));
                        Step::Done
                    }
                }
            }),
        );
        sched.start("sched");
        assert_eq!(s.run().unwrap(), Cycles(12_000));
    }

    #[test]
    fn lite_queue_wait_is_woken_by_a_task() {
        let s = sim();
        let q = s.new_queue();
        let woken_at = Arc::new(AtomicU64::new(0));
        let woken = woken_at.clone();
        let mut sched = LiteScheduler::new(&s);
        let mut waited = false;
        sched.spawn(
            "waiter",
            Box::new(move |ctx: &mut ProcCtx| {
                if !waited {
                    waited = true;
                    return block_on(q, "test wait");
                }
                woken.store(ctx.sim().now().0, Ordering::Relaxed);
                Step::Done
            }),
        );
        sched.start("sched");
        s.spawn_task("waker", move |s| async move {
            s.sleep(Cycles(7_000)).await;
            s.wakeup_one(q);
        });
        let _ = s.run().unwrap();
        assert_eq!(woken_at.load(Ordering::Relaxed), 7_000);
    }

    #[test]
    fn runtime_spawns_join_the_crowd() {
        let s = sim();
        let mut sched = LiteScheduler::new(&s);
        let mut spawned = false;
        sched.spawn(
            "parent",
            Box::new(move |ctx: &mut ProcCtx| {
                if !spawned {
                    spawned = true;
                    let mut rounds = 2;
                    ctx.spawn(
                        "child",
                        Box::new(move |_: &mut ProcCtx| {
                            if rounds == 0 {
                                return Step::Done;
                            }
                            rounds -= 1;
                            Step::Charge(10)
                        }),
                    );
                    return Step::Yield;
                }
                Step::Done
            }),
        );
        let handle = sched.start("sched");
        assert_eq!(s.run().unwrap(), Cycles(20));
        assert_eq!(handle.stats().cpu_by_pid.len(), 2);
    }

    #[test]
    fn lite_and_task_procs_interleave_fairly() {
        // A task and a lite crowd must both make progress: the scheduler
        // yields the baton whenever the task is runnable.
        let s = sim();
        let mut sched = LiteScheduler::new(&s);
        let mut rounds = 50;
        sched.spawn(
            "lite",
            Box::new(move |_: &mut ProcCtx| {
                if rounds == 0 {
                    return Step::Done;
                }
                rounds -= 1;
                Step::Charge(10)
            }),
        );
        sched.start("sched");
        s.spawn_task("task", |s| async move {
            for _ in 0..50 {
                s.advance(Cycles(10));
                s.yield_now().await;
            }
        });
        assert_eq!(s.run().unwrap(), Cycles(1_000));
    }

    #[test]
    fn select_reply_beats_the_timeout() {
        // A lite client awaits reply-or-timeout in one slot; the reply
        // arrives first and the stale deadline never fires.
        let s = sim();
        let q = s.new_queue();
        let log = Arc::new(Mutex::new(Vec::new()));
        let out = log.clone();
        let mut sched = LiteScheduler::new(&s);
        let mut phase = 0;
        sched.spawn(
            "client",
            Box::new(move |ctx: &mut ProcCtx| {
                phase += 1;
                match phase {
                    1 => block_any(ctx, &[q], Some(Cycles(10_000)), "reply or rto"),
                    2 => {
                        out.lock().push((ctx.sim().now().0, ctx.wake()));
                        // Block again past the original deadline: a stale
                        // timeout firing here would resume us early.
                        Step::Block(WaitReason::Until(25_000))
                    }
                    _ => {
                        out.lock().push((ctx.sim().now().0, ctx.wake()));
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
        let _ = s.run().unwrap();
        assert_eq!(
            log.lock().clone(),
            vec![(4_000, Wake::Queue(0)), (25_000, Wake::Timeout)]
        );
    }

    #[test]
    fn select_timeout_fires_without_a_signal() {
        let s = sim();
        let q = s.new_queue();
        let woke = Arc::new(Mutex::new((0u64, Wake::None)));
        let out = woke.clone();
        let mut sched = LiteScheduler::new(&s);
        let mut waited = false;
        sched.spawn(
            "client",
            Box::new(move |ctx: &mut ProcCtx| {
                if !waited {
                    waited = true;
                    return block_any(ctx, &[q], Some(Cycles(9_000)), "reply or rto");
                }
                *out.lock() = (ctx.sim().now().0, ctx.wake());
                Step::Done
            }),
        );
        sched.start("sched");
        let _ = s.run().unwrap();
        assert_eq!(*woke.lock(), (9_000, Wake::Timeout));
    }

    #[test]
    fn select_reports_which_queue_fired() {
        let s = sim();
        let qa = s.new_queue();
        let qb = s.new_queue();
        let woke = Arc::new(Mutex::new((0u64, Wake::None)));
        let out = woke.clone();
        let mut sched = LiteScheduler::new(&s);
        let mut waited = false;
        sched.spawn(
            "client",
            Box::new(move |ctx: &mut ProcCtx| {
                if !waited {
                    waited = true;
                    return block_any(ctx, &[qa, qb], None, "either queue");
                }
                *out.lock() = (ctx.sim().now().0, ctx.wake());
                Step::Done
            }),
        );
        sched.start("sched");
        s.spawn_task("signaller", move |s| async move {
            s.sleep(Cycles(3_000)).await;
            s.wakeup_one(qb);
        });
        let _ = s.run().unwrap();
        assert_eq!(*woke.lock(), (3_000, Wake::Queue(1)));
    }

    #[test]
    fn select_cancels_the_losing_queue() {
        // After the timeout wins, a late signal on the armed queue must
        // not wake the client out of its *next* wait: the drive loop
        // disarms the token when the deadline fires.
        let s = sim();
        let q = s.new_queue();
        let log = Arc::new(Mutex::new(Vec::new()));
        let out = log.clone();
        let mut sched = LiteScheduler::new(&s);
        let mut phase = 0;
        sched.spawn(
            "client",
            Box::new(move |ctx: &mut ProcCtx| {
                phase += 1;
                match phase {
                    1 => block_any(ctx, &[q], Some(Cycles(5_000)), "reply or rto"),
                    2 => {
                        out.lock().push((ctx.sim().now().0, ctx.wake()));
                        // Sleep across the late signal at 8_000.
                        Step::Block(WaitReason::Until(20_000))
                    }
                    _ => {
                        out.lock().push((ctx.sim().now().0, ctx.wake()));
                        Step::Done
                    }
                }
            }),
        );
        sched.start("sched");
        s.spawn_task("late-server", move |s| async move {
            s.sleep(Cycles(8_000)).await;
            s.wakeup_one(q); // lands after the RTO: lost, as on a real wire
        });
        let _ = s.run().unwrap();
        assert_eq!(
            log.lock().clone(),
            vec![(5_000, Wake::Timeout), (20_000, Wake::Timeout)]
        );
    }

    #[test]
    fn a_stale_any_entry_never_wakes_a_later_wait() {
        // Woken out of an `Any` wait on [a, b] through b, the client
        // leaves its entry on a; its next wait, on c alone, must not
        // take a's signal, and c's signal must still reach it.
        let s = sim();
        let (a, b, c) = (s.new_queue(), s.new_queue(), s.new_queue());
        let log = Arc::new(Mutex::new(Vec::new()));
        let out = log.clone();
        let mut sched = LiteScheduler::new(&s);
        let mut phase = 0;
        sched.spawn(
            "client",
            Box::new(move |ctx: &mut ProcCtx| {
                phase += 1;
                if phase > 1 {
                    out.lock().push((ctx.sim().now().0, ctx.wake()));
                }
                match phase {
                    1 => block_any(ctx, &[a, b], None, "a or b"),
                    2 => block_on(c, "c alone"),
                    _ => Step::Done,
                }
            }),
        );
        sched.start("sched");
        let signals = Arc::new(Mutex::new(Vec::new()));
        let sig = signals.clone();
        s.spawn_task("signaller", move |s| async move {
            for (at, q) in [(1_000, b), (2_000, a), (3_000, c)] {
                s.sleep_until(Cycles(at)).await;
                sig.lock().push(s.wakeup_one(q));
            }
        });
        let _ = s.run().unwrap();
        assert_eq!(*signals.lock(), vec![true, false, true]);
        assert_eq!(
            *log.lock(),
            vec![(1_000, Wake::Queue(1)), (3_000, Wake::Queue(0))]
        );
    }

    #[test]
    fn select_runs_are_deterministic() {
        // Many clients racing replies against staggered deadlines: two
        // same-seed runs must agree on every outcome and instant.
        let run = || {
            let s = sim();
            let outcomes = Arc::new(Mutex::new(Vec::new()));
            let mut sched = LiteScheduler::new(&s);
            let mut queues = Vec::new();
            for i in 0..40u64 {
                let q = s.new_queue();
                queues.push(q);
                let out = outcomes.clone();
                let mut waited = false;
                sched.spawn(
                    &format!("c{i}"),
                    Box::new(move |ctx: &mut ProcCtx| {
                        if !waited {
                            waited = true;
                            return block_any(
                                ctx,
                                &[q],
                                Some(Cycles(2_000 + 137 * i)),
                                "reply or rto",
                            );
                        }
                        out.lock().push((i, ctx.sim().now().0, ctx.wake()));
                        Step::Done
                    }),
                );
            }
            sched.start("sched");
            s.spawn_task("server", move |s| async move {
                for (i, q) in queues.into_iter().enumerate() {
                    if i % 3 == 0 {
                        s.sleep(Cycles(200)).await;
                        s.wakeup_one(q);
                    }
                }
            });
            let _ = s.run().unwrap();
            let got = outcomes.lock().clone();
            got
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b);
        assert!(a.iter().any(|&(_, _, w)| w == Wake::Timeout));
        assert!(a.iter().any(|&(_, _, w)| matches!(w, Wake::Queue(0))));
    }

    #[test]
    fn deadlocked_lite_procs_are_diagnosed() {
        let s = sim();
        let q = s.new_queue();
        let mut sched = LiteScheduler::new(&s);
        sched.spawn(
            "stuck",
            Box::new(move |_: &mut ProcCtx| block_on(q, "never signalled")),
        );
        sched.start("sched");
        let err = s.run().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("never signalled"), "diagnostic: {msg}");
        assert!(msg.contains("1 lite proc(s) waiting"), "diagnostic: {msg}");
    }

    #[test]
    #[should_panic(expected = "blocking engine primitive")]
    fn blocking_inside_poll_is_rejected() {
        let s = sim();
        let q = s.new_queue();
        let mut sched = LiteScheduler::new(&s);
        sched.spawn(
            "bad",
            Box::new(move |ctx: &mut ProcCtx| {
                ctx.sim().block_on(ctx.sim().wait_on(q, "illegal"));
                Step::Done
            }),
        );
        sched.start("sched");
        if let Err(e) = s.run() {
            panic!("{e}");
        }
    }
}
