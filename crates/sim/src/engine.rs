//! The deterministic baton-passing process engine.
//!
//! Exactly one simulated process runs at any moment. A process gives up
//! the baton only by blocking (`yield_now`, `sleep_until`, `wait_on`,
//! exit), at which point the engine picks the next runnable process
//! through the configured [`RunPolicy`] and hands the baton over. Between
//! two blocking calls a process executes atomically with respect to all
//! other simulated processes, exactly like a non-preemptive uniprocessor
//! kernel.
//!
//! A process is hosted one of two ways. A *task* ([`Sim::spawn_task`]) is
//! a boxed future that whoever holds the baton polls inline: the
//! `Sim::run` caller, or a threaded process that just blocked or exited.
//! A *threaded* process ([`Sim::spawn`]) owns a host thread that parks
//! between dispatches. Every blocking primitive has one form, an `async
//! fn` ([`Sim::wait_on`], [`Sim::sleep_until`], ...): a task awaits it,
//! and a threaded process runs it through the one adapter,
//! [`Sim::block_on`]. Both kinds share one dispatch path and one set of
//! wait queues, and only handing the baton to a threaded process costs a
//! host context switch.
//!
//! Simulated time only advances through explicit [`Sim::advance`] charges
//! and through the timer queue, so the same seed always produces the same
//! clock readings: the simulation is fully deterministic.
//!
//! Locking discipline: engine state lives behind a single `parking_lot`
//! mutex that is never held across a baton handoff. Kernel models built on
//! top (tnt-os and friends) must follow the same rule for their own locks:
//! never hold a guard across a call that can block. For task code the
//! compiler enforces it: a host `MutexGuard` is `!Send`, so a future that
//! holds one across an `.await` fails `spawn_task`'s `Send` bound.
//!
//! Only the baton holder ever takes that mutex, so the engine takes it as
//! rarely as it can. Charges accumulate in a thread-local balance that
//! the next acquisition settles; [`Sim::now`] reads an atomic mirror of
//! the clock plus that balance, without the lock; and the dispatch that
//! picks a process hands it how its last block ended (timeout, or which
//! queue woke it) together with the baton, so a timed wait returns
//! without locking again. A task's sleep or timed wait costs two
//! acquisitions: one to block, one to settle after its poll, under which
//! the next pick runs.

use std::cell::Cell;
use std::cmp::Reverse;
// No hashed container: engine state leaks into outputs — the deadlock
// diagnostic walks `procs` and `queues` — so iteration order must not
// depend on a hasher. The per-process and per-queue tables are vectors
// indexed by id, so index order is id order.
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::future::Future;
use std::panic::{self, AssertUnwindSafe};
use std::pin::{pin, Pin};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Waker};
use std::thread::JoinHandle;

use parking_lot::{Condvar, Mutex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tnt_fault::{FaultPlan, FaultProfile};
use tnt_trace::{Class, Counter, Event, EventKind, Tracer};

use crate::policy::{DispatchEnv, Pick, RunPolicy, Tid};
use crate::time::Cycles;

use tnt_race::{AccessInfo, AccessKind, Detector, Loc, SyncId, WakeSrc};

// ----------------------------------------------------------------------
// Planted-bug mutants (the race tooling's regression gate, see
// `race_tests.rs`). The bits are only settable from this crate's unit
// tests; production builds compile the checks to constant `false`.
// ----------------------------------------------------------------------

/// Skip ringing the lite scheduler's doorbell on a delivered wakeup
/// token: the scheduler sleeps through the signal (a lost wakeup).
pub(crate) const MUTANT_DROP_DOORBELL: u8 = 1 << 0;
/// Fire equal-instant timers in reverse arming order, breaking the
/// `(at, seq)` FIFO tie-break the engine guarantees.
pub(crate) const MUTANT_TIMER_TIE_REORDER: u8 = 1 << 1;
/// Skip the trace-ring lock discipline on the charge path: the ring
/// write becomes a raw access the happens-before checker can see race.
pub(crate) const MUTANT_UNLOCKED_RING_WRITE: u8 = 1 << 2;
/// Skip cancelling the armed queue tokens of a timed-out
/// `WaitReason::Any` lite wait: a late signal wakes the process out of
/// its *next*, unrelated wait (a stale-generation bug).
pub(crate) const MUTANT_SKIP_ANY_CANCEL: u8 = 1 << 3;

#[cfg(test)]
#[inline]
fn mutant_on(st: &State, bit: u8) -> bool {
    st.mutants & bit != 0
}

#[cfg(not(test))]
#[inline]
fn mutant_on(_st: &State, _bit: u8) -> bool {
    false
}

/// Identifier of a wait queue (sleep/wakeup channel).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct WaitId(u64);

impl WaitId {
    /// The raw token lite processes use to name this queue in
    /// `WaitReason::Queue` (see `tnt_sim::proc`); meaningless outside
    /// the simulation that allocated it.
    #[must_use]
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// An entry on an engine wait queue: either a blocked process (threaded
/// or task), or a lite process's wakeup token routed to its scheduler.
/// One queue can hold every kind, so every blocking primitive built on
/// wait queues (SimMutex, pipes, channels) serves them all.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Waiter {
    /// A threaded process or a task; waking it makes it runnable.
    Proc(Tid),
    /// A lite process: waking it pushes `token` into the owning
    /// scheduler's mailbox and rings the scheduler's doorbell.
    Lite { sched: Tid, token: u64 },
}

/// Why a simulation failed.
#[derive(Clone, Debug, PartialEq)]
pub enum SimError {
    /// No process is runnable, no timer is pending, but live processes
    /// remain. The string lists the blocked processes and their reasons.
    Deadlock(String),
    /// A simulated process panicked; the string holds the panic message.
    ProcPanic(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Deadlock(s) => write!(f, "simulation deadlock: {s}"),
            SimError::ProcPanic(s) => write!(f, "simulated process panicked: {s}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Configuration for a simulation instance.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Seed for the per-run RNG; vary it across the paper's twenty runs.
    pub seed: u64,
    /// Multiplicative jitter applied by [`Sim::charge`]: each charge is
    /// scaled by a uniform factor in `[1 - jitter, 1 + jitter]`. Models
    /// interrupt and cache noise so repeated runs have a non-zero standard
    /// deviation, as in the paper. Zero disables jitter.
    pub jitter: f64,
    /// Fault-injection profile; [`FaultProfile::off`] (the default)
    /// disables injection with zero RNG cost, leaving the run
    /// bit-identical to a faultless build.
    pub faults: FaultProfile,
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig {
            seed: 0,
            jitter: 0.0,
            faults: FaultProfile::off(),
        }
    }
}

/// Sent to a parked thread to resume or destroy it. A `Run` carries
/// how the thread's last block ended.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Wake {
    Run(Woke),
    Kill,
}

/// How a process's last block ended. The waker records it on the
/// `Proc`; the dispatch that picks the process moves it out under the
/// lock it already holds and hands it over with the baton (in
/// [`Wake::Run`] or the `WOKE` thread-local), so the resumed primitive
/// reads it without taking the engine lock again.
#[derive(Clone, Copy, Default, PartialEq, Debug)]
struct Woke {
    /// A timed wait's timeout fired.
    timed_out: bool,
    /// The queue whose wakeup released the block, for `wait_on_any`.
    by: Option<u64>,
}

/// Unwind payload used to destroy a simulated process; never observed by
/// user code.
struct SimKilled;

/// The slot through which the dispatcher hands a parked threaded
/// process its next wake. A `Kill` is final: a later `Run` never
/// overwrites it.
struct Parker {
    slot: Mutex<Option<Wake>>,
    cv: Condvar,
}

impl Parker {
    fn new() -> Arc<Parker> {
        Arc::new(Parker {
            slot: Mutex::new(None),
            cv: Condvar::new(),
        })
    }

    /// Blocks the calling thread until a wake is delivered, and takes it.
    fn park(&self) -> Wake {
        let mut slot = self.slot.lock();
        loop {
            if let Some(wake) = slot.take() {
                return wake;
            }
            self.cv.wait(&mut slot);
        }
    }

    fn unpark(&self, wake: Wake) {
        let mut slot = self.slot.lock();
        if *slot != Some(Wake::Kill) {
            *slot = Some(wake);
        }
        self.cv.notify_one();
    }
}

#[derive(Clone, Copy, PartialEq, Debug)]
enum Status {
    /// In the run queue (or about to be picked for the first time).
    Runnable,
    /// Holding the baton.
    Running,
    /// Waiting on a timer or wait queue; the str names the reason.
    Blocked(&'static str),
    /// Finished.
    Exited,
}

/// A task's future (see [`Sim::spawn_task`]).
type TaskFuture = Pin<Box<dyn Future<Output = ()> + Send>>;

/// How a simulated process is hosted.
enum Body {
    /// On its own host thread, parked while it does not hold the baton.
    Thread(Arc<Parker>),
    /// As a future polled inline by whichever thread holds the baton.
    /// `None` while a poll is in flight and once the task has finished.
    Task(Option<TaskFuture>),
}

struct Proc {
    name: String,
    body: Body,
    status: Status,
    tag: u32,
    /// CPU cycles charged while this process held the baton.
    cpu: Cycles,
    /// Incremented on every block; timed wakeups only fire on the
    /// generation they were armed for, so a stale timeout can never wake
    /// a later, unrelated block.
    block_gen: u64,
    /// How the last block ended, until the dispatch that picks the
    /// process hands it over.
    woke: Woke,
    /// SimMutex queue ids currently held, in acquisition order (the
    /// lock-order audit).
    held_locks: Vec<u64>,
    /// Set while this process is a lite scheduler (see `crate::lite`).
    lite: Option<LiteSched>,
}

/// What a timer does when it fires (all are wakeups of some kind).
/// Pending timers are ordered by `(at, seq)`; `seq` is unique, so the
/// derived order on the action is never consulted.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
enum TimerAction {
    Proc(Tid),
    /// Wake `tid` only if it is still in block generation `gen` (a timed
    /// wait's timeout); also removes it from queue `q`.
    ProcGen(Tid, u64, u64),
    QueueOne(u64),
}

/// Engine-side registration of one lite scheduler (see `tnt_sim::proc`):
/// the task that multiplexes a crowd of lite processes. A wakeup token
/// names one queue entry of one wait of a lite process as
/// `lid | idx << 32 | gen << 33`, where `idx` (0 or 1) is the queue's
/// index in the wait's queue set and `gen` tells the process's waits
/// apart (see `crate::lite`).
struct LiteSched {
    /// The wait queue the scheduler waits on when no lite process is
    /// runnable; delivered wakeup tokens ring it.
    doorbell: u64,
    /// Wakeup tokens delivered since the scheduler last drained them.
    mailbox: Vec<u64>,
    /// The tokens currently armed on engine queues, with their block
    /// reasons (surfaced by deadlock diagnostics), indexed by lid and
    /// then by `idx`. Lids are dense indices into the scheduler's slots.
    waiting: Vec<[Option<(u64, &'static str)>; 2]>,
}

impl LiteSched {
    /// The `waiting` cell of `token`'s lid and queue index, if its lid
    /// has one yet.
    fn cell(&mut self, token: u64) -> Option<&mut Option<(u64, &'static str)>> {
        let lid = (token & 0xffff_ffff) as usize;
        let idx = (token >> 32) as usize & 1;
        Some(&mut self.waiting.get_mut(lid)?[idx])
    }

    /// Disarms `token` if it is the token armed in its cell; a token an
    /// earlier wait left on a queue never is. Returns whether it was.
    fn disarm(&mut self, token: u64) -> bool {
        self.cell(token)
            .and_then(|cell| cell.take_if(|(armed, _)| *armed == token))
            .is_some()
    }
}

/// One engine wait queue.
#[derive(Default)]
struct WaitQueue {
    waiters: VecDeque<Waiter>,
    /// When the queue's most recent signal found no waiter, the
    /// simulated time of that signal; a later signal that wakes someone
    /// clears it. Read only by the lost-wakeup diagnosis.
    empty_signal: Option<Cycles>,
}

struct State {
    now: Cycles,
    timer_seq: u64,
    /// Pending timers, earliest `(at, seq)` on top.
    timers: BinaryHeap<Reverse<(Cycles, u64, TimerAction)>>,
    /// Every process, indexed by tid. Tids are handed out 1, 2, 3, …
    /// and never reused, and the next one is `procs.len()`. Slot 0 (the
    /// host) stays empty, and so does the slot of each lite pid, since
    /// lite pids share the tid namespace. Boxed, so a crowd's empty
    /// slots cost a pointer each and the table stays small enough that
    /// growing it does not churn the host allocator's large blocks.
    procs: Vec<Option<Box<Proc>>>,
    policy: Box<dyn RunPolicy>,
    current: Option<Tid>,
    live: usize,
    /// Every wait queue, indexed by id. Ids are handed out 1, 2, 3, …
    /// and never freed; slot 0 is never handed out.
    queues: Vec<WaitQueue>,
    rng: StdRng,
    dispatches: u64,
    finished: bool,
    error: Option<SimError>,
    audit: AuditState,
    /// The happens-before race detector, when armed (see
    /// [`Sim::arm_race_detector`]); every call happens under this state
    /// lock, so plain mutable state suffices.
    race: Option<Box<Detector>>,
    /// Planted-bug mutant bits (unit tests only).
    #[cfg(test)]
    mutants: u8,
}

/// The SimMutex lock-order graph. Each process's held locks live on its
/// `Proc`, and each queue's into-the-void signal on its `WaitQueue`.
#[derive(Default)]
struct AuditState {
    /// Lock-order edges `a -> b` ("b was acquired while a was held"),
    /// with the name of the process that first established each edge.
    lock_edges: BTreeMap<u64, BTreeMap<u64, String>>,
}

impl AuditState {
    /// Is `to` reachable from `from` in the lock-order graph?
    fn reaches(&self, from: u64, to: u64) -> bool {
        let mut stack = vec![from];
        let mut seen = std::collections::BTreeSet::new();
        while let Some(n) = stack.pop() {
            if n == to {
                return true;
            }
            if !seen.insert(n) {
                continue;
            }
            if let Some(nexts) = self.lock_edges.get(&n) {
                stack.extend(nexts.keys().copied());
            }
        }
        false
    }

    /// One witness path `from -> ... -> to`, for the violation report.
    fn path(&self, from: u64, to: u64) -> Vec<u64> {
        let mut stack = vec![vec![from]];
        let mut seen = std::collections::BTreeSet::new();
        while let Some(p) = stack.pop() {
            let n = *p.last().expect("paths are never empty");
            if n == to {
                return p;
            }
            if !seen.insert(n) {
                continue;
            }
            if let Some(nexts) = self.lock_edges.get(&n) {
                for next in nexts.keys() {
                    let mut q = p.clone();
                    q.push(*next);
                    stack.push(q);
                }
            }
        }
        vec![from, to]
    }
}

impl State {
    /// Process `tid`, if one was spawned with it.
    fn proc(&self, tid: Tid) -> Option<&Proc> {
        self.procs.get(tid.0 as usize)?.as_deref()
    }

    fn proc_mut(&mut self, tid: Tid) -> Option<&mut Proc> {
        self.procs.get_mut(tid.0 as usize)?.as_deref_mut()
    }

    /// Every process, in tid order.
    fn procs(&self) -> impl Iterator<Item = (Tid, &Proc)> {
        self.procs
            .iter()
            .enumerate()
            .filter_map(|(i, p)| Some((Tid(i as u32), p.as_deref()?)))
    }

    /// Queue `q`, if `new_queue` handed it out.
    fn queue_mut(&mut self, q: u64) -> Option<&mut WaitQueue> {
        self.queues.get_mut(q as usize).filter(|_| q != 0)
    }

    /// The lite scheduler registered as process `tid`.
    fn lite_mut(&mut self, tid: Tid) -> Option<&mut LiteSched> {
        self.proc_mut(tid)?.lite.as_mut()
    }
}

struct Inner {
    state: Mutex<State>,
    /// A copy of `State::now`, stored wherever the clock moves, so
    /// [`Sim::now`] reads the clock without taking the state lock. Only
    /// the baton holder moves the clock, and the baton passes through a
    /// lock, so a relaxed load sees the latest store.
    now: AtomicU64,
    /// Immutable copy of the run's jitter factor (fixed at `Sim::new`),
    /// so the charge fast path can scale without taking the state lock.
    run_factor: f64,
    /// Set once a planted-bug mutant is armed: batching would fold the
    /// per-charge behaviour the mutant tests pin down (unit tests only).
    #[cfg(test)]
    mutants_armed: std::sync::atomic::AtomicBool,
    /// State-lock acquisitions so far (unit tests only: they pin the
    /// lock traffic of each primitive).
    #[cfg(test)]
    locks: AtomicU64,
    done: Condvar,
    threads: Mutex<Vec<JoinHandle<()>>>,
    /// Trace sink. Disabled by default (one relaxed load per emit site);
    /// auto-enabled when a `tnt_trace::session` is collecting.
    tracer: Tracer,
    /// Fault-injection plan: the configured profile plus its own seeded
    /// RNG stream, so fault rolls never perturb the jitter stream.
    faults: FaultPlan,
    /// Workload recorder (tnt-replay capture shim). Disabled by default
    /// (one relaxed load per emit site); armed at birth by the ambient
    /// `tnt_replay::set_ambient` flag, or explicitly via
    /// [`Sim::recorder`].
    recorder: tnt_replay::Recorder,
}

thread_local! {
    static CURRENT: Cell<Option<Tid>> = const { Cell::new(None) };
    /// Cycles charged on this thread but not yet applied to the engine
    /// clock, tagged with the owning engine's `Inner` address (a thread
    /// only ever holds one simulation's baton, but the tag keeps a
    /// stale cell from ever leaking across engines). Flushed on every
    /// state-lock acquisition, so no engine state is observable while a
    /// balance is outstanding.
    static PENDING_CHARGE: Cell<(usize, u64)> = const { Cell::new((0, 0)) };
    /// Virtual pid of the lite process being polled on this thread, if
    /// any: trace events stamp it instead of the scheduler's tid.
    static LITE_PID: Cell<Option<u32>> = const { Cell::new(None) };
    /// Set while this thread is borrowed by a poll — a lite process's
    /// `poll` or a task's — so it must not park: `Sim::block_on` called
    /// there fails loudly instead of hanging the host thread that holds
    /// the baton.
    static NO_PARK: Cell<bool> = const { Cell::new(false) };
    /// The blocking primitive that last returned `Pending` on this
    /// thread, named by the `NO_PARK` failure.
    static PARKED_IN: Cell<&'static str> = const { Cell::new("") };
    /// How the block of the process this thread last resumed ended,
    /// handed over by the dispatch that picked it.
    static WOKE: Cell<Woke> = const {
        Cell::new(Woke {
            timed_out: false,
            by: None,
        })
    };
}

/// Scope guard marking "this thread is polling lite process `pid`".
/// While it lives, trace events carry the lite pid and any
/// `Sim::block_on` that would park panics — lite processes block by
/// *returning* `Step::Block` from `poll`.
/// Dropping it restores the values it replaced: a lite poll nests inside
/// the poll of its scheduler's task, which must stay unable to park.
pub(crate) struct LitePollGuard {
    outer_pid: Option<u32>,
    outer_no_park: bool,
}

impl LitePollGuard {
    pub(crate) fn new(pid: u32) -> LitePollGuard {
        LitePollGuard {
            outer_pid: LITE_PID.replace(Some(pid)),
            outer_no_park: NO_PARK.replace(true),
        }
    }
}

impl Drop for LitePollGuard {
    fn drop(&mut self) {
        LITE_PID.set(self.outer_pid);
        NO_PARK.set(self.outer_no_park);
    }
}

/// The one await point of every blocking primitive. The caller has
/// already queued itself — on a wait queue, a timer, or the run queue
/// for a yield — so the first poll gives up the baton and the next one,
/// made by the dispatch that resumes the process, completes. Engine
/// wait queues and timers decide who is runnable, which is why tasks are
/// polled with a no-op `Waker`.
struct Park {
    /// The primitive, for the `NO_PARK` failure message.
    form: &'static str,
    parked: bool,
}

impl Park {
    fn new(form: &'static str) -> Park {
        Park {
            form,
            parked: false,
        }
    }
}

impl Future for Park {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, _: &mut Context<'_>) -> Poll<()> {
        if self.parked {
            return Poll::Ready(());
        }
        self.parked = true;
        PARKED_IN.set(self.form);
        Poll::Pending
    }
}

/// Why a future that returned `Pending` while its process still held the
/// baton fails the run: nothing would ever dispatch the process again.
const PENDING_WITHOUT_BLOCKING: &str = "is pending without blocking on the engine: only the \
     engine's primitives (Sim::wait_on, Sim::sleep, Sim::yield_now, ...) may suspend a \
     simulated process";

/// Opens a new block of the calling process: it gives up the baton with
/// `status`, and timed wakeups armed for an earlier block go stale.
/// Returns the new block generation.
fn begin_block(proc: &mut Proc, status: Status) -> u64 {
    proc.status = status;
    proc.block_gen += 1;
    proc.block_gen
}

/// Installs (once per program) a panic hook that silences the internal
/// kill-unwind while delegating every real panic to the previous hook.
fn install_quiet_kill_hook() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if info.payload().is::<SimKilled>() {
                return;
            }
            prev(info);
        }));
    });
}

/// A handle to a simulation. Cheap to clone; all clones refer to the same
/// engine instance.
#[derive(Clone)]
pub struct Sim {
    inner: Arc<Inner>,
}

impl Sim {
    /// Creates a simulation with the given run-queue policy and config.
    pub fn new(policy: Box<dyn RunPolicy>, config: SimConfig) -> Sim {
        install_quiet_kill_hook();
        let mut rng = StdRng::seed_from_u64(config.seed);
        // One multiplicative factor per run: repeated runs with different
        // seeds then have a standard deviation of roughly `jitter`, the
        // way the paper's twenty runs do.
        let run_factor = if config.jitter == 0.0 {
            1.0
        } else {
            let j = config.jitter * 3f64.sqrt(); // uniform [-sqrt(3)j, +sqrt(3)j] has sd j
            1.0 + rng.gen_range(-j..=j)
        };
        let state = State {
            now: Cycles::ZERO,
            timer_seq: 0,
            timers: BinaryHeap::new(),
            procs: vec![None],
            policy,
            current: None,
            live: 0,
            queues: vec![WaitQueue::default()],
            rng,
            dispatches: 0,
            finished: false,
            error: None,
            audit: AuditState::default(),
            race: None,
            #[cfg(test)]
            mutants: 0,
        };
        let sim = Sim {
            inner: Arc::new(Inner {
                state: Mutex::new(state),
                now: AtomicU64::new(0),
                run_factor,
                #[cfg(test)]
                mutants_armed: std::sync::atomic::AtomicBool::new(false),
                #[cfg(test)]
                locks: AtomicU64::new(0),
                done: Condvar::new(),
                threads: Mutex::new(Vec::new()),
                tracer: Tracer::new(),
                faults: FaultPlan::new(config.faults, config.seed),
                recorder: tnt_replay::Recorder::new(),
            }),
        };
        if tnt_trace::session::active() {
            sim.inner.tracer.enable(tnt_trace::session::ring_capacity());
        }
        // `reproduce replay --record` captures every simulation it builds.
        if tnt_replay::ambient() {
            sim.inner.recorder.enable();
        }
        // Mirrors `tnt_fault::set_ambient`: `reproduce --audit` arms the
        // happens-before checker for every simulation it builds.
        if tnt_race::ambient() {
            sim.arm_race_detector();
        }
        sim
    }

    /// The simulation's trace sink (always present, recording only while
    /// enabled; its counters run regardless).
    pub fn tracer(&self) -> &Tracer {
        &self.inner.tracer
    }

    /// The simulation's fault-injection plan. Device models roll their
    /// fault probabilities here; with the default `off` profile every
    /// roll is a free `false`.
    pub fn faults(&self) -> &FaultPlan {
        &self.inner.faults
    }

    /// The simulation's workload recorder (always present, capturing
    /// only while enabled). Arm it with the ambient
    /// `tnt_replay::set_ambient` flag before `Sim::new`, or directly via
    /// `sim.recorder().enable()`; harvest with `take()`.
    pub fn recorder(&self) -> &tnt_replay::Recorder {
        &self.inner.recorder
    }

    /// Records a block command issued to a disk (called by the disk
    /// model at its command boundary). Recording never moves the
    /// simulated clock; disabled cost is one relaxed atomic load.
    pub fn record_block(&self, write: bool, addr: u64, blocks: u64) {
        if self.inner.recorder.is_enabled() {
            let (t, pid) = self.stamp();
            self.inner
                .recorder
                .record_block(t, pid, write, addr, blocks);
        }
    }

    /// Records a file-layer event (called by the filesystem model after
    /// a successful `open`/`unlink`). Same cost contract as
    /// [`Sim::record_block`].
    pub fn record_path_event(&self, op: tnt_replay::Op, path: &str) {
        if self.inner.recorder.is_enabled() {
            let (t, pid) = self.stamp();
            self.inner.recorder.record_path_event(t, pid, op, path);
        }
    }

    /// Starts recording trace events into a fresh ring of `capacity`.
    pub fn enable_tracing(&self, capacity: usize) {
        self.inner.tracer.enable(capacity);
    }

    /// Bumps an always-on trace counter.
    #[inline]
    pub fn count(&self, c: Counter, n: u64) {
        self.inner.tracer.count(c, n);
    }

    /// Opens an attribution span of `class` on the calling process (the
    /// host counts as pid 0); the span closes when the guard drops.
    /// Recording never moves the simulated clock, and with tracing
    /// disabled this is a single atomic load.
    #[inline]
    pub fn span(&self, class: Class) -> TraceSpan<'_> {
        let armed = self.inner.tracer.is_enabled();
        if armed {
            let (t, pid) = self.stamp();
            self.inner.tracer.record(Event {
                t,
                pid,
                kind: EventKind::Enter(class),
            });
        }
        TraceSpan {
            sim: self,
            class,
            armed,
        }
    }

    /// Timestamp + pid for an event emitted by the calling thread. A
    /// lite process being polled overrides the scheduler's own tid, so
    /// attribution is per lite process, not per scheduler slot.
    fn stamp(&self) -> (u64, u32) {
        let now = self.now().0;
        let pid = LITE_PID
            .with(|c| c.get())
            .or_else(|| CURRENT.get().map(|t| t.0))
            .unwrap_or(0);
        (now, pid)
    }

    /// Spawns a threaded simulated process: `f` runs on its own host
    /// thread, which parks whenever the process does not hold the baton.
    /// It becomes runnable immediately but only executes once the engine
    /// dispatches it, and it reaches the blocking primitives through
    /// [`Sim::block_on`].
    pub fn spawn<F>(&self, name: impl Into<String>, f: F) -> Tid
    where
        F: FnOnce(&Sim) + Send + 'static,
    {
        let name = name.into();
        let parker = Parker::new();
        let thread_name = format!("sim-{name}");
        let tid = self.admit(name, 0, Body::Thread(parker.clone()));
        let sim = self.clone();
        #[expect(
            clippy::disallowed_methods,
            reason = "the engine's job is hosting simulated processes on real threads"
        )]
        let handle = std::thread::Builder::new()
            .name(thread_name)
            .stack_size(512 * 1024)
            .spawn(move || {
                if parker.park() == Wake::Kill {
                    return;
                }
                CURRENT.set(Some(tid));
                let result = panic::catch_unwind(AssertUnwindSafe(|| f(&sim)));
                match result {
                    Ok(()) => sim.on_exit(tid),
                    Err(payload) if payload.is::<SimKilled>() => {}
                    Err(payload) => sim.on_panic(panic_message(&*payload)),
                }
            })
            .expect("failed to spawn simulated process thread");
        self.inner.threads.lock().push(handle);
        tid
    }

    /// Spawns a simulated process as a task: `f` receives a handle to
    /// the simulation and returns the process body as a future. The task
    /// runs on whichever thread holds the baton when it is dispatched,
    /// so it costs no host thread; it blocks by awaiting the engine's
    /// primitives ([`Sim::wait_on`], [`Sim::sleep`], ...). Calling
    /// [`Sim::block_on`] from a task fails the run.
    pub fn spawn_task<F, Fut>(&self, name: impl Into<String>, f: F) -> Tid
    where
        F: FnOnce(Sim) -> Fut,
        Fut: Future<Output = ()> + Send + 'static,
    {
        self.spawn_task_tagged(name, 0, f)
    }

    /// Like [`Sim::spawn_task`] with an opaque `tag` that is passed to
    /// the [`RunPolicy`] on every enqueue of this process (used to route
    /// processes to per-machine schedulers).
    pub fn spawn_task_tagged<F, Fut>(&self, name: impl Into<String>, tag: u32, f: F) -> Tid
    where
        F: FnOnce(Sim) -> Fut,
        Fut: Future<Output = ()> + Send + 'static,
    {
        let fut: TaskFuture = Box::pin(f(self.clone()));
        self.admit(name.into(), tag, Body::Task(Some(fut)))
    }

    /// Registers a new runnable process hosted by `body`.
    fn admit(&self, name: String, tag: u32, body: Body) -> Tid {
        let mut st = self.lock_state();
        assert!(!st.finished, "spawn after simulation finished");
        let tid = Tid(st.procs.len() as u32);
        if self.inner.tracer.is_enabled() {
            self.inner.tracer.record(Event {
                t: st.now.0,
                pid: tid.0,
                kind: EventKind::Spawn(name.clone()),
            });
        }
        st.procs.push(Some(Box::new(Proc {
            name,
            body,
            status: Status::Runnable,
            tag,
            cpu: Cycles::ZERO,
            block_gen: 0,
            woke: Woke::default(),
            held_locks: Vec::new(),
            lite: None,
        })));
        st.live += 1;
        st.policy.enqueue(tid, tag);
        if st.race.is_some() {
            let parent = race_task();
            if let Some(d) = st.race.as_mut() {
                d.task_start(tid.0, parent);
            }
            self.race_protected(&mut st, Loc::RunQueue, AccessKind::Write, "spawn.enqueue");
        }
        tid
    }

    /// Runs the simulation until every process has exited, a process calls
    /// [`Sim::stop`], a deadlock is detected, or a process panics.
    ///
    /// Returns the final simulated time on success. Must be called from the
    /// host (non-simulated) thread that built the simulation; that thread
    /// polls tasks itself until the baton passes to a threaded process. A
    /// caller that reads its results from the processes instead discards
    /// the final time with `let _ =`.
    pub fn run(&self) -> Result<Cycles, SimError> {
        assert!(
            CURRENT.get().is_none(),
            "Sim::run called from a simulated process"
        );
        let (final_now, error) = {
            let mut st = self.lock_state();
            if !st.finished && st.current.is_none() {
                self.dispatch(st, None);
                st = self.lock_state();
            }
            while !st.finished {
                self.inner.done.wait(&mut st);
            }
            // Join edges: everything every proc did happens-before the
            // host's post-run reads (`proc_cpu`, a follow-up `run`).
            if st.race.is_some() {
                let tids: Vec<u32> = st.procs().map(|(t, _)| t.0).collect();
                if let Some(d) = st.race.as_mut() {
                    for t in tids {
                        d.task_join(t, 0);
                    }
                }
            }
            (st.now, st.error.clone())
        };
        self.shutdown();
        if self.inner.tracer.is_enabled() && tnt_trace::session::active() {
            tnt_trace::session::publish(&self.inner.tracer, final_now.0);
            // One publication per simulation even if run() is called again.
            self.inner.tracer.disable();
        }
        // Ambient captures (`reproduce replay --record`) flow to the
        // process-wide sink. Publish a snapshot rather than draining:
        // a workload that armed its own recorder explicitly (x11/x12's
        // capture machines) still harvests the same events with
        // `take()` after the run. Disabling stops a second `run` from
        // publishing the trace twice.
        if tnt_replay::ambient()
            && self.inner.recorder.is_enabled()
            && !self.inner.recorder.is_empty()
        {
            tnt_replay::publish(self.inner.recorder.snapshot());
            self.inner.recorder.disable();
        }
        match error {
            None => Ok(final_now),
            Some(e) => Err(e),
        }
    }

    /// Terminates the simulation from inside a simulated process (threaded
    /// or task), unwinding the caller. The run ends at the current clock
    /// and remaining processes are destroyed. Never returns.
    pub fn stop(&self) -> ! {
        let tid = current_tid();
        {
            let mut st = self.lock_state();
            let proc = st.proc_mut(tid).expect("current proc missing");
            proc.status = Status::Exited;
            st.live -= 1;
            st.current = None;
            st.finished = true;
            self.inner.done.notify_all();
        }
        panic::panic_any(SimKilled);
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> Cycles {
        // The clock mirror plus this thread's unsettled charges: exactly
        // the clock the next lock settles to, since settling moves the
        // clock by the balance and fires only timers due by then, and
        // timers fire only under the lock, so the deferred settle
        // reorders no event.
        let now = self.inner.now.load(Ordering::Relaxed);
        let (tag, pending) = PENDING_CHARGE.get();
        if tag == self.key() {
            Cycles(now + pending)
        } else {
            Cycles(now)
        }
    }

    /// The factor every charge of this run is scaled by (unit tests).
    #[cfg(test)]
    pub(crate) fn run_factor(&self) -> f64 {
        self.inner.run_factor
    }

    /// The tag of this engine's balance in `PENDING_CHARGE`.
    #[inline]
    fn key(&self) -> usize {
        Arc::as_ptr(&self.inner) as usize
    }

    /// Moves the clock to `t`, keeping its lock-free mirror in step.
    fn set_now(&self, st: &mut State, t: Cycles) {
        st.now = t;
        self.inner.now.store(t.0, Ordering::Relaxed);
    }

    /// Advances simulated time by exactly `c` cycles of CPU work, firing
    /// any timers that come due along the way. Does not yield the baton.
    pub fn advance(&self, c: Cycles) {
        let mut st = self.lock_state();
        self.advance_locked(&mut st, c);
    }

    /// Like [`Sim::advance`], but scales the charge by the configured
    /// jitter factor. Use for modelled CPU costs so that repeated runs with
    /// different seeds exhibit a realistic standard deviation.
    #[inline]
    pub fn charge(&self, c: Cycles) {
        let _ = self.charge_scaled(c);
    }

    /// Like [`Sim::charge`] but returns the scaled amount actually
    /// advanced — the lite scheduler mirrors it into its per-process
    /// accounts so threaded and lite accounting stay byte-identical.
    #[inline]
    pub(crate) fn charge_scaled(&self, c: Cycles) -> Cycles {
        // The hottest call in the engine — every modelled cost goes
        // through it. When nothing can observe individual charges (no
        // tracer, no recorder, no planted mutants) the scaled amount
        // just accumulates in a thread-local; the next state-lock
        // acquisition applies the whole batch in one `advance_locked`.
        // Scaling happens per charge (each amount rounds exactly as an
        // immediate charge would), so the batch conserves cycles
        // bit-for-bit and the returned value is byte-identical.
        let scaled = if self.inner.run_factor == 1.0 {
            c
        } else {
            c.scale(self.inner.run_factor)
        };
        if self.can_batch() {
            let key = self.key();
            let (tag, pending) = PENDING_CHARGE.get();
            debug_assert!(
                pending == 0 || tag == key,
                "pending charge balance crossed simulations"
            );
            PENDING_CHARGE.set((key, pending + scaled.0));
        } else {
            let mut st = self.lock_state();
            self.advance_locked(&mut st, scaled);
        }
        scaled
    }

    /// May this call defer its charge to the next engine call? Only the
    /// baton holder (a simulated process's thread) batches: charges are
    /// invisible until the charging thread itself re-enters the engine,
    /// and every engine entry point flushes. Tracing and recording want
    /// one event per charge, and the planted-bug mutants pin per-charge
    /// behaviour, so any of them forces the immediate path.
    #[inline]
    fn can_batch(&self) -> bool {
        #[cfg(test)]
        if self
            .inner
            .mutants_armed
            .load(std::sync::atomic::Ordering::Relaxed)
        {
            return false;
        }
        CURRENT.get().is_some()
            && !self.inner.tracer.is_enabled()
            && !self.inner.recorder.is_enabled()
    }

    /// Acquires the engine state lock, first settling this thread's
    /// pending charge balance so the caller observes a fully advanced
    /// clock. Every lock acquisition in the engine goes through here.
    fn lock_state(&self) -> parking_lot::MutexGuard<'_, State> {
        let mut st = self.inner.state.lock();
        #[cfg(test)]
        self.inner.locks.fetch_add(1, Ordering::Relaxed);
        let (tag, pending) = PENDING_CHARGE.get();
        if pending != 0 && tag == self.key() {
            PENDING_CHARGE.set((0, 0));
            self.advance_locked(&mut st, Cycles(pending));
        }
        st
    }

    /// The body of [`Sim::advance`], for callers already holding the
    /// state lock.
    fn advance_locked(&self, st: &mut State, c: Cycles) {
        // Attribute the CPU burn to the running process, if any (host
        // code may also advance the clock during setup).
        if let Some(cur) = st.current {
            if let Some(proc) = st.proc_mut(cur) {
                proc.cpu += c;
            }
        }
        if c > Cycles::ZERO && st.race.is_some() {
            // The charge path touches the trace ring and the running
            // proc's account; both follow the engine's lock discipline
            // — except under the planted unlocked-ring-write mutant,
            // whose raw write the checker sees race.
            if mutant_on(st, MUTANT_UNLOCKED_RING_WRITE) {
                self.race_raw(
                    st,
                    Loc::TraceRing,
                    AccessKind::Write,
                    "charge.ring(unlocked)",
                );
            } else {
                self.race_protected(st, Loc::TraceRing, AccessKind::Write, "charge.ring");
            }
            if let Some(cur) = st.current {
                self.race_protected(
                    st,
                    Loc::ProcAccount(cur.0),
                    AccessKind::Write,
                    "charge.account",
                );
            }
        }
        let target = st.now + c;
        while matches!(st.timers.peek(), Some(Reverse((at, _, _))) if *at <= target) {
            let Reverse((at, seq, action)) = st.timers.pop().expect("peeked timer vanished");
            if at > st.now {
                self.set_now(st, at);
            }
            // Planted bug: fire an equal-instant pair in reverse arming
            // order, breaking the (at, seq) FIFO tie-break.
            if let Some((seq2, action2)) = self.mutant_steal_tie(st, at) {
                self.fire_locked(st, seq2, action2);
            }
            self.fire_locked(st, seq, action);
        }
        if target > st.now {
            self.set_now(st, target);
        }
        if c > Cycles::ZERO && self.inner.tracer.is_enabled() {
            let pid = LITE_PID
                .with(|cell| cell.get())
                .unwrap_or_else(|| st.current.map_or(0, |t| t.0));
            self.inner.tracer.record(Event {
                t: st.now.0,
                pid,
                kind: EventKind::Charge { cy: c.0 },
            });
        }
    }

    /// Draws from the simulation's deterministic RNG.
    pub fn with_rng<T>(&self, f: impl FnOnce(&mut StdRng) -> T) -> T {
        f(&mut self.lock_state().rng)
    }

    /// Runs `fut` to completion on the calling threaded process: polls
    /// it, and each time it is pending — it blocked on the engine —
    /// hands the baton on and parks the host thread until the process is
    /// dispatched again. This is the one way a threaded process reaches
    /// the blocking primitives: `s.block_on(s.sleep(d))`.
    ///
    /// # Panics
    ///
    /// Panics when `fut` would park a thread that must not park: inside a
    /// task (await the primitive instead) or a lite process's `poll`.
    pub fn block_on<F: Future>(&self, fut: F) -> F::Output {
        let mut fut = pin!(fut);
        let mut cx = Context::from_waker(Waker::noop());
        loop {
            if let Poll::Ready(out) = fut.as_mut().poll(&mut cx) {
                return out;
            }
            self.park_current();
        }
    }

    /// Yields the baton: the caller re-enters the run queue and another
    /// runnable process (possibly the caller again) is dispatched.
    pub async fn yield_now(&self) {
        {
            let tid = current_tid();
            let mut st = self.lock_state();
            let proc = st.proc_mut(tid).expect("current proc missing");
            begin_block(proc, Status::Runnable);
            let tag = proc.tag;
            st.policy.enqueue(tid, tag);
            self.race_protected(&mut st, Loc::RunQueue, AccessKind::Write, "yield.enqueue");
        }
        Park::new("Sim::yield_now").await
    }

    /// Blocks the caller until the given simulated instant.
    pub async fn sleep_until(&self, at: Cycles) {
        if self.arm_sleep(|_| at) {
            Park::new("Sim::sleep_until").await
        }
    }

    /// Blocks the caller for the given simulated duration. Unlike
    /// [`Sim::advance`] this does not consume CPU: it models waiting for a
    /// device, not computing.
    pub async fn sleep(&self, dur: Cycles) {
        if self.arm_sleep(|now| now + dur) {
            Park::new("Sim::sleep").await
        }
    }

    /// Arms the caller's wakeup at `deadline(now)`, computed under the
    /// same lock that arms it, and blocks the caller. Returns `false`,
    /// blocking nothing, when that instant is not in the future.
    fn arm_sleep(&self, deadline: impl FnOnce(Cycles) -> Cycles) -> bool {
        let tid = current_tid();
        let mut st = self.lock_state();
        let at = deadline(st.now);
        if at <= st.now {
            return false;
        }
        let seq = st.timer_seq;
        st.timer_seq += 1;
        st.timers.push(Reverse((at, seq, TimerAction::Proc(tid))));
        begin_block(
            st.proc_mut(tid).expect("current proc missing"),
            Status::Blocked("sleep"),
        );
        self.race_protected(&mut st, Loc::TimerHeap, AccessKind::Write, "sleep.arm");
        if let Some(d) = st.race.as_deref_mut() {
            d.release(race_task(), SyncId::Timer(seq));
        }
        true
    }

    /// Allocates a new wait queue.
    pub fn new_queue(&self) -> WaitId {
        let mut st = self.lock_state();
        st.queues.push(WaitQueue::default());
        WaitId(st.queues.len() as u64 - 1)
    }

    /// Blocks the caller on a wait queue until another process wakes it.
    ///
    /// `reason` appears in deadlock diagnostics. Because processes run
    /// atomically between blocking calls, the classic lost-wakeup race
    /// cannot occur: check your condition, then await `wait_on`.
    pub async fn wait_on(&self, q: WaitId, reason: &'static str) {
        {
            let tid = current_tid();
            let mut st = self.lock_state();
            st.queue_mut(q.0)
                .expect("wait queue does not exist")
                .waiters
                .push_back(Waiter::Proc(tid));
            begin_block(
                st.proc_mut(tid).expect("current proc missing"),
                Status::Blocked(reason),
            );
            self.race_protected(
                &mut st,
                Loc::WaitQueue(q.0),
                AccessKind::Write,
                "wait.enqueue",
            );
        }
        Park::new("Sim::wait_on").await
    }

    /// Like [`Sim::wait_on`] but gives up after `timeout`: returns `true`
    /// if woken by [`Sim::wakeup_one`]/[`Sim::wakeup_all`], `false` on
    /// timeout (in which case the caller is no longer on the queue).
    pub async fn wait_on_timeout(&self, q: WaitId, timeout: Cycles, reason: &'static str) -> bool {
        {
            let tid = current_tid();
            let mut st = self.lock_state();
            st.queue_mut(q.0)
                .expect("wait queue does not exist")
                .waiters
                .push_back(Waiter::Proc(tid));
            let gen = begin_block(
                st.proc_mut(tid).expect("current proc missing"),
                Status::Blocked(reason),
            );
            let at = st.now + timeout;
            let seq = st.timer_seq;
            st.timer_seq += 1;
            st.timers
                .push(Reverse((at, seq, TimerAction::ProcGen(tid, gen, q.0))));
            self.race_protected(
                &mut st,
                Loc::WaitQueue(q.0),
                AccessKind::Write,
                "wait.enqueue",
            );
            self.race_protected(
                &mut st,
                Loc::TimerHeap,
                AccessKind::Write,
                "wait.arm-timeout",
            );
            if let Some(d) = st.race.as_deref_mut() {
                d.release(race_task(), SyncId::Timer(seq));
            }
        }
        Park::new("Sim::wait_on_timeout").await;
        // Back awake: the timer handler flags timeouts (and has already
        // removed us from the queue); a real wakeup popped us normally.
        !WOKE.get().timed_out
    }

    /// Blocks on *several* queues at once (the `select(2)` primitive):
    /// returns the index of the queue whose wakeup fired, or `None` on
    /// timeout. Entries left on the other queues are skipped lazily by
    /// later wakeups.
    pub async fn wait_on_any(
        &self,
        qs: &[WaitId],
        timeout: Option<Cycles>,
        reason: &'static str,
    ) -> Option<usize> {
        assert!(!qs.is_empty(), "wait_on_any needs at least one queue");
        let tid = current_tid();
        {
            let mut st = self.lock_state();
            for q in qs {
                st.queue_mut(q.0)
                    .expect("wait queue does not exist")
                    .waiters
                    .push_back(Waiter::Proc(tid));
            }
            let gen = begin_block(
                st.proc_mut(tid).expect("current proc missing"),
                Status::Blocked(reason),
            );
            if let Some(t) = timeout {
                let at = st.now + t;
                let seq = st.timer_seq;
                st.timer_seq += 1;
                // The timer removes us from the *first* queue; the lazy
                // skip handles the rest.
                st.timers
                    .push(Reverse((at, seq, TimerAction::ProcGen(tid, gen, qs[0].0))));
                self.race_protected(&mut st, Loc::TimerHeap, AccessKind::Write, "select.arm");
                if let Some(d) = st.race.as_deref_mut() {
                    d.release(race_task(), SyncId::Timer(seq));
                }
            }
            for q in qs {
                self.race_protected(
                    &mut st,
                    Loc::WaitQueue(q.0),
                    AccessKind::Write,
                    "select.enqueue",
                );
            }
        }
        Park::new("Sim::wait_on_any").await;
        // The waker (or the timeout handler) recorded how we were woken;
        // clean our leftover entries off every queue.
        let woke = WOKE.get();
        let mut st = self.lock_state();
        for q in qs {
            if let Some(queue) = st.queue_mut(q.0) {
                queue.waiters.retain(|w| *w != Waiter::Proc(tid));
            }
            self.race_protected(
                &mut st,
                Loc::WaitQueue(q.0),
                AccessKind::Write,
                "select.cleanup",
            );
        }
        if woke.timed_out {
            None
        } else {
            qs.iter().position(|q| Some(q.0) == woke.by)
        }
    }

    /// Wakes the longest-waiting process on the queue, if any. Returns
    /// whether a process was woken. Does not yield the baton.
    pub fn wakeup_one(&self, q: WaitId) -> bool {
        let mut st = self.lock_state();
        let woke = self.wake_from_queue_locked(&mut st, q.0, WakeCause::Signal);
        if !woke {
            note_empty_signal(&mut st, q.0);
        }
        woke
    }

    /// Wakes every process on the queue. Returns how many were woken.
    pub fn wakeup_all(&self, q: WaitId) -> usize {
        let mut st = self.lock_state();
        let mut n = 0;
        while self.wake_from_queue_locked(&mut st, q.0, WakeCause::Signal) {
            n += 1;
        }
        if n == 0 {
            note_empty_signal(&mut st, q.0);
        }
        n
    }

    /// Schedules a wakeup of one waiter on `q` at simulated time `at`.
    pub fn wakeup_one_at(&self, q: WaitId, at: Cycles) {
        let mut st = self.lock_state();
        let seq = st.timer_seq;
        st.timer_seq += 1;
        st.timers
            .push(Reverse((at, seq, TimerAction::QueueOne(q.0))));
        self.race_protected(&mut st, Loc::TimerHeap, AccessKind::Write, "wakeup-at.arm");
        if let Some(d) = st.race.as_deref_mut() {
            d.release(race_task(), SyncId::Timer(seq));
        }
    }

    /// Number of processes currently blocked on the queue.
    pub fn waiters(&self, q: WaitId) -> usize {
        self.lock_state()
            .queue_mut(q.0)
            .map_or(0, |queue| queue.waiters.len())
    }

    /// The tid of the calling simulated process.
    ///
    /// # Panics
    ///
    /// Panics when called from a thread that is not a simulated process.
    pub fn current(&self) -> Tid {
        current_tid()
    }

    /// Total CPU cycles charged while `tid` held the baton (its rusage).
    /// Returns zero for unknown tids.
    pub fn proc_cpu(&self, tid: Tid) -> Cycles {
        self.lock_state().proc(tid).map_or(Cycles::ZERO, |p| p.cpu)
    }

    /// Number of dispatches (context switches) the engine has performed —
    /// the event counting the paper's Section 13 wishes for.
    pub fn dispatch_count(&self) -> u64 {
        self.lock_state().dispatches
    }

    // ------------------------------------------------------------------
    // Lite-scheduler plumbing (see `crate::lite`). A lite scheduler is
    // an ordinary engine process that multiplexes thousands of
    // cooperative state machines; these hooks let engine wait queues
    // deliver wakeups to it as mailbox tokens instead of baton handoffs.
    // ------------------------------------------------------------------

    /// Registers the calling engine process as a lite scheduler that
    /// waits on `doorbell` while none of its lite processes can run.
    pub(crate) fn register_lite_sched(&self, doorbell: WaitId) {
        let tid = current_tid();
        let mut st = self.lock_state();
        let proc = st.proc_mut(tid).expect("current proc missing");
        let prev = proc.lite.replace(LiteSched {
            doorbell: doorbell.0,
            mailbox: Vec::new(),
            waiting: Vec::new(),
        });
        assert!(prev.is_none(), "process is already a lite scheduler");
    }

    /// Unregisters the calling lite scheduler (its drive loop returned).
    pub(crate) fn unregister_lite_sched(&self) {
        let tid = current_tid();
        if let Some(proc) = self.lock_state().proc_mut(tid) {
            proc.lite = None;
        }
    }

    /// Parks lite-process `token` of the calling scheduler on engine wait
    /// queue `q`. The next `wakeup_one`/`wakeup_all` on `q` that reaches
    /// this entry pushes `token` into the scheduler's mailbox and rings
    /// its doorbell — no host thread blocks.
    pub(crate) fn lite_wait_enqueue(&self, q: u64, token: u64, reason: &'static str) {
        let tid = current_tid();
        let mut st = self.lock_state();
        let ls = st
            .lite_mut(tid)
            .expect("lite_wait_enqueue from a non-scheduler process");
        let lid = (token & 0xffff_ffff) as usize;
        if lid >= ls.waiting.len() {
            ls.waiting.resize(lid + 1, [None; 2]);
        }
        let prev = ls
            .cell(token)
            .and_then(|cell| cell.replace((token, reason)));
        assert!(prev.is_none(), "lite process is already parked on a queue");
        st.queue_mut(q)
            .expect("wait queue does not exist")
            .waiters
            .push_back(Waiter::Lite { sched: tid, token });
    }

    /// Cancels a not-yet-delivered lite wait token of the calling
    /// scheduler — an `Any` waiter that was resumed through a sibling
    /// queue or its deadline no longer wants the other queues' signals.
    /// The queue entries themselves stay put; `wake_from_queue_locked`
    /// skips disarmed tokens lazily, exactly as it skips a threaded
    /// `wait_on_any` waiter already woken through another queue.
    /// Returns whether the token was still armed.
    pub(crate) fn lite_wait_cancel(&self, token: u64) -> bool {
        let tid = current_tid();
        let mut st = self.lock_state();
        st.lite_mut(tid).is_some_and(|ls| ls.disarm(token))
    }

    /// Appends the calling scheduler's mailbox to `tokens`: the tokens
    /// whose wakeups have been delivered since the last drain, in
    /// delivery order. Returns the clock and the number of engine
    /// processes queued runnable (the caller excluded), read under the
    /// same lock. Draining into an empty `tokens` swaps the two
    /// buffers, so neither allocates once both have grown to the
    /// crowd's wakeup rate.
    pub(crate) fn lite_take_mailbox(&self, tokens: &mut Vec<u64>) -> (Cycles, usize) {
        let tid = current_tid();
        let mut st = self.lock_state();
        if let Some(ls) = st.lite_mut(tid) {
            if tokens.is_empty() {
                std::mem::swap(&mut ls.mailbox, tokens);
            } else {
                tokens.append(&mut ls.mailbox);
            }
        }
        (st.now, st.policy.runnable())
    }

    /// Allocates a fresh pid for a lite process and emits its Spawn
    /// event. Lite pids share the engine's tid namespace so traces stay
    /// unambiguous, but no `Proc` entry (and no host thread) backs them:
    /// their slots in the process table stay empty.
    pub(crate) fn alloc_lite_pid(&self, name: &str) -> u32 {
        let mut st = self.lock_state();
        let pid = st.procs.len() as u32;
        st.procs.push(None);
        if self.inner.tracer.is_enabled() {
            self.inner.tracer.record(Event {
                t: st.now.0,
                pid,
                kind: EventKind::Spawn(name.to_string()),
            });
        }
        pid
    }

    // ------------------------------------------------------------------
    // Dynamic audit hooks (SimMutex lock-order graph).
    // ------------------------------------------------------------------

    /// Records that the current process is about to acquire the
    /// SimMutex backed by wait queue `q`: every lock it already holds
    /// gains an edge `held -> q` in the lock-order graph, and the
    /// simulation fails loudly if the reverse order was ever observed —
    /// the deadlock exists even if this run's interleaving dodges it.
    pub(crate) fn audit_mutex_acquiring(&self, q: WaitId) {
        let Some(tid) = CURRENT.get() else {
            return;
        };
        let mut st = self.lock_state();
        let State { procs, audit, .. } = &mut *st;
        let proc = procs[tid.0 as usize]
            .as_ref()
            .expect("current proc missing");
        for &h in &proc.held_locks {
            let known = h == q.0
                || audit
                    .lock_edges
                    .get(&h)
                    .is_some_and(|m| m.contains_key(&q.0));
            if known {
                continue;
            }
            if audit.reaches(q.0, h) {
                let path = audit.path(q.0, h);
                let chain: Vec<String> = path.iter().map(|id| format!("mutex#{id}")).collect();
                let name = proc.name.clone();
                drop(st);
                panic!(
                    "audit: lock-order violation: process {name} acquires mutex#{} \
                     while holding mutex#{h}, but the order {} is already \
                     established; a deadlock is one interleaving away",
                    q.0,
                    chain.join(" -> "),
                );
            }
            audit
                .lock_edges
                .entry(h)
                .or_default()
                .insert(q.0, proc.name.clone());
        }
    }

    /// Records that the current process now holds the SimMutex backed
    /// by queue `q`.
    pub(crate) fn audit_mutex_acquired(&self, q: WaitId) {
        let Some(tid) = CURRENT.get() else {
            return;
        };
        let mut st = self.lock_state();
        if let Some(proc) = st.proc_mut(tid) {
            proc.held_locks.push(q.0);
        }
        if let Some(d) = st.race.as_deref_mut() {
            d.acquire(tid.0, SyncId::Lock(q.0));
        }
    }

    /// Records that the current process released the SimMutex backed by
    /// queue `q`.
    pub(crate) fn audit_mutex_released(&self, q: WaitId) {
        let Some(tid) = CURRENT.get() else {
            return;
        };
        let mut st = self.lock_state();
        if let Some(proc) = st.proc_mut(tid) {
            if let Some(pos) = proc.held_locks.iter().rposition(|id| *id == q.0) {
                proc.held_locks.remove(pos);
            }
        }
        if let Some(d) = st.race.as_deref_mut() {
            d.release(tid.0, SyncId::Lock(q.0));
        }
    }

    // ------------------------------------------------------------------
    // Happens-before race detection (`tnt_sim::race`).
    // ------------------------------------------------------------------

    /// Arms the happens-before race detector for this simulation. Arm
    /// before spawning; procs spawned earlier are conservatively ordered
    /// behind the host.
    /// Armed, every unordered same-location access pair panics the
    /// simulation with both accesses' stacks-of-record. Detection is
    /// pure metadata: it consumes no simulation RNG and never moves the
    /// simulated clock.
    pub fn arm_race_detector(&self) {
        let mut st = self.lock_state();
        if st.race.is_none() {
            let mut d = Box::new(Detector::new());
            for (tid, _) in st.procs() {
                d.task_start(tid.0, 0);
            }
            st.race = Some(d);
        }
    }

    /// Whether the happens-before detector is armed on this simulation.
    pub fn race_armed(&self) -> bool {
        self.lock_state().race.is_some()
    }

    /// Records a read of the named shared location on the calling
    /// task's behalf. No-op unless the detector is armed; panics if the
    /// read is unordered with another task's write of the location.
    /// Models built on the engine sprinkle these on state shared across
    /// simulated processes to prove their synchronization covers it.
    pub fn race_read(&self, name: &'static str, key: u64) {
        self.race_user_access(name, key, AccessKind::Read);
    }

    /// Records a write of the named shared location; see
    /// [`Sim::race_read`].
    pub fn race_write(&self, name: &'static str, key: u64) {
        self.race_user_access(name, key, AccessKind::Write);
    }

    fn race_user_access(&self, name: &'static str, key: u64, kind: AccessKind) {
        let mut st = self.lock_state();
        if st.race.is_none() {
            return;
        }
        let info = race_info(&st, name);
        if let Some(d) = st.race.as_mut() {
            if let Some(race) = d.access(Loc::Named(name, key), kind, info) {
                drop(st);
                panic!("audit: {race}");
            }
        }
    }

    /// Drains the per-slice footprints the armed detector has gathered
    /// — the schedule explorer's independence oracle. Empty when the
    /// detector is not armed.
    pub fn race_footprints(&self) -> Vec<((u32, u32), tnt_race::Footprint)> {
        self.lock_state()
            .race
            .as_mut()
            .map_or_else(Vec::new, |d| d.take_footprints())
    }

    /// A channel operation on the channel keyed by `id`: acquire then
    /// release of the channel's sync var, totally ordering all
    /// operations on one channel (the model of the host mutex guarding
    /// its buffer).
    pub(crate) fn race_channel_op(&self, id: u64) {
        let mut st = self.lock_state();
        if st.race.is_none() {
            return;
        }
        let task = race_task();
        if let Some(d) = st.race.as_mut() {
            d.acquire(task, SyncId::Channel(id));
            d.release(task, SyncId::Channel(id));
        }
    }

    /// A disciplined access to an engine-internal structure: the engine
    /// lock orders it with every other disciplined access, so those
    /// never race, but it creates no happens-before edge. Panics on the
    /// races only a discipline-skipping mutant (or regression) can
    /// produce.
    fn race_protected(&self, st: &mut State, loc: Loc, kind: AccessKind, site: &'static str) {
        if st.race.is_none() {
            return;
        }
        let info = race_info(st, site);
        if let Some(d) = st.race.as_mut() {
            if let Some(race) = d.protected_access(loc, kind, info) {
                panic!("audit: {race}");
            }
        }
    }

    /// A raw, discipline-free access (the unlocked-ring-write mutant's
    /// code path).
    fn race_raw(&self, st: &mut State, loc: Loc, kind: AccessKind, site: &'static str) {
        if st.race.is_none() {
            return;
        }
        let info = race_info(st, site);
        if let Some(d) = st.race.as_mut() {
            if let Some(race) = d.access(loc, kind, info) {
                panic!("audit: {race}");
            }
        }
    }

    /// Enables a planted bug for this simulation (unit tests only).
    #[cfg(test)]
    pub(crate) fn set_mutant(&self, bit: u8) {
        self.inner
            .mutants_armed
            .store(true, std::sync::atomic::Ordering::Relaxed);
        self.lock_state().mutants |= bit;
    }

    /// Whether a planted bug is enabled; constant `false` outside unit
    /// tests, so mutant branches cost nothing in production.
    #[cfg(test)]
    pub(crate) fn mutant_enabled(&self, bit: u8) -> bool {
        self.lock_state().mutants & bit != 0
    }

    #[cfg(not(test))]
    #[inline]
    pub(crate) fn mutant_enabled(&self, _bit: u8) -> bool {
        false
    }

    // ------------------------------------------------------------------
    // Internals.
    // ------------------------------------------------------------------

    /// Gives up the baton of the calling threaded process, whose pending
    /// future has just queued it (blocked or yielded): runs the dispatch
    /// loop on this thread and parks until dispatched again.
    fn park_current(&self) {
        let form = PARKED_IN.get();
        assert!(
            !NO_PARK.get(),
            "a blocking engine primitive ({form}) would park a host thread that must not \
             park: a task awaits it instead of calling Sim::block_on, and a lite process \
             returns Step::Block from poll()"
        );
        let tid = current_tid();
        let mut st = self.lock_state();
        let proc = st.proc(tid).expect("current proc missing");
        assert!(
            proc.status != Status::Running,
            "process {} {PENDING_WITHOUT_BLOCKING}",
            proc.name
        );
        let Body::Thread(parker) = &proc.body else {
            unreachable!("only threaded processes park")
        };
        let parker = parker.clone();
        st.current = None;
        if self.dispatch(st, Some(tid)) {
            return;
        }
        match parker.park() {
            Wake::Run(woke) => WOKE.set(woke),
            Wake::Kill => panic::panic_any(SimKilled),
        }
    }

    /// The dispatch loop, run by whichever thread holds the baton: picks
    /// the next runnable process, polls a picked task inline, and repeats
    /// until a threaded process holds the baton or the run is finished.
    /// `me` is the calling threaded process when it is giving up the
    /// baton; returns whether the loop handed the baton back to it.
    fn dispatch<'a>(&'a self, mut st: parking_lot::MutexGuard<'a, State>, me: Option<Tid>) -> bool {
        let host = CURRENT.get();
        let mine = loop {
            let Some((tid, woke)) = self.pick_locked(&mut st) else {
                break false;
            };
            match &mut st.proc_mut(tid).expect("picked proc missing").body {
                Body::Thread(_) if me == Some(tid) => {
                    WOKE.set(woke);
                    break true;
                }
                Body::Thread(parker) => {
                    self.inner.tracer.count(Counter::HostHandoffs, 1);
                    parker.unpark(Wake::Run(woke));
                    break false;
                }
                Body::Task(slot) => {
                    let fut = slot
                        .take()
                        .expect("a dispatched task is already being polled");
                    drop(st);
                    st = self.poll_task(tid, woke, fut);
                }
            }
        };
        CURRENT.set(host);
        mine
    }

    /// Polls task `tid` for one timeslice on the calling thread and files
    /// the outcome; `woke` is how its last block ended. The thread is
    /// borrowed: `CURRENT` names the task and `NO_PARK` is raised, and a
    /// panic is caught here — it fails the run but never unwinds the
    /// host thread. `CURRENT` still names the task on return, so the
    /// rest of the dispatch runs on its behalf, as it does for a threaded
    /// process that blocks.
    fn poll_task(
        &self,
        tid: Tid,
        woke: Woke,
        mut fut: TaskFuture,
    ) -> parking_lot::MutexGuard<'_, State> {
        CURRENT.set(Some(tid));
        WOKE.set(woke);
        let outer = NO_PARK.replace(true);
        let polled = panic::catch_unwind(AssertUnwindSafe(|| {
            fut.as_mut().poll(&mut Context::from_waker(Waker::noop()))
        }));
        NO_PARK.set(outer);
        // Settles the charges the task batched since its last engine call
        // while `current` still names it.
        let mut st = self.lock_state();
        let proc = st.proc(tid).expect("polled task missing");
        let done = match polled {
            Ok(Poll::Pending) if proc.status == Status::Running => {
                let msg = format!("task {} {PENDING_WITHOUT_BLOCKING}", proc.name);
                self.fail_locked(&mut st, msg);
                true
            }
            Ok(Poll::Pending) => false,
            Ok(Poll::Ready(())) => {
                self.exit_locked(&mut st, tid);
                true
            }
            // `Sim::stop` already ended the run.
            Err(payload) if payload.is::<SimKilled>() => true,
            Err(payload) => {
                self.fail_locked(&mut st, panic_message(&*payload));
                true
            }
        };
        st.current = None;
        if done || st.finished {
            // Never put a future back once the run is over: shutdown may
            // already have collected the live ones.
            drop(st);
            drop_task(tid, fut);
            return self.lock_state();
        }
        if let Body::Task(slot) = &mut st.proc_mut(tid).expect("polled task missing").body {
            *slot = Some(fut);
        }
        st
    }

    /// Picks the next runnable process and makes it current, advancing
    /// the clock through the timer queue while the system is idle.
    /// Returns the process and how its last block ended, or `None` once
    /// the run is finished: every process exited, or a deadlock was
    /// diagnosed.
    fn pick_locked(&self, st: &mut State) -> Option<(Tid, Woke)> {
        loop {
            if st.finished {
                return None;
            }
            let pick = {
                let State {
                    policy,
                    rng,
                    live,
                    now,
                    ..
                } = st;
                let mut env = DispatchEnv {
                    nlive: *live,
                    now: *now,
                    rng,
                };
                policy.pick(&mut env)
            };
            if let Some(Pick { tid, cost }) = pick {
                st.dispatches += 1;
                self.set_now(st, st.now + cost);
                self.inner.tracer.count(Counter::Dispatches, 1);
                if self.inner.tracer.is_enabled() {
                    self.inner.tracer.record(Event {
                        t: st.now.0,
                        pid: tid.0,
                        kind: EventKind::Dispatch { cy: cost.0 },
                    });
                }
                let proc = st.proc_mut(tid).expect("picked proc missing");
                debug_assert_eq!(proc.status, Status::Runnable, "picked a non-runnable proc");
                proc.status = Status::Running;
                let woke = std::mem::take(&mut proc.woke);
                st.current = Some(tid);
                self.race_protected(st, Loc::RunQueue, AccessKind::Write, "dispatch.pick");
                if let Some(d) = st.race.as_deref_mut() {
                    d.slice_begin(tid.0);
                }
                return Some((tid, woke));
            }
            if let Some(Reverse((at, seq, action))) = st.timers.pop() {
                if at > st.now {
                    // The system is idle until the next timer: jump the
                    // clock and let the tracer attribute the gap to the
                    // best open wait span (disk phase, ack delay, ...).
                    let idle = at.0 - st.now.0;
                    self.set_now(st, at);
                    if self.inner.tracer.is_enabled() {
                        self.inner.tracer.record(Event {
                            t: st.now.0,
                            pid: 0,
                            kind: EventKind::Idle { cy: idle },
                        });
                    }
                }
                if let Some((seq2, action2)) = self.mutant_steal_tie(st, at) {
                    self.fire_locked(st, seq2, action2);
                }
                self.fire_locked(st, seq, action);
                continue;
            }
            st.finished = true;
            if st.live > 0 {
                // Listed in tid order, so the diagnostic is stable
                // across runs.
                let blocked: Vec<String> = st
                    .procs()
                    .filter_map(|(tid, p)| match p.status {
                        Status::Blocked(r) => Some(format!(
                            "{} ({r}){}{}",
                            p.name,
                            lite_wait_hint(p),
                            lost_wakeup_hint(st, tid)
                        )),
                        _ => None,
                    })
                    .collect();
                st.error = Some(SimError::Deadlock(format!(
                    "{} live processes, none runnable: [{}]",
                    st.live,
                    blocked.join(", ")
                )));
            }
            self.inner.done.notify_all();
            return None;
        }
    }

    /// Planted bug (`MUTANT_TIMER_TIE_REORDER`): when the next timer on
    /// the heap is due at the same instant as the one just popped, steal
    /// it so it fires first — inverting the `(at, seq)` FIFO tie-break
    /// that makes equal-instant timers deterministic.
    fn mutant_steal_tie(&self, st: &mut State, at: Cycles) -> Option<(u64, TimerAction)> {
        if !mutant_on(st, MUTANT_TIMER_TIE_REORDER) {
            return None;
        }
        if matches!(st.timers.peek(), Some(Reverse((at2, _, _))) if *at2 == at) {
            let Reverse((_, seq, action)) = st.timers.pop().expect("peeked timer vanished");
            return Some((seq, action));
        }
        None
    }

    fn fire_locked(&self, st: &mut State, seq: u64, action: TimerAction) {
        self.race_protected(st, Loc::TimerHeap, AccessKind::Write, "timer.pop");
        match action {
            TimerAction::Proc(tid) => {
                if let Some(proc) = st.proc_mut(tid) {
                    if matches!(proc.status, Status::Blocked(_)) {
                        proc.status = Status::Runnable;
                        let tag = proc.tag;
                        st.policy.enqueue(tid, tag);
                        if let Some(d) = st.race.as_deref_mut() {
                            d.wake_edge(WakeSrc::Timer(seq), tid.0);
                        }
                        self.race_protected(st, Loc::RunQueue, AccessKind::Write, "timer.wake");
                    }
                }
            }
            TimerAction::ProcGen(tid, gen, q) => {
                let stale = match st.proc(tid) {
                    Some(p) => p.block_gen != gen || !matches!(p.status, Status::Blocked(_)),
                    None => true,
                };
                if !stale {
                    if let Some(queue) = st.queue_mut(q) {
                        queue.waiters.retain(|w| *w != Waiter::Proc(tid));
                    }
                    let proc = st.proc_mut(tid).expect("checked above");
                    proc.status = Status::Runnable;
                    proc.woke.timed_out = true;
                    let tag = proc.tag;
                    st.policy.enqueue(tid, tag);
                    if let Some(d) = st.race.as_deref_mut() {
                        d.wake_edge(WakeSrc::Timer(seq), tid.0);
                    }
                    self.race_protected(
                        st,
                        Loc::WaitQueue(q),
                        AccessKind::Write,
                        "timeout.dequeue",
                    );
                    self.race_protected(st, Loc::RunQueue, AccessKind::Write, "timeout.wake");
                }
            }
            TimerAction::QueueOne(q) => {
                if !self.wake_from_queue_locked(st, q, WakeCause::Timer(seq)) {
                    note_empty_signal(st, q);
                }
            }
        }
    }

    fn wake_from_queue_locked(&self, st: &mut State, q: u64, cause: WakeCause) -> bool {
        loop {
            let Some(waiter) = st.queue_mut(q).and_then(|queue| queue.waiters.pop_front()) else {
                return false;
            };
            self.race_protected(st, Loc::WaitQueue(q), AccessKind::Write, "wake.dequeue");
            match waiter {
                Waiter::Proc(tid) => {
                    let proc = st.proc_mut(tid).expect("queued proc missing");
                    // Skip stale entries: a proc that waited on several
                    // queues (`wait_on_any`) was already woken through
                    // another of them.
                    if !matches!(proc.status, Status::Blocked(_)) {
                        continue;
                    }
                    proc.status = Status::Runnable;
                    proc.woke.by = Some(q);
                    let tag = proc.tag;
                    st.policy.enqueue(tid, tag);
                    if let Some(d) = st.race.as_deref_mut() {
                        d.wake_edge(cause.src(), tid.0);
                    }
                    self.race_protected(st, Loc::RunQueue, AccessKind::Write, "wake.enqueue");
                    break;
                }
                Waiter::Lite { sched, token } => {
                    // Deliver the token to the scheduler's mailbox. A
                    // scheduler that unregistered, or a token no longer
                    // armed (cancelled, or left by an earlier wait), is
                    // stale — keep popping.
                    let Some(ls) = st.lite_mut(sched) else {
                        continue;
                    };
                    if !ls.disarm(token) {
                        continue;
                    }
                    ls.mailbox.push(token);
                    let doorbell = ls.doorbell;
                    // The waker's clock reaches the *scheduler*: lite
                    // procs run sequentially inside its engine slot, so
                    // the scheduler's task is the unit of ordering.
                    if let Some(d) = st.race.as_deref_mut() {
                        d.wake_edge(cause.src(), sched.0);
                    }
                    // Ring the scheduler's doorbell so the scheduler
                    // (if waiting) becomes runnable. The doorbell queue
                    // only ever holds Proc waiters, so this recursion
                    // is depth-1. Planted bug (`MUTANT_DROP_DOORBELL`):
                    // deliver the token but skip the ring — the mailbox
                    // fills while the scheduler sleeps forever.
                    if !mutant_on(st, MUTANT_DROP_DOORBELL) {
                        self.wake_from_queue_locked(st, doorbell, cause);
                    }
                    break;
                }
            }
        }
        // A delivered signal supersedes any earlier into-the-void signal
        // on this queue.
        if let Some(queue) = st.queue_mut(q) {
            queue.empty_signal = None;
        }
        true
    }

    /// A threaded process returned: retire it and pass the baton on.
    fn on_exit(&self, tid: Tid) {
        let mut st = self.lock_state();
        self.exit_locked(&mut st, tid);
        self.dispatch(st, None);
    }

    fn exit_locked(&self, st: &mut State, tid: Tid) {
        let proc = st.proc_mut(tid).expect("exiting proc missing");
        proc.status = Status::Exited;
        st.live -= 1;
        st.current = None;
        st.policy.forget(tid);
    }

    /// A threaded process panicked: fail the run.
    fn on_panic(&self, msg: String) {
        let mut st = self.lock_state();
        self.fail_locked(&mut st, msg);
    }

    fn fail_locked(&self, st: &mut State, msg: String) {
        if st.error.is_none() {
            st.error = Some(SimError::ProcPanic(msg));
        }
        st.finished = true;
        self.inner.done.notify_all();
    }

    /// Destroys any remaining processes and joins all threads.
    fn shutdown(&self) {
        let live_tasks: Vec<(Tid, TaskFuture)> = {
            let mut st = self.lock_state();
            let mut live_tasks = Vec::new();
            for (i, proc) in st.procs.iter_mut().enumerate() {
                let Some(proc) = proc else { continue };
                match &mut proc.body {
                    Body::Thread(parker) if proc.status != Status::Exited => {
                        parker.unpark(Wake::Kill);
                    }
                    Body::Thread(_) => {}
                    Body::Task(slot) => {
                        live_tasks.extend(slot.take().map(|fut| (Tid(i as u32), fut)));
                    }
                }
            }
            live_tasks
        };
        // A live future owns a `Sim` clone: one never dropped would keep
        // the whole simulation alive through that cycle.
        for (tid, fut) in live_tasks {
            drop_task(tid, fut);
        }
        CURRENT.set(None);
        // Settles any charge a destructor batched.
        drop(self.lock_state());
        let threads = std::mem::take(&mut *self.inner.threads.lock());
        for handle in threads {
            let _ = handle.join();
        }
    }
}

/// Drops a task's future the way it was polled: outside the state lock,
/// as its own process, on a thread that must not park. A destructor that
/// panics is ignored — the run is already over.
fn drop_task(tid: Tid, fut: TaskFuture) {
    CURRENT.set(Some(tid));
    let outer = NO_PARK.replace(true);
    let _ = panic::catch_unwind(AssertUnwindSafe(move || drop(fut)));
    NO_PARK.set(outer);
}

/// For a blocked lite scheduler, summarises what its lite processes are
/// waiting for — a deadlock involving lite procs would otherwise show
/// only an opaque scheduler parked on its doorbell.
fn lite_wait_hint(proc: &Proc) -> String {
    let Some(ls) = &proc.lite else {
        return String::new();
    };
    let mut by_reason: BTreeMap<&'static str, usize> = BTreeMap::new();
    for (_, reason) in ls.waiting.iter().flatten().flatten() {
        *by_reason.entry(reason).or_insert(0) += 1;
    }
    if by_reason.is_empty() {
        return String::new();
    }
    let parts: Vec<String> = by_reason.iter().map(|(r, n)| format!("{r} x{n}")).collect();
    format!(
        " [{} lite proc(s) waiting: {}]",
        by_reason.values().sum::<usize>(),
        parts.join(", ")
    )
}

/// Builds the lost-wakeup diagnosis for a blocked process: names every
/// queue it waits on whose most recent signal found zero waiters — the
/// classic signal-before-wait race, surfaced at deadlock time.
fn lost_wakeup_hint(st: &State, tid: Tid) -> String {
    let mut hints = Vec::new();
    for (q, queue) in st.queues.iter().enumerate() {
        if queue.waiters.iter().any(|w| *w == Waiter::Proc(tid)) {
            if let Some(at) = queue.empty_signal {
                hints.push(format!(
                    " [possible lost wakeup: queue {q} was last signalled at t={} with no \
                     waiters]",
                    at.0
                ));
            }
        }
    }
    hints.concat()
}

/// Records that a signal on queue `q` found no waiter (the lost-wakeup
/// diagnosis).
fn note_empty_signal(st: &mut State, q: u64) {
    let now = st.now;
    if let Some(queue) = st.queue_mut(q) {
        queue.empty_signal = Some(now);
    }
}

fn current_tid() -> Tid {
    CURRENT
        .with(|c| c.get())
        .expect("this operation must be called from a simulated process")
}

/// The detector's task id for the calling thread: the engine tid, or 0
/// for the host. Lite processes attribute to their scheduler's slot —
/// they are sequential within it, so the attribution is exact.
fn race_task() -> u32 {
    CURRENT.get().map_or(0, |t| t.0)
}

/// Why a waiter is being woken: a direct signal from the running
/// context, or a timer identified by its arming sequence number. The
/// detector turns this into the happens-before edge source — the waker's
/// clock for signals, the *armer's* clock for timers (the task driving
/// the simulated clock forward did not order the wakeup).
#[derive(Clone, Copy)]
enum WakeCause {
    Signal,
    Timer(u64),
}

impl WakeCause {
    fn src(self) -> WakeSrc {
        match self {
            WakeCause::Signal => WakeSrc::Task(race_task()),
            WakeCause::Timer(seq) => WakeSrc::Timer(seq),
        }
    }
}

/// The stack-of-record for an access by the calling thread: task, the
/// trace pid (a polled lite process overrides its scheduler's tid), the
/// dispatch index, and the code site.
fn race_info(st: &State, site: &'static str) -> AccessInfo {
    AccessInfo {
        task: race_task(),
        pid: LITE_PID
            .with(|c| c.get())
            .or_else(|| CURRENT.get().map(|t| t.0))
            .unwrap_or(0),
        dispatch: st.dispatches,
        site,
    }
}

/// RAII guard for an open attribution span; see [`Sim::span`]. Dropping
/// records the matching exit event (when tracing was enabled at entry).
pub struct TraceSpan<'a> {
    sim: &'a Sim,
    class: Class,
    armed: bool,
}

impl Drop for TraceSpan<'_> {
    #[inline]
    fn drop(&mut self) {
        if self.armed {
            let (t, pid) = self.sim.stamp();
            self.sim.inner.tracer.record(Event {
                t,
                pid,
                kind: EventKind::Exit(self.class),
            });
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::FifoPolicy;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn fifo_sim(seed: u64) -> Sim {
        Sim::new(
            Box::new(FifoPolicy::new()),
            SimConfig {
                seed,
                ..SimConfig::default()
            },
        )
    }

    #[test]
    fn empty_simulation_finishes_at_zero() {
        let sim = fifo_sim(0);
        assert_eq!(sim.run().unwrap(), Cycles::ZERO);
    }

    #[test]
    fn single_process_advances_clock() {
        let sim = fifo_sim(0);
        sim.spawn_task("worker", |s| async move {
            s.advance(Cycles(100));
            s.advance(Cycles(23));
        });
        assert_eq!(sim.run().unwrap(), Cycles(123));
    }

    #[test]
    fn sleep_jumps_idle_clock() {
        let sim = fifo_sim(0);
        sim.spawn_task("sleeper", |s| async move {
            s.sleep(Cycles::from_millis(14.0)).await;
            s.advance(Cycles(5));
        });
        assert_eq!(sim.run().unwrap(), Cycles(1_400_005));
    }

    #[test]
    fn batched_charges_conserve_cycles_exactly() {
        // Property: any interleaving of batched charges (`charge_scaled`),
        // immediate advances, and flush-forcing engine calls (`yield_now`,
        // process exit) conserves cycles bit-for-bit — the final clock is
        // the exact sum of every scaled amount the procs were told they
        // charged. Jitter is on so per-charge scaling/rounding is
        // exercised, not just the factor-1.0 fast path.
        for seed in [1u64, 7, 1996] {
            let sim = Sim::new(
                Box::new(FifoPolicy::new()),
                SimConfig {
                    seed,
                    jitter: 0.08,
                    ..SimConfig::default()
                },
            );
            let total = Arc::new(AtomicU64::new(0));
            for tag in 0..3u64 {
                let total = total.clone();
                sim.spawn_task(format!("p{tag}"), move |s| async move {
                    let mut lcg = seed ^ (tag.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                    let mut local = 0u64;
                    for _ in 0..200 {
                        lcg = lcg
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let amount = Cycles(lcg >> 56); // 0..=255
                        match (lcg >> 32) % 4 {
                            0 | 1 => local += s.charge_scaled(amount).0,
                            2 => {
                                s.advance(amount); // immediate, unscaled
                                local += amount.0;
                            }
                            _ => {
                                local += s.charge_scaled(amount).0;
                                s.yield_now().await; // flush at the handoff
                            }
                        }
                    }
                    total.fetch_add(local, Ordering::Relaxed);
                });
            }
            let elapsed = sim.run().unwrap();
            assert_eq!(elapsed.0, total.load(Ordering::Relaxed), "seed {seed}");
        }
    }

    #[test]
    fn same_cycle_timers_fire_in_arm_order() {
        // Permanent regression test for the `(at, seq)` FIFO tie-break:
        // timers armed for the same deadline must fire in arm order, no
        // matter how the timer set is implemented.
        // The x-timer-tie mutant exists to break exactly this.
        let sim = fifo_sim(0);
        let order = Arc::new(Mutex::new(Vec::new()));
        for name in ["first", "second", "third", "fourth"] {
            let order = order.clone();
            // Spawn order is arm order: each proc arms its wakeup for the
            // identical instant as soon as it first runs.
            sim.spawn_task(name, move |s| async move {
                s.sleep_until(Cycles(10_000)).await;
                order.lock().push(name);
            });
        }
        let _ = sim.run().unwrap();
        assert_eq!(*order.lock(), vec!["first", "second", "third", "fourth"]);
    }

    #[test]
    fn two_processes_serialize_cpu() {
        let sim = fifo_sim(0);
        for name in ["a", "b"] {
            sim.spawn_task(name, |s| async move {
                for _ in 0..10 {
                    s.advance(Cycles(10));
                    s.yield_now().await;
                }
            });
        }
        // CPU time serialises: 2 procs x 10 iterations x 10 cycles.
        assert_eq!(sim.run().unwrap(), Cycles(200));
    }

    #[test]
    fn sleeping_overlaps_with_computing() {
        // One proc sleeps (device wait) while the other computes; the total
        // is max, not sum.
        let sim = fifo_sim(0);
        sim.spawn_task("sleeper", |s| async move { s.sleep(Cycles(1_000)).await });
        sim.spawn_task("cruncher", |s| async move { s.advance(Cycles(400)) });
        assert_eq!(sim.run().unwrap(), Cycles(1_000));
    }

    #[test]
    fn wait_and_wakeup_round_trip() {
        let sim = fifo_sim(0);
        let q = sim.new_queue();
        let order = Arc::new(Mutex::new(Vec::new()));
        let o1 = order.clone();
        sim.spawn_task("waiter", move |s| async move {
            o1.lock().push("waiting");
            s.wait_on(q, "test").await;
            o1.lock().push("woken");
        });
        let o2 = order.clone();
        sim.spawn_task("waker", move |s| async move {
            s.advance(Cycles(50));
            o2.lock().push("waking");
            assert!(s.wakeup_one(q));
        });
        let _ = sim.run().unwrap();
        assert_eq!(*order.lock(), vec!["waiting", "waking", "woken"]);
    }

    #[test]
    fn wakeup_one_is_fifo() {
        let sim = fifo_sim(0);
        let q = sim.new_queue();
        let order = Arc::new(Mutex::new(Vec::new()));
        for i in 0..3 {
            let o = order.clone();
            sim.spawn_task(format!("w{i}"), move |s| async move {
                s.wait_on(q, "fifo").await;
                o.lock().push(i);
            });
        }
        sim.spawn_task("waker", move |s| async move {
            for _ in 0..3 {
                s.wakeup_one(q);
                s.yield_now().await;
            }
        });
        let _ = sim.run().unwrap();
        assert_eq!(*order.lock(), vec![0, 1, 2]);
    }

    #[test]
    fn deadlock_is_detected() {
        let sim = fifo_sim(0);
        let q = sim.new_queue();
        sim.spawn_task("stuck", move |s| async move {
            s.wait_on(q, "never-woken").await
        });
        let err = sim.run().unwrap_err();
        match err {
            SimError::Deadlock(msg) => {
                assert!(msg.contains("stuck") && msg.contains("never-woken"))
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn proc_panic_is_reported() {
        let sim = fifo_sim(0);
        sim.spawn("bad", |_| panic!("boom: {}", 42));
        match sim.run().unwrap_err() {
            SimError::ProcPanic(msg) => assert!(msg.contains("boom: 42")),
            other => panic!("expected panic error, got {other:?}"),
        }
    }

    #[test]
    fn stop_kills_remaining_processes() {
        let sim = fifo_sim(0);
        let q = sim.new_queue();
        sim.spawn("forever", move |s| s.block_on(s.wait_on(q, "held")));
        sim.spawn("main", |s| {
            s.advance(Cycles(10));
            s.stop();
        });
        assert_eq!(sim.run().unwrap(), Cycles(10));
    }

    #[test]
    fn timers_fire_during_advance() {
        let sim = fifo_sim(0);
        let q = sim.new_queue();
        let hits = Arc::new(AtomicU64::new(0));
        let h = hits.clone();
        sim.spawn_task("waiter", move |s| async move {
            s.wait_on(q, "timer").await;
            h.store(s.now().0, Ordering::SeqCst);
        });
        sim.spawn_task("busy", move |s| async move {
            s.wakeup_one_at(q, Cycles(100));
            s.advance(Cycles(500)); // The timer fires inside this charge.
        });
        let _ = sim.run().unwrap();
        // The waiter was made runnable at t=100 and ran after busy's charge.
        assert_eq!(hits.load(Ordering::SeqCst), 500);
    }

    #[test]
    fn past_deadline_timers_fire_at_the_next_pop_in_arm_order() {
        let sim = fifo_sim(0);
        let qs: Vec<WaitId> = (0..4).map(|_| sim.new_queue()).collect();
        let woken = Arc::new(Mutex::new(Vec::new()));
        for (name, q) in ["a", "b", "c", "d"].into_iter().zip(qs.clone()) {
            let woken = woken.clone();
            sim.spawn_task(name, move |s| async move {
                s.wait_on(q, "past timer").await;
                woken.lock().push((name, s.now().0));
            });
        }
        sim.spawn_task("armer", move |s| async move {
            s.sleep(Cycles(1_000)).await;
            // Equal deadlines before `now`, each pair armed in reverse
            // spawn order, so arm order must decide. The first pair comes
            // due in a charge, the second in the idle dispatch loop.
            s.wakeup_one_at(qs[1], Cycles(400));
            s.wakeup_one_at(qs[0], Cycles(400));
            s.advance(Cycles(1));
            assert_eq!(
                s.waiters(qs[0]) + s.waiters(qs[1]),
                0,
                "both fired in one pop"
            );
            s.wakeup_one_at(qs[3], Cycles(500));
            s.wakeup_one_at(qs[2], Cycles(500));
        });
        // The clock never moves back: every waiter wakes at 1,001.
        assert_eq!(sim.run().unwrap(), Cycles(1_001));
        let order = [("b", 1_001), ("a", 1_001), ("d", 1_001), ("c", 1_001)];
        assert_eq!(*woken.lock(), order);
    }

    #[test]
    fn determinism_same_seed_same_clock() {
        let run = |seed| {
            let sim = Sim::new(
                Box::new(FifoPolicy::new()),
                SimConfig {
                    seed,
                    jitter: 0.02,
                    ..SimConfig::default()
                },
            );
            for i in 0..4 {
                sim.spawn_task(format!("p{i}"), |s| async move {
                    for _ in 0..100 {
                        s.charge(Cycles(37));
                        s.yield_now().await;
                    }
                });
            }
            sim.run().unwrap()
        };
        // Seeds chosen to land in different jitter quantization buckets of
        // the vendored RNG (37cy charges only round to 36/37/38).
        let a = run(7);
        let b = run(7);
        let c = run(9);
        assert_eq!(a, b, "same seed must give identical simulated time");
        assert_ne!(a, c, "different seed should perturb jittered charges");
    }

    #[test]
    fn jitter_zero_is_exact() {
        let sim = fifo_sim(3);
        sim.spawn_task("p", |s| async move { s.charge(Cycles(1_000)) });
        assert_eq!(sim.run().unwrap(), Cycles(1_000));
    }

    #[test]
    fn spawn_from_inside_process() {
        let sim = fifo_sim(0);
        sim.spawn_task("parent", |s| async move {
            let before = s.now();
            s.spawn_task("child", |s2| async move { s2.advance(Cycles(77)) });
            s.advance(Cycles(3));
            assert_eq!(s.now(), before + Cycles(3));
        });
        assert_eq!(sim.run().unwrap(), Cycles(80));
    }

    #[test]
    fn per_process_cpu_accounting() {
        let sim = fifo_sim(0);
        let busy = sim.spawn_task("busy", |s| async move {
            s.advance(Cycles(700));
            s.sleep(Cycles(10_000)).await; // Waiting is not CPU.
        });
        let lazy = sim.spawn_task("lazy", |s| async move { s.advance(Cycles(42)) });
        let _ = sim.run().unwrap();
        assert_eq!(sim.proc_cpu(busy), Cycles(700));
        assert_eq!(sim.proc_cpu(lazy), Cycles(42));
        assert_eq!(sim.proc_cpu(crate::Tid(999)), Cycles::ZERO);
    }

    #[test]
    fn wait_on_timeout_times_out() {
        let sim = fifo_sim(0);
        let q = sim.new_queue();
        sim.spawn_task("timed", move |s| async move {
            let t0 = s.now();
            let woken = s.wait_on_timeout(q, Cycles(5_000), "timed wait").await;
            assert!(!woken, "nobody woke us");
            assert_eq!(
                s.now() - t0,
                Cycles(5_000),
                "resumed exactly at the deadline"
            );
            assert_eq!(s.waiters(q), 0, "timeout removed us from the queue");
        });
        let _ = sim.run().unwrap();
    }

    #[test]
    fn wait_on_timeout_real_wakeup_wins() {
        let sim = fifo_sim(0);
        let q = sim.new_queue();
        sim.spawn_task("timed", move |s| async move {
            let woken = s.wait_on_timeout(q, Cycles(1_000_000), "timed wait").await;
            assert!(woken, "the waker got there first");
            assert!(s.now() < Cycles(1_000_000));
        });
        sim.spawn_task("waker", move |s| async move {
            s.advance(Cycles(100));
            s.wakeup_one(q);
        });
        let _ = sim.run().unwrap();
    }

    #[test]
    fn stale_timeout_never_wakes_a_later_block() {
        // A proc times out, then blocks again past the old deadline; the
        // expired timer for the first block must not disturb the second.
        let sim = fifo_sim(0);
        let q = sim.new_queue();
        let q2 = sim.new_queue();
        sim.spawn_task("timed", move |s| async move {
            assert!(!s.wait_on_timeout(q, Cycles(100), "first").await);
            // Second, longer timed wait on another queue.
            let woken = s.wait_on_timeout(q2, Cycles(10_000), "second").await;
            assert!(!woken);
            assert_eq!(s.now(), Cycles(10_100), "full second timeout elapsed");
        });
        let _ = sim.run().unwrap();
    }

    #[test]
    fn wait_on_any_reports_the_waking_queue() {
        let sim = fifo_sim(0);
        let a = sim.new_queue();
        let b = sim.new_queue();
        sim.spawn_task("selector", move |s| async move {
            let which = s.wait_on_any(&[a, b], None, "select").await;
            assert_eq!(which, Some(1), "queue b fired");
            assert_eq!(s.waiters(a), 0, "stale entry cleaned up");
        });
        sim.spawn_task("waker", move |s| async move {
            s.advance(Cycles(10));
            s.wakeup_one(b);
        });
        let _ = sim.run().unwrap();
    }

    #[test]
    fn wait_on_any_times_out() {
        let sim = fifo_sim(0);
        let a = sim.new_queue();
        let b = sim.new_queue();
        sim.spawn_task("selector", move |s| async move {
            let which = s.wait_on_any(&[a, b], Some(Cycles(2_000)), "select").await;
            assert_eq!(which, None);
            assert_eq!(s.now(), Cycles(2_000));
            assert_eq!(s.waiters(a) + s.waiters(b), 0);
        });
        let _ = sim.run().unwrap();
    }

    #[test]
    fn stale_select_entries_do_not_steal_wakeups() {
        // A selector woken via queue B leaves a stale entry on A; a later
        // wakeup_one(A) must reach the genuine waiter behind it.
        let sim = fifo_sim(0);
        let a = sim.new_queue();
        let b = sim.new_queue();
        let reached = Arc::new(AtomicU64::new(0));
        let r2 = reached.clone();
        sim.spawn_task("selector", move |s| async move {
            assert_eq!(s.wait_on_any(&[a, b], None, "select").await, Some(1));
            // Keep running long enough that the stale entry on A is
            // still there when the waiter blocks.
            s.advance(Cycles(50));
        });
        sim.spawn_task("waiter", move |s| async move {
            s.wait_on(a, "genuine").await;
            r2.store(1, Ordering::SeqCst);
        });
        sim.spawn_task("waker", move |s| async move {
            s.advance(Cycles(10));
            s.wakeup_one(b); // Wake the selector.
            s.advance(Cycles(10));
            s.wakeup_one(a); // Must reach the genuine waiter.
        });
        let _ = sim.run().unwrap();
        assert_eq!(reached.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn wakeup_all_wakes_everyone() {
        let sim = fifo_sim(0);
        let q = sim.new_queue();
        let count = Arc::new(AtomicU64::new(0));
        for i in 0..5 {
            let c = count.clone();
            sim.spawn_task(format!("w{i}"), move |s| async move {
                s.wait_on(q, "broadcast").await;
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        sim.spawn_task("waker", move |s| async move {
            s.yield_now().await; // Let the waiters enqueue first (FIFO policy).
            assert_eq!(s.wakeup_all(q), 5);
        });
        let _ = sim.run().unwrap();
        assert_eq!(count.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn tasks_run_every_primitive_on_the_run_thread() {
        let sim = fifo_sim(0);
        let q = sim.new_queue();
        let host = std::thread::current().id();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let log = seen.clone();
        sim.spawn_task("waiter", move |s| async move {
            s.wait_on(q, "first").await;
            let woken = s.wait_on_timeout(q, Cycles(50), "second").await;
            let which = s.wait_on_any(&[q], Some(Cycles(70)), "third").await;
            log.lock()
                .push((s.now(), woken, which, std::thread::current().id()));
        });
        sim.spawn_task("waker", move |s| async move {
            s.charge(Cycles(10));
            s.yield_now().await;
            assert!(s.wakeup_one(q));
            s.sleep(Cycles(5)).await;
        });
        // waiter blocks at 0, is woken at 10, times out at 60, then at 130.
        assert_eq!(sim.run().unwrap(), Cycles(130));
        assert_eq!(*seen.lock(), vec![(Cycles(130), false, None, host)]);
    }

    #[test]
    fn a_task_panic_is_a_proc_panic_that_never_unwinds_its_host() {
        // Run directly by `Sim::run`.
        let sim = fifo_sim(0);
        sim.spawn_task("bad", |_| async { panic!("task boom: {}", 7) });
        match sim.run() {
            Err(SimError::ProcPanic(msg)) => assert!(msg.contains("task boom: 7"), "{msg}"),
            other => panic!("expected a panic error, got {other:?}"),
        }
        // Hosted by a threaded process that gave up the baton: the
        // panic must not unwind that process's stack.
        let sim = fifo_sim(0);
        let escaped = Arc::new(Mutex::new(None));
        let out = escaped.clone();
        sim.spawn("host", move |s| {
            let unwound = panic::catch_unwind(AssertUnwindSafe(|| s.block_on(s.yield_now())));
            let payload = unwound.expect_err("the run ends while the host is parked");
            *out.lock() = Some(panic_message(&*payload));
            panic::resume_unwind(payload);
        });
        sim.spawn_task("bad", |_| async { panic!("hosted boom") });
        match sim.run() {
            Err(SimError::ProcPanic(msg)) => assert!(msg.contains("hosted boom"), "{msg}"),
            other => panic!("expected a panic error, got {other:?}"),
        }
        let seen = escaped
            .lock()
            .clone()
            .expect("the host was destroyed at shutdown");
        assert!(
            !seen.contains("hosted boom"),
            "task panic unwound its host: {seen}"
        );
    }

    #[test]
    fn stop_from_a_task_ends_the_run_at_its_clock() {
        let sim = fifo_sim(0);
        let q = sim.new_queue();
        sim.spawn_task(
            "forever",
            move |s| async move { s.wait_on(q, "held").await },
        );
        sim.spawn("threaded forever", move |s| {
            s.block_on(s.wait_on(q, "held too"))
        });
        sim.spawn_task("main", |s| async move {
            s.advance(Cycles(10));
            s.yield_now().await;
            s.advance(Cycles(5));
            s.stop();
        });
        assert_eq!(sim.run().unwrap(), Cycles(15));
    }

    #[test]
    fn deadlock_lists_a_blocked_task_and_its_reason() {
        let sim = fifo_sim(0);
        let q = sim.new_queue();
        sim.spawn_task("stuck task", move |s| async move {
            s.wait_on(q, "never signalled").await
        });
        match sim.run().unwrap_err() {
            SimError::Deadlock(msg) => {
                assert!(msg.contains("stuck task (never signalled)"), "{msg}")
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn deadlock_lists_blocked_processes_in_tid_order_across_a_lite_crowd() {
        // Lite pids share the tid namespace but own no process: the
        // crowd's 1,000 pids sit between the first task and the
        // scheduler, and the diagnostic still lists the processes in
        // tid order, the scheduler with its crowd summary.
        use crate::lite::{block_on, LiteScheduler, ProcCtx};
        let sim = fifo_sim(0);
        let q = sim.new_queue();
        let first = sim.spawn_task("first", move |s| async move {
            s.wait_on(q, "before the crowd").await
        });
        let mut sched = LiteScheduler::new(&sim);
        for i in 0..1_000 {
            sched.spawn(
                &format!("lite{i}"),
                Box::new(move |_: &mut ProcCtx| block_on(q, "in the crowd")),
            );
        }
        sched.start("crowd");
        let last = sim.spawn_task("last", move |s| async move {
            s.wait_on(q, "after the crowd").await
        });
        assert_eq!((first, last), (Tid(1), Tid(1_003)));
        match sim.run().unwrap_err() {
            SimError::Deadlock(msg) => assert_eq!(
                msg,
                "3 live processes, none runnable: [first (before the crowd), crowd (lite \
                 procs waiting) [1000 lite proc(s) waiting: in the crowd x1000], last (after \
                 the crowd)]"
            ),
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn lost_wakeup_hints_name_queues_in_id_order() {
        // Both queues were signalled while empty, the later queue first;
        // the hints still come out in queue-id order.
        let sim = fifo_sim(0);
        let (qa, qb) = (sim.new_queue(), sim.new_queue());
        sim.spawn_task("signaller", move |s| async move {
            s.advance(Cycles(10));
            s.wakeup_one(qb);
            s.advance(Cycles(10));
            s.wakeup_all(qa);
        });
        sim.spawn_task("selector", move |s| async move {
            s.wait_on_any(&[qb, qa], None, "either queue").await;
        });
        match sim.run().unwrap_err() {
            SimError::Deadlock(msg) => assert_eq!(
                msg,
                "1 live processes, none runnable: [selector (either queue) [possible lost \
                 wakeup: queue 1 was last signalled at t=20 with no waiters] [possible lost \
                 wakeup: queue 2 was last signalled at t=10 with no waiters]]"
            ),
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn a_task_calling_block_on_is_told_to_await_the_primitive() {
        let sim = fifo_sim(0);
        sim.spawn_task("confused", |s| async move { s.block_on(s.yield_now()) });
        match sim.run().unwrap_err() {
            SimError::ProcPanic(msg) => {
                assert!(msg.contains("Sim::yield_now"), "{msg}");
                assert!(msg.contains("a task awaits it"), "{msg}");
            }
            other => panic!("expected a panic error, got {other:?}"),
        }
    }

    #[test]
    fn a_lite_poll_inside_a_task_poll_leaves_the_task_unable_to_park() {
        // A lite scheduler's task polls lite processes inside its own
        // poll: ending a lite poll must not let the task park its host.
        let sim = fifo_sim(0);
        let q = sim.new_queue();
        sim.spawn_task("scheduler", move |s| async move {
            drop(LitePollGuard::new(99));
            s.block_on(s.wait_on(q, "parking after a lite poll"));
        });
        match sim.run().unwrap_err() {
            SimError::ProcPanic(msg) => assert!(msg.contains("Sim::wait_on"), "{msg}"),
            other => panic!("expected a panic error, got {other:?}"),
        }
    }

    #[test]
    fn a_task_pending_outside_the_engine_fails_the_run() {
        /// Pending once, as a foreign future (a host channel, a timer
        /// from another runtime) would be: nothing will ever poll again.
        struct Foreign(bool);
        impl Future for Foreign {
            type Output = ();
            fn poll(mut self: Pin<&mut Self>, _: &mut Context<'_>) -> Poll<()> {
                if std::mem::replace(&mut self.0, true) {
                    Poll::Ready(())
                } else {
                    Poll::Pending
                }
            }
        }
        let sim = fifo_sim(0);
        sim.spawn_task("foreign", |_| Foreign(false));
        match sim.run().unwrap_err() {
            SimError::ProcPanic(msg) => {
                assert!(msg.contains("foreign is pending without blocking"), "{msg}");
                assert!(msg.contains("Sim::wait_on"), "{msg}");
            }
            other => panic!("expected a panic error, got {other:?}"),
        }
    }

    #[test]
    fn a_queue_of_threads_and_tasks_wakes_in_fifo_order() {
        let sim = fifo_sim(0);
        let q = sim.new_queue();
        let order = Arc::new(Mutex::new(Vec::new()));
        for i in 0..4 {
            let o = order.clone();
            if i % 2 == 0 {
                sim.spawn(format!("thread{i}"), move |s| {
                    s.block_on(s.wait_on(q, "mixed"));
                    o.lock().push(i);
                });
            } else {
                sim.spawn_task(format!("task{i}"), move |s| async move {
                    s.wait_on(q, "mixed").await;
                    o.lock().push(i);
                });
            }
        }
        sim.spawn_task("waker", move |s| async move {
            for _ in 0..4 {
                assert!(s.wakeup_one(q));
                s.yield_now().await;
            }
        });
        let _ = sim.run().unwrap();
        assert_eq!(*order.lock(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn live_task_futures_are_dropped_at_shutdown_as_their_task() {
        /// Owns a `Sim` clone, as every live task future does; records
        /// the process it was dropped as.
        struct Witness(Sim, Arc<Mutex<Option<Tid>>>);
        impl Drop for Witness {
            fn drop(&mut self) {
                *self.1.lock() = Some(self.0.current());
            }
        }
        let sim = fifo_sim(0);
        let q = sim.new_queue();
        let dropped_as = Arc::new(Mutex::new(None));
        let slot = dropped_as.clone();
        let tid = sim.spawn_task("blocked", move |s| async move {
            let _witness = Witness(s.clone(), slot);
            s.wait_on(q, "forever").await;
        });
        assert!(matches!(sim.run(), Err(SimError::Deadlock(_))));
        assert_eq!(*dropped_as.lock(), Some(tid));
    }

    #[test]
    fn task_and_threaded_twins_are_byte_identical() {
        /// One ring member: the same body hosted as a task or, through
        /// `Sim::block_on`, on a threaded process.
        async fn member(s: Sim, p: u64, q: WaitId) {
            for r in 0..30u64 {
                s.charge(Cycles(37 + p));
                match r % 4 {
                    0 => s.sleep(Cycles(100 * p)).await,
                    1 => {
                        s.wakeup_one(q);
                        let _ = s.wait_on_timeout(q, Cycles(90), "t").await;
                    }
                    _ => s.yield_now().await,
                }
            }
        }
        fn ring(seed: u64, tasks: bool) -> (Cycles, u64, Vec<Cycles>) {
            let sim = Sim::new(
                Box::new(FifoPolicy::new()),
                SimConfig {
                    seed,
                    jitter: 0.02,
                    ..SimConfig::default()
                },
            );
            let q = sim.new_queue();
            let tids: Vec<Tid> = (0..6u64)
                .map(|p| {
                    let name = format!("p{p}");
                    if tasks {
                        sim.spawn_task(name, move |s| member(s, p, q))
                    } else {
                        sim.spawn(name, move |s| s.block_on(member(s.clone(), p, q)))
                    }
                })
                .collect();
            let end = sim.run().unwrap();
            (
                end,
                sim.dispatch_count(),
                tids.iter().map(|t| sim.proc_cpu(*t)).collect(),
            )
        }
        for seed in [0, 7, 1996] {
            assert_eq!(ring(seed, true), ring(seed, false), "seed {seed}");
        }
    }

    /// Engine-lock acquisitions per iteration of a process body that
    /// `spawn` sets up to loop `n` times: the difference between runs of
    /// 20 and 10 iterations, over 10, so set-up and teardown cancel.
    fn locks_per_iteration(spawn: impl Fn(&Sim, u64)) -> u64 {
        let locks = |n| {
            let sim = fifo_sim(0);
            spawn(&sim, n);
            let _ = sim.run().unwrap();
            sim.inner.locks.load(Ordering::Relaxed)
        };
        let extra = locks(20) - locks(10);
        assert_eq!(extra % 10, 0, "{extra} locks over 10 iterations");
        extra / 10
    }

    #[test]
    fn engine_lock_traffic_per_step_is_pinned() {
        // A task's sleep: arm, then settle after the poll (the pick
        // rides that lock).
        let task_sleep = locks_per_iteration(|sim, n| {
            sim.spawn_task("sleeper", move |s| async move {
                for _ in 0..n {
                    s.sleep(Cycles(100)).await;
                }
            });
        });
        // A task's timed wait: the same two, since the timeout comes
        // back with the baton.
        let task_timed_wait = locks_per_iteration(|sim, n| {
            let q = sim.new_queue();
            sim.spawn_task("waiter", move |s| async move {
                for _ in 0..n {
                    let _ = s.wait_on_timeout(q, Cycles(100), "timed").await;
                }
            });
        });
        // A lite sleep: the step that polls and the step that finds
        // nobody runnable take one lock each, then the scheduler's idle
        // timed wait takes a task's two.
        let lite_sleep = locks_per_iteration(|sim, n| {
            let mut sched = crate::lite::LiteScheduler::new(sim);
            let mut left = n;
            sched.spawn(
                "sleeper",
                Box::new(move |_: &mut crate::lite::ProcCtx| {
                    if left == 0 {
                        return tnt_proc::Step::Done;
                    }
                    left -= 1;
                    tnt_proc::Step::Block(tnt_proc::WaitReason::Sleep(100))
                }),
            );
            sched.start("sched");
        });
        assert_eq!((task_sleep, task_timed_wait, lite_sleep), (2, 2, 4));
    }

    #[test]
    fn now_reads_the_clock_the_lock_settles_to() {
        // `Sim::now` reads the clock mirror plus the caller's unsettled
        // charges without the lock; taking the lock settles them (the
        // same as `advance(Cycles(0))`). Both readings must agree.
        fn check(s: &Sim) {
            let lockless = s.now();
            assert_eq!(lockless, s.lock_state().now);
        }
        async fn body(s: Sim) {
            for i in 0..40u64 {
                s.charge(Cycles(13 + i % 7));
                check(&s);
                s.charge(Cycles(5));
                if i % 5 == 0 {
                    s.sleep(Cycles(11)).await;
                    check(&s);
                }
            }
        }
        for (jitter, traced) in [(0.0, false), (0.08, false), (0.0, true)] {
            let sim = Sim::new(
                Box::new(FifoPolicy::new()),
                SimConfig {
                    seed: 7,
                    jitter,
                    ..SimConfig::default()
                },
            );
            if traced {
                sim.enable_tracing(1 << 12);
            }
            // A sleeper whose timers fire inside the charges' settles.
            sim.spawn_task("sleeper", |s| async move {
                for _ in 0..30 {
                    s.sleep(Cycles(17)).await;
                }
            });
            sim.spawn_task("task", body);
            sim.spawn("threaded", |s| s.block_on(body(s.clone())));
            let end = sim.run().unwrap();
            assert_eq!(sim.now(), end);
        }
        // Two engines on one thread: one engine's balance is not the
        // other's clock.
        let other = fifo_sim(0);
        other.spawn_task("before", |s| async move { s.advance(Cycles(500)) });
        let _ = other.run().unwrap();
        let sim = fifo_sim(0);
        sim.spawn_task("between", move |s| async move {
            s.charge(Cycles(100));
            assert_eq!(other.now(), Cycles(500));
            assert_eq!(s.now(), Cycles(100));
            check(&s);
        });
        assert_eq!(sim.run().unwrap(), Cycles(100));
    }

    #[test]
    fn a_threaded_timed_wait_gets_its_outcome_with_the_baton() {
        // Both waits end on the other process's host thread, whose
        // dispatch hands the outcome over in `Wake::Run`.
        let sim = fifo_sim(0);
        let q = sim.new_queue();
        let log = Arc::new(Mutex::new(Vec::new()));
        let out = log.clone();
        sim.spawn("waiter", move |s| {
            for timeout in [1_000, 10_000] {
                let woken = s.block_on(s.wait_on_timeout(q, Cycles(timeout), "timed"));
                out.lock().push((s.now(), woken));
            }
        });
        sim.spawn("waker", move |s| {
            s.block_on(s.sleep(Cycles(2_000)));
            assert!(s.wakeup_one(q));
        });
        let _ = sim.run().unwrap();
        assert_eq!(
            *log.lock(),
            vec![(Cycles(1_000), false), (Cycles(2_000), true)]
        );
        assert!(sim.tracer().counters().get(Counter::HostHandoffs) >= 2);
    }

    #[test]
    fn a_kill_is_what_park_returns_whenever_it_arrives() {
        // Teardown rule: a `Kill` is final. `shutdown` can deliver it
        // before the process reaches `park` (its thread was still running
        // the dispatch loop that ended the run); no later `Run` may undo
        // it, and it supersedes a `Run` not yet taken.
        let go = Wake::Run(Woke::default());
        let run_then_kill = Parker::new();
        run_then_kill.unpark(go);
        run_then_kill.unpark(Wake::Kill);
        assert_eq!(run_then_kill.park(), Wake::Kill);
        let kill_then_run = Parker::new();
        kill_then_run.unpark(Wake::Kill);
        kill_then_run.unpark(go);
        assert_eq!(kill_then_run.park(), Wake::Kill);
        let run = Parker::new();
        run.unpark(go);
        assert_eq!(run.park(), go);
    }
}
