#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

//! Cooperative state-machine processes for crowd-scale simulation.
//!
//! The baton engine in `tnt-sim` hosts each simulated process in its own
//! engine slot, as a host thread or a task — right for the paper's
//! handful of benchmark processes, but costly for crowds of thousands.
//! This crate provides the crowd model: a **lite process** is a
//! resumable state machine implementing [`LiteProc`], and a [`Core`]
//! multiplexes thousands of them through a single run queue with
//! per-process CPU accounting.
//!
//! The crate is deliberately engine-agnostic: durations and instants are
//! raw cycle counts (`u64`) and wait-queue identities are opaque tokens,
//! so the core is unit-testable without a simulation. `tnt_sim::proc`
//! re-exports these types next to the glue (`LiteScheduler`) that runs a
//! `Core` inside one engine task, sharing the engine's run policy, timer
//! queue, trace attribution and fault plane.
//!
//! A lite process never parks a host thread: blocking is expressed by
//! *returning* [`Step::Block`] from `poll`, and the scheduler resumes the
//! state machine when the wait is over. Between two `poll` returns a lite
//! process is atomic with respect to every other simulated process,
//! exactly like the threaded model's run-until-block discipline.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Identifier of a lite process within one [`Core`] (a dense slot index).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Lid(pub u32);

/// Why a lite process is giving up the CPU until a wakeup.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WaitReason {
    /// Block for a relative duration in cycles (a device wait, not CPU).
    Sleep(u64),
    /// Block until an absolute simulated instant in cycles.
    Until(u64),
    /// Block on an engine wait queue until another process signals it.
    Queue {
        /// Raw wait-queue token (`WaitId::raw()` on the engine side).
        queue: u64,
        /// Shows up in deadlock diagnostics, like `Sim::wait_on`'s reason.
        reason: &'static str,
    },
    /// Block on up to two engine wait queues at once, with an optional
    /// absolute deadline — the lite analogue of `select(2)`. The process
    /// resumes on the first signal on any armed queue or when the
    /// deadline passes, whichever comes first; [`Core::wake_of`] says
    /// which. A lite client awaiting reply-or-timeout needs one slot for
    /// this, not a second watchdog process.
    Any {
        /// Raw wait-queue tokens to arm; `None` slots are skipped.
        queues: [Option<u64>; 2],
        /// Absolute instant (cycles) at which the wait times out.
        deadline: Option<u64>,
        /// Shows up in deadlock diagnostics, like `Sim::wait_on`'s reason.
        reason: &'static str,
    },
}

/// How the last blocking wait of a lite process ended. Read it via
/// [`Core::wake_of`] right after the process resumes to tell a queue
/// signal from a deadline on a [`WaitReason::Any`] wait.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Wake {
    /// The process has not completed a blocking wait yet.
    None,
    /// A signal arrived on the queue at this index of the wait's
    /// `queues` array (always 0 for single-queue waits).
    Queue(u8),
    /// The sleep instant or `Any` deadline passed with no signal.
    Timeout,
}

/// What a lite process asks its scheduler to do next.
///
/// `poll` is called repeatedly; `Charge` keeps the process on the CPU
/// (the scheduler charges the cycles and polls again immediately), the
/// other variants end the timeslice.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Step {
    /// Burn CPU: charge this many cycles to the simulated clock and to
    /// this process, then poll again without a reschedule.
    Charge(u64),
    /// Stop running until the wait is satisfied.
    Block(WaitReason),
    /// Go to the back of the run queue (another process may run).
    Yield,
    /// The process has finished; its slot is retired and its state
    /// machine dropped.
    Done,
}

/// A cooperative lite process: a resumable state machine.
///
/// `C` is the context the scheduler threads through every poll (in
/// `tnt-sim` it is `ProcCtx`, carrying the `Sim` handle). Implementations
/// must be deterministic given the same sequence of polls.
pub trait LiteProc<C>: Send {
    /// Runs the process until it would block, yield, or finish.
    fn poll(&mut self, ctx: &mut C) -> Step;
}

/// Closures are lite processes: handy for tests and simple crowds.
impl<C, F: FnMut(&mut C) -> Step + Send> LiteProc<C> for F {
    fn poll(&mut self, ctx: &mut C) -> Step {
        self(ctx)
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum SlotState {
    Runnable,
    Running,
    Sleeping,
    Waiting(&'static str),
    Done,
}

struct Slot<C> {
    /// `None` once the process finished — the state machine is dropped
    /// eagerly so a crowd's memory stays flat as processes retire.
    machine: Option<Box<dyn LiteProc<C>>>,
    state: SlotState,
    /// Virtual pid used for trace attribution on the engine side.
    pid: u32,
    /// CPU cycles charged while this process ran.
    cpu: u64,
    /// Bumped on every blocking transition; deadline-heap entries carry
    /// the generation they were armed under, so a deadline left over
    /// from an earlier wait can never fire into a later one.
    gen: u32,
    /// How the most recent blocking wait ended.
    wake: Wake,
}

/// The lite-process scheduler core: slots, a FIFO run queue, and a sleep
/// heap. Engine-agnostic and fully deterministic — every structure
/// iterates in insertion or (instant, seq) order.
pub struct Core<C> {
    slots: Vec<Slot<C>>,
    run: VecDeque<Lid>,
    /// Min-heap of `(wake_at, seq, lid)`; `seq` makes ties FIFO.
    sleepers: BinaryHeap<Reverse<(u64, u64, Lid)>>,
    /// Min-heap of `Any`-wait deadlines `(at, seq, lid, gen)`; entries
    /// are validated against the slot's current generation when popped.
    timeouts: BinaryHeap<Reverse<(u64, u64, Lid, u32)>>,
    /// Lids whose `Any` deadline fired since the last drain.
    timed_out: Vec<Lid>,
    sleep_seq: u64,
    live: usize,
    polls: u64,
}

impl<C> Default for Core<C> {
    fn default() -> Core<C> {
        Core::new()
    }
}

impl<C> Core<C> {
    /// Creates an empty core.
    pub fn new() -> Core<C> {
        Core {
            slots: Vec::new(),
            run: VecDeque::new(),
            sleepers: BinaryHeap::new(),
            timeouts: BinaryHeap::new(),
            timed_out: Vec::new(),
            sleep_seq: 0,
            live: 0,
            polls: 0,
        }
    }

    /// Adds a lite process; it is immediately runnable. `pid` is the
    /// virtual process id used for attribution (allocate it from the
    /// engine so lite and threaded pids share one namespace).
    pub fn spawn(&mut self, pid: u32, machine: Box<dyn LiteProc<C>>) -> Lid {
        let lid = Lid(self.slots.len() as u32);
        self.slots.push(Slot {
            machine: Some(machine),
            state: SlotState::Runnable,
            pid,
            cpu: 0,
            gen: 0,
            wake: Wake::None,
        });
        self.live += 1;
        self.run.push_back(lid);
        lid
    }

    /// Pops the next runnable process and marks it running.
    pub fn next_runnable(&mut self) -> Option<Lid> {
        let lid = self.run.pop_front()?;
        self.slots[lid.0 as usize].state = SlotState::Running;
        self.polls += 1;
        Some(lid)
    }

    /// Polls the process (it must be the one just returned by
    /// [`Core::next_runnable`]).
    pub fn poll(&mut self, lid: Lid, ctx: &mut C) -> Step {
        self.slots[lid.0 as usize]
            .machine
            .as_mut()
            .expect("polled a finished lite process")
            .poll(ctx)
    }

    /// Requeues a running process at the back of the run queue.
    pub fn yield_to_back(&mut self, lid: Lid) {
        self.slots[lid.0 as usize].state = SlotState::Runnable;
        self.run.push_back(lid);
    }

    /// Puts a running process to sleep until the absolute instant `at`.
    pub fn sleep_until(&mut self, lid: Lid, at: u64) {
        let slot = &mut self.slots[lid.0 as usize];
        slot.state = SlotState::Sleeping;
        slot.gen = slot.gen.wrapping_add(1);
        let seq = self.sleep_seq;
        self.sleep_seq += 1;
        self.sleepers.push(Reverse((at, seq, lid)));
    }

    /// Marks a running process as blocked on an external wait queue;
    /// the owner must arrange the wakeup (see `Sim::lite_wait_enqueue`).
    pub fn wait(&mut self, lid: Lid, reason: &'static str) {
        let slot = &mut self.slots[lid.0 as usize];
        slot.state = SlotState::Waiting(reason);
        slot.gen = slot.gen.wrapping_add(1);
    }

    /// Marks a running process as blocked on a [`WaitReason::Any`] wait:
    /// one or more external queues (the owner arms those separately, see
    /// `Sim::lite_wait_enqueue`) plus an optional deadline entered into
    /// the timeout heap. The first of queue signal ([`Core::wake_queue`])
    /// and deadline wins; [`Core::wake_of`] reports which.
    pub fn wait_any(&mut self, lid: Lid, reason: &'static str, deadline: Option<u64>) {
        let slot = &mut self.slots[lid.0 as usize];
        slot.state = SlotState::Waiting(reason);
        slot.gen = slot.gen.wrapping_add(1);
        let gen = slot.gen;
        if let Some(at) = deadline {
            let seq = self.sleep_seq;
            self.sleep_seq += 1;
            self.timeouts.push(Reverse((at, seq, lid, gen)));
        }
    }

    /// Retires a finished process and drops its state machine.
    pub fn finish(&mut self, lid: Lid) {
        let slot = &mut self.slots[lid.0 as usize];
        slot.state = SlotState::Done;
        slot.machine = None;
        self.live -= 1;
    }

    /// Adds CPU cycles to a process's account.
    pub fn charge(&mut self, lid: Lid, cy: u64) {
        self.slots[lid.0 as usize].cpu += cy;
    }

    /// Wakes a blocked process (sleep or queue wait). Returns `false`
    /// for stale wakeups — the process already ran on, or finished.
    pub fn wake(&mut self, lid: Lid) -> bool {
        self.wake_queue(lid, 0)
    }

    /// Wakes a blocked process via the `idx`-th queue of its wait set,
    /// recording [`Wake::Queue`]`(idx)` for [`Core::wake_of`]. Returns
    /// `false` for stale wakeups.
    pub fn wake_queue(&mut self, lid: Lid, idx: u8) -> bool {
        let slot = match self.slots.get_mut(lid.0 as usize) {
            Some(s) => s,
            None => return false,
        };
        match slot.state {
            SlotState::Sleeping | SlotState::Waiting(_) => {
                slot.state = SlotState::Runnable;
                slot.wake = Wake::Queue(idx);
                self.run.push_back(lid);
                true
            }
            _ => false,
        }
    }

    /// How the most recent completed wait of `lid` ended — queue signal
    /// (with the index into its `Any` wait set) or timeout.
    pub fn wake_of(&self, lid: Lid) -> Wake {
        self.slots[lid.0 as usize].wake
    }

    /// Lids whose [`WaitReason::Any`] deadline fired since the last
    /// drain, in firing order. The owner uses this to cancel the queue
    /// parkings the wait armed (see `Sim::lite_wait_cancel`).
    pub fn drain_timed_out(&mut self) -> Vec<Lid> {
        std::mem::take(&mut self.timed_out)
    }

    /// Wakes every sleeper and every expired `Any` deadline whose
    /// instant is `<= now`, each heap in (instant, seq) order. Returns
    /// how many woke.
    pub fn fire_due(&mut self, now: u64) -> usize {
        let mut n = 0;
        while let Some(Reverse((at, _, _))) = self.sleepers.peek() {
            if *at > now {
                break;
            }
            let Reverse((_, _, lid)) = self.sleepers.pop().expect("peeked sleeper vanished");
            // Skip entries whose process was woken some other way.
            if self.slots[lid.0 as usize].state == SlotState::Sleeping {
                self.slots[lid.0 as usize].state = SlotState::Runnable;
                self.slots[lid.0 as usize].wake = Wake::Timeout;
                self.run.push_back(lid);
                n += 1;
            }
        }
        while let Some(Reverse((at, _, _, _))) = self.timeouts.peek() {
            if *at > now {
                break;
            }
            let Reverse((_, _, lid, gen)) = self.timeouts.pop().expect("peeked timeout vanished");
            // Valid only while the process is still in the wait that
            // armed this deadline: same generation, still waiting.
            let slot = &mut self.slots[lid.0 as usize];
            if matches!(slot.state, SlotState::Waiting(_)) && slot.gen == gen {
                slot.state = SlotState::Runnable;
                slot.wake = Wake::Timeout;
                self.run.push_back(lid);
                self.timed_out.push(lid);
                n += 1;
            }
        }
        n
    }

    /// The earliest pending sleep instant or `Any` deadline, pruning
    /// stale entries from both heaps.
    pub fn next_wake(&mut self) -> Option<u64> {
        let mut sleep_at = None;
        while let Some(Reverse((at, _, lid))) = self.sleepers.peek() {
            if self.slots[lid.0 as usize].state == SlotState::Sleeping {
                sleep_at = Some(*at);
                break;
            }
            self.sleepers.pop();
        }
        let mut timeout_at = None;
        while let Some(&Reverse((at, _, lid, gen))) = self.timeouts.peek() {
            let slot = &self.slots[lid.0 as usize];
            if matches!(slot.state, SlotState::Waiting(_)) && slot.gen == gen {
                timeout_at = Some(at);
                break;
            }
            self.timeouts.pop();
        }
        match (sleep_at, timeout_at) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Number of not-yet-finished processes.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Number of processes in the run queue right now.
    pub fn runnable(&self) -> usize {
        self.run.len()
    }

    /// Total `next_runnable` picks — the lite analogue of the engine's
    /// dispatch count.
    pub fn polls(&self) -> u64 {
        self.polls
    }

    /// The virtual pid of a process.
    pub fn pid(&self, lid: Lid) -> u32 {
        self.slots[lid.0 as usize].pid
    }

    /// Per-process `(pid, cpu)` accounting in slot order — byte-stable
    /// across same-seed runs, so tests can checksum it.
    pub fn cpu_by_pid(&self) -> Vec<(u32, u64)> {
        self.slots.iter().map(|s| (s.pid, s.cpu)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A process that charges `burn` cycles then yields, `rounds` times.
    struct Burner {
        rounds: u32,
        burn: u64,
        charged: bool,
    }

    impl LiteProc<()> for Burner {
        fn poll(&mut self, _ctx: &mut ()) -> Step {
            if self.rounds == 0 {
                return Step::Done;
            }
            if !self.charged {
                self.charged = true;
                return Step::Charge(self.burn);
            }
            self.charged = false;
            self.rounds -= 1;
            Step::Yield
        }
    }

    fn burner(rounds: u32, burn: u64) -> Box<dyn LiteProc<()>> {
        Box::new(Burner {
            rounds,
            burn,
            charged: false,
        })
    }

    /// Drives a core to completion against a virtual clock, applying
    /// steps the way a scheduler would. Returns (clock, poll count).
    fn drive(core: &mut Core<()>) -> (u64, u64) {
        let mut now = 0u64;
        loop {
            core.fire_due(now);
            match core.next_runnable() {
                Some(lid) => loop {
                    match core.poll(lid, &mut ()) {
                        Step::Charge(cy) => {
                            now += cy;
                            core.charge(lid, cy);
                        }
                        Step::Yield => {
                            core.yield_to_back(lid);
                            break;
                        }
                        Step::Block(WaitReason::Sleep(d)) => {
                            core.sleep_until(lid, now + d);
                            break;
                        }
                        Step::Block(WaitReason::Until(at)) => {
                            core.sleep_until(lid, at);
                            break;
                        }
                        Step::Block(WaitReason::Queue { .. })
                        | Step::Block(WaitReason::Any { .. }) => {
                            panic!("no external queues in this harness")
                        }
                        Step::Done => {
                            core.finish(lid);
                            break;
                        }
                    }
                },
                None => {
                    if core.live() == 0 {
                        return (now, core.polls());
                    }
                    let at = core.next_wake().expect("deadlock in test harness");
                    now = now.max(at);
                }
            }
        }
    }

    #[test]
    fn burners_serialize_cpu() {
        let mut core = Core::new();
        for pid in 1..=3u32 {
            core.spawn(pid, burner(10, 7));
        }
        let (clock, _) = drive(&mut core);
        assert_eq!(clock, 3 * 10 * 7);
        assert_eq!(core.live(), 0);
        assert_eq!(
            core.cpu_by_pid(),
            vec![(1, 70), (2, 70), (3, 70)],
            "per-process accounting"
        );
    }

    #[test]
    fn run_queue_is_fifo() {
        let mut core: Core<()> = Core::new();
        let mut order = Vec::new();
        let a = core.spawn(1, burner(1, 1));
        let b = core.spawn(2, burner(1, 1));
        while let Some(lid) = core.next_runnable() {
            order.push(lid);
            core.finish(lid);
        }
        assert_eq!(order, vec![a, b]);
    }

    #[test]
    fn sleepers_wake_in_instant_then_fifo_order() {
        let mut core: Core<()> = Core::new();
        let a = core.spawn(1, burner(1, 1));
        let b = core.spawn(2, burner(1, 1));
        let c = core.spawn(3, burner(1, 1));
        for lid in [a, b, c] {
            assert_eq!(core.next_runnable(), Some(lid));
        }
        core.sleep_until(b, 50);
        core.sleep_until(a, 100);
        core.sleep_until(c, 50); // ties broken by arming order
        assert_eq!(core.next_wake(), Some(50));
        assert_eq!(core.fire_due(60), 2);
        assert_eq!(core.next_runnable(), Some(b));
        assert_eq!(core.next_runnable(), Some(c));
        assert_eq!(core.next_runnable(), None);
        assert_eq!(core.fire_due(100), 1);
        assert_eq!(core.next_runnable(), Some(a));
    }

    #[test]
    fn stale_wakeups_are_ignored() {
        let mut core: Core<()> = Core::new();
        let a = core.spawn(1, burner(1, 1));
        assert!(!core.wake(a), "runnable proc is not wakeable");
        assert_eq!(core.next_runnable(), Some(a));
        core.wait(a, "token");
        assert!(core.wake(a));
        assert!(!core.wake(a), "second wake is stale");
        assert_eq!(core.next_runnable(), Some(a));
        core.finish(a);
        assert!(!core.wake(a), "finished proc is not wakeable");
        assert!(!core.wake(Lid(99)), "unknown lid is not wakeable");
    }

    #[test]
    fn any_deadline_fires_and_is_reported() {
        let mut core: Core<()> = Core::new();
        let a = core.spawn(1, burner(1, 1));
        assert_eq!(core.next_runnable(), Some(a));
        core.wait_any(a, "reply or timeout", Some(500));
        assert_eq!(core.next_wake(), Some(500));
        assert_eq!(core.fire_due(499), 0);
        assert_eq!(core.fire_due(500), 1);
        assert_eq!(core.wake_of(a), Wake::Timeout);
        assert_eq!(core.drain_timed_out(), vec![a]);
        assert!(core.drain_timed_out().is_empty(), "drain consumes");
        assert_eq!(core.next_runnable(), Some(a));
    }

    #[test]
    fn any_queue_signal_beats_the_deadline() {
        let mut core: Core<()> = Core::new();
        let a = core.spawn(1, burner(1, 1));
        assert_eq!(core.next_runnable(), Some(a));
        core.wait_any(a, "reply or timeout", Some(500));
        assert!(core.wake_queue(a, 1));
        assert_eq!(core.wake_of(a), Wake::Queue(1));
        // The armed deadline is now stale: it must neither wake the
        // process again nor hold the next-wake horizon down.
        assert_eq!(core.next_wake(), None);
        assert_eq!(core.fire_due(1_000), 0);
        assert!(core.drain_timed_out().is_empty());
    }

    #[test]
    fn stale_deadline_cannot_fire_into_a_later_wait() {
        let mut core: Core<()> = Core::new();
        let a = core.spawn(1, burner(1, 1));
        assert_eq!(core.next_runnable(), Some(a));
        // First wait: deadline at 500, but a queue signal wins at 100.
        core.wait_any(a, "first", Some(500));
        assert!(core.wake_queue(a, 0));
        assert_eq!(core.next_runnable(), Some(a));
        // Second wait (no deadline). The leftover entry at 500 carries
        // the old generation and must not wake it.
        core.wait_any(a, "second", None);
        assert_eq!(core.fire_due(600), 0);
        assert_eq!(core.next_wake(), None);
        assert!(core.drain_timed_out().is_empty());
        // A real signal still does.
        assert!(core.wake_queue(a, 0));
    }

    #[test]
    fn plain_waits_also_invalidate_older_deadlines() {
        let mut core: Core<()> = Core::new();
        let a = core.spawn(1, burner(1, 1));
        assert_eq!(core.next_runnable(), Some(a));
        core.wait_any(a, "first", Some(500));
        assert!(core.wake_queue(a, 0));
        assert_eq!(core.next_runnable(), Some(a));
        // A plain single-queue wait bumps the generation too, so the
        // stale 500 deadline cannot steal its wakeup.
        core.wait(a, "second");
        assert_eq!(core.fire_due(600), 0);
        assert!(core.drain_timed_out().is_empty());
        assert!(core.wake(a));
        assert_eq!(core.wake_of(a), Wake::Queue(0));
    }

    #[test]
    fn next_wake_mins_sleepers_and_deadlines() {
        let mut core: Core<()> = Core::new();
        let a = core.spawn(1, burner(1, 1));
        let b = core.spawn(2, burner(1, 1));
        assert_eq!(core.next_runnable(), Some(a));
        assert_eq!(core.next_runnable(), Some(b));
        core.sleep_until(a, 900);
        core.wait_any(b, "replies", Some(300));
        assert_eq!(core.next_wake(), Some(300));
        assert_eq!(core.fire_due(300), 1);
        assert_eq!(core.next_wake(), Some(900));
    }

    #[test]
    fn finish_drops_the_state_machine() {
        struct DropFlag(std::sync::Arc<std::sync::atomic::AtomicBool>);
        impl Drop for DropFlag {
            fn drop(&mut self) {
                self.0.store(true, std::sync::atomic::Ordering::SeqCst);
            }
        }
        impl LiteProc<()> for DropFlag {
            fn poll(&mut self, _: &mut ()) -> Step {
                Step::Done
            }
        }
        let dropped = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut core: Core<()> = Core::new();
        let lid = core.spawn(1, Box::new(DropFlag(dropped.clone())));
        core.next_runnable();
        core.finish(lid);
        assert!(
            dropped.load(std::sync::atomic::Ordering::SeqCst),
            "finish must free the machine so crowd memory stays flat"
        );
    }

    #[test]
    fn closures_are_lite_procs() {
        let mut left = 3u32;
        let mut core: Core<()> = Core::new();
        core.spawn(
            1,
            Box::new(move |_: &mut ()| {
                if left == 0 {
                    Step::Done
                } else {
                    left -= 1;
                    Step::Charge(5)
                }
            }),
        );
        let (clock, _) = drive(&mut core);
        assert_eq!(clock, 15);
    }

    #[test]
    fn mixed_sleep_and_yield_interleave_deterministically() {
        // Two identical cores must evolve identically.
        let build = || {
            let mut core = Core::new();
            for pid in 1..=5u32 {
                core.spawn(
                    pid,
                    Box::new(SleepyBurner {
                        rounds: 20,
                        phase: 0,
                    }),
                );
            }
            core
        };
        struct SleepyBurner {
            rounds: u32,
            phase: u8,
        }
        impl LiteProc<()> for SleepyBurner {
            fn poll(&mut self, _: &mut ()) -> Step {
                if self.rounds == 0 {
                    return Step::Done;
                }
                self.phase = (self.phase + 1) % 3;
                match self.phase {
                    1 => Step::Charge(11),
                    2 => Step::Block(WaitReason::Sleep(1_000)),
                    _ => {
                        self.rounds -= 1;
                        Step::Yield
                    }
                }
            }
        }
        let (mut a, mut b) = (build(), build());
        let ra = drive(&mut a);
        let rb = drive(&mut b);
        assert_eq!(ra, rb);
        assert_eq!(a.cpu_by_pid(), b.cpu_by_pid());
    }
}
