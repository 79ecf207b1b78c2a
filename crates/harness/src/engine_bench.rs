//! The process-model micro-benchmark behind `reproduce bench-engine`.
//!
//! Every backend runs the *same simulated workload* — a ring of
//! processes that each charge 37 cycles per round, sleep 1,000 cycles
//! every eighth round, and yield — as threaded processes, as engine
//! tasks, and as lite processes inside a single [`LiteScheduler`] slot.
//! The threaded and task rings run one `async fn` body; only its hosting
//! differs.
//! The simulated outcome (final time, total charged CPU) is
//! byte-identical; only the host cost differs, which is exactly what the
//! benchmark measures: events/sec, handoffs/sec and simulated
//! Mcycles/sec per backend, plus the host handoffs — dispatches that
//! woke another host thread — which only the threaded ring pays.

use tnt_sim::proc::{LiteScheduler, ProcCtx, Step, WaitReason};
use tnt_sim::trace::Counter;
use tnt_sim::{Cycles, FifoPolicy, Sim, SimConfig, Tid};

/// Cycles charged per ring round.
pub const RING_CHARGE: u64 = 37;
/// Sleep length on every eighth round.
pub const RING_SLEEP: u64 = 1_000;

/// Outcome of one ring run on either backend.
#[derive(Clone, Debug)]
pub struct RingResult {
    /// Final simulated time.
    pub elapsed: Cycles,
    /// Total CPU cycles charged across all ring members.
    pub total_cpu: u64,
    /// Scheduling handoffs: engine dispatches (threaded, task) or lite
    /// polls.
    pub handoffs: u64,
    /// Dispatches that woke a host thread other than the dispatcher's
    /// (`Counter::HostHandoffs`): zero unless processes are threaded.
    pub host_handoffs: u64,
    /// Charges issued (`procs * rounds`, same on every backend).
    pub charges: u64,
    /// Host seconds for the run.
    pub wall_s: f64,
}

fn ring_sim(seed: u64) -> Sim {
    Sim::new(
        Box::new(FifoPolicy::new()),
        SimConfig {
            seed,
            jitter: 0.02, // exercise the scaled-charge path in both backends
            ..SimConfig::default()
        },
    )
}

/// Runs the ring with one host thread per simulated process.
pub fn threaded_ring(procs: u32, rounds: u32, seed: u64) -> RingResult {
    threaded_ring_on(procs, rounds, seed, false)
}

/// The threaded ring with the happens-before race detector armed: the
/// overhead-gate variant behind `reproduce bench-engine`. Disarmed, each
/// detector hook returns at its first check, so the gate only needs to
/// bound the *armed* slowdown (see `hb_overhead_ratio` in
/// `BENCH_engine.json`).
pub fn threaded_ring_hb(procs: u32, rounds: u32, seed: u64) -> RingResult {
    threaded_ring_on(procs, rounds, seed, true)
}

/// One ring member's body, shared by the threaded and task rings.
async fn ring_member(s: Sim, rounds: u32) {
    for r in 0..rounds {
        s.charge(Cycles(RING_CHARGE));
        if r % 8 == 3 {
            s.sleep(Cycles(RING_SLEEP)).await;
        }
        s.yield_now().await;
    }
}

fn threaded_ring_on(procs: u32, rounds: u32, seed: u64, race_armed: bool) -> RingResult {
    #[expect(
        clippy::disallowed_methods,
        reason = "bench mode measures host time by definition"
    )]
    let t0 = std::time::Instant::now();
    let sim = ring_sim(seed);
    if race_armed {
        sim.arm_race_detector();
    }
    let tids: Vec<Tid> = (0..procs)
        .map(|p| {
            sim.spawn(format!("ring{p}"), move |s| {
                s.block_on(ring_member(s.clone(), rounds))
            })
        })
        .collect();
    engine_result(&sim, &tids, procs, rounds, t0)
}

/// Runs the same ring as engine tasks, all of it polled on the calling
/// thread.
pub fn task_ring(procs: u32, rounds: u32, seed: u64) -> RingResult {
    #[expect(
        clippy::disallowed_methods,
        reason = "bench mode measures host time by definition"
    )]
    let t0 = std::time::Instant::now();
    let sim = ring_sim(seed);
    let tids: Vec<Tid> = (0..procs)
        .map(|p| sim.spawn_task(format!("ring{p}"), move |s| ring_member(s, rounds)))
        .collect();
    engine_result(&sim, &tids, procs, rounds, t0)
}

/// Runs a ring of engine processes and reports it; a handoff is a
/// dispatch.
fn engine_result(
    sim: &Sim,
    tids: &[Tid],
    procs: u32,
    rounds: u32,
    t0: std::time::Instant,
) -> RingResult {
    let elapsed = sim.run().expect("engine ring failed");
    RingResult {
        elapsed,
        total_cpu: tids.iter().map(|t| sim.proc_cpu(*t).0).sum(),
        handoffs: sim.dispatch_count(),
        host_handoffs: host_handoffs(sim),
        charges: u64::from(procs) * u64::from(rounds),
        wall_s: t0.elapsed().as_secs_f64(),
    }
}

/// Runs the same ring as lite processes in one engine slot.
pub fn lite_ring(procs: u32, rounds: u32, seed: u64) -> RingResult {
    #[expect(
        clippy::disallowed_methods,
        reason = "bench mode measures host time by definition"
    )]
    let t0 = std::time::Instant::now();
    let sim = ring_sim(seed);
    let mut sched = LiteScheduler::new(&sim);
    for p in 0..procs {
        let mut r = 0u32;
        let mut phase = 0u8;
        sched.spawn(
            &format!("ring{p}"),
            Box::new(move |_: &mut ProcCtx| {
                if r == rounds {
                    return Step::Done;
                }
                phase += 1;
                match phase {
                    1 => Step::Charge(RING_CHARGE),
                    2 if r % 8 == 3 => Step::Block(WaitReason::Sleep(RING_SLEEP)),
                    _ => {
                        phase = 0;
                        r += 1;
                        Step::Yield
                    }
                }
            }),
        );
    }
    let handle = sched.start("ring-sched");
    let elapsed = sim.run().expect("lite ring failed");
    let stats = handle.stats();
    RingResult {
        elapsed,
        total_cpu: stats.cpu_by_pid.iter().map(|(_, cpu)| cpu).sum(),
        handoffs: stats.polls,
        host_handoffs: host_handoffs(&sim),
        charges: u64::from(procs) * u64::from(rounds),
        wall_s: t0.elapsed().as_secs_f64(),
    }
}

/// The run's host-handoff count.
fn host_handoffs(sim: &Sim) -> u64 {
    sim.tracer().counters().get(Counter::HostHandoffs)
}

impl RingResult {
    /// Scheduling handoffs per host second.
    pub fn handoffs_per_s(&self) -> f64 {
        self.handoffs as f64 / self.wall_s.max(1e-9)
    }

    /// Simulation events (handoffs + charges) per host second.
    pub fn events_per_s(&self) -> f64 {
        (self.handoffs + self.charges) as f64 / self.wall_s.max(1e-9)
    }

    /// Simulated megacycles retired per host second.
    pub fn sim_mcycles_per_s(&self) -> f64 {
        self.elapsed.0 as f64 / 1e6 / self.wall_s.max(1e-9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tentpole's byte-identity claim: the threaded ring and its
    /// lite twin produce the same simulated outcome from the same seed —
    /// final clock and total charged CPU — even with jitter on. Only the
    /// handoff accounting differs (dispatches vs polls), by design, and
    /// only the threaded ring switches host threads.
    #[test]
    fn threaded_and_lite_rings_are_byte_identical() {
        for seed in [0, 7, 1996] {
            let threaded = threaded_ring(24, 40, seed);
            let lite = lite_ring(24, 40, seed);
            assert_eq!(
                threaded.elapsed, lite.elapsed,
                "seed {seed}: simulated clock diverged"
            );
            assert_eq!(
                threaded.total_cpu, lite.total_cpu,
                "seed {seed}: charged CPU diverged"
            );
            assert_eq!(threaded.charges, lite.charges);
            assert!(threaded.host_handoffs > 0, "seed {seed}");
            assert_eq!(lite.host_handoffs, 0, "seed {seed}");
        }
    }

    /// The task twin runs the threaded ring's body as a task: same
    /// clock, same CPU, and the same dispatches, since both are
    /// scheduled by the one engine dispatch path.
    #[test]
    fn task_and_threaded_rings_are_byte_identical() {
        for seed in [0, 7, 1996] {
            let threaded = threaded_ring(24, 40, seed);
            let task = task_ring(24, 40, seed);
            assert_eq!(
                threaded.elapsed, task.elapsed,
                "seed {seed}: clock diverged"
            );
            assert_eq!(
                threaded.total_cpu, task.total_cpu,
                "seed {seed}: CPU diverged"
            );
            assert_eq!(
                threaded.handoffs, task.handoffs,
                "seed {seed}: dispatches diverged"
            );
            assert_eq!(task.host_handoffs, 0, "seed {seed}");
        }
    }

    /// Detection is pure metadata: arming the happens-before checker
    /// must not move the simulated clock, the charged CPU, or the
    /// dispatch count by a single cycle.
    #[test]
    fn hb_armed_ring_is_simulation_identical() {
        let plain = threaded_ring(24, 40, 1996);
        let armed = threaded_ring_hb(24, 40, 1996);
        assert_eq!(plain.elapsed, armed.elapsed);
        assert_eq!(plain.total_cpu, armed.total_cpu);
        assert_eq!(plain.handoffs, armed.handoffs);
    }

    #[test]
    fn lite_ring_is_deterministic() {
        let a = lite_ring(16, 24, 3);
        let b = lite_ring(16, 24, 3);
        assert_eq!(a.elapsed, b.elapsed);
        assert_eq!(a.total_cpu, b.total_cpu);
        assert_eq!(a.handoffs, b.handoffs);
    }
}
