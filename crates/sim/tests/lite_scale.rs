//! Crowd-scale checks for the lite process model: 10,000 cooperative
//! processes in one engine slot, deterministic to the byte.

use std::sync::Arc;

use tnt_sim::proc::{block_on, LiteScheduler, ProcCtx, Step, WaitReason};
use tnt_sim::{Cycles, FifoPolicy, Sim, SimChannel, SimConfig};

/// One crowd member: think, sleep, occasionally talk to the server.
struct Client {
    id: u32,
    rounds: u32,
    phase: u8,
}

impl Client {
    fn machine(
        self,
        ch: Arc<SimChannel<u32>>,
        done: tnt_sim::WaitId,
    ) -> Box<dyn tnt_sim::proc::LiteProc<ProcCtx>> {
        let Client {
            id,
            mut rounds,
            mut phase,
        } = self;
        Box::new(move |ctx: &mut ProcCtx| {
            if rounds == 0 {
                return Step::Done;
            }
            phase = (phase + 1) % 4;
            match phase {
                1 => Step::Charge(50 + u64::from(id % 7)),
                2 => Step::Block(WaitReason::Sleep(1_000 + u64::from(id % 13) * 10)),
                3 if id % 32 == 0 => match ch.try_send(ctx.sim(), id) {
                    Ok(()) => block_on(done, "await reply"),
                    Err(_) => {
                        phase -= 1; // retry the send after space frees up
                        block_on(ch.write_queue(), "chan full")
                    }
                },
                _ => {
                    rounds -= 1;
                    Step::Yield
                }
            }
        })
    }
}

/// Runs the 10k crowd plus a server task; returns the observables a
/// byte-identity check needs: final time, engine dispatches, lite
/// polls, and the full per-pid CPU accounting.
fn run_crowd(n: u32, seed: u64) -> (Cycles, u64, u64, Vec<(u32, u64)>) {
    let sim = Sim::new(
        Box::new(FifoPolicy::new()),
        SimConfig {
            seed,
            jitter: 0.02,
            ..SimConfig::default()
        },
    );
    let ch = Arc::new(SimChannel::new(&sim, 64));
    let done = sim.new_queue();

    // A server task drains requests until every client is finished:
    // each id%32==0 member sends one request per round.
    let requests = (0..n).filter(|id| id % 32 == 0).count() * 3;
    let rx = ch.clone();
    sim.spawn_task("server", move |s| async move {
        for _ in 0..requests {
            let _req = rx.recv(&s).await;
            s.advance(Cycles(200));
            s.wakeup_all(done);
        }
    });

    let mut sched = LiteScheduler::new(&sim);
    for id in 0..n {
        sched.spawn(
            &format!("client{id}"),
            Client {
                id,
                rounds: 3,
                phase: 0,
            }
            .machine(ch.clone(), done),
        );
    }
    let handle = sched.start("crowd");
    let elapsed = sim.run().expect("crowd run failed");
    let stats = handle.stats();
    (elapsed, sim.dispatch_count(), stats.polls, stats.cpu_by_pid)
}

#[test]
fn ten_thousand_lite_procs_run_and_are_deterministic() {
    let a = run_crowd(10_000, 42);
    let b = run_crowd(10_000, 42);
    assert_eq!(a.0, b.0, "final simulated time must be byte-identical");
    assert_eq!(a.1, b.1, "engine dispatch count must match");
    assert_eq!(a.2, b.2, "lite poll count must match");
    assert_eq!(a.3, b.3, "per-pid cpu accounting must match");
    assert!(a.2 >= 10_000 * 3, "every client must actually run: {}", a.2);
}

#[test]
fn different_seeds_share_the_structure_but_not_the_clock() {
    // The jitter factor scales charges, so a different seed moves the
    // clock; the structural observables (polls, per-proc relative
    // accounting length) stay fixed.
    let a = run_crowd(500, 1);
    let b = run_crowd(500, 2);
    assert_eq!(a.2, b.2, "poll count is structural");
    assert_eq!(a.3.len(), b.3.len());
    assert_ne!(a.0, b.0, "seed must move the clock via run_factor");
}
