//! Property tests of the simulation engine itself: arbitrary little
//! process ensembles must terminate, keep the clock monotone, conserve
//! CPU accounting, and replay identically per seed.

use proptest::prelude::*;
use std::sync::Arc;

use parking_lot::Mutex;
use tnt_sim::{Cycles, FifoPolicy, Sim, SimConfig};

/// One scripted step of a tiny process.
#[derive(Clone, Copy, Debug)]
enum Step {
    Compute(u16),
    Sleep(u16),
    Yield,
    /// Wake everyone on the shared queue, or wait (bounded) if empty.
    Signal,
    TimedWait(u16),
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        any::<u16>().prop_map(Step::Compute),
        any::<u16>().prop_map(Step::Sleep),
        Just(Step::Yield),
        Just(Step::Signal),
        (1u16..5000).prop_map(Step::TimedWait),
    ]
}

fn scripts() -> impl Strategy<Value = Vec<Vec<Step>>> {
    prop::collection::vec(prop::collection::vec(step_strategy(), 0..12), 1..6)
}

/// Runs an ensemble; returns (final clock, per-proc cpu, trace length).
fn run_ensemble(scripts: &[Vec<Step>], seed: u64) -> (Cycles, Vec<Cycles>, usize) {
    let sim = Sim::new(
        Box::new(FifoPolicy::new()),
        SimConfig {
            seed,
            ..SimConfig::default()
        },
    );
    let q = sim.new_queue();
    let trace = Arc::new(Mutex::new(Vec::new()));
    let mut tids = Vec::new();
    for (i, script) in scripts.iter().enumerate() {
        let script = script.clone();
        let trace = trace.clone();
        tids.push(sim.spawn_task(format!("p{i}"), move |s| async move {
            let mut last = s.now();
            for step in &script {
                match step {
                    Step::Compute(c) => s.advance(Cycles(*c as u64)),
                    Step::Sleep(c) => s.sleep(Cycles(*c as u64)).await,
                    Step::Yield => s.yield_now().await,
                    Step::Signal => {
                        s.wakeup_all(q);
                    }
                    Step::TimedWait(c) => {
                        // Bounded, so nothing can deadlock.
                        let _ = s.wait_on_timeout(q, Cycles(*c as u64), "prop wait").await;
                    }
                }
                let now = s.now();
                assert!(now >= last, "clock went backwards");
                last = now;
                trace.lock().push((i, now.0));
            }
        }));
    }
    let end = sim.run().expect("ensemble must terminate");
    let cpu = tids.iter().map(|t| sim.proc_cpu(*t)).collect();
    let len = trace.lock().len();
    (end, cpu, len)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn ensembles_terminate_with_consistent_accounting(scripts in scripts()) {
        let (end, cpu, _) = run_ensemble(&scripts, 1);
        // Total CPU charged never exceeds elapsed time (single CPU), and
        // equals the sum of each process's Compute steps.
        let total_cpu: u64 = cpu.iter().map(|c| c.0).sum();
        prop_assert!(total_cpu <= end.0, "CPU {total_cpu} > wall {}", end.0);
        for (i, script) in scripts.iter().enumerate() {
            let expect: u64 = script
                .iter()
                .map(|s| match s {
                    Step::Compute(c) => *c as u64,
                    _ => 0,
                })
                .sum();
            prop_assert_eq!(cpu[i].0, expect, "proc {} cpu accounting", i);
        }
    }

    #[test]
    fn replay_is_bit_identical(scripts in scripts(), seed in 0u64..100) {
        let a = run_ensemble(&scripts, seed);
        let b = run_ensemble(&scripts, seed);
        prop_assert_eq!(a.0, b.0, "final clock differs between replays");
        prop_assert_eq!(a.1, b.1, "cpu accounting differs between replays");
        prop_assert_eq!(a.2, b.2, "event counts differ between replays");
    }

    #[test]
    fn wall_clock_bounded_by_script_content(scripts in scripts()) {
        // An upper bound: everything serialised plus every sleep and
        // timeout expiring in sequence.
        let (end, _, _) = run_ensemble(&scripts, 2);
        let bound: u64 = scripts
            .iter()
            .flatten()
            .map(|s| match s {
                Step::Compute(c) | Step::Sleep(c) | Step::TimedWait(c) => *c as u64,
                _ => 0,
            })
            .sum();
        prop_assert!(end.0 <= bound, "clock {} beyond serial bound {}", end.0, bound);
    }
}
