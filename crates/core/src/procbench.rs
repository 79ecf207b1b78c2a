//! Process-creation latencies, in the style of the Ousterhout suite and
//! lmbench's `lat_proc` — companions to the paper's toolkit that the
//! paper itself does not tabulate, but whose costs drive the MAB compile
//! phase (Table 3) through fork and exec.

use crate::machine::{run_bare, timed};
use tnt_os::Os;
use tnt_sim::Cycles;

/// Latency of fork + child exit + waitpid, in microseconds.
pub fn fork_exit_us(os: Os, iters: u32, seed: u64) -> f64 {
    run_bare(os, seed, move |p| async move {
        let (_, d) = timed(&p, async {
            for _ in 0..iters {
                let child = p.fork("child", |_| async {});
                p.waitpid(child).await;
            }
        })
        .await;
        d.as_micros() / iters as f64
    })
}

/// Latency of fork + exec + exit + waitpid (the `cc1`-launch pattern of
/// MAB's compile phase), in microseconds.
pub fn fork_exec_us(os: Os, iters: u32, seed: u64) -> f64 {
    run_bare(os, seed, move |p| async move {
        let (_, d) = timed(&p, async {
            for _ in 0..iters {
                let child = p.fork("child", |c| async move {
                    c.exec();
                    c.compute(Cycles(1_000)); // A trivial program body.
                });
                p.waitpid(child).await;
            }
        })
        .await;
        d.as_micros() / iters as f64
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fork_is_sub_millisecond_everywhere() {
        for os in Os::benchmarked() {
            let us = fork_exit_us(os, 20, 0);
            assert!(us > 100.0 && us < 2_500.0, "{os:?}: fork+exit {us:.0}us");
        }
    }

    #[test]
    fn exec_dominates_fork() {
        for os in Os::benchmarked() {
            let fork = fork_exit_us(os, 20, 0);
            let exec = fork_exec_us(os, 20, 0);
            assert!(
                exec > 3.0 * fork,
                "{os:?}: exec-heavy {exec:.0}us vs fork {fork:.0}us"
            );
        }
    }

    #[test]
    fn solaris_exec_is_the_slowest_by_far() {
        // The dynamic-linking story that drags its Table 3 result.
        let linux = fork_exec_us(Os::Linux, 10, 0);
        let solaris = fork_exec_us(Os::Solaris, 10, 0);
        assert!(
            solaris > 4.0 * linux,
            "Solaris exec {solaris:.0}us vs Linux {linux:.0}us"
        );
    }

    #[test]
    fn ordering_matches_trap_costs() {
        let l = fork_exit_us(Os::Linux, 20, 0);
        let f = fork_exit_us(Os::FreeBsd, 20, 0);
        let s = fork_exit_us(Os::Solaris, 20, 0);
        assert!(l < f && f < s, "fork: {l:.0} < {f:.0} < {s:.0}");
    }
}
