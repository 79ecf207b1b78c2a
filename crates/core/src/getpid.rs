//! The Table 2 microbenchmark: `getpid()` in a loop.

use crate::machine::{run_bare, timed};
use tnt_os::Os;

/// Average time per `getpid()` call, in microseconds, over `iters`
/// iterations (the paper uses 100 000).
pub fn syscall_us(os: Os, iters: u32, seed: u64) -> f64 {
    run_bare(os, seed, move |p| async move {
        let (_, d) = timed(&p, async {
            for _ in 0..iters {
                p.getpid();
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
    fn table2_values() {
        // Table 2: 2.31 / 2.62 / 3.52 us (seed 0's jitter is within a few
        // per cent).
        for (os, expect) in [(Os::Linux, 2.31), (Os::FreeBsd, 2.62), (Os::Solaris, 3.52)] {
            let got = syscall_us(os, 10_000, 0);
            assert!(
                (got - expect).abs() / expect < 0.08,
                "{os:?}: expected ~{expect}us, got {got:.3}us"
            );
        }
    }

    #[test]
    fn table2_ordering_is_stable_across_seeds() {
        for seed in 0..5 {
            let l = syscall_us(Os::Linux, 2_000, seed);
            let f = syscall_us(Os::FreeBsd, 2_000, seed);
            let s = syscall_us(Os::Solaris, 2_000, seed);
            assert!(l < f && f < s, "seed {seed}: {l} {f} {s}");
        }
    }
}
