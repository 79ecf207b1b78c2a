//! The Figure 1 context-switch benchmark, `ctx`.
//!
//! A one-byte token circulates through pipes between N processes; each
//! pass costs one write, one read and one context switch, and the
//! reported number is total time divided by passes — pipe overhead
//! included, exactly as the paper reports it.
//!
//! Two circulation patterns:
//! - [`CtxPattern::Ring`]: 0 → 1 → ... → N-1 → 0 (the main benchmark);
//! - [`CtxPattern::LifoChain`]: 0 → 1 → ... → N-1 → ... → 1 → 0, the
//!   variant the authors wrote to probe the Solaris dispatch-table
//!   anomaly.
//!
//! Every process is an engine task, so a token pass hands the baton on
//! without a host thread switch.

use crate::machine::run_bare_with;
use tnt_os::{Os, OsCosts};

/// Token circulation pattern.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CtxPattern {
    /// Round-robin ring.
    Ring,
    /// Back-and-forth chain (the paper's "Solaris-LIFO").
    LifoChain,
}

/// Average time per context switch (token pass) in microseconds, with
/// `nprocs` active processes and roughly `nswitches` passes.
pub fn ctx_us(os: Os, nprocs: usize, nswitches: u64, pattern: CtxPattern, seed: u64) -> f64 {
    ctx_us_with(OsCosts::for_os(os), nprocs, nswitches, pattern, seed)
}

/// [`ctx_us`] with an explicit cost table — used to project the Section
/// 13 next releases (Linux 1.3.40, Solaris 2.5) and for scheduler
/// ablations.
pub fn ctx_us_with(
    costs: OsCosts,
    nprocs: usize,
    nswitches: u64,
    pattern: CtxPattern,
    seed: u64,
) -> f64 {
    assert!(nprocs >= 2, "ctx needs at least two processes");
    match pattern {
        CtxPattern::Ring => ring(costs, nprocs, nswitches, seed),
        CtxPattern::LifoChain => chain(costs, nprocs, nswitches, seed),
    }
}

fn ring(costs: OsCosts, nprocs: usize, nswitches: u64, seed: u64) -> f64 {
    run_bare_with(costs, seed, move |p| async move {
        let rounds = (nswitches / nprocs as u64).max(1);
        // Pipe i is read by process i; process i writes pipe (i+1) % N.
        let pipes: Vec<(u32, u32)> = (0..nprocs).map(|_| p.pipe()).collect();
        let mut children = Vec::new();
        for i in 1..nprocs {
            let rd = pipes[i].0;
            let wr = pipes[(i + 1) % nprocs].1;
            children.push(p.fork(format!("ring{i}"), move |c| async move {
                for _ in 0..rounds {
                    c.read(rd, 1).await.unwrap();
                    c.write(wr, 1).await.unwrap();
                }
            }));
        }
        let my_rd = pipes[0].0;
        let my_wr = pipes[1 % nprocs].1;
        let t0 = p.sim().now();
        for _ in 0..rounds {
            p.write(my_wr, 1).await.unwrap();
            p.read(my_rd, 1).await.unwrap();
        }
        let d = p.sim().now() - t0;
        for c in children {
            p.waitpid(c).await;
        }
        d.as_micros() / (rounds * nprocs as u64) as f64
    })
}

fn chain(costs: OsCosts, nprocs: usize, nswitches: u64, seed: u64) -> f64 {
    run_bare_with(costs, seed, move |p| async move {
        let passes_per_cycle = 2 * (nprocs as u64 - 1);
        let rounds = (nswitches / passes_per_cycle).max(1);
        // up[i] carries the token i -> i+1, down[i] carries i+1 -> i.
        let up: Vec<(u32, u32)> = (0..nprocs - 1).map(|_| p.pipe()).collect();
        let down: Vec<(u32, u32)> = (0..nprocs - 1).map(|_| p.pipe()).collect();
        let mut children = Vec::new();
        for i in 1..nprocs {
            let last = i == nprocs - 1;
            let rd_up = up[i - 1].0;
            let wr_down = down[i - 1].1;
            let (wr_up, rd_down) = if last { (0, 0) } else { (up[i].1, down[i].0) };
            children.push(p.fork(format!("chain{i}"), move |c| async move {
                for _ in 0..rounds {
                    c.read(rd_up, 1).await.unwrap();
                    if last {
                        c.write(wr_down, 1).await.unwrap();
                    } else {
                        c.write(wr_up, 1).await.unwrap();
                        c.read(rd_down, 1).await.unwrap();
                        c.write(wr_down, 1).await.unwrap();
                    }
                }
            }));
        }
        let t0 = p.sim().now();
        for _ in 0..rounds {
            p.write(up[0].1, 1).await.unwrap();
            p.read(down[0].0, 1).await.unwrap();
        }
        let d = p.sim().now() - t0;
        for c in children {
            p.waitpid(c).await;
        }
        d.as_micros() / (rounds * passes_per_cycle) as f64
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SWITCHES: u64 = 1_200;

    #[test]
    fn figure1_two_process_values() {
        // Figure 1 at two processes: Linux ~55, FreeBSD ~80, Solaris ~220.
        let linux = ctx_us(Os::Linux, 2, SWITCHES, CtxPattern::Ring, 0);
        let freebsd = ctx_us(Os::FreeBsd, 2, SWITCHES, CtxPattern::Ring, 0);
        let solaris = ctx_us(Os::Solaris, 2, SWITCHES, CtxPattern::Ring, 0);
        assert!((linux - 55.0).abs() < 8.0, "Linux ~55us, got {linux:.1}");
        assert!(
            (freebsd - 80.0).abs() < 10.0,
            "FreeBSD ~80us, got {freebsd:.1}"
        );
        assert!(
            (solaris - 220.0).abs() < 25.0,
            "Solaris ~220us, got {solaris:.1}"
        );
    }

    #[test]
    fn linux_grows_linearly_and_crosses_freebsd_near_20() {
        let linux10 = ctx_us(Os::Linux, 10, SWITCHES, CtxPattern::Ring, 0);
        let linux40 = ctx_us(Os::Linux, 40, SWITCHES, CtxPattern::Ring, 0);
        let freebsd10 = ctx_us(Os::FreeBsd, 10, SWITCHES, CtxPattern::Ring, 0);
        let freebsd40 = ctx_us(Os::FreeBsd, 40, SWITCHES, CtxPattern::Ring, 0);
        assert!(linux10 < freebsd10, "below 20 procs Linux wins");
        assert!(linux40 > freebsd40, "above 20 procs FreeBSD wins");
        // FreeBSD is flat.
        assert!((freebsd40 - freebsd10).abs() / freebsd10 < 0.05);
        // Linux slope is ~1.4 us per process.
        let slope = (linux40 - linux10) / 30.0;
        assert!(
            (slope - 1.4).abs() < 0.4,
            "Linux slope ~1.4us/proc, got {slope:.2}"
        );
    }

    #[test]
    fn solaris_jumps_at_32_processes() {
        let at24 = ctx_us(Os::Solaris, 24, SWITCHES, CtxPattern::Ring, 0);
        let at40 = ctx_us(Os::Solaris, 40, SWITCHES, CtxPattern::Ring, 0);
        assert!(
            at40 - at24 > 50.0,
            "sharp jump past 32 procs: {at24:.0} -> {at40:.0}"
        );
    }

    #[test]
    fn solaris_lifo_defers_part_of_the_jump() {
        let ring48 = ctx_us(Os::Solaris, 48, SWITCHES, CtxPattern::Ring, 0);
        let lifo48 = ctx_us(Os::Solaris, 48, SWITCHES, CtxPattern::LifoChain, 0);
        assert!(
            lifo48 < ring48 - 15.0,
            "LIFO at 48 procs keeps some table hits: ring {ring48:.0} vs lifo {lifo48:.0}"
        );
    }

    #[test]
    fn chain_token_accounting_terminates() {
        // Small sanity run of the chain pattern on every OS.
        for os in Os::benchmarked() {
            let us = ctx_us(os, 3, 60, CtxPattern::LifoChain, 1);
            assert!(us > 0.0);
        }
    }
}
