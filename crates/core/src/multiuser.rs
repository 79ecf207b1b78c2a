//! Multi-user mode: the reason the paper ran everything single-user.
//!
//! Section 3: "All benchmarks were executed in single-user mode. When
//! run in multi-user mode, the benchmarks exhibited slightly higher
//! variance." This module boots a machine with the background daemons a
//! multi-user 1995 system carried — an `update`-style sync daemon, a
//! `cron`-style housekeeper and a logging daemon — each waking on its
//! own period (jittered per seed) and stealing a sliver of CPU, so
//! measurements pick up exactly that extra variance.

use std::future::Future;
use std::sync::Arc;

use parking_lot::Mutex;

use tnt_os::{boot, Os, UProc};
use tnt_sim::Cycles;

/// A background daemon: wakes every `period`, burns `burst` of CPU.
struct Daemon {
    name: &'static str,
    period: Cycles,
    burst: Cycles,
}

/// The standard multi-user daemon set. Periods span milliseconds (the
/// interrupt-driven chatter of ttys and the network) to tens of seconds
/// (update/cron), so both short and long benchmarks feel them.
fn daemons() -> Vec<Daemon> {
    vec![
        // Network/tty servicing: frequent tiny slices.
        Daemon {
            name: "netio",
            period: Cycles::from_millis(6.7),
            burst: Cycles::from_micros(35.0),
        },
        // syslogd(8) and friends: regular small wakeups.
        Daemon {
            name: "syslogd",
            period: Cycles::from_millis(43.0),
            burst: Cycles::from_micros(120.0),
        },
        // sendmail queue runner / inetd pokes.
        Daemon {
            name: "inetd",
            period: Cycles::from_millis(310.0),
            burst: Cycles::from_micros(450.0),
        },
        // update(8): flush scheduling every ~30 s (its real sync work is
        // in the filesystem model; this is its process overhead).
        Daemon {
            name: "update",
            period: Cycles::from_secs(30.0),
            burst: Cycles::from_micros(400.0),
        },
    ]
}

/// Runs `f` as on [`crate::run_bare`], but on a machine in multi-user
/// mode: background daemons tick throughout, perturbing the measurement
/// and inflating the live task count (which Linux's O(n) scheduler
/// feels). The simulation is stopped when `f` returns, as `shutdown(8)`
/// would.
pub fn run_multiuser<T, F, Fut>(os: Os, seed: u64, f: F) -> T
where
    T: Send + 'static,
    F: FnOnce(UProc) -> Fut + Send + 'static,
    Fut: Future<Output = T> + Send + 'static,
{
    let (sim, kernel) = boot(os, seed);
    for (i, d) in daemons().into_iter().enumerate() {
        // Per-seed phase offset so daemons do not tick in lockstep.
        let phase =
            Cycles((seed.wrapping_mul(2_654_435_761).rotate_left(i as u32 * 7)) % d.period.0);
        kernel.spawn_user(d.name, move |p| async move {
            p.sim().sleep(phase).await;
            loop {
                p.compute(d.burst);
                p.sim().sleep(d.period).await;
            }
        });
    }
    let slot: Arc<Mutex<Option<T>>> = Arc::new(Mutex::new(None));
    let s2 = slot.clone();
    kernel.spawn_user("bench", move |p| async move {
        let sim = p.sim().clone();
        *s2.lock() = Some(f(p).await);
        sim.stop(); // Daemons run forever; shut the machine down.
    });
    // The benchmark times its own interval; the final clock is not needed.
    let _ = sim.run().expect("multi-user simulation failed");
    let result = slot.lock().take().expect("benchmark produced a result");
    result
}

/// Table 2's `getpid` loop in multi-user mode.
///
/// Note the engine is non-preemptive (processes yield only at blocking
/// points), so a pure CPU loop is immune to the daemons; the multi-user
/// noise of Section 3 shows up in benchmarks that block — see
/// [`pipe_rtt_us_multiuser`].
pub fn syscall_us_multiuser(os: Os, iters: u32, seed: u64) -> f64 {
    run_multiuser(os, seed, move |p| async move {
        let t0 = p.sim().now();
        for _ in 0..iters {
            p.getpid();
        }
        (p.sim().now() - t0).as_micros() / iters as f64
    })
}

async fn pipe_rtt(p: UProc, round_trips: u32) -> f64 {
    let (rd_a, wr_a) = p.pipe();
    let (rd_b, wr_b) = p.pipe();
    let child = p.fork("pong", move |c| async move {
        for _ in 0..round_trips {
            if c.read(rd_a, 1).await.unwrap() == 0 {
                break;
            }
            c.write(wr_b, 1).await.unwrap();
        }
    });
    let t0 = p.sim().now();
    for _ in 0..round_trips {
        p.write(wr_a, 1).await.unwrap();
        p.read(rd_b, 1).await.unwrap();
    }
    let rtt = (p.sim().now() - t0).as_micros() / round_trips as f64;
    p.waitpid(child).await;
    rtt
}

/// One-byte pipe round trips with the daemons ticking: every block point
/// is a chance for background work to land inside the measurement.
pub fn pipe_rtt_us_multiuser(os: Os, round_trips: u32, seed: u64) -> f64 {
    run_multiuser(os, seed, move |p| pipe_rtt(p, round_trips))
}

/// The single-user baseline of [`pipe_rtt_us_multiuser`].
pub fn pipe_rtt_us_singleuser(os: Os, round_trips: u32, seed: u64) -> f64 {
    crate::run_bare(os, seed, move |p| pipe_rtt(p, round_trips))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnt_sim::Summary;

    #[test]
    fn multiuser_mode_terminates_cleanly() {
        let us = syscall_us_multiuser(Os::Linux, 2_000, 1);
        assert!(us > 2.0 && us < 4.0, "still roughly Table 2: {us:.2}");
    }

    #[test]
    fn multiuser_raises_variance_as_section_3_reports() {
        // Blocking benchmarks expose the daemons: their bursts land
        // between round trips at seed-dependent phases.
        let spread = |multi: bool| {
            let samples: Vec<f64> = (1..=10)
                .map(|seed| {
                    if multi {
                        pipe_rtt_us_multiuser(Os::FreeBsd, 300, seed)
                    } else {
                        pipe_rtt_us_singleuser(Os::FreeBsd, 300, seed)
                    }
                })
                .collect();
            Summary::of(&samples).sd_pct()
        };
        let single = spread(false);
        let multi = spread(true);
        assert!(
            multi > single,
            "multi-user runs are noisier: {multi:.2}% vs {single:.2}%"
        );
    }

    #[test]
    fn multiuser_slows_linux_more_than_freebsd() {
        // Four extra live tasks cost Linux's O(n) scheduler on every
        // dispatch; FreeBSD's constant-time queues do not care. Measure
        // with a ctx-style pipe ping to involve the scheduler.
        let pipe_rtt = |os: Os, multi: bool| {
            if multi {
                pipe_rtt_us_multiuser(os, 200, 1)
            } else {
                pipe_rtt_us_singleuser(os, 200, 1)
            }
        };
        let linux_hit = pipe_rtt(Os::Linux, true) - pipe_rtt(Os::Linux, false);
        let freebsd_hit = pipe_rtt(Os::FreeBsd, true) - pipe_rtt(Os::FreeBsd, false);
        assert!(
            linux_hit > freebsd_hit + 0.5,
            "Linux pays per-task scheduler cost: +{linux_hit:.2}us vs +{freebsd_hit:.2}us"
        );
    }
}
