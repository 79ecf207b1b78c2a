//! Host handoffs — dispatches that wake a threaded process's host thread
//! other than the dispatcher's — per public entry point. Every kernel
//! process is an engine task, so every `tnt_core` benchmark, the farm
//! rig, trace replay and the explore scenarios run on the caller's
//! thread alone. The engine bench's threaded ring still pays handoffs,
//! which keeps the check able to fail.
//!
//! The count is read from a `tnt_trace` session, which folds in every
//! simulation built while it is open. Every simulation in this binary is
//! built inside one, and sessions are serialised, so tests running
//! concurrently never land in each other's reports.

use tnt_core::{
    bonnie, crtdel_ms, ctx_us, fork_exec_us, fork_exit_us, lat_pipe_us, lat_rpc_us, lat_tcp_us,
    lat_udp_us, mab_local, mab_over_nfs, pipe_bandwidth_mbit, pipe_rtt_us_multiuser, syscall_us,
    syscall_us_multiuser, tcp_bandwidth_mbit, udp_bandwidth_mbit, CtxPattern, Os, BW_PIPE_CHUNK,
    BW_TCP_CHUNK,
};
use tnt_farm::{run_farm, FarmConfig};
use tnt_harness::{
    desktop_boot_trace, explore_ids, replay_trace, run_explore, threaded_ring, ReplayOptions,
};
use tnt_sim::trace::{session, Counter};

/// Host handoffs across every simulation `f` builds and runs.
fn host_handoffs<T>(f: impl FnOnce() -> T) -> u64 {
    let (_, report) = session::run(1024, f);
    assert!(report.sims > 0, "the entry point ran no simulation");
    report.counter(Counter::HostHandoffs)
}

#[test]
fn the_farm_rig_runs_on_the_callers_thread() {
    for os in [Os::Linux, Os::FreeBsd] {
        let tcp = FarmConfig::tcp(os, 400.0, 40, 1);
        assert_eq!(host_handoffs(|| run_farm(&tcp)), 0, "{os:?} tcp farm");
        let nfs = FarmConfig::nfs(os, 100.0, 20, 1);
        assert_eq!(host_handoffs(|| run_farm(&nfs)), 0, "{os:?} nfs farm");
    }
}

#[test]
fn trace_replay_runs_on_the_callers_thread() {
    let trace = desktop_boot_trace();
    for opts in [ReplayOptions::asap(), ReplayOptions::timed()] {
        let handoffs = host_handoffs(|| replay_trace(&trace, Os::Solaris, 1, opts));
        assert_eq!(handoffs, 0, "{:?} replay", opts.mode);
    }
}

#[test]
fn socket_benchmarks_run_on_the_callers_thread() {
    let os = Os::Linux;
    let checks = [
        (
            "bw_tcp",
            host_handoffs(|| tcp_bandwidth_mbit(os, 64 << 10, BW_TCP_CHUNK, 0)),
        ),
        (
            "ttcp",
            host_handoffs(|| udp_bandwidth_mbit(os, 1024, 64 << 10, 0)),
        ),
        ("lat_tcp", host_handoffs(|| lat_tcp_us(os, 10, 0))),
        ("lat_udp", host_handoffs(|| lat_udp_us(os, 10, 0))),
    ];
    for (name, handoffs) in checks {
        assert_eq!(handoffs, 0, "{name}");
    }
}

#[test]
fn pipe_benchmarks_run_on_the_callers_thread() {
    let os = Os::FreeBsd;
    assert_eq!(
        host_handoffs(|| ctx_us(os, 4, 200, CtxPattern::Ring, 0)),
        0,
        "ctx"
    );
    let bw = host_handoffs(|| pipe_bandwidth_mbit(os, 256 << 10, BW_PIPE_CHUNK, 0));
    assert_eq!(bw, 0, "bw_pipe");
    assert_eq!(host_handoffs(|| lat_pipe_us(os, 10, 0)), 0, "lat_pipe");
}

#[test]
fn filesystem_and_nfs_benchmarks_run_on_the_callers_thread() {
    let checks = [
        ("bonnie", host_handoffs(|| bonnie(Os::Linux, 1, 10, 0))),
        (
            "crtdel",
            host_handoffs(|| crtdel_ms(Os::FreeBsd, 1024, 2, 0)),
        ),
        ("mab local", host_handoffs(|| mab_local(Os::Solaris, 0))),
        (
            "mab over nfs, linux server",
            host_handoffs(|| mab_over_nfs(Os::Linux, Os::Linux, 0)),
        ),
        (
            "mab over nfs, sunos server",
            host_handoffs(|| mab_over_nfs(Os::Solaris, Os::SunOs, 0)),
        ),
        (
            "lat_rpc",
            host_handoffs(|| lat_rpc_us(Os::FreeBsd, Os::Linux, 10, 0)),
        ),
    ];
    for (name, handoffs) in checks {
        assert_eq!(handoffs, 0, "{name}");
    }
}

#[test]
fn process_benchmarks_run_on_the_callers_thread() {
    let os = Os::Linux;
    let checks = [
        ("getpid", host_handoffs(|| syscall_us(os, 1_000, 0))),
        ("fork+exit", host_handoffs(|| fork_exit_us(os, 5, 0))),
        ("fork+exec", host_handoffs(|| fork_exec_us(os, 5, 0))),
        (
            "multiuser getpid",
            host_handoffs(|| syscall_us_multiuser(os, 1_000, 1)),
        ),
        (
            "multiuser pipe",
            host_handoffs(|| pipe_rtt_us_multiuser(os, 50, 1)),
        ),
    ];
    for (name, handoffs) in checks {
        assert_eq!(handoffs, 0, "{name}");
    }
}

#[test]
fn explore_scenarios_run_on_the_callers_thread() {
    for name in explore_ids() {
        let handoffs = host_handoffs(|| {
            let outcomes = run_explore(&[name.to_string()], 512).unwrap();
            assert!(
                outcomes[0].report.passed(),
                "{name}: {:?}",
                outcomes[0].report.failures
            );
        });
        assert_eq!(handoffs, 0, "{name}");
    }
}

#[test]
fn threaded_benchmarks_still_hand_off() {
    assert!(
        host_handoffs(|| threaded_ring(8, 10, 0)) > 0,
        "threaded ring"
    );
}
