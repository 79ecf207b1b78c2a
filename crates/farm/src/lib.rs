#![warn(clippy::unwrap_used)]

//! tnt-farm: the internet-server load lab.
//!
//! The paper's microbenchmarks say *how fast each primitive is*; this
//! crate asks the question a 1996 webmaster or NFS admin would: **how
//! many clients can one Pentium server running each OS actually carry,
//! and what does the latency tail look like on the way down?**
//!
//! Three planes compose:
//!
//! * **Topology** ([`tnt_net::Switch`]): 8 client hosts and one server
//!   host on per-host 100 Mb/s access links through a store-and-forward
//!   switch — bandwidth serialisation and bounded drop-tail queues per
//!   link direction.
//! * **Load**: open-loop, wrk2-style Poisson arrivals. Arrival instants
//!   are precomputed from a salted seed, so clients keep offering work
//!   at the nominal rate no matter how saturated the server is —
//!   coordinated omission is impossible by construction.
//! * **Measurement** ([`LatHist`]): a dependency-free HDR-style
//!   log-bucket histogram of per-request sojourn times, reporting
//!   p50/p95/p99/p999.
//!
//! The rig is fixed; a [`FarmConfig`] names only what a run varies: the
//! OS, the [`Workload`], the offered rate, the request count and the
//! seed. [`run_farm`] ties the planes together over the calibrated OS
//! personalities:
//! the server machine pays its own scheduler dispatch costs, its TCP
//! stack's window/ack behaviour (Linux 1.2.8's one-packet window), its
//! UDP fragmentation path, and its filesystem's synchronous metadata
//! writes — so capacity and tail curves *diverge by OS* for the same
//! mechanical reasons the paper's Tables 5–6 do.

mod farm;
mod hist;
mod load;

pub use farm::{run_farm, run_farm_with_faults, FarmConfig, FarmReport, Workload};
pub use hist::LatHist;
pub use load::Rng64;

#[cfg(test)]
mod tests {
    use super::*;
    use tnt_os::Os;
    use tnt_sim::fault::FaultProfile;

    /// Compact fingerprint of everything a report says; equality of two
    /// fingerprints is equality of runs for determinism purposes.
    fn fingerprint(r: &FarmReport) -> Vec<u64> {
        vec![
            r.completed,
            r.failed,
            r.retries,
            r.backlog_drops,
            r.queue_drops,
            r.fault_drops,
            r.hist.p50(),
            r.hist.p95(),
            r.hist.p99(),
            r.hist.p999(),
            r.elapsed.0,
            r.achieved_rps.to_bits(),
        ]
    }

    #[test]
    fn below_the_knee_everyone_completes_quickly() {
        for os in [Os::Linux, Os::FreeBsd, Os::Solaris] {
            let r = run_farm(&FarmConfig::tcp(os, 200.0, 150, 11));
            assert_eq!(r.completed, 150, "{os:?}: all requests must finish");
            assert_eq!(r.failed, 0, "{os:?}");
            assert_eq!(r.retries, 0, "{os:?}: no overload, no retries");
            // Well under one RTO: a lightly loaded server answers in
            // single-digit milliseconds.
            assert!(
                r.hist.p99() < 5_000_000,
                "{os:?}: p99 {} cy too slow for 200 rps",
                r.hist.p99()
            );
            let ratio = r.achieved_rps / r.offered_rps;
            assert!(
                (0.5..=1.5).contains(&ratio),
                "{os:?}: achieved {} vs offered {}",
                r.achieved_rps,
                r.offered_rps
            );
        }
    }

    /// A report's counts, quantiles and elapsed cycles, in report
    /// order (all but the rates and p95).
    fn counts(r: &FarmReport) -> [u64; 11] {
        [
            r.completed,
            r.failed,
            r.retries,
            r.backlog_drops,
            r.queue_drops,
            r.fault_drops,
            r.hist.p50(),
            r.hist.p99(),
            r.hist.p999(),
            r.elapsed.0,
            r.lite_polls,
        ]
    }

    #[test]
    fn same_seed_runs_are_byte_identical() {
        let cfg = FarmConfig::tcp(Os::Linux, 900.0, 250, 42);
        let r = run_farm(&cfg);
        assert_eq!(
            counts(&r),
            [250, 0, 0, 0, 0, 0, 5_767_167, 10_485_759, 10_485_759, 33_655_094, 750],
            "the Linux TCP run is pinned"
        );
        let a = fingerprint(&r);
        let b = fingerprint(&run_farm(&cfg));
        assert_eq!(a, b, "same seed, same farm");
        let other = fingerprint(&run_farm(&FarmConfig::tcp(Os::Linux, 900.0, 250, 43)));
        assert_ne!(a, other, "the seed must actually matter");
    }

    #[test]
    fn linux_tail_diverges_past_the_knee() {
        // 900 rps is past Linux 1.2.8's knee (one-packet window burns a
        // delayed-ack round per reply segment and the O(n) scheduler
        // taxes every dispatch) but inside FreeBSD's capacity.
        let lin = run_farm(&FarmConfig::tcp(Os::Linux, 900.0, 300, 7));
        let bsd = run_farm(&FarmConfig::tcp(Os::FreeBsd, 900.0, 300, 7));
        assert!(
            bsd.retries == 0 && bsd.failed == 0,
            "FreeBSD must still be comfortable at 900 rps: {bsd:?}"
        );
        assert!(
            lin.hist.p99() > 3 * bsd.hist.p99(),
            "Linux p99 {} must blow past FreeBSD p99 {}",
            lin.hist.p99(),
            bsd.hist.p99()
        );
    }

    #[test]
    fn overload_saturates_below_the_offered_rate() {
        let r = run_farm(&FarmConfig::tcp(Os::Linux, 5_000.0, 400, 3));
        assert!(
            r.achieved_rps < r.offered_rps * 0.6,
            "achieved {} should saturate well below offered {}",
            r.achieved_rps,
            r.offered_rps
        );
        // The overload shows up as queueing: the median request waits an
        // order of magnitude longer than a lightly loaded one.
        let calm = run_farm(&FarmConfig::tcp(Os::Linux, 200.0, 150, 3));
        assert!(
            r.hist.p50() > 10 * calm.hist.p50(),
            "overload p50 {} vs calm p50 {}",
            r.hist.p50(),
            calm.hist.p50()
        );
    }

    #[test]
    fn a_tiny_backlog_forces_drops_and_retries() {
        // FreeBSD pays two 4 ms synchronous metadata writes per NFS
        // write on one disk, so it drains about 125 req/s: at 400 req/s
        // the 64-deep accept queue is tiny, it overflows, and the
        // RTO/retry machinery earns its keep. Every request is still
        // accounted for.
        let r = run_farm(&FarmConfig::nfs(Os::FreeBsd, 400.0, 600, 13));
        assert!(
            r.backlog_drops > 0,
            "the 64-deep backlog must overflow: {r:?}"
        );
        assert!(r.retries > 0, "drops must trigger retransmissions: {r:?}");
        assert_eq!(
            r.completed + r.failed,
            600,
            "every request is accounted for"
        );
        assert_eq!(
            counts(&r),
            [
                600,
                0,
                714,
                714,
                0,
                0,
                134_217_727,
                503_316_479,
                503_316_479,
                1_197_341_876,
                2_514
            ],
            "the overflowing FreeBSD NFS run is pinned"
        );
    }

    #[test]
    fn lossy_faults_degrade_capacity_monotonically() {
        let cfg = FarmConfig::tcp(Os::FreeBsd, 600.0, 250, 9);
        let mut last_p99 = 0u64;
        let mut last_rps = f64::INFINITY;
        for drop in [0.0, 0.05, 0.2] {
            let profile = FaultProfile {
                net_drop: drop,
                ..FaultProfile::off()
            };
            let r = run_farm_with_faults(&cfg, profile);
            assert!(
                r.hist.p99() >= last_p99,
                "p99 must not improve as loss rises: {} then {} at {drop}",
                last_p99,
                r.hist.p99()
            );
            assert!(
                r.achieved_rps <= last_rps * 1.001,
                "capacity must not rise with loss: {} then {} at {drop}",
                last_rps,
                r.achieved_rps
            );
            last_p99 = r.hist.p99();
            last_rps = r.achieved_rps;
        }
        assert!(last_p99 > 0, "the lossy runs must have completed work");
    }

    #[test]
    fn nfs_sync_metadata_inverts_the_tcp_ranking() {
        // Over NFS writes, FreeBSD's two synchronous metadata writes per
        // request bottleneck on the disk; Linux's async metadata keeps
        // the disk out of the path entirely. The TCP winner loses here,
        // exactly the paper's Table 6 inversion.
        let lin = run_farm(&FarmConfig::nfs(Os::Linux, 160.0, 200, 5));
        let bsd = run_farm(&FarmConfig::nfs(Os::FreeBsd, 160.0, 200, 5));
        let lin_hurt = lin.retries + lin.failed + lin.backlog_drops;
        let bsd_hurt = bsd.retries + bsd.failed + bsd.backlog_drops;
        assert!(
            bsd_hurt > lin_hurt || bsd.hist.p99() > 3 * lin.hist.p99(),
            "FreeBSD NFS must suffer where Linux NFS does not: \
             bsd(p99 {} hurt {bsd_hurt}) vs lin(p99 {} hurt {lin_hurt})",
            bsd.hist.p99(),
            lin.hist.p99()
        );
    }
}
