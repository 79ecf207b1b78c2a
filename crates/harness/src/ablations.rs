//! Ablation and projection experiments beyond the paper's own tables:
//!
//! - `x1`: TCP window sweep — how much of Table 5's Linux deficit is the
//!   one-packet window alone;
//! - `x2`: metadata-policy swap — Figure 12 with each filesystem's
//!   sync/async policy toggled;
//! - `x3`: the Solaris dispatch table — Figure 1's 32-process cliff with
//!   the modelled table removed;
//! - `x4`: Section 13's next releases — the Figure 1 and Figure 12
//!   numbers the authors preview for Linux 1.3.40, FreeBSD 2.1 and
//!   Solaris 2.5;
//! - `x8`: NFS degradation under deterministic fault injection — MAB
//!   time against a SunOS server as the RPC drop rate rises.

use crate::experiments::ExperimentOutput;
use crate::plan::{ExperimentPlan, PlanBody};
use crate::plot::{Figure, XScale};
use crate::scale::Scale;
use tnt_core::{
    crtdel_ms, crtdel_ms_with, ctx_us_with, mab_over_nfs_faulty, tcp_bandwidth_mbit,
    tcp_bandwidth_with_window, CtxPattern, Os,
};
use tnt_fs::FsParams;
use tnt_os::future::{freebsd_2_1, linux_1_3_40, solaris_2_5};
use tnt_os::{DispatchCosts, OsCosts};
use tnt_runner::ExperimentRecord;
use tnt_sim::Series;

/// The extra experiment ids, in presentation order.
pub fn extra_ids() -> Vec<&'static str> {
    vec![
        "x1", "x2", "x3", "x4", "x5", "x6", "x7", "x8", "x9", "x10", "x11", "x12",
    ]
}

/// Runs one extra experiment.
pub fn run_extra(id: &str, scale: &Scale) -> ExperimentOutput {
    match id {
        "x1" => x1_tcp_window(scale),
        "x2" => x2_metadata_policy(scale),
        "x3" => x3_dispatch_table(scale),
        "x4" => x4_future_releases(scale),
        "x5" => x5_crash_consistency(scale),
        "x6" => x6_event_counters(scale),
        "x7" => x7_latencies(scale),
        "x8" => x8_nfs_degradation(scale),
        // The farm and replay experiments are planned shards; run them
        // through the serial reference pipeline.
        "x9" | "x10" | "x11" | "x12" => crate::experiments::run_one(id, scale)
            .into_iter()
            .next()
            .expect("planned shard renders one output"),
        other => panic!("unknown ablation id {other:?}"),
    }
}

/// Plans one extra experiment as a single parallel-runner shard (the
/// ablations are cheap single-seed studies; the whole-experiment
/// granularity is enough to overlap them with the big sweeps).
pub(crate) fn plan_extra(id: &str, scale: &Scale) -> ExperimentPlan {
    let (id, title, cost): (&'static str, &'static str, u64) = match id {
        "x1" => ("x1", "ABLATION x1. TCP window sweep", 20_000),
        "x2" => ("x2", "ABLATION x2. Metadata policy", 5_000),
        "x3" => ("x3", "ABLATION x3. Solaris dispatch table", 40_000),
        "x4" => ("x4", "PROJECTION x4. Next releases", 10_000),
        "x5" => ("x5", "ABLATION x5. Crash consistency", 3_000),
        "x6" => ("x6", "PROJECTION x6. Event counters", 3_000),
        "x7" => ("x7", "COMPANION x7. Latencies", 30_000),
        "x8" => ("x8", "ABLATION x8. NFS degradation under loss", 60_000),
        other => panic!("unknown ablation id {other:?}"),
    };
    let scale = scale.clone();
    ExperimentPlan {
        id,
        title,
        body: PlanBody::Whole {
            cost,
            run: Box::new(move || vec![run_extra(id, &scale)]),
        },
    }
}

fn x1_tcp_window(scale: &Scale) -> ExperimentOutput {
    let mut s = Series::new("Linux 1.2.8 stack");
    for window in [1u64, 2, 3, 4, 6, 8, 12] {
        let bw = tcp_bandwidth_with_window(Os::Linux, window, scale.tcp_total, 48 * 1024, 1);
        s.push(window as f64, bw);
    }
    let stock = tcp_bandwidth_mbit(Os::Linux, scale.tcp_total, 48 * 1024, 1);
    let freebsd = tcp_bandwidth_mbit(Os::FreeBsd, scale.tcp_total, 48 * 1024, 1);
    let fig = Figure {
        title: "ABLATION x1. Linux TCP bandwidth vs send window".into(),
        x_label: "window (packets)".into(),
        y_label: "Mb/s".into(),
        x_scale: XScale::Linear,
        series: vec![s],
    };
    let text = format!(
        "{}  stock Linux (window=1): {stock:.1} Mb/s; FreeBSD for reference: {freebsd:.1} Mb/s\n\
         \x20 Section 9.3's claim holds: the one-packet window is the binding\n\
         \x20 constraint; a few packets of window recover most of the gap.\n",
        fig.render()
    );
    let record = ExperimentRecord::new("x1", "ABLATION x1. TCP window sweep", 1)
        .with_stats(fig.stat_lines());
    ExperimentOutput {
        id: "x1",
        title: "ABLATION x1. TCP window sweep",
        text,
        csv: vec![("x1_tcp_window.csv".into(), fig.to_csv())],
        record: Some(record),
    }
}

fn x2_metadata_policy(scale: &Scale) -> ExperimentOutput {
    let iters = scale.crtdel_iters;
    let rows = [
        (
            "Linux/ext2 (async, stock)",
            crtdel_ms(Os::Linux, 1024, iters, 1),
        ),
        (
            "Linux/ext2 forced sync",
            crtdel_ms_with(
                OsCosts::for_os(Os::Linux),
                FsParams::ext2_linux().with_sync_metadata(true),
                1024,
                iters,
                1,
            ),
        ),
        (
            "FreeBSD/FFS (sync, stock)",
            crtdel_ms(Os::FreeBsd, 1024, iters, 1),
        ),
        (
            "FreeBSD/FFS forced async",
            crtdel_ms_with(
                OsCosts::for_os(Os::FreeBsd),
                FsParams::ffs_freebsd().with_sync_metadata(false),
                1024,
                iters,
                1,
            ),
        ),
    ];
    let mut text = String::from(
        "ABLATION x2. Figure 12 with the metadata update policy swapped (1 KB files)\n",
    );
    for (label, ms) in rows {
        text.push_str(&format!("  {label:<28} {ms:>8.2} ms per create/delete\n"));
    }
    text.push_str(
        "  The whole order-of-magnitude Figure 12 gap is the update policy:\n\
         \x20 ext2 with forced-sync metadata behaves like FFS, and FFS with\n\
         \x20 async metadata behaves like ext2.\n",
    );
    ExperimentOutput {
        id: "x2",
        title: "ABLATION x2. Metadata policy",
        text,
        csv: vec![],
        record: Some(ExperimentRecord::new(
            "x2",
            "ABLATION x2. Metadata policy",
            1,
        )),
    }
}

fn x3_dispatch_table(scale: &Scale) -> ExperimentOutput {
    let stock = OsCosts::for_os(Os::Solaris);
    let no_table = OsCosts {
        dispatch: DispatchCosts {
            table_slots: 0,
            table_miss_cy: 0,
            ..stock.dispatch
        },
        ..stock
    };
    let mut with_table = Series::new("Solaris (32-entry table)");
    let mut without = Series::new("Solaris (table removed)");
    for &n in &scale.ctx_procs {
        with_table.push(
            n as f64,
            ctx_us_with(stock, n, scale.ctx_switches, CtxPattern::Ring, 1),
        );
        without.push(
            n as f64,
            ctx_us_with(no_table, n, scale.ctx_switches, CtxPattern::Ring, 1),
        );
    }
    let fig = Figure {
        title: "ABLATION x3. The Solaris dispatch-table hypothesis".into(),
        x_label: "active processes".into(),
        y_label: "µs/switch".into(),
        x_scale: XScale::Linear,
        series: vec![with_table, without],
    };
    let text = format!(
        "{}  Removing the modelled 32-entry dispatch structure removes the\n\
         \x20 Figure 1 jump entirely — the mechanism the authors hypothesised\n\
         \x20 (and could not verify without Solaris source).\n",
        fig.render()
    );
    let record = ExperimentRecord::new("x3", "ABLATION x3. Solaris dispatch table", 1)
        .with_stats(fig.stat_lines());
    ExperimentOutput {
        id: "x3",
        title: "ABLATION x3. Solaris dispatch table",
        text,
        csv: vec![("x3_dispatch_table.csv".into(), fig.to_csv())],
        record: Some(record),
    }
}

fn x4_future_releases(scale: &Scale) -> ExperimentOutput {
    let switches = scale.ctx_switches;
    let mut text = String::from("PROJECTION x4. Section 13: the next releases\n");
    text.push_str("  ctx (ring, µs/switch):          2 procs   32 procs   96 procs\n");
    let rows: [(&str, OsCosts); 4] = [
        ("Linux 1.2.8", OsCosts::for_os(Os::Linux)),
        ("Linux 1.3.40 (dev)", linux_1_3_40()),
        ("Solaris 2.4", OsCosts::for_os(Os::Solaris)),
        ("Solaris 2.5", solaris_2_5()),
    ];
    for (label, costs) in rows {
        let a = ctx_us_with(costs, 2, switches, CtxPattern::Ring, 1);
        let b = ctx_us_with(costs, 32, switches, CtxPattern::Ring, 1);
        let c = ctx_us_with(costs, 96, switches, CtxPattern::Ring, 1);
        text.push_str(&format!("  {label:<28} {a:>9.1} {b:>10.1} {c:>10.1}\n"));
    }
    text.push_str("\n  crtdel (1 KB files, ms/iteration):\n");
    let fs_rows: [(&str, OsCosts, FsParams); 2] = [
        (
            "FreeBSD 2.0.5R (sync FFS)",
            OsCosts::for_os(Os::FreeBsd),
            FsParams::ffs_freebsd(),
        ),
        (
            "FreeBSD 2.1 (ordered async)",
            freebsd_2_1(),
            FsParams::ffs_freebsd_21(),
        ),
    ];
    for (label, costs, fs) in fs_rows {
        let ms = crtdel_ms_with(costs, fs, 1024, scale.crtdel_iters, 1);
        text.push_str(&format!("  {label:<28} {ms:>9.2}\n"));
    }
    text.push_str(
        "\n  As the authors preview: 1.3.40's rewritten scheduler context\n\
         \x20 switches in ~10 µs nearly flat; FreeBSD 2.1's ordered async\n\
         \x20 metadata recovers the Figure 12 order of magnitude while\n\
         \x20 keeping crash ordering.\n",
    );
    ExperimentOutput {
        id: "x4",
        title: "PROJECTION x4. Next releases",
        text,
        csv: vec![],
        record: Some(ExperimentRecord::new(
            "x4",
            "PROJECTION x4. Next releases",
            1,
        )),
    }
}

fn x5_crash_consistency(scale: &Scale) -> ExperimentOutput {
    use tnt_fs::SimFs;

    // Price (crtdel ms) and payoff (durability after a simulated crash)
    // of each metadata policy: the Section 7.2 trade-off, quantified.
    let survey = |os: Os| {
        let (sim, kernel) = tnt_os::boot(os, 1);
        let fs = SimFs::fresh_for_os(os);
        kernel.mount(fs.clone());
        kernel.spawn_user("creator", |p| async move {
            for i in 0..25 {
                let fd = p.creat(&format!("/doc{i}")).await.unwrap();
                p.write(fd, 4096).await.unwrap();
                p.close(fd).await.unwrap();
            }
        });
        // The survey reads the crash report, not the clock.
        let _ = sim.run().expect("crash survey run");
        fs.crash_report()
    };
    let mut text = String::new();
    text.push_str(
        "ABLATION x5. Crash consistency: the price and payoff of sync metadata
",
    );
    text.push_str(
        "  Workload: create and write 25 files, then lose power.

",
    );
    text.push_str(
        "  OS            crtdel (1KB)   files durable   data blocks durable
",
    );
    for os in Os::benchmarked() {
        let r = survey(os);
        let ms = crtdel_ms(os, 1024, scale.crtdel_iters, 1);
        text.push_str(&format!(
            "  {:<12} {:>9.2} ms {:>10}/{:<4} {:>12}/{:<5}
",
            os.label(),
            ms,
            r.durable_entries,
            r.entries,
            r.durable_data_blocks,
            r.data_blocks
        ));
    }
    text.push_str(
        "
  ext2 buys its Figure 12 order of magnitude by risking every
",
    );
    text.push_str(
        "  metadata update since the last sync; the FFS family commits each
",
    );
    text.push_str(
        "  create before returning — 'intended to help preserve file system
",
    );
    text.push_str(
        "  consistency in the event of such failures' (Section 7.2).
",
    );
    ExperimentOutput {
        id: "x5",
        title: "ABLATION x5. Crash consistency",
        text,
        csv: vec![],
        record: Some(ExperimentRecord::new(
            "x5",
            "ABLATION x5. Crash consistency",
            1,
        )),
    }
}

fn x6_event_counters(scale: &Scale) -> ExperimentOutput {
    use tnt_fs::SimFs;

    // Section 13: "architectural support for counting operating system
    // events can reveal more about the workings of an operating system
    // than using timers alone. We plan to apply some of those
    // techniques." The simulation makes every counter visible; here is
    // crtdel, white-boxed.
    let iters = scale.crtdel_iters as u64;
    let mut text = String::new();
    text.push_str(
        "PROJECTION x6. Event counters (Section 13 / [Chen 95]) for crtdel
",
    );
    text.push_str(&format!(
        "  Workload: {iters} crtdel iterations on 1 KB files.

"
    ));
    text.push_str(
        "  OS            syscalls/iter  disk reads/iter  disk writes/iter  dispatches
",
    );
    for os in Os::benchmarked() {
        let (sim, kernel) = tnt_os::boot(os, 1);
        let fs = SimFs::fresh_for_os(os);
        kernel.mount(fs.clone());
        let k2 = kernel.clone();
        kernel.spawn_user("crtdel", move |p| async move {
            for _ in 0..iters {
                tnt_core::crtdel_once(&p, 1024).await;
            }
            let _ = k2;
        });
        // The survey reads event counters, not the clock.
        let _ = sim.run().expect("counter run");
        let ks = kernel.stats();
        let (dreads, dwrites, _) = fs.cache().disk_stats();
        text.push_str(&format!(
            "  {:<12} {:>13.1} {:>16.1} {:>17.1} {:>11}
",
            os.label(),
            ks.syscalls as f64 / iters as f64,
            dreads as f64 / iters as f64,
            dwrites as f64 / iters as f64,
            sim.dispatch_count(),
        ));
    }
    text.push_str(
        "
  The timer-only study could infer Linux 'clearly is not accessing
",
    );
    text.push_str(
        "  the disk'; the counters prove it: zero disk writes per iteration
",
    );
    text.push_str(
        "  on ext2, exactly four synchronous writes on FreeBSD's FFS and two
",
    );
    text.push_str(
        "  on Solaris UFS — the whole Figure 12 story in integers.
",
    );
    ExperimentOutput {
        id: "x6",
        title: "PROJECTION x6. Event counters",
        text,
        csv: vec![],
        record: Some(ExperimentRecord::new(
            "x6",
            "PROJECTION x6. Event counters",
            1,
        )),
    }
}

fn x7_latencies(scale: &Scale) -> ExperimentOutput {
    use tnt_core::{lat_pipe_us, lat_rpc_us, lat_tcp_us, lat_udp_us};

    // lmbench-style latency companions to the paper's bandwidth tables:
    // one-byte round trips over each path, plus a null RPC to each NFS
    // server across the Ethernet.
    let rt = (scale.ctx_switches / 10).max(50) as u32;
    let mut text = String::new();
    text.push_str(
        "COMPANION x7. Round-trip latencies (lmbench-style), microseconds
",
    );
    text.push_str(
        "  OS            lat_pipe    lat_udp    lat_tcp   null RPC->Linux  ->SunOS
",
    );
    for os in Os::benchmarked() {
        let pipe = lat_pipe_us(os, rt, 1);
        let udp = lat_udp_us(os, rt, 1);
        let tcp = lat_tcp_us(os, rt, 1);
        let rpc_l = lat_rpc_us(os, Os::Linux, rt.min(100), 1);
        let rpc_s = lat_rpc_us(os, Os::SunOs, rt.min(100), 1);
        text.push_str(&format!(
            "  {:<12} {:>9.0} {:>10.0} {:>10.0} {:>16.0} {:>8.0}
",
            os.label(),
            pipe,
            udp,
            tcp,
            rpc_l,
            rpc_s
        ));
    }
    text.push_str(
        "
  Latency reorders the bandwidth laggards: Solaris's dispatcher
",
    );
    text.push_str(
        "  dominates one-byte round trips even where its bulk bandwidth
",
    );
    text.push_str(
        "  beats Linux; FreeBSD leads both games, which is why it carries
",
    );
    text.push_str(
        "  NFS (Tables 6-7) so well.
",
    );
    ExperimentOutput {
        id: "x7",
        title: "COMPANION x7. Latencies",
        text,
        csv: vec![],
        record: Some(ExperimentRecord::new("x7", "COMPANION x7. Latencies", 1)),
    }
}

fn x8_nfs_degradation(_scale: &Scale) -> ExperimentOutput {
    use tnt_sim::fault::FaultProfile;

    // Tables 6-7's hardest cell (FreeBSD client, SunOS server) rerun
    // under rising deterministic RPC loss: each rate drops frames on
    // the wire and RPC requests/replies at the server with the same
    // probability. Every dropped call costs the client at least one
    // 700 ms retransmission timeout, so MAB time must rise
    // monotonically with the rate — the degradation curve the fault
    // plane exists to measure. One fixed seed per point: the curve is
    // a property of the loss rate, not of seed averaging.
    let rates = [0.0_f64, 0.01, 0.05];
    let mut s = Series::new("FreeBSD client, SunOS server");
    for &rate in &rates {
        let profile = FaultProfile {
            net_drop: rate,
            rpc_request_drop: rate,
            rpc_reply_drop: rate,
            ..FaultProfile::off()
        };
        let report = mab_over_nfs_faulty(Os::FreeBsd, Os::SunOs, 0, profile);
        s.push(rate * 100.0, report.total_s);
    }
    let fig = Figure {
        title: "ABLATION x8. MAB over NFS under deterministic RPC loss".into(),
        x_label: "drop rate (%)".into(),
        y_label: "MAB total (s)".into(),
        x_scale: XScale::Linear,
        series: vec![s],
    };
    let text = format!(
        "{}  Each dropped request or reply stalls the client for a full RPC\n\
         \x20 timeout (700 ms, doubling per retry), so even 1% loss is visible\n\
         \x20 and 5% dominates the run. The server's duplicate-request cache\n\
         \x20 absorbs the retransmissions: non-idempotent operations still\n\
         \x20 execute exactly once, the run only gets slower, never wrong.\n",
        fig.render()
    );
    let record = ExperimentRecord::new("x8", "ABLATION x8. NFS degradation under loss", 1)
        .with_stats(fig.stat_lines());
    ExperimentOutput {
        id: "x8",
        title: "ABLATION x8. NFS degradation under loss",
        text,
        csv: vec![("x8_nfs_degradation.csv".into(), fig.to_csv())],
        record: Some(record),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extras_render_at_smoke_scale() {
        let scale = Scale::smoke();
        for id in extra_ids() {
            let out = run_extra(id, &scale);
            assert!(!out.text.is_empty(), "{id} rendered empty");
        }
    }

    #[test]
    fn x2_policy_swap_inverts_the_gap() {
        let scale = Scale::smoke();
        let out = run_extra("x2", &scale);
        assert!(out.text.contains("forced sync"));
        assert!(out.text.contains("forced async"));
    }

    #[test]
    fn x5_shows_the_tradeoff() {
        let out = run_extra("x5", &Scale::smoke());
        assert!(
            out.text.contains("25"),
            "entry counts present:
{}",
            out.text
        );
        assert!(out.text.contains("Linux") && out.text.contains("FreeBSD"));
    }

    #[test]
    fn x6_counts_the_figure_12_mechanism() {
        let out = run_extra("x6", &Scale::smoke());
        assert!(out.text.contains("syscalls/iter"));
        // FreeBSD: exactly 4 sync disk writes per iteration.
        let freebsd_line = out
            .text
            .lines()
            .find(|l| l.trim_start().starts_with("FreeBSD"))
            .expect("FreeBSD row");
        assert!(
            freebsd_line.contains("4.0"),
            "4 sync writes/iter: {freebsd_line}"
        );
        let linux_line = out
            .text
            .lines()
            .find(|l| l.trim_start().starts_with("Linux"))
            .expect("Linux row");
        assert!(
            linux_line.contains("0.0"),
            "no disk writes on ext2: {linux_line}"
        );
    }

    #[test]
    fn x7_reports_all_paths() {
        let out = run_extra("x7", &Scale::smoke());
        for col in ["lat_pipe", "lat_udp", "lat_tcp", "null RPC"] {
            assert!(out.text.contains(col), "{col} missing:\n{}", out.text);
        }
    }

    #[test]
    fn x8_degradation_is_monotone_in_the_drop_rate() {
        let out = run_extra("x8", &Scale::smoke());
        let csv = &out.csv[0].1;
        let times: Vec<f64> = csv
            .lines()
            .skip(1)
            .map(|l| l.split(',').nth(1).unwrap().parse().unwrap())
            .collect();
        assert_eq!(times.len(), 3, "three drop rates:\n{csv}");
        assert!(
            times.windows(2).all(|w| w[1] >= w[0]),
            "MAB time must not improve as loss rises: {times:?}"
        );
        // 5% loss must actually hurt: each drop costs >= one 700 ms
        // retransmission timeout, so the curve is visibly degraded,
        // not flat within noise.
        assert!(
            times[2] > times[0] * 1.05,
            "5% loss barely moved the needle: {times:?}"
        );
    }

    #[test]
    fn x4_mentions_both_release_lines() {
        let out = run_extra("x4", &Scale::smoke());
        assert!(out.text.contains("Linux 1.3.40"));
        assert!(out.text.contains("FreeBSD 2.1"));
        assert!(out.text.contains("Solaris 2.5"));
    }
}
