//! The software-engineering workload the paper's group actually cared
//! about: which free UNIX should a research lab compile on?
//!
//! Runs the Modified Andrew Benchmark locally on each system and over
//! NFS against both server types, then prints a recommendation table —
//! the Section 12 conclusion, regenerated.
//!
//! ```text
//! cargo run --release --example compile_farm
//! ```

use tnt_core::{mab_local, mab_over_nfs};
use tnt_harness::{capture_experiment, replay_trace, ReplayOptions, Scale};
use tnt_os::Os;
use tnt_sim::fault::FaultProfile;

fn main() {
    println!("== compile farm: the Modified Andrew Benchmark everywhere ==\n");

    println!("local disk (Table 3):");
    println!(
        "  {:<12} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "OS", "mkdir", "copy", "stat", "read", "compile", "TOTAL"
    );
    for os in Os::benchmarked() {
        let r = mab_local(os, 1);
        println!(
            "  {:<12} {:>7.2}s {:>7.2}s {:>7.2}s {:>7.2}s {:>7.2}s {:>7.2}s",
            os.label(),
            r.phase_s[0],
            r.phase_s[1],
            r.phase_s[2],
            r.phase_s[3],
            r.phase_s[4],
            r.total_s
        );
    }

    for (server, label) in [
        (Os::Linux, "Linux 1.2.8 (async writes)"),
        (Os::SunOs, "SunOS 4.1.4 (sync writes)"),
    ] {
        println!("\nover NFS, server = {label}:");
        for client in Os::benchmarked() {
            let r = mab_over_nfs(client, server, 1);
            println!("  {:<12} client: {:>7.2}s total", client.label(), r.total_s);
        }
    }

    println!("\nconclusions (as in Section 12):");
    println!("  - Linux wins locally: async metadata absorbs the compiler's churn;");
    println!("  - FreeBSD wins remotely: its network stack carries NFS best;");
    println!("  - the Linux client collapses against a spec-compliant (sync) NFS");
    println!("    server: its 1 KB write RPCs each pay a disk commit.");

    replay_the_compile();
}

/// The README's record → replay → replay-under-faults story, end to
/// end: capture the bonnie streams of experiment f9 as `.tntrace`
/// streams, replay the busiest one as fast as possible (a clean run
/// reproduces the recorded disk schedule), then replay the same trace
/// on the `lossy` fault profile and watch retries stretch the disk.
fn replay_the_compile() {
    println!("\n== record & replay the bonnie stream (f9, smoke) ==\n");
    let traces = capture_experiment("f9", &Scale::smoke());
    let trace = traces
        .iter()
        .max_by_key(|t| t.len())
        .expect("f12 boots at least one machine");
    println!(
        "  captured {} machine trace(s); replaying the busiest ({} events)",
        traces.len(),
        trace.len()
    );

    let clean = replay_trace(trace, Os::FreeBsd, 1, ReplayOptions::asap());
    tnt_sim::fault::set_ambient(FaultProfile::lossy());
    let lossy = replay_trace(trace, Os::FreeBsd, 1, ReplayOptions::asap());
    tnt_sim::fault::set_ambient(FaultProfile::off());

    let ms = |cy: u64| cy as f64 / 100_000.0;
    println!(
        "  {:<8} {:>9} {:>8} {:>6} {:>12}",
        "faults", "commands", "retries", "EIO", "disk busy"
    );
    for (label, r) in [("off", &clean), ("lossy", &lossy)] {
        println!(
            "  {:<8} {:>9} {:>8} {:>6} {:>9.2} ms",
            label,
            r.commands,
            r.faults,
            r.eio,
            ms(r.busy_cy)
        );
    }
    println!("\nthe trace is the workload: the same recorded schedule, re-run");
    println!("against a flaky disk, without touching the original benchmark.");
}
