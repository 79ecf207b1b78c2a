//! Quick calibration readout (internal tool; the real harness is tnt-harness).
use tnt_core::*;
use tnt_os::Os;

/// `p` rounded to two decimals, for display.
#[expect(
    clippy::disallowed_methods,
    reason = "a display rounding, not a simulated cost"
)]
fn two_decimals(p: f64) -> f64 {
    (p * 100.0).round() / 100.0
}

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    if which == "mab" || which == "all" {
        for os in Os::benchmarked() {
            let r = mab_local(os, 0);
            println!(
                "T3 {os:?}: total {:.2}s phases {:?}",
                r.total_s,
                r.phase_s.map(two_decimals)
            );
        }
    }
    if which == "nfs" || which == "all" {
        for server in [Os::Linux, Os::SunOs] {
            for client in Os::benchmarked() {
                let r = mab_over_nfs(client, server, 0);
                println!(
                    "NFS server={server:?} client={client:?}: {:.2}s phases {:?}",
                    r.total_s,
                    r.phase_s.map(two_decimals)
                );
            }
        }
    }
    if which == "bonnie" || which == "all" {
        for mb in [4u64, 40] {
            for os in Os::benchmarked() {
                let r = bonnie(os, mb, 60, 0);
                println!(
                    "bonnie {mb}MB {os:?}: w {:.2} r {:.2} MB/s, {:.0} seeks/s",
                    r.write_mb_s, r.read_mb_s, r.seeks_per_s
                );
            }
        }
    }
    if which == "crtdel" || which == "all" {
        for size in [1024u64, 1 << 20] {
            for os in Os::benchmarked() {
                println!("crtdel {size}B {os:?}: {:.1} ms", crtdel_ms(os, size, 6, 0));
            }
        }
    }
}
