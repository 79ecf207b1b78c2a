//! The large-file workload of Section 7: "video playback and editing
//! and large databases ... need high raw bandwidth and fast seeking".
//!
//! A toy playback loop streams a large media file at a fixed frame rate
//! on each system and reports dropped frames; a toy database mixes
//! random reads and writes. Both are thin wrappers over the same syscall
//! interface the paper's benchmarks use.
//!
//! ```text
//! cargo run --release --example video_playback
//! ```

use tnt_core::{run_with_fs, timed};
use tnt_os::{OpenFlags, Os};
use tnt_sim::Cycles;

/// 30 fps of ~64 KB frames = ~1.9 MB/s, a generous mid-90s video.
const FRAME_BYTES: u64 = 64 * 1024;
const FRAME_BUDGET_US: f64 = 1_000_000.0 / 30.0;
const FRAMES: u64 = 600; // ~37 MB, beyond the 20 MB cache
const DB_OPS: u32 = 150;

fn playback(os: Os) -> (u64, f64) {
    run_with_fs(os, 1, move |p| async move {
        let fd = p.creat("/movie.raw").await.unwrap();
        for _ in 0..FRAMES {
            p.write(fd, FRAME_BYTES).await.unwrap();
        }
        p.close(fd).await.unwrap();
        // Play it back: each frame must arrive within its budget.
        let fd = p.open("/movie.raw", OpenFlags::rdonly()).await.unwrap();
        let mut dropped = 0;
        let t0 = p.sim().now();
        for _ in 0..FRAMES {
            let (_, took) = timed(&p, async {
                let mut left = FRAME_BYTES;
                while left > 0 {
                    let n = p.read(fd, left.min(8192)).await.unwrap();
                    assert!(n > 0, "file ends early");
                    left -= n;
                }
                p.compute(Cycles::from_micros(500.0)); // decode
            })
            .await;
            if took.as_micros() > FRAME_BUDGET_US {
                dropped += 1;
            }
        }
        let elapsed = (p.sim().now() - t0).as_secs();
        p.close(fd).await.unwrap();
        let mb_s = (FRAMES * FRAME_BYTES) as f64 / (1024.0 * 1024.0) / elapsed;
        (dropped, mb_s)
    })
}

fn database(os: Os) -> f64 {
    run_with_fs(os, 1, move |p| async move {
        let fd = p.creat("/table.db").await.unwrap();
        let pages = 3_000u64; // 24 MB of 8 KB pages
        for _ in 0..pages {
            p.write(fd, 8192).await.unwrap();
        }
        p.close(fd).await.unwrap();
        let fd = p.open("/table.db", OpenFlags::rdwr()).await.unwrap();
        // Random page read-modify-write, the bonnie seek pattern.
        let offsets: Vec<u64> = (0..DB_OPS)
            .map(|_| p.sim().with_rng(|r| rand_page(r, pages)) * 8192)
            .collect();
        let (_, d) = timed(&p, async {
            for off in offsets {
                p.lseek(fd, off).unwrap();
                p.read(fd, 8192).await.unwrap();
                p.lseek(fd, off).unwrap();
                p.write(fd, 8192).await.unwrap();
            }
        })
        .await;
        p.close(fd).await.unwrap();
        DB_OPS as f64 / d.as_secs()
    })
}

fn rand_page(rng: &mut rand::rngs::StdRng, pages: u64) -> u64 {
    rand::Rng::gen_range(rng, 0..pages)
}

fn main() {
    println!("== large-file workloads: video playback and a toy database ==\n");
    println!(
        "  {:<12} {:>14} {:>12} {:>14}",
        "OS", "frames dropped", "stream MB/s", "db txn/s"
    );
    for os in Os::benchmarked() {
        let (dropped, mb_s) = playback(os);
        let txn = database(os);
        println!(
            "  {:<12} {:>8}/{:<5} {:>12.2} {:>14.0}",
            os.label(),
            dropped,
            FRAMES,
            mb_s,
            txn
        );
    }
    println!("\nthe Figure 9/11 story: Solaris's aggressive read-ahead streams");
    println!("large files best, while Linux's 1 KB blocks and fragmented");
    println!("allocator drop frames; random page updates converge towards the");
    println!("disk's ~14 ms once the working set escapes the buffer cache.");

    record_and_replay();
}

/// The replay plane (DESIGN.md §15): capture a short playback's disk
/// activity as a `.tntrace` stream, then drive it back through a fresh
/// disk model. The as-fast-as-possible replay must reproduce the
/// recorded disk busy time exactly — same fresh disk, same command
/// sequence, same service times.
fn record_and_replay() {
    use tnt_harness::{replay_trace, ReplayOptions};

    println!("\n== record & replay: the same workload as a .tntrace ==\n");
    println!(
        "  {:<12} {:>7} {:>14} {:>14} {:>6}",
        "OS", "events", "recorded busy", "replay busy", "match"
    );
    let frames = 400u64; // ~26 MB: past the buffer cache, so the disk works
    for os in Os::benchmarked() {
        let (sim, kernel) = tnt_os::boot(os, 1);
        let fs = tnt_fs::SimFs::fresh_for_os(os);
        kernel.mount(fs.clone());
        sim.recorder().enable();
        kernel.spawn_user("playback", move |p| async move {
            let fd = p.creat("/movie.raw").await.unwrap();
            for _ in 0..frames {
                p.write(fd, FRAME_BYTES).await.unwrap();
            }
            p.close(fd).await.unwrap();
            let fd = p.open("/movie.raw", OpenFlags::rdonly()).await.unwrap();
            for _ in 0..frames {
                let mut left = FRAME_BYTES;
                while left > 0 {
                    left -= p.read(fd, left.min(8192)).await.unwrap();
                }
            }
            p.close(fd).await.unwrap();
        });
        // The replay check compares disk busy time, not the final clock.
        let _ = sim.run().unwrap();
        let recorded = fs.cache().disk().busy_cycles();
        let trace = sim.recorder().take();
        let replay = replay_trace(&trace, os, 1, ReplayOptions::asap());
        let ms = |cy: u64| cy as f64 / 100_000.0;
        println!(
            "  {:<12} {:>7} {:>11.2} ms {:>11.2} ms {:>6}",
            os.label(),
            trace.len(),
            ms(recorded.0),
            ms(replay.busy_cy),
            if replay.busy_cy == recorded.0 {
                "yes"
            } else {
                "NO"
            },
        );
    }
    println!("\nsave a capture with `reproduce replay --record <id>`, inspect it");
    println!("with docs/TRACE_FORMAT.md, and replay it on any OS model with");
    println!("`reproduce replay <trace>` — including under `--faults lossy`.");
}
