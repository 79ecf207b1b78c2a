//! The Section 7.2 trade-off, hands on: what a power failure costs each
//! filesystem, and what `sync` buys you.
//!
//! The paper observes that ext2's asynchronous metadata "could result in
//! losing more data after a system crash", while FFS's synchronous
//! updates "help preserve file system consistency". The simulator lets
//! us actually pull the plug: write a batch of files, crash at a chosen
//! moment, and count survivors.
//!
//! ```text
//! cargo run --release --example crash_lab
//! ```

use std::sync::Arc;

use tnt_fs::{CrashReport, Disk, DiskParams, FsParams, SimFs};
use tnt_os::{boot, boot_with, future, Filesystem, Os};

const FILES: u64 = 40;
const FILE_BYTES: u64 = 6 * 1024;

/// Creates `FILES` files, optionally syncing, then "crashes".
fn experiment(os: Os, sync_before_crash: bool) -> (CrashReport, f64) {
    let (sim, kernel) = boot(os, 1);
    let fs = SimFs::fresh_for_os(os);
    kernel.mount(fs.clone());
    let fs2 = fs.clone();
    kernel.spawn_user("writer", move |p| async move {
        for i in 0..FILES {
            let fd = p.creat(&format!("/mail{i}")).await.unwrap();
            p.write(fd, FILE_BYTES).await.unwrap();
            p.close(fd).await.unwrap();
        }
        if sync_before_crash {
            fs2.sync(p.kernel().env()).await;
        }
    });
    let elapsed = sim.run().unwrap().as_secs();
    (fs.crash_report(), elapsed)
}

/// The FreeBSD 2.1 preview: ordered asynchronous metadata.
fn experiment_freebsd_21() -> (CrashReport, f64) {
    let (sim, kernel) = boot_with(future::freebsd_2_1(), 1);
    let disk = Arc::new(Disk::new(DiskParams::hp3725()));
    let fs = SimFs::new(disk, FsParams::ffs_freebsd_21());
    kernel.mount(fs.clone());
    kernel.spawn_user("writer", move |p| async move {
        for i in 0..FILES {
            let fd = p.creat(&format!("/mail{i}")).await.unwrap();
            p.write(fd, FILE_BYTES).await.unwrap();
            p.close(fd).await.unwrap();
        }
    });
    let elapsed = sim.run().unwrap().as_secs();
    (fs.crash_report(), elapsed)
}

fn row(label: &str, r: CrashReport, secs: f64) {
    println!(
        "  {label:<34} {:>4.1} ms/file   {:>3}/{:<3} files   {:>4}/{:<4} data blocks",
        secs * 1000.0 / FILES as f64,
        r.durable_entries,
        r.entries,
        r.durable_data_blocks,
        r.data_blocks
    );
}

fn main() {
    println!("== crash lab: pull the plug after writing {FILES} small files ==\n");
    println!(
        "  {:<34} {:>12} {:>14} {:>16}",
        "configuration", "write cost", "meta durable", "data durable"
    );
    for os in Os::benchmarked() {
        let (r, secs) = experiment(os, false);
        row(os.label(), r, secs);
    }
    println!();
    let (r, secs) = experiment(Os::Linux, true);
    row("Linux + sync(2) before crash", r, secs);
    let (r, secs) = experiment_freebsd_21();
    row("FreeBSD 2.1 (ordered async)", r, secs);

    // What does FFS durability actually cost? Work it out per file.
    let sync_cost = {
        let fast = experiment(Os::Linux, false).1;
        let safe = experiment(Os::FreeBsd, false).1;
        (safe - fast) * 1000.0 / FILES as f64
    };
    println!("\nreading the table:");
    println!("  - ext2 loses every file not yet flushed: speed borrowed from durability;");
    println!("  - FFS pays ~{sync_cost:.0} ms of synchronous seeks per file to make");
    println!("    each create durable before creat(2) returns;");
    println!("  - an explicit sync(2) buys ext2 durability at one batched flush;");
    println!("  - FreeBSD 2.1's ordered async metadata (Section 13) is the");
    println!("    eventual resolution: ext2-class speed, ordered on-disk state.");
}
