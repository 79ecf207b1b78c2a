//! Quickstart: boot the three 1995 kernels and measure a few basics.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! This touches every layer of the reproduction: the deterministic
//! simulation engine, the per-OS kernel models, pipes, and a mounted
//! filesystem personality.

use tnt_core::{crtdel_ms, syscall_us};
use tnt_os::{boot, Os};
use tnt_sim::Cycles;

fn main() {
    println!("== tnt quickstart: three kernels on one simulated Pentium ==\n");

    // 1. Raw system-call latency (the paper's Table 2).
    println!("getpid() latency (Table 2):");
    for os in Os::benchmarked() {
        let us = syscall_us(os, 10_000, 1);
        println!("  {:<12} {us:.2} µs", os.label());
    }

    // 2. A tiny custom program: fork a child and talk over a pipe.
    println!("\na pipe conversation on Linux:");
    let (sim, kernel) = boot(Os::Linux, 1);
    kernel.spawn_user("parent", |p| async move {
        let (rd, wr) = p.pipe();
        let child = p.fork("child", move |c| async move {
            c.write_bytes(wr, b"hello from the child").await.unwrap();
            c.close(wr).await.unwrap();
        });
        p.close(wr).await.unwrap();
        let msg = p.read_bytes(rd, 64).await.unwrap();
        println!(
            "  parent read {:?} at t={}",
            String::from_utf8_lossy(&msg),
            p.sim().now()
        );
        p.compute(Cycles::from_micros(10.0));
        p.waitpid(child).await;
    });
    let elapsed = sim.run().unwrap();
    println!("  simulated time: {elapsed}");

    // 3. The famous metadata result (Figure 12): temporary-file churn.
    println!("\ncreate/write/read/delete a 1 KB temp file (Figure 12):");
    for os in Os::benchmarked() {
        let ms = crtdel_ms(os, 1024, 5, 1);
        println!("  {:<12} {ms:.2} ms per iteration", os.label());
    }
    println!("\nLinux is an order of magnitude faster because ext2 updates");
    println!("metadata asynchronously; the FFS family seeks to the inode and");
    println!("cylinder-group blocks synchronously on every create and delete.");
}
