//! lmbench's `bw_pipe` (Table 4): a parent and child move 50 MB through
//! a pipe in 64 KB chunks.

use crate::machine::run_bare;
use tnt_os::Os;
use tnt_sim::mbit_per_sec;

/// Total bytes moved, as in lmbench.
pub const BW_PIPE_TOTAL: u64 = 50 * 1024 * 1024;

/// Chunk size of each write, as in lmbench.
pub const BW_PIPE_CHUNK: u64 = 64 * 1024;

/// Pipe bandwidth in megabits per second for `total` bytes in `chunk`
/// sized writes.
pub fn pipe_bandwidth_mbit(os: Os, total: u64, chunk: u64, seed: u64) -> f64 {
    run_bare(os, seed, move |p| async move {
        let (rd, wr) = p.pipe();
        let child = p.fork("bw_pipe_writer", move |c| async move {
            c.close(rd).await.unwrap();
            let mut sent = 0;
            while sent < total {
                sent += c.write(wr, chunk.min(total - sent)).await.unwrap();
            }
            c.close(wr).await.unwrap();
        });
        p.close(wr).await.unwrap();
        let t0 = p.sim().now();
        let mut received = 0;
        loop {
            let n = p.read(rd, chunk).await.unwrap();
            if n == 0 {
                break;
            }
            received += n;
        }
        let d = p.sim().now() - t0;
        assert_eq!(received, total, "every byte crossed the pipe");
        p.waitpid(child).await;
        mbit_per_sec(total, d)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: u64 = 4 * 1024 * 1024; // 4 MB keeps debug tests quick.

    #[test]
    fn table4_values() {
        let linux = pipe_bandwidth_mbit(Os::Linux, T, BW_PIPE_CHUNK, 0);
        let freebsd = pipe_bandwidth_mbit(Os::FreeBsd, T, BW_PIPE_CHUNK, 0);
        let solaris = pipe_bandwidth_mbit(Os::Solaris, T, BW_PIPE_CHUNK, 0);
        assert!(
            (linux - 119.36).abs() < 15.0,
            "Linux ~119 Mb/s, got {linux:.1}"
        );
        assert!(
            (freebsd - 98.03).abs() < 12.0,
            "FreeBSD ~98 Mb/s, got {freebsd:.1}"
        );
        assert!(
            (solaris - 65.38).abs() < 10.0,
            "Solaris ~65 Mb/s, got {solaris:.1}"
        );
        assert!(linux > freebsd && freebsd > solaris);
    }

    #[test]
    fn solaris_norm_is_about_055() {
        let linux = pipe_bandwidth_mbit(Os::Linux, T, BW_PIPE_CHUNK, 1);
        let solaris = pipe_bandwidth_mbit(Os::Solaris, T, BW_PIPE_CHUNK, 1);
        let norm = solaris / linux;
        assert!(
            (norm - 0.55).abs() < 0.12,
            "Table 4 Norm column ~0.55, got {norm:.2}"
        );
    }
}
