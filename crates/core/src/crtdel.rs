//! The Ousterhout `crtdel` microbenchmark (Figure 12): create a file,
//! write it, close, reopen, read, delete — a compiler's temporary file.

use crate::machine::{run_custom, run_with_fs, timed};
use tnt_fs::FsParams;
use tnt_os::{OpenFlags, Os, OsCosts, UProc};

/// Milliseconds per create/delete iteration for `file_bytes`-byte files.
pub fn crtdel_ms(os: Os, file_bytes: u64, iters: u32, seed: u64) -> f64 {
    run_with_fs(os, seed, move |p| async move {
        let (_, d) = timed(&p, async {
            for _ in 0..iters {
                crtdel_once(&p, file_bytes).await;
            }
        })
        .await;
        d.as_millis() / iters as f64
    })
}

/// [`crtdel_ms`] with explicit kernel costs and filesystem personality
/// (the `x2` metadata-policy ablation and Section 13 projections).
pub fn crtdel_ms_with(costs: OsCosts, fs: FsParams, file_bytes: u64, iters: u32, seed: u64) -> f64 {
    run_custom(costs, fs, seed, move |p| async move {
        let (_, d) = timed(&p, async {
            for _ in 0..iters {
                crtdel_once(&p, file_bytes).await;
            }
        })
        .await;
        d.as_millis() / iters as f64
    })
}

/// One crtdel iteration.
pub async fn crtdel_once(p: &UProc, file_bytes: u64) {
    let fd = p.creat("/crtdel.tmp").await.unwrap();
    p.write(fd, file_bytes).await.unwrap();
    p.close(fd).await.unwrap();
    let fd = p.open("/crtdel.tmp", OpenFlags::rdonly()).await.unwrap();
    p.read(fd, file_bytes).await.unwrap();
    p.close(fd).await.unwrap();
    p.unlink("/crtdel.tmp").await.unwrap();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure12_small_file_values() {
        let linux = crtdel_ms(Os::Linux, 1024, 10, 0);
        let freebsd = crtdel_ms(Os::FreeBsd, 1024, 10, 0);
        let solaris = crtdel_ms(Os::Solaris, 1024, 10, 0);
        assert!(linux < 4.0, "Linux never touches the disk: {linux:.2}ms");
        assert!(
            (freebsd - 66.0).abs() < 12.0,
            "FreeBSD ~66ms, got {freebsd:.1}"
        );
        assert!(
            (solaris - 34.0).abs() < 8.0,
            "Solaris ~34ms, got {solaris:.1}"
        );
        assert!(linux * 8.0 < solaris, "order-of-magnitude Linux win");
    }

    #[test]
    fn freebsd_solaris_gap_stays_constant_with_size() {
        // Section 7.2: the FreeBSD-Solaris difference stays ~32ms from
        // 1 KB to 1 MB because it is two extra synchronous writes.
        let gap_small = crtdel_ms(Os::FreeBsd, 1024, 6, 0) - crtdel_ms(Os::Solaris, 1024, 6, 0);
        let gap_big = crtdel_ms(Os::FreeBsd, 1 << 20, 6, 0) - crtdel_ms(Os::Solaris, 1 << 20, 6, 0);
        assert!(
            (gap_small - 32.0).abs() < 10.0,
            "small gap ~32ms, got {gap_small:.1}"
        );
        assert!(
            (gap_big - gap_small).abs() < 12.0,
            "gap roughly constant: {gap_big:.1}"
        );
    }

    #[test]
    fn time_grows_with_file_size() {
        for os in Os::benchmarked() {
            let small = crtdel_ms(os, 1024, 5, 0);
            let big = crtdel_ms(os, 1 << 20, 5, 0);
            assert!(big > small, "{os:?}: 1MB {big:.1}ms vs 1KB {small:.1}ms");
        }
    }
}
