//! Tim Bray's `bonnie` (Figures 9-11): sequential write, sequential
//! read, and random seek+I/O on one large file.

use crate::machine::{run_with_fs, timed};
use tnt_os::{OpenFlags, Os, UProc};
use tnt_sim::mb_per_sec;

/// Block size bonnie moves per syscall; the paper's seek phase uses 8 KB.
pub const BONNIE_BLOCK: u64 = 8192;

/// Results of one bonnie invocation.
#[derive(Clone, Copy, Debug)]
pub struct BonnieResult {
    /// Sequential write bandwidth, MB/s (Figure 10).
    pub write_mb_s: f64,
    /// Sequential read bandwidth, MB/s (Figure 9).
    pub read_mb_s: f64,
    /// Random seek+read+write operations per second (Figure 11).
    pub seeks_per_s: f64,
}

/// Runs bonnie with a file of `file_mb` megabytes on a fresh `os`
/// filesystem, with `nseeks` random operations in the seek phase.
pub fn bonnie(os: Os, file_mb: u64, nseeks: u32, seed: u64) -> BonnieResult {
    run_with_fs(os, seed, move |p| async move {
        bonnie_phases(&p, file_mb, nseeks).await
    })
}

async fn bonnie_phases(p: &UProc, file_mb: u64, nseeks: u32) -> BonnieResult {
    let file_bytes = file_mb * 1024 * 1024;
    let nblocks = file_bytes / BONNIE_BLOCK;

    // Phase 1: sequential write.
    let fd = p.creat("/bonnie.scratch").await.unwrap();
    let (_, wt) = timed(p, async {
        for _ in 0..nblocks {
            p.write(fd, BONNIE_BLOCK).await.unwrap();
        }
    })
    .await;
    p.close(fd).await.unwrap();

    // Phase 2: sequential read.
    let fd = p
        .open("/bonnie.scratch", OpenFlags::rdonly())
        .await
        .unwrap();
    let (_, rt) = timed(p, async {
        let mut total = 0;
        loop {
            let n = p.read(fd, BONNIE_BLOCK).await.unwrap();
            if n == 0 {
                break;
            }
            total += n;
        }
        assert_eq!(total, file_bytes, "bonnie read the whole file back");
    })
    .await;
    p.close(fd).await.unwrap();

    // Phase 3: random seek, read the block, write it back.
    let fd = p.open("/bonnie.scratch", OpenFlags::rdwr()).await.unwrap();
    let offsets: Vec<u64> = (0..nseeks)
        .map(|_| {
            p.sim()
                .with_rng(|rng| rand::Rng::gen_range(rng, 0..nblocks))
                * BONNIE_BLOCK
        })
        .collect();
    let (_, st) = timed(p, async {
        for off in offsets {
            p.lseek(fd, off).unwrap();
            p.read(fd, BONNIE_BLOCK).await.unwrap();
            p.lseek(fd, off).unwrap();
            p.write(fd, BONNIE_BLOCK).await.unwrap();
        }
    })
    .await;
    p.close(fd).await.unwrap();
    p.unlink("/bonnie.scratch").await.unwrap();

    BonnieResult {
        write_mb_s: mb_per_sec(file_bytes, wt),
        read_mb_s: mb_per_sec(file_bytes, rt),
        seeks_per_s: nseeks as f64 / st.as_secs(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cached_files_beat_uncached() {
        // 4 MB fits the 20 MB cache; 40 MB does not.
        let small = bonnie(Os::FreeBsd, 4, 50, 0);
        let big = bonnie(Os::FreeBsd, 40, 50, 0);
        assert!(
            small.read_mb_s > 3.0 * big.read_mb_s,
            "{small:?} vs {big:?}"
        );
        assert!(small.seeks_per_s > 3.0 * big.seeks_per_s);
    }

    #[test]
    fn figure9_in_cache_ordering() {
        // FreeBSD reads cached files 5-15% faster than the others.
        let f = bonnie(Os::FreeBsd, 4, 20, 0).read_mb_s;
        let l = bonnie(Os::Linux, 4, 20, 0).read_mb_s;
        let s = bonnie(Os::Solaris, 4, 20, 0).read_mb_s;
        assert!(
            f > l && f > s,
            "FreeBSD fastest cached: {f:.1} vs {l:.1}/{s:.1}"
        );
        assert!(f < l * 1.25 && f < s * 1.25, "but only by a modest margin");
    }

    #[test]
    fn figure9_on_disk_ordering() {
        // Beyond the cache: Solaris best, Linux worst.
        let f = bonnie(Os::FreeBsd, 40, 10, 0).read_mb_s;
        let l = bonnie(Os::Linux, 40, 10, 0).read_mb_s;
        let s = bonnie(Os::Solaris, 40, 10, 0).read_mb_s;
        assert!(
            s > f && f > l,
            "Solaris {s:.2} > FreeBSD {f:.2} > Linux {l:.2}"
        );
    }

    #[test]
    fn figure10_write_ordering() {
        // Below 8 MB FreeBSD writes ~50% faster; Linux under half of both.
        let f = bonnie(Os::FreeBsd, 4, 10, 0).write_mb_s;
        let l = bonnie(Os::Linux, 4, 10, 0).write_mb_s;
        let s = bonnie(Os::Solaris, 4, 10, 0).write_mb_s;
        assert!(
            (f / s - 1.5).abs() < 0.4,
            "FreeBSD ~1.5x Solaris: {f:.1} vs {s:.1}"
        );
        assert!(l < f / 2.0, "Linux {l:.1} under half of FreeBSD {f:.1}");
        assert!(l < s / 2.0 * 1.2, "Linux {l:.1} well under Solaris {s:.1}");
    }

    #[test]
    fn figure11_seek_orderings() {
        // In cache, Linux and Solaris do ~50% more seeks than FreeBSD.
        let f = bonnie(Os::FreeBsd, 4, 60, 0).seeks_per_s;
        let l = bonnie(Os::Linux, 4, 60, 0).seeks_per_s;
        let s = bonnie(Os::Solaris, 4, 60, 0).seeks_per_s;
        assert!(l > 1.25 * f, "Linux {l:.0}/s vs FreeBSD {f:.0}/s");
        assert!(s > 1.25 * f, "Solaris {s:.0}/s vs FreeBSD {f:.0}/s");
    }

    #[test]
    fn figure11_converges_to_14ms_on_disk() {
        for os in Os::benchmarked() {
            let r = bonnie(os, 100, 20, 0);
            let ms = 1000.0 / r.seeks_per_s;
            assert!(
                (ms - 14.0).abs() < 6.0,
                "{os:?}: random op ~14ms on disk, got {ms:.1}ms"
            );
        }
    }
}
