//! The Section 6 memory benchmarks (Figures 2-8).
//!
//! These run on the bare machine model — the OS only contributes its
//! libc variant — using the paper's methodology: reuse one buffer until
//! 8 MB of data have been transferred, then report MB/s.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tnt_cpu::{measure, MemRoutine, MemSystem, MemTiming};

/// Total traffic per measurement, as in the paper.
pub const TOTAL_TRAFFIC: u64 = 8 * 1024 * 1024;

/// Bandwidth of `routine` on a `buf`-byte buffer with `total` bytes of
/// traffic. A nonzero `seed` scales the event costs by a factor within
/// 1% of one (refresh and DMA interference), but each cost rounds to
/// whole cycles and the largest is 31, so the factor would have to move
/// by 1.6% to change any of them: every seed measures with exactly
/// [`MemTiming::p54c`], and the seeds of one routine and buffer size
/// agree.
pub fn mem_bandwidth(routine: MemRoutine, buf: u64, total: u64, seed: u64) -> f64 {
    let timing = jittered_timing(seed);
    let mut mem = MemSystem::with_timing(timing);
    measure(&mut mem, routine, buf, total).mb_per_sec
}

fn jittered_timing(seed: u64) -> MemTiming {
    if seed == 0 {
        return MemTiming::p54c();
    }
    let mut rng = StdRng::seed_from_u64(seed);
    MemTiming::p54c().scaled(rng.gen_range(0.99..=1.01))
}

/// The buffer-size sweep of the figures: powers of two from 256 bytes to
/// 8 MB, with intermediate and ragged (`+15`-byte) points at the low end
/// where the remainder-loop dips of Section 6.4 live.
pub fn standard_buffer_sizes() -> Vec<u64> {
    let mut sizes = Vec::new();
    for k in 8..=23u32 {
        let s = 1u64 << k;
        sizes.push(s);
        if s <= 8192 {
            sizes.push(s + 15); // Worst-case remainder: the visible dip.
        }
        if k < 23 {
            sizes.push(s + s / 2); // Midpoint for a smoother curve.
        }
    }
    sizes.sort_unstable();
    sizes.dedup();
    sizes
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: u64 = 1 << 20; // Keep debug-mode tests quick.

    #[test]
    fn sweep_contains_ragged_sizes() {
        let sizes = standard_buffer_sizes();
        assert!(sizes.contains(&256));
        assert!(sizes.contains(&271));
        assert!(sizes.contains(&(8 << 20)));
        assert!(sizes.windows(2).all(|w| w[0] < w[1]), "sorted and unique");
    }

    #[test]
    fn figure2_plateaus() {
        let l1 = mem_bandwidth(MemRoutine::CustomRead, 4096, T, 0);
        let l2 = mem_bandwidth(MemRoutine::CustomRead, 65536, T, 0);
        let mem = mem_bandwidth(MemRoutine::CustomRead, 1 << 21, T, 0);
        assert!(l1 > 280.0, "L1 ~300+, got {l1:.0}");
        assert!((l2 - 110.0).abs() < 15.0, "L2 ~110, got {l2:.0}");
        assert!((mem - 75.0).abs() < 10.0, "DRAM ~75, got {mem:.0}");
    }

    #[test]
    fn figure5_prefetch_peak() {
        let peak = mem_bandwidth(MemRoutine::CustomWritePrefetch, 4096, T, 0);
        assert!(
            (peak - 310.0).abs() < 40.0,
            "prefetch write ~310, got {peak:.0}"
        );
    }

    #[test]
    fn figure8_prefetch_copy_peak() {
        let peak = mem_bandwidth(MemRoutine::CustomCopyPrefetch, 4096, T, 0);
        assert!(
            (peak - 160.0).abs() < 20.0,
            "prefetch copy ~160, got {peak:.0}"
        );
    }

    #[test]
    fn every_seed_rounds_back_to_the_calibrated_timing() {
        // The quick scale runs seeds 1-5 and the full scale 1-20; the
        // ±1% factor rounds away, so one simulation serves every seed.
        for seed in 0..=20 {
            assert_eq!(jittered_timing(seed), MemTiming::p54c(), "seed {seed}");
        }
    }
}
