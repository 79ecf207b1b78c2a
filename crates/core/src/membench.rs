//! The Section 6 memory benchmarks (Figures 2-8).
//!
//! These run on the bare machine model — the OS only contributes its
//! libc variant — using the paper's methodology: reuse one buffer until
//! 8 MB of data have been transferred, then report MB/s. The P54C model
//! is deterministic, so a routine and buffer size have one bandwidth:
//! the harness measures each once and reports it for every run.

use tnt_cpu::{measure, MemRoutine, MemSystem};

/// Total traffic per measurement, as in the paper.
pub const TOTAL_TRAFFIC: u64 = 8 * 1024 * 1024;

/// Bandwidth of `routine` on a `buf`-byte buffer with `total` bytes of
/// traffic. The seed does not affect the result: the memory model has no
/// run-to-run variation, so every seed of one routine and buffer size
/// measures the same bandwidth. Each call simulates afresh.
pub fn mem_bandwidth(routine: MemRoutine, buf: u64, total: u64, _seed: u64) -> f64 {
    let mut mem = MemSystem::p54c();
    measure(&mut mem, routine, buf, total).mb_per_sec
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
    fn every_seed_measures_the_same_bandwidth() {
        // The harness measures each routine and size once and reports
        // that bandwidth for every seed.
        for routine in [MemRoutine::CustomRead, MemRoutine::CustomCopyPrefetch] {
            let at_zero = mem_bandwidth(routine, 8192 + 15, T, 0);
            for seed in [1, 5, 20] {
                assert_eq!(mem_bandwidth(routine, 8192 + 15, T, seed), at_zero);
            }
        }
    }
}
