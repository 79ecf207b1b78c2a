//! Closed-form kernel data-movement costs derived from the routine model.
//!
//! The kernels of 1995 moved data with exactly the non-prefetching copy
//! loops measured in Section 6, so the OS models charge data copies
//! (pipe transfers, buffer-cache-to-user reads, network buffer copies) at
//! the steady-state rates this module exposes rather than re-simulating
//! the caches access by access.

use tnt_sim::{round_u64, Cycles};

/// Steady-state cost of the non-prefetching copy loop when the destination
/// misses the cache: `COPY_ITER_CY + 4 * dram_write_word` cycles per 16
/// bytes = 37/16 cycles per byte (~41 MB/s at 100 MHz), matching the
/// paper's `memcpy` figure.
pub const UNCACHED_COPY_CY_PER_BYTE: f64 = 37.0 / 16.0;

/// Cost per byte when both source and destination are warm in the cache:
/// the bare loop, 9/16 cycles per byte (~170 MB/s).
pub const CACHED_COPY_CY_PER_BYTE: f64 = 9.0 / 16.0;

/// Cost per byte for a one's-complement checksum pass over a warm buffer
/// (load + add-with-carry, ~half the cached copy cost).
pub const CHECKSUM_CY_PER_BYTE: f64 = 0.55;

/// Cycles to copy `bytes` between a user buffer and a kernel buffer.
///
/// Kernel buffers are recycled fast enough to be partially warm; the model
/// blends one third cached with two thirds uncached traffic, which lands
/// at ~55 MB/s — consistent with the pipe bandwidths of Table 4 once the
/// per-chunk syscall costs are added.
pub fn copyin_out(bytes: u64) -> Cycles {
    let per_byte = (2.0 * UNCACHED_COPY_CY_PER_BYTE + CACHED_COPY_CY_PER_BYTE) / 3.0;
    Cycles(round_u64(bytes as f64 * per_byte))
}

/// Cycles for an entirely cache-warm copy of `bytes` (e.g. buffer-cache
/// hit feeding a small read).
pub fn cached_copy(bytes: u64) -> Cycles {
    Cycles(round_u64(bytes as f64 * CACHED_COPY_CY_PER_BYTE))
}

/// Cycles for an entirely cache-cold copy of `bytes`.
pub fn uncached_copy(bytes: u64) -> Cycles {
    Cycles(round_u64(bytes as f64 * UNCACHED_COPY_CY_PER_BYTE))
}

/// Cycles for an Internet checksum over `bytes`.
pub fn checksum(bytes: u64) -> Cycles {
    Cycles(round_u64(bytes as f64 * CHECKSUM_CY_PER_BYTE))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copy_rates_are_ordered() {
        let n = 64 * 1024;
        assert!(cached_copy(n) < copyin_out(n));
        assert!(copyin_out(n) < uncached_copy(n));
        assert!(checksum(n) < cached_copy(n) * 2);
    }

    #[test]
    fn uncached_rate_matches_memcpy_plateau() {
        // 1 MB at the uncached rate should take ~24 ms => ~41 MB/s.
        let t = uncached_copy(1 << 20);
        let mb_s = 1.0 / t.as_secs();
        assert!(mb_s > 38.0 && mb_s < 46.0, "got {mb_s} MB/s");
    }

    #[test]
    fn copyin_lands_mid_fifties() {
        let t = copyin_out(1 << 20);
        let mb_s = 1.0 / t.as_secs();
        assert!(mb_s > 48.0 && mb_s < 65.0, "got {mb_s} MB/s");
    }

    #[test]
    fn zero_bytes_cost_nothing() {
        assert_eq!(copyin_out(0), Cycles::ZERO);
        assert_eq!(cached_copy(0), Cycles::ZERO);
        assert_eq!(checksum(0), Cycles::ZERO);
    }
}
