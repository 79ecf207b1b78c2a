#![warn(missing_docs)]

//! Pentium P54C machine model: caches, memory timing, and the memory
//! routines of Section 6 of the paper.
//!
//! The benchmarking platform of *"A Performance Comparison of UNIX
//! Operating Systems on the Pentium"* was an Intel Pentium P54C at
//! 100 MHz with 8 KB 2-way L1 caches, a 256 KB board-level L2, and —
//! crucially — **no write-allocate** on write misses. This crate models
//! that memory system at line granularity and reproduces Figures 2-8:
//! the three read plateaus, the sub-50 MB/s `memset`/`memcpy` results,
//! and the dramatic effect of software prefetching.
//!
//! # Examples
//!
//! ```
//! use tnt_cpu::{measure, MemRoutine, MemSystem};
//!
//! let mut mem = MemSystem::p54c();
//! let p = measure(&mut mem, MemRoutine::CustomRead, 4 * 1024, 1 << 20);
//! assert!(p.mb_per_sec > 280.0, "L1-resident reads run at ~300+ MB/s");
//! ```

mod cache;
mod kcopy;
mod memsys;
mod routines;
mod tlb;

pub use cache::{Access, Cache, CacheConfig, CacheStats};
pub use kcopy::{
    cached_copy, checksum, copyin_out, uncached_copy, CACHED_COPY_CY_PER_BYTE,
    CHECKSUM_CY_PER_BYTE, UNCACHED_COPY_CY_PER_BYTE,
};
pub use memsys::{Level, MemSystem, MemTiming};
pub use routines::{
    measure, BandwidthPoint, LibcVariant, MemRoutine, CHUNK, COPY_ITER_CY, READ_ITER_CY,
    REMAINDER_BYTE_CY, WORD, WRITE_ITER_CY,
};
pub use tlb::{Tlb, PAGE_BYTES, WALK_CY};

/// Clock frequency of the modelled CPU (re-exported from `tnt-sim`).
pub use tnt_sim::CPU_HZ;

/// Main-memory size of the benchmarking platform `tnt.stanford.edu`.
pub const MAIN_MEMORY_BYTES: u64 = 32 * 1024 * 1024;
