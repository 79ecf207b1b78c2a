//! The P54C data TLB: 64 entries, 4-way set associative, 4 KB pages.
//!
//! A TLB is a cache of page translations, so it reuses the cache model
//! with 4 KB "lines". Misses cost a hardware two-level page-table walk.
//! The effect on the Section 6 sweeps is small but real: buffers beyond
//! 256 KB (64 pages) miss once per page per pass, shaving a few MB/s off
//! the DRAM plateau exactly where the paper's curves flatten.

use crate::cache::{Cache, CacheConfig};

/// Size of an x86 page.
pub const PAGE_BYTES: usize = 4096;

/// Cycles for the hardware page-table walk on a TLB miss (two memory
/// references, usually hitting the caches).
pub const WALK_CY: u64 = 20;

/// The data TLB. Its hit and miss counts are its entry cache's read
/// counts, so the extrapolating shortcuts in `measure` keep one set of
/// counters in step.
pub struct Tlb {
    pub(crate) entries: Cache,
}

impl Tlb {
    /// The P54C's 64-entry, 4-way data TLB.
    pub fn p54c_dtlb() -> Tlb {
        Tlb {
            entries: Cache::new(CacheConfig {
                size: 64 * PAGE_BYTES,
                ways: 4,
                line: PAGE_BYTES,
            }),
        }
    }

    /// Translates the page containing `addr`; returns the cycle cost
    /// (zero on a hit, the walk on a miss).
    pub fn access(&mut self, addr: u64) -> u64 {
        if self.entries.read(addr).is_hit() {
            0
        } else {
            WALK_CY
        }
    }

    /// (hits, misses) so far.
    pub fn stats(&self) -> (u64, u64) {
        let s = self.entries.stats();
        (s.read_hits, s.read_misses)
    }

    /// Drops every translation (a context switch on the P54C flushes the
    /// TLB unless global pages are used — 1995 kernels rarely did).
    pub fn flush(&mut self) {
        self.entries.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_64_pages() {
        let mut tlb = Tlb::p54c_dtlb();
        // Touch 64 distinct pages: all miss once, then all hit.
        for p in 0..64u64 {
            assert_eq!(tlb.access(p * PAGE_BYTES as u64), WALK_CY);
        }
        for p in 0..64u64 {
            assert_eq!(tlb.access(p * PAGE_BYTES as u64), 0, "page {p} resident");
        }
        assert_eq!(tlb.stats(), (64, 64));
    }

    #[test]
    fn sixty_fifth_page_evicts() {
        let mut tlb = Tlb::p54c_dtlb();
        for p in 0..65u64 {
            tlb.access(p * PAGE_BYTES as u64);
        }
        // Page 0 shared a set with page 64 (16 sets, 4 ways): touching
        // 65 sequential pages evicts the LRU way of exactly one set.
        let (_, misses) = tlb.stats();
        assert_eq!(misses, 65);
        assert_eq!(
            tlb.access(64 * PAGE_BYTES as u64),
            0,
            "most recent page resident"
        );
    }

    #[test]
    fn same_page_accesses_are_free_after_first() {
        let mut tlb = Tlb::p54c_dtlb();
        assert_eq!(tlb.access(123), WALK_CY);
        assert_eq!(tlb.access(4000), 0, "same 4 KB page");
        assert_eq!(tlb.access(4096), WALK_CY, "next page walks");
    }

    #[test]
    fn flush_forgets_translations() {
        let mut tlb = Tlb::p54c_dtlb();
        tlb.access(0);
        tlb.flush();
        assert_eq!(tlb.access(0), WALK_CY);
    }
}
