//! Property tests of the machine models: cache invariants under
//! arbitrary access streams, disk timing monotonicity, memory-routine
//! sanity, and the statistics helpers.

use proptest::prelude::*;
use tnt_cpu::{measure, Cache, CacheConfig, MemRoutine, MemSystem};
use tnt_fs::{Disk, DiskParams};
use tnt_sim::{normalize_higher_better, normalize_lower_better, Cycles, Summary};

#[derive(Clone, Copy, Debug)]
enum Op {
    Read(u64),
    Write(u64),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (0u64..1 << 20).prop_map(Op::Read),
            (0u64..1 << 20).prop_map(Op::Write),
        ],
        1..400,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn cache_capacity_never_exceeded(seq in ops()) {
        let mut c = Cache::new(CacheConfig { size: 2048, ways: 2, line: 32 });
        for op in &seq {
            match op {
                Op::Read(a) => { c.read(*a); }
                Op::Write(a) => { c.write(*a); }
            }
        }
        prop_assert!(c.valid_lines() <= 64, "2 KB of 32-byte lines = 64 max");
    }

    #[test]
    fn read_then_probe_always_hits(addr in 0u64..1 << 30) {
        let mut c = Cache::new(CacheConfig::p54c_l1d());
        c.read(addr);
        prop_assert!(c.probe(addr));
        // The whole line is resident.
        prop_assert!(c.probe(addr / 32 * 32));
        prop_assert!(c.probe(addr / 32 * 32 + 31));
    }

    #[test]
    fn write_miss_never_allocates(addrs in prop::collection::vec(0u64..1 << 24, 1..100)) {
        let mut c = Cache::new(CacheConfig::p54c_l1d());
        for a in &addrs {
            c.write(*a);
        }
        prop_assert_eq!(c.valid_lines(), 0, "no write-allocate means nothing resident");
    }

    #[test]
    fn stats_accounting_is_consistent(seq in ops()) {
        let mut c = Cache::new(CacheConfig::plato_l2());
        for op in &seq {
            match op {
                Op::Read(a) => { c.read(*a); }
                Op::Write(a) => { c.write(*a); }
            }
        }
        let s = c.stats();
        let reads = seq.iter().filter(|o| matches!(o, Op::Read(_))).count() as u64;
        let writes = seq.len() as u64 - reads;
        prop_assert_eq!(s.read_hits + s.read_misses, reads);
        prop_assert_eq!(s.write_hits + s.write_misses, writes);
    }

    #[test]
    fn memsystem_cycles_are_monotone(seq in ops()) {
        let mut m = MemSystem::p54c();
        let mut last = 0;
        for op in &seq {
            match op {
                Op::Read(a) => { m.read_word(*a); }
                Op::Write(a) => { m.write_word(*a); }
            }
            prop_assert!(m.cycles() >= last);
            last = m.cycles();
        }
    }

    #[test]
    fn bandwidth_measurement_is_positive_and_covers_traffic(
        buf in 16u64..262_144,
        total_kb in 1u64..256,
    ) {
        let mut m = MemSystem::p54c();
        let p = measure(&mut m, MemRoutine::CustomRead, buf, total_kb * 1024);
        prop_assert!(p.mb_per_sec > 0.0);
        prop_assert!(p.bytes >= total_kb * 1024, "at least the requested traffic moved");
        prop_assert!(p.cycles > 0);
    }

    #[test]
    fn prefetch_never_loses_to_naive_writes(buf in 64u64..1 << 20) {
        let buf = buf / 32 * 32 + 32; // line-aligned size
        let mut m1 = MemSystem::p54c();
        let naive = measure(&mut m1, MemRoutine::CustomWriteNaive, buf, 1 << 20).mb_per_sec;
        let mut m2 = MemSystem::p54c();
        let pf = measure(&mut m2, MemRoutine::CustomWritePrefetch, buf, 1 << 20).mb_per_sec;
        prop_assert!(pf > naive * 0.95, "prefetch {pf:.1} vs naive {naive:.1} at {buf}");
    }

    #[test]
    fn disk_service_time_monotone_in_transfer(from in 0u64..2_000_000, addr in 0u64..2_000_000, blocks in 1u64..512) {
        let d = Disk::new(DiskParams::hp3725());
        let small = d.service_time(from, addr, blocks);
        let bigger = d.service_time(from, addr, blocks + 8);
        prop_assert!(bigger > small);
        prop_assert!(small > Cycles::ZERO);
    }

    #[test]
    fn disk_seek_monotone_in_distance(addr in 0u64..1_000_000, d1 in 0u64..500_000, d2 in 0u64..500_000) {
        let disk = Disk::new(DiskParams::hp3725());
        let (near, far) = if d1 < d2 { (d1, d2) } else { (d2, d1) };
        prop_assert!(disk.seek_time(near) <= disk.seek_time(far));
        let _ = addr;
    }

    #[test]
    fn summary_mean_bounded_by_extremes(samples in prop::collection::vec(0.0f64..1e6, 1..50)) {
        let s = Summary::of(&samples);
        let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(s.mean >= min - 1e-9 && s.mean <= max + 1e-9);
        prop_assert!(s.sd >= 0.0);
    }

    #[test]
    fn normalization_bounds(values in prop::collection::vec(0.1f64..1e6, 1..10)) {
        for n in normalize_lower_better(&values) {
            prop_assert!(n > 0.0 && n <= 1.0 + 1e-9);
        }
        for n in normalize_higher_better(&values) {
            prop_assert!(n > 0.0 && n <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn cycles_unit_conversions_roundtrip(us in 0.0f64..1e7) {
        let c = Cycles::from_micros(us);
        prop_assert!((c.as_micros() - us).abs() <= 0.005, "{us} -> {c:?} -> {}", c.as_micros());
    }
}
