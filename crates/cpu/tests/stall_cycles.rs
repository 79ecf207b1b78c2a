//! `mem stall cycles` counts only memory-system events. This runs in its
//! own test binary because a profiling session collects the counters of
//! every `measure` running in the process.

use tnt_cpu::{measure, MemRoutine, MemSystem, MemTiming, READ_ITER_CY, WALK_CY};
use tnt_sim::trace::{session, Counter};

#[test]
fn stall_cycles_exclude_loop_cycles() {
    let mut mem = MemSystem::p54c();
    let (p, report) = session::run(64, || {
        measure(&mut mem, MemRoutine::CustomRead, 4096, 1 << 20)
    });
    // An L1-resident read sweep stalls only while it warms up: one TLB
    // walk and 128 cold DRAM line fills.
    let stalls = WALK_CY + 128 * MemTiming::p54c().dram_fill;
    assert_eq!(stalls, 3_988);
    assert_eq!(report.counter(Counter::MemStallCycles), stalls);
    assert_eq!(report.counter(Counter::L1Misses), 128);
    assert_eq!(report.counter(Counter::L2Misses), 128);
    // The 256 passes of 256 loop iterations are in the total only.
    assert_eq!(mem.cycles(), stalls);
    assert_eq!(p.cycles, stalls + 256 * 256 * READ_ITER_CY);
}
