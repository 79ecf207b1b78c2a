//! A memory figure simulates each curve and buffer size once, however
//! many seeds it reports. This runs in its own test binary because a
//! profiling session collects the counters of every `measure` running in
//! the process.

use tnt_core::{mem_bandwidth, MemRoutine};
use tnt_harness::{run_many, Scale};
use tnt_sim::trace::{session, Counter};

#[test]
fn a_memory_figure_simulates_each_size_once() {
    let scale = Scale::smoke();
    assert!(scale.runs > 1, "one seed could not tell the two apart");
    let (outputs, figure) = session::run(64, || run_many(&["f2"], &scale));
    assert_eq!(outputs.len(), 1);
    let ((), once) = session::run(64, || {
        for &buf in &scale.mem_sizes {
            mem_bandwidth(MemRoutine::CustomRead, buf, scale.mem_total, 1);
        }
    });
    for counter in [
        Counter::MemStallCycles,
        Counter::L1Misses,
        Counter::L2Misses,
    ] {
        assert!(once.counter(counter) > 0, "{counter:?}");
        assert_eq!(
            figure.counter(counter),
            once.counter(counter),
            "{counter:?}"
        );
    }
}
