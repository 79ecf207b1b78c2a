//! Memory flatness for the lite model: 10,000 lite processes must fit in
//! a bounded heap — the whole point of not giving each one a 512 KB
//! thread stack.
//!
//! This test has its own binary because it installs a counting global
//! allocator; the measured numbers would be polluted by unrelated tests
//! sharing the process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use tnt_sim::proc::{LiteScheduler, ProcCtx, Step, WaitReason};
use tnt_sim::{FifoPolicy, Sim, SimConfig};

struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn ten_thousand_lite_procs_fit_in_a_bounded_heap() {
    let before = LIVE.load(Ordering::Relaxed);
    let sim = Sim::new(Box::new(FifoPolicy::new()), SimConfig::default());
    let mut sched = LiteScheduler::new(&sim);
    for id in 0..10_000u32 {
        let mut rounds = 5u32;
        sched.spawn(
            &format!("c{id}"),
            Box::new(move |_: &mut ProcCtx| {
                if rounds == 0 {
                    return Step::Done;
                }
                rounds -= 1;
                if rounds.is_multiple_of(2) {
                    Step::Charge(40)
                } else {
                    Step::Block(WaitReason::Sleep(500))
                }
            }),
        );
    }
    sched.start("crowd");
    let _ = sim.run().expect("crowd run failed");

    let peak = PEAK.load(Ordering::Relaxed).saturating_sub(before);
    // 10k threaded processes would need ~5 GB of stacks alone
    // (512 KB each). The lite crowd must stay under 32 MB of heap —
    // roughly 3 KB per process, dominated by the slot vector, the boxed
    // closures, and the engine's Spawn trace bookkeeping.
    assert!(
        peak < 32 * 1024 * 1024,
        "10k lite procs peaked at {peak} bytes of heap; the crowd is supposed to be flat"
    );
}
