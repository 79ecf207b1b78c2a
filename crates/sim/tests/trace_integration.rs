//! Tracing guarantees at the engine level: determinism of the event
//! stream, zero cost on the simulated clock, and loud overflow.

use tnt_sim::trace::{Class, Counter};
use tnt_sim::{Cycles, FifoPolicy, Sim, SimConfig};

/// A small mixed workload: spans, jittered charges, sleeps, timed waits
/// and an idle period attributed through an open wait span.
fn workload(seed: u64, trace_capacity: Option<usize>) -> (Cycles, String, u64) {
    let sim = Sim::new(
        Box::new(FifoPolicy::new()),
        SimConfig {
            seed,
            jitter: 0.02,
            ..SimConfig::default()
        },
    );
    if let Some(cap) = trace_capacity {
        sim.enable_tracing(cap);
    }
    let q = sim.new_queue();
    sim.spawn_task("producer", move |s| async move {
        for _ in 0..5 {
            {
                let _sp = s.span(Class::ProtoCpu);
                s.charge(Cycles(1_000));
            }
            {
                let _sp = s.span(Class::DataCopy);
                s.charge(Cycles(250));
            }
            s.count(Counter::TcpSegments, 1);
            s.sleep(Cycles(500)).await;
            s.wakeup_one(q);
        }
    });
    sim.spawn_task("consumer", move |s| async move {
        for _ in 0..5 {
            let _w = s.span(Class::NetRecvWait);
            s.wait_on_timeout(q, Cycles(50_000), "data").await;
        }
    });
    let end = sim.run().unwrap();
    let dropped = sim.tracer().dropped();
    (end, sim.tracer().dump(), dropped)
}

#[test]
fn same_seed_gives_byte_identical_event_stream() {
    let (t1, dump1, _) = workload(7, Some(4096));
    let (t2, dump2, _) = workload(7, Some(4096));
    assert_eq!(t1, t2);
    assert_eq!(dump1, dump2, "event streams must match byte for byte");
    // A different seed perturbs the jittered charges, which the stream
    // records faithfully.
    let (_, dump3, _) = workload(9, Some(4096));
    assert_ne!(dump1, dump3);
}

#[test]
fn disabled_tracing_leaves_the_clock_untouched() {
    let (traced, _, _) = workload(7, Some(4096));
    let (bare, _, _) = workload(7, None);
    assert_eq!(
        traced, bare,
        "recording must never move the simulated clock"
    );
}

#[test]
fn ring_overflow_is_counted_never_silent() {
    let (_, dump, dropped) = workload(7, Some(4));
    assert!(dropped > 0, "a 4-event ring must overflow this workload");
    assert!(
        dump.ends_with(&format!("dropped {dropped}\n")),
        "the dump itself reports the loss: {dump}"
    );
    // And attribution survives the drops: the overflow only truncates
    // the raw ring, not the online accounting.
    let sim = Sim::new(
        Box::new(FifoPolicy::new()),
        SimConfig {
            seed: 7,
            ..SimConfig::default()
        },
    );
    sim.enable_tracing(2);
    sim.spawn_task("p", |s| async move {
        for _ in 0..50 {
            let _sp = s.span(Class::FsCpu);
            s.charge(Cycles(10));
        }
    });
    let end = sim.run().unwrap();
    let profile = sim.tracer().profile();
    assert_eq!(profile.attributed, end.0);
    assert_eq!(profile.class_total(Class::FsCpu), end.0);
    assert_eq!(
        sim.tracer().counters().get(Counter::TraceDrops),
        sim.tracer().dropped()
    );
}

#[test]
fn attribution_covers_the_whole_clock() {
    // Charges, dispatch costs and idle jumps are the only ways the clock
    // moves, and each records an event: attributed == elapsed, exactly.
    let sim = Sim::new(
        Box::new(FifoPolicy::new()),
        SimConfig {
            seed: 3,
            jitter: 0.02,
            ..SimConfig::default()
        },
    );
    sim.enable_tracing(1 << 16);
    let q = sim.new_queue();
    sim.spawn_task("worker", move |s| async move {
        {
            let _sp = s.span(Class::ProtoCpu);
            s.charge(Cycles(1_234));
        }
        s.sleep(Cycles(5_000)).await; // Clock jumps while nobody is runnable.
        let _w = s.span(Class::PipeWait);
        s.wait_on_timeout(q, Cycles(2_000), "never-woken").await;
    });
    let end = sim.run().unwrap();
    let profile = sim.tracer().profile();
    assert_eq!(
        profile.attributed, end.0,
        "every elapsed cycle must be attributed"
    );
    assert!(profile.class_total(Class::PipeWait) > 0);
}
