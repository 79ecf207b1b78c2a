//! Cross-cutting guarantees of the capture/replay plane:
//!
//! - recording is inert: arming ambient capture changes no experiment
//!   output byte (and with it off, the recorder never even allocates);
//! - `capture_experiment` harvests one trace per booted machine, and a
//!   captured trace replays deterministically;
//! - the blkparse importer's timebase is the engine clock.
//!
//! Ambient capture is process-global state, so every test touching it
//! serialises on one mutex (the test harness runs tests concurrently in
//! this binary).

use parking_lot::Mutex;
use tnt_core::Os;
use tnt_harness::{replay_trace, run_one, ReplayOptions, Scale};
use tnt_sim::replay::{Op, Trace};

static AMBIENT: Mutex<()> = Mutex::new(());

fn render(id: &str, scale: &Scale) -> String {
    run_one(id, scale)
        .into_iter()
        .map(|o| o.text)
        .collect::<String>()
}

#[test]
fn ambient_capture_changes_no_output_byte() {
    let _serial = AMBIENT.lock();
    let scale = Scale::smoke();
    // f12 (crtdel) is the most disk-bound paper experiment: if capture
    // perturbed timing anywhere, it would show here first.
    let off = render("f12", &scale);
    let _ = tnt_sim::replay::drain();
    tnt_sim::replay::set_ambient(true);
    let on = render("f12", &scale);
    tnt_sim::replay::set_ambient(false);
    let traces = tnt_sim::replay::drain();
    assert_eq!(off, on, "recording must not perturb the simulation");
    assert!(!traces.is_empty(), "a disk experiment must capture traces");
    assert!(traces.iter().any(|t| !t.is_empty()), "captures have events");
}

#[test]
fn recording_is_off_by_default() {
    let _serial = AMBIENT.lock();
    let _ = tnt_sim::replay::drain();
    let (sim, kernel) = tnt_os::boot(Os::Linux, 1);
    kernel.mount(tnt_fs::SimFs::fresh_for_os(Os::Linux));
    kernel.spawn_user("writer", |p| async move {
        let fd = p.creat("/f").await.expect("creat");
        p.write(fd, 64 * 1024).await.expect("write");
        p.close(fd).await.expect("close");
    });
    let _ = sim.run().expect("run");
    assert!(
        !sim.recorder().is_enabled(),
        "recorder armed without --record"
    );
    assert!(sim.recorder().is_empty(), "events recorded while disabled");
    assert!(
        tnt_sim::replay::drain().is_empty(),
        "published while disabled"
    );
}

#[test]
fn captured_experiment_traces_replay_deterministically() {
    let _serial = AMBIENT.lock();
    let traces = tnt_harness::capture_experiment("f12", &Scale::smoke());
    let trace = traces
        .iter()
        .max_by_key(|t| t.len())
        .expect("f12 boots at least one machine");
    let a = replay_trace(trace, Os::FreeBsd, 3, ReplayOptions::asap());
    let b = replay_trace(trace, Os::FreeBsd, 3, ReplayOptions::asap());
    assert_eq!(a, b, "same trace, same seed, same report");
    assert!(a.commands > 0, "crtdel replays disk commands");
}

#[test]
fn importer_timebase_is_the_engine_clock() {
    // One blkparse row at t=0.5s must land at CPU_HZ/2 cycles: the
    // trace timebase and the engine clock are the same 100 MHz.
    let row = b"8,0 1 1 0.500000000 7 D R 2048 + 8 [cc1]";
    let trace = Trace::load(row).expect("blkparse row imports");
    assert_eq!(trace.len(), 1);
    assert_eq!(trace.events[0].t, tnt_sim::CPU_HZ / 2);
    assert_eq!(trace.events[0].op, Op::BlockRead);
    assert_eq!(trace.events[0].arg, 1_024, "sector 2048 is 1 KB block 1024");
    assert_eq!(trace.events[0].size, 4, "8 sectors are 4 blocks");
}
