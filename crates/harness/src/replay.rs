//! Trace-driven workload replay: capture a run at the fs/disk boundary,
//! then drive the recorded `.tntrace` stream back through a fresh disk
//! model (DESIGN.md §15, docs/TRACE_FORMAT.md).
//!
//! Two experiments ride on this plane:
//!
//! - `x11`: the Section 7 video+database workload captured per OS and
//!   replayed verbatim — the replay's disk busy time must equal the
//!   recorded run's exactly (the capture/replay equality guarantee);
//! - `x12`: a compile burst (create/read/compile/write/unlink per unit)
//!   captured and replayed the same way.
//!
//! The equality argument: [`ReplayMode::Asap`] replays the *global
//! recorded order* through one lite process, so a fresh disk (head at
//! block 0, exactly like the captured run's fresh disk) sees the same
//! command sequence and computes the same seek/rotation/transfer time
//! for every command. [`ReplayMode::Timed`] instead re-creates the
//! recorded concurrency — one open-loop stream per recorded pid, each
//! command issued at its recorded timestamp — which preserves the
//! recorded interleaving only while the replay disk keeps up, so busy
//! equality is guaranteed for `Asap` and merely typical for `Timed`.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;
use tnt_core::Os;
use tnt_fs::{Disk, DiskParams, IoKind, SimFs, DISK_RETRIES};
use tnt_os::{boot, KEnv, OpenFlags};
use tnt_runner::{ExperimentRecord, StatLine};
use tnt_sim::proc::{LiteProc, LiteScheduler, ProcCtx, Step, WaitReason};
use tnt_sim::replay::{Op, Trace, TraceEvent};
use tnt_sim::{normalize_lower_better, Cycles, CPU_HZ};

use crate::experiments::ExperimentOutput;
use crate::plan::{ExperimentPlan, PlanBody};
use crate::scale::Scale;

/// How replayed events are paced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplayMode {
    /// One lite process issues every event in the global recorded order,
    /// back to back. This is the mode with the busy-time equality
    /// guarantee: same fresh disk, same command sequence, same service
    /// times.
    Asap,
    /// One open-loop lite process per recorded pid, each blocking until
    /// an event's recorded timestamp (rebased to t=0) before issuing it
    /// — the replay analogue of the original concurrency.
    Timed,
}

/// Knobs for one replay run.
#[derive(Clone, Copy, Debug)]
pub struct ReplayOptions {
    /// Pacing mode.
    pub mode: ReplayMode,
}

impl ReplayOptions {
    /// As-fast-as-possible replay of the full trace.
    pub fn asap() -> ReplayOptions {
        ReplayOptions {
            mode: ReplayMode::Asap,
        }
    }

    /// Open-loop replay of the full trace at recorded timestamps.
    pub fn timed() -> ReplayOptions {
        ReplayOptions {
            mode: ReplayMode::Timed,
        }
    }
}

/// What one replay run did — all integers, so reports are byte-stable
/// and directly comparable across runs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// Events replayed.
    pub events: u64,
    /// Open/unlink events (counted, not issued to the disk).
    pub file_events: u64,
    /// Disk commands issued, including fault-plane retries.
    pub commands: u64,
    /// Disk read commands completed.
    pub reads: u64,
    /// Disk write commands completed.
    pub writes: u64,
    /// 1 KB blocks transferred.
    pub blocks_moved: u64,
    /// Cycles the replay disk spent busy (seek + rotation + transfer).
    pub busy_cy: u64,
    /// Simulated cycles the whole replay took.
    pub elapsed_cy: u64,
    /// Recorded span of the trace: last timestamp - first.
    pub recorded_span_cy: u64,
    /// Transient disk faults hit (nonzero only under `--faults`).
    pub faults: u64,
    /// Commands abandoned with EIO after exhausting the retry budget.
    pub eio: u64,
    /// Replay streams (1 for `Asap`, one per recorded pid for `Timed`).
    pub streams: u64,
    /// Lite dispatches the replay cost.
    pub polls: u64,
}

/// Counters of one replay stream, and of every stream of one run.
#[derive(Default)]
struct Totals {
    file_events: u64,
    commands: u64,
    faults: u64,
    eio: u64,
}

/// A lite process that replays one stream of trace events against the
/// disk. Block events issue [`Disk::command`] and then block for the
/// returned service time; file events are counted and skipped (the
/// replay plane drives the disk, not the namespace). A failed command
/// is retried up to [`DISK_RETRIES`] times, then abandoned as EIO —
/// the same policy the driver applies in [`Disk::io`].
struct ReplayProc {
    events: Vec<TraceEvent>,
    idx: usize,
    /// First timestamp of the whole trace; `Timed` waits rebase to it.
    base: u64,
    timed: bool,
    disk: Arc<Disk>,
    env: KEnv,
    attempts: u32,
    /// This stream's counts, added to `totals` once, when it is dropped.
    counts: Totals,
    totals: Arc<Mutex<Totals>>,
}

impl Drop for ReplayProc {
    /// Every way a stream ends drops it: finishing, or the scheduler's
    /// teardown at the end of the run.
    fn drop(&mut self) {
        let mut t = self.totals.lock();
        t.file_events += self.counts.file_events;
        t.commands += self.counts.commands;
        t.faults += self.counts.faults;
        t.eio += self.counts.eio;
    }
}

impl LiteProc<ProcCtx> for ReplayProc {
    fn poll(&mut self, _ctx: &mut ProcCtx) -> Step {
        loop {
            let Some(ev) = self.events.get(self.idx).copied() else {
                return Step::Done;
            };
            if self.timed {
                let due = ev.t - self.base;
                if self.env.sim.now().0 < due {
                    return Step::Block(WaitReason::Until(due));
                }
            }
            match ev.op {
                Op::FileOpen | Op::FileUnlink => {
                    self.counts.file_events += 1;
                    self.idx += 1;
                }
                Op::BlockRead | Op::BlockWrite => {
                    let kind = if ev.op == Op::BlockWrite {
                        IoKind::Write
                    } else {
                        IoKind::Read
                    };
                    let (phases, ok) = self.disk.command(&self.env, kind, ev.arg, ev.size.max(1));
                    let t = &mut self.counts;
                    t.commands += 1;
                    if ok {
                        self.idx += 1;
                        self.attempts = 0;
                    } else {
                        t.faults += 1;
                        self.attempts += 1;
                        if self.attempts > DISK_RETRIES {
                            t.eio += 1;
                            self.idx += 1;
                            self.attempts = 0;
                        }
                    }
                    let pay = phases[0] + phases[1] + phases[2];
                    if pay.0 > 0 {
                        return Step::Block(WaitReason::Sleep(pay.0));
                    }
                }
            }
        }
    }
}

/// Replays `trace` against a fresh machine and disk, returning what the
/// replay did. Deterministic: the same trace, OS, seed and options give
/// a byte-identical [`ReplayReport`].
pub fn replay_trace(trace: &Trace, os: Os, seed: u64, opts: ReplayOptions) -> ReplayReport {
    let (sim, kernel) = boot(os, seed);
    // A replay must never capture itself, even under ambient --record.
    sim.recorder().disable();
    let env = kernel.env().clone();
    let disk = Arc::new(Disk::new(DiskParams::hp3725()));

    let events = &trace.events;
    let base = events.iter().map(|e| e.t).min().unwrap_or(0);
    let recorded_span_cy = events.iter().map(|e| e.t).max().unwrap_or(0) - base;

    let totals = Arc::new(Mutex::new(Totals::default()));
    let mut streams: Vec<(String, Vec<TraceEvent>)> = Vec::new();
    match opts.mode {
        ReplayMode::Asap => streams.push(("replay".into(), events.clone())),
        ReplayMode::Timed => {
            let mut by_pid: BTreeMap<u32, Vec<TraceEvent>> = BTreeMap::new();
            for ev in events {
                by_pid.entry(ev.pid).or_default().push(*ev);
            }
            for (pid, evs) in by_pid {
                streams.push((format!("replay-p{pid}"), evs));
            }
        }
    }
    let nstreams = streams.len() as u64;

    let mut sched = LiteScheduler::new(&sim);
    for (name, evs) in streams {
        sched.spawn(
            &name,
            Box::new(ReplayProc {
                events: evs,
                idx: 0,
                base,
                timed: opts.mode == ReplayMode::Timed,
                disk: disk.clone(),
                env: env.clone(),
                attempts: 0,
                counts: Totals::default(),
                totals: totals.clone(),
            }),
        );
    }
    let handle = sched.start("replayer");
    let elapsed = sim.run().expect("replay run");

    let (reads, writes, blocks_moved) = disk.stats();
    let t = totals.lock();
    ReplayReport {
        events: events.len() as u64,
        file_events: t.file_events,
        commands: t.commands,
        reads,
        writes,
        blocks_moved,
        busy_cy: disk.busy_cycles().0,
        elapsed_cy: elapsed.0,
        recorded_span_cy,
        faults: t.faults,
        eio: t.eio,
        streams: nstreams,
        polls: handle.stats().polls,
    }
}

/// Arms the ambient capture flag and guarantees it is disarmed again on
/// every exit path — panic included — so a crashing sample can never
/// leave the sink armed for the next pool job.
struct AmbientCapture;

impl AmbientCapture {
    fn arm() -> AmbientCapture {
        // Drop captures a previous (possibly panicked) caller left behind.
        let _ = tnt_sim::replay::drain();
        tnt_sim::replay::set_ambient(true);
        AmbientCapture
    }
}

impl Drop for AmbientCapture {
    fn drop(&mut self) {
        tnt_sim::replay::set_ambient(false);
    }
}

/// Runs experiment `id` with ambient capture armed and returns every
/// trace the runs published — one per booted machine that saw disk or
/// namespace activity. This is `reproduce --record <id>`.
pub fn capture_experiment(id: &str, scale: &Scale) -> Vec<Trace> {
    let armed = AmbientCapture::arm();
    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        crate::experiments::run_one(id, scale)
    }));
    drop(armed);
    let traces = tnt_sim::replay::drain();
    match out {
        Ok(_) => traces,
        Err(panic) => std::panic::resume_unwind(panic),
    }
}

/// The vendored fixture traces under `results/traces/`, by stem.
pub fn replay_fixture_ids() -> Vec<&'static str> {
    vec!["desktop_boot", "compile_burst", "blkparse_sample"]
}

/// Builds the `desktop_boot` fixture: a hand-written morning-boot
/// story (init reads `/etc/rc`, pages in the shell, takes a lock; the
/// shell pages itself and appends to the boot log; init drops the
/// lock). The vendored `results/traces/desktop_boot.tntrace` is exactly
/// `desktop_boot_trace().to_bytes()` — a golden test keeps them equal —
/// and the same bytes are the worked example in docs/TRACE_FORMAT.md.
pub fn desktop_boot_trace() -> Trace {
    let ms = |m: u64| m * (CPU_HZ / 1_000);
    let ev = |t: u64, pid: u32, op: Op, arg: u64, size: u64| TraceEvent {
        t,
        pid,
        op,
        arg,
        size,
    };
    Trace {
        paths: vec![
            "/etc/rc".to_string(),
            "/bin/sh".to_string(),
            "/var/log/boot".to_string(),
            "/tmp/boot.lock".to_string(),
        ],
        events: vec![
            ev(ms(0), 1, Op::FileOpen, 0, 0),
            ev(ms(1), 1, Op::BlockRead, 2_048, 2),
            ev(ms(4), 1, Op::FileOpen, 1, 0),
            ev(ms(5), 1, Op::BlockRead, 409_600, 8),
            ev(ms(9), 1, Op::BlockRead, 409_608, 8),
            ev(ms(14), 1, Op::FileOpen, 3, 0),
            ev(ms(15), 1, Op::BlockWrite, 1_048_576, 1),
            ev(ms(22), 2, Op::BlockRead, 409_616, 8),
            ev(ms(27), 2, Op::FileOpen, 2, 0),
            ev(ms(28), 2, Op::BlockWrite, 786_432, 2),
            ev(ms(33), 2, Op::BlockWrite, 786_434, 2),
            ev(ms(36), 1, Op::FileUnlink, 3, 0),
            ev(ms(37), 1, Op::BlockWrite, 1_048_576, 1),
        ],
    }
}

// ---------------------------------------------------------------------
// Capture workloads: the Section 7 stories, scaled, run to a trace.
// ---------------------------------------------------------------------

/// Captures the x11 video+database workload on `os`: the capture-armed
/// machine runs the workload; returns the recorded trace and the
/// recorded disk busy time to compare a replay against.
pub(crate) fn capture_video(os: Os, scale: &Scale, seed: u64) -> (Trace, Cycles) {
    let (sim, kernel) = boot(os, seed);
    let fs = SimFs::fresh_for_os(os);
    kernel.mount(fs.clone());
    sim.recorder().enable();
    let frames = scale.replay_video_frames as u64;
    kernel.spawn_user("playback", move |p| async move {
        let fd = p.creat("/movie.raw").await.expect("creat movie");
        for _ in 0..frames {
            p.write(fd, 64 * 1024).await.expect("write frame");
        }
        p.close(fd).await.expect("close movie");
        let fd = p
            .open("/movie.raw", OpenFlags::rdonly())
            .await
            .expect("reopen movie");
        for _ in 0..frames {
            let mut left: u64 = 64 * 1024;
            while left > 0 {
                let n = p.read(fd, left.min(8_192)).await.expect("read frame");
                assert!(n > 0, "movie ends early");
                left -= n;
            }
            p.compute(Cycles::from_micros(500.0)); // decode
        }
        p.close(fd).await.expect("close movie");
    });
    let pages = (frames * 2).max(8);
    kernel.spawn_user("database", move |p| async move {
        let fd = p.creat("/table.db").await.expect("creat table");
        for _ in 0..pages {
            p.write(fd, 8_192).await.expect("write page");
        }
        p.close(fd).await.expect("close table");
        let fd = p
            .open("/table.db", OpenFlags::rdwr())
            .await
            .expect("reopen table");
        for i in 0..pages {
            // Deterministic pseudo-random page walk (bonnie's seek
            // pattern without consuming engine randomness).
            let off = (i * 7_919 % pages) * 8_192;
            p.lseek(fd, off).expect("seek");
            p.read(fd, 8_192).await.expect("read page");
            p.lseek(fd, off).expect("seek back");
            p.write(fd, 8_192).await.expect("write page");
        }
        p.close(fd).await.expect("close table");
        p.unlink("/table.db").await.expect("drop table");
    });
    // Capture reads the disk's busy time, not the final clock.
    let _ = sim.run().expect("video capture run");
    let busy = fs.cache().disk().busy_cycles();
    (sim.recorder().take(), busy)
}

/// Captures the x12 compile burst on `os`: per unit, create and read a
/// source file, "compile", write the object through a synced temp file.
pub(crate) fn capture_compile(os: Os, scale: &Scale, seed: u64) -> (Trace, Cycles) {
    let (sim, kernel) = boot(os, seed);
    let fs = SimFs::fresh_for_os(os);
    kernel.mount(fs.clone());
    sim.recorder().enable();
    let units = scale.replay_compile_files as u64;
    kernel.spawn_user("cc", move |p| async move {
        p.mkdir("/src").await.expect("mkdir src");
        p.mkdir("/obj").await.expect("mkdir obj");
        for i in 0..units {
            let src = format!("/src/u{i}.c");
            let fd = p.creat(&src).await.expect("creat source");
            p.write(fd, 12 * 1024).await.expect("write source");
            p.close(fd).await.expect("close source");
            let fd = p
                .open(&src, OpenFlags::rdonly())
                .await
                .expect("open source");
            p.read(fd, 12 * 1024).await.expect("read source");
            p.close(fd).await.expect("close source");
            p.compute(Cycles::from_micros(2_000.0)); // the compile itself
            let tmp = format!("/obj/u{i}.tmp");
            let fd = p.creat(&tmp).await.expect("creat temp object");
            p.write(fd, 20 * 1024).await.expect("write object");
            p.fsync(fd).await.expect("sync object");
            p.close(fd).await.expect("close temp");
            p.unlink(&tmp).await.expect("unlink temp");
            let fd = p
                .creat(&format!("/obj/u{i}.o"))
                .await
                .expect("creat object");
            p.write(fd, 20 * 1024).await.expect("write object");
            p.close(fd).await.expect("close object");
        }
    });
    // Capture reads the disk's busy time, not the final clock.
    let _ = sim.run().expect("compile capture run");
    let busy = fs.cache().disk().busy_cycles();
    (sim.recorder().take(), busy)
}

// ---------------------------------------------------------------------
// x11 / x12: record-and-replay experiments.
// ---------------------------------------------------------------------

/// One capture/replay comparison row.
struct ReplayRow {
    os: Os,
    events: u64,
    recorded_busy: Cycles,
    asap: ReplayReport,
    timed: ReplayReport,
}

fn replay_rows(
    capture: impl Fn(Os, &Scale, u64) -> (Trace, Cycles),
    scale: &Scale,
) -> Vec<ReplayRow> {
    Os::benchmarked()
        .into_iter()
        .map(|os| {
            let (trace, recorded_busy) = capture(os, scale, 1);
            let asap = replay_trace(&trace, os, 1, ReplayOptions::asap());
            let timed = replay_trace(&trace, os, 1, ReplayOptions::timed());
            // The equality guarantee (see the module docs) holds when the
            // fault plane is quiet; under --faults the replay re-rolls its
            // own transients and the totals may legitimately drift.
            if tnt_sim::fault::ambient().is_off() {
                assert_eq!(
                    asap.busy_cy,
                    recorded_busy.0,
                    "{}: asap replay disk busy must equal the capture's",
                    os.label()
                );
            }
            ReplayRow {
                os,
                events: trace.len() as u64,
                recorded_busy,
                asap,
                timed,
            }
        })
        .collect()
}

fn render_replay(
    id: &'static str,
    title: &'static str,
    workload_line: &str,
    rows: Vec<ReplayRow>,
) -> ExperimentOutput {
    let ms = |cy: u64| cy as f64 * 1_000.0 / CPU_HZ as f64;
    let mut text = format!("{title}\n  {workload_line}\n\n");
    text.push_str(
        "  OS            events  cmds   recorded busy   replay busy  match   timed elapsed\n",
    );
    for r in &rows {
        let eq = if r.asap.busy_cy == r.recorded_busy.0 {
            "yes"
        } else {
            "DRIFT"
        };
        text.push_str(&format!(
            "  {:<12} {:>7} {:>5} {:>12.2} ms {:>10.2} ms {:>6} {:>12.2} ms\n",
            r.os.label(),
            r.events,
            r.asap.commands,
            ms(r.recorded_busy.0),
            ms(r.asap.busy_cy),
            eq,
            ms(r.timed.elapsed_cy),
        ));
    }
    text.push_str(
        "\n  Replaying each capture in recorded order against a fresh disk\n\
         \x20 reproduces the recorded disk busy time exactly; the timed replay\n\
         \x20 re-creates the original concurrency open-loop, so its elapsed\n\
         \x20 time tracks the recorded span plus trailing disk service.\n",
    );
    let means: Vec<f64> = rows.iter().map(|r| ms(r.asap.busy_cy)).collect();
    let norms = normalize_lower_better(&means);
    let stats = rows
        .iter()
        .zip(means.iter().zip(norms))
        .map(|(r, (&mean, norm))| StatLine {
            label: r.os.label().to_string(),
            mean,
            sd_pct: 0.0,
            norm,
        })
        .collect();
    let record = ExperimentRecord::new(id, title, 1).with_stats(stats);
    ExperimentOutput {
        id,
        title,
        text,
        csv: vec![],
        record: Some(record),
    }
}

fn x11_video_replay(scale: &Scale) -> ExperimentOutput {
    let rows = replay_rows(capture_video, scale);
    let line = format!(
        "Workload: {} frames of 64 KB streamed and re-read, plus a\n\
         \x20 {}-page database walk; captured at the disk boundary, then\n\
         \x20 replayed verbatim (asap) and at recorded timestamps (timed).",
        scale.replay_video_frames,
        (scale.replay_video_frames as u64 * 2).max(8),
    );
    render_replay(
        "x11",
        "ABLATION x11. Video workload record-and-replay",
        &line,
        rows,
    )
}

fn x12_compile_replay(scale: &Scale) -> ExperimentOutput {
    let rows = replay_rows(capture_compile, scale);
    let line = format!(
        "Workload: {} compilation units (create+read source, compile,\n\
         \x20 write object via a synced temp file); captured, then replayed.",
        scale.replay_compile_files,
    );
    render_replay(
        "x12",
        "ABLATION x12. Compile burst record-and-replay",
        &line,
        rows,
    )
}

/// Runs one replay experiment by id.
pub(crate) fn run_replay_experiment(id: &str, scale: &Scale) -> ExperimentOutput {
    match id {
        "x11" => x11_video_replay(scale),
        "x12" => x12_compile_replay(scale),
        other => panic!("unknown replay experiment id {other:?}"),
    }
}

/// Plans x11 as a single shard (a capture plus two replays per OS).
pub(crate) fn plan_x11(scale: &Scale) -> ExperimentPlan {
    plan_replay(
        "x11",
        "ABLATION x11. Video workload record-and-replay",
        25_000,
        scale,
    )
}

/// Plans x12 as a single shard.
pub(crate) fn plan_x12(scale: &Scale) -> ExperimentPlan {
    plan_replay(
        "x12",
        "ABLATION x12. Compile burst record-and-replay",
        20_000,
        scale,
    )
}

fn plan_replay(id: &'static str, title: &'static str, cost: u64, scale: &Scale) -> ExperimentPlan {
    let scale = scale.clone();
    ExperimentPlan {
        id,
        title,
        body: PlanBody::Whole {
            cost,
            run: Box::new(move || vec![run_replay_experiment(id, &scale)]),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ten seconds of blktrace output as `blkparse` renders it, for the
    /// importer path: queue/dispatch/complete rows, reads and writes.
    const BLKPARSE_SAMPLE: &str = "\
  8,0    1        1     0.000000000  4162  Q   R 2097152 + 8 [cc1]
  8,0    1        2     0.000041200  4162  D   R 2097152 + 8 [cc1]
  8,0    1        3     0.009122900     0  C   R 2097152 + 8 [0]
  8,0    1        4     0.051000000  4162  Q  WS 4194304 + 16 [cc1]
  8,0    1        5     0.051038000  4162  D  WS 4194304 + 16 [cc1]
  8,0    1        6     0.068220000     0  C  WS 4194304 + 16 [0]
  8,0    0        7     0.120000000  4170  Q   R 2097160 + 8 [make]
  8,0    0        8     0.120033000  4170  D   R 2097160 + 8 [make]
  8,0    0        9     0.128400000     0  C   R 2097160 + 8 [0]
  8,0    0       10     0.900000000  4170  D   W 6291456 + 32 [make]
  8,0    0       11     0.931000000     0  C   W 6291456 + 32 [0]
  8,0    1       12     2.400000000  4162  D   R 2097168 + 8 [cc1]
  8,0    1       13     9.700000000  4162  D  WM 4194320 + 8 [cc1]
";

    fn fixture_dir() -> std::path::PathBuf {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/traces")
    }

    /// Rebuilds the vendored fixtures under `results/traces/`. Run it
    /// explicitly after changing a builder, then re-vendor the output:
    /// `cargo test -p tnt-harness regenerate_vendored_fixtures -- --ignored`
    #[test]
    #[ignore = "writes the vendored fixtures under results/traces/"]
    fn regenerate_vendored_fixtures() {
        let dir = fixture_dir();
        std::fs::create_dir_all(&dir).expect("fixture dir");
        std::fs::write(
            dir.join("desktop_boot.tntrace"),
            desktop_boot_trace().to_bytes(),
        )
        .expect("write desktop_boot");
        let (trace, _) = capture_compile(Os::FreeBsd, &Scale::smoke(), 1);
        std::fs::write(dir.join("compile_burst.txt"), trace.to_text())
            .expect("write compile_burst");
        std::fs::write(dir.join("blkparse_sample.txt"), BLKPARSE_SAMPLE)
            .expect("write blkparse_sample");
    }

    #[test]
    fn vendored_desktop_boot_matches_the_builder() {
        let bytes =
            std::fs::read(fixture_dir().join("desktop_boot.tntrace")).expect("vendored fixture");
        assert_eq!(
            bytes,
            desktop_boot_trace().to_bytes(),
            "the vendored bytes are the docs/TRACE_FORMAT.md worked example; \
             regenerate_vendored_fixtures and update the doc together"
        );
    }

    #[test]
    fn vendored_text_fixtures_load_and_replay() {
        for name in ["compile_burst.txt", "blkparse_sample.txt"] {
            let bytes = std::fs::read(fixture_dir().join(name)).expect(name);
            let trace = Trace::load(&bytes).expect(name);
            assert!(!trace.is_empty(), "{name} parsed empty");
            let rep = replay_trace(&trace, Os::Solaris, 1, ReplayOptions::asap());
            assert!(rep.commands > 0, "{name} replayed no disk commands");
        }
    }

    #[test]
    fn desktop_boot_fixture_round_trips_both_encodings() {
        let t = desktop_boot_trace();
        assert_eq!(
            Trace::from_bytes(&t.to_bytes()).expect("binary round trip"),
            t
        );
        assert_eq!(Trace::from_text(&t.to_text()).expect("text round trip"), t);
    }

    #[test]
    fn asap_replay_reproduces_the_captured_busy_time() {
        let scale = Scale::smoke();
        for os in [Os::Linux, Os::FreeBsd] {
            let (trace, busy) = capture_video(os, &scale, 1);
            assert!(!trace.is_empty(), "capture recorded nothing");
            let rep = replay_trace(&trace, os, 1, ReplayOptions::asap());
            assert_eq!(rep.busy_cy, busy.0, "{}: busy must match", os.label());
            assert_eq!(rep.streams, 1);
            assert_eq!(rep.reads + rep.writes, rep.commands);
        }
    }

    #[test]
    fn compile_capture_records_namespace_events() {
        let (trace, _) = capture_compile(Os::FreeBsd, &Scale::smoke(), 1);
        let opens = trace.events.iter().filter(|e| e.op == Op::FileOpen).count();
        let unlinks = trace
            .events
            .iter()
            .filter(|e| e.op == Op::FileUnlink)
            .count();
        // Three creats/opens and one unlink per unit, plus noise.
        assert!(opens >= 3 * Scale::smoke().replay_compile_files as usize);
        assert_eq!(unlinks, Scale::smoke().replay_compile_files as usize);
    }

    #[test]
    fn replay_is_deterministic() {
        let trace = desktop_boot_trace();
        let a = replay_trace(&trace, Os::Linux, 7, ReplayOptions::timed());
        let b = replay_trace(&trace, Os::Linux, 7, ReplayOptions::timed());
        assert_eq!(a, b);
        assert_eq!(a.streams, 2, "two recorded pids, two timed streams");
        assert!(a.elapsed_cy >= a.recorded_span_cy, "open-loop replay");
        assert_eq!(a.file_events, 5);
    }

    #[test]
    fn panicking_capture_disarms_the_ambient_sink() {
        // Poison: an unknown id makes the captured experiment panic
        // inside the capture's own catch_unwind.
        let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            capture_experiment("no-such-experiment", &Scale::smoke())
        }));
        assert!(poisoned.is_err(), "unknown id must panic through");
        assert!(
            !tnt_sim::replay::ambient(),
            "a panicking capture must disarm the ambient sink"
        );
        // Recover: a fresh unrelated run right after must not be captured.
        let (sim, kernel) = boot(Os::Linux, 0);
        kernel.spawn_user("innocent", |p| async move { p.compute(Cycles(1_000)) });
        let _ = sim.run().expect("post-panic run");
        assert!(
            tnt_sim::replay::drain().is_empty(),
            "no capture may leak into the next pool job"
        );
    }
}
