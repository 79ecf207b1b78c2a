#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

//! Deterministic process-oriented discrete-event simulation core.
//!
//! This crate is the foundation of the `tnt` reproduction of *"A
//! Performance Comparison of UNIX Operating Systems on the Pentium"*
//! (Lai & Baker, USENIX 1996). It provides:
//!
//! - [`Cycles`]: simulated time in clock cycles of the modelled 100 MHz
//!   Pentium, with conversions to the paper's reporting units;
//! - [`Sim`]: a deterministic baton-passing engine in which exactly one
//!   simulated process runs at a time. A process is either a task — a
//!   future that the baton holder polls inline ([`Sim::spawn_task`]), as
//!   every kernel process is — or a threaded process on its own host
//!   thread ([`Sim::spawn`]). Each blocking primitive is one `async fn`:
//!   a task awaits it, and a threaded process runs it through
//!   [`Sim::block_on`];
//! - [`RunPolicy`]: the pluggable run-queue policy through which the three
//!   modelled kernels express their scheduler designs;
//! - [`Summary`], [`Series`] and normalisation helpers matching the
//!   paper's tables (mean, percentage standard deviation, "Norm." column).
//!
//! # Examples
//!
//! ```
//! use tnt_sim::{Cycles, Sim, SimConfig, FifoPolicy};
//!
//! let sim = Sim::new(Box::new(FifoPolicy::new()), SimConfig::default());
//! sim.spawn_task("worker", |s| async move {
//!     s.sleep(Cycles(1_000)).await; // wait for a device
//!     s.advance(Cycles::from_micros(2.31)); // one getpid() on Linux
//! });
//! assert_eq!(sim.run().unwrap(), Cycles(1_231));
//! ```
//!
//! The same process on its own host thread, which parks while it waits:
//!
//! ```
//! use tnt_sim::{Cycles, Sim, SimConfig, FifoPolicy};
//!
//! let sim = Sim::new(Box::new(FifoPolicy::new()), SimConfig::default());
//! sim.spawn("worker", |s| {
//!     s.block_on(s.sleep(Cycles(1_000)));
//!     s.advance(Cycles::from_micros(2.31));
//! });
//! assert_eq!(sim.run().unwrap(), Cycles(1_231));
//! ```

mod chan;
mod engine;
mod lite;
mod lock;
mod policy;
mod stats;
mod time;

pub use chan::SimChannel;
pub use engine::{Sim, SimConfig, SimError, TraceSpan, WaitId};
pub use lock::SimMutex;
pub use policy::{DispatchEnv, FifoPolicy, Pick, RunPolicy, Tid};
pub use stats::{normalize_higher_better, normalize_lower_better, Series, Summary};

/// The cooperative lite-process model: `tnt-proc`'s engine-agnostic
/// core re-exported next to the glue that runs it inside one scheduler
/// task. See DESIGN.md §12.
pub mod proc {
    pub use crate::lite::{block_any, block_on, LiteHandle, LiteScheduler, LiteStats, ProcCtx};
    pub use tnt_proc::{Core, Lid, LiteProc, Step, WaitReason, Wake};
}

/// Race detection and schedule exploration (`tnt-race`), re-exported
/// next to the engine hooks that feed it: `Sim::arm_race_detector`,
/// `Sim::race_read`/`race_write`, `Sim::race_footprints`, and the
/// explorer's [`race::ScriptedPolicy`]. See DESIGN.md §14.
pub mod race {
    pub use crate::policy::{ScheduleLog, ScriptedPolicy};
    pub use tnt_race::{ambient, set_ambient};
    pub use tnt_race::{
        explore, AccessInfo, AccessKind, Choice, Detector, ExploreReport, Footprint, Loc, Outcome,
        Race, RunResult, SyncId, VClock, WakeSrc,
    };

    use crate::engine::{Sim, SimConfig};

    /// The post-run half of an explorer scenario: extracts the
    /// observable payload (`(label, value)` pairs) once `Sim::run` has
    /// returned. Built by the scenario's setup closure, which typically
    /// moves clones of its `Arc`'d logs (and of the `Sim` itself, for
    /// `proc_cpu`) into it.
    pub type Collector = Box<dyn FnOnce() -> Vec<(String, u64)>>;

    /// Runs one scenario under a [`ScriptedPolicy`] replaying `script`,
    /// with the happens-before detector armed, and packages the outcome
    /// for [`fn@explore`]: the scenario's payload (empty on error — a
    /// failed run's partial observables are not comparable), the
    /// recorded branch points, and the per-slice footprints that feed
    /// sleep-set pruning.
    pub fn run_scripted(script: &[usize], scenario: impl FnOnce(&Sim) -> Collector) -> RunResult {
        let log: ScheduleLog = ScheduleLog::default();
        let sim = Sim::new(
            Box::new(ScriptedPolicy::new(script.to_vec(), log.clone())),
            SimConfig::default(),
        );
        sim.arm_race_detector();
        let collect = scenario(&sim);
        let (elapsed, error, payload) = match sim.run() {
            Ok(c) => (c.0, None, collect()),
            Err(e) => (sim.now().0, Some(e.to_string()), Vec::new()),
        };
        let choices = log.lock().clone();
        RunResult {
            outcome: Outcome {
                elapsed,
                cpu: Vec::new(),
                payload,
                error,
            },
            choices,
            footprints: sim.race_footprints(),
        }
    }
}

#[cfg(test)]
mod race_tests;

// The tracing subsystem this engine reports into, re-exported so kernel
// models and the harness share one set of attribution types.
pub use tnt_trace as trace;

// The fault-injection plane the engine hosts, re-exported so device
// models and the harness share one set of profile/plan types.
pub use tnt_fault as fault;

// The workload capture/replay plane the engine hosts (`.tntrace`
// format, per-sim recorder, ambient capture sink), re-exported so the
// disk/fs models and the harness share one set of trace types.
pub use time::{mb_per_sec, mbit_per_sec, round_u64, Cycles, CPU_HZ, MEGABIT, MEGABYTE};
pub use tnt_replay as replay;
