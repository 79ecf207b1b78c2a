#![warn(missing_docs)]
// Exact float comparison is a tolerance bug in experiment code; tests
// may compare values they constructed exactly.
#![cfg_attr(not(test), warn(clippy::float_cmp))]

//! The experiment harness: regenerates every table and figure of the
//! paper from the simulation models.
//!
//! Each experiment is identified by its paper label (`"t2"` for Table 2,
//! `"f9"` for Figure 9, ...). [`run_many`] executes a set of them at a
//! chosen [`Scale`] — `Scale::full()` is the paper's methodology (twenty
//! runs of everything), `Scale::quick()` a fast variant with the same
//! shapes — and returns rendered tables/ASCII figures plus CSV series.
//!
//! Execution is a plan → execute → render pipeline: [`plan`] shards
//! the experiment matrix into independent `Send` jobs, [`execute`]
//! runs them — serially, or across host cores on the `tnt-runner`
//! pool (`--jobs N`), costliest first — and rendering happens on the main
//! thread in canonical order, so parallel output is byte-identical to
//! the serial path. Every experiment also emits a structured
//! [`tnt_runner::ExperimentRecord`] for the golden-baseline store
//! (`reproduce bless` / `reproduce check`).
//!
//! The `reproduce` binary drives this end to end:
//!
//! ```text
//! cargo run --release -p tnt-harness --bin reproduce -- --quick --jobs 8 all
//! ```

mod ablations;
mod audit;
pub mod cli;
mod engine_bench;
mod experiments;
mod explore;
mod farm;
mod plan;
mod plot;
mod profile;
mod replay;
mod scale;
mod table;

pub use ablations::{extra_ids, run_extra};
pub use audit::{conservation_audit, AuditFinding, AuditReport};
pub use engine_bench::{
    lite_ring, task_ring, threaded_ring, threaded_ring_hb, RingResult, RING_CHARGE, RING_SLEEP,
};
pub use experiments::{all_ids, bonnie_figures, run_many, run_one, ExperimentOutput};
pub use explore::{
    explore_ids, explore_json, render_explore, run_explore, ExploreOutcome, ExploreScenario,
};
pub use farm::{farm_sweep, FarmSweep};
pub use plan::{execute, plan, Cell, ExperimentPlan, ExperimentResult, PlanBody};
pub use plot::{Figure, XScale};
pub use profile::{
    profile_experiment, profile_ids, profile_one, ProfileOutput, ProfiledSample,
    PROFILE_RING_CAPACITY,
};
pub use replay::{
    capture_experiment, desktop_boot_trace, replay_fixture_ids, replay_trace, ReplayMode,
    ReplayOptions, ReplayReport,
};
pub use scale::Scale;
pub use table::{Direction, Row, Table};
