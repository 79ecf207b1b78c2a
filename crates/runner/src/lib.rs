#![warn(missing_docs)]
// Exact float comparison is a tolerance bug in experiment code; tests
// may compare values they constructed exactly.
#![cfg_attr(not(test), warn(clippy::float_cmp))]

//! Parallel experiment execution and the golden-baseline results store.
//!
//! The harness describes each experiment as a set of independent jobs
//! (shards of the experiment-id × OS-leg × seeded-run matrix). This
//! crate runs those jobs across host cores and hands the results back
//! **in submission order**, so rendered output is byte-identical to a
//! serial run no matter how the jobs were scheduled:
//!
//! - [`pool`] — a work-stealing thread pool ([`run_ordered`]): each
//!   worker owns a deque, idle workers steal from the back of busy
//!   ones, and every job is panic-isolated ([`JobPanic`]) so one bad
//!   experiment cannot take down the run.
//! - [`plan`] — the shard planner ([`assign_lpt`]): longest-processing-
//!   time assignment from per-job cost hints, which seeds the deques so
//!   stealing starts from a balanced state.
//! - [`record`] — [`ExperimentRecord`]/[`StatLine`], the structured
//!   per-experiment statistics (per-OS mean, σ, normalised ratio).
//! - [`store`] — [`BaselineStore`]: serialises records to
//!   `results/baselines.json` (`reproduce bless`) and diffs a fresh run
//!   against them with a tolerance gate (`reproduce check`).
//! - [`json`] — the minimal JSON codec backing the store (the
//!   workspace builds offline; there is no serde).

pub mod json;
pub mod plan;
pub mod pool;
pub mod record;
pub mod store;

pub use plan::assign_lpt;
pub use pool::{run_ordered, Job, JobOutcome, JobPanic};
pub use record::{ExperimentRecord, StatLine};
pub use store::{BaselineStore, Drift};
