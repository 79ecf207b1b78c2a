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
//! - [`pool`] — a thread pool ([`run_ordered`]): workers claim jobs
//!   from one order, costliest first by their cost hints, and every
//!   job is panic-isolated ([`JobPanic`]) so one bad experiment cannot
//!   take down the run.
//! - [`record`] — [`ExperimentRecord`]/[`StatLine`], the structured
//!   per-experiment statistics (per-OS mean, σ, normalised ratio).
//! - [`store`] — [`BaselineStore`]: serialises records to
//!   `results/baselines.json` (`reproduce bless`) and diffs a fresh run
//!   against them with a tolerance gate (`reproduce check` runs it
//!   at tolerance 0, so every statistic must match exactly).
//! - [`json`] — the minimal JSON codec backing the store (the
//!   workspace builds offline; there is no serde).

pub mod json;
pub mod pool;
pub mod record;
pub mod store;

pub use pool::{run_ordered, Job, JobOutcome, JobPanic};
pub use record::{ExperimentRecord, StatLine};
pub use store::{BaselineStore, Drift};
