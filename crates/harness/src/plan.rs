//! The plan → execute → render pipeline.
//!
//! [`plan`] turns a list of experiment ids into [`ExperimentPlan`]s:
//! descriptions of the work as independent, `Send` shards of the
//! experiment-id × OS-leg × seeded-run matrix, each with a cost hint
//! for the [`tnt_runner`] pool's job order. [`execute`] runs the shards
//! — serially for `jobs <= 1`, on the pool otherwise, costliest first —
//! and then renders each experiment **on the main thread, in canonical
//! order**, from nothing but the shard results. Because rendering
//! never looks at anything schedule-dependent, `--jobs 8` output is
//! byte-identical to `--jobs 1` output; the integration tests assert
//! this for text, CSV and `baselines.json` alike.
//!
//! A shard that panics fails only its own experiment: the run carries
//! on, and the experiment renders as a loud failure report instead of
//! its table ([`ExperimentResult::error`]).

use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::experiments::ExperimentOutput;
use crate::scale::Scale;
use tnt_runner::{run_ordered, Job};

/// One independent shard of an experiment: a leg of the
/// id × OS × seeded-run matrix.
pub struct Cell {
    /// Human-readable shard name for failure reports,
    /// e.g. `"f1/Solaris/n=32"`.
    pub label: String,
    /// Relative cost hint for the pool's job order.
    pub cost: u64,
    /// The measurement. Returns raw samples; all interpretation
    /// happens at render time.
    pub work: Box<dyn FnOnce() -> Vec<f64> + Send>,
}

/// How an experiment's outputs are produced.
pub enum PlanBody {
    /// Fine-grained: independent cells measured (possibly in
    /// parallel), then a render closure that combines their sample
    /// vectors — presented in cell submission order — into outputs.
    Cells {
        /// The shards, in canonical order.
        cells: Vec<Cell>,
        /// Combines the cell results (same order as `cells`).
        render: Box<dyn FnOnce(Vec<Vec<f64>>) -> Vec<ExperimentOutput> + Send>,
    },
    /// Coarse-grained: the experiment runs as a single shard that
    /// produces its outputs directly (cheap ablations, static tables).
    Whole {
        /// Relative cost hint for the pool's job order.
        cost: u64,
        /// The whole experiment.
        run: Box<dyn FnOnce() -> Vec<ExperimentOutput> + Send>,
    },
}

/// A planned experiment: the unit of failure isolation and of the
/// results store.
pub struct ExperimentPlan {
    /// Plan id — the experiment id, or `"f9+f10+f11"` for the shared
    /// bonnie sweep.
    pub id: &'static str,
    /// Title for failure reports.
    pub title: &'static str,
    /// The work.
    pub body: PlanBody,
}

impl ExperimentPlan {
    fn cell_count(&self) -> usize {
        match &self.body {
            PlanBody::Cells { cells, .. } => cells.len(),
            PlanBody::Whole { .. } => 1,
        }
    }
}

/// The outcome of one executed plan.
pub struct ExperimentResult {
    /// The plan's id.
    pub id: &'static str,
    /// Rendered outputs — the experiment's tables/figures, or a single
    /// failure report if a shard panicked.
    pub outputs: Vec<ExperimentOutput>,
    /// The first shard panic, if any.
    pub error: Option<String>,
    /// Wall-clock compute time summed over this experiment's shards,
    /// in milliseconds. Summing (rather than elapsed span) keeps the
    /// number comparable between serial and parallel runs.
    pub wall_ms: f64,
}

/// Expands experiment ids into plans, sharing work where possible
/// (f9/f10/f11 are one bonnie sweep).
///
/// # Panics
///
/// Panics on an unknown experiment id, like `run_one`.
pub fn plan(ids: &[&str], scale: &Scale) -> Vec<ExperimentPlan> {
    let mut plans = Vec::new();
    let mut bonnie_done = false;
    for id in ids {
        match *id {
            "f9" | "f10" | "f11" => {
                if !bonnie_done {
                    plans.push(crate::experiments::plan_bonnie(scale));
                    bonnie_done = true;
                }
            }
            other => plans.push(crate::experiments::plan_one(other, scale)),
        }
    }
    plans
}

enum ShardValue {
    Samples(Vec<f64>),
    Outputs(Vec<ExperimentOutput>),
}

/// Runs the plans on `jobs` workers and renders every experiment, in
/// canonical order. `jobs <= 1` is the serial reference path; any
/// other value must produce byte-identical outputs.
pub fn execute(plans: Vec<ExperimentPlan>, jobs: usize) -> Vec<ExperimentResult> {
    let cell_counts: Vec<usize> = plans.iter().map(ExperimentPlan::cell_count).collect();
    let mut shard_labels: Vec<String> = Vec::new();
    let mut pool_jobs: Vec<Job<ShardValue>> = Vec::new();
    let mut renders = Vec::new();
    for plan in plans {
        match plan.body {
            PlanBody::Cells { cells, render } => {
                for cell in cells {
                    shard_labels.push(cell.label);
                    let work = cell.work;
                    pool_jobs.push(Job::new(cell.cost, move || ShardValue::Samples(work())));
                }
                renders.push((plan.id, plan.title, Some(render)));
            }
            PlanBody::Whole { cost, run } => {
                shard_labels.push(plan.id.to_string());
                pool_jobs.push(Job::new(cost, move || ShardValue::Outputs(run())));
                renders.push((plan.id, plan.title, None));
            }
        }
    }

    let mut outcomes = run_ordered(pool_jobs, jobs).into_iter();

    // Ordered merge: walk the outcomes in submission order, experiment
    // by experiment, rendering on this (the main) thread.
    let mut results = Vec::new();
    for ((id, title, render), count) in renders.into_iter().zip(cell_counts) {
        let mut wall_ms = 0.0;
        let mut error: Option<String> = None;
        let mut samples: Vec<Vec<f64>> = Vec::with_capacity(count);
        let mut whole_outputs: Option<Vec<ExperimentOutput>> = None;
        for outcome in outcomes.by_ref().take(count) {
            wall_ms += outcome.elapsed.as_secs_f64() * 1e3;
            match outcome.result {
                Ok(ShardValue::Samples(v)) => samples.push(v),
                Ok(ShardValue::Outputs(o)) => whole_outputs = Some(o),
                Err(p) => {
                    if error.is_none() {
                        error = Some(format!(
                            "shard '{}' panicked: {}",
                            shard_labels[p.index], p.message
                        ));
                    }
                }
            }
        }
        let (outputs, error) = if let Some(err) = error {
            (vec![failure_output(id, title, &err)], Some(err))
        } else if let Some(outputs) = whole_outputs {
            (outputs, None)
        } else {
            let render = render.expect("cells plan must carry a render closure");
            match catch_unwind(AssertUnwindSafe(move || render(samples))) {
                Ok(outputs) => (outputs, None),
                Err(payload) => {
                    let msg = payload
                        .downcast_ref::<String>()
                        .cloned()
                        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                        .unwrap_or_else(|| "opaque panic payload".into());
                    let err = format!("render panicked: {msg}");
                    (vec![failure_output(id, title, &err)], Some(err))
                }
            }
        };
        let mut outputs = outputs;
        for output in &mut outputs {
            if let Some(record) = &mut output.record {
                record.wall_ms = wall_ms;
            }
        }
        results.push(ExperimentResult {
            id,
            outputs,
            error,
            wall_ms,
        });
    }
    results
}

fn failure_output(id: &'static str, title: &'static str, error: &str) -> ExperimentOutput {
    ExperimentOutput {
        id,
        title,
        text: format!(
            "{title}\n  EXPERIMENT {id} FAILED — no table/figure produced.\n  {error}\n  \
             (other experiments in this run are unaffected)\n"
        ),
        csv: vec![],
        record: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_plan(id: &'static str, fail: bool) -> ExperimentPlan {
        let cells = (0..3)
            .map(|i| Cell {
                label: format!("{id}/cell{i}"),
                cost: 1,
                work: Box::new(move || {
                    if fail && i == 1 {
                        panic!("cell {i} of {id} went sideways");
                    }
                    vec![i as f64]
                }),
            })
            .collect();
        ExperimentPlan {
            id,
            title: "TEST PLAN",
            body: PlanBody::Cells {
                cells,
                render: Box::new(move |samples| {
                    let total: f64 = samples.iter().flatten().sum();
                    vec![ExperimentOutput {
                        id,
                        title: "TEST PLAN",
                        text: format!("total {total}\n"),
                        csv: vec![],
                        record: None,
                    }]
                }),
            },
        }
    }

    #[test]
    fn execute_renders_in_canonical_order() {
        for jobs in [1, 4] {
            let results = execute(vec![tiny_plan("a", false), tiny_plan("b", false)], jobs);
            assert_eq!(results.len(), 2);
            assert_eq!(results[0].id, "a");
            assert_eq!(results[1].id, "b");
            assert_eq!(results[0].outputs[0].text, "total 3\n");
            assert!(results[0].error.is_none());
        }
    }

    #[test]
    fn a_panicking_shard_fails_only_its_experiment() {
        let results = execute(vec![tiny_plan("good", false), tiny_plan("bad", true)], 4);
        assert!(results[0].error.is_none());
        assert_eq!(results[0].outputs[0].text, "total 3\n");
        let err = results[1].error.as_ref().expect("bad plan must error");
        assert!(err.contains("bad/cell1"), "names the shard: {err}");
        assert!(err.contains("went sideways"), "carries the panic: {err}");
        assert!(results[1].outputs[0].text.contains("FAILED"));
    }

    #[test]
    fn wall_ms_accumulates_over_shards() {
        let results = execute(vec![tiny_plan("a", false)], 1);
        assert!(results[0].wall_ms >= 0.0);
    }
}
