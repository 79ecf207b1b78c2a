//! The parallel runner's core guarantee: `--jobs N` produces
//! byte-identical output to the serial path — rendered text, CSV
//! series and `baselines.json` alike — and a panicking shard fails
//! only its own experiment.

use tnt_harness::{all_ids, execute, extra_ids, plan, Cell, ExperimentPlan, PlanBody, Scale};
use tnt_runner::BaselineStore;

fn suite_ids() -> Vec<&'static str> {
    all_ids().into_iter().chain(extra_ids()).collect()
}

struct Flat {
    text: String,
    csv: Vec<(String, String)>,
    baselines: String,
}

fn run_suite(jobs: usize) -> Flat {
    let scale = Scale::smoke();
    let results = execute(plan(&suite_ids(), &scale), jobs);
    let mut text = String::new();
    let mut csv = Vec::new();
    let mut records = Vec::new();
    for result in results {
        assert!(
            result.error.is_none(),
            "experiment {} failed: {:?}",
            result.id,
            result.error
        );
        for output in result.outputs {
            text.push_str(&output.text);
            csv.extend(output.csv);
            if let Some(rec) = output.record {
                records.push(rec);
            }
        }
    }
    let baselines = BaselineStore {
        scale: scale.label.to_string(),
        records,
    }
    .to_json();
    Flat {
        text,
        csv,
        baselines,
    }
}

#[test]
fn jobs8_is_byte_identical_to_jobs1_across_all_experiments() {
    let serial = run_suite(1);
    let parallel = run_suite(8);
    assert_eq!(serial.text, parallel.text, "rendered text diverged");
    assert_eq!(
        serial.csv.len(),
        parallel.csv.len(),
        "CSV file set diverged"
    );
    for ((n1, c1), (n8, c8)) in serial.csv.iter().zip(&parallel.csv) {
        assert_eq!(n1, n8, "CSV order diverged");
        assert_eq!(c1, c8, "CSV {n1} diverged");
    }
    assert_eq!(
        serial.baselines, parallel.baselines,
        "baselines.json diverged"
    );
}

#[test]
fn intermediate_job_counts_agree_too() {
    // 2 and 5 exercise different steal patterns than 8.
    let reference = run_suite(1).text;
    for jobs in [2, 5] {
        assert_eq!(run_suite(jobs).text, reference, "jobs={jobs} diverged");
    }
}

fn exploding_plan() -> ExperimentPlan {
    ExperimentPlan {
        id: "boom",
        title: "SYNTHETIC. Exploding experiment",
        body: PlanBody::Cells {
            cells: vec![
                Cell {
                    label: "boom/ok".into(),
                    cost: 1,
                    work: Box::new(|| vec![1.0]),
                },
                Cell {
                    label: "boom/Linux/run2".into(),
                    cost: 1,
                    work: Box::new(|| panic!("disk caught fire")),
                },
            ],
            render: Box::new(|_| unreachable!("render must not run after a shard panic")),
        },
    }
}

#[test]
fn a_panicking_shard_fails_only_its_experiment() {
    let scale = Scale::smoke();
    // Real experiments on both sides of the synthetic failure.
    let mut plans = plan(&["t2", "t4"], &scale);
    plans.insert(1, exploding_plan());
    let results = execute(plans, 8);
    assert_eq!(results.len(), 3);

    assert!(results[0].error.is_none(), "t2 must survive");
    assert!(results[2].error.is_none(), "t4 must survive");
    assert!(results[0].outputs[0].text.contains("TABLE 2"));
    assert!(results[2].outputs[0].text.contains("TABLE 4"));

    let err = results[1].error.as_ref().expect("boom must fail");
    assert!(
        err.contains("boom/Linux/run2"),
        "report names the shard: {err}"
    );
    assert!(
        err.contains("disk caught fire"),
        "report carries the panic message: {err}"
    );
    let report = &results[1].outputs[0];
    assert!(report.text.contains("FAILED"), "{}", report.text);
    assert!(
        report
            .text
            .contains("other experiments in this run are unaffected"),
        "{}",
        report.text
    );
    assert!(report.record.is_none(), "no record for a failed experiment");
}

#[test]
fn records_cover_the_whole_suite() {
    let flat = run_suite(4);
    let store = BaselineStore::from_json(&flat.baselines).unwrap();
    assert_eq!(store.scale, "smoke");
    // One record per output id: 20 paper experiments + 12 ablations.
    assert_eq!(store.records.len(), 32);
    for required in [
        "t1", "t2", "f1", "f9", "f10", "f11", "t7", "x1", "x7", "x8", "x9", "x10", "x11", "x12",
    ] {
        assert!(
            store.records.iter().any(|r| r.id == required),
            "{required} missing from records"
        );
    }
    // Measured tables carry per-OS statistics.
    let t2 = store.records.iter().find(|r| r.id == "t2").unwrap();
    assert_eq!(t2.stats.len(), 3);
    assert!(t2.stats.iter().all(|s| s.mean > 0.0));
}
