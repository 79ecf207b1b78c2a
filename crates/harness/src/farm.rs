//! Harness wiring for the tnt-farm internet-server subsystem:
//!
//! - `x9`: the quick-grid farm ablation — per-OS TCP capacity/tail
//!   points over the scale's rate grid, blessed into `baselines.json`;
//! - `x10`: the crowd-service experiment — `examples/internet_server.rs`'s
//!   crowd mode promoted to a first-class experiment backed by tnt-farm;
//! - [`farm_sweep`]: the full `reproduce farm` rate sweep — TCP and NFS
//!   grids over every OS on the tnt-runner pool, rendered as capacity
//!   and latency curves plus `BENCH_farm.json` / CSV artifacts. The
//!   sweep composes with `--faults lossy` (the ambient profile reaches
//!   every `boot_cluster` inside `run_farm`) for degraded-mode curves.

use crate::experiments::ExperimentOutput;
use crate::plan::{Cell, ExperimentPlan, PlanBody};
use crate::scale::Scale;
use tnt_farm::{run_farm, FarmConfig, FarmReport, Workload};
use tnt_os::Os;
use tnt_runner::json::Value;
use tnt_runner::{run_ordered, ExperimentRecord, Job, StatLine};

/// Fixed farm seed: one seed per point — the curves are properties of
/// the rate, not of seed averaging (sim runs are deterministic).
const FARM_SEED: u64 = 1996;

/// Flattened per-point metric vector (the shard payload): quantiles in
/// microseconds, then throughput and loss accounting.
const METRICS: [&str; 9] = [
    "p50_us",
    "p95_us",
    "p99_us",
    "p999_us",
    "achieved_rps",
    "completed",
    "retries",
    "drops",
    "failed",
];

fn metrics_of(r: &FarmReport) -> Vec<f64> {
    // 100 cycles per microsecond at the simulated 100 MHz.
    vec![
        r.hist.p50() as f64 / 100.0,
        r.hist.p95() as f64 / 100.0,
        r.hist.p99() as f64 / 100.0,
        r.hist.p999() as f64 / 100.0,
        r.achieved_rps,
        r.completed as f64,
        r.retries as f64,
        (r.backlog_drops + r.queue_drops + r.fault_drops) as f64,
        r.failed as f64,
    ]
}

fn point_config(workload: Workload, os: Os, rate: f64, requests: usize) -> FarmConfig {
    match workload {
        Workload::Tcp => FarmConfig::tcp(os, rate, requests, FARM_SEED),
        Workload::Nfs => FarmConfig::nfs(os, rate, requests, FARM_SEED),
    }
}

fn ms(us: f64) -> f64 {
    us / 1_000.0
}

fn curve_header() -> String {
    format!(
        "  {:<12} {:>6} {:>9} {:>9} {:>9} {:>9} {:>9} {:>6} {:>6} {:>5}\n",
        "OS", "rate", "p50 ms", "p95 ms", "p99 ms", "p999 ms", "ach rps", "retry", "drop", "fail"
    )
}

fn curve_row(os: Os, rate: f64, m: &[f64]) -> String {
    format!(
        "  {:<12} {:>6.0} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>9.1} {:>6.0} {:>6.0} {:>5.0}\n",
        os.label(),
        rate,
        ms(m[0]),
        ms(m[1]),
        ms(m[2]),
        ms(m[3]),
        m[4],
        m[6],
        m[7],
        m[8]
    )
}

fn curve_csv(points: &[(Os, f64, Vec<f64>)]) -> String {
    let mut csv = String::from("os,rate_rps,");
    csv.push_str(&METRICS.join(","));
    csv.push('\n');
    for (os, rate, m) in points {
        csv.push_str(&format!("{},{rate}", os.label()));
        for v in m {
            csv.push_str(&format!(",{v}"));
        }
        csv.push('\n');
    }
    csv
}

/// Per-OS saturation throughput: the best achieved rate anywhere on the
/// grid (the farm's capacity estimate for that OS).
fn saturation(points: &[(Os, f64, Vec<f64>)], os: Os) -> f64 {
    points
        .iter()
        .filter(|(o, _, _)| *o == os)
        .map(|(_, _, m)| m[4])
        .fold(0.0, f64::max)
}

// ---------------------------------------------------------------------
// x9: the quick-grid TCP farm ablation (runs inside the normal suite).
// ---------------------------------------------------------------------

/// Plans the x9 farm grid: one cell per OS × offered rate.
pub(crate) fn plan_x9(scale: &Scale) -> ExperimentPlan {
    let oses = Os::benchmarked();
    let rates = scale.farm_rates.clone();
    let requests = scale.farm_requests;
    let mut cells = Vec::new();
    for &os in &oses {
        for &rate in &rates {
            cells.push(Cell {
                label: format!("x9/{}/{}rps", os.label(), rate),
                cost: 15_000,
                work: Box::new(move || {
                    metrics_of(&run_farm(&point_config(Workload::Tcp, os, rate, requests)))
                }),
            });
        }
    }
    let render_oses = oses;
    ExperimentPlan {
        id: "x9",
        title: "ABLATION x9. Farm capacity and tails (TCP)",
        body: PlanBody::Cells {
            cells,
            render: Box::new(move |samples| {
                let mut points = Vec::new();
                let mut it = samples.into_iter();
                for &os in &render_oses {
                    for &rate in &rates {
                        points.push((os, rate, it.next().expect("one sample per cell")));
                    }
                }
                vec![render_x9(&render_oses, &points)]
            }),
        },
    }
}

fn render_x9(oses: &[Os], points: &[(Os, f64, Vec<f64>)]) -> ExperimentOutput {
    let mut text = String::from(
        "ABLATION x9. Farm capacity and tails: open-loop TCP request/reply\n\
         \x20 8 client hosts -> 1 server through a 100 Mb/s switch; Poisson\n\
         \x20 arrivals, 512 B requests, 4 KB replies; sojourn measured from\n\
         \x20 the scheduled arrival instant (coordinated omission excluded).\n\n",
    );
    text.push_str(&curve_header());
    let mut stats = Vec::new();
    for &os in oses {
        for (o, rate, m) in points.iter().filter(|(o, _, _)| *o == os) {
            text.push_str(&curve_row(*o, *rate, m));
            stats.push(StatLine {
                label: format!("{}@{} p99 ms", os.label(), rate),
                mean: ms(m[2]),
                sd_pct: 0.0,
                norm: 1.0,
            });
            stats.push(StatLine {
                label: format!("{}@{} rps", os.label(), rate),
                mean: m[4],
                sd_pct: 0.0,
                norm: 1.0,
            });
        }
        text.push_str(&format!(
            "  {:<12} saturation throughput ~{:.0} req/s\n",
            os.label(),
            saturation(points, os)
        ));
    }
    text.push_str(
        "\n  Below the knee the three systems are near-identical; past it,\n\
         \x20 Linux 1.2.8's one-packet TCP window (a delayed-ack stall per\n\
         \x20 reply segment) and O(n) scheduler blow the p99 tail out an\n\
         \x20 order of magnitude before FreeBSD or Solaris even notice.\n",
    );
    let record = ExperimentRecord::new("x9", "ABLATION x9. Farm capacity and tails (TCP)", 1)
        .with_stats(stats);
    ExperimentOutput {
        id: "x9",
        title: "ABLATION x9. Farm capacity and tails (TCP)",
        text,
        csv: vec![("x9_farm_tcp.csv".into(), curve_csv(points))],
        record: Some(record),
    }
}

// ---------------------------------------------------------------------
// x10: the crowd, promoted from examples/internet_server.rs.
// ---------------------------------------------------------------------

/// Plans the x10 crowd-service experiment: the example's lite-process
/// crowd, rebuilt on the full farm (real topology, open-loop arrivals,
/// latency plane) — one cell per OS.
pub(crate) fn plan_x10(scale: &Scale) -> ExperimentPlan {
    let oses = Os::benchmarked();
    let crowd = scale.farm_crowd;
    let mut cells = Vec::new();
    for &os in &oses {
        cells.push(Cell {
            label: format!("x10/{}/crowd{}", os.label(), crowd),
            cost: 25_000,
            work: Box::new(move || {
                let cfg = FarmConfig::tcp(os, 600.0, crowd, FARM_SEED);
                let r = run_farm(&cfg);
                let mut m = metrics_of(&r);
                m.push(r.lite_polls as f64);
                m
            }),
        });
    }
    let render_oses = oses;
    ExperimentPlan {
        id: "x10",
        title: "COMPANION x10. Crowd service on the farm",
        body: PlanBody::Cells {
            cells,
            render: Box::new(move |samples| vec![render_x10(&render_oses, crowd, samples)]),
        },
    }
}

fn render_x10(oses: &[Os], crowd: usize, samples: Vec<Vec<f64>>) -> ExperimentOutput {
    let mut text = format!(
        "COMPANION x10. Crowd service: {crowd} lite clients vs 8 workers, 600 req/s offered\n\
         \x20 The internet_server example's crowd mode as a measured\n\
         \x20 experiment: every client is a cooperative state machine in one\n\
         \x20 engine slot, driving the full farm topology.\n\n",
    );
    text.push_str(&format!(
        "  {:<12} {:>9} {:>9} {:>9} {:>7} {:>6} {:>11}\n",
        "OS", "ach rps", "p50 ms", "p99 ms", "retry", "fail", "lite polls"
    ));
    let mut stats = Vec::new();
    for (&os, m) in oses.iter().zip(&samples) {
        text.push_str(&format!(
            "  {:<12} {:>9.1} {:>9.2} {:>9.2} {:>7.0} {:>6.0} {:>11.0}\n",
            os.label(),
            m[4],
            ms(m[0]),
            ms(m[2]),
            m[6],
            m[8],
            m[9]
        ));
        stats.push(StatLine {
            label: format!("{} req/s", os.label()),
            mean: m[4],
            sd_pct: 0.0,
            norm: 1.0,
        });
        stats.push(StatLine {
            label: format!("{} p99 ms", os.label()),
            mean: ms(m[2]),
            sd_pct: 0.0,
            norm: 1.0,
        });
    }
    text.push_str(
        "\n  The crowd costs the engine almost nothing (polls, not threads);\n\
         \x20 what separates the rows is the server OS: scheduler dispatch\n\
         \x20 and TCP window behaviour, same as x9's knee.\n",
    );
    let record = ExperimentRecord::new("x10", "COMPANION x10. Crowd service on the farm", 1)
        .with_stats(stats);
    ExperimentOutput {
        id: "x10",
        title: "COMPANION x10. Crowd service on the farm",
        text,
        csv: vec![],
        record: Some(record),
    }
}

// ---------------------------------------------------------------------
// The full `reproduce farm` sweep.
// ---------------------------------------------------------------------

/// Rendered output of the full farm sweep.
pub struct FarmSweep {
    /// Capacity/latency curves as text.
    pub text: String,
    /// CSV artifacts (`farm_tcp.csv`, `farm_nfs.csv`).
    pub csv: Vec<(String, String)>,
    /// The `BENCH_farm.json` document.
    pub doc: Value,
}

/// Runs the full TCP + NFS rate sweep over every OS on the tnt-runner
/// pool. Deterministic: the job list and merge order are fixed, so the
/// output is byte-identical across `jobs` values.
pub fn farm_sweep(scale: &Scale, faults_name: &str, jobs: usize) -> FarmSweep {
    let oses = Os::benchmarked();
    let grids: [(Workload, &[f64]); 2] = [
        (Workload::Tcp, &scale.farm_rates),
        (Workload::Nfs, &scale.farm_nfs_rates),
    ];
    let requests = scale.farm_requests;
    let mut keys = Vec::new();
    let mut pool_jobs: Vec<Job<Vec<f64>>> = Vec::new();
    for (workload, rates) in grids {
        for &os in &oses {
            for &rate in rates {
                keys.push((workload, os, rate));
                pool_jobs.push(Job::new(15_000, move || {
                    metrics_of(&run_farm(&point_config(workload, os, rate, requests)))
                }));
            }
        }
    }
    let outcomes = run_ordered(pool_jobs, jobs);
    let mut points: Vec<(Workload, Os, f64, Vec<f64>)> = Vec::new();
    for ((workload, os, rate), outcome) in keys.into_iter().zip(outcomes) {
        let m = match outcome.result {
            Ok(m) => m,
            Err(p) => panic!(
                "farm point {}/{}@{rate} panicked: {}",
                workload.label(),
                os.label(),
                p.message
            ),
        };
        points.push((workload, os, rate, m));
    }

    let mut text = format!(
        "tnt farm — internet-server capacity and tail latency per OS\n\
         requests/point: {requests}; faults: {faults_name}\n\n"
    );
    let mut csv = Vec::new();
    let mut workload_docs = Vec::new();
    for (workload, _) in grids {
        let wl_points: Vec<(Os, f64, Vec<f64>)> = points
            .iter()
            .filter(|(w, _, _, _)| *w == workload)
            .map(|(_, os, rate, m)| (*os, *rate, m.clone()))
            .collect();
        text.push_str(match workload {
            Workload::Tcp => "== TCP request/reply (512 B -> 4 KB replies, open-loop Poisson) ==\n",
            Workload::Nfs => "== NFS write RPC (8 KB writes over UDP, sync metadata) ==\n",
        });
        text.push_str(&curve_header());
        let mut row_docs = Vec::new();
        for &os in &oses {
            for (o, rate, m) in wl_points.iter().filter(|(o, _, _)| *o == os) {
                text.push_str(&curve_row(*o, *rate, m));
                let mut fields: Vec<(String, Value)> = vec![
                    ("os".into(), Value::Str(os.label().to_string())),
                    ("rate_rps".into(), Value::Num(*rate)),
                ];
                for (name, v) in METRICS.iter().zip(m) {
                    fields.push(((*name).to_string(), Value::Num(*v)));
                }
                row_docs.push(Value::Obj(fields));
            }
            text.push_str(&format!(
                "  {:<12} saturation throughput ~{:.0} req/s\n",
                os.label(),
                saturation(&wl_points, os)
            ));
        }
        text.push('\n');
        csv.push((
            format!("farm_{}.csv", workload.label()),
            curve_csv(&wl_points),
        ));
        workload_docs.push((
            workload.label().to_string(),
            Value::Obj(vec![
                (
                    "saturation_rps".into(),
                    Value::Obj(
                        oses.iter()
                            .map(|&os| {
                                (
                                    os.label().to_string(),
                                    Value::Num(saturation(&wl_points, os)),
                                )
                            })
                            .collect(),
                    ),
                ),
                ("points".into(), Value::Arr(row_docs)),
            ]),
        ));
    }
    text.push_str(
        "reading the curves: TCP capacity ranks FreeBSD ~ Solaris > Linux\n\
         (one-packet window + O(n) scheduler); NFS writes invert it — sync\n\
         FFS metadata serialises on the disk while ext2's async metadata\n\
         keeps Linux's only weakness its UDP path. Run with --faults lossy\n\
         for the degraded-mode curves (capacity shifts down monotonically).\n",
    );
    let doc = Value::Obj(vec![
        ("bench".into(), Value::Str("farm".into())),
        ("scale".into(), Value::Str(scale.label.to_string())),
        ("faults".into(), Value::Str(faults_name.to_string())),
        ("seed".into(), Value::Num(FARM_SEED as f64)),
        ("requests_per_point".into(), Value::Num(requests as f64)),
        ("workloads".into(), Value::Obj(workload_docs)),
    ]);
    FarmSweep { text, csv, doc }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::execute;

    #[test]
    fn x9_renders_every_os_and_rate() {
        let scale = Scale::smoke();
        let results = execute(vec![plan_x9(&scale)], 1);
        assert!(results[0].error.is_none(), "{:?}", results[0].error);
        let out = &results[0].outputs[0];
        for os in Os::benchmarked() {
            assert!(out.text.contains(os.label()), "{} missing", os.label());
        }
        assert!(out.text.contains("saturation throughput"));
        let record = out.record.as_ref().expect("x9 must carry a record");
        assert_eq!(
            record.stats.len(),
            Os::benchmarked().len() * scale.farm_rates.len() * 2
        );
        assert!(out.csv[0].0 == "x9_farm_tcp.csv");
    }

    #[test]
    fn x9_is_byte_identical_across_jobs() {
        let scale = Scale::smoke();
        let a = execute(vec![plan_x9(&scale)], 1);
        let b = execute(vec![plan_x9(&scale)], 8);
        assert_eq!(a[0].outputs[0].text, b[0].outputs[0].text);
        assert_eq!(a[0].outputs[0].csv, b[0].outputs[0].csv);
    }

    #[test]
    fn x10_reports_the_crowd() {
        let scale = Scale::smoke();
        let results = execute(vec![plan_x10(&scale)], 2);
        assert!(results[0].error.is_none(), "{:?}", results[0].error);
        let out = &results[0].outputs[0];
        assert!(out.text.contains("lite polls"));
        let record = out.record.as_ref().expect("x10 must carry a record");
        assert_eq!(record.stats.len(), Os::benchmarked().len() * 2);
        for s in &record.stats {
            assert!(s.mean.is_finite());
        }
    }

    #[test]
    fn farm_sweep_is_byte_identical_across_jobs() {
        let scale = Scale::smoke();
        let a = farm_sweep(&scale, "off", 1);
        let b = farm_sweep(&scale, "off", 8);
        assert_eq!(a.text, b.text);
        assert_eq!(a.csv, b.csv);
        assert_eq!(a.doc.render(), b.doc.render());
    }

    #[test]
    fn farm_sweep_covers_both_workloads() {
        let scale = Scale::smoke();
        let s = farm_sweep(&scale, "off", 4);
        assert!(s.text.contains("TCP request/reply"));
        assert!(s.text.contains("NFS write RPC"));
        assert_eq!(s.csv.len(), 2);
        assert!(s.csv[0].0 == "farm_tcp.csv" && s.csv[1].0 == "farm_nfs.csv");
        let rendered = s.doc.render();
        assert!(rendered.contains("\"saturation_rps\""));
        assert!(rendered.contains("\"p999_us\""));
    }
}
