//! Regenerates the paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! reproduce [bless|check|bench] [--quick|--full] [--jobs N]
//!           [--profile] [--out DIR] [--markdown FILE] [ids...|all]
//! reproduce --list
//! ```
//!
//! With no ids, every experiment (ablations included) runs. CSV series
//! are written to the output directory (default `results/`). With
//! `--jobs N` the experiment matrix is sharded across N workers on the
//! `tnt-runner` pool, costliest shard first; output is byte-identical to
//! the serial run. `bless` persists the structured per-experiment records
//! to `results/baselines.json`; `check` reruns the suite and fails
//! loudly unless every statistic equals its blessed value exactly.
//! `bench` times serial vs parallel and writes `BENCH_runner.json`, with
//! each experiment's wall time in both runs.
//! With `--profile`, each experiment is followed by its
//! cycle-attribution breakdown and folded-stack exports land next to
//! the CSVs.

#![warn(clippy::float_cmp)]

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use tnt_harness::cli::{self, Cli, Mode};
use tnt_harness::{
    all_ids, capture_experiment, conservation_audit, execute, explore_ids, explore_json, extra_ids,
    farm_sweep, lite_ring, plan, profile_one, render_explore, replay_fixture_ids, replay_trace,
    run_explore, task_ring, threaded_ring, threaded_ring_hb, ExperimentResult, ReplayOptions,
    ReplayReport, RingResult, Scale,
};
use tnt_runner::{json::Value, BaselineStore, ExperimentRecord};
use tnt_sim::replay::Trace;
use tnt_sim::CPU_HZ;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match cli::parse(args) {
        Ok(cli) => cli,
        Err(err) => {
            eprintln!("reproduce: {err}");
            return ExitCode::from(2);
        }
    };
    // One fallible step for every mode that writes output: a bad `--out`
    // is a usage error, not a panic.
    if !matches!(cli.mode, Mode::Help | Mode::List | Mode::Check) {
        if let Err(err) = fs::create_dir_all(&cli.out_dir) {
            eprintln!(
                "reproduce: cannot create output directory {}: {err}",
                cli.out_dir.display()
            );
            return ExitCode::from(2);
        }
    }
    // Arm the ambient fault profile before any experiment (and before the
    // worker pool spawns): every `boot`/`boot_cluster` in this process
    // picks it up. The default `off` is the byte-identical no-op.
    tnt_sim::fault::set_ambient(cli.faults);
    // --audit also arms the ambient happens-before race detector: every
    // Sim built from here on carries vector clocks and panics (failing
    // the run) on the first unordered same-location access pair.
    if cli.audit {
        tnt_sim::race::set_ambient(true);
    }
    let outcome = match cli.mode {
        Mode::Help => {
            println!("{}", cli::usage());
            Ok(ExitCode::SUCCESS)
        }
        Mode::List => {
            // Both paper experiments and ablation ids: --help names the
            // ablations, so --list must not silently omit them.
            for id in all_ids().iter().chain(extra_ids().iter()) {
                println!("{id}");
            }
            // Explore scenarios are a separate namespace (they are
            // schedules, not experiments) but scripts still need to
            // enumerate them.
            for id in explore_ids() {
                println!("explore/{id}");
            }
            // So are the vendored replay fixtures (they are traces).
            for id in replay_fixture_ids() {
                println!("replay/{id}");
            }
            Ok(ExitCode::SUCCESS)
        }
        Mode::Run => run(&cli),
        Mode::Bless => bless(&cli),
        Mode::Check => Ok(check(&cli)),
        Mode::Bench => bench(&cli),
        Mode::BenchEngine => bench_engine(&cli),
        Mode::Farm => farm(&cli),
        Mode::Explore => explore_cmd(&cli),
        Mode::Replay => replay_cmd(&cli),
    };
    // An output file that cannot be written is a usage error (a bad
    // `--out` or `--markdown`), not a panic.
    outcome.unwrap_or_else(|WriteError { path, err }| {
        eprintln!("reproduce: cannot write {}: {err}", path.display());
        ExitCode::from(2)
    })
}

/// An output file or directory that could not be written.
struct WriteError {
    path: PathBuf,
    err: std::io::Error,
}

/// Writes one output file.
fn write(path: &Path, contents: impl AsRef<[u8]>) -> Result<(), WriteError> {
    fs::write(path, contents).map_err(|err| WriteError {
        path: path.to_path_buf(),
        err,
    })
}

/// Resolves one `replay` operand to a trace: a literal file path, or a
/// trace stem under `OUT/traces/` (fixture names like `desktop_boot`
/// resolve there because the vendored fixtures live in
/// `results/traces/` and `results` is the default output dir).
fn load_trace_arg(arg: &str, cli: &Cli) -> Result<(String, Trace), String> {
    let mut candidates = vec![std::path::PathBuf::from(arg)];
    let stem = cli.out_dir.join("traces").join(arg);
    candidates.push(stem.with_extension("tntrace"));
    candidates.push(stem.with_extension("txt"));
    candidates.push(stem);
    for path in candidates {
        if !path.is_file() {
            continue;
        }
        let bytes = fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let trace = Trace::load(&bytes).map_err(|e| format!("{}: {e}", path.display()))?;
        let name = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| arg.to_string());
        return Ok((name, trace));
    }
    Err(format!(
        "no trace named {arg:?}: not a file, and not a fixture under {} (have: {})",
        cli.out_dir.join("traces").display(),
        replay_fixture_ids().join(" ")
    ))
}

fn replay_json(r: &ReplayReport) -> Value {
    Value::Obj(vec![
        ("events".into(), Value::Num(r.events as f64)),
        ("file_events".into(), Value::Num(r.file_events as f64)),
        ("commands".into(), Value::Num(r.commands as f64)),
        ("reads".into(), Value::Num(r.reads as f64)),
        ("writes".into(), Value::Num(r.writes as f64)),
        ("blocks_moved".into(), Value::Num(r.blocks_moved as f64)),
        ("busy_cy".into(), Value::Num(r.busy_cy as f64)),
        ("elapsed_cy".into(), Value::Num(r.elapsed_cy as f64)),
        ("faults".into(), Value::Num(r.faults as f64)),
        ("eio".into(), Value::Num(r.eio as f64)),
        ("streams".into(), Value::Num(r.streams as f64)),
    ])
}

/// Replays traces (vendored fixtures, files, or fresh `--record`
/// captures) through the disk model on every benchmarked OS.
fn replay_cmd(cli: &Cli) -> Result<ExitCode, WriteError> {
    let scale = cli.scale();
    println!("tnt replay — trace-driven workload replay (docs/TRACE_FORMAT.md)\n");
    if !cli.faults.is_off() {
        println!(
            "faults: {} (deterministic, seed-driven)\n",
            cli.faults.name()
        );
    }

    let mut targets: Vec<(String, Trace)> = Vec::new();
    if let Some(id) = &cli.record {
        // Capture first: every machine the experiment boots publishes
        // its recorded trace; each lands next to the vendored fixtures.
        let traces = capture_experiment(id, &scale);
        if traces.is_empty() {
            eprintln!("reproduce replay: --record {id} captured no disk or namespace activity");
            return Ok(ExitCode::FAILURE);
        }
        let dir = cli.out_dir.join("traces");
        fs::create_dir_all(&dir).map_err(|err| WriteError {
            path: dir.clone(),
            err,
        })?;
        for (k, trace) in traces.iter().enumerate() {
            let name = format!("{id}_{k}");
            let path = dir.join(format!("{name}.tntrace"));
            write(&path, trace.to_bytes())?;
            println!(
                "  [captured {} event(s) -> {}]",
                trace.len(),
                path.display()
            );
            targets.push((name, trace.clone()));
        }
        println!();
    }
    for arg in &cli.ids {
        match load_trace_arg(arg, cli) {
            Ok(target) => targets.push(target),
            Err(err) => {
                eprintln!("reproduce replay: {err}");
                return Ok(ExitCode::from(2));
            }
        }
    }
    if targets.is_empty() {
        eprintln!(
            "reproduce replay: name a fixture or trace file, or pass --record ID\n{}",
            cli::usage()
        );
        return Ok(ExitCode::from(2));
    }

    let ms = |cy: u64| cy as f64 * 1_000.0 / CPU_HZ as f64;
    let mut docs: Vec<Value> = Vec::new();
    for (name, trace) in &targets {
        println!(
            "== replay {name}: {} event(s), {} path(s), recorded span {:.2} ms ==",
            trace.len(),
            trace.paths.len(),
            ms(trace.span())
        );
        println!(
            "  {:<12} {:>6} {:>6} {:>7} {:>8} {:>11} {:>11} {:>5}",
            "OS", "cmds", "reads", "writes", "blocks", "busy ms", "timed ms", "eio"
        );
        let mut os_docs: Vec<(String, Value)> = Vec::new();
        for os in tnt_core::Os::benchmarked() {
            let asap = replay_trace(trace, os, 1, ReplayOptions::asap());
            let timed = replay_trace(trace, os, 1, ReplayOptions::timed());
            println!(
                "  {:<12} {:>6} {:>6} {:>7} {:>8} {:>11.2} {:>11.2} {:>5}",
                os.label(),
                asap.commands,
                asap.reads,
                asap.writes,
                asap.blocks_moved,
                ms(asap.busy_cy),
                ms(timed.elapsed_cy),
                asap.eio,
            );
            os_docs.push((
                os.label().to_string(),
                Value::Obj(vec![
                    ("asap".into(), replay_json(&asap)),
                    ("timed".into(), replay_json(&timed)),
                ]),
            ));
        }
        println!();
        docs.push(Value::Obj(vec![
            ("trace".into(), Value::Str(name.clone())),
            ("events".into(), Value::Num(trace.len() as f64)),
            ("span_cy".into(), Value::Num(trace.span() as f64)),
            ("os".into(), Value::Obj(os_docs)),
        ]));
    }
    let doc = Value::Obj(vec![
        ("mode".into(), Value::Str("replay".into())),
        ("scale".into(), Value::Str(scale.label.to_string())),
        ("faults".into(), Value::Str(cli.faults.name().to_string())),
        ("replays".into(), Value::Arr(docs)),
    ]);
    let path = cli.out_dir.join("REPLAY.json");
    write(&path, doc.render())?;
    println!("replay artifact written to {}", path.display());
    Ok(ExitCode::SUCCESS)
}

/// Exhaustive schedule exploration of the canned concurrency scenarios:
/// every interleaving of contended dispatches (sleep-set pruned) must
/// produce the identical outcome, with no deadlocks or lost wakeups.
fn explore_cmd(cli: &Cli) -> Result<ExitCode, WriteError> {
    println!("tnt explore — exhaustive schedule exploration (happens-before armed)\n");
    // An empty selection means every canned scenario. Generous
    // per-scenario cap: the canned scenarios close out in tens to
    // hundreds of schedules; hitting this means state-space blowup,
    // which run_explore reports as a failure rather than truncating.
    let outcomes = match run_explore(&cli.ids, 4096) {
        Ok(o) => o,
        Err(err) => {
            eprintln!("reproduce explore: {err}");
            return Ok(ExitCode::from(2));
        }
    };
    for o in &outcomes {
        print!("{}", render_explore(o));
    }
    let doc = explore_json(&outcomes);
    let path = cli.out_dir.join("EXPLORE.json");
    write(&path, doc.render())?;
    println!("explore artifact written to {}", path.display());
    let failed: Vec<&str> = outcomes
        .iter()
        .filter(|o| !o.report.passed())
        .map(|o| o.name)
        .collect();
    if failed.is_empty() {
        return Ok(ExitCode::SUCCESS);
    }
    eprintln!(
        "reproduce explore: {} scenario(s) FAILED: {}",
        failed.len(),
        failed.join(", ")
    );
    Ok(ExitCode::FAILURE)
}

/// The full internet-server rate sweep: per-OS capacity and tail-latency
/// curves for the TCP and NFS workloads, on the worker pool.
fn farm(cli: &Cli) -> Result<ExitCode, WriteError> {
    let scale = cli.scale();
    let jobs = cli.effective_jobs();
    banner(cli, &scale, jobs);
    let sweep = farm_sweep(&scale, cli.faults.name(), jobs);
    println!("{}", sweep.text);
    for (name, contents) in &sweep.csv {
        let path = cli.out_dir.join(name);
        write(&path, contents)?;
        println!("  [series written to {}]", path.display());
    }
    let path = cli.out_dir.join("BENCH_farm.json");
    write(&path, sweep.doc.render())?;
    println!("farm artifact written to {}", path.display());
    Ok(ExitCode::SUCCESS)
}

/// Runs the suite and returns the per-experiment results.
fn run_suite(cli: &Cli, scale: &Scale, jobs: usize) -> Vec<ExperimentResult> {
    let ids = cli.resolved_ids();
    let id_refs: Vec<&str> = ids.iter().map(String::as_str).collect();
    execute(plan(&id_refs, scale), jobs)
}

/// Collects the structured records of a run, in suite order.
fn records_of(results: &[ExperimentResult]) -> Vec<ExperimentRecord> {
    results
        .iter()
        .flat_map(|r| r.outputs.iter().filter_map(|o| o.record.clone()))
        .collect()
}

fn banner(cli: &Cli, scale: &Scale, jobs: usize) {
    println!("tnt reproduce — 'A Performance Comparison of UNIX Operating Systems on the Pentium'");
    println!(
        "scale: {} ({} run(s) per measurement), {} worker(s)",
        scale.label, scale.runs, jobs
    );
    // Only a non-default profile prints: with --faults off the output
    // stays byte-identical to builds that predate the fault plane.
    if !cli.faults.is_off() {
        println!("faults: {} (deterministic, seed-driven)", cli.faults.name());
    }
    println!();
}

fn run(cli: &Cli) -> Result<ExitCode, WriteError> {
    let scale = cli.scale();
    let jobs = cli.effective_jobs();
    banner(cli, &scale, jobs);
    #[expect(
        clippy::disallowed_methods,
        reason = "host-side progress timing, never simulated state: prints \"done in N s\" only; no recorded statistic reads it"
    )]
    let t0 = std::time::Instant::now();
    let results = run_suite(cli, &scale, jobs);
    let mut md = String::from(
        "# Reproduction record\n\nGenerated by `reproduce`; every block below is one paper \
         table/figure (or an ablation) rendered from the simulation.\n",
    );
    let mut failures = Vec::new();
    for result in &results {
        if let Some(err) = &result.error {
            failures.push(format!("{}: {err}", result.id));
        }
        for output in &result.outputs {
            println!("{}", output.text);
            md.push_str(&format!(
                "\n## {}\n\n```text\n{}```\n",
                output.title, output.text
            ));
            for (name, contents) in &output.csv {
                let path = cli.out_dir.join(name);
                write(&path, contents)?;
                println!("  [series written to {}]\n", path.display());
                md.push_str(&format!("\nSeries: [`{}`]({})\n", name, path.display()));
            }
            if cli.profile {
                if let Some(p) = profile_one(output.id, &scale) {
                    println!("{}", p.text);
                    md.push_str(&format!("\n```text\n{}```\n", p.text));
                    for (name, contents) in &p.files {
                        let path = cli.out_dir.join(name);
                        write(&path, contents)?;
                        println!("  [folded stacks written to {}]\n", path.display());
                    }
                }
            }
        }
    }
    if let Some(path) = &cli.markdown {
        write(path, md)?;
        println!("markdown report written to {}", path.display());
    }
    if cli.audit {
        let audit = conservation_audit(&scale);
        println!("{}", audit.render());
        if !audit.passed() {
            failures.push(format!(
                "cycle-conservation audit: {} sample(s) drifted",
                audit.failures.len()
            ));
        }
    }
    println!("done in {:.1}s (host time)", t0.elapsed().as_secs_f64());
    if failures.is_empty() {
        return Ok(ExitCode::SUCCESS);
    }
    eprintln!("\n{} experiment(s) FAILED:", failures.len());
    for f in &failures {
        eprintln!("  {f}");
    }
    Ok(ExitCode::FAILURE)
}

fn baselines_path(cli: &Cli) -> std::path::PathBuf {
    cli.out_dir.join("baselines.json")
}

fn bless(cli: &Cli) -> Result<ExitCode, WriteError> {
    let scale = cli.scale();
    let jobs = cli.effective_jobs();
    banner(cli, &scale, jobs);
    let results = run_suite(cli, &scale, jobs);
    for result in &results {
        if let Some(err) = &result.error {
            eprintln!("reproduce bless: {}: {err}", result.id);
            eprintln!("refusing to bless a run with failed experiments");
            return Ok(ExitCode::FAILURE);
        }
    }
    let store = BaselineStore {
        scale: scale.label.to_string(),
        records: records_of(&results),
    };
    let path = baselines_path(cli);
    write(&path, store.to_json())?;
    println!(
        "blessed {} experiment record(s) -> {}",
        store.records.len(),
        path.display()
    );
    for rec in &store.records {
        println!(
            "  {:<4} {:<40} {:>2} stat(s)  {:>8.1} ms",
            rec.id,
            rec.title,
            rec.stats.len(),
            rec.wall_ms
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn check(cli: &Cli) -> ExitCode {
    let path = baselines_path(cli);
    let blessed = match fs::read_to_string(&path) {
        Ok(text) => match BaselineStore::from_json(&text) {
            Ok(store) => store,
            Err(err) => {
                eprintln!("reproduce check: {} is corrupt: {err}", path.display());
                return ExitCode::from(2);
            }
        },
        Err(err) => {
            eprintln!(
                "reproduce check: cannot read {} ({err}); run `reproduce bless` first",
                path.display()
            );
            return ExitCode::from(2);
        }
    };
    let scale = cli.scale();
    let jobs = cli.effective_jobs();
    banner(cli, &scale, jobs);
    let results = run_suite(cli, &scale, jobs);
    let mut failed = false;
    for result in &results {
        if let Some(err) = &result.error {
            eprintln!("reproduce check: {}: {err}", result.id);
            failed = true;
        }
    }
    let fresh = BaselineStore {
        scale: scale.label.to_string(),
        records: records_of(&results),
    };
    let drifts = blessed.compare(&fresh, 0.0);
    println!(
        "checked {} fresh record(s) against {} blessed ({}, exact)",
        fresh.records.len(),
        blessed.records.len(),
        path.display()
    );
    if cli.audit {
        let audit = conservation_audit(&scale);
        println!("{}", audit.render());
        if !audit.passed() {
            eprintln!("reproduce check: cycle-conservation audit failed");
            failed = true;
        }
    }
    if drifts.is_empty() && !failed {
        println!("regression gate PASSED: every statistic equals its blessed value");
        ExitCode::SUCCESS
    } else {
        eprintln!("regression gate FAILED: {} drift(s)", drifts.len());
        for d in &drifts {
            eprintln!("  {d}");
        }
        ExitCode::FAILURE
    }
}

fn bench(cli: &Cli) -> Result<ExitCode, WriteError> {
    let scale = cli.scale();
    let jobs = cli.effective_jobs();
    banner(cli, &scale, jobs);

    #[expect(
        clippy::disallowed_methods,
        reason = "bench mode measures host time by definition"
    )]
    let t0 = std::time::Instant::now();
    let serial = run_suite(cli, &scale, 1);
    let serial_s = t0.elapsed().as_secs_f64();

    #[expect(
        clippy::disallowed_methods,
        reason = "bench mode measures host time by definition"
    )]
    let t1 = std::time::Instant::now();
    let parallel = run_suite(cli, &scale, jobs);
    let parallel_s = t1.elapsed().as_secs_f64();

    // The whole point of the parallel runner is that this comparison
    // is apples to apples: identical bytes, different wall clock.
    let serial_text: String = serial
        .iter()
        .flat_map(|r| r.outputs.iter().map(|o| o.text.as_str()))
        .collect();
    let parallel_text: String = parallel
        .iter()
        .flat_map(|r| r.outputs.iter().map(|o| o.text.as_str()))
        .collect();
    let identical = serial_text == parallel_text;
    let speedup = serial_s / parallel_s.max(1e-9);
    // Each plan's shard time, summed over its shards, in both runs.
    let wall_ms = serial
        .iter()
        .zip(&parallel)
        .map(|(s, p)| {
            Value::Obj(vec![
                ("id".into(), Value::Str(s.id.into())),
                ("serial".into(), Value::Num(s.wall_ms)),
                ("parallel".into(), Value::Num(p.wall_ms)),
            ])
        })
        .collect();

    let doc = Value::Obj(vec![
        ("bench".into(), Value::Str("runner".into())),
        ("scale".into(), Value::Str(scale.label.to_string())),
        ("experiments".into(), Value::Num(serial.len() as f64)),
        ("jobs".into(), Value::Num(jobs as f64)),
        ("serial_s".into(), Value::Num(serial_s)),
        ("parallel_s".into(), Value::Num(parallel_s)),
        ("speedup".into(), Value::Num(speedup)),
        ("byte_identical".into(), Value::Bool(identical)),
        ("wall_ms".into(), Value::Arr(wall_ms)),
    ]);
    let path = cli.out_dir.join("BENCH_runner.json");
    write(&path, doc.render())?;
    println!(
        "serial {serial_s:.2}s, parallel ({jobs} worker(s)) {parallel_s:.2}s -> {speedup:.2}x; \
         outputs byte-identical: {identical}"
    );
    println!("bench artifact written to {}", path.display());
    if identical {
        return Ok(ExitCode::SUCCESS);
    }
    eprintln!("reproduce bench: parallel output DIVERGED from serial output");
    Ok(ExitCode::FAILURE)
}

fn ring_json(r: &RingResult) -> Value {
    Value::Obj(vec![
        ("wall_s".into(), Value::Num(r.wall_s)),
        ("handoffs".into(), Value::Num(r.handoffs as f64)),
        ("host_handoffs".into(), Value::Num(r.host_handoffs as f64)),
        ("handoffs_per_s".into(), Value::Num(r.handoffs_per_s())),
        ("events_per_s".into(), Value::Num(r.events_per_s())),
        (
            "sim_mcycles_per_s".into(),
            Value::Num(r.sim_mcycles_per_s()),
        ),
    ])
}

fn bench_engine(cli: &Cli) -> Result<ExitCode, WriteError> {
    println!("tnt bench-engine — threaded processes vs engine tasks vs lite processes\n");

    // Head-to-head at a size the threaded engine can still host (one OS
    // thread per process): every backend runs the identical simulated
    // ring and must agree on the simulated outcome to the byte.
    let (procs, rounds, seed) = (192u32, 200u32, 1996u64);
    let threaded = threaded_ring(procs, rounds, seed);
    let task = task_ring(procs, rounds, seed);
    let lite = lite_ring(procs, rounds, seed);
    let task_identical = task.elapsed == threaded.elapsed
        && task.total_cpu == threaded.total_cpu
        && task.handoffs == threaded.handoffs;
    let identical = threaded.elapsed == lite.elapsed && threaded.total_cpu == lite.total_cpu;
    // Only threaded processes may wake another host thread; a task or
    // lite ring that does has grown a host thread back.
    let host_handoffs_ok =
        threaded.host_handoffs > 0 && task.host_handoffs == 0 && lite.host_handoffs == 0;
    let row = |name: &str, r: &RingResult| {
        format!(
            "  {name:<9} {:>10.0} handoffs/s  {:>10.0} events/s  {:>7.1} sim-Mcy/s  \
             {:>7} host handoffs  ({:.3}s)",
            r.handoffs_per_s(),
            r.events_per_s(),
            r.sim_mcycles_per_s(),
            r.host_handoffs,
            r.wall_s,
        )
    };
    println!(
        "ring {procs} procs x {rounds} rounds (seed {seed}):\n{}\n{}\n{}\n\
         \x20 task outcome byte-identical to threaded: {task_identical}\n\
         \x20 lite outcome byte-identical to threaded: {identical}\n\
         \x20 host handoffs only on the threaded ring: {host_handoffs_ok}",
        row("threaded:", &threaded),
        row("task:", &task),
        row("lite:", &lite),
    );

    // Crowd scale: far past where per-process threads stop being an
    // option (10k x 512 KB stacks would be ~5 GB).
    let crowd = lite_ring(10_000, 50, seed);
    println!(
        "\nlite crowd 10000 procs x 50 rounds: {:>9.0} handoffs/s  ({:.3}s)",
        crowd.handoffs_per_s(),
        crowd.wall_s,
    );

    let task_ratio = task.handoffs_per_s() / threaded.handoffs_per_s().max(1e-9);
    let ratio = lite.handoffs_per_s() / threaded.handoffs_per_s().max(1e-9);
    println!("\ntask/threaded handoff throughput: {task_ratio:.1}x");
    println!("lite/threaded handoff throughput: {ratio:.1}x");

    // Happens-before overhead gate: the threaded ring disarmed, then
    // armed, in back-to-back pairs. Host noise only ever slows a run
    // down, and one slowed run can push a single pair's ratio past the
    // bound, so the gate divides the fastest armed run by the fastest
    // disarmed one.
    let mut hb_pairs = Vec::new();
    let mut hb_identical = true;
    let (mut plain_s, mut armed_s) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..HB_PAIRS {
        let plain = threaded_ring(procs, rounds, seed);
        let armed = threaded_ring_hb(procs, rounds, seed);
        hb_identical &= armed.elapsed == plain.elapsed
            && armed.total_cpu == plain.total_cpu
            && armed.handoffs == plain.handoffs;
        plain_s = plain_s.min(plain.wall_s);
        armed_s = armed_s.min(armed.wall_s);
        hb_pairs.push(Value::Obj(vec![
            ("disarmed_wall_s".into(), Value::Num(plain.wall_s)),
            ("armed_wall_s".into(), Value::Num(armed.wall_s)),
        ]));
    }
    let hb_ratio = armed_s / plain_s.max(1e-9);
    println!(
        "\nhb-armed ring, fastest of {HB_PAIRS}: {armed_s:.3}s against {plain_s:.3}s disarmed \
         -> {hb_ratio:.2}x slowdown (gate < {HB_OVERHEAD_GATE:.1}x); simulation identical: \
         {hb_identical}"
    );

    let doc = Value::Obj(vec![
        ("bench".into(), Value::Str("engine".into())),
        ("procs".into(), Value::Num(f64::from(procs))),
        ("rounds".into(), Value::Num(f64::from(rounds))),
        ("seed".into(), Value::Num(seed as f64)),
        ("threaded".into(), ring_json(&threaded)),
        ("task".into(), ring_json(&task)),
        ("lite".into(), ring_json(&lite)),
        ("lite_crowd_10k".into(), ring_json(&crowd)),
        ("hb_pairs".into(), Value::Arr(hb_pairs)),
        ("task_handoff_ratio".into(), Value::Num(task_ratio)),
        ("handoff_ratio".into(), Value::Num(ratio)),
        ("hb_overhead_ratio".into(), Value::Num(hb_ratio)),
        ("hb_identical".into(), Value::Bool(hb_identical)),
        ("task_identical".into(), Value::Bool(task_identical)),
        ("byte_identical".into(), Value::Bool(identical)),
        ("host_handoffs_ok".into(), Value::Bool(host_handoffs_ok)),
    ]);
    let path = cli.out_dir.join("BENCH_engine.json");
    write(&path, doc.render())?;
    println!("bench artifact written to {}", path.display());
    let mut ok = true;
    if !task_identical {
        eprintln!("reproduce bench-engine: task outcome DIVERGED from threaded outcome");
        ok = false;
    }
    if !identical {
        eprintln!("reproduce bench-engine: lite outcome DIVERGED from threaded outcome");
        ok = false;
    }
    if !hb_identical {
        eprintln!("reproduce bench-engine: hb-armed outcome DIVERGED from plain outcome");
        ok = false;
    }
    if !host_handoffs_ok {
        eprintln!(
            "reproduce bench-engine: host handoffs threaded={} task={} lite={}; \
             only the threaded ring may switch host threads",
            threaded.host_handoffs, task.host_handoffs, lite.host_handoffs
        );
        ok = false;
    }
    if hb_ratio >= HB_OVERHEAD_GATE {
        eprintln!(
            "reproduce bench-engine: hb overhead {hb_ratio:.2}x breaches the \
             {HB_OVERHEAD_GATE:.1}x gate"
        );
        ok = false;
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Ceiling on the armed happens-before slowdown of the threaded ring:
/// fastest armed wall time over fastest disarmed one (see [`HB_PAIRS`]).
/// Vector-clock joins and footprint appends are O(live tasks) per hook,
/// which the ring keeps small; a 2-CPU host reads about 1.7-2.4x. 4x
/// keeps that headroom while still catching an accidentally quadratic
/// hook, which blows past 10x.
const HB_OVERHEAD_GATE: f64 = 4.0;

/// Disarmed/armed pairs of threaded rings timed for the overhead gate.
const HB_PAIRS: usize = 3;
