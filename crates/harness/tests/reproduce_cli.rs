//! End-to-end tests of the `reproduce` binary: id listing, flag
//! validation, and the bless → check regression-gate roundtrip.

use std::path::PathBuf;
use std::process::{Command, Output};

fn reproduce(args: &[&str], dir: &std::path::Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn reproduce")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tnt-reproduce-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn list_prints_paper_experiments_and_ablations() {
    let dir = temp_dir("list");
    let out = reproduce(&["--list"], &dir);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let ids: Vec<&str> = stdout.lines().collect();
    for id in ["t1", "t7", "f1", "f13", "x1", "x7"] {
        assert!(ids.contains(&id), "--list missing {id}:\n{stdout}");
    }
    // Ablations come after the paper experiments.
    let t1 = ids.iter().position(|i| *i == "t1").unwrap();
    let x1 = ids.iter().position(|i| *i == "x1").unwrap();
    assert!(t1 < x1, "ablations must follow paper experiments");
    // Explore scenarios close the listing, in their own namespace.
    for id in ["explore/mutex-contention", "explore/timer-race"] {
        assert!(ids.contains(&id), "--list missing {id}:\n{stdout}");
    }
    // The replay experiments and the vendored trace fixtures are listed
    // too: x11/x12 among the ablations, fixtures in their namespace.
    for id in [
        "x11",
        "x12",
        "replay/desktop_boot",
        "replay/compile_burst",
        "replay/blkparse_sample",
    ] {
        assert!(ids.contains(&id), "--list missing {id}:\n{stdout}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replay_fixture_runs_deterministically_and_writes_the_artifact() {
    let dir = temp_dir("replay");
    let res = dir.join("res");
    let fixture = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../results/traces/desktop_boot.tntrace");
    let args = [
        "replay",
        fixture.to_str().unwrap(),
        "--out",
        res.to_str().unwrap(),
    ];
    let first = reproduce(&args, &dir);
    assert!(
        first.status.success(),
        "replay failed:\n{}",
        String::from_utf8_lossy(&first.stderr)
    );
    let stdout = String::from_utf8(first.stdout.clone()).unwrap();
    assert!(stdout.contains("desktop_boot"), "{stdout}");
    for os in ["Linux", "FreeBSD", "Solaris"] {
        assert!(stdout.contains(os), "{os} row missing:\n{stdout}");
    }
    let artifact = std::fs::read_to_string(res.join("REPLAY.json")).unwrap();
    assert!(artifact.contains("\"busy_cy\""), "{artifact}");
    assert!(artifact.contains("desktop_boot"), "{artifact}");
    // Byte-determinism: the blessed record is the whole point.
    let second = reproduce(&args, &dir);
    assert_eq!(
        first.stdout, second.stdout,
        "replay output must be byte-stable"
    );

    // An unknown trace is a usage error naming the fixtures.
    let bad = reproduce(&["replay", "no_such_trace"], &dir);
    assert_eq!(bad.status.code(), Some(2));
    let stderr = String::from_utf8(bad.stderr).unwrap();
    assert!(stderr.contains("no_such_trace"), "{stderr}");
    assert!(stderr.contains("desktop_boot"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replay_record_captures_and_replays_an_experiment() {
    let dir = temp_dir("replay-record");
    let res = dir.join("res");
    let out = reproduce(
        &["replay", "--record", "x5", "--out", res.to_str().unwrap()],
        &dir,
    );
    assert!(
        out.status.success(),
        "replay --record failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("captured"), "{stdout}");
    // One .tntrace per machine x5 booted, next to future fixtures.
    let captures: Vec<_> = std::fs::read_dir(res.join("traces"))
        .expect("traces dir")
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    assert!(
        captures
            .iter()
            .any(|n| n.starts_with("x5_") && n.ends_with(".tntrace")),
        "no captures written: {captures:?}"
    );
    assert!(res.join("REPLAY.json").is_file());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn explore_all_passes_and_writes_the_artifact() {
    let dir = temp_dir("explore");
    let res = dir.join("res");
    let out = reproduce(&["explore", "--out", res.to_str().unwrap()], &dir);
    assert!(
        out.status.success(),
        "explore failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("mutex-contention"), "{stdout}");
    assert!(stdout.contains("PASS"), "{stdout}");
    let artifact = std::fs::read_to_string(res.join("EXPLORE.json")).unwrap();
    assert!(artifact.contains("\"passed\": true"), "{artifact}");
    assert!(artifact.contains("schedules"), "{artifact}");

    // An unknown scenario is a usage error, not a silent skip.
    let bad = reproduce(&["explore", "no-such-scenario"], &dir);
    assert_eq!(bad.status.code(), Some(2));
    let stderr = String::from_utf8(bad.stderr).unwrap();
    assert!(stderr.contains("no-such-scenario"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_flags_exit_with_usage_not_a_silent_run() {
    let dir = temp_dir("flags");
    let out = reproduce(&["--parallel", "t2"], &dir);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("--parallel"), "names the flag:\n{stderr}");
    assert!(stderr.contains("usage:"), "shows usage:\n{stderr}");
    // Nothing ran, nothing was written.
    assert!(out.stdout.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_uncreatable_output_directory_is_a_usage_error_not_a_panic() {
    let dir = temp_dir("badout");
    let file = dir.join("not-a-dir");
    std::fs::write(&file, "x").expect("create regular file");
    let out = reproduce(&["--out", file.to_str().unwrap(), "t1"], &dir);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("cannot create output directory"),
        "names the problem:\n{stderr}"
    );
    assert!(!stderr.contains("panicked"), "must not panic:\n{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bless_then_check_roundtrip_passes_and_perturbation_fails() {
    let dir = temp_dir("gate");
    let res = dir.join("res");
    let out_arg = res.to_str().unwrap();

    let bless = reproduce(&["bless", "--out", out_arg, "t1", "t2", "t4"], &dir);
    assert!(
        bless.status.success(),
        "bless failed:\n{}",
        String::from_utf8_lossy(&bless.stderr)
    );
    let baselines = res.join("baselines.json");
    assert!(baselines.exists(), "bless must write baselines.json");

    // Same deterministic sim, same scale: the gate passes.
    let check = reproduce(&["check", "--out", out_arg, "t1", "t2", "t4"], &dir);
    assert!(
        check.status.success(),
        "fresh check failed:\n{}",
        String::from_utf8_lossy(&check.stderr)
    );
    let stdout = String::from_utf8(check.stdout).unwrap();
    assert!(stdout.contains("regression gate PASSED"), "{stdout}");

    // Perturb one blessed mean by 0.1%: the gate is exact.
    let text = std::fs::read_to_string(&baselines).unwrap();
    let mut store = tnt_runner::BaselineStore::from_json(&text).unwrap();
    let stat = store
        .records
        .iter_mut()
        .find(|r| r.id == "t2")
        .expect("t2 blessed")
        .stats
        .first_mut()
        .expect("t2 has stats");
    stat.mean *= 1.001;
    std::fs::write(&baselines, store.to_json()).unwrap();

    let drifted = reproduce(&["check", "--out", out_arg, "t1", "t2", "t4"], &dir);
    assert!(!drifted.status.success(), "perturbed check must fail");
    let stderr = String::from_utf8(drifted.stderr).unwrap();
    assert!(
        stderr.contains("regression gate FAILED"),
        "loud failure:\n{stderr}"
    );
    assert!(
        stderr.contains("t2"),
        "failure names the experiment:\n{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bench_writes_each_experiments_wall_time() {
    let dir = temp_dir("bench");
    let res = dir.join("res");
    let out = reproduce(
        &[
            "--quick",
            "bench",
            "--jobs",
            "2",
            "--out",
            res.to_str().unwrap(),
            "t1",
            "t2",
        ],
        &dir,
    );
    assert!(
        out.status.success(),
        "bench failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(res.join("BENCH_runner.json")).unwrap();
    let doc = tnt_runner::json::Value::parse(&text).unwrap();
    let rows = doc
        .get("wall_ms")
        .and_then(|v| v.as_arr())
        .expect("wall_ms array");
    let ids: Vec<&str> = rows
        .iter()
        .map(|r| r.get("id").and_then(|v| v.as_str()).expect("id"))
        .collect();
    assert_eq!(ids, ["t1", "t2"], "{text}");
    for row in rows {
        for run in ["serial", "parallel"] {
            let ms = row.get(run).and_then(|v| v.as_f64()).expect(run);
            assert!(ms >= 0.0, "{run} wall_ms {ms} in {text}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn check_without_baselines_explains_itself() {
    let dir = temp_dir("nobase");
    let res = dir.join("res");
    let out = reproduce(&["check", "--out", res.to_str().unwrap(), "t1"], &dir);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("reproduce bless"),
        "points at bless:\n{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn check_against_a_corrupt_baseline_is_a_usage_error() {
    let dir = temp_dir("corruptbase");
    let res = dir.join("res");
    std::fs::create_dir_all(&res).expect("create output dir");
    std::fs::write(res.join("baselines.json"), "{\"scale\": \"quick\", \"rec").unwrap();
    let out = reproduce(&["check", "--out", res.to_str().unwrap(), "t1"], &dir);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("is corrupt"),
        "names the problem:\n{stderr}"
    );
    assert!(
        out.stdout.is_empty(),
        "nothing ran:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_unwritable_markdown_report_is_a_usage_error_not_a_panic() {
    let dir = temp_dir("badmd");
    let res = dir.join("res");
    let report = dir.join("report-is-a-dir");
    std::fs::create_dir_all(&report).expect("create directory");
    let out = reproduce(
        &[
            "--out",
            res.to_str().unwrap(),
            "--markdown",
            report.to_str().unwrap(),
            "t1",
        ],
        &dir,
    );
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains(&format!("cannot write {}", report.display())),
        "names the path:\n{stderr}"
    );
    assert!(!stderr.contains("panicked"), "must not panic:\n{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
