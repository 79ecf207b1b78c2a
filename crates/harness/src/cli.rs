//! Argument parsing for the `reproduce` binary.
//!
//! Lives in the library (rather than the binary) so the parser is unit
//! testable: unknown `--flags` must be rejected up front with a usage
//! error instead of falling through to the experiment-id list and
//! dying later as a confusing "unknown experiment id".

use std::path::PathBuf;

use crate::{all_ids, extra_ids};
use tnt_sim::fault::FaultProfile;

/// What `reproduce` has been asked to do.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Run the experiments and print tables/figures (the default).
    Run,
    /// Run the suite and write `baselines.json` into the output dir.
    Bless,
    /// Run the suite and gate it against the blessed `baselines.json`.
    Check,
    /// Time the suite serially and in parallel; write `BENCH_runner.json`
    /// with the totals and each experiment's wall time.
    Bench,
    /// Benchmark the threaded vs lite process models; write
    /// `BENCH_engine.json`.
    BenchEngine,
    /// Run the full internet-server rate sweep (TCP + NFS grids over
    /// every OS); write `BENCH_farm.json` and per-workload CSVs.
    Farm,
    /// Exhaustively explore the schedules of the canned concurrency
    /// scenarios; write `EXPLORE.json`.
    Explore,
    /// Replay `.tntrace` workload traces (named fixtures or paths)
    /// through the disk model on every OS; write `REPLAY.json`.
    Replay,
    /// Print every experiment id (including ablations) and exit.
    List,
    /// Print usage and exit.
    Help,
}

/// Which scale constructor to use (kept as a tag so parsing stays
/// cheap and comparable in tests).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScaleKind {
    /// `Scale::quick()` — the default.
    Quick,
    /// `Scale::full()` — the paper's methodology.
    Full,
}

/// A parsed command line.
#[derive(Clone, Debug)]
pub struct Cli {
    /// Subcommand.
    pub mode: Mode,
    /// Experiment scale.
    pub scale: ScaleKind,
    /// Worker threads for the experiment pool; 0 means "one per host
    /// core".
    pub jobs: usize,
    /// Attach cycle-attribution profiles to each experiment.
    pub profile: bool,
    /// Ambient fault-injection profile (`--faults off|smoke|lossy`).
    pub faults: FaultProfile,
    /// Run the cycle-conservation audit after the suite, and arm the
    /// ambient happens-before race detector for every simulation.
    pub audit: bool,
    /// `--record <id>`: capture the named experiment's disk/namespace
    /// activity to `.tntrace` files instead of (or before) replaying.
    /// Only meaningful with the `replay` subcommand.
    pub record: Option<String>,
    /// Output directory for CSVs, baselines and bench artifacts.
    pub out_dir: PathBuf,
    /// Optional markdown report path.
    pub markdown: Option<PathBuf>,
    /// Requested experiment ids; empty (or containing "all") means the
    /// whole suite including ablations.
    pub ids: Vec<String>,
}

/// The usage string printed by `--help` and prefixed to parse errors.
pub fn usage() -> String {
    format!(
        "usage: reproduce [bless|check|bench|bench-engine|farm|explore|replay] \
         [--quick|--full] [--jobs N] [--profile] [--audit] \
         [--faults off|smoke|lossy] [--record ID] [--out DIR] [--markdown FILE] \
         [ids...|all]\n\
         \n\
         subcommands:\n\
         \x20 (none)   run the experiments and print each table/figure\n\
         \x20 bless    run, then write results/baselines.json (the golden baselines)\n\
         \x20 check    run, then fail loudly unless every statistic equals its blessed value\n\
         \x20 bench    time the suite serially vs --jobs N; write BENCH_runner.json\n\
         \x20 bench-engine  run one ring workload three ways (threaded processes,\n\
         \x20          engine tasks, lite processes) and compare them (events/s,\n\
         \x20          handoffs/s, simulated Mcycles/s); write BENCH_engine.json\n\
         \x20 farm     sweep offered request rates over every OS on the tnt-farm\n\
         \x20          internet-server rig (open-loop load, per-request latency\n\
         \x20          histograms): per-OS p50/p95/p99/p999 and saturation\n\
         \x20          throughput curves; write BENCH_farm.json + farm_*.csv.\n\
         \x20          Composes with --faults lossy for degraded-mode curves\n\
         \x20 explore  replay the canned concurrency scenarios under *every*\n\
         \x20          interleaving of contended dispatches (sleep-set pruned)\n\
         \x20          and fail unless each scenario's outcome is identical on\n\
         \x20          every schedule, with no deadlocks or lost wakeups; write\n\
         \x20          EXPLORE.json. Runs every scenario unless some are named\n\
         \x20 replay   drive recorded workload traces (docs/TRACE_FORMAT.md)\n\
         \x20          through the disk model on every OS: name vendored\n\
         \x20          fixtures ({}) or paths to .tntrace/.txt/blkparse files;\n\
         \x20          prints per-OS disk busy/elapsed totals, writes\n\
         \x20          REPLAY.json. With --record ID, first captures that\n\
         \x20          experiment's runs to OUT/traces/*.tntrace and replays\n\
         \x20          them. Composes with --faults for degraded replays\n\
         \n\
         --audit runs the cycle-conservation audit after the suite: every\n\
         profileable experiment is re-sampled under tracing and charged\n\
         cycles must equal attributed cycles exactly. It also arms the\n\
         happens-before race detector in every simulation — any unordered\n\
         same-location access pair fails the run with both stacks.\n\
         \n\
         --faults injects deterministic seed-driven faults (disk transients\n\
         and remaps, frame drop/duplicate/delay, RPC request/reply loss):\n\
         off (default) injects nothing and is byte-identical to a build\n\
         without the fault plane; smoke is a light sanity dose; lossy is a\n\
         degraded network and an ageing disk.\n\
         \n\
         experiments: {}\n\
         ablations:   {}\n\
         scenarios:   {}",
        crate::replay_fixture_ids().join(" "),
        all_ids().join(" "),
        extra_ids().join(" "),
        crate::explore_ids().join(" ")
    )
}

fn parse_number<T: std::str::FromStr>(flag: &str, value: Option<String>) -> Result<T, String> {
    let raw = value.ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
    raw.parse()
        .map_err(|_| format!("{flag} got a non-numeric value {raw:?}\n{}", usage()))
}

/// Parses the argument list (without the program name).
///
/// Unrecognised `--`-prefixed arguments are an error — they must never
/// be swallowed into the experiment-id list.
pub fn parse(args: Vec<String>) -> Result<Cli, String> {
    let mut cli = Cli {
        mode: Mode::Run,
        scale: ScaleKind::Quick,
        jobs: 1,
        profile: false,
        faults: FaultProfile::off(),
        audit: false,
        record: None,
        out_dir: PathBuf::from("results"),
        markdown: None,
        ids: Vec::new(),
    };
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "bless" => cli.mode = Mode::Bless,
            "check" => cli.mode = Mode::Check,
            "bench" => cli.mode = Mode::Bench,
            "bench-engine" => cli.mode = Mode::BenchEngine,
            "farm" => cli.mode = Mode::Farm,
            "explore" => cli.mode = Mode::Explore,
            "replay" => cli.mode = Mode::Replay,
            "--list" => cli.mode = Mode::List,
            "--help" | "-h" => cli.mode = Mode::Help,
            "--quick" => cli.scale = ScaleKind::Quick,
            "--full" => cli.scale = ScaleKind::Full,
            "--profile" => cli.profile = true,
            "--audit" => cli.audit = true,
            "--faults" => {
                let raw = iter
                    .next()
                    .ok_or_else(|| format!("--faults needs a profile name\n{}", usage()))?;
                cli.faults = FaultProfile::parse(&raw).ok_or_else(|| {
                    format!("--faults got {raw:?}, want off|smoke|lossy\n{}", usage())
                })?;
            }
            "--record" => {
                cli.record = Some(
                    iter.next()
                        .ok_or_else(|| format!("--record needs an experiment id\n{}", usage()))?,
                );
            }
            "--jobs" | "-j" => cli.jobs = parse_number("--jobs", iter.next())?,
            "--out" => {
                cli.out_dir = PathBuf::from(
                    iter.next()
                        .ok_or_else(|| format!("--out needs a directory\n{}", usage()))?,
                );
            }
            "--markdown" => {
                cli.markdown =
                    Some(PathBuf::from(iter.next().ok_or_else(|| {
                        format!("--markdown needs a file\n{}", usage())
                    })?));
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown flag {other:?}\n{}", usage()));
            }
            other => cli.ids.push(other.to_string()),
        }
    }
    if cli.record.is_some() && cli.mode != Mode::Replay {
        return Err(format!(
            "--record only makes sense with the replay subcommand\n{}",
            usage()
        ));
    }
    Ok(cli)
}

impl Cli {
    /// The effective worker count: `--jobs 0` means one per host core.
    pub fn effective_jobs(&self) -> usize {
        if self.jobs == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.jobs
        }
    }

    /// The ids to run: the explicit list, or the whole suite
    /// (experiments then ablations) when empty or "all".
    pub fn resolved_ids(&self) -> Vec<String> {
        if self.ids.is_empty() || self.ids.iter().any(|i| i == "all") {
            all_ids()
                .iter()
                .chain(extra_ids().iter())
                .map(|s| s.to_string())
                .collect()
        } else {
            self.ids.clone()
        }
    }

    /// Builds the scale.
    pub fn scale(&self) -> crate::Scale {
        match self.scale {
            ScaleKind::Quick => crate::Scale::quick(),
            ScaleKind::Full => crate::Scale::full(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults() {
        let cli = parse(vec![]).unwrap();
        assert_eq!(cli.mode, Mode::Run);
        assert_eq!(cli.scale, ScaleKind::Quick);
        assert_eq!(cli.jobs, 1);
        assert!(!cli.profile);
        assert_eq!(cli.out_dir, PathBuf::from("results"));
        // Empty ids resolve to the full suite, ablations included.
        let ids = cli.resolved_ids();
        assert!(ids.iter().any(|i| i == "t2"));
        assert!(ids.iter().any(|i| i == "x7"));
    }

    #[test]
    fn unknown_flags_are_rejected_up_front() {
        for bad in ["--paralel", "--jbos", "-z", "--bless"] {
            let err = parse(args(&[bad, "t2"])).unwrap_err();
            assert!(err.contains(bad), "error names the flag: {err}");
            assert!(err.contains("usage:"), "error shows usage: {err}");
        }
    }

    #[test]
    fn subcommands_and_flags_parse() {
        let cli = parse(args(&[
            "check", "--full", "--jobs", "8", "--audit", "t2", "t5",
        ]))
        .unwrap();
        assert_eq!(cli.mode, Mode::Check);
        assert_eq!(cli.scale, ScaleKind::Full);
        assert_eq!(cli.jobs, 8);
        assert!(cli.audit);
        assert_eq!(cli.ids, vec!["t2", "t5"]);
        assert_eq!(cli.resolved_ids(), vec!["t2", "t5"]);
    }

    #[test]
    fn bench_engine_parses() {
        let cli = parse(args(&["bench-engine"])).unwrap();
        assert_eq!(cli.mode, Mode::BenchEngine);
        let cli = parse(args(&["bench-engine", "--out", "elsewhere"])).unwrap();
        assert_eq!(cli.out_dir, PathBuf::from("elsewhere"));
    }

    #[test]
    fn farm_parses_with_flags() {
        let cli = parse(args(&["farm"])).unwrap();
        assert_eq!(cli.mode, Mode::Farm);
        let cli = parse(args(&[
            "farm", "--full", "--jobs", "4", "--faults", "lossy",
        ]))
        .unwrap();
        assert_eq!(cli.mode, Mode::Farm);
        assert_eq!(cli.scale, ScaleKind::Full);
        assert_eq!(cli.jobs, 4);
        assert_eq!(cli.faults, FaultProfile::lossy());
        // The usage text sells the sweep.
        assert!(usage().contains("farm"));
        assert!(usage().contains("BENCH_farm.json"));
    }

    #[test]
    fn numeric_flags_validate() {
        assert!(parse(args(&["--jobs"])).is_err());
        assert!(parse(args(&["--jobs", "many"])).is_err());
    }

    #[test]
    fn faults_flag_parses_profiles() {
        assert!(parse(vec![]).unwrap().faults.is_off());
        let cli = parse(args(&["--faults", "smoke"])).unwrap();
        assert_eq!(cli.faults, FaultProfile::smoke());
        let cli = parse(args(&["--faults", "lossy", "t6"])).unwrap();
        assert_eq!(cli.faults, FaultProfile::lossy());
        assert_eq!(cli.ids, vec!["t6"]);
        let err = parse(args(&["--faults", "chaos"])).unwrap_err();
        assert!(err.contains("chaos") && err.contains("usage:"));
        assert!(parse(args(&["--faults"])).is_err());
    }

    #[test]
    fn jobs_zero_means_auto() {
        let cli = parse(args(&["--jobs", "0"])).unwrap();
        assert!(cli.effective_jobs() >= 1);
    }

    #[test]
    fn usage_names_every_ablation() {
        let u = usage();
        for id in crate::extra_ids() {
            assert!(u.contains(id), "{id} missing from usage");
        }
    }

    #[test]
    fn explore_parses_named_scenarios() {
        let cli = parse(args(&["explore"])).unwrap();
        assert_eq!(cli.mode, Mode::Explore);
        assert!(cli.ids.is_empty());
        let cli = parse(args(&["explore", "mutex-contention", "timer-race"])).unwrap();
        assert_eq!(cli.mode, Mode::Explore);
        assert_eq!(cli.ids, vec!["mutex-contention", "timer-race"]);
        // The scenario namespace is advertised alongside the experiments.
        let u = usage();
        assert!(u.contains("explore"));
        for id in crate::explore_ids() {
            assert!(u.contains(id), "{id} missing from usage");
        }
    }

    #[test]
    fn replay_parses_with_fixtures_and_record() {
        let cli = parse(args(&["replay", "desktop_boot"])).unwrap();
        assert_eq!(cli.mode, Mode::Replay);
        assert_eq!(cli.ids, vec!["desktop_boot"]);
        assert!(cli.record.is_none());
        let cli = parse(args(&["replay", "--record", "f9", "--faults", "lossy"])).unwrap();
        assert_eq!(cli.mode, Mode::Replay);
        assert_eq!(cli.record.as_deref(), Some("f9"));
        assert_eq!(cli.faults, FaultProfile::lossy());
        // The usage text documents the subcommand and every fixture.
        let u = usage();
        assert!(u.contains("replay") && u.contains("REPLAY.json"));
        for id in crate::replay_fixture_ids() {
            assert!(u.contains(id), "{id} missing from usage");
        }
    }

    #[test]
    fn record_needs_replay_mode_and_a_value() {
        assert!(parse(args(&["replay", "--record"])).is_err());
        let err = parse(args(&["--record", "f9", "t2"])).unwrap_err();
        assert!(err.contains("replay subcommand"), "{err}");
        let err = parse(args(&["check", "--record", "f9"])).unwrap_err();
        assert!(err.contains("usage:"), "{err}");
    }

    #[test]
    fn replay_still_rejects_unknown_flags() {
        // Strictness survives the new subcommand: a typo'd subflag next
        // to `replay` is an error, never a trace name.
        for bad in ["--recrod", "--asap", "-t"] {
            let err = parse(args(&["replay", bad, "desktop_boot"])).unwrap_err();
            assert!(err.contains(bad), "error names the flag: {err}");
            assert!(err.contains("usage:"), "error shows usage: {err}");
        }
    }

    #[test]
    fn explore_still_rejects_unknown_flags() {
        // Strictness survives the new subcommand: a typo'd flag next to
        // `explore` is an error, never a silently ignored scenario name.
        for bad in ["--all", "--al", "--explore-all", "-a"] {
            let err = parse(args(&["explore", bad])).unwrap_err();
            assert!(err.contains(bad), "error names the flag: {err}");
            assert!(err.contains("usage:"), "error shows usage: {err}");
        }
    }
}
