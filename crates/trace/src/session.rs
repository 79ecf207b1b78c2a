//! Cross-simulation profiling sessions.
//!
//! Every benchmark entry point in `tnt-core` boots its own short-lived
//! `Sim`, so profiling an *experiment* means aggregating over many
//! tracers. A session is a process-global collector: while one is active
//! (see [`run`]), every newly created `Sim` auto-enables its tracer and
//! publishes its attribution into the collector when `Sim::run` finishes.
//! Components without a `Sim` (the raw memory-system model) contribute
//! through [`add_counter`].
//!
//! Sessions are serialized by a global lock so concurrently running tests
//! cannot bleed into each other's reports.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};

use parking_lot::Mutex;

use crate::class::{Class, Counter};
use crate::tracer::Tracer;

/// Aggregated attribution across every `Sim` that ran during a session.
#[derive(Clone, Debug, Default)]
pub struct SessionReport {
    /// Number of simulations that published into the session.
    pub sims: u64,
    /// Sum of final simulated clocks (cycles).
    pub elapsed: u64,
    /// Sum of attributed cycles (equals `elapsed` when instrumentation
    /// covers every clock-advance path).
    pub attributed: u64,
    /// Cycles attributed to [`Class::UnknownIdle`].
    pub unknown_idle: u64,
    /// Trace-ring drops across all sims (counted, never silent).
    pub dropped: u64,
    /// Cycles per (class, process name).
    pub class_cycles: BTreeMap<(Class, String), u64>,
    /// Counter totals, indexed by `Counter as usize`.
    pub counters: [u64; Counter::COUNT],
    /// Merged folded stacks.
    pub folded: BTreeMap<String, u64>,
}

impl SessionReport {
    /// Total cycles in `class` across all processes.
    pub fn class_total(&self, class: Class) -> u64 {
        self.class_cycles
            .iter()
            .filter(|((c, _), _)| *c == class)
            .map(|(_, cy)| *cy)
            .sum()
    }

    /// Per-class totals, largest first (ties broken by class order).
    pub fn by_class(&self) -> Vec<(Class, u64)> {
        let mut totals: Vec<(Class, u64)> = Class::ALL
            .iter()
            .map(|&c| (c, self.class_total(c)))
            .filter(|&(_, cy)| cy > 0)
            .collect();
        totals.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        totals
    }

    /// Fraction of elapsed cycles attributed to a known class.
    pub fn coverage(&self) -> f64 {
        if self.elapsed == 0 {
            return 1.0;
        }
        (self.attributed.saturating_sub(self.unknown_idle)) as f64 / self.elapsed as f64
    }

    /// Counter total for `c`.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// Checks cycle conservation: with tracing enabled, the simulated
    /// clock only moves through `Charge`, `Dispatch` and `Idle` events,
    /// every one of which the tracer attributes to a class — so the
    /// attributed total must equal the elapsed total *exactly*, and the
    /// per-class breakdown must sum back to it. A mismatch means a
    /// clock-advance path escaped instrumentation (cycles charged but
    /// never attributed, or attributed twice) and the profiler's
    /// percentages can no longer be trusted.
    ///
    /// Returns `Ok(())` when both legs hold, or a message naming the
    /// drift.
    pub fn conservation(&self) -> Result<(), String> {
        if self.attributed != self.elapsed {
            return Err(format!(
                "attributed {} cycles != elapsed {} (drift {:+}): a clock-advance path \
                 escaped instrumentation",
                self.attributed,
                self.elapsed,
                self.attributed as i128 - self.elapsed as i128
            ));
        }
        let class_sum: u64 = self.class_cycles.values().sum();
        if class_sum != self.attributed {
            return Err(format!(
                "per-class cycles sum to {} but {} were attributed (drift {:+}): \
                 attribution lost or double-counted cycles",
                class_sum,
                self.attributed,
                class_sum as i128 - self.attributed as i128
            ));
        }
        Ok(())
    }

    /// Folded stacks rendered one per line for flame-graph tooling.
    pub fn folded_text(&self) -> String {
        let mut out = String::new();
        for (key, cy) in &self.folded {
            out.push_str(&format!("{key} {cy}\n"));
        }
        out
    }

    /// Renders the breakdown as an indented text table with a counter
    /// footer — the block `reproduce --profile` prints under each
    /// table/figure.
    pub fn render(&self, label: &str) -> String {
        let mut out = String::new();
        out.push_str(&format!("  profile: {label}\n"));
        out.push_str("    class                  cycles      %\n");
        let denom = self.elapsed.max(1) as f64;
        for (class, cy) in self.by_class() {
            out.push_str(&format!(
                "    {:<20} {:>12} {:>5.1}%\n",
                class.label(),
                cy,
                100.0 * cy as f64 / denom
            ));
        }
        out.push_str(&format!(
            "    {:<20} {:>12} 100.0%   ({} sims, coverage {:.1}%)\n",
            "total elapsed",
            self.elapsed,
            self.sims,
            100.0 * self.coverage()
        ));
        let footer: Vec<String> = Counter::ALL
            .iter()
            .filter(|&&c| self.counter(c) > 0)
            .map(|&c| format!("{}={}", c.label(), self.counter(c)))
            .collect();
        if !footer.is_empty() {
            out.push_str(&format!("    counters: {}\n", footer.join(", ")));
        }
        if self.dropped > 0 {
            out.push_str(&format!(
                "    trace ring overflow: {} events dropped (attribution unaffected)\n",
                self.dropped
            ));
        }
        out
    }
}

struct SessionState {
    capacity: usize,
    report: SessionReport,
}

static GATE: Mutex<()> = Mutex::new(());
static ACTIVE: AtomicBool = AtomicBool::new(false);
static STATE: Mutex<Option<SessionState>> = Mutex::new(None);

/// Whether a profiling session is currently collecting.
pub fn active() -> bool {
    ACTIVE.load(Ordering::Acquire)
}

/// Ring capacity newly booted sims should enable their tracer with.
pub fn ring_capacity() -> usize {
    STATE
        .lock()
        .as_ref()
        .map_or(crate::tracer::DEFAULT_RING_CAPACITY, |s| s.capacity)
}

/// Folds one finished simulation's tracer into the active session (no-op
/// when no session is active).
pub fn publish(tracer: &Tracer, elapsed: u64) {
    let mut g = STATE.lock();
    let Some(state) = g.as_mut() else {
        return;
    };
    let profile = tracer.profile();
    let r = &mut state.report;
    r.sims += 1;
    r.elapsed += elapsed;
    r.attributed += profile.attributed;
    r.unknown_idle += profile.unknown_idle;
    r.dropped += tracer.dropped();
    for ((class, name), cy) in tracer.cycles_by_name() {
        *r.class_cycles.entry((class, name)).or_default() += cy;
    }
    for (key, cy) in tracer.folded_map() {
        *r.folded.entry(key).or_default() += cy;
    }
    let snap = tracer.counters().snapshot();
    for (i, v) in snap.iter().enumerate() {
        r.counters[i] += v;
    }
}

/// Adds directly to the session's counters — for components that have no
/// `Sim` (the raw memory-system model). No-op when no session is active.
pub fn add_counter(c: Counter, n: u64) {
    if !active() {
        return;
    }
    if let Some(state) = STATE.lock().as_mut() {
        state.report.counters[c as usize] += n;
    }
}

/// Clears the session flag even if the profiled closure panics.
struct Deactivate;

impl Drop for Deactivate {
    fn drop(&mut self) {
        ACTIVE.store(false, Ordering::Release);
        *STATE.lock() = None;
    }
}

/// Runs `f` with a profiling session active and returns its result plus
/// the aggregated report. Sessions are globally serialized; nesting one
/// inside `f` deadlocks, so don't.
pub fn run<T>(capacity: usize, f: impl FnOnce() -> T) -> (T, SessionReport) {
    let _gate = GATE.lock();
    *STATE.lock() = Some(SessionState {
        capacity,
        report: SessionReport::default(),
    });
    ACTIVE.store(true, Ordering::Release);
    let cleanup = Deactivate;
    let out = f();
    ACTIVE.store(false, Ordering::Release);
    let report = STATE.lock().take().map(|s| s.report).unwrap_or_default();
    std::mem::forget(cleanup);
    (out, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::{Event, EventKind};

    #[test]
    fn session_collects_published_tracers() {
        let ((), report) = run(1024, || {
            assert!(active());
            let tr = Tracer::new();
            tr.enable(ring_capacity());
            tr.record(Event {
                t: 0,
                pid: 1,
                kind: EventKind::Spawn("w".into()),
            });
            tr.record(Event {
                t: 0,
                pid: 1,
                kind: EventKind::Enter(Class::ProtoCpu),
            });
            tr.record(Event {
                t: 4,
                pid: 1,
                kind: EventKind::Charge { cy: 4 },
            });
            tr.count(Counter::TcpSegments, 2);
            publish(&tr, 4);
            add_counter(Counter::L1Misses, 9);
        });
        assert!(!active());
        assert_eq!(report.sims, 1);
        assert_eq!(report.elapsed, 4);
        assert_eq!(report.class_total(Class::ProtoCpu), 4);
        assert_eq!(report.counter(Counter::TcpSegments), 2);
        assert_eq!(report.counter(Counter::L1Misses), 9);
        assert!((report.coverage() - 1.0).abs() < 1e-9);
        let rendered = report.render("test");
        assert!(rendered.contains("protocol cpu"), "{rendered}");
        assert!(rendered.contains("tcp segments=2"), "{rendered}");
    }

    #[test]
    fn conservation_holds_for_published_tracers() {
        let ((), report) = run(1024, || {
            let tr = Tracer::new();
            tr.enable(ring_capacity());
            tr.record(Event {
                t: 0,
                pid: 1,
                kind: EventKind::Enter(Class::TrapEntry),
            });
            tr.record(Event {
                t: 7,
                pid: 1,
                kind: EventKind::Charge { cy: 7 },
            });
            tr.record(Event {
                t: 9,
                pid: 1,
                kind: EventKind::Dispatch { cy: 2 },
            });
            tr.record(Event {
                t: 14,
                pid: 0,
                kind: EventKind::Idle { cy: 5 },
            });
            publish(&tr, 14);
        });
        report.conservation().expect("conservation must hold");
    }

    #[test]
    fn conservation_catches_unattributed_and_lost_cycles() {
        // Elapsed moved without a matching Charge event: leg one fails.
        let mut r = SessionReport {
            elapsed: 100,
            attributed: 90,
            ..SessionReport::default()
        };
        r.class_cycles.insert((Class::User, "p".into()), 90);
        let err = r.conservation().unwrap_err();
        assert!(err.contains("escaped instrumentation"), "{err}");

        // Attributed total and per-class breakdown disagree: leg two.
        let mut r = SessionReport {
            elapsed: 100,
            attributed: 100,
            ..SessionReport::default()
        };
        r.class_cycles.insert((Class::User, "p".into()), 60);
        let err = r.conservation().unwrap_err();
        assert!(err.contains("double-counted"), "{err}");
    }

    #[test]
    fn publish_without_session_is_noop() {
        let tr = Tracer::new();
        tr.enable(16);
        tr.record(Event {
            t: 1,
            pid: 1,
            kind: EventKind::Charge { cy: 1 },
        });
        {
            // Holding the gate keeps a session another test opens from
            // collecting these out-of-session calls.
            let _gate = GATE.lock();
            publish(&tr, 1);
            add_counter(Counter::Forks, 1);
        }
        let ((), report) = run(16, || {});
        assert_eq!(report.sims, 0);
        assert_eq!(report.counter(Counter::Forks), 0);
    }

    #[test]
    fn sessions_reset_between_runs() {
        let ((), first) = run(16, || {
            let tr = Tracer::new();
            tr.enable(16);
            tr.record(Event {
                t: 2,
                pid: 1,
                kind: EventKind::Charge { cy: 2 },
            });
            publish(&tr, 2);
        });
        assert_eq!(first.elapsed, 2);
        let ((), second) = run(16, || {});
        assert_eq!(second.elapsed, 0);
        assert_eq!(second.sims, 0);
    }
}
