//! The cycle-conservation audit (`reproduce --audit`).
//!
//! The profiler's claim — every simulated cycle is attributed to a
//! modelled mechanism — is what lets the reproduction argue *why* the
//! paper's numbers differ across kernels, not just that they do. This
//! audit makes the claim checkable on demand: it re-runs one
//! representative sample of every profileable experiment under a trace
//! session and verifies [`SessionReport::conservation`] on each —
//! charged cycles must equal elapsed cycles exactly, and the per-class
//! breakdown must sum back to the charged total.
//!
//! [`SessionReport::conservation`]: tnt_sim::trace::SessionReport::conservation

use crate::profile::{profile_experiment, profile_ids};
use crate::scale::Scale;

/// One sample that failed conservation.
#[derive(Clone, Debug)]
pub struct AuditFinding {
    /// Experiment id ("t2", "f9", ...).
    pub id: String,
    /// Sample label within the experiment ("Linux", "FreeBSD client").
    pub label: String,
    /// The drift message from [`tnt_sim::trace::SessionReport::conservation`].
    pub error: String,
}

/// Outcome of a conservation audit over the experiment matrix.
#[derive(Clone, Debug, Default)]
pub struct AuditReport {
    /// Experiments audited.
    pub experiments: usize,
    /// Profiled samples checked.
    pub samples: usize,
    /// Samples whose attribution drifted from the simulated clock.
    pub failures: Vec<AuditFinding>,
    /// Whether the ambient happens-before race detector was armed while
    /// the audited samples ran. When true, a detected race would have
    /// failed the sample outright — so a passing audit also certifies
    /// the engine raced on nothing it touched.
    pub race_armed: bool,
}

impl AuditReport {
    /// Did every sample conserve cycles?
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// Renders the audit block printed by `reproduce --audit`.
    pub fn render(&self) -> String {
        let mut out = format!(
            "cycle-conservation audit: {} experiment(s), {} sample(s)",
            self.experiments, self.samples
        );
        if self.passed() {
            out.push_str(": every cycle attributed, breakdown sums exact\n");
        } else {
            out.push_str(&format!(": {} FAILURE(S)\n", self.failures.len()));
            for f in &self.failures {
                out.push_str(&format!("  {} [{}]: {}\n", f.id, f.label, f.error));
            }
        }
        if self.race_armed {
            out.push_str(
                "happens-before race detection: armed on every sample, no unordered access pairs\n",
            );
        }
        out
    }
}

/// Audits cycle conservation across every profileable experiment at the
/// given scale.
pub fn conservation_audit(scale: &Scale) -> AuditReport {
    let mut report = AuditReport {
        race_armed: tnt_sim::race::ambient(),
        ..AuditReport::default()
    };
    for id in profile_ids() {
        let Some(samples) = profile_experiment(id, scale) else {
            continue;
        };
        report.experiments += 1;
        for s in &samples {
            report.samples += 1;
            if let Err(error) = s.report.conservation() {
                report.failures.push(AuditFinding {
                    id: id.to_string(),
                    label: s.label.clone(),
                    error,
                });
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_matrix_conserves_cycles() {
        let report = conservation_audit(&Scale::smoke());
        assert!(report.experiments >= 10, "matrix shrank: {report:?}");
        assert!(report.samples > report.experiments);
        assert!(report.passed(), "conservation drift:\n{}", report.render());
        assert!(report.render().contains("every cycle attributed"));
    }

    #[test]
    fn failures_render_with_context() {
        let mut r = AuditReport {
            experiments: 1,
            samples: 1,
            ..AuditReport::default()
        };
        r.failures.push(AuditFinding {
            id: "t5".into(),
            label: "Linux".into(),
            error: "attributed 9 cycles != elapsed 10".into(),
        });
        let text = r.render();
        assert!(text.contains("1 FAILURE"), "{text}");
        assert!(text.contains("t5 [Linux]"), "{text}");
    }

    #[test]
    fn race_armed_status_is_reported() {
        let r = AuditReport {
            race_armed: true,
            ..AuditReport::default()
        };
        assert!(r.render().contains("happens-before race detection: armed"));
        assert!(!AuditReport::default().render().contains("happens-before"));
    }
}
