#![forbid(unsafe_code)]
//! # mca-lint — static analysis of the model → relalg → CNF pipeline
//!
//! A multi-pass analyzer that inspects each layer of the verification
//! pipeline **before** (or instead of) running the full check:
//!
//! 1. **Model pass** (`M…`): unconstrained sigs, empty scopes,
//!    constant-folding facts, unused `Set` fields — over the `mca-alloy`
//!    [`Model`].
//! 2. **Relalg pass** (`R…`): dead relations, empty-domain joins, dead
//!    sub-expressions, problem-level constant facts — over the lowered
//!    [`Problem`].
//! 3. **CNF pass** (`C…`): never-occurring variables, pure literals,
//!    duplicate/tautological clauses, and disconnected
//!    variable-incidence components — over the emitted CNF.
//! 4. **Vacuity detector** (`V001`): SAT-checks the fact-only premise; if
//!    the facts alone are unsatisfiable, *every* assertion over them is
//!    vacuously valid and the pipeline's "VALID" verdicts are worthless.
//! 5. **Source audit** (`S001`): every crate root must
//!    `#![forbid(unsafe_code)]`.
//!
//! Findings are [`Diagnostic`]s — rule id, severity, layer, location,
//! message, suggested fix — collected into a [`LintReport`]. Reports
//! stream as `mca-obs` events (`lint-finding` / `lint-done`) so the JSONL
//! trace, markdown rendering, and CI gating all reuse the existing
//! observability plumbing. `repro lint` drives this over the E1–E8
//! scenario matrix; its exit code is 0 for a clean run, 1 when any
//! `Error`-severity finding fires, and 2 on usage errors.
//!
//! ```
//! use mca_lint::{lint_model, fixture};
//!
//! let (model, assertion) = fixture::pathological();
//! let report = lint_model("pathological", &model, &[assertion]).unwrap();
//! assert!(!report.is_clean()); // the premise is unsatisfiable: V001
//! assert!(report.findings.iter().any(|d| d.rule == "V001"));
//! ```

pub mod cnf_pass;
pub mod diag;
pub mod fixture;
pub mod fold;
pub mod model_pass;
pub mod relalg_pass;
pub mod source_audit;
pub mod walk;

pub use diag::{Diagnostic, Layer, RuleInfo, Severity, RULES};

use mca_alloy::Model;
use mca_obs::{Event, Observer};
use mca_relalg::{Formula, Problem, TranslateError};
use std::collections::BTreeMap;
use std::path::Path;

/// All findings for one lint target, sorted most-severe first.
#[derive(Clone, Debug)]
pub struct LintReport {
    /// What was linted (a scenario label, a fixture name, a path).
    pub target: String,
    /// The findings, sorted by descending severity, then rule, then
    /// location.
    pub findings: Vec<Diagnostic>,
}

impl LintReport {
    /// Builds a report, sorting `findings` into presentation order.
    pub fn new(target: impl Into<String>, mut findings: Vec<Diagnostic>) -> LintReport {
        findings.sort_by(|a, b| {
            b.severity
                .cmp(&a.severity)
                .then_with(|| a.rule.cmp(b.rule))
                .then_with(|| a.location.cmp(&b.location))
        });
        LintReport {
            target: target.into(),
            findings,
        }
    }

    /// Number of `Error`-severity findings.
    pub fn errors(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of `Warning`-severity findings.
    pub fn warnings(&self) -> usize {
        self.count(Severity::Warning)
    }

    /// Number of `Info`-severity findings.
    pub fn infos(&self) -> usize {
        self.count(Severity::Info)
    }

    fn count(&self, s: Severity) -> usize {
        self.findings.iter().filter(|d| d.severity == s).count()
    }

    /// A report is clean iff it has no `Error` findings. Warnings and
    /// infos do not fail the CI gate.
    pub fn is_clean(&self) -> bool {
        self.errors() == 0
    }

    /// Streams the report as observability events: one
    /// [`Event::LintFinding`] per finding, then an [`Event::LintDone`]
    /// with the severity tallies.
    pub fn emit(&self, observer: &mut dyn Observer) {
        for d in &self.findings {
            observer.on_event(&d.to_event());
        }
        observer.on_event(&Event::LintDone {
            target: self.target.clone(),
            errors: self.errors() as u64,
            warnings: self.warnings() as u64,
            infos: self.infos() as u64,
        });
    }

    /// Console rendering: one line per finding plus a tally line.
    pub fn render_console(&self) -> String {
        let mut out = String::new();
        for d in &self.findings {
            out.push_str(&d.render_line());
            out.push('\n');
        }
        out.push_str(&format!(
            "{}: {} error(s), {} warning(s), {} info(s)\n",
            self.target,
            self.errors(),
            self.warnings(),
            self.infos()
        ));
        out
    }
}

/// Lints a full pipeline starting from an `mca-alloy` model: the model
/// pass, then [`lint_problem`] over `model.to_problem()`.
///
/// # Errors
///
/// Propagates [`TranslateError`] if the model cannot be translated to
/// CNF (the AST passes still run before translation is attempted, but
/// their findings are discarded with the error — an untranslatable model
/// is a build failure, not a lint report).
pub fn lint_model(
    target: impl Into<String>,
    model: &Model,
    assertions: &[Formula],
) -> Result<LintReport, TranslateError> {
    let target = target.into();
    let mut findings = model_pass::run(model, assertions);
    let problem = model.to_problem();
    let rest = lint_problem(target.clone(), &problem, assertions)?;
    findings.extend(rest.findings);
    Ok(LintReport::new(target, findings))
}

/// Lints a relational problem: the relalg AST pass, then one
/// fact-plus-goals translation feeding both the CNF pass and the
/// SAT-backed vacuity check (`V001`).
///
/// The assertions are compiled as **unasserted** goals, so the emitted
/// CNF asserts exactly the facts; its satisfiability *is* the premise
/// satisfiability the vacuity rule needs — one translation serves both.
///
/// # Errors
///
/// Propagates [`TranslateError`] on ill-formed formulas.
pub fn lint_problem(
    target: impl Into<String>,
    problem: &Problem,
    assertions: &[Formula],
) -> Result<LintReport, TranslateError> {
    let mut findings = relalg_pass::run(problem, assertions);

    let (tr, _goal_lits) = problem.translate_goals(assertions)?;
    let attr: BTreeMap<usize, String> = tr
        .input_vars()
        .iter()
        .zip(tr.input_tuples())
        .map(|(v, (rel, _tuple))| (v.index(), problem.relation(*rel).name().to_string()))
        .collect();
    findings.extend(cnf_pass::run(&tr.cnf, Some(&attr)));

    if !tr.cnf.to_solver().solve().is_sat() {
        findings.push(Diagnostic {
            rule: "V001",
            severity: Severity::Error,
            layer: Layer::Relalg,
            location: "facts".into(),
            message: "the facts alone are unsatisfiable — every assertion over this model \
                      is vacuously valid"
                .into(),
            suggestion: "find the contradictory facts; any VALID verdict from this model \
                         is meaningless"
                .into(),
        });
    }

    Ok(LintReport::new(target, findings))
}

/// Runs the source hygiene audit (`S001`) over a workspace root.
pub fn audit_sources(workspace_root: &Path) -> LintReport {
    LintReport::new(
        format!("sources:{}", workspace_root.display()),
        source_audit::run(workspace_root),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mca_obs::CollectSink;

    #[test]
    fn report_sorts_most_severe_first_and_counts() {
        let info = Diagnostic {
            rule: "C002",
            severity: Severity::Info,
            layer: Layer::Cnf,
            location: "x".into(),
            message: "m".into(),
            suggestion: "s".into(),
        };
        let error = Diagnostic {
            rule: "V001",
            severity: Severity::Error,
            layer: Layer::Relalg,
            location: "facts".into(),
            message: "m".into(),
            suggestion: "s".into(),
        };
        let report = LintReport::new("t", vec![info, error]);
        assert_eq!(report.findings[0].rule, "V001");
        assert_eq!(
            (report.errors(), report.warnings(), report.infos()),
            (1, 0, 1)
        );
        assert!(!report.is_clean());
    }

    #[test]
    fn emit_streams_findings_then_done() {
        let report = LintReport::new(
            "t",
            vec![Diagnostic {
                rule: "R001",
                severity: Severity::Warning,
                layer: Layer::Relalg,
                location: "relation `r`".into(),
                message: "m".into(),
                suggestion: "s".into(),
            }],
        );
        let mut sink = CollectSink::default();
        report.emit(&mut sink);
        assert_eq!(sink.events.len(), 2);
        assert_eq!(sink.events[0].kind(), "lint-finding");
        assert_eq!(sink.events[1].kind(), "lint-done");
    }

    #[test]
    fn consistent_problem_has_no_vacuity_error() {
        let mut m = Model::new();
        let a = m.sig("A", 2);
        let b = m.sig("B", 2);
        let f = m.field("f", a, &[b], mca_alloy::Multiplicity::One);
        m.fact(m.field_expr(f).some());
        let assertion = m.sig_expr(a).some();
        let report = lint_model("consistent", &m, &[assertion]).unwrap();
        assert!(
            !report.findings.iter().any(|d| d.rule == "V001"),
            "{report:?}"
        );
    }
}
