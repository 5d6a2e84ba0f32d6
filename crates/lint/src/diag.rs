//! Diagnostics: the finding type every lint pass produces, plus the rule
//! catalog that documents each rule id.

use mca_obs::Event;

/// How serious a finding is.
///
/// Ordered so that `Info < Warning < Error`; reports sort most-severe
/// first and "clean" means *no `Error` findings* (warnings and infos are
/// advisory).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Advisory observation; nothing is wrong.
    Info,
    /// Likely a modelling mistake, but the pipeline result is still sound.
    Warning,
    /// The model or its verification results are not trustworthy as-is.
    Error,
}

impl Severity {
    /// Lower-case label used in events and reports.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// Which pipeline layer a finding was detected in.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Layer {
    /// The `mca-alloy` signature/field/fact model.
    Model,
    /// The relational-algebra problem (declared relations plus formulas).
    Relalg,
    /// The emitted CNF.
    Cnf,
    /// Workspace source files (hygiene audits).
    Source,
}

impl Layer {
    /// Lower-case label used in events and reports.
    pub fn label(self) -> &'static str {
        match self {
            Layer::Model => "model",
            Layer::Relalg => "relalg",
            Layer::Cnf => "cnf",
            Layer::Source => "source",
        }
    }
}

/// One finding: a rule id, where it fired, and what to do about it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable rule id (`M001`, `R002`, `C005`, `V001`, `S001`, …).
    pub rule: &'static str,
    /// How serious the finding is.
    pub severity: Severity,
    /// Pipeline layer the rule inspects.
    pub layer: Layer,
    /// What the finding is anchored to (a sig, a fact index, a clause
    /// count, a file path…).
    pub location: String,
    /// What was detected.
    pub message: String,
    /// Suggested fix.
    pub suggestion: String,
}

impl Diagnostic {
    /// Renders the finding as an [`Event::LintFinding`] for JSONL traces.
    pub fn to_event(&self) -> Event {
        Event::LintFinding {
            rule: self.rule.to_string(),
            severity: self.severity.label().to_string(),
            layer: self.layer.label().to_string(),
            location: self.location.clone(),
            message: self.message.clone(),
            suggestion: self.suggestion.clone(),
        }
    }

    /// One-line console rendering: `error[V001] assertions: …`.
    pub fn render_line(&self) -> String {
        format!(
            "{}[{}] {}: {} ({})",
            self.severity.label(),
            self.rule,
            self.location,
            self.message,
            self.suggestion
        )
    }
}

/// Catalog entry documenting one rule id.
#[derive(Clone, Copy, Debug)]
pub struct RuleInfo {
    /// Stable rule id.
    pub id: &'static str,
    /// Default severity of findings under this rule.
    pub severity: Severity,
    /// Layer the rule inspects.
    pub layer: Layer,
    /// One-line description.
    pub summary: &'static str,
}

/// Every rule the analyzer can fire, for `--list-rules` style output and
/// documentation. The ids are stable: scripts may grep for them.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "M001",
        severity: Severity::Warning,
        layer: Layer::Model,
        summary: "sig is never used by any field or fact",
    },
    RuleInfo {
        id: "M002",
        severity: Severity::Warning,
        layer: Layer::Model,
        summary: "sig has an empty scope; every expression over it is empty",
    },
    RuleInfo {
        id: "M003",
        severity: Severity::Info,
        layer: Layer::Model,
        summary: "fact constant-folds (Info if trivially true, Error if constant false)",
    },
    RuleInfo {
        id: "M004",
        severity: Severity::Warning,
        layer: Layer::Model,
        summary: "Set-multiplicity field is never mentioned by a fact — it is unconstrained",
    },
    RuleInfo {
        id: "R001",
        severity: Severity::Warning,
        layer: Layer::Relalg,
        summary: "non-constant relation is never referenced by any fact or assertion",
    },
    RuleInfo {
        id: "R002",
        severity: Severity::Warning,
        layer: Layer::Relalg,
        summary: "join over a statically-empty operand — the join is always empty",
    },
    RuleInfo {
        id: "R003",
        severity: Severity::Info,
        layer: Layer::Relalg,
        summary: "dead sub-expression: a set operation has a statically-empty operand",
    },
    RuleInfo {
        id: "R004",
        severity: Severity::Info,
        layer: Layer::Relalg,
        summary: "problem-level fact constant-folds (Info if trivially true, Error if false)",
    },
    RuleInfo {
        id: "C001",
        severity: Severity::Warning,
        layer: Layer::Cnf,
        summary: "variables that never occur in any clause",
    },
    RuleInfo {
        id: "C002",
        severity: Severity::Info,
        layer: Layer::Cnf,
        summary: "pure literals: variables occurring in only one polarity",
    },
    RuleInfo {
        id: "C003",
        severity: Severity::Warning,
        layer: Layer::Cnf,
        summary: "duplicate clauses in the emitted CNF",
    },
    RuleInfo {
        id: "C004",
        severity: Severity::Warning,
        layer: Layer::Cnf,
        summary: "tautological clauses (contain a literal and its negation)",
    },
    RuleInfo {
        id: "C005",
        severity: Severity::Info,
        layer: Layer::Cnf,
        summary: "variable-incidence graph splits into independently solvable blocks",
    },
    RuleInfo {
        id: "V001",
        severity: Severity::Error,
        layer: Layer::Relalg,
        summary: "assertion premise (the facts alone) is unsatisfiable — every check is vacuous",
    },
    RuleInfo {
        id: "S001",
        severity: Severity::Error,
        layer: Layer::Source,
        summary: "crate root does not forbid unsafe code",
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_info_below_error() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
        assert_eq!(Severity::Error.label(), "error");
    }

    #[test]
    fn rule_ids_are_unique_and_sorted_within_layers() {
        let mut seen = std::collections::HashSet::new();
        for r in RULES {
            assert!(seen.insert(r.id), "duplicate rule id {}", r.id);
        }
    }

    #[test]
    fn diagnostic_renders_to_event_and_line() {
        let d = Diagnostic {
            rule: "R001",
            severity: Severity::Warning,
            layer: Layer::Relalg,
            location: "relation `ghost`".into(),
            message: "declared but never referenced by any fact or assertion".into(),
            suggestion: "remove the declaration or constrain it".into(),
        };
        assert_eq!(d.to_event().kind(), "lint-finding");
        let line = d.render_line();
        assert!(
            line.starts_with("warning[R001] relation `ghost`:"),
            "{line}"
        );
    }
}
