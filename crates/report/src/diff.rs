//! Threshold diffing of two `BENCH_*.json` artifacts.
//!
//! The diff walks both documents in parallel, aligning object-array
//! elements by their identifying key (`scope` / `variant` / `encoding` /
//! `label` / `relation`) so a baseline with four scopes compares cleanly
//! against a smoke run with one. Only paths present in **both** files are
//! compared — new resource fields in a fresh run never trip against an
//! older baseline.
//!
//! Three leaf families are gated, classified by the leaf's key name:
//!
//! * **time** (`*secs*`) — wall clock; noisy, so values below
//!   [`DiffConfig::min_secs`] are ignored entirely.
//! * **clauses** (`*clauses*`) — deterministic encoder output; the real
//!   tripwire.
//! * **conflicts** (`*conflicts*`) — deterministic solver work.
//!
//! A number inside an array is a leaf of the array's own key, compared
//! with the number at the same index: `sweep.conflicts_after[3]` is a
//! conflicts leaf. Booleans and strings are never gated, so neither is
//! `per_state`.
//!
//! A leaf regresses when `new > old × ratio` for its family's ratio.
//! Leaves with an old value of 0 are skipped (no meaningful ratio).

use mca_obs::Json;

/// Regression thresholds. Each ratio is the allowed `new / old` factor.
#[derive(Clone, Copy, Debug)]
pub struct DiffConfig {
    /// Allowed growth factor for `*secs*` leaves.
    pub max_time_ratio: f64,
    /// Allowed growth factor for `*clauses*` leaves.
    pub max_clause_ratio: f64,
    /// Allowed growth factor for `*conflicts*` leaves.
    pub max_conflict_ratio: f64,
    /// Time leaves where **both** values are below this many seconds are
    /// ignored — sub-threshold timings are scheduler noise.
    pub min_secs: f64,
}

impl Default for DiffConfig {
    fn default() -> DiffConfig {
        DiffConfig {
            max_time_ratio: 2.0,
            max_clause_ratio: 2.0,
            max_conflict_ratio: 2.0,
            min_secs: 0.05,
        }
    }
}

/// Which gated family a leaf belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Wall-clock seconds (`*secs*`).
    Time,
    /// CNF clause counts (`*clauses*`).
    Clauses,
    /// Solver conflict counts (`*conflicts*`).
    Conflicts,
}

impl MetricKind {
    fn classify(key: &str) -> Option<MetricKind> {
        if key.contains("secs") {
            Some(MetricKind::Time)
        } else if key.contains("clauses") {
            Some(MetricKind::Clauses)
        } else if key.contains("conflicts") {
            Some(MetricKind::Conflicts)
        } else {
            None
        }
    }
}

/// One threshold violation.
#[derive(Clone, Debug)]
pub struct Regression {
    /// Dotted path of the regressed leaf (array steps keyed, e.g.
    /// `scopes[scope=2x2].variants[variant=optimized].check_secs`).
    pub path: String,
    /// The leaf's family.
    pub kind: MetricKind,
    /// Baseline value.
    pub old: f64,
    /// New value.
    pub new: f64,
    /// `new / old`.
    pub ratio: f64,
    /// The threshold it violated.
    pub limit: f64,
}

/// The outcome of a diff: gated-leaf count and any violations.
#[derive(Clone, Debug, Default)]
pub struct DiffOutcome {
    /// Gated leaves compared (present in both files, nonzero baseline).
    pub compared: usize,
    /// Threshold violations, in document order.
    pub regressions: Vec<Regression>,
}

impl DiffOutcome {
    /// `true` when no threshold was violated.
    pub fn is_clean(&self) -> bool {
        self.regressions.is_empty()
    }

    /// A human-readable summary, one line per regression.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "compared {} gated leaves", self.compared);
        if self.regressions.is_empty() {
            out.push_str("no regressions\n");
        }
        for r in &self.regressions {
            let _ = writeln!(
                out,
                "REGRESSION {}: {} -> {} ({:.2}x > {:.2}x allowed)",
                r.path, r.old, r.new, r.ratio, r.limit
            );
        }
        out
    }
}

/// Keys that identify an element of an object array for alignment.
const ALIGN_KEYS: [&str; 7] = [
    "scope",
    "variant",
    "encoding",
    "label",
    "relation",
    "experiment",
    "phase",
];

/// An object's identity for array alignment: every [`ALIGN_KEYS`] entry
/// it carries, rendered as `scope=3x2,variant=optimized`. All of them,
/// not the first: `BENCH_PAR.json`'s E8 cells share a scope per variant.
fn align_key(v: &Json) -> Option<String> {
    let parts: Vec<String> = ALIGN_KEYS
        .iter()
        .filter_map(|&key| {
            let rendered = match v.get(key)? {
                Json::Str(s) => s.clone(),
                other => other.render(),
            };
            Some(format!("{key}={rendered}"))
        })
        .collect();
    (!parts.is_empty()).then(|| parts.join(","))
}

/// Diffs two parsed BENCH documents under `cfg`.
pub fn diff_bench(old: &Json, new: &Json, cfg: &DiffConfig) -> DiffOutcome {
    let mut outcome = DiffOutcome::default();
    walk(old, new, "", String::new(), cfg, &mut outcome);
    outcome
}

/// Compares `old` and `new` at `path`. `key` is the nearest object key
/// above them: it names the family of a number there, one inside an
/// array included.
fn walk(old: &Json, new: &Json, key: &str, path: String, cfg: &DiffConfig, out: &mut DiffOutcome) {
    if let (Some(o), Some(n)) = (old.as_f64(), new.as_f64()) {
        leaf(key, o, n, path, cfg, out);
        return;
    }
    match (old, new) {
        (Json::Object(old_pairs), Json::Object(_)) => {
            for (key, old_value) in old_pairs {
                let Some(new_value) = new.get(key) else {
                    continue; // only common paths are compared
                };
                let child_path = if path.is_empty() {
                    key.clone()
                } else {
                    format!("{path}.{key}")
                };
                walk(old_value, new_value, key, child_path, cfg, out);
            }
        }
        (Json::Array(old_items), Json::Array(new_items)) => {
            for (i, old_item) in old_items.iter().enumerate() {
                let (label, new_item) = match align_key(old_item) {
                    Some(id) => {
                        let matched = new_items
                            .iter()
                            .find(|cand| align_key(cand).as_ref() == Some(&id));
                        (format!("[{id}]"), matched)
                    }
                    None => (format!("[{i}]"), new_items.get(i)),
                };
                if let Some(new_item) = new_item {
                    walk(old_item, new_item, key, format!("{path}{label}"), cfg, out);
                }
            }
        }
        _ => {}
    }
}

fn leaf(key: &str, old: f64, new: f64, path: String, cfg: &DiffConfig, out: &mut DiffOutcome) {
    let Some(kind) = MetricKind::classify(key) else {
        return;
    };
    if kind == MetricKind::Time && old.max(new) < cfg.min_secs {
        return; // both below the noise floor
    }
    if old <= 0.0 {
        return; // no meaningful ratio against a zero baseline
    }
    out.compared += 1;
    let limit = match kind {
        MetricKind::Time => cfg.max_time_ratio,
        MetricKind::Clauses => cfg.max_clause_ratio,
        MetricKind::Conflicts => cfg.max_conflict_ratio,
    };
    let ratio = new / old;
    if ratio > limit {
        out.regressions.push(Regression {
            path,
            kind,
            old,
            new,
            ratio,
            limit,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(check_secs: f64, clauses: u64, conflicts: u64) -> Json {
        Json::parse(&format!(
            r#"{{"experiment":"e8","wall_clock_secs":1.0,
                "scopes":[{{"scope":"2x2","states":6,
                  "variants":[{{"variant":"optimized","check_secs":{check_secs},
                    "cnf_clauses":{clauses},
                    "solver":{{"conflicts":{conflicts}}}}}]}}]}}"#
        ))
        .unwrap()
    }

    #[test]
    fn identical_documents_are_clean() {
        let a = doc(1.0, 1000, 50);
        let out = diff_bench(&a, &a, &DiffConfig::default());
        assert!(out.is_clean());
        assert!(out.compared >= 3);
    }

    #[test]
    fn injected_2x_check_secs_regression_trips() {
        let old = doc(1.0, 1000, 50);
        let new = doc(2.5, 1000, 50);
        let out = diff_bench(&old, &new, &DiffConfig::default());
        assert_eq!(out.regressions.len(), 1);
        let r = &out.regressions[0];
        assert_eq!(r.kind, MetricKind::Time);
        assert!(r.path.ends_with("check_secs"), "{}", r.path);
        assert!(r.path.contains("[scope=2x2]"), "{}", r.path);
        assert!(r.path.contains("[variant=optimized]"), "{}", r.path);
        assert!((r.ratio - 2.5).abs() < 1e-9);
    }

    #[test]
    fn clause_and_conflict_regressions_trip_independently() {
        let old = doc(1.0, 1000, 50);
        let new = doc(1.0, 2500, 200);
        let out = diff_bench(&old, &new, &DiffConfig::default());
        let kinds: Vec<MetricKind> = out.regressions.iter().map(|r| r.kind).collect();
        assert_eq!(kinds, vec![MetricKind::Clauses, MetricKind::Conflicts]);
    }

    #[test]
    fn sub_noise_floor_times_are_ignored() {
        let old = doc(0.001, 1000, 50);
        let new = doc(0.04, 1000, 50); // 40x, but both < min_secs
        let out = diff_bench(&old, &new, &DiffConfig::default());
        assert!(out.is_clean(), "{:?}", out.regressions);
    }

    #[test]
    fn scopes_missing_from_the_new_run_are_skipped() {
        // Baseline has 4x3; the smoke run only has 2x2 — common scopes only.
        let old = Json::parse(
            r#"{"scopes":[
                {"scope":"2x2","variants":[{"variant":"optimized","check_secs":1.0}]},
                {"scope":"4x3","variants":[{"variant":"optimized","check_secs":100.0}]}]}"#,
        )
        .unwrap();
        let new = Json::parse(
            r#"{"scopes":[
                {"scope":"2x2","variants":[{"variant":"optimized","check_secs":1.1}]}]}"#,
        )
        .unwrap();
        let out = diff_bench(&old, &new, &DiffConfig::default());
        assert!(out.is_clean());
        assert_eq!(out.compared, 1);
    }

    #[test]
    fn fields_missing_from_the_baseline_are_skipped() {
        let old = Json::parse(r#"{"check_secs":1.0}"#).unwrap();
        let new =
            Json::parse(r#"{"check_secs":1.0,"peak_rss_kb":12345,"sweep_secs":99.0}"#).unwrap();
        let out = diff_bench(&old, &new, &DiffConfig::default());
        assert!(out.is_clean());
        assert_eq!(out.compared, 1);
    }

    #[test]
    fn zero_baselines_never_divide() {
        let old = Json::parse(r#"{"conflicts":0}"#).unwrap();
        let new = Json::parse(r#"{"conflicts":500}"#).unwrap();
        let out = diff_bench(&old, &new, &DiffConfig::default());
        assert!(out.is_clean());
        assert_eq!(out.compared, 0);
    }

    #[test]
    fn elements_align_on_every_identity_key() {
        // Two cells per scope, one per variant: aligning on the scope
        // alone paired the optimized cell with the optimized+pre one.
        let cells = |first: u64, second: u64| {
            Json::parse(&format!(
                r#"{{"cells":[
                    {{"scope":"3x2","variant":"optimized","conflicts":{first}}},
                    {{"scope":"3x2","variant":"optimized+pre","conflicts":{second}}}]}}"#
            ))
            .unwrap()
        };
        let strict = DiffConfig {
            max_conflict_ratio: 1.0,
            ..DiffConfig::default()
        };
        let out = diff_bench(&cells(842, 539), &cells(842, 539), &strict);
        assert!(out.is_clean(), "{:?}", out.regressions);
        assert_eq!(out.compared, 2);
        let out = diff_bench(&cells(842, 539), &cells(842, 540), &strict);
        assert_eq!(out.regressions.len(), 1);
        assert_eq!(
            out.regressions[0].path,
            "cells[scope=3x2,variant=optimized+pre].conflicts"
        );
    }

    #[test]
    fn numbers_in_an_array_are_leaves_of_its_key() {
        let sweep = |after: &str| {
            Json::parse(&format!(
                r#"{{"sweep":{{"per_state":[false,true,true],"conflicts_after":{after}}}}}"#
            ))
            .unwrap()
        };
        let strict = DiffConfig {
            max_conflict_ratio: 1.0,
            ..DiffConfig::default()
        };
        let out = diff_bench(&sweep("[10,16,23]"), &sweep("[10,16,23]"), &strict);
        assert!(out.is_clean(), "{:?}", out.regressions);
        assert_eq!(out.compared, 3, "the booleans are not gated");
        let out = diff_bench(&sweep("[10,16,23]"), &sweep("[10,17,23]"), &strict);
        assert_eq!(out.regressions.len(), 1);
        let r = &out.regressions[0];
        assert_eq!(r.kind, MetricKind::Conflicts);
        assert_eq!(r.path, "sweep.conflicts_after[1]");
        // Only indices present in both arrays are compared.
        let out = diff_bench(&sweep("[10,16,23]"), &sweep("[10]"), &strict);
        assert!(out.is_clean());
        assert_eq!(out.compared, 1);
    }

    #[test]
    fn load_phases_align_by_phase_key() {
        // BENCH_SERVE.json's phases array must align by name, not index,
        // so a reordered or truncated smoke run compares cleanly.
        let old = Json::parse(
            r#"{"phases":[
                {"phase":"cold","total_secs":4.0,"p50_secs":0.2},
                {"phase":"warm","total_secs":0.5,"p50_secs":0.001}]}"#,
        )
        .unwrap();
        let new = Json::parse(
            r#"{"phases":[
                {"phase":"warm","total_secs":0.6,"p50_secs":0.001},
                {"phase":"cold","total_secs":9.0,"p50_secs":0.2}]}"#,
        )
        .unwrap();
        let out = diff_bench(&old, &new, &DiffConfig::default());
        assert_eq!(out.regressions.len(), 1);
        let r = &out.regressions[0];
        assert!(r.path.contains("[phase=cold]"), "{}", r.path);
        assert!(r.path.ends_with("total_secs"), "{}", r.path);
    }

    #[test]
    fn render_mentions_each_regression() {
        let out = diff_bench(
            &doc(1.0, 1000, 50),
            &doc(9.0, 1000, 50),
            &DiffConfig::default(),
        );
        let text = out.render();
        assert!(text.contains("REGRESSION"));
        assert!(text.contains("check_secs"));
    }
}
