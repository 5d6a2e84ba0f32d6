//! Golden-report test: the pathological fixture must keep producing
//! exactly the findings it was designed to trip, byte-for-byte in JSONL.
//!
//! If an intentional analyzer or encoder change shifts the output,
//! regenerate the snapshot by emitting the fixture report through a
//! `JsonlSink` and updating `golden_pathological.jsonl`.

use mca_lint::{fixture, lint_model, Severity};
use mca_obs::JsonlSink;

const GOLDEN: &str = include_str!("golden_pathological.jsonl");

fn pathological_report() -> mca_lint::LintReport {
    let (model, assertion) = fixture::pathological();
    lint_model("pathological", &model, &[assertion]).expect("fixture translates")
}

#[test]
fn pathological_fixture_matches_golden_jsonl() {
    let report = pathological_report();
    let mut sink = JsonlSink::new(Vec::new());
    report.emit(&mut sink);
    let actual = String::from_utf8(sink.into_inner().unwrap()).unwrap();
    assert_eq!(
        actual, GOLDEN,
        "lint JSONL drifted from the golden snapshot"
    );
}

#[test]
fn pathological_fixture_trips_every_designed_rule() {
    let report = pathological_report();
    let rules: Vec<&str> = report.findings.iter().map(|d| d.rule).collect();
    // One instance of each designed finding class, most severe first:
    // the vacuous premise (V001) is the lone error, the unused `ghost`
    // warns at all three layers (M004, R001, C001), and the folded
    // constant goal leaves a pure literal in its own component (C002,
    // C005).
    assert_eq!(rules, vec!["V001", "C001", "M004", "R001", "C002", "C005"]);
    assert_eq!(report.errors(), 1);
    assert!(!report.is_clean());
    assert_eq!(report.findings[0].severity, Severity::Error);
}

#[test]
fn shipped_style_consistent_model_is_clean() {
    // The complement of the golden: a well-formed model produces zero
    // error findings end to end.
    let mut m = mca_alloy::Model::new();
    let a = m.sig("A", 2);
    let b = m.sig("B", 2);
    let f = m.field("f", a, &[b], mca_alloy::Multiplicity::One);
    m.fact(m.field_expr(f).some());
    let report = lint_model("consistent", &m, &[m.sig_expr(a).some()]).unwrap();
    assert!(report.is_clean(), "{}", report.render_console());
}
