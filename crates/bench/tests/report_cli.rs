//! End-to-end tests of the `repro report` / `repro diff` subcommands and
//! the CLI's IO-failure exit codes.

use std::path::PathBuf;
use std::process::Command;

use mca_obs::Json;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mca-report-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name)
}

const SAMPLE_TRACE: &str = concat!(
    r#"{"event":"span-enter","id":0,"parent":null,"name":"repro.e8","t_ns":0}"#,
    "\n",
    r#"{"event":"span-enter","id":1,"parent":0,"name":"sat.solve","t_ns":1000}"#,
    "\n",
    r#"{"event":"span-exit","id":1,"t_ns":900000,"conflicts":7}"#,
    "\n",
    r#"{"event":"span-exit","id":0,"t_ns":1000000}"#,
    "\n",
);

#[test]
fn report_renders_markdown_from_a_trace() {
    let trace = temp_path("report-in.jsonl");
    std::fs::write(&trace, SAMPLE_TRACE).unwrap();
    let out = repro().arg("report").arg(&trace).output().unwrap();
    assert!(out.status.success(), "stderr: {:?}", out.stderr);
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("## Span tree"));
    assert!(text.contains("`repro.e8`"));
    assert!(text.contains("conflicts=7"));
    assert!(text.contains("the trace parsed cleanly"));
}

#[test]
fn report_html_writes_a_self_contained_page() {
    let trace = temp_path("report-html-in.jsonl");
    let html = temp_path("report.html");
    std::fs::write(&trace, SAMPLE_TRACE).unwrap();
    let out = repro()
        .args(["report", trace.to_str().unwrap(), "--html", "--out"])
        .arg(&html)
        .output()
        .unwrap();
    assert!(out.status.success());
    let page = std::fs::read_to_string(&html).unwrap();
    assert!(page.starts_with("<!DOCTYPE html>"));
    assert!(page.contains("sat.solve"));
}

#[test]
fn report_on_a_malformed_trace_diagnoses_instead_of_failing() {
    let trace = temp_path("report-malformed.jsonl");
    std::fs::write(
        &trace,
        "not json at all\n{\"event\":\"span-exit\",\"id\":99,\"t_ns\":5}\n",
    )
    .unwrap();
    let out = repro().arg("report").arg(&trace).output().unwrap();
    assert!(out.status.success(), "diagnostics are not a CLI failure");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("## Diagnostics"));
    assert!(text.contains("orphan span-exit"), "got: {text}");
}

#[test]
fn report_exits_nonzero_on_missing_trace() {
    let out = repro()
        .args(["report", "/nonexistent/trace.jsonl"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
}

const BASE_BENCH: &str = r#"{"scopes":[{"scope":"2x2","variants":[
  {"variant":"optimized","check_secs":1.0,"cnf_clauses":1000,
   "solver":{"conflicts":40}}]}]}"#;

#[test]
fn diff_is_clean_on_identical_artifacts_and_trips_on_a_2x_regression() {
    let old = temp_path("diff-old.json");
    let same = temp_path("diff-same.json");
    let slow = temp_path("diff-slow.json");
    std::fs::write(&old, BASE_BENCH).unwrap();
    std::fs::write(&same, BASE_BENCH).unwrap();
    std::fs::write(
        &slow,
        BASE_BENCH.replace("\"check_secs\":1.0", "\"check_secs\":2.5"),
    )
    .unwrap();

    let clean = repro().arg("diff").arg(&old).arg(&same).output().unwrap();
    assert_eq!(clean.status.code(), Some(0), "identical artifacts regress?");

    let tripped = repro().arg("diff").arg(&old).arg(&slow).output().unwrap();
    assert_eq!(tripped.status.code(), Some(1));
    let text = String::from_utf8(tripped.stdout).unwrap();
    assert!(text.contains("REGRESSION"));
    assert!(text.contains("check_secs"));

    // A loosened threshold lets the same pair pass.
    let loose = repro()
        .arg("diff")
        .arg(&old)
        .arg(&slow)
        .args(["--max-time-ratio", "3.0"])
        .output()
        .unwrap();
    assert_eq!(loose.status.code(), Some(0));
}

/// The object field `key` of `value`, mutably.
fn field<'a>(value: &'a mut Json, key: &str) -> &'a mut Json {
    let Json::Object(pairs) = value else {
        panic!("the parent of `{key}` is not an object");
    };
    let (_, child) = pairs
        .iter_mut()
        .find(|(k, _)| k == key)
        .unwrap_or_else(|| panic!("no `{key}` field"));
    child
}

#[test]
fn diff_gates_the_committed_sweeps_conflicts_after() {
    let committed = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_SCALE.json");
    let mut doc = Json::parse(&std::fs::read_to_string(committed).unwrap()).unwrap();
    let copy = temp_path("scale-copy.json");
    let tripled = temp_path("scale-tripled.json");
    std::fs::write(&copy, doc.render()).unwrap();
    let Json::Array(scopes) = field(&mut doc, "scopes") else {
        panic!("`scopes` is an array");
    };
    let scope = scopes
        .iter_mut()
        .find(|s| s.get("scope").and_then(Json::as_str) == Some("2x2"))
        .expect("a 2x2 scope");
    let Json::Array(after) = field(field(scope, "sweep"), "conflicts_after") else {
        panic!("`conflicts_after` is an array");
    };
    for n in after.iter_mut() {
        *n = Json::UInt(n.as_u64().expect("a conflict count") * 3);
    }
    std::fs::write(&tripled, doc.render()).unwrap();

    let diff = |new: &PathBuf| {
        repro()
            .arg("diff")
            .arg(committed)
            .arg(new)
            .args(["--max-conflict-ratio", "1"])
            .output()
            .unwrap()
    };
    let clean = diff(&copy);
    assert_eq!(clean.status.code(), Some(0), "an unedited copy regresses?");
    let tripped = diff(&tripled);
    assert_eq!(tripped.status.code(), Some(1));
    let text = String::from_utf8(tripped.stdout).unwrap();
    assert!(
        text.contains("REGRESSION scopes[scope=2x2].sweep.conflicts_after[0]"),
        "{text}"
    );
}

#[test]
fn diff_exits_nonzero_on_unreadable_input() {
    let out = repro()
        .args(["diff", "/nonexistent/a.json", "/nonexistent/b.json"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn unwritable_trace_path_exits_nonzero() {
    // An unwritable output path must fail the run loudly.
    let trace = repro()
        .args(["e1", "--trace", "/nonexistent/dir/t.jsonl"])
        .output()
        .unwrap();
    assert_eq!(trace.status.code(), Some(2), "unwritable --trace");
}

#[test]
fn traced_run_feeds_report_end_to_end() {
    let trace = temp_path("e1-trace.jsonl");
    let run = repro()
        .arg("e1")
        .arg("--trace")
        .arg(&trace)
        .output()
        .unwrap();
    assert!(run.status.success(), "stderr: {:?}", run.stderr);
    let report = repro().arg("report").arg(&trace).output().unwrap();
    assert!(report.status.success());
    let text = String::from_utf8(report.stdout).unwrap();
    assert!(text.contains("`repro.e1`"), "got: {text}");
    assert!(text.contains("peak_rss_kb"));
}
