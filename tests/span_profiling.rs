//! Span-layer contracts: spans are strictly opt-in, their *structure* is
//! deterministic even when their timestamps are not, and recording them
//! changes no result.
//!
//! * The timestamp-free outline of a traced batch is byte-identical at 1
//!   and N worker threads — parallelism changes wall-clock, never the
//!   span tree.
//! * A span-enabled E3 run returns the same rows as a plain one and
//!   records one span per cell; without a recorder, the observer attached
//!   to E1's simulator sees its schedule and no span event. (The wall-clock overhead gate lives in
//!   `crates/bench/tests/wall_clock.rs`, which CI runs in release mode.)

use mca_obs::{CollectSink, Handle, JsonlSink, SpanRecorder};
use mca_report::ParsedTrace;
use mca_verify::analysis::{run_fig1, run_policy_matrix, PolicyMatrixRow};
use mca_verify::batch::run_batch;
use mca_verify::{DynamicModel, DynamicScenario, NumberEncoding};

/// Runs a fixed batch workload on `threads` workers with a span recorder
/// and returns the trace's timestamp-free outline.
fn job_span_outline(threads: usize) -> String {
    let handle = Handle::new(JsonlSink::new(Vec::<u8>::new()));
    let spans = SpanRecorder::new(handle.observer());
    let jobs: Vec<(String, _)> = (0..24u64)
        .map(|i| {
            (format!("work:{i}"), move |spans: Option<&SpanRecorder>| {
                let _inner = spans.map(|r| r.enter("fold"));
                // A little real work so execution interleaves across
                // workers.
                (0..2_000u64).fold(i, |acc, x| acc.wrapping_mul(31).wrapping_add(x))
            })
        })
        .collect();
    let results = run_batch(threads, jobs, Some(&spans));
    assert_eq!(results.len(), 24);
    drop(spans);
    let bytes = handle
        .try_into_inner()
        .expect("sole owner")
        .into_inner()
        .expect("in-memory writes cannot fail");
    let text = String::from_utf8(bytes).expect("traces are UTF-8");
    ParsedTrace::parse(&text).outline()
}

#[test]
fn job_span_outline_is_identical_at_one_and_many_threads() {
    let one = job_span_outline(1);
    let many = job_span_outline(4);
    assert!(!one.is_empty());
    assert_eq!(
        one, many,
        "span structure must not depend on the worker count"
    );
    // Sanity: the outline names every job, in job-index order, each
    // holding the span it recorded.
    let lines: Vec<&str> = one.lines().collect();
    assert_eq!(lines[0], "runtime.batch workers");
    assert!(
        lines[1].starts_with("  runtime.job:work:0"),
        "got: {}",
        lines[1]
    );
    assert_eq!(lines[2], "    fold");
    assert_eq!(lines.len(), 1 + 2 * 24);
}

#[test]
fn spanned_sweep_outline_is_reproducible() {
    let outline = || {
        let handle = Handle::new(JsonlSink::new(Vec::<u8>::new()));
        let spans = SpanRecorder::new(handle.observer());
        let model = DynamicModel::build(
            NumberEncoding::OptimizedValue,
            DynamicScenario::two_agent_compliant(),
        );
        let sweep = model
            .convergence_sweep(true, Some(&spans))
            .expect("well-formed model");
        assert!(sweep.valid_from.is_some());
        drop(spans);
        let bytes = handle
            .try_into_inner()
            .expect("sole owner")
            .into_inner()
            .expect("in-memory writes cannot fail");
        ParsedTrace::parse(&String::from_utf8(bytes).expect("UTF-8")).outline()
    };
    let a = outline();
    assert!(a.contains("verify.state-query"));
    assert!(a.contains("relalg.encode"));
    assert_eq!(a, outline(), "solver determinism must carry over to spans");
}

/// The rows of an E3 run, wall clock left out.
fn verdicts(rows: &[PolicyMatrixRow]) -> Vec<(bool, bool, String)> {
    rows.iter()
        .map(|r| (r.paper_converges, r.checker_converges, r.detail.clone()))
        .collect()
}

#[test]
fn spanned_e3_returns_the_same_rows_and_one_span_per_cell() {
    let plain = run_policy_matrix(2, None);
    let handle = Handle::new(CollectSink::default());
    let spans = SpanRecorder::new(handle.observer());
    let spanned = run_policy_matrix(2, Some(&spans));
    drop(spans);
    assert_eq!(verdicts(&plain), verdicts(&spanned));
    handle.with(|sink| {
        let names: Vec<&str> = sink
            .events
            .iter()
            .filter_map(|e| match e {
                mca_obs::Event::SpanEnter { name, .. } => Some(name.as_str()),
                _ => None,
            })
            .collect();
        // The batch, its two paired jobs, and one span per cell.
        assert_eq!(names[0], "runtime.batch", "spans: {names:?}");
        let jobs = names
            .iter()
            .filter(|n| n.starts_with("runtime.job:e3:pair"));
        assert_eq!(jobs.count(), 2, "spans: {names:?}");
        let cells = names.iter().filter(|n| n.starts_with("e3.cell:"));
        assert_eq!(cells.count(), plain.len(), "spans: {names:?}");
        assert_eq!(names.len(), 3 + plain.len(), "spans: {names:?}");
        let exits = sink.events.iter().filter(|e| e.kind() == "span-exit");
        assert_eq!(exits.count(), names.len());
    });
}

#[test]
fn observer_without_a_recorder_receives_no_span_events() {
    let handle = Handle::new(CollectSink::default());
    assert!(run_fig1(Some(handle.observer())).converged);
    handle.with(|sink| {
        assert!(
            sink.events.iter().any(|e| e.kind() == "deliver"),
            "the observer is attached"
        );
        assert!(
            !sink.events.iter().any(|e| e.kind().starts_with("span-")),
            "spans must stay off without a recorder"
        );
    });
}
