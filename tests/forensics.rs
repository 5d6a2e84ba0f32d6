//! Performance-forensics contracts: the new telemetry must obey the
//! determinism doctrine and cost (almost) nothing when nobody watches.
//!
//! * Worker attribution (`worker`, `queue_wait_ns`, a batch's `workers`)
//!   lives only in span exit fields and is reduced to bare names by the
//!   trace outline, so the outline stays byte-identical at 1 and N
//!   threads.
//! * The solver's `sat.restart-epoch` spans carry logical progress only
//!   (epoch index, conflict and learnt counts), so their outline is
//!   byte-reproducible for a fixed solve.
//! * The `repro why` rule catalog diagnoses a deliberately fine-grained
//!   batch (the CI fixture's shape) from its trace, and its scheduling
//!   rules read the batch spans a real `run_batch` records.

use mca_obs::{Handle, JsonlSink, SpanRecorder};
use mca_report::{diagnose, ParsedTrace};
use mca_sat::{CnfFormula, SolveResult};
use mca_verify::batch::run_batch;

/// `holes`+1 pigeons into `holes` holes — a small UNSAT family that
/// forces real CDCL search (conflicts, restarts, learnt clauses).
fn pigeonhole(holes: usize) -> CnfFormula {
    let pigeons = holes + 1;
    let mut cnf = CnfFormula::new();
    let vars: Vec<Vec<mca_sat::Var>> = (0..pigeons)
        .map(|_| (0..holes).map(|_| cnf.new_var()).collect())
        .collect();
    for p in &vars {
        cnf.add_clause(p.iter().map(|v| v.lit(true)));
    }
    for (i, p1) in vars.iter().enumerate() {
        for p2 in &vars[i + 1..] {
            for (a, b) in p1.iter().zip(p2) {
                cnf.add_clause([a.lit(false), b.lit(false)]);
            }
        }
    }
    cnf
}

/// Runs `batches` with a span recorder on an in-memory JSONL sink and
/// returns the parsed trace.
fn trace_of(batches: impl FnOnce(&SpanRecorder)) -> ParsedTrace {
    let handle = Handle::new(JsonlSink::new(Vec::<u8>::new()));
    let spans = SpanRecorder::new(handle.observer());
    batches(&spans);
    drop(spans);
    let bytes = handle
        .try_into_inner()
        .expect("sole owner")
        .into_inner()
        .expect("in-memory writes cannot fail");
    ParsedTrace::parse(&String::from_utf8(bytes).expect("UTF-8"))
}

/// Runs `count` jobs labelled `<name>:<i>` on `threads` workers, each
/// folding `work` numbers, and returns how many came back.
fn folding_batch(threads: usize, name: &str, count: u64, work: u64, spans: &SpanRecorder) -> usize {
    let jobs: Vec<(String, _)> = (0..count)
        .map(|i| {
            (format!("{name}:{i}"), move |_: Option<&SpanRecorder>| {
                (0..work).fold(i, |acc, x| acc.wrapping_mul(31).wrapping_add(x))
            })
        })
        .collect();
    run_batch(threads, jobs, Some(spans)).len()
}

/// Runs a fixed batch on `threads` workers and returns its trace outline.
fn traced_batch(threads: usize) -> String {
    trace_of(|spans| {
        assert_eq!(folding_batch(threads, "work", 16, 4_000, spans), 16);
    })
    .outline()
}

#[test]
fn worker_attribution_is_outlined_away_at_any_thread_count() {
    let one = traced_batch(1);
    let many = traced_batch(4);
    assert_eq!(
        one, many,
        "worker/queue_wait attribution must not leak timestamps or \
         scheduling accidents into the outline"
    );
    // The fields are present (as names) — the outline reduces them, it
    // does not drop them. The batch's worker count is one of them.
    let mut lines = one.lines();
    assert_eq!(lines.next(), Some("runtime.batch workers"));
    let first = lines.next().unwrap();
    assert!(
        first.starts_with("  runtime.job:work:0") && first.contains("worker"),
        "got: {first}"
    );
    assert!(first.contains("queue_wait_ns"), "got: {first}");
    // The logical `job` index keeps its value; the scheduling accidents
    // are reduced to bare names.
    assert!(first.contains("job=0"), "got: {first}");
    assert!(
        !first.contains("worker=") && !first.contains("queue_wait_ns="),
        "names only, no values: {first}"
    );
}

#[test]
fn restart_epoch_spans_outline_identically_for_a_fixed_solve() {
    let trace_of_solve = || {
        let handle = Handle::new(JsonlSink::new(Vec::<u8>::new()));
        let mut solver = pigeonhole(6).to_solver();
        solver.set_spans(SpanRecorder::new(handle.observer()));
        assert_eq!(solver.solve(), SolveResult::Unsat);
        let restarts = solver.stats().restarts;
        drop(solver);
        let bytes = handle
            .try_into_inner()
            .expect("sole owner")
            .into_inner()
            .expect("in-memory writes cannot fail");
        let trace = ParsedTrace::parse(&String::from_utf8(bytes).expect("UTF-8"));
        (trace, restarts)
    };
    let (trace, restarts) = trace_of_solve();
    assert!(trace.diagnostics.is_empty(), "{:?}", trace.diagnostics);
    assert_eq!(
        trace.outline(),
        trace_of_solve().0.outline(),
        "restart-epoch spans must carry logical progress only"
    );
    // One span per epoch, the partial last one included, numbered in
    // order under the solve.
    let epochs: Vec<_> = trace
        .spans
        .iter()
        .filter(|s| s.name == "sat.restart-epoch")
        .collect();
    assert!(restarts > 0, "pigeonhole(6) restarts");
    assert_eq!(epochs.len() as u64, restarts + 1);
    for (i, epoch) in epochs.iter().enumerate() {
        assert_eq!(epoch.fields[0], ("epoch".to_string(), i as u64));
    }
}

#[test]
fn why_diagnoses_a_deliberately_fine_grained_batch() {
    // The CI fixture's shape: many near-empty jobs on two workers. The
    // median job span is far under 2ms, so rule W005 (granularity too
    // fine) must fire from the trace alone.
    let trace = trace_of(|spans| {
        assert_eq!(folding_batch(2, "tiny", 32, 1, spans), 32);
    });
    let findings = diagnose(&trace);
    assert!(
        findings.iter().any(|f| f.rule == "W005"),
        "fine-grained batch must trip the granularity rule: {findings:?}"
    );
    // Ranked most-severe first, deterministically.
    assert!(findings.windows(2).all(|w| w[0].severity >= w[1].severity));
}

#[test]
fn coarsened_e3_batch_no_longer_fires_critical_granularity_rules() {
    // Regression pin for the change that coarsened E3's job granularity:
    // the `repro e3` batch shape — paired Result-1 cells and strided
    // extended-matrix chunks (6 jobs instead of the old 20) mixed with
    // the solver-bound jobs that dominate the real run (the E8 scaling
    // cells; pigeonhole solves stand in here) — must not trip W001 or
    // W005 at *critical* severity. That was exactly the diagnosis `repro
    // why` issued against the old one-cell-per-job drivers, where matrix
    // confetti outnumbered the solver jobs and dragged the median under
    // the overhead floor. Warnings are tolerated (the scope is small);
    // critical is the regression. CI additionally gates the real trace.
    let trace = trace_of(|spans| {
        assert_eq!(
            mca_verify::analysis::run_policy_matrix(4, Some(spans)).len(),
            4
        );
        assert_eq!(
            mca_verify::analysis::run_extended_policy_matrix(4, Some(spans)).len(),
            16
        );
        let solves: Vec<(String, _)> = (0..8)
            .map(|i| {
                let cnf = pigeonhole(7);
                (format!("sat:{i}"), move |_: Option<&SpanRecorder>| {
                    cnf.to_solver().solve()
                })
            })
            .collect();
        assert!(run_batch(4, solves, Some(spans))
            .iter()
            .all(|r| *r == SolveResult::Unsat));
    });
    let findings = diagnose(&trace);
    for rule in ["W001", "W005"] {
        assert!(
            !findings
                .iter()
                .any(|f| f.rule == rule && f.severity == mca_report::WhySeverity::Critical),
            "{rule} is critical again on the coarsened E3 batch: {findings:?}"
        );
    }
}

#[test]
fn why_scheduling_rules_read_a_real_batchs_spans() {
    // W001, W003 and W008 read the `runtime.batch` span's `workers` field
    // and its job spans' `worker` and `queue_wait_ns`; one missing field
    // would silence them. Four workers, of which one naps for 50 ms while
    // the other three finish at once, idle most of the batch.
    let trace = trace_of(|spans| {
        let jobs: Vec<(String, _)> = (0..4u64)
            .map(|i| {
                (format!("nap:{i}"), move |_: Option<&SpanRecorder>| {
                    if i == 0 {
                        std::thread::sleep(std::time::Duration::from_millis(50));
                    }
                    i
                })
            })
            .collect();
        assert_eq!(run_batch(4, jobs, Some(spans)), [0, 1, 2, 3]);
    });
    let batch = trace
        .spans
        .iter()
        .find(|s| s.name == "runtime.batch")
        .expect("a batch span");
    assert_eq!(batch.field("workers"), Some(4));
    let findings = diagnose(&trace);
    assert!(
        findings.iter().any(|f| f.rule == "W001"),
        "a mostly idle batch must trip W001: {findings:?}"
    );
}
