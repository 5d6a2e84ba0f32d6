//! Parallelism must never change a verification outcome — only its
//! wall-clock. These tests pin the contract end-to-end: the E3 policy
//! matrix, the extended 16-cell matrix, the E4 attack checks and the E8
//! scope sweep produce identical rows at 1 thread and at N threads, equal
//! to their per-cell functions called in a plain loop, and a batch's
//! span tree, with the results its spans carry, is the same at any thread
//! count.
//!
//! The multi-thread worker count defaults to 4 and can be overridden with
//! `MCA_TEST_THREADS` (CI runs the suite at 1, 2, and 8).

use mca_core::checker::{check_consensus, CheckerOptions};
use mca_core::scenarios::{self, ExtendedPolicyCell, PolicyCell};
use mca_obs::{Handle, JsonlSink, SpanRecorder};
use mca_report::ParsedTrace;
use mca_sat::{CnfFormula, SolveResult};
use mca_verify::analysis::{
    extended_cell, run_extended_policy_matrix, run_policy_matrix, run_rebid_attack,
    run_scale_sweep, scale_sweep_at, scale_variant, E8_VARIANTS,
};
use mca_verify::batch::run_batch;
use mca_verify::{DynamicModel, DynamicScenario, NumberEncoding};

/// The "many threads" side of every comparison (the "one thread" side is
/// always literal 1).
fn test_threads() -> usize {
    std::env::var("MCA_TEST_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4)
}

/// Runs `traced` with a span recorder on an in-memory JSONL sink and
/// returns the trace's lines that are not span events, and its parsed
/// form.
fn trace_of(traced: impl FnOnce(&SpanRecorder)) -> (Vec<String>, ParsedTrace) {
    let handle = Handle::new(JsonlSink::new(Vec::<u8>::new()));
    let spans = SpanRecorder::new(handle.observer());
    traced(&spans);
    drop(spans);
    let bytes = handle
        .try_into_inner()
        .expect("sole owner")
        .into_inner()
        .expect("in-memory writes cannot fail");
    let text = String::from_utf8(bytes).expect("traces are UTF-8");
    let other = text
        .lines()
        .filter(|l| !l.starts_with(r#"{"event":"span-"#))
        .map(str::to_string)
        .collect();
    (other, ParsedTrace::parse(&text))
}

#[test]
fn e3_policy_matrix_is_thread_count_invariant() {
    let seq = run_policy_matrix(1, None);
    let par = run_policy_matrix(test_threads(), None);
    let grid = PolicyCell::grid();
    assert_eq!(seq.len(), grid.len());
    assert_eq!(par.len(), grid.len());
    for ((s, p), &cell) in seq.iter().zip(&par).zip(&grid) {
        // The reference: each cell checked on its own, in grid order.
        let verdict = check_consensus(scenarios::fig2(cell), CheckerOptions::default());
        for row in [s, p] {
            assert_eq!(row.cell, cell, "rows come back in grid order");
            assert_eq!(row.paper_converges, cell.paper_says_converges());
            assert_eq!(
                row.checker_converges,
                verdict.converges(),
                "verdict differs for {cell:?}"
            );
        }
        assert_eq!(s.detail, p.detail, "checker detail differs for {cell:?}");
        assert!(p.matches_paper(), "cell {cell:?} must match Result 1");
    }
}

#[test]
fn extended_matrix_is_thread_count_invariant() {
    let seq = run_extended_policy_matrix(1, None);
    let par = run_extended_policy_matrix(test_threads(), None);
    let grid = ExtendedPolicyCell::grid();
    assert_eq!(seq.len(), 16);
    assert_eq!(par.len(), 16);
    for ((s, p), &cell) in seq.iter().zip(&par).zip(&grid) {
        let reference = extended_cell(cell);
        for row in [s, p] {
            assert_eq!(row.cell, cell, "rows come back in grid order");
            assert_eq!(
                row.sim_converges,
                reference.sim_converges,
                "verdict differs for {}",
                cell.label()
            );
            assert_eq!(
                row.rounds,
                reference.rounds,
                "rounds differ for {}",
                cell.label()
            );
        }
    }
}

#[test]
fn e4_attack_checks_are_thread_count_invariant() {
    let seq = run_rebid_attack(1, None);
    let par = run_rebid_attack(test_threads(), None);
    let explicit = check_consensus(scenarios::rebid_attack(2, 2), CheckerOptions::default());
    let sat = |encoding, scenario| {
        DynamicModel::build(encoding, scenario)
            .check_consensus()
            .expect("well-formed model")
            .result
            .is_valid()
    };
    for report in [&seq, &par] {
        assert_eq!(report.explicit_converges, explicit.converges());
        assert_eq!(
            report.sat_naive_valid,
            sat(
                NumberEncoding::NaiveInt,
                DynamicScenario::two_agent_rebid_attack()
            )
        );
        assert_eq!(
            report.sat_optimized_valid,
            sat(
                NumberEncoding::OptimizedValue,
                DynamicScenario::two_agent_rebid_attack()
            )
        );
        assert_eq!(
            report.sat_compliant_valid,
            sat(
                NumberEncoding::OptimizedValue,
                DynamicScenario::two_agent_compliant()
            )
        );
    }
    assert_eq!(seq.explicit_detail, par.explicit_detail);
    assert!(par.matches_paper(), "E4 must reproduce Result 2");
}

#[test]
fn e8_scale_sweep_matches_its_per_cell_functions() {
    let rows = run_scale_sweep(test_threads(), &[(2, 2)], None).expect("E8 sweep");
    assert_eq!(rows.len(), 1);
    let row = &rows[0];
    assert_eq!(
        (row.pnodes, row.vnodes),
        (2, 2),
        "rows come back in scope order"
    );
    assert_eq!(row.variants.len(), E8_VARIANTS.len());
    for (got, (label, encoding, preprocess)) in row.variants.iter().zip(E8_VARIANTS) {
        let want = scale_variant(2, 2, label, encoding, preprocess, None).expect("E8 cell");
        assert_eq!(got.variant, want.variant);
        assert_eq!((got.valid, got.vacuous), (want.valid, want.vacuous));
        assert_eq!(got.stats.cnf_clauses, want.stats.cnf_clauses);
        assert_eq!(got.solver.conflicts, want.solver.conflicts, "{label}");
    }
    let (sweep, _) = scale_sweep_at(2, 2, None).expect("E8 sweep");
    assert_eq!(row.sweep.per_state, sweep.per_state);
    assert_eq!(row.sweep.valid_from, sweep.valid_from);
    assert_eq!(row.sweep.conflicts_after, sweep.conflicts_after);
}

#[test]
fn e4_and_e8_traces_are_thread_count_invariant() {
    // E3's matrix rides along. These experiments trace spans only: each
    // result the trace keeps is a span field, which the outline shows.
    let run = |threads: usize| {
        trace_of(|spans| {
            let _root = spans.enter("test");
            run_policy_matrix(threads, Some(spans));
            assert!(run_rebid_attack(threads, Some(spans)).matches_paper());
            let rows = run_scale_sweep(threads, &[(2, 2)], Some(spans)).expect("E8");
            assert!(rows[0].verdicts_agree());
        })
    };
    let (one_other, one) = run(1);
    let (many_other, many) = run(test_threads());
    assert_eq!(one_other, Vec::<String>::new(), "a non-span line");
    assert_eq!(many_other, Vec::<String>::new(), "a non-span line");
    let outline = one.outline();
    assert_eq!(outline, many.outline(), "span trees differ");
    let (sweep, _) = scale_sweep_at(2, 2, None).expect("E8 sweep");
    for (k, (&valid, conflicts)) in sweep
        .per_state
        .iter()
        .zip(&sweep.conflicts_after)
        .enumerate()
    {
        let query = format!(
            "verify.state-query query={k} valid={} conflicts={conflicts}\n",
            u64::from(valid)
        );
        assert!(outline.contains(&query), "no `{query}` in\n{outline}");
    }
    for trace in [&one, &many] {
        assert!(trace.diagnostics.is_empty(), "{:?}", trace.diagnostics);
        assert_eq!(trace.roots.len(), 1, "one root span");
        let root = trace.spans[trace.roots[0]].id;
        for name in ["runtime.job:", "relalg.encode", "sat.solve"] {
            let named: Vec<_> = trace
                .spans
                .iter()
                .filter(|s| s.name.starts_with(name))
                .collect();
            assert!(!named.is_empty(), "no {name} span");
            assert!(
                named.into_iter().all(|span| descends(trace, span, root)),
                "a {name} span escapes the root"
            );
        }
    }
}

/// Whether `span` descends from the span with id `root`.
fn descends<'t>(trace: &'t ParsedTrace, mut span: &'t mca_report::SpanNode, root: u64) -> bool {
    while let Some(parent) = span.parent {
        if parent == root {
            return true;
        }
        span = trace
            .spans
            .iter()
            .find(|s| s.id == parent)
            .expect("a parsed parent");
    }
    false
}

/// `holes`+1 pigeons into `holes` holes — UNSAT, forces real search.
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

#[test]
fn batch_event_streams_are_bit_identical_across_thread_counts() {
    // Each job solves with spans on and records its search's result as
    // fields of its own span. Pigeonhole refutations of mixed sizes make
    // the jobs finish out of order, yet the replayed span tree and its
    // fields must render identically at 1, 2 and 8 threads.
    let outline_at = |threads: usize| {
        let (other, trace) = trace_of(|spans| {
            let jobs: Vec<(String, _)> = (0..16usize)
                .map(|i| {
                    let holes = 2 + i % 4;
                    let cnf = pigeonhole(holes);
                    (
                        format!("php:{i}:{holes}"),
                        move |spans: Option<&SpanRecorder>| {
                            let mut span = spans.map(|r| r.enter("php"));
                            let mut solver = cnf.to_solver();
                            if let Some(spans) = spans {
                                solver.set_spans(spans.clone());
                            }
                            let result = solver.solve();
                            if let Some(span) = span.as_mut() {
                                span.field("valid", u64::from(result == SolveResult::Unsat));
                                span.field("conflicts", solver.stats().conflicts);
                            }
                            result
                        },
                    )
                })
                .collect();
            let results = run_batch(threads, jobs, Some(spans));
            assert!(results.iter().all(|r| *r == SolveResult::Unsat));
        });
        assert!(other.is_empty(), "a non-span line: {other:?}");
        trace.outline()
    };
    let one = outline_at(1);
    let solves: Vec<&str> = one
        .lines()
        .filter(|l| l.trim_start().starts_with("php "))
        .collect();
    assert_eq!(solves.len(), 16, "{one}");
    assert!(
        solves.iter().all(|l| l.contains(" valid=1 conflicts=")),
        "{solves:?}"
    );
    for threads in [2, 8] {
        assert_eq!(one, outline_at(threads), "{threads}-thread trace diverged");
    }
}

#[test]
fn stress_hundred_jobs_fire_events_exactly_once() {
    // Nothing deadlocks, every job reports its result in submission
    // order, and each job's span appears once, in job order.
    let (other, trace) = trace_of(|spans| {
        let jobs: Vec<(String, _)> = (0..100u64)
            .map(|i| (format!("stress:{i}"), move |_: Option<&SpanRecorder>| i * i))
            .collect();
        let results = run_batch(test_threads(), jobs, Some(spans));
        assert_eq!(results, (0..100u64).map(|i| i * i).collect::<Vec<_>>());
    });
    assert!(other.is_empty(), "a non-span line: {other:?}");
    assert!(trace.diagnostics.is_empty(), "{:?}", trace.diagnostics);
    assert_eq!(trace.spans.len(), 101, "the batch and one span per job");
    let jobs: Vec<_> = trace
        .spans
        .iter()
        .filter(|s| s.name.starts_with("runtime.job:"))
        .collect();
    assert_eq!(jobs.len(), 100);
    for (i, job) in jobs.iter().enumerate() {
        assert_eq!(job.name, format!("runtime.job:stress:{i}"));
        assert_eq!(job.field("job"), Some(i as u64));
    }
}
