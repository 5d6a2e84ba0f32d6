//! Parallelism must never change a verification outcome — only its
//! wall-clock. These tests pin the contract end-to-end: the E3 policy
//! matrix, the extended 16-cell matrix, the E4 attack checks and the E8
//! scope sweep produce identical rows at 1 thread and at N threads, equal
//! to their per-cell functions called in a plain loop, and a batch's
//! logical events and span tree are the same at any thread count.
//!
//! The multi-thread worker count defaults to 4 and can be overridden with
//! `MCA_TEST_THREADS` (CI runs the suite at 1, 2, and 8).

use mca_core::checker::{check_consensus, CheckerOptions};
use mca_core::scenarios::{self, ExtendedPolicyCell, PolicyCell};
use mca_obs::{Event, Handle, JsonlSink, SharedObserver, SpanRecorder};
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

/// Runs `traced` with an observer and a span recorder on one in-memory
/// JSONL sink and returns the trace's logical (non-span) lines and its
/// parsed form.
fn trace_of(traced: impl FnOnce(SharedObserver, &SpanRecorder)) -> (String, ParsedTrace) {
    let handle = Handle::new(JsonlSink::new(Vec::<u8>::new()));
    let spans = SpanRecorder::new(handle.observer());
    traced(handle.observer(), &spans);
    drop(spans);
    let bytes = handle
        .try_into_inner()
        .expect("sole owner")
        .into_inner()
        .expect("in-memory writes cannot fail");
    let text = String::from_utf8(bytes).expect("traces are UTF-8");
    let logical: Vec<&str> = text
        .lines()
        .filter(|l| !l.starts_with(r#"{"event":"span-"#))
        .collect();
    (logical.join("\n"), ParsedTrace::parse(&text))
}

#[test]
fn e3_policy_matrix_is_thread_count_invariant() {
    let seq = run_policy_matrix(1, None, None);
    let par = run_policy_matrix(test_threads(), None, None);
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
    let rows = run_scale_sweep(test_threads(), &[(2, 2)], None, None).expect("E8 sweep");
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
    // E3's matrix rides along: its jobs emit checker events of their own,
    // which the batch replays in job order.
    let run = |threads: usize| {
        trace_of(|observer, spans| {
            let _root = spans.enter("test");
            run_policy_matrix(threads, Some(observer.clone()), Some(spans));
            assert!(run_rebid_attack(threads, Some(spans)).matches_paper());
            let rows =
                run_scale_sweep(threads, &[(2, 2)], Some(observer), Some(spans)).expect("E8");
            assert!(rows[0].verdicts_agree());
        })
    };
    let (one_events, one) = run(1);
    let (many_events, many) = run(test_threads());
    assert!(one_events.contains("checker-done") && one_events.contains("incremental-solve"));
    assert_eq!(one_events, many_events, "logical events differ");
    assert_eq!(one.outline(), many.outline(), "span trees differ");
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
    // Each job solves with spans on and reports its search as a logical
    // event. Pigeonhole refutations of mixed sizes make the jobs finish
    // out of order, yet the replayed stream and span tree must render
    // identically at 1, 2 and 8 threads.
    let stream_at = |threads: usize| {
        trace_of(|observer, spans| {
            let jobs: Vec<(String, _)> = (0..16usize)
                .map(|i| {
                    let holes = 2 + i % 4;
                    let cnf = pigeonhole(holes);
                    (
                        format!("php:{i}:{holes}"),
                        move |observer: Option<SharedObserver>, spans: Option<&SpanRecorder>| {
                            let mut solver = cnf.to_solver();
                            if let Some(spans) = spans {
                                solver.set_spans(spans.clone());
                            }
                            let result = solver.solve();
                            observer.expect("observed").emit(&Event::IncrementalSolve {
                                label: format!("php:{i}"),
                                query: 0,
                                valid: result == SolveResult::Unsat,
                                conflicts: solver.stats().conflicts,
                            });
                            result
                        },
                    )
                })
                .collect();
            let results = run_batch(threads, jobs, Some(&observer), Some(spans));
            assert!(results.iter().all(|r| *r == SolveResult::Unsat));
        })
    };
    let (one, one_trace) = stream_at(1);
    assert_eq!(one.lines().count(), 16);
    for threads in [2, 8] {
        let (many, many_trace) = stream_at(threads);
        assert_eq!(one, many, "{threads}-thread stream diverged");
        assert_eq!(one_trace.outline(), many_trace.outline());
    }
}

#[test]
fn stress_hundred_jobs_fire_events_exactly_once() {
    // Nothing deadlocks, every job reports its result in submission
    // order, and each job's event and span appear once, in job order.
    let (events, trace) = trace_of(|observer, spans| {
        let jobs: Vec<(String, _)> = (0..100u64)
            .map(|i| {
                (
                    format!("stress:{i}"),
                    move |observer: Option<SharedObserver>, _: Option<&SpanRecorder>| {
                        observer.expect("observed").emit(&Event::CheckerProgress {
                            states_explored: i,
                            frontier_depth: 0,
                        });
                        i * i
                    },
                )
            })
            .collect();
        let results = run_batch(test_threads(), jobs, Some(&observer), Some(spans));
        assert_eq!(results, (0..100u64).map(|i| i * i).collect::<Vec<_>>());
    });
    let expected: Vec<String> = (0..100)
        .map(|i| {
            format!(r#"{{"event":"checker-progress","states_explored":{i},"frontier_depth":0}}"#)
        })
        .collect();
    assert_eq!(events, expected.join("\n"));
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
