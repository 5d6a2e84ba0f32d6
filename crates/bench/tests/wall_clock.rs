//! Wall-clock ratio gates: opt-in observability must cost (almost)
//! nothing. Each test times one run against another, so a loaded or
//! single-core host can fail them without any change to the code. They
//! are ignored by default and run in CI's release-mode step:
//!
//! ```text
//! cargo test --release -q -p mca-bench --test wall_clock -- --ignored
//! ```
//!
//! The deterministic counterparts (same rows and solver counts with the
//! feature on, no span events without a recorder) run in every
//! `cargo test`: see `tests/span_profiling.rs` and `tests/forensics.rs`.
//!
//! * A span-enabled E3 run stays within 5% of the no-observer run.
//! * Solver search telemetry, even fully enabled, stays within 1% (+10ms
//!   slack) of the plain solve on a real UNSAT search, which bounds the
//!   no-observer cost of the feature from above — the tier-1 experiments
//!   never enable it, so they pay strictly less.

use mca_obs::{Handle, SpanRecorder};
use mca_sat::{CnfFormula, SolveResult, Solver};
use mca_verify::analysis::run_policy_matrix;
use std::time::Instant;

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

#[test]
#[ignore = "wall-clock ratio; CI runs it"]
fn span_recording_overhead_on_e3_is_within_five_percent() {
    // min-of-N on both sides: the minimum is the least noisy statistic of
    // a repeated deterministic workload.
    let runs = 3;
    let time_min = |spanned: bool| {
        (0..runs)
            .map(|_| {
                let start = Instant::now();
                let rows = if spanned {
                    let handle = Handle::new(mca_obs::CollectSink::default());
                    let spans = SpanRecorder::new(handle.observer());
                    run_policy_matrix(None, Some(&spans))
                } else {
                    run_policy_matrix(None, None)
                };
                assert_eq!(rows.len(), 4);
                start.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };
    let plain = time_min(false);
    let spanned = time_min(true);
    // 5% relative plus 10ms absolute slack: four spans cost nanoseconds,
    // but sub-millisecond timer noise shouldn't fail the build.
    assert!(
        spanned <= plain * 1.05 + 0.010,
        "span overhead too high: plain {plain:.4}s vs spanned {spanned:.4}s"
    );
}

#[test]
#[ignore = "wall-clock ratio; CI runs it"]
fn solver_telemetry_overhead_is_under_one_percent() {
    // min-of-N on both sides: the minimum is the least noisy statistic of
    // a repeated deterministic workload. This bounds the *enabled* cost;
    // the disabled path (what E3 and every tier-1 experiment runs) is a
    // branch on a `None` and strictly cheaper.
    let runs = 3;
    let cnf = pigeonhole(7);
    let time_min = |telemetry: bool| {
        (0..runs)
            .map(|_| {
                let mut solver: Solver = cnf.to_solver();
                if telemetry {
                    solver.enable_telemetry();
                }
                let start = Instant::now();
                assert_eq!(solver.solve(), SolveResult::Unsat);
                start.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };
    let plain = time_min(false);
    let with_telemetry = time_min(true);
    // 1% relative plus 10ms absolute slack, like the span-overhead gate:
    // the histogram records are O(1) per learnt clause, but sub-ms timer
    // noise must not fail the build.
    assert!(
        with_telemetry <= plain * 1.01 + 0.010,
        "telemetry overhead too high: plain {plain:.4}s vs enabled {with_telemetry:.4}s"
    );
}
