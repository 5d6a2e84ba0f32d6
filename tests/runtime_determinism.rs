//! Parallelism must never change a verification outcome — only its
//! wall-clock. These tests pin the contract end-to-end: the E3 policy
//! matrix, the extended 16-cell matrix, the E4 attack checks, and the
//! portfolio/cube consensus solves all produce identical outcomes at
//! `--threads 1` and `--threads N`, and the pool's job lifecycle trace
//! fires exactly one scheduled/started/terminal event per job.
//!
//! The multi-thread worker count defaults to 4 and can be overridden with
//! `MCA_TEST_THREADS` (CI runs the suite at 1, 2, and 8).

use mca_runtime::{
    diversified_configs, solve_cubes_adaptive, AdaptiveCubeConfig, Runtime, SharingConfig,
};
use mca_sat::{CancelToken, CnfFormula, SolveResult};
use mca_verify::parallel::{
    check_consensus_cubes_adaptive, check_consensus_portfolio, run_extended_policy_matrix,
    run_policy_matrix_parallel, run_rebid_attack_parallel,
};
use mca_verify::{DynamicModel, DynamicScenario, NumberEncoding};

/// The "many threads" side of every comparison (the "one thread" side is
/// always literal 1).
fn test_threads() -> usize {
    std::env::var("MCA_TEST_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4)
}

#[test]
fn e3_policy_matrix_is_thread_count_invariant() {
    let seq = run_policy_matrix_parallel(&Runtime::new(1));
    let par = run_policy_matrix_parallel(&Runtime::new(test_threads()));
    assert_eq!(seq.len(), 4);
    assert_eq!(seq.len(), par.len());
    for (s, p) in seq.iter().zip(&par) {
        assert_eq!(s.cell, p.cell, "row order must match submission order");
        assert_eq!(s.paper_converges, p.paper_converges);
        assert_eq!(
            s.checker_converges, p.checker_converges,
            "verdict differs for {:?}",
            s.cell
        );
        assert_eq!(
            s.detail, p.detail,
            "checker detail differs for {:?}",
            s.cell
        );
        assert!(p.matches_paper(), "cell {:?} must match Result 1", p.cell);
    }
}

#[test]
fn extended_matrix_is_thread_count_invariant() {
    let seq = run_extended_policy_matrix(&Runtime::new(1));
    let par = run_extended_policy_matrix(&Runtime::new(test_threads()));
    assert_eq!(seq.len(), 16);
    for (s, p) in seq.iter().zip(&par) {
        assert_eq!(s.cell, p.cell);
        assert_eq!(
            s.sim_converges,
            p.sim_converges,
            "verdict differs for {}",
            s.cell.label()
        );
        assert_eq!(s.rounds, p.rounds, "rounds differ for {}", s.cell.label());
    }
}

#[test]
fn e4_attack_checks_are_thread_count_invariant() {
    let seq = run_rebid_attack_parallel(&Runtime::new(1));
    let par = run_rebid_attack_parallel(&Runtime::new(test_threads()));
    assert_eq!(seq.explicit_converges, par.explicit_converges);
    assert_eq!(seq.explicit_detail, par.explicit_detail);
    assert_eq!(seq.sat_naive_valid, par.sat_naive_valid);
    assert_eq!(seq.sat_optimized_valid, par.sat_optimized_valid);
    assert_eq!(seq.sat_compliant_valid, par.sat_compliant_valid);
    assert!(par.matches_paper(), "E4 must reproduce Result 2");
}

#[test]
fn portfolio_and_cube_verdicts_never_differ_from_sequential() {
    let rt = Runtime::new(test_threads());
    for (scenario, encoding) in [
        (
            DynamicScenario::two_agent_compliant(),
            NumberEncoding::OptimizedValue,
        ),
        (
            DynamicScenario::two_agent_rebid_attack(),
            NumberEncoding::OptimizedValue,
        ),
        (
            DynamicScenario::two_agent_compliant(),
            NumberEncoding::NaiveInt,
        ),
    ] {
        let model = DynamicModel::build(encoding, scenario);
        let sequential = model
            .check_consensus()
            .expect("well-formed model")
            .result
            .is_valid();
        let no_sharing = SharingConfig {
            max_lbd: 0,
            ..SharingConfig::default()
        };
        let (portfolio_valid, report) =
            check_consensus_portfolio(&rt, &model, &diversified_configs(4), no_sharing);
        assert_eq!(
            portfolio_valid, sequential,
            "portfolio verdict differs (winner {})",
            report.winner_label
        );
        // A fixed 2^3 split: cubes at the depth cap run unbounded.
        let fixed_split = AdaptiveCubeConfig {
            initial_split: 3,
            max_split: 3,
            ..AdaptiveCubeConfig::default()
        };
        let (cube_valid, _) = check_consensus_cubes_adaptive(&rt, &model, fixed_split);
        assert_eq!(cube_valid, sequential, "cube verdict differs");
    }
}

#[test]
fn shared_portfolio_verdicts_are_thread_count_invariant() {
    // Clause sharing moves learnt clauses between entrants; every import
    // is a logical consequence of the shared CNF, so the verdict must not
    // move at any thread count.
    for threads in [1, 2, 8] {
        let rt = Runtime::new(threads);
        for scenario in [
            DynamicScenario::two_agent_compliant(),
            DynamicScenario::two_agent_rebid_attack(),
        ] {
            let model = DynamicModel::build(NumberEncoding::OptimizedValue, scenario);
            let sequential = model
                .check_consensus()
                .expect("well-formed model")
                .result
                .is_valid();
            let (shared_valid, report) = check_consensus_portfolio(
                &rt,
                &model,
                &diversified_configs(4),
                SharingConfig::default(),
            );
            assert_eq!(
                shared_valid, sequential,
                "sharing changed the verdict at {threads} threads (winner {})",
                report.winner_label
            );
            // Pool accounting is internally consistent: nothing can be
            // imported that was never exported into a lane.
            assert!(report.shared_imported <= report.shared_exported * 4);
        }
    }
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
fn adaptive_cube_event_streams_are_bit_identical_across_thread_counts() {
    // On an UNSAT instance nothing cancels, so each round's job set is a
    // deterministic function of the formula and the config — and because
    // drained job events are sorted by id and carry no wall-clock fields,
    // the rendered stream must be byte-identical at 1, 2, and 8 threads.
    let cnf = pigeonhole(5);
    let config = AdaptiveCubeConfig {
        initial_split: 2,
        conflict_budget: 64,
        max_split: 4,
    };
    let stream_at = |threads: usize| -> String {
        let rt = Runtime::new(threads);
        let report = solve_cubes_adaptive(&rt, &cnf, config);
        assert_eq!(report.result, SolveResult::Unsat);
        rt.drain_job_events()
            .iter()
            .map(mca_obs::Event::to_json_line)
            .collect::<Vec<_>>()
            .join("\n")
    };
    let one = stream_at(1);
    assert!(!one.is_empty());
    assert_eq!(one, stream_at(2), "2-thread stream diverged");
    assert_eq!(one, stream_at(8), "8-thread stream diverged");
}

#[test]
fn stress_hundred_jobs_with_cancellation_fire_events_exactly_once() {
    let rt = Runtime::new(test_threads());
    // Half-way through, one job cancels the shared token; jobs observing
    // the cancellation return a sentinel. Nothing deadlocks and every job
    // still reports a result in submission order.
    let token = CancelToken::new();
    let jobs: Vec<(String, _)> = (0..100u64)
        .map(|i| {
            (format!("stress:{i}"), move |t: &CancelToken| {
                if i == 50 {
                    t.cancel();
                }
                if t.is_cancelled() {
                    u64::MAX
                } else {
                    i * i
                }
            })
        })
        .collect();
    let results = rt.run_batch_with_token(jobs, &token);
    assert_eq!(results.len(), 100);
    for (i, r) in results.iter().enumerate() {
        assert!(
            *r == (i as u64) * (i as u64) || *r == u64::MAX,
            "job {i} returned neither its square nor the sentinel: {r}"
        );
    }

    // Exactly one scheduled, one started, and one terminal event per job.
    let events = rt.drain_job_events();
    for job in 0..100u64 {
        let of_job: Vec<&mca_obs::Event> = events
            .iter()
            .filter(|e| match e {
                mca_obs::Event::JobScheduled { job: j, .. }
                | mca_obs::Event::JobStarted { job: j, .. }
                | mca_obs::Event::JobFinished { job: j, .. }
                | mca_obs::Event::JobCancelled { job: j, .. } => *j == job,
                _ => false,
            })
            .collect();
        assert_eq!(of_job.len(), 3, "job {job} must have exactly 3 events");
        assert_eq!(of_job[0].kind(), "job-scheduled");
        assert_eq!(of_job[1].kind(), "job-started");
        assert!(
            of_job[2].kind() == "job-finished" || of_job[2].kind() == "job-cancelled",
            "job {job} terminal event is {}",
            of_job[2].kind()
        );
    }
    // Draining empties the log: a second drain is a no-op.
    assert!(rt.drain_job_events().is_empty());
}

#[test]
fn portfolio_race_elects_exactly_one_winner_under_stress() {
    let rt = Runtime::new(test_threads());
    let entrants: Vec<(String, _)> = (0..100u64)
        .map(|i| {
            (format!("race:{i}"), move |t: &CancelToken| {
                (!t.is_cancelled()).then_some(i)
            })
        })
        .collect();
    let win = rt.portfolio(entrants).expect("some entrant finishes");
    assert!(win.winner < 100);
    let events = rt.drain_job_events();
    let won = events
        .iter()
        .filter(|e| matches!(e, mca_obs::Event::JobFinished { outcome, .. } if outcome == "won"))
        .count();
    assert_eq!(won, 1, "exactly one portfolio winner");
}
