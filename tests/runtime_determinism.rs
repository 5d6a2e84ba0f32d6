//! Parallelism must never change a verification outcome — only its
//! wall-clock. These tests pin the contract end-to-end: the E3 policy
//! matrix, the extended 16-cell matrix and the E4 attack checks all
//! produce identical outcomes at `--threads 1` and `--threads N`, a
//! batch's drained job-event stream is byte-identical at any thread
//! count, and the pool's job lifecycle trace fires exactly one
//! scheduled/started/finished event per job.
//!
//! The multi-thread worker count defaults to 4 and can be overridden with
//! `MCA_TEST_THREADS` (CI runs the suite at 1, 2, and 8).

use mca_runtime::Runtime;
use mca_sat::{CnfFormula, SolveResult};
use mca_verify::parallel::{
    run_extended_policy_matrix, run_policy_matrix_parallel, run_rebid_attack_parallel,
};

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
    // Drained job events are sorted by id and carry no worker or
    // wall-clock field, so a fixed batch must render byte-identically at
    // 1, 2 and 8 threads, however the workers interleaved. Pigeonhole
    // refutations of mixed sizes make the jobs finish out of order.
    let stream_at = |threads: usize| -> String {
        let rt = Runtime::new(threads);
        let jobs: Vec<(String, _)> = (0..16usize)
            .map(|i| {
                let holes = 2 + i % 4;
                let cnf = pigeonhole(holes);
                (format!("php:{i}:{holes}"), move || cnf.to_solver().solve())
            })
            .collect();
        assert!(rt.run_batch(jobs).iter().all(|r| *r == SolveResult::Unsat));
        rt.drain_job_events()
            .iter()
            .map(mca_obs::Event::to_json_line)
            .collect::<Vec<_>>()
            .join("\n")
    };
    let one = stream_at(1);
    assert_eq!(one.lines().count(), 48);
    assert_eq!(one, stream_at(2), "2-thread stream diverged");
    assert_eq!(one, stream_at(8), "8-thread stream diverged");
}

#[test]
fn stress_hundred_jobs_fire_events_exactly_once() {
    let rt = Runtime::new(test_threads());
    // Nothing deadlocks and every job reports its result in submission
    // order.
    let jobs: Vec<(String, _)> = (0..100u64)
        .map(|i| (format!("stress:{i}"), move || i * i))
        .collect();
    let results = rt.run_batch(jobs);
    assert_eq!(results, (0..100u64).map(|i| i * i).collect::<Vec<_>>());

    // Exactly one scheduled, one started, and one finished event per job.
    let events = rt.drain_job_events();
    assert_eq!(events.len(), 300);
    for job in 0..100u64 {
        let of_job: Vec<&mca_obs::Event> = events
            .iter()
            .filter(|e| match e {
                mca_obs::Event::JobScheduled { job: j, .. }
                | mca_obs::Event::JobStarted { job: j, .. }
                | mca_obs::Event::JobFinished { job: j, .. } => *j == job,
                _ => false,
            })
            .collect();
        assert_eq!(of_job.len(), 3, "job {job} must have exactly 3 events");
        assert_eq!(of_job[0].kind(), "job-scheduled");
        assert_eq!(of_job[1].kind(), "job-started");
        assert_eq!(of_job[2].kind(), "job-finished");
    }
    // Draining empties the log: a second drain is a no-op.
    assert!(rt.drain_job_events().is_empty());
}
