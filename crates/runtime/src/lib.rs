//! # mca-runtime — the parallel verification engine
//!
//! A std-only work-stealing job engine (plain `std::thread` + channels +
//! condvars; no external dependencies) that fans the suite's verification
//! workloads across cores. Three execution modes:
//!
//! * **Batch** ([`Runtime::run_batch`]) — run a list of independent jobs
//!   (the E3 policy-matrix cells, the E4 attack checks) and return the
//!   results in submission order. With deterministic jobs the output is
//!   bit-identical to a sequential run, whatever the worker count.
//! * **Portfolio** ([`solve_portfolio`]) — race diversified
//!   [`mca_sat::SolverConfig`]s on the same CNF; the first finisher
//!   cancels the losers through a shared [`mca_sat::CancelToken`]. The
//!   verdict never differs from a sequential solve (complete solvers
//!   agree); only latency and the winning configuration vary. Each
//!   entrant's low-LBD learnt clauses are routed through a [`ClauseShare`]
//!   pool (per its [`SharingConfig`]; `max_lbd: 0` shares nothing) so the
//!   losers' conflict work feeds the eventual winner instead of being
//!   discarded.
//! * **Cube-and-conquer** ([`solve_cubes_adaptive`]) — split a formula on
//!   its top decision variables into assumption-guided subproblems that
//!   exhaustively partition the assignment space, and conquer them in
//!   parallel: any SAT cube ⇒ SAT, all UNSAT ⇒ UNSAT. Cubes start at
//!   `2^initial_split` and those that exhaust a conflict budget are split
//!   one variable deeper, so only hard regions of the space pay for deep
//!   splitting.
//!
//! Batch and portfolio job lifecycles are traced: every submission,
//! start, finish, and cancellation is recorded and can be drained as `mca-obs`
//! [`JobScheduled`](mca_obs::Event::JobScheduled) /
//! [`JobStarted`](mca_obs::Event::JobStarted) /
//! [`JobFinished`](mca_obs::Event::JobFinished) /
//! [`JobCancelled`](mca_obs::Event::JobCancelled) events, sorted by job
//! id so the trace is deterministic regardless of scheduling (see
//! [`Runtime::drain_job_events`]). Per-worker counters are exposed via
//! [`Runtime::worker_stats`] and [`Runtime::record_metrics`].
//!
//! ## Example: a portfolio race
//!
//! ```
//! use mca_runtime::{diversified_configs, solve_portfolio, Runtime, SharingConfig};
//! use mca_sat::{CnfFormula, SolveResult};
//!
//! // (a ∨ b) ∧ (¬a ∨ b) — satisfiable with b = true.
//! let mut cnf = CnfFormula::new();
//! let a = cnf.new_var();
//! let b = cnf.new_var();
//! cnf.add_clause([a.positive(), b.positive()]);
//! cnf.add_clause([a.negative(), b.positive()]);
//!
//! let rt = Runtime::new(2);
//! let report = solve_portfolio(&rt, &cnf, &diversified_configs(4), SharingConfig::default());
//! assert_eq!(report.result, SolveResult::Sat);
//! assert_eq!(report.entrants, 4);
//! // The winner is one of the four raced configurations…
//! assert!(report.winner < 4);
//! // …and the verdict matches a plain sequential solve.
//! assert_eq!(report.result, cnf.to_solver().solve());
//!
//! // The race leaves a job trace behind, ordered by job id.
//! let events = rt.drain_job_events();
//! assert!(events.iter().any(|e| e.kind() == "job-finished"));
//! ```
//!
//! ## Example: adaptive cube-and-conquer
//!
//! ```
//! use mca_runtime::{solve_cubes_adaptive, AdaptiveCubeConfig, Runtime};
//! use mca_sat::{CnfFormula, SolveResult};
//!
//! // An unsatisfiable equality cycle: x1 = x2, x2 = x3, x1 ≠ x3.
//! let mut cnf = CnfFormula::new();
//! let v = cnf.new_vars(3);
//! cnf.add_clause([v[0].negative(), v[1].positive()]);
//! cnf.add_clause([v[0].positive(), v[1].negative()]);
//! cnf.add_clause([v[1].negative(), v[2].positive()]);
//! cnf.add_clause([v[1].positive(), v[2].negative()]);
//! cnf.add_clause([v[0].positive(), v[2].positive()]);
//! cnf.add_clause([v[0].negative(), v[2].negative()]);
//!
//! let rt = Runtime::new(2);
//! let config = AdaptiveCubeConfig { initial_split: 1, ..AdaptiveCubeConfig::default() };
//! let report = solve_cubes_adaptive(&rt, &cnf, config);
//! assert_eq!(report.result, SolveResult::Unsat);
//! // Trivial cubes resolve inside their conflict budget; nothing split.
//! assert_eq!(report.resplit, 0);
//! assert_eq!(report.result, cnf.to_solver().solve());
//! ```
//!
//! ## Determinism contract
//!
//! Parallelism must never change a verification *outcome*, only its
//! latency. Batch results are ordered by submission index; portfolio and
//! cube verdicts are invariant by construction; drained job traces are
//! sorted by job id. The umbrella crate's `runtime_determinism`
//! integration test pins E3/E4 outcome equality across thread counts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cube;
mod pool;
mod portfolio;
mod share;
mod trace;

pub use cube::{solve_cubes_adaptive, AdaptiveCubeConfig, AdaptiveCubeReport};
pub use pool::{PortfolioWin, Runtime, WorkerCtx, WorkerStats};
pub use portfolio::{diversified_configs, solve_portfolio, PortfolioEntry, PortfolioReport};
pub use share::{ClauseShare, ShareEndpoint, SharingConfig};
pub use trace::{JobPhase, JobTraceLog};
