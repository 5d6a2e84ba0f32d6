//! `mca-sat` — a from-scratch CDCL SAT solver.
//!
//! This crate is the bottom layer of the MCA verification suite, playing the
//! role that MiniSat-class solvers play underneath the Alloy Analyzer in the
//! reproduced paper (Mirzaei & Esposito, *An Alloy Verification Model for
//! Consensus-Based Auction Protocols*, ICDCS 2015): the relational-logic
//! translator in `mca-relalg` compiles bounded relational models to CNF and
//! discharges them here.
//!
//! # Features
//!
//! * Conflict-driven clause learning with first-UIP analysis and clause
//!   minimization ([`Solver`]).
//! * Two-watched-literal unit propagation over a flat clause arena, with
//!   binary clauses settled from their watchers alone.
//! * VSIDS decision heuristic with phase saving.
//! * Luby restarts and glucose-style tiered learnt-clause reduction keyed
//!   on LBD.
//! * Incremental solving under assumptions with failed-assumption
//!   extraction.
//! * Model enumeration over a projection set
//!   ([`Solver::enumerate_models`]) — this is what powers Alloy-style `run`
//!   instance enumeration upstream.
//! * DRAT proofs of every refutation, recorded ([`Solver::enable_proof`])
//!   or streamed ([`Solver::stream_proof`]), and an independent checker
//!   ([`check_drat`], [`DratChecker`]) that can check a streamed proof on
//!   its own thread while the search runs ([`check_drat_stream`]).
//! * DIMACS CNF I/O ([`CnfFormula`]).
//! * A brute-force oracle ([`brute`]) for differential testing.
//!
//! # Examples
//!
//! ```
//! use mca_sat::{Solver, SolveResult};
//!
//! // (a | b) & (!a | b) & (!b | c)
//! let mut s = Solver::new();
//! let (a, b, c) = (s.new_var(), s.new_var(), s.new_var());
//! s.add_clause([a.positive(), b.positive()]);
//! s.add_clause([a.negative(), b.positive()]);
//! s.add_clause([b.negative(), c.positive()]);
//! assert_eq!(s.solve(), SolveResult::Sat);
//! let m = s.model().expect("sat");
//! assert!(m.value(b));
//! assert!(m.value(c));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod brute;
mod clause;
mod cnf;
mod heap;
mod lit;
mod luby;
pub mod proof;
mod simplify;
mod solver;

pub use clause::ClauseRef;
pub use cnf::{CnfFormula, DimacsError};
pub use lit::{LBool, Lit, Var};
pub use luby::luby;
pub use proof::{check_drat, check_drat_stream, DratChecker, DratError, Proof, ProofStep};
pub use simplify::SimplifyStats;
pub use solver::{Model, SolveResult, Solver, SolverStats};
