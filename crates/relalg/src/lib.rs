//! `mca-relalg` — a bounded relational-logic model finder (Kodkod-style).
//!
//! This crate reproduces the analysis pipeline that sits underneath the
//! Alloy Analyzer in the reproduced paper (Mirzaei & Esposito, ICDCS 2015):
//! a relational model with per-relation lower/upper tuple bounds is
//! translated into a hash-consed boolean circuit, Tseitin-converted to CNF,
//! and discharged with the [`mca_sat`] CDCL solver. Satisfying models are
//! decoded back into relational [`Instance`]s.
//!
//! The crate exposes translation statistics ([`TranslationStats`]) — SAT
//! variable and clause counts — because the paper's "Abstractions
//! Efficiency" experiment (reproduced as experiment E5) is precisely a
//! comparison of those counts across two encodings of the same model.
//!
//! # Layered API
//!
//! * [`Universe`], [`Tuple`], [`TupleSet`] — atoms and bounds.
//! * [`Expr`], [`Formula`], [`IntExpr`] — the relational AST
//!   (join/product/closure/quantifiers/cardinality/sum).
//! * [`Problem`] — declarations + facts; `solve` / `check` / `enumerate`.
//! * [`circuit::Circuit`] — the underlying boolean circuit, public for
//!   direct gate-level use and for the bit-blasting tests.
//!
//! # Examples
//!
//! Finding an instance of a tiny model:
//!
//! ```
//! use mca_relalg::{Problem, Universe, TupleSet, Expr};
//!
//! let mut u = Universe::new();
//! let nodes = u.add_atoms("Node", 3);
//! let mut p = Problem::new(u);
//! let edges = p.declare_relation("edges", TupleSet::new(2), {
//!     let all = TupleSet::from_atoms(nodes);
//!     all.product(&all)
//! });
//! // Require a symmetric, non-empty edge relation.
//! let e = Expr::relation(edges);
//! p.require(e.equals(&e.transpose()));
//! p.require(e.some());
//! let outcome = p.solve().expect("well-formed model");
//! assert!(outcome.result.is_sat());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod ast;
pub mod bitvec;
pub mod circuit;
pub mod display;
mod error;
mod eval;
mod fingerprint;
mod problem;
mod translate;
mod tuple;
mod universe;

pub use ast::{
    CmpOp, Decl, Expr, ExprKind, Formula, FormulaKind, IntExpr, IntExprKind, QuantVar, RelationId,
};
pub use error::TranslateError;
pub use eval::Evaluator;
pub use fingerprint::fnv1a64;
pub use problem::{
    CertifiedCheck, Check, CheckOutcome, IncrementalChecker, Instance, Outcome, Problem,
    ProofCertificate, RelationDecl, SolveOutcome,
};
pub use translate::{RelationStats, Translation, TranslationStats};
pub use tuple::{Tuple, TupleSet};
pub use universe::{AtomId, Universe};
