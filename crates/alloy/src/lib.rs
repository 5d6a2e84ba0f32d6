//! `mca-alloy` — a lightweight, Alloy-style modeling frontend.
//!
//! The reproduced paper (Mirzaei & Esposito, ICDCS 2015) writes its MCA
//! verification model in the Alloy language and analyzes it with the Alloy
//! Analyzer. This crate provides the subset of Alloy that model uses, as an
//! embedded Rust DSL over the [`mca_relalg`] bounded model finder:
//!
//! * [`Model::sig`] — `sig` declarations with explicit scopes;
//!   [`Model::one_sig`] for singletons such as `NULL`.
//! * [`Model::field`] — fields with multiplicities
//!   ([`Multiplicity::One`]/`Lone`/`Some`/`Set`), including ternary fields
//!   such as the paper's `initBids: vnode -> Int`.
//! * [`Model::fact`] — `fact` paragraphs (arbitrary relational formulas).
//! * [`Model::run`] / [`Model::check`] — the Alloy Analyzer commands;
//!   `check` returns a counterexample [`mca_relalg::Instance`] on failure.
//! * [`Model::ordering`] — the analogue of `open util/ordering[sig]`, used
//!   by the paper to order `netState` atoms.
//! * [`Model::value_sig`] — the paper's `value` signature (naturals with
//!   `succ`/`pre` and `valL`/`valLE`/`valG`/`valGE` predicates), its
//!   *optimized* number encoding.
//! * [`Model::int_sig`] — Alloy-`Int`-style integer atoms (bit-blasted sums
//!   and comparisons), its *naive* number encoding.
//! * [`Model::to_problem`] — the relational problem whose
//!   [`translate`](mca_relalg::Problem::translate) reports SAT
//!   variable/clause counts, the metric compared by the paper's
//!   "Abstractions Efficiency" experiment.
//!
//! # Examples
//!
//! The paper's `uniqueID` assertion (§III), transliterated:
//!
//! ```
//! use mca_alloy::{Model, Multiplicity};
//! use mca_relalg::{Formula, QuantVar};
//!
//! let mut m = Model::new();
//! let pnode = m.sig("pnode", 3);
//! let idv = m.value_sig(3);
//! let id = m.field("id", pnode, &[idv.sig()], Multiplicity::One);
//!
//! // fact: distinct pnodes have distinct ids
//! let n1 = QuantVar::fresh("n1");
//! let n2 = QuantVar::fresh("n2");
//! let distinct = n1.expr().equals(&n2.expr()).not();
//! let diff_ids = n1.expr().join(&m.field_expr(id))
//!     .equals(&n2.expr().join(&m.field_expr(id))).not();
//! m.fact(Formula::forall(&n1, &m.sig_expr(pnode),
//!     &Formula::forall(&n2, &m.sig_expr(pnode), &distinct.implies(&diff_ids))));
//!
//! // assert uniqueID { ... }  /  check uniqueID for 3
//! let assertion = Formula::forall(&n1, &m.sig_expr(pnode),
//!     &Formula::forall(&n2, &m.sig_expr(pnode), &distinct.implies(&diff_ids)));
//! assert!(m.check(&assertion).unwrap().result.is_valid());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod export;
mod model;
mod ordering;
mod value;

pub use model::{FieldId, Model, Multiplicity, OutcomeExt, SigId};
pub use ordering::Ordering;
pub use value::ValueSig;
