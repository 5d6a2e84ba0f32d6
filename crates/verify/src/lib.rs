//! `mca-verify` — the paper's contribution: a machine-readable MCA
//! verification model with push-button convergence analysis.
//!
//! This crate reproduces, in Rust, the Alloy model of Mirzaei & Esposito
//! (*An Alloy Verification Model for Consensus-Based Auction Protocols*,
//! ICDCS 2015) together with the analyses of its evaluation:
//!
//! * [`StaticModel`] — the static sub-model (§IV): `pnode`/`vnode`
//!   signatures, capacities, bids, connectivity facts, and the `uniqueID`
//!   assertion.
//! * [`DynamicModel`] — the dynamic sub-model (§IV): ordered `netState`s, a
//!   `message` buffer, the `stateTransition` fact and the `consensus`
//!   assertion; supports the Remark-1-removed *rebidding attack* (Result 2).
//! * [`NumberEncoding`] — both of the paper's encodings: naive
//!   (Alloy-`Int`-style atoms + wide relations) and optimized (the `value`
//!   signature + `bidTriple`-style binary fields), enabling the
//!   "Abstractions Efficiency" comparison (E5).
//! * [`analysis`] — one driver per evaluation artifact (E1–E8), shared by
//!   the `repro` harness, the examples and the integration tests. E8 extends past the paper: scope-parametric
//!   scenarios ([`DynamicScenario::at_scope`]) checked under three
//!   encoding pipelines (naive, optimized, optimized + DRAT-logged
//!   preprocessing) with incremental per-state convergence sweeps
//!   ([`DynamicModel::convergence_sweep`]).
//! * [`batch`] — runs a driver's independent checks on scoped threads and
//!   traces them as if one thread had run them in order.
//!
//! Two verification engines cross-validate each other: the SAT pipeline
//! (`mca-sat` → `mca-relalg` → `mca-alloy`, like the Alloy Analyzer) and
//! the explicit-state checker of [`mca_core::checker`].
//!
//! # Examples
//!
//! Result 2 (the rebidding attack) as a push-button check:
//!
//! ```
//! use mca_verify::{DynamicModel, DynamicScenario, NumberEncoding};
//!
//! let attacked = DynamicModel::build(
//!     NumberEncoding::OptimizedValue,
//!     DynamicScenario::two_agent_rebid_attack(),
//! );
//! let outcome = attacked.check_consensus()?;
//! assert!(!outcome.result.is_valid(), "the attack breaks consensus");
//! # Ok::<(), mca_relalg::TranslateError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod batch;
mod dynamic_model;
mod encoding;
mod static_model;

pub use dynamic_model::{ConsensusSweep, DynamicModel, DynamicScenario, ScopedCheck};
pub use encoding::{NumberEncoding, Numbers};
pub use static_model::{StaticModel, StaticScope};
