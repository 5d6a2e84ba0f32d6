//! `mca-suite` — umbrella package re-exporting the MCA verification suite crates
//! for use by the repository-level examples and integration tests.
//!
//! The README below is compiled into this crate's documentation, which
//! makes its API snippets **tested doc examples**: `cargo test --doc -p
//! mca-suite` builds and runs every Rust block of the quickstart tour.
#![doc = include_str!("../README.md")]
#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use mca_alloy as alloy;
pub use mca_core as core;
pub use mca_lint as lint;
pub use mca_obs as obs;
pub use mca_relalg as relalg;
pub use mca_report as report;
pub use mca_sat as sat;
pub use mca_serve as serve;
pub use mca_verify as verify;
pub use mca_vnmap as vnmap;
