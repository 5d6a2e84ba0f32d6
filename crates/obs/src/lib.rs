//! Structured tracing and profiling spans for the MCA verification suite.
//!
//! This crate is the observability layer shared by the simulator, the
//! explicit-state checker, the relational-to-CNF encoder, and the `repro`
//! experiment driver:
//!
//! * [`Event`] — the structured trace vocabulary. Every event is keyed by
//!   *logical* progress (simulation step, states explored, conflict count),
//!   never wall-clock time, so traces of deterministic runs are
//!   byte-for-byte reproducible.
//! * [`Observer`] / [`SharedObserver`] / [`Handle`] — the hook instrumented
//!   code calls into. Instrumentation sites are written as
//!   `if let Some(obs) = &self.observer { obs.emit(..) }`, so with no
//!   observer attached the cost is a branch on an `Option` — events are
//!   never constructed.
//! * [`JsonlSink`], [`CollectSink`] — ready-made observers:
//!   newline-delimited JSON for `jq`, and an in-memory vector for tests.
//! * [`SpanRecorder`] / [`SpanGuard`] — opt-in hierarchical profiling
//!   spans with monotonic timestamps and resource-accounting exit fields
//!   (the one sanctioned wall-clock carve-out; plain event traces stay
//!   byte-identical because nothing emits spans unless a recorder is
//!   explicitly attached). `mca-report` turns span traces into reports.
//!
//! The trace is one of a run's three records, beside its `BENCH_*.json`
//! file and its stdout; each number is reported in one of them.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod event;
pub mod json;
pub mod observer;
pub mod sink;
pub mod span;

pub use event::Event;
pub use json::Json;
pub use observer::{Handle, Observer, SharedObserver};
pub use sink::{CollectSink, JsonlSink};
pub use span::{peak_rss_kb, SpanGuard, SpanRecorder};
