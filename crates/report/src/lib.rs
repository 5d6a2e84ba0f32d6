//! Profiling reports and regression gating for the MCA verification suite.
//!
//! `mca-report` is the read side of the span layer in `mca-obs`:
//!
//! * [`trace`] — parses a JSONL trace (as written by
//!   `repro <exp> --trace`) and reconstructs the hierarchical span tree
//!   from `span-enter` / `span-exit` events. Malformed traces (orphan
//!   exits, unclosed spans, duplicate closes, unknown parents, garbage
//!   lines) produce diagnostics, never panics.
//! * [`render`] — renders a parsed trace as a self-contained markdown (or
//!   HTML-wrapped) report: span-tree time breakdown, top-k hot spans by
//!   self time, event-kind counts, and — when a metrics JSON is supplied —
//!   metrics histograms and solver stat tables.
//! * [`diff`] — compares two `BENCH_*.json` artifacts and flags threshold
//!   regressions in `*_secs` / `*clauses*` / `*conflicts*` leaves, the
//!   regression tripwire CI runs against the committed baselines.
//! * [`lint`] — renders `mca-lint` findings (`lint-finding` / `lint-done`
//!   JSONL events, as written by `repro lint`) as a markdown report with
//!   per-target severity tallies.
//! * [`timeline`] — renders per-worker HTML swimlanes from the
//!   `runtime.job:*` span windows of a traced batch.
//! * [`service`] — parses `mca-serve` Metrics scrapes (Prometheus-style
//!   exposition text) and renders the `## Service dashboard (live
//!   scrape)` report section;
//!   the W101–W106 service rules in [`why`] read the same parse.
//! * [`why`] — the `repro why` rule catalog: turns a trace into a
//!   ranked, stable-id bottleneck diagnosis that CI can pin.
//!
//! Like the rest of the workspace the crate is std-only; JSON handling
//! comes from [`mca_obs::Json`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod diff;
pub mod lint;
pub mod render;
pub mod service;
pub mod timeline;
pub mod trace;
pub mod why;

pub use diff::{diff_bench, DiffConfig, DiffOutcome, MetricKind, Regression};
pub use lint::{render_lint_markdown, LintFinding, LintSummary, ParsedLint};
pub use render::{render_html, render_markdown, ReportOptions};
pub use service::{render_service_dashboard, Series, ServiceStats};
pub use timeline::render_timeline_html;
pub use trace::{ParsedTrace, ServeSummary, SpanNode};
pub use why::{diagnose, diagnose_service, render_why_markdown, WhyFinding, WhySeverity};
