//! # mca-runtime — the parallel verification engine
//!
//! A std-only work-stealing job engine (plain `std::thread` + channels +
//! condvars; no external dependencies) that fans the suite's verification
//! workloads across cores. Its one entry point, [`Runtime::run_batch`],
//! runs a list of independent jobs (the E3 policy-matrix cells, the E4
//! attack checks, the coarse E8 scaling cells) and returns the results in
//! submission order. With deterministic jobs the output is bit-identical
//! to a sequential run, whatever the worker count.
//!
//! Job lifecycles are traced: every submission, start and finish is
//! recorded and can be drained as `mca-obs`
//! [`JobScheduled`](mca_obs::Event::JobScheduled) /
//! [`JobStarted`](mca_obs::Event::JobStarted) /
//! [`JobFinished`](mca_obs::Event::JobFinished) events, sorted by job id
//! so the trace is deterministic regardless of scheduling (see
//! [`Runtime::drain_job_events`]). Per-worker counters are exposed via
//! [`Runtime::worker_stats`] and [`Runtime::record_metrics`].
//!
//! ## Example: a batch
//!
//! ```
//! use mca_runtime::Runtime;
//!
//! let rt = Runtime::new(2);
//! let jobs: Vec<(String, _)> = (0..4u64)
//!     .map(|i| (format!("square:{i}"), move || i * i))
//!     .collect();
//! // Results come back in submission order, whichever worker ran what.
//! assert_eq!(rt.run_batch(jobs), vec![0, 1, 4, 9]);
//!
//! // The batch leaves a job trace behind, ordered by job id.
//! let events = rt.drain_job_events();
//! assert_eq!(events.len(), 12);
//! assert_eq!(events[0].kind(), "job-scheduled");
//! assert_eq!(events[11].kind(), "job-finished");
//! ```
//!
//! ## Determinism contract
//!
//! Parallelism must never change a verification *outcome*, only its
//! latency. Batch results are ordered by submission index, and drained
//! job traces are sorted by job id. The umbrella crate's
//! `runtime_determinism` integration test pins E3/E4 outcome equality and
//! byte-identical job-event streams across thread counts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod pool;
mod trace;

pub use pool::{Runtime, WorkerStats};
