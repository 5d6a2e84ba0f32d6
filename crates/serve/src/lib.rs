//! mca-serve: verification as a service.
//!
//! A small TCP daemon that accepts consensus-validity check and lint
//! requests over a length-prefixed binary protocol, executes each one on
//! the connection thread that read it (at most `threads` at once), and
//! memoizes finished response payloads in a content-addressed cache
//! keyed by `(model-hash, scope, encoding, solver-config)`. A hit skips
//! translation *and* solving; a miss builds, translates and solves.
//!
//! Model hashes are FNV-1a 64 over the canonical Alloy source rendering,
//! so two requests hit the same cache line exactly when they denote the
//! same model at the same scope. The cache memoizes each resolved spec's
//! model hash (at most 28 specs are accepted), so a warm hit builds no
//! model; a request builds one only when it must translate or lint.
//! Responses are deterministic and byte-identical whether computed cold,
//! served from cache, or produced by a server with a different `threads`
//! setting — pinned by tests.
//!
//! The crate also contains the [`client`] library (same wire module as
//! the server, so they cannot drift) and the [`load`] generator behind
//! `repro load`, which writes BENCH_SERVE.json.
//!
//! Graceful shutdown is a wire frame ([`wire::Request::Shutdown`]), not
//! a signal: the workspace forbids `unsafe`, which rules out signal
//! handlers, and a protocol-level shutdown is testable from plain
//! integration tests anyway. On shutdown the server drains in-flight
//! requests, flushes counters, and exits cleanly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod load;
pub mod request;
pub mod server;
pub mod telemetry;
pub mod wire;

pub use cache::{CacheStats, ResultCache};
pub use client::Client;
pub use load::{run_load, KindStats, LoadConfig, LoadOutcome, PhaseStats};
pub use server::{Server, ServerConfig, ServerHandle, ServerReport};
pub use telemetry::{RequestRecord, ServiceTelemetry, TelemetryConfig};
pub use wire::{CacheDisposition, Request, Response, ScenarioSpec, WireEncoding, WireError};
