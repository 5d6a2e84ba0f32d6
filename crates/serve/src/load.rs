//! The load generator behind `repro load`.
//!
//! Drives a running server through three phases and reports
//! service-level statistics:
//!
//! 1. **cold** — one client walks the request deck once, sequentially.
//!    First contact with every distinct request: genuine translate+solve
//!    work, the expensive baseline.
//! 2. **mixed** — `clients` concurrent connections race through
//!    `mixed_requests` requests round-robin over the same deck. Almost
//!    everything hits the verdict cache; the phase measures the server
//!    under concurrent load.
//! 3. **warm** — same shape again; by now every deck entry is cached,
//!    so the phase isolates pure cache-serving latency. The acceptance
//!    gate compares its p50 against the cold phase's.
//!
//! The deck mixes E3-style dynamic checks (both encodings, the Remark-1
//! rebid attack), E8-smoke parametric scopes, preprocessed variants
//! (their own cache lines), and lint requests — the mixed
//! concurrent traffic the ROADMAP's service item calls for.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use mca_obs::Json;

use crate::client::Client;
use crate::wire::{Request, Response, ScenarioSpec, WireEncoding};

/// Load-run parameters.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// Address of the server to drive.
    pub addr: String,
    /// Concurrent client connections in the mixed/warm phases.
    pub clients: usize,
    /// Requests in the mixed phase.
    pub mixed_requests: usize,
    /// Requests in the warm phase.
    pub warm_requests: usize,
    /// Use the small cheap deck (CI smoke) instead of the full one.
    pub smoke: bool,
}

impl Default for LoadConfig {
    fn default() -> LoadConfig {
        LoadConfig {
            addr: "127.0.0.1:7117".to_string(),
            clients: 8,
            mixed_requests: 200,
            warm_requests: 200,
            smoke: false,
        }
    }
}

/// Per-phase service statistics.
#[derive(Clone, Debug)]
pub struct PhaseStats {
    /// `"cold"`, `"mixed"`, or `"warm"`.
    pub phase: &'static str,
    /// Requests issued.
    pub requests: u64,
    /// Transport failures plus server error responses.
    pub errors: u64,
    /// Responses served from the cache.
    pub hits: u64,
    /// Wall clock for the whole phase.
    pub total_secs: f64,
    /// `requests / total_secs`.
    pub throughput_rps: f64,
    /// Median per-request latency.
    pub p50_secs: f64,
    /// 90th-percentile per-request latency.
    pub p90_secs: f64,
    /// 99th-percentile per-request latency.
    pub p99_secs: f64,
    /// 99.9th-percentile per-request latency.
    pub p999_secs: f64,
    /// Latency breakdown by request kind (`"check"`, `"lint"`, …),
    /// sorted by label.
    pub by_kind: Vec<KindStats>,
}

/// Latency statistics for one request kind within a phase.
///
/// The JSON rendering keys the kind under `"label"` so `repro diff`
/// aligns entries by kind across runs (its alignment keys include
/// `label` but not `kind`).
#[derive(Clone, Debug)]
pub struct KindStats {
    /// The wire request kind, e.g. `"check"` or `"lint"`.
    pub label: &'static str,
    /// Requests of this kind issued in the phase.
    pub requests: u64,
    /// Errors among them.
    pub errors: u64,
    /// Cache hits among them.
    pub hits: u64,
    /// Median latency for this kind.
    pub p50_secs: f64,
    /// 99th-percentile latency for this kind.
    pub p99_secs: f64,
}

/// The finished run.
#[derive(Clone, Debug)]
pub struct LoadOutcome {
    /// Phase statistics in execution order.
    pub phases: Vec<PhaseStats>,
    /// Requests across all phases.
    pub total_requests: u64,
    /// Errors across all phases.
    pub total_errors: u64,
    /// Cache hits across all phases.
    pub total_hits: u64,
    /// `total_hits / total_requests` (0 when no requests ran).
    pub hit_rate: f64,
    /// The server's final `Stats` payload (JSON text), fetched after the
    /// last phase.
    pub server_stats: String,
}

/// The full mixed deck: every shipped E3/E4 scenario, both encodings,
/// preprocessed variants, E8-smoke scopes, and lint targets. Cold cost
/// is a few seconds (dominated by the naive-encoding entry); everything
/// repeats from cache afterwards.
pub fn full_deck() -> Vec<Request> {
    let opt = WireEncoding::Optimized;
    let naive = WireEncoding::Naive;
    let named = |s: &str| ScenarioSpec::Named(s.to_string());
    vec![
        Request::Check {
            scenario: named("two_agent_compliant"),
            encoding: opt,
            preprocess: false,
        },
        Request::Check {
            scenario: named("two_agent_compliant"),
            encoding: opt,
            preprocess: true,
        },
        Request::Check {
            scenario: named("two_agent_compliant"),
            encoding: naive,
            preprocess: false,
        },
        Request::Check {
            scenario: named("two_agent_rebid_attack"),
            encoding: opt,
            preprocess: false,
        },
        Request::Check {
            scenario: named("two_agent_rebid_attack"),
            encoding: opt,
            preprocess: true,
        },
        Request::Check {
            scenario: named("three_agent_line_compliant"),
            encoding: opt,
            preprocess: false,
        },
        Request::Check {
            scenario: named("paper_scope"),
            encoding: opt,
            preprocess: false,
        },
        Request::Check {
            scenario: named("paper_scope_sound"),
            encoding: opt,
            preprocess: false,
        },
        Request::Check {
            scenario: ScenarioSpec::AtScope {
                pnodes: 2,
                vnodes: 2,
            },
            encoding: opt,
            preprocess: false,
        },
        Request::Check {
            scenario: ScenarioSpec::AtScope {
                pnodes: 2,
                vnodes: 2,
            },
            encoding: opt,
            preprocess: true,
        },
        Request::Check {
            scenario: ScenarioSpec::AtScope {
                pnodes: 3,
                vnodes: 2,
            },
            encoding: opt,
            preprocess: false,
        },
        Request::Lint {
            scenario: named("two_agent_compliant"),
            encoding: opt,
        },
        Request::Lint {
            scenario: named("two_agent_rebid_attack"),
            encoding: opt,
        },
        Request::Lint {
            scenario: ScenarioSpec::AtScope {
                pnodes: 2,
                vnodes: 2,
            },
            encoding: naive,
        },
    ]
}

/// The cheap CI deck: optimized-encoding two-agent scenarios and one
/// lint target only — every entry solves in well under a second cold.
pub fn smoke_deck() -> Vec<Request> {
    let opt = WireEncoding::Optimized;
    let named = |s: &str| ScenarioSpec::Named(s.to_string());
    vec![
        Request::Check {
            scenario: named("two_agent_compliant"),
            encoding: opt,
            preprocess: false,
        },
        Request::Check {
            scenario: named("two_agent_compliant"),
            encoding: opt,
            preprocess: true,
        },
        Request::Check {
            scenario: named("two_agent_rebid_attack"),
            encoding: opt,
            preprocess: false,
        },
        Request::Check {
            scenario: ScenarioSpec::AtScope {
                pnodes: 2,
                vnodes: 2,
            },
            encoding: opt,
            preprocess: false,
        },
        Request::Lint {
            scenario: named("two_agent_compliant"),
            encoding: opt,
        },
    ]
}

struct Sample {
    kind: &'static str,
    latency: Duration,
    hit: bool,
    error: bool,
}

fn issue(client: &mut Client, req: &Request) -> Sample {
    let kind = req.kind();
    let start = Instant::now();
    let outcome = client.request(req);
    let latency = start.elapsed();
    match outcome {
        Ok(Response::Verdict { cache, .. }) | Ok(Response::LintReport { cache, .. }) => Sample {
            kind,
            latency,
            hit: cache.is_hit(),
            error: false,
        },
        Ok(Response::Error { .. }) | Err(_) => Sample {
            kind,
            latency,
            hit: false,
            error: true,
        },
        Ok(_) => Sample {
            kind,
            latency,
            hit: false,
            error: false,
        },
    }
}

fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64) * pct / 100.0).floor() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn kind_stats(samples: &[Sample]) -> Vec<KindStats> {
    let mut by_kind: std::collections::BTreeMap<&'static str, Vec<&Sample>> =
        std::collections::BTreeMap::new();
    for s in samples {
        by_kind.entry(s.kind).or_default().push(s);
    }
    by_kind
        .into_iter()
        .map(|(label, group)| {
            let mut latencies: Vec<f64> = group.iter().map(|s| s.latency.as_secs_f64()).collect();
            latencies.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
            KindStats {
                label,
                requests: group.len() as u64,
                errors: group.iter().filter(|s| s.error).count() as u64,
                hits: group.iter().filter(|s| s.hit).count() as u64,
                p50_secs: percentile(&latencies, 50.0),
                p99_secs: percentile(&latencies, 99.0),
            }
        })
        .collect()
}

fn phase_stats(phase: &'static str, samples: &[Sample], total: Duration) -> PhaseStats {
    let mut latencies: Vec<f64> = samples.iter().map(|s| s.latency.as_secs_f64()).collect();
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let total_secs = total.as_secs_f64();
    let requests = samples.len() as u64;
    PhaseStats {
        phase,
        requests,
        errors: samples.iter().filter(|s| s.error).count() as u64,
        hits: samples.iter().filter(|s| s.hit).count() as u64,
        total_secs,
        throughput_rps: if total_secs > 0.0 {
            requests as f64 / total_secs
        } else {
            0.0
        },
        p50_secs: percentile(&latencies, 50.0),
        p90_secs: percentile(&latencies, 90.0),
        p99_secs: percentile(&latencies, 99.0),
        p999_secs: percentile(&latencies, 99.9),
        by_kind: kind_stats(samples),
    }
}

/// Runs the concurrent phase: `clients` workers, each with its own
/// connection, pulling request indices from a shared counter.
fn concurrent_phase(
    phase: &'static str,
    addr: &str,
    deck: &[Request],
    clients: usize,
    requests: usize,
) -> std::io::Result<PhaseStats> {
    let counter = AtomicUsize::new(0);
    let start = Instant::now();
    let samples: Vec<Sample> = std::thread::scope(|scope| {
        let counter = &counter;
        let handles: Vec<_> = (0..clients.max(1))
            .map(|_| {
                scope.spawn(move || -> std::io::Result<Vec<Sample>> {
                    let mut client = Client::connect_retry(addr, 20, Duration::from_millis(50))?;
                    let mut samples = Vec::new();
                    loop {
                        let i = counter.fetch_add(1, Ordering::Relaxed);
                        if i >= requests {
                            break;
                        }
                        samples.push(issue(&mut client, &deck[i % deck.len()]));
                    }
                    Ok(samples)
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("load worker panicked").unwrap_or_default())
            .collect()
    });
    Ok(phase_stats(phase, &samples, start.elapsed()))
}

/// Runs the three phases against `cfg.addr` and fetches the server's
/// final counters.
///
/// # Errors
///
/// Connection failures (the per-request errors inside a phase are
/// *counted*, not propagated — a load run survives individual failures).
pub fn run_load(cfg: &LoadConfig) -> std::io::Result<LoadOutcome> {
    let deck = if cfg.smoke { smoke_deck() } else { full_deck() };

    // Phase 1: cold walk of the deck, one client, sequential.
    let mut client = Client::connect_retry(&cfg.addr as &str, 40, Duration::from_millis(100))?;
    let start = Instant::now();
    let cold_samples: Vec<Sample> = deck.iter().map(|req| issue(&mut client, req)).collect();
    let cold = phase_stats("cold", &cold_samples, start.elapsed());
    drop(client);

    // Phases 2 and 3: concurrent mixed traffic, then a fully-warm repeat.
    let mixed = concurrent_phase("mixed", &cfg.addr, &deck, cfg.clients, cfg.mixed_requests)?;
    let warm = concurrent_phase("warm", &cfg.addr, &deck, cfg.clients, cfg.warm_requests)?;

    let mut client = Client::connect_retry(&cfg.addr as &str, 10, Duration::from_millis(50))?;
    let server_stats = client
        .stats()
        .map_err(|e| std::io::Error::other(format!("stats request failed: {e}")))?;
    drop(client);

    let phases = vec![cold, mixed, warm];
    let total_requests: u64 = phases.iter().map(|p| p.requests).sum();
    let total_errors: u64 = phases.iter().map(|p| p.errors).sum();
    let total_hits: u64 = phases.iter().map(|p| p.hits).sum();
    Ok(LoadOutcome {
        hit_rate: if total_requests > 0 {
            total_hits as f64 / total_requests as f64
        } else {
            0.0
        },
        phases,
        total_requests,
        total_errors,
        total_hits,
        server_stats,
    })
}

impl KindStats {
    /// The kind breakdown as a BENCH JSON object (keyed by `"label"` so
    /// `repro diff` aligns entries across runs).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("label", self.label.into()),
            ("requests", self.requests.into()),
            ("errors", self.errors.into()),
            ("cache_hits", self.hits.into()),
            ("p50_secs", self.p50_secs.into()),
            ("p99_secs", self.p99_secs.into()),
        ])
    }
}

impl PhaseStats {
    /// The phase as a BENCH JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("phase", self.phase.into()),
            ("requests", self.requests.into()),
            ("errors", self.errors.into()),
            ("cache_hits", self.hits.into()),
            ("total_secs", self.total_secs.into()),
            ("throughput_rps", self.throughput_rps.into()),
            ("p50_secs", self.p50_secs.into()),
            ("p90_secs", self.p90_secs.into()),
            ("p99_secs", self.p99_secs.into()),
            ("p999_secs", self.p999_secs.into()),
            (
                "by_kind",
                Json::Array(self.by_kind.iter().map(KindStats::to_json).collect()),
            ),
        ])
    }
}

impl LoadOutcome {
    /// The whole run as the BENCH_SERVE document body (the `repro load`
    /// driver adds the resource footer).
    pub fn to_json(&self, cfg: &LoadConfig) -> Json {
        let server = Json::parse(&self.server_stats).unwrap_or(Json::Null);
        Json::obj([
            ("benchmark", "serve-load".into()),
            (
                "config",
                Json::obj([
                    ("clients", cfg.clients.into()),
                    ("mixed_requests", cfg.mixed_requests.into()),
                    ("warm_requests", cfg.warm_requests.into()),
                    ("smoke", cfg.smoke.into()),
                    (
                        "deck_size",
                        if cfg.smoke {
                            smoke_deck().len().into()
                        } else {
                            full_deck().len().into()
                        },
                    ),
                ]),
            ),
            (
                "phases",
                Json::Array(self.phases.iter().map(PhaseStats::to_json).collect()),
            ),
            (
                "totals",
                Json::obj([
                    ("requests", self.total_requests.into()),
                    ("errors", self.total_errors.into()),
                    ("cache_hits", self.total_hits.into()),
                    ("hit_rate", self.hit_rate.into()),
                ]),
            ),
            ("server", server),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decks_are_mixed_and_bounded() {
        let full = full_deck();
        let smoke = smoke_deck();
        assert!(full.len() >= 10);
        assert!(smoke.len() >= 4 && smoke.len() <= full.len());
        for deck in [&full, &smoke] {
            assert!(deck.iter().any(|r| matches!(r, Request::Check { .. })));
            assert!(deck.iter().any(|r| matches!(r, Request::Lint { .. })));
            assert!(deck.iter().any(|r| matches!(
                r,
                Request::Check {
                    preprocess: true,
                    ..
                }
            )));
        }
        // The full deck exercises both encodings and a parametric scope.
        assert!(full.iter().any(|r| matches!(
            r,
            Request::Check {
                encoding: WireEncoding::Naive,
                ..
            }
        )));
        assert!(full.iter().any(|r| matches!(
            r,
            Request::Check {
                scenario: ScenarioSpec::AtScope { .. },
                ..
            }
        )));
    }

    #[test]
    fn percentiles_are_order_statistics() {
        let sorted = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0];
        assert!((percentile(&sorted, 50.0) - 0.6).abs() < 1e-12);
        assert!((percentile(&sorted, 90.0) - 1.0).abs() < 1e-12);
        assert!((percentile(&sorted, 99.0) - 1.0).abs() < 1e-12);
        assert!((percentile(&sorted, 99.9) - 1.0).abs() < 1e-12);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn kind_breakdown_groups_by_label_sorted() {
        let ms = |n: u64| Duration::from_millis(n);
        let samples = vec![
            Sample {
                kind: "lint",
                latency: ms(5),
                hit: false,
                error: false,
            },
            Sample {
                kind: "check",
                latency: ms(10),
                hit: true,
                error: false,
            },
            Sample {
                kind: "check",
                latency: ms(30),
                hit: false,
                error: true,
            },
        ];
        let stats = kind_stats(&samples);
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].label, "check");
        assert_eq!(stats[0].requests, 2);
        assert_eq!(stats[0].hits, 1);
        assert_eq!(stats[0].errors, 1);
        assert_eq!(stats[1].label, "lint");
        assert_eq!(stats[1].requests, 1);
        // The breakdown keys its JSON by "label", the diff alignment key.
        let json = stats[0].to_json().render();
        assert!(json.starts_with("{\"label\":\"check\""), "{json}");
    }

    #[test]
    fn phase_json_carries_tail_percentiles_and_breakdown() {
        let samples = vec![
            Sample {
                kind: "check",
                latency: Duration::from_millis(2),
                hit: true,
                error: false,
            },
            Sample {
                kind: "lint",
                latency: Duration::from_millis(8),
                hit: false,
                error: false,
            },
        ];
        let stats = phase_stats("warm", &samples, Duration::from_millis(10));
        let json = stats.to_json().render();
        for needle in [
            "\"p90_secs\":",
            "\"p999_secs\":",
            "\"by_kind\":[{\"label\":\"check\"",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
        assert!(stats.p90_secs <= stats.p999_secs);
    }
}
