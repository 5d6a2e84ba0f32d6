//! The serve-repeat workload: an in-process `mca_serve::Server` with two
//! pool threads, driven by two closed-loop client connections that draw
//! requests from `mca_serve::load::full_deck()` with the seed. After the
//! cold pass in set-up every request must be a verdict-tier hit whose
//! payload is byte-identical to that entry's cold payload.
//!
//! The traced run adds the serve layers measured from outside the
//! server — key (scenario resolve + model build + content hash), cache
//! lookup, `request::execute` on a warm cache, and the wire codec — and
//! scrapes the server's `Metrics` frame for queue wait and phase totals.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use mca_serve::request::{self, verdict_key};
use mca_serve::wire::{self, CacheDisposition, Request, Response, WireEncoding};
use mca_serve::{Client, ResultCache, Server, ServerConfig, ServerHandle};
use mca_verify::{DynamicModel, NumberEncoding};

use crate::calib;
use crate::check::Tracer;
use crate::deck::Rng;
use crate::runner::SETUP_REPS;
use crate::stats::{self, RunResult};
use crate::Args;

/// Pool threads and client connections.
const THREADS: usize = 2;

/// The payload bytes of a check or lint response, with its disposition.
fn payload(resp: &Response) -> Option<(CacheDisposition, &[u8])> {
    match resp {
        Response::Verdict { cache, payload } | Response::LintReport { cache, payload } => {
            Some((*cache, payload))
        }
        _ => None,
    }
}

/// One served request as the client saw it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Served {
    /// A verdict-tier hit byte-identical to the cold payload.
    Hit,
    /// An answer that is not a verdict-tier hit.
    NotHit,
    /// An answer whose payload differs from the cold one.
    Mismatch,
    /// An error response (refused or failed) or a transport error.
    Error,
}

/// Classifies a warm response against the entry's cold payload.
pub fn classify(resp: Result<Response, wire::WireError>, cold: &[u8]) -> Served {
    match resp {
        Err(_) | Ok(Response::Error { .. }) => Served::Error,
        Ok(r) => match payload(&r) {
            None => Served::Error,
            Some((_, bytes)) if bytes != cold => Served::Mismatch,
            Some((CacheDisposition::VerdictHit, _)) => Served::Hit,
            Some(_) => Served::NotHit,
        },
    }
}

/// Failed requests over attempted ones: everything but an identical hit.
pub fn failures(outcomes: &[Served]) -> u64 {
    outcomes.iter().filter(|o| **o != Served::Hit).count() as u64
}

/// Starts a server and walks the deck once cold, the two clients pulling
/// entries from a shared cursor. Returns the server and each entry's
/// cold payload.
fn start_warm(deck: &[Request]) -> Result<(ServerHandle, Vec<Vec<u8>>), String> {
    let server = Server::start(&ServerConfig {
        threads: THREADS,
        ..ServerConfig::default()
    })
    .map_err(|e| format!("server start: {e}"))?;
    let addr = server.addr();
    let next = AtomicUsize::new(0);
    let next = &next;
    type Payloads = Vec<(usize, Vec<u8>)>;
    let parts: Vec<Result<Payloads, String>> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                s.spawn(move || {
                    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(req) = deck.get(i) else { break };
                        let resp = client
                            .request(req)
                            .map_err(|e| format!("cold request {i}: {e:?}"))?;
                        let (_, bytes) =
                            payload(&resp).ok_or(format!("cold request {i}: {resp:?}"))?;
                        out.push((i, bytes.to_vec()));
                    }
                    Ok(out)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().unwrap_or_else(|_| Err("client panicked".into())))
            .collect()
    });
    let mut cold = vec![Vec::new(); deck.len()];
    for part in parts {
        for (i, bytes) in part? {
            cold[i] = bytes;
        }
    }
    Ok((server, cold))
}

/// One request of the measured window.
struct Sample {
    entry: usize,
    rtt: f64,
    outcome: Served,
}

/// Two closed-loop clients, each drawing deck entries from its own seeded
/// stream, until `window` has passed.
fn drive(
    addr: std::net::SocketAddr,
    deck: &[Request],
    cold: &[Vec<u8>],
    seed: u64,
    window: Duration,
) -> Result<Vec<Sample>, String> {
    let start = Instant::now();
    let per_client: Vec<Result<Vec<Sample>, String>> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS)
            .map(|k| {
                s.spawn(move || {
                    let mut rng = Rng::new(seed ^ (0x5eed_0000 + k as u64));
                    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
                    let mut out = Vec::new();
                    while start.elapsed() < window {
                        let entry = rng.below(deck.len());
                        let t = Instant::now();
                        let resp = client.request(&deck[entry]);
                        let rtt = t.elapsed().as_secs_f64();
                        out.push(Sample {
                            entry,
                            rtt,
                            outcome: classify(resp, &cold[entry]),
                        });
                    }
                    Ok(out)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().unwrap_or_else(|_| Err("client panicked".into())))
            .collect()
    });
    let mut all = Vec::new();
    for samples in per_client {
        all.extend(samples?);
    }
    Ok(all)
}

/// Length of one stretch of [`drive`] between two kernel samples.
const CHUNK: Duration = Duration::from_secs(2);

/// [`drive`] in stretches of [`CHUNK`], the clients paused for a kernel
/// sample between stretches. Round trips are scaled to the nominal speed
/// by the samples around their stretch. Returns the samples and the
/// scaled window length.
fn drive_scaled(
    addr: std::net::SocketAddr,
    deck: &[Request],
    cold: &[Vec<u8>],
    args: &Args,
    mut kernel: f64,
) -> Result<(Vec<Sample>, f64), String> {
    let start = Instant::now();
    let (mut all, mut window) = (Vec::new(), 0.0);
    for stretch in 0u64.. {
        let left = args.seconds.saturating_sub(start.elapsed());
        if left.is_zero() {
            break;
        }
        let t = Instant::now();
        let seed = args.seed.wrapping_mul(1_000_003).wrapping_add(stretch);
        let mut samples = drive(addr, deck, cold, seed, left.min(CHUNK))?;
        let secs = t.elapsed().as_secs_f64();
        let after = calib::kernel_secs();
        let scale = calib::scale(kernel, after);
        for s in &mut samples {
            s.rtt *= scale;
        }
        all.extend(samples);
        window += secs * scale;
        kernel = after;
    }
    Ok((all, window))
}

/// Logs every failed sample (first few only) and returns the count.
fn count_failures(samples: &[Sample]) -> u64 {
    let outcomes: Vec<Served> = samples.iter().map(|s| s.outcome).collect();
    for s in samples.iter().filter(|s| s.outcome != Served::Hit).take(5) {
        eprintln!(
            "perfbench: FAILED request entry {}: {:?}",
            s.entry, s.outcome
        );
    }
    failures(&outcomes)
}

/// The median over deck entries of each entry's round trips, maximised:
/// the slowest entry's typical time to verdict.
fn max_entry_median(samples: &[Sample], entries: usize) -> f64 {
    let mut per: Vec<Vec<f64>> = vec![Vec::new(); entries];
    for s in samples {
        per[s.entry].push(s.rtt);
    }
    per.iter()
        .filter_map(|xs| stats::median(xs))
        .fold(0.0, f64::max)
}

/// Runs serve-repeat and returns its result line.
pub fn run(args: &Args, process_start: Instant) -> Result<RunResult, String> {
    let deck = mca_serve::load::full_deck();
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setup_secs = Vec::with_capacity(reps);
    let mut t = process_start;
    let mut warm = None;
    let mut kernel = None;
    for rep in 0..reps {
        let (server, cold) = start_warm(&deck)?;
        let secs = t.elapsed().as_secs_f64();
        let after = calib::kernel_secs();
        setup_secs.push(secs * calib::scale(kernel.unwrap_or(after), after));
        kernel = Some(after);
        if rep + 1 < reps {
            server.join();
        } else {
            warm = Some((server, cold));
        }
        t = Instant::now();
    }
    let (server, cold) = warm.ok_or("no set-up ran")?;
    let result = if args.trace {
        run_traced(args, &deck, &server, &cold)
    } else {
        let kernel = kernel.unwrap_or(calib::NOMINAL_S);
        run_plain(args, &deck, &server, &cold, &setup_secs, kernel)
    };
    server.join();
    result
}

fn run_plain(
    args: &Args,
    deck: &[Request],
    server: &ServerHandle,
    cold: &[Vec<u8>],
    setup_secs: &[f64],
    kernel: f64,
) -> Result<RunResult, String> {
    let (samples, window) = drive_scaled(server.addr(), deck, cold, args, kernel)?;
    let failed = count_failures(&samples);
    let rtts: Vec<f64> = samples.iter().map(|s| s.rtt).collect();
    let req_per_s = stats::rate(rtts.len() as f64, window);
    eprintln!(
        "perfbench: set-ups {setup_secs:.3?} s; {} requests, p99 {:.3} ms (nominal speed)",
        rtts.len(),
        stats::percentile(&rtts, 0.99).unwrap_or(0.0) * 1e3
    );
    let values = BTreeMap::from([
        ("setup_s", stats::median(setup_secs).unwrap_or(0.0)),
        ("deck_s", stats::rate(deck.len() as f64, req_per_s)),
        ("max_check_s", max_entry_median(&samples, deck.len())),
        ("req_p50_ms", stats::median(&rtts).unwrap_or(0.0) * 1e3),
        ("req_per_s", req_per_s),
    ]);
    let metrics = stats::metrics(&stats::END_TO_END, &values);
    Ok(RunResult {
        correct: failed == 0,
        attempted: samples.len() as u64,
        failed,
        metrics,
    })
}

fn number_encoding(e: WireEncoding) -> NumberEncoding {
    match e {
        WireEncoding::Naive => NumberEncoding::NaiveInt,
        WireEncoding::Optimized => NumberEncoding::OptimizedValue,
    }
}

/// Reads every `name{labels} value` sample of a Prometheus text frame.
fn scrape(text: &str) -> BTreeMap<String, f64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (key, value) = l.rsplit_once(' ')?;
            Some((key.to_string(), value.parse().ok()?))
        })
        .collect()
}

/// One deck pass through the serve layers from outside the server, each
/// under its own span. Returns false if any answer is not an identical
/// verdict-tier hit.
fn layer_pass(deck: &[Request], cold: &[Vec<u8>], cache: &ResultCache, tracer: &Tracer) -> bool {
    let rec = &tracer.spans;
    let mut ok = true;
    for (req, cold) in deck.iter().zip(cold) {
        let (kind, spec, encoding, config) = match req {
            Request::Check {
                scenario,
                encoding,
                preprocess,
            } => (
                "check",
                scenario,
                *encoding,
                if *preprocess {
                    "default+pre"
                } else {
                    "default"
                },
            ),
            Request::Lint { scenario, encoding } => ("lint", scenario, *encoding, "default"),
            _ => continue,
        };
        let key = {
            let _s = rec.enter("serve.key");
            let Ok((_, scenario)) = request::resolve_scenario(spec) else {
                ok = false;
                continue;
            };
            let scope = scenario.scope_label();
            let model = {
                let _s = rec.enter("verify.build");
                DynamicModel::build(number_encoding(encoding), scenario)
            };
            let hash = {
                let _s = rec.enter("verify.content_hash");
                model.content_hash()
            };
            verdict_key(kind, hash, &scope, encoding, config)
        };
        {
            let _s = rec.enter("serve.lookup");
            let hit = cache.get_verdict(&key, &mut Vec::new());
            ok &= hit.is_some_and(|p| p.as_slice() == cold.as_slice());
        }
        let executed = {
            let _s = rec.enter("serve.execute");
            request::execute(req, cache)
        };
        {
            let _s = rec.enter("serve.wire");
            let req_back = wire::decode_request(&wire::encode_request(req));
            let resp_back = wire::decode_response(&wire::encode_response(&executed.response));
            ok &= req_back.as_ref() == Ok(req);
            ok &= classify(resp_back, cold) == Served::Hit;
        }
    }
    ok
}

fn run_traced(
    args: &Args,
    deck: &[Request],
    server: &ServerHandle,
    cold: &[Vec<u8>],
) -> Result<RunResult, String> {
    // Layers from outside: a private cache warmed with the same deck.
    let cache = ResultCache::new(ServerConfig::default().cache_bytes);
    for req in deck {
        request::execute(req, &cache);
    }
    let tracer = Tracer::new();
    let half = args.seconds / 2;
    let start = Instant::now();
    let mut passes: Vec<BTreeMap<String, f64>> = Vec::new();
    let mut failed = 0u64;
    while passes.is_empty() || start.elapsed() < half {
        if !layer_pass(deck, cold, &cache, &tracer) {
            failed += 1;
        }
        let mut totals = BTreeMap::new();
        for (name, secs, _) in tracer.drain() {
            *totals.entry(name).or_insert(0.0) += secs;
        }
        passes.push(totals);
    }
    let layer_passes = passes.len() as u64;
    let med = |name: &str| {
        let xs: Vec<f64> = passes
            .iter()
            .map(|p| p.get(name).copied().unwrap_or(0.0))
            .collect();
        stats::median(&xs).unwrap_or(0.0)
    };

    // The server under the same closed loop as the end-to-end run, with
    // its Metrics frame scraped before and after.
    let mut admin = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    let before = scrape(&admin.metrics().map_err(|e| format!("metrics: {e:?}"))?);
    let samples = drive(server.addr(), deck, cold, args.seed, args.seconds - half)?;
    let after = scrape(&admin.metrics().map_err(|e| format!("metrics: {e:?}"))?);
    let delta = |key: &str| after.get(key).unwrap_or(&0.0) - before.get(key).unwrap_or(&0.0);
    let phase = |p: &str| delta(&format!("mca_serve_phase_ns_total{{phase=\"{p}\"}}")) * 1e-9;
    let server_total = (delta("mca_serve_latency_ns_sum{kind=\"check\"}")
        + delta("mca_serve_latency_ns_sum{kind=\"lint\"}"))
        * 1e-9;
    let translation_lookups =
        delta("mca_serve_cache_lookups_total{tier=\"translation\",result=\"hit\"}")
            + delta("mca_serve_cache_lookups_total{tier=\"translation\",result=\"miss\"}");
    // A hit never reaches the translation tier or the solver.
    if translation_lookups != 0.0 || phase("solve") != 0.0 {
        eprintln!("perfbench: FAILED warm requests reached translate or solve");
        failed += 1;
    }
    failed += count_failures(&samples);
    let n = samples.len() as f64;
    let rtts: Vec<f64> = samples.iter().map(|s| s.rtt).collect();
    let hits = samples.iter().filter(|s| s.outcome == Served::Hit).count() as f64;
    let per_pass = |secs: f64| stats::rate(secs, n) * deck.len() as f64;
    let rtt_sum: f64 = rtts.iter().sum();
    let phases_sum: f64 = ["decode", "queue", "cache", "translate", "solve", "write"]
        .into_iter()
        .map(phase)
        .sum();
    let attempted = samples.len() as u64 + layer_passes;
    eprintln!(
        "perfbench: {layer_passes} layer passes; server phases (s, whole window): decode {:.3} \
         queue {:.3} cache {:.3} translate {:.3} solve {:.3} write {:.3}; server total {:.3} of \
         client round trips {:.3}",
        phase("decode"),
        phase("queue"),
        phase("cache"),
        phase("translate"),
        phase("solve"),
        phase("write"),
        server_total,
        rtt_sum
    );

    let key_s = med("serve.key");
    let execute_s = med("serve.execute");
    let values = BTreeMap::from([
        ("verify.build_s", med("verify.build")),
        ("verify.content_hash_s", med("verify.content_hash")),
        ("serve.key_s", key_s),
        ("serve.lookup_s", med("serve.lookup")),
        ("serve.execute_s", execute_s),
        ("serve.wire_s", med("serve.wire")),
        ("serve.hit_ratio", stats::rate(hits, n)),
        (
            "serve.req_p99_ms",
            stats::percentile(&rtts, 0.99).unwrap_or(0.0) * 1e3,
        ),
        ("serve.samples", n),
        ("serve.server_frac", stats::rate(server_total, rtt_sum)),
        ("runtime.queue_wait_s", per_pass(phase("queue"))),
        ("share.key", stats::rate(key_s, execute_s)),
        ("other_s", per_pass(rtt_sum - phases_sum)),
        ("other_max_frac", stats::rate(rtt_sum - phases_sum, rtt_sum)),
        ("failed_frac", stats::failed_frac(attempted, failed)),
        ("passes", layer_passes as f64),
        ("peak_rss_mb", stats::peak_rss_mb()),
    ]);
    let metrics = stats::metrics(&stats::PER_LAYER, &values);
    Ok(RunResult {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mca_serve::wire::ScenarioSpec;

    fn check(scenario: ScenarioSpec) -> Request {
        Request::Check {
            scenario,
            encoding: WireEncoding::Optimized,
            preprocess: false,
        }
    }

    #[test]
    fn only_identical_verdict_hits_pass() {
        let cold = b"{\"valid\":true}".to_vec();
        let verdict = |cache| {
            Ok(Response::Verdict {
                cache,
                payload: cold.clone(),
            })
        };
        assert_eq!(
            classify(verdict(CacheDisposition::VerdictHit), &cold),
            Served::Hit
        );
        assert_eq!(
            classify(verdict(CacheDisposition::Miss), &cold),
            Served::NotHit
        );
        assert_eq!(
            classify(verdict(CacheDisposition::TranslationHit), &cold),
            Served::NotHit
        );
        assert_eq!(
            classify(verdict(CacheDisposition::VerdictHit), b"{}"),
            Served::Mismatch
        );
        assert_eq!(classify(Ok(Response::Pong), &cold), Served::Error);
    }

    /// A request the server refuses and one that dies in transport both
    /// count as failed, as do wrong payloads.
    #[test]
    fn refused_and_errored_requests_count_as_failures() {
        let server = Server::start(&ServerConfig::default()).expect("server starts");
        let mut client = Client::connect(server.addr()).expect("connects");
        let good = check(ScenarioSpec::Named("two_agent_compliant".into()));
        let cold_resp = client.request(&good).expect("cold answer");
        let cold = payload(&cold_resp).expect("verdict").1.to_vec();
        let mut outcomes = vec![classify(client.request(&good), &cold)];
        // Out of the accepted scope range: refused with an error frame.
        let refused = check(ScenarioSpec::AtScope {
            pnodes: 9,
            vnodes: 1,
        });
        outcomes.push(classify(client.request(&refused), &cold));
        // Another scenario's answer is not this entry's payload.
        let other = check(ScenarioSpec::Named("two_agent_rebid_attack".into()));
        outcomes.push(classify(client.request(&other), &cold));
        server.join();
        // The server is gone: a transport error.
        outcomes.push(classify(client.request(&good), &cold));
        assert_eq!(
            outcomes,
            [Served::Hit, Served::Error, Served::Mismatch, Served::Error]
        );
        assert_eq!(failures(&outcomes), 3);
        assert_eq!(stats::failed_frac(4, failures(&outcomes)), 0.75);
    }

    #[test]
    fn metrics_frames_scrape_by_full_sample_name() {
        let text = "# TYPE x counter\nmca_serve_phase_ns_total{phase=\"queue\"} 1500\nup 1\n";
        let m = scrape(text);
        assert_eq!(m["mca_serve_phase_ns_total{phase=\"queue\"}"], 1500.0);
        assert_eq!(m["up"], 1.0);
        assert_eq!(m.len(), 2);
    }
}
