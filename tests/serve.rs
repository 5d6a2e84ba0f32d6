//! End-to-end tests of the mca-serve daemon: protocol round trips,
//! cache correctness (the acceptance pin: responses are byte-identical
//! cold, cached, and across server worker counts), eviction under a tiny
//! byte budget, and malformed-frame robustness (the server answers with
//! a protocol error and keeps serving — never panics, never hangs).

use std::collections::{BTreeMap, BTreeSet};
use std::io::ErrorKind;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mca_obs::{Event, Json};
use mca_serve::request;
use mca_serve::wire::{encode_request, error_code, write_frame};
use mca_serve::{
    CacheDisposition, Client, Request, Response, ResultCache, ScenarioSpec, Server, ServerConfig,
    WireEncoding, WireError,
};
use mca_verify::{DynamicModel, NumberEncoding};

fn start(threads: usize, cache_bytes: usize) -> mca_serve::ServerHandle {
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads,
        cache_bytes,
        read_timeout: Duration::from_secs(2),
        ..ServerConfig::default()
    };
    Server::start(&config).expect("bind on a free port")
}

fn connect(handle: &mca_serve::ServerHandle) -> Client {
    let mut client = Client::connect(handle.addr()).expect("connect to test server");
    client
        .set_read_timeout(Some(Duration::from_secs(300)))
        .expect("set client timeout");
    client
}

fn named(name: &str) -> ScenarioSpec {
    ScenarioSpec::Named(name.to_string())
}

#[test]
fn ping_stats_and_shutdown_round_trip() {
    let handle = start(1, 1 << 20);
    let mut client = connect(&handle);
    client.ping().expect("ping");
    let stats = client.stats().expect("stats");
    assert!(stats.contains("\"requests\""), "stats is JSON: {stats}");
    assert!(
        stats.contains("\"cache\""),
        "stats has cache block: {stats}"
    );
    client.shutdown_server().expect("shutdown acknowledged");
    let report = handle.join();
    assert_eq!(report.responses_err, 0);
    assert!(report.requests >= 3);
}

/// The acceptance pin: one request's payload is byte-identical whether
/// computed cold, served from cache, or computed by a different server
/// with a different worker count.
#[test]
fn payload_is_byte_identical_cold_cached_and_across_thread_counts() {
    let handle = start(1, 32 << 20);
    let mut client = connect(&handle);
    let (cold_disp, cold) = client
        .check(
            named("two_agent_rebid_attack"),
            WireEncoding::Optimized,
            false,
        )
        .expect("cold check");
    assert_eq!(cold_disp, CacheDisposition::Miss);
    let (warm_disp, warm) = client
        .check(
            named("two_agent_rebid_attack"),
            WireEncoding::Optimized,
            false,
        )
        .expect("cached check");
    assert_eq!(warm_disp, CacheDisposition::VerdictHit);
    assert_eq!(cold, warm, "cached payload must be byte-identical");
    handle.join();

    let handle4 = start(4, 32 << 20);
    let mut client4 = connect(&handle4);
    let (disp4, fresh4) = client4
        .check(
            named("two_agent_rebid_attack"),
            WireEncoding::Optimized,
            false,
        )
        .expect("4-thread check");
    assert_eq!(disp4, CacheDisposition::Miss);
    assert_eq!(
        cold, fresh4,
        "payload must not depend on the server's worker count"
    );
    handle4.join();

    let text = String::from_utf8(cold).expect("verdict payload is UTF-8 JSON");
    assert!(
        text.contains("\"valid\":false"),
        "rebid attack violates consensus: {text}"
    );
    assert!(
        !text.contains("secs"),
        "payloads carry no wall-clock fields: {text}"
    );
}

#[test]
fn cache_misses_on_scope_encoding_and_config_and_hits_on_repeats() {
    let handle = start(2, 64 << 20);
    let mut client = connect(&handle);
    // Four distinct cache lines: base, other encoding, other scope,
    // other solver config.
    let variants: [(ScenarioSpec, WireEncoding, bool); 4] = [
        (
            ScenarioSpec::AtScope {
                pnodes: 2,
                vnodes: 2,
            },
            WireEncoding::Optimized,
            false,
        ),
        (
            ScenarioSpec::AtScope {
                pnodes: 2,
                vnodes: 2,
            },
            WireEncoding::Naive,
            false,
        ),
        (
            ScenarioSpec::AtScope {
                pnodes: 2,
                vnodes: 3,
            },
            WireEncoding::Optimized,
            false,
        ),
        (
            ScenarioSpec::AtScope {
                pnodes: 2,
                vnodes: 2,
            },
            WireEncoding::Optimized,
            true,
        ),
    ];
    let mut payloads = Vec::new();
    for (scenario, encoding, preprocess) in variants.iter().cloned() {
        let (disp, payload) = client.check(scenario, encoding, preprocess).expect("check");
        // The preprocessed 2x2 variant is a cache line of its own.
        assert_ne!(
            disp,
            CacheDisposition::VerdictHit,
            "variants must not share verdicts"
        );
        payloads.push(payload);
    }
    for (i, a) in payloads.iter().enumerate() {
        for b in payloads.iter().skip(i + 1) {
            assert_ne!(a, b, "distinct cache lines carry distinct payloads");
        }
    }
    // Every repeat is a verdict hit, byte-identical to its cold run.
    for (i, (scenario, encoding, preprocess)) in variants.iter().cloned().enumerate() {
        let (disp, payload) = client
            .check(scenario, encoding, preprocess)
            .expect("repeat");
        assert_eq!(disp, CacheDisposition::VerdictHit);
        assert_eq!(payload, payloads[i]);
    }
    let report = handle.join();
    assert_eq!(report.cache.verdict_hits, 4);
    assert_eq!(report.cache.verdict_misses, 4);
}

/// Every shipped E3/E4 scenario: the cached response equals the cold one.
#[test]
fn every_shipped_scenario_hits_byte_identical() {
    let handle = start(2, 64 << 20);
    let mut client = connect(&handle);
    for name in [
        "two_agent_compliant",
        "two_agent_rebid_attack",
        "three_agent_line_compliant",
        "paper_scope",
        "paper_scope_sound",
    ] {
        let (cold_disp, cold) = client
            .check(named(name), WireEncoding::Optimized, false)
            .expect("cold check");
        assert_eq!(cold_disp, CacheDisposition::Miss, "{name}");
        let (warm_disp, warm) = client
            .check(named(name), WireEncoding::Optimized, false)
            .expect("cached check");
        assert_eq!(warm_disp, CacheDisposition::VerdictHit, "{name}");
        assert_eq!(cold, warm, "{name}: cached payload differs from cold");
    }
    handle.join();
}

/// Under a starvation-level byte budget the cache evicts constantly but
/// verdicts stay correct and byte-identical. The lint entry covers the
/// other request kind's recompute path: its model hash stays memoized,
/// so only the evicted report forces a model build.
#[test]
fn eviction_under_tiny_budget_stays_verdict_correct() {
    // ~1 KiB: less than the deck's four payloads together (~1.4 KiB
    // with keys), so walking the deck in order evicts on every round.
    let handle = start(2, 1 << 10);
    let mut client = connect(&handle);
    let check = |scenario| Request::Check {
        scenario,
        encoding: WireEncoding::Optimized,
        preprocess: false,
    };
    let deck = [
        check(named("two_agent_compliant")),
        check(named("two_agent_rebid_attack")),
        check(ScenarioSpec::AtScope {
            pnodes: 2,
            vnodes: 2,
        }),
        Request::Lint {
            scenario: named("two_agent_compliant"),
            encoding: WireEncoding::Optimized,
        },
    ];
    // The response kind must match the request kind: a check answered
    // with a lint report (or the reverse) fails here, not as a baseline.
    let mut payload = |req: &Request| match (req, client.request(req).expect("transport ok")) {
        (Request::Check { .. }, Response::Verdict { payload, .. })
        | (Request::Lint { .. }, Response::LintReport { payload, .. }) => payload,
        (_, other) => panic!("expected the matching payload for {req:?}, got {other:?}"),
    };
    let baseline: Vec<Vec<u8>> = deck.iter().map(&mut payload).collect();
    // Two more rounds: whatever got evicted is recomputed, and must be
    // byte-identical either way.
    for _ in 0..2 {
        for (i, req) in deck.iter().enumerate() {
            assert_eq!(
                payload(req),
                baseline[i],
                "deck entry {i} changed under eviction"
            );
        }
    }
    let report = handle.join();
    assert!(
        report.cache.evictions > 0,
        "a 1 KiB budget must evict; stats: {:?}",
        report.cache
    );
}

/// The model-hash memo is keyed by spec, not by content, so it must agree
/// with a fresh `DynamicModel::build(..).content_hash()` for every spec
/// the server accepts: 5 names and 9 scopes in 2 encodings. Each pair's
/// verdict key is seeded under its fresh hash with a stand-in payload
/// naming that hash, so the test solves no real model; a request finds
/// that payload only through the hash it memoized.
#[test]
fn memoized_model_hash_matches_a_fresh_build_for_every_accepted_spec() {
    let encodings = [
        (WireEncoding::Naive, NumberEncoding::NaiveInt),
        (WireEncoding::Optimized, NumberEncoding::OptimizedValue),
    ];
    let check = |scenario: &ScenarioSpec, encoding| Request::Check {
        scenario: scenario.clone(),
        encoding,
        preprocess: false,
    };
    let cache = ResultCache::new(64 << 20);
    let mut specs: Vec<ScenarioSpec> = [
        "two_agent_compliant",
        "two_agent_rebid_attack",
        "three_agent_line_compliant",
        "paper_scope",
        "paper_scope_sound",
    ]
    .into_iter()
    .map(named)
    .collect();
    for pnodes in 2..=4 {
        for vnodes in 1..=3 {
            specs.push(ScenarioSpec::AtScope { pnodes, vnodes });
        }
    }
    let mut hashes = BTreeSet::new();
    for spec in &specs {
        for (encoding, number) in encodings {
            let (label, scenario) = request::resolve_scenario(spec).expect("accepted spec");
            let scope = scenario.scope_label();
            let fresh = DynamicModel::build(number, scenario).content_hash();
            hashes.insert(fresh);
            let key = request::verdict_key("check", fresh, &scope, encoding, "default");
            let stand_in = format!("{{\"model_hash\":\"{fresh:016x}\"}}").into_bytes();
            cache.put_verdict(&key, Arc::new(stand_in.clone()), &mut Vec::new());

            let first = request::execute(&check(spec, encoding), &cache);
            assert_eq!(
                first.disposition,
                Some(CacheDisposition::VerdictHit),
                "{label}/{encoding:?}: the memoized hash missed the seeded payload"
            );
            assert_eq!(first.cache_key, key);
            let Response::Verdict { payload, .. } = &first.response else {
                panic!("expected a verdict, got {:?}", first.response);
            };
            assert_eq!(payload, &stand_in);
            assert_eq!(cache.model_hash(&label, encoding), Some(fresh));

            let warm = request::execute(&check(spec, encoding), &cache);
            assert_eq!(warm.disposition, Some(CacheDisposition::VerdictHit));
            assert_eq!(warm.cache_key, key);
            assert_eq!(warm.translate_ns, 0, "{label}: a warm hit built the model");
        }
    }
    assert_eq!(
        hashes.len(),
        28,
        "every accepted pair denotes its own model"
    );
    assert_eq!(cache.model_hash_count(), 28);

    // Rejected specs never reach the memo, through either request kind.
    let rejected = [
        named("no_such_scenario"),
        ScenarioSpec::AtScope {
            pnodes: 1,
            vnodes: 1,
        },
        ScenarioSpec::AtScope {
            pnodes: 9,
            vnodes: 1,
        },
        ScenarioSpec::AtScope {
            pnodes: 2,
            vnodes: 0,
        },
    ];
    for spec in &rejected {
        for (encoding, _) in encodings {
            let lint = Request::Lint {
                scenario: spec.clone(),
                encoding,
            };
            for req in [check(spec, encoding), lint] {
                let executed = request::execute(&req, &cache);
                assert!(
                    matches!(
                        executed.response,
                        Response::Error {
                            code: error_code::UNKNOWN_SCENARIO,
                            ..
                        }
                    ),
                    "{req:?} must be refused, got {:?}",
                    executed.response
                );
            }
        }
    }
    assert_eq!(cache.model_hash_count(), 28);
}

#[test]
fn unknown_scenarios_and_oversized_scopes_are_errors_not_hangs() {
    let handle = start(1, 1 << 20);
    let mut client = connect(&handle);
    match client
        .request(&Request::Check {
            scenario: named("no_such_scenario"),
            encoding: WireEncoding::Optimized,
            preprocess: false,
        })
        .expect("transport ok")
    {
        Response::Error { code, message } => {
            assert_eq!(code, error_code::UNKNOWN_SCENARIO, "{message}");
        }
        other => panic!("expected error, got {other:?}"),
    }
    match client
        .request(&Request::Check {
            scenario: ScenarioSpec::AtScope {
                pnodes: 40,
                vnodes: 30,
            },
            encoding: WireEncoding::Optimized,
            preprocess: false,
        })
        .expect("transport ok")
    {
        Response::Error { code, .. } => assert_eq!(code, error_code::UNKNOWN_SCENARIO),
        other => panic!("expected error, got {other:?}"),
    }
    // The connection survives body-level errors.
    client.ping().expect("connection still serves after errors");
    handle.join();
}

#[test]
fn malformed_frames_get_protocol_errors_and_the_server_keeps_serving() {
    let handle = start(1, 1 << 20);

    // Bad protocol version: body-level error, connection survives.
    let mut client = connect(&handle);
    match client.request_raw(&[99, 0x01]).expect("transport ok") {
        Response::Error { code, .. } => assert_eq!(code, error_code::BAD_VERSION),
        other => panic!("expected bad-version error, got {other:?}"),
    }
    // Unknown request tag: same.
    match client.request_raw(&[1, 0x7F]).expect("transport ok") {
        Response::Error { code, .. } => assert_eq!(code, error_code::UNKNOWN_TAG),
        other => panic!("expected unknown-tag error, got {other:?}"),
    }
    // Truncated body (tag says Check, payload missing): same.
    match client.request_raw(&[1, 0x02]).expect("transport ok") {
        Response::Error { code, .. } => assert_eq!(code, error_code::MALFORMED),
        other => panic!("expected malformed error, got {other:?}"),
    }
    client
        .ping()
        .expect("connection survives body-level errors");

    // Oversized length prefix: frame-level error, connection dropped.
    let mut oversized = connect(&handle);
    oversized
        .write_bytes(&u32::MAX.to_be_bytes())
        .expect("write length prefix");
    match oversized.read_response().expect("error frame before close") {
        Response::Error { code, .. } => assert_eq!(code, error_code::OVERSIZED),
        other => panic!("expected oversized error, got {other:?}"),
    }

    // Truncated frame: a length prefix promising 100 bytes, then
    // silence. The server's read timeout converts it into a truncation
    // error instead of hanging the connection thread.
    let mut truncated = connect(&handle);
    truncated
        .write_bytes(&100u32.to_be_bytes())
        .expect("write length prefix");
    truncated
        .write_bytes(&[1, 2, 3])
        .expect("write partial body");
    match truncated.read_response().expect("error frame before close") {
        Response::Error { code, .. } => assert_eq!(code, error_code::TRUNCATED),
        other => panic!("expected truncated error, got {other:?}"),
    }

    // After all that abuse, a fresh connection still gets real service.
    let mut fresh = connect(&handle);
    fresh.ping().expect("server still serves");
    let report = handle.join();
    assert!(
        report.responses_err >= 4,
        "every malformed frame was answered"
    );
}

/// A frame that arrives one byte per segment is reassembled and answered.
#[test]
fn a_frame_written_one_byte_at_a_time_is_answered() {
    let handle = start(1, 1 << 20);
    let mut client = connect(&handle);
    let mut frame = Vec::new();
    write_frame(&mut frame, &encode_request(&Request::Ping)).expect("frame in memory");
    for byte in &frame {
        client
            .write_bytes(std::slice::from_ref(byte))
            .expect("write one byte");
    }
    assert_eq!(client.read_response().expect("answer"), Response::Pong);
    handle.join();
}

/// Two frames in one write: the connection keeps the bytes it read past
/// the first frame and answers both, in order.
#[test]
fn two_frames_in_one_write_are_answered_in_order() {
    let handle = start(1, 1 << 20);
    let mut client = connect(&handle);
    // A server that dropped the bytes read past the first frame would
    // never answer the second: fail in seconds instead of minutes.
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("set client timeout");
    let check = Request::Check {
        scenario: named("two_agent_compliant"),
        encoding: WireEncoding::Optimized,
        preprocess: false,
    };
    let mut frames = Vec::new();
    for req in [&Request::Ping, &check] {
        write_frame(&mut frames, &encode_request(req)).expect("frame in memory");
    }
    client.write_bytes(&frames).expect("write both frames");
    assert_eq!(
        client.read_response().expect("first answer"),
        Response::Pong
    );
    let cold = match client.read_response().expect("second answer") {
        Response::Verdict {
            cache: CacheDisposition::Miss,
            payload,
        } => payload,
        other => panic!("expected a cold verdict, got {other:?}"),
    };
    let (disp, warm) = client
        .check(named("two_agent_compliant"), WireEncoding::Optimized, false)
        .expect("the connection still serves");
    assert_eq!(disp, CacheDisposition::VerdictHit);
    assert_eq!(cold, warm);
    handle.join();
}

#[test]
fn requests_after_shutdown_are_refused() {
    let handle = start(1, 1 << 20);
    let mut client = connect(&handle);
    // Refusal and close are both immediate; only a server that stopped
    // reading without closing the socket makes the client wait, so a
    // short timeout turns that into a failure within seconds.
    client
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("set client timeout");
    client.ping().expect("ping before shutdown");
    handle.shutdown();
    // The flag is set synchronously; a check on the existing connection
    // must be refused (the connection may also already be closed —
    // either way, no new work is admitted).
    match client.request(&Request::Check {
        scenario: named("two_agent_compliant"),
        encoding: WireEncoding::Optimized,
        preprocess: false,
    }) {
        Ok(Response::Error { code, .. }) => assert_eq!(code, error_code::SHUTTING_DOWN),
        Ok(other) => panic!("expected shutting-down error, got {other:?}"),
        Err(WireError::Io(kind @ (ErrorKind::TimedOut | ErrorKind::WouldBlock))) => {
            panic!("connection neither answered nor closed after shutdown ({kind:?})")
        }
        Err(_) => {} // connection already torn down — equally fine
    }
    handle.join();
}

// ---------------------------------------------------------------------
// Observability: the Stats shape, the Metrics totals, and the serve-*
// events of a traced daemon.
// ---------------------------------------------------------------------

/// The `Stats` frame payload shape is a wire contract: scripts parse it
/// positionally-adjacent tooling greps it. Pin the field order exactly —
/// new fields must be appended, never inserted.
#[test]
fn stats_payload_field_order_is_pinned() {
    let handle = start(1, 1 << 20);
    let mut client = connect(&handle);
    let stats = client.stats().expect("stats");
    assert!(stats.starts_with("{\"requests\":"), "{stats}");
    let keys = [
        "\"requests\":",
        "\"responses_ok\":",
        "\"responses_err\":",
        "\"queue_depth\":",
        "\"queue_depth_hwm\":",
        "\"cache\":{",
        "\"verdict_hits\":",
        "\"verdict_misses\":",
        "\"evictions\":",
        "\"bytes\":",
        "\"bytes_hwm\":",
    ];
    let mut pos = 0;
    for key in keys {
        match stats[pos..].find(key) {
            Some(at) => pos += at + key.len(),
            None => panic!("`{key}` missing or out of order in {stats}"),
        }
    }
    client.shutdown_server().expect("shutdown");
    handle.join();
}

/// Reads a `Metrics` frame the way perfbench's traced `serve-repeat`
/// pass does: skip `#` lines, split each sample at its last space, and
/// key it by the full sample name, labels included.
fn scrape(text: &str) -> BTreeMap<String, f64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (key, value) = l.rsplit_once(' ')?;
            Some((key.to_string(), value.parse().ok()?))
        })
        .collect()
}

/// The series perfbench reads keep their names, labels and meaning, and
/// their deltas reconcile with what the load generator's deck sent.
/// perfbench reads a missing key as 0, so a renamed series would zero
/// its server share and queue wait, and would make its "warm requests
/// reached solve" check pass vacuously.
#[test]
fn metrics_scrape_reconciles_with_load_generator() {
    let walks = 5;
    let handle = start(2, 64 << 20);
    let mut client = connect(&handle);
    let deck = mca_serve::load::full_deck();
    for req in &deck {
        client.request(req).expect("cold walk");
    }
    let before = scrape(&client.metrics().expect("scrape before"));
    let mut sent: BTreeMap<&str, f64> = BTreeMap::new();
    for _ in 0..walks {
        for req in &deck {
            match client.request(req).expect("warm walk") {
                Response::Verdict { cache, .. } | Response::LintReport { cache, .. } => {
                    assert_eq!(cache, CacheDisposition::VerdictHit, "{req:?}");
                }
                other => panic!("{req:?} answered {other:?}"),
            }
            *sent.entry(req.kind()).or_insert(0.0) += 1.0;
        }
    }
    // The first scrape is counted after its own text is rendered.
    sent.insert("metrics", 1.0);
    let after = scrape(&client.metrics().expect("scrape after"));
    let delta = |key: &str| after.get(key).unwrap_or(&0.0) - before.get(key).unwrap_or(&0.0);

    for phase in ["decode", "queue", "cache", "translate", "solve", "write"] {
        let key = format!("mca_serve_phase_ns_total{{phase=\"{phase}\"}}");
        assert!(
            before.contains_key(&key) && after.contains_key(&key),
            "{key} missing from a scrape: {after:?}"
        );
    }
    for kind in ["check", "lint"] {
        let key = format!("mca_serve_latency_ns_sum{{kind=\"{kind}\"}}");
        assert!(
            after.get(&key).is_some_and(|&ns| ns > 0.0),
            "{key}: {after:?}"
        );
    }
    let counted: BTreeSet<&str> = after
        .keys()
        .filter_map(|k| k.strip_prefix("mca_serve_latency_ns_count{kind=\""))
        .filter_map(|k| k.strip_suffix("\"}"))
        .chain(sent.keys().copied())
        .collect();
    for kind in counted {
        let key = format!("mca_serve_latency_ns_count{{kind=\"{kind}\"}}");
        assert_eq!(
            delta(&key),
            sent.get(kind).copied().unwrap_or(0.0),
            "{key}: {after:?}"
        );
    }
    // A warm hit neither translates nor solves.
    assert_eq!(delta("mca_serve_phase_ns_total{phase=\"solve\"}"), 0.0);
    assert_eq!(delta("mca_serve_phase_ns_total{phase=\"translate\"}"), 0.0);
    client.shutdown_server().expect("shutdown");
    handle.join();
}

/// Each warm request is counted once in the scraped totals whether or
/// not the daemon is traced. A traced daemon also records exactly one
/// `serve-span` per request; an untraced one records no events at all.
#[test]
fn telemetry_records_each_warm_request_once_and_nothing_when_off() {
    let walks = 20;
    let deck = mca_serve::load::smoke_deck();
    let walk = |record_events: bool| {
        let handle = Server::start(&ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 2,
            cache_bytes: 32 << 20,
            read_timeout: Duration::from_secs(30),
            record_events,
            ..ServerConfig::default()
        })
        .expect("bind on a free port");
        let mut client = connect(&handle);
        for req in &deck {
            client.request(req).expect("cache warmup");
        }
        let before = scrape(&client.metrics().expect("scrape before"));
        let mut sent: BTreeMap<&str, f64> = BTreeMap::new();
        for _ in 0..walks {
            for req in &deck {
                match client.request(req).expect("warm walk") {
                    Response::Verdict { cache, .. } | Response::LintReport { cache, .. } => {
                        assert_eq!(cache, CacheDisposition::VerdictHit, "{req:?}");
                    }
                    other => panic!("{req:?} answered {other:?}"),
                }
                *sent.entry(req.kind()).or_insert(0.0) += 1.0;
            }
        }
        let after = scrape(&client.metrics().expect("scrape after"));
        for (kind, n) in &sent {
            let key = format!("mca_serve_latency_ns_count{{kind=\"{kind}\"}}");
            let delta = after.get(&key).unwrap_or(&0.0) - before.get(&key).unwrap_or(&0.0);
            assert_eq!(delta, *n, "{key} with record_events {record_events}");
        }
        client.shutdown_server().expect("shutdown");
        handle.join().events
    };

    // The deck once cold, the warm walks, two scrapes and the shutdown.
    let requests = (1 + walks) * deck.len() + 3;
    let traced = walk(true);
    let spans: Vec<u64> = traced
        .iter()
        .filter_map(|e| match e {
            Event::ServeSpan { req, .. } => Some(*req),
            _ => None,
        })
        .collect();
    assert_eq!(spans.len(), requests, "one serve-span per request");
    assert_eq!(
        spans.iter().collect::<BTreeSet<_>>().len(),
        requests,
        "a request recorded twice: {spans:?}"
    );
    assert_eq!(
        walk(false),
        Vec::new(),
        "an untraced daemon recorded events"
    );
}

/// A traced daemon records, for each request in request-id order, its
/// `serve-request`, its `serve-cache` operations, its `serve-response`
/// and its `serve-span`, and the span attributes the cold check's work
/// to translate and solve.
#[test]
fn traced_server_records_each_requests_events_in_order() {
    let handle = Server::start(&ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 1,
        cache_bytes: 32 << 20,
        read_timeout: Duration::from_secs(2),
        record_events: true,
        ..ServerConfig::default()
    })
    .expect("bind on a free port");
    let mut client = connect(&handle);
    // One cold check, five warm repeats, then a cold lint.
    for _ in 0..6 {
        client
            .check(named("two_agent_compliant"), WireEncoding::Optimized, false)
            .expect("check");
    }
    client
        .lint(named("two_agent_compliant"), WireEncoding::Optimized)
        .expect("lint");
    let report = handle.join();

    let mut events = report.events.iter();
    for req in 0..7u64 {
        let (kind, cold) = match req {
            0 => ("check", true),
            6 => ("lint", true),
            _ => ("check", false),
        };
        let key = match events.next() {
            Some(Event::ServeRequest {
                req: r,
                kind: k,
                key,
            }) if *r == req && k == kind => key,
            other => panic!("request {req}: expected serve-request, got {other:?}"),
        };
        assert!(key.starts_with(kind), "request {req}: key `{key}`");
        let ops: &[&str] = if cold { &["miss", "insert"] } else { &["hit"] };
        for op in ops {
            match events.next() {
                Some(Event::ServeCache {
                    tier,
                    op: o,
                    key: k,
                }) if tier == "verdict" && o == op && k == key => {}
                other => panic!("request {req}: expected verdict/{op} on {key}, got {other:?}"),
            }
        }
        let cache = if cold { "miss" } else { "verdict-hit" };
        match events.next() {
            Some(Event::ServeResponse {
                req: r,
                outcome,
                cache: c,
            }) if *r == req && outcome == "ok" && c == cache => {}
            other => panic!("request {req}: expected an ok {cache} response, got {other:?}"),
        }
        match events.next() {
            Some(Event::ServeSpan {
                req: r,
                kind: k,
                total_ns,
                decode_ns,
                queue_ns,
                cache_ns,
                translate_ns,
                solve_ns,
                write_ns,
            }) if *r == req && k == kind => {
                let phases = decode_ns + queue_ns + cache_ns + translate_ns + solve_ns + write_ns;
                assert!(phases <= *total_ns, "request {req}: {phases} > {total_ns}");
                if req == 0 {
                    assert!(translate_ns + solve_ns > 0, "the cold check did no work");
                } else if kind == "check" {
                    assert_eq!(*solve_ns, 0, "warm check {req} solved");
                }
            }
            other => panic!("request {req}: expected serve-span, got {other:?}"),
        }
    }
    assert_eq!(events.next(), None, "one event group per request");
}

/// A `queue_capacity: 1` daemon under two concurrent clients admits one
/// request at a time, and `Stats` reports that bound as its high water.
#[test]
fn tiny_queue_cap_reaches_a_high_water_of_one() {
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        cache_bytes: 32 << 20,
        queue_capacity: 1,
        read_timeout: Duration::from_secs(2),
        ..ServerConfig::default()
    };
    let handle = Server::start(&config).expect("bind");
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                let mut client = connect(&handle);
                for _ in 0..4 {
                    client
                        .check(named("two_agent_compliant"), WireEncoding::Optimized, false)
                        .expect("check against tiny queue");
                }
            });
        }
    });
    let mut client = connect(&handle);
    let stats = Json::parse(&client.stats().expect("stats")).expect("stats is JSON");
    assert_eq!(
        stats.get("queue_depth_hwm").and_then(Json::as_u64),
        Some(1),
        "{}",
        stats.render()
    );
    client.shutdown_server().expect("shutdown");
    handle.join();
}

/// The `Metrics` frame is served while Check traffic is in flight:
/// scrapes under load return promptly and never deadlock against the
/// request path's totals lock.
#[test]
fn metrics_and_flight_dump_mid_load_do_not_deadlock() {
    let handle = start(2, 32 << 20);
    let stop = AtomicBool::new(false);
    let sent = AtomicU32::new(0);
    std::thread::scope(|scope| {
        let hammer = scope.spawn(|| {
            let mut client = connect(&handle);
            while !stop.load(Ordering::Relaxed) {
                client
                    .check(named("two_agent_compliant"), WireEncoding::Optimized, false)
                    .expect("check under scrape load");
                sent.fetch_add(1, Ordering::Relaxed);
            }
        });
        // Scrape only once checks are flowing, and keep scraping until
        // more of them have completed, so scrapes and checks interleave
        // however the two threads are scheduled.
        let mut client = connect(&handle);
        let mut scrapes = 0;
        let mut flowing_at = None;
        while !hammer.is_finished() {
            let done = sent.load(Ordering::Relaxed);
            if done == 0 {
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
            let start = *flowing_at.get_or_insert(done);
            if scrapes >= 50 && done > start {
                break;
            }
            let text = client.metrics().expect("metrics mid-flight");
            assert!(text.contains("mca_serve_phase_ns_total"), "{text}");
            scrapes += 1;
        }
        stop.store(true, Ordering::Relaxed);
        hammer.join().expect("hammer thread");
        assert!(
            scrapes >= 50,
            "only {scrapes} scrapes before the hammer ended"
        );
    });
    let mut client = connect(&handle);
    client.shutdown_server().expect("shutdown");
    handle.join();
}

/// The totals must not perturb the deterministic payload contract:
/// interleaving a `Metrics` scrape between checks still yields
/// byte-identical cold and cached verdicts.
#[test]
fn scrapes_do_not_perturb_payload_determinism() {
    let handle = start(1, 32 << 20);
    let mut client = connect(&handle);
    let (_, cold) = client
        .check(
            named("two_agent_rebid_attack"),
            WireEncoding::Optimized,
            false,
        )
        .expect("cold check");
    client.metrics().expect("metrics between checks");
    let (disp, warm) = client
        .check(
            named("two_agent_rebid_attack"),
            WireEncoding::Optimized,
            false,
        )
        .expect("cached check");
    assert_eq!(disp, CacheDisposition::VerdictHit);
    assert_eq!(cold, warm, "scrapes must not perturb payload bytes");
    client.shutdown_server().expect("shutdown");
    handle.join();
}
