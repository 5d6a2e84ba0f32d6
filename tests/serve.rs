//! End-to-end tests of the mca-serve daemon: protocol round trips,
//! cache correctness (the acceptance pin: responses are byte-identical
//! cold, cached, and across server worker counts), eviction under a tiny
//! byte budget, and malformed-frame robustness (the server answers with
//! a protocol error and keeps serving — never panics, never hangs).

use std::collections::BTreeSet;
use std::io::ErrorKind;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mca_obs::Json;
use mca_report::{diagnose_service, ServiceStats, WhySeverity};
use mca_serve::request;
use mca_serve::wire::{encode_request, error_code, write_frame};
use mca_serve::{
    CacheDisposition, Client, LoadConfig, Request, Response, ResultCache, ScenarioSpec, Server,
    ServerConfig, TelemetryConfig, WireEncoding, WireError,
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
// Live observability: Stats shape, Metrics/FlightDump frames, service
// diagnosis, and the telemetry overhead gate.
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

/// Acceptance pin (a) + (c)-healthy: a load run against a telemetry-
/// enabled daemon yields a Metrics scrape whose check+lint counts
/// reconcile *exactly* with what the load generator sent, and the
/// service diagnosis over that healthy scrape has zero critical
/// findings.
#[test]
fn metrics_scrape_reconciles_with_load_generator() {
    let handle = start(2, 32 << 20);
    let cfg = LoadConfig {
        addr: handle.addr().to_string(),
        clients: 2,
        mixed_requests: 10,
        warm_requests: 10,
        smoke: true,
    };
    let outcome = mca_serve::run_load(&cfg).expect("load run");
    assert_eq!(outcome.total_errors, 0, "healthy run has no errors");

    let mut client = connect(&handle);
    let text = client.metrics().expect("metrics scrape");
    let stats = ServiceStats::parse(&text);
    assert_eq!(stats.skipped_lines, 0, "scrape parses cleanly:\n{text}");

    // The generator sends only Check and Lint during its phases (plus
    // one Stats afterwards, which has its own kind). Exact reconcile:
    let check = stats
        .value("mca_serve_requests_total", &[("kind", "check")])
        .unwrap_or(0.0);
    let lint = stats
        .value("mca_serve_requests_total", &[("kind", "lint")])
        .unwrap_or(0.0);
    assert_eq!(
        (check + lint) as u64,
        outcome.total_requests,
        "scraped check+lint counts must equal the generator's sent count\n{text}"
    );
    // The latency histograms account for every one of those requests.
    let hist_total = stats.total("mca_serve_latency_ns_count");
    assert!(
        hist_total >= check + lint,
        "latency histograms cover all load requests: {hist_total} vs {}",
        check + lint
    );
    // Responses reconcile too: no error frames on the healthy deck.
    assert_eq!(
        stats.value("mca_serve_responses_total", &[("outcome", "error")]),
        None,
        "no error series on a healthy run\n{text}"
    );

    // Healthy configuration ⇒ zero critical W101–W106 findings.
    let findings = diagnose_service(&stats, None);
    assert!(
        !findings.iter().any(|f| f.severity == WhySeverity::Critical),
        "healthy scrape must have no critical findings: {findings:?}"
    );

    client.shutdown_server().expect("shutdown");
    handle.join();
}

/// Acceptance pin (b): the FlightDump carries full latency attribution
/// for the slowest request, and the slowest list is sorted.
#[test]
fn flight_dump_attributes_the_slowest_request() {
    let handle = start(1, 32 << 20);
    let mut client = connect(&handle);
    // One cold check (translate+solve work) then warm repeats (cache).
    for _ in 0..6 {
        client
            .check(named("two_agent_compliant"), WireEncoding::Optimized, false)
            .expect("check");
    }
    let dump = client.flight_dump().expect("flight dump");
    let flight = Json::parse(&dump).expect("flight dump is valid JSON");
    assert_eq!(flight.get("version").and_then(Json::as_u64), Some(1));

    let Some(Json::Array(slowest)) = flight.get("slowest") else {
        panic!("flight dump has a slowest array: {dump}");
    };
    assert!(!slowest.is_empty(), "{dump}");
    let top = &slowest[0];
    let field = |key: &str| {
        top.get(key)
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("slowest record has `{key}`: {dump}"))
    };
    let total = field("total_ns");
    assert!(total > 0);
    // Attribution is complete and consistent: the phases never exceed
    // the request's own total.
    let attributed = field("decode_ns")
        + field("queue_ns")
        + field("cache_ns")
        + field("translate_ns")
        + field("solve_ns")
        + field("write_ns");
    assert!(
        attributed <= total,
        "phase attribution {attributed} exceeds total {total}: {dump}"
    );
    // The slowest request is the cold check, which did real translate
    // and solve work.
    assert_eq!(top.get("kind").and_then(Json::as_str), Some("check"));
    assert!(field("translate_ns") + field("solve_ns") > 0, "{dump}");

    // Sorted slowest-first, and the ring kept every request.
    let totals: Vec<u64> = slowest
        .iter()
        .filter_map(|r| r.get("total_ns").and_then(Json::as_u64))
        .collect();
    assert!(totals.windows(2).all(|w| w[0] >= w[1]), "{totals:?}");
    let Some(Json::Array(ring)) = flight.get("ring") else {
        panic!("flight dump has a ring array: {dump}");
    };
    assert!(ring.len() >= 6, "{dump}");

    client.shutdown_server().expect("shutdown");
    handle.join();
}

/// Acceptance pin (c)-saturated: a `--queue-cap 1` daemon under any
/// concurrent load drives the admission high-water to its capacity, so
/// W102 fires critical — and since `repro why` exits
/// `i32::from(!findings.is_empty())`, that scrape exits 1.
#[test]
fn tiny_queue_cap_fires_w102() {
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
    let stats = ServiceStats::parse(&client.metrics().expect("metrics"));
    let findings = diagnose_service(&stats, None);
    let w102 = findings
        .iter()
        .find(|f| f.rule == "W102")
        .unwrap_or_else(|| panic!("W102 must fire on a saturated queue: {findings:?}"));
    assert_eq!(w102.severity, WhySeverity::Critical);
    assert!(!findings.is_empty(), "exit code 1: at least one finding");
    client.shutdown_server().expect("shutdown");
    handle.join();
}

/// The flight recorder and metrics endpoints are served while Check
/// traffic is in flight — scrapes under load return promptly and never
/// deadlock against the request path's telemetry lock.
#[test]
fn metrics_and_flight_dump_mid_load_do_not_deadlock() {
    let handle = start(2, 32 << 20);
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let hammer = scope.spawn(|| {
            let mut client = connect(&handle);
            let mut sent = 0u32;
            while !stop.load(Ordering::Relaxed) {
                client
                    .check(named("two_agent_compliant"), WireEncoding::Optimized, false)
                    .expect("check under scrape load");
                sent += 1;
            }
            sent
        });
        let mut client = connect(&handle);
        for _ in 0..25 {
            let text = client.metrics().expect("metrics mid-flight");
            assert!(text.contains("mca_serve_requests_total"), "{text}");
            let dump = client.flight_dump().expect("flight dump mid-flight");
            Json::parse(&dump).expect("mid-flight dump is valid JSON");
        }
        stop.store(true, Ordering::Relaxed);
        assert!(hammer.join().expect("hammer thread") > 0);
    });
    let mut client = connect(&handle);
    client.shutdown_server().expect("shutdown");
    handle.join();
}

/// Telemetry cost as counted work, not wall clock: over a warm (fully
/// cached) deck walk the flight recorder folds in exactly one record per
/// request with telemetry on, and none with it off. The wall-clock cost
/// of recording shows in the repository benchmark's `serve-repeat`
/// latency, which runs with telemetry on.
#[test]
fn telemetry_records_each_warm_request_once_and_nothing_when_off() {
    let walks = 20;
    let deck = mca_serve::load::smoke_deck();
    let recorded_after_walk = |enabled: bool| {
        let config = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 2,
            cache_bytes: 32 << 20,
            read_timeout: Duration::from_secs(30),
            telemetry: TelemetryConfig {
                enabled,
                ..TelemetryConfig::default()
            },
            ..ServerConfig::default()
        };
        let handle = Server::start(&config).expect("bind");
        let mut client = connect(&handle);
        for req in &deck {
            client.request(req).expect("cache warmup");
        }
        for _ in 0..walks {
            for req in &deck {
                match client.request(req).expect("warm walk") {
                    Response::Verdict { cache, .. } | Response::LintReport { cache, .. } => {
                        assert_eq!(cache, CacheDisposition::VerdictHit, "{req:?}");
                    }
                    other => panic!("{req:?} answered {other:?}"),
                }
            }
        }
        // The dump is rendered before its own request is recorded.
        let dump = client.flight_dump().expect("flight dump");
        let recorded = Json::parse(&dump)
            .expect("flight dump is valid JSON")
            .get("recorded")
            .and_then(Json::as_u64)
            .expect("recorded count");
        client.shutdown_server().expect("shutdown");
        handle.join();
        recorded
    };
    let sent = ((1 + walks) * deck.len()) as u64;
    assert_eq!(recorded_after_walk(true), sent);
    assert_eq!(recorded_after_walk(false), 0);
}

/// Telemetry (on by default) must not perturb the deterministic payload
/// contract: interleaving Metrics/FlightDump scrapes between checks
/// still yields byte-identical cold and cached verdicts.
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
    client.flight_dump().expect("flight dump between checks");
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
