//! Request execution: wire request → (cached or computed) response.
//!
//! Every cacheable answer is a **deterministic byte string** — canonical
//! JSON with fixed field order, no wall-clock fields — so a verdict
//! served from the cache is byte-identical to one computed cold, at any
//! thread count. That property is pinned by the `serve` integration
//! tests and is what makes the cache sound: it stores the final payload
//! verbatim.

use std::sync::Arc;
use std::time::Instant;

use mca_obs::Json;
use mca_verify::{DynamicModel, DynamicScenario, NumberEncoding};

use crate::cache::{CacheOp, ResultCache};
use crate::wire::{error_code, CacheDisposition, Request, Response, ScenarioSpec, WireEncoding};

/// Largest accepted parametric scope. The committed E8 sweep tops out at
/// 4×3 (~2 minutes single-core for the optimized encoding); anything
/// larger would let one wire request pin a worker for hours, so the
/// server refuses it as an unknown scenario rather than queueing it.
pub const MAX_SCOPE: (u16, u16) = (4, 3);

/// Resolves a wire scenario spec to a label and a built scenario.
///
/// # Errors
///
/// A human-readable message naming the accepted scenarios.
pub fn resolve_scenario(spec: &ScenarioSpec) -> Result<(String, DynamicScenario), String> {
    match spec {
        ScenarioSpec::Named(name) => {
            let scenario = match name.as_str() {
                "two_agent_compliant" => DynamicScenario::two_agent_compliant(),
                "two_agent_rebid_attack" => DynamicScenario::two_agent_rebid_attack(),
                "three_agent_line_compliant" => DynamicScenario::three_agent_line_compliant(),
                "paper_scope" => DynamicScenario::paper_scope(),
                "paper_scope_sound" => DynamicScenario::paper_scope_sound(),
                other => {
                    return Err(format!(
                        "unknown scenario `{other}` (accepted: two_agent_compliant, \
                         two_agent_rebid_attack, three_agent_line_compliant, paper_scope, \
                         paper_scope_sound, or a pnodes×vnodes scope)"
                    ))
                }
            };
            Ok((name.clone(), scenario))
        }
        ScenarioSpec::AtScope { pnodes, vnodes } => {
            if *pnodes < 2 || *vnodes < 1 || *pnodes > MAX_SCOPE.0 || *vnodes > MAX_SCOPE.1 {
                return Err(format!(
                    "scope {pnodes}x{vnodes} out of range (2..={} pnodes, 1..={} vnodes)",
                    MAX_SCOPE.0, MAX_SCOPE.1
                ));
            }
            Ok((
                format!("at_scope:{pnodes}x{vnodes}"),
                DynamicScenario::at_scope(*pnodes as usize, *vnodes as usize),
            ))
        }
    }
}

fn number_encoding(e: WireEncoding) -> NumberEncoding {
    match e {
        WireEncoding::Naive => NumberEncoding::NaiveInt,
        WireEncoding::Optimized => NumberEncoding::OptimizedValue,
    }
}

/// The cache key: model hash + everything else that determines the
/// answer bytes.
pub fn verdict_key(
    kind: &str,
    hash: u64,
    scope: &str,
    encoding: WireEncoding,
    solver_config: &str,
) -> String {
    format!(
        "{kind}/{hash:016x}/{scope}/{}/{solver_config}",
        encoding.slug()
    )
}

/// The outcome of executing one cacheable request.
pub struct Executed {
    /// The wire response to send.
    pub response: Response,
    /// The cache key, empty for error responses.
    pub cache_key: String,
    /// Cache operations performed, in order (for `serve-cache` events).
    pub ops: Vec<CacheOp>,
    /// The cache disposition, `None` for error responses.
    pub disposition: Option<CacheDisposition>,
    /// Wall-clock nanoseconds forming the key (spec resolve and the
    /// model-hash memo) and in cache lookups/stores. Telemetry only:
    /// never part of the response payload, so byte-determinism holds.
    pub cache_ns: u64,
    /// Wall-clock nanoseconds in model build, content hashing and CNF
    /// translation that actually ran: 0 on a hit whose model hash was
    /// already memoized.
    pub translate_ns: u64,
    /// Wall-clock nanoseconds solving (or running the lint analysis).
    pub solve_ns: u64,
}

impl Executed {
    fn error(code: u8, message: String) -> Executed {
        Executed {
            response: Response::Error { code, message },
            cache_key: String::new(),
            ops: Vec::new(),
            disposition: None,
            cache_ns: 0,
            translate_ns: 0,
            solve_ns: 0,
        }
    }
}

/// Elapsed nanoseconds since `start`, saturating at `u64::MAX`.
fn ns_since(start: Instant) -> u64 {
    start.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

/// A resolved spec's model, built at most once per request and only when
/// something has to be computed from it.
struct LazyModel {
    encoding: NumberEncoding,
    scenario: DynamicScenario,
    model: Option<DynamicModel>,
}

impl LazyModel {
    /// The model, built on first use.
    fn get(&mut self) -> &DynamicModel {
        self.model
            .get_or_insert_with(|| DynamicModel::build(self.encoding, self.scenario.clone()))
    }
}

/// A request spec resolved to its model hash, with the timings of that
/// step already split into the cache and translate phases.
struct Keyed {
    label: String,
    scope: String,
    hash: u64,
    model: LazyModel,
    cache_ns: u64,
    translate_ns: u64,
}

/// Resolves `spec` and looks its model hash up in the memo. On a memo
/// miss it builds and hashes the model and memoizes the hash; the built
/// model stays in [`Keyed::model`], so the request never builds twice.
fn key_spec(
    spec: &ScenarioSpec,
    encoding: WireEncoding,
    cache: &ResultCache,
) -> Result<Keyed, String> {
    let start = Instant::now();
    let (label, scenario) = resolve_scenario(spec)?;
    let scope = scenario.scope_label();
    let memoized = cache.model_hash(&label, encoding);
    let mut cache_ns = ns_since(start);
    let mut model = LazyModel {
        encoding: number_encoding(encoding),
        scenario,
        model: None,
    };
    let mut translate_ns = 0;
    let hash = match memoized {
        Some(hash) => hash,
        None => {
            let build_start = Instant::now();
            let hash = model.get().content_hash();
            translate_ns = ns_since(build_start);
            let put_start = Instant::now();
            cache.remember_model_hash(&label, encoding, hash);
            cache_ns += ns_since(put_start);
            hash
        }
    };
    Ok(Keyed {
        label,
        scope,
        hash,
        model,
        cache_ns,
        translate_ns,
    })
}

/// Executes a `Check` or `Lint` request against the cache, computing on
/// miss. `Ping`/`Stats`/`Shutdown` are connection-level concerns and
/// never reach this function.
pub fn execute(req: &Request, cache: &ResultCache) -> Executed {
    match req {
        Request::Check {
            scenario,
            encoding,
            preprocess,
        } => execute_check(scenario, *encoding, *preprocess, cache),
        Request::Lint { scenario, encoding } => execute_lint(scenario, *encoding, cache),
        other => Executed::error(
            error_code::MALFORMED,
            format!("request kind `{}` is not executable", other.kind()),
        ),
    }
}

fn execute_check(
    spec: &ScenarioSpec,
    encoding: WireEncoding,
    preprocess: bool,
    cache: &ResultCache,
) -> Executed {
    let Keyed {
        label,
        scope,
        hash,
        mut model,
        mut cache_ns,
        mut translate_ns,
    } = match key_spec(spec, encoding, cache) {
        Ok(keyed) => keyed,
        Err(msg) => return Executed::error(error_code::UNKNOWN_SCENARIO, msg),
    };
    let solver_config = if preprocess { "default+pre" } else { "default" };
    let vkey = verdict_key("check", hash, &scope, encoding, solver_config);

    let mut ops = Vec::new();
    let lookup_start = Instant::now();
    if let Some(payload) = cache.get_verdict(&vkey, &mut ops) {
        return Executed {
            response: Response::Verdict {
                cache: CacheDisposition::VerdictHit,
                payload: (*payload).clone(),
            },
            cache_key: vkey,
            ops,
            disposition: Some(CacheDisposition::VerdictHit),
            cache_ns: cache_ns + ns_since(lookup_start),
            translate_ns,
            solve_ns: 0,
        };
    }

    cache_ns += ns_since(lookup_start);

    // Miss: build the model (unless hashing just did) and translate it.
    let translate_start = Instant::now();
    let cnf = match model.get().consensus_cnf() {
        Ok(cnf) => cnf,
        Err(e) => {
            return Executed::error(
                error_code::EXECUTION,
                format!("translation failed for {label}: {e:?}"),
            )
        }
    };
    translate_ns += ns_since(translate_start);

    // Solve (valid ⇔ the negated-consensus CNF is UNSAT). The solver is
    // deterministic for a fixed formula, so the payload below does not
    // depend on the serving thread.
    let solve_start = Instant::now();
    let mut solver = cnf.to_solver();
    let simplify_stats = preprocess.then(|| solver.preprocess());
    let valid = solver.solve() == mca_sat::SolveResult::Unsat;
    let solve_ns = ns_since(solve_start);
    let stats = solver.stats();

    let payload_json = Json::obj([
        ("kind", "check".into()),
        ("scenario", label.as_str().into()),
        ("scope", scope.as_str().into()),
        ("encoding", encoding.slug().into()),
        ("solver_config", solver_config.into()),
        ("model_hash", format!("{hash:016x}").into()),
        ("valid", valid.into()),
        (
            "cnf",
            Json::obj([
                ("vars", cnf.num_vars().into()),
                ("clauses", cnf.num_clauses().into()),
                ("literals", cnf.num_literals().into()),
            ]),
        ),
        (
            "solver",
            Json::obj([
                ("decisions", stats.decisions.into()),
                ("propagations", stats.propagations.into()),
                ("conflicts", stats.conflicts.into()),
                ("restarts", stats.restarts.into()),
            ]),
        ),
        (
            "simplify",
            match simplify_stats {
                None => Json::Null,
                Some(s) => Json::obj([
                    ("subsumed", s.subsumed.into()),
                    ("strengthened_literals", s.strengthened_literals.into()),
                    ("propagated_literals", s.propagated_literals.into()),
                    ("satisfied_clauses", s.satisfied_clauses.into()),
                    ("found_unsat", s.found_unsat.into()),
                ]),
            },
        ),
    ]);
    let payload = Arc::new(payload_json.render().into_bytes());
    let put_start = Instant::now();
    cache.put_verdict(&vkey, payload.clone(), &mut ops);
    cache_ns += ns_since(put_start);
    Executed {
        response: Response::Verdict {
            cache: CacheDisposition::Miss,
            payload: (*payload).clone(),
        },
        cache_key: vkey,
        ops,
        disposition: Some(CacheDisposition::Miss),
        cache_ns,
        translate_ns,
        solve_ns,
    }
}

fn execute_lint(spec: &ScenarioSpec, encoding: WireEncoding, cache: &ResultCache) -> Executed {
    let Keyed {
        label,
        scope,
        hash,
        mut model,
        mut cache_ns,
        mut translate_ns,
    } = match key_spec(spec, encoding, cache) {
        Ok(keyed) => keyed,
        Err(msg) => return Executed::error(error_code::UNKNOWN_SCENARIO, msg),
    };
    let vkey = verdict_key("lint", hash, &scope, encoding, "default");

    let mut ops = Vec::new();
    let lookup_start = Instant::now();
    if let Some(payload) = cache.get_verdict(&vkey, &mut ops) {
        return Executed {
            response: Response::LintReport {
                cache: CacheDisposition::VerdictHit,
                payload: (*payload).clone(),
            },
            cache_key: vkey,
            ops,
            disposition: Some(CacheDisposition::VerdictHit),
            cache_ns: cache_ns + ns_since(lookup_start),
            translate_ns,
            solve_ns: 0,
        };
    }
    cache_ns += ns_since(lookup_start);

    let build_start = Instant::now();
    let model = model.get();
    translate_ns += ns_since(build_start);
    let target = format!("serve:{label}:{}", encoding.slug());
    // Lint analysis is this request kind's "solve" phase.
    let solve_start = Instant::now();
    let report = match mca_lint::lint_model(target, model.model(), &[model.consensus_assertion()]) {
        Ok(report) => report,
        Err(e) => {
            return Executed::error(
                error_code::EXECUTION,
                format!("lint failed for {label}: {e:?}"),
            )
        }
    };
    // The payload is the same JSONL byte stream `repro lint` writes:
    // one finding per line plus the lint-done tally.
    let mut sink = mca_obs::JsonlSink::new(Vec::new());
    report.emit(&mut sink);
    let solve_ns = ns_since(solve_start);
    let payload = match sink.into_inner() {
        Ok(bytes) => Arc::new(bytes),
        Err(e) => {
            return Executed::error(error_code::EXECUTION, format!("lint render failed: {e}"))
        }
    };
    let put_start = Instant::now();
    cache.put_verdict(&vkey, payload.clone(), &mut ops);
    cache_ns += ns_since(put_start);
    Executed {
        response: Response::LintReport {
            cache: CacheDisposition::Miss,
            payload: (*payload).clone(),
        },
        cache_key: vkey,
        ops,
        disposition: Some(CacheDisposition::Miss),
        cache_ns,
        translate_ns,
        solve_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_resolution_accepts_shipped_names_and_scopes() {
        for name in [
            "two_agent_compliant",
            "two_agent_rebid_attack",
            "three_agent_line_compliant",
            "paper_scope",
            "paper_scope_sound",
        ] {
            let (label, _) = resolve_scenario(&ScenarioSpec::Named(name.into())).expect(name);
            assert_eq!(label, name);
        }
        let (label, s) = resolve_scenario(&ScenarioSpec::AtScope {
            pnodes: 3,
            vnodes: 2,
        })
        .unwrap();
        assert_eq!(label, "at_scope:3x2");
        assert_eq!(s.scope_label(), "3x2");
    }

    #[test]
    fn scenario_resolution_rejects_unknown_and_oversized() {
        assert!(resolve_scenario(&ScenarioSpec::Named("nope".into())).is_err());
        assert!(resolve_scenario(&ScenarioSpec::AtScope {
            pnodes: 1,
            vnodes: 1
        })
        .is_err());
        assert!(resolve_scenario(&ScenarioSpec::AtScope {
            pnodes: 9,
            vnodes: 1
        })
        .is_err());
        assert!(resolve_scenario(&ScenarioSpec::AtScope {
            pnodes: 2,
            vnodes: 0
        })
        .is_err());
    }

    #[test]
    fn keys_separate_scope_encoding_and_config() {
        let a = verdict_key("check", 0xabc, "2x2", WireEncoding::Optimized, "default");
        let b = verdict_key("check", 0xabc, "3x2", WireEncoding::Optimized, "default");
        let c = verdict_key("check", 0xabc, "2x2", WireEncoding::Naive, "default");
        let d = verdict_key(
            "check",
            0xabc,
            "2x2",
            WireEncoding::Optimized,
            "default+pre",
        );
        let set: std::collections::BTreeSet<_> = [&a, &b, &c, &d].into_iter().collect();
        assert_eq!(set.len(), 4);
    }

    #[test]
    fn check_hit_is_byte_identical_to_cold_and_a_config_twin_misses() {
        let cache = ResultCache::new(64 << 20);
        let req = Request::Check {
            scenario: ScenarioSpec::Named("two_agent_compliant".into()),
            encoding: WireEncoding::Optimized,
            preprocess: false,
        };
        let cold = execute(&req, &cache);
        assert_eq!(cold.disposition, Some(CacheDisposition::Miss));
        let Response::Verdict {
            payload: cold_payload,
            ..
        } = &cold.response
        else {
            panic!("expected verdict, got {:?}", cold.response);
        };
        assert!(cold_payload.starts_with(b"{\"kind\":\"check\""));

        let warm = execute(&req, &cache);
        assert_eq!(warm.disposition, Some(CacheDisposition::VerdictHit));
        let Response::Verdict {
            payload: warm_payload,
            ..
        } = &warm.response
        else {
            panic!("expected verdict");
        };
        assert_eq!(cold_payload, warm_payload, "hit must be byte-identical");

        // Same model, different solver config: another cache line, so a
        // miss that translates and solves again.
        let pre = Request::Check {
            scenario: ScenarioSpec::Named("two_agent_compliant".into()),
            encoding: WireEncoding::Optimized,
            preprocess: true,
        };
        let third = execute(&pre, &cache);
        assert_eq!(third.disposition, Some(CacheDisposition::Miss));
    }

    /// Once a spec's model hash is memoized, a hit builds no model: it
    /// reports zero translate time, whichever kind and config it is.
    #[test]
    fn memoized_hits_report_no_translate_time() {
        let cache = ResultCache::new(64 << 20);
        let spec = ScenarioSpec::Named("two_agent_compliant".into());
        let check = |preprocess| Request::Check {
            scenario: spec.clone(),
            encoding: WireEncoding::Optimized,
            preprocess,
        };
        let lint = Request::Lint {
            scenario: spec.clone(),
            encoding: WireEncoding::Optimized,
        };
        let cold = execute(&check(false), &cache);
        assert!(cold.translate_ns > 0 && cold.solve_ns > 0);
        // The preprocessed twin is its own cache line: a miss.
        let twin = execute(&check(true), &cache);
        assert_eq!(twin.disposition, Some(CacheDisposition::Miss));
        let lint_cold = execute(&lint, &cache);
        assert_eq!(lint_cold.disposition, Some(CacheDisposition::Miss));
        for req in [check(false), check(true), lint] {
            let warm = execute(&req, &cache);
            assert_eq!(warm.disposition, Some(CacheDisposition::VerdictHit));
            assert_eq!((warm.translate_ns, warm.solve_ns), (0, 0), "{req:?}");
        }
        assert_eq!(cache.model_hash_count(), 1);
    }

    #[test]
    fn lint_requests_cache_and_round_trip() {
        let cache = ResultCache::new(64 << 20);
        let req = Request::Lint {
            scenario: ScenarioSpec::Named("two_agent_compliant".into()),
            encoding: WireEncoding::Optimized,
        };
        let cold = execute(&req, &cache);
        let Response::LintReport {
            payload: cold_payload,
            cache: d0,
        } = &cold.response
        else {
            panic!("expected lint report, got {:?}", cold.response);
        };
        assert_eq!(*d0, CacheDisposition::Miss);
        assert!(std::str::from_utf8(cold_payload)
            .unwrap()
            .contains("\"event\":\"lint-done\""));
        let warm = execute(&req, &cache);
        let Response::LintReport {
            payload: warm_payload,
            cache: d1,
        } = &warm.response
        else {
            panic!("expected lint report");
        };
        assert_eq!(*d1, CacheDisposition::VerdictHit);
        assert_eq!(cold_payload, warm_payload);
    }
}
