//! The structured trace vocabulary.
//!
//! Every variant is keyed by **logical** progress — the simulator's step
//! counter, the checker's states-explored count, the solver's conflict
//! count — never by wall-clock time. Two runs of a deterministic workload
//! therefore produce byte-identical traces (asserted by the
//! `obs_trace` integration test in the umbrella crate).

use crate::json::Json;

/// The phases of an [`Event::ServeSpan`], in pipeline order: its duration
/// fields are these names with an `_ns` suffix.
pub const SERVE_PHASES: [&str; 6] = ["decode", "queue", "cache", "translate", "solve", "write"];

/// One structured trace event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// The simulator delivered in-flight message `seq` from `from` to `to`
    /// at logical step `step`. `view_changed` is whether the receiver's
    /// view changed (triggering a re-broadcast).
    Deliver {
        /// Logical simulation step (counts deliver/bid/drop transitions).
        step: u64,
        /// Sender agent index.
        from: u32,
        /// Receiver agent index.
        to: u32,
        /// The sender's broadcast sequence number.
        seq: u64,
        /// Whether the receiver's view changed.
        view_changed: bool,
    },
    /// Agent `agent` ran its bidding phase at step `step`; `placed` is
    /// whether it placed bids (and broadcast).
    Bid {
        /// Logical simulation step.
        step: u64,
        /// The bidding agent's index.
        agent: u32,
        /// Whether the bidding phase placed bids.
        placed: bool,
    },
    /// Fault injection dropped message `seq` from `from` to `to`.
    MessageDropped {
        /// Logical simulation step.
        step: u64,
        /// Sender agent index.
        from: u32,
        /// Receiver agent index.
        to: u32,
        /// The dropped message's sequence number.
        seq: u64,
    },
    /// Fault injection re-enqueued (duplicated) message `seq`.
    MessageDuplicated {
        /// Logical simulation step.
        step: u64,
        /// Sender agent index.
        from: u32,
        /// Receiver agent index.
        to: u32,
        /// The duplicated message's sequence number.
        seq: u64,
    },
    /// A simulation run finished (quiesced or hit its bound).
    Converged {
        /// Logical step at which the run ended.
        step: u64,
        /// Total messages delivered over the run.
        delivered: u64,
        /// Whether the run quiesced in a conflict-free consensus state.
        consensus: bool,
    },
    /// Periodic checker progress: emitted every N distinct states.
    CheckerProgress {
        /// Distinct (normalized) states explored so far.
        states_explored: u64,
        /// Depth (delivered messages) of the state being expanded.
        frontier_depth: u64,
    },
    /// The checker finished.
    CheckerDone {
        /// Distinct states explored in total.
        states_explored: u64,
        /// The longest execution, in delivered messages.
        max_messages: u64,
        /// Verdict kind (`"converges"`, `"no-consensus"`, …).
        verdict: String,
    },
    /// The encoder translated one relation to CNF.
    RelationEncoded {
        /// The relation's name.
        relation: String,
        /// The relation's arity.
        arity: u64,
        /// Primary (free-tuple) variables allocated for the relation.
        vars: u64,
        /// CNF clauses mentioning at least one of those variables.
        clauses: u64,
    },
    /// A whole problem finished translating to CNF.
    EncodingDone {
        /// Human label for the encoding (e.g. `"naive (Int + ternary)"`).
        encoding: String,
        /// Primary (free-tuple) variables.
        primary_vars: u64,
        /// Total CNF variables after Tseitin transformation.
        cnf_vars: u64,
        /// Total CNF clauses.
        cnf_clauses: u64,
    },
    /// The SAT preprocessor (unit propagation + subsumption +
    /// self-subsuming resolution) finished simplifying a formula.
    SimplifyDone {
        /// Human label for the formula (e.g. `"e8:3x2:optimized+pre"`).
        label: String,
        /// Clauses removed by subsumption.
        subsumed: u64,
        /// Literals removed by self-subsuming resolution.
        strengthened_literals: u64,
        /// Literals removed by unit propagation.
        propagated_literals: u64,
        /// Clauses removed because a unit satisfied them.
        satisfied_clauses: u64,
        /// Whether preprocessing alone refuted the formula.
        found_unsat: bool,
    },
    /// One query of an incremental solving session finished: the shared
    /// clause prefix was reused and the query was activated via an
    /// assumption literal.
    IncrementalSolve {
        /// Human label for the session (e.g. `"e8:3x2:sweep"`).
        label: String,
        /// Zero-based query index within the session.
        query: u64,
        /// Whether the query's assertion was valid (UNSAT under the
        /// assumption).
        valid: bool,
        /// The session solver's cumulative conflict count after the query.
        conflicts: u64,
    },
    /// A hierarchical profiling span opened. Spans are the deliberate
    /// exception to the no-wall-clock rule: `t_ns` is a monotonic offset
    /// from the emitting [`SpanRecorder`](crate::span::SpanRecorder)'s
    /// epoch, so span events appear only in opt-in profiling traces, never
    /// in the reproducible event stream.
    SpanEnter {
        /// Trace-unique span id (allocation order).
        id: u64,
        /// The enclosing open span, if any.
        parent: Option<u64>,
        /// Span name (e.g. `"sat.solve"`, `"relalg.encode"`).
        name: String,
        /// Monotonic nanoseconds since the recorder's epoch.
        t_ns: u64,
    },
    /// The matching close of a [`SpanEnter`](Event::SpanEnter), carrying
    /// the span's resource-accounting fields (counts and byte/KiB sizes),
    /// flattened into the JSON object.
    SpanExit {
        /// The id from the matching [`SpanEnter`](Event::SpanEnter).
        id: u64,
        /// Monotonic nanoseconds since the recorder's epoch.
        t_ns: u64,
        /// Resource fields attached at exit, in attachment order.
        fields: Vec<(String, u64)>,
    },
    /// One diagnostic produced by the `mca-lint` static analyzer.
    LintFinding {
        /// Stable rule id (e.g. `"M001"`, `"C002"`, `"V001"`).
        rule: String,
        /// Severity label: `"error"`, `"warning"` or `"info"`.
        severity: String,
        /// Pipeline layer the finding is about: `"model"`, `"relalg"`,
        /// `"cnf"` or `"source"`.
        layer: String,
        /// Where in that layer (relation name, component index, file path…).
        location: String,
        /// Human-readable statement of the problem.
        message: String,
        /// Suggested fix, empty when the rule has none.
        suggestion: String,
    },
    /// A whole lint run finished over one analysis target.
    LintDone {
        /// Human label for the analyzed target (e.g. `"e8:2x2:optimized"`).
        target: String,
        /// Findings with error severity.
        errors: u64,
        /// Findings with warning severity.
        warnings: u64,
        /// Findings with info severity.
        infos: u64,
    },
    /// The verification service accepted one wire request. Request ids are
    /// assigned in accept order, so a drained trace is deterministic for a
    /// fixed request sequence regardless of which connection thread served
    /// it.
    ServeRequest {
        /// Service-assigned request id (accept order).
        req: u64,
        /// Request kind tag (`"ping"`, `"check"`, `"lint"`, `"stats"`,
        /// `"shutdown"`).
        kind: String,
        /// The content-addressed cache key, empty for uncacheable kinds.
        key: String,
    },
    /// The verification service finished one request.
    ServeResponse {
        /// Service-assigned request id.
        req: u64,
        /// Outcome label (`"ok"` or `"error"`).
        outcome: String,
        /// Cache disposition: `"miss"`, `"verdict-hit"`, or `"-"` for
        /// uncacheable kinds.
        cache: String,
    },
    /// One operation on the service's content-addressed result cache.
    ServeCache {
        /// Cache tier: always `"verdict"`, the service's one cache.
        tier: String,
        /// Operation: `"hit"`, `"miss"`, `"insert"`, or `"evict"`.
        op: String,
        /// The content-addressed cache key.
        key: String,
    },
    /// Per-request latency attribution from the verification service.
    /// Carries wall-clock durations, so it belongs to the **opt-in
    /// non-deterministic stream** (like `span-enter`/`span-exit`): the
    /// service emits it only when event recording is on.
    ServeSpan {
        /// Service-assigned request id.
        req: u64,
        /// Request kind tag.
        kind: String,
        /// End-to-end service time (frame read → response encoded).
        total_ns: u64,
        /// Request body decode.
        decode_ns: u64,
        /// Admission wait: for a queue slot, then a compute slot.
        queue_ns: u64,
        /// Content-addressed cache lookups/stores.
        cache_ns: u64,
        /// Model build + translation to CNF.
        translate_ns: u64,
        /// SAT solving (or lint analysis).
        solve_ns: u64,
        /// Response encode.
        write_ns: u64,
    },
}

impl Event {
    /// The event's kind tag — the `"event"` field of its JSON rendering.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::Deliver { .. } => "deliver",
            Event::Bid { .. } => "bid",
            Event::MessageDropped { .. } => "drop",
            Event::MessageDuplicated { .. } => "duplicate",
            Event::Converged { .. } => "converged",
            Event::CheckerProgress { .. } => "checker-progress",
            Event::CheckerDone { .. } => "checker-done",
            Event::RelationEncoded { .. } => "relation-encoded",
            Event::EncodingDone { .. } => "encoding-done",
            Event::SimplifyDone { .. } => "simplify-done",
            Event::IncrementalSolve { .. } => "incremental-solve",
            Event::SpanEnter { .. } => "span-enter",
            Event::SpanExit { .. } => "span-exit",
            Event::LintFinding { .. } => "lint-finding",
            Event::LintDone { .. } => "lint-done",
            Event::ServeRequest { .. } => "serve-request",
            Event::ServeResponse { .. } => "serve-response",
            Event::ServeCache { .. } => "serve-cache",
            Event::ServeSpan { .. } => "serve-span",
        }
    }

    /// The event as a [`Json`] object. Field order is fixed per variant, so
    /// rendering is deterministic.
    pub fn to_json(&self) -> Json {
        let kind = Json::from(self.kind());
        match *self {
            Event::Deliver {
                step,
                from,
                to,
                seq,
                view_changed,
            } => Json::obj([
                ("event", kind),
                ("step", step.into()),
                ("from", from.into()),
                ("to", to.into()),
                ("seq", seq.into()),
                ("view_changed", view_changed.into()),
            ]),
            Event::Bid {
                step,
                agent,
                placed,
            } => Json::obj([
                ("event", kind),
                ("step", step.into()),
                ("agent", agent.into()),
                ("placed", placed.into()),
            ]),
            Event::MessageDropped {
                step,
                from,
                to,
                seq,
            } => Json::obj([
                ("event", kind),
                ("step", step.into()),
                ("from", from.into()),
                ("to", to.into()),
                ("seq", seq.into()),
            ]),
            Event::MessageDuplicated {
                step,
                from,
                to,
                seq,
            } => Json::obj([
                ("event", kind),
                ("step", step.into()),
                ("from", from.into()),
                ("to", to.into()),
                ("seq", seq.into()),
            ]),
            Event::Converged {
                step,
                delivered,
                consensus,
            } => Json::obj([
                ("event", kind),
                ("step", step.into()),
                ("delivered", delivered.into()),
                ("consensus", consensus.into()),
            ]),
            Event::CheckerProgress {
                states_explored,
                frontier_depth,
            } => Json::obj([
                ("event", kind),
                ("states_explored", states_explored.into()),
                ("frontier_depth", frontier_depth.into()),
            ]),
            Event::CheckerDone {
                states_explored,
                max_messages,
                ref verdict,
            } => Json::obj([
                ("event", kind),
                ("states_explored", states_explored.into()),
                ("max_messages", max_messages.into()),
                ("verdict", verdict.as_str().into()),
            ]),
            Event::RelationEncoded {
                ref relation,
                arity,
                vars,
                clauses,
            } => Json::obj([
                ("event", kind),
                ("relation", relation.as_str().into()),
                ("arity", arity.into()),
                ("vars", vars.into()),
                ("clauses", clauses.into()),
            ]),
            Event::EncodingDone {
                ref encoding,
                primary_vars,
                cnf_vars,
                cnf_clauses,
            } => Json::obj([
                ("event", kind),
                ("encoding", encoding.as_str().into()),
                ("primary_vars", primary_vars.into()),
                ("cnf_vars", cnf_vars.into()),
                ("cnf_clauses", cnf_clauses.into()),
            ]),
            Event::SimplifyDone {
                ref label,
                subsumed,
                strengthened_literals,
                propagated_literals,
                satisfied_clauses,
                found_unsat,
            } => Json::obj([
                ("event", kind),
                ("label", label.as_str().into()),
                ("subsumed", subsumed.into()),
                ("strengthened_literals", strengthened_literals.into()),
                ("propagated_literals", propagated_literals.into()),
                ("satisfied_clauses", satisfied_clauses.into()),
                ("found_unsat", found_unsat.into()),
            ]),
            Event::IncrementalSolve {
                ref label,
                query,
                valid,
                conflicts,
            } => Json::obj([
                ("event", kind),
                ("label", label.as_str().into()),
                ("query", query.into()),
                ("valid", valid.into()),
                ("conflicts", conflicts.into()),
            ]),
            Event::SpanEnter {
                id,
                parent,
                ref name,
                t_ns,
            } => Json::obj([
                ("event", kind),
                ("id", id.into()),
                ("parent", parent.map_or(Json::Null, Json::from)),
                ("name", name.as_str().into()),
                ("t_ns", t_ns.into()),
            ]),
            Event::SpanExit {
                id,
                t_ns,
                ref fields,
            } => {
                let mut pairs = vec![
                    ("event".to_string(), kind),
                    ("id".to_string(), id.into()),
                    ("t_ns".to_string(), t_ns.into()),
                ];
                for (name, value) in fields {
                    pairs.push((name.clone(), (*value).into()));
                }
                Json::Object(pairs)
            }
            Event::LintFinding {
                ref rule,
                ref severity,
                ref layer,
                ref location,
                ref message,
                ref suggestion,
            } => Json::obj([
                ("event", kind),
                ("rule", rule.as_str().into()),
                ("severity", severity.as_str().into()),
                ("layer", layer.as_str().into()),
                ("location", location.as_str().into()),
                ("message", message.as_str().into()),
                ("suggestion", suggestion.as_str().into()),
            ]),
            Event::LintDone {
                ref target,
                errors,
                warnings,
                infos,
            } => Json::obj([
                ("event", kind),
                ("target", target.as_str().into()),
                ("errors", errors.into()),
                ("warnings", warnings.into()),
                ("infos", infos.into()),
            ]),
            Event::ServeRequest {
                req,
                kind: ref kind_tag,
                ref key,
            } => Json::obj([
                ("event", kind),
                ("req", req.into()),
                ("kind", kind_tag.as_str().into()),
                ("key", key.as_str().into()),
            ]),
            Event::ServeResponse {
                req,
                ref outcome,
                ref cache,
            } => Json::obj([
                ("event", kind),
                ("req", req.into()),
                ("outcome", outcome.as_str().into()),
                ("cache", cache.as_str().into()),
            ]),
            Event::ServeCache {
                ref tier,
                ref op,
                ref key,
            } => Json::obj([
                ("event", kind),
                ("tier", tier.as_str().into()),
                ("op", op.as_str().into()),
                ("key", key.as_str().into()),
            ]),
            Event::ServeSpan {
                req,
                kind: ref kind_tag,
                total_ns,
                decode_ns,
                queue_ns,
                cache_ns,
                translate_ns,
                solve_ns,
                write_ns,
            } => Json::obj([
                ("event", kind),
                ("req", req.into()),
                ("kind", kind_tag.as_str().into()),
                ("total_ns", total_ns.into()),
                ("decode_ns", decode_ns.into()),
                ("queue_ns", queue_ns.into()),
                ("cache_ns", cache_ns.into()),
                ("translate_ns", translate_ns.into()),
                ("solve_ns", solve_ns.into()),
                ("write_ns", write_ns.into()),
            ]),
        }
    }

    /// The event as one line of JSON (no trailing newline).
    pub fn to_json_line(&self) -> String {
        self.to_json().render()
    }
}

#[cfg(test)]
mod tests {
    use super::Event;

    #[test]
    fn deliver_renders_stably() {
        let e = Event::Deliver {
            step: 3,
            from: 0,
            to: 1,
            seq: 2,
            view_changed: true,
        };
        assert_eq!(
            e.to_json_line(),
            r#"{"event":"deliver","step":3,"from":0,"to":1,"seq":2,"view_changed":true}"#
        );
    }

    #[test]
    fn kinds_are_distinct() {
        let kinds = [
            Event::Bid {
                step: 0,
                agent: 0,
                placed: false,
            }
            .kind(),
            Event::MessageDropped {
                step: 0,
                from: 0,
                to: 0,
                seq: 0,
            }
            .kind(),
            Event::MessageDuplicated {
                step: 0,
                from: 0,
                to: 0,
                seq: 0,
            }
            .kind(),
            Event::CheckerProgress {
                states_explored: 0,
                frontier_depth: 0,
            }
            .kind(),
        ];
        let unique: std::collections::BTreeSet<_> = kinds.iter().collect();
        assert_eq!(unique.len(), kinds.len());
    }

    #[test]
    fn preprocessing_events_render_stably() {
        let simplify = Event::SimplifyDone {
            label: "e8:2x2:optimized+pre".into(),
            subsumed: 4,
            strengthened_literals: 2,
            propagated_literals: 17,
            satisfied_clauses: 9,
            found_unsat: false,
        };
        assert_eq!(
            simplify.to_json_line(),
            r#"{"event":"simplify-done","label":"e8:2x2:optimized+pre","subsumed":4,"strengthened_literals":2,"propagated_literals":17,"satisfied_clauses":9,"found_unsat":false}"#
        );
        let inc = Event::IncrementalSolve {
            label: "e8:2x2:sweep".into(),
            query: 3,
            valid: true,
            conflicts: 120,
        };
        assert_eq!(
            inc.to_json_line(),
            r#"{"event":"incremental-solve","label":"e8:2x2:sweep","query":3,"valid":true,"conflicts":120}"#
        );
        assert_ne!(simplify.kind(), inc.kind());
    }

    #[test]
    fn span_events_render_stably() {
        let root = Event::SpanEnter {
            id: 0,
            parent: None,
            name: "sat.solve".into(),
            t_ns: 12,
        };
        assert_eq!(
            root.to_json_line(),
            r#"{"event":"span-enter","id":0,"parent":null,"name":"sat.solve","t_ns":12}"#
        );
        let child = Event::SpanEnter {
            id: 1,
            parent: Some(0),
            name: "sat.restart-epoch".into(),
            t_ns: 20,
        };
        assert_eq!(
            child.to_json_line(),
            r#"{"event":"span-enter","id":1,"parent":0,"name":"sat.restart-epoch","t_ns":20}"#
        );
        let exit = Event::SpanExit {
            id: 1,
            t_ns: 95,
            fields: vec![("conflicts".into(), 4), ("clause_db_bytes".into(), 1024)],
        };
        assert_eq!(
            exit.to_json_line(),
            r#"{"event":"span-exit","id":1,"t_ns":95,"conflicts":4,"clause_db_bytes":1024}"#
        );
    }

    #[test]
    fn lint_events_render_stably() {
        let finding = Event::LintFinding {
            rule: "R001".into(),
            severity: "warning".into(),
            layer: "relalg".into(),
            location: "relation `ghost`".into(),
            message: "declared but never referenced by any fact or assertion".into(),
            suggestion: "remove the declaration or constrain it".into(),
        };
        assert_eq!(
            finding.to_json_line(),
            r#"{"event":"lint-finding","rule":"R001","severity":"warning","layer":"relalg","location":"relation `ghost`","message":"declared but never referenced by any fact or assertion","suggestion":"remove the declaration or constrain it"}"#
        );
        let done = Event::LintDone {
            target: "e8:2x2:optimized".into(),
            errors: 0,
            warnings: 1,
            infos: 2,
        };
        assert_eq!(
            done.to_json_line(),
            r#"{"event":"lint-done","target":"e8:2x2:optimized","errors":0,"warnings":1,"infos":2}"#
        );
        assert_ne!(finding.kind(), done.kind());
    }

    #[test]
    fn serve_events_render_stably() {
        let req = Event::ServeRequest {
            req: 7,
            kind: "check".into(),
            key: "check/deadbeef/2x2/optimized/default".into(),
        };
        assert_eq!(
            req.to_json_line(),
            r#"{"event":"serve-request","req":7,"kind":"check","key":"check/deadbeef/2x2/optimized/default"}"#
        );
        let resp = Event::ServeResponse {
            req: 7,
            outcome: "ok".into(),
            cache: "verdict-hit".into(),
        };
        assert_eq!(
            resp.to_json_line(),
            r#"{"event":"serve-response","req":7,"outcome":"ok","cache":"verdict-hit"}"#
        );
        let cache = Event::ServeCache {
            tier: "verdict".into(),
            op: "evict".into(),
            key: "check/deadbeef/2x2/optimized/default".into(),
        };
        assert_eq!(
            cache.to_json_line(),
            r#"{"event":"serve-cache","tier":"verdict","op":"evict","key":"check/deadbeef/2x2/optimized/default"}"#
        );
        let span = Event::ServeSpan {
            req: 7,
            kind: "check".into(),
            total_ns: 1000,
            decode_ns: 10,
            queue_ns: 20,
            cache_ns: 30,
            translate_ns: 400,
            solve_ns: 500,
            write_ns: 40,
        };
        assert_eq!(
            span.to_json_line(),
            r#"{"event":"serve-span","req":7,"kind":"check","total_ns":1000,"decode_ns":10,"queue_ns":20,"cache_ns":30,"translate_ns":400,"solve_ns":500,"write_ns":40}"#
        );
        assert_eq!(span.kind(), "serve-span");
        let kinds = [req.kind(), resp.kind(), cache.kind()];
        let unique: std::collections::BTreeSet<_> = kinds.iter().collect();
        assert_eq!(unique.len(), kinds.len());
    }

    #[test]
    fn no_event_field_is_wall_clock() {
        // Events must be reproducible across runs: the JSON rendering of a
        // fixed event is a pure function of its payload.
        let e = Event::IncrementalSolve {
            label: "e8:2x2:sweep".into(),
            query: 3,
            valid: true,
            conflicts: 100,
        };
        assert_eq!(e.to_json_line(), e.to_json_line());
    }
}
