//! JSONL trace parsing and span-tree reconstruction.
//!
//! The parser is deliberately forgiving: a profiling trace may be
//! truncated (killed run), interleaved (post-hoc replay bugs), or hand
//! edited. Every irregularity is recorded as a human-readable diagnostic
//! on the [`ParsedTrace`] instead of failing the whole report.

use mca_obs::Json;
use std::collections::BTreeMap;
use std::collections::HashMap;
use std::fmt::Write as _;

/// One reconstructed span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanNode {
    /// The span's trace id.
    pub id: u64,
    /// The span's name (e.g. `"sat.solve"`).
    pub name: String,
    /// Parent span id, if any survived validation.
    pub parent: Option<u64>,
    /// Enter timestamp (ns from the recorder's epoch).
    pub start_ns: u64,
    /// Exit timestamp. For unclosed spans this is the auto-close time
    /// (the latest timestamp seen anywhere in the trace) and
    /// [`closed`](SpanNode::closed) is `false`.
    pub end_ns: u64,
    /// `false` if the trace ended without this span's `span-exit`.
    pub closed: bool,
    /// Resource fields from the exit event, in trace order.
    pub fields: Vec<(String, u64)>,
    /// Indices (into [`ParsedTrace::spans`]) of child spans, in enter
    /// order.
    pub children: Vec<usize>,
}

impl SpanNode {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The value of the exit field `key`, if the span has one.
    pub fn field(&self, key: &str) -> Option<u64> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
    }
}

/// Tallies of the `serve-*` events an mca-serve daemon writes with
/// `repro serve --trace` — the report's "Service" section reads these.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// `serve-request` events (one per frame assigned a request id).
    pub requests: u64,
    /// Requests per kind (`check`, `lint`, `ping`, `stats`, `shutdown`,
    /// `invalid`).
    pub requests_by_kind: BTreeMap<String, u64>,
    /// `serve-response` events with outcome `ok`.
    pub responses_ok: u64,
    /// `serve-response` events with outcome `error`.
    pub responses_err: u64,
    /// Responses per cache disposition (`miss`, `verdict-hit`; `-` for
    /// non-cacheable request kinds).
    pub responses_by_cache: BTreeMap<String, u64>,
    /// `serve-cache` operations per `tier/op` pair (e.g.
    /// `verdict/hit`, `verdict/insert`, `verdict/evict`).
    pub cache_ops: BTreeMap<String, u64>,
}

impl ServeSummary {
    /// `true` when the trace contained no `serve-*` events at all.
    pub fn is_empty(&self) -> bool {
        self.requests == 0 && self.responses_ok == 0 && self.responses_err == 0
    }
}

/// A parsed trace: the span forest plus everything else the report shows.
#[derive(Clone, Debug, Default)]
pub struct ParsedTrace {
    /// All spans, in enter order.
    pub spans: Vec<SpanNode>,
    /// Indices of root spans (no surviving parent), in enter order.
    pub roots: Vec<usize>,
    /// Count of every event kind seen (including span events).
    pub event_counts: BTreeMap<String, u64>,
    /// Tallies of `serve-*` events (empty unless the trace came from an
    /// mca-serve daemon).
    pub serve: ServeSummary,
    /// Irregularities found while parsing — never fatal.
    pub diagnostics: Vec<String>,
    /// Total lines read (including blank and malformed ones).
    pub lines: usize,
}

impl ParsedTrace {
    /// Parses a JSONL trace. Never fails: malformed lines and structural
    /// problems in the span stream become [`diagnostics`](ParsedTrace::diagnostics).
    pub fn parse(text: &str) -> ParsedTrace {
        let mut out = ParsedTrace::default();
        let mut index_of: HashMap<u64, usize> = HashMap::new();
        let mut open: HashMap<u64, ()> = HashMap::new();
        let mut max_ts = 0u64;
        for (lineno, line) in text.lines().enumerate() {
            out.lines += 1;
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let value = match Json::parse(line) {
                Ok(v) => v,
                Err(e) => {
                    out.diagnostics
                        .push(format!("line {}: unparseable JSON ({e})", lineno + 1));
                    continue;
                }
            };
            let kind = match value.get("event").and_then(Json::as_str) {
                Some(k) => k.to_string(),
                None => {
                    out.diagnostics.push(format!(
                        "line {}: JSON object without an `event` field",
                        lineno + 1
                    ));
                    continue;
                }
            };
            *out.event_counts.entry(kind.clone()).or_insert(0) += 1;
            match kind.as_str() {
                "span-enter" => {
                    let (Some(id), Some(name), Some(t_ns)) = (
                        value.get("id").and_then(Json::as_u64),
                        value.get("name").and_then(Json::as_str),
                        value.get("t_ns").and_then(Json::as_u64),
                    ) else {
                        out.diagnostics.push(format!(
                            "line {}: span-enter missing id/name/t_ns",
                            lineno + 1
                        ));
                        continue;
                    };
                    max_ts = max_ts.max(t_ns);
                    if index_of.contains_key(&id) {
                        out.diagnostics
                            .push(format!("line {}: duplicate span id {id}", lineno + 1));
                        continue;
                    }
                    let parent = value.get("parent").and_then(Json::as_u64);
                    let parent = match parent {
                        Some(p) if !index_of.contains_key(&p) => {
                            out.diagnostics.push(format!(
                                "line {}: span {id} references unknown parent {p}; treating as root",
                                lineno + 1
                            ));
                            None
                        }
                        other => other,
                    };
                    let index = out.spans.len();
                    out.spans.push(SpanNode {
                        id,
                        name: name.to_string(),
                        parent,
                        start_ns: t_ns,
                        end_ns: t_ns,
                        closed: false,
                        fields: Vec::new(),
                        children: Vec::new(),
                    });
                    index_of.insert(id, index);
                    open.insert(id, ());
                    match parent {
                        Some(p) => {
                            let pi = index_of[&p];
                            out.spans[pi].children.push(index);
                        }
                        None => out.roots.push(index),
                    }
                }
                "span-exit" => {
                    let (Some(id), Some(t_ns)) = (
                        value.get("id").and_then(Json::as_u64),
                        value.get("t_ns").and_then(Json::as_u64),
                    ) else {
                        out.diagnostics
                            .push(format!("line {}: span-exit missing id/t_ns", lineno + 1));
                        continue;
                    };
                    max_ts = max_ts.max(t_ns);
                    let Some(&index) = index_of.get(&id) else {
                        out.diagnostics.push(format!(
                            "line {}: orphan span-exit for unknown span {id}",
                            lineno + 1
                        ));
                        continue;
                    };
                    if open.remove(&id).is_none() {
                        out.diagnostics.push(format!(
                            "line {}: span {id} closed more than once",
                            lineno + 1
                        ));
                        continue;
                    }
                    let node = &mut out.spans[index];
                    node.end_ns = t_ns.max(node.start_ns);
                    node.closed = true;
                    if let Json::Object(pairs) = &value {
                        for (k, v) in pairs {
                            if matches!(k.as_str(), "event" | "id" | "t_ns") {
                                continue;
                            }
                            if let Some(n) = v.as_u64() {
                                node.fields.push((k.clone(), n));
                            }
                        }
                    }
                }
                "serve-request" => {
                    out.serve.requests += 1;
                    let kind = value
                        .get("kind")
                        .and_then(Json::as_str)
                        .unwrap_or("unknown");
                    *out.serve
                        .requests_by_kind
                        .entry(kind.to_string())
                        .or_insert(0) += 1;
                }
                "serve-response" => {
                    match value.get("outcome").and_then(Json::as_str) {
                        Some("ok") => out.serve.responses_ok += 1,
                        _ => out.serve.responses_err += 1,
                    }
                    let cache = value.get("cache").and_then(Json::as_str).unwrap_or("-");
                    *out.serve
                        .responses_by_cache
                        .entry(cache.to_string())
                        .or_insert(0) += 1;
                }
                "serve-cache" => {
                    let tier = value.get("tier").and_then(Json::as_str).unwrap_or("?");
                    let op = value.get("op").and_then(Json::as_str).unwrap_or("?");
                    *out.serve
                        .cache_ops
                        .entry(format!("{tier}/{op}"))
                        .or_insert(0) += 1;
                }
                _ => {}
            }
        }
        // Auto-close anything the trace left open so durations stay
        // renderable; flag each one. A truncated span must not outlive a
        // parent whose exit DID make it into the trace — clamping to the
        // nearest closed ancestor keeps that ancestor's self-time honest
        // instead of letting the orphan swallow it.
        let mut unclosed: Vec<u64> = open.into_keys().collect();
        unclosed.sort_unstable();
        for id in unclosed {
            let index = index_of[&id];
            let mut limit = max_ts;
            let mut ancestor = out.spans[index].parent;
            while let Some(pid) = ancestor {
                let p = &out.spans[index_of[&pid]];
                if p.closed {
                    limit = limit.min(p.end_ns);
                    break;
                }
                ancestor = p.parent;
            }
            let node = &mut out.spans[index];
            node.end_ns = limit.max(node.start_ns);
            out.diagnostics.push(format!(
                "span {id} (`{}`) never exited; auto-closed at {}",
                node.name,
                if limit < max_ts {
                    "its closed ancestor's exit"
                } else {
                    "the last trace timestamp"
                }
            ));
        }
        out
    }

    /// Sum of root-span durations in nanoseconds — the profiled share of
    /// the run, to reconcile against wall clock.
    pub fn root_total_ns(&self) -> u64 {
        self.roots
            .iter()
            .map(|&i| self.spans[i].duration_ns())
            .sum()
    }

    /// The trace's span extent: latest exit minus earliest enter, in
    /// nanoseconds (0 with no spans).
    pub fn extent_ns(&self) -> u64 {
        let start = self.spans.iter().map(|s| s.start_ns).min();
        let end = self.spans.iter().map(|s| s.end_ns).max();
        match (start, end) {
            (Some(s), Some(e)) => e.saturating_sub(s),
            _ => 0,
        }
    }

    /// A span's self time: its duration minus its children's durations
    /// (clamped at zero against clock jitter).
    pub fn self_ns(&self, index: usize) -> u64 {
        let node = &self.spans[index];
        let child_total: u64 = node
            .children
            .iter()
            .map(|&c| self.spans[c].duration_ns())
            .sum();
        node.duration_ns().saturating_sub(child_total)
    }

    /// A canonical, timestamp-free rendering of the span forest: names,
    /// nesting, and exit fields, one line per span. Two runs of the same
    /// deterministic workload produce identical outlines regardless of
    /// wall-clock timings or thread count — the determinism tests compare
    /// these byte-for-byte.
    ///
    /// Machine-dependent fields (`peak_rss_kb`, `clause_db_bytes`,
    /// `clause_allocs`, the scheduling-accident `worker`, a batch's
    /// thread-count-dependent `workers`, the proof checker's
    /// race-dependent `pending_steps`, and any wall-clock `*_ns` field)
    /// are reduced to their names; deterministic fields keep their values.
    pub fn outline(&self) -> String {
        let mut out = String::new();
        for &root in &self.roots {
            self.outline_into(root, 0, &mut out);
        }
        out
    }

    fn outline_into(&self, index: usize, depth: usize, out: &mut String) {
        let node = &self.spans[index];
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str(&node.name);
        if !node.closed {
            out.push_str(" [unclosed]");
        }
        for (k, v) in &node.fields {
            if matches!(
                k.as_str(),
                "peak_rss_kb"
                    | "clause_db_bytes"
                    | "clause_allocs"
                    | "worker"
                    | "workers"
                    | "pending_steps"
            ) || k.ends_with("_ns")
            {
                let _ = write!(out, " {k}");
            } else {
                let _ = write!(out, " {k}={v}");
            }
        }
        out.push('\n');
        for &child in &node.children {
            self.outline_into(child, depth + 1, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enter(id: u64, parent: Option<u64>, name: &str, t: u64) -> String {
        let parent = parent.map_or("null".to_string(), |p| p.to_string());
        format!(
            r#"{{"event":"span-enter","id":{id},"parent":{parent},"name":"{name}","t_ns":{t}}}"#
        )
    }

    fn exit(id: u64, t: u64) -> String {
        format!(r#"{{"event":"span-exit","id":{id},"t_ns":{t}}}"#)
    }

    #[test]
    fn reconstructs_a_nested_tree() {
        let trace = [
            enter(0, None, "root", 0),
            enter(1, Some(0), "child", 10),
            exit(1, 40),
            enter(2, Some(0), "child", 50),
            exit(2, 60),
            exit(0, 100),
        ]
        .join("\n");
        let parsed = ParsedTrace::parse(&trace);
        assert!(parsed.diagnostics.is_empty(), "{:?}", parsed.diagnostics);
        assert_eq!(parsed.roots, vec![0]);
        assert_eq!(parsed.spans[0].children, vec![1, 2]);
        assert_eq!(parsed.spans[0].duration_ns(), 100);
        assert_eq!(parsed.self_ns(0), 60);
        assert_eq!(parsed.root_total_ns(), 100);
        assert_eq!(parsed.extent_ns(), 100);
    }

    #[test]
    fn exit_fields_are_captured() {
        let trace = [
            enter(0, None, "sat.solve", 0),
            r#"{"event":"span-exit","id":0,"t_ns":9,"conflicts":7,"peak_rss_kb":4096}"#.to_string(),
        ]
        .join("\n");
        let parsed = ParsedTrace::parse(&trace);
        assert_eq!(
            parsed.spans[0].fields,
            vec![
                ("conflicts".to_string(), 7),
                ("peak_rss_kb".to_string(), 4096)
            ]
        );
    }

    #[test]
    fn orphan_exit_is_a_diagnostic_not_a_panic() {
        let parsed = ParsedTrace::parse(&exit(42, 10));
        assert!(parsed.spans.is_empty());
        assert_eq!(parsed.diagnostics.len(), 1);
        assert!(
            parsed.diagnostics[0].contains("orphan"),
            "{:?}",
            parsed.diagnostics
        );
    }

    #[test]
    fn unclosed_span_is_auto_closed_with_diagnostic() {
        let trace = [enter(0, None, "root", 5), enter(1, Some(0), "hang", 10)].join("\n");
        let parsed = ParsedTrace::parse(&trace);
        assert_eq!(parsed.diagnostics.len(), 2);
        assert!(!parsed.spans[0].closed);
        assert!(!parsed.spans[1].closed);
        assert_eq!(parsed.spans[1].end_ns, 10);
        assert!(parsed.outline().contains("[unclosed]"));
    }

    #[test]
    fn double_close_and_duplicate_id_are_diagnostics() {
        let trace = [
            enter(0, None, "a", 0),
            exit(0, 5),
            exit(0, 6),
            enter(0, None, "a-again", 7),
        ]
        .join("\n");
        let parsed = ParsedTrace::parse(&trace);
        assert_eq!(parsed.spans.len(), 1);
        assert!(parsed
            .diagnostics
            .iter()
            .any(|d| d.contains("closed more than once")));
        assert!(parsed
            .diagnostics
            .iter()
            .any(|d| d.contains("duplicate span id")));
    }

    #[test]
    fn unknown_parent_becomes_root_with_diagnostic() {
        let trace = [enter(5, Some(99), "lost", 0), exit(5, 3)].join("\n");
        let parsed = ParsedTrace::parse(&trace);
        assert_eq!(parsed.roots, vec![0]);
        assert_eq!(parsed.spans[0].parent, None);
        assert!(parsed
            .diagnostics
            .iter()
            .any(|d| d.contains("unknown parent")));
    }

    #[test]
    fn garbage_lines_and_foreign_events_are_tolerated() {
        let trace = [
            "not json at all".to_string(),
            r#"{"no_event_field":1}"#.to_string(),
            r#"{"event":"deliver","step":1,"from":0,"to":1,"seq":1,"view_changed":true}"#
                .to_string(),
            enter(0, None, "root", 0),
            exit(0, 10),
        ]
        .join("\n");
        let parsed = ParsedTrace::parse(&trace);
        assert_eq!(parsed.spans.len(), 1);
        assert_eq!(parsed.event_counts.get("deliver"), Some(&1));
        assert_eq!(parsed.diagnostics.len(), 2);
        assert_eq!(parsed.lines, 5);
    }

    #[test]
    fn interleaved_sibling_exits_reconstruct_without_panics() {
        // Two spans under one root, exits out of enter order.
        let trace = [
            enter(0, None, "batch", 0),
            enter(1, Some(0), "job:a", 5),
            enter(2, Some(0), "job:b", 6),
            exit(1, 20),
            exit(2, 15),
            exit(0, 30),
        ]
        .join("\n");
        let parsed = ParsedTrace::parse(&trace);
        assert!(parsed.diagnostics.is_empty(), "{:?}", parsed.diagnostics);
        assert_eq!(parsed.spans[0].children, vec![1, 2]);
        assert_eq!(parsed.spans[2].duration_ns(), 9);
    }

    #[test]
    fn truncated_child_is_clamped_to_its_closed_parents_exit() {
        // `hang` never exits; a later sibling root pushes max_ts to 150.
        // Without clamping, `hang` would be auto-closed at 150 — past its
        // parent's exit at 100 — and `work`'s self-time would collapse to
        // zero. With clamping, attribution stays honest.
        let trace = [
            enter(0, None, "work", 0),
            enter(1, Some(0), "hang", 40),
            exit(0, 100),
            enter(2, None, "later", 120),
            exit(2, 150),
        ]
        .join("\n");
        let parsed = ParsedTrace::parse(&trace);
        assert!(!parsed.spans[1].closed);
        assert_eq!(parsed.spans[1].end_ns, 100, "clamped to parent exit");
        assert_eq!(parsed.self_ns(0), 40, "parent keeps its pre-child time");
        assert!(parsed
            .diagnostics
            .iter()
            .any(|d| d.contains("closed ancestor")));
        // An unclosed span with no closed ancestor still gets max_ts.
        let orphan =
            ParsedTrace::parse(&[enter(0, None, "root", 5), enter(1, Some(0), "h", 10)].join("\n"));
        assert_eq!(orphan.spans[0].end_ns, 10);
    }

    #[test]
    fn truncated_grandchild_skips_unclosed_parent_to_closed_grandparent() {
        let trace = [
            enter(0, None, "root", 0),
            enter(1, Some(0), "mid", 10),
            enter(2, Some(1), "leaf", 20),
            exit(0, 90),
            enter(3, None, "later", 100),
            exit(3, 400),
        ]
        .join("\n");
        let parsed = ParsedTrace::parse(&trace);
        // `mid` is unclosed too, so `leaf` clamps to `root`'s exit.
        assert_eq!(parsed.spans[2].end_ns, 90);
        assert_eq!(parsed.spans[1].end_ns, 90);
    }

    #[test]
    fn serve_events_are_tallied() {
        let trace = [
            r#"{"event":"serve-request","req":0,"kind":"check","key":"check/00/2x2/optimized/default"}"#,
            r#"{"event":"serve-cache","tier":"verdict","op":"miss","key":"check/00/2x2/optimized/default"}"#,
            r#"{"event":"serve-cache","tier":"verdict","op":"insert","key":"check/00/2x2/optimized/default"}"#,
            r#"{"event":"serve-response","req":0,"outcome":"ok","cache":"miss"}"#,
            r#"{"event":"serve-request","req":1,"kind":"check","key":"check/00/2x2/optimized/default"}"#,
            r#"{"event":"serve-cache","tier":"verdict","op":"hit","key":"check/00/2x2/optimized/default"}"#,
            r#"{"event":"serve-response","req":1,"outcome":"ok","cache":"verdict-hit"}"#,
            r#"{"event":"serve-request","req":2,"kind":"invalid","key":""}"#,
            r#"{"event":"serve-response","req":2,"outcome":"error","cache":"-"}"#,
        ]
        .join("\n");
        let parsed = ParsedTrace::parse(&trace);
        assert_eq!(parsed.serve.requests, 3);
        assert_eq!(parsed.serve.requests_by_kind.get("check"), Some(&2));
        assert_eq!(parsed.serve.requests_by_kind.get("invalid"), Some(&1));
        assert_eq!(parsed.serve.responses_ok, 2);
        assert_eq!(parsed.serve.responses_err, 1);
        assert_eq!(parsed.serve.responses_by_cache.get("verdict-hit"), Some(&1));
        assert_eq!(parsed.serve.cache_ops.get("verdict/hit"), Some(&1));
        assert_eq!(parsed.serve.cache_ops.get("verdict/insert"), Some(&1));
        assert!(!parsed.serve.is_empty());
        assert!(ParsedTrace::parse("").serve.is_empty());
    }

    #[test]
    fn outline_reduces_scheduling_and_wall_clock_fields_to_names() {
        let trace = [
            enter(0, None, "runtime.batch", 0),
            enter(1, Some(0), "runtime.job:cell", 0),
            r#"{"event":"span-exit","id":1,"t_ns":50,"job":3,"worker":1,"queue_wait_ns":420}"#
                .to_string(),
            r#"{"event":"span-exit","id":0,"t_ns":60,"workers":4}"#.to_string(),
        ]
        .join("\n");
        let outline = ParsedTrace::parse(&trace).outline();
        assert_eq!(
            outline,
            "runtime.batch workers\n  runtime.job:cell job=3 worker queue_wait_ns\n"
        );

        // How far the checker thread got by the end of the search is a
        // race; the proof length and the verdict are not.
        let trace = [
            enter(0, None, "sat.drat-check", 0),
            r#"{"event":"span-exit","id":0,"t_ns":50,"steps":672,"pending_steps":17,"verified":1}"#
                .to_string(),
        ]
        .join("\n");
        let outline = ParsedTrace::parse(&trace).outline();
        assert_eq!(
            outline,
            "sat.drat-check steps=672 pending_steps verified=1\n"
        );
    }

    #[test]
    fn outline_is_timestamp_free() {
        let a = [
            enter(0, None, "root", 0),
            enter(1, Some(0), "child", 10),
            r#"{"event":"span-exit","id":1,"t_ns":40,"conflicts":3,"peak_rss_kb":100}"#.to_string(),
            exit(0, 100),
        ]
        .join("\n");
        let b = [
            enter(0, None, "root", 7),
            enter(1, Some(0), "child", 900),
            r#"{"event":"span-exit","id":1,"t_ns":2000,"conflicts":3,"peak_rss_kb":999}"#
                .to_string(),
            exit(0, 5000),
        ]
        .join("\n");
        let oa = ParsedTrace::parse(&a).outline();
        let ob = ParsedTrace::parse(&b).outline();
        assert_eq!(oa, ob);
        assert_eq!(oa, "root\n  child conflicts=3 peak_rss_kb\n");
    }
}
