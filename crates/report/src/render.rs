//! Markdown / HTML rendering of parsed traces.
//!
//! The report is self-contained: one markdown document (optionally
//! wrapped in a minimal HTML page) with the span-tree time breakdown,
//! the top-k hot spans by self time, event-kind counts, the parse
//! diagnostics, and — when a metrics JSON is supplied — metrics and
//! solver-stat tables plus histogram sparklines.

use crate::trace::ParsedTrace;
use mca_obs::Json;
use std::fmt::Write as _;

/// Rendering knobs for [`render_markdown`].
#[derive(Clone, Debug)]
pub struct ReportOptions {
    /// How many hot spans to list.
    pub top: usize,
    /// Where the trace came from, shown in the header.
    pub source: String,
}

impl Default for ReportOptions {
    fn default() -> ReportOptions {
        ReportOptions {
            top: 10,
            source: String::new(),
        }
    }
}

fn ms(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e6)
}

fn pct(part: u64, whole: u64) -> String {
    if whole == 0 {
        "-".to_string()
    } else {
        format!("{:.1}%", part as f64 * 100.0 / whole as f64)
    }
}

/// Renders the markdown report.
pub fn render_markdown(
    trace: &ParsedTrace,
    metrics: Option<&Json>,
    opts: &ReportOptions,
) -> String {
    let mut out = String::new();
    out.push_str("# mca-report trace profile\n\n");
    if !opts.source.is_empty() {
        let _ = writeln!(out, "- source: `{}`", opts.source);
    }
    let total_events: u64 = trace.event_counts.values().sum();
    let _ = writeln!(
        out,
        "- lines: {}, events: {}, spans: {}",
        trace.lines,
        total_events,
        trace.spans.len()
    );
    let extent = trace.extent_ns();
    let roots = trace.root_total_ns();
    let _ = writeln!(out, "- span extent (wall clock): {} ms", ms(extent));
    let _ = writeln!(
        out,
        "- root-span total: {} ms ({} of extent)",
        ms(roots),
        pct(roots, extent)
    );
    out.push('\n');

    if !trace.spans.is_empty() {
        out.push_str("## Span tree\n\n");
        let root_indices: Vec<usize> = trace.roots.clone();
        render_level(trace, &root_indices, roots.max(1), 0, &mut out);
        out.push('\n');

        out.push_str("## Hot spans (by self time)\n\n");
        out.push_str("| rank | span | calls | self (ms) | total (ms) | self % |\n");
        out.push_str("|---:|---|---:|---:|---:|---:|\n");
        for (rank, (name, calls, self_ns, total_ns)) in
            hot_spans(trace).into_iter().take(opts.top).enumerate()
        {
            let _ = writeln!(
                out,
                "| {} | `{}` | {} | {} | {} | {} |",
                rank + 1,
                name,
                calls,
                ms(self_ns),
                ms(total_ns),
                pct(self_ns, roots.max(1)),
            );
        }
        out.push('\n');
    }

    if !trace.event_counts.is_empty() {
        out.push_str("## Event counts\n\n");
        out.push_str("| event | count |\n|---|---:|\n");
        for (kind, n) in &trace.event_counts {
            let _ = writeln!(out, "| `{kind}` | {n} |");
        }
        out.push('\n');
    }

    if !trace.serve.is_empty() {
        render_service(trace, &mut out);
    }

    if let Some(metrics) = metrics {
        render_metrics(metrics, &mut out);
    }

    if trace.diagnostics.is_empty() {
        out.push_str("## Diagnostics\n\nnone — the trace parsed cleanly.\n");
    } else {
        out.push_str("## Diagnostics\n\n");
        for d in &trace.diagnostics {
            let _ = writeln!(out, "- {d}");
        }
    }
    out
}

/// Aggregated hot spans: `(name, calls, self_ns, total_ns)` sorted by
/// self time, descending (name as tiebreaker for determinism).
fn hot_spans(trace: &ParsedTrace) -> Vec<(String, u64, u64, u64)> {
    let mut by_name: Vec<(String, u64, u64, u64)> = Vec::new();
    for (i, span) in trace.spans.iter().enumerate() {
        let self_ns = trace.self_ns(i);
        match by_name.iter_mut().find(|(n, ..)| *n == span.name) {
            Some(slot) => {
                slot.1 += 1;
                slot.2 += self_ns;
                slot.3 += span.duration_ns();
            }
            None => by_name.push((span.name.clone(), 1, self_ns, span.duration_ns())),
        }
    }
    by_name.sort_by(|a, b| b.2.cmp(&a.2).then_with(|| a.0.cmp(&b.0)));
    by_name
}

/// Renders one tree level, grouping sibling spans by name (a solve with
/// 400 restart epochs shows one aggregated `sat.restart-epoch ×400` line).
fn render_level(
    trace: &ParsedTrace,
    indices: &[usize],
    whole_ns: u64,
    depth: usize,
    out: &mut String,
) {
    let mut groups: Vec<(String, Vec<usize>)> = Vec::new();
    for &i in indices {
        let name = &trace.spans[i].name;
        match groups.iter_mut().find(|(n, _)| n == name) {
            Some((_, members)) => members.push(i),
            None => groups.push((name.clone(), vec![i])),
        }
    }
    for (name, members) in groups {
        let total: u64 = members.iter().map(|&i| trace.spans[i].duration_ns()).sum();
        for _ in 0..depth {
            out.push_str("  ");
        }
        if members.len() == 1 {
            let _ = write!(
                out,
                "- `{name}` — {} ms ({})",
                ms(total),
                pct(total, whole_ns)
            );
            let span = &trace.spans[members[0]];
            if !span.fields.is_empty() {
                out.push_str(" [");
                for (j, (k, v)) in span.fields.iter().enumerate() {
                    if j > 0 {
                        out.push(' ');
                    }
                    let _ = write!(out, "{k}={v}");
                }
                out.push(']');
            }
            if !span.closed {
                out.push_str(" (unclosed)");
            }
        } else {
            let _ = write!(
                out,
                "- `{name}` ×{} — {} ms ({})",
                members.len(),
                ms(total),
                pct(total, whole_ns)
            );
        }
        out.push('\n');
        let children: Vec<usize> = members
            .iter()
            .flat_map(|&i| trace.spans[i].children.iter().copied())
            .collect();
        if !children.is_empty() {
            render_level(trace, &children, whole_ns, depth + 1, out);
        }
    }
}

/// Renders the mca-serve daemon section from `serve-*` event tallies:
/// request mix, outcome split, cache dispositions, and per-tier cache
/// operation counts.
fn render_service(trace: &ParsedTrace, out: &mut String) {
    let serve = &trace.serve;
    out.push_str("## Service\n\n");
    let _ = writeln!(
        out,
        "- requests: {} ({} ok, {} error responses)",
        serve.requests, serve.responses_ok, serve.responses_err
    );
    let hits: u64 = serve
        .responses_by_cache
        .iter()
        .filter(|(label, _)| label.ends_with("hit"))
        .map(|(_, n)| n)
        .sum();
    let cacheable: u64 = serve
        .responses_by_cache
        .iter()
        .filter(|(label, _)| label.as_str() != "-")
        .map(|(_, n)| n)
        .sum();
    let _ = writeln!(
        out,
        "- cache: {hits} hit(s) over {cacheable} cacheable response(s) ({})",
        pct(hits, cacheable.max(1))
    );
    out.push('\n');
    out.push_str("| request kind | count |\n|---|---:|\n");
    for (kind, n) in &serve.requests_by_kind {
        let _ = writeln!(out, "| `{kind}` | {n} |");
    }
    out.push('\n');
    out.push_str("| cache disposition | responses |\n|---|---:|\n");
    for (label, n) in &serve.responses_by_cache {
        let _ = writeln!(out, "| `{label}` | {n} |");
    }
    out.push('\n');
    if !serve.cache_ops.is_empty() {
        out.push_str("| cache tier/op | count |\n|---|---:|\n");
        for (key, n) in &serve.cache_ops {
            let _ = writeln!(out, "| `{key}` | {n} |");
        }
        out.push('\n');
    }
}

fn render_metrics(metrics: &Json, out: &mut String) {
    let mut scalar_section = |key: &str, title: &str| {
        if let Some(Json::Object(pairs)) = metrics.get(key) {
            if pairs.is_empty() {
                return;
            }
            let _ = writeln!(out, "## {title}\n");
            out.push_str("| name | value |\n|---|---:|\n");
            for (name, value) in pairs {
                let _ = writeln!(out, "| `{name}` | {} |", value.render());
            }
            out.push('\n');
        }
    };
    scalar_section("counters", "Counters");
    scalar_section("gauges", "Gauges (solver stats)");

    if let Some(Json::Object(timers)) = metrics.get("timers_ns") {
        if !timers.is_empty() {
            out.push_str("## Timers\n\n| name | ms |\n|---|---:|\n");
            for (name, value) in timers {
                let ns = value.as_u64().unwrap_or(0);
                let _ = writeln!(out, "| `{name}` | {} |", ms(ns));
            }
            out.push('\n');
        }
    }

    if let Some(Json::Object(histograms)) = metrics.get("histograms") {
        if !histograms.is_empty() {
            out.push_str("## Histograms\n\n");
            for (name, h) in histograms {
                let count = h.get("count").and_then(Json::as_u64).unwrap_or(0);
                let min = h.get("min").and_then(Json::as_u64);
                let max = h.get("max").and_then(Json::as_u64);
                let _ = write!(out, "### `{name}` — n={count}");
                if let (Some(lo), Some(hi)) = (min, max) {
                    let _ = write!(out, ", min={lo}, max={hi}");
                }
                out.push_str("\n\n");
                if let Some(Json::Array(bins)) = h.get("bins") {
                    let peak = bins
                        .iter()
                        .filter_map(|b| b.get("count").and_then(Json::as_u64))
                        .max()
                        .unwrap_or(1)
                        .max(1);
                    out.push_str("| bin | count | |\n|---|---:|---|\n");
                    for bin in bins {
                        let lo = bin.get("lo").and_then(Json::as_u64).unwrap_or(0);
                        let hi = bin.get("hi").and_then(Json::as_u64).unwrap_or(0);
                        let n = bin.get("count").and_then(Json::as_u64).unwrap_or(0);
                        let bar = "█".repeat(((n * 20).div_ceil(peak)) as usize);
                        let _ = writeln!(out, "| [{lo}, {hi}) | {n} | {bar} |");
                    }
                    out.push('\n');
                }
            }
        }
    }
}

/// Wraps a markdown report in a minimal self-contained HTML page (the
/// markdown is shown preformatted — no external assets, no scripts).
pub fn render_html(markdown: &str, title: &str) -> String {
    let mut escaped = String::new();
    for c in markdown.chars() {
        match c {
            '&' => escaped.push_str("&amp;"),
            '<' => escaped.push_str("&lt;"),
            '>' => escaped.push_str("&gt;"),
            c => escaped.push(c),
        }
    }
    format!(
        "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\
         <title>{title}</title>\
         <style>body{{font-family:monospace;max-width:72rem;margin:2rem auto;\
         white-space:pre-wrap;}}</style>\
         </head><body>{escaped}</body></html>\n"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> ParsedTrace {
        let lines = [
            r#"{"event":"span-enter","id":0,"parent":null,"name":"repro.e8","t_ns":0}"#,
            r#"{"event":"span-enter","id":1,"parent":0,"name":"sat.solve","t_ns":100}"#,
            r#"{"event":"span-exit","id":1,"t_ns":600000,"conflicts":12}"#,
            r#"{"event":"span-enter","id":2,"parent":0,"name":"sat.solve","t_ns":700000}"#,
            r#"{"event":"span-exit","id":2,"t_ns":900000,"conflicts":3}"#,
            r#"{"event":"span-exit","id":0,"t_ns":1000000}"#,
        ]
        .join("\n");
        ParsedTrace::parse(&lines)
    }

    #[test]
    fn markdown_report_contains_tree_hot_spans_and_counts() {
        let report = render_markdown(&sample_trace(), None, &ReportOptions::default());
        assert!(report.contains("# mca-report trace profile"));
        assert!(report.contains("## Span tree"));
        assert!(report.contains("`repro.e8`"));
        assert!(report.contains("`sat.solve` ×2"));
        assert!(report.contains("## Hot spans"));
        assert!(report.contains("## Event counts"));
        assert!(report.contains("| `span-enter` | 3 |"));
        assert!(report.contains("the trace parsed cleanly"));
    }

    #[test]
    fn metrics_section_renders_all_four_families() {
        let metrics = Json::parse(
            r#"{"counters":{"e8.scopes":4},"gauges":{"solver.conflicts":99},
                "histograms":{"lbd":{"count":2,"sum":5,"min":2,"max":3,
                "bins":[{"lo":2,"hi":4,"count":2}]}},
                "timers_ns":{"check":1500000}}"#,
        )
        .unwrap();
        let report = render_markdown(&sample_trace(), Some(&metrics), &ReportOptions::default());
        assert!(report.contains("## Counters"));
        assert!(report.contains("| `e8.scopes` | 4 |"));
        assert!(report.contains("## Gauges (solver stats)"));
        assert!(report.contains("| `solver.conflicts` | 99 |"));
        assert!(report.contains("## Timers"));
        assert!(report.contains("| `check` | 1.500 |"));
        assert!(report.contains("### `lbd`"));
        assert!(report.contains("[2, 4)"));
    }

    #[test]
    fn html_wrapper_escapes_and_is_self_contained() {
        let html = render_html("# a <b> & c", "t");
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("&lt;b&gt; &amp; c"));
        assert!(!html.contains("<script"));
    }

    #[test]
    fn service_section_renders_request_mix_and_hit_rate() {
        let lines = [
            r#"{"event":"serve-request","req":0,"kind":"check","key":"check/00/2x2/optimized/default"}"#,
            r#"{"event":"serve-cache","tier":"verdict","op":"miss","key":"check/00/2x2/optimized/default"}"#,
            r#"{"event":"serve-response","req":0,"outcome":"ok","cache":"miss"}"#,
            r#"{"event":"serve-request","req":1,"kind":"check","key":"check/00/2x2/optimized/default"}"#,
            r#"{"event":"serve-cache","tier":"verdict","op":"hit","key":"check/00/2x2/optimized/default"}"#,
            r#"{"event":"serve-response","req":1,"outcome":"ok","cache":"verdict-hit"}"#,
            r#"{"event":"serve-request","req":2,"kind":"ping","key":""}"#,
            r#"{"event":"serve-response","req":2,"outcome":"ok","cache":"-"}"#,
        ]
        .join("\n");
        let trace = ParsedTrace::parse(&lines);
        let report = render_markdown(&trace, None, &ReportOptions::default());
        assert!(report.contains("## Service"));
        assert!(report.contains("- requests: 3 (3 ok, 0 error responses)"));
        assert!(report.contains("- cache: 1 hit(s) over 2 cacheable response(s) (50.0%)"));
        assert!(report.contains("| `check` | 2 |"));
        assert!(report.contains("| `verdict-hit` | 1 |"));
        assert!(report.contains("| `verdict/hit` | 1 |"));
        // A trace with no serve events renders no Service section.
        let plain = render_markdown(&sample_trace(), None, &ReportOptions::default());
        assert!(!plain.contains("## Service"));
    }

    #[test]
    fn empty_trace_renders_without_panicking() {
        let report = render_markdown(&ParsedTrace::default(), None, &ReportOptions::default());
        assert!(report.contains("spans: 0"));
    }
}
