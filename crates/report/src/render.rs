//! Markdown / HTML rendering of parsed traces.
//!
//! The report is self-contained: one markdown document (optionally
//! wrapped in a minimal HTML page) with the span-tree time breakdown,
//! the top-k hot spans by self time, event-kind counts, the service
//! section of a traced mca-serve daemon, and the parse diagnostics.

use crate::trace::ParsedTrace;
use mca_obs::event::SERVE_PHASES;
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

/// Microseconds: a warm serve request takes a few of them.
fn us(ns: u64) -> String {
    format!("{:.1}", ns as f64 / 1e3)
}

fn pct(part: u64, whole: u64) -> String {
    if whole == 0 {
        "-".to_string()
    } else {
        format!("{:.1}%", part as f64 * 100.0 / whole as f64)
    }
}

/// Renders the markdown report.
pub fn render_markdown(trace: &ParsedTrace, opts: &ReportOptions) -> String {
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
/// request mix, outcome split, cache dispositions, per-tier cache
/// operation counts, and, from the `serve-span` events, latency by
/// request kind and each phase's share of the service time.
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
    if serve.latency_ns_by_kind.is_empty() {
        return;
    }
    out.push_str("### Latency by kind\n\n");
    out.push_str("| request kind | requests | p50 (µs) | tail (µs) |\n|---|---:|---:|---|\n");
    let mut total_ns = 0u64;
    for (kind, latencies) in &serve.latency_ns_by_kind {
        let mut sorted = latencies.clone();
        sorted.sort_unstable();
        total_ns += sorted.iter().sum::<u64>();
        let tail = match tail_percentile(sorted.len()) {
            Some(per_mille) => format!(
                "p{} {}",
                per_mille as f64 / 10.0,
                us(nearest_rank(&sorted, per_mille))
            ),
            None => "-".to_string(),
        };
        let _ = writeln!(
            out,
            "| `{kind}` | {} | {} | {tail} |",
            sorted.len(),
            us(nearest_rank(&sorted, 500))
        );
    }
    out.push('\n');
    out.push_str("| phase | total (ms) | share |\n|---|---:|---:|\n");
    for (phase, ns) in SERVE_PHASES.iter().zip(serve.phase_ns) {
        let _ = writeln!(out, "| `{phase}` | {} | {} |", ms(ns), pct(ns, total_ns));
    }
    // The rest of the service time: dispatch between the phases.
    let other = total_ns.saturating_sub(serve.phase_ns.iter().sum());
    let _ = writeln!(out, "| other | {} | {} |", ms(other), pct(other, total_ns));
    out.push('\n');
}

/// The highest of p99.9, p99, p90 and p75 (in per mille) that leaves at
/// least ten of `n` samples above it, so a tail figure is never one
/// outlier; `None` under 40 samples, where only the median is shown.
fn tail_percentile(n: usize) -> Option<u64> {
    [999, 990, 900, 750]
        .into_iter()
        .find(|&per_mille| n - rank(n, per_mille) >= 10)
}

/// The nearest-rank position (1-based) of the `per_mille` percentile in
/// `n` sorted samples: the smallest rank at or below which that share of
/// the samples lies.
fn rank(n: usize, per_mille: u64) -> usize {
    (n as u64 * per_mille).div_ceil(1000).max(1) as usize
}

/// The exact nearest-rank `per_mille` percentile of non-empty `sorted`.
fn nearest_rank(sorted: &[u64], per_mille: u64) -> u64 {
    sorted[rank(sorted.len(), per_mille) - 1]
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
        let report = render_markdown(&sample_trace(), &ReportOptions::default());
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
        let report = render_markdown(&trace, &ReportOptions::default());
        assert!(report.contains("## Service"));
        assert!(report.contains("- requests: 3 (3 ok, 0 error responses)"));
        assert!(report.contains("- cache: 1 hit(s) over 2 cacheable response(s) (50.0%)"));
        assert!(report.contains("| `check` | 2 |"));
        assert!(report.contains("| `verdict-hit` | 1 |"));
        assert!(report.contains("| `verdict/hit` | 1 |"));
        // A trace with no serve events renders no Service section.
        let plain = render_markdown(&sample_trace(), &ReportOptions::default());
        assert!(!plain.contains("## Service"));
    }

    #[test]
    fn service_section_renders_latency_by_kind_from_serve_spans() {
        let span = |req: u64, kind: &str, total_ns: u64, translate_ns: u64| {
            format!(
                r#"{{"event":"serve-span","req":{req},"kind":"{kind}","total_ns":{total_ns},"decode_ns":100,"queue_ns":0,"cache_ns":200,"translate_ns":{translate_ns},"solve_ns":0,"write_ns":100}}"#
            )
        };
        let mut lines = Vec::new();
        // 45 checks taking 1..=45 µs in shuffled order, and 3 lints.
        for i in 0..45u64 {
            lines.push(format!(
                r#"{{"event":"serve-request","req":{i},"kind":"check","key":"k"}}"#
            ));
            lines.push(span(i, "check", 1_000 * ((i * 7) % 45 + 1), 0));
        }
        for (i, total_ns) in [(45u64, 9_000u64), (46, 3_000), (47, 600_000)] {
            lines.push(format!(
                r#"{{"event":"serve-request","req":{i},"kind":"lint","key":"k"}}"#
            ));
            lines.push(span(i, "lint", total_ns, total_ns / 2));
        }
        let trace = ParsedTrace::parse(&lines.join("\n"));
        let report = render_markdown(&trace, &ReportOptions::default());
        assert!(report.contains("### Latency by kind"), "{report}");
        // 45 samples: p75 is the 34th (11 above it), p90 would leave 4.
        assert!(
            report.contains("| `check` | 45 | 23.0 | p75 34.0 |"),
            "{report}"
        );
        // Under 40 samples only the median is shown.
        assert!(report.contains("| `lint` | 3 | 9.0 | - |"), "{report}");
        // Service time sums to 1,647,000 ns over 48 spans.
        assert!(report.contains("| `decode` | 0.005 | 0.3% |"), "{report}");
        assert!(
            report.contains("| `translate` | 0.306 | 18.6% |"),
            "{report}"
        );
        assert!(report.contains("| `solve` | 0.000 | 0.0% |"), "{report}");
        assert!(report.contains("| other | 1.322 | 80.3% |"), "{report}");
    }

    #[test]
    fn tail_percentile_leaves_ten_samples_above_it() {
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(750));
        assert_eq!(tail_percentile(100), Some(900));
        assert_eq!(tail_percentile(999), Some(900));
        assert_eq!(tail_percentile(1_000), Some(990));
        assert_eq!(tail_percentile(10_000), Some(999));
        let sorted: Vec<u64> = (1..=40).collect();
        assert_eq!(nearest_rank(&sorted, 500), 20);
        assert_eq!(nearest_rank(&sorted, 750), 30);
        assert_eq!(nearest_rank(&[7], 999), 7);
    }

    #[test]
    fn empty_trace_renders_without_panicking() {
        let report = render_markdown(&ParsedTrace::default(), &ReportOptions::default());
        assert!(report.contains("spans: 0"));
    }
}
