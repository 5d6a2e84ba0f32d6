//! Per-worker timeline view: HTML swimlanes rendered from the job-span
//! windows in an opt-in `--trace` stream.
//!
//! The input is a [`ParsedTrace`] whose `runtime.job:*` spans carry the
//! `worker` and `queue_wait_ns` exit fields that
//! `mca_verify::batch::run_batch` writes.
//! One horizontal lane per worker, one block per job, positioned by
//! percentage of the trace extent — self-contained HTML with inline CSS
//! only, no scripts, so the artifact opens anywhere (including the CI
//! artifact viewer).

use crate::trace::{ParsedTrace, SpanNode};
use std::fmt::Write as _;

/// Lane colors cycled per worker (picked for contrast on white).
const LANE_COLORS: [&str; 6] = [
    "#4878a8", "#b0603e", "#5a9a68", "#8a6bab", "#b08a3e", "#6b8a9a",
];

fn html_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
    out
}

fn fmt_ms(ns: u64) -> String {
    format!("{:.3}ms", ns as f64 / 1e6)
}

/// Renders the worker-timeline HTML for `trace`.
///
/// Jobs are grouped into lanes by their `worker` exit field; spans
/// without one (traces from before the field existed, or non-job spans)
/// are ignored. When the trace has no job spans at all, the page says so
/// instead of rendering empty lanes, so the CI artifact is never blank.
pub fn render_timeline_html(trace: &ParsedTrace) -> String {
    // Collect (worker, span) pairs for every job span that carries a
    // worker field. Spans are already in enter order; the sort below is
    // by (worker, start) so lanes read left to right.
    let mut jobs: Vec<(u64, &SpanNode)> = trace
        .spans
        .iter()
        .filter(|s| s.name.starts_with("runtime.job:"))
        .filter_map(|s| s.field("worker").map(|w| (w, s)))
        .collect();
    jobs.sort_by_key(|(w, s)| (*w, s.start_ns, s.id));

    let mut out = String::new();
    out.push_str("<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n");
    out.push_str("<title>Worker timeline</title>\n<style>\n");
    out.push_str(
        "body{font-family:ui-monospace,monospace;margin:1.5em;color:#222}\n\
         h1{font-size:1.2em}\n\
         .lane{position:relative;height:26px;margin:4px 0;background:#f2f2f2;\
         border-radius:3px}\n\
         .lane-label{display:inline-block;width:5em;font-size:0.8em;\
         vertical-align:top;padding-top:5px}\n\
         .lane-track{display:inline-block;position:relative;height:26px;\
         width:calc(100% - 6em)}\n\
         .job{position:absolute;top:2px;height:22px;min-width:2px;\
         border-radius:2px;opacity:0.9}\n\
         .job:hover{opacity:1;outline:1px solid #000}\n\
         .meta{color:#666;font-size:0.85em}\n",
    );
    out.push_str("</style>\n</head>\n<body>\n<h1>Worker timeline</h1>\n");

    if jobs.is_empty() {
        out.push_str(
            "<p class=\"meta\">No job spans with worker attribution in this trace. \
             Record one with <code>--trace</code> on a run of E3, E4 or E8.</p>\n</body>\n</html>\n",
        );
        return out;
    }

    let t0 = jobs.iter().map(|(_, s)| s.start_ns).min().unwrap_or(0);
    let t1 = jobs.iter().map(|(_, s)| s.end_ns).max().unwrap_or(t0);
    let extent = (t1 - t0).max(1);
    let workers: Vec<u64> = {
        let mut w: Vec<u64> = jobs.iter().map(|(w, _)| *w).collect();
        w.dedup();
        w
    };
    let _ = writeln!(
        out,
        "<p class=\"meta\">{} jobs across {} workers, extent {}.</p>",
        jobs.len(),
        workers.len(),
        fmt_ms(extent)
    );

    for worker in &workers {
        let _ = writeln!(out, "<div>");
        let _ = writeln!(out, "<span class=\"lane-label\">w{worker}</span>");
        let _ = writeln!(out, "<span class=\"lane-track\"><span class=\"lane\">");
        for (w, span) in jobs.iter().filter(|(w, _)| w == worker) {
            let left = (span.start_ns - t0) as f64 / extent as f64 * 100.0;
            let width = span.duration_ns().max(1) as f64 / extent as f64 * 100.0;
            let color = LANE_COLORS[(*w as usize) % LANE_COLORS.len()];
            let label = span.name.strip_prefix("runtime.job:").unwrap_or(&span.name);
            let mut title = format!("{} — {}", html_escape(label), fmt_ms(span.duration_ns()));
            if let Some(qw) = span.field("queue_wait_ns") {
                let _ = write!(title, ", queued {}", fmt_ms(qw));
            }
            if !span.closed {
                title.push_str(" (auto-closed)");
            }
            let _ = writeln!(
                out,
                "<span class=\"job\" style=\"left:{left:.3}%;width:{width:.3}%;\
                 background:{color}\" title=\"{title}\"></span>"
            );
        }
        let _ = writeln!(out, "</span></span>");
        let _ = writeln!(out, "</div>");
    }

    out.push_str("</body>\n</html>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job_trace() -> ParsedTrace {
        let mut lines = Vec::new();
        for (i, (worker, start, end)) in [(0u64, 0u64, 400u64), (1, 100, 900), (0, 500, 700)]
            .iter()
            .enumerate()
        {
            lines.push(format!(
                r#"{{"event":"span-enter","id":{i},"parent":null,"name":"runtime.job:cell{i}","t_ns":{start}}}"#
            ));
            lines.push(format!(
                r#"{{"event":"span-exit","id":{i},"t_ns":{end},"worker":{worker},"queue_wait_ns":5}}"#
            ));
        }
        ParsedTrace::parse(&lines.join("\n"))
    }

    #[test]
    fn renders_one_lane_per_worker() {
        let html = render_timeline_html(&job_trace());
        assert!(html.contains("<span class=\"lane-label\">w0</span>"));
        assert!(html.contains("<span class=\"lane-label\">w1</span>"));
        assert_eq!(html.matches("class=\"job\"").count(), 3);
        assert!(html.contains("3 jobs across 2 workers"));
    }

    #[test]
    fn positions_jobs_by_percentage_of_extent() {
        let html = render_timeline_html(&job_trace());
        // Job 1 starts at 100 of a 900ns extent: 11.111%.
        assert!(html.contains("left:11.111%"), "{html}");
        // Job 0 spans 0..400 of 900: width 44.444%.
        assert!(html.contains("width:44.444%"), "{html}");
    }

    #[test]
    fn empty_trace_renders_a_note_not_blank_lanes() {
        let html = render_timeline_html(&ParsedTrace::default());
        assert!(html.contains("No job spans with worker attribution"));
        assert!(!html.contains("class=\"lane-label\""));
    }

    #[test]
    fn job_labels_are_escaped() {
        let lines = [
            r#"{"event":"span-enter","id":0,"parent":null,"name":"runtime.job:<b>&x","t_ns":0}"#,
            r#"{"event":"span-exit","id":0,"t_ns":10,"worker":0}"#,
        ]
        .join("\n");
        let html = render_timeline_html(&ParsedTrace::parse(&lines));
        assert!(html.contains("&lt;b&gt;&amp;x"));
        assert!(!html.contains("<b>&x"));
    }

    #[test]
    fn output_is_deterministic() {
        let t = job_trace();
        assert_eq!(render_timeline_html(&t), render_timeline_html(&t));
    }
}
