//! Ready-made observers: JSONL trace writer, human-readable summary, and
//! an in-memory collector for tests.

use crate::event::Event;
use crate::metrics::Metrics;
use crate::observer::Observer;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::rc::Rc;

/// Writes one JSON object per event, newline-delimited — the format `jq`
/// and most log pipelines consume directly.
///
/// Events carry no wall-clock fields, so the trace of a deterministic run
/// is byte-for-byte reproducible.
pub struct JsonlSink<W: Write> {
    out: W,
    events_written: u64,
    error: Option<io::Error>,
}

impl JsonlSink<BufWriter<File>> {
    /// Opens (truncating) `path` for trace output.
    pub fn create(path: impl AsRef<Path>) -> io::Result<JsonlSink<BufWriter<File>>> {
        Ok(JsonlSink::new(BufWriter::new(File::create(path)?)))
    }
}

impl<W: Write> JsonlSink<W> {
    /// Wraps any writer.
    pub fn new(out: W) -> JsonlSink<W> {
        JsonlSink {
            out,
            events_written: 0,
            error: None,
        }
    }

    /// Number of events successfully written.
    pub fn events_written(&self) -> u64 {
        self.events_written
    }

    /// Flushes the writer and reports the first I/O error encountered (an
    /// observer callback has nowhere to return one).
    pub fn finish(&mut self) -> io::Result<()> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.out.flush()
    }

    /// Flushes and returns the underlying writer (e.g. a `Vec<u8>` buffer).
    pub fn into_inner(mut self) -> io::Result<W> {
        self.finish()?;
        Ok(self.out)
    }
}

impl<W: Write> Observer for JsonlSink<W> {
    fn on_event(&mut self, event: &Event) {
        if self.error.is_some() {
            return;
        }
        let line = event.to_json_line();
        match writeln!(self.out, "{line}") {
            Ok(()) => self.events_written += 1,
            Err(e) => self.error = Some(e),
        }
    }
}

/// Aggregates events into a short human-readable run summary instead of
/// logging each one.
#[derive(Clone, Debug, Default)]
pub struct SummarySink {
    counts: BTreeMap<&'static str, u64>,
    last_step: u64,
    last_checker_states: u64,
    converged: Option<bool>,
    relations: Vec<(String, u64, u64)>,
    spans_open: u64,
    spans_closed: u64,
    metrics: Option<Rc<RefCell<Metrics>>>,
}

impl SummarySink {
    /// A fresh summary.
    pub fn new() -> SummarySink {
        SummarySink::default()
    }

    /// Attaches a live metrics registry. [`render`](SummarySink::render)
    /// snapshots the registry **at render time** — not at attach time and
    /// not at first render — so counters, gauges, histograms, and timers
    /// registered after an earlier render still appear in later renders.
    pub fn attach_metrics(&mut self, metrics: Rc<RefCell<Metrics>>) {
        self.metrics = Some(metrics);
    }

    /// How many events of `kind` were seen.
    pub fn count(&self, kind: &str) -> u64 {
        self.counts.get(kind).copied().unwrap_or(0)
    }

    /// Renders the summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("trace summary:\n");
        for (kind, n) in &self.counts {
            let _ = writeln!(out, "  {kind:<20} {n}");
        }
        if self.last_step > 0 {
            let _ = writeln!(out, "  last simulation step: {}", self.last_step);
        }
        if let Some(ok) = self.converged {
            let _ = writeln!(
                out,
                "  outcome: {}",
                if ok { "consensus" } else { "no consensus" }
            );
        }
        if self.last_checker_states > 0 {
            let _ = writeln!(out, "  states explored: {}", self.last_checker_states);
        }
        if self.spans_open + self.spans_closed > 0 {
            let _ = writeln!(
                out,
                "  spans: {} opened, {} closed",
                self.spans_open, self.spans_closed
            );
        }
        if !self.relations.is_empty() {
            out.push_str("  relations encoded:\n");
            for (name, vars, clauses) in &self.relations {
                let _ = writeln!(out, "    {name:<28} {vars:>8} vars {clauses:>10} clauses");
            }
        }
        if let Some(metrics) = &self.metrics {
            // Snapshot at render time: registrations made after a previous
            // render are included here, never dropped.
            let snapshot = metrics.borrow().summary();
            if !snapshot.is_empty() {
                out.push_str("metrics:\n");
                for line in snapshot.lines() {
                    let _ = writeln!(out, "  {line}");
                }
            }
        }
        out
    }
}

impl Observer for SummarySink {
    fn on_event(&mut self, event: &Event) {
        *self.counts.entry(event.kind()).or_insert(0) += 1;
        match event {
            Event::Deliver { step, .. }
            | Event::Bid { step, .. }
            | Event::MessageDropped { step, .. }
            | Event::MessageDuplicated { step, .. } => {
                self.last_step = self.last_step.max(*step);
            }
            Event::Converged {
                step, consensus, ..
            } => {
                self.last_step = self.last_step.max(*step);
                self.converged = Some(*consensus);
            }
            Event::CheckerProgress {
                states_explored, ..
            }
            | Event::CheckerDone {
                states_explored, ..
            } => {
                self.last_checker_states = self.last_checker_states.max(*states_explored);
            }
            Event::RelationEncoded {
                relation,
                vars,
                clauses,
                ..
            } => {
                self.relations.push((relation.clone(), *vars, *clauses));
            }
            Event::SpanEnter { .. } => {
                self.spans_open += 1;
            }
            Event::SpanExit { .. } => {
                self.spans_closed += 1;
            }
            Event::EncodingDone { .. }
            | Event::SimplifyDone { .. }
            | Event::IncrementalSolve { .. }
            | Event::LintFinding { .. }
            | Event::LintDone { .. }
            | Event::ServeRequest { .. }
            | Event::ServeResponse { .. }
            | Event::ServeCache { .. }
            | Event::ServeSpan { .. } => {}
        }
    }
}

/// Collects events into a vector — the sink tests reach for.
#[derive(Clone, Debug, Default)]
pub struct CollectSink {
    /// Every event received, in order.
    pub events: Vec<Event>,
}

impl Observer for CollectSink {
    fn on_event(&mut self, event: &Event) {
        self.events.push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Event> {
        vec![
            Event::Deliver {
                step: 1,
                from: 0,
                to: 1,
                seq: 1,
                view_changed: true,
            },
            Event::Bid {
                step: 2,
                agent: 1,
                placed: false,
            },
            Event::Converged {
                step: 2,
                delivered: 1,
                consensus: true,
            },
        ]
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let mut sink = JsonlSink::new(Vec::new());
        for e in sample_events() {
            sink.on_event(&e);
        }
        assert_eq!(sink.events_written(), 3);
        sink.finish().unwrap();
        let text = String::from_utf8(sink.out).unwrap();
        assert_eq!(text.lines().count(), 3);
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }

    #[test]
    fn summary_sink_aggregates() {
        let mut sink = SummarySink::new();
        for e in sample_events() {
            sink.on_event(&e);
        }
        sink.on_event(&Event::RelationEncoded {
            relation: "bidTriple".into(),
            arity: 3,
            vars: 12,
            clauses: 80,
        });
        assert_eq!(sink.count("deliver"), 1);
        assert_eq!(sink.count("bid"), 1);
        let text = sink.render();
        assert!(text.contains("outcome: consensus"));
        assert!(text.contains("bidTriple"));
    }

    #[test]
    fn summary_sink_counts_spans() {
        let mut sink = SummarySink::new();
        sink.on_event(&Event::SpanEnter {
            id: 0,
            parent: None,
            name: "sat.solve".into(),
            t_ns: 1,
        });
        sink.on_event(&Event::SpanExit {
            id: 0,
            t_ns: 9,
            fields: vec![],
        });
        assert_eq!(sink.count("span-enter"), 1);
        assert_eq!(sink.count("span-exit"), 1);
        assert!(sink.render().contains("spans: 1 opened, 1 closed"));
    }

    #[test]
    fn summary_sink_snapshots_metrics_at_render_time() {
        // Regression: metrics registered *after* the first render must
        // still appear in later renders — the sink must not freeze the
        // registry contents at attach time or first flush.
        let metrics = Rc::new(RefCell::new(Metrics::default()));
        let mut sink = SummarySink::new();
        sink.attach_metrics(Rc::clone(&metrics));

        metrics.borrow_mut().inc("early.counter");
        let first = sink.render();
        assert!(first.contains("early.counter"));
        assert!(!first.contains("late.counter"));

        metrics.borrow_mut().inc("late.counter");
        metrics.borrow_mut().set_gauge("late.gauge", 7);
        let second = sink.render();
        assert!(second.contains("early.counter"));
        assert!(second.contains("late.counter"), "{second}");
        assert!(second.contains("late.gauge"), "{second}");
    }

    #[test]
    fn collect_sink_keeps_order() {
        let mut sink = CollectSink::default();
        for e in sample_events() {
            sink.on_event(&e);
        }
        assert_eq!(sink.events, sample_events());
    }
}
