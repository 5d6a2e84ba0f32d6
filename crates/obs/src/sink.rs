//! Ready-made observers: a JSONL trace writer and an in-memory collector
//! for tests.

use crate::event::Event;
use crate::observer::Observer;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

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
    fn collect_sink_keeps_order() {
        let mut sink = CollectSink::default();
        for e in sample_events() {
            sink.on_event(&e);
        }
        assert_eq!(sink.events, sample_events());
    }
}
