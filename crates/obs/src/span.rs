//! Hierarchical profiling spans and resource accounting.
//!
//! Spans are the one deliberate exception to the crate's "no wall-clock in
//! events" doctrine: a [`SpanRecorder`] stamps [`Event::SpanEnter`] /
//! [`Event::SpanExit`] pairs with **monotonic nanosecond offsets** from the
//! recorder's construction instant, so a JSONL trace reconstructs a full
//! span tree with durations. Because timestamps differ between runs, span
//! recording is strictly **opt-in**: no instrumented component ever derives
//! a recorder from a plain [`SharedObserver`], and the byte-identical-trace
//! guarantee of the plain event stream is untouched (asserted by the
//! `obs_trace` integration test).
//!
//! The tree structure itself (ids, parent links, names, attached resource
//! fields) *is* deterministic for a deterministic workload — `mca-report`
//! exploits this by comparing timestamp-free span outlines across thread
//! counts.

use crate::event::Event;
use crate::observer::SharedObserver;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

struct RecorderState {
    observer: SharedObserver,
    epoch: Instant,
    next_id: u64,
    stack: Vec<u64>,
}

/// Allocates span ids, tracks the open-span stack, and emits
/// [`Event::SpanEnter`] / [`Event::SpanExit`] pairs to a [`SharedObserver`].
///
/// Cheap to clone (shared interior); single-threaded by design, like
/// [`SharedObserver`] itself. Work on another thread records into a
/// recorder of its own, and the coordinating thread moves those spans
/// into its trace with [`SpanRecorder::replay`].
#[derive(Clone)]
pub struct SpanRecorder {
    inner: Rc<RefCell<RecorderState>>,
}

impl SpanRecorder {
    /// A fresh recorder whose timestamp epoch is "now".
    pub fn new(observer: SharedObserver) -> SpanRecorder {
        SpanRecorder {
            inner: Rc::new(RefCell::new(RecorderState {
                observer,
                epoch: Instant::now(),
                next_id: 0,
                stack: Vec::new(),
            })),
        }
    }

    /// The recorder's epoch instant: every timestamp it emits is an
    /// offset from it. [`replay`](SpanRecorder::replay) takes the epoch
    /// of the recorder whose events it moves.
    pub fn epoch(&self) -> Instant {
        self.inner.borrow().epoch
    }

    /// Opens a span named `name` under the innermost open span and emits
    /// its [`Event::SpanEnter`]. The span closes (emitting
    /// [`Event::SpanExit`] with any attached fields) when the returned
    /// guard drops.
    pub fn enter(&self, name: &str) -> SpanGuard {
        let (observer, event, id) = {
            let mut state = self.inner.borrow_mut();
            let id = state.next_id;
            state.next_id += 1;
            let parent = state.stack.last().copied();
            let t_ns = state.epoch.elapsed().as_nanos() as u64;
            state.stack.push(id);
            (
                state.observer.clone(),
                Event::SpanEnter {
                    id,
                    parent,
                    name: name.to_string(),
                    t_ns,
                },
                id,
            )
        };
        observer.emit(&event);
        SpanGuard {
            recorder: self.clone(),
            id,
            fields: Vec::new(),
        }
    }

    /// Re-emits the span events of `events`, recorded by another recorder
    /// whose epoch was `epoch` (on a worker thread, say), as if they had
    /// been recorded here: span ids are renumbered past this recorder's,
    /// timestamps move onto its clock, and the replayed root spans nest
    /// under the innermost span open here. Other events are skipped.
    pub fn replay(&self, epoch: Instant, events: &[Event]) {
        let (observer, base, open, shift) = {
            let mut state = self.inner.borrow_mut();
            let base = state.next_id;
            let span_ids = events.iter().filter_map(|e| match e {
                Event::SpanEnter { id, .. } => Some(*id + 1),
                _ => None,
            });
            state.next_id += span_ids.max().unwrap_or(0);
            let shift = epoch.saturating_duration_since(state.epoch).as_nanos() as u64;
            (
                state.observer.clone(),
                base,
                state.stack.last().copied(),
                shift,
            )
        };
        for event in events {
            match event {
                Event::SpanEnter {
                    id,
                    parent,
                    name,
                    t_ns,
                } => observer.emit(&Event::SpanEnter {
                    id: base + id,
                    parent: parent.map(|p| base + p).or(open),
                    name: name.clone(),
                    t_ns: t_ns + shift,
                }),
                Event::SpanExit { id, t_ns, fields } => observer.emit(&Event::SpanExit {
                    id: base + id,
                    t_ns: t_ns + shift,
                    fields: fields.clone(),
                }),
                _ => {}
            }
        }
    }

    fn close(&self, id: u64, fields: Vec<(String, u64)>) {
        let (observer, event) = {
            let mut state = self.inner.borrow_mut();
            // Guards drop LIFO in straight-line code; tolerate out-of-order
            // drops (e.g. a guard stored across an early return) by
            // removing the id wherever it sits.
            if let Some(pos) = state.stack.iter().rposition(|&open| open == id) {
                state.stack.remove(pos);
            }
            let t_ns = state.epoch.elapsed().as_nanos() as u64;
            (state.observer.clone(), Event::SpanExit { id, t_ns, fields })
        };
        observer.emit(&event);
    }
}

impl std::fmt::Debug for SpanRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.inner.borrow();
        f.debug_struct("SpanRecorder")
            .field("next_id", &state.next_id)
            .field("open", &state.stack.len())
            .finish()
    }
}

/// An open span. Attach resource fields with [`SpanGuard::field`]; the
/// matching [`Event::SpanExit`] is emitted on drop.
pub struct SpanGuard {
    recorder: SpanRecorder,
    id: u64,
    fields: Vec<(String, u64)>,
}

impl SpanGuard {
    /// The span's trace id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Attaches a named resource/count field to the span's exit event
    /// (e.g. `conflicts`, `clause_db_bytes`, `peak_rss_kb`). Last write
    /// wins for a repeated name.
    pub fn field(&mut self, name: &str, value: u64) {
        if let Some(slot) = self.fields.iter_mut().find(|(k, _)| k == name) {
            slot.1 = value;
        } else {
            self.fields.push((name.to_string(), value));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let fields = std::mem::take(&mut self.fields);
        self.recorder.close(self.id, fields);
    }
}

/// Peak resident-set size of this process in KiB, read from the `VmHWM`
/// line of `/proc/self/status`.
///
/// Degrades gracefully everywhere procfs is absent or malformed: a
/// missing file, an unreadable file, a status without a `VmHWM` line, or
/// a garbled value all yield `None` — never an error or a panic. Callers
/// (span resource accounting, the `repro serve` daemon's periodic
/// resource snapshots) treat `None` as "omit the field" / report `0`.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm(&status)
}

/// Extracts the `VmHWM` value (KiB) from `/proc/self/status`-shaped text.
/// Returns `None` when the line is absent or its value fails to parse.
fn parse_vm_hwm(status: &str) -> Option<u64> {
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            return rest.split_whitespace().next().and_then(|v| v.parse().ok());
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::Handle;
    use crate::sink::CollectSink;

    fn recorder() -> (Handle<CollectSink>, SpanRecorder) {
        let handle = Handle::new(CollectSink::default());
        let rec = SpanRecorder::new(handle.observer());
        (handle, rec)
    }

    #[test]
    fn nested_spans_link_parents_and_close_in_order() {
        let (handle, rec) = recorder();
        {
            let mut outer = rec.enter("outer");
            outer.field("items", 2);
            {
                let _inner = rec.enter("inner");
            }
        }
        let events = handle.with(|s| s.events.clone());
        assert_eq!(events.len(), 4);
        match &events[0] {
            Event::SpanEnter {
                id, parent, name, ..
            } => {
                assert_eq!(*id, 0);
                assert_eq!(*parent, None);
                assert_eq!(name, "outer");
            }
            other => panic!("expected outer enter, got {other:?}"),
        }
        match &events[1] {
            Event::SpanEnter {
                id, parent, name, ..
            } => {
                assert_eq!(*id, 1);
                assert_eq!(*parent, Some(0));
                assert_eq!(name, "inner");
            }
            other => panic!("expected inner enter, got {other:?}"),
        }
        match &events[2] {
            Event::SpanExit { id, fields, .. } => {
                assert_eq!(*id, 1);
                assert!(fields.is_empty());
            }
            other => panic!("expected inner exit, got {other:?}"),
        }
        match &events[3] {
            Event::SpanExit { id, fields, .. } => {
                assert_eq!(*id, 0);
                assert_eq!(fields, &[("items".to_string(), 2)]);
            }
            other => panic!("expected outer exit, got {other:?}"),
        }
    }

    #[test]
    fn exit_timestamps_are_monotonic() {
        let (handle, rec) = recorder();
        {
            let _span = rec.enter("work");
        }
        let events = handle.with(|s| s.events.clone());
        let enter_ns = match &events[0] {
            Event::SpanEnter { t_ns, .. } => *t_ns,
            other => panic!("expected enter, got {other:?}"),
        };
        let exit_ns = match &events[1] {
            Event::SpanExit { t_ns, .. } => *t_ns,
            other => panic!("expected exit, got {other:?}"),
        };
        assert!(exit_ns >= enter_ns);
    }

    #[test]
    fn replay_renumbers_reparents_and_shifts_foreign_spans() {
        let (handle, rec) = recorder();
        {
            let _earlier = rec.enter("earlier");
        }
        let worker = Handle::new(CollectSink::default());
        let foreign = SpanRecorder::new(worker.observer());
        {
            let _job = foreign.enter("job");
            let _inner = foreign.enter("inner");
        }
        let recorded = worker.with(|s| std::mem::take(&mut s.events));
        {
            let _batch = rec.enter("batch");
            rec.replay(foreign.epoch(), &recorded);
            let _after = rec.enter("after");
        }
        let events = handle.with(|s| s.events.clone());
        let enters: Vec<(u64, Option<u64>, &str, u64)> = events
            .iter()
            .filter_map(|e| match e {
                Event::SpanEnter {
                    id,
                    parent,
                    name,
                    t_ns,
                } => Some((*id, *parent, name.as_str(), *t_ns)),
                _ => None,
            })
            .collect();
        let ids: Vec<_> = enters
            .iter()
            .map(|&(id, parent, name, _)| (id, parent, name))
            .collect();
        assert_eq!(
            ids,
            [
                (0, None, "earlier"),
                (1, None, "batch"),
                (2, Some(1), "job"),
                (3, Some(2), "inner"),
                (4, Some(1), "after"),
            ]
        );
        // The foreign recorder started after `earlier` closed, so on this
        // recorder's clock its spans start no earlier than that exit.
        let earlier_exit = match &events[1] {
            Event::SpanExit { t_ns, .. } => *t_ns,
            other => panic!("expected earlier's exit, got {other:?}"),
        };
        assert!(enters[2].3 >= earlier_exit);
    }

    #[test]
    fn repeated_field_names_keep_the_last_value() {
        let (handle, rec) = recorder();
        {
            let mut span = rec.enter("s");
            span.field("n", 1);
            span.field("n", 2);
        }
        let events = handle.with(|s| s.events.clone());
        match &events[1] {
            Event::SpanExit { fields, .. } => {
                assert_eq!(fields, &[("n".to_string(), 2)]);
            }
            other => panic!("expected exit, got {other:?}"),
        }
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn peak_rss_is_present_on_linux() {
        // The CI and dev environments are Linux; elsewhere the helper
        // degrades to None, which callers treat as "omit the field".
        let kb = peak_rss_kb().expect("VmHWM in /proc/self/status");
        assert!(kb > 0);
    }

    #[test]
    fn vm_hwm_parsing_degrades_gracefully() {
        assert_eq!(parse_vm_hwm("VmHWM:\t  1234 kB\n"), Some(1234));
        assert_eq!(
            parse_vm_hwm("Name: repro\nVmHWM:     42 kB\nThreads: 4\n"),
            Some(42)
        );
        // No VmHWM line at all (e.g. non-Linux /proc shims).
        assert_eq!(parse_vm_hwm("Name: repro\nThreads: 4\n"), None);
        // Garbled value must yield None, never a panic.
        assert_eq!(parse_vm_hwm("VmHWM: lots kB\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\n"), None);
        assert_eq!(parse_vm_hwm(""), None);
    }
}
