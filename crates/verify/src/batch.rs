//! Runs a batch of independent experiment jobs on scoped threads, and
//! traces it as if one thread had run the jobs in order.
//!
//! The paper's analyses are independent checks (Result 1's policy cells,
//! Result 2's attack checks, the E8 scope cells), so a driver hands them
//! to [`run_batch`] as one job list. Results come back in submission
//! order and the trace is the same tree at any thread count, so the
//! thread count changes wall clock and nothing else.

use mca_obs::{CollectSink, Event, Handle, SpanRecorder};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// A finished job: its index in the batch, its result, and, when the
/// caller traces, its recorder's epoch and the spans it recorded.
struct Done<T> {
    index: usize,
    value: T,
    trace: Option<(Instant, Vec<Event>)>,
}

/// Runs `jobs` on `min(threads, jobs.len())` scoped worker threads and
/// returns their results in submission order. Workers take job indices
/// from one atomic counter and live for this call only.
///
/// When `spans` is set, each job is called with a span recorder of its
/// own that records into memory on the worker. After every worker has
/// joined, the batch replays each job's spans in job order under a
/// `runtime.batch` span (field `workers`): they nest under a
/// `runtime.job:<label>` span with the fields `job` (the index in the
/// batch), `worker` and `queue_wait_ns` (batch start to job start). The
/// span tree is therefore the same at any thread count. A job reports
/// what it found through its result and its span fields.
///
/// A job that ignores its argument still names its type, so that it
/// accepts a recorder borrowed for any lifetime:
///
/// ```
/// use mca_obs::SpanRecorder;
/// use mca_verify::batch::run_batch;
///
/// let jobs: Vec<(String, _)> = (0..4u64)
///     .map(|i| {
///         let square = move |_: Option<&SpanRecorder>| i * i;
///         (format!("square:{i}"), square)
///     })
///     .collect();
/// assert_eq!(run_batch(2, jobs, None), vec![0, 1, 4, 9]);
/// ```
///
/// # Panics
///
/// When a job panics, the other workers run the remaining jobs, and the
/// job's own panic payload is then re-raised on the caller's thread.
pub fn run_batch<T, F>(
    threads: usize,
    jobs: Vec<(String, F)>,
    spans: Option<&SpanRecorder>,
) -> Vec<T>
where
    T: Send,
    F: FnOnce(Option<&SpanRecorder>) -> T + Send,
{
    let mut batch = spans.map(|r| r.enter("runtime.batch"));
    let workers = threads.max(1).min(jobs.len());
    let record = spans.is_some();
    let start = Instant::now();
    let slots: Vec<Mutex<Option<(String, F)>>> =
        jobs.into_iter().map(|job| Mutex::new(Some(job))).collect();
    // The counter only hands out indices; each job itself moves to its
    // worker through its slot's mutex, so no ordering beyond the atomic
    // increment is needed.
    let next = AtomicUsize::new(0);
    let work = |worker: usize| {
        let mut done = Vec::new();
        loop {
            let index = next.fetch_add(1, Ordering::Relaxed);
            let Some(slot) = slots.get(index) else {
                break;
            };
            let (label, job) = slot
                .lock()
                .expect("a job slot is locked only to take its job")
                .take()
                .expect("each job index is handed out once");
            let queue_wait_ns = start.elapsed().as_nanos() as u64;
            let sink = record.then(|| Handle::new(CollectSink::default()));
            let recorder = sink.as_ref().map(|s| SpanRecorder::new(s.observer()));
            let mut span = recorder
                .as_ref()
                .map(|r| r.enter(&format!("runtime.job:{label}")));
            let value = job(recorder.as_ref());
            if let Some(span) = span.as_mut() {
                span.field("job", index as u64);
                span.field("worker", worker as u64);
                span.field("queue_wait_ns", queue_wait_ns);
            }
            drop(span);
            let trace = recorder
                .zip(sink)
                .map(|(r, sink)| (r.epoch(), sink.with(|s| std::mem::take(&mut s.events))));
            done.push(Done {
                index,
                value,
                trace,
            });
        }
        done
    };
    let mut finished: Vec<Option<Done<T>>> = slots.iter().map(|_| None).collect();
    let mut panicked = None;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|worker| {
                let work = &work;
                scope.spawn(move || work(worker))
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(done) => {
                    for d in done {
                        let index = d.index;
                        finished[index] = Some(d);
                    }
                }
                Err(payload) => {
                    panicked.get_or_insert(payload);
                }
            }
        }
    });
    if let Some(payload) = panicked {
        std::panic::resume_unwind(payload);
    }
    let values = finished
        .into_iter()
        .map(|d| {
            let d = d.expect("every job ran exactly once");
            if let (Some(spans), Some((epoch, events))) = (spans, &d.trace) {
                spans.replay(*epoch, events);
            }
            d.value
        })
        .collect();
    if let Some(batch) = batch.as_mut() {
        batch.field("workers", workers as u64);
    }
    values
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `jobs` traced into memory and returns the results with the
    /// recorded events.
    fn traced<T: Send>(
        threads: usize,
        jobs: Vec<(String, impl FnOnce(Option<&SpanRecorder>) -> T + Send)>,
    ) -> (Vec<T>, Vec<Event>) {
        let handle = Handle::new(CollectSink::default());
        let spans = SpanRecorder::new(handle.observer());
        let values = run_batch(threads, jobs, Some(&spans));
        (values, handle.with(|s| std::mem::take(&mut s.events)))
    }

    #[test]
    fn results_come_back_in_submission_order() {
        let jobs: Vec<(String, _)> = (0..32u64)
            .map(|i| (format!("square:{i}"), move |_: Option<&SpanRecorder>| i * i))
            .collect();
        assert_eq!(
            run_batch(4, jobs, None),
            (0..32).map(|i| i * i).collect::<Vec<_>>()
        );
    }

    #[test]
    fn a_batch_starts_no_more_workers_than_jobs() {
        let jobs: Vec<(String, _)> = (0..3u64)
            .map(|i| (format!("j{i}"), move |_: Option<&SpanRecorder>| i))
            .collect();
        let (values, events) = traced(16, jobs);
        assert_eq!(values, [0, 1, 2]);
        let exit_field = |key: &str| -> Vec<u64> {
            events
                .iter()
                .filter_map(|e| match e {
                    Event::SpanExit { fields, .. } => {
                        fields.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
                    }
                    _ => None,
                })
                .collect()
        };
        let mut workers = exit_field("worker");
        assert_eq!(workers.len(), 3, "one runtime.job span per job");
        workers.sort_unstable();
        workers.dedup();
        assert!(
            workers.len() <= 3 && workers.iter().all(|&w| w < 3),
            "{workers:?}"
        );
        assert_eq!(exit_field("workers"), [3]);
    }

    #[test]
    fn job_events_and_spans_replay_in_job_order_under_the_batch() {
        let jobs: Vec<(String, _)> = (0..6u64)
            .map(|i| {
                (format!("j{i}"), move |spans: Option<&SpanRecorder>| {
                    let _inner = spans.map(|r| r.enter("inner"));
                })
            })
            .collect();
        let (_, events) = traced(3, jobs);
        let enters: Vec<(u64, Option<u64>, &str)> = events
            .iter()
            .filter_map(|e| match e {
                Event::SpanEnter {
                    id, parent, name, ..
                } => Some((*id, *parent, name.as_str())),
                _ => None,
            })
            .collect();
        assert_eq!(enters[0], (0, None, "runtime.batch"));
        for i in 0..6u64 {
            let job = 1 + 2 * i;
            assert_eq!(
                enters[job as usize],
                (job, Some(0), format!("runtime.job:j{i}").as_str())
            );
            assert_eq!(enters[job as usize + 1], (job + 1, Some(job), "inner"));
        }
    }

    #[test]
    #[should_panic(expected = "job 2 gave up")]
    fn a_job_panic_is_re_raised_with_its_own_message() {
        let jobs: Vec<(String, _)> = (0..5u64)
            .map(|i| {
                (format!("j{i}"), move |_: Option<&SpanRecorder>| {
                    assert!(i != 2, "job {i} gave up");
                    i
                })
            })
            .collect();
        run_batch(2, jobs, None);
    }
}
