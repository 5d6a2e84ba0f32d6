//! The work-stealing worker pool.
//!
//! A std-only job engine: `N` OS threads, one local deque per worker plus a
//! shared overflow queue. Submitted jobs are distributed round-robin across
//! the local deques; an idle worker pops its own deque first, then steals
//! from its peers, then drains the overflow queue, then parks on a condvar.
//!
//! Every job carries a monotonically increasing id (submission order) and a
//! human label; the pool records a [`JobPhase`] trace entry for each state
//! transition, which [`Runtime::drain_job_events`] converts into
//! `mca-obs` events in deterministic (job-id) order.

use crate::trace::{JobPhase, JobTraceLog};
use mca_obs::{Event, Metrics, SharedObserver};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

type Job = Box<dyn FnOnce(&WorkerCtx) + Send + 'static>;

/// One executed job's window:
/// `(job, worker, queue_wait_ns, start_off_ns, end_off_ns)`.
type JobWindow = (u64, usize, u64, u64, u64);

/// A submitted job waiting in a worker's deque.
struct Queued {
    id: u64,
    /// Submission offset from the pool epoch, so the executing worker can
    /// account queue-wait time.
    sched_off: u64,
    run: Job,
}

/// Context handed to every executing job.
struct WorkerCtx {
    /// Index of the worker thread running the job (0-based).
    worker: usize,
    /// The job's runtime-assigned id (submission order).
    job: u64,
}

/// Cumulative per-worker execution statistics.
///
/// Everything here is wall-clock-ish scheduling data — which worker ran
/// what, and for how long — so it lives in the metrics registry (and the
/// opt-in span stream), never in the reproducible event trace.
#[derive(Clone, Copy, Debug, Default)]
pub struct WorkerStats {
    /// Jobs this worker executed.
    pub jobs: u64,
    /// Jobs this worker popped from its own deque.
    pub local_pops: u64,
    /// Jobs this worker stole from a peer's deque.
    pub steals: u64,
    /// Nanoseconds spent executing jobs (excludes idle time).
    pub busy_ns: u64,
    /// Nanoseconds jobs run by this worker spent enqueued (submission to
    /// pickup), summed over jobs.
    pub queue_wait_ns: u64,
    /// Nanoseconds this worker spent idle: parked on the condvar or
    /// spinning for a claimable job.
    pub idle_ns: u64,
}

struct PoolState {
    /// Claim tickets: jobs pushed but not yet picked up.
    pending: usize,
    shutdown: bool,
}

struct Shared {
    state: Mutex<PoolState>,
    signal: Condvar,
    /// One local deque per worker; `submit` round-robins new jobs across
    /// them and idle workers steal from non-owned deques.
    queues: Vec<Mutex<VecDeque<Queued>>>,
    jobs_executed: Vec<AtomicU64>,
    jobs_local: Vec<AtomicU64>,
    jobs_stolen: Vec<AtomicU64>,
    busy_ns: Vec<AtomicU64>,
    queue_wait_ns: Vec<AtomicU64>,
    idle_ns: Vec<AtomicU64>,
    /// Jobs whose post-run accounting (counters + execution window) has
    /// been published. A job's *result* can reach the submitter before its
    /// accounting lands, so drain-side readers wait for this to catch up
    /// to the submission count.
    jobs_accounted: AtomicU64,
    trace: JobTraceLog,
    /// Pool creation time; job execution windows are recorded as offsets
    /// from this epoch so [`Runtime::emit_job_spans`] can replay them
    /// against any recorder's clock.
    epoch: Instant,
    /// One [`JobWindow`] per executed job, in completion order
    /// (drained by [`Runtime::emit_job_spans`]).
    job_windows: Mutex<Vec<JobWindow>>,
    /// `(job, label)` per submitted job.
    job_labels: Mutex<Vec<(u64, String)>>,
}

impl Shared {
    /// Claims one pending-job ticket, blocking until one is available.
    /// Returns `false` on shutdown with nothing left to run.
    fn claim(&self) -> bool {
        let mut state = self.state.lock().expect("pool state poisoned");
        loop {
            if state.pending > 0 {
                state.pending -= 1;
                return true;
            }
            if state.shutdown {
                return false;
            }
            state = self.signal.wait(state).expect("pool state poisoned");
        }
    }

    /// Finds the job backing an already-claimed ticket. Jobs are enqueued
    /// before their ticket is published, so a claimed ticket's job is
    /// always discoverable; the loop only spins when another worker is
    /// between `pop` and re-publication (never, in this design). The flag
    /// is `true` when the job was stolen from a peer.
    fn find_job(&self, own: usize) -> (Queued, bool) {
        loop {
            if let Some(job) = self.queues[own].lock().expect("queue poisoned").pop_front() {
                return (job, false);
            }
            for offset in 1..self.queues.len() {
                let victim = (own + offset) % self.queues.len();
                let stolen = self.queues[victim]
                    .lock()
                    .expect("queue poisoned")
                    .pop_back();
                if let Some(job) = stolen {
                    return (job, true);
                }
            }
            std::thread::yield_now();
        }
    }
}

fn worker_loop(shared: Arc<Shared>, index: usize) {
    loop {
        // Everything between here and job pickup — parking on the condvar
        // and the steal loop — is idle time.
        let idle_start = Instant::now();
        let claimed = shared.claim();
        let found = if claimed {
            Some(shared.find_job(index))
        } else {
            None
        };
        shared.idle_ns[index].fetch_add(idle_start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        let Some((queued, stolen)) = found else {
            break;
        };
        let Queued { id, sched_off, run } = queued;
        if stolen {
            shared.jobs_stolen[index].fetch_add(1, Ordering::Relaxed);
        } else {
            shared.jobs_local[index].fetch_add(1, Ordering::Relaxed);
        }
        shared.trace.record(id, JobPhase::Started { worker: index });
        let start_off = shared.epoch.elapsed().as_nanos() as u64;
        let queue_wait = start_off.saturating_sub(sched_off);
        shared.queue_wait_ns[index].fetch_add(queue_wait, Ordering::Relaxed);
        let start = Instant::now();
        run(&WorkerCtx {
            worker: index,
            job: id,
        });
        let end_off = shared.epoch.elapsed().as_nanos() as u64;
        shared.busy_ns[index].fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        shared.jobs_executed[index].fetch_add(1, Ordering::Relaxed);
        shared
            .job_windows
            .lock()
            .expect("job windows poisoned")
            .push((id, index, queue_wait, start_off, end_off));
        // Published last: a job's result can reach the submitter (the
        // `tx.send` inside the job closure) before this accounting does, so
        // the drain-side APIs wait on this counter (see `quiesce`).
        shared.jobs_accounted.fetch_add(1, Ordering::Release);
    }
}

/// A fixed-size work-stealing pool of verification workers.
///
/// Dropping the runtime shuts the pool down after all submitted jobs have
/// run. [`run_batch`](Runtime::run_batch) blocks until its jobs complete,
/// so batch results never outlive the runtime.
///
/// Jobs must not submit further work to the same runtime: all workers
/// could then be blocked waiting on jobs that no thread is free to run.
pub struct Runtime {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    next_job: AtomicU64,
    next_queue: AtomicUsize,
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("threads", &self.workers.len())
            .finish_non_exhaustive()
    }
}

impl Runtime {
    /// Creates a pool with `threads` workers. `threads == 0` selects the
    /// machine's available parallelism.
    pub fn new(threads: usize) -> Runtime {
        let threads = if threads == 0 {
            std::thread::available_parallelism().map_or(1, usize::from)
        } else {
            threads
        };
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                pending: 0,
                shutdown: false,
            }),
            signal: Condvar::new(),
            queues: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            jobs_executed: (0..threads).map(|_| AtomicU64::new(0)).collect(),
            jobs_local: (0..threads).map(|_| AtomicU64::new(0)).collect(),
            jobs_stolen: (0..threads).map(|_| AtomicU64::new(0)).collect(),
            busy_ns: (0..threads).map(|_| AtomicU64::new(0)).collect(),
            queue_wait_ns: (0..threads).map(|_| AtomicU64::new(0)).collect(),
            idle_ns: (0..threads).map(|_| AtomicU64::new(0)).collect(),
            jobs_accounted: AtomicU64::new(0),
            trace: JobTraceLog::default(),
            epoch: Instant::now(),
            job_windows: Mutex::new(Vec::new()),
            job_labels: Mutex::new(Vec::new()),
        });
        let workers = (0..threads)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("mca-runtime-{i}"))
                    .spawn(move || worker_loop(shared, i))
                    .expect("spawn worker thread")
            })
            .collect();
        Runtime {
            shared,
            workers,
            next_job: AtomicU64::new(0),
            next_queue: AtomicUsize::new(0),
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Submits one raw job. Its `job-scheduled` entry is recorded here;
    /// the worker records its start and execution window.
    fn submit(&self, label: &str, job: Job) {
        let id = self.next_job.fetch_add(1, Ordering::Relaxed);
        self.shared.trace.record(
            id,
            JobPhase::Scheduled {
                label: label.to_string(),
            },
        );
        self.shared
            .job_labels
            .lock()
            .expect("job labels poisoned")
            .push((id, label.to_string()));
        let queue = self.next_queue.fetch_add(1, Ordering::Relaxed) % self.shared.queues.len();
        let sched_off = self.shared.epoch.elapsed().as_nanos() as u64;
        self.shared.queues[queue]
            .lock()
            .expect("queue poisoned")
            .push_back(Queued {
                id,
                sched_off,
                run: job,
            });
        let mut state = self.shared.state.lock().expect("pool state poisoned");
        state.pending += 1;
        drop(state);
        self.shared.signal.notify_one();
    }

    /// Runs every job to completion and returns the results
    /// in submission order, regardless of which workers ran what — batch
    /// output is therefore deterministic whenever the jobs themselves are.
    /// Each job is traced as `job-scheduled`, `job-started` and
    /// `job-finished` with outcome `"ok"`.
    pub fn run_batch<T, F>(&self, jobs: Vec<(String, F)>) -> Vec<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let n = jobs.len();
        let (tx, rx) = mpsc::channel::<(usize, T)>();
        for (index, (label, f)) in jobs.into_iter().enumerate() {
            let tx = tx.clone();
            let trace = self.shared.trace.clone();
            self.submit(
                &label,
                Box::new(move |ctx| {
                    let value = f();
                    trace.record(
                        ctx.job,
                        JobPhase::Finished {
                            worker: ctx.worker,
                            outcome: "ok".to_string(),
                        },
                    );
                    let _ = tx.send((index, value));
                }),
            );
        }
        drop(tx);
        let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
        for (index, value) in rx {
            slots[index] = Some(value);
        }
        slots
            .into_iter()
            .map(|s| s.expect("every batch job reports exactly once"))
            .collect()
    }

    /// Drains the recorded job trace as `mca-obs` events, sorted by
    /// (job id, phase) so the output is deterministic for a fixed workload
    /// regardless of how the scheduler interleaved the jobs.
    pub fn drain_job_events(&self) -> Vec<Event> {
        self.shared.trace.drain_events()
    }

    /// Drains the job trace into an observer (see
    /// [`drain_job_events`](Runtime::drain_job_events)).
    pub fn emit_job_events(&self, observer: &SharedObserver) {
        for event in self.drain_job_events() {
            observer.emit(&event);
        }
    }

    /// Drains the recorded per-job execution windows as
    /// `runtime.job:<label>` spans on `spans`, in job-id order.
    ///
    /// Workers measure wall-clock offsets against the pool's own epoch;
    /// this method replays them post-hoc against the recorder's clock, so
    /// the recorder (which is single-threaded by design) is only ever
    /// touched from the caller's thread and span emission order is
    /// deterministic for a fixed workload regardless of scheduling. This is
    /// deliberately separate from [`drain_job_events`](Runtime::drain_job_events):
    /// job *events* are keyed by logical progress and byte-identical across
    /// runs, while job *spans* carry wall-clock durations and are strictly
    /// opt-in.
    pub fn emit_job_spans(&self, spans: &mca_obs::SpanRecorder) {
        self.quiesce();
        let mut windows = std::mem::take(
            &mut *self
                .shared
                .job_windows
                .lock()
                .expect("job windows poisoned"),
        );
        windows.sort_unstable_by_key(|&(id, ..)| id);
        let labels = self.shared.job_labels.lock().expect("job labels poisoned");
        // Align the pool epoch with the recorder epoch: both clocks are
        // monotonic Instants, so one signed offset maps between them.
        let delta = spans.now_ns() as i128 - self.shared.epoch.elapsed().as_nanos() as i128;
        let map = |off: u64| u64::try_from(off as i128 + delta).unwrap_or(0);
        for (id, worker, queue_wait, start_off, end_off) in windows {
            let label = labels
                .iter()
                .find(|(j, _)| *j == id)
                .map_or("?", |(_, l)| l.as_str());
            // `worker` and `queue_wait_ns` are scheduling accidents — the
            // trace outline reduces them to field names, like the other
            // machine-dependent span fields.
            spans.emit_complete(
                &format!("runtime.job:{label}"),
                map(start_off),
                map(end_off),
                vec![
                    ("job".to_string(), id),
                    ("worker".to_string(), worker as u64),
                    ("queue_wait_ns".to_string(), queue_wait),
                ],
            );
        }
    }

    /// Waits until every submitted job's post-run accounting is published.
    ///
    /// [`run_batch`](Runtime::run_batch) returns when the last job's
    /// *result* arrives, which can be a few instructions before the worker
    /// pushes that job's counters and execution window. The gap is tiny
    /// and bounded (the worker is between `job()` returning and its next
    /// loop iteration), so a yield loop is enough.
    fn quiesce(&self) {
        let submitted = self.next_job.load(Ordering::Relaxed);
        while self.shared.jobs_accounted.load(Ordering::Acquire) < submitted {
            std::thread::yield_now();
        }
    }

    /// Per-worker execution statistics, indexed by worker.
    pub fn worker_stats(&self) -> Vec<WorkerStats> {
        self.quiesce();
        (0..self.threads())
            .map(|i| WorkerStats {
                jobs: self.shared.jobs_executed[i].load(Ordering::Relaxed),
                local_pops: self.shared.jobs_local[i].load(Ordering::Relaxed),
                steals: self.shared.jobs_stolen[i].load(Ordering::Relaxed),
                busy_ns: self.shared.busy_ns[i].load(Ordering::Relaxed),
                queue_wait_ns: self.shared.queue_wait_ns[i].load(Ordering::Relaxed),
                idle_ns: self.shared.idle_ns[i].load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Records per-worker gauges and timers into a metrics registry under
    /// `prefix` (e.g. `runtime.w0.jobs`, `runtime.w1.busy`). Job counts
    /// (total, local pops, steals) land as gauges; busy/queue-wait/idle
    /// time as timers. This is the
    /// deterministic drain of the per-worker counters: registry keys are
    /// sorted, values are logical job counts plus wall-clock durations that
    /// belong in metrics (never in the event trace), and `repro why` reads
    /// them to diagnose scheduling bottlenecks.
    pub fn record_metrics(&self, metrics: &mut Metrics, prefix: &str) {
        metrics.set_gauge(&format!("{prefix}.threads"), self.threads() as i64);
        for (i, w) in self.worker_stats().iter().enumerate() {
            metrics.set_gauge(&format!("{prefix}.w{i}.jobs"), w.jobs as i64);
            metrics.set_gauge(&format!("{prefix}.w{i}.local_pops"), w.local_pops as i64);
            metrics.set_gauge(&format!("{prefix}.w{i}.steals"), w.steals as i64);
            metrics.add_timer_ns(&format!("{prefix}.w{i}.busy"), w.busy_ns);
            metrics.add_timer_ns(&format!("{prefix}.w{i}.queue_wait"), w.queue_wait_ns);
            metrics.add_timer_ns(&format!("{prefix}.w{i}.idle"), w.idle_ns);
        }
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("pool state poisoned");
            state.shutdown = true;
        }
        self.shared.signal.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_returns_results_in_submission_order() {
        let rt = Runtime::new(4);
        let jobs: Vec<(String, _)> = (0..32)
            .map(|i| (format!("square:{i}"), move || i * i))
            .collect();
        let results = rt.run_batch(jobs);
        assert_eq!(results, (0..32).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn worker_stats_cover_all_executed_jobs() {
        let rt = Runtime::new(2);
        let jobs: Vec<(String, _)> = (0..10).map(|i| (format!("j{i}"), move || i)).collect();
        rt.run_batch(jobs);
        let total: u64 = rt.worker_stats().iter().map(|w| w.jobs).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn emit_job_spans_replays_windows_in_job_id_order() {
        let rt = Runtime::new(3);
        let jobs: Vec<(String, _)> = (0..8).map(|i| (format!("job:{i}"), move || i)).collect();
        rt.run_batch(jobs);
        let handle = mca_obs::Handle::new(mca_obs::CollectSink::default());
        let spans = mca_obs::SpanRecorder::new(handle.observer());
        rt.emit_job_spans(&spans);
        let names: Vec<String> = handle.with(|sink| {
            sink.events
                .iter()
                .filter_map(|e| match e {
                    Event::SpanEnter { name, .. } => Some(name.clone()),
                    _ => None,
                })
                .collect()
        });
        assert_eq!(
            names,
            (0..8)
                .map(|i| format!("runtime.job:job:{i}"))
                .collect::<Vec<_>>()
        );
        // Drained: a second call replays nothing (8 enter/exit pairs).
        rt.emit_job_spans(&spans);
        assert_eq!(handle.with(|sink| sink.events.len()), 16);
    }

    #[test]
    fn worker_telemetry_accounts_pops_waits_and_idle() {
        let rt = Runtime::new(2);
        let jobs: Vec<(String, _)> = (0..12u64)
            .map(|i| {
                (format!("j{i}"), move || {
                    (0..10_000u64).fold(i, |acc, x| acc.wrapping_add(x))
                })
            })
            .collect();
        rt.run_batch(jobs);
        let stats = rt.worker_stats();
        assert_eq!(stats.iter().map(|w| w.jobs).sum::<u64>(), 12);
        // Every executed job was either a local pop or a steal.
        assert_eq!(
            stats.iter().map(|w| w.local_pops + w.steals).sum::<u64>(),
            12
        );
        // Someone was idle at some point (the pool existed before the
        // first submission).
        assert!(stats.iter().any(|w| w.idle_ns > 0));
    }

    #[test]
    fn record_metrics_exposes_per_worker_scheduling_counters() {
        let rt = Runtime::new(2);
        let jobs: Vec<(String, _)> = (0..4u64).map(|i| (format!("j{i}"), move || i)).collect();
        rt.run_batch(jobs);
        let mut metrics = Metrics::new();
        rt.record_metrics(&mut metrics, "runtime");
        assert_eq!(metrics.gauge("runtime.threads"), Some(2));
        for key in ["jobs", "local_pops", "steals"] {
            assert!(
                metrics.gauge(&format!("runtime.w0.{key}")).is_some(),
                "missing gauge runtime.w0.{key}"
            );
        }
        let rendered = metrics.to_json().render();
        for key in ["busy", "queue_wait", "idle"] {
            assert!(
                rendered.contains(&format!("runtime.w1.{key}")),
                "missing timer runtime.w1.{key} in {rendered}"
            );
        }
    }

    #[test]
    fn zero_threads_selects_available_parallelism() {
        let rt = Runtime::new(0);
        assert!(rt.threads() >= 1);
    }
}
