//! Deterministic job-lifecycle tracing.
//!
//! The pool's workers run concurrently, so raw append order in the trace
//! log depends on scheduling. To keep the *observable* trace deterministic
//! (the doctrine of `mca-obs`: events keyed by logical progress, never
//! wall-clock), the log is drained sorted by `(job id, phase rank)` —
//! job ids are assigned in submission order, and a job's phases have a
//! fixed rank (`scheduled < started < finished`). For a fixed
//! workload the drained event sequence is therefore identical no matter
//! how many workers ran it or how they interleaved.
//!
//! `SharedObserver` is deliberately **not** `Send` (it is an
//! `Rc<RefCell<..>>`), so workers never touch an observer directly: they
//! record into this `Mutex`-guarded log, and the coordinating thread
//! forwards the drained events to its observer.

use mca_obs::Event;
use std::sync::{Arc, Mutex};

/// One lifecycle transition of a job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum JobPhase {
    /// Submitted to the pool (recorded by the submitting thread).
    Scheduled {
        /// Human label for the job.
        label: String,
    },
    /// A worker began executing the job.
    Started {
        /// Executing worker index.
        worker: usize,
    },
    /// The job ran to completion.
    Finished {
        /// Executing worker index.
        worker: usize,
        /// Outcome label (`"ok"` for every batch job).
        outcome: String,
    },
}

impl JobPhase {
    /// Sort rank within one job's lifecycle.
    fn rank(&self) -> u8 {
        match self {
            JobPhase::Scheduled { .. } => 0,
            JobPhase::Started { .. } => 1,
            JobPhase::Finished { .. } => 2,
        }
    }
}

/// A shareable, append-only log of `(job, phase)` records.
#[derive(Clone, Debug, Default)]
pub(crate) struct JobTraceLog {
    entries: Arc<Mutex<Vec<(u64, JobPhase)>>>,
}

impl JobTraceLog {
    /// Appends one record. Callable from any thread.
    pub(crate) fn record(&self, job: u64, phase: JobPhase) {
        self.entries
            .lock()
            .expect("job trace poisoned")
            .push((job, phase));
    }

    /// Removes all records and returns them as `mca-obs` events, sorted by
    /// `(job id, phase rank)` for scheduler-independent output. The worker
    /// index recorded in each phase is deliberately dropped here: which
    /// worker ran a job is a scheduling accident, and emitting it would
    /// break the byte-identical-trace contract. Per-worker attribution is
    /// available through [`crate::Runtime::worker_stats`] instead.
    pub(crate) fn drain_events(&self) -> Vec<Event> {
        let mut entries: Vec<(u64, JobPhase)> =
            std::mem::take(&mut *self.entries.lock().expect("job trace poisoned"));
        entries.sort_by_key(|a| (a.0, a.1.rank()));
        entries
            .into_iter()
            .map(|(job, phase)| match phase {
                JobPhase::Scheduled { label } => Event::JobScheduled { job, label },
                JobPhase::Started { .. } => Event::JobStarted { job },
                JobPhase::Finished { outcome, .. } => Event::JobFinished { job, outcome },
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drain_sorts_by_job_then_phase() {
        let log = JobTraceLog::default();
        // Deliberately interleaved append order, as concurrent workers
        // would produce.
        log.record(1, JobPhase::Started { worker: 0 });
        log.record(
            0,
            JobPhase::Finished {
                worker: 1,
                outcome: "ok".into(),
            },
        );
        log.record(1, JobPhase::Scheduled { label: "b".into() });
        log.record(0, JobPhase::Scheduled { label: "a".into() });
        log.record(0, JobPhase::Started { worker: 1 });
        log.record(
            1,
            JobPhase::Finished {
                worker: 0,
                outcome: "ok".into(),
            },
        );
        let kinds: Vec<String> = log
            .drain_events()
            .iter()
            .map(|e| e.to_json_line())
            .collect();
        assert_eq!(
            kinds,
            vec![
                r#"{"event":"job-scheduled","job":0,"label":"a"}"#,
                r#"{"event":"job-started","job":0}"#,
                r#"{"event":"job-finished","job":0,"outcome":"ok"}"#,
                r#"{"event":"job-scheduled","job":1,"label":"b"}"#,
                r#"{"event":"job-started","job":1}"#,
                r#"{"event":"job-finished","job":1,"outcome":"ok"}"#,
            ]
        );
        assert!(log.drain_events().is_empty(), "drain empties the log");
    }
}
