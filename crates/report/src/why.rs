//! Rule-based bottleneck diagnosis over a trace.
//!
//! `repro why` feeds a parsed trace through a fixed catalog of diagnosis
//! rules. Each rule has a stable id (`W001`…), a severity, and a numeric
//! evidence line, so CI can pin the expected diagnosis set on a
//! known-bottleneck fixture exactly like `repro diff` pins regressions.
//! The catalog is documented in EXPERIMENTS.md ("Performance forensics").
//!
//! Rules read only what the observability layers already record: the
//! `runtime.batch` spans and their `runtime.job:*` children from the
//! opt-in `--trace` stream. A diagnosis is a *hypothesis ranked by
//! evidence*, not a verdict — the report says what the numbers show and
//! what usually causes it. (W101–W106, the service rules over a live
//! serve scrape, are retired with that scrape; their ids stay unused.)

use crate::trace::ParsedTrace;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// How loud a finding is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum WhySeverity {
    /// Worth knowing, unlikely to explain a slowdown by itself.
    Info,
    /// Likely contributor to the measured bottleneck.
    Warning,
    /// Dominant, first thing to fix.
    Critical,
}

impl WhySeverity {
    /// Lowercase label used in rendered output.
    pub fn label(self) -> &'static str {
        match self {
            WhySeverity::Info => "info",
            WhySeverity::Warning => "warning",
            WhySeverity::Critical => "critical",
        }
    }
}

/// One diagnosis produced by [`diagnose`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WhyFinding {
    /// Stable rule id (`"W001"`…), pinned by CI fixtures.
    pub rule: &'static str,
    /// Severity, used for ranking.
    pub severity: WhySeverity,
    /// One-line statement of what the numbers show.
    pub summary: String,
    /// The measured evidence behind the summary.
    pub evidence: String,
    /// What usually causes this and where to look.
    pub hint: &'static str,
}

/// Scheduling totals over a trace's parallel batches: the
/// `runtime.batch` spans with two or more `workers`, and their
/// `runtime.job:*` children. A one-worker batch is sequential by request,
/// so its queueing and idle time say nothing about scheduling.
#[derive(Clone, Copy, Debug, Default)]
struct BatchTotals {
    batches: u64,
    jobs: u64,
    /// Summed job durations.
    busy_ns: u64,
    /// Workers × (batch start to last job end), summed over batches.
    capacity_ns: u64,
    queue_wait_ns: u64,
    /// Jobs run by each batch's busiest worker, summed over batches.
    busiest_jobs: u64,
}

fn batch_totals(trace: &ParsedTrace) -> BatchTotals {
    let mut t = BatchTotals::default();
    for batch in trace.spans.iter().filter(|s| s.name == "runtime.batch") {
        let workers = batch.field("workers").unwrap_or(0);
        if workers < 2 {
            continue;
        }
        let jobs: Vec<_> = batch
            .children
            .iter()
            .map(|&c| &trace.spans[c])
            .filter(|s| s.name.starts_with("runtime.job:"))
            .collect();
        let Some(end) = jobs.iter().map(|j| j.end_ns).max() else {
            continue;
        };
        let mut per_worker: BTreeMap<u64, u64> = BTreeMap::new();
        for job in &jobs {
            *per_worker
                .entry(job.field("worker").unwrap_or(0))
                .or_default() += 1;
            t.busy_ns += job.duration_ns();
            t.queue_wait_ns += job.field("queue_wait_ns").unwrap_or(0);
        }
        t.batches += 1;
        t.jobs += jobs.len() as u64;
        t.capacity_ns += workers * end.saturating_sub(batch.start_ns);
        t.busiest_jobs += per_worker.values().max().copied().unwrap_or(0);
    }
    t
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64 * 100.0
    }
}

/// Runs the rule catalog over `trace` and returns findings ranked most
/// severe first (ties broken by rule id, so the ranking is
/// deterministic).
pub fn diagnose(trace: &ParsedTrace) -> Vec<WhyFinding> {
    let mut findings = Vec::new();
    diagnose_scheduling(trace, &mut findings);
    diagnose_job_granularity(trace, &mut findings);
    findings.sort_by(|a, b| b.severity.cmp(&a.severity).then(a.rule.cmp(b.rule)));
    findings
}

/// W001 idle-dominated, W003 queue-wait-heavy and W008 single-worker
/// serialization, all over the trace's parallel batches. (W002, the
/// steal ratio of a work-stealing pool, is retired with that pool.)
fn diagnose_scheduling(trace: &ParsedTrace, findings: &mut Vec<WhyFinding>) {
    let t = batch_totals(trace);
    let idle_ns = t.capacity_ns.saturating_sub(t.busy_ns);
    let idle_pct = pct(idle_ns, t.capacity_ns);
    if t.capacity_ns > 0 && idle_pct > 60.0 {
        findings.push(WhyFinding {
            rule: "W001",
            severity: if idle_pct > 85.0 {
                WhySeverity::Critical
            } else {
                WhySeverity::Warning
            },
            summary: format!(
                "workers idle {idle_pct:.0}% of their batches — the batches are starved for work"
            ),
            evidence: format!(
                "{} parallel batches: jobs busy {:.1}ms of {:.1}ms worker time",
                t.batches,
                t.busy_ns as f64 / 1e6,
                t.capacity_ns as f64 / 1e6
            ),
            hint: "fewer jobs than workers, or one long job finishing alone; \
                   split the long job or batch more work together",
        });
    }
    if t.busy_ns > 0 && t.queue_wait_ns > t.busy_ns / 4 {
        findings.push(WhyFinding {
            rule: "W003",
            severity: WhySeverity::Warning,
            summary: format!(
                "jobs spent {:.0}% of execution time waiting for a worker",
                pct(t.queue_wait_ns, t.busy_ns)
            ),
            evidence: format!(
                "queue wait {:.1}ms vs busy {:.1}ms",
                t.queue_wait_ns as f64 / 1e6,
                t.busy_ns as f64 / 1e6
            ),
            hint: "more runnable jobs than workers for long stretches; \
                   raise --threads or submit fewer, larger jobs",
        });
    }
    if t.jobs >= 4 && pct(t.busiest_jobs, t.jobs) > 80.0 {
        findings.push(WhyFinding {
            rule: "W008",
            severity: WhySeverity::Warning,
            summary: format!(
                "one worker executed {:.0}% of its batch's jobs — the batches are effectively serial",
                pct(t.busiest_jobs, t.jobs)
            ),
            evidence: format!(
                "the busiest worker of each batch ran {} of {} jobs across {} parallel batches",
                t.busiest_jobs, t.jobs, t.batches
            ),
            hint: "jobs finish before the other workers start; \
                   give each job more work or keep the batch sequential",
        });
    }
}

/// W005 sub-millisecond jobs — per-job pool overhead dwarfs the work.
///
/// The median is weighted by time: the duration of the job at which the
/// sorted jobs' running sum reaches half their total. So it is the job
/// length that half the job time is spent in, however many short jobs a
/// batch holds beside the long ones.
fn diagnose_job_granularity(trace: &ParsedTrace, findings: &mut Vec<WhyFinding>) {
    let mut durations: Vec<u64> = trace
        .spans
        .iter()
        .filter(|s| s.name.starts_with("runtime.job:"))
        .map(|s| s.duration_ns())
        .collect();
    if durations.len() < 4 {
        return;
    }
    durations.sort_unstable();
    let total: u64 = durations.iter().sum();
    let mut sum = 0;
    let median = durations
        .iter()
        .copied()
        .find(|&d| {
            sum += d;
            2 * sum >= total
        })
        .expect("the running sum reaches the total");
    if median < 2_000_000 {
        findings.push(WhyFinding {
            rule: "W005",
            severity: if median < 500_000 {
                WhySeverity::Critical
            } else {
                WhySeverity::Warning
            },
            summary: format!(
                "time-weighted median job runs {:.2}ms — scheduling overhead dominates at this granularity",
                median as f64 / 1e6
            ),
            evidence: format!(
                "{} jobs, {:.2}ms in all, time-weighted median {:.2}ms, longest {:.2}ms",
                durations.len(),
                total as f64 / 1e6,
                median as f64 / 1e6,
                *durations.last().unwrap() as f64 / 1e6
            ),
            hint: "starting a worker and replaying a job's trace cost microseconds; \
                   batch cells into fewer jobs or keep sub-millisecond workloads sequential",
        });
    }
}

/// Renders findings as a markdown report (stable across runs for a fixed
/// input, like the other renderers).
pub fn render_why_markdown(findings: &[WhyFinding], source: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# Bottleneck diagnosis");
    let _ = writeln!(out);
    let _ = writeln!(out, "- source: `{source}`");
    let _ = writeln!(out, "- findings: {}", findings.len());
    let _ = writeln!(out);
    if findings.is_empty() {
        let _ = writeln!(
            out,
            "No rule in the catalog fired — nothing in the input looks like a \
             known bottleneck."
        );
        return out;
    }
    for f in findings {
        let _ = writeln!(out, "## {} ({}): {}", f.rule, f.severity.label(), f.summary);
        let _ = writeln!(out);
        let _ = writeln!(out, "- evidence: {}", f.evidence);
        let _ = writeln!(out, "- hint: {}", f.hint);
        let _ = writeln!(out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One job of a fixture batch: `(worker, start_ns, end_ns,
    /// queue_wait_ns)`.
    type Job = (u64, u64, u64, u64);

    /// A trace of `runtime.batch` spans, each `(workers, start_ns, jobs)`,
    /// shaped like the one `run_batch` records.
    fn batch_trace(batches: &[(u64, u64, &[Job])]) -> ParsedTrace {
        let mut lines = Vec::new();
        let mut id = 0;
        for &(workers, start, jobs) in batches {
            let batch = id;
            id += 1;
            lines.push(format!(
                r#"{{"event":"span-enter","id":{batch},"parent":null,"name":"runtime.batch","t_ns":{start}}}"#
            ));
            for (j, &(worker, begin, end, wait)) in jobs.iter().enumerate() {
                lines.push(format!(
                    r#"{{"event":"span-enter","id":{id},"parent":{batch},"name":"runtime.job:cell{j}","t_ns":{begin}}}"#
                ));
                lines.push(format!(
                    r#"{{"event":"span-exit","id":{id},"t_ns":{end},"job":{j},"worker":{worker},"queue_wait_ns":{wait}}}"#
                ));
                id += 1;
            }
            let last = jobs.iter().map(|j| j.2).max().unwrap_or(start);
            lines.push(format!(
                r#"{{"event":"span-exit","id":{batch},"t_ns":{last},"workers":{workers}}}"#
            ));
        }
        ParsedTrace::parse(&lines.join("\n"))
    }

    const MS: u64 = 1_000_000;

    fn rules(trace: &ParsedTrace) -> Vec<(&'static str, WhySeverity)> {
        diagnose(trace)
            .iter()
            .map(|f| (f.rule, f.severity))
            .collect()
    }

    /// Four 10-ms jobs on four workers, each picked up at once.
    fn balanced() -> ParsedTrace {
        let jobs: Vec<Job> = (0..4).map(|w| (w, 0, 10 * MS, 0)).collect();
        batch_trace(&[(4, 0, &jobs)])
    }

    #[test]
    fn balanced_batches_are_quiet() {
        assert!(rules(&balanced()).is_empty(), "{:?}", diagnose(&balanced()));
    }

    #[test]
    fn an_idle_batch_fires_w001_and_a_busy_one_does_not() {
        // Two workers for 20 ms while the jobs run 3 ms in all.
        let idle = batch_trace(&[(
            2,
            0,
            &[(0, 0, MS, 0), (1, 0, MS, 0), (0, 19 * MS, 20 * MS, 0)],
        )]);
        assert!(rules(&idle).contains(&("W001", WhySeverity::Critical)));
        let busy = batch_trace(&[(2, 0, &[(0, 0, 20 * MS, 0), (1, 0, 19 * MS, 0)])]);
        assert!(!rules(&busy).iter().any(|r| r.0 == "W001"));
    }

    #[test]
    fn queued_jobs_fire_w003() {
        // The same four jobs on two workers: two wait 10 ms each, half the
        // 40 ms of work. The quiet case is `balanced`.
        let jobs: Vec<Job> = (0..4)
            .map(|i| {
                (
                    i % 2,
                    (i / 2) * 10 * MS,
                    (i / 2 + 1) * 10 * MS,
                    (i / 2) * 10 * MS,
                )
            })
            .collect();
        assert!(rules(&batch_trace(&[(2, 0, &jobs)])).contains(&("W003", WhySeverity::Warning)));
    }

    #[test]
    fn one_worker_running_every_job_fires_w008() {
        let jobs: Vec<Job> = (0..5)
            .map(|i| (0, i * 4 * MS, (i + 1) * 4 * MS, 0))
            .collect();
        let serial = batch_trace(&[(2, 0, &jobs)]);
        assert!(rules(&serial).contains(&("W008", WhySeverity::Warning)));
        let spread: Vec<Job> = (0..4)
            .map(|i| (i % 2, (i / 2) * 4 * MS, (i / 2 + 1) * 4 * MS, 0))
            .collect();
        assert!(!rules(&batch_trace(&[(2, 0, &spread)]))
            .iter()
            .any(|r| r.0 == "W008"));
    }

    #[test]
    fn one_worker_batches_are_never_scheduling_findings() {
        // Sequential by request: idle, queued and serial, but quiet.
        let jobs: Vec<Job> = (0..5)
            .map(|i| {
                (
                    0,
                    10 * MS + i * 4 * MS,
                    10 * MS + (i + 1) * 4 * MS,
                    i * 4 * MS,
                )
            })
            .collect();
        assert!(rules(&batch_trace(&[(1, 0, &jobs)])).is_empty());
    }

    #[test]
    fn fine_grained_jobs_fire_w005_and_coarse_ones_do_not() {
        let jobs: Vec<Job> = (0..6)
            .map(|i| (i % 2, i * 1000, i * 1000 + 200_000, 0))
            .collect();
        let trace = batch_trace(&[(2, 0, &jobs)]);
        let w005 = diagnose(&trace)
            .into_iter()
            .find(|f| f.rule == "W005")
            .expect("fires");
        assert_eq!(w005.severity, WhySeverity::Critical);
        let coarse: Vec<Job> = (0..6)
            .map(|i| (i % 2, (i / 2) * 5 * MS, (i / 2 + 1) * 5 * MS, 0))
            .collect();
        assert!(rules(&batch_trace(&[(2, 0, &coarse)])).is_empty());
    }

    #[test]
    fn many_tiny_jobs_beside_long_ones_do_not_fire_w005() {
        // Six 20 µs jobs and four 50 ms jobs on two workers: the median
        // over job counts is 20 µs, but nearly all the time is in 50 ms
        // jobs.
        let mut jobs: Vec<Job> = (0..6)
            .map(|i| (0, i * 20_000, (i + 1) * 20_000, 0))
            .collect();
        jobs.extend((0..4).map(|i| (1, i * 50 * MS, (i + 1) * 50 * MS, 0)));
        let trace = batch_trace(&[(2, 0, &jobs)]);
        assert!(
            !rules(&trace).iter().any(|r| r.0 == "W005"),
            "{:?}",
            diagnose(&trace)
        );
    }

    #[test]
    fn findings_rank_critical_first_and_render_stably() {
        let jobs: Vec<Job> = (0..6)
            .map(|i| (0, 90 * MS + i * 1000, 90 * MS + i * 1000 + 100_000, 90 * MS))
            .collect();
        let findings = diagnose(&batch_trace(&[(2, 0, &jobs)]));
        assert!(findings.len() >= 2);
        assert!(findings.windows(2).all(|w| w[0].severity >= w[1].severity));
        let md = render_why_markdown(&findings, "test.jsonl");
        assert!(md.contains("# Bottleneck diagnosis"));
        assert!(md.contains("W001"));
        assert_eq!(md, render_why_markdown(&findings, "test.jsonl"));
    }

    #[test]
    fn empty_inputs_produce_no_findings() {
        let findings = diagnose(&ParsedTrace::default());
        assert!(findings.is_empty());
        let md = render_why_markdown(&findings, "empty.jsonl");
        assert!(md.contains("No rule in the catalog fired"));
    }
}
