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
//! what usually causes it.

use crate::service::ServiceStats;
use crate::trace::ParsedTrace;
use mca_obs::Json;
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

/// Runs the **service** rule family (W101–W106) over a parsed Metrics
/// scrape and, optionally, a FlightDump JSON — the `repro why --serve`
/// path. Same contract as [`diagnose`]: ranked most severe first, ties
/// broken by rule id, empty on a healthy service.
pub fn diagnose_service(stats: &ServiceStats, flight: Option<&Json>) -> Vec<WhyFinding> {
    let mut findings = Vec::new();
    diagnose_hit_rate(stats, &mut findings);
    diagnose_queue_saturation(stats, &mut findings);
    diagnose_tail_blowup(stats, &mut findings);
    if let Some(flight) = flight {
        diagnose_slow_phase(flight, &mut findings);
    }
    diagnose_timeout_churn(stats, &mut findings);
    diagnose_error_rate(stats, &mut findings);
    findings.sort_by(|a, b| b.severity.cmp(&a.severity).then(a.rule.cmp(b.rule)));
    findings
}

/// W101 cache hit-rate collapse — the service exists to memoize; a cold
/// hit rate over a meaningful cacheable volume means the cache is
/// thrashing (evictions) or every request is genuinely distinct.
fn diagnose_hit_rate(stats: &ServiceStats, findings: &mut Vec<WhyFinding>) {
    let disposition = |d: &str| {
        stats
            .value("mca_serve_cache_disposition_total", &[("disposition", d)])
            .unwrap_or(0.0)
    };
    let hits = disposition("verdict-hit");
    let cacheable = hits + disposition("miss");
    if cacheable < 20.0 {
        return;
    }
    let rate = hits / cacheable * 100.0;
    if rate < 50.0 {
        findings.push(WhyFinding {
            rule: "W101",
            severity: if rate < 20.0 {
                WhySeverity::Critical
            } else {
                WhySeverity::Warning
            },
            summary: format!(
                "cache hit rate is {rate:.0}% over {cacheable:.0} cacheable request(s)"
            ),
            evidence: format!(
                "{hits:.0} hit(s) vs {:.0} miss(es); {:.0} eviction(s), {:.0} cache byte(s) \
                 high-water",
                disposition("miss"),
                stats
                    .value("mca_serve_cache_evictions_total", &[])
                    .unwrap_or(0.0),
                stats.value("mca_serve_cache_bytes_hwm", &[]).unwrap_or(0.0),
            ),
            hint: "evictions near the byte high-water mean the budget is too small \
                   (raise --cache-mb); zero evictions with a cold rate means the traffic \
                   genuinely never repeats and the daemon is pure overhead",
        });
    }
}

/// W102 queue saturation — the admission high-water reached (or neared)
/// the configured capacity, so clients were blocking in `acquire`.
fn diagnose_queue_saturation(stats: &ServiceStats, findings: &mut Vec<WhyFinding>) {
    let hwm = stats.value("mca_serve_queue_depth_hwm", &[]).unwrap_or(0.0);
    let cap = stats.value("mca_serve_queue_capacity", &[]).unwrap_or(0.0);
    if cap <= 0.0 || hwm < cap * 0.8 {
        return;
    }
    findings.push(WhyFinding {
        rule: "W102",
        severity: if hwm >= cap {
            WhySeverity::Critical
        } else {
            WhySeverity::Warning
        },
        summary: format!(
            "admission queue high-water {hwm:.0} {} capacity {cap:.0}",
            if hwm >= cap { "hit" } else { "neared" }
        ),
        evidence: format!(
            "depth high-water {hwm:.0} of capacity {cap:.0}; queue-wait p99 {}",
            stats
                .quantile("mca_serve_queue_wait_ns", &[], 0.99)
                .map_or_else(|| "unknown".to_string(), |ns| format!("{:.1}ms", ns / 1e6)),
        ),
        hint: "every slot was (nearly) occupied at least once — raise --queue-cap or \
               --threads, or the burst was bigger than the service is provisioned for",
    });
}

/// W103 tail blowup — per-kind p99 orders of magnitude above p50.
/// Demoted to a warning when the traffic mixes cache hits and misses,
/// because then the tail *is* the misses and W101 already covers a bad
/// mix; it goes critical only when the workload is disposition-uniform
/// (≥99% hits or ≥99% misses) and the tail still blows up.
fn diagnose_tail_blowup(stats: &ServiceStats, findings: &mut Vec<WhyFinding>) {
    let disposition = |d: &str| {
        stats
            .value("mca_serve_cache_disposition_total", &[("disposition", d)])
            .unwrap_or(0.0)
    };
    let hits = disposition("verdict-hit");
    let cacheable = hits + disposition("miss");
    let mix_fraction = if cacheable > 0.0 {
        hits / cacheable
    } else {
        0.0
    };
    let uniform = !(0.01..=0.99).contains(&mix_fraction);
    for kind in stats.label_values("mca_serve_latency_ns_count", "kind") {
        let labels = [("kind", kind.as_str())];
        let count = stats
            .value("mca_serve_latency_ns_count", &labels)
            .unwrap_or(0.0);
        if count < 50.0 {
            continue;
        }
        let (Some(p50), Some(p99)) = (
            stats.quantile("mca_serve_latency_ns", &labels, 0.50),
            stats.quantile("mca_serve_latency_ns", &labels, 0.99),
        ) else {
            continue;
        };
        let ratio = p99 / p50.max(1.0);
        if ratio < 64.0 {
            continue;
        }
        findings.push(WhyFinding {
            rule: "W103",
            severity: if ratio >= 1024.0 && uniform {
                WhySeverity::Critical
            } else {
                WhySeverity::Warning
            },
            summary: format!("`{kind}` p99 is ~{ratio:.0}× its p50 — a heavy latency tail"),
            evidence: format!(
                "{count:.0} sample(s): p50 ≤ {:.2}ms, p99 ≤ {:.2}ms (log2-bin bounds); \
                 hit fraction {:.0}%",
                p50 / 1e6,
                p99 / 1e6,
                mix_fraction * 100.0
            ),
            hint: "with mixed hit/miss traffic the tail is the misses (expected); on a \
                   uniform workload look at the FlightDump slowest list to see which \
                   phase the outliers spend their time in",
        });
    }
}

/// W104 slow-request phase skew — the flight recorder's slowest list
/// spends most of its time in one of translate/solve, naming the layer
/// to optimize first.
fn diagnose_slow_phase(flight: &Json, findings: &mut Vec<WhyFinding>) {
    let Some(Json::Array(slowest)) = flight.get("slowest") else {
        return;
    };
    if slowest.len() < 3 {
        return;
    }
    let sum = |field: &str| -> u64 {
        slowest
            .iter()
            .filter_map(|rec| rec.get(field).and_then(Json::as_u64))
            .sum()
    };
    let translate = sum("translate_ns");
    let solve = sum("solve_ns");
    let total = sum("total_ns");
    if total == 0 {
        return;
    }
    let (phase, ns) = if translate >= solve {
        ("translate", translate)
    } else {
        ("solve", solve)
    };
    let share = ns as f64 / total as f64 * 100.0;
    if share <= 60.0 {
        return;
    }
    findings.push(WhyFinding {
        rule: "W104",
        severity: WhySeverity::Info,
        summary: format!(
            "the {} slowest request(s) spend {share:.0}% of their time in {phase}",
            slowest.len()
        ),
        evidence: format!(
            "across the slowest list: translate {:.1}ms, solve {:.1}ms, total {:.1}ms",
            translate as f64 / 1e6,
            solve as f64 / 1e6,
            total as f64 / 1e6
        ),
        hint: "translate-bound outliers want a cheaper encoding; solve-bound outliers \
               want preprocessing",
    });
}

/// W105 read-timeout churn — idle clients being reaped faster than they
/// send requests.
fn diagnose_timeout_churn(stats: &ServiceStats, findings: &mut Vec<WhyFinding>) {
    let timeouts = stats.total("mca_serve_read_timeouts_total");
    let requests = stats.total("mca_serve_requests_total");
    if timeouts < 3.0 || timeouts <= requests * 0.01 {
        return;
    }
    findings.push(WhyFinding {
        rule: "W105",
        severity: WhySeverity::Warning,
        summary: format!(
            "{timeouts:.0} read timeout(s) against {requests:.0} request(s) — connection churn"
        ),
        evidence: format!(
            "timeouts are {:.1}% of request volume",
            if requests > 0.0 {
                timeouts / requests * 100.0
            } else {
                100.0
            }
        ),
        hint: "clients hold connections open past --read-timeout-secs between requests; \
               raise the timeout or make clients reconnect per burst",
    });
}

/// W106 error-frame rate — the daemon is answering, but with errors.
fn diagnose_error_rate(stats: &ServiceStats, findings: &mut Vec<WhyFinding>) {
    let ok = stats
        .value("mca_serve_responses_total", &[("outcome", "ok")])
        .unwrap_or(0.0);
    let errors = stats
        .value("mca_serve_responses_total", &[("outcome", "error")])
        .unwrap_or(0.0);
    let responses = ok + errors;
    if responses < 20.0 {
        return;
    }
    let rate = errors / responses * 100.0;
    if rate <= 5.0 {
        return;
    }
    findings.push(WhyFinding {
        rule: "W106",
        severity: if rate > 25.0 {
            WhySeverity::Critical
        } else {
            WhySeverity::Warning
        },
        summary: format!("{rate:.0}% of responses are error frames"),
        evidence: format!("{errors:.0} error(s) in {responses:.0} response(s)"),
        hint: "check the per-kind request counts: a client sending unknown scenarios or \
               oversized scopes produces exactly this signature; malformed frames also \
               land here",
    });
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

    // --- service rules (W101–W106) -------------------------------------

    fn scrape(lines: &[&str]) -> ServiceStats {
        ServiceStats::parse(&lines.join("\n"))
    }

    #[test]
    fn healthy_service_scrape_is_quiet() {
        let stats = scrape(&[
            "mca_serve_requests_total{kind=\"check\"} 100",
            "mca_serve_responses_total{outcome=\"ok\"} 100",
            "mca_serve_cache_disposition_total{disposition=\"miss\"} 10",
            "mca_serve_cache_disposition_total{disposition=\"verdict-hit\"} 90",
            "mca_serve_queue_depth_hwm 4",
            "mca_serve_queue_capacity 64",
            "mca_serve_read_timeouts_total 0",
        ]);
        let findings = diagnose_service(&stats, None);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn cold_cache_fires_w101() {
        let stats = scrape(&[
            "mca_serve_cache_disposition_total{disposition=\"miss\"} 90",
            "mca_serve_cache_disposition_total{disposition=\"verdict-hit\"} 10",
            "mca_serve_cache_evictions_total 40",
        ]);
        let f = diagnose_service(&stats, None);
        let w = f.iter().find(|f| f.rule == "W101").expect("fires");
        assert_eq!(w.severity, WhySeverity::Critical);
        // Below the volume floor the rule stays silent.
        let tiny = scrape(&["mca_serve_cache_disposition_total{disposition=\"miss\"} 5"]);
        assert!(diagnose_service(&tiny, None).is_empty());
    }

    #[test]
    fn queue_saturation_fires_w102() {
        let full = scrape(&["mca_serve_queue_depth_hwm 4", "mca_serve_queue_capacity 4"]);
        let f = diagnose_service(&full, None);
        let w = f.iter().find(|f| f.rule == "W102").expect("fires");
        assert_eq!(w.severity, WhySeverity::Critical);
        let near = scrape(&[
            "mca_serve_queue_depth_hwm 52",
            "mca_serve_queue_capacity 64",
        ]);
        let f = diagnose_service(&near, None);
        assert_eq!(f[0].rule, "W102");
        assert_eq!(f[0].severity, WhySeverity::Warning);
    }

    #[test]
    fn tail_blowup_fires_w103_demoted_on_mixed_traffic() {
        let tail = [
            "mca_serve_latency_ns_bucket{kind=\"check\",le=\"1023\"} 60",
            "mca_serve_latency_ns_bucket{kind=\"check\",le=\"16777215\"} 100",
            "mca_serve_latency_ns_bucket{kind=\"check\",le=\"+Inf\"} 100",
            "mca_serve_latency_ns_count{kind=\"check\"} 100",
        ];
        // Uniform traffic (all hits): the blowup is unexplained → critical.
        let mut lines = tail.to_vec();
        lines.push("mca_serve_cache_disposition_total{disposition=\"verdict-hit\"} 100");
        let f = diagnose_service(&scrape(&lines), None);
        let w = f.iter().find(|f| f.rule == "W103").expect("fires");
        assert_eq!(w.severity, WhySeverity::Critical);
        // Mixed hit/miss traffic: the tail is the misses → warning only.
        let mut lines = tail.to_vec();
        lines.push("mca_serve_cache_disposition_total{disposition=\"verdict-hit\"} 80");
        lines.push("mca_serve_cache_disposition_total{disposition=\"miss\"} 20");
        let f = diagnose_service(&scrape(&lines), None);
        let w = f.iter().find(|f| f.rule == "W103").expect("fires");
        assert_eq!(w.severity, WhySeverity::Warning);
        // Too few samples: silent.
        let few = scrape(&[
            "mca_serve_latency_ns_bucket{kind=\"check\",le=\"1023\"} 5",
            "mca_serve_latency_ns_bucket{kind=\"check\",le=\"16777215\"} 10",
            "mca_serve_latency_ns_count{kind=\"check\"} 10",
        ]);
        assert!(diagnose_service(&few, None).is_empty());
    }

    #[test]
    fn translate_dominated_slowest_fires_w104() {
        let rec = |req: u64, translate: u64, solve: u64| {
            format!(
                "{{\"req\":{req},\"kind\":\"check\",\"total_ns\":{},\"translate_ns\":{translate},\"solve_ns\":{solve}}}",
                translate + solve
            )
        };
        let flight = Json::parse(&format!(
            "{{\"slowest\":[{},{},{}]}}",
            rec(1, 900, 100),
            rec(2, 800, 100),
            rec(3, 700, 100)
        ))
        .unwrap();
        let f = diagnose_service(&ServiceStats::default(), Some(&flight));
        let w = f.iter().find(|f| f.rule == "W104").expect("fires");
        assert_eq!(w.severity, WhySeverity::Info);
        assert!(w.summary.contains("translate"), "{}", w.summary);
        // Fewer than 3 slow records: not enough evidence.
        let small = Json::parse(&format!("{{\"slowest\":[{}]}}", rec(1, 900, 100))).unwrap();
        assert!(diagnose_service(&ServiceStats::default(), Some(&small)).is_empty());
    }

    #[test]
    fn timeout_churn_fires_w105() {
        let stats = scrape(&[
            "mca_serve_requests_total{kind=\"check\"} 100",
            "mca_serve_read_timeouts_total 5",
        ]);
        let f = diagnose_service(&stats, None);
        assert_eq!(f[0].rule, "W105");
        assert_eq!(f[0].severity, WhySeverity::Warning);
        // Below both floors (absolute and relative): silent.
        let quiet = scrape(&[
            "mca_serve_requests_total{kind=\"check\"} 1000",
            "mca_serve_read_timeouts_total 2",
        ]);
        assert!(diagnose_service(&quiet, None).is_empty());
    }

    #[test]
    fn error_rate_fires_w106() {
        let noisy = scrape(&[
            "mca_serve_responses_total{outcome=\"ok\"} 60",
            "mca_serve_responses_total{outcome=\"error\"} 40",
        ]);
        let f = diagnose_service(&noisy, None);
        let w = f.iter().find(|f| f.rule == "W106").expect("fires");
        assert_eq!(w.severity, WhySeverity::Critical);
        let mild = scrape(&[
            "mca_serve_responses_total{outcome=\"ok\"} 90",
            "mca_serve_responses_total{outcome=\"error\"} 10",
        ]);
        let f = diagnose_service(&mild, None);
        assert_eq!(f[0].severity, WhySeverity::Warning);
    }

    #[test]
    fn service_findings_rank_and_render_like_the_core_catalog() {
        let stats = scrape(&[
            "mca_serve_queue_depth_hwm 4",
            "mca_serve_queue_capacity 4",
            "mca_serve_responses_total{outcome=\"ok\"} 90",
            "mca_serve_responses_total{outcome=\"error\"} 10",
        ]);
        let findings = diagnose_service(&stats, None);
        assert_eq!(findings.len(), 2);
        assert!(findings.windows(2).all(|w| w[0].severity >= w[1].severity));
        assert_eq!(findings[0].rule, "W102");
        let md = render_why_markdown(&findings, "scrape.txt");
        assert!(md.contains("W102"));
        assert!(md.contains("W106"));
    }
}
