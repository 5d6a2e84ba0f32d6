//! `repro` — regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! repro                          # run all experiments (E1..E7)
//! repro e5                       # run one experiment (also: --exp e5)
//! repro --list                   # list experiments
//! repro --trace run.jsonl        # write a JSONL event trace
//! repro e3 --threads 4           # run E3's checks on 4 worker threads
//! repro report run.jsonl         # render a profiling report from a trace
//! repro diff old.json new.json   # regression-gate two BENCH artifacts
//! repro lint                     # static-analyze the scenario matrix
//! repro why run.jsonl            # diagnose bottlenecks from a trace
//! repro serve --addr 127.0.0.1:7117   # verification-as-a-service daemon
//! repro load --smoke             # drive a server, write BENCH_SERVE.json
//! ```
//!
//! With `--trace`, the run also records hierarchical **spans**: one
//! `repro.<exp>` root per experiment, with `runtime.batch` /
//! `runtime.job:*`, `relalg.encode`, `sat.solve`, `sat.restart-epoch` and
//! `verify.state-query` descendants. Span events carry wall-clock
//! timestamps and resource fields, so a trace with spans is **not**
//! byte-reproducible across runs — the logical (non-span) events still
//! are, and so is the span tree's outline, at any `--threads`.
//!
//! A run's numbers reach the reader once each: through its `BENCH_*.json`
//! file, its stdout, and (with `--trace`) its trace.
//!
//! `repro report <trace.jsonl>` renders a self-contained markdown (or
//! `--html`) report from such a trace: span-tree time breakdown, top-k hot
//! spans and event counts. `repro diff <old.json> <new.json>` compares two
//! `BENCH_*` artifacts and exits 1 when a `*secs*` / `*clauses*` /
//! `*conflicts*` leaf regressed past its threshold — the CI tripwire.
//!
//! `--threads N` runs the independent checks of E3, E4 and E8 as batches
//! on up to `N` scoped worker threads (`mca_verify::batch`; `--threads
//! 0`, the default, auto-detects the machine's parallelism). Each driver
//! has one code path at every thread count: outcomes, logical events and
//! the span tree are identical, only wall clock changes. A run of E3 at
//! `N ≥ 2` also records the 1-thread-vs-`N` comparison (the extended
//! policy matrix and the coarse E8 scaling cells) in `BENCH_PAR.json`.
//!
//! Running E5 also (re)generates `BENCH_E5.json` in the current directory:
//! the per-encoding variable/clause counts and solver statistics that seed
//! the repo's performance trajectory.
//!
//! E8 (the scope-scaling sweep) writes `BENCH_SCALE.json`. `--smoke`
//! restricts it to the 2×2 scope (the CI configuration); `--stretch` adds
//! the 5×3 scope to the default 2×2 → 4×3 axis.
//!
//! `repro lint` runs the `mca-lint` static analyzer over the scenario
//! matrix (static model + dynamic scenarios at smoke scopes, both number
//! encodings) plus the workspace source audit. It writes `LINT.jsonl` and
//! `LINT.md` (`--html` adds `LINT.html`) and exits 1 if any
//! `error`-severity finding fires — the CI lint gate. `--fixture
//! pathological` lints the intentionally-broken fixture instead, which
//! must exit 1 (CI asserts the analyzer still catches it).
//!
//! `repro why <trace.jsonl>` runs the performance-forensics rule catalog
//! (see `mca_report::why`) over a trace and prints a ranked bottleneck
//! diagnosis. Exit codes mirror
//! `repro diff`: 0 when no rule fires, 1 when at least one does, 2 on
//! usage/IO errors — so CI can pin the diagnosis set on known fixtures.
//!
//! The service side follows the same workflow: `repro serve --trace FILE`
//! writes one `serve-*` event group per request, with a `serve-span`
//! event splitting its service time into six phases, and `repro report`
//! renders them as a `## Service` section (request mix, cache
//! dispositions, latency by request kind, phase shares).
//!
//! `--reps N` (default 5) controls the benchmark methodology of the
//! `BENCH_PAR.json` section of E3: each timed section runs one untimed warmup
//! iteration and then `N` repetitions, and `BENCH_PAR.json` records the
//! **median** with a `spread` field ((max − min) / median) so `repro
//! diff` gates on a stable statistic instead of a single noisy sample.

use mca_obs::json::Json;
use mca_obs::{Handle, JsonlSink, SharedObserver, SpanRecorder};
use mca_report::{
    diff_bench, render_html, render_lint_markdown, render_markdown, DiffConfig, ParsedTrace,
    ReportOptions,
};
use mca_verify::analysis::{self, EncodingRow, ScaleVariant};
use mca_verify::batch::run_batch;
use mca_verify::{DynamicModel, DynamicScenario, NumberEncoding, StaticModel, StaticScope};
use std::fs::File;
use std::io::BufWriter;
use std::time::Instant;

const EXPERIMENTS: &[(&str, &str)] = &[
    ("e1", "Figure 1 — two agents, three items, one exchange"),
    (
        "e2",
        "Figure 2 — oscillation under non-sub-modular + release-outbid",
    ),
    ("e3", "Result 1 — policy combination matrix"),
    ("e4", "Result 2 — the rebidding attack (both engines)"),
    (
        "e5",
        "Abstractions Efficiency — naive vs optimized encodings",
    ),
    ("e6", "Convergence bound — measured rounds vs D·|V_H|"),
    (
        "e7",
        "Approximation ratio — achieved vs optimal utility (Remark 3)",
    ),
    (
        "e8",
        "Scope scaling — naive vs optimized vs preprocessed, incremental sweeps",
    ),
];

fn is_experiment(id: &str) -> bool {
    EXPERIMENTS.iter().any(|(e, _)| *e == id)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("report") => cmd_report(&args[1..]),
        Some("diff") => cmd_diff(&args[1..]),
        Some("lint") => cmd_lint(&args[1..]),
        Some("why") => cmd_why(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("load") => cmd_load(&args[1..]),
        _ => {}
    }
    if args.iter().any(|a| a == "--list") {
        for (id, desc) in EXPERIMENTS {
            println!("{id}  {desc}");
        }
        return;
    }

    let mut selected: Vec<String> = Vec::new();
    let mut trace_path: Option<String> = None;
    let mut threads: usize = 0;
    let mut reps: usize = 5;
    let mut smoke = false;
    let mut stretch = false;
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        let mut flag_value = |name: &str| -> String {
            i += 1;
            match args.get(i) {
                Some(v) => v.clone(),
                None => {
                    eprintln!("{name} requires an argument");
                    std::process::exit(2);
                }
            }
        };
        match arg {
            "--exp" => {
                let e = flag_value("--exp");
                selected.push(e);
            }
            "--trace" => trace_path = Some(flag_value("--trace")),
            "--smoke" => smoke = true,
            "--stretch" => stretch = true,
            "--threads" => {
                let v = flag_value("--threads");
                threads = v.parse().unwrap_or_else(|_| {
                    eprintln!("--threads requires a number, got `{v}`");
                    std::process::exit(2);
                });
            }
            "--reps" => {
                let v = flag_value("--reps");
                reps = v.parse().ok().filter(|n| *n >= 1).unwrap_or_else(|| {
                    eprintln!("--reps requires a number >= 1, got `{v}`");
                    std::process::exit(2);
                });
            }
            id if is_experiment(id) => selected.push(id.to_string()),
            other => {
                eprintln!("unknown argument `{other}` (try --list)");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let threads = if threads == 0 {
        std::thread::available_parallelism().map_or(1, usize::from)
    } else {
        threads
    };
    if selected.is_empty() {
        selected = EXPERIMENTS.iter().map(|(id, _)| id.to_string()).collect();
    }

    // One trace sink spans the whole run. Logical events are keyed by
    // progress and deterministic for a fixed experiment selection; span
    // events (below) add wall-clock timestamps on top.
    let trace: Option<Handle<JsonlSink<BufWriter<File>>>> =
        trace_path
            .as_ref()
            .map(|path| match JsonlSink::create(path) {
                Ok(sink) => Handle::new(sink),
                Err(e) => {
                    eprintln!("cannot create trace file {path}: {e}");
                    std::process::exit(2);
                }
            });
    let observer: Option<SharedObserver> = trace.as_ref().map(Handle::observer);
    // Spans are opt-in: only a traced run pays for clock reads, and only
    // the trace file sees the (wall-clock, hence non-reproducible) events.
    let spans: Option<SpanRecorder> = observer.as_ref().map(|o| SpanRecorder::new(o.clone()));

    let mut all_match = true;
    for exp in &selected {
        println!("{}", "=".repeat(76));
        let root = spans.as_ref().map(|r| r.enter(&format!("repro.{exp}")));
        match exp.as_str() {
            "e1" => all_match &= run_e1(observer.clone()),
            "e2" => all_match &= run_e2(),
            "e3" => all_match &= run_e3(observer.clone(), threads, spans.as_ref(), reps),
            "e4" => all_match &= run_e4(threads, spans.as_ref()),
            "e5" => all_match &= run_e5(observer.clone(), threads),
            "e6" => all_match &= run_e6(),
            "e7" => all_match &= run_e7(),
            "e8" => all_match &= run_e8(observer.clone(), spans.as_ref(), threads, smoke, stretch),
            other => {
                eprintln!("unknown experiment `{other}` (try --list)");
                std::process::exit(2);
            }
        }
        if let Some(mut root) = root {
            if let Some(kb) = mca_obs::peak_rss_kb() {
                root.field("peak_rss_kb", kb);
            }
        }
        println!();
    }

    drop(spans);

    // Drop the last shared reference so the sink can be reclaimed below.
    drop(observer);
    if let (Some(handle), Some(path)) = (trace, trace_path.as_ref()) {
        match handle.try_into_inner() {
            Ok(mut sink) => {
                let written = sink.events_written();
                if let Err(e) = sink.finish() {
                    eprintln!("error writing trace file {path}: {e}");
                    std::process::exit(2);
                }
                println!("{written} events traced to {path}");
            }
            Err(_) => {
                // A leaked reference means buffered events may never be
                // flushed — that is a bug, not a warning.
                eprintln!("trace sink still shared; {path} may be incomplete");
                std::process::exit(2);
            }
        }
    }

    println!("{}", "=".repeat(76));
    println!(
        "overall: {}",
        if all_match {
            "every experiment reproduces the paper's shape ✓"
        } else {
            "MISMATCHES found — see above ✗"
        }
    );
    if !all_match {
        std::process::exit(1);
    }
}

/// Writes a `BENCH_*` artifact, exiting nonzero on failure — a benchmark
/// run whose artifact silently vanished must not look green.
fn write_bench_file(path: &str, doc: &Json) {
    if let Err(e) = std::fs::write(path, doc.render() + "\n") {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(2);
    }
}

/// The process-level resource record attached to every `BENCH_*` artifact.
fn resources_json() -> Json {
    Json::obj([(
        "peak_rss_kb",
        mca_obs::peak_rss_kb().map_or(Json::Null, Json::from),
    )])
}

/// `repro report <trace.jsonl> [--out path] [--html] [--top N]
/// [--timeline path.html]`
fn cmd_report(args: &[String]) -> ! {
    let mut trace_path: Option<String> = None;
    let mut out_path: Option<String> = None;
    let mut timeline_path: Option<String> = None;
    let mut html = false;
    let mut top = 10usize;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => out_path = Some(subcommand_flag_value(args, &mut i, "--out")),
            "--timeline" => timeline_path = Some(subcommand_flag_value(args, &mut i, "--timeline")),
            "--html" => html = true,
            "--top" => {
                let v = subcommand_flag_value(args, &mut i, "--top");
                top = v.parse().unwrap_or_else(|_| {
                    eprintln!("--top requires a number, got `{v}`");
                    std::process::exit(2);
                });
            }
            other if trace_path.is_none() && !other.starts_with('-') => {
                trace_path = Some(other.to_string());
            }
            other => {
                eprintln!("unknown report argument `{other}`");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let Some(trace_path) = trace_path else {
        eprintln!(
            "usage: repro report <trace.jsonl> [--out path] [--html] [--top N] [--timeline path.html]"
        );
        std::process::exit(2);
    };
    let text = read_or_die(&trace_path);
    let trace = ParsedTrace::parse(&text);
    if let Some(path) = &timeline_path {
        let html = mca_report::render_timeline_html(&trace);
        if let Err(e) = std::fs::write(path, html) {
            eprintln!("cannot write timeline file {path}: {e}");
            std::process::exit(2);
        }
        println!("worker timeline written to {path}");
    }
    let opts = ReportOptions {
        top,
        source: trace_path.clone(),
    };
    let markdown = render_markdown(&trace, &opts);
    let rendered = if html {
        render_html(&markdown, &format!("mca-report: {trace_path}"))
    } else {
        markdown
    };
    match out_path {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, &rendered) {
                eprintln!("cannot write report file {path}: {e}");
                std::process::exit(2);
            }
            println!("report written to {path}");
        }
        None => print!("{rendered}"),
    }
    std::process::exit(0);
}

/// `repro why <trace.jsonl> [--out path]` — runs the
/// bottleneck rule catalog and exits 1 when any rule fires (0 when the
/// diagnosis is empty, 2 on usage/IO errors), mirroring `repro diff` so
/// CI can assert the diagnosis set on known fixtures.
fn cmd_why(args: &[String]) -> ! {
    let mut trace_path: Option<String> = None;
    let mut out_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => out_path = Some(subcommand_flag_value(args, &mut i, "--out")),
            other if trace_path.is_none() && !other.starts_with('-') => {
                trace_path = Some(other.to_string());
            }
            other => {
                eprintln!("unknown why argument `{other}`");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let Some(trace_path) = trace_path else {
        eprintln!("usage: repro why <trace.jsonl> [--out path]");
        std::process::exit(2);
    };
    let trace = ParsedTrace::parse(&read_or_die(&trace_path));
    let findings = mca_report::diagnose(&trace);
    let rendered = mca_report::render_why_markdown(&findings, &trace_path);
    match out_path {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, &rendered) {
                eprintln!("cannot write diagnosis file {path}: {e}");
                std::process::exit(2);
            }
            println!("diagnosis written to {path}");
            // The rule ids still go to stdout so CI can grep them without
            // reading the file back.
            for f in &findings {
                println!("{} ({}): {}", f.rule, f.severity.label(), f.summary);
            }
        }
        None => print!("{rendered}"),
    }
    std::process::exit(i32::from(!findings.is_empty()));
}

/// `repro diff <old.json> <new.json> [--max-time-ratio R] [--max-clause-ratio R]
/// [--max-conflict-ratio R] [--min-secs S]` — exits 1 on regression.
fn cmd_diff(args: &[String]) -> ! {
    let mut cfg = DiffConfig::default();
    let mut paths: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].clone();
        let mut ratio = |slot: &mut f64| {
            let v = subcommand_flag_value(args, &mut i, &flag);
            *slot = v.parse().unwrap_or_else(|_| {
                eprintln!("{flag} requires a number, got `{v}`");
                std::process::exit(2);
            });
        };
        match flag.as_str() {
            "--max-time-ratio" => ratio(&mut cfg.max_time_ratio),
            "--max-clause-ratio" => ratio(&mut cfg.max_clause_ratio),
            "--max-conflict-ratio" => ratio(&mut cfg.max_conflict_ratio),
            "--min-secs" => ratio(&mut cfg.min_secs),
            other if !other.starts_with('-') => paths.push(other.to_string()),
            other => {
                eprintln!("unknown diff argument `{other}`");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let [old_path, new_path] = paths.as_slice() else {
        eprintln!("usage: repro diff <old.json> <new.json> [--max-time-ratio R] [--max-clause-ratio R] [--max-conflict-ratio R] [--min-secs S]");
        std::process::exit(2);
    };
    let parse = |path: &str| {
        Json::parse(&read_or_die(path)).unwrap_or_else(|e| {
            eprintln!("cannot parse {path}: {e}");
            std::process::exit(2);
        })
    };
    let outcome = diff_bench(&parse(old_path), &parse(new_path), &cfg);
    print!("{}", outcome.render());
    std::process::exit(i32::from(!outcome.is_clean()));
}

/// `repro lint [--out DIR] [--html] [--trace FILE] [--root DIR]
/// [--fixture pathological]` — exits 1 when any error-severity finding
/// fires, 2 on usage errors.
fn cmd_lint(args: &[String]) -> ! {
    let mut out_dir = ".".to_string();
    let mut root_dir = ".".to_string();
    let mut trace_path: Option<String> = None;
    let mut html = false;
    let mut fixture: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => out_dir = subcommand_flag_value(args, &mut i, "--out"),
            "--root" => root_dir = subcommand_flag_value(args, &mut i, "--root"),
            "--trace" => trace_path = Some(subcommand_flag_value(args, &mut i, "--trace")),
            "--html" => html = true,
            "--fixture" => fixture = Some(subcommand_flag_value(args, &mut i, "--fixture")),
            other => {
                eprintln!("unknown lint argument `{other}`");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let lint_or_die = |target: &str,
                       model: &mca_alloy::Model,
                       assertions: &[mca_relalg::Formula]|
     -> mca_lint::LintReport {
        mca_lint::lint_model(target, model, assertions).unwrap_or_else(|e| {
            eprintln!("lint target {target} failed to translate: {e:?}");
            std::process::exit(2);
        })
    };

    let mut reports: Vec<mca_lint::LintReport> = Vec::new();
    match fixture.as_deref() {
        Some("pathological") => {
            let (model, assertion) = mca_lint::fixture::pathological();
            reports.push(lint_or_die("fixture:pathological", &model, &[assertion]));
        }
        Some(other) => {
            eprintln!("unknown fixture `{other}` (available: pathological)");
            std::process::exit(2);
        }
        None => {
            // The static auction model, both encodings, all assertions.
            for encoding in [NumberEncoding::NaiveInt, NumberEncoding::OptimizedValue] {
                let sm = StaticModel::build(encoding, StaticScope::default());
                let assertions = [
                    sm.unique_id_assertion(),
                    sm.symmetry_assertion(),
                    sm.everyone_bids_assertion(),
                ];
                reports.push(lint_or_die(
                    &format!("static:{encoding}"),
                    sm.model(),
                    &assertions,
                ));
            }
            // Every shipped dynamic scenario. Small scopes run under both
            // encodings; the paper scopes under the optimized one (the
            // naive paper-scope encoding is E5's long pole) — except
            // e3:paper_scope, which also gets a naive row so the flagship
            // scope is linted under both encodings.
            let small = [
                (
                    "e1:two_agent_compliant",
                    DynamicScenario::two_agent_compliant(),
                ),
                (
                    "e4:two_agent_rebid_attack",
                    DynamicScenario::two_agent_rebid_attack(),
                ),
                (
                    "e6:three_agent_line_compliant",
                    DynamicScenario::three_agent_line_compliant(),
                ),
                ("e8:2x2", DynamicScenario::at_scope(2, 2)),
            ];
            for (label, scenario) in small {
                for encoding in [NumberEncoding::NaiveInt, NumberEncoding::OptimizedValue] {
                    let dm = DynamicModel::build(encoding, scenario.clone());
                    reports.push(lint_or_die(
                        &format!("{label}:{encoding}"),
                        dm.model(),
                        &[dm.consensus_assertion()],
                    ));
                }
            }
            {
                let dm =
                    DynamicModel::build(NumberEncoding::NaiveInt, DynamicScenario::paper_scope());
                reports.push(lint_or_die(
                    "e3:paper_scope:NaiveInt",
                    dm.model(),
                    &[dm.consensus_assertion()],
                ));
            }
            for (label, scenario) in [
                ("e3:paper_scope", DynamicScenario::paper_scope()),
                ("e3:paper_scope_sound", DynamicScenario::paper_scope_sound()),
            ] {
                let dm = DynamicModel::build(NumberEncoding::OptimizedValue, scenario);
                reports.push(lint_or_die(
                    &format!("{label}:OptimizedValue"),
                    dm.model(),
                    &[dm.consensus_assertion()],
                ));
            }
            reports.push(mca_lint::audit_sources(std::path::Path::new(&root_dir)));
        }
    }

    let mut sink = JsonlSink::new(Vec::new());
    let mut errors = 0usize;
    for report in &reports {
        report.emit(&mut sink);
        print!("{}", report.render_console());
        errors += report.errors();
    }
    let jsonl = String::from_utf8(sink.into_inner().unwrap_or_else(|e| {
        eprintln!("cannot serialize lint events: {e}");
        std::process::exit(2);
    }))
    .expect("JSONL is UTF-8");

    let write_or_die = |path: std::path::PathBuf, contents: &str| {
        if let Err(e) = std::fs::write(&path, contents) {
            eprintln!("cannot write {}: {e}", path.display());
            std::process::exit(2);
        }
        println!("wrote {}", path.display());
    };
    let out = std::path::Path::new(&out_dir);
    if let Err(e) = std::fs::create_dir_all(out) {
        eprintln!("cannot create {}: {e}", out.display());
        std::process::exit(2);
    }
    write_or_die(out.join("LINT.jsonl"), &jsonl);
    let markdown = render_lint_markdown(&jsonl, "mca-lint report");
    write_or_die(out.join("LINT.md"), &markdown);
    if html {
        write_or_die(
            out.join("LINT.html"),
            &render_html(&markdown, "mca-lint report"),
        );
    }
    if let Some(path) = trace_path {
        write_or_die(std::path::PathBuf::from(path), &jsonl);
    }

    println!(
        "lint: {} target(s), {} error finding(s) — {}",
        reports.len(),
        errors,
        if errors == 0 { "clean" } else { "NOT clean" }
    );
    std::process::exit(i32::from(errors > 0));
}

/// `repro serve [--addr A] [--threads N] [--cache-mb N] [--queue-cap N]
/// [--read-timeout-secs S] [--trace FILE]` — runs the verification
/// daemon in the foreground until a wire `Shutdown` frame arrives, then
/// drains in-flight requests, flushes counters (and the `--trace` event
/// log), and exits 0. Bind and usage errors exit 2.
///
/// With `--trace` the daemon records every request's `serve-*` events,
/// its `serve-span` phase split included; `repro report` renders them.
///
/// There is no signal handler — the workspace forbids `unsafe`, which
/// rules one out — so stop the daemon with `repro load --shutdown` or
/// any client's `Shutdown` frame.
fn cmd_serve(args: &[String]) -> ! {
    let mut config = mca_serve::ServerConfig {
        addr: "127.0.0.1:7117".to_string(),
        threads: 0,
        ..mca_serve::ServerConfig::default()
    };
    let mut trace_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].clone();
        let mut number = |name: &str| -> usize {
            let v = subcommand_flag_value(args, &mut i, name);
            v.parse().unwrap_or_else(|_| {
                eprintln!("{name} requires a number, got `{v}`");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--addr" => config.addr = subcommand_flag_value(args, &mut i, "--addr"),
            "--threads" => config.threads = number("--threads"),
            "--cache-mb" => config.cache_bytes = number("--cache-mb") << 20,
            "--queue-cap" => config.queue_capacity = number("--queue-cap").max(1),
            "--read-timeout-secs" => {
                config.read_timeout =
                    std::time::Duration::from_secs(number("--read-timeout-secs") as u64);
            }
            "--trace" => trace_path = Some(subcommand_flag_value(args, &mut i, "--trace")),
            other => {
                eprintln!("unknown serve argument `{other}`");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if config.threads == 0 {
        config.threads = std::thread::available_parallelism().map_or(2, usize::from);
    }
    config.record_events = trace_path.is_some();

    let handle = mca_serve::Server::start(&config).unwrap_or_else(|e| {
        eprintln!("cannot bind {}: {e}", config.addr);
        std::process::exit(2);
    });
    println!(
        "mca-serve listening on {} ({} compute slot(s), {} MiB cache, queue capacity {})",
        handle.addr(),
        config.threads,
        config.cache_bytes >> 20,
        config.queue_capacity,
    );
    println!("stop with a wire Shutdown frame, e.g. `repro load --addr {} --smoke --shutdown` (no signal handler: the workspace forbids unsafe)", handle.addr());
    handle.wait_shutdown();
    println!("shutdown requested — draining in-flight requests");
    let report = handle.join();
    if let Some(path) = &trace_path {
        use mca_obs::Observer;
        let mut sink = JsonlSink::create(path).unwrap_or_else(|e| {
            eprintln!("cannot create trace file {path}: {e}");
            std::process::exit(2);
        });
        for event in &report.events {
            sink.on_event(event);
        }
        println!(
            "serve trace written to {path} ({} events)",
            report.events.len()
        );
    }
    println!(
        "served {} request(s): {} ok, {} error(s); queue depth high-water {}",
        report.requests, report.responses_ok, report.responses_err, report.queue_depth_hwm
    );
    println!(
        "cache: {} hit(s) / {} miss(es), {} eviction(s), {} byte(s) high-water",
        report.cache.verdict_hits,
        report.cache.verdict_misses,
        report.cache.evictions,
        report.cache.bytes_hwm,
    );
    std::process::exit(0);
}

/// `repro load [--addr A] [--clients N] [--requests N] [--smoke]
/// [--shutdown] [--threads N] [--cache-mb N] [--out FILE]` — drives a
/// server through the cold/mixed/warm phases and writes `BENCH_SERVE.json`.
///
/// Without `--addr` it starts an in-process server on a free port (and
/// always shuts it down afterwards); with `--addr` it drives an external
/// daemon and leaves it running unless `--shutdown` is given. Exits 1
/// when the run produced **zero cache hits** (the service's reason to
/// exist — CI gates on it), 2 on usage/IO errors, 0 otherwise.
fn cmd_load(args: &[String]) -> ! {
    let mut cfg = mca_serve::LoadConfig::default();
    let mut external_addr: Option<String> = None;
    let mut out_path = "BENCH_SERVE.json".to_string();
    let mut shutdown_after = false;
    let mut threads = 0usize;
    let mut cache_mb = 64usize;
    let mut requests: Option<usize> = None;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].clone();
        let mut number = |name: &str| -> usize {
            let v = subcommand_flag_value(args, &mut i, name);
            v.parse().unwrap_or_else(|_| {
                eprintln!("{name} requires a number, got `{v}`");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--addr" => external_addr = Some(subcommand_flag_value(args, &mut i, "--addr")),
            "--out" => out_path = subcommand_flag_value(args, &mut i, "--out"),
            "--clients" => cfg.clients = number("--clients").max(1),
            "--requests" => requests = Some(number("--requests")),
            "--threads" => threads = number("--threads"),
            "--cache-mb" => cache_mb = number("--cache-mb"),
            "--smoke" => cfg.smoke = true,
            "--shutdown" => shutdown_after = true,
            other => {
                eprintln!("unknown load argument `{other}`");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if cfg.smoke {
        // CI configuration: enough traffic to exercise concurrency and
        // the cache, cheap enough for a shared runner.
        cfg.mixed_requests = 60;
        cfg.warm_requests = 60;
    }
    if let Some(n) = requests {
        cfg.mixed_requests = n;
        cfg.warm_requests = n;
    }
    let threads = if threads == 0 {
        std::thread::available_parallelism().map_or(2, usize::from)
    } else {
        threads
    };

    // Self-spawned servers live in-process on a free port; an external
    // daemon is driven as-is.
    let server = if let Some(addr) = &external_addr {
        cfg.addr = addr.clone();
        None
    } else {
        let server_cfg = mca_serve::ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads,
            cache_bytes: cache_mb << 20,
            ..mca_serve::ServerConfig::default()
        };
        let handle = mca_serve::Server::start(&server_cfg).unwrap_or_else(|e| {
            eprintln!("cannot start in-process server: {e}");
            std::process::exit(2);
        });
        cfg.addr = handle.addr().to_string();
        Some(handle)
    };

    println!(
        "load: driving {} ({} deck, {} client(s), {}+{} concurrent requests)",
        cfg.addr,
        if cfg.smoke { "smoke" } else { "full" },
        cfg.clients,
        cfg.mixed_requests,
        cfg.warm_requests,
    );
    let outcome = match mca_serve::run_load(&cfg) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("load run failed: {e}");
            if let Some(handle) = server {
                handle.shutdown();
                let _ = handle.join();
            }
            std::process::exit(2);
        }
    };

    if shutdown_after && external_addr.is_some() {
        match mca_serve::Client::connect(&cfg.addr as &str)
            .map_err(mca_serve::WireError::from)
            .and_then(|mut c| c.shutdown_server())
        {
            Ok(()) => println!("sent shutdown frame to {}", cfg.addr),
            Err(e) => {
                eprintln!("shutdown frame to {} failed: {e}", cfg.addr);
                std::process::exit(2);
            }
        }
    }
    if let Some(handle) = server {
        handle.shutdown();
        let report = handle.join();
        println!(
            "in-process server drained: {} request(s), queue depth high-water {}",
            report.requests, report.queue_depth_hwm
        );
    }

    let mut doc = outcome.to_json(&cfg);
    if let Json::Object(pairs) = &mut doc {
        pairs.push(("resources".to_string(), resources_json()));
    }
    write_bench_file(&out_path, &doc);
    println!("wrote {out_path}");
    for phase in &outcome.phases {
        println!(
            "  {:<5} {:>4} req  {:>7.2} req/s  p50 {:>8.4}s  p99 {:>8.4}s  {:>4} hit(s)  {} error(s)",
            phase.phase,
            phase.requests,
            phase.throughput_rps,
            phase.p50_secs,
            phase.p99_secs,
            phase.hits,
            phase.errors,
        );
    }
    println!(
        "totals: {} request(s), {} cache hit(s) ({:.1}% hit rate), {} error(s)",
        outcome.total_requests,
        outcome.total_hits,
        outcome.hit_rate * 100.0,
        outcome.total_errors,
    );
    if outcome.total_hits == 0 {
        eprintln!("load run produced zero cache hits — the cache is not working");
        std::process::exit(1);
    }
    std::process::exit(0);
}

fn subcommand_flag_value(args: &[String], i: &mut usize, name: &str) -> String {
    *i += 1;
    match args.get(*i) {
        Some(v) => v.clone(),
        None => {
            eprintln!("{name} requires an argument");
            std::process::exit(2);
        }
    }
}

fn read_or_die(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(2);
    })
}

fn run_e1(observer: Option<SharedObserver>) -> bool {
    let report = analysis::run_fig1(observer);
    println!("{report}");
    let ok = report.converged
        && report.final_bids == vec![20, 15, 30]
        && report.winners == vec![1, 1, 0];
    println!(
        "  => {}",
        if ok {
            "matches Figure 1 ✓"
        } else {
            "MISMATCH ✗"
        }
    );
    ok
}

fn run_e2() -> bool {
    println!("E2 (Figure 2) — non-sub-modular utility + release-outbid oscillates");
    match analysis::run_fig2_oscillation() {
        Some(trace) => {
            println!("counterexample execution:\n{trace}");
            println!("  => oscillation found, as the paper reports ✓");
            true
        }
        None => {
            println!("  => NO oscillation found — MISMATCH ✗");
            false
        }
    }
}

fn run_e3(
    observer: Option<SharedObserver>,
    threads: usize,
    spans: Option<&SpanRecorder>,
    reps: usize,
) -> bool {
    println!("E3 (Result 1) — policy matrix (exhaustive explicit-state checking)");
    let rows = analysis::run_policy_matrix(threads, observer, spans);
    let mut ok = true;
    for row in &rows {
        println!("{row}");
        ok &= row.matches_paper();
    }
    println!(
        "  => {}",
        if ok {
            "all four cells match Result 1 ✓"
        } else {
            "MISMATCH ✗"
        }
    );
    if threads > 1 {
        ok &= run_e3_bench_par(threads, spans, &rows, reps);
    }
    ok
}

/// Benchmark methodology for the timed sections of `BENCH_PAR.json`: one
/// untimed warmup iteration, then `reps` timed repetitions. Returns the
/// last iteration's value plus `(median_secs, spread)` where spread is
/// `(max − min) / median` — a cheap dispersion measure `repro diff`
/// readers can use to judge how trustworthy the median is.
fn bench_median<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, f64, f64) {
    let mut value = f(); // warmup (also produces a value for reps == 0 safety)
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        value = f();
        samples.push(start.elapsed().as_secs_f64());
    }
    samples.sort_by(f64::total_cmp);
    let median = samples[samples.len() / 2];
    let spread = (samples[samples.len() - 1] - samples[0]) / median.max(1e-9);
    (value, median, spread)
}

/// The `(pnodes, vnodes)` scopes of the coarse-grained E8 section of
/// `BENCH_PAR.json`. Chosen so the critical path (3×3) is hundreds of
/// milliseconds — large enough that fan-out beats queue hand-off.
const E8_PAR_SCOPES: [(usize, usize); 3] = [(2, 2), (3, 2), (3, 3)];

/// The encoding variants timed by the E8 section: the two competitive
/// ones (`naive` is orders of magnitude slower and would dominate the
/// critical path without adding information).
const E8_PAR_VARIANTS: [(&str, NumberEncoding, bool); 2] = [
    ("optimized", NumberEncoding::OptimizedValue, false),
    ("optimized+pre", NumberEncoding::OptimizedValue, true),
];

/// The E3 section of a run at `threads ≥ 2`: re-runs the matrix on one
/// thread and checks its outcomes against the `threads` rows, times the
/// extended 16-cell matrix at 1 and `threads` threads, does the same for
/// the coarse E8 scaling cells, and records everything in
/// `BENCH_PAR.json`. Timed sections use the warmup + median-of-reps
/// methodology of [`bench_median`] — except the 1-thread E8 baseline,
/// which is measured **once** (it is multi-second work whose repetition
/// would dwarf the rest of the run).
fn run_e3_bench_par(
    threads: usize,
    spans: Option<&SpanRecorder>,
    rows: &[analysis::PolicyMatrixRow],
    reps: usize,
) -> bool {
    println!("\n  --- {threads} threads vs 1 (median of {reps} reps) ---");
    // The four Result-1 cells are sub-millisecond work: keep them as an
    // untimed outcome check rather than pretending a speedup measurement
    // at this granularity means anything.
    let one_thread = analysis::run_policy_matrix(1, None, spans);
    let outcomes_match = rows.len() == one_thread.len()
        && rows.iter().zip(&one_thread).all(|(r, o)| {
            r.cell == o.cell && r.checker_converges == o.checker_converges && r.detail == o.detail
        });
    println!(
        "  matrix: outcomes {} (4 cells as 2 paired jobs)",
        if outcomes_match {
            "identical ✓"
        } else {
            "DIFFER ✗"
        }
    );

    // The timed E3 comparison is the extended 16-cell matrix — enough
    // work per job (strided multi-cell chunks) for parallelism to pay.
    let (_, seq_secs, seq_spread) =
        bench_median(reps, || analysis::run_extended_policy_matrix(1, spans));
    let (xrows, par_secs, par_spread) = bench_median(reps, || {
        analysis::run_extended_policy_matrix(threads, spans)
    });
    let speedup = seq_secs / par_secs.max(1e-9);
    println!("  extended matrix (policy × rebid × topology, 16 cells):");
    let mut xmatch = 0;
    for row in &xrows {
        println!("{row}");
        xmatch += usize::from(row.matches_paper());
    }
    println!(
        "  extended matrix: 1 thread {seq_secs:.3}s (±{seq_spread:.2}) vs {threads} threads {par_secs:.3}s (±{par_spread:.2}) — speedup {speedup:.2}x"
    );

    // Coarse-grained E8 section: the competitive encoding variants at
    // growing scopes, |scopes| × |variants| jobs each big enough (up to
    // seconds) to amortize scheduling. The 1-thread baseline is measured
    // once — see the function docs.
    println!(
        "  e8 scaling cells ({} coarse jobs):",
        E8_PAR_SCOPES.len() * E8_PAR_VARIANTS.len()
    );
    let e8_seq_start = Instant::now();
    let e8_seq_cells = e8_par_cells(1, spans);
    let e8_seq_secs = e8_seq_start.elapsed().as_secs_f64();
    let (e8_cells, e8_par_secs, e8_par_spread) =
        bench_median(reps, || e8_par_cells(threads, spans));
    let mut e8_match = true;
    let mut e8_cell_json = Vec::new();
    for (i, (seq, par)) in e8_seq_cells.into_iter().zip(e8_cells).enumerate() {
        let (p, v) = E8_PAR_SCOPES[i / E8_PAR_VARIANTS.len()];
        let (seq, variant) = match (seq, par) {
            (Ok(seq), Ok(par)) => (seq, par),
            (Err(e), _) | (_, Err(e)) => {
                println!("  e8 cell {p}x{v} #{i} failed to translate: {e}");
                return false;
            }
        };
        e8_match &= seq.valid && !seq.vacuous && variant.valid && !variant.vacuous;
        println!(
            "    {p}x{v}:{:<14} valid={} [{:.3}s]",
            variant.variant, variant.valid, variant.check_secs
        );
        e8_cell_json.push(Json::obj([
            ("scope", Json::from(format!("{p}x{v}"))),
            ("variant", Json::from(variant.variant.as_str())),
            ("valid", Json::from(variant.valid)),
            ("check_secs", Json::from(variant.check_secs)),
            ("conflicts", Json::from(variant.solver.conflicts)),
        ]));
    }
    let e8_speedup = e8_seq_secs / e8_par_secs.max(1e-9);
    println!(
        "  e8: 1 thread {e8_seq_secs:.3}s (single pass) vs {threads} threads {e8_par_secs:.3}s (±{e8_par_spread:.2}) — speedup {e8_speedup:.2}x, verdicts {}",
        if e8_match { "all valid ✓" } else { "UNEXPECTED ✗" }
    );

    let bench = Json::obj([
        ("threads", Json::from(threads as u64)),
        ("reps", Json::from(reps as u64)),
        ("resources", resources_json()),
        (
            "e3",
            Json::obj([
                ("seq_secs", Json::from(seq_secs)),
                ("seq_spread", Json::from(seq_spread)),
                ("par_secs", Json::from(par_secs)),
                ("par_spread", Json::from(par_spread)),
                ("speedup", Json::from(speedup)),
                ("outcomes_match", Json::from(outcomes_match)),
                ("extended_cells", Json::from(xrows.len() as u64)),
                ("extended_matching", Json::from(xmatch as u64)),
            ]),
        ),
        (
            "e8",
            Json::obj([
                (
                    "scopes",
                    Json::Array(
                        E8_PAR_SCOPES
                            .iter()
                            .map(|(p, v)| Json::from(format!("{p}x{v}")))
                            .collect(),
                    ),
                ),
                ("seq_secs", Json::from(e8_seq_secs)),
                ("par_secs", Json::from(e8_par_secs)),
                ("par_spread", Json::from(e8_par_spread)),
                ("speedup", Json::from(e8_speedup)),
                ("verdicts_ok", Json::from(e8_match)),
                ("cells", Json::Array(e8_cell_json)),
            ]),
        ),
    ]);
    write_bench_file("BENCH_PAR.json", &bench);
    println!("  1-thread-vs-{threads} comparison written to BENCH_PAR.json");
    outcomes_match && e8_match
}

/// The coarse E8 cells of `BENCH_PAR.json`, one job per (scope, variant),
/// run on `threads` workers.
fn e8_par_cells(
    threads: usize,
    spans: Option<&SpanRecorder>,
) -> Vec<Result<ScaleVariant, mca_relalg::TranslateError>> {
    let jobs: Vec<(String, _)> = E8_PAR_SCOPES
        .iter()
        .flat_map(|&(p, v)| {
            E8_PAR_VARIANTS.map(move |(label, encoding, preprocess)| {
                (
                    format!("e8:{p}x{v}:{label}"),
                    move |_: Option<SharedObserver>, spans: Option<&SpanRecorder>| {
                        analysis::scale_variant(p, v, label, encoding, preprocess, spans)
                    },
                )
            })
        })
        .collect();
    run_batch(threads, jobs, None, spans)
}

fn run_e4(threads: usize, spans: Option<&SpanRecorder>) -> bool {
    let report = analysis::run_rebid_attack(threads, spans);
    println!("{report}");
    report.matches_paper()
}

fn run_e5(observer: Option<SharedObserver>, threads: usize) -> bool {
    println!("E5 (Abstractions Efficiency) — static + dynamic model, both encodings");
    println!("(paper: 259K -> 190K clauses, ~a day -> <2h, scope 3 pnodes / 2 vnodes)\n");
    let wall_start = Instant::now();
    let rows = analysis::run_encoding_comparison(observer);
    let wall_clock_secs = wall_start.elapsed().as_secs_f64();
    let mut ok = true;
    for row in &rows {
        println!("{row}\n");
        ok &= row.clause_ratio() > 1.0 && row.time_ratio() > 1.0;
    }
    write_bench_file(
        "BENCH_E5.json",
        &bench_e5_json(&rows, wall_clock_secs, threads),
    );
    println!("  per-encoding breakdown written to BENCH_E5.json");
    println!(
        "  => {}",
        if ok {
            "optimized encoding is smaller and faster at every scope ✓"
        } else {
            "shape MISMATCH (optimized not smaller/faster) ✗"
        }
    );
    ok
}

/// The committed `BENCH_E5.json` artifact: every number of the paper's
/// encoding-efficiency table, per scope and per encoding, plus the run's
/// total wall-clock and the configured thread count.
fn bench_e5_json(rows: &[EncodingRow], wall_clock_secs: f64, threads: usize) -> Json {
    let encoding_json = |stats: &mca_relalg::TranslationStats,
                         relations: &[mca_relalg::RelationStats],
                         solver: &mca_sat::SolverStats,
                         secs: f64,
                         vacuous: bool| {
        Json::obj([
            ("primary_vars", Json::from(stats.primary_vars as u64)),
            ("cnf_vars", Json::from(stats.cnf_vars as u64)),
            ("cnf_clauses", Json::from(stats.cnf_clauses as u64)),
            ("clauses_deduped", Json::from(stats.clauses_deduped as u64)),
            ("cnf_literals", Json::from(stats.cnf_literals as u64)),
            ("circuit_gates", Json::from(stats.circuit_gates as u64)),
            ("check_secs", Json::from(secs)),
            ("translate_secs", Json::from(stats.translation_secs)),
            ("vacuous", Json::from(vacuous)),
            (
                "solver",
                Json::obj([
                    ("decisions", Json::from(solver.decisions)),
                    ("propagations", Json::from(solver.propagations)),
                    ("conflicts", Json::from(solver.conflicts)),
                    ("restarts", Json::from(solver.restarts)),
                    ("db_reductions", Json::from(solver.db_reductions)),
                ]),
            ),
            (
                "relations",
                Json::Array(
                    relations
                        .iter()
                        .map(|r| {
                            Json::obj([
                                ("name", Json::from(r.name.as_str())),
                                ("arity", Json::from(r.arity as u64)),
                                ("primary_vars", Json::from(r.primary_vars as u64)),
                                ("clauses", Json::from(r.clauses as u64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    };
    Json::obj([
        ("experiment", Json::from("e5")),
        ("wall_clock_secs", Json::from(wall_clock_secs)),
        ("threads", Json::from(threads as u64)),
        ("resources", resources_json()),
        (
            "paper",
            Json::obj([
                ("naive_clauses", Json::from(259_000u64)),
                ("optimized_clauses", Json::from(190_000u64)),
                ("clause_ratio", Json::from(259.0 / 190.0)),
            ]),
        ),
        (
            "scopes",
            Json::Array(
                rows.iter()
                    .map(|row| {
                        Json::obj([
                            ("scope", Json::from(row.scope.as_str())),
                            (
                                "naive",
                                encoding_json(
                                    &row.naive,
                                    &row.naive_relations,
                                    &row.naive_solver,
                                    row.naive_check_secs,
                                    row.naive_vacuous,
                                ),
                            ),
                            (
                                "optimized",
                                encoding_json(
                                    &row.optimized,
                                    &row.optimized_relations,
                                    &row.optimized_solver,
                                    row.optimized_check_secs,
                                    row.optimized_vacuous,
                                ),
                            ),
                            ("clause_ratio", Json::from(row.clause_ratio())),
                            ("time_ratio", Json::from(row.time_ratio())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn run_e8(
    observer: Option<SharedObserver>,
    spans: Option<&SpanRecorder>,
    threads: usize,
    smoke: bool,
    stretch: bool,
) -> bool {
    println!("E8 — scope scaling: naive vs optimized vs optimized+preprocessed");
    println!("(every variant must reach the same verdict at every scope)\n");
    let scopes = if smoke {
        vec![(2, 2)]
    } else {
        analysis::e8_scopes(stretch)
    };
    let wall_start = Instant::now();
    let rows = analysis::run_scale_sweep(threads, &scopes, observer, spans)
        .expect("well-formed scale models");
    let wall_clock_secs = wall_start.elapsed().as_secs_f64();
    let mut ok = true;
    for row in &rows {
        println!("{row}");
        ok &= row.verdicts_agree() && row.valid();
    }

    // End-to-end certification: the preprocessed pipeline's "valid" verdict
    // at the smallest scope, with the simplifier's DRAT steps prepended to
    // the solver's, verified by the independent proof checker.
    let model = DynamicModel::build(
        NumberEncoding::OptimizedValue,
        DynamicScenario::at_scope(2, 2),
    );
    let certified = model
        .model()
        .check_certified(&model.consensus_assertion(), true)
        .expect("well-formed model");
    let cert_ok = certified.is_certified_valid();
    let cert_steps = certified.certificate.as_ref().map_or(0, |c| c.steps);
    println!(
        "  certification (2x2, optimized+pre): {} ({} DRAT steps)",
        if cert_ok {
            "proof verified ✓"
        } else {
            "NOT verified ✗"
        },
        cert_steps
    );
    ok &= cert_ok;

    write_bench_file(
        "BENCH_SCALE.json",
        &bench_scale_json(&rows, &certified, wall_clock_secs, threads),
    );
    println!("  scaling sweep written to BENCH_SCALE.json");
    println!(
        "  => {}",
        if ok {
            "all variants agree and the preprocessed proof certifies ✓"
        } else {
            "verdict or certification MISMATCH ✗"
        }
    );
    ok
}

/// The committed `BENCH_SCALE.json` artifact: per-scope, per-variant sizes,
/// solver and simplifier statistics, the incremental sweep curves, and the
/// end-to-end certification record.
fn bench_scale_json(
    rows: &[analysis::ScaleRow],
    certified: &mca_relalg::CertifiedCheck,
    wall_clock_secs: f64,
    threads: usize,
) -> Json {
    let simplify_json = |s: &Option<mca_sat::SimplifyStats>| match s {
        None => Json::Null,
        Some(s) => Json::obj([
            ("subsumed", Json::from(s.subsumed as u64)),
            (
                "strengthened_literals",
                Json::from(s.strengthened_literals as u64),
            ),
            (
                "propagated_literals",
                Json::from(s.propagated_literals as u64),
            ),
            ("satisfied_clauses", Json::from(s.satisfied_clauses as u64)),
            ("found_unsat", Json::from(s.found_unsat)),
        ]),
    };
    Json::obj([
        ("experiment", Json::from("e8")),
        ("wall_clock_secs", Json::from(wall_clock_secs)),
        ("threads", Json::from(threads as u64)),
        ("resources", resources_json()),
        (
            "certification",
            Json::obj([
                ("scope", Json::from("2x2")),
                ("variant", Json::from("optimized+pre")),
                ("certified", Json::from(certified.is_certified_valid())),
                (
                    "proof_steps",
                    Json::from(certified.certificate.as_ref().map_or(0, |c| c.steps) as u64),
                ),
                ("simplify", simplify_json(&certified.simplify)),
            ]),
        ),
        (
            "scopes",
            Json::Array(
                rows.iter()
                    .map(|row| {
                        Json::obj([
                            ("scope", Json::from(row.scope.as_str())),
                            ("pnodes", Json::from(row.pnodes as u64)),
                            ("vnodes", Json::from(row.vnodes as u64)),
                            ("states", Json::from(row.states as u64)),
                            ("valid", Json::from(row.valid())),
                            ("verdicts_agree", Json::from(row.verdicts_agree())),
                            (
                                "variants",
                                Json::Array(
                                    row.variants
                                        .iter()
                                        .map(|v| {
                                            Json::obj([
                                                ("variant", Json::from(v.variant.as_str())),
                                                ("valid", Json::from(v.valid)),
                                                ("vacuous", Json::from(v.vacuous)),
                                                ("check_secs", Json::from(v.check_secs)),
                                                (
                                                    "translate_secs",
                                                    Json::from(v.stats.translation_secs),
                                                ),
                                                ("cnf_vars", Json::from(v.stats.cnf_vars as u64)),
                                                (
                                                    "cnf_clauses",
                                                    Json::from(v.stats.cnf_clauses as u64),
                                                ),
                                                (
                                                    "clauses_deduped",
                                                    Json::from(v.stats.clauses_deduped as u64),
                                                ),
                                                (
                                                    "solver",
                                                    Json::obj([
                                                        (
                                                            "decisions",
                                                            Json::from(v.solver.decisions),
                                                        ),
                                                        (
                                                            "propagations",
                                                            Json::from(v.solver.propagations),
                                                        ),
                                                        (
                                                            "conflicts",
                                                            Json::from(v.solver.conflicts),
                                                        ),
                                                        ("restarts", Json::from(v.solver.restarts)),
                                                    ]),
                                                ),
                                                ("simplify", simplify_json(&v.simplify)),
                                            ])
                                        })
                                        .collect(),
                                ),
                            ),
                            (
                                "sweep",
                                Json::obj([
                                    (
                                        "valid_from",
                                        row.sweep
                                            .valid_from
                                            .map_or(Json::Null, |k| Json::from(k as u64)),
                                    ),
                                    (
                                        "per_state",
                                        Json::Array(
                                            row.sweep
                                                .per_state
                                                .iter()
                                                .map(|&v| Json::from(v))
                                                .collect(),
                                        ),
                                    ),
                                    (
                                        "conflicts_after",
                                        Json::Array(
                                            row.sweep
                                                .conflicts_after
                                                .iter()
                                                .map(|&c| Json::from(c))
                                                .collect(),
                                        ),
                                    ),
                                    (
                                        "cnf_clauses",
                                        Json::from(row.sweep.stats.cnf_clauses as u64),
                                    ),
                                    ("conflicts", Json::from(row.sweep.solver.conflicts)),
                                    ("sweep_secs", Json::from(row.sweep_secs)),
                                    ("simplify", simplify_json(&row.sweep.simplify)),
                                ]),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn run_e6() -> bool {
    println!("E6 — measured synchronous rounds vs the D·|V_H| bound");
    let rows = analysis::run_convergence_bound(&[1, 7, 42]);
    let mut ok = true;
    for row in &rows {
        println!("{row}");
        ok &= row.within_bound();
    }
    println!(
        "  => {} ({} configurations)",
        if ok {
            "every compliant run converges within the bound ✓"
        } else {
            "bound violated ✗"
        },
        rows.len()
    );
    ok
}

fn run_e7() -> bool {
    println!("E7 (Remark 3) — MCA network utility vs exhaustive optimum");
    println!("(cited guarantee: sub-modular MCA achieves >= 1 - 1/e = 0.632 of optimal)\n");
    let rows = analysis::run_approximation_ratio(&[1, 2, 3, 5, 8]);
    let mut ok = true;
    let mut worst: f64 = 1.0;
    for row in &rows {
        println!("{row}");
        ok &= row.within_guarantee();
        worst = worst.min(row.ratio());
    }
    println!(
        "  => worst ratio {:.3} over {} workloads — {}",
        worst,
        rows.len(),
        if ok {
            "guarantee holds ✓"
        } else {
            "guarantee VIOLATED ✗"
        }
    );
    ok
}
