//! The three check workloads: set-up, the measured window, and metrics.

use std::collections::BTreeMap;
use std::time::Instant;

use mca_verify::{DynamicScenario, NumberEncoding};

use crate::calib;
use crate::check::{self, Tracer, Verdict};
use crate::deck::{self, DeckItem, Expected, KnownAnswer, Rng};
use crate::stats::{self, RunResult};
use crate::Args;

/// Set-up repetitions in every workload; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// One set-up: build the seeded deck and run one untimed warm-up check
/// (the two-agent compliant scenario, optimized encoding, through the
/// workload's entry point), so the timed window starts on a warm process.
fn setup(args: &Args) -> Result<(), String> {
    let deck = deck::check_deck(args.workload, &mut Rng::new(args.seed));
    let entry = deck.first().ok_or("empty deck")?.answer.entry;
    let warm = DeckItem {
        answer: KnownAnswer {
            label: "warm-up",
            scenario: DynamicScenario::two_agent_compliant,
            states: None,
            encoding: NumberEncoding::OptimizedValue,
            entry,
            expected: Expected::Valid,
        },
        scenario: DynamicScenario::two_agent_compliant(),
    };
    let (verdict, model, _) = check::run_entry(&warm)?;
    check::verify(&warm, &model, &verdict)
}

/// Runs a check workload and returns its result line.
pub fn run(args: &Args, process_start: Instant) -> Result<RunResult, String> {
    let mut setup_secs = Vec::with_capacity(SETUP_REPS);
    let mut t = process_start;
    let mut kernel = None;
    for _ in 0..SETUP_REPS {
        setup(args)?;
        let secs = t.elapsed().as_secs_f64();
        let after = calib::kernel_secs();
        setup_secs.push(secs * calib::scale(kernel.unwrap_or(after), after));
        kernel = Some(after);
        t = Instant::now();
    }
    eprintln!("perfbench: set-ups {setup_secs:.4?} s at nominal speed");
    let rng = Rng::new(args.seed);
    if args.trace {
        run_traced(args, rng)
    } else {
        run_plain(args, rng, &setup_secs, kernel.unwrap_or(calib::NOMINAL_S))
    }
}

/// Whether another deck pass belongs in the window: passes start while
/// the window less half the last pass's length is unspent, so a run
/// measures about `--seconds` however long a pass is.
fn another_pass(start: Instant, last_pass: f64, args: &Args) -> bool {
    start.elapsed().as_secs_f64() + last_pass / 2.0 < args.seconds.as_secs_f64()
}

/// Checks one verdict against its item, logging a failure.
fn output_ok(
    item: &DeckItem,
    outcome: Result<(Verdict, mca_verify::DynamicModel), String>,
) -> bool {
    match outcome.and_then(|(v, m)| check::verify(item, &m, &v)) {
        Ok(()) => true,
        Err(e) => {
            eprintln!("perfbench: FAILED {e}");
            false
        }
    }
}

/// The end-to-end run: whole passes over the deck until the window is
/// spent, each check timed from model build to verdict and scaled to the
/// nominal speed by the kernel samples taken before and after it. A pass
/// is read as the sum of the per-item medians, so one slow outlier check
/// does not move it.
fn run_plain(
    args: &Args,
    mut rng: Rng,
    setup_secs: &[f64],
    mut kernel: f64,
) -> Result<RunResult, String> {
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut item_secs: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut kernels = Vec::new();
    let start = Instant::now();
    let mut last_pass = 0.0;
    while attempted == 0 || another_pass(start, last_pass, args) {
        let pass_start = Instant::now();
        for item in deck::check_deck(args.workload, &mut rng) {
            attempted += 1;
            let outcome = check::run_entry(&item);
            let after = calib::kernel_secs();
            if let Ok((_, _, secs)) = &outcome {
                let scaled = secs * calib::scale(kernel, after);
                item_secs.entry(item.answer.label).or_default().push(scaled);
            }
            kernels.push(after);
            kernel = after;
            if !output_ok(&item, outcome.map(|(v, m, _)| (v, m))) {
                failed += 1;
            }
        }
        last_pass = pass_start.elapsed().as_secs_f64();
    }
    let per_item: Vec<f64> = item_secs
        .values()
        .filter_map(|xs| stats::median(xs))
        .collect();
    eprintln!(
        "perfbench: kernel median {:.4} s (nominal {:.4} s); item times at nominal speed:",
        stats::median(&kernels).unwrap_or(0.0),
        calib::NOMINAL_S
    );
    for (label, secs) in &item_secs {
        eprintln!(
            "perfbench: {:<32} median {:.4} s over {} (min {:.4}, max {:.4})",
            label,
            stats::median(secs).unwrap_or(0.0),
            secs.len(),
            secs.iter().copied().fold(f64::INFINITY, f64::min),
            secs.iter().copied().fold(0.0, f64::max),
        );
    }
    let all: Vec<f64> = item_secs.values().flatten().copied().collect();
    let values = BTreeMap::from([
        ("setup_s", stats::median(setup_secs).unwrap_or(0.0)),
        ("deck_s", per_item.iter().sum()),
        ("max_check_s", per_item.iter().copied().fold(0.0, f64::max)),
        ("req_p50_ms", stats::median(&per_item).unwrap_or(0.0) * 1e3),
        ("req_per_s", stats::rate(all.len() as f64, all.iter().sum())),
    ]);
    let metrics = stats::metrics(&stats::END_TO_END, &values);
    Ok(RunResult {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    })
}

/// Span totals of one pass, by span name, plus summed span fields.
#[derive(Default)]
struct PassTotals {
    secs: BTreeMap<String, f64>,
    counts: BTreeMap<String, u64>,
    /// The largest share of any one item's time its spans do not cover.
    other_max_frac: f64,
}

/// The traced run: the first pass also runs every item through its
/// untraced entry point and requires the same verdict and conflicts;
/// then traced passes fill the window. Per-layer metrics are medians
/// over passes of per-pass sums, for times and counts alike.
fn run_traced(args: &Args, mut rng: Rng) -> Result<RunResult, String> {
    let tracer = Tracer::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut passes_done: Vec<PassTotals> = Vec::new();
    let start = Instant::now();
    let mut last_pass = 0.0;
    while passes_done.is_empty() || another_pass(start, last_pass, args) {
        let pass_start = Instant::now();
        let first = passes_done.is_empty();
        let mut totals = PassTotals::default();
        for item in &deck::check_deck(args.workload, &mut rng) {
            attempted += 1;
            let reference = if first {
                match check::run_entry(item) {
                    Ok((v, _, _)) => Some((v.valid, v.conflicts)),
                    Err(e) => {
                        eprintln!("perfbench: FAILED {}: {e}", item.answer.label);
                        failed += 1;
                        continue;
                    }
                }
            } else {
                None
            };
            let outcome = check::run_traced(item, &tracer);
            if let (Some((valid, conflicts)), Ok((v, _))) = (reference, &outcome) {
                if (v.valid, v.conflicts) != (valid, conflicts) {
                    eprintln!(
                        "perfbench: FAILED {}: traced run gave valid={} conflicts={}, \
                         entry point valid={valid} conflicts={conflicts}",
                        item.answer.label, v.valid, v.conflicts
                    );
                    failed += 1;
                    tracer.drain();
                    continue;
                }
            }
            if !output_ok(item, outcome) {
                failed += 1;
            }
            let (mut item_secs, mut layer_secs) = (0.0, 0.0);
            let mut line = String::new();
            for (name, secs, fields) in tracer.drain() {
                if name == check::ITEM_SPAN {
                    item_secs += secs;
                } else {
                    layer_secs += secs;
                    line.push_str(&format!(" {name} {secs:.4}"));
                }
                *totals.secs.entry(name).or_insert(0.0) += secs;
                for (field, n) in fields {
                    line.push_str(&format!(" {field}={n}"));
                    *totals.counts.entry(field).or_insert(0) += n;
                }
            }
            let other = (item_secs - layer_secs).max(0.0);
            if first {
                eprintln!(
                    "perfbench: {} {item_secs:.4} s:{line} other {other:.4}",
                    item.answer.label
                );
            }
            *totals.secs.entry("other".into()).or_insert(0.0) += other;
            if item_secs > 0.0 {
                totals.other_max_frac = totals.other_max_frac.max(other / item_secs);
            }
        }
        passes_done.push(totals);
        last_pass = pass_start.elapsed().as_secs_f64();
    }
    let med_secs = |name: &str| {
        let xs: Vec<f64> = passes_done
            .iter()
            .map(|p| p.secs.get(name).copied().unwrap_or(0.0))
            .collect();
        stats::median(&xs).unwrap_or(0.0)
    };
    let count = |name: &str| {
        let xs: Vec<f64> = passes_done
            .iter()
            .map(|p| p.counts.get(name).copied().unwrap_or(0) as f64)
            .collect();
        stats::median(&xs).unwrap_or(0.0)
    };
    let translate_s = med_secs("relalg.translate");
    let solve_s = med_secs("sat.solve");
    let drat_s = med_secs("sat.drat_check");
    let item_s = med_secs(check::ITEM_SPAN);
    let values = BTreeMap::from([
        ("verify.build_s", med_secs("verify.build")),
        ("alloy.to_problem_s", med_secs("alloy.to_problem")),
        ("relalg.translate_s", translate_s),
        (
            "relalg.gates_per_s",
            stats::rate(count("gates"), translate_s),
        ),
        ("relalg.primary_vars", count("primary_vars")),
        ("relalg.gates", count("gates")),
        ("relalg.cnf_vars", count("cnf_vars")),
        ("relalg.cnf_clauses", count("cnf_clauses")),
        ("sat.load_s", med_secs("sat.load")),
        ("sat.solve_s", solve_s),
        (
            "sat.props_per_s",
            stats::rate(count("propagations"), solve_s),
        ),
        ("sat.conflicts", count("conflicts")),
        ("sat.decisions", count("decisions")),
        ("sat.propagations", count("propagations")),
        ("sat.restarts", count("restarts")),
        ("sat.drat_check_s", drat_s),
        ("sat.proof_steps", count("proof_steps")),
        (
            "sat.drat_steps_per_s",
            stats::rate(count("proof_steps"), drat_s),
        ),
        ("share.translate", stats::rate(translate_s, item_s)),
        ("share.solve", stats::rate(solve_s, item_s)),
        ("share.drat_check", stats::rate(drat_s, item_s)),
        ("other_s", med_secs("other")),
        (
            "other_max_frac",
            passes_done
                .iter()
                .map(|p| p.other_max_frac)
                .fold(0.0, f64::max),
        ),
        ("failed_frac", stats::failed_frac(attempted, failed)),
        ("passes", passes_done.len() as f64),
        ("peak_rss_mb", stats::peak_rss_mb()),
    ]);
    eprintln!(
        "perfbench: traced {} passes, item time {:.3} s/pass, translate {:.1}%, solve {:.1}%, \
         drat {:.1}%, other {:.2}% max",
        passes_done.len(),
        item_s,
        100.0 * values["share.translate"],
        100.0 * values["share.solve"],
        100.0 * values["share.drat_check"],
        100.0 * values["other_max_frac"],
    );
    let metrics = stats::metrics(&stats::PER_LAYER, &values);
    Ok(RunResult {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    })
}
