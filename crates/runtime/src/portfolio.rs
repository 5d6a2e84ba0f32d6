//! Portfolio SAT solving: race diversified solver configurations on the
//! same CNF, cancel the losers as soon as any entrant finishes.
//!
//! Because every entrant solves the *same* formula with a *complete*
//! solver, all entrants agree on the SAT/UNSAT verdict — the portfolio
//! only changes *which* entrant reports it first (and, for SAT, which
//! model is reported). [`solve_portfolio`] therefore never differs from a
//! sequential [`mca_sat::Solver`] run in its verdict, a property pinned by
//! the `runtime_determinism` integration test.
//!
//! The entrants are connected through a [`ClauseShare`](crate::ClauseShare)
//! pool: each entrant exports its low-LBD learnt clauses as it learns them
//! and imports everyone else's at its restart boundaries. Shared clauses
//! are logical consequences of the common formula, so the verdict
//! guarantee is unchanged — sharing turns the losers' work into the
//! winner's head start instead of pure waste. `max_lbd: 0` in the
//! [`SharingConfig`] races the entrants without sharing.

use crate::pool::Runtime;
use crate::share::{ClauseShare, SharingConfig};
use mca_sat::{CancelToken, CnfFormula, SearchTelemetry, SolveResult, SolverConfig, SolverStats};
use std::sync::{Arc, Mutex};

/// One portfolio entrant: a label plus the solver configuration it runs.
#[derive(Clone, Debug, PartialEq)]
pub struct PortfolioEntry {
    /// Human label (appears in job traces and reports).
    pub label: String,
    /// The configuration this entrant solves with.
    pub config: SolverConfig,
}

/// The outcome of a portfolio race.
#[derive(Clone, Debug)]
pub struct PortfolioReport {
    /// The verdict (identical across entrants; see module docs).
    pub result: SolveResult,
    /// Index of the winning entrant.
    pub winner: usize,
    /// Label of the winning entrant.
    pub winner_label: String,
    /// The winning solver's statistics.
    pub winner_stats: SolverStats,
    /// Total entrants raced.
    pub entrants: usize,
    /// Entrants that observed the cancellation and stopped early.
    pub cancelled: usize,
    /// The winning solver's per-epoch search telemetry.
    pub winner_telemetry: SearchTelemetry,
    /// Final statistics of every entrant that ran, indexed like `entries`
    /// (`None` for entrants that never started — e.g. pre-cancelled).
    /// Losers appear here even though their verdicts are discarded; this
    /// is what cancellation-latency and wasted-work accounting read.
    pub entrant_stats: Vec<Option<SolverStats>>,
    /// Per-epoch search telemetry of every entrant that ran, indexed like
    /// `entries`. The winner's entry duplicates `winner_telemetry`; loser
    /// entries are what per-entrant LBD summaries in BENCH_PAR read.
    pub entrant_telemetry: Vec<Option<SearchTelemetry>>,
    /// Clauses accepted into the sharing pool's export lanes (0 without
    /// sharing).
    pub shared_exported: u64,
    /// Clauses pulled from the pool by importers (each clause counts once
    /// per importer that pulled it; 0 without sharing).
    pub shared_imported: u64,
    /// Exports rejected because a lane was at capacity (0 without
    /// sharing).
    pub shared_dropped: u64,
}

impl PortfolioReport {
    /// Conflicts burnt by cancelled entrants (everyone but the winner).
    pub fn loser_conflicts(&self) -> u64 {
        self.entrant_stats
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != self.winner)
            .filter_map(|(_, s)| s.as_ref())
            .map(|s| s.conflicts)
            .sum()
    }

    /// Worst cancellation latency any entrant observed, in conflicts (at
    /// most 1: solvers poll the token at every conflict and decision).
    pub fn cancel_latency_conflicts(&self) -> u64 {
        self.entrant_stats
            .iter()
            .filter_map(|s| s.as_ref())
            .map(|s| s.cancel_latency_conflicts)
            .max()
            .unwrap_or(0)
    }
}

/// A deterministic family of `n` diversified solver configurations.
///
/// Entrant 0 is always the default configuration (so a 1-entrant
/// portfolio is exactly a sequential solve); later entrants vary restart
/// cadence, activity decay, phase policy, and learnt-database handling.
/// The family is a pure function of `n` — no randomness — so portfolio
/// composition is reproducible.
pub fn diversified_configs(n: usize) -> Vec<PortfolioEntry> {
    let base = SolverConfig::default();
    let variants: [(&str, SolverConfig); 10] = [
        ("default", base),
        (
            "fast-restarts",
            SolverConfig {
                restart_base: 32,
                ..base
            },
        ),
        (
            "pos-polarity",
            SolverConfig {
                phase_saving: false,
                default_polarity: true,
                ..base
            },
        ),
        (
            "slow-decay",
            SolverConfig {
                var_decay: 0.99,
                ..base
            },
        ),
        (
            "neg-polarity",
            SolverConfig {
                phase_saving: false,
                default_polarity: false,
                ..base
            },
        ),
        (
            "keep-learnts",
            SolverConfig {
                reduce_db: false,
                ..base
            },
        ),
        (
            "agile",
            SolverConfig {
                restart_base: 16,
                var_decay: 0.85,
                ..base
            },
        ),
        (
            "stable",
            SolverConfig {
                restart_base: 512,
                clause_decay: 0.99,
                ..base
            },
        ),
        (
            "adaptive",
            SolverConfig {
                restart_policy: mca_sat::RestartPolicy::Adaptive,
                ..base
            },
        ),
        (
            "warm-pos",
            // Phase saving stays on; default_polarity seeds every fresh
            // variable's first descent positive.
            SolverConfig {
                default_polarity: true,
                ..base
            },
        ),
    ];
    (0..n)
        .map(|i| {
            let (name, config) = variants[i % variants.len()];
            let label = if i < variants.len() {
                format!("cfg{i}:{name}")
            } else {
                // Past the base family, stretch the restart cadence so
                // repeated variants still differ.
                format!("cfg{i}:{name}-r{}", i / variants.len())
            };
            let config = if i < variants.len() {
                config
            } else {
                SolverConfig {
                    restart_base: config.restart_base * (1 + (i / variants.len()) as u64),
                    ..config
                }
            };
            PortfolioEntry { label, config }
        })
        .collect()
}

/// Races `entries` on `cnf` across the runtime's workers and returns the
/// first finisher's verdict.
///
/// Each entrant loads a fresh [`mca_sat::Solver`] with its configuration,
/// installs the shared [`CancelToken`], and solves via the cancellable
/// path. The first entrant to finish cancels the token; losers abort at
/// their next conflict or decision and are recorded as `job-cancelled` in
/// the runtime's trace.
///
/// Every entrant is connected to one [`ClauseShare`](crate::ClauseShare)
/// pool: clauses with LBD ≤ `sharing.max_lbd` are exported at each
/// conflict and imported at each restart boundary, so the race's combined
/// conflict work compounds instead of being thrown away with the losers
/// (`max_lbd: 0` exports nothing, so no clause moves). Verdicts are
/// unchanged (imports are consequences of the shared formula); traffic
/// totals land in the report's `shared_*` fields and in each entrant's
/// `exported_clauses` / `imported_clauses` stats.
///
/// # Panics
///
/// Panics if `entries` is empty.
///
/// # Examples
///
/// ```
/// use mca_runtime::{diversified_configs, solve_portfolio};
/// use mca_runtime::{Runtime, SharingConfig};
/// use mca_sat::{CnfFormula, SolveResult};
///
/// // An unsatisfiable pigeonhole instance: 4 pigeons, 3 holes.
/// let mut cnf = CnfFormula::new();
/// let vars: Vec<Vec<_>> = (0..4).map(|_| (0..3).map(|_| cnf.new_var()).collect()).collect();
/// for p in &vars {
///     cnf.add_clause(p.iter().map(|v| v.lit(true)));
/// }
/// for h in 0..3 {
///     for p1 in 0..4 {
///         for p2 in (p1 + 1)..4 {
///             cnf.add_clause([vars[p1][h].lit(false), vars[p2][h].lit(false)]);
///         }
///     }
/// }
///
/// let rt = Runtime::new(2);
/// let report = solve_portfolio(&rt, &cnf, &diversified_configs(4), SharingConfig::default());
/// assert_eq!(report.result, SolveResult::Unsat);
/// // Glue clauses flowed between the entrants.
/// assert_eq!(report.entrants, 4);
/// assert!(report.shared_exported >= report.winner_stats.exported_clauses);
/// ```
pub fn solve_portfolio(
    rt: &Runtime,
    cnf: &CnfFormula,
    entries: &[PortfolioEntry],
    sharing: SharingConfig,
) -> PortfolioReport {
    assert!(!entries.is_empty(), "portfolio needs at least one entrant");
    let entrants = entries.len();
    let share = ClauseShare::new(entrants, sharing);
    // Losers return `None` through the portfolio channel, but their final
    // stats and telemetry still matter for forensics — side-channel them
    // out, indexed by entrant.
    let stats_out: Arc<Mutex<Vec<Option<SolverStats>>>> =
        Arc::new(Mutex::new(vec![None; entrants]));
    let telemetry_out: Arc<Mutex<Vec<Option<SearchTelemetry>>>> =
        Arc::new(Mutex::new(vec![None; entrants]));
    let jobs: Vec<(String, _)> = entries
        .iter()
        .enumerate()
        .map(|(index, entry)| {
            let label = entry.label.clone();
            // One knob rules the race: the pool's LBD bound overrides each
            // entrant's own export threshold.
            let config = SolverConfig {
                share_lbd_max: sharing.max_lbd,
                ..entry.config
            };
            let sink = share.endpoint(index);
            let cnf = cnf.clone();
            let stats_out = stats_out.clone();
            let telemetry_out = telemetry_out.clone();
            (
                format!("portfolio:{label}"),
                move |token: &CancelToken| -> Option<SolveResult> {
                    let mut solver = mca_sat::Solver::with_config(config);
                    solver.new_vars(cnf.num_vars());
                    for clause in cnf.clauses() {
                        solver.add_clause(clause.iter().copied());
                    }
                    solver.set_terminate(token.clone());
                    solver.enable_telemetry();
                    solver.set_clause_sink(sink);
                    let result = solver.solve_under_assumptions(&[]);
                    stats_out.lock().expect("stats channel poisoned")[index] =
                        Some(*solver.stats());
                    telemetry_out.lock().expect("telemetry channel poisoned")[index] =
                        solver.take_telemetry();
                    result
                },
            )
        })
        .collect();
    let win = rt
        .portfolio(jobs)
        .expect("a complete solver always finishes unless pre-cancelled");
    let entrant_stats = std::mem::take(&mut *stats_out.lock().expect("stats channel poisoned"));
    let winner_stats = entrant_stats[win.winner].expect("the winner ran to completion");
    let entrant_telemetry =
        std::mem::take(&mut *telemetry_out.lock().expect("telemetry channel poisoned"));
    let winner_telemetry = entrant_telemetry[win.winner]
        .clone()
        .expect("telemetry enabled on every entrant");
    PortfolioReport {
        result: win.result,
        winner: win.winner,
        winner_label: entries[win.winner].label.clone(),
        winner_stats,
        entrants,
        cancelled: entrants.saturating_sub(1),
        winner_telemetry,
        entrant_stats,
        entrant_telemetry,
        shared_exported: share.exported(),
        shared_imported: share.imported(),
        shared_dropped: share.dropped(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NO_SHARING: SharingConfig = SharingConfig {
        max_lbd: 0,
        capacity: 0,
    };

    #[allow(clippy::needless_range_loop)]
    fn pigeonhole(holes: usize) -> CnfFormula {
        // holes+1 pigeons into `holes` holes: classic small UNSAT family.
        let pigeons = holes + 1;
        let mut cnf = CnfFormula::new();
        let vars: Vec<Vec<mca_sat::Var>> = (0..pigeons)
            .map(|_| (0..holes).map(|_| cnf.new_var()).collect())
            .collect();
        for p in &vars {
            cnf.add_clause(p.iter().map(|v| v.lit(true)));
        }
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in (p1 + 1)..pigeons {
                    cnf.add_clause([vars[p1][h].lit(false), vars[p2][h].lit(false)]);
                }
            }
        }
        cnf
    }

    #[test]
    fn diversified_configs_start_with_default_and_never_repeat_labels() {
        let entries = diversified_configs(12);
        assert_eq!(entries[0].config, SolverConfig::default());
        let labels: std::collections::BTreeSet<_> =
            entries.iter().map(|e| e.label.clone()).collect();
        assert_eq!(labels.len(), 12, "labels must be unique: {labels:?}");
        // Pure function of n: same call, same family.
        assert_eq!(entries, diversified_configs(12));
    }

    #[test]
    fn portfolio_verdict_matches_sequential_on_unsat() {
        let cnf = pigeonhole(4);
        let sequential = cnf.to_solver().solve();
        let rt = Runtime::new(2);
        let report = solve_portfolio(&rt, &cnf, &diversified_configs(4), NO_SHARING);
        assert_eq!(report.result, sequential);
        assert_eq!(report.result, SolveResult::Unsat);
        assert_eq!(report.entrants, 4);
        assert_eq!(report.shared_exported, 0);
        // Forensics side-channel: the winner's stats and telemetry made it
        // out, and every entrant that ran left its stats behind.
        assert!(report.entrant_stats[report.winner].is_some());
        assert!(!report.winner_telemetry.epochs.is_empty());
        assert_eq!(report.entrant_stats.len(), 4);
        // Default entrants poll every conflict, so any observed
        // cancellation latency is at most one conflict.
        assert!(report.cancel_latency_conflicts() <= 1);
        // loser_conflicts never counts the winner.
        assert!(
            report.loser_conflicts()
                <= report
                    .entrant_stats
                    .iter()
                    .flatten()
                    .map(|s| s.conflicts)
                    .sum::<u64>()
        );
    }

    #[test]
    fn sharing_preserves_verdicts_and_moves_clauses() {
        let cnf = pigeonhole(5);
        let sequential = cnf.to_solver().solve();
        for threads in [1, 2, 4] {
            let rt = Runtime::new(threads);
            let report =
                solve_portfolio(&rt, &cnf, &diversified_configs(4), SharingConfig::default());
            assert_eq!(report.result, sequential, "verdict at {threads} threads");
            assert_eq!(report.result, SolveResult::Unsat);
            // Export accounting is consistent between the pool and the
            // entrants' own stats (the pool may see fewer than the sum of
            // entrant exports when capacity drops some).
            let entrant_exports: u64 = report
                .entrant_stats
                .iter()
                .flatten()
                .map(|s| s.exported_clauses)
                .sum();
            assert!(report.shared_exported <= entrant_exports);
            assert_eq!(report.entrant_telemetry.len(), 4);
            // A hard-enough instance restarts, so at least someone had an
            // import opportunity; don't require it (the race can end
            // first), just require consistency.
            let entrant_imports: u64 = report
                .entrant_stats
                .iter()
                .flatten()
                .map(|s| s.imported_clauses)
                .sum();
            assert!(entrant_imports <= report.shared_imported);
        }
    }

    #[test]
    fn sharing_keeps_cancellation_latency_bounded() {
        let cnf = pigeonhole(5);
        let rt = Runtime::new(4);
        let report = solve_portfolio(&rt, &cnf, &diversified_configs(4), SharingConfig::default());
        // Default entrants poll every conflict; sharing must not loosen
        // the cancellation-latency bound.
        assert!(report.cancel_latency_conflicts() <= 1);
    }

    #[test]
    fn portfolio_verdict_matches_sequential_on_sat() {
        let mut cnf = CnfFormula::new();
        let vars = cnf.new_vars(6);
        cnf.add_clause([vars[0].lit(true), vars[1].lit(true)]);
        cnf.add_clause([vars[2].lit(false), vars[3].lit(true)]);
        cnf.add_clause([vars[4].lit(true), vars[5].lit(false)]);
        let sequential = cnf.to_solver().solve();
        let rt = Runtime::new(2);
        let report = solve_portfolio(&rt, &cnf, &diversified_configs(3), NO_SHARING);
        assert_eq!(report.result, sequential);
        assert_eq!(report.result, SolveResult::Sat);
        assert_eq!(
            report.winner_label,
            diversified_configs(3)[report.winner].label
        );
    }
}
