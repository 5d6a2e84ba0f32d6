//! Cube-and-conquer: split a formula on its top decision variables into
//! `2^k` assumption-guided subproblems and conquer them in parallel.
//!
//! The cubes partition the assignment space of the chosen split variables
//! exhaustively, so the combined verdict is exact:
//!
//! * any cube SAT  ⇒  the formula is SAT (that cube's model is a model);
//! * all cubes UNSAT  ⇒  the formula is UNSAT.
//!
//! A SAT cube cancels the shared token so sibling cubes stop early; for
//! UNSAT formulas every cube runs to completion. Each cube gets a fresh
//! solver and passes its sign assignment as *assumptions* (via
//! [`mca_sat::Solver::solve_under_assumptions`]), not as unit clauses, so
//! per-cube UNSAT answers are conclusions about the cube, not artifacts of
//! clause-database mutation.
//!
//! The scheduler, [`solve_cubes_adaptive`], is conflict-budgeted: only
//! cubes that exhaust their budget are split deeper, so job granularity
//! tracks subproblem hardness instead of a fixed guess. A static `2^k`
//! split is the special case `initial_split = max_split = k`.

use crate::pool::Runtime;
use mca_sat::{CancelToken, CnfFormula, Lit, SolveResult, Var};

/// Picks the `k` most frequently occurring variables as split candidates
/// (ties broken toward the lower variable index, so the choice is
/// deterministic). Frequency is a crude but encoder-agnostic proxy for
/// "high influence": variables mentioned by many clauses split the
/// formula into cubes that each simplify substantially.
pub(crate) fn top_split_vars(cnf: &CnfFormula, k: usize) -> Vec<Var> {
    let mut occurrences = vec![0u64; cnf.num_vars()];
    for clause in cnf.clauses() {
        for lit in clause {
            occurrences[lit.var().index()] += 1;
        }
    }
    let mut by_count: Vec<usize> = (0..cnf.num_vars()).collect();
    by_count.sort_by_key(|&v| (std::cmp::Reverse(occurrences[v]), v));
    by_count.into_iter().take(k).map(Var::from_index).collect()
}

/// The `2^k` sign cubes over `vars`, in binary-counter order: cube `i`
/// assigns `vars[j]` positively iff bit `j` of `i` is set.
pub(crate) fn sign_cubes(vars: &[Var]) -> Vec<Vec<Lit>> {
    let n = vars.len();
    assert!(n < usize::BITS as usize, "too many split variables");
    (0..1usize << n)
        .map(|i| {
            vars.iter()
                .enumerate()
                .map(|(j, &v)| v.lit(i >> j & 1 == 1))
                .collect()
        })
        .collect()
}

/// Tuning knobs for [`solve_cubes_adaptive`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdaptiveCubeConfig {
    /// Variables in the initial split (`2^initial_split` starting cubes).
    pub initial_split: usize,
    /// Conflict budget per cube attempt: a cube that is neither decided
    /// nor cancelled within this many conflicts is split one variable
    /// deeper instead of being ground out.
    pub conflict_budget: u64,
    /// Maximum split depth. Cubes that reach it (or exhaust the candidate
    /// variable ladder) run unbounded — the partition stays exhaustive, so
    /// the combined verdict stays exact. With `max_split = initial_split`
    /// no cube is re-split: a fixed `2^initial_split` split.
    pub max_split: usize,
}

impl Default for AdaptiveCubeConfig {
    fn default() -> AdaptiveCubeConfig {
        AdaptiveCubeConfig {
            initial_split: 2,
            conflict_budget: 2_000,
            max_split: 6,
        }
    }
}

/// The outcome of an adaptive cube-and-conquer run
/// ([`solve_cubes_adaptive`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AdaptiveCubeReport {
    /// The combined verdict (exact; see module docs).
    pub result: SolveResult,
    /// The split-variable ladder, most frequent first; a cube at depth `d`
    /// assumes signs for the first `d` ladder variables.
    pub ladder: Vec<Var>,
    /// Cube solve attempts, including budget-exhausted ones.
    pub attempts: usize,
    /// Attempts that reached a verdict within their conflict budget.
    pub resolved_in_budget: usize,
    /// Attempts that exhausted their budget and were split one deeper
    /// (each producing two child cubes).
    pub resplit: usize,
    /// Deepest cube depth conquered.
    pub max_depth: usize,
    /// Attempts cancelled after a sibling reported SAT.
    pub cancelled: usize,
    /// The satisfying cube's assumptions, if the verdict was SAT.
    pub sat_cube: Option<Vec<Lit>>,
    /// Total conflicts across all attempts. Deterministic for UNSAT runs
    /// (every attempt runs to its budget or verdict regardless of thread
    /// count or scheduling).
    pub conflicts: u64,
}

/// Adaptive cube-and-conquer: conquer cubes under a conflict budget and
/// split only the cubes that exhaust it.
///
/// Classic cube-and-conquer picks its split depth up front, paying `2^k`
/// solves even when most cubes are trivial. The adaptive scheduler starts
/// shallow (`2^initial_split` cubes), conquers each with
/// [`mca_sat::Solver::solve_bounded`], and re-splits exactly the cubes
/// that could not be decided within `conflict_budget` conflicts — hard
/// regions of the search space get exponentially more (and coarser-
/// grained) jobs, easy regions get one cheap solve. Cubes at `max_split`
/// depth run unbounded, so the partition stays exhaustive and the verdict
/// exact.
///
/// Round structure, frontier order and per-cube budgets are all
/// deterministic; for UNSAT formulas the full attempt/resplit/conflict
/// accounting is thread-count-invariant (SAT runs cancel siblings, so
/// their `cancelled`/`conflicts` depend on timing — the verdict never
/// does).
///
/// # Examples
///
/// ```
/// use mca_runtime::{solve_cubes_adaptive, AdaptiveCubeConfig, Runtime};
/// use mca_sat::{CnfFormula, SolveResult};
///
/// // x1 = x2, x2 = x3, x1 != x3 — an unsatisfiable equality cycle.
/// let mut cnf = CnfFormula::new();
/// let v = cnf.new_vars(3);
/// cnf.add_clause([v[0].negative(), v[1].positive()]);
/// cnf.add_clause([v[0].positive(), v[1].negative()]);
/// cnf.add_clause([v[1].negative(), v[2].positive()]);
/// cnf.add_clause([v[1].positive(), v[2].negative()]);
/// cnf.add_clause([v[0].positive(), v[2].positive()]);
/// cnf.add_clause([v[0].negative(), v[2].negative()]);
///
/// let rt = Runtime::new(2);
/// let report = solve_cubes_adaptive(&rt, &cnf, AdaptiveCubeConfig::default());
/// assert_eq!(report.result, SolveResult::Unsat);
/// assert_eq!(report.attempts, 4, "2^2 initial cubes, none re-split");
/// ```
pub fn solve_cubes_adaptive(
    rt: &Runtime,
    cnf: &CnfFormula,
    config: AdaptiveCubeConfig,
) -> AdaptiveCubeReport {
    let depth_cap = config.max_split.max(config.initial_split);
    let ladder = top_split_vars(cnf, depth_cap);
    let initial = &ladder[..config.initial_split.min(ladder.len())];
    let mut frontier: Vec<Vec<Lit>> = sign_cubes(initial);
    let token = CancelToken::new();
    let mut report = AdaptiveCubeReport {
        result: SolveResult::Unsat,
        ladder: ladder.clone(),
        attempts: 0,
        resolved_in_budget: 0,
        resplit: 0,
        max_depth: initial.len(),
        cancelled: 0,
        sat_cube: None,
        conflicts: 0,
    };
    let mut round = 0usize;
    while !frontier.is_empty() {
        let cubes = std::mem::take(&mut frontier);
        let total = cubes.len();
        let jobs: Vec<(String, _)> = cubes
            .iter()
            .enumerate()
            .map(|(i, cube)| {
                let cube = cube.clone();
                let cnf = cnf.clone();
                // A cube that cannot be split further gets no budget cap.
                let budget = if cube.len() >= ladder.len() {
                    u64::MAX
                } else {
                    config.conflict_budget
                };
                (
                    format!("cube:r{round}:{i}/{total}"),
                    move |token: &CancelToken| -> (Option<SolveResult>, u64, bool) {
                        let mut solver = cnf.to_solver();
                        solver.set_terminate(token.clone());
                        let verdict = solver.solve_bounded(&cube, budget);
                        if verdict == Some(SolveResult::Sat) {
                            token.cancel();
                        }
                        // Disambiguate the two `None` causes *inside* the
                        // job: budget exhaustion vs cancellation.
                        (verdict, solver.stats().conflicts, token.is_cancelled())
                    },
                )
            })
            .collect();
        let outcomes = rt.run_batch_with_token(jobs, &token);
        for (i, (verdict, conflicts, was_cancelled)) in outcomes.iter().enumerate() {
            report.attempts += 1;
            report.conflicts += conflicts;
            report.max_depth = report.max_depth.max(cubes[i].len());
            match verdict {
                Some(SolveResult::Sat) => {
                    report.result = SolveResult::Sat;
                    if report.sat_cube.is_none() {
                        report.sat_cube = Some(cubes[i].clone());
                    }
                    report.resolved_in_budget += 1;
                }
                Some(SolveResult::Unsat) => report.resolved_in_budget += 1,
                None if *was_cancelled => report.cancelled += 1,
                None => {
                    // Budget exhausted: split on the next ladder variable.
                    report.resplit += 1;
                    let next = ladder[cubes[i].len()];
                    for sign in [false, true] {
                        let mut child = cubes[i].clone();
                        child.push(next.lit(sign));
                        frontier.push(child);
                    }
                }
            }
        }
        if report.result == SolveResult::Sat {
            // A model exists; pending splits are moot.
            frontier.clear();
        }
        round += 1;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_cubes_enumerate_all_assignments() {
        let vars: Vec<Var> = (0..3).map(Var::from_index).collect();
        let cubes = sign_cubes(&vars);
        assert_eq!(cubes.len(), 8);
        let distinct: std::collections::BTreeSet<Vec<i64>> = cubes
            .iter()
            .map(|c| c.iter().map(|l| l.to_dimacs()).collect())
            .collect();
        assert_eq!(distinct.len(), 8, "cubes must be pairwise distinct");
    }

    #[test]
    fn top_split_vars_prefers_frequency_then_index() {
        let mut cnf = CnfFormula::new();
        let vars = cnf.new_vars(4);
        // vars[2] in 3 clauses, vars[0] and vars[1] in 2, vars[3] in 1.
        cnf.add_clause([vars[2].positive(), vars[0].positive()]);
        cnf.add_clause([vars[2].negative(), vars[1].positive()]);
        cnf.add_clause([vars[2].positive(), vars[0].negative(), vars[1].negative()]);
        cnf.add_clause([vars[3].positive()]);
        assert_eq!(top_split_vars(&cnf, 2), vec![vars[2], vars[0]]);
    }

    /// A fixed `2^split` split: no cube is ever re-split.
    fn fixed_split(split: usize) -> AdaptiveCubeConfig {
        AdaptiveCubeConfig {
            initial_split: split,
            max_split: split,
            ..AdaptiveCubeConfig::default()
        }
    }

    #[test]
    fn cube_and_conquer_agrees_with_sequential_on_unsat() {
        // x1 = x2, x2 = x3, x1 != x3 — unsatisfiable equality cycle.
        let mut cnf = CnfFormula::new();
        let v = cnf.new_vars(3);
        cnf.add_clause([v[0].negative(), v[1].positive()]);
        cnf.add_clause([v[0].positive(), v[1].negative()]);
        cnf.add_clause([v[1].negative(), v[2].positive()]);
        cnf.add_clause([v[1].positive(), v[2].negative()]);
        cnf.add_clause([v[0].positive(), v[2].positive()]);
        cnf.add_clause([v[0].negative(), v[2].negative()]);
        let rt = Runtime::new(2);
        let report = solve_cubes_adaptive(&rt, &cnf, fixed_split(2));
        assert_eq!(report.result, SolveResult::Unsat);
        assert_eq!(report.attempts, 4);
        assert_eq!(
            report.resolved_in_budget, 4,
            "UNSAT runs conquer every cube"
        );
        assert_eq!(report.result, cnf.to_solver().solve());
    }

    #[test]
    fn cube_and_conquer_agrees_with_sequential_on_sat() {
        let mut cnf = CnfFormula::new();
        let v = cnf.new_vars(4);
        cnf.add_clause([v[0].positive(), v[1].positive()]);
        cnf.add_clause([v[2].negative(), v[3].positive()]);
        let rt = Runtime::new(2);
        let report = solve_cubes_adaptive(&rt, &cnf, fixed_split(2));
        assert_eq!(report.result, SolveResult::Sat);
        assert!(report.sat_cube.is_some());
        assert_eq!(report.result, cnf.to_solver().solve());
    }

    #[test]
    fn zero_split_degenerates_to_sequential() {
        let mut cnf = CnfFormula::new();
        let v = cnf.new_vars(2);
        cnf.add_clause([v[0].positive()]);
        cnf.add_clause([v[0].negative(), v[1].positive()]);
        let rt = Runtime::new(1);
        let report = solve_cubes_adaptive(&rt, &cnf, fixed_split(0));
        assert_eq!(report.attempts, 1);
        assert_eq!(report.result, SolveResult::Sat);
        assert!(report.ladder.is_empty());
    }

    /// PHP(n+1, n): small, UNSAT, and hard enough to generate conflicts.
    fn pigeonhole(holes: usize) -> CnfFormula {
        let pigeons = holes + 1;
        let mut cnf = CnfFormula::new();
        let vars: Vec<Vec<Var>> = (0..pigeons)
            .map(|_| (0..holes).map(|_| cnf.new_var()).collect())
            .collect();
        for p in &vars {
            cnf.add_clause(p.iter().map(|v| v.lit(true)));
        }
        for (p1, row1) in vars.iter().enumerate() {
            for row2 in &vars[p1 + 1..] {
                for (a, b) in row1.iter().zip(row2) {
                    cnf.add_clause([a.lit(false), b.lit(false)]);
                }
            }
        }
        cnf
    }

    #[test]
    fn adaptive_cubes_agree_with_sequential() {
        let unsat = pigeonhole(5);
        let rt = Runtime::new(2);
        let report = solve_cubes_adaptive(&rt, &unsat, AdaptiveCubeConfig::default());
        assert_eq!(report.result, SolveResult::Unsat);
        assert_eq!(report.result, unsat.to_solver().solve());
        assert_eq!(report.cancelled, 0, "UNSAT runs cancel nothing");
        assert_eq!(
            report.resolved_in_budget + report.resplit,
            report.attempts,
            "every attempt either resolves or re-splits"
        );

        let mut sat = CnfFormula::new();
        let v = sat.new_vars(4);
        sat.add_clause([v[0].positive(), v[1].positive()]);
        sat.add_clause([v[2].negative(), v[3].positive()]);
        let report = solve_cubes_adaptive(&rt, &sat, AdaptiveCubeConfig::default());
        assert_eq!(report.result, SolveResult::Sat);
        assert!(report.sat_cube.is_some());
    }

    #[test]
    fn adaptive_cubes_resplit_under_a_tiny_budget() {
        // With a 1-conflict budget on a hard instance, shallow cubes must
        // exhaust and re-split until the depth cap lifts the budget.
        let cnf = pigeonhole(6);
        let rt = Runtime::new(2);
        let config = AdaptiveCubeConfig {
            initial_split: 1,
            conflict_budget: 1,
            max_split: 3,
        };
        let report = solve_cubes_adaptive(&rt, &cnf, config);
        assert_eq!(report.result, SolveResult::Unsat);
        assert!(report.resplit > 0, "tiny budgets force re-splitting");
        assert!(report.max_depth > 1);
        assert!(report.attempts > 2);
    }

    #[test]
    fn adaptive_cube_accounting_is_thread_count_invariant_on_unsat() {
        let cnf = pigeonhole(5);
        let config = AdaptiveCubeConfig {
            initial_split: 2,
            conflict_budget: 50,
            max_split: 4,
        };
        let runs: Vec<AdaptiveCubeReport> = [1usize, 2, 8]
            .iter()
            .map(|&threads| solve_cubes_adaptive(&Runtime::new(threads), &cnf, config))
            .collect();
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[0], runs[2]);
        assert_eq!(runs[0].result, SolveResult::Unsat);
    }
}
