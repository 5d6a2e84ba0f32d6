//! Parallel experiment drivers: the sequential analyses of
//! [`crate::analysis`] fanned across an [`mca_runtime::Runtime`].
//!
//! Every driver here is **outcome-equivalent** to its sequential twin:
//! batch results come back in submission order, and each job builds its
//! own simulator/model from `Copy`/`Clone` scenario data (closures must be
//! `Send`; simulators and observers are not). Only the wall-clock column
//! differs between a 1-thread and an N-thread run. The
//! `runtime_determinism` integration test pins this.
//!
//! Job granularity is deliberately **coarse**: sub-millisecond cells are
//! grouped into multi-cell jobs (pairs for the Result-1 matrix, strided
//! chunks for the extended matrix) so queue hand-off does not dominate the
//! work — the failure mode `mca-bench repro why` flags as W001/W005.

use crate::analysis::{
    scale_sweep_at, scale_variant, verdict_detail, AttackReport, PolicyMatrixRow, ScaleRow,
    ScaleVariant, E8_VARIANTS,
};
use crate::dynamic_model::{ConsensusSweep, DynamicModel, DynamicScenario};
use crate::encoding::NumberEncoding;
use mca_core::checker::{check_consensus, CheckerOptions};
use mca_core::scenarios::{self, ExtendedPolicyCell, PolicyCell};
use mca_relalg::TranslateError;
use mca_runtime::Runtime;
use std::fmt;
use std::time::Instant;

/// E3 in parallel: the four Result-1 policy cells checked as **two jobs
/// of two cells each**. Per-cell checks run in well under a millisecond,
/// so one-cell jobs spend more wall clock in queue hand-off than in work
/// (the `repro why` W005 sub-millisecond-job diagnosis); pairing them
/// keeps each job above the scheduling noise floor while still using two
/// workers. Row order, verdicts, and details are identical to
/// [`crate::analysis::run_policy_matrix`]; only `secs` differs.
pub fn run_policy_matrix_parallel(rt: &Runtime) -> Vec<PolicyMatrixRow> {
    let check_cell = |cell: PolicyCell| {
        let start = Instant::now();
        let verdict = check_consensus(scenarios::fig2(cell), CheckerOptions::default());
        PolicyMatrixRow {
            cell,
            paper_converges: cell.paper_says_converges(),
            checker_converges: verdict.converges(),
            detail: verdict_detail(&verdict),
            secs: start.elapsed().as_secs_f64(),
        }
    };
    let jobs: Vec<(String, _)> = PolicyCell::grid()
        .chunks(2)
        .map(<[PolicyCell]>::to_vec)
        .enumerate()
        .map(|(i, chunk)| {
            (format!("e3:pair{i}"), move || {
                chunk.into_iter().map(check_cell).collect::<Vec<_>>()
            })
        })
        .collect();
    rt.run_batch(jobs).into_iter().flatten().collect()
}

/// One row of the extended 16-cell policy matrix (see
/// [`ExtendedPolicyCell`]): the Result-1 grid crossed with Remark-1
/// compliance and network topology.
#[derive(Clone, Debug)]
pub struct ExtendedMatrixRow {
    /// The policy/topology combination.
    pub cell: ExtendedPolicyCell,
    /// The prediction extrapolated from Results 1–2.
    pub paper_converges: bool,
    /// Whether the bounded synchronous run quiesced in consensus.
    pub sim_converges: bool,
    /// Synchronous rounds used (or where the round/message budget stopped
    /// a non-quiescing run).
    pub rounds: usize,
    /// Wall-clock seconds for the cell.
    pub secs: f64,
}

impl ExtendedMatrixRow {
    /// `true` if the simulation verdict matches the prediction.
    pub fn matches_paper(&self) -> bool {
        self.paper_converges == self.sim_converges
    }
}

impl fmt::Display for ExtendedMatrixRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "  {:<24} predicted: {:<12} simulated: {:<12} rounds={:<3} [{:.3}s] {}",
            self.cell.label(),
            if self.paper_converges {
                "consensus"
            } else {
                "no-consensus"
            },
            if self.sim_converges {
                "consensus"
            } else {
                "no-consensus"
            },
            self.rounds,
            self.secs,
            if self.matches_paper() { "✓" } else { "✗" },
        )
    }
}

/// Simulates one extended-matrix cell under the bounded synchronous
/// schedule shared by the sequential and parallel drivers.
fn extended_cell(cell: ExtendedPolicyCell) -> ExtendedMatrixRow {
    let start = Instant::now();
    // Budgeted: divergent cells re-broadcast every view change, so their
    // synchronous message volume grows geometrically with the round
    // number.
    let out = scenarios::extended(cell).run_synchronous_budgeted(64, 20_000);
    ExtendedMatrixRow {
        cell,
        paper_converges: cell.paper_says_converges(),
        sim_converges: out.converged,
        rounds: out.rounds,
        secs: start.elapsed().as_secs_f64(),
    }
}

/// The extended policy matrix, sequentially: all sixteen
/// [`ExtendedPolicyCell`]s simulated one after another in grid order.
/// This is the single-thread baseline that `mca-bench repro e3` times
/// against [`run_extended_policy_matrix`].
pub fn run_extended_policy_matrix_seq() -> Vec<ExtendedMatrixRow> {
    ExtendedPolicyCell::grid()
        .into_iter()
        .map(extended_cell)
        .collect()
}

/// The extended policy matrix in parallel: the sixteen
/// [`ExtendedPolicyCell`]s simulated under a bounded synchronous
/// schedule, fanned across the runtime's workers as `min(threads, 8)`
/// **strided chunks** rather than sixteen one-cell jobs. Per-cell
/// simulations vary from microseconds (fast-converging cells) to
/// milliseconds (budget-bound divergent cells); striding deals every
/// chunk a mix of both so chunks finish at similar times, and the
/// coarser granularity keeps each job above the queue hand-off noise
/// floor (`repro why` rules W001/W005). Rows come back in grid order.
pub fn run_extended_policy_matrix(rt: &Runtime) -> Vec<ExtendedMatrixRow> {
    let cells: Vec<ExtendedPolicyCell> = ExtendedPolicyCell::grid().into_iter().collect();
    let total = cells.len();
    let chunks = rt.threads().clamp(1, 8).min(total);
    let jobs: Vec<(String, _)> = (0..chunks)
        .map(|stride| {
            let mine: Vec<(usize, ExtendedPolicyCell)> = cells
                .iter()
                .copied()
                .enumerate()
                .skip(stride)
                .step_by(chunks)
                .collect();
            (format!("e3x:stride{stride}/{chunks}"), move || {
                mine.into_iter()
                    .map(|(index, cell)| (index, extended_cell(cell)))
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let mut rows: Vec<Option<ExtendedMatrixRow>> = (0..total).map(|_| None).collect();
    for (index, row) in rt.run_batch(jobs).into_iter().flatten() {
        rows[index] = Some(row);
    }
    rows.into_iter()
        .map(|row| row.expect("every grid cell simulated exactly once"))
        .collect()
}

/// The pieces of E4, computed as independent jobs.
enum AttackPiece {
    Explicit { converges: bool, detail: String },
    Sat { valid: bool },
}

/// E4 in parallel: the explicit-state check and the three SAT checks of
/// [`crate::analysis::run_rebid_attack`] run as four concurrent jobs.
/// The report is field-for-field identical to the sequential driver's.
pub fn run_rebid_attack_parallel(rt: &Runtime) -> AttackReport {
    type PieceJob = Box<dyn FnOnce() -> AttackPiece + Send>;
    let sat_piece = |encoding: NumberEncoding, scenario: DynamicScenario| -> PieceJob {
        Box::new(move || AttackPiece::Sat {
            valid: DynamicModel::build(encoding, scenario)
                .check_consensus()
                .expect("well-formed model")
                .result
                .is_valid(),
        })
    };
    let jobs: Vec<(String, PieceJob)> = vec![
        (
            "e4:explicit".into(),
            Box::new(|| {
                let verdict =
                    check_consensus(scenarios::rebid_attack(2, 2), CheckerOptions::default());
                AttackPiece::Explicit {
                    converges: verdict.converges(),
                    detail: verdict_detail(&verdict),
                }
            }),
        ),
        (
            "e4:sat-naive".into(),
            sat_piece(
                NumberEncoding::NaiveInt,
                DynamicScenario::two_agent_rebid_attack(),
            ),
        ),
        (
            "e4:sat-optimized".into(),
            sat_piece(
                NumberEncoding::OptimizedValue,
                DynamicScenario::two_agent_rebid_attack(),
            ),
        ),
        (
            "e4:sat-compliant".into(),
            sat_piece(
                NumberEncoding::OptimizedValue,
                DynamicScenario::two_agent_compliant(),
            ),
        ),
    ];
    let mut pieces = rt.run_batch(jobs).into_iter();
    let AttackPiece::Explicit { converges, detail } =
        pieces.next().expect("explicit piece present")
    else {
        unreachable!("job 0 is the explicit check")
    };
    let mut sat = pieces.map(|p| match p {
        AttackPiece::Sat { valid } => valid,
        AttackPiece::Explicit { .. } => unreachable!("jobs 1-3 are SAT checks"),
    });
    AttackReport {
        explicit_converges: converges,
        explicit_detail: detail,
        sat_naive_valid: sat.next().expect("naive piece"),
        sat_optimized_valid: sat.next().expect("optimized piece"),
        sat_compliant_valid: sat.next().expect("compliant piece"),
    }
}

/// One piece of an E8 scope, computed as an independent job.
enum ScalePiece {
    Variant(Result<ScaleVariant, TranslateError>),
    Sweep(Result<(ConsensusSweep, f64), TranslateError>),
}

/// E8 in parallel: every (scope, variant) cell and every per-scope
/// incremental sweep becomes one job in the runtime's batch pool —
/// `|scopes| × 4` jobs in total, labelled `e8:<scope>:<variant>` and
/// `e8:<scope>:sweep`. Rows come back in scope order and are
/// field-for-field identical to [`crate::analysis::run_scale_sweep`]
/// apart from the wall-clock columns.
///
/// # Errors
///
/// Propagates the first translation error of any cell.
pub fn run_scale_sweep_parallel(
    rt: &Runtime,
    scopes: &[(usize, usize)],
) -> Result<Vec<ScaleRow>, TranslateError> {
    type PieceJob = Box<dyn FnOnce() -> ScalePiece + Send>;
    let mut jobs: Vec<(String, PieceJob)> = Vec::new();
    for &(p, v) in scopes {
        for (label, encoding, preprocess) in E8_VARIANTS {
            jobs.push((
                format!("e8:{p}x{v}:{label}"),
                Box::new(move || {
                    ScalePiece::Variant(scale_variant(p, v, label, encoding, preprocess, None))
                }),
            ));
        }
        jobs.push((
            format!("e8:{p}x{v}:sweep"),
            Box::new(move || ScalePiece::Sweep(scale_sweep_at(p, v, None))),
        ));
    }
    let mut pieces = rt.run_batch(jobs).into_iter();
    let mut rows = Vec::with_capacity(scopes.len());
    for &(p, v) in scopes {
        let scenario = DynamicScenario::at_scope(p, v);
        let mut variants = Vec::with_capacity(E8_VARIANTS.len());
        for _ in E8_VARIANTS {
            match pieces.next().expect("one piece per variant") {
                ScalePiece::Variant(r) => variants.push(r?),
                ScalePiece::Sweep(_) => unreachable!("variant pieces precede the sweep"),
            }
        }
        let (sweep, sweep_secs) = match pieces.next().expect("one sweep piece per scope") {
            ScalePiece::Sweep(r) => r?,
            ScalePiece::Variant(_) => unreachable!("the sweep piece closes a scope"),
        };
        rows.push(ScaleRow {
            scope: scenario.scope_label(),
            pnodes: p,
            vnodes: v,
            states: scenario.states,
            variants,
            sweep,
            sweep_secs,
        });
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{run_policy_matrix, run_rebid_attack};

    #[test]
    fn parallel_policy_matrix_matches_sequential() {
        let rt = Runtime::new(2);
        let par = run_policy_matrix_parallel(&rt);
        let seq = run_policy_matrix(None, None);
        assert_eq!(par.len(), seq.len());
        for (p, s) in par.iter().zip(&seq) {
            assert_eq!(p.cell, s.cell);
            assert_eq!(p.paper_converges, s.paper_converges);
            assert_eq!(p.checker_converges, s.checker_converges);
            assert_eq!(p.detail, s.detail);
        }
    }

    #[test]
    fn parallel_rebid_attack_matches_sequential() {
        let rt = Runtime::new(2);
        let par = run_rebid_attack_parallel(&rt);
        let seq = run_rebid_attack();
        assert_eq!(par.explicit_converges, seq.explicit_converges);
        assert_eq!(par.explicit_detail, seq.explicit_detail);
        assert_eq!(par.sat_naive_valid, seq.sat_naive_valid);
        assert_eq!(par.sat_optimized_valid, seq.sat_optimized_valid);
        assert_eq!(par.sat_compliant_valid, seq.sat_compliant_valid);
        assert!(par.matches_paper());
    }

    #[test]
    fn extended_matrix_has_sixteen_deterministic_rows() {
        let rt = Runtime::new(2);
        let a = run_extended_policy_matrix(&rt);
        let b = run_extended_policy_matrix(&rt);
        assert_eq!(a.len(), 16);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.cell, y.cell);
            assert_eq!(x.sim_converges, y.sim_converges);
            assert_eq!(x.rounds, y.rounds);
        }
        // Compliant sub-modular cells must satisfy the paper's prediction.
        for row in &a {
            if row.cell.submodular && !row.cell.rebid {
                assert!(row.matches_paper(), "unexpected verdict: {row}");
            }
        }
    }

    #[test]
    fn chunked_extended_matrix_matches_sequential_in_grid_order() {
        // Strided chunking must scatter rows back into exact grid order,
        // at every chunk count the thread clamp can produce.
        let seq = run_extended_policy_matrix_seq();
        assert_eq!(seq.len(), 16);
        for threads in [1, 3, 8, 16] {
            let rt = Runtime::new(threads);
            let par = run_extended_policy_matrix(&rt);
            assert_eq!(par.len(), seq.len());
            for (p, s) in par.iter().zip(&seq) {
                assert_eq!(p.cell, s.cell, "grid order broken at {threads} threads");
                assert_eq!(p.sim_converges, s.sim_converges);
                assert_eq!(p.rounds, s.rounds);
            }
        }
    }

    #[test]
    fn parallel_scale_sweep_matches_sequential() {
        let rt = Runtime::new(2);
        let par = run_scale_sweep_parallel(&rt, &[(2, 2)]).expect("parallel sweep");
        let seq =
            crate::analysis::run_scale_sweep(&[(2, 2)], None, None).expect("sequential sweep");
        assert_eq!(par.len(), seq.len());
        for (p, s) in par.iter().zip(&seq) {
            assert_eq!(p.scope, s.scope);
            assert_eq!(p.states, s.states);
            assert!(p.verdicts_agree(), "parallel verdict mismatch: {p}");
            for (pv, sv) in p.variants.iter().zip(&s.variants) {
                assert_eq!(pv.variant, sv.variant);
                assert_eq!(pv.valid, sv.valid);
                assert_eq!(pv.stats.cnf_clauses, sv.stats.cnf_clauses);
            }
            assert_eq!(p.sweep.per_state, s.sweep.per_state);
            assert_eq!(p.sweep.valid_from, s.sweep.valid_from);
        }
    }
}
