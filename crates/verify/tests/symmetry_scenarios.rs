//! Symmetry detection and symmetry-breaking soundness on the shipped
//! scenarios.
//!
//! Two families of pins:
//!
//! * **Detection** — the bounds-level base partition finds the orbits the
//!   paper scopes actually have (acceptance: ≥ 2 nontrivial classes on
//!   the paper-scope dynamic scenario under the naive encoding).
//! * **Preservation** — every shipped scenario solved with SBPs on
//!   agrees bit-for-bit with SBPs off, SAT witnesses found under SBPs
//!   satisfy the original (unaugmented) formula via the independent
//!   evaluator, and block-decomposed solving agrees with direct solving
//!   at 1, 2, and 8 threads.

use mca_relalg::{Evaluator, SbpConfig, SymmetryAnalysis, TranslateOpts};
use mca_sat::blocks::{solve_blocks, BlockOutcome};
use mca_sat::{SolveResult, Solver};
use mca_verify::{DynamicModel, DynamicScenario, NumberEncoding};

/// Acceptance pin: symmetry detection finds at least two nontrivial
/// interchangeability classes on the paper-scope dynamic scenario. Under
/// the naive encoding both the two item atoms and the `Int` atoms share
/// all bounds (facts separate the `Int`s — the base partition is
/// deliberately bounds-level; see `SymmetryAnalysis` docs).
#[test]
fn paper_scope_has_at_least_two_nontrivial_classes() {
    let model = DynamicModel::build(NumberEncoding::NaiveInt, DynamicScenario::paper_scope());
    let problem = model.model().to_problem();
    let analysis = SymmetryAnalysis::analyze(&problem);
    let nontrivial: Vec<_> = analysis.nontrivial_classes().collect();
    assert!(
        nontrivial.len() >= 2,
        "expected >= 2 nontrivial classes, found {}: {:?}",
        nontrivial.len(),
        nontrivial
    );
    assert!(analysis.orbit_reduction_log2() > 0.0);
}

fn shipped_scenarios() -> Vec<(&'static str, DynamicScenario)> {
    vec![
        (
            "two_agent_compliant",
            DynamicScenario::two_agent_compliant(),
        ),
        (
            "two_agent_rebid_attack",
            DynamicScenario::two_agent_rebid_attack(),
        ),
        ("paper_scope", DynamicScenario::paper_scope()),
        (
            "three_agent_line_compliant",
            DynamicScenario::three_agent_line_compliant(),
        ),
        ("symmetric_2x2", DynamicScenario::at_scope_symmetric(2, 2)),
    ]
}

/// Verdict preservation: SBPs on vs off agree bit-for-bit on every
/// shipped scenario. Both encodings everywhere except the three-agent
/// line, whose naive-encoding checks cost ~40 s apiece — it runs under
/// the optimized encoding only (the naive translation path is already
/// covered by the smaller scenarios).
#[test]
fn sbp_verdicts_match_plain_verdicts_on_all_scenarios() {
    for (name, scenario) in shipped_scenarios() {
        let encodings: &[NumberEncoding] = if name == "three_agent_line_compliant" {
            &[NumberEncoding::OptimizedValue]
        } else {
            &[NumberEncoding::NaiveInt, NumberEncoding::OptimizedValue]
        };
        for &encoding in encodings {
            let model = DynamicModel::build(encoding, scenario.clone());
            let plain = model
                .check_consensus_opts(false, None, None)
                .expect("plain check");
            let sbp = model
                .check_consensus_opts(false, Some(&SbpConfig::default()), None)
                .expect("sbp check");
            assert_eq!(
                plain.valid, sbp.valid,
                "{name}/{encoding:?}: SBP changed the verdict"
            );
            assert_eq!(
                plain.vacuous, sbp.vacuous,
                "{name}/{encoding:?}: SBP changed vacuity"
            );
        }
    }
}

/// A SAT witness found under SBPs must satisfy the *original* formula:
/// every fact plus the negated assertion, re-evaluated by the
/// independent ground evaluator (the `translator_vs_evaluator` pattern).
#[test]
fn sbp_witnesses_satisfy_the_original_formula() {
    // paper_scope is refutable — a counterexample (SAT witness) exists.
    for encoding in [NumberEncoding::NaiveInt, NumberEncoding::OptimizedValue] {
        let model = DynamicModel::build(encoding, DynamicScenario::paper_scope());
        let problem = model.model().to_problem();
        let assertion = model.consensus_assertion();
        let opts = TranslateOpts {
            sbp: Some(SbpConfig::default()),
            sbp_hints: model.symmetry_hints(),
        };
        let mut inc = problem
            .incremental_checker(std::slice::from_ref(&assertion), false, &opts)
            .expect("translates");
        let check = inc.check(0);
        let witness = check.counterexample().expect("paper_scope is refutable");
        let mut ev = Evaluator::new(problem.universe(), witness);
        for fact in problem.facts() {
            assert!(
                ev.formula(fact).expect("well-formed fact"),
                "{encoding:?}: witness violates a fact of the original formula"
            );
        }
        assert!(
            ev.formula(&assertion.not()).expect("well-formed assertion"),
            "{encoding:?}: witness does not refute the assertion"
        );
    }
}

/// The symmetric workload's hint permutations survive validation and
/// produce predicates under the optimized encoding (where the base
/// partition alone is trivial — constant cell fields pin every atom).
#[test]
fn symmetric_scenario_hints_produce_predicates() {
    let model = DynamicModel::build(
        NumberEncoding::OptimizedValue,
        DynamicScenario::at_scope_symmetric(2, 2),
    );
    assert_eq!(model.symmetry_hints().len(), 1, "one item pair at 2x2");
    let sbp = model
        .check_consensus_opts(false, Some(&SbpConfig::default()), None)
        .expect("sbp check");
    assert!(
        sbp.stats.sbp_predicates > 0,
        "hint permutation was rejected: {:?}",
        sbp.stats
    );
    assert!(sbp.valid, "symmetric 2x2 consensus is valid");
    assert!(!sbp.vacuous);
}

/// The standard (asymmetric-bid) scale scenario offers no identical bid
/// columns, so no hints — and SBP must quietly do nothing harmful.
#[test]
fn asymmetric_scenario_has_no_item_hints() {
    let model = DynamicModel::build(
        NumberEncoding::OptimizedValue,
        DynamicScenario::at_scope(2, 2),
    );
    assert!(model.symmetry_hints().is_empty());
    let plain = model
        .check_consensus_opts(false, None, None)
        .expect("plain");
    let sbp = model
        .check_consensus_opts(false, Some(&SbpConfig::default()), None)
        .expect("sbp");
    assert_eq!(plain.valid, sbp.valid);
}

/// Block-decomposed solving agrees with direct solving on a shipped
/// consensus CNF, sequentially and on the pool at 1, 2, and 8 threads.
#[test]
fn block_solving_matches_direct_solve_on_shipped_cnf() {
    for scenario in [
        DynamicScenario::two_agent_compliant(),
        DynamicScenario::paper_scope(),
    ] {
        let model = DynamicModel::build(NumberEncoding::OptimizedValue, scenario);
        let cnf = model.consensus_cnf().expect("translates");
        let mut direct = Solver::new();
        direct.new_vars(cnf.num_vars());
        for c in cnf.clauses() {
            direct.add_clause(c.iter().copied());
        }
        let direct_sat = direct.solve() == SolveResult::Sat;
        let sequential = solve_blocks(&cnf);
        assert_eq!(
            sequential.is_sat(),
            direct_sat,
            "sequential blocks diverged"
        );
        if let BlockOutcome::Sat(assignment) = &sequential {
            for clause in cnf.clauses() {
                assert!(clause
                    .iter()
                    .any(|lit| assignment[lit.var().index()] == lit.is_positive()));
            }
        }
        for threads in [1, 2, 8] {
            let rt = mca_runtime::Runtime::new(threads);
            let par = mca_runtime::solve_blocks_parallel(&rt, &cnf);
            assert_eq!(
                par.outcome.is_sat(),
                direct_sat,
                "threads={threads}: parallel blocks diverged"
            );
        }
    }
}
