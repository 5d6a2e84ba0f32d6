//! E4 — Result 2: the rebidding attack breaks consensus, verified by both
//! the SAT pipeline and the explicit-state checker.

use mca_core::checker::{check_consensus, CheckerOptions};
use mca_core::scenarios;
use mca_verify::analysis::run_rebid_attack;
use mca_verify::{DynamicModel, DynamicScenario, NumberEncoding};

#[test]
fn both_engines_agree_with_result_2() {
    let report = run_rebid_attack(1, None);
    assert!(report.matches_paper(), "{report}");
    assert!(!report.explicit_converges);
    assert!(!report.sat_naive_valid);
    assert!(!report.sat_optimized_valid);
    assert!(report.sat_compliant_valid);
}

#[test]
fn bid_wars_between_attackers_never_converge() {
    for (agents, malicious) in [(2, 2), (3, 2), (3, 3)] {
        let verdict = check_consensus(
            scenarios::rebid_attack(agents, malicious),
            CheckerOptions::default(),
        );
        assert!(
            !verdict.converges(),
            "{malicious}/{agents} attackers must break consensus: {verdict:?}"
        );
        assert!(verdict.trace().is_some(), "counterexample trace expected");
    }
}

#[test]
fn single_attacker_corrupts_the_allocation() {
    // One escalating attacker among honest agents does not produce
    // divergence — it simply steals the item by rebidding past the honest
    // maximum (the other face of the paper's "not resilient to rebidding
    // attacks"). Agent 2 has the highest true utility (12 > 10), yet the
    // malicious agent 0 ends up winning.
    let mut sim = scenarios::rebid_attack(3, 1);
    let out = sim.run_synchronous(128);
    assert!(out.converged, "single-attacker run converges");
    let winner = out.allocation[&mca_core::ItemId(0)];
    assert_eq!(winner, mca_core::AgentId(0), "the attacker steals the item");
    let final_bid = sim.agents()[0].claims()[0].bid;
    assert!(
        final_bid > 12,
        "the stolen price exceeds every honest valuation (got {final_bid})"
    );
}

#[test]
fn no_attackers_means_convergence() {
    for agents in [2, 3] {
        let verdict = check_consensus(
            scenarios::rebid_attack(agents, 0),
            CheckerOptions::default(),
        );
        assert!(verdict.converges(), "honest agents converge ({agents})");
    }
}

#[test]
fn sat_counterexample_contains_an_attack_state() {
    let dm = DynamicModel::build(
        NumberEncoding::OptimizedValue,
        DynamicScenario::two_agent_rebid_attack(),
    );
    let out = dm.check_consensus().expect("well-formed model");
    let cx = out
        .result
        .counterexample()
        .expect("Result 2: counterexample");
    // The counterexample is a full relational instance; sanity-check it is
    // printable through the model.
    let shown = dm.model().show_instance(cx);
    assert!(shown.contains("buffMsgs"));
    assert!(shown.contains("cellWinner"));
}

#[test]
fn sat_attack_counterexample_in_naive_encoding_too() {
    let dm = DynamicModel::build(
        NumberEncoding::NaiveInt,
        DynamicScenario::two_agent_rebid_attack(),
    );
    let out = dm.check_consensus().expect("well-formed model");
    assert!(!out.result.is_valid());
    let cx = out.result.counterexample().expect("counterexample");
    let shown = dm.model().show_instance(cx);
    assert!(shown.contains("winner"));
}
