//! E3 — Result 1: the policy-combination matrix, with cross-engine checks.

use mca_core::checker::{check_consensus, CheckerOptions};
use mca_core::scenarios::{self, PolicyCell};
use mca_core::Network;
use mca_verify::analysis::run_policy_matrix;

#[test]
fn matrix_matches_result_1() {
    let rows = run_policy_matrix(1, None);
    assert_eq!(rows.len(), 4);
    for row in &rows {
        assert!(row.matches_paper(), "cell mismatch: {row}");
    }
    // Result 1 verbatim: "MCA always reaches consensus, except when the
    // utility function policy p_u is set to non sub-modular, and the agents
    // release (and rebid) all subsequent items to an outbid item".
    let failing: Vec<_> = rows.iter().filter(|r| !r.checker_converges).collect();
    assert_eq!(failing.len(), 1);
    assert!(!failing[0].cell.submodular);
    assert!(failing[0].cell.release_outbid);
}

#[test]
fn matrix_holds_at_a_larger_compliant_scope() {
    // Sub-modular policies converge on richer networks too (line of 3).
    for seed in [1, 9] {
        let sim = scenarios::compliant(Network::line(3), 2, seed);
        let verdict = check_consensus(sim, CheckerOptions::default());
        assert!(verdict.converges(), "seed {seed}: {verdict:?}");
    }
}

#[test]
fn failing_cell_is_existential_not_universal() {
    // Result 1 is an existential failure claim: the (non-sub-modular,
    // release) combination admits instances that never converge — it does
    // not say every such instance diverges. Random growing-utility
    // instances lack Figure 2's symmetric contention and converge fine.
    for seed in [1, 2] {
        let sim = scenarios::growing(Network::line(3), 2, seed, true);
        let verdict = check_consensus(sim, CheckerOptions::default());
        assert!(
            verdict.converges(),
            "random instance should converge (seed {seed}): {verdict:?}"
        );
    }
}

#[test]
fn growing_without_release_converges() {
    // The non-sub-modular utility alone (release disabled) is safe.
    for seed in [1, 2, 3] {
        let sim = scenarios::growing(Network::complete(2), 2, seed, false);
        let verdict = check_consensus(sim, CheckerOptions::default());
        assert!(verdict.converges(), "seed {seed}: {verdict:?}");
    }
}

#[test]
fn fig2_verdicts_are_stable_across_bound_slack() {
    // The failing cell fails and the passing cells pass regardless of how
    // generous the exploration bound is (no bound-tuning artifacts).
    for slack in [4, 6, 10] {
        for cell in PolicyCell::grid() {
            let verdict = check_consensus(
                scenarios::fig2(cell),
                CheckerOptions {
                    bound_slack: slack,
                    ..CheckerOptions::default()
                },
            );
            assert_eq!(
                verdict.converges(),
                cell.paper_says_converges(),
                "slack={slack} cell={cell:?}"
            );
        }
    }
}
