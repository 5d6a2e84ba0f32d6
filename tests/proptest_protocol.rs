//! Property-based tests of the MCA protocol's core guarantees.

use mca_core::{
    allocation, conflict_free, consensus_predicate, FaultPlan, ItemId, Network, Policy,
    PositionUtility, Simulator,
};
use proptest::prelude::*;
use std::sync::Arc;

/// Strategy: a small compliant configuration — n agents, m items, random
/// positive sub-modular utilities (non-increasing position values).
fn arb_config() -> impl Strategy<Value = (usize, usize, Vec<Vec<Vec<i64>>>)> {
    (2usize..5, 1usize..4).prop_flat_map(|(n, m)| {
        let per_agent = proptest::collection::vec(proptest::collection::vec(1i64..40, m), n);
        per_agent.prop_map(move |bases| {
            // Values per position: base, base/2, base/4 … (sub-modular).
            let tables: Vec<Vec<Vec<i64>>> = bases
                .into_iter()
                .map(|agent_bases| {
                    agent_bases
                        .into_iter()
                        .map(|b| (0..m).map(|p| (b >> p).max(1)).collect())
                        .collect()
                })
                .collect();
            (n, m, tables)
        })
    })
}

fn build_sim(n: usize, m: usize, tables: &[Vec<Vec<i64>>], topology: usize) -> Simulator {
    let network = match topology % 3 {
        0 => Network::complete(n),
        1 => Network::line(n),
        _ => {
            if n >= 3 {
                Network::ring(n)
            } else {
                Network::complete(n)
            }
        }
    };
    let policies: Vec<Policy> = tables
        .iter()
        .map(|per_item| {
            let values: Vec<(ItemId, Vec<i64>)> = per_item
                .iter()
                .enumerate()
                .map(|(j, positions)| (ItemId(j as u32), positions.clone()))
                .collect();
            Policy::new(Arc::new(PositionUtility::new(values)), m)
        })
        .collect();
    Simulator::new(network, m, policies)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Compliant (sub-modular, honest, no-release) configurations always
    /// converge to a conflict-free consensus under synchronous rounds.
    #[test]
    fn compliant_configurations_converge((n, m, tables) in arb_config(), topo in 0usize..3) {
        let mut sim = build_sim(n, m, &tables, topo);
        let out = sim.run_synchronous(512);
        prop_assert!(out.converged, "must converge");
        prop_assert!(consensus_predicate(sim.agents()));
        prop_assert!(conflict_free(sim.agents()));
        // Every item got assigned: every agent bids on every item.
        prop_assert_eq!(out.allocation.len(), m);
    }

    /// The final allocation is schedule-independent: synchronous rounds and
    /// random asynchronous schedules agree.
    #[test]
    fn allocation_is_schedule_independent((n, m, tables) in arb_config(), seed in 0u64..1000) {
        let mut sync = build_sim(n, m, &tables, 0);
        let sync_out = sync.run_synchronous(512);
        prop_assert!(sync_out.converged);

        let mut async_sim = build_sim(n, m, &tables, 0);
        let async_out = async_sim.run_async(seed, 100_000, FaultPlan::default());
        prop_assert!(async_out.converged, "async run must converge");
        prop_assert_eq!(&sync_out.allocation, &async_out.allocation,
            "allocations must agree across schedules");
    }

    /// Message duplication cannot corrupt the outcome (idempotent fusion).
    #[test]
    fn duplication_is_harmless((n, m, tables) in arb_config(), seed in 0u64..200) {
        let mut clean = build_sim(n, m, &tables, 0);
        let clean_out = clean.run_async(seed, 100_000, FaultPlan::default());
        let mut dup = build_sim(n, m, &tables, 0);
        let dup_out = dup.run_async(seed, 200_000, FaultPlan {
            drop_probability: 0.0,
            duplicate_probability: 0.25,
        });
        prop_assert!(dup_out.converged);
        prop_assert_eq!(&clean_out.allocation, &dup_out.allocation);
    }

    /// Winning bids are *authentic*: the consensus bid for each item is a
    /// value from the winner's own utility table for that item (no bid is
    /// invented by fusion). Note the bid reflects the item's bundle
    /// position *at bid time*; without the release policy it may be stale
    /// relative to the final bundle — exactly the Remark-2 observation.
    #[test]
    fn winning_bids_are_authentic((n, m, tables) in arb_config()) {
        let mut sim = build_sim(n, m, &tables, 0);
        let out = sim.run_synchronous(512);
        prop_assert!(out.converged);
        let agents = sim.agents();
        for (item, winner) in allocation(agents) {
            let winning_bid = agents[0].claims()[item.index()].bid;
            let w = &agents[winner.index()];
            prop_assert!(
                w.bundle().contains(&item),
                "the consensus winner holds the item in its bundle"
            );
            let table = &tables[winner.index()][item.index()];
            prop_assert!(
                table.contains(&winning_bid),
                "item {}: bid {} not in the winner's table {:?}",
                item, winning_bid, table
            );
        }
    }

    /// Total utility (sum of winning bids) is invariant across schedules —
    /// a consequence of schedule independence, stated on the Pareto
    /// objective the paper's agents cooperate on.
    #[test]
    fn network_utility_is_schedule_invariant((n, m, tables) in arb_config(),
                                             seed in 0u64..100) {
        let mut a = build_sim(n, m, &tables, 0);
        let oa = a.run_synchronous(512);
        let mut b = build_sim(n, m, &tables, 0);
        let ob = b.run_async(seed, 100_000, FaultPlan::default());
        prop_assert!(oa.converged && ob.converged);
        let utility = |sim: &Simulator| -> i64 {
            sim.agents()[0].claims().iter().map(|c| c.bid).sum()
        };
        prop_assert_eq!(utility(&a), utility(&b));
    }
}

// --------------------------------------------------------------------------
// Pinned regressions.
//
// `proptest_protocol.proptest-regressions` records two historical failures
// of `winning_bids_are_authentic` (the only property whose shrunk input is
// a bare `(n, m, tables)` triple). Both pin the same bug class: with two
// agents and two items whose second-position values collapse under the
// sub-modular halving (e.g. bases 33/16 vs 30/15), the consensus bid for an
// item could be a *stale* bundle-position value that appeared in no
// agent's utility table — fusion invented a bid instead of forwarding one.
//
// The vendored `proptest` stub under compat/ cannot replay the opaque `cc`
// seed hashes in that file, so the shrunk cases are pinned verbatim here as
// plain tests; they run on every `cargo test` regardless of RNG.

/// Re-asserts the `winning_bids_are_authentic` property (plus convergence
/// and conflict-freedom) on one concrete configuration.
fn assert_authentic_on(n: usize, m: usize, tables: &[Vec<Vec<i64>>]) {
    let mut sim = build_sim(n, m, tables, 0);
    let out = sim.run_synchronous(512);
    assert!(out.converged, "pinned case must converge");
    assert!(consensus_predicate(sim.agents()));
    assert!(conflict_free(sim.agents()));
    let agents = sim.agents();
    for (item, winner) in allocation(agents) {
        let winning_bid = agents[0].claims()[item.index()].bid;
        let table = &tables[winner.index()][item.index()];
        assert!(
            table.contains(&winning_bid),
            "item {item}: bid {winning_bid} not in the winner's table {table:?}"
        );
    }
}

#[test]
fn regression_stale_bid_33_16() {
    // cc e479eea4… — shrinks to (2, 2, [[[33, 16], [1, 1]], [[30, 15], [2, 1]]])
    assert_authentic_on(
        2,
        2,
        &[
            vec![vec![33, 16], vec![1, 1]],
            vec![vec![30, 15], vec![2, 1]],
        ],
    );
}

#[test]
fn regression_stale_bid_22_11() {
    // cc 07cdd2c2… — shrinks to (2, 2, [[[22, 11], [2, 1]], [[23, 11], [1, 1]]])
    assert_authentic_on(
        2,
        2,
        &[
            vec![vec![22, 11], vec![2, 1]],
            vec![vec![23, 11], vec![1, 1]],
        ],
    );
}

/// Re-checks one pinned regression's bid profile through the SAT engine's
/// *assumption-enabled* solve path: the consensus CNF must get the same
/// verdict from `solve()` and from `solve_with_assumptions` on a fresh,
/// unconstrained literal, so the search runs above an assumption level,
/// and that verdict must agree with `check_consensus`. Guards the
/// assumption-prefix machinery (the pseudo-decision levels, and restarts
/// held back until the search is above them) against divergence from the
/// plain search loop.
fn assert_assumption_path_agrees(bids: Vec<Vec<i64>>) {
    use mca_sat::SolveResult;
    use mca_verify::{DynamicModel, DynamicScenario, NumberEncoding};
    let scenario = DynamicScenario {
        pnodes: 2,
        vnodes: 2,
        states: 5,
        bids,
        links: vec![(0, 1)],
        attackers: Vec::new(),
    };
    let model = DynamicModel::build(NumberEncoding::OptimizedValue, scenario);
    let cnf = model.consensus_cnf().expect("well-formed model");
    let plain = cnf.to_solver().solve();
    let mut solver = cnf.to_solver();
    let fresh = solver.new_var().positive();
    let under_assumptions = solver.solve_with_assumptions(&[fresh]);
    assert_eq!(plain, under_assumptions, "solve paths disagree");
    let valid = model
        .check_consensus()
        .expect("well-formed model")
        .result
        .is_valid();
    assert_eq!(valid, plain == SolveResult::Unsat, "verdict mapping broken");
}

#[test]
fn regression_33_16_verdict_survives_assumption_path() {
    // First-position bids of the 33/16 pinned case above.
    assert_assumption_path_agrees(vec![vec![33, 1], vec![30, 2]]);
}

#[test]
fn regression_22_11_verdict_survives_assumption_path() {
    // First-position bids of the 22/11 pinned case above.
    assert_assumption_path_agrees(vec![vec![22, 2], vec![23, 1]]);
}
