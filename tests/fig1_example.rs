//! E1 — the paper's Figure 1 / Example 1, end to end.
//!
//! Two agents independently bid on three items (A, B, C) with
//! `b1 = (10, –, 30)` and `b2 = (20, 15, –)`; after one exchange both hold
//! `b = (20, 15, 30)` and `a = (agent2, agent2, agent1)`.

use mca_core::checker::{check_consensus, CheckerOptions};
use mca_core::{scenarios, AgentId, FaultPlan, ItemId};
use mca_verify::analysis::run_fig1;

#[test]
fn figure1_vectors_match_the_paper() {
    let report = run_fig1(None);
    assert!(report.converged);
    assert_eq!(report.final_bids, vec![20, 15, 30]);
    // 0-based agents: the paper's agent 2 is index 1, agent 1 is index 0.
    assert_eq!(report.winners, vec![1, 1, 0]);
}

#[test]
fn figure1_both_agents_agree_exactly() {
    let mut sim = scenarios::fig1();
    let out = sim.run_synchronous(16);
    assert!(out.converged);
    let [a0, a1] = sim.agents() else {
        panic!("two agents expected")
    };
    for (c0, c1) in a0.claims().iter().zip(a1.claims()) {
        assert_eq!(c0.winner, c1.winner);
        assert_eq!(c0.bid, c1.bid);
    }
    // Bundles are disjoint and cover what each believes it won.
    assert_eq!(a0.bundle(), &[ItemId(2)]);
    let mut b1 = a1.bundle().to_vec();
    b1.sort_unstable();
    assert_eq!(b1, vec![ItemId(0), ItemId(1)]);
}

#[test]
fn figure1_is_schedule_independent() {
    // The checker explores *every* asynchronous schedule.
    let verdict = check_consensus(scenarios::fig1(), CheckerOptions::default());
    assert!(verdict.converges(), "{verdict:?}");
    // And random schedules agree on the final allocation.
    for seed in 0..25 {
        let mut sim = scenarios::fig1();
        let out = sim.run_async(seed, 2000, FaultPlan::default());
        assert!(out.converged, "seed {seed}");
        assert_eq!(out.allocation[&ItemId(0)], AgentId(1));
        assert_eq!(out.allocation[&ItemId(1)], AgentId(1));
        assert_eq!(out.allocation[&ItemId(2)], AgentId(0));
    }
}

#[test]
fn figure1_third_agent_learns_the_consensus() {
    // "An additional agent 3, connected to agent 1 but not agent 2, would
    // receive the maximum bid so far on each item, as well as the latest
    // allocation vector" (Example 1).
    use mca_core::{Network, Policy, PositionUtility, Simulator};
    use std::sync::Arc;

    let mut network = Network::new(3);
    network.add_link(AgentId(0), AgentId(1));
    network.add_link(AgentId(0), AgentId(2)); // agent 3 sees only agent 1
    let p0 = Policy::new(
        Arc::new(PositionUtility::new(vec![
            (ItemId(0), vec![10]),
            (ItemId(2), vec![30]),
        ])),
        2,
    );
    let p1 = Policy::new(
        Arc::new(PositionUtility::new(vec![
            (ItemId(0), vec![20]),
            (ItemId(1), vec![15]),
        ])),
        2,
    );
    // Agent 3 bids on nothing.
    let p2 = Policy::new(Arc::new(PositionUtility::new(vec![])), 0);
    let mut sim = Simulator::new(network, 3, vec![p0, p1, p2]);
    let out = sim.run_synchronous(32);
    assert!(out.converged);
    let third = &sim.agents()[2];
    let bids: Vec<i64> = third.claims().iter().map(|c| c.bid).collect();
    assert_eq!(bids, vec![20, 15, 30], "agent 3 holds the max bids");
    assert_eq!(third.claims()[0].winner, Some(AgentId(1)));
    assert_eq!(third.claims()[2].winner, Some(AgentId(0)));
}
