//! Validity thresholds of the E8 scenario family.
//!
//! `DynamicScenario::at_scope` checks at `n·(n−1)+4` states, which is
//! above the measured threshold: the consensus assertion becomes valid at
//! 3/8/9/15 states at 2×2/3×2/3×3/4×2 and is refuted one state lower.
//! This pins the two cheapest scopes on both sides of the threshold.

use mca_verify::{DynamicModel, DynamicScenario, NumberEncoding};

fn consensus_valid(encoding: NumberEncoding, agents: usize, items: usize, states: usize) -> bool {
    let mut scenario = DynamicScenario::at_scope(agents, items);
    scenario.states = states;
    DynamicModel::build(encoding, scenario)
        .check_consensus()
        .expect("translates")
        .result
        .is_valid()
}

#[test]
fn at_scope_is_refuted_one_state_below_its_threshold() {
    for encoding in [NumberEncoding::NaiveInt, NumberEncoding::OptimizedValue] {
        assert!(!consensus_valid(encoding, 2, 2, 2), "2x2@2 ({encoding})");
        assert!(consensus_valid(encoding, 2, 2, 3), "2x2@3 ({encoding})");
    }
    let opt = NumberEncoding::OptimizedValue;
    assert!(!consensus_valid(opt, 3, 2, 7), "3x2@7");
    assert!(consensus_valid(opt, 3, 2, 8), "3x2@8");
    // The shipped budget stays where E8 and the serve deck expect it.
    assert_eq!(DynamicScenario::at_scope(2, 2).states, 6);
    assert_eq!(DynamicScenario::at_scope(3, 2).states, 10);
}
