//! Push-button policy-matrix analysis (the paper's Result 1).
//!
//! Checks the consensus property for every combination of the two policy
//! axes the paper varies — utility sub-modularity (`p_u`) and
//! release-of-items-subsequent-to-an-outbid (`p_RO`) — by exhaustively
//! exploring all asynchronous schedules of the Figure-2 configuration.
//! Exactly one combination fails: non-sub-modular utility with the release
//! policy, which oscillates forever (Figure 2's instability).
//!
//! Run with: `cargo run --release --example policy_matrix`

use mca_verify::analysis::{run_fig2_oscillation, run_policy_matrix};

fn main() {
    println!("== E3 / Result 1: policy combination matrix ==\n");
    let rows = run_policy_matrix(1, None);
    for row in &rows {
        println!("{row}");
    }
    assert!(
        rows.iter().all(|r| r.matches_paper()),
        "every cell must match the paper"
    );
    let failing = rows.iter().filter(|r| !r.checker_converges).count();
    assert_eq!(failing, 1, "exactly one failing combination (Result 1)");

    println!("\n== E2 / Figure 2: the oscillating execution ==\n");
    let trace = run_fig2_oscillation().expect("the failing cell oscillates");
    println!("{trace}");

    println!("\npolicy_matrix OK");
}
