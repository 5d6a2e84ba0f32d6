//! The rebidding attack (the paper's Result 2), demonstrated with both
//! verification engines.
//!
//! The paper's Remark 1 states a *necessary* condition for convergence:
//! agents must not bid again on items on which they were overbid. This
//! example removes that condition — malicious or misconfigured agents keep
//! rebidding — and shows that the protocol then fails to reach a
//! conflict-free assignment, both under exhaustive explicit-state checking
//! and under SAT-based analysis of the relational model (in both of the
//! paper's encodings).
//!
//! Run with: `cargo run --release --example rebid_attack`

use mca_core::checker::{check_consensus, CheckerOptions};
use mca_core::scenarios;
use mca_verify::analysis::run_rebid_attack;

fn main() {
    println!("== E4 / Result 2: the rebidding attack ==\n");

    let report = run_rebid_attack(1, None);
    println!("{report}\n");
    assert!(
        report.matches_paper(),
        "all engines must agree with the paper"
    );

    // Show a concrete counterexample execution from the explicit checker.
    println!("== counterexample execution (explicit-state checker) ==\n");
    let verdict = check_consensus(scenarios::rebid_attack(2, 2), CheckerOptions::default());
    let trace = verdict
        .trace()
        .expect("the attack must produce a counterexample");
    println!("{trace}");

    // A single honest agent among attackers still cannot save consensus,
    // but an all-honest network converges.
    println!("\n== control: honest agents converge ==\n");
    let honest = check_consensus(scenarios::rebid_attack(2, 0), CheckerOptions::default());
    println!(
        "0 attackers: every schedule converges = {}",
        honest.converges()
    );
    assert!(honest.converges());

    let one_attacker = check_consensus(scenarios::rebid_attack(3, 1), CheckerOptions::default());
    println!(
        "1 attacker among 3: every schedule converges = {}",
        one_attacker.converges()
    );

    // The paper's footnote-7 countermeasure: honest agents track their
    // neighborhood's bidding history and flag Remark-1 violations.
    println!("\n== detection (footnote 7) ==\n");
    let mut sim = scenarios::rebid_attack(3, 1);
    sim.enable_detection();
    let out = sim.run_synchronous(128);
    println!(
        "single attacker run: converged={}, flagged attackers: {:?}",
        out.converged,
        sim.flagged_attackers()
    );
    assert!(sim.flagged_attackers().contains(&mca_core::AgentId(0)));

    println!("\nrebid_attack OK");
}
