//! `mca-bench` — the reproduction harness.
//!
//! The `repro` binary prints the paper-shaped tables for every evaluation
//! artifact (experiments E1–E8 of DESIGN.md) and writes the `BENCH_*.json`
//! files that `repro diff` gates:
//!
//! ```text
//! cargo run --release -p mca-bench --bin repro            # all experiments
//! cargo run --release -p mca-bench --bin repro -- e5
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use mca_sat::{CnfFormula, Lit, Var};

/// Generates a deterministic random k-SAT formula: `clauses` clauses of
/// `k` distinct variables each over `vars` variables, from `seed`.
pub fn random_ksat(vars: usize, clauses: usize, k: usize, seed: u64) -> CnfFormula {
    // A tiny deterministic xorshift so the bench crate needs no extra deps.
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut cnf = CnfFormula::new();
    cnf.new_vars(vars);
    for _ in 0..clauses {
        let mut lits: Vec<Lit> = Vec::with_capacity(k);
        while lits.len() < k {
            let v = (next() % vars as u64) as usize;
            if lits.iter().all(|l| l.var().index() != v) {
                lits.push(Lit::new(Var::from_index(v), next() & 1 == 1));
            }
        }
        cnf.add_clause(lits);
    }
    cnf
}

#[cfg(test)]
mod tests {
    use super::*;
    use mca_sat::SolveResult;

    #[test]
    fn random_ksat_is_deterministic_and_solvable() {
        let a = random_ksat(20, 60, 3, 42);
        let b = random_ksat(20, 60, 3, 42);
        assert_eq!(a, b);
        assert_eq!(a.num_clauses(), 60);
        let mut solver = a.to_solver();
        // Below the phase transition (ratio 3), should be satisfiable.
        assert_eq!(solver.solve(), SolveResult::Sat);
    }
}
