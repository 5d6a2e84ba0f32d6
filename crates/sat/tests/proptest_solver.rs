//! Differential property tests: the CDCL solver versus the brute-force
//! oracle on random small formulas.

use mca_sat::brute::{brute_force_count, brute_force_solve, model_satisfies};
use mca_sat::{CnfFormula, Lit, SolveResult, Var};
use proptest::prelude::*;

/// Strategy: a random CNF with up to `max_vars` variables and up to
/// `max_clauses` clauses of 1..=4 literals each.
fn arb_cnf(max_vars: usize, max_clauses: usize) -> impl Strategy<Value = CnfFormula> {
    let clause = proptest::collection::vec((0..max_vars, any::<bool>()), 1..=4);
    proptest::collection::vec(clause, 0..=max_clauses).prop_map(move |clauses| {
        let mut cnf = CnfFormula::new();
        cnf.new_vars(max_vars);
        for c in clauses {
            cnf.add_clause(
                c.into_iter()
                    .map(|(v, pos)| Lit::new(Var::from_index(v), pos)),
            );
        }
        cnf
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The CDCL solver and the exhaustive oracle agree on satisfiability,
    /// and any model returned actually satisfies the formula.
    #[test]
    fn solver_agrees_with_brute_force(cnf in arb_cnf(8, 24)) {
        let oracle = brute_force_solve(&cnf);
        let mut solver = cnf.to_solver();
        let result = solver.solve();
        prop_assert_eq!(result == SolveResult::Sat, oracle.is_some());
        if result == SolveResult::Sat {
            let model = solver.model().expect("model after Sat");
            prop_assert!(model_satisfies(&cnf, &model), "returned model must satisfy");
        }
    }

    /// Model enumeration over all variables finds exactly the number of
    /// models the oracle counts.
    #[test]
    fn enumeration_counts_all_models(cnf in arb_cnf(6, 12)) {
        let expected = brute_force_count(&cnf);
        let mut solver = cnf.to_solver();
        let projection: Vec<Var> = (0..cnf.num_vars()).map(Var::from_index).collect();
        let mut seen = std::collections::HashSet::new();
        let n = solver.enumerate_models(&projection, 1 << 12, |m| {
            let key: Vec<bool> = projection.iter().map(|&v| m.value(v)).collect();
            assert!(seen.insert(key), "enumeration must not repeat models");
            true
        });
        prop_assert_eq!(n as u64, expected);
    }

    /// Solving twice (incremental restart path) gives the same answer.
    #[test]
    fn resolving_is_stable(cnf in arb_cnf(8, 24)) {
        let mut solver = cnf.to_solver();
        let first = solver.solve();
        let second = solver.solve();
        prop_assert_eq!(first, second);
    }

    /// Assumption-based solving matches adding the assumptions as units.
    #[test]
    fn assumptions_match_units(cnf in arb_cnf(6, 16), pattern in any::<u8>()) {
        let assumptions: Vec<Lit> = (0..cnf.num_vars().min(4))
            .map(|i| Lit::new(Var::from_index(i), pattern >> i & 1 == 1))
            .collect();
        let mut with_assumptions = cnf.to_solver();
        let r1 = with_assumptions.solve_with_assumptions(&assumptions);

        let mut with_units = cnf.clone();
        for &a in &assumptions {
            with_units.add_clause([a]);
        }
        let r2 = with_units.to_solver().solve();
        prop_assert_eq!(r1, r2);
    }

    /// DIMACS writing followed by parsing is the identity.
    #[test]
    fn dimacs_roundtrip(cnf in arb_cnf(8, 24)) {
        let mut buf = Vec::new();
        cnf.write_dimacs(&mut buf).unwrap();
        let parsed = CnfFormula::parse_dimacs(&buf[..]).unwrap();
        prop_assert_eq!(parsed, cnf);
    }
}

/// A structured (non-random) stress case: random 3-SAT near the phase
/// transition, checked against the oracle. Uses a fixed seed for
/// reproducibility.
#[test]
fn random_3sat_near_phase_transition() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(0x5eed_cafe);
    for round in 0..50 {
        let n = 12;
        let m = (4.26 * n as f64) as usize;
        let mut cnf = CnfFormula::new();
        cnf.new_vars(n);
        for _ in 0..m {
            let mut lits = Vec::with_capacity(3);
            while lits.len() < 3 {
                let v = rng.gen_range(0..n);
                if lits.iter().all(|l: &Lit| l.var().index() != v) {
                    lits.push(Lit::new(Var::from_index(v), rng.gen_bool(0.5)));
                }
            }
            cnf.add_clause(lits);
        }
        let oracle_sat = brute_force_solve(&cnf).is_some();
        let mut s = cnf.to_solver();
        assert_eq!(
            s.solve() == SolveResult::Sat,
            oracle_sat,
            "disagreement in round {round}"
        );
    }
}
