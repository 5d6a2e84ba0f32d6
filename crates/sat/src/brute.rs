//! Brute-force reference solver.
//!
//! Exhaustively enumerates all assignments of a [`CnfFormula`]. Exponential,
//! of course — intended as an oracle for differential testing of the CDCL
//! solver and of encodings built on top of it (property tests throughout the
//! workspace compare against it on small formulas).

use crate::cnf::CnfFormula;
use crate::solver::Model;

/// Maximum variable count accepted by the brute-force oracle.
pub const MAX_BRUTE_VARS: usize = 24;

/// Returns a satisfying model of `cnf` if one exists, searching all `2^n`
/// assignments.
///
/// # Panics
///
/// Panics if the formula has more than [`MAX_BRUTE_VARS`] variables.
pub fn brute_force_solve(cnf: &CnfFormula) -> Option<Model> {
    let n = cnf.num_vars();
    assert!(
        n <= MAX_BRUTE_VARS,
        "brute force oracle limited to {MAX_BRUTE_VARS} variables, got {n}"
    );
    for bits in 0u64..(1u64 << n) {
        if satisfies(cnf, bits) {
            return Some(model_from_bits(n, bits));
        }
    }
    None
}

/// Counts the satisfying assignments of `cnf` (over all declared variables).
///
/// # Panics
///
/// Panics if the formula has more than [`MAX_BRUTE_VARS`] variables.
pub fn brute_force_count(cnf: &CnfFormula) -> u64 {
    let n = cnf.num_vars();
    assert!(
        n <= MAX_BRUTE_VARS,
        "brute force oracle limited to {MAX_BRUTE_VARS} variables, got {n}"
    );
    (0u64..(1u64 << n))
        .filter(|&bits| satisfies(cnf, bits))
        .count() as u64
}

/// `true` if the model satisfies every clause of the formula.
pub fn model_satisfies(cnf: &CnfFormula, model: &Model) -> bool {
    cnf.clauses().all(|c| c.iter().any(|&l| model.lit_value(l)))
}

fn satisfies(cnf: &CnfFormula, bits: u64) -> bool {
    cnf.clauses().all(|c| {
        c.iter().any(|l| {
            let val = bits >> l.var().index() & 1 == 1;
            val == l.is_positive()
        })
    })
}

fn model_from_bits(n: usize, bits: u64) -> Model {
    let mut cnf = CnfFormula::new();
    let vars = cnf.new_vars(n);
    // Build a Model via the Solver, which is the only constructor; encode the
    // assignment as unit clauses and solve (trivially).
    for (i, v) in vars.iter().enumerate() {
        cnf.add_clause([v.lit(bits >> i & 1 == 1)]);
    }
    let mut s = cnf.to_solver();
    let r = s.solve();
    debug_assert!(r.is_sat());
    s.model().expect("unit assignment is satisfiable")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agrees_with_hand_analysis() {
        let mut cnf = CnfFormula::new();
        let a = cnf.new_var().positive();
        let b = cnf.new_var().positive();
        cnf.add_clause([a, b]);
        // Solutions: 10, 01, 11 -> 3 models.
        assert_eq!(brute_force_count(&cnf), 3);
        let m = brute_force_solve(&cnf).unwrap();
        assert!(model_satisfies(&cnf, &m));
    }

    #[test]
    fn unsat_detected() {
        let mut cnf = CnfFormula::new();
        let a = cnf.new_var().positive();
        cnf.add_clause([a]);
        cnf.add_clause([!a]);
        assert!(brute_force_solve(&cnf).is_none());
        assert_eq!(brute_force_count(&cnf), 0);
    }

    #[test]
    fn empty_formula_has_one_empty_model() {
        let cnf = CnfFormula::new();
        assert_eq!(brute_force_count(&cnf), 1);
        assert!(brute_force_solve(&cnf).is_some());
    }

    #[test]
    #[should_panic(expected = "brute force oracle")]
    fn too_many_vars_panics() {
        let mut cnf = CnfFormula::new();
        cnf.new_vars(MAX_BRUTE_VARS + 1);
        brute_force_solve(&cnf);
    }
}
