//! Equivalence-preserving CNF preprocessing.
//!
//! SatELite-style simplification: unit propagation to fixpoint,
//! subsumption (a clause implied by a subset clause is dropped) and
//! self-subsuming resolution (clause strengthening). All three preserve
//! the *model set* over the original variables — unit clauses remain in
//! the output — so the preprocessor is safe for model counting and
//! enumeration, not just satisfiability.

use crate::cnf::CnfFormula;
use crate::lit::{LBool, Lit};
use crate::proof::ProofLog;

/// Statistics of one preprocessing run
/// ([`Solver::preprocess`](crate::Solver::preprocess)).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimplifyStats {
    /// Clauses removed by subsumption.
    pub subsumed: usize,
    /// Literals removed by self-subsuming resolution.
    pub strengthened_literals: usize,
    /// Literals removed because a unit falsified them.
    pub propagated_literals: usize,
    /// Clauses removed because a unit satisfied them.
    pub satisfied_clauses: usize,
    /// `true` if the formula was found unsatisfiable outright.
    pub found_unsat: bool,
}

/// Simplifies `cnf`, returning an equivalent formula (same variable count,
/// same model set) and statistics.
///
/// If the formula is detected unsatisfiable, the result contains a single
/// empty clause and `found_unsat` is set.
pub(crate) fn simplify(cnf: &CnfFormula) -> (CnfFormula, SimplifyStats) {
    simplify_impl(cnf, None)
}

/// Like [`simplify`], but logs every transformation as DRAT steps to
/// `proof`, so a refutation of the *simplified* formula still checks
/// against the *original* one with [`check_drat`](crate::check_drat).
///
/// Each reduced or strengthened clause is appended as an `Add` step at the
/// moment it is derived (it is a reverse-unit-propagation consequence of
/// the clauses live at that point), followed by a `Delete` of the form it
/// replaces; subsumed, satisfied and tautological clauses are recorded as
/// `Delete` steps. If simplification itself refutes the formula, the empty
/// clause is appended and the proof is already complete.
pub(crate) fn simplify_logged(
    cnf: &CnfFormula,
    proof: &mut ProofLog,
) -> (CnfFormula, SimplifyStats) {
    simplify_impl(cnf, Some(proof))
}

fn log_add(proof: &mut Option<&mut ProofLog>, clause: &[Lit]) {
    if let Some(p) = proof.as_deref_mut() {
        p.add(clause.to_vec());
    }
}

fn log_delete(proof: &mut Option<&mut ProofLog>, clause: &[Lit]) {
    if let Some(p) = proof.as_deref_mut() {
        p.delete(clause.to_vec());
    }
}

fn simplify_impl(
    cnf: &CnfFormula,
    mut proof: Option<&mut ProofLog>,
) -> (CnfFormula, SimplifyStats) {
    let mut stats = SimplifyStats::default();
    let num_vars = cnf.num_vars();

    // Working set: sorted, deduplicated clauses; tautologies dropped.
    // Sorting and literal deduplication keep the literal *set*, which is
    // all the DRAT checker compares, so neither needs a proof step.
    let mut clauses: Vec<Vec<Lit>> = Vec::with_capacity(cnf.num_clauses());
    'next_clause: for c in cnf.clauses() {
        let mut cl = c.to_vec();
        cl.sort_unstable();
        cl.dedup();
        for w in cl.windows(2) {
            if w[1] == !w[0] {
                log_delete(&mut proof, &cl);
                continue 'next_clause; // tautology
            }
        }
        clauses.push(cl);
    }

    // --- unit propagation to fixpoint ---
    let mut assign: Vec<LBool> = vec![LBool::Undef; num_vars];
    loop {
        let mut changed = false;
        let mut next: Vec<Vec<Lit>> = Vec::with_capacity(clauses.len());
        for c in clauses.drain(..) {
            let mut reduced: Vec<Lit> = Vec::with_capacity(c.len());
            let mut satisfied = false;
            for &l in &c {
                match value(&assign, l) {
                    LBool::True => {
                        satisfied = true;
                        break;
                    }
                    LBool::False => {
                        stats.propagated_literals += 1;
                        changed = true;
                    }
                    LBool::Undef => reduced.push(l),
                }
            }
            if satisfied {
                // Keep unit clauses for assigned variables so the model set
                // over all variables is preserved; drop longer satisfied
                // clauses. (The satisfying unit stays live, so the deletion
                // never weakens later RUP checks.)
                if c.len() > 1 {
                    stats.satisfied_clauses += 1;
                    changed = true;
                    log_delete(&mut proof, &c);
                    continue;
                }
                reduced = c.clone();
            }
            match reduced.len() {
                0 => {
                    stats.found_unsat = true;
                    // The units falsifying every literal of `c` are live, so
                    // the empty clause is RUP here.
                    log_add(&mut proof, &[]);
                    let mut out = CnfFormula::new();
                    out.new_vars(num_vars);
                    out.add_clause(std::iter::empty());
                    return (out, stats);
                }
                1 => {
                    let l = reduced[0];
                    match value(&assign, l) {
                        LBool::False => {
                            stats.found_unsat = true;
                            log_add(&mut proof, &[]);
                            let mut out = CnfFormula::new();
                            out.new_vars(num_vars);
                            out.add_clause(std::iter::empty());
                            return (out, stats);
                        }
                        LBool::Undef => {
                            set(&mut assign, l);
                            changed = true;
                        }
                        LBool::True => {}
                    }
                    if reduced.len() != c.len() {
                        log_add(&mut proof, &reduced);
                        log_delete(&mut proof, &c);
                    }
                    next.push(reduced);
                }
                _ => {
                    if reduced.len() != c.len() {
                        log_add(&mut proof, &reduced);
                        log_delete(&mut proof, &c);
                    }
                    next.push(reduced);
                }
            }
        }
        clauses = next;
        if !changed {
            break;
        }
    }
    // Deduplicate identical clauses once after the fixpoint (sorting the
    // whole set inside the loop would dominate on encoder-sized inputs).
    clauses.sort();
    clauses.dedup();

    // --- subsumption and self-subsuming resolution ---
    // Occurrence-list driven, as in SatELite: a clause is only matched
    // against the clauses sharing its least-occurring literal (for
    // subsumption) or a pivot's negation (for strengthening), so a pass
    // costs roughly the total occurrence-list volume instead of the
    // clause-pair count, and *every* rewrite found in a pass is applied.
    // The encoder emits CNFs with 10⁵+ clauses; an all-pairs scan does
    // not survive contact with those.
    loop {
        let mut changed = false;
        let mut keep = vec![true; clauses.len()];
        // Occurrence lists are built once per pass and allowed to go
        // stale as clauses shrink or die — every candidate is re-checked
        // against its current literals before use.
        let mut occ: Vec<Vec<u32>> = vec![Vec::new(); 2 * num_vars];
        for (i, c) in clauses.iter().enumerate() {
            for &l in c {
                occ[l.code()].push(i as u32);
            }
        }
        // Short clauses first: they subsume and strengthen the most.
        let mut order: Vec<u32> = (0..clauses.len() as u32).collect();
        order.sort_by_key(|&i| clauses[i as usize].len());
        for &iu in &order {
            let i = iu as usize;
            if !keep[i] {
                continue;
            }
            let ci = clauses[i].clone();
            // Subsumption: every superset of `ci` contains its
            // least-occurring literal, so one occurrence list suffices.
            let pivot = *ci
                .iter()
                .min_by_key(|l| occ[l.code()].len())
                .expect("clauses are non-empty here");
            for &ju in &occ[pivot.code()] {
                let j = ju as usize;
                if j == i || !keep[j] || ci.len() > clauses[j].len() {
                    continue;
                }
                if sorted_subset(&ci, &clauses[j]) {
                    keep[j] = false;
                    stats.subsumed += 1;
                    changed = true;
                    // The subsuming clause stays live; deleting the superset
                    // never weakens later RUP checks.
                    log_delete(&mut proof, &clauses[j]);
                }
            }
            // Self-subsuming resolution: if ci = D ∪ {l} and C2 ⊇ D ∪ {!l},
            // strengthen C2 by removing !l. Candidates for pivot l all
            // contain !l, so only that occurrence list is scanned.
            for &l in &ci {
                for &ju in &occ[(!l).code()] {
                    let j = ju as usize;
                    if j == i || !keep[j] || ci.len() > clauses[j].len() {
                        continue;
                    }
                    if !strengthens(&ci, l, &clauses[j]) {
                        continue;
                    }
                    let old = clauses[j].clone();
                    clauses[j].retain(|&x| x != !l);
                    // The strengthened clause is RUP from `ci` and the old
                    // clauses[j], both still live when it is added.
                    log_add(&mut proof, &clauses[j]);
                    log_delete(&mut proof, &old);
                    stats.strengthened_literals += 1;
                    changed = true;
                    if clauses[j].is_empty() {
                        stats.found_unsat = true;
                        let mut out = CnfFormula::new();
                        out.new_vars(num_vars);
                        out.add_clause(std::iter::empty());
                        return (out, stats);
                    }
                }
            }
        }

        let mut kept: Vec<Vec<Lit>> = Vec::with_capacity(clauses.len());
        for (c, k) in clauses.into_iter().zip(&keep) {
            if *k {
                kept.push(c);
            }
        }
        clauses = kept;
        if !changed {
            break;
        }
        clauses.sort();
        clauses.dedup();
    }

    let mut out = CnfFormula::new();
    out.new_vars(num_vars);
    for c in clauses {
        out.add_clause(c);
    }
    (out, stats)
}

/// `small ⊆ big`, both sorted and duplicate-free.
fn sorted_subset(small: &[Lit], big: &[Lit]) -> bool {
    let mut big_iter = big.iter();
    'literals: for &l in small {
        for &b in big_iter.by_ref() {
            if b == l {
                continue 'literals;
            }
            if b > l {
                return false;
            }
        }
        return false;
    }
    true
}

/// `true` if `small` with `pivot` flipped is a subset of `big` (sorted),
/// i.e. resolving the two on `pivot` yields `big \ {!pivot}`.
fn strengthens(small: &[Lit], pivot: Lit, big: &[Lit]) -> bool {
    small.iter().all(|&m| {
        let want = if m == pivot { !pivot } else { m };
        big.binary_search(&want).is_ok()
    })
}

fn value(assign: &[LBool], l: Lit) -> LBool {
    let v = assign[l.var().index()];
    if l.is_positive() {
        v
    } else {
        v.negate()
    }
}

fn set(assign: &mut [LBool], l: Lit) {
    assign[l.var().index()] = LBool::from_bool(l.is_positive());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force_count;
    use crate::lit::Var;
    use crate::proof::Proof;

    fn lit(n: i64) -> Lit {
        Lit::from_dimacs(n).unwrap()
    }

    /// [`simplify_logged`] into a recorded proof.
    fn simplify_recorded(cnf: &CnfFormula) -> (CnfFormula, SimplifyStats, Proof) {
        let mut log = ProofLog::Record(Proof::new());
        let (out, stats) = simplify_logged(cnf, &mut log);
        let ProofLog::Record(proof) = log else {
            unreachable!("a recorded log stays recorded")
        };
        (out, stats, proof)
    }

    fn cnf_of(vars: usize, clauses: &[&[i64]]) -> CnfFormula {
        let mut cnf = CnfFormula::new();
        cnf.new_vars(vars);
        for c in clauses {
            cnf.add_clause(c.iter().map(|&n| lit(n)));
        }
        cnf
    }

    #[test]
    fn subsumption_removes_superset() {
        let cnf = cnf_of(3, &[&[1, 2], &[1, 2, 3]]);
        let (out, stats) = simplify(&cnf);
        assert_eq!(out.num_clauses(), 1);
        assert_eq!(stats.subsumed, 1);
    }

    #[test]
    fn self_subsumption_strengthens() {
        // (a ∨ b) ∧ (a ∨ !b ∨ c) → (a ∨ b) ∧ (a ∨ c)
        let cnf = cnf_of(3, &[&[1, 2], &[1, -2, 3]]);
        let (out, stats) = simplify(&cnf);
        assert!(stats.strengthened_literals >= 1);
        assert!(out.clauses().any(|c| c == [lit(1), lit(3)]));
    }

    #[test]
    fn unit_propagation_reduces() {
        // x1 ∧ (!x1 ∨ x2) ∧ (x2 ∨ x3): forces x1, x2; keeps unit records.
        let cnf = cnf_of(3, &[&[1], &[-1, 2], &[2, 3]]);
        let (out, stats) = simplify(&cnf);
        assert!(!stats.found_unsat);
        assert!(out.clauses().any(|c| c == [lit(1)]));
        assert!(out.clauses().any(|c| c == [lit(2)]));
        // (x2 ∨ x3) is satisfied by the unit x2 and dropped.
        assert_eq!(out.num_clauses(), 2);
    }

    #[test]
    fn detects_unsat() {
        let cnf = cnf_of(1, &[&[1], &[-1]]);
        let (out, stats) = simplify(&cnf);
        assert!(stats.found_unsat);
        let mut s = out.to_solver();
        assert!(!s.solve().is_sat());
    }

    #[test]
    fn tautologies_are_dropped() {
        let cnf = cnf_of(2, &[&[1, -1], &[2]]);
        let (out, _) = simplify(&cnf);
        assert_eq!(out.num_clauses(), 1);
    }

    /// `true` if the assignment encoded by `bits` satisfies every clause.
    fn sat_under(cnf: &CnfFormula, bits: u64) -> bool {
        cnf.clauses().all(|c| {
            c.iter().any(|l| {
                let val = bits >> l.var().index() & 1 == 1;
                val == l.is_positive()
            })
        })
    }

    #[test]
    fn model_set_is_preserved_exhaustively() {
        // Stronger than count preservation: every assignment over up to 12
        // variables satisfies the original formula iff it satisfies the
        // simplified one.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x5e7);
        for round in 0..40 {
            let vars = rng.gen_range(3..=12usize);
            let n_clauses = rng.gen_range(0..24usize);
            let mut cnf = CnfFormula::new();
            cnf.new_vars(vars);
            for _ in 0..n_clauses {
                let len = rng.gen_range(1..5usize);
                let mut c = Vec::new();
                for _ in 0..len {
                    c.push(Lit::new(
                        Var::from_index(rng.gen_range(0..vars)),
                        rng.gen_bool(0.5),
                    ));
                }
                cnf.add_clause(c);
            }
            let (out, _) = simplify(&cnf);
            assert_eq!(out.num_vars(), cnf.num_vars());
            for bits in 0..(1u64 << vars) {
                assert_eq!(
                    sat_under(&cnf, bits),
                    sat_under(&out, bits),
                    "round {round}, assignment {bits:b}: model set must be preserved"
                );
            }
        }
    }

    #[test]
    fn logged_refutation_checks() {
        // All four 2-literal clauses over {a, b}: unit propagation finds no
        // units, but strengthening chains down to the empty clause, so the
        // simplifier refutes the formula on its own — and the logged proof
        // must check against the original.
        let cnf = cnf_of(2, &[&[1, 2], &[1, -2], &[-1, 2], &[-1, -2]]);
        let (out, stats, proof) = simplify_recorded(&cnf);
        assert!(stats.found_unsat);
        assert!(proof.derives_empty_clause());
        crate::proof::check_drat(&cnf, &proof).expect("simplifier refutation must check");
        assert_eq!(out.num_clauses(), 1);
        assert!(out.clause(0).is_empty());
    }

    #[test]
    fn logged_simplify_chains_with_solver_proofs() {
        // Random mixed-length formulas: simplify with logging, refute the
        // simplified formula with the CDCL solver, append the solver's proof
        // to the simplifier's, and check the combined log against the
        // *original* formula.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xcafe);
        let mut checked = 0;
        for _ in 0..60 {
            let vars = 8usize;
            let n_clauses = 45usize;
            let mut cnf = CnfFormula::new();
            cnf.new_vars(vars);
            for _ in 0..n_clauses {
                let len = rng.gen_range(1..4usize);
                let mut c = Vec::new();
                for _ in 0..len {
                    c.push(Lit::new(
                        Var::from_index(rng.gen_range(0..vars)),
                        rng.gen_bool(0.5),
                    ));
                }
                cnf.add_clause(c);
            }
            let (out, stats, mut proof) = simplify_recorded(&cnf);
            if stats.found_unsat {
                crate::proof::check_drat(&cnf, &proof).expect("simplifier refutation");
                checked += 1;
                continue;
            }
            let mut s = crate::solver::Solver::new();
            s.enable_proof();
            s.new_vars(out.num_vars());
            for c in out.clauses() {
                s.add_clause(c.iter().copied());
            }
            if s.solve() == crate::solver::SolveResult::Unsat {
                let solver_proof = s.take_proof().expect("proof enabled");
                for step in solver_proof.steps() {
                    match step {
                        crate::proof::ProofStep::Add(c) => proof.add(c.clone()),
                        crate::proof::ProofStep::Delete(c) => proof.delete(c.clone()),
                    }
                }
                crate::proof::check_drat(&cnf, &proof)
                    .expect("combined simplify + solve proof must check");
                checked += 1;
            }
        }
        assert!(checked > 10, "expected many UNSAT instances, got {checked}");
    }

    #[test]
    fn model_count_is_preserved_random() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x51e9);
        for round in 0..120 {
            let vars = rng.gen_range(3..8usize);
            let n_clauses = rng.gen_range(0..16usize);
            let mut cnf = CnfFormula::new();
            cnf.new_vars(vars);
            for _ in 0..n_clauses {
                let len = rng.gen_range(1..4usize);
                let mut c = Vec::new();
                for _ in 0..len {
                    c.push(Lit::new(
                        Var::from_index(rng.gen_range(0..vars)),
                        rng.gen_bool(0.5),
                    ));
                }
                cnf.add_clause(c);
            }
            let (out, _) = simplify(&cnf);
            assert_eq!(
                brute_force_count(&cnf),
                brute_force_count(&out),
                "round {round}: simplification must preserve the model set"
            );
        }
    }
}
