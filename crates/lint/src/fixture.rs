//! A deliberately pathological model exercising one instance of every
//! major finding class, used by the golden-report test and by
//! `repro lint --fixture pathological` in CI to prove the analyzer still
//! catches what it claims to catch.

use mca_alloy::{Model, Multiplicity};
use mca_relalg::Formula;

/// Builds the pathological model and its assertion.
///
/// The model packs several distinct defects:
///
/// - a field `ghost` with `Set` multiplicity that nothing mentions
///   (`M004` at the model layer, `R001` at the problem layer, and its
///   never-occurring primary variables trigger `C001` at the CNF layer);
/// - the facts `one f` and `no f`, which are jointly unsatisfiable but
///   **not** detectable by bound-driven folding — only the SAT-backed
///   vacuity check sees it (`V001`, the lone `Error`);
/// - an assertion `some A` over a constant sig, which folds to a constant
///   goal whose frozen marker variable is a pure literal in its own
///   incidence component (`C002`, `C005`).
pub fn pathological() -> (Model, Formula) {
    let mut m = Model::new();
    let a = m.sig("A", 2);
    let b = m.sig("B", 2);
    let c = m.sig("C", 1);
    let f = m.field("f", a, &[b], Multiplicity::Set);
    let _ghost = m.field("ghost", a, &[b], Multiplicity::Set);
    let c_self = m.field("c_self", c, &[c], Multiplicity::Set);

    m.fact(m.field_expr(f).one());
    m.fact(m.field_expr(f).no());
    m.fact(m.field_expr(c_self).some());

    let assertion = m.sig_expr(a).some();
    (m, assertion)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_premise_is_unsatisfiable_but_does_not_fold() {
        let (m, _assertion) = pathological();
        let problem = m.to_problem();
        // No fact folds to false — the inconsistency is SAT-level only.
        let bounds = crate::fold::Bounds {
            empty: &|r| problem.relation(r).upper().is_empty(),
            nonempty: &|r| !problem.relation(r).lower().is_empty(),
            universe_empty: false,
        };
        for fact in problem.facts() {
            assert_ne!(crate::fold::fold_formula(fact, &bounds), Some(false));
        }
        // Yet the premise really is unsatisfiable.
        let outcome = problem.solve().unwrap();
        assert!(!outcome.result.is_sat());
    }
}
