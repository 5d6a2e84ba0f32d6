//! Alloy-style models: signatures, fields, facts, and commands.
//!
//! A [`Model`] is a thin, strongly-typed layer over
//! [`mca_relalg::Problem`] mirroring the Alloy constructs the paper's MCA
//! model is written in: `sig` declarations with scopes, fields with
//! multiplicities (`one` / `lone` / `some` / `set`), `fact` paragraphs, and
//! the `run` / `check` commands of the Alloy Analyzer.

use mca_relalg::{
    AtomId, Check, CheckOutcome, Expr, Formula, Instance, Outcome, Problem, QuantVar, RelationId,
    SolveOutcome, TranslateError, Tuple, TupleSet, Universe,
};
use std::fmt::Write as _;

/// Handle to a declared signature.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SigId(usize);

/// Handle to a declared field.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct FieldId(usize);

impl FieldId {
    /// The field declared `k` slots after `base` (declaration order).
    pub(crate) fn offset(base: FieldId, k: usize) -> FieldId {
        FieldId(base.0 + k)
    }

    pub(crate) fn from_index(i: usize) -> FieldId {
        FieldId(i)
    }
}

impl SigId {
    pub(crate) fn from_index(i: usize) -> SigId {
        SigId(i)
    }
}

/// Field multiplicity, constraining `x.f` for every `x` in the owning sig.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Multiplicity {
    /// Exactly one tuple (`f: one T`).
    One,
    /// At most one tuple (`f: lone T`).
    Lone,
    /// At least one tuple (`f: some T`).
    Some,
    /// Any number of tuples (`f: set T`).
    Set,
}

#[derive(Debug)]
struct SigDecl {
    name: String,
    atoms: Vec<AtomId>,
}

#[derive(Debug)]
struct FieldDecl {
    name: String,
    owner: SigId,
    /// Column sigs after the owner column.
    columns: Vec<SigId>,
    multiplicity: Multiplicity,
    /// Optional exact value (constant field).
    exact: Option<TupleSet>,
}

/// An Alloy-style model under construction.
///
/// # Examples
///
/// ```
/// use mca_alloy::{Model, Multiplicity};
///
/// let mut m = Model::new();
/// let node = m.sig("Node", 3);
/// let next = m.field("next", node, &[node], Multiplicity::Lone);
/// // fact: no cycles of length 1
/// let n = m.field_expr(next);
/// m.fact(m.sig_expr(node).product(&m.sig_expr(node)).intersect(&n)
///     .intersect(&mca_relalg::Expr::iden()).no());
/// let run = m.run(&mca_relalg::Formula::true_()).unwrap();
/// assert!(run.result.is_sat());
/// ```
#[derive(Debug, Default)]
pub struct Model {
    universe: Universe,
    sigs: Vec<SigDecl>,
    fields: Vec<FieldDecl>,
    facts: Vec<Formula>,
}

impl Model {
    /// Creates an empty model.
    pub fn new() -> Model {
        Model::default()
    }

    /// Declares a signature with `scope` atoms named `{name}{i}`.
    pub fn sig(&mut self, name: &str, scope: usize) -> SigId {
        let atoms = self.universe.add_atoms(name, scope);
        self.sigs.push(SigDecl {
            name: name.to_string(),
            atoms,
        });
        SigId(self.sigs.len() - 1)
    }

    /// Declares a singleton signature (`one sig`), e.g. `NULL`.
    pub fn one_sig(&mut self, name: &str) -> SigId {
        let atom = self.universe.add_atom(name);
        self.sigs.push(SigDecl {
            name: name.to_string(),
            atoms: vec![atom],
        });
        SigId(self.sigs.len() - 1)
    }

    /// Declares an integer signature whose atoms carry the values in
    /// `range` — the analogue of Alloy's predefined `Int` (used by the
    /// paper's *naive* encoding).
    pub fn int_sig<R: IntoIterator<Item = i64>>(&mut self, range: R) -> SigId {
        let atoms = self.universe.add_int_atoms(range);
        self.sigs.push(SigDecl {
            name: "Int".to_string(),
            atoms,
        });
        SigId(self.sigs.len() - 1)
    }

    /// The union of two sigs as an expression (e.g. `pnode + NULL`).
    pub fn union_expr(&self, a: SigId, b: SigId) -> Expr {
        self.sig_expr(a).union(&self.sig_expr(b))
    }

    /// Declares a field `name: owner -> columns…` with the given
    /// multiplicity applied per owner atom.
    pub fn field(
        &mut self,
        name: &str,
        owner: SigId,
        columns: &[SigId],
        multiplicity: Multiplicity,
    ) -> FieldId {
        assert!(!columns.is_empty(), "fields need at least one column");
        self.fields.push(FieldDecl {
            name: name.to_string(),
            owner,
            columns: columns.to_vec(),
            multiplicity,
            exact: None,
        });
        FieldId(self.fields.len() - 1)
    }

    /// Declares a field with an exact, constant value (no free variables).
    ///
    /// # Panics
    ///
    /// Panics if any tuple is outside `owner × columns…`.
    pub fn constant_field(
        &mut self,
        name: &str,
        owner: SigId,
        columns: &[SigId],
        tuples: TupleSet,
    ) -> FieldId {
        let upper = self.field_upper(owner, columns);
        assert!(
            tuples.is_subset_of(&upper) || tuples.is_empty(),
            "constant field `{name}` has tuples outside its declared columns"
        );
        self.fields.push(FieldDecl {
            name: name.to_string(),
            owner,
            columns: columns.to_vec(),
            multiplicity: Multiplicity::Set,
            exact: Some(tuples),
        });
        FieldId(self.fields.len() - 1)
    }

    /// Adds a `fact` paragraph.
    pub fn fact(&mut self, f: Formula) {
        self.facts.push(f);
    }

    /// The atoms of a sig.
    pub fn atoms(&self, sig: SigId) -> &[AtomId] {
        &self.sigs[sig.0].atoms
    }

    /// The name of a sig.
    pub fn sig_name(&self, sig: SigId) -> &str {
        &self.sigs[sig.0].name
    }

    /// The name of a field.
    pub fn field_name(&self, field: FieldId) -> &str {
        &self.fields[field.0].name
    }

    /// The universe built so far.
    pub fn universe(&self) -> &Universe {
        &self.universe
    }

    /// The expression denoting a sig (its constant set of atoms).
    ///
    /// Relations are laid out sigs-first, in declaration order.
    pub fn sig_expr(&self, sig: SigId) -> Expr {
        Expr::relation(RelationId::from_index(sig.0))
    }

    /// The expression denoting a field.
    pub fn field_expr(&self, field: FieldId) -> Expr {
        Expr::relation(RelationId::from_index(self.sigs.len() + field.0))
    }

    fn field_upper(&self, owner: SigId, columns: &[SigId]) -> TupleSet {
        let mut ts = TupleSet::from_atoms(self.sigs[owner.0].atoms.iter().copied());
        for c in columns {
            ts = ts.product(&TupleSet::from_atoms(self.sigs[c.0].atoms.iter().copied()));
        }
        ts
    }

    /// Materializes the model as a relational [`Problem`].
    ///
    /// Sigs become constant unary relations; fields become bounded
    /// relations with multiplicity facts.
    pub fn to_problem(&self) -> Problem {
        let mut p = Problem::new(self.universe.clone());
        for s in &self.sigs {
            p.declare_constant(&s.name, TupleSet::from_atoms(s.atoms.iter().copied()));
        }
        for f in &self.fields {
            let upper = self.field_upper(f.owner, &f.columns);
            match &f.exact {
                Some(ts) if ts.is_empty() => {
                    // An empty constant: declare with empty exact bounds.
                    p.declare_relation(&f.name, TupleSet::new(upper.arity()), {
                        TupleSet::new(upper.arity())
                    });
                }
                Some(ts) => {
                    p.declare_constant(&f.name, ts.clone());
                }
                None => {
                    p.declare_relation(&f.name, TupleSet::new(upper.arity()), upper);
                }
            }
        }
        // Multiplicity facts.
        for (i, f) in self.fields.iter().enumerate() {
            if f.exact.is_some() {
                continue;
            }
            let mult_formula = {
                let x = QuantVar::fresh("x");
                let joined = x.expr().join(&self.field_expr(FieldId(i)));
                let body = match f.multiplicity {
                    Multiplicity::One => joined.one(),
                    Multiplicity::Lone => joined.lone(),
                    Multiplicity::Some => joined.some(),
                    Multiplicity::Set => continue,
                };
                Formula::forall(&x, &self.sig_expr(f.owner), &body)
            };
            p.require(mult_formula);
        }
        for fact in &self.facts {
            p.require(fact.clone());
        }
        p
    }

    /// Alloy's `run`: finds an instance satisfying all facts plus `goal`.
    ///
    /// # Errors
    ///
    /// Returns a [`TranslateError`] on ill-formed formulas.
    pub fn run(&self, goal: &Formula) -> Result<SolveOutcome, TranslateError> {
        self.to_problem().solve_with_goal(goal)
    }

    /// Alloy's `check`: verifies an assertion, returning a counterexample
    /// on failure.
    ///
    /// # Errors
    ///
    /// Returns a [`TranslateError`] on ill-formed formulas.
    pub fn check(&self, assertion: &Formula) -> Result<CheckOutcome, TranslateError> {
        self.to_problem().check(assertion)
    }

    /// Like [`check`](Model::check), but a "valid" verdict comes with a
    /// DRAT refutation proof verified by an independent checker, optionally
    /// after SatELite-style preprocessing (see
    /// [`mca_relalg::Problem::check_certified`]).
    ///
    /// # Errors
    ///
    /// Returns a [`TranslateError`] on ill-formed formulas.
    pub fn check_certified(
        &self,
        assertion: &Formula,
        preprocess: bool,
    ) -> Result<mca_relalg::CertifiedCheck, TranslateError> {
        self.to_problem().check_certified(assertion, preprocess)
    }

    /// Enumerates up to `limit` instances satisfying the facts plus `goal`
    /// (the Analyzer's "next instance" button). Returns the number found;
    /// the callback may return `false` to stop early.
    ///
    /// # Errors
    ///
    /// Returns a [`TranslateError`] on ill-formed formulas.
    pub fn enumerate<F>(
        &self,
        goal: &Formula,
        limit: usize,
        on_instance: F,
    ) -> Result<usize, TranslateError>
    where
        F: FnMut(&Instance) -> bool,
    {
        self.to_problem().enumerate(goal, limit, on_instance)
    }

    /// The tuples of a field in an instance.
    pub fn field_tuples<'i>(&self, instance: &'i Instance, field: FieldId) -> &'i TupleSet {
        instance.tuples(RelationId::from_index(self.sigs.len() + field.0))
    }

    /// Pretty-prints an instance with sig and field names.
    pub fn show_instance(&self, instance: &Instance) -> String {
        let mut out = String::new();
        for (i, f) in self.fields.iter().enumerate() {
            let ts = self.field_tuples(instance, FieldId(i));
            let _ = writeln!(out, "{} = {}", f.name, ts.display(&self.universe));
        }
        out
    }

    /// Number of declared sigs.
    pub fn num_sigs(&self) -> usize {
        self.sigs.len()
    }

    /// Number of declared fields.
    pub fn num_fields(&self) -> usize {
        self.fields.len()
    }

    /// All sig handles, in declaration order.
    pub fn sig_ids(&self) -> impl Iterator<Item = SigId> {
        (0..self.sigs.len()).map(SigId)
    }

    /// All field handles, in declaration order.
    pub fn field_ids(&self) -> impl Iterator<Item = FieldId> {
        (0..self.fields.len()).map(FieldId)
    }

    /// The sig that owns a field.
    pub fn field_owner(&self, field: FieldId) -> SigId {
        self.fields[field.0].owner
    }

    /// The column sigs of a field (after the owner column).
    pub fn field_columns(&self, field: FieldId) -> &[SigId] {
        &self.fields[field.0].columns
    }

    /// The declared multiplicity of a field.
    pub fn field_multiplicity(&self, field: FieldId) -> Multiplicity {
        self.fields[field.0].multiplicity
    }

    /// `true` if the field has an exact constant value.
    pub fn field_is_constant(&self, field: FieldId) -> bool {
        self.fields[field.0].exact.is_some()
    }

    /// The exact tuples of a constant field, if any.
    pub fn field_constant_tuples(&self, field: FieldId) -> Option<&TupleSet> {
        self.fields[field.0].exact.as_ref()
    }

    /// The fact paragraphs added so far.
    pub fn facts(&self) -> &[Formula] {
        &self.facts
    }

    /// Looks up the atom of a sig by ordinal, e.g. atom 2 of `pnode`.
    ///
    /// # Panics
    ///
    /// Panics if `ordinal` is out of scope.
    pub fn atom(&self, sig: SigId, ordinal: usize) -> AtomId {
        self.sigs[sig.0].atoms[ordinal]
    }

    /// Builds a tuple from (sig, ordinal) pairs — convenient for bounds.
    pub fn tuple(&self, parts: &[(SigId, usize)]) -> Tuple {
        Tuple::new(parts.iter().map(|&(s, o)| self.atom(s, o)))
    }
}

/// Convenience: outcome checks used throughout the verification crates.
pub trait OutcomeExt {
    /// `true` if a satisfying instance was found.
    fn found_instance(&self) -> bool;
}

impl OutcomeExt for SolveOutcome {
    fn found_instance(&self) -> bool {
        matches!(self.result, Outcome::Sat(_))
    }
}

impl OutcomeExt for CheckOutcome {
    fn found_instance(&self) -> bool {
        matches!(self.result, Check::Counterexample(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sig_and_field_layout() {
        let mut m = Model::new();
        let a = m.sig("A", 2);
        let b = m.sig("B", 3);
        let f = m.field("f", a, &[b], Multiplicity::One);
        assert_eq!(m.sig_name(a), "A");
        assert_eq!(m.field_name(f), "f");
        assert_eq!(m.atoms(a).len(), 2);
        assert_eq!(m.atoms(b).len(), 3);
        let p = m.to_problem();
        assert_eq!(p.num_relations(), 3);
    }

    #[test]
    fn multiplicity_one_enforced() {
        let mut m = Model::new();
        let a = m.sig("A", 2);
        let b = m.sig("B", 3);
        let f = m.field("f", a, &[b], Multiplicity::One);
        let out = m.run(&Formula::true_()).unwrap();
        let inst = match out.result {
            Outcome::Sat(i) => i,
            Outcome::Unsat => panic!("one-field model must be satisfiable"),
        };
        let ts = m.field_tuples(&inst, f);
        assert_eq!(ts.len(), 2, "each of the 2 owners maps to exactly one");
    }

    #[test]
    fn multiplicity_some_enforced() {
        let mut m = Model::new();
        let a = m.sig("A", 2);
        let b = m.sig("B", 2);
        let f = m.field("f", a, &[b], Multiplicity::Some);
        let out = m.run(&Formula::true_()).unwrap();
        let inst = match out.result {
            Outcome::Sat(i) => i,
            Outcome::Unsat => panic!("some-field model must be satisfiable"),
        };
        assert!(m.field_tuples(&inst, f).len() >= 2);
    }

    #[test]
    fn constant_field_is_fixed() {
        let mut m = Model::new();
        let a = m.sig("A", 2);
        let b = m.sig("B", 2);
        let edges = TupleSet::from_pairs([(m.atom(a, 0), m.atom(b, 1))]);
        let f = m.constant_field("f", a, &[b], edges.clone());
        let out = m.run(&Formula::true_()).unwrap();
        let inst = match out.result {
            Outcome::Sat(i) => i,
            Outcome::Unsat => panic!("constant model must be satisfiable"),
        };
        assert_eq!(m.field_tuples(&inst, f), &edges);
    }

    #[test]
    fn check_finds_counterexample() {
        let mut m = Model::new();
        let a = m.sig("A", 2);
        let b = m.sig("B", 2);
        let f = m.field("f", a, &[b], Multiplicity::Lone);
        // Assertion "every A maps to something" is refutable under lone.
        let x = QuantVar::fresh("x");
        let assertion =
            Formula::forall(&x, &m.sig_expr(a), &x.expr().join(&m.field_expr(f)).some());
        let out = m.check(&assertion).unwrap();
        assert!(out.found_instance());
        // And "every A maps to at most one" is valid.
        let y = QuantVar::fresh("y");
        let valid = Formula::forall(&y, &m.sig_expr(a), &y.expr().join(&m.field_expr(f)).lone());
        assert!(m.check(&valid).unwrap().result.is_valid());
    }

    #[test]
    fn int_sig_sums() {
        use mca_relalg::IntExpr;
        let mut m = Model::new();
        let node = m.sig("N", 2);
        let ints = m.int_sig(0..=3);
        let cap = m.field("cap", node, &[ints], Multiplicity::One);
        // fact: total capacity is exactly 5 (so 2+3 or 3+2 with distinct ... )
        let x = QuantVar::fresh("x");
        m.fact(Formula::forall(
            &x,
            &m.sig_expr(node),
            &x.expr()
                .join(&m.field_expr(cap))
                .sum_values()
                .ge(&IntExpr::constant(2)),
        ));
        m.fact(
            m.sig_expr(node)
                .join(&m.field_expr(cap))
                .sum_values()
                .eq_(&IntExpr::constant(5)),
        );
        let out = m.run(&Formula::true_()).unwrap();
        assert!(out.found_instance());
    }

    #[test]
    fn show_instance_names_fields() {
        let mut m = Model::new();
        let a = m.sig("A", 1);
        let b = m.sig("B", 1);
        m.field("link", a, &[b], Multiplicity::One);
        let out = m.run(&Formula::true_()).unwrap();
        let inst = match out.result {
            Outcome::Sat(i) => i,
            Outcome::Unsat => panic!(),
        };
        let shown = m.show_instance(&inst);
        assert!(shown.contains("link = {(A0, B0)}"));
    }

    #[test]
    fn enumerate_counts_instances() {
        let mut m = Model::new();
        let a = m.sig("A", 2);
        let b = m.sig("B", 2);
        let f = m.field("f", a, &[b], Multiplicity::One);
        let _ = f;
        // Each of 2 owners picks one of 2 targets independently: 4 instances.
        let n = m.enumerate(&Formula::true_(), 100, |_| true).unwrap();
        assert_eq!(n, 4);
        // Early stop is honored.
        let mut seen = 0;
        let n = m
            .enumerate(&Formula::true_(), 100, |_| {
                seen += 1;
                seen < 2
            })
            .unwrap();
        assert_eq!(n, 2);
    }

    #[test]
    fn pair_of_sigs_in_union_expr() {
        let mut m = Model::new();
        let a = m.sig("A", 2);
        let null = m.one_sig("NULL");
        let u = m.union_expr(a, null);
        let mut p = m.to_problem();
        p.require(u.count().eq_(&mca_relalg::IntExpr::constant(3)));
        assert!(p.solve().unwrap().result.is_sat());
    }
}
