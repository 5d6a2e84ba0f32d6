//! Translation of relational problems into boolean circuits.
//!
//! Every relation becomes a sparse boolean matrix over its upper-bound
//! tuples: lower-bound tuples map to constant true, the remaining
//! upper-bound tuples to fresh circuit inputs (the *primary variables*),
//! and every other tuple is constant false and is not stored. Relational
//! operators become matrix operators over circuit edges that visit only
//! the stored cells; formulas become single edges.
//!
//! This mirrors Kodkod, the model finder inside the Alloy Analyzer used by
//! the reproduced paper (Torlak & Jackson, "Kodkod: A Relational Model
//! Finder", TACAS 2007); the clause counts reported by
//! [`TranslationStats`] are the quantity the paper's "Abstractions
//! Efficiency" experiment compares across encodings.
//!
//! The circuit is independent of sparsity: the operators create the gates
//! a dense `n^arity` matrix would, in the same order. Reductions over all
//! cells of a matrix (`in`, `some`, `no`, `one`, `lone`) keep each cell's
//! position in the full row-major order, so their balanced trees pair the
//! same cells as a dense reduction would; see [`Circuit::and_many`].
//! A join whose left operand is one atom or a bound quantifier variable
//! (`a.r`, most joins the models build) is a slice of the right operand's
//! row, read in place for a declared relation. The general join creates
//! no gate for it and yields the same cells, so the slice, too, keeps the
//! same gates in the same order.
//!
//! Each node is translated once per binding of its quantified variables.
//! An operator checks its arity constraint on its operands' matrices once
//! they are translated, as [`Evaluator`](crate::Evaluator) does, rather
//! than walking the subexpression first. `a = b` translates each side once
//! and builds `a in b` and `b in a` from the two matrices: translating a
//! side again would only hit the circuit's structural-hashing table, so
//! the gates are the ones `a in b and b in a` creates, in the same order.

use crate::ast::{
    CmpOp, Expr, ExprKind, Formula, FormulaKind, IntExpr, IntExprKind, QuantVar, RelationId,
};
use crate::bitvec::BitVec;
use crate::circuit::{Circuit, B};
use crate::error::TranslateError;
use crate::problem::Problem;
use crate::tuple::Tuple;
use crate::universe::AtomId;
use std::collections::HashMap;

/// A sparse boolean matrix representing a relation of some arity over a
/// universe of `n` atoms.
///
/// Only the non-false cells are stored, as `(flat index, edge)` pairs in
/// ascending index order. The flat index of a tuple `(a₀, …, a_{k−1})` is
/// its row-major position `Σ aᵢ·n^(k−1−i)`; every index absent from
/// `cells` is constant false.
#[derive(Clone, Debug)]
pub(crate) struct Matrix {
    arity: usize,
    cells: Vec<(usize, B)>,
}

impl Matrix {
    /// A matrix of the given cells, dropping those that are constant false.
    fn new(arity: usize, cells: impl IntoIterator<Item = (usize, B)>) -> Matrix {
        let cells: Vec<(usize, B)> = cells
            .into_iter()
            .filter(|&(_, e)| !e.is_const_false())
            .collect();
        debug_assert!(cells.windows(2).all(|w| w[0].0 < w[1].0));
        Matrix { arity, cells }
    }
}

/// `n^arity`: the number of cells of an arity-`arity` matrix over `n`
/// atoms, which bounds its flat indices.
///
/// # Errors
///
/// [`TranslateError::IndexOverflow`] when the count does not fit in a
/// `usize`, so that no flat index can wrap around.
fn cell_count(n: usize, arity: usize) -> Result<usize, TranslateError> {
    u32::try_from(arity)
        .ok()
        .and_then(|a| n.checked_pow(a))
        .ok_or_else(|| TranslateError::IndexOverflow {
            context: format!("an arity-{arity} matrix over {n} atoms"),
        })
}

/// Size and timing statistics of a translation.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TranslationStats {
    /// Free relation-tuple variables (Kodkod's "primary variables").
    pub primary_vars: usize,
    /// AND gates in the boolean circuit after simplification.
    pub circuit_gates: usize,
    /// Variables in the final CNF (primary + Tseitin auxiliaries).
    pub cnf_vars: usize,
    /// Clauses in the final CNF.
    pub cnf_clauses: usize,
    /// Total literal occurrences in the CNF.
    pub cnf_literals: usize,
    /// Duplicate and tautological clauses dropped at emission time.
    pub clauses_deduped: usize,
    /// Wall-clock time spent translating, in seconds.
    pub translation_secs: f64,
}

/// Per-relation share of a translation, for observability: how many
/// primary variables a declared relation contributed and how many CNF
/// clauses constrain at least one of them.
///
/// Clause counts are *incidences*, not a partition — a clause mentioning
/// primary variables of two relations is counted once for each, and
/// Tseitin-auxiliary-only clauses are counted for none.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RelationStats {
    /// The relation's diagnostic name.
    pub name: String,
    /// The relation's arity.
    pub arity: usize,
    /// Free (primary) variables allocated for the relation's tuples.
    pub primary_vars: usize,
    /// CNF clauses containing at least one of those variables.
    pub clauses: usize,
}

/// The output of translating a [`Problem`]: a CNF formula plus the
/// information needed to decode models back into relational instances.
#[derive(Debug)]
pub struct Translation {
    /// The CNF encoding of (facts ∧ goal).
    pub cnf: mca_sat::CnfFormula,
    /// Size statistics.
    pub stats: TranslationStats,
    /// Per-relation variable and clause counts, in declaration order.
    pub relation_stats: Vec<RelationStats>,
    /// CNF variables corresponding to circuit inputs, in input order.
    pub(crate) input_vars: Vec<mca_sat::Var>,
    /// For each circuit input: which relation tuple it controls.
    pub(crate) input_tuples: Vec<(RelationId, Tuple)>,
}

impl Translation {
    /// The CNF variables of the circuit inputs (the primary variables), in
    /// input-creation order.
    pub fn input_vars(&self) -> &[mca_sat::Var] {
        &self.input_vars
    }

    /// For each input, the declared relation and tuple it controls —
    /// parallel to [`input_vars`](Translation::input_vars). Static analyses
    /// use this to attribute CNF variables back to relations.
    pub fn input_tuples(&self) -> &[(RelationId, Tuple)] {
        &self.input_tuples
    }
}

pub(crate) struct Translator<'p> {
    problem: &'p Problem,
    pub(crate) circuit: Circuit,
    /// Matrices of declared relations, built once.
    rel_matrices: Vec<Matrix>,
    /// (relation, tuple) behind each circuit input, in creation order.
    pub(crate) input_tuples: Vec<(RelationId, Tuple)>,
    /// Quantified-variable environment: var id -> atom index.
    env: HashMap<u32, usize>,
}

impl<'p> Translator<'p> {
    /// Allocates the relation matrices: one input per upper-bound tuple
    /// outside the lower bound, in declaration and then tuple order.
    ///
    /// # Errors
    ///
    /// [`TranslateError::IndexOverflow`] when a relation's flat indices
    /// would overflow.
    pub(crate) fn new(problem: &'p Problem) -> Result<Translator<'p>, TranslateError> {
        let mut circuit = Circuit::new();
        let n = problem.universe().len();
        let mut rel_matrices = Vec::new();
        let mut input_tuples = Vec::new();
        for rid in problem.relation_ids() {
            let decl = problem.relation(rid);
            cell_count(n, decl.arity())?;
            let mut span = problem
                .spans()
                .map(|r| r.enter(&format!("relalg.encode.{}", decl.name())));
            let inputs_before = input_tuples.len();
            // Tuples iterate in lexicographic order, which is ascending
            // flat-index order.
            let mut cells = Vec::with_capacity(decl.upper().len());
            for t in decl.upper().iter() {
                let index = t.atoms().iter().fold(0, |i, a| i * n + a.index());
                let cell = if decl.lower().contains(t) {
                    circuit.tru()
                } else {
                    let input = circuit.input();
                    input_tuples.push((rid, t.clone()));
                    input
                };
                cells.push((index, cell));
            }
            if let Some(span) = span.as_mut() {
                span.field("arity", decl.arity() as u64);
                span.field("upper_tuples", decl.upper().len() as u64);
                span.field("primary_vars", (input_tuples.len() - inputs_before) as u64);
            }
            rel_matrices.push(Matrix::new(decl.arity(), cells));
        }
        Ok(Translator {
            problem,
            circuit,
            rel_matrices,
            input_tuples,
            env: HashMap::new(),
        })
    }

    fn n(&self) -> usize {
        self.problem.universe().len()
    }

    /// `n^arity` over this translation's universe; see [`cell_count`].
    fn cells(&self, arity: usize) -> Result<usize, TranslateError> {
        cell_count(self.n(), arity)
    }

    /// Translates an expression into its boolean matrix.
    pub(crate) fn expr(&mut self, e: &Expr) -> Result<Matrix, TranslateError> {
        let n = self.n();
        let tru = self.circuit.tru();
        Ok(match e.kind() {
            ExprKind::Relation(r) => self.rel_matrices[r.index()].clone(),
            ExprKind::Atom(a) => Matrix::new(1, [(a.index(), tru)]),
            ExprKind::Iden => self.iden()?,
            ExprKind::Univ => Matrix::new(1, (0..n).map(|a| (a, tru))),
            ExprKind::Empty(a) => {
                self.cells(*a)?;
                Matrix::new(*a, Vec::new())
            }
            ExprKind::Var(v) => Matrix::new(1, [(self.bound_atom(v)?, tru)]),
            ExprKind::Union(a, b) => {
                let (ma, mb) = self.same_arity("set operation", a, b)?;
                self.zip(&ma, &mb, |c, x, y| c.or2(x, y))
            }
            ExprKind::Intersect(a, b) => {
                let (ma, mb) = self.same_arity("set operation", a, b)?;
                self.zip(&ma, &mb, |c, x, y| c.and2(x, y))
            }
            ExprKind::Difference(a, b) => {
                let (ma, mb) = self.same_arity("set operation", a, b)?;
                self.zip(&ma, &mb, |c, x, y| c.and2(x, !y))
            }
            ExprKind::Join(a, b) => {
                let atom = match a.kind() {
                    ExprKind::Atom(x) => Some(x.index()),
                    ExprKind::Var(v) => Some(self.bound_atom(v)?),
                    _ => None,
                };
                match (atom, b.kind()) {
                    (Some(atom), ExprKind::Relation(r)) => {
                        self.row(atom, &self.rel_matrices[r.index()])?
                    }
                    (Some(atom), _) => {
                        let mb = self.expr(b)?;
                        self.row(atom, &mb)?
                    }
                    (None, _) => {
                        let (ma, mb) = (self.expr(a)?, self.expr(b)?);
                        self.join(&ma, &mb)?
                    }
                }
            }
            ExprKind::Product(a, b) => {
                let (ma, mb) = (self.expr(a)?, self.expr(b)?);
                self.product(&ma, &mb)?
            }
            ExprKind::Transpose(a) => {
                let ma = self.binary("transpose", a)?;
                let mut cells: Vec<(usize, B)> = ma
                    .cells
                    .iter()
                    .map(|&(i, cell)| ((i % n) * n + i / n, cell))
                    .collect();
                cells.sort_unstable_by_key(|&(i, _)| i);
                Matrix::new(2, cells)
            }
            ExprKind::Closure(a) => {
                let ma = self.binary("closure", a)?;
                self.closure(&ma)?
            }
            ExprKind::ReflexiveClosure(a) => {
                let ma = self.binary("closure", a)?;
                let m = self.closure(&ma)?;
                let iden = self.iden()?;
                // `x ∨ true` folds to true without creating a gate.
                self.zip(&m, &iden, |c, x, y| c.or2(x, y))
            }
            ExprKind::IfThenElse(c, t, e2) => {
                let cond = self.formula(c)?;
                let (mt, me) = self.same_arity("if-then-else branches", t, e2)?;
                self.zip(&mt, &me, |cc, x, y| cc.ite(cond, x, y))
            }
            ExprKind::Comprehension(decls, body) => {
                // Ground every combination of non-false domain cells, in
                // row-major order; each cell is (memberships ∧ body) with
                // the variables bound.
                self.cells(decls.len())?;
                let domains: Vec<Matrix> = decls
                    .iter()
                    .map(|d| self.unary(&d.domain))
                    .collect::<Result<_, _>>()?;
                let mut cells = Vec::new();
                let mut pick = vec![0usize; decls.len()];
                let mut more = domains.iter().all(|d| !d.cells.is_empty());
                while more {
                    let mut index = 0;
                    let mut guards = Vec::with_capacity(decls.len() + 1);
                    let mut prev = Vec::with_capacity(decls.len());
                    for ((d, domain), &k) in decls.iter().zip(&domains).zip(&pick) {
                        let (atom, guard) = domain.cells[k];
                        index = index * n + atom;
                        guards.push(guard);
                        prev.push(self.env.insert(d.var.id(), atom));
                    }
                    let b = self.formula(body)?;
                    for (d, p) in decls.iter().zip(prev) {
                        self.restore(d.var.id(), p);
                    }
                    guards.push(b);
                    let cell = self
                        .circuit
                        .and_many(guards.len(), guards.into_iter().enumerate());
                    cells.push((index, cell));
                    // Odometer increment, last variable fastest.
                    match (0..pick.len())
                        .rev()
                        .find(|&k| pick[k] + 1 < domains[k].cells.len())
                    {
                        Some(k) => {
                            pick[k] += 1;
                            pick[k + 1..].fill(0);
                        }
                        None => more = false,
                    }
                }
                Matrix::new(decls.len(), cells)
            }
        })
    }

    /// The identity relation: true on the diagonal.
    fn iden(&self) -> Result<Matrix, TranslateError> {
        let n = self.n();
        self.cells(2)?;
        let tru = self.circuit.tru();
        Ok(Matrix::new(2, (0..n).map(|a| (a * n + a, tru))))
    }

    /// Translates the two operands of an operator that needs them to share
    /// an arity: a set operator, `in`, `=`, or the branches of an
    /// if-then-else.
    ///
    /// # Errors
    ///
    /// [`TranslateError::ArityMismatch`] when the arities differ.
    fn same_arity(
        &mut self,
        what: &str,
        a: &Expr,
        b: &Expr,
    ) -> Result<(Matrix, Matrix), TranslateError> {
        let (ma, mb) = (self.expr(a)?, self.expr(b)?);
        if ma.arity != mb.arity {
            return Err(TranslateError::ArityMismatch {
                context: format!("{what} of arities {} and {}", ma.arity, mb.arity),
            });
        }
        Ok((ma, mb))
    }

    /// Translates the operand of a transpose or closure, which must be
    /// binary.
    ///
    /// # Errors
    ///
    /// [`TranslateError::ArityMismatch`] for any other arity.
    fn binary(&mut self, what: &str, a: &Expr) -> Result<Matrix, TranslateError> {
        let m = self.expr(a)?;
        if m.arity != 2 {
            return Err(TranslateError::ArityMismatch {
                context: format!("{what} of arity {}", m.arity),
            });
        }
        Ok(m)
    }

    /// Translates a quantifier domain or `sum` argument, which must be
    /// unary.
    ///
    /// # Errors
    ///
    /// [`TranslateError::NonUnaryDomain`] for any other arity.
    fn unary(&mut self, domain: &Expr) -> Result<Matrix, TranslateError> {
        let m = self.expr(domain)?;
        if m.arity != 1 {
            return Err(TranslateError::NonUnaryDomain { arity: m.arity });
        }
        Ok(m)
    }

    /// Applies `f` cell by cell to two matrices of equal arity, over the
    /// union of their non-false cells in ascending index order. A cell
    /// absent from one side reaches `f` as constant false; the cells absent
    /// from both are skipped, which is sound because every operator passed
    /// here folds `f(false, false)` to false without creating a gate.
    fn zip(
        &mut self,
        a: &Matrix,
        b: &Matrix,
        mut f: impl FnMut(&mut Circuit, B, B) -> B,
    ) -> Matrix {
        debug_assert_eq!(a.arity, b.arity);
        let fls = self.circuit.fls();
        let (mut i, mut j) = (0, 0);
        let mut out = Vec::with_capacity(a.cells.len().max(b.cells.len()));
        loop {
            let (index, x, y) = match (a.cells.get(i), b.cells.get(j)) {
                (None, None) => break,
                (Some(&(p, x)), Some(&(q, y))) if p == q => {
                    i += 1;
                    j += 1;
                    (p, x, y)
                }
                (Some(&(p, x)), Some(&(q, _))) if p < q => {
                    i += 1;
                    (p, x, fls)
                }
                (Some(&(p, x)), None) => {
                    i += 1;
                    (p, x, fls)
                }
                (_, Some(&(q, y))) => {
                    j += 1;
                    (q, fls, y)
                }
            };
            out.push((index, f(&mut self.circuit, x, y)));
        }
        Matrix::new(a.arity, out)
    }

    /// `atom.b`: the row of `b` whose first column is `atom`, with that
    /// column dropped.
    ///
    /// This is [`join`](Translator::join) with a left operand of one
    /// constant-true unary cell. There each output cell has the single
    /// conjunct `true ∧ y`, which folds to `y`, and its one-disjunct
    /// disjunction is `y` again, so the join creates no gate and yields
    /// these cells.
    fn row(&self, atom: usize, b: &Matrix) -> Result<Matrix, TranslateError> {
        let arity = join_arity(1, b.arity)?;
        let stride = self.cells(arity)?;
        let (from, to) = (atom * stride, (atom + 1) * stride);
        let start = b.cells.partition_point(|&(i, _)| i < from);
        let cells = b.cells[start..]
            .iter()
            .take_while(|&&(i, _)| i < to)
            .map(|&(i, cell)| (i - from, cell))
            .collect();
        Ok(Matrix { arity, cells })
    }

    /// Relational join: match last column of `a` with first column of `b`.
    ///
    /// Only pairs of non-false cells that share the middle atom are
    /// visited. They are conjoined in (output cell, middle atom) order and
    /// each output cell's conjunctions are then disjoined — the order in
    /// which a dense join, looping over output cells and then middle atoms,
    /// creates its gates.
    fn join(&mut self, a: &Matrix, b: &Matrix) -> Result<Matrix, TranslateError> {
        let n = self.n();
        let arity = join_arity(a.arity, b.arity)?;
        self.cells(arity)?;
        // Cells of `b` per value of its first column.
        let stride = self.cells(b.arity - 1)?;
        let mut pairs = Vec::new();
        for &(ia, x) in &a.cells {
            let (left, mid) = (ia / n, ia % n);
            let from = b.cells.partition_point(|&(ib, _)| ib < mid * stride);
            for &(ib, y) in b.cells[from..]
                .iter()
                .take_while(|&&(ib, _)| ib < (mid + 1) * stride)
            {
                pairs.push((left * stride + ib % stride, mid, x, y));
            }
        }
        pairs.sort_unstable_by_key(|&(out, mid, _, _)| (out, mid));
        let mut cells = Vec::new();
        let mut disjuncts = Vec::new();
        for group in pairs.chunk_by(|p, q| p.0 == q.0) {
            disjuncts.clear();
            for &(_, _, x, y) in group {
                let both = self.circuit.and2(x, y);
                if !both.is_const_false() {
                    disjuncts.push(both);
                }
            }
            let cell = self
                .circuit
                .or_many(disjuncts.len(), disjuncts.iter().copied().enumerate());
            cells.push((group[0].0, cell));
        }
        Ok(Matrix::new(arity, cells))
    }

    fn product(&mut self, a: &Matrix, b: &Matrix) -> Result<Matrix, TranslateError> {
        let arity = a.arity + b.arity;
        self.cells(arity)?;
        let stride = self.cells(b.arity)?;
        let mut cells = Vec::with_capacity(a.cells.len() * b.cells.len());
        for &(ia, x) in &a.cells {
            for &(ib, y) in &b.cells {
                cells.push((ia * stride + ib, self.circuit.and2(x, y)));
            }
        }
        Ok(Matrix::new(arity, cells))
    }

    /// Transitive closure by iterated squaring.
    fn closure(&mut self, a: &Matrix) -> Result<Matrix, TranslateError> {
        let n = self.n();
        let mut acc = a.clone();
        let mut steps = 1usize;
        while steps < n {
            // acc = acc | acc.acc
            let squared = self.join(&acc, &acc)?;
            acc = self.zip(&acc, &squared, |c, x, y| c.or2(x, y));
            steps *= 2;
        }
        Ok(acc)
    }

    /// "At most one cell of `m` is true": the pairwise encoding over all
    /// `len` cells. Pair `(i, j)`, `i < j`, sits at its row-major position
    /// `i·len − i(i+1)/2 + (j−i−1)` among the `len·(len−1)/2` pairs.
    ///
    /// # Errors
    ///
    /// [`TranslateError::IndexOverflow`] when the pair count does not fit
    /// in a `usize`.
    fn at_most_one(&mut self, m: &Matrix, len: usize) -> Result<B, TranslateError> {
        // Positions are computed in u128, where they cannot wrap; each is
        // below the pair count, so once that fits a usize, so do they.
        let wide = len as u128;
        let pairs = usize::try_from(wide * wide.saturating_sub(1) / 2).map_err(|_| {
            TranslateError::IndexOverflow {
                context: format!("the at-most-one pairs of {len} cells"),
            }
        })?;
        let mut constraints = Vec::new();
        for (k, &(i, x)) in m.cells.iter().enumerate() {
            let row = i as u128 * (2 * wide - i as u128 - 1) / 2;
            for &(j, y) in &m.cells[k + 1..] {
                let both = self.circuit.and2(x, y);
                constraints.push(((row + (j - i - 1) as u128) as usize, !both));
            }
        }
        Ok(self.circuit.and_many(pairs, constraints))
    }

    /// Translates a formula into a circuit edge.
    pub(crate) fn formula(&mut self, f: &Formula) -> Result<B, TranslateError> {
        Ok(match f.kind() {
            FormulaKind::Const(b) => self.circuit.constant(*b),
            FormulaKind::Subset(a, b) => {
                let (ma, mb) = self.same_arity("subset", a, b)?;
                self.subset(&ma, &mb)?
            }
            FormulaKind::Equal(a, b) => {
                // The gates of `a in b and b in a`, in its order, from one
                // translation of each side (see the module docs).
                let (ma, mb) = self.same_arity("equality", a, b)?;
                let sub1 = self.subset(&ma, &mb)?;
                let sub2 = self.subset(&mb, &ma)?;
                self.circuit.and2(sub1, sub2)
            }
            FormulaKind::NonEmpty(e) => {
                let m = self.expr(e)?;
                self.circuit.or_many(self.cells(m.arity)?, m.cells)
            }
            FormulaKind::IsEmpty(e) => {
                let m = self.expr(e)?;
                let some = self.circuit.or_many(self.cells(m.arity)?, m.cells);
                !some
            }
            FormulaKind::ExactlyOne(e) => {
                let m = self.expr(e)?;
                let len = self.cells(m.arity)?;
                let amo = self.at_most_one(&m, len)?;
                let alo = self.circuit.or_many(len, m.cells);
                self.circuit.and2(amo, alo)
            }
            FormulaKind::AtMostOne(e) => {
                let m = self.expr(e)?;
                let len = self.cells(m.arity)?;
                self.at_most_one(&m, len)?
            }
            FormulaKind::Not(g) => {
                let x = self.formula(g)?;
                !x
            }
            FormulaKind::And(gs) => {
                let mut edges = Vec::with_capacity(gs.len());
                for g in gs {
                    edges.push(self.formula(g)?);
                }
                self.circuit
                    .and_many(edges.len(), edges.into_iter().enumerate())
            }
            FormulaKind::Or(gs) => {
                let mut edges = Vec::with_capacity(gs.len());
                for g in gs {
                    edges.push(self.formula(g)?);
                }
                self.circuit
                    .or_many(edges.len(), edges.into_iter().enumerate())
            }
            FormulaKind::Implies(p, q) => {
                let (x, y) = (self.formula(p)?, self.formula(q)?);
                self.circuit.implies(x, y)
            }
            FormulaKind::Iff(p, q) => {
                let (x, y) = (self.formula(p)?, self.formula(q)?);
                self.circuit.iff2(x, y)
            }
            FormulaKind::ForAll(d, body) => {
                let dm = self.unary(&d.domain)?;
                let mut edges = Vec::with_capacity(dm.cells.len());
                for &(atom, guard) in &dm.cells {
                    let prev = self.env.insert(d.var.id(), atom);
                    let b = self.formula(body)?;
                    self.restore(d.var.id(), prev);
                    edges.push(self.circuit.implies(guard, b));
                }
                self.circuit
                    .and_many(edges.len(), edges.into_iter().enumerate())
            }
            FormulaKind::Exists(d, body) => {
                let dm = self.unary(&d.domain)?;
                let mut edges = Vec::with_capacity(dm.cells.len());
                for &(atom, guard) in &dm.cells {
                    let prev = self.env.insert(d.var.id(), atom);
                    let b = self.formula(body)?;
                    self.restore(d.var.id(), prev);
                    edges.push(self.circuit.and2(guard, b));
                }
                self.circuit
                    .or_many(edges.len(), edges.into_iter().enumerate())
            }
            FormulaKind::IntCmp(op, a, b) => {
                let (x, y) = (self.int_expr(a)?, self.int_expr(b)?);
                match op {
                    CmpOp::Lt => self.circuit.bv_lt(&x, &y),
                    CmpOp::Le => self.circuit.bv_le(&x, &y),
                    CmpOp::Gt => self.circuit.bv_lt(&y, &x),
                    CmpOp::Ge => self.circuit.bv_le(&y, &x),
                    CmpOp::Eq => self.circuit.bv_eq(&x, &y),
                    CmpOp::Ne => {
                        let eq = self.circuit.bv_eq(&x, &y);
                        !eq
                    }
                }
            }
        })
    }

    /// `a in b` for two matrices of equal arity: `no (a - b)`, gate for
    /// gate. The conjunction of the implications `p → q` is the negated
    /// disjunction of the differences `p ∧ ¬q`.
    fn subset(&mut self, a: &Matrix, b: &Matrix) -> Result<B, TranslateError> {
        let difference = self.zip(a, b, |c, p, q| c.and2(p, !q));
        let some = self.circuit.or_many(self.cells(a.arity)?, difference.cells);
        Ok(!some)
    }

    /// The atom a quantified variable is bound to.
    fn bound_atom(&self, v: &QuantVar) -> Result<usize, TranslateError> {
        self.env
            .get(&v.id())
            .copied()
            .ok_or_else(|| TranslateError::UnboundVar(v.name().to_string()))
    }

    fn restore(&mut self, id: u32, prev: Option<usize>) {
        match prev {
            Some(v) => {
                self.env.insert(id, v);
            }
            None => {
                self.env.remove(&id);
            }
        }
    }

    /// Translates an integer expression into a bit vector.
    pub(crate) fn int_expr(&mut self, ie: &IntExpr) -> Result<BitVec, TranslateError> {
        Ok(match ie.kind() {
            IntExprKind::Const(v) => {
                let w = bits_for(*v);
                BitVec::constant(&self.circuit, *v, w)
            }
            IntExprKind::Card(e) => {
                let m = self.expr(e)?;
                let live: Vec<B> = m.cells.iter().map(|&(_, cell)| cell).collect();
                self.circuit.bv_count(&live)
            }
            IntExprKind::SumValues(e) => {
                let m = self.unary(e)?;
                let mut terms = Vec::with_capacity(m.cells.len());
                for &(atom, cell) in &m.cells {
                    let aid = AtomId::from_index(atom);
                    let value = self.problem.universe().int_value(aid).ok_or_else(|| {
                        TranslateError::NonIntAtom {
                            atom: self.problem.universe().name(aid).to_string(),
                        }
                    })?;
                    let w = bits_for(value);
                    let v = BitVec::constant(&self.circuit, value, w);
                    let zero = BitVec::constant(&self.circuit, 0, w);
                    terms.push(self.circuit.bv_ite(cell, &v, &zero));
                }
                self.circuit.bv_sum(terms)
            }
            IntExprKind::Add(a, b) => {
                let (x, y) = (self.int_expr(a)?, self.int_expr(b)?);
                self.circuit.bv_add(&x, &y)
            }
            IntExprKind::Sub(a, b) => {
                let (x, y) = (self.int_expr(a)?, self.int_expr(b)?);
                self.circuit.bv_sub(&x, &y)
            }
            IntExprKind::Neg(a) => {
                let x = self.int_expr(a)?;
                self.circuit.bv_neg(&x)
            }
            IntExprKind::Ite(c, t, e) => {
                let cond = self.formula(c)?;
                let (x, y) = (self.int_expr(t)?, self.int_expr(e)?);
                self.circuit.bv_ite(cond, &x, &y)
            }
        })
    }
}

/// The arity of a join of arities `a` and `b`: `a + b − 2`.
///
/// # Errors
///
/// [`TranslateError::ArityMismatch`] when that is below 1.
fn join_arity(a: usize, b: usize) -> Result<usize, TranslateError> {
    if a + b < 3 {
        return Err(TranslateError::ArityMismatch {
            context: format!("join of arities {a} and {b} would have arity < 1"),
        });
    }
    Ok(a + b - 2)
}

/// Minimal signed width able to represent `v`.
fn bits_for(v: i64) -> usize {
    let mut w = 2;
    while w < 63 {
        let lo = -(1i64 << (w - 1));
        let hi = (1i64 << (w - 1)) - 1;
        if (lo..=hi).contains(&v) {
            return w;
        }
        w += 1;
    }
    63
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::TupleSet;
    use crate::universe::Universe;

    /// A problem over `atoms` atoms with one free relation of `arity`
    /// whose upper bound is the given tuples (by atom index).
    fn one_relation(atoms: usize, arity: usize, upper: &[&[usize]]) -> (Problem, Expr) {
        let mut u = Universe::new();
        let ids = u.add_atoms("A", atoms);
        let mut p = Problem::new(u);
        let mut bound = TupleSet::new(arity);
        for t in upper {
            bound.insert(Tuple::new(t.iter().map(|&i| ids[i]).collect::<Vec<_>>()));
        }
        let r = p.declare_relation("r", TupleSet::new(arity), bound);
        (p, Expr::relation(r))
    }

    #[test]
    fn one_and_lone_count_the_true_cells() {
        let (p, r) = one_relation(6, 1, &[&[0], &[2], &[3], &[5]]);
        let count = |f: &Formula| p.enumerate(f, 64, |_| true).expect("translates");
        // 4 free tuples: 1 empty instance + 4 singletons.
        assert_eq!(count(&r.lone()), 5);
        assert_eq!(count(&r.one()), 4);
        assert_eq!(count(&r.one().not()), 16 - 4);
    }

    #[test]
    fn flat_indices_that_would_overflow_are_an_error() {
        // 70,000⁴ ≈ 2.4·10¹⁹ cells exceed u64::MAX ≈ 1.8·10¹⁹.
        let (p, r) = one_relation(70_000, 4, &[&[0, 1, 2, 3]]);
        let err = p.translate(&r.some()).unwrap_err();
        assert!(matches!(err, TranslateError::IndexOverflow { .. }), "{err}");
        // An arity-3 relation over the same atoms fits.
        let (p, r) = one_relation(70_000, 3, &[&[0, 1, 2], &[3, 4, 5]]);
        assert!(p.translate(&r.some()).is_ok());
    }

    #[test]
    fn at_most_one_pair_positions_that_would_overflow_are_an_error() {
        // 10¹⁰ cells fit a flat index, but their ~5·10¹⁹ pairs do not.
        let (p, r) = one_relation(100_000, 2, &[&[0, 1], &[1, 0]]);
        assert!(p.translate(&r.some()).is_ok());
        let err = p.translate(&r.lone()).unwrap_err();
        assert!(matches!(err, TranslateError::IndexOverflow { .. }), "{err}");
    }

    /// `atom.b` and `v.b`, with `v` bound to the atom, translate as a row
    /// slice of `b`. Each slice equals the general join of the one-cell
    /// matrix `{atom ↦ true}` with `b`, cell for cell, and neither creates
    /// a gate. The right operands are relations of arity 2, 3 and 4 with
    /// lower-bound cells, and two joins that do create gates.
    #[test]
    fn row_slices_equal_the_general_join() {
        let mut u = Universe::new();
        let ids = u.add_atoms("A", 4);
        let mut p = Problem::new(u);
        let tuples = |arity, of: &[&[usize]]| {
            let mut set = TupleSet::new(arity);
            for t in of {
                set.insert(Tuple::new(t.iter().map(|&i| ids[i]).collect::<Vec<_>>()));
            }
            set
        };
        // Atom 1 starts no tuple of `r2`, and atom 3 (the last) starts a
        // lower-bound tuple of every relation.
        let r2 = p.declare_relation(
            "r2",
            tuples(2, &[&[0, 3], &[3, 1]]),
            tuples(2, &[&[0, 1], &[0, 3], &[2, 0], &[2, 2], &[3, 1], &[3, 3]]),
        );
        let r3 = p.declare_relation(
            "r3",
            tuples(3, &[&[0, 2, 3], &[3, 3, 2]]),
            tuples(
                3,
                &[&[0, 0, 1], &[0, 2, 3], &[1, 1, 0], &[3, 0, 0], &[3, 3, 2]],
            ),
        );
        let r4 = p.declare_relation(
            "r4",
            tuples(4, &[&[2, 2, 2, 2], &[3, 3, 3, 3]]),
            tuples(
                4,
                &[&[0, 1, 2, 3], &[2, 2, 2, 2], &[3, 0, 1, 2], &[3, 3, 3, 3]],
            ),
        );
        let (r2, r3, r4) = (Expr::relation(r2), Expr::relation(r3), Expr::relation(r4));
        let rights = [
            r2.clone(),
            r3.clone(),
            r4.clone(),
            r2.join(&r3),
            r4.join(&Expr::univ()),
        ];
        let v = QuantVar::fresh("v");
        let (mut empty_rows, mut true_cells) = (0, 0);
        for b in &rights {
            for (a, &atom) in ids.iter().enumerate() {
                let mut general = Translator::new(&p).expect("translates");
                let mb = general.expr(b).expect("translates");
                let gates = general.circuit.num_gates();
                let one = Matrix::new(1, [(a, general.circuit.tru())]);
                let joined = general.join(&one, &mb).expect("translates");
                assert_eq!(general.circuit.num_gates(), gates, "{atom:?}.{b:?}");
                empty_rows += usize::from(joined.cells.is_empty());
                true_cells += joined.cells.iter().filter(|c| c.1.is_const_true()).count();
                for left in [Expr::atom(atom), v.expr()] {
                    let mut sliced = Translator::new(&p).expect("translates");
                    sliced.env.insert(v.id(), a);
                    let m = sliced.expr(&left.join(b)).expect("translates");
                    assert_eq!(m.arity, joined.arity, "{left:?}.{b:?}");
                    assert_eq!(m.cells, joined.cells, "{left:?}.{b:?}");
                    assert_eq!(sliced.circuit.num_gates(), gates, "{left:?}.{b:?}");
                }
            }
        }
        assert!(empty_rows > 0 && true_cells > 0, "the cases cover both");
        let err = p
            .translate(&Expr::atom(ids[0]).join(&Expr::atom(ids[1])).some())
            .unwrap_err();
        assert!(matches!(err, TranslateError::ArityMismatch { .. }), "{err}");
    }

    /// Every operator with an arity constraint checks it on its translated
    /// operands: each ill-formed formula fails with the expected error, and
    /// its well-formed twin translates.
    #[test]
    fn operators_check_arities_on_their_translated_operands() {
        let mut u = Universe::new();
        let ids = u.add_atoms("A", 3);
        let ints = u.add_int_atoms(1..=2);
        let mut p = Problem::new(u);
        let upper = |arity| {
            let mut set = TupleSet::new(arity);
            for &a in &ids {
                for &b in &ids {
                    set.insert(Tuple::new(vec![a, b][..arity].to_vec()));
                }
            }
            set
        };
        let s = Expr::relation(p.declare_relation("s", TupleSet::new(1), upper(1)));
        let r = Expr::relation(p.declare_relation("r", TupleSet::new(2), upper(2)));
        let n =
            Expr::relation(p.declare_relation("n", TupleSet::new(1), TupleSet::from_atoms(ints)));
        let (atom, v) = (Expr::atom(ids[0]), QuantVar::fresh("v"));
        let cond = s.some();
        // Each is (label, ill-formed, well-formed twin).
        let mismatches = [
            ("union", s.union(&r).some(), r.union(&r).some()),
            ("intersect", r.intersect(&s).some(), r.intersect(&r).some()),
            (
                "difference",
                s.difference(&r).some(),
                s.difference(&s).some(),
            ),
            ("join", s.join(&s).some(), s.join(&r).some()),
            ("atom.relation", atom.join(&s).some(), atom.join(&r).some()),
            ("atom.atom", atom.join(&atom).some(), atom.join(&r).some()),
            (
                "var.expr",
                Formula::forall(&v, &s, &v.expr().join(&s.union(&s)).some()),
                Formula::forall(&v, &s, &v.expr().join(&r.union(&r)).some()),
            ),
            ("transpose", s.transpose().some(), r.transpose().some()),
            ("closure", s.closure().some(), r.closure().some()),
            (
                "reflexive closure",
                s.reflexive_closure().some(),
                r.reflexive_closure().some(),
            ),
            (
                "if-then-else",
                Expr::if_else(&cond, &s, &r).some(),
                Expr::if_else(&cond, &r, &r).some(),
            ),
            (
                "if-then-else branch",
                Expr::if_else(&cond, &r.join(&r.transpose()), &r.join(&s)).some(),
                Expr::if_else(&cond, &r.join(&r.transpose()), &r).some(),
            ),
            ("subset", s.in_(&r), r.in_(&r)),
            ("equal", r.equals(&s), r.equals(&r)),
            (
                "nested",
                s.union(&r.transpose()).in_(&s),
                s.union(&r.join(&s)).in_(&s),
            ),
        ];
        let domains = [
            (
                "forall",
                Formula::forall(&v, &r, &v.expr().in_(&s)),
                Formula::forall(&v, &s, &v.expr().in_(&s)),
            ),
            (
                "exists",
                Formula::exists(&v, &r, &v.expr().in_(&s)),
                Formula::exists(&v, &s, &v.expr().in_(&s)),
            ),
            (
                "comprehension",
                Expr::comprehension([(v.clone(), r.clone())], &v.expr().in_(&s)).some(),
                Expr::comprehension([(v.clone(), s.clone())], &v.expr().in_(&s)).some(),
            ),
            (
                "sum",
                r.sum_values().eq_(&IntExpr::constant(3)),
                n.sum_values().eq_(&IntExpr::constant(3)),
            ),
        ];
        let cases =
            (mismatches.iter().map(|c| (c, false))).chain(domains.iter().map(|c| (c, true)));
        for ((label, ill, twin), domain) in cases {
            match p.translate(ill) {
                Err(TranslateError::ArityMismatch { .. }) if !domain => {}
                Err(TranslateError::NonUnaryDomain { .. }) if domain => {}
                other => panic!("{label}: {ill:?} gave {other:?}"),
            }
            if let Err(e) = p.translate(twin) {
                panic!("{label}: the twin {twin:?} failed: {e}");
            }
        }
    }

    /// `a = b` emits the CNF of `a in b and b in a`, byte for byte, for
    /// operand shapes beyond the deck's: set operators, product, transpose,
    /// closure, `iden`, a comprehension, a relation with lower-bound
    /// cells, an empty side, and sides under a quantifier.
    #[test]
    fn equality_emits_the_cnf_of_both_subsets() {
        let mut u = Universe::new();
        let ids = u.add_atoms("A", 3);
        let mut p = Problem::new(u);
        let tuples = |arity, of: &[&[usize]]| {
            let mut set = TupleSet::new(arity);
            for t in of {
                set.insert(Tuple::new(t.iter().map(|&i| ids[i]).collect::<Vec<_>>()));
            }
            set
        };
        let pairs: Vec<[usize; 2]> = (0..3).flat_map(|a| (0..3).map(move |b| [a, b])).collect();
        let all: Vec<&[usize]> = pairs.iter().map(|t| &t[..]).collect();
        let s = Expr::relation(p.declare_relation(
            "s",
            TupleSet::new(1),
            tuples(1, &[&[0], &[1], &[2]]),
        ));
        let t =
            Expr::relation(p.declare_relation("t", tuples(1, &[&[2]]), tuples(1, &[&[0], &[2]])));
        let r = Expr::relation(p.declare_relation("r", TupleSet::new(2), tuples(2, &all)));
        let q = Expr::relation(p.declare_relation(
            "q",
            tuples(2, &[&[0, 1], &[2, 2]]),
            tuples(2, &[&[0, 1], &[1, 0], &[1, 2], &[2, 2]]),
        ));
        let v = QuantVar::fresh("v");
        let comprehension =
            Expr::comprehension([(v.clone(), s.clone())], &v.expr().join(&r).some());
        // The last pair mentions `v`, so it is checked under `all v: s`
        // only; the others are checked bare as well.
        let sides = [
            (r.union(&q), r.intersect(&q.transpose())),
            (s.product(&t), r.difference(&q)),
            (r.transpose(), q.clone()),
            (r.closure(), r.reflexive_closure()),
            (Expr::iden(), r.clone()),
            (comprehension, t.clone()),
            (q, r.clone()),
            (Expr::empty(2), r.clone()),
            (Expr::empty(1), Expr::empty(1)),
            (v.expr().join(&r), s.difference(&v.expr())),
        ];
        let dimacs = |f: &Formula| {
            let mut out = Vec::new();
            let cnf = p.translate(f).expect("translates").cnf;
            cnf.write_dimacs(&mut out).expect("writes");
            out
        };
        let bare = sides.len() - 1;
        for (k, (a, b)) in sides.iter().enumerate() {
            for (a, b) in [(a, b), (b, a)] {
                let (equal, both) = (a.equals(b), a.in_(b).and(&b.in_(a)));
                let quantified = |f: &Formula| Formula::forall(&v, &s, f);
                assert_eq!(
                    dimacs(&quantified(&equal)),
                    dimacs(&quantified(&both)),
                    "all v: s | {a:?} = {b:?}"
                );
                if k < bare {
                    assert_eq!(dimacs(&equal), dimacs(&both), "{a:?} = {b:?}");
                }
            }
        }
    }

    #[test]
    fn bits_for_boundaries() {
        assert_eq!(bits_for(0), 2);
        assert_eq!(bits_for(1), 2);
        assert_eq!(bits_for(-2), 2);
        assert_eq!(bits_for(2), 3);
        assert_eq!(bits_for(3), 3);
        assert_eq!(bits_for(-4), 3);
        assert_eq!(bits_for(7), 4);
        assert_eq!(bits_for(100), 8);
    }
}
