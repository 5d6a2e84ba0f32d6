//! Differential testing: the SAT translator against the ground evaluator.
//!
//! For randomly generated small problems and formulas we check, instance by
//! instance, that the SAT pipeline and the independent ground semantics
//! agree: every instance the solver enumerates satisfies the facts under
//! [`Evaluator`], and the number of instances equals the count obtained by
//! brute-force enumeration of all bound-respecting tuple assignments.

use mca_relalg::{
    CmpOp, Evaluator, Expr, Formula, IntExpr, Problem, QuantVar, RelationId, Tuple, TupleSet,
    Universe,
};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random arity-aware formula generator over two fixed relations
/// (`u`: unary, `b`: binary).
struct Gen<'a> {
    rng: &'a mut StdRng,
    /// Quantified variables currently in scope (usable as unary exprs).
    scope: Vec<QuantVar>,
}

impl Gen<'_> {
    fn unary(&mut self, depth: usize) -> Expr {
        let u = Expr::relation(RelationId::from_index(0));
        let b = Expr::relation(RelationId::from_index(1));
        if depth == 0 {
            return match self.rng.gen_range(0..4) {
                0 => u,
                1 => Expr::univ(),
                2 => Expr::empty(1),
                _ => {
                    if let Some(v) = self.pick_var() {
                        v
                    } else {
                        u
                    }
                }
            };
        }
        match self.rng.gen_range(0..8) {
            0 => {
                let (x, y) = (self.unary(depth - 1), self.unary(depth - 1));
                x.union(&y)
            }
            1 => {
                let (x, y) = (self.unary(depth - 1), self.unary(depth - 1));
                x.intersect(&y)
            }
            2 => {
                let (x, y) = (self.unary(depth - 1), self.unary(depth - 1));
                x.difference(&y)
            }
            3 => self.unary(depth - 1).join(&self.binary(depth - 1)),
            4 => self.binary(depth - 1).join(&self.unary(depth - 1)),
            5 => {
                let c = self.formula(depth - 1);
                let (x, y) = (self.unary(depth - 1), self.unary(depth - 1));
                Expr::if_else(&c, &x, &y)
            }
            6 => {
                // {x: univ | body} — unary comprehension.
                let v = QuantVar::fresh("cx");
                self.scope.push(v.clone());
                let body = self.formula(depth - 1);
                self.scope.pop();
                Expr::comprehension([(v, Expr::univ())], &body)
            }
            _ => {
                let _ = b;
                self.unary(0)
            }
        }
    }

    fn binary(&mut self, depth: usize) -> Expr {
        let b = Expr::relation(RelationId::from_index(1));
        if depth == 0 {
            return match self.rng.gen_range(0..3) {
                0 => b,
                1 => Expr::iden(),
                _ => Expr::empty(2),
            };
        }
        match self.rng.gen_range(0..7) {
            0 => {
                let (x, y) = (self.binary(depth - 1), self.binary(depth - 1));
                x.union(&y)
            }
            1 => {
                let (x, y) = (self.binary(depth - 1), self.binary(depth - 1));
                x.intersect(&y)
            }
            2 => self.binary(depth - 1).transpose(),
            3 => self.binary(depth - 1).closure(),
            4 => {
                let (x, y) = (self.unary(depth - 1), self.unary(depth - 1));
                x.product(&y)
            }
            5 => {
                // {x, y: univ | body} — binary comprehension.
                let vx = QuantVar::fresh("cx");
                let vy = QuantVar::fresh("cy");
                self.scope.push(vx.clone());
                self.scope.push(vy.clone());
                let body = self.formula(depth - 1);
                self.scope.pop();
                self.scope.pop();
                Expr::comprehension([(vx, Expr::univ()), (vy, Expr::univ())], &body)
            }
            _ => self.binary(0),
        }
    }

    fn formula(&mut self, depth: usize) -> Formula {
        if depth == 0 {
            let e = self.unary(0);
            return match self.rng.gen_range(0..4) {
                0 => e.some(),
                1 => e.no(),
                2 => e.one(),
                _ => e.lone(),
            };
        }
        match self.rng.gen_range(0..9) {
            0 => {
                let (x, y) = (self.unary(depth - 1), self.unary(depth - 1));
                x.in_(&y)
            }
            1 => {
                let (x, y) = (self.binary(depth - 1), self.binary(depth - 1));
                x.equals(&y)
            }
            2 => self.formula(depth - 1).not(),
            3 => {
                let (p, q) = (self.formula(depth - 1), self.formula(depth - 1));
                p.and(&q)
            }
            4 => {
                let (p, q) = (self.formula(depth - 1), self.formula(depth - 1));
                p.or(&q)
            }
            5 => {
                let (p, q) = (self.formula(depth - 1), self.formula(depth - 1));
                p.implies(&q)
            }
            6 => {
                // Quantifier over univ with a fresh variable.
                let v = QuantVar::fresh("q");
                self.scope.push(v.clone());
                let body = self.formula(depth - 1);
                self.scope.pop();
                if self.rng.gen_bool(0.5) {
                    Formula::forall(&v, &Expr::univ(), &body)
                } else {
                    Formula::exists(&v, &Expr::univ(), &body)
                }
            }
            7 => {
                let e = self.unary(depth - 1);
                let k = self.rng.gen_range(0..4);
                let op = match self.rng.gen_range(0..4) {
                    0 => CmpOp::Le,
                    1 => CmpOp::Ge,
                    2 => CmpOp::Eq,
                    _ => CmpOp::Lt,
                };
                e.count().cmp(op, &IntExpr::constant(k))
            }
            _ => {
                let e = self.binary(depth - 1);
                e.some()
            }
        }
    }

    fn pick_var(&mut self) -> Option<Expr> {
        if self.scope.is_empty() {
            None
        } else {
            let i = self.rng.gen_range(0..self.scope.len());
            Some(self.scope[i].expr())
        }
    }
}

/// Builds the fixed test vocabulary: 3 atoms, `u ⊆ atoms` (3 free bits) and
/// `b ⊆ atoms × atoms` restricted to 6 candidate pairs (6 free bits).
fn vocabulary() -> (Problem, Vec<TupleSet>, Vec<TupleSet>) {
    let mut universe = Universe::new();
    let atoms = universe.add_atoms("A", 3);
    let mut p = Problem::new(universe);
    let u_upper = TupleSet::from_atoms(atoms.clone());
    p.declare_relation("u", TupleSet::new(1), u_upper.clone());
    let pairs: Vec<(mca_relalg::AtomId, mca_relalg::AtomId)> = vec![
        (atoms[0], atoms[1]),
        (atoms[1], atoms[0]),
        (atoms[1], atoms[2]),
        (atoms[2], atoms[2]),
        (atoms[0], atoms[2]),
        (atoms[2], atoms[0]),
    ];
    let b_upper = TupleSet::from_pairs(pairs.clone());
    p.declare_relation("b", TupleSet::new(2), b_upper.clone());

    // All subsets of each upper bound, for ground enumeration.
    let u_tuples: Vec<Tuple> = u_upper.iter().cloned().collect();
    let b_tuples: Vec<Tuple> = b_upper.iter().cloned().collect();
    let subsets = |tuples: &[Tuple], arity: usize| -> Vec<TupleSet> {
        (0..1usize << tuples.len())
            .map(|bits| {
                let mut ts = TupleSet::new(arity);
                for (i, t) in tuples.iter().enumerate() {
                    if bits >> i & 1 == 1 {
                        ts.insert(t.clone());
                    }
                }
                ts
            })
            .collect()
    };
    let u_subsets = subsets(&u_tuples, 1);
    let b_subsets = subsets(&b_tuples, 2);
    (p, u_subsets, b_subsets)
}

#[test]
fn random_formulas_sat_count_equals_ground_count() {
    let mut rng = StdRng::seed_from_u64(0xdeb1a5e);
    for round in 0..60 {
        let (mut p, u_subsets, b_subsets) = vocabulary();
        let formula = {
            let mut g = Gen {
                rng: &mut rng,
                scope: Vec::new(),
            };
            g.formula(3)
        };
        p.require(formula.clone());

        // Ground truth: count bound-respecting assignments satisfying the
        // formula under the independent evaluator.
        let mut ground = 0usize;
        for us in &u_subsets {
            for bs in &b_subsets {
                let inst = p.instance_from_tuples(vec![us.clone(), bs.clone()]);
                let mut ev = Evaluator::new(p.universe(), &inst);
                if ev.formula(&formula).expect("well-formed by construction") {
                    ground += 1;
                }
            }
        }

        // SAT pipeline: enumerate all instances and re-check each with the
        // evaluator.
        let sat_count = p
            .enumerate(&Formula::true_(), 1 << 12, |inst| {
                let mut ev = Evaluator::new(p.universe(), inst);
                assert!(
                    ev.formula(&formula).expect("well-formed"),
                    "round {round}: SAT returned an instance violating the fact\n{formula:?}"
                );
                true
            })
            .expect("translates");

        assert_eq!(
            sat_count, ground,
            "round {round}: SAT found {sat_count} instances, ground truth {ground}\n{formula:?}"
        );
    }
}

/// Byte-identity pin over 500 generated formulas: each is asserted as the
/// only fact, and the DIMACS bytes of all translations are hashed
/// together. The generator reaches `iden`, transpose, closure, product
/// and comprehensions, which the consensus models behind the deck pins in
/// `tests/cnf_pins.rs` do not.
#[test]
fn generated_formulas_translate_to_pinned_dimacs() {
    let mut rng = StdRng::seed_from_u64(0xd1ac5);
    let mut dimacs = Vec::new();
    for _ in 0..500 {
        let (mut p, _, _) = vocabulary();
        let formula = Gen {
            rng: &mut rng,
            scope: Vec::new(),
        }
        .formula(3);
        p.require(formula);
        p.translate(&Formula::true_())
            .expect("translates")
            .cnf
            .write_dimacs(&mut dimacs)
            .expect("in-memory write");
    }
    assert_eq!(mca_relalg::fnv1a64(&dimacs), 0x4fea_a5bc_c308_66c4);
}

#[test]
fn check_agrees_with_ground_validity() {
    // `check f` is Valid iff f holds in every bound-respecting instance.
    let mut rng = StdRng::seed_from_u64(0xa11e9);
    for round in 0..40 {
        let (p, u_subsets, b_subsets) = vocabulary();
        let assertion = {
            let mut g = Gen {
                rng: &mut rng,
                scope: Vec::new(),
            };
            g.formula(2)
        };
        let mut ground_valid = true;
        'outer: for us in &u_subsets {
            for bs in &b_subsets {
                let inst = p.instance_from_tuples(vec![us.clone(), bs.clone()]);
                let mut ev = Evaluator::new(p.universe(), &inst);
                if !ev.formula(&assertion).expect("well-formed") {
                    ground_valid = false;
                    break 'outer;
                }
            }
        }
        let outcome = p.check(&assertion).expect("translates");
        assert_eq!(
            outcome.result.is_valid(),
            ground_valid,
            "round {round}: check/{ground_valid} disagreement on {assertion:?}"
        );
        // And any counterexample really refutes the assertion.
        if let Some(cx) = outcome.result.counterexample() {
            let mut ev = Evaluator::new(p.universe(), cx);
            assert!(!ev.formula(&assertion).unwrap());
        }
    }
}
