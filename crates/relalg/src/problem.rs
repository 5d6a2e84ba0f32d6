//! Bounded relational problems: declarations, bounds, facts, and solving.
//!
//! A [`Problem`] owns a [`Universe`], a set of bounded relation
//! declarations, and a conjunction of facts. It can be solved for a
//! satisfying [`Instance`], checked against an assertion (producing a
//! counterexample on failure), or enumerated — the same three operations
//! the Alloy Analyzer exposes as `run` and `check`.

use crate::ast::{Expr, Formula, RelationId};
use crate::error::TranslateError;
use crate::translate::{RelationStats, Translation, TranslationStats, Translator};
use crate::tuple::{Tuple, TupleSet};
use crate::universe::Universe;
use mca_sat::{SolveResult, SolverStats};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

/// A declared relation with its bounds.
#[derive(Clone, Debug)]
pub struct RelationDecl {
    name: String,
    lower: TupleSet,
    upper: TupleSet,
}

impl RelationDecl {
    /// The diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The arity.
    pub fn arity(&self) -> usize {
        self.upper.arity()
    }

    /// Tuples that must be in the relation.
    pub fn lower(&self) -> &TupleSet {
        &self.lower
    }

    /// Tuples that may be in the relation.
    pub fn upper(&self) -> &TupleSet {
        &self.upper
    }
}

/// A bounded relational problem.
///
/// # Examples
///
/// ```
/// use mca_relalg::{Problem, Universe, TupleSet, Expr, Outcome};
///
/// let mut u = Universe::new();
/// let atoms = u.add_atoms("N", 3);
/// let mut p = Problem::new(u);
/// let all = TupleSet::from_atoms(atoms);
/// let r = p.declare_relation("r", TupleSet::new(1), all);
/// p.require(Expr::relation(r).some());
/// let outcome = p.solve().unwrap();
/// match outcome.result {
///     Outcome::Sat(instance) => assert!(!instance.tuples(r).is_empty()),
///     Outcome::Unsat => panic!("some r must be satisfiable"),
/// }
/// ```
#[derive(Debug)]
pub struct Problem {
    universe: Universe,
    relations: Vec<RelationDecl>,
    facts: Vec<Formula>,
    spans: Option<mca_obs::SpanRecorder>,
    dedup: bool,
}

impl Problem {
    /// Creates a problem over the given universe.
    pub fn new(universe: Universe) -> Problem {
        Problem {
            universe,
            relations: Vec::new(),
            facts: Vec::new(),
            spans: None,
            dedup: true,
        }
    }

    /// Enables or disables clause deduplication during CNF emission
    /// (enabled by default). Deduplication preserves the model set — the
    /// switch exists so tests can assert verdict preservation against the
    /// raw emission.
    pub fn set_clause_dedup(&mut self, enabled: bool) {
        self.dedup = enabled;
    }

    /// Attaches a span recorder: translation emits `relalg.encode` (with
    /// per-relation `relalg.encode.<name>` children) and the solvers built
    /// by the check/solve paths inherit the recorder for `sat.*` spans.
    /// Spans are strictly opt-in — without a recorder no event is emitted
    /// and no clock is read.
    pub fn set_spans(&mut self, spans: mca_obs::SpanRecorder) {
        self.spans = Some(spans);
    }

    pub(crate) fn spans(&self) -> Option<&mca_obs::SpanRecorder> {
        self.spans.as_ref()
    }

    /// The universe of discourse.
    pub fn universe(&self) -> &Universe {
        &self.universe
    }

    /// Declares a relation with lower and upper bounds and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if the bounds disagree on arity or `lower ⊄ upper`.
    pub fn declare_relation<S: Into<String>>(
        &mut self,
        name: S,
        lower: TupleSet,
        upper: TupleSet,
    ) -> RelationId {
        assert_eq!(
            lower.arity(),
            upper.arity(),
            "lower/upper bound arity mismatch"
        );
        assert!(
            lower.is_subset_of(&upper) || lower.is_empty(),
            "lower bound must be a subset of the upper bound"
        );
        let id = RelationId(self.relations.len() as u32);
        self.relations.push(RelationDecl {
            name: name.into(),
            lower,
            upper,
        });
        id
    }

    /// Declares a relation with exact bounds (lower = upper = `tuples`).
    pub fn declare_constant<S: Into<String>>(&mut self, name: S, tuples: TupleSet) -> RelationId {
        self.declare_relation(name, tuples.clone(), tuples)
    }

    /// Adds a fact (a constraint that must hold in every instance).
    pub fn require(&mut self, f: Formula) {
        self.facts.push(f);
    }

    /// The facts added so far, in insertion order. Static analyses walk
    /// these to find relations never referenced by any constraint.
    pub fn facts(&self) -> &[Formula] {
        &self.facts
    }

    /// The declaration of a relation.
    pub fn relation(&self, id: RelationId) -> &RelationDecl {
        &self.relations[id.index()]
    }

    /// All relation ids, in declaration order.
    pub fn relation_ids(&self) -> impl Iterator<Item = RelationId> {
        (0..self.relations.len() as u32).map(RelationId)
    }

    /// Number of declared relations.
    pub fn num_relations(&self) -> usize {
        self.relations.len()
    }

    /// Translates `facts ∧ goal` to CNF, recording size statistics.
    ///
    /// Pass [`Formula::true_`] as `goal` to translate just the facts.
    ///
    /// # Errors
    ///
    /// Returns a [`TranslateError`] on ill-formed expressions (arity
    /// mismatches, unbound variables, non-integer sums) and on matrices
    /// with more cells than a `usize` index addresses.
    pub fn translate(&self, goal: &Formula) -> Result<Translation, TranslateError> {
        Ok(self.encode(goal, &[])?.0)
    }

    /// Translates the facts (asserted) plus a batch of `goals` compiled to
    /// *unasserted* goal literals, for incremental solving.
    ///
    /// The returned [`Translation`] encodes only the facts; the `i`-th
    /// returned literal is true exactly when `goals[i]` holds, but nothing
    /// forces it either way. Loading the CNF into one solver and passing a
    /// goal literal to `solve_with_assumptions` answers the same query as
    /// [`solve_with_goal`](Problem::solve_with_goal), while clauses learnt
    /// from the shared fact prefix are retained across queries. This is the
    /// seam [`incremental_checker`](Problem::incremental_checker) builds on.
    ///
    /// # Errors
    ///
    /// Returns a [`TranslateError`] on ill-formed expressions.
    pub fn translate_goals(
        &self,
        goals: &[Formula],
    ) -> Result<(Translation, Vec<mca_sat::Lit>), TranslateError> {
        self.encode(&Formula::true_(), goals)
    }

    /// The one encoder behind [`translate`](Problem::translate) and
    /// [`translate_goals`](Problem::translate_goals): `facts ∧ asserted`
    /// as the root, each of `goals` as an unasserted goal literal. The
    /// gate order (asserted formula, facts, goals) fixes the CNF byte for
    /// byte.
    fn encode(
        &self,
        asserted: &Formula,
        goals: &[Formula],
    ) -> Result<(Translation, Vec<mca_sat::Lit>), TranslateError> {
        let start = Instant::now();
        let mut span = self.spans.as_ref().map(|r| r.enter("relalg.encode"));
        let mut tr = Translator::new(self)?;
        let mut root = tr.formula(asserted)?;
        for fact in &self.facts {
            let f = tr.formula(fact)?;
            root = tr.circuit.and2(root, f);
        }
        let goal_nodes = goals
            .iter()
            .map(|g| tr.formula(g))
            .collect::<Result<Vec<_>, _>>()?;
        let emission = tr.circuit.to_cnf_opts(&[root], &goal_nodes, self.dedup);
        let (cnf, input_vars, goal_lits) = (emission.cnf, emission.input_vars, emission.goal_lits);
        let stats = TranslationStats {
            primary_vars: tr.input_tuples.len(),
            circuit_gates: tr.circuit.num_gates(),
            cnf_vars: cnf.num_vars(),
            cnf_clauses: cnf.num_clauses(),
            cnf_literals: cnf.num_literals(),
            clauses_deduped: emission.clauses_deduped,
            translation_secs: start.elapsed().as_secs_f64(),
        };
        if let Some(span) = span.as_mut() {
            span.field("primary_vars", stats.primary_vars as u64);
            span.field("cnf_vars", stats.cnf_vars as u64);
            span.field("cnf_clauses", stats.cnf_clauses as u64);
            span.field("goals", goals.len() as u64);
        }
        let relation_stats = self.relation_stats(&cnf, &input_vars, &tr.input_tuples);
        Ok((
            Translation {
                cnf,
                stats,
                relation_stats,
                input_vars,
                input_tuples: tr.input_tuples,
            },
            goal_lits,
        ))
    }

    /// Builds an [`IncrementalChecker`] over a batch of assertions.
    ///
    /// The facts are translated by
    /// [`translate_goals`](Problem::translate_goals) and loaded into a
    /// single solver **once**; each assertion is compiled to an unasserted
    /// "¬assertion" goal literal. [`IncrementalChecker::check`] then
    /// activates one goal as a solver assumption, so consecutive checks
    /// reuse both the shared CNF prefix and the clauses learnt while
    /// answering earlier checks.
    ///
    /// With `preprocess = true` the loaded formula is first simplified
    /// in-place by [`mca_sat::Solver::preprocess`] (unit propagation,
    /// subsumption, self-subsuming resolution); verdicts are unchanged
    /// because preprocessing preserves the model set.
    ///
    /// # Errors
    ///
    /// Returns a [`TranslateError`] on ill-formed formulas.
    pub fn incremental_checker(
        &self,
        assertions: &[Formula],
        preprocess: bool,
    ) -> Result<IncrementalChecker<'_>, TranslateError> {
        let goals: Vec<Formula> = assertions.iter().map(|a| a.not()).collect();
        let (translation, goal_lits) = self.translate_goals(&goals)?;
        let mut solver = self.new_solver();
        solver.add_cnf(&translation.cnf);
        let simplify = preprocess.then(|| solver.preprocess());
        Ok(IncrementalChecker {
            problem: self,
            translation,
            goal_lits,
            solver,
            simplify,
        })
    }

    /// A fresh solver inheriting the span recorder.
    fn new_solver(&self) -> mca_sat::Solver {
        let mut solver = mca_sat::Solver::new();
        if let Some(spans) = &self.spans {
            solver.set_spans(spans.clone());
        }
        solver
    }

    /// Per-relation primary-variable and clause-incidence counts: one pass
    /// mapping each primary CNF variable back to its declaring relation,
    /// then one pass over the clauses counting, per relation, the clauses
    /// touching at least one of its variables.
    fn relation_stats(
        &self,
        cnf: &mca_sat::CnfFormula,
        input_vars: &[mca_sat::Var],
        input_tuples: &[(RelationId, Tuple)],
    ) -> Vec<RelationStats> {
        let mut out: Vec<RelationStats> = self
            .relations
            .iter()
            .map(|decl| RelationStats {
                name: decl.name().to_string(),
                arity: decl.arity(),
                primary_vars: 0,
                clauses: 0,
            })
            .collect();
        let mut var_to_rel: Vec<Option<u32>> = vec![None; cnf.num_vars()];
        for (var, (rid, _)) in input_vars.iter().zip(input_tuples) {
            var_to_rel[var.index()] = Some(rid.0);
            out[rid.index()].primary_vars += 1;
        }
        // `seen_in_clause` avoids double-counting a clause with several
        // variables of the same relation; reset lazily via a stamp.
        let mut stamp = vec![0u32; self.relations.len()];
        for (i, clause) in cnf.clauses().enumerate() {
            let clause_stamp = i as u32 + 1;
            for lit in clause {
                if let Some(rel) = var_to_rel[lit.var().index()] {
                    if stamp[rel as usize] != clause_stamp {
                        stamp[rel as usize] = clause_stamp;
                        out[rel as usize].clauses += 1;
                    }
                }
            }
        }
        out
    }

    /// Finds an instance satisfying all facts.
    ///
    /// # Errors
    ///
    /// Returns a [`TranslateError`] on ill-formed formulas.
    pub fn solve(&self) -> Result<SolveOutcome, TranslateError> {
        self.solve_with_goal(&Formula::true_())
    }

    /// Finds an instance satisfying all facts **and** `goal` (Alloy `run`).
    ///
    /// # Errors
    ///
    /// Returns a [`TranslateError`] on ill-formed formulas.
    pub fn solve_with_goal(&self, goal: &Formula) -> Result<SolveOutcome, TranslateError> {
        Ok(self
            .solve_translation(self.translate(goal)?, false, false)
            .0)
    }

    /// Checks an assertion against the facts (Alloy `check`): searches for
    /// an instance satisfying the facts but violating the assertion.
    ///
    /// # Errors
    ///
    /// Returns a [`TranslateError`] on ill-formed formulas.
    pub fn check(&self, assertion: &Formula) -> Result<CheckOutcome, TranslateError> {
        Ok(check_outcome(self.solve_with_goal(&assertion.not())?))
    }

    /// Like [`check`](Problem::check), but when the assertion is valid the
    /// underlying UNSAT answer is certified with a DRAT proof verified by
    /// an independent unit-propagation checker
    /// ([`mca_sat::check_drat_stream`]). The complete trust chain for a
    /// "valid" verdict is then: translation (differentially tested against
    /// the ground evaluator) + the proof checker — not the CDCL search
    /// itself. The checker runs on a second thread while the solver loads
    /// and searches, checking each step as the solver logs it, so the
    /// check overlaps the search instead of following it.
    ///
    /// With `preprocess = true`, SatELite-style preprocessing
    /// ([`mca_sat::Solver::preprocess`]) runs before the search. Every
    /// simplification step is itself logged as a DRAT step, so the proof
    /// for a preprocessed refutation still checks against the *original*
    /// translated CNF — the trust chain is unchanged. The simplification
    /// statistics are surfaced in [`CertifiedCheck::simplify`].
    ///
    /// # Errors
    ///
    /// Returns a [`TranslateError`] on ill-formed formulas.
    pub fn check_certified(
        &self,
        assertion: &Formula,
        preprocess: bool,
    ) -> Result<CertifiedCheck, TranslateError> {
        let translation = self.translate(&assertion.not())?;
        let (outcome, certificate, simplify) =
            self.solve_translation(translation, preprocess, true);
        Ok(CertifiedCheck {
            outcome: check_outcome(outcome),
            certificate,
            simplify,
        })
    }

    /// The direct check path: loads `translation` into one solver,
    /// optionally preprocesses, solves, and decodes a model into an
    /// instance. With `certify`, the DRAT proof of an UNSAT answer is
    /// checked too ([`search_certified`](Problem::search_certified)).
    fn solve_translation(
        &self,
        translation: Translation,
        preprocess: bool,
        certify: bool,
    ) -> (
        SolveOutcome,
        Option<ProofCertificate>,
        Option<mca_sat::SimplifyStats>,
    ) {
        let (solver, result, simplify, certificate) = if certify {
            self.search_certified(&translation.cnf, preprocess)
        } else {
            let mut solver = self.new_solver();
            let (result, simplify) = search(&mut solver, &translation.cnf, preprocess);
            (solver, result, simplify, None)
        };
        let result = match result {
            SolveResult::Sat => {
                let model = solver.model().expect("model after Sat");
                Outcome::Sat(self.decode(&translation, &model))
            }
            SolveResult::Unsat => Outcome::Unsat,
        };
        let outcome = SolveOutcome {
            result,
            stats: translation.stats,
            relation_stats: translation.relation_stats,
            solver_stats: *solver.stats(),
        };
        (outcome, certificate, simplify)
    }

    /// [`search`] on a fresh solver with its DRAT proof streamed, from the
    /// first clause on, to [`mca_sat::check_drat_stream`] on a scoped
    /// thread: the checker loads `cnf` while the solver does, then checks
    /// each step as the search logs it. An UNSAT answer waits for the
    /// checker's verdict under the `sat.drat-check` span, whose
    /// `pending_steps` counts the steps still unchecked when the search
    /// returned; a SAT answer cancels the checker and has no certificate.
    /// A checker panic resumes here.
    fn search_certified(
        &self,
        cnf: &mca_sat::CnfFormula,
        preprocess: bool,
    ) -> (
        mca_sat::Solver,
        SolveResult,
        Option<mca_sat::SimplifyStats>,
        Option<ProofCertificate>,
    ) {
        let (cancel, checked) = (AtomicBool::new(false), AtomicUsize::new(0));
        let mut solver = self.new_solver();
        let proof = solver.stream_proof();
        std::thread::scope(|scope| {
            let checker = scope.spawn(|| mca_sat::check_drat_stream(cnf, proof, &cancel, &checked));
            // Owned by this closure, the solver and its end of the stream
            // drop if the search panics, so the checker stops reading
            // before the scope waits for it.
            let mut solver = solver;
            let (result, simplify) = search(&mut solver, cnf, preprocess);
            let checked_by_then = checked.load(Ordering::Relaxed);
            let steps = solver.close_proof_stream().expect("the proof is streamed");
            let join = |checker: std::thread::ScopedJoinHandle<'_, _>| {
                checker
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            };
            if result == SolveResult::Sat {
                cancel.store(true, Ordering::Relaxed);
                join(checker);
                return (solver, result, simplify, None);
            }
            let mut span = self.spans.as_ref().map(|r| r.enter("sat.drat-check"));
            let verified = join(checker) == Some(Ok(()));
            if let Some(span) = span.as_mut() {
                span.field("steps", steps as u64);
                span.field("pending_steps", (steps - checked_by_then) as u64);
                span.field("verified", u64::from(verified));
            }
            let certificate = ProofCertificate { verified, steps };
            (solver, result, simplify, Some(certificate))
        })
    }

    /// Enumerates up to `limit` instances satisfying facts ∧ `goal`,
    /// distinct on the free relation tuples. Returns the number found.
    ///
    /// # Errors
    ///
    /// Returns a [`TranslateError`] on ill-formed formulas.
    pub fn enumerate<F>(
        &self,
        goal: &Formula,
        limit: usize,
        mut on_instance: F,
    ) -> Result<usize, TranslateError>
    where
        F: FnMut(&Instance) -> bool,
    {
        let translation = self.translate(goal)?;
        let mut solver = translation.cnf.to_solver();
        let projection = translation.input_vars.clone();
        let mut count = 0;
        let found = solver.enumerate_models(&projection, limit, |model| {
            count += 1;
            on_instance(&self.decode(&translation, model))
        });
        debug_assert_eq!(found, count);
        Ok(found)
    }

    /// Builds an instance directly from explicit tuple sets — one entry per
    /// declared relation, in declaration order. Used by ground enumeration
    /// and differential tests.
    ///
    /// # Panics
    ///
    /// Panics if the number of tuple sets does not match the declarations,
    /// or any tuple set violates its relation's bounds.
    pub fn instance_from_tuples(&self, tuples: Vec<TupleSet>) -> Instance {
        assert_eq!(
            tuples.len(),
            self.relations.len(),
            "one tuple set per declared relation"
        );
        let mut relations = HashMap::new();
        for (i, ts) in tuples.into_iter().enumerate() {
            let rid = RelationId::from_index(i);
            let decl = self.relation(rid);
            assert!(
                ts.is_subset_of(decl.upper()) || ts.is_empty(),
                "tuples outside the upper bound of `{}`",
                decl.name()
            );
            assert!(
                decl.lower().is_subset_of(&ts) || decl.lower().is_empty(),
                "lower bound of `{}` not included",
                decl.name()
            );
            relations.insert(rid, ts);
        }
        Instance { relations }
    }

    /// Decodes a SAT model into a relational instance.
    fn decode(&self, translation: &Translation, model: &mca_sat::Model) -> Instance {
        let mut relations: HashMap<RelationId, TupleSet> = HashMap::new();
        for rid in self.relation_ids() {
            relations.insert(rid, self.relation(rid).lower().clone());
        }
        for (i, (rid, tuple)) in translation.input_tuples.iter().enumerate() {
            if model.value(translation.input_vars[i]) {
                relations
                    .get_mut(rid)
                    .expect("all relations pre-inserted")
                    .insert(tuple.clone());
            }
        }
        Instance { relations }
    }
}

/// Result of [`Problem::solve`]: the outcome plus translation statistics.
#[derive(Debug)]
pub struct SolveOutcome {
    /// Sat (with instance) or Unsat.
    pub result: Outcome,
    /// Translation size statistics.
    pub stats: TranslationStats,
    /// Per-relation variable and clause counts, in declaration order.
    pub relation_stats: Vec<RelationStats>,
    /// Search statistics of the SAT solver that produced the result.
    pub solver_stats: SolverStats,
}

/// Sat-or-unsat outcome of a solve.
#[derive(Debug)]
pub enum Outcome {
    /// A satisfying instance.
    Sat(Instance),
    /// No instance exists within bounds.
    Unsat,
}

impl Outcome {
    /// `true` if an instance was found.
    pub fn is_sat(&self) -> bool {
        matches!(self, Outcome::Sat(_))
    }

    /// The instance, if Sat.
    pub fn instance(&self) -> Option<&Instance> {
        match self {
            Outcome::Sat(i) => Some(i),
            Outcome::Unsat => None,
        }
    }
}

/// Loads `cnf` into `solver`, optionally preprocesses it, and solves.
fn search(
    solver: &mut mca_sat::Solver,
    cnf: &mca_sat::CnfFormula,
    preprocess: bool,
) -> (SolveResult, Option<mca_sat::SimplifyStats>) {
    solver.add_cnf(cnf);
    let simplify = preprocess.then(|| solver.preprocess());
    (solver.solve(), simplify)
}

/// Result of [`Problem::check_certified`].
#[derive(Debug)]
pub struct CertifiedCheck {
    /// The ordinary check outcome.
    pub outcome: CheckOutcome,
    /// Present when the assertion was valid: the refutation certificate.
    pub certificate: Option<ProofCertificate>,
    /// Present when preprocessing was requested
    /// ([`Problem::check_certified`] with `preprocess = true`): what the
    /// simplifier did before the search.
    pub simplify: Option<mca_sat::SimplifyStats>,
}

impl CertifiedCheck {
    /// `true` iff the assertion is valid **and** the DRAT proof verified.
    pub fn is_certified_valid(&self) -> bool {
        self.outcome.result.is_valid() && self.certificate.as_ref().is_some_and(|c| c.verified)
    }
}

/// A batch assertion checker that encodes the facts once and answers each
/// check with an assumption-activated goal literal, retaining learnt
/// clauses across checks. Built by [`Problem::incremental_checker`].
///
/// # Examples
///
/// ```
/// use mca_relalg::{Problem, Universe, TupleSet, Expr};
///
/// let mut u = Universe::new();
/// let atoms = u.add_atoms("N", 3);
/// let mut p = Problem::new(u);
/// let r = p.declare_relation("r", TupleSet::new(1), TupleSet::from_atoms(atoms));
/// p.require(Expr::relation(r).lone());
/// let assertions = [Expr::relation(r).lone(), Expr::relation(r).some()];
/// let mut inc = p.incremental_checker(&assertions, false).unwrap();
/// assert!(inc.check(0).is_valid()); // lone r is a fact
/// assert!(!inc.check(1).is_valid()); // nothing forces r non-empty
/// ```
#[derive(Debug)]
pub struct IncrementalChecker<'p> {
    problem: &'p Problem,
    translation: Translation,
    goal_lits: Vec<mca_sat::Lit>,
    solver: mca_sat::Solver,
    simplify: Option<mca_sat::SimplifyStats>,
}

impl IncrementalChecker<'_> {
    /// Translation size statistics of the shared encoding (facts plus the
    /// unasserted goal circuits of every assertion).
    pub fn translation_stats(&self) -> &TranslationStats {
        &self.translation.stats
    }

    /// What the preprocessor did, when the checker was built with
    /// `preprocess = true`.
    pub fn simplify_stats(&self) -> Option<&mca_sat::SimplifyStats> {
        self.simplify.as_ref()
    }

    /// Cumulative search statistics of the shared solver across all checks
    /// so far.
    pub fn solver_stats(&self) -> &SolverStats {
        self.solver.stats()
    }

    /// Checks assertion `i` (as passed to
    /// [`Problem::incremental_checker`]): searches for an instance of the
    /// facts violating it by assuming the corresponding "¬assertion" goal
    /// literal. Verdicts match a fresh
    /// [`Problem::check`] of the same assertion.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn check(&mut self, i: usize) -> Check {
        let goal = self.goal_lits[i];
        match self.solver.solve_with_assumptions(&[goal]) {
            SolveResult::Sat => {
                let model = self.solver.model().expect("model after Sat");
                Check::Counterexample(self.problem.decode(&self.translation, &model))
            }
            SolveResult::Unsat => Check::Valid,
        }
    }

    /// Whether the fact-only premise is satisfiable: solves the shared
    /// encoding with **no** goal assumed. When this returns `false` the
    /// facts are inconsistent and every [`check`](IncrementalChecker::check)
    /// verdict is *vacuously* valid — no instance exists to violate (or
    /// witness) anything. The vacuity detector in `mca-lint` and the
    /// `vacuous` flag on consensus checks are both built on this query.
    pub fn premise_satisfiable(&mut self) -> bool {
        self.solver.solve_with_assumptions(&[]) == SolveResult::Sat
    }
}

/// A verified refutation certificate.
#[derive(Clone, Copy, Debug)]
pub struct ProofCertificate {
    /// `true` if the independent DRAT checker accepted the proof.
    pub verified: bool,
    /// Number of proof steps.
    pub steps: usize,
}

/// Result of [`Problem::check`].
#[derive(Debug)]
pub struct CheckOutcome {
    /// Valid or refuted (with counterexample).
    pub result: Check,
    /// Translation size statistics.
    pub stats: TranslationStats,
    /// Per-relation variable and clause counts, in declaration order.
    pub relation_stats: Vec<RelationStats>,
    /// Search statistics of the SAT solver that produced the result.
    pub solver_stats: SolverStats,
}

/// Valid-or-counterexample outcome of an assertion check.
#[derive(Debug)]
pub enum Check {
    /// The assertion holds in every instance within bounds.
    Valid,
    /// The assertion is violated by this instance.
    Counterexample(Instance),
}

impl Check {
    /// `true` if the assertion holds within bounds.
    pub fn is_valid(&self) -> bool {
        matches!(self, Check::Valid)
    }

    /// The refuting instance, if any.
    pub fn counterexample(&self) -> Option<&Instance> {
        match self {
            Check::Valid => None,
            Check::Counterexample(i) => Some(i),
        }
    }
}

/// Reads a solve of `facts ∧ ¬assertion` as a check of the assertion.
fn check_outcome(outcome: SolveOutcome) -> CheckOutcome {
    CheckOutcome {
        result: match outcome.result {
            Outcome::Sat(instance) => Check::Counterexample(instance),
            Outcome::Unsat => Check::Valid,
        },
        stats: outcome.stats,
        relation_stats: outcome.relation_stats,
        solver_stats: outcome.solver_stats,
    }
}

/// A concrete binding of every declared relation to a tuple set.
#[derive(Clone, Debug)]
pub struct Instance {
    relations: HashMap<RelationId, TupleSet>,
}

impl Instance {
    /// The tuples of `rel` in this instance.
    ///
    /// # Panics
    ///
    /// Panics if `rel` was not declared in the originating problem.
    pub fn tuples(&self, rel: RelationId) -> &TupleSet {
        self.relations
            .get(&rel)
            .expect("relation not part of this instance")
    }

    /// Evaluates a ground expression in this instance — a convenience for
    /// inspecting counterexamples. Only relation, union, intersection,
    /// difference, product and join over declared relations are supported.
    pub fn eval(&self, e: &Expr) -> Option<TupleSet> {
        use crate::ast::ExprKind;
        match e.kind() {
            ExprKind::Relation(r) => Some(self.tuples(*r).clone()),
            ExprKind::Atom(a) => Some(TupleSet::singleton(*a)),
            ExprKind::Union(a, b) => Some(self.eval(a)?.union(&self.eval(b)?)),
            ExprKind::Intersect(a, b) => {
                let (x, y) = (self.eval(a)?, self.eval(b)?);
                Some(x.difference(&x.difference(&y)))
            }
            ExprKind::Difference(a, b) => Some(self.eval(a)?.difference(&self.eval(b)?)),
            ExprKind::Product(a, b) => Some(self.eval(a)?.product(&self.eval(b)?)),
            ExprKind::Join(a, b) => {
                let (x, y) = (self.eval(a)?, self.eval(b)?);
                if x.arity() + y.arity() < 3 {
                    return None;
                }
                let mut out: Option<TupleSet> = None;
                for ta in x.iter() {
                    for tb in y.iter() {
                        let (la, lb) = (ta.atoms(), tb.atoms());
                        if la[la.len() - 1] == lb[0] {
                            let joined: Vec<_> =
                                la[..la.len() - 1].iter().chain(&lb[1..]).copied().collect();
                            let t = crate::tuple::Tuple::new(joined);
                            match &mut out {
                                Some(ts) => {
                                    ts.insert(t);
                                }
                                None => {
                                    let mut ts = TupleSet::new(t.arity());
                                    ts.insert(t);
                                    out = Some(ts);
                                }
                            }
                        }
                    }
                }
                out.or_else(|| Some(TupleSet::new(x.arity() + y.arity() - 2)))
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::QuantVar;

    fn small_universe() -> (Universe, Vec<crate::universe::AtomId>) {
        let mut u = Universe::new();
        let atoms = u.add_atoms("N", 3);
        (u, atoms)
    }

    #[test]
    fn solve_some_relation() {
        let (u, atoms) = small_universe();
        let mut p = Problem::new(u);
        let r = p.declare_relation("r", TupleSet::new(1), TupleSet::from_atoms(atoms));
        p.require(Expr::relation(r).some());
        let out = p.solve().unwrap();
        assert!(out.result.is_sat());
        assert!(!out.result.instance().unwrap().tuples(r).is_empty());
        assert!(out.stats.primary_vars == 3);
    }

    #[test]
    fn unsat_some_and_no() {
        let (u, atoms) = small_universe();
        let mut p = Problem::new(u);
        let r = p.declare_relation("r", TupleSet::new(1), TupleSet::from_atoms(atoms));
        p.require(Expr::relation(r).some());
        p.require(Expr::relation(r).no());
        let out = p.solve().unwrap();
        assert!(!out.result.is_sat());
    }

    #[test]
    fn lower_bounds_are_respected() {
        let (u, atoms) = small_universe();
        let mut p = Problem::new(u);
        let r = p.declare_relation(
            "r",
            TupleSet::from_atoms([atoms[0]]),
            TupleSet::from_atoms(atoms.clone()),
        );
        p.require(Expr::relation(r).one());
        let out = p.solve().unwrap();
        let inst = out.result.instance().unwrap();
        assert_eq!(inst.tuples(r).len(), 1);
        assert!(inst
            .tuples(r)
            .contains(&crate::tuple::Tuple::from(atoms[0])));
    }

    #[test]
    fn check_valid_and_refuted() {
        let (u, atoms) = small_universe();
        let mut p = Problem::new(u);
        let r = p.declare_relation("r", TupleSet::new(1), TupleSet::from_atoms(atoms));
        p.require(Expr::relation(r).lone());
        // Valid: r has at most one tuple by fact.
        let valid = p.check(&Expr::relation(r).lone()).unwrap();
        assert!(valid.result.is_valid());
        // Refuted: r is not necessarily non-empty.
        let refuted = p.check(&Expr::relation(r).some()).unwrap();
        assert!(!refuted.result.is_valid());
        let cx = refuted.result.counterexample().unwrap();
        assert!(cx.tuples(r).is_empty());
    }

    #[test]
    fn enumerate_counts_instances() {
        let (u, atoms) = small_universe();
        let mut p = Problem::new(u);
        let r = p.declare_relation("r", TupleSet::new(1), TupleSet::from_atoms(atoms));
        let _ = r;
        // No constraints: 2^3 instances.
        let n = p.enumerate(&Formula::true_(), 100, |_| true).unwrap();
        assert_eq!(n, 8);
    }

    #[test]
    fn quantifiers_ground_correctly() {
        let (u, atoms) = small_universe();
        let mut p = Problem::new(u);
        let r = p.declare_relation("r", TupleSet::new(2), TupleSet::full(p.universe(), 2));
        let _ = atoms;
        // all x: univ | some x.r  — every atom has an outgoing edge.
        let x = QuantVar::fresh("x");
        let body = x.expr().join(&Expr::relation(r)).some();
        p.require(Formula::forall(&x, &Expr::univ(), &body));
        let out = p.solve().unwrap();
        let inst = out.result.instance().unwrap();
        let rel = inst.tuples(r);
        for a in 0..3 {
            assert!(
                rel.iter().any(|t| t.atoms()[0].index() == a),
                "atom {a} must have an outgoing edge"
            );
        }
    }

    #[test]
    fn transpose_symmetry_fact() {
        let (u, _) = small_universe();
        let mut p = Problem::new(u);
        let r = p.declare_relation("r", TupleSet::new(2), TupleSet::full(p.universe(), 2));
        let re = Expr::relation(r);
        p.require(re.equals(&re.transpose()));
        p.require(re.some());
        let out = p.solve().unwrap();
        let inst = out.result.instance().unwrap();
        for t in inst.tuples(r).iter() {
            assert!(inst.tuples(r).contains(&t.reversed()));
        }
    }

    #[test]
    fn closure_reachability() {
        // Chain 0 -> 1 -> 2 fixed exactly; closure must contain (0, 2).
        let (u, atoms) = small_universe();
        let mut p = Problem::new(u);
        let chain = TupleSet::from_pairs([(atoms[0], atoms[1]), (atoms[1], atoms[2])]);
        let r = p.declare_constant("chain", chain);
        let re = Expr::relation(r);
        let reach = p.declare_relation("reach", TupleSet::new(2), TupleSet::full(p.universe(), 2));
        p.require(Expr::relation(reach).equals(&re.closure()));
        let out = p.solve().unwrap();
        let inst = out.result.instance().unwrap();
        let ts = inst.tuples(reach);
        assert_eq!(ts.len(), 3); // (0,1), (1,2), (0,2)
        assert!(ts.contains(&crate::tuple::Tuple::from((atoms[0], atoms[2]))));
    }

    #[test]
    fn cardinality_constraint() {
        use crate::ast::IntExpr;
        let (u, atoms) = small_universe();
        let mut p = Problem::new(u);
        let r = p.declare_relation("r", TupleSet::new(1), TupleSet::from_atoms(atoms));
        p.require(Expr::relation(r).count().eq_(&IntExpr::constant(2)));
        let out = p.solve().unwrap();
        assert_eq!(out.result.instance().unwrap().tuples(r).len(), 2);
    }

    #[test]
    fn sum_over_int_atoms() {
        use crate::ast::IntExpr;
        let mut u = Universe::new();
        let ints = u.add_int_atoms(1..=4);
        let mut p = Problem::new(u);
        let r = p.declare_relation("picked", TupleSet::new(1), TupleSet::from_atoms(ints));
        // sum of picked values = 5 with exactly two picks: {1,4} or {2,3}.
        p.require(Expr::relation(r).sum_values().eq_(&IntExpr::constant(5)));
        p.require(Expr::relation(r).count().eq_(&IntExpr::constant(2)));
        let out = p.solve().unwrap();
        let inst = out.result.instance().unwrap();
        let sum: i64 = inst
            .tuples(r)
            .iter()
            .map(|t| p.universe().int_value(t.atoms()[0]).unwrap())
            .sum();
        assert_eq!(sum, 5);
        assert_eq!(inst.tuples(r).len(), 2);
    }

    #[test]
    fn translate_error_on_bad_transpose() {
        let (u, atoms) = small_universe();
        let mut p = Problem::new(u);
        let r = p.declare_relation("r", TupleSet::new(1), TupleSet::from_atoms(atoms));
        p.require(Expr::relation(r).transpose().some());
        let err = p.solve().unwrap_err();
        assert!(matches!(err, TranslateError::ArityMismatch { .. }));
    }

    #[test]
    fn translate_error_on_unbound_var() {
        let (u, _) = small_universe();
        let mut p = Problem::new(u);
        let x = QuantVar::fresh("x");
        p.require(x.expr().some());
        let err = p.solve().unwrap_err();
        assert_eq!(err, TranslateError::UnboundVar("x".into()));
    }

    #[test]
    fn comprehension_translates() {
        // {x: univ | some x.r} = atoms with outgoing edges.
        let (u, atoms) = small_universe();
        let mut p = Problem::new(u);
        let chain = TupleSet::from_pairs([(atoms[0], atoms[1]), (atoms[1], atoms[2])]);
        let r = p.declare_constant("chain", chain);
        let x = QuantVar::fresh("x");
        let senders = Expr::comprehension(
            [(x.clone(), Expr::univ())],
            &x.expr().join(&Expr::relation(r)).some(),
        );
        let holder = p.declare_relation(
            "senders",
            TupleSet::new(1),
            TupleSet::from_atoms(atoms.clone()),
        );
        p.require(Expr::relation(holder).equals(&senders));
        let out = p.solve().unwrap();
        let inst = out.result.instance().unwrap();
        let ts = inst.tuples(holder);
        assert_eq!(ts.len(), 2);
        assert!(ts.contains(&crate::tuple::Tuple::from(atoms[0])));
        assert!(ts.contains(&crate::tuple::Tuple::from(atoms[1])));
    }

    #[test]
    fn binary_comprehension_translates() {
        // {x, y: univ | x = y} must equal iden.
        let (u, atoms) = small_universe();
        let p = Problem::new(u);
        let _ = atoms;
        let x = QuantVar::fresh("x");
        let y = QuantVar::fresh("y");
        let diag = Expr::comprehension(
            [(x.clone(), Expr::univ()), (y.clone(), Expr::univ())],
            &x.expr().equals(&y.expr()),
        );
        let valid = p.check(&diag.equals(&Expr::iden())).unwrap();
        assert!(valid.result.is_valid());
    }

    #[test]
    fn relation_stats_partition_primary_vars() {
        let (u, atoms) = small_universe();
        let mut p = Problem::new(u);
        // `fixed` is constant (no free vars); `r` unary over 3 atoms;
        // `s` binary over all 9 pairs.
        let fixed = p.declare_constant("fixed", TupleSet::from_atoms([atoms[0]]));
        let r = p.declare_relation("r", TupleSet::new(1), TupleSet::from_atoms(atoms));
        let s = p.declare_relation("s", TupleSet::new(2), TupleSet::full(p.universe(), 2));
        p.require(Expr::relation(r).some());
        p.require(Expr::relation(s).in_(&Expr::relation(r).product(&Expr::relation(r))));
        let t = p.translate(&Formula::true_()).unwrap();
        assert_eq!(t.relation_stats.len(), 3);
        let by_name = |n: &str| {
            t.relation_stats
                .iter()
                .find(|rs| rs.name == n)
                .unwrap()
                .clone()
        };
        assert_eq!(by_name("fixed").primary_vars, 0);
        assert_eq!(by_name("fixed").clauses, 0);
        assert_eq!(by_name("r").primary_vars, 3);
        assert_eq!(by_name("r").arity, 1);
        assert_eq!(by_name("s").primary_vars, 9);
        assert_eq!(by_name("s").arity, 2);
        // Every relation's primary vars sum to the translation total.
        let total: usize = t.relation_stats.iter().map(|rs| rs.primary_vars).sum();
        assert_eq!(total, t.stats.primary_vars);
        // Both constrained relations appear in some clause, and no
        // per-relation incidence count exceeds the clause total.
        assert!(by_name("r").clauses > 0);
        assert!(by_name("s").clauses > 0);
        for rs in &t.relation_stats {
            assert!(rs.clauses <= t.stats.cnf_clauses);
        }
        let _ = fixed;
    }

    #[test]
    fn solve_outcome_carries_solver_stats() {
        let (u, atoms) = small_universe();
        let mut p = Problem::new(u);
        let r = p.declare_relation("r", TupleSet::new(1), TupleSet::from_atoms(atoms));
        p.require(Expr::relation(r).some());
        let out = p.solve().unwrap();
        assert!(out.result.is_sat());
        assert_eq!(out.solver_stats.solves, 1);
        assert_eq!(out.relation_stats.len(), 1);
        let chk = p.check(&Expr::relation(r).lone()).unwrap();
        assert_eq!(chk.solver_stats.solves, 1);
        assert_eq!(chk.relation_stats[0].name, "r");
    }

    #[test]
    fn incremental_checker_matches_fresh_checks() {
        let (u, _atoms) = small_universe();
        let mut p = Problem::new(u);
        let r = p.declare_relation("r", TupleSet::new(2), TupleSet::full(p.universe(), 2));
        let re = Expr::relation(r);
        p.require(re.equals(&re.transpose()));
        p.require(re.some());
        let assertions = [
            re.some(),               // valid: a fact
            re.in_(&re.transpose()), // valid: symmetry
            re.count().eq_(&{
                use crate::ast::IntExpr;
                IntExpr::constant(1)
            }), // refutable: |r| unconstrained
            re.no(),                 // refutable: contradicts `some`
            Expr::iden().in_(&re),   // refutable
        ];
        for preprocess in [false, true] {
            let mut inc = p.incremental_checker(&assertions, preprocess).unwrap();
            assert_eq!(inc.simplify_stats().is_some(), preprocess);
            // Query out of declaration order to exercise reuse.
            for &i in &[3usize, 0, 4, 1, 2, 3, 0] {
                let fresh = p.check(&assertions[i]).unwrap();
                let incr = inc.check(i);
                assert_eq!(
                    incr.is_valid(),
                    fresh.result.is_valid(),
                    "assertion {i} disagrees (preprocess = {preprocess})"
                );
                // Counterexamples decode into real instances of the facts.
                if let Check::Counterexample(cx) = &incr {
                    for t in cx.tuples(r).iter() {
                        assert!(cx.tuples(r).contains(&t.reversed()));
                    }
                }
            }
            assert!(inc.solver_stats().solves >= 7);
            assert!(inc.translation_stats().cnf_clauses > 0);
        }
    }

    #[test]
    fn incremental_checker_unsat_facts_are_vacuously_valid() {
        let (u, atoms) = small_universe();
        let mut p = Problem::new(u);
        let r = p.declare_relation("r", TupleSet::new(1), TupleSet::from_atoms(atoms));
        p.require(Expr::relation(r).some());
        p.require(Expr::relation(r).no());
        for preprocess in [false, true] {
            let mut inc = p
                .incremental_checker(&[Expr::relation(r).some()], preprocess)
                .unwrap();
            assert!(inc.check(0).is_valid());
            // … but the premise query exposes the vacuity.
            assert!(!inc.premise_satisfiable());
        }
    }

    #[test]
    fn premise_satisfiable_on_consistent_facts() {
        let (u, atoms) = small_universe();
        let mut p = Problem::new(u);
        let r = p.declare_relation("r", TupleSet::new(1), TupleSet::from_atoms(atoms));
        p.require(Expr::relation(r).some());
        for preprocess in [false, true] {
            let mut inc = p
                .incremental_checker(&[Expr::relation(r).lone()], preprocess)
                .unwrap();
            assert!(inc.premise_satisfiable());
            // The premise query must not disturb later checks.
            assert!(!inc.check(0).is_valid());
            assert!(inc.premise_satisfiable());
        }
    }

    #[test]
    fn clause_dedup_preserves_instances_and_verdicts() {
        let build = |dedup: bool| {
            let (u, atoms) = small_universe();
            let mut p = Problem::new(u);
            p.set_clause_dedup(dedup);
            let r = p.declare_relation("r", TupleSet::new(2), TupleSet::full(p.universe(), 2));
            let re = Expr::relation(r);
            p.require(re.equals(&re.transpose()));
            let _ = atoms;
            (p, r)
        };
        let (on, r) = build(true);
        let (off, _) = build(false);
        let count = |p: &Problem| {
            let mut n = 0;
            p.enumerate(&Formula::true_(), 1000, |_| {
                n += 1;
                true
            })
            .unwrap();
            n
        };
        assert_eq!(count(&on), count(&off));
        let assertion = Expr::relation(r).in_(&Expr::relation(r).transpose());
        assert_eq!(
            on.check(&assertion).unwrap().result.is_valid(),
            off.check(&assertion).unwrap().result.is_valid()
        );
    }

    #[test]
    fn preprocessed_certified_check_verifies() {
        // Degenerate valid assertion: the negated goal collapses to
        // constant false in translation (the CNF is a lone empty clause),
        // so preprocessing reports unsat outright and the empty proof
        // certifies the formula against itself.
        let (u, atoms) = small_universe();
        let mut p = Problem::new(u);
        let r = p.declare_relation("r", TupleSet::new(1), TupleSet::from_atoms(atoms));
        p.require(Expr::relation(r).lone());
        let trivial = p.check_certified(&Expr::relation(r).lone(), true).unwrap();
        assert!(trivial.is_certified_valid());
        assert!(trivial.simplify.expect("preprocess requested").found_unsat);

        // Non-degenerate valid assertion: a total injective function on 3
        // atoms is surjective — a counting argument the preprocessor alone
        // cannot settle, so the proof interleaves logged simplification
        // steps with real search steps and must still verify against the
        // *original* translated CNF.
        let (u2, _) = small_universe();
        let mut p2 = Problem::new(u2);
        let f = p2.declare_relation("f", TupleSet::new(2), TupleSet::full(p2.universe(), 2));
        let fe = Expr::relation(f);
        let x = QuantVar::fresh("x");
        p2.require(Formula::forall(
            &x,
            &Expr::univ(),
            &x.expr().join(&fe).one(),
        ));
        p2.require(Formula::forall(
            &x,
            &Expr::univ(),
            &fe.join(&x.expr()).lone(),
        ));
        let surjective = Formula::forall(&x, &Expr::univ(), &fe.join(&x.expr()).some());
        let valid = p2.check_certified(&surjective, true).unwrap();
        assert!(valid.is_certified_valid());
        let stats = valid.simplify.expect("preprocess requested");
        assert!(!stats.found_unsat);
        assert!(valid.certificate.expect("valid").steps > 0);

        // Refuted assertion: no certificate, still a counterexample.
        let refuted = p2.check_certified(&fe.no(), true).unwrap();
        assert!(!refuted.outcome.result.is_valid());
        assert!(refuted.certificate.is_none());
        assert!(refuted.simplify.is_some());

        // Without preprocessing there is no simplification to report.
        assert!(p
            .check_certified(&Expr::relation(r).lone(), false)
            .unwrap()
            .simplify
            .is_none());
    }

    /// The certified check streams exactly the proof a recording solver
    /// logs on the same CNF, and its `sat.drat-check` span reports that
    /// proof's length, how much of it was still unchecked when the search
    /// returned, and the verdict.
    #[test]
    fn certified_check_streams_the_recorded_proof() {
        let (u, _) = small_universe();
        let mut p = Problem::new(u);
        let f = p.declare_relation("f", TupleSet::new(2), TupleSet::full(p.universe(), 2));
        let fe = Expr::relation(f);
        let x = QuantVar::fresh("x");
        p.require(Formula::forall(
            &x,
            &Expr::univ(),
            &x.expr().join(&fe).one(),
        ));
        p.require(Formula::forall(
            &x,
            &Expr::univ(),
            &fe.join(&x.expr()).lone(),
        ));
        let surjective = Formula::forall(&x, &Expr::univ(), &fe.join(&x.expr()).some());
        let handle = mca_obs::Handle::new(mca_obs::CollectSink::default());
        p.set_spans(mca_obs::SpanRecorder::new(handle.observer()));
        for preprocess in [false, true] {
            let translation = p.translate(&surjective.not()).unwrap();
            let mut solver = mca_sat::Solver::new();
            solver.enable_proof();
            solver.add_cnf(&translation.cnf);
            if preprocess {
                solver.preprocess();
            }
            assert_eq!(solver.solve(), SolveResult::Unsat);
            let proof = solver.take_proof().expect("recorded");
            assert!(mca_sat::check_drat(&translation.cnf, &proof).is_ok());

            let certified = p.check_certified(&surjective, preprocess).unwrap();
            let certificate = certified.certificate.expect("valid");
            assert!(certificate.verified);
            assert_eq!(certificate.steps, proof.len());
            let events = handle.with(|sink| std::mem::take(&mut sink.events));
            let id = events
                .iter()
                .find_map(|e| match e {
                    mca_obs::Event::SpanEnter { id, name, .. } if name == "sat.drat-check" => {
                        Some(*id)
                    }
                    _ => None,
                })
                .expect("a drat-check span");
            let fields = events
                .iter()
                .find_map(|e| match e {
                    mca_obs::Event::SpanExit {
                        id: exit, fields, ..
                    } if *exit == id => Some(fields),
                    _ => None,
                })
                .expect("the span closed");
            let field = |key: &str| {
                fields
                    .iter()
                    .find(|(k, _)| k == key)
                    .map(|&(_, v)| v)
                    .unwrap_or_else(|| panic!("no {key} field"))
            };
            assert_eq!(field("steps"), proof.len() as u64);
            assert!(field("pending_steps") <= proof.len() as u64);
            assert_eq!(field("verified"), 1);
        }
    }

    #[test]
    fn instance_eval_join() {
        let (u, atoms) = small_universe();
        let mut p = Problem::new(u);
        let edges = TupleSet::from_pairs([(atoms[0], atoms[1]), (atoms[1], atoms[2])]);
        let r = p.declare_constant("r", edges);
        let out = p.solve().unwrap();
        let inst = out.result.instance().unwrap();
        let rr = Expr::relation(r).join(&Expr::relation(r));
        let joined = inst.eval(&rr).unwrap();
        assert_eq!(joined.len(), 1);
        assert!(joined.contains(&crate::tuple::Tuple::from((atoms[0], atoms[2]))));
    }
}
