//! Symmetry analysis over relational bounds, and lex-leader breaking
//! predicates.
//!
//! Kodkod's classic complement to encoding optimization is *symmetry
//! breaking*: atoms that the bounds cannot distinguish induce orbits of
//! isomorphic instances, and the solver only needs to visit one
//! representative per orbit. This module supplies both halves of that
//! lever:
//!
//! 1. **Detection** ([`SymmetryAnalysis`]): a partition refinement over
//!    the problem's bounds computing the coarsest *base partition* of the
//!    universe into interchangeability classes. Two atoms are
//!    interchangeable iff swapping them maps every relation's lower and
//!    upper bound tuple-sets onto themselves. This is the bounds-level
//!    (syntactic) notion lint rule `B001` reports.
//! 2. **Exploitation** (lex-leader predicates, reached through
//!    [`TranslateOpts`](crate::TranslateOpts)): permutations that are
//!    additionally symmetries of the *formulas* being solved are compiled
//!    into lex-leader symmetry-breaking predicates (SBPs) over the primary
//!    variables and conjoined with the facts at translation time.
//!
//! The two notions deliberately differ. Bounds-interchangeability ignores
//! ground facts — e.g. all `Int` atoms of a naive numeric encoding share
//! bounds but are separated by the facts that mention them — so predicate
//! generation refines the base partition further: atoms must carry equal
//! interpreted integer values, and the candidate permutation must leave
//! every fact (as a multiset) and every goal (individually) invariant
//! under a commutativity-insensitive structural fingerprint. Callers may
//! also supply *hint* permutations (e.g. compound item/cell swaps a
//! scenario layer knows about); every hint is re-validated here, so
//! soundness never depends on the caller.
//!
//! # Soundness
//!
//! For any set of formula symmetries and one fixed total variable order
//! (primary-variable creation order), the conjunction of lex-leader
//! constraints `V ≤lex π(V)` is satisfied by the lex-minimal member of
//! every model's orbit. Adding them therefore preserves satisfiability,
//! and — because SBPs only *conjoin* — every model of the augmented
//! formula is a model of the original. Truncating a predicate to a prefix
//! (the per-permutation cap) or dropping whole permutations (the total
//! budget) only weakens the constraint, so both caps are sound.
//!
//! Formula invariance is checked with a 64-bit structural fingerprint;
//! a hash collision could in principle accept an asymmetric formula. The
//! fingerprint mixes with FNV-1a over the full AST, so the collision
//! probability is negligible (~2⁻⁶⁴ per check) and shared across all
//! platforms.

use crate::ast::{Decl, Expr, ExprKind, Formula, FormulaKind, IntExpr, IntExprKind};
use crate::circuit::B;
use crate::fingerprint::fnv1a64;
use crate::problem::Problem;
use crate::translate::Translator;
use crate::tuple::{Tuple, TupleSet};
use crate::universe::AtomId;
use std::collections::HashMap;

/// Budget knobs for lex-leader symmetry-breaking predicate generation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SbpConfig {
    /// Per-permutation predicate length cap: at most this many moved
    /// primary-variable pairs are encoded per permutation (a lex prefix —
    /// truncation weakens the predicate, which stays sound).
    pub max_perm_length: usize,
    /// Total budget: encoding stops once this many pairs have been
    /// emitted across all permutations.
    pub max_total_length: usize,
}

impl Default for SbpConfig {
    /// Unbounded per-permutation chains under a 16384-pair total safety
    /// valve. Measured on the symmetric E8 workload, truncating chains
    /// mid-permutation is counterproductive: at 4×3 a 96-pair prefix
    /// *cost* 2k conflicts over no SBPs at all, while the complete
    /// chains (5376 pairs) saved 1.8k — a partial lex constraint adds
    /// clauses without ruling out the orbit's non-minimal members.
    fn default() -> SbpConfig {
        SbpConfig {
            max_perm_length: usize::MAX,
            max_total_length: 16384,
        }
    }
}

/// What symmetry breaking contributed to a translation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SbpStats {
    /// Permutations compiled into lex-leader predicates.
    pub predicates: usize,
    /// Moved primary-variable pairs encoded across all predicates.
    pub pairs: usize,
    /// Nontrivial (size ≥ 2) classes in the bounds-level base partition.
    pub base_classes: usize,
    /// Candidate permutations rejected by formula-invariance validation.
    pub rejected: usize,
}

/// The coarsest partition of a problem's universe into bounds-level
/// interchangeability classes.
///
/// Two atoms land in the same class iff the transposition swapping them
/// maps every declared relation's lower and upper bound tuple-sets onto
/// themselves. Interchangeability by transposition is an equivalence:
/// bound-fixing permutations form a group, and `(a c)` is the conjugate
/// `(b c)·(a b)·(b c)` of transpositions already known to fix the bounds.
#[derive(Clone, Debug)]
pub struct SymmetryAnalysis {
    classes: Vec<Vec<AtomId>>,
}

impl SymmetryAnalysis {
    /// Computes the base partition of `problem`'s universe.
    ///
    /// Atoms are first grouped by a cheap per-relation incidence
    /// signature (how many lower/upper tuples mention the atom at each
    /// position); only atoms with equal signatures can be
    /// interchangeable, so the quadratic transposition check runs within
    /// signature groups against subgroup representatives only.
    pub fn analyze(problem: &Problem) -> SymmetryAnalysis {
        let n = problem.universe().len();
        let mut signatures: HashMap<Vec<u32>, Vec<AtomId>> = HashMap::new();
        for i in 0..n {
            let atom = AtomId::from_index(i);
            signatures
                .entry(incidence_signature(problem, atom))
                .or_default()
                .push(atom);
        }
        let mut groups: Vec<Vec<AtomId>> = signatures.into_values().collect();
        groups.sort_by_key(|g| g[0]);

        let mut classes: Vec<Vec<AtomId>> = Vec::new();
        for group in groups {
            // Within a signature group, split into true classes by checking
            // the transposition with one representative per class formed so
            // far; conjugation closes the class under further swaps.
            let mut split: Vec<Vec<AtomId>> = Vec::new();
            for atom in group {
                let home = split
                    .iter()
                    .position(|cls| transposition_fixes_bounds(problem, cls[0], atom));
                match home {
                    Some(i) => split[i].push(atom),
                    None => split.push(vec![atom]),
                }
            }
            classes.extend(split);
        }
        classes.sort_by_key(|c| c[0]);
        SymmetryAnalysis { classes }
    }

    /// Every class of the partition (singletons included), each sorted by
    /// atom index, classes ordered by their smallest member.
    pub fn classes(&self) -> &[Vec<AtomId>] {
        &self.classes
    }

    /// The classes of size ≥ 2 — the atoms some permutation can actually
    /// move while fixing all bounds.
    pub fn nontrivial_classes(&self) -> impl Iterator<Item = &[AtomId]> {
        self.classes
            .iter()
            .filter(|c| c.len() >= 2)
            .map(|c| c.as_slice())
    }

    /// log₂ of the product of `k!` over all class sizes `k`: the
    /// bounds-level orbit reduction a full symmetry break could achieve.
    pub fn orbit_reduction_log2(&self) -> f64 {
        self.classes
            .iter()
            .map(|c| (2..=c.len()).map(|k| (k as f64).log2()).sum::<f64>())
            .sum()
    }
}

/// Per-relation, per-position lower/upper incidence counts for one atom.
/// Equal signatures are necessary (not sufficient) for interchangeability.
fn incidence_signature(problem: &Problem, atom: AtomId) -> Vec<u32> {
    let mut sig = Vec::new();
    for rid in problem.relation_ids() {
        let decl = problem.relation(rid);
        for bound in [decl.lower(), decl.upper()] {
            let mut at_pos = vec![0u32; decl.arity()];
            for t in bound.iter() {
                for (pos, &a) in t.atoms().iter().enumerate() {
                    if a == atom {
                        at_pos[pos] += 1;
                    }
                }
            }
            sig.extend(at_pos);
        }
    }
    sig
}

/// Does swapping `a` and `b` map every relation's lower and upper bounds
/// onto themselves?
fn transposition_fixes_bounds(problem: &Problem, a: AtomId, b: AtomId) -> bool {
    let swap = |x: AtomId| {
        if x == a {
            b
        } else if x == b {
            a
        } else {
            x
        }
    };
    problem.relation_ids().all(|rid| {
        let decl = problem.relation(rid);
        tupleset_fixed_by(decl.lower(), &swap) && tupleset_fixed_by(decl.upper(), &swap)
    })
}

/// Does mapping every atom through `map` send `ts` onto itself? Because a
/// permutation is injective, image ⊆ set implies image = set.
fn tupleset_fixed_by(ts: &TupleSet, map: &dyn Fn(AtomId) -> AtomId) -> bool {
    ts.iter().all(|t| {
        let mapped: Vec<AtomId> = t.atoms().iter().map(|&x| map(x)).collect();
        if mapped == t.atoms() {
            return true;
        }
        ts.contains(&Tuple::new(mapped))
    })
}

// ---------------------------------------------------------------------------
// Formula fingerprints
// ---------------------------------------------------------------------------

/// Mixes a node tag and child hashes into one order-sensitive hash.
fn mix(tag: u64, parts: &[u64]) -> u64 {
    let mut bytes = Vec::with_capacity(8 * (parts.len() + 1));
    bytes.extend_from_slice(&tag.to_le_bytes());
    for p in parts {
        bytes.extend_from_slice(&p.to_le_bytes());
    }
    fnv1a64(&bytes)
}

/// Mixes a node tag and child hashes insensitively to child order, for
/// commutative-associative operators.
fn mix_ac(tag: u64, parts: &mut [u64]) -> u64 {
    parts.sort_unstable();
    mix(tag, parts)
}

const TAG_CONST: u64 = 1;
const TAG_SUBSET: u64 = 2;
const TAG_EQUAL: u64 = 3;
const TAG_NONEMPTY: u64 = 4;
const TAG_ISEMPTY: u64 = 5;
const TAG_EXACTLYONE: u64 = 6;
const TAG_ATMOSTONE: u64 = 7;
const TAG_NOT: u64 = 8;
const TAG_AND: u64 = 9;
const TAG_OR: u64 = 10;
const TAG_IMPLIES: u64 = 11;
const TAG_IFF: u64 = 12;
const TAG_FORALL: u64 = 13;
const TAG_EXISTS: u64 = 14;
const TAG_INTCMP: u64 = 15;
const TAG_RELATION: u64 = 16;
const TAG_ATOM: u64 = 17;
const TAG_IDEN: u64 = 18;
const TAG_UNIV: u64 = 19;
const TAG_EMPTY: u64 = 20;
const TAG_VAR: u64 = 21;
const TAG_UNION: u64 = 22;
const TAG_INTERSECT: u64 = 23;
const TAG_DIFFERENCE: u64 = 24;
const TAG_JOIN: u64 = 25;
const TAG_PRODUCT: u64 = 26;
const TAG_TRANSPOSE: u64 = 27;
const TAG_CLOSURE: u64 = 28;
const TAG_RCLOSURE: u64 = 29;
const TAG_ITE_EXPR: u64 = 30;
const TAG_COMPREHENSION: u64 = 31;
const TAG_INT_CONST: u64 = 32;
const TAG_CARD: u64 = 33;
const TAG_SUMVALUES: u64 = 34;
const TAG_ADD: u64 = 35;
const TAG_SUB: u64 = 36;
const TAG_NEG: u64 = 37;
const TAG_ITE_INT: u64 = 38;
const TAG_DECL: u64 = 39;

/// Structural fingerprint of a formula with every atom leaf mapped
/// through `map`. Two properties matter:
///
/// * `fp(f, id) == fp(f, π)` is the invariance test — the same AST is
///   hashed under both substitutions, so quantified-variable identities
///   line up by construction.
/// * Commutative-associative operators (`and`/`or`, set union/intersect,
///   integer `+`, `iff`, `=`) hash their flattened operand multiset, so
///   a permutation that merely reorders per-atom conjuncts built by a
///   generator loop still fingerprints as invariant.
fn fp_formula(f: &Formula, map: &dyn Fn(AtomId) -> AtomId) -> u64 {
    match f.kind() {
        FormulaKind::Const(b) => mix(TAG_CONST, &[*b as u64]),
        FormulaKind::Subset(a, b) => mix(TAG_SUBSET, &[fp_expr(a, map), fp_expr(b, map)]),
        FormulaKind::Equal(a, b) => mix_ac(TAG_EQUAL, &mut [fp_expr(a, map), fp_expr(b, map)]),
        FormulaKind::NonEmpty(e) => mix(TAG_NONEMPTY, &[fp_expr(e, map)]),
        FormulaKind::IsEmpty(e) => mix(TAG_ISEMPTY, &[fp_expr(e, map)]),
        FormulaKind::ExactlyOne(e) => mix(TAG_EXACTLYONE, &[fp_expr(e, map)]),
        FormulaKind::AtMostOne(e) => mix(TAG_ATMOSTONE, &[fp_expr(e, map)]),
        FormulaKind::Not(g) => mix(TAG_NOT, &[fp_formula(g, map)]),
        FormulaKind::And(_) => {
            let mut parts = Vec::new();
            flatten_and(f, map, &mut parts);
            mix_ac(TAG_AND, &mut parts)
        }
        FormulaKind::Or(_) => {
            let mut parts = Vec::new();
            flatten_or(f, map, &mut parts);
            mix_ac(TAG_OR, &mut parts)
        }
        FormulaKind::Implies(a, b) => mix(TAG_IMPLIES, &[fp_formula(a, map), fp_formula(b, map)]),
        FormulaKind::Iff(a, b) => mix_ac(TAG_IFF, &mut [fp_formula(a, map), fp_formula(b, map)]),
        FormulaKind::ForAll(d, body) => mix(TAG_FORALL, &[fp_decl(d, map), fp_formula(body, map)]),
        FormulaKind::Exists(d, body) => mix(TAG_EXISTS, &[fp_decl(d, map), fp_formula(body, map)]),
        FormulaKind::IntCmp(op, a, b) => {
            mix(TAG_INTCMP, &[*op as u64, fp_int(a, map), fp_int(b, map)])
        }
    }
}

fn flatten_and(f: &Formula, map: &dyn Fn(AtomId) -> AtomId, out: &mut Vec<u64>) {
    match f.kind() {
        FormulaKind::And(parts) => {
            for p in parts {
                flatten_and(p, map, out);
            }
        }
        _ => out.push(fp_formula(f, map)),
    }
}

fn flatten_or(f: &Formula, map: &dyn Fn(AtomId) -> AtomId, out: &mut Vec<u64>) {
    match f.kind() {
        FormulaKind::Or(parts) => {
            for p in parts {
                flatten_or(p, map, out);
            }
        }
        _ => out.push(fp_formula(f, map)),
    }
}

fn fp_decl(d: &Decl, map: &dyn Fn(AtomId) -> AtomId) -> u64 {
    mix(TAG_DECL, &[d.var().id() as u64, fp_expr(d.domain(), map)])
}

fn fp_expr(e: &Expr, map: &dyn Fn(AtomId) -> AtomId) -> u64 {
    match e.kind() {
        ExprKind::Relation(r) => mix(TAG_RELATION, &[r.index() as u64]),
        ExprKind::Atom(a) => mix(TAG_ATOM, &[map(*a).index() as u64]),
        ExprKind::Iden => mix(TAG_IDEN, &[]),
        ExprKind::Univ => mix(TAG_UNIV, &[]),
        ExprKind::Empty(a) => mix(TAG_EMPTY, &[*a as u64]),
        ExprKind::Var(v) => mix(TAG_VAR, &[v.id() as u64]),
        ExprKind::Union(_, _) => {
            let mut parts = Vec::new();
            flatten_union(e, map, &mut parts);
            mix_ac(TAG_UNION, &mut parts)
        }
        ExprKind::Intersect(_, _) => {
            let mut parts = Vec::new();
            flatten_intersect(e, map, &mut parts);
            mix_ac(TAG_INTERSECT, &mut parts)
        }
        ExprKind::Difference(a, b) => mix(TAG_DIFFERENCE, &[fp_expr(a, map), fp_expr(b, map)]),
        ExprKind::Join(a, b) => mix(TAG_JOIN, &[fp_expr(a, map), fp_expr(b, map)]),
        ExprKind::Product(a, b) => mix(TAG_PRODUCT, &[fp_expr(a, map), fp_expr(b, map)]),
        ExprKind::Transpose(a) => mix(TAG_TRANSPOSE, &[fp_expr(a, map)]),
        ExprKind::Closure(a) => mix(TAG_CLOSURE, &[fp_expr(a, map)]),
        ExprKind::ReflexiveClosure(a) => mix(TAG_RCLOSURE, &[fp_expr(a, map)]),
        ExprKind::IfThenElse(c, t, f) => mix(
            TAG_ITE_EXPR,
            &[fp_formula(c, map), fp_expr(t, map), fp_expr(f, map)],
        ),
        ExprKind::Comprehension(decls, body) => {
            let mut parts: Vec<u64> = decls.iter().map(|d| fp_decl(d, map)).collect();
            parts.push(fp_formula(body, map));
            mix(TAG_COMPREHENSION, &parts)
        }
    }
}

fn flatten_union(e: &Expr, map: &dyn Fn(AtomId) -> AtomId, out: &mut Vec<u64>) {
    match e.kind() {
        ExprKind::Union(a, b) => {
            flatten_union(a, map, out);
            flatten_union(b, map, out);
        }
        _ => out.push(fp_expr(e, map)),
    }
}

fn flatten_intersect(e: &Expr, map: &dyn Fn(AtomId) -> AtomId, out: &mut Vec<u64>) {
    match e.kind() {
        ExprKind::Intersect(a, b) => {
            flatten_intersect(a, map, out);
            flatten_intersect(b, map, out);
        }
        _ => out.push(fp_expr(e, map)),
    }
}

fn fp_int(e: &IntExpr, map: &dyn Fn(AtomId) -> AtomId) -> u64 {
    match e.kind() {
        IntExprKind::Const(v) => mix(TAG_INT_CONST, &[*v as u64]),
        IntExprKind::Card(x) => mix(TAG_CARD, &[fp_expr(x, map)]),
        IntExprKind::SumValues(x) => mix(TAG_SUMVALUES, &[fp_expr(x, map)]),
        IntExprKind::Add(_, _) => {
            let mut parts = Vec::new();
            flatten_add(e, map, &mut parts);
            mix_ac(TAG_ADD, &mut parts)
        }
        IntExprKind::Sub(a, b) => mix(TAG_SUB, &[fp_int(a, map), fp_int(b, map)]),
        IntExprKind::Neg(a) => mix(TAG_NEG, &[fp_int(a, map)]),
        IntExprKind::Ite(c, t, f) => mix(
            TAG_ITE_INT,
            &[fp_formula(c, map), fp_int(t, map), fp_int(f, map)],
        ),
    }
}

fn flatten_add(e: &IntExpr, map: &dyn Fn(AtomId) -> AtomId, out: &mut Vec<u64>) {
    match e.kind() {
        IntExprKind::Add(a, b) => {
            flatten_add(a, map, out);
            flatten_add(b, map, out);
        }
        _ => out.push(fp_int(e, map)),
    }
}

// ---------------------------------------------------------------------------
// Permutation validation
// ---------------------------------------------------------------------------

/// Expands a disjoint-transposition hint into a full image vector, or
/// `None` if the pairs are not disjoint / out of range.
fn expand_pairs(n: usize, pairs: &[(AtomId, AtomId)]) -> Option<Vec<AtomId>> {
    let mut image: Vec<AtomId> = (0..n).map(AtomId::from_index).collect();
    let mut moved = vec![false; n];
    for &(a, b) in pairs {
        let (ai, bi) = (a.index(), b.index());
        if ai >= n || bi >= n || ai == bi || moved[ai] || moved[bi] {
            return None;
        }
        moved[ai] = true;
        moved[bi] = true;
        image.swap(ai, bi);
    }
    Some(image)
}

/// Is `image` (a full permutation image over the universe) a symmetry of
/// the whole problem — bounds, interpreted integer values, every fact (as
/// a multiset), and every goal individually?
fn permutation_is_symmetry(problem: &Problem, goals: &[Formula], image: &[AtomId]) -> bool {
    let n = problem.universe().len();
    if image.len() != n {
        return false;
    }
    // Bijection.
    let mut seen = vec![false; n];
    for a in image {
        if a.index() >= n || seen[a.index()] {
            return false;
        }
        seen[a.index()] = true;
    }
    let map = |a: AtomId| image[a.index()];
    // Interpreted integer values must be preserved: `sum`/comparison
    // semantics read them off the universe, not off any relation.
    for i in 0..n {
        let a = AtomId::from_index(i);
        if problem.universe().int_value(a) != problem.universe().int_value(map(a)) {
            return false;
        }
    }
    // Every bound fixed setwise.
    let bounds_ok = problem.relation_ids().all(|rid| {
        let decl = problem.relation(rid);
        tupleset_fixed_by(decl.lower(), &map) && tupleset_fixed_by(decl.upper(), &map)
    });
    if !bounds_ok {
        return false;
    }
    // Facts invariant as a multiset (π may permute whole facts)...
    let id = |a: AtomId| a;
    let mut before: Vec<u64> = problem.facts().iter().map(|f| fp_formula(f, &id)).collect();
    let mut after: Vec<u64> = problem
        .facts()
        .iter()
        .map(|f| fp_formula(f, &map))
        .collect();
    before.sort_unstable();
    after.sort_unstable();
    if before != after {
        return false;
    }
    // ...but each goal individually: goals are activated one at a time as
    // solver assumptions, so each (facts ∧ goal_i) must be closed under π.
    goals
        .iter()
        .all(|g| fp_formula(g, &id) == fp_formula(g, &map))
}

// ---------------------------------------------------------------------------
// Lex-leader predicate generation
// ---------------------------------------------------------------------------

/// Builds the SBP circuit edge for a translation in progress.
///
/// `goals` are the formulas (beyond the facts) that every used
/// permutation must leave invariant; `hints` are caller-proposed
/// permutations as disjoint transposition lists, each re-validated here.
/// Returns the conjunction edge to AND into the root, plus statistics.
pub(crate) fn build_sbp(
    problem: &Problem,
    goals: &[Formula],
    tr: &mut Translator<'_>,
    cfg: &SbpConfig,
    hints: &[Vec<(AtomId, AtomId)>],
) -> (B, SbpStats) {
    let n = problem.universe().len();
    let base = SymmetryAnalysis::analyze(problem);
    let mut stats = SbpStats {
        base_classes: base.nontrivial_classes().count(),
        ..SbpStats::default()
    };

    // Candidate permutations, deterministic order: class-derived adjacent
    // transpositions first, then hints.
    let mut perms: Vec<Vec<AtomId>> = Vec::new();
    for class in base.nontrivial_classes() {
        // Refine the bounds-level class into formula-safe subclasses by
        // validating transpositions against subclass representatives.
        let mut safe: Vec<Vec<AtomId>> = Vec::new();
        for &atom in class {
            let mut home = None;
            for (i, sub) in safe.iter().enumerate() {
                let image = expand_pairs(n, &[(sub[0], atom)]).expect("distinct atoms");
                if permutation_is_symmetry(problem, goals, &image) {
                    home = Some(i);
                    break;
                }
                stats.rejected += 1;
            }
            match home {
                Some(i) => safe[i].push(atom),
                None => safe.push(vec![atom]),
            }
        }
        for sub in safe.iter().filter(|s| s.len() >= 2) {
            // Adjacent transpositions generate the full symmetric group
            // on the subclass.
            for w in sub.windows(2) {
                if let Some(image) = expand_pairs(n, &[(w[0], w[1])]) {
                    perms.push(image);
                }
            }
        }
    }
    for hint in hints {
        let Some(image) = expand_pairs(n, hint) else {
            stats.rejected += 1;
            continue;
        };
        if !permutation_is_symmetry(problem, goals, &image) {
            stats.rejected += 1;
            continue;
        }
        if !perms.contains(&image) {
            perms.push(image);
        }
    }

    // Primary-variable index of each undetermined (relation, tuple) pair.
    let primary: HashMap<(crate::ast::RelationId, Tuple), usize> = tr
        .input_tuples
        .iter()
        .enumerate()
        .map(|(i, (rid, t))| ((*rid, t.clone()), i))
        .collect();

    let mut root = tr.circuit.tru();
    for image in perms {
        if stats.pairs >= cfg.max_total_length {
            break;
        }
        let map = |a: AtomId| image[a.index()];
        // Moved primary positions in creation order — the one global
        // variable order every lex-leader predicate shares.
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        let mut all_mapped = true;
        for (i, (rid, t)) in tr.input_tuples.iter().enumerate() {
            let mapped = Tuple::new(t.atoms().iter().map(|&a| map(a)).collect::<Vec<_>>());
            if mapped == *t {
                continue;
            }
            // A bounds-fixing permutation maps upper∖lower onto itself, so
            // the image must itself be a primary position; if the lookup
            // ever misses, skip the permutation rather than emit garbage.
            match primary.get(&(*rid, mapped)) {
                Some(&j) => pairs.push((i, j)),
                None => {
                    all_mapped = false;
                    break;
                }
            }
        }
        if !all_mapped || pairs.is_empty() {
            continue;
        }
        let budget = cfg.max_perm_length.min(cfg.max_total_length - stats.pairs);
        pairs.truncate(budget);

        // Crawford lex-leader: p₀ = ⊤; emit pₖ → (xₖ → yₖ);
        // pₖ₊₁ = pₖ ∧ (xₖ ↔ yₖ).
        let mut prefix_eq = tr.circuit.tru();
        for &(i, j) in &pairs {
            let x = tr.input_edges[i];
            let y = tr.input_edges[j];
            let step = tr.circuit.implies(x, y);
            let gated = tr.circuit.implies(prefix_eq, step);
            root = tr.circuit.and2(root, gated);
            let eq = tr.circuit.iff2(x, y);
            prefix_eq = tr.circuit.and2(prefix_eq, eq);
        }
        stats.predicates += 1;
        stats.pairs += pairs.len();
    }
    (root, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Formula;
    use crate::problem::Problem;
    use crate::tuple::TupleSet;
    use crate::universe::Universe;

    fn two_color_problem() -> (Problem, Vec<AtomId>) {
        // Three interchangeable nodes, a unary "red" relation free over
        // all of them, and one pinned atom that a constant relation fixes.
        let mut u = Universe::new();
        let atoms = u.add_atoms("n", 3);
        let pinned = u.add_atom("pin");
        let mut p = Problem::new(u);
        let mut all = TupleSet::new(1);
        for &a in &atoms {
            all.insert(Tuple::from(a));
        }
        p.declare_relation("red", TupleSet::new(1), all);
        p.declare_constant("pin", TupleSet::from_atoms([pinned]));
        (p, atoms)
    }

    #[test]
    fn base_partition_groups_unconstrained_atoms() {
        let (p, atoms) = two_color_problem();
        let analysis = SymmetryAnalysis::analyze(&p);
        let nontrivial: Vec<&[AtomId]> = analysis.nontrivial_classes().collect();
        assert_eq!(nontrivial.len(), 1);
        assert_eq!(nontrivial[0], atoms.as_slice());
        // 3! = 6 orbits collapse to 1: log2(6) ≈ 2.585.
        assert!((analysis.orbit_reduction_log2() - 6.0f64.log2()).abs() < 1e-9);
    }

    #[test]
    fn constants_pin_their_atoms() {
        let (p, _) = two_color_problem();
        let analysis = SymmetryAnalysis::analyze(&p);
        let pin = p.universe().atom("pin").unwrap();
        let class = analysis
            .classes()
            .iter()
            .find(|c| c.contains(&pin))
            .unwrap();
        assert_eq!(class.len(), 1);
    }

    #[test]
    fn int_values_block_predicate_generation_but_not_base_classes() {
        let mut u = Universe::new();
        let ints = u.add_int_atoms(0..=1);
        let mut p = Problem::new(u);
        let mut all = TupleSet::new(1);
        for &a in &ints {
            all.insert(Tuple::from(a));
        }
        p.declare_relation("s", TupleSet::new(1), all);
        // Bounds cannot tell Int[0] and Int[1] apart...
        let analysis = SymmetryAnalysis::analyze(&p);
        assert_eq!(analysis.nontrivial_classes().count(), 1);
        // ...but interpreted values can, so no permutation validates.
        let image = expand_pairs(2, &[(ints[0], ints[1])]).unwrap();
        assert!(!permutation_is_symmetry(&p, &[], &image));
    }

    #[test]
    fn facts_that_distinguish_atoms_reject_the_swap() {
        let (mut p, atoms) = two_color_problem();
        let n = p.universe().len();
        let red = p.relation_ids().next().unwrap();
        let image = expand_pairs(n, &[(atoms[0], atoms[1])]).unwrap();
        assert!(permutation_is_symmetry(&p, &[], &image));
        // "n0 is red" breaks the n0 ↔ n1 swap but not n1 ↔ n2.
        p.require(Expr::atom(atoms[0]).in_(&Expr::relation(red)));
        assert!(!permutation_is_symmetry(&p, &[], &image));
        let other = expand_pairs(n, &[(atoms[1], atoms[2])]).unwrap();
        assert!(permutation_is_symmetry(&p, &[], &other));
    }

    #[test]
    fn reordered_conjuncts_still_fingerprint_as_invariant() {
        // A per-atom generator loop: and(phi(n0), phi(n1)) must be seen
        // as invariant under n0 ↔ n1 even though the swap reorders the
        // conjuncts.
        let (mut p, atoms) = two_color_problem();
        let n = p.universe().len();
        let red = p.relation_ids().next().unwrap();
        let per_atom = |a: AtomId| {
            let member = Expr::atom(a).in_(&Expr::relation(red));
            member.or(&member.not().and(&Expr::atom(a).some()))
        };
        p.require(Formula::and_all(vec![
            per_atom(atoms[0]),
            per_atom(atoms[1]),
        ]));
        let image = expand_pairs(n, &[(atoms[0], atoms[1])]).unwrap();
        assert!(permutation_is_symmetry(&p, &[], &image));
    }

    #[test]
    fn sbp_preserves_verdicts_and_witnesses_satisfy_the_original() {
        use crate::ast::IntExpr;
        use crate::eval::Evaluator;
        use crate::problem::TranslateOpts;

        let (mut p, _) = two_color_problem();
        let red = p.relation_ids().next().unwrap();
        p.require(Expr::relation(red).count().eq_(&IntExpr::constant(2)));
        // "at most one red" is refutable: counterexamples exist.
        let assertion = Expr::relation(red).lone();

        let plain = p
            .incremental_checker(
                std::slice::from_ref(&assertion),
                false,
                &TranslateOpts::default(),
            )
            .unwrap();
        let mut plain = plain;
        let plain_check = plain.check(0);

        let opts = TranslateOpts::with_sbp();
        let mut sbp = p
            .incremental_checker(std::slice::from_ref(&assertion), false, &opts)
            .unwrap();
        assert!(sbp.translation_stats().sbp_predicates > 0);
        let sbp_check = sbp.check(0);

        assert_eq!(plain_check.is_valid(), sbp_check.is_valid());
        let inst = sbp_check.counterexample().expect("refutable assertion");
        // The witness found under SBPs must satisfy the *original*
        // (unaugmented) formula: every fact, plus the negated assertion.
        let mut ev = Evaluator::new(p.universe(), inst);
        for fact in p.facts() {
            assert!(ev.formula(fact).expect("well-formed fact"));
        }
        assert!(ev.formula(&assertion.not()).expect("well-formed assertion"));

        // A valid assertion stays valid under SBPs (UNSAT preserved).
        let valid = Expr::relation(red).some();
        let mut a = p
            .incremental_checker(
                std::slice::from_ref(&valid),
                false,
                &TranslateOpts::default(),
            )
            .unwrap();
        let mut b = p.incremental_checker(&[valid], false, &opts).unwrap();
        assert!(a.check(0).is_valid());
        assert!(b.check(0).is_valid());
    }

    #[test]
    fn budget_truncation_stays_sound() {
        use crate::ast::IntExpr;
        use crate::problem::TranslateOpts;

        let (mut p, _) = two_color_problem();
        let red = p.relation_ids().next().unwrap();
        p.require(Expr::relation(red).count().eq_(&IntExpr::constant(2)));
        let assertion = Expr::relation(red).lone();
        for (per_perm, total) in [(1, 1), (1, 2), (96, 2048), (0, 0)] {
            let opts = TranslateOpts {
                sbp: Some(SbpConfig {
                    max_perm_length: per_perm,
                    max_total_length: total,
                }),
                sbp_hints: Vec::new(),
            };
            let mut c = p
                .incremental_checker(std::slice::from_ref(&assertion), false, &opts)
                .unwrap();
            assert!(!c.check(0).is_valid(), "budget {per_perm}/{total}");
        }
    }

    #[test]
    fn overlapping_hint_pairs_are_rejected() {
        let (p, atoms) = two_color_problem();
        let n = p.universe().len();
        assert!(expand_pairs(n, &[(atoms[0], atoms[1]), (atoms[1], atoms[2])]).is_none());
        assert!(expand_pairs(n, &[(atoms[0], atoms[0])]).is_none());
        let _ = p;
    }
}
