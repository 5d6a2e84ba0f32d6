//! A hash-consed boolean circuit with complement edges.
//!
//! The translator compiles relational formulas into this and-inverter-graph
//! representation before Tseitin conversion to CNF. Structural hashing and
//! local simplification (constant folding, idempotence, complementation)
//! keep the paper's naive encoding from exploding even further than it
//! already does — the same service Kodkod provides to the Alloy Analyzer.

use mca_sat::{CnfFormula, Lit, Var};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// An edge into the circuit: a node index plus a complement flag.
///
/// `B` values are only meaningful relative to the [`Circuit`] that created
/// them.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct B(u32);

impl B {
    const TRUE: B = B(0);
    const FALSE: B = B(1);

    #[inline]
    fn node(self) -> usize {
        (self.0 >> 1) as usize
    }

    #[inline]
    fn is_complemented(self) -> bool {
        self.0 & 1 == 1
    }

    #[inline]
    fn from_node(node: usize, complemented: bool) -> B {
        B((node as u32) << 1 | complemented as u32)
    }

    /// `true` if this edge is the constant true.
    pub fn is_const_true(self) -> bool {
        self == B::TRUE
    }

    /// `true` if this edge is the constant false.
    pub fn is_const_false(self) -> bool {
        self == B::FALSE
    }

    /// `true` if this edge is either constant.
    pub fn is_const(self) -> bool {
        self.node() == 0
    }
}

impl std::ops::Not for B {
    type Output = B;

    #[inline]
    fn not(self) -> B {
        B(self.0 ^ 1)
    }
}

#[derive(Clone, Copy, Debug)]
enum Node {
    /// The constant true (node 0 only).
    ConstTrue,
    /// A free input, identified by its input ordinal.
    Input(u32),
    /// Conjunction of two edges.
    And(B, B),
}

/// How often CNF emission references a node.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Fanout {
    Unreferenced,
    /// Exactly once, uncomplemented, by another gate.
    Single,
    /// More than once, through a complement, or as a root or goal.
    Shared,
}

/// Polarity bits: the directions of a gate's definition
/// `g ↔ l1 ∧ … ∧ lk` that CNF emission needs (Plaisted & Greenbaum, 1986).
/// `POS` is `g → li` for each leaf, needed where the roots can force the
/// gate true; `NEG` is `l1 ∧ … ∧ lk → g`, needed where they can force it
/// false.
const POS: u8 = 1;
const NEG: u8 = 2;

/// A multiply-rotate hasher in the style of rustc's `FxHasher`, for the
/// maps keyed by the circuit's own edge numbers and clause hashes. The
/// translator makes those keys from a model, not from a peer's bytes, so
/// they need no keyed (SipHash) protection against chosen collisions.
#[derive(Clone, Copy, Default)]
struct FxHasher(u64);

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.add(b.into()));
    }

    fn write_u32(&mut self, word: u32) {
        self.add(word.into());
    }

    fn write_u64(&mut self, word: u64) {
        self.add(word);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A clause's hash key, under which clause deduplication looks it up.
type ClauseKey = fn(&[Lit]) -> u64;

/// The Fx hash of a clause's literal codes, in order.
fn clause_key(lits: &[Lit]) -> u64 {
    let mut h = FxHasher::default();
    lits.iter().for_each(|l| h.add(l.code() as u64));
    h.0
}

/// The clauses a deduplicating emission has kept, each found by its index
/// in the CNF under its `key`. Distinct clauses may share a key; a repeat
/// is one equal to a kept clause, compared literal by literal.
struct ClauseSet {
    key: ClauseKey,
    /// Per key, the last clause kept under it, as an index into `kept`.
    heads: HashMap<u64, usize, FxBuildHasher>,
    /// Per kept clause: its index in the CNF, and the entry of the clause
    /// kept before it under the same key (`usize::MAX` for none).
    kept: Vec<(usize, usize)>,
}

impl ClauseSet {
    fn new(key: ClauseKey) -> ClauseSet {
        ClauseSet {
            key,
            heads: HashMap::default(),
            kept: Vec::new(),
        }
    }

    /// `true` if `lits` equals a clause kept from `cnf`. Otherwise `lits`
    /// is kept as the clause `cnf` adds next.
    fn is_repeat(&mut self, lits: &[Lit], cnf: &CnfFormula) -> bool {
        let head = self.heads.entry((self.key)(lits)).or_insert(usize::MAX);
        let mut at = *head;
        while let Some(&(index, before)) = self.kept.get(at) {
            if cnf.clause(index) == lits {
                return true;
            }
            at = before;
        }
        self.kept.push((cnf.num_clauses(), *head));
        *head = self.kept.len() - 1;
        false
    }
}

/// A boolean circuit under construction.
///
/// # Examples
///
/// ```
/// use mca_relalg::circuit::Circuit;
///
/// let mut c = Circuit::new();
/// let x = c.input();
/// let y = c.input();
/// let f = c.or2(x, !y);
/// assert!(c.eval(f, &|i| [true, false][i as usize]));
/// assert!(c.eval(f, &|i| [false, false][i as usize]));
/// assert!(!c.eval(f, &|i| [false, true][i as usize]));
/// ```
#[derive(Debug, Default)]
pub struct Circuit {
    nodes: Vec<Node>,
    and_cache: HashMap<(B, B), B, FxBuildHasher>,
    num_inputs: u32,
}

impl Circuit {
    /// Creates an empty circuit.
    pub fn new() -> Circuit {
        Circuit {
            nodes: vec![Node::ConstTrue],
            and_cache: HashMap::default(),
            num_inputs: 0,
        }
    }

    /// The constant-true edge.
    #[inline]
    pub fn tru(&self) -> B {
        B::TRUE
    }

    /// The constant-false edge.
    #[inline]
    pub fn fls(&self) -> B {
        B::FALSE
    }

    /// Lifts a Rust boolean to a constant edge.
    #[inline]
    pub fn constant(&self, b: bool) -> B {
        if b {
            B::TRUE
        } else {
            B::FALSE
        }
    }

    /// Creates a fresh free input.
    pub fn input(&mut self) -> B {
        let ordinal = self.num_inputs;
        self.num_inputs += 1;
        let node = self.nodes.len();
        self.nodes.push(Node::Input(ordinal));
        B::from_node(node, false)
    }

    /// Number of free inputs created so far.
    pub fn num_inputs(&self) -> u32 {
        self.num_inputs
    }

    /// Number of AND gates in the circuit.
    pub fn num_gates(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::And(..)))
            .count()
    }

    /// Conjunction with structural hashing and local simplification.
    pub fn and2(&mut self, a: B, b: B) -> B {
        if a == B::FALSE || b == B::FALSE || a == !b {
            return B::FALSE;
        }
        if a == B::TRUE {
            return b;
        }
        if b == B::TRUE || a == b {
            return a;
        }
        let key = if a <= b { (a, b) } else { (b, a) };
        if let Some(&e) = self.and_cache.get(&key) {
            return e;
        }
        let node = self.nodes.len();
        self.nodes.push(Node::And(key.0, key.1));
        let e = B::from_node(node, false);
        self.and_cache.insert(key, e);
        e
    }

    /// Disjunction (via De Morgan).
    pub fn or2(&mut self, a: B, b: B) -> B {
        !self.and2(!a, !b)
    }

    /// Conjunction of the edges at positions `0..len`, as a balanced tree.
    ///
    /// `cells` lists `(position, edge)` pairs in ascending position order;
    /// every position it skips is true. Each level of the tree conjoins
    /// positions `p` and `p + 1` for even `p` and carries a lone position
    /// to `p / 2`, so the gates created depend only on the listed edges and
    /// their positions: a sparse list creates exactly the gates, in the
    /// same order, of the full list with its true positions filled in.
    /// A plain list `v` reduces as
    /// `and_many(v.len(), v.into_iter().enumerate())`.
    pub fn and_many(&mut self, len: usize, cells: impl IntoIterator<Item = (usize, B)>) -> B {
        let mut layer: Vec<(usize, B)> = cells.into_iter().filter(|&(_, e)| e != B::TRUE).collect();
        debug_assert!(layer.windows(2).all(|w| w[0].0 < w[1].0));
        debug_assert!(layer.last().is_none_or(|&(p, _)| p < len));
        let mut len = len;
        // A single remaining edge is only ever carried, never paired.
        while len > 1 && layer.len() > 1 {
            let (mut read, mut write) = (0, 0);
            while read < layer.len() {
                let (p, e) = layer[read];
                let partner = layer
                    .get(read + 1)
                    .filter(|&&(q, _)| p % 2 == 0 && q == p + 1);
                layer[write] = match partner {
                    Some(&(_, f)) => {
                        read += 2;
                        (p / 2, self.and2(e, f))
                    }
                    None => {
                        read += 1;
                        (p / 2, e)
                    }
                };
                write += 1;
            }
            layer.truncate(write);
            len = len.div_ceil(2);
        }
        layer.first().map_or(B::TRUE, |&(_, e)| e)
    }

    /// Disjunction of the edges at positions `0..len`, every position
    /// `cells` skips being false: the De Morgan dual of
    /// [`and_many`](Circuit::and_many), with the same tree.
    pub fn or_many(&mut self, len: usize, cells: impl IntoIterator<Item = (usize, B)>) -> B {
        let negated = cells.into_iter().map(|(p, e)| (p, !e));
        !self.and_many(len, negated)
    }

    /// Exclusive or.
    pub fn xor2(&mut self, a: B, b: B) -> B {
        let l = self.and2(a, !b);
        let r = self.and2(!a, b);
        self.or2(l, r)
    }

    /// Biconditional (`a ↔ b`).
    pub fn iff2(&mut self, a: B, b: B) -> B {
        !self.xor2(a, b)
    }

    /// Implication (`a → b`).
    pub fn implies(&mut self, a: B, b: B) -> B {
        self.or2(!a, b)
    }

    /// If-then-else multiplexer.
    pub fn ite(&mut self, c: B, t: B, e: B) -> B {
        let l = self.and2(c, t);
        let r = self.and2(!c, e);
        self.or2(l, r)
    }

    /// Evaluates edge `e` under an assignment of inputs (by input ordinal).
    pub fn eval(&self, e: B, inputs: &dyn Fn(u32) -> bool) -> bool {
        let mut memo: Vec<Option<bool>> = vec![None; self.nodes.len()];
        self.eval_rec(e, inputs, &mut memo)
    }

    fn eval_rec(&self, e: B, inputs: &dyn Fn(u32) -> bool, memo: &mut Vec<Option<bool>>) -> bool {
        let raw = match memo[e.node()] {
            Some(v) => v,
            None => {
                let v = match self.nodes[e.node()] {
                    Node::ConstTrue => true,
                    Node::Input(k) => inputs(k),
                    Node::And(a, b) => {
                        self.eval_rec(a, inputs, memo) && self.eval_rec(b, inputs, memo)
                    }
                };
                memo[e.node()] = Some(v);
                v
            }
        };
        raw != e.is_complemented()
    }

    /// Tseitin-transforms the circuit into CNF, asserting that every root
    /// edge is true. Returns the formula and the mapping from input ordinal
    /// to CNF variable.
    ///
    /// Only nodes reachable from the roots are encoded, so dead gates cost
    /// nothing. An AND node referenced exactly once, uncomplemented, by
    /// another AND node (and neither a root nor a goal) gets no variable of
    /// its own: its parent conjoins its inputs directly. So every
    /// `and_many`/`or_many` tree is one multi-input gate `g` over leaves
    /// `l1..lk`.
    ///
    /// Each gate is emitted only in the directions the roots need
    /// (Plaisted–Greenbaum polarity): a root edge needs its gate true, or
    /// false if the edge is complemented; a gate needed true needs its
    /// leaves true, and a complemented edge swaps the two. A gate needed
    /// true gets `(¬g ∨ li)` for each leaf, one needed false gets
    /// `(g ∨ ¬l1 ∨ … ∨ ¬lk)`, and one needed both ways gets both, in that
    /// order. The input models are exactly the assignments under which
    /// every root holds, but a gate variable need not equal its gate's
    /// value in a model.
    pub fn to_cnf(&self, roots: &[B]) -> (CnfFormula, Vec<Var>) {
        let (cnf, input_vars, _) = self.to_cnf_with_goals(roots, &[]);
        (cnf, input_vars)
    }

    /// Like [`to_cnf`](Circuit::to_cnf), but additionally returns one CNF
    /// literal per `goals` edge *without asserting it*. A goal is always
    /// emitted as a gate of its own and is needed both true and false, so
    /// it and every gate under it get the full biconditional
    /// `g ↔ l1 ∧ … ∧ lk`. Each returned literal is therefore true in a
    /// model exactly when its edge evaluates to true — so the goals can be
    /// activated individually as solver assumptions, which is
    /// the seam incremental solving plugs into: encode the shared clause
    /// prefix once, then flip between goals across
    /// [`solve_with_assumptions`](mca_sat::Solver::solve_with_assumptions)
    /// calls while retaining learnt clauses.
    ///
    /// Constant goal edges are materialized as frozen variables (forced
    /// true) so every goal has a literal.
    pub fn to_cnf_with_goals(&self, roots: &[B], goals: &[B]) -> (CnfFormula, Vec<Var>, Vec<Lit>) {
        let e = self.to_cnf_opts(roots, goals, true);
        (e.cnf, e.input_vars, e.goal_lits)
    }

    /// Like [`to_cnf_with_goals`](Circuit::to_cnf_with_goals), with clause
    /// deduplication made explicit. With `dedup = true` (the default used
    /// by the other entry points) every emitted clause is normalized —
    /// repeated literals dropped, tautologies (`l ∨ ¬l ∨ …`) and clauses
    /// identical to an earlier one skipped — and the number of skipped
    /// clauses is reported in [`CnfEmission::clauses_deduped`].
    /// Deduplication preserves the model set, so verdicts are unchanged;
    /// `dedup = false` exists so tests can assert exactly that.
    pub fn to_cnf_opts(&self, roots: &[B], goals: &[B], dedup: bool) -> CnfEmission {
        self.to_cnf_keyed(roots, goals, dedup.then_some(clause_key as ClauseKey))
    }

    /// [`to_cnf_opts`](Circuit::to_cnf_opts), deduplicating under the
    /// clause hash `key` when one is given.
    fn to_cnf_keyed(&self, roots: &[B], goals: &[B], key: Option<ClauseKey>) -> CnfEmission {
        let mut cnf = CnfFormula::new();
        let mut seen = key.map(ClauseSet::new);
        let mut clauses_deduped = 0usize;
        // Normalizing emitter: sorts and dedups the literals of each clause,
        // drops tautologies, and skips clauses already emitted.
        let mut emit = |lits: &mut Vec<Lit>, cnf: &mut CnfFormula| {
            let Some(seen) = seen.as_mut() else {
                cnf.add_clause(lits.drain(..));
                return;
            };
            lits.sort_unstable();
            lits.dedup();
            // After sorting, a variable's two polarities are adjacent.
            if lits.windows(2).any(|w| w[0] == !w[1]) || seen.is_repeat(lits, cnf) {
                clauses_deduped += 1;
                lits.clear();
            } else {
                cnf.add_clause(lits.drain(..));
            }
        };
        let mut buf: Vec<Lit> = Vec::with_capacity(3);
        // Inputs get the first variables so instance decoding is stable.
        let input_vars: Vec<Var> = (0..self.num_inputs).map(|_| cnf.new_var()).collect();

        // One sweep from the last node down computes each node's polarity
        // and fanout: `and2` creates every node after its inputs, so all of
        // a node's parents are visited before it. Roots and goals count as
        // shared; polarity 0 marks a node no root or goal reaches.
        let mut polarity = vec![0u8; self.nodes.len()];
        let mut fanout = vec![Fanout::Unreferenced; self.nodes.len()];
        for &r in roots {
            polarity[r.node()] |= if r.is_complemented() { NEG } else { POS };
            fanout[r.node()] = Fanout::Shared;
        }
        for &g in goals {
            polarity[g.node()] = POS | NEG;
            fanout[g.node()] = Fanout::Shared;
        }
        for n in (0..self.nodes.len()).rev() {
            let Node::And(a, b) = self.nodes[n] else {
                continue;
            };
            let pol = polarity[n];
            if pol == 0 {
                continue;
            }
            for e in [a, b] {
                // A complemented edge swaps the directions its target needs.
                polarity[e.node()] |= if e.is_complemented() {
                    (pol & POS) << 1 | (pol & NEG) >> 1
                } else {
                    pol
                };
                fanout[e.node()] = match fanout[e.node()] {
                    Fanout::Unreferenced if !e.is_complemented() => Fanout::Single,
                    _ => Fanout::Shared,
                };
            }
        }
        // An absorbed gate has no variable: its one parent conjoins its
        // inputs instead, and it has that parent's polarity.
        let absorbed =
            |n: usize| matches!(self.nodes[n], Node::And(..)) && fanout[n] == Fanout::Single;

        // Assign a literal to every reachable node that is not absorbed.
        let mut node_lit: Vec<Option<Lit>> = vec![None; self.nodes.len()];
        for (n, node) in self.nodes.iter().enumerate() {
            if polarity[n] == 0 || absorbed(n) {
                continue;
            }
            match node {
                Node::ConstTrue => {}
                Node::Input(k) => node_lit[n] = Some(input_vars[*k as usize].positive()),
                Node::And(..) => node_lit[n] = Some(cnf.new_var().positive()),
            }
        }

        // True constant: if referenced, we inline it during edge resolution.
        let edge_lit = |e: B, cnf: &mut CnfFormula, node_lit: &mut Vec<Option<Lit>>| -> Lit {
            let base = match node_lit[e.node()] {
                Some(l) => l,
                None => {
                    debug_assert!(e.is_const(), "absorbed gates have no literal");
                    // Constant node: encode with a frozen variable forced true.
                    let v = cnf.new_var().positive();
                    cnf.add_clause([v]);
                    node_lit[e.node()] = Some(v);
                    v
                }
            };
            if e.is_complemented() {
                !base
            } else {
                base
            }
        };

        let mut leaves: Vec<Lit> = Vec::new();
        let mut pending: Vec<B> = Vec::new();
        for (n, node) in self.nodes.iter().enumerate() {
            let Node::And(a, b) = *node else { continue };
            let pol = polarity[n];
            if pol == 0 || absorbed(n) {
                continue;
            }
            let g = node_lit[n].expect("emitted gate has a literal");
            // Leaves left to right, each absorbed child expanded in place.
            pending.extend([b, a]);
            while let Some(e) = pending.pop() {
                match self.nodes[e.node()] {
                    Node::And(x, y) if absorbed(e.node()) => pending.extend([y, x]),
                    _ => leaves.push(edge_lit(e, &mut cnf, &mut node_lit)),
                }
            }
            // g -> l1 & … & lk
            if pol & POS != 0 {
                for &l in &leaves {
                    buf.extend([!g, l]);
                    emit(&mut buf, &mut cnf);
                }
            }
            // l1 & … & lk -> g
            if pol & NEG != 0 {
                buf.push(g);
                buf.extend(leaves.iter().map(|&l| !l));
                emit(&mut buf, &mut cnf);
            }
            leaves.clear();
        }

        for &r in roots {
            if r == B::TRUE {
                continue;
            }
            if r == B::FALSE {
                // Assert falsity: empty clause.
                emit(&mut buf, &mut cnf);
                continue;
            }
            let l = edge_lit(r, &mut cnf, &mut node_lit);
            buf.push(l);
            emit(&mut buf, &mut cnf);
        }
        let goal_lits: Vec<Lit> = goals
            .iter()
            .map(|&g| edge_lit(g, &mut cnf, &mut node_lit))
            .collect();
        CnfEmission {
            cnf,
            input_vars,
            goal_lits,
            clauses_deduped,
        }
    }
}

/// The result of [`Circuit::to_cnf_opts`]: the emitted formula plus the
/// bookkeeping the higher layers surface as statistics.
#[derive(Debug)]
pub struct CnfEmission {
    /// The Tseitin-encoded formula.
    pub cnf: CnfFormula,
    /// Input ordinal → CNF variable, in creation order.
    pub input_vars: Vec<Var>,
    /// One unasserted literal per requested goal edge.
    pub goal_lits: Vec<Lit>,
    /// Duplicate and tautological clauses dropped during emission.
    pub clauses_deduped: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn env2(x: bool, y: bool) -> impl Fn(u32) -> bool {
        move |i| [x, y][i as usize]
    }

    #[test]
    fn constant_laws() {
        let mut c = Circuit::new();
        let x = c.input();
        assert_eq!(c.and2(x, c.tru()), x);
        assert_eq!(c.and2(c.fls(), x), c.fls());
        assert_eq!(c.and2(x, !x), c.fls());
        assert_eq!(c.and2(x, x), x);
        assert_eq!(!c.tru(), c.fls());
    }

    #[test]
    fn hash_consing_shares_gates() {
        let mut c = Circuit::new();
        let x = c.input();
        let y = c.input();
        let g1 = c.and2(x, y);
        let g2 = c.and2(y, x);
        assert_eq!(g1, g2);
        assert_eq!(c.num_gates(), 1);
    }

    #[test]
    fn truth_tables() {
        let mut c = Circuit::new();
        let x = c.input();
        let y = c.input();
        let and = c.and2(x, y);
        let or = c.or2(x, y);
        let xor = c.xor2(x, y);
        let iff = c.iff2(x, y);
        let imp = c.implies(x, y);
        for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
            let env = env2(a, b);
            assert_eq!(c.eval(and, &env), a && b);
            assert_eq!(c.eval(or, &env), a || b);
            assert_eq!(c.eval(xor, &env), a ^ b);
            assert_eq!(c.eval(iff, &env), a == b);
            assert_eq!(c.eval(imp, &env), !a || b);
        }
    }

    #[test]
    fn ite_truth_table() {
        let mut c = Circuit::new();
        let s = c.input();
        let t = c.input();
        let e = c.input();
        let m = c.ite(s, t, e);
        for bits in 0..8u32 {
            let env = move |i: u32| bits >> i & 1 == 1;
            let (sv, tv, ev) = (env(0), env(1), env(2));
            assert_eq!(c.eval(m, &env), if sv { tv } else { ev });
        }
    }

    #[test]
    fn many_input_aggregates() {
        let mut c = Circuit::new();
        let xs: Vec<B> = (0..5).map(|_| c.input()).collect();
        let all = c.and_many(xs.len(), xs.iter().copied().enumerate());
        let any = c.or_many(xs.len(), xs.iter().copied().enumerate());
        for bits in 0..32u32 {
            let env = move |i: u32| bits >> i & 1 == 1;
            assert_eq!(c.eval(all, &env), bits == 31, "and at {bits:05b}");
            assert_eq!(c.eval(any, &env), bits != 0, "or at {bits:05b}");
        }
    }

    #[test]
    fn empty_aggregates() {
        let mut c = Circuit::new();
        assert_eq!(c.and_many(0, []), c.tru());
        assert_eq!(c.or_many(0, []), c.fls());
        assert_eq!(c.and_many(7, []), c.tru());
        assert_eq!(c.or_many(7, []), c.fls());
        let x = c.input();
        assert_eq!(c.and_many(1000, [(999, x)]), x);
        assert_eq!(c.num_gates(), 0);
    }

    /// The sparse reduction creates the gates of the dense one, in order:
    /// filling the skipped positions with true changes neither the result
    /// nor any gate number.
    #[test]
    fn sparse_reduction_matches_the_filled_list() {
        for len in [2usize, 3, 5, 8, 13, 33] {
            for mask in [0b1011_0110_1101u64, 0x5555_5555, 0xffff_fffe, 0x1_0000_0001] {
                let build = |fill: bool| {
                    let mut c = Circuit::new();
                    // One shared input pool, so hash-consing can hit.
                    let xs: Vec<B> = (0..4).map(|_| c.input()).collect();
                    // Listed edges are inputs or their negations; a
                    // filled-in position holds the reduction's identity.
                    let cells = |identity: B| -> Vec<(usize, B)> {
                        (0..len)
                            .filter(|&p| fill || mask >> p & 1 == 1)
                            .map(|p| match mask >> p & 1 {
                                1 if p % 3 == 0 => (p, !xs[p % 4]),
                                1 => (p, xs[p % 4]),
                                _ => (p, identity),
                            })
                            .collect()
                    };
                    let (ands, ors) = (cells(c.tru()), cells(c.fls()));
                    let or = c.or_many(len, ors);
                    let and = c.and_many(len, ands);
                    (and, or, c.num_gates(), c.to_cnf(&[and, or]).0)
                };
                assert_eq!(build(false), build(true), "len {len}, mask {mask:#x}");
            }
        }
    }

    /// Input models of `cnf`, projected on `inputs`.
    fn input_models(cnf: &CnfFormula, inputs: &[Var]) -> HashSet<Vec<bool>> {
        let mut s = cnf.to_solver();
        let mut out = HashSet::new();
        s.enumerate_models(inputs, 1 << inputs.len(), |m| {
            out.insert(inputs.iter().map(|&v| m.value(v)).collect::<Vec<_>>());
            true
        });
        out
    }

    /// A circuit with its roots, its goals, and the CNF variables beyond
    /// the inputs and the clauses its emission with those goals spends.
    struct EmissionCase {
        label: &'static str,
        circuit: Circuit,
        roots: Vec<B>,
        goals: Vec<B>,
        gate_vars: usize,
        clauses: usize,
    }

    fn emission_cases() -> Vec<EmissionCase> {
        let case = |label, gate_vars, clauses, build: fn(&mut Circuit) -> (Vec<B>, Vec<B>)| {
            let mut circuit = Circuit::new();
            let (roots, goals) = build(&mut circuit);
            EmissionCase {
                label,
                circuit,
                roots,
                goals,
                gate_vars,
                clauses,
            }
        };
        fn inputs(c: &mut Circuit, k: usize) -> Vec<B> {
            (0..k).map(|_| c.input()).collect()
        }
        vec![
            case("xor and ite, no goals", 6, 11, |c| {
                let xs = inputs(c, 3);
                let f = c.xor2(xs[0], xs[1]);
                (vec![c.ite(xs[2], f, !xs[0])], vec![])
            }),
            case("8-input and_many", 1, 9, |c| {
                let xs = inputs(c, 8);
                (vec![c.and_many(8, xs.into_iter().enumerate())], vec![])
            }),
            case("8-input or_many", 1, 2, |c| {
                let xs = inputs(c, 8);
                (vec![c.or_many(8, xs.into_iter().enumerate())], vec![])
            }),
            case("subtree shared by two parents", 2, 6, |c| {
                let xs = inputs(c, 4);
                let shared = c.and2(xs[0], xs[1]);
                let p = c.and2(shared, xs[2]);
                let q = c.and2(shared, !xs[3]);
                // p and q are absorbed into the root; `shared` is not.
                (vec![c.and2(p, q)], vec![])
            }),
            case("single-fanout gate under a complement", 2, 4, |c| {
                let xs = inputs(c, 3);
                let inner = c.and2(xs[0], xs[1]);
                (vec![c.and2(!inner, xs[2])], vec![])
            }),
            case("goal inside an and tree", 2, 8, |c| {
                let xs = inputs(c, 4);
                let left = c.and2(xs[0], xs[1]);
                let right = c.and2(!xs[2], xs[3]);
                let top = c.and2(left, right);
                // `left` keeps its variable as a goal; `right` is absorbed.
                (vec![!top], vec![left, top])
            }),
            case("goals only, inside an or tree", 2, 7, |c| {
                let xs = inputs(c, 4);
                let any = c.or_many(4, xs.iter().copied().enumerate());
                let Node::And(inner, _) = c.nodes[any.node()] else {
                    unreachable!("a 4-input tree is a gate")
                };
                (vec![], vec![any, inner])
            }),
            case("constant true root, constant goals", 1, 1, |c| {
                let x = c.input();
                let (t, f) = (c.tru(), c.fls());
                (vec![t], vec![t, f, x])
            }),
            case("constant false root", 0, 1, |c| {
                let x = c.input();
                (vec![c.fls()], vec![!x])
            }),
            case("subtree reached both ways by the root", 4, 8, |c| {
                let xs = inputs(c, 4);
                let s = c.and2(xs[0], xs[1]);
                let a = c.and2(s, xs[2]);
                let b = c.and2(!s, xs[3]);
                // `a` and `b` are needed false, so `s` is needed false
                // through `a` and true through `b`: it keeps both
                // directions, they keep only their long clauses.
                (vec![c.and2(!a, !b)], vec![])
            }),
            case("subtree shared by the root and a goal", 3, 8, |c| {
                let xs = inputs(c, 4);
                let s = c.and2(xs[0], xs[1]);
                // The root needs `s` only true; the goal above it needs
                // `s` both ways.
                let root = c.or2(s, xs[2]);
                (vec![root], vec![c.and2(s, xs[3])])
            }),
            case("complemented root: NEG only", 2, 4, |c| {
                let xs = inputs(c, 3);
                let s = c.and2(xs[0], xs[1]);
                let t = c.and2(xs[1], xs[2]);
                // The root gate, `s` absorbed, gets one long clause and no
                // binaries; `t`, under a complement, gets two binaries.
                (vec![!c.and2(s, !t)], vec![])
            }),
            case("and_many root: POS only", 2, 6, |c| {
                let xs = inputs(c, 5);
                let o = c.or2(xs[3], xs[4]);
                // Four binaries for the root gate and no long clause; the
                // or under it gets one long clause.
                let cells = [xs[0], !xs[1], xs[2], o];
                (vec![c.and_many(4, cells.into_iter().enumerate())], vec![])
            }),
        ]
    }

    /// Every emission agrees with `eval` on every input assignment: its
    /// input models are exactly the assignments under which every root
    /// holds, and each goal literal is forced to the goal's value.
    #[test]
    fn cnf_agrees_with_eval() {
        for EmissionCase {
            label,
            circuit: c,
            roots,
            goals,
            gate_vars,
            clauses,
        } in emission_cases()
        {
            let n = c.num_inputs();
            let holds = |bits: u32| {
                let env = move |i: u32| bits >> i & 1 == 1;
                roots.iter().all(|&r| c.eval(r, &env))
            };
            let expected: HashSet<Vec<bool>> = (0..1u32 << n)
                .filter(|&bits| holds(bits))
                .map(|bits| (0..n).map(|i| bits >> i & 1 == 1).collect())
                .collect();
            let (cnf, inputs) = c.to_cnf(&roots);
            assert_eq!(input_models(&cnf, &inputs), expected, "{label}: roots only");
            let (cnf, inputs, goal_lits) = c.to_cnf_with_goals(&roots, &goals);
            assert_eq!(input_models(&cnf, &inputs), expected, "{label}: with goals");
            assert_eq!(
                cnf.num_vars(),
                inputs.len() + gate_vars,
                "{label}: variables"
            );
            assert_eq!(cnf.num_clauses(), clauses, "{label}: clauses");
            let mut s = cnf.to_solver();
            for bits in 0..1u32 << n {
                let env = move |i: u32| bits >> i & 1 == 1;
                let mut assumptions: Vec<Lit> =
                    (0..n).map(|i| inputs[i as usize].lit(env(i))).collect();
                assert_eq!(
                    s.solve_with_assumptions(&assumptions).is_sat(),
                    holds(bits),
                    "{label}: roots at {bits:b}"
                );
                if !holds(bits) {
                    continue;
                }
                for (&goal, &lit) in goals.iter().zip(&goal_lits) {
                    let value = c.eval(goal, &env);
                    for (l, want) in [(lit, value), (!lit, !value)] {
                        assumptions.push(l);
                        assert_eq!(
                            s.solve_with_assumptions(&assumptions).is_sat(),
                            want,
                            "{label}: goal {goal:?} at {bits:b}"
                        );
                        assumptions.pop();
                    }
                }
            }
        }
    }

    #[test]
    fn goal_literals_gate_without_asserting() {
        let mut c = Circuit::new();
        let x = c.input();
        let y = c.input();
        let g1 = c.and2(x, y);
        let g2 = c.xor2(x, y);
        let (cnf, inputs, goals) = c.to_cnf_with_goals(&[], &[g1, g2]);
        let mut s = cnf.to_solver();
        // No goal asserted: satisfiable.
        assert!(s.solve().is_sat());
        // Activate each goal as an assumption and check the projection.
        assert!(s.solve_with_assumptions(&[goals[0]]).is_sat());
        let m = s.model().unwrap();
        assert!(m.value(inputs[0]) && m.value(inputs[1]));
        assert!(s.solve_with_assumptions(&[goals[1]]).is_sat());
        let m = s.model().unwrap();
        assert_ne!(m.value(inputs[0]), m.value(inputs[1]));
        // Both goals at once are contradictory; neither is asserted, so the
        // solver stays reusable afterwards.
        assert!(!s.solve_with_assumptions(&[goals[0], goals[1]]).is_sat());
        assert!(s.solve().is_sat());
        // Constant goals get (frozen) literals too.
        let (cnf2, _, goals2) = c.to_cnf_with_goals(&[], &[c.tru(), c.fls()]);
        let mut s2 = cnf2.to_solver();
        assert!(s2.solve_with_assumptions(&[goals2[0]]).is_sat());
        assert!(!s2.solve_with_assumptions(&[goals2[1]]).is_sat());
    }

    #[test]
    fn dedup_drops_duplicate_clauses_and_preserves_models() {
        // The same root asserted twice: the second unit clause duplicates
        // the first.
        let mut twice = Circuit::new();
        let (x, y) = (twice.input(), twice.input());
        let g = twice.or2(x, y);
        // One leaf reached through two absorbed subtrees of the root gate:
        // its `(¬root ∨ x)` clause is emitted twice.
        let mut shared_leaf = Circuit::new();
        let (x, y, z) = (
            shared_leaf.input(),
            shared_leaf.input(),
            shared_leaf.input(),
        );
        let (left, right) = (shared_leaf.and2(x, y), shared_leaf.and2(x, z));
        let root = shared_leaf.and2(left, right);
        for (label, c, roots) in [
            ("root twice", twice, vec![g, g]),
            ("shared leaf", shared_leaf, vec![root]),
        ] {
            // Dedup must drop exactly the one duplicate.
            let deduped = c.to_cnf_opts(&roots, &[], true);
            let raw = c.to_cnf_opts(&roots, &[], false);
            assert_eq!(deduped.clauses_deduped, 1, "{label}");
            assert_eq!(raw.clauses_deduped, 0, "{label}");
            assert_eq!(
                deduped.cnf.num_clauses() + 1,
                raw.cnf.num_clauses(),
                "{label}"
            );
            // Both emissions project to the same input models.
            assert_eq!(
                input_models(&deduped.cnf, &deduped.input_vars),
                input_models(&raw.cnf, &raw.input_vars),
                "{label}"
            );
        }
    }

    #[test]
    fn dedup_keeps_distinct_clauses_that_share_a_key() {
        // The root gate's leaves are x, y, x and z, so `(¬root ∨ x)` is
        // emitted twice, and the root is asserted twice.
        let mut c = Circuit::new();
        let (x, y, z) = (c.input(), c.input(), c.input());
        let (left, right) = (c.and2(x, y), c.and2(x, z));
        let root = c.and2(left, right);
        let hashed = c.to_cnf_opts(&[root, root], &[], true);
        // Every clause under one key: only the comparison with the stored
        // clauses tells `(¬root ∨ x)`, `(¬root ∨ y)`, `(¬root ∨ z)` and
        // `(root)` apart.
        let one_key = c.to_cnf_keyed(&[root, root], &[], Some(|_| 0));
        let raw = c.to_cnf_opts(&[root, root], &[], false);
        let g = Var::from_index(3).positive();
        let [x, y, z] = [0, 1, 2].map(|i| hashed.input_vars[i].positive());
        let expected = [vec![x, !g], vec![y, !g], vec![z, !g], vec![g]];
        assert!(one_key.cnf.clauses().eq(&expected));
        assert_eq!(one_key.cnf, hashed.cnf);
        assert_eq!(one_key.clauses_deduped, 2);
        assert_eq!(hashed.clauses_deduped, 2);
        assert_eq!(raw.cnf.num_clauses(), expected.len() + 2);
    }

    #[test]
    fn dedup_is_a_no_op_on_hash_consed_emission() {
        // Structural hashing gives distinct gates distinct literals, so a
        // duplicate gate clause needs two absorbed subtrees of one gate to
        // share a leaf (see the test above). Where none do, as here, a
        // single-root emission dedups nothing — the counter is a tripwire,
        // not a load-bearing optimization.
        let mut c = Circuit::new();
        let xs: Vec<B> = (0..4).map(|_| c.input()).collect();
        let parity = c.xor2(xs[0], xs[1]);
        let any = c.or_many(xs.len(), xs.iter().copied().enumerate());
        let root = c.ite(xs[2], parity, any);
        let e = c.to_cnf_opts(&[root], &[], true);
        assert_eq!(e.clauses_deduped, 0);
    }

    #[test]
    fn cnf_false_root_is_unsat() {
        let mut c = Circuit::new();
        let x = c.input();
        let contradiction = c.and2(x, !x);
        let (cnf, _) = c.to_cnf(&[contradiction]);
        let mut s = cnf.to_solver();
        assert!(!s.solve().is_sat());
    }

    #[test]
    fn cnf_true_root_is_sat() {
        let c = Circuit::new();
        let (cnf, _) = c.to_cnf(&[c.tru()]);
        let mut s = cnf.to_solver();
        assert!(s.solve().is_sat());
    }
}
