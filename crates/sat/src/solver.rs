//! The CDCL solver.
//!
//! A conflict-driven clause-learning SAT solver in the MiniSat lineage:
//! two-watched-literal propagation, first-UIP conflict analysis with clause
//! minimization, VSIDS decision heuristic with phase saving, Luby restarts
//! and glucose-style tiered learnt-clause database reduction keyed on LBD.
//!
//! # Clause storage and watchers
//!
//! Clauses live in one flat `u32` arena (see the `clause` module): a short
//! header, then the literals inline, so a watcher reaches a clause's
//! literals in one hop. A watcher is 8 bytes, the clause handle and a
//! blocker literal, and bit 31 of the handle word tags a binary clause. A
//! binary clause's blocker is always its other literal, so `propagate`
//! settles it from the watcher alone: the blocker is true (skip), unassigned
//! (imply it) or false (conflict). Only a conflict reads the arena, to put
//! the clause's literals in the order conflict analysis has always seen
//! (the other literal first). Analysis reads reason clauses in place and
//! skips the implied literal by value, since a binary reason's stored order
//! is no longer kept up to date.
//!
//! `reduce_db` detaches lazily: it flags the clauses it deletes, then sweeps
//! every watch list once, keeping the order of the watchers that stay. When
//! dead words exceed half the arena, compaction copies the live clauses in
//! arena order into a fresh arena and remaps the handles in the watchers
//! and in the variables' reasons. Neither changes the search: watch-list order, arena
//! order and every literal order analysis reads are those of a store that
//! detaches eagerly and never moves a clause.
//!
//! # Assignment
//!
//! The assignment is a table of `2 × num_vars` values indexed by
//! [`Lit::code`], the layout of the DRAT checker's `vals` in the `proof`
//! module, so a literal's value (a blocker, a replacement watch) is one
//! load with no sign test. Assigning `l` writes both polarities, `l` true
//! and `!l` false, and backtracking clears both, so a variable's two
//! entries are always each other's negation or both unset. A variable's
//! reason clause and decision level sit side by side in one 8-byte
//! record, since conflict analysis reads them together. Neither layout
//! orders anything: watch lists, the arena, heap ties and the literal
//! order analysis reads are what they would be under per-variable tables.
//!
//! [`Solver::add_clause`] sorts, deduplicates and root-filters each clause
//! in one scratch buffer that the solver keeps, so loading a formula
//! ([`Solver::add_cnf`], a loop over it) allocates nothing per clause
//! beyond the arena's own growth.

use crate::clause::{ClauseDb, ClauseRef, BINARY_TAG};
use crate::cnf::CnfFormula;
use crate::lit::{LBool, Lit, Var};
use crate::luby::luby;
use crate::proof::{Proof, ProofLog, ProofStep};
use std::sync::mpsc::{self, Receiver};

/// VSIDS variable-activity decay (MiniSat's).
const VAR_DECAY: f64 = 0.95;

/// Learnt-clause activity decay (MiniSat's).
const CLAUSE_DECAY: f64 = 0.999;

/// Conflicts before the first restart; the Luby sequence scales it.
const RESTART_BASE: u64 = 100;

/// Outcome of a [`Solver::solve`] call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SolveResult {
    /// A satisfying assignment was found; read it with [`Solver::model`].
    Sat,
    /// The formula (under the given assumptions, if any) is unsatisfiable.
    Unsat,
}

impl SolveResult {
    /// `true` iff the result is [`SolveResult::Sat`].
    pub fn is_sat(self) -> bool {
        self == SolveResult::Sat
    }
}

/// A satisfying assignment, indexed by [`Var`].
///
/// Obtained from [`Solver::model`] after a successful solve.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Model {
    values: Vec<bool>,
}

impl Model {
    /// Truth value of `var` in this model.
    ///
    /// # Panics
    ///
    /// Panics if `var` was not part of the solved formula.
    pub fn value(&self, var: Var) -> bool {
        self.values[var.index()]
    }

    /// Truth value of a literal in this model.
    pub fn lit_value(&self, lit: Lit) -> bool {
        self.value(lit.var()) == lit.is_positive()
    }

    /// Number of variables covered.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` if the model covers no variables.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// Cumulative solver statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Decisions made.
    pub decisions: u64,
    /// Literals propagated.
    pub propagations: u64,
    /// Conflicts encountered.
    pub conflicts: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Conflicts that occurred while one or more assumption levels were on
    /// the trail (i.e. at a decision level within the assumption prefix).
    /// Always 0 for assumption-free solves.
    pub assumption_conflicts: u64,
    /// Learnt clauses deleted by database reduction.
    pub deleted_clauses: u64,
    /// Learnt-clause database reduction passes.
    pub db_reductions: u64,
    /// Solve calls.
    pub solves: u64,
}

/// A watch-list entry: a clause handle whose bit 31 tags a binary clause,
/// and a blocker literal. A true blocker means the clause is satisfied and
/// need not be visited; a binary clause's blocker is its other literal.
#[derive(Clone, Copy, Debug)]
struct Watcher {
    tagged: u32,
    blocker: Lit,
}

impl Watcher {
    #[inline]
    fn new(cref: ClauseRef, blocker: Lit, binary: bool) -> Watcher {
        debug_assert!(cref.0 < BINARY_TAG, "ClauseRef::from_offset bounds it");
        let tag = if binary { BINARY_TAG } else { 0 };
        Watcher {
            tagged: cref.0 | tag,
            blocker,
        }
    }

    #[inline]
    fn cref(self) -> ClauseRef {
        ClauseRef(self.tagged & !BINARY_TAG)
    }

    #[inline]
    fn is_binary(self) -> bool {
        self.tagged & BINARY_TAG != 0
    }
}

/// The reason of a variable no clause implied: a decision, an assumption
/// or a root unit. No clause has this handle, since arena offsets stay
/// below [`BINARY_TAG`].
const NO_REASON: ClauseRef = ClauseRef(u32::MAX);

/// A variable's reason clause and decision level, side by side, since
/// conflict analysis reads them together.
#[derive(Clone, Copy, Debug)]
struct VarData {
    reason: ClauseRef,
    level: u32,
}

impl VarData {
    #[inline]
    fn new(reason: Option<ClauseRef>, level: u32) -> VarData {
        VarData {
            reason: reason.unwrap_or(NO_REASON),
            level,
        }
    }
}

/// Scratch for counting the distinct decision levels of a literal set,
/// indexed by level. It grows with the deepest level ever opened, which
/// can exceed the variable count: an assumption that is already true opens
/// an empty level.
#[derive(Debug, Default)]
struct LevelStamps {
    stamps: Vec<u64>,
    stamp: u64,
}

impl LevelStamps {
    fn cover(&mut self, level: usize) {
        if self.stamps.len() <= level {
            self.stamps.resize(level + 1, 0);
        }
    }

    /// The LBD of `lits`: their distinct nonzero decision levels.
    fn count(&mut self, vardata: &[VarData], lits: impl IntoIterator<Item = Lit>) -> u32 {
        self.stamp += 1;
        let mut n = 0;
        for l in lits {
            let lv = vardata[l.var().index()].level as usize;
            if lv > 0 && self.stamps[lv] != self.stamp {
                self.stamps[lv] = self.stamp;
                n += 1;
            }
        }
        n
    }
}

/// A conflict-driven clause-learning SAT solver.
///
/// # Examples
///
/// ```
/// use mca_sat::{Solver, SolveResult};
///
/// let mut s = Solver::new();
/// let a = s.new_var().positive();
/// let b = s.new_var().positive();
/// s.add_clause([a, b]);
/// s.add_clause([!a]);
/// assert_eq!(s.solve(), SolveResult::Sat);
/// let m = s.model().expect("sat");
/// assert!(!m.lit_value(a));
/// assert!(m.lit_value(b));
/// ```
#[derive(Debug)]
pub struct Solver {
    db: ClauseDb,
    watches: Vec<Vec<Watcher>>,
    /// Current assignment, indexed by [`Lit::code`]: `vals[l.code()]` is
    /// the value of `l`, so a variable's two literals hold each other's
    /// negation (or are both unset).
    vals: Vec<LBool>,
    /// Reason clause and decision level of each variable.
    vardata: Vec<VarData>,
    /// Assignment trail.
    trail: Vec<Lit>,
    /// Indices into `trail` marking decision levels.
    trail_lim: Vec<usize>,
    /// Propagation queue head (index into trail).
    qhead: usize,
    /// VSIDS activity per variable.
    activity: Vec<f64>,
    var_inc: f64,
    order: crate::heap::VarHeap,
    /// Saved phase per variable; a fresh variable's is `false`.
    phase: Vec<bool>,
    /// Clause activity increment.
    cla_inc: f64,
    /// Scratch for conflict analysis.
    seen: Vec<bool>,
    /// `true` once an empty clause was derived at level 0.
    unsat: bool,
    /// Conflict clause over assumptions from the last failed assumption solve.
    conflict_assumptions: Vec<Lit>,
    stats: SolverStats,
    /// Scratch for LBD computation.
    lbd_levels: LevelStamps,
    /// Scratch for the clause being added, reused so that loading a
    /// formula allocates nothing per clause.
    clause_buf: Vec<Lit>,
    /// DRAT proof log, recorded or streamed, when enabled.
    proof: Option<ProofLog>,
    /// Opt-in profiling-span recorder, installed with
    /// [`set_spans`](Solver::set_spans).
    spans: Option<mca_obs::SpanRecorder>,
    /// Highest live learnt-clause count ever observed.
    learnt_peak: usize,
}

impl Default for Solver {
    fn default() -> Self {
        Solver::new()
    }
}

impl Solver {
    /// Creates an empty solver with no variables or clauses.
    pub fn new() -> Solver {
        Solver {
            db: ClauseDb::new(),
            watches: Vec::new(),
            vals: Vec::new(),
            vardata: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            order: crate::heap::VarHeap::new(),
            phase: Vec::new(),
            cla_inc: 1.0,
            seen: Vec::new(),
            unsat: false,
            conflict_assumptions: Vec::new(),
            stats: SolverStats::default(),
            lbd_levels: LevelStamps::default(),
            clause_buf: Vec::new(),
            proof: None,
            spans: None,
            learnt_peak: 0,
        }
    }

    /// Installs a profiling-span recorder: subsequent
    /// [`preprocess`](Solver::preprocess) and solve calls emit
    /// `sat.preprocess` / `sat.solve` / `sat.restart-epoch` spans with
    /// resource-accounting exit fields (conflict/decision deltas,
    /// clause-DB bytes, learnt live/peak counts, arena allocations, peak
    /// RSS). Span recording is strictly opt-in: with no recorder the cost
    /// is a branch on an `Option`, and plain event traces stay
    /// byte-identical.
    pub fn set_spans(&mut self, recorder: mca_obs::SpanRecorder) {
        self.spans = Some(recorder);
    }

    /// Removes the span recorder, if any.
    pub fn clear_spans(&mut self) {
        self.spans = None;
    }

    /// Highest learnt-clause count the database ever held at once.
    pub fn learnt_peak(&self) -> usize {
        self.learnt_peak
    }

    /// Heap footprint of the clause database in bytes: the capacity of its
    /// arena, dead words included.
    pub fn clause_db_bytes(&self) -> u64 {
        self.db.bytes_estimate()
    }

    /// Clauses ever allocated in the clause arena (cumulative, including
    /// deleted ones).
    pub fn clause_allocations(&self) -> u64 {
        self.db.allocations()
    }

    /// Attaches the standard resource-accounting fields to a span exit.
    fn attach_resource_fields(&self, span: &mut mca_obs::SpanGuard) {
        span.field("clause_db_bytes", self.db.bytes_estimate());
        span.field("clause_allocs", self.db.allocations());
        span.field("learnt_live", self.db.num_learnt() as u64);
        span.field("learnt_peak", self.learnt_peak as u64);
        if let Some(kb) = mca_obs::peak_rss_kb() {
            span.field("peak_rss_kb", kb);
        }
    }

    /// Starts recording a DRAT proof. Call before adding clauses; retrieve
    /// the proof with [`take_proof`](Solver::take_proof) after an
    /// unsatisfiable [`solve`](Solver::solve).
    ///
    /// Proofs certify plain `solve()` refutations, optionally preceded by
    /// [`preprocess`](Solver::preprocess) (every simplification step is
    /// itself logged as a checkable DRAT step). Assumption-based solving
    /// and post-solve clause additions (e.g. model enumeration's blocking
    /// clauses) are not consequences of the original formula and would make
    /// the log unverifiable.
    pub fn enable_proof(&mut self) {
        self.proof = Some(ProofLog::Record(Proof::new()));
    }

    /// Takes the recorded proof, if [`enable_proof`](Solver::enable_proof)
    /// started one. A proof stream stays open.
    pub fn take_proof(&mut self) -> Option<Proof> {
        match self.proof.take() {
            Some(ProofLog::Record(proof)) => Some(proof),
            other => {
                self.proof = other;
                None
            }
        }
    }

    /// Starts a DRAT proof like [`enable_proof`](Solver::enable_proof),
    /// but sends the steps over the returned channel instead of keeping
    /// them, so a checker on another thread
    /// ([`check_drat_stream`](crate::check_drat_stream)) can check the
    /// proof while the search runs. Steps go out in proof order and in
    /// batches: a batch is sent when a step is logged 1 ms or more after
    /// the batch's first, when a solve starts its search (so the steps of
    /// loading and preprocessing go out then), and when
    /// [`close_proof_stream`](Solver::close_proof_stream) ends the stream.
    /// The channel is unbounded, so the search never waits on the checker;
    /// once the receiver is dropped, further steps go nowhere. A stream
    /// counts as proof logging everywhere a recorded proof does.
    pub fn stream_proof(&mut self) -> Receiver<Vec<ProofStep>> {
        let (to, steps) = mpsc::channel();
        self.proof = Some(ProofLog::Stream {
            to,
            batch: Vec::new(),
            since: std::time::Instant::now(),
            logged: 0,
        });
        steps
    }

    /// Ends a proof stream started with
    /// [`stream_proof`](Solver::stream_proof): sends the steps not yet
    /// sent, so its receiver sees the whole proof and then its end, and
    /// returns the number of steps streamed. `None` if no stream was open.
    pub fn close_proof_stream(&mut self) -> Option<usize> {
        let logged = self.proof.as_mut()?.finish_stream()?;
        self.proof = None;
        Some(logged)
    }

    fn log_add(&mut self, clause: &[Lit]) {
        if let Some(p) = &mut self.proof {
            p.add(clause.to_vec());
        }
    }

    fn log_delete(&mut self, cref: ClauseRef) {
        if let Some(p) = &mut self.proof {
            p.delete(self.db.lits(cref).collect());
        }
    }

    /// Creates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var::from_index(self.num_vars());
        self.vals.push(LBool::Undef);
        self.vals.push(LBool::Undef);
        self.vardata.push(VarData::new(None, 0));
        self.activity.push(0.0);
        self.phase.push(false);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.order.insert(v, &self.activity);
        v
    }

    /// Creates `n` fresh variables and returns them.
    pub fn new_vars(&mut self, n: usize) -> Vec<Var> {
        (0..n).map(|_| self.new_var()).collect()
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.vals.len() / 2
    }

    /// Number of live problem clauses (excluding learnt clauses and units).
    pub fn num_clauses(&self) -> usize {
        self.db.num_problem()
    }

    /// Number of learnt clauses currently in the database.
    pub fn num_learnt(&self) -> usize {
        self.db.num_learnt()
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> &SolverStats {
        &self.stats
    }

    /// Current value of a literal under the partial assignment.
    #[inline]
    fn lit_value(&self, l: Lit) -> LBool {
        self.vals[l.code()]
    }

    /// Decision level at which `v` was assigned.
    #[inline]
    fn level(&self, v: Var) -> u32 {
        self.vardata[v.index()].level
    }

    /// The clause that implied `v`, if any.
    #[inline]
    fn reason(&self, v: Var) -> Option<ClauseRef> {
        let r = self.vardata[v.index()].reason;
        (r != NO_REASON).then_some(r)
    }

    #[inline]
    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Opens a new decision level, growing the per-level LBD scratch with
    /// it.
    fn new_decision_level(&mut self) {
        self.trail_lim.push(self.trail.len());
        self.lbd_levels.cover(self.trail_lim.len());
    }

    /// Adds a clause. Returns `false` if the solver became trivially
    /// unsatisfiable (an empty clause was derived at level 0).
    ///
    /// Duplicate literals are removed; tautological clauses (containing both
    /// `l` and `!l`) are silently accepted and ignored.
    pub fn add_clause<I>(&mut self, lits: I) -> bool
    where
        I: IntoIterator<Item = Lit>,
    {
        if self.unsat {
            return false;
        }
        self.backtrack_to(0);
        let mut c = std::mem::take(&mut self.clause_buf);
        c.clear();
        c.extend(lits);
        let ok = self.add_buffered(&mut c);
        self.clause_buf = c;
        ok
    }

    /// Loads `cnf`: creates variables until the solver has
    /// `cnf.num_vars()`, so the formula's variable `i` is the solver's
    /// variable `i`, then adds each clause in order with
    /// [`add_clause`](Solver::add_clause).
    ///
    /// Settings made beforehand, such as a span recorder or proof logging,
    /// apply to the load.
    pub fn add_cnf(&mut self, cnf: &CnfFormula) {
        while self.num_vars() < cnf.num_vars() {
            self.new_var();
        }
        for c in cnf.clauses() {
            self.add_clause(c.iter().copied());
        }
    }

    /// [`add_clause`](Solver::add_clause) on a clause in the reused scratch
    /// buffer, which it sorts, deduplicates and filters in place.
    fn add_buffered(&mut self, c: &mut Vec<Lit>) -> bool {
        c.sort_unstable();
        c.dedup();
        // Tautology / satisfied / falsified literal pre-filtering (level 0).
        // The kept literals move down over the dropped ones; `kept <= i`, so
        // the tautology test still reads the sorted neighbour.
        let len = c.len();
        let mut kept = 0;
        for i in 0..len {
            let l = c[i];
            if i + 1 < len && c[i + 1] == !l {
                return true; // tautology: l and !l adjacent after sort
            }
            match self.lit_value(l) {
                LBool::True => return true, // already satisfied at level 0
                LBool::False => {}          // drop falsified literal
                LBool::Undef => {
                    c[kept] = l;
                    kept += 1;
                }
            }
        }
        c.truncate(kept);
        // Proof: if preprocessing changed the clause, the reduced clause is
        // a reverse-unit-propagation consequence — record it.
        if kept != len {
            self.log_add(c);
        }
        match c.len() {
            0 => {
                self.unsat = true;
                false
            }
            1 => {
                self.unchecked_enqueue(c[0], None);
                if self.propagate().is_some() {
                    self.log_add(&[]);
                    self.unsat = true;
                    false
                } else {
                    true
                }
            }
            _ => {
                let cref = self.db.push(c, false);
                self.attach(cref);
                true
            }
        }
    }

    fn attach(&mut self, cref: ClauseRef) {
        let (l0, l1) = (self.db.lit(cref, 0), self.db.lit(cref, 1));
        let binary = self.db.len(cref) == 2;
        self.watches[(!l0).code()].push(Watcher::new(cref, l1, binary));
        self.watches[(!l1).code()].push(Watcher::new(cref, l0, binary));
    }

    #[inline]
    fn unchecked_enqueue(&mut self, l: Lit, from: Option<ClauseRef>) {
        debug_assert!(self.lit_value(l).is_undef());
        self.vals[l.code()] = LBool::True;
        self.vals[(!l).code()] = LBool::False;
        let v = l.var().index();
        self.vardata[v] = VarData::new(from, self.decision_level());
        self.trail.push(l);
    }

    /// Unit propagation. Returns the conflicting clause, if any.
    fn propagate(&mut self) -> Option<ClauseRef> {
        let mut confl = None;
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let false_lit = !p;
            let mut ws = std::mem::take(&mut self.watches[p.code()]);
            let mut i = 0;
            let mut j = 0;
            let false_word = false_lit.code() as u32;
            'watchers: while i < ws.len() {
                let w = ws[i];
                i += 1;
                let blocker_value = self.lit_value(w.blocker);
                if blocker_value.is_true() {
                    ws[j] = w;
                    j += 1;
                    continue;
                }
                let cref = w.cref();
                let (first, first_value) = if w.is_binary() {
                    // The blocker is the other literal: the clause is unit
                    // or conflicting, and the watcher stays as it is.
                    ws[j] = w;
                    j += 1;
                    if blocker_value.is_false() {
                        // Analysis reads a conflict clause in stored order:
                        // the other literal first, as for a long clause.
                        let lits = self.db.lit_words_mut(cref);
                        if lits[0] == false_word {
                            lits.swap(0, 1);
                        }
                    }
                    (w.blocker, blocker_value)
                } else {
                    // Normalize: false_lit at position 1.
                    let lits = self.db.lit_words_mut(cref);
                    if lits[0] == false_word {
                        lits.swap(0, 1);
                    }
                    debug_assert_eq!(lits[1], false_word);
                    let first = Lit::from_code(lits[0] as usize);
                    let new_watcher = Watcher::new(cref, first, false);
                    if first != w.blocker && self.vals[first.code()].is_true() {
                        ws[j] = new_watcher;
                        j += 1;
                        continue;
                    }
                    // Look for a replacement watch.
                    for k in 2..lits.len() {
                        let lk = Lit::from_code(lits[k] as usize);
                        if !self.vals[lk.code()].is_false() {
                            lits.swap(1, k);
                            self.watches[(!lk).code()].push(new_watcher);
                            continue 'watchers;
                        }
                    }
                    // Clause is unit or conflicting.
                    ws[j] = new_watcher;
                    j += 1;
                    (first, self.vals[first.code()])
                };
                if first_value.is_false() {
                    // Conflict: flush the remaining watchers and stop.
                    while i < ws.len() {
                        ws[j] = ws[i];
                        j += 1;
                        i += 1;
                    }
                    self.qhead = self.trail.len();
                    confl = Some(cref);
                } else {
                    self.unchecked_enqueue(first, Some(cref));
                }
            }
            ws.truncate(j);
            debug_assert!(self.watches[p.code()].is_empty());
            self.watches[p.code()] = ws;
            if confl.is_some() {
                break;
            }
        }
        confl
    }

    fn var_bump(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.order.update(v, &self.activity);
    }

    fn decay_var_activity(&mut self) {
        self.var_inc /= VAR_DECAY;
    }

    fn cla_bump(&mut self, cref: ClauseRef) {
        if !self.db.is_learnt(cref) {
            return;
        }
        let activity = self.db.activity(cref) + self.cla_inc;
        self.db.set_activity(cref, activity);
        if activity > 1e20 {
            self.db.rescale_activity(1e20);
            self.cla_inc *= 1e-20;
        }
    }

    fn decay_clause_activity(&mut self) {
        self.cla_inc /= CLAUSE_DECAY;
    }

    /// Computes the LBD (number of distinct decision levels) of a literal set.
    fn lbd(&mut self, lits: &[Lit]) -> u32 {
        self.lbd_levels.count(&self.vardata, lits.iter().copied())
    }

    /// First-UIP conflict analysis. Returns the learnt clause (asserting
    /// literal first) and the backtrack level.
    fn analyze(&mut self, mut confl: ClauseRef) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit::from_code(0)]; // placeholder
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut idx = self.trail.len();

        loop {
            self.cla_bump(confl);
            // Glue refresh: a learnt clause whose literals now span fewer
            // decision levels gets its stored LBD lowered, promoting it
            // toward the protected tier of `reduce_db`.
            let lbd = self.db.lbd(confl);
            if self.db.is_learnt(confl) && lbd > 2 {
                let new_lbd = self
                    .lbd_levels
                    .count(&self.vardata, self.db.lits(confl))
                    .max(1);
                if new_lbd < lbd {
                    self.db.set_lbd(confl, new_lbd);
                }
            }
            // Every literal but the one `confl` implied (none for the
            // conflict clause itself).
            for k in 0..self.db.len(confl) {
                let q = self.db.lit(confl, k);
                if Some(q) == p {
                    continue;
                }
                let v = q.var();
                if !self.seen[v.index()] && self.level(v) > 0 {
                    self.var_bump(v);
                    self.seen[v.index()] = true;
                    if self.level(v) >= self.decision_level() {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Next literal to resolve on.
            loop {
                idx -= 1;
                if self.seen[self.trail[idx].var().index()] {
                    break;
                }
            }
            let pl = self.trail[idx];
            self.seen[pl.var().index()] = false;
            counter -= 1;
            p = Some(pl);
            if counter == 0 {
                break;
            }
            confl = self
                .reason(pl.var())
                .expect("non-decision must have a reason");
        }
        learnt[0] = !p.expect("analyzed at least one literal");

        // Mark for minimization.
        for &l in &learnt {
            self.seen[l.var().index()] = true;
        }
        // Basic clause minimization: a non-asserting literal is redundant if
        // its reason clause is entirely made of seen or level-0 literals.
        let mut kept = vec![learnt[0]];
        for &l in &learnt[1..] {
            let redundant = match self.reason(l.var()) {
                None => false,
                Some(r) => self.db.lits(r).all(|q| {
                    q.var() == l.var() || self.seen[q.var().index()] || self.level(q.var()) == 0
                }),
            };
            if !redundant {
                kept.push(l);
            }
        }
        for &l in &learnt {
            self.seen[l.var().index()] = false;
        }
        let mut learnt = kept;

        // Backtrack level: the highest level among non-asserting literals.
        let bt_level = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level(learnt[i].var()) > self.level(learnt[max_i].var()) {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level(learnt[1].var())
        };
        (learnt, bt_level)
    }

    /// Analyzes a conflict on assumption literals: computes the subset of
    /// assumptions sufficient for unsatisfiability.
    fn analyze_final(&mut self, p: Lit) {
        self.conflict_assumptions.clear();
        self.conflict_assumptions.push(p);
        if self.decision_level() == 0 {
            return;
        }
        self.seen[p.var().index()] = true;
        for &l in self.trail[self.trail_lim[0]..].iter().rev() {
            let v = l.var();
            if !self.seen[v.index()] {
                continue;
            }
            match self.reason(v) {
                None => {
                    // An assumption (decision) contributing to the conflict.
                    if self.level(v) > 0 {
                        self.conflict_assumptions.push(!l);
                    }
                }
                Some(r) => {
                    for q in self.db.lits(r) {
                        if q != l && self.level(q.var()) > 0 {
                            self.seen[q.var().index()] = true;
                        }
                    }
                }
            }
            self.seen[v.index()] = false;
        }
        self.seen[p.var().index()] = false;
    }

    fn backtrack_to(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let lim = self.trail_lim[level as usize];
        for &l in self.trail[lim..].iter().rev() {
            self.vals[l.code()] = LBool::Undef;
            self.vals[(!l).code()] = LBool::Undef;
            let v = l.var();
            self.phase[v.index()] = l.is_positive();
            self.vardata[v.index()].reason = NO_REASON;
            if !self.order.contains(v) {
                self.order.insert(v, &self.activity);
            }
        }
        self.trail.truncate(lim);
        self.trail_lim.truncate(level as usize);
        self.qhead = self.trail.len();
    }

    fn pick_branch_var(&mut self) -> Option<Var> {
        while let Some(v) = self.order.pop_max(&self.activity) {
            if self.lit_value(v.positive()).is_undef() {
                return Some(v);
            }
        }
        None
    }

    /// Glucose-style tiered reduction: removes roughly half of the learnt
    /// clauses, ranked worst-first by (LBD descending, activity
    /// ascending). The "core" tier — binary clauses, glue clauses (LBD ≤
    /// 2) and clauses locked as the reason for a current assignment — is
    /// never deleted, whatever its activity.
    fn reduce_db(&mut self) {
        self.stats.db_reductions += 1;
        let target = self.db.num_learnt() / 2;
        let mut candidates: Vec<(u32, f64, ClauseRef)> = Vec::new();
        for cref in self.db.iter_learnt_refs() {
            let lbd = self.db.lbd(cref);
            if self.db.len(cref) <= 2 || lbd <= 2 {
                continue;
            }
            // A clause is locked if it is the reason for a current
            // assignment. A long reason clause keeps its implied literal
            // first.
            let first = self.db.lit(cref, 0);
            if self.reason(first.var()) == Some(cref) && !self.lit_value(first).is_undef() {
                continue;
            }
            candidates.push((lbd, self.db.activity(cref), cref));
        }
        // Worst first: highest glue, then least active. The sort is stable
        // over the deterministic arena iteration order, so reduction is
        // itself deterministic.
        candidates.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.total_cmp(&b.1)));
        for &(_, _, cref) in candidates.iter().take(target) {
            self.log_delete(cref);
            self.db.delete(cref);
            self.stats.deleted_clauses += 1;
        }
        self.sweep_watches();
        self.collect_garbage();
    }

    /// Drops the watchers of deleted clauses from every watch list, keeping
    /// the order of the rest.
    fn sweep_watches(&mut self) {
        let db = &self.db;
        for ws in &mut self.watches {
            ws.retain(|w| !db.is_deleted(w.cref()));
        }
    }

    /// Compacts the clause arena once dead words exceed half of it, and
    /// remaps the handles held by watchers and reasons. Every watcher must
    /// point at a live clause (call after [`sweep_watches`]).
    ///
    /// [`sweep_watches`]: Solver::sweep_watches
    fn collect_garbage(&mut self) {
        if !self.db.wants_compaction() {
            return;
        }
        let moved = self.db.compact();
        for ws in &mut self.watches {
            for w in ws {
                *w = Watcher::new(moved.get(w.cref()), w.blocker, w.is_binary());
            }
        }
        for d in &mut self.vardata {
            if d.reason != NO_REASON {
                d.reason = moved.get(d.reason);
            }
        }
    }

    /// Runs SatELite-style preprocessing over the problem clauses as an
    /// optional pre-solve stage: unit propagation to fixpoint, subsumption
    /// and self-subsuming resolution.
    /// Returns the simplification statistics.
    ///
    /// The simplified formula has exactly the same model set over the
    /// solver's variables, so verdicts, models, assumption solving and
    /// enumeration are unaffected. When proof logging is enabled
    /// ([`enable_proof`](Solver::enable_proof) or
    /// [`stream_proof`](Solver::stream_proof)), every transformation is
    /// appended to the DRAT log, so a later refutation still checks against
    /// the *original* clauses with [`check_drat`](crate::check_drat).
    ///
    /// # Panics
    ///
    /// Panics if learnt clauses are present: preprocess before the first
    /// solve (or after solves that learnt nothing), while the clause
    /// database still holds only problem clauses.
    pub fn preprocess(&mut self) -> crate::simplify::SimplifyStats {
        match self.spans.clone() {
            None => self.preprocess_inner(),
            Some(recorder) => {
                let mut span = recorder.enter("sat.preprocess");
                let stats = self.preprocess_inner();
                span.field("subsumed", stats.subsumed as u64);
                span.field("strengthened_literals", stats.strengthened_literals as u64);
                span.field("propagated_literals", stats.propagated_literals as u64);
                span.field("satisfied_clauses", stats.satisfied_clauses as u64);
                self.attach_resource_fields(&mut span);
                stats
            }
        }
    }

    fn preprocess_inner(&mut self) -> crate::simplify::SimplifyStats {
        assert_eq!(
            self.db.num_learnt(),
            0,
            "preprocess the problem clauses before search learns from them"
        );
        self.backtrack_to(0);
        if self.unsat {
            return crate::simplify::SimplifyStats {
                found_unsat: true,
                ..Default::default()
            };
        }
        // Snapshot the problem: stored clauses plus root-level trail units.
        let mut cnf = CnfFormula::new();
        cnf.new_vars(self.num_vars());
        for cref in self.db.iter_problem_refs() {
            cnf.add_clause(self.db.lits(cref));
        }
        // The trail holds explicit unit clauses *and* literals implied by
        // root-level propagation. The implied ones exist in no stored
        // clause, yet the simplifier will use (and log steps against) all
        // of them as units — so materialize every trail literal as an Add
        // step first. Each is RUP at its emission point: in trail order it
        // is a unit-propagation consequence of the clauses before it.
        for &l in &self.trail {
            if let Some(p) = &mut self.proof {
                p.add(vec![l]);
            }
            cnf.add_clause([l]);
        }
        let (simplified, stats) = match &mut self.proof {
            Some(p) => crate::simplify::simplify_logged(&cnf, p),
            None => crate::simplify::simplify(&cnf),
        };
        // Rebuild the clause store and root assignment from the simplified
        // formula; heuristic state (activities, saved phases) is kept.
        self.db = ClauseDb::new();
        for w in &mut self.watches {
            w.clear();
        }
        self.trail.clear();
        self.trail_lim.clear();
        self.qhead = 0;
        self.vals.fill(LBool::Undef);
        for i in 0..self.num_vars() {
            self.vardata[i] = VarData::new(None, 0);
            let v = Var::from_index(i);
            if !self.order.contains(v) {
                self.order.insert(v, &self.activity);
            }
        }
        // Re-adding through `add_clause` re-establishes watches and the
        // unit trail. The simplified formula is at unit-propagation
        // fixpoint, so no clause is filtered and nothing is re-logged.
        self.add_cnf(&simplified);
        stats
    }

    /// Solves the current formula.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_with_assumptions(&[])
    }

    /// Solves under the given assumption literals. On `Unsat`, the subset of
    /// assumptions responsible is available via
    /// [`failed_assumptions`](Solver::failed_assumptions).
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> SolveResult {
        match self.spans.clone() {
            None => self.solve_body(assumptions),
            Some(recorder) => {
                let before = self.stats;
                let mut span = recorder.enter("sat.solve");
                let result = self.solve_body(assumptions);
                span.field("conflicts", self.stats.conflicts - before.conflicts);
                span.field("decisions", self.stats.decisions - before.decisions);
                span.field(
                    "propagations",
                    self.stats.propagations - before.propagations,
                );
                span.field("restarts", self.stats.restarts - before.restarts);
                self.attach_resource_fields(&mut span);
                result
            }
        }
    }

    fn solve_body(&mut self, assumptions: &[Lit]) -> SolveResult {
        // A proof stream sends the steps of loading and preprocessing now
        // rather than with the first learnt clause.
        if let Some(p) = &mut self.proof {
            p.flush();
        }
        self.stats.solves += 1;
        self.conflict_assumptions.clear();
        if self.unsat {
            return SolveResult::Unsat;
        }
        self.backtrack_to(0);
        if self.propagate().is_some() {
            self.log_add(&[]);
            self.unsat = true;
            return SolveResult::Unsat;
        }

        let mut restart_index = 0u64;
        let mut conflicts_until_restart = RESTART_BASE * luby(restart_index);
        let mut max_learnts = (self.db.num_problem() as f64 * 0.5).max(100.0);

        loop {
            // One span per restart epoch (the stretch of search between two
            // restarts) — the report's finest-grained view into where solve
            // time goes.
            let mut epoch_span = self.spans.as_ref().map(|r| {
                let mut g = r.enter("sat.restart-epoch");
                g.field("epoch", restart_index);
                g
            });
            let outcome = self.search(assumptions, &mut conflicts_until_restart, max_learnts);
            if let Some(g) = &mut epoch_span {
                g.field("conflicts", self.stats.conflicts);
                g.field("learnt_live", self.db.num_learnt() as u64);
            }
            drop(epoch_span);
            match outcome {
                SearchOutcome::Sat => return SolveResult::Sat,
                SearchOutcome::Unsat => return SolveResult::Unsat,
                SearchOutcome::Restart => {
                    self.stats.restarts += 1;
                    restart_index += 1;
                    conflicts_until_restart = RESTART_BASE * luby(restart_index);
                    max_learnts *= 1.1;
                    self.backtrack_to(0);
                }
            }
        }
    }

    fn search(&mut self, assumptions: &[Lit], budget: &mut u64, max_learnts: f64) -> SearchOutcome {
        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                if self.decision_level() > 0 && self.decision_level() as usize <= assumptions.len()
                {
                    self.stats.assumption_conflicts += 1;
                }
                if self.decision_level() == 0 {
                    self.log_add(&[]);
                    self.unsat = true;
                    return SearchOutcome::Unsat;
                }
                let (learnt, bt) = self.analyze(confl);
                self.log_add(&learnt);
                self.backtrack_to(bt);
                if learnt.len() == 1 {
                    self.unchecked_enqueue(learnt[0], None);
                } else {
                    let lbd = self.lbd(&learnt);
                    let cref = self.db.push(&learnt, true);
                    self.learnt_peak = self.learnt_peak.max(self.db.num_learnt());
                    self.db.set_lbd(cref, lbd);
                    self.attach(cref);
                    self.cla_bump(cref);
                    self.unchecked_enqueue(learnt[0], Some(cref));
                }
                self.decay_var_activity();
                self.decay_clause_activity();
                // A restart that falls due at or below the assumption
                // prefix waits, with the budget at 0, for the first
                // conflict that leaves the search above it.
                *budget = budget.saturating_sub(1);
                if *budget == 0 && self.decision_level() > assumptions.len() as u32 {
                    return SearchOutcome::Restart;
                }
            } else {
                if self.db.num_learnt() as f64 > max_learnts + self.trail.len() as f64 {
                    self.reduce_db();
                }
                // Establish assumptions as pseudo-decisions.
                let dl = self.decision_level() as usize;
                if dl < assumptions.len() {
                    let a = assumptions[dl];
                    match self.lit_value(a) {
                        LBool::True => {
                            // Already satisfied; open a dummy level to keep
                            // the level/assumption indexing aligned.
                            self.new_decision_level();
                            continue;
                        }
                        LBool::False => {
                            self.analyze_final(!a);
                            return SearchOutcome::Unsat;
                        }
                        LBool::Undef => {
                            self.new_decision_level();
                            self.unchecked_enqueue(a, None);
                            continue;
                        }
                    }
                }
                match self.pick_branch_var() {
                    None => return SearchOutcome::Sat,
                    Some(v) => {
                        self.stats.decisions += 1;
                        let phase = self.phase[v.index()];
                        self.new_decision_level();
                        self.unchecked_enqueue(v.lit(phase), None);
                    }
                }
            }
        }
    }

    /// The satisfying assignment from the most recent [`Sat`](SolveResult::Sat)
    /// answer, or `None` if some variable is unassigned (no successful solve
    /// has completed, or clauses were added since).
    pub fn model(&self) -> Option<Model> {
        let mut values = Vec::with_capacity(self.num_vars());
        // Even codes are the positive literals, one per variable in order.
        for &a in self.vals.iter().step_by(2) {
            values.push(a.to_bool()?);
        }
        Some(Model { values })
    }

    /// After an assumption-based solve returned `Unsat`, the subset of
    /// assumption literals that (negated) are implied by the formula.
    pub fn failed_assumptions(&self) -> &[Lit] {
        &self.conflict_assumptions
    }

    /// `true` if the solver has derived the empty clause (unsatisfiable
    /// regardless of assumptions).
    pub fn is_known_unsat(&self) -> bool {
        self.unsat
    }

    /// Enumerates up to `limit` models over the given projection variables,
    /// invoking `on_model` for each. Returns the number of models found.
    ///
    /// After each model, a blocking clause over the projection is added, so
    /// the solver is permanently modified. Models are distinct on the
    /// projection set.
    pub fn enumerate_models<F>(
        &mut self,
        projection: &[Var],
        limit: usize,
        mut on_model: F,
    ) -> usize
    where
        F: FnMut(&Model) -> bool,
    {
        let mut found = 0;
        while found < limit {
            if self.solve() == SolveResult::Unsat {
                break;
            }
            let model = self.model().expect("solve returned Sat");
            found += 1;
            let keep_going = on_model(&model);
            let blocking: Vec<Lit> = projection.iter().map(|&v| v.lit(!model.value(v))).collect();
            if blocking.is_empty() || !self.add_clause(blocking) {
                break;
            }
            if !keep_going {
                break;
            }
        }
        found
    }
}

enum SearchOutcome {
    Sat,
    Unsat,
    Restart,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(s: &mut Solver, n: i64) -> Lit {
        while s.num_vars() < n.unsigned_abs() as usize {
            s.new_var();
        }
        Lit::from_dimacs(n).unwrap()
    }

    fn add(s: &mut Solver, cl: &[i64]) -> bool {
        let lits: Vec<Lit> = cl.iter().map(|&n| lit(s, n)).collect();
        s.add_clause(lits)
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = Solver::new();
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn single_unit() {
        let mut s = Solver::new();
        add(&mut s, &[1]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(s.model().unwrap().value(Var::from_index(0)));
    }

    #[test]
    fn contradictory_units() {
        let mut s = Solver::new();
        add(&mut s, &[1]);
        assert!(!add(&mut s, &[-1]));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn simple_implication_chain() {
        let mut s = Solver::new();
        add(&mut s, &[-1, 2]);
        add(&mut s, &[-2, 3]);
        add(&mut s, &[1]);
        assert_eq!(s.solve(), SolveResult::Sat);
        let m = s.model().unwrap();
        assert!(m.value(Var::from_index(0)));
        assert!(m.value(Var::from_index(1)));
        assert!(m.value(Var::from_index(2)));
    }

    #[test]
    fn unsat_triangle() {
        let mut s = Solver::new();
        add(&mut s, &[1, 2]);
        add(&mut s, &[1, -2]);
        add(&mut s, &[-1, 2]);
        add(&mut s, &[-1, -2]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn tautology_is_ignored() {
        let mut s = Solver::new();
        assert!(add(&mut s, &[1, -1]));
        assert_eq!(s.num_clauses(), 0);
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn duplicate_literals_are_merged() {
        let mut s = Solver::new();
        add(&mut s, &[1, 1, 2, 2]);
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn pigeonhole_3_into_2_is_unsat() {
        // p[i][j]: pigeon i sits in hole j; 3 pigeons, 2 holes.
        let mut s = Solver::new();
        let p: Vec<Vec<Lit>> = (0..3)
            .map(|_| (0..2).map(|_| s.new_var().positive()).collect())
            .collect();
        for row in &p {
            s.add_clause(row.iter().copied());
        }
        for j in 0..2 {
            for i1 in 0..3 {
                for i2 in (i1 + 1)..3 {
                    s.add_clause([!p[i1][j], !p[i2][j]]);
                }
            }
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn pigeonhole_5_into_4_is_unsat() {
        let n = 5usize;
        let m = 4usize;
        let mut s = Solver::new();
        let p: Vec<Vec<Lit>> = (0..n)
            .map(|_| (0..m).map(|_| s.new_var().positive()).collect())
            .collect();
        for row in &p {
            s.add_clause(row.iter().copied());
        }
        for j in 0..m {
            for i1 in 0..n {
                for i2 in (i1 + 1)..n {
                    s.add_clause([!p[i1][j], !p[i2][j]]);
                }
            }
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(s.stats().conflicts > 0);
    }

    #[test]
    fn assumptions_sat_and_unsat() {
        let mut s = Solver::new();
        add(&mut s, &[-1, 2]);
        let a = Lit::from_dimacs(1).unwrap();
        let b = Lit::from_dimacs(2).unwrap();
        assert_eq!(s.solve_with_assumptions(&[a]), SolveResult::Sat);
        assert!(s.model().unwrap().lit_value(b));
        assert_eq!(s.solve_with_assumptions(&[a, !b]), SolveResult::Unsat);
        assert!(!s.failed_assumptions().is_empty());
        // Solver is still usable afterwards.
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn incremental_add_after_solve() {
        let mut s = Solver::new();
        add(&mut s, &[1, 2]);
        assert_eq!(s.solve(), SolveResult::Sat);
        add(&mut s, &[-1]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(s.model().unwrap().lit_value(Lit::from_dimacs(2).unwrap()));
        add(&mut s, &[-2]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn enumerate_all_models_of_two_free_vars() {
        let mut s = Solver::new();
        let vars = s.new_vars(2);
        let mut count = 0;
        let n = s.enumerate_models(&vars, 100, |_m| {
            count += 1;
            true
        });
        assert_eq!(n, 4);
        assert_eq!(count, 4);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn enumerate_respects_limit() {
        let mut s = Solver::new();
        let vars = s.new_vars(3);
        let n = s.enumerate_models(&vars, 3, |_| true);
        assert_eq!(n, 3);
    }

    #[test]
    fn xor_chain_sat() {
        // x1 xor x2 = 1, x2 xor x3 = 1, x1 xor x3 = 0 (consistent)
        let mut s = Solver::new();
        add(&mut s, &[1, 2]);
        add(&mut s, &[-1, -2]);
        add(&mut s, &[2, 3]);
        add(&mut s, &[-2, -3]);
        add(&mut s, &[1, -3]);
        add(&mut s, &[-1, 3]);
        assert_eq!(s.solve(), SolveResult::Sat);
        let m = s.model().unwrap();
        assert_ne!(m.value(Var::from_index(0)), m.value(Var::from_index(1)));
        assert_eq!(m.value(Var::from_index(0)), m.value(Var::from_index(2)));
    }

    /// Pigeonhole `n` into `m` holes: UNSAT when `n > m`, with real search.
    #[allow(clippy::needless_range_loop)]
    fn pigeonhole(n: usize, m: usize) -> Solver {
        let mut s = Solver::new();
        let p: Vec<Vec<Lit>> = (0..n)
            .map(|_| (0..m).map(|_| s.new_var().positive()).collect())
            .collect();
        for row in &p {
            s.add_clause(row.iter().copied());
        }
        for j in 0..m {
            for i1 in 0..n {
                for i2 in (i1 + 1)..n {
                    s.add_clause([!p[i1][j], !p[i2][j]]);
                }
            }
        }
        s
    }

    #[test]
    fn assumption_conflicts_are_counted() {
        // Assuming x1 propagates both x2 and ¬x2: the conflict occurs while
        // the assumption level is on the trail.
        let mut s = Solver::new();
        add(&mut s, &[-1, 2]);
        add(&mut s, &[-1, -2]);
        let a = Lit::from_dimacs(1).unwrap();
        assert_eq!(s.solve_with_assumptions(&[a]), SolveResult::Unsat);
        assert!(
            s.stats().assumption_conflicts > 0,
            "conflict under assumptions must be counted: {:?}",
            s.stats()
        );
        // An assumption-free solve adds none.
        let before = s.stats().assumption_conflicts;
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.stats().assumption_conflicts, before);
    }

    /// PHP(7, 6) under two assumptions on fresh, unconstrained variables:
    /// the refutation never touches the assumption levels, but a learnt
    /// unit backjumps to the root, below the prefix. A restart that falls
    /// due on such a conflict must fire at the next conflict above the
    /// prefix; skipping it for the rest of the solve leaves 6 restarts
    /// here instead of 7.
    #[test]
    fn a_restart_due_below_the_assumption_prefix_still_fires() {
        let mut s = pigeonhole(7, 6);
        let a = s.new_var().positive();
        let b = s.new_var().positive();
        assert_eq!(s.solve_with_assumptions(&[a, b]), SolveResult::Unsat);
        let st = *s.stats();
        assert_eq!([st.conflicts, st.restarts], [1207, 7]);
    }

    fn load(cnf: &crate::cnf::CnfFormula, proof: bool) -> Solver {
        let mut s = Solver::new();
        if proof {
            s.enable_proof();
        }
        s.add_cnf(cnf);
        s
    }

    #[test]
    fn preprocess_preserves_verdicts_and_models() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x9e9);
        for round in 0..150 {
            let vars = rng.gen_range(3..10usize);
            let n_clauses = rng.gen_range(0..30usize);
            let mut cnf = crate::cnf::CnfFormula::new();
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
            let baseline = cnf.to_solver().solve();
            let mut s = cnf.to_solver();
            s.preprocess();
            let verdict = s.solve();
            assert_eq!(baseline, verdict, "round {round}: verdict must not change");
            if verdict.is_sat() {
                let m = s.model().expect("sat");
                assert!(
                    crate::brute::model_satisfies(&cnf, &m),
                    "round {round}: model of the preprocessed solver must satisfy the original"
                );
            }
        }
    }

    #[test]
    fn preprocess_alone_refutes_with_checkable_proof() {
        // All four 2-literal clauses over {a, b}: no units for the solver's
        // own root propagation, but the simplifier refutes by strengthening.
        let mut cnf = crate::cnf::CnfFormula::new();
        cnf.new_vars(2);
        for c in [[1i64, 2], [1, -2], [-1, 2], [-1, -2]] {
            cnf.add_clause(c.iter().map(|&n| Lit::from_dimacs(n).unwrap()));
        }
        let mut s = load(&cnf, true);
        assert!(!s.is_known_unsat());
        let stats = s.preprocess();
        assert!(stats.found_unsat);
        assert!(s.is_known_unsat());
        assert_eq!(s.solve(), SolveResult::Unsat);
        let proof = s.take_proof().expect("proof enabled");
        assert!(proof.derives_empty_clause());
        crate::proof::check_drat(&cnf, &proof).expect("preprocessing refutation must check");
    }

    #[test]
    fn preprocessed_refutations_certify() {
        // Random mixed-length UNSAT formulas, preprocessed inside the solver
        // under proof logging: the combined DRAT log must check against the
        // original formula.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x0dda);
        let mut checked = 0;
        for _ in 0..50 {
            let vars = 8usize;
            let n_clauses = 45usize;
            let mut cnf = crate::cnf::CnfFormula::new();
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
            let mut s = load(&cnf, true);
            s.preprocess();
            if s.solve() == SolveResult::Unsat {
                let proof = s.take_proof().expect("proof enabled");
                crate::proof::check_drat(&cnf, &proof)
                    .expect("every preprocessed refutation must check");
                checked += 1;
            }
        }
        assert!(checked > 10, "expected many UNSAT instances, got {checked}");
    }

    #[test]
    fn preprocess_then_incremental_solving() {
        // Preprocessing composes with assumption solving and later clause
        // additions.
        let mut s = Solver::new();
        add(&mut s, &[1, 2, 3]);
        add(&mut s, &[1, 2]); // subsumes the ternary clause
        add(&mut s, &[-4]); // root-level unit, survives the round-trip
        let stats = s.preprocess();
        assert!(stats.subsumed >= 1);
        let a = Lit::from_dimacs(1).unwrap();
        let b = Lit::from_dimacs(2).unwrap();
        assert_eq!(s.solve_with_assumptions(&[!a]), SolveResult::Sat);
        assert!(s.model().unwrap().lit_value(b));
        add(&mut s, &[-2]);
        assert_eq!(s.solve_with_assumptions(&[!a]), SolveResult::Unsat);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(s.model().unwrap().lit_value(a));
    }

    #[test]
    fn xor_chain_unsat() {
        // x1 xor x2 = 1, x2 xor x3 = 1, x1 xor x3 = 1 (odd cycle)
        let mut s = Solver::new();
        add(&mut s, &[1, 2]);
        add(&mut s, &[-1, -2]);
        add(&mut s, &[2, 3]);
        add(&mut s, &[-2, -3]);
        add(&mut s, &[1, 3]);
        add(&mut s, &[-1, -3]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn lbd_counts_levels_beyond_the_variable_count() {
        // Two variables on levels 1 and 3: the already-true repeat of `x`
        // opens an empty level 2. With per-level scratch indexed modulo the
        // variable count, levels 1 and 3 shared a slot and the LBD read 1.
        let mut s = Solver::new();
        let x = lit(&mut s, 1);
        let y = lit(&mut s, 2);
        assert_eq!(s.solve_with_assumptions(&[x, x, y]), SolveResult::Sat);
        assert_eq!(s.decision_level(), 3);
        assert_eq!((s.level(x.var()), s.level(y.var())), (1, 3));
        assert_eq!(s.lbd(&[x, y]), 2);
    }

    #[test]
    fn watcher_tags_only_binary_clauses() {
        let l = Lit::from_dimacs(3).unwrap();
        let last = ClauseRef::from_offset(BINARY_TAG as usize - 1);
        let long = Watcher::new(last, l, false);
        assert!(!long.is_binary());
        assert_eq!((long.cref(), long.blocker), (last, l));
        let binary = Watcher::new(last, l, true);
        assert!(binary.is_binary());
        assert_eq!(binary.cref(), last);
    }

    /// Checks that every watcher and reason points at a live clause
    /// header, that binary tags match clause lengths, and that dead words
    /// are at most half the arena.
    fn assert_store_consistent(s: &Solver) {
        let live: std::collections::HashSet<ClauseRef> = s.db.iter_refs().collect();
        assert_eq!(live.len(), s.db.num_learnt() + s.db.num_problem());
        for ws in &s.watches {
            for w in ws {
                assert!(live.contains(&w.cref()), "watcher {w:?} is stale");
                assert_eq!(w.is_binary(), s.db.len(w.cref()) == 2);
            }
        }
        for r in (0..s.num_vars()).filter_map(|v| s.reason(Var::from_index(v))) {
            assert!(live.contains(&r), "reason {r:?} is stale");
        }
        assert!(s.db.dead_words() * 2 <= s.db.len_words());
    }

    #[test]
    fn compaction_keeps_watchers_and_reasons_on_live_clauses() {
        // PHP(9, 8) deletes thousands of learnt clauses over 18 reductions,
        // enough for dead words to pass half the arena and compact it.
        let mut s = pigeonhole(9, 8);
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(s.stats().deleted_clauses > 0);
        assert_store_consistent(&s);
    }

    /// PHP(`holes` + 1, `holes`) as a formula, for proof checking.
    fn pigeonhole_cnf(holes: usize) -> crate::cnf::CnfFormula {
        let pigeons = holes + 1;
        let p = |i: usize, j: usize| Var::from_index(i * holes + j).positive();
        let mut cnf = crate::cnf::CnfFormula::new();
        cnf.new_vars(pigeons * holes);
        for i in 0..pigeons {
            cnf.add_clause((0..holes).map(|j| p(i, j)));
        }
        for j in 0..holes {
            for i1 in 0..pigeons {
                for i2 in (i1 + 1)..pigeons {
                    cnf.add_clause([!p(i1, j), !p(i2, j)]);
                }
            }
        }
        cnf
    }

    /// Pins the whole search on PHP(8, 7), the one in-crate formula whose
    /// refutation runs many `reduce_db` passes: a change to clause storage,
    /// deletion or compaction that moves one swap or one tie-break moves
    /// these counts. The DRAT log, deletions included, must still check.
    #[test]
    fn pigeonhole_7_search_and_proof_are_pinned() {
        let cnf = pigeonhole_cnf(7);
        let mut s = load(&cnf, true);
        assert_eq!(s.solve(), SolveResult::Unsat);
        let st = *s.stats();
        assert_eq!(
            [
                st.conflicts,
                st.decisions,
                st.propagations,
                st.restarts,
                st.deleted_clauses,
                st.db_reductions
            ],
            [8074, 9781, 113053, 31, 6336, 28]
        );
        let proof = s.take_proof().expect("proof enabled");
        crate::proof::check_drat(&cnf, &proof).expect("the refutation must check");
    }

    /// Builds learnt clauses with known LBDs and activities, pushed in an
    /// order unrelated to their rank, plus one locked reason, and runs one
    /// reduction. The core tier (binaries, LBD <= 2, the locked reason)
    /// must survive; of the rest, the target half of all learnts goes in
    /// worst-first order, LBD descending and then activity ascending, which
    /// the proof log's deletions record.
    #[test]
    fn reduce_db_keeps_the_core_tier_and_deletes_worst_first() {
        let mut s = Solver::new();
        s.enable_proof();
        let x: Vec<Lit> = s.new_vars(12).into_iter().map(Var::positive).collect();
        let learn = |s: &mut Solver, lits: &[Lit], lbd: u32, activity: f64| {
            let cref = s.db.push(lits, true);
            s.db.set_lbd(cref, lbd);
            s.db.set_activity(cref, activity);
            s.attach(cref);
            cref
        };
        // Candidates, as (LBD, activity).
        let c_4_3 = [x[0], x[1], x[2]];
        let c_6_5 = [x[1], x[2], x[3]];
        let c_3_9 = [x[2], x[3], x[4]];
        let c_6_1 = [x[3], x[4], x[5]];
        let c_3_0 = [x[4], x[5], x[6]];
        let c_4_0 = [x[5], x[6], x[7]];
        learn(&mut s, &c_4_3, 4, 3.0);
        learn(&mut s, &c_6_5, 6, 5.0);
        // Core: the worst LBD and activity of all, but a binary clause ...
        let binary = [x[8], x[9]];
        learn(&mut s, &binary, 9, 0.0);
        learn(&mut s, &c_3_9, 3, 9.0);
        // ... and glue, at LBD 2 and 1.
        let glue2 = [x[0], x[8], x[10]];
        let glue1 = [x[1], x[9], x[11], x[7]];
        learn(&mut s, &glue2, 2, 0.0);
        learn(&mut s, &c_6_1, 6, 1.0);
        learn(&mut s, &glue1, 1, 0.0);
        learn(&mut s, &c_3_0, 3, 0.1);
        learn(&mut s, &c_4_0, 4, 0.5);
        // The locked reason: it implies its first literal, x11, from !x9
        // and !x10.
        let locked = [x[11], x[9], x[10]];
        let reason = learn(&mut s, &locked, 9, 0.0);
        for l in [!x[9], !x[10]] {
            s.new_decision_level();
            s.unchecked_enqueue(l, None);
        }
        s.unchecked_enqueue(x[11], Some(reason));
        assert!(s.lit_value(x[11]).is_true());
        assert_eq!(s.num_learnt(), 10);

        s.reduce_db();

        let deleted: Vec<Vec<Lit>> = s
            .take_proof()
            .expect("proof enabled")
            .steps()
            .iter()
            .map(|step| match step {
                ProofStep::Delete(c) => c.clone(),
                ProofStep::Add(c) => panic!("reduction added {c:?}"),
            })
            .collect();
        let worst_first: Vec<Vec<Lit>> = [c_6_1, c_6_5, c_4_0, c_4_3, c_3_0]
            .iter()
            .map(|c| c.to_vec())
            .collect();
        assert_eq!(deleted, worst_first);
        let mut survivors: Vec<Vec<Lit>> =
            s.db.iter_learnt_refs()
                .map(|r| s.db.lits(r).collect())
                .collect();
        survivors.sort();
        let mut core: Vec<Vec<Lit>> = [&binary[..], &c_3_9, &glue2, &glue1, &locked]
            .iter()
            .map(|c| c.to_vec())
            .collect();
        core.sort();
        assert_eq!(survivors, core);
        let st = *s.stats();
        assert_eq!([st.db_reductions, st.deleted_clauses], [1, 5]);
        // The reason survives compaction with its handle remapped.
        let r = s.reason(x[11].var()).expect("x11 stays implied");
        assert_eq!(s.db.lits(r).collect::<Vec<_>>(), locked);
        assert_store_consistent(&s);
        assert_assignment_consistent(&s, 12);
    }

    /// Checks the literal-indexed assignment: each variable's two entries
    /// are each other's negation (or both unset), every trail literal is
    /// true, and `num_vars` and any model cover exactly `vars` variables.
    fn assert_assignment_consistent(s: &Solver, vars: usize) {
        assert_eq!(s.num_vars(), vars);
        assert_eq!(s.vals.len(), 2 * vars);
        for v in (0..vars).map(Var::from_index) {
            let (pos, neg) = (s.vals[v.positive().code()], s.vals[v.negative().code()]);
            assert_eq!(neg, pos.negate(), "{v:?}: {pos:?} and {neg:?}");
        }
        for &l in &s.trail {
            assert!(s.lit_value(l).is_true(), "trail literal {l:?} is not true");
        }
        if let Some(m) = s.model() {
            assert_eq!(m.len(), vars);
        }
    }

    #[test]
    fn assignment_table_stays_consistent() {
        // Enumeration, one model at a time: each step leaves the state a
        // longer run reaches after the same blocking clauses, the last of
        // which backtracked from a total assignment to the root.
        let three = |s: &mut Solver| add(s, &[1, 2, 3]);
        let mut s = Solver::new();
        three(&mut s);
        let vars: Vec<Var> = (0..3).map(Var::from_index).collect();
        let mut models = 0;
        while s.enumerate_models(&vars, 1, |m| m.len() == 3) == 1 {
            models += 1;
            assert_assignment_consistent(&s, 3);
        }
        let mut all = Solver::new();
        three(&mut all);
        assert_eq!((models, all.enumerate_models(&vars, 8, |_| true)), (7, 7));

        // SAT: the model is total.
        let mut s = pigeonhole(4, 4);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.model().expect("sat").len(), 16);
        assert_assignment_consistent(&s, 16);

        // UNSAT, after search and backjumps.
        let mut s = pigeonhole(5, 4);
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert_assignment_consistent(&s, 20);

        // UNSAT under assumptions. Under two assumptions on fresh variables
        // PHP(5, 4) is refuted at the root; assuming two pigeons of PHP(4,
        // 4) in hole 0 fails at the second, with the first on the trail.
        let mut s = pigeonhole(5, 4);
        let a = s.new_var().positive();
        let b = s.new_var().positive();
        assert_eq!(s.solve_with_assumptions(&[a, b]), SolveResult::Unsat);
        assert_assignment_consistent(&s, 22);
        let mut s = pigeonhole(4, 4);
        let (p00, p10) = (Var::from_index(0).positive(), Var::from_index(4).positive());
        assert_eq!(s.solve_with_assumptions(&[p00, p10]), SolveResult::Unsat);
        assert_eq!(s.decision_level(), 1);
        assert_assignment_consistent(&s, 16);

        // Preprocessing resets every value, then re-adds the root units.
        let mut s = Solver::new();
        add(&mut s, &[1, 2, 3]);
        add(&mut s, &[1, 2]);
        add(&mut s, &[-4]);
        add(&mut s, &[4, 5]);
        assert_eq!(s.solve(), SolveResult::Sat);
        s.preprocess();
        assert_assignment_consistent(&s, 5);
        assert!(s.lit_value(Lit::from_dimacs(5).unwrap()).is_true());
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_assignment_consistent(&s, 5);
    }
}
