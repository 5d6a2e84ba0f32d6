//! DRAT proof logging and checking.
//!
//! When proof logging is on, the solver logs every learnt clause (each a
//! reverse-unit-propagation consequence) and every deletion, ending with
//! the empty clause on UNSAT. [`Solver::enable_proof`](crate::Solver::enable_proof)
//! records the steps for [`Solver::take_proof`](crate::Solver::take_proof);
//! [`Solver::stream_proof`](crate::Solver::stream_proof) sends them over
//! a channel while the search runs. [`check_drat`] validates a recorded
//! proof against the original formula with an independent
//! unit-propagation engine, and [`check_drat_stream`] does the same for a
//! streamed one while the search is still running. Either way an
//! "unsatisfiable" answer — and hence every "assertion valid" verdict
//! produced by the model-finding pipeline above — can be certified without
//! trusting the solver.
//!
//! Only RUP steps are checked (our solver never produces proper RAT steps).
//! A proof certifies one refutation of the formula the solver was loaded
//! with: either a plain [`solve`](crate::Solver::solve) call, or a
//! [`preprocess`](crate::Solver::preprocess)-then-solve pipeline — the
//! simplifier logs each of its rewrites as Add/Delete steps, so the
//! combined log still checks against the *original* formula. Proofs do not
//! span assumption-based incremental queries.
//!
//! # The checker
//!
//! [`DratChecker`] works forward: it loads the formula, then takes the
//! proof one step at a time and checks every Add step, in proof order, so
//! a bad proof is reported at its first non-RUP step. [`check_drat`] is a
//! loop over it; [`check_drat_stream`] feeds it from a channel on a thread
//! of its own. It shares no code with the solver's search (`solver.rs`):
//! certification does not trust the propagation it certifies.
//!
//! - **Clause store.** Original clauses and added lemmas are sorted and
//!   deduplicated into one flat store. A tautology can neither propagate
//!   nor conflict, so it is stored for deletion but never watched.
//! - **Watches.** Unit propagation runs on two watched literals per
//!   clause, with the solver's watch layout: each watcher carries a
//!   blocker literal of its clause, and propagation skips the clause
//!   without reading it while the blocker is true. A binary clause's
//!   watcher is tagged and its blocker is the other literal, so the
//!   watcher alone settles the clause. Values are indexed by literal, and
//!   the per-variable arrays grow when a lemma names a new variable.
//! - **Root assignment.** The unit-propagation closure of the live clauses
//!   is kept across steps, each literal with the clause that implied it.
//!   An Add is checked by asserting the negation of its literals above
//!   the root and propagating: the step is RUP iff that conflicts. The
//!   check then undoes back to the root, and the lemma joins the store and
//!   extends the root with what it implies.
//! - **Deletions.** A Delete removes the first live clause with the same
//!   literal set, found through an order-free 64-bit hash of its literals;
//!   the hash index is built at the first Delete, so a proof without
//!   deletions never pays for it. Deleting an absent clause is a no-op.
//!   A deleted clause leaves its two watch lists at once. Deleting the
//!   reason of a root literal, whichever position that literal holds in
//!   the clause, or any clause while the root is in conflict, recomputes
//!   the root from the live unit clauses, so a deleted unit stops implying
//!   what it implied. drat-trim ignores such deletions by default; this
//!   checker does not, and matches the whole-database fixpoint checker it
//!   replaced step for step (a differential test in this module keeps
//!   that checker as the reference).
//! - **Streaming.** A streaming solver sends its steps in proof order over
//!   an unbounded channel, so the search never waits on the checker. It
//!   sends them in batches: a batch goes out when a step is logged 1 ms or
//!   more after the batch's first, when a search starts, and when the
//!   stream closes, so one send, and at most one wake-up of a waiting
//!   checker, covers many steps.
//!   [`check_drat_stream`] checks each step as it arrives and stops
//!   reading once the verdict is settled. A cancel flag, polled between
//!   steps and every 512 clauses of the load, ends the check when the
//!   solver finds a model instead.

use crate::cnf::CnfFormula;
use crate::lit::{LBool, Lit};
use std::collections::HashMap;
use std::fmt;
use std::io::{self, Write};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::time::{Duration, Instant};

/// One step of a DRAT proof.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ProofStep {
    /// A derived (learnt) clause; must be a RUP consequence of the formula
    /// plus all previously added clauses.
    Add(Vec<Lit>),
    /// Deletion of a clause (for checker efficiency; optional).
    Delete(Vec<Lit>),
}

/// A recorded proof: the sequence of steps emitted during solving.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct Proof {
    steps: Vec<ProofStep>,
}

impl Proof {
    /// Creates an empty proof.
    pub fn new() -> Proof {
        Proof::default()
    }

    /// The recorded steps.
    pub fn steps(&self) -> &[ProofStep] {
        &self.steps
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// `true` if no step was recorded.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// `true` if the proof derives the empty clause (i.e. refutes the
    /// formula, assuming it checks).
    pub fn derives_empty_clause(&self) -> bool {
        self.steps
            .iter()
            .any(|s| matches!(s, ProofStep::Add(c) if c.is_empty()))
    }

    pub(crate) fn add(&mut self, clause: Vec<Lit>) {
        self.steps.push(ProofStep::Add(clause));
    }

    pub(crate) fn delete(&mut self, clause: Vec<Lit>) {
        self.steps.push(ProofStep::Delete(clause));
    }

    /// Writes the proof in textual DRAT format (`d` prefix for deletions,
    /// DIMACS literals, 0-terminated lines).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_drat<W: Write>(&self, mut w: W) -> io::Result<()> {
        for step in &self.steps {
            let (prefix, clause) = match step {
                ProofStep::Add(c) => ("", c),
                ProofStep::Delete(c) => ("d ", c),
            };
            write!(w, "{prefix}")?;
            for l in clause {
                write!(w, "{} ", l.to_dimacs())?;
            }
            writeln!(w, "0")?;
        }
        Ok(())
    }

    /// Parses a textual DRAT proof.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first malformed line.
    pub fn parse_drat(text: &str) -> Result<Proof, String> {
        let mut proof = Proof::new();
        for (no, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('c') {
                continue;
            }
            let (is_delete, rest) = match line.strip_prefix("d ") {
                Some(r) => (true, r),
                None => (false, line),
            };
            let mut clause = Vec::new();
            let mut terminated = false;
            for tok in rest.split_whitespace() {
                let n: i64 = tok
                    .parse()
                    .map_err(|_| format!("line {}: bad literal `{tok}`", no + 1))?;
                match Lit::from_dimacs(n) {
                    Some(l) => clause.push(l),
                    None => {
                        terminated = true;
                        break;
                    }
                }
            }
            if !terminated {
                return Err(format!("line {}: missing 0 terminator", no + 1));
            }
            if is_delete {
                proof.delete(clause);
            } else {
                proof.add(clause);
            }
        }
        Ok(proof)
    }
}

/// The solver's proof log: every producer of DRAT steps (clause loading,
/// preprocessing, learning, clause-database reduction) writes to it, and
/// it either keeps the steps or streams them to a checker.
#[derive(Debug)]
pub(crate) enum ProofLog {
    /// Kept for [`Solver::take_proof`](crate::Solver::take_proof).
    Record(Proof),
    /// Sent in batches: `batch` holds the steps logged since `since`, and
    /// goes out once a step finds it [`STREAM_HOLD`] old, or on
    /// [`flush`](ProofLog::flush). `logged` counts every step.
    Stream {
        to: Sender<Vec<ProofStep>>,
        batch: Vec<ProofStep>,
        since: Instant,
        logged: usize,
    },
}

impl ProofLog {
    pub(crate) fn add(&mut self, clause: Vec<Lit>) {
        self.push(ProofStep::Add(clause));
    }

    pub(crate) fn delete(&mut self, clause: Vec<Lit>) {
        self.push(ProofStep::Delete(clause));
    }

    fn push(&mut self, step: ProofStep) {
        match self {
            ProofLog::Record(proof) => proof.steps.push(step),
            ProofLog::Stream {
                batch,
                since,
                logged,
                ..
            } => {
                *logged += 1;
                if batch.is_empty() {
                    *since = Instant::now();
                }
                batch.push(step);
                if since.elapsed() >= STREAM_HOLD {
                    self.flush();
                }
            }
        }
    }

    /// Sends what a stream holds and returns the number of steps it has
    /// logged; `None` for a record.
    pub(crate) fn finish_stream(&mut self) -> Option<usize> {
        self.flush();
        match self {
            ProofLog::Stream { logged, .. } => Some(*logged),
            ProofLog::Record(_) => None,
        }
    }

    /// Sends the steps a stream holds.
    pub(crate) fn flush(&mut self) {
        if let ProofLog::Stream { to, batch, .. } = self {
            if !batch.is_empty() {
                // A checker that has settled its verdict stops reading; the
                // search neither waits for it nor fails without it.
                let _ = to.send(std::mem::take(batch));
            }
        }
    }
}

/// Why a DRAT proof failed to check.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DratError {
    /// The clause at this step index is not a RUP consequence.
    NotRup {
        /// Index into the proof's steps.
        step: usize,
    },
    /// The proof never derives the empty clause.
    NoEmptyClause,
}

impl fmt::Display for DratError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DratError::NotRup { step } => {
                write!(
                    f,
                    "step {step} is not a reverse-unit-propagation consequence"
                )
            }
            DratError::NoEmptyClause => write!(f, "proof does not derive the empty clause"),
        }
    }
}

impl std::error::Error for DratError {}

/// Checks a refutation proof against `cnf` with the module's own
/// unit-propagation engine. On success the formula is certified
/// unsatisfiable.
///
/// # Errors
///
/// Returns [`DratError`] if a step is not RUP or the empty clause is never
/// derived.
pub fn check_drat(cnf: &CnfFormula, proof: &Proof) -> Result<(), DratError> {
    let mut checker = DratChecker::new(cnf);
    for step in proof.steps() {
        if let Some(verdict) = checker.check(step) {
            return verdict;
        }
    }
    checker.verdict()
}

/// Checks the proof a solver streams
/// ([`Solver::stream_proof`](crate::Solver::stream_proof)) against `cnf`
/// as its steps arrive, batch by batch and in proof order, with
/// [`check_drat`]'s answers. Meant for a thread beside the search: it
/// loads `cnf` while the solver loads it, then checks the steps as they
/// are learnt.
///
/// Returns once the verdict is settled, dropping `steps` so the solver's
/// further sends go nowhere, or once the stream ends
/// ([`Solver::close_proof_stream`](crate::Solver::close_proof_stream)).
/// Returns `None` instead if `cancel` is set first, as when the search
/// finds a model and there is nothing to certify. Every checked step
/// increments `checked`.
pub fn check_drat_stream(
    cnf: &CnfFormula,
    steps: Receiver<Vec<ProofStep>>,
    cancel: &AtomicBool,
    checked: &AtomicUsize,
) -> Option<Result<(), DratError>> {
    // Both atomics are plain signals and publish no other data, so they
    // are `Relaxed`: `cancel` only ends the loop early, and `checked` is a
    // count. The caller reads the verdict through the thread's join.
    let mut checker = DratChecker::load(cnf, cancel)?;
    for step in steps.into_iter().flatten() {
        if cancel.load(Ordering::Relaxed) {
            return None;
        }
        let verdict = checker.check(&step);
        checked.fetch_add(1, Ordering::Relaxed);
        if verdict.is_some() {
            return verdict;
        }
    }
    (!cancel.load(Ordering::Relaxed)).then(|| checker.verdict())
}

/// How old a proof stream's batch must be before the next step logged
/// sends it. A send that wakes a waiting checker costs the search a system
/// call, and on one usable core a switch to the checker: one send per step
/// slowed the `at_scope(3,2)` search at 8 states by 8–20% on a 2-vCPU VM.
/// Batching by age rather than by count keeps a burst, such as the
/// thousands of steps the simplifier logs at once, to a few sends, and
/// bounds how far the checker trails the search.
const STREAM_HOLD: Duration = Duration::from_millis(1);

/// How many clauses of the formula [`check_drat_stream`] loads between
/// polls of its cancel flag.
const LOAD_POLL: usize = 512;

/// An incremental DRAT checker: loads a formula, then checks a proof one
/// step at a time, in order.
///
/// # Examples
///
/// ```
/// use mca_sat::{CnfFormula, DratChecker, DratError, Proof};
///
/// // (a) & (!a | b) & (!b): refuted by the empty clause alone.
/// let cnf = CnfFormula::parse_dimacs("1 0\n-1 2 0\n-2 0\n".as_bytes()).unwrap();
/// let proof = Proof::parse_drat("2 0\n0\n").unwrap();
/// let mut checker = DratChecker::new(&cnf);
/// assert_eq!(checker.check(&proof.steps()[0]), None);
/// assert_eq!(checker.check(&proof.steps()[1]), Some(Ok(())));
/// assert_eq!(DratChecker::new(&cnf).verdict(), Err(DratError::NoEmptyClause));
/// ```
pub struct DratChecker {
    checker: Checker,
    /// Set by the step that settled the proof's verdict.
    verdict: Option<Result<(), DratError>>,
    /// Index of the next step.
    next: usize,
}

impl DratChecker {
    /// Loads `cnf`: stores its clauses and propagates its units.
    pub fn new(cnf: &CnfFormula) -> DratChecker {
        DratChecker::load(cnf, &AtomicBool::new(false)).expect("nothing cancels this load")
    }

    /// Like [`new`](DratChecker::new), but `None` once `cancel` is set.
    fn load(cnf: &CnfFormula, cancel: &AtomicBool) -> Option<DratChecker> {
        // A formula that already contains the empty clause is refuted by
        // itself; every proof (including the empty one) certifies it. This
        // arises when translation simplifies a goal to constant false.
        if cnf.clauses().any(|c| c.is_empty()) {
            return Some(DratChecker {
                checker: Checker::new(0),
                verdict: Some(Ok(())),
                next: 0,
            });
        }
        let mut checker = Checker::new(cnf.num_vars());
        for (i, clause) in cnf.clauses().enumerate() {
            if i % LOAD_POLL == 0 && cancel.load(Ordering::Relaxed) {
                return None;
            }
            checker.normalize(clause);
            checker.store();
        }
        Some(DratChecker {
            checker,
            verdict: None,
            next: 0,
        })
    }

    /// Checks the next step. Returns the proof's verdict once this step
    /// or an earlier one has settled it: `Ok` at the first empty clause,
    /// [`DratError::NotRup`] at the first Add that is not RUP. Steps after
    /// that are not checked.
    pub fn check(&mut self, step: &ProofStep) -> Option<Result<(), DratError>> {
        if self.verdict.is_none() {
            self.verdict = match step {
                ProofStep::Add(clause) => {
                    if !self.checker.add(clause) {
                        Some(Err(DratError::NotRup { step: self.next }))
                    } else {
                        clause.is_empty().then_some(Ok(()))
                    }
                }
                ProofStep::Delete(clause) => {
                    self.checker.delete(clause);
                    None
                }
            };
        }
        self.next += 1;
        self.verdict.clone()
    }

    /// The verdict on the steps checked so far: the settled one, or
    /// [`DratError::NoEmptyClause`] if no step has settled it.
    pub fn verdict(&self) -> Result<(), DratError> {
        self.verdict
            .clone()
            .unwrap_or(Err(DratError::NoEmptyClause))
    }
}

/// The reason of a literal that no clause implied: an Add step's negated
/// literal.
const NO_REASON: u32 = u32::MAX;

/// Tags the watchers of a binary clause.
const BINARY: u32 = 1 << 31;

/// A stored clause: the literals `start..end` of [`Checker::lits`], the
/// two watched ones first.
struct Stored {
    start: u32,
    end: u32,
    live: bool,
}

impl Stored {
    fn range(&self) -> Range<usize> {
        self.start as usize..self.end as usize
    }
}

/// One entry of a watch list.
#[derive(Clone, Copy)]
struct Watch {
    /// The clause id, with [`BINARY`] set when the clause has two literals.
    tagged: u32,
    /// Another literal of the clause. While it is true the clause is
    /// satisfied and propagation does not read it. A binary clause's
    /// blocker is its other literal.
    blocker: Lit,
}

impl Watch {
    fn new(id: u32, binary: bool, blocker: Lit) -> Watch {
        let tag = if binary { BINARY } else { 0 };
        Watch {
            tagged: id | tag,
            blocker,
        }
    }

    fn id(self) -> u32 {
        self.tagged & !BINARY
    }

    fn is_binary(self) -> bool {
        self.tagged & BINARY != 0
    }
}

/// Forward RUP checking state: every clause the proof has seen, and the
/// root assignment, the unit-propagation closure of the live clauses.
struct Checker {
    /// The literals of every stored clause, back to back, each clause
    /// sorted and free of repeats when stored.
    lits: Vec<Lit>,
    clauses: Vec<Stored>,
    /// Live clauses by [`set_hash`] of their literals, oldest first; built
    /// at the first deletion.
    by_hash: Option<HashMap<u64, Vec<u32>>>,
    /// The watchers of each literal, by literal code.
    watches: Vec<Vec<Watch>>,
    /// The unit clauses; deleted ones leave at the next root recompute.
    units: Vec<u32>,
    /// Per literal code.
    vals: Vec<LBool>,
    /// Per variable: the clause that implied its value, or [`NO_REASON`].
    reason: Vec<u32>,
    /// The root literals, then those an Add check asserts or implies
    /// above them.
    trail: Vec<Lit>,
    /// Trail index of the next literal to propagate.
    head: usize,
    /// The root is in conflict: the live clauses alone refute.
    conflict: bool,
    /// The clause being added or deleted, normalized.
    scratch: Vec<Lit>,
}

impl Checker {
    fn new(num_vars: usize) -> Checker {
        Checker {
            lits: Vec::new(),
            clauses: Vec::new(),
            by_hash: None,
            watches: vec![Vec::new(); 2 * num_vars],
            units: Vec::new(),
            vals: vec![LBool::Undef; 2 * num_vars],
            reason: vec![NO_REASON; num_vars],
            trail: Vec::new(),
            head: 0,
            conflict: false,
            scratch: Vec::new(),
        }
    }

    /// Sorts and dedups `clause` into `scratch`, growing the per-variable
    /// arrays to cover its variables.
    fn normalize(&mut self, clause: &[Lit]) {
        self.scratch.clear();
        self.scratch.extend_from_slice(clause);
        self.scratch.sort_unstable();
        self.scratch.dedup();
        // Sorted by code, the last literal has the largest variable.
        let Some(last) = self.scratch.last() else {
            return;
        };
        let vars = last.var().index() + 1;
        if vars > self.reason.len() {
            self.reason.resize(vars, NO_REASON);
            self.vals.resize(2 * vars, LBool::Undef);
            self.watches.resize_with(2 * vars, Vec::new);
        }
    }

    fn assign(&mut self, l: Lit, reason: u32) {
        self.vals[l.code()] = LBool::True;
        self.vals[(!l).code()] = LBool::False;
        self.reason[l.var().index()] = reason;
        self.trail.push(l);
    }

    /// Unassigns the trail from `len` on.
    fn undo_to(&mut self, len: usize) {
        for l in self.trail.drain(len..) {
            self.vals[l.code()] = LBool::Undef;
            self.vals[(!l).code()] = LBool::Undef;
        }
        self.head = len;
    }

    /// Propagates the trail from `head`; `true` on a conflict.
    fn propagate(&mut self) -> bool {
        while self.head < self.trail.len() {
            let falsified = !self.trail[self.head];
            self.head += 1;
            let mut watchers = std::mem::take(&mut self.watches[falsified.code()]);
            let (mut kept, mut i) = (0, 0);
            let mut conflict = false;
            while i < watchers.len() {
                let w = watchers[i];
                i += 1;
                let blocker = self.vals[w.blocker.code()];
                if blocker == LBool::True {
                    watchers[kept] = w;
                    kept += 1;
                    continue;
                }
                if w.is_binary() {
                    watchers[kept] = w;
                    kept += 1;
                    if blocker == LBool::False {
                        conflict = true;
                        break;
                    }
                    self.assign(w.blocker, w.id());
                    continue;
                }
                let id = w.id();
                let lits = &mut self.lits[self.clauses[id as usize].range()];
                if lits[0] == falsified {
                    lits.swap(0, 1);
                }
                let first = lits[0];
                let other = self.vals[first.code()];
                if other != LBool::True {
                    let free = (2..lits.len()).find(|&k| self.vals[lits[k].code()] != LBool::False);
                    if let Some(k) = free {
                        lits.swap(1, k);
                        self.watches[lits[1].code()].push(Watch::new(id, false, first));
                        continue;
                    }
                }
                watchers[kept] = Watch::new(id, false, first);
                kept += 1;
                match other {
                    LBool::True => {}
                    LBool::False => {
                        conflict = true;
                        break;
                    }
                    LBool::Undef => self.assign(first, id),
                }
            }
            watchers.drain(kept..i);
            self.watches[falsified.code()] = watchers;
            if conflict {
                return true;
            }
        }
        false
    }

    /// Checks and stores an Add step: `true` iff it is RUP. A RUP lemma
    /// other than the empty clause joins the store.
    fn add(&mut self, clause: &[Lit]) -> bool {
        self.normalize(clause);
        let rup = self.is_rup();
        if rup && !self.scratch.is_empty() {
            self.store();
        }
        rup
    }

    /// Reverse unit propagation of `scratch`: asserting the negation of
    /// its literals above the root and propagating conflicts. Undoes back
    /// to the root.
    fn is_rup(&mut self) -> bool {
        if self.conflict {
            return true;
        }
        let root = self.trail.len();
        let mut rup = false;
        for i in 0..self.scratch.len() {
            let l = self.scratch[i];
            match self.vals[l.code()] {
                LBool::True => {
                    rup = true;
                    break;
                }
                LBool::False => {}
                LBool::Undef => self.assign(!l, NO_REASON),
            }
        }
        let rup = rup || self.propagate();
        self.undo_to(root);
        rup
    }

    /// Stores `scratch`, a clause of the formula or an Add step, and
    /// extends the root with what it implies.
    fn store(&mut self) {
        let id = u32::try_from(self.clauses.len())
            .ok()
            .filter(|&id| id < BINARY)
            .expect("fewer than 2^31 clauses");
        let start = self.lits.len() as u32;
        self.lits.extend_from_slice(&self.scratch);
        let end = u32::try_from(self.lits.len()).expect("fewer than 2^32 literals");
        self.clauses.push(Stored {
            start,
            end,
            live: true,
        });
        if let Some(index) = &mut self.by_hash {
            index.entry(set_hash(&self.scratch)).or_default().push(id);
        }
        if is_tautology(&self.scratch) {
            return;
        }
        let len = self.scratch.len();
        if len == 1 {
            self.units.push(id);
        }
        let lits = &mut self.lits[start as usize..];
        // Move the literals the root does not falsify to the front.
        let mut open = 0;
        if !self.conflict {
            for k in 0..lits.len() {
                if self.vals[lits[k].code()] != LBool::False {
                    lits.swap(open, k);
                    open += 1;
                }
            }
        }
        let first = lits[0];
        if len >= 2 {
            let binary = len == 2;
            self.watches[lits[0].code()].push(Watch::new(id, binary, lits[1]));
            self.watches[lits[1].code()].push(Watch::new(id, binary, lits[0]));
        }
        if self.conflict {
            return;
        }
        match open {
            0 => self.conflict = true,
            1 if self.vals[first.code()] == LBool::Undef => {
                self.assign(first, id);
                self.conflict = self.propagate();
            }
            _ => {}
        }
    }

    /// Deletes the oldest live clause with the literals of `clause`, if
    /// any. Deleting the reason of a root literal, or anything while the
    /// root is in conflict, recomputes the root.
    fn delete(&mut self, clause: &[Lit]) {
        self.normalize(clause);
        let Some(id) = self.unindex() else {
            return;
        };
        let stored = &mut self.clauses[id as usize];
        stored.live = false;
        let lits = &self.lits[stored.range()];
        if lits.len() >= 2 && !is_tautology(&self.scratch) {
            for l in &lits[..2] {
                self.watches[l.code()].retain(|w| w.id() != id);
            }
        }
        // A long clause implies its first literal; a binary clause, settled
        // from its watcher, may imply either.
        let reason = lits
            .iter()
            .any(|&l| self.vals[l.code()] == LBool::True && self.reason[l.var().index()] == id);
        if self.conflict || reason {
            self.recompute_root();
        }
    }

    /// Removes from the deletion index, building it first if this is the
    /// first deletion, the oldest live clause with the literal set of
    /// `scratch`, and returns its id.
    fn unindex(&mut self) -> Option<u32> {
        let (lits, clauses, wanted) = (&self.lits, &self.clauses, &self.scratch);
        let index = self.by_hash.get_or_insert_with(|| {
            let mut index: HashMap<u64, Vec<u32>> = HashMap::new();
            for (id, c) in clauses.iter().enumerate() {
                if c.live {
                    index
                        .entry(set_hash(&lits[c.range()]))
                        .or_default()
                        .push(id as u32);
                }
            }
            index
        });
        let key = set_hash(wanted);
        let ids = index.get_mut(&key)?;
        let same = |id: u32| {
            let stored = &lits[clauses[id as usize].range()];
            stored.len() == wanted.len() && stored.iter().all(|l| wanted.binary_search(l).is_ok())
        };
        let id = ids.remove(ids.iter().position(|&id| same(id))?);
        if ids.is_empty() {
            index.remove(&key);
        }
        Some(id)
    }

    /// Rebuilds the root from scratch: asserts the live unit clauses and
    /// propagates.
    fn recompute_root(&mut self) {
        self.undo_to(0);
        let clauses = &self.clauses;
        self.units.retain(|&id| clauses[id as usize].live);
        for i in 0..self.units.len() {
            let id = self.units[i];
            let unit = self.lits[self.clauses[id as usize].start as usize];
            match self.vals[unit.code()] {
                LBool::True => {}
                LBool::False => {
                    self.conflict = true;
                    return;
                }
                LBool::Undef => self.assign(unit, id),
            }
        }
        self.conflict = self.propagate();
    }
}

/// Sorted, a tautology has a literal next to its negation.
fn is_tautology(sorted: &[Lit]) -> bool {
    sorted.windows(2).any(|w| w[0] == !w[1])
}

/// A hash of a clause's literal set that does not depend on their order,
/// so the deletion index can hash stored clauses as the watches left them.
fn set_hash(clause: &[Lit]) -> u64 {
    clause.iter().fold(0u64, |sum, l| {
        // splitmix64's finalizer spreads each literal code over 64 bits.
        let mut z = (l.code() as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        sum.wrapping_add(z ^ (z >> 31))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lit::Var;
    use crate::solver::{SolveResult, Solver};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::mpsc;

    /// Random formulas drawn, and mutants drawn per refuted one per kind.
    const FORMULAS: usize = 200;
    const ROUNDS: usize = 15;

    /// The fixpoint checker `check_drat` used before the watched-literal
    /// one, kept verbatim as the differential reference: every Add
    /// propagates over the whole database from an empty assignment until
    /// nothing changes, and every Delete scans for the first live clause
    /// with the same literal set.
    mod reference {
        use crate::cnf::CnfFormula;
        use crate::lit::{LBool, Lit};
        use crate::proof::{DratError, Proof, ProofStep};

        /// Checks a refutation proof against `cnf` with an independent
        /// unit-propagation engine. On success the formula is certified
        /// unsatisfiable.
        ///
        /// # Errors
        ///
        /// Returns [`DratError`] if a step is not RUP or the empty clause is never
        /// derived.
        pub fn check_drat(cnf: &CnfFormula, proof: &Proof) -> Result<(), DratError> {
            let mut db: Vec<Vec<Lit>> = cnf.clauses().map(<[Lit]>::to_vec).collect();
            // A formula that already contains the empty clause is refuted by
            // itself; every proof (including the empty one) certifies it. This
            // arises when translation simplifies a goal to constant false.
            if db.iter().any(|c| c.is_empty()) {
                return Ok(());
            }
            let mut live: Vec<bool> = vec![true; db.len()];
            let mut num_vars = cnf.num_vars();
            for step in proof.steps() {
                if let ProofStep::Add(c) = step {
                    for l in c {
                        num_vars = num_vars.max(l.var().index() + 1);
                    }
                }
            }

            let mut derived_empty = false;
            for (i, step) in proof.steps().iter().enumerate() {
                match step {
                    ProofStep::Add(clause) => {
                        if !is_rup(&db, &live, num_vars, clause) {
                            return Err(DratError::NotRup { step: i });
                        }
                        if clause.is_empty() {
                            derived_empty = true;
                            break;
                        }
                        db.push(clause.clone());
                        live.push(true);
                    }
                    ProofStep::Delete(clause) => {
                        // Find one live clause with identical literals (as a set).
                        let mut sorted = clause.clone();
                        sorted.sort_unstable();
                        sorted.dedup();
                        for (j, c) in db.iter().enumerate() {
                            if !live[j] {
                                continue;
                            }
                            let mut cs = c.clone();
                            cs.sort_unstable();
                            cs.dedup();
                            if cs == sorted {
                                live[j] = false;
                                break;
                            }
                        }
                        // Deleting a clause that is absent is a no-op (permitted by
                        // the DRAT format).
                    }
                }
            }
            if derived_empty {
                Ok(())
            } else {
                Err(DratError::NoEmptyClause)
            }
        }

        /// Reverse unit propagation: asserting the negation of `clause` and
        /// propagating must yield a conflict.
        fn is_rup(db: &[Vec<Lit>], live: &[bool], num_vars: usize, clause: &[Lit]) -> bool {
            let mut assign: Vec<LBool> = vec![LBool::Undef; num_vars];
            let mut queue: Vec<Lit> = Vec::new();
            // Negate the candidate clause.
            for &l in clause {
                let want = !l;
                match value(&assign, want) {
                    LBool::True => {}
                    LBool::False => return true, // the negation is itself contradictory
                    LBool::Undef => {
                        set(&mut assign, want);
                        queue.push(want);
                    }
                }
            }
            // Naive fixpoint propagation over the whole database.
            loop {
                let mut progressed = false;
                for (j, c) in db.iter().enumerate() {
                    if !live[j] {
                        continue;
                    }
                    let mut unassigned: Option<Lit> = None;
                    let mut satisfied = false;
                    let mut unassigned_count = 0;
                    for &l in c {
                        match value(&assign, l) {
                            LBool::True => {
                                satisfied = true;
                                break;
                            }
                            LBool::False => {}
                            LBool::Undef => {
                                unassigned_count += 1;
                                unassigned = Some(l);
                            }
                        }
                    }
                    if satisfied {
                        continue;
                    }
                    match unassigned_count {
                        0 => return true, // conflict: clause fully falsified
                        1 => {
                            let l = unassigned.expect("one unassigned literal");
                            set(&mut assign, l);
                            progressed = true;
                        }
                        _ => {}
                    }
                }
                if !progressed {
                    return false;
                }
            }
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
    }

    #[test]
    fn formula_with_empty_clause_needs_no_proof() {
        let mut cnf = CnfFormula::new();
        let v = cnf.new_var();
        cnf.add_clause([v.positive()]);
        cnf.add_clause([] as [Lit; 0]);
        assert!(check_drat(&cnf, &Proof::new()).is_ok());
    }

    #[allow(clippy::needless_range_loop)]
    fn unsat_pigeonhole(n: usize) -> (CnfFormula, Proof) {
        let mut cnf = CnfFormula::new();
        let p: Vec<Vec<Lit>> = (0..n + 1)
            .map(|_| (0..n).map(|_| cnf.new_var().positive()).collect())
            .collect();
        for row in &p {
            cnf.add_clause(row.iter().copied());
        }
        for j in 0..n {
            for i1 in 0..n + 1 {
                for i2 in (i1 + 1)..n + 1 {
                    cnf.add_clause([!p[i1][j], !p[i2][j]]);
                }
            }
        }
        let mut solver = Solver::new();
        solver.enable_proof();
        solver.new_vars(cnf.num_vars());
        for c in cnf.clauses() {
            solver.add_clause(c.iter().copied());
        }
        assert_eq!(solver.solve(), SolveResult::Unsat);
        let proof = solver.take_proof().expect("proof was enabled");
        (cnf, proof)
    }

    #[test]
    fn pigeonhole_proof_checks() {
        for n in [3usize, 4, 5] {
            let (cnf, proof) = unsat_pigeonhole(n);
            assert!(proof.derives_empty_clause());
            check_drat(&cnf, &proof).expect("proof must check");
        }
    }

    #[test]
    fn tampered_proof_fails() {
        let (cnf, proof) = unsat_pigeonhole(3);
        // Replace the first added clause with a non-consequence.
        let mut bad = Proof::new();
        bad.add(vec![Var::from_index(0).positive()]);
        for s in proof.steps() {
            match s {
                ProofStep::Add(c) => bad.add(c.clone()),
                ProofStep::Delete(c) => bad.delete(c.clone()),
            }
        }
        // The injected unit clause (pigeon 0 in hole 0) is not RUP.
        assert_eq!(check_drat(&cnf, &bad), Err(DratError::NotRup { step: 0 }));
    }

    #[test]
    fn truncated_proof_fails() {
        let (cnf, _) = unsat_pigeonhole(3);
        let empty = Proof::new();
        assert_eq!(check_drat(&cnf, &empty), Err(DratError::NoEmptyClause));
    }

    #[test]
    fn sat_formula_records_no_refutation() {
        let mut solver = Solver::new();
        solver.enable_proof();
        let a = solver.new_var().positive();
        let b = solver.new_var().positive();
        solver.add_clause([a, b]);
        assert_eq!(solver.solve(), SolveResult::Sat);
        let proof = solver.take_proof().expect("enabled");
        assert!(!proof.derives_empty_clause());
    }

    #[test]
    fn drat_text_roundtrip() {
        let (_, proof) = unsat_pigeonhole(3);
        let mut text = Vec::new();
        proof.write_drat(&mut text).unwrap();
        let parsed = Proof::parse_drat(std::str::from_utf8(&text).unwrap()).unwrap();
        assert_eq!(parsed, proof);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Proof::parse_drat("1 2 x 0").is_err());
        assert!(Proof::parse_drat("1 2").is_err());
        assert!(Proof::parse_drat("c comment\n1 0\nd 1 0\n").is_ok());
    }

    /// A clause of one to three literals over `n` variables, no variable
    /// twice, with units rare so a formula has a few of them.
    fn random_clause(rng: &mut StdRng, n: usize) -> Vec<Lit> {
        let len = match rng.gen_range(0..40) {
            0 => 1,
            1..=8 => 2,
            _ => 3,
        };
        let mut lits: Vec<Lit> = Vec::new();
        while lits.len() < len {
            let v = rng.gen_range(0..n);
            if lits.iter().all(|l| l.var().index() != v) {
                lits.push(Lit::new(Var::from_index(v), rng.gen_bool(0.5)));
            }
        }
        lits
    }

    fn pick<'a, T>(rng: &mut StdRng, items: &'a [T]) -> Option<&'a T> {
        (!items.is_empty()).then(|| &items[rng.gen_range(0..items.len())])
    }

    /// One mutant of each kind: a step dropped; an Add replaced by a random
    /// clause; deletions of original clauses (units favoured) and of earlier
    /// lemmas inserted at random points; a truncation ended by the empty
    /// clause.
    fn mutants(rng: &mut StdRng, cnf: &CnfFormula, proof: &Proof) -> Vec<Proof> {
        let n = cnf.num_vars();
        let steps = proof.steps();
        let build = |steps: Vec<ProofStep>| Proof { steps };
        let mut out = Vec::new();

        let mut dropped = steps.to_vec();
        dropped.remove(rng.gen_range(0..dropped.len()));
        out.push(build(dropped));

        let adds: Vec<usize> = (0..steps.len())
            .filter(|&i| matches!(steps[i], ProofStep::Add(_)))
            .collect();
        let mut replaced = steps.to_vec();
        let at = *pick(rng, &adds).expect("a refutation has an Add");
        replaced[at] = ProofStep::Add(random_clause(rng, n));
        out.push(build(replaced));

        let units: Vec<Vec<Lit>> = cnf
            .clauses()
            .filter(|c| c.len() == 1)
            .map(<[Lit]>::to_vec)
            .collect();
        let mut deleting = steps.to_vec();
        for _ in 0..rng.gen_range(1..4) {
            let at = rng.gen_range(0..=deleting.len());
            let lemmas: Vec<Vec<Lit>> = deleting[..at]
                .iter()
                .filter_map(|s| match s {
                    ProofStep::Add(c) => Some(c.clone()),
                    ProofStep::Delete(_) => None,
                })
                .collect();
            let original = (cnf.num_clauses() > 0)
                .then(|| cnf.clause(rng.gen_range(0..cnf.num_clauses())).to_vec());
            let mut victim = match rng.gen_range(0..3) {
                0 => pick(rng, &units).cloned().or(original),
                1 => pick(rng, &lemmas).cloned().or(original),
                _ => original,
            }
            .expect("the formula has clauses");
            if rng.gen_bool(0.5) {
                victim.reverse();
            }
            deleting.insert(at, ProofStep::Delete(victim));
        }
        out.push(build(deleting));

        let mut truncated = steps[..rng.gen_range(0..steps.len())].to_vec();
        truncated.push(ProofStep::Add(Vec::new()));
        out.push(build(truncated));
        out
    }

    /// Feeds `proof` to [`check_drat_stream`] on a thread of its own, one
    /// step at a time.
    fn check_streamed(cnf: &CnfFormula, proof: &Proof) -> Result<(), DratError> {
        let (cancel, checked) = (AtomicBool::new(false), AtomicUsize::new(0));
        let (to, steps) = mpsc::channel();
        std::thread::scope(|scope| {
            let checker = scope.spawn(|| check_drat_stream(cnf, steps, &cancel, &checked));
            for step in proof.steps() {
                // The checker hangs up once its verdict is settled.
                if to.send(vec![step.clone()]).is_err() {
                    break;
                }
            }
            drop(to);
            checker.join().unwrap().expect("nothing cancels the check")
        })
    }

    /// Solves `cnf` with its proof streamed to a checker thread, as a
    /// certified check does: the answer, the checker's verdict, and the
    /// number of steps the solver streamed.
    fn certify_streamed(cnf: &CnfFormula) -> (SolveResult, Option<Result<(), DratError>>, usize) {
        let (cancel, checked) = (AtomicBool::new(false), AtomicUsize::new(0));
        let mut solver = Solver::new();
        let steps = solver.stream_proof();
        std::thread::scope(|scope| {
            let checker = scope.spawn(|| check_drat_stream(cnf, steps, &cancel, &checked));
            solver.new_vars(cnf.num_vars());
            for c in cnf.clauses() {
                solver.add_clause(c.iter().copied());
            }
            let result = solver.solve();
            let sent = solver.close_proof_stream().expect("the proof was streamed");
            (result, checker.join().unwrap(), sent)
        })
    }

    /// The solver's refutations of random mixed-width formulas, as recorded
    /// and mutated, get exactly the reference checker's answer, down to the
    /// index of the first step that is not RUP, whether checked whole or
    /// streamed to a checker thread step by step. Each refutation also
    /// certifies through a streaming solver, which logs as many steps as
    /// the recorded proof holds.
    #[test]
    fn random_unsat_proofs_check() {
        let mut rng = StdRng::seed_from_u64(99);
        let (mut refuted, mut cases, mut rejected) = (0, 0, 0);
        for _ in 0..FORMULAS {
            let n = rng.gen_range(24..32);
            let mut cnf = CnfFormula::new();
            cnf.new_vars(n);
            for _ in 0..n * 19 / 5 {
                cnf.add_clause(random_clause(&mut rng, n));
            }
            let mut solver = Solver::new();
            solver.enable_proof();
            solver.new_vars(n);
            for c in cnf.clauses() {
                solver.add_clause(c.iter().copied());
            }
            if solver.solve() != SolveResult::Unsat {
                continue;
            }
            let proof = solver.take_proof().unwrap();
            check_drat(&cnf, &proof).expect("every UNSAT proof must check");
            let (result, verdict, steps) = certify_streamed(&cnf);
            assert_eq!(result, SolveResult::Unsat);
            assert_eq!(verdict, Some(Ok(())), "the streamed refutation must check");
            assert_eq!(
                steps,
                proof.len(),
                "a stream logs the recorded proof's steps"
            );
            refuted += 1;
            let variants = (0..ROUNDS).flat_map(|_| mutants(&mut rng, &cnf, &proof));
            for variant in std::iter::once(proof.clone()).chain(variants.collect::<Vec<_>>()) {
                let got = check_drat(&cnf, &variant);
                let want = reference::check_drat(&cnf, &variant);
                assert_eq!(
                    got,
                    want,
                    "checkers disagree on {variant:?} against {:?}",
                    cnf.clauses().collect::<Vec<_>>()
                );
                assert_eq!(
                    check_streamed(&cnf, &variant),
                    want,
                    "the streamed checker disagrees on {variant:?} against {:?}",
                    cnf.clauses().collect::<Vec<_>>()
                );
                cases += 1;
                rejected += usize::from(got.is_err());
            }
        }
        assert!(
            refuted > FORMULAS / 4,
            "expected many UNSAT instances, got {refuted}"
        );
        assert!(
            rejected > cases / 20 && rejected < cases / 2,
            "{rejected} of {cases} variants rejected"
        );
    }

    /// The one intended difference from the reference: it counts the
    /// repeated `1` in `1 1 2` twice, so that clause never propagates and
    /// the empty clause is not RUP. Stored clauses are deduplicated here,
    /// so `-2` implies `1`, which implies both `3` and `-3`.
    #[test]
    fn repeated_literals_count_once() {
        let cnf = CnfFormula::parse_dimacs("-2 0\n1 1 2 0\n-1 3 0\n-1 -3 0\n".as_bytes()).unwrap();
        let proof = Proof::parse_drat("0\n").unwrap();
        assert_eq!(check_drat(&cnf, &proof), Ok(()));
        assert_eq!(
            reference::check_drat(&cnf, &proof),
            Err(DratError::NotRup { step: 0 })
        );
    }

    /// A drat-trim-style checker ignores unit deletions by default and would
    /// accept the lemma `3`; here the deletion retracts `1`, so `3` no
    /// longer follows.
    #[test]
    fn deleting_a_unit_retracts_what_it_implied() {
        let cnf = CnfFormula::parse_dimacs("p cnf 3 3\n1 0\n-1 2 0\n-2 3 0\n".as_bytes()).unwrap();
        let proof = Proof::parse_drat("d 1 0\n3 0\n0\n").unwrap();
        assert_eq!(check_drat(&cnf, &proof), Err(DratError::NotRup { step: 1 }));
        assert_eq!(
            reference::check_drat(&cnf, &proof),
            Err(DratError::NotRup { step: 1 })
        );
    }

    /// `-1 2` is stored before the unit `1` makes it imply `2`, so `2`
    /// stays second in the stored clause and its binary watcher implies
    /// it. Deleting the clause must still retract `2`, so `3` no longer
    /// follows.
    #[test]
    fn deleting_a_binary_reason_retracts_its_second_literal() {
        let cnf = CnfFormula::parse_dimacs("p cnf 3 3\n-1 2 0\n1 0\n-2 3 0\n".as_bytes()).unwrap();
        let proof = Proof::parse_drat("d -1 2 0\n3 0\n0\n").unwrap();
        assert_eq!(check_drat(&cnf, &proof), Err(DratError::NotRup { step: 1 }));
        assert_eq!(
            check_streamed(&cnf, &proof),
            Err(DratError::NotRup { step: 1 })
        );
        assert_eq!(
            reference::check_drat(&cnf, &proof),
            Err(DratError::NotRup { step: 1 })
        );
    }

    /// Lemmas over a variable the formula never names (`3`, `4`) still
    /// check: the per-variable arrays grow when a step first names one.
    #[test]
    fn lemmas_may_name_new_variables() {
        let cnf =
            CnfFormula::parse_dimacs("p cnf 2 4\n1 2 0\n-1 2 0\n1 -2 0\n-1 -2 0\n".as_bytes())
                .unwrap();
        let proof = Proof::parse_drat("1 3 0\n1 -3 4 0\nd 1 3 0\n1 0\n-4 0\n0\n").unwrap();
        assert_eq!(check_drat(&cnf, &proof), Ok(()));
        assert_eq!(check_streamed(&cnf, &proof), Ok(()));
        assert_eq!(reference::check_drat(&cnf, &proof), Ok(()));
        let bad = Proof::parse_drat("4 0\n").unwrap();
        assert_eq!(check_drat(&cnf, &bad), Err(DratError::NotRup { step: 0 }));
    }

    /// A check cancelled before its verdict returns none, whether the flag
    /// is seen while loading or between steps.
    #[test]
    fn a_cancelled_stream_check_has_no_verdict() {
        let (cnf, proof) = unsat_pigeonhole(3);
        let (to, steps) = mpsc::channel();
        to.send(proof.steps().to_vec()).unwrap();
        let cancel = AtomicBool::new(true);
        assert_eq!(
            check_drat_stream(&cnf, steps, &cancel, &AtomicUsize::new(0)),
            None
        );

        let (cancel, checked) = (AtomicBool::new(false), AtomicUsize::new(0));
        let (to, steps) = mpsc::channel();
        let verdict = std::thread::scope(|scope| {
            let checker = scope.spawn(|| check_drat_stream(&cnf, steps, &cancel, &checked));
            to.send(proof.steps()[..1].to_vec()).unwrap();
            while checked.load(Ordering::Relaxed) == 0 {
                std::thread::yield_now();
            }
            cancel.store(true, Ordering::Relaxed);
            to.send(proof.steps()[1..].to_vec()).unwrap();
            checker.join().unwrap()
        });
        assert_eq!(verdict, None);
        assert_eq!(checked.load(Ordering::Relaxed), 1);
    }
}
