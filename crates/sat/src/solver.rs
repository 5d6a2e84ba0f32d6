//! The CDCL solver.
//!
//! A conflict-driven clause-learning SAT solver in the MiniSat lineage:
//! two-watched-literal propagation, first-UIP conflict analysis with clause
//! minimization, VSIDS decision heuristic with phase saving, Luby or
//! glucose-adaptive restarts ([`RestartPolicy`]), glucose-style tiered
//! learnt-clause database reduction keyed on LBD, conflict-budgeted
//! solving ([`Solver::solve_bounded`]) and learnt-clause sharing between
//! solver instances ([`ClauseSink`]).
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
//! and in `reason`. Neither changes the search: watch-list order, arena
//! order and every literal order analysis reads are those of a store that
//! detaches eagerly and never moves a clause.

use crate::clause::{ClauseDb, ClauseRef, BINARY_TAG};
use crate::lit::{LBool, Lit, Var};
use crate::luby::luby;
use crate::proof::{Proof, ProofLog, ProofStep};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver};
use std::sync::Arc;

/// Learnt-LBD window length for [`RestartPolicy::Adaptive`] (glucose's
/// classic 50-conflict recency window).
const ADAPTIVE_LBD_WINDOW: usize = 50;

/// A shareable, thread-safe cancellation flag for cooperative solver
/// interruption.
///
/// Clones share one underlying flag. Hand a clone to
/// [`Solver::set_terminate`] and call [`cancel`](CancelToken::cancel) from
/// any thread; the search loop of
/// [`solve_under_assumptions`](Solver::solve_under_assumptions) checks the
/// flag at every decision and conflict and returns `None` once it is set.
/// The solver is left in a consistent state and can be solved again.
///
/// The plain [`solve`](Solver::solve) /
/// [`solve_with_assumptions`](Solver::solve_with_assumptions) entry points
/// ignore the token, so existing callers keep run-to-completion semantics.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// Creates a fresh, uncancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Sets the flag. All clones observe the cancellation.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// `true` once any clone has called [`cancel`](CancelToken::cancel).
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

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

/// Restart cadence of the CDCL search loop.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RestartPolicy {
    /// Luby-sequence restarts scaled by [`SolverConfig::restart_base`]
    /// (the MiniSat default). Cadence depends only on the conflict count,
    /// so identical inputs restart at identical points.
    #[default]
    Luby,
    /// Glucose-style adaptive restarts: restart as soon as the mean LBD of
    /// the last 50 learnt clauses exceeds 1.25× the lifetime mean —
    /// i.e. when the search has drifted into a region where it learns
    /// markedly worse (higher-glue) clauses than usual. Still
    /// deterministic: the trigger depends only on the learnt-clause
    /// sequence.
    Adaptive,
}

/// A learnt clause exported by one solver instance for import by another.
///
/// Shared clauses are logical consequences of the common problem formula,
/// so importing one never changes a verdict; see [`ClauseSink`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SharedClause {
    /// The clause literals.
    pub lits: Vec<Lit>,
    /// The exporter's LBD (glue) for the clause at the time it was learnt.
    pub lbd: u32,
}

/// A learnt-clause sharing channel between solver instances, installed
/// with [`Solver::set_clause_sink`].
///
/// During search the solver offers every learnt clause whose LBD is at
/// most [`SolverConfig::share_lbd_max`] via
/// [`export`](ClauseSink::export), and pulls foreign clauses with
/// [`import`](ClauseSink::import) at every restart boundary (trail at the
/// root level), attaching them as learnt clauses after filtering against
/// the root assignment. Implementations decide queueing, bounding and
/// merge order; `mca-runtime`'s `ClauseShare` visits exporter lanes in
/// index order so the merged import sequence is deterministic.
///
/// Sharing is a no-op while DRAT proof logging, recorded or streamed, is
/// active: an imported clause is a consequence of the shared formula but
/// not a single-step RUP addition of *this* solver's log, so it would make
/// the proof uncheckable.
pub trait ClauseSink: Send + Sync + std::fmt::Debug {
    /// Offers a freshly learnt clause (already filtered to LBD ≤
    /// [`SolverConfig::share_lbd_max`]).
    fn export(&self, lits: &[Lit], lbd: u32);
    /// Appends foreign clauses ready for import to `buf`.
    fn import(&self, buf: &mut Vec<SharedClause>);
}

/// Tunable search parameters.
///
/// The defaults follow MiniSat's; the knobs exist both for experimentation
/// and for the test suite, which cross-checks that verdicts are invariant
/// under configuration changes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SolverConfig {
    /// VSIDS variable-activity decay (0 < d < 1).
    pub var_decay: f64,
    /// Learnt-clause activity decay (0 < d < 1).
    pub clause_decay: f64,
    /// Conflicts before the first restart (scaled by the Luby sequence).
    pub restart_base: u64,
    /// Reuse each variable's last polarity when branching.
    pub phase_saving: bool,
    /// Periodically delete low-activity learnt clauses.
    pub reduce_db: bool,
    /// Branch polarity when phase saving is off, and the *initial saved
    /// phase* of every fresh variable when it is on — so with
    /// `phase_saving: true` this knob seeds the first descent and phase
    /// saving takes over from there. `false` matches MiniSat's
    /// sign-negative default; portfolio solving flips it to diversify
    /// entrants.
    pub default_polarity: bool,
    /// Restart cadence: [`RestartPolicy::Luby`] (default, conflict-count
    /// scheduled) or [`RestartPolicy::Adaptive`] (glucose-style, LBD
    /// triggered). Adaptive restarts help UNSAT-leaning instances that
    /// benefit from aggressive refocusing; Luby is the safer all-rounder.
    pub restart_policy: RestartPolicy,
    /// Highest LBD a learnt clause may have to be offered to an installed
    /// [`ClauseSink`]; `0` disables export entirely. Has no effect without
    /// a sink ([`Solver::set_clause_sink`]). Lower values share only
    /// high-quality "glue" clauses (cheap, low import pressure); higher
    /// values share more but cost the importers propagation work.
    pub share_lbd_max: u32,
}

impl Default for SolverConfig {
    fn default() -> SolverConfig {
        SolverConfig {
            var_decay: 0.95,
            clause_decay: 0.999,
            restart_base: 100,
            phase_saving: true,
            reduce_db: true,
            default_polarity: false,
            restart_policy: RestartPolicy::Luby,
            share_lbd_max: 4,
        }
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
    /// Worst observed cancellation latency, in conflicts: when a solve was
    /// cancelled, how many conflicts elapsed between the last poll that saw
    /// the token clear and the poll that observed it set. The token is
    /// polled at every conflict and decision, so this is at most 1; 0 if
    /// no solve on this solver was ever cancelled.
    pub cancel_latency_conflicts: u64,
    /// Learnt clauses offered to a [`ClauseSink`] (export side of clause
    /// sharing). 0 without a sink.
    pub exported_clauses: u64,
    /// Foreign clauses pulled from a [`ClauseSink`] and attached (import
    /// side of clause sharing). Counted after root-level filtering skips
    /// already-satisfied imports.
    pub imported_clauses: u64,
}

/// Search progress accumulated over one restart epoch (the stretch of
/// search between two restarts), sampled by [`SearchTelemetry`].
///
/// All fields are deltas within the epoch except `learnt_live`, which is
/// the live learnt-clause count when the epoch ended. Every field is a
/// logical counter — no wall clock — so a fixed formula and configuration
/// produce an identical sample sequence on every run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EpochSample {
    /// Zero-based restart-epoch index within the solve.
    pub epoch: u64,
    /// Conflicts encountered during the epoch.
    pub conflicts: u64,
    /// Decisions made during the epoch.
    pub decisions: u64,
    /// Literals propagated during the epoch.
    pub propagations: u64,
    /// Learnt clauses live in the database at the end of the epoch.
    pub learnt_live: u64,
}

/// Opt-in CDCL search telemetry, enabled with
/// [`Solver::enable_telemetry`].
///
/// Accumulates one [`EpochSample`] per restart epoch (including the
/// partial final epoch of each solve), log2-binned histograms of
/// learnt-clause LBD and length, and the number of failed-assumption
/// analyses. Everything here is keyed by logical search progress, so the
/// telemetry of a deterministic workload is itself deterministic; with
/// telemetry disabled the per-conflict cost is a branch on an `Option`.
#[derive(Clone, Debug, Default)]
pub struct SearchTelemetry {
    /// One sample per restart epoch, in epoch order, across all solves
    /// since telemetry was enabled.
    pub epochs: Vec<EpochSample>,
    /// Log2-binned histogram of learnt-clause LBD (glue). Unit learnts
    /// count as LBD 1.
    pub lbd: mca_obs::Histogram,
    /// Log2-binned histogram of learnt-clause length in literals.
    pub learnt_len: mca_obs::Histogram,
    /// Assumption-failure analyses performed (one per incremental query
    /// that found an assumption literal already falsified).
    pub assumption_failures: u64,
}

impl SearchTelemetry {
    /// Restart effectiveness: mean conflicts-per-epoch over the second
    /// half of the epochs divided by the mean over the first half. Values
    /// well above 1 mean later epochs burn ever more conflicts per learnt
    /// first-UIP clause (restarts are not refocusing the search); values
    /// near or below 1 mean the Luby cadence is holding epoch cost flat.
    /// `None` with fewer than two epochs.
    pub fn restart_effectiveness(&self) -> Option<f64> {
        if self.epochs.len() < 2 {
            return None;
        }
        let mid = self.epochs.len() / 2;
        let mean =
            |s: &[EpochSample]| s.iter().map(|e| e.conflicts as f64).sum::<f64>() / s.len() as f64;
        let first = mean(&self.epochs[..mid]);
        let second = mean(&self.epochs[mid..]);
        if first == 0.0 {
            return None;
        }
        Some(second / first)
    }
}

/// The function type a [`ProgressCallback`] invokes: cumulative stats plus
/// the current learnt-clause count.
pub type ProgressFn = Box<dyn FnMut(&SolverStats, usize)>;

/// A periodic progress hook, installed with [`Solver::set_progress`].
///
/// During search the callback receives the cumulative [`SolverStats`] and
/// the current learnt-clause count every `every` conflicts. With no hook
/// installed the per-conflict cost is a branch on an `Option`.
pub struct ProgressCallback {
    every: u64,
    next_at: u64,
    callback: ProgressFn,
}

impl std::fmt::Debug for ProgressCallback {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProgressCallback")
            .field("every", &self.every)
            .field("next_at", &self.next_at)
            .finish_non_exhaustive()
    }
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

/// Value of `l` under `assigns`; a free function so that callers can hold
/// the clause arena mutably at the same time.
#[inline]
fn value(assigns: &[LBool], l: Lit) -> LBool {
    let v = assigns[l.var().index()];
    if l.is_positive() {
        v
    } else {
        v.negate()
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
    fn count(&mut self, level: &[u32], lits: impl IntoIterator<Item = Lit>) -> u32 {
        self.stamp += 1;
        let mut n = 0;
        for l in lits {
            let lv = level[l.var().index()] as usize;
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
    /// Current assignment, indexed by variable.
    assigns: Vec<LBool>,
    /// Decision level at which each variable was assigned.
    level: Vec<u32>,
    /// Reason clause for each implied variable.
    reason: Vec<Option<ClauseRef>>,
    /// Assignment trail.
    trail: Vec<Lit>,
    /// Indices into `trail` marking decision levels.
    trail_lim: Vec<usize>,
    /// Propagation queue head (index into trail).
    qhead: usize,
    /// VSIDS activity per variable.
    activity: Vec<f64>,
    var_inc: f64,
    var_decay: f64,
    order: crate::heap::VarHeap,
    /// Saved phase per variable.
    phase: Vec<bool>,
    /// Clause activity increment.
    cla_inc: f64,
    cla_decay: f64,
    /// Scratch for conflict analysis.
    seen: Vec<bool>,
    /// `true` once an empty clause was derived at level 0.
    unsat: bool,
    /// Conflict clause over assumptions from the last failed assumption solve.
    conflict_assumptions: Vec<Lit>,
    stats: SolverStats,
    /// Scratch for LBD computation.
    lbd_levels: LevelStamps,
    /// DRAT proof log, recorded or streamed, when enabled.
    proof: Option<ProofLog>,
    /// Periodic progress hook, when installed.
    progress: Option<ProgressCallback>,
    /// Cooperative cancellation flag, honoured by
    /// [`solve_under_assumptions`](Solver::solve_under_assumptions).
    terminate: Option<CancelToken>,
    /// Opt-in profiling-span recorder, installed with
    /// [`set_spans`](Solver::set_spans).
    spans: Option<mca_obs::SpanRecorder>,
    /// Highest live learnt-clause count ever observed.
    learnt_peak: usize,
    /// Opt-in per-epoch search telemetry, installed with
    /// [`enable_telemetry`](Solver::enable_telemetry).
    telemetry: Option<Box<SearchTelemetry>>,
    /// Cumulative conflict count at the last cancellation poll that saw
    /// the token clear — the anchor for cancellation-latency accounting.
    last_cancel_check_conflicts: u64,
    /// Learnt-clause sharing channel, when installed.
    clause_sink: Option<Arc<dyn ClauseSink>>,
    /// Scratch buffer for [`ClauseSink::import`] pulls.
    import_buf: Vec<SharedClause>,
    /// Ring buffer over the LBDs of the most recent learnt clauses
    /// (adaptive restarts only).
    lbd_window: Vec<u32>,
    lbd_window_pos: usize,
    lbd_window_sum: u64,
    /// Lifetime learnt-LBD aggregate (adaptive restarts only).
    lbd_global_sum: u64,
    lbd_global_count: u64,
    /// Absolute conflict count at which a bounded solve gives up
    /// ([`Solver::solve_bounded`]).
    conflict_limit: Option<u64>,
    config: SolverConfig,
}

impl Default for Solver {
    fn default() -> Self {
        Solver::new()
    }
}

impl Solver {
    /// Creates an empty solver with no variables or clauses.
    pub fn new() -> Solver {
        Solver::with_config(SolverConfig::default())
    }

    /// Creates an empty solver with explicit search parameters.
    ///
    /// # Panics
    ///
    /// Panics if a decay is outside `(0, 1)` or the restart base is 0.
    pub fn with_config(config: SolverConfig) -> Solver {
        assert!(
            config.var_decay > 0.0 && config.var_decay < 1.0,
            "var_decay must be in (0, 1)"
        );
        assert!(
            config.clause_decay > 0.0 && config.clause_decay < 1.0,
            "clause_decay must be in (0, 1)"
        );
        assert!(config.restart_base > 0, "restart_base must be positive");
        Solver {
            db: ClauseDb::new(),
            watches: Vec::new(),
            assigns: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            var_decay: config.var_decay,
            order: crate::heap::VarHeap::new(),
            phase: Vec::new(),
            cla_inc: 1.0,
            cla_decay: config.clause_decay,
            seen: Vec::new(),
            unsat: false,
            conflict_assumptions: Vec::new(),
            stats: SolverStats::default(),
            lbd_levels: LevelStamps::default(),
            proof: None,
            progress: None,
            terminate: None,
            spans: None,
            learnt_peak: 0,
            telemetry: None,
            last_cancel_check_conflicts: 0,
            clause_sink: None,
            import_buf: Vec::new(),
            lbd_window: Vec::new(),
            lbd_window_pos: 0,
            lbd_window_sum: 0,
            lbd_global_sum: 0,
            lbd_global_count: 0,
            conflict_limit: None,
            config,
        }
    }

    /// Enables per-restart-epoch search telemetry: subsequent solves
    /// accumulate [`EpochSample`]s, LBD/length histograms of learnt
    /// clauses, and assumption-failure counts into a [`SearchTelemetry`]
    /// retrievable with [`telemetry`](Solver::telemetry) or
    /// [`take_telemetry`](Solver::take_telemetry). Telemetry is strictly
    /// opt-in: with it disabled the per-conflict cost is a branch on an
    /// `Option`, and enabling it never changes search behaviour or
    /// verdicts. Idempotent — an already-enabled solver keeps its samples.
    pub fn enable_telemetry(&mut self) {
        if self.telemetry.is_none() {
            self.telemetry = Some(Box::default());
        }
    }

    /// The accumulated search telemetry, if enabled.
    pub fn telemetry(&self) -> Option<&SearchTelemetry> {
        self.telemetry.as_deref()
    }

    /// Takes the accumulated telemetry, disabling further collection (call
    /// [`enable_telemetry`](Solver::enable_telemetry) again to restart
    /// with a fresh accumulator).
    pub fn take_telemetry(&mut self) -> Option<SearchTelemetry> {
        self.telemetry.take().map(|b| *b)
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

    /// Installs a cancellation token. Only
    /// [`solve_under_assumptions`](Solver::solve_under_assumptions) checks
    /// it; `solve` / `solve_with_assumptions` keep run-to-completion
    /// semantics regardless.
    pub fn set_terminate(&mut self, token: CancelToken) {
        self.terminate = Some(token);
    }

    /// Removes the cancellation token, if any.
    pub fn clear_terminate(&mut self) {
        self.terminate = None;
    }

    /// Connects a learnt-clause sharing channel (see [`ClauseSink`]).
    ///
    /// Learnt clauses with LBD ≤ [`SolverConfig::share_lbd_max`] are
    /// exported as they are learnt; foreign clauses are imported at every
    /// restart boundary and at the start of each solve. Sharing is a no-op
    /// while DRAT proof logging is active (imports are not single-step RUP
    /// additions of this solver's log).
    pub fn set_clause_sink(&mut self, sink: Arc<dyn ClauseSink>) {
        self.clause_sink = Some(sink);
    }

    /// Removes the sharing channel, if any.
    pub fn clear_clause_sink(&mut self) {
        self.clause_sink = None;
    }

    /// Installs a progress hook invoked every `every` conflicts with the
    /// cumulative stats and the current learnt-clause count. Replaces any
    /// previous hook.
    ///
    /// # Panics
    ///
    /// Panics if `every` is 0.
    pub fn set_progress(
        &mut self,
        every: u64,
        callback: impl FnMut(&SolverStats, usize) + 'static,
    ) {
        assert!(every > 0, "progress interval must be positive");
        self.progress = Some(ProgressCallback {
            every,
            next_at: self.stats.conflicts + every,
            callback: Box::new(callback),
        });
    }

    /// Removes the progress hook, if any.
    pub fn clear_progress(&mut self) {
        self.progress = None;
    }

    /// The active search parameters.
    pub fn config(&self) -> &SolverConfig {
        &self.config
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
        let v = Var::from_index(self.assigns.len());
        self.assigns.push(LBool::Undef);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.phase.push(self.config.default_polarity);
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
        self.assigns.len()
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
        value(&self.assigns, l)
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
        let mut c: Vec<Lit> = lits.into_iter().collect();
        c.sort_unstable();
        c.dedup();
        // Tautology / satisfied / falsified literal pre-filtering (level 0).
        let mut filtered = Vec::with_capacity(c.len());
        let mut i = 0;
        while i < c.len() {
            let l = c[i];
            if i + 1 < c.len() && c[i + 1] == !l {
                return true; // tautology: l and !l adjacent after sort
            }
            match self.lit_value(l) {
                LBool::True => return true, // already satisfied at level 0
                LBool::False => {}          // drop falsified literal
                LBool::Undef => filtered.push(l),
            }
            i += 1;
        }
        // Proof: if preprocessing changed the clause, the reduced clause is
        // a reverse-unit-propagation consequence — record it.
        if filtered.len() != c.len() {
            self.log_add(&filtered);
        }
        match filtered.len() {
            0 => {
                self.unsat = true;
                false
            }
            1 => {
                self.unchecked_enqueue(filtered[0], None);
                if self.propagate().is_some() {
                    self.log_add(&[]);
                    self.unsat = true;
                    false
                } else {
                    true
                }
            }
            _ => {
                let cref = self.db.push(&filtered, false);
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
        let v = l.var().index();
        self.assigns[v] = LBool::from_bool(l.is_positive());
        self.level[v] = self.decision_level();
        self.reason[v] = from;
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
                    if first != w.blocker && value(&self.assigns, first).is_true() {
                        ws[j] = new_watcher;
                        j += 1;
                        continue;
                    }
                    // Look for a replacement watch.
                    for k in 2..lits.len() {
                        let lk = Lit::from_code(lits[k] as usize);
                        if !value(&self.assigns, lk).is_false() {
                            lits.swap(1, k);
                            self.watches[(!lk).code()].push(new_watcher);
                            continue 'watchers;
                        }
                    }
                    // Clause is unit or conflicting.
                    ws[j] = new_watcher;
                    j += 1;
                    (first, value(&self.assigns, first))
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
        self.var_inc /= self.var_decay;
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
        self.cla_inc /= self.cla_decay;
    }

    /// Computes the LBD (number of distinct decision levels) of a literal set.
    fn lbd(&mut self, lits: &[Lit]) -> u32 {
        self.lbd_levels.count(&self.level, lits.iter().copied())
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
                    .count(&self.level, self.db.lits(confl))
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
                if !self.seen[v.index()] && self.level[v.index()] > 0 {
                    self.var_bump(v);
                    self.seen[v.index()] = true;
                    if self.level[v.index()] >= self.decision_level() {
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
            confl = self.reason[pl.var().index()].expect("non-decision must have a reason");
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
            let redundant = match self.reason[l.var().index()] {
                None => false,
                Some(r) => self.db.lits(r).all(|q| {
                    q.var() == l.var()
                        || self.seen[q.var().index()]
                        || self.level[q.var().index()] == 0
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
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().index()]
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
            match self.reason[v.index()] {
                None => {
                    // An assumption (decision) contributing to the conflict.
                    if self.level[v.index()] > 0 {
                        self.conflict_assumptions.push(!l);
                    }
                }
                Some(r) => {
                    for q in self.db.lits(r) {
                        if q != l && self.level[q.var().index()] > 0 {
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
            let v = l.var();
            self.assigns[v.index()] = LBool::Undef;
            self.phase[v.index()] = l.is_positive();
            self.reason[v.index()] = None;
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
            if self.assigns[v.index()].is_undef() {
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
            if self.reason[first.var().index()] == Some(cref) && !self.lit_value(first).is_undef() {
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
        for r in self.reason.iter_mut().flatten() {
            *r = moved.get(*r);
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
        let mut cnf = crate::cnf::CnfFormula::new();
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
        for i in 0..self.assigns.len() {
            self.assigns[i] = LBool::Undef;
            self.level[i] = 0;
            self.reason[i] = None;
            let v = Var::from_index(i);
            if !self.order.contains(v) {
                self.order.insert(v, &self.activity);
            }
        }
        // Re-adding through `add_clause` re-establishes watches and the
        // unit trail. The simplified formula is at unit-propagation
        // fixpoint, so no clause is filtered and nothing is re-logged.
        for c in simplified.clauses() {
            if !self.add_clause(c.iter().copied()) {
                break;
            }
        }
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
        self.solve_internal(assumptions, false)
            .expect("uncancellable solve ran to completion")
    }

    /// Solves under the given assumption literals, honouring the
    /// [`CancelToken`] installed with [`set_terminate`](Solver::set_terminate).
    ///
    /// Returns `None` if the token was cancelled before a verdict was
    /// reached; the solver remains consistent and reusable. With no token
    /// installed this is equivalent to
    /// [`solve_with_assumptions`](Solver::solve_with_assumptions).
    ///
    /// This is the entry point the `mca-runtime` portfolio and
    /// cube-and-conquer modes drive: the token is shared between racing
    /// solver instances (or cube subproblems) and the first finisher
    /// cancels the rest.
    pub fn solve_under_assumptions(&mut self, assumptions: &[Lit]) -> Option<SolveResult> {
        self.solve_internal(assumptions, true)
    }

    /// Solves under the given assumptions with a conflict budget: gives up
    /// and returns `None` once `max_conflicts` further conflicts have been
    /// spent without reaching a verdict. Also honours an installed
    /// [`CancelToken`], like
    /// [`solve_under_assumptions`](Solver::solve_under_assumptions);
    /// distinguish the two `None` causes by checking the token.
    ///
    /// The solver stays consistent and reusable after a budget exhaustion —
    /// clauses learnt during the attempt are kept, so re-solving (or
    /// solving a refined subproblem) resumes from the accumulated
    /// knowledge. This is the primitive behind `mca-runtime`'s adaptive
    /// cube-and-conquer, which splits exactly those cubes that exhaust
    /// their budget.
    pub fn solve_bounded(
        &mut self,
        assumptions: &[Lit],
        max_conflicts: u64,
    ) -> Option<SolveResult> {
        self.conflict_limit = Some(self.stats.conflicts.saturating_add(max_conflicts));
        let result = self.solve_internal(assumptions, true);
        self.conflict_limit = None;
        result
    }

    fn solve_internal(&mut self, assumptions: &[Lit], respect_cancel: bool) -> Option<SolveResult> {
        match self.spans.clone() {
            None => self.solve_body(assumptions, respect_cancel),
            Some(recorder) => {
                let before = self.stats;
                let mut span = recorder.enter("sat.solve");
                let result = self.solve_body(assumptions, respect_cancel);
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

    fn solve_body(&mut self, assumptions: &[Lit], respect_cancel: bool) -> Option<SolveResult> {
        // A proof stream sends the steps of loading and preprocessing now
        // rather than with the first learnt clause.
        if let Some(p) = &mut self.proof {
            p.flush();
        }
        self.stats.solves += 1;
        self.conflict_assumptions.clear();
        self.last_cancel_check_conflicts = self.stats.conflicts;
        if self.unsat {
            return Some(SolveResult::Unsat);
        }
        self.backtrack_to(0);
        if self.propagate().is_some() {
            self.log_add(&[]);
            self.unsat = true;
            return Some(SolveResult::Unsat);
        }
        self.import_shared();
        if self.unsat {
            return Some(SolveResult::Unsat);
        }

        let mut restart_index = 0u64;
        // Under the adaptive policy the Luby countdown is disarmed (a zero
        // budget never fires) and restarts come from the LBD trigger.
        let luby_budget = |i: u64, config: &SolverConfig| match config.restart_policy {
            RestartPolicy::Luby => config.restart_base * luby(i),
            RestartPolicy::Adaptive => 0,
        };
        let mut conflicts_until_restart = luby_budget(restart_index, &self.config);
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
            let epoch_start = self.stats;
            let outcome = self.search(
                assumptions,
                &mut conflicts_until_restart,
                max_learnts,
                respect_cancel,
            );
            if let Some(g) = &mut epoch_span {
                g.field("conflicts", self.stats.conflicts);
                g.field("learnt_live", self.db.num_learnt() as u64);
            }
            drop(epoch_span);
            if let Some(t) = &mut self.telemetry {
                t.epochs.push(EpochSample {
                    epoch: restart_index,
                    conflicts: self.stats.conflicts - epoch_start.conflicts,
                    decisions: self.stats.decisions - epoch_start.decisions,
                    propagations: self.stats.propagations - epoch_start.propagations,
                    learnt_live: self.db.num_learnt() as u64,
                });
            }
            match outcome {
                SearchOutcome::Sat => return Some(SolveResult::Sat),
                SearchOutcome::Unsat => return Some(SolveResult::Unsat),
                SearchOutcome::Cancelled | SearchOutcome::LimitReached => {
                    // Leave the solver reusable: unwind to the root level so
                    // a later solve starts from a clean trail.
                    self.backtrack_to(0);
                    return None;
                }
                SearchOutcome::Restart => {
                    self.stats.restarts += 1;
                    restart_index += 1;
                    conflicts_until_restart = luby_budget(restart_index, &self.config);
                    max_learnts *= 1.1;
                    self.backtrack_to(0);
                    // Restart boundary: pull foreign learnt clauses while the
                    // trail sits at the root level.
                    self.import_shared();
                    if self.unsat {
                        return Some(SolveResult::Unsat);
                    }
                }
            }
        }
    }

    /// Polls the cancellation token. A poll that sees the token clear
    /// re-anchors the latency window; one that sees it set records the
    /// conflicts burnt since the anchor into
    /// [`SolverStats::cancel_latency_conflicts`].
    #[inline]
    fn poll_cancel(&mut self, respect_cancel: bool) -> bool {
        if !respect_cancel || self.terminate.is_none() {
            return false;
        }
        if self
            .terminate
            .as_ref()
            .is_some_and(CancelToken::is_cancelled)
        {
            let since = self.stats.conflicts - self.last_cancel_check_conflicts;
            self.stats.cancel_latency_conflicts = self.stats.cancel_latency_conflicts.max(since);
            true
        } else {
            self.last_cancel_check_conflicts = self.stats.conflicts;
            false
        }
    }

    /// Offers a freshly learnt clause to the sharing channel, if one is
    /// installed and the clause's glue is within
    /// [`SolverConfig::share_lbd_max`]. No-op under proof logging.
    #[inline]
    fn export_learnt(&mut self, lits: &[Lit], lbd: u32) {
        let Some(sink) = &self.clause_sink else {
            return;
        };
        if self.proof.is_some() || self.config.share_lbd_max == 0 || lbd > self.config.share_lbd_max
        {
            return;
        }
        sink.export(lits, lbd);
        self.stats.exported_clauses += 1;
    }

    /// Pulls foreign clauses from the sharing channel and attaches them as
    /// learnt clauses. Must be called with the trail at the root level;
    /// no-op without a sink or under proof logging. Imports are filtered
    /// against the root assignment: satisfied clauses are skipped,
    /// falsified literals stripped, units enqueued and propagated (which
    /// can settle the formula as unsatisfiable on the spot).
    fn import_shared(&mut self) {
        debug_assert_eq!(self.decision_level(), 0);
        let Some(sink) = self.clause_sink.clone() else {
            return;
        };
        if self.proof.is_some() {
            return;
        }
        let mut buf = std::mem::take(&mut self.import_buf);
        buf.clear();
        sink.import(&mut buf);
        for shared in &buf {
            if self.unsat {
                break;
            }
            if shared
                .lits
                .iter()
                .any(|l| l.var().index() >= self.num_vars())
            {
                continue; // foreign variable space; never happens in-tree
            }
            let mut lits = Vec::with_capacity(shared.lits.len());
            let mut satisfied = false;
            for &l in &shared.lits {
                match self.lit_value(l) {
                    LBool::True => {
                        satisfied = true;
                        break;
                    }
                    LBool::False => {}
                    LBool::Undef => lits.push(l),
                }
            }
            if satisfied {
                continue;
            }
            self.stats.imported_clauses += 1;
            match lits.len() {
                0 => self.unsat = true,
                1 => {
                    self.unchecked_enqueue(lits[0], None);
                    if self.propagate().is_some() {
                        self.unsat = true;
                    }
                }
                _ => {
                    let lbd = shared.lbd.clamp(1, lits.len() as u32);
                    let cref = self.db.push(&lits, true);
                    self.db.set_lbd(cref, lbd);
                    self.attach(cref);
                    self.cla_bump(cref);
                    self.learnt_peak = self.learnt_peak.max(self.db.num_learnt());
                }
            }
        }
        self.import_buf = buf;
    }

    /// Feeds one learnt clause's LBD into the adaptive-restart aggregates.
    #[inline]
    fn note_learnt_lbd(&mut self, lbd: u32) {
        self.lbd_global_sum += u64::from(lbd);
        self.lbd_global_count += 1;
        if self.lbd_window.len() < ADAPTIVE_LBD_WINDOW {
            self.lbd_window.push(lbd);
            self.lbd_window_sum += u64::from(lbd);
        } else {
            let pos = self.lbd_window_pos;
            self.lbd_window_sum += u64::from(lbd);
            self.lbd_window_sum -= u64::from(self.lbd_window[pos]);
            self.lbd_window[pos] = lbd;
            self.lbd_window_pos = (pos + 1) % ADAPTIVE_LBD_WINDOW;
        }
    }

    /// Glucose's restart trigger: the recent-window mean LBD exceeds the
    /// lifetime mean by more than a factor of 1/K (K = 0.8) — the search
    /// is currently learning markedly worse clauses than its average.
    #[inline]
    fn adaptive_restart_due(&self) -> bool {
        if self.lbd_window.len() < ADAPTIVE_LBD_WINDOW || self.lbd_global_count == 0 {
            return false;
        }
        let recent = self.lbd_window_sum as f64 / self.lbd_window.len() as f64;
        let global = self.lbd_global_sum as f64 / self.lbd_global_count as f64;
        recent * 0.8 > global
    }

    fn search(
        &mut self,
        assumptions: &[Lit],
        budget: &mut u64,
        max_learnts: f64,
        respect_cancel: bool,
    ) -> SearchOutcome {
        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                if self.decision_level() > 0 && self.decision_level() as usize <= assumptions.len()
                {
                    self.stats.assumption_conflicts += 1;
                }
                if self.poll_cancel(respect_cancel) {
                    return SearchOutcome::Cancelled;
                }
                if self
                    .conflict_limit
                    .is_some_and(|limit| self.stats.conflicts >= limit)
                {
                    return SearchOutcome::LimitReached;
                }
                if let Some(p) = &mut self.progress {
                    if self.stats.conflicts >= p.next_at {
                        p.next_at = self.stats.conflicts + p.every;
                        (p.callback)(&self.stats, self.db.num_learnt());
                    }
                }
                if self.decision_level() == 0 {
                    self.log_add(&[]);
                    self.unsat = true;
                    return SearchOutcome::Unsat;
                }
                let (learnt, bt) = self.analyze(confl);
                self.log_add(&learnt);
                self.backtrack_to(bt);
                let learnt_lbd = if learnt.len() == 1 {
                    if let Some(t) = &mut self.telemetry {
                        t.lbd.record(1);
                        t.learnt_len.record(1);
                    }
                    self.unchecked_enqueue(learnt[0], None);
                    1
                } else {
                    let lbd = self.lbd(&learnt);
                    if let Some(t) = &mut self.telemetry {
                        t.lbd.record(u64::from(lbd));
                        t.learnt_len.record(learnt.len() as u64);
                    }
                    let cref = self.db.push(&learnt, true);
                    self.learnt_peak = self.learnt_peak.max(self.db.num_learnt());
                    self.db.set_lbd(cref, lbd);
                    self.attach(cref);
                    self.cla_bump(cref);
                    self.unchecked_enqueue(learnt[0], Some(cref));
                    lbd
                };
                self.export_learnt(&learnt, learnt_lbd);
                self.decay_var_activity();
                self.decay_clause_activity();
                if *budget > 0 {
                    *budget -= 1;
                    if *budget == 0 && self.decision_level() > assumptions.len() as u32 {
                        return SearchOutcome::Restart;
                    }
                }
                if self.config.restart_policy == RestartPolicy::Adaptive {
                    self.note_learnt_lbd(learnt_lbd);
                    if self.adaptive_restart_due()
                        && self.decision_level() > assumptions.len() as u32
                    {
                        self.lbd_window.clear();
                        self.lbd_window_pos = 0;
                        self.lbd_window_sum = 0;
                        return SearchOutcome::Restart;
                    }
                }
            } else {
                if self.config.reduce_db
                    && self.db.num_learnt() as f64 > max_learnts + self.trail.len() as f64
                {
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
                            if let Some(t) = &mut self.telemetry {
                                t.assumption_failures += 1;
                            }
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
                if self.poll_cancel(respect_cancel) {
                    return SearchOutcome::Cancelled;
                }
                match self.pick_branch_var() {
                    None => return SearchOutcome::Sat,
                    Some(v) => {
                        self.stats.decisions += 1;
                        let phase = if self.config.phase_saving {
                            self.phase[v.index()]
                        } else {
                            self.config.default_polarity
                        };
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
        let mut values = Vec::with_capacity(self.assigns.len());
        for &a in &self.assigns {
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
    Cancelled,
    /// A [`Solver::solve_bounded`] conflict budget ran out.
    LimitReached,
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
    #[allow(clippy::needless_range_loop)]
    fn progress_callback_fires_every_n_conflicts() {
        use std::cell::RefCell;
        use std::rc::Rc;

        // Pigeonhole 6-into-5: enough conflicts to trigger the hook often.
        let n = 6usize;
        let m = 5usize;
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
        let seen: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
        let sink = seen.clone();
        s.set_progress(10, move |stats, _learnt| {
            sink.borrow_mut().push(stats.conflicts);
        });
        assert_eq!(s.solve(), SolveResult::Unsat);
        let conflicts = s.stats().conflicts;
        let seen = seen.borrow();
        assert!(
            seen.len() as u64 >= conflicts / 10,
            "expected >= {} callbacks, got {}",
            conflicts / 10,
            seen.len()
        );
        // Monotone, and spaced at least `every` apart.
        for w in seen.windows(2) {
            assert!(w[1] >= w[0] + 10, "callbacks too close: {w:?}");
        }
    }

    #[test]
    fn clear_progress_stops_callbacks() {
        let mut s = Solver::new();
        add(&mut s, &[1, 2]);
        s.set_progress(1, |_, _| panic!("must not fire after clear"));
        s.clear_progress();
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn db_reductions_counted_when_enabled() {
        // A formula hard enough to trigger at least one reduction pass is
        // expensive; instead assert the field exists, defaults to zero, and
        // is carried through stats snapshots.
        let s = Solver::new();
        assert_eq!(s.stats().db_reductions, 0);
        let snapshot = *s.stats();
        assert_eq!(snapshot.db_reductions, 0);
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

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn cancelled_token_aborts_solve_and_leaves_solver_reusable() {
        // Pigeonhole 6-into-5 needs real search; a pre-cancelled token must
        // abort it before any verdict.
        let n = 6usize;
        let m = 5usize;
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
        let token = CancelToken::new();
        s.set_terminate(token.clone());
        token.cancel();
        assert_eq!(s.solve_under_assumptions(&[]), None);
        // Un-cancelled solving afterwards reaches the real verdict.
        s.clear_terminate();
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    /// Pigeonhole `n` into `m` holes: UNSAT when `n > m`, with real search.
    #[allow(clippy::needless_range_loop)]
    fn pigeonhole(n: usize, m: usize, config: SolverConfig) -> Solver {
        let mut s = Solver::with_config(config);
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
    fn telemetry_is_opt_in_and_taken() {
        let mut s = pigeonhole(5, 4, SolverConfig::default());
        assert!(s.telemetry().is_none());
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(s.telemetry().is_none(), "telemetry must be strictly opt-in");

        let mut s = pigeonhole(5, 4, SolverConfig::default());
        s.enable_telemetry();
        assert_eq!(s.solve(), SolveResult::Unsat);
        let t = s.take_telemetry().expect("enabled before solve");
        assert!(!t.epochs.is_empty());
        assert!(s.telemetry().is_none(), "take disables collection");
    }

    #[test]
    fn telemetry_epochs_partition_the_search_deterministically() {
        let run = || {
            let mut s = pigeonhole(6, 5, SolverConfig::default());
            s.enable_telemetry();
            assert_eq!(s.solve(), SolveResult::Unsat);
            let stats = *s.stats();
            let t = s.take_telemetry().unwrap();
            (stats, t)
        };
        let (stats, t) = run();
        // Epoch deltas cover the whole solve, epoch indices are 0..k.
        assert_eq!(
            t.epochs.iter().map(|e| e.conflicts).sum::<u64>(),
            stats.conflicts
        );
        assert_eq!(
            t.epochs.iter().map(|e| e.decisions).sum::<u64>(),
            stats.decisions
        );
        assert_eq!(t.epochs.len() as u64, stats.restarts + 1);
        for (i, e) in t.epochs.iter().enumerate() {
            assert_eq!(e.epoch, i as u64);
        }
        // One LBD and one length sample per learnt clause, unit or not.
        assert!(t.lbd.count() > 0);
        assert_eq!(t.lbd.count(), t.learnt_len.count());
        // Logical counters: a rerun reproduces the telemetry exactly.
        let (stats2, t2) = run();
        assert_eq!(stats, stats2);
        assert_eq!(t.epochs, t2.epochs);
        assert_eq!(t.lbd, t2.lbd);
        assert_eq!(t.learnt_len, t2.learnt_len);
    }

    #[test]
    fn telemetry_counts_assumption_failures() {
        let mut s = Solver::new();
        add(&mut s, &[-1]);
        s.enable_telemetry();
        let a = Lit::from_dimacs(1).unwrap();
        assert_eq!(s.solve_with_assumptions(&[a]), SolveResult::Unsat);
        assert_eq!(s.telemetry().unwrap().assumption_failures, 1);
        assert_eq!(s.solve_with_assumptions(&[!a]), SolveResult::Sat);
        assert_eq!(s.telemetry().unwrap().assumption_failures, 1);
    }

    #[test]
    fn restart_effectiveness_needs_two_epochs() {
        let t = SearchTelemetry::default();
        assert!(t.restart_effectiveness().is_none());
        let mut t = SearchTelemetry::default();
        for (i, c) in [10u64, 20].iter().enumerate() {
            t.epochs.push(EpochSample {
                epoch: i as u64,
                conflicts: *c,
                ..EpochSample::default()
            });
        }
        assert_eq!(t.restart_effectiveness(), Some(2.0));
    }

    #[test]
    fn cancellation_observed_within_one_conflict() {
        let mut s = pigeonhole(7, 6, SolverConfig::default());
        let token = CancelToken::new();
        s.set_terminate(token.clone());
        let cancel_at = 20u64;
        let t = token.clone();
        s.set_progress(cancel_at, move |_, _| t.cancel());
        assert_eq!(s.solve_under_assumptions(&[]), None);
        let stats = *s.stats();
        // The progress hook set the token at `cancel_at` conflicts; the
        // solver must stop within one conflict of that.
        assert!(
            stats.conflicts - cancel_at <= 1,
            "cancelled at {cancel_at} but ran to {}",
            stats.conflicts
        );
        assert!(
            stats.cancel_latency_conflicts <= 1,
            "recorded latency {}",
            stats.cancel_latency_conflicts
        );
    }

    #[test]
    fn no_token_means_solve_under_assumptions_matches_plain_solve() {
        let mut s = Solver::new();
        add(&mut s, &[1, 2]);
        add(&mut s, &[-1, 2]);
        assert_eq!(s.solve_under_assumptions(&[]), Some(SolveResult::Sat));
        let b = Lit::from_dimacs(2).unwrap();
        assert_eq!(s.solve_under_assumptions(&[!b]), Some(SolveResult::Unsat));
        assert!(!s.failed_assumptions().is_empty());
    }

    #[test]
    fn cancel_token_is_shared_across_clones() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!a.is_cancelled() && !b.is_cancelled());
        b.cancel();
        assert!(a.is_cancelled() && b.is_cancelled());
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

    fn load(cnf: &crate::cnf::CnfFormula, proof: bool) -> Solver {
        let mut s = Solver::new();
        if proof {
            s.enable_proof();
        }
        s.new_vars(cnf.num_vars());
        for c in cnf.clauses() {
            s.add_clause(c.iter().copied());
        }
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
    fn adaptive_restarts_reach_the_same_verdicts() {
        let adaptive = SolverConfig {
            restart_policy: RestartPolicy::Adaptive,
            ..SolverConfig::default()
        };
        let mut s = pigeonhole(6, 5, adaptive);
        assert_eq!(s.solve(), SolveResult::Unsat);
        let mut s = pigeonhole(5, 5, adaptive);
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn adaptive_restarts_are_deterministic() {
        let run = || {
            let adaptive = SolverConfig {
                restart_policy: RestartPolicy::Adaptive,
                ..SolverConfig::default()
            };
            let mut s = pigeonhole(6, 5, adaptive);
            assert_eq!(s.solve(), SolveResult::Unsat);
            *s.stats()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn default_polarity_seeds_initial_phase_under_phase_saving() {
        // A free variable is decided with the seeded polarity: with
        // default_polarity=true and phase saving on, the first model
        // assigns the free variable true (MiniSat's default picks false).
        let mut s = Solver::with_config(SolverConfig {
            default_polarity: true,
            ..SolverConfig::default()
        });
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause([a.positive(), b.positive()]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(s.model().unwrap().value(a));
    }

    #[test]
    fn solve_bounded_gives_up_and_stays_reusable() {
        let mut s = pigeonhole(7, 6, SolverConfig::default());
        let before = s.stats().conflicts;
        assert_eq!(s.solve_bounded(&[], 5), None, "5 conflicts cannot refute");
        let spent = s.stats().conflicts - before;
        assert!((5..8).contains(&spent), "budget respected, spent {spent}");
        // The same solver still reaches the verdict when given room.
        assert_eq!(s.solve_bounded(&[], 1_000_000), Some(SolveResult::Unsat));
    }

    #[test]
    fn solve_bounded_with_assumptions_matches_unbounded() {
        let mut s = Solver::new();
        add(&mut s, &[1, 2]);
        add(&mut s, &[-1, 2]);
        let a = lit(&mut s, -2);
        assert_eq!(
            s.solve_bounded(&[a], 1_000_000),
            Some(SolveResult::Unsat),
            "assuming !x2 contradicts x2"
        );
        assert!(
            s.failed_assumptions().contains(&a.var().lit(true))
                || !s.failed_assumptions().is_empty()
        );
    }

    /// A loopback sink: exports collect in a mutex'd queue, imports drain
    /// it. Used to drive the export/import machinery single-solver.
    #[derive(Debug, Default)]
    struct LoopbackSink {
        queue: std::sync::Mutex<Vec<SharedClause>>,
        exported: std::sync::atomic::AtomicU64,
    }

    impl ClauseSink for LoopbackSink {
        fn export(&self, lits: &[Lit], lbd: u32) {
            self.exported.fetch_add(1, Ordering::Relaxed);
            self.queue.lock().unwrap().push(SharedClause {
                lits: lits.to_vec(),
                lbd,
            });
        }
        fn import(&self, buf: &mut Vec<SharedClause>) {
            buf.append(&mut self.queue.lock().unwrap());
        }
    }

    #[test]
    fn clause_sink_exports_low_lbd_learnts() {
        let sink = Arc::new(LoopbackSink::default());
        let mut s = pigeonhole(6, 5, SolverConfig::default());
        s.set_clause_sink(sink.clone());
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(
            s.stats().exported_clauses > 0,
            "a pigeonhole refutation learns shareable glue clauses"
        );
        assert_eq!(
            s.stats().exported_clauses,
            sink.exported.load(Ordering::Relaxed)
        );
    }

    #[test]
    fn imported_clauses_preserve_verdicts() {
        // Solver 1 refutes PHP(6,5) and exports its glue clauses; solver 2
        // imports them all and must still (faster or not) refute.
        let sink = Arc::new(LoopbackSink::default());
        let mut s1 = pigeonhole(6, 5, SolverConfig::default());
        s1.set_clause_sink(sink.clone());
        assert_eq!(s1.solve(), SolveResult::Unsat);
        let mut s2 = pigeonhole(6, 5, SolverConfig::default());
        s2.set_clause_sink(sink);
        assert_eq!(s2.solve(), SolveResult::Unsat);
        assert!(s2.stats().imported_clauses > 0, "imports were attached");
        // And a SAT formula stays SAT under (consequence-only) imports.
        let sink = Arc::new(LoopbackSink::default());
        let mut s3 = pigeonhole(5, 5, SolverConfig::default());
        s3.set_clause_sink(sink.clone());
        assert_eq!(s3.solve(), SolveResult::Sat);
        let mut s4 = pigeonhole(5, 5, SolverConfig::default());
        s4.set_clause_sink(sink);
        assert_eq!(s4.solve(), SolveResult::Sat);
    }

    /// Starts a recorded proof or, with `stream`, a streamed one; the
    /// receiver keeps the stream open.
    fn log_proof(
        s: &mut Solver,
        stream: bool,
    ) -> Option<std::sync::mpsc::Receiver<Vec<ProofStep>>> {
        if stream {
            return Some(s.stream_proof());
        }
        s.enable_proof();
        None
    }

    #[test]
    fn sharing_is_a_no_op_under_proof_logging() {
        for stream in [false, true] {
            let sink = Arc::new(LoopbackSink::default());
            let mut s = pigeonhole(5, 4, SolverConfig::default());
            let _steps = log_proof(&mut s, stream);
            s.set_clause_sink(sink.clone());
            assert_eq!(s.solve(), SolveResult::Unsat);
            assert_eq!(s.stats().exported_clauses, 0);
            assert_eq!(s.stats().imported_clauses, 0);
            assert_eq!(sink.exported.load(Ordering::Relaxed), 0);
        }
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
        assert_eq!((s.level[0], s.level[1]), (1, 3));
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
        for r in s.reason.iter().flatten() {
            assert!(live.contains(r), "reason {r:?} is stale");
        }
        assert!(s.db.dead_words() * 2 <= s.db.len_words());
    }

    #[test]
    fn compaction_keeps_watchers_and_reasons_on_live_clauses() {
        // PHP(9, 8) deletes thousands of learnt clauses over 18 reductions,
        // enough for dead words to pass half the arena and compact it.
        let mut s = pigeonhole(9, 8, SolverConfig::default());
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

    #[test]
    fn tiered_reduction_keeps_glue_and_preserves_verdicts() {
        let config = SolverConfig {
            reduce_db: true,
            ..SolverConfig::default()
        };
        let mut s = pigeonhole(8, 7, config);
        assert_eq!(s.solve(), SolveResult::Unsat);
        // Whether or not reduction fired, no glue clause (lbd <= 2, len > 2)
        // may have been deleted while its siblings survived — verified
        // indirectly: verdicts stay correct and stats are self-consistent.
        assert!(s.stats().deleted_clauses <= s.clause_allocations());
    }
}
