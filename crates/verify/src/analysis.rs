//! Push-button experiment drivers for every artifact of the paper's
//! evaluation (experiments E1–E7 of DESIGN.md) plus the E8 scope-scaling
//! sweep (naive vs optimized vs optimized+preprocessed encodings, with
//! incremental per-state convergence sweeps — see `docs/ARCHITECTURE.md`).
//!
//! Each driver returns plain data with a `Display` that prints the
//! paper-shaped row(s); the `repro` binary, the examples and the
//! integration tests all run through these functions so every
//! reproduction artifact exercises identical code. E1 takes an optional
//! observer for the simulator's deliver/bid schedule; E3, E4 and E8 take
//! an optional span recorder. With `None` no event is emitted.
//!
//! The drivers of independent checks (E3, the extended matrix, E4 and E8)
//! take a thread count and run their checks as one [`run_batch`]. Their
//! job lists do not depend on it, so rows and the span tree are the same
//! at any thread count; only wall clock changes.

use crate::batch::run_batch;
use crate::dynamic_model::{ConsensusSweep, DynamicModel, DynamicScenario};
use crate::encoding::NumberEncoding;
use crate::static_model::{StaticModel, StaticScope};
use mca_core::checker::{check_consensus, CheckerOptions, Verdict};
use mca_core::scenarios::{self, ExtendedPolicyCell, PolicyCell};
use mca_core::{Network, Simulator};
use mca_obs::{SharedObserver, SpanRecorder};
use mca_relalg::{RelationStats, TranslateError, TranslationStats};
use mca_sat::SolverStats;
use std::fmt;
use std::time::Instant;

// ---------------------------------------------------------------- E1 ----

/// E1 (Figure 1): the two-agent, three-item worked example.
#[derive(Clone, Debug)]
pub struct Fig1Report {
    /// Agent 0's final bid vector `b = (20, 15, 30)` in the paper.
    pub final_bids: Vec<i64>,
    /// Final winners per item (agent indices; the paper's `a = (2, 2, 1)`
    /// with 1-based agents).
    pub winners: Vec<u32>,
    /// Whether one synchronous exchange sufficed.
    pub converged: bool,
    /// Messages delivered.
    pub messages: usize,
}

/// Runs E1 and checks the exact vectors of Figure 1. An observer, if any,
/// is attached to the simulator, so the worked example's deliver/bid
/// schedule lands in the trace.
pub fn run_fig1(observer: Option<SharedObserver>) -> Fig1Report {
    let mut sim = scenarios::fig1();
    sim.set_observer(observer);
    let out = sim.run_synchronous(16);
    let a0 = &sim.agents()[0];
    Fig1Report {
        final_bids: a0.claims().iter().map(|c| c.bid).collect(),
        winners: a0
            .claims()
            .iter()
            .map(|c| c.winner.map_or(u32::MAX, |w| w.0))
            .collect(),
        converged: out.converged,
        messages: out.messages_delivered,
    }
}

impl fmt::Display for Fig1Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "E1 (Figure 1) — two agents, three items, one exchange")?;
        writeln!(
            f,
            "  converged: {}   messages: {}",
            self.converged, self.messages
        )?;
        writeln!(
            f,
            "  final bid vector b = {:?}   (paper: (20, 15, 30))",
            self.final_bids
        )?;
        write!(
            f,
            "  final winners    a = {:?}   (paper: (agent2, agent2, agent1), 0-based: (1, 1, 0))",
            self.winners
        )
    }
}

// ---------------------------------------------------------------- E2/E3 --

/// One cell of the Result-1 policy matrix.
#[derive(Clone, Debug)]
pub struct PolicyMatrixRow {
    /// The policy combination.
    pub cell: PolicyCell,
    /// What the paper reports for this combination.
    pub paper_converges: bool,
    /// What the exhaustive explicit-state checker found.
    pub checker_converges: bool,
    /// Verdict detail (states explored / violation kind).
    pub detail: String,
    /// Wall-clock seconds for the check.
    pub secs: f64,
}

impl PolicyMatrixRow {
    /// `true` if our verdict matches the paper's.
    pub fn matches_paper(&self) -> bool {
        self.paper_converges == self.checker_converges
    }
}

impl fmt::Display for PolicyMatrixRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "  p_u={}  p_RO={}   paper: {}   checker: {}  {}  [{:.2}s] {}",
            if self.cell.submodular {
                "submodular    "
            } else {
                "non-submodular"
            },
            if self.cell.release_outbid {
                "release"
            } else {
                "keep   "
            },
            verdict_word(self.paper_converges),
            verdict_word(self.checker_converges),
            self.detail,
            self.secs,
            if self.matches_paper() {
                "✓"
            } else {
                "✗ MISMATCH"
            },
        )
    }
}

fn verdict_word(converges: bool) -> &'static str {
    if converges {
        "consensus   "
    } else {
        "NO consensus"
    }
}

/// E3 (Result 1): checks all four policy combinations of Figure 2's
/// configuration with the exhaustive explicit-state checker, as two jobs
/// of two cells each on `threads` workers. A one-cell job runs in under a
/// millisecond, where scheduling overhead rivals the work (`repro why`
/// rule W005). Rows come back in [`PolicyCell::grid`] order.
///
/// With a span recorder, each cell's check is wrapped in an `e3.cell:…`
/// span carrying the verdict.
pub fn run_policy_matrix(threads: usize, spans: Option<&SpanRecorder>) -> Vec<PolicyMatrixRow> {
    let jobs: Vec<(String, _)> = PolicyCell::grid()
        .chunks(2)
        .map(<[PolicyCell]>::to_vec)
        .enumerate()
        .map(|(i, pair)| {
            (
                format!("e3:pair{i}"),
                move |spans: Option<&SpanRecorder>| {
                    pair.into_iter()
                        .map(|cell| policy_row(cell, spans))
                        .collect::<Vec<_>>()
                },
            )
        })
        .collect();
    run_batch(threads, jobs, spans)
        .into_iter()
        .flatten()
        .collect()
}

/// Checks one Result-1 cell (spans as in [`run_policy_matrix`]).
fn policy_row(cell: PolicyCell, spans: Option<&SpanRecorder>) -> PolicyMatrixRow {
    let start = Instant::now();
    let mut span = spans.map(|r| {
        r.enter(&format!(
            "e3.cell:{}:{}",
            if cell.submodular { "sub" } else { "nonsub" },
            if cell.release_outbid {
                "release"
            } else {
                "keep"
            },
        ))
    });
    let verdict = check_consensus(scenarios::fig2(cell), CheckerOptions::default());
    if let Some(span) = span.as_mut() {
        span.field("converges", u64::from(verdict.converges()));
    }
    drop(span);
    PolicyMatrixRow {
        cell,
        paper_converges: cell.paper_says_converges(),
        checker_converges: verdict.converges(),
        detail: verdict_detail(&verdict),
        secs: start.elapsed().as_secs_f64(),
    }
}

/// One row of the extended 16-cell policy matrix (see
/// [`ExtendedPolicyCell`]): the Result-1 grid crossed with Remark-1
/// compliance and network topology.
#[derive(Clone, Debug)]
pub struct ExtendedMatrixRow {
    /// The policy/topology combination.
    pub cell: ExtendedPolicyCell,
    /// The prediction extrapolated from Results 1–2.
    pub paper_converges: bool,
    /// Whether the bounded synchronous run quiesced in consensus.
    pub sim_converges: bool,
    /// Synchronous rounds used (or where the round/message budget stopped
    /// a non-quiescing run).
    pub rounds: usize,
    /// Wall-clock seconds for the cell.
    pub secs: f64,
}

impl ExtendedMatrixRow {
    /// `true` if the simulation verdict matches the prediction.
    pub fn matches_paper(&self) -> bool {
        self.paper_converges == self.sim_converges
    }
}

impl fmt::Display for ExtendedMatrixRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "  {:<24} predicted: {:<12} simulated: {:<12} rounds={:<3} [{:.3}s] {}",
            self.cell.label(),
            if self.paper_converges {
                "consensus"
            } else {
                "no-consensus"
            },
            if self.sim_converges {
                "consensus"
            } else {
                "no-consensus"
            },
            self.rounds,
            self.secs,
            if self.matches_paper() { "✓" } else { "✗" },
        )
    }
}

/// Simulates one extended-matrix cell under a bounded synchronous
/// schedule.
pub fn extended_cell(cell: ExtendedPolicyCell) -> ExtendedMatrixRow {
    let start = Instant::now();
    // Budgeted: divergent cells re-broadcast every view change, so their
    // synchronous message volume grows geometrically with the round
    // number.
    let out = scenarios::extended(cell).run_synchronous_budgeted(64, 20_000);
    ExtendedMatrixRow {
        cell,
        paper_converges: cell.paper_says_converges(),
        sim_converges: out.converged,
        rounds: out.rounds,
        secs: start.elapsed().as_secs_f64(),
    }
}

/// Jobs of the extended matrix: a constant, so the job list and the trace
/// do not depend on the thread count. Two cells (grid indices 12 and 13)
/// take milliseconds and the other fourteen microseconds; four strided
/// chunks put the two slow cells in different jobs, so more chunks would
/// not shorten the critical path and would only add microsecond jobs
/// (`repro why` rule W005).
const EXTENDED_CHUNKS: usize = 4;

/// The extended policy matrix: the sixteen [`ExtendedPolicyCell`]s
/// simulated by [`extended_cell`] on `threads` workers, as four
/// **strided chunks** of four cells rather than sixteen one-cell jobs.
/// Rows come back in [`ExtendedPolicyCell::grid`] order.
pub fn run_extended_policy_matrix(
    threads: usize,
    spans: Option<&SpanRecorder>,
) -> Vec<ExtendedMatrixRow> {
    let cells = ExtendedPolicyCell::grid();
    let jobs: Vec<(String, _)> = (0..EXTENDED_CHUNKS)
        .map(|stride| {
            let mine: Vec<(usize, ExtendedPolicyCell)> = cells
                .into_iter()
                .enumerate()
                .skip(stride)
                .step_by(EXTENDED_CHUNKS)
                .collect();
            (
                format!("e3x:stride{stride}/{EXTENDED_CHUNKS}"),
                move |_: Option<&SpanRecorder>| {
                    mine.into_iter()
                        .map(|(index, cell)| (index, extended_cell(cell)))
                        .collect::<Vec<_>>()
                },
            )
        })
        .collect();
    let mut rows: Vec<(usize, ExtendedMatrixRow)> = run_batch(threads, jobs, spans)
        .into_iter()
        .flatten()
        .collect();
    rows.sort_by_key(|&(index, _)| index);
    rows.into_iter().map(|(_, row)| row).collect()
}

pub(crate) fn verdict_detail(v: &Verdict) -> String {
    match v {
        Verdict::Converges {
            states_explored,
            max_messages,
            terminal_states,
        } => format!(
            "(states={states_explored}, longest={max_messages}, terminals={terminal_states})"
        ),
        Verdict::Oscillation { trace } => {
            format!("(oscillation after {} steps)", trace.steps.len())
        }
        Verdict::BoundExceeded { trace } => {
            format!("(bound exceeded after {} steps)", trace.steps.len())
        }
        Verdict::NoConsensus { trace } => {
            format!("(quiescent disagreement after {} steps)", trace.steps.len())
        }
        Verdict::ResourceLimit { states_explored } => {
            format!("(inconclusive after {states_explored} states)")
        }
    }
}

/// E2 (Figure 2): the oscillation counterexample trace for the failing
/// policy cell. Returns the trace rendering, or `None` if — contrary to the
/// paper — no oscillation was found.
pub fn run_fig2_oscillation() -> Option<String> {
    let cell = PolicyCell {
        submodular: false,
        release_outbid: true,
    };
    let verdict = check_consensus(scenarios::fig2(cell), CheckerOptions::default());
    verdict.trace().map(|t| t.to_string())
}

// ---------------------------------------------------------------- E4 ----

/// E4 (Result 2): the rebidding attack, checked by **both** engines.
#[derive(Clone, Debug)]
pub struct AttackReport {
    /// Explicit-state checker: did the attacked protocol converge?
    pub explicit_converges: bool,
    /// Explicit verdict detail.
    pub explicit_detail: String,
    /// SAT engine (naive encoding): is the consensus assertion valid?
    pub sat_naive_valid: bool,
    /// SAT engine (optimized encoding): is the consensus assertion valid?
    pub sat_optimized_valid: bool,
    /// Control: the same scenario without attackers, via SAT (optimized).
    pub sat_compliant_valid: bool,
}

impl AttackReport {
    /// `true` if all engines agree with the paper: attack breaks consensus,
    /// compliance preserves it.
    pub fn matches_paper(&self) -> bool {
        !self.explicit_converges
            && !self.sat_naive_valid
            && !self.sat_optimized_valid
            && self.sat_compliant_valid
    }
}

impl fmt::Display for AttackReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E4 (Result 2) — rebidding attack (Remark-1 condition removed)"
        )?;
        writeln!(
            f,
            "  explicit-state checker : {} {}",
            verdict_word(self.explicit_converges),
            self.explicit_detail
        )?;
        writeln!(
            f,
            "  SAT engine, naive      : consensus assertion {}",
            if self.sat_naive_valid {
                "VALID"
            } else {
                "REFUTED (counterexample found)"
            }
        )?;
        writeln!(
            f,
            "  SAT engine, optimized  : consensus assertion {}",
            if self.sat_optimized_valid {
                "VALID"
            } else {
                "REFUTED (counterexample found)"
            }
        )?;
        write!(
            f,
            "  SAT control (no attack): consensus assertion {}   {}",
            if self.sat_compliant_valid {
                "VALID"
            } else {
                "REFUTED"
            },
            if self.matches_paper() {
                "✓ matches paper"
            } else {
                "✗ MISMATCH"
            }
        )
    }
}

/// Runs E4 on the two-agent scenario with both engines: the
/// explicit-state check and the three SAT checks are four jobs on
/// `threads` workers. With a span recorder, each SAT check records its
/// `relalg.encode` / `sat.*` spans.
pub fn run_rebid_attack(threads: usize, spans: Option<&SpanRecorder>) -> AttackReport {
    type Piece = Box<dyn FnOnce(Option<&SpanRecorder>) -> (bool, String) + Send>;
    let sat = |encoding: NumberEncoding, scenario: DynamicScenario| -> Piece {
        Box::new(move |spans| {
            let model = DynamicModel::build(encoding, scenario);
            let mut problem = model.model().to_problem();
            if let Some(spans) = spans {
                problem.set_spans(spans.clone());
            }
            let outcome = problem
                .check(&model.consensus_assertion())
                .expect("well-formed model");
            (outcome.result.is_valid(), String::new())
        })
    };
    let explicit: Piece = Box::new(|_| {
        let verdict = check_consensus(scenarios::rebid_attack(2, 2), CheckerOptions::default());
        (verdict.converges(), verdict_detail(&verdict))
    });
    let jobs: Vec<(String, Piece)> = vec![
        ("e4:explicit".into(), explicit),
        (
            "e4:sat-naive".into(),
            sat(
                NumberEncoding::NaiveInt,
                DynamicScenario::two_agent_rebid_attack(),
            ),
        ),
        (
            "e4:sat-optimized".into(),
            sat(
                NumberEncoding::OptimizedValue,
                DynamicScenario::two_agent_rebid_attack(),
            ),
        ),
        (
            "e4:sat-compliant".into(),
            sat(
                NumberEncoding::OptimizedValue,
                DynamicScenario::two_agent_compliant(),
            ),
        ),
    ];
    let [(explicit_converges, explicit_detail), (sat_naive_valid, _), (sat_optimized_valid, _), (sat_compliant_valid, _)]: [(bool, String); 4] =
        run_batch(threads, jobs, spans)
            .try_into()
            .expect("one result per E4 job");
    AttackReport {
        explicit_converges,
        explicit_detail,
        sat_naive_valid,
        sat_optimized_valid,
        sat_compliant_valid,
    }
}

// ---------------------------------------------------------------- E5 ----

/// One row of the encoding-efficiency comparison.
#[derive(Clone, Debug)]
pub struct EncodingRow {
    /// Human-readable scope.
    pub scope: String,
    /// Naive-encoding statistics: sizes of the static and dynamic models
    /// together, and the dynamic check's `translation_secs`, the part of
    /// `naive_check_secs` spent translating.
    pub naive: TranslationStats,
    /// Optimized-encoding statistics, as for `naive`.
    pub optimized: TranslationStats,
    /// End-to-end `check consensus` seconds, naive.
    pub naive_check_secs: f64,
    /// End-to-end `check consensus` seconds, optimized.
    pub optimized_check_secs: f64,
    /// Per-relation variable/clause breakdown, naive. Relation names are
    /// prefixed `static:`/`dynamic:` by originating sub-model.
    pub naive_relations: Vec<RelationStats>,
    /// Per-relation breakdown, optimized.
    pub optimized_relations: Vec<RelationStats>,
    /// CDCL statistics from the naive `check consensus` solve.
    pub naive_solver: SolverStats,
    /// CDCL statistics from the optimized `check consensus` solve.
    pub optimized_solver: SolverStats,
    /// Whether the naive verdict is vacuous (facts alone unsatisfiable).
    pub naive_vacuous: bool,
    /// Whether the optimized verdict is vacuous.
    pub optimized_vacuous: bool,
}

impl EncodingRow {
    /// Clause-count ratio `naive / optimized` (the paper's 259K/190K ≈ 1.36).
    pub fn clause_ratio(&self) -> f64 {
        self.naive.cnf_clauses as f64 / self.optimized.cnf_clauses.max(1) as f64
    }

    /// Time ratio `naive / optimized` (the paper's "a day" / "2 hours" ≈ 12).
    pub fn time_ratio(&self) -> f64 {
        self.naive_check_secs / self.optimized_check_secs.max(1e-9)
    }
}

impl fmt::Display for EncodingRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "  scope: {}", self.scope)?;
        writeln!(
            f,
            "    naive (Int + wide relations) : vars={:>7}  clauses={:>8}  gates={:>8}  check={:>8.3}s",
            self.naive.cnf_vars, self.naive.cnf_clauses, self.naive.circuit_gates, self.naive_check_secs
        )?;
        writeln!(
            f,
            "    optimized (value + binary)   : vars={:>7}  clauses={:>8}  gates={:>8}  check={:>8.3}s",
            self.optimized.cnf_vars,
            self.optimized.cnf_clauses,
            self.optimized.circuit_gates,
            self.optimized_check_secs
        )?;
        write!(
            f,
            "    clause ratio = {:.2}x (paper: 259K/190K = 1.36x)   time ratio = {:.1}x (paper: ~12x)",
            self.clause_ratio(),
            self.time_ratio()
        )
    }
}

/// E5: translates and checks the dynamic MCA model at several scopes under
/// both encodings and reports SAT sizes and times. The static sub-model's
/// sizes are folded in through a matching [`StaticModel`] at each scope.
pub fn run_encoding_comparison() -> Vec<EncodingRow> {
    let scopes: Vec<(String, DynamicScenario, StaticScope)> = vec![
        (
            "2 pnodes, 2 vnodes".into(),
            DynamicScenario::two_agent_compliant(),
            StaticScope {
                pnodes: 2,
                vnodes: 2,
                max_value: 7,
            },
        ),
        (
            "3 pnodes, 2 vnodes (paper scope)".into(),
            DynamicScenario::paper_scope(),
            StaticScope::default(),
        ),
    ];
    scopes
        .into_iter()
        .map(|(label, dyn_scenario, static_scope)| {
            let mut row = EncodingRow {
                scope: label,
                naive: TranslationStats::default(),
                optimized: TranslationStats::default(),
                naive_check_secs: 0.0,
                optimized_check_secs: 0.0,
                naive_relations: Vec::new(),
                optimized_relations: Vec::new(),
                naive_solver: SolverStats::default(),
                optimized_solver: SolverStats::default(),
                naive_vacuous: false,
                optimized_vacuous: false,
            };
            for encoding in [NumberEncoding::NaiveInt, NumberEncoding::OptimizedValue] {
                let static_translation = StaticModel::build(encoding, static_scope)
                    .translate()
                    .expect("static model translates");
                let static_stats = static_translation.stats;
                let dynamic = DynamicModel::build(encoding, dyn_scenario.clone());
                let start = Instant::now();
                let outcome = dynamic.check_consensus().expect("dynamic model checks");
                let secs = start.elapsed().as_secs_f64();
                let dyn_stats = outcome.stats;
                let combined = TranslationStats {
                    primary_vars: static_stats.primary_vars + dyn_stats.primary_vars,
                    circuit_gates: static_stats.circuit_gates + dyn_stats.circuit_gates,
                    cnf_vars: static_stats.cnf_vars + dyn_stats.cnf_vars,
                    cnf_clauses: static_stats.cnf_clauses + dyn_stats.cnf_clauses,
                    cnf_literals: static_stats.cnf_literals + dyn_stats.cnf_literals,
                    clauses_deduped: static_stats.clauses_deduped + dyn_stats.clauses_deduped,
                    translation_secs: dyn_stats.translation_secs,
                };
                // The dynamic numbers come from the check itself (facts ∧
                // ¬consensus — the formula actually solved), the static
                // ones from a facts-only translation.
                let mut relations: Vec<RelationStats> = Vec::new();
                relations.extend(static_translation.relation_stats.into_iter().map(|r| {
                    RelationStats {
                        name: format!("static:{}", r.name),
                        ..r
                    }
                }));
                relations.extend(outcome.relation_stats.iter().map(|r| RelationStats {
                    name: format!("dynamic:{}", r.name),
                    ..r.clone()
                }));
                // An invalid verdict comes with a counterexample, which
                // satisfies the facts; only valid verdicts need the extra
                // facts-only satisfiability probe.
                let vacuous = outcome.result.is_valid() && {
                    let problem = dynamic.model().to_problem();
                    let mut inc = problem
                        .incremental_checker(&[], false)
                        .expect("dynamic model translates");
                    !inc.premise_satisfiable()
                };
                match encoding {
                    NumberEncoding::NaiveInt => {
                        row.naive = combined;
                        row.naive_check_secs = secs;
                        row.naive_relations = relations;
                        row.naive_solver = outcome.solver_stats;
                        row.naive_vacuous = vacuous;
                    }
                    NumberEncoding::OptimizedValue => {
                        row.optimized = combined;
                        row.optimized_check_secs = secs;
                        row.optimized_relations = relations;
                        row.optimized_solver = outcome.solver_stats;
                        row.optimized_vacuous = vacuous;
                    }
                }
            }
            row
        })
        .collect()
}

// ---------------------------------------------------------------- E6 ----

/// One row of the convergence-bound experiment.
#[derive(Clone, Debug)]
pub struct BoundRow {
    /// Topology name.
    pub topology: String,
    /// Number of agents.
    pub agents: usize,
    /// Number of items.
    pub items: usize,
    /// Network diameter `D`.
    pub diameter: usize,
    /// The paper's bound `D · |V_H|` plus 2 rounds of protocol overhead
    /// (one bidding round and one quiescence-confirmation round — the
    /// paper's bound counts pure max-consensus messages, not full protocol
    /// rounds).
    pub bound_rounds: usize,
    /// Measured synchronous rounds to quiescence.
    pub rounds: usize,
    /// Messages delivered.
    pub messages: usize,
    /// `true` if the run converged.
    pub converged: bool,
}

impl BoundRow {
    /// `true` if the measured rounds respect the paper's bound.
    pub fn within_bound(&self) -> bool {
        self.converged && self.rounds <= self.bound_rounds
    }
}

impl fmt::Display for BoundRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "  {:<12} n={:<2} items={:<2} D={:<2}  bound D*|V|+2={:<3} measured rounds={:<3} messages={:<5} {}",
            self.topology,
            self.agents,
            self.items,
            self.diameter,
            self.bound_rounds,
            self.rounds,
            self.messages,
            if self.within_bound() { "✓ within bound" } else { "✗ EXCEEDS BOUND" }
        )
    }
}

type TopologyFactory = Box<dyn Fn(usize) -> Network>;

/// E6: measures synchronous rounds-to-consensus against the `D · |V_H|`
/// bound across topologies and scales, with compliant (sub-modular)
/// policies.
pub fn run_convergence_bound(seeds: &[u64]) -> Vec<BoundRow> {
    let mut rows = Vec::new();
    let topologies: Vec<(String, TopologyFactory)> = vec![
        ("complete".into(), Box::new(Network::complete)),
        ("line".into(), Box::new(Network::line)),
        ("ring".into(), Box::new(Network::ring)),
        ("star".into(), Box::new(Network::star)),
        (
            "random(0.4)".into(),
            Box::new(|n| Network::random_connected(n, 0.4, 99)),
        ),
    ];
    for (name, make) in &topologies {
        for &n in &[3usize, 5, 8] {
            for &items in &[2usize, 4] {
                for &seed in seeds {
                    let network = make(n);
                    let diameter = network.diameter().expect("connected");
                    let mut sim = scenarios::compliant(network, items, seed);
                    let out = sim.run_synchronous(1024);
                    rows.push(BoundRow {
                        topology: name.clone(),
                        agents: n,
                        items,
                        diameter,
                        bound_rounds: diameter.max(1) * items + 2,
                        rounds: out.rounds,
                        messages: out.messages_delivered,
                        converged: out.converged,
                    });
                }
            }
        }
    }
    rows
}

// ---------------------------------------------------------------- E7 ----

/// One row of the approximation-ratio experiment (Remark 3): achieved vs
/// optimal network utility for sub-modular MCA.
#[derive(Clone, Debug)]
pub struct WelfareRow {
    /// Number of agents.
    pub agents: usize,
    /// Number of items.
    pub items: usize,
    /// Workload seed.
    pub seed: u64,
    /// Utility accrued by the MCA allocation.
    pub achieved: i64,
    /// Exhaustively computed optimum.
    pub optimal: i64,
}

impl WelfareRow {
    /// `achieved / optimal` (1.0 when the optimum is 0).
    pub fn ratio(&self) -> f64 {
        if self.optimal == 0 {
            1.0
        } else {
            self.achieved as f64 / self.optimal as f64
        }
    }

    /// Remark 3's guarantee: the ratio is at least `1 - 1/e`.
    pub fn within_guarantee(&self) -> bool {
        self.ratio() >= 1.0 - std::f64::consts::E.recip() - 1e-9
    }
}

impl fmt::Display for WelfareRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "  n={} items={} seed={:<3} achieved={:<5} optimal={:<5} ratio={:.3} {}",
            self.agents,
            self.items,
            self.seed,
            self.achieved,
            self.optimal,
            self.ratio(),
            if self.within_guarantee() {
                "✓ >= 1-1/e"
            } else {
                "✗ BELOW 1-1/e"
            }
        )
    }
}

/// E7 (Remark 3): measures the MCA allocation's network utility against
/// the exhaustive optimum on random sub-modular workloads. The paper cites
/// the `(1 - 1/e)` approximation guarantee for sub-modular bidding.
pub fn run_approximation_ratio(seeds: &[u64]) -> Vec<WelfareRow> {
    let mut rows = Vec::new();
    for &(n, items) in &[(2usize, 2usize), (3, 2), (3, 3), (4, 3)] {
        for &seed in seeds {
            let mut sim = scenarios::compliant(Network::complete(n), items, seed);
            let out = sim.run_synchronous(128);
            assert!(out.converged, "compliant workload must converge");
            let policies: Vec<mca_core::Policy> =
                sim.agents().iter().map(|a| a.policy().clone()).collect();
            rows.push(WelfareRow {
                agents: n,
                items,
                seed,
                achieved: mca_core::welfare::achieved_network_utility(sim.agents()),
                optimal: mca_core::welfare::optimal_network_utility(&policies, items),
            });
        }
    }
    rows
}

// ---------------------------------------------------------------- E8 ----

/// The three encoding variants the E8 scaling sweep compares:
/// `(label, encoding, preprocess)`.
pub const E8_VARIANTS: [(&str, NumberEncoding, bool); 3] = [
    ("naive", NumberEncoding::NaiveInt, false),
    ("optimized", NumberEncoding::OptimizedValue, false),
    ("optimized+pre", NumberEncoding::OptimizedValue, true),
];

/// The E8 scope axis: `(pnodes, vnodes)` pairs from 2×2 up to 4×3, with
/// 5×3 as the stretch scope when `stretch` is set.
pub fn e8_scopes(stretch: bool) -> Vec<(usize, usize)> {
    let mut scopes = vec![(2, 2), (3, 2), (3, 3), (4, 3)];
    if stretch {
        scopes.push((5, 3));
    }
    scopes
}

/// One encoding variant's measurement at one E8 scope.
#[derive(Clone, Debug)]
pub struct ScaleVariant {
    /// Variant label (one of [`E8_VARIANTS`]).
    pub variant: String,
    /// Consensus verdict at the scenario's final state.
    pub valid: bool,
    /// Whether that verdict is vacuous (facts alone unsatisfiable); see
    /// [`ScopedCheck::vacuous`](crate::ScopedCheck).
    pub vacuous: bool,
    /// End-to-end seconds for build + translate + (preprocess +) solve.
    pub check_secs: f64,
    /// Translation sizes (facts + goal circuit).
    pub stats: TranslationStats,
    /// CDCL statistics.
    pub solver: SolverStats,
    /// Preprocessor statistics, for the preprocessed variant.
    pub simplify: Option<mca_sat::SimplifyStats>,
}

/// One scope row of the E8 scaling sweep: the three encoding variants plus
/// the incremental per-state convergence sweep.
#[derive(Clone, Debug)]
pub struct ScaleRow {
    /// Scope label, e.g. `"3x2"`.
    pub scope: String,
    /// Physical nodes (agents).
    pub pnodes: usize,
    /// Virtual nodes (items).
    pub vnodes: usize,
    /// `netState` count of the scenario.
    pub states: usize,
    /// One entry per [`E8_VARIANTS`] element, in that order.
    pub variants: Vec<ScaleVariant>,
    /// Incremental, preprocessed per-state sweep (optimized encoding):
    /// the facts are encoded once and every state's consensus query is
    /// answered by the same solver.
    pub sweep: ConsensusSweep,
    /// Seconds for the whole sweep.
    pub sweep_secs: f64,
}

impl ScaleRow {
    /// `true` when all three variants and the sweep's final state agree on
    /// the verdict — E8's bit-identical-verdict requirement.
    pub fn verdicts_agree(&self) -> bool {
        let v = self.valid();
        self.variants.iter().all(|x| x.valid == v)
            && self.sweep.per_state.last().copied() == Some(v)
    }

    /// The consensus verdict at this scope (from the first variant).
    pub fn valid(&self) -> bool {
        self.variants.first().map(|v| v.valid).unwrap_or(false)
    }
}

impl fmt::Display for ScaleRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "  scope {} ({} states): consensus {}  {}",
            self.scope,
            self.states,
            if self.valid() { "VALID" } else { "REFUTED" },
            if self.verdicts_agree() {
                "✓ all variants agree"
            } else {
                "✗ VERDICT MISMATCH"
            }
        )?;
        for v in &self.variants {
            write!(
                f,
                "    {:<14} vars={:>7} clauses={:>8} conflicts={:>7} check={:>8.3}s",
                v.variant, v.stats.cnf_vars, v.stats.cnf_clauses, v.solver.conflicts, v.check_secs
            )?;
            if let Some(s) = &v.simplify {
                write!(
                    f,
                    "  (pre: -{} subsumed, -{} lits)",
                    s.subsumed, s.strengthened_literals
                )?;
            }
            writeln!(f)?;
        }
        write!(
            f,
            "    incremental sweep: valid from state {}  conflicts={}  {:.3}s",
            self.sweep
                .valid_from
                .map_or("never".into(), |k| k.to_string()),
            self.sweep.solver.conflicts,
            self.sweep_secs
        )
    }
}

/// E8: checks consensus at growing scopes under all three encoding
/// variants (naive, optimized, optimized+preprocessed) and runs the
/// incremental per-state convergence sweep at each scope. Every
/// (scope, variant) cell and every sweep is one job on `threads` workers,
/// `|scopes| × 4` jobs labelled `e8:<scope>:<variant>` and
/// `e8:<scope>:sweep`. Rows come back in scope order.
///
/// With a span recorder, each job's span holds the `relalg.encode` /
/// `sat.*` spans of its measurement, and the sweep's per-state
/// `verify.state-query` spans.
///
/// # Errors
///
/// Propagates the first translation error, in job order.
pub fn run_scale_sweep(
    threads: usize,
    scopes: &[(usize, usize)],
    spans: Option<&SpanRecorder>,
) -> Result<Vec<ScaleRow>, TranslateError> {
    /// One job's result: a variant cell, or a scope's sweep.
    enum Piece {
        Variant(Result<ScaleVariant, TranslateError>),
        Sweep(Result<(ConsensusSweep, f64), TranslateError>),
    }
    type Job = Box<dyn FnOnce(Option<&SpanRecorder>) -> Piece + Send>;
    let mut jobs: Vec<(String, Job)> = Vec::new();
    for &(p, v) in scopes {
        for (label, encoding, preprocess) in E8_VARIANTS {
            jobs.push((
                format!("e8:{p}x{v}:{label}"),
                Box::new(move |spans| {
                    Piece::Variant(scale_variant(p, v, label, encoding, preprocess, spans))
                }),
            ));
        }
        jobs.push((
            format!("e8:{p}x{v}:sweep"),
            Box::new(move |spans| Piece::Sweep(scale_sweep_at(p, v, spans))),
        ));
    }
    let mut pieces = run_batch(threads, jobs, spans).into_iter();
    let mut rows = Vec::with_capacity(scopes.len());
    for &(p, v) in scopes {
        let scenario = DynamicScenario::at_scope(p, v);
        let mut variants = Vec::with_capacity(E8_VARIANTS.len());
        for _ in E8_VARIANTS {
            match pieces.next().expect("one piece per variant") {
                Piece::Variant(r) => variants.push(r?),
                Piece::Sweep(_) => unreachable!("variant pieces precede the sweep"),
            }
        }
        let (sweep, sweep_secs) = match pieces.next().expect("one sweep piece per scope") {
            Piece::Sweep(r) => r?,
            Piece::Variant(_) => unreachable!("the sweep piece closes a scope"),
        };
        rows.push(ScaleRow {
            scope: scenario.scope_label(),
            pnodes: p,
            vnodes: v,
            states: scenario.states,
            variants,
            sweep,
            sweep_secs,
        });
    }
    Ok(rows)
}

/// Measures a single E8 (scope, variant) cell, one job of
/// [`run_scale_sweep`]: builds the model and checks consensus on the
/// scoped path, timing build + translate + (preprocess +) solve.
///
/// # Errors
///
/// Propagates translation errors.
pub fn scale_variant(
    pnodes: usize,
    vnodes: usize,
    label: &str,
    encoding: NumberEncoding,
    preprocess: bool,
    spans: Option<&SpanRecorder>,
) -> Result<ScaleVariant, TranslateError> {
    let start = Instant::now();
    let model = DynamicModel::build(encoding, DynamicScenario::at_scope(pnodes, vnodes));
    let check = model.check_consensus_opts(preprocess, spans)?;
    Ok(ScaleVariant {
        variant: label.to_string(),
        valid: check.valid,
        vacuous: check.vacuous,
        check_secs: start.elapsed().as_secs_f64(),
        stats: check.stats,
        solver: check.solver,
        simplify: check.simplify,
    })
}

/// Runs one scope's incremental, preprocessed per-state sweep (optimized
/// encoding); returns the sweep and its wall-clock seconds (spans as in
/// [`run_scale_sweep`]).
///
/// # Errors
///
/// Propagates translation errors.
pub fn scale_sweep_at(
    pnodes: usize,
    vnodes: usize,
    spans: Option<&SpanRecorder>,
) -> Result<(ConsensusSweep, f64), TranslateError> {
    let start = Instant::now();
    let model = DynamicModel::build(
        NumberEncoding::OptimizedValue,
        DynamicScenario::at_scope(pnodes, vnodes),
    );
    let sweep = model.convergence_sweep(true, spans)?;
    Ok((sweep, start.elapsed().as_secs_f64()))
}

/// Convenience for tests/benches: an attacked simulator alongside a
/// compliant one at matched scale.
pub fn matched_pair(n: usize, seed: u64) -> (Simulator, Simulator) {
    let compliant = scenarios::compliant(Network::complete(n), 2, seed);
    let attacked = scenarios::rebid_attack(n, n);
    (compliant, attacked)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_report_matches_paper() {
        let r = run_fig1(None);
        assert!(r.converged);
        assert_eq!(r.final_bids, vec![20, 15, 30]);
        assert_eq!(r.winners, vec![1, 1, 0]);
        assert!(r.to_string().contains("(20, 15, 30)"));
    }

    #[test]
    fn policy_matrix_matches_paper() {
        let rows = run_policy_matrix(2, None);
        assert_eq!(rows.len(), 4);
        for row in &rows {
            assert!(row.matches_paper(), "mismatch: {row}");
        }
        // Exactly one failing cell.
        assert_eq!(rows.iter().filter(|r| !r.checker_converges).count(), 1);
    }

    #[test]
    fn fig2_oscillation_trace_exists() {
        let trace = run_fig2_oscillation().expect("oscillation per the paper");
        assert!(trace.contains("deliver") || trace.contains("bidding"));
    }

    #[test]
    fn encoding_comparison_reports_relations_and_solver_stats() {
        let rows = run_encoding_comparison();
        assert!(!rows.is_empty());
        for row in &rows {
            // Both breakdowns cover the model's relations and sum to the
            // primary-variable totals.
            for (rels, stats) in [
                (&row.naive_relations, &row.naive),
                (&row.optimized_relations, &row.optimized),
            ] {
                assert!(!rels.is_empty());
                let sum: usize = rels.iter().map(|r| r.primary_vars).sum();
                assert_eq!(sum, stats.primary_vars);
            }
            // The check actually ran the CDCL solver.
            assert!(row.naive_solver.solves >= 1);
            assert!(row.optimized_solver.solves >= 1);
            assert!(row.naive_solver.propagations > 0);
        }
    }

    #[test]
    fn scale_sweep_smoke_verdicts_agree() {
        let rows = run_scale_sweep(2, &[(2, 2)], None).expect("scale sweep");
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert!(row.verdicts_agree(), "verdict mismatch: {row}");
        assert!(row.valid(), "the 2x2 compliant scope must reach consensus");
        assert_eq!(row.variants.len(), E8_VARIANTS.len());
        assert!(
            row.variants[2].simplify.is_some(),
            "the preprocessed variant must report simplifier stats"
        );
        assert_eq!(row.sweep.per_state.len(), row.states);
        assert_eq!(row.sweep.conflicts_after.len(), row.states);
    }

    #[test]
    fn convergence_bound_holds_for_compliant_runs() {
        let rows = run_convergence_bound(&[7]);
        assert!(!rows.is_empty());
        for row in &rows {
            assert!(row.converged, "compliant run must converge: {row}");
            assert!(row.within_bound(), "bound violated: {row}");
        }
    }
}
