//! The paper's *dynamic* sub-model (§IV): the MCA transition system.
//!
//! Transliterates the printed Alloy fragments:
//!
//! ```text
//! sig netState { bidVectors: some bidVector, time: one Int,
//!                buffMsgs: set message }
//! sig message  { msgSender: one pnode, msgReceiver: one pnode,
//!                msgWinners: vnode -> (pnode + NULL),
//!                msgBids: vnode -> Int, msgBidTimes: vnode -> Int }
//! fact stateTransition { all s: netState, s': s.next |
//!     one m: message | messageProcessing[s, s', m] }
//! assert consensus { (#(netState) >= val) implies consensusPred[] }
//! pred consensusPred { some s: netState |
//!     all disj bv1, bv2: s.bidVectors |
//!         (bv1.winners = bv2.winners) and
//!         (bv1.winnerBids = bv2.winnerBids) }
//! ```
//!
//! Per-agent views evolve by max-consensus message processing: a state
//! transition consumes one buffered message; the receiver adopts the
//! sender's strictly-greater bids; if its view changed it re-broadcasts to
//! its neighbors (messages carry the sender's current view). When the
//! buffer is empty the system stutters. The `consensus` assertion demands
//! agreement on winners and winning bids in the **last** state — the scope
//! on `netState` plays the role of the paper's `val = D · |V_H|` bound.
//!
//! With [`DynamicScenario::attackers`] non-empty, the Remark-1 necessary
//! condition is removed exactly as in the paper's Result 2: an attacker may
//! re-assert itself as the winner of an item it lost, which yields
//! counterexamples to `consensus` (the rebidding attack, via SAT).
//!
//! **Encodings.** The naive encoding stores views in arity-4 relations
//! (`winner/bid/time: netState -> pnode -> vnode -> …`) over `Int` atoms
//! with bit-blasted comparisons. The optimized encoding introduces one
//! *view-cell* atom per (state, agent, item) with binary fields — the
//! paper's `bidTriple` maneuver — and compares numbers through the `value`
//! signature's constant `succ`/`pre` relations (`valG`/`valLE`).

use crate::encoding::{NumberEncoding, Numbers};
use mca_alloy::{FieldId, Model, Multiplicity};
use mca_relalg::{AtomId, CheckOutcome, Expr, Formula, TranslateError, TranslationStats};

/// A concrete dynamic-model scenario.
#[derive(Clone, Debug)]
pub struct DynamicScenario {
    /// Number of agents (physical nodes).
    pub pnodes: usize,
    /// Number of items (virtual nodes).
    pub vnodes: usize,
    /// Number of `netState` atoms (`val + 1` in the paper's terms).
    pub states: usize,
    /// `bids[p][v]` — agent `p`'s initial bid on item `v` (0 = no bid).
    pub bids: Vec<Vec<i64>>,
    /// Undirected agent adjacency (pairs of agent indices).
    pub links: Vec<(usize, usize)>,
    /// Agents allowed to violate Remark 1 (rebid on lost items).
    pub attackers: Vec<usize>,
}

impl DynamicScenario {
    /// The Figure-1-style scenario: two fully connected agents, two items,
    /// distinct bids, no attackers.
    pub fn two_agent_compliant() -> DynamicScenario {
        DynamicScenario {
            pnodes: 2,
            vnodes: 2,
            states: 5,
            bids: vec![vec![1, 3], vec![2, 1]],
            links: vec![(0, 1)],
            attackers: Vec::new(),
        }
    }

    /// The Result-2 scenario: as compliant, but agent 0 rebids on lost
    /// items.
    pub fn two_agent_rebid_attack() -> DynamicScenario {
        DynamicScenario {
            attackers: vec![0],
            ..DynamicScenario::two_agent_compliant()
        }
    }

    /// The paper's reference scope (3 physical nodes, 2 virtual nodes) on a
    /// triangle, used for the E5 encoding-size comparison. With `states = 4`
    /// the trace is too short for every schedule to drain the message
    /// buffer, so `check_consensus` is *expected* to be refutable here — use
    /// [`DynamicScenario::paper_scope_sound`] for a verdict-sound variant.
    pub fn paper_scope() -> DynamicScenario {
        DynamicScenario {
            pnodes: 3,
            vnodes: 2,
            states: 4,
            bids: vec![vec![1, 4], vec![3, 2], vec![2, 5]],
            links: vec![(0, 1), (1, 2), (0, 2)],
            attackers: Vec::new(),
        }
    }

    /// The paper scope with enough states (`val`) for every schedule to
    /// quiesce — `check_consensus` is valid here.
    pub fn paper_scope_sound() -> DynamicScenario {
        DynamicScenario {
            states: 12,
            ..DynamicScenario::paper_scope()
        }
    }

    /// A deterministic scenario at scope `n_phys × n_virt` — E8's scaling
    /// axis. Agents sit on a line (diameter `n_phys - 1`), every agent bids
    /// on every item following a fixed pattern (`1 + (p + v) mod n_phys`,
    /// so each item has a unique maximal bidder), and there are no
    /// attackers.
    ///
    /// The state budget is `n_phys·(n_phys − 1) + 4` `netState`s: 6 at
    /// two agents, 10 at three, 16 at four. It is a sufficient budget, not
    /// the minimal one. The consensus assertion is valid from 3/8/9/15
    /// states at 2×2/3×2/3×3/4×2 and refuted one state lower, where some
    /// schedule reaches the final state with messages undrained; E8's
    /// incremental sweep puts the 4×3 threshold at 16 states, the budget
    /// itself. The threshold thus grows with the item count as well as
    /// the agent count. E8, `BENCH_SCALE.json` and the serve deck are
    /// measured at this budget, so it stays.
    ///
    /// # Panics
    ///
    /// Panics if `n_phys < 2` or `n_virt == 0`.
    pub fn at_scope(n_phys: usize, n_virt: usize) -> DynamicScenario {
        assert!(n_phys >= 2, "need at least two agents");
        assert!(n_virt >= 1, "need at least one item");
        let links = (0..n_phys - 1).map(|i| (i, i + 1)).collect();
        let bids = (0..n_phys)
            .map(|p| (0..n_virt).map(|v| 1 + ((p + v) % n_phys) as i64).collect())
            .collect();
        DynamicScenario {
            pnodes: n_phys,
            vnodes: n_virt,
            // Sufficient for validity, not minimal — see the doc comment.
            states: n_phys * (n_phys - 1) + 4,
            bids,
            links,
            attackers: Vec::new(),
        }
    }

    /// A short label for the scope, e.g. `"3x2"`.
    pub fn scope_label(&self) -> String {
        format!("{}x{}", self.pnodes, self.vnodes)
    }

    /// Three agents on a line (diameter 2), compliant, with enough states
    /// for soundness.
    pub fn three_agent_line_compliant() -> DynamicScenario {
        DynamicScenario {
            pnodes: 3,
            vnodes: 2,
            states: 10,
            bids: vec![vec![1, 4], vec![3, 2], vec![2, 5]],
            links: vec![(0, 1), (1, 2)],
            attackers: Vec::new(),
        }
    }

    fn max_bid(&self) -> i64 {
        self.bids
            .iter()
            .flat_map(|row| row.iter().copied())
            .max()
            .unwrap_or(0)
            .max(1)
    }

    fn directed_edges(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for &(a, b) in &self.links {
            out.push((a, b));
            out.push((b, a));
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// View accessors differ per encoding.
#[derive(Debug)]
enum Views {
    /// Arity-4 relations over states.
    Naive {
        winner: FieldId,
        bid: FieldId,
        time: FieldId,
    },
    /// One cell atom per (state, agent, item) with binary fields.
    Optimized {
        cells: Vec<Vec<Vec<AtomId>>>,
        cell_winner: FieldId,
        cell_bid: FieldId,
        cell_time: FieldId,
    },
}

/// Result of [`DynamicModel::convergence_sweep`]: per-state consensus
/// verdicts answered by one shared incremental solver.
#[derive(Clone, Debug)]
pub struct ConsensusSweep {
    /// The earliest state index at which consensus is valid (every
    /// schedule has agreed), if any within the scenario's bound.
    pub valid_from: Option<usize>,
    /// `per_state[k]` — whether `consensusPred` is valid at state `k`.
    pub per_state: Vec<bool>,
    /// The shared solver's cumulative conflict count after each query —
    /// the incremental-reuse curve (differences shrink when learnt clauses
    /// transfer between states).
    pub conflicts_after: Vec<u64>,
    /// Size statistics of the shared encoding (facts + every per-state
    /// goal circuit).
    pub stats: TranslationStats,
    /// What the preprocessor did, when the sweep ran with `preprocess`.
    pub simplify: Option<mca_sat::SimplifyStats>,
    /// Cumulative statistics of the shared solver across all queries.
    pub solver: mca_sat::SolverStats,
}

/// Result of [`DynamicModel::check_consensus_opts`]: the verdict plus the
/// size, solver and preprocessor statistics E8 compares across encoding
/// variants.
#[derive(Clone, Debug)]
pub struct ScopedCheck {
    /// Whether the consensus assertion is valid at this scope.
    pub valid: bool,
    /// Whether the verdict is **vacuous**: the transition-system facts
    /// alone are unsatisfiable, so *any* assertion over them would come
    /// back valid. A `valid = true, vacuous = true` row proves nothing.
    pub vacuous: bool,
    /// Translation sizes of the facts plus the goal circuit.
    pub stats: TranslationStats,
    /// CDCL statistics of the solve.
    pub solver: mca_sat::SolverStats,
    /// What the preprocessor did, when the check ran with `preprocess`.
    pub simplify: Option<mca_sat::SimplifyStats>,
}

/// The built dynamic model.
#[derive(Debug)]
pub struct DynamicModel {
    model: Model,
    scenario: DynamicScenario,
    encoding: NumberEncoding,
    numbers: Numbers,
    state_atoms: Vec<AtomId>,
    pnode_atoms: Vec<AtomId>,
    vnode_atoms: Vec<AtomId>,
    msg_atoms: Vec<AtomId>,
    msg_edges: Vec<(usize, usize)>,
    buff: FieldId,
    views: Views,
}

impl DynamicModel {
    /// Builds the dynamic model for `scenario` under `encoding`.
    ///
    /// # Panics
    ///
    /// Panics on malformed scenarios (bid table shape, out-of-range links,
    /// fewer than 2 states).
    pub fn build(encoding: NumberEncoding, scenario: DynamicScenario) -> DynamicModel {
        assert!(scenario.states >= 2, "need at least two states");
        assert_eq!(
            scenario.bids.len(),
            scenario.pnodes,
            "one bid row per agent"
        );
        for row in &scenario.bids {
            assert_eq!(row.len(), scenario.vnodes, "one bid per item");
        }
        for &(a, b) in &scenario.links {
            assert!(a < scenario.pnodes && b < scenario.pnodes && a != b);
        }

        let mut m = Model::new();
        let pnode = m.sig("pnode", scenario.pnodes);
        let vnode = m.sig("vnode", scenario.vnodes);
        let net_state = m.sig("netState", scenario.states);
        // util/ordering[netState] — fidelity to the paper's dynamic model;
        // the builder grounds over consecutive atom pairs directly.
        let _ordering = m.ordering(net_state);
        let numbers = Numbers::install(&mut m, encoding, scenario.max_bid());
        let nsig = numbers.sig();

        let pnode_atoms = m.atoms(pnode).to_vec();
        let vnode_atoms = m.atoms(vnode).to_vec();
        let state_atoms = m.atoms(net_state).to_vec();

        // sig message with constant msgSender / msgReceiver.
        let msg_edges = scenario.directed_edges();
        let message = m.sig("message", msg_edges.len());
        let msg_atoms = m.atoms(message).to_vec();
        {
            let sender_pairs = msg_edges
                .iter()
                .enumerate()
                .map(|(i, &(q, _))| (msg_atoms[i], pnode_atoms[q]));
            let receiver_pairs = msg_edges
                .iter()
                .enumerate()
                .map(|(i, &(_, r))| (msg_atoms[i], pnode_atoms[r]));
            m.constant_field(
                "msgSender",
                message,
                &[pnode],
                mca_relalg::TupleSet::from_pairs(sender_pairs),
            );
            m.constant_field(
                "msgReceiver",
                message,
                &[pnode],
                mca_relalg::TupleSet::from_pairs(receiver_pairs),
            );
        }
        let buff = m.field("buffMsgs", net_state, &[message], Multiplicity::Set);

        let views = match encoding {
            NumberEncoding::NaiveInt => {
                let winner = m.field(
                    "winner",
                    net_state,
                    &[pnode, vnode, pnode],
                    Multiplicity::Set,
                );
                let bid = m.field("bid", net_state, &[pnode, vnode, nsig], Multiplicity::Set);
                let time = m.field(
                    "bidTime",
                    net_state,
                    &[pnode, vnode, nsig],
                    Multiplicity::Set,
                );
                Views::Naive { winner, bid, time }
            }
            NumberEncoding::OptimizedValue => {
                let n_cells = scenario.states * scenario.pnodes * scenario.vnodes;
                let cell = m.sig("viewCell", n_cells);
                let cell_atoms = m.atoms(cell).to_vec();
                let mut cells = vec![
                    vec![vec![cell_atoms[0]; scenario.vnodes]; scenario.pnodes];
                    scenario.states
                ];
                let mut idx = 0;
                let mut state_pairs = Vec::new();
                let mut agent_pairs = Vec::new();
                let mut item_pairs = Vec::new();
                for s in 0..scenario.states {
                    for p in 0..scenario.pnodes {
                        for v in 0..scenario.vnodes {
                            cells[s][p][v] = cell_atoms[idx];
                            state_pairs.push((cell_atoms[idx], state_atoms[s]));
                            agent_pairs.push((cell_atoms[idx], pnode_atoms[p]));
                            item_pairs.push((cell_atoms[idx], vnode_atoms[v]));
                            idx += 1;
                        }
                    }
                }
                m.constant_field(
                    "cellState",
                    cell,
                    &[net_state],
                    mca_relalg::TupleSet::from_pairs(state_pairs),
                );
                m.constant_field(
                    "cellAgent",
                    cell,
                    &[pnode],
                    mca_relalg::TupleSet::from_pairs(agent_pairs),
                );
                m.constant_field(
                    "cellItem",
                    cell,
                    &[vnode],
                    mca_relalg::TupleSet::from_pairs(item_pairs),
                );
                let cell_winner = m.field("cellWinner", cell, &[pnode], Multiplicity::Lone);
                let cell_bid = m.field("cellBid", cell, &[nsig], Multiplicity::One);
                let cell_time = m.field("cellTime", cell, &[nsig], Multiplicity::One);
                Views::Optimized {
                    cells,
                    cell_winner,
                    cell_bid,
                    cell_time,
                }
            }
        };

        let mut dm = DynamicModel {
            model: m,
            scenario,
            encoding,
            numbers,
            state_atoms,
            pnode_atoms,
            vnode_atoms,
            msg_atoms,
            msg_edges,
            buff,
            views,
        };
        dm.install_multiplicities();
        dm.install_initial_state();
        dm.install_transitions();
        dm
    }

    // ----- accessors -----

    fn win(&self, s: usize, p: usize, v: usize) -> Expr {
        match &self.views {
            Views::Naive { winner, .. } => Expr::atom(self.vnode_atoms[v]).join(
                &Expr::atom(self.pnode_atoms[p])
                    .join(&Expr::atom(self.state_atoms[s]).join(&self.model.field_expr(*winner))),
            ),
            Views::Optimized {
                cells, cell_winner, ..
            } => Expr::atom(cells[s][p][v]).join(&self.model.field_expr(*cell_winner)),
        }
    }

    fn bid(&self, s: usize, p: usize, v: usize) -> Expr {
        match &self.views {
            Views::Naive { bid, .. } => Expr::atom(self.vnode_atoms[v]).join(
                &Expr::atom(self.pnode_atoms[p])
                    .join(&Expr::atom(self.state_atoms[s]).join(&self.model.field_expr(*bid))),
            ),
            Views::Optimized {
                cells, cell_bid, ..
            } => Expr::atom(cells[s][p][v]).join(&self.model.field_expr(*cell_bid)),
        }
    }

    fn time(&self, s: usize, p: usize, v: usize) -> Expr {
        match &self.views {
            Views::Naive { time, .. } => Expr::atom(self.vnode_atoms[v]).join(
                &Expr::atom(self.pnode_atoms[p])
                    .join(&Expr::atom(self.state_atoms[s]).join(&self.model.field_expr(*time))),
            ),
            Views::Optimized {
                cells, cell_time, ..
            } => Expr::atom(cells[s][p][v]).join(&self.model.field_expr(*cell_time)),
        }
    }

    fn buff_at(&self, s: usize) -> Expr {
        Expr::atom(self.state_atoms[s]).join(&self.model.field_expr(self.buff))
    }

    fn out_msgs(&self, sender: usize) -> Expr {
        let mut e: Option<Expr> = None;
        for (i, &(q, _)) in self.msg_edges.iter().enumerate() {
            if q == sender {
                let a = Expr::atom(self.msg_atoms[i]);
                e = Some(match e {
                    None => a,
                    Some(prev) => prev.union(&a),
                });
            }
        }
        e.unwrap_or_else(|| Expr::empty(1))
    }

    /// The two views (winner and bid) are equal between (s1,p1,v) and
    /// (s2,p2,v).
    fn view_eq(&self, s1: usize, p1: usize, s2: usize, p2: usize, v: usize) -> Formula {
        self.win(s1, p1, v)
            .equals(&self.win(s2, p2, v))
            .and(&self.bid(s1, p1, v).equals(&self.bid(s2, p2, v)))
            .and(&self.time(s1, p1, v).equals(&self.time(s2, p2, v)))
    }

    // ----- facts -----

    fn install_multiplicities(&mut self) {
        if let Views::Naive { .. } = self.views {
            // Ground per-cell multiplicities for the wide relations.
            let mut facts = Vec::new();
            for s in 0..self.scenario.states {
                for p in 0..self.scenario.pnodes {
                    for v in 0..self.scenario.vnodes {
                        facts.push(self.win(s, p, v).lone());
                        facts.push(self.bid(s, p, v).one());
                        facts.push(self.time(s, p, v).one());
                    }
                }
            }
            for f in facts {
                self.model.fact(f);
            }
        }
        // Optimized: `Multiplicity::Lone/One` on the cell fields already
        // covers this.
    }

    fn install_initial_state(&mut self) {
        let mut facts = Vec::new();
        for p in 0..self.scenario.pnodes {
            for v in 0..self.scenario.vnodes {
                let b = self.scenario.bids[p][v];
                if b > 0 {
                    facts.push(self.win(0, p, v).equals(&Expr::atom(self.pnode_atoms[p])));
                    facts.push(self.bid(0, p, v).equals(&self.numbers.num(&self.model, b)));
                    facts.push(self.time(0, p, v).equals(&self.numbers.num(&self.model, 1)));
                } else {
                    facts.push(self.win(0, p, v).no());
                    facts.push(self.bid(0, p, v).equals(&self.numbers.num(&self.model, 0)));
                    facts.push(self.time(0, p, v).equals(&self.numbers.num(&self.model, 0)));
                }
            }
        }
        // Initial buffer: every message in flight.
        let all_msgs = self
            .msg_atoms
            .iter()
            .map(|&a| Expr::atom(a))
            .reduce(|a, b| a.union(&b))
            .unwrap_or_else(|| Expr::empty(1));
        facts.push(self.buff_at(0).equals(&all_msgs));
        for f in facts {
            self.model.fact(f);
        }
    }

    fn frame_agent(&self, s: usize, s2: usize, p: usize) -> Formula {
        Formula::and_all((0..self.scenario.vnodes).map(|v| self.view_eq(s2, p, s, p, v)))
    }

    fn install_transitions(&mut self) {
        let mut facts = Vec::new();
        for s in 0..self.scenario.states - 1 {
            let s2 = s + 1;
            let mut alternatives = Vec::new();

            // Stutter: empty buffer, nothing changes.
            let all_framed =
                Formula::and_all((0..self.scenario.pnodes).map(|p| self.frame_agent(s, s2, p)));
            alternatives.push(
                self.buff_at(s)
                    .no()
                    .and(&all_framed)
                    .and(&self.buff_at(s2).no()),
            );

            // messageProcessing[s, s', m] for each message m.
            for (i, &(q, r)) in self.msg_edges.iter().enumerate() {
                let m_atom = Expr::atom(self.msg_atoms[i]);
                let in_buffer = m_atom.in_(&self.buff_at(s));

                let mut merge = Vec::new();
                let mut changed_terms = Vec::new();
                for v in 0..self.scenario.vnodes {
                    // The sender's claim displaces the receiver's if its bid
                    // is strictly greater, or equal with a lower winner id —
                    // the deterministic tiebreak of distributed winner
                    // determination.
                    let gt = self
                        .numbers
                        .gt(&self.model, &self.bid(s, q, v), &self.bid(s, r, v));
                    let eq_bid = self.bid(s, q, v).equals(&self.bid(s, r, v));
                    let mut lower_id_cases = Vec::new();
                    for wq in 0..self.scenario.pnodes {
                        for wr in (wq + 1)..self.scenario.pnodes {
                            lower_id_cases.push(
                                self.win(s, q, v)
                                    .equals(&Expr::atom(self.pnode_atoms[wq]))
                                    .and(
                                        &self
                                            .win(s, r, v)
                                            .equals(&Expr::atom(self.pnode_atoms[wr])),
                                    ),
                            );
                        }
                    }
                    let tiebreak = eq_bid.and(&Formula::or_all(lower_id_cases));
                    let better = gt.or(&tiebreak);
                    let adopt = self
                        .win(s2, r, v)
                        .equals(&self.win(s, q, v))
                        .and(&self.bid(s2, r, v).equals(&self.bid(s, q, v)))
                        .and(&self.time(s2, r, v).equals(&self.time(s, q, v)));
                    let keep = self.view_eq(s2, r, s, r, v);
                    merge.push(better.implies(&adopt).and(&better.not().implies(&keep)));
                    changed_terms.push(better);
                }
                let merge = Formula::and_all(merge);
                let changed = Formula::or_all(changed_terms);

                let frame_others = Formula::and_all(
                    (0..self.scenario.pnodes)
                        .filter(|&u| u != r)
                        .map(|u| self.frame_agent(s, s2, u)),
                );

                let removed = self.buff_at(s).difference(&m_atom);
                let with_rebroadcast = self.buff_at(s2).equals(&removed.union(&self.out_msgs(r)));
                let without = self.buff_at(s2).equals(&removed);
                let buffer_update = changed
                    .implies(&with_rebroadcast)
                    .and(&changed.not().implies(&without));

                alternatives.push(in_buffer.and(&merge).and(&frame_others).and(&buffer_update));
            }

            // Rebidding attack (Remark 1 removed): attacker re-asserts
            // itself on an item it is not currently winning.
            for &a in &self.scenario.attackers {
                for v in 0..self.scenario.vnodes {
                    let b = self.scenario.bids[a][v];
                    if b <= 0 {
                        continue;
                    }
                    let not_winning = self
                        .win(s, a, v)
                        .equals(&Expr::atom(self.pnode_atoms[a]))
                        .not();
                    let rebid = self
                        .win(s2, a, v)
                        .equals(&Expr::atom(self.pnode_atoms[a]))
                        .and(&self.bid(s2, a, v).equals(&self.numbers.num(&self.model, b)))
                        .and(
                            &self
                                .time(s2, a, v)
                                .equals(&self.numbers.num(&self.model, 1)),
                        );
                    let frame_other_items = Formula::and_all(
                        (0..self.scenario.vnodes)
                            .filter(|&w| w != v)
                            .map(|w| self.view_eq(s2, a, s, a, w)),
                    );
                    let frame_others = Formula::and_all(
                        (0..self.scenario.pnodes)
                            .filter(|&u| u != a)
                            .map(|u| self.frame_agent(s, s2, u)),
                    );
                    let buffer_update = self
                        .buff_at(s2)
                        .equals(&self.buff_at(s).union(&self.out_msgs(a)));
                    alternatives.push(
                        not_winning
                            .and(&rebid)
                            .and(&frame_other_items)
                            .and(&frame_others)
                            .and(&buffer_update),
                    );
                }
            }

            facts.push(Formula::or_all(alternatives));
        }
        for f in facts {
            self.model.fact(f);
        }
    }

    // ----- commands -----

    /// The paper's `consensusPred` at the last state: all pairs of agents
    /// agree on every item's winner and winning bid.
    pub fn consensus_assertion(&self) -> Formula {
        self.consensus_assertion_at(self.scenario.states - 1)
    }

    /// `consensusPred` evaluated at state `k` instead of the last state:
    /// all pairs of agents agree on every item's winner and winning bid in
    /// state `k`. Validity at `k` means *every* schedule has reached
    /// agreement after `k` transitions — the earliest such `k` is the
    /// model-checked analogue of the paper's `val = D · |V_H|` bound.
    ///
    /// # Panics
    ///
    /// Panics if `k` is not a state index of the scenario.
    pub fn consensus_assertion_at(&self, k: usize) -> Formula {
        assert!(k < self.scenario.states, "state index out of range");
        let mut conjuncts = Vec::new();
        for p1 in 0..self.scenario.pnodes {
            for p2 in (p1 + 1)..self.scenario.pnodes {
                for v in 0..self.scenario.vnodes {
                    conjuncts.push(
                        self.win(k, p1, v)
                            .equals(&self.win(k, p2, v))
                            .and(&self.bid(k, p1, v).equals(&self.bid(k, p2, v))),
                    );
                }
            }
        }
        Formula::and_all(conjuncts)
    }

    /// `check consensus` — valid, or a counterexample execution.
    ///
    /// # Errors
    ///
    /// Propagates translation errors.
    pub fn check_consensus(&self) -> Result<CheckOutcome, TranslateError> {
        self.model.check(&self.consensus_assertion())
    }

    /// The raw CNF of facts ∧ ¬consensus — exactly the formula
    /// [`check_consensus`](Self::check_consensus) solves: the consensus
    /// assertion is **valid** iff this CNF is UNSAT. `mca-serve` solves
    /// it on a cache miss.
    ///
    /// # Errors
    ///
    /// Propagates translation errors.
    pub fn consensus_cnf(&self) -> Result<mca_sat::CnfFormula, TranslateError> {
        Ok(self
            .model
            .to_problem()
            .translate(&self.consensus_assertion().not())?
            .cnf)
    }

    /// `check consensus` with a certified verdict: when the assertion is
    /// valid, the UNSAT answer carries a DRAT proof verified by an
    /// independent unit-propagation checker.
    ///
    /// # Errors
    ///
    /// Propagates translation errors.
    pub fn check_consensus_certified(&self) -> Result<mca_relalg::CertifiedCheck, TranslateError> {
        self.model
            .check_certified(&self.consensus_assertion(), false)
    }

    /// `check consensus` on the scoped path, with full statistics — the
    /// per-variant probe of the E8 scaling sweep. The facts are asserted
    /// and ¬consensus is a goal literal solved under an assumption; a
    /// valid verdict is followed by the premise probe that sets
    /// [`ScopedCheck::vacuous`].
    ///
    /// * `preprocess` runs SatELite-style preprocessing before the search.
    /// * `spans` records `relalg.encode` / `sat.*` spans and wraps the
    ///   consensus query in a `verify.state-query` span.
    ///
    /// The verdict never differs from
    /// [`check_consensus`](Self::check_consensus): preprocessing preserves
    /// the model set. With `spans = None` no span event is emitted.
    ///
    /// # Errors
    ///
    /// Propagates translation errors.
    pub fn check_consensus_opts(
        &self,
        preprocess: bool,
        spans: Option<&mca_obs::SpanRecorder>,
    ) -> Result<ScopedCheck, TranslateError> {
        let mut problem = self.model.to_problem();
        if let Some(spans) = spans {
            problem.set_spans(spans.clone());
        }
        let mut inc = problem.incremental_checker(&[self.consensus_assertion()], preprocess)?;
        let mut span = spans.map(|r| r.enter("verify.state-query"));
        let valid = inc.check(0).is_valid();
        // A valid verdict is only meaningful if the facts alone are
        // satisfiable; with the incremental checker the premise check is
        // one extra assumption-free solve on the same clause database.
        let vacuous = valid && !inc.premise_satisfiable();
        if let Some(span) = span.as_mut() {
            span.field("query", 0);
            span.field("valid", u64::from(valid));
            span.field("vacuous", u64::from(vacuous));
            span.field("conflicts", inc.solver_stats().conflicts);
        }
        drop(span);
        Ok(ScopedCheck {
            valid,
            vacuous,
            stats: *inc.translation_stats(),
            solver: *inc.solver_stats(),
            simplify: inc.simplify_stats().copied(),
        })
    }

    /// Incremental convergence sweep: encodes the transition-system facts
    /// **once**, then checks [`consensus_assertion_at`](Self::consensus_assertion_at) for every state
    /// `k` through one shared solver, each query activated by an
    /// assumption literal so clauses learnt on earlier states are reused
    /// on later ones. With `preprocess`, the shared clause prefix is
    /// simplified before the first query. With a span recorder, every
    /// per-state query is wrapped in a `verify.state-query` span carrying
    /// the query index, verdict, and cumulative conflict count.
    ///
    /// Per-state verdicts are identical to checking each assertion from
    /// scratch (asserted by the `sweep_matches_fresh_checks` test).
    ///
    /// # Errors
    ///
    /// Propagates translation errors.
    pub fn convergence_sweep(
        &self,
        preprocess: bool,
        spans: Option<&mca_obs::SpanRecorder>,
    ) -> Result<ConsensusSweep, TranslateError> {
        let assertions: Vec<Formula> = (0..self.scenario.states)
            .map(|k| self.consensus_assertion_at(k))
            .collect();
        let mut problem = self.model.to_problem();
        if let Some(spans) = spans {
            problem.set_spans(spans.clone());
        }
        let mut inc = problem.incremental_checker(&assertions, preprocess)?;
        let mut per_state = Vec::with_capacity(assertions.len());
        let mut conflicts_after = Vec::with_capacity(assertions.len());
        for k in 0..assertions.len() {
            let mut span = spans.map(|r| r.enter("verify.state-query"));
            let valid = inc.check(k).is_valid();
            let conflicts = inc.solver_stats().conflicts;
            if let Some(span) = span.as_mut() {
                span.field("query", k as u64);
                span.field("valid", u64::from(valid));
                span.field("conflicts", conflicts);
            }
            drop(span);
            per_state.push(valid);
            conflicts_after.push(conflicts);
        }
        Ok(ConsensusSweep {
            valid_from: per_state.iter().position(|&v| v),
            per_state,
            conflicts_after,
            stats: *inc.translation_stats(),
            simplify: inc.simplify_stats().copied(),
            solver: *inc.solver_stats(),
        })
    }

    /// The underlying model (for instance inspection).
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// Adds an extra fact on top of the generated transition-system
    /// facts. Intended for experiments that deliberately perturb the
    /// model — e.g. injecting a contradiction to exercise the vacuity
    /// detector — not for normal verification runs.
    pub fn require(&mut self, fact: Formula) {
        self.model.fact(fact);
    }

    /// The scenario this model was built from.
    pub fn scenario(&self) -> &DynamicScenario {
        &self.scenario
    }

    /// The encoding used.
    pub fn encoding(&self) -> NumberEncoding {
        self.encoding
    }

    /// A stable 64-bit content hash of the generated model.
    ///
    /// Hashes the canonical Alloy source rendering
    /// ([`Model::to_alloy_source`]) with FNV-1a, so two models are equal
    /// under this hash exactly when their full textual descriptions
    /// (signatures, fields, facts, scopes) agree — the property the
    /// `mca-serve` content-addressed result cache keys on. Deterministic
    /// across runs, platforms, and thread counts.
    pub fn content_hash(&self) -> u64 {
        mca_relalg::fnv1a64(self.model.to_alloy_source().as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_scenarios_are_not_vacuous() {
        // Every shipped scenario's transition-system facts must be
        // satisfiable — otherwise the verdicts in the paper tables would
        // be vacuously "valid" and prove nothing.
        for (label, scenario) in [
            (
                "two_agent_compliant",
                DynamicScenario::two_agent_compliant(),
            ),
            (
                "two_agent_rebid_attack",
                DynamicScenario::two_agent_rebid_attack(),
            ),
            ("paper_scope_sound", DynamicScenario::paper_scope_sound()),
        ] {
            let dm = DynamicModel::build(NumberEncoding::OptimizedValue, scenario);
            let check = dm.check_consensus_opts(false, None).unwrap();
            assert!(!check.vacuous, "{label} reported a vacuous verdict");
        }
    }

    #[test]
    fn injected_contradiction_is_flagged_vacuous() {
        // Contradict the buffer field outright: `some buff` ∧ `no buff`.
        // The assertion then comes back "valid" — and `vacuous` must
        // expose that the verdict is meaningless.
        let mut dm = DynamicModel::build(
            NumberEncoding::OptimizedValue,
            DynamicScenario::two_agent_compliant(),
        );
        let buff = dm.model().field_expr(dm.buff);
        dm.require(buff.some());
        dm.require(buff.no());
        for preprocess in [false, true] {
            let check = dm.check_consensus_opts(preprocess, None).unwrap();
            assert!(check.valid, "an unsatisfiable premise validates anything");
            assert!(check.vacuous, "the vacuous flag must expose it");
        }
    }

    #[test]
    fn compliant_consensus_is_valid_optimized() {
        let dm = DynamicModel::build(
            NumberEncoding::OptimizedValue,
            DynamicScenario::two_agent_compliant(),
        );
        let out = dm.check_consensus().unwrap();
        assert!(
            out.result.is_valid(),
            "compliant max-consensus must be valid"
        );
    }

    #[test]
    fn compliant_consensus_is_valid_naive() {
        let dm = DynamicModel::build(
            NumberEncoding::NaiveInt,
            DynamicScenario::two_agent_compliant(),
        );
        let out = dm.check_consensus().unwrap();
        assert!(out.result.is_valid());
    }

    #[test]
    fn rebid_attack_yields_counterexample_optimized() {
        let dm = DynamicModel::build(
            NumberEncoding::OptimizedValue,
            DynamicScenario::two_agent_rebid_attack(),
        );
        let out = dm.check_consensus().unwrap();
        assert!(
            !out.result.is_valid(),
            "the rebidding attack must break consensus (Result 2)"
        );
        assert!(out.result.counterexample().is_some());
    }

    #[test]
    fn rebid_attack_yields_counterexample_naive() {
        let dm = DynamicModel::build(
            NumberEncoding::NaiveInt,
            DynamicScenario::two_agent_rebid_attack(),
        );
        let out = dm.check_consensus().unwrap();
        assert!(!out.result.is_valid());
    }

    #[test]
    fn encodings_agree_on_verdicts() {
        for scenario in [
            DynamicScenario::two_agent_compliant(),
            DynamicScenario::two_agent_rebid_attack(),
        ] {
            let naive = DynamicModel::build(NumberEncoding::NaiveInt, scenario.clone());
            let optimized = DynamicModel::build(NumberEncoding::OptimizedValue, scenario.clone());
            let vn = naive.check_consensus().unwrap().result.is_valid();
            let vo = optimized.check_consensus().unwrap().result.is_valid();
            assert_eq!(vn, vo, "encodings must agree");
        }
    }

    #[test]
    fn compliant_consensus_is_certified() {
        let dm = DynamicModel::build(
            NumberEncoding::OptimizedValue,
            DynamicScenario::two_agent_compliant(),
        );
        let out = dm.check_consensus_certified().unwrap();
        assert!(out.is_certified_valid(), "valid + DRAT-verified");
        let cert = out.certificate.expect("certificate on valid");
        assert!(cert.verified);
        assert!(cert.steps > 0);
    }

    #[test]
    fn attack_counterexample_is_not_certified_valid() {
        let dm = DynamicModel::build(
            NumberEncoding::OptimizedValue,
            DynamicScenario::two_agent_rebid_attack(),
        );
        let out = dm.check_consensus_certified().unwrap();
        assert!(!out.is_certified_valid());
        assert!(out.certificate.is_none());
        assert!(out.outcome.result.counterexample().is_some());
    }

    #[test]
    fn three_agents_line_consensus_valid() {
        let dm = DynamicModel::build(
            NumberEncoding::OptimizedValue,
            DynamicScenario::three_agent_line_compliant(),
        );
        assert!(dm.check_consensus().unwrap().result.is_valid());
    }

    #[test]
    fn paper_scope_sound_is_valid() {
        let dm = DynamicModel::build(
            NumberEncoding::OptimizedValue,
            DynamicScenario::paper_scope_sound(),
        );
        assert!(dm.check_consensus().unwrap().result.is_valid());
    }

    #[test]
    fn dynamic_model_exports_alloy_source() {
        for (enc, marker) in [
            (NumberEncoding::OptimizedValue, "cellWinner"),
            (NumberEncoding::NaiveInt, "winner"),
        ] {
            let dm = DynamicModel::build(enc, DynamicScenario::two_agent_compliant());
            let src = dm.model().to_alloy_source();
            for needle in ["netState", "buffMsgs", "message", marker, "run {}"] {
                assert!(src.contains(needle), "{enc}: missing {needle}");
            }
        }
    }

    #[test]
    fn at_scope_is_well_formed_and_sound_small() {
        let s = DynamicScenario::at_scope(2, 2);
        assert_eq!(s.scope_label(), "2x2");
        assert_eq!(s.states, 6);
        // Each item has a unique maximal bidder.
        for v in 0..s.vnodes {
            let max = (0..s.pnodes).map(|p| s.bids[p][v]).max().unwrap();
            assert_eq!(
                (0..s.pnodes).filter(|&p| s.bids[p][v] == max).count(),
                1,
                "item {v} needs a unique winner"
            );
        }
        let dm = DynamicModel::build(NumberEncoding::OptimizedValue, s);
        assert!(dm.check_consensus().unwrap().result.is_valid());
    }

    #[test]
    fn sweep_matches_fresh_checks() {
        let dm = DynamicModel::build(
            NumberEncoding::OptimizedValue,
            DynamicScenario::two_agent_compliant(),
        );
        for preprocess in [false, true] {
            let sweep = dm.convergence_sweep(preprocess, None).unwrap();
            assert_eq!(sweep.per_state.len(), dm.scenario().states);
            assert_eq!(sweep.simplify.is_some(), preprocess);
            for (k, &valid) in sweep.per_state.iter().enumerate() {
                let fresh = dm
                    .model()
                    .check(&dm.consensus_assertion_at(k))
                    .unwrap()
                    .result
                    .is_valid();
                assert_eq!(valid, fresh, "state {k} (preprocess = {preprocess})");
            }
            // Initial views differ, the trace is long enough to converge.
            assert!(!sweep.per_state[0]);
            assert!(*sweep.per_state.last().unwrap());
            let from = sweep.valid_from.expect("scenario converges");
            // Compliant max-consensus keeps agreement once reached.
            assert!(sweep.per_state[from..].iter().all(|&v| v));
        }
    }

    #[test]
    fn preprocessed_verdicts_match_on_all_scenarios() {
        // Every E3/E4 scenario, both refutable and valid: preprocessing
        // must not change the consensus verdict. (The non-certified path;
        // the proof-logged one is exercised separately below.)
        for scenario in [
            DynamicScenario::two_agent_compliant(),
            DynamicScenario::two_agent_rebid_attack(),
            DynamicScenario::paper_scope(),
            DynamicScenario::paper_scope_sound(),
            DynamicScenario::three_agent_line_compliant(),
        ] {
            let dm = DynamicModel::build(NumberEncoding::OptimizedValue, scenario);
            let plain = dm.check_consensus().unwrap().result.is_valid();
            let problem = dm.model().to_problem();
            let mut inc = problem
                .incremental_checker(&[dm.consensus_assertion()], true)
                .unwrap();
            assert_eq!(
                inc.check(0).is_valid(),
                plain,
                "{} (states = {})",
                dm.scenario().scope_label(),
                dm.scenario().states
            );
            assert!(inc.simplify_stats().is_some());
        }
    }

    #[test]
    fn preprocessed_consensus_certifies_end_to_end() {
        // The E8 acceptance bar: a preprocessed "valid" consensus verdict
        // whose DRAT proof (simplification steps + search steps) verifies
        // against the original translated CNF.
        let dm = DynamicModel::build(
            NumberEncoding::OptimizedValue,
            DynamicScenario::two_agent_compliant(),
        );
        let out = dm
            .model()
            .check_certified(&dm.consensus_assertion(), true)
            .unwrap();
        assert!(out.is_certified_valid());
        assert!(out.simplify.is_some());
        assert!(out.certificate.expect("valid").steps > 0);
    }

    #[test]
    #[should_panic(expected = "at least two states")]
    fn too_few_states_panics() {
        let mut s = DynamicScenario::two_agent_compliant();
        s.states = 1;
        DynamicModel::build(NumberEncoding::OptimizedValue, s);
    }
}
