//! Explicit-state bounded model checking of MCA executions.
//!
//! This is the executable counterpart of the paper's Alloy analysis: it
//! explores **every** asynchronous message-delivery ordering of a
//! configured network (up to a message bound and with sound state
//! de-duplication) and checks the paper's `consensus` assertion —
//!
//! ```text
//! assert consensus {
//!     (#(netState) >= val) implies consensusPred[]
//! }
//! ```
//!
//! — where `val` is derived from the `D · |V_H|` max-consensus bound. A
//! violation comes back as a counterexample [`Trace`], exactly the artifact
//! the Alloy Analyzer renders for the paper's Results 1 and 2.
//!
//! States are de-duplicated modulo Lamport-timestamp *renaming*: two states
//! whose stamps have the same relative order behave identically, so their
//! futures coincide. This keeps the search finite and small at the paper's
//! scopes even though clocks grow without bound.

use crate::sim::{conflict_free, consensus_predicate, Simulator};
use crate::types::Stamp;
use std::collections::{BTreeSet, HashMap, HashSet};

/// Verdict of an exhaustive bounded exploration.
#[derive(Clone, Debug)]
pub enum Verdict {
    /// Every execution quiesces in a conflict-free consensus state within
    /// the message bound.
    Converges {
        /// Distinct (normalized) states visited.
        states_explored: usize,
        /// The longest execution, in delivered messages.
        max_messages: usize,
        /// Number of distinct terminal states reached.
        terminal_states: usize,
    },
    /// Some execution quiesced *without* consensus (conflicting or
    /// inconsistent views with no messages left to fix them).
    NoConsensus {
        /// The violating execution.
        trace: Trace,
    },
    /// Some execution revisits a state — the protocol oscillates (the
    /// paper's "instability", Figure 2).
    Oscillation {
        /// The execution up to and including the repeated state.
        trace: Trace,
    },
    /// Some execution exceeded the message bound without quiescing — the
    /// paper's `consensus` assertion fails at `val`.
    BoundExceeded {
        /// The too-long execution.
        trace: Trace,
    },
    /// Exploration hit the state cap before finishing (inconclusive).
    ResourceLimit {
        /// Distinct states visited before giving up.
        states_explored: usize,
    },
}

impl Verdict {
    /// `true` only for [`Verdict::Converges`].
    pub fn converges(&self) -> bool {
        matches!(self, Verdict::Converges { .. })
    }

    /// The counterexample trace, if the verdict carries one.
    pub fn trace(&self) -> Option<&Trace> {
        match self {
            Verdict::NoConsensus { trace }
            | Verdict::Oscillation { trace }
            | Verdict::BoundExceeded { trace } => Some(trace),
            _ => None,
        }
    }
}

/// A counterexample: the sequence of message deliveries leading to the
/// violation, in human-readable form.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// One line per delivered message.
    pub steps: Vec<String>,
    /// Rendering of the violating state's agent views.
    pub final_state: String,
}

impl std::fmt::Display for Trace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, s) in self.steps.iter().enumerate() {
            writeln!(f, "  {:>3}. {s}", i + 1)?;
        }
        write!(f, "{}", self.final_state)
    }
}

/// Configuration of the bounded exploration.
#[derive(Clone, Copy, Debug)]
pub struct CheckerOptions {
    /// Maximum messages per execution (the assertion's `val`). `None`
    /// derives `slack × D × |items| × |agents|` from the network.
    pub message_bound: Option<usize>,
    /// Multiplier applied when deriving the bound (default 6).
    pub bound_slack: usize,
    /// Cap on distinct states explored before giving up.
    pub max_states: usize,
    /// Per-directed-link channel capacity handed to
    /// [`Simulator::set_channel_capacity`]. The default (`Some(2)`) lets an
    /// original bid message and one rebroadcast coexist on a link — enough
    /// for the crossing interleavings behind the paper's Figure-2
    /// oscillation — while a fresh broadcast supersedes older undelivered
    /// ones, keeping the search space finite; `None` explores unbounded
    /// channels.
    pub channel_capacity: Option<usize>,
}

impl Default for CheckerOptions {
    fn default() -> Self {
        CheckerOptions {
            message_bound: None,
            bound_slack: 6,
            max_states: 400_000,
            channel_capacity: Some(2),
        }
    }
}

/// Exhaustively checks the consensus assertion over all delivery orders.
///
/// `sim` must be freshly constructed (not yet run); the checker calls
/// [`Simulator::start`] itself. An observer attached to `sim` sees every
/// deliver/bid transition the exploration tries (clones share their
/// observer).
pub fn check_consensus(mut sim: Simulator, options: CheckerOptions) -> Verdict {
    let bound = options.message_bound.unwrap_or_else(|| {
        let d = sim.network().diameter().unwrap_or(sim.network().len());
        let items = sim.agents().first().map_or(0, |a| a.claims().len());
        (options.bound_slack * d.max(1) * items.max(1) * sim.network().len()).max(8)
    });
    sim.set_channel_capacity(options.channel_capacity);
    sim.start();
    let mut search = Search {
        visited: HashSet::new(),
        on_path: HashSet::new(),
        states_explored: 0,
        terminal_keys: BTreeSet::new(),
        max_messages: 0,
        bound,
        max_states: options.max_states,
    };
    let mut path = Vec::new();
    match search.dfs(&sim, 0, &mut path) {
        Some(v) => v,
        None => Verdict::Converges {
            states_explored: search.states_explored,
            max_messages: search.max_messages,
            terminal_states: search.terminal_keys.len(),
        },
    }
}

struct Search {
    /// States already fully explored. Visit-once is sound here: an
    /// execution that reaches the bound without consensus from its
    /// *first*-visit depth is already an assertion violation, so revisiting
    /// at a smaller depth can never change a verdict.
    visited: HashSet<Vec<i64>>,
    on_path: HashSet<Vec<i64>>,
    states_explored: usize,
    terminal_keys: BTreeSet<Vec<i64>>,
    max_messages: usize,
    bound: usize,
    max_states: usize,
}

impl Search {
    /// Returns `Some(verdict)` on violation, `None` if this subtree is
    /// violation-free.
    fn dfs(&mut self, sim: &Simulator, depth: usize, path: &mut Vec<String>) -> Option<Verdict> {
        let key = normalize(sim);
        if self.on_path.contains(&key) {
            return Some(Verdict::Oscillation {
                trace: trace_of(path, sim, "state repeats — the execution can loop forever"),
            });
        }
        if self.visited.contains(&key) {
            return None;
        }
        self.states_explored += 1;
        if self.states_explored > self.max_states {
            return Some(Verdict::ResourceLimit {
                states_explored: self.states_explored,
            });
        }
        self.max_messages = self.max_messages.max(depth);

        if sim.quiescent() {
            self.visited.insert(key.clone());
            return if consensus_predicate(sim.agents()) && conflict_free(sim.agents()) {
                self.terminal_keys.insert(key);
                None
            } else {
                Some(Verdict::NoConsensus {
                    trace: trace_of(path, sim, "quiescent state without consensus"),
                })
            };
        }
        if depth >= self.bound {
            return Some(Verdict::BoundExceeded {
                trace: trace_of(path, sim, "message bound exceeded without consensus"),
            });
        }

        self.on_path.insert(key.clone());
        let result = (|| {
            // Deliver transitions — distinct messages only (delivering one
            // of two equal messages is equivalent).
            let mut seen_msgs: HashSet<Vec<i64>> = HashSet::new();
            for idx in 0..sim.pending_messages() {
                let msg_key = message_key(sim, idx);
                if !seen_msgs.insert(msg_key) {
                    continue;
                }
                let mut next = sim.clone();
                let (from, to) = {
                    let m = next.inflight_message(idx);
                    (m.from, m.to)
                };
                let changed = next.deliver(idx);
                path.push(format!(
                    "deliver {from} -> {to}{}",
                    if changed { " (view changed)" } else { "" }
                ));
                let v = self.dfs(&next, depth + 1, path);
                path.pop();
                if v.is_some() {
                    return v;
                }
            }
            // Bid transitions: any agent whose bidding phase is enabled.
            for agent in sim.pending_bidders() {
                let mut next = sim.clone();
                next.bid(agent);
                path.push(format!("bidding phase at {agent}"));
                let v = self.dfs(&next, depth + 1, path);
                path.pop();
                if v.is_some() {
                    return v;
                }
            }
            None
        })();
        self.on_path.remove(&key);
        if result.is_none() {
            self.visited.insert(key);
        }
        result
    }
}

fn message_key(sim: &Simulator, idx: usize) -> Vec<i64> {
    let m = sim.inflight_message(idx);
    let mut k = vec![m.from.0 as i64, m.to.0 as i64];
    for c in &m.view {
        k.push(c.winner.map_or(-1, |w| w.0 as i64));
        k.push(c.bid);
        k.push(c.stamp.time as i64);
        k.push(c.stamp.by as i64);
    }
    k
}

/// Builds the timestamp-normalized state key.
fn normalize(sim: &Simulator) -> Vec<i64> {
    // Collect every logical time in the state and rank-compress it.
    let mut times: BTreeSet<u64> = BTreeSet::new();
    for a in sim.agents() {
        times.insert(a.clock());
        for c in a.claims() {
            times.insert(c.stamp.time);
        }
    }
    for i in 0..sim.pending_messages() {
        for c in &sim.inflight_message(i).view {
            times.insert(c.stamp.time);
        }
    }
    let rank: HashMap<u64, i64> = times
        .into_iter()
        .enumerate()
        .map(|(r, t)| (t, r as i64))
        .collect();
    let enc_stamp = |s: Stamp| -> (i64, i64) { (rank[&s.time], s.by as i64) };

    let mut key = Vec::new();
    for a in sim.agents() {
        key.push(rank[&a.clock()]);
        for c in a.claims() {
            key.push(c.winner.map_or(-1, |w| w.0 as i64));
            key.push(c.bid);
            let (t, by) = enc_stamp(c.stamp);
            key.push(t);
            key.push(by);
        }
        key.push(-2);
        for &b in a.bundle() {
            key.push(b.0 as i64);
        }
        key.push(-2);
        for j in 0..a.claims().len() {
            key.push(a.is_lost(crate::types::ItemId(j as u32)) as i64);
        }
        key.push(-3);
    }
    // In-flight multiset, canonically sorted.
    let mut msgs: Vec<Vec<i64>> = (0..sim.pending_messages())
        .map(|i| {
            let m = sim.inflight_message(i);
            let mut k = vec![m.from.0 as i64, m.to.0 as i64];
            for c in &m.view {
                k.push(c.winner.map_or(-1, |w| w.0 as i64));
                k.push(c.bid);
                let (t, by) = enc_stamp(c.stamp);
                k.push(t);
                k.push(by);
            }
            k
        })
        .collect();
    msgs.sort();
    for m in msgs {
        key.push(-4);
        key.extend(m);
    }
    key
}

fn trace_of(path: &[String], sim: &Simulator, reason: &str) -> Trace {
    let mut final_state = format!("  ({reason})\n");
    for a in sim.agents() {
        final_state.push_str(&format!("  {}:", a.id()));
        for (j, c) in a.claims().iter().enumerate() {
            final_state.push_str(&format!(" item{j}={c}"));
        }
        final_state.push_str(&format!(
            "  bundle={:?}\n",
            a.bundle().iter().map(|i| i.0).collect::<Vec<_>>()
        ));
    }
    Trace {
        steps: path.to_vec(),
        final_state,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Network;
    use crate::policy::{Policy, PositionUtility, RebidStrategy};
    use crate::types::ItemId;
    use std::sync::Arc;

    fn item(i: u32) -> ItemId {
        ItemId(i)
    }

    fn fig1_policies() -> Vec<Policy> {
        vec![
            Policy::new(
                Arc::new(PositionUtility::new(vec![
                    (item(0), vec![10]),
                    (item(2), vec![30]),
                ])),
                2,
            ),
            Policy::new(
                Arc::new(PositionUtility::new(vec![
                    (item(0), vec![20]),
                    (item(1), vec![15]),
                ])),
                2,
            ),
        ]
    }

    #[test]
    fn fig1_converges_under_all_orderings() {
        let sim = Simulator::new(Network::complete(2), 3, fig1_policies());
        let verdict = check_consensus(sim, CheckerOptions::default());
        assert!(verdict.converges(), "verdict: {verdict:?}");
    }

    #[test]
    fn rebid_attack_is_detected() {
        // Both agents misconfigured to rebid (Remark 1 removed): bid war.
        let policies: Vec<Policy> = (0..2)
            .map(|_| {
                Policy::new(Arc::new(PositionUtility::new(vec![(item(0), vec![10])])), 1)
                    .with_rebid(RebidStrategy::Rebid)
            })
            .collect();
        let sim = Simulator::new(Network::complete(2), 1, policies);
        let verdict = check_consensus(sim, CheckerOptions::default());
        assert!(!verdict.converges(), "rebid attack must break consensus");
        assert!(verdict.trace().is_some());
    }

    #[test]
    fn bound_exceeded_reports_trace() {
        let policies: Vec<Policy> = (0..2)
            .map(|_| {
                Policy::new(Arc::new(PositionUtility::new(vec![(item(0), vec![10])])), 1)
                    .with_rebid(RebidStrategy::Rebid)
            })
            .collect();
        let sim = Simulator::new(Network::complete(2), 1, policies);
        let verdict = check_consensus(
            sim,
            CheckerOptions {
                message_bound: Some(6),
                ..CheckerOptions::default()
            },
        );
        match verdict {
            Verdict::BoundExceeded { trace } | Verdict::Oscillation { trace } => {
                assert!(!trace.steps.is_empty());
                assert!(trace.to_string().contains("deliver"));
            }
            other => panic!("expected a violation, got {other:?}"),
        }
    }

    #[test]
    fn single_agent_trivially_converges() {
        let policies = vec![Policy::new(
            Arc::new(PositionUtility::new(vec![(item(0), vec![5])])),
            1,
        )];
        let sim = Simulator::new(Network::new(1), 1, policies);
        let verdict = check_consensus(sim, CheckerOptions::default());
        assert!(verdict.converges());
    }

    #[test]
    fn three_agents_line_converges() {
        let policies: Vec<Policy> = (0..3)
            .map(|i| {
                Policy::new(
                    Arc::new(PositionUtility::new(vec![
                        (item(0), vec![10 + i]),
                        (item(1), vec![20 - i]),
                    ])),
                    2,
                )
            })
            .collect();
        let sim = Simulator::new(Network::line(3), 2, policies);
        let verdict = check_consensus(sim, CheckerOptions::default());
        assert!(verdict.converges(), "verdict: {verdict:?}");
    }
}
