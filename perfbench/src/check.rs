//! Check workloads: one deck item through the public entry point
//! (end-to-end runs) or through the layer primitives under spans
//! (traced runs), and the output checks both must pass.

use std::time::Instant;

use mca_obs::{CollectSink, Event, Handle, SpanRecorder};
use mca_relalg::{Check, Evaluator, Instance, Problem, TupleSet};
use mca_sat::{SolveResult, Solver};
use mca_verify::DynamicModel;

use crate::deck::{DeckItem, Entry, Expected};

/// What a check produced, reduced to what the output checks read.
pub struct Verdict {
    /// The consensus assertion holds.
    pub valid: bool,
    /// The UNSAT answer carries a DRAT proof the checker accepted.
    pub certified: bool,
    /// CDCL conflicts of the solve.
    pub conflicts: u64,
    /// The refuting instance, when the assertion failed.
    pub counterexample: Option<Instance>,
}

impl Verdict {
    fn from_check(result: Check, certified: bool, conflicts: u64) -> Verdict {
        Verdict {
            valid: result.is_valid(),
            certified,
            conflicts,
            counterexample: match result {
                Check::Valid => None,
                Check::Counterexample(instance) => Some(instance),
            },
        }
    }
}

/// Runs `item` through its public entry point: `DynamicModel::build`,
/// then `check_consensus()` or `check_consensus_certified()`. Returns the
/// verdict, the built model (for the output checks), and the seconds
/// from build start to verdict.
pub fn run_entry(item: &DeckItem) -> Result<(Verdict, DynamicModel, f64), String> {
    let start = Instant::now();
    let model = DynamicModel::build(item.answer.encoding, item.scenario.clone());
    let verdict = match item.answer.entry {
        Entry::Plain => {
            let out = model.check_consensus().map_err(|e| format!("{e:?}"))?;
            Verdict::from_check(out.result, false, out.solver_stats.conflicts)
        }
        Entry::Certified => {
            let out = model
                .check_consensus_certified()
                .map_err(|e| format!("{e:?}"))?;
            let certified = out.is_certified_valid();
            Verdict::from_check(
                out.outcome.result,
                certified,
                out.outcome.solver_stats.conflicts,
            )
        }
    };
    let secs = start.elapsed().as_secs_f64();
    Ok((verdict, model, secs))
}

/// The output checks: the verdict matches the known answer; a valid
/// certified answer is DRAT-verified; a counterexample satisfies every
/// fact and violates the assertion under the ground evaluator.
pub fn verify(item: &DeckItem, model: &DynamicModel, verdict: &Verdict) -> Result<(), String> {
    let label = item.answer.label;
    match (item.answer.expected, &verdict.counterexample) {
        (Expected::Valid, None) => {
            if item.answer.entry == Entry::Certified && !verdict.certified {
                return Err(format!("{label}: valid verdict is not DRAT-verified"));
            }
            Ok(())
        }
        (Expected::Counterexample, Some(instance)) => {
            let problem = model.model().to_problem();
            let mut ev = Evaluator::new(problem.universe(), instance);
            for fact in problem.facts() {
                if !ev.formula(fact).map_err(|e| format!("{label}: {e:?}"))? {
                    return Err(format!("{label}: counterexample violates a fact"));
                }
            }
            let assertion = model.consensus_assertion();
            if ev
                .formula(&assertion)
                .map_err(|e| format!("{label}: {e:?}"))?
            {
                return Err(format!("{label}: counterexample satisfies the assertion"));
            }
            Ok(())
        }
        (Expected::Valid, Some(_)) => Err(format!("{label}: expected valid, got a counterexample")),
        (Expected::Counterexample, None) => {
            Err(format!("{label}: expected a counterexample, got valid"))
        }
    }
}

/// The span around a whole traced item; its self time is `other`.
pub const ITEM_SPAN: &str = "check";

/// A closed span: name, seconds, and the fields attached at exit.
pub type ClosedSpan = (String, f64, Vec<(String, u64)>);

/// A span recorder collecting into memory, read back after each item.
pub struct Tracer {
    handle: Handle<CollectSink>,
    /// The recorder the benchmark opens its spans on.
    pub spans: SpanRecorder,
}

impl Tracer {
    /// An empty in-memory trace.
    pub fn new() -> Tracer {
        let handle = Handle::new(CollectSink::default());
        let spans = SpanRecorder::new(handle.observer());
        Tracer { handle, spans }
    }

    /// Drains the recorded events into closed spans: `(name, seconds,
    /// fields)`, in close order.
    pub fn drain(&self) -> Vec<ClosedSpan> {
        let events = self.handle.with(|s| std::mem::take(&mut s.events));
        let mut open: Vec<(u64, String, u64)> = Vec::new();
        let mut closed = Vec::new();
        for event in events {
            match event {
                Event::SpanEnter { id, name, t_ns, .. } => open.push((id, name, t_ns)),
                Event::SpanExit { id, t_ns, fields } => {
                    if let Some(pos) = open.iter().position(|(o, _, _)| *o == id) {
                        let (_, name, start) = open.remove(pos);
                        closed.push((name, t_ns.saturating_sub(start) as f64 * 1e-9, fields));
                    }
                }
                _ => {}
            }
        }
        closed
    }
}

/// Runs `item` through the layer primitives — `Model::to_problem`,
/// `Problem::translate`, solver load, `Solver::solve`, and for certified
/// items `enable_proof` / `take_proof` / `check_drat` — each under its
/// own span, the whole item under [`ITEM_SPAN`]. The sequence is the
/// one the entry points run, so verdict and conflicts are identical.
pub fn run_traced(item: &DeckItem, tracer: &Tracer) -> Result<(Verdict, DynamicModel), String> {
    let rec = &tracer.spans;
    let _item_span = rec.enter(ITEM_SPAN);
    let model = {
        let _s = rec.enter("verify.build");
        DynamicModel::build(item.answer.encoding, item.scenario.clone())
    };
    let goal = model.consensus_assertion().not();
    let problem = {
        let _s = rec.enter("alloy.to_problem");
        model.model().to_problem()
    };
    let translation = {
        let mut s = rec.enter("relalg.translate");
        let t = problem.translate(&goal).map_err(|e| format!("{e:?}"))?;
        s.field("primary_vars", t.stats.primary_vars as u64);
        s.field("gates", t.stats.circuit_gates as u64);
        s.field("cnf_vars", t.stats.cnf_vars as u64);
        s.field("cnf_clauses", t.stats.cnf_clauses as u64);
        t
    };
    let certify = item.answer.entry == Entry::Certified;
    let mut solver = {
        let _s = rec.enter("sat.load");
        if certify {
            let mut solver = Solver::new();
            solver.enable_proof();
            solver.new_vars(translation.cnf.num_vars());
            for c in translation.cnf.clauses() {
                solver.add_clause(c.iter().copied());
            }
            solver
        } else {
            translation.cnf.to_solver()
        }
    };
    let result = {
        let mut s = rec.enter("sat.solve");
        let result = solver.solve();
        let stats = solver.stats();
        s.field("conflicts", stats.conflicts);
        s.field("decisions", stats.decisions);
        s.field("propagations", stats.propagations);
        s.field("restarts", stats.restarts);
        result
    };
    let conflicts = solver.stats().conflicts;
    let verdict = match result {
        SolveResult::Sat => {
            let model_bits = solver.model().ok_or("no model after SAT")?;
            let instance = decode(&problem, &translation, &model_bits);
            Verdict::from_check(Check::Counterexample(instance), false, conflicts)
        }
        SolveResult::Unsat if certify => {
            let mut s = rec.enter("sat.drat_check");
            let proof = solver.take_proof().ok_or("proof logging was enabled")?;
            let verified = mca_sat::check_drat(&translation.cnf, &proof).is_ok();
            s.field("proof_steps", proof.len() as u64);
            Verdict::from_check(Check::Valid, verified, conflicts)
        }
        SolveResult::Unsat => Verdict::from_check(Check::Valid, false, conflicts),
    };
    Ok((verdict, model))
}

/// Reads a counterexample off a SAT model: every relation at its lower
/// bound plus the tuples whose primary variables are true.
fn decode(
    problem: &Problem,
    translation: &mca_relalg::Translation,
    bits: &mca_sat::Model,
) -> Instance {
    let mut tuples: Vec<TupleSet> = problem
        .relation_ids()
        .map(|r| problem.relation(r).lower().clone())
        .collect();
    for (var, (rel, tuple)) in translation
        .input_vars()
        .iter()
        .zip(translation.input_tuples())
    {
        if bits.value(*var) {
            tuples[rel.index()].insert(tuple.clone());
        }
    }
    problem.instance_from_tuples(tuples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deck::{item, KNOWN_ANSWERS};

    /// The traced decomposition reproduces the entry point's verdict and
    /// conflict count, and records every layer it passes through.
    #[test]
    fn traced_run_matches_the_entry_point() {
        let tracer = Tracer::new();
        for label in ["cert/two_agent_compliant", "cert/two_agent_rebid_attack"] {
            let answer = KNOWN_ANSWERS
                .iter()
                .find(|(_, a)| a.label == label)
                .expect("known item")
                .1;
            let item = item(answer);
            let (plain, _, _) = run_entry(&item).expect("entry point");
            let (traced, model) = run_traced(&item, &tracer).expect("traced");
            assert_eq!(
                (plain.valid, plain.conflicts, plain.certified),
                (traced.valid, traced.conflicts, traced.certified)
            );
            verify(&item, &model, &traced).expect("traced output checks");
            let names: Vec<String> = tracer.drain().into_iter().map(|(n, _, _)| n).collect();
            assert_eq!(names.last().map(String::as_str), Some(ITEM_SPAN));
            for layer in ["verify.build", "relalg.translate", "sat.solve"] {
                assert!(names.iter().any(|n| n == layer), "{label}: no {layer} span");
            }
            assert_eq!(
                names.iter().any(|n| n == "sat.drat_check"),
                traced.valid,
                "{label}: DRAT runs exactly on valid certified items"
            );
        }
    }
}
