//! `mca-bench` — the reproduction harness.
//!
//! The `repro` binary prints the paper-shaped tables for every evaluation
//! artifact (experiments E1–E8 of DESIGN.md) and writes the `BENCH_*.json`
//! files that `repro diff` gates:
//!
//! ```text
//! cargo run --release -p mca-bench --bin repro            # all experiments
//! cargo run --release -p mca-bench --bin repro -- e5
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use mca_sat::{CnfFormula, Lit, Var};

/// Generates a deterministic random k-SAT formula: `clauses` clauses of
/// `k` distinct variables each over `vars` variables, from `seed`.
pub fn random_ksat(vars: usize, clauses: usize, k: usize, seed: u64) -> CnfFormula {
    // A tiny deterministic xorshift so the bench crate needs no extra deps.
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut cnf = CnfFormula::new();
    cnf.new_vars(vars);
    for _ in 0..clauses {
        let mut lits: Vec<Lit> = Vec::with_capacity(k);
        while lits.len() < k {
            let v = (next() % vars as u64) as usize;
            if lits.iter().all(|l| l.var().index() != v) {
                lits.push(Lit::new(Var::from_index(v), next() & 1 == 1));
            }
        }
        cnf.add_clause(lits);
    }
    cnf
}

/// The outcome of one embedding attempt in a [`run_embedding_batch`]
/// sweep.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EmbedOutcome {
    /// The request seed.
    pub seed: u64,
    /// Whether the request embedded successfully.
    pub accepted: bool,
    /// Virtual nodes mapped (0 when rejected).
    pub mapped_nodes: usize,
}

/// Fans independent VN embedding requests (one per seed, each against a
/// fresh copy of a seeded random substrate) across the runtime's workers.
/// Results come back in seed order, so the sweep is deterministic for a
/// fixed seed list regardless of the worker count.
pub fn run_embedding_batch(
    rt: &mca_runtime::Runtime,
    substrate_nodes: usize,
    substrate_seed: u64,
    request_seeds: &[u64],
) -> Vec<EmbedOutcome> {
    use mca_vnmap::gen::{random_request, random_substrate, RequestSpec, SubstrateSpec};
    let jobs: Vec<(String, _)> = request_seeds
        .iter()
        .map(|&seed| {
            (
                format!("vnmap:seed{seed}"),
                move |_: &mca_sat::CancelToken| {
                    let substrate = random_substrate(
                        SubstrateSpec {
                            nodes: substrate_nodes,
                            link_probability: 0.3,
                            cpu: (80, 120),
                            bandwidth: (50, 100),
                        },
                        substrate_seed,
                    );
                    let request = random_request(
                        RequestSpec {
                            nodes: 4,
                            extra_link_probability: 0.2,
                            cpu: (10, 25),
                            bandwidth: (5, 15),
                        },
                        seed,
                    );
                    let result =
                        mca_vnmap::embed(&substrate, &request, mca_vnmap::EmbedConfig::default());
                    EmbedOutcome {
                        seed,
                        accepted: result.is_ok(),
                        mapped_nodes: result.map_or(0, |e| e.mapping.nodes.len()),
                    }
                },
            )
        })
        .collect();
    rt.run_batch(jobs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mca_sat::SolveResult;

    #[test]
    fn embedding_batch_is_thread_count_invariant() {
        let seeds = [1u64, 2, 3, 4, 5, 6];
        let a = run_embedding_batch(&mca_runtime::Runtime::new(1), 10, 7, &seeds);
        let b = run_embedding_batch(&mca_runtime::Runtime::new(4), 10, 7, &seeds);
        assert_eq!(a, b, "embedding outcomes must not depend on threads");
        assert_eq!(a.len(), seeds.len());
        assert!(a.iter().any(|o| o.accepted), "some request should embed");
    }

    #[test]
    fn random_ksat_is_deterministic_and_solvable() {
        let a = random_ksat(20, 60, 3, 42);
        let b = random_ksat(20, 60, 3, 42);
        assert_eq!(a, b);
        assert_eq!(a.num_clauses(), 60);
        let mut solver = a.to_solver();
        // Below the phase transition (ratio 3), should be satisfiable.
        assert_eq!(solver.solve(), SolveResult::Sat);
    }
}
