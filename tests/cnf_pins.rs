//! Byte-identity pins for the relational translator.
//!
//! Each row is one check of the repository benchmark's deck (`perfbench`):
//! the FNV-1a hash of the DIMACS bytes of `consensus_cnf()`, its variable
//! and clause counts, and the number of gates in the circuit behind it.
//! Gates are numbered in creation order and CNF variables and clauses
//! follow that numbering, so a translator change that creates one gate
//! more, one gate fewer, or the same gates in another order moves a hash.
//! A change to the CNF emission alone moves the hash and the counts but
//! not `gates`. A refactor that claims to leave the solver's input
//! untouched proves it here.

use mca_relalg::fnv1a64;
use mca_verify::{DynamicModel, DynamicScenario, NumberEncoding};

struct Pin {
    label: &'static str,
    encoding: NumberEncoding,
    scenario: fn() -> DynamicScenario,
    /// The `netState` count, when it differs from the scenario's own.
    states: Option<usize>,
    gates: usize,
    cnf_vars: usize,
    cnf_clauses: usize,
    dimacs_fnv: u64,
    /// `conflicts`, `decisions`, `propagations`, `restarts` of a default
    /// solver on the CNF.
    search: [u64; 4],
}

const NAIVE: NumberEncoding = NumberEncoding::NaiveInt;
const OPT: NumberEncoding = NumberEncoding::OptimizedValue;

fn at_scope_2x2() -> DynamicScenario {
    DynamicScenario::at_scope(2, 2)
}

fn at_scope_3x2() -> DynamicScenario {
    DynamicScenario::at_scope(3, 2)
}

const PINS: &[Pin] = &[
    Pin {
        label: "naive/two_agent_compliant@4",
        encoding: NAIVE,
        scenario: DynamicScenario::two_agent_compliant,
        states: Some(4),
        gates: 2179,
        cnf_vars: 1372,
        cnf_clauses: 4576,
        dimacs_fnv: 0xab1e_c4cd_b89b_563b,
        search: [19, 197, 5220, 0],
    },
    Pin {
        label: "naive/two_agent_rebid_attack@4",
        encoding: NAIVE,
        scenario: DynamicScenario::two_agent_rebid_attack,
        states: Some(4),
        gates: 2253,
        cnf_vars: 1397,
        cnf_clauses: 4700,
        dimacs_fnv: 0x4f0c_517e_4720_2651,
        search: [21, 185, 5275, 0],
    },
    Pin {
        label: "naive/at_scope_2x2@3",
        encoding: NAIVE,
        scenario: at_scope_2x2,
        states: Some(3),
        gates: 1012,
        cnf_vars: 621,
        cnf_clauses: 2043,
        dimacs_fnv: 0x9285_661f_dec5_a8e4,
        search: [6, 6, 1404, 0],
    },
    Pin {
        label: "naive/at_scope_2x2@2",
        encoding: NAIVE,
        scenario: at_scope_2x2,
        states: Some(2),
        gates: 579,
        cnf_vars: 360,
        cnf_clauses: 1160,
        dimacs_fnv: 0xdd88_0469_876e_02d9,
        search: [0, 1, 360, 0],
    },
    Pin {
        label: "opt/paper_scope_sound@12",
        encoding: OPT,
        scenario: DynamicScenario::paper_scope_sound,
        states: None,
        gates: 24274,
        cnf_vars: 13837,
        cnf_clauses: 49645,
        dimacs_fnv: 0x45cd_6db5_4b7b_51d5,
        search: [9997, 27395, 10905053, 43],
    },
    Pin {
        label: "opt/paper_scope@10",
        encoding: OPT,
        scenario: DynamicScenario::paper_scope,
        states: Some(10),
        gates: 19901,
        cnf_vars: 11434,
        cnf_clauses: 40850,
        dimacs_fnv: 0x7da3_5b13_56da_138a,
        search: [1785, 6912, 1520397, 11],
    },
    Pin {
        label: "cert/at_scope_3x2@8",
        encoding: OPT,
        scenario: at_scope_3x2,
        states: Some(8),
        gates: 8556,
        cnf_vars: 5145,
        cnf_clauses: 17727,
        dimacs_fnv: 0xba88_be03_7f8f_301d,
        search: [483, 2185, 341874, 3],
    },
    Pin {
        label: "cert/two_agent_compliant",
        encoding: OPT,
        scenario: DynamicScenario::two_agent_compliant,
        states: None,
        gates: 2527,
        cnf_vars: 1512,
        cnf_clauses: 5132,
        dimacs_fnv: 0xe7b3_530f_85dc_2479,
        search: [14, 84, 5319, 0],
    },
    Pin {
        label: "cert/two_agent_rebid_attack",
        encoding: OPT,
        scenario: DynamicScenario::two_agent_rebid_attack,
        states: None,
        gates: 2633,
        cnf_vars: 1534,
        cnf_clauses: 5282,
        dimacs_fnv: 0x40b6_e7e1_c6ab_fd5d,
        search: [8, 82, 3357, 0],
    },
];

fn build(pin: &Pin) -> DynamicModel {
    let mut scenario = (pin.scenario)();
    if let Some(states) = pin.states {
        scenario.states = states;
    }
    DynamicModel::build(pin.encoding, scenario)
}

#[test]
fn deck_cnfs_are_byte_identical_to_their_pins() {
    let mut moved = Vec::new();
    for pin in PINS {
        let model = build(pin);
        let cnf = model.consensus_cnf().expect("translates");
        let mut dimacs = Vec::new();
        cnf.write_dimacs(&mut dimacs).expect("in-memory write");
        let gates = model
            .model()
            .to_problem()
            .translate(&model.consensus_assertion().not())
            .expect("translates")
            .stats
            .circuit_gates;
        let (vars, clauses) = (cnf.num_vars(), cnf.num_clauses());
        let fnv = fnv1a64(&dimacs);
        if (gates, vars, clauses, fnv) != (pin.gates, pin.cnf_vars, pin.cnf_clauses, pin.dimacs_fnv)
        {
            moved.push(format!(
                "{}: gates {gates} (pinned {}), vars {vars} (pinned {}), \
                 clauses {clauses} (pinned {}), dimacs {fnv:#018x} (pinned {:#018x})",
                pin.label, pin.gates, pin.cnf_vars, pin.cnf_clauses, pin.dimacs_fnv
            ));
        }
    }
    assert!(moved.is_empty(), "CNFs moved:\n{}", moved.join("\n"));
}

/// The same CNFs pin the CDCL search: a solver-internal change that claims
/// to leave the search untouched (clause layout, watch lists) proves it
/// here, one count at a time.
#[test]
fn deck_searches_match_their_pins() {
    let mut moved = Vec::new();
    for pin in PINS {
        let mut solver = build(pin).consensus_cnf().expect("translates").to_solver();
        let verdict = solver.solve();
        let stats = solver.stats();
        let search = [
            stats.conflicts,
            stats.decisions,
            stats.propagations,
            stats.restarts,
        ];
        if search != pin.search {
            moved.push(format!(
                "{}: {verdict:?}, conflicts/decisions/propagations/restarts {search:?} (pinned {:?})",
                pin.label, pin.search
            ));
        }
    }
    assert!(moved.is_empty(), "searches moved:\n{}", moved.join("\n"));
}
