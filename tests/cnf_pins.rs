//! Byte-identity pins for the relational translator.
//!
//! Each row is one check of the repository benchmark's deck (`perfbench`):
//! the FNV-1a hash of the DIMACS bytes of `consensus_cnf()` and the number
//! of gates in the circuit behind it. Gates are numbered in creation order
//! and CNF variables and clauses follow that numbering, so a translator
//! change that creates one gate more, one gate fewer, or the same gates in
//! another order moves a hash. A refactor that claims to leave the solver's
//! input untouched proves it here.

use mca_relalg::fnv1a64;
use mca_verify::{DynamicModel, DynamicScenario, NumberEncoding};

struct Pin {
    label: &'static str,
    encoding: NumberEncoding,
    scenario: fn() -> DynamicScenario,
    /// The `netState` count, when it differs from the scenario's own.
    states: Option<usize>,
    gates: usize,
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
        dimacs_fnv: 0x1511_add6_b085_e292,
        search: [19, 60, 8051, 0],
    },
    Pin {
        label: "naive/two_agent_rebid_attack@4",
        encoding: NAIVE,
        scenario: DynamicScenario::two_agent_rebid_attack,
        states: Some(4),
        gates: 2253,
        dimacs_fnv: 0x66c0_b2e4_d352_33f1,
        search: [36, 155, 13098, 0],
    },
    Pin {
        label: "naive/at_scope_2x2@3",
        encoding: NAIVE,
        scenario: at_scope_2x2,
        states: Some(3),
        gates: 1012,
        dimacs_fnv: 0xaf36_4f40_eb25_356e,
        search: [6, 7, 2428, 0],
    },
    Pin {
        label: "naive/at_scope_2x2@2",
        encoding: NAIVE,
        scenario: at_scope_2x2,
        states: Some(2),
        gates: 579,
        dimacs_fnv: 0xcea4_fc35_a60d_4e12,
        search: [0, 1, 643, 0],
    },
    Pin {
        label: "opt/paper_scope_sound@12",
        encoding: OPT,
        scenario: DynamicScenario::paper_scope_sound,
        states: None,
        gates: 24274,
        dimacs_fnv: 0x7cde_402c_de80_8147,
        search: [9358, 24810, 15911056, 39],
    },
    Pin {
        label: "opt/paper_scope@10",
        encoding: OPT,
        scenario: DynamicScenario::paper_scope,
        states: Some(10),
        gates: 19901,
        dimacs_fnv: 0xe11e_e7d5_fd6c_b0e7,
        search: [2333, 7559, 3658720, 13],
    },
    Pin {
        label: "cert/at_scope_3x2@8",
        encoding: OPT,
        scenario: at_scope_3x2,
        states: Some(8),
        gates: 8556,
        dimacs_fnv: 0x139e_6219_9c6e_d31e,
        search: [660, 1883, 851991, 5],
    },
    Pin {
        label: "cert/two_agent_compliant",
        encoding: OPT,
        scenario: DynamicScenario::two_agent_compliant,
        states: None,
        gates: 2527,
        dimacs_fnv: 0x1526_9486_f0fd_f6a1,
        search: [12, 61, 9996, 0],
    },
    Pin {
        label: "cert/two_agent_rebid_attack",
        encoding: OPT,
        scenario: DynamicScenario::two_agent_rebid_attack,
        states: None,
        gates: 2633,
        dimacs_fnv: 0x8967_7ac5_1d1c_df6c,
        search: [14, 62, 10079, 0],
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
        let mut dimacs = Vec::new();
        model
            .consensus_cnf()
            .expect("translates")
            .write_dimacs(&mut dimacs)
            .expect("in-memory write");
        let gates = model
            .model()
            .to_problem()
            .translate(&model.consensus_assertion().not())
            .expect("translates")
            .stats
            .circuit_gates;
        let fnv = fnv1a64(&dimacs);
        if (gates, fnv) != (pin.gates, pin.dimacs_fnv) {
            moved.push(format!(
                "{}: gates {gates} (pinned {}), dimacs {fnv:#018x} (pinned {:#018x})",
                pin.label, pin.gates, pin.dimacs_fnv
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
