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
//!
//! The second table pins the *scoped* shape the same way: the facts
//! asserted and ¬consensus compiled to an unasserted goal literal
//! (`translate_goals`), as E8, the convergence sweep and lint build it.

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
        cnf_clauses: 2921,
        dimacs_fnv: 0x7c01_6e73_7671_82c2,
        search: [9, 141, 2902, 0],
    },
    Pin {
        label: "naive/two_agent_rebid_attack@4",
        encoding: NAIVE,
        scenario: DynamicScenario::two_agent_rebid_attack,
        states: Some(4),
        gates: 2253,
        cnf_vars: 1397,
        cnf_clauses: 3042,
        dimacs_fnv: 0xf146_fc3b_6a16_ccd1,
        search: [7, 407, 2153, 0],
    },
    Pin {
        label: "naive/at_scope_2x2@3",
        encoding: NAIVE,
        scenario: at_scope_2x2,
        states: Some(3),
        gates: 1012,
        cnf_vars: 621,
        cnf_clauses: 1145,
        dimacs_fnv: 0xa96a_df61_352a_8ba0,
        search: [5, 11, 1111, 0],
    },
    Pin {
        label: "naive/at_scope_2x2@2",
        encoding: NAIVE,
        scenario: at_scope_2x2,
        states: Some(2),
        gates: 579,
        cnf_vars: 360,
        cnf_clauses: 653,
        dimacs_fnv: 0xc03c_50c3_e34f_d6ea,
        search: [0, 60, 360, 0],
    },
    Pin {
        label: "opt/paper_scope_sound@12",
        encoding: OPT,
        scenario: DynamicScenario::paper_scope_sound,
        states: None,
        gates: 24274,
        cnf_vars: 13837,
        cnf_clauses: 30231,
        dimacs_fnv: 0x6ae4_008c_cb3b_b058,
        search: [10550, 36652, 7493271, 45],
    },
    Pin {
        label: "opt/paper_scope@10",
        encoding: OPT,
        scenario: DynamicScenario::paper_scope,
        states: Some(10),
        gates: 19901,
        cnf_vars: 11434,
        cnf_clauses: 24799,
        dimacs_fnv: 0x4c79_2a4c_c365_4ebc,
        search: [2270, 18084, 1458235, 13],
    },
    Pin {
        label: "cert/at_scope_3x2@8",
        encoding: OPT,
        scenario: at_scope_3x2,
        states: Some(8),
        gates: 8556,
        cnf_vars: 5145,
        cnf_clauses: 10671,
        dimacs_fnv: 0xc383_cc61_2153_dfce,
        search: [533, 2221, 313910, 4],
    },
    Pin {
        label: "cert/two_agent_compliant",
        encoding: OPT,
        scenario: DynamicScenario::two_agent_compliant,
        states: None,
        gates: 2527,
        cnf_vars: 1512,
        cnf_clauses: 2914,
        dimacs_fnv: 0xd2ce_aa54_6460_e88b,
        search: [10, 300, 3793, 0],
    },
    Pin {
        label: "cert/two_agent_rebid_attack",
        encoding: OPT,
        scenario: DynamicScenario::two_agent_rebid_attack,
        states: None,
        gates: 2633,
        cnf_vars: 1534,
        cnf_clauses: 3052,
        dimacs_fnv: 0xb690_bfb0_a676_4f87,
        search: [8, 482, 3373, 0],
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

/// One scoped-shape row: an E8 scope at its own state count.
struct ScopedPin {
    label: &'static str,
    encoding: NumberEncoding,
    scope: (usize, usize),
    gates: usize,
    cnf_vars: usize,
    cnf_clauses: usize,
    dimacs_fnv: u64,
    /// The ¬consensus goal literal, in DIMACS numbering.
    goal: i64,
    /// `check_consensus_opts` with preprocessing off, then on: `valid`,
    /// `vacuous` and `[conflicts, decisions, propagations, restarts]`.
    checks: [(bool, bool, [u64; 4]); 2],
}

const SCOPED_PINS: &[ScopedPin] = &[
    ScopedPin {
        label: "naive/at_scope_2x2",
        encoding: NAIVE,
        scope: (2, 2),
        gates: 2302,
        cnf_vars: 1412,
        cnf_clauses: 2676,
        dimacs_fnv: 0xf052_04b7_3056_c5a2,
        goal: -1412,
        checks: [
            (true, false, [20, 511, 9471, 0]),
            (true, false, [13, 566, 5522, 0]),
        ],
    },
    ScopedPin {
        label: "opt/at_scope_2x2",
        encoding: OPT,
        scope: (2, 2),
        gates: 2312,
        cnf_vars: 1460,
        cnf_clauses: 2820,
        dimacs_fnv: 0xda9a_b3cc_5913_0730,
        goal: -1460,
        checks: [
            (true, false, [28, 682, 7325, 0]),
            (true, false, [31, 659, 8770, 0]),
        ],
    },
    ScopedPin {
        label: "opt/at_scope_3x2",
        encoding: OPT,
        scope: (3, 2),
        gates: 10875,
        cnf_vars: 6541,
        cnf_clauses: 13764,
        dimacs_fnv: 0x2c39_313a_b6cd_cb09,
        goal: -6541,
        checks: [
            (true, false, [842, 7272, 559155, 6]),
            (true, false, [539, 6288, 392332, 4]),
        ],
    },
];

/// `conflicts_after` of the preprocessed convergence sweep at 2×2,
/// optimized encoding.
const SWEEP_2X2_CONFLICTS_AFTER: &[u64] = &[10, 10, 16, 18, 21, 23];

fn build_scoped(pin: &ScopedPin) -> DynamicModel {
    DynamicModel::build(
        pin.encoding,
        DynamicScenario::at_scope(pin.scope.0, pin.scope.1),
    )
}

#[test]
fn scoped_cnfs_are_byte_identical_to_their_pins() {
    let mut moved = Vec::new();
    for pin in SCOPED_PINS {
        let model = build_scoped(pin);
        let goal = model.consensus_assertion().not();
        let (translation, goals) = model
            .model()
            .to_problem()
            .translate_goals(&[goal])
            .expect("translates");
        let mut dimacs = Vec::new();
        translation
            .cnf
            .write_dimacs(&mut dimacs)
            .expect("in-memory write");
        let got = (
            translation.stats.circuit_gates,
            translation.stats.cnf_vars,
            translation.stats.cnf_clauses,
            fnv1a64(&dimacs),
            goals[0].to_dimacs(),
        );
        let pinned = (
            pin.gates,
            pin.cnf_vars,
            pin.cnf_clauses,
            pin.dimacs_fnv,
            pin.goal,
        );
        if got != pinned {
            moved.push(format!(
                "{}: (gates, vars, clauses, dimacs, goal) {got:?} (pinned {pinned:?})",
                pin.label
            ));
        }
    }
    assert!(moved.is_empty(), "scoped CNFs moved:\n{}", moved.join("\n"));
}

#[test]
fn scoped_checks_match_their_pins() {
    let mut moved = Vec::new();
    for pin in SCOPED_PINS {
        let model = build_scoped(pin);
        for (preprocess, pinned) in [false, true].into_iter().zip(&pin.checks) {
            let check = model
                .check_consensus_opts(preprocess, None)
                .expect("translates");
            let s = check.solver;
            let search = [s.conflicts, s.decisions, s.propagations, s.restarts];
            let got = (check.valid, check.vacuous, search);
            if got != *pinned {
                moved.push(format!(
                    "{} preprocess={preprocess}: (valid, vacuous, search) {got:?} \
                     (pinned {pinned:?})",
                    pin.label
                ));
            }
        }
    }
    assert!(
        moved.is_empty(),
        "scoped checks moved:\n{}",
        moved.join("\n")
    );
}

#[test]
fn scoped_sweep_matches_its_pin() {
    let sweep = DynamicModel::build(OPT, DynamicScenario::at_scope(2, 2))
        .convergence_sweep(true, None)
        .expect("translates");
    assert_eq!(sweep.conflicts_after, SWEEP_2X2_CONFLICTS_AFTER);
}
