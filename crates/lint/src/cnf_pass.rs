//! CNF-layer lint pass (`C001`–`C005`): inspects an emitted
//! [`CnfFormula`] for degenerate structure the translator should not
//! produce — unused variables, pure literals, duplicate and tautological
//! clauses, and a disconnected variable-incidence graph.
//!
//! Findings that can hit thousands of variables at once (`C001`, `C002`)
//! are aggregated into a single diagnostic each, so a report stays
//! readable at E8 scopes.

use crate::diag::{Diagnostic, Layer, Severity};
use mca_sat::{CnfFormula, Lit};
use std::collections::{BTreeMap, HashSet};

/// How many example variables an aggregated finding names explicitly.
const EXAMPLE_LIMIT: usize = 8;

/// Runs the CNF-layer rules. `attr` optionally maps a variable index to
/// the name of the relation whose tuple it encodes (primary variables
/// only); attributed findings name the relations instead of raw indices.
pub fn run(cnf: &CnfFormula, attr: Option<&BTreeMap<usize, String>>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let n = cnf.num_vars();

    let mut pos = vec![0usize; n];
    let mut neg = vec![0usize; n];
    let mut uf = UnionFind::new(n);
    let mut normalized: HashSet<Vec<Lit>> = HashSet::new();
    let mut duplicates = 0usize;
    let mut tautologies = 0usize;

    for clause in cnf.clauses() {
        for &lit in clause {
            if lit.is_positive() {
                pos[lit.var().index()] += 1;
            } else {
                neg[lit.var().index()] += 1;
            }
        }
        for pair in clause.windows(2) {
            uf.union(pair[0].var().index(), pair[1].var().index());
        }
        let mut norm: Vec<Lit> = clause.to_vec();
        norm.sort_unstable();
        norm.dedup();
        if norm.windows(2).any(|w| w[0] == !w[1]) {
            tautologies += 1;
        } else if !normalized.insert(norm) {
            duplicates += 1;
        }
    }

    // C001: declared variables that never occur.
    let unused: Vec<usize> = (0..n).filter(|&v| pos[v] + neg[v] == 0).collect();
    if !unused.is_empty() {
        out.push(Diagnostic {
            rule: "C001",
            severity: Severity::Warning,
            layer: Layer::Cnf,
            location: format!("{} of {} variables", unused.len(), n),
            message: format!(
                "variables never occur in any clause{}",
                describe_vars(&unused, attr)
            ),
            suggestion: "their relation tuples are unconstrained; check for dead relations".into(),
        });
    }

    // C002: pure literals — variables used in exactly one polarity.
    let pure: Vec<usize> = (0..n).filter(|&v| (pos[v] == 0) != (neg[v] == 0)).collect();
    if !pure.is_empty() {
        out.push(Diagnostic {
            rule: "C002",
            severity: Severity::Info,
            layer: Layer::Cnf,
            location: format!("{} of {} variables", pure.len(), n),
            message: format!(
                "pure literals (single-polarity variables){}",
                describe_vars(&pure, attr)
            ),
            suggestion: "pure literals are satisfiable for free; a preprocessor can eliminate them"
                .into(),
        });
    }

    if duplicates > 0 {
        out.push(Diagnostic {
            rule: "C003",
            severity: Severity::Warning,
            layer: Layer::Cnf,
            location: format!("{duplicates} of {} clauses", cnf.num_clauses()),
            message: "duplicate clauses in the emitted CNF".into(),
            suggestion: "enable clause deduplication at emission time".into(),
        });
    }
    if tautologies > 0 {
        out.push(Diagnostic {
            rule: "C004",
            severity: Severity::Warning,
            layer: Layer::Cnf,
            location: format!("{tautologies} of {} clauses", cnf.num_clauses()),
            message: "tautological clauses (a literal and its negation)".into(),
            suggestion: "tautologies constrain nothing; drop them at emission time".into(),
        });
    }

    // C005: connected components of the variable-incidence graph, over
    // variables that occur at all.
    let mut component_sizes: BTreeMap<usize, usize> = BTreeMap::new();
    for v in 0..n {
        if pos[v] + neg[v] > 0 {
            *component_sizes.entry(uf.find(v)).or_insert(0) += 1;
        }
    }
    if component_sizes.len() > 1 {
        let largest = component_sizes.values().copied().max().unwrap_or(0);
        out.push(Diagnostic {
            rule: "C005",
            severity: Severity::Info,
            layer: Layer::Cnf,
            location: format!("{} components", component_sizes.len()),
            message: format!(
                "the variable-incidence graph splits into {} independently solvable blocks \
                 (largest: {largest} variables)",
                component_sizes.len()
            ),
            suggestion: "the blocks share no variables; they could be solved separately".into(),
        });
    }

    out
}

/// Names up to [`EXAMPLE_LIMIT`] variables, grouped per relation when an
/// attribution map is available.
fn describe_vars(vars: &[usize], attr: Option<&BTreeMap<usize, String>>) -> String {
    if let Some(attr) = attr {
        let mut per_relation: BTreeMap<&str, usize> = BTreeMap::new();
        let mut unattributed = 0usize;
        for &v in vars {
            match attr.get(&v) {
                Some(name) => *per_relation.entry(name.as_str()).or_insert(0) += 1,
                None => unattributed += 1,
            }
        }
        if !per_relation.is_empty() {
            let mut parts: Vec<String> = per_relation
                .iter()
                .map(|(name, count)| format!("`{name}`: {count}"))
                .collect();
            if unattributed > 0 {
                parts.push(format!("auxiliary: {unattributed}"));
            }
            return format!(" ({})", parts.join(", "));
        }
    }
    let examples: Vec<String> = vars
        .iter()
        .take(EXAMPLE_LIMIT)
        .map(|v| format!("v{v}"))
        .collect();
    let ellipsis = if vars.len() > EXAMPLE_LIMIT {
        ", …"
    } else {
        ""
    };
    format!(" ({}{ellipsis})", examples.join(", "))
}

/// Union-find with path halving, for the incidence-graph components.
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> UnionFind {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut v: usize) -> usize {
        while self.parent[v] != v {
            self.parent[v] = self.parent[self.parent[v]];
            v = self.parent[v];
        }
        v
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules(diags: &[Diagnostic]) -> Vec<&'static str> {
        let mut r: Vec<&'static str> = diags.iter().map(|d| d.rule).collect();
        r.sort_unstable();
        r
    }

    #[test]
    fn clean_cnf_has_no_findings() {
        let mut cnf = CnfFormula::new();
        let vs = cnf.new_vars(3);
        cnf.add_clause([vs[0].positive(), vs[1].negative()]);
        cnf.add_clause([vs[1].positive(), vs[2].negative()]);
        cnf.add_clause([vs[2].positive(), vs[0].negative()]);
        assert!(run(&cnf, None).is_empty());
    }

    #[test]
    fn unused_and_pure_variables_are_aggregated() {
        let mut cnf = CnfFormula::new();
        let vs = cnf.new_vars(4);
        // v0 both polarities; v1 pure positive; v2 pure negative; v3 unused.
        cnf.add_clause([vs[0].positive(), vs[1].positive()]);
        cnf.add_clause([vs[0].negative(), vs[2].negative()]);
        let diags = run(&cnf, None);
        assert_eq!(rules(&diags), vec!["C001", "C002"]);
        let c001 = diags.iter().find(|d| d.rule == "C001").unwrap();
        assert_eq!(c001.location, "1 of 4 variables");
        assert!(c001.message.contains("v3"), "{}", c001.message);
        let c002 = diags.iter().find(|d| d.rule == "C002").unwrap();
        assert_eq!(c002.location, "2 of 4 variables");
    }

    #[test]
    fn attribution_groups_findings_per_relation() {
        let mut cnf = CnfFormula::new();
        let vs = cnf.new_vars(3);
        cnf.add_clause([vs[0].positive(), vs[0].negative()]); // tautology
        let attr: BTreeMap<usize, String> = [(1, "ghost".to_string()), (2, "ghost".to_string())]
            .into_iter()
            .collect();
        let diags = run(&cnf, Some(&attr));
        let c001 = diags.iter().find(|d| d.rule == "C001").unwrap();
        assert!(c001.message.contains("`ghost`: 2"), "{}", c001.message);
        assert!(diags.iter().any(|d| d.rule == "C004"));
    }

    #[test]
    fn duplicates_and_tautologies_are_counted_separately() {
        let mut cnf = CnfFormula::new();
        let vs = cnf.new_vars(2);
        cnf.add_clause([vs[0].positive(), vs[1].positive()]);
        cnf.add_clause([vs[1].positive(), vs[0].positive()]); // duplicate modulo order
        cnf.add_clause([vs[0].positive(), vs[0].negative()]); // tautology
        let diags = run(&cnf, None);
        let c003 = diags.iter().find(|d| d.rule == "C003").unwrap();
        assert_eq!(c003.location, "1 of 3 clauses");
        let c004 = diags.iter().find(|d| d.rule == "C004").unwrap();
        assert_eq!(c004.location, "1 of 3 clauses");
    }

    #[test]
    fn disconnected_blocks_are_reported() {
        let mut cnf = CnfFormula::new();
        let vs = cnf.new_vars(4);
        cnf.add_clause([vs[0].positive(), vs[1].positive()]);
        cnf.add_clause([vs[0].negative(), vs[1].negative()]);
        cnf.add_clause([vs[2].positive(), vs[3].positive()]);
        cnf.add_clause([vs[2].negative(), vs[3].negative()]);
        let diags = run(&cnf, None);
        assert_eq!(rules(&diags), vec!["C005"]);
        assert!(diags[0].message.contains("2 independently solvable blocks"));
    }

    #[test]
    fn unit_clauses_do_not_split_components_spuriously() {
        let mut cnf = CnfFormula::new();
        let vs = cnf.new_vars(2);
        cnf.add_clause([vs[0].positive(), vs[1].positive()]);
        cnf.add_clause([vs[1].positive()]);
        let diags = run(&cnf, None);
        // v1's pure-positive status is the only finding; one component.
        assert_eq!(rules(&diags), vec!["C002"]);
    }
}
