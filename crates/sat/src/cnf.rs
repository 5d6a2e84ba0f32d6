//! A standalone CNF formula container with DIMACS I/O.
//!
//! [`CnfFormula`] decouples formula construction from solving: translators
//! (such as `mca-relalg`) build a formula, inspect its size statistics, dump
//! it to DIMACS for external tools, and finally load it into a
//! [`Solver`](crate::Solver) with [`Solver::add_cnf`].
//!
//! The clauses live in one flat literal vector, clause after clause, with
//! one offset per clause boundary. Adding a clause appends to that vector,
//! and [`CnfFormula::clauses`] lends out slices of it, so building,
//! reading and dropping a formula allocate nothing per clause.

use crate::lit::{Lit, Var};
use crate::solver::Solver;
use std::fmt;
use std::io::{self, BufRead, Write};

/// A formula in conjunctive normal form.
///
/// # Examples
///
/// ```
/// use mca_sat::{CnfFormula, SolveResult};
///
/// let mut cnf = CnfFormula::new();
/// let a = cnf.new_var().positive();
/// let b = cnf.new_var().positive();
/// cnf.add_clause([a, b]);
/// cnf.add_clause([!a, b]);
/// let mut solver = cnf.to_solver();
/// assert_eq!(solver.solve(), SolveResult::Sat);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CnfFormula {
    num_vars: usize,
    /// Every clause's literals, clause after clause.
    lits: Vec<Lit>,
    /// Clause `i` is `lits[bounds[i]..bounds[i + 1]]`; `bounds[0]` is 0.
    bounds: Vec<usize>,
}

impl Default for CnfFormula {
    fn default() -> CnfFormula {
        CnfFormula {
            num_vars: 0,
            lits: Vec::new(),
            bounds: vec![0],
        }
    }
}

impl CnfFormula {
    /// Creates an empty formula.
    pub fn new() -> CnfFormula {
        CnfFormula::default()
    }

    /// Creates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var::from_index(self.num_vars);
        self.num_vars += 1;
        v
    }

    /// Creates `n` fresh variables.
    pub fn new_vars(&mut self, n: usize) -> Vec<Var> {
        (0..n).map(|_| self.new_var()).collect()
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of clauses.
    pub fn num_clauses(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Total number of literal occurrences across all clauses.
    pub fn num_literals(&self) -> usize {
        self.lits.len()
    }

    /// Adds a clause. Variables mentioned by the clause are registered
    /// automatically if they exceed the current variable count.
    pub fn add_clause<I>(&mut self, lits: I)
    where
        I: IntoIterator<Item = Lit>,
    {
        for l in lits {
            self.num_vars = self.num_vars.max(l.var().index() + 1);
            self.lits.push(l);
        }
        self.bounds.push(self.lits.len());
    }

    /// Clause `i`, in the order the clauses were added.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.num_clauses()`.
    pub fn clause(&self, i: usize) -> &[Lit] {
        &self.lits[self.bounds[i]..self.bounds[i + 1]]
    }

    /// The clauses of this formula, in the order they were added.
    pub fn clauses(&self) -> impl ExactSizeIterator<Item = &[Lit]> + DoubleEndedIterator + Clone {
        self.bounds.windows(2).map(|w| &self.lits[w[0]..w[1]])
    }

    /// Builds a fresh [`Solver`] loaded with this formula
    /// ([`Solver::add_cnf`]).
    pub fn to_solver(&self) -> Solver {
        let mut s = Solver::new();
        s.add_cnf(self);
        s
    }

    /// Writes the formula in DIMACS CNF format.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_dimacs<W: Write>(&self, mut w: W) -> io::Result<()> {
        writeln!(w, "p cnf {} {}", self.num_vars, self.num_clauses())?;
        for c in self.clauses() {
            for l in c {
                write!(w, "{} ", l.to_dimacs())?;
            }
            writeln!(w, "0")?;
        }
        Ok(())
    }

    /// Parses a formula from DIMACS CNF format.
    ///
    /// Comment lines (`c …`) and the problem line (`p cnf …`) are handled;
    /// clauses may span lines and are terminated by `0`.
    ///
    /// # Errors
    ///
    /// Returns [`DimacsError`] on malformed input or I/O failure.
    pub fn parse_dimacs<R: BufRead>(reader: R) -> Result<CnfFormula, DimacsError> {
        let mut cnf = CnfFormula::new();
        let mut declared_vars: Option<usize> = None;
        let mut current: Vec<Lit> = Vec::new();
        for (line_no, line) in reader.lines().enumerate() {
            let line = line.map_err(DimacsError::Io)?;
            let line = line.trim();
            if line.is_empty() || line.starts_with('c') {
                continue;
            }
            if let Some(rest) = line.strip_prefix('p') {
                let mut parts = rest.split_whitespace();
                if parts.next() != Some("cnf") {
                    return Err(DimacsError::Malformed {
                        line: line_no + 1,
                        message: "problem line must be `p cnf <vars> <clauses>`".into(),
                    });
                }
                let vars = parts
                    .next()
                    .and_then(|t| t.parse::<usize>().ok())
                    .ok_or_else(|| DimacsError::Malformed {
                        line: line_no + 1,
                        message: "missing variable count".into(),
                    })?;
                declared_vars = Some(vars);
                continue;
            }
            for tok in line.split_whitespace() {
                let n: i64 = tok.parse().map_err(|_| DimacsError::Malformed {
                    line: line_no + 1,
                    message: format!("invalid literal `{tok}`"),
                })?;
                match Lit::from_dimacs(n) {
                    Some(l) => current.push(l),
                    None => {
                        cnf.add_clause(current.drain(..));
                    }
                }
            }
        }
        if !current.is_empty() {
            cnf.add_clause(current.drain(..));
        }
        if let Some(v) = declared_vars {
            if v > cnf.num_vars {
                cnf.num_vars = v;
            }
        }
        Ok(cnf)
    }
}

/// Error produced by [`CnfFormula::parse_dimacs`].
#[derive(Debug)]
pub enum DimacsError {
    /// Underlying reader failed.
    Io(io::Error),
    /// The input violated the DIMACS grammar.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// Human-readable description.
        message: String,
    },
}

impl fmt::Display for DimacsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DimacsError::Io(e) => write!(f, "i/o error while reading dimacs: {e}"),
            DimacsError::Malformed { line, message } => {
                write!(f, "malformed dimacs at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for DimacsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DimacsError::Io(e) => Some(e),
            DimacsError::Malformed { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::SolveResult;

    #[test]
    fn roundtrip_dimacs() {
        let mut cnf = CnfFormula::new();
        let a = cnf.new_var().positive();
        let b = cnf.new_var().positive();
        cnf.add_clause([a, !b]);
        cnf.add_clause([b]);
        let mut out = Vec::new();
        cnf.write_dimacs(&mut out).unwrap();
        let parsed = CnfFormula::parse_dimacs(&out[..]).unwrap();
        assert_eq!(parsed, cnf);
    }

    #[test]
    fn parse_with_comments_and_multiline_clauses() {
        let text = "c a comment\np cnf 3 2\n1 -2\n3 0\n2 0\n";
        let cnf = CnfFormula::parse_dimacs(text.as_bytes()).unwrap();
        assert_eq!(cnf.num_vars(), 3);
        assert_eq!(cnf.num_clauses(), 2);
        assert_eq!(cnf.clause(0).len(), 3);
    }

    #[test]
    fn parse_rejects_garbage() {
        let err = CnfFormula::parse_dimacs("1 x 0".as_bytes()).unwrap_err();
        assert!(matches!(err, DimacsError::Malformed { line: 1, .. }));
        assert!(err.to_string().contains("invalid literal"));
    }

    #[test]
    fn declared_vars_extend_count() {
        let cnf = CnfFormula::parse_dimacs("p cnf 10 1\n1 0\n".as_bytes()).unwrap();
        assert_eq!(cnf.num_vars(), 10);
    }

    #[test]
    fn to_solver_solves() {
        let text = "p cnf 2 2\n1 2 0\n-1 0\n";
        let cnf = CnfFormula::parse_dimacs(text.as_bytes()).unwrap();
        let mut s = cnf.to_solver();
        assert_eq!(s.solve(), SolveResult::Sat);
        let m = s.model().unwrap();
        assert!(m.value(Var::from_index(1)));
    }

    #[test]
    fn clauses_read_back_in_order_from_one_store() {
        let mut cnf = CnfFormula::new();
        let [a, b, c] = [0, 1, 2].map(|i| Var::from_index(i).positive());
        let added: [&[Lit]; 4] = [&[a, !b], &[], &[c], &[!a, b, !c]];
        for clause in added {
            cnf.add_clause(clause.iter().copied());
        }
        assert!(cnf.clauses().eq(added));
        assert!(cnf.clauses().rev().eq(added.into_iter().rev()));
        assert_eq!(cnf.clauses().len(), 4);
        for (i, clause) in added.into_iter().enumerate() {
            assert_eq!(cnf.clause(i), clause);
        }
        assert_eq!(cnf.num_literals(), 6);
        assert_eq!(cnf.num_vars(), 3);
        assert_eq!(CnfFormula::new().clauses().count(), 0);
        // A solver that already has more variables keeps its numbering.
        let mut s = Solver::new();
        s.new_vars(5);
        s.add_cnf(&cnf);
        assert_eq!(s.num_vars(), 5);
        assert_eq!(s.solve(), SolveResult::Unsat, "the empty clause refutes it");
    }

    #[test]
    fn counts() {
        let mut cnf = CnfFormula::new();
        let vs = cnf.new_vars(3);
        cnf.add_clause(vs.iter().map(|v| v.positive()));
        cnf.add_clause([vs[0].negative()]);
        assert_eq!(cnf.num_vars(), 3);
        assert_eq!(cnf.num_clauses(), 2);
        assert_eq!(cnf.num_literals(), 4);
    }
}
