//! Errors produced while building or translating relational problems.

use std::fmt;

/// An error encountered while translating a relational problem to CNF.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TranslateError {
    /// An operator was applied to expressions of incompatible arity.
    ArityMismatch {
        /// Description of the offending operation.
        context: String,
    },
    /// A quantified variable was used outside its binder.
    UnboundVar(String),
    /// A quantifier domain or `sum` argument was not unary.
    NonUnaryDomain {
        /// The arity that was found.
        arity: usize,
    },
    /// `sum` ranged over an atom that carries no integer value.
    NonIntAtom {
        /// Name of the offending atom.
        atom: String,
    },
    /// A matrix or an at-most-one constraint has more cells than a flat
    /// `usize` index can address.
    IndexOverflow {
        /// Description of the oversized matrix or constraint.
        context: String,
    },
}

impl fmt::Display for TranslateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TranslateError::ArityMismatch { context } => {
                write!(f, "arity mismatch: {context}")
            }
            TranslateError::UnboundVar(name) => {
                write!(f, "quantified variable `{name}` used outside its binder")
            }
            TranslateError::NonUnaryDomain { arity } => {
                write!(
                    f,
                    "quantifier domain or sum argument must be unary, found arity {arity}"
                )
            }
            TranslateError::NonIntAtom { atom } => {
                write!(f, "sum over atom `{atom}` which carries no integer value")
            }
            TranslateError::IndexOverflow { context } => {
                write!(
                    f,
                    "index overflow: {context} has more cells than a usize addresses"
                )
            }
        }
    }
}

impl std::error::Error for TranslateError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = TranslateError::ArityMismatch {
            context: "join of arities 1 and 1".into(),
        };
        assert!(e.to_string().contains("arity mismatch"));
        assert!(TranslateError::UnboundVar("x".into())
            .to_string()
            .contains("`x`"));
        assert!(TranslateError::NonUnaryDomain { arity: 3 }
            .to_string()
            .contains("arity 3"));
        assert!(TranslateError::NonIntAtom { atom: "A".into() }
            .to_string()
            .contains("`A`"));
        assert!(TranslateError::IndexOverflow {
            context: "an arity-4 matrix over 70000 atoms".into()
        }
        .to_string()
        .contains("70000 atoms"));
    }
}
