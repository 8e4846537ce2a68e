//! The workspace-wide error taxonomy.
//!
//! Every long-running algorithm in the workspace (complementation,
//! inclusion, Zielonka, the LTL tableau, closure enumeration, the
//! tree-closure checkers, the monitors) has one entry point taking
//! `budget: Option<&Budget>` that returns [`SlError`] instead of looping
//! forever or panicking on untrusted input. Domain-specific errors
//! (`sl-lattice`'s `LatticeError`) convert into this taxonomy via
//! `From` impls in their own crates, and [`SlError::context`] builds
//! context chains that keep the original failure visible through
//! [`std::error::Error::source`].

use std::fmt;

/// The workspace-wide error type for fallible, budgeted, and hardened
/// entry points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SlError {
    /// A step or wall-clock budget ran out mid-algorithm. `spent` is the
    /// number of budgeted steps charged before the limit hit, so
    /// callers can tell "never started" from "ran out mid-flight".
    BudgetExceeded {
        /// The algorithm phase that was executing (e.g.
        /// `"buchi.complement"`).
        phase: &'static str,
        /// Steps charged before the budget ran out (nonzero once the
        /// algorithm has made any progress).
        spent: u64,
    },
    /// A cooperative cancellation flag was raised while the algorithm
    /// was running.
    Cancelled {
        /// The algorithm phase that observed the cancellation.
        phase: &'static str,
        /// Steps charged before the cancellation was observed.
        spent: u64,
    },
    /// A deterministic injected fault from [`crate::fault::FaultPlan`]
    /// fired at this site (testing/fault-drill paths only).
    FaultInjected {
        /// The injection site name (e.g. `"par.worker"`).
        site: &'static str,
        /// The per-site invocation index that fired.
        index: u64,
    },
    /// Untrusted input failed validation (out-of-alphabet symbol,
    /// oversized structure, malformed index, ...).
    InvalidInput(String),
    /// A domain error absorbed from another crate (`lattice`, `buchi`,
    /// ...), carrying its rendered message.
    Domain {
        /// The domain the error came from (e.g. `"lattice"`).
        domain: &'static str,
        /// The rendered domain-specific error message.
        message: String,
    },
    /// A wrapped error with one frame of added context; chains nest.
    Context {
        /// What the caller was doing when the inner error surfaced.
        context: String,
        /// The underlying error.
        source: Box<SlError>,
    },
}

impl SlError {
    /// Wraps the error with one frame of context, building a chain that
    /// renders outermost-first and stays walkable via
    /// [`std::error::Error::source`].
    #[must_use]
    pub fn context(self, context: impl Into<String>) -> SlError {
        SlError::Context {
            context: context.into(),
            source: Box::new(self),
        }
    }

    /// The innermost error of a context chain (`self` when unwrapped).
    #[must_use]
    pub fn root(&self) -> &SlError {
        match self {
            SlError::Context { source, .. } => source.root(),
            other => other,
        }
    }

    /// Whether the root cause is a spent budget (step or deadline).
    #[must_use]
    pub fn is_budget_exceeded(&self) -> bool {
        matches!(self.root(), SlError::BudgetExceeded { .. })
    }

    /// Whether the root cause is a cooperative cancellation.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        matches!(self.root(), SlError::Cancelled { .. })
    }

    /// Whether the root cause is an injected fault.
    #[must_use]
    pub fn is_fault_injected(&self) -> bool {
        matches!(self.root(), SlError::FaultInjected { .. })
    }

    /// Budgeted steps spent before a budget/cancellation root cause
    /// surfaced, if that is what this error is.
    #[must_use]
    pub fn spent(&self) -> Option<u64> {
        match self.root() {
            SlError::BudgetExceeded { spent, .. } | SlError::Cancelled { spent, .. } => {
                Some(*spent)
            }
            _ => None,
        }
    }
}

impl fmt::Display for SlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SlError::BudgetExceeded { phase, spent } => {
                write!(f, "budget exceeded in {phase} after {spent} steps")
            }
            SlError::Cancelled { phase, spent } => {
                write!(f, "cancelled in {phase} after {spent} steps")
            }
            SlError::FaultInjected { site, index } => {
                write!(f, "injected fault at {site}#{index}")
            }
            SlError::InvalidInput(what) => write!(f, "invalid input: {what}"),
            SlError::Domain { domain, message } => write!(f, "{domain} error: {message}"),
            SlError::Context { context, source } => write!(f, "{context}: {source}"),
        }
    }
}

impl std::error::Error for SlError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SlError::Context { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn context_chain_renders_outermost_first() {
        let err = SlError::BudgetExceeded {
            phase: "buchi.complement",
            spent: 17,
        }
        .context("deciding inclusion")
        .context("classifying formula");
        assert_eq!(
            err.to_string(),
            "classifying formula: deciding inclusion: \
             budget exceeded in buchi.complement after 17 steps"
        );
        assert!(err.is_budget_exceeded());
        assert_eq!(err.spent(), Some(17));
    }

    #[test]
    fn source_walks_the_chain() {
        let err = SlError::InvalidInput("symbol 9 out of alphabet".into()).context("monitor step");
        let source = err.source().expect("context has a source");
        assert_eq!(
            source.to_string(),
            "invalid input: symbol 9 out of alphabet"
        );
        assert!(source.source().is_none());
    }

    #[test]
    fn root_sees_through_nesting() {
        let root = SlError::Cancelled {
            phase: "games.zielonka",
            spent: 3,
        };
        let wrapped = root.clone().context("a").context("b");
        assert_eq!(wrapped.root(), &root);
        assert!(wrapped.is_cancelled());
        assert!(!wrapped.is_budget_exceeded());
    }

    #[test]
    fn display_variants_are_nonempty() {
        let samples = [
            SlError::FaultInjected {
                site: "par.worker",
                index: 4,
            },
            SlError::Domain {
                domain: "lattice",
                message: "structure must be nonempty".into(),
            },
            SlError::InvalidInput("bad".into()),
        ];
        for err in samples {
            assert!(!err.to_string().is_empty());
        }
    }
}
