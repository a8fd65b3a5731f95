//! Error type for model-order reduction.

use std::fmt;

/// Errors produced while assembling, reducing or simulating RC clusters.
#[derive(Debug)]
pub enum MorError {
    /// The underlying linear algebra failed (e.g. `G` not positive
    /// definite after `gmin` regularization).
    Numeric(pcv_sparse::Error),
    /// A node or port index was out of range.
    InvalidIndex {
        /// What kind of index.
        what: &'static str,
        /// The offending value.
        index: usize,
        /// Exclusive upper bound.
        bound: usize,
    },
    /// A parameter value was rejected.
    InvalidValue {
        /// Description of the parameter.
        what: &'static str,
    },
    /// The cluster has no ports.
    NoPorts,
    /// Newton iteration in the reduced transient failed to converge.
    NoConvergence {
        /// Simulation time of the failure.
        t: f64,
    },
    /// A computed waveform or reduced-model matrix contained NaN or
    /// infinite entries; surfaced as a typed error so non-finite values
    /// fail fast instead of poisoning downstream verdicts.
    NonFinite {
        /// What was non-finite, e.g. `"reduced transient waveform"`.
        what: &'static str,
    },
    /// The per-cluster work budget (Newton iterations or transient steps)
    /// was exhausted before reaching `tstop`.
    BudgetExhausted {
        /// Simulation time at which the budget ran out.
        t: f64,
    },
    /// A cooperative cancellation flag fired.
    Cancelled {
        /// The stage that observed the cancellation, e.g. `"block lanczos"`.
        stage: &'static str,
    },
}

impl fmt::Display for MorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MorError::Numeric(e) => write!(f, "numeric failure: {e}"),
            MorError::InvalidIndex { what, index, bound } => {
                write!(f, "{what} index {index} out of range (< {bound})")
            }
            MorError::InvalidValue { what } => write!(f, "invalid value for {what}"),
            MorError::NoPorts => write!(f, "cluster has no ports"),
            MorError::NoConvergence { t } => {
                write!(f, "reduced-model newton failed to converge at t = {t:e}")
            }
            MorError::NonFinite { what } => {
                write!(f, "{what} produced a non-finite (NaN or infinite) value")
            }
            MorError::BudgetExhausted { t } => {
                write!(f, "per-cluster work budget exhausted at t = {t:e}")
            }
            MorError::Cancelled { stage } => {
                write!(f, "cancelled during {stage}")
            }
        }
    }
}

impl std::error::Error for MorError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MorError::Numeric(e) => Some(e),
            _ => None,
        }
    }
}

impl From<pcv_sparse::Error> for MorError {
    fn from(e: pcv_sparse::Error) -> Self {
        MorError::Numeric(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(MorError::NoPorts.to_string().contains("ports"));
        assert!(MorError::NoConvergence { t: 1.0 }.to_string().contains("newton"));
        let e = MorError::InvalidIndex { what: "port", index: 5, bound: 3 };
        assert!(e.to_string().contains('5'));
        let e = MorError::Numeric(pcv_sparse::Error::Singular { col: 1 });
        assert!(e.to_string().contains("singular"));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn display_recovery_variants() {
        let e = MorError::NonFinite { what: "reduced transient waveform" };
        assert!(e.to_string().contains("reduced transient waveform"));
        assert!(e.to_string().contains("non-finite"));
        let e = MorError::BudgetExhausted { t: 2e-9 };
        assert!(e.to_string().contains("budget"));
        assert!(e.to_string().contains("2e-9"));
        let e = MorError::Cancelled { stage: "block lanczos" };
        assert!(e.to_string().contains("block lanczos"));
    }

    #[test]
    fn source_chain_reaches_sparse_error() {
        use std::error::Error as _;
        let e = MorError::Numeric(pcv_sparse::Error::NotPositiveDefinite { col: 2, pivot: -0.5 });
        let src = e.source().expect("numeric errors carry a source");
        assert!(src.to_string().contains("positive definite"));
        assert!(src.source().is_none(), "sparse errors are leaves");
        // Non-numeric variants are leaves themselves.
        assert!(MorError::NoPorts.source().is_none());
        assert!(MorError::BudgetExhausted { t: 0.0 }.source().is_none());
        assert!(MorError::Cancelled { stage: "x" }.source().is_none());
        assert!(MorError::NonFinite { what: "x" }.source().is_none());
    }
}
