//! Error type shared by all factorizations and solvers in this crate.

use std::fmt;

/// Errors produced by the linear-algebra kernels.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// The matrix is not symmetric positive definite; Cholesky broke down at
    /// the given pivot column with the given (non-positive) pivot value.
    NotPositiveDefinite {
        /// Column at which the factorization failed.
        col: usize,
        /// The offending pivot value.
        pivot: f64,
    },
    /// The matrix is numerically singular; no acceptable pivot was found in
    /// the given column.
    Singular {
        /// Column at which no pivot was found.
        col: usize,
    },
    /// Operand dimensions do not agree.
    DimensionMismatch {
        /// What was being attempted, e.g. `"matvec"`.
        op: &'static str,
        /// Dimensions that were expected.
        expected: (usize, usize),
        /// Dimensions that were found.
        found: (usize, usize),
    },
    /// A square matrix was required.
    NotSquare {
        /// Number of rows.
        nrows: usize,
        /// Number of columns.
        ncols: usize,
    },
    /// An iterative method failed to converge within its iteration budget.
    NoConvergence {
        /// The algorithm that failed, e.g. `"jacobi eigensolver"`.
        what: &'static str,
        /// Iterations performed.
        iters: usize,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::NotPositiveDefinite { col, pivot } => {
                write!(f, "matrix is not positive definite: pivot {pivot:e} at column {col}")
            }
            Error::Singular { col } => {
                write!(f, "matrix is numerically singular at column {col}")
            }
            Error::DimensionMismatch { op, expected, found } => write!(
                f,
                "dimension mismatch in {op}: expected {}x{}, found {}x{}",
                expected.0, expected.1, found.0, found.1
            ),
            Error::NotSquare { nrows, ncols } => {
                write!(f, "square matrix required, found {nrows}x{ncols}")
            }
            Error::NoConvergence { what, iters } => {
                write!(f, "{what} did not converge after {iters} iterations")
            }
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = Error::NotPositiveDefinite { col: 3, pivot: -1.0 };
        let s = e.to_string();
        assert!(s.contains("column 3"));
        assert!(s.starts_with(char::is_lowercase));

        let e = Error::Singular { col: 7 };
        assert!(e.to_string().contains('7'));

        let e = Error::DimensionMismatch { op: "matvec", expected: (3, 1), found: (4, 1) };
        assert!(e.to_string().contains("matvec"));

        let e = Error::NotSquare { nrows: 2, ncols: 3 };
        assert!(e.to_string().contains("2x3"));

        let e = Error::NoConvergence { what: "jacobi", iters: 50 };
        assert!(e.to_string().contains("50"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Error>();
    }
}
