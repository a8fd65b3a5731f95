//! Dense and sparse linear-algebra kernels for parasitic-coupling verification.
//!
//! This crate is the numerical substrate of the PCV workspace. It provides
//! exactly the kernels the DATE 1999 SyMPVL methodology needs, implemented
//! from scratch so the workspace has no external numerical dependencies:
//!
//! * [`Dense`] — a small row-major dense matrix with LU, Cholesky and
//!   matrix products, used for reduced-order models and Newton Jacobians.
//! * [`Triplets`] / [`Csc`] — coordinate-format assembly and compressed
//!   sparse column storage with matrix–vector products and permutations,
//!   used for MNA conductance/capacitance matrices.
//! * [`chol::SparseCholesky`] — an up-looking sparse Cholesky factorization
//!   (`G = LLᵀ`), the symmetrization step of SyMPVL.
//! * [`lu::SparseLu`] — a left-looking Gilbert–Peierls sparse LU with
//!   partial pivoting, the linear-solve engine of the SPICE substrate.
//! * [`eig`] — a cyclic Jacobi eigensolver for dense symmetric matrices,
//!   used to diagonalize the reduced model (`T = QᵀDQ`).
//! * [`order`] — reverse Cuthill–McKee fill-reducing ordering.
//! * [`panel`] — the row-major `n × k` form in which the triangular solves,
//!   the sparse product and the Gram–Schmidt kernels take `k` vectors at once.
//!
//! # Example
//!
//! Solve a small SPD system with the sparse Cholesky factorization:
//!
//! ```
//! # use pcv_sparse::{Triplets, chol::SparseCholesky};
//! # fn main() -> Result<(), pcv_sparse::Error> {
//! let mut t = Triplets::new(3, 3);
//! t.push(0, 0, 4.0); t.push(1, 1, 5.0); t.push(2, 2, 6.0);
//! t.push(0, 1, 1.0); t.push(1, 0, 1.0);
//! let a = t.to_csc();
//! let chol = SparseCholesky::factor(&a)?;
//! let x = chol.solve(&[1.0, 2.0, 3.0]);
//! # assert!((4.0 * x[0] + x[1] - 1.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

pub mod chol;
pub mod dense;
pub mod eig;
pub mod error;
pub mod lu;
pub mod order;
pub mod panel;
pub mod sparse;
pub mod vecops;

pub use chol::SparseCholesky;
pub use dense::Dense;
pub use error::Error;
pub use lu::SparseLu;
pub use sparse::{Assembly, Csc, Rows, Triplets};
