//! SyMPVL model-order reduction for coupled RC interconnect — the core
//! contribution of the DATE 1999 paper this workspace reproduces.
//!
//! The flow mirrors Section 3 of the paper:
//!
//! 1. An extracted RC cluster (victim net, aggressor nets, their couplings)
//!    is assembled into MNA form `G v + C v̇ = B i` with `G`, `C` symmetric
//!    positive (semi)definite ([`RcCluster`]).
//! 2. A sparse Cholesky factorization `G = FᵀF` collapses the pencil into a
//!    single symmetric matrix `A = F⁻ᵀ C F⁻¹`, and a block Lanczos iteration
//!    projects it onto the block-Krylov subspace, yielding the reduced model
//!    `T v̇_r + v_r = ρ u`, `y = ρᵀ v_r` — a matrix-Padé approximant of the
//!    cluster's port transfer function ([`sympvl::reduce`]).
//! 3. The reduced model is diagonalized (`T = QᵀDQ`) and integrated in time
//!    with the nonlinear driver models attached; each Newton step solves a
//!    Jacobian that is a *low-rank modification of a diagonal matrix*
//!    (Sherman–Morrison / Woodbury), which is what makes chip-level
//!    crosstalk analysis practical ([`sim::simulate`]). With linear drivers
//!    only, the drivers fold into the model, which diagonalizes once more,
//!    and the transient is one scalar recurrence per mode.
//!
//! Stability and passivity of the reduced model are verified (and tiny
//! negative eigenvalues clipped) per the paper's reference \[4\].
//!
//! # Example
//!
//! Reduce a two-net coupled cluster and check its transfer function against
//! the exact dense computation:
//!
//! ```
//! # use pcv_mor::{RcCluster, sympvl};
//! # fn main() -> Result<(), pcv_mor::MorError> {
//! let mut cl = RcCluster::new();
//! let a = cl.add_node();
//! let b = cl.add_node();
//! cl.add_resistor_to_ground(a, 1000.0)?;
//! cl.add_resistor(a, b, 500.0)?;
//! cl.add_ground_cap(b, 1e-12)?;
//! cl.add_port(a);
//! let rom = sympvl::reduce(&cl, 4)?;
//! let s = 1e9;
//! let exact = cl.exact_transfer(s)?[(0, 0)];
//! let reduced = rom.transfer(s)?[(0, 0)];
//! assert!((exact - reduced).abs() < 1e-6 * exact.abs());
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

pub mod arnoldi;
pub mod cancel;
pub mod error;
pub mod model;
pub mod rc;
pub mod sim;
pub mod sympvl;

pub use arnoldi::reduce_arnoldi;
pub use cancel::CancelToken;
pub use error::MorError;
pub use model::{DiagonalModel, ReducedModel};
pub use rc::RcCluster;
pub use sim::{simulate, simulate_memo, ModalMemo, MorOptions, MorTranResult};
