//! The SyMPVL reduction: Cholesky symmetrization plus block Lanczos
//! projection (Section 3 of the paper).
//!
//! Starting from `G v + C v̇ = B i`, a Cholesky factorization `G = FᵀF`
//! and the change of variables `x = F v` give `x + A ẋ = L i` with
//! `A = F⁻ᵀ C F⁻¹` and `L = F⁻ᵀ B`. The block Lanczos iteration builds an
//! orthonormal basis `V` of the block-Krylov subspace
//! `span{L, AL, A²L, …}`; the projections `T = VᵀAV` and `ρ = VᵀL` define
//! the reduced model
//!
//! ```text
//! T v̇_r + v_r = ρ u,      y = ρᵀ v_r
//! ```
//!
//! whose transfer function is a matrix-Padé approximant of the original
//! port impedance `H(s) = Bᵀ (G + sC)⁻¹ B`. Because `T` is a congruence
//! projection of the symmetric positive semidefinite `A`, the reduced model
//! is automatically stable and passive (up to rounding, which
//! [`crate::model::ReducedModel::diagonalize`] cleans up).
//!
//! Full reorthogonalization is used: clusters are small after pruning
//! (2–5 nets, per the paper), so the extra dot products are cheap and buy
//! robustness against the loss of orthogonality classic Lanczos suffers.

use crate::cancel::CancelToken;
use crate::error::MorError;
use crate::model::ReducedModel;
use crate::rc::RcCluster;
use pcv_sparse::vecops::{axpy, dot, dot_many, norm2};
use pcv_sparse::{Dense, SparseCholesky};

/// Deflation tolerance: a candidate basis vector whose norm after
/// orthogonalization falls below this fraction of its pre-orthogonalization
/// norm is considered linearly dependent and dropped.
const DEFLATION_TOL: f64 = 1e-10;

/// Reduce an RC cluster to a `ReducedModel` using at most `block_iters`
/// block Lanczos steps (so at most `block_iters * num_ports` states, fewer
/// when the Krylov space deflates or the cluster is smaller).
///
/// `block_iters` controls the Padé order: each additional block matches two
/// more block moments of the port transfer function. 3–6 is ample for RC
/// crosstalk clusters.
///
/// # Errors
///
/// * [`MorError::NoPorts`] when the cluster has no ports.
/// * [`MorError::InvalidValue`] when `block_iters == 0`.
/// * [`MorError::Numeric`] if the regularized conductance matrix is not
///   positive definite.
pub fn reduce(cl: &RcCluster, block_iters: usize) -> Result<ReducedModel, MorError> {
    reduce_with(cl, block_iters, None)
}

/// [`reduce`] with an optional cooperative cancellation token, polled once
/// per Lanczos candidate vector so a pathological cluster can be abandoned
/// mid-reduction instead of stalling a worker.
///
/// # Errors
///
/// Everything [`reduce`] returns, plus:
///
/// * [`MorError::Cancelled`] when `cancel` fires mid-iteration.
/// * [`MorError::NonFinite`] if the projected `T`/`ρ` matrices contain NaN
///   or infinite entries (e.g. from a near-singular Cholesky factor).
pub fn reduce_with(
    cl: &RcCluster,
    block_iters: usize,
    cancel: Option<&CancelToken>,
) -> Result<ReducedModel, MorError> {
    let p = cl.num_ports();
    if p == 0 {
        return Err(MorError::NoPorts);
    }
    if block_iters == 0 {
        return Err(MorError::InvalidValue { what: "block_iters" });
    }
    let _span = pcv_trace::span("mor", "sympvl_reduce");
    let n = cl.num_nodes();
    let g = cl.conductance_matrix();
    let c = cl.capacitance_matrix();
    let chol = {
        let _chol_span = pcv_trace::span("mor", "cholesky");
        SparseCholesky::factor(&g)?
    };

    // L = F⁻ᵀ B: column j is L⁻¹ e_{port_j} (forward solve with the Cholesky
    // factor, since F = Lᵀ).
    let mut l_cols: Vec<Vec<f64>> = Vec::with_capacity(p);
    for &port in cl.ports() {
        let mut e = vec![0.0; n];
        e[port] = 1.0;
        chol.solve_lower_in_place(&mut e);
        l_cols.push(e);
    }

    // A v = F⁻ᵀ C F⁻¹ v, applied through two triangular solves and a SpMV.
    let apply_a = |v: &[f64]| -> Vec<f64> {
        let mut u = v.to_vec();
        chol.solve_lower_t_in_place(&mut u); // u = F⁻¹ v
        let mut w = c.matvec(&u); // w = C u
        chol.solve_lower_in_place(&mut w); // w = F⁻ᵀ w
        w
    };

    // Band/block Lanczos with full reorthogonalization. `basis` collects the
    // orthonormal vectors; `av` caches A·v for each basis vector so T can be
    // formed without extra applications.
    let _lanczos_span = pcv_trace::span("mor", "block_lanczos");
    let max_states = (block_iters * p).min(n);
    let mut basis: Vec<Vec<f64>> = Vec::with_capacity(max_states);
    let mut av: Vec<Vec<f64>> = Vec::with_capacity(max_states);

    // Starting block: orthonormalize the columns of L.
    let mut current: Vec<usize> = Vec::new();
    for col in &l_cols {
        if basis.len() >= max_states {
            break;
        }
        if cancel.is_some_and(CancelToken::is_cancelled) {
            return Err(MorError::Cancelled { stage: "block lanczos" });
        }
        if let Some(v) = orthonormalize(col, &basis) {
            av.push(apply_a(&v));
            basis.push(v);
            current.push(basis.len() - 1);
        }
    }

    // Subsequent blocks: A times the previous block, reorthogonalized.
    while !current.is_empty() && basis.len() < max_states {
        let mut next: Vec<usize> = Vec::new();
        for &idx in &current {
            if basis.len() >= max_states {
                break;
            }
            if cancel.is_some_and(CancelToken::is_cancelled) {
                return Err(MorError::Cancelled { stage: "block lanczos" });
            }
            if let Some(v) = orthonormalize(&av[idx], &basis) {
                av.push(apply_a(&v));
                basis.push(v);
                next.push(basis.len() - 1);
            }
        }
        current = next;
    }

    let q = basis.len();
    pcv_trace::value("mor.reduced_order", q as u64);
    // T = Vᵀ A V from the cached products, symmetrized against rounding.
    let mut t = project(&basis, &av);
    t.symmetrize();
    // ρ = Vᵀ L.
    let rho = project(&basis, &l_cols);
    // Guard the projection outputs: a near-singular Cholesky factor can push
    // NaN/Inf through the triangular solves without tripping any earlier
    // typed error, and a non-finite T poisons every verdict downstream.
    if !all_finite(&t) || !all_finite(&rho) {
        return Err(MorError::NonFinite { what: "reduced model projection" });
    }
    Ok(ReducedModel::new(t, rho))
}

/// `Vᵀ W`: entry `(i, j)` is `dot(&basis[i], &cols[j])`, bit for bit.
fn project(basis: &[Vec<f64>], cols: &[Vec<f64>]) -> Dense {
    let mut m = Dense::zeros(basis.len(), cols.len());
    let mut column = vec![0.0; basis.len()];
    for (j, col) in cols.iter().enumerate() {
        dot_many(basis, col, &mut column);
        m.set_col(j, &column);
    }
    m
}

/// Every entry of a dense matrix is finite.
fn all_finite(m: &Dense) -> bool {
    (0..m.nrows()).all(|r| m.row(r).iter().all(|v| v.is_finite()))
}

/// Orthogonalize `w` against `basis` (two Gram–Schmidt passes) and
/// normalize; `None` if the vector deflates.
fn orthonormalize(w: &[f64], basis: &[Vec<f64>]) -> Option<Vec<f64>> {
    let mut v = w.to_vec();
    let orig = norm2(&v);
    if orig == 0.0 {
        return None;
    }
    for _ in 0..2 {
        for b in basis {
            let proj = dot(b, &v);
            axpy(-proj, b, &mut v);
        }
    }
    let nrm = norm2(&v);
    if nrm <= DEFLATION_TOL * orig {
        return None;
    }
    let inv = 1.0 / nrm;
    for x in v.iter_mut() {
        *x *= inv;
    }
    Some(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two coupled RC lines, each driven at node 0, like a pruned
    /// victim/aggressor cluster.
    fn coupled_pair(segments: usize) -> RcCluster {
        let mut cl = RcCluster::new();
        let line = |cl: &mut RcCluster| -> Vec<usize> {
            let nodes: Vec<usize> = (0..segments).map(|_| cl.add_node()).collect();
            for w in nodes.windows(2) {
                cl.add_resistor(w[0], w[1], 40.0).unwrap();
            }
            for &nd in &nodes {
                cl.add_ground_cap(nd, 2e-15).unwrap();
            }
            nodes
        };
        let a = line(&mut cl);
        let b = line(&mut cl);
        for (&x, &y) in a.iter().zip(&b) {
            cl.add_capacitor(x, y, 3e-15).unwrap();
        }
        cl.add_port(a[0]);
        cl.add_port(b[0]);
        cl.add_port(a[segments - 1]); // victim far end (observation)
        cl
    }

    #[test]
    fn transfer_function_converges_with_order() {
        let cl = coupled_pair(12);
        let s = 2e9; // ~ the band of interest for ns edges
        let exact = cl.exact_transfer(s).unwrap();
        let mut prev_err = f64::INFINITY;
        for iters in [1usize, 2, 4, 6] {
            let rom = reduce(&cl, iters).unwrap();
            let h = rom.transfer(s).unwrap();
            let mut err = 0.0f64;
            for i in 0..3 {
                for j in 0..3 {
                    let denom = exact[(i, j)].abs().max(1e-6 * exact[(0, 0)].abs());
                    err = err.max((h[(i, j)] - exact[(i, j)]).abs() / denom);
                }
            }
            assert!(err < prev_err * 1.5 + 1e-12, "error should not grow: {err} vs {prev_err}");
            prev_err = err;
        }
        assert!(prev_err < 1e-6, "order-6 model should be near-exact, err = {prev_err}");
    }

    #[test]
    fn reduced_model_is_much_smaller() {
        let cl = coupled_pair(40);
        assert_eq!(cl.num_nodes(), 80);
        let rom = reduce(&cl, 4).unwrap();
        assert!(rom.order() <= 12);
        assert_eq!(rom.num_ports(), 3);
    }

    #[test]
    fn t_is_positive_semidefinite() {
        let cl = coupled_pair(10);
        let rom = reduce(&cl, 5).unwrap();
        let eig = pcv_sparse::eig::jacobi_eigen(rom.t()).unwrap();
        for &w in &eig.values {
            assert!(w >= -1e-12 * eig.values.last().unwrap().abs(), "eigenvalue {w}");
        }
    }

    #[test]
    fn dc_moment_matches_exactly() {
        // Padé at s = 0: the DC transfer (resistance matrix) must match to
        // rounding even at order 1.
        let cl = coupled_pair(8);
        let rom = reduce(&cl, 1).unwrap();
        let exact = cl.exact_transfer(0.0).unwrap();
        let h0 = rom.transfer(0.0).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                let denom = exact[(i, j)].abs().max(1e-9 * exact[(0, 0)].abs());
                let rel = (h0[(i, j)] - exact[(i, j)]).abs() / denom;
                assert!(rel < 1e-7, "dc moment mismatch at ({i},{j}): {rel}");
            }
        }
    }

    #[test]
    fn deflation_caps_order_at_matrix_size() {
        let mut cl = RcCluster::new();
        let a = cl.add_node();
        let b = cl.add_node();
        cl.add_resistor(a, b, 100.0).unwrap();
        cl.add_resistor_to_ground(a, 100.0).unwrap();
        cl.add_ground_cap(b, 1e-15).unwrap();
        cl.add_port(a);
        let rom = reduce(&cl, 50).unwrap();
        assert!(rom.order() <= 2, "order {} exceeds node count", rom.order());
    }

    #[test]
    fn duplicate_ports_deflate() {
        let mut cl = RcCluster::new();
        let a = cl.add_node();
        cl.add_resistor_to_ground(a, 10.0).unwrap();
        cl.add_ground_cap(a, 1e-15).unwrap();
        cl.add_port(a);
        cl.add_port(a); // same node twice
        let rom = reduce(&cl, 3).unwrap();
        assert_eq!(rom.num_ports(), 2);
        // The starting block has rank 1, so the basis stays rank-limited.
        assert!(rom.order() <= 1 + 2);
        // Both ports still observe identical transfer.
        let h = rom.transfer(1e9).unwrap();
        assert!((h[(0, 0)] - h[(1, 1)]).abs() < 1e-12 * h[(0, 0)].abs());
    }

    #[test]
    fn rejects_degenerate_requests() {
        let cl = coupled_pair(3);
        assert!(matches!(reduce(&cl, 0), Err(MorError::InvalidValue { .. })));
        let mut no_ports = RcCluster::new();
        let a = no_ports.add_node();
        no_ports.add_ground_cap(a, 1e-15).unwrap();
        assert!(matches!(reduce(&no_ports, 2), Err(MorError::NoPorts)));
    }

    #[test]
    fn cancelled_token_aborts_reduction() {
        use crate::cancel::CancelToken;
        let cl = coupled_pair(12);
        let token = CancelToken::new();
        token.cancel();
        let err = reduce_with(&cl, 4, Some(&token)).unwrap_err();
        assert!(matches!(err, MorError::Cancelled { stage: "block lanczos" }), "got {err}");
        // A live token changes nothing about the reduction.
        let live = CancelToken::new();
        let a = reduce_with(&cl, 4, Some(&live)).unwrap();
        let b = reduce(&cl, 4).unwrap();
        assert_eq!(a.order(), b.order());
    }

    #[test]
    fn basis_is_orthonormal() {
        // Indirect check: T's symmetry and ρᵀρ ≈ Bᵀ G⁻¹ B (the zeroth
        // moment, which equals the DC transfer).
        let cl = coupled_pair(6);
        let rom = reduce(&cl, 4).unwrap();
        let rho = rom.rho();
        let mut rtr = Dense::zeros(3, 3);
        for i in 0..3 {
            for j in 0..3 {
                let mut s = 0.0;
                for k in 0..rom.order() {
                    s += rho[(k, i)] * rho[(k, j)];
                }
                rtr[(i, j)] = s;
            }
        }
        let exact = cl.exact_transfer(0.0).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                let denom = exact[(i, j)].abs().max(1e-9 * exact[(0, 0)].abs());
                let rel = (rtr[(i, j)] - exact[(i, j)]).abs() / denom;
                assert!(rel < 1e-7, "zeroth moment mismatch: {rel}");
            }
        }
    }
}
