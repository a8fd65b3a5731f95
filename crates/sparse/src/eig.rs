//! Symmetric eigensolvers.
//!
//! The SyMPVL reduced model `dv/dt + T v = ρ i` is integrated after
//! diagonalizing the small symmetric matrix `T = Qᵀ D Q`:
//! [`jacobi_eigen`] — cyclic Jacobi rotations for a general dense symmetric
//! matrix (robust, adequate for the tens-of-states reduced models).

use crate::dense::Dense;
use crate::error::Error;

/// Eigendecomposition `A = V diag(w) Vᵀ` of a symmetric matrix.
#[derive(Debug, Clone)]
pub struct SymEigen {
    /// Eigenvalues in ascending order.
    pub values: Vec<f64>,
    /// Orthonormal eigenvectors as *columns* of `V`.
    pub vectors: Dense,
}

impl SymEigen {
    /// Reconstruct `A` from the decomposition (test/diagnostic helper).
    pub fn reconstruct(&self) -> Dense {
        let n = self.values.len();
        let v = &self.vectors;
        Dense::from_fn(n, n, |r, c| (0..n).map(|k| v[(r, k)] * self.values[k] * v[(c, k)]).sum())
    }
}

/// Cyclic Jacobi eigensolver for a dense symmetric matrix.
///
/// The input is symmetrized (averaged with its transpose) before iterating,
/// so tiny rounding asymmetry is tolerated.
///
/// # Errors
///
/// * [`Error::NotSquare`] if `a` is rectangular.
/// * [`Error::NoConvergence`] if the off-diagonal norm fails to vanish within
///   the sweep budget (does not occur for well-formed symmetric input).
pub fn jacobi_eigen(a: &Dense) -> Result<SymEigen, Error> {
    if a.nrows() != a.ncols() {
        return Err(Error::NotSquare { nrows: a.nrows(), ncols: a.ncols() });
    }
    let n = a.nrows();
    let mut sym = a.clone();
    sym.symmetrize();
    if n <= 1 {
        let values = if n == 1 { vec![sym[(0, 0)]] } else { Vec::new() };
        return Ok(SymEigen { values, vectors: Dense::identity(n) });
    }
    // `M` row-major, and the eigenvectors accumulated as the rows of `Vᵀ`:
    // a rotation of `V`'s columns p, q is one of `Vᵀ`'s rows p, q, so it and
    // `M`'s row pass run on contiguous slices. Each entry sees the same
    // operations as in the element-wise form.
    let mut m: Vec<f64> = (0..n).flat_map(|r| sym.row(r)).copied().collect();
    let mut vt = vec![0.0; n * n];
    for i in 0..n {
        vt[i * n + i] = 1.0;
    }

    let max_sweeps = 64;
    for _ in 0..max_sweeps {
        // Off-diagonal Frobenius norm.
        let mut off = 0.0;
        for r in 0..n {
            for &mrc in &m[r * n + r + 1..(r + 1) * n] {
                off += mrc * mrc;
            }
        }
        let scale = m.iter().map(|v| v * v).sum::<f64>().sqrt().max(1e-300);
        if off.sqrt() <= 1e-14 * scale {
            return Ok(finish(n, &m, &vt));
        }
        for p in 0..n - 1 {
            for q in (p + 1)..n {
                let apq = m[p * n + q];
                if apq == 0.0 {
                    continue;
                }
                let app = m[p * n + p];
                let aqq = m[q * n + q];
                // Classic stable rotation computation.
                let theta = (aqq - app) / (2.0 * apq);
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    1.0 / (theta - (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;

                // Apply rotation to columns, then rows, p and q of M.
                for row in m.chunks_exact_mut(n) {
                    let (mkp, mkq) = (row[p], row[q]);
                    row[p] = c * mkp - s * mkq;
                    row[q] = s * mkp + c * mkq;
                }
                rotate_rows(&mut m, n, p, q, c, s);
                // Accumulate eigenvectors.
                rotate_rows(&mut vt, n, p, q, c, s);
            }
        }
    }
    Err(Error::NoConvergence { what: "jacobi eigensolver", iters: max_sweeps })
}

/// Rotate rows `p < q` of the row-major `n`-column `a`:
/// `(a_p, a_q) ← (c·a_p − s·a_q, s·a_p + c·a_q)`.
fn rotate_rows(a: &mut [f64], n: usize, p: usize, q: usize, c: f64, s: f64) {
    let (top, bottom) = a.split_at_mut(q * n);
    let row_p = &mut top[p * n..(p + 1) * n];
    for (ap, aq) in row_p.iter_mut().zip(&mut bottom[..n]) {
        let (x, y) = (*ap, *aq);
        *ap = c * x - s * y;
        *aq = s * x + c * y;
    }
}

/// Eigenvalues ascending from `M`'s diagonal, eigenvectors as the columns
/// the matching rows of `Vᵀ` become.
fn finish(n: usize, m: &[f64], vt: &[f64]) -> SymEigen {
    let mut pairs: Vec<(f64, usize)> = (0..n).map(|i| (m[i * n + i], i)).collect();
    pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("eigenvalues are finite"));
    let values: Vec<f64> = pairs.iter().map(|&(w, _)| w).collect();
    let mut vectors = Dense::zeros(n, n);
    for (new, &(_, old)) in pairs.iter().enumerate() {
        vectors.set_col(new, &vt[old * n..(old + 1) * n]);
    }
    SymEigen { values, vectors }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} vs {b}");
    }

    fn check_decomposition(a: &Dense, eig: &SymEigen, tol: f64) {
        let rec = eig.reconstruct();
        for r in 0..a.nrows() {
            for c in 0..a.ncols() {
                assert_close(rec[(r, c)], a[(r, c)], tol);
            }
        }
        // Orthonormality.
        let vtv = eig.vectors.transpose().matmul(&eig.vectors).unwrap();
        for r in 0..a.nrows() {
            for c in 0..a.ncols() {
                assert_close(vtv[(r, c)], if r == c { 1.0 } else { 0.0 }, tol);
            }
        }
    }

    #[test]
    fn jacobi_2x2_known_values() {
        let a = Dense::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let eig = jacobi_eigen(&a).unwrap();
        assert_close(eig.values[0], 1.0, 1e-12);
        assert_close(eig.values[1], 3.0, 1e-12);
        check_decomposition(&a, &eig, 1e-12);
    }

    #[test]
    fn jacobi_diagonal_is_identity_rotation() {
        let a = Dense::from_diag(&[3.0, 1.0, 2.0]);
        let eig = jacobi_eigen(&a).unwrap();
        assert_eq!(eig.values, vec![1.0, 2.0, 3.0]);
        check_decomposition(&a, &eig, 1e-14);
    }

    #[test]
    fn jacobi_random_symmetric() {
        // Deterministic pseudo-random symmetric matrix.
        let n = 12;
        let mut a = Dense::from_fn(n, n, |r, c| ((r * 31 + c * 17) % 13) as f64 / 13.0);
        a.symmetrize();
        let eig = jacobi_eigen(&a).unwrap();
        check_decomposition(&a, &eig, 1e-10);
        // Ascending eigenvalues.
        for w in eig.values.windows(2) {
            assert!(w[0] <= w[1] + 1e-12);
        }
    }

    #[test]
    fn jacobi_handles_trivial_sizes() {
        let e0 = jacobi_eigen(&Dense::zeros(0, 0)).unwrap();
        assert!(e0.values.is_empty());
        let e1 = jacobi_eigen(&Dense::from_diag(&[7.0])).unwrap();
        assert_eq!(e1.values, vec![7.0]);
    }

    #[test]
    fn jacobi_rejects_rectangular() {
        assert!(matches!(jacobi_eigen(&Dense::zeros(2, 3)), Err(Error::NotSquare { .. })));
    }

    #[test]
    fn spd_matrix_has_positive_eigenvalues() {
        // Resistive-chain-like SPD matrix.
        let n = 9;
        let mut a = Dense::zeros(n, n);
        for i in 0..n {
            a[(i, i)] = 2.0;
            if i + 1 < n {
                a[(i, i + 1)] = -1.0;
                a[(i + 1, i)] = -1.0;
            }
        }
        let eig = jacobi_eigen(&a).unwrap();
        assert!(eig.values.iter().all(|&w| w > 0.0));
    }
}
