//! Symmetric eigensolvers.
//!
//! The SyMPVL reduced model `dv/dt + T v = ρ i` is integrated after
//! diagonalizing the small symmetric matrix `T = Qᵀ D Q`. Two solvers are
//! provided:
//!
//! * [`jacobi_eigen`] — cyclic Jacobi rotations for a general dense symmetric
//!   matrix (robust, adequate for the tens-of-states reduced models).
//! * [`tridiag_eigen`] — implicit-shift QL for symmetric tridiagonal
//!   matrices, the natural shape of a single-port Lanczos projection.

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

/// Implicit-shift QL eigensolver for a symmetric tridiagonal matrix with
/// diagonal `d` and sub/super-diagonal `e` (`e.len() == d.len() - 1`, or both
/// empty).
///
/// Returns eigenvalues ascending and the orthonormal eigenvector matrix.
///
/// # Errors
///
/// * [`Error::DimensionMismatch`] if `e.len() + 1 != d.len()` (for nonempty
///   `d`).
/// * [`Error::NoConvergence`] if an eigenvalue fails to converge in 50
///   iterations (does not occur for finite input).
pub fn tridiag_eigen(d: &[f64], e: &[f64]) -> Result<SymEigen, Error> {
    let n = d.len();
    if n == 0 {
        return Ok(SymEigen { values: Vec::new(), vectors: Dense::zeros(0, 0) });
    }
    if e.len() + 1 != n {
        return Err(Error::DimensionMismatch {
            op: "tridiag_eigen",
            expected: (n - 1, 1),
            found: (e.len(), 1),
        });
    }
    let mut d = d.to_vec();
    // Work array with a trailing zero, as in the classic tql2 routine.
    let mut e2 = vec![0.0; n];
    e2[..n - 1].copy_from_slice(e);
    let mut z = Dense::identity(n);

    for l in 0..n {
        let mut iter = 0;
        loop {
            // Find a small off-diagonal element to split at.
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if e2[m].abs() <= f64::EPSILON * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            if iter > 50 {
                return Err(Error::NoConvergence { what: "tridiagonal ql", iters: 50 });
            }
            // Form the implicit shift.
            let mut g = (d[l + 1] - d[l]) / (2.0 * e2[l]);
            let mut r = g.hypot(1.0);
            g = d[m] - d[l] + e2[l] / (g + if g >= 0.0 { r.abs() } else { -r.abs() });
            let (mut s, mut c) = (1.0, 1.0);
            let mut p = 0.0;
            let mut i = m - 1;
            let mut underflow_break = false;
            loop {
                let mut f = s * e2[i];
                let b = c * e2[i];
                r = f.hypot(g);
                e2[i + 1] = r;
                if r == 0.0 {
                    d[i + 1] -= p;
                    e2[m] = 0.0;
                    underflow_break = true;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                // Accumulate the transformation in z.
                for k in 0..n {
                    f = z[(k, i + 1)];
                    z[(k, i + 1)] = s * z[(k, i)] + c * f;
                    z[(k, i)] = c * z[(k, i)] - s * f;
                }
                if i == l {
                    break;
                }
                i -= 1;
            }
            if underflow_break {
                // Deflation by underflow: restart this eigenvalue.
                continue;
            }
            d[l] -= p;
            e2[l] = g;
            e2[m] = 0.0;
        }
    }

    // Sort ascending, permuting eigenvectors along.
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&a, &b| d[a].partial_cmp(&d[b]).expect("finite eigenvalues"));
    let values: Vec<f64> = idx.iter().map(|&i| d[i]).collect();
    let mut vectors = Dense::zeros(n, n);
    for (new, &old) in idx.iter().enumerate() {
        let col = z.col(old);
        vectors.set_col(new, &col);
    }
    Ok(SymEigen { values, vectors })
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
    fn tridiag_matches_jacobi() {
        let d = [2.0, 2.5, 3.0, 1.5, 2.2];
        let e = [0.5, -0.3, 0.8, 0.1];
        let eig = tridiag_eigen(&d, &e).unwrap();
        // Build the dense equivalent and compare spectra.
        let n = d.len();
        let mut a = Dense::from_diag(&d);
        for i in 0..n - 1 {
            a[(i, i + 1)] = e[i];
            a[(i + 1, i)] = e[i];
        }
        let jac = jacobi_eigen(&a).unwrap();
        for (x, y) in eig.values.iter().zip(&jac.values) {
            assert_close(*x, *y, 1e-10);
        }
        check_decomposition(&a, &eig, 1e-10);
    }

    #[test]
    fn tridiag_singleton_and_empty() {
        let e = tridiag_eigen(&[4.0], &[]).unwrap();
        assert_eq!(e.values, vec![4.0]);
        let e0 = tridiag_eigen(&[], &[]).unwrap();
        assert!(e0.values.is_empty());
    }

    #[test]
    fn tridiag_rejects_bad_lengths() {
        assert!(matches!(
            tridiag_eigen(&[1.0, 2.0], &[0.1, 0.2]),
            Err(Error::DimensionMismatch { .. })
        ));
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
