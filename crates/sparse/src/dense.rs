//! Row-major dense matrices with the factorizations needed by reduced-order
//! models: LU with partial pivoting and Cholesky.
//!
//! Reduced models produced by SyMPVL are small (tens of states), so a simple,
//! cache-friendly dense kernel is both sufficient and easy to verify.

use crate::error::Error;
use std::fmt;
use std::ops::{Index, IndexMut};

/// A row-major dense matrix of `f64`.
///
/// # Example
///
/// ```
/// # use pcv_sparse::Dense;
/// let a = Dense::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// assert_eq!(a[(1, 0)], 3.0);
/// assert_eq!(a.matvec(&[1.0, 1.0]), vec![3.0, 7.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dense {
    nrows: usize,
    ncols: usize,
    data: Vec<f64>,
}

impl Dense {
    /// Create an `nrows x ncols` matrix of zeros.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Dense { nrows, ncols, data: vec![0.0; nrows * ncols] }
    }

    /// Create the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Dense::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Create a matrix by evaluating `f(row, col)` at every entry.
    pub fn from_fn(nrows: usize, ncols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Dense::zeros(nrows, ncols);
        for r in 0..nrows {
            for c in 0..ncols {
                m[(r, c)] = f(r, c);
            }
        }
        m
    }

    /// Create a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        let mut m = Dense::zeros(nrows, ncols);
        for (r, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), ncols, "from_rows: ragged rows");
            m.row_mut(r).copy_from_slice(row);
        }
        m
    }

    /// Create a square diagonal matrix from its diagonal entries.
    pub fn from_diag(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Dense::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// A view of row `r`.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.ncols..(r + 1) * self.ncols]
    }

    /// A mutable view of row `r`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.ncols..(r + 1) * self.ncols]
    }

    /// Copy of column `c`.
    pub fn col(&self, c: usize) -> Vec<f64> {
        (0..self.nrows).map(|r| self[(r, c)]).collect()
    }

    /// Set column `c` from a slice.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != nrows`.
    pub fn set_col(&mut self, c: usize, v: &[f64]) {
        assert_eq!(v.len(), self.nrows, "set_col: length mismatch");
        for (r, &val) in v.iter().enumerate() {
            self[(r, c)] = val;
        }
    }

    /// The transpose as a new matrix.
    pub fn transpose(&self) -> Dense {
        Dense::from_fn(self.ncols, self.nrows, |r, c| self[(c, r)])
    }

    /// Matrix–vector product `A x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != ncols`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.ncols, "matvec: length mismatch");
        (0..self.nrows).map(|r| self.row(r).iter().zip(x).map(|(a, b)| a * b).sum()).collect()
    }

    /// Transposed matrix–vector product `Aᵀ x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != nrows`.
    pub fn matvec_t(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.nrows, "matvec_t: length mismatch");
        let mut y = vec![0.0; self.ncols];
        for r in 0..self.nrows {
            let xr = x[r];
            for (c, yc) in y.iter_mut().enumerate() {
                *yc += self[(r, c)] * xr;
            }
        }
        y
    }

    /// Matrix product `A B`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] if inner dimensions disagree.
    pub fn matmul(&self, b: &Dense) -> Result<Dense, Error> {
        if self.ncols != b.nrows {
            return Err(Error::DimensionMismatch {
                op: "matmul",
                expected: (self.ncols, b.ncols),
                found: (b.nrows, b.ncols),
            });
        }
        let mut out = Dense::zeros(self.nrows, b.ncols);
        for r in 0..self.nrows {
            for k in 0..self.ncols {
                let aik = self[(r, k)];
                if aik == 0.0 {
                    continue;
                }
                for c in 0..b.ncols {
                    out[(r, c)] += aik * b[(k, c)];
                }
            }
        }
        Ok(out)
    }

    /// Frobenius norm.
    pub fn norm_frobenius(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Symmetrize in place: `A ← (A + Aᵀ)/2`. Useful to remove rounding
    /// asymmetry before an eigendecomposition.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn symmetrize(&mut self) {
        assert_eq!(self.nrows, self.ncols, "symmetrize: square required");
        for r in 0..self.nrows {
            for c in (r + 1)..self.ncols {
                let avg = 0.5 * (self[(r, c)] + self[(c, r)]);
                self[(r, c)] = avg;
                self[(c, r)] = avg;
            }
        }
    }

    /// LU-factorize (with partial pivoting) and solve `A x = b` for a single
    /// right-hand side.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotSquare`], [`Error::DimensionMismatch`] or
    /// [`Error::Singular`].
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, Error> {
        let lu = DenseLu::factor(self.clone())?;
        if b.len() != lu.n {
            return Err(Error::DimensionMismatch {
                op: "solve",
                expected: (lu.n, 1),
                found: (b.len(), 1),
            });
        }
        Ok(lu.solve(b))
    }
}

impl Index<(usize, usize)> for Dense {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.nrows && c < self.ncols);
        &self.data[r * self.ncols + c]
    }
}

impl IndexMut<(usize, usize)> for Dense {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.nrows && c < self.ncols);
        &mut self.data[r * self.ncols + c]
    }
}

impl fmt::Display for Dense {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.nrows {
            for c in 0..self.ncols {
                write!(f, "{:>12.4e} ", self[(r, c)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// An LU factorization with partial pivoting of a square dense matrix.
///
/// # Example
///
/// ```
/// # use pcv_sparse::dense::{Dense, DenseLu};
/// # fn main() -> Result<(), pcv_sparse::Error> {
/// let a = Dense::from_rows(&[&[0.0, 2.0], &[3.0, 1.0]]);
/// let lu = DenseLu::factor(a)?;
/// let x = lu.solve(&[2.0, 4.0]);
/// assert!((x[0] - 1.0).abs() < 1e-14 && (x[1] - 1.0).abs() < 1e-14);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DenseLu {
    n: usize,
    /// Combined L (unit lower, below diagonal) and U (upper) factors.
    lu: Dense,
    /// Row permutation: `perm[k]` is the original row in pivot position `k`.
    perm: Vec<usize>,
}

impl DenseLu {
    /// Factor a square matrix, consuming it.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotSquare`] if the matrix is rectangular, or
    /// [`Error::Singular`] if no usable pivot exists in some column.
    pub fn factor(mut a: Dense) -> Result<Self, Error> {
        if a.nrows != a.ncols {
            return Err(Error::NotSquare { nrows: a.nrows, ncols: a.ncols });
        }
        let n = a.nrows;
        let mut perm = vec![0; n];
        lu_factor_in_place(&mut a.data, &mut perm)?;
        Ok(DenseLu { n, lu: a, perm })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Solve `A x = b`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` differs from the factored dimension.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; self.n];
        lu_solve_into(&self.lu.data, &self.perm, b, &mut x);
        x
    }
}

/// LU-factorize, in place and with partial pivoting, the row-major `n x n`
/// matrix `a` (`n = perm.len()`): on return `a` holds the unit-lower `L`
/// below the diagonal and `U` on and above it, and `perm[k]` is the original
/// row in pivot position `k`. [`DenseLu::factor`] is this function on an
/// owned matrix; callers that refactor every iteration keep `a` and `perm`
/// and allocate nothing.
///
/// # Errors
///
/// Returns [`Error::Singular`] if no usable pivot exists in some column.
///
/// # Panics
///
/// Panics if `a.len() != perm.len()²`.
pub fn lu_factor_in_place(a: &mut [f64], perm: &mut [usize]) -> Result<(), Error> {
    let n = perm.len();
    assert_eq!(a.len(), n * n, "lu_factor_in_place: square required");
    for (k, pk) in perm.iter_mut().enumerate() {
        *pk = k;
    }
    for k in 0..n {
        // Partial pivoting: pick the largest entry on or below diagonal.
        let mut piv_row = k;
        let mut piv_val = a[k * n + k].abs();
        for r in (k + 1)..n {
            let v = a[r * n + k].abs();
            if v > piv_val {
                piv_val = v;
                piv_row = r;
            }
        }
        if piv_val == 0.0 {
            return Err(Error::Singular { col: k });
        }
        let (top, below) = a.split_at_mut((k + 1) * n);
        let pivot_row = &mut top[k * n..];
        if piv_row != k {
            perm.swap(k, piv_row);
            pivot_row.swap_with_slice(&mut below[(piv_row - k - 1) * n..][..n]);
        }
        let pivot = pivot_row[k];
        for row in below.chunks_exact_mut(n) {
            let m = row[k] / pivot;
            row[k] = m;
            if m != 0.0 {
                for (rc, &pc) in row[k + 1..].iter_mut().zip(&pivot_row[k + 1..]) {
                    *rc -= m * pc;
                }
            }
        }
    }
    Ok(())
}

/// Solve `A x = b` into `x` from the factors [`lu_factor_in_place`] left in
/// `lu` and `perm`.
///
/// # Panics
///
/// Panics if `b`, `x` or `lu` disagree with `perm.len()`.
pub fn lu_solve_into(lu: &[f64], perm: &[usize], b: &[f64], x: &mut [f64]) {
    let n = perm.len();
    assert_eq!(b.len(), n, "solve: length mismatch");
    assert_eq!(x.len(), n, "solve: length mismatch");
    assert_eq!(lu.len(), n * n, "solve: factor size mismatch");
    // Apply permutation, then forward/backward substitution.
    for (xk, &p) in x.iter_mut().zip(perm) {
        *xk = b[p];
    }
    for r in 1..n {
        let mut sum = x[r];
        for (&l, &xc) in lu[r * n..r * n + r].iter().zip(x.iter()) {
            sum -= l * xc;
        }
        x[r] = sum;
    }
    for r in (0..n).rev() {
        let mut sum = x[r];
        for (&u, &xc) in lu[r * n + r + 1..(r + 1) * n].iter().zip(&x[r + 1..]) {
            sum -= u * xc;
        }
        x[r] = sum / lu[r * n + r];
    }
}

/// A dense Cholesky factorization `A = L Lᵀ` of a small SPD matrix, used to
/// re-symmetrize PRIMA-projected pencils.
///
/// # Example
///
/// ```
/// # use pcv_sparse::dense::{Dense, DenseCholesky};
/// # fn main() -> Result<(), pcv_sparse::Error> {
/// let a = Dense::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
/// let chol = DenseCholesky::factor(&a)?;
/// let x = chol.solve(&[8.0, 7.0]);
/// assert!((x[0] - 1.25).abs() < 1e-12 && (x[1] - 1.5).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DenseCholesky {
    n: usize,
    /// Lower-triangular factor (upper part zeroed).
    l: Dense,
}

impl DenseCholesky {
    /// Factor a symmetric positive definite matrix.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotSquare`] or [`Error::NotPositiveDefinite`].
    pub fn factor(a: &Dense) -> Result<Self, Error> {
        if a.nrows() != a.ncols() {
            return Err(Error::NotSquare { nrows: a.nrows(), ncols: a.ncols() });
        }
        let n = a.nrows();
        let mut l = Dense::zeros(n, n);
        for j in 0..n {
            let mut d = a[(j, j)];
            for k in 0..j {
                d -= l[(j, k)] * l[(j, k)];
            }
            if d <= 0.0 || !d.is_finite() {
                return Err(Error::NotPositiveDefinite { col: j, pivot: d });
            }
            let ljj = d.sqrt();
            l[(j, j)] = ljj;
            for i in (j + 1)..n {
                let mut s = a[(i, j)];
                for k in 0..j {
                    s -= l[(i, k)] * l[(j, k)];
                }
                l[(i, j)] = s / ljj;
            }
        }
        Ok(DenseCholesky { n, l })
    }

    /// Dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// The lower-triangular factor.
    pub fn l(&self) -> &Dense {
        &self.l
    }

    /// Solve `A x = b`.
    ///
    /// # Panics
    ///
    /// Panics on a length mismatch.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = b.to_vec();
        self.solve_lower_in_place(&mut x);
        self.solve_lower_t_in_place(&mut x);
        x
    }

    /// Forward substitution `L y = b` in place.
    ///
    /// # Panics
    ///
    /// Panics on a length mismatch.
    pub fn solve_lower_in_place(&self, x: &mut [f64]) {
        assert_eq!(x.len(), self.n, "solve_lower: length mismatch");
        for i in 0..self.n {
            let mut s = x[i];
            for (k, &xk) in x.iter().enumerate().take(i) {
                s -= self.l[(i, k)] * xk;
            }
            x[i] = s / self.l[(i, i)];
        }
    }

    /// Backward substitution `Lᵀ x = b` in place.
    ///
    /// # Panics
    ///
    /// Panics on a length mismatch.
    pub fn solve_lower_t_in_place(&self, x: &mut [f64]) {
        assert_eq!(x.len(), self.n, "solve_lower_t: length mismatch");
        for i in (0..self.n).rev() {
            let mut s = x[i];
            for (k, &xk) in x.iter().enumerate().skip(i + 1) {
                s -= self.l[(k, i)] * xk;
            }
            x[i] = s / self.l[(i, i)];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} vs {b}");
    }

    #[test]
    fn constructors_and_indexing() {
        let a = Dense::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.nrows(), 2);
        assert_eq!(a.ncols(), 2);
        assert_eq!(a[(0, 1)], 2.0);
        assert_eq!(Dense::identity(3)[(2, 2)], 1.0);
        assert_eq!(Dense::from_diag(&[5.0, 6.0])[(1, 1)], 6.0);
        assert_eq!(Dense::from_fn(2, 2, |r, c| (r + c) as f64)[(1, 1)], 2.0);
    }

    #[test]
    fn transpose_and_products() {
        let a = Dense::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let at = a.transpose();
        assert_eq!(at.nrows(), 3);
        assert_eq!(at[(2, 1)], 6.0);
        assert_eq!(a.matvec(&[1.0, 0.0, -1.0]), vec![-2.0, -2.0]);
        assert_eq!(a.matvec_t(&[1.0, 1.0]), vec![5.0, 7.0, 9.0]);
        let aat = a.matmul(&at).unwrap();
        assert_eq!(aat[(0, 0)], 14.0);
        assert_eq!(aat[(1, 0)], 32.0);
    }

    #[test]
    fn matmul_rejects_bad_dims() {
        let a = Dense::zeros(2, 3);
        let b = Dense::zeros(2, 3);
        assert!(matches!(a.matmul(&b), Err(Error::DimensionMismatch { .. })));
    }

    #[test]
    fn lu_solves_random_system() {
        let a = Dense::from_rows(&[&[2.0, 1.0, 1.0], &[4.0, -6.0, 0.0], &[-2.0, 7.0, 2.0]]);
        let xref = [1.0, -2.0, 3.0];
        let b = a.matvec(&xref);
        let x = a.solve(&b).unwrap();
        for (xi, ri) in x.iter().zip(&xref) {
            assert_close(*xi, *ri, 1e-12);
        }
    }

    #[test]
    fn lu_pivots_on_zero_diagonal() {
        let a = Dense::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = a.solve(&[2.0, 3.0]).unwrap();
        assert_close(x[0], 3.0, 1e-15);
        assert_close(x[1], 2.0, 1e-15);
    }

    #[test]
    fn lu_detects_singularity() {
        let a = Dense::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(matches!(a.solve(&[1.0, 1.0]), Err(Error::Singular { .. })));
    }

    #[test]
    fn in_place_lu_reuses_its_buffers() {
        // A workspace refactored every iteration: the second factorization
        // must not see the first one's factors or pivot order.
        let first = [0.0, 2.0, 3.0, 1.0];
        let second = [2.0, 1.0, 1.0, 4.0, -6.0, 0.0, -2.0, 7.0, 2.0];
        let mut a = first.to_vec();
        let mut perm = vec![0; 2];
        lu_factor_in_place(&mut a, &mut perm).unwrap();
        assert_eq!(perm, [1, 0]);
        a.clear();
        a.extend_from_slice(&second);
        perm.resize(3, 7);
        lu_factor_in_place(&mut a, &mut perm).unwrap();
        let b = [1.0, -2.0, 3.0];
        let mut x = [0.0; 3];
        lu_solve_into(&a, &perm, &b, &mut x);
        let fresh = DenseLu::factor(Dense { nrows: 3, ncols: 3, data: second.to_vec() }).unwrap();
        assert_eq!(x.to_vec(), fresh.solve(&b));
        assert_eq!(perm, fresh.perm);
        let mut singular = [1.0, 2.0, 2.0, 4.0];
        let err = lu_factor_in_place(&mut singular, &mut [0; 2]);
        assert!(matches!(err, Err(Error::Singular { col: 1 })));
    }

    #[test]
    fn symmetrize_averages() {
        let mut a = Dense::from_rows(&[&[1.0, 2.0], &[4.0, 3.0]]);
        a.symmetrize();
        assert_eq!(a[(0, 1)], 3.0);
        assert_eq!(a[(1, 0)], 3.0);
    }

    #[test]
    fn dense_cholesky_reconstructs_and_solves() {
        let a = Dense::from_rows(&[&[4.0, 1.0, 0.5], &[1.0, 3.0, -0.2], &[0.5, -0.2, 2.0]]);
        let chol = DenseCholesky::factor(&a).unwrap();
        let l = chol.l();
        let llt = l.matmul(&l.transpose()).unwrap();
        for r in 0..3 {
            for c in 0..3 {
                assert_close(llt[(r, c)], a[(r, c)], 1e-12);
            }
        }
        let xref = [1.0, -2.0, 0.5];
        let b = a.matvec(&xref);
        let x = chol.solve(&b);
        for (xi, ri) in x.iter().zip(&xref) {
            assert_close(*xi, *ri, 1e-12);
        }
        assert_eq!(chol.dim(), 3);
        // Triangular halves invert each other.
        let mut v = vec![1.0, 2.0, 3.0];
        let orig = v.clone();
        let fwd = l.matvec(&v);
        v.copy_from_slice(&fwd);
        chol.solve_lower_in_place(&mut v);
        for (vi, oi) in v.iter().zip(&orig) {
            assert_close(*vi, *oi, 1e-12);
        }
    }

    #[test]
    fn dense_cholesky_rejects_indefinite() {
        let a = Dense::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]);
        assert!(matches!(DenseCholesky::factor(&a), Err(Error::NotPositiveDefinite { .. })));
        assert!(matches!(DenseCholesky::factor(&Dense::zeros(2, 3)), Err(Error::NotSquare { .. })));
    }

    #[test]
    fn display_is_nonempty() {
        let a = Dense::zeros(1, 1);
        assert!(!format!("{a}").is_empty());
        assert!(!format!("{a:?}").is_empty());
    }
}
