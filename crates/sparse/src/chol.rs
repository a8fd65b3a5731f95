//! Sparse Cholesky factorization `A = L Lᵀ` for symmetric positive definite
//! matrices, using the classic up-looking algorithm driven by the
//! elimination tree.
//!
//! This is the symmetrization engine of SyMPVL: the MNA conductance matrix
//! `G` of an RC cluster is SPD, and the reduction needs repeated triangular
//! solves with `F = Lᵀ` (so that `G = FᵀF`).

use crate::error::Error;
use crate::panel;
use crate::sparse::Csc;

const NONE: usize = usize::MAX;

/// Compute the elimination tree of a symmetric matrix given in CSC form
/// (only the upper-triangular entries are consulted).
///
/// Returns `parent` with `parent[k] == usize::MAX` for roots.
pub fn etree(a: &Csc) -> Vec<usize> {
    let n = a.ncols();
    let mut parent = vec![NONE; n];
    let mut ancestor = vec![NONE; n];
    for k in 0..n {
        for (i0, _) in a.col_iter(k) {
            let mut i = i0;
            // Traverse from i toward the root, compressing paths.
            while i != NONE && i < k {
                let inext = ancestor[i];
                ancestor[i] = k;
                if inext == NONE {
                    parent[i] = k;
                }
                i = inext;
            }
        }
    }
    parent
}

/// Nonzero pattern of row `k` of `L` (the *ereach* of column `k`): columns
/// `j < k` such that `L(k,j) != 0`, appended to `patterns` in topological
/// order suitable for the up-looking triangular solve.
fn ereach(
    a: &Csc,
    k: usize,
    parent: &[usize],
    visited: &mut [bool],
    stack: &mut Vec<usize>,
    patterns: &mut Vec<usize>,
) {
    stack.clear();
    visited[k] = true;
    for (i0, _) in a.col_iter(k) {
        if i0 > k {
            continue;
        }
        let mut i = i0;
        let path_start = stack.len();
        while !visited[i] {
            stack.push(i);
            visited[i] = true;
            i = parent[i];
        }
        // Reverse the freshly discovered path so ancestors come later.
        stack[path_start..].reverse();
    }
    // stack currently holds disjoint ascending paths; a global sort by node
    // index yields a valid topological order for the etree (children < parents
    // in the natural ordering of a Cholesky etree).
    stack.sort_unstable();
    for &j in stack.iter() {
        visited[j] = false;
    }
    visited[k] = false;
    patterns.extend_from_slice(stack);
}

/// A sparse Cholesky factorization of an SPD matrix in natural ordering.
///
/// Apply a fill-reducing permutation (e.g. [`crate::order::rcm`]) to the
/// matrix *before* factoring if fill is a concern; keeping the permutation
/// external lets SyMPVL keep `G`, `C` and `B` in one consistent ordering.
///
/// # Example
///
/// ```
/// # use pcv_sparse::{Triplets, SparseCholesky};
/// # fn main() -> Result<(), pcv_sparse::Error> {
/// let mut t = Triplets::new(2, 2);
/// t.push(0, 0, 2.0); t.push(1, 1, 3.0); t.push(0, 1, 1.0); t.push(1, 0, 1.0);
/// let chol = SparseCholesky::factor(&t.to_csc())?;
/// let x = chol.solve(&[3.0, 4.0]);
/// assert!((2.0 * x[0] + x[1] - 3.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SparseCholesky {
    n: usize,
    /// Lower-triangular factor, CSC, diagonal first in each column.
    l: Csc,
}

impl SparseCholesky {
    /// Factor a symmetric positive definite matrix.
    ///
    /// Only the upper triangle (including the diagonal) of `a` is read, so a
    /// fully stored symmetric matrix works as-is.
    ///
    /// # Errors
    ///
    /// * [`Error::NotSquare`] if `a` is rectangular.
    /// * [`Error::NotPositiveDefinite`] if a non-positive pivot appears.
    pub fn factor(a: &Csc) -> Result<Self, Error> {
        if a.nrows() != a.ncols() {
            return Err(Error::NotSquare { nrows: a.nrows(), ncols: a.ncols() });
        }
        let _span = pcv_trace::span("sparse", "chol_factor");
        pcv_trace::count("sparse.chol.factors", 1);
        pcv_trace::value("sparse.chol.dim", a.ncols() as u64);
        let n = a.ncols();
        let parent = etree(a);
        let mut visited = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();

        // Symbolic pass: column counts of L (excluding the diagonal), and
        // the row patterns one after another: row k's is
        // `patterns[pat_ptr[k]..pat_ptr[k + 1]]`.
        let mut counts = vec![1usize; n]; // 1 for each diagonal
        let mut patterns: Vec<usize> = Vec::with_capacity(a.nnz());
        let mut pat_ptr = Vec::with_capacity(n + 1);
        pat_ptr.push(0);
        for k in 0..n {
            ereach(a, k, &parent, &mut visited, &mut stack, &mut patterns);
            for &j in &patterns[pat_ptr[k]..] {
                counts[j] += 1;
            }
            pat_ptr.push(patterns.len());
        }
        let mut colptr = vec![0usize; n + 1];
        for k in 0..n {
            colptr[k + 1] = colptr[k] + counts[k];
        }
        let nnz = colptr[n];
        let mut rowidx = vec![0usize; nnz];
        let mut values = vec![0.0f64; nnz];
        // `fill[j]` is the next free slot in column j of L.
        let mut fill: Vec<usize> = colptr[..n].to_vec();

        // Numeric up-looking pass: compute row k of L for each k.
        let mut x = vec![0.0f64; n];
        for (k, pat) in pat_ptr.windows(2).map(|w| &patterns[w[0]..w[1]]).enumerate() {
            // Scatter the upper-triangular part of A(:,k).
            let mut d = 0.0;
            for (i, v) in a.col_iter(k) {
                if i < k {
                    x[i] = v;
                } else if i == k {
                    d = v;
                }
            }
            for &j in pat {
                // L(k,j) = x[j] / L(j,j); L(j,j) is the first entry of col j.
                let ljj = values[colptr[j]];
                let lkj = x[j] / ljj;
                x[j] = 0.0;
                // x -= L(:,j) * lkj for rows below j already stored in col j.
                let below = colptr[j] + 1..fill[j];
                for (&r, &l) in rowidx[below.clone()].iter().zip(&values[below]) {
                    x[r] -= l * lkj;
                }
                d -= lkj * lkj;
                let p = fill[j];
                fill[j] += 1;
                rowidx[p] = k;
                values[p] = lkj;
            }
            if d <= 0.0 || !d.is_finite() {
                return Err(Error::NotPositiveDefinite { col: k, pivot: d });
            }
            let p = fill[k];
            fill[k] += 1;
            rowidx[p] = k;
            values[p] = d.sqrt();
            // Note: the diagonal is written *after* the off-diagonals of
            // earlier columns but is always the first slot of column k,
            // because fill[k] started at colptr[k] and column k receives its
            // first write here (row k is the smallest row in column k).
        }
        debug_assert_eq!(fill, colptr[1..].to_vec());

        // Columns may have been filled out of order within each column?
        // No: rows are appended in increasing k, so each column's row indices
        // are strictly increasing. But the diagonal of column k is appended at
        // step k while off-diagonal entries (rows > k) are appended at later
        // steps, so ordering is: diagonal first, then increasing rows. Good.
        let l = Csc::from_parts(n, n, colptr, rowidx, values);
        Ok(SparseCholesky { n, l })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// The lower-triangular factor `L` (diagonal stored first per column).
    pub fn l(&self) -> &Csc {
        &self.l
    }

    /// Number of nonzeros in `L`.
    pub fn nnz(&self) -> usize {
        self.l.nnz()
    }

    /// Solve `A x = b` via `L Lᵀ x = b`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` differs from the matrix dimension.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        pcv_trace::count("sparse.chol.solves", 1);
        let mut x = b.to_vec();
        self.solve_lower_in_place(&mut x);
        self.solve_lower_t_in_place(&mut x);
        x
    }

    /// Solve `L y = b` in place (forward substitution) — on one vector or,
    /// lane by lane with the same bits, on a [panel] of them.
    ///
    /// In SyMPVL terms, with `F = Lᵀ` this computes `F⁻ᵀ b`.
    ///
    /// # Panics
    ///
    /// Panics if the length is not a multiple of the matrix dimension.
    pub fn solve_lower_in_place(&self, x: &mut [f64]) {
        panel::solve_lower(&self.l, self.right_hand_sides(x), x);
    }

    /// Solve `Lᵀ x = b` in place (backward substitution) — on one vector or,
    /// lane by lane with the same bits, on a [panel] of them.
    ///
    /// In SyMPVL terms, with `F = Lᵀ` this computes `F⁻¹ b`.
    ///
    /// # Panics
    ///
    /// Panics if the length is not a multiple of the matrix dimension.
    pub fn solve_lower_t_in_place(&self, x: &mut [f64]) {
        panel::solve_lower_t(&self.l, self.right_hand_sides(x), x);
    }

    /// How many vectors of this dimension `x` holds, counted as solves.
    fn right_hand_sides(&self, x: &[f64]) -> usize {
        assert_eq!(x.len() % self.n.max(1), 0, "triangular solve: length mismatch");
        let k = x.len() / self.n.max(1);
        pcv_trace::count("sparse.chol.tri_solves", k as u64);
        k
    }

    /// Multiply `y = Fᵀ x = L x` (lower-triangular product).
    ///
    /// # Panics
    ///
    /// Panics if the length differs from the matrix dimension.
    pub fn mul_lower(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n, "mul_lower: length mismatch");
        self.l.matvec(x)
    }

    /// Multiply `y = F x = Lᵀ x` (upper-triangular product).
    ///
    /// # Panics
    ///
    /// Panics if the length differs from the matrix dimension.
    pub fn mul_lower_t(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n, "mul_lower_t: length mismatch");
        self.l.matvec_t(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::Triplets;

    fn spd_tridiag(n: usize) -> Csc {
        // Standard SPD tridiagonal [2 -1; -1 2 ...], like a resistor chain.
        let mut t = Triplets::new(n, n);
        for i in 0..n {
            t.push(i, i, 2.0);
            if i + 1 < n {
                t.push(i, i + 1, -1.0);
                t.push(i + 1, i, -1.0);
            }
        }
        t.to_csc()
    }

    #[test]
    fn etree_of_tridiagonal_is_a_chain() {
        let a = spd_tridiag(5);
        let p = etree(&a);
        assert_eq!(p, vec![1, 2, 3, 4, usize::MAX]);
    }

    #[test]
    fn factor_reconstructs_matrix() {
        let a = spd_tridiag(8);
        let chol = SparseCholesky::factor(&a).unwrap();
        let l = chol.l().to_dense();
        let llt = l.matmul(&l.transpose()).unwrap();
        let ad = a.to_dense();
        for r in 0..8 {
            for c in 0..8 {
                assert!((llt[(r, c)] - ad[(r, c)]).abs() < 1e-12, "entry {r},{c}");
            }
        }
    }

    #[test]
    fn solve_matches_known_solution() {
        let a = spd_tridiag(50);
        let chol = SparseCholesky::factor(&a).unwrap();
        let xref: Vec<f64> = (0..50).map(|i| (i as f64 * 0.37).sin()).collect();
        let b = a.matvec(&xref);
        let x = chol.solve(&b);
        for (xi, ri) in x.iter().zip(&xref) {
            assert!((xi - ri).abs() < 1e-10);
        }
    }

    #[test]
    fn factor_with_fill_in() {
        // Arrow matrix: dense first row/col forces fill-in handling.
        let n = 6;
        let mut t = Triplets::new(n, n);
        for i in 0..n {
            t.push(i, i, 10.0);
        }
        for i in 1..n {
            t.push(0, i, 1.0);
            t.push(i, 0, 1.0);
        }
        // Extra off-diagonal to create an interior path.
        t.push(2, 4, 0.5);
        t.push(4, 2, 0.5);
        let a = t.to_csc();
        let chol = SparseCholesky::factor(&a).unwrap();
        let l = chol.l().to_dense();
        let llt = l.matmul(&l.transpose()).unwrap();
        let ad = a.to_dense();
        for r in 0..n {
            for c in 0..n {
                assert!((llt[(r, c)] - ad[(r, c)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn rejects_indefinite() {
        let mut t = Triplets::new(2, 2);
        t.push(0, 0, 1.0);
        t.push(1, 1, -1.0);
        let err = SparseCholesky::factor(&t.to_csc()).unwrap_err();
        assert!(matches!(err, Error::NotPositiveDefinite { col: 1, .. }));
    }

    #[test]
    fn rejects_rectangular() {
        let a = Csc::zeros(2, 3);
        assert!(matches!(SparseCholesky::factor(&a), Err(Error::NotSquare { nrows: 2, ncols: 3 })));
    }

    #[test]
    fn triangular_ops_are_inverses() {
        let a = spd_tridiag(10);
        let chol = SparseCholesky::factor(&a).unwrap();
        let v: Vec<f64> = (0..10).map(|i| 1.0 + i as f64).collect();
        // F⁻¹ (F v) = v with F = Lᵀ.
        let fv = chol.mul_lower_t(&v);
        let mut back = fv.clone();
        chol.solve_lower_t_in_place(&mut back);
        for (bi, vi) in back.iter().zip(&v) {
            assert!((bi - vi).abs() < 1e-12);
        }
        // F⁻ᵀ (Fᵀ v) = v.
        let ftv = chol.mul_lower(&v);
        let mut back2 = ftv.clone();
        chol.solve_lower_in_place(&mut back2);
        for (bi, vi) in back2.iter().zip(&v) {
            assert!((bi - vi).abs() < 1e-12);
        }
    }

    #[test]
    fn diagonal_is_first_entry_per_column() {
        let a = spd_tridiag(6);
        let chol = SparseCholesky::factor(&a).unwrap();
        let l = chol.l();
        for j in 0..6 {
            assert_eq!(l.rowidx()[l.colptr()[j]], j);
        }
    }
}
