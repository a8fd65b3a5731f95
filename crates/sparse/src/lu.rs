//! Sparse LU factorization with partial pivoting, in the left-looking
//! Gilbert–Peierls style.
//!
//! This is the linear-solve engine of the SPICE substrate: MNA Jacobians are
//! square, sparse and unsymmetric (once MOSFET stamps are included), so
//! Cholesky does not apply. Partial pivoting with a diagonal-preference
//! threshold keeps the factorization stable while limiting fill on the
//! diagonally dominant matrices circuit simulation produces.

use crate::error::Error;
use crate::sparse::Csc;

const NONE: usize = usize::MAX;

/// A sparse LU factorization `P A = L U`.
///
/// # Example
///
/// ```
/// # use pcv_sparse::{Triplets, SparseLu};
/// # fn main() -> Result<(), pcv_sparse::Error> {
/// let mut t = Triplets::new(2, 2);
/// t.push(0, 0, 0.0); t.push(0, 1, 2.0);
/// t.push(1, 0, 3.0); t.push(1, 1, 1.0);
/// let lu = SparseLu::factor(&t.to_csc(), 1e-3)?;
/// let x = lu.solve(&[2.0, 4.0]);
/// assert!((x[0] - 1.0).abs() < 1e-14 && (x[1] - 1.0).abs() < 1e-14);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct SparseLu {
    n: usize,
    /// Unit lower-triangular factor (diagonal 1.0 stored first per column),
    /// with row indices in pivot order, unsorted below the diagonal.
    l: Cols,
    /// Upper-triangular factor (diagonal stored last per column).
    u: Cols,
    /// `pinv[original_row] = pivot_position`.
    pinv: Vec<usize>,
    /// Scratch of [`refactor`](Self::refactor), kept so that refactoring
    /// allocates only when a buffer has to grow.
    x: Vec<f64>,
    visited: Vec<bool>,
    reach: Vec<usize>,
    dfs_stack: Vec<(usize, usize)>,
    ucol: Vec<(usize, f64)>,
}

/// Growable CSC-like column store holding L or U.
#[derive(Debug, Clone, Default)]
struct Cols {
    colptr: Vec<usize>,
    rowidx: Vec<usize>,
    values: Vec<f64>,
}

impl Cols {
    fn clear(&mut self) {
        self.colptr.clear();
        self.rowidx.clear();
        self.values.clear();
    }
}

impl SparseLu {
    /// Factor a square sparse matrix.
    ///
    /// `diag_threshold` controls diagonal-preference pivoting: the diagonal
    /// entry is chosen as pivot whenever its magnitude is at least
    /// `diag_threshold` times the largest candidate. Use `1.0` for strict
    /// partial pivoting, smaller values (e.g. `1e-3`) to prefer sparsity on
    /// diagonally dominant systems.
    ///
    /// # Errors
    ///
    /// * [`Error::NotSquare`] for rectangular input.
    /// * [`Error::Singular`] if a column has no usable pivot.
    pub fn factor(a: &Csc, diag_threshold: f64) -> Result<Self, Error> {
        let mut lu = SparseLu::default();
        lu.refactor(a, diag_threshold)?;
        Ok(lu)
    }

    /// Factor `a` into this value's own buffers, replacing whatever it held:
    /// what [`factor`](Self::factor) computes, without its allocations once
    /// the buffers have grown to the problem. Nothing is assumed about the
    /// previous contents — `a` may differ in size and pattern from the last
    /// matrix, and the last call may have failed part-way.
    ///
    /// # Errors
    ///
    /// As [`factor`](Self::factor). After an error the value holds no
    /// factorization ([`dim`](Self::dim) is 0) until a later call succeeds.
    pub fn refactor(&mut self, a: &Csc, diag_threshold: f64) -> Result<(), Error> {
        if a.nrows() != a.ncols() {
            return Err(Error::NotSquare { nrows: a.nrows(), ncols: a.ncols() });
        }
        let _span = pcv_trace::span("sparse", "lu_factor");
        pcv_trace::count("sparse.lu.factors", 1);
        pcv_trace::value("sparse.lu.dim", a.ncols() as u64);
        let n = a.ncols();
        self.n = 0;
        let SparseLu { l: lb, u: ub, pinv, x, visited, reach, dfs_stack, ucol, .. } = self;
        lb.clear();
        ub.clear();
        pinv.clear();
        pinv.resize(n, NONE);
        // A call that failed mid-column leaves marks and partial sums
        // behind, and the diagonal-preference test reads `x[k]` whether or
        // not row k was reached: start clean.
        x.clear();
        x.resize(n, 0.0);
        visited.clear();
        visited.resize(n, false);

        for k in 0..n {
            lb.colptr.push(lb.rowidx.len());
            ub.colptr.push(ub.rowidx.len());

            // ---- Symbolic: Reach of pattern(A(:,k)) through L's graph. ----
            reach.clear();
            for (r0, _) in a.col_iter(k) {
                if visited[r0] {
                    continue;
                }
                // Iterative DFS from r0; nodes are *original* row indices.
                dfs_stack.push((r0, 0));
                visited[r0] = true;
                while let Some(&mut (node, ref mut edge)) = dfs_stack.last_mut() {
                    let jcol = pinv[node];
                    let advanced = if jcol != NONE {
                        // Explore column jcol of L (skip unit diagonal slot 0).
                        let start = lb.colptr[jcol];
                        let end = if jcol + 1 < lb.colptr.len() {
                            lb.colptr[jcol + 1]
                        } else {
                            lb.rowidx.len()
                        };
                        let mut next = None;
                        let mut e = *edge;
                        while start + 1 + e < end {
                            let child = lb.rowidx[start + 1 + e];
                            e += 1;
                            if !visited[child] {
                                next = Some(child);
                                break;
                            }
                        }
                        *edge = e;
                        next
                    } else {
                        None
                    };
                    match advanced {
                        Some(child) => {
                            visited[child] = true;
                            dfs_stack.push((child, 0));
                        }
                        None => {
                            dfs_stack.pop();
                            reach.push(node);
                        }
                    }
                }
            }
            // `reach` is in reverse topological order (postorder); the
            // numeric solve needs topological order, i.e. reversed postorder.
            reach.reverse();

            // ---- Numeric: x = L \ A(:,k) on the reach set. ----
            for &r in reach.iter() {
                x[r] = 0.0;
            }
            for (r, v) in a.col_iter(k) {
                x[r] = v;
            }
            for &node in reach.iter() {
                let jcol = pinv[node];
                if jcol == NONE {
                    continue;
                }
                let xj = x[node];
                if xj == 0.0 {
                    continue;
                }
                let start = lb.colptr[jcol];
                let end =
                    if jcol + 1 < lb.colptr.len() { lb.colptr[jcol + 1] } else { lb.rowidx.len() };
                for p in (start + 1)..end {
                    x[lb.rowidx[p]] -= lb.values[p] * xj;
                }
            }

            // ---- Pivot selection over non-yet-pivotal rows. ----
            let mut piv_row = NONE;
            let mut piv_mag = 0.0f64;
            for &r in reach.iter() {
                if pinv[r] == NONE {
                    let mag = x[r].abs();
                    if mag > piv_mag {
                        piv_mag = mag;
                        piv_row = r;
                    }
                }
            }
            if piv_row == NONE || piv_mag == 0.0 || !piv_mag.is_finite() {
                return Err(Error::Singular { col: k });
            }
            // Diagonal preference: keep A's row k as pivot when acceptable.
            if pinv[k] == NONE && x[k].abs() >= diag_threshold * piv_mag {
                piv_row = k;
            }
            let pivot = x[piv_row];
            pinv[piv_row] = k;

            // ---- Emit U column k (rows already pivotal) and L column k. ----
            // L column: unit diagonal first (in pivot order, the diagonal of
            // column k is pivot position k), then the remaining rows in
            // reach order — a column's entries each update a different row,
            // so their order never reaches the arithmetic. Row indices stay
            // *original* during factorization and are remapped at the end,
            // once every row has a pivot position.
            lb.rowidx.push(piv_row);
            lb.values.push(1.0);
            // U rows are pivot positions; collect then sort for CSC validity.
            ucol.clear();
            for &r in reach.iter() {
                visited[r] = false; // clear marks for next column
                let pr = pinv[r];
                if r == piv_row {
                    continue;
                }
                if pr != NONE && pr < k {
                    ucol.push((pr, x[r]));
                } else {
                    let lv = x[r] / pivot;
                    if lv != 0.0 {
                        lb.rowidx.push(r);
                        lb.values.push(lv);
                    }
                }
                x[r] = 0.0;
            }
            x[piv_row] = 0.0;
            ucol.push((k, pivot)); // diagonal of U stored last after sort
            ucol.sort_unstable_by_key(|&(r, _)| r);
            for &(r, v) in ucol.iter() {
                ub.rowidx.push(r);
                ub.values.push(v);
            }
        }
        lb.colptr.push(lb.rowidx.len());
        ub.colptr.push(ub.rowidx.len());

        // Remap L's row indices to pivot order.
        for r in lb.rowidx.iter_mut() {
            *r = pinv[*r];
        }
        self.n = n;
        Ok(())
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of nonzeros in `L` plus `U`.
    pub fn nnz(&self) -> usize {
        self.l.values.len() + self.u.values.len()
    }

    /// Solve `A x = b`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` differs from the matrix dimension.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; self.n];
        self.solve_into(b, &mut x);
        x
    }

    /// [`solve`](Self::solve) into a caller-provided buffer (every entry is
    /// overwritten).
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` or `x.len()` differs from the matrix dimension.
    pub fn solve_into(&self, b: &[f64], x: &mut [f64]) {
        assert_eq!(b.len(), self.n, "solve: length mismatch");
        assert_eq!(x.len(), self.n, "solve: output length mismatch");
        pcv_trace::count("sparse.lu.solves", 1);
        // x[pinv[r]] = b[r]  (apply row permutation)
        for (r, &br) in b.iter().enumerate() {
            x[self.pinv[r]] = br;
        }
        self.lsolve_in_place(x);
        self.usolve_in_place(x);
    }

    fn lsolve_in_place(&self, x: &mut [f64]) {
        let (cp, ri, vv) = (&self.l.colptr, &self.l.rowidx, &self.l.values);
        for j in 0..self.n {
            let xj = x[j]; // unit diagonal
            if xj == 0.0 {
                continue;
            }
            for p in cp[j]..cp[j + 1] {
                let r = ri[p];
                if r > j {
                    x[r] -= vv[p] * xj;
                }
            }
        }
    }

    fn usolve_in_place(&self, x: &mut [f64]) {
        let (cp, ri, vv) = (&self.u.colptr, &self.u.rowidx, &self.u.values);
        for j in (0..self.n).rev() {
            // Diagonal is the last entry of column j (largest row index <= j).
            let last = cp[j + 1] - 1;
            debug_assert_eq!(ri[last], j, "u diagonal placement");
            let xj = x[j] / vv[last];
            x[j] = xj;
            if xj == 0.0 {
                continue;
            }
            for p in cp[j]..last {
                x[ri[p]] -= vv[p] * xj;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::Triplets;
    use pcv_rng::Rng;

    /// The factorization as it was before `refactor`: every buffer fresh,
    /// `L` round-tripped through `Triplets` into a sorted `Csc`. Kept
    /// verbatim as the oracle `refactor` is compared against bit for bit.
    mod reference {
        use super::super::NONE;
        use crate::error::Error;
        use crate::sparse::Csc;

        pub struct RefLu {
            pub n: usize,
            pub l: Csc,
            pub u: Csc,
            pub pinv: Vec<usize>,
        }

        struct ColBuilder {
            colptr: Vec<usize>,
            rowidx: Vec<usize>,
            values: Vec<f64>,
        }

        impl ColBuilder {
            fn new(n: usize) -> Self {
                ColBuilder {
                    colptr: Vec::with_capacity(n + 1),
                    rowidx: Vec::new(),
                    values: Vec::new(),
                }
            }
        }

        pub fn factor(a: &Csc, diag_threshold: f64) -> Result<RefLu, Error> {
            if a.nrows() != a.ncols() {
                return Err(Error::NotSquare { nrows: a.nrows(), ncols: a.ncols() });
            }
            let n = a.ncols();
            let mut lb = ColBuilder::new(n);
            let mut ub = ColBuilder::new(n);
            let mut pinv = vec![NONE; n];

            let mut x = vec![0.0f64; n];
            let mut visited = vec![false; n];
            let mut reach: Vec<usize> = Vec::with_capacity(n);
            let mut dfs_stack: Vec<(usize, usize)> = Vec::with_capacity(n);

            for k in 0..n {
                lb.colptr.push(lb.rowidx.len());
                ub.colptr.push(ub.rowidx.len());

                reach.clear();
                for (r0, _) in a.col_iter(k) {
                    if visited[r0] {
                        continue;
                    }
                    dfs_stack.push((r0, 0));
                    visited[r0] = true;
                    while let Some(&mut (node, ref mut edge)) = dfs_stack.last_mut() {
                        let jcol = pinv[node];
                        let advanced = if jcol != NONE {
                            let start = lb.colptr[jcol];
                            let end = if jcol + 1 < lb.colptr.len() {
                                lb.colptr[jcol + 1]
                            } else {
                                lb.rowidx.len()
                            };
                            let mut next = None;
                            let mut e = *edge;
                            while start + 1 + e < end {
                                let child = lb.rowidx[start + 1 + e];
                                e += 1;
                                if !visited[child] {
                                    next = Some(child);
                                    break;
                                }
                            }
                            *edge = e;
                            next
                        } else {
                            None
                        };
                        match advanced {
                            Some(child) => {
                                visited[child] = true;
                                dfs_stack.push((child, 0));
                            }
                            None => {
                                dfs_stack.pop();
                                reach.push(node);
                            }
                        }
                    }
                }
                reach.reverse();

                for &r in &reach {
                    x[r] = 0.0;
                }
                for (r, v) in a.col_iter(k) {
                    x[r] = v;
                }
                for &node in &reach {
                    let jcol = pinv[node];
                    if jcol == NONE {
                        continue;
                    }
                    let xj = x[node];
                    if xj == 0.0 {
                        continue;
                    }
                    let start = lb.colptr[jcol];
                    let end = if jcol + 1 < lb.colptr.len() {
                        lb.colptr[jcol + 1]
                    } else {
                        lb.rowidx.len()
                    };
                    for p in (start + 1)..end {
                        x[lb.rowidx[p]] -= lb.values[p] * xj;
                    }
                }

                let mut piv_row = NONE;
                let mut piv_mag = 0.0f64;
                for &r in &reach {
                    if pinv[r] == NONE {
                        let mag = x[r].abs();
                        if mag > piv_mag {
                            piv_mag = mag;
                            piv_row = r;
                        }
                    }
                }
                if piv_row == NONE || piv_mag == 0.0 || !piv_mag.is_finite() {
                    return Err(Error::Singular { col: k });
                }
                if pinv[k] == NONE && x[k].abs() >= diag_threshold * piv_mag {
                    piv_row = k;
                }
                let pivot = x[piv_row];
                pinv[piv_row] = k;

                let mut ucol: Vec<(usize, f64)> = Vec::new();
                let mut lcol: Vec<(usize, f64)> = Vec::new();
                for &r in &reach {
                    visited[r] = false;
                    let pr = pinv[r];
                    if r == piv_row {
                        continue;
                    }
                    if pr != NONE && pr < k {
                        ucol.push((pr, x[r]));
                    } else {
                        let lv = x[r] / pivot;
                        if lv != 0.0 {
                            lcol.push((r, lv));
                        }
                    }
                    x[r] = 0.0;
                }
                x[piv_row] = 0.0;
                ucol.push((k, pivot));
                ucol.sort_unstable_by_key(|&(r, _)| r);
                for (r, v) in ucol {
                    ub.rowidx.push(r);
                    ub.values.push(v);
                }
                lb.rowidx.push(piv_row);
                lb.values.push(1.0);
                for (r, v) in lcol {
                    lb.rowidx.push(r);
                    lb.values.push(v);
                }
            }
            lb.colptr.push(lb.rowidx.len());
            ub.colptr.push(ub.rowidx.len());

            for r in lb.rowidx.iter_mut() {
                *r = pinv[*r];
            }
            let mut l_tr = crate::sparse::Triplets::new(n, n);
            for c in 0..n {
                for p in lb.colptr[c]..lb.colptr[c + 1] {
                    l_tr.push(lb.rowidx[p], c, lb.values[p]);
                }
            }
            let l = l_tr.to_csc();
            let u = Csc::from_parts(n, n, ub.colptr, ub.rowidx, ub.values);
            Ok(RefLu { n, l, u, pinv })
        }

        impl RefLu {
            pub fn solve(&self, b: &[f64]) -> Vec<f64> {
                let mut x = vec![0.0; self.n];
                for (r, &br) in b.iter().enumerate() {
                    x[self.pinv[r]] = br;
                }
                let (cp, ri, vv) = (self.l.colptr(), self.l.rowidx(), self.l.values());
                for j in 0..self.n {
                    let xj = x[j];
                    if xj == 0.0 {
                        continue;
                    }
                    for p in cp[j]..cp[j + 1] {
                        let r = ri[p];
                        if r > j {
                            x[r] -= vv[p] * xj;
                        }
                    }
                }
                let (cp, ri, vv) = (self.u.colptr(), self.u.rowidx(), self.u.values());
                for j in (0..self.n).rev() {
                    let last = cp[j + 1] - 1;
                    let xj = x[j] / vv[last];
                    x[j] = xj;
                    if xj == 0.0 {
                        continue;
                    }
                    for p in cp[j]..last {
                        x[ri[p]] -= vv[p] * xj;
                    }
                }
                x
            }
        }
    }

    /// A column store as sorted `(row, value bits)` columns, so `L` (kept in
    /// reach order) compares against the reference's sorted `Csc`.
    fn sorted_cols(colptr: &[usize], rowidx: &[usize], values: &[f64]) -> Vec<Vec<(usize, u64)>> {
        colptr
            .windows(2)
            .map(|w| {
                let mut col: Vec<_> =
                    (w[0]..w[1]).map(|p| (rowidx[p], values[p].to_bits())).collect();
                col.sort_unstable();
                col
            })
            .collect()
    }

    fn assert_same_as_reference(lu: &SparseLu, a: &Csc, thr: f64, rng: &mut Rng, what: &str) {
        let want = reference::factor(a, thr).unwrap();
        assert_eq!(lu.dim(), want.n, "{what}");
        assert_eq!(lu.pinv, want.pinv, "{what}: pinv");
        assert_eq!(lu.nnz(), want.l.nnz() + want.u.nnz(), "{what}: nnz");
        for (got, want, name) in [(&lu.l, &want.l, "L"), (&lu.u, &want.u, "U")] {
            assert_eq!(
                sorted_cols(&got.colptr, &got.rowidx, &got.values),
                sorted_cols(want.colptr(), want.rowidx(), want.values()),
                "{what}: {name}"
            );
        }
        // U must be stored sorted: the back-substitution finds the diagonal last.
        assert!(lu.u.colptr.windows(2).all(|w| lu.u.rowidx[w[0]..w[1]].is_sorted()), "{what}");
        let b: Vec<f64> = (0..a.ncols()).map(|_| rng.range_f64(-3.0, 3.0)).collect();
        let bits = |x: Vec<f64>| x.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        let mut into = vec![f64::NAN; a.ncols()];
        lu.solve_into(&b, &mut into);
        assert_eq!(bits(lu.solve(&b)), bits(want.solve(&b)), "{what}: solve");
        assert_eq!(bits(into), bits(want.solve(&b)), "{what}: solve_into");
    }

    /// A random unsymmetric matrix that needs off-diagonal pivots now and
    /// then: weak or missing diagonals, a few exact zeros pinned in the
    /// pattern, fill-producing off-diagonals.
    fn random_matrix(rng: &mut Rng, n: usize) -> Csc {
        let mut t = Triplets::new(n, n);
        for i in 0..n {
            match rng.range_usize(0, 6) {
                0 => {}
                1 => t.push(i, i, 1e-9),
                _ => t.push(i, i, rng.range_f64(1.0, 4.0)),
            }
            // A cycle keeps the matrix structurally nonsingular without
            // its diagonal.
            t.push(i, (i + 1) % n, rng.range_f64(0.5, 2.0));
            for _ in 0..rng.range_usize(0, 4) {
                let v = if rng.bool_with(0.1) { 0.0 } else { rng.range_f64(-1.0, 1.0) };
                t.push(rng.range_usize(0, n), i, v);
            }
        }
        t.to_csc()
    }

    /// Fails `Singular` at column `n / 2`, after real elimination work on
    /// the columns before it: that column repeats column 0, with one value
    /// throughout so the elimination cancels exactly.
    fn singular_midway(rng: &mut Rng, n: usize) -> Csc {
        let mut t = Triplets::new(n, n);
        let v = rng.range_f64(1.0, 2.0);
        for c in 0..n {
            if c == 0 || c == n / 2 {
                for r in (0..n).step_by(2) {
                    t.push(r, c, v);
                }
            } else {
                t.push(c, c, 3.0);
                t.push((c + 1) % n, c, -1.0);
            }
        }
        t.to_csc()
    }

    #[test]
    fn refactor_on_a_used_workspace_equals_a_fresh_reference_factor() {
        let mut rng = Rng::new(0x1u64 << 40 | 19);
        let mut lu = SparseLu::default();
        let mut failed = 0;
        for round in 0..300 {
            // Sizes jump up and down so buffers are both grown and over-long.
            let n = [1, 2, 3, 6, 17, 40, 5][round % 7] + rng.range_usize(0, 3);
            let thr = [1e-3, 1.0, 0.1][round % 3];
            if round % 5 == 4 && n >= 4 {
                let bad = singular_midway(&mut rng, n);
                let err = lu.refactor(&bad, thr).unwrap_err();
                let want = reference::factor(&bad, thr).err().expect("reference fails too");
                assert_eq!(format!("{err:?}"), format!("{want:?}"));
                assert!(matches!(err, Error::Singular { col } if col > 0), "{err:?}");
                assert_eq!(lu.dim(), 0, "a failed refactor holds no factorization");
                failed += 1;
            }
            let a = random_matrix(&mut rng, n);
            match reference::factor(&a, thr) {
                Ok(_) => {
                    lu.refactor(&a, thr).unwrap();
                    assert_same_as_reference(&lu, &a, thr, &mut rng, &format!("round {round}"));
                    let fresh = SparseLu::factor(&a, thr).unwrap();
                    assert_same_as_reference(&fresh, &a, thr, &mut rng, "fresh factor");
                }
                Err(want) => {
                    let err = lu.refactor(&a, thr).unwrap_err();
                    assert_eq!(format!("{err:?}"), format!("{want:?}"), "round {round}");
                    failed += 1;
                }
            }
        }
        assert!(failed >= 40, "the sweep must retry after failures ({failed})");
    }

    #[test]
    fn stale_partial_sums_do_not_leak_into_the_diagonal_preference() {
        // `bad` fails at column 1 with x[0] = 2 left behind. Column 0 of
        // `good` never touches row 0, but the diagonal-preference test reads
        // x[0] all the same: a stale 2.0 there would be taken as the pivot.
        let mut bad = Triplets::new(3, 3);
        bad.push(0, 0, 1.0);
        bad.push(2, 0, 5.0);
        bad.push(0, 1, 2.0);
        bad.push(2, 1, 10.0);
        bad.push(1, 2, 1.0);
        let mut good = Triplets::new(3, 3);
        good.push(1, 0, 1.0);
        good.push(0, 1, 1.0);
        good.push(2, 2, 1.0);
        let (bad, good) = (bad.to_csc(), good.to_csc());
        let mut lu = SparseLu::default();
        assert!(matches!(lu.refactor(&bad, 1e-3), Err(Error::Singular { col: 1 })));
        lu.refactor(&good, 1e-3).unwrap();
        assert_same_as_reference(&lu, &good, 1e-3, &mut Rng::new(3), "after a failure");
    }

    fn solve_and_check(a: &Csc, xref: &[f64], tol: f64) {
        let b = a.matvec(xref);
        let lu = SparseLu::factor(a, 1e-3).unwrap();
        let x = lu.solve(&b);
        for (xi, ri) in x.iter().zip(xref) {
            assert!((xi - ri).abs() < tol, "{xi} vs {ri}");
        }
    }

    #[test]
    fn identity_solve() {
        let a = Csc::identity(4);
        solve_and_check(&a, &[1.0, -2.0, 3.0, -4.0], 1e-15);
    }

    #[test]
    fn tridiagonal_solve() {
        let n = 40;
        let mut t = Triplets::new(n, n);
        for i in 0..n {
            t.push(i, i, 2.0 + (i % 3) as f64);
            if i + 1 < n {
                t.push(i, i + 1, -1.0);
                t.push(i + 1, i, -0.7);
            }
        }
        let a = t.to_csc();
        let xref: Vec<f64> = (0..n).map(|i| ((i * 7) % 11) as f64 - 5.0).collect();
        solve_and_check(&a, &xref, 1e-10);
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        // [0 2; 3 1] requires a row swap.
        let mut t = Triplets::new(2, 2);
        t.push(0, 1, 2.0);
        t.push(1, 0, 3.0);
        t.push(1, 1, 1.0);
        let a = t.to_csc();
        solve_and_check(&a, &[1.0, 1.0], 1e-14);
    }

    #[test]
    fn strict_partial_pivoting_threshold() {
        // With diag_threshold = 1.0, the largest entry is always chosen.
        let mut t = Triplets::new(3, 3);
        t.push(0, 0, 1e-12);
        t.push(1, 0, 1.0);
        t.push(0, 1, 1.0);
        t.push(2, 1, 2.0);
        t.push(1, 2, 3.0);
        t.push(2, 2, 4.0);
        t.push(0, 2, 0.5);
        let a = t.to_csc();
        let lu = SparseLu::factor(&a, 1.0).unwrap();
        let xref = [2.0, -1.0, 0.5];
        let b = a.matvec(&xref);
        let x = lu.solve(&b);
        for (xi, ri) in x.iter().zip(&xref) {
            assert!((xi - ri).abs() < 1e-10);
        }
    }

    #[test]
    fn dense_block_with_fill() {
        // A matrix whose factorization produces fill-in.
        let n = 10;
        let mut t = Triplets::new(n, n);
        for i in 0..n {
            t.push(i, i, 4.0);
            t.push(i, (i + 3) % n, 1.0);
            t.push((i + 5) % n, i, -1.5);
        }
        let a = t.to_csc();
        let xref: Vec<f64> = (0..n).map(|i| (i as f64 * 0.77).cos()).collect();
        solve_and_check(&a, &xref, 1e-10);
    }

    #[test]
    fn detects_singular() {
        let mut t = Triplets::new(3, 3);
        t.push(0, 0, 1.0);
        t.push(1, 1, 1.0);
        // Column 2 entirely zero.
        t.push(0, 2, 0.0);
        let a = t.to_csc();
        assert!(matches!(SparseLu::factor(&a, 1e-3), Err(Error::Singular { col: 2 })));
    }

    #[test]
    fn detects_structurally_coupled_singularity() {
        // Rank-deficient: row 2 = row 0.
        let mut t = Triplets::new(2, 2);
        t.push(0, 0, 1.0);
        t.push(1, 0, 1.0);
        t.push(0, 1, 2.0);
        t.push(1, 1, 2.0);
        let a = t.to_csc();
        assert!(SparseLu::factor(&a, 1e-3).is_err());
    }

    #[test]
    fn rejects_rectangular() {
        let a = Csc::zeros(2, 3);
        assert!(matches!(SparseLu::factor(&a, 1e-3), Err(Error::NotSquare { .. })));
    }

    #[test]
    fn unsymmetric_mna_like_system() {
        // A small MNA-like matrix: SPD conductance block plus asymmetric
        // source rows/cols (as produced by a voltage source stamp).
        let mut t = Triplets::new(4, 4);
        t.push(0, 0, 1.0 / 100.0);
        t.push(0, 1, -1.0 / 100.0);
        t.push(1, 0, -1.0 / 100.0);
        t.push(1, 1, 1.0 / 100.0 + 1.0 / 50.0);
        // Voltage source between node 0 and ground: branch current var 3.
        t.push(0, 3, 1.0);
        t.push(3, 0, 1.0);
        // Extra node 2 coupled to 1.
        t.push(2, 2, 1.0 / 10.0);
        t.push(1, 2, -0.001);
        t.push(2, 1, -0.002);
        let a = t.to_csc();
        let xref = [5.0, 2.5, 0.05, -0.025];
        solve_and_check(&a, &xref, 1e-9);
    }

    #[test]
    fn large_random_pattern_roundtrip() {
        // Deterministic scatter with guaranteed nonzero diagonal.
        let n = 120;
        let mut t = Triplets::new(n, n);
        let mut state = 12345u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        for i in 0..n {
            t.push(i, i, 5.0 + (i % 7) as f64);
            for _ in 0..4 {
                let j = next() % n;
                let v = ((next() % 1000) as f64 / 1000.0) - 0.5;
                t.push(i, j, v);
            }
        }
        let a = t.to_csc();
        let xref: Vec<f64> = (0..n).map(|i| ((i * 13) % 17) as f64 / 17.0).collect();
        solve_and_check(&a, &xref, 1e-8);
    }
}
