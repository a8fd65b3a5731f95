//! Sparse matrix storage: coordinate-format assembly ([`Triplets`]) and
//! compressed sparse column matrices ([`Csc`]).
//!
//! MNA stamping naturally produces duplicate coordinate entries (each element
//! stamps into shared nodes); [`Triplets::to_csc`] sums duplicates, which is
//! exactly the assembly semantics circuit simulation needs.

use crate::dense::Dense;
use std::borrow::Cow;
use std::fmt;

/// A coordinate-format (COO) builder for sparse matrices.
///
/// Duplicate `(row, col)` entries are *summed* on conversion, matching MNA
/// stamp assembly semantics.
///
/// # Example
///
/// ```
/// # use pcv_sparse::Triplets;
/// let mut t = Triplets::new(2, 2);
/// t.push(0, 0, 1.0);
/// t.push(0, 0, 2.0); // duplicate: summed
/// let a = t.to_csc();
/// assert_eq!(a.get(0, 0), 3.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Triplets {
    nrows: usize,
    ncols: usize,
    rows: Vec<usize>,
    cols: Vec<usize>,
    vals: Vec<f64>,
}

impl Triplets {
    /// Create an empty builder for an `nrows x ncols` matrix.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        Triplets { nrows, ncols, rows: Vec::new(), cols: Vec::new(), vals: Vec::new() }
    }

    /// Append an entry. Zero values are kept (they pin the sparsity pattern,
    /// which MNA reuse across Newton iterations relies on).
    ///
    /// # Panics
    ///
    /// Panics if `row`/`col` are out of bounds.
    pub fn push(&mut self, row: usize, col: usize, val: f64) {
        assert!(row < self.nrows && col < self.ncols, "triplet out of bounds");
        self.rows.push(row);
        self.cols.push(col);
        self.vals.push(val);
    }

    /// Number of raw (pre-dedup) entries.
    pub fn len(&self) -> usize {
        self.vals.len()
    }

    /// `true` if no entries have been pushed.
    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    /// Number of rows of the target matrix.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns of the target matrix.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Drop every entry, keeping the dimensions and the allocations.
    pub fn clear(&mut self) {
        self.rows.clear();
        self.cols.clear();
        self.vals.clear();
    }

    /// The pushes as `(row, col, value)`, in push order.
    fn pushes(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.rows.iter().zip(&self.cols).zip(&self.vals).map(|((&r, &c), &v)| (r, c, v))
    }

    /// Pushes per column, as [`Csc::from_counted_pushes`] takes them.
    fn column_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.ncols + 1];
        self.cols.iter().for_each(|&c| counts[c + 1] += 1);
        counts
    }

    /// Assemble into compressed sparse column form, summing duplicates.
    pub fn to_csc(&self) -> Csc {
        Csc::from_counted_pushes(self.nrows, self.column_counts(), self.pushes())
    }

    /// Record what `self.to_csc()` — followed by
    /// [`permute_sym(perm)`](Csc::permute_sym) when `perm` is given — does
    /// to this push sequence, so that later value sets pushed in the same
    /// sequence assemble without a sort or an allocation
    /// ([`Assembly::assemble`]), to the same bits.
    ///
    /// # Panics
    ///
    /// Panics, with `perm`, as [`Csc::permute_sym`] does.
    pub fn record(&self, perm: Option<&[usize]>) -> Assembly {
        // The pushes go through the sort tagged with their own index, so the
        // order each slot's duplicates are summed in is read off, not
        // re-derived.
        let (raw, entries) = sorted_columns(
            self.nrows,
            self.column_counts(),
            self.pushes().enumerate().map(|(k, (r, c, _))| (r, c, k as f64)),
        );
        let mut colptr = vec![0usize; self.ncols + 1];
        let mut rowidx = Vec::new();
        let mut slot_ptr = vec![0usize];
        let mut order = Vec::with_capacity(entries.len());
        for c in 0..self.ncols {
            for dup in entries[raw[c]..raw[c + 1]].chunk_by(|a, b| a.0 == b.0) {
                rowidx.push(dup[0].0);
                order.extend(dup.iter().map(|d| d.1 as usize));
                slot_ptr.push(order.len());
            }
            colptr[c + 1] = rowidx.len();
        }
        // Likewise each slot carries its own number through `permute_sym`
        // itself, which tells where it lands.
        let values = (0..rowidx.len()).map(|slot| slot as f64).collect();
        let mut a = Csc { nrows: self.nrows, ncols: self.ncols, colptr, rowidx, values };
        if let Some(perm) = perm {
            a = a.permute_sym(perm);
            let mut moved_ptr = vec![0usize];
            let mut moved = Vec::with_capacity(order.len());
            for &from in &a.values {
                let from = from as usize;
                moved.extend_from_slice(&order[slot_ptr[from]..slot_ptr[from + 1]]);
                moved_ptr.push(moved.len());
            }
            (slot_ptr, order) = (moved_ptr, moved);
        }
        Assembly { rows: self.rows.clone(), cols: self.cols.clone(), slot_ptr, order, a }
    }
}

/// Place `(row, col, carried)` pushes in their columns (push order within a
/// column) and sort every column by row: the one ordering rule of
/// assembly. The carried value rides along — a push's value for
/// [`Csc::from_counted_pushes`], its index for [`Triplets::record`] — and
/// the sort never looks at it, so both see the same permutation.
///
/// `counts[c + 1]` is the number of pushes into column `c` (`counts[0]` is
/// 0); `pushes` is walked once. Returns the column pointers and the sorted
/// `(row, carried)` entries.
///
/// # Panics
///
/// Panics if a push is out of bounds or the pushes disagree with `counts`.
fn sorted_columns(
    nrows: usize,
    mut counts: Vec<usize>,
    pushes: impl Iterator<Item = (usize, usize, f64)>,
) -> (Vec<usize>, Vec<(usize, f64)>) {
    let ncols = counts.len() - 1;
    for c in 0..ncols {
        counts[c + 1] += counts[c];
    }
    let colptr = counts;
    let mut entries = vec![(0usize, 0.0f64); colptr[ncols]];
    let mut next = colptr.clone();
    for (r, c, carried) in pushes {
        assert!(r < nrows && c < ncols, "triplet out of bounds");
        assert!(next[c] < colptr[c + 1], "more pushes than counted");
        entries[next[c]] = (r, carried);
        next[c] += 1;
    }
    assert_eq!(next[..ncols], colptr[1..], "fewer pushes than counted");
    for c in 0..ncols {
        sort_column(&mut entries[colptr[c]..colptr[c + 1]]);
    }
    (colptr, entries)
}

/// Sort one column's entries by row. Up to [`STABLE_SORT_MAX`] entries
/// std's unstable sort is an insertion sort, which keeps push order among
/// equal rows: so is this one, without the call. A longer column goes
/// through std's unstable sort itself, on the same input, and keeps
/// whatever order that leaves equal rows in.
fn sort_column(col: &mut [(usize, f64)]) {
    if col.len() > STABLE_SORT_MAX {
        col.sort_unstable_by_key(|&(r, _)| r);
        return;
    }
    for i in 1..col.len() {
        let entry = col[i];
        let mut j = i;
        while j > 0 && col[j - 1].0 > entry.0 {
            col[j] = col[j - 1];
            j -= 1;
        }
        col[j] = entry;
    }
}

/// The longest slice std's `sort_unstable` sorts by insertion.
const STABLE_SORT_MAX: usize = 20;

/// A recorded assembly ([`Triplets::record`]): the CSC pattern one push
/// sequence assembles to and, per stored entry, which pushes sum into it in
/// which order.
///
/// It is keyed by the exact `(row, col)` sequence it was recorded from:
/// [`assemble`](Assembly::assemble) refuses any other, so a stale plan costs
/// a re-record and can never mis-assemble.
#[derive(Debug, Clone)]
pub struct Assembly {
    rows: Vec<usize>,
    cols: Vec<usize>,
    /// `order[slot_ptr[s]..slot_ptr[s + 1]]` are the pushes summed, in that
    /// order, into stored entry `s` of `a`.
    slot_ptr: Vec<usize>,
    order: Vec<usize>,
    a: Csc,
}

impl Default for Assembly {
    /// The record of an empty 0 x 0 builder.
    fn default() -> Self {
        Triplets::default().record(None)
    }
}

impl Assembly {
    /// Sum the values of `t` into [`matrix`](Assembly::matrix). Returns
    /// `false`, writing nothing, unless `t` has the dimensions and the push
    /// sequence this was recorded from.
    pub fn assemble(&mut self, t: &Triplets) -> bool {
        if (t.nrows, t.ncols) != (self.a.nrows, self.a.ncols)
            || t.rows != self.rows
            || t.cols != self.cols
        {
            return false;
        }
        for (v, dup) in self.a.values.iter_mut().zip(self.slot_ptr.windows(2)) {
            let dup = &self.order[dup[0]..dup[1]];
            let mut sum = t.vals[dup[0]];
            for &k in &dup[1..] {
                sum += t.vals[k];
            }
            *v = sum;
        }
        true
    }

    /// The assembled matrix: the recorded pattern holding the values of the
    /// last successful [`assemble`](Assembly::assemble) (unspecified before
    /// the first).
    pub fn matrix(&self) -> &Csc {
        &self.a
    }
}

/// A compressed sparse column matrix.
///
/// Row indices within each column are sorted and unique.
#[derive(Debug, Clone, PartialEq)]
pub struct Csc {
    nrows: usize,
    ncols: usize,
    colptr: Vec<usize>,
    rowidx: Vec<usize>,
    values: Vec<f64>,
}

impl Csc {
    /// An `nrows x ncols` matrix with no stored entries.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Csc { nrows, ncols, colptr: vec![0; ncols + 1], rowidx: Vec::new(), values: Vec::new() }
    }

    /// Assemble straight from a sequence of `(row, col, value)` pushes,
    /// summing duplicates — [`Triplets::to_csc`] without the coordinate
    /// arrays, to the same bits: each column receives its pushes in push
    /// order, sorts them by row and sums each row's run in sorted order.
    /// `pushes` is called twice (to count the pushes of every column, then
    /// to place them) and must yield the same sequence both times.
    ///
    /// # Panics
    ///
    /// Panics if a push is out of bounds.
    ///
    /// # Example
    ///
    /// ```
    /// # use pcv_sparse::Csc;
    /// let stamps = [(0, 0, 1.0), (1, 0, -1.0), (0, 0, 2.0)];
    /// let a = Csc::from_pushes(2, 2, || stamps.iter().copied());
    /// assert_eq!((a.get(0, 0), a.get(1, 0), a.nnz()), (3.0, -1.0, 2));
    /// ```
    pub fn from_pushes<I>(nrows: usize, ncols: usize, pushes: impl Fn() -> I) -> Csc
    where
        I: Iterator<Item = (usize, usize, f64)>,
    {
        let mut counts = vec![0usize; ncols + 1];
        for (r, c, _) in pushes() {
            assert!(r < nrows && c < ncols, "triplet out of bounds");
            counts[c + 1] += 1;
        }
        Csc::from_counted_pushes(nrows, counts, pushes())
    }

    /// [`Csc::from_pushes`] walking the pushes once, for a caller that
    /// knows how many land in each column: `counts` has one entry more
    /// than there are columns, `counts[c + 1]` pushes go to column `c` and
    /// `counts[0]` is 0. Same bits.
    ///
    /// # Panics
    ///
    /// Panics if a push is out of bounds or the pushes disagree with
    /// `counts`.
    ///
    /// # Example
    ///
    /// ```
    /// # use pcv_sparse::Csc;
    /// let stamps = [(0, 0, 1.0), (1, 0, -1.0), (0, 0, 2.0), (1, 1, 4.0)];
    /// let a = Csc::from_counted_pushes(2, vec![0, 3, 1], stamps.into_iter());
    /// assert_eq!(a, Csc::from_pushes(2, 2, || stamps.into_iter()));
    /// ```
    pub fn from_counted_pushes(
        nrows: usize,
        counts: Vec<usize>,
        pushes: impl Iterator<Item = (usize, usize, f64)>,
    ) -> Csc {
        let ncols = counts.len() - 1;
        let (raw, entries) = sorted_columns(nrows, counts, pushes);
        let mut colptr = vec![0usize; ncols + 1];
        let mut rowidx = Vec::with_capacity(entries.len());
        let mut values = Vec::with_capacity(entries.len());
        for c in 0..ncols {
            for dup in entries[raw[c]..raw[c + 1]].chunk_by(|a, b| a.0 == b.0) {
                let mut v = dup[0].1;
                for d in &dup[1..] {
                    v += d.1;
                }
                rowidx.push(dup[0].0);
                values.push(v);
            }
            colptr[c + 1] = rowidx.len();
        }
        Csc { nrows, ncols, colptr, rowidx, values }
    }

    /// The `n x n` identity.
    pub fn identity(n: usize) -> Self {
        let mut t = Triplets::new(n, n);
        for i in 0..n {
            t.push(i, i, 1.0);
        }
        t.to_csc()
    }

    /// Build from raw CSC arrays.
    ///
    /// # Panics
    ///
    /// Panics if the arrays are inconsistent (wrong `colptr` length, unsorted
    /// or duplicate row indices, or out-of-range indices).
    pub fn from_parts(
        nrows: usize,
        ncols: usize,
        colptr: Vec<usize>,
        rowidx: Vec<usize>,
        values: Vec<f64>,
    ) -> Self {
        assert_eq!(colptr.len(), ncols + 1, "colptr length");
        assert_eq!(rowidx.len(), values.len(), "rowidx/values length");
        assert_eq!(*colptr.last().unwrap(), rowidx.len(), "colptr terminator");
        for c in 0..ncols {
            assert!(colptr[c] <= colptr[c + 1], "colptr monotonicity");
            let mut prev: Option<usize> = None;
            for &r in &rowidx[colptr[c]..colptr[c + 1]] {
                assert!(r < nrows, "row index out of range");
                if let Some(p) = prev {
                    assert!(r > p, "row indices must be strictly increasing");
                }
                prev = Some(r);
            }
        }
        Csc { nrows, ncols, colptr, rowidx, values }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Column pointer array (length `ncols + 1`).
    pub fn colptr(&self) -> &[usize] {
        &self.colptr
    }

    /// Row index array.
    pub fn rowidx(&self) -> &[usize] {
        &self.rowidx
    }

    /// Stored values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable stored values (pattern-preserving numeric update).
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Entry at `(row, col)`, `0.0` if not stored.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        let range = self.colptr[col]..self.colptr[col + 1];
        match self.rowidx[range.clone()].binary_search(&row) {
            Ok(k) => self.values[range.start + k],
            Err(_) => 0.0,
        }
    }

    /// Iterate over the stored entries of a column as `(row, value)` pairs.
    pub fn col_iter(&self, col: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let range = self.colptr[col]..self.colptr[col + 1];
        self.rowidx[range.clone()].iter().copied().zip(self.values[range].iter().copied())
    }

    /// `y = A x`, scattering each column whose `x` entry is not zero down
    /// its entries, in column order — the single-vector product that every
    /// lane of [`Rows::matvec_into`] reproduces.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != ncols`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.ncols, "matvec: length mismatch");
        let mut y = vec![0.0; self.nrows];
        for (c, &xc) in x.iter().enumerate() {
            if xc != 0.0 {
                for (r, v) in self.col_iter(c) {
                    y[r] += v * xc;
                }
            }
        }
        y
    }

    /// `y = A x` into a caller-provided buffer — for one vector or, lane by
    /// lane with the bits of [`Csc::matvec`], a [panel](crate::panel). It
    /// reads `A` through [`Csc::rows`], which it builds on every call: a
    /// caller multiplying by one matrix many times keeps the row view.
    ///
    /// # Panics
    ///
    /// Panics unless `x` holds `ncols` and `y` `nrows` rows of the same width.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        self.rows().matvec_into(x, y);
    }

    /// `y = Aᵀ x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != nrows`.
    pub fn matvec_t(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.nrows, "matvec_t: length mismatch");
        let mut y = vec![0.0; self.ncols];
        for (c, yc) in y.iter_mut().enumerate() {
            let mut sum = 0.0;
            for k in self.colptr[c]..self.colptr[c + 1] {
                sum += self.values[k] * x[self.rowidx[k]];
            }
            *yc = sum;
        }
        y
    }

    /// Transpose as a new matrix.
    pub fn transpose(&self) -> Csc {
        let mut colptr = vec![0usize; self.nrows + 1];
        self.rowidx.iter().for_each(|&r| colptr[r + 1] += 1);
        for r in 0..self.nrows {
            colptr[r + 1] += colptr[r];
        }
        let mut next = colptr.clone();
        let mut rowidx = vec![0usize; self.nnz()];
        let mut values = vec![0.0; self.nnz()];
        // Columns in order, so every row of the transpose comes out sorted.
        for c in 0..self.ncols {
            for (r, v) in self.col_iter(c) {
                rowidx[next[r]] = c;
                values[next[r]] = v;
                next[r] += 1;
            }
        }
        Csc { nrows: self.ncols, ncols: self.nrows, colptr, rowidx, values }
    }

    /// This matrix by rows, for [`Rows::matvec_into`]: its own arrays when
    /// it is bitwise its own transpose — every stored `(r, c)` has a stored
    /// `(c, r)` with the same bits, as a stamped `C` has unless a column's
    /// sum order differs from its row's — and its [transpose](Csc::transpose)
    /// otherwise.
    pub fn rows(&self) -> Rows<'_> {
        let rows = if self.is_own_transpose() {
            Cow::Borrowed(self)
        } else {
            Cow::Owned(self.transpose())
        };
        Rows { rows, finite: self.values.iter().all(|v| v.is_finite()) }
    }

    /// Every stored `(r, c)` has a stored `(c, r)` with the same bits. One
    /// pass: the entries below the diagonal, column by column, meet their
    /// mirrors above it in each mirror column's row order, so a cursor per
    /// column walks the entries above the diagonal once.
    fn is_own_transpose(&self) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        let (cp, ri, vv) = (&self.colptr, &self.rowidx, &self.values);
        let mut above = cp[..self.ncols].to_vec();
        for c in 0..self.ncols {
            for p in cp[c]..cp[c + 1] {
                let r = ri[p];
                if r <= c {
                    continue;
                }
                let q = above[r];
                if q == cp[r + 1] || ri[q] != c || vv[q].to_bits() != vv[p].to_bits() {
                    return false;
                }
                above[r] += 1;
            }
        }
        (0..self.ncols).all(|c| above[c] == cp[c + 1] || ri[above[c]] >= c)
    }

    /// Symmetric permutation `P A Pᵀ` where `perm[new] = old`.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square or `perm` is not a permutation of
    /// `0..n`.
    pub fn permute_sym(&self, perm: &[usize]) -> Csc {
        assert_eq!(self.nrows, self.ncols, "permute_sym: square required");
        assert_eq!(perm.len(), self.nrows, "permute_sym: perm length");
        let mut inv = vec![usize::MAX; perm.len()];
        for (new, &old) in perm.iter().enumerate() {
            assert!(old < perm.len() && inv[old] == usize::MAX, "invalid permutation");
            inv[old] = new;
        }
        let mut t = Triplets::new(self.nrows, self.ncols);
        for c in 0..self.ncols {
            for (r, v) in self.col_iter(c) {
                t.push(inv[r], inv[c], v);
            }
        }
        t.to_csc()
    }

    /// Convert to a dense matrix (test/debug helper; intended for small
    /// matrices).
    pub fn to_dense(&self) -> Dense {
        let mut d = Dense::zeros(self.nrows, self.ncols);
        for c in 0..self.ncols {
            for (r, v) in self.col_iter(c) {
                d[(r, c)] = v;
            }
        }
        d
    }

    /// Check symmetry up to absolute tolerance `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        for c in 0..self.ncols {
            for (r, v) in self.col_iter(c) {
                if (v - self.get(c, r)).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Sum of two matrices with identical shape: `A + alpha B`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add_scaled(&self, alpha: f64, b: &Csc) -> Csc {
        assert_eq!((self.nrows, self.ncols), (b.nrows, b.ncols), "add_scaled shape");
        let mut t = Triplets::new(self.nrows, self.ncols);
        for c in 0..self.ncols {
            for (r, v) in self.col_iter(c) {
                t.push(r, c, v);
            }
            for (r, v) in b.col_iter(c) {
                t.push(r, c, alpha * v);
            }
        }
        t.to_csc()
    }
}

/// A matrix read by rows ([`Csc::rows`]): column `i` of the matrix held is
/// row `i` of the one it was made from.
#[derive(Debug, Clone)]
pub struct Rows<'a> {
    rows: Cow<'a, Csc>,
    /// Every stored value is finite.
    finite: bool,
}

impl Rows<'_> {
    /// `y = A x` on every lane of a [panel](crate::panel), one output row
    /// at a time: a lane's terms are added in ascending column order from
    /// `+0.0`, a column whose lane entry is zero contributing `+0.0` — the
    /// bits of [`Csc::matvec`], which scatters the columns in that order
    /// and skips the zeros (adding `+0.0` to a sum that starts at `+0.0`
    /// changes nothing: such a sum is never `-0.0`).
    ///
    /// # Panics
    ///
    /// Panics unless `x` holds `ncols` and `y` `nrows` rows of the same width.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        let (nrows, ncols) = (self.rows.ncols, self.rows.nrows);
        let k = x.len() / ncols.max(1);
        assert_eq!(x.len(), ncols * k, "matvec: x length");
        assert_eq!(y.len(), nrows * k, "matvec: y length");
        crate::panel::matmul_rows(&self.rows, self.finite, k, x, y);
    }
}

impl fmt::Display for Csc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}x{} sparse, {} nnz", self.nrows, self.ncols, self.nnz())?;
        for c in 0..self.ncols {
            for (r, v) in self.col_iter(c) {
                writeln!(f, "  ({r},{c}) = {v:e}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcv_rng::Rng;

    /// `to_csc` as it was before `sorted_columns`: scatter into parallel
    /// arrays, copy each column out, sort `(row, value)` pairs, sum runs.
    /// Kept verbatim as the oracle for the shared ordering rule.
    fn reference_to_csc(t: &Triplets) -> Csc {
        let mut colptr = vec![0usize; t.ncols + 1];
        for &c in &t.cols {
            colptr[c + 1] += 1;
        }
        for c in 0..t.ncols {
            colptr[c + 1] += colptr[c];
        }
        let mut rowidx = vec![0usize; t.vals.len()];
        let mut values = vec![0.0; t.vals.len()];
        let mut next = colptr.clone();
        for k in 0..t.vals.len() {
            let c = t.cols[k];
            let dst = next[c];
            rowidx[dst] = t.rows[k];
            values[dst] = t.vals[k];
            next[c] += 1;
        }
        let mut new_colptr = vec![0usize; t.ncols + 1];
        let mut new_rowidx = Vec::with_capacity(rowidx.len());
        let mut new_values = Vec::with_capacity(values.len());
        let mut buf: Vec<(usize, f64)> = Vec::new();
        for c in 0..t.ncols {
            buf.clear();
            for k in colptr[c]..colptr[c + 1] {
                buf.push((rowidx[k], values[k]));
            }
            buf.sort_unstable_by_key(|&(r, _)| r);
            let mut i = 0;
            while i < buf.len() {
                let r = buf[i].0;
                let mut v = buf[i].1;
                let mut j = i + 1;
                while j < buf.len() && buf[j].0 == r {
                    v += buf[j].1;
                    j += 1;
                }
                new_rowidx.push(r);
                new_values.push(v);
                i = j;
            }
            new_colptr[c + 1] = new_rowidx.len();
        }
        Csc {
            nrows: t.nrows,
            ncols: t.ncols,
            colptr: new_colptr,
            rowidx: new_rowidx,
            values: new_values,
        }
    }

    fn assert_same_bits(got: &Csc, want: &Csc, what: &str) {
        assert_eq!((got.nrows, got.ncols), (want.nrows, want.ncols), "{what}");
        assert_eq!((&got.colptr, &got.rowidx), (&want.colptr, &want.rowidx), "{what}: pattern");
        let bits = |m: &Csc| m.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(got), bits(want), "{what}: values");
    }

    /// Values whose sum depends on the order of addition (magnitudes 1e-12
    /// to 1e4, both signs, a few zeros and negative zeros).
    fn lumpy(rng: &mut Rng) -> f64 {
        match rng.range_usize(0, 12) {
            0 => 0.0,
            1 => -0.0,
            _ => rng.range_f64(-1.0, 1.0) * 10f64.powi(rng.range_usize(0, 17) as i32 - 12),
        }
    }

    /// A stamp-like stream: few rows, so a column holds far more than the
    /// 20 entries up to which the unstable sort happens to keep push order.
    fn heavy_stream(rng: &mut Rng, n: usize, pushes: usize) -> Triplets {
        let mut t = Triplets::new(n, n);
        for _ in 0..pushes {
            t.push(rng.range_usize(0, n), rng.range_usize(0, n), lumpy(rng));
        }
        t
    }

    fn random_perm(rng: &mut Rng, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, rng.range_usize(0, i + 1));
        }
        p
    }

    #[test]
    fn recorded_assembly_replays_to_csc_and_permute_sym_bit_for_bit() {
        let mut rng = Rng::new(0x5107_a55e);
        let mut longest = 0;
        for case in 0..120 {
            let n = rng.range_usize(1, 9);
            // From under 20 pushes a column to several hundred.
            let pushes = rng.range_usize(0, n * [8, 40, 300][case % 3]);
            let mut t = heavy_stream(&mut rng, n, pushes);
            let perm = random_perm(&mut rng, n);
            let per_col = |c| t.cols.iter().filter(|&&x| x == c).count();
            longest = longest.max((0..n).map(per_col).max().unwrap());

            assert_same_bits(&t.to_csc(), &reference_to_csc(&t), "to_csc");
            let mut natural = t.record(None);
            let mut permuted = t.record(Some(&perm));
            // Replay on the recorded values, then on fresh ones pushed in
            // the same sequence into the cleared builder.
            for replay in 0..3 {
                let what = format!("case {case} replay {replay}");
                assert!(natural.assemble(&t) && permuted.assemble(&t), "{what}");
                let want = reference_to_csc(&t);
                assert_same_bits(natural.matrix(), &want, &what);
                assert_same_bits(permuted.matrix(), &want.permute_sym(&perm), &what);
                let (rows, cols) = (t.rows.clone(), t.cols.clone());
                t.clear();
                for (&r, &c) in rows.iter().zip(&cols) {
                    t.push(r, c, lumpy(&mut rng));
                }
            }
        }
        assert!(longest > 60, "the sweep must leave the sort's stable regime ({longest})");
    }

    #[test]
    fn assembly_from_pushes_has_the_reference_bits() {
        // The pushes straight from their source, no `Triplets` in between:
        // columns from empty to hundreds of pushes, values whose sums show
        // the order (signed zeros, subnormals, magnitudes 1e-12 to 1e4).
        let mut rng = Rng::new(0xC5C);
        let special = [0.0, -0.0, 5e-324, -5e-324, f64::MIN_POSITIVE / 3.0, 1e4, -1e4];
        for case in 0..90 {
            let n = rng.range_usize(1, 9);
            let pushes: Vec<(usize, usize, f64)> = (0..rng
                .range_usize(0, n * [6, 40, 300][case % 3]))
                .map(|_| {
                    let v = if rng.bool_with(0.3) {
                        special[rng.range_usize(0, special.len())]
                    } else {
                        lumpy(&mut rng)
                    };
                    (rng.range_usize(0, n), rng.range_usize(0, n), v)
                })
                .collect();
            let mut t = Triplets::new(n, n);
            pushes.iter().for_each(|&(r, c, v)| t.push(r, c, v));
            let got = Csc::from_pushes(n, n, || pushes.iter().copied());
            assert_same_bits(&got, &reference_to_csc(&t), &format!("case {case}"));
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn assembly_from_pushes_rejects_out_of_bounds() {
        Csc::from_pushes(2, 3, || [(0, 2, 1.0), (2, 0, 1.0)].into_iter());
    }

    #[test]
    fn push_order_is_not_the_summation_order_beyond_twenty_entries() {
        // Why the order is recorded and not derived: find a column where
        // summing duplicates in push order gives different bits.
        let mut rng = Rng::new(20);
        let differs = (0..50).any(|_| {
            let t = heavy_stream(&mut rng, 3, 200);
            let mut in_push_order = Triplets::new(3, 3);
            for slot in 0..9 {
                let (r, c) = (slot / 3, slot % 3);
                let mut sum: Option<f64> = None;
                for k in (0..t.len()).filter(|&k| (t.rows[k], t.cols[k]) == (r, c)) {
                    sum = Some(sum.map_or(t.vals[k], |s| s + t.vals[k]));
                }
                if let Some(sum) = sum {
                    in_push_order.push(r, c, sum);
                }
            }
            let (a, b) = (t.to_csc(), in_push_order.to_csc());
            a.rowidx == b.rowidx
                && a.values.iter().zip(&b.values).any(|(x, y)| x.to_bits() != y.to_bits())
        });
        assert!(differs, "expected push-order summation to differ from the sorted order");
    }

    #[test]
    fn short_columns_sort_as_std_sorts_them() {
        // The insertion sort stands in for std's unstable sort only where
        // that sort keeps equal rows in push order: the payload tells.
        let mut rng = Rng::new(0x50_27);
        for len in 0..=STABLE_SORT_MAX {
            for _ in 0..200 {
                let rows = rng.range_usize(1, 6);
                let col: Vec<(usize, f64)> =
                    (0..len).map(|k| (rng.range_usize(0, rows), k as f64)).collect();
                let (mut ours, mut std) = (col.clone(), col);
                sort_column(&mut ours);
                std.sort_unstable_by_key(|&(r, _)| r);
                assert_eq!(ours, std, "{len} entries");
            }
        }
    }

    #[test]
    fn counted_pushes_must_match_their_counts() {
        let pushes = [(0, 0, 1.0), (1, 1, 2.0)];
        for counts in [vec![0, 2, 0], vec![0, 1, 2], vec![0, 0, 2]] {
            let caught = std::panic::catch_unwind(|| {
                Csc::from_counted_pushes(2, counts.clone(), pushes.into_iter())
            });
            assert!(caught.is_err(), "{counts:?}");
        }
    }

    #[test]
    fn the_row_view_is_the_matrix_itself_only_when_bitwise_symmetric() {
        let mut t = Triplets::new(3, 3);
        for (r, c, v) in [(0, 0, 2.0), (1, 0, -1.0), (0, 1, -1.0), (2, 2, 0.0), (1, 1, 3.0)] {
            t.push(r, c, v);
        }
        let sym = t.to_csc();
        assert!(matches!(sym.rows().rows, Cow::Borrowed(_)));
        // One bit off in a mirror value, a mirror missing, not square.
        let mut skewed = sym.clone();
        skewed.values_mut()[1] = f64::from_bits((-1.0f64).to_bits() + 1);
        let mut lopsided = Triplets::new(3, 3);
        lopsided.push(1, 0, -1.0);
        for a in [skewed, lopsided.to_csc(), sample().transpose(), Csc::zeros(2, 3)] {
            assert_eq!(*a.rows().rows, a.transpose(), "{a}");
        }
    }

    #[test]
    fn assembly_refuses_any_other_push_sequence() {
        let mut t = Triplets::new(3, 3);
        t.push(0, 0, 1.0);
        t.push(1, 2, 2.0);
        t.push(0, 0, 3.0);
        let mut plan = t.record(None);
        assert!(plan.assemble(&t));
        assert_eq!(plan.matrix().get(0, 0), 4.0);
        let before = plan.matrix().clone();

        let mut reordered = Triplets::new(3, 3);
        reordered.push(1, 2, 2.0);
        reordered.push(0, 0, 1.0);
        reordered.push(0, 0, 3.0);
        let mut shorter = Triplets::new(3, 3);
        shorter.push(0, 0, 1.0);
        shorter.push(1, 2, 2.0);
        let mut wider = Triplets::new(4, 4);
        wider.push(0, 0, 1.0);
        wider.push(1, 2, 2.0);
        wider.push(0, 0, 3.0);
        for other in [&reordered, &shorter, &wider, &Triplets::default()] {
            assert!(!plan.assemble(other));
            assert_same_bits(plan.matrix(), &before, "a refused assemble writes nothing");
        }
        // The empty plan matches only the empty builder.
        assert!(Assembly::default().assemble(&Triplets::default()));
        assert!(!Assembly::default().assemble(&t));
    }

    #[test]
    fn clear_keeps_dimensions() {
        let mut t = Triplets::new(2, 3);
        t.push(1, 2, 1.0);
        t.clear();
        assert!(t.is_empty());
        assert_eq!((t.nrows(), t.ncols()), (2, 3));
        t.push(1, 2, 5.0);
        assert_eq!(t.to_csc().get(1, 2), 5.0);
    }

    fn sample() -> Csc {
        // [1 0 2]
        // [0 3 0]
        // [4 0 5]
        let mut t = Triplets::new(3, 3);
        t.push(0, 0, 1.0);
        t.push(2, 0, 4.0);
        t.push(1, 1, 3.0);
        t.push(0, 2, 2.0);
        t.push(2, 2, 5.0);
        t.to_csc()
    }

    #[test]
    fn assembly_sums_duplicates() {
        let mut t = Triplets::new(2, 2);
        t.push(1, 1, 1.5);
        t.push(1, 1, 2.5);
        t.push(0, 1, -1.0);
        let a = t.to_csc();
        assert_eq!(a.nnz(), 2);
        assert_eq!(a.get(1, 1), 4.0);
        assert_eq!(a.get(0, 1), -1.0);
        assert_eq!(a.get(0, 0), 0.0);
    }

    #[test]
    fn rows_sorted_within_columns() {
        let mut t = Triplets::new(3, 1);
        t.push(2, 0, 1.0);
        t.push(0, 0, 2.0);
        t.push(1, 0, 3.0);
        let a = t.to_csc();
        assert_eq!(a.rowidx(), &[0, 1, 2]);
        assert_eq!(a.values(), &[2.0, 3.0, 1.0]);
    }

    #[test]
    fn matvec_matches_dense() {
        let a = sample();
        let x = [1.0, 2.0, 3.0];
        assert_eq!(a.matvec(&x), vec![7.0, 6.0, 19.0]);
        assert_eq!(a.matvec_t(&x), a.to_dense().matvec_t(&x));
    }

    #[test]
    fn transpose_round_trips() {
        let a = sample();
        let att = a.transpose().transpose();
        assert_eq!(a, att);
        assert_eq!(a.transpose().get(0, 2), 4.0);
    }

    #[test]
    fn permute_sym_relabels() {
        let a = sample();
        // perm[new] = old; swap nodes 0 and 2.
        let p = a.permute_sym(&[2, 1, 0]);
        assert_eq!(p.get(0, 0), 5.0);
        assert_eq!(p.get(2, 2), 1.0);
        assert_eq!(p.get(2, 0), 2.0);
    }

    #[test]
    fn symmetry_check() {
        let mut t = Triplets::new(2, 2);
        t.push(0, 1, 2.0);
        t.push(1, 0, 2.0);
        t.push(0, 0, 1.0);
        assert!(t.to_csc().is_symmetric(0.0));
        assert!(!sample().is_symmetric(1e-12));
    }

    #[test]
    fn add_scaled_combines_patterns() {
        let a = sample();
        let b = Csc::identity(3);
        let s = a.add_scaled(2.0, &b);
        assert_eq!(s.get(0, 0), 3.0);
        assert_eq!(s.get(1, 1), 5.0);
        assert_eq!(s.get(0, 2), 2.0);
    }

    #[test]
    fn from_parts_validates() {
        let a = Csc::from_parts(2, 2, vec![0, 1, 2], vec![0, 1], vec![1.0, 2.0]);
        assert_eq!(a.get(1, 1), 2.0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn from_parts_rejects_unsorted() {
        Csc::from_parts(2, 1, vec![0, 2], vec![1, 0], vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn push_rejects_out_of_bounds() {
        let mut t = Triplets::new(1, 1);
        t.push(1, 0, 1.0);
    }

    #[test]
    fn zeros_and_identity() {
        let z = Csc::zeros(3, 4);
        assert_eq!(z.nnz(), 0);
        assert_eq!(z.matvec(&[1.0; 4]), vec![0.0; 3]);
        let i = Csc::identity(2);
        assert_eq!(i.matvec(&[5.0, 6.0]), vec![5.0, 6.0]);
    }

    #[test]
    fn values_mut_updates_in_place() {
        let mut a = sample();
        let nnz = a.nnz();
        for v in a.values_mut() {
            *v *= 2.0;
        }
        assert_eq!(a.nnz(), nnz);
        assert_eq!(a.get(2, 2), 10.0);
    }

    #[test]
    fn display_nonempty() {
        assert!(!format!("{}", sample()).is_empty());
    }
}
