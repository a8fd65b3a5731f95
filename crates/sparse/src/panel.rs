//! Panels: `k` vectors of one length stored together, row-major — element
//! `j` of vector (*lane*) `r` is `x[j * k + r]`; a plain slice is `k = 1`.
//!
//! **The lane rule: a lane is the single-vector call.** A kernel performs on
//! each lane exactly the floating-point operations of the one-vector form,
//! in its order, and lanes never mix: a result's bits do not depend on what
//! shared its panel. What a panel buys is latency — a triangular solve with
//! a chain-shaped factor, or a left-to-right `dot`, is one chain of
//! dependent operations, and `k` lanes are `k` chains the core overlaps.
//! Kernels run on strips of at most ten lanes, a strip's per-lane values in
//! a `[f64; K]` the compiler keeps in registers, and panic on a slice that
//! is not whole rows of the width the other arguments state.

use crate::sparse::Csc;

/// Run `$f::<K>(k, first_lane, args…)` over the `$k` lanes in strips.
macro_rules! strips {
    ($k:expr, $f:ident($($arg:expr),*)) => {{
        let (k, mut at) = ($k, 0);
        while at < k {
            match k - at {
                1 => $f::<1>(k, at, $($arg),*),
                2 => $f::<2>(k, at, $($arg),*),
                3 => $f::<3>(k, at, $($arg),*),
                4 => $f::<4>(k, at, $($arg),*),
                5 => $f::<5>(k, at, $($arg),*),
                6 => $f::<6>(k, at, $($arg),*),
                7 => $f::<7>(k, at, $($arg),*),
                8 => $f::<8>(k, at, $($arg),*),
                9 => $f::<9>(k, at, $($arg),*),
                _ => $f::<10>(k, at, $($arg),*),
            }
            at += 10;
        }
    }};
}

/// `acc[r] += Σ_j x[j] · panel[j·k + r]`, each lane left to right from the
/// value `acc[r]` came in with: from `-0.0`, the neutral element of `f64`'s
/// `Sum`, lane `r` leaves with the bits of [`crate::vecops::dot`], and a sum
/// may be carried across consecutive pieces of `x`.
pub fn dots(x: &[f64], panel: &[f64], acc: &mut [f64]) {
    assert_eq!(panel.len(), x.len() * acc.len(), "panel dots: length mismatch");
    fn strip<const K: usize>(k: usize, at: usize, x: &[f64], panel: &[f64], acc: &mut [f64]) {
        let mut sums = [0.0; K];
        sums.copy_from_slice(&acc[at..at + K]);
        for (row, &xj) in panel.chunks_exact(k).zip(x) {
            for (sum, &v) in sums.iter_mut().zip(&row[at..at + K]) {
                *sum += xj * v;
            }
        }
        acc[at..at + K].copy_from_slice(&sums);
    }
    strips!(acc.len(), strip(x, panel, acc))
}

/// `acc[r] += Σ_j panel[j·k + r]²`, lane by lane as [`dots`] sums.
pub fn sums_of_squares(panel: &[f64], acc: &mut [f64]) {
    assert_eq!(panel.len() % acc.len().max(1), 0, "panel squares: length mismatch");
    fn strip<const K: usize>(k: usize, at: usize, panel: &[f64], acc: &mut [f64]) {
        let mut sums = [0.0; K];
        sums.copy_from_slice(&acc[at..at + K]);
        for row in panel.chunks_exact(k) {
            for (sum, &v) in sums.iter_mut().zip(&row[at..at + K]) {
                *sum += v * v;
            }
        }
        acc[at..at + K].copy_from_slice(&sums);
    }
    strips!(acc.len(), strip(panel, acc))
}

/// `panel[j·k + r] += alpha[r] · x[j]`: [`crate::vecops::axpy`] on each lane.
pub fn axpys(alpha: &[f64], x: &[f64], panel: &mut [f64]) {
    assert_eq!(panel.len(), x.len() * alpha.len(), "panel axpys: length mismatch");
    fn strip<const K: usize>(k: usize, at: usize, alpha: &[f64], x: &[f64], panel: &mut [f64]) {
        let mut a = [0.0; K];
        a.copy_from_slice(&alpha[at..at + K]);
        for (row, &xj) in panel.chunks_exact_mut(k).zip(x) {
            for (v, &ar) in row[at..at + K].iter_mut().zip(&a) {
                *v += ar * xj;
            }
        }
    }
    strips!(alpha.len(), strip(alpha, x, panel))
}

/// [`axpys`] then [`dots`] against `z`, in one sweep:
/// `panel[j·k + r] += alpha[r] · x[j]`, then `acc[r] += z[j] · panel[j·k + r]`
/// — [`crate::vecops::axpy_dot`] on each lane, the bits of the two calls.
pub fn axpys_dots(alpha: &[f64], x: &[f64], panel: &mut [f64], z: &[f64], acc: &mut [f64]) {
    assert_eq!(acc.len(), alpha.len(), "panel axpys_dots: length mismatch");
    assert!(
        panel.len() == x.len() * alpha.len() && z.len() == x.len(),
        "panel axpys_dots: length mismatch"
    );
    fn strip<const K: usize>(
        k: usize,
        at: usize,
        alpha: &[f64],
        x: &[f64],
        panel: &mut [f64],
        z: &[f64],
        acc: &mut [f64],
    ) {
        let mut a = [0.0; K];
        a.copy_from_slice(&alpha[at..at + K]);
        let mut sums = [0.0; K];
        sums.copy_from_slice(&acc[at..at + K]);
        for ((row, &xj), &zj) in panel.chunks_exact_mut(k).zip(x).zip(z) {
            for ((v, &ar), sum) in row[at..at + K].iter_mut().zip(&a).zip(&mut sums) {
                *v += ar * xj;
                *sum += zj * *v;
            }
        }
        acc[at..at + K].copy_from_slice(&sums);
    }
    strips!(alpha.len(), strip(alpha, x, panel, z, acc))
}

/// Forward substitution `L y = b` on every lane of `x`; `l` is lower
/// triangular with the diagonal first in each column.
pub(crate) fn solve_lower(l: &Csc, k: usize, x: &mut [f64]) {
    fn strip<const K: usize>(k: usize, at: usize, l: &Csc, x: &mut [f64]) {
        let (cp, ri, vv) = (l.colptr(), l.rowidx(), l.values());
        let mut xj = [0.0; K];
        for j in 0..l.ncols() {
            let (head, below) = x.split_at_mut((j + 1) * k);
            for (t, v) in xj.iter_mut().zip(&mut head[j * k + at..][..K]) {
                *t = *v / vv[cp[j]];
                *v = *t;
            }
            for p in (cp[j] + 1)..cp[j + 1] {
                for (v, &t) in below[(ri[p] - j - 1) * k + at..][..K].iter_mut().zip(&xj) {
                    *v -= vv[p] * t;
                }
            }
        }
    }
    strips!(k, strip(l, x))
}

/// Backward substitution `Lᵀ y = b` on every lane of `x`.
pub(crate) fn solve_lower_t(l: &Csc, k: usize, x: &mut [f64]) {
    fn strip<const K: usize>(k: usize, at: usize, l: &Csc, x: &mut [f64]) {
        let (cp, ri, vv) = (l.colptr(), l.rowidx(), l.values());
        let mut sum = [0.0; K];
        for j in (0..l.ncols()).rev() {
            let (head, below) = x.split_at_mut((j + 1) * k);
            let row = &mut head[j * k + at..][..K];
            sum.copy_from_slice(row);
            for p in (cp[j] + 1)..cp[j + 1] {
                for (s, &v) in sum.iter_mut().zip(&below[(ri[p] - j - 1) * k + at..][..K]) {
                    *s -= vv[p] * v;
                }
            }
            for (v, &s) in row.iter_mut().zip(&sum) {
                *v = s / vv[cp[j]];
            }
        }
    }
    strips!(k, strip(l, x))
}

/// `y = A x` on every lane, where column `i` of `rows` is row `i` of `A`:
/// each output row is summed from `+0.0` over its entries in ascending
/// column order, a zero lane entry adding `+0.0`, and written once. With
/// every stored value `finite`, `v · 0` is `±0`, which leaves a sum that
/// starts at `+0.0` unchanged, so the term is taken without the zero test.
pub(crate) fn matmul_rows(rows: &Csc, finite: bool, k: usize, x: &[f64], y: &mut [f64]) {
    fn strip<const K: usize>(
        k: usize,
        at: usize,
        rows: &Csc,
        finite: bool,
        x: &[f64],
        y: &mut [f64],
    ) {
        if finite {
            gather::<K>(k, at, rows, x, y, |v, t| v * t);
        } else {
            gather::<K>(k, at, rows, x, y, |v, t| if t != 0.0 { v * t } else { 0.0 });
        }
    }
    #[inline(always)]
    fn gather<const K: usize>(
        k: usize,
        at: usize,
        rows: &Csc,
        x: &[f64],
        y: &mut [f64],
        term: impl Fn(f64, f64) -> f64,
    ) {
        let (cp, ci, vv) = (rows.colptr(), rows.rowidx(), rows.values());
        for (i, yi) in y.chunks_exact_mut(k).enumerate() {
            let mut sum = [0.0; K];
            for p in cp[i]..cp[i + 1] {
                let v = vv[p];
                for (s, &t) in sum.iter_mut().zip(&x[ci[p] * k + at..][..K]) {
                    *s += term(v, t);
                }
            }
            yi[at..at + K].copy_from_slice(&sum);
        }
    }
    strips!(k, strip(rows, finite, x, y))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chol::SparseCholesky;
    use crate::sparse::Triplets;
    use crate::vecops::{axpy, axpy_dot, dot};
    use pcv_rng::Rng;

    /// SPD matrices whose factors are a chain (RC line), an arrow that fills
    /// in completely (dense first column) and a random pattern with fill.
    fn spd_matrices(rng: &mut Rng) -> Vec<(&'static str, Csc)> {
        let n = 37;
        let build = |offdiag: &[(usize, usize, f64)]| {
            let mut t = Triplets::new(n, n);
            let mut diag = vec![0.5; n];
            for &(a, b, g) in offdiag {
                t.push(a, b, -g);
                t.push(b, a, -g);
                diag[a] += g;
                diag[b] += g;
            }
            diag.iter().enumerate().for_each(|(i, &d)| t.push(i, i, d));
            t.to_csc()
        };
        let chain: Vec<_> = (1..n).map(|i| (i - 1, i, rng.range_f64(0.1, 3.0))).collect();
        let arrow: Vec<_> = (1..n).map(|i| (0, i, rng.range_f64(0.1, 3.0))).collect();
        let mut filled = chain.clone();
        for _ in 0..2 * n {
            let (a, b) = (rng.range_usize(0, n), rng.range_usize(0, n));
            if a != b {
                filled.push((a, b, rng.range_f64(0.1, 3.0)));
            }
        }
        vec![("chain", build(&chain)), ("arrow", build(&arrow)), ("filled", build(&filled))]
    }

    /// `k` vectors of length `n` with exact zeros, `-0.0`, one whole zero
    /// row in three and — from three lanes up — one whole zero vector.
    fn vectors(rng: &mut Rng, n: usize, k: usize) -> Vec<Vec<f64>> {
        let zero_rows: Vec<bool> = (0..n).map(|_| rng.bool_with(0.3)).collect();
        (0..k)
            .map(|r| {
                (0..n)
                    .map(|j| match rng.range_usize(0, 8) {
                        _ if zero_rows[j] || (k > 2 && r == 1) => 0.0,
                        0 => 0.0,
                        1 => -0.0,
                        _ => rng.range_f64(-2.0, 2.0),
                    })
                    .collect()
            })
            .collect()
    }

    fn pack(vs: &[Vec<f64>]) -> Vec<f64> {
        let (k, n) = (vs.len(), vs[0].len());
        (0..n * k).map(|i| vs[i % k][i / k]).collect()
    }

    fn assert_lanes(panel: &[f64], want: &[Vec<f64>], what: &str) {
        let k = want.len();
        for (r, w) in want.iter().enumerate() {
            for (j, v) in w.iter().enumerate() {
                let got = panel[j * k + r];
                assert_eq!(got.to_bits(), v.to_bits(), "{what}: lane {r} row {j}: {got} vs {v}");
            }
        }
    }

    #[test]
    fn a_panel_solve_or_product_is_its_single_calls_lane_by_lane() {
        let mut rng = Rng::new(0x9A9E1);
        for (shape, a) in spd_matrices(&mut rng) {
            let chol = SparseCholesky::factor(&a).unwrap();
            assert!(shape != "arrow" || chol.nnz() == 37 * 38 / 2, "the arrow fills in");
            for k in 1..=12usize {
                let what = format!("{shape} k={k}");
                let vs = vectors(&mut rng, a.ncols(), k);
                let single = |f: &dyn Fn(&mut Vec<f64>)| -> Vec<Vec<f64>> {
                    let mut out = vs.clone();
                    out.iter_mut().for_each(f);
                    out
                };

                let mut x = pack(&vs);
                chol.solve_lower_in_place(&mut x);
                let want = single(&|v| chol.solve_lower_in_place(v));
                assert_lanes(&x, &want, &format!("{what} L solve"));

                let mut x = pack(&vs);
                chol.solve_lower_t_in_place(&mut x);
                let want = single(&|v| chol.solve_lower_t_in_place(v));
                assert_lanes(&x, &want, &format!("{what} Lt solve"));

                // Into a dirty buffer: the product clears it first. With an
                // infinite entry, a zero that is skipped and a zero that is
                // multiplied differ.
                let mut hostile = a.clone();
                hostile.values_mut()[k] = f64::INFINITY;
                for (a, what) in
                    [(&a, format!("{what} product")), (&hostile, format!("{what} inf"))]
                {
                    let mut y = vec![f64::NAN; a.nrows() * k];
                    a.matvec_into(&pack(&vs), &mut y);
                    assert_lanes(&y, &single(&|v| *v = a.matvec(v)), &what);
                    assert!(y.iter().all(|v| v.to_bits() != (-0.0f64).to_bits()), "{what}: -0.0");
                }
            }
        }
    }

    /// Against `dot` and `axpy` to the bit, over the values where summation
    /// order or the starting zero shows: signed zeros, subnormals, and an
    /// `inf * 0` NaN that must poison its own lane only.
    #[test]
    fn lane_sums_and_updates_have_the_bits_of_dot_and_axpy() {
        let mut rng = Rng::new(0xD07);
        let special = [0.0, -0.0, f64::MIN_POSITIVE / 8.0, -5e-324, 1e300, -1e-300];
        let draw = |rng: &mut Rng| {
            if rng.bool_with(0.25) {
                special[rng.range_usize(0, special.len())]
            } else {
                rng.range_f64(-1.0, 1.0) * 10f64.powi(rng.range_usize(0, 12) as i32 - 6)
            }
        };
        for n in [0usize, 1, 7, 700] {
            for k in 1..=12usize {
                let mut vs: Vec<Vec<f64>> =
                    (0..k).map(|_| (0..n).map(|_| draw(&mut rng)).collect()).collect();
                let mut x: Vec<f64> = (0..n).map(|_| draw(&mut rng)).collect();
                if n > 1 {
                    vs[0].fill(-0.0);
                    x[n / 2] = 0.0;
                    vs[k - 1][n / 2] = f64::INFINITY;
                }
                let panel = pack(&vs);
                let what = format!("n={n} k={k}");

                // Whole, and carried across two pieces of rows.
                let mut whole = vec![-0.0; k];
                dots(&x, &panel, &mut whole);
                let cut = n / 3;
                let mut pieces = vec![-0.0; k];
                dots(&x[..cut], &panel[..cut * k], &mut pieces);
                dots(&x[cut..], &panel[cut * k..], &mut pieces);
                let mut squares = vec![-0.0; k];
                sums_of_squares(&panel, &mut squares);
                for (r, v) in vs.iter().enumerate() {
                    let want = dot(&x, v).to_bits();
                    assert_eq!(whole[r].to_bits(), want, "{what} lane {r}: dots");
                    assert_eq!(pieces[r].to_bits(), want, "{what} lane {r}: carried dots");
                    assert_eq!(
                        squares[r].to_bits(),
                        dot(v, v).to_bits(),
                        "{what} lane {r}: squares"
                    );
                }
                if n > 1 {
                    assert!(whole[k - 1].is_nan() && (k == 1 || !whole[0].is_nan()), "{what}");
                }

                let alpha: Vec<f64> = (0..k).map(|_| draw(&mut rng)).collect();
                let mut updated = panel.clone();
                axpys(&alpha, &x, &mut updated);
                let mut want = vs.clone();
                want.iter_mut().zip(&alpha).for_each(|(v, &a)| axpy(a, &x, v));
                assert_lanes(&updated, &want, &format!("{what} axpys"));
            }
        }
    }

    #[test]
    fn a_fused_sweep_has_the_bits_of_axpy_then_dot_on_each_lane() {
        let mut rng = Rng::new(0xF05ED);
        let special = [0.0, -0.0, f64::MIN_POSITIVE / 8.0, -5e-324, 1e300, -1e-300];
        let draw = |rng: &mut Rng| {
            if rng.bool_with(0.25) {
                special[rng.range_usize(0, special.len())]
            } else {
                rng.range_f64(-1.0, 1.0) * 10f64.powi(rng.range_usize(0, 12) as i32 - 6)
            }
        };
        for n in [0usize, 1, 7, 700] {
            for k in 1..=12usize {
                let mut vs: Vec<Vec<f64>> =
                    (0..k).map(|_| (0..n).map(|_| draw(&mut rng)).collect()).collect();
                let x: Vec<f64> = (0..n).map(|_| draw(&mut rng)).collect();
                let mut z: Vec<f64> = (0..n).map(|_| draw(&mut rng)).collect();
                if n > 1 {
                    vs[0].fill(-0.0);
                    z[n / 2] = f64::INFINITY;
                }
                let alpha: Vec<f64> = (0..k).map(|_| draw(&mut rng)).collect();
                let mut panel = pack(&vs);
                let mut acc: Vec<f64> = (0..k).map(|r| [-0.0, 0.0, 1.5][r % 3]).collect();
                let start = acc.clone();
                axpys_dots(&alpha, &x, &mut panel, &z, &mut acc);
                for (r, v) in vs.iter_mut().enumerate() {
                    let what = format!("n={n} k={k} lane {r}");
                    let d = axpy_dot(alpha[r], &x, v, &z);
                    // `axpy_dot` sums from -0.0; the carried start adds first.
                    let want = if start[r] == 0.0 && start[r].is_sign_negative() {
                        d
                    } else {
                        let mut s = start[r];
                        z.iter().zip(v.iter()).for_each(|(zj, vj)| s += zj * vj);
                        s
                    };
                    assert_eq!(acc[r].to_bits(), want.to_bits(), "{what}: sum");
                }
                assert_lanes(&panel, &vs, &format!("n={n} k={k} update"));
            }
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dots_rejects_length_mismatch() {
        dots(&[1.0, 2.0], &[1.0; 7], &mut [-0.0; 4]);
    }
}
