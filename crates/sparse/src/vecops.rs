//! Small vector helpers used throughout the workspace.

/// Dot product of two equally sized slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

/// How many products [`dot_many`] carries at once.
const LANES: usize = 4;

/// `out[k] = dot(&xs[k], y)` for every `k`, `LANES` (4) products at a time.
///
/// Each product keeps its own accumulator and adds left to right from the
/// neutral element of `f64`'s `Sum` (`-0.0`), so every `out[k]` has exactly
/// the bits [`dot`] returns. What changes is latency: one product is a chain
/// of dependent additions, and several independent chains overlap.
///
/// # Panics
///
/// Panics if `out` and `xs` differ in length or any `xs[k]` differs from `y`.
pub fn dot_many<X: AsRef<[f64]>>(xs: &[X], y: &[f64], out: &mut [f64]) {
    assert_eq!(xs.len(), out.len(), "dot_many: one output per product");
    let mut blocks = xs.chunks_exact(LANES);
    let mut outs = out.chunks_exact_mut(LANES);
    for (block, o) in blocks.by_ref().zip(outs.by_ref()) {
        let lanes: [&[f64]; LANES] = std::array::from_fn(|k| block[k].as_ref());
        o.copy_from_slice(&dot_lanes(lanes, y));
    }
    for (x, o) in blocks.remainder().iter().zip(outs.into_remainder()) {
        *o = dot(x.as_ref(), y);
    }
}

/// `K` dot products against one `y`, interleaved element by element.
#[inline]
fn dot_lanes<const K: usize>(xs: [&[f64]; K], y: &[f64]) -> [f64; K] {
    let n = y.len();
    let xs = xs.map(|x| {
        assert_eq!(x.len(), n, "dot_many: length mismatch");
        &x[..n]
    });
    let mut acc = [-0.0_f64; K];
    for (i, &yi) in y.iter().enumerate() {
        for k in 0..K {
            acc[k] += xs[k][i] * yi;
        }
    }
    acc
}

/// Euclidean norm of a slice.
#[inline]
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// Infinity norm (largest absolute entry) of a slice; `0.0` when empty.
#[inline]
pub fn norm_inf(x: &[f64]) -> f64 {
    x.iter().fold(0.0_f64, |m, &v| m.max(v.abs()))
}

/// `y += alpha * x`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Scale a slice in place: `x *= alpha`.
#[inline]
pub fn scale(alpha: f64, x: &mut [f64]) {
    for xi in x.iter_mut() {
        *xi *= alpha;
    }
}

/// Relative difference `|a - b| / max(|a|, |b|, floor)`, a robust metric for
/// comparing measured quantities (glitch peaks, delays) against a reference.
#[inline]
pub fn rel_diff(a: f64, b: f64, floor: f64) -> f64 {
    (a - b).abs() / a.abs().max(b.abs()).max(floor)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norms() {
        let x = [3.0, 4.0];
        assert_eq!(dot(&x, &x), 25.0);
        assert_eq!(norm2(&x), 5.0);
        assert_eq!(norm_inf(&x), 4.0);
        assert_eq!(norm_inf(&[]), 0.0);
    }

    /// `dot_many` against `dot`, to the bit, over every block/remainder split
    /// and over the values where summation order or the starting zero shows:
    /// signed zeros, subnormals, and an `inf * 0` NaN.
    #[test]
    fn dot_many_has_the_bits_of_dot() {
        use pcv_rng::Rng;
        let mut rng = Rng::new(0xD07);
        let special = [0.0, -0.0, f64::MIN_POSITIVE / 8.0, -5e-324, 1e300, -1e-300];
        for n in [0usize, 1, 7, 9183] {
            for q in 1..=9usize {
                let draw = |rng: &mut Rng| {
                    if rng.bool_with(0.25) {
                        special[rng.range_usize(0, special.len())]
                    } else {
                        rng.range_f64(-1.0, 1.0) * 10f64.powi(rng.range_usize(0, 12) as i32 - 6)
                    }
                };
                let mut xs: Vec<Vec<f64>> =
                    (0..q).map(|_| (0..n).map(|_| draw(&mut rng)).collect()).collect();
                let mut y: Vec<f64> = (0..n).map(|_| draw(&mut rng)).collect();
                if n > 1 {
                    // One product that only ever adds signed zeros and one
                    // poisoned by inf * 0, beside ordinary ones.
                    xs[0].fill(-0.0);
                    y[n / 2] = 0.0;
                    xs[q - 1][n / 2] = f64::INFINITY;
                }
                let mut out = vec![f64::NAN; q];
                dot_many(&xs, &y, &mut out);
                for (k, x) in xs.iter().enumerate() {
                    let want = dot(x, &y);
                    assert_eq!(out[k].to_bits(), want.to_bits(), "n={n} q={q} k={k}: {want}");
                }
                if n > 1 {
                    assert!(out[q - 1].is_nan(), "inf * 0 must poison its own product only");
                    assert!(q == 1 || !out[0].is_nan());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_many_rejects_length_mismatch() {
        let xs = vec![vec![1.0; 3]; 4];
        dot_many(&xs, &[1.0, 2.0], &mut [0.0; 4]);
    }

    #[test]
    fn axpy_accumulates() {
        let x = [1.0, 2.0];
        let mut y = [10.0, 20.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0]);
    }

    #[test]
    fn scale_in_place() {
        let mut x = [1.0, -2.0];
        scale(-3.0, &mut x);
        assert_eq!(x, [-3.0, 6.0]);
    }

    #[test]
    fn rel_diff_is_symmetric_and_floored() {
        assert_eq!(rel_diff(1.0, 2.0, 1e-12), rel_diff(2.0, 1.0, 1e-12));
        assert_eq!(rel_diff(0.0, 0.0, 1.0), 0.0);
        assert!((rel_diff(1.0, 1.1, 1e-12) - 0.1 / 1.1).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_rejects_length_mismatch() {
        dot(&[1.0], &[1.0, 2.0]);
    }
}
