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

/// Euclidean norm of a slice.
#[inline]
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
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

/// `y += alpha * x` and then `dot(z, y)`, in one sweep: the bits of [`axpy`]
/// followed by [`dot`], without the second walk over `y`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn axpy_dot(alpha: f64, x: &[f64], y: &mut [f64], z: &[f64]) -> f64 {
    assert!(x.len() == y.len() && z.len() == y.len(), "axpy_dot: length mismatch");
    let mut sum = -0.0;
    for ((yi, xi), zi) in y.iter_mut().zip(x).zip(z) {
        *yi += alpha * xi;
        sum += zi * *yi;
    }
    sum
}

/// Scale a slice in place: `x *= alpha`.
#[inline]
pub fn scale(alpha: f64, x: &mut [f64]) {
    for xi in x.iter_mut() {
        *xi *= alpha;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norms() {
        let x = [3.0, 4.0];
        assert_eq!(dot(&x, &x), 25.0);
        assert_eq!(norm2(&x), 5.0);
    }

    #[test]
    fn axpy_accumulates() {
        let x = [1.0, 2.0];
        let mut y = [10.0, 20.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0]);
    }

    #[test]
    fn axpy_dot_is_axpy_then_dot() {
        let mut rng = pcv_rng::Rng::new(0xA9D);
        for n in [0usize, 1, 5, 333] {
            let mut draw = || (0..n).map(|_| rng.range_f64(-3.0, 3.0)).collect::<Vec<f64>>();
            let (x, y, mut z) = (draw(), draw(), draw());
            if n > 1 {
                z[1] = -0.0;
            }
            let mut fused = y.clone();
            let got = axpy_dot(-0.75, &x, &mut fused, &z);
            let mut want = y;
            axpy(-0.75, &x, &mut want);
            assert_eq!(fused, want);
            assert_eq!(got.to_bits(), dot(&z, &want).to_bits(), "n={n}");
        }
    }

    #[test]
    fn scale_in_place() {
        let mut x = [1.0, -2.0];
        scale(-3.0, &mut x);
        assert_eq!(x, [-3.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_rejects_length_mismatch() {
        dot(&[1.0], &[1.0, 2.0]);
    }
}
