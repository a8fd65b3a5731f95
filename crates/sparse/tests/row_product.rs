//! The panel product `Csc::matvec_into` against the single-vector
//! `Csc::matvec`, lane by lane and bit for bit: symmetric, bitwise
//! asymmetric, unsymmetric and rectangular matrices, with an infinite
//! entry (where a skipped zero and a multiplied zero differ), lanes of
//! `+0.0` and `-0.0`, signed zeros and an infinity inside lanes.

use pcv_rng::Rng;
use pcv_sparse::sparse::{Csc, Triplets};

/// Matrices the product must treat alike: an SPD chain, a pattern-symmetric
/// matrix whose mirrored values differ in their last bit, a random
/// unsymmetric pattern with empty rows and columns, and a wide and a tall
/// rectangle.
fn matrices(rng: &mut Rng) -> Vec<(&'static str, Csc)> {
    let n = 29;
    let mut chain = Triplets::new(n, n);
    let mut skewed = Triplets::new(n, n);
    for i in 0..n {
        chain.push(i, i, rng.range_f64(2.0, 4.0));
        skewed.push(i, i, rng.range_f64(2.0, 4.0));
        if i > 0 {
            let g = -rng.range_f64(0.1, 1.0);
            chain.push(i, i - 1, g);
            chain.push(i - 1, i, g);
            skewed.push(i, i - 1, g);
            skewed.push(i - 1, i, f64::from_bits(g.to_bits() + 1));
        }
    }
    let random = |rng: &mut Rng, rows: usize, cols: usize| {
        let mut t = Triplets::new(rows, cols);
        for _ in 0..3 * rows.max(cols) {
            let (r, c) = (rng.range_usize(0, rows), rng.range_usize(0, cols));
            // Rows and columns 3 stay empty.
            if r != 3 && c != 3 {
                t.push(
                    r,
                    c,
                    rng.range_f64(-2.0, 2.0) * 10f64.powi(rng.range_usize(0, 8) as i32 - 4),
                );
            }
        }
        t.to_csc()
    };
    vec![
        ("spd chain", chain.to_csc()),
        ("bitwise asymmetric", skewed.to_csc()),
        ("unsymmetric", random(rng, n, n)),
        ("wide", random(rng, 11, n)),
        ("tall", random(rng, n, 11)),
    ]
}

/// `k` lanes of length `n`: lane 1 all `+0.0` and lane 2 all `-0.0` (from
/// three lanes up), elsewhere ordinary values with signed zeros, a whole
/// zero row in four and one infinity.
fn lanes(rng: &mut Rng, n: usize, k: usize) -> Vec<Vec<f64>> {
    let zero_rows: Vec<bool> = (0..n).map(|_| rng.bool_with(0.25)).collect();
    let mut vs: Vec<Vec<f64>> = (0..k)
        .map(|r| {
            (0..n)
                .map(|j| match rng.range_usize(0, 8) {
                    _ if k > 2 && r == 1 => 0.0,
                    _ if k > 2 && r == 2 => -0.0,
                    _ if zero_rows[j] => 0.0,
                    0 => 0.0,
                    1 => -0.0,
                    _ => rng.range_f64(-3.0, 3.0),
                })
                .collect()
        })
        .collect();
    if k > 3 {
        vs[3][n / 2] = f64::INFINITY;
    }
    vs
}

#[test]
fn a_panel_product_is_its_single_vector_products_lane_by_lane() {
    let mut rng = Rng::new(0x0520_D0C7);
    for (shape, a) in matrices(&mut rng) {
        let mut hostile = a.clone();
        let at = hostile.nnz() / 2;
        hostile.values_mut()[at] = f64::INFINITY;
        for (a, what) in [(&a, shape.to_owned()), (&hostile, format!("{shape} with inf"))] {
            for k in 1..=12usize {
                let vs = lanes(&mut rng, a.ncols(), k);
                let panel: Vec<f64> = (0..a.ncols() * k).map(|i| vs[i % k][i / k]).collect();
                // Into a dirty buffer: the product writes every entry.
                let mut y = vec![f64::NAN; a.nrows() * k];
                a.matvec_into(&panel, &mut y);
                for (r, v) in vs.iter().enumerate() {
                    let want = a.matvec(v);
                    for (i, w) in want.iter().enumerate() {
                        let got = y[i * k + r];
                        assert_eq!(
                            got.to_bits(),
                            w.to_bits(),
                            "{what} k={k}: lane {r} row {i}: {got} vs {w}"
                        );
                    }
                }
            }
        }
    }
}
