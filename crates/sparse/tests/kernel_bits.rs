//! Bit pins of the dense eigensolver and the sparse Cholesky factor: FNV-1a
//! digests of every output bit over seeded inputs, recorded by running this
//! file against the element-wise Jacobi sweep and the one-`Vec`-a-row
//! symbolic pass that the row-slice and flat-buffer forms replaced. A digest
//! that moves means an eigenpair or a factor moved a bit: fix the kernel,
//! never the constant.

use pcv_rng::Rng;
use pcv_sparse::chol::SparseCholesky;
use pcv_sparse::dense::Dense;
use pcv_sparse::eig::jacobi_eigen;
use pcv_sparse::sparse::{Csc, Triplets};

/// FNV-1a 64 over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn f64s<'a>(&mut self, vs: impl IntoIterator<Item = &'a f64>) {
        vs.into_iter().for_each(|v| self.word(v.to_bits()));
    }

    fn usizes<'a>(&mut self, vs: impl IntoIterator<Item = &'a usize>) {
        vs.into_iter().for_each(|&v| self.word(v as u64));
    }
}

/// Symmetric matrices of order `n`: random with exact zeros and `-0.0`
/// (skipped rotations), `c·I + u uᵀ` (an `n − 1`-fold eigenvalue), one 2×2
/// block repeated down the diagonal (pairs of equal eigenvalues), and zero.
fn symmetric_cases(rng: &mut Rng, n: usize) -> Vec<Dense> {
    let sparse = Dense::from_fn(n, n, |_, _| match rng.range_usize(0, 6) {
        0 | 1 => 0.0,
        2 => -0.0,
        _ => rng.range_f64(-2.0, 2.0),
    });
    let c = rng.range_f64(0.5, 2.0);
    let u: Vec<f64> = (0..n).map(|_| rng.range_f64(-1.0, 1.0)).collect();
    let rank_one = Dense::from_fn(n, n, |r, k| u[r] * u[k] + if r == k { c } else { 0.0 });
    let block =
        [[rng.range_f64(1.0, 3.0), rng.range_f64(-1.0, 1.0)], [0.0, rng.range_f64(1.0, 3.0)]];
    let blocks = Dense::from_fn(n, n, |r, k| match (r / 2 == k / 2, r % 2, k % 2) {
        (false, _, _) => 0.0,
        (true, 1, 0) => block[0][1],
        (true, i, j) => block[i][j],
    });
    vec![sparse, rank_one, blocks, Dense::zeros(n, n)]
}

#[test]
fn jacobi_eigenpairs_keep_their_recorded_bits() {
    let mut rng = Rng::new(0xE16E);
    let mut h = Fnv::new();
    for n in 1..=40 {
        for m in symmetric_cases(&mut rng, n) {
            let eig = jacobi_eigen(&m).unwrap();
            h.f64s(&eig.values);
            (0..n).for_each(|r| h.f64s(eig.vectors.row(r)));
        }
    }
    assert_eq!(h.0, 0xc185_d33b_42fc_2bf3, "digest {:#018x}", h.0);
}

/// `0.5·I` plus a conductance stamp per coupling `(a, b, g)`, as the panel
/// tests build their matrices.
fn spd(n: usize, couplings: &[(usize, usize, f64)]) -> Csc {
    let mut t = Triplets::new(n, n);
    let mut diag = vec![0.5; n];
    for &(a, b, g) in couplings {
        t.push(a, b, -g);
        t.push(b, a, -g);
        diag[a] += g;
        diag[b] += g;
    }
    diag.iter().enumerate().for_each(|(i, &d)| t.push(i, i, d));
    t.to_csc()
}

#[test]
fn cholesky_factors_keep_their_recorded_bits() {
    let mut rng = Rng::new(0xC401);
    let mut h = Fnv::new();
    let factor = |h: &mut Fnv, a: &Csc| match SparseCholesky::factor(a) {
        Ok(chol) => {
            let l = chol.l();
            h.usizes(l.colptr());
            h.usizes(l.rowidx());
            h.f64s(l.values());
        }
        Err(e) => e.to_string().bytes().for_each(|b| h.word(u64::from(b))),
    };
    // The panel tests' shapes — a chain (an RC line), an arrow that fills
    // in completely, a chain plus random couplings — at every order to 40,
    // some couplings exactly zero.
    for n in 1..=40 {
        let g = |rng: &mut Rng| if rng.bool_with(0.1) { 0.0 } else { rng.range_f64(0.1, 3.0) };
        let chain: Vec<_> = (1..n).map(|i| (i - 1, i, g(&mut rng))).collect();
        let arrow: Vec<_> = (1..n).map(|i| (0, i, g(&mut rng))).collect();
        let mut filled = chain.clone();
        for _ in 0..2 * n {
            let (a, b) = (rng.range_usize(0, n), rng.range_usize(0, n));
            if a != b {
                filled.push((a, b, g(&mut rng)));
            }
        }
        for couplings in [chain, arrow, filled] {
            factor(&mut h, &spd(n, &couplings));
        }
    }
    // Not positive definite: the typed error, its column and pivot.
    let mut t = Triplets::new(3, 3);
    [(0, 0, 1.0), (1, 1, 1.0), (1, 2, 2.0), (2, 1, 2.0), (2, 2, 1.0)]
        .iter()
        .for_each(|&(r, c, v)| t.push(r, c, v));
    factor(&mut h, &t.to_csc());
    // A 10 000-node chain.
    let chain: Vec<_> = (1..10_000).map(|i| (i - 1, i, rng.range_f64(0.01, 50.0))).collect();
    factor(&mut h, &spd(10_000, &chain));
    assert_eq!(h.0, 0xd1a7_7a8d_e6e2_1213, "digest {:#018x}", h.0);
}
