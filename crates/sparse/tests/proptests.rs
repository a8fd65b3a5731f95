//! Randomized-property tests for the linear-algebra kernels: factorizations
//! must reproduce the matrices they factor and solves must invert matvecs,
//! for arbitrary well-conditioned inputs. Driven by the seeded internal
//! PRNG so the workspace builds offline.

use pcv_rng::Rng;
use pcv_sparse::chol::SparseCholesky;
use pcv_sparse::dense::{Dense, DenseLu};
use pcv_sparse::eig::jacobi_eigen;
use pcv_sparse::lu::SparseLu;
use pcv_sparse::order::rcm;
use pcv_sparse::sparse::Triplets;

/// A random sparse, strictly diagonally dominant matrix (hence nonsingular),
/// with the off-diagonal structure of a resistor network: this is the matrix
/// family MNA actually produces.
fn dd_matrix(n: usize, entries: Vec<(usize, usize, f64)>) -> pcv_sparse::Csc {
    let mut t = Triplets::new(n, n);
    let mut diag = vec![1.0; n]; // baseline keeps strict dominance
    for (r, c, v) in entries {
        let (r, c) = (r % n, c % n);
        if r == c {
            continue;
        }
        t.push(r, c, v);
        diag[r] += v.abs();
    }
    for (i, d) in diag.iter().enumerate() {
        t.push(i, i, *d);
    }
    t.to_csc()
}

/// Like `dd_matrix` but symmetric (SPD by Gershgorin).
fn spd_matrix(n: usize, entries: Vec<(usize, usize, f64)>) -> pcv_sparse::Csc {
    let mut t = Triplets::new(n, n);
    let mut diag = vec![1.0; n];
    for (r, c, v) in entries {
        let (r, c) = (r % n, c % n);
        if r == c {
            continue;
        }
        let v = -v.abs(); // resistor-like negative off-diagonals
        t.push(r, c, v);
        t.push(c, r, v);
        diag[r] += v.abs();
        diag[c] += v.abs();
    }
    for (i, d) in diag.iter().enumerate() {
        t.push(i, i, *d);
    }
    t.to_csc()
}

fn entries(rng: &mut Rng, n: usize) -> Vec<(usize, usize, f64)> {
    let count = rng.range_usize(0, (3 * n).max(1));
    (0..count)
        .map(|_| (rng.range_usize(0, n), rng.range_usize(0, n), rng.range_f64(-2.0, 2.0)))
        .collect()
}

#[test]
fn sparse_cholesky_solves_spd_systems() {
    let mut rng = Rng::new(0x59A171);
    for _ in 0..64 {
        let n = rng.range_usize(2, 30);
        let a = spd_matrix(n, entries(&mut rng, n));
        let seed = rng.range_usize(0, 1000) as u64;
        let xref: Vec<f64> = (0..n).map(|i| ((i as u64 + seed) as f64 * 0.613).sin()).collect();
        let b = a.matvec(&xref);
        let chol = SparseCholesky::factor(&a).unwrap();
        let x = chol.solve(&b);
        for (xi, ri) in x.iter().zip(&xref) {
            assert!((xi - ri).abs() < 1e-8, "{xi} vs {ri}");
        }
    }
}

#[test]
fn sparse_cholesky_reconstructs() {
    let mut rng = Rng::new(0x59A172);
    for _ in 0..64 {
        let n = rng.range_usize(2, 20);
        let a = spd_matrix(n, entries(&mut rng, n));
        let chol = SparseCholesky::factor(&a).unwrap();
        let l = chol.l().to_dense();
        let llt = l.matmul(&l.transpose()).unwrap();
        let ad = a.to_dense();
        for r in 0..n {
            for c in 0..n {
                assert!((llt[(r, c)] - ad[(r, c)]).abs() < 1e-9);
            }
        }
    }
}

#[test]
fn sparse_lu_solves_dd_systems() {
    let mut rng = Rng::new(0x59A173);
    for _ in 0..64 {
        let n = rng.range_usize(2, 30);
        let a = dd_matrix(n, entries(&mut rng, n));
        let seed = rng.range_usize(0, 1000) as u64;
        let xref: Vec<f64> = (0..n).map(|i| ((i as u64 * 3 + seed) as f64 * 0.217).cos()).collect();
        let b = a.matvec(&xref);
        let lu = SparseLu::factor(&a, 1e-3).unwrap();
        let x = lu.solve(&b);
        for (xi, ri) in x.iter().zip(&xref) {
            assert!((xi - ri).abs() < 1e-8, "{xi} vs {ri}");
        }
    }
}

#[test]
fn sparse_lu_agrees_with_dense_lu() {
    let mut rng = Rng::new(0x59A174);
    for _ in 0..64 {
        let n = rng.range_usize(2, 12);
        let a = dd_matrix(n, entries(&mut rng, n));
        let b: Vec<f64> = (0..n).map(|i| (i as f64) - 1.5).collect();
        let sparse = SparseLu::factor(&a, 1.0).unwrap().solve(&b);
        let dense = DenseLu::factor(a.to_dense()).unwrap().solve(&b);
        for (s, d) in sparse.iter().zip(&dense) {
            assert!((s - d).abs() < 1e-9);
        }
    }
}

#[test]
fn rcm_permutation_preserves_solution() {
    let mut rng = Rng::new(0x59A175);
    for _ in 0..64 {
        let n = rng.range_usize(2, 20);
        let a = spd_matrix(n, entries(&mut rng, n));
        let perm = rcm(&a);
        let ap = a.permute_sym(&perm);
        // Solve in permuted space and map back.
        let xref: Vec<f64> = (0..n).map(|i| (i as f64 * 0.31).sin()).collect();
        let b = a.matvec(&xref);
        let bp: Vec<f64> = perm.iter().map(|&old| b[old]).collect();
        let xp = SparseCholesky::factor(&ap).unwrap().solve(&bp);
        for (new, &old) in perm.iter().enumerate() {
            assert!((xp[new] - xref[old]).abs() < 1e-8);
        }
    }
}

#[test]
fn jacobi_eigenvalues_match_trace_and_are_real_sorted() {
    let mut rng = Rng::new(0x59A176);
    for _ in 0..64 {
        let n = rng.range_usize(1, 10);
        let raw: Vec<f64> = (0..100).map(|_| rng.range_f64(-3.0, 3.0)).collect();
        let mut a = Dense::from_fn(n, n, |r, c| raw[(r * n + c) % raw.len()]);
        a.symmetrize();
        let eig = jacobi_eigen(&a).unwrap();
        let trace: f64 = (0..n).map(|i| a[(i, i)]).sum();
        let sum: f64 = eig.values.iter().sum();
        assert!((trace - sum).abs() < 1e-9 * (1.0 + trace.abs()));
        for w in eig.values.windows(2) {
            assert!(w[0] <= w[1] + 1e-12);
        }
    }
}

#[test]
fn triplet_assembly_matches_dense_accumulation() {
    let mut rng = Rng::new(0x59A178);
    for _ in 0..64 {
        let n = rng.range_usize(1, 8);
        let count = rng.range_usize(0, 40);
        let mut t = Triplets::new(n, n);
        let mut dense = Dense::zeros(n, n);
        for _ in 0..count {
            let r = rng.range_usize(0, n);
            let c = rng.range_usize(0, n);
            let v = rng.range_f64(-5.0, 5.0);
            t.push(r, c, v);
            dense[(r, c)] += v;
        }
        let a = t.to_csc();
        for r in 0..n {
            for c in 0..n {
                assert!((a.get(r, c) - dense[(r, c)]).abs() < 1e-12);
            }
        }
    }
}
