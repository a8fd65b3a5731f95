//! The SyMPVL reduction: Cholesky symmetrization plus block Lanczos
//! projection (Section 3 of the paper).
//!
//! Starting from `G v + C v̇ = B i`, a Cholesky factorization `G = FᵀF`
//! and the change of variables `x = F v` give `x + A ẋ = L i` with
//! `A = F⁻ᵀ C F⁻¹` and `L = F⁻ᵀ B`. The block Lanczos iteration builds an
//! orthonormal basis `V` of the block-Krylov subspace
//! `span{L, AL, A²L, …}`; the projections `T = VᵀAV` and `ρ = VᵀL` define
//! the reduced model
//!
//! ```text
//! T v̇_r + v_r = ρ u,      y = ρᵀ v_r
//! ```
//!
//! whose transfer function is a matrix-Padé approximant of the original
//! port impedance `H(s) = Bᵀ (G + sC)⁻¹ B`. Because `T` is a congruence
//! projection of the symmetric positive semidefinite `A`, the reduced model
//! is automatically stable and passive (up to rounding, which
//! [`crate::model::ReducedModel::diagonalize`] cleans up).
//!
//! Full reorthogonalization (two Gram–Schmidt passes) buys robustness
//! against the loss of orthogonality classic Lanczos suffers, and is not
//! cheap: a pruned cluster is 2–8 nets, but at a fine extraction mesh that
//! is ~10⁴ nodes under 3–9 ports, where `F` is a bundle of long chains and a
//! triangular solve or a `dot` is one chain of ~10⁴ dependent operations —
//! latency, not work. So the iteration works on blocks, as
//! [`pcv_sparse::panel`]s, under the lane rule — **a lane is the
//! single-vector call** — and `T`, `ρ` keep the bits of the
//! vector-at-a-time iteration (pinned in this file's tests).

use crate::cancel::CancelToken;
use crate::error::MorError;
use crate::model::ReducedModel;
use crate::rc::RcCluster;
use pcv_sparse::panel::{axpys, axpys_dots, dots, sums_of_squares};
use pcv_sparse::vecops::{axpy, axpy_dot, dot, norm2};
use pcv_sparse::{Dense, SparseCholesky};

/// Deflation tolerance: a candidate basis vector whose norm after
/// orthogonalization falls below this fraction of its pre-orthogonalization
/// norm is considered linearly dependent and dropped.
const DEFLATION_TOL: f64 = 1e-10;

/// Real frequencies (rad/s) at which the stop rule compares the reduced
/// port transfer `ρᵀ(I + sT)⁻¹ρ` of one block with the last: DC and up to
/// the band of ns edges.
const PROBE_S: [f64; 3] = [0.0, 1e8, 1e9];

/// The stop rule's tolerance: the iteration ends once a block moved every
/// entry of the transfer at every [`PROBE_S`] point by less than this
/// fraction of that matrix's largest entry.
const CONVERGED_TOL: f64 = 1e-4;

/// Reduce an RC cluster to a `ReducedModel` using at most `block_iters`
/// block Lanczos steps (so at most `block_iters * num_ports` states, fewer
/// when the Krylov space deflates, the cluster is smaller or the transfer
/// has converged).
///
/// Each block matches two more block moments of the port transfer
/// function, and `block_iters` is the ceiling on the Padé order: from the
/// second block on, the iteration stops once a block no longer moves the
/// reduced transfer at DC, 1e8 and 1e9 rad/s (by 1e-4 of its largest
/// entry), and the model returned includes that block. A ceiling of 3–6 is
/// ample for RC crosstalk clusters.
///
/// # Errors
///
/// * [`MorError::NoPorts`] when the cluster has no ports.
/// * [`MorError::InvalidValue`] when `block_iters == 0`.
/// * [`MorError::Numeric`] if the regularized conductance matrix is not
///   positive definite.
pub fn reduce(cl: &RcCluster, block_iters: usize) -> Result<ReducedModel, MorError> {
    reduce_with(cl, block_iters, None)
}

/// [`reduce`] with an optional cooperative cancellation token, polled once
/// per Lanczos candidate vector so a pathological cluster can be abandoned
/// mid-reduction instead of stalling a worker. The stop rule and the
/// ceiling are [`reduce`]'s: this is the one place the order is decided.
///
/// # Errors
///
/// Everything [`reduce`] returns, plus:
///
/// * [`MorError::Cancelled`] when `cancel` fires mid-iteration.
/// * [`MorError::NonFinite`] if the projected `T`/`ρ` matrices contain NaN
///   or infinite entries (e.g. from a near-singular Cholesky factor).
pub fn reduce_with(
    cl: &RcCluster,
    block_iters: usize,
    cancel: Option<&CancelToken>,
) -> Result<ReducedModel, MorError> {
    let p = cl.num_ports();
    if p == 0 {
        return Err(MorError::NoPorts);
    }
    if block_iters == 0 {
        return Err(MorError::InvalidValue { what: "block_iters" });
    }
    let _span = pcv_trace::span("mor", "sympvl_reduce");
    let n = cl.num_nodes();
    let (c, chol) = {
        let (g, c) = {
            let _assemble_span = pcv_trace::span("mor", "assemble");
            (cl.conductance_matrix(), cl.capacitance_matrix())
        };
        let _chol_span = pcv_trace::span("mor", "cholesky");
        (c, SparseCholesky::factor(&g)?)
    };

    // L = F⁻ᵀ B as one panel: lane j is L⁻¹ e_{port_j} (forward solves with
    // the Cholesky factor, since F = Lᵀ).
    let mut l = vec![0.0; n * p];
    for (j, &port) in cl.ports().iter().enumerate() {
        l[port * p + j] = 1.0;
    }
    chol.solve_lower_in_place(&mut l);

    // Block Lanczos with full reorthogonalization. `basis` collects the
    // orthonormal vectors; `panels` keeps L, then A·V of each block: the next
    // block's candidates and the columns of ρ and T. `work` is the one panel
    // workspace: candidates, then a block's vectors under F⁻¹. Each block is
    // projected as it arrives, and below the ceiling its transfer at
    // `PROBE_S` is held against the last block's.
    let _lanczos_span = pcv_trace::span("mor", "block_lanczos");
    let c = c.rows();
    let cancelled = || cancel.is_some_and(CancelToken::is_cancelled);
    let max_states = (block_iters * p).min(n);
    let mut basis: Vec<Vec<f64>> = Vec::with_capacity(max_states);
    let mut work = l.clone();
    let mut panels = vec![(p, l)];
    let mut projection = Projection::new(p, max_states);
    let mut last_transfer = None;
    let mut width = p;
    let mut blocks = 0;
    while basis.len() < max_states {
        let start = basis.len();
        orthonormalize_block(&mut work[..n * width], width, &mut basis, max_states, &cancelled)?;
        width = basis.len() - start;
        if width == 0 {
            break;
        }
        // A V = F⁻ᵀ C F⁻¹ V for the block's new vectors together: two
        // triangular solves around a sparse product, taken by rows.
        let apply_span = pcv_trace::span("mor", "apply_a");
        pcv_trace::count("mor.lanczos.block_applies", 1);
        let u = &mut work[..n * width];
        for (i, row) in u.chunks_exact_mut(width).enumerate() {
            row.iter_mut().zip(&basis[start..]).for_each(|(slot, v)| *slot = v[i]);
        }
        chol.solve_lower_t_in_place(u);
        let mut w = vec![0.0; n * width];
        c.matvec_into(u, &mut w);
        chol.solve_lower_in_place(&mut w);
        u.copy_from_slice(&w);
        panels.push((width, w));
        drop(apply_span);
        projection.extend(&basis, &panels);
        blocks += 1;
        if basis.len() < max_states {
            let transfer = projection.transfer();
            if blocks >= 2 && converged(last_transfer.as_ref(), transfer.as_ref()) {
                pcv_trace::count("mor.lanczos.early_stops", 1);
                break;
            }
            last_transfer = transfer;
        }
    }

    let q = basis.len();
    pcv_trace::value("mor.reduced_order", q as u64);
    pcv_trace::value("mor.lanczos.blocks", blocks);
    let (t, rho) = projection.model();
    // Guard the projection outputs: a near-singular Cholesky factor can push
    // NaN/Inf through the triangular solves without tripping any earlier
    // typed error, and a non-finite T poisons every verdict downstream.
    if !all_finite(&t) || !all_finite(&rho) {
        return Err(MorError::NonFinite { what: "reduced model projection" });
    }
    Ok(ReducedModel::new(t, rho))
}

/// `Vᵀ [L, A V]` built a block at a time: `ρ = Vᵀ L` beside `T = Vᵀ A V`,
/// one row a basis vector, in one buffer that grows with the rows.
///
/// Entry `(i, j)` is `dot(&basis[i], lane j)` bit for bit, whichever block
/// adds it — a sum is only *carried* from one piece of 256 rows to the
/// next, pieces the panels keep in L1 while the basis streams by.
struct Projection {
    /// Ports: the width of `L`, the first panel.
    ports: usize,
    /// Row stride: `ports` plus the most basis vectors the reduction keeps.
    stride: usize,
    /// Basis vectors projected so far.
    rows: usize,
    /// Row-major entries, `rows × stride`, `-0.0` where no sum has begun.
    m: Vec<f64>,
}

impl Projection {
    fn new(ports: usize, max_states: usize) -> Self {
        Projection { ports, stride: ports + max_states, rows: 0, m: Vec::new() }
    }

    /// Project the block just added: the basis vectors past `rows` against
    /// every panel, the earlier ones against the last panel, `A` applied to
    /// the new vectors.
    fn extend(&mut self, basis: &[Vec<f64>], panels: &[(usize, Vec<f64>)]) {
        let _span = pcv_trace::span("mor", "project");
        let (old, stride) = (self.rows, self.stride);
        self.m.resize(basis.len() * stride, -0.0);
        let last = panels.len() - 1;
        let n = basis.first().map_or(0, Vec::len);
        let width: usize = panels.iter().map(|(k, _)| k).sum();
        let last_col = width - panels[last].0;
        for lo in (0..n).step_by(256) {
            let hi = (lo + 256).min(n);
            for (i, b) in basis.iter().enumerate() {
                let (first, mut col) = if i < old { (last, last_col) } else { (0, 0) };
                let row = &mut self.m[i * stride..(i + 1) * stride];
                for (k, panel) in &panels[first..] {
                    dots(&b[lo..hi], &panel[lo * k..hi * k], &mut row[col..col + k]);
                    col += k;
                }
            }
        }
        self.rows = basis.len();
    }

    /// `(T, ρ)` of the basis projected so far, `T` symmetrized against
    /// rounding.
    fn model(&self) -> (Dense, Dense) {
        let (p, q, m) = (self.ports, self.rows, &self.m);
        let rho = Dense::from_fn(q, p, |i, j| m[i * self.stride + j]);
        let mut t = Dense::from_fn(q, q, |i, j| m[i * self.stride + p + j]);
        t.symmetrize();
        (t, rho)
    }

    /// The transfer of [`Self::model`] at every [`PROBE_S`] point, `None`
    /// when one cannot be evaluated.
    fn transfer(&self) -> Option<Vec<Dense>> {
        let (t, rho) = self.model();
        let rom = ReducedModel::new(t, rho);
        PROBE_S.iter().map(|&s| rom.transfer(s).ok()).collect()
    }
}

/// The stop rule: `new` moved no entry of `old` by [`CONVERGED_TOL`] of the
/// largest entry of `new`, at any probe point. A transfer that could not be
/// evaluated, or is not finite, has not converged.
fn converged(old: Option<&Vec<Dense>>, new: Option<&Vec<Dense>>) -> bool {
    let (Some(old), Some(new)) = (old, new) else {
        return false;
    };
    old.iter().zip(new).all(|(old, new)| {
        let (mut scale, mut moved) = (0.0f64, 0.0f64);
        for r in 0..new.nrows() {
            for (a, b) in old.row(r).iter().zip(new.row(r)) {
                if !b.is_finite() {
                    return false;
                }
                scale = scale.max(b.abs());
                moved = moved.max((b - a).abs());
            }
        }
        moved < CONVERGED_TOL * scale
    })
}

/// Every entry of a dense matrix is finite.
fn all_finite(m: &Dense) -> bool {
    (0..m.nrows()).all(|r| m.row(r).iter().all(|v| v.is_finite()))
}

/// Orthonormalize the `k` lanes of `cand`, in order, against `basis` and
/// each other (two Gram–Schmidt passes each), pushing the survivors onto
/// `basis` until it holds `max_states`; `cancelled` is polled once a lane.
///
/// The first pass over the vectors `basis` holds on entry runs on all lanes
/// together; the rest — the block's own new vectors, the second pass, the
/// norms — lane by lane on a copy: each lane sees the operations of being
/// orthonormalized alone against the basis of its moment, in their order.
fn orthonormalize_block(
    cand: &mut [f64],
    k: usize,
    basis: &mut Vec<Vec<f64>>,
    max_states: usize,
    cancelled: &dyn Fn() -> bool,
) -> Result<(), MorError> {
    let _span = pcv_trace::span("mor", "gram_schmidt");
    let start = basis.len();
    let mut orig = vec![-0.0; k];
    sums_of_squares(cand, &mut orig);
    // `proj = dots(b, cand); cand -= proj·b` down the basis, the update by
    // one vector sharing its sweep with the products against the next.
    let mut proj = vec![-0.0; k];
    let mut alpha = vec![0.0; k];
    if let Some(first) = basis.first() {
        dots(first, cand, &mut proj);
    }
    for (j, b) in basis.iter().enumerate() {
        alpha.iter_mut().zip(&mut proj).for_each(|(a, p)| (*a, *p) = (-*p, -0.0));
        match basis.get(j + 1) {
            Some(next) => axpys_dots(&alpha, b, cand, next, &mut proj),
            None => axpys(&alpha, b, cand),
        }
    }
    for (lane, orig) in orig.into_iter().map(f64::sqrt).enumerate() {
        if basis.len() >= max_states {
            break;
        }
        if cancelled() {
            return Err(MorError::Cancelled { stage: "block lanczos" });
        }
        if orig == 0.0 {
            continue;
        }
        let mut v: Vec<f64> = cand.iter().skip(lane).step_by(k).copied().collect();
        // `proj = dot(b, v); v -= proj·b` down the list, the update by one
        // vector sharing its sweep with the product against the next.
        let mut list = basis[start..].iter().chain(basis.iter());
        if let Some(first) = list.next() {
            let (proj, last) = list
                .fold((dot(first, &v), first), |(proj, a), b| (axpy_dot(-proj, a, &mut v, b), b));
            axpy(-proj, last, &mut v);
        }
        let nrm = norm2(&v);
        if nrm <= DEFLATION_TOL * orig {
            continue;
        }
        let inv = 1.0 / nrm;
        v.iter_mut().for_each(|x| *x *= inv);
        basis.push(v);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two coupled RC lines, each driven at node 0, like a pruned
    /// victim/aggressor cluster.
    fn coupled_pair(segments: usize) -> RcCluster {
        let mut cl = RcCluster::new();
        let line = |cl: &mut RcCluster| -> Vec<usize> {
            let nodes: Vec<usize> = (0..segments).map(|_| cl.add_node()).collect();
            for w in nodes.windows(2) {
                cl.add_resistor(w[0], w[1], 40.0).unwrap();
            }
            for &nd in &nodes {
                cl.add_ground_cap(nd, 2e-15).unwrap();
            }
            nodes
        };
        let a = line(&mut cl);
        let b = line(&mut cl);
        for (&x, &y) in a.iter().zip(&b) {
            cl.add_capacitor(x, y, 3e-15).unwrap();
        }
        cl.add_port(a[0]);
        cl.add_port(b[0]);
        cl.add_port(a[segments - 1]); // victim far end (observation)
        cl
    }

    /// FNV-1a over the order and the bits of `T` and `ρ`.
    fn rom_digest(rom: &ReducedModel) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        eat(rom.order() as u64);
        for m in [rom.t(), rom.rho()] {
            for r in 0..m.nrows() {
                m.row(r).iter().for_each(|v| eat(v.to_bits()));
            }
        }
        h
    }

    /// `lines` seeded RC lines of `segs` nodes, neighbours coupled node to
    /// node; returns each line's node indices.
    fn seeded_lines(cl: &mut RcCluster, seed: u64, lines: usize, segs: usize) -> Vec<Vec<usize>> {
        let mut rng = pcv_rng::Rng::new(seed);
        let nets: Vec<Vec<usize>> =
            (0..lines).map(|_| (0..segs).map(|_| cl.add_node()).collect()).collect();
        for net in &nets {
            for w in net.windows(2) {
                cl.add_resistor(w[0], w[1], rng.range_f64(5.0, 80.0)).unwrap();
            }
            for &nd in net {
                cl.add_ground_cap(nd, rng.range_f64(0.5e-15, 4e-15)).unwrap();
            }
        }
        for pair in nets.windows(2) {
            for (&x, &y) in pair[0].iter().zip(&pair[1]) {
                if rng.bool_with(0.7) {
                    cl.add_capacitor(x, y, rng.range_f64(0.5e-15, 6e-15)).unwrap();
                }
            }
        }
        nets
    }

    /// Driver port of every line, then the far end of the first.
    fn driver_and_observe_ports(cl: &mut RcCluster, nets: &[Vec<usize>]) {
        for net in nets {
            cl.add_port(net[0]);
        }
        cl.add_port(*nets[0].last().unwrap());
    }

    /// The judge of `reduce_with`: `(order, T, ρ)` digests recorded from the
    /// single-vector Lanczos loop this file held before it worked on blocks
    /// (commit 4516939). No copy of that loop is kept; a rewrite that moves a
    /// bit of any reduced model moves one of these.
    ///
    /// The cases the stop rule ends early (all at block 3) were re-recorded
    /// with it. Each new digest is the one the fixed-order code gave under
    /// the ceiling that ends at that block: a stopped model is the leading
    /// block of a longer one, bit for bit.
    #[test]
    fn reduced_models_keep_their_recorded_bits() {
        let plain = |seed, lines, segs| {
            let mut cl = RcCluster::new();
            let nets = seeded_lines(&mut cl, seed, lines, segs);
            driver_and_observe_ports(&mut cl, &nets);
            cl
        };
        // Deflates inside a block twice: a repeated port in the starting
        // block, and in the second block a port on a one-node net, whose
        // `L` column is an eigenvector of `A`. The basis then grows 4, 3, 3
        // and the rule stops it; under a ceiling of one block, `max_states`
        // (5) cuts the second block after one vector.
        let deflating = || {
            let mut cl = RcCluster::new();
            let nets = seeded_lines(&mut cl, 0x5EED_0004, 3, 20);
            let lone = cl.add_node();
            cl.add_resistor_to_ground(lone, 120.0).unwrap();
            cl.add_ground_cap(lone, 2e-15).unwrap();
            for node in [nets[0][0], lone, nets[1][0], nets[1][0], nets[2][0]] {
                cl.add_port(node);
            }
            cl
        };
        // 17 nodes under 4 ports, with and without a capacitor on `tail`
        // (without it `A` is singular). Under the fixed order `max_states =
        // n` cut the fifth block after one vector, or the whole fifth block
        // deflated at 16 states; the rule now stops both at block 3.
        let short = |tail_cap: bool| {
            let mut cl = RcCluster::new();
            let nets = seeded_lines(&mut cl, 0x5EED_0005, 3, 5);
            let tail = cl.add_node();
            let tip = cl.add_node();
            cl.add_resistor(nets[2][4], tail, 33.0).unwrap();
            cl.add_resistor(tail, tip, 21.0).unwrap();
            if tail_cap {
                cl.add_ground_cap(tail, 0.8e-15).unwrap();
            }
            cl.add_ground_cap(tip, 1.5e-15).unwrap();
            driver_and_observe_ports(&mut cl, &nets);
            cl
        };
        let cases: [(&str, RcCluster, usize, usize, u64); 8] = [
            ("2 ports", plain(0x5EED_0001, 1, 60), 6, 6, 0xf60c_6ba0_6c74_7b37),
            ("5 ports", plain(0x5EED_0002, 4, 40), 5, 15, 0x5e0a_ab64_e655_9ecb),
            ("9 ports", plain(0x5EED_0003, 8, 30), 4, 27, 0x256f_2265_02c0_8093),
            ("12 ports", plain(0x5EED_0006, 11, 16), 3, 36, 0x845a_1048_101b_fa0d),
            ("deflating", deflating(), 4, 10, 0x0d31_7617_7192_59e7),
            ("deflating, cut by max_states", deflating(), 1, 5, 0x8648_22e1_74da_ac2f),
            ("short", short(true), 5, 12, 0x0c06_9c11_9c67_d261),
            ("short, A singular", short(false), 5, 12, 0xc07c_9feb_6ccc_fea1),
        ];
        for (what, cl, block_iters, order, digest) in &cases {
            let rom = reduce(cl, *block_iters).unwrap();
            assert_eq!(rom.order(), *order, "{what}: order");
            assert_eq!(rom_digest(&rom), *digest, "{what}: (T, rho) bits moved");
        }
    }

    /// One candidate against the basis of its moment, as the iteration ran
    /// before it worked on blocks: two passes of `dot`/`axpy`, then the norm.
    fn orthonormalize_alone(w: &[f64], basis: &[Vec<f64>]) -> Option<Vec<f64>> {
        let mut v = w.to_vec();
        let orig = norm2(&v);
        if orig == 0.0 {
            return None;
        }
        for b in basis.iter().chain(basis) {
            let proj = dot(b, &v);
            axpy(-proj, b, &mut v);
        }
        let nrm = norm2(&v);
        (nrm > DEFLATION_TOL * orig).then(|| v.iter().map(|x| x * (1.0 / nrm)).collect())
    }

    #[test]
    fn a_block_is_orthonormalized_as_its_lanes_would_be_alone() {
        let mut rng = pcv_rng::Rng::new(0xB10C);
        let n = 61;
        let mut random = || (0..n).map(|_| rng.range_f64(-1.0, 1.0)).collect::<Vec<f64>>();
        let mut earlier: Vec<Vec<f64>> = Vec::new();
        for _ in 0..5 {
            let v = orthonormalize_alone(&random(), &earlier).unwrap();
            earlier.push(v);
        }
        for k in [1usize, 2, 6, 12] {
            // Lane 1 is zero, lane 3 lies in the span of the earlier blocks,
            // lane 5 repeats lane 0 and so deflates against its own block.
            let mut lanes: Vec<Vec<f64>> = (0..k).map(|_| random()).collect();
            if k > 5 {
                lanes[1].fill(0.0);
                lanes[3] = (0..n).map(|e| 0.5 * earlier[1][e] - 2.0 * earlier[4][e]).collect();
                lanes[5] = lanes[0].clone();
            }
            let panel: Vec<f64> = (0..n * k).map(|i| lanes[i % k][i / k]).collect();
            let mut want = earlier.clone();
            for lane in &lanes {
                let v = orthonormalize_alone(lane, &want);
                want.extend(v);
            }
            assert_eq!(want.len(), earlier.len() + if k > 5 { k - 3 } else { k }, "k={k}");
            let bits = |vs: &[Vec<f64>]| -> Vec<Vec<u64>> {
                vs.iter().map(|v| v.iter().map(|x| x.to_bits()).collect()).collect()
            };

            let mut got = earlier.clone();
            orthonormalize_block(&mut panel.clone(), k, &mut got, usize::MAX, &|| false).unwrap();
            assert_eq!(bits(&got), bits(&want), "k={k}");

            // `max_states` stops the block where it stopped the lane loop.
            let mut got = earlier.clone();
            let cap = earlier.len() + k.min(2);
            orthonormalize_block(&mut panel.clone(), k, &mut got, cap, &|| false).unwrap();
            assert_eq!(bits(&got), bits(&want[..cap]), "k={k} capped");

            // A token fired between two candidates: the same error, after
            // the same vectors.
            let polls = std::cell::Cell::new(0);
            let fire_on_third = || polls.replace(polls.get() + 1) == 2;
            let mut got = earlier.clone();
            let res =
                orthonormalize_block(&mut panel.clone(), k, &mut got, usize::MAX, &fire_on_third);
            if k > 2 {
                assert!(matches!(res, Err(MorError::Cancelled { stage: "block lanczos" })));
                let survivors = if k > 5 { 1 } else { 2 };
                assert_eq!(bits(&got), bits(&want[..earlier.len() + survivors]), "k={k} cancelled");
            } else {
                assert!(res.is_ok() && polls.get() == k);
            }
        }
    }

    #[test]
    fn transfer_function_converges_with_order() {
        let cl = coupled_pair(12);
        let s = 2e9; // ~ the band of interest for ns edges
        let exact = cl.exact_transfer(s).unwrap();
        let mut prev_err = f64::INFINITY;
        for iters in [1usize, 2, 4, 6] {
            let rom = reduce(&cl, iters).unwrap();
            let h = rom.transfer(s).unwrap();
            let mut err = 0.0f64;
            for i in 0..3 {
                for j in 0..3 {
                    let denom = exact[(i, j)].abs().max(1e-6 * exact[(0, 0)].abs());
                    err = err.max((h[(i, j)] - exact[(i, j)]).abs() / denom);
                }
            }
            assert!(err < prev_err * 1.5 + 1e-12, "error should not grow: {err} vs {prev_err}");
            prev_err = err;
        }
        assert!(prev_err < 1e-6, "order-6 model should be near-exact, err = {prev_err}");
    }

    #[test]
    fn reduced_model_is_much_smaller() {
        let cl = coupled_pair(40);
        assert_eq!(cl.num_nodes(), 80);
        let rom = reduce(&cl, 4).unwrap();
        assert!(rom.order() <= 12);
        assert_eq!(rom.num_ports(), 3);
    }

    #[test]
    fn t_is_positive_semidefinite() {
        let cl = coupled_pair(10);
        let rom = reduce(&cl, 5).unwrap();
        let eig = pcv_sparse::eig::jacobi_eigen(rom.t()).unwrap();
        for &w in &eig.values {
            assert!(w >= -1e-12 * eig.values.last().unwrap().abs(), "eigenvalue {w}");
        }
    }

    #[test]
    fn dc_moment_matches_exactly() {
        // Padé at s = 0: the DC transfer (resistance matrix) must match to
        // rounding even at order 1.
        let cl = coupled_pair(8);
        let rom = reduce(&cl, 1).unwrap();
        let exact = cl.exact_transfer(0.0).unwrap();
        let h0 = rom.transfer(0.0).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                let denom = exact[(i, j)].abs().max(1e-9 * exact[(0, 0)].abs());
                let rel = (h0[(i, j)] - exact[(i, j)]).abs() / denom;
                assert!(rel < 1e-7, "dc moment mismatch at ({i},{j}): {rel}");
            }
        }
    }

    #[test]
    fn deflation_caps_order_at_matrix_size() {
        let mut cl = RcCluster::new();
        let a = cl.add_node();
        let b = cl.add_node();
        cl.add_resistor(a, b, 100.0).unwrap();
        cl.add_resistor_to_ground(a, 100.0).unwrap();
        cl.add_ground_cap(b, 1e-15).unwrap();
        cl.add_port(a);
        let rom = reduce(&cl, 50).unwrap();
        assert!(rom.order() <= 2, "order {} exceeds node count", rom.order());
    }

    #[test]
    fn duplicate_ports_deflate() {
        let mut cl = RcCluster::new();
        let a = cl.add_node();
        cl.add_resistor_to_ground(a, 10.0).unwrap();
        cl.add_ground_cap(a, 1e-15).unwrap();
        cl.add_port(a);
        cl.add_port(a); // same node twice
        let rom = reduce(&cl, 3).unwrap();
        assert_eq!(rom.num_ports(), 2);
        // The starting block has rank 1, so the basis stays rank-limited.
        assert!(rom.order() <= 1 + 2);
        // Both ports still observe identical transfer.
        let h = rom.transfer(1e9).unwrap();
        assert!((h[(0, 0)] - h[(1, 1)]).abs() < 1e-12 * h[(0, 0)].abs());
    }

    #[test]
    fn rejects_degenerate_requests() {
        let cl = coupled_pair(3);
        assert!(matches!(reduce(&cl, 0), Err(MorError::InvalidValue { .. })));
        let mut no_ports = RcCluster::new();
        let a = no_ports.add_node();
        no_ports.add_ground_cap(a, 1e-15).unwrap();
        assert!(matches!(reduce(&no_ports, 2), Err(MorError::NoPorts)));
    }

    #[test]
    fn cancelled_token_aborts_reduction() {
        use crate::cancel::CancelToken;
        let cl = coupled_pair(12);
        let token = CancelToken::new();
        token.cancel();
        let err = reduce_with(&cl, 4, Some(&token)).unwrap_err();
        assert!(matches!(err, MorError::Cancelled { stage: "block lanczos" }), "got {err}");
        // A live token changes nothing about the reduction.
        let live = CancelToken::new();
        let a = reduce_with(&cl, 4, Some(&live)).unwrap();
        let b = reduce(&cl, 4).unwrap();
        assert_eq!(a.order(), b.order());
    }

    #[test]
    fn basis_is_orthonormal() {
        // Indirect check: T's symmetry and ρᵀρ ≈ Bᵀ G⁻¹ B (the zeroth
        // moment, which equals the DC transfer).
        let cl = coupled_pair(6);
        let rom = reduce(&cl, 4).unwrap();
        let rho = rom.rho();
        let mut rtr = Dense::zeros(3, 3);
        for i in 0..3 {
            for j in 0..3 {
                let mut s = 0.0;
                for k in 0..rom.order() {
                    s += rho[(k, i)] * rho[(k, j)];
                }
                rtr[(i, j)] = s;
            }
        }
        let exact = cl.exact_transfer(0.0).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                let denom = exact[(i, j)].abs().max(1e-9 * exact[(0, 0)].abs());
                let rel = (rtr[(i, j)] - exact[(i, j)]).abs() / denom;
                assert!(rel < 1e-7, "zeroth moment mismatch: {rel}");
            }
        }
    }
}
