//! The chip-level oracle's first slice: a seeded sweep over the paper's
//! Fig. 3 population (`pcv_designs::random::random_cluster`, 2–12
//! aggressors, 1 kΩ Thevenin drivers on both engines). Every case must
//! satisfy what the paper's reduction promises:
//!
//! - the MPVL glitch peak is within 0.05 % of `pcv-spice`'s on the
//!   unreduced network (the paper reports 0.24 % average, 1.05 % max);
//! - the reduced `T` is symmetric with eigenvalues `≥ −1e-12·‖T‖`
//!   (positive semidefinite up to rounding, hence stable and passive);
//! - the reduced model's DC gain `ρᵀρ` equals the unreduced network's
//!   `Bᵀ G⁻¹ B` within 1e-7, relative to its largest entry. The moment is
//!   matched exactly in exact arithmetic; in `f64` it is as good as `G`'s
//!   conditioning allows. With the 1 nS `gmin` that grounds each floating
//!   wire, `G` is conditioned at ~1e8 and the reduction lands 9e-9–7e-8
//!   from a reference refined in double-double arithmetic (the dense LU
//!   used here is itself up to 8e-9 off), so 1e-9 is out of reach of any
//!   `f64` reduction of this population.
//!
//! Tier-1 runs the 12 smallest networks; all 113 run with `--ignored` (CI
//! `golden`).

use pcv_designs::random::{random_cluster, RandomCluster, RandomClusterConfig};
use pcv_designs::Technology;
use pcv_mor::sympvl;
use pcv_sparse::eig::jacobi_eigen;
use pcv_xtalk::build::build_cluster;
use pcv_xtalk::prune::{prune_victim, PruneConfig};
use pcv_xtalk::{analyze_glitch, AnalysisContext, AnalysisOptions, EngineKind};

/// The population's size: the paper simulated 113 coupled networks.
const CASES: usize = 113;

/// What one case measured.
struct Outcome {
    peak_err_pct: f64,
    asymmetry: f64,
    min_eig_rel: f64,
    dc_err_rel: f64,
}

/// Fig. 3's network `i`: seed `1000 + i`, `2 + i mod 11` aggressors.
fn network(i: usize) -> RandomCluster {
    let cfg = RandomClusterConfig {
        n_aggressors: 2 + i % 11,
        seed: 1000 + i as u64,
        ..Default::default()
    };
    random_cluster(&cfg, &Technology::c025())
}

/// Fig. 3's case `i`, every generated aggressor kept in the cluster.
fn case(i: usize) -> Outcome {
    let cl = network(i);
    let ctx = AnalysisContext::fixed_resistance(&cl.db, 1000.0);
    let cluster =
        prune_victim(&cl.db, cl.victim, &PruneConfig { cap_ratio: 0.0, max_aggressors: 12 });

    let mor_opts = AnalysisOptions::default();
    let mor = analyze_glitch(&ctx, &cluster, true, &mor_opts).expect("mpvl analysis");
    let spice_opts = AnalysisOptions { engine: EngineKind::Spice, ..AnalysisOptions::default() };
    let spice = analyze_glitch(&ctx, &cluster, true, &spice_opts).expect("spice analysis");
    let peak_err_pct = 100.0 * (mor.peak - spice.peak).abs() / spice.peak.abs();

    let EngineKind::Mor { block_iters } = mor_opts.engine else { unreachable!() };
    let model = build_cluster(&cl.db, &cluster, &|_| 0.0, false);
    let rom = sympvl::reduce(&model.rc, block_iters).expect("reduction");
    let t = rom.t();
    let q = t.nrows();
    let norm = t.norm_frobenius();
    let mut asymmetry = 0.0f64;
    for r in 0..q {
        for c in 0..q {
            asymmetry = asymmetry.max((t[(r, c)] - t[(c, r)]).abs());
        }
    }
    let eig = jacobi_eigen(t).expect("eigenvalues of T");
    let min_eig_rel = eig.values.iter().copied().fold(f64::INFINITY, f64::min) / norm;

    let exact = model.rc.exact_transfer(0.0).expect("unreduced DC gain");
    let reduced = rom.transfer(0.0).expect("reduced DC gain");
    let p = exact.nrows();
    let (mut scale, mut gap) = (0.0f64, 0.0f64);
    for r in 0..p {
        for c in 0..p {
            scale = scale.max(exact[(r, c)].abs());
            gap = gap.max((exact[(r, c)] - reduced[(r, c)]).abs());
        }
    }
    Outcome { peak_err_pct, asymmetry: asymmetry / norm, min_eig_rel, dc_err_rel: gap / scale }
}

fn sweep(cases: impl Iterator<Item = usize>) {
    let (mut n, mut worst_peak, mut worst_dc) = (0, 0.0f64, 0.0f64);
    for i in cases {
        let o = case(i);
        assert!(o.peak_err_pct <= 0.05, "case {i}: MPVL vs SPICE peak error {}%", o.peak_err_pct);
        assert!(o.asymmetry == 0.0, "case {i}: T is not symmetric ({:e} of ‖T‖)", o.asymmetry);
        assert!(o.min_eig_rel >= -1e-12, "case {i}: T has eigenvalue {:e}·‖T‖", o.min_eig_rel);
        assert!(o.dc_err_rel <= 1e-7, "case {i}: DC gain off by {:e}", o.dc_err_rel);
        n += 1;
        worst_peak = worst_peak.max(o.peak_err_pct);
        worst_dc = worst_dc.max(o.dc_err_rel);
    }
    eprintln!("{n} cases: max peak error {worst_peak:.4}%, max DC gain error {worst_dc:e}");
}

#[test]
fn a_dozen_fig3_networks_keep_the_reduction_promises() {
    // The twelve smallest networks by RC node count: the SPICE reference
    // of a large one takes seconds in a debug build.
    let nodes = |i| {
        let db = network(i).db;
        db.iter().map(|(_, net)| net.num_nodes()).sum::<usize>()
    };
    let mut by_size: Vec<(usize, usize)> = (0..CASES).map(|i| (nodes(i), i)).collect();
    by_size.sort_unstable();
    sweep(by_size.iter().take(12).map(|&(_, i)| i));
}

#[test]
#[ignore = "all 113 networks: run by the golden CI job"]
fn every_fig3_network_keeps_the_reduction_promises() {
    sweep(0..CASES);
}
