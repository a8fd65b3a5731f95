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
//! The order sweep judges the Padé order the engine picks: every peak of
//! the default analysis lies within [`ORDER_BOUND`] of a high-order
//! reference's, relative to `max(|peak|, 1 mV)`, over three populations —
//! the Fig. 3 networks (both polarities), `dsp_cold`'s chip (162 coupled
//! clusters under nonlinear cell drivers) and a 12 × 8 fine mesh (3–4 mm
//! wires extracted at 2.5 µm, 1 kΩ drivers). SyMPVL's `block_iters` is a
//! ceiling its reduction may stop below, so the reference is a fixed-order
//! reduction of another kind: PRIMA block Arnoldi with
//! [`REFERENCE_ARNOLDI_BLOCKS`] blocks, which matches the 16 block moments
//! `block_iters` 8 SyMPVL would (an Arnoldi block matches one, a Lanczos
//! block two), walked through the same public steps the engine's analysis
//! takes.
//!
//! The receiver reference judges the time axis of what a flagged victim's
//! receiver check reports: its output peak must lie within
//! [`RECEIVER_BOUND`] (on the tier-1 three, [`RECEIVER_BOUND_TIER1`]) of a
//! reference that walks the same reduced model and the same receiver
//! testbench at [`RECEIVER_STEP_FRACTION`], 100× finer than the engine, with
//! every sample of the refined glitch a corner of the receiver's input. The
//! engine's receiver sees its glitch on the default grid, decimated to 400
//! points when longer, and so carries both errors.
//!
//! Tier-1 runs the 12 smallest networks, 8 DSP clusters and three DSP
//! receivers (`bus2_12`, `bus3_0`, `bus1_20`); all 113 networks, the whole
//! DSP chip with every flagged receiver, and the mesh run with `--ignored`
//! (CI `golden`).

use pcv_designs::dsp::DspConfig;
use pcv_designs::extract::{extract, WireGeom};
use pcv_designs::random::{random_cluster, RandomCluster, RandomClusterConfig};
use pcv_designs::Technology;
use pcv_engine::{Engine, EngineConfig, ResidentChip, RunRequest};
use pcv_mor::{reduce_arnoldi, simulate, sympvl, RcCluster, ReducedModel};
use pcv_netlist::termination::Termination;
use pcv_netlist::{PNetId, ParasiticDb};
use pcv_sparse::eig::jacobi_eigen;
use pcv_spice::SimOptions;
use pcv_xtalk::analysis::plan_aggressors;
use pcv_xtalk::build::build_cluster;
use pcv_xtalk::drivers::{make_termination, DriverModelKind, SwitchRole};
use pcv_xtalk::prune::{prune_victim, prune_victim_with_components, Cluster, PruneConfig};
use pcv_xtalk::{
    analyze_glitch, receiver_response, AnalysisContext, AnalysisOptions, EngineKind, NetVerdict,
};

/// The population's size: the paper simulated 113 coupled networks.
const CASES: usize = 113;

/// Blocks of the reference reduction: as many block moments as SyMPVL
/// matches with `block_iters` 8, twice the default ceiling.
const REFERENCE_ARNOLDI_BLOCKS: usize = 16;

/// How far a peak of the default analysis may lie from the reference's,
/// relative to `max(|reference|, 1 mV)`.
const ORDER_BOUND: f64 = 2e-4;

/// The refined receiver reference's step cap, as a fraction of the span, on
/// the reduced walk and on the receiver's SPICE walk: 100× finer than the
/// engine's `max_step_fraction`.
const RECEIVER_STEP_FRACTION: f64 = 1e-5;

/// How far a receiver's output peak may lie from the refined reference
/// (volts), on the three tier-1 receivers and on every flagged receiver of
/// `dsp_cold`'s chip. EXPERIMENTS.md records each error.
const RECEIVER_BOUND_TIER1: f64 = 3e-3;
const RECEIVER_BOUND: f64 = 40e-3;

/// What one case measured.
struct Outcome {
    peak_err_pct: f64,
    asymmetry: f64,
    min_eig_rel: f64,
    dc_err_rel: f64,
    order_dev: f64,
}

/// The deviation of a peak from its reference peak, relative to
/// `max(|reference|, 1 mV)`.
fn deviation(peak: f64, reference: f64) -> f64 {
    (peak - reference).abs() / reference.abs().max(1e-3)
}

/// The rising and the falling glitch peak of `cluster` under `opts`, its
/// model reduced by `reduce`, through the public steps the engine's
/// analysis takes (build, reduce, diagonalize, terminations, transient).
fn glitch_peaks(
    ctx: &AnalysisContext,
    cluster: &Cluster,
    opts: &AnalysisOptions,
    reduce: &dyn Fn(&RcCluster) -> ReducedModel,
) -> [f64; 2] {
    let model = build_cluster(ctx.db, cluster, &|n| ctx.load_cap(n), false);
    let diag = reduce(&model.rc).diagonalize().expect("the model diagonalizes");
    let plans = plan_aggressors(ctx, cluster, opts);
    [true, false].map(|rising| {
        let hold = if rising { SwitchRole::HoldLow } else { SwitchRole::HoldHigh };
        let roles =
            std::iter::once(hold).chain(plans.iter().map(|p| match (p.switching, rising) {
                (false, _) => hold,
                (true, true) => SwitchRole::Rise { t0: p.t0 },
                (true, false) => SwitchRole::Fall { t0: p.t0 },
            }));
        let boxes: Vec<Box<dyn Termination>> = roles
            .zip(&model.members)
            .map(|(role, &net)| {
                let ch = match ctx.driver_model {
                    DriverModelKind::FixedResistance(_) => None,
                    _ => Some(ctx.char_cell(net).expect("driver characterized")),
                };
                make_termination(ctx.driver_model, role, ch, opts.input_slew, opts.vdd)
                    .expect("termination builds")
            })
            .collect();
        let mut terms: Vec<Option<&dyn Termination>> = vec![None; model.rc.num_ports()];
        for (k, b) in boxes.iter().enumerate() {
            terms[model.driver_ports[k]] = Some(b.as_ref());
        }
        let res = simulate(&diag, &terms, opts.tstop, &opts.mor).expect("transient converges");
        let baseline = if rising { 0.0 } else { opts.vdd };
        res.waveform(model.observe_port).peak_deviation(baseline).1
    })
}

/// [`glitch_peaks`] under the reference reduction.
fn reference_peaks(ctx: &AnalysisContext, cluster: &Cluster, opts: &AnalysisOptions) -> [f64; 2] {
    let reduce = |rc: &RcCluster| {
        reduce_arnoldi(rc, REFERENCE_ARNOLDI_BLOCKS).expect("the reference reduces")
    };
    glitch_peaks(ctx, cluster, opts, &reduce)
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
    let reference = reference_peaks(&ctx, &cluster, &mor_opts);
    let mut order_dev = 0.0f64;
    for (rising, reference) in [true, false].into_iter().zip(reference) {
        let ours = analyze_glitch(&ctx, &cluster, rising, &mor_opts).expect("mpvl analysis");
        order_dev = order_dev.max(deviation(ours.peak, reference));
    }

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
    Outcome {
        peak_err_pct,
        asymmetry: asymmetry / norm,
        min_eig_rel,
        dc_err_rel: gap / scale,
        order_dev,
    }
}

fn sweep(cases: impl Iterator<Item = usize>) {
    let (mut n, mut worst_peak, mut worst_dc, mut worst_order) = (0, 0.0f64, 0.0f64, 0.0f64);
    for i in cases {
        let o = case(i);
        assert!(o.peak_err_pct <= 0.05, "case {i}: MPVL vs SPICE peak error {}%", o.peak_err_pct);
        assert!(o.asymmetry == 0.0, "case {i}: T is not symmetric ({:e} of ‖T‖)", o.asymmetry);
        assert!(o.min_eig_rel >= -1e-12, "case {i}: T has eigenvalue {:e}·‖T‖", o.min_eig_rel);
        assert!(o.dc_err_rel <= 1e-7, "case {i}: DC gain off by {:e}", o.dc_err_rel);
        assert!(o.order_dev <= ORDER_BOUND, "case {i}: {:e} from the reference", o.order_dev);
        n += 1;
        worst_peak = worst_peak.max(o.peak_err_pct);
        worst_dc = worst_dc.max(o.dc_err_rel);
        worst_order = worst_order.max(o.order_dev);
    }
    eprintln!(
        "{n} cases: max peak error {worst_peak:.4}%, max DC gain error {worst_dc:e}, max \
         deviation from the reference {worst_order:e}"
    );
}

/// Sign off `victims` with the engine's defaults and assert every coupled
/// peak within [`ORDER_BOUND`] of the reference's; return the largest
/// deviation and the number of peaks compared. The public steps are first
/// held to the engine: under SyMPVL they give its peaks bit for bit.
fn order_sweep(chip: &ResidentChip, victims: &[PNetId]) -> (f64, usize) {
    let ctx = &chip.ctx();
    let cfg = EngineConfig { workers: 2, ..Default::default() };
    let request = RunRequest { victims, ..RunRequest::resident(chip) };
    let report = Engine::new(cfg.clone()).run(request).expect("sign-off runs");
    assert!(report.errors.is_empty() && report.degradations.is_empty());
    let opts = &cfg.analysis;
    let EngineKind::Mor { block_iters } = opts.engine else { unreachable!() };
    let sympvl = |rc: &RcCluster| sympvl::reduce(rc, block_iters).expect("the cluster reduces");
    let (mut worst, mut peaks) = (0.0f64, 0);
    for v in &report.chip.verdicts {
        let cluster =
            prune_victim_with_components(ctx.db, v.net, &cfg.prune, chip.component_sizes());
        if cluster.aggressors.is_empty() {
            continue;
        }
        let ours = [v.rise_peak, v.fall_peak];
        let bits = |p: [f64; 2]| p.map(f64::to_bits);
        assert_eq!(bits(glitch_peaks(ctx, &cluster, opts, &sympvl)), bits(ours), "{}", v.name);
        for (peak, reference) in ours.into_iter().zip(reference_peaks(ctx, &cluster, opts)) {
            let dev = deviation(peak, reference);
            assert!(dev <= ORDER_BOUND, "{}: {peak} V vs {reference} V ({dev:e})", v.name);
            worst = worst.max(dev);
            peaks += 1;
        }
    }
    eprintln!("{peaks} peaks: max deviation from the reference {worst:e}");
    (worst, peaks)
}

/// The refined reference of a flagged victim's receiver output peak: the
/// worse-polarity glitch of its cluster walked at
/// [`RECEIVER_STEP_FRACTION`], every sample a corner of the receiver's PWL
/// input, into the receiver testbench walked at the same fraction.
fn refined_receiver_peak(chip: &ResidentChip, cfg: &EngineConfig, v: &NetVerdict) -> f64 {
    let ctx = &chip.ctx();
    let rising = v.rise_peak.abs() >= v.fall_peak.abs();
    let cluster = prune_victim_with_components(ctx.db, v.net, &cfg.prune, chip.component_sizes());
    let mut opts = cfg.analysis.clone();
    opts.mor.max_step_fraction = RECEIVER_STEP_FRACTION;
    let glitch = analyze_glitch(ctx, &cluster, rising, &opts).expect("refined glitch");
    let wave = &glitch.waveform;
    let pwl: Vec<(f64, f64)> = wave.times().iter().copied().zip(wave.values().to_vec()).collect();
    let t_end = *wave.times().last().expect("samples");
    let cell = ctx.receiver_cell(&v.name).expect("a receiver cell");
    let vdd = opts.vdd;
    let sim = SimOptions { max_step_fraction: RECEIVER_STEP_FRACTION, ..SimOptions::default() };
    let output = receiver_response(cell, pwl, vdd, t_end, &sim).expect("refined receiver run");
    // The receiver's quiet output under the victim's quiet input (high
    // under a falling glitch), as the engine's check reads it.
    let input_high = !rising;
    let out_quiet = if cell.kind.inverting() == input_high { 0.0 } else { vdd };
    output.peak_deviation(out_quiet).1
}

/// Sign off `victims` with receiver checks on and hold every flagged
/// victim's receiver output peak within `bound` of the refined reference;
/// print each error and return the largest and the number of receivers
/// compared.
fn receiver_sweep(chip: &ResidentChip, victims: &[PNetId], bound: f64) -> (f64, usize) {
    let cfg = EngineConfig { workers: 2, check_receivers: true, ..Default::default() };
    let request = RunRequest { victims, ..RunRequest::resident(chip) };
    let report = Engine::new(cfg.clone()).run(request).expect("sign-off runs");
    assert!(report.errors.is_empty() && report.degradations.is_empty());
    let (mut worst, mut worst_name, mut compared) = (0.0f64, "", 0);
    for v in &report.chip.verdicts {
        let Some(receiver) = &v.receiver else { continue };
        let reference = refined_receiver_peak(chip, &cfg, v);
        let err = receiver.output_peak - reference;
        eprintln!("{}: {} V vs {reference} V, error {:+.3e} V", v.name, receiver.output_peak, err);
        if err.abs() > worst {
            worst = err.abs();
            worst_name = v.name.as_str();
        }
        compared += 1;
    }
    eprintln!("{compared} receivers: max |error| {worst:e} V ({worst_name})");
    assert!(worst <= bound, "{worst_name}: {worst:e} V from the reference");
    (worst, compared)
}

/// `dsp_cold`'s chip: four 32-bit buses and 120 random nets, nonlinear cell
/// drivers.
fn dsp_chip() -> ResidentChip {
    let cfg = DspConfig { n_buses: 4, bus_bits: 32, n_random_nets: 120, cycle: 10e-9, seed: 1 };
    ResidentChip::dsp(&cfg).expect("the DSP block elaborates")
}

/// `groups` bundles of `wires` minimum-pitch wires six empty tracks apart,
/// group lengths evenly spread over `len` (metres), extracted at `seg`.
fn mesh(groups: usize, wires: usize, len: (f64, f64), seg: f64) -> ParasiticDb {
    let tech = Technology::c025();
    let mut geom = Vec::with_capacity(groups * wires);
    for g in 0..groups {
        let l = len.0 + (len.1 - len.0) * (g as f64 + 0.5) / groups as f64;
        for w in 0..wires {
            let track = (g * (wires + 6) + w) as i64;
            geom.push(WireGeom::min_width(format!("g{g}_w{w}"), track, 0.0, l, &tech));
        }
    }
    extract(&geom, &tech, seg)
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

#[test]
fn eight_dsp_clusters_keep_their_reference_peaks() {
    let chip = dsp_chip();
    let (_, peaks) = order_sweep(&chip, &chip.victims()[..8]);
    assert!(peaks >= 8, "{peaks} coupled peaks");
}

#[test]
#[ignore = "every cluster of dsp_cold's chip: run by the golden CI job"]
fn every_dsp_cluster_keeps_its_reference_peaks() {
    let chip = dsp_chip();
    let (_, peaks) = order_sweep(&chip, chip.victims());
    assert_eq!(peaks, 2 * 162, "dsp_cold's coupled clusters, both polarities");
}

#[test]
#[ignore = "96 wires of ~1 400 nodes: run by the golden CI job"]
fn the_fine_mesh_keeps_its_reference_peaks() {
    let db = mesh(12, 8, (3e-3, 4e-3), 2.5e-6);
    let victims: Vec<PNetId> = (0..db.num_nets()).map(PNetId).collect();
    let chip = ResidentChip::fixed_resistance(db, 1000.0, victims);
    let (_, peaks) = order_sweep(&chip, chip.victims());
    assert_eq!(peaks, 2 * 96);
}

#[test]
fn three_dsp_receivers_keep_to_the_refined_reference() {
    let chip = dsp_chip();
    let ctx = chip.ctx();
    let victims: Vec<PNetId> = ["bus2_12", "bus3_0", "bus1_20"]
        .map(|name| ctx.db.find_net(name).expect("a DSP bus bit"))
        .to_vec();
    let (_, compared) = receiver_sweep(&chip, &victims, RECEIVER_BOUND_TIER1);
    assert_eq!(compared, 3, "each is flagged and checked");
}

#[test]
#[ignore = "every flagged receiver of dsp_cold's chip: run by the golden CI job"]
fn every_dsp_receiver_keeps_to_the_refined_reference() {
    let chip = dsp_chip();
    let (_, compared) = receiver_sweep(&chip, chip.victims(), RECEIVER_BOUND);
    assert!(compared >= 100, "{compared} flagged receivers");
}
