//! One prepared cluster against independent per-polarity analyses.
//!
//! [`PreparedCluster`] builds the RC model, the aggressor plan and the
//! reduced model once and answers both glitch polarities from them; these
//! tests hold it, bit for bit and error for error, to `analyze_glitch`
//! called once per polarity (which assembles and reduces from scratch each
//! time). Everything is seeded through `pcv-rng`; nothing reads a clock.

use pcv_cells::charlib::{characterize, CharLibrary};
use pcv_cells::library::CellLibrary;
use pcv_designs::random::{random_cluster, RandomClusterConfig};
use pcv_designs::Technology;
use pcv_mor::{CancelToken, MorError};
use pcv_netlist::{Design, NetNodeRef, NetParasitics, PNetId, ParasiticDb};
use pcv_rng::Rng;
use pcv_xtalk::analysis::{plan_aggressors, SWITCH_TIME};
use pcv_xtalk::drivers::DriverModelKind;
use pcv_xtalk::prune::{prune_victim, Cluster, PruneConfig};
use pcv_xtalk::{
    analyze_delay, analyze_glitch, AnalysisContext, AnalysisOptions, DelayMode, GlitchResult,
    PreparedCluster, XtalkError,
};
use std::sync::OnceLock;

const DRIVER_CELLS: [&str; 2] = ["INVX2", "BUFX4"];

fn libraries() -> &'static (CellLibrary, CharLibrary) {
    static LIBS: OnceLock<(CellLibrary, CharLibrary)> = OnceLock::new();
    LIBS.get_or_init(|| {
        let lib = CellLibrary::standard_025();
        let mut charlib = CharLibrary::default();
        for name in DRIVER_CELLS {
            charlib.insert(characterize(lib.cell(name).expect("standard cell")).expect("chars"));
        }
        (lib, charlib)
    })
}

/// A gate-level view of a random cluster: a driver on every net, switching
/// windows on some aggressors (so planning silences a few and moves `t0`),
/// and one complementary aggressor pair.
fn design_for(db: &ParasiticDb, rng: &mut Rng) -> Design {
    let mut design = Design::new("random");
    let input = design.add_net("pi");
    let nets: Vec<_> = (0..db.num_nets())
        .map(|i| {
            let name = db.net(PNetId(i)).name().to_owned();
            let net = design.add_net(name.clone());
            let cell = DRIVER_CELLS[rng.range_usize(0, DRIVER_CELLS.len())];
            design.add_instance(format!("drv_{name}"), cell, vec![input], Some(net), false);
            net
        })
        .collect();
    for &net in &nets[1..] {
        if rng.bool_with(0.5) {
            let open = rng.range_f64(0.0, 2e-9);
            design.set_window(net, open, open + rng.range_f64(0.2e-9, 3e-9));
        }
    }
    if nets.len() > 2 {
        design.set_complementary(nets[1], nets[2]);
    }
    design
}

fn assert_same(a: &GlitchResult, b: &GlitchResult, what: &str) {
    assert_eq!(a.peak.to_bits(), b.peak.to_bits(), "{what}: peak");
    assert_eq!(a.t_peak.to_bits(), b.t_peak.to_bits(), "{what}: t_peak");
    assert_eq!(a.newton_iters, b.newton_iters, "{what}: newton_iters");
    assert_eq!(a.reduced_order, b.reduced_order, "{what}: reduced_order");
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(a.waveform.times()), bits(b.waveform.times()), "{what}: sample times");
    assert_eq!(bits(a.waveform.values()), bits(b.waveform.values()), "{what}: sample values");
}

#[test]
fn both_polarities_of_one_prepared_cluster_equal_independent_analyses() {
    let (lib, charlib) = libraries();
    let tech = Technology::c025();
    let mut rng = Rng::new(0x15_5EED);
    let (mut silenced, mut realigned) = (0, 0);
    for case in 0..4 {
        let cl = random_cluster(
            &RandomClusterConfig {
                n_aggressors: rng.range_usize(2, 7),
                seed: rng.next_u64(),
                ..Default::default()
            },
            &tech,
        );
        let cluster = prune_victim(&cl.db, cl.victim, &PruneConfig::default());
        assert!(!cluster.aggressors.is_empty(), "case {case}: a coupled cluster");
        let design = design_for(&cl.db, &mut rng);
        let models = [
            DriverModelKind::FixedResistance(rng.range_f64(300.0, 3000.0)),
            DriverModelKind::TimingLibrary,
            DriverModelKind::Nonlinear,
        ];
        for driver_model in models {
            let ctx = AnalysisContext::with_design(&cl.db, &design, lib, charlib, driver_model);
            for gmin_scale in [1.0, 1e3] {
                let what = format!("case {case}, {driver_model:?}, gmin x{gmin_scale}");
                let opts = AnalysisOptions { gmin_scale, ..Default::default() };
                let up = analyze_glitch(&ctx, &cluster, true, &opts).expect("independent rise");
                let down = analyze_glitch(&ctx, &cluster, false, &opts).expect("independent fall");

                let plans = plan_aggressors(&ctx, &cluster, &opts);
                silenced += plans.iter().filter(|p| !p.switching).count();
                realigned += plans.iter().filter(|p| p.t0 != SWITCH_TIME).count();
                let mut prepared = PreparedCluster::new(&ctx, &cluster, &opts);
                assert_same(&prepared.glitch(&ctx, true, &opts).unwrap(), &up, &what);
                assert_same(&prepared.glitch(&ctx, false, &opts).unwrap(), &down, &what);
                // The order the polarities are asked in leaves no trace.
                let mut reversed = PreparedCluster::new(&ctx, &cluster, &opts);
                assert_same(&reversed.glitch(&ctx, false, &opts).unwrap(), &down, &what);
                assert_same(&reversed.glitch(&ctx, true, &opts).unwrap(), &up, &what);
            }
        }
    }
    assert!(silenced > 0 && realigned > 0, "windows and complements shaped no plan");
}

#[test]
fn both_coupled_delay_modes_of_one_prepared_cluster_equal_analyze_delay() {
    let tech = Technology::c025();
    let mut rng = Rng::new(0xDE1A);
    for _ in 0..3 {
        let cl = random_cluster(
            &RandomClusterConfig {
                n_aggressors: rng.range_usize(2, 6),
                seed: rng.next_u64(),
                ..Default::default()
            },
            &tech,
        );
        let cluster = prune_victim(&cl.db, cl.victim, &PruneConfig::default());
        let ctx = AnalysisContext::fixed_resistance(&cl.db, rng.range_f64(300.0, 1500.0));
        let opts = AnalysisOptions { tstop: 25e-9, ..Default::default() };
        let mut prepared = PreparedCluster::new(&ctx, &cluster, &opts);
        for (victim_rising, aggressors_opposite) in [(true, true), (true, false), (false, true)] {
            let mode = DelayMode::Coupled { aggressors_opposite };
            let independent = analyze_delay(&ctx, &cluster, victim_rising, mode, &opts).unwrap();
            let shared = prepared.delay(&ctx, victim_rising, aggressors_opposite, &opts).unwrap();
            assert_eq!(shared.delay.to_bits(), independent.delay.to_bits());
            assert_eq!(shared.far_crossing.to_bits(), independent.far_crossing.to_bits());
            assert_eq!(shared.driver_crossing.to_bits(), independent.driver_crossing.to_bits());
            assert_eq!(shared.waveform, independent.waveform);
        }
    }
}

/// Victim + one aggressor, two nodes each. `victim_ohms` of 2⁻⁴⁰ Ω makes the
/// victim's conductance 2⁴⁰ S, which absorbs the 1 nS `gmin`: the second
/// Cholesky pivot is exactly zero and the matrix is reported non-SPD. A
/// `gmin` boosted past half an ulp of 2⁴⁰ survives and the factor succeeds.
fn pair_db(victim_ohms: f64) -> (ParasiticDb, Cluster) {
    let mut db = ParasiticDb::new();
    let mk = |name: &str, ohms: f64| {
        let mut n = NetParasitics::new(name);
        let far = n.add_node();
        n.add_resistor(0, far, ohms);
        n.add_ground_cap(far, 8e-15);
        n.mark_load(far);
        n
    };
    let vid = db.add_net(mk("v", victim_ohms));
    let aid = db.add_net(mk("a", 150.0));
    db.add_coupling(NetNodeRef { net: vid, node: 1 }, NetNodeRef { net: aid, node: 1 }, 20e-15);
    let cluster = prune_victim(&db, vid, &PruneConfig::default());
    assert_eq!(cluster.aggressors.len(), 1);
    (db, cluster)
}

/// Both entry points fail alike, in either polarity, and the prepared
/// cluster fails again when asked again.
fn assert_both_fail(
    ctx: &AnalysisContext<'_>,
    cluster: &Cluster,
    opts: &AnalysisOptions,
    expected: impl Fn(&XtalkError) -> bool,
) {
    let mut prepared = PreparedCluster::new(ctx, cluster, opts);
    for rising in [true, false, true] {
        let independent = analyze_glitch(ctx, cluster, rising, opts).expect_err("independent");
        let shared = prepared.glitch(ctx, rising, opts).expect_err("prepared");
        assert!(expected(&independent), "unexpected error: {independent}");
        assert_eq!(shared.to_string(), independent.to_string());
    }
}

#[test]
fn non_spd_cluster_fails_alike_and_reduces_once_gmin_is_boosted() {
    let (db, cluster) = pair_db(2f64.powi(-40));
    let ctx = AnalysisContext::fixed_resistance(&db, 1000.0);
    let opts = AnalysisOptions::default();
    assert_both_fail(&ctx, &cluster, &opts, |e| {
        matches!(
            e,
            XtalkError::Mor(MorError::Numeric(pcv_sparse::Error::NotPositiveDefinite { .. }))
        )
    });
    // What a GminBoost rung does: same value, same RC model, new options.
    let mut prepared = PreparedCluster::new(&ctx, &cluster, &opts);
    assert!(prepared.glitch(&ctx, true, &opts).is_err());
    let boosted = AnalysisOptions { gmin_scale: 1e6, ..Default::default() };
    for rising in [true, false] {
        let independent = analyze_glitch(&ctx, &cluster, rising, &boosted).expect("boosted");
        assert_same(&prepared.glitch(&ctx, rising, &boosted).unwrap(), &independent, "boosted");
    }
}

#[test]
fn cancellation_budget_and_config_errors_keep_their_types() {
    let (db, cluster) = pair_db(150.0);
    let mut ctx = AnalysisContext::fixed_resistance(&db, 1000.0);

    let cancelled = CancelToken::new();
    cancelled.cancel();
    let mut opts = AnalysisOptions::default();
    opts.mor.cancel = Some(cancelled);
    assert_both_fail(&ctx, &cluster, &opts, |e| {
        matches!(e, XtalkError::Mor(MorError::Cancelled { stage: "block lanczos" }))
    });

    let mut opts = AnalysisOptions::default();
    opts.mor.newton_budget = 1;
    assert_both_fail(&ctx, &cluster, &opts, |e| {
        matches!(e, XtalkError::Mor(MorError::BudgetExhausted { .. }))
    });

    ctx.driver_model = DriverModelKind::TransistorLevel;
    assert_both_fail(&ctx, &cluster, &AnalysisOptions::default(), |e| {
        matches!(e, XtalkError::InvalidConfig { .. })
    });
}

#[test]
fn a_failing_second_polarity_does_not_return_the_first_result() {
    let (db, cluster) = pair_db(150.0);
    let ctx = AnalysisContext::fixed_resistance(&db, 1000.0);
    let token = CancelToken::new();
    let mut opts = AnalysisOptions::default();
    opts.mor.cancel = Some(token.clone());
    let mut prepared = PreparedCluster::new(&ctx, &cluster, &opts);
    let up = prepared.glitch(&ctx, true, &opts).expect("live token");
    assert!(up.peak > 0.0);
    // The reduced model is already in hand, so the token is next polled by
    // the transient — which must stop, not hand back the rise.
    token.cancel();
    let down = prepared.glitch(&ctx, false, &opts);
    assert!(matches!(down, Err(XtalkError::Mor(MorError::Cancelled { .. }))), "{down:?}");
}
