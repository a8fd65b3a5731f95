//! Cross-crate integration: the physical *shapes* the paper's Tables 1–2
//! report must emerge from the full pipeline (extraction → pruning →
//! reduction → analysis) — glitch growing with coupled length, coupling
//! slowing opposite-switching victims and speeding same-direction ones.

use pcv_designs::structures::{bundle, sandwich};
use pcv_designs::Technology;
use pcv_engine::{Engine, ResidentChip, RunRequest};
use pcv_netlist::PNetId;
use pcv_xtalk::prune::{prune_victim, PruneConfig};
use pcv_xtalk::{analyze_delay, analyze_glitch, AnalysisContext, AnalysisOptions, DelayMode};

fn glitch_at(length: f64) -> f64 {
    let tech = Technology::c025();
    let db = sandwich(length, &tech);
    let victim = db.find_net("v").unwrap();
    let cluster = prune_victim(&db, victim, &PruneConfig::default());
    let ctx = AnalysisContext::fixed_resistance(&db, 1000.0);
    analyze_glitch(&ctx, &cluster, true, &AnalysisOptions::default())
        .expect("analysis succeeds")
        .peak
}

#[test]
fn table1_shape_glitch_monotone_in_length() {
    // The paper's Table 1: peak glitch increases with coupled length.
    let peaks: Vec<f64> =
        [100e-6, 1000e-6, 2000e-6, 4000e-6].iter().map(|&l| glitch_at(l)).collect();
    for w in peaks.windows(2) {
        assert!(w[1] > w[0], "glitch must grow with length: {peaks:?}");
    }
    // And the long-wire glitch is a substantial fraction of Vdd (the paper
    // reports around a volt at 4000 um).
    assert!(peaks[3] > 0.5, "4000um glitch should be large, got {}", peaks[3]);
    assert!(peaks[3] < 2.5, "but bounded by the rail");
    // Saturation: the growth rate slows at long lengths.
    let g1 = peaks[1] - peaks[0];
    let g3 = peaks[3] - peaks[2];
    assert!(g3 < g1, "growth saturates: {peaks:?}");
}

#[test]
fn table2_shape_coupling_brackets_decoupled_delay() {
    let tech = Technology::c025();
    let db = sandwich(2000e-6, &tech);
    let victim = db.find_net("v").unwrap();
    let cluster = prune_victim(&db, victim, &PruneConfig::default());
    let ctx = AnalysisContext::fixed_resistance(&db, 500.0);
    let opts = AnalysisOptions { tstop: 30e-9, ..Default::default() };

    for rising in [true, false] {
        let base = analyze_delay(&ctx, &cluster, rising, DelayMode::Decoupled, &opts).unwrap();
        let worst = analyze_delay(
            &ctx,
            &cluster,
            rising,
            DelayMode::Coupled { aggressors_opposite: true },
            &opts,
        )
        .unwrap();
        let best = analyze_delay(
            &ctx,
            &cluster,
            rising,
            DelayMode::Coupled { aggressors_opposite: false },
            &opts,
        )
        .unwrap();
        assert!(
            best.delay < base.delay && base.delay < worst.delay,
            "rising={rising}: best {} < decoupled {} < worst {}",
            best.delay,
            base.delay,
            worst.delay
        );
        // The deterioration is significant (paper: tens of percent).
        assert!(
            worst.delay > 1.3 * base.delay,
            "rising={rising}: worst-case penalty should be large"
        );
    }
}

#[test]
fn interior_bus_bits_fare_worse_than_edge_bits() {
    let tech = Technology::c025();
    let db = bundle(6, 1200e-6, &tech);
    let victims: Vec<PNetId> = (0..db.num_nets()).map(PNetId).collect();
    let chip = ResidentChip::fixed_resistance(db, 1000.0, victims);
    let report = Engine::default().run(RunRequest::resident(&chip)).unwrap().chip;
    // Worst victims are interior bits (two strong neighbors).
    let worst_name = &report.verdicts[0].name;
    assert!(
        !["w0", "w5"].contains(&worst_name.as_str()),
        "edge bit {worst_name} should not be worst"
    );
    // Edge bits are the two least affected.
    let names: Vec<&str> = report.verdicts.iter().map(|v| v.name.as_str()).collect();
    assert!(names[4..].contains(&"w0") && names[4..].contains(&"w5"), "{names:?}");
}

#[test]
fn engines_agree_on_extracted_structures() {
    use pcv_xtalk::EngineKind;
    let tech = Technology::c025();
    let db = sandwich(1500e-6, &tech);
    let victim = db.find_net("v").unwrap();
    let cluster = prune_victim(&db, victim, &PruneConfig::default());
    let ctx = AnalysisContext::fixed_resistance(&db, 1000.0);
    let mor = analyze_glitch(&ctx, &cluster, true, &AnalysisOptions::default()).unwrap();
    let spice_opts = AnalysisOptions { engine: EngineKind::Spice, ..AnalysisOptions::default() };
    let spice = analyze_glitch(&ctx, &cluster, true, &spice_opts).unwrap();
    let rel = (mor.peak - spice.peak).abs() / spice.peak.abs();
    assert!(rel < 0.02, "mpvl {} vs spice {} ({rel})", mor.peak, spice.peak);
    // The reduced model is drastically smaller than the extracted cluster.
    assert!(mor.reduced_order.unwrap() <= 16);
}
