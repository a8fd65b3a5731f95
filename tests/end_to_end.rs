//! Full-flow integration: DSP-like block → cell pre-characterization →
//! pruning → chip-level audit with the nonlinear cell model, exercising
//! every crate in the workspace together (the paper's Section 5 flow).

use pcv_bench::charlib_for;
use pcv_cells::library::CellLibrary;
use pcv_designs::dsp::{generate, DspConfig};
use pcv_designs::Technology;
use pcv_engine::{Engine, EngineConfig, ResidentChip, RunRequest};
use pcv_netlist::PNetId;
use pcv_xtalk::drivers::DriverModelKind;
use pcv_xtalk::prune::{prune_all, prune_victim, PruneConfig, PruningStats};
use pcv_xtalk::{analyze_glitch, AnalysisContext, AnalysisOptions, EngineKind, Severity};

fn charlib() -> pcv_cells::charlib::CharLibrary {
    charlib_for(&pcv_designs::dsp::DRIVER_CELLS)
}

#[test]
fn dsp_block_chip_audit_with_nonlinear_models() {
    let tech = Technology::c025();
    let lib = CellLibrary::standard_025();
    let charlib = charlib();
    let block = generate(
        &DspConfig { n_buses: 1, bus_bits: 6, n_random_nets: 14, ..Default::default() },
        &tech,
        &lib,
    );

    // Victims: the first few latch inputs.
    let victims: Vec<PNetId> = block.victims().into_iter().take(4).collect();
    assert!(!victims.is_empty());

    let chip = ResidentChip::with_design(
        block.parasitics,
        block.design,
        lib,
        charlib,
        DriverModelKind::Nonlinear,
        victims.clone(),
    );
    let engine = Engine::new(EngineConfig {
        prune: PruneConfig { cap_ratio: 0.02, max_aggressors: 6 },
        warn_frac: 0.10,
        fail_frac: 0.20,
        ..Default::default()
    });
    let report = engine.run(RunRequest::resident(&chip)).expect("audit completes");
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    let report = report.chip;

    assert_eq!(report.verdicts.len(), victims.len());
    // Bus bits sandwiched between simultaneously switching neighbors must
    // show nonzero crosstalk.
    assert!(
        report.verdicts[0].worst_frac > 0.01,
        "worst victim sees crosstalk: {:?}",
        report.verdicts[0]
    );
    // Report renders.
    let text = report.to_text();
    assert!(text.contains("crosstalk audit"));
    // Severity classification is consistent with thresholds.
    for v in &report.verdicts {
        match v.severity {
            Severity::Clean => assert!(v.worst_frac < 0.10),
            Severity::Warning => assert!((0.10..0.20).contains(&v.worst_frac)),
            Severity::Violation => assert!(v.worst_frac >= 0.20),
        }
    }
}

#[test]
fn pruning_shrinks_dsp_clusters() {
    let tech = Technology::c025();
    let lib = CellLibrary::standard_025();
    let block = generate(
        &DspConfig { n_buses: 4, bus_bits: 16, n_random_nets: 60, ..Default::default() },
        &tech,
        &lib,
    );
    let clusters = prune_all(&block.parasitics, &PruneConfig::default());
    let stats = PruningStats::compute(&clusters);
    // The paper's story: clusters shrink to a handful of nets.
    assert!(stats.mean_after < stats.mean_before);
    // Bus-heavy synthetic block: slightly larger than the paper's 2-5,
    // still single-digit.
    assert!(stats.mean_after <= 8.0, "mean after pruning: {}", stats.mean_after);
    assert!(stats.max_after <= 13, "max after pruning: {}", stats.max_after);
}

#[test]
fn nonlinear_model_tracks_transistor_reference_on_dsp_victim() {
    // One victim, both flows: the Figure 6 comparison in miniature.
    let tech = Technology::c025();
    let lib = CellLibrary::standard_025();
    let charlib = charlib();
    let block = generate(
        &DspConfig { n_buses: 1, bus_bits: 6, n_random_nets: 8, ..Default::default() },
        &tech,
        &lib,
    );
    let victim = block.victims()[2];
    let cluster = prune_victim(
        &block.parasitics,
        victim,
        &PruneConfig { cap_ratio: 0.02, max_aggressors: 5 },
    );
    if cluster.aggressors.is_empty() {
        return; // isolated victim in this draw; nothing to compare
    }

    let model_ctx = AnalysisContext::with_design(
        &block.parasitics,
        &block.design,
        &lib,
        &charlib,
        DriverModelKind::Nonlinear,
    );
    let ref_ctx = AnalysisContext::with_design(
        &block.parasitics,
        &block.design,
        &lib,
        &charlib,
        DriverModelKind::TransistorLevel,
    );
    let opts = AnalysisOptions::default();
    let spice_opts = AnalysisOptions { engine: EngineKind::Spice, ..AnalysisOptions::default() };

    let model = analyze_glitch(&model_ctx, &cluster, true, &opts).unwrap();
    let reference = analyze_glitch(&ref_ctx, &cluster, true, &spice_opts).unwrap();
    if reference.peak.abs() > 0.25 {
        let rel = (model.peak.abs() - reference.peak.abs()).abs() / reference.peak.abs();
        assert!(
            rel < 0.25,
            "nonlinear model {} vs transistor reference {} ({rel})",
            model.peak,
            reference.peak
        );
    }
}
