//! `dsp_cold` and `mesh_cold`: the operation is one cold batch sign-off
//! (`Engine::verify_resident` + `signoff_json`) from an empty cache
//! directory, journal, lock and ledger on.

use super::layers;
use super::{
    allocs_now, check_verdicts, engine, engine_config, peak_heap_mib, verdict_bits, victim_names,
    Outcome, Run, RunConfig,
};
use crate::gen;
use pcv_cells::library::CellLibrary;
use pcv_designs::dsp::{generate, DspConfig};
use pcv_designs::Technology;
use pcv_engine::ResidentChip;
use pcv_netlist::spef::{parse_spef, write_spef};
use pcv_serve::session::elaborate;
use pcv_serve::DesignSpec;
use pcv_xtalk::drivers::DriverModelKind;
use std::time::Instant;

/// The cold operations of one run (one traced operation under
/// `--trace 1`). There is no warm-up: a cold sign-off is what the user
/// pays, and the median of the repetitions absorbs the first one's page
/// faults. Every repetition must produce the same sign-off bytes.
fn cold_ops(
    run: &mut Run,
    chip: &ResidentChip,
    check_receivers: bool,
    ops_per_10s: usize,
) -> pcv_engine::EngineReport {
    let names = victim_names(chip);
    let timed = if run.cfg.trace { 1 } else { run.cfg.ops(ops_per_10s, 2) };
    let mut walls = Vec::with_capacity(timed);
    let mut heaps = Vec::with_capacity(timed);
    let mut reference: Option<(String, _)> = None;
    let mut last = None;
    for i in 0..timed {
        let dir = run.scratch.fresh("cold");
        let cache = dir.join("chip.cache");
        pcv_obs::mem::reset_peak();
        let allocs0 = allocs_now();
        let t0 = Instant::now();
        let report = run
            .tracer
            .span("engine.verify_resident", || {
                engine(&cache, check_receivers).verify_resident(chip, None)
            })
            .expect("cold sign-off runs");
        let doc = run.tracer.span("engine.signoff_json", || report.signoff_json());
        let wall = t0.elapsed().as_secs_f64();
        let heap = peak_heap_mib();
        let op_allocs = allocs_now() - allocs0;

        let bits = verdict_bits(&report);
        let (ref_doc, ref_bits) = reference.get_or_insert_with(|| (doc.clone(), bits.clone()));
        check_verdicts(&mut run.checks, "cold sign-off", &report, &bits, &names, Some(ref_bits));
        let same_doc = *ref_doc == doc;
        run.checks.require(same_doc, || format!("repetition {i}: sign-off bytes differ"));
        let all_missed = report.stats.cache_misses == names.len() && report.stats.cache_hits == 0;
        run.checks.require(all_missed, || {
            format!(
                "cold run hit the cache: {} misses of {}",
                report.stats.cache_misses,
                names.len()
            )
        });
        walls.push(wall);
        heaps.push(heap);
        if run.cfg.trace && i + 1 == timed {
            // The last repetition feeds the engine statistics and, through
            // its cache file, the cache probes.
            layers::engine_stats(run, &report, op_allocs);
            layers::cache_probes(run, &cache);
        }
        last = Some(report);
    }
    run.put_median("signoff_p50_s", &walls, 1.0);
    run.put_median("peak_heap_mb", &heaps, 1.0);
    last.expect("at least one repetition")
}

/// Median set-up time over `reps` repetitions of `build`, keeping the
/// last build.
fn timed_setup<T>(run: &mut Run, reps: usize, mut build: impl FnMut(&mut Run) -> T) -> T {
    let mut samples = Vec::with_capacity(reps);
    let mut built = None;
    for _ in 0..reps {
        drop(built.take());
        let t0 = Instant::now();
        built = Some(build(run));
        samples.push(t0.elapsed().as_secs_f64());
    }
    run.put_median("setup_s", &samples, 1.0);
    built.expect("at least one set-up repetition")
}

/// The paper's full-chip flow: a DSP-like block with nonlinear cell-model
/// drivers and receiver checks on flagged victims.
pub fn dsp_cold(cfg: RunConfig) -> Outcome {
    let mut run = Run::new(cfg, "dsp_cold");
    // The generator's own seed moves the block's total wire length by
    // ±17 % (four bus lengths drawn from 0.8–3 mm), which would bury any
    // bound on the sign-off time under seed-to-seed spread. The block is
    // therefore one fixed chip; `--seed` picks the replayed victims.
    let dsp = if cfg.smoke {
        DspConfig { n_buses: 1, bus_bits: 8, n_random_nets: 10, cycle: 10e-9, seed: 1 }
    } else {
        DspConfig { n_buses: 4, bus_bits: 32, n_random_nets: 120, cycle: 10e-9, seed: 1 }
    };
    // One-time work (cell characterization) is not set-up: it is paid once
    // per checkout, and `cells.characterize_ms_per_cell` prices it.
    crate::prepare();
    let spec = DesignSpec::Dsp { config: dsp.clone() };
    // A few milliseconds each, so many repetitions: the median of five
    // moved by a fifth from run to run.
    let chip = timed_setup(&mut run, 31, |_| elaborate(&spec).expect("dsp block elaborates"));
    if cfg.trace {
        // The same set-up, taken apart so each layer's part shows.
        let t = &run.tracer;
        let (tech, lib) = (Technology::c025(), CellLibrary::standard_025());
        let block = t.span("designs.extract", || generate(&dsp, &tech, &lib));
        let charlib = t.span("cells.liberty_load", layers::load_charlib_cache);
        let victims = chip.victims().to_vec();
        let rebuilt = t.span("engine.elaborate", || {
            ResidentChip::with_design(
                block.parasitics,
                block.design,
                lib,
                charlib,
                DriverModelKind::Nonlinear,
                victims,
            )
        });
        std::hint::black_box(rebuilt);
        run.put_span_mean("designs.extract_ms", "designs.extract", 1e3);
        run.put_span_mean("cells.liberty_load_ms", "cells.liberty_load", 1e3);
        run.put_span_mean("engine.elaborate_ms", "engine.elaborate", 1e3);
    }
    let report = cold_ops(&mut run, &chip, true, 2);
    if cfg.trace {
        let ecfg = engine_config(&run.scratch.fresh("probe").join("chip.cache"), true);
        layers::layer_pass(&mut run, &chip, &ecfg, &report, if cfg.smoke { 6 } else { 32 });
        layers::spice_oracle(&mut run, &chip, &ecfg, 3);
        layers::characterize_probe(&mut run);
    }
    run.finish()
}

/// Long parallel wires at a fine extraction mesh, ingested through SPEF
/// text, fixed 1 kΩ drivers, no receiver checks.
pub fn mesh_cold(cfg: RunConfig) -> Outcome {
    let mut run = Run::new(cfg, "mesh_cold");
    let (groups, wires, len, seg) =
        if cfg.smoke { (2, 4, (0.4e-3, 0.6e-3), 10e-6) } else { (12, 8, (3e-3, 4e-3), 2.5e-6) };
    let chip = timed_setup(&mut run, 2, |run| {
        let t = &run.tracer;
        let db = t.span("designs.extract", || gen::mesh_field(cfg.seed, groups, wires, len, seg));
        let text = t.span("netlist.write_spef", || write_spef(&db));
        let parsed = t.span("netlist.parse_spef", || parse_spef(&text)).expect("own SPEF parses");
        let chip = t.span("engine.elaborate", || {
            let victims = gen::all_victims(&parsed);
            ResidentChip::fixed_resistance(parsed, 1000.0, victims)
        });
        (chip, text.len())
    });
    let (chip, spef_bytes) = chip;
    if cfg.trace {
        layers::ingest_metrics(&mut run, spef_bytes);
    }
    let report = cold_ops(&mut run, &chip, false, 2);
    if cfg.trace {
        let ecfg = engine_config(&run.scratch.fresh("probe").join("chip.cache"), false);
        layers::layer_pass(&mut run, &chip, &ecfg, &report, if cfg.smoke { 4 } else { 16 });
    }
    run.finish()
}
