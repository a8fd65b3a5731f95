//! `eco_edit`: the operation is one ECO turnaround from new SPEF text —
//! parse, elaborate, diff, plan, splice-verify, render the sign-off — on a
//! 2048-net field whose cache a cold seed sign-off warmed.

use super::layers;
use super::{
    allocs_now, check_verdicts, engine, engine_config, peak_heap_mib, verdict_bits, victim_names,
    Outcome, Run, RunConfig, VerdictBits,
};
use crate::gen::{self, EcoEdits};
use crate::stats::percentile;
use pcv_engine::{EcoPlan, EngineConfig, ResidentChip};
use pcv_netlist::eco::EcoDelta;
use pcv_netlist::spef::{parse_spef, write_spef};
use pcv_xtalk::analyze_glitch;
use pcv_xtalk::prune::prune_victim_with_components;
use std::collections::BTreeMap;
use std::time::Instant;

const DRIVE_OHMS: f64 = 1000.0;
/// Wires per tile bound the dirty set of a one-net edit.
const MAX_DIRTY: usize = gen::TILE_WIRES;

/// Elaborate SPEF text the way a one-shot batch tool would.
fn ingest(run: &Run, text: &str) -> ResidentChip {
    let t = &run.tracer;
    let parsed = t.span("netlist.parse_spef", || parse_spef(text)).expect("own SPEF parses");
    t.span("engine.elaborate", || {
        let victims = gen::all_victims(&parsed);
        ResidentChip::fixed_resistance(parsed, DRIVE_OHMS, victims)
    })
}

/// Recompute the named victims' peaks directly (no engine, no cache) and
/// require the spliced report to carry exactly those bits.
fn check_dirty_against_direct(
    run: &mut Run,
    chip: &ResidentChip,
    dirty: &[String],
    got: &BTreeMap<String, VerdictBits>,
) {
    let ecfg = EngineConfig::default();
    let ctx = chip.ctx();
    for name in dirty {
        let vic = chip.db().find_net(name).expect("dirty victim exists");
        let cluster =
            prune_victim_with_components(chip.db(), vic, &ecfg.prune, chip.component_sizes());
        let peak = |rising| {
            analyze_glitch(&ctx, &cluster, rising, &ecfg.analysis).map(|g| g.peak.to_bits())
        };
        let direct = match (peak(true), peak(false)) {
            (Ok(r), Ok(f)) => Some((r, f, None)),
            _ => None,
        };
        run.checks.require(direct.is_some() && got.get(name) == direct.as_ref(), || {
            format!("spliced verdict for dirty victim {name} differs from a direct analysis")
        });
    }
}

pub fn eco_edit(cfg: RunConfig) -> Outcome {
    let mut run = Run::new(cfg, "eco_edit");
    let tiles = if cfg.smoke { 32 } else { 512 };
    // The traced pass reports a p90, which needs a hundred samples.
    let (warmup, timed) = match (cfg.smoke, cfg.trace) {
        (true, _) => (2, 20),
        (false, false) => (5, cfg.ops(60, 20)),
        (false, true) => (5, cfg.ops(60, 100)),
    };

    // Set-up: ingest the field and warm the cache with a cold sign-off.
    let dir = run.scratch.fresh("eco");
    let cache = dir.join("chip.cache");
    let t0 = Instant::now();
    let mut db = run.tracer.span("designs.extract", || gen::tiled_field(cfg.seed, tiles));
    let text = run.tracer.span("netlist.write_spef", || write_spef(&db));
    let base = ingest(&run, &text);
    let seed_report = run
        .tracer
        .span("engine.verify_resident", || engine(&cache, false).verify_resident(&base, None))
        .expect("seed sign-off runs");
    run.put("setup_s", t0.elapsed().as_secs_f64(), 1);
    let names = victim_names(&base);
    let mut prev_bits = verdict_bits(&seed_report);
    check_verdicts(&mut run.checks, "seed sign-off", &seed_report, &prev_bits, &names, None);
    let cold_misses = seed_report.stats.cache_misses;
    run.checks.require(cold_misses == names.len(), || format!("seed run missed {cold_misses}"));

    let mut edits = EcoEdits::new(cfg.seed, tiles);
    let mut prev = base;
    let (mut walls, mut heaps) = (Vec::with_capacity(timed), Vec::with_capacity(timed));
    let mut numeric_s = 0.0;
    let mut last = None;
    for i in 0..warmup + timed {
        // Producing the edited document is the extraction tool's job.
        let edited = edits.apply_next(&mut db);
        let text = write_spef(&db);

        pcv_obs::mem::reset_peak();
        let allocs0 = allocs_now();
        let t0 = Instant::now();
        let next = ingest(&run, &text);
        let outcome = run
            .tracer
            .span("engine.eco_verify_resident", || {
                engine(&cache, false).eco_verify_resident(&prev, &next, false, None)
            })
            .expect("eco run verifies");
        let doc = run.tracer.span("engine.signoff_json", || outcome.report.signoff_json());
        let wall = t0.elapsed().as_secs_f64();
        let heap = peak_heap_mib();
        let op_allocs = allocs_now() - allocs0;
        std::hint::black_box(doc.len());

        let bits = verdict_bits(&outcome.report);
        check_verdicts(&mut run.checks, "eco sign-off", &outcome.report, &bits, &names, None);
        let dirty = &outcome.plan.dirty;
        let stats = &outcome.report.stats;
        run.checks.require(
            stats.cache_misses == dirty.len()
                && dirty.len() <= MAX_DIRTY
                && dirty.contains(&edited),
            || format!("edit of {edited}: dirty {dirty:?}, {} cache misses", stats.cache_misses),
        );
        // Everything outside the dirty set must be spliced unchanged.
        let stale =
            names.iter().filter(|n| !dirty.contains(n) && bits.get(*n) != prev_bits.get(*n));
        let stale = stale.count();
        run.checks
            .require(stale == 0, || format!("{stale} clean verdicts changed across the edit"));
        if i % 4 == 0 {
            check_dirty_against_direct(&mut run, &next, dirty, &bits);
        }
        if i >= warmup {
            walls.push(wall);
            heaps.push(heap);
            numeric_s += (stats.analysis_time + stats.receiver_time).as_secs_f64();
        }
        last = Some((outcome, op_allocs));
        prev = next;
        prev_bits = bits;
    }
    run.put_median("signoff_p50_s", &walls, 1.0);
    run.put_median("peak_heap_mb", &heaps, 1.0);

    if cfg.trace {
        if let Some(p90) = percentile(&walls, 90.0) {
            run.put("e2e.signoff_p90_s", p90, walls.len());
        }
        layers::ingest_metrics(&mut run, text.len());
        layers::cache_probes(&mut run, &cache);
        // The diff and the plan, called the way `eco_verify_resident`
        // calls them, on the last edit's chip pair.
        let (outcome, op_allocs) = last.expect("at least one operation");
        let ecfg = engine_config(&cache, false);
        let mut db_prev = parse_spef(&text).expect("own SPEF parses");
        let before =
            ResidentChip::fixed_resistance(db_prev.clone(), DRIVE_OHMS, gen::all_victims(&db_prev));
        edits.apply_next(&mut db_prev);
        let after =
            ResidentChip::fixed_resistance(db_prev.clone(), DRIVE_OHMS, gen::all_victims(&db_prev));
        let delta = run.tracer.span("netlist.eco_diff", || EcoDelta::diff(before.db(), after.db()));
        let plan =
            run.tracer.span("engine.eco_plan", || EcoPlan::compute(&ecfg, &before, &after, &delta));
        run.checks.require(plan.dirty.len() <= MAX_DIRTY && delta.num_edits() == 1, || {
            format!("probe edit: {} edits, dirty {:?}", delta.num_edits(), plan.dirty)
        });
        run.put_span_mean("netlist.eco_diff_ms", "netlist.eco_diff", 1e3);
        run.put_span_mean("engine.eco_plan_ms", "engine.eco_plan", 1e3);

        // Layers and attribution come from the cold seed run of the base
        // chip (`before`); the op's own statistics from the last ECO run.
        layers::layer_pass(&mut run, &before, &ecfg, &seed_report, if cfg.smoke { 8 } else { 64 });
        layers::engine_stats(&mut run, &outcome.report, op_allocs);
        run.put("share.numeric_of_op", numeric_s / walls.iter().sum::<f64>(), walls.len());
    }
    run.finish()
}
