//! The traced pass's per-layer measurements: engine statistics read off a
//! report, the layer replay with its attribution check, storage probes,
//! and the SPICE differential oracle. All of it runs only under
//! `--trace 1`; none of it is inside a timed operation.

use super::{verdict_bits, Run};
use crate::gen::sample_indices;
use crate::replay::{replay, ENGINE_PATH};
use crate::span::self_time_by_name;
use pcv_cells::charlib::{characterize, CharLibrary};
use pcv_cells::library::CellLibrary;
use pcv_engine::fs::Fs;
use pcv_engine::{EngineConfig, EngineReport, Journal, JournalEntry, ResidentChip, ResultCache};
use pcv_xtalk::prune::prune_victim_with_components;
use pcv_xtalk::{analyze_glitch, build_cluster, EngineKind};
use std::collections::BTreeMap;
use std::path::Path;

/// Where `pcv_serve::session::elaborate` caches characterized cells: the
/// `target/` of the checkout this benchmark sits in.
fn charlib_cache_dir() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../target/pcv_charlib_cache")
}

/// Load every cached Liberty-lite file — the Liberty part of elaboration.
pub fn load_charlib_cache() -> CharLibrary {
    let mut files: Vec<_> = std::fs::read_dir(charlib_cache_dir())
        .expect("charlib cache exists after prepare")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "lib"))
        .collect();
    files.sort();
    let mut out = CharLibrary::default();
    for file in files {
        let text = std::fs::read_to_string(&file).expect("cached liberty file reads");
        for cell in pcv_cells::liberty::parse_liberty(&text).expect("cached liberty parses").iter()
        {
            out.insert(cell.clone());
        }
    }
    out
}

/// Price the one-time `prepare` step: one `characterize(INVX2)` call.
pub fn characterize_probe(run: &mut Run) {
    let lib = CellLibrary::standard_025();
    let cell = lib.cell("INVX2").expect("standard library has INVX2");
    let ch = run.tracer.span("cells.characterize", || characterize(cell));
    run.checks.require(ch.is_ok(), || "characterize(INVX2) failed".to_owned());
    run.put_span_mean("cells.characterize_ms_per_cell", "cells.characterize", 1e3);
}

/// SPEF ingest metrics from the set-up spans (median over set-up
/// repetitions).
pub fn ingest_metrics(run: &mut Run, spef_bytes: usize) {
    run.put_span_median("designs.extract_ms", "designs.extract", 1e3);
    run.put_span_median("engine.elaborate_ms", "engine.elaborate", 1e3);
    let parse = run.tracer.durations("netlist.parse_spef");
    run.put("netlist.spef_bytes", spef_bytes as f64, 1);
    if !parse.is_empty() {
        let mb_per_s = spef_bytes as f64 / 1e6 / crate::stats::median(&parse);
        run.put("netlist.parse_spef_mb_per_s", mb_per_s, parse.len());
    }
}

/// Summed worker busy time of a run, seconds.
fn busy_s(report: &EngineReport) -> f64 {
    report.stats.worker_busy.iter().map(std::time::Duration::as_secs_f64).sum()
}

/// `engine.*` statistics straight from a report's own `EngineStats`;
/// `op_allocs` is the allocation count of the operation that produced it
/// (the report's own counter runs from process start).
pub fn engine_stats(run: &mut Run, report: &EngineReport, op_allocs: u64) {
    let s = &report.stats;
    let busy = busy_s(report);
    let attributed = (s.prune_time + s.analysis_time + s.receiver_time).as_secs_f64();
    run.put("engine.wall_s", s.wall_time.as_secs_f64(), 1);
    run.put("engine.busy_s", busy, 1);
    run.put("engine.utilization", s.utilization(), 1);
    run.put("engine.prune_s", s.prune_time.as_secs_f64(), 1);
    run.put("engine.analysis_s", s.analysis_time.as_secs_f64(), 1);
    run.put("engine.receiver_s", s.receiver_time.as_secs_f64(), 1);
    run.put("engine.unattributed_frac", if busy > 0.0 { 1.0 - attributed / busy } else { 0.0 }, 1);
    run.put("engine.steals", s.steals as f64, 1);
    run.put("engine.cache_hits", s.cache_hits as f64, 1);
    run.put("engine.cache_misses", s.cache_misses as f64, 1);
    run.put("engine.degraded", s.degraded as f64, 1);
    run.put("engine.allocs", op_allocs as f64, 1);
}

/// Load and re-save the result cache an operation left behind.
pub fn cache_probes(run: &mut Run, cache: &Path) {
    let fs = Fs::real();
    let (loaded, _) = run.tracer.span("engine.cache_load", || ResultCache::load_with(&fs, cache));
    let copy = cache.with_extension("probe");
    let saved = run.tracer.span("engine.cache_save", || loaded.save_with(&fs, &copy));
    run.checks.require(saved.is_ok(), || "cache save probe failed".to_owned());
    run.put_span_mean("engine.cache_load_ms", "engine.cache_load", 1e3);
    run.put_span_mean("engine.cache_save_ms", "engine.cache_save", 1e3);
    run.put("engine.cache_entries", loaded.len() as f64, 1);
}

/// Journal checkpoint cost: 64 `Journal::record` calls (each an fsync'd
/// append), then one load of what they wrote.
fn journal_probes(run: &mut Run) {
    const RECORDS: usize = 64;
    let fs = Fs::real();
    let path = Journal::path_for(&run.scratch.fresh("journal").join("probe.cache"));
    let journal = Journal::begin(&fs, &path, 1, 2).expect("probe journal opens");
    for i in 0..RECORDS {
        let entry = JournalEntry {
            name: format!("probe_net_{i}"),
            fingerprint: i as u64,
            rise_bits: 0.25f64.to_bits(),
            fall_bits: (-0.25f64).to_bits(),
            receiver: None,
            degraded: None,
        };
        let ok = run.tracer.span("engine.journal_append", || journal.record(&entry)).is_ok();
        run.checks.require(ok, || "journal append probe failed".to_owned());
    }
    let load = run.tracer.span("engine.journal_load", || Journal::load(&fs, &path));
    run.checks.require(load.entries.len() == RECORDS && load.skipped == 0, || {
        format!("journal probe read back {} of {RECORDS} records", load.entries.len())
    });
    run.put_span_mean("engine.journal_append_us", "engine.journal_append", 1e6);
    run.put_span_mean("engine.journal_load_ms", "engine.journal_load", 1e3);
}

/// The layer replay over a seeded sample of `k` victims of `chip`, checked
/// against — and attributed to — `cold`, a cold sign-off of the same chip
/// under the same configuration.
pub fn layer_pass(
    run: &mut Run,
    chip: &ResidentChip,
    ecfg: &EngineConfig,
    cold: &EngineReport,
    k: usize,
) {
    journal_probes(run);

    let sample = sample_indices(run.cfg.seed, chip.victims().len(), k);
    let first_span = run.tracer.len();
    let (replayed, counts, mismatches) = replay(chip, ecfg, &sample, &run.tracer);
    for m in mismatches {
        run.checks.fail(|| m);
    }

    // The harness's call sequence and the engine's must agree bit for bit.
    let engine_bits = verdict_bits(cold);
    for r in &replayed {
        let same = engine_bits.get(&r.name) == Some(&(r.peaks.0, r.peaks.1, r.receiver));
        run.checks
            .require(same, || format!("replay of {} differs from the engine's verdict", r.name));
    }
    run.checks.require(counts.transfer_max_rel_err <= 0.01, || {
        format!("reduced transfer function off by {:.3e} (> 1 %)", counts.transfer_max_rel_err)
    });

    let sims = run.tracer.durations("mor.simulate");
    let steps_total = counts.steps.iter().sum::<f64>();
    run.put_span_mean("xtalk.prune_us_per_victim", "xtalk.prune", 1e6);
    run.put_span_mean("engine.fingerprint_us_per_victim", "engine.fingerprint", 1e6);
    run.put_span_mean("xtalk.build_cluster_us_per_call", "xtalk.build_cluster", 1e6);
    run.put_span_mean("sparse.chol_factor_us_per_call", "sparse.chol_factor", 1e6);
    run.put_span_mean("sparse.chol_solve_us_per_call", "sparse.chol_solve", 1e6);
    run.put_span_mean("mor.reduce_ms_per_call", "mor.reduce", 1e3);
    run.put_span_mean("mor.diagonalize_us_per_call", "mor.diagonalize", 1e6);
    run.put_span_mean("mor.simulate_ms_per_call", "mor.simulate", 1e3);
    run.put_span_mean("xtalk.receiver_check_ms_per_call", "xtalk.receiver_check", 1e3);
    let receiver_checks = run.tracer.durations("xtalk.receiver_check").len();
    run.put("xtalk.receiver_checks", receiver_checks as f64, replayed.len());
    run.put_mean("xtalk.cluster_nets_mean", &counts.cluster_nets, 1.0);
    run.put_mean("xtalk.neighbors_before_mean", &counts.neighbors_before, 1.0);
    run.put_mean("xtalk.cluster_nodes_mean", &counts.cluster_nodes, 1.0);
    run.put_mean("sparse.chol_nnz_mean", &counts.chol_nnz, 1.0);
    run.put_mean("mor.reduced_order_mean", &counts.reduced_order, 1.0);
    run.put_mean("mor.ports_mean", &counts.ports, 1.0);
    run.put_mean("mor.steps_per_call", &counts.steps, 1.0);
    run.put_mean("mor.newton_iters_per_call", &counts.newton_iters, 1.0);
    if steps_total > 0.0 {
        run.put("mor.us_per_step", sims.iter().sum::<f64>() * 1e6 / steps_total, sims.len());
        let allocs = counts.sim_allocs.iter().sum::<f64>() / steps_total;
        run.put("mor.allocs_per_step", allocs, sims.len());
    }
    run.put("mor.transfer_max_rel_err", counts.transfer_max_rel_err, replayed.len());

    // Attribution. The engine reports what every victim cost it; scaling
    // the sample's replayed layer time by (all victims' engine cost) /
    // (sampled victims' engine cost) estimates each layer's chip total
    // without the sampling error of a plain victims/sample factor.
    let cost: BTreeMap<&str, f64> =
        cold.clusters.iter().map(|c| (c.name.as_str(), c.total().as_secs_f64())).collect();
    let all: f64 = cost.values().sum();
    let sampled: f64 = replayed.iter().filter_map(|r| cost.get(r.name.as_str())).sum();
    let busy = busy_s(cold);
    if sampled > 0.0 && busy > 0.0 {
        let scale = all / sampled;
        let spans = &run.tracer.spans()[first_span..];
        let by_name: BTreeMap<&str, f64> =
            self_time_by_name(spans).into_iter().map(|(n, secs, _)| (n, secs)).collect();
        let share = |name: &str| by_name.get(name).copied().unwrap_or(0.0) * scale / busy;
        let path: f64 = ENGINE_PATH.iter().map(|n| share(n)).sum();
        run.put("attribution.residual_frac", path - 1.0, replayed.len());
        run.put("share.mor_reduce", share("mor.reduce"), replayed.len());
        run.put("share.mor_simulate", share("mor.simulate"), replayed.len());
        run.put("share.xtalk_receiver_check", share("xtalk.receiver_check"), replayed.len());
        run.put("share.xtalk_build_cluster", share("xtalk.build_cluster"), replayed.len());
    }
}

/// MPVL against the SPICE substrate, same driver models on both sides: the
/// reduced flow must stay inside the paper's error envelope (|err| ≤ 1.05 %
/// of the SPICE peak). SPICE costs minutes on a wide bus cluster, so the
/// oracle takes the `n` coupled victims whose clusters have the fewest RC
/// nodes (ties by audit order) — seeded through the chip itself.
pub fn spice_oracle(run: &mut Run, chip: &ResidentChip, ecfg: &EngineConfig, n: usize) {
    const ENVELOPE_PCT: f64 = 1.05;
    let ctx = chip.ctx();
    let mut coupled: Vec<_> = (0..chip.victims().len())
        .filter_map(|i| {
            let vic = chip.victims()[i];
            let cluster =
                prune_victim_with_components(chip.db(), vic, &ecfg.prune, chip.component_sizes());
            let nodes =
                build_cluster(chip.db(), &cluster, &|net| ctx.load_cap(net), false).rc.num_nodes();
            (!cluster.aggressors.is_empty()).then_some((nodes, i, cluster))
        })
        .collect();
    coupled.sort_unstable_by_key(|&(nodes, i, _)| (nodes, i));
    coupled.truncate(n);
    let mut spice_opts = ecfg.analysis.clone();
    spice_opts.engine = EngineKind::Spice;
    let (mut errs, mut iters) = (Vec::new(), Vec::new());
    for (_, index, cluster) in coupled {
        let t = &run.tracer;
        let mpvl = t.span_for("oracle.mpvl", index, || {
            analyze_glitch(&ctx, &cluster, true, &ecfg.analysis)
        });
        let spice =
            t.span_for("spice.oracle", index, || analyze_glitch(&ctx, &cluster, true, &spice_opts));
        let name = chip.db().net(chip.victims()[index]).name();
        match (mpvl, spice) {
            (Ok(m), Ok(s)) => {
                let err = 100.0 * (s.peak - m.peak).abs() / s.peak.abs().max(1e-9);
                run.checks.require(err <= ENVELOPE_PCT, || {
                    format!("MPVL peak for {name} is {err:.3} % off SPICE (> {ENVELOPE_PCT} %)")
                });
                errs.push(err);
                iters.push(s.newton_iters as f64);
            }
            (m, s) => run.checks.fail(|| {
                format!("oracle analysis of {name} failed: mpvl {:?}, spice {:?}", m.err(), s.err())
            }),
        }
    }
    run.put_span_mean("spice.oracle_ms_per_analysis", "spice.oracle", 1e3);
    run.put_mean("spice.oracle_newton_iters", &iters, 1.0);
    run.put_mean("spice.avg_err_pct", &errs, 1.0);
    run.put("spice.max_err_pct", errs.iter().copied().fold(0.0, f64::max), errs.len());
    let mpvl_total = run.tracer.total("oracle.mpvl");
    if mpvl_total > 0.0 {
        run.put("spice.mpvl_speedup", run.tracer.total("spice.oracle") / mpvl_total, errs.len());
    }
}
