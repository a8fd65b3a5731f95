//! Determinism matrix: the engine's merged report must be byte-identical
//! across worker counts {1, 2, 4, 8}, across cold vs. warm cache, and with
//! tracing on vs. off — on the same fixtures the golden suite pins.
//!
//! Comparisons go through [`pcv_xtalk::ChipReport::to_json`], which embeds
//! exact f64 bit patterns, so "identical" here means bit-for-bit.

mod fixtures;

use fixtures::{bundle_fixture, dsp_fixture, random_fixture};
use pcv_engine::{Engine, EngineConfig};
use pcv_netlist::{NetParasitics, PNetId};
use pcv_xtalk::drivers::DriverModelKind;
use pcv_xtalk::AnalysisContext;
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// A trace session collects from every thread of the process, so an engine
/// run on a sibling test's thread counts into whichever session is live.
/// Tests that read a trace hold this lock exclusively; the rest share it and
/// still run beside each other.
static TRACE_ISOLATION: RwLock<()> = RwLock::new(());

fn beside_untraced_runs() -> RwLockReadGuard<'static, ()> {
    TRACE_ISOLATION.read().unwrap_or_else(PoisonError::into_inner)
}

fn alone_in_the_trace() -> RwLockWriteGuard<'static, ()> {
    TRACE_ISOLATION.write().unwrap_or_else(PoisonError::into_inner)
}

fn cache_file(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("pcv-determinism-caches");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(tag)
}

#[test]
fn bundle_report_is_identical_across_worker_counts() {
    let _shared = beside_untraced_runs();
    let (db, victims) = bundle_fixture();
    let ctx = AnalysisContext::fixed_resistance(&db, 1000.0);
    let baseline = Engine::new(EngineConfig { workers: 1, ..Default::default() })
        .verify(&ctx, &victims)
        .unwrap()
        .chip
        .to_json();
    for workers in [2usize, 4, 8] {
        let report = Engine::new(EngineConfig { workers, ..Default::default() })
            .verify(&ctx, &victims)
            .unwrap();
        assert!(report.errors.is_empty());
        assert_eq!(report.chip.to_json(), baseline, "{workers}-worker run diverged");
    }
}

#[test]
fn random_cluster_report_is_identical_across_worker_counts() {
    let _shared = beside_untraced_runs();
    let (db, victims) = random_fixture();
    let ctx = AnalysisContext::fixed_resistance(&db, 1000.0);
    let baseline = Engine::new(EngineConfig { workers: 1, ..Default::default() })
        .verify(&ctx, &victims)
        .unwrap()
        .chip
        .to_json();
    for workers in [2usize, 4, 8] {
        let report = Engine::new(EngineConfig { workers, ..Default::default() })
            .verify(&ctx, &victims)
            .unwrap();
        assert_eq!(report.chip.to_json(), baseline, "{workers}-worker run diverged");
    }
}

#[test]
fn dsp_receiver_report_is_identical_across_worker_counts_and_cache_states() {
    let _shared = beside_untraced_runs();
    let (block, lib, victims) = dsp_fixture();
    let ctx = AnalysisContext {
        db: &block.parasitics,
        design: Some(&block.design),
        lib: Some(&lib),
        charlib: None,
        driver_model: DriverModelKind::FixedResistance(2000.0),
    };
    let config = |workers: usize| EngineConfig {
        workers,
        warn_frac: 0.02,
        fail_frac: 0.05,
        check_receivers: true,
        ..Default::default()
    };
    let baseline = Engine::new(config(1)).verify(&ctx, &victims).unwrap().chip.to_json();
    for workers in [2usize, 4, 8] {
        let report = Engine::new(config(workers)).verify(&ctx, &victims).unwrap();
        assert_eq!(report.chip.to_json(), baseline, "{workers}-worker run diverged");
    }

    // Cold vs. warm cache: cached verdicts replay bit-identically.
    let path = cache_file("dsp-cold-warm");
    let _ = std::fs::remove_file(&path);
    let engine = Engine::new(EngineConfig { cache_path: Some(path.clone()), ..config(4) });
    let cold = engine.verify(&ctx, &victims).unwrap();
    assert_eq!(cold.stats.cache_misses, victims.len());
    assert_eq!(cold.chip.to_json(), baseline);
    let warm = engine.verify(&ctx, &victims).unwrap();
    assert_eq!(warm.stats.cache_hits, victims.len());
    assert_eq!(warm.chip.to_json(), baseline, "warm-cache run diverged");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn traced_run_matches_untraced_and_emits_chrome_trace() {
    let _alone = alone_in_the_trace();
    let (db, victims) = bundle_fixture();
    let ctx = AnalysisContext::fixed_resistance(&db, 1000.0);
    let plain = Engine::new(EngineConfig { workers: 4, ..Default::default() })
        .verify(&ctx, &victims)
        .unwrap();
    assert!(plain.trace.is_none());

    let traced = Engine::new(EngineConfig { workers: 4, trace: true, ..Default::default() })
        .verify(&ctx, &victims)
        .unwrap();
    // Instrumentation must not perturb the numerics.
    assert_eq!(traced.chip.to_json(), plain.chip.to_json(), "tracing changed the report");

    let trace = traced.trace.as_ref().expect("traced run carries a trace");
    assert!(trace.spans.iter().any(|s| s.name == "cluster_job"));
    assert!(trace.spans.iter().any(|s| s.name == "sympvl_reduce"));
    assert!(trace.counters.get("engine.cache.misses").copied() == Some(victims.len() as u64));
    assert!(trace.counters.contains_key("sparse.chol.tri_solves"));
    assert!(trace.counters.contains_key("sparse.chol.factors"));
    let chrome = trace.to_chrome_trace();
    assert!(chrome.starts_with("{\"displayTimeUnit\":"));
    assert!(chrome.contains("\"ph\":\"X\""));
    assert!(chrome.contains("\"ph\":\"C\""));
    assert!(chrome.ends_with("]}\n") || chrome.ends_with("]}"));

    // Per-cluster cost breakdown covers every victim, most expensive first.
    assert_eq!(traced.clusters.len(), victims.len());
    for w in traced.clusters.windows(2) {
        assert!(w[0].total() >= w[1].total());
    }
}

#[test]
fn traced_run_builds_and_reduces_each_coupled_cluster_once() {
    let _alone = alone_in_the_trace();
    // The bundle plus one wire nothing couples to: its cluster has no
    // aggressor, so its job must neither build a model nor reduce one.
    let (mut db, mut victims) = bundle_fixture();
    let mut lone = NetParasitics::new("lone");
    let far = lone.add_node();
    lone.add_resistor(0, far, 150.0);
    lone.add_ground_cap(far, 8e-15);
    lone.mark_load(far);
    let lone: PNetId = db.add_net(lone);
    victims.push(lone);
    let ctx = AnalysisContext::fixed_resistance(&db, 1000.0);

    let traced = Engine::new(EngineConfig { workers: 2, trace: true, ..Default::default() })
        .verify(&ctx, &victims)
        .unwrap();
    assert!(traced.errors.is_empty() && traced.degradations.is_empty());
    assert_eq!(traced.stats.cache_misses, victims.len());
    let quiet = traced.chip.verdicts.iter().find(|v| v.net == lone).expect("lone wire audited");
    assert_eq!((quiet.cluster_size, quiet.rise_peak, quiet.fall_peak), (1, 0.0, 0.0));

    // Both polarities come from the one prepared cluster: one model build
    // and one reduction a coupled job, two transients.
    let coupled = victims.len() - 1;
    let trace = traced.trace.as_ref().expect("traced run carries a trace");
    let spans = |name: &str| trace.spans.iter().filter(|s| s.name == name).count();
    assert_eq!(spans("cluster_job"), victims.len());
    assert_eq!(spans("build_cluster"), coupled);
    assert_eq!(spans("sympvl_reduce"), coupled);
    assert_eq!(spans("glitch_rise"), coupled);
    assert_eq!(spans("glitch_fall"), coupled);
    assert_eq!(spans("rom_eval"), 2 * coupled);

    // Inside a reduction the spans follow blocks, not vectors: one assembly
    // a reduce, one `A` application and one projection per block that kept
    // a vector (the block's rows and columns of `T` and `ρ`), and at most
    // one more orthonormalization (a block that kept none ends the
    // iteration).
    let applies = trace.counters["mor.lanczos.block_applies"] as usize;
    assert_eq!(spans("assemble"), coupled);
    assert_eq!((spans("apply_a"), spans("project")), (applies, applies));
    assert!((applies..=applies + coupled).contains(&spans("gram_schmidt")));
    let order = trace.histograms["mor.reduced_order"].sum as usize;
    assert!(2 * applies <= order, "{applies} block applications for {order} basis vectors");
    // Each reduction records the blocks it ran, and whether the stop rule
    // ended it below the ceiling: every bundle cluster stops at block 3.
    let blocks = &trace.histograms["mor.lanczos.blocks"];
    assert_eq!((blocks.count as usize, blocks.sum as usize), (coupled, applies));
    assert_eq!(applies, 3 * coupled);
    assert_eq!(trace.counters.get("mor.lanczos.early_stops").copied(), Some(coupled as u64));

    // Every aggressor switches at `SWITCH_TIME` and every victim holds, so
    // each of the two walks a coupled job takes holds its DC point to that
    // instant, in one step that is neither a step nor a solve.
    let walks = 2 * coupled as u64;
    assert_eq!(trace.counters.get("mor.walk.holds").copied(), Some(walks));
    let held = &trace.histograms["mor.walk.held_fs"];
    let switch_fs = (pcv_xtalk::analysis::SWITCH_TIME * 1e15).round() as u64;
    assert_eq!((held.count, held.min, held.max), (walks, switch_fs, switch_fs));
}

#[test]
fn per_victim_work_follows_the_cluster_not_the_chip() {
    use pcv_designs::extract::{extract, WireGeom};
    let _alone = alone_in_the_trace();
    // Fields of one decoupled 4-wire tile repeated 4 and 64 times: sixteen
    // times the couplings, the same clusters.
    let tech = pcv_designs::Technology::c025();
    let field = |tiles: usize| {
        let mut wires = Vec::new();
        for t in 0..tiles {
            for w in 0..4 {
                let track = (t * 10 + w) as i64;
                wires.push(WireGeom::min_width(format!("t{t}_w{w}"), track, 0.0, 100e-6, &tech));
            }
        }
        extract(&wires, &tech, 25e-6)
    };
    let mut visited_per_tile = Vec::new();
    for tiles in [4usize, 64] {
        let db = field(tiles);
        let victims: Vec<PNetId> = (0..db.num_nets()).map(PNetId).collect();
        let ctx = AnalysisContext::fixed_resistance(&db, 1000.0);
        let traced = Engine::new(EngineConfig { workers: 2, trace: true, ..Default::default() })
            .verify(&ctx, &victims)
            .unwrap();
        assert!(traced.errors.is_empty() && traced.degradations.is_empty());
        let trace = traced.trace.as_ref().expect("traced run carries a trace");
        let count = |name: &str| trace.counters.get(name).copied().unwrap_or(0) as usize;

        // One fingerprint a victim; one section digest a *net*, although
        // every net is a member of several clusters.
        let member_slots: usize = traced.chip.verdicts.iter().map(|v| v.cluster_size).sum();
        assert!(member_slots >= 2 * db.num_nets(), "clusters overlap: {member_slots} slots");
        assert_eq!(count("engine.fingerprint.clusters"), victims.len());
        assert_eq!(count("engine.fingerprint.net_digests"), db.num_nets());

        // A build visits its members' couplings, never the other tiles'.
        let builds = trace.spans.iter().filter(|s| s.name == "build_cluster").count();
        assert_eq!(builds, victims.len());
        let visited = count("xtalk.build.couplings_visited");
        assert_eq!(visited % tiles, 0, "identical tiles do identical work");
        assert!(visited / tiles <= 4 * db.couplings().len() / tiles, "within the tile");
        visited_per_tile.push(visited / tiles);
    }
    assert_eq!(visited_per_tile[0], visited_per_tile[1], "couplings visited per victim");
}

/// A fine-mesh field — 2 groups × 5 wires, 0.4 mm extracted at 2.5 µm —
/// signs off to its recorded bytes: clusters of ~800 nodes reduced in
/// blocks five and six wide, which no golden fixture reaches. Recorded
/// before block Lanczos worked on panels (commit 4516939); re-recorded when
/// linear drivers moved to the modal solver, every number within 3.2e-15
/// of the Newton kernel's and no other byte of the verdicts moved; and once
/// more when the reduction began to stop at the Padé order a cluster needs.
#[test]
fn fine_mesh_signoff_keeps_its_recorded_digest() {
    use pcv_designs::extract::{extract, WireGeom};
    let _shared = beside_untraced_runs();
    let tech = pcv_designs::Technology::c025();
    let mut wires = Vec::new();
    for g in 0..2 {
        for w in 0..5 {
            let len = 400e-6 * (1.0 + 0.05 * g as f64);
            wires.push(WireGeom::min_width(format!("g{g}_w{w}"), g * 11 + w, 0.0, len, &tech));
        }
    }
    let db = extract(&wires, &tech, 2.5e-6);
    let victims: Vec<PNetId> = (0..db.num_nets()).map(PNetId).collect();
    let ctx = AnalysisContext::fixed_resistance(&db, 1000.0);
    let report = Engine::new(EngineConfig { workers: 2, ..Default::default() })
        .verify(&ctx, &victims)
        .unwrap();
    assert!(report.errors.is_empty() && report.degradations.is_empty());
    let widest = report.chip.verdicts.iter().map(|v| v.cluster_size).max().unwrap();
    assert!(widest >= 5, "blocks of at least six ports, got clusters of {widest}");
    let mut h = pcv_engine::Fnv1a::new();
    h.write(report.signoff_json().as_bytes());
    assert_eq!(h.finish(), 0xb122_904c_55a7_a334, "sign-off bytes moved");
}
