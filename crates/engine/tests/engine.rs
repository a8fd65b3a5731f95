//! Engine acceptance tests: determinism across worker counts on the DSP
//! fixture, fault isolation under an injected panic, and incremental
//! cache behavior (full warm-run hits, exact invalidation).

use pcv_cells::charlib::CharLibrary;
use pcv_cells::library::CellLibrary;
use pcv_designs::dsp::{generate, DspConfig, DRIVER_CELLS};
use pcv_designs::Technology;
use pcv_engine::fault::ALWAYS;
use pcv_engine::{
    chip_slice_fingerprint, cluster_fingerprint, config_hash, Engine, EngineConfig, FaultKind, Fs,
    JournalEntry, Plan, ResidentChip, ResultCache, RunRequest,
};
use pcv_netlist::{NetNodeRef, NetParasitics, PNetId, ParasiticDb};
use pcv_rng::Rng;
use pcv_xtalk::drivers::DriverModelKind;
use pcv_xtalk::prune::{prune_victim, PruneConfig};
use pcv_xtalk::{AnalysisContext, AnalysisOptions};

/// A small DSP block plus its latch-input victim list.
fn dsp_fixture() -> (pcv_designs::dsp::DspBlock, CellLibrary, Vec<PNetId>) {
    let tech = Technology::c025();
    let lib = CellLibrary::standard_025();
    let block = generate(
        &DspConfig { n_buses: 2, bus_bits: 6, n_random_nets: 16, ..Default::default() },
        &tech,
        &lib,
    );
    let victims = block.victims();
    (block, lib, victims)
}

/// `ResidentChip::dsp` is the one elaboration of a generated block; this
/// is the chip assembled by hand from the generator's documented contract
/// instead (design net `k` is parasitic net `k`; every driver is a
/// `DRIVER_CELLS` cell), on the three configurations the fixtures, the
/// batch example and the end-to-end test use.
#[test]
fn dsp_elaboration_is_the_hand_built_chip() {
    for (n_buses, bus_bits, n_random_nets) in [(2, 6, 16), (3, 12, 40), (1, 6, 14)] {
        let config = DspConfig { n_buses, bus_bits, n_random_nets, ..Default::default() };
        let lib = CellLibrary::standard_025();
        let block = generate(&config, &Technology::c025(), &lib);
        let by_index: Vec<PNetId> =
            block.design.latch_input_nets().into_iter().map(|d| PNetId(d.0)).collect();
        for inst in block.design.instances().iter().filter(|i| i.output.is_some()) {
            assert!(
                DRIVER_CELLS.contains(&inst.cell.as_str()),
                "{} drives with {}",
                inst.name,
                inst.cell
            );
        }
        let by_hand = ResidentChip::with_design(
            block.parasitics,
            block.design,
            lib,
            CharLibrary::cached(&DRIVER_CELLS).unwrap(),
            DriverModelKind::Nonlinear,
            by_index,
        );

        let chip = ResidentChip::dsp(&config).unwrap();
        assert_eq!(chip.num_nets(), by_hand.num_nets());
        for (id, net) in by_hand.db().iter() {
            assert_eq!(chip.db().net(id).name(), net.name(), "net ids");
        }
        assert_eq!(chip.victims(), by_hand.victims());
        assert!(chip.victims().len() >= n_buses * bus_bits, "every bus bit feeds a latch");
        assert_eq!(chip.component_sizes(), by_hand.component_sizes());
        let (ctx, hand_ctx) = (chip.ctx(), by_hand.ctx());
        assert_eq!(
            chip_slice_fingerprint(&ctx, chip.victims()),
            chip_slice_fingerprint(&hand_ctx, by_hand.victims())
        );
        let cfg = EngineConfig { check_receivers: true, ..Default::default() };
        let chash = cfg.config_hash(&ctx);
        assert_eq!(chash, cfg.config_hash(&hand_ctx));
        assert_eq!(
            chash,
            config_hash(&ctx, &cfg.prune, &cfg.analysis, cfg.warn_frac, cfg.fail_frac, true)
        );
        // Everything a verdict reads — RC, couplings, windows, complements,
        // driver cells — reaches the cluster fingerprint.
        for &v in chip.victims() {
            let fp = |c: &AnalysisContext<'_>| {
                cluster_fingerprint(c, &prune_victim(c.db, v, &cfg.prune), chash)
            };
            assert_eq!(fp(&ctx), fp(&hand_ctx), "{}", ctx.db.net(v).name());
        }
    }
}

fn engine_config(workers: usize) -> EngineConfig {
    EngineConfig { workers, ..Default::default() }
}

/// The DSP fixture as a chip with fixed 2 kΩ drivers, which read no
/// characterization.
fn fixed_chip() -> ResidentChip {
    let (block, lib, victims) = dsp_fixture();
    ResidentChip::with_design(
        block.parasitics,
        block.design,
        lib,
        CharLibrary::default(),
        DriverModelKind::FixedResistance(2000.0),
        victims,
    )
}

#[test]
fn parallel_run_matches_serial_on_dsp_fixture() {
    let chip = fixed_chip();
    let victims = chip.victims();
    assert!(victims.len() >= 4, "fixture must exercise real parallelism");
    let serial = Engine::new(engine_config(1)).run(RunRequest::resident(&chip)).unwrap();
    assert!(serial.errors.is_empty());

    for workers in [2usize, 4] {
        let report = Engine::new(engine_config(workers)).run(RunRequest::resident(&chip)).unwrap();
        assert!(report.errors.is_empty());
        // Verdict for verdict, bit for bit — including order.
        assert_eq!(report.chip, serial.chip, "{workers}-worker run diverged from 1 worker");
        assert_eq!(report.stats.cache_misses, victims.len());
        assert_eq!(report.stats.cache_hits, 0);
        assert_eq!(report.stats.worker_busy.len(), workers);
    }
}

#[test]
fn receiver_audit_matches_serial_on_dsp_fixture() {
    let chip = fixed_chip();
    // Low thresholds so some victims are flagged and receiver checks run.
    let config = |workers| EngineConfig {
        workers,
        warn_frac: 0.02,
        fail_frac: 0.05,
        check_receivers: true,
        ..Default::default()
    };
    let serial = Engine::new(config(1)).run(RunRequest::resident(&chip)).unwrap();
    assert!(serial.errors.is_empty());
    assert!(
        serial.chip.verdicts.iter().any(|v| v.receiver.is_some()),
        "fixture must flag at least one victim"
    );
    for workers in [2usize, 4] {
        let report = Engine::new(config(workers)).run(RunRequest::resident(&chip)).unwrap();
        assert!(report.errors.is_empty());
        assert_eq!(report.chip, serial.chip, "{workers}-worker run diverged from 1 worker");
    }
}

#[test]
fn injected_panic_yields_one_error_and_a_complete_report() {
    let chip = fixed_chip();
    let victims = chip.victims();
    let faulted = chip.db().net(victims[1]).name().to_owned();
    let mut engine = Engine::new(engine_config(4));
    engine.set_fault_plan(Plan::new().at(&faulted, ALWAYS, FaultKind::Panic));
    let report = engine.run(RunRequest::resident(&chip)).unwrap();

    assert_eq!(report.errors.len(), 1);
    assert_eq!(report.errors[0].name, faulted);
    assert_eq!(report.errors[0].net, victims[1]);
    assert!(report.errors[0].message.contains("injected fault"));
    // No victim is silently missing: the persistently panicking cluster is
    // worst-cased by the recovery ladder instead of dropped.
    assert_eq!(report.chip.verdicts.len(), victims.len());
    let worst = report.chip.verdicts.iter().find(|v| v.name == faulted).unwrap();
    assert_eq!(worst.worst_frac, 1.0);
    assert_eq!(report.degradations.len(), 1);
    assert_eq!(report.degradations[0].name, faulted);
    // The survivors match a clean run's verdicts, bit for bit (the
    // worst-cased verdict removed, order preserved).
    let clean = Engine::new(engine_config(1)).run(RunRequest::resident(&chip)).unwrap();
    let others = |chip: &pcv_xtalk::ChipReport| -> Vec<_> {
        chip.verdicts.iter().filter(|v| v.name != faulted).cloned().collect()
    };
    assert_eq!(others(&report.chip), others(&clean.chip));
}

/// Disjoint victim/aggressor pairs: perturbing one pair's coupling must
/// invalidate exactly that victim's cache entry.
fn pair_db(couplings: &[f64]) -> (ParasiticDb, Vec<PNetId>) {
    let mut db = ParasiticDb::new();
    let mut victims = Vec::new();
    for (k, &cc) in couplings.iter().enumerate() {
        let mk = |name: String| {
            let mut n = NetParasitics::new(name);
            let n1 = n.add_node();
            n.add_resistor(0, n1, 150.0);
            n.add_ground_cap(n1, 8e-15);
            n.mark_load(n1);
            n
        };
        let v = db.add_net(mk(format!("v{k}")));
        let a = db.add_net(mk(format!("a{k}")));
        db.add_coupling(NetNodeRef { net: v, node: 1 }, NetNodeRef { net: a, node: 1 }, cc);
        victims.push(v);
    }
    (db, victims)
}

fn cache_file(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("pcv-engine-test-caches");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(tag)
}

#[test]
fn warm_cache_rerun_hits_every_cluster() {
    let path = cache_file("warm-rerun");
    let _ = std::fs::remove_file(&path);
    let (db, victims) = pair_db(&[30e-15, 25e-15, 20e-15, 15e-15]);
    let chip = ResidentChip::fixed_resistance(db, 1500.0, victims);
    let victims = chip.victims();
    let engine = Engine::new(EngineConfig {
        workers: 2,
        cache_path: Some(path.clone()),
        ..Default::default()
    });

    let cold = engine.run(RunRequest::resident(&chip)).unwrap();
    assert_eq!(cold.stats.cache_misses, victims.len());
    assert_eq!(cold.stats.cache_hits, 0);

    let warm = engine.run(RunRequest::resident(&chip)).unwrap();
    assert_eq!(warm.stats.cache_hits, victims.len(), "100% hits on unchanged rerun");
    assert_eq!(warm.stats.cache_misses, 0);
    assert!((warm.stats.hit_rate() - 1.0).abs() < 1e-12);
    // Cached verdicts are bit-identical to recomputed ones.
    assert_eq!(warm.chip, cold.chip);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn perturbing_one_coupling_invalidates_exactly_that_cluster() {
    let path = cache_file("perturb-one");
    let _ = std::fs::remove_file(&path);
    let caps = [30e-15, 25e-15, 20e-15, 15e-15];
    let (db, victims) = pair_db(&caps);
    let chip = ResidentChip::fixed_resistance(db, 1500.0, victims);
    let engine = Engine::new(EngineConfig {
        workers: 2,
        cache_path: Some(path.clone()),
        ..Default::default()
    });
    let cold = engine.run(RunRequest::resident(&chip)).unwrap();

    // Same design, except pair 2's coupling capacitor grew by 20%.
    let mut perturbed = caps;
    perturbed[2] *= 1.2;
    let (db2, victims2) = pair_db(&perturbed);
    let chip2 = ResidentChip::fixed_resistance(db2, 1500.0, victims2);
    let victims2 = chip2.victims();
    let second = engine.run(RunRequest::resident(&chip2)).unwrap();

    assert_eq!(second.stats.cache_hits, victims2.len() - 1);
    assert_eq!(second.stats.cache_misses, 1, "only the touched cluster re-ran");
    // The touched victim's verdict moved; the others are bit-identical.
    let v2_before = cold.chip.verdicts.iter().find(|v| v.name == "v2").unwrap();
    let v2_after = second.chip.verdicts.iter().find(|v| v.name == "v2").unwrap();
    assert!(v2_after.worst_frac > v2_before.worst_frac);
    for name in ["v0", "v1", "v3"] {
        let before = cold.chip.verdicts.iter().find(|v| v.name == name).unwrap();
        let after = second.chip.verdicts.iter().find(|v| v.name == name).unwrap();
        assert_eq!(before, after);
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_cache_entry_under_any_other_fingerprint_is_a_miss_then_overwritten() {
    // What a cache written by a build with another fingerprint scheme (or
    // another config tag) looks like to this one: right names, other values.
    let path = cache_file("foreign-fingerprint");
    let _ = std::fs::remove_file(&path);
    let (db, victims) = pair_db(&[30e-15, 25e-15, 20e-15]);
    let chip = ResidentChip::fixed_resistance(db, 1500.0, victims);
    let (ctx, victims) = (chip.ctx(), chip.victims());
    let engine = Engine::new(EngineConfig {
        workers: 2,
        cache_path: Some(path.clone()),
        ..Default::default()
    });
    let cold = engine.run(RunRequest::resident(&chip)).unwrap();

    // The engine files each record under exactly the public fingerprint.
    let cfg = &engine.config;
    let chash = config_hash(&ctx, &cfg.prune, &cfg.analysis, cfg.warn_frac, cfg.fail_frac, false);
    let fp = cluster_fingerprint(&ctx, &prune_victim(ctx.db, victims[1], &cfg.prune), chash);
    let fs = Fs::real();
    let (cache, _) = ResultCache::load_with(&fs, &path);
    let stored = cache.lookup("v1", fp).expect("filed under cluster_fingerprint").clone();

    for foreign in [fp ^ 1, fp.rotate_left(17), 0, u64::MAX] {
        // Poisoned peaks: adopting the record would show in the report.
        let mut tampered = cache.clone();
        tampered.insert(JournalEntry {
            fingerprint: foreign,
            rise_bits: 0.9f64.to_bits(),
            ..stored.clone()
        });
        tampered.save_with(&fs, &path).unwrap();
        let run = engine.run(RunRequest::resident(&chip)).unwrap();
        assert_eq!((run.stats.cache_hits, run.stats.cache_misses), (victims.len() - 1, 1));
        assert_eq!(run.chip, cold.chip, "fingerprint {foreign:#x} was adopted");
        let (after, _) = ResultCache::load_with(&fs, &path);
        assert_eq!(after.lookup("v1", fp), Some(&stored), "the miss rewrote the entry");
        assert_eq!(after.len(), victims.len());
    }
    let _ = std::fs::remove_file(&path);
}

/// Fisher–Yates shuffle driven by the deterministic test RNG.
fn shuffled<T>(mut items: Vec<T>, rng: &mut Rng) -> Vec<T> {
    for i in (1..items.len()).rev() {
        let j = rng.range_usize(0, i + 1);
        items.swap(i, j);
    }
    items
}

/// One victim chained through four nodes plus two multi-tap aggressors.
/// Every element list (resistors, ground caps, couplings) is inserted in a
/// `seed`-shuffled order, modeling a parasitic extractor that emits the
/// same layout in a different file order. `perturb` scales one coupling
/// capacitor to model an actual layout change.
fn reorderable_db(seed: u64, perturb: Option<f64>) -> (ParasiticDb, PNetId) {
    let mut rng = Rng::new(seed);
    let mut db = ParasiticDb::new();
    let mk = |rng: &mut Rng, name: &str| {
        let mut n = NetParasitics::new(name);
        for _ in 0..3 {
            n.add_node();
        }
        for (a, b, ohms) in shuffled(vec![(0, 1, 150.0), (1, 2, 180.0), (2, 3, 120.0)], rng) {
            n.add_resistor(a, b, ohms);
        }
        for (node, c) in shuffled(vec![(1, 4e-15), (2, 5e-15), (3, 6e-15)], rng) {
            n.add_ground_cap(node, c);
        }
        n.mark_load(3);
        n
    };
    let victim = db.add_net(mk(&mut rng, "victim"));
    let a0 = db.add_net(mk(&mut rng, "agg0"));
    let a1 = db.add_net(mk(&mut rng, "agg1"));
    let mut couplings =
        vec![(1, a0, 1, 20e-15), (2, a0, 2, 15e-15), (2, a1, 1, 18e-15), (3, a1, 3, 12e-15)];
    if let Some(scale) = perturb {
        couplings[2].3 *= scale;
    }
    for (vn, agg, an, cc) in shuffled(couplings, &mut rng) {
        db.add_coupling(
            NetNodeRef { net: victim, node: vn },
            NetNodeRef { net: agg, node: an },
            cc,
        );
    }
    (db, victim)
}

fn fingerprint_of(db: &ParasiticDb, victim: PNetId) -> u64 {
    let ctx = AnalysisContext::fixed_resistance(db, 1500.0);
    let prune = PruneConfig::default();
    let opts = AnalysisOptions::default();
    let cluster = prune_victim(db, victim, &prune);
    assert_eq!(cluster.size(), 3, "fixture must keep both aggressors");
    let chash = config_hash(&ctx, &prune, &opts, 0.1, 0.2, false);
    cluster_fingerprint(&ctx, &cluster, chash)
}

#[test]
fn fingerprint_is_stable_under_element_reordering() {
    let (db, victim) = reorderable_db(1, None);
    let baseline = fingerprint_of(&db, victim);
    for seed in 2..12 {
        let (db, victim) = reorderable_db(seed, None);
        assert_eq!(
            fingerprint_of(&db, victim),
            baseline,
            "insertion order (seed {seed}) leaked into the fingerprint"
        );
    }
}

#[test]
fn fingerprint_changes_when_one_coupling_cap_moves() {
    let (db, victim) = reorderable_db(1, None);
    let baseline = fingerprint_of(&db, victim);
    for seed in 1..8 {
        let (db, victim) = reorderable_db(seed, Some(1.01));
        assert_ne!(
            fingerprint_of(&db, victim),
            baseline,
            "a 1% coupling change (insertion seed {seed}) must invalidate"
        );
    }
}

#[test]
fn cache_survives_netlist_reordering() {
    let path = cache_file("reordered-extraction");
    let _ = std::fs::remove_file(&path);
    let engine = Engine::new(EngineConfig {
        workers: 2,
        cache_path: Some(path.clone()),
        ..Default::default()
    });

    let (db, victim) = reorderable_db(3, None);
    let chip = ResidentChip::fixed_resistance(db, 1500.0, vec![victim]);
    let cold = engine.run(RunRequest::resident(&chip)).unwrap();
    assert_eq!(cold.stats.cache_misses, 1);

    // Same layout, different extractor emission order: still a cache hit.
    let (db2, victim2) = reorderable_db(8, None);
    let chip2 = ResidentChip::fixed_resistance(db2, 1500.0, vec![victim2]);
    let warm = engine.run(RunRequest::resident(&chip2)).unwrap();
    assert_eq!(warm.stats.cache_hits, 1, "reordered netlist must stay warm");
    assert_eq!(warm.chip, cold.chip);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn changing_analysis_options_invalidates_the_whole_cache() {
    let path = cache_file("config-change");
    let _ = std::fs::remove_file(&path);
    let (db, victims) = pair_db(&[30e-15, 25e-15]);
    let chip = ResidentChip::fixed_resistance(db, 1500.0, victims);
    let victims = chip.victims();
    let engine = Engine::new(EngineConfig {
        workers: 2,
        cache_path: Some(path.clone()),
        ..Default::default()
    });
    engine.run(RunRequest::resident(&chip)).unwrap();

    let mut stricter = Engine::new(EngineConfig {
        workers: 2,
        cache_path: Some(path.clone()),
        ..Default::default()
    });
    stricter.config.warn_frac = 0.05;
    let report = stricter.run(RunRequest::resident(&chip)).unwrap();
    assert_eq!(report.stats.cache_hits, 0, "options are part of the fingerprint");
    assert_eq!(report.stats.cache_misses, victims.len());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_traced_turnaround_accounts_for_its_wall_time() {
    let dir = std::env::temp_dir().join(format!("pcv-eco-trace-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    // A 160-net chain under names no other test of this binary uses:
    // a session also hears the spans of runs beside it.
    let chain = |scale: f64| {
        let mut db = ParasiticDb::new();
        for i in 0..160 {
            let mut n = NetParasitics::new(format!("traced{i}"));
            let n1 = n.add_node();
            n.add_resistor(0, n1, 150.0);
            n.add_ground_cap(n1, if i == 80 { 8e-15 * scale } else { 8e-15 });
            db.add_net(n);
        }
        for i in 1..160 {
            let end = |k| NetNodeRef { net: PNetId(k), node: 1 };
            db.add_coupling(end(i - 1), end(i), 11e-15);
        }
        ResidentChip::fixed_resistance(db, 1000.0, (0..160).map(PNetId).collect())
    };
    let (old, new) = (chain(1.0), chain(1.02));
    let mut config =
        EngineConfig { workers: 1, cache_path: Some(dir.join("c.cache")), ..Default::default() };
    config.analysis.mor.max_step_fraction = 1.0 / 50.0;
    Engine::new(config.clone()).verify_resident(&old, None).unwrap();
    config.trace = true;

    // Wall-clock: a preempted gap can miss the mark, three in a row cannot.
    let mut shares = Vec::new();
    for _attempt in 0..3 {
        let outcome = Engine::new(config.clone()).eco_verify_resident(&old, &new, false, None);
        let trace = outcome.unwrap().report.trace.expect("traced run");
        let named = |name: &'static str| trace.spans.iter().filter(move |s| s.name == name);
        let diff = named("eco_diff").next().expect("the diff is inside the session");
        let close = named("store_close").find(|s| s.tid == diff.tid).expect("closed");
        let extent = close.start_ns + close.dur_ns - diff.start_ns;
        // The spans of the calling thread tile the turnaround.
        let accounted: u64 = ["eco_diff", "eco_plan", "store_open", "jobs", "merge", "store_close"]
            .iter()
            .flat_map(|name| named(name).filter(|s| s.tid == diff.tid))
            .map(|s| s.dur_ns)
            .sum();
        let jobs = named("cluster_job")
            .filter(|s| s.label.as_deref().is_some_and(|l| l.starts_with("traced")));
        assert_eq!(jobs.count(), 160);
        assert!(accounted <= extent, "spans overlap: {accounted} of {extent} ns");
        shares.push(accounted as f64 / extent as f64);
    }
    assert!(shares.iter().any(|&s| s >= 0.9), "spans cover {shares:?} of the turnaround");
    let _ = std::fs::remove_dir_all(&dir);
}
