//! Engine benches.
//!
//! Part 1 — analysis engines: the SyMPVL reduced transient versus the full
//! SPICE MNA transient on the same pruned cluster with identical 1 kOhm
//! Thevenin drivers — the wall-clock basis of the paper's 15-25x claims.
//!
//! Part 2 — chip engine: the `pcv-engine` worker pool at several
//! worker counts, plus a warm-cache re-run (every cluster unchanged →
//! every job a cache hit).
//!
//! Run with: `cargo bench -p pcv-bench --bench engines`

use pcv_bench::timing::bench_case;
use pcv_designs::random::{random_cluster, RandomClusterConfig};
use pcv_designs::structures::bundle;
use pcv_designs::Technology;
use pcv_engine::{Engine, EngineConfig, ResidentChip, RunRequest};
use pcv_xtalk::prune::{prune_victim, PruneConfig};
use pcv_xtalk::{analyze_glitch, AnalysisContext, AnalysisOptions, EngineKind};

fn bench_analysis_engines(tech: &Technology) {
    for n_agg in [2usize, 6, 12] {
        let cl = random_cluster(
            &RandomClusterConfig { n_aggressors: n_agg, seed: 99, ..Default::default() },
            tech,
        );
        let cluster =
            prune_victim(&cl.db, cl.victim, &PruneConfig { cap_ratio: 0.0, max_aggressors: 12 });
        let ctx = AnalysisContext::fixed_resistance(&cl.db, 1000.0);
        bench_case("glitch_analysis", &format!("mpvl/{n_agg}"), 10, || {
            analyze_glitch(&ctx, &cluster, true, &AnalysisOptions::default()).unwrap()
        });
        let spice_opts =
            AnalysisOptions { engine: EngineKind::Spice, ..AnalysisOptions::default() };
        bench_case("glitch_analysis", &format!("spice/{n_agg}"), 10, || {
            analyze_glitch(&ctx, &cluster, true, &spice_opts).unwrap()
        });
    }
}

fn bench_chip_engine(tech: &Technology) {
    // A bus bundle gives every wire real aggressors, so each victim job
    // carries an actual reduction + transient.
    let db = bundle(16, 2000e-6, tech);
    let victims: Vec<_> = (0..db.num_nets()).map(pcv_netlist::PNetId).collect();
    let chip = ResidentChip::fixed_resistance(db, 1000.0, victims);
    let victims = chip.victims();

    for workers in [1usize, 2, 4] {
        let engine = Engine::new(EngineConfig { workers, ..Default::default() });
        bench_case("chip_engine", &format!("workers={workers}"), 5, || {
            engine.run(RunRequest::resident(&chip)).unwrap()
        });
    }

    // Traced run: same audit with the pcv-trace collector installed, to
    // quantify enabled-mode overhead next to the untraced workers=4 case.
    // The trace artifacts land in target/ for chrome://tracing.
    let traced = Engine::new(EngineConfig { workers: 4, trace: true, ..Default::default() });
    bench_case("chip_engine", "workers=4+trace", 5, || {
        traced.run(RunRequest::resident(&chip)).unwrap()
    });
    let report = traced.run(RunRequest::resident(&chip)).unwrap();
    let stem = std::env::temp_dir().join("pcv-engines-bench");
    if let (Some(trace), Ok(paths)) =
        (&report.trace, report.write_profile_with(&pcv_engine::Fs::real(), &stem))
    {
        println!(
            "# traced run: {} spans, {} counters -> {}",
            trace.spans.len(),
            trace.counters.len(),
            paths.iter().map(|p| p.display().to_string()).collect::<Vec<_>>().join(", ")
        );
    }

    // Warm cache: prime the store once, then measure re-runs where every
    // cluster is unchanged and every job is answered from the cache.
    let cache_path = std::env::temp_dir().join("pcv-engine-bench-cache");
    let _ = std::fs::remove_file(&cache_path);
    let engine = Engine::new(EngineConfig {
        workers: 4,
        cache_path: Some(cache_path.clone()),
        ..Default::default()
    });
    let primed = engine.run(RunRequest::resident(&chip)).unwrap();
    assert_eq!(primed.stats.cache_misses, victims.len());
    bench_case("chip_engine", "workers=4+warm-cache", 5, || {
        let report = engine.run(RunRequest::resident(&chip)).unwrap();
        assert_eq!(report.stats.cache_hits, victims.len());
        report
    });
    let _ = std::fs::remove_file(&cache_path);
}

fn main() {
    let tech = Technology::c025();
    bench_analysis_engines(&tech);
    bench_chip_engine(&tech);
}
