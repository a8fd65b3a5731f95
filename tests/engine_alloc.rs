//! Allocation regression test of the engine's splice path: what a run
//! spends on a victim whose record it adopts from the cache.
//!
//! The one test of this binary, so the process-wide allocation counter
//! moves only with the runs below (engine jobs run on worker threads, which
//! a per-thread counter would not see).

use pcv_engine::{Engine, EngineConfig, ResidentChip};
use pcv_netlist::{NetNodeRef, NetParasitics, PNetId, ParasiticDb};
use pcv_obs::{mem, CountingSink, RunRecord, TrackingAlloc};
use std::sync::Arc;

#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc::system();

/// `n` two-node wires in a row, each coupled to the next; every net a victim.
fn chain(n: usize) -> ResidentChip {
    let mut db = ParasiticDb::new();
    for i in 0..n {
        let mut net = NetParasitics::new(format!("wire_number_{i:04}_of_the_chain"));
        let far = net.add_node();
        net.add_resistor(0, far, 150.0 + i as f64);
        net.add_ground_cap(far, 8e-15);
        net.mark_load(far);
        db.add_net(net);
    }
    for i in 1..n {
        let end = |k| NetNodeRef { net: PNetId(k), node: 1 };
        db.add_coupling(end(i - 1), end(i), 12e-15);
    }
    ResidentChip::fixed_resistance(db, 1000.0, (0..n).map(PNetId).collect())
}

#[test]
fn a_sinkless_splice_builds_no_events() {
    let dir = std::env::temp_dir().join(format!("pcv-engine-alloc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    assert!(mem::active(), "the tracking allocator is installed in this binary");

    // Each run's ledger line carries its timings; were their digits to set
    // the allocation count, the counts below would differ run to run.
    let cost = |v: f64| {
        let (wall_ms, prune_ms, analysis_ms, receiver_ms, recovery_ms) = (v, v, v, v, v);
        let record = RunRecord {
            wall_ms,
            prune_ms,
            analysis_ms,
            receiver_ms,
            recovery_ms,
            ..Default::default()
        };
        let before = mem::thread_totals().1;
        std::hint::black_box(record.to_json());
        mem::thread_totals().1 - before
    };
    assert_eq!([cost(1.5), cost(12.345678901234567), cost(0.0012345678901234567)], [1; 3]);

    // Allocations of one all-hits run over a warm cache, with and without
    // an event sink.
    let splice = |n: usize, sink: Option<Arc<CountingSink>>| {
        let chip = chain(n);
        let mut cfg = EngineConfig {
            workers: 1,
            cache_path: Some(dir.join(format!("chain{n}.cache"))),
            ..Default::default()
        };
        cfg.analysis.mor.max_step_fraction = 1.0 / 50.0;
        if !cfg.cache_path.as_ref().unwrap().exists() {
            let cold = Engine::new(cfg.clone()).verify_resident(&chip, None).unwrap();
            assert_eq!(cold.stats.cache_misses, n);
        }
        cfg.sink = sink.map(|s| s as Arc<dyn pcv_obs::EventSink>);
        let before = mem::snapshot().unwrap().allocs;
        let warm = Engine::new(cfg).verify_resident(&chip, None).unwrap();
        let allocs = mem::snapshot().unwrap().allocs - before;
        assert_eq!(warm.stats.cache_hits, n, "every victim spliced");
        allocs
    };
    const N: usize = 48;
    let (small, large) = (splice(N, None), splice(2 * N, None));
    // What N more spliced victims cost: pruning, the verdict, the report
    // rows (6.3 allocations a victim when this was written) — and no
    // event. Each of the four events a spliced victim has (queued, started,
    // cache hit, finished) would own one more `String`.
    let per_victim = (large - small) as f64 / N as f64;
    assert!(per_victim < 8.0, "{per_victim} allocations a spliced victim ({small}, {large})");

    // A sink that is installed still receives every event.
    let sink = Arc::new(CountingSink::new());
    let observed = splice(N, Some(Arc::clone(&sink)));
    assert_eq!(sink.cluster_counts().values().sum::<u64>(), 4 * N as u64, "{sink:?}");
    assert!(observed >= small + 4 * N as u64, "{observed} observed, {small} unobserved");
    let _ = std::fs::remove_dir_all(&dir);
}
