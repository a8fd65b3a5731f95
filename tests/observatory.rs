//! Observatory suite: the engine's event stream, run ledger and memory
//! telemetry must observe without perturbing.
//!
//! Two contracts are under test. First, *determinism of observation*:
//! cluster-scoped event counts are a function of the input, cache state
//! and fault plan — never of worker count or scheduling order. Second,
//! *non-interference*: attaching sinks, writing the ledger and tracking
//! allocations leaves the signoff document byte-identical to an
//! unobserved run.

mod fixtures;

use fixtures::bundle_fixture;
use pcv_engine::{Engine, EngineConfig, FaultKind, Plan, ResidentChip, RunRequest};
use pcv_obs::{ledger, CountingSink, EventSink};
use std::sync::Arc;

fn observed_run(workers: usize, plan: Option<Plan<FaultKind>>) -> (Arc<CountingSink>, String) {
    let (db, victims) = bundle_fixture();
    let chip = ResidentChip::fixed_resistance(db, 1000.0, victims);
    let sink = Arc::new(CountingSink::new());
    let mut engine = Engine::new(EngineConfig {
        workers,
        sink: Some(sink.clone() as Arc<dyn EventSink>),
        ..Default::default()
    });
    if let Some(plan) = plan {
        engine.set_fault_plan(plan);
    }
    let report = engine.run(RunRequest::resident(&chip)).unwrap();
    (sink, report.signoff_json())
}

fn nan_sprinkle() -> Plan<FaultKind> {
    Plan::new().seeded(11, 0.4, 1, FaultKind::NaN)
}

#[test]
fn cluster_event_counts_are_identical_across_worker_counts() {
    let (baseline_sink, baseline_signoff) = observed_run(1, None);
    let baseline = baseline_sink.cluster_counts();

    // Sanity on the healthy-run shape: one queued/started/missed/finished
    // quartet per victim, nothing cached, nothing retried.
    let victims = baseline["cluster_queued"];
    assert!(victims >= 16);
    assert_eq!(baseline["cluster_started"], victims);
    assert_eq!(baseline["cluster_finished"], victims);
    assert_eq!(baseline["cache_miss"], victims);
    assert!(!baseline.contains_key("cache_hit"));
    assert!(!baseline.contains_key("cluster_retried"));

    for workers in [2usize, 4, 8] {
        let (sink, signoff) = observed_run(workers, None);
        assert_eq!(sink.cluster_counts(), baseline, "{workers}-worker event counts diverged");
        assert_eq!(signoff, baseline_signoff, "{workers}-worker signoff diverged");
        // Environment-scoped kinds scale with the pool instead.
        assert_eq!(sink.count("run_started"), 1);
        assert_eq!(sink.count("run_finished"), 1);
        assert_eq!(sink.count("worker_idle"), workers as u64);
    }
}

#[test]
fn retry_and_degradation_events_are_deterministic_under_faults() {
    let (baseline_sink, baseline_signoff) = observed_run(1, Some(nan_sprinkle()));
    let baseline = baseline_sink.cluster_counts();
    let degraded = baseline.get("cluster_degraded").copied().unwrap_or(0);
    assert!(degraded >= 2, "the sprinkle must fault several clusters, got {degraded}");
    assert!(baseline["cluster_retried"] >= degraded, "every degradation implies a failed attempt");

    for workers in [2usize, 4, 8] {
        let (sink, signoff) = observed_run(workers, Some(nan_sprinkle()));
        assert_eq!(sink.cluster_counts(), baseline, "{workers}-worker fault counts diverged");
        assert_eq!(signoff, baseline_signoff, "{workers}-worker fault signoff diverged");
    }
}

#[test]
fn signoff_bytes_match_an_unobserved_run() {
    let (db, victims) = bundle_fixture();
    let chip = ResidentChip::fixed_resistance(db, 1000.0, victims);
    let unobserved = Engine::new(EngineConfig { workers: 4, ..Default::default() })
        .run(RunRequest::resident(&chip))
        .unwrap()
        .signoff_json();
    let (_, observed) = observed_run(4, None);
    assert_eq!(observed, unobserved, "observability must not perturb the signoff document");
}

#[test]
fn ledger_records_a_real_run_trajectory() {
    let (db, victims) = bundle_fixture();
    let chip = ResidentChip::fixed_resistance(db, 1000.0, victims.clone());
    let dir = std::env::temp_dir().join(format!("pcv-observatory-ledger-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cache = dir.join("signoff.cache");
    let ledger_path = dir.join("signoff.cache.ledger.jsonl");
    let _ = std::fs::remove_file(&cache);
    let _ = std::fs::remove_file(&ledger_path);

    let engine = |sink| {
        Engine::new(EngineConfig {
            workers: 2,
            cache_path: Some(cache.clone()),
            sink,
            ..Default::default()
        })
    };
    // Run twice: a cold run then a fully cached one.
    engine(None).run(RunRequest::resident(&chip)).unwrap();
    let sink = Arc::new(CountingSink::new());
    engine(Some(sink.clone() as Arc<dyn EventSink>)).run(RunRequest::resident(&chip)).unwrap();
    assert_eq!(sink.count("cache_hit"), victims.len() as u64, "second run must be all hits");

    let records = ledger::scan(&ledger_path).0;
    assert_eq!(records.len(), 2, "one ledger line per run");
    let (cold, warm) = (&records[0], &records[1]);
    // Same chip, same config: the fingerprints tie the trajectory together.
    assert_eq!(cold.config_fingerprint, warm.config_fingerprint);
    assert_eq!(cold.chip_fingerprint, warm.chip_fingerprint);
    assert_ne!(cold.chip_fingerprint, 0);
    for rec in [cold, warm] {
        assert_eq!(rec.victims, victims.len());
        assert_eq!(rec.workers, 2);
        assert!(rec.host_parallelism >= 1);
        assert!(rec.wall_ms > 0.0);
        assert_eq!(rec.degraded, 0);
        assert_eq!(rec.errors, 0);
        // Every line survives its own serialization.
        assert_eq!(pcv_obs::RunRecord::parse(&rec.to_json()), Some(rec.clone()));
    }
    assert_eq!(cold.cache_hits, 0);
    assert_eq!(cold.cache_misses, victims.len());
    assert_eq!(warm.cache_hits, victims.len());
    assert_eq!(warm.cache_misses, 0);
    // The warm run skips pruning and analysis entirely.
    assert!(warm.analysis_ms <= cold.analysis_ms);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn memory_telemetry_flows_into_stats_and_profile() {
    // This test binary does not install the tracking allocator, so the
    // engine must degrade to zeros rather than report garbage.
    let (db, victims) = bundle_fixture();
    let chip = ResidentChip::fixed_resistance(db, 1000.0, victims);
    let report = Engine::new(EngineConfig { workers: 1, ..Default::default() })
        .run(RunRequest::resident(&chip))
        .unwrap();
    let profile = report.profile_json();
    assert!(profile.contains("\"memory\":{\"peak_alloc_bytes\":"), "profile carries memory block");
    if pcv_obs::mem::active() {
        assert!(report.stats.peak_alloc_bytes > 0);
    } else {
        assert_eq!(report.stats.peak_alloc_bytes, 0);
        assert_eq!(report.stats.allocs, 0);
    }
}

#[test]
fn ledger_scan_is_safe_against_concurrent_appends() {
    // A scanner may race an in-flight append (a live daemon's ledger, a
    // monitoring tail). The contract: a torn in-flight line is counted as
    // skipped or simply not there yet — it must NEVER misparse into a
    // record, and every record the scan does return is a fully written
    // one. The writer tears every line on purpose by appending it in two
    // raw chunks with a scheduling point in between.
    use std::io::Write;

    let dir =
        std::env::temp_dir().join(format!("pcv-observatory-scan-race-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("runs.ledger.jsonl");

    let sample = pcv_obs::RunRecord::parse(
        pcv_obs::RunRecord {
            config_fingerprint: 0x0123_4567_89ab_cdef,
            chip_fingerprint: 0xfeed_f00d_dead_beef,
            victims: 7,
            workers: 3,
            host_parallelism: 8,
            cache_hits: 2,
            cache_misses: 5,
            journal_hits: 0,
            skipped: 0,
            outcome: "complete".to_owned(),
            degraded: 0,
            errors: 0,
            steals: 11,
            wall_ms: 42.5,
            prune_ms: 1.25,
            analysis_ms: 30.0,
            receiver_ms: 0.0,
            recovery_ms: 0.0,
            peak_alloc_bytes: 0,
            allocs: 0,
        }
        .to_json()
        .as_str(),
    )
    .expect("sample must round-trip");

    const APPENDS: usize = 200;
    let writer = {
        let path = path.clone();
        let line = format!("{}\n", sample.to_json());
        std::thread::spawn(move || {
            let mut file =
                std::fs::OpenOptions::new().create(true).append(true).open(&path).unwrap();
            let split = line.len() / 2;
            for _ in 0..APPENDS {
                // Two separate write(2) calls: a concurrent reader can
                // observe the half-written line.
                file.write_all(&line.as_bytes()[..split]).unwrap();
                file.flush().unwrap();
                std::thread::yield_now();
                file.write_all(&line.as_bytes()[split..]).unwrap();
                file.flush().unwrap();
            }
        })
    };

    let mut max_seen = 0usize;
    let mut observed_torn = 0usize;
    while max_seen < APPENDS {
        let (records, skipped) = ledger::scan(&path);
        // At most the single in-flight line can be torn at any instant.
        assert!(skipped <= 1, "only the in-flight append may be unparseable, saw {skipped}");
        observed_torn += skipped;
        for rec in &records {
            assert_eq!(rec, &sample, "a concurrent scan returned a corrupted record");
        }
        assert!(
            records.len() >= max_seen,
            "scan went backwards: {} after {max_seen}",
            records.len()
        );
        max_seen = records.len();
    }
    writer.join().unwrap();

    let (records, skipped) = ledger::scan(&path);
    assert_eq!(records.len(), APPENDS, "every fully appended record must be scannable");
    assert_eq!(skipped, 0, "a quiesced ledger has no torn lines");
    // The race was actually exercised: with forced mid-line flushes the
    // scanner should have caught at least one torn snapshot. (Not a hard
    // guarantee on any scheduler, so only note it via the counter's use.)
    let _ = observed_torn;

    let _ = std::fs::remove_dir_all(&dir);
}
