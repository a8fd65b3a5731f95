//! Disk-fault chaos drills: every persisted artifact (result cache,
//! checkpoint journal, run ledger) must survive torn writes, ENOSPC,
//! fsync/rename failures and silent bit flips by *detecting* the damage
//! and recomputing — never by reading corruption into a verdict.

use pcv_designs::structures::bundle;
use pcv_designs::Technology;
use pcv_engine::{
    DiskFaultPlan, Engine, EngineConfig, Fs, FsFaultKind, Journal, RunRequest, StopAfter, StopFlag,
};
use pcv_netlist::{PNetId, ParasiticDb};
use pcv_obs::{ledger, EventSink};
use pcv_xtalk::AnalysisContext;
use std::path::PathBuf;
use std::sync::Arc;

fn fixture() -> (ParasiticDb, Vec<PNetId>) {
    let db = bundle(10, 1000e-6, &Technology::c025());
    let victims = (0..db.num_nets()).map(PNetId).collect();
    (db, victims)
}

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("pcv-diskchaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Engine config pointed at `cache`, journal/lock off unless a drill
/// needs them (isolates the artifact under test from sibling files that
/// share the cache path as a prefix).
fn bare_config(cache: PathBuf, fs: Fs) -> EngineConfig {
    let mut cfg = EngineConfig { workers: 2, cache_path: Some(cache), ..Default::default() };
    cfg.durable.journal = false;
    cfg.durable.lock = false;
    cfg.durable.fs = fs;
    cfg
}

fn baseline_signoff(db: &ParasiticDb, victims: &[PNetId]) -> String {
    let ctx = AnalysisContext::fixed_resistance(db, 1000.0);
    let cfg = EngineConfig { workers: 2, ..Default::default() };
    Engine::new(cfg).verify(&ctx, victims).unwrap().signoff_json()
}

#[test]
fn torn_cache_save_is_detected_and_recomputed() {
    let (db, victims) = fixture();
    let ctx = AnalysisContext::fixed_resistance(&db, 1000.0);
    let baseline = baseline_signoff(&db, &victims);
    let dir = temp_dir("torn-cache");
    let cache = dir.join("results.cache");

    // The save of the cold run is torn in half — the power-loss shape a
    // non-atomic writer would leave behind.
    let mut plan = DiskFaultPlan::new();
    plan.fail_times("results.cache", FsFaultKind::ShortWrite, 1);
    let first = Engine::new(bare_config(cache.clone(), Fs::with_faults(plan)))
        .verify(&ctx, &victims)
        .unwrap();
    assert_eq!(first.signoff_json(), baseline, "the fault only hits the disk, not the verdicts");

    // The warm run loads the torn file: intact leading entries are kept,
    // the torn tail is dropped, and the missing verdicts are recomputed.
    let warm = Engine::new(bare_config(cache, Fs::real())).verify(&ctx, &victims).unwrap();
    assert_eq!(warm.signoff_json(), baseline, "a torn cache must never skew a verdict");
    assert!(warm.stats.cache_misses > 0, "the dropped tail must be recomputed");
    assert_eq!(warm.stats.cache_hits + warm.stats.cache_misses, victims.len());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bit_flip_on_cache_read_never_reaches_a_verdict() {
    let (db, victims) = fixture();
    let ctx = AnalysisContext::fixed_resistance(&db, 1000.0);
    let baseline = baseline_signoff(&db, &victims);
    let dir = temp_dir("flip-cache");
    let cache = dir.join("results.cache");

    Engine::new(bare_config(cache.clone(), Fs::real())).verify(&ctx, &victims).unwrap();

    // Silent media corruption: one bit flips inside the cache file. The
    // per-record CRC catches it; the damaged record is recomputed.
    let mut plan = DiskFaultPlan::new();
    plan.fail("results.cache", FsFaultKind::BitFlip);
    let warm =
        Engine::new(bare_config(cache, Fs::with_faults(plan))).verify(&ctx, &victims).unwrap();
    assert_eq!(warm.signoff_json(), baseline, "a flipped bit must never skew a verdict");
    assert!(warm.stats.cache_misses > 0, "the corrupt record must be recomputed, not trusted");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failed_cache_replacement_preserves_the_previous_cache() {
    let (db, victims) = fixture();
    let ctx = AnalysisContext::fixed_resistance(&db, 1000.0);
    let baseline = baseline_signoff(&db, &victims);
    let dir = temp_dir("rename-cache");
    let cache = dir.join("results.cache");

    Engine::new(bare_config(cache.clone(), Fs::real())).verify(&ctx, &victims).unwrap();
    let saved = std::fs::read(&cache).unwrap();

    for kind in [FsFaultKind::RenameFail, FsFaultKind::FsyncFail, FsFaultKind::NoSpace] {
        let mut plan = DiskFaultPlan::new();
        plan.fail("results.cache", kind);
        let report = Engine::new(bare_config(cache.clone(), Fs::with_faults(plan)))
            .verify(&ctx, &victims)
            .unwrap();
        assert_eq!(report.signoff_json(), baseline, "{}: verdicts unaffected", kind.name());
        assert_eq!(
            std::fs::read(&cache).unwrap(),
            saved,
            "{}: a failed replacement must leave the old cache bytes intact",
            kind.name()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn enospc_everywhere_still_produces_correct_verdicts() {
    // The disk fills up mid-run: nothing persists, but the in-memory
    // sign-off is still complete and correct.
    let (db, victims) = fixture();
    let ctx = AnalysisContext::fixed_resistance(&db, 1000.0);
    let baseline = baseline_signoff(&db, &victims);
    let dir = temp_dir("enospc");
    let cache = dir.join("results.cache");

    let mut plan = DiskFaultPlan::new();
    plan.fail("results", FsFaultKind::NoSpace);
    let mut cfg =
        EngineConfig { workers: 2, cache_path: Some(cache.clone()), ..Default::default() };
    cfg.durable.fs = Fs::with_faults(plan);
    let report = Engine::new(cfg).verify(&ctx, &victims).unwrap();
    assert_eq!(report.signoff_json(), baseline);
    assert!(!cache.exists(), "the full disk accepted no cache file");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bit_flip_on_journal_read_drops_only_the_damaged_checkpoint() {
    let (db, victims) = fixture();
    let ctx = AnalysisContext::fixed_resistance(&db, 1000.0);
    let baseline = baseline_signoff(&db, &victims);
    let dir = temp_dir("flip-journal");
    let cache = dir.join("results.cache");

    // Interrupt a run halfway so a journal with real checkpoints exists.
    let flag = StopFlag::new();
    let mut cfg =
        EngineConfig { workers: 2, cache_path: Some(cache.clone()), ..Default::default() };
    cfg.sink =
        Some(Arc::new(StopAfter::new(flag.clone(), victims.len() / 2)) as Arc<dyn EventSink>);
    cfg.durable.stop = Some(flag);
    let partial = Engine::new(cfg).verify(&ctx, &victims).unwrap();
    assert!(partial.interrupted);
    let completed = victims.len() - partial.stats.skipped;
    // The interrupted run saved its partial cache; remove it so every
    // surviving verdict must come from the journal, not the cache.
    let _ = std::fs::remove_file(&cache);

    // Resume through a disk that flips a bit when the journal is read:
    // the CRC frame rejects the damaged record(s), which are recomputed.
    let mut plan = DiskFaultPlan::new();
    plan.fail(".journal", FsFaultKind::BitFlip);
    let mut cfg =
        EngineConfig { workers: 2, cache_path: Some(cache.clone()), ..Default::default() };
    cfg.durable.fs = Fs::with_faults(plan);
    let resumed = Engine::new(cfg)
        .run(RunRequest { resume: true, ..RunRequest::new(&ctx, &victims) })
        .unwrap();
    assert_eq!(resumed.signoff_json(), baseline, "a corrupt journal must never skew the signoff");
    assert!(resumed.stats.journal_hits < completed, "at least the flipped record must be rejected");
    assert!(!Journal::path_for(&cache).exists(), "the completed resume retires the journal");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn enospc_on_the_journal_does_not_change_the_run() {
    // Checkpointing is best-effort: a journal that cannot be written costs
    // resumability, never correctness.
    let (db, victims) = fixture();
    let ctx = AnalysisContext::fixed_resistance(&db, 1000.0);
    let baseline = baseline_signoff(&db, &victims);
    let dir = temp_dir("enospc-journal");

    let mut plan = DiskFaultPlan::new();
    plan.fail(".journal", FsFaultKind::NoSpace);
    let mut cfg = EngineConfig {
        workers: 2,
        cache_path: Some(dir.join("results.cache")),
        ..Default::default()
    };
    cfg.durable.fs = Fs::with_faults(plan);
    let report = Engine::new(cfg).verify(&ctx, &victims).unwrap();
    assert_eq!(report.signoff_json(), baseline);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_ledger_append_is_counted_not_misparsed() {
    let (db, victims) = fixture();
    let ctx = AnalysisContext::fixed_resistance(&db, 1000.0);
    let dir = temp_dir("torn-ledger");
    let cache = dir.join("results.cache");
    let ledger_path = {
        let mut os = cache.as_os_str().to_owned();
        os.push(".ledger.jsonl");
        PathBuf::from(os)
    };

    // First run's ledger append is torn mid-record; the second run's
    // append lands right after the torn bytes on the same line (there was
    // no trailing newline), so that line is garbage. The third run starts
    // a clean line.
    let mut plan = DiskFaultPlan::new();
    plan.fail_times(".ledger", FsFaultKind::ShortWrite, 1);
    let fs = Fs::with_faults(plan);
    for _ in 0..3 {
        let mut cfg =
            EngineConfig { workers: 2, cache_path: Some(cache.clone()), ..Default::default() };
        cfg.durable.fs = fs.clone();
        Engine::new(cfg).verify(&ctx, &victims).unwrap();
    }

    let (records, unparsed) = ledger::scan(&ledger_path);
    assert_eq!(unparsed, 1, "the torn line is counted, not silently accepted");
    assert_eq!(records.len(), 1, "only the clean third record parses");
    assert_eq!(records[0].outcome, "complete");
    let _ = std::fs::remove_dir_all(&dir);
}
