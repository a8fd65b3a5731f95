//! Disk-fault chaos drills: every persisted artifact (result cache,
//! checkpoint journal, run ledger) must survive torn writes, ENOSPC,
//! fsync/rename failures and silent bit flips by *detecting* the damage
//! and recomputing — never by reading corruption into a verdict.

use pcv_designs::structures::bundle;
use pcv_designs::Technology;
use pcv_engine::fault::ALWAYS;
use pcv_engine::{
    Engine, EngineConfig, Fs, FsFaultKind, Journal, Plan, ResidentChip, RunRequest, StopAfter,
    StopFlag,
};
use pcv_netlist::PNetId;
use pcv_obs::{ledger, EventSink};
use std::path::PathBuf;
use std::sync::Arc;

fn fixture() -> ResidentChip {
    let db = bundle(10, 1000e-6, &Technology::c025());
    let victims = (0..db.num_nets()).map(PNetId).collect();
    ResidentChip::fixed_resistance(db, 1000.0, victims)
}

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("pcv-diskchaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Engine config pointed at `cache`, persisting through `fs`. A fault rule
/// names one file by its full path, so the cache's siblings (journal, lock,
/// ledger) stay healthy unless a drill names them too.
fn config_on(cache: PathBuf, fs: Fs) -> EngineConfig {
    let mut cfg = EngineConfig { workers: 2, cache_path: Some(cache), ..Default::default() };
    cfg.fs = fs;
    cfg
}

fn ledger_path(cache: &std::path::Path) -> PathBuf {
    let mut os = cache.as_os_str().to_owned();
    os.push(".ledger.jsonl");
    PathBuf::from(os)
}

fn baseline_signoff(chip: &ResidentChip) -> String {
    let cfg = EngineConfig { workers: 2, ..Default::default() };
    Engine::new(cfg).run(RunRequest::resident(chip)).unwrap().signoff_json()
}

#[test]
fn torn_cache_save_is_detected_and_recomputed() {
    let chip = fixture();
    let victims = chip.victims();
    let baseline = baseline_signoff(&chip);
    let dir = temp_dir("torn-cache");
    let cache = dir.join("results.cache");

    // The save of the cold run is torn in half — the power-loss shape a
    // non-atomic writer would leave behind.
    let plan = Plan::new().at(cache.display(), 1, FsFaultKind::ShortWrite);
    let first = Engine::new(config_on(cache.clone(), Fs::with_faults(plan)))
        .run(RunRequest::resident(&chip))
        .unwrap();
    assert_eq!(first.signoff_json(), baseline, "the fault only hits the disk, not the verdicts");

    // The warm run loads the torn file: intact leading entries are kept,
    // the torn tail is dropped, and the missing verdicts are recomputed.
    let warm = Engine::new(config_on(cache, Fs::real())).run(RunRequest::resident(&chip)).unwrap();
    assert_eq!(warm.signoff_json(), baseline, "a torn cache must never skew a verdict");
    assert!(warm.stats.cache_misses > 0, "the dropped tail must be recomputed");
    assert_eq!(warm.stats.cache_hits + warm.stats.cache_misses, victims.len());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bit_flip_on_cache_read_never_reaches_a_verdict() {
    let chip = fixture();
    let baseline = baseline_signoff(&chip);
    let dir = temp_dir("flip-cache");
    let cache = dir.join("results.cache");

    Engine::new(config_on(cache.clone(), Fs::real())).run(RunRequest::resident(&chip)).unwrap();

    // Silent media corruption: one bit flips inside the cache file. The
    // per-record CRC catches it; the damaged record is recomputed.
    let plan = Plan::new().at(cache.display(), ALWAYS, FsFaultKind::BitFlip);
    let warm = Engine::new(config_on(cache, Fs::with_faults(plan)))
        .run(RunRequest::resident(&chip))
        .unwrap();
    assert_eq!(warm.signoff_json(), baseline, "a flipped bit must never skew a verdict");
    assert!(warm.stats.cache_misses > 0, "the corrupt record must be recomputed, not trusted");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failed_cache_replacement_preserves_the_previous_cache() {
    let chip = fixture();
    let baseline = baseline_signoff(&chip);
    let dir = temp_dir("rename-cache");
    let cache = dir.join("results.cache");

    Engine::new(config_on(cache.clone(), Fs::real())).run(RunRequest::resident(&chip)).unwrap();
    let saved = std::fs::read(&cache).unwrap();

    for kind in [FsFaultKind::RenameFail, FsFaultKind::FsyncFail, FsFaultKind::NoSpace] {
        let plan = Plan::new().at(cache.display(), ALWAYS, kind);
        let report = Engine::new(config_on(cache.clone(), Fs::with_faults(plan)))
            .run(RunRequest::resident(&chip))
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
    let chip = fixture();
    let baseline = baseline_signoff(&chip);
    let dir = temp_dir("enospc");
    let cache = dir.join("results.cache");

    // Probability 1 picks every path: cache, journal and ledger alike.
    let plan = Plan::new().seeded(0, 1.0, ALWAYS, FsFaultKind::NoSpace);
    let report = Engine::new(config_on(cache.clone(), Fs::with_faults(plan)))
        .run(RunRequest::resident(&chip))
        .unwrap();
    assert_eq!(report.signoff_json(), baseline);
    assert!(!cache.exists(), "the full disk accepted no cache file");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bit_flip_on_journal_read_drops_only_the_damaged_checkpoint() {
    let chip = fixture();
    let victims = chip.victims();
    let baseline = baseline_signoff(&chip);
    let dir = temp_dir("flip-journal");
    let cache = dir.join("results.cache");

    // Interrupt a run halfway so a journal with real checkpoints exists.
    let flag = StopFlag::new();
    let mut cfg =
        EngineConfig { workers: 2, cache_path: Some(cache.clone()), ..Default::default() };
    cfg.sink =
        Some(Arc::new(StopAfter::new(flag.clone(), victims.len() / 2)) as Arc<dyn EventSink>);
    cfg.stop = Some(flag);
    let partial = Engine::new(cfg).run(RunRequest::resident(&chip)).unwrap();
    assert!(partial.interrupted);
    let completed = victims.len() - partial.stats.skipped;
    // The interrupted run saved its partial cache; remove it so every
    // surviving verdict must come from the journal, not the cache.
    let _ = std::fs::remove_file(&cache);

    // Resume through a disk that flips a bit when the journal is read:
    // the CRC frame rejects the damaged record(s), which are recomputed.
    let plan = Plan::new().at(Journal::path_for(&cache).display(), ALWAYS, FsFaultKind::BitFlip);
    let resumed = Engine::new(config_on(cache.clone(), Fs::with_faults(plan)))
        .run(RunRequest { resume: true, ..RunRequest::resident(&chip) })
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
    let chip = fixture();
    let baseline = baseline_signoff(&chip);
    let dir = temp_dir("enospc-journal");
    let cache = dir.join("results.cache");

    let plan = Plan::new().at(Journal::path_for(&cache).display(), ALWAYS, FsFaultKind::NoSpace);
    let report = Engine::new(config_on(cache, Fs::with_faults(plan)))
        .run(RunRequest::resident(&chip))
        .unwrap();
    assert_eq!(report.signoff_json(), baseline);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_ledger_append_is_counted_not_misparsed() {
    let chip = fixture();
    let dir = temp_dir("torn-ledger");
    let cache = dir.join("results.cache");
    let ledger_path = ledger_path(&cache);

    // First run's ledger append is torn mid-record; the second run's
    // append lands right after the torn bytes on the same line (there was
    // no trailing newline), so that line is garbage. The third run starts
    // a clean line.
    let fs = Fs::with_faults(Plan::new().at(ledger_path.display(), 1, FsFaultKind::ShortWrite));
    for _ in 0..3 {
        Engine::new(config_on(cache.clone(), fs.clone())).run(RunRequest::resident(&chip)).unwrap();
    }

    let (records, unparsed) = ledger::scan(&ledger_path);
    assert_eq!(unparsed, 1, "the torn line is counted, not silently accepted");
    assert_eq!(records.len(), 1, "only the clean third record parses");
    assert_eq!(records[0].outcome, "complete");
    let _ = std::fs::remove_dir_all(&dir);
}

/// What exact-path sites and seeded targets give away free: one sweep over
/// every persisted artifact at once — cache, journal and ledger — with the
/// journal and the run lock on, as production runs them.
#[test]
fn seeded_disk_fault_sweep_never_skews_a_verdict_and_converges() {
    // Small on purpose: the sweep drills I/O, and makes 160 runs.
    let db = bundle(6, 200e-6, &Technology::c025());
    let victims: Vec<PNetId> = (0..db.num_nets()).map(PNetId).collect();
    let chip = ResidentChip::fixed_resistance(db, 1000.0, victims);
    let victims = chip.victims();
    let healthy = Engine::new(EngineConfig { workers: 2, ..Default::default() })
        .run(RunRequest::resident(&chip));
    let healthy = healthy.unwrap();
    let baseline = healthy.signoff_json();
    let request = RunRequest { resume: true, ..RunRequest::resident(&chip) };

    let mut picked_total = 0;
    for seed in 0..8u64 {
        for kind in [
            FsFaultKind::ShortWrite,
            FsFaultKind::NoSpace,
            FsFaultKind::FsyncFail,
            FsFaultKind::RenameFail,
            FsFaultKind::BitFlip,
        ] {
            let dir = temp_dir(&format!("sweep-{seed}-{}", kind.name()));
            let cache = dir.join("results.cache");
            let fires = [1, 2, ALWAYS][seed as usize % 3];
            let plan = Plan::new().seeded(seed, 0.3, fires, kind);
            // The temp path carries the pid, so which files a seed picks
            // varies run to run; a failure names them, and three exact
            // `at` rules replay it.
            let picked = [cache.clone(), Journal::path_for(&cache), ledger_path(&cache)]
                .map(|p| plan.armed(&p.to_string_lossy(), 0).count() > 0);
            picked_total += picked.iter().filter(|&&p| p).count();
            let what =
                format!("seed {seed}: {} x{fires} at cache/journal/ledger {picked:?}", kind.name());

            // An interrupted run and its resume, both on the faulty disk:
            // each errs typed or reports only healthy verdicts.
            let fs = Fs::with_faults(plan);
            let flag = StopFlag::new();
            let mut stopped = config_on(cache.clone(), fs.clone());
            stopped.sink = Some(Arc::new(StopAfter::new(flag.clone(), victims.len() / 2)));
            stopped.stop = Some(flag);
            for cfg in [stopped, config_on(cache.clone(), fs)] {
                let Ok(report) = Engine::new(cfg).run(request) else {
                    continue;
                };
                for v in &report.chip.verdicts {
                    assert!(healthy.chip.verdicts.contains(v), "{what}: skewed {v:?}");
                }
                if !report.interrupted {
                    assert_eq!(report.signoff_json(), baseline, "{what}");
                }
            }

            // A clean disk heals whatever the faults left behind: baseline
            // bytes, journal retired, and a fully warm cache after it.
            let clean = Engine::new(config_on(cache.clone(), Fs::real())).run(request).unwrap();
            assert_eq!(clean.signoff_json(), baseline, "{what}: clean run");
            assert!(!Journal::path_for(&cache).exists(), "{what}: journal not retired");
            let warm = Engine::new(config_on(cache, Fs::real())).run(request).unwrap();
            assert_eq!(warm.signoff_json(), baseline, "{what}: warm run");
            assert_eq!(warm.stats.cache_hits, victims.len(), "{what}: cache did not heal");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    assert!(picked_total > 0, "p = 0.3 over 120 draws must pick some file");
}
