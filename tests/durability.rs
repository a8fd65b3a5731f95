//! Kill-and-resume drills: a sign-off run interrupted at an arbitrary
//! progress point must resume from its checkpoint journal to a sign-off
//! document byte-identical to an uninterrupted run — at every worker
//! count, every stop point, and after simulated `SIGKILL` damage (torn
//! journal tail, missing cache).

use pcv_designs::structures::bundle;
use pcv_designs::Technology;
use pcv_engine::{
    Engine, EngineConfig, EngineReport, Fs, Journal, ResidentChip, RunLock, RunRequest, StopAfter,
    StopFlag,
};
use pcv_netlist::PNetId;
use pcv_obs::{ledger, EngineEvent, EventSink};
use pcv_xtalk::XtalkError;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// A 12-wire bus: small enough to drill many interrupt points, coupled
/// enough that every wire gets a real verdict.
fn fixture() -> ResidentChip {
    let db = bundle(12, 1200e-6, &Technology::c025());
    let victims = (0..db.num_nets()).map(PNetId).collect();
    ResidentChip::fixed_resistance(db, 1000.0, victims)
}

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("pcv-durability-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn config(workers: usize, cache: Option<PathBuf>) -> EngineConfig {
    EngineConfig { workers, cache_path: cache, ..Default::default() }
}

/// Run to completion with a cold cache-less engine: the reference
/// sign-off every interrupted-and-resumed run must reproduce bit for bit.
fn baseline_signoff(chip: &ResidentChip) -> String {
    Engine::new(config(2, None)).run(RunRequest::resident(chip)).unwrap().signoff_json()
}

/// Run with a stop raised after `stop_after` cluster completions; returns
/// the interrupted report.
fn interrupted_run(
    chip: &ResidentChip,
    workers: usize,
    stop_after: usize,
    cache: &Path,
) -> EngineReport {
    let flag = StopFlag::new();
    let mut cfg = config(workers, Some(cache.to_owned()));
    cfg.sink = Some(Arc::new(StopAfter::new(flag.clone(), stop_after)) as Arc<dyn EventSink>);
    cfg.stop = Some(flag);
    Engine::new(cfg).run(RunRequest::resident(chip)).unwrap()
}

#[test]
fn resume_is_byte_identical_across_stop_points_and_worker_counts() {
    let chip = fixture();
    let victims = chip.victims();
    let baseline = baseline_signoff(&chip);
    let n = victims.len();

    // Stop at 25%, 50% and 75% of the victim count, under every pool size.
    for workers in [1usize, 2, 4, 8] {
        for stop_after in [n / 4, n / 2, 3 * n / 4] {
            let dir = temp_dir(&format!("matrix-w{workers}-s{stop_after}"));
            let cache = dir.join("signoff.cache");

            let partial = interrupted_run(&chip, workers, stop_after, &cache);
            assert!(partial.interrupted, "w={workers} s={stop_after}: stop must mark the report");
            let completed = n - partial.stats.skipped;
            assert!(completed >= stop_after, "at least the trigger count completed");
            assert!(
                Journal::path_for(&cache).exists(),
                "an interrupted run must leave its journal for the resume"
            );

            // Resume with a fresh engine (no stop): replay the journal,
            // compute only what is missing, discard the journal on success.
            let resumed = Engine::new(config(workers, Some(cache.clone())))
                .run(RunRequest { resume: true, ..RunRequest::resident(&chip) })
                .unwrap();
            assert!(!resumed.interrupted);
            assert_eq!(
                resumed.signoff_json(),
                baseline,
                "w={workers} s={stop_after}: resumed signoff diverged from the uninterrupted run"
            );
            assert_eq!(
                resumed.stats.journal_hits, completed,
                "every checkpointed verdict must be replayed, not recomputed"
            );
            assert_eq!(resumed.stats.cache_misses, partial.stats.skipped);
            assert!(
                !Journal::path_for(&cache).exists(),
                "a completed resume must retire the journal"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn single_worker_stop_skips_exactly_the_queued_tail() {
    // With one worker the drain point is exact: stop fires inside the
    // Nth job, so precisely n - N clusters are skipped.
    let chip = fixture();
    let victims = chip.victims();
    let dir = temp_dir("exact");
    let cache = dir.join("signoff.cache");
    let stop_after = 5;
    let partial = interrupted_run(&chip, 1, stop_after, &cache);
    assert_eq!(partial.stats.skipped, victims.len() - stop_after);
    assert_eq!(partial.chip.verdicts.len(), stop_after);

    // The ledger marks the run resumable, then marks the resume complete.
    let ledger_path = {
        let mut os = cache.as_os_str().to_owned();
        os.push(".ledger.jsonl");
        PathBuf::from(os)
    };
    let resumed = Engine::new(config(1, Some(cache)))
        .run(RunRequest { resume: true, ..RunRequest::resident(&chip) })
        .unwrap();
    let (records, unparsed) = ledger::scan(&ledger_path);
    assert_eq!(unparsed, 0);
    assert_eq!(records.len(), 2);
    assert_eq!(records[0].outcome, "stopped");
    assert_eq!(records[0].skipped, victims.len() - stop_after);
    assert_eq!(records[1].outcome, "complete");
    assert_eq!(records[1].journal_hits, stop_after);
    assert_eq!(resumed.stats.journal_hits, stop_after);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Raises the stop flag on the `k`-th cache miss — the event a job emits
/// just before its ladder walk — and records which jobs started, which
/// victim the stop landed in, and which jobs were skipped.
#[derive(Default)]
struct StopOnMiss {
    flag: StopFlag,
    k: usize,
    log: Mutex<DrainLog>,
}

#[derive(Default)]
struct DrainLog {
    started: Vec<String>,
    misses: usize,
    stopped_in: Option<String>,
    skipped: Vec<String>,
}

impl EventSink for StopOnMiss {
    fn event(&self, ev: &EngineEvent) {
        let mut log = self.log.lock().unwrap();
        match ev {
            EngineEvent::ClusterStarted { name } => log.started.push(name.clone()),
            EngineEvent::CacheMiss { name } => {
                log.misses += 1;
                if log.misses == self.k {
                    log.stopped_in = Some(name.clone());
                    self.flag.stop();
                }
            }
            EngineEvent::ClusterSkipped { name } => log.skipped.push(name.clone()),
            _ => {}
        }
    }
}

#[test]
fn a_stop_raised_inside_a_job_lets_it_finish_and_skips_only_later_jobs() {
    // The drain contract: the stop is read between jobs only. A job that
    // has started when the flag goes up analyzes its victim to a verdict
    // and checkpoints it; every job after it is skipped.
    let chip = fixture();
    let (db, victims) = (chip.db(), chip.victims());
    let baseline = baseline_signoff(&chip);
    let dir = temp_dir("drain");
    let cache = dir.join("signoff.cache");
    let k = 5;
    let sink = Arc::new(StopOnMiss { k, ..StopOnMiss::default() });
    let mut cfg = config(1, Some(cache.clone()));
    cfg.sink = Some(sink.clone() as Arc<dyn EventSink>);
    cfg.stop = Some(sink.flag.clone());
    let partial = Engine::new(cfg).run(RunRequest::resident(&chip)).unwrap();
    assert!(partial.interrupted);

    let log = sink.log.lock().unwrap();
    let victim_k = log.stopped_in.clone().expect("the k-th cache miss raised the stop");
    assert_eq!(log.started.len(), k, "no job starts after the stop");
    assert_eq!(log.started.last(), Some(&victim_k));
    let sorted = |names: Vec<String>| {
        let mut names = names;
        names.sort();
        names
    };
    // Victim k's verdict is in the report and in the journal, beside those
    // of the jobs before it.
    let started = sorted(log.started.clone());
    assert_eq!(sorted(partial.chip.verdicts.iter().map(|v| v.name.clone()).collect()), started);
    let journal = Journal::load(&Fs::real(), &Journal::path_for(&cache));
    assert_eq!(sorted(journal.entries.into_iter().map(|e| e.name).collect()), started);
    // Exactly the later victims are skipped: every victim either started
    // (at or before k) or was skipped, never both.
    assert_eq!(partial.stats.skipped, victims.len() - k);
    let all = sorted(log.started.iter().chain(&log.skipped).cloned().collect());
    assert_eq!(all, sorted(victims.iter().map(|&v| db.net(v).name().to_owned()).collect()));

    let resumed = Engine::new(config(1, Some(cache)))
        .run(RunRequest { resume: true, ..RunRequest::resident(&chip) })
        .unwrap();
    assert_eq!(resumed.stats.journal_hits, k);
    assert_eq!(resumed.signoff_json(), baseline);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sigkill_simulation_with_torn_journal_and_no_cache_still_resumes_identically() {
    // The hard crash: the process died mid-append (half a journal record
    // at the tail) and never reached the cache save. Resume must drop the
    // torn record and recompute — never misread it into a verdict.
    let chip = fixture();
    let victims = chip.victims();
    let baseline = baseline_signoff(&chip);
    let dir = temp_dir("sigkill");
    let cache = dir.join("signoff.cache");

    let partial = interrupted_run(&chip, 2, victims.len() / 2, &cache);
    let completed = victims.len() - partial.stats.skipped;

    // SIGKILL damage: tear the journal's final record in half and remove
    // the cache file (a killed run never saves its cache).
    let jpath = Journal::path_for(&cache);
    let text = std::fs::read_to_string(&jpath).unwrap();
    let body = text.strip_suffix('\n').unwrap_or(&text);
    let last_start = body.rfind('\n').map_or(0, |i| i + 1);
    let torn_len = last_start + (body.len() - last_start) / 2;
    std::fs::write(&jpath, &body[..torn_len]).unwrap();
    let _ = std::fs::remove_file(&cache);

    let resumed = Engine::new(config(4, Some(cache)))
        .run(RunRequest { resume: true, ..RunRequest::resident(&chip) })
        .unwrap();
    assert_eq!(resumed.signoff_json(), baseline, "torn journal must not corrupt the signoff");
    // Exactly one checkpoint was destroyed; everything else replays.
    assert_eq!(resumed.stats.journal_hits, completed - 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_without_a_journal_is_a_plain_verify() {
    let chip = fixture();
    let victims = chip.victims();
    let baseline = baseline_signoff(&chip);
    let dir = temp_dir("nojournal");
    let report = Engine::new(config(2, Some(dir.join("signoff.cache"))))
        .run(RunRequest { resume: true, ..RunRequest::resident(&chip) })
        .unwrap();
    assert_eq!(report.signoff_json(), baseline);
    assert_eq!(report.stats.journal_hits, 0);
    assert_eq!(report.stats.cache_misses, victims.len());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stale_journal_from_another_config_is_ignored() {
    // A journal checkpointed under different thresholds must not leak
    // verdicts into a resume with the current configuration.
    let chip = fixture();
    let victims = chip.victims();
    let dir = temp_dir("stale");
    let cache = dir.join("signoff.cache");
    let _ = interrupted_run(&chip, 2, victims.len() / 2, &cache);
    let _ = std::fs::remove_file(&cache); // force recomputation, not cache hits

    let mut cfg = config(2, Some(cache));
    cfg.fail_frac = 0.5; // different config fingerprint
    let resumed = Engine::new(cfg.clone())
        .run(RunRequest { resume: true, ..RunRequest::resident(&chip) })
        .unwrap();
    assert_eq!(resumed.stats.journal_hits, 0, "a stale journal must not be replayed");
    let fresh = Engine::new(EngineConfig { cache_path: None, ..cfg })
        .run(RunRequest::resident(&chip))
        .unwrap();
    assert_eq!(resumed.signoff_json(), fresh.signoff_json());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_run_against_the_same_cache_is_rejected_with_a_typed_error() {
    let chip = fixture();
    let victims = chip.victims();
    let dir = temp_dir("lock");
    let cache = dir.join("signoff.cache");

    // Another live run (this process) holds the lock.
    let held = RunLock::acquire(&RunLock::path_for(&cache), 0).unwrap();
    let engine = Engine::new(config(2, Some(cache.clone())));
    match engine.run(RunRequest::resident(&chip)) {
        Err(XtalkError::Busy { pid, path }) => {
            assert_eq!(pid, std::process::id());
            assert!(path.ends_with(".lock"));
        }
        other => panic!("expected Busy, got {:?}", other.map(|r| r.stats.victims)),
    }
    drop(held);

    // With the lock released the same engine runs — and releases its own
    // lock on the way out.
    let report = engine.run(RunRequest::resident(&chip)).unwrap();
    assert_eq!(report.chip.verdicts.len(), victims.len());
    assert!(!RunLock::path_for(&cache).exists());
    let _ = std::fs::remove_dir_all(&dir);
}
