//! The shard-worker process: one slice of a sharded sign-off.
//!
//! `pcv_serve --shard-worker` reads a single JSON config line on stdin,
//! elaborates the **full** chip from the embedded [`DesignSpec`] (so net
//! ids and cluster fingerprints match the coordinator's view exactly),
//! partitions the victim set with [`pcv_engine::shard::partition`], and
//! verifies only its own slice — always with [`RunRequest::resume`] set,
//! so a restarted incarnation replays its shard journal and recomputes
//! just the tail.
//!
//! Everything the worker says goes to stdout as JSONL:
//!
//! ```text
//! {"kind":"hello","shard":K,"victims":N,"torn_journal_lines":T}
//! {"net":...,"name":...,...,"kind":"verdict"}        // as they land
//! {"kind":"beat","done":N}                            // idle liveness
//! {"kind":"done","outcome":"complete","peak_alloc_bytes":B,"torn_journal_lines":T}
//! ```
//!
//! A verdict line is the one verdict JSON object
//! ([`NetVerdict::write_members`], the same bytes a sign-off document
//! holds) with `"kind":"verdict"` added; the coordinator reads every line
//! with `read_stream_line`, and a verdict with [`NetVerdict::from_json`],
//! which rejects anything a healthy worker could not have written. Any line is a heartbeat to the coordinator;
//! silence past the deadline is what gets a worker killed and restarted.
//! Exit status 0 means the `done` line is trustworthy; anything else is a
//! crash.
//!
//! The config line may also arm deterministic worker-side drills — the
//! coordinator writes one key per armed [`pcv_engine::shard::ShardFault`]:
//! `panic_after` aborts the process after N verdicts have been emitted,
//! `stall_after` silences all output after N verdicts while the process
//! stays alive — the two failure modes (crash vs. hang) the supervisor
//! must distinguish. `hold_after` is the worker's half of a SIGKILL drill:
//! after N clusters have finished, every later one is held at its finish
//! (journaled, never streamed) until the coordinator, on the N-th verdict,
//! kills the process. The run can then never finish before the kill.

use crate::error::ApiError;
use crate::overlay::{member, uint, Thresholds};
use crate::session::{elaborate, parse_spec, DesignSpec};
use pcv_engine::durable::Journal;
use pcv_engine::fs::Fs;
use pcv_engine::shard::partition;
use pcv_engine::{Engine, RunRequest, VerdictSnapshot};
use pcv_obs::json::{self, Value};
use pcv_obs::{EngineEvent, EventSink};
use pcv_xtalk::NetVerdict;
use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One line of the worker→coordinator verdict stream.
fn wire_line(v: &NetVerdict) -> String {
    json::object(|o| {
        v.write_members(o);
        o.str("kind", "verdict");
    })
}

/// The first line a worker says: its shard, slice size and the torn
/// journal lines its replay skipped.
fn hello_line(shard: usize, victims: usize, torn: usize) -> String {
    json::object(|o| {
        o.str("kind", "hello").raw("shard", shard).raw("victims", victims);
        o.raw("torn_journal_lines", torn);
    })
}

/// An idle worker's liveness line: verdicts emitted so far.
fn beat_line(done: usize) -> String {
    json::object(|o| {
        o.str("kind", "beat").raw("done", done);
    })
}

/// The last line of a worker that finished its slice.
fn done_line(outcome: &str, peak_alloc_bytes: u64, torn: usize) -> String {
    json::object(|o| {
        o.str("kind", "done").str("outcome", outcome).raw("peak_alloc_bytes", peak_alloc_bytes);
        o.raw("torn_journal_lines", torn);
    })
}

/// One line of a worker's stream, as the coordinator reads it. Any line,
/// malformed or not, is also a heartbeat.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum StreamLine {
    /// The first line: the torn journal lines the replay skipped, when the
    /// line states a count.
    Hello { torn: Option<usize> },
    /// A verdict, or `None` when [`NetVerdict::from_json`] rejects it.
    Verdict(Option<NetVerdict>),
    /// The last line of a finished slice; a count it lacks reads as 0.
    Done { peak: u64, torn: usize },
    /// A beat, or a kind this build does not know: liveness only.
    Beat,
    /// Not a JSON document.
    Malformed,
}

/// Decode one line a worker wrote, for a chip of `nets` nets — the reader
/// of [`hello_line`], [`wire_line`], [`beat_line`] and [`done_line`].
pub(crate) fn read_stream_line(line: &str, nets: usize) -> StreamLine {
    let Ok(doc) = json::parse(line) else {
        return StreamLine::Malformed;
    };
    let count = |key: &str| doc.get(key).and_then(Value::as_u64);
    match doc.get("kind").and_then(Value::as_str) {
        Some("hello") => {
            StreamLine::Hello { torn: count("torn_journal_lines").map(|t| t as usize) }
        }
        Some("verdict") => StreamLine::Verdict(NetVerdict::from_json(&doc, nets)),
        Some("done") => StreamLine::Done {
            peak: count("peak_alloc_bytes").unwrap_or(0),
            torn: count("torn_journal_lines").unwrap_or(0) as usize,
        },
        _ => StreamLine::Beat,
    }
}

fn emit(line: &str) {
    let out = std::io::stdout();
    let mut lock = out.lock();
    let _ = writeln!(lock, "{line}");
    let _ = lock.flush();
}

struct WorkerConfig {
    spec: DesignSpec,
    shards: usize,
    shard: usize,
    cache: PathBuf,
    workers: usize,
    thresholds: Thresholds,
    panic_after: Option<usize>,
    stall_after: Option<usize>,
    hold_after: Option<usize>,
}

/// Read the coordinator's config line. A member of the wrong type is
/// rejected, not defaulted: a worker running on other thresholds than its
/// coordinator fingerprints every cluster differently, and its whole slice
/// would be silently recomputed at merge; a drill key that quietly
/// disarmed would pass a test it should have failed.
fn parse_config(line: &str) -> Result<WorkerConfig, ApiError> {
    fn bad(what: impl Into<String>) -> ApiError {
        ApiError::BadRequest(what.into())
    }
    let doc = parse_spec(line)?;
    let spec = DesignSpec::from_value(&doc)?;
    let count = |key: &str| member(&doc, key, uint);
    let shards = count("shards")?.ok_or_else(|| bad("config needs \"shards\""))?;
    let shard = count("shard")?.ok_or_else(|| bad("config needs \"shard\""))?;
    if shards == 0 || shard >= shards {
        return Err(bad(format!("shard {shard} out of range for {shards} shards")));
    }
    let cache = doc
        .get("cache")
        .and_then(Value::as_str)
        .ok_or_else(|| bad("config needs a \"cache\" path"))?
        .into();
    let mut thresholds = Thresholds::default();
    for (key, value) in doc.as_obj().ok_or_else(|| bad("config line must be a JSON object"))? {
        thresholds.read_member(key, value)?;
    }
    Ok(WorkerConfig {
        spec,
        shards,
        shard,
        cache,
        workers: count("workers")?.unwrap_or(0),
        thresholds,
        panic_after: count("panic_after")?,
        stall_after: count("stall_after")?,
        hold_after: count("hold_after")?,
    })
}

/// The `hold_after` drill: lets its count of clusters finish, then blocks
/// each later cluster's job at its `ClusterFinished` — after the journal
/// append, before the verdict reaches the snapshot — until the process is
/// killed.
struct HoldAfter(AtomicUsize);

impl EventSink for HoldAfter {
    fn event(&self, ev: &EngineEvent) {
        if matches!(ev, EngineEvent::ClusterFinished { .. })
            && self
                .0
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
                .is_err()
        {
            loop {
                std::thread::sleep(Duration::from_secs(3600));
            }
        }
    }
}

/// Entry point for `pcv_serve --shard-worker`: run one shard to
/// completion and return the process exit code.
#[must_use]
pub fn run_worker() -> i32 {
    let mut line = String::new();
    if std::io::stdin().lock().read_line(&mut line).is_err() || line.trim().is_empty() {
        eprintln!("pcv-shard-worker: expected one JSON config line on stdin");
        return 2;
    }
    match worker_main(&line) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("pcv-shard-worker: {e}");
            2
        }
    }
}

fn worker_main(line: &str) -> Result<i32, String> {
    let cfg = parse_config(line).map_err(|e| format!("config: {e:?}"))?;
    let chip = elaborate(&cfg.spec).map_err(|e| format!("elaborate: {e:?}"))?;
    let slice = partition(&chip, chip.victims(), cfg.shards).swap_remove(cfg.shard);
    let torn = Journal::load(&Fs::real(), &Journal::path_for(&cfg.cache)).skipped;
    emit(&hello_line(cfg.shard, slice.len(), torn));

    let snapshot = Arc::new(VerdictSnapshot::new());
    let finished = Arc::new(AtomicBool::new(false));
    let silenced = Arc::new(AtomicBool::new(false));
    let poller = spawn_poller(
        Arc::clone(&snapshot),
        Arc::clone(&finished),
        Arc::clone(&silenced),
        cfg.panic_after,
        cfg.stall_after,
    );

    // The full chip's context (so cluster fingerprints match the
    // coordinator's), this shard's victims only. Always resuming: a first
    // incarnation finds no journal and runs fresh; a restarted one replays
    // its checkpoints and finishes only the tail. The header fingerprint
    // check guards staleness.
    // The coordinator's merge configuration (same thresholds, so the same
    // `config_hash`) over the shard's own cache.
    let mut ecfg = cfg.thresholds.engine_config(cfg.workers, cfg.cache.clone());
    if let Some(n) = cfg.hold_after {
        ecfg.sink = Some(Arc::new(HoldAfter(AtomicUsize::new(n))));
    }
    let result = Engine::new(ecfg).run(RunRequest {
        victims: &slice,
        resume: true,
        snapshot: Some(&snapshot),
        ..RunRequest::resident(&chip)
    });

    finished.store(true, Ordering::Release);
    let _ = poller.join();

    if silenced.load(Ordering::Acquire) {
        // Stall drill: stay alive but say nothing — the coordinator's
        // heartbeat deadline, not process exit, must catch this.
        loop {
            std::thread::sleep(Duration::from_secs(3600));
        }
    }

    let report = result.map_err(|e| format!("verify: {e}"))?;
    let outcome = if report.interrupted { "interrupted" } else { "complete" };
    emit(&done_line(outcome, report.stats.peak_alloc_bytes, torn));
    Ok(0)
}

/// Stream verdicts off the snapshot as they land (~20 ms cadence), with
/// idle beats (~100 ms) so a slow cluster doesn't read as a dead worker.
/// Owns the worker-side fault drills, which are keyed to the *emitted*
/// verdict count so SIGKILL-at-fraction drills line up deterministically.
fn spawn_poller(
    snapshot: Arc<VerdictSnapshot>,
    finished: Arc<AtomicBool>,
    silenced: Arc<AtomicBool>,
    panic_after: Option<usize>,
    stall_after: Option<usize>,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        // Every tick emits all it reads (or ends the thread), so the
        // emitted count is also the snapshot cursor.
        let mut emitted = 0usize;
        let mut idle_ticks = 0u32;
        loop {
            let done = finished.load(Ordering::Acquire);
            // Only what landed since the last tick, by name within the tick.
            let mut fresh = snapshot.since(emitted);
            fresh.sort_by(|a, b| a.name.cmp(&b.name));
            let mut emitted_new = false;
            for v in fresh {
                if let Some(n) = stall_after {
                    if emitted >= n {
                        silenced.store(true, Ordering::Release);
                        return;
                    }
                }
                emit(&wire_line(&v));
                emitted += 1;
                emitted_new = true;
                if let Some(n) = panic_after {
                    if emitted >= n {
                        // A crash, not a clean exit: no done line, no
                        // journal discard, nonzero status.
                        std::process::abort();
                    }
                }
            }
            if let (Some(0), _) | (_, Some(0)) = (panic_after, stall_after) {
                // Zero-threshold drills fire even before any verdict.
                if panic_after == Some(0) {
                    std::process::abort();
                }
                silenced.store(true, Ordering::Release);
                return;
            }
            if done {
                return;
            }
            if emitted_new {
                idle_ticks = 0;
            } else {
                idle_ticks += 1;
                if idle_ticks >= 5 {
                    emit(&beat_line(emitted));
                    idle_ticks = 0;
                }
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcv_engine::EngineConfig;
    use pcv_netlist::PNetId;
    use pcv_obs::json::parse;
    use pcv_xtalk::{ReceiverVerdict, Severity};

    #[test]
    fn hello_beat_and_done_lines_are_pinned() {
        let lines = [
            hello_line(1, 42, 0),
            hello_line(0, 0, 3),
            beat_line(17),
            done_line("complete", 1 << 30, 2),
            done_line("interrupted", 0, 0),
        ];
        assert_eq!(
            lines,
            [
                "{\"kind\":\"hello\",\"shard\":1,\"victims\":42,\"torn_journal_lines\":0}",
                "{\"kind\":\"hello\",\"shard\":0,\"victims\":0,\"torn_journal_lines\":3}",
                "{\"kind\":\"beat\",\"done\":17}",
                concat!(
                    "{\"kind\":\"done\",\"outcome\":\"complete\"",
                    ",\"peak_alloc_bytes\":1073741824,\"torn_journal_lines\":2}",
                ),
                concat!(
                    "{\"kind\":\"done\",\"outcome\":\"interrupted\",\"peak_alloc_bytes\":0",
                    ",\"torn_journal_lines\":0}",
                ),
            ]
        );
    }

    fn sample() -> NetVerdict {
        NetVerdict {
            net: PNetId(7),
            name: "bus0.3".into(),
            rise_peak: 0.123_456_789_012_345,
            fall_peak: -0.098_765_432_1,
            worst_frac: 0.049_382_716,
            severity: Severity::Warning,
            cluster_size: 11,
            neighbors_before: 4,
            receiver: Some(ReceiverVerdict {
                cell: "INVX2".into(),
                output_peak: 0.001_234,
                propagates: false,
            }),
        }
    }

    #[test]
    fn wire_line_round_trips_bit_exactly() {
        let v = sample();
        assert_eq!(
            wire_line(&v),
            concat!(
                "{\"net\":7,\"name\":\"bus0.3\",",
                "\"rise_peak\":0.123456789012345,\"rise_peak_bits\":\"3fbf9add3746f62e\",",
                "\"fall_peak\":-0.0987654321,\"fall_peak_bits\":\"bfb948b0fcd84560\",",
                "\"worst_frac\":0.049382716,\"worst_frac_bits\":\"3fa948b0fc6a51e1\",",
                "\"severity\":\"warning\",\"cluster_size\":11,\"neighbors_before\":4,",
                "\"receiver\":{\"cell\":\"INVX2\",\"output_peak\":0.001234,",
                "\"output_peak_bits\":\"3f5437c5692b3cc5\",\"propagates\":false},",
                "\"kind\":\"verdict\"}"
            ),
            "the verdict line's bytes are pinned"
        );
        let doc = parse(&wire_line(&v)).unwrap();
        assert_eq!(doc.get("kind").and_then(Value::as_str), Some("verdict"));
        assert_eq!(NetVerdict::from_json(&doc, 8), Some(v.clone()));

        let bare = NetVerdict { receiver: None, severity: Severity::Violation, ..v };
        assert_eq!(NetVerdict::from_json(&parse(&wire_line(&bare)).unwrap(), 8), Some(bare));
    }

    #[test]
    fn hostile_verdict_lines_are_rejected() {
        // A child's stdout is outside input: whatever a healthy worker
        // could not have written must not reach the snapshot.
        let good = wire_line(&sample());
        let hex = |x: f64| format!("{:016x}", x.to_bits());
        let (rise, rx) = (hex(sample().rise_peak), hex(0.001_234));
        let off_by_one = format!("{:016x}", sample().rise_peak.to_bits() ^ 1);
        let hostile = [
            ("NaN rise bits", good.replace(&rise, &hex(f64::NAN))),
            ("infinite rise bits", good.replace(&rise, &hex(f64::INFINITY))),
            ("bits disagree with decimal", good.replace(&rise, &off_by_one)),
            ("short bit pattern", good.replace(&rise, &rise[1..])),
            ("NaN receiver bits", good.replace(&rx, &hex(f64::NAN))),
            ("non-bool propagates", good.replace("\"propagates\":false", "\"propagates\":0")),
            ("string propagates", good.replace("\"propagates\":false", "\"propagates\":\"no\"")),
            ("unknown severity", good.replace("\"warning\"", "\"fatal\"")),
            ("net out of range", good.replace("\"net\":7", "\"net\":8")),
            ("negative net", good.replace("\"net\":7", "\"net\":-1")),
            ("fractional count", good.replace("\"cluster_size\":11", "\"cluster_size\":1.5")),
            ("missing receiver", good.replace(",\"receiver\":{", ",\"rx\":{")),
            ("missing name", good.replace("\"name\":", "\"nom\":")),
        ];
        for (what, line) in hostile {
            assert_ne!(line, good, "{what}: the mutation must apply");
            let doc = parse(&line).unwrap_or_else(|e| panic!("{what}: still JSON: {e}"));
            assert_eq!(NetVerdict::from_json(&doc, 8), None, "{what} was accepted: {line}");
        }
    }

    const DESIGN: &str = "\"design\":{\"kind\":\"dsp\",\"buses\":1,\"bits\":2,\"random\":0}";

    #[test]
    fn a_malformed_config_line_keeps_its_error_text() {
        // The line is parsed once; what a bad one reports is what the two
        // parses (as a session spec, then as a config) reported.
        let cases = [
            ("not json", "session spec: json parse error at byte 0: invalid literal"),
            ("{\"design\":", "session spec: json parse error at byte 10: expected a value"),
            (
                "{\"design\":{\"kind\":\"dsp\"},\"shards\":2} x",
                "session spec: json parse error at byte 37: trailing characters after document",
            ),
            ("[1]", "session spec needs a \"design\" object"),
            (
                "{\"design\":{\"kind\":\"dsp\",\"buses\":\"6\"}}",
                "buses must be a non-negative integer",
            ),
            (
                &format!("{{{DESIGN},\"shards\":\"2\",\"shard\":1,\"cache\":\"/tmp/x\"}}"),
                "shards must be a non-negative integer",
            ),
            (
                &format!("{{{DESIGN},\"shards\":2,\"shard\":1,\"cache\":7}}"),
                "config needs a \"cache\" path",
            ),
        ];
        for (line, want) in cases {
            match parse_config(line) {
                Err(ApiError::BadRequest(got)) => assert_eq!(got, want, "{line}"),
                Err(other) => panic!("{line}: expected BadRequest, got {other:?}"),
                Ok(_) => panic!("{line}: accepted"),
            }
        }
    }

    #[test]
    fn hostile_threshold_overrides_are_rejected_not_defaulted() {
        // A worker that quietly ran on default thresholds would fingerprint
        // every cluster differently from its coordinator; the merge would
        // then drop its whole slice and recompute it in-process.
        let line = |extra: &str| {
            format!("{{{DESIGN},\"shards\":2,\"shard\":1,\"cache\":\"/tmp/x\"{extra}}}")
        };
        let ok = parse_config(&line(",\"warn_frac\":0.05,\"check_receivers\":true")).unwrap();
        assert_eq!(ok.thresholds.warn_frac, Some(0.05));
        assert_eq!(ok.thresholds.check_receivers, Some(true));
        assert_eq!(parse_config(&line("")).unwrap().thresholds, Thresholds::default());
        for extra in [
            ",\"check_receivers\":1",
            ",\"check_receivers\":\"true\"",
            ",\"check_receivers\":null",
            ",\"warn_frac\":\"0.1\"",
            ",\"warn_frac\":true",
            ",\"fail_frac\":[0.2]",
            ",\"fail_frac\":null",
        ] {
            match parse_config(&line(extra)) {
                Err(ApiError::BadRequest(_)) => {}
                Err(other) => panic!("{extra}: expected BadRequest, got {other:?}"),
                Ok(cfg) => panic!("{extra}: accepted as {:?}", cfg.thresholds),
            }
        }
    }

    #[test]
    fn coordinator_line_and_merge_config_agree_on_config_hash() {
        use crate::shard::{Coordinator, CoordinatorConfig};
        let spec = DesignSpec::from_json(&format!("{{{DESIGN}}}")).unwrap();
        let chip = Arc::new(elaborate(&spec).unwrap());
        let hash = |cfg: &EngineConfig| cfg.config_hash(&chip.ctx());
        let default_hash = hash(&EngineConfig::default());
        // 0.1 + 0.2 and 1/3 need all 17 digits to survive the text round trip.
        let fracs = [None, Some(0.05), Some(0.1 + 0.2), Some(1.0 / 3.0)];
        for warn_frac in fracs {
            for fail_frac in fracs {
                for check_receivers in [None, Some(false), Some(true)] {
                    let thresholds = Thresholds { warn_frac, fail_frac, check_receivers };
                    let mut ccfg =
                        CoordinatorConfig::new(2, "/bin/true".into(), "/tmp/m.cache".into());
                    ccfg.thresholds = thresholds;
                    ccfg.workers_per_shard = 3;
                    let c = Coordinator::new(spec.clone(), Arc::clone(&chip), ccfg);
                    let line = c.worker_config_line(1, 5, &c.shard_cache(1), &[]);
                    let worker = parse_config(&line).unwrap();
                    assert_eq!(worker.thresholds, thresholds, "{line}");
                    assert_eq!((worker.shards, worker.shard, worker.workers), (2, 1, 3));
                    let merged = hash(&thresholds.engine_config(0, "/tmp/m.cache".into()));
                    let ecfg = worker.thresholds.engine_config(worker.workers, worker.cache);
                    assert_eq!(hash(&ecfg), merged, "{line}");
                    let all_default =
                        warn_frac.is_none() && fail_frac.is_none() && check_receivers != Some(true);
                    assert_eq!(merged == default_hash, all_default, "{line}");
                }
            }
        }
    }

    #[test]
    fn config_line_bytes_are_pinned_and_drill_keys_are_strict() {
        use crate::shard::{Coordinator, CoordinatorConfig};
        use pcv_engine::ShardFault;
        let spec = DesignSpec::from_json(&format!("{{{DESIGN}}}")).unwrap();
        let chip = Arc::new(elaborate(&spec).unwrap());
        let mut ccfg = CoordinatorConfig::new(2, "/bin/true".into(), "/tmp/m.cache".into());
        ccfg.thresholds =
            Thresholds { warn_frac: Some(0.1 + 0.2), fail_frac: None, check_receivers: Some(true) };
        ccfg.workers_per_shard = 3;
        let c = Coordinator::new(spec, chip, ccfg);
        // The supervisor's journal drills never reach the worker's line; a
        // SIGKILL drill at half of a 5-victim slice holds after 3 clusters.
        let armed = [
            ShardFault::SigkillAtFrac(0.5),
            ShardFault::TornJournal,
            ShardFault::PanicAfter(3),
            ShardFault::DuplicateEntry,
        ];
        let line = c.worker_config_line(1, 5, &c.shard_cache(1), &armed);
        assert_eq!(
            line,
            concat!(
                "{\"design\":{\"kind\":\"dsp\",\"buses\":1,\"bits\":2,\"random\":0,",
                "\"cycle\":0.00000001,\"seed\":1},\"shards\":2,\"shard\":1,",
                "\"cache\":\"/tmp/m.cache.shard1\",\"workers\":3,",
                "\"warn_frac\":0.30000000000000004,\"check_receivers\":true,\"hold_after\":3,",
                "\"panic_after\":3}"
            )
        );
        let worker = parse_config(&line).unwrap();
        assert_eq!(
            (worker.panic_after, worker.stall_after, worker.hold_after),
            (Some(3), None, Some(3))
        );
        // A drill or worker-count key of the wrong type used to disarm (or
        // default) silently; it is a typed rejection like the thresholds.
        for (good, bad) in [
            ("\"panic_after\":3", "\"panic_after\":\"3\""),
            ("\"panic_after\":3", "\"stall_after\":-1"),
            ("\"panic_after\":3", "\"stall_after\":1.5"),
            ("\"hold_after\":3", "\"hold_after\":\"3\""),
            ("\"workers\":3", "\"workers\":\"3\""),
            ("\"shard\":1", "\"shard\":true"),
        ] {
            match parse_config(&line.replace(good, bad)) {
                Err(ApiError::BadRequest(_)) => {}
                Err(other) => panic!("{bad}: expected BadRequest, got {other:?}"),
                Ok(_) => panic!("{bad}: accepted"),
            }
        }
    }

    #[test]
    fn config_parse_rejects_out_of_range_shard() {
        let body = "{\"design\":{\"kind\":\"dsp\",\"buses\":1,\"bits\":2,\"random\":0},\"shards\":2,\"shard\":2,\"cache\":\"/tmp/x\"}";
        assert!(parse_config(body).is_err());
        let body = "{\"design\":{\"kind\":\"dsp\",\"buses\":1,\"bits\":2,\"random\":0},\"shards\":2,\"shard\":1,\"cache\":\"/tmp/x\"}";
        let cfg = parse_config(body).unwrap();
        assert_eq!((cfg.shards, cfg.shard), (2, 1));
    }

    /// Nets on the fuzzed chip: the sample verdict's net is the last.
    const NETS: usize = 8;

    /// The lines a worker writes, through its own writers: a hello, two
    /// verdicts (one with a receiver, one with a name a codec can get
    /// wrong), a beat and a done line.
    fn stream_seeds() -> Vec<(String, StreamLine)> {
        let odd = NetVerdict { name: "n\u{e9} \"q\"\\".into(), receiver: None, ..sample() };
        vec![
            (hello_line(1, 42, 3), StreamLine::Hello { torn: Some(3) }),
            (wire_line(&sample()), StreamLine::Verdict(Some(sample()))),
            (wire_line(&odd), StreamLine::Verdict(Some(odd))),
            (beat_line(17), StreamLine::Beat),
            (done_line("complete", 1 << 30, 2), StreamLine::Done { peak: 1 << 30, torn: 2 }),
        ]
    }

    /// A decoded line spelled by the writers and decoded again; `None` for
    /// what no writer spells (a refused line).
    fn respelled(line: &StreamLine) -> Option<StreamLine> {
        let text = match line {
            StreamLine::Hello { torn: Some(t) } => hello_line(0, 0, *t),
            StreamLine::Verdict(Some(v)) => wire_line(v),
            StreamLine::Done { peak, torn } => done_line("complete", *peak, *torn),
            StreamLine::Beat => beat_line(0),
            StreamLine::Hello { torn: None }
            | StreamLine::Verdict(None)
            | StreamLine::Malformed => return None,
        };
        Some(read_stream_line(&text, NETS))
    }

    /// Run `rounds` mutations, up to three deep, of the writer-made lines
    /// through [`read_stream_line`]. Every outcome is a [`StreamLine`]; one
    /// that carries values is exactly what the writers spell back, and no
    /// decode allocates more than 64 bytes per input byte plus 64 KiB.
    /// Returns how many lines carried values and how many were refused.
    fn fuzz_stream(rounds: usize) -> (usize, usize) {
        use crate::http_fuzz::{allocated, mutate_with};
        const TOKENS: &[&[u8]] = &[
            b"\n",
            b" ",
            b"{",
            b"}",
            b"[[[[[[[[",
            b"\"",
            b"\\u",
            b"\\ud800",
            b",",
            b":",
            b"null",
            b"-1",
            b"1.5",
            b"1e999",
            b"9007199254740993",
            b"18446744073709551616",
            b"\"kind\":\"done\",",
            b"\"kind\":\"hello\",",
            b"\"kind\":\"verdict\",",
            b"\"net\":0,",
            b"\0",
            b"\xff\xfe",
            "\u{e9}".as_bytes(),
        ];
        assert!(pcv_obs::mem::active(), "the tracking allocator is installed in this binary");
        let mut rng = pcv_rng::Rng::new(0x5354_5245);
        let (mut carried, mut refused) = (0, 0);
        let seeds = stream_seeds();
        for (s, (seed, _)) in seeds.iter().enumerate() {
            for round in 0..rounds / seeds.len() {
                let mut input = mutate_with(seed.as_bytes(), TOKENS, &mut rng);
                for _ in 0..rng.range_usize(0, 3) {
                    input = mutate_with(&input, TOKENS, &mut rng);
                }
                let text = String::from_utf8_lossy(&input);
                let mut decoded = StreamLine::Malformed;
                let bytes = allocated(|| decoded = read_stream_line(&text, NETS));
                match respelled(&decoded) {
                    Some(again) => {
                        assert_eq!(again, decoded, "seed {s} round {round}: {text}");
                        carried += 1;
                    }
                    None => refused += 1,
                }
                let bound = 64 * input.len() as u64 + (64 << 10);
                assert!(bytes <= bound, "seed {s} round {round}: {bytes} bytes allocated\n{text}");
            }
        }
        (carried, refused)
    }

    #[test]
    fn mutated_stream_lines_decode_to_what_the_writers_spell_or_are_refused() {
        for (line, want) in stream_seeds() {
            assert_eq!(read_stream_line(&line, NETS), want, "a writer-made line: {line}");
        }
        let (carried, refused) = fuzz_stream(2000);
        assert!(carried > 100 && refused > 1000, "{carried} carried, {refused} refused of 2 000");
    }

    /// The same at 20 000 mutations — the `chaos` CI job's share.
    #[test]
    #[ignore = "20 000 mutations: run by the chaos CI job"]
    fn twenty_thousand_mutated_stream_lines_decode_or_are_refused() {
        let (carried, refused) = fuzz_stream(20_000);
        assert!(
            carried > 1000 && refused > 10_000,
            "{carried} carried, {refused} refused of 20 000"
        );
    }
}
