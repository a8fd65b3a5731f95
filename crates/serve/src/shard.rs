//! The shard coordinator: fan a sign-off out to worker processes and
//! merge the pieces back into one byte-identical report.
//!
//! # Supervision state machine
//!
//! Each shard gets one supervisor thread driving a simple loop:
//!
//! ```text
//!            ┌────────────── backoff ◄─────────────┐
//!            ▼                                     │
//! spawn → streaming ──done+exit 0──► harvested     │
//!            │                                     │
//!            ├── crash (nonzero exit, EOF) ────────┤ restarts ≤ budget
//!            ├── stall (heartbeat deadline) ─kill──┤
//!            │                                     │
//!            └──────── restarts > budget ──► exhausted (WorstCase fill)
//! ```
//!
//! Any stdout line is a heartbeat; [`pcv_engine::VerdictSnapshot::beats`]
//! carries worker liveness into the daemon's stall watchdog exactly as a
//! single-process run would. Restart backoff is exponential (50 ms base,
//! doubling, 2 s cap) and bounded by `restart_budget`.
//!
//! # Merge protocol
//!
//! Workers never stream authoritative results — files do. A shard that
//! completed delivers its verdicts through its result cache (written
//! atomically at run end); a shard that died mid-run leaves a checkpoint
//! journal remnant; a shard that exhausted its budget has the gaps filled
//! with conservative `WorstCase` entries carrying a recorded degradation
//! trail. The coordinator folds all of it into one merged journal under
//! its own `(config, chip)` fingerprint header and replays it through a
//! [`RunRequest`] with `resume` set — entry adoption is
//! fingerprint-guarded bit-for-bit, stragglers are recomputed in-process,
//! and byte-identity with an unsharded run follows from the resume
//! equivalence the durability layer already proves.

use crate::error::ApiError;
use crate::overlay::Thresholds;
use crate::session::DesignSpec;
use crate::worker::{read_stream_line, StreamLine};
use pcv_engine::durable::StopFlag;
use pcv_engine::shard::{harvest_shard, partition, ShardContribution, ShardFault};
use pcv_engine::{
    write_merged_journal, Engine, EngineReport, Plan, ResidentChip, RunRequest, VerdictSnapshot,
};
use pcv_obs::EventSink;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How a sharded run is set up: topology, timeouts, budgets, drills.
#[derive(Clone)]
pub struct CoordinatorConfig {
    /// Number of shards (worker processes), ≥ 1.
    pub shards: usize,
    /// The `pcv_serve` binary to spawn with `--shard-worker`.
    pub worker_exe: PathBuf,
    /// Merged cache stem; shard `k` journals and caches under
    /// `<cache>.shard<k>`.
    pub cache_path: PathBuf,
    /// Engine threads inside each worker (0 = auto).
    pub workers_per_shard: usize,
    /// Result-affecting overrides, shipped to every worker and applied to
    /// the merge run alike.
    pub thresholds: Thresholds,
    /// A worker silent for this long is declared stalled and killed.
    pub heartbeat_timeout: Duration,
    /// Whole-run deadline; exceeding it kills every worker and fails the
    /// run with [`ApiError::Timeout`] instead of hanging the stream.
    pub deadline: Option<Duration>,
    /// Restarts allowed per shard before it is declared exhausted.
    pub restart_budget: u32,
    /// Deterministic failure drills: sites are shard indices, occurrences
    /// worker incarnations (see [`ShardFault`]).
    pub fault_plan: Plan<ShardFault>,
    /// Event sink for the merge run (the daemon threads its hub here).
    pub sink: Option<Arc<dyn EventSink>>,
    /// Cooperative stop for the merge run (the daemon's drain flag).
    pub stop: Option<StopFlag>,
}

impl CoordinatorConfig {
    /// A config with production defaults: 10 s heartbeat, no deadline,
    /// 3 restarts per shard, no drills.
    #[must_use]
    pub fn new(shards: usize, worker_exe: PathBuf, cache_path: PathBuf) -> Self {
        CoordinatorConfig {
            shards: shards.max(1),
            worker_exe,
            cache_path,
            workers_per_shard: 0,
            thresholds: Thresholds::default(),
            heartbeat_timeout: Duration::from_millis(10_000),
            deadline: None,
            restart_budget: 3,
            fault_plan: Plan::new(),
            sink: None,
            stop: None,
        }
    }
}

/// What one shard went through, for `/metrics`, `/healthz`, and tests.
#[derive(Debug, Clone, Default)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Victims in the shard's slice.
    pub victims: usize,
    /// Worker restarts performed.
    pub restarts: u32,
    /// Heartbeat deadlines missed (each one kills an incarnation).
    pub heartbeat_misses: u32,
    /// Stdout lines that were not JSON, or verdict lines the strict reader
    /// ([`pcv_xtalk::NetVerdict::from_json`]) rejected. They still count as
    /// heartbeats; their verdicts arrive through the journal harvest.
    pub malformed_lines: usize,
    /// Whether the restart budget ran out (WorstCase fill applied).
    pub exhausted: bool,
    /// Torn journal lines the shard's replays skipped (worker-reported,
    /// plus what the coordinator's own harvest load skipped).
    pub torn_journal_lines: usize,
    /// Peak worker heap, bytes (0 when allocation tracking is off).
    pub peak_alloc_bytes: u64,
    /// What the merge harvested from the shard's files, and filled in.
    pub harvest: ShardContribution,
}

/// A completed sharded run: the merged report plus per-shard telemetry.
#[derive(Debug)]
pub struct ShardRunOutcome {
    /// The merged report; `signoff_json()` is byte-identical to an
    /// unsharded run (plus any budget-exhaustion degradations).
    pub report: EngineReport,
    /// Per-shard supervision statistics, indexed by shard.
    pub shards: Vec<ShardStats>,
}

impl ShardRunOutcome {
    /// Total restarts across shards.
    #[must_use]
    pub fn restarts(&self) -> u64 {
        self.shards.iter().map(|s| u64::from(s.restarts)).sum()
    }

    /// Total heartbeat misses across shards.
    #[must_use]
    pub fn heartbeat_misses(&self) -> u64 {
        self.shards.iter().map(|s| u64::from(s.heartbeat_misses)).sum()
    }

    /// Shards that exhausted their restart budget.
    #[must_use]
    pub fn degraded_shards(&self) -> u64 {
        self.shards.iter().filter(|s| s.exhausted).count() as u64
    }
}

/// Tear the journal's final line mid-frame (what a crash mid-append
/// leaves behind) — the replay must drop exactly that line.
fn tear_journal_tail(path: &Path) {
    if let Ok(bytes) = std::fs::read(path) {
        if bytes.len() > 8 {
            let _ = std::fs::write(path, &bytes[..bytes.len() - 7]);
        }
    }
}

/// Append a copy of the journal's last intact record — replay must
/// dedupe by victim name, not double-count.
fn duplicate_journal_tail(path: &Path) {
    if let Ok(text) = std::fs::read_to_string(path) {
        if let Some(last) = text.lines().rfind(|l| !l.is_empty()) {
            let mut f = match std::fs::OpenOptions::new().append(true).open(path) {
                Ok(f) => f,
                Err(_) => return,
            };
            let _ = writeln!(f, "{last}");
        }
    }
}

/// How many streamed verdicts of an `n`-victim slice a
/// [`ShardFault::SigkillAtFrac`] drill waits for: `⌈frac·n⌉`, at least one.
/// The worker lets exactly that many clusters finish before it holds.
fn kill_point(frac: f64, slice_len: usize) -> usize {
    ((frac * slice_len as f64).ceil() as usize).max(1)
}

/// One supervisor's terminal state.
struct ShardResult {
    stats: ShardStats,
    exhausted_reason: Option<String>,
    timed_out: bool,
}

struct ShardJob<'a> {
    coord: &'a Coordinator,
    shard: usize,
    slice_len: usize,
    cache: PathBuf,
    deadline: Option<Instant>,
    snapshot: Arc<VerdictSnapshot>,
}

fn spawn_worker(
    job: &ShardJob,
    drills: &[ShardFault],
) -> std::io::Result<(Child, mpsc::Receiver<String>)> {
    let mut child = Command::new(&job.coord.cfg.worker_exe)
        .arg("--shard-worker")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()?;
    let line = job.coord.worker_config_line(job.shard, job.slice_len, &job.cache, drills);
    if let Some(mut stdin) = child.stdin.take() {
        let _ = writeln!(stdin, "{line}");
        // Dropping stdin closes the pipe; the worker has its one line.
    }
    let stdout = child.stdout.take().expect("piped stdout");
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let reader = BufReader::new(stdout);
        for read in reader.lines() {
            let Ok(l) = read else { break };
            if tx.send(l).is_err() {
                break;
            }
        }
        // EOF drops tx; the supervisor sees Disconnected.
    });
    Ok((child, rx))
}

/// Why one worker incarnation ended.
enum Exit {
    Done { peak: u64, torn: usize },
    Crashed,
    Stalled,
    TimedOut,
}

fn supervise_incarnation(
    job: &ShardJob,
    child: &mut Child,
    rx: &mpsc::Receiver<String>,
    drills: &[ShardFault],
    stats: &mut ShardStats,
) -> Exit {
    let heartbeat_timeout = job.coord.cfg.heartbeat_timeout;
    // Nets on the chip: the bound a streamed verdict's `net` must respect.
    let nets = job.coord.chip.num_nets();
    let mut emitted = 0usize;
    let mut kill_at = drills.iter().find_map(|d| match d {
        ShardFault::SigkillAtFrac(frac) => Some(kill_point(*frac, job.slice_len)),
        _ => None,
    });
    loop {
        let wait = match job.deadline {
            Some(d) => {
                let Some(left) = d.checked_duration_since(Instant::now()) else {
                    let _ = child.kill();
                    return Exit::TimedOut;
                };
                heartbeat_timeout.min(left)
            }
            None => heartbeat_timeout,
        };
        match rx.recv_timeout(wait) {
            Ok(line) => {
                job.snapshot.beat();
                match read_stream_line(&line, nets) {
                    StreamLine::Hello { torn: Some(t) } => {
                        stats.torn_journal_lines = stats.torn_journal_lines.max(t);
                    }
                    StreamLine::Verdict(verdict) => {
                        // The stream only feeds the live snapshot; a line
                        // the strict reader rejects is dropped here, and the
                        // verdict still arrives through the journal harvest.
                        match verdict {
                            Some(v) => job.snapshot.insert(v),
                            None => stats.malformed_lines += 1,
                        }
                        emitted += 1;
                        if kill_at.is_some_and(|n| emitted >= n) {
                            kill_at = None;
                            let _ = child.kill();
                            // The drill *is* the crash; fall through to
                            // EOF → restart like any real kill -9.
                        }
                    }
                    StreamLine::Done { peak, torn } => return Exit::Done { peak, torn },
                    StreamLine::Malformed => stats.malformed_lines += 1,
                    // Beats and anything future just prove liveness.
                    StreamLine::Hello { torn: None } | StreamLine::Beat => {}
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if let Some(d) = job.deadline {
                    if Instant::now() >= d {
                        let _ = child.kill();
                        return Exit::TimedOut;
                    }
                }
                if matches!(child.try_wait(), Ok(Some(_))) {
                    return Exit::Crashed;
                }
                stats.heartbeat_misses += 1;
                let _ = child.kill();
                return Exit::Stalled;
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => return Exit::Crashed,
        }
    }
}

fn supervise_shard(job: &ShardJob) -> ShardResult {
    let cfg = &job.coord.cfg;
    let site = job.shard.to_string();
    let mut stats =
        ShardStats { shard: job.shard, victims: job.slice_len, ..ShardStats::default() };
    let mut incarnation = 0u32;
    loop {
        if let Some(d) = job.deadline {
            if Instant::now() >= d {
                return ShardResult { stats, exhausted_reason: None, timed_out: true };
            }
        }
        let drills: Vec<ShardFault> = cfg.fault_plan.armed(&site, incarnation).copied().collect();
        let Ok((mut child, rx)) = spawn_worker(job, &drills) else {
            // Spawn failure burns a restart like any other incarnation
            // death — persistent spawn failure ends in WorstCase fill,
            // not a hung coordinator.
            stats.restarts += 1;
            if stats.restarts > cfg.restart_budget {
                return exhausted(job, stats);
            }
            incarnation += 1;
            backoff(incarnation);
            continue;
        };
        let exit = supervise_incarnation(job, &mut child, &rx, &drills, &mut stats);
        // After a done line the child is exiting on its own — killing it
        // here would race its natural exit and turn an honest completion
        // into a SIGKILL status. Everything else gets killed so a child is
        // never leaked.
        let status = match exit {
            Exit::Done { .. } => wait_bounded(&mut child, &rx, cfg.heartbeat_timeout),
            _ => {
                let _ = child.kill();
                child.wait()
            }
        };
        match exit {
            Exit::Done { peak, torn } => {
                if matches!(&status, Ok(s) if s.success()) {
                    stats.peak_alloc_bytes = stats.peak_alloc_bytes.max(peak);
                    stats.torn_journal_lines = stats.torn_journal_lines.max(torn);
                    return ShardResult { stats, exhausted_reason: None, timed_out: false };
                }
                // A done line from a worker that then failed is not
                // trustworthy; treat as a crash.
            }
            Exit::TimedOut => {
                return ShardResult { stats, exhausted_reason: None, timed_out: true }
            }
            Exit::Crashed | Exit::Stalled => {}
        }
        // Post-mortem journal drills: corrupt the shard journal the way a
        // real crash can, *between* death and restart, so the replacement
        // incarnation's replay proves the tolerance.
        let journal = pcv_engine::Journal::path_for(&job.cache);
        if drills.contains(&ShardFault::TornJournal) {
            tear_journal_tail(&journal);
        }
        if drills.contains(&ShardFault::DuplicateEntry) {
            duplicate_journal_tail(&journal);
        }
        stats.restarts += 1;
        if stats.restarts > cfg.restart_budget {
            return exhausted(job, stats);
        }
        incarnation += 1;
        backoff(incarnation);
    }
}

fn exhausted(job: &ShardJob, mut stats: ShardStats) -> ShardResult {
    stats.exhausted = true;
    let reason = format!(
        "shard {} worker exhausted restart budget ({} restarts)",
        job.shard, job.coord.cfg.restart_budget
    );
    ShardResult { stats, exhausted_reason: Some(reason), timed_out: false }
}

/// Wait for a child's natural exit after its done line, but never past
/// `limit` — a worker that said "done" yet won't die still gets reaped.
/// The worker's stdout closes as it exits, so the stream reader's channel
/// disconnecting is the signal to reap: no polling.
fn wait_bounded(
    child: &mut Child,
    rx: &mpsc::Receiver<String>,
    limit: Duration,
) -> std::io::Result<std::process::ExitStatus> {
    let deadline = Instant::now() + limit;
    loop {
        match rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
            // Nothing after the done line counts; keep draining to EOF.
            Ok(_) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => return child.wait(),
            Err(mpsc::RecvTimeoutError::Timeout) => {
                let _ = child.kill();
                return child.wait();
            }
        }
    }
}

/// Exponential backoff: 50 ms doubling per restart, capped at 2 s.
fn backoff(incarnation: u32) {
    let ms = 50u64.saturating_mul(1u64 << incarnation.saturating_sub(1).min(6));
    std::thread::sleep(Duration::from_millis(ms.min(2_000)));
}

/// The coordinator: owns the chip view, the shard topology, and the
/// merge. Construct one per sharded run.
pub struct Coordinator {
    spec: DesignSpec,
    chip: Arc<ResidentChip>,
    cfg: CoordinatorConfig,
}

impl Coordinator {
    /// A coordinator for `chip`, which must be the elaboration of `spec`
    /// (workers re-elaborate from the spec and must agree on net ids).
    #[must_use]
    pub fn new(spec: DesignSpec, chip: Arc<ResidentChip>, cfg: CoordinatorConfig) -> Self {
        Coordinator { spec, chip, cfg }
    }

    /// Shard `k`'s cache stem.
    #[must_use]
    pub fn shard_cache(&self, shard: usize) -> PathBuf {
        PathBuf::from(format!("{}.shard{shard}", self.cfg.cache_path.display()))
    }

    /// The one config line a worker incarnation reads: the design, its
    /// slice, the thresholds, and a key for each armed drill the worker
    /// takes part in (the journal drills are the supervisor's alone).
    pub(crate) fn worker_config_line(
        &self,
        shard: usize,
        slice_len: usize,
        cache: &Path,
        drills: &[ShardFault],
    ) -> String {
        pcv_trace::json::object(|o| {
            self.spec.write_members(o);
            o.raw("shards", self.cfg.shards).raw("shard", shard);
            o.str("cache", &cache.display().to_string());
            o.raw("workers", self.cfg.workers_per_shard);
            self.cfg.thresholds.write_members(o);
            for drill in drills {
                match drill {
                    ShardFault::PanicAfter(n) => o.raw("panic_after", n),
                    ShardFault::StallAfter(n) => o.raw("stall_after", n),
                    ShardFault::SigkillAtFrac(frac) => {
                        o.raw("hold_after", kill_point(*frac, slice_len))
                    }
                    ShardFault::TornJournal | ShardFault::DuplicateEntry => o,
                };
            }
        })
    }

    /// Run the sharded sign-off: fan out, supervise, merge, prove.
    ///
    /// `snapshot`, when given, is mirrored live: worker verdict lines are
    /// inserted as they stream in (bumping `beats`, which keeps the
    /// daemon's stall watchdog honest), and idle worker beats tick it too.
    ///
    /// # Errors
    ///
    /// [`ApiError::Timeout`] when the run deadline expires;
    /// [`ApiError::Internal`] for merge-journal I/O failures; engine
    /// errors from the merge run mapped through `From<XtalkError>`.
    pub fn run(
        &self,
        snapshot: Option<&Arc<VerdictSnapshot>>,
    ) -> Result<ShardRunOutcome, ApiError> {
        let slices = partition(&self.chip, self.chip.victims(), self.cfg.shards);
        let deadline = self.cfg.deadline.map(|d| Instant::now() + d);
        let own_snapshot = Arc::new(VerdictSnapshot::new());

        let results: Vec<ShardResult> = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(slices.len());
            for (k, slice) in slices.iter().enumerate() {
                let job = ShardJob {
                    coord: self,
                    shard: k,
                    slice_len: slice.len(),
                    cache: self.shard_cache(k),
                    deadline,
                    snapshot: snapshot.map_or_else(|| Arc::clone(&own_snapshot), Arc::clone),
                };
                handles.push(scope.spawn(move || supervise_shard(&job)));
            }
            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|_| ShardResult {
                        stats: ShardStats::default(),
                        exhausted_reason: None,
                        timed_out: true,
                    })
                })
                .collect()
        });

        if results.iter().any(|r| r.timed_out) {
            return Err(ApiError::Timeout(format!(
                "sharded run exceeded its deadline of {:?}",
                self.cfg.deadline.unwrap_or_default()
            )));
        }

        // Merge: harvest every shard's files, fill exhausted shards with
        // WorstCase, write one journal, resume in-process.
        // The merge run's configuration — the resolution a single-process
        // run of these thresholds gets, and each worker's (`worker.rs`).
        let mut ecfg = self.cfg.thresholds.engine_config(0, self.cfg.cache_path.clone());
        let mut entries = Vec::new();
        let mut shard_stats = Vec::with_capacity(results.len());
        for (k, result) in results.into_iter().enumerate() {
            let (es, contrib) = harvest_shard(
                &self.chip,
                &ecfg,
                &slices[k],
                &self.shard_cache(k),
                result.exhausted_reason.as_deref(),
            );
            entries.extend(es);
            let mut stats = result.stats;
            stats.torn_journal_lines = stats.torn_journal_lines.max(contrib.torn_lines);
            stats.harvest = contrib;
            shard_stats.push(stats);
        }
        write_merged_journal(&self.chip, &ecfg, &entries)
            .map_err(|e| ApiError::Internal(format!("merged journal: {e}")))?;

        ecfg.sink = self.cfg.sink.clone();
        ecfg.stop = self.cfg.stop.clone();
        let report = Engine::new(ecfg).run(RunRequest {
            resume: true,
            snapshot: snapshot.map(Arc::as_ref),
            ..RunRequest::resident(&self.chip)
        })?;
        Ok(ShardRunOutcome { report, shards: shard_stats })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_config_lines_are_pinned() {
        let mut db = pcv_netlist::ParasiticDb::new();
        let mut net = pcv_netlist::NetParasitics::new("v0");
        let far = net.add_node();
        net.add_resistor(0, far, 150.0);
        net.add_ground_cap(far, 8e-15);
        net.mark_load(far);
        db.add_net(net);
        let spec = DesignSpec::Spef {
            text: pcv_netlist::spef::write_spef(&db),
            drive_ohms: 1000.0,
            victims: crate::VictimSel::Named(vec!["v0".into()]),
        };
        let chip = Arc::new(crate::session::elaborate(&spec).unwrap());
        let mut cfg = CoordinatorConfig::new(3, "/bin/true".into(), "/tmp/s.cache".into());
        cfg.workers_per_shard = 2;
        let plain = Coordinator::new(spec.clone(), Arc::clone(&chip), cfg.clone());
        cfg.thresholds = Thresholds {
            warn_frac: Some(0.1),
            fail_frac: Some(0.30000000000000004),
            check_receivers: Some(false),
        };
        let drilled = Coordinator::new(spec, chip, cfg);
        let cache = Path::new("/tmp/s \"1\"\\.cache.shard1");
        let lines = [
            plain.worker_config_line(0, 5, cache, &[]),
            drilled.worker_config_line(1, 5, cache, &[ShardFault::PanicAfter(2)]),
            drilled.worker_config_line(1, 5, cache, &[ShardFault::StallAfter(0)]),
            drilled.worker_config_line(2, 5, cache, &[ShardFault::SigkillAtFrac(0.5)]),
            drilled.worker_config_line(
                2,
                7,
                cache,
                &[
                    ShardFault::TornJournal,
                    ShardFault::SigkillAtFrac(0.25),
                    ShardFault::DuplicateEntry,
                ],
            ),
        ];
        assert_eq!(
            lines,
            [
                concat!(
                    "{\"design\":{\"kind\":\"spef\",\"text\":\"*SPEF pcv-lite 1.0\\n",
                    "*NET v0 2\\n*LOAD 1\\n*R 0 1 1.5e2\\n*GC 1 8e-15\\n*END\\n\"",
                    ",\"drive_ohms\":1000.0,\"victims\":[\"v0\"]},\"shards\":3,\"shard\":0",
                    ",\"cache\":\"/tmp/s \\\"1\\\"\\\\.cache.shard1\",\"workers\":2}",
                ),
                concat!(
                    "{\"design\":{\"kind\":\"spef\",\"text\":\"*SPEF pcv-lite 1.0\\n",
                    "*NET v0 2\\n*LOAD 1\\n*R 0 1 1.5e2\\n*GC 1 8e-15\\n*END\\n\"",
                    ",\"drive_ohms\":1000.0,\"victims\":[\"v0\"]},\"shards\":3,\"shard\":1",
                    ",\"cache\":\"/tmp/s \\\"1\\\"\\\\.cache.shard1\",\"workers\":2",
                    ",\"warn_frac\":0.1,\"fail_frac\":0.30000000000000004",
                    ",\"check_receivers\":false,\"panic_after\":2}",
                ),
                concat!(
                    "{\"design\":{\"kind\":\"spef\",\"text\":\"*SPEF pcv-lite 1.0\\n",
                    "*NET v0 2\\n*LOAD 1\\n*R 0 1 1.5e2\\n*GC 1 8e-15\\n*END\\n\"",
                    ",\"drive_ohms\":1000.0,\"victims\":[\"v0\"]},\"shards\":3,\"shard\":1",
                    ",\"cache\":\"/tmp/s \\\"1\\\"\\\\.cache.shard1\",\"workers\":2",
                    ",\"warn_frac\":0.1,\"fail_frac\":0.30000000000000004",
                    ",\"check_receivers\":false,\"stall_after\":0}",
                ),
                concat!(
                    "{\"design\":{\"kind\":\"spef\",\"text\":\"*SPEF pcv-lite 1.0\\n",
                    "*NET v0 2\\n*LOAD 1\\n*R 0 1 1.5e2\\n*GC 1 8e-15\\n*END\\n\"",
                    ",\"drive_ohms\":1000.0,\"victims\":[\"v0\"]},\"shards\":3,\"shard\":2",
                    ",\"cache\":\"/tmp/s \\\"1\\\"\\\\.cache.shard1\",\"workers\":2",
                    ",\"warn_frac\":0.1,\"fail_frac\":0.30000000000000004",
                    ",\"check_receivers\":false,\"hold_after\":3}",
                ),
                concat!(
                    "{\"design\":{\"kind\":\"spef\",\"text\":\"*SPEF pcv-lite 1.0\\n",
                    "*NET v0 2\\n*LOAD 1\\n*R 0 1 1.5e2\\n*GC 1 8e-15\\n*END\\n\"",
                    ",\"drive_ohms\":1000.0,\"victims\":[\"v0\"]},\"shards\":3,\"shard\":2",
                    ",\"cache\":\"/tmp/s \\\"1\\\"\\\\.cache.shard1\",\"workers\":2",
                    ",\"warn_frac\":0.1,\"fail_frac\":0.30000000000000004",
                    ",\"check_receivers\":false,\"hold_after\":2}",
                ),
            ]
        );
    }

    #[test]
    fn backoff_is_bounded() {
        // Just exercise the arithmetic paths (no sleep assertions — the
        // cap is the contract).
        for i in 0..40 {
            let ms = 50u64.saturating_mul(1u64 << i.min(6)).min(2_000);
            assert!(ms <= 2_000);
        }
    }

    #[test]
    fn shard_cache_paths_are_distinct() {
        let cfg = CoordinatorConfig::new(4, "/bin/true".into(), "/tmp/s.cache".into());
        let spec = DesignSpec::from_json(
            "{\"design\":{\"kind\":\"dsp\",\"buses\":1,\"bits\":2,\"random\":0}}",
        )
        .unwrap();
        let chip = Arc::new(crate::session::elaborate(&spec).unwrap());
        let c = Coordinator::new(spec, chip, cfg);
        let mut seen = std::collections::HashSet::new();
        for k in 0..4 {
            assert!(seen.insert(c.shard_cache(k)));
        }
    }
}
