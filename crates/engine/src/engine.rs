//! The engine proper: shard victims into cluster jobs, run them on the
//! worker pool (one shared job cursor), and merge a deterministic report.

use crate::durable::StopFlag;
use crate::fault::Plan;
use crate::fingerprint::{chip_slice_fingerprint, config_hash, pruned_fingerprint, NetDigests};
use crate::fs::Fs;
use crate::record::JournalEntry;
use crate::recovery::{self, AttemptOk, Degradation, FaultKind, RecoveryRung};
use crate::report::{ClusterCost, EngineError, EngineReport, EngineStats};
use crate::resident::{ResidentChip, VerdictSnapshot};
use crate::scheduler;
use crate::store::{RunStore, Source};
use pcv_netlist::PNetId;
use pcv_obs::{EngineEvent, EventSink, RunRecord};
use pcv_xtalk::prune::{Cluster, PruneConfig};
use pcv_xtalk::{
    check_receiver_propagation, AnalysisContext, AnalysisOptions, ChipReport, NetVerdict,
    PreparedCluster, ReceiverVerdict, Severity, XtalkError,
};
use std::borrow::Cow;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Engine configuration.
#[derive(Clone)]
pub struct EngineConfig {
    /// Worker threads; `0` means one per available core.
    pub workers: usize,
    /// Pruning parameters: each victim's cluster is
    /// [`pcv_xtalk::prune_victim`]'s under them.
    pub prune: PruneConfig,
    /// Analysis knobs for both glitch polarities of every cluster.
    pub analysis: AnalysisOptions,
    /// Warning threshold as a fraction of Vdd.
    pub warn_frac: f64,
    /// Violation threshold as a fraction of Vdd.
    pub fail_frac: f64,
    /// Replay the worse-polarity glitch of every victim at or above
    /// [`Severity::Warning`] into its receiving cell
    /// ([`pcv_xtalk::check_receiver_propagation`]), in-job.
    pub check_receivers: bool,
    /// Incremental result store; `None` disables caching.
    pub cache_path: Option<PathBuf>,
    /// Collect a structured trace of the run ([`pcv_trace`]): spans for
    /// every pipeline stage, solver counters, queue-depth histograms. The
    /// merged trace lands in [`EngineReport::trace`]; with `cache_path`
    /// set, Chrome-trace and profile JSON files are also written next to
    /// the cache. Off by default — instrumentation then costs one relaxed
    /// atomic load per site.
    pub trace: bool,
    /// Streaming lifecycle-event sink ([`pcv_obs::EventSink`]): run
    /// start/finish, cluster queue/start/finish, cache hits, retries,
    /// degradations. Events fire from worker threads as they happen — they
    /// carry wall-clock data and exist strictly outside the deterministic
    /// report path. `None` (the default) costs nothing.
    pub sink: Option<Arc<dyn EventSink>>,
    /// Cooperative stop: once raised, the run drains — jobs already
    /// started finish and are checkpointed, the rest are skipped — and
    /// returns an [interrupted](EngineReport::interrupted), resumable
    /// report. `None` (the default) makes the run uninterruptible.
    pub stop: Option<StopFlag>,
    /// The I/O handle every persisted artifact goes through — swap in
    /// [`Fs::with_faults`] to chaos-drill the storage layer. The checkpoint
    /// journal and the run lock are not knobs: both are on whenever
    /// `cache_path` is set.
    pub fs: Fs,
}

impl EngineConfig {
    /// [`config_hash`] of this configuration over `ctx`: the hash every
    /// process that takes part in a run — batch, daemon, ECO planner, shard
    /// coordinator and worker — mixes into its cluster fingerprints.
    pub fn config_hash(&self, ctx: &AnalysisContext<'_>) -> u64 {
        config_hash(
            ctx,
            &self.prune,
            &self.analysis,
            self.warn_frac,
            self.fail_frac,
            self.check_receivers,
        )
    }
}

impl std::fmt::Debug for EngineConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineConfig")
            .field("workers", &self.workers)
            .field("prune", &self.prune)
            .field("analysis", &self.analysis)
            .field("warn_frac", &self.warn_frac)
            .field("fail_frac", &self.fail_frac)
            .field("check_receivers", &self.check_receivers)
            .field("cache_path", &self.cache_path)
            .field("trace", &self.trace)
            .field("sink", &self.sink.as_ref().map(|_| "<EventSink>"))
            .field("stop", &self.stop)
            .field("fs", &self.fs)
            .finish()
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 0,
            prune: PruneConfig::default(),
            analysis: AnalysisOptions::default(),
            warn_frac: 0.1,
            fail_frac: 0.2,
            check_receivers: false,
            cache_path: None,
            trace: false,
            sink: None,
            stop: None,
            fs: Fs::default(),
        }
    }
}

/// Parallel, fault-isolated, incremental chip-verification engine.
///
/// [`Engine::run`] is the one code that turns victims into a
/// [`ChipReport`]. When every job succeeds, the report is the same —
/// verdict for verdict, bit for bit — for any worker count, scheduling
/// order or cache state; the golden reports record it.
#[derive(Debug, Clone, Default)]
pub struct Engine {
    /// Configuration every run of this engine uses.
    pub config: EngineConfig,
    plan: Plan<FaultKind>,
}

/// What one [`Engine::run`] audits and how it starts — plain data, built
/// with struct-update syntax over its one constructor:
/// `RunRequest { resume: true, ..RunRequest::resident(&chip) }`.
#[derive(Clone, Copy)]
pub struct RunRequest<'a> {
    /// The elaborated chip the run audits: its context, and the coupling
    /// component sizes it computed at elaboration.
    pub chip: &'a ResidentChip,
    /// The victims to audit, in input order. A shard worker narrows the
    /// chip's list to its own slice; the context stays the full chip so
    /// cluster fingerprints match every other process's.
    pub victims: &'a [PNetId],
    /// First replay the checkpoint journal a previous (interrupted or
    /// killed) run left next to the cache. With no journal on disk — or
    /// one from a different config or victim list — the run simply
    /// starts fresh.
    pub resume: bool,
    /// Publish every completed verdict here as the run progresses, so
    /// concurrent readers can serve per-net partial results mid-run.
    pub snapshot: Option<&'a VerdictSnapshot>,
}

impl<'a> RunRequest<'a> {
    /// A from-scratch run of every victim of `chip`.
    pub fn resident(chip: &'a ResidentChip) -> Self {
        RunRequest { chip, victims: chip.victims(), resume: false, snapshot: None }
    }
}

/// Outcome of one completed cluster job.
struct JobOk {
    verdict: NetVerdict,
    cluster: Cluster,
    /// Where the record was adopted from; `None` when this run analyzed it.
    source: Option<Source>,
    /// The record behind the verdict, for the end-of-run cache save —
    /// `None` when the cache is where it came from.
    record: Option<JournalEntry>,
    degradation: Option<Degradation>,
    prune: Duration,
    analysis: Duration,
    receiver: Duration,
}

/// What the merge of a run's job results yields: the report's parts, the
/// records to fold into the cache, and [`EngineStats`]' counts and sums.
struct Merged {
    chip: ChipReport,
    costs: Vec<ClusterCost>,
    errors: Vec<EngineError>,
    degradations: Vec<Degradation>,
    fresh: Vec<JournalEntry>,
    stats: EngineStats,
}

/// Deterministic merge: collect the job results in input order, then sort
/// stably ([`ChipReport::from_verdicts`]), so the merged report is
/// independent of scheduling.
fn merge(
    ctx: &AnalysisContext<'_>,
    victims: &[PNetId],
    results: Vec<Result<Option<JobOk>, String>>,
    warn_frac: f64,
    fail_frac: f64,
) -> Merged {
    let _span = pcv_trace::span("engine", "merge");
    let mut verdicts = Vec::with_capacity(victims.len());
    let mut clusters = Vec::with_capacity(victims.len());
    let mut costs: Vec<ClusterCost> = Vec::with_capacity(victims.len());
    let mut errors = Vec::new();
    let mut degradations: Vec<Degradation> = Vec::new();
    let mut fresh: Vec<JournalEntry> = Vec::new();
    let mut stats = EngineStats { victims: victims.len(), ..EngineStats::default() };
    for (i, result) in results.into_iter().enumerate() {
        let ok = match result {
            Ok(Some(ok)) => ok,
            Ok(None) => {
                // Skipped after a stop request: no verdict, no error —
                // the cluster is simply left for the resume run.
                stats.skipped += 1;
                continue;
            }
            // Analysis failures and panics end in the ladder; only a
            // panic outside its per-attempt isolation (pruning, say)
            // lands here, and it is the one way a victim goes without
            // a verdict.
            Err(panic) => {
                errors.push(EngineError {
                    net: victims[i],
                    name: ctx.db.net(victims[i]).name().to_owned(),
                    stage: "baseline".to_owned(),
                    message: format!("job panicked: {panic}"),
                });
                continue;
            }
        };
        match ok.source {
            Some(Source::Journal) => stats.journal_hits += 1,
            Some(Source::Cache) => stats.cache_hits += 1,
            None => stats.cache_misses += 1,
        }
        fresh.extend(ok.record);
        stats.prune_time += ok.prune;
        stats.analysis_time += ok.analysis;
        stats.receiver_time += ok.receiver;
        if let Some(d) = ok.degradation {
            // A worst-cased cluster also surfaces as a structured error
            // record: the last attempt names the stage and reason the
            // analysis gave up on.
            if d.recovered == RecoveryRung::WorstCase {
                let (stage, message) = match d.attempts.last() {
                    Some(a) => (a.rung.name().to_owned(), a.reason.clone()),
                    None => ("baseline".to_owned(), "no attempt recorded".to_owned()),
                };
                errors.push(EngineError { net: d.net, name: d.name.clone(), stage, message });
            }
            stats.recovery_time += d.recovery_time();
            degradations.push(d);
        }
        costs.push(ClusterCost {
            net: ok.verdict.net,
            name: ok.verdict.name.clone(),
            cluster_size: ok.verdict.cluster_size,
            cached: ok.source == Some(Source::Cache),
            prune: ok.prune,
            analysis: ok.analysis,
            receiver: ok.receiver,
        });
        verdicts.push(ok.verdict);
        clusters.push(ok.cluster);
    }
    stats.degraded = degradations.len();
    // Most expensive first; the stable sort keeps ties in input order.
    costs.sort_by_key(|c| std::cmp::Reverse(c.total()));
    let chip = ChipReport::from_verdicts(verdicts, &clusters, warn_frac, fail_frac);
    Merged { chip, costs, errors, degradations, fresh, stats }
}

impl Engine {
    /// Engine with the given configuration.
    pub fn new(config: EngineConfig) -> Self {
        Engine { config, plan: Plan::new() }
    }

    /// Install a deterministic fault-injection plan (replacing any previous
    /// one): sites are victim names, occurrences ladder attempts — see
    /// [`FaultKind`].
    pub fn set_fault_plan(&mut self, plan: Plan<FaultKind>) {
        self.plan = plan;
    }

    /// [`Engine::run`] from scratch over a whole [`ResidentChip`],
    /// publishing into `snapshot` when one is given.
    ///
    /// # Errors
    ///
    /// Same contract as [`Engine::run`].
    pub fn verify_resident(
        &self,
        chip: &ResidentChip,
        snapshot: Option<&VerdictSnapshot>,
    ) -> Result<EngineReport, XtalkError> {
        self.run(RunRequest { snapshot, ..RunRequest::resident(chip) })
    }

    /// Audit the request's victims: prune, analyze and classify each one
    /// as a parallel cluster job, then merge the report in input order —
    /// the one way a run starts, whatever the request asks for.
    ///
    /// A cluster whose analysis errors or panics walks the recovery ladder
    /// and, at worst, ends with a conservative verdict plus an
    /// [`EngineError`] record; the remaining victims are still fully
    /// reported. With [`RunRequest::resume`], journaled verdicts whose
    /// cluster fingerprint still matches the current netlist +
    /// configuration are adopted bit for bit and only the missing or stale
    /// clusters are recomputed, so the merged report — and in particular
    /// [`EngineReport::signoff_json`] — is byte-identical to an
    /// uninterrupted run.
    ///
    /// # Errors
    ///
    /// [`XtalkError::InvalidConfig`] for inconsistent thresholds or
    /// receiver checks without design/library data; [`XtalkError::Busy`]
    /// when another run holds the cache directory's lock. Per-victim
    /// analysis failures do **not** error — they land in
    /// [`EngineReport::errors`] — and journal damage never does: corrupt or
    /// torn records are skipped and their clusters recomputed.
    pub fn run(&self, request: RunRequest<'_>) -> Result<EngineReport, XtalkError> {
        self.run_in(request, self.trace_session())
    }

    /// The session of a traced run ([`EngineConfig::trace`]). An ECO opens it
    /// before its diff and plan, so one trace holds the whole turnaround.
    pub(crate) fn trace_session(&self) -> Option<pcv_trace::TraceSession> {
        self.config.trace.then(pcv_trace::TraceSession::start)
    }

    /// [`Engine::run`] inside `session`, which it finishes.
    pub(crate) fn run_in(
        &self,
        request: RunRequest<'_>,
        session: Option<pcv_trace::TraceSession>,
    ) -> Result<EngineReport, XtalkError> {
        let RunRequest { chip, victims, resume, snapshot } = request;
        let ctx = &chip.ctx();
        let cfg = &self.config;
        if cfg.warn_frac > cfg.fail_frac {
            return Err(XtalkError::InvalidConfig {
                what: "warning threshold must not exceed failure",
            });
        }
        if cfg.check_receivers {
            ctx.receiver_views()?;
        }
        let start = Instant::now();
        let host_parallelism = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        let workers = if cfg.workers == 0 { host_parallelism } else { cfg.workers };
        // Lifecycle events are strictly observational: they carry
        // wall-clock data and never feed back into the report, so the
        // emit sites below must stay out of anything deterministic.
        // An event (most own a `String`) is built only for a sink to receive.
        let sink = cfg.sink.as_deref();
        let emit = |build: &dyn Fn() -> EngineEvent| {
            if let Some(s) = sink {
                s.event(&build());
            }
        };
        emit(&|| EngineEvent::RunStarted { victims: victims.len(), workers });

        // Open the record store: run lock, cache, and the checkpoint journal
        // (on resume, the one a run of this config + chip slice left).
        let chash = cfg.config_hash(ctx);
        let chip_fp = chip_slice_fingerprint(ctx, victims);
        let mut store = RunStore::open(&cfg.fs, cfg.cache_path.as_deref(), chash, chip_fp, resume)?;
        if let Some(replayable) = store.replayable() {
            emit(&|| EngineEvent::RunResumed { replayable });
        }

        let stop = cfg.stop.as_ref();

        for &vic in victims {
            emit(&|| EngineEvent::ClusterQueued { name: ctx.db.net(vic).name().to_owned() });
        }

        // Per-net section digests, shared by the worker threads for the
        // length of this run: each net is hashed once, not once per
        // cluster it is a member of.
        let digests = NetDigests::new(ctx);

        let job = |i: usize| -> Option<JobOk> {
            let vic = victims[i];
            let name = ctx.db.net(vic).name();
            // Graceful drain: once a stop is requested, queued clusters
            // are skipped (in-flight ones run to completion so their
            // verdicts stay deterministic and get checkpointed).
            if stop.is_some_and(|s| s.is_stopped()) {
                pcv_trace::count("engine.durable.skipped", 1);
                emit(&|| EngineEvent::ClusterSkipped { name: name.to_owned() });
                return None;
            }
            let _job_span = pcv_trace::span_labeled("engine", "cluster_job", || name.to_owned());
            let job_start = Instant::now();
            emit(&|| EngineEvent::ClusterStarted { name: name.to_owned() });
            let t = Instant::now();
            // The component sizes are the chip's, computed at elaboration.
            let sizes = chip.component_sizes();
            let (cluster, fp) = pruned_fingerprint(ctx, vic, &cfg.prune, sizes, chash, &digests);
            let prune = t.elapsed();

            let stored = store.adopt(name, fp);
            let source = stored.map(|(_, source)| source);
            let (record, analysis, receiver) = match stored {
                Some((e, Source::Journal)) => {
                    pcv_trace::count("engine.journal.replays", 1);
                    emit(&|| EngineEvent::ClusterReplayed { name: name.to_owned() });
                    (Cow::Borrowed(e), Duration::ZERO, Duration::ZERO)
                }
                Some((e, Source::Cache)) => {
                    pcv_trace::count("engine.cache.hits", 1);
                    emit(&|| EngineEvent::CacheHit { name: name.to_owned() });
                    (Cow::Borrowed(e), Duration::ZERO, Duration::ZERO)
                }
                None => {
                    pcv_trace::count("engine.cache.misses", 1);
                    emit(&|| EngineEvent::CacheMiss { name: name.to_owned() });
                    let mut prepared = None;
                    let (fresh, analysis, receiver) = recovery::walk(
                        ctx,
                        &cfg.analysis,
                        &self.plan,
                        name,
                        fp,
                        &emit,
                        |actx, opts| self.run_attempt(actx, &cluster, name, opts, &mut prepared),
                    );
                    store.checkpoint(&fresh);
                    (Cow::Owned(fresh), analysis, receiver)
                }
            };
            let (verdict, degradation) =
                record.verdict(vic, &cluster, cfg.analysis.vdd, cfg.warn_frac, cfg.fail_frac);
            emit(&|| EngineEvent::ClusterFinished {
                name: name.to_owned(),
                cached: source == Some(Source::Cache),
                elapsed: job_start.elapsed(),
            });
            // Replayed records flow into the cache save at the end of this
            // run too: the interrupted run never saved them.
            let record = (source != Some(Source::Cache)).then(|| record.into_owned());
            // Mid-run read side: the verdict is published the moment its job
            // is done, before the merge — readers polling a resident run see
            // partial results grow monotonically.
            if let Some(snap) = snapshot {
                snap.insert(verdict.clone());
            }
            Some(JobOk { verdict, cluster, source, record, degradation, prune, analysis, receiver })
        };
        let jobs_span = pcv_trace::span("engine", "jobs");
        let (results, worker_busy) = scheduler::run(workers, victims.len(), job);
        drop(jobs_span);

        let Merged { chip, costs, errors, degradations, fresh, mut stats } =
            merge(ctx, victims, results, cfg.warn_frac, cfg.fail_frac);
        stats.workers = workers;
        stats.worker_busy = worker_busy;

        let interrupted = stop.is_some_and(|s| s.is_stopped());
        if interrupted {
            let skipped = stats.skipped;
            emit(&|| EngineEvent::RunStopped { completed: victims.len() - skipped, skipped });
        }

        // Close. The ledger's record is taken after the cache save, so the
        // wall time (and the heap peak) of the run cover it.
        store.close(fresh, interrupted, || {
            let mem = pcv_obs::mem::snapshot().unwrap_or_default();
            stats.peak_alloc_bytes = mem.peak_bytes;
            stats.allocs = mem.allocs;
            stats.wall_time = start.elapsed();
            emit(&|| EngineEvent::RunFinished {
                victims: victims.len(),
                wall: stats.wall_time,
                cache_hits: stats.cache_hits,
                degraded: stats.degraded,
            });
            // Read the sink's shed counter only after the final event
            // fired, so a drop of RunFinished itself is still accounted for.
            stats.events_dropped = sink.map(|s| s.dropped()).unwrap_or(0);
            let ms = |d: Duration| d.as_secs_f64() * 1e3;
            RunRecord {
                config_fingerprint: chash,
                chip_fingerprint: chip_fp,
                outcome: if interrupted { "stopped".to_owned() } else { "complete".to_owned() },
                journal_hits: stats.journal_hits,
                skipped: stats.skipped,
                victims: victims.len(),
                workers,
                host_parallelism,
                cache_hits: stats.cache_hits,
                cache_misses: stats.cache_misses,
                degraded: stats.degraded,
                errors: errors.len(),
                wall_ms: ms(stats.wall_time),
                prune_ms: ms(stats.prune_time),
                analysis_ms: ms(stats.analysis_time),
                receiver_ms: ms(stats.receiver_time),
                recovery_ms: ms(stats.recovery_time),
                peak_alloc_bytes: mem.peak_bytes,
                allocs: mem.allocs,
            }
        });
        let trace = session.map(|s| s.finish());
        let report =
            EngineReport { chip, errors, degradations, stats, clusters: costs, trace, interrupted };
        // Traced runs with a cache location drop their artifacts next to
        // the cache file (best-effort, like the cache save itself).
        if report.trace.is_some() {
            if let Some(path) = cfg.cache_path.as_deref() {
                let _ = report.write_profile_with(&cfg.fs, path);
            }
        }
        Ok(report)
    }

    /// One full analysis at one ladder rung: both glitch polarities from the
    /// one prepared cluster, then the receiver check when the verdict is
    /// severe enough. `opts` carries the rung's (possibly adjusted) analysis
    /// options; `prepared` is the job's cluster, assembled by the first
    /// attempt that needs it and kept across rungs, so an attempt reduces at
    /// most once and never rebuilds the RC model.
    fn run_attempt(
        &self,
        ctx: &AnalysisContext<'_>,
        cluster: &Cluster,
        name: &str,
        opts: &AnalysisOptions,
        prepared: &mut Option<PreparedCluster>,
    ) -> Result<AttemptOk, XtalkError> {
        let cfg = &self.config;
        let t = Instant::now();
        let mut glitch = |rising: bool| {
            prepared
                .get_or_insert_with(|| PreparedCluster::new(ctx, cluster, opts))
                .glitch(ctx, rising, opts)
        };
        let (rise, fall, worse) = if cluster.aggressors.is_empty() {
            (0.0, 0.0, None)
        } else {
            let up = glitch(true)?;
            let down = glitch(false)?;
            let (rise, fall) = (up.peak, down.peak);
            let worse = if rise.abs() >= fall.abs() { up } else { down };
            (rise, fall, Some(worse))
        };
        let analysis = t.elapsed();
        let (_, severity) =
            Severity::classify(rise, fall, cfg.analysis.vdd, cfg.warn_frac, cfg.fail_frac);
        let mut receiver_time = Duration::ZERO;
        let receiver = if cfg.check_receivers && severity >= Severity::Warning {
            let t = Instant::now();
            let cell = ctx.receiver_cell(name)?;
            let rising = rise.abs() >= fall.abs();
            // The worse-polarity waveform is already in hand; only an
            // aggressor-less victim flagged by a zero warning threshold
            // has none yet.
            let worse = match worse {
                Some(g) => g,
                None => glitch(rising)?,
            };
            let vdd = cfg.analysis.vdd;
            let quiet = if rising { 0.0 } else { vdd };
            let check =
                check_receiver_propagation(cell, &worse.waveform, quiet, vdd, cfg.fail_frac)?;
            receiver_time = t.elapsed();
            Some(ReceiverVerdict {
                cell: cell.name.clone(),
                output_peak: check.output_peak,
                propagates: check.propagates,
            })
        } else {
            None
        };
        Ok(AttemptOk { rise, fall, receiver, analysis, receiver_time })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::ALWAYS;
    use pcv_netlist::{NetNodeRef, NetParasitics, ParasiticDb};

    /// The two-victim fixture of `pcv_xtalk::chip`'s tests: `hot` is
    /// heavily coupled to `agg`, `cold` barely.
    fn db() -> (ParasiticDb, PNetId, PNetId) {
        let mut db = ParasiticDb::new();
        let mk = |name: &str, cg: f64| {
            let mut n = NetParasitics::new(name);
            let n1 = n.add_node();
            n.add_resistor(0, n1, 200.0);
            n.add_ground_cap(n1, cg);
            n.mark_load(n1);
            n
        };
        let hot = db.add_net(mk("hot", 5e-15));
        let cold = db.add_net(mk("cold", 50e-15));
        let agg = db.add_net(mk("agg", 5e-15));
        db.add_coupling(NetNodeRef { net: hot, node: 1 }, NetNodeRef { net: agg, node: 1 }, 60e-15);
        db.add_coupling(
            NetNodeRef { net: cold, node: 1 },
            NetNodeRef { net: agg, node: 1 },
            0.4e-15,
        );
        (db, hot, cold)
    }

    /// The fixture with fixed 2 kΩ drivers, audited on `victims`.
    fn chip(db: ParasiticDb, victims: Vec<PNetId>) -> ResidentChip {
        ResidentChip::fixed_resistance(db, 2000.0, victims)
    }

    fn config(workers: usize) -> EngineConfig {
        EngineConfig { workers, ..Default::default() }
    }

    #[test]
    fn worker_counts_agree_verdict_for_verdict() {
        let (db, hot, cold) = db();
        let chip = chip(db, vec![cold, hot]);
        let one = Engine::new(config(1)).run(RunRequest::resident(&chip)).unwrap();
        // Classified and sorted worst first: the hot net leads.
        let names: Vec<&str> = one.chip.verdicts.iter().map(|v| v.name.as_str()).collect();
        assert_eq!(names, ["hot", "cold"]);
        assert_eq!(one.chip.verdicts[0].severity, Severity::Violation);
        assert_eq!(one.chip.num_violations(), 1);
        for workers in [1, 2, 4] {
            let report = Engine::new(config(workers)).run(RunRequest::resident(&chip)).unwrap();
            assert_eq!(report.chip, one.chip, "{workers} workers");
            assert!(report.errors.is_empty());
            assert_eq!(report.stats.cache_misses, 2);
            assert_eq!(report.stats.workers, workers);
        }
    }

    #[test]
    fn quiet_nets_are_clean_without_simulation() {
        let (db, _, cold) = db();
        let chip = chip(db, vec![cold]);
        // The cold net's one weak coupling is pruned away entirely.
        let prune = PruneConfig { cap_ratio: 0.05, max_aggressors: 12 };
        let engine = Engine::new(EngineConfig { prune, ..config(1) });
        let report = engine.run(RunRequest::resident(&chip)).unwrap();
        let v = &report.chip.verdicts[0];
        assert_eq!(v.severity, Severity::Clean);
        assert_eq!((v.rise_peak, v.fall_peak), (0.0, 0.0));
        assert_eq!(v.cluster_size, 1);
    }

    #[test]
    fn receiver_audit_annotates_flagged_victims() {
        use pcv_cells::charlib::CharLibrary;
        use pcv_cells::library::CellLibrary;
        use pcv_netlist::Design;
        let (db, hot, cold) = db();
        // Design view: drivers + an inverter load on the hot net.
        let mut design = Design::new("t");
        let dh = design.add_net("hot");
        let dc_ = design.add_net("cold");
        let da = design.add_net("agg");
        let pi = design.add_net("pi");
        design.add_instance("h_drv", "INVX2", vec![pi], Some(dh), false);
        design.add_instance("c_drv", "INVX2", vec![pi], Some(dc_), false);
        design.add_instance("a_drv", "BUFX4", vec![pi], Some(da), false);
        design.add_instance("h_rx", "INVX4", vec![dh], None, false);
        // Fixed-resistance drivers read no characterization.
        let chip = ResidentChip::with_design(
            db,
            design,
            CellLibrary::standard_025(),
            CharLibrary::default(),
            pcv_xtalk::DriverModelKind::FixedResistance(2000.0),
            vec![hot, cold],
        );
        let engine = Engine::new(EngineConfig { check_receivers: true, ..config(1) });
        let report = engine.run(RunRequest::resident(&chip)).unwrap();
        // The hot (flagged) victim gets a receiver verdict; the clean one
        // does not.
        let hot_v = report.chip.verdicts.iter().find(|v| v.name == "hot").unwrap();
        assert!(hot_v.severity >= Severity::Warning);
        let rc = hot_v.receiver.as_ref().expect("flagged victim checked");
        assert_eq!(rc.cell, "INVX4");
        assert!(rc.output_peak.is_finite());
        let cold_v = report.chip.verdicts.iter().find(|v| v.name == "cold").unwrap();
        assert_eq!(cold_v.severity, Severity::Clean);
        assert!(cold_v.receiver.is_none());
    }

    #[test]
    fn injected_fault_is_isolated_and_worst_cased() {
        let (db, hot, cold) = db();
        let chip = chip(db, vec![cold, hot]);
        let mut engine = Engine::new(config(2));
        engine.set_fault_plan(Plan::new().at("hot", ALWAYS, FaultKind::Panic));
        let report = engine.run(RunRequest::resident(&chip)).unwrap();
        // A persistent panic defeats every analysis rung, so the victim is
        // worst-cased: a conservative verdict plus a structured error.
        assert_eq!(report.errors.len(), 1);
        assert_eq!(report.errors[0].name, "hot");
        assert_eq!(report.errors[0].stage, "spice_fallback");
        assert!(report.errors[0].message.contains("injected fault"));
        assert_eq!(report.chip.verdicts.len(), 2);
        let worst = report.chip.verdicts.iter().find(|v| v.name == "hot").unwrap();
        assert_eq!(worst.worst_frac, 1.0);
        assert_eq!(worst.severity, Severity::Violation);
        assert_eq!(report.degradations.len(), 1);
        let d = &report.degradations[0];
        assert_eq!(d.name, "hot");
        assert_eq!(d.recovered, RecoveryRung::WorstCase);
        // Panics skip the MOR-tuning rungs: baseline, then SPICE, then out.
        let rungs: Vec<RecoveryRung> = d.attempts.iter().map(|a| a.rung).collect();
        assert_eq!(rungs, [RecoveryRung::Baseline, RecoveryRung::SpiceFallback]);
        assert_eq!(report.stats.degraded, 1);
        // The other victim is still fully audited, untouched by recovery.
        let cold_v = report.chip.verdicts.iter().find(|v| v.name == "cold").unwrap();
        assert!(cold_v.worst_frac < 1.0);
    }

    #[test]
    fn transient_fault_recovers_on_first_retry() {
        let (db, hot, cold) = db();
        let chip = chip(db, vec![cold, hot]);
        let clean = Engine::new(config(1)).run(RunRequest::resident(&chip)).unwrap();

        let mut engine = Engine::new(config(2));
        engine.set_fault_plan(Plan::new().at("hot", 1, FaultKind::NonSpd));
        let report = engine.run(RunRequest::resident(&chip)).unwrap();
        // The non-SPD fault routes to GminBoost; the retry sees a healthy
        // cluster and succeeds there.
        assert!(report.errors.is_empty());
        assert_eq!(report.degradations.len(), 1);
        let d = &report.degradations[0];
        assert_eq!(d.recovered, RecoveryRung::GminBoost);
        assert_eq!(d.attempts.len(), 1);
        assert!(d.attempts[0].reason.contains("positive definite"));
        // Every victim has a verdict; the unfaulted one is bit-identical
        // to the clean run.
        assert_eq!(report.chip.verdicts.len(), 2);
        let cold_clean = clean.chip.verdicts.iter().find(|v| v.name == "cold").unwrap();
        let cold_faulted = report.chip.verdicts.iter().find(|v| v.name == "cold").unwrap();
        assert_eq!(cold_clean, cold_faulted);
    }

    #[test]
    fn slow_fault_trips_budget_and_falls_back_to_spice() {
        let (db, hot, cold) = db();
        let chip = chip(db, vec![cold, hot]);
        let mut engine = Engine::new(config(2));
        engine.set_fault_plan(Plan::new().at("hot", ALWAYS, FaultKind::Slow));
        let report = engine.run(RunRequest::resident(&chip)).unwrap();
        // The collapsed Newton budget defeats every MOR rung; the SPICE
        // fallback does not consult the MOR budget and succeeds.
        assert!(report.errors.is_empty());
        assert_eq!(report.degradations.len(), 1);
        let d = &report.degradations[0];
        assert_eq!(d.recovered, RecoveryRung::SpiceFallback);
        assert!(d.attempts.iter().all(|a| a.reason.contains("budget exhausted")));
        let hot_v = report.chip.verdicts.iter().find(|v| v.name == "hot").unwrap();
        assert!(hot_v.worst_frac < 1.0, "a real analysis stood, not the worst case");
    }

    #[test]
    fn degraded_results_are_not_cached() {
        let (db, hot, cold) = db();
        let chip = chip(db, vec![cold, hot]);
        let dir = std::env::temp_dir().join("pcv-engine-degraded-cache-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store");
        std::fs::remove_file(&path).ok();

        let mut cfg = config(1);
        cfg.cache_path = Some(path.clone());
        let mut engine = Engine::new(cfg.clone());
        engine.set_fault_plan(Plan::new().at("hot", 1, FaultKind::NaN));
        let faulted = engine.run(RunRequest::resident(&chip)).unwrap();
        assert_eq!(faulted.degradations.len(), 1);

        // A clean re-run must re-analyze the degraded victim (cache miss)
        // and produce the baseline verdict.
        let clean = Engine::new(cfg).run(RunRequest::resident(&chip)).unwrap();
        assert_eq!(clean.stats.cache_hits, 1, "only the healthy victim was cached");
        assert_eq!(clean.stats.cache_misses, 1);
        assert!(clean.degradations.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_thresholds_are_rejected() {
        let (db, hot, _) = db();
        let chip = chip(db, vec![hot]);
        let engine = Engine::new(EngineConfig { warn_frac: 0.5, fail_frac: 0.2, ..config(1) });
        assert!(matches!(
            engine.run(RunRequest::resident(&chip)),
            Err(XtalkError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn receiver_checks_without_design_are_rejected() {
        let (db, hot, _) = db();
        let chip = chip(db, vec![hot]);
        let engine = Engine::new(EngineConfig { check_receivers: true, ..config(1) });
        assert!(matches!(
            engine.run(RunRequest::resident(&chip)),
            Err(XtalkError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn empty_victim_list_yields_empty_report() {
        let (db, _, _) = db();
        let chip = chip(db, Vec::new());
        let report = Engine::new(config(2)).run(RunRequest::resident(&chip)).unwrap();
        assert!(report.chip.verdicts.is_empty());
        assert_eq!(report.stats.victims, 0);
        assert_eq!(report.stats.hit_rate(), 0.0);
    }
}
