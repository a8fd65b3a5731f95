//! The engine proper: shard victims into cluster jobs, run them on the
//! work-stealing scheduler, and merge a deterministic report.

use crate::cache::ResultCache;
use crate::durable::{DurableConfig, Journal, LockError, RunLock};
use crate::fault::Plan;
use crate::fingerprint::{chip_slice_fingerprint, cluster_fingerprint_in, config_hash, NetDigests};
use crate::record::JournalEntry;
use crate::recovery::{route, Attempt, Degradation, FaultKind, RecoveryRung, Trail};
use crate::report::{ClusterCost, EngineError, EngineReport, EngineStats};
use crate::resident::{ResidentChip, VerdictSnapshot};
use crate::scheduler;
use pcv_cells::library::{Cell, CellKind};
use pcv_mor::MorError;
use pcv_netlist::PNetId;
use pcv_obs::{EngineEvent, EventSink, RunRecord};
use pcv_xtalk::drivers::DriverModelKind;
use pcv_xtalk::prune::{
    coupling_component_sizes, prune_victim_with_components, Cluster, PruneConfig, PruningStats,
};
use pcv_xtalk::{
    check_receiver_propagation, AnalysisContext, AnalysisOptions, ChipReport, EngineKind,
    NetVerdict, PreparedCluster, ReceiverVerdict, Severity, XtalkError,
};
use std::borrow::Cow;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Engine configuration.
#[derive(Clone)]
pub struct EngineConfig {
    /// Worker threads; `0` means one per available core.
    pub workers: usize,
    /// Pruning parameters (same meaning as the serial flow).
    pub prune: PruneConfig,
    /// Analysis knobs (same meaning as the serial flow).
    pub analysis: AnalysisOptions,
    /// Warning threshold as a fraction of Vdd.
    pub warn_frac: f64,
    /// Violation threshold as a fraction of Vdd.
    pub fail_frac: f64,
    /// Run receiver-propagation checks on flagged victims (the serial
    /// [`pcv_xtalk::audit_receivers`] pass), in-job.
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
    /// degradations, worker idling. Events fire from worker threads as
    /// they happen — they carry wall-clock data and exist strictly outside
    /// the deterministic report path. `None` (the default) costs nothing.
    pub sink: Option<Arc<dyn EventSink>>,
    /// Durability knobs ([`DurableConfig`]): cooperative stop and the
    /// (fault-injectable) filesystem handle all persisted artifacts go
    /// through. The checkpoint journal and the run lock are not knobs:
    /// both are on whenever `cache_path` is set.
    pub durable: DurableConfig,
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
            .field("durable", &self.durable)
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
            durable: DurableConfig::default(),
        }
    }
}

/// Parallel, fault-isolated, incremental chip-verification engine.
///
/// [`Engine::run`] produces, when every job succeeds and the cache is
/// cold, the exact same [`ChipReport`] as the serial
/// [`pcv_xtalk::verify_chip`] (+ [`pcv_xtalk::audit_receivers`] when
/// `check_receivers` is set) — verdict for verdict, bit for bit —
/// regardless of worker count or scheduling order.
#[derive(Debug, Clone, Default)]
pub struct Engine {
    /// Configuration every run of this engine uses.
    pub config: EngineConfig,
    plan: Plan<FaultKind>,
}

/// What one [`Engine::run`] audits and how it starts — plain data, built
/// with struct-update syntax over one of the two constructors:
/// `RunRequest { resume: true, ..RunRequest::resident(&chip) }`.
#[derive(Clone, Copy)]
pub struct RunRequest<'a> {
    /// The analysis context the run borrows.
    pub ctx: AnalysisContext<'a>,
    /// The victims to audit, in input order. A shard worker narrows a
    /// resident chip's list to its own slice; the context stays the full
    /// chip so cluster fingerprints match every other process's.
    pub victims: &'a [PNetId],
    /// Coupling-component sizes already computed over `ctx.db`
    /// ([`ResidentChip::component_sizes`]); `None` builds the union-find
    /// at run start.
    pub components: Option<&'a [usize]>,
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
    /// A from-scratch run of `victims` over a borrowed context.
    pub fn new(ctx: &AnalysisContext<'a>, victims: &'a [PNetId]) -> Self {
        RunRequest { ctx: *ctx, victims, components: None, resume: false, snapshot: None }
    }

    /// A from-scratch run of every victim of a resident chip, reusing the
    /// component sizes it computed at elaboration. The report is
    /// byte-identical to [`RunRequest::new`] over `chip.ctx()` and
    /// `chip.victims()`.
    pub fn resident(chip: &'a ResidentChip) -> Self {
        RunRequest {
            components: Some(chip.component_sizes()),
            ..Self::new(&chip.ctx(), chip.victims())
        }
    }
}

/// Where a cluster job's record came from.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Source {
    /// Analyzed in this run.
    Fresh,
    /// Adopted from the checkpoint journal (resume path).
    Journal,
    /// Adopted from the incremental cache.
    Cache,
}

/// Outcome of one completed cluster job.
struct JobOk {
    verdict: NetVerdict,
    cluster: Cluster,
    source: Source,
    /// The record behind the verdict, for the end-of-run cache save —
    /// `None` when the cache is where it came from.
    record: Option<JournalEntry>,
    degradation: Option<Degradation>,
    prune: Duration,
    analysis: Duration,
    receiver: Duration,
}

/// Outcome of one ladder attempt (a full analysis at one rung).
struct AttemptOk {
    rise: f64,
    fall: f64,
    receiver: Option<ReceiverVerdict>,
    analysis: Duration,
    receiver_time: Duration,
}

/// Multiplier applied to `gmin` at [`RecoveryRung::GminBoost`] and up.
const GMIN_BOOST: f64 = 1e3;
/// Multiplier applied to the MOR `max_step_fraction` at
/// [`RecoveryRung::SofterNewton`] and up.
const STEP_SHRINK: f64 = 0.25;
/// Per-attempt Newton-iteration budget: deterministic stall protection (a
/// wall-clock deadline would make degradation depend on machine speed).
const NEWTON_BUDGET: usize = 2_000_000;
/// Per-attempt accepted-step budget.
const MAX_TRAN_STEPS: usize = 200_000;

/// Analysis options for one ladder rung. Adjustments are *cumulative*: each
/// higher rung keeps every lower rung's mitigation, so the walk is a pure
/// function of the rung (not of the failure path that led there).
fn rung_options(analysis: &AnalysisOptions, rung: RecoveryRung) -> AnalysisOptions {
    let mut opts = analysis.clone();
    // Stall protection applies at every rung, baseline included. The
    // budget checks are read-only until they trip, so they cannot perturb
    // a healthy run's numbers.
    opts.mor.newton_budget = opts.mor.newton_budget.min(NEWTON_BUDGET);
    opts.mor.max_tran_steps = opts.mor.max_tran_steps.min(MAX_TRAN_STEPS);
    if rung >= RecoveryRung::GminBoost {
        opts.gmin_scale *= GMIN_BOOST;
    }
    if rung >= RecoveryRung::ReducedOrder {
        if let EngineKind::Mor { block_iters } = opts.engine {
            opts.engine = EngineKind::Mor { block_iters: (block_iters / 2).max(1) };
        }
    }
    if rung >= RecoveryRung::SofterNewton {
        opts.mor.max_step_fraction *= STEP_SHRINK;
    }
    if rung >= RecoveryRung::SpiceFallback {
        opts.engine = EngineKind::Spice;
    }
    opts
}

/// Context for one ladder rung: from [`RecoveryRung::SofterNewton`] up,
/// nonlinear driver surfaces are swapped for the smooth Thevenin
/// (timing-library) model, which cannot trap Newton in a kink limit cycle.
fn rung_context<'a>(ctx: &AnalysisContext<'a>, rung: RecoveryRung) -> AnalysisContext<'a> {
    let mut adjusted = *ctx;
    if rung >= RecoveryRung::SofterNewton && adjusted.driver_model == DriverModelKind::Nonlinear {
        adjusted.driver_model = DriverModelKind::TimingLibrary;
    }
    adjusted
}

/// Realize one injected fault for one ladder attempt. `Panic` unwinds like
/// a real job bug; `NonSpd` and `NaN` return the exact typed errors the
/// numeric guards produce (so routing is exercised end-to-end without
/// machine-dependent arithmetic); `Slow` collapses the Newton budget so the
/// *real* budget mechanism trips.
fn inject(kind: FaultKind, name: &str, opts: &mut AnalysisOptions) -> Result<(), XtalkError> {
    match kind {
        FaultKind::Panic => panic!("injected fault in cluster job for {name}"),
        FaultKind::NonSpd => {
            Err(XtalkError::Mor(MorError::Numeric(pcv_sparse::Error::NotPositiveDefinite {
                col: 0,
                pivot: -1.0,
            })))
        }
        FaultKind::NaN => Err(XtalkError::Mor(MorError::NonFinite { what: "injected nan fault" })),
        FaultKind::Slow => {
            opts.mor.newton_budget = 1;
            Ok(())
        }
    }
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

    /// [`Engine::run`] from scratch over a borrowed context: the
    /// convenience for callers that hold no [`ResidentChip`].
    ///
    /// # Errors
    ///
    /// Same contract as [`Engine::run`].
    pub fn verify(
        &self,
        ctx: &AnalysisContext<'_>,
        victims: &[PNetId],
    ) -> Result<EngineReport, XtalkError> {
        self.run(RunRequest::new(ctx, victims))
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
    /// as a parallel cluster job, then merge a report identical to the
    /// serial flow — the one way a run starts, whatever the request asks
    /// for.
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
        let RunRequest { ctx, victims, components, resume, snapshot } = request;
        let ctx = &ctx;
        let cfg = &self.config;
        if cfg.warn_frac > cfg.fail_frac {
            return Err(XtalkError::InvalidConfig {
                what: "warning threshold must not exceed failure",
            });
        }
        if cfg.check_receivers && (ctx.design.is_none() || ctx.lib.is_none()) {
            return Err(XtalkError::InvalidConfig {
                what: "receiver checks need design and library data",
            });
        }
        // Bridge spans to the allocation counters when the instrumented
        // allocator is installed (idempotent no-op otherwise).
        pcv_obs::mem::install_trace_probe();
        let session = if cfg.trace { Some(pcv_trace::TraceSession::start()) } else { None };
        let start = Instant::now();
        let workers = match cfg.workers {
            0 => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            n => n,
        };
        // Lifecycle events are strictly observational: they carry
        // wall-clock data and never feed back into the report, so the
        // emit sites below must stay out of anything deterministic.
        let sink = cfg.sink.as_deref();
        let emit = |ev: EngineEvent| {
            if let Some(s) = sink {
                s.event(&ev);
            }
        };
        emit(EngineEvent::RunStarted { victims: victims.len(), workers });

        let chash = config_hash(
            ctx,
            &cfg.prune,
            &cfg.analysis,
            cfg.warn_frac,
            cfg.fail_frac,
            cfg.check_receivers,
        );
        let chip_fp = chip_slice_fingerprint(ctx, victims);
        let fs = cfg.durable.fs.clone();

        // Advisory run lock: two concurrent runs over one cache directory
        // would interleave journal appends and race the cache replace.
        // Held (RAII) until this function returns.
        let _lock = match cfg.cache_path.as_deref() {
            Some(path) => match RunLock::acquire(&RunLock::path_for(path), chash) {
                Ok(lock) => Some(lock),
                Err(LockError::Held { pid }) => {
                    return Err(XtalkError::Busy {
                        path: RunLock::path_for(path).display().to_string(),
                        pid,
                    });
                }
                // Advisory locking is best-effort: an unusable lock
                // file must not block verification.
                Err(LockError::Io(_)) => None,
            },
            None => None,
        };

        let cache = {
            let _span = pcv_trace::span("engine", "cache_load");
            match cfg.cache_path.as_deref() {
                Some(path) => ResultCache::load_with(&fs, path).0,
                None => ResultCache::new(),
            }
        };

        // Checkpoint journal: on resume, adopt whatever a previous run of
        // the same config + chip slice checkpointed; otherwise (or when
        // the header is stale) start fresh. All best-effort — a run whose
        // journal cannot be written is still correct, just not resumable.
        let mut replay: HashMap<String, JournalEntry> = HashMap::new();
        let journal_handle: Option<Journal> = match cfg.cache_path.as_deref() {
            Some(path) => {
                let jpath = Journal::path_for(path);
                let mut resumed = false;
                if resume {
                    let load = Journal::load(&fs, &jpath);
                    if load.header == Some((chash, chip_fp)) {
                        for e in load.entries {
                            replay.insert(e.name.clone(), e);
                        }
                        resumed = true;
                    }
                }
                if resumed {
                    emit(EngineEvent::RunResumed { replayable: replay.len() });
                    Some(Journal::append_to(&fs, &jpath))
                } else {
                    Journal::begin(&fs, &jpath, chash, chip_fp).ok()
                }
            }
            None => None,
        };
        let journal = journal_handle.as_ref();
        // Serialize checkpoint appends across worker threads so records
        // can never interleave mid-line.
        let journal_mutex = std::sync::Mutex::new(());
        let checkpoint = |record: &JournalEntry| {
            if let Some(j) = journal {
                let _guard =
                    journal_mutex.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                // Best-effort: a failed append costs resume coverage for
                // this cluster, nothing else.
                let _ = j.record(record);
            }
        };

        let stop = cfg.durable.stop.as_ref();

        // One union-find for the whole run instead of one per victim —
        // or zero, when a ResidentChip already paid for it at elaboration.
        let computed_components;
        let component_sizes: &[usize] = match components {
            Some(sizes) => sizes,
            None => {
                computed_components = coupling_component_sizes(ctx.db);
                &computed_components
            }
        };

        if sink.is_some() {
            for &vic in victims {
                emit(EngineEvent::ClusterQueued { name: ctx.db.net(vic).name().to_owned() });
            }
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
                emit(EngineEvent::ClusterSkipped { name: name.to_owned() });
                return None;
            }
            let _job_span = pcv_trace::span_labeled("engine", "cluster_job", || name.to_owned());
            let job_start = Instant::now();
            emit(EngineEvent::ClusterStarted { name: name.to_owned() });
            let t = Instant::now();
            let cluster = prune_victim_with_components(ctx.db, vic, &cfg.prune, component_sizes);
            let prune = t.elapsed();

            let fp = cluster_fingerprint_in(ctx, &cluster, chash, &digests);
            // Adopt a stored record when its fingerprint still matches the
            // cluster we just pruned — exact f64 bits, exact degradation
            // trail, so the merged report cannot drift. The journal of an
            // interrupted run (resume path) is asked before the cache.
            let stored = if let Some(e) = replay.get(name).filter(|e| e.fingerprint == fp) {
                pcv_trace::count("engine.journal.replays", 1);
                emit(EngineEvent::ClusterReplayed { name: name.to_owned() });
                Some((e, Source::Journal))
            } else if let Some(e) = cache.lookup(name, fp) {
                pcv_trace::count("engine.cache.hits", 1);
                emit(EngineEvent::CacheHit { name: name.to_owned() });
                Some((e, Source::Cache))
            } else {
                None
            };
            let (record, source, analysis, receiver) = match stored {
                Some((e, source)) => (Cow::Borrowed(e), source, Duration::ZERO, Duration::ZERO),
                None => {
                    pcv_trace::count("engine.cache.misses", 1);
                    emit(EngineEvent::CacheMiss { name: name.to_owned() });
                    let (fresh, analysis, receiver) =
                        self.walk_ladder(ctx, &cluster, name, fp, &emit);
                    checkpoint(&fresh);
                    (Cow::Owned(fresh), Source::Fresh, analysis, receiver)
                }
            };
            let (verdict, degradation) =
                record.verdict(vic, &cluster, cfg.analysis.vdd, cfg.warn_frac, cfg.fail_frac);
            emit(EngineEvent::ClusterFinished {
                name: name.to_owned(),
                cached: source == Source::Cache,
                elapsed: job_start.elapsed(),
            });
            // Replayed records flow into the cache save at the end of this
            // run too: the interrupted run never saved them.
            let record = (source != Source::Cache).then(|| record.into_owned());
            Some(JobOk { verdict, cluster, source, record, degradation, prune, analysis, receiver })
        };

        // Mid-run read side: each completed verdict is published into the
        // snapshot the moment its job returns, before the merge — readers
        // polling a resident run see partial results grow monotonically.
        let observed_job = |i: usize| {
            let outcome = job(i);
            if let (Some(snap), Some(ok)) = (snapshot, &outcome) {
                snap.insert(ok.verdict.clone());
            }
            outcome
        };
        let (results, run_stats) =
            scheduler::run_with_idle(workers, victims.len(), observed_job, |w| {
                emit(EngineEvent::WorkerIdle { worker: w })
            });

        // Deterministic merge: collect in input order, then apply the exact
        // stable sort the serial flow uses. Stability makes ties keep input
        // order, so the merged report is independent of scheduling.
        let merge_span = pcv_trace::span("engine", "merge");
        let mut verdicts = Vec::with_capacity(victims.len());
        let mut clusters = Vec::with_capacity(victims.len());
        let mut costs: Vec<ClusterCost> = Vec::with_capacity(victims.len());
        let mut errors = Vec::new();
        let mut degradations: Vec<Degradation> = Vec::new();
        let mut fresh: Vec<JournalEntry> = Vec::new();
        let (mut hits, mut misses) = (0usize, 0usize);
        let (mut journal_hits, mut skipped) = (0usize, 0usize);
        let (mut prune_total, mut analysis_total, mut receiver_total) =
            (Duration::ZERO, Duration::ZERO, Duration::ZERO);
        for (i, result) in results.into_iter().enumerate() {
            let ok = match result {
                Ok(Some(ok)) => ok,
                Ok(None) => {
                    // Skipped after a stop request: no verdict, no error —
                    // the cluster is simply left for the resume run.
                    skipped += 1;
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
                Source::Journal => journal_hits += 1,
                Source::Cache => hits += 1,
                Source::Fresh => misses += 1,
            }
            fresh.extend(ok.record);
            prune_total += ok.prune;
            analysis_total += ok.analysis;
            receiver_total += ok.receiver;
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
                degradations.push(d);
            }
            costs.push(ClusterCost {
                net: ok.verdict.net,
                name: ok.verdict.name.clone(),
                cluster_size: ok.verdict.cluster_size,
                cached: ok.source == Source::Cache,
                prune: ok.prune,
                analysis: ok.analysis,
                receiver: ok.receiver,
            });
            verdicts.push(ok.verdict);
            clusters.push(ok.cluster);
        }
        verdicts.sort_by(|a, b| b.worst_frac.partial_cmp(&a.worst_frac).expect("finite fractions"));
        // Most expensive first; the stable sort keeps ties in input order.
        costs.sort_by_key(|c| std::cmp::Reverse(c.total()));
        drop(merge_span);

        let interrupted = stop.is_some_and(|s| s.is_stopped());
        if interrupted {
            emit(EngineEvent::RunStopped { completed: victims.len() - skipped, skipped });
        }

        let mut cache_saved = false;
        if let Some(path) = cfg.cache_path.as_deref() {
            let _span = pcv_trace::span("engine", "cache_save");
            let mut updated = cache;
            for record in fresh {
                updated.insert(record);
            }
            // Best-effort: a failed save only costs future cache hits.
            cache_saved = updated.save_with(&fs, path).is_ok();
        }
        // The journal has served its purpose only once every checkpointed
        // verdict is durably in the cache *and* the run completed; an
        // interrupted or save-failed run keeps it for the next resume.
        if cache_saved && !interrupted {
            if let Some(j) = journal {
                let _ = j.discard();
            }
        }

        let recovery_total: Duration = degradations.iter().map(|d| d.recovery_time()).sum();
        let mem = pcv_obs::mem::snapshot().unwrap_or_default();
        let mut stats = EngineStats {
            workers,
            victims: victims.len(),
            cache_hits: hits,
            cache_misses: misses,
            journal_hits,
            skipped,
            degraded: degradations.len(),
            prune_time: prune_total,
            analysis_time: analysis_total,
            receiver_time: receiver_total,
            recovery_time: recovery_total,
            wall_time: start.elapsed(),
            worker_busy: run_stats.worker_busy,
            steals: run_stats.steals,
            peak_alloc_bytes: mem.peak_bytes,
            allocs: mem.allocs,
            events_dropped: 0,
        };
        emit(EngineEvent::RunFinished {
            victims: victims.len(),
            wall: stats.wall_time,
            cache_hits: hits,
            degraded: degradations.len(),
        });
        // Read the sink's shed counter only after the final event fired,
        // so a drop of RunFinished itself is still accounted for.
        stats.events_dropped = sink.map(|s| s.dropped()).unwrap_or(0);
        // One `RunRecord` line per run in the JSONL ledger next to the cache
        // (`<cache>.ledger.jsonl`): best-effort, observational only.
        if let Some(path) = cfg.cache_path.as_deref() {
            let record = RunRecord {
                config_fingerprint: chash,
                chip_fingerprint: chip_fp,
                outcome: if interrupted { "stopped".to_owned() } else { "complete".to_owned() },
                journal_hits,
                skipped,
                victims: victims.len(),
                workers,
                host_parallelism: std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1),
                cache_hits: hits,
                cache_misses: misses,
                degraded: degradations.len(),
                errors: errors.len(),
                steals: stats.steals,
                wall_ms: stats.wall_time.as_secs_f64() * 1e3,
                prune_ms: prune_total.as_secs_f64() * 1e3,
                analysis_ms: analysis_total.as_secs_f64() * 1e3,
                receiver_ms: receiver_total.as_secs_f64() * 1e3,
                recovery_ms: recovery_total.as_secs_f64() * 1e3,
                peak_alloc_bytes: mem.peak_bytes,
                allocs: mem.allocs,
            };
            let mut os = path.as_os_str().to_owned();
            os.push(".ledger.jsonl");
            // Best-effort, like the cache save: a failed append only
            // costs trajectory history. Durable (fsync'd) so the
            // "stopped, resumable" marker survives the kill that
            // usually follows it.
            let line = format!("{}\n", record.to_json());
            let _ = fs.append_durable(std::path::Path::new(&os), line.as_bytes());
        }
        let trace = session.map(|s| s.finish());
        let report = EngineReport {
            chip: ChipReport {
                verdicts,
                pruning: PruningStats::compute(&clusters),
                warn_frac: cfg.warn_frac,
                fail_frac: cfg.fail_frac,
            },
            errors,
            degradations,
            stats,
            clusters: costs,
            trace,
            interrupted,
        };
        // Traced runs with a cache location drop their artifacts next to
        // the cache file (best-effort, like the cache save itself).
        if report.trace.is_some() {
            if let Some(path) = cfg.cache_path.as_deref() {
                let _ = report.write_profile_with(&fs, path);
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
            let cell = receiver_cell(ctx, name)?;
            let rising = rise.abs() >= fall.abs();
            // The worse-polarity waveform is already in hand (the analysis
            // is deterministic, so re-running it as the serial audit does
            // would give the same samples); only an aggressor-less victim
            // flagged by a zero warning threshold has none yet.
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

    /// The recovery ladder for one cache-missed cluster: walk rungs until
    /// an attempt succeeds; past the last analysis rung the record is the
    /// conservative [`JournalEntry::worst_case`], so every victim ends
    /// with a verdict. Returns the record plus the standing attempt's
    /// analysis and receiver-check times.
    fn walk_ladder(
        &self,
        ctx: &AnalysisContext<'_>,
        cluster: &Cluster,
        name: &str,
        fp: u64,
        emit: &impl Fn(EngineEvent),
    ) -> (JournalEntry, Duration, Duration) {
        let cfg = &self.config;
        let mut attempts: Vec<Attempt> = Vec::new();
        let mut prepared: Option<PreparedCluster> = None;
        let mut rung = RecoveryRung::Baseline;
        let standing = loop {
            if rung == RecoveryRung::WorstCase {
                pcv_trace::count("engine.recovery.worst_case", 1);
                break None;
            }
            if rung > RecoveryRung::Baseline {
                pcv_trace::count("engine.recovery.retries", 1);
            }
            let mut opts = rung_options(&cfg.analysis, rung);
            let actx = rung_context(ctx, rung);
            // A fault's occurrence is the attempt index: a one-shot rule
            // hits the baseline only, so the first retry rung sees a
            // healthy cluster.
            let inject_here = self.plan.armed(name, attempts.len() as u32).next().copied();
            let attempt_start = Instant::now();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                if let Some(kind) = inject_here {
                    inject(kind, name, &mut opts)?;
                }
                self.run_attempt(&actx, cluster, name, &opts, &mut prepared)
            }));
            let (reason, target) = match outcome {
                Ok(Ok(ok)) => break Some(ok),
                Ok(Err(err)) => {
                    if matches!(&err, XtalkError::Mor(MorError::BudgetExhausted { .. })) {
                        pcv_trace::count("engine.recovery.budget_exhausted", 1);
                    }
                    (err.to_string(), route(&err))
                }
                // A panic carries no typed routing information; skip the
                // MOR-tuning rungs entirely.
                Err(payload) => {
                    let message = scheduler::panic_message(payload);
                    (format!("job panicked: {message}"), RecoveryRung::SpiceFallback)
                }
            };
            attempts.push(Attempt { rung, reason, elapsed: attempt_start.elapsed() });
            rung = rung.next().expect("worst case breaks the loop").max(target);
            emit(EngineEvent::ClusterRetried { name: name.to_owned(), rung: rung.name() });
        };
        if rung != RecoveryRung::Baseline {
            pcv_trace::count("engine.recovery.degraded", 1);
            if rung == RecoveryRung::SpiceFallback {
                pcv_trace::count("engine.recovery.fallback_spice", 1);
            }
            emit(EngineEvent::ClusterDegraded { name: name.to_owned(), rung: rung.name() });
        }
        match standing {
            Some(ok) => {
                let trail =
                    (rung != RecoveryRung::Baseline).then_some(Trail { recovered: rung, attempts });
                let record = JournalEntry::new(name, fp, ok.rise, ok.fall, ok.receiver, trail);
                (record, ok.analysis, ok.receiver_time)
            }
            None => {
                let record = JournalEntry::worst_case(name, fp, cfg.analysis.vdd, attempts);
                (record, Duration::ZERO, Duration::ZERO)
            }
        }
    }
}

/// The receiving cell the in-job receiver check replays a glitch into — the
/// serial [`pcv_xtalk::audit_receivers`] pick: the victim's first non-latch
/// load, else the latch input-stage-equivalent inverter.
fn receiver_cell<'a>(ctx: &AnalysisContext<'a>, name: &str) -> Result<&'a Cell, XtalkError> {
    let (Some(design), Some(lib)) = (ctx.design, ctx.lib) else {
        return Err(XtalkError::InvalidConfig {
            what: "receiver checks need design and library data",
        });
    };
    let dnet =
        design.find_net(name).ok_or_else(|| XtalkError::NoDriver { net: name.to_owned() })?;
    design
        .loads_of(dnet)
        .iter()
        .filter_map(|&(inst, _)| lib.cell(&design.instance(inst).cell))
        .find(|c| c.kind != CellKind::Latch)
        .or_else(|| lib.cell("INVX1"))
        .ok_or(XtalkError::InvalidConfig { what: "no receiver cell available" })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::ALWAYS;
    use pcv_netlist::{NetNodeRef, NetParasitics, ParasiticDb};

    /// The same two-victim fixture as the serial chip tests.
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

    fn config(workers: usize) -> EngineConfig {
        EngineConfig { workers, ..Default::default() }
    }

    #[test]
    fn matches_serial_verify_chip() {
        let (db, hot, cold) = db();
        let ctx = AnalysisContext::fixed_resistance(&db, 2000.0);
        let victims = [cold, hot];
        let serial = pcv_xtalk::verify_chip(
            &ctx,
            &victims,
            &PruneConfig::default(),
            &AnalysisOptions::default(),
            0.1,
            0.2,
        )
        .unwrap();
        for workers in [1, 2, 4] {
            let report = Engine::new(config(workers)).verify(&ctx, &victims).unwrap();
            assert_eq!(report.chip, serial);
            assert!(report.errors.is_empty());
            assert_eq!(report.stats.cache_misses, 2);
            assert_eq!(report.stats.workers, workers);
        }
    }

    #[test]
    fn injected_fault_is_isolated_and_worst_cased() {
        let (db, hot, cold) = db();
        let ctx = AnalysisContext::fixed_resistance(&db, 2000.0);
        let mut engine = Engine::new(config(2));
        engine.set_fault_plan(Plan::new().at("hot", ALWAYS, FaultKind::Panic));
        let report = engine.verify(&ctx, &[cold, hot]).unwrap();
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
        let ctx = AnalysisContext::fixed_resistance(&db, 2000.0);
        let victims = [cold, hot];
        let clean = Engine::new(config(1)).verify(&ctx, &victims).unwrap();

        let mut engine = Engine::new(config(2));
        engine.set_fault_plan(Plan::new().at("hot", 1, FaultKind::NonSpd));
        let report = engine.verify(&ctx, &victims).unwrap();
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
        let ctx = AnalysisContext::fixed_resistance(&db, 2000.0);
        let mut engine = Engine::new(config(2));
        engine.set_fault_plan(Plan::new().at("hot", ALWAYS, FaultKind::Slow));
        let report = engine.verify(&ctx, &[cold, hot]).unwrap();
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
        let ctx = AnalysisContext::fixed_resistance(&db, 2000.0);
        let dir = std::env::temp_dir().join("pcv-engine-degraded-cache-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store");
        std::fs::remove_file(&path).ok();

        let mut cfg = config(1);
        cfg.cache_path = Some(path.clone());
        let mut engine = Engine::new(cfg.clone());
        engine.set_fault_plan(Plan::new().at("hot", 1, FaultKind::NaN));
        let faulted = engine.verify(&ctx, &[cold, hot]).unwrap();
        assert_eq!(faulted.degradations.len(), 1);

        // A clean re-run must re-analyze the degraded victim (cache miss)
        // and produce the baseline verdict.
        let clean = Engine::new(cfg).verify(&ctx, &[cold, hot]).unwrap();
        assert_eq!(clean.stats.cache_hits, 1, "only the healthy victim was cached");
        assert_eq!(clean.stats.cache_misses, 1);
        assert!(clean.degradations.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_thresholds_are_rejected() {
        let (db, hot, _) = db();
        let ctx = AnalysisContext::fixed_resistance(&db, 2000.0);
        let engine = Engine::new(EngineConfig { warn_frac: 0.5, fail_frac: 0.2, ..config(1) });
        assert!(matches!(engine.verify(&ctx, &[hot]), Err(XtalkError::InvalidConfig { .. })));
    }

    #[test]
    fn receiver_checks_without_design_are_rejected() {
        let (db, hot, _) = db();
        let ctx = AnalysisContext::fixed_resistance(&db, 2000.0);
        let engine = Engine::new(EngineConfig { check_receivers: true, ..config(1) });
        assert!(matches!(engine.verify(&ctx, &[hot]), Err(XtalkError::InvalidConfig { .. })));
    }

    #[test]
    fn empty_victim_list_yields_empty_report() {
        let (db, _, _) = db();
        let ctx = AnalysisContext::fixed_resistance(&db, 2000.0);
        let report = Engine::new(config(2)).verify(&ctx, &[]).unwrap();
        assert!(report.chip.verdicts.is_empty());
        assert_eq!(report.stats.victims, 0);
        assert_eq!(report.stats.hit_rate(), 0.0);
    }
}
