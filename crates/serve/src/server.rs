//! The daemon: a localhost TCP listener, a bounded run queue, and one
//! executor thread that owns every engine run.
//!
//! Concurrency model, in one paragraph: *writes are serial, reads are
//! concurrent*. All verification runs execute on a single executor thread
//! (matching the engine's single-writer-per-cache-directory model — the
//! advisory [`RunLock`](pcv_engine::RunLock) stays uncontended), fed by a
//! bounded FIFO queue; a full queue answers a typed 429 instead of
//! accepting unbounded work. Queries — event streams, mid-run verdicts,
//! sign-off fetches — run on per-connection threads and never touch the
//! run queue lock or the engine: they read the run's [`EventHub`] archive
//! and [`VerdictSnapshot`], both designed for lock-free-ish concurrent
//! reads while a run is in flight.
//!
//! Graceful shutdown (`POST /shutdown` or [`Server::initiate_shutdown`])
//! raises the in-flight run's [`StopFlag`]: the engine drains — in-flight
//! clusters finish and are checkpointed, queued clusters are skipped — so
//! the session's journal on disk is resumable, either by a restarted
//! daemon (`"resume": true` on the next run) or offline with a
//! [`RunRequest`] that sets `resume`.

use crate::error::ApiError;
use crate::http::{self, ChunkedWriter, Request};
use crate::observe::Observatory;
use crate::overlay::{boolean, float, uint, Thresholds};
use crate::session::{DesignSpec, Session, SessionState};
use crate::shard::{Coordinator, CoordinatorConfig};
use pcv_engine::fs::Fs;
use pcv_engine::{
    EcoPlan, Engine, EngineConfig, FaultKind, Plan, ResidentChip, RunRequest, StopAfter, StopFlag,
    VerdictSnapshot,
};
use pcv_netlist::eco::EcoDelta;
use pcv_obs::json::{self, parse, Value};
use pcv_obs::{CursorState, EngineEvent, EventHub, EventSink, FlightRecorder, TeeSink};
use pcv_xtalk::{NetVerdict, XtalkError};
use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How the daemon is provisioned.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port (read it back with
    /// [`Server::addr`]).
    pub addr: String,
    /// Directory for caches, journals, ledgers and sign-off artifacts.
    pub data_dir: PathBuf,
    /// Bounded run-queue capacity: submissions beyond this answer 429.
    pub queue_capacity: usize,
    /// Whether the observatory records (metrics, access log, flight
    /// recorder, watchdog). When false the `/metrics` and `/debug/flight`
    /// surfaces stay up but nothing is recorded — and sign-off artifacts
    /// are byte-identical either way.
    pub observe: bool,
    /// Stall-watchdog no-progress interval in milliseconds; 0 disables
    /// the watchdog. On a trip it emits a `StallWarning` event, dumps the
    /// flight recorder, and bumps `pcv_stall_warnings_total` — it never
    /// stops the run.
    pub stall_timeout_ms: u64,
    /// The `pcv_serve` binary to spawn as `--shard-worker` children for
    /// sharded runs. `None` means the daemon's own executable (the normal
    /// deployment); tests hosting a [`Server`] in-process point this at
    /// the real binary.
    pub worker_exe: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            data_dir: PathBuf::from("target/pcv_serve"),
            queue_capacity: 8,
            observe: true,
            stall_timeout_ms: 0,
            worker_exe: None,
        }
    }
}

/// Per-run event archive capacity; overflow is shed and counted in the
/// `/events` stream trailer.
const HUB_CAPACITY: usize = 1 << 16;

/// Where a run is in its lifecycle.
#[derive(Debug, Clone, PartialEq)]
enum RunState {
    Queued,
    Running,
    Complete,
    /// Stopped mid-run (shutdown drain or `stop_after`); the journal on
    /// disk makes it resumable.
    Interrupted,
    Failed(ApiError),
}

impl RunState {
    fn name(&self) -> &'static str {
        match self {
            RunState::Queued => "queued",
            RunState::Running => "running",
            RunState::Complete => "complete",
            RunState::Interrupted => "interrupted",
            RunState::Failed(_) => "failed",
        }
    }
}

/// Per-run configuration overlay posted with the run.
#[derive(Debug, Clone, Default)]
struct RunOverlay {
    workers: Option<usize>,
    thresholds: Thresholds,
    /// Drill knob: stop cooperatively after this many cluster verdicts
    /// (the served twin of `dsp_chip_signoff --stop-after`).
    stop_after: Option<usize>,
    /// Replay the session journal before running (complete an
    /// interrupted run).
    resume: bool,
    /// Collect a trace for this run (absorbed into `/metrics` after it
    /// finishes; never touches the sign-off bytes).
    trace: bool,
    /// Drill knob: seed a [`FaultKind::Slow`] fault on this fraction of
    /// victims, forcing them through the slow SPICE-fallback rung — the
    /// deterministic way to exercise the stall watchdog.
    drill_slow_frac: Option<f64>,
    /// Seed for `drill_slow_frac`'s per-victim decision (default 1).
    drill_seed: Option<u64>,
    /// ≥ 2 routes the run through the shard coordinator: this many worker
    /// processes, merged back byte-identically.
    shards: Option<usize>,
    /// Per-shard heartbeat deadline in milliseconds (default 10 000): a
    /// worker silent this long is killed and restarted.
    shard_timeout_ms: Option<u64>,
    /// Whole-run deadline in milliseconds; blowing it fails the run with
    /// a typed 504 instead of hanging the event stream.
    deadline_ms: Option<u64>,
    /// Restart budget per shard before WorstCase degradation (default 3).
    shard_restarts: Option<u32>,
}

impl RunOverlay {
    /// Consume one `key: value` pair if it names an overlay option;
    /// `Ok(false)` means the key is not an overlay's (the caller decides
    /// whether that is an error).
    fn apply(&mut self, key: &str, value: &Value) -> Result<bool, ApiError> {
        match key {
            "workers" => self.workers = Some(uint(value, key)?),
            "stop_after" => self.stop_after = Some(uint(value, key)?),
            "resume" => self.resume = boolean(value, key)?,
            "trace" => self.trace = boolean(value, key)?,
            "drill_slow_frac" => self.drill_slow_frac = Some(float(value, key)?),
            "drill_seed" => self.drill_seed = Some(uint(value, key)? as u64),
            "shards" => self.shards = Some(uint(value, key)?),
            "shard_timeout_ms" => self.shard_timeout_ms = Some(uint(value, key)? as u64),
            "deadline_ms" => self.deadline_ms = Some(uint(value, key)? as u64),
            "shard_restarts" => self.shard_restarts = Some(uint(value, key)? as u32),
            _ => return self.thresholds.read_member(key, value),
        }
        Ok(true)
    }

    /// Read a `POST …/runs` body (empty means every default), or with
    /// `eco` a `POST …/eco` body: the same options plus the edited SPEF
    /// document `text`, which it must carry and which is returned beside
    /// them (empty for a run body).
    fn from_json(body: &str, eco: bool) -> Result<(RunOverlay, String), ApiError> {
        let (what, kind) = if eco { ("eco body", "eco") } else { ("run overlay", "run") };
        let mut overlay = RunOverlay::default();
        let mut text = None;
        if !eco && body.trim().is_empty() {
            return Ok((overlay, String::new()));
        }
        let doc = parse(body).map_err(|e| ApiError::BadRequest(format!("{what}: {e}")))?;
        let obj = doc
            .as_obj()
            .ok_or_else(|| ApiError::BadRequest(format!("{what} must be a JSON object")))?;
        for (key, value) in obj {
            if eco && key == "text" {
                let t = value
                    .as_str()
                    .ok_or_else(|| ApiError::BadRequest("text must be a string".into()));
                text = Some(t?);
            } else if !overlay.apply(key, value)? {
                return Err(ApiError::BadRequest(format!("unknown {kind} option {key:?}")));
            }
        }
        if eco && text.is_none() {
            return Err(ApiError::BadRequest(
                "eco needs \"text\": the full edited SPEF document".into(),
            ));
        }
        overlay.validate()?;
        Ok((overlay, text.unwrap_or_default().to_owned()))
    }

    /// Cross-field checks shared by the run and ECO submit paths: an
    /// option that the chosen kind of run would drop is an error naming
    /// it, never silently ignored.
    fn validate(&self) -> Result<(), ApiError> {
        let sharded = self.shards.is_some_and(|s| s >= 2);
        // (set, key, belongs to sharded runs): the coordinator supervises
        // processes; in-process drills and the trace are the executor's.
        let scoped = [
            (self.shard_timeout_ms.is_some(), "shard_timeout_ms", true),
            (self.deadline_ms.is_some(), "deadline_ms", true),
            (self.shard_restarts.is_some(), "shard_restarts", true),
            (self.drill_slow_frac.is_some(), "drill_slow_frac", false),
            (self.drill_seed.is_some(), "drill_seed", false),
            (self.trace, "trace", false),
        ];
        for (set, key, of_sharded) in scoped {
            if set && of_sharded != sharded {
                let rule = if of_sharded { "requires" } else { "cannot be combined with" };
                return Err(ApiError::BadRequest(format!("{key} {rule} \"shards\" >= 2")));
            }
        }
        if self.drill_seed.is_some() && self.drill_slow_frac.is_none() {
            return Err(ApiError::BadRequest("drill_seed requires \"drill_slow_frac\"".into()));
        }
        Ok(())
    }

    /// The engine configuration this overlay resolves to. The same
    /// resolution feeds the executor's run and the ECO planner's
    /// fingerprint check, so the plan's dirty set is computed under
    /// exactly the configuration the run will use.
    fn engine_config(&self, cache_path: PathBuf, sink: Option<Arc<dyn EventSink>>) -> EngineConfig {
        let cfg = self.thresholds.engine_config(self.workers.unwrap_or(0), cache_path);
        EngineConfig { sink, trace: self.trace, ..cfg }
    }
}

/// An ECO re-verification queued behind a run: the exact chip the delta
/// was planned onto, pinned so a later patch on the same session cannot
/// shift what this run verifies.
struct EcoJob {
    new: Arc<ResidentChip>,
    /// [`EcoPlan::to_json`] of the plan answered at submit time; recorded
    /// in the run ledger when the run completes.
    plan: String,
}

/// One submitted run: identity, live state, and the two concurrent-read
/// surfaces (event archive, verdict snapshot).
struct RunHandle {
    id: String,
    session: String,
    /// The correlation ID of the HTTP request that submitted this run,
    /// threaded through the event-stream trailer and the run ledger.
    corr: String,
    state: Mutex<RunState>,
    hub: Arc<EventHub>,
    snapshot: Arc<VerdictSnapshot>,
    total: usize,
    overlay: RunOverlay,
    /// `Some` when this run is an ECO splice rather than a plain sweep.
    eco: Option<EcoJob>,
    signoff: Mutex<Option<String>>,
}

impl RunHandle {
    fn state(&self) -> RunState {
        self.state.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }

    fn set_state(&self, next: RunState) {
        *self.state.lock().unwrap_or_else(PoisonError::into_inner) = next;
    }

    /// The answer to the submission that queued this run.
    fn queued_json(&self) -> String {
        json::object(|o| {
            o.str("run", &self.id).str("session", &self.session).str("state", "queued");
            o.raw("total", self.total).str("corr", &self.corr);
            if let Some(eco) = &self.eco {
                o.raw("eco", &eco.plan);
            }
        })
    }

    /// The last line of an event stream: how much this subscriber got and
    /// how much the bounded archive shed, under two correlation IDs — the
    /// run's (who submitted it) and this subscriber's request's (`corr`).
    fn trailer_json(&self, delivered: usize, dropped: u64, corr: &str) -> String {
        json::object(|o| {
            o.str("kind", "stream_trailer").str("run", &self.id).str("state", self.state().name());
            o.raw("delivered", delivered).raw("dropped", dropped);
            o.str("run_corr", &self.corr).str("corr", corr);
        })
    }

    /// This run's line of the daemon's `runs.jsonl`: outcome, the artifact
    /// when one was published, the ECO plan when the run was a splice.
    fn ledger_line(&self, outcome: &str, artifact: Option<&Path>) -> String {
        json::object(|o| {
            o.str("run", &self.id).str("session", &self.session).str("corr", &self.corr);
            o.str("outcome", outcome).raw("victims", self.total);
            if let Some(path) = artifact {
                o.str("artifact", &path.display().to_string());
            }
            if let Some(eco) = &self.eco {
                o.raw("eco", &eco.plan);
            }
        })
    }
}

struct Shared {
    cfg: ServerConfig,
    sessions: RwLock<HashMap<String, Arc<Session>>>,
    runs: RwLock<HashMap<String, Arc<RunHandle>>>,
    queue: Mutex<VecDeque<String>>,
    queue_cv: Condvar,
    next_session: AtomicU64,
    next_run: AtomicU64,
    shutting_down: AtomicBool,
    listener_stop: AtomicBool,
    /// The in-flight run: its handle for the stall watchdog's heartbeat
    /// poll, its stop flag for the shutdown drain.
    in_flight: Mutex<Option<(Arc<RunHandle>, StopFlag)>>,
    watchdog_stop: AtomicBool,
    obs: Observatory,
}

/// The resident verification daemon. [`Server::start`] binds and spawns
/// the listener and executor; the handle is the control plane tests and
/// the `pcv_serve` binary use.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    listener: Option<JoinHandle<()>>,
    executor: Option<JoinHandle<()>>,
    watchdog: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind `cfg.addr`, create the data directory, and start serving.
    ///
    /// # Errors
    ///
    /// Bind or directory-creation failures.
    pub fn start(cfg: ServerConfig) -> std::io::Result<Server> {
        std::fs::create_dir_all(&cfg.data_dir)?;
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let obs = Observatory::new(&cfg.data_dir, cfg.observe);
        let shared = Arc::new(Shared {
            cfg,
            sessions: RwLock::new(HashMap::new()),
            runs: RwLock::new(HashMap::new()),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            next_session: AtomicU64::new(0),
            next_run: AtomicU64::new(0),
            shutting_down: AtomicBool::new(false),
            listener_stop: AtomicBool::new(false),
            in_flight: Mutex::new(None),
            watchdog_stop: AtomicBool::new(false),
            obs,
        });
        let accept_shared = Arc::clone(&shared);
        let listener_thread = std::thread::spawn(move || accept_loop(listener, accept_shared));
        let exec_shared = Arc::clone(&shared);
        let executor_thread = std::thread::spawn(move || executor_loop(exec_shared));
        let watchdog_thread = if shared.cfg.observe && shared.cfg.stall_timeout_ms > 0 {
            let wd_shared = Arc::clone(&shared);
            Some(std::thread::spawn(move || watchdog_loop(wd_shared)))
        } else {
            None
        };
        Ok(Server {
            shared,
            addr,
            listener: Some(listener_thread),
            executor: Some(executor_thread),
            watchdog: watchdog_thread,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The daemon's flight recorder (always present; records only while
    /// the observatory is enabled or something notes into it directly).
    pub fn flight(&self) -> Arc<FlightRecorder> {
        self.shared.obs.flight()
    }

    /// The daemon's data directory (caches, artifacts, logs, dumps).
    pub fn data_dir(&self) -> &Path {
        &self.shared.cfg.data_dir
    }

    /// Dump the flight recorder atomically to
    /// `<data_dir>/flight-<tag>.json` and return the path — the crash /
    /// signal / watchdog capture path.
    ///
    /// # Errors
    ///
    /// Propagates the atomic-write failure.
    pub fn dump_flight(&self, tag: &str) -> std::io::Result<PathBuf> {
        dump_flight(&self.shared, tag)
    }

    /// Begin the graceful drain: refuse new sessions and runs, raise the
    /// in-flight run's [`StopFlag`] so the engine checkpoints and returns,
    /// and mark still-queued runs interrupted. Idempotent.
    pub fn initiate_shutdown(&self) {
        initiate_shutdown(&self.shared);
    }

    /// Whether a shutdown has been initiated (locally or over the wire).
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutting_down.load(Ordering::Acquire)
    }

    /// Wait for the drain to finish: the executor exits after the
    /// in-flight run checkpoints, then the listener stops accepting.
    /// Implies [`Server::initiate_shutdown`].
    pub fn join(mut self) {
        self.initiate_shutdown();
        if let Some(h) = self.executor.take() {
            let _ = h.join();
        }
        self.stop_threads();
    }

    /// Stop and join whatever threads are still running. The listener blocks
    /// in `accept`, so after its flag is raised a loopback connection wakes
    /// it; it is joined only if that connection was made.
    fn stop_threads(&mut self) {
        self.shared.listener_stop.store(true, Ordering::Release);
        self.shared.watchdog_stop.store(true, Ordering::Release);
        if let Some(h) = self.executor.take() {
            let _ = h.join();
        }
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
            });
        }
        if let Some(h) = self.listener.take() {
            if TcpStream::connect_timeout(&wake, Duration::from_secs(5)).is_ok() {
                let _ = h.join();
            }
        }
        if let Some(h) = self.watchdog.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // A dropped (not joined) server still stops its threads.
        initiate_shutdown(&self.shared);
        self.stop_threads();
    }
}

/// Atomic flight-recorder dump shared by the watchdog, the public
/// [`Server::dump_flight`], and (through it) the binary's signal hooks.
fn dump_flight(shared: &Shared, tag: &str) -> std::io::Result<PathBuf> {
    let path = shared.cfg.data_dir.join(format!("flight-{tag}.json"));
    Fs::real().write_atomic(&path, shared.obs.flight().dump_json().as_bytes())?;
    Ok(path)
}

/// The stall watchdog: poll the in-flight run's lock-free heartbeat
/// ([`VerdictSnapshot::beats`]); when it has not advanced for the
/// configured interval, emit a [`EngineEvent::StallWarning`] onto the
/// run's event stream, capture a flight dump, and bump the stall metric.
/// Then re-arm — a watchdog observes, it never kills.
fn watchdog_loop(shared: Arc<Shared>) {
    let timeout = Duration::from_millis(shared.cfg.stall_timeout_ms.max(1));
    let tick = timeout.min(Duration::from_millis(50));
    // (run id, last seen heartbeat, episode start, next warning threshold).
    // The threshold doubles on every warning so one long stall produces
    // O(log duration) warnings, not a flood that fills the event archive
    // and sheds the run's real events.
    let mut tracked: Option<(String, u64, Instant, Duration)> = None;
    while !shared.watchdog_stop.load(Ordering::Acquire) {
        std::thread::sleep(tick);
        let current = shared.in_flight.lock().unwrap_or_else(PoisonError::into_inner).clone();
        let Some((run, _)) = current.filter(|(r, _)| r.state() == RunState::Running) else {
            tracked = None;
            continue;
        };
        let beats = run.snapshot.beats();
        match &mut tracked {
            Some((id, last, since, warn_at)) if *id == run.id => {
                if beats != *last {
                    // Progress: the episode (if any) is over.
                    *last = beats;
                    *since = Instant::now();
                    *warn_at = timeout;
                    continue;
                }
                if since.elapsed() < *warn_at {
                    continue;
                }
                // `stalled_ms` is the episode's total age, so successive
                // warnings read 10 ms, 20 ms, 40 ms, … of the same stall.
                let stalled_ms = since.elapsed().as_millis() as u64;
                let warning =
                    EngineEvent::StallWarning { completed: run.snapshot.len(), stalled_ms };
                run.hub.event(&warning);
                shared.obs.record_stall(&run.id);
                shared.obs.flight().note(
                    "watchdog",
                    format!("run {} ({}) made no progress for {stalled_ms} ms", run.id, run.corr),
                );
                let _ = dump_flight(&shared, &format!("stall-{}", run.id));
                *warn_at = warn_at.saturating_mul(2);
            }
            _ => tracked = Some((run.id.clone(), beats, Instant::now(), timeout)),
        }
    }
}

fn initiate_shutdown(shared: &Shared) {
    shared.shutting_down.store(true, Ordering::Release);
    if let Some((_, stop)) = &*shared.in_flight.lock().unwrap_or_else(PoisonError::into_inner) {
        stop.stop();
    }
    // Wake the executor so it can observe the flag and drain the queue.
    shared.queue_cv.notify_all();
}

/// Accept until [`Shared::listener_stop`] is raised; the flag is read after
/// every accepted connection, the last of which is the waker's.
fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.listener_stop.load(Ordering::Acquire) {
            return;
        }
        match stream {
            Ok(stream) => {
                let conn_shared = Arc::clone(&shared);
                std::thread::spawn(move || handle_connection(stream, conn_shared));
            }
            // Out of descriptors, or the peer already gone: do not spin.
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

fn handle_connection(mut stream: TcpStream, shared: Arc<Shared>) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let _ = stream.set_nodelay(true);
    let started = Instant::now();
    let request = match http::read_request(&mut stream) {
        Ok(r) => r,
        Err(e) => {
            let err = ApiError::BadRequest(e.to_string());
            let (status, reason, _) = err.status();
            let _ = http::respond_json(&mut stream, status, reason, &err.to_json());
            return;
        }
    };
    // Every parsed request gets a correlation ID; it rides through the
    // response bodies, the event-stream trailer, the run ledger, and the
    // access log, so one grep ties a client call to everything it caused.
    let corr = shared.obs.mint_corr();
    let segments: Vec<String> = request.segments().iter().map(|s| s.to_string()).collect();
    let names: Vec<&str> = segments.iter().map(String::as_str).collect();
    let record = |status: u16| {
        let seconds = started.elapsed().as_secs_f64();
        shared.obs.record_http(&corr, &request.method, &request.path, status, seconds);
    };
    // The events route streams, owns the connection and records itself;
    // metrics answers plain text; everything else produces one JSON
    // document (or a typed error).
    if request.method == "GET" && names.len() == 3 && names[0] == "runs" && names[2] == "events" {
        return stream_events(&mut stream, &shared, names[1], &corr, record);
    }
    let status: u16 = if request.method == "GET" && names == ["metrics"] {
        let body = shared.obs.render_metrics(
            shared.queue.lock().unwrap_or_else(PoisonError::into_inner).len(),
            shared.sessions.read().unwrap_or_else(PoisonError::into_inner).len(),
        );
        let _ = http::respond(&mut stream, 200, "OK", "text/plain; version=0.0.4", body.as_bytes());
        200
    } else {
        match route(&request, &names, &shared, &corr) {
            Ok(body) => {
                let _ = http::respond_json(&mut stream, 200, "OK", &body);
                200
            }
            Err(err) => {
                let (status, reason, _) = err.status();
                if status == 429 {
                    // A typed busy is transient by construction (bounded
                    // queue, draining daemon, advisory run lock) — tell
                    // the client when to come back.
                    let _ = http::respond_with(
                        &mut stream,
                        status,
                        reason,
                        "application/json",
                        &[("Retry-After", "1")],
                        err.to_json().as_bytes(),
                    );
                } else {
                    let _ = http::respond_json(&mut stream, status, reason, &err.to_json());
                }
                status
            }
        }
    };
    record(status);
}

fn route(
    request: &Request,
    names: &[&str],
    shared: &Arc<Shared>,
    corr: &str,
) -> Result<String, ApiError> {
    match (request.method.as_str(), names) {
        ("GET", ["healthz"]) => Ok(healthz(shared)),
        ("GET", ["debug", "flight"]) => Ok(shared.obs.flight().dump_json()),
        ("POST", ["shutdown"]) => {
            initiate_shutdown(shared);
            Ok(json::object(|o| {
                o.raw("draining", true);
            }))
        }
        ("POST", ["sessions"]) => create_session(shared, &request.body, corr),
        ("GET", ["sessions", sid]) => Ok(lookup_session(shared, sid)?.info_json()),
        ("POST", ["sessions", sid, "runs"]) => submit_run(shared, sid, &request.body, corr),
        ("POST", ["sessions", sid, "eco"]) => submit_eco(shared, sid, &request.body, corr),
        ("GET", ["runs", rid, "verdicts"]) => verdicts(shared, rid, request.query_get("net")),
        ("GET", ["runs", rid, "signoff"]) => signoff(shared, rid),
        _ => Err(ApiError::NotFound(format!("no route for {} {}", request.method, request.path))),
    }
}

/// The liveness/readiness document: `ok` (liveness) stays first for
/// compatibility; `ready` means "not draining and no session mid-
/// elaboration"; `torn_ledger_lines` is what the latest `ledger::scan` found.
fn healthz(shared: &Shared) -> String {
    let draining = shared.shutting_down.load(Ordering::Acquire);
    let elaborating = shared.obs.elaborating();
    json::object(|o| {
        o.raw("ok", true).str("version", env!("CARGO_PKG_VERSION"));
        o.raw("uptime_s", format_args!("{:.3}", shared.obs.uptime_s()));
        o.raw("ready", !draining && elaborating == 0).raw("elaborating", elaborating);
        o.raw("sessions", shared.sessions.read().unwrap_or_else(PoisonError::into_inner).len());
        o.raw("runs", shared.runs.read().unwrap_or_else(PoisonError::into_inner).len());
        o.raw("draining", draining).raw("torn_ledger_lines", shared.obs.torn_lines());
        o.obj("shard_torn_journal_lines", |o| shared.obs.write_shard_torn(o));
    })
}

fn lookup_session(shared: &Shared, sid: &str) -> Result<Arc<Session>, ApiError> {
    shared
        .sessions
        .read()
        .unwrap_or_else(PoisonError::into_inner)
        .get(sid)
        .cloned()
        .ok_or_else(|| ApiError::NotFound(format!("no session {sid:?}")))
}

fn lookup_run(shared: &Shared, rid: &str) -> Result<Arc<RunHandle>, ApiError> {
    shared
        .runs
        .read()
        .unwrap_or_else(PoisonError::into_inner)
        .get(rid)
        .cloned()
        .ok_or_else(|| ApiError::NotFound(format!("no run {rid:?}")))
}

fn create_session(shared: &Arc<Shared>, body: &str, corr: &str) -> Result<String, ApiError> {
    if shared.shutting_down.load(Ordering::Acquire) {
        return Err(ApiError::Busy("daemon is draining".into()));
    }
    let spec = DesignSpec::from_json(body)?;
    let id = format!("s{}", shared.next_session.fetch_add(1, Ordering::Relaxed) + 1);
    // Elaboration (the expensive one-time task) runs on this connection's
    // thread — the executor and other queries are unaffected. The
    // readiness probe reports "elaborating" while it is in flight.
    shared.obs.elaboration_started();
    let built = Session::build(id.clone(), &spec, &shared.cfg.data_dir);
    shared.obs.elaboration_finished();
    let session = Arc::new(built?);
    // The session's info object plus `corr`, tying the answered resource
    // back to the request that created it.
    let info = json::object(|o| {
        session.write_info_members(o);
        o.str("corr", corr);
    });
    shared.sessions.write().unwrap_or_else(PoisonError::into_inner).insert(id, session);
    Ok(info)
}

fn submit_run(shared: &Arc<Shared>, sid: &str, body: &str, corr: &str) -> Result<String, ApiError> {
    let (overlay, _) = RunOverlay::from_json(body, false)?;
    let session = lookup_session(shared, sid)?;
    if shared.shutting_down.load(Ordering::Acquire) {
        return Err(ApiError::Busy("daemon is draining".into()));
    }
    let total = session.chip().victims().len();
    Ok(enqueue(shared, &session.id, total, overlay, None, corr)?.queued_json())
}

/// `POST /sessions/{sid}/eco` — patch the resident parasitics with an
/// edited SPEF document and queue the incremental re-verification.
///
/// The body carries `"text"` (the full edited SPEF) plus any run-overlay
/// option. The handler elaborates the new chip with the session's
/// original driver context, diffs it against the resident one, plans the
/// dirty set (the fingerprint confirmation costs a handful of prunes, not
/// a chip sweep), swaps the session's chip, and queues a run pinned to
/// the exact old/new pair. The answered JSON carries the plan; the run's
/// sign-off artifact is the spliced document, byte-identical to a
/// from-scratch sweep of the edited chip.
fn submit_eco(shared: &Arc<Shared>, sid: &str, body: &str, corr: &str) -> Result<String, ApiError> {
    let (overlay, text) = RunOverlay::from_json(body, true)?;
    if overlay.shards.is_some_and(|s| s >= 2) {
        // An ECO splice reads the warm session cache in-process; fanning
        // it out would recompute the clean set and defeat the splice.
        return Err(ApiError::BadRequest("eco runs cannot be sharded".into()));
    }
    let session = lookup_session(shared, sid)?;
    if shared.shutting_down.load(Ordering::Acquire) {
        return Err(ApiError::Busy("daemon is draining".into()));
    }
    // Elaboration and planning run on this connection's thread, exactly
    // like session creation — the executor keeps draining other runs.
    let new = Arc::new(session.elaborate_eco(&text)?);
    let old = session.chip();
    let delta = EcoDelta::diff(old.db(), new.db());
    let cfg = overlay.engine_config(session.cache_path.clone(), None);
    let plan = EcoPlan::compute(&cfg, &old, &new, &delta).to_json();
    let total = new.victims().len();
    let eco = EcoJob { new: Arc::clone(&new), plan };
    let run = enqueue(shared, &session.id, total, overlay, Some(eco), corr)?;
    // The swap happens only after the run is safely queued: a 429 above
    // leaves the resident chip untouched. The stored spec goes with the
    // chip, so a later sharded run's workers elaborate the patched
    // netlist, not the original upload.
    session.swap(new, &text);
    Ok(run.queued_json())
}

/// Register a run handle and push it onto the bounded queue.
fn enqueue(
    shared: &Arc<Shared>,
    sid: &str,
    total: usize,
    overlay: RunOverlay,
    eco: Option<EcoJob>,
    corr: &str,
) -> Result<Arc<RunHandle>, ApiError> {
    let id = format!("r{}", shared.next_run.fetch_add(1, Ordering::Relaxed) + 1);
    let run = Arc::new(RunHandle {
        id: id.clone(),
        session: sid.to_owned(),
        corr: corr.to_owned(),
        state: Mutex::new(RunState::Queued),
        hub: Arc::new(EventHub::new(HUB_CAPACITY)),
        snapshot: Arc::new(VerdictSnapshot::new()),
        total,
        overlay,
        eco,
        signoff: Mutex::new(None),
    });
    {
        // Bounded backpressure: the queue admits at most queue_capacity
        // *waiting* runs; beyond that the caller gets a typed 429 and
        // retries later. Nothing blocks.
        let mut queue = shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
        if queue.len() >= shared.cfg.queue_capacity {
            return Err(ApiError::Busy(format!(
                "run queue full ({} waiting, capacity {})",
                queue.len(),
                shared.cfg.queue_capacity
            )));
        }
        shared
            .runs
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(id.clone(), Arc::clone(&run));
        queue.push_back(id);
    }
    shared.queue_cv.notify_one();
    Ok(run)
}

fn verdicts(shared: &Shared, rid: &str, net: Option<&str>) -> Result<String, ApiError> {
    let run = lookup_run(shared, rid)?;
    let listed: Vec<NetVerdict> = match net {
        Some(name) => {
            let session = lookup_session(shared, &run.session)?;
            if !session.chip().is_victim(name) {
                // The typed engine-side error, mapped through From so the
                // wire sees 400 with the offending name.
                return Err(ApiError::from(XtalkError::BadRequest {
                    what: format!("net {name:?} is not a victim of session {}", run.session),
                }));
            }
            run.snapshot.get(name).into_iter().collect()
        }
        None => run.snapshot.all(),
    };
    Ok(json::object(|o| {
        o.str("run", rid).str("state", run.state().name());
        o.raw("completed", run.snapshot.len()).raw("total", run.total);
        o.arr("verdicts", |a| {
            for v in &listed {
                a.obj(|o| v.write_members(o));
            }
        });
    }))
}

fn signoff(shared: &Shared, rid: &str) -> Result<String, ApiError> {
    match lookup_run(shared, rid) {
        Ok(run) => match run.state() {
            RunState::Complete => {
                if let Some(bytes) =
                    run.signoff.lock().unwrap_or_else(PoisonError::into_inner).clone()
                {
                    return Ok(bytes);
                }
                signoff_from_ledger(shared, rid)
            }
            RunState::Failed(err) => Err(err),
            other => Err(ApiError::Conflict(format!(
                "run {rid} is {} — no sign-off artifact yet",
                other.name()
            ))),
        },
        // Unknown to this process: maybe a previous daemon instance ran
        // it. The durable run ledger is the source of truth.
        Err(not_found) => signoff_from_ledger(shared, rid).map_err(|e| match e {
            ApiError::NotFound(_) => not_found,
            other => other,
        }),
    }
}

/// Fetch a sign-off artifact by run id through the daemon's durable run
/// ledger (`<data_dir>/runs.jsonl`) — works across daemon restarts.
fn signoff_from_ledger(shared: &Shared, rid: &str) -> Result<String, ApiError> {
    let ledger = shared.cfg.data_dir.join("runs.jsonl");
    let text = std::fs::read_to_string(&ledger)
        .map_err(|_| ApiError::NotFound(format!("no recorded run {rid:?}")))?;
    // Scan newest-last; a torn trailing line parses as an error and is
    // skipped, exactly like the engine-side ledger scan.
    let mut artifact: Option<String> = None;
    for line in text.lines() {
        if let Ok(doc) = parse(line) {
            if doc.get("run").and_then(Value::as_str) == Some(rid)
                && doc.get("outcome").and_then(Value::as_str) == Some("complete")
            {
                artifact = doc.get("artifact").and_then(Value::as_str).map(str::to_owned);
            }
        }
    }
    let path = artifact.ok_or_else(|| ApiError::NotFound(format!("no recorded run {rid:?}")))?;
    std::fs::read_to_string(&path)
        .map_err(|e| ApiError::Internal(format!("artifact {path} unreadable: {e}")))
}

/// Stream a run's events, then its trailer; `record` counts the request
/// once, with its status.
fn stream_events(
    stream: &mut TcpStream,
    shared: &Shared,
    rid: &str,
    corr: &str,
    record: impl FnOnce(u16),
) {
    let run = match lookup_run(shared, rid) {
        Ok(run) => run,
        Err(err) => {
            let (status, reason, _) = err.status();
            let _ = http::respond_json(stream, status, reason, &err.to_json());
            return record(status);
        }
    };
    let mut cursor = run.hub.subscribe();
    let Ok(mut writer) = ChunkedWriter::begin(stream, "application/jsonl") else {
        return record(200);
    };
    loop {
        match cursor.poll() {
            Ok(event) => {
                if writer.line(&event.to_json()).is_err() {
                    return record(200); // client hung up
                }
            }
            Err(CursorState::Open) => std::thread::sleep(Duration::from_millis(5)),
            Err(CursorState::Closed) => break,
        }
    }
    // Dropped events are counted in the trailer, never silent.
    let trailer = run.trailer_json(cursor.delivered(), cursor.dropped(), corr);
    // Counted before the trailer goes out, so a client that has read the
    // end of the stream finds it in /metrics.
    record(200);
    if writer.line(&trailer).is_ok() {
        let _ = writer.finish();
    }
}

fn executor_loop(shared: Arc<Shared>) {
    loop {
        let next = {
            let mut queue = shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(id) = queue.pop_front() {
                    break Some(id);
                }
                if shared.shutting_down.load(Ordering::Acquire) {
                    break None;
                }
                queue = shared
                    .queue_cv
                    .wait_timeout(queue, Duration::from_millis(200))
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
        };
        let Some(run_id) = next else {
            return;
        };
        if shared.shutting_down.load(Ordering::Acquire) {
            // Draining: queued-but-unstarted runs are not executed; their
            // sessions were never touched, so nothing needs resuming.
            if let Ok(run) = lookup_run(&shared, &run_id) {
                run.set_state(RunState::Interrupted);
                run.hub.close();
            }
            continue;
        }
        execute_run(&shared, &run_id);
    }
}

fn execute_run(shared: &Shared, run_id: &str) {
    let Ok(run) = lookup_run(shared, run_id) else {
        return;
    };
    let Ok(session) = lookup_session(shared, &run.session) else {
        run.set_state(RunState::Failed(ApiError::Internal("session vanished".into())));
        run.hub.close();
        return;
    };
    run.set_state(RunState::Running);
    session.set_state(SessionState::Running);

    let stop = StopFlag::new();
    *shared.in_flight.lock().unwrap_or_else(PoisonError::into_inner) =
        Some((Arc::clone(&run), stop.clone()));
    // Close the race with a shutdown that arrived between queue pop and
    // flag install: drain immediately instead of running blind.
    if shared.shutting_down.load(Ordering::Acquire) {
        stop.stop();
    }

    let mut sinks: Vec<Arc<dyn EventSink>> = vec![Arc::clone(&run.hub) as Arc<dyn EventSink>];
    if let Some(n) = run.overlay.stop_after {
        sinks.push(Arc::new(StopAfter::new(stop.clone(), n)) as Arc<dyn EventSink>);
    }
    if shared.cfg.observe {
        // The flight recorder rides as one more sink: a bounded ring whose
        // eviction is by design, so it reports zero shed events and leaves
        // EngineStats (and therefore the sign-off bytes) untouched.
        sinks.push(shared.obs.flight() as Arc<dyn EventSink>);
    }
    let sink: Arc<dyn EventSink> = if sinks.len() == 1 {
        sinks.pop().expect("one sink")
    } else {
        Arc::new(TeeSink::new(sinks))
    };
    let sharded = run.eco.is_none() && run.overlay.shards.is_some_and(|s| s >= 2);
    let outcome: Result<pcv_engine::EngineReport, ApiError> = if sharded {
        execute_sharded(shared, &session, &run, sink, &stop)
    } else {
        let mut cfg = run.overlay.engine_config(session.cache_path.clone(), Some(sink));
        cfg.durable.stop = Some(stop.clone());

        let mut engine = Engine::new(cfg);
        if let Some(frac) = run.overlay.drill_slow_frac {
            // The watchdog drill: seed deterministic slow faults so victims
            // escalate through the recovery ladder's slow rung.
            let seed = run.overlay.drill_seed.unwrap_or(1);
            engine.set_fault_plan(Plan::new().seeded(seed, frac, 1, FaultKind::Slow));
        }
        // An ECO run verifies exactly the chip its plan was answered for
        // (clean clusters splice from the warm cache); any other run, the
        // session's current one.
        let chip = run.eco.as_ref().map_or_else(|| session.chip(), |eco| Arc::clone(&eco.new));
        engine
            .run(RunRequest {
                resume: run.overlay.resume,
                snapshot: Some(&run.snapshot),
                ..RunRequest::resident(&chip)
            })
            .map_err(ApiError::from)
    };
    *shared.in_flight.lock().unwrap_or_else(PoisonError::into_inner) = None;

    absorb_run_observations(shared, &session, &run, &outcome);
    match outcome {
        Ok(report) if report.interrupted => {
            run.set_state(RunState::Interrupted);
            ledger_append(shared, &run, "interrupted", None);
        }
        Ok(report) => {
            let bytes = report.signoff_json();
            let artifact = shared.cfg.data_dir.join(format!("run-{}.signoff.json", run.id));
            // The durable artifact is written atomically, then recorded in
            // the run ledger — a crash between the two loses the ledger
            // line, never serves a torn document.
            let stored = Fs::real().write_atomic(&artifact, bytes.as_bytes()).is_ok();
            *run.signoff.lock().unwrap_or_else(PoisonError::into_inner) = Some(bytes);
            run.set_state(RunState::Complete);
            ledger_append(shared, &run, "complete", stored.then_some(artifact));
        }
        Err(e) => {
            run.set_state(RunState::Failed(e));
            ledger_append(shared, &run, "failed", None);
        }
    }
    run.hub.close();
    session.set_state(SessionState::Completed);
}

/// The shard-coordinator dispatch: resolve the worker binary, map the
/// overlay's shard knobs onto a [`CoordinatorConfig`], run, and fold the
/// per-shard telemetry into the observatory.
fn execute_sharded(
    shared: &Shared,
    session: &Session,
    run: &RunHandle,
    sink: Arc<dyn EventSink>,
    stop: &StopFlag,
) -> Result<pcv_engine::EngineReport, ApiError> {
    let worker_exe = match &shared.cfg.worker_exe {
        Some(p) => p.clone(),
        None => std::env::current_exe()
            .map_err(|e| ApiError::Internal(format!("locating worker executable: {e}")))?,
    };
    let shards = run.overlay.shards.unwrap_or(2);
    let mut cfg = CoordinatorConfig::new(shards, worker_exe, session.cache_path.clone());
    cfg.workers_per_shard = run.overlay.workers.unwrap_or(0);
    cfg.thresholds = run.overlay.thresholds;
    if let Some(ms) = run.overlay.shard_timeout_ms {
        cfg.heartbeat_timeout = Duration::from_millis(ms);
    }
    cfg.deadline = run.overlay.deadline_ms.map(Duration::from_millis);
    if let Some(budget) = run.overlay.shard_restarts {
        cfg.restart_budget = budget;
    }
    cfg.sink = Some(sink);
    cfg.stop = Some(stop.clone());
    let (chip, spec) = session.resident();
    let coordinator = Coordinator::new(spec, chip, cfg);
    let outcome = coordinator.run(Some(&run.snapshot))?;
    shared.obs.absorb_shard_run(&outcome);
    Ok(outcome.report)
}

/// Fold a finished run into the observatory: outcome + `EngineStats` into
/// the registry, the run's trace (when one was requested), and a rescan of
/// the session's engine ledger for its torn-line count (`/metrics`,
/// `/healthz`).
fn absorb_run_observations(
    shared: &Shared,
    session: &Session,
    run: &RunHandle,
    outcome: &Result<pcv_engine::EngineReport, ApiError>,
) {
    if !shared.cfg.observe {
        return;
    }
    if let Ok(report) = outcome {
        let name = if report.interrupted { "interrupted" } else { "complete" };
        shared.obs.absorb_report(report, name, run.eco.is_some());
    } else {
        shared.obs.record_failed_run();
    }
    let (_, torn) = pcv_obs::ledger::scan(&pcv_obs::ledger::path_for(&session.cache_path));
    shared.obs.set_torn_lines(torn as u64);
}

/// Append one line to the daemon's durable run ledger
/// (`<data_dir>/runs.jsonl`): run id → outcome (+ artifact path when one
/// was published, + the ECO plan when the run was a splice). Best-effort,
/// fsync'd.
fn ledger_append(shared: &Shared, run: &RunHandle, outcome: &str, artifact: Option<PathBuf>) {
    let ledger = shared.cfg.data_dir.join("runs.jsonl");
    let line = run.ledger_line(outcome, artifact.as_deref()) + "\n";
    let _ = Fs::real().append_durable(&ledger, line.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A run `r7` of session `s1` over 6 victims, with an ECO plan when
    /// `plan` is given.
    fn handle(plan: Option<&str>) -> RunHandle {
        let chip = ResidentChip::fixed_resistance(pcv_netlist::ParasiticDb::new(), 1e3, vec![]);
        RunHandle {
            id: "r7".into(),
            session: "s1".into(),
            corr: "c\"3\"".into(),
            state: Mutex::new(RunState::Queued),
            hub: Arc::new(EventHub::new(4)),
            snapshot: Arc::new(VerdictSnapshot::new()),
            total: 6,
            overlay: RunOverlay::default(),
            eco: plan.map(|plan| EcoJob { new: Arc::new(chip), plan: plan.into() }),
            signoff: Mutex::new(None),
        }
    }

    #[test]
    fn queued_trailer_and_runs_ledger_lines_are_pinned() {
        let plain = handle(None);
        let eco = handle(Some("{\"edits\":1,\"splice_fraction\":0.5}"));
        eco.set_state(RunState::Complete);
        let artifact = Path::new("/data/r7 \"x\".signoff.json");
        let lines = [
            plain.queued_json(),
            eco.queued_json(),
            plain.trailer_json(12, 0, "c9"),
            eco.trailer_json(3, 40, ""),
            plain.ledger_line("failed", None),
            eco.ledger_line("complete", Some(artifact)),
        ];
        assert_eq!(
            lines,
            [
                concat!(
                    "{\"run\":\"r7\",\"session\":\"s1\",\"state\":\"queued\",\"total\":6",
                    ",\"corr\":\"c\\\"3\\\"\"}",
                ),
                concat!(
                    "{\"run\":\"r7\",\"session\":\"s1\",\"state\":\"queued\",\"total\":6",
                    ",\"corr\":\"c\\\"3\\\"\",\"eco\":{\"edits\":1",
                    ",\"splice_fraction\":0.5}}",
                ),
                concat!(
                    "{\"kind\":\"stream_trailer\",\"run\":\"r7\",\"state\":\"queued\"",
                    ",\"delivered\":12,\"dropped\":0,\"run_corr\":\"c\\\"3\\\"\"",
                    ",\"corr\":\"c9\"}",
                ),
                concat!(
                    "{\"kind\":\"stream_trailer\",\"run\":\"r7\",\"state\":\"complete\"",
                    ",\"delivered\":3,\"dropped\":40,\"run_corr\":\"c\\\"3\\\"\"",
                    ",\"corr\":\"\"}",
                ),
                concat!(
                    "{\"run\":\"r7\",\"session\":\"s1\",\"corr\":\"c\\\"3\\\"\"",
                    ",\"outcome\":\"failed\",\"victims\":6}",
                ),
                concat!(
                    "{\"run\":\"r7\",\"session\":\"s1\",\"corr\":\"c\\\"3\\\"\"",
                    ",\"outcome\":\"complete\",\"victims\":6",
                    ",\"artifact\":\"/data/r7 \\\"x\\\".signoff.json\",\"eco\":{\"edits\":1",
                    ",\"splice_fraction\":0.5}}",
                ),
            ]
        );
    }

    #[test]
    fn an_option_the_run_would_drop_is_a_400_naming_it() {
        for (body, key) in [
            // Sharded: the coordinator supervises processes; it seeds no
            // in-process drill and collects no trace.
            ("{\"shards\":2,\"drill_slow_frac\":0.5}", "drill_slow_frac"),
            ("{\"shards\":2,\"drill_slow_frac\":0.5,\"drill_seed\":3}", "drill_slow_frac"),
            ("{\"shards\":4,\"drill_seed\":3}", "drill_seed"),
            ("{\"shards\":2,\"trace\":true}", "trace"),
            // A seed with nothing to seed.
            ("{\"drill_seed\":3}", "drill_seed"),
            ("{\"workers\":1,\"shards\":1,\"drill_seed\":3}", "drill_seed"),
            // In-process: nothing to supervise.
            ("{\"shard_timeout_ms\":500}", "shard_timeout_ms"),
            ("{\"shards\":1,\"deadline_ms\":500}", "deadline_ms"),
            ("{\"shard_restarts\":1}", "shard_restarts"),
        ] {
            match RunOverlay::from_json(body, false) {
                Err(ApiError::BadRequest(m)) => assert!(m.starts_with(key), "{body}: {m}"),
                other => panic!("{body}: expected a 400 naming {key}, got {other:?}"),
            }
        }
    }

    #[test]
    fn run_and_eco_bodies_keep_their_error_texts() {
        let bad = |body: &str, eco: bool| match RunOverlay::from_json(body, eco) {
            Err(ApiError::BadRequest(m)) => m,
            other => panic!("{body}: expected a 400, got {other:?}"),
        };
        for (body, eco, want) in [
            ("[1]", false, "run overlay must be a JSON object"),
            ("{\"text\":\"x\"}", false, "unknown run option \"text\""),
            ("", true, "eco body: json parse error at byte 0: expected a value"),
            ("7", true, "eco body must be a JSON object"),
            ("{\"text\":7}", true, "text must be a string"),
            ("{\"text\":\"x\",\"nope\":1}", true, "unknown eco option \"nope\""),
            (
                "{\"shards\":2,\"trace\":true}",
                true,
                "eco needs \"text\": the full edited SPEF document",
            ),
            ("{\"text\":\"x\",\"drill_seed\":3}", true, "drill_seed requires \"drill_slow_frac\""),
        ] {
            assert_eq!(bad(body, eco), want, "{body}");
        }
        assert!(bad("{", false).starts_with("run overlay: json parse error"));
        let (overlay, text) =
            RunOverlay::from_json("{\"text\":\"*SPEF\",\"workers\":2}", true).unwrap();
        assert_eq!((overlay.workers, text.as_str()), (Some(2), "*SPEF"));
    }

    #[test]
    fn the_forms_callers_send_are_accepted() {
        let overlay = |body: &str| {
            RunOverlay::from_json(body, false)
                .unwrap_or_else(|e| panic!("{body}: rejected: {e:?}"))
                .0
        };
        assert!(overlay("").shards.is_none());
        assert!(overlay("{\"trace\":true}").trace);
        let drill = overlay("{\"workers\":1,\"drill_slow_frac\":1.0,\"drill_seed\":1}");
        assert_eq!((drill.drill_slow_frac, drill.drill_seed), (Some(1.0), Some(1)));
        assert_eq!(overlay("{\"drill_slow_frac\":0.25}").drill_seed, None, "seed defaults");
        assert_eq!(overlay("{\"shards\":2,\"workers\":1}").shards, Some(2));
        assert!(!overlay("{\"shards\":2,\"trace\":false}").trace, "an unset trace drops nothing");
        let sharded = overlay(
            "{\"shards\":2,\"shard_timeout_ms\":30000,\"deadline_ms\":600000,\
             \"shard_restarts\":1,\"stop_after\":3,\"warn_frac\":0.05}",
        );
        assert_eq!(sharded.deadline_ms, Some(600_000));
        assert_eq!(sharded.thresholds.warn_frac, Some(0.05));
        // A one-shard run is the in-process executor's, drills and all.
        assert!(overlay("{\"shards\":1,\"trace\":true,\"drill_slow_frac\":0.5}").trace);
    }
}
