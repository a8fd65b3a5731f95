//! The daemon's observatory: metrics recording, request correlation, the
//! access log, and the exposition/access-log validators.
//!
//! [`Observatory`] is the single sink every serve-side observability call
//! goes through. It owns the process-wide [`Registry`], the always-on
//! [`FlightRecorder`], the correlation-ID mint, and the durable access
//! log. When constructed disabled (`--no-observe`) every recording method
//! is a no-op and no access log is written — but `/metrics` and
//! `/debug/flight` still answer (with an idle registry and an empty ring),
//! so scrapers never see the surface disappear.
//!
//! The inertness contract is structural: nothing in this module is read
//! by the verification path, and nothing here writes anywhere near the
//! cache, journal, or sign-off artifacts. Enabling or disabling the
//! observatory cannot change a single sign-off byte — a property the
//! serve test-suite asserts by byte-comparing artifacts across the two
//! configurations.

use pcv_engine::fs::Fs;
use pcv_engine::EngineReport;
use pcv_obs::{FlightRecorder, Registry};
use pcv_trace::json::str_lit;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Help strings live next to the metric names; DESIGN.md §13 mirrors this
/// table.
const HELP_HTTP_REQS: &str = "HTTP requests served, by route pattern and status.";
const HELP_HTTP_LAT: &str = "HTTP request latency in seconds, by route pattern.";
const HELP_RUNS: &str = "Engine runs executed by the daemon, by outcome.";
const HELP_STALLS: &str = "Stall-watchdog trips (no-progress warnings); never kills the run.";

/// The serve-side observability hub; see the module docs.
pub struct Observatory {
    enabled: bool,
    registry: Registry,
    flight: Arc<FlightRecorder>,
    access_path: PathBuf,
    start: Instant,
    /// Torn (unparseable) lines seen by the most recent engine-ledger
    /// rescan — surfaced in `/metrics` and `/healthz`.
    torn: AtomicU64,
    /// Per-shard torn journal-line counts from the most recent sharded
    /// run (index = shard) — surfaced in `/healthz`.
    shard_torn: std::sync::Mutex<Vec<u64>>,
    /// Sessions currently elaborating (readiness: ready once 0).
    elaborating: AtomicU64,
    next_corr: AtomicU64,
}

impl std::fmt::Debug for Observatory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Observatory").field("enabled", &self.enabled).finish()
    }
}

impl Observatory {
    /// An observatory writing its access log to `<data_dir>/access.jsonl`.
    /// When `enabled` is false, recording is a no-op but the read surfaces
    /// (`render_metrics`, `flight`) stay live.
    pub fn new(data_dir: &Path, enabled: bool) -> Self {
        Observatory {
            enabled,
            registry: Registry::new(),
            flight: Arc::new(FlightRecorder::new(512)),
            access_path: data_dir.join("access.jsonl"),
            start: Instant::now(),
            torn: AtomicU64::new(0),
            shard_torn: std::sync::Mutex::new(Vec::new()),
            elaborating: AtomicU64::new(0),
            next_corr: AtomicU64::new(0),
        }
    }

    /// Whether recording is active.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The always-on flight recorder (shared so it can ride in an engine
    /// [`TeeSink`](pcv_obs::TeeSink)).
    pub fn flight(&self) -> Arc<FlightRecorder> {
        Arc::clone(&self.flight)
    }

    /// The metrics registry (for direct gauge/counter access in handlers).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Seconds since the daemon booted.
    pub fn uptime_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Mint a fresh correlation ID (`c1`, `c2`, ... per process).
    pub fn mint_corr(&self) -> String {
        format!("c{}", self.next_corr.fetch_add(1, Ordering::Relaxed) + 1)
    }

    /// Record the latest engine-ledger torn-line count.
    pub fn set_torn_lines(&self, torn: u64) {
        self.torn.store(torn, Ordering::Relaxed);
    }

    /// Torn engine-ledger lines from the latest rescan.
    pub fn torn_lines(&self) -> u64 {
        self.torn.load(Ordering::Relaxed)
    }

    /// Bracket a session elaboration (readiness accounting).
    pub fn elaboration_started(&self) {
        self.elaborating.fetch_add(1, Ordering::AcqRel);
    }

    /// See [`Observatory::elaboration_started`].
    pub fn elaboration_finished(&self) {
        self.elaborating.fetch_sub(1, Ordering::AcqRel);
    }

    /// Sessions currently elaborating.
    pub fn elaborating(&self) -> u64 {
        self.elaborating.load(Ordering::Acquire)
    }

    /// Record one served HTTP request: count + latency histogram, flight
    /// note, durable access-log line.
    pub fn record_http(&self, corr: &str, method: &str, path: &str, status: u16, seconds: f64) {
        if !self.enabled {
            return;
        }
        let route = route_label(method, path);
        let status_str = status.to_string();
        self.registry.counter_add(
            "pcv_http_requests_total",
            HELP_HTTP_REQS,
            &[("route", route), ("status", &status_str)],
            1,
        );
        self.registry.observe(
            "pcv_http_request_seconds",
            HELP_HTTP_LAT,
            &[("route", route)],
            &pcv_obs::metrics::LATENCY_BOUNDS_S,
            seconds,
        );
        self.flight.note("http", format!("{corr} {method} {path} -> {status}"));
        let line = format!(
            "{{\"corr\":{},\"method\":{},\"path\":{},\"status\":{},\"ms\":{:.3}}}\n",
            str_lit(corr),
            str_lit(method),
            str_lit(path),
            status,
            seconds * 1e3
        );
        let _ = Fs::real().append_durable(&self.access_path, line.as_bytes());
    }

    /// Count a run that failed before producing a report.
    pub fn record_failed_run(&self) {
        if !self.enabled {
            return;
        }
        self.registry.counter_add("pcv_runs_total", HELP_RUNS, &[("outcome", "failed")], 1);
    }

    /// Bump the stall-warning counter (watchdog trip).
    pub fn record_stall(&self, run: &str) {
        if !self.enabled {
            return;
        }
        self.registry.counter_add("pcv_stall_warnings_total", HELP_STALLS, &[("run", run)], 1);
    }

    /// Fold one finished engine run into the registry: run outcome,
    /// `EngineStats` counters and gauges, ECO splice fraction, and the
    /// run's trace when one was collected.
    pub fn absorb_report(&self, report: &EngineReport, outcome: &str, is_eco: bool) {
        if !self.enabled {
            return;
        }
        let r = &self.registry;
        r.counter_add("pcv_runs_total", HELP_RUNS, &[("outcome", outcome)], 1);
        let s = &report.stats;
        let c = |name, help, v: u64| r.counter_add(name, help, &[], v);
        c("pcv_engine_cache_hits_total", "Result-cache hits across runs.", s.cache_hits as u64);
        c(
            "pcv_engine_cache_misses_total",
            "Result-cache misses across runs.",
            s.cache_misses as u64,
        );
        c("pcv_engine_journal_hits_total", "Journal replays across runs.", s.journal_hits as u64);
        c(
            "pcv_engine_degraded_total",
            "Clusters that completed on a degraded rung.",
            s.degraded as u64,
        );
        c("pcv_engine_skipped_total", "Clusters skipped by cooperative stop.", s.skipped as u64);
        c("pcv_engine_steals_total", "Work-steal operations across runs.", s.steals);
        c(
            "pcv_engine_events_dropped_total",
            "Observability events shed by bounded sinks.",
            s.events_dropped,
        );
        r.gauge_set(
            "pcv_engine_cache_hit_rate",
            "Cache hit rate of the most recent run.",
            &[],
            s.hit_rate(),
        );
        r.gauge_set(
            "pcv_engine_peak_alloc_bytes",
            "Peak tracked heap of the most recent run (0 without track-alloc).",
            &[],
            s.peak_alloc_bytes as f64,
        );
        if is_eco && s.victims > 0 {
            r.gauge_set(
                "pcv_eco_splice_fraction",
                "Fraction of the last ECO run's victims spliced from cache.",
                &[],
                s.cache_hits as f64 / s.victims as f64,
            );
        }
        if let Some(trace) = &report.trace {
            r.absorb_trace(trace);
        }
    }

    /// Fold a finished sharded run's supervision telemetry into the
    /// registry (`pcv_shard_*` series) and the `/healthz` per-shard torn
    /// counts. The merged report itself still goes through
    /// [`Observatory::absorb_report`] like any other run.
    pub fn absorb_shard_run(&self, outcome: &crate::shard::ShardRunOutcome) {
        if !self.enabled {
            return;
        }
        let torn: Vec<u64> = outcome.shards.iter().map(|s| s.torn_journal_lines as u64).collect();
        *self.shard_torn.lock().unwrap_or_else(std::sync::PoisonError::into_inner) = torn;
        let r = &self.registry;
        r.counter_add(
            "pcv_shard_restarts_total",
            "Shard-worker restarts performed by the coordinator.",
            &[],
            outcome.restarts(),
        );
        r.counter_add(
            "pcv_shard_heartbeat_misses_total",
            "Shard-worker heartbeat deadlines missed (each kills an incarnation).",
            &[],
            outcome.heartbeat_misses(),
        );
        r.counter_add(
            "pcv_shard_degraded_total",
            "Shards that exhausted their restart budget (WorstCase fill).",
            &[],
            outcome.degraded_shards(),
        );
        for s in &outcome.shards {
            r.gauge_set(
                "pcv_shard_peak_heap_bytes",
                "Peak tracked heap per shard worker (0 without track-alloc).",
                &[("shard", &s.shard.to_string())],
                s.peak_alloc_bytes as f64,
            );
        }
    }

    /// The `/healthz` per-shard torn-line object: `{"0":1,"1":0,...}`
    /// (`{}` before any sharded run).
    pub fn shard_torn_json(&self) -> String {
        let torn = self.shard_torn.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut out = String::from("{");
        for (k, t) in torn.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{k}\":{t}"));
        }
        out.push('}');
        out
    }

    /// Refresh the scrape-time gauges and render the registry as
    /// Prometheus text exposition.
    pub fn render_metrics(&self, queue_depth: usize, sessions: usize) -> String {
        let r = &self.registry;
        r.gauge_set("pcv_uptime_seconds", "Seconds since the daemon booted.", &[], {
            // Quantized so consecutive scrapes in tests are stable enough
            // to eyeball; Prometheus only needs ~second resolution here.
            (self.uptime_s() * 1e3).round() / 1e3
        });
        r.gauge_set(
            "pcv_run_queue_depth",
            "Runs waiting in the bounded queue.",
            &[],
            queue_depth as f64,
        );
        r.gauge_set("pcv_sessions_resident", "Sessions currently resident.", &[], sessions as f64);
        r.gauge_set(
            "pcv_ledger_torn_lines",
            "Torn engine-ledger lines seen by the latest rescan.",
            &[],
            self.torn_lines() as f64,
        );
        r.gauge_set(
            "pcv_flight_entries",
            "Observations currently held by the flight recorder.",
            &[],
            self.flight.len() as f64,
        );
        r.render()
    }
}

/// Collapse a concrete request path to its low-cardinality route pattern —
/// metrics labels must not grow with session/run count.
pub fn route_label(method: &str, path: &str) -> &'static str {
    let names: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    match (method, names.as_slice()) {
        ("GET", ["healthz"]) => "/healthz",
        ("GET", ["metrics"]) => "/metrics",
        ("GET", ["debug", "flight"]) => "/debug/flight",
        ("POST", ["shutdown"]) => "/shutdown",
        ("POST", ["sessions"]) => "/sessions",
        ("GET", ["sessions", _]) => "/sessions/{id}",
        ("POST", ["sessions", _, "runs"]) => "/sessions/{id}/runs",
        ("POST", ["sessions", _, "eco"]) => "/sessions/{id}/eco",
        ("GET", ["runs", _, "events"]) => "/runs/{id}/events",
        ("GET", ["runs", _, "verdicts"]) => "/runs/{id}/verdicts",
        ("GET", ["runs", _, "signoff"]) => "/runs/{id}/signoff",
        _ => "other",
    }
}

/// Validate Prometheus text exposition: every sample belongs to a family
/// announced by a preceding `# TYPE`, histogram families carry
/// `_bucket`/`_sum`/`_count` with a closing `+Inf` bucket, label syntax is
/// well-formed, and every value parses.
///
/// # Errors
///
/// The first violation, as a human-readable message with its line number.
pub fn check_exposition(text: &str) -> Result<(), String> {
    use std::collections::HashMap;
    let mut types: HashMap<String, String> = HashMap::new();
    let mut inf_closed: HashMap<String, bool> = HashMap::new();
    for (i, line) in text.lines().enumerate() {
        let at = |what: &str| format!("line {}: {what}: {line}", i + 1);
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().ok_or_else(|| at("TYPE without a name"))?;
            let kind = parts.next().ok_or_else(|| at("TYPE without a kind"))?;
            if !matches!(kind, "counter" | "gauge" | "histogram" | "summary" | "untyped") {
                return Err(at("unknown TYPE kind"));
            }
            types.insert(name.to_owned(), kind.to_owned());
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP or comment
        }
        // Sample: name[{labels}] value
        let (series, value) = match line.find('{') {
            Some(open) => {
                // The closing brace must be found quote-aware: label
                // *values* may contain literal braces (route patterns
                // like "/runs/{id}/events").
                let close = closing_brace(line, open).ok_or_else(|| at("{ without }"))?;
                let labels = &line[open + 1..close];
                for pair in split_labels(labels) {
                    let (_, v) = pair.split_once('=').ok_or_else(|| at("label pair without ="))?;
                    if !v.starts_with('"') || !v.ends_with('"') || v.len() < 2 {
                        return Err(at("label value not quoted"));
                    }
                }
                (&line[..open], line[close + 1..].trim())
            }
            None => {
                let (name, value) =
                    line.split_once(' ').ok_or_else(|| at("sample without a value"))?;
                (name, value.trim())
            }
        };
        if value != "+Inf" && value != "-Inf" && value != "NaN" && value.parse::<f64>().is_err() {
            return Err(at("unparseable sample value"));
        }
        // Resolve the family: histogram samples suffix the family name.
        let family = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suf| {
                series.strip_suffix(suf).filter(|base| {
                    types.get(*base).is_some_and(|k| k == "histogram" || k == "summary")
                })
            })
            .unwrap_or(series);
        let Some(kind) = types.get(family) else {
            return Err(at("sample without a preceding # TYPE"));
        };
        if kind == "histogram" {
            if series == format!("{family}_bucket") && line.contains("le=\"+Inf\"") {
                inf_closed.insert(family.to_owned(), true);
            }
            if series.ends_with("_bucket") && !line.contains("le=\"") {
                return Err(at("histogram bucket without an le label"));
            }
        }
    }
    for (family, kind) in &types {
        if kind == "histogram" && !inf_closed.get(family).copied().unwrap_or(false) {
            return Err(format!("histogram {family} has no +Inf bucket"));
        }
    }
    Ok(())
}

/// Index of the `}` closing the label block opened at `open`, skipping
/// braces inside quoted (possibly escape-containing) label values.
fn closing_brace(line: &str, open: usize) -> Option<usize> {
    let (mut in_quotes, mut escaped) = (false, false);
    for (i, c) in line[open + 1..].char_indices() {
        match c {
            '\\' if in_quotes => escaped = !escaped,
            '"' if !escaped => in_quotes = !in_quotes,
            '}' if !in_quotes => return Some(open + 1 + i),
            _ => escaped = false,
        }
    }
    None
}

/// Split a label body on commas that sit outside quoted values.
fn split_labels(body: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let (mut start, mut in_quotes, mut escaped) = (0usize, false, false);
    for (i, c) in body.char_indices() {
        match c {
            '\\' if in_quotes => escaped = !escaped,
            '"' if !escaped => in_quotes = !in_quotes,
            ',' if !in_quotes => {
                if !body[start..i].is_empty() {
                    out.push(&body[start..i]);
                }
                start = i + 1;
            }
            _ => escaped = false,
        }
    }
    if !body[start..].is_empty() {
        out.push(&body[start..]);
    }
    out
}

/// Validate the daemon's access log: every line is a JSON object carrying
/// `corr`, `method`, `path`, a numeric `status`, and a numeric `ms`.
///
/// # Errors
///
/// The first malformed line, with its line number.
pub fn check_access_log(text: &str) -> Result<(), String> {
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc =
            pcv_obs::json::parse(line).map_err(|e| format!("access log line {}: {e}", i + 1))?;
        for key in ["corr", "method", "path"] {
            if doc.get(key).and_then(|v| v.as_str()).is_none() {
                return Err(format!("access log line {}: missing string {key:?}", i + 1));
            }
        }
        for key in ["status", "ms"] {
            if doc.get(key).and_then(|v| v.as_f64()).is_none() {
                return Err(format!("access log line {}: missing numeric {key:?}", i + 1));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_labels_stay_low_cardinality() {
        assert_eq!(route_label("GET", "/healthz"), "/healthz");
        assert_eq!(route_label("GET", "/sessions/s17"), "/sessions/{id}");
        assert_eq!(route_label("POST", "/sessions/s17/runs"), "/sessions/{id}/runs");
        assert_eq!(route_label("GET", "/runs/r99/events"), "/runs/{id}/events");
        assert_eq!(route_label("GET", "/runs/r99/signoff"), "/runs/{id}/signoff");
        assert_eq!(route_label("DELETE", "/sessions/s17"), "other");
        assert_eq!(route_label("GET", "/nope"), "other");
    }

    #[test]
    fn checker_accepts_the_registry_render() {
        let obs = Observatory::new(Path::new("target/pcv_observe_test"), true);
        obs.record_stall("r1");
        let text = obs.render_metrics(2, 1);
        check_exposition(&text).expect("own render must validate");
        assert!(text.contains("pcv_run_queue_depth 2\n"), "{text}");
        assert!(text.contains("pcv_sessions_resident 1\n"), "{text}");
        assert!(text.contains("pcv_stall_warnings_total{run=\"r1\"} 1\n"), "{text}");
    }

    #[test]
    fn checker_rejects_malformed_exposition() {
        assert!(check_exposition("pcv_x 1\n").is_err(), "sample without TYPE");
        assert!(check_exposition("# TYPE pcv_x counter\npcv_x notanumber\n").is_err());
        assert!(check_exposition("# TYPE pcv_x counter\npcv_x{a=unquoted} 1\n").is_err());
        assert!(
            check_exposition(
                "# TYPE pcv_h histogram\npcv_h_bucket{le=\"1\"} 1\npcv_h_sum 1\npcv_h_count 1\n"
            )
            .is_err(),
            "histogram must close with +Inf"
        );
        let good = "# TYPE pcv_h histogram\npcv_h_bucket{le=\"1\"} 1\n\
                    pcv_h_bucket{le=\"+Inf\"} 1\npcv_h_sum 1\npcv_h_count 1\n";
        check_exposition(good).unwrap();
        // Label values may contain literal braces — route patterns do.
        check_exposition("# TYPE pcv_x counter\npcv_x{route=\"/runs/{id}/events\"} 1\n").unwrap();
    }

    #[test]
    fn access_log_checker_wants_all_fields() {
        let good = "{\"corr\":\"c1\",\"method\":\"GET\",\"path\":\"/healthz\",\"status\":200,\"ms\":0.21}\n";
        check_access_log(good).unwrap();
        check_access_log("").unwrap();
        assert!(check_access_log("{\"corr\":\"c1\"}\n").is_err());
        assert!(check_access_log("not json\n").is_err());
    }

    #[test]
    fn disabled_observatory_records_nothing() {
        let obs = Observatory::new(Path::new("target/pcv_observe_off"), false);
        obs.record_http("c1", "GET", "/healthz", 200, 0.001);
        obs.record_stall("r1");
        let text = obs.render_metrics(0, 0);
        // Scrape-time gauges still render (the surface stays live), but no
        // request/stall series were recorded and no access log exists.
        assert!(!text.contains("pcv_http_requests_total"), "{text}");
        assert!(!text.contains("pcv_stall_warnings_total"), "{text}");
        assert!(text.contains("pcv_uptime_seconds"), "{text}");
        assert!(!Path::new("target/pcv_observe_off/access.jsonl").exists());
    }

    #[test]
    fn correlation_ids_are_unique_and_ordered() {
        let obs = Observatory::new(Path::new("target/pcv_observe_corr"), true);
        assert_eq!(obs.mint_corr(), "c1");
        assert_eq!(obs.mint_corr(), "c2");
        assert_eq!(obs.mint_corr(), "c3");
    }
}
