//! Observability tests for the `pcv-serve` daemon: the `/metrics`
//! exposition contract, extended `/healthz`, `Retry-After` + client
//! backoff, end-to-end correlation IDs, the stall-watchdog drill, and the
//! inertness proof — sign-off artifacts byte-identical with the whole
//! observatory enabled vs. disabled.
//!
//! Every test boots a real daemon on an ephemeral localhost port, exactly
//! like the load suite.

use pcv_engine::{Engine, EngineConfig, FaultKind, Plan};
use pcv_serve::session::{elaborate, DesignSpec};
use pcv_serve::{check_access_log, check_exposition, Client, Server, ServerConfig};
use pcv_trace::json::str_lit;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("pcv-metrics-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// A small deterministic chip as inline SPEF. The default (1 bus × 5
/// bits plus 8 random nets) gives several clusters; the watchdog drill
/// uses a 2-net chip because every faulted cluster pays for a full SPICE
/// reference run.
fn spef_body_sized(bus_bits: usize, n_random_nets: usize) -> String {
    let block = pcv_designs::dsp::generate(
        &pcv_designs::dsp::DspConfig { n_buses: 1, bus_bits, n_random_nets, ..Default::default() },
        &pcv_designs::Technology::c025(),
        &pcv_cells::library::CellLibrary::standard_025(),
    );
    let spef = pcv_netlist::spef::write_spef(&block.parasitics);
    format!(
        "{{\"design\":{{\"kind\":\"spef\",\"drive_ohms\":1000,\"victims\":\"all\",\"text\":{}}}}}",
        str_lit(&spef)
    )
}

fn spef_body() -> String {
    spef_body_sized(5, 8)
}

fn boot_with(tag: &str, observe: bool, stall_timeout_ms: u64) -> (Server, Client, PathBuf) {
    let data_dir = temp_dir(tag);
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        data_dir: data_dir.clone(),
        observe,
        stall_timeout_ms,
        ..ServerConfig::default()
    })
    .unwrap();
    let client = Client::new(server.addr().to_string());
    (server, client, data_dir)
}

fn field(body: &str, key: &str) -> String {
    let doc = pcv_obs::json::parse(body).unwrap_or_else(|e| panic!("bad JSON {body}: {e}"));
    doc.get(key)
        .and_then(pcv_obs::json::Value::as_str)
        .unwrap_or_else(|| panic!("no {key} in {body}"))
        .to_owned()
}

fn load_session(client: &Client) -> String {
    let resp = client.request("POST", "/sessions", &spef_body()).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    field(&resp.body, "session")
}

/// Submit a run and wait for its event stream to drain; returns
/// `(run id, every streamed line)`.
fn run_to_completion(client: &Client, session: &str, overlay: &str) -> (String, Vec<String>) {
    let resp = client.request("POST", &format!("/sessions/{session}/runs"), overlay).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let run = field(&resp.body, "run");
    let mut lines = Vec::new();
    let status =
        client.stream(&format!("/runs/{run}/events"), |line| lines.push(line.to_owned())).unwrap();
    assert_eq!(status, 200);
    (run, lines)
}

fn fetch_signoff(client: &Client, run: &str) -> String {
    let resp = client.request("GET", &format!("/runs/{run}/signoff"), "").unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    resp.body
}

#[test]
fn healthz_reports_version_uptime_and_readiness() {
    let (server, client, _dir) = boot_with("healthz", true, 0);
    let resp = client.request("GET", "/healthz", "").unwrap();
    assert_eq!(resp.status, 200);
    let doc = pcv_obs::json::parse(&resp.body).unwrap();
    assert_eq!(
        doc.get("version").and_then(pcv_obs::json::Value::as_str),
        Some(env!("CARGO_PKG_VERSION"))
    );
    assert!(doc.get("uptime_s").and_then(pcv_obs::json::Value::as_f64).unwrap() >= 0.0);
    assert_eq!(doc.get("elaborating").and_then(pcv_obs::json::Value::as_u64), Some(0));
    assert_eq!(doc.get("torn_ledger_lines").and_then(pcv_obs::json::Value::as_u64), Some(0));
    // Idle daemon: not draining, nothing elaborating → ready.
    assert!(resp.body.contains("\"ready\":true"), "{}", resp.body);

    // Draining flips readiness while liveness stays true.
    let resp = client.request("POST", "/shutdown", "").unwrap();
    assert_eq!(resp.status, 200);
    let resp = client.request("GET", "/healthz", "").unwrap();
    assert!(resp.body.contains("\"ok\":true"), "{}", resp.body);
    assert!(resp.body.contains("\"ready\":false"), "{}", resp.body);
    assert!(resp.body.contains("\"draining\":true"), "{}", resp.body);
    server.join();
}

#[test]
fn busy_responses_carry_retry_after_and_client_backs_off() {
    let (server, client, _dir) = boot_with("retry", true, 0);
    let session = load_session(&client);
    // Drain the daemon: every further submission is a deterministic 429.
    let resp = client.request("POST", "/shutdown", "").unwrap();
    assert_eq!(resp.status, 200);

    let resp = client.request("POST", &format!("/sessions/{session}/runs"), "{}").unwrap();
    assert_eq!(resp.status, 429, "{}", resp.body);
    assert_eq!(resp.retry_after, Some(1), "429 must carry Retry-After: {resp:?}");

    // The retrying client backs off (capped well below the hinted 1 s),
    // retries the bounded number of times, and still reports the truth.
    let started = Instant::now();
    let resp = client
        .request_with_retry(
            "POST",
            &format!("/sessions/{session}/runs"),
            "{}",
            3,
            Duration::from_millis(20),
        )
        .unwrap();
    assert_eq!(resp.status, 429, "{}", resp.body);
    let elapsed = started.elapsed();
    assert!(elapsed >= Duration::from_millis(40), "two backoffs expected, took {elapsed:?}");
    assert!(elapsed < Duration::from_secs(2), "backoff must honor the cap, took {elapsed:?}");
    server.join();
}

#[test]
fn observed_and_unobserved_signoffs_are_byte_identical() {
    // Everything on (registry, access log, flight recorder, armed
    // watchdog) vs. everything off: the artifacts must not differ by one
    // byte, and both must match the offline batch flow.
    let (on, on_client, _d1) = boot_with("inert-on", true, 2);
    let (off, off_client, _d2) = boot_with("inert-off", false, 0);
    let offline = {
        let spec = DesignSpec::from_json(&spef_body()).unwrap();
        let chip = elaborate(&spec).unwrap();
        Engine::new(EngineConfig::default()).verify_resident(&chip, None).unwrap().signoff_json()
    };

    let observed = {
        let session = load_session(&on_client);
        let (run, _) = run_to_completion(&on_client, &session, "{}");
        fetch_signoff(&on_client, &run)
    };
    let unobserved = {
        let session = load_session(&off_client);
        let (run, _) = run_to_completion(&off_client, &session, "{}");
        fetch_signoff(&off_client, &run)
    };
    assert_eq!(observed, unobserved, "observability changed the sign-off bytes");
    assert_eq!(observed, offline, "served sign-off diverged from the offline batch flow");

    // The disabled daemon's surfaces stay up — near-empty, never 404.
    let resp = off_client.request("GET", "/metrics", "").unwrap();
    assert_eq!(resp.status, 200);
    check_exposition(&resp.body).unwrap();
    assert!(!resp.body.contains("pcv_http_requests_total"), "{}", resp.body);
    let resp = off_client.request("GET", "/debug/flight", "").unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.body.contains("\"entries\":[]"), "{}", resp.body);
    on.join();
    off.join();
}

#[test]
fn scrape_validates_absorbs_traces_and_orders_deterministically() {
    let (server, client, _dir) = boot_with("scrape", true, 0);
    let session = load_session(&client);
    // A traced run: its pcv-trace counters/histograms must reach /metrics.
    let (_, _) = run_to_completion(&client, &session, "{\"trace\":true}");

    let scrape = || {
        let resp = client.request("GET", "/metrics", "").unwrap();
        assert_eq!(resp.status, 200);
        check_exposition(&resp.body).unwrap_or_else(|e| panic!("invalid exposition: {e}"));
        resp.body
    };
    let a = scrape();
    assert!(a.contains("# TYPE pcv_http_requests_total counter"), "{a}");
    assert!(a.contains("# TYPE pcv_http_request_seconds histogram"), "{a}");
    assert!(a.contains("pcv_runs_total{outcome=\"complete\"} 1"), "{a}");
    assert!(a.contains("pcv_engine_cache_hit_rate"), "{a}");
    assert!(a.contains("pcv_trace_counter_total{counter="), "traced run not absorbed: {a}");
    assert!(a.contains("route=\"/sessions/{id}/runs\""), "route labels are patterns: {a}");

    // Series *structure* is deterministic across scrapes: same families,
    // same order, same label sets (values move — uptime, latencies). A
    // scrape records its own request *after* responding, so the /metrics
    // route's series appear a scrape late — or later, when the next scrape
    // is rendered before that record lands: compare the first scrape that
    // shows them with the one after it.
    let mut c = scrape();
    while !c.contains("route=\"/metrics\"") {
        c = scrape();
    }
    let d = scrape();
    let skeleton = |text: &str| {
        text.lines().map(|l| l.split(' ').next().unwrap_or("").to_owned()).collect::<Vec<_>>()
    };
    assert_eq!(skeleton(&c), skeleton(&d), "family/series order changed between scrapes");
    server.join();
}

#[test]
fn watchdog_drill_trips_warns_dumps_and_the_run_still_completes() {
    // Seed a Slow fault on every victim: each cluster burns its Newton
    // budget, escalates to the slow SPICE-fallback rung, and the gap
    // between verdict publications dwarfs the 10 ms watchdog interval.
    // A 2-net chip keeps the drill test-sized — every faulted cluster
    // pays for a full SPICE reference run.
    let (server, client, data_dir) = boot_with("drill", true, 10);
    let resp = client.request("POST", "/sessions", &spef_body_sized(2, 0)).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let session = field(&resp.body, "session");
    let overlay = "{\"workers\":1,\"drill_slow_frac\":1.0,\"drill_seed\":1}";
    let (run, lines) = run_to_completion(&client, &session, overlay);

    // 1. The StallWarning rode the run's own event stream.
    let warning = lines.iter().find(|l| l.contains("\"kind\":\"stall_warning\""));
    let warning = warning.unwrap_or_else(|| panic!("no stall_warning in stream: {lines:#?}"));
    assert!(warning.contains("\"stalled_ms\":"), "{warning}");
    let trailer = lines.last().expect("stream trailer");
    assert!(trailer.contains("\"state\":\"complete\""), "{trailer}");

    // 2. A flight dump landed on disk via the atomic Fs write, and parses.
    let dump_path = data_dir.join(format!("flight-stall-{run}.json"));
    let dump = std::fs::read_to_string(&dump_path)
        .unwrap_or_else(|e| panic!("no flight dump at {}: {e}", dump_path.display()));
    let doc = pcv_obs::json::parse(&dump).unwrap();
    assert!(dump.contains("\"source\":\"watchdog\""), "dump lacks the watchdog note: {dump}");
    assert!(doc.get("entries").is_some());

    // 3. The stall metric incremented.
    let resp = client.request("GET", "/metrics", "").unwrap();
    let stall_line = resp
        .body
        .lines()
        .find(|l| l.starts_with(&format!("pcv_stall_warnings_total{{run=\"{run}\"}}")))
        .unwrap_or_else(|| panic!("no stall counter in scrape: {}", resp.body));
    let count: u64 = stall_line.rsplit(' ').next().unwrap().parse().unwrap();
    assert!(count >= 1, "{stall_line}");

    // 4. The watchdog never killed the run: it completed with the exact
    // verdicts an offline engine produces under the same fault plan.
    let served = fetch_signoff(&client, &run);
    let offline = {
        let spec = DesignSpec::from_json(&spef_body_sized(2, 0)).unwrap();
        let chip = elaborate(&spec).unwrap();
        let mut engine = Engine::new(EngineConfig::default());
        engine.set_fault_plan(Plan::new().seeded(1, 1.0, 1, FaultKind::Slow));
        engine.verify_resident(&chip, None).unwrap().signoff_json()
    };
    assert_eq!(served, offline, "drill run's verdicts diverged from the offline fault run");
    server.join();
}

#[test]
fn correlation_ids_thread_request_to_ledger_trailer_and_access_log() {
    let (server, client, data_dir) = boot_with("corr", true, 0);

    let resp = client.request("POST", "/sessions", &spef_body()).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let session = field(&resp.body, "session");
    let session_corr = field(&resp.body, "corr");

    let resp = client.request("POST", &format!("/sessions/{session}/runs"), "{}").unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let run = field(&resp.body, "run");
    let run_corr = field(&resp.body, "corr");
    assert_ne!(session_corr, run_corr, "each request mints its own correlation ID");

    // The event-stream trailer carries the submitting request's ID and
    // the stream request's own.
    let mut trailer = String::new();
    client
        .stream(&format!("/runs/{run}/events"), |line| {
            if line.contains("\"stream_trailer\"") {
                trailer = line.to_owned();
            }
        })
        .unwrap();
    assert_eq!(field(&trailer, "run_corr"), run_corr, "{trailer}");
    assert_ne!(field(&trailer, "corr"), run_corr, "{trailer}");

    // The daemon run ledger records the submitting request's ID.
    let ledger = std::fs::read_to_string(data_dir.join("runs.jsonl")).unwrap();
    let row = ledger
        .lines()
        .find(|l| l.contains(&format!("\"run\":{}", str_lit(&run))))
        .unwrap_or_else(|| panic!("run {run} not in ledger: {ledger}"));
    assert_eq!(field(row, "corr"), run_corr, "{row}");

    // The access log parses cleanly and contains both request IDs.
    let access = std::fs::read_to_string(data_dir.join("access.jsonl")).unwrap();
    check_access_log(&access).unwrap();
    assert!(access.contains(&format!("\"corr\":{}", str_lit(&session_corr))), "{access}");
    assert!(access.contains(&format!("\"corr\":{}", str_lit(&run_corr))), "{access}");
    server.join();
}
