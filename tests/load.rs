//! Load and lifecycle tests for the `pcv-serve` daemon: concurrent
//! clients, bounded-queue backpressure, interrupt/resume, graceful
//! shutdown, and the determinism contract — a served sign-off document is
//! byte-identical to the offline batch flow on the same design.
//!
//! Every test boots a real daemon on an ephemeral localhost port and
//! talks to it over TCP with the blocking [`pcv_serve::Client`].

use pcv_engine::{Engine, EngineConfig, RunRequest};
use pcv_serve::session::{elaborate, DesignSpec};
use pcv_serve::{Client, Server, ServerConfig};
use pcv_trace::json::str_lit;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Fresh scratch directory per test (parallel tests never collide).
fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("pcv-load-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// The shared design under test: a deterministic DSP block's extracted
/// parasitics, shipped to the daemon as inline SPEF with every net a
/// victim. SPEF + fixed-resistance drivers keeps debug-mode runs cheap
/// while still exercising the full cluster pipeline.
fn spef_body() -> String {
    let block = pcv_designs::dsp::generate(
        &pcv_designs::dsp::DspConfig {
            n_buses: 2,
            bus_bits: 6,
            n_random_nets: 16,
            ..Default::default()
        },
        &pcv_designs::Technology::c025(),
        &pcv_cells::library::CellLibrary::standard_025(),
    );
    let spef = pcv_netlist::spef::write_spef(&block.parasitics);
    format!(
        "{{\"design\":{{\"kind\":\"spef\",\"drive_ohms\":1000,\"victims\":\"all\",\"text\":{}}}}}",
        str_lit(&spef)
    )
}

/// What the offline batch flow produces for [`spef_body`]: the reference
/// bytes every served sign-off must match exactly.
fn offline_signoff() -> String {
    let spec = DesignSpec::from_json(&spef_body()).unwrap();
    let chip = elaborate(&spec).unwrap();
    let engine = Engine::new(EngineConfig::default());
    engine.verify_resident(&chip, None).unwrap().signoff_json()
}

fn boot(tag: &str, queue_capacity: usize) -> (Server, Client, PathBuf) {
    let data_dir = temp_dir(tag);
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        data_dir: data_dir.clone(),
        queue_capacity,
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

/// Create a session from [`spef_body`] and return its id.
fn load_session(client: &Client) -> String {
    let resp = client.request("POST", "/sessions", &spef_body()).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    field(&resp.body, "session")
}

fn submit_run(client: &Client, session: &str, overlay: &str) -> String {
    let resp = client.request("POST", &format!("/sessions/{session}/runs"), overlay).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    field(&resp.body, "run")
}

/// Tail the run's event stream to the end; returns the trailer line.
fn stream_to_trailer(client: &Client, run: &str) -> String {
    let mut trailer = String::new();
    let status = client
        .stream(&format!("/runs/{run}/events"), |line| {
            if line.contains("\"stream_trailer\"") {
                trailer = line.to_owned();
            }
        })
        .unwrap();
    assert_eq!(status, 200);
    assert!(!trailer.is_empty(), "stream ended without a trailer");
    trailer
}

#[test]
fn eight_concurrent_clients_are_served_without_deadlock() {
    let expected = offline_signoff();
    let (server, client, _dir) = boot("concurrent", 8);
    let session = load_session(&client);
    let run = submit_run(&client, &session, "{}");

    // A victim name for the targeted-verdict pollers.
    let spec = DesignSpec::from_json(&spef_body()).unwrap();
    let chip = elaborate(&spec).unwrap();
    let (_, first) = chip.db().iter().next().unwrap();
    let net_name = first.name().to_owned();

    // Eight concurrent clients: three event streamers, two full-verdict
    // pollers, two targeted pollers, one status poller. All must finish.
    std::thread::scope(|scope| {
        for _ in 0..3 {
            let client = client.clone();
            let run = run.clone();
            scope.spawn(move || {
                let trailer = stream_to_trailer(&client, &run);
                assert!(trailer.contains("\"delivered\":"), "{trailer}");
            });
        }
        for _ in 0..2 {
            let client = client.clone();
            let run = run.clone();
            scope.spawn(move || loop {
                let resp = client.request("GET", &format!("/runs/{run}/verdicts"), "").unwrap();
                assert_eq!(resp.status, 200, "{}", resp.body);
                if resp.body.contains("\"state\":\"complete\"") {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            });
        }
        for _ in 0..2 {
            let client = client.clone();
            let run = run.clone();
            let net = net_name.clone();
            scope.spawn(move || loop {
                let path = format!("/runs/{run}/verdicts?net={net}");
                let resp = client.request("GET", &path, "").unwrap();
                assert_eq!(resp.status, 200, "{}", resp.body);
                // Once the verdict lands it is served mid-run or after.
                if resp.body.contains("\"worst_frac\":") {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            });
        }
        {
            let client = client.clone();
            let session = session.clone();
            scope.spawn(move || {
                let deadline = Instant::now() + Duration::from_secs(120);
                loop {
                    let resp = client.request("GET", &format!("/sessions/{session}"), "").unwrap();
                    assert_eq!(resp.status, 200, "{}", resp.body);
                    if resp.body.contains("\"state\":\"completed\"") {
                        break;
                    }
                    assert!(Instant::now() < deadline, "session never completed");
                    std::thread::sleep(Duration::from_millis(5));
                }
            });
        }
        // A scraper rides alongside the eight: /metrics must serve valid
        // exposition and /debug/flight valid JSON while the run is in
        // flight, without deadlocking against the executor or the readers.
        {
            let client = client.clone();
            scope.spawn(move || {
                for _ in 0..10 {
                    let resp = client.request("GET", "/metrics", "").unwrap();
                    assert_eq!(resp.status, 200, "{}", resp.body);
                    assert!(resp.body.contains("pcv_"), "{}", resp.body);
                    pcv_serve::check_exposition(&resp.body)
                        .unwrap_or_else(|e| panic!("mid-run scrape invalid: {e}"));
                    let resp = client.request("GET", "/debug/flight", "").unwrap();
                    assert_eq!(resp.status, 200, "{}", resp.body);
                    pcv_obs::json::parse(&resp.body)
                        .unwrap_or_else(|e| panic!("flight dump invalid: {e}"));
                    std::thread::sleep(Duration::from_millis(2));
                }
            });
        }
    });

    let resp = client.request("GET", &format!("/runs/{run}/signoff"), "").unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert_eq!(resp.body, expected, "served sign-off diverged from the offline batch flow");
    server.join();
}

#[test]
fn full_run_queue_answers_typed_429() {
    let (server, client, _dir) = boot("backpressure", 1);
    let session = load_session(&client);
    // Submit far faster than the executor can drain a capacity-1 queue.
    let mut accepted = 0;
    let mut busy = 0;
    for _ in 0..12 {
        let resp = client.request("POST", &format!("/sessions/{session}/runs"), "{}").unwrap();
        match resp.status {
            200 => accepted += 1,
            429 => {
                busy += 1;
                assert!(resp.body.contains("\"error\":\"busy\""), "{}", resp.body);
                assert!(resp.body.contains("queue full"), "{}", resp.body);
            }
            other => panic!("unexpected status {other}: {}", resp.body),
        }
    }
    assert!(accepted >= 1, "at least the first run must be admitted");
    assert!(busy >= 1, "a capacity-1 queue must refuse some of 12 instant submissions");
    drop(server); // shutdown drain: in-flight run checkpoints, queued runs drop
}

#[test]
fn stop_after_interrupts_then_resume_completes_byte_identical() {
    let expected = offline_signoff();
    let (server, client, _dir) = boot("resume", 8);
    let session = load_session(&client);

    // First run is cut short cooperatively after two cluster verdicts.
    let run = submit_run(&client, &session, "{\"stop_after\":2}");
    let trailer = stream_to_trailer(&client, &run);
    assert!(trailer.contains("\"state\":\"interrupted\""), "{trailer}");
    let resp = client.request("GET", &format!("/runs/{run}/signoff"), "").unwrap();
    assert_eq!(resp.status, 409, "interrupted run must not serve a sign-off: {}", resp.body);
    assert!(resp.body.contains("\"error\":\"conflict\""), "{}", resp.body);

    // Mid-run partial verdicts survived in the snapshot and are readable.
    let resp = client.request("GET", &format!("/runs/{run}/verdicts"), "").unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.body.contains("\"state\":\"interrupted\""), "{}", resp.body);

    // The resume run replays the journal and finishes the remainder; the
    // final document is byte-identical to an uninterrupted offline run.
    let resumed = submit_run(&client, &session, "{\"resume\":true}");
    let trailer = stream_to_trailer(&client, &resumed);
    assert!(trailer.contains("\"state\":\"complete\""), "{trailer}");
    let resp = client.request("GET", &format!("/runs/{resumed}/signoff"), "").unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert_eq!(resp.body, expected, "resumed sign-off diverged from the offline batch flow");
    server.join();
}

#[test]
fn shutdown_mid_run_leaves_a_resumable_journal() {
    let expected = offline_signoff();
    let (server, client, data_dir) = boot("drain", 8);
    let session = load_session(&client);
    let _run = submit_run(&client, &session, "{}");

    // Drain over the wire while the run is (most likely) in flight. The
    // engine observes the stop flag, checkpoints, and keeps the journal.
    let resp = client.request("POST", "/shutdown", "").unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.body.contains("\"draining\":true"), "{}", resp.body);
    server.join();

    // A fresh engine — daemon restart or offline tool — resumes from the
    // session's cache directory and completes to the exact same bytes.
    // (If the run happened to finish before the drain, resume degrades to
    // a cache-hit replay with the same result.)
    let spec = DesignSpec::from_json(&spef_body()).unwrap();
    let chip = elaborate(&spec).unwrap();
    let cfg = EngineConfig {
        cache_path: Some(data_dir.join(format!("session-{session}.cache"))),
        ..EngineConfig::default()
    };
    let report =
        Engine::new(cfg).run(RunRequest { resume: true, ..RunRequest::resident(&chip) }).unwrap();
    assert!(!report.interrupted);
    assert_eq!(
        report.signoff_json(),
        expected,
        "post-drain resume diverged from the offline batch flow"
    );
}

#[test]
fn routing_and_error_mapping_cover_the_wire_surface() {
    let (server, client, _dir) = boot("routes", 8);

    let resp = client.request("GET", "/healthz", "").unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.body.contains("\"ok\":true"));

    // Unknown route, session, and run are typed 404s.
    for path in ["/nope", "/sessions/s99", "/runs/r99/verdicts", "/runs/r99/signoff"] {
        let resp = client.request("GET", path, "").unwrap();
        assert_eq!(resp.status, 404, "{path}: {}", resp.body);
        assert!(resp.body.contains("\"error\":\"not_found\""), "{path}: {}", resp.body);
    }

    // Malformed design and overlay documents are 400s.
    let resp = client.request("POST", "/sessions", "{not json").unwrap();
    assert_eq!(resp.status, 400, "{}", resp.body);
    let session = load_session(&client);
    let resp =
        client.request("POST", &format!("/sessions/{session}/runs"), "{\"bogus_knob\":1}").unwrap();
    assert_eq!(resp.status, 400, "{}", resp.body);
    assert!(resp.body.contains("bogus_knob"), "{}", resp.body);

    // A verdict query for a net that is not a victim maps the engine's
    // typed BadRequest to a 400 with the offending name.
    let run = submit_run(&client, &session, "{}");
    let resp = client.request("GET", &format!("/runs/{run}/verdicts?net=no_such_net"), "").unwrap();
    assert_eq!(resp.status, 400, "{}", resp.body);
    assert!(resp.body.contains("no_such_net"), "{}", resp.body);

    // Sign-off for a queued-or-running run is a 409 (settles to 200 once
    // complete; either way it must never be a 5xx here).
    let resp = client.request("GET", &format!("/runs/{run}/signoff"), "").unwrap();
    assert!(resp.status == 409 || resp.status == 200, "unexpected {}: {}", resp.status, resp.body);
    server.join();
}
