//! `served_shard2`: the operation is the full served lifecycle over HTTP —
//! create a session from inline SPEF, submit a run sharded over two worker
//! processes, stream its events to the trailer, fetch the sign-off — with
//! a reader issuing light requests while each run is in flight. Daemon,
//! workers, client and reader share the harness's one CPU
//! (`crate::affinity`), so the operation's time is the work the served
//! path costs — both workers' re-parse, re-elaboration and analysis, the
//! framing, the queue, the merge — not what two cores would overlap.

use super::layers;
use super::{
    allocs_now, check_verdicts, engine, peak_heap_mib, verdict_bits, victim_names, Outcome, Run,
    RunConfig,
};
use crate::gen;
use crate::stats::{median, percentile};
use pcv_engine::EngineConfig;
use pcv_netlist::spef::write_spef;
use pcv_obs::json::{parse, Value};
use pcv_rng::Rng;
use pcv_serve::session::elaborate;
use pcv_serve::{
    Client, Coordinator, CoordinatorConfig, DesignSpec, Server, ServerConfig, VictimSel,
};
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const SHARDS: usize = 2;
/// The reader's think time between requests (closed loop, one client).
const THINK: Duration = Duration::from_millis(10);

/// What the reader thread saw.
#[derive(Debug, Default)]
struct Reads {
    latencies_ms: Vec<f64>,
    failed: u64,
    busy_429: u64,
}

fn string_field(body: &str, key: &str) -> Option<String> {
    parse(body).ok()?.get(key)?.as_str().map(str::to_owned)
}

/// One HTTP request as one operation: it must come back 2xx.
fn request(
    run: &mut Run,
    client: &Client,
    span: &'static str,
    method: &str,
    path: &str,
    body: &str,
) -> String {
    let response = run.tracer.span(span, || client.request(method, path, body));
    match response {
        Ok(r) => {
            run.checks.op(r.ok(), || format!("{method} {path} answered {}", r.status));
            r.body
        }
        Err(e) => {
            run.checks.op(false, || format!("{method} {path} failed: {e}"));
            String::new()
        }
    }
}

/// The shard worker's config line, as the coordinator writes it.
fn worker_config_line(spec: &DesignSpec, shard: usize, cache: &Path) -> String {
    let mut line = spec.to_json();
    line.pop();
    line.push_str(&format!(
        ",\"shards\":{SHARDS},\"shard\":{shard},\"cache\":{},\"workers\":1}}\n",
        pcv_trace::json::str_lit(&cache.display().to_string())
    ));
    line
}

/// Spawn one shard worker, hand it its config, and time how long until it
/// says hello (process start + SPEF re-parse + re-elaboration + journal
/// probe). The worker is killed and reaped right after.
fn spawn_to_hello(run: &mut Run, spec: &DesignSpec, exe: &Path) {
    let cache = run.scratch.fresh("hello").join("shard.cache");
    let line = worker_config_line(spec, 0, &cache);
    let hello = run.tracer.span("serve.spawn_to_hello", || -> std::io::Result<bool> {
        let mut child = Command::new(exe)
            .arg("--shard-worker")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let said_hello = (|| -> std::io::Result<bool> {
            child.stdin.take().expect("piped stdin").write_all(line.as_bytes())?;
            let mut first = String::new();
            BufReader::new(child.stdout.take().expect("piped stdout")).read_line(&mut first)?;
            Ok(first.contains("\"kind\":\"hello\""))
        })();
        let _ = child.kill();
        child.wait()?;
        said_hello
    });
    run.checks
        .require(matches!(hello, Ok(true)), || format!("shard worker never said hello: {hello:?}"));
}

pub fn served_shard2(cfg: RunConfig) -> Outcome {
    let mut run = Run::new(cfg, "served_shard2");
    let tiles = if cfg.smoke { 8 } else { 192 };
    let (warmup, timed) = match (cfg.smoke, cfg.trace) {
        (true, _) => (0, 2),
        (false, true) => (0, 2),
        (false, false) => (1, cfg.ops(4, 2)),
    };
    // The harness binary re-entered with `--shard-worker` runs the very
    // function the daemon's own binary dispatches to.
    let exe = std::env::current_exe().expect("own executable path");

    // Set-up, once (the reference sign-off makes it seconds long): the
    // field as SPEF text, the daemon, and the in-process batch reference.
    let t0 = Instant::now();
    let db = run.tracer.span("designs.extract", || gen::tiled_field(cfg.seed, tiles));
    let text = run.tracer.span("netlist.write_spef", || write_spef(&db));
    let spec = DesignSpec::Spef { text, drive_ohms: 1000.0, victims: VictimSel::All };
    let server = Server::start(ServerConfig {
        data_dir: run.scratch.fresh("daemon"),
        worker_exe: Some(exe.clone()),
        ..ServerConfig::default()
    })
    .expect("daemon binds an ephemeral port");
    let chip = run.tracer.span("engine.elaborate", || elaborate(&spec)).expect("field elaborates");
    let cache = run.scratch.fresh("reference").join("chip.cache");
    let (t1, allocs0) = (Instant::now(), allocs_now());
    let reference = engine(&cache, false).verify_resident(&chip, None).expect("reference runs");
    let reference_doc = reference.signoff_json();
    let (batch_wall_s, batch_allocs) = (t1.elapsed().as_secs_f64(), allocs_now() - allocs0);
    run.put("setup_s", t0.elapsed().as_secs_f64(), 1);
    let names = victim_names(&chip);
    check_verdicts(
        &mut run.checks,
        "reference sign-off",
        &reference,
        &verdict_bits(&reference),
        &names,
        None,
    );

    let client = Client::new(server.addr().to_string());
    let session_body = spec.to_json();
    let run_body = format!("{{\"shards\":{SHARDS},\"workers\":1}}");

    // The reader: light requests, only while a run is in flight.
    let in_flight: Arc<Mutex<Option<String>>> = Arc::default();
    let stop = Arc::new(AtomicBool::new(false));
    let reader = {
        let (client, in_flight, stop, names) =
            (client.clone(), Arc::clone(&in_flight), Arc::clone(&stop), names.clone());
        let mut rng = Rng::new(cfg.seed ^ 0x7265_6164);
        std::thread::spawn(move || {
            let mut reads = Reads::default();
            let mut issued = 0u64;
            while !stop.load(Ordering::Acquire) {
                let rid = in_flight.lock().expect("reader lock").clone();
                if let Some(rid) = rid {
                    issued += 1;
                    let path = if issued.is_multiple_of(10) {
                        "/metrics".to_owned()
                    } else {
                        let net = &names[rng.range_usize(0, names.len())];
                        format!("/runs/{rid}/verdicts?net={net}")
                    };
                    let t0 = Instant::now();
                    match client.request("GET", &path, "") {
                        Ok(r) => {
                            reads.latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                            reads.busy_429 += u64::from(r.status == 429);
                            reads.failed += u64::from(!r.ok());
                        }
                        Err(_) => reads.failed += 1,
                    }
                }
                std::thread::sleep(THINK);
            }
            reads
        })
    };

    let (mut walls, mut heaps) = (Vec::new(), Vec::new());
    let (mut event_lines, mut events_dropped) = (Vec::new(), Vec::new());
    for i in 0..warmup + timed {
        pcv_obs::mem::reset_peak();
        let t0 = Instant::now();
        let created =
            request(&mut run, &client, "serve.session_create", "POST", "/sessions", &session_body);
        let sid = string_field(&created, "session").unwrap_or_default();
        let submitted = request(
            &mut run,
            &client,
            "serve.run_submit",
            "POST",
            &format!("/sessions/{sid}/runs"),
            &run_body,
        );
        let rid = string_field(&submitted, "run").unwrap_or_default();
        *in_flight.lock().expect("reader lock") = Some(rid.clone());
        let mut lines = 0usize;
        let mut trailer = String::new();
        let streamed = run.tracer.span("serve.events_stream", || {
            client.stream(&format!("/runs/{rid}/events"), |line| {
                lines += 1;
                line.clone_into(&mut trailer);
            })
        });
        *in_flight.lock().expect("reader lock") = None;
        let trailer = parse(&trailer).ok();
        let field = |k: &str| trailer.as_ref().and_then(|t| t.get(k));
        let complete = matches!(streamed, Ok(200))
            && field("kind").and_then(Value::as_str) == Some("stream_trailer")
            && field("state").and_then(Value::as_str) == Some("complete");
        run.checks
            .op(complete, || format!("event stream of {rid} ended without a complete trailer"));
        let doc = request(
            &mut run,
            &client,
            "serve.signoff_fetch",
            "GET",
            &format!("/runs/{rid}/signoff"),
            "",
        );
        let wall = t0.elapsed().as_secs_f64();
        let heap = peak_heap_mib();

        // One operation per victim: the served bytes are the batch bytes.
        let same = doc == reference_doc;
        for name in &names {
            run.checks.op(same, || {
                format!("served sign-off of {rid} differs from batch (first: {name})")
            });
        }
        if i >= warmup {
            walls.push(wall);
            heaps.push(heap);
            event_lines.push(lines as f64);
            events_dropped.push(field("dropped").and_then(Value::as_f64).unwrap_or(0.0));
        }
    }
    stop.store(true, Ordering::Release);
    let reads = reader.join().expect("reader thread");
    run.checks.attempted += reads.latencies_ms.len() as u64 + reads.failed;
    for _ in 0..reads.failed {
        run.checks.fail(|| "a read beside the run failed or was refused".to_owned());
    }
    let p50 = median(&walls);
    run.put("signoff_p50_s", p50, walls.len());
    run.put_median("peak_heap_mb", &heaps, 1.0);

    if cfg.trace {
        run.put_median("e2e.read_p50_ms", &reads.latencies_ms, 1.0);
        if let Some(p90) = percentile(&reads.latencies_ms, 90.0) {
            run.put("serve.read_p90_ms", p90, reads.latencies_ms.len());
        }
        run.put("serve.reads", reads.latencies_ms.len() as f64, 1);
        run.put("serve.http_429", reads.busy_429 as f64, 1);
        run.put_mean("serve.events_lines", &event_lines, 1.0);
        run.put_mean("serve.events_dropped", &events_dropped, 1.0);
        run.put_span_median("serve.session_create_ms", "serve.session_create", 1e3);
        run.put_span_median("serve.run_submit_ms", "serve.run_submit", 1e3);
        run.put_span_median("serve.signoff_fetch_ms", "serve.signoff_fetch", 1e3);
        run.put("engine.batch_wall_s", batch_wall_s, 1);
        run.put("serve.overhead_frac", (p50 - batch_wall_s) / p50, walls.len());
        idle_probes(&mut run, &client);
        for _ in 0..3 {
            spawn_to_hello(&mut run, &spec, &exe);
        }
        run.put_span_median("serve.spawn_to_hello_ms", "serve.spawn_to_hello", 1e3);
        shard_probe(&mut run, &spec, &exe, &reference_doc);
        let ecfg = EngineConfig::default();
        layers::engine_stats(&mut run, &reference, batch_allocs);
        layers::layer_pass(&mut run, &chip, &ecfg, &reference, if cfg.smoke { 8 } else { 64 });
        run.put_span_median("engine.elaborate_ms", "engine.elaborate", 1e3);
    }
    server.join();
    run.finish()
}

/// Request costs with the daemon idle: the HTTP floor under every read.
fn idle_probes(run: &mut Run, client: &Client) {
    for _ in 0..50 {
        request(run, client, "serve.http_roundtrip", "GET", "/healthz", "");
    }
    for _ in 0..20 {
        request(run, client, "serve.metrics_scrape", "GET", "/metrics", "");
    }
    let canned = b"GET /runs/r1/verdicts?net=g12_w3 HTTP/1.1\r\nHost: 127.0.0.1:7171\r\n\
                   Content-Length: 0\r\nConnection: close\r\n\r\n";
    const PARSES: usize = 2000;
    let parsed = run.tracer.span("serve.http_parse", || {
        (0..PARSES).filter(|_| pcv_serve::http::read_request(&mut &canned[..]).is_ok()).count()
    });
    run.checks.require(parsed == PARSES, || "canned request failed to parse".to_owned());
    run.put_span_median("serve.http_roundtrip_us", "serve.http_roundtrip", 1e6);
    run.put_span_median("serve.metrics_scrape_ms", "serve.metrics_scrape", 1e3);
    run.put(
        "serve.http_parse_us",
        run.tracer.total("serve.http_parse") * 1e6 / PARSES as f64,
        PARSES,
    );
}

/// One sharded run through the coordinator API, for the per-shard
/// statistics HTTP does not expose.
fn shard_probe(run: &mut Run, spec: &DesignSpec, exe: &Path, reference_doc: &str) {
    let cache = run.scratch.fresh("coordinator").join("merged.cache");
    let mut ccfg = CoordinatorConfig::new(SHARDS, exe.to_owned(), cache);
    ccfg.workers_per_shard = 1;
    // The coordinator shares its chip; the layer replay still needs ours.
    let shared = Arc::new(elaborate(spec).expect("field elaborates"));
    let outcome = run
        .tracer
        .span("serve.coordinator_run", || Coordinator::new(spec.clone(), shared, ccfg).run(None));
    match outcome {
        Ok(outcome) => {
            let same = outcome.report.signoff_json() == reference_doc;
            run.checks.require(same, || "coordinator sign-off differs from batch".to_owned());
            let victims: Vec<f64> = outcome.shards.iter().map(|s| s.victims as f64).collect();
            let mean = crate::stats::mean(&victims);
            let max = victims.iter().copied().fold(0.0, f64::max);
            run.put("serve.shard_imbalance", if mean > 0.0 { max / mean } else { 0.0 }, SHARDS);
            run.put("serve.shard_restarts", outcome.restarts() as f64, SHARDS);
            let heap = outcome.shards.iter().map(|s| s.peak_alloc_bytes).max().unwrap_or(0);
            run.put("serve.worker_peak_heap_mb", heap as f64 / (1024.0 * 1024.0), SHARDS);
        }
        Err(e) => run.checks.fail(|| format!("coordinator run failed: {e:?}")),
    }
}
