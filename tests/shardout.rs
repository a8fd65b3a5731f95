//! Fault-tolerant sharded verification: the kill/restart matrix.
//!
//! Every test here drives the real multi-process pipeline — the
//! [`Coordinator`] spawns actual `pcv_serve --shard-worker` child
//! processes (the binary cargo built for this test run) and merges their
//! results — under deterministic failure drills: SIGKILL at fractions of
//! shard progress, stalled workers, torn and duplicated shard journals,
//! exhausted restart budgets, and whole-run deadlines.
//!
//! The invariant under test everywhere: a sharded sign-off is
//! **byte-identical** to the unsharded offline run of the same design, no
//! matter what was killed along the way — and when a shard's restart
//! budget runs out, the run still completes with conservative `WorstCase`
//! verdicts and a recorded degradation trail instead of holes.

use pcv_engine::fault::{Plan, ALWAYS};
use pcv_engine::shard::{partition, ShardFault};
use pcv_engine::{Engine, EngineConfig, ResidentChip};
use pcv_serve::session::{elaborate, DesignSpec};
use pcv_serve::{ApiError, Coordinator, CoordinatorConfig, ShardRunOutcome};
use pcv_trace::json::str_lit;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// The worker binary: the very `pcv_serve` this test run built.
fn worker_exe() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_pcv_serve"))
}

/// Fresh scratch directory per test (parallel tests never collide).
fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("pcv-shardout-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// The design under test: a deterministic DSP block's parasitics shipped
/// as inline SPEF with every net a victim — cheap enough for debug-mode
/// worker processes, big enough that every shard of eight gets victims.
fn spef_body() -> String {
    let block = pcv_designs::dsp::generate(
        &pcv_designs::dsp::DspConfig {
            n_buses: 2,
            bus_bits: 4,
            n_random_nets: 10,
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

fn spec() -> DesignSpec {
    DesignSpec::from_json(&spef_body()).unwrap()
}

fn chip() -> Arc<ResidentChip> {
    Arc::new(elaborate(&spec()).unwrap())
}

/// The reference bytes: one unsharded in-process sign-off.
fn offline_doc(chip: &ResidentChip) -> String {
    Engine::new(EngineConfig::default()).verify_resident(chip, None).unwrap().signoff_json()
}

/// Index of the largest slice — the shard that reliably has enough
/// victims for mid-run drills to fire before the worker finishes.
fn biggest_shard(chip: &ResidentChip, shards: usize) -> (usize, usize) {
    partition(chip, chip.victims(), shards)
        .iter()
        .enumerate()
        .map(|(k, s)| (k, s.len()))
        .max_by_key(|&(_, len)| len)
        .unwrap()
}

fn run_with(
    tag: &str,
    shards: usize,
    workers_per_shard: usize,
    plan: Plan<ShardFault>,
    tune: impl FnOnce(&mut CoordinatorConfig),
) -> Result<ShardRunOutcome, ApiError> {
    let dir = temp_dir(tag);
    let mut cfg = CoordinatorConfig::new(shards, worker_exe(), dir.join("merged.cache"));
    cfg.workers_per_shard = workers_per_shard;
    cfg.fault_plan = plan;
    tune(&mut cfg);
    Coordinator::new(spec(), chip(), cfg).run(None)
}

#[test]
fn sigkill_matrix_preserves_byte_identity() {
    let chip = chip();
    let expected = offline_doc(&chip);
    for &shards in &[2usize, 4, 8] {
        let (victim_shard, slice_len) = biggest_shard(&chip, shards);
        for &frac in &[0.25f64, 0.5, 0.75] {
            let plan = Plan::new().at(victim_shard, 1, ShardFault::SigkillAtFrac(frac));
            let tag = format!("kill-{shards}-{}", (frac * 100.0) as u32);
            let outcome =
                run_with(&tag, shards, 1, plan, |_| {}).unwrap_or_else(|e| panic!("{tag}: {e:?}"));
            assert_eq!(
                outcome.report.signoff_json(),
                expected,
                "{tag}: sharded sign-off diverged after SIGKILL at {frac} of shard \
                 {victim_shard} ({slice_len} victims)"
            );
            assert!(outcome.report.degradations.is_empty(), "{tag}: restart must not degrade");
        }
    }
}

#[test]
fn sigkill_with_multithreaded_workers_preserves_byte_identity() {
    let chip = chip();
    let expected = offline_doc(&chip);
    let (victim_shard, _) = biggest_shard(&chip, 4);
    for &workers in &[2usize, 4] {
        let plan = Plan::new().at(victim_shard, 1, ShardFault::SigkillAtFrac(0.5));
        let outcome = run_with(&format!("kill-w{workers}"), 4, workers, plan, |_| {}).unwrap();
        assert_eq!(outcome.report.signoff_json(), expected, "workers={workers}");
    }
}

#[test]
fn killed_worker_restarts_and_resumes_from_its_journal() {
    let chip = chip();
    let expected = offline_doc(&chip);
    let (victim_shard, slice_len) = biggest_shard(&chip, 2);
    assert!(slice_len >= 4, "test chip must give the drilled shard real work");
    let plan = Plan::new().at(victim_shard, 1, ShardFault::SigkillAtFrac(0.25));
    let outcome = run_with("resume", 2, 1, plan, |_| {}).unwrap();
    assert_eq!(outcome.report.signoff_json(), expected);
    let stats = &outcome.shards[victim_shard];
    assert!(stats.restarts >= 1, "the SIGKILL drill must have fired: {stats:?}");
    assert_eq!(
        stats.harvest.from_cache, slice_len,
        "the restarted incarnation must complete the whole slice: {stats:?}"
    );
}

#[test]
fn torn_and_duplicated_shard_journals_are_tolerated() {
    let chip = chip();
    let expected = offline_doc(&chip);
    let (victim_shard, _) = biggest_shard(&chip, 2);
    let other = 1 - victim_shard;
    // Kill both workers mid-slice; corrupt the bigger shard's journal
    // remnant with a mid-frame tear and the other's with a duplicated
    // final record before the replacement incarnations replay them.
    let plan = Plan::new()
        .at(victim_shard, 1, ShardFault::SigkillAtFrac(0.25))
        .at(victim_shard, 1, ShardFault::TornJournal)
        .at(other, 1, ShardFault::SigkillAtFrac(0.25))
        .at(other, 1, ShardFault::DuplicateEntry);
    let outcome = run_with("torn", 2, 1, plan, |_| {}).unwrap();
    assert_eq!(outcome.report.signoff_json(), expected);
    let stats = &outcome.shards[victim_shard];
    assert!(stats.restarts >= 1, "tear drill needs a restart to replay: {stats:?}");
    assert!(
        stats.torn_journal_lines >= 1,
        "the torn line must be seen (and skipped) by the replay: {stats:?}"
    );
}

#[test]
fn stalled_worker_is_killed_and_restarted() {
    let chip = chip();
    let expected = offline_doc(&chip);
    let (victim_shard, _) = biggest_shard(&chip, 2);
    let plan = Plan::new().at(victim_shard, 1, ShardFault::StallAfter(1));
    let outcome = run_with("stall", 2, 1, plan, |cfg| {
        cfg.heartbeat_timeout = Duration::from_millis(1_500);
    })
    .unwrap();
    assert_eq!(outcome.report.signoff_json(), expected);
    assert!(outcome.heartbeat_misses() >= 1, "{:?}", outcome.shards);
    assert!(outcome.shards[victim_shard].restarts >= 1, "{:?}", outcome.shards);
}

#[test]
fn exhausted_restart_budget_degrades_to_worst_case_without_holes() {
    let chip = chip();
    let total = chip.victims().len();
    let shard0_names: Vec<String> = {
        let slices = partition(&chip, chip.victims(), 2);
        slices[0].iter().map(|&v| chip.db().net(v).name().to_owned()).collect()
    };
    assert!(!shard0_names.is_empty());
    // Shard 0 aborts before its first verdict, every incarnation.
    let plan = Plan::new().at(0, ALWAYS, ShardFault::PanicAfter(0));
    let outcome = run_with("budget", 2, 1, plan, |cfg| {
        cfg.restart_budget = 1;
    })
    .unwrap();

    let report = &outcome.report;
    assert_eq!(outcome.degraded_shards(), 1);
    assert!(outcome.shards[0].exhausted);
    assert_eq!(outcome.shards[0].harvest.worst_case, shard0_names.len());
    // No holes: every victim still has a verdict.
    assert_eq!(report.chip.verdicts.len(), total);
    // The gaps are conservative worst-case verdicts, adopted bit-for-bit
    // from the synthesized entries (not silently recomputed): the rise
    // peak is exactly Vdd.
    let vdd = EngineConfig::default().analysis.vdd;
    for name in &shard0_names {
        let v = report.chip.verdicts.iter().find(|v| &v.name == name).unwrap();
        assert_eq!(v.rise_peak, vdd, "{name} must carry the worst-case verdict");
    }
    // And the degradation trail names each one, with the budget as reason.
    assert_eq!(report.degradations.len(), shard0_names.len());
    for d in &report.degradations {
        assert!(shard0_names.contains(&d.name), "unexpected degradation {d:?}");
    }
    let doc = report.signoff_json();
    assert!(
        doc.contains("exhausted restart budget"),
        "sign-off must record why the verdicts are conservative"
    );
}

fn field(body: &str, key: &str) -> String {
    let doc = pcv_obs::json::parse(body).unwrap_or_else(|e| panic!("bad JSON {body}: {e}"));
    doc.get(key)
        .and_then(pcv_obs::json::Value::as_str)
        .unwrap_or_else(|| panic!("no {key} in {body}"))
        .to_owned()
}

fn boot_sharded(tag: &str) -> (pcv_serve::Server, pcv_serve::Client) {
    let server = pcv_serve::Server::start(pcv_serve::ServerConfig {
        addr: "127.0.0.1:0".into(),
        data_dir: temp_dir(tag),
        worker_exe: Some(worker_exe()),
        ..pcv_serve::ServerConfig::default()
    })
    .unwrap();
    let client = pcv_serve::Client::new(server.addr().to_string());
    (server, client)
}

/// Tail the run's event stream to the trailer (run completion barrier).
fn stream_to_end(client: &pcv_serve::Client, run: &str) {
    let status = client.stream(&format!("/runs/{run}/events"), |_| {}).unwrap();
    assert_eq!(status, 200);
}

#[test]
fn daemon_serves_sharded_run_byte_identical_with_telemetry() {
    let expected = offline_doc(&chip());
    let (server, client) = boot_sharded("daemon");
    let resp = client.request("POST", "/sessions", &spef_body()).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let session = field(&resp.body, "session");

    let overlay =
        "{\"shards\":2,\"shard_timeout_ms\":30000,\"deadline_ms\":600000,\"shard_restarts\":3}";
    let resp = client.request("POST", &format!("/sessions/{session}/runs"), overlay).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let run = field(&resp.body, "run");
    stream_to_end(&client, &run);

    let resp = client.request("GET", &format!("/runs/{run}/signoff"), "").unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert_eq!(resp.body, expected, "daemon sharded sign-off diverged from offline run");

    // The run fed the observatory: shard series exist, healthz reports
    // per-shard torn-line counts.
    let resp = client.request("GET", "/metrics", "").unwrap();
    assert_eq!(resp.status, 200);
    for series in
        ["pcv_shard_restarts_total", "pcv_shard_heartbeat_misses_total", "pcv_shard_degraded_total"]
    {
        assert!(resp.body.contains(series), "missing {series} in exposition:\n{}", resp.body);
    }
    let resp = client.request("GET", "/healthz", "").unwrap();
    assert_eq!(resp.status, 200);
    assert!(
        resp.body.contains("\"shard_torn_journal_lines\":{\"0\":0,\"1\":0}"),
        "healthz must carry per-shard torn counts: {}",
        resp.body
    );
    server.join();
}

#[test]
fn daemon_rejects_inconsistent_shard_overlays() {
    let (server, client) = boot_sharded("overlay");
    let resp = client.request("POST", "/sessions", &spef_body()).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let session = field(&resp.body, "session");

    // Shard knobs without sharding: typed 400s, not silent acceptance.
    for overlay in
        ["{\"shard_timeout_ms\":5000}", "{\"deadline_ms\":5000}", "{\"shard_restarts\":2}"]
    {
        let resp = client.request("POST", &format!("/sessions/{session}/runs"), overlay).unwrap();
        assert_eq!(resp.status, 400, "{overlay} must be rejected: {}", resp.body);
    }
    // ECO runs cannot shard: the splice plan is inherently resident-side.
    let eco = format!(
        "{{\"text\":{},\"shards\":2}}",
        str_lit("*SPEF\n*DESIGN \"x\"\n*D_NET n0 1.0\n*END\n")
    );
    let resp = client.request("POST", &format!("/sessions/{session}/eco"), &eco).unwrap();
    assert_eq!(resp.status, 400, "{}", resp.body);
    server.join();
}

#[test]
fn run_deadline_maps_to_typed_timeout() {
    // Both workers go silent immediately and stay silent forever.
    let plan = Plan::new().at(0, ALWAYS, ShardFault::StallAfter(0)).at(
        1,
        ALWAYS,
        ShardFault::StallAfter(0),
    );
    let err = run_with("deadline", 2, 1, plan, |cfg| {
        cfg.heartbeat_timeout = Duration::from_secs(30);
        cfg.deadline = Some(Duration::from_millis(800));
    })
    .unwrap_err();
    match &err {
        ApiError::Timeout(msg) => assert!(msg.contains("deadline"), "{msg}"),
        other => panic!("expected Timeout, got {other:?}"),
    }
    let (status, reason, code) = err.status();
    assert_eq!((status, reason, code), (504, "Gateway Timeout", "deadline_exceeded"));
}
