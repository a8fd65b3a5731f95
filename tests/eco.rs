//! Splice-equivalence proof harness for incremental ECO re-verification.
//!
//! The contract under test: a spliced sign-off — dirty clusters
//! re-analyzed, everything else served from the prior run's cache — is
//! **byte-identical** to a from-scratch sign-off over the edited netlist.
//! Not structurally equal: `assert_eq!` on the serialized document.
//!
//! Three layers of proof:
//!
//! 1. [`splice_matrix_is_byte_identical_across_edit_sizes_workers_and_cache_states`]
//!    sweeps edit sizes (one net, 0.1%, 1%, 10% of the chip) × worker
//!    counts (1, 2, 4, 8) × cache states (cold, warm). At this harness
//!    scale the sub-1% fractions round up to a single net — the 2048-net
//!    `eco_bench` workload exercises the true 0.1% case.
//! 2. [`daemon_eco_endpoint_serves_a_byte_identical_spliced_artifact`]
//!    mirrors the equivalence through the wire: `POST /sessions/{id}/eco`
//!    against a resident daemon session, interrupt + resume mid-ECO, and
//!    a byte-compare of the served spliced artifact against both a
//!    from-scratch daemon session and the offline batch flow.
//! 3. [`blast_radius_closure_holds_on_randomized_ecos`] drives
//!    `pcv-rng`-seeded random deltas (cap edits, net adds/removes,
//!    coupling adds/drops/scales) and proves the planner's dirty set is
//!    exactly the fingerprint-changed victims — every changed cluster is
//!    caught (soundness of the two-hop radius) and no clean cluster is
//!    re-analyzed (minimality) — and that the whole plan, field for field,
//!    is the one a sweep of every victim of both chips arrives at.

use pcv_engine::{cluster_fingerprint, config_hash, EcoPlan, Engine, EngineConfig, ResidentChip};
use pcv_netlist::eco::EcoDelta;
use pcv_netlist::{NetNodeRef, NetParasitics, PNetId, ParasiticDb};
use pcv_rng::Rng;
use pcv_serve::session::{elaborate, DesignSpec};
use pcv_serve::{Client, Server, ServerConfig};
use pcv_trace::json::str_lit;
use pcv_xtalk::prune::prune_victim_with_components;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

/// Chip size for the splice matrix: large enough that 10% is a real
/// multi-cluster edit, small enough for debug-mode CI.
const CHAIN: usize = 200;

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("pcv-eco-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// A coupled chain `n0 - n1 - … - n{n-1}` (nearest-neighbor coupling
/// caps), with the ground cap of net `i` scaled by `edits[i]`.
fn chain_db(n: usize, edits: &BTreeMap<usize, f64>) -> ParasiticDb {
    let mut db = ParasiticDb::new();
    for i in 0..n {
        let mut net = NetParasitics::new(format!("n{i}"));
        let n1 = net.add_node();
        net.add_resistor(0, n1, 150.0 + i as f64);
        net.add_ground_cap(n1, 8e-15 * edits.get(&i).copied().unwrap_or(1.0));
        net.mark_load(n1);
        db.add_net(net);
    }
    for i in 1..n {
        db.add_coupling(
            NetNodeRef { net: PNetId(i - 1), node: 1 },
            NetNodeRef { net: PNetId(i), node: 1 },
            (10 + (i % 7)) as f64 * 1e-15,
        );
    }
    db
}

fn chip(db: ParasiticDb) -> ResidentChip {
    let victims: Vec<PNetId> = (0..db.num_nets()).map(PNetId).collect();
    ResidentChip::fixed_resistance(db, 1000.0, victims)
}

/// Matrix-run configuration: a coarse transient step (50 instead of the
/// default 1000 steps per span) keeps the 40 debug-mode full-chip runs
/// of the sweep inside a CI budget. Splice equivalence is
/// config-independent — every run being byte-compared (scratch, seed,
/// warm, cold) shares this exact configuration.
fn fast_cfg() -> EngineConfig {
    let mut cfg = EngineConfig::default();
    cfg.analysis.mor.max_step_fraction = 1.0 / 50.0;
    cfg
}

/// `count` edited nets spread evenly over the chain, each with a
/// distinct scale so no two edits are interchangeable.
fn spread_edits(count: usize) -> BTreeMap<usize, f64> {
    let stride = (CHAIN / count).max(1);
    (0..count).map(|i| ((i * stride) % CHAIN, 1.01 + 0.005 * i as f64)).collect()
}

#[test]
fn splice_matrix_is_byte_identical_across_edit_sizes_workers_and_cache_states() {
    let sizes: [(&str, usize); 4] = [
        ("one-net", 1),
        // 0.1% of a 200-net chip rounds up to one net (see module docs).
        ("tenth-pct", CHAIN.div_ceil(1000)),
        ("one-pct", (CHAIN / 100).max(1)),
        ("ten-pct", (CHAIN / 10).max(1)),
    ];
    let old = chip(chain_db(CHAIN, &BTreeMap::new()));

    for (label, count) in sizes {
        let edits = spread_edits(count);
        let new = chip(chain_db(CHAIN, &edits));
        // The reference bytes: one from-scratch run on the edited chip.
        let expected = Engine::new(fast_cfg()).verify_resident(&new, None).unwrap().signoff_json();

        for workers in [1usize, 2, 4, 8] {
            // Warm cache: a prior run over the old chip seeded it, so the
            // ECO run analyzes exactly the plan's dirty set and splices
            // the rest.
            let dir = temp_dir(&format!("warm-{label}-w{workers}"));
            let cache = dir.join("chip.cache");
            let mk = || {
                Engine::new(EngineConfig { workers, cache_path: Some(cache.clone()), ..fast_cfg() })
            };
            let seeded = mk().verify_resident(&old, None).unwrap();
            assert_eq!(seeded.stats.cache_misses, CHAIN, "seed run must be cold");
            let outcome = mk().eco_verify_resident(&old, &new, false, None).unwrap();
            for idx in edits.keys() {
                let name = format!("n{idx}");
                assert!(
                    outcome.plan.dirty.contains(&name),
                    "[{label} w{workers}] edited net {name} missing from dirty set: {:?}",
                    outcome.plan.dirty
                );
            }
            assert_eq!(
                outcome.report.stats.cache_misses,
                outcome.plan.dirty.len(),
                "[{label} w{workers}] warm ECO re-analyzed more than the dirty set"
            );
            assert_eq!(
                outcome.report.stats.cache_hits, outcome.plan.clean,
                "[{label} w{workers}] every clean cluster must splice from cache"
            );
            assert_eq!(
                outcome.report.signoff_json(),
                expected,
                "[{label} w{workers}] warm spliced sign-off diverged from scratch"
            );
            let _ = std::fs::remove_dir_all(&dir);

            // Cold cache: nothing to splice from, everything re-analyzes,
            // and the document still lands on the same bytes.
            let dir = temp_dir(&format!("cold-{label}-w{workers}"));
            let cache = dir.join("chip.cache");
            let outcome =
                Engine::new(EngineConfig { workers, cache_path: Some(cache), ..fast_cfg() })
                    .eco_verify_resident(&old, &new, false, None)
                    .unwrap();
            assert_eq!(
                outcome.report.stats.cache_misses, CHAIN,
                "[{label} w{workers}] cold ECO must analyze the whole chip"
            );
            assert_eq!(
                outcome.report.signoff_json(),
                expected,
                "[{label} w{workers}] cold spliced sign-off diverged from scratch"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn noop_eco_with_a_warm_cache_splices_everything() {
    let dir = temp_dir("noop");
    let cache = dir.join("chip.cache");
    let mk = || Engine::new(EngineConfig { cache_path: Some(cache.clone()), ..fast_cfg() });
    let old = chip(chain_db(24, &BTreeMap::new()));
    let rebuilt = chip(chain_db(24, &BTreeMap::new()));
    let seeded = mk().verify_resident(&old, None).unwrap();

    let outcome = mk().eco_verify_resident(&old, &rebuilt, false, None).unwrap();
    assert!(outcome.plan.is_noop(), "{:?}", outcome.plan);
    assert!(outcome.plan.dirty.is_empty());
    assert_eq!(outcome.plan.splice_fraction(), 1.0);
    assert_eq!(outcome.report.stats.cache_misses, 0, "a no-op ECO analyzes nothing");
    assert_eq!(outcome.report.stats.cache_hits, 24);
    assert_eq!(outcome.report.signoff_json(), seeded.signoff_json());
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Daemon mirror: the same equivalence over the wire.
// ---------------------------------------------------------------------------

fn boot(tag: &str) -> (Server, Client, PathBuf) {
    let data_dir = temp_dir(tag);
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        data_dir: data_dir.clone(),
        queue_capacity: 8,
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

fn spef_session_body(spef: &str) -> String {
    format!(
        "{{\"design\":{{\"kind\":\"spef\",\"drive_ohms\":1000,\"victims\":\"all\",\"text\":{}}}}}",
        str_lit(spef)
    )
}

fn post_session(client: &Client, spef: &str) -> String {
    let resp = client.request("POST", "/sessions", &spef_session_body(spef)).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    field(&resp.body, "session")
}

fn post_run(client: &Client, session: &str, overlay: &str) -> String {
    let resp = client.request("POST", &format!("/sessions/{session}/runs"), overlay).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    field(&resp.body, "run")
}

/// Tail the run's event stream to its end; returns the trailer line.
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

fn get_signoff(client: &Client, run: &str) -> String {
    let resp = client.request("GET", &format!("/runs/{run}/signoff"), "").unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    resp.body
}

#[test]
fn daemon_eco_endpoint_serves_a_byte_identical_spliced_artifact() {
    let n = 24;
    let old_spef = pcv_netlist::spef::write_spef(&chain_db(n, &BTreeMap::new()));
    let edits: BTreeMap<usize, f64> = BTreeMap::from([(3, 1.02), (17, 0.97)]);
    let new_spef = pcv_netlist::spef::write_spef(&chain_db(n, &edits));

    let (server, client, _dir) = boot("daemon");
    let session = post_session(&client, &old_spef);

    // Baseline sign-off warms the session cache.
    let base_run = post_run(&client, &session, "{}");
    let trailer = stream_to_trailer(&client, &base_run);
    assert!(trailer.contains("\"state\":\"complete\""), "{trailer}");

    // The ECO, cut short after one cluster verdict: the patch is applied
    // (the resident chip swaps) but the run is interrupted — exactly the
    // crash-matrix case a daemon restart mid-ECO leaves behind.
    let eco_body = format!("{{\"text\":{},\"stop_after\":1}}", str_lit(&new_spef));
    let resp = client.request("POST", &format!("/sessions/{session}/eco"), &eco_body).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert!(resp.body.contains("\"eco\":{"), "response must carry the plan: {}", resp.body);
    assert!(resp.body.contains("\"dirty\":["), "{}", resp.body);
    let eco_run = field(&resp.body, "run");
    let trailer = stream_to_trailer(&client, &eco_run);
    assert!(trailer.contains("\"state\":\"interrupted\""), "{trailer}");
    let resp = client.request("GET", &format!("/runs/{eco_run}/signoff"), "").unwrap();
    assert_eq!(resp.status, 409, "interrupted ECO must not serve a sign-off: {}", resp.body);

    // Resume: an ordinary resume run over the (already swapped) resident
    // chip replays the journal and completes the splice.
    let resumed = post_run(&client, &session, "{\"resume\":true}");
    let trailer = stream_to_trailer(&client, &resumed);
    assert!(trailer.contains("\"state\":\"complete\""), "{trailer}");
    let spliced = get_signoff(&client, &resumed);

    // Reference 1: a from-scratch daemon session over the edited SPEF.
    let scratch_session = post_session(&client, &new_spef);
    let scratch_run = post_run(&client, &scratch_session, "{}");
    let trailer = stream_to_trailer(&client, &scratch_run);
    assert!(trailer.contains("\"state\":\"complete\""), "{trailer}");
    let scratch = get_signoff(&client, &scratch_run);
    assert_eq!(spliced, scratch, "served spliced artifact diverged from a from-scratch session");

    // Reference 2: the offline batch flow on the same edited design.
    let spec = DesignSpec::from_json(&spef_session_body(&new_spef)).unwrap();
    let offline = Engine::new(EngineConfig::default())
        .verify_resident(&elaborate(&spec).unwrap(), None)
        .unwrap()
        .signoff_json();
    assert_eq!(spliced, offline, "served spliced artifact diverged from the offline batch flow");

    // A no-op ECO (re-posting the text the session already holds) plans a
    // pure splice and completes to the same bytes.
    let noop_body = format!("{{\"text\":{}}}", str_lit(&new_spef));
    let resp = client.request("POST", &format!("/sessions/{session}/eco"), &noop_body).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert!(resp.body.contains("\"edits\":0"), "{}", resp.body);
    assert!(resp.body.contains("\"dirty\":[]"), "{}", resp.body);
    let noop_run = field(&resp.body, "run");
    let trailer = stream_to_trailer(&client, &noop_run);
    assert!(trailer.contains("\"state\":\"complete\""), "{trailer}");
    assert_eq!(get_signoff(&client, &noop_run), spliced);

    // Wire-level error mapping: bad bodies are typed 400s, unknown
    // sessions 404s.
    for (body, needle) in [
        ("{\"stop_after\":1}", "text"),
        ("{\"text\":\"x\",\"bogus_knob\":1}", "bogus_knob"),
        ("{not json", "error"),
    ] {
        let resp = client.request("POST", &format!("/sessions/{session}/eco"), body).unwrap();
        assert_eq!(resp.status, 400, "{body}: {}", resp.body);
        assert!(resp.body.contains(needle), "{body}: {}", resp.body);
    }
    let resp = client.request("POST", "/sessions/s99/eco", &noop_body).unwrap();
    assert_eq!(resp.status, 404, "{}", resp.body);

    server.join();
}

// ---------------------------------------------------------------------------
// Property: blast-radius closure on randomized ECOs.
// ---------------------------------------------------------------------------

/// Plain-Rust chip description, mutated by name so net removal cannot
/// silently re-index coupling endpoints.
#[derive(Clone)]
struct NetSpec {
    name: String,
    /// Nodes beyond the driver root; node `k` carries a resistor from
    /// `k-1` and its own ground cap.
    segments: Vec<(f64, f64)>,
}

#[derive(Clone)]
struct CouplingSpec {
    a: (String, usize),
    b: (String, usize),
    farads: f64,
}

#[derive(Clone)]
struct ChipSpec {
    nets: Vec<NetSpec>,
    couplings: Vec<CouplingSpec>,
}

fn materialize(spec: &ChipSpec) -> ParasiticDb {
    let mut db = ParasiticDb::new();
    let mut ids = BTreeMap::new();
    for (i, net) in spec.nets.iter().enumerate() {
        let mut n = NetParasitics::new(&net.name);
        for (k, &(ohms, farads)) in net.segments.iter().enumerate() {
            let node = n.add_node();
            n.add_resistor(k, node, ohms);
            n.add_ground_cap(node, farads);
        }
        n.mark_load(net.segments.len());
        db.add_net(n);
        ids.insert(net.name.clone(), PNetId(i));
    }
    for c in &spec.couplings {
        db.add_coupling(
            NetNodeRef { net: ids[&c.a.0], node: c.a.1 },
            NetNodeRef { net: ids[&c.b.0], node: c.b.1 },
            c.farads,
        );
    }
    db
}

fn random_spec(rng: &mut Rng) -> ChipSpec {
    let n = rng.range_usize(5, 11);
    let nets: Vec<NetSpec> = (0..n)
        .map(|i| NetSpec {
            name: format!("n{i}"),
            segments: (0..rng.range_usize(1, 4))
                .map(|_| (rng.range_f64(50.0, 400.0), rng.range_f64(1e-15, 2e-14)))
                .collect(),
        })
        .collect();
    let mut couplings = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.bool_with(0.3) {
                let a = (nets[i].name.clone(), rng.range_usize(1, nets[i].segments.len() + 1));
                let b = (nets[j].name.clone(), rng.range_usize(1, nets[j].segments.len() + 1));
                let farads = rng.range_f64(1e-15, 3e-14);
                couplings.push(CouplingSpec { a: a.clone(), b: b.clone(), farads });
                // Occasional parallel plate: duplicates are part of the
                // multiset semantics under test.
                if rng.bool_with(0.15) {
                    couplings.push(CouplingSpec { a, b, farads: rng.range_f64(1e-15, 3e-14) });
                }
            }
        }
    }
    ChipSpec { nets, couplings }
}

/// A random ECO: cap edits, a net removal, a net addition, coupling
/// drops/scales/additions — every delta category the planner types.
fn mutate(spec: &ChipSpec, rng: &mut Rng, tag: u64) -> ChipSpec {
    let mut new = spec.clone();
    if tag % 6 == 5 {
        // A coupling-only edit: no net's own RC moves.
        let k = rng.range_usize(0, new.couplings.len().max(1));
        if let Some(c) = new.couplings.get_mut(k) {
            c.farads *= 1.07;
        }
        return new;
    }
    if rng.bool_with(0.25) {
        // A rename: to the planner, one net retired and one born.
        let k = rng.range_usize(0, new.nets.len());
        let (was, now) = (new.nets[k].name.clone(), format!("r{tag}"));
        for end in new.couplings.iter_mut().flat_map(|c| [&mut c.a.0, &mut c.b.0]) {
            if *end == was {
                end.clone_from(&now);
            }
        }
        new.nets[k].name = now;
    }
    for net in &mut new.nets {
        if rng.bool_with(0.3) {
            let k = rng.range_usize(0, net.segments.len());
            net.segments[k].1 *= rng.range_f64(0.9, 1.1);
        }
    }
    if rng.bool_with(0.25) && new.nets.len() > 2 {
        let gone = new.nets.remove(rng.range_usize(0, new.nets.len())).name;
        new.couplings.retain(|c| c.a.0 != gone && c.b.0 != gone);
    }
    if rng.bool_with(0.3) {
        let name = format!("x{tag}");
        new.nets.push(NetSpec {
            name: name.clone(),
            segments: vec![(rng.range_f64(50.0, 400.0), rng.range_f64(1e-15, 2e-14))],
        });
        let peer = &new.nets[rng.range_usize(0, new.nets.len() - 1)];
        new.couplings.push(CouplingSpec {
            a: (name, 1),
            b: (peer.name.clone(), rng.range_usize(1, peer.segments.len() + 1)),
            farads: rng.range_f64(1e-15, 3e-14),
        });
    }
    if !new.couplings.is_empty() && rng.bool_with(0.3) {
        new.couplings.remove(rng.range_usize(0, new.couplings.len()));
    }
    if !new.couplings.is_empty() && rng.bool_with(0.4) {
        let k = rng.range_usize(0, new.couplings.len());
        new.couplings[k].farads *= rng.range_f64(0.85, 1.15);
    }
    new
}

/// Canonical fingerprints of every victim, recomputed here from the
/// public primitives the engine itself uses — the oracle the planner's
/// dirty set is checked against.
fn fingerprints(cfg: &EngineConfig, chip: &ResidentChip) -> BTreeMap<String, u64> {
    let ctx = chip.ctx();
    let chash = config_hash(
        &ctx,
        &cfg.prune,
        &cfg.analysis,
        cfg.warn_frac,
        cfg.fail_frac,
        cfg.check_receivers,
    );
    chip.victims()
        .iter()
        .map(|&vic| {
            let cluster =
                prune_victim_with_components(ctx.db, vic, &cfg.prune, chip.component_sizes());
            (ctx.db.net(vic).name().to_owned(), cluster_fingerprint(&ctx, &cluster, chash))
        })
        .collect()
}

/// The plan by its definition, from a sweep of both chips: every victim
/// of both named and fingerprinted, the two-hop closure taken over an
/// adjacency of every coupling — what [`EcoPlan::compute`] must equal,
/// field for field, while visiting only what the edit reaches.
fn plan_by_sweep(
    cfg: &EngineConfig,
    old: &ResidentChip,
    new: &ResidentChip,
    delta: &EcoDelta,
) -> EcoPlan {
    let (old_fp, new_fp) = (fingerprints(cfg, old), fingerprints(cfg, new));
    let mut adjacent: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for db in [old.db(), new.db()] {
        for c in db.couplings() {
            let (a, b) = (db.net(c.a.net).name(), db.net(c.b.net).name());
            adjacent.entry(a).or_default().insert(b);
            adjacent.entry(b).or_default().insert(a);
        }
    }
    let touched = delta.touched_nets();
    let mut radius = touched.clone();
    for _hop in 0..2 {
        let reached: Vec<&str> =
            radius.iter().filter_map(|n| adjacent.get(n.as_str())).flatten().copied().collect();
        radius.extend(reached.into_iter().map(str::to_owned));
    }
    let candidates: Vec<String> = new_fp
        .keys()
        .filter(|v| radius.contains(*v) || !old_fp.contains_key(*v))
        .cloned()
        .collect();
    let dirty: Vec<String> =
        candidates.iter().filter(|v| old_fp.get(*v) != new_fp.get(*v)).cloned().collect();
    EcoPlan {
        edits: delta.num_edits(),
        touched: touched.into_iter().collect(),
        candidates,
        clean: new_fp.len() - dirty.len(),
        dirty,
        retired: old_fp.keys().filter(|v| !new_fp.contains_key(*v)).cloned().collect(),
    }
}

/// A victim list for `db`: every net, or — seeded — a shuffled subset with
/// one victim named twice, so the two chips of an ECO audit different
/// lists in different orders.
fn some_victims(db: &ParasiticDb, rng: &mut Rng) -> Vec<PNetId> {
    let mut victims: Vec<PNetId> = (0..db.num_nets()).map(PNetId).collect();
    if rng.bool_with(0.5) {
        return victims;
    }
    for k in (1..victims.len()).rev() {
        victims.swap(k, rng.range_usize(0, k + 1));
    }
    victims.truncate(rng.range_usize(2, victims.len() + 1));
    victims.push(victims[0]);
    victims
}

#[test]
fn blast_radius_closure_holds_on_randomized_ecos() {
    let cfg = EngineConfig::default();
    for seed in 0..24u64 {
        let mut rng = Rng::new(seed);
        let old_spec = random_spec(&mut rng);
        let new_spec = mutate(&old_spec, &mut rng, seed);

        let old = chip(materialize(&old_spec));
        let new = chip(materialize(&new_spec));
        let delta = EcoDelta::diff(old.db(), new.db());
        let plan = EcoPlan::compute(&cfg, &old, &new, &delta);
        assert_eq!(plan, plan_by_sweep(&cfg, &old, &new, &delta), "seed {seed}");
        // The same edit between chips that audit other victim lists:
        // victims join and leave the audit though their nets stay.
        for _lists in 0..3 {
            let chip_of = |spec: &ChipSpec, rng: &mut Rng| {
                let db = materialize(spec);
                let victims = some_victims(&db, rng);
                ResidentChip::fixed_resistance(db, 1000.0, victims)
            };
            let (old, new) = (chip_of(&old_spec, &mut rng), chip_of(&new_spec, &mut rng));
            let got = EcoPlan::compute(&cfg, &old, &new, &delta);
            assert_eq!(got, plan_by_sweep(&cfg, &old, &new, &delta), "seed {seed}");
        }

        let old_fp = fingerprints(&cfg, &old);
        let new_fp = fingerprints(&cfg, &new);
        let dirty: BTreeSet<&String> = plan.dirty.iter().collect();

        for (name, fp) in &new_fp {
            match old_fp.get(name) {
                // Soundness: a victim whose canonical fingerprint changed
                // must be in the dirty set — the radius caught it.
                Some(prior) if prior != fp => assert!(
                    dirty.contains(name),
                    "seed {seed}: fingerprint-changed victim {name} escaped the dirty set\n\
                     delta: {delta:?}\nplan: {plan:?}"
                ),
                // Minimality: an unchanged victim is never re-analyzed.
                Some(_) => assert!(
                    !dirty.contains(name),
                    "seed {seed}: clean victim {name} marked dirty\nplan: {plan:?}"
                ),
                // Fresh victims have nothing to splice from.
                None => assert!(
                    dirty.contains(name),
                    "seed {seed}: fresh victim {name} missing from dirty set\nplan: {plan:?}"
                ),
            }
        }
        for name in old_fp.keys().filter(|k| !new_fp.contains_key(*k)) {
            assert!(
                plan.retired.contains(name),
                "seed {seed}: removed victim {name} not retired\nplan: {plan:?}"
            );
        }
        assert_eq!(
            plan.clean + plan.dirty.len(),
            new_fp.len(),
            "seed {seed}: plan must partition the new chip's victims"
        );

        // The identity ECO: rebuilding the same spec diffs to nothing and
        // plans a pure splice.
        let replica = chip(materialize(&old_spec));
        let noop = EcoDelta::diff(old.db(), replica.db());
        assert!(noop.is_empty(), "seed {seed}: identical rebuild produced a delta: {noop:?}");
        let noop_plan = EcoPlan::compute(&cfg, &old, &replica, &noop);
        assert!(noop_plan.is_noop(), "seed {seed}: {noop_plan:?}");
        assert!(noop_plan.dirty.is_empty());
        assert_eq!(noop_plan.splice_fraction(), 1.0);
    }
}
