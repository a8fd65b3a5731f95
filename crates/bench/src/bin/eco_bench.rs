//! `eco_bench`: the CI benchmark-regression gate over incremental ECO
//! re-verification.
//!
//! The workload is a 2048-net tiled wire field (512 independent 4-wire
//! tiles, six empty tracks apart so the extractor's coupling cutoff keeps
//! tiles decoupled). One cold sign-off over the whole chip seeds the
//! session cache; each timed repetition then applies a <0.1% ECO — one
//! ground-cap edit on one net — and re-verifies through
//! [`Engine::eco_verify_resident`], which re-analyzes only the dirty
//! clusters and splices the other ~2044 verdicts from the warm cache.
//! Repetitions alternate between two edit variants so every
//! iteration pays real dirty-cluster work instead of a pure cache hit.
//!
//! The claim under test is that an ECO costs O(dirty) work, and it is gated
//! two ways:
//!
//! 1. on every timed run, `--check` or not: the clusters re-analyzed are
//!    exactly the plan's dirty set, and that set stays inside the edited
//!    tile (at most [`WIRES_PER_TILE`] of the 2048 nets);
//! 2. under `--check`: the noise-aware regression gate in
//!    [`pcv_bench::regression`] over the absolute ECO median against the
//!    checked-in `BENCH_eco.json` baseline.
//!
//! The cold/ECO ratio is printed and not gated. It divides by the cold
//! sign-off, so a faster numeric kernel lowers it while both numbers improve
//! (the reduced-transient rewrite took the cold run from 10.9 s to 2.6 s and
//! the ECO median from 61 ms to 45 ms on one box: 179× became 57×); what
//! remains of an ECO run is elaboration, diff, plan and cache I/O, which no
//! floor relative to the cold numerics can describe.
//!
//! ```text
//! cargo run --release -p pcv-bench --bin eco_bench              # measure
//! cargo run --release -p pcv-bench --bin eco_bench -- --check  # gate
//! cargo run --release -p pcv-bench --bin eco_bench -- --bless  # new baseline
//! ```

use pcv_bench::regression::{self, GateArgs};
use pcv_designs::extract::{extract, WireGeom};
use pcv_designs::Technology;
use pcv_engine::{Engine, EngineConfig, ResidentChip};
use pcv_netlist::{PNetId, ParasiticDb};
use pcv_obs::{mem, TrackingAlloc};
use std::process::ExitCode;
use std::time::Instant;

// The binary installs the instrumented allocator so the report's
// peak_alloc_bytes reflects the real workload footprint.
#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc::system();

const BENCH_NAME: &str = "eco_splice_tiles2048";
const TILES: usize = 512;
const WIRES_PER_TILE: usize = 4;
const WIRE_LENGTH: f64 = 500e-6;

/// Extract the tiled wire field: `TILES` groups of `WIRES_PER_TILE`
/// minimum-pitch wires, each group six empty tracks from the next so
/// inter-tile coupling falls past the extractor's cutoff and the tiles
/// are genuinely independent clusters.
fn tiled_field(tech: &Technology) -> ParasiticDb {
    let seg = (WIRE_LENGTH / 20.0).clamp(5e-6, 50e-6);
    let mut wires = Vec::with_capacity(TILES * WIRES_PER_TILE);
    for t in 0..TILES {
        for w in 0..WIRES_PER_TILE {
            let track = (t * (WIRES_PER_TILE + 6) + w) as i64;
            wires.push(WireGeom::min_width(format!("t{t}_w{w}"), track, 0.0, WIRE_LENGTH, tech));
        }
    }
    extract(&wires, tech, seg)
}

/// The 0.1% ECO: scale one net's first ground capacitor. Rebuilding the
/// database from the same extraction and editing one element is exactly
/// what a SPEF re-extraction of a one-net fix produces.
fn perturbed(base: &Technology, net: &str, scale: f64) -> ParasiticDb {
    let mut db = tiled_field(base);
    let id = db.find_net(net).expect("edited net exists");
    let edited = db.net(id);
    let (node, farads) = *edited.ground_caps().first().expect("edited net has a ground cap");
    // NetParasitics has no in-place editor (parasitics are append-only by
    // design), so rebuild the one net with the scaled cap.
    let mut rebuilt = pcv_netlist::NetParasitics::new(edited.name());
    for _ in 1..edited.num_nodes() {
        rebuilt.add_node();
    }
    for &(a, b, ohms) in edited.resistors() {
        rebuilt.add_resistor(a, b, ohms);
    }
    for &(n, c) in edited.ground_caps() {
        rebuilt.add_ground_cap(n, if n == node && c == farads { c * scale } else { c });
    }
    for &n in edited.load_nodes() {
        rebuilt.mark_load(n);
    }
    *db.net_mut(id) = rebuilt;
    db
}

fn chip(db: ParasiticDb) -> ResidentChip {
    let victims: Vec<PNetId> = (0..db.num_nets()).map(PNetId).collect();
    ResidentChip::fixed_resistance(db, 1000.0, victims)
}

fn main() -> ExitCode {
    let args = match GateArgs::parse("eco_bench", 9, Some(1), None) {
        Ok(args) => args,
        Err(code) => return code,
    };
    let warmup = args.warmup.unwrap_or(0);

    let tech = Technology::c025();
    let cache_dir = std::env::temp_dir().join(format!("pcv-eco-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    std::fs::create_dir_all(&cache_dir).expect("bench cache dir");
    let cache = cache_dir.join("chip.cache");
    let mk_engine = || {
        Engine::new(EngineConfig {
            workers: 0,
            cache_path: Some(cache.clone()),
            ..Default::default()
        })
    };

    // Two edit variants of the same net: alternating between them keeps
    // every timed ECO run's dirty clusters genuinely stale in the cache.
    let base = chip(tiled_field(&tech));
    let total = base.victims().len();
    let variants = [chip(perturbed(&tech, "t0_w0", 1.01)), chip(perturbed(&tech, "t0_w0", 1.02))];

    // One cold sign-off over the whole chip seeds the session cache for the
    // incremental runs (and is the numerator of the printed ratio).
    let t0 = Instant::now();
    let cold = mk_engine().verify_resident(&base, None).expect("cold sign-off verifies");
    let cold_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(cold.chip.verdicts.len(), total, "bench workload must stay intact");
    assert_eq!(cold.stats.cache_misses, total, "cold run must analyze everything");

    let run_eco = |prev: &ResidentChip, next: &ResidentChip, timed: bool| -> f64 {
        let t0 = Instant::now();
        let outcome =
            mk_engine().eco_verify_resident(prev, next, false, None).expect("eco run verifies");
        let elapsed_ms = t0.elapsed().as_secs_f64() * 1e3;
        assert_eq!(outcome.report.chip.verdicts.len(), total);
        if timed {
            // The point of the bench: only the dirty clusters re-analyze.
            assert_eq!(
                outcome.report.stats.cache_misses,
                outcome.plan.dirty.len(),
                "spliced run re-analyzed more than the plan's dirty set"
            );
            assert!(
                outcome.plan.dirty.len() <= WIRES_PER_TILE,
                "a one-net edit must stay inside its tile: {:?}",
                outcome.plan.dirty
            );
        }
        elapsed_ms
    };

    let mut prev = &base;
    for i in 0..warmup {
        let next = &variants[i % 2];
        run_eco(prev, next, false);
        prev = next;
    }
    mem::reset_peak();
    let mut samples_ms = Vec::with_capacity(args.iters);
    for i in 0..args.iters {
        let next = &variants[(warmup + i) % 2];
        samples_ms.push(run_eco(prev, next, true));
        prev = next;
    }
    let peak = mem::snapshot().map_or(0, |s| s.peak_bytes);
    let _ = std::fs::remove_dir_all(&cache_dir);

    let report = regression::summarize(BENCH_NAME, warmup, samples_ms, peak);
    let speedup = cold_ms / report.median_ms;
    eprintln!(
        "eco_bench: {} — cold {:.1} ms, eco median {:.3} ms ({speedup:.0}x), mad {:.3} ms, \
         peak heap {:.2} MiB",
        report.bench,
        cold_ms,
        report.median_ms,
        report.mad_ms,
        report.peak_alloc_bytes as f64 / (1024.0 * 1024.0)
    );
    regression::finish(&report, &args, || true)
}
