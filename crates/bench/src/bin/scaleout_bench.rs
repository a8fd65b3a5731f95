//! `scaleout_bench`: the CI gate over multi-process sharded sign-off.
//!
//! The workload is the [`DspConfig::scaleout`] tier — ten 32-bit buses
//! plus 320 random nets, ~400 latch victims — sized so verification
//! dominates elaboration by three orders of magnitude and process-level
//! fan-out (each worker re-elaborates the chip, then verifies only its
//! slice) has real work to parallelize.
//!
//! Every run pins **one engine thread per process**: the baseline is a
//! single in-process engine with `workers: 1`, the sharded runs use
//! `workers_per_shard: 1` — so the measured axis is process scale-out
//! alone, not thread-level parallelism the engine already has. Each
//! repetition starts from a wiped data directory: no shard journal, no
//! result cache, fully cold.
//!
//! The report gates three ways under `--check`:
//!
//! 1. byte-identity — every sharded sign-off must equal the unsharded
//!    baseline document exactly (always enforced, even without `--check`);
//! 2. hard speedup floors, [`MIN_SPEEDUP_2`]× at 2 workers and
//!    [`MIN_SPEEDUP_4`]× at 4 — enforced only when the machine actually
//!    has that many cores ([`std::thread::available_parallelism`]), since
//!    wall-clock fan-out on fewer cores is physics, not a regression;
//! 3. the noise-aware regression gate in [`pcv_bench::regression`] over
//!    the 4-shard median against the checked-in `BENCH_scaleout.json`.
//!
//! ```text
//! cargo build --release -p pcv-serve                                # worker exe
//! cargo run --release -p pcv-bench --bin scaleout_bench             # measure
//! cargo run --release -p pcv-bench --bin scaleout_bench -- --check  # gate
//! cargo run --release -p pcv-bench --bin scaleout_bench -- --bless  # new baseline
//! ```

use pcv_bench::regression::{self, GateArgs};
use pcv_designs::dsp::DspConfig;
use pcv_engine::{Engine, EngineConfig};
use pcv_obs::{mem, TrackingAlloc};
use pcv_serve::session::elaborate;
use pcv_serve::{Coordinator, CoordinatorConfig, DesignSpec};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc::system();

const BENCH_NAME: &str = "scaleout_shards4_dsp640";
/// Speedup floor for 2 worker processes vs. the 1-thread baseline.
const MIN_SPEEDUP_2: f64 = 1.6;
/// Speedup floor for 4 worker processes vs. the 1-thread baseline.
const MIN_SPEEDUP_4: f64 = 2.5;
/// The shard counts measured, in report order.
const SHARD_COUNTS: [usize; 3] = [2, 4, 8];

/// The `pcv_serve` binary is a sibling of this bench in the same cargo
/// target directory — CI builds `-p pcv-serve --release` first.
fn worker_exe_default() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("pcv_serve")))
        .unwrap_or_else(|| PathBuf::from("pcv_serve"))
}

fn main() -> ExitCode {
    let args = match GateArgs::parse("scaleout_bench", 3, None, Some(worker_exe_default())) {
        Ok(args) => args,
        Err(code) => return code,
    };
    let serve_exe = args.serve_exe.as_deref().expect("this gate takes --serve-exe");
    if !serve_exe.is_file() {
        eprintln!(
            "scaleout_bench: worker binary {} not found (build with \
             `cargo build --release -p pcv-serve` or pass --serve-exe)",
            serve_exe.display()
        );
        return ExitCode::from(2);
    }

    let spec = DesignSpec::Dsp { config: DspConfig::scaleout() };
    let chip = Arc::new(elaborate(&spec).expect("scaleout tier elaborates"));
    let total = chip.victims().len();
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    eprintln!("scaleout_bench: {total} victims, {cores} cores, worker {}", serve_exe.display());

    let dir = std::env::temp_dir().join(format!("pcv-scaleout-bench-{}", std::process::id()));
    let wipe = || {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("bench data dir");
    };

    // The denominator: one process, one engine thread, whole chip, cold.
    wipe();
    let t0 = Instant::now();
    let base_report = Engine::new(EngineConfig {
        workers: 1,
        cache_path: Some(dir.join("base.cache")),
        ..EngineConfig::default()
    })
    .verify_resident(&chip, None)
    .expect("baseline sign-off verifies");
    let base_ms = t0.elapsed().as_secs_f64() * 1e3;
    let base_doc = base_report.signoff_json();
    assert_eq!(base_report.chip.verdicts.len(), total, "bench workload must stay intact");

    // The sharded runs: cold every repetition, byte-checked every time.
    let run_sharded = |shards: usize| -> f64 {
        wipe();
        let mut cfg =
            CoordinatorConfig::new(shards, serve_exe.to_owned(), dir.join("merged.cache"));
        cfg.workers_per_shard = 1;
        let t0 = Instant::now();
        let outcome =
            Coordinator::new(spec.clone(), Arc::clone(&chip), cfg).run(None).unwrap_or_else(|e| {
                panic!("sharded run ({shards} shards) failed: {e:?}");
            });
        let elapsed_ms = t0.elapsed().as_secs_f64() * 1e3;
        assert_eq!(
            outcome.report.signoff_json(),
            base_doc,
            "sharded sign-off ({shards} shards) must be byte-identical to the baseline"
        );
        assert_eq!(outcome.degraded_shards(), 0, "no shard may degrade in the bench");
        elapsed_ms
    };

    mem::reset_peak();
    let mut medians_ms = Vec::with_capacity(SHARD_COUNTS.len());
    let mut samples_4 = Vec::new();
    for &shards in &SHARD_COUNTS {
        let mut samples = Vec::with_capacity(args.iters);
        for _ in 0..args.iters {
            samples.push(run_sharded(shards));
        }
        if shards == 4 {
            samples_4 = samples.clone();
        }
        medians_ms.push(regression::median(&samples));
    }
    let peak = mem::snapshot().map_or(0, |s| s.peak_bytes);
    let _ = std::fs::remove_dir_all(&dir);

    let report = regression::summarize(BENCH_NAME, 0, samples_4, peak);
    eprint!("scaleout_bench: baseline {base_ms:.0} ms");
    for (i, &shards) in SHARD_COUNTS.iter().enumerate() {
        eprint!(", {shards} workers {:.0} ms ({:.2}x)", medians_ms[i], base_ms / medians_ms[i]);
    }
    eprintln!();
    // Speedup floors only bind where the cores exist to deliver them.
    regression::finish(&report, &args, || {
        for (shards, floor) in [(2usize, MIN_SPEEDUP_2), (4usize, MIN_SPEEDUP_4)] {
            let idx = SHARD_COUNTS.iter().position(|&s| s == shards).expect("measured count");
            let speedup = base_ms / medians_ms[idx];
            if cores < shards {
                eprintln!(
                    "scaleout_bench: skipping {shards}-worker floor ({cores} cores available)"
                );
            } else if speedup < floor {
                eprintln!(
                    "scaleout_bench: FAIL — {shards} workers gave only {speedup:.2}x \
                     (floor {floor}x)"
                );
                return false;
            }
        }
        true
    })
}
