//! `signoff_bench`: the CI benchmark-regression gate over the parallel
//! sign-off flow.
//!
//! Runs warmup + N timed repetitions of a full [`pcv_engine::Engine`]
//! run over the deterministic 16-wire bundle fixture (elaborated once,
//! outside the timed loop; cold cache every repetition), summarizes with
//! median/MAD, and writes the stable-schema `BENCH_signoff.json`. With
//! `--check`, compares against the checked-in baseline using the
//! noise-aware gate in [`pcv_bench::regression`] and exits nonzero on
//! regression.
//!
//! ```text
//! cargo run --release -p pcv-bench --bin signoff_bench              # measure
//! cargo run --release -p pcv-bench --bin signoff_bench -- --check  # gate
//! cargo run --release -p pcv-bench --bin signoff_bench -- --bless  # new baseline
//! ```

use pcv_bench::regression::{self, GateArgs};
use pcv_designs::structures::bundle;
use pcv_designs::Technology;
use pcv_engine::{Engine, EngineConfig, ResidentChip, RunRequest};
use pcv_netlist::PNetId;
use pcv_obs::{mem, TrackingAlloc};
use std::process::ExitCode;
use std::time::Instant;

// The binary installs the instrumented allocator so the report's
// peak_alloc_bytes reflects the real workload footprint.
#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc::system();

const BENCH_NAME: &str = "signoff_bundle16";

/// One timed repetition: a cold-cache engine run over the bundle.
fn run_once(chip: &ResidentChip) -> f64 {
    let engine = Engine::new(EngineConfig { workers: 0, ..Default::default() });
    let t0 = Instant::now();
    let report = engine.run(RunRequest::resident(chip)).expect("bench workload verifies");
    let elapsed_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(report.chip.verdicts.len(), chip.victims().len(), "bench workload must stay intact");
    elapsed_ms
}

fn main() -> ExitCode {
    let args = match GateArgs::parse("signoff_bench", 9, Some(2), None) {
        Ok(args) => args,
        Err(code) => return code,
    };
    let warmup = args.warmup.unwrap_or(0);

    let db = bundle(16, 2000e-6, &Technology::c025());
    let victims: Vec<PNetId> = (0..db.num_nets()).map(PNetId).collect();
    let chip = ResidentChip::fixed_resistance(db, 1000.0, victims);

    for _ in 0..warmup {
        run_once(&chip);
    }
    mem::reset_peak();
    let mut samples_ms = Vec::with_capacity(args.iters);
    for _ in 0..args.iters {
        samples_ms.push(run_once(&chip));
    }
    let peak = mem::snapshot().map_or(0, |s| s.peak_bytes);

    let report = regression::summarize(BENCH_NAME, warmup, samples_ms, peak);
    eprintln!(
        "signoff_bench: {} — median {:.3} ms, mad {:.3} ms, min {:.3} ms, peak heap {:.2} MiB",
        report.bench,
        report.median_ms,
        report.mad_ms,
        report.min_ms,
        report.peak_alloc_bytes as f64 / (1024.0 * 1024.0)
    );
    regression::finish(&report, &args, || true)
}
