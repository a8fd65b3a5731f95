//! Full-flow DSP sign-off: generate a DSP-like block, pre-characterize the
//! cells its drivers use, and run the chip-level crosstalk audit on every
//! latch-input victim with the nonlinear cell model — the paper's Section 5
//! flow end to end, driven by the parallel `pcv-engine` orchestrator with
//! an incremental result cache (rerun the example to see warm-cache hits).
//!
//! Run with: `cargo run --release -p pcv-bench --example dsp_chip_signoff`
//!
//! While the engine runs, a live status line on stderr shows clusters
//! done, throughput, ETA, cache hits and degradations. Pass `--quiet` to
//! suppress it; it also disappears on its own when stderr is not a
//! terminal.
//!
//! Pass `--stop-after N` to drill the crash-safe path: the run stops
//! cooperatively after N cluster verdicts (simulating an interrupted
//! sign-off), then resumes from the checkpoint journal and finishes —
//! byte-identical to an uninterrupted run.

use pcv_designs::dsp::DspConfig;
use pcv_engine::{Engine, EngineConfig, ResidentChip, RunRequest, StopAfter, StopFlag};
use pcv_obs::{EventSink, StderrStatusLine, TeeSink};
use pcv_xtalk::XtalkError;
use std::sync::Arc;

fn main() -> Result<(), XtalkError> {
    let args: Vec<String> = std::env::args().collect();
    let quiet = args.iter().any(|a| a == "--quiet");
    let stop_after = args
        .iter()
        .position(|a| a == "--stop-after")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse::<usize>().ok());

    // Generate the block, pre-characterize the cells its drivers use (the
    // paper's one-time task, cached under target/), and pick the victims:
    // every latch input — the state-corruption hazard.
    println!("elaborating DSP-like block...");
    let chip = ResidentChip::dsp(&DspConfig {
        n_buses: 3,
        bus_bits: 12,
        n_random_nets: 40,
        ..Default::default()
    })?;
    let (ctx, victims) = (chip.ctx(), chip.victims());
    println!(
        "  {} nets, {} instances, {} coupling caps, {} cells characterized",
        chip.num_nets(),
        ctx.design.map_or(0, |d| d.num_instances()),
        chip.db().couplings().len(),
        ctx.charlib.map_or(0, |c| c.len())
    );
    println!("auditing {} latch-input victims...", victims.len());

    // Parallel, cached sign-off run: one cluster job per victim on a
    // shared-cursor worker pool, verdicts stored under topology
    // fingerprints in target/ so an unchanged rerun skips every analysis.
    // Tracing is on, so the run also drops a Chrome trace + profile next
    // to the cache.
    let cache =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/dsp_signoff.cache");
    let status = Arc::new(StderrStatusLine::auto(quiet));
    let base = EngineConfig {
        workers: 0, // one per core
        cache_path: Some(cache.clone()),
        trace: true,
        sink: Some(status.clone()),
        ..Default::default()
    };
    let report = if let Some(n) = stop_after {
        // Crash drill: stop cooperatively after n verdicts (in-flight
        // clusters drain, the journal keeps every completed verdict),
        // then resume from the checkpoint journal and finish the audit.
        let flag = StopFlag::new();
        let stopper: Arc<dyn EventSink> = Arc::new(StopAfter::new(flag.clone(), n));
        let mut cfg = base.clone();
        cfg.sink = Some(Arc::new(TeeSink::new(vec![status.clone(), stopper])));
        cfg.stop = Some(flag);
        let partial = Engine::new(cfg).run(RunRequest::resident(&chip))?;
        println!(
            "stopped early: {}/{} verdict(s) checkpointed, {} skipped — resuming",
            partial.stats.victims - partial.stats.skipped,
            partial.stats.victims,
            partial.stats.skipped
        );
        Engine::new(base).run(RunRequest { resume: true, ..RunRequest::resident(&chip) })?
    } else {
        Engine::new(base).run(RunRequest::resident(&chip))?
    };
    let progress = status.snapshot();
    println!(
        "live monitor saw {}/{} clusters, {} cached, {} degraded",
        progress.done, progress.total, progress.cached, progress.degraded
    );

    print!("{}", report.to_text());
    // A healthy chip degrades nothing; any entry here names the victim,
    // the recovery rung that stood, and every failed attempt on the way.
    if report.degradations.is_empty() {
        println!("recovery ladder: no cluster needed it (0 degraded verdicts)");
    } else {
        println!("recovery ladder: {} degraded verdict(s):", report.degradations.len());
        for d in &report.degradations {
            println!("  {d}");
        }
    }
    if let Some(trace) = &report.trace {
        println!(
            "trace: {} spans, {} counters — open {}.trace.json in chrome://tracing or Perfetto",
            trace.spans.len(),
            trace.counters.len(),
            cache.display()
        );
        println!("profile: {}.profile.json", cache.display());
    }
    println!(
        "\n{} violations, {} total flagged — pruning kept clusters at {:.1} nets on average",
        report.chip.num_violations(),
        report.chip.flagged().count(),
        report.chip.pruning.mean_after
    );

    // Persist the machine-readable sign-off verdict atomically — this is
    // the artifact the crash drill compares (and CI uploads).
    let signoff = cache.with_extension("signoff.json");
    match pcv_engine::fs::Fs::real().write_atomic(&signoff, report.signoff_json().as_bytes()) {
        Ok(()) => println!("signoff: {}", signoff.display()),
        Err(e) => eprintln!("signoff artifact write failed: {e}"),
    }
    Ok(())
}
