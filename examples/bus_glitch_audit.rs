//! Audit a parallel bus for crosstalk glitches: extract an 8-bit bus routed
//! at minimum pitch, then check every bit with the chip-level verifier —
//! run through the parallel `pcv-engine` pool.
//!
//! This is the workload the paper's introduction motivates: long parallel
//! wires at deep-submicron pitch where coupling dominates capacitance.
//!
//! Run with: `cargo run --release -p pcv-bench --example bus_glitch_audit`
//! (pass `--quiet` to suppress the live stderr status line)

use pcv_designs::structures::bundle;
use pcv_designs::Technology;
use pcv_engine::{Engine, EngineConfig, ResidentChip, RunRequest};
use pcv_netlist::PNetId;
use pcv_obs::StderrStatusLine;
use pcv_xtalk::{AnalysisOptions, XtalkError};
use std::sync::Arc;

fn main() -> Result<(), XtalkError> {
    let quiet = std::env::args().any(|a| a == "--quiet");
    let tech = Technology::c025();
    let engine = Engine::new(EngineConfig {
        workers: 0, // one per core
        analysis: AnalysisOptions::default(),
        trace: true,
        sink: Some(Arc::new(StderrStatusLine::auto(quiet))),
        ..Default::default()
    });

    for &length_um in &[500.0, 1500.0, 3000.0] {
        // An 8-bit bus: adjacent bits couple strongly, edge bits less.
        let db = bundle(8, length_um * 1e-6, &tech);
        let victims: Vec<PNetId> = (0..db.num_nets()).map(PNetId).collect();
        let chip = ResidentChip::fixed_resistance(db, 800.0, victims);
        let report = engine.run(RunRequest::resident(&chip))?;

        println!("=== {length_um:.0} um bus ===");
        print!("{}", report.to_text());
        // Interior bits see two aggressors and fare worst; confirm the
        // audit ranks them above the edge bits.
        let worst = &report.chip.verdicts[0];
        println!("worst bit: {} at {:.1}% of Vdd", worst.name, 100.0 * worst.worst_frac);

        // Drop the run's profile artifacts (Chrome trace + cost JSON) into
        // target/ for inspection in chrome://tracing or Perfetto. The
        // export is atomic (write-temp + fsync + rename), so a killed run
        // never leaves a torn JSON document here.
        let stem = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("../../target/bus_audit_{length_um:.0}um"));
        match report.write_profile_with(&pcv_engine::Fs::real(), &stem) {
            Ok(paths) => {
                for p in paths {
                    println!("wrote {}", p.display());
                }
            }
            Err(e) => eprintln!("profile write failed: {e}"),
        }
        println!();
    }
    Ok(())
}
