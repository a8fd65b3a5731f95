//! `audit` — run the chip-level crosstalk audit on a SPEF-lite file.
//!
//! ```text
//! audit <parasitics.spef> [--drive <ohms>] [--warn <frac>] [--fail <frac>]
//!       [--ratio <cap_ratio>] [--csv]
//! ```
//!
//! Every net is audited as a victim with uniform fixed-resistance drivers
//! (the design-less flow); use the library API for cell-based models.

use pcv_engine::{Engine, EngineConfig, ResidentChip, RunRequest};
use pcv_netlist::spef::parse_spef;
use pcv_netlist::PNetId;
use pcv_xtalk::prune::PruneConfig;
use std::process::ExitCode;

fn parse_flag(args: &[String], name: &str, default: f64) -> Result<f64, String> {
    for k in 0..args.len() {
        if args[k] == name {
            return args
                .get(k + 1)
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("{name} needs a numeric value"));
        }
    }
    Ok(default)
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let path = args
        .iter()
        .find(|a| !a.starts_with("--") && a.parse::<f64>().is_err())
        .ok_or("usage: audit <parasitics.spef> [--drive ohms] [--warn frac] [--fail frac] [--ratio r] [--csv]")?;
    let drive = parse_flag(&args, "--drive", 1000.0)?;
    let warn = parse_flag(&args, "--warn", 0.10)?;
    let fail = parse_flag(&args, "--fail", 0.20)?;
    let ratio = parse_flag(&args, "--ratio", 0.02)?;
    let csv = args.iter().any(|a| a == "--csv");

    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let db = parse_spef(&text).map_err(|e| e.to_string())?;
    eprintln!("loaded {}: {} nets, {} coupling caps", path, db.num_nets(), db.couplings().len());

    let victims: Vec<PNetId> = (0..db.num_nets()).map(PNetId).collect();
    let chip = ResidentChip::fixed_resistance(db, drive, victims);
    let prune = PruneConfig { cap_ratio: ratio, max_aggressors: 12 };
    let engine =
        Engine::new(EngineConfig { prune, warn_frac: warn, fail_frac: fail, ..Default::default() });
    let audit = engine.run(RunRequest::resident(&chip)).map_err(|e| e.to_string())?;
    // A cluster no analysis rung could settle is worst-cased: a violation.
    for e in &audit.errors {
        eprintln!("audit: {e}");
    }
    let report = audit.chip;
    if csv {
        print!("{}", report.to_csv());
    } else {
        print!("{}", report.to_text());
    }
    if report.num_violations() > 0 {
        Err(format!("{} violations", report.num_violations()))
    } else {
        Ok(())
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("audit: {e}");
            ExitCode::FAILURE
        }
    }
}
