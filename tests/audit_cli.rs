//! The `audit` binary end to end: a SPEF written from the bundle fixture,
//! audited with `--csv`, prints the engine report's CSV and exits nonzero
//! exactly when the report has violations.

mod fixtures;

use pcv_engine::{Engine, EngineConfig, ResidentChip, RunRequest};
use pcv_netlist::spef::{parse_spef, write_spef};
use pcv_netlist::PNetId;
use pcv_xtalk::prune::PruneConfig;
use std::process::Command;

#[test]
fn csv_is_the_engine_report_and_the_exit_code_is_the_violations() {
    let (db, _) = fixtures::bundle_fixture();
    let spef = write_spef(&db);
    let path = std::env::temp_dir().join(format!("pcv-audit-cli-{}.spef", std::process::id()));
    std::fs::write(&path, &spef).unwrap();

    // What the binary reads, audited as it documents: every net a victim,
    // 1 kΩ fixed drivers, `--ratio` as the prune threshold.
    let read = parse_spef(&spef).unwrap();
    let victims: Vec<PNetId> = (0..read.num_nets()).map(PNetId).collect();
    let chip = ResidentChip::fixed_resistance(read, 1000.0, victims);

    let cases =
        [(&[][..], 0.10, 0.20, true), (&["--warn", "0.5", "--fail", "0.9"][..], 0.5, 0.9, false)];
    for (flags, warn_frac, fail_frac, want_violations) in cases {
        let config = EngineConfig {
            prune: PruneConfig { cap_ratio: 0.02, max_aggressors: 12 },
            warn_frac,
            fail_frac,
            ..Default::default()
        };
        let report = Engine::new(config).run(RunRequest::resident(&chip)).unwrap().chip;
        assert_eq!(report.num_violations() > 0, want_violations, "{flags:?}");

        let out = Command::new(env!("CARGO_BIN_EXE_audit"))
            .arg(&path)
            .args(flags)
            .arg("--csv")
            .output()
            .expect("audit runs");
        assert_eq!(String::from_utf8(out.stdout).unwrap(), report.to_csv(), "{flags:?}");
        assert_eq!(!out.status.success(), want_violations, "{flags:?}: {}", out.status);
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains("16 nets"), "{stderr}");
    }
    std::fs::remove_file(&path).ok();
}
