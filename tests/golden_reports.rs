//! Golden-report regression suite: the full verification flow on three
//! fixed-seed fixtures, compared byte-for-byte against checked-in JSON.
//!
//! The reports embed every float's exact IEEE-754 bit pattern
//! ([`pcv_xtalk::ChipReport::to_json`]), so any numerical drift — an
//! accidental reassociation, a changed solver tolerance, instrumentation
//! perturbing the math — fails the suite even when the printed decimals
//! round identically. Intentional changes are re-blessed with
//! `BLESS=1 cargo test -p pcv-bench --test golden_reports`.

mod fixtures;

use fixtures::{bundle_fixture, check_golden, dsp_fixture, random_fixture};
use pcv_engine::{Engine, EngineConfig, ResidentChip, RunRequest};
use pcv_obs::json::{parse, Value};
use pcv_xtalk::ChipReport;

/// The report of a clean 1-worker engine run over `chip`.
fn audit(chip: &ResidentChip, config: EngineConfig) -> ChipReport {
    let engine = Engine::new(EngineConfig { workers: 1, ..config });
    let report = engine.run(RunRequest::resident(chip)).unwrap();
    assert!(report.errors.is_empty() && report.degradations.is_empty(), "{:?}", report.errors);
    report.chip
}

#[test]
fn golden_bundle_bus_report() {
    let (db, victims) = bundle_fixture();
    let chip = ResidentChip::fixed_resistance(db, 1000.0, victims);
    let report = audit(&chip, EngineConfig::default());
    check_golden("bundle16_bus.json", &report.to_json());
}

#[test]
fn golden_random_cluster_report() {
    let (db, victims) = random_fixture();
    let chip = ResidentChip::fixed_resistance(db, 1000.0, victims);
    let report = audit(&chip, EngineConfig::default());
    check_golden("random_seed99.json", &report.to_json());
}

#[test]
fn golden_dsp_receiver_audit_report() {
    let chip = dsp_fixture();
    // Low thresholds so receiver checks actually run on flagged victims.
    let config = EngineConfig {
        warn_frac: 0.02,
        fail_frac: 0.05,
        check_receivers: true,
        ..Default::default()
    };
    let report = audit(&chip, config);
    assert!(
        report.verdicts.iter().any(|v| v.receiver.is_some()),
        "fixture must exercise the receiver audit"
    );
    check_golden("dsp_receivers.json", &report.to_json());
}

/// How far a re-recorded glitch number may lie from the refined record,
/// relative to `max(|record|, 1 mV)`, and how far (volts) a receiver's
/// output peak may: `oracle_sweep.rs`'s bounds on `dsp_cold`.
const RECORD_BOUND: f64 = 1e-3;
const RECEIVER_BOUND: f64 = 5e-3;

/// Every number of `got` within its bound of `want`'s and every string,
/// bool and key the same, recursively; verdicts are matched by net. `_bits`
/// members are the numbers' own patterns and may move. Returns how many
/// numbers moved and the largest move against its bound.
fn assert_within_bound(got: &Value, want: &Value, at: &str) -> (usize, f64) {
    match (got, want) {
        (Value::Num(g), Value::Num(w)) => {
            let of_bound = if at.ends_with(".output_peak") {
                (g - w).abs() / RECEIVER_BOUND
            } else {
                (g - w).abs() / w.abs().max(1e-3) / RECORD_BOUND
            };
            assert!(of_bound <= 1.0, "{at}: {g} vs the record's {w} ({of_bound} of its bound)");
            (usize::from(g.to_bits() != w.to_bits()), of_bound)
        }
        (Value::Obj(g), Value::Obj(w)) => {
            assert!(g.keys().eq(w.keys()), "{at}: members differ");
            let moved = g.iter().filter(|(k, _)| !k.ends_with("_bits"));
            moved
                .map(|(k, v)| assert_within_bound(v, &w[k], &format!("{at}.{k}")))
                .fold((0, 0.0), |(n, worst), (m, dev)| (n + m, dev.max(worst)))
        }
        (Value::Arr(g), Value::Arr(w)) => {
            assert_eq!(g.len(), w.len(), "{at}: lengths differ");
            let net = |v: &Value| v.get("net").and_then(Value::as_u64);
            let mut sorted: Vec<&Value> = g.iter().collect();
            sorted.sort_by_key(|v| net(v));
            let mut record: Vec<&Value> = w.iter().collect();
            record.sort_by_key(|v| net(v));
            (sorted.iter().zip(&record).enumerate())
                .map(|(i, (g, w))| assert_within_bound(g, w, &format!("{at}[{i}]")))
                .fold((0, 0.0), |(n, worst), (m, dev)| (n + m, dev.max(worst)))
        }
        (g, w) => {
            assert_eq!(g, w, "{at}");
            (0, 0.0)
        }
    }
}

/// Every re-bless of the goldens moves numbers by design: the modal
/// solver's rounding, the Padé order by need, the DC hold, and the step
/// sized by its truncation error, which moves every peak toward the time
/// axis' limit. `tests/golden/refined/` records that limit for the same
/// three reports: each walked at `max_step_fraction` 1e-5 under the step
/// policy that sized steps by Newton iteration count, every receiver fed
/// its refined glitch in full (`oracle_sweep.rs` writes and describes it).
/// Every number of the goldens must lie within the bounds `dsp_cold`'s
/// peaks and receivers are held to, with no severity, receiver verdict,
/// cluster size or pruning count apart. (`tests/golden/newton/` keeps the
/// Newton kernel's record the goldens were held to before.)
#[test]
fn reblessed_goldens_keep_to_the_refined_record() {
    for name in ["bundle16_bus.json", "random_seed99.json", "dsp_receivers.json"] {
        let read = |dir: &std::path::Path| {
            let text = std::fs::read_to_string(dir.join(name)).expect("golden file");
            parse(&text).expect("golden JSON")
        };
        let dir = fixtures::golden_dir();
        let (moved, worst) = assert_within_bound(&read(&dir), &read(&dir.join("refined")), name);
        eprintln!("{name}: {moved} numbers moved, the largest by {worst:.3} of its bound");
    }
}
