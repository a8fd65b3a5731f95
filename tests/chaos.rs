//! Chaos suite: deterministic fault injection against the recovery ladder.
//!
//! The signoff contract under attack is *no cluster left unverified*: with
//! any fault [`Plan`] installed, every victim must end with a verdict —
//! recovered at a documented rung or conservatively worst-cased — and the
//! full signoff document must stay byte-identical across worker counts.
//! With no faults installed, the ladder must be invisible: zero
//! degradations and the exact bytes the golden suite pins.

mod fixtures;

use fixtures::{bundle_fixture, random_fixture};
use pcv_engine::fault::ALWAYS;
use pcv_engine::{Engine, EngineConfig, FaultKind, Plan, RecoveryRung, ResidentChip, RunRequest};
use pcv_netlist::{NetNodeRef, NetParasitics, PNetId, ParasiticDb};
use pcv_xtalk::Severity;

/// Twelve disjoint victim/aggressor pairs with slightly varied RC values.
/// Every net is two nodes, so *every* ladder rung — including the full-MNA
/// SPICE fallback — is cheap enough to drill repeatedly.
fn chaos_fixture() -> (ParasiticDb, Vec<PNetId>) {
    let mut db = ParasiticDb::new();
    let mut victims = Vec::new();
    for k in 0..12usize {
        let mk = |name: String| {
            let mut n = NetParasitics::new(name);
            let n1 = n.add_node();
            n.add_resistor(0, n1, 150.0 + 10.0 * k as f64);
            n.add_ground_cap(n1, 8e-15);
            n.mark_load(n1);
            n
        };
        let v = db.add_net(mk(format!("v{k}")));
        let a = db.add_net(mk(format!("a{k}")));
        db.add_coupling(
            NetNodeRef { net: v, node: 1 },
            NetNodeRef { net: a, node: 1 },
            (12 + k) as f64 * 2e-15,
        );
        victims.push(v);
    }
    (db, victims)
}

fn engine_with(workers: usize, plan: Plan<FaultKind>) -> Engine {
    let mut engine = Engine::new(EngineConfig { workers, ..Default::default() });
    engine.set_fault_plan(plan);
    engine
}

/// A plan exercising every fault kind at once — a Cholesky breakdown, a
/// non-finite value, a budget collapse, a persistent panic — plus a seeded
/// probabilistic sprinkle of transient NaN faults over the rest.
fn mixed_plan() -> Plan<FaultKind> {
    Plan::new()
        .at("v1", 1, FaultKind::NonSpd)
        .at("v3", 1, FaultKind::NaN)
        .at("v5", ALWAYS, FaultKind::Slow)
        .at("v7", ALWAYS, FaultKind::Panic)
        .seeded(3, 0.3, 1, FaultKind::NaN)
}

#[test]
fn every_faulted_cluster_is_verified_or_degraded_with_a_recorded_rung() {
    let (db, victims) = chaos_fixture();
    let chip = ResidentChip::fixed_resistance(db.clone(), 1000.0, victims.clone());
    let plan = mixed_plan();
    let report = engine_with(4, plan.clone()).run(RunRequest::resident(&chip)).unwrap();

    // Zero silently-missing victims: one verdict per input, full stop.
    assert_eq!(report.chip.verdicts.len(), victims.len());
    for &vic in &victims {
        assert!(
            report.chip.verdicts.iter().any(|v| v.net == vic),
            "victim {} has no verdict",
            db.net(vic).name()
        );
    }

    // Exactly the faulted clusters degraded, each with its attempt trail.
    let faulted: Vec<&str> = victims
        .iter()
        .map(|&v| db.net(v).name())
        .filter(|n| plan.armed(n, 0).count() > 0)
        .collect();
    assert!(faulted.len() > 4, "the seeded sprinkle must fault beyond the named wires");
    assert_eq!(report.degradations.len(), faulted.len());
    assert_eq!(report.stats.degraded, faulted.len());
    for d in &report.degradations {
        assert!(faulted.contains(&d.name.as_str()), "{} degraded without a fault", d.name);
        assert!(!d.attempts.is_empty(), "{} has no recorded attempts", d.name);
        assert!(d.recovered > RecoveryRung::Baseline);
        for a in &d.attempts {
            assert!(a.rung < d.recovered, "attempts precede the standing rung");
            assert!(!a.reason.is_empty(), "every attempt records a reason");
        }
    }

    // Typed routing lands each fault on its designed rung.
    let recovered = |name: &str| {
        report.degradations.iter().find(|d| d.name == name).expect("degraded").recovered
    };
    assert_eq!(recovered("v1"), RecoveryRung::GminBoost, "non-SPD routes to a gmin boost");
    assert_eq!(recovered("v3"), RecoveryRung::ReducedOrder, "NaN routes to a smaller ROM");
    assert_eq!(recovered("v5"), RecoveryRung::SpiceFallback, "budget collapse bypasses MOR");
    assert_eq!(recovered("v7"), RecoveryRung::WorstCase, "a persistent panic is worst-cased");
    // The SPICE fallback produced a real analysis, not the rail-to-rail cap.
    let spiced = report.chip.verdicts.iter().find(|v| v.name == "v5").unwrap();
    assert!(spiced.worst_frac < 1.0);

    // Only the unrecoverable cluster surfaces as an error — with a
    // conservative rail-to-rail verdict, not a hole in the report.
    assert_eq!(report.errors.len(), 1);
    assert_eq!(report.errors[0].name, "v7");
    assert_eq!(report.errors[0].stage, "spice_fallback");
    let worst = report.chip.verdicts.iter().find(|v| v.name == "v7").unwrap();
    assert_eq!(worst.worst_frac, 1.0);
    assert_eq!(worst.severity, Severity::Violation);
}

#[test]
fn signoff_document_is_byte_identical_across_worker_counts() {
    let (db, victims) = chaos_fixture();
    let chip = ResidentChip::fixed_resistance(db, 1000.0, victims);
    let baseline =
        engine_with(1, mixed_plan()).run(RunRequest::resident(&chip)).unwrap().signoff_json();
    assert!(baseline.contains("\"degradations\":[{"), "fixture must actually degrade");
    for workers in [2usize, 4, 8] {
        let report = engine_with(workers, mixed_plan()).run(RunRequest::resident(&chip)).unwrap();
        assert_eq!(report.signoff_json(), baseline, "{workers}-worker signoff diverged");
    }
}

#[test]
fn seeded_fault_storm_recovers_every_cluster_deterministically() {
    let (db, victims) = random_fixture();
    let chip = ResidentChip::fixed_resistance(db.clone(), 1000.0, victims.clone());
    let storm = || Plan::new().seeded(7, 0.6, 1, FaultKind::NonSpd);

    let report = engine_with(4, storm()).run(RunRequest::resident(&chip)).unwrap();
    let expected: usize =
        victims.iter().filter(|&&v| storm().armed(db.net(v).name(), 0).count() > 0).count();
    assert!(expected >= 2, "p=0.6 must fault several of {} victims", victims.len());
    assert_eq!(report.degradations.len(), expected);
    // Transient non-SPD faults all recover on the first retry rung.
    assert!(report.errors.is_empty());
    assert!(report.degradations.iter().all(|d| d.recovered == RecoveryRung::GminBoost));
    assert_eq!(report.chip.verdicts.len(), victims.len());

    // The same storm twice: the degradation trail replays exactly.
    let again = engine_with(2, storm()).run(RunRequest::resident(&chip)).unwrap();
    assert_eq!(again.signoff_json(), report.signoff_json());
}

#[test]
fn empty_plan_leaves_reports_untouched() {
    let (db, victims) = bundle_fixture();
    let chip = ResidentChip::fixed_resistance(db, 1000.0, victims);
    let clean = Engine::new(EngineConfig { workers: 4, ..Default::default() })
        .run(RunRequest::resident(&chip))
        .unwrap();
    // The ladder is invisible on a healthy chip: nothing degrades, and the
    // chip report bytes are exactly what the golden suite pins.
    assert!(clean.degradations.is_empty());
    assert!(clean.errors.is_empty());
    assert_eq!(clean.stats.degraded, 0);
    let signoff = clean.signoff_json();
    assert!(signoff.ends_with(",\"degradations\":[]}"));
    assert!(signoff.contains(&clean.chip.to_json()));

    let explicit_empty = engine_with(4, Plan::new()).run(RunRequest::resident(&chip)).unwrap();
    assert_eq!(explicit_empty.signoff_json(), signoff);
}
