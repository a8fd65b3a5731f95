//! A run is explainable from its counters: `spice.tran.*` and
//! `spice.asm.plan_builds` are reported once per `dc`/`transient_probed`,
//! whatever the step and iteration count. One test, so nothing else in this
//! process records into the session.

use pcv_netlist::{Circuit, MosParams, SourceWave};
use pcv_spice::{SimError, SimOptions, Simulator};
use pcv_trace::TraceSession;

#[test]
fn a_run_reports_its_counters_once() {
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let inp = ckt.node("in");
    let out = ckt.node("out");
    ckt.add_vsrc(vdd, Circuit::GROUND, SourceWave::Dc(2.5));
    ckt.add_vsrc(inp, Circuit::GROUND, SourceWave::step(0.0, 2.5, 0.5e-9, 0.02e-9));
    ckt.add_mosfet(out, inp, Circuit::GROUND, MosParams::nmos_025(2e-6));
    ckt.add_mosfet(out, inp, vdd, MosParams::pmos_025(5e-6));
    ckt.add_capacitor(out, Circuit::GROUND, 20e-15);
    let count = |trace: &pcv_trace::Trace, name: &str| trace.counters.get(name).copied();

    // A transient: one DC plan, one transient plan, however many iterations.
    let session = TraceSession::start();
    let res = Simulator::new(&ckt).transient_probed(2e-9, &SimOptions::default(), &[out]).unwrap();
    let trace = session.finish();
    assert!(res.steps > 1000 && res.newton_iters > res.steps);
    assert_eq!(count(&trace, "spice.tran.steps"), Some(res.steps as u64));
    assert_eq!(count(&trace, "spice.tran.newton_iters"), Some(res.newton_iters as u64));
    assert_eq!(count(&trace, "spice.tran.rejected_steps"), Some(0));
    assert_eq!(count(&trace, "spice.asm.plan_builds"), Some(2));
    // Every Newton iteration (the DC point's included) is one refactor and
    // one solve on the workspace.
    let factors = count(&trace, "sparse.lu.factors").unwrap();
    assert!(factors > res.newton_iters as u64, "{factors}");
    assert_eq!(count(&trace, "sparse.lu.solves"), Some(factors));

    // A DC point alone: one plan, no transient counters.
    let session = TraceSession::start();
    Simulator::new(&ckt).dc(&SimOptions::default()).unwrap();
    let trace = session.finish();
    assert_eq!(count(&trace, "spice.asm.plan_builds"), Some(1));
    assert_eq!(count(&trace, "spice.tran.steps"), None);

    // A run that dies still says what it cost: a coarse grid and a small
    // Newton budget reject the input edge until the step floor is hit.
    let opts = SimOptions {
        max_newton: 9,
        max_step_fraction: 0.1,
        min_step: 1e-11,
        ..SimOptions::default()
    };
    let session = TraceSession::start();
    let err = Simulator::new(&ckt).transient_probed(2e-9, &opts, &[out]).unwrap_err();
    let trace = session.finish();
    assert!(matches!(err, SimError::StepTooSmall { .. }), "{err}");
    assert!(count(&trace, "spice.tran.rejected_steps").unwrap() >= 1);
    assert!(count(&trace, "spice.tran.steps").unwrap() >= 1);
    assert_eq!(count(&trace, "spice.asm.plan_builds"), Some(2));
}
