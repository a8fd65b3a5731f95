//! Allocation regression test of the reduced transient (`pcv_mor::simulate`).
//!
//! The kernel sizes one workspace per call and then steps without touching
//! the heap; what still allocates is the result — `times` and one sample
//! vector per port, each doubling as it grows. So the allocation count must
//! be (nearly) independent of the step count: quadrupling the steps adds two
//! doublings per vector, nothing per step.

use pcv_mor::{simulate, sympvl, MorOptions, RcCluster};
use pcv_netlist::termination::{Termination, TheveninTermination};
use pcv_netlist::SourceWave;
use pcv_obs::{mem, TrackingAlloc};

#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc::system();

const WIRES: usize = 13;

/// A 13-bit bus: parallel 12-segment RC lines, neighbours coupled segment by
/// segment, one driver port at the near end of every wire.
fn bus() -> RcCluster {
    let mut cl = RcCluster::new();
    let wires: Vec<Vec<usize>> =
        (0..WIRES).map(|_| (0..12).map(|_| cl.add_node()).collect()).collect();
    for wire in &wires {
        for seg in wire.windows(2) {
            cl.add_resistor(seg[0], seg[1], 40.0).unwrap();
        }
        for &node in wire {
            cl.add_ground_cap(node, 1.5e-15).unwrap();
        }
    }
    for pair in wires.windows(2) {
        for (&a, &b) in pair[0].iter().zip(&pair[1]) {
            cl.add_capacitor(a, b, 3e-15).unwrap();
        }
    }
    for wire in &wires {
        cl.add_port(wire[0]);
    }
    cl
}

#[test]
fn a_transient_step_does_not_allocate() {
    let rom = sympvl::reduce(&bus(), 3).unwrap().diagonalize().unwrap();
    assert_eq!(rom.num_ports(), WIRES);
    // Every port carries a driver (k = 13): odd wires switch, even ones hold.
    let drivers: Vec<TheveninTermination> = (0..WIRES)
        .map(|w| {
            let wave = if w % 2 == 1 {
                SourceWave::step(0.0, 2.5, 0.5e-9 + 0.05e-9 * w as f64, 0.2e-9)
            } else {
                SourceWave::Dc(0.0)
            };
            TheveninTermination::new(800.0, wave)
        })
        .collect();
    let terms: Vec<Option<&dyn Termination>> =
        drivers.iter().map(|d| Some(d as &dyn Termination)).collect();

    let run = |max_step_fraction: f64| {
        let opts = MorOptions { max_step_fraction, ..MorOptions::default() };
        let before = mem::thread_totals().1;
        let res = simulate(&rom, &terms, 4e-9, &opts).unwrap();
        let allocs = mem::thread_totals().1 - before;
        (allocs, res.steps as u64)
    };
    let (coarse_allocs, coarse_steps) = run(1.0 / 1000.0);
    let (fine_allocs, fine_steps) = run(1.0 / 4000.0);
    assert!(mem::active(), "the tracking allocator is installed in this binary");
    assert!(coarse_steps >= 1000 && fine_steps >= 3 * coarse_steps, "{coarse_steps}, {fine_steps}");

    for (allocs, steps) in [(coarse_allocs, coarse_steps), (fine_allocs, fine_steps)] {
        assert!(allocs < steps, "{allocs} allocations over {steps} steps: more than one a step");
    }
    // Growth of the WIRES + 1 result vectors is all that may separate the
    // two runs: two or three doublings each, whatever the step count.
    let growth = 3 * (WIRES as u64 + 1);
    assert!(
        fine_allocs <= coarse_allocs + growth,
        "{fine_steps} steps took {fine_allocs} allocations, {coarse_steps} steps took \
         {coarse_allocs}: the difference must stay within result-vector growth ({growth})"
    );
}
