//! Allocation regression tests of the two transient kernels: the reduced
//! transient (`pcv_mor::simulate`) and the receiver SPICE run
//! (`pcv_xtalk::check_receiver_propagation` on `pcv_spice`).
//!
//! Each kernel sizes one workspace per call and then steps without touching
//! the heap; what still allocates is the result — `times` and one sample
//! vector per port or probe, each doubling as it grows. So the allocation
//! count must be (nearly) independent of the step count: quadrupling the
//! steps adds two doublings per vector, nothing per step.

use pcv_cells::library::CellLibrary;
use pcv_mor::{simulate, sympvl, MorOptions, RcCluster};
use pcv_netlist::termination::{Termination, TheveninTermination};
use pcv_netlist::{Circuit, SourceWave, Waveform};
use pcv_obs::{mem, TrackingAlloc};
use pcv_spice::{SimOptions, Simulator};
use pcv_xtalk::check_receiver_propagation;

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
    // Every port carries a driver (k = 13): odd wires switch, even ones hold
    // but the first, which ramps slowly past `tstop`: a source still moving
    // keeps the walk from settling, so every step up to `tstop` is taken.
    let drivers: Vec<TheveninTermination> = (0..WIRES)
        .map(|w| {
            let wave = if w % 2 == 1 {
                SourceWave::step(0.0, 2.5, 0.5e-9 + 0.05e-9 * w as f64, 0.2e-9)
            } else if w == 0 {
                SourceWave::step(0.0, 0.1, 0.0, 8e-9)
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

/// A victim glitch of `samples` points over 4 ns: quiet, a 0.9 V bump
/// centred at 2 ns, quiet again, with a 50 mV ripple on every other sample,
/// so that every sample is a corner of the receiver's input.
fn glitch(samples: usize) -> Waveform {
    let times: Vec<f64> = (0..samples).map(|k| 4e-9 * k as f64 / (samples - 1) as f64).collect();
    let bump = |t: f64| 0.9 * (-((t - 2e-9) / 0.4e-9).powi(2)).exp();
    let values = times.iter().enumerate().map(|(k, &t)| bump(t) + 0.05 * (k % 2) as f64).collect();
    Waveform::from_samples(times, values)
}

#[test]
fn a_receiver_check_allocates_nothing_per_step_or_newton_iteration() {
    let lib = CellLibrary::standard_025();
    let cell = lib.cell("NAND2X2").unwrap();
    let (long, short) = (glitch(400), glitch(5));

    // The long glitch's testbench, as `check_receiver_propagation` builds
    // it, straight through the simulator: how many steps and Newton
    // iterations the allocation counts below have to be independent of.
    let run = |glitch: &Waveform| {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let inp = ckt.node("in");
        let out = ckt.node("out");
        ckt.add_vsrc(vdd, Circuit::GROUND, SourceWave::Dc(2.5));
        let pwl = glitch.times().iter().copied().zip(glitch.values().iter().copied()).collect();
        ckt.add_vsrc(inp, Circuit::GROUND, SourceWave::Pwl(pwl));
        cell.build(&mut ckt, &[inp, inp], out, vdd);
        ckt.add_capacitor(out, Circuit::GROUND, cell.input_cap().max(1e-15));
        let res = Simulator::new(&ckt).transient_probed(4e-9, &SimOptions::default(), &[out]);
        let res = res.unwrap();
        (res.steps as u64, res.newton_iters as u64)
    };
    let (long_steps, long_iters) = run(&long);
    let (short_steps, _) = run(&short);
    assert!(long_steps >= 2000 && short_steps < long_steps / 2, "{long_steps}, {short_steps}");

    let allocs = |glitch: &Waveform| {
        let before = mem::thread_totals().1;
        let check = check_receiver_propagation(cell, glitch, 0.0, 2.5, 0.2).unwrap();
        let allocs = mem::thread_totals().1 - before;
        let steps = if glitch.len() == 400 { long_steps } else { short_steps };
        assert_eq!(check.output.len() as u64, steps + 1, "the same run as above");
        allocs
    };
    let (long_allocs, short_allocs) = (allocs(&long), allocs(&short));
    assert!(mem::active(), "the tracking allocator is installed in this binary");
    assert!(
        10 * long_allocs < long_iters,
        "{long_allocs} allocations over {long_iters} Newton iterations: more than one in ten"
    );
    // What may separate the two: a longer PWL and breakpoint list (the same
    // number of vectors, each larger) and the doublings of `times` and of
    // the one probe's samples that the longer run's extra steps take, one
    // more each for where the shorter run's capacity happened to stand.
    let doublings = (long_steps as f64 / short_steps as f64).log2().ceil() as u64;
    let growth = 2 * (doublings + 1) + 4;
    assert!(
        long_allocs <= short_allocs + growth,
        "{long_steps} steps took {long_allocs} allocations, {short_steps} steps took \
         {short_allocs}: the difference must stay within PWL and result-vector growth ({growth})"
    );
}
