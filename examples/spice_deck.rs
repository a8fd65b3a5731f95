//! Standalone SPICE-style usage: parse a circuit deck, run a transient
//! analysis, and print waveform measurements — the `pcv-spice` substrate as
//! a general-purpose simulator.
//!
//! Run with: `cargo run --release -p pcv-bench --example spice_deck`

use pcv_netlist::deck::parse_deck;
use pcv_spice::{SimOptions, Simulator};

/// The deck, shared with `pcv-netlist`'s deck fuzzer as a seed.
const DECK: &str = include_str!("spice_deck.sp");

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ckt = parse_deck(DECK)?;
    let (r, c, v, i, m) = ckt.element_counts();
    println!("parsed deck: {r} R, {c} C, {v} V, {i} I, {m} MOS");

    let sim = Simulator::new(&ckt);
    let result = sim.transient(8e-9, &SimOptions::default())?;

    let drv = ckt.find_node("drv").expect("driver node");
    let far = ckt.find_node("a3").expect("wire end");
    let vic = ckt.find_node("vic").expect("victim node");

    let w_drv = result.waveform(drv);
    let w_far = result.waveform(far);
    let w_vic = result.waveform(vic);

    // The inverter *output* falls when the input pulse rises.
    let t_fall = w_drv.crossing(1.25, false, 0.0).ok_or("driver never fell")?;
    println!("driver 50% fall at {:.3} ns", t_fall * 1e9);
    if let Some(t_far) = w_far.crossing(1.25, false, 0.0) {
        println!(
            "wire-end 50% fall at {:.3} ns (interconnect delay {:.1} ps)",
            t_far * 1e9,
            (t_far - t_fall) * 1e12
        );
    }
    let (t_peak, peak) = w_vic.peak_deviation(0.0);
    println!(
        "victim glitch: {:.3} V at {:.3} ns ({:.1}% of Vdd)",
        peak,
        t_peak * 1e9,
        100.0 * peak.abs() / 2.5
    );
    println!("simulated {} timesteps, {} Newton iterations", result.steps, result.newton_iters);
    Ok(())
}
