//! Receiver glitch-propagation analysis — the paper's stated *future work*
//! ("extending it to transistor-level crosstalk analysis for higher
//! accuracy"), implemented for the receiver side.
//!
//! A glitch at a latch input is only dangerous if the receiving gate
//! actually passes it on with enough amplitude to flip state. This module
//! takes the victim-receiver waveform computed by the cluster analysis,
//! replays it into the *transistor-level* receiving cell, and measures how
//! much of the glitch survives at the cell output — a noise-immunity check
//! that separates loud-but-harmless victims from real functional hazards.

use crate::error::XtalkError;
use pcv_cells::library::Cell;
use pcv_netlist::{Circuit, SourceWave, Waveform};
use pcv_spice::{SimOptions, Simulator};

/// Result of replaying a glitch into a transistor-level receiver.
#[derive(Debug, Clone)]
pub struct ReceiverCheck {
    /// Peak input deviation from the quiet level (volts, signed).
    pub input_peak: f64,
    /// Peak output deviation from the receiver's quiet output (volts,
    /// signed).
    pub output_peak: f64,
    /// `|output_peak| / |input_peak|` — above 1 the receiver *amplifies*
    /// the glitch (the dangerous regime near its switching threshold).
    pub amplification: f64,
    /// `true` when the output deviation exceeds the failure threshold.
    pub propagates: bool,
    /// Output waveform for inspection.
    pub output: Waveform,
}

/// Replay a victim waveform into a receiver cell and measure propagation.
///
/// * `glitch` — the victim-receiver waveform from
///   [`crate::analysis::GlitchResult`].
/// * `quiet_level` — the victim's quiet voltage (0 for a rising glitch,
///   `vdd` for a falling one).
/// * `threshold_frac` — output deviation (as a fraction of `vdd`) above
///   which the glitch is declared to propagate.
///
/// # Errors
///
/// Propagates simulation failures and rejects waveforms that are empty or
/// span no time.
pub fn check_receiver_propagation(
    cell: &Cell,
    glitch: &Waveform,
    quiet_level: f64,
    vdd: f64,
    threshold_frac: f64,
) -> Result<ReceiverCheck, XtalkError> {
    let _span = pcv_trace::span("xtalk", "receiver_check");
    if glitch.is_empty() {
        return Err(XtalkError::Measurement { what: "empty victim waveform" });
    }
    let t_end = *glitch.times().last().expect("non-empty waveform");
    if t_end.is_nan() || t_end <= 0.0 {
        return Err(XtalkError::Measurement { what: "victim waveform spans no time" });
    }
    // Use the waveform's own samples when they are few; resample a long
    // recording onto a uniform grid of `POINTS`, which bounds the MNA
    // breakpoint list but flattens an apex that falls between two grid
    // points (by 2.5 mV on `dsp_cold`'s `bus2_12` against a time-refined
    // reference, `tests/oracle_sweep.rs`). A flat lead-in counts as the grid
    // points it spans, not as the two samples a walk that held its DC point
    // up to the first edge records there: a held glitch is resampled as the
    // stepped recording it replaces was.
    const POINTS: usize = 400;
    let first = glitch.values()[0].to_bits();
    let lead = glitch.values().iter().take_while(|v| v.to_bits() == first).count();
    let lead_points = (glitch.times()[lead - 1] / t_end * (POINTS - 1) as f64) as usize;
    let pwl: Vec<(f64, f64)> = if glitch.len() + lead_points <= POINTS {
        glitch.times().iter().copied().zip(glitch.values().iter().copied()).collect()
    } else {
        (0..POINTS)
            .map(|k| {
                let t = t_end * k as f64 / (POINTS - 1) as f64;
                (t, glitch.value_at(t))
            })
            .collect()
    };

    let output = receiver_response(cell, pwl, vdd, t_end, &SimOptions::default())?;

    // The receiver's quiet output level given the quiet input level.
    let inverting = cell.kind.inverting();
    let input_high = quiet_level > 0.5 * vdd;
    let out_quiet = if inverting == input_high { 0.0 } else { vdd };
    let (_, input_peak) = glitch.peak_deviation(quiet_level);
    let (_, output_peak) = output.peak_deviation(out_quiet);
    let amplification = output_peak.abs() / input_peak.abs().max(1e-12);
    Ok(ReceiverCheck {
        input_peak,
        output_peak,
        amplification,
        propagates: output_peak.abs() >= threshold_frac * vdd,
        output,
    })
}

/// The receiver testbench of [`check_receiver_propagation`]: `cell`, every
/// input tied to the PWL source `pwl`, supplied from `vdd` and loaded by its
/// own input capacitance, simulated to `t_end` under `sim`. Returns the
/// output waveform.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn receiver_response(
    cell: &Cell,
    pwl: Vec<(f64, f64)>,
    vdd: f64,
    t_end: f64,
    sim: &SimOptions,
) -> Result<Waveform, XtalkError> {
    let mut ckt = Circuit::new();
    let vdd_node = ckt.node("vdd");
    let inp = ckt.node("in");
    let out = ckt.node("out");
    ckt.add_vsrc(vdd_node, Circuit::GROUND, SourceWave::Dc(vdd));
    ckt.add_vsrc(inp, Circuit::GROUND, SourceWave::Pwl(pwl));
    let inputs = vec![inp; cell.kind.num_inputs()];
    cell.build(&mut ckt, &inputs, out, vdd_node);
    // Fanout-of-one-ish load.
    ckt.add_capacitor(out, Circuit::GROUND, cell.input_cap().max(1e-15));
    let res = Simulator::new(&ckt).transient_probed(t_end, sim, &[out])?;
    Ok(res.into_waveform(out))
}

/// One point of a noise-immunity curve: the smallest glitch amplitude that
/// propagates through the receiver at a given pulse width.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImmunityPoint {
    /// Glitch full width at half maximum (seconds).
    pub width: f64,
    /// Critical amplitude (volts): glitches below this are absorbed.
    pub critical_amplitude: f64,
}

/// Compute a receiver's noise-immunity curve: for each pulse width, bisect
/// on triangular-glitch amplitude for the threshold at which the output
/// deviation reaches `threshold_frac * vdd`.
///
/// The classic result — and the reason the paper's timing windows matter —
/// is that narrow glitches need far more amplitude to propagate than wide
/// ones, converging to the DC switching threshold as the width grows.
///
/// # Errors
///
/// Propagates simulation failures.
///
/// # Panics
///
/// Panics on an empty width list or non-positive widths.
pub fn noise_immunity_curve(
    cell: &Cell,
    widths: &[f64],
    quiet_level: f64,
    vdd: f64,
    threshold_frac: f64,
) -> Result<Vec<ImmunityPoint>, XtalkError> {
    assert!(!widths.is_empty(), "need at least one width");
    let mut curve = Vec::with_capacity(widths.len());
    for &width in widths {
        assert!(width > 0.0, "widths must be positive");
        // Triangular glitch centered in a window 4x its width.
        let make = |amp: f64| -> Waveform {
            let t0 = width;
            let sign = if quiet_level > 0.5 * vdd { -1.0 } else { 1.0 };
            Waveform::from_samples(
                vec![0.0, t0, t0 + width, t0 + 2.0 * width, t0 + 3.0 * width],
                vec![quiet_level, quiet_level, quiet_level + sign * amp, quiet_level, quiet_level],
            )
        };
        // Bisection on amplitude.
        let (mut lo, mut hi) = (0.0f64, vdd);
        let propagates = |amp: f64| -> Result<bool, XtalkError> {
            let check =
                check_receiver_propagation(cell, &make(amp), quiet_level, vdd, threshold_frac)?;
            Ok(check.propagates)
        };
        if !propagates(vdd)? {
            // Even a rail glitch of this width is absorbed.
            curve.push(ImmunityPoint { width, critical_amplitude: f64::INFINITY });
            continue;
        }
        for _ in 0..10 {
            let mid = 0.5 * (lo + hi);
            if propagates(mid)? {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        curve.push(ImmunityPoint { width, critical_amplitude: 0.5 * (lo + hi) });
    }
    Ok(curve)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcv_cells::library::CellLibrary;

    const VDD: f64 = 2.5;

    /// A triangular glitch waveform rising from 0 to `peak` and back.
    fn glitch(peak: f64) -> Waveform {
        Waveform::from_samples(vec![0.0, 1e-9, 1.5e-9, 2e-9, 5e-9], vec![0.0, 0.0, peak, 0.0, 0.0])
    }

    #[test]
    fn small_glitch_is_absorbed() {
        let lib = CellLibrary::standard_025();
        let inv = lib.cell("INVX4").unwrap();
        let check = check_receiver_propagation(inv, &glitch(0.3), 0.0, VDD, 0.2).unwrap();
        assert!(!check.propagates, "0.3 V into a 2.5 V inverter is absorbed");
        assert!(check.output_peak.abs() < 0.5, "{}", check.output_peak);
        assert!((check.input_peak - 0.3).abs() < 1e-9);
    }

    #[test]
    fn rail_to_rail_glitch_propagates() {
        let lib = CellLibrary::standard_025();
        let inv = lib.cell("INVX4").unwrap();
        let check = check_receiver_propagation(inv, &glitch(2.4), 0.0, VDD, 0.2).unwrap();
        assert!(check.propagates, "a near-rail glitch must flip the output");
        // Inverter output starts high (input quiet low) and collapses.
        assert!(check.output_peak < -1.0, "{}", check.output_peak);
        assert!(check.amplification > 0.5);
    }

    #[test]
    fn threshold_region_amplifies() {
        // A glitch reaching past the inverter threshold is amplified.
        let lib = CellLibrary::standard_025();
        let inv = lib.cell("INVX8").unwrap();
        let near = check_receiver_propagation(inv, &glitch(1.6), 0.0, VDD, 0.5).unwrap();
        let far = check_receiver_propagation(inv, &glitch(0.4), 0.0, VDD, 0.5).unwrap();
        assert!(
            near.amplification > 2.0 * far.amplification,
            "near-threshold {} vs sub-threshold {}",
            near.amplification,
            far.amplification
        );
    }

    #[test]
    fn falling_glitch_on_high_victim() {
        let lib = CellLibrary::standard_025();
        let inv = lib.cell("INVX4").unwrap();
        // Victim quiet high, glitch dips toward ground.
        let w = Waveform::from_samples(
            vec![0.0, 1e-9, 1.5e-9, 2e-9, 5e-9],
            vec![VDD, VDD, VDD - 2.2, VDD, VDD],
        );
        let check = check_receiver_propagation(inv, &w, VDD, VDD, 0.2).unwrap();
        // Inverter output quiet low; the dip drives it up.
        assert!(check.output_peak > 0.5, "{}", check.output_peak);
        assert!(check.propagates);
    }

    #[test]
    fn buffer_polarity_is_handled() {
        let lib = CellLibrary::standard_025();
        let buf = lib.cell("BUFX4").unwrap();
        let check = check_receiver_propagation(buf, &glitch(2.3), 0.0, VDD, 0.2).unwrap();
        // Non-inverting: quiet output low, glitch pushes it up.
        assert!(check.output_peak > 0.5, "{}", check.output_peak);
    }

    #[test]
    fn immunity_curve_is_monotone_in_width() {
        // Wider glitches propagate at lower amplitude; the curve decreases
        // toward the DC threshold.
        let lib = CellLibrary::standard_025();
        let inv = lib.cell("INVX4").unwrap();
        let widths = [0.05e-9, 0.2e-9, 1.0e-9];
        let curve = noise_immunity_curve(inv, &widths, 0.0, VDD, 0.4).unwrap();
        assert_eq!(curve.len(), 3);
        for w in curve.windows(2) {
            assert!(
                w[1].critical_amplitude <= w[0].critical_amplitude + 0.05,
                "wider needs no more amplitude: {curve:?}"
            );
        }
        // Wide-glitch limit approaches the DC switching threshold (mid-rail
        // ballpark for a balanced inverter).
        let wide = curve.last().unwrap().critical_amplitude;
        assert!(wide > 0.6 && wide < 1.9, "plausible dc threshold: {wide}");
        // Narrow glitches need substantially more.
        assert!(curve[0].critical_amplitude > wide + 0.2, "{curve:?}");
    }

    #[test]
    fn empty_waveform_rejected() {
        let lib = CellLibrary::standard_025();
        let inv = lib.cell("INVX1").unwrap();
        let err = check_receiver_propagation(inv, &Waveform::new(), 0.0, VDD, 0.2);
        assert!(matches!(err, Err(XtalkError::Measurement { .. })));
    }

    #[test]
    fn waveform_spanning_no_time_is_rejected_not_a_panic() {
        let lib = CellLibrary::standard_025();
        let inv = lib.cell("INVX1").unwrap();
        let one_sample = Waveform::from_samples(vec![0.0], vec![0.3]);
        let err = check_receiver_propagation(inv, &one_sample, 0.0, VDD, 0.2).unwrap_err();
        assert!(
            matches!(err, XtalkError::Measurement { what: "victim waveform spans no time" }),
            "{err}"
        );
    }
}
