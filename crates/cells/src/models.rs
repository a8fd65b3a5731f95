//! Driver models for crosstalk analysis: the paper's two cell abstractions.
//!
//! * [`LinearDriverModel`] — Section 4.1's timing-library based model: a
//!   Thevenin source (fitted drive resistance behind an idealized output
//!   ramp). Cheap, but Table 3 of the paper shows its accuracy limits.
//! * [`NonlinearDriverModel`] — Section 4.2's pre-characterized nonlinear
//!   model: the quasi-static output current surface `I(V_in(t), V_out)`
//!   plus an effective output capacitance. It captures the transient output
//!   waveform including the interconnect's resistive loading, and recovers
//!   Table 4's accuracy.
//!
//! Both implement (or produce) [`Termination`], so the same object plugs
//! into the SPICE substrate and the SyMPVL reduced integration.

use crate::charlib::{CharCell, IvSurface};
use pcv_netlist::termination::{Termination, TheveninTermination};
use pcv_netlist::SourceWave;

/// Factory for the timing-library based linear (Thevenin) driver model.
#[derive(Debug, Clone, Copy)]
pub struct LinearDriverModel;

impl LinearDriverModel {
    /// A switching driver: drive resistance from the characterized
    /// delay-vs-load slope, open-circuit voltage ramping at the *unloaded*
    /// output transition time (the RC shaping of the actual load is added
    /// by the network the model drives).
    ///
    /// `t_switch` is when the output transition starts; `in_slew` selects
    /// the table row.
    pub fn switching(
        ch: &CharCell,
        rising: bool,
        t_switch: f64,
        in_slew: f64,
        vdd: f64,
    ) -> TheveninTermination {
        let r = if rising { ch.rout_rise } else { ch.rout_fall };
        // Unloaded (minimum-load) output transition time; the table stores
        // 10–90 % slew, so scale to the full swing.
        let (_, out_slew) = ch.timing.lookup(in_slew, ch.timing.loads[0], rising);
        let ramp = out_slew / 0.8;
        let (v0, v1) = if rising { (0.0, vdd) } else { (vdd, 0.0) };
        TheveninTermination::new(r, SourceWave::step(v0, v1, t_switch, ramp))
    }

    /// A quiet (holding) driver: the victim's cell holding its output at a
    /// rail through its on-resistance.
    pub fn holding(ch: &CharCell, high: bool, vdd: f64) -> TheveninTermination {
        // Holding high means the pull-up network is on, and vice versa.
        let (r, level) = if high { (ch.rout_rise, vdd) } else { (ch.rout_fall, 0.0) };
        TheveninTermination::new(r, SourceWave::Dc(level))
    }
}

/// The pre-characterized nonlinear driver model: output current surface
/// `I(V_in(t), V_out)` plus an effective output capacitance.
///
/// Implements [`Termination`] directly, so it attaches to both engines.
#[derive(Debug, Clone)]
pub struct NonlinearDriverModel {
    iv: IvSurface,
    cout: f64,
    vin_wave: SourceWave,
}

impl NonlinearDriverModel {
    /// A switching driver: the cell input ramps between the rails starting
    /// at `t_switch` with the given input slew (10–90 %, as in timing
    /// libraries).
    ///
    /// `out_rising` names the *output* edge; the input edge direction is
    /// derived from the cell's logic polarity.
    pub fn switching(
        ch: &CharCell,
        out_rising: bool,
        t_switch: f64,
        in_slew: f64,
        vdd: f64,
    ) -> Self {
        let in_rising = if ch.kind.inverting() { !out_rising } else { out_rising };
        let (v0, v1) = if in_rising { (0.0, vdd) } else { (vdd, 0.0) };
        // Apply the characterized effective-input calibration: the imposed
        // ramp is delayed and stretched so the quasi-static surface
        // reproduces the cell's true dynamic response (vital for
        // multi-stage cells, whose internal delay the surface cannot see).
        let (delay, stretch) = ch.vin_calibration(in_slew, out_rising);
        NonlinearDriverModel {
            iv: ch.iv.clone(),
            cout: ch.cout,
            vin_wave: SourceWave::step(v0, v1, t_switch + delay, in_slew / 0.8 * stretch),
        }
    }

    /// A quiet (holding) driver: input pinned so the output holds at the
    /// given rail — the nonlinear holding model for victim nets.
    pub fn holding(ch: &CharCell, out_high: bool, vdd: f64) -> Self {
        let vin = match (ch.kind.inverting(), out_high) {
            (true, true) | (false, false) => 0.0,
            (true, false) | (false, true) => vdd,
        };
        NonlinearDriverModel { iv: ch.iv.clone(), cout: ch.cout, vin_wave: SourceWave::Dc(vin) }
    }

    /// The input waveform imposed on the model.
    pub fn vin_wave(&self) -> &SourceWave {
        &self.vin_wave
    }
}

impl Termination for NonlinearDriverModel {
    fn eval(&self, t: f64, v: f64) -> (f64, f64) {
        let vin = self.vin_wave.value_at(t);
        let (inject, d_inject) = self.iv.at(vin, v);
        // Termination current is drawn *from* the node; the cell injects
        // *into* it. The cell's output conductance -dI/dV is non-negative.
        (-inject, (-d_inject).max(0.0))
    }

    fn capacitance(&self) -> f64 {
        self.cout
    }

    fn breakpoints(&self, tstop: f64) -> Vec<f64> {
        self.vin_wave.breakpoints(tstop)
    }

    fn quiet_until(&self) -> f64 {
        self.vin_wave.starts_after()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::charlib::characterize;
    use crate::library::CellLibrary;
    use crate::VDD;
    use pcv_netlist::Circuit;
    use pcv_spice::{SimOptions, Simulator};

    fn inv4() -> CharCell {
        let lib = CellLibrary::standard_025();
        characterize(lib.cell("INVX4").unwrap()).unwrap()
    }

    #[test]
    fn linear_model_resistances_follow_direction() {
        let ch = inv4();
        let rise = LinearDriverModel::switching(&ch, true, 1e-9, 0.1e-9, VDD);
        let fall = LinearDriverModel::switching(&ch, false, 1e-9, 0.1e-9, VDD);
        assert!((rise.ohms() - ch.rout_rise).abs() < 1e-9);
        assert!((fall.ohms() - ch.rout_fall).abs() < 1e-9);
        // Open-circuit waves end at the right rails.
        assert!((rise.wave().value_at(1e-6) - VDD).abs() < 1e-12);
        assert!(fall.wave().value_at(1e-6).abs() < 1e-12);
    }

    #[test]
    fn holding_models_pin_the_rails() {
        let ch = inv4();
        let low = LinearDriverModel::holding(&ch, false, VDD);
        assert_eq!(low.wave().value_at(0.0), 0.0);
        let high = LinearDriverModel::holding(&ch, true, VDD);
        assert_eq!(high.wave().value_at(0.0), VDD);

        // Nonlinear holding at 0: near v=0 the device sinks any positive
        // excursion.
        let nl = NonlinearDriverModel::holding(&ch, false, VDD);
        let (i, g) = nl.eval(0.0, 0.3);
        assert!(i > 0.0, "drawing current to restore 0, got {i}");
        assert!(g > 0.0, "positive holding conductance");
        // And at equilibrium the current is ~0.
        let (i0, _) = nl.eval(0.0, 0.0);
        assert!(i0.abs() < 1e-6);
    }

    #[test]
    fn nonlinear_switching_tracks_logic_polarity() {
        let ch = inv4();
        // Output rising on an inverter means the input falls.
        let m = NonlinearDriverModel::switching(&ch, true, 1e-9, 0.2e-9, VDD);
        assert_eq!(m.vin_wave().value_at(0.0), VDD);
        assert_eq!(m.vin_wave().value_at(1e-6), 0.0);
        assert!(!m.breakpoints(1e-6).is_empty());
        // Quiet until the calibrated input edge starts, near 1 ns.
        let quiet = m.quiet_until();
        assert!(quiet > 0.5e-9 && quiet < 2e-9, "{quiet:e}");
        assert_eq!(m.eval(quiet, 1.0), m.eval(0.0, 1.0));
        assert_ne!(m.eval(quiet + 0.1e-9, 1.0), m.eval(0.0, 1.0));
        assert_eq!(NonlinearDriverModel::holding(&ch, true, VDD).quiet_until(), f64::INFINITY);
        assert!(m.capacitance() > 0.0);
    }

    #[test]
    fn nonlinear_model_matches_transistor_level_delay() {
        // Drive an RC line with (a) the transistor-level inverter and
        // (b) the nonlinear model; the far-end 50 % crossing must agree
        // closely (this is the Table 4 claim in miniature).
        let ch = inv4();
        let lib = CellLibrary::standard_025();
        let cell = lib.cell("INVX4").unwrap();
        let segs = 6;
        let r_seg = 80.0;
        let c_seg = 8e-15;
        let tstop = 6e-9;

        // (a) transistor level.
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let inp = ckt.node("in");
        let out = ckt.node("w0");
        ckt.add_vsrc(vdd, Circuit::GROUND, SourceWave::Dc(VDD));
        // Inverter output rises ⇒ input falls.
        ckt.add_vsrc(inp, Circuit::GROUND, SourceWave::step(VDD, 0.0, 1e-9, 0.2e-9 / 0.8));
        cell.build(&mut ckt, &[inp], out, vdd);
        let mut prev = out;
        for i in 1..segs {
            let n = ckt.node(&format!("w{i}"));
            ckt.add_resistor(prev, n, r_seg);
            ckt.add_capacitor(n, Circuit::GROUND, c_seg);
            prev = n;
        }
        ckt.add_capacitor(prev, Circuit::GROUND, 20e-15);
        let spice =
            Simulator::new(&ckt).transient_probed(tstop, &SimOptions::default(), &[prev]).unwrap();
        let t_ref = spice
            .waveform(prev)
            .crossing(0.5 * VDD, true, 0.0)
            .expect("transistor-level output rises");

        // (b) nonlinear model driving the same line.
        let mut ckt2 = Circuit::new();
        let out2 = ckt2.node("w0");
        let mut prev2 = out2;
        for i in 1..segs {
            let n = ckt2.node(&format!("w{i}"));
            ckt2.add_resistor(prev2, n, r_seg);
            ckt2.add_capacitor(n, Circuit::GROUND, c_seg);
            prev2 = n;
        }
        ckt2.add_capacitor(prev2, Circuit::GROUND, 20e-15);
        let model = NonlinearDriverModel::switching(&ch, true, 1e-9, 0.2e-9, VDD);
        let mut sim = Simulator::new(&ckt2);
        sim.add_termination(out2, &model);
        let res = sim.transient_probed(tstop, &SimOptions::default(), &[prev2]).unwrap();
        let t_model =
            res.waveform(prev2).crossing(0.5 * VDD, true, 0.0).expect("modeled output rises");

        let rel = (t_model - t_ref).abs() / t_ref;
        assert!(rel < 0.10, "nonlinear model delay {t_model} vs ref {t_ref} ({rel})");
    }

    #[test]
    fn linear_model_is_less_accurate_than_nonlinear() {
        // The Table 3 vs Table 4 story: on a low-resistance net the linear
        // model's error exceeds the nonlinear model's.
        let ch = inv4();
        let lib = CellLibrary::standard_025();
        let cell = lib.cell("INVX4").unwrap();
        let load = 60e-15;
        let tstop = 6e-9;

        // Reference: transistor level driving a lumped load.
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let inp = ckt.node("in");
        let out = ckt.node("out");
        ckt.add_vsrc(vdd, Circuit::GROUND, SourceWave::Dc(VDD));
        ckt.add_vsrc(inp, Circuit::GROUND, SourceWave::step(VDD, 0.0, 1e-9, 0.25e-9));
        cell.build(&mut ckt, &[inp], out, vdd);
        ckt.add_capacitor(out, Circuit::GROUND, load);
        let spice =
            Simulator::new(&ckt).transient_probed(tstop, &SimOptions::default(), &[out]).unwrap();
        let t_ref = spice.waveform(out).crossing(0.5 * VDD, true, 0.0).unwrap();

        let run_model = |term: &dyn Termination| -> f64 {
            let mut ckt2 = Circuit::new();
            let out2 = ckt2.node("out");
            ckt2.add_capacitor(out2, Circuit::GROUND, load);
            let mut sim = Simulator::new(&ckt2);
            sim.add_termination(out2, term);
            let res = sim.transient_probed(tstop, &SimOptions::default(), &[out2]).unwrap();
            res.waveform(out2).crossing(0.5 * VDD, true, 0.0).unwrap()
        };
        let lin = LinearDriverModel::switching(&ch, true, 1e-9, 0.2e-9, VDD);
        let nl = NonlinearDriverModel::switching(&ch, true, 1e-9, 0.2e-9, VDD);
        let err_lin = (run_model(&lin) - t_ref).abs() / t_ref;
        let err_nl = (run_model(&nl) - t_ref).abs() / t_ref;
        assert!(
            err_nl < err_lin + 0.02,
            "nonlinear ({err_nl}) should not be much worse than linear ({err_lin})"
        );
        assert!(err_nl < 0.1, "nonlinear model within 10%, got {err_nl}");
    }
}
