//! Nonlinear one-port terminations.
//!
//! The SyMPVL methodology attaches a *nonlinear driver model* `i_x(v_x)` to
//! the reduced linear interconnect; the SPICE substrate stamps the same
//! models directly into MNA. This trait is the shared contract: a device
//! hanging off one node, characterized by the current it draws as a function
//! of the node voltage and time.

use crate::wave::SourceWave;
use std::fmt;

/// A nonlinear (or linear) one-port device attached to a single node.
///
/// Implementations include the Thevenin (linear-resistor) driver model and
/// the pre-characterized nonlinear cell model from `pcv-cells`.
pub trait Termination: fmt::Debug {
    /// Current drawn *from* the node *into* the device at time `t` when the
    /// node voltage is `v`, together with its derivative `di/dv`.
    ///
    /// A positive current discharges the node.
    fn eval(&self, t: f64, v: f64) -> (f64, f64);

    /// Effective linear capacitance the device adds at the node (farads).
    fn capacitance(&self) -> f64 {
        0.0
    }

    /// Hint for transient breakpoint placement: times up to `tstop` at
    /// which the device's internal stimulus has corners.
    fn breakpoints(&self, _tstop: f64) -> Vec<f64> {
        Vec::new()
    }

    /// A time `T` up to which the device draws what it draws at `t = 0`,
    /// `eval(t, v) == eval(0, v)` for every `t` in `[0, T]` and `v`: the DC
    /// operating point is then an equilibrium of the device up to `T`, and a
    /// transient may hold it there ([`crate::timestep::Stepper::hold`]).
    /// `0`, the default, claims nothing.
    fn quiet_until(&self) -> f64 {
        0.0
    }

    /// `Some((g, e))` when the device is linear: it draws `i = g·(v − e(t))`
    /// (which is what [`Termination::eval`] returns) plus the current of its
    /// [`Termination::capacitance`]. A transient may then fold the device
    /// into the interconnect instead of iterating on it. `None`, the
    /// default, for anything else.
    fn linear(&self) -> Option<(f64, &SourceWave)> {
        None
    }
}

/// The source of a device that holds its node at ground.
static GROUND: SourceWave = SourceWave::Dc(0.0);

/// A grounded linear resistor as a termination: `i = v / ohms`.
#[derive(Debug, Clone)]
pub struct ResistiveTermination {
    ohms: f64,
}

impl ResistiveTermination {
    /// Create a resistive termination.
    ///
    /// # Panics
    ///
    /// Panics unless `ohms` is positive and finite.
    pub fn new(ohms: f64) -> Self {
        assert!(ohms > 0.0 && ohms.is_finite(), "resistance must be positive");
        ResistiveTermination { ohms }
    }

    /// The resistance in ohms.
    pub fn ohms(&self) -> f64 {
        self.ohms
    }
}

impl Termination for ResistiveTermination {
    fn eval(&self, _t: f64, v: f64) -> (f64, f64) {
        (v / self.ohms, 1.0 / self.ohms)
    }

    fn quiet_until(&self) -> f64 {
        f64::INFINITY
    }

    fn linear(&self) -> Option<(f64, &SourceWave)> {
        Some((1.0 / self.ohms, &GROUND))
    }
}

/// A Thevenin driver: voltage source `e(t)` behind a series resistance, as a
/// termination: `i = (v - e(t)) / ohms`.
///
/// This is the *timing-library based linear driver model* of the paper
/// (Section 4.1): the source waveform comes from the library's slew data and
/// the resistance from its delay-vs-load characterization.
#[derive(Debug, Clone)]
pub struct TheveninTermination {
    ohms: f64,
    wave: SourceWave,
}

impl TheveninTermination {
    /// Create a Thevenin termination from a series resistance and an
    /// open-circuit voltage waveform.
    ///
    /// # Panics
    ///
    /// Panics unless `ohms` is positive and finite.
    pub fn new(ohms: f64, wave: SourceWave) -> Self {
        assert!(ohms > 0.0 && ohms.is_finite(), "resistance must be positive");
        TheveninTermination { ohms, wave }
    }

    /// The series resistance in ohms.
    pub fn ohms(&self) -> f64 {
        self.ohms
    }

    /// The open-circuit voltage waveform.
    pub fn wave(&self) -> &SourceWave {
        &self.wave
    }
}

impl Termination for TheveninTermination {
    fn eval(&self, t: f64, v: f64) -> (f64, f64) {
        ((v - self.wave.value_at(t)) / self.ohms, 1.0 / self.ohms)
    }

    fn breakpoints(&self, tstop: f64) -> Vec<f64> {
        self.wave.breakpoints(tstop)
    }

    fn quiet_until(&self) -> f64 {
        self.wave.starts_after()
    }

    fn linear(&self) -> Option<(f64, &SourceWave)> {
        Some((1.0 / self.ohms, &self.wave))
    }
}

/// A pure capacitive load (e.g. a receiver input pin).
#[derive(Debug, Clone)]
pub struct CapacitiveTermination {
    farads: f64,
}

impl CapacitiveTermination {
    /// Create a capacitive termination.
    ///
    /// # Panics
    ///
    /// Panics if `farads` is negative or not finite.
    pub fn new(farads: f64) -> Self {
        assert!(farads >= 0.0 && farads.is_finite(), "capacitance must be non-negative");
        CapacitiveTermination { farads }
    }
}

impl Termination for CapacitiveTermination {
    fn eval(&self, _t: f64, _v: f64) -> (f64, f64) {
        (0.0, 0.0)
    }

    fn capacitance(&self) -> f64 {
        self.farads
    }

    fn quiet_until(&self) -> f64 {
        f64::INFINITY
    }

    fn linear(&self) -> Option<(f64, &SourceWave)> {
        Some((0.0, &GROUND))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wave::SourceWave;

    #[test]
    fn resistive_termination_is_ohmic() {
        let r = ResistiveTermination::new(1000.0);
        let (i, g) = r.eval(0.0, 2.0);
        assert!((i - 0.002).abs() < 1e-15);
        assert!((g - 0.001).abs() < 1e-15);
        assert_eq!(r.capacitance(), 0.0);
        assert_eq!(r.ohms(), 1000.0);
    }

    #[test]
    fn thevenin_tracks_source() {
        let t = TheveninTermination::new(500.0, SourceWave::step(0.0, 2.5, 1e-9, 1e-10));
        // Before the edge: e = 0, so i = v/R.
        let (i0, g0) = t.eval(0.0, 1.0);
        assert!((i0 - 0.002).abs() < 1e-12);
        assert!((g0 - 0.002).abs() < 1e-12);
        // Long after the edge: e = 2.5.
        let (i1, _) = t.eval(1e-6, 2.5);
        assert!(i1.abs() < 1e-12);
        assert!(!t.breakpoints(1e-6).is_empty());
    }

    #[test]
    fn capacitive_termination_draws_no_dc_current() {
        let c = CapacitiveTermination::new(5e-15);
        assert_eq!(c.eval(0.0, 3.0), (0.0, 0.0));
        assert_eq!(c.capacitance(), 5e-15);
    }

    #[test]
    fn linear_devices_report_the_line_they_evaluate() {
        let wave = SourceWave::step(0.0, 2.5, 1e-9, 1e-10);
        let devices: [&dyn Termination; 3] = [
            &ResistiveTermination::new(750.0),
            &TheveninTermination::new(500.0, wave),
            &CapacitiveTermination::new(5e-15),
        ];
        for dev in devices {
            let (g, e) = dev.linear().expect("a linear device");
            let quiet = dev.quiet_until().min(1e-6);
            for t in [0.0, 0.5 * quiet, quiet] {
                assert_eq!(dev.eval(t, 0.7), dev.eval(0.0, 0.7), "{dev:?} is quiet at {t}");
            }
            for (t, v) in [(0.0, 1.0), (1.05e-9, -0.3), (1e-6, 2.5)] {
                let (i, di) = dev.eval(t, v);
                assert_eq!(di, g, "{dev:?}");
                assert!((i - g * (v - e.value_at(t))).abs() <= 1e-15 * i.abs(), "{dev:?} at {t}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn resistive_rejects_zero() {
        ResistiveTermination::new(0.0);
    }
}
