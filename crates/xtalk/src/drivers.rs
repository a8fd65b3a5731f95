//! Driver-model construction for cluster members.
//!
//! Each member net needs a one-port driver abstraction. The flavors mirror
//! the paper's Section 4 comparison plus the transistor-level reference
//! used in its Figures 6–7:
//!
//! * [`DriverModelKind::FixedResistance`] — the Figure 3 setup (a uniform
//!   1 kΩ linear drive, no cell information at all);
//! * [`DriverModelKind::TimingLibrary`] — Thevenin model from the
//!   characterized delay tables (Section 4.1);
//! * [`DriverModelKind::Nonlinear`] — the pre-characterized `I(V_in, V_out)`
//!   surface (Section 4.2);
//! * transistor level — only meaningful with the SPICE engine, handled in
//!   [`crate::analysis`].

use crate::error::XtalkError;
use pcv_cells::charlib::CharCell;
use pcv_cells::models::{LinearDriverModel, NonlinearDriverModel};
use pcv_netlist::termination::{Termination, TheveninTermination};
use pcv_netlist::SourceWave;

/// Which driver abstraction to use for cluster analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DriverModelKind {
    /// A fixed linear resistance for every driver (ohms).
    FixedResistance(f64),
    /// The timing-library Thevenin model from characterization data.
    TimingLibrary,
    /// The pre-characterized nonlinear cell model.
    Nonlinear,
    /// Actual transistor-level cells (SPICE engine only).
    TransistorLevel,
}

/// What a driver is doing during the analysis window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SwitchRole {
    /// Quietly holding the net low.
    HoldLow,
    /// Quietly holding the net high.
    HoldHigh,
    /// Output rising, transition starting at the given time.
    Rise {
        /// Transition start (seconds).
        t0: f64,
    },
    /// Output falling, transition starting at the given time.
    Fall {
        /// Transition start (seconds).
        t0: f64,
    },
}

/// Build a termination for a driver.
///
/// `ch` supplies the characterized cell for the library-based models; it is
/// ignored by [`DriverModelKind::FixedResistance`].
///
/// # Errors
///
/// * [`XtalkError::InvalidConfig`] for [`DriverModelKind::TransistorLevel`]
///   (which is not a one-port termination) or when a library model is
///   requested without a characterized cell.
pub fn make_termination(
    kind: DriverModelKind,
    role: SwitchRole,
    ch: Option<&CharCell>,
    in_slew: f64,
    vdd: f64,
) -> Result<Box<dyn Termination>, XtalkError> {
    match kind {
        DriverModelKind::FixedResistance(r) => {
            let wave = match role {
                SwitchRole::HoldLow => SourceWave::Dc(0.0),
                SwitchRole::HoldHigh => SourceWave::Dc(vdd),
                SwitchRole::Rise { t0 } => SourceWave::step(0.0, vdd, t0, in_slew / 0.8),
                SwitchRole::Fall { t0 } => SourceWave::step(vdd, 0.0, t0, in_slew / 0.8),
            };
            Ok(Box::new(TheveninTermination::new(r, wave)))
        }
        DriverModelKind::TimingLibrary => {
            let ch = ch.ok_or(XtalkError::InvalidConfig {
                what: "timing-library model needs a characterized cell",
            })?;
            let t = match role {
                SwitchRole::HoldLow => LinearDriverModel::holding(ch, false, vdd),
                SwitchRole::HoldHigh => LinearDriverModel::holding(ch, true, vdd),
                SwitchRole::Rise { t0 } => LinearDriverModel::switching(ch, true, t0, in_slew, vdd),
                SwitchRole::Fall { t0 } => {
                    LinearDriverModel::switching(ch, false, t0, in_slew, vdd)
                }
            };
            Ok(Box::new(t))
        }
        DriverModelKind::Nonlinear => {
            let ch = ch.ok_or(XtalkError::InvalidConfig {
                what: "nonlinear model needs a characterized cell",
            })?;
            let t = match role {
                SwitchRole::HoldLow => NonlinearDriverModel::holding(ch, false, vdd),
                SwitchRole::HoldHigh => NonlinearDriverModel::holding(ch, true, vdd),
                SwitchRole::Rise { t0 } => {
                    NonlinearDriverModel::switching(ch, true, t0, in_slew, vdd)
                }
                SwitchRole::Fall { t0 } => {
                    NonlinearDriverModel::switching(ch, false, t0, in_slew, vdd)
                }
            };
            Ok(Box::new(t))
        }
        DriverModelKind::TransistorLevel => Err(XtalkError::InvalidConfig {
            what: "transistor-level drivers are not one-port terminations",
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_resistance_roles() {
        let hold = make_termination(
            DriverModelKind::FixedResistance(1000.0),
            SwitchRole::HoldLow,
            None,
            0.2e-9,
            2.5,
        )
        .unwrap();
        // Holding low: at v = 1, current flows into the driver.
        let (i, g) = hold.eval(0.0, 1.0);
        assert!((i - 1e-3).abs() < 1e-12);
        assert!((g - 1e-3).abs() < 1e-12);

        let rise = make_termination(
            DriverModelKind::FixedResistance(500.0),
            SwitchRole::Rise { t0: 1e-9 },
            None,
            0.2e-9,
            2.5,
        )
        .unwrap();
        // Long after the edge the open-circuit source sits at vdd.
        let (i, _) = rise.eval(1e-6, 2.5);
        assert!(i.abs() < 1e-12);
        assert!(!rise.breakpoints(1e-6).is_empty());
    }

    #[test]
    fn library_models_require_char_cell() {
        for kind in [DriverModelKind::TimingLibrary, DriverModelKind::Nonlinear] {
            let err = make_termination(kind, SwitchRole::HoldLow, None, 0.2e-9, 2.5);
            assert!(matches!(err, Err(XtalkError::InvalidConfig { .. })));
        }
    }

    #[test]
    fn transistor_level_is_not_a_termination() {
        let err = make_termination(
            DriverModelKind::TransistorLevel,
            SwitchRole::HoldLow,
            None,
            0.2e-9,
            2.5,
        );
        assert!(matches!(err, Err(XtalkError::InvalidConfig { .. })));
    }
}
