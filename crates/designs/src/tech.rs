//! 0.25 µm-class interconnect technology parameters.
//!
//! Values are representative of published 0.25 µm processes (aluminum
//! interconnect, oxide dielectric): thin-metal sheet resistance around
//! 70 mΩ/sq, grounded capacitance a few tens of aF/µm, and coupling to an
//! adjacent minimum-spaced wire comparable to or exceeding the grounded
//! component — the regime where, as the paper notes, coupling can exceed
//! 70 % of total capacitance.

/// Interconnect technology description.
#[derive(Debug, Clone, PartialEq)]
pub struct Technology {
    /// Metal sheet resistance (ohms per square).
    pub sheet_res: f64,
    /// Minimum wire width (meters).
    pub min_width: f64,
    /// Minimum wire spacing (meters).
    pub min_spacing: f64,
    /// Grounded (area + fringe) capacitance per length at minimum width
    /// (farads per meter).
    pub cg_per_len: f64,
    /// Coupling capacitance per length to a parallel neighbor at minimum
    /// spacing (farads per meter).
    pub cc_per_len_min_space: f64,
    /// Supply voltage (volts).
    pub vdd: f64,
}

impl Technology {
    /// A representative 0.25 µm technology.
    pub fn c025() -> Self {
        Technology {
            sheet_res: 0.07,
            min_width: 0.6e-6,
            min_spacing: 0.6e-6,
            cg_per_len: 35e-12,           // 0.035 fF/µm
            cc_per_len_min_space: 85e-12, // 0.085 fF/µm
            vdd: 2.5,
        }
    }

    /// Wire resistance of a segment (ohms).
    ///
    /// # Panics
    ///
    /// Panics on non-positive length or width.
    pub fn wire_resistance(&self, length: f64, width: f64) -> f64 {
        assert!(length > 0.0 && width > 0.0, "positive dimensions required");
        self.sheet_res * length / width
    }

    /// Grounded capacitance of a segment (farads); wider wires add area
    /// capacitance proportionally.
    ///
    /// # Panics
    ///
    /// Panics on negative length or non-positive width.
    pub fn ground_cap(&self, length: f64, width: f64) -> f64 {
        assert!(length >= 0.0 && width > 0.0, "positive dimensions required");
        self.cg_per_len * length * (0.5 + 0.5 * width / self.min_width)
    }

    /// Coupling capacitance between two parallel segments with the given
    /// overlap length and edge-to-edge spacing (farads). Falls off
    /// inversely with spacing and is cut off beyond four minimum pitches.
    ///
    /// # Panics
    ///
    /// Panics on negative overlap or non-positive spacing.
    pub fn coupling_cap(&self, overlap: f64, spacing: f64) -> f64 {
        assert!(overlap >= 0.0 && spacing > 0.0, "positive dimensions required");
        if spacing > 4.0 * (self.min_width + self.min_spacing) {
            return 0.0;
        }
        self.cc_per_len_min_space * overlap * (self.min_spacing / spacing)
    }
}

impl Default for Technology {
    fn default() -> Self {
        Technology::c025()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resistance_scales_with_geometry() {
        let t = Technology::c025();
        let r1 = t.wire_resistance(1000e-6, t.min_width);
        // ~0.117 Ω/µm at minimum width → ~117 Ω per mm.
        assert!(r1 > 80.0 && r1 < 200.0, "got {r1}");
        // Doubling width halves resistance.
        let r2 = t.wire_resistance(1000e-6, 2.0 * t.min_width);
        assert!((r1 / r2 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn capacitance_magnitudes() {
        let t = Technology::c025();
        // A 1 mm minimum-width wire: tens of fF grounded.
        let cg = t.ground_cap(1000e-6, t.min_width);
        assert!(cg > 20e-15 && cg < 60e-15, "got {cg}");
        // Coupling at min spacing exceeds grounded cap.
        let cc = t.coupling_cap(1000e-6, t.min_spacing);
        assert!(cc > cg, "coupling {cc} should exceed grounded {cg}");
    }

    #[test]
    fn coupling_falls_with_spacing_and_cuts_off() {
        let t = Technology::c025();
        let near = t.coupling_cap(100e-6, t.min_spacing);
        let far = t.coupling_cap(100e-6, 3.0 * t.min_spacing);
        assert!(far < near / 2.5);
        assert_eq!(t.coupling_cap(100e-6, 100.0 * t.min_spacing), 0.0);
    }

    #[test]
    #[should_panic(expected = "positive dimensions")]
    fn rejects_zero_length() {
        Technology::c025().wire_resistance(0.0, 1e-6);
    }

    #[test]
    fn default_is_c025() {
        assert_eq!(Technology::default(), Technology::c025());
    }
}
