//! The 0.25 µm cell library: cell definitions and their transistor-level
//! netlists.
//!
//! Drive strengths follow the usual `X<n>` convention: an `X4` device uses
//! 4× the unit transistor widths. The PMOS/NMOS width ratio is 2.5 to
//! roughly balance rise and fall strength at this technology's mobility
//! ratio.

use pcv_netlist::{Circuit, MosParams, NodeId};
use std::collections::BTreeMap;

/// Unit NMOS width (meters) for an X1 cell.
pub const UNIT_WN: f64 = 0.6e-6;
/// PMOS/NMOS width ratio.
pub const PN_RATIO: f64 = 2.5;

/// Logical function of a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellKind {
    /// Single-stage inverter.
    Inverter,
    /// Two-stage (non-inverting) buffer.
    Buffer,
    /// Two-input NAND.
    Nand2,
    /// Two-input NOR.
    Nor2,
    /// Tri-state buffer (electrically a buffer when enabled; the tri-state
    /// property matters to the bus analysis rules, not to the device
    /// physics).
    TristateBuffer,
    /// Transparent latch data pin (used as a pure receiver in the DSP
    /// design; never a driver).
    Latch,
}

impl CellKind {
    /// Number of logic inputs.
    pub fn num_inputs(self) -> usize {
        match self {
            CellKind::Nand2 | CellKind::Nor2 => 2,
            _ => 1,
        }
    }

    /// Whether the output logically inverts the (first) input.
    pub fn inverting(self) -> bool {
        matches!(self, CellKind::Inverter | CellKind::Nand2 | CellKind::Nor2)
    }

    /// Whether instances of this kind drive buses tri-state.
    pub fn tristate(self) -> bool {
        matches!(self, CellKind::TristateBuffer)
    }
}

/// A library cell: a kind plus a drive strength.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Cell name, e.g. `"INVX4"`.
    pub name: String,
    /// Logical function.
    pub kind: CellKind,
    /// Drive strength multiplier (the `X` number).
    pub strength: f64,
}

impl Cell {
    /// Unit NMOS/PMOS widths scaled by this cell's strength.
    pub fn widths(&self) -> (f64, f64) {
        (UNIT_WN * self.strength, UNIT_WN * PN_RATIO * self.strength)
    }

    /// Input pin capacitance (farads), computed from the gate areas of the
    /// transistors the pin drives.
    pub fn input_cap(&self) -> f64 {
        let (wn, wp) = self.widths();
        let stage1_scale = match self.kind {
            // Buffers present a smaller first stage to the net.
            CellKind::Buffer | CellKind::TristateBuffer => 0.25,
            // A latch data pin looks like a small transmission gate + inverter.
            CellKind::Latch => 0.35,
            _ => 1.0,
        };
        let n = MosParams::nmos_025(wn * stage1_scale);
        let p = MosParams::pmos_025(wp * stage1_scale);
        n.gate_cap() + p.gate_cap()
    }

    /// Build the transistor-level netlist of this cell inside `ckt`.
    ///
    /// `inputs` must have [`CellKind::num_inputs`] entries; `vdd` is the
    /// supply node. Internal nodes get fresh names. For characterization and
    /// crosstalk analysis the tri-state buffer is built enabled.
    ///
    /// # Panics
    ///
    /// Panics if the input count is wrong or the kind is [`CellKind::Latch`]
    /// (latches are receivers, not drivers).
    pub fn build(&self, ckt: &mut Circuit, inputs: &[NodeId], output: NodeId, vdd: NodeId) {
        assert_eq!(inputs.len(), self.kind.num_inputs(), "input count mismatch");
        let (wn, wp) = self.widths();
        let gnd = Circuit::GROUND;
        match self.kind {
            CellKind::Inverter => {
                ckt.add_mosfet(output, inputs[0], gnd, MosParams::nmos_025(wn));
                ckt.add_mosfet(output, inputs[0], vdd, MosParams::pmos_025(wp));
            }
            CellKind::Buffer | CellKind::TristateBuffer => {
                let mid = ckt.fresh_node("buf_mid");
                // First stage at quarter strength, second at full strength.
                ckt.add_mosfet(mid, inputs[0], gnd, MosParams::nmos_025(wn * 0.25));
                ckt.add_mosfet(mid, inputs[0], vdd, MosParams::pmos_025(wp * 0.25));
                ckt.add_mosfet(output, mid, gnd, MosParams::nmos_025(wn));
                ckt.add_mosfet(output, mid, vdd, MosParams::pmos_025(wp));
            }
            CellKind::Nand2 => {
                // Series NMOS (each 2x to compensate stacking), parallel PMOS.
                let mid = ckt.fresh_node("nand_mid");
                ckt.add_mosfet(output, inputs[0], mid, MosParams::nmos_025(2.0 * wn));
                ckt.add_mosfet(mid, inputs[1], gnd, MosParams::nmos_025(2.0 * wn));
                ckt.add_mosfet(output, inputs[0], vdd, MosParams::pmos_025(wp));
                ckt.add_mosfet(output, inputs[1], vdd, MosParams::pmos_025(wp));
            }
            CellKind::Nor2 => {
                // Parallel NMOS, series PMOS (each 2x).
                let mid = ckt.fresh_node("nor_mid");
                ckt.add_mosfet(output, inputs[0], gnd, MosParams::nmos_025(wn));
                ckt.add_mosfet(output, inputs[1], gnd, MosParams::nmos_025(wn));
                ckt.add_mosfet(output, inputs[0], mid, MosParams::pmos_025(2.0 * wp));
                ckt.add_mosfet(mid, inputs[1], vdd, MosParams::pmos_025(2.0 * wp));
            }
            CellKind::Latch => panic!("latch cells are receivers, not drivers"),
        }
    }
}

/// A named collection of cells.
///
/// # Example
///
/// ```
/// # use pcv_cells::library::CellLibrary;
/// let lib = CellLibrary::standard_025();
/// assert!(lib.len() >= 50);
/// assert!(lib.cell("INVX4").is_some());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CellLibrary {
    cells: BTreeMap<String, Cell>,
}

impl CellLibrary {
    /// An empty library.
    pub fn new() -> Self {
        CellLibrary::default()
    }

    /// The standard 0.25 µm library: 53 cells across five kinds and a
    /// ladder of drive strengths (the paper's experiments span "more than 50
    /// different types of 0.25 µm cells").
    pub fn standard_025() -> Self {
        let mut lib = CellLibrary::new();
        let inv_strengths =
            [1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 20.0, 24.0, 32.0, 40.0, 48.0];
        for &s in &inv_strengths {
            lib.add(Cell {
                name: format!("INVX{}", fmt_x(s)),
                kind: CellKind::Inverter,
                strength: s,
            });
        }
        let buf_strengths =
            [1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 20.0, 24.0, 32.0, 40.0, 48.0];
        for &s in &buf_strengths {
            lib.add(Cell {
                name: format!("BUFX{}", fmt_x(s)),
                kind: CellKind::Buffer,
                strength: s,
            });
        }
        let nand_strengths = [1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 20.0, 24.0];
        for &s in &nand_strengths {
            lib.add(Cell {
                name: format!("NAND2X{}", fmt_x(s)),
                kind: CellKind::Nand2,
                strength: s,
            });
        }
        let nor_strengths = [1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 20.0, 24.0];
        for &s in &nor_strengths {
            lib.add(Cell { name: format!("NOR2X{}", fmt_x(s)), kind: CellKind::Nor2, strength: s });
        }
        let tbuf_strengths = [2.0, 4.0, 8.0, 16.0, 32.0];
        for &s in &tbuf_strengths {
            lib.add(Cell {
                name: format!("TBUFX{}", fmt_x(s)),
                kind: CellKind::TristateBuffer,
                strength: s,
            });
        }
        lib.add(Cell { name: "LATCH".into(), kind: CellKind::Latch, strength: 1.0 });
        lib
    }

    /// Add a cell (replacing any cell of the same name).
    pub fn add(&mut self, cell: Cell) {
        self.cells.insert(cell.name.clone(), cell);
    }

    /// Look up a cell by name.
    pub fn cell(&self, name: &str) -> Option<&Cell> {
        self.cells.get(name)
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// `true` when the library has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Iterate cells in name order.
    pub fn iter(&self) -> impl Iterator<Item = &Cell> {
        self.cells.values()
    }
}

fn fmt_x(s: f64) -> String {
    if (s - s.round()).abs() < 1e-9 {
        format!("{}", s.round() as i64)
    } else {
        format!("{s}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_library_size_and_lookup() {
        let lib = CellLibrary::standard_025();
        assert_eq!(lib.len(), 53);
        assert!(lib.cell("INVX1").is_some());
        assert!(lib.cell("BUFX32").is_some());
        assert!(lib.cell("NAND2X8").is_some());
        assert!(lib.cell("TBUFX16").is_some());
        assert!(lib.cell("LATCH").is_some());
        assert!(lib.cell("XYZ").is_none());
        assert!(!lib.is_empty());
    }

    #[test]
    fn widths_scale_with_strength() {
        let lib = CellLibrary::standard_025();
        let x1 = lib.cell("INVX1").unwrap();
        let x4 = lib.cell("INVX4").unwrap();
        assert!((x4.widths().0 / x1.widths().0 - 4.0).abs() < 1e-12);
        assert!(x4.input_cap() > x1.input_cap());
    }

    #[test]
    fn inverter_netlist_shape() {
        let lib = CellLibrary::standard_025();
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let a = ckt.node("a");
        let z = ckt.node("z");
        lib.cell("INVX2").unwrap().build(&mut ckt, &[a], z, vdd);
        assert_eq!(ckt.element_counts().4, 2);
    }

    #[test]
    fn nand_and_nor_netlists() {
        let lib = CellLibrary::standard_025();
        for name in ["NAND2X2", "NOR2X2"] {
            let mut ckt = Circuit::new();
            let vdd = ckt.node("vdd");
            let a = ckt.node("a");
            let b = ckt.node("b");
            let z = ckt.node("z");
            lib.cell(name).unwrap().build(&mut ckt, &[a, b], z, vdd);
            assert_eq!(ckt.element_counts().4, 4, "{name} has 4 transistors");
        }
    }

    #[test]
    fn buffer_has_two_stages() {
        let lib = CellLibrary::standard_025();
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let a = ckt.node("a");
        let z = ckt.node("z");
        lib.cell("BUFX4").unwrap().build(&mut ckt, &[a], z, vdd);
        assert_eq!(ckt.element_counts().4, 4);
    }

    #[test]
    #[should_panic(expected = "input count")]
    fn wrong_input_count_panics() {
        let lib = CellLibrary::standard_025();
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let a = ckt.node("a");
        let z = ckt.node("z");
        lib.cell("NAND2X1").unwrap().build(&mut ckt, &[a], z, vdd);
    }

    #[test]
    #[should_panic(expected = "receivers")]
    fn latch_cannot_drive() {
        let lib = CellLibrary::standard_025();
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let a = ckt.node("a");
        let z = ckt.node("z");
        lib.cell("LATCH").unwrap().build(&mut ckt, &[a], z, vdd);
    }

    #[test]
    fn kind_properties() {
        assert_eq!(CellKind::Nand2.num_inputs(), 2);
        assert_eq!(CellKind::Inverter.num_inputs(), 1);
        assert!(CellKind::Inverter.inverting());
        assert!(!CellKind::Buffer.inverting());
        assert!(CellKind::TristateBuffer.tristate());
        assert!(!CellKind::Inverter.tristate());
    }
}
