//! Digital cell library, characterization and driver models for
//! signal-integrity verification.
//!
//! Section 4 of the DATE 1999 paper compares two driver abstractions for
//! chip-level crosstalk analysis:
//!
//! * a **timing-library based linear model** — a Thevenin source whose
//!   resistance is deduced from delay-vs-load characterization data
//!   ([`models::LinearDriverModel`]), and
//! * a **pre-characterized nonlinear model** — the cell's quasi-static
//!   output current surface `I(V_in, V_out)` plus an effective output
//!   capacitance ([`models::NonlinearDriverModel`]), which captures the
//!   output transient waveform and is what makes Table 4's accuracy
//!   possible.
//!
//! Both are produced by running the transistor-level cell netlists through
//! the `pcv-spice` substrate, exactly the *one-time pre-characterization*
//! flow the paper describes:
//!
//! * [`library::CellLibrary::standard_025`] generates a 0.25 µm-class
//!   library (inverters, buffers, NAND/NOR, tri-state drivers at many drive
//!   strengths — 53 cells, matching the paper's experiments).
//! * [`charlib::characterize`] builds NLDM-style delay/slew tables, fits the
//!   linear drive resistances and samples the nonlinear I–V surface.
//!
//! # Example
//!
//! ```no_run
//! # use pcv_cells::{library::CellLibrary, charlib};
//! # fn main() -> Result<(), pcv_cells::CellError> {
//! let lib = CellLibrary::standard_025();
//! let ch = charlib::characterize(lib.cell("INVX4").unwrap())?;
//! println!("INVX4 pull-down resistance: {:.0} ohms", ch.rout_fall);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

pub mod charlib;
pub mod error;
pub mod liberty;
pub mod library;
pub mod models;

pub use charlib::{characterize, CharCell, CharLibrary, IvSurface, TimingTable};
pub use error::CellError;
pub use liberty::{parse_liberty, write_liberty};
pub use library::{Cell, CellKind, CellLibrary};
pub use models::{LinearDriverModel, NonlinearDriverModel};

/// Supply voltage of the 0.25 µm library (volts). The paper's cell-model
/// accuracy tables use Vdd = 3.0 V; the technology's nominal 2.5 V is also
/// common — the library is characterized at this value.
pub const VDD: f64 = 2.5;
