//! Circuit and parasitic data model for parasitic-coupling verification.
//!
//! This crate defines the shared vocabulary of the PCV workspace:
//!
//! * [`Circuit`] — a flat electrical circuit (resistors, capacitors, sources,
//!   MOSFETs) with named nodes, the input of the SPICE-class simulator and of
//!   the SyMPVL reduction.
//! * [`SourceWave`] — time-domain stimulus descriptions (DC, pulse, PWL).
//! * [`MosParams`] — Level-1 MOSFET model parameters.
//! * [`ParasiticDb`] — per-net extracted RC parasitics plus cross-net
//!   coupling capacitors, the chip-level data crosstalk analysis consumes.
//! * [`Design`] — a gate-level design: cell instances, nets, drivers, loads,
//!   switching windows and logic-correlation annotations.
//! * [`spef`] — a SPEF-like text exchange format for [`ParasiticDb`].
//! * [`eco`] — typed deltas ([`EcoDelta`]) between two parasitic
//!   databases, the front end of incremental (ECO) re-verification.
//! * [`deck`] — a SPICE-like text format for [`Circuit`].
//! * [`timestep`] — the time axis both transient engines step along.
//!
//! # Example
//!
//! ```
//! # use pcv_netlist::{Circuit, SourceWave};
//! let mut ckt = Circuit::new();
//! let inp = ckt.node("in");
//! let out = ckt.node("out");
//! ckt.add_resistor(inp, out, 1000.0);
//! ckt.add_capacitor(out, Circuit::GROUND, 1e-12);
//! ckt.add_vsrc(inp, Circuit::GROUND, SourceWave::step(0.0, 3.0, 1e-9, 0.1e-9));
//! assert_eq!(ckt.num_nodes(), 2);
//! ```

#![deny(missing_docs)]

pub mod circuit;
pub mod deck;
pub mod design;
pub mod eco;
pub mod parasitics;
pub mod spef;
pub mod termination;
pub mod timestep;
pub mod wave;
pub mod waveform;

pub use circuit::{Circuit, Element, MosKind, MosParams, NodeId};
pub use design::{Design, InstanceId, NetId};
pub use eco::{CouplingEdit, EcoDelta, GcapEdit, NetDelta, ResEdit, ValueEdit};
pub use parasitics::{
    CouplingCap, CouplingsTouching, NetNodeRef, NetParasitics, PNetId, ParasiticDb,
};
pub use termination::{
    CapacitiveTermination, ResistiveTermination, Termination, TheveninTermination,
};
pub use wave::SourceWave;
pub use waveform::Waveform;
