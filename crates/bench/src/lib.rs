//! Experiment harness: the code that regenerates every table and figure of
//! the paper's evaluation, plus shared fixtures for examples, integration
//! tests and criterion benches.
//!
//! One command runs them all and rewrites the measured blocks of
//! `EXPERIMENTS.md`:
//!
//! ```text
//! cargo run --release -p pcv-bench --bin experiments
//! ```
//!
//! Wall-clock benches (`cargo bench -p pcv-bench`, plain `std::time`
//! harnesses — see [`timing`]) measure the engine speedups and the
//! design-choice ablations called out in `DESIGN.md`.

#![deny(missing_docs)]

pub mod experiments;
pub mod fixtures;
pub mod regression;
pub mod timing;

pub use fixtures::{charlib_for, structure_context, StructureFixture};
