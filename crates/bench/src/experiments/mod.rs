//! One module per table/figure of the paper's evaluation, and [`record`],
//! which writes their text into `EXPERIMENTS.md`.

pub mod ablation;
pub mod fig3;
pub mod fig45;
pub mod fig67;
pub mod immunity;
pub mod pruning;
pub mod record;
pub mod stats;
pub mod table1;
pub mod table2;
pub mod table34;

/// Experiment scale: `Quick` keeps runtimes interactive; `Full` matches the
/// paper's population sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced sweep for interactive runs and CI.
    Quick,
    /// Paper-scale sweep (use `--release`).
    Full,
}
