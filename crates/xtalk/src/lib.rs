//! Chip-level crosstalk glitch and coupled-delay verification — the
//! end-to-end methodology of the DATE 1999 paper.
//!
//! The flow mirrors the paper's pipeline:
//!
//! 1. **Pruning** ([`prune`]) — capacitance-ratio filtering decouples weak
//!    couplings and shrinks each victim's cluster from the raw extraction
//!    neighborhood (~100 nets in the paper) down to the 2–5 nets that
//!    matter.
//! 2. **Cluster assembly** ([`build`]) — victim plus surviving aggressors,
//!    their wire RC, the coupling between them, decoupled (grounded)
//!    leftovers and receiver pin loads become one [`pcv_mor::RcCluster`].
//! 3. **Driver setup** ([`drivers`]) — each member net gets a driver model:
//!    a fixed resistance, the timing-library Thevenin model, the
//!    pre-characterized nonlinear model, or (SPICE engine only) the actual
//!    transistor-level cell. Tri-state buses use the *strongest driver*
//!    rule; logic correlation and switching windows pick which aggressors
//!    may switch together ([`analysis::plan_aggressors`]).
//! 4. **Analysis** ([`analysis`]) — glitch peaks and coupled delays via
//!    either the SyMPVL reduced engine (fast path) or the SPICE substrate
//!    (reference path), with identical driver abstractions so the two are
//!    directly comparable.
//! 5. **Chip-level verdicts** ([`chip`]) — each victim's peaks classified
//!    against noise-margin thresholds, and the report they make. The sweep
//!    over every latch-input victim is `pcv-engine`'s `Engine`, the one
//!    code that turns victims into a [`ChipReport`].
//!
//! # Example
//!
//! Audit a victim in a three-wire structure with fixed 1 kΩ drivers:
//!
//! ```
//! # use pcv_xtalk::{prune::{prune_victim, PruneConfig}, analysis::{analyze_glitch, AnalysisContext, AnalysisOptions}};
//! # use pcv_netlist::{NetParasitics, NetNodeRef, ParasiticDb};
//! # fn main() -> Result<(), pcv_xtalk::XtalkError> {
//! let mut db = ParasiticDb::new();
//! let mut v = NetParasitics::new("v");
//! let v1 = v.add_node();
//! v.add_resistor(0, v1, 200.0);
//! v.add_ground_cap(v1, 10e-15);
//! v.mark_load(v1);
//! let vid = db.add_net(v);
//! let mut a = NetParasitics::new("a");
//! let a1 = a.add_node();
//! a.add_resistor(0, a1, 200.0);
//! a.add_ground_cap(a1, 10e-15);
//! let aid = db.add_net(a);
//! db.add_coupling(NetNodeRef { net: vid, node: v1 },
//!                 NetNodeRef { net: aid, node: a1 }, 30e-15);
//! let cluster = prune_victim(&db, vid, &PruneConfig::default());
//! let ctx = AnalysisContext::fixed_resistance(&db, 1000.0);
//! let res = analyze_glitch(&ctx, &cluster, true, &AnalysisOptions::default())?;
//! assert!(res.peak > 0.0);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

pub mod analysis;
pub mod build;
pub mod chip;
pub mod dirty;
pub mod drivers;
pub mod error;
pub mod prune;
pub mod receiver;

pub use analysis::{
    analyze_delay, analyze_glitch, AnalysisContext, AnalysisOptions, DelayMode, DelayResult,
    EngineKind, GlitchResult, PreparedCluster,
};
pub use build::{build_cluster, ClusterModel};
pub use chip::{ChipReport, NetVerdict, ReceiverVerdict, Severity};
pub use dirty::blast_radius;
pub use drivers::DriverModelKind;
pub use error::XtalkError;
pub use prune::{prune_all, prune_victim, Cluster, PruneConfig, PruningStats};
pub use receiver::{
    check_receiver_propagation, noise_immunity_curve, receiver_response, ImmunityPoint,
    ReceiverCheck,
};
