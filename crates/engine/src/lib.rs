//! Chip-scale orchestration for the crosstalk verification flow: a
//! parallel, fault-isolated, incremental engine over
//! [`pcv_xtalk`]'s victim-cluster analysis.
//!
//! [`Engine`] is the one code that turns victims into a
//! [`pcv_xtalk::ChipReport`]: prune, reduce, simulate, classify and, on
//! flagged victims, check the receiver. Every run enters it the same way,
//! as a [`RunRequest`] over a [`ResidentChip`], the chip elaborated once.
//! At chip scale — thousands of latch-input victims — a loop that audits
//! one victim at a time and dies with the first failure is neither fast
//! enough nor robust enough, so the engine wraps the flow in:
//!
//! - **Parallelism** — victims are sharded into independent cluster jobs
//!   (prune → reduce → analyze → receiver check), each a millisecond or
//!   more, on a std-only pool of scoped threads that claim jobs in input
//!   order from one shared atomic cursor. No external dependencies.
//! - **Determinism** — results are merged by input index and sorted by
//!   [`pcv_xtalk::ChipReport::from_verdicts`]' stable comparator, so an
//!   N-worker run is byte-identical to the 1-worker report regardless of
//!   scheduling. The golden reports record that report.
//! - **Fault isolation** — each analysis attempt runs under
//!   `catch_unwind`; a panicking or erroring cluster affects only its own
//!   verdict while every other victim is still fully audited.
//! - **Graceful degradation** ([`recovery`]) — failed cluster jobs walk a
//!   typed recovery ladder (boosted `gmin`, smaller Krylov space, softer
//!   Newton, SPICE fallback, conservative worst-case) so every victim ends
//!   with a verdict; the trail lands in [`EngineReport::degradations`] and
//!   a worst-cased victim also in [`EngineReport::errors`].
//!   Deterministic fault injection (a [`Plan`] of [`FaultKind`]s) drills
//!   the ladder in tests and chaos runs.
//! - **One cluster record** ([`record`]) — every victim's result is one
//!   bit-exact [`JournalEntry`], built by one function, turned into the
//!   report's verdict by one function, and spelled on disk by two
//!   adapters (cache line, journal line) that live beside it. The cache,
//!   the journal, the shard harvest and the replay all pass that type
//!   around.
//! - **Incrementality** ([`cache`], [`fingerprint`]) — each cluster's
//!   record is stored under a fingerprint of its topology, couplings,
//!   drivers and analysis options. Re-runs skip unchanged clusters;
//!   touching one coupling capacitor invalidates exactly the clusters it
//!   feeds.
//! - **Observability** ([`report`]) — per-stage wall-times, cache
//!   hit-rate and worker utilization in every [`EngineReport`].
//! - **Durability** ([`durable`], [`fs`]) — every persisted artifact is
//!   written atomically (write-temp + fsync + rename) with CRC-32
//!   integrity framing; completed records are checkpointed to a
//!   write-ahead journal so a killed run resumes (a [`RunRequest`] with
//!   `resume` set) to a byte-identical sign-off; an advisory run
//!   lock serializes writers; a [`Plan`] of [`FsFaultKind`]s injects
//!   deterministic disk faults (torn writes, ENOSPC, bit flips) for
//!   chaos drills.
//! - **Fault injection** ([`fault`]) — one scheduling primitive,
//!   [`Plan`], under the numeric, disk and shard-process drills alike.
//!
//! # Example
//!
//! ```
//! # use pcv_engine::{Engine, EngineConfig, ResidentChip, RunRequest};
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
//! let chip = ResidentChip::fixed_resistance(db, 1000.0, vec![vid]);
//! let engine = Engine::new(EngineConfig { workers: 2, ..Default::default() });
//! let report = engine.run(RunRequest::resident(&chip))?;
//! assert_eq!(report.chip.verdicts.len(), 1);
//! assert!(report.errors.is_empty());
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

pub mod cache;
pub mod durable;
pub mod eco;
pub mod engine;
pub mod fault;
pub mod fingerprint;
pub mod fs;
pub mod record;
pub mod recovery;
pub mod report;
pub mod resident;
mod scheduler;
pub mod shard;
mod store;

pub use cache::{CacheLoadStats, ResultCache};
pub use durable::{Journal, JournalLoad, LockError, RunLock, StopAfter, StopFlag};
pub use eco::{EcoOutcome, EcoPlan};
pub use engine::{Engine, EngineConfig, RunRequest};
pub use fault::Plan;
pub use fingerprint::{chip_slice_fingerprint, cluster_fingerprint, config_hash, Fnv1a};
pub use fs::{crc32, Fs, FsFaultKind};
pub use record::JournalEntry;
pub use recovery::{Attempt, Degradation, FaultKind, RecoveryRung, Trail};
pub use report::{ClusterCost, EngineError, EngineReport, EngineStats};
pub use resident::{ResidentChip, VerdictSnapshot};
pub use shard::{
    harvest_shard, partition, shard_of, write_merged_journal, ShardContribution, ShardFault,
};
