//! Deterministic sharding of a chip's victim set across worker processes.
//!
//! A shard is a *stable* slice of the victim list: assignment hashes each
//! victim's **name** (never its `PNetId`, which depends on parse order)
//! through FNV-1a and its splitmix64 finalizer (`Fnv1a::finish_mixed`), so
//! a re-run, a replacement worker, or a differently-threaded coordinator
//! all derive the identical work slice. Within a shard, victims keep their
//! chip-order relative positions, which keeps per-shard journals and caches
//! replayable.
//!
//! The module also carries the coordinator's merge primitives: harvest a
//! shard's cache and journal remnant ([`harvest_shard`], filling a shard
//! that exhausted its restart budget with conservative
//! [`RecoveryRung::WorstCase`] entries — never a hole in the report), and
//! fold the harvests into one merged journal ([`write_merged_journal`])
//! that the ordinary resume path replays.
//!
//! [`ShardFault`] is the chaos layer's payload: deterministic worker-side
//! drills (panic, stall) and coordinator-side drills (SIGKILL at a
//! fraction, torn journal, duplicate journal entry), scheduled by a
//! [`Plan`](crate::fault::Plan), so every failure mode the supervisor
//! claims to survive is a repeatable test, not an anecdote.

use crate::durable::Journal;
use crate::engine::EngineConfig;
use crate::fingerprint::{chip_slice_fingerprint, pruned_fingerprint, Fnv1a, NetDigests};
use crate::record::JournalEntry;
use crate::recovery::{Attempt, RecoveryRung};
use crate::resident::ResidentChip;
use crate::store::{RunStore, Source};
use pcv_netlist::PNetId;
use std::collections::HashSet;
use std::io;
use std::path::Path;

/// The shard (in `0..shards`) that owns the victim named `name`.
///
/// Pure function of the name and the shard count — independent of net
/// ids, victim order, worker count, and platform.
#[must_use]
pub fn shard_of(name: &str, shards: usize) -> usize {
    let shards = shards.max(1);
    let mut h = Fnv1a::new();
    h.write_str("pcv-shard v1");
    h.write_str(name);
    (h.finish_mixed() % shards as u64) as usize
}

/// Partition `victims` into `shards` stable slices by [`shard_of`],
/// preserving chip order within each slice.
///
/// Every victim lands in exactly one slice; empty slices are possible
/// (and fine) for tiny victim sets.
#[must_use]
pub fn partition(chip: &ResidentChip, victims: &[PNetId], shards: usize) -> Vec<Vec<PNetId>> {
    let shards = shards.max(1);
    let mut slices = vec![Vec::new(); shards];
    for &v in victims {
        slices[shard_of(chip.db().net(v).name(), shards)].push(v);
    }
    slices
}

/// One deterministic failure drill, aimed at a single shard. In a
/// [`Plan`](crate::fault::Plan) the site is the shard index (in decimal)
/// and the occurrence the worker's incarnation: `fires` 1 hits the first
/// launch only, so the restarted worker finishes cleanly;
/// [`ALWAYS`](crate::fault::ALWAYS) re-arms after every restart, which is
/// how a restart budget gets exhausted on purpose.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ShardFault {
    /// Worker aborts (as a panic/crash would) after emitting this many
    /// verdicts. Executed worker-side.
    PanicAfter(usize),
    /// Worker stops emitting output — verdicts, beats, the `done` line —
    /// after this many verdicts, forever. Executed worker-side; the
    /// coordinator's heartbeat deadline is what catches it.
    StallAfter(usize),
    /// Coordinator SIGKILLs the worker once it has streamed at least
    /// `frac` of its slice (e.g. `0.25`, `0.5`, `0.75`). The worker holds
    /// every later cluster at its finish (journaled, not yet streamed), so
    /// the kill lands mid-slice with a journal on disk however fast the
    /// clusters run.
    SigkillAtFrac(f64),
    /// After killing the worker, tear the final line of its shard journal
    /// (truncate mid-frame) before the restart — the replay must drop
    /// exactly that line and recompute it.
    TornJournal,
    /// After killing the worker, append a duplicate of the journal's last
    /// intact cluster record — replay must dedupe by victim name.
    DuplicateEntry,
}

/// What one shard contributed at merge time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardContribution {
    /// Entries harvested from the shard's result cache (the shard
    /// finished its slice).
    pub from_cache: usize,
    /// Entries harvested from the shard's journal remnant (the shard
    /// died mid-run with checkpoints on disk).
    pub from_journal: usize,
    /// Conservative worst-case entries synthesized for victims the shard
    /// never delivered.
    pub worst_case: usize,
    /// Torn/corrupt journal lines skipped while harvesting.
    pub torn_lines: usize,
}

/// Harvest everything shard `slice` produced under `cfg` — its journal
/// remnant and its cache at `cache_path`, each record under the engine's
/// own adoption rule (current cluster fingerprint; journal only under a
/// header naming this config and slice), so a stale artifact degrades to
/// recomputation, never to a wrong verdict. When `exhausted_reason` is
/// `Some` (the shard ran out of restarts) every victim left over gets a
/// conservative [`JournalEntry::worst_case`] record whose one-attempt trail
/// carries that reason, under the fingerprint the engine will compute, so
/// replay adopts it instead of silently recomputing a real verdict.
/// Harvested entries come in slice order, worst-case fills after them.
#[must_use]
pub fn harvest_shard(
    chip: &ResidentChip,
    cfg: &EngineConfig,
    slice: &[PNetId],
    cache_path: &Path,
    exhausted_reason: Option<&str>,
) -> (Vec<JournalEntry>, ShardContribution) {
    let ctx = chip.ctx();
    let config_fp = cfg.config_hash(&ctx);
    let shard_fp = chip_slice_fingerprint(&ctx, slice);
    let store = RunStore::read(&cfg.fs, Some(cache_path), config_fp, shard_fp, true);
    let mut out = Vec::new();
    let mut stat = ShardContribution { torn_lines: store.torn_lines, ..Default::default() };

    let digests = NetDigests::new(&ctx);
    let mut filled = Vec::new();
    let mut seen: HashSet<&str> = HashSet::new();
    for &v in slice {
        let name = ctx.db.net(v).name();
        if !seen.insert(name) {
            continue;
        }
        let (_, fp) =
            pruned_fingerprint(&ctx, v, &cfg.prune, chip.component_sizes(), config_fp, &digests);
        match store.adopt(name, fp) {
            Some((entry, source)) => {
                out.push(entry.clone());
                match source {
                    Source::Cache => stat.from_cache += 1,
                    Source::Journal => stat.from_journal += 1,
                }
            }
            None => {
                if let Some(reason) = exhausted_reason {
                    let gave_up = Attempt {
                        rung: RecoveryRung::Baseline,
                        reason: reason.to_owned(),
                        elapsed: std::time::Duration::ZERO,
                    };
                    filled.push(JournalEntry::worst_case(
                        name,
                        fp,
                        cfg.analysis.vdd,
                        vec![gave_up],
                    ));
                }
            }
        }
    }
    stat.worst_case = filled.len();
    out.extend(filled);
    (out, stat)
}

/// Write the coordinator's merged journal next to `cfg`'s cache: a fresh
/// header — the one a run of `cfg` over every victim of `chip` looks for —
/// followed by every harvested entry in one durable batch. A
/// [`crate::RunRequest::resume`] run of `cfg` then adopts matching entries
/// bit-for-bit and recomputes any stragglers, producing a sign-off
/// byte-identical to a single-process run.
///
/// # Errors
///
/// Propagates I/O failures from the header write or the batch append; a
/// `cfg` without a cache path has nowhere to write.
pub fn write_merged_journal(
    chip: &ResidentChip,
    cfg: &EngineConfig,
    entries: &[JournalEntry],
) -> io::Result<()> {
    let merged_cache = cfg.cache_path.as_deref().ok_or(io::ErrorKind::InvalidInput)?;
    let ctx = chip.ctx();
    let (config_fp, chip_fp) =
        (cfg.config_hash(&ctx), chip_slice_fingerprint(&ctx, chip.victims()));
    let path = Journal::path_for(merged_cache);
    Journal::begin(&cfg.fs, &path, config_fp, chip_fp)?.record_all(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_of_is_pinned() {
        // Shard caches and journals outlive the process: an assignment
        // that drifts orphans them. Expected values are literals.
        for (name, want) in [
            ("bus0.3", [0, 0, 0]),
            ("net_17", [0, 0, 4]),
            ("clk", [0, 2, 2]),
            ("rnd42", [1, 1, 1]),
            ("g12_w3", [0, 2, 2]),
            ("g12_w4", [0, 0, 4]),
        ] {
            assert_eq!([2, 4, 8].map(|shards| shard_of(name, shards)), want, "{name}");
            assert_eq!(shard_of(name, 1), 0);
        }
    }

    #[test]
    fn shard_of_spreads_bus_bits() {
        // Names differing only in a trailing index must not all collapse
        // into one bucket.
        let mut seen = HashSet::new();
        for bit in 0..32 {
            seen.insert(shard_of(&format!("bus0.{bit}"), 4));
        }
        assert!(seen.len() >= 3, "splitmix finalizer should spread suffix-only names");
    }

    #[test]
    fn fault_plan_one_shot_vs_persistent() {
        use crate::fault::{Plan, ALWAYS};
        let kill = ShardFault::SigkillAtFrac(0.5);
        let plan = Plan::new().at(1, 1, kill).at(2, ALWAYS, ShardFault::PanicAfter(0));
        assert_eq!(plan.armed("1", 0).count(), 1);
        assert_eq!(plan.armed("1", 1).count(), 0, "one-shot disarms on restart");
        assert_eq!(plan.armed("2", 3).count(), 1, "persistent survives restarts");
        assert_eq!(plan.armed("0", 0).count(), 0);
    }
}
