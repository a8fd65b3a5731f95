//! Incremental ECO re-verification: dirty-set planning and report
//! splicing over a resident chip.
//!
//! An ECO (engineering change order) replaces a session's parasitics with
//! an edited netlist. Re-verifying the whole chip from scratch wastes the
//! work already proven for every cluster the edit cannot reach; this
//! module computes exactly which clusters an [`EcoDelta`] can dirty and
//! drives a run that re-analyzes only those, splicing every untouched
//! verdict out of the incremental result cache **bit-for-bit**.
//!
//! The pipeline:
//!
//! 1. [`EcoDelta::diff`] (in `pcv-netlist`) types the edit: nets
//!    added/removed/re-parasitized and coupling-cap edits.
//! 2. [`pcv_xtalk::blast_radius`] maps the touched nets to every victim
//!    within two coupling hops — the only clusters whose canonical
//!    fingerprint *can* change (see that module for the soundness
//!    argument).
//! 3. [`EcoPlan::compute`] confirms each candidate against the actual
//!    [`crate::cluster_fingerprint`]s of the old and new chips, yielding the
//!    minimal dirty set.
//! 4. [`Engine::run`] over the **new** chip with the session's warm cache
//!    ([`Engine::eco_verify_resident`] is steps 1–4 in one call). Clean
//!    clusters hit the cache (same fingerprint ⇒ the stored peak bits are
//!    exactly what a fresh analysis would produce) and are spliced into
//!    the report without analysis; dirty clusters re-analyze. The merged
//!    [`EngineReport::signoff_json`] is **byte-identical** to a
//!    from-scratch run on the edited chip: verdict values come from the
//!    same bits, ordering uses the same stable comparator, and pruning
//!    statistics are recomputed over every cluster either way.
//!
//! The run itself is an ordinary engine run — journaled, resumable,
//! observable — so an interrupted ECO completes with the same crash
//! matrix as any sign-off.

use crate::engine::{Engine, EngineConfig, RunRequest};
use crate::fingerprint::{pruned_fingerprint, NetDigests};
use crate::report::EngineReport;
use crate::resident::{ResidentChip, VerdictSnapshot};
use pcv_netlist::eco::EcoDelta;
use pcv_netlist::PNetId;
use pcv_trace::json::{self, Arr};
use pcv_xtalk::dirty::blast_radius;
use pcv_xtalk::XtalkError;
use std::collections::BTreeSet;

/// The planned scope of an incremental re-verification.
///
/// All net collections are sorted by name, so the plan is deterministic
/// and directly serializable.
#[derive(Debug, Clone, PartialEq)]
pub struct EcoPlan {
    /// Element-level edit count of the delta ([`EcoDelta::num_edits`]).
    pub edits: usize,
    /// Nets the delta touches directly.
    pub touched: Vec<String>,
    /// Victims of the new chip inside the coupling-aware blast radius —
    /// the candidate dirty clusters.
    pub candidates: Vec<String>,
    /// Candidates whose canonical fingerprint actually changed (or that
    /// have no old counterpart): the minimal set to re-analyze.
    pub dirty: Vec<String>,
    /// Victims of the new chip whose verdicts splice from the prior run.
    pub clean: usize,
    /// Victims of the old chip that no longer exist (their verdicts are
    /// dropped, not spliced).
    pub retired: Vec<String>,
}

impl EcoPlan {
    /// Fraction of the new chip's victims served by splicing, in
    /// `[0, 1]`. `1.0` for a no-op delta on a non-empty chip.
    pub fn splice_fraction(&self) -> f64 {
        let total = self.clean + self.dirty.len();
        if total == 0 {
            1.0
        } else {
            self.clean as f64 / total as f64
        }
    }

    /// Whether the delta dirties nothing (pure splice).
    pub fn is_noop(&self) -> bool {
        self.dirty.is_empty() && self.retired.is_empty()
    }

    /// The plan as one JSON object — the shape `pcv-serve` returns from
    /// `POST /sessions/{id}/eco` and records in the run ledger.
    pub fn to_json(&self) -> String {
        let names = |a: &mut Arr<'_>, list: &[String]| {
            for n in list {
                a.str(n);
            }
        };
        json::object(|o| {
            o.raw("edits", self.edits).arr("touched", |a| names(a, &self.touched));
            o.arr("candidates", |a| names(a, &self.candidates));
            o.arr("dirty", |a| names(a, &self.dirty)).raw("clean", self.clean);
            o.arr("retired", |a| names(a, &self.retired));
            o.f64("splice_fraction", self.splice_fraction());
        })
    }
}

/// The victims of one chip by name and — under one engine configuration,
/// each net's section digested at most once — their fingerprints.
struct Victims<'a> {
    cfg: &'a EngineConfig,
    chip: &'a ResidentChip,
    chash: u64,
    digests: NetDigests,
    /// Which nets of the chip are audited, by net id.
    audited: Vec<bool>,
}

impl<'a> Victims<'a> {
    fn new(cfg: &'a EngineConfig, chip: &'a ResidentChip) -> Self {
        let ctx = &chip.ctx();
        let mut audited = vec![false; chip.num_nets()];
        chip.victims().iter().for_each(|v| audited[v.0] = true);
        Victims { cfg, chip, chash: cfg.config_hash(ctx), digests: NetDigests::new(ctx), audited }
    }

    fn names(&self) -> impl Iterator<Item = &'a str> + '_ {
        self.chip.victims().iter().map(|&v| self.chip.db().net(v).name())
    }

    fn find(&self, name: &str) -> Option<PNetId> {
        self.chip.db().find_net(name).filter(|id| self.audited[id.0])
    }

    /// The canonical fingerprint of victim `name`; `None` if it is none.
    fn fingerprint(&self, name: &str) -> Option<u64> {
        let (ctx, sizes) = (self.chip.ctx(), self.chip.component_sizes());
        let key =
            |v| pruned_fingerprint(&ctx, v, &self.cfg.prune, sizes, self.chash, &self.digests);
        self.find(name).map(|v| key(v).1)
    }
}

impl EcoPlan {
    /// Plan the incremental run for `delta` between two elaborated chips.
    ///
    /// Only candidate victims (those inside the blast radius, itself walked
    /// from the touched nets) are looked up and fingerprinted — for a small
    /// edit on a large chip the plan costs a handful of prunes and one pass
    /// over the two victim lists, not a chip sweep. Victims outside the
    /// radius cannot change fingerprint (the two-hop soundness argument in
    /// [`pcv_xtalk::dirty`]), and the engine's fingerprint-guarded cache
    /// re-checks every cluster during the run anyway, so a plan can never
    /// cause a stale verdict even if its assumptions were violated.
    pub fn compute(
        cfg: &EngineConfig,
        old: &ResidentChip,
        new: &ResidentChip,
        delta: &EcoDelta,
    ) -> EcoPlan {
        let _span = pcv_trace::span("engine", "eco_plan");
        let touched = delta.touched_nets();
        let radius = blast_radius(old.db(), new.db(), &touched);
        let (old, new) = (Victims::new(cfg, old), Victims::new(cfg, new));

        // Victims that are new to the audit are dirty regardless of the
        // radius (there is nothing to splice for them); retired victims
        // just drop out of the report. An edit rarely changes the victim
        // list at all, and one pass over the two lists shows it did not.
        let (mut retired, mut candidates) = (BTreeSet::new(), BTreeSet::new());
        if !old.names().eq(new.names()) {
            let gone = old.names().filter(|v| new.find(v).is_none());
            retired.extend(gone.map(str::to_owned));
            let born = new.names().filter(|v| old.find(v).is_none());
            candidates.extend(born.map(str::to_owned));
        }
        candidates.extend(radius.into_iter().filter(|name| new.find(name).is_some()));
        let dirty: Vec<String> = candidates
            .iter()
            .filter(|name| old.fingerprint(name) != new.fingerprint(name))
            .cloned()
            .collect();

        EcoPlan {
            edits: delta.num_edits(),
            touched: touched.into_iter().collect(),
            candidates: candidates.into_iter().collect(),
            clean: new.audited.iter().filter(|&&v| v).count() - dirty.len(),
            dirty,
            retired: retired.into_iter().collect(),
        }
    }
}

/// An incremental run's outcome: the plan plus the (spliced) report.
#[derive(Debug)]
pub struct EcoOutcome {
    /// What the delta dirtied.
    pub plan: EcoPlan,
    /// The full-chip report over the edited netlist — byte-identical (via
    /// [`EngineReport::signoff_json`]) to a from-scratch run.
    pub report: EngineReport,
}

impl Engine {
    /// Plan the delta from `old` to `new`, then [`Engine::run`] over `new`
    /// — the batch-side convenience. (A caller that already holds the
    /// plan, as the daemon does from submit time, calls `run` directly.)
    ///
    /// Requires the engine's `cache_path` to point at the cache the prior
    /// run over `old` populated; clean clusters splice from it without
    /// re-analysis (their fingerprints are unchanged, so the cached bits
    /// are exactly what a fresh analysis would produce). With a cold or
    /// missing cache the result is still correct — everything simply
    /// re-analyzes. `resume` and `snapshot` are the [`RunRequest`] fields.
    ///
    /// # Errors
    ///
    /// Same contract as [`Engine::run`].
    pub fn eco_verify_resident(
        &self,
        old: &ResidentChip,
        new: &ResidentChip,
        resume: bool,
        snapshot: Option<&VerdictSnapshot>,
    ) -> Result<EcoOutcome, XtalkError> {
        let session = self.trace_session();
        let plan = EcoPlan::compute(&self.config, old, new, &EcoDelta::diff(old.db(), new.db()));
        let request = RunRequest { resume, snapshot, ..RunRequest::resident(new) };
        Ok(EcoOutcome { plan, report: self.run_in(request, session)? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcv_netlist::{NetNodeRef, NetParasitics, PNetId, ParasiticDb};

    /// A 6-net chain with nearest-neighbor coupling; every net a victim.
    fn chain_db(perturb: Option<(usize, f64)>) -> ParasiticDb {
        let mut db = ParasiticDb::new();
        for i in 0..6 {
            let mut n = NetParasitics::new(format!("n{i}"));
            let n1 = n.add_node();
            n.add_resistor(0, n1, 150.0 + i as f64);
            let cg = match perturb {
                Some((at, scale)) if at == i => 8e-15 * scale,
                _ => 8e-15,
            };
            n.add_ground_cap(n1, cg);
            n.mark_load(n1);
            db.add_net(n);
        }
        for i in 1..6 {
            db.add_coupling(
                NetNodeRef { net: PNetId(i - 1), node: 1 },
                NetNodeRef { net: PNetId(i), node: 1 },
                (10 + i) as f64 * 1e-15,
            );
        }
        db
    }

    fn chip(db: ParasiticDb) -> ResidentChip {
        let victims: Vec<PNetId> = (0..db.num_nets()).map(PNetId).collect();
        ResidentChip::fixed_resistance(db, 1000.0, victims)
    }

    #[test]
    fn noop_delta_plans_a_pure_splice() {
        let cfg = EngineConfig::default();
        let old = chip(chain_db(None));
        let new = chip(chain_db(None));
        let delta = EcoDelta::diff(old.db(), new.db());
        assert!(delta.is_empty());
        let plan = EcoPlan::compute(&cfg, &old, &new, &delta);
        assert!(plan.is_noop(), "{plan:?}");
        assert!(plan.dirty.is_empty());
        assert_eq!(plan.clean, 6);
        assert_eq!(plan.splice_fraction(), 1.0);
    }

    #[test]
    fn ground_cap_edit_dirties_exactly_the_radius_confirmed_clusters() {
        let cfg = EngineConfig::default();
        let old = chip(chain_db(None));
        let new = chip(chain_db(Some((0, 1.01))));
        let delta = EcoDelta::diff(old.db(), new.db());
        assert_eq!(delta.reparasitized.len(), 1);
        let plan = EcoPlan::compute(&cfg, &old, &new, &delta);
        // n0's own cap changed: n0 dirty; n1's cluster contains n0; n2's
        // cluster contains n1 whose coupling list is unchanged — but n0's
        // gcap is hashed only through clusters n0 and n1. n2 is a radius
        // candidate whose fingerprint check must clear it.
        assert_eq!(plan.candidates, vec!["n0", "n1", "n2"]);
        assert_eq!(plan.dirty, vec!["n0", "n1"]);
        assert_eq!(plan.clean, 4);
        assert!(!plan.is_noop());
        assert!((plan.splice_fraction() - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn eco_run_splices_byte_identically_with_a_warm_cache() {
        let dir = std::env::temp_dir().join("pcv-eco-engine-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let cache = dir.join("chip.cache");

        let old = chip(chain_db(None));
        let new = chip(chain_db(Some((5, 1.02))));
        let mk = || {
            Engine::new(EngineConfig {
                workers: 2,
                cache_path: Some(cache.clone()),
                ..Default::default()
            })
        };
        // Prior run populates the cache.
        let prior = mk().verify_resident(&old, None).unwrap();
        assert_eq!(prior.stats.cache_misses, 6);

        let outcome = mk().eco_verify_resident(&old, &new, false, None).unwrap();
        assert_eq!(outcome.plan.dirty, vec!["n4", "n5"]);
        // Only the dirty clusters re-analyzed.
        assert_eq!(outcome.report.stats.cache_misses, outcome.plan.dirty.len());
        assert_eq!(outcome.report.stats.cache_hits, outcome.plan.clean);

        // Byte-identity against a from-scratch run on the edited chip.
        let scratch = Engine::new(EngineConfig { workers: 2, ..Default::default() })
            .verify_resident(&new, None)
            .unwrap();
        assert_eq!(outcome.report.signoff_json(), scratch.signoff_json());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn added_and_retired_victims_are_planned() {
        let cfg = EngineConfig::default();
        let old = chip(chain_db(None));
        let mut db = chain_db(None);
        let mut extra = NetParasitics::new("spare");
        let s1 = extra.add_node();
        extra.add_resistor(0, s1, 90.0);
        extra.add_ground_cap(s1, 4e-15);
        extra.mark_load(s1);
        db.add_net(extra);
        let new = chip(db);
        let delta = EcoDelta::diff(old.db(), new.db());
        assert_eq!(delta.added, vec!["spare"]);
        let plan = EcoPlan::compute(&cfg, &old, &new, &delta);
        assert!(plan.dirty.contains(&"spare".to_owned()), "{plan:?}");
        // The spare net couples to nothing: every existing cluster stays
        // clean.
        assert_eq!(plan.dirty, vec!["spare"]);
        assert_eq!(plan.clean, 6);
        // Reverse: dropping the net retires its verdict.
        let rplan = EcoPlan::compute(&cfg, &new, &old, &EcoDelta::diff(new.db(), old.db()));
        assert_eq!(rplan.retired, vec!["spare"]);
        assert!(rplan.dirty.is_empty());
    }
}
