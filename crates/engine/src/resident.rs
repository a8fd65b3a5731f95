//! The resident-chip handle: elaborate once, verify many times.
//!
//! The batch flow pays its dominant fixed cost — parsing parasitics,
//! aligning the gate-level view, characterizing drivers, and building the
//! coupling union-find — before the first verdict, on *every* invocation.
//! A verification service must pay it once: [`ResidentChip`] owns all of
//! that state, keeps it hot in memory, and hands the engine a borrowed
//! [`AnalysisContext`] per run. Every run starts from a chip
//! ([`RunRequest::resident`]), so the union-find is built once per chip,
//! at elaboration, and a warm run starts analyzing immediately.
//!
//! [`VerdictSnapshot`] is the run-scoped read side: the engine publishes
//! every completed verdict into it as the run progresses, so concurrent
//! clients can query per-net results mid-run — including verdicts from
//! clusters that finished while the rest of the chip is still in flight —
//! without touching the run lock or waiting for the merged report.
//!
//! [`RunRequest::resident`]: crate::RunRequest::resident

use pcv_cells::charlib::CharLibrary;
use pcv_cells::library::CellLibrary;
use pcv_cells::CellError;
use pcv_designs::dsp::{generate, DspConfig, DRIVER_CELLS};
use pcv_designs::Technology;
use pcv_netlist::{Design, PNetId, ParasiticDb};
use pcv_xtalk::drivers::DriverModelKind;
use pcv_xtalk::prune::coupling_component_sizes;
use pcv_xtalk::{AnalysisContext, NetVerdict};
use std::collections::hash_map::{Entry, HashMap};
use std::sync::Mutex;

/// A chip elaborated once and held resident for many verification runs.
///
/// Owns the parasitics, the optional gate-level design and libraries, the
/// victim list, and the precomputed coupling-component sizes (the
/// union-find over the whole netlist that every pruning pass needs).
/// Cheap to share behind an `Arc`: every field is immutable after
/// elaboration, so concurrent runs and queries need no locking.
#[derive(Debug)]
pub struct ResidentChip {
    db: ParasiticDb,
    design: Option<Design>,
    lib: Option<CellLibrary>,
    charlib: Option<CharLibrary>,
    driver_model: DriverModelKind,
    victims: Vec<PNetId>,
    component_sizes: Vec<usize>,
}

impl ResidentChip {
    /// Elaborate a design-less chip with uniform fixed-resistance drivers
    /// (the SPEF-only ingest path).
    pub fn fixed_resistance(db: ParasiticDb, ohms: f64, victims: Vec<PNetId>) -> Self {
        let component_sizes = coupling_component_sizes(&db);
        ResidentChip {
            db,
            design: None,
            lib: None,
            charlib: None,
            driver_model: DriverModelKind::FixedResistance(ohms),
            victims,
            component_sizes,
        }
    }

    /// Elaborate a full chip: parasitics plus gate-level design, cell
    /// library and characterized drivers.
    pub fn with_design(
        db: ParasiticDb,
        design: Design,
        lib: CellLibrary,
        charlib: CharLibrary,
        driver_model: DriverModelKind,
        victims: Vec<PNetId>,
    ) -> Self {
        let component_sizes = coupling_component_sizes(&db);
        ResidentChip {
            db,
            design: Some(design),
            lib: Some(lib),
            charlib: Some(charlib),
            driver_model,
            victims,
            component_sizes,
        }
    }

    /// Elaborate the DSP-like block `config` generates, audited on its
    /// latch-input victims with the nonlinear cell model — the chip of the
    /// batch sign-off, of a served DSP session and of its shard workers.
    ///
    /// # Errors
    ///
    /// A failure of the one-time characterization ([`CharLibrary::cached`]).
    pub fn dsp(config: &DspConfig) -> Result<Self, CellError> {
        let lib = CellLibrary::standard_025();
        let block = generate(config, &Technology::c025(), &lib);
        let charlib = CharLibrary::cached(&DRIVER_CELLS)?;
        let victims = block.victims();
        Ok(Self::with_design(
            block.parasitics,
            block.design,
            lib,
            charlib,
            DriverModelKind::Nonlinear,
            victims,
        ))
    }

    /// A borrowed analysis context over the resident data — the same
    /// context the batch flow builds per invocation.
    pub fn ctx(&self) -> AnalysisContext<'_> {
        AnalysisContext {
            db: &self.db,
            design: self.design.as_ref(),
            lib: self.lib.as_ref(),
            charlib: self.charlib.as_ref(),
            driver_model: self.driver_model,
        }
    }

    /// The victim population this chip is audited over.
    pub fn victims(&self) -> &[PNetId] {
        &self.victims
    }

    /// Precomputed coupling-component sizes (indexable by net id).
    pub fn component_sizes(&self) -> &[usize] {
        &self.component_sizes
    }

    /// The resident parasitics.
    pub fn db(&self) -> &ParasiticDb {
        &self.db
    }

    /// Nets in the resident parasitics.
    pub fn num_nets(&self) -> usize {
        self.db.num_nets()
    }

    /// Whether `name` names one of the audited victims.
    pub fn is_victim(&self, name: &str) -> bool {
        self.db.find_net(name).is_some_and(|id| self.victims.contains(&id))
    }
}

/// A run-scoped, concurrently readable store of completed verdicts.
///
/// The engine inserts each cluster's [`NetVerdict`] the moment its job
/// finishes (computed, cached, or replayed from the journal), so readers
/// polling mid-run see partial results grow monotonically. Reads never
/// touch the advisory run lock — a query cannot block, or be blocked by,
/// the run itself.
#[derive(Debug, Default)]
pub struct VerdictSnapshot {
    done: Mutex<Published>,
    /// Monotonic publication counter — a lock-free heartbeat for stall
    /// watchdogs, bumped on every [`VerdictSnapshot::insert`]. Unlike
    /// [`VerdictSnapshot::len`] it never takes the verdict lock, so a
    /// watchdog polling it cannot contend with the engine's inserts or a
    /// client's verdict reads.
    beats: std::sync::atomic::AtomicU64,
}

/// Verdicts in order of first publication, plus each net's position.
#[derive(Debug, Default)]
struct Published {
    log: Vec<NetVerdict>,
    position: HashMap<String, usize>,
}

impl VerdictSnapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Publish one completed verdict (engine-side).
    pub fn insert(&self, verdict: NetVerdict) {
        let mut done = self.done.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let Published { log, position } = &mut *done;
        match position.entry(verdict.name.clone()) {
            // A re-publication replaces the verdict where it first landed.
            Entry::Occupied(at) => log[*at.get()] = verdict,
            Entry::Vacant(slot) => {
                slot.insert(log.len());
                log.push(verdict);
            }
        }
        drop(done);
        self.beats.fetch_add(1, std::sync::atomic::Ordering::Release);
    }

    /// Verdict publications so far (monotonic, lock-free). Counts every
    /// insert — including a re-publication of an already-present net — so
    /// it is a progress *heartbeat*, not a distinct-verdict count.
    pub fn beats(&self) -> u64 {
        self.beats.load(std::sync::atomic::Ordering::Acquire)
    }

    /// Record a liveness beat without publishing a verdict — how a shard
    /// coordinator keeps the stall watchdog informed while workers are
    /// between verdicts (an idle-but-alive worker is not a stall).
    pub fn beat(&self) {
        self.beats.fetch_add(1, std::sync::atomic::Ordering::Release);
    }

    /// The verdict for one net, if its cluster has completed.
    pub fn get(&self, name: &str) -> Option<NetVerdict> {
        let done = self.done.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        done.position.get(name).map(|&at| done.log[at].clone())
    }

    /// Completed verdicts so far.
    pub fn len(&self) -> usize {
        self.done.lock().unwrap_or_else(std::sync::PoisonError::into_inner).log.len()
    }

    /// Whether no verdict has completed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every completed verdict, sorted by net name (a deterministic order
    /// for a partial set — worst-first only makes sense once the run has
    /// merged).
    pub fn all(&self) -> Vec<NetVerdict> {
        let mut out = self.since(0);
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }

    /// The verdicts first published at or after position `cursor`, in
    /// publication order; `cursor` plus the returned length is the next
    /// cursor. A net published again keeps its first position, so a reader
    /// advancing a cursor meets every net exactly once and copies only what
    /// is new to it.
    pub fn since(&self, cursor: usize) -> Vec<NetVerdict> {
        let done = self.done.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        done.log.get(cursor..).unwrap_or_default().to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, EngineConfig};
    use pcv_netlist::{NetNodeRef, NetParasitics};
    use pcv_xtalk::Severity;
    use std::sync::Arc;

    fn chip() -> ResidentChip {
        let mut db = ParasiticDb::new();
        let mk = |name: &str, cg: f64| {
            let mut n = NetParasitics::new(name);
            let n1 = n.add_node();
            n.add_resistor(0, n1, 200.0);
            n.add_ground_cap(n1, cg);
            n.mark_load(n1);
            n
        };
        let hot = db.add_net(mk("hot", 5e-15));
        let cold = db.add_net(mk("cold", 50e-15));
        let agg = db.add_net(mk("agg", 5e-15));
        db.add_coupling(NetNodeRef { net: hot, node: 1 }, NetNodeRef { net: agg, node: 1 }, 60e-15);
        db.add_coupling(
            NetNodeRef { net: cold, node: 1 },
            NetNodeRef { net: agg, node: 1 },
            0.4e-15,
        );
        ResidentChip::fixed_resistance(db, 2000.0, vec![cold, hot])
    }

    #[test]
    fn snapshot_collects_every_completed_verdict() {
        let chip = chip();
        let snap = Arc::new(VerdictSnapshot::new());
        let engine = Engine::new(EngineConfig { workers: 2, ..Default::default() });
        let report = engine.verify_resident(&chip, Some(&snap)).unwrap();
        assert_eq!(snap.len(), report.chip.verdicts.len());
        let hot = snap.get("hot").expect("hot completed");
        let in_report = report.chip.verdicts.iter().find(|v| v.name == "hot").unwrap();
        assert_eq!(&hot, in_report);
        assert!(snap.get("no_such_net").is_none());
        let all = snap.all();
        assert_eq!(all.len(), 2);
        assert!(all.windows(2).all(|w| w[0].name <= w[1].name), "sorted by name");
        assert!(all.iter().all(|v| v.severity >= Severity::Clean));
    }

    #[test]
    fn victim_lookup_by_name() {
        let chip = chip();
        assert!(chip.is_victim("hot"));
        assert!(chip.is_victim("cold"));
        assert!(!chip.is_victim("agg"), "aggressors are not victims");
        assert_eq!(chip.num_nets(), 3);
        assert_eq!(chip.component_sizes().len(), 3);
    }

    fn verdict(name: &str, worst_frac: f64) -> NetVerdict {
        NetVerdict {
            net: PNetId(0),
            name: name.to_owned(),
            rise_peak: worst_frac,
            fall_peak: 0.0,
            worst_frac,
            severity: Severity::Clean,
            cluster_size: 1,
            neighbors_before: 0,
            receiver: None,
        }
    }

    #[test]
    fn cursor_reads_follow_publication_order() {
        let snap = VerdictSnapshot::new();
        assert!(snap.since(0).is_empty());
        for name in ["m", "z", "a"] {
            snap.insert(verdict(name, 0.1));
        }
        let names = |vs: Vec<NetVerdict>| vs.into_iter().map(|v| v.name).collect::<Vec<_>>();
        assert_eq!(names(snap.since(0)), ["m", "z", "a"], "publication order, not name order");
        assert_eq!(names(snap.since(2)), ["a"]);
        assert!(snap.since(3).is_empty());
        assert!(snap.since(99).is_empty(), "a cursor past the end reads nothing");
        snap.insert(verdict("k", 0.1));
        assert_eq!(names(snap.since(3)), ["k"]);
        assert_eq!(names(snap.all()), ["a", "k", "m", "z"]);
    }

    #[test]
    fn a_republished_net_is_not_new_to_a_cursor() {
        let snap = VerdictSnapshot::new();
        snap.insert(verdict("a", 0.1));
        snap.insert(verdict("b", 0.2));
        let cursor = snap.since(0).len();
        snap.insert(verdict("a", 0.3));
        assert!(snap.since(cursor).is_empty(), "the reader already met `a`");
        assert_eq!((snap.len(), snap.beats()), (2, 3), "a beat, not a verdict");
        // Every read serves the latest publication, where the first landed.
        assert_eq!(snap.get("a").unwrap().worst_frac, 0.3);
        let all = snap.since(0);
        assert_eq!((all[0].name.as_str(), all[0].worst_frac), ("a", 0.3));
        assert_eq!(all[1].name, "b");
    }

    #[test]
    fn a_cursor_meets_every_net_once_while_inserts_race_it() {
        const N: usize = 2000;
        let snap = VerdictSnapshot::new();
        let start = std::sync::Barrier::new(2);
        let read = std::thread::scope(|scope| {
            scope.spawn(|| {
                start.wait();
                for k in 0..N {
                    snap.insert(verdict(&format!("n{k}"), 0.1));
                    // Re-publications land between the reader's batches too.
                    snap.insert(verdict(&format!("n{}", k / 2), 0.2));
                }
            });
            let reader = scope.spawn(|| {
                start.wait();
                let mut read: Vec<String> = Vec::new();
                while read.len() < N {
                    let batch = snap.since(read.len());
                    if batch.is_empty() {
                        std::thread::yield_now();
                    }
                    read.extend(batch.into_iter().map(|v| v.name));
                }
                read
            });
            reader.join().expect("reader")
        });
        let want: Vec<String> = (0..N).map(|k| format!("n{k}")).collect();
        assert_eq!(read, want, "every net exactly once, in publication order");
    }
}
