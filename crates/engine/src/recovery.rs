//! The per-cluster recovery ladder: what each rung changes, how a failure
//! escalates, the numeric fault classes a drill can inject, and the
//! degradation records.
//!
//! The paper's deliverable is chip-level *signoff*: every victim net must
//! end with a verdict. A cluster whose reduction or transient fails must
//! therefore not vanish from the report — it has to be retried with a more
//! robust (if slower or more conservative) strategy, and if everything
//! fails, conservatively flagged. The engine hands each cache-missed
//! cluster's analysis to this module as a closure, and the ladder walks
//! these rungs until an attempt stands:
//!
//! | rung | mitigation | cures |
//! |---|---|---|
//! | 1 [`Baseline`](RecoveryRung::Baseline) | configured analysis, unchanged | — |
//! | 2 [`GminBoost`](RecoveryRung::GminBoost) | multiply `gmin` by `GMIN_BOOST` (10³) | `NotPositiveDefinite` Cholesky breakdowns on near-floating nodes |
//! | 3 [`ReducedOrder`](RecoveryRung::ReducedOrder) | halve the block-Lanczos ceiling | Lanczos breakdown, non-finite projections/waveforms |
//! | 4 [`SofterNewton`](RecoveryRung::SofterNewton) | scale `max_step_fraction` by `STEP_SHRINK` (0.25) and swap nonlinear driver surfaces for the smooth Thevenin (timing-library) model | Newton `NoConvergence` (kink limit cycles) |
//! | 5 [`SpiceFallback`](RecoveryRung::SpiceFallback) | bypass MOR: full MNA transient through `pcv-spice` | budget exhaustion, panics, anything MOR-shaped |
//! | 6 [`WorstCase`](RecoveryRung::WorstCase) | no analysis: [`JournalEntry::worst_case`], rail to rail (`worst_frac = 1.0`, violation) | everything else |
//!
//! Mitigations are *cumulative*: each rung keeps every lower rung's, so the
//! options at a rung are a pure function of the rung, not of the failure
//! path that led there. Every reduced-transient attempt, baseline included,
//! runs under `NEWTON_BUDGET` Newton iterations and `MAX_TRAN_STEPS`
//! accepted steps: deterministic stall protection that cannot perturb a
//! healthy run (a wall-clock deadline would make degradation depend on
//! machine speed). The SPICE rung runs unbudgeted.
//!
//! Escalation is *typed*: each failure class routes to the rung that
//! addresses it (see [`route`]), never below the next rung up, so the walk
//! is strictly monotone and terminates. A panic carries no type and goes
//! straight to `SpiceFallback`. Everything here is a pure function of the
//! victim, the configuration and the fault plan — no wall-clock, no
//! randomness — so a recovered report is byte-identical across worker
//! counts.

use crate::fault::Plan;
use crate::record::JournalEntry;
use crate::scheduler;
use pcv_mor::MorError;
use pcv_netlist::PNetId;
use pcv_obs::EngineEvent;
use pcv_trace::json::{Obj, Value};
use pcv_xtalk::drivers::DriverModelKind;
use pcv_xtalk::{AnalysisContext, AnalysisOptions, EngineKind, ReceiverVerdict, XtalkError};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Multiplier applied to `gmin` at [`RecoveryRung::GminBoost`] and up.
const GMIN_BOOST: f64 = 1e3;
/// Multiplier applied to the MOR `max_step_fraction` at
/// [`RecoveryRung::SofterNewton`] and up.
const STEP_SHRINK: f64 = 0.25;
/// Per-attempt Newton-iteration budget of the reduced transient.
const NEWTON_BUDGET: usize = 2_000_000;
/// Per-attempt accepted-step budget of the reduced transient.
const MAX_TRAN_STEPS: usize = 200_000;

/// One rung of the recovery ladder, in escalation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RecoveryRung {
    /// The configured analysis, unchanged.
    Baseline,
    /// Re-reduce with boosted `gmin` regularization.
    GminBoost,
    /// Retry with half the block-Lanczos ceiling (smaller ROM).
    ReducedOrder,
    /// Shrink the max timestep and swap nonlinear drivers for Thevenin.
    SofterNewton,
    /// Bypass MOR: full MNA transient through `pcv-spice`.
    SpiceFallback,
    /// Conservative rail-to-rail verdict; the cluster counts as degraded
    /// but never silently missing.
    WorstCase,
}

impl RecoveryRung {
    /// All rungs, in escalation order.
    pub const ALL: [RecoveryRung; 6] = [
        RecoveryRung::Baseline,
        RecoveryRung::GminBoost,
        RecoveryRung::ReducedOrder,
        RecoveryRung::SofterNewton,
        RecoveryRung::SpiceFallback,
        RecoveryRung::WorstCase,
    ];

    /// Stable lower-case name used in reports, traces and JSON.
    pub fn name(self) -> &'static str {
        match self {
            RecoveryRung::Baseline => "baseline",
            RecoveryRung::GminBoost => "gmin_boost",
            RecoveryRung::ReducedOrder => "reduced_order",
            RecoveryRung::SofterNewton => "softer_newton",
            RecoveryRung::SpiceFallback => "spice_fallback",
            RecoveryRung::WorstCase => "worst_case",
        }
    }

    /// Look a rung up by its stable name.
    pub fn from_name(name: &str) -> Option<RecoveryRung> {
        RecoveryRung::ALL.iter().copied().find(|r| r.name() == name)
    }

    /// The next rung up, or `None` from [`RecoveryRung::WorstCase`].
    pub fn next(self) -> Option<RecoveryRung> {
        let i = RecoveryRung::ALL.iter().position(|&r| r == self).expect("rung in ALL");
        RecoveryRung::ALL.get(i + 1).copied()
    }
}

/// Route a typed failure to the cheapest rung that addresses it. The
/// ladder escalates to `max(route(err), current.next())`, so the walk never
/// revisits a rung.
pub fn route(err: &XtalkError) -> RecoveryRung {
    match err {
        XtalkError::Mor(MorError::Numeric(pcv_sparse::Error::NotPositiveDefinite { .. })) => {
            RecoveryRung::GminBoost
        }
        XtalkError::Mor(MorError::NoConvergence { .. }) => RecoveryRung::SofterNewton,
        XtalkError::Mor(MorError::BudgetExhausted { .. } | MorError::Cancelled { .. }) => {
            RecoveryRung::SpiceFallback
        }
        // Reduction breakdowns, non-finite projections/waveforms and other
        // numeric failures: a smaller Krylov space is the cheapest retry.
        XtalkError::Mor(_) => RecoveryRung::ReducedOrder,
        // The SPICE reference already is the last analysis rung; anything
        // else (missing drivers, config inconsistencies, unmeasurable
        // waveforms) cannot be cured by retrying the same analysis.
        _ => RecoveryRung::WorstCase,
    }
}

/// Analysis options for one ladder rung: the budgets at every rung, then
/// each mitigation from its rung up.
pub(crate) fn rung_options(analysis: &AnalysisOptions, rung: RecoveryRung) -> AnalysisOptions {
    let mut opts = analysis.clone();
    opts.mor.newton_budget = opts.mor.newton_budget.min(NEWTON_BUDGET);
    opts.mor.max_tran_steps = opts.mor.max_tran_steps.min(MAX_TRAN_STEPS);
    if rung >= RecoveryRung::GminBoost {
        opts.gmin_scale *= GMIN_BOOST;
    }
    if rung >= RecoveryRung::ReducedOrder {
        if let EngineKind::Mor { block_iters } = opts.engine {
            opts.engine = EngineKind::Mor { block_iters: (block_iters / 2).max(1) };
        }
    }
    if rung >= RecoveryRung::SofterNewton {
        opts.mor.max_step_fraction *= STEP_SHRINK;
    }
    if rung >= RecoveryRung::SpiceFallback {
        opts.engine = EngineKind::Spice;
    }
    opts
}

/// Context for one ladder rung: from [`RecoveryRung::SofterNewton`] up,
/// nonlinear driver surfaces are swapped for the Thevenin model.
fn rung_context<'a>(ctx: &AnalysisContext<'a>, rung: RecoveryRung) -> AnalysisContext<'a> {
    let mut adjusted = *ctx;
    if rung >= RecoveryRung::SofterNewton && adjusted.driver_model == DriverModelKind::Nonlinear {
        adjusted.driver_model = DriverModelKind::TimingLibrary;
    }
    adjusted
}

/// Realize one injected fault for one ladder attempt. `Panic` unwinds like
/// a real job bug; `NonSpd` and `NaN` return the exact typed errors the
/// numeric guards produce (so routing is exercised end-to-end without
/// machine-dependent arithmetic); `Slow` collapses the Newton budget so the
/// *real* budget mechanism trips.
fn inject(kind: FaultKind, name: &str, opts: &mut AnalysisOptions) -> Result<(), XtalkError> {
    match kind {
        FaultKind::Panic => panic!("injected fault in cluster job for {name}"),
        FaultKind::NonSpd => {
            Err(XtalkError::Mor(MorError::Numeric(pcv_sparse::Error::NotPositiveDefinite {
                col: 0,
                pivot: -1.0,
            })))
        }
        FaultKind::NaN => Err(XtalkError::Mor(MorError::NonFinite { what: "injected nan fault" })),
        FaultKind::Slow => {
            opts.mor.newton_budget = 1;
            Ok(())
        }
    }
}

/// What one successful ladder attempt (a full analysis at one rung) yields.
pub(crate) struct AttemptOk {
    pub(crate) rise: f64,
    pub(crate) fall: f64,
    pub(crate) receiver: Option<ReceiverVerdict>,
    pub(crate) analysis: Duration,
    pub(crate) receiver_time: Duration,
}

/// Walk the ladder for the cache-missed cluster of victim `name`
/// (fingerprint `fp`): run `attempt` at each rung's context and options
/// until it succeeds; past the last analysis rung the record is the
/// conservative [`JournalEntry::worst_case`], so every victim ends with a
/// verdict. `plan` injects the drills' faults, the attempt index being the
/// occurrence; `emit` receives the retry and degradation events. Returns
/// the record plus the standing attempt's analysis and receiver-check
/// times.
pub(crate) fn walk(
    ctx: &AnalysisContext<'_>,
    analysis: &AnalysisOptions,
    plan: &Plan<FaultKind>,
    name: &str,
    fp: u64,
    emit: &dyn Fn(&dyn Fn() -> EngineEvent),
    mut attempt: impl FnMut(&AnalysisContext<'_>, &AnalysisOptions) -> Result<AttemptOk, XtalkError>,
) -> (JournalEntry, Duration, Duration) {
    let mut attempts: Vec<Attempt> = Vec::new();
    let mut rung = RecoveryRung::Baseline;
    let standing = loop {
        if rung == RecoveryRung::WorstCase {
            pcv_trace::count("engine.recovery.worst_case", 1);
            break None;
        }
        if rung > RecoveryRung::Baseline {
            pcv_trace::count("engine.recovery.retries", 1);
        }
        let mut opts = rung_options(analysis, rung);
        let actx = rung_context(ctx, rung);
        // A one-shot rule hits the baseline only, so the first retry rung
        // sees a healthy cluster.
        let inject_here = plan.armed(name, attempts.len() as u32).next().copied();
        let attempt_start = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if let Some(kind) = inject_here {
                inject(kind, name, &mut opts)?;
            }
            attempt(&actx, &opts)
        }));
        let (reason, target) = match outcome {
            Ok(Ok(ok)) => break Some(ok),
            Ok(Err(err)) => {
                if matches!(&err, XtalkError::Mor(MorError::BudgetExhausted { .. })) {
                    pcv_trace::count("engine.recovery.budget_exhausted", 1);
                }
                (err.to_string(), route(&err))
            }
            Err(payload) => {
                let message = scheduler::panic_message(payload);
                (format!("job panicked: {message}"), RecoveryRung::SpiceFallback)
            }
        };
        attempts.push(Attempt { rung, reason, elapsed: attempt_start.elapsed() });
        rung = rung.next().expect("worst case breaks the loop").max(target);
        emit(&|| EngineEvent::ClusterRetried { name: name.to_owned(), rung: rung.name() });
    };
    if rung != RecoveryRung::Baseline {
        pcv_trace::count("engine.recovery.degraded", 1);
        if rung == RecoveryRung::SpiceFallback {
            pcv_trace::count("engine.recovery.fallback_spice", 1);
        }
        emit(&|| EngineEvent::ClusterDegraded { name: name.to_owned(), rung: rung.name() });
    }
    match standing {
        Some(ok) => {
            let trail =
                (rung != RecoveryRung::Baseline).then_some(Trail { recovered: rung, attempts });
            let record = JournalEntry::new(name, fp, ok.rise, ok.fall, ok.receiver, trail);
            (record, ok.analysis, ok.receiver_time)
        }
        None => {
            let record = JournalEntry::worst_case(name, fp, analysis.vdd, attempts);
            (record, Duration::ZERO, Duration::ZERO)
        }
    }
}

/// The failure class a [`Plan`] injects into a cluster job — keyed by
/// victim *name* (scheduling- and worker-count-independent), the
/// occurrence being the ladder attempt: a rule with `fires` 1 hits the
/// baseline attempt only, so the first retry rung sees a healthy cluster;
/// [`ALWAYS`](crate::fault::ALWAYS) hits every rung (a
/// [`FaultKind::Panic`] can then only end worst-cased).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Synthesize a `NotPositiveDefinite` Cholesky breakdown (routes to
    /// [`RecoveryRung::GminBoost`]).
    NonSpd,
    /// Panic inside the job (exercises per-attempt unwind isolation).
    Panic,
    /// Synthesize a non-finite-value error (routes to
    /// [`RecoveryRung::ReducedOrder`]).
    NaN,
    /// Collapse the Newton budget to 1 so the *real* budget mechanism
    /// trips (routes to [`RecoveryRung::SpiceFallback`]).
    Slow,
}

impl FaultKind {
    /// Stable lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::NonSpd => "non_spd",
            FaultKind::Panic => "panic",
            FaultKind::NaN => "nan",
            FaultKind::Slow => "slow",
        }
    }
}

/// One failed ladder attempt: which rung, why it failed, and how long the
/// failing analysis ran before giving up.
///
/// `elapsed` is wall-clock and therefore **never** enters the
/// deterministic signoff document (which must be byte-identical across
/// worker counts and machines) nor any stored record — an attempt read
/// back from disk has `elapsed` zero. It exists so the run ledger and
/// operator stats can attribute the *cost* of recovery, not just its path.
#[derive(Debug, Clone, PartialEq)]
pub struct Attempt {
    /// The rung the attempt ran at.
    pub rung: RecoveryRung,
    /// Why it failed (error or panic message).
    pub reason: String,
    /// Wall-clock time the failing attempt consumed.
    pub elapsed: Duration,
}

/// A degradation trail: every failed attempt (rung + reason) and the rung
/// whose result finally stood. The one trail type — a stored cluster
/// record ([`crate::JournalEntry`]) carries it, a report's
/// [`Degradation`] embeds it, and one writer spells it in both documents
/// that show it (the journal line and the sign-off).
#[derive(Debug, Clone, PartialEq)]
pub struct Trail {
    /// The rung that produced the standing verdict
    /// ([`RecoveryRung::WorstCase`] when every analysis failed).
    pub recovered: RecoveryRung,
    /// Every attempt that failed, in ladder order.
    pub attempts: Vec<Attempt>,
}

impl Trail {
    /// Total wall-clock time spent inside the failed attempts — the price
    /// the recovery ladder paid before a verdict stood.
    pub fn recovery_time(&self) -> Duration {
        self.attempts.iter().map(|a| a.elapsed).sum()
    }

    /// Write `"recovered":…,"attempts":[{"rung":…,"reason":…},…]` into an
    /// open JSON object — the members a trail contributes to the sign-off's
    /// degradation entry and the journal's `degraded` object. Attempt
    /// durations are wall-clock and deliberately omitted: both documents
    /// must stay byte-identical across worker counts and machines.
    pub(crate) fn write_members(&self, o: &mut Obj<'_>) {
        o.str("recovered", self.recovered.name());
        o.arr("attempts", |a| {
            for at in &self.attempts {
                a.obj(|o| {
                    o.str("rung", at.rung.name()).str("reason", &at.reason);
                });
            }
        });
    }

    /// Read the members [`Trail::write_members`] wrote out of their
    /// object; `None` for anything malformed or an unknown rung name.
    pub(crate) fn from_json(v: &Value) -> Option<Trail> {
        let mut attempts = Vec::new();
        for a in v.get("attempts")?.as_arr()? {
            attempts.push(Attempt {
                rung: RecoveryRung::from_name(a.get("rung")?.as_str()?)?,
                reason: a.get("reason")?.as_str()?.to_owned(),
                elapsed: Duration::ZERO,
            });
        }
        Some(Trail { recovered: RecoveryRung::from_name(v.get("recovered")?.as_str()?)?, attempts })
    }
}

/// How one cluster was degraded: the victim and its [`Trail`]. Joinable
/// with [`EngineError`](crate::EngineError) records through `net`/`name`.
/// Dereferences to the trail, so `d.recovered` and `d.attempts` read
/// straight through.
#[derive(Debug, Clone, PartialEq)]
pub struct Degradation {
    /// The victim that needed recovery.
    pub net: PNetId,
    /// Victim net name.
    pub name: String,
    /// What the ladder tried and where it stopped.
    pub trail: Trail,
}

impl std::ops::Deref for Degradation {
    type Target = Trail;

    fn deref(&self) -> &Trail {
        &self.trail
    }
}

impl std::fmt::Display for Degradation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: recovered at {} after", self.name, self.recovered.name())?;
        for a in &self.attempts {
            write!(f, " [{}: {}]", a.rung.name(), a.reason)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::ALWAYS;

    #[test]
    fn rungs_escalate_in_order_and_terminate() {
        let mut rung = RecoveryRung::Baseline;
        let mut seen = vec![rung];
        while let Some(next) = rung.next() {
            assert!(next > rung, "{next:?} must escalate past {rung:?}");
            seen.push(next);
            rung = next;
        }
        assert_eq!(seen, RecoveryRung::ALL);
        assert_eq!(rung, RecoveryRung::WorstCase);
        assert!(rung.next().is_none());
    }

    #[test]
    fn routing_matches_failure_classes() {
        let non_spd = XtalkError::Mor(MorError::Numeric(pcv_sparse::Error::NotPositiveDefinite {
            col: 0,
            pivot: -1.0,
        }));
        assert_eq!(route(&non_spd), RecoveryRung::GminBoost);
        let no_conv = XtalkError::Mor(MorError::NoConvergence { t: 1e-9 });
        assert_eq!(route(&no_conv), RecoveryRung::SofterNewton);
        let budget = XtalkError::Mor(MorError::BudgetExhausted { t: 1e-9 });
        assert_eq!(route(&budget), RecoveryRung::SpiceFallback);
        let cancel = XtalkError::Mor(MorError::Cancelled { stage: "block lanczos" });
        assert_eq!(route(&cancel), RecoveryRung::SpiceFallback);
        let nonfinite = XtalkError::Mor(MorError::NonFinite { what: "x" });
        assert_eq!(route(&nonfinite), RecoveryRung::ReducedOrder);
        let config = XtalkError::InvalidConfig { what: "x" };
        assert_eq!(route(&config), RecoveryRung::WorstCase);
    }

    #[test]
    fn by_name_faults_shadow_seeded_ones() {
        let plan =
            Plan::new().at("hot", ALWAYS, FaultKind::Panic).seeded(42, 1.0, 1, FaultKind::NaN);
        let at = |name, nth| plan.armed(name, nth).copied().collect::<Vec<_>>();
        assert_eq!(at("hot", 0), [FaultKind::Panic]);
        assert_eq!(at("hot", 5), [FaultKind::Panic], "persistent: every rung");
        assert_eq!(at("anything", 0), [FaultKind::NaN]);
        assert_eq!(at("anything", 1), [], "transient: baseline only");
    }

    #[test]
    fn seeded_faults_are_deterministic_and_seed_sensitive() {
        let a = Plan::new().seeded(7, 0.5, 1, FaultKind::Slow);
        let b = Plan::new().seeded(7, 0.5, 1, FaultKind::Slow);
        let c = Plan::new().seeded(8, 0.5, 1, FaultKind::Slow);
        let names: Vec<String> = (0..64).map(|i| format!("net_{i}")).collect();
        let pick = |p: &Plan<FaultKind>| -> Vec<bool> {
            names.iter().map(|n| p.armed(n, 0).next().is_some()).collect()
        };
        assert_eq!(pick(&a), pick(&b), "same seed, same faults");
        // The pick is pinned, not just pure: chaos suites name the victims
        // a seed faults, so a drifting hash silently changes what they drill.
        let picked = pick(&a);
        let faulted: Vec<usize> = (0..32).filter(|&i| picked[i]).collect();
        assert_eq!(faulted, [0, 2, 4, 7, 8, 9, 10, 11, 12, 13, 15, 17, 18, 21, 23, 24, 27, 29]);
        assert_ne!(pick(&a), pick(&c), "different seed, different faults");
        let hits = pick(&a).iter().filter(|&&x| x).count();
        assert!(hits > 8 && hits < 56, "p=0.5 should fault roughly half, got {hits}/64");
    }

    #[test]
    fn probability_extremes() {
        let none = Plan::new().seeded(1, 0.0, 1, FaultKind::NaN);
        let all = Plan::new().seeded(1, 1.0, 1, FaultKind::NaN);
        for name in ["a", "b", "c", "longer_net_name_7"] {
            assert!(none.armed(name, 0).next().is_none());
            assert!(all.armed(name, 0).next().is_some());
        }
    }

    #[test]
    fn degradation_displays_path() {
        let d = Degradation {
            net: PNetId(0),
            name: "bus0_2".into(),
            trail: Trail {
                recovered: RecoveryRung::GminBoost,
                attempts: vec![Attempt {
                    rung: RecoveryRung::Baseline,
                    reason: "matrix is not positive definite".into(),
                    elapsed: Duration::from_millis(3),
                }],
            },
        };
        let s = d.to_string();
        assert!(s.contains("bus0_2"));
        assert!(s.contains("gmin_boost"));
        assert!(s.contains("positive definite"));
        assert_eq!(d.recovery_time(), Duration::from_millis(3));
    }
}
