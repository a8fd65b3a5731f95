//! The per-cluster recovery ladder: escalation policy, the numeric fault
//! classes a drill can inject, and degradation records.
//!
//! The paper's deliverable is chip-level *signoff*: every victim net must
//! end with a verdict. A cluster whose reduction or transient fails must
//! therefore not vanish from the report — it has to be retried with a more
//! robust (if slower or more conservative) strategy, and if everything
//! fails, conservatively flagged. This module defines the ladder the engine
//! walks:
//!
//! 1. [`RecoveryRung::Baseline`] — the configured analysis, unchanged.
//! 2. [`RecoveryRung::GminBoost`] — boost the `gmin` regularization; the
//!    cure for a conductance matrix that Cholesky rejects as not positive
//!    definite (rounding on near-floating nodes).
//! 3. [`RecoveryRung::ReducedOrder`] — halve the block-Lanczos iteration
//!    count; a smaller Krylov space sidesteps breakdown and non-finite
//!    projections at some accuracy cost.
//! 4. [`RecoveryRung::SofterNewton`] — shrink the maximum timestep and swap
//!    nonlinear driver surfaces for the Thevenin (timing-library) model,
//!    whose smooth I–V curve cannot trap Newton in a kink limit cycle.
//! 5. [`RecoveryRung::SpiceFallback`] — bypass MOR entirely and run the
//!    unreduced cluster through the `pcv-spice` MNA engine.
//! 6. [`RecoveryRung::WorstCase`] — give up analyzing and emit a
//!    conservative rail-to-rail verdict (`worst_frac = 1.0`, violation).
//!
//! Escalation is *typed*: each failure class routes to the rung that
//! addresses it (see [`route`]), never below the next rung up, so the walk
//! is strictly monotone and terminates. Everything here is a pure function
//! of the victim and the configuration — no wall-clock, no randomness — so
//! a recovered report is byte-identical across worker counts.

use pcv_mor::MorError;
use pcv_netlist::PNetId;
use pcv_trace::json::{write_str, Value};
use pcv_xtalk::XtalkError;
use std::fmt::Write as _;
use std::time::Duration;

/// One rung of the recovery ladder, in escalation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RecoveryRung {
    /// The configured analysis, unchanged.
    Baseline,
    /// Re-reduce with boosted `gmin` regularization.
    GminBoost,
    /// Retry with half the block-Lanczos iterations (smaller ROM).
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
/// caller escalates to `max(route(err), current.next())` so the walk never
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

/// The failure class a [`Plan`](crate::fault::Plan) injects into a cluster
/// job — keyed by victim *name* (scheduling- and worker-count-independent),
/// the occurrence being the ladder attempt: a rule with `fires` 1 hits the
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

    /// Append `"recovered":…,"attempts":[{"rung":…,"reason":…},…]` — the
    /// members a trail contributes to the JSON object that shows it (the
    /// caller owns the braces and any members of its own). Attempt
    /// durations are wall-clock and deliberately omitted: both documents
    /// must stay byte-identical across worker counts and machines.
    pub(crate) fn write_json_members(&self, out: &mut String) {
        // Rung names need no escaping.
        let _ = write!(out, "\"recovered\":\"{}\",\"attempts\":[", self.recovered.name());
        for (i, a) in self.attempts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"rung\":\"{}\",\"reason\":", a.rung.name());
            write_str(out, &a.reason);
            out.push('}');
        }
        out.push(']');
    }

    /// Read the members [`Trail::write_json_members`] wrote out of their
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
    use crate::fault::{Plan, ALWAYS};

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
