//! The time axis both transient engines step along: the breakpoint schedule,
//! the step-size policy, the choice of integration method and the capacitor
//! companion under that method.
//!
//! `pcv-mor`'s reduced transient is judged against `pcv-spice`'s MNA transient
//! (the paper's Fig. 3), which means something only while both integrate
//! alike, so these decisions are spelled here once. Each engine keeps its own
//! loop around a [`Stepper`]: their solves, errors and recording differ.
//!
//! A walk may take two stretches in one step, where stepping could show
//! nothing the step does not:
//!
//! - A *hold* ([`Stepper::hold`]) at the start. Until its first stimulus
//!   moves, every source and device draws what the DC solve used, so the DC
//!   operating point is the exact trajectory; the walk records it once more
//!   at the end of that quiet prefix and restarts there as after any
//!   breakpoint (`h_init`, backward Euler), so the grid after it is the
//!   grid a stepped prefix ends on. All three walks hold: the reduced
//!   Newton and modal solvers and the SPICE transient, which is how a
//!   receiver fed a held glitch, flat bit for bit, holds as well.
//! - A *coast* ([`Stepper::coast`]) at the end, an engine's own decision:
//!   once the rest of the run can no longer show anything, it takes
//!   whatever is left of the span in one step, once no breakpoint lies
//!   ahead. The reduced transient's linear solver does, once every source
//!   has stopped changing and its modes' distance from their final values
//!   bounds every later sample within `vtol`; the walk up to that point is
//!   the one both engines step.

/// A run, and every stretch after a breakpoint, starts at this fraction of
/// the span (or at `hmax`, if that is smaller).
const RESTART_FRACTION: f64 = 1e-5;
/// Times closer than this fraction of `tstop` are one point of the axis.
const TINY_FRACTION: f64 = 1e-12;
/// Breakpoints closer than this (seconds) are one breakpoint.
const BREAKPOINT_DEDUP: f64 = 1e-18;
/// The controller's safety factor: a step whose estimate is `r` of the
/// tolerance would next be sized by `SAFETY·r^(-1/3)`.
const SAFETY: f64 = 0.9;
/// `SAFETY·r^(-1/3) ≥ 2` at or below this ratio: the next step doubles.
const DOUBLE_AT: f64 = (SAFETY / 2.0) * (SAFETY / 2.0) * (SAFETY / 2.0);
/// `SAFETY·r^(-1/3) < 1` above this ratio: the next step shrinks by it.
const SHRINK_ABOVE: f64 = SAFETY * SAFETY * SAFETY;
/// No rejection shrinks a step by more than this factor.
const MIN_FACTOR: f64 = 0.1;
/// A shrink factor is rounded down to a multiple of `1 / FACTOR_STEPS`.
const FACTOR_STEPS: f64 = 16.0;
/// A step whose solve does not converge is retried at a quarter of its size.
const REJECT_DIVISOR: f64 = 4.0;

/// The factor a step whose estimate is `err` times the tolerance shrinks by:
/// `SAFETY·err^(-1/3)`, at least [`MIN_FACTOR`], rounded down to a multiple
/// of `1 / FACTOR_STEPS`. Two walks whose estimates differ by rounding —
/// the reduced transient's two solvers — then size their steps alike, and
/// a solver's caches keyed by `α` see its bits repeat.
fn shrink(err: f64) -> f64 {
    ((SAFETY / err.cbrt()).max(MIN_FACTOR) * FACTOR_STEPS).floor() / FACTOR_STEPS
}

/// Integration method of one step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// First order and free of ringing: the first step of a run and the one
    /// after every breakpoint or rejection.
    BackwardEuler,
    /// Second order: every other step.
    Trapezoidal,
}

impl Method {
    /// `α` of the multistep derivative `ẋ ≈ α·x + β` over a step of `h`.
    #[inline]
    pub fn alpha(self, h: f64) -> f64 {
        match self {
            Method::BackwardEuler => 1.0 / h,
            Method::Trapezoidal => 2.0 / h,
        }
    }

    /// The history term `β` of `ẋ ≈ α·x + β` over a step of `h`, from the
    /// state `x` and its derivative `xdot` at the last accepted point.
    #[inline]
    pub fn history(self, h: f64, x: f64, xdot: f64) -> f64 {
        match self {
            Method::BackwardEuler => -x / h,
            Method::Trapezoidal => -2.0 * x / h - xdot,
        }
    }

    /// Companion of a linear capacitor over a step of `h`: `(geq, ieq)` with
    /// `i(v) = geq·v − ieq`, from the voltage across the capacitor and the
    /// current through it at the last accepted point.
    #[inline]
    pub fn companion(self, farads: f64, h: f64, v_prev: f64, i_prev: f64) -> (f64, f64) {
        match self {
            Method::BackwardEuler => {
                let geq = farads / h;
                (geq, geq * v_prev)
            }
            Method::Trapezoidal => {
                let geq = 2.0 * farads / h;
                (geq, geq * v_prev + i_prev)
            }
        }
    }

    /// Capacitor current at the end of an accepted step from `v_prev` to
    /// `v_new`: the next step's `i_prev`.
    #[inline]
    pub fn current(self, farads: f64, h: f64, v_new: f64, v_prev: f64, i_prev: f64) -> f64 {
        match self {
            Method::BackwardEuler => farads / h * (v_new - v_prev),
            Method::Trapezoidal => 2.0 * farads / h * (v_new - v_prev) - i_prev,
        }
    }
}

/// The walk from `0` to `tstop`: proposes a step, learns whether its solve
/// converged and how large its local-truncation estimate is, proposes the
/// next. Steps are sized by that estimate ([`Stepper::lte`]), never cross a
/// breakpoint, and restart small and with backward Euler after one.
///
/// An accepted step grows only by doubling, so that a run of them repeats
/// the bits of `α` and a solver's caches keyed by them hold; it shrinks by
/// `0.9·r^(-1/3)` (rounded down to a sixteenth) once its ratio `r` to the
/// tolerance passes 0.729, and a step with `r > 1` is rejected and retried
/// at that size.
///
/// ```
/// # use pcv_netlist::timestep::{Method, Stepper};
/// let mut stepper = Stepper::new(1e-9, 1e-2, vec![0.5e-9]).unwrap();
/// assert_eq!(stepper.next().unwrap().1, Method::BackwardEuler);
/// while let Some((_h, _method)) = stepper.next() {
///     // Solve, then weigh the estimate (`stepper.lte()`) against the
///     // tolerance; `false` means stay and retry smaller. A solve that does
///     // not converge answers with `rejected(min_step)` instead.
///     let _ = stepper.accepted(0.5);
/// }
/// assert!((stepper.t() - 1e-9).abs() <= 1e-21);
/// ```
#[derive(Debug)]
pub struct Stepper {
    tstop: f64,
    hmax: f64,
    h_init: f64,
    tiny: f64,
    /// Ascending, inside `(0, tstop)`; `bps[ahead..]` are still to come.
    bps: Vec<f64>,
    ahead: usize,
    t: f64,
    /// The step the policy wants; a proposal clamps it into `h_eff`, which
    /// is `0` until the first proposal.
    h: f64,
    h_eff: f64,
    method: Method,
    /// The sizes of the last two steps accepted since the walk last
    /// restarted (its start, a hold or a breakpoint), newest last, and how
    /// many points the walk holds since then (the restart point included,
    /// at most 3).
    widths: [f64; 2],
    known: usize,
    /// `1 / h` of the step whose bits the first member holds.
    per_h: (u64, f64),
    /// The last estimate formed, keyed by the method's order and the bits
    /// of the widths in units of the step: a walk forms each shape of its
    /// recent steps once (a run of equal steps, the steps after a doubling).
    lte_memo: Option<([u64; 3], Lte)>,
}

/// The local-truncation estimate of a proposed step as weights of a signal's
/// values: the third divided difference over the step's end and the last
/// three accepted points, times `h³/2`, after a trapezoidal step, and the
/// second over the last two, times `h²`, after a backward-Euler one. Both
/// are the leading term of the method's error over the step.
#[derive(Debug, Clone, Copy)]
pub struct Lte {
    /// Weights of the three newest accepted values, oldest first; the first
    /// is zero after backward Euler.
    past: [f64; 3],
    /// Weight of the value at the step's end.
    end: f64,
}

impl Lte {
    /// The estimate for one signal: `recent` holds its three newest
    /// accepted values, oldest first (any finite value where the walk has
    /// none since its last restart), and `end` its value at the proposed
    /// step's end.
    #[inline]
    pub fn estimate(&self, recent: &[f64; 3], end: f64) -> f64 {
        let [w0, w1, w2] = self.past;
        self.end * end + w2 * recent[2] + w1 * recent[1] + w0 * recent[0]
    }

    /// The largest ratio of a signal's estimate to its tolerance
    /// `abstol + reltol·|end|`, over `signals` (each as [`Lte::estimate`]
    /// takes it): what [`Stepper::accepted`] weighs. One division for the
    /// lot.
    pub fn ratio<'a>(
        &self,
        signals: impl IntoIterator<Item = (&'a [f64; 3], f64)>,
        abstol: f64,
        reltol: f64,
    ) -> f64 {
        let (mut worst, mut of) = (0.0, 1.0);
        for (recent, end) in signals {
            let (e, tol) = (self.estimate(recent, end).abs(), abstol + reltol * end.abs());
            if e * of > worst * tol {
                (worst, of) = (e, tol);
            }
        }
        worst / of
    }
}

impl Stepper {
    /// A walk over `(0, tstop]` in steps of at most
    /// `tstop · max_step_fraction` that lands on every breakpoint inside the
    /// span (others, and NaN, are dropped; the vector is reused).
    ///
    /// # Errors
    ///
    /// The name of the argument (`"tstop"` or `"max_step_fraction"`) that is
    /// not finite and positive.
    pub fn new(
        tstop: f64,
        max_step_fraction: f64,
        mut bps: Vec<f64>,
    ) -> Result<Self, &'static str> {
        for (what, value) in [("tstop", tstop), ("max_step_fraction", max_step_fraction)] {
            if !(value.is_finite() && value > 0.0) {
                return Err(what);
            }
        }
        bps.retain(|&b| b > 0.0 && b < tstop);
        bps.sort_by(f64::total_cmp);
        bps.dedup_by(|a, b| (*a - *b).abs() < BREAKPOINT_DEDUP);
        let hmax = tstop * max_step_fraction;
        let h_init = (tstop * RESTART_FRACTION).min(hmax);
        let tiny = tstop * TINY_FRACTION;
        let method = Method::BackwardEuler;
        Ok(Self {
            tstop,
            hmax,
            h_init,
            tiny,
            bps,
            ahead: 0,
            t: 0.0,
            h: h_init,
            h_eff: 0.0,
            method,
            widths: [0.0; 2],
            known: 1,
            per_h: (0, 0.0),
            lte_memo: None,
        })
    }

    /// The time of the last accepted point.
    pub fn t(&self) -> f64 {
        self.t
    }

    /// Propose the next step from [`Stepper::t`], or `None` at `tstop`; answer
    /// with [`Stepper::accepted`] or [`Stepper::rejected`].
    // Not an `Iterator`: the answer between two proposals is part of the walk.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<(f64, Method)> {
        if self.t >= self.tstop - self.tiny {
            return None;
        }
        // A breakpoint within `tiny` of `t` is where the walk already stands;
        // left in place it would never match again and hide all later ones.
        while self.bps.get(self.ahead).is_some_and(|&bp| bp <= self.t + self.tiny) {
            self.ahead += 1;
        }
        self.h_eff = self.h.min(self.hmax).min(self.tstop - self.t);
        if let Some(&bp) = self.bps.get(self.ahead) {
            self.h_eff = self.h_eff.min(bp - self.t);
        }
        Some((self.h_eff, self.method))
    }

    /// The estimate of the proposed step, or `None` when the walk since its
    /// last restart holds too few points for its method (its first two
    /// steps, which the restart keeps small) or it coasts
    /// ([`Stepper::coast`]).
    pub fn lte(&mut self) -> Option<Lte> {
        let n = match self.method {
            Method::BackwardEuler => 2,
            Method::Trapezoidal => 3,
        };
        if self.known < n || self.hmax.is_infinite() {
            return None;
        }
        let h = self.h_eff;
        if self.per_h.0 != h.to_bits() {
            self.per_h = (h.to_bits(), 1.0 / h);
        }
        let [older, last] = self.widths.map(|w| w * self.per_h.1);
        let key = [n as u64, last.to_bits(), if n == 3 { older.to_bits() } else { 0 }];
        if let Some((memo, lte)) = self.lte_memo {
            if memo == key {
                return Some(lte);
            }
        }
        // The divided difference's weights over the points `τ` (the last `n`
        // accepted and the step's end), `1 / Πⱼ≠ᵢ (τᵢ − τⱼ)`, in units of the
        // step: times as `(τ − end) / h`, from the steps' sizes, so that the
        // `hⁿ` of the scale cancels and every product stays of order one.
        // With the end at 0 and the newest point at −1, the older ones at
        // `a = −1 − last` and `b = a − older`:
        let a = -1.0 - last;
        let lte = if n == 2 {
            // Backward Euler: `h²` times the second difference over (a, −1, 0).
            let past = [0.0, 1.0 / (a * (a + 1.0)), 1.0 / (1.0 + a)];
            Lte { past, end: -1.0 / a }
        } else {
            // Trapezoidal: `h³/2` times the third difference over (b, a, −1, 0).
            let b = a - older;
            let past = [
                0.5 / ((b - a) * (b + 1.0) * b),
                0.5 / ((a - b) * (a + 1.0) * a),
                -0.5 / ((1.0 + b) * (1.0 + a)),
            ];
            Lte { past, end: 0.5 / (b * a) }
        };
        self.lte_memo = Some((key, lte));
        Some(lte)
    }

    /// The proposed step converged, and its estimate is `err` times the
    /// tolerance (`0` without one). Above 1 (or NaN) the step is rejected:
    /// the walk stays, shrinks the step and keeps its method, and `false` is
    /// returned. Otherwise advance and size the next step.
    pub fn accepted(&mut self, err: f64) -> bool {
        if err > 1.0 || err.is_nan() {
            self.h = self.h_eff * shrink(err);
            return false;
        }
        self.t += self.h_eff;
        if self.bps.get(self.ahead).is_some_and(|&bp| (self.t - bp).abs() <= self.tiny) {
            // On a breakpoint: restart small, and damp the trapezoidal
            // ringing a slope discontinuity would excite.
            self.ahead += 1;
            self.restart();
            return true;
        }
        self.method = Method::Trapezoidal;
        self.widths = [self.widths[1], self.h_eff];
        self.known = (self.known + 1).min(3);
        if err <= DOUBLE_AT {
            self.h = (2.0 * self.h).min(self.hmax);
        } else if err > SHRINK_ABOVE {
            self.h = self.h_eff * shrink(err);
        }
        true
    }

    /// Restart at `t`: `h_init` by backward Euler, with no history before it.
    fn restart(&mut self) {
        self.h = self.h_init;
        self.method = Method::BackwardEuler;
        self.widths = [0.0; 2];
        self.known = 1;
    }

    /// Start the walk with a hold: stand at `min(until, tstop)` as if every
    /// step up to it had been taken, passing every breakpoint up to that
    /// point, for an engine whose DC operating point is its exact solution
    /// over `[0, until]` (every stimulus at its DC value there). The engine
    /// records that point's sample — the `t = 0` one, bit for bit — and
    /// takes no step and no solve for it; its state, `ẋ` and capacitor
    /// currents stay those of the DC point. The next proposal is the
    /// restart after a breakpoint, `h_init` by backward Euler. `false`, and
    /// nothing changes, once a step has been proposed or unless `until`
    /// lies beyond `tiny`.
    pub fn hold(&mut self, until: f64) -> bool {
        if self.t != 0.0 || self.h_eff != 0.0 || until.is_nan() || until <= self.tiny {
            return false;
        }
        self.t = until.min(self.tstop);
        while self.bps.get(self.ahead).is_some_and(|&bp| bp <= self.t) {
            self.ahead += 1;
        }
        self.restart();
        true
    }

    /// Lift the step cap for the rest of the walk, so the next proposal is
    /// whatever is left of the span: for an engine that has shown no later
    /// sample can tell the steps it skips from the one it takes. The step
    /// is backward Euler, which damps a decaying state toward its end value
    /// for any `h`; the trapezoidal rule would mirror it across that value
    /// once `h` outgrows the state's time constant. `false`, and nothing
    /// changes, while a breakpoint still lies ahead; nothing changes either
    /// when the next step ends the walk anyway.
    pub fn coast(&mut self) -> bool {
        if self.bps.last().is_some_and(|&bp| bp > self.t + self.tiny) {
            return false;
        }
        if self.h.min(self.hmax) >= self.tstop - self.t {
            return true;
        }
        self.hmax = f64::INFINITY;
        self.h = self.tstop - self.t;
        self.method = Method::BackwardEuler;
        true
    }

    /// The proposed step did not converge: stay and retry smaller. `true`
    /// once the step has fallen below `min_step` and the caller gives up.
    #[must_use]
    pub fn rejected(&mut self, min_step: f64) -> bool {
        self.h /= REJECT_DIVISOR;
        self.method = Method::BackwardEuler;
        self.h < min_step
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcv_rng::Rng;

    /// A span between 1 ns and 10 ms and a schedule that exercises the
    /// resolution of its axis: breakpoints inside and outside the span, NaN,
    /// and neighbours a femtosecond, a fraction of `tiny` and a few `tiny`
    /// apart.
    fn random_walk(rng: &mut Rng) -> (f64, f64, Vec<f64>) {
        let tstop = 10f64.powf(rng.range_f64(-9.0, -2.0));
        let fraction = 1.0 / rng.range_f64(20.0, 300.0);
        let tiny = tstop * 1e-12;
        let mut bps = Vec::new();
        for _ in 0..rng.range_usize(0, 7) {
            let b = rng.range_f64(-0.1, 1.2) * tstop;
            bps.push(b);
            match rng.range_usize(0, 6) {
                0 => bps.push(b + 1e-15),
                1 => bps.push(b + rng.range_f64(0.1, 0.99) * tiny),
                2 => bps.extend([b + 0.7 * tiny, b + 1.9 * tiny, b + 4.0 * tiny]),
                3 => bps.push(f64::NAN),
                _ => {}
            }
        }
        if rng.bool_with(0.2) {
            bps.push(0.5 * tiny);
        }
        for i in (1..bps.len()).rev() {
            bps.swap(i, rng.range_usize(0, i + 1));
        }
        (tstop, fraction, bps)
    }

    #[test]
    fn the_walk_keeps_its_promises_over_random_schedules_and_answers() {
        let mut rng = Rng::new(0x715e_57e9);
        let (mut rejections, mut landings, mut long_spans) = (0, 0, 0);
        for case in 0..300 {
            let (tstop, fraction, bps) = random_walk(&mut rng);
            let (hmax, tiny) = (tstop * fraction, tstop * 1e-12);
            let mut stepper = Stepper::new(tstop, fraction, bps.clone()).unwrap();
            let mut inside: Vec<f64> = bps.into_iter().filter(|&b| b > 0.0 && b < tstop).collect();
            inside.sort_by(f64::total_cmp);
            long_spans += usize::from(tiny > 1e-15);

            // What the policy wants next, and which method it owes.
            let h_init = (tstop * 1e-5).min(hmax);
            let mut want_h = h_init;
            let mut want_be = true;
            let mut accepted_times = vec![0.0];
            let mut proposals = 0;
            while let Some((h, method)) = stepper.next() {
                let t = stepper.t();
                let tag = format!("case {case}, t = {t:e} of {tstop:e}");
                proposals += 1;
                assert!(proposals < 100_000, "{tag}: the walk does not end");
                assert!(h > 0.0 && h <= hmax, "{tag}: h = {h:e}, hmax = {hmax:e}");
                assert_eq!(method == Method::BackwardEuler, want_be, "{tag}: {method:?}");
                // The policy's step, unless the end or a breakpoint is nearer.
                let unclamped = want_h.min(hmax);
                let clamps =
                    inside.iter().chain([&tstop]).any(|&b| h.to_bits() == (b - t).to_bits());
                assert!(
                    h == unclamped || (h < unclamped && clamps),
                    "{tag}: {h:e} vs {unclamped:e}"
                );

                // Unconverged solves are rare enough for the walk to drift
                // forward.
                if rng.bool_with(0.07) {
                    rejections += 1;
                    want_h /= 4.0;
                    want_be = true;
                    let min_step = want_h * [0.0, 0.5, 1.0, 2.0][rng.range_usize(0, 4)];
                    assert_eq!(stepper.rejected(min_step), want_h < min_step, "{tag}");
                    assert_eq!(stepper.t(), t, "{tag}: a rejected step stays");
                    continue;
                }
                // So are estimates over the tolerance: the step stays, shrinks
                // and keeps its method.
                let err = match rng.range_usize(0, 40) {
                    0 => rng.range_f64(1.0, 3000.0),
                    1 => f64::NAN,
                    2..=5 => rng.range_f64(0.729, 1.0),
                    6..=9 => rng.range_f64(0.091125, 0.729),
                    _ => 0.091125 * rng.range_f64(0.0, 1.0),
                };
                if err > 1.0 || err.is_nan() {
                    rejections += 1;
                    assert!(!stepper.accepted(err), "{tag}: {err} rejects");
                    assert_eq!(stepper.t(), t, "{tag}: a rejected step stays");
                    want_h = h * ((0.9 / err.cbrt()).max(0.1) * 16.0).floor() / 16.0;
                    continue;
                }
                assert!(stepper.accepted(err), "{tag}: {err} accepts");
                let t_new = stepper.t();
                assert!(t_new > t && t_new <= tstop + tiny, "{tag}: {t_new:e} after h = {h:e}");
                assert_eq!(t_new.to_bits(), (t + h).to_bits(), "{tag}");
                accepted_times.push(t_new);
                // On a breakpoint that was still ahead?
                if inside.iter().any(|&b| b > t + tiny && (t_new - b).abs() <= tiny) {
                    landings += 1;
                    (want_h, want_be) = (h_init, true);
                } else {
                    want_be = false;
                    if err <= 0.091125 {
                        want_h = (2.0 * want_h).min(hmax);
                    } else if err > 0.729 {
                        want_h = h * ((0.9 / err.cbrt()) * 16.0).floor() / 16.0;
                    }
                }
            }
            let end = stepper.t();
            assert!((end - tstop).abs() <= tiny, "case {case}: ends at {end:e} of {tstop:e}");
            let mut before = 0.0;
            for &b in &inside {
                if b - before > tiny.max(1e-18) {
                    let nearest =
                        accepted_times.iter().map(|&t| (t - b).abs()).fold(f64::MAX, f64::min);
                    assert!(
                        nearest <= tiny,
                        "case {case}: {b:e} missed by {nearest:e} (tiny {tiny:e})"
                    );
                }
                before = b;
            }
        }
        assert!(
            rejections > 300 && landings > 300 && long_spans > 20,
            "{rejections}, {landings}, {long_spans}"
        );
    }

    #[test]
    fn a_coast_takes_the_rest_of_the_span_once_no_breakpoint_lies_ahead() {
        let (tstop, bp) = (4e-9, 1.3e-9);
        let mut stepper = Stepper::new(tstop, 1e-3, vec![bp]).unwrap();
        let mut steps = 0;
        // Refused before the breakpoint: the walk goes on at the policy's step.
        while stepper.t() < bp {
            assert!(!stepper.coast(), "t = {:e}: a breakpoint lies ahead", stepper.t());
            let (h, _) = stepper.next().unwrap();
            assert!(h <= tstop * 1e-3);
            assert!(stepper.accepted(0.0));
            steps += 1;
        }
        assert_eq!(stepper.t().to_bits(), bp.to_bits(), "landed on the breakpoint");
        let (_, method) = stepper.next().unwrap();
        assert_eq!(method, Method::BackwardEuler, "the restart after it");
        assert!(stepper.accepted(0.0));
        let t = stepper.t();
        assert!(stepper.coast());
        assert!(stepper.lte().is_none(), "a coast is not estimated");
        let (h, method) = stepper.next().unwrap();
        assert_eq!(h.to_bits(), (tstop - t).to_bits(), "the rest of the span in one step");
        assert_eq!(method, Method::BackwardEuler, "a damped step to the end");
        // A rejection still shrinks the step; the walk then ends at `tstop`.
        assert!(!stepper.rejected(1e-18));
        let (h, method) = stepper.next().unwrap();
        assert_eq!((h, method), ((tstop - t) / 4.0, Method::BackwardEuler));
        while stepper.next().is_some() {
            assert!(stepper.accepted(0.0));
            steps += 1;
        }
        assert!((stepper.t() - tstop).abs() <= tstop * 1e-12, "ends at {:e}", stepper.t());
        assert!(steps < 400, "{steps} steps");
    }

    #[test]
    fn a_hold_lands_on_its_end_and_restarts_as_after_a_breakpoint() {
        let mut rng = Rng::new(0x401d_5a7e);
        let (mut held, mut to_the_end) = (0, 0);
        for case in 0..300 {
            let (tstop, fraction, bps) = random_walk(&mut rng);
            let (hmax, tiny) = (tstop * fraction, tstop * 1e-12);
            let until = match rng.range_usize(0, 6) {
                0 => bps.first().copied().unwrap_or(0.3 * tstop),
                1 => 0.5 * tiny,
                2 => [f64::NAN, f64::INFINITY, -1.0, 0.0][rng.range_usize(0, 4)],
                3 => rng.range_f64(1.0, 2.0) * tstop,
                _ => rng.range_f64(0.0, 1.0) * tstop,
            };
            let tag = format!("case {case}: hold to {until:e} of {tstop:e}");
            let mut stepper = Stepper::new(tstop, fraction, bps.clone()).unwrap();
            let mut fresh = Stepper::new(tstop, fraction, bps.clone()).unwrap();
            if !stepper.hold(until) {
                assert!(until.is_nan() || until <= tiny, "{tag}: refused");
                assert_eq!((stepper.t(), stepper.next()), (0.0, fresh.next()), "{tag}");
                continue;
            }
            held += 1;
            let end = until.min(tstop);
            assert_eq!(stepper.t().to_bits(), end.to_bits(), "{tag}: lands on its end");
            assert!(!stepper.hold(2.0 * until), "{tag}: one hold, before any step");
            let Some((h, method)) = stepper.next() else {
                to_the_end += 1;
                assert!(end >= tstop - tiny, "{tag}: the walk is over");
                continue;
            };
            assert_eq!(method, Method::BackwardEuler, "{tag}");
            // The restart after a breakpoint, unless the next one or the
            // end is nearer; no breakpoint it passed is still ahead.
            let next_bp = bps.iter().copied().filter(|&b| b > end + tiny && b < tstop);
            let limit = next_bp.fold(tstop, f64::min) - end;
            assert_eq!(h.to_bits(), (tstop * 1e-5).min(hmax).min(limit).to_bits(), "{tag}");
            assert!(stepper.lte().is_none(), "{tag}: nothing to estimate from");
            assert!(stepper.accepted(0.0));
            assert_eq!(stepper.t().to_bits(), (end + h).to_bits(), "{tag}");
            assert!(!stepper.hold(tstop), "{tag}: not after a step");
        }
        assert!(held > 150 && to_the_end > 20, "{held}, {to_the_end}");
        // Not after a proposal either, even a rejected one that stayed at 0.
        let mut stepper = Stepper::new(1e-9, 1e-3, vec![]).unwrap();
        let _ = stepper.next();
        assert!(!stepper.rejected(0.0));
        assert!(!stepper.hold(0.5e-9));
        assert_eq!(stepper.t(), 0.0);
    }

    #[test]
    fn the_estimate_is_the_leading_term_of_the_step_error() {
        // A cubic's third divided difference is its leading coefficient and
        // a quadratic's second is its: the estimate of a trapezoidal step is
        // then `c₃·h³/2` and of a backward-Euler one `c₂·h²`, whatever the
        // spacing of the points before it.
        let mut rng = Rng::new(0x17e_e57);
        let (mut trapezoidal, mut euler) = (0, 0);
        for case in 0..200 {
            let tstop = 10f64.powf(rng.range_f64(-10.0, -7.0));
            let bps: Vec<f64> = (0..3).map(|_| rng.range_f64(0.0, 1.0) * tstop).collect();
            let mut stepper = Stepper::new(tstop, 1.0 / rng.range_f64(20.0, 200.0), bps).unwrap();
            let c: [f64; 4] = std::array::from_fn(|_| rng.range_f64(-1.0, 1.0));
            let (c3, c2) = (c[3] / tstop.powi(3), c[2] / tstop.powi(2));
            let cubic = |t: f64| ((c3 * t + c2) * t + c[1] / tstop) * t + c[0];
            let quadratic = |t: f64| (c2 * t + c[1] / tstop) * t + c[0];
            // The three newest accepted values, oldest first, as the
            // engines keep them (the first point repeated before there are
            // three).
            let (mut cubics, mut quadratics) = ([cubic(0.0); 3], [quadratic(0.0); 3]);
            let mut fresh = 1;
            while let Some((h, method)) = stepper.next() {
                let (t, end) = (stepper.t(), stepper.t() + h);
                let tag = format!("case {case}, t = {t:e}, {method:?}");
                match (stepper.lte(), method) {
                    (None, Method::BackwardEuler) => assert!(fresh < 2, "{tag}: {fresh}"),
                    (None, Method::Trapezoidal) => assert!(fresh < 3, "{tag}: {fresh}"),
                    (Some(lte), Method::Trapezoidal) => {
                        let got = lte.estimate(&cubics, cubic(end));
                        let want = 0.5 * c3 * h * h * h;
                        assert!((got - want).abs() <= 1e-6 * want.abs() + 1e-9, "{tag}");
                        trapezoidal += 1;
                    }
                    (Some(lte), Method::BackwardEuler) => {
                        let got = lte.estimate(&quadratics, quadratic(end));
                        let want = c2 * h * h;
                        assert!((got - want).abs() <= 1e-6 * want.abs() + 1e-9, "{tag}");
                        euler += 1;
                    }
                }
                // Now and then a solve fails: backward Euler, history kept.
                if rng.bool_with(0.05) {
                    assert!(!stepper.rejected(0.0));
                    continue;
                }
                assert!(stepper.accepted(0.091125 * rng.range_f64(0.0, 1.5)));
                let on_bp = stepper.next().is_some_and(|(_, m)| m == Method::BackwardEuler)
                    && stepper.lte().is_none();
                fresh = if on_bp { 1 } else { fresh + 1 };
                cubics = [cubics[1], cubics[2], cubic(stepper.t())];
                quadratics = [quadratics[1], quadratics[2], quadratic(stepper.t())];
            }
        }
        assert!(trapezoidal > 1000 && euler > 50, "{trapezoidal}, {euler}");
    }

    #[test]
    fn a_bad_span_is_refused() {
        for bad in [0.0, -0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Stepper::new(bad, 1e-3, vec![]).unwrap_err(), "tstop");
            assert_eq!(Stepper::new(1e-9, bad, vec![1e-10]).unwrap_err(), "max_step_fraction");
        }
        assert!(Stepper::new(f64::MIN_POSITIVE, 1.0, vec![f64::NAN]).is_ok());
    }

    #[test]
    fn companion_and_current_are_the_inline_expressions() {
        let mut rng = Rng::new(0xc0_4a91);
        let same = |a: f64, b: f64| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
        let special = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1.0, -2.5];
        for _ in 0..2000 {
            let mut draw = |scale: f64| {
                if rng.bool_with(0.3) {
                    special[rng.range_usize(0, special.len())]
                } else {
                    rng.range_f64(-1.0, 1.0) * scale
                }
            };
            let (c, v_new, v_prev, i_prev) = (draw(1e-13), draw(3.0), draw(3.0), draw(1e-2));
            let h = draw(1e-10).abs().max(5e-324);

            let (geq, ieq) = Method::BackwardEuler.companion(c, h, v_prev, i_prev);
            assert!(same(geq, c / h) && same(ieq, c / h * v_prev), "BE companion of {c:e}, {h:e}");
            let (geq, ieq) = Method::Trapezoidal.companion(c, h, v_prev, i_prev);
            assert!(same(geq, 2.0 * c / h), "TR geq of {c:e}, {h:e}");
            assert!(same(ieq, 2.0 * c / h * v_prev + i_prev), "TR ieq of {c:e}, {h:e}");
            let i = Method::BackwardEuler.current(c, h, v_new, v_prev, i_prev);
            assert!(same(i, c / h * (v_new - v_prev)), "BE current of {c:e}, {h:e}");
            let i = Method::Trapezoidal.current(c, h, v_new, v_prev, i_prev);
            assert!(same(i, 2.0 * c / h * (v_new - v_prev) - i_prev), "TR current of {c:e}, {h:e}");

            // The multistep coefficients, as the reduced transient's loop
            // spelled them inline (`x` a state, `i_prev` standing in for ẋ).
            let be = Method::BackwardEuler;
            assert!(same(be.alpha(h), 1.0 / h), "BE alpha of {h:e}");
            assert!(same(be.history(h, v_new, i_prev), -v_new / h), "BE history of {h:e}");
            let tr = Method::Trapezoidal;
            assert!(same(tr.alpha(h), 2.0 / h), "TR alpha of {h:e}");
            let want = -2.0 * v_new / h - i_prev;
            assert!(same(tr.history(h, v_new, i_prev), want), "TR history of {h:e}");
        }
    }
}
