//! The time axis both transient engines step along: the breakpoint schedule,
//! the step-size policy, the choice of integration method and the capacitor
//! companion under that method.
//!
//! `pcv-mor`'s reduced transient is judged against `pcv-spice`'s MNA transient
//! (the paper's Fig. 3), which means something only while both integrate
//! alike, so these decisions are spelled here once. Each engine keeps its own
//! loop around a [`Stepper`]: their solves, errors and recording differ.
//!
//! One decision is an engine's own: when the rest of the run can no longer
//! show anything, it may *coast* ([`Stepper::coast`]) — take whatever is left
//! of the span in one step, once no breakpoint lies ahead. The reduced
//! transient's linear solver does, once every source has stopped changing and
//! its modes' distance from their final values bounds every later sample
//! within `vtol`; the walk up to that point is the one both engines step.

/// A run, and every stretch after a breakpoint, starts at `hmax / 10`.
const INITIAL_STEP_DIVISOR: f64 = 10.0;
/// Times closer than this fraction of `tstop` are one point of the axis.
const TINY_FRACTION: f64 = 1e-12;
/// Breakpoints closer than this (seconds) are one breakpoint.
const BREAKPOINT_DEDUP: f64 = 1e-18;
/// An accepted step of at most `EASY_ITERS` Newton iterations grows the next
/// one by `GROWTH`; one of at least `HARD_ITERS` shrinks it by `SHRINK`.
const EASY_ITERS: usize = 3;
const HARD_ITERS: usize = 8;
const GROWTH: f64 = 1.5;
const SHRINK: f64 = 0.5;
/// A rejected step is retried at a quarter of its size.
const REJECT_DIVISOR: f64 = 4.0;

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
/// converged, proposes the next. Steps are sized by Newton iteration count
/// (neither engine estimates local truncation error), never cross a
/// breakpoint, and restart small and with backward Euler after one.
///
/// ```
/// # use pcv_netlist::timestep::{Method, Stepper};
/// let mut stepper = Stepper::new(1e-9, 1e-3, vec![0.5e-9]).unwrap();
/// assert_eq!(stepper.next().unwrap().1, Method::BackwardEuler);
/// while let Some((_h, _method)) = stepper.next() {
///     stepper.accepted(2); // or `rejected(min_step)`: stay and retry smaller
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
    /// The step the policy wants; a proposal clamps it into `h_eff`.
    h: f64,
    h_eff: f64,
    method: Method,
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
        let h_init = hmax / INITIAL_STEP_DIVISOR;
        let tiny = tstop * TINY_FRACTION;
        let method = Method::BackwardEuler;
        Ok(Self { tstop, hmax, h_init, tiny, bps, ahead: 0, t: 0.0, h: h_init, h_eff: 0.0, method })
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

    /// The proposed step converged in `newton_iters` iterations: advance and
    /// size the next one.
    pub fn accepted(&mut self, newton_iters: usize) {
        self.t += self.h_eff;
        if self.bps.get(self.ahead).is_some_and(|&bp| (self.t - bp).abs() <= self.tiny) {
            // On a breakpoint: restart small, and damp the trapezoidal
            // ringing a slope discontinuity would excite.
            self.ahead += 1;
            self.h = self.h_init;
            self.method = Method::BackwardEuler;
            return;
        }
        self.method = Method::Trapezoidal;
        if newton_iters <= EASY_ITERS {
            self.h = (self.h * GROWTH).min(self.hmax);
        } else if newton_iters >= HARD_ITERS {
            self.h *= SHRINK;
        }
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
            let mut want_h = hmax / 10.0;
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

                // Hard steps are rare enough for the walk to drift forward.
                if rng.bool_with(0.07) {
                    rejections += 1;
                    want_h /= 4.0;
                    want_be = true;
                    let min_step = want_h * [0.0, 0.5, 1.0, 2.0][rng.range_usize(0, 4)];
                    assert_eq!(stepper.rejected(min_step), want_h < min_step, "{tag}");
                    assert_eq!(stepper.t(), t, "{tag}: a rejected step stays");
                    continue;
                }
                let iters =
                    if rng.bool_with(0.8) { rng.range_usize(0, 4) } else { rng.range_usize(4, 12) };
                stepper.accepted(iters);
                let t_new = stepper.t();
                assert!(t_new > t && t_new <= tstop + tiny, "{tag}: {t_new:e} after h = {h:e}");
                assert_eq!(t_new.to_bits(), (t + h).to_bits(), "{tag}");
                accepted_times.push(t_new);
                // On a breakpoint that was still ahead?
                if inside.iter().any(|&b| b > t + tiny && (t_new - b).abs() <= tiny) {
                    landings += 1;
                    (want_h, want_be) = (hmax / 10.0, true);
                } else {
                    want_be = false;
                    if iters <= 3 {
                        want_h = (want_h * 1.5).min(hmax);
                    } else if iters >= 8 {
                        want_h *= 0.5;
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
            stepper.accepted(1);
            steps += 1;
        }
        assert_eq!(stepper.t().to_bits(), bp.to_bits(), "landed on the breakpoint");
        let (_, method) = stepper.next().unwrap();
        assert_eq!(method, Method::BackwardEuler, "the restart after it");
        stepper.accepted(1);
        let t = stepper.t();
        assert!(stepper.coast());
        let (h, method) = stepper.next().unwrap();
        assert_eq!(h.to_bits(), (tstop - t).to_bits(), "the rest of the span in one step");
        assert_eq!(method, Method::BackwardEuler, "a damped step to the end");
        // A rejection still shrinks the step; the walk then ends at `tstop`.
        assert!(!stepper.rejected(1e-18));
        let (h, method) = stepper.next().unwrap();
        assert_eq!((h, method), ((tstop - t) / 4.0, Method::BackwardEuler));
        while stepper.next().is_some() {
            stepper.accepted(1);
            steps += 1;
        }
        assert!((stepper.t() - tstop).abs() <= tstop * 1e-12, "ends at {:e}", stepper.t());
        assert!(steps < 400, "{steps} steps");
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
