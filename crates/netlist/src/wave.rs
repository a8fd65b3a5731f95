//! Time-domain stimulus waveforms for independent sources.

/// A source waveform: the value of an independent voltage or current source
/// as a function of time.
///
/// # Example
///
/// ```
/// # use pcv_netlist::SourceWave;
/// let w = SourceWave::step(0.0, 3.0, 1e-9, 0.2e-9);
/// assert_eq!(w.value_at(0.0), 0.0);
/// assert!((w.value_at(1.1e-9) - 1.5).abs() < 1e-9);
/// assert_eq!(w.value_at(5e-9), 3.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum SourceWave {
    /// Constant value.
    Dc(f64),
    /// SPICE-style pulse.
    Pulse {
        /// Initial value.
        v0: f64,
        /// Pulsed value.
        v1: f64,
        /// Delay before the first edge.
        delay: f64,
        /// Rise time (0 treated as 1 fs).
        rise: f64,
        /// Fall time (0 treated as 1 fs).
        fall: f64,
        /// Pulse width at `v1`.
        width: f64,
        /// Period; `f64::INFINITY` for a single pulse.
        period: f64,
    },
    /// Piecewise-linear waveform as `(time, value)` breakpoints sorted by
    /// time; constant extrapolation outside the range.
    Pwl(Vec<(f64, f64)>),
}

const MIN_EDGE: f64 = 1e-15;
/// Past this many periods `k·period` no longer counts periods one by one.
const MAX_PERIODS: f64 = 4_503_599_627_370_496.0;

impl SourceWave {
    /// A single rising (or falling) step: `v0` until `delay`, ramping
    /// linearly to `v1` over `rise`.
    pub fn step(v0: f64, v1: f64, delay: f64, rise: f64) -> Self {
        SourceWave::Pwl(vec![(delay, v0), (delay + rise.max(MIN_EDGE), v1)])
    }

    /// Evaluate the waveform at time `t` (seconds).
    pub fn value_at(&self, t: f64) -> f64 {
        match self {
            SourceWave::Dc(v) => *v,
            SourceWave::Pulse { v0, v1, delay, rise, fall, width, period } => {
                if t < *delay {
                    return *v0;
                }
                let rise = rise.max(MIN_EDGE);
                let fall = fall.max(MIN_EDGE);
                let mut tau = t - delay;
                if period.is_finite() && *period > 0.0 {
                    tau %= period;
                }
                if tau < rise {
                    v0 + (v1 - v0) * tau / rise
                } else if tau < rise + width {
                    *v1
                } else if tau < rise + width + fall {
                    v1 + (v0 - v1) * (tau - rise - width) / fall
                } else {
                    *v0
                }
            }
            SourceWave::Pwl(points) => {
                if points.is_empty() {
                    return 0.0;
                }
                if t <= points[0].0 {
                    return points[0].1;
                }
                if t >= points[points.len() - 1].0 {
                    return points[points.len() - 1].1;
                }
                // Binary search for the enclosing segment.
                let idx = points.partition_point(|&(pt, _)| pt <= t);
                let (t0, v0) = points[idx - 1];
                let (t1, v1) = points[idx];
                if t1 <= t0 {
                    return v1;
                }
                v0 + (v1 - v0) * (t - t0) / (t1 - t0)
            }
        }
    }

    /// Every corner of the waveform up to `tstop` — where its slope may
    /// change, so where a transient lands and restarts — for the
    /// integrator's breakpoint schedule. Empty for DC. A periodic pulse
    /// lists the four corners of every period that starts before `tstop`,
    /// no more entries than the walk that lands on them takes steps.
    pub fn breakpoints(&self, tstop: f64) -> Vec<f64> {
        match self {
            SourceWave::Dc(_) => Vec::new(),
            SourceWave::Pulse { delay, rise, fall, width, period, .. } => {
                let rise = rise.max(MIN_EDGE);
                let fall = fall.max(MIN_EDGE);
                let corners =
                    [*delay, delay + rise, delay + rise + width, delay + rise + width + fall];
                let mut pts = corners.to_vec();
                if period.is_finite() && *period > 0.0 {
                    // Periods whose corners all fall before 0 are skipped;
                    // a count past f64's integers is not a schedule.
                    let first = (-corners[3] / period).floor().max(1.0);
                    let last = ((tstop - delay) / period).ceil();
                    if first.is_finite() && last.is_finite() && last < MAX_PERIODS {
                        for k in first as u64..=last.max(0.0) as u64 {
                            let shift = k as f64 * period;
                            if corners[0] + shift >= tstop {
                                break;
                            }
                            pts.extend(corners.map(|c| c + shift));
                        }
                    }
                }
                pts
            }
            SourceWave::Pwl(points) => points.iter().map(|&(t, _)| t).collect(),
        }
    }

    /// A time after which the waveform stops changing: [`value_at`] gives
    /// one value at every `t > T`. `None` for a waveform that never stops:
    /// a periodic pulse, or one whose final time is not a number.
    ///
    /// Read off the branches of [`value_at`], not the corners of
    /// [`breakpoints`]: the strict `t > T` holds however `T` rounds.
    ///
    /// ```
    /// # use pcv_netlist::SourceWave;
    /// let w = SourceWave::step(0.0, 2.5, 1e-9, 0.2e-9);
    /// let t = w.settles_after().unwrap();
    /// assert_eq!(w.value_at(t * 1.001), w.value_at(1.0));
    /// assert_eq!(SourceWave::Dc(1.0).settles_after(), Some(f64::NEG_INFINITY));
    /// ```
    ///
    /// [`value_at`]: SourceWave::value_at
    /// [`breakpoints`]: SourceWave::breakpoints
    pub fn settles_after(&self) -> Option<f64> {
        let t = match self {
            SourceWave::Dc(_) => f64::NEG_INFINITY,
            SourceWave::Pulse { period, .. } if period.is_finite() && *period > 0.0 => {
                return None;
            }
            SourceWave::Pulse { delay, rise, fall, width, .. } => {
                // The last branch's threshold on `t − delay`, and the ramp
                // before it when a negative width puts it later. `max`
                // skips a NaN threshold as the branch comparisons do.
                let rise = rise.max(MIN_EDGE);
                let end = rise + width + fall.max(MIN_EDGE);
                delay + rise.max(rise + width).max(end)
            }
            SourceWave::Pwl(points) => match (points.first(), points.last()) {
                (Some(&(first, _)), Some(&(last, _))) if !last.is_nan() => last.max(first),
                (Some(_), Some(_)) => return None,
                _ => f64::NEG_INFINITY,
            },
        };
        (!t.is_nan()).then_some(t)
    }

    /// The end of the waveform's quiet prefix: a time `T` with
    /// [`value_at`]`(t) == `[`dc_value`]`()` at every `t` in `[0, T]`, so
    /// that a transient started from its DC operating point may hold that
    /// point up to `T`. Read off the branches of [`value_at`], as
    /// [`settles_after`] is: `+∞` for DC, the delay of a pulse, and for a
    /// PWL the last point of the leading run whose values have the first
    /// point's bits (`+∞` when the run is all of it). A `T` of `0` or less
    /// claims nothing; it is what a DC value that is not finite gives, a
    /// delay that is not a number, a PWL whose times are not finite and
    /// ascending, and a first edge whose slope is not finite, whose
    /// `v + 0·slope` is NaN at the very point where it starts.
    ///
    /// ```
    /// # use pcv_netlist::SourceWave;
    /// let w = SourceWave::step(0.0, 2.5, 1e-9, 0.2e-9);
    /// assert_eq!(w.starts_after(), 1e-9);
    /// assert_eq!(w.value_at(1e-9), w.dc_value());
    /// assert!(w.value_at(1e-9 * 1.001) > w.dc_value());
    /// assert_eq!(SourceWave::Dc(1.0).starts_after(), f64::INFINITY);
    /// ```
    ///
    /// [`value_at`]: SourceWave::value_at
    /// [`dc_value`]: SourceWave::dc_value
    /// [`settles_after`]: SourceWave::settles_after
    pub fn starts_after(&self) -> f64 {
        let dc = self.dc_value();
        if !dc.is_finite() {
            return 0.0;
        }
        let t = match self {
            SourceWave::Dc(_) => return f64::INFINITY,
            // `t < delay` is the first branch: `v0` before it.
            SourceWave::Pulse { delay, .. } => *delay,
            // Inside the run a segment is `v + 0·x`, which is `v` while `x`
            // is finite; the binary search finds that segment only while
            // the times ascend.
            SourceWave::Pwl(points) => {
                let finite = points.iter().all(|p| p.0.is_finite());
                if !(finite && points.windows(2).all(|w| w[0].0 <= w[1].0)) {
                    return 0.0;
                }
                match points.iter().position(|p| p.1.to_bits() != dc.to_bits()) {
                    None => return f64::INFINITY,
                    Some(k) => points[k - 1].0,
                }
            }
        };
        // At `T` the first edge starts, as `v + 0·slope`: `v` unless the
        // slope is not finite, or a vertical step at `T` already ended.
        if t.is_nan() || self.value_at(t) != dc {
            return 0.0;
        }
        t
    }

    /// The DC (t → -∞ / t = 0⁻) value, used for the operating point.
    pub fn dc_value(&self) -> f64 {
        match self {
            SourceWave::Dc(v) => *v,
            SourceWave::Pulse { v0, .. } => *v0,
            SourceWave::Pwl(points) => points.first().map_or(0.0, |&(_, v)| v),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dc_is_constant() {
        let w = SourceWave::Dc(2.5);
        assert_eq!(w.value_at(0.0), 2.5);
        assert_eq!(w.value_at(1.0), 2.5);
        assert_eq!(w.dc_value(), 2.5);
        assert!(w.breakpoints(1.0).is_empty());
    }

    #[test]
    fn pulse_shape() {
        let w = SourceWave::Pulse {
            v0: 0.0,
            v1: 3.0,
            delay: 1.0,
            rise: 1.0,
            fall: 2.0,
            width: 3.0,
            period: f64::INFINITY,
        };
        assert_eq!(w.value_at(0.5), 0.0);
        assert_eq!(w.value_at(1.5), 1.5); // mid-rise
        assert_eq!(w.value_at(3.0), 3.0); // plateau
        assert_eq!(w.value_at(6.0), 1.5); // mid-fall
        assert_eq!(w.value_at(10.0), 0.0);
        assert_eq!(w.dc_value(), 0.0);
    }

    #[test]
    fn pulse_repeats_with_period() {
        let w = SourceWave::Pulse {
            v0: 0.0,
            v1: 1.0,
            delay: 0.0,
            rise: 0.1,
            fall: 0.1,
            width: 0.3,
            period: 1.0,
        };
        assert!((w.value_at(0.2) - 1.0).abs() < 1e-12);
        assert!((w.value_at(1.2) - 1.0).abs() < 1e-12);
        assert!((w.value_at(2.7) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn a_periodic_pulse_lists_the_corners_of_every_period_in_the_span() {
        let (rise, fall, width, period) = (0.1e-9, 0.2e-9, 0.4e-9, 1.2e-9);
        let pulse = |delay, period| SourceWave::Pulse {
            v0: 0.0,
            v1: 1.0,
            delay,
            rise,
            fall,
            width,
            period,
        };
        let bps = pulse(0.3e-9, period).breakpoints(12e-9);
        assert_eq!(bps.len(), 40, "ten periods start before 12 ns");
        let base = [0.3e-9, 0.3e-9 + rise, 0.3e-9 + rise + width, 0.3e-9 + rise + width + fall];
        for (k, corners) in bps.chunks(4).enumerate() {
            let want = base.map(|p| p + k as f64 * period);
            assert_eq!(corners, want, "period {k}");
        }
        // Periods whose corners all lie before 0 are not listed.
        let bps = pulse(-100e-9, period).breakpoints(2e-9);
        assert_eq!(bps.iter().filter(|&&t| t > 0.0 && t < 2e-9).count(), 6, "{bps:?}");
        assert!(bps.len() <= 4 + 4 * 3, "{} corners", bps.len());
        // A one-shot pulse, or a period that is not one, lists one pulse.
        for period in [f64::INFINITY, 0.0, -1.0, f64::NAN] {
            assert_eq!(pulse(0.3e-9, period).breakpoints(1.0).len(), 4);
        }
    }

    #[test]
    fn value_at_does_not_change_after_settles_after() {
        let mut rng = pcv_rng::Rng::new(0x005e_771e);
        let odd = [0.0, -0.0, -1e-9, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e-30];
        let draw = |rng: &mut pcv_rng::Rng, scale: f64| {
            if rng.bool_with(0.1) {
                odd[rng.range_usize(0, odd.len())]
            } else {
                rng.range_f64(-0.2, 1.0) * scale
            }
        };
        let (mut settled, mut never) = (0, 0);
        for case in 0..4000 {
            let w = match rng.range_usize(0, 4) {
                0 => SourceWave::Dc(rng.range_f64(-3.0, 3.0)),
                1 => SourceWave::Pulse {
                    v0: rng.range_f64(-3.0, 3.0),
                    v1: rng.range_f64(-3.0, 3.0),
                    delay: draw(&mut rng, 1e-9),
                    rise: draw(&mut rng, 1e-10),
                    fall: draw(&mut rng, 1e-10),
                    width: draw(&mut rng, 1e-9),
                    period: if rng.bool_with(0.7) { f64::INFINITY } else { draw(&mut rng, 2e-9) },
                },
                2 => SourceWave::step(rng.range_f64(-3.0, 3.0), 1.0, draw(&mut rng, 1e-9), 1e-10),
                _ => SourceWave::Pwl(
                    (0..rng.range_usize(0, 5))
                        .map(|_| (draw(&mut rng, 2e-9), rng.range_f64(-3.0, 3.0)))
                        .collect(),
                ),
            };
            let Some(t) = w.settles_after() else {
                never += 1;
                continue;
            };
            settled += 1;
            let last = w.value_at(f64::MAX);
            let mut after = vec![t.max(-1e-6).next_up(), t.max(-1e-6) + 1e-12, f64::MAX];
            after.extend((0..20).map(|_| t.max(-1e-6) + rng.range_f64(0.0, 1e-8)));
            for s in after.into_iter().filter(|&s| s > t) {
                let v = w.value_at(s);
                assert!(
                    v.to_bits() == last.to_bits() || (v.is_nan() && last.is_nan()),
                    "case {case}: {w:?} settles after {t:e}, yet reads {v} at {s:e}, {last} late"
                );
            }
        }
        assert!(settled > 2000 && never > 200, "{settled}, {never}");
        assert_eq!(SourceWave::Dc(1.0).settles_after(), Some(f64::NEG_INFINITY));
        assert_eq!(SourceWave::Pwl(vec![]).settles_after(), Some(f64::NEG_INFINITY));
        assert_eq!(SourceWave::Pwl(vec![(0.0, 1.0), (f64::NAN, 2.0)]).settles_after(), None);
    }

    #[test]
    fn value_at_is_the_dc_value_up_to_starts_after() {
        let mut rng = pcv_rng::Rng::new(0x0057_a125);
        let odd = [0.0, -0.0, -1e-9, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e-30];
        let draw = |rng: &mut pcv_rng::Rng, scale: f64| {
            if rng.bool_with(0.1) {
                odd[rng.range_usize(0, odd.len())]
            } else {
                rng.range_f64(-0.2, 1.0) * scale
            }
        };
        let level = |rng: &mut pcv_rng::Rng| {
            if rng.bool_with(0.05) {
                odd[rng.range_usize(0, odd.len())]
            } else {
                [0.0, 2.5, rng.range_f64(-3.0, 3.0)][rng.range_usize(0, 3)]
            }
        };
        let (mut quiet, mut never, mut forever) = (0, 0, 0);
        for case in 0..4000 {
            let w = match rng.range_usize(0, 4) {
                0 => SourceWave::Dc(level(&mut rng)),
                1 => SourceWave::Pulse {
                    v0: level(&mut rng),
                    v1: level(&mut rng),
                    delay: draw(&mut rng, 1e-9),
                    rise: draw(&mut rng, 1e-10),
                    fall: draw(&mut rng, 1e-10),
                    width: draw(&mut rng, 1e-9),
                    period: if rng.bool_with(0.7) { f64::INFINITY } else { draw(&mut rng, 2e-9) },
                },
                2 => {
                    SourceWave::step(level(&mut rng), level(&mut rng), draw(&mut rng, 1e-9), 1e-10)
                }
                // A flat run (ascending times, a repeated level) before
                // whatever follows, as a resampled glitch starts.
                _ => {
                    let v = level(&mut rng);
                    let mut t = 0.0;
                    let mut points: Vec<(f64, f64)> = (0..rng.range_usize(0, 4))
                        .map(|_| {
                            t += rng.range_f64(0.0, 1e-9);
                            (t, v)
                        })
                        .collect();
                    if rng.bool_with(0.5) {
                        points.sort_by(|a, b| a.0.total_cmp(&b.0));
                    }
                    let tail = rng.range_usize(0, 4);
                    points.extend((0..tail).map(|_| (draw(&mut rng, 4e-9), level(&mut rng))));
                    if rng.bool_with(0.7) {
                        points.sort_by(|a, b| a.0.total_cmp(&b.0));
                    }
                    SourceWave::Pwl(points)
                }
            };
            let t = w.starts_after();
            assert!(!t.is_nan(), "case {case}: {w:?}");
            if t <= 0.0 {
                never += 1;
                continue;
            }
            quiet += 1;
            forever += usize::from(t == f64::INFINITY);
            let dc = w.dc_value();
            let end = t.min(1e-6);
            let mut at = vec![0.0, end, end.next_down(), f64::MIN_POSITIVE];
            at.extend(w.breakpoints(end).into_iter().filter(|&b| (0.0..=end).contains(&b)));
            at.extend((0..20).map(|_| rng.range_f64(0.0, end)));
            for s in at {
                let v = w.value_at(s);
                assert!(v == dc, "case {case}: {w:?} is quiet to {t:e}, yet reads {v} at {s:e}");
            }
        }
        assert!(quiet > 1500 && never > 200 && forever > 200, "{quiet}, {never}, {forever}");
        assert_eq!(SourceWave::Dc(f64::NAN).starts_after(), 0.0);
        assert_eq!(SourceWave::Pwl(vec![]).starts_after(), f64::INFINITY);
        let pwl = SourceWave::Pwl(vec![(0.0, 1.0), (2e-9, 1.0), (3e-9, 2.0), (4e-9, 1.0)]);
        assert_eq!(pwl.starts_after(), 2e-9);
        let vertical = SourceWave::Pwl(vec![(0.0, 1.0), (2e-9, 1.0), (2e-9, 2.0), (4e-9, 2.0)]);
        assert_eq!(vertical.starts_after(), 0.0, "the step at 2 ns has ended at 2 ns");
    }

    #[test]
    fn pwl_interpolates_and_clamps() {
        let w = SourceWave::Pwl(vec![(1.0, 0.0), (2.0, 2.0), (4.0, -2.0)]);
        assert_eq!(w.value_at(0.0), 0.0);
        assert_eq!(w.value_at(1.5), 1.0);
        assert_eq!(w.value_at(3.0), 0.0);
        assert_eq!(w.value_at(9.0), -2.0);
        assert_eq!(w.dc_value(), 0.0);
        assert_eq!(w.breakpoints(9.0), vec![1.0, 2.0, 4.0]);
    }

    #[test]
    fn empty_pwl_is_zero() {
        let w = SourceWave::Pwl(vec![]);
        assert_eq!(w.value_at(1.0), 0.0);
        assert_eq!(w.dc_value(), 0.0);
    }

    #[test]
    fn step_constructor() {
        let w = SourceWave::step(3.0, 0.0, 2e-9, 0.5e-9);
        assert_eq!(w.value_at(0.0), 3.0);
        assert!((w.value_at(2.25e-9) - 1.5).abs() < 1e-9);
        assert_eq!(w.value_at(1.0), 0.0);
    }

    #[test]
    fn zero_rise_does_not_divide_by_zero() {
        let w = SourceWave::step(0.0, 1.0, 0.0, 0.0);
        assert!(w.value_at(1e-12).is_finite());
        assert_eq!(w.value_at(1e-9), 1.0);
    }
}
