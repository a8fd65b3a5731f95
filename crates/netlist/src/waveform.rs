//! Sampled waveforms and the measurements crosstalk verification needs:
//! peak glitch extraction, threshold crossings, 50 % delays and 10–90 %
//! slews.

/// A sampled waveform: strictly increasing times with one value per sample.
///
/// # Example
///
/// ```
/// # use pcv_netlist::Waveform;
/// let w = Waveform::from_samples(vec![0.0, 1.0, 2.0], vec![0.0, 1.0, 0.0]);
/// assert_eq!(w.value_at(0.5), 0.5);
/// let (t, v) = w.peak_deviation(0.0);
/// assert_eq!((t, v), (1.0, 1.0));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Waveform {
    t: Vec<f64>,
    v: Vec<f64>,
}

impl Waveform {
    /// Create from parallel sample arrays.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ or times are not strictly increasing.
    pub fn from_samples(t: Vec<f64>, v: Vec<f64>) -> Self {
        assert_eq!(t.len(), v.len(), "waveform arrays must have equal length");
        assert!(t.windows(2).all(|w| w[1] > w[0]), "waveform times must be strictly increasing");
        Waveform { t, v }
    }

    /// An empty waveform.
    pub fn new() -> Self {
        Waveform::default()
    }

    /// Append a sample.
    ///
    /// # Panics
    ///
    /// Panics if `t` does not exceed the last sample time.
    pub fn push(&mut self, t: f64, v: f64) {
        if let Some(&last) = self.t.last() {
            assert!(t > last, "sample times must be strictly increasing");
        }
        self.t.push(t);
        self.v.push(v);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.t.len()
    }

    /// `true` when no samples are stored.
    pub fn is_empty(&self) -> bool {
        self.t.is_empty()
    }

    /// Sample times.
    pub fn times(&self) -> &[f64] {
        &self.t
    }

    /// Sample values.
    pub fn values(&self) -> &[f64] {
        &self.v
    }

    /// Linearly interpolated value at time `t` (clamped at the ends).
    ///
    /// # Panics
    ///
    /// Panics on an empty waveform.
    pub fn value_at(&self, t: f64) -> f64 {
        assert!(!self.is_empty(), "empty waveform");
        if t <= self.t[0] {
            return self.v[0];
        }
        if t >= *self.t.last().expect("non-empty") {
            return *self.v.last().expect("non-empty");
        }
        let idx = self.t.partition_point(|&x| x <= t);
        let (t0, v0) = (self.t[idx - 1], self.v[idx - 1]);
        let (t1, v1) = (self.t[idx], self.v[idx]);
        v0 + (v1 - v0) * (t - t0) / (t1 - t0)
    }

    /// Largest value and when it occurs.
    ///
    /// # Panics
    ///
    /// Panics on an empty waveform.
    pub fn max(&self) -> (f64, f64) {
        assert!(!self.is_empty(), "empty waveform");
        let (i, v) = self
            .v
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite samples"))
            .expect("non-empty");
        (self.t[i], *v)
    }

    /// Smallest value and when it occurs.
    ///
    /// # Panics
    ///
    /// Panics on an empty waveform.
    pub fn min(&self) -> (f64, f64) {
        assert!(!self.is_empty(), "empty waveform");
        let (i, v) = self
            .v
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite samples"))
            .expect("non-empty");
        (self.t[i], *v)
    }

    /// Largest *absolute deviation* from a baseline: `(time, signed peak)`.
    /// This is the crosstalk "peak glitch" measurement — for a victim held
    /// at 0 V the baseline is 0, for one held at Vdd the baseline is Vdd.
    ///
    /// # Panics
    ///
    /// Panics on an empty waveform.
    pub fn peak_deviation(&self, baseline: f64) -> (f64, f64) {
        assert!(!self.is_empty(), "empty waveform");
        let (i, _) = self
            .v
            .iter()
            .enumerate()
            .max_by(|a, b| {
                (a.1 - baseline).abs().partial_cmp(&(b.1 - baseline).abs()).expect("finite samples")
            })
            .expect("non-empty");
        (self.t[i], self.v[i] - baseline)
    }

    /// First time after `after` at which the waveform crosses `level` in the
    /// given direction (linearly interpolated), or `None`.
    pub fn crossing(&self, level: f64, rising: bool, after: f64) -> Option<f64> {
        for w in 0..self.t.len().saturating_sub(1) {
            let (t0, t1) = (self.t[w], self.t[w + 1]);
            if t1 < after {
                continue;
            }
            let (v0, v1) = (self.v[w], self.v[w + 1]);
            let crosses =
                if rising { v0 < level && v1 >= level } else { v0 > level && v1 <= level };
            if crosses {
                let tc = t0 + (t1 - t0) * (level - v0) / (v1 - v0);
                if tc >= after {
                    return Some(tc);
                }
            }
        }
        None
    }

    /// 10–90 % transition time of a rising edge (or 90–10 % of a falling
    /// edge when `rising` is false) after time `after`.
    pub fn slew_10_90(&self, vdd: f64, rising: bool, after: f64) -> Option<f64> {
        if rising {
            let t10 = self.crossing(0.1 * vdd, true, after)?;
            let t90 = self.crossing(0.9 * vdd, true, t10)?;
            Some(t90 - t10)
        } else {
            let t90 = self.crossing(0.9 * vdd, false, after)?;
            let t10 = self.crossing(0.1 * vdd, false, t90)?;
            Some(t10 - t90)
        }
    }

    /// Resample onto the given time grid (linear interpolation, clamped).
    ///
    /// # Panics
    ///
    /// Panics on an empty waveform.
    pub fn resample(&self, times: &[f64]) -> Waveform {
        let v = times.iter().map(|&t| self.value_at(t)).collect();
        Waveform::from_samples(times.to_vec(), v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp() -> Waveform {
        // 0 at t=0, rising to 3 at t=3, flat after.
        Waveform::from_samples(vec![0.0, 3.0, 5.0], vec![0.0, 3.0, 3.0])
    }

    #[test]
    fn interpolation_and_clamping() {
        let w = ramp();
        assert_eq!(w.value_at(-1.0), 0.0);
        assert_eq!(w.value_at(1.5), 1.5);
        assert_eq!(w.value_at(10.0), 3.0);
        assert_eq!(w.len(), 3);
        assert!(!w.is_empty());
    }

    #[test]
    fn extremes() {
        let w = Waveform::from_samples(vec![0.0, 1.0, 2.0], vec![0.0, -2.0, 1.0]);
        assert_eq!(w.max(), (2.0, 1.0));
        assert_eq!(w.min(), (1.0, -2.0));
        assert_eq!(w.peak_deviation(0.0), (1.0, -2.0));
        assert_eq!(w.peak_deviation(1.0), (1.0, -3.0));
    }

    #[test]
    fn crossings() {
        let w = ramp();
        assert_eq!(w.crossing(1.5, true, 0.0), Some(1.5));
        assert_eq!(w.crossing(1.5, false, 0.0), None);
        assert_eq!(w.crossing(1.5, true, 2.0), None);
        // Falling waveform.
        let f = Waveform::from_samples(vec![0.0, 2.0], vec![3.0, 0.0]);
        assert_eq!(f.crossing(1.5, false, 0.0), Some(1.0));
    }

    #[test]
    fn slew_measurement() {
        let w = Waveform::from_samples(vec![0.0, 1.0], vec![0.0, 3.0]);
        let s = w.slew_10_90(3.0, true, 0.0).unwrap();
        assert!((s - 0.8).abs() < 1e-12);
        let f = Waveform::from_samples(vec![0.0, 2.0], vec![3.0, 0.0]);
        let s = f.slew_10_90(3.0, false, 0.0).unwrap();
        assert!((s - 1.6).abs() < 1e-12);
    }

    #[test]
    fn push_and_resample() {
        let mut w = Waveform::new();
        w.push(0.0, 0.0);
        w.push(1.0, 2.0);
        let r = w.resample(&[0.0, 0.25, 0.5, 1.0]);
        assert_eq!(r.values(), &[0.0, 0.5, 1.0, 2.0]);
        assert_eq!(r.times().len(), 4);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_non_monotone_times() {
        Waveform::from_samples(vec![0.0, 0.0], vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn push_rejects_backwards_time() {
        let mut w = Waveform::new();
        w.push(1.0, 0.0);
        w.push(0.5, 0.0);
    }

    #[test]
    #[should_panic(expected = "empty waveform")]
    fn empty_value_at_panics() {
        Waveform::new().value_at(0.0);
    }
}
