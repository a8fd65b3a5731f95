//! Small statistics helpers shared by the experiments.

/// Summary statistics of a sample.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrStats {
    /// Sample count.
    pub n: usize,
    /// Mean.
    pub avg: f64,
    /// Standard deviation (population).
    pub std: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
}

impl ErrStats {
    /// Compute statistics; zeroed for an empty sample.
    pub fn of(xs: &[f64]) -> ErrStats {
        if xs.is_empty() {
            return ErrStats { n: 0, avg: 0.0, std: 0.0, min: 0.0, max: 0.0 };
        }
        let n = xs.len() as f64;
        let avg = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - avg) * (x - avg)).sum::<f64>() / n;
        ErrStats {
            n: xs.len(),
            avg,
            std: var.sqrt(),
            min: xs.iter().cloned().fold(f64::INFINITY, f64::min),
            max: xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

/// A fixed-width histogram over `[lo, hi)` with `bins` buckets plus
/// under/overflow.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<usize>,
    under: usize,
    over: usize,
}

impl Histogram {
    /// Create an empty histogram.
    ///
    /// # Panics
    ///
    /// Panics if `hi <= lo` or `bins == 0`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Histogram {
        assert!(hi > lo && bins > 0, "invalid histogram bounds");
        Histogram { lo, hi, counts: vec![0; bins], under: 0, over: 0 }
    }

    /// Add a sample.
    pub fn add(&mut self, x: f64) {
        if x < self.lo {
            self.under += 1;
        } else if x >= self.hi {
            self.over += 1;
        } else {
            let bins = self.counts.len();
            let k = ((x - self.lo) / (self.hi - self.lo) * bins as f64) as usize;
            self.counts[k.min(bins - 1)] += 1;
        }
    }

    /// Total samples.
    pub fn total(&self) -> usize {
        self.counts.iter().sum::<usize>() + self.under + self.over
    }

    /// Render as an ASCII bar chart with per-bin percentages.
    pub fn to_text(&self, label: &str) -> String {
        let mut out = format!("{label}\n");
        let total = self.total().max(1);
        let width = (self.hi - self.lo) / self.counts.len() as f64;
        let mut row = |bin: String, c: usize| {
            let pct = 100.0 * c as f64 / total as f64;
            let line = format!("  {bin}: {pct:>5.1}% {}", "#".repeat(60 * c / total));
            out.push_str(line.trim_end());
            out.push('\n');
        };
        if self.under > 0 {
            row(format!("< {:>8.2}", self.lo), self.under);
        }
        for (k, &c) in self.counts.iter().enumerate() {
            let a = self.lo + width * k as f64;
            row(format!("[{:>7.2},{:>7.2})", a, a + width), c);
        }
        if self.over > 0 {
            row(format!(">={:>8.2}", self.hi), self.over);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_of_known_sample() {
        let s = ErrStats::of(&[1.0, 2.0, 3.0]);
        assert_eq!(s.n, 3);
        assert!((s.avg - 2.0).abs() < 1e-12);
        assert!((s.std - (2.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert_eq!(ErrStats::of(&[]).n, 0);
    }

    #[test]
    fn histogram_binning() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        for x in [-1.0, 0.0, 1.9, 2.0, 9.9, 10.0, 42.0] {
            h.add(x);
        }
        assert_eq!(h.total(), 7);
        let text = h.to_text("t");
        assert!(text.contains('%'));
        assert!(text.starts_with("t\n"));
        assert!(text.contains("\n  [   0.00,   2.00):  28.6% #################\n"), "{text}");
        assert!(text.contains("\n  [   4.00,   6.00):   0.0%\n"), "no trailing blank: {text}");
    }
}
