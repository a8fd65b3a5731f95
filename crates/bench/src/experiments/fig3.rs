//! Figure 3: distribution of percentage error between SPICE and MPVL on
//! crosstalk peaks for coupled networks with 2–12 aggressors, both engines
//! driven by identical 1 kΩ linear Thevenin models (isolating the
//! reduced-order-modeling error), plus the CPU-time speedup.

use super::stats::Histogram;
use super::Scale;
use pcv_designs::random::{random_cluster, RandomClusterConfig};
use pcv_designs::Technology;
use pcv_xtalk::prune::{prune_victim, PruneConfig};
use pcv_xtalk::{analyze_glitch, AnalysisContext, AnalysisOptions, EngineKind};
use std::time::Duration;

/// One evaluated network.
#[derive(Debug, Clone)]
pub struct Case {
    /// Seed / case index.
    pub index: usize,
    /// Number of aggressors.
    pub n_aggressors: usize,
    /// SPICE peak (volts).
    pub spice_peak: f64,
    /// MPVL peak (volts).
    pub mpvl_peak: f64,
    /// SPICE wall time.
    pub spice_time: Duration,
    /// MPVL wall time.
    pub mpvl_time: Duration,
}

impl Case {
    /// The paper's error convention: negative means MPVL *overestimates*
    /// the peak relative to SPICE.
    pub fn err_pct(&self) -> f64 {
        100.0 * (self.spice_peak - self.mpvl_peak) / self.spice_peak.abs().max(1e-9)
    }
}

/// Full experiment result.
#[derive(Debug, Clone)]
pub struct Fig3 {
    /// All evaluated networks.
    pub cases: Vec<Case>,
}

impl Fig3 {
    /// Mean of |error| (the paper's "average percentage error").
    pub fn avg_abs_err(&self) -> f64 {
        if self.cases.is_empty() {
            return 0.0;
        }
        self.cases.iter().map(|c| c.err_pct().abs()).sum::<f64>() / self.cases.len() as f64
    }

    /// Largest |error| (percent).
    pub fn max_abs_err(&self) -> f64 {
        self.cases.iter().map(|c| c.err_pct().abs()).fold(0.0, f64::max)
    }

    /// Aggregate CPU-time speedup (total SPICE time / total MPVL time).
    pub fn speedup(&self) -> f64 {
        let s: f64 = self.cases.iter().map(|c| c.spice_time.as_secs_f64()).sum();
        let m: f64 = self.cases.iter().map(|c| c.mpvl_time.as_secs_f64()).sum();
        s / m.max(1e-12)
    }

    /// The case with the largest |error| — Figure 4/5 plots its waveforms.
    pub fn worst_case(&self) -> Option<&Case> {
        self.cases.iter().max_by(|a, b| {
            a.err_pct().abs().partial_cmp(&b.err_pct().abs()).expect("finite errors")
        })
    }

    /// Paper-style text output; the wall-clock [`speedup`](Self::speedup)
    /// is left out, so the text depends on the code alone.
    pub fn to_text(&self) -> String {
        let mut hist = Histogram::new(-2.0, 2.0, 16);
        for c in &self.cases {
            hist.add(c.err_pct());
        }
        let mut out = hist.to_text("Figure 3: % error of crosstalk peaks, SPICE vs MPVL");
        out.push_str(&format!(
            "  cases: {}  avg |err|: {:.3}%  max |err|: {:.3}%\n",
            self.cases.len(),
            self.avg_abs_err(),
            self.max_abs_err(),
        ));
        out
    }
}

/// Number of networks at each scale (the paper simulated 113).
pub fn num_cases(scale: Scale) -> usize {
    match scale {
        Scale::Quick => 20,
        Scale::Full => 113,
    }
}

/// Run the experiment.
///
/// # Panics
///
/// Panics on analysis failure (harness context).
pub fn run(scale: Scale) -> Fig3 {
    let tech = Technology::c025();
    let n = num_cases(scale);
    let mut cases = Vec::with_capacity(n);
    for i in 0..n {
        let n_agg = 2 + (i % 11); // spans 2..=12
        let cfg = RandomClusterConfig {
            n_aggressors: n_agg,
            seed: 1000 + i as u64,
            ..Default::default()
        };
        let cl = random_cluster(&cfg, &tech);
        let ctx = AnalysisContext::fixed_resistance(&cl.db, 1000.0);
        // Keep every generated aggressor in the cluster: the pruning study
        // is separate; Figure 3 validates the engine on given clusters.
        let prune = PruneConfig { cap_ratio: 0.0, max_aggressors: 12 };
        let cluster = prune_victim(&cl.db, cl.victim, &prune);

        let mor_opts = AnalysisOptions::default();
        let mor = analyze_glitch(&ctx, &cluster, true, &mor_opts).expect("mpvl analysis succeeds");
        let spice_opts =
            AnalysisOptions { engine: EngineKind::Spice, ..AnalysisOptions::default() };
        let spice =
            analyze_glitch(&ctx, &cluster, true, &spice_opts).expect("spice analysis succeeds");
        if spice.peak.abs() < 0.02 {
            continue; // no meaningful crosstalk in this random draw
        }
        cases.push(Case {
            index: i,
            n_aggressors: n_agg,
            spice_peak: spice.peak,
            mpvl_peak: mor.peak,
            spice_time: spice.elapsed,
            mpvl_time: mor.elapsed,
        });
    }
    Fig3 { cases }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_convention_matches_paper() {
        let c = Case {
            index: 0,
            n_aggressors: 2,
            spice_peak: 1.0,
            mpvl_peak: 1.1, // MPVL overestimates
            spice_time: Duration::from_secs(1),
            mpvl_time: Duration::from_millis(100),
        };
        assert!(c.err_pct() < 0.0, "overestimate is negative error");
        let f = Fig3 { cases: vec![c] };
        assert!((f.speedup() - 10.0).abs() < 0.5);
        assert!(f.worst_case().is_some());
        assert!(f.to_text().ends_with("  cases: 1  avg |err|: 10.000%  max |err|: 10.000%\n"));
    }

    #[test]
    fn small_run_has_tiny_errors() {
        // Three cases are enough to check the engines agree closely.
        let tech = Technology::c025();
        let mut worst: f64 = 0.0;
        for i in 0..3 {
            let cfg = RandomClusterConfig {
                n_aggressors: 2 + i,
                seed: 7 + i as u64,
                ..Default::default()
            };
            let cl = random_cluster(&cfg, &tech);
            let ctx = AnalysisContext::fixed_resistance(&cl.db, 1000.0);
            let prune = PruneConfig { cap_ratio: 0.0, max_aggressors: 12 };
            let cluster = prune_victim(&cl.db, cl.victim, &prune);
            let mor = analyze_glitch(&ctx, &cluster, true, &AnalysisOptions::default()).unwrap();
            let spice_opts =
                AnalysisOptions { engine: EngineKind::Spice, ..AnalysisOptions::default() };
            let spice = analyze_glitch(&ctx, &cluster, true, &spice_opts).unwrap();
            if spice.peak.abs() > 0.02 {
                worst = worst.max((spice.peak - mor.peak).abs() / spice.peak.abs() * 100.0);
            }
        }
        assert!(worst < 3.0, "engines should agree within a few %: {worst}");
    }
}
