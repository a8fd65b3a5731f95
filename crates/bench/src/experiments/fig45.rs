//! Figures 4 and 5: overlay of the full crosstalk waveform from MPVL and
//! SPICE for the Figure 3 case with the largest peak error, demonstrating
//! that even there the waveforms coincide except for a negligible peak
//! difference.

use super::fig3;
use pcv_designs::random::{random_cluster, RandomClusterConfig};
use pcv_designs::Technology;
use pcv_netlist::Waveform;
use pcv_xtalk::prune::{prune_victim, PruneConfig};
use pcv_xtalk::{analyze_glitch, AnalysisContext, AnalysisOptions, EngineKind};

/// The two waveforms of the worst-error case.
#[derive(Debug, Clone)]
pub struct Fig45 {
    /// Case index within the Figure 3 population.
    pub case_index: usize,
    /// SPICE victim waveform.
    pub spice: Waveform,
    /// MPVL victim waveform.
    pub mpvl: Waveform,
}

impl Fig45 {
    /// Peak difference (volts).
    pub fn peak_difference(&self) -> f64 {
        let (_, sp) = self.spice.peak_deviation(0.0);
        let (_, mp) = self.mpvl.peak_deviation(0.0);
        (sp - mp).abs()
    }

    /// Render as CSV: `time_ns,spice_v,mpvl_v` on a uniform grid.
    pub fn to_csv(&self, points: usize) -> String {
        let t_end = *self.spice.times().last().expect("non-empty waveform");
        let mut out = String::from("time_ns,spice_v,mpvl_v\n");
        for k in 0..=points {
            let t = t_end * k as f64 / points as f64;
            out.push_str(&format!(
                "{:.4},{:.6},{:.6}\n",
                t * 1e9,
                self.spice.value_at(t),
                self.mpvl.value_at(t)
            ));
        }
        out
    }

    /// The summary line and a 20-row overlay.
    pub fn to_text(&self) -> String {
        let (t, peak) = self.spice.peak_deviation(0.0);
        format!(
            "Figures 4/5: worst Figure 3 case {}: SPICE peak {peak:.4} V at {:.3} ns, \
             SPICE-vs-MPVL peak difference {:.3e} V\n{}",
            self.case_index,
            t * 1e9,
            self.peak_difference(),
            self.to_csv(20)
        )
    }
}

/// Re-run the worst case of a Figure 3 population and capture waveforms.
///
/// # Panics
///
/// Panics when the population produced no cases, or on engine failure.
pub fn run(fig3_result: &fig3::Fig3) -> Fig45 {
    let worst = fig3_result.worst_case().expect("population is non-empty");
    let tech = Technology::c025();
    let cfg = RandomClusterConfig {
        n_aggressors: worst.n_aggressors,
        seed: 1000 + worst.index as u64,
        ..Default::default()
    };
    let cl = random_cluster(&cfg, &tech);
    let ctx = AnalysisContext::fixed_resistance(&cl.db, 1000.0);
    let prune = PruneConfig { cap_ratio: 0.0, max_aggressors: 12 };
    let cluster = prune_victim(&cl.db, cl.victim, &prune);
    let mor = analyze_glitch(&ctx, &cluster, true, &AnalysisOptions::default())
        .expect("mpvl analysis succeeds");
    let spice_opts = AnalysisOptions { engine: EngineKind::Spice, ..AnalysisOptions::default() };
    let spice = analyze_glitch(&ctx, &cluster, true, &spice_opts).expect("spice analysis succeeds");
    Fig45 { case_index: worst.index, spice: spice.waveform, mpvl: mor.waveform }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_has_expected_shape() {
        let w = Waveform::from_samples(vec![0.0, 1e-9, 2e-9], vec![0.0, 1.0, 0.0]);
        let f = Fig45 { case_index: 0, spice: w.clone(), mpvl: w };
        let csv = f.to_csv(10);
        assert_eq!(csv.lines().count(), 12);
        assert!(csv.starts_with("time_ns"));
        assert_eq!(f.peak_difference(), 0.0);
        let text = f.to_text();
        assert!(
            text.starts_with(
                "Figures 4/5: worst Figure 3 case 0: SPICE peak 1.0000 V at 1.000 ns, \
                 SPICE-vs-MPVL peak difference 0.000e0 V\ntime_ns"
            ),
            "{text}"
        );
        assert_eq!(text.lines().count(), 23);
    }
}
