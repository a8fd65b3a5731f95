//! Figures 6 and 7: crosstalk-peak accuracy of the *nonlinear cell model*
//! (on the reduced engine) against transistor-level SPICE, for latch-input
//! victims of the DSP-like block with their real drivers — rising
//! (Figure 6) and falling (Figure 7) polarities.
//!
//! As in the paper, only victims whose reference peak exceeds 10 % of Vdd
//! enter the distribution, and the error bounds are additionally reported
//! for peaks above 20 % of Vdd (the cases that matter).

use super::stats::{ErrStats, Histogram};
use super::Scale;
use pcv_designs::dsp::DspConfig;
use pcv_engine::ResidentChip;
use pcv_xtalk::drivers::DriverModelKind;
use pcv_xtalk::prune::{prune_victim_with_components, PruneConfig};
use pcv_xtalk::{analyze_glitch, AnalysisContext, AnalysisOptions, EngineKind};
use std::time::Duration;

/// One victim's evaluation for one polarity.
#[derive(Debug, Clone)]
pub struct Case {
    /// Victim net name.
    pub net: String,
    /// Transistor-level SPICE peak (volts, signed).
    pub reference: f64,
    /// Nonlinear-model MPVL peak (volts, signed).
    pub model: f64,
    /// SPICE wall time.
    pub spice_time: Duration,
    /// MPVL wall time.
    pub mpvl_time: Duration,
}

impl Case {
    /// Percentage error; negative means SPICE is more pessimistic (larger
    /// magnitude), matching the paper's convention for these figures.
    pub fn err_pct(&self) -> f64 {
        100.0 * (self.model.abs() - self.reference.abs()) / self.reference.abs().max(1e-9)
    }
}

/// Result for one polarity (Figure 6 = rising, Figure 7 = falling).
#[derive(Debug, Clone)]
pub struct Distribution {
    /// `true` for rising crosstalk.
    pub rising: bool,
    /// Cases with reference peak above 10 % of Vdd.
    pub cases: Vec<Case>,
    /// Supply voltage used.
    pub vdd: f64,
}

impl Distribution {
    /// Error statistics over all retained cases.
    pub fn stats(&self) -> ErrStats {
        ErrStats::of(&self.cases.iter().map(Case::err_pct).collect::<Vec<_>>())
    }

    /// Error statistics restricted to peaks above 20 % of Vdd.
    pub fn stats_above_20pct(&self) -> ErrStats {
        let errs: Vec<f64> = self
            .cases
            .iter()
            .filter(|c| c.reference.abs() > 0.2 * self.vdd)
            .map(Case::err_pct)
            .collect();
        ErrStats::of(&errs)
    }

    /// Aggregate speedup of the modeled flow over SPICE.
    pub fn speedup(&self) -> f64 {
        let s: f64 = self.cases.iter().map(|c| c.spice_time.as_secs_f64()).sum();
        let m: f64 = self.cases.iter().map(|c| c.mpvl_time.as_secs_f64()).sum();
        s / m.max(1e-12)
    }

    /// Paper-style text; the wall-clock [`speedup`](Self::speedup) is left
    /// out, so the text depends on the code alone.
    pub fn to_text(&self) -> String {
        let title = if self.rising {
            "Figure 6: rising crosstalk peak error, nonlinear model vs transistor-level SPICE"
        } else {
            "Figure 7: falling crosstalk peak error, nonlinear model vs transistor-level SPICE"
        };
        let mut hist = Histogram::new(-30.0, 30.0, 12);
        for c in &self.cases {
            hist.add(c.err_pct());
        }
        let mut out = hist.to_text(title);
        let s = self.stats();
        out.push_str(&format!(
            "  cases >10% vdd: {}  avg err: {:.2}%  range: [{:.2}%, {:.2}%]\n",
            s.n, s.avg, s.min, s.max
        ));
        let s20 = self.stats_above_20pct();
        out.push_str(&format!(
            "  peaks >20% vdd: {} cases, error range [{:.2}%, {:.2}%]\n",
            s20.n, s20.min, s20.max
        ));
        out
    }
}

/// Number of latch-input victims audited (the paper used 101).
pub fn num_victims(scale: Scale) -> usize {
    match scale {
        Scale::Quick => 16,
        Scale::Full => 101,
    }
}

/// Run both polarities.
///
/// # Panics
///
/// Panics on characterization or analysis failure (harness context).
pub fn run(scale: Scale) -> (Distribution, Distribution) {
    let chip = ResidentChip::dsp(&DspConfig {
        n_buses: 5,
        bus_bits: 16,
        n_random_nets: 80,
        ..Default::default()
    })
    .expect("driver cells characterize");
    let wanted = num_victims(scale).min(chip.victims().len());
    let opts = AnalysisOptions::default();
    let vdd = opts.vdd;
    let model_ctx = chip.ctx();
    let ref_ctx = AnalysisContext { driver_model: DriverModelKind::TransistorLevel, ..model_ctx };

    let mut rise_cases = Vec::new();
    let mut fall_cases = Vec::new();
    for &pnet in chip.victims().iter().take(wanted) {
        let cluster = prune_victim_with_components(
            chip.db(),
            pnet,
            &PruneConfig::default(),
            chip.component_sizes(),
        );
        if cluster.aggressors.is_empty() {
            continue;
        }
        let spice_opts =
            AnalysisOptions { engine: EngineKind::Spice, ..AnalysisOptions::default() };
        for rising in [true, false] {
            let reference = match analyze_glitch(&ref_ctx, &cluster, rising, &spice_opts) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("fig6_7: skipping victim (reference failed): {e}");
                    continue;
                }
            };
            if reference.peak.abs() < 0.1 * vdd {
                continue;
            }
            let model = match analyze_glitch(&model_ctx, &cluster, rising, &opts) {
                Ok(m) => m,
                Err(e) => {
                    eprintln!("fig6_7: skipping victim (model failed): {e}");
                    continue;
                }
            };
            let case = Case {
                net: chip.db().net(pnet).name().to_owned(),
                reference: reference.peak,
                model: model.peak,
                spice_time: reference.elapsed,
                mpvl_time: model.elapsed,
            };
            if rising {
                rise_cases.push(case);
            } else {
                fall_cases.push(case);
            }
        }
    }
    (
        Distribution { rising: true, cases: rise_cases, vdd },
        Distribution { rising: false, cases: fall_cases, vdd },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distribution_stats() {
        let mk = |reference: f64, model: f64| Case {
            net: "n".into(),
            reference,
            model,
            spice_time: Duration::from_millis(250),
            mpvl_time: Duration::from_millis(10),
        };
        let d = Distribution {
            rising: true,
            cases: vec![mk(0.3, 0.32), mk(0.6, 0.57), mk(1.2, 1.25)],
            vdd: 2.5,
        };
        let s = d.stats();
        assert_eq!(s.n, 3);
        let s20 = d.stats_above_20pct();
        assert_eq!(s20.n, 2); // 0.6 and 1.2 exceed 0.5 V
        assert!((d.speedup() - 25.0).abs() < 1.0);
        assert!(d.to_text().contains("Figure 6"));
        assert!(!d.to_text().contains("speedup"));
        let d7 = Distribution { rising: false, cases: vec![], vdd: 2.5 };
        assert!(d7.to_text().contains("Figure 7"));
    }
}
