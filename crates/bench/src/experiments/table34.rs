//! Tables 3 and 4: driver-model accuracy against transistor-level SPICE for
//! rising glitch analysis, swept over wire lengths (10 µm – 5000 µm) and
//! library cells.
//!
//! Table 3 uses the timing-library (linear resistor) driver model; Table 4
//! the pre-characterized nonlinear model. Errors are reported per glitch
//! magnitude bin, as in the paper.

use super::stats::ErrStats;
use super::Scale;
use crate::fixtures::{charlib_for, structure_context, structure_fixture};
use pcv_cells::charlib::CharLibrary;
use pcv_cells::library::CellLibrary;
use pcv_designs::Technology;
use pcv_xtalk::drivers::DriverModelKind;
use pcv_xtalk::prune::{prune_victim, PruneConfig};
use pcv_xtalk::{analyze_glitch, AnalysisOptions, EngineKind};

/// One evaluated case.
#[derive(Debug, Clone)]
pub struct Case {
    /// Victim driver cell name.
    pub cell: String,
    /// Coupled length (meters).
    pub length: f64,
    /// Transistor-level SPICE reference peak (volts).
    pub reference: f64,
    /// Driver-model peak (volts).
    pub model: f64,
}

impl Case {
    /// Signed percentage error of the model versus the reference.
    pub fn err_pct(&self) -> f64 {
        100.0 * (self.model - self.reference) / self.reference.abs().max(1e-9)
    }
}

/// The study's result: all cases plus the per-bin statistics.
#[derive(Debug, Clone)]
pub struct Study {
    /// Which model was evaluated.
    pub model: DriverModelKind,
    /// All evaluated cases.
    pub cases: Vec<Case>,
}

/// Glitch-magnitude bin edges (volts), paper-style.
pub const BINS: [(f64, f64); 4] = [(0.05, 0.3), (0.3, 0.6), (0.6, 1.0), (1.0, 10.0)];

impl Study {
    /// Error statistics per glitch bin: `(bin, stats)`.
    pub fn binned(&self) -> Vec<((f64, f64), ErrStats)> {
        BINS.iter()
            .map(|&(lo, hi)| {
                let errs: Vec<f64> = self
                    .cases
                    .iter()
                    .filter(|c| c.reference >= lo && c.reference < hi)
                    .map(Case::err_pct)
                    .collect();
                ((lo, hi), ErrStats::of(&errs))
            })
            .collect()
    }

    /// Fraction of cases with |error| below `pct` percent.
    pub fn fraction_within(&self, pct: f64) -> f64 {
        if self.cases.is_empty() {
            return 0.0;
        }
        self.cases.iter().filter(|c| c.err_pct().abs() <= pct).count() as f64
            / self.cases.len() as f64
    }

    /// Number of cases with |error| above `pct` percent.
    pub fn count_above(&self, pct: f64) -> usize {
        self.cases.iter().filter(|c| c.err_pct().abs() > pct).count()
    }

    /// Render the paper-style table.
    pub fn to_text(&self, title: &str) -> String {
        let mut out = format!("{title} ({} cases)\n", self.cases.len());
        out.push_str("  glitch bin (V)       n     avg err%   std err%   min err%   max err%\n");
        for ((lo, hi), s) in self.binned() {
            if s.n == 0 {
                continue;
            }
            out.push_str(&format!(
                "  [{lo:>4.2}, {hi:>4.2}) {:>8} {:>10.2} {:>10.2} {:>10.2} {:>10.2}\n",
                s.n, s.avg, s.std, s.min, s.max
            ));
        }
        out.push_str(&format!(
            "  within 10% of SPICE: {:.1}%; cases beyond 50%: {}\n",
            100.0 * self.fraction_within(10.0),
            self.count_above(50.0)
        ));
        out
    }
}

/// Cells swept at each scale.
pub fn cells_for(scale: Scale) -> Vec<&'static str> {
    match scale {
        Scale::Quick => vec!["INVX1", "INVX4", "INVX16", "BUFX4", "NAND2X4", "NOR2X4"],
        Scale::Full => vec![
            "INVX1", "INVX1.5", "INVX2", "INVX3", "INVX4", "INVX6", "INVX8", "INVX12", "INVX16",
            "INVX20", "INVX24", "INVX32", "INVX40", "INVX48", "BUFX1", "BUFX2", "BUFX3", "BUFX4",
            "BUFX6", "BUFX8", "BUFX12", "BUFX16", "BUFX20", "BUFX24", "BUFX32", "BUFX40", "BUFX48",
            "NAND2X1", "NAND2X2", "NAND2X3", "NAND2X4", "NAND2X6", "NAND2X8", "NAND2X12",
            "NAND2X16", "NAND2X20", "NAND2X24", "NOR2X1", "NOR2X2", "NOR2X3", "NOR2X4", "NOR2X6",
            "NOR2X8", "NOR2X12", "NOR2X16", "NOR2X20", "NOR2X24", "TBUFX2", "TBUFX4", "TBUFX8",
            "TBUFX16", "TBUFX32",
        ],
    }
}

/// Wire lengths swept at each scale (meters), 10 µm – 5000 µm as in the
/// paper.
pub fn lengths_for(scale: Scale) -> Vec<f64> {
    let n = match scale {
        Scale::Quick => 6,
        Scale::Full => 60,
    };
    (0..n)
        .map(|k| {
            let f = k as f64 / (n - 1) as f64;
            10e-6 * (5000.0f64 / 10.0).powf(f)
        })
        .collect()
}

/// Run Tables 3 and 4 in one pass: one transistor-level reference per case,
/// scored against the timing-library model (Table 3) and the nonlinear
/// model (Table 4), in that order.
///
/// # Panics
///
/// Panics on characterization or analysis failure (harness context).
pub fn run(scale: Scale) -> [Study; 2] {
    let tech = Technology::c025();
    let lib = CellLibrary::standard_025();
    let cells = cells_for(scale);
    let mut names: Vec<&str> = cells.clone();
    names.push("BUFX8"); // fixed aggressor driver
    names.dedup();
    let charlib: CharLibrary = charlib_for(&names);
    let opts_model = AnalysisOptions::default();
    let opts_ref = AnalysisOptions { engine: EngineKind::Spice, ..AnalysisOptions::default() };

    let mut studies = [DriverModelKind::TimingLibrary, DriverModelKind::Nonlinear]
        .map(|model| Study { model, cases: Vec::new() });
    for cell in &cells {
        for &len in &lengths_for(scale) {
            let fx = structure_fixture(len, &tech, cell, "BUFX8");
            let victim = fx.db.find_net("v").expect("victim exists");
            let cluster = prune_victim(&fx.db, victim, &PruneConfig::default());

            let ref_ctx = structure_context(&fx, &lib, &charlib, DriverModelKind::TransistorLevel);
            let reference = analyze_glitch(&ref_ctx, &cluster, true, &opts_ref)
                .expect("reference analysis succeeds")
                .peak;
            if reference.abs() < 0.05 {
                continue;
            }
            for study in &mut studies {
                let model_ctx = structure_context(&fx, &lib, &charlib, study.model);
                let model = analyze_glitch(&model_ctx, &cluster, true, &opts_model)
                    .expect("model analysis succeeds")
                    .peak;
                study.cases.push(Case { cell: cell.to_string(), length: len, reference, model });
            }
        }
    }
    studies
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_and_fractions() {
        let study = Study {
            model: DriverModelKind::Nonlinear,
            cases: vec![
                Case { cell: "a".into(), length: 1.0, reference: 0.2, model: 0.21 },
                Case { cell: "a".into(), length: 1.0, reference: 0.7, model: 0.9 },
                Case { cell: "a".into(), length: 1.0, reference: 1.5, model: 1.5 },
            ],
        };
        assert!((study.cases[0].err_pct() - 5.0).abs() < 1e-9);
        assert_eq!(study.fraction_within(10.0), 2.0 / 3.0);
        assert_eq!(study.count_above(20.0), 1);
        let text = study.to_text("t");
        assert!(text.starts_with("t (3 cases)\n"));
        assert!(text.contains("avg err%"));
        assert!(text.ends_with("\n  within 10% of SPICE: 66.7%; cases beyond 50%: 0\n"), "{text}");
        let bins = study.binned();
        assert_eq!(bins.len(), 4);
        assert_eq!(bins[0].1.n, 1);
    }

    #[test]
    fn sweep_axes_have_expected_sizes() {
        assert_eq!(lengths_for(Scale::Quick).len(), 6);
        assert_eq!(lengths_for(Scale::Full).len(), 60);
        assert!(cells_for(Scale::Full).len() >= 50);
        let ls = lengths_for(Scale::Full);
        assert!((ls[0] - 10e-6).abs() < 1e-12);
        assert!((ls[59] - 5000e-6).abs() < 1e-9);
    }
}
