//! Table 1: peak glitch versus coupled wire length (100 µm – 4000 µm) on
//! the Figure 1 structure (victim flanked by two aggressors).

use crate::fixtures::{charlib_for, structure_context, structure_fixture};
use pcv_cells::library::CellLibrary;
use pcv_designs::Technology;
use pcv_xtalk::drivers::DriverModelKind;
use pcv_xtalk::prune::{prune_victim, PruneConfig};
use pcv_xtalk::{analyze_glitch, AnalysisOptions};

/// The paper's coupled lengths (meters).
pub const LENGTHS: [f64; 4] = [100e-6, 1000e-6, 2000e-6, 4000e-6];

/// One row: `(length_m, peak_glitch_v)`.
pub type Row = (f64, f64);

/// Run the sweep with the nonlinear cell models (victim INVX2 holding low,
/// aggressors BUFX8 rising).
///
/// # Panics
///
/// Panics on analysis failure (experiment harness context).
pub fn run() -> Vec<Row> {
    let tech = Technology::c025();
    let lib = CellLibrary::standard_025();
    let charlib = charlib_for(&["INVX2", "BUFX8"]);
    LENGTHS
        .iter()
        .map(|&len| {
            let fx = structure_fixture(len, &tech, "INVX2", "BUFX8");
            let ctx = structure_context(&fx, &lib, &charlib, DriverModelKind::Nonlinear);
            let victim = fx.db.find_net("v").expect("victim exists");
            let cluster = prune_victim(&fx.db, victim, &PruneConfig::default());
            let res = analyze_glitch(&ctx, &cluster, true, &AnalysisOptions::default())
                .expect("glitch analysis succeeds");
            (len, res.peak)
        })
        .collect()
}

/// Format paper-style rows.
pub fn to_text(rows: &[Row]) -> String {
    let mut out = String::from("Table 1: coupled wire length vs peak glitch (Fig. 1 structure)\n");
    out.push_str("  ckt     length      glitch\n");
    for (k, &(len, peak)) in rows.iter().enumerate() {
        out.push_str(&format!("  ckt{:<4} {:>7.0} um {:>8.3} V\n", k + 1, len * 1e6, peak));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn glitch_grows_with_coupled_length() {
        // Use the two shortest lengths to keep the test quick; the full
        // sweep runs in the `experiments` binary.
        let tech = Technology::c025();
        let lib = CellLibrary::standard_025();
        let charlib = charlib_for(&["INVX2", "BUFX8"]);
        let mut peaks = Vec::new();
        for &len in &[100e-6, 1000e-6] {
            let fx = structure_fixture(len, &tech, "INVX2", "BUFX8");
            let ctx = structure_context(&fx, &lib, &charlib, DriverModelKind::Nonlinear);
            let victim = fx.db.find_net("v").unwrap();
            let cluster = prune_victim(&fx.db, victim, &PruneConfig::default());
            let res = analyze_glitch(&ctx, &cluster, true, &AnalysisOptions::default()).unwrap();
            peaks.push(res.peak);
        }
        assert!(
            peaks[1] > 1.3 * peaks[0],
            "1000um glitch {} should clearly exceed 100um glitch {}",
            peaks[1],
            peaks[0]
        );
        let text = to_text(&[(100e-6, peaks[0]), (1000e-6, peaks[1])]);
        assert!(text.contains("ckt1"));
    }
}
