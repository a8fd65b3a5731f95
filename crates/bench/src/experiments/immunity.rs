//! Receiver noise-immunity curves: the critical glitch amplitude for a 50 %
//! output excursion against the glitch width, for a few representative
//! receivers — the transistor-level receiver analysis the paper lists as
//! future work.

use pcv_cells::library::CellLibrary;
use pcv_xtalk::receiver::noise_immunity_curve;

/// Run the curves with the receiver's input quiet low at Vdd = 2.5 V and
/// format them; `-` marks a width at which no amplitude up to Vdd
/// propagates.
///
/// # Panics
///
/// Panics on simulation failure (experiment harness context).
pub fn run() -> String {
    let lib = CellLibrary::standard_025();
    let widths = [0.05e-9, 0.1e-9, 0.2e-9, 0.5e-9, 1.0e-9, 2.0e-9];
    let mut out = String::from(
        "noise-immunity curves (critical amplitude in V for a 50% output excursion)\n",
    );
    out.push_str(&format!("{:>10}", "width(ns)"));
    for w in widths {
        out.push_str(&format!("{:>9.2}", w * 1e9));
    }
    out.push('\n');
    for name in ["INVX1", "INVX4", "INVX16", "BUFX4", "NAND2X4", "NOR2X4"] {
        let cell = lib.cell(name).expect("cell exists");
        let curve =
            noise_immunity_curve(cell, &widths, 0.0, 2.5, 0.5).expect("immunity analysis succeeds");
        out.push_str(&format!("{name:>10}"));
        for p in &curve {
            if p.critical_amplitude.is_finite() {
                out.push_str(&format!("{:>9.2}", p.critical_amplitude));
            } else {
                out.push_str(&format!("{:>9}", "-"));
            }
        }
        out.push('\n');
    }
    out.push_str(
        "\nnarrow glitches need more amplitude; the wide-pulse limit is the DC threshold\n",
    );
    out
}
