//! Cell pre-characterization: the one-time flow that turns transistor-level
//! cell netlists into the tables both driver models consume.
//!
//! For each cell, the harness runs the `pcv-spice` substrate to produce:
//!
//! * an NLDM-style [`TimingTable`] — 50 % delay and 10–90 % output slew over
//!   an (input slew × load capacitance) grid, rise and fall;
//! * fitted *drive resistances* (`rout_rise`, `rout_fall`) from the slope of
//!   delay versus load (`delay ≈ d0 + R·C·ln 2`) — the paper's
//!   "timing-library based" linear driver;
//! * a quasi-static [`IvSurface`] `I(V_in, V_out)` from DC sweeps with the
//!   output clamped — the paper's "non-linear yet simple cell model";
//! * pin capacitances (`cin` analytic from gate areas, `cout` from junction
//!   areas).

use crate::error::CellError;
use crate::liberty::{parse_liberty, write_liberty};
use crate::library::{Cell, CellKind, CellLibrary};
use crate::VDD;
use pcv_netlist::{Circuit, SourceWave};
use pcv_sparse::Dense;
use pcv_spice::{SimOptions, Simulator};
use std::collections::BTreeMap;
use std::path::Path;

/// Characterization grid: input slews (seconds).
pub const SLEW_GRID: [f64; 4] = [0.05e-9, 0.15e-9, 0.4e-9, 1.0e-9];
/// Characterization grid: load capacitances (farads).
pub const LOAD_GRID: [f64; 4] = [5e-15, 25e-15, 80e-15, 200e-15];
/// I–V surface grid resolution per axis (rail-refined, see
/// [`iv_grid`]).
pub const IV_POINTS: usize = 13;

/// The I–V surface sampling grid: non-uniform, refined near the rails
/// where a quiet victim's holding conductance lives (a uniform grid's
/// secant underestimates the triode conductance at `v ≈ 0` and `v ≈ Vdd`).
pub fn iv_grid() -> Vec<f64> {
    // Fractions of Vdd.
    const FRACS: [f64; IV_POINTS] =
        [0.0, 0.03, 0.08, 0.16, 0.28, 0.42, 0.5, 0.58, 0.72, 0.84, 0.92, 0.97, 1.0];
    FRACS.iter().map(|f| f * VDD).collect()
}

/// NLDM-style delay/slew tables over (input slew × load) for both edges.
#[derive(Debug, Clone)]
pub struct TimingTable {
    /// Input slew axis (seconds).
    pub slews: Vec<f64>,
    /// Load capacitance axis (farads).
    pub loads: Vec<f64>,
    /// 50 % delay, output rising (`[slew_idx, load_idx]`).
    pub delay_rise: Dense,
    /// 50 % delay, output falling.
    pub delay_fall: Dense,
    /// 10–90 % output slew, rising.
    pub slew_rise: Dense,
    /// 90–10 % output slew, falling.
    pub slew_fall: Dense,
}

impl TimingTable {
    /// Bilinear lookup with clamping: `(delay, output_slew)` for the given
    /// input slew, load and edge direction.
    pub fn lookup(&self, in_slew: f64, load: f64, rising: bool) -> (f64, f64) {
        let (d, s) = if rising {
            (&self.delay_rise, &self.slew_rise)
        } else {
            (&self.delay_fall, &self.slew_fall)
        };
        (
            bilinear(&self.slews, &self.loads, d, in_slew, load),
            bilinear(&self.slews, &self.loads, s, in_slew, load),
        )
    }
}

/// Quasi-static output current surface `I(V_in, V_out)`: the current the
/// cell injects into its output node, tabulated on a rectangular grid.
#[derive(Debug, Clone)]
pub struct IvSurface {
    /// Input voltage axis.
    pub vin: Vec<f64>,
    /// Output voltage axis.
    pub vout: Vec<f64>,
    /// `current[(i, j)]` = injected current at `vin[i]`, `vout[j]`.
    pub current: Dense,
}

impl IvSurface {
    /// Injected current and its derivative with respect to `vout`, bilinear
    /// on the grid (clamped outside). One grid cell and one pair of
    /// fractions serve both.
    pub fn at(&self, vin: f64, vout: f64) -> (f64, f64) {
        let cell = GridCell::locate(&self.vin, &self.vout, vin, vout);
        let z = &self.current;
        let (i, j) = (cell.i, cell.j);
        // Derivative along vout from the enclosing grid cell.
        let (v0, v1) = (self.vout[j], self.vout[j + 1]);
        let di_lo = (z[(i, j + 1)] - z[(i, j)]) / (v1 - v0);
        let di_hi = (z[(i + 1, j + 1)] - z[(i + 1, j)]) / (v1 - v0);
        (cell.interpolate(z), di_lo + cell.fx * (di_hi - di_lo))
    }
}

/// A fully characterized cell.
#[derive(Debug, Clone)]
pub struct CharCell {
    /// Cell name.
    pub name: String,
    /// Logical function.
    pub kind: CellKind,
    /// Drive strength.
    pub strength: f64,
    /// Input pin capacitance (farads).
    pub cin: f64,
    /// Effective output (junction) capacitance (farads).
    pub cout: f64,
    /// Fitted pull-up drive resistance (ohms).
    pub rout_rise: f64,
    /// Fitted pull-down drive resistance (ohms).
    pub rout_fall: f64,
    /// Delay/slew tables.
    pub timing: TimingTable,
    /// Nonlinear output current surface.
    pub iv: IvSurface,
    /// Effective-input calibration for rising outputs, one entry per
    /// [`TimingTable::slews`] point: extra delay (seconds) applied to the
    /// imposed input waveform so the quasi-static model reproduces the
    /// measured min-load delay (absorbs internal stage delay of
    /// multi-stage cells).
    pub vin_delay_rise: Vec<f64>,
    /// Effective-input calibration for falling outputs (seconds/slew point).
    pub vin_delay_fall: Vec<f64>,
    /// Effective-input stretch factors for rising outputs (per slew point):
    /// the imposed input ramp is lengthened so the quasi-static model
    /// reproduces the measured min-load output slew.
    pub vin_stretch_rise: Vec<f64>,
    /// Effective-input stretch factors for falling outputs.
    pub vin_stretch_fall: Vec<f64>,
}

impl CharCell {
    /// Interpolated effective-input calibration `(delay, stretch)` for the
    /// given input slew and output edge.
    pub fn vin_calibration(&self, in_slew: f64, out_rising: bool) -> (f64, f64) {
        let (delays, stretches) = if out_rising {
            (&self.vin_delay_rise, &self.vin_stretch_rise)
        } else {
            (&self.vin_delay_fall, &self.vin_stretch_fall)
        };
        if delays.is_empty() {
            return (0.0, 1.0);
        }
        let xs = &self.timing.slews;
        if delays.len() != xs.len() {
            return (delays[0], stretches.first().copied().unwrap_or(1.0));
        }
        let interp = |ys: &[f64]| -> f64 {
            if in_slew <= xs[0] {
                return ys[0];
            }
            if in_slew >= xs[xs.len() - 1] {
                return ys[ys.len() - 1];
            }
            let i = xs.partition_point(|&v| v <= in_slew).clamp(1, xs.len() - 1);
            let f = (in_slew - xs[i - 1]) / (xs[i] - xs[i - 1]);
            ys[i - 1] + f * (ys[i] - ys[i - 1])
        };
        (interp(delays), interp(stretches))
    }
}

/// A characterized library keyed by cell name.
#[derive(Debug, Clone, Default)]
pub struct CharLibrary {
    cells: BTreeMap<String, CharCell>,
}

impl CharLibrary {
    /// Insert (or replace) a characterized cell.
    pub fn insert(&mut self, cell: CharCell) {
        self.cells.insert(cell.name.clone(), cell);
    }

    /// Look up a characterized cell.
    pub fn cell(&self, name: &str) -> Option<&CharCell> {
        self.cells.get(name)
    }

    /// Look up a characterized cell, erroring on absence.
    ///
    /// # Errors
    ///
    /// Returns [`CellError::UnknownCell`].
    pub fn require(&self, name: &str) -> Result<&CharCell, CellError> {
        self.cell(name).ok_or_else(|| CellError::UnknownCell { name: name.to_owned() })
    }

    /// Number of characterized cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Iterate in name order.
    pub fn iter(&self) -> impl Iterator<Item = &CharCell> {
        self.cells.values()
    }

    /// The named cells of the standard library, characterized — the paper's
    /// one-time task, paid once per checkout: each cell is stored as a
    /// Liberty-lite file under `target/pcv_charlib_cache/` and loaded from
    /// there afterwards. A file that does not hold its cell (unreadable,
    /// unparsable, another cell's) is characterized again and rewritten.
    ///
    /// # Errors
    ///
    /// [`CellError::UnknownCell`], else the first characterization failure.
    pub fn cached(names: &[&str]) -> Result<CharLibrary, CellError> {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/pcv_charlib_cache");
        Self::cached_in(&dir, names)
    }

    fn cached_in(dir: &Path, names: &[&str]) -> Result<CharLibrary, CellError> {
        let lib = CellLibrary::standard_025();
        let _ = std::fs::create_dir_all(dir);
        let mut out = CharLibrary::default();
        for &name in names {
            let cell =
                lib.cell(name).ok_or_else(|| CellError::UnknownCell { name: name.to_owned() })?;
            let file = dir.join(format!("{name}.lib"));
            out.insert(match Self::stored(&file, name) {
                Some(ch) => ch,
                None => {
                    let ch = characterize(cell)?;
                    let mut single = CharLibrary::default();
                    single.insert(ch.clone());
                    let _ = std::fs::write(&file, write_liberty(&single));
                    ch
                }
            });
        }
        Ok(out)
    }

    /// The cell `name` as `file` stores it, if it does.
    fn stored(file: &Path, name: &str) -> Option<CharCell> {
        let text = std::fs::read_to_string(file).ok()?;
        parse_liberty(&text).ok()?.cells.remove(name)
    }
}

/// Characterize a single cell.
///
/// # Errors
///
/// Returns [`CellError::Sim`] on simulation failure or
/// [`CellError::Measurement`] if an output transition cannot be observed.
pub fn characterize(cell: &Cell) -> Result<CharCell, CellError> {
    let slews: Vec<f64> = SLEW_GRID.to_vec();
    let loads: Vec<f64> = LOAD_GRID.to_vec();
    let ns = slews.len();
    let nl = loads.len();
    let mut delay_rise = Dense::zeros(ns, nl);
    let mut delay_fall = Dense::zeros(ns, nl);
    let mut slew_rise = Dense::zeros(ns, nl);
    let mut slew_fall = Dense::zeros(ns, nl);

    for (si, &slew) in slews.iter().enumerate() {
        for (li, &load) in loads.iter().enumerate() {
            let (d, s) = measure_edge(cell, slew, load, true)?;
            delay_rise[(si, li)] = d;
            slew_rise[(si, li)] = s;
            let (d, s) = measure_edge(cell, slew, load, false)?;
            delay_fall[(si, li)] = d;
            slew_fall[(si, li)] = s;
        }
    }

    // Drive resistance from the delay-vs-load slope at the mid slew:
    // delay ≈ d0 + R C ln 2 (the classic lumped-RC charge model).
    let mid = ns / 2;
    let fit = |table: &Dense| -> f64 {
        let (c0, c1) = (loads[0], loads[nl - 1]);
        let (d0, d1) = (table[(mid, 0)], table[(mid, nl - 1)]);
        ((d1 - d0) / (c1 - c0) / std::f64::consts::LN_2).max(1.0)
    };
    let rout_rise = fit(&delay_rise);
    let rout_fall = fit(&delay_fall);

    let iv = measure_iv(cell)?;
    let cout = output_cap(cell);
    let timing = TimingTable { slews, loads, delay_rise, delay_fall, slew_rise, slew_fall };

    // Effective-input calibration: make the quasi-static IV model reproduce
    // the measured min-load delay and slew at every input-slew grid point.
    // Single-stage cells come out near (0, 1); multi-stage cells absorb
    // their internal stage delay and edge-rate saturation.
    let mut vin_delay_rise = Vec::with_capacity(ns);
    let mut vin_stretch_rise = Vec::with_capacity(ns);
    let mut vin_delay_fall = Vec::with_capacity(ns);
    let mut vin_stretch_fall = Vec::with_capacity(ns);
    for &cal_slew in &timing.slews {
        let (d, st) = calibrate_vin(cell, &iv, &timing, cout, true, cal_slew);
        vin_delay_rise.push(d);
        vin_stretch_rise.push(st);
        let (d, st) = calibrate_vin(cell, &iv, &timing, cout, false, cal_slew);
        vin_delay_fall.push(d);
        vin_stretch_fall.push(st);
    }

    Ok(CharCell {
        name: cell.name.clone(),
        kind: cell.kind,
        strength: cell.strength,
        cin: cell.input_cap(),
        cout,
        rout_rise,
        rout_fall,
        timing,
        iv,
        vin_delay_rise,
        vin_delay_fall,
        vin_stretch_rise,
        vin_stretch_fall,
    })
}

/// Fixed-point calibration of the effective input waveform: find the extra
/// delay and ramp stretch that make the quasi-static model match the
/// characterized (delay, output slew) at the minimum table load.
fn calibrate_vin(
    cell: &Cell,
    iv: &IvSurface,
    timing: &TimingTable,
    cout: f64,
    out_rising: bool,
    in_slew: f64,
) -> (f64, f64) {
    let load = timing.loads[0];
    let (target_delay, target_slew) = timing.lookup(in_slew, load, out_rising);
    let in_rising = if cell.kind.inverting() { !out_rising } else { out_rising };
    let (v0_in, v1_in) = if in_rising { (0.0, VDD) } else { (VDD, 0.0) };
    let c_total = load + cout;

    let mut delay = 0.0f64;
    let mut stretch = 1.0f64;
    for _ in 0..5 {
        // Integrate C dv/dt = I(vin(t), v) with an imposed effective ramp.
        let t0 = 0.2e-9;
        let ramp = (in_slew / 0.8) * stretch;
        let t_in_50 = t0 + 0.5 * (in_slew / 0.8); // 50% of the *raw* input
        let t_end = t0 + delay.max(0.0) + ramp + 20.0 * target_delay.max(50e-12) + 2e-9;
        let dt = (t_end / 40_000.0).min(2e-13);
        let mut v = if out_rising { 0.0 } else { VDD };
        let mut t = 0.0;
        let mut times = Vec::with_capacity(2048);
        let mut vals = Vec::with_capacity(2048);
        let mut step = 0usize;
        while t < t_end {
            let frac = ((t - t0 - delay) / ramp).clamp(0.0, 1.0);
            let vin = v0_in + (v1_in - v0_in) * frac;
            let (i, _) = iv.at(vin, v);
            v += dt * i / c_total;
            v = v.clamp(-0.5, VDD + 0.5);
            t += dt;
            if step.is_multiple_of(16) {
                times.push(t);
                vals.push(v);
            }
            step += 1;
        }
        let w = pcv_netlist::Waveform::from_samples(times, vals);
        let t_out = w.crossing(0.5 * VDD, out_rising, 0.0);
        let s_out = w.slew_10_90(VDD, out_rising, 0.0);
        let (Some(t_out), Some(s_out)) = (t_out, s_out) else {
            // Model never transitions (pathological surface): keep current
            // calibration rather than diverging.
            break;
        };
        let model_delay = t_out - t_in_50;
        let d_err = target_delay - model_delay;
        let s_ratio = (target_slew / s_out).clamp(0.25, 4.0);
        delay += d_err;
        stretch = (stretch * s_ratio).clamp(0.1, 10.0);
        if d_err.abs() < 1e-12 && (s_ratio - 1.0).abs() < 0.02 {
            break;
        }
    }
    // A slightly negative delay is legitimate: the *effective* ramp of a
    // stretched edge must begin before the nominal switch time for the 50 %
    // crossing to line up. Bound it to stay causally sane.
    (delay.clamp(-1e-9, 2e-9), stretch)
}

/// One transient measurement: input edge with the given slew into the cell
/// loaded by `load`; returns `(50 % delay, 10–90 % output slew)`.
fn measure_edge(
    cell: &Cell,
    slew: f64,
    load: f64,
    out_rising: bool,
) -> Result<(f64, f64), CellError> {
    // Output rises when the controlling input goes to the "asserting low"
    // level for inverting cells, high for non-inverting ones.
    let in_rising = if cell.kind.inverting() { !out_rising } else { out_rising };
    let (v0, v1) = if in_rising { (0.0, VDD) } else { (VDD, 0.0) };

    let mut tstop = 2e-9 + 4.0 * slew + 40.0 * (1500.0 / cell.strength) * load;
    for _attempt in 0..4 {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let inp = ckt.node("in");
        let out = ckt.node("out");
        ckt.add_vsrc(vdd, Circuit::GROUND, SourceWave::Dc(VDD));
        // 10–90 % slew corresponds to 0.8 of the full-swing ramp.
        let t0 = 0.2 * tstop.min(1e-9);
        ckt.add_vsrc(inp, Circuit::GROUND, SourceWave::step(v0, v1, t0, slew / 0.8));
        let inputs = vec![inp; cell.kind.num_inputs()];
        cell.build(&mut ckt, &inputs, out, vdd);
        ckt.add_capacitor(out, Circuit::GROUND, load.max(1e-18));

        let res =
            Simulator::new(&ckt).transient_probed(tstop, &SimOptions::default(), &[inp, out])?;
        let win = res.waveform(inp);
        let wout = res.waveform(out);
        let t_in = win.crossing(0.5 * VDD, in_rising, 0.0);
        let t_out = wout.crossing(0.5 * VDD, out_rising, 0.0);
        let s_out = wout.slew_10_90(VDD, out_rising, 0.0);
        if let (Some(ti), Some(to), Some(so)) = (t_in, t_out, s_out) {
            return Ok((to - ti, so));
        }
        tstop *= 3.0;
    }
    Err(CellError::Measurement { what: "output transition", cell: cell.name.clone() })
}

/// Sample the quasi-static output current surface by clamping the output
/// with a voltage source and reading its branch current at DC.
fn measure_iv(cell: &Cell) -> Result<IvSurface, CellError> {
    let grid: Vec<f64> = iv_grid();
    let mut current = Dense::zeros(IV_POINTS, IV_POINTS);
    for (i, &vin) in grid.iter().enumerate() {
        for (j, &vout) in grid.iter().enumerate() {
            let mut ckt = Circuit::new();
            let vdd = ckt.node("vdd");
            let inp = ckt.node("in");
            let out = ckt.node("out");
            ckt.add_vsrc(vdd, Circuit::GROUND, SourceWave::Dc(VDD));
            ckt.add_vsrc(inp, Circuit::GROUND, SourceWave::Dc(vin));
            let inputs = vec![inp; cell.kind.num_inputs()];
            cell.build(&mut ckt, &inputs, out, vdd);
            // Output clamp: its branch current *is* the injected current
            // (positive current leaves the node into the clamp).
            let clamp_idx = ckt.add_vsrc(out, Circuit::GROUND, SourceWave::Dc(vout));
            let sim = Simulator::new(&ckt);
            let x = sim.dc(&SimOptions::default())?;
            let row = sim
                .layout()
                .vsrc_rows()
                .iter()
                .find(|&&(e, _)| e == clamp_idx)
                .map(|&(_, r)| r)
                .expect("clamp source has a branch row");
            current[(i, j)] = x[row];
        }
    }
    Ok(IvSurface { vin: grid.clone(), vout: grid, current })
}

/// Junction capacitance hanging on the output node, per cell topology.
fn output_cap(cell: &Cell) -> f64 {
    let (wn, wp) = cell.widths();
    use pcv_netlist::MosParams;
    let nj = |w: f64| MosParams::nmos_025(w).junction_cap();
    let pj = |w: f64| MosParams::pmos_025(w).junction_cap();
    match cell.kind {
        CellKind::Inverter | CellKind::Buffer | CellKind::TristateBuffer => nj(wn) + pj(wp),
        CellKind::Nand2 => nj(2.0 * wn) + 2.0 * pj(wp),
        CellKind::Nor2 => 2.0 * nj(wn) + pj(2.0 * wp),
        CellKind::Latch => 0.0,
    }
}

/// Bilinear interpolation on a rectangular grid with clamping.
fn bilinear(xs: &[f64], ys: &[f64], z: &Dense, x: f64, y: f64) -> f64 {
    GridCell::locate(xs, ys, x, y).interpolate(z)
}

/// The grid cell `(i, j)` enclosing a point, clamped to the grid, and the
/// point's fractions `fx`, `fy` across it (each in `[0, 1]`).
struct GridCell {
    i: usize,
    j: usize,
    fx: f64,
    fy: f64,
}

impl GridCell {
    fn locate(xs: &[f64], ys: &[f64], x: f64, y: f64) -> Self {
        let i = bracket(xs, x);
        let j = bracket(ys, y);
        GridCell { i, j, fx: frac(xs[i], xs[i + 1], x), fy: frac(ys[j], ys[j + 1], y) }
    }

    /// The bilinear blend of `z`'s four corners of this cell.
    fn interpolate(&self, z: &Dense) -> f64 {
        let (i, j, fx, fy) = (self.i, self.j, self.fx, self.fy);
        let z00 = z[(i, j)];
        let z10 = z[(i + 1, j)];
        let z01 = z[(i, j + 1)];
        let z11 = z[(i + 1, j + 1)];
        z00 * (1.0 - fx) * (1.0 - fy)
            + z10 * fx * (1.0 - fy)
            + z01 * (1.0 - fx) * fy
            + z11 * fx * fy
    }
}

fn bracket(xs: &[f64], x: f64) -> usize {
    debug_assert!(xs.len() >= 2);
    let mut i = xs.partition_point(|&v| v <= x);
    i = i.clamp(1, xs.len() - 1);
    i - 1
}

fn frac(a: f64, b: f64, x: f64) -> f64 {
    if b > a {
        ((x - a) / (b - a)).clamp(0.0, 1.0)
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::CellLibrary;

    fn inv4() -> CharCell {
        let lib = CellLibrary::standard_025();
        characterize(lib.cell("INVX4").unwrap()).unwrap()
    }

    #[test]
    fn inverter_characterization_is_sane() {
        let ch = inv4();
        // Delays grow with load at fixed slew.
        for si in 0..SLEW_GRID.len() {
            for li in 1..LOAD_GRID.len() {
                assert!(
                    ch.timing.delay_rise[(si, li)] > ch.timing.delay_rise[(si, li - 1)],
                    "rise delay monotone in load"
                );
                assert!(
                    ch.timing.delay_fall[(si, li)] > ch.timing.delay_fall[(si, li - 1)],
                    "fall delay monotone in load"
                );
            }
        }
        // Drive resistances in a plausible range for an X4 0.25 µm inverter.
        assert!(ch.rout_fall > 100.0 && ch.rout_fall < 5000.0, "{}", ch.rout_fall);
        assert!(ch.rout_rise > 100.0 && ch.rout_rise < 5000.0, "{}", ch.rout_rise);
        assert!(ch.cin > 0.0 && ch.cout > 0.0);
    }

    #[test]
    fn stronger_cells_have_lower_resistance() {
        let lib = CellLibrary::standard_025();
        let ch1 = characterize(lib.cell("INVX1").unwrap()).unwrap();
        let ch8 = characterize(lib.cell("INVX8").unwrap()).unwrap();
        assert!(
            ch8.rout_fall < 0.5 * ch1.rout_fall,
            "X8 {} vs X1 {}",
            ch8.rout_fall,
            ch1.rout_fall
        );
    }

    #[test]
    fn iv_surface_signs_and_derivative() {
        let ch = inv4();
        // Input low → pull-up: positive injection when output below VDD.
        let (i_up, g_up) = ch.iv.at(0.0, 0.5 * VDD);
        assert!(i_up > 1e-5, "pull-up current, got {i_up}");
        assert!(g_up < 0.0, "current falls as vout rises toward vdd");
        // Input high → pull-down: negative injection when output above 0.
        let (i_dn, _) = ch.iv.at(VDD, 0.5 * VDD);
        assert!(i_dn < -1e-5, "pull-down current, got {i_dn}");
        // Equilibrium corners: held output carries ~no current.
        let (i_hold, _) = ch.iv.at(VDD, 0.0);
        assert!(i_hold.abs() < 1e-6, "held-low equilibrium, got {i_hold}");
    }

    /// `IvSurface::at` as it was before one grid cell served both halves:
    /// the value through `bilinear`, the slope from brackets and a fraction
    /// of its own. Kept verbatim as the oracle of the one-bracket form.
    fn two_bracket_at(s: &IvSurface, vin: f64, vout: f64) -> (f64, f64) {
        let i = bilinear(&s.vin, &s.vout, &s.current, vin, vout);
        // Derivative along vout from the enclosing grid cell.
        let j = bracket(&s.vout, vout);
        let (v0, v1) = (s.vout[j], s.vout[j + 1]);
        let ii = bracket(&s.vin, vin);
        let frac = if s.vin[ii + 1] > s.vin[ii] {
            ((vin - s.vin[ii]) / (s.vin[ii + 1] - s.vin[ii])).clamp(0.0, 1.0)
        } else {
            0.0
        };
        let di_lo = (s.current[(ii, j + 1)] - s.current[(ii, j)]) / (v1 - v0);
        let di_hi = (s.current[(ii + 1, j + 1)] - s.current[(ii + 1, j)]) / (v1 - v0);
        (i, di_lo + frac * (di_hi - di_lo))
    }

    #[test]
    fn one_bracket_lookup_has_the_two_bracket_bits() {
        // A characterized surface, and seeded ones whose axes repeat grid
        // points (zero-width cells: a 0/0 slope) and hold ±0.
        let mut rng = pcv_rng::Rng::new(0x1B5);
        let mut surfaces = vec![inv4().iv];
        for _ in 0..12 {
            let axis = |rng: &mut pcv_rng::Rng| {
                let mut a: Vec<f64> =
                    (0..rng.range_usize(2, 9)).map(|_| rng.range_f64(-0.5, 3.0)).collect();
                if rng.bool_with(0.5) {
                    let at = rng.range_usize(0, a.len());
                    a.push(a[at]);
                }
                a.push(if rng.bool_with(0.5) { 0.0 } else { -0.0 });
                a.sort_by(f64::total_cmp);
                a
            };
            let (vin, vout) = (axis(&mut rng), axis(&mut rng));
            let current = Dense::from_fn(vin.len(), vout.len(), |_, _| rng.range_f64(-4e-3, 4e-3));
            surfaces.push(IvSurface { vin, vout, current });
        }
        let mut probes = 0;
        for s in &surfaces {
            // The grid points themselves, points outside, ±0, non-finite
            // ones, and seeded points in between.
            let mut vs: Vec<f64> = s.vin.iter().chain(&s.vout).copied().collect();
            vs.extend([-1.0, -0.0, 0.0, 4.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY]);
            vs.extend((0..40).map(|_| rng.range_f64(-1.0, 4.0)));
            for &vin in &vs {
                for &vout in &vs {
                    let (got, want) = (s.at(vin, vout), two_bracket_at(s, vin, vout));
                    let bits = |(i, g): (f64, f64)| (i.to_bits(), g.to_bits());
                    assert_eq!(bits(got), bits(want), "at ({vin}, {vout}): {got:?} vs {want:?}");
                    probes += 1;
                }
            }
        }
        assert!(probes > 10_000, "{probes}");
    }

    #[test]
    fn timing_lookup_interpolates() {
        let ch = inv4();
        let (d_lo, _) = ch.timing.lookup(SLEW_GRID[0], LOAD_GRID[0], true);
        let (d_hi, _) = ch.timing.lookup(SLEW_GRID[0], LOAD_GRID[3], true);
        let (d_mid, _) = ch.timing.lookup(SLEW_GRID[0], 0.5 * (LOAD_GRID[0] + LOAD_GRID[3]), true);
        assert!(d_lo < d_mid && d_mid < d_hi);
        // Clamping outside the grid.
        let (d_clamp, _) = ch.timing.lookup(SLEW_GRID[0], 10.0 * LOAD_GRID[3], true);
        assert!((d_clamp - d_hi).abs() < 1e-15);
    }

    #[test]
    fn nand_characterizes_with_tied_inputs() {
        let lib = CellLibrary::standard_025();
        let ch = characterize(lib.cell("NAND2X2").unwrap()).unwrap();
        assert!(ch.rout_rise > 10.0 && ch.rout_fall > 10.0);
        assert_eq!(ch.kind, CellKind::Nand2);
    }

    #[test]
    fn calibration_vectors_align_with_slew_grid() {
        let ch = inv4();
        assert_eq!(ch.vin_delay_rise.len(), ch.timing.slews.len());
        assert_eq!(ch.vin_stretch_fall.len(), ch.timing.slews.len());
        // Interpolation endpoints match the stored vectors.
        let (d0, s0) = ch.vin_calibration(ch.timing.slews[0], true);
        assert!((d0 - ch.vin_delay_rise[0]).abs() < 1e-18);
        assert!((s0 - ch.vin_stretch_rise[0]).abs() < 1e-12);
        // Clamped outside the grid.
        let (d_hi, _) = ch.vin_calibration(1.0, true);
        assert!((d_hi - *ch.vin_delay_rise.last().unwrap()).abs() < 1e-18);
    }

    #[test]
    fn buffers_get_larger_calibration_than_inverters() {
        // A two-stage buffer hides internal delay the quasi-static surface
        // cannot see; calibration must absorb it. Single-stage inverters
        // need much less.
        let lib = CellLibrary::standard_025();
        let inv = characterize(lib.cell("INVX4").unwrap()).unwrap();
        let buf = characterize(lib.cell("BUFX8").unwrap()).unwrap();
        // Buffers saturate their output edge rate, so their effective input
        // needs far more stretching than an inverter's at fast slews.
        let (_, st_inv) = inv.vin_calibration(inv.timing.slews[1], true);
        let (_, st_buf) = buf.vin_calibration(buf.timing.slews[1], true);
        assert!(
            st_buf > 1.5 * st_inv,
            "buffer needs more edge correction: inv {st_inv} vs buf {st_buf}"
        );
        // Stretch factors are positive and sane.
        for ch in [&inv, &buf] {
            for &st in ch.vin_stretch_rise.iter().chain(&ch.vin_stretch_fall) {
                assert!(st > 0.05 && st <= 10.0, "sane stretch {st}");
            }
        }
    }

    #[test]
    fn bilinear_helper_basics() {
        let xs = [0.0, 1.0];
        let ys = [0.0, 1.0];
        let z = Dense::from_rows(&[&[0.0, 1.0], &[2.0, 3.0]]);
        assert_eq!(bilinear(&xs, &ys, &z, 0.0, 0.0), 0.0);
        assert_eq!(bilinear(&xs, &ys, &z, 1.0, 1.0), 3.0);
        assert_eq!(bilinear(&xs, &ys, &z, 0.5, 0.5), 1.5);
        // Clamps.
        assert_eq!(bilinear(&xs, &ys, &z, -1.0, 2.0), 1.0);
    }

    /// A scratch directory of this test process, emptied.
    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("pcv-charlib-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn liberty_of(ch: &CharCell) -> String {
        let mut single = CharLibrary::default();
        single.insert(ch.clone());
        write_liberty(&single)
    }

    /// `text` with one bit of byte `at` flipped.
    fn flipped(text: &str, at: usize, bit: u32) -> Vec<u8> {
        let mut bytes = text.as_bytes().to_vec();
        bytes[at] ^= 1 << bit;
        bytes
    }

    #[test]
    fn a_damaged_cache_file_is_characterized_again_and_rewritten() {
        let dir = scratch("damaged");
        let file = dir.join("INVX2.lib");
        // An empty directory: characterize, store.
        let first = CharLibrary::cached_in(&dir, &["INVX2"]).unwrap();
        let canonical = std::fs::read_to_string(&file).expect("the cell was stored");
        assert_eq!(liberty_of(first.cell("INVX2").unwrap()), canonical);
        // The stored file is what the next call returns, untouched.
        let again = CharLibrary::cached_in(&dir, &["INVX2"]).unwrap();
        assert_eq!(liberty_of(again.cell("INVX2").unwrap()), canonical);

        let mut rng = pcv_rng::Rng::new(0x22);
        let cut = rng.range_usize(1, canonical.rfind("  }").unwrap());
        // The format carries no checksum, so a flip inside a number is
        // another well-formed table; the drill is the first seeded flip
        // that is not (`stored_cell_is_whole_or_absent` sweeps them all).
        let flip = loop {
            let damaged = flipped(&canonical, rng.range_usize(0, canonical.len()), 2);
            std::fs::write(&file, &damaged).unwrap();
            if CharLibrary::stored(&file, "INVX2").is_none() {
                break damaged;
            }
        };
        let damaged = [
            ("truncated", canonical.as_bytes()[..cut].to_vec()),
            ("bit-flipped", flip),
            ("wrong cell", canonical.replace("cell (INVX2)", "cell (INVX4)").into_bytes()),
            ("empty", Vec::new()),
        ];
        for (what, bytes) in damaged {
            std::fs::write(&file, &bytes).unwrap();
            let lib = CharLibrary::cached_in(&dir, &["INVX2"]).unwrap();
            assert_eq!(lib.len(), 1, "{what}");
            assert_eq!(liberty_of(lib.cell("INVX2").unwrap()), canonical, "{what}: the table");
            assert_eq!(std::fs::read_to_string(&file).unwrap(), canonical, "{what}: rewritten");
        }
        assert!(matches!(
            CharLibrary::cached_in(&dir, &["NOSUCHX1"]),
            Err(CellError::UnknownCell { .. })
        ));
        assert!(!dir.join("NOSUCHX1.lib").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stored_cell_is_whole_or_absent() {
        // Seeded cuts and bit flips, up to three deep, of a good file: the
        // loader never panics, and what it returns is a whole cell under
        // the asked name — every table at its grid's shape — or nothing.
        let dir = scratch("fuzz");
        let file = dir.join("INVX4.lib");
        let canonical = liberty_of(&inv4());
        let mut rng = pcv_rng::Rng::new(0x5eed);
        let (mut whole, mut absent) = (0, 0);
        for _ in 0..600 {
            let mut bytes = canonical.as_bytes().to_vec();
            for _ in 0..rng.range_usize(1, 4) {
                if bytes.len() > 1 && rng.bool_with(0.3) {
                    bytes.truncate(rng.range_usize(0, bytes.len()));
                } else if !bytes.is_empty() {
                    let at = rng.range_usize(0, bytes.len());
                    bytes[at] ^= 1 << rng.range_usize(0, 8);
                }
            }
            std::fs::write(&file, &bytes).unwrap();
            match CharLibrary::stored(&file, "INVX4") {
                Some(ch) => {
                    whole += 1;
                    assert_eq!(ch.name, "INVX4");
                    let (ns, nl) = (ch.timing.slews.len(), ch.timing.loads.len());
                    assert!(ns >= 2 && nl >= 2);
                    let tables = [
                        &ch.timing.delay_rise,
                        &ch.timing.delay_fall,
                        &ch.timing.slew_rise,
                        &ch.timing.slew_fall,
                    ];
                    for m in tables {
                        assert_eq!((m.nrows(), m.ncols()), (ns, nl));
                    }
                    let iv = &ch.iv;
                    assert_eq!(
                        (iv.current.nrows(), iv.current.ncols()),
                        (iv.vin.len(), iv.vout.len())
                    );
                }
                None => absent += 1,
            }
        }
        assert!(whole > 0 && absent > 100, "both outcomes drilled: {whole} whole, {absent} absent");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
