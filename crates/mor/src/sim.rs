//! Transient integration of the diagonalized reduced model with nonlinear
//! terminations — the fast analysis engine of the paper (Section 3,
//! equations (5)–(7)).
//!
//! The system `D ẋ + x = η u`, `y = ηᵀ x` is integrated with a linear
//! multistep discretization `ẋ ≈ α x_k + β(history)`. Each Newton step then
//! solves
//!
//! ```text
//! (αD + I + Σⱼ ηⱼ gⱼ ηⱼᵀ) Δ = -F(x)
//! ```
//!
//! whose matrix is a diagonal plus a rank-`k` correction (`k` = number of
//! nonlinear terminations). The Sherman–Morrison–Woodbury identity makes
//! each solve `O(q·k + k³)` instead of `O(q³)`, which is the efficiency
//! claim at the heart of the paper. The one `O(q·k²)` ingredient, the Gram
//! matrix `Uᵀ(αD + I)⁻¹U` of the active `η` columns, depends on the step
//! size alone and is rebuilt only when `α` changes (see `Workspace`).
//!
//! When every termination is linear there is nothing to iterate on: the
//! devices fold into the model, which diagonalizes once more, and each step
//! is one scalar update per mode (the `modal` submodule).

use crate::error::MorError;
use crate::model::DiagonalModel;
use pcv_netlist::termination::Termination;
use pcv_netlist::timestep::{Method, Stepper};
use pcv_netlist::Waveform;
use pcv_sparse::dense::{lu_factor_in_place, lu_solve_into};
use pcv_sparse::panel;

mod modal;

/// Newton convergence tolerance on port voltages (volts). The modal
/// solver's settle bound uses it too.
pub const VTOL: f64 = 1e-6;

/// Largest port-voltage change accepted per Newton iteration (volts);
/// damps limit cycles across the kinks of tabulated driver models.
pub const DAMPING: f64 = 0.5;

/// Smallest allowed timestep (seconds).
pub const MIN_STEP: f64 = 1e-18;

/// Options for the reduced transient.
#[derive(Debug, Clone)]
pub struct MorOptions {
    /// Maximum timestep as a fraction of the simulation span.
    pub max_step_fraction: f64,
    /// Newton iteration budget per step.
    pub max_newton: usize,
    /// Total Newton-iteration budget for the whole transient (DC solve
    /// included). Deterministic stall protection: a pathological cluster
    /// surfaces [`MorError::BudgetExhausted`] instead of running without
    /// bound. `usize::MAX` disables the check.
    pub newton_budget: usize,
    /// Budget of accepted transient steps; [`MorError::BudgetExhausted`]
    /// when exceeded. `usize::MAX` disables the check.
    pub max_tran_steps: usize,
}

impl Default for MorOptions {
    fn default() -> Self {
        MorOptions {
            max_step_fraction: 1.0 / 1000.0,
            max_newton: 80,
            newton_budget: usize::MAX,
            max_tran_steps: usize::MAX,
        }
    }
}

/// Result of a reduced-model transient: one waveform per port.
#[derive(Debug, Clone)]
pub struct MorTranResult {
    times: Vec<f64>,
    /// `data[p][k]` = port `p` voltage at `times[k]`.
    data: Vec<Vec<f64>>,
    /// Accepted steps.
    pub steps: usize,
    /// Total Newton iterations (CPU-cost proxy comparable to the SPICE
    /// engine's counter).
    pub newton_iters: usize,
}

impl MorTranResult {
    /// Sample times.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Waveform of a port.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range port index.
    pub fn waveform(&self, port: usize) -> Waveform {
        Waveform::from_samples(self.times.clone(), self.data[port].clone())
    }

    /// Waveform of a port, moving its samples and the time axis out of the
    /// result instead of copying them.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range port index.
    pub fn into_waveform(mut self, port: usize) -> Waveform {
        Waveform::from_samples(self.times, self.data.swap_remove(port))
    }

    /// Number of ports recorded.
    pub fn num_ports(&self) -> usize {
        self.data.len()
    }
}

/// Integrate the reduced model from its DC state to `tstop`.
///
/// `terminations[j]` is the device attached to port `j` (`None` for
/// observe-only ports, which carry no current). Termination capacitance is
/// honored by augmenting the Jacobian and residual with the companion model
/// of a grounded capacitor at the port.
///
/// Two solvers share the time grid, the budgets and the recording; the
/// terminations choose between them. When every device is linear
/// ([`Termination::linear`]) the whole system is linear and diagonalizes
/// once, so each step is one scalar update per mode (`modal`); any
/// nonlinear device runs the Woodbury–Newton kernel. Both converge to the
/// same discretized solution; they differ by rounding.
///
/// # Errors
///
/// * [`MorError::InvalidIndex`] if the termination list length differs from
///   the port count.
/// * [`MorError::InvalidValue`] unless `tstop` and `opts.max_step_fraction`
///   are finite and positive.
/// * [`MorError::NoConvergence`] if Newton fails even at the minimum step.
pub fn simulate(
    model: &DiagonalModel,
    terminations: &[Option<&dyn Termination>],
    tstop: f64,
    opts: &MorOptions,
) -> Result<MorTranResult, MorError> {
    simulate_memo(model, terminations, tstop, opts, &mut ModalMemo::default())
}

/// What [`simulate_memo`] keeps between calls: the linear solver's modal
/// decomposition of the last model and devices it ran.
#[derive(Debug, Clone, Default)]
pub struct ModalMemo(Option<modal::Basis>);

/// [`simulate`], keeping the modal decomposition in `memo`. With every
/// device linear, the decomposition (`K`, `M`, their Cholesky and Jacobi
/// steps, `O`) depends on the model and each device's port, conductance and
/// capacitance, not on its source: a call on the model and devices of the
/// decomposition `memo` holds — all of it bit for bit — builds only the
/// sources' rows, and any other call replaces it. The result has the bits
/// of [`simulate`]'s.
///
/// # Errors
///
/// Those of [`simulate`].
pub fn simulate_memo(
    model: &DiagonalModel,
    terminations: &[Option<&dyn Termination>],
    tstop: f64,
    opts: &MorOptions,
    memo: &mut ModalMemo,
) -> Result<MorTranResult, MorError> {
    let (stepper, quiet) = walk(model, terminations, tstop, opts)?;
    let _span = pcv_trace::span("mor", "rom_eval");
    match modal::Modes::new(model, terminations, &mut memo.0) {
        Some(modes) => modes.simulate(stepper, quiet, opts),
        None => newton(model, terminations, stepper, quiet, opts),
    }
}

/// The checked arguments' time axis — the terminations' breakpoints over
/// `(0, tstop]` — and the end of their quiet prefix: the earliest
/// [`Termination::quiet_until`] (NaN if any is), up to which the DC
/// operating point is the exact solution.
fn walk(
    model: &DiagonalModel,
    terminations: &[Option<&dyn Termination>],
    tstop: f64,
    opts: &MorOptions,
) -> Result<(Stepper, f64), MorError> {
    let p = model.num_ports();
    if terminations.len() != p {
        return Err(MorError::InvalidIndex {
            what: "termination list",
            index: terminations.len(),
            bound: p + 1,
        });
    }
    let mut bps: Vec<f64> = Vec::new();
    let mut quiet = f64::INFINITY;
    for t in terminations.iter().flatten() {
        bps.extend(t.breakpoints(tstop));
        let until = t.quiet_until();
        if until < quiet || until.is_nan() {
            quiet = until;
        }
    }
    let stepper = Stepper::new(tstop, opts.max_step_fraction, bps)
        .map_err(|what| MorError::InvalidValue { what })?;
    Ok((stepper, quiet))
}

/// Hold `stepper` at the DC point up to `quiet` ([`Stepper::hold`]); when it
/// holds, count the hold and its span (femtoseconds) in the trace.
fn hold(stepper: &mut Stepper, quiet: f64) -> bool {
    let held = stepper.hold(quiet);
    if held {
        pcv_trace::count("mor.walk.holds", 1);
        pcv_trace::value("mor.walk.held_fs", (stepper.t() * 1e15).round() as u64);
    }
    held
}

/// The Woodbury–Newton transient along `stepper`'s walk, holding its DC
/// point up to `quiet`.
fn newton(
    model: &DiagonalModel,
    terminations: &[Option<&dyn Termination>],
    mut stepper: Stepper,
    quiet: f64,
    opts: &MorOptions,
) -> Result<MorTranResult, MorError> {
    let p = model.num_ports();
    let q = model.order();
    let mut ws = Workspace::new(model, terminations);
    let has_cap: Vec<usize> = (0..p).filter(|&j| ws.caps[j] > 0.0).collect();

    // --- DC initialization: solve x = η u(0, ηᵀx). ---
    // Tabulated driver surfaces have derivative kinks that can trap the
    // damped Newton in a limit cycle; retry with progressively smaller
    // steps (and a larger budget) before giving up.
    let mut x = vec![0.0; q];
    let mut x_new = vec![0.0; q];
    let mut beta = vec![0.0; q];
    let mut dc_iters = None;
    for damp_scale in [1.0, 0.2, 0.04] {
        x.fill(0.0);
        let dc = Step { alpha: 0.0, beta: &beta, t: 0.0, caps: None };
        if let Ok(it) = ws.newton(&mut x, &dc, DAMPING * damp_scale, opts.max_newton * 4) {
            dc_iters = Some(it);
            break;
        }
    }
    let Some(mut total_newton) = dc_iters else {
        return Err(MorError::NoConvergence { t: 0.0 });
    };

    let mut y = vec![0.0; p];
    ws.outputs(&x, &mut y);
    if y.iter().any(|v| !v.is_finite()) {
        return Err(MorError::NonFinite { what: "reduced transient dc solution" });
    }
    let mut times = vec![0.0];
    let mut data: Vec<Vec<f64>> = (0..p).map(|j| vec![y[j]]).collect();
    if hold(&mut stepper, quiet) {
        times.push(stepper.t());
        for (dj, &yj) in data.iter_mut().zip(&y) {
            dj.push(yj);
        }
    }
    let mut steps = 0usize;

    // Multistep history: xdot for trapezoidal, port-voltage/current history
    // for the capacitor companions.
    let mut xdot = vec![0.0; q];
    let mut cap_v_prev = y.clone();
    let mut cap_i_prev = vec![0.0; p];

    while let Some((h, method)) = stepper.next() {
        let t = stepper.t();
        if total_newton > opts.newton_budget || steps >= opts.max_tran_steps {
            return Err(MorError::BudgetExhausted { t });
        }
        // Multistep coefficients: ẋ = α x + β.
        let alpha = method.alpha(h);
        for ((b, &xi), &xd) in beta.iter_mut().zip(&x).zip(&xdot) {
            *b = method.history(h, xi, xd);
        }
        x_new.copy_from_slice(&x);
        let caps = CapHistory { h, method, v_prev: &cap_v_prev, i_prev: &cap_i_prev };
        let step = Step { alpha, beta: &beta, t: t + h, caps: Some(caps) };
        match ws.newton(&mut x_new, &step, DAMPING, opts.max_newton) {
            Ok(iters) => {
                total_newton += iters;
                // Accept.
                ws.outputs(&x_new, &mut y);
                if y.iter().any(|v| !v.is_finite()) {
                    return Err(MorError::NonFinite { what: "reduced transient waveform" });
                }
                for &j in &has_cap {
                    cap_i_prev[j] =
                        method.current(ws.caps[j], h, y[j], cap_v_prev[j], cap_i_prev[j]);
                }
                cap_v_prev.copy_from_slice(&y);
                for k in 0..q {
                    xdot[k] = alpha * x_new[k] + beta[k];
                }
                std::mem::swap(&mut x, &mut x_new);
                stepper.accepted(iters);
                times.push(stepper.t());
                for (dj, &yj) in data.iter_mut().zip(&y) {
                    dj.push(yj);
                }
                steps += 1;
            }
            Err(()) => {
                if stepper.rejected(MIN_STEP) {
                    return Err(MorError::NoConvergence { t });
                }
            }
        }
    }
    pcv_trace::count("mor.newton_iters", total_newton as u64);
    pcv_trace::value("mor.tran_steps", steps as u64);
    Ok(MorTranResult { times, data, steps, newton_iters: total_newton })
}

/// Port-capacitor companion history of the step being solved.
#[derive(Clone, Copy)]
struct CapHistory<'a> {
    h: f64,
    method: Method,
    /// Port voltages and capacitor currents at the last accepted point.
    v_prev: &'a [f64],
    i_prev: &'a [f64],
}

/// One discretized system `F(x) = αD x + D β + x - η u(t, ηᵀx) = 0`.
struct Step<'a> {
    alpha: f64,
    beta: &'a [f64],
    t: f64,
    /// `None` in DC, where capacitors carry no current.
    caps: Option<CapHistory<'a>>,
}

/// Per-call scratch of [`simulate`]: everything a Newton solve reads or
/// writes besides the state, sized once so that a step allocates nothing.
///
/// **Bit-identity contract.** Every floating-point value comes from the
/// same operations in the same order as in the textbook loop this kernel
/// replaced, which rebuilt every quantity in every iteration, so waveforms,
/// `steps` and `newton_iters` are equal to the last bit; the outcomes of
/// that loop on seeded cases are the digests `tests` pins. The only
/// work skipped is work whose result has the same bits by construction:
/// `αD`, `M = αD + I` and the Gram matrix `G` depend on `α` alone and are
/// kept until `α`'s bit pattern changes; `Dβ` and the port capacitors'
/// companions are fixed for a step; and the LU factors of `S = I + W G`
/// depend on `α` and the bits of `W` alone, so they are kept until either
/// changes (a tabulated driver's slope is constant inside a grid cell). The
/// port dots (`ηⱼᵀv` for every port `j`) run as the lanes of one
/// [`panel::dots`] pass over the states, each lane in the textbook order.
struct Workspace<'a> {
    terminations: &'a [Option<&'a dyn Termination>],
    d: &'a [f64],
    /// `η`, row-major `q×p`: a panel whose lane `j` is port `j`'s column.
    eta: Vec<f64>,
    /// The active (current-carrying) ports, ascending.
    ports: Vec<ActivePort>,
    /// Port capacitances (companion-modeled at the ports), by port.
    caps: Vec<f64>,
    /// `Uᵀ`, the active columns of `η`: active port `a`'s column is
    /// `ut[a*q..(a+1)*q]`.
    ut: Vec<f64>,
    /// The `α` that `alpha_d`, `m_diag` and `gram` were built for, by bit
    /// pattern.
    alpha_bits: Option<u64>,
    /// `αD` and `M = αD + I` (diagonal, strictly positive since D ≥ 0).
    alpha_d: Vec<f64>,
    m_diag: Vec<f64>,
    /// `G = Uᵀ M⁻¹ U`, row-major `k×k`.
    gram: Vec<f64>,
    /// `Dβ` of the step being solved.
    d_beta: Vec<f64>,
    /// The residual `F`, then `M⁻¹F` in place.
    f: Vec<f64>,
    delta: Vec<f64>,
    /// `ηᵀv` of the vector last dotted, by port: the port voltages, `ηᵀM⁻¹F`,
    /// then the voltage updates.
    ports_dot: Vec<f64>,
    /// `S = I + W G`, LU-factored in place, and the small solve `S z = rhs`.
    s: Vec<f64>,
    perm: Vec<usize>,
    rhs: Vec<f64>,
    z: Vec<f64>,
    /// Whether `s` and `perm` hold the factors of `S` for `alpha_bits` and
    /// every port's `w_lu`.
    lu_valid: bool,
}

/// An active port's terms in the Newton iteration.
struct ActivePort {
    /// The port's index among all ports.
    j: usize,
    /// `(geq, ieq)` of the port capacitor's companion in the step being
    /// solved; `None` without a capacitor, and in DC.
    companion: Option<(f64, f64)>,
    /// Effective conductance `w_j` and drawn current at the iterate.
    w: f64,
    i: f64,
    /// The bits of the `w` that `S`'s factors were built with.
    w_lu: u64,
}

impl<'a> Workspace<'a> {
    fn new(model: &'a DiagonalModel, terminations: &'a [Option<&'a dyn Termination>]) -> Self {
        let (q, p) = (model.order(), model.num_ports());
        let ports: Vec<ActivePort> = (0..p)
            .filter(|&j| terminations[j].is_some())
            .map(|j| ActivePort { j, companion: None, w: 0.0, i: 0.0, w_lu: 0 })
            .collect();
        let eta = model.eta();
        let k = ports.len();
        Workspace {
            terminations,
            d: model.d(),
            eta: (0..q * p).map(|i| eta[(i / p, i % p)]).collect(),
            caps: terminations.iter().map(|t| t.map_or(0.0, |t| t.capacitance())).collect(),
            ut: (0..k * q).map(|i| eta[(i % q, ports[i / q].j)]).collect(),
            ports,
            alpha_bits: None,
            alpha_d: vec![0.0; q],
            m_diag: vec![0.0; q],
            gram: vec![0.0; k * k],
            d_beta: vec![0.0; q],
            f: vec![0.0; q],
            delta: vec![0.0; q],
            ports_dot: vec![0.0; p],
            s: vec![0.0; k * k],
            perm: vec![0; k],
            rhs: vec![0.0; k],
            z: vec![0.0; k],
            lu_valid: false,
        }
    }

    /// Port voltages `y = ηᵀ x` of every port.
    fn outputs(&self, x: &[f64], y: &mut [f64]) {
        port_dots(&self.eta, x, y);
    }

    /// Rebuild `αD`, `M` and `G` unless they already belong to this `α`.
    fn set_alpha(&mut self, alpha: f64) {
        if self.alpha_bits == Some(alpha.to_bits()) {
            return;
        }
        self.alpha_bits = Some(alpha.to_bits());
        self.lu_valid = false;
        for ((ad, m), &dk) in self.alpha_d.iter_mut().zip(&mut self.m_diag).zip(self.d) {
            *ad = alpha * dk;
            *m = *ad + 1.0;
        }
        let (q, k) = (self.d.len(), self.ports.len());
        for a in 0..k {
            let col_a = column(&self.ut, q, a);
            for b in a..k {
                let col_b = column(&self.ut, q, b);
                let mut dot_u = 0.0;
                for ((&ea, &eb), &m) in col_a.iter().zip(col_b).zip(&self.m_diag) {
                    dot_u += ea * eb / m;
                }
                // ηₐ·η_b and η_b·ηₐ round alike, so the mirror is exact.
                self.gram[a * k + b] = dot_u;
                self.gram[b * k + a] = dot_u;
            }
        }
    }

    /// Newton solve of `step`'s system, where `u_j = -(i_term_j + i_cap_j)`
    /// on active ports. The Jacobian is `M + Σ η_j w_j η_jᵀ` with
    /// `M = αD + I` diagonal and `w_j = g_j + geq_j ≥ 0`, solved with the
    /// Woodbury identity.
    ///
    /// Returns the iteration count, or `Err(())` on non-convergence (the
    /// caller retries with a smaller step).
    fn newton(
        &mut self,
        x: &mut [f64],
        step: &Step<'_>,
        damping: f64,
        max_newton: usize,
    ) -> Result<usize, ()> {
        self.set_alpha(step.alpha);
        let Workspace {
            terminations,
            d,
            ports,
            caps,
            eta,
            ut,
            alpha_d,
            m_diag,
            gram,
            d_beta,
            f,
            delta,
            ports_dot,
            s,
            perm,
            rhs,
            z,
            lu_valid,
            ..
        } = self;
        let (q, k) = (d.len(), ports.len());
        let col = |a: usize| column(ut, q, a);

        // What the step fixes: Dβ and the port capacitors' companions.
        for ((db, &dk), &bk) in d_beta.iter_mut().zip(d.iter()).zip(step.beta) {
            *db = dk * bk;
        }
        for pt in ports.iter_mut() {
            pt.companion = match step.caps {
                Some(CapHistory { h, method, v_prev, i_prev }) if caps[pt.j] > 0.0 => {
                    Some(method.companion(caps[pt.j], h, v_prev[pt.j], i_prev[pt.j]))
                }
                _ => None,
            };
        }

        for iter in 0..max_newton {
            // Port currents and conductances.
            port_dots(eta, x, ports_dot);
            for pt in ports.iter_mut() {
                let term = terminations[pt.j].expect("active port has termination");
                let yj = ports_dot[pt.j];
                let (i_t, g_t) = term.eval(step.t, yj);
                let (i_c, g_c) = match pt.companion {
                    Some((geq, ieq)) => (geq * yj - ieq, geq),
                    None => (0.0, 0.0),
                };
                pt.i = i_t + i_c;
                pt.w = (g_t + g_c).max(0.0);
            }

            // Residual F(x) = αD x + D β + x + Σ η_j i_port_j  (u = -i_port).
            let linear = alpha_d.iter().zip(d_beta.iter());
            for ((fk, &xk), (&ad, &db)) in f.iter_mut().zip(x.iter()).zip(linear) {
                *fk = ad * xk + db + xk;
            }
            for (a, pt) in ports.iter().enumerate() {
                for (fk, &e) in f.iter_mut().zip(col(a)) {
                    *fk += e * pt.i;
                }
            }

            // Solve (M + U W Uᵀ) Δ = -F via Woodbury, where the columns of U
            // are the active η_j:
            // Δ = -M⁻¹F + M⁻¹U (I + W Uᵀ M⁻¹ U)⁻¹ W Uᵀ M⁻¹ F.
            for (fk, &m) in f.iter_mut().zip(m_diag.iter()) {
                *fk /= m;
            }
            for (dk, &v) in delta.iter_mut().zip(f.iter()) {
                *dk = -v;
            }
            if k > 0 {
                // S = I_k + W G (k×k), row a being w_a·G_a plus the identity's
                // row — refactored only when W's bits moved since the last
                // factorization at this α.
                if !(*lu_valid && ports.iter().all(|pt| pt.w.to_bits() == pt.w_lu)) {
                    let rows = s.chunks_exact_mut(k).zip(gram.chunks_exact(k));
                    for (a, ((s_row, g_row), pt)) in rows.zip(ports.iter_mut()).enumerate() {
                        for (sab, &g) in s_row.iter_mut().zip(g_row) {
                            *sab = pt.w * g + 0.0;
                        }
                        s_row[a] = pt.w * g_row[a] + 1.0;
                        pt.w_lu = pt.w.to_bits();
                    }
                    *lu_valid = lu_factor_in_place(s, perm).is_ok();
                    if !*lu_valid {
                        return Err(());
                    }
                }
                // rhs = W Uᵀ M⁻¹ F.
                port_dots(eta, f, ports_dot);
                for (r, pt) in rhs.iter_mut().zip(ports.iter()) {
                    *r = pt.w * ports_dot[pt.j];
                }
                lu_solve_into(s, perm, rhs, z);
                // Δ = -M⁻¹F + M⁻¹ U z.
                for (a, &za) in z.iter().enumerate() {
                    for ((dk, &e), &m) in delta.iter_mut().zip(col(a)).zip(m_diag.iter()) {
                        *dk += e * za / m;
                    }
                }
            }

            port_dots(eta, delta, ports_dot);
            let max_dy = ports.iter().fold(0.0f64, |m, pt| m.max(ports_dot[pt.j].abs()));
            // Damp large steps: tabulated driver models have derivative kinks
            // that full Newton steps can cycle across.
            let scale = if max_dy > damping { damping / max_dy } else { 1.0 };
            // Also watch the raw state update so observe-only models converge.
            let max_dx = delta.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
            for (xk, &dk) in x.iter_mut().zip(delta.iter()) {
                *xk += scale * dk;
            }
            if max_dy < VTOL && max_dx < VTOL * 100.0 {
                return Ok(iter + 1);
            }
        }
        Err(())
    }
}

/// Column `a` of the transposed copy `cols` (`q` entries a column).
fn column(cols: &[f64], q: usize, a: usize) -> &[f64] {
    &cols[a * q..(a + 1) * q]
}

/// `out[j] = Σₖ ηₖⱼ·vₖ` for every port `j` of the row-major `q×p` panel
/// `eta`, each lane accumulated from `+0.0` in index order as the textbook
/// `Σ aₖ·bₖ` loop does — not from `vecops::dot`'s `-0.0`: `Iterator::sum`
/// leaves the sign of its starting zero to the toolchain, and the
/// bit-identity contract cannot.
fn port_dots(eta: &[f64], v: &[f64], out: &mut [f64]) {
    out.fill(0.0);
    panel::dots(v, eta, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ReducedModel;
    use crate::rc::RcCluster;
    use crate::sympvl::reduce;
    use pcv_netlist::termination::{
        CapacitiveTermination, ResistiveTermination, TheveninTermination,
    };
    use pcv_netlist::SourceWave;
    use pcv_sparse::Dense;

    /// Single RC line: driver port at node 0, far-end port observed.
    fn rc_line(segments: usize, r_per_seg: f64, c_per_seg: f64) -> RcCluster {
        let mut cl = RcCluster::new();
        let nodes: Vec<usize> = (0..segments).map(|_| cl.add_node()).collect();
        for w in nodes.windows(2) {
            cl.add_resistor(w[0], w[1], r_per_seg).unwrap();
        }
        for &nd in &nodes {
            cl.add_ground_cap(nd, c_per_seg).unwrap();
        }
        cl.add_port(nodes[0]);
        cl.add_port(nodes[segments - 1]);
        cl
    }

    #[test]
    fn thevenin_step_charges_line() {
        // 10-segment line, total R = 500, total C = 10 fF; Thevenin driver
        // 1 kΩ stepping 0 → 2.5 V.
        let cl = rc_line(10, 50.0, 1e-15);
        let rom = reduce(&cl, 4).unwrap().diagonalize().unwrap();
        let drv = TheveninTermination::new(1000.0, SourceWave::step(0.0, 2.5, 1e-10, 1e-11));
        let res = simulate(&rom, &[Some(&drv), None], 20e-9, &MorOptions::default()).unwrap();
        let far = res.waveform(1);
        // Fully charged at the end.
        assert!((far.value_at(20e-9) - 2.5).abs() < 5e-3, "{}", far.value_at(20e-9));
        // Starts at 0.
        assert!(far.value_at(0.0).abs() < 1e-6);
        // Monotone-ish rise: midpoint between 0 and 2.5.
        let mid = far.value_at(0.15e-9);
        assert!(mid > 0.1 && mid < 2.49, "mid-rise sample, got {mid}");
    }

    #[test]
    fn reduced_transient_matches_analytic_rc() {
        // Lumped RC: driver 1 kΩ into a single 1 pF node → tau = 1 ns.
        let mut cl = RcCluster::new();
        let a = cl.add_node();
        cl.add_ground_cap(a, 1e-12).unwrap();
        cl.add_port(a);
        let rom = reduce(&cl, 2).unwrap().diagonalize().unwrap();
        let drv = TheveninTermination::new(1000.0, SourceWave::step(0.0, 1.0, 0.0, 1e-13));
        let res = simulate(&rom, &[Some(&drv)], 8e-9, &MorOptions::default()).unwrap();
        let w = res.waveform(0);
        for &tt in &[1e-9, 2e-9, 4e-9] {
            let analytic = 1.0 - (-tt / 1e-9_f64).exp();
            assert!(
                (w.value_at(tt) - analytic).abs() < 5e-3,
                "t={tt}: {} vs {analytic}",
                w.value_at(tt)
            );
        }
    }

    #[test]
    fn coupled_glitch_appears_on_victim() {
        // Aggressor and victim lines with coupling; victim held by a weak
        // resistive driver.
        let mut cl = RcCluster::new();
        let agg: Vec<usize> = (0..8).map(|_| cl.add_node()).collect();
        let vic: Vec<usize> = (0..8).map(|_| cl.add_node()).collect();
        for w in agg.windows(2) {
            cl.add_resistor(w[0], w[1], 60.0).unwrap();
        }
        for w in vic.windows(2) {
            cl.add_resistor(w[0], w[1], 60.0).unwrap();
        }
        for i in 0..8 {
            cl.add_ground_cap(agg[i], 2e-15).unwrap();
            cl.add_ground_cap(vic[i], 2e-15).unwrap();
            cl.add_capacitor(agg[i], vic[i], 4e-15).unwrap();
        }
        let pa = cl.add_port(agg[0]);
        let pv = cl.add_port(vic[0]);
        let pfar = cl.add_port(vic[7]);
        let rom = reduce(&cl, 4).unwrap().diagonalize().unwrap();
        let agg_drv = TheveninTermination::new(300.0, SourceWave::step(0.0, 2.5, 0.5e-9, 0.2e-9));
        let vic_drv = ResistiveTermination::new(2000.0);
        let res =
            simulate(&rom, &[Some(&agg_drv), Some(&vic_drv), None], 6e-9, &MorOptions::default())
                .unwrap();
        let vw = res.waveform(pfar);
        let (_, peak) = vw.peak_deviation(0.0);
        assert!(peak > 0.05, "visible glitch expected, got {peak}");
        assert!(peak < 2.5, "glitch bounded by vdd");
        // Glitch decays back to ~0 through the holding driver.
        assert!(vw.value_at(6e-9).abs() < 0.02);
        let _ = (pa, pv);
    }

    #[test]
    fn capacitive_termination_slows_charging() {
        let cl = rc_line(5, 100.0, 1e-15);
        let rom = reduce(&cl, 4).unwrap().diagonalize().unwrap();
        let drv = TheveninTermination::new(1000.0, SourceWave::step(0.0, 1.0, 0.0, 1e-12));
        let fast = simulate(&rom, &[Some(&drv), None], 5e-9, &MorOptions::default()).unwrap();
        let big_load = CapacitiveTermination::new(200e-15);
        let slow =
            simulate(&rom, &[Some(&drv), Some(&big_load)], 5e-9, &MorOptions::default()).unwrap();
        let t_fast = fast.waveform(1).crossing(0.5, true, 0.0).unwrap();
        let t_slow = slow.waveform(1).crossing(0.5, true, 0.0).unwrap();
        assert!(t_slow > 2.0 * t_fast, "load cap must slow the far end: {t_slow} vs {t_fast}");
    }

    #[test]
    fn rejects_wrong_termination_count() {
        let cl = rc_line(3, 100.0, 1e-15);
        let rom = reduce(&cl, 2).unwrap().diagonalize().unwrap();
        let err = simulate(&rom, &[None], 1e-9, &MorOptions::default());
        assert!(matches!(err, Err(MorError::InvalidIndex { .. })));
        for tstop in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = simulate(&rom, &[None, None], tstop, &MorOptions::default());
            assert!(matches!(err, Err(MorError::InvalidValue { what: "tstop" })), "{tstop}");
        }
        let opts = MorOptions { max_step_fraction: f64::NAN, ..MorOptions::default() };
        let err = simulate(&rom, &[None, None], 1e-9, &opts);
        assert!(matches!(err, Err(MorError::InvalidValue { what: "max_step_fraction" })));
    }

    #[test]
    fn breakpoints_are_not_stepped_over() {
        // A very narrow pulse must still be seen by the integrator — also
        // when the span is so long that its ideal (1 fs) edges are closer
        // together than the resolution of the time axis. 1 kΩ into 1 fF
        // settles within the pulse, up to a little trapezoidal overshoot.
        let mut cl = RcCluster::new();
        let a = cl.add_node();
        cl.add_ground_cap(a, 1e-15).unwrap();
        cl.add_port(a);
        let rom = reduce(&cl, 2).unwrap().diagonalize().unwrap();
        for (delay, edge, width, tstop) in
            [(5e-9, 1e-12, 20e-12, 10e-9), (0.1e-3, 0.0, 2e-9, 0.4e-3), (0.1e-3, 0.0, 2e-9, 2e-3)]
        {
            let pulse = SourceWave::Pulse {
                v0: 0.0,
                v1: 1.0,
                delay,
                rise: edge,
                fall: edge,
                width,
                period: f64::INFINITY,
            };
            let drv = TheveninTermination::new(1000.0, pulse);
            let res = simulate(&rom, &[Some(&drv)], tstop, &MorOptions::default()).unwrap();
            let (_, peak) = res.waveform(0).peak_deviation(0.0);
            assert!((peak - 1.0).abs() < 1e-2, "tstop {tstop}: pulse peak captured, got {peak}");
        }
    }

    #[test]
    fn zero_newton_budget_fails_to_converge() {
        // With no Newton iterations allowed, even the DC solve cannot
        // converge: the typed NoConvergence path is exercised end to end.
        let cl = rc_line(4, 100.0, 1e-15);
        let rom = reduce(&cl, 3).unwrap().diagonalize().unwrap();
        let drv = TheveninTermination::new(500.0, SourceWave::step(0.0, 1.0, 0.1e-9, 0.1e-9));
        let opts = MorOptions { max_newton: 0, ..MorOptions::default() };
        let err = simulate(&rom, &[Some(&drv), None], 2e-9, &opts).unwrap_err();
        match err {
            MorError::NoConvergence { t } => assert_eq!(t, 0.0),
            other => panic!("expected NoConvergence, got {other}"),
        }
    }

    #[test]
    fn tiny_work_budget_is_exhausted() {
        let cl = rc_line(4, 100.0, 1e-15);
        let rom = reduce(&cl, 3).unwrap().diagonalize().unwrap();
        let drv = TheveninTermination::new(500.0, SourceWave::step(0.0, 1.0, 0.1e-9, 0.1e-9));
        let opts = MorOptions { newton_budget: 1, ..MorOptions::default() };
        let err = simulate(&rom, &[Some(&drv), None], 2e-9, &opts).unwrap_err();
        assert!(matches!(err, MorError::BudgetExhausted { .. }), "got {err}");
        let opts = MorOptions { max_tran_steps: 3, ..MorOptions::default() };
        let err = simulate(&rom, &[Some(&drv), None], 2e-9, &opts).unwrap_err();
        assert!(matches!(err, MorError::BudgetExhausted { t } if t > 0.0), "got {err}");
    }

    #[test]
    fn newton_counter_accumulates() {
        let cl = rc_line(4, 100.0, 1e-15);
        let rom = reduce(&cl, 3).unwrap().diagonalize().unwrap();
        let drv = TheveninTermination::new(500.0, SourceWave::step(0.0, 1.0, 0.1e-9, 0.1e-9));
        let res = simulate(&rom, &[Some(&drv), None], 2e-9, &MorOptions::default()).unwrap();
        assert!(res.steps > 10);
        assert!(res.newton_iters >= res.steps);
        assert_eq!(res.num_ports(), 2);
        // The DC point, the end of the hold at the driver's edge, one a step.
        assert_eq!(res.times().len(), res.steps + 2);
        assert_eq!(res.times()[1], 0.1e-9);
    }

    /// A tabulated push-pull driver: piecewise-linear pull-up and pull-down
    /// I–V tables (derivative kinks at every table point) blended by an
    /// input ramp from `t0` to `t0 + tr`.
    #[derive(Debug)]
    struct TabulatedDriver {
        vdd: f64,
        t0: f64,
        tr: f64,
        /// `(v, i)` points of the pull-down current, `v` ascending from 0.
        table: Vec<(f64, f64)>,
    }

    impl TabulatedDriver {
        fn rising(vdd: f64, i_sat: f64, t0: f64, tr: f64) -> Self {
            let table = [0.0, 0.08, 0.2, 0.45, 1.0, 1.4]
                .iter()
                .zip([0.0, 0.35, 0.7, 0.93, 1.0, 1.02])
                .map(|(&v, i)| (v * vdd, i * i_sat))
                .collect();
            TabulatedDriver { vdd, t0, tr, table }
        }

        /// Pull-down current and slope at `v`, odd-extended below 0.
        fn pull(&self, v: f64) -> (f64, f64) {
            let (sign, v) = if v < 0.0 { (-1.0, -v) } else { (1.0, v) };
            let seg = self.table.windows(2).find(|w| v < w[1].0).unwrap_or_else(|| {
                let n = self.table.len();
                &self.table[n - 2..]
            });
            let g = (seg[1].1 - seg[0].1) / (seg[1].0 - seg[0].0);
            (sign * (seg[0].1 + g * (v - seg[0].0)), g)
        }
    }

    impl Termination for TabulatedDriver {
        fn eval(&self, t: f64, v: f64) -> (f64, f64) {
            let s = ((t - self.t0) / self.tr).clamp(0.0, 1.0);
            let (i_dn, g_dn) = self.pull(v);
            let (i_up, g_up) = self.pull(self.vdd - v);
            ((1.0 - s) * i_dn - s * i_up, (1.0 - s) * g_dn + s * g_up)
        }

        fn capacitance(&self) -> f64 {
            1.5e-15
        }

        fn breakpoints(&self, _tstop: f64) -> Vec<f64> {
            vec![self.t0, self.t0 + self.tr]
        }
    }

    /// A random passive diagonal model: time constants spread over 2.5
    /// decades with a few algebraic (`d = 0`) states, dense signed `η`.
    fn random_model(rng: &mut pcv_rng::Rng, q: usize, p: usize) -> DiagonalModel {
        let d: Vec<f64> = (0..q)
            .map(|_| if rng.bool_with(0.1) { 0.0 } else { 10f64.powf(rng.range_f64(-12.0, -9.5)) })
            .collect();
        let rho = Dense::from_fn(q, p, |_, _| rng.range_f64(-6.0, 6.0));
        ReducedModel::new(Dense::from_diag(&d), rho).diagonalize().unwrap()
    }

    /// `k` random terminations (a mix of tabulated drivers with staggered
    /// breakpoints, Thevenin drivers, holding resistors and capacitive loads)
    /// followed by `observe` observe-only ports, in a seeded shuffle.
    fn random_terminations(
        rng: &mut pcv_rng::Rng,
        k: usize,
        observe: usize,
    ) -> Vec<Option<Box<dyn Termination>>> {
        let mut terms: Vec<Option<Box<dyn Termination>>> = (0..k)
            .map(|a| -> Option<Box<dyn Termination>> {
                let t0 = rng.range_f64(0.2e-9, 2.0e-9);
                Some(match a % 4 {
                    0 => Box::new(TabulatedDriver::rising(
                        2.5,
                        rng.range_f64(1e-3, 4e-3),
                        t0,
                        rng.range_f64(0.05e-9, 0.4e-9),
                    )),
                    1 => Box::new(ResistiveTermination::new(rng.range_f64(300.0, 3000.0))),
                    2 => Box::new(TheveninTermination::new(
                        rng.range_f64(200.0, 2000.0),
                        SourceWave::step(2.5, 0.0, t0, 0.1e-9),
                    )),
                    _ => Box::new(CapacitiveTermination::new(rng.range_f64(2e-15, 40e-15))),
                })
            })
            .chain((0..observe).map(|_| None))
            .collect();
        for i in (1..terms.len()).rev() {
            terms.swap(i, rng.range_usize(0, i + 1));
        }
        terms
    }

    /// The Newton kernel on one seeded case; returns its step count and
    /// [`outcome_digest`].
    fn seeded_run(
        seed: u64,
        q: usize,
        k: usize,
        observe: usize,
        opts: &MorOptions,
    ) -> (usize, u64) {
        let mut rng = pcv_rng::Rng::new(seed);
        let model = random_model(&mut rng, q, k + observe);
        let boxes = random_terminations(&mut rng, k, observe);
        let terms: Vec<Option<&dyn Termination>> = boxes.iter().map(|b| b.as_deref()).collect();
        let tag = format!("seed {seed}, q {q}, k {k}, observe {observe}");
        kernel_run(&model, &terms, opts, &tag)
    }

    /// The Newton kernel past [`simulate`]'s choice of solver, also for
    /// terminations that are all linear.
    pub(super) fn newton_only(
        model: &DiagonalModel,
        terms: &[Option<&dyn Termination>],
        tstop: f64,
        opts: &MorOptions,
    ) -> Result<MorTranResult, MorError> {
        let (stepper, quiet) = walk(model, terms, tstop, opts)?;
        newton(model, terms, stepper, quiet, opts)
    }

    /// FNV-1a over what a run did and how it ended: its step and iteration
    /// counts and the bits of its times and samples, or its error's text.
    fn outcome_digest(run: &Result<MorTranResult, MorError>) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        match run {
            Ok(r) => {
                eat(&(r.steps as u64).to_le_bytes());
                eat(&(r.newton_iters as u64).to_le_bytes());
                for v in r.times.iter().chain(r.data.iter().flatten()) {
                    eat(&v.to_bits().to_le_bytes());
                }
            }
            Err(e) => eat(e.to_string().as_bytes()),
        }
        h
    }

    /// Whether a walk over `tstop` under `terms` holds its DC point: every
    /// device quiet beyond the axis' resolution.
    pub(super) fn holds(terms: &[Option<&dyn Termination>], tstop: f64) -> bool {
        let quiet = terms.iter().flatten().map(|t| t.quiet_until()).fold(f64::INFINITY, f64::min);
        quiet > tstop * 1e-12
    }

    /// The Newton kernel over 4 ns of one model under one termination list;
    /// returns its step count (0 for an error) and [`outcome_digest`].
    fn kernel_run(
        model: &DiagonalModel,
        terms: &[Option<&dyn Termination>],
        opts: &MorOptions,
        tag: &str,
    ) -> (usize, u64) {
        let run = newton_only(model, terms, 4e-9, opts);
        if let Ok(r) = &run {
            // The DC point, the end of the hold if the walk held, one a step.
            let samples = 1 + usize::from(holds(terms, 4e-9)) + r.steps;
            assert_eq!(r.times.len(), samples, "{tag}: one sample a step");
            assert!(r.data.iter().all(|d| d.len() == r.times.len()), "{tag}");
        }
        (run.as_ref().map_or(0, |r| r.steps), outcome_digest(&run))
    }

    /// The kernel's outcome on 15 seeded cases is the one recorded when it
    /// still ran beside the textbook loop it replaced, bit for bit.
    #[test]
    fn kernel_keeps_its_recorded_digests() {
        let opts = MorOptions::default();
        let mut seed = 0;
        let mut digests = Vec::new();
        for k in [0, 1, 4, 13] {
            for (q, observe) in [(1, 1), (7, 0), (24, 2), (40, 5)] {
                if k + observe == 0 {
                    continue;
                }
                seed += 1;
                let (steps, digest) = seeded_run(seed, q, k, observe, &opts);
                if k == 0 {
                    assert_eq!(steps, 0, "seed {seed}: no device, the DC point holds to tstop");
                } else {
                    assert!(steps >= 1000, "seed {seed}: a full transient ran, got {steps} steps");
                }
                digests.push(digest);
            }
        }
        assert_eq!(digests, SEEDED_DIGESTS, "{digests:#018x?}");
    }

    /// [`outcome_digest`] of the 15 seeded cases of
    /// `kernel_keeps_its_recorded_digests`, seeds 1 to 15. Seeds 1 to 3
    /// attach no device, so their walks hold the DC point to `tstop`: their
    /// digests were re-recorded when walks began to hold.
    const SEEDED_DIGESTS: [u64; 15] = [
        0x0cc316cd11e62a7f,
        0x58222f0008d7b23f,
        0x51f354a999c3e97f,
        0x7960b47bde74c170,
        0x8b518e623e87fbb2,
        0x438cf66f43d7e9f5,
        0x546dfe441fd42731,
        0xd73de1fc598b8b48,
        0x7d6c36ddd51b9031,
        0xf5a1fbbdb754bc44,
        0x0de85057cc91e917,
        0xda3515fa9467a845,
        0x2750d581d92a2c25,
        0x99d465d254771d9b,
        0x7ae712ae4e1a64bf,
    ];

    #[test]
    fn kernel_is_bit_identical_through_step_rejections() {
        // Two Newton iterations a step cannot follow a tabulated driver
        // through its input ramp: steps are rejected, h shrinks fourfold and
        // the integrator falls back to backward Euler, so the α cache is
        // invalidated over and over.
        let tight = MorOptions { max_newton: 2, ..MorOptions::default() };
        let mut digests = Vec::new();
        for seed in [101, 102, 103] {
            let (relaxed, d_relaxed) = seeded_run(seed, 24, 4, 2, &MorOptions::default());
            let (rejected, d_rejected) = seeded_run(seed, 24, 4, 2, &tight);
            assert!(rejected > relaxed, "seed {seed}: {rejected} steps vs {relaxed}");
            digests.extend([d_relaxed, d_rejected]);
        }
        assert_eq!(digests, REJECTION_DIGESTS, "{digests:#018x?}");
    }

    /// [`outcome_digest`] of seeds 101 to 103, each relaxed then with two
    /// Newton iterations a step.
    const REJECTION_DIGESTS: [u64; 6] = [
        0xb7cfec22c9e10a75,
        0x8ff83d302aa9e601,
        0xf4a4576ee4feb429,
        0xea671314cbb2e510,
        0x59ad8f52c54e9479,
        0x26c44e35dc5fabd2,
    ];

    #[test]
    fn kernel_failures_keep_their_recorded_digests() {
        // Budgets and a starved DC solve end the kernel with the typed error
        // and time point it was recorded with.
        let mut digests = Vec::new();
        for opts in [
            MorOptions { newton_budget: 300, ..MorOptions::default() },
            MorOptions { max_tran_steps: 40, ..MorOptions::default() },
            MorOptions { max_newton: 0, ..MorOptions::default() },
        ] {
            let (steps, digest) = seeded_run(7, 24, 4, 2, &opts);
            assert_eq!(steps, 0);
            digests.push(digest);
        }
        assert_eq!(digests, FAILURE_DIGESTS, "{digests:#018x?}");
    }

    /// [`outcome_digest`] of seed 7's three failures: the error's text.
    const FAILURE_DIGESTS: [u64; 3] = [0x8fb8fb1199e565a8, 0xa6e8f03137ae0da7, 0x3c9eadeee9413e2a];

    /// A termination that logs `(port, t, g)` bits of every evaluation into
    /// a log shared by all ports.
    #[derive(Debug)]
    struct Logged<'a> {
        port: usize,
        inner: &'a dyn Termination,
        log: &'a std::cell::RefCell<Vec<(usize, u64, u64)>>,
    }

    impl Termination for Logged<'_> {
        fn eval(&self, t: f64, v: f64) -> (f64, f64) {
            let (i, g) = self.inner.eval(t, v);
            self.log.borrow_mut().push((self.port, t.to_bits(), g.to_bits()));
            (i, g)
        }

        fn capacitance(&self) -> f64 {
            self.inner.capacitance()
        }

        fn breakpoints(&self, tstop: f64) -> Vec<f64> {
            self.inner.breakpoints(tstop)
        }
    }

    /// The bits of `W` at each of the kernel's Newton iterations in one run:
    /// the kernel evaluates every active port once an iteration, in port
    /// order, at the iteration's time.
    fn iterations(
        model: &DiagonalModel,
        terms: &[Option<&dyn Termination>],
        opts: &MorOptions,
    ) -> Vec<Vec<u64>> {
        let log = std::cell::RefCell::new(Vec::new());
        let logged: Vec<Option<Logged>> = (terms.iter().enumerate())
            .map(|(port, t)| t.map(|inner| Logged { port, inner, log: &log }))
            .collect();
        let logged: Vec<Option<&dyn Termination>> =
            logged.iter().map(|t| t.as_ref().map(|t| t as &dyn Termination)).collect();
        let _ = simulate(model, &logged, 4e-9, opts);
        let k = terms.iter().flatten().count();
        let log = log.into_inner();
        log.chunks_exact(k.max(1))
            .map(|it| {
                assert!(it.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 == w[1].1), "{it:?}");
                it.iter().map(|&(_, _, g)| g).collect()
            })
            .collect()
    }

    /// A resistor to ground of `ohms[1]` from `from` to `to` and `ohms[0]`
    /// otherwise. It names no breakpoint, so the step size runs through both
    /// switches unchanged.
    #[derive(Debug)]
    struct Switched {
        ohms: [f64; 2],
        from: f64,
        to: f64,
    }

    impl Termination for Switched {
        fn eval(&self, t: f64, v: f64) -> (f64, f64) {
            let g = 1.0 / self.ohms[usize::from((self.from..self.to).contains(&t))];
            (g * v, g)
        }
    }

    #[test]
    fn kernel_is_bit_identical_when_w_returns_to_an_earlier_pattern() {
        // W leaves the bits S was factored for at 1.5 ns and returns to them
        // at 2.5 ns, both under the α of the largest step: the factors in
        // hand at the return are the other pattern's.
        let mut digests = Vec::new();
        for seed in [201, 202] {
            let mut rng = pcv_rng::Rng::new(seed);
            let model = random_model(&mut rng, 24, 3);
            let switched = Switched { ohms: [800.0, 150.0], from: 1.5e-9, to: 2.5e-9 };
            let driver =
                TheveninTermination::new(500.0, SourceWave::step(0.0, 2.5, 0.3e-9, 0.1e-9));
            let terms: [Option<&dyn Termination>; 3] = [Some(&switched), Some(&driver), None];
            let opts = MorOptions::default();
            let mut patterns: Vec<Vec<u64>> = Vec::new();
            for w in iterations(&model, &terms, &opts) {
                if patterns.last() != Some(&w) {
                    patterns.push(w);
                }
            }
            assert_eq!(patterns.len(), 3, "seed {seed}: W leaves its pattern and returns");
            assert_eq!(patterns[0], patterns[2], "seed {seed}");
            let res = simulate(&model, &terms, 4e-9, &opts).unwrap();
            let hmax = 4e-9 * opts.max_step_fraction;
            for t in res.times().windows(2).filter(|t| (1.2e-9..2.8e-9).contains(&t[0])) {
                assert!(((t[1] - t[0]) / hmax - 1.0).abs() < 1e-6, "seed {seed}: one α across");
            }
            let (steps, digest) = kernel_run(&model, &terms, &opts, &format!("seed {seed}"));
            assert!(steps > 0);
            digests.push(digest);
        }
        assert_eq!(digests, SWITCHED_DIGESTS, "{digests:#018x?}");
    }

    /// [`outcome_digest`] of seeds 201 and 202 under the switched resistor.
    const SWITCHED_DIGESTS: [u64; 2] = [0xfa5fe28d2e822d85, 0x7697b284a34092c8];

    #[test]
    fn kernel_is_bit_identical_when_alpha_moves_under_a_fixed_w() {
        // Linear drivers without capacitance: every w is a constant, so the
        // factors of S may be kept only as long as α is.
        let mut digests = Vec::new();
        for seed in [301, 302] {
            let mut rng = pcv_rng::Rng::new(seed);
            let model = random_model(&mut rng, 24, 5);
            let holding: Vec<ResistiveTermination> =
                (0..2).map(|_| ResistiveTermination::new(rng.range_f64(300.0, 3000.0))).collect();
            let drivers: Vec<TheveninTermination> = (0..2)
                .map(|a| {
                    let wave = SourceWave::step(0.0, 2.5, 0.4e-9 + 1e-9 * a as f64, 0.1e-9);
                    TheveninTermination::new(rng.range_f64(200.0, 2000.0), wave)
                })
                .collect();
            let terms: Vec<Option<&dyn Termination>> = (holding.iter().map(|t| t as _))
                .chain(drivers.iter().map(|t| t as _))
                .map(Some)
                .chain([None])
                .collect();
            let opts = MorOptions::default();
            let its = iterations(&model, &terms, &opts);
            assert!(its.windows(2).all(|w| w[0] == w[1]), "seed {seed}: W is fixed");
            let tag = format!("seed {seed}");
            let (run_steps, digest) = kernel_run(&model, &terms, &opts, &tag);
            assert!(run_steps > 0);
            digests.push(digest);
            let res = newton_only(&model, &terms, 4e-9, &opts).unwrap();
            let mut steps: Vec<u64> =
                res.times().windows(2).map(|t| (t[1] - t[0]).to_bits()).collect();
            steps.sort_unstable();
            steps.dedup();
            assert!(steps.len() > 2, "seed {seed}: {} distinct step sizes", steps.len());
        }
        assert_eq!(digests, FIXED_W_DIGESTS, "{digests:#018x?}");
    }

    /// [`outcome_digest`] of seeds 301 and 302 under linear devices,
    /// re-recorded when walks began to hold: both hold to the first
    /// driver's edge at 0.4 ns.
    const FIXED_W_DIGESTS: [u64; 2] = [0x1cf26c2d34a116d2, 0x6ab0655fcb10968b];

    /// Two ports on one node (identical `η` columns) shorted by 1e-30 Ω:
    /// `w·G` swallows the identity in `S = I + W G`, whose rows then cancel
    /// exactly.
    fn singular_case() -> (DiagonalModel, ResistiveTermination) {
        let rho = Dense::from_rows(&[&[3.0, 3.0], &[1.0, 1.0], &[-2.0, -2.0]]);
        let model =
            ReducedModel::new(Dense::from_diag(&[1e-10, 2e-10, 3e-11]), rho).diagonalize().unwrap();
        (model, ResistiveTermination::new(1e-30))
    }

    #[test]
    fn singular_woodbury_matrix_is_the_retry_error() {
        let (model, short) = singular_case();
        let terms: [Option<&dyn Termination>; 2] = [Some(&short), Some(&short)];
        let opts = MorOptions::default();
        let mut ws = Workspace::new(&model, &terms);
        let beta = [0.0; 3];
        let mut x = [1e-3, 0.0, 0.0];
        let dc = Step { alpha: 0.0, beta: &beta, t: 0.0, caps: None };
        assert_eq!(ws.newton(&mut x, &dc, DAMPING, opts.max_newton), Err(()));
        assert_eq!(x, [1e-3, 0.0, 0.0], "no update is applied from a singular solve");
        // End to end every DC retry hits it, which is NoConvergence at t = 0.
        let err = newton_only(&model, &terms, 1e-9, &opts).unwrap_err();
        assert!(matches!(err, MorError::NoConvergence { t } if t == 0.0), "got {err}");
    }
}
