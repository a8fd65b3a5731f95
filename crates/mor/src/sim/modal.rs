//! The reduced transient under linear terminations, in modal coordinates.
//!
//! A linear device draws `i = g·(v − e(t))` plus the current of a port
//! capacitance `c`. With `U` the active columns of `η`, `G = diag(g)` and
//! `C = diag(c)`, the terminated model is linear:
//!
//! ```text
//! M ẋ + K x = U G e(t),   M = D + U C Uᵀ,   K = I + U G Uᵀ,   y = ηᵀ x
//! ```
//!
//! Factoring `K = L Lᵀ` and diagonalizing `L⁻¹ M L⁻ᵀ = W Σ Wᵀ` gives, with
//! `x = L⁻ᵀ W z`, one scalar equation per mode and the port voltages as
//! their mix:
//!
//! ```text
//! σᵢ żᵢ + zᵢ = rᵢᵀ e(t),   rᵢₐ = gₐ·Oᵢⱼₐ,   y = Oᵀ z,   O = Wᵀ L⁻¹ η
//! ```
//!
//! — the paper's diagonalized model (§3, eqs. 5–7) with its linear
//! timing-library drivers (§4.1) folded in. A mode with `σᵢ = 0` is
//! algebraic. Each step applies the Newton kernel's multistep rule on the
//! same walk, per mode: `z⁺ = (rᵀe⁺ − σβ) / (σα + 1)`. That is the solution
//! the Newton kernel converges to, up to rounding: the discretization is
//! linear, so it commutes with the change of coordinates (the port
//! capacitors' companions are the trapezoidal rule on `c·ẏ` in the same
//! way).
//!
//! Once every source has stopped changing, `rᵢᵀe` is constant and each mode
//! only decays toward it; when the ports' distance from their final values
//! is bounded below [`VTOL`], no later sample can tell, and the walk ends in
//! one step ([`Stepper::coast`]). The samples before it are those of the
//! full walk, bit for bit (DESIGN §5, the settle rule).

use super::{MorOptions, MorTranResult, VTOL};
use crate::error::MorError;
use crate::model::DiagonalModel;
use pcv_netlist::termination::Termination;
use pcv_netlist::timestep::Stepper;
use pcv_netlist::SourceWave;
use pcv_sparse::dense::{Dense, DenseCholesky};
use pcv_sparse::eig::jacobi_eigen;
use pcv_sparse::panel;

/// What a step counts against the Newton budgets: one direct solve.
const SOLVES_PER_STEP: usize = 1;

/// The part of a decomposition that no source enters: `σ` and `O`, for one
/// model under one set of devices — keyed by the bits of the model's `d`
/// and `η` and of every device's port, conductance and capacitance.
#[derive(Debug, Clone)]
pub(super) struct Basis {
    key: Vec<u64>,
    /// `σ`, clipped at zero.
    sigma: Vec<f64>,
    /// `O`, row-major `q×p`: row `i` holds mode `i`'s weight in every port.
    out: Vec<f64>,
    /// `wᵢ = maxⱼ |Oᵢⱼ|`: how far mode `i` can move any port.
    reach: Vec<f64>,
}

/// A linear device: its port, `g`, `c` and source `e`.
type Device<'a> = (usize, f64, f64, &'a SourceWave);

impl Basis {
    fn key<'k>(
        model: &'k DiagonalModel,
        devices: &'k [Device<'_>],
    ) -> impl Iterator<Item = u64> + 'k {
        let eta = model.eta();
        let shape = [model.order() as u64, model.num_ports() as u64];
        let rows = (0..model.order()).flat_map(move |r| eta.row(r).iter().map(|v| v.to_bits()));
        let devices = devices.iter().flat_map(|&(j, g, c, _)| [j as u64, g.to_bits(), c.to_bits()]);
        shape.into_iter().chain(model.d().iter().map(|v| v.to_bits())).chain(rows).chain(devices)
    }

    /// Decompose `model` under `devices`; `None` when a step fails.
    fn new(model: &DiagonalModel, devices: &[Device<'_>]) -> Option<Self> {
        let (q, p) = (model.order(), model.num_ports());
        let eta = model.eta();

        // K and M, then A = L⁻¹ M L⁻ᵀ in M's place: row c of M is column c
        // (symmetry), so solving every row gives (L⁻¹M)ᵀ; transposed and
        // solved again, the rows are those of L⁻¹ M L⁻ᵀ.
        let mut k = Dense::identity(q);
        let mut m = Dense::from_diag(model.d());
        for &(j, g, c, _) in devices {
            for r in 0..q {
                let er = eta[(r, j)];
                for s in 0..q {
                    let ers = er * eta[(s, j)];
                    k[(r, s)] += g * ers;
                    m[(r, s)] += c * ers;
                }
            }
        }
        let chol = DenseCholesky::factor(&k).ok()?;
        for r in 0..q {
            chol.solve_lower_in_place(m.row_mut(r));
        }
        for r in 0..q {
            for s in r + 1..q {
                let (a, b) = (m[(r, s)], m[(s, r)]);
                m[(r, s)] = b;
                m[(s, r)] = a;
            }
        }
        for r in 0..q {
            chol.solve_lower_in_place(m.row_mut(r));
        }
        let eig = jacobi_eigen(&m).ok()?;
        let mut sigma = eig.values;
        for s in &mut sigma {
            *s = s.max(0.0);
        }

        // O = Wᵀ L⁻¹ η, one port column at a time.
        let w = &eig.vectors;
        let mut out = vec![0.0; q * p];
        let mut col = vec![0.0; q];
        for j in 0..p {
            for (r, v) in col.iter_mut().enumerate() {
                *v = eta[(r, j)];
            }
            chol.solve_lower_in_place(&mut col);
            for i in 0..q {
                let mut sum = 0.0;
                for (r, &v) in col.iter().enumerate() {
                    sum += w[(r, i)] * v;
                }
                out[i * p + j] = sum;
            }
        }
        let reach = (0..q)
            .map(|i| out[i * p..][..p].iter().fold(0.0, |w: f64, o| w.max(o.abs())))
            .collect();
        Some(Basis { key: Basis::key(model, devices).collect(), sigma, out, reach })
    }
}

/// A model with linear terminations, decomposed into its modes.
pub(super) struct Modes<'a> {
    /// `σ` and `O`.
    basis: &'a Basis,
    /// `rᵢᵀe` over the ports with a constant source, by mode.
    fixed: Vec<f64>,
    /// The other sources, and their rows of `r` as a panel
    /// (`sources.len()×q`, row `s` is `g·O[:, j]` of source `s`'s port).
    sources: Vec<&'a SourceWave>,
    drive: Vec<f64>,
    /// When the last source stops changing; `None` if one never does.
    settle: Option<f64>,
    /// The port count `p`.
    ports: usize,
}

impl<'a> Modes<'a> {
    /// Decompose `model` under `terminations`; `None` when a device is not
    /// linear, or a decomposition step fails (the Newton kernel then runs).
    /// The source-free part comes from `memo` when its key matches, and is
    /// left there when it is built.
    pub(super) fn new(
        model: &DiagonalModel,
        terminations: &'a [Option<&'a dyn Termination>],
        memo: &'a mut Option<Basis>,
    ) -> Option<Self> {
        let (q, p) = (model.order(), model.num_ports());
        let mut devices = Vec::new();
        for (j, t) in terminations.iter().enumerate() {
            if let Some(t) = *t {
                let (g, e) = t.linear()?;
                let c = t.capacitance();
                if !(g >= 0.0 && g.is_finite() && c >= 0.0 && c.is_finite()) {
                    return None;
                }
                devices.push((j, g, c, e));
            }
        }
        let kept =
            memo.as_ref().is_some_and(|b| b.key.iter().copied().eq(Basis::key(model, &devices)));
        if !kept {
            *memo = Some(Basis::new(model, &devices)?);
        }
        let basis = memo.as_ref()?;

        let out = &basis.out;
        let mut fixed = vec![0.0; q];
        let mut sources = Vec::new();
        let mut drive = Vec::new();
        for &(j, g, _, e) in devices.iter().filter(|pt| pt.1 > 0.0) {
            let row = (0..q).map(|i| g * out[i * p + j]);
            match e {
                SourceWave::Dc(v) => fixed.iter_mut().zip(row).for_each(|(f, r)| *f += r * v),
                _ => {
                    sources.push(e);
                    drive.extend(row);
                }
            }
        }
        let settle =
            sources.iter().try_fold(f64::NEG_INFINITY, |t, e| Some(t.max(e.settles_after()?)));
        Some(Modes { basis, fixed, sources, drive, settle, ports: p })
    }

    /// `rᵀe(t)` of every mode into `rhs`, the sources' `e(t)` into `e`.
    fn excite(&self, t: f64, e: &mut [f64], rhs: &mut [f64]) {
        for (ek, wave) in e.iter_mut().zip(&self.sources) {
            *ek = wave.value_at(t);
        }
        rhs.copy_from_slice(&self.fixed);
        panel::dots(e, &self.drive, rhs);
    }

    /// Port voltages `y = Oᵀ z`.
    fn outputs(&self, z: &[f64], y: &mut [f64]) {
        y.fill(0.0);
        panel::dots(z, &self.basis.out, y);
    }

    /// Integrate from the DC state along `stepper`'s walk, holding the DC
    /// state up to `quiet`. Every solve — the DC point and each step —
    /// counts as one Newton iteration against `opts`' budgets; the hold is
    /// neither.
    pub(super) fn simulate(
        self,
        mut stepper: Stepper,
        quiet: f64,
        opts: &MorOptions,
    ) -> Result<MorTranResult, MorError> {
        let sigma = &self.basis.sigma;
        let (q, p) = (sigma.len(), self.ports);
        if opts.max_newton < SOLVES_PER_STEP {
            return Err(MorError::NoConvergence { t: 0.0 });
        }
        let mut e = vec![0.0; self.sources.len()];
        let mut z = vec![0.0; q];
        self.excite(0.0, &mut e, &mut z);
        let mut y = vec![0.0; p];
        self.outputs(&z, &mut y);
        if y.iter().any(|v| !v.is_finite()) {
            return Err(MorError::NonFinite { what: "reduced transient dc solution" });
        }
        let mut times = vec![0.0];
        let mut data: Vec<Vec<f64>> = y.iter().map(|&yj| vec![yj]).collect();
        if super::hold(&mut stepper, quiet) {
            times.push(stepper.t());
            for (dj, &yj) in data.iter_mut().zip(&y) {
                dj.push(yj);
            }
        }
        let (mut steps, mut solves) = (0usize, SOLVES_PER_STEP);
        let mut recent = super::Recent::new(&y);

        let mut zdot = vec![0.0; q];
        // The step being tried; swapped into `z` and `zdot` when accepted.
        let (mut z_new, mut zdot_new) = (vec![0.0; q], vec![0.0; q]);
        let mut rhs = vec![0.0; q];
        // 1 / (σα + 1) of every mode, for the α of `alpha_bits`.
        let mut gain = vec![0.0; q];
        let mut alpha_bits = None;
        let mut coasting = false;
        let mut rejected = 0u64;
        while let Some((h, method)) = stepper.next() {
            let t = stepper.t();
            if solves > opts.newton_budget || steps >= opts.max_tran_steps {
                return Err(MorError::BudgetExhausted { t });
            }
            let alpha = method.alpha(h);
            if alpha_bits != Some(alpha.to_bits()) {
                alpha_bits = Some(alpha.to_bits());
                for (gi, &s) in gain.iter_mut().zip(sigma) {
                    *gi = 1.0 / (s * alpha + 1.0);
                }
            }
            self.excite(t + h, &mut e, &mut rhs);
            let modes = z.iter().zip(&zdot).zip(sigma).zip(z_new.iter_mut().zip(&mut zdot_new));
            for ((((&zi, &zd), &s), (zn, zdn)), (&r, &gi)) in modes.zip(rhs.iter().zip(&gain)) {
                let beta = method.history(h, zi, zd);
                *zn = (r - s * beta) * gi;
                *zdn = alpha * *zn + beta;
            }
            self.outputs(&z_new, &mut y);
            if y.iter().any(|v| !v.is_finite()) {
                return Err(MorError::NonFinite { what: "reduced transient waveform" });
            }
            solves += SOLVES_PER_STEP;
            let err = recent.ratio(&mut stepper, &y);
            if !stepper.accepted(err) {
                rejected += 1;
                if h < super::MIN_STEP {
                    return Err(MorError::NoConvergence { t });
                }
                continue;
            }
            std::mem::swap(&mut z, &mut z_new);
            std::mem::swap(&mut zdot, &mut zdot_new);
            times.push(stepper.t());
            for (dj, &yj) in data.iter_mut().zip(&y) {
                dj.push(yj);
            }
            recent.push(&y);
            steps += 1;
            // Past the last source change `rhs` holds each mode's end value
            // and every later step, of any size, moves the mode toward it
            // (`|ρᵢ| ≤ 1`): no port can leave `B = Σ wᵢ·|zᵢ − rhsᵢ|` around
            // its final value. Below `VTOL`, the rest of the span is one step.
            // The sum stops at the first term that takes it past and starts
            // from the slowest mode (`σ` ascends), the last to settle.
            if !coasting && self.settle.is_some_and(|s| stepper.t() > s) {
                let mut bound = 0.0;
                let mut rest = z.iter().zip(&rhs).zip(&self.basis.reach).rev();
                let settled = rest.all(|((&zi, &ri), &wi)| {
                    bound += wi * (zi - ri).abs();
                    bound < VTOL
                });
                coasting = settled && stepper.coast();
            }
        }
        super::record_walk(solves, steps, rejected);
        Ok(MorTranResult { times, data, steps, newton_iters: solves })
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{holds, newton_only};
    use super::super::{simulate, MorOptions, MorTranResult, VTOL};
    use crate::error::MorError;
    use crate::model::{DiagonalModel, ReducedModel};
    use pcv_netlist::termination::{
        CapacitiveTermination, ResistiveTermination, Termination, TheveninTermination,
    };
    use pcv_netlist::SourceWave;
    use pcv_rng::Rng;
    use pcv_sparse::Dense;
    use std::cell::RefCell;

    /// The most iterations a Newton solve of a linear set takes without a
    /// damped step, whose iterate the modal solve matches only to the
    /// Newton tolerance.
    const EASY_ITERS: usize = 3;

    /// A random passive diagonal model of `q` states and `p` ports: time
    /// constants over 2.5 decades, some algebraic (`d = 0`) states, dense
    /// signed `η`.
    fn random_model(rng: &mut Rng, q: usize, p: usize) -> DiagonalModel {
        let d: Vec<f64> = (0..q)
            .map(|_| if rng.bool_with(0.15) { 0.0 } else { 10f64.powf(rng.range_f64(-12.0, -9.5)) })
            .collect();
        let rho = Dense::from_fn(q, p, |_, _| rng.range_f64(-6.0, 6.0));
        ReducedModel::new(Dense::from_diag(&d), rho).diagonalize().unwrap()
    }

    /// A source of one of the four shapes the workspace drives with.
    fn random_source(rng: &mut Rng) -> SourceWave {
        let (v0, v1) = if rng.bool_with(0.5) { (0.0, 2.5) } else { (2.5, 0.0) };
        let delay = rng.range_f64(0.1e-9, 2.5e-9);
        let edge = rng.range_f64(0.02e-9, 0.4e-9);
        match rng.range_usize(0, 4) {
            0 => SourceWave::Dc(v0),
            1 => SourceWave::step(v0, v1, delay, edge),
            2 => SourceWave::Pulse {
                v0,
                v1,
                delay,
                rise: edge,
                fall: rng.range_f64(0.02e-9, 0.4e-9),
                width: rng.range_f64(0.1e-9, 1e-9),
                period: f64::INFINITY,
            },
            _ => SourceWave::Pulse {
                v0,
                v1,
                delay: 0.1 * delay,
                rise: edge,
                fall: edge,
                width: 0.2e-9,
                period: rng.range_f64(0.8e-9, 1.6e-9),
            },
        }
    }

    /// `p` ports: resistive, capacitive and Thevenin devices and
    /// observe-only ports, all `None` with some probability.
    fn random_terminations(rng: &mut Rng, p: usize) -> Vec<Option<Box<dyn Termination>>> {
        let none = rng.bool_with(0.1);
        (0..p)
            .map(|_| -> Option<Box<dyn Termination>> {
                if none {
                    return None;
                }
                match rng.range_usize(0, 5) {
                    0 => Some(Box::new(ResistiveTermination::new(rng.range_f64(200.0, 4000.0)))),
                    1 => Some(Box::new(CapacitiveTermination::new(rng.range_f64(1e-15, 40e-15)))),
                    2 => None,
                    _ => Some(Box::new(TheveninTermination::new(
                        rng.range_f64(150.0, 3000.0),
                        random_source(rng),
                    ))),
                }
            })
            .collect()
    }

    /// A device seen only through `eval`, `capacitance`, `breakpoints` and
    /// `quiet_until` — its linearity hidden, so a set of them runs the
    /// Newton kernel, on the walk and hold the modal solver takes — that logs
    /// the time of every evaluation.
    #[derive(Debug)]
    struct Opaque<'a> {
        inner: &'a dyn Termination,
        log: Option<&'a RefCell<Vec<u64>>>,
    }

    impl Termination for Opaque<'_> {
        fn eval(&self, t: f64, v: f64) -> (f64, f64) {
            if let Some(log) = self.log {
                log.borrow_mut().push(t.to_bits());
            }
            self.inner.eval(t, v)
        }

        fn capacitance(&self) -> f64 {
            self.inner.capacitance()
        }

        fn breakpoints(&self, tstop: f64) -> Vec<f64> {
            self.inner.breakpoints(tstop)
        }

        fn quiet_until(&self) -> f64 {
            self.inner.quiet_until()
        }
    }

    /// The Newton kernel's run and whether every one of its transient solves
    /// took at most `EASY_ITERS` iterations (the first active port is
    /// evaluated once an iteration, at the solve's time).
    fn newton_run(
        model: &DiagonalModel,
        terms: &[Option<&dyn Termination>],
        tstop: f64,
        opts: &MorOptions,
    ) -> (Result<MorTranResult, MorError>, bool) {
        let log = RefCell::new(Vec::new());
        let mut first = true;
        let opaque: Vec<Option<Opaque>> = (terms.iter())
            .map(|t| {
                t.map(|inner| {
                    let log = std::mem::take(&mut first).then_some(&log);
                    Opaque { inner, log }
                })
            })
            .collect();
        let opaque: Vec<Option<&dyn Termination>> =
            opaque.iter().map(|t| t.as_ref().map(|t| t as &dyn Termination)).collect();
        let run = newton_only(model, &opaque, tstop, opts);
        let log = log.into_inner();
        let solves = log.chunk_by(|a, b| a == b).filter(|c| c[0] != 0.0f64.to_bits());
        let easy = solves.map(<[u64]>::len).all(|n| n <= EASY_ITERS);
        (run, easy)
    }

    /// A device held at its value at `at` whatever the time: a walk under
    /// such devices starts from the DC point of their sources at `at`.
    #[derive(Debug)]
    struct Frozen<'a> {
        inner: &'a dyn Termination,
        at: f64,
    }

    impl Termination for Frozen<'_> {
        fn eval(&self, _t: f64, v: f64) -> (f64, f64) {
            self.inner.eval(self.at, v)
        }

        fn capacitance(&self) -> f64 {
            self.inner.capacitance()
        }
    }

    /// What one compared case showed.
    #[derive(Default)]
    struct Compared {
        cases: usize,
        coasted: usize,
        /// Cases whose every device stays quiet to `tstop`: the hold is the
        /// whole walk, and neither run takes a step.
        held_through: usize,
        /// The largest sample gap up to the coast point.
        worst: f64,
        /// The largest gap between a coasted run's last sample and the
        /// settled state.
        worst_end: f64,
    }

    /// Modal against Newton on one case: typed errors alike, and when the
    /// Newton run stepped easily throughout, the same walk and every sample
    /// within 1e-12 V + 1e-12·|v| up to the point where the modal run
    /// coasted, if it did. After that point the modal run's last sample and
    /// every later Newton sample lie within `VTOL` + 1e-12 of the state the
    /// settled sources hold the ports at (the DC point of the devices frozen
    /// at `tstop`): the settle bound, checked on both kernels.
    fn assert_modal_matches(
        model: &DiagonalModel,
        terms: &[Option<&dyn Termination>],
        tstop: f64,
        opts: &MorOptions,
        tag: &str,
        seen: &mut Compared,
    ) {
        let modal = simulate(model, terms, tstop, opts);
        let (newton, easy) = newton_run(model, terms, tstop, opts);
        let (modal, newton) = match (modal, newton) {
            (Ok(m), Ok(n)) => (m, n),
            (Err(m), Err(n)) => {
                let kind = |e: &MorError| std::mem::discriminant(e);
                assert_eq!(kind(&m), kind(&n), "{tag}: {m} vs {n}");
                return;
            }
            (m, n) => panic!("{tag}: modal {m:?} vs newton {n:?}"),
        };
        if !easy {
            return;
        }
        seen.cases += 1;
        let end = modal.times()[modal.times().len() - 1];
        let held = usize::from(holds(terms, tstop));
        assert_eq!(modal.times().len(), 1 + held + modal.steps, "{tag}: one sample a step");
        assert!((end - tstop).abs() <= tstop * 1e-12, "{tag}: ends at {end:e}");
        let coasted = modal.steps < newton.steps;
        // Samples the two walks share: all of them, or up to the coast point.
        let shared = if coasted { modal.times().len() - 1 } else { modal.times().len() };
        let bits = |v: &[f64]| v.iter().map(|s| s.to_bits()).collect::<Vec<u64>>();
        assert_eq!(bits(&modal.times()[..shared]), bits(&newton.times()[..shared]), "{tag}: times");
        if !coasted {
            assert_eq!(modal.steps, newton.steps, "{tag}: steps");
        }
        let settled = coasted.then(|| {
            let frozen: Vec<Option<Frozen>> =
                terms.iter().map(|t| t.map(|inner| Frozen { inner, at: tstop })).collect();
            let frozen: Vec<Option<&dyn Termination>> =
                frozen.iter().map(|t| t.as_ref().map(|t| t as &dyn Termination)).collect();
            newton_only(model, &frozen, tstop, opts).expect("the settled state solves")
        });
        for j in 0..modal.num_ports() {
            let (m, n) = (&modal.data[j], &newton.data[j]);
            for (k, (&m, &n)) in m[..shared].iter().zip(n).enumerate() {
                let gap = (m - n).abs();
                assert!(gap <= 1e-12 + 1e-12 * n.abs(), "{tag}: port {j} sample {k}: {m} vs {n}");
                seen.worst = seen.worst.max(gap);
            }
            if let Some(settled) = &settled {
                let end = settled.data[j][0];
                let gap = (m[m.len() - 1] - end).abs();
                assert!(gap <= VTOL + 1e-12, "{tag}: port {j} ends {gap:e} from {end}");
                seen.worst_end = seen.worst_end.max(gap);
                for (k, &v) in n.iter().enumerate().skip(shared) {
                    let off = (v - end).abs();
                    assert!(
                        off <= VTOL + 1e-12,
                        "{tag}: port {j}: newton sample {k} past the coast point is {off:e} \
                         from the settled state"
                    );
                }
            }
        }
        seen.coasted += usize::from(coasted);
        seen.held_through += usize::from(modal.steps == 0 && newton.steps == 0);
    }

    fn sweep(cases: u64, seed: u64) {
        let opts = MorOptions::default();
        let mut seen = Compared::default();
        for case in 0..cases {
            let mut rng = Rng::new(seed + case);
            let (q, p) = (rng.range_usize(1, 41), rng.range_usize(1, 10));
            let model = random_model(&mut rng, q, p);
            let boxes = random_terminations(&mut rng, p);
            let terms: Vec<Option<&dyn Termination>> = boxes.iter().map(|b| b.as_deref()).collect();
            let tag = format!("case {case}: q {q}, p {p}");
            assert_modal_matches(&model, &terms, 4e-9, &opts, &tag, &mut seen);
        }
        let Compared { cases: compared, coasted, held_through, worst, worst_end } = seen;
        eprintln!(
            "modal vs newton: {compared} of {cases} cases compared, {coasted} coasted, \
             {held_through} held to the end; max |dv| {worst:e} V to the coast point, \
             {worst_end:e} V at the end"
        );
        assert!(
            compared * 10 >= cases as usize * 9,
            "only {compared} of {cases} cases stepped easily"
        );
        // A case whose devices are all quiet to the end holds instead of
        // coasting after one step, as it did before walks held: it counts
        // toward the quarter that takes a shortcut, and each kind is seen.
        let shortcut = coasted + held_through;
        assert!(shortcut * 4 >= compared, "only {shortcut} of {compared} cases took a shortcut");
        assert!(coasted > 0 && held_through > 0, "{coasted} coasted, {held_through} held");
    }

    #[test]
    fn modal_solver_matches_the_newton_kernel_on_random_linear_sets() {
        sweep(300, 0x006d_0da1);
    }

    #[test]
    #[ignore = "the 3 000-case sweep, run in CI chaos"]
    fn modal_solver_matches_the_newton_kernel_on_many_random_linear_sets() {
        sweep(3000, 0x0006_d0da_1000);
    }

    #[test]
    fn modal_and_newton_fail_alike() {
        let mut rng = Rng::new(31);
        let model = random_model(&mut rng, 12, 3);
        let drv = TheveninTermination::new(600.0, SourceWave::step(0.0, 2.5, 0.5e-9, 0.1e-9));
        let hold = ResistiveTermination::new(900.0);
        let terms: [Option<&dyn Termination>; 3] = [Some(&drv), Some(&hold), None];
        let cases = [
            (f64::NAN, MorOptions::default()),
            (-1e-9, MorOptions::default()),
            (4e-9, MorOptions { max_step_fraction: 0.0, ..MorOptions::default() }),
            (4e-9, MorOptions { newton_budget: 5, ..MorOptions::default() }),
            (4e-9, MorOptions { newton_budget: 0, ..MorOptions::default() }),
            (4e-9, MorOptions { max_tran_steps: 40, ..MorOptions::default() }),
            (4e-9, MorOptions { max_newton: 0, ..MorOptions::default() }),
        ];
        for (i, (tstop, opts)) in cases.iter().enumerate() {
            let modal = simulate(&model, &terms, *tstop, opts).unwrap_err();
            let (newton, _) = newton_run(&model, &terms, *tstop, opts);
            let newton = newton.unwrap_err();
            let same = match (&modal, &newton) {
                // Newton spends more than one iteration a step.
                (MorError::BudgetExhausted { .. }, MorError::BudgetExhausted { .. }) => {
                    opts.max_tran_steps == usize::MAX || modal.to_string() == newton.to_string()
                }
                _ => modal.to_string() == newton.to_string(),
            };
            assert!(same, "case {i}: modal {modal} vs newton {newton}");
        }
    }

    #[test]
    fn a_kept_decomposition_gives_the_bits_of_a_fresh_one() {
        use super::super::{simulate_memo, ModalMemo};
        let bits = |r: &MorTranResult| -> Vec<u64> {
            (0..r.num_ports()).flat_map(|j| r.data[j].iter().map(|v| v.to_bits())).collect()
        };
        let opts = MorOptions::default();
        let mut rng = Rng::new(0x3E30);
        let mut memo = ModalMemo::default();
        let models = [random_model(&mut rng, 14, 3), random_model(&mut rng, 14, 3)];
        // Rise then fall on one model (same devices, other sources), then a
        // second model, a changed conductance and a changed capacitance:
        // every call has the bits of a call with no memo.
        let rise = TheveninTermination::new(700.0, SourceWave::step(0.0, 2.5, 0.4e-9, 0.1e-9));
        let fall = TheveninTermination::new(700.0, SourceWave::step(2.5, 0.0, 0.4e-9, 0.1e-9));
        let other_g = TheveninTermination::new(710.0, SourceWave::step(0.0, 2.5, 0.4e-9, 0.1e-9));
        let low = ResistiveTermination::new(900.0);
        let high = TheveninTermination::new(900.0, SourceWave::Dc(2.5));
        let loaded = CapacitiveTermination::new(3e-15);
        let sets: [(usize, [Option<&dyn Termination>; 3]); 6] = [
            (0, [Some(&rise), Some(&low), None]),
            (0, [Some(&fall), Some(&high), None]),
            (0, [Some(&rise), Some(&low), None]),
            (1, [Some(&fall), Some(&high), None]),
            (1, [Some(&other_g), Some(&high), None]),
            (1, [Some(&other_g), Some(&high), Some(&loaded)]),
        ];
        for (case, (model, terms)) in sets.iter().enumerate() {
            let model = &models[*model];
            let want = simulate(model, terms, 4e-9, &opts).unwrap();
            let got = simulate_memo(model, terms, 4e-9, &opts, &mut memo).unwrap();
            assert_eq!(bits(&got), bits(&want), "case {case}");
            assert_eq!(got.times(), want.times(), "case {case}");
        }
    }

    #[test]
    fn a_nonlinear_device_keeps_the_newton_kernel() {
        let mut rng = Rng::new(32);
        let model = random_model(&mut rng, 10, 2);
        let drv = TheveninTermination::new(600.0, SourceWave::step(0.0, 2.5, 0.5e-9, 0.1e-9));
        let hold = ResistiveTermination::new(900.0);
        let hidden = Opaque { inner: &hold, log: None };
        let mixed: [Option<&dyn Termination>; 2] = [Some(&drv), Some(&hidden)];
        let linear: [Option<&dyn Termination>; 2] = [Some(&drv), Some(&hold)];
        let bits = |r: &MorTranResult| {
            (0..r.num_ports()).flat_map(|j| r.data[j].iter().map(|v| v.to_bits())).collect()
        };
        let want: Vec<u64> =
            bits(&newton_only(&model, &mixed, 4e-9, &MorOptions::default()).unwrap());
        let got = simulate(&model, &mixed, 4e-9, &MorOptions::default()).unwrap();
        assert_eq!(bits(&got), want, "one nonlinear device: the Newton kernel's bits");
        let modal = simulate(&model, &linear, 4e-9, &MorOptions::default()).unwrap();
        assert_eq!(modal.newton_iters, modal.steps + 1, "all linear: one solve a step");
        assert!(got.newton_iters > modal.newton_iters);
    }
}
