//! DC and transient analysis engine.
//!
//! The solver follows classic SPICE structure: Newton–Raphson on the
//! companion-linearized MNA system, `gmin` stepping for hard DC points,
//! trapezoidal integration with backward-Euler startup after discontinuities,
//! and breakpoint alignment so source corners are never stepped over.

use crate::mna::{node_voltage, MnaLayout, Stamper};
use crate::mos::eval_mos;
use pcv_netlist::termination::Termination;
use pcv_netlist::timestep::{Method, Stepper};
use pcv_netlist::Waveform;
use pcv_netlist::{Circuit, Element, NodeId};
use pcv_sparse::{Assembly, SparseLu};
use std::fmt;

/// Errors produced by the simulator.
#[derive(Debug)]
pub enum SimError {
    /// The linear solver failed (singular Jacobian even with `gmin`).
    Solver(pcv_sparse::Error),
    /// Newton iteration failed to converge.
    NoConvergence {
        /// Simulation time at which convergence failed (`0.0` for DC).
        t: f64,
    },
    /// The timestep shrank below `min_step` without convergence.
    StepTooSmall {
        /// Simulation time at which the step collapsed.
        t: f64,
    },
    /// A probe was requested for a node that was not recorded.
    UnknownProbe {
        /// The offending node.
        node: NodeId,
    },
    /// An accepted solution vector contained NaN or infinite voltages;
    /// surfaced as a typed error so non-finite values fail fast instead of
    /// poisoning recorded waveforms.
    NonFinite {
        /// Simulation time of the poisoned solution (`0.0` for DC).
        t: f64,
    },
    /// A transient was asked for over a span that is not finite and positive.
    InvalidValue {
        /// The offending quantity.
        what: &'static str,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Solver(e) => write!(f, "linear solver failed: {e}"),
            SimError::NoConvergence { t } => {
                write!(f, "newton iteration failed to converge at t = {t:e}")
            }
            SimError::StepTooSmall { t } => {
                write!(f, "timestep underflow at t = {t:e}")
            }
            SimError::UnknownProbe { node } => {
                write!(f, "node {node} was not probed")
            }
            SimError::NonFinite { t } => {
                write!(f, "solution produced a non-finite (NaN or infinite) voltage at t = {t:e}")
            }
            SimError::InvalidValue { what } => write!(f, "{what} must be finite and positive"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Solver(e) => Some(e),
            _ => None,
        }
    }
}

impl From<pcv_sparse::Error> for SimError {
    fn from(e: pcv_sparse::Error) -> Self {
        SimError::Solver(e)
    }
}

/// Minimum conductance from every node to ground (siemens): keeps floating
/// nodes and cutoff devices solvable.
const GMIN: f64 = 1e-12;

/// Absolute voltage convergence tolerance (volts).
const VTOL: f64 = 1e-6;

/// Relative convergence tolerance.
const RELTOL: f64 = 1e-4;

/// Largest allowed voltage change per Newton iteration (volts).
const DAMPING: f64 = 0.4;

/// Simulator tuning knobs. The defaults suit 0.25 µm digital circuits on
/// nanosecond timescales.
#[derive(Debug, Clone)]
pub struct SimOptions {
    /// Newton iteration budget per solve.
    pub max_newton: usize,
    /// Maximum timestep as a fraction of the simulation span.
    pub max_step_fraction: f64,
    /// Smallest allowed timestep in seconds.
    pub min_step: f64,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions { max_newton: 100, max_step_fraction: 1.0 / 1000.0, min_step: 1e-18 }
    }
}

/// A linear capacitor instance flattened out of the circuit (explicit caps,
/// MOSFET parasitics and termination caps all end up here).
#[derive(Debug, Clone, Copy)]
struct CapInst {
    a: NodeId,
    b: NodeId,
    farads: f64,
}

/// Per-capacitor integration state.
#[derive(Debug, Clone, Default)]
struct CapState {
    v_prev: Vec<f64>,
    i_prev: Vec<f64>,
}

/// Everything a Newton iteration writes, owned by one [`Simulator::dc`] or
/// [`Simulator::transient_probed`] call, so that iterations stop allocating
/// once the buffers have grown to the circuit.
struct Workspace {
    st: Stamper,
    /// Recorded assemblies of the two push sequences a run stamps: DC
    /// (capacitors open) and transient (backward Euler and trapezoidal stamp
    /// the same sequence). A plan that does not match what was just stamped
    /// is re-recorded.
    plans: [Assembly; 2],
    plan_builds: u64,
    lu: SparseLu,
    /// Right-hand side and solution in the fill-reducing numbering.
    bp: Vec<f64>,
    xp: Vec<f64>,
    /// The undamped Newton solution in circuit numbering.
    x_new: Vec<f64>,
    /// The iterate; holds the solution when `solve_point` returns `Ok`.
    x: Vec<f64>,
    /// Steps the transient loop gave up on and retried smaller.
    rejected_steps: u64,
}

impl Workspace {
    fn new(size: usize) -> Self {
        Workspace {
            st: Stamper::new(size),
            plans: Default::default(),
            plan_builds: 0,
            lu: SparseLu::default(),
            bp: vec![0.0; size],
            xp: vec![0.0; size],
            x_new: vec![0.0; size],
            x: vec![0.0; size],
            rejected_steps: 0,
        }
    }
}

/// Results of a transient analysis: sampled waveforms at the probed nodes.
#[derive(Debug, Clone)]
pub struct TranResult {
    times: Vec<f64>,
    probes: Vec<NodeId>,
    /// `data[p][k]` = voltage of probe `p` at `times[k]`.
    data: Vec<Vec<f64>>,
    /// Accepted timesteps.
    pub steps: usize,
    /// Total Newton iterations across the run (a CPU-cost proxy).
    pub newton_iters: usize,
}

impl TranResult {
    /// Sample times.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// The probed nodes.
    pub fn probes(&self) -> &[NodeId] {
        &self.probes
    }

    /// Waveform of a probed node.
    ///
    /// # Panics
    ///
    /// Panics if the node was not probed; use [`TranResult::try_waveform`]
    /// for a fallible lookup.
    pub fn waveform(&self, node: NodeId) -> Waveform {
        self.try_waveform(node).expect("node was not probed")
    }

    /// Waveform of a probed node, moving its samples and the time axis out
    /// of the result instead of copying them.
    ///
    /// # Panics
    ///
    /// Panics if the node was not probed.
    pub fn into_waveform(mut self, node: NodeId) -> Waveform {
        let idx = self.probes.iter().position(|&p| p == node).expect("node was not probed");
        Waveform::from_samples(self.times, self.data.swap_remove(idx))
    }

    /// Waveform of a probed node, or an error.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownProbe`] when the node was not recorded.
    pub fn try_waveform(&self, node: NodeId) -> Result<Waveform, SimError> {
        let idx =
            self.probes.iter().position(|&p| p == node).ok_or(SimError::UnknownProbe { node })?;
        Ok(Waveform::from_samples(self.times.clone(), self.data[idx].clone()))
    }
}

/// The simulator: a circuit plus attached nonlinear terminations.
///
/// See the crate-level docs for an end-to-end example.
#[derive(Debug)]
pub struct Simulator<'a> {
    ckt: &'a Circuit,
    layout: MnaLayout,
    terminations: Vec<(NodeId, &'a dyn Termination)>,
    /// Fill-reducing ordering of the MNA pattern, computed from the first
    /// assembled Jacobian and reused for every subsequent factorization
    /// (extracted RC networks in natural order suffer ~10x LU fill).
    ordering: std::cell::OnceCell<Vec<usize>>,
}

impl<'a> Simulator<'a> {
    /// Create a simulator for a circuit.
    pub fn new(ckt: &'a Circuit) -> Self {
        Simulator {
            ckt,
            layout: MnaLayout::new(ckt),
            terminations: Vec::new(),
            ordering: std::cell::OnceCell::new(),
        }
    }

    /// Attach a nonlinear termination at a node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is ground.
    pub fn add_termination(&mut self, node: NodeId, term: &'a dyn Termination) -> &mut Self {
        assert!(!node.is_ground(), "terminations attach to signal nodes");
        self.terminations.push((node, term));
        self
    }

    /// The MNA layout (size, branch rows).
    pub fn layout(&self) -> &MnaLayout {
        &self.layout
    }

    fn collect_caps(&self) -> Vec<CapInst> {
        let mut caps = Vec::new();
        for e in self.ckt.elements() {
            match e {
                Element::Capacitor { a, b, farads } => {
                    caps.push(CapInst { a: *a, b: *b, farads: *farads });
                }
                Element::Mosfet { d, g, s, params } => {
                    // Simple charge model: half the gate cap to source and
                    // drain each, junction caps to ground.
                    let cg2 = 0.5 * params.gate_cap();
                    if cg2 > 0.0 {
                        caps.push(CapInst { a: *g, b: *s, farads: cg2 });
                        caps.push(CapInst { a: *g, b: *d, farads: cg2 });
                    }
                    let cj = params.junction_cap();
                    if cj > 0.0 {
                        caps.push(CapInst { a: *d, b: NodeId::GROUND, farads: cj });
                        caps.push(CapInst { a: *s, b: NodeId::GROUND, farads: cj });
                    }
                }
                _ => {}
            }
        }
        for (node, term) in &self.terminations {
            let c = term.capacitance();
            if c > 0.0 {
                caps.push(CapInst { a: *node, b: NodeId::GROUND, farads: c });
            }
        }
        caps
    }

    /// Stamp every element at solution `x`, time `t`. `dynamic` carries the
    /// capacitor companion context for transient steps; `None` means DC
    /// (capacitors open).
    fn stamp(
        &self,
        st: &mut Stamper,
        x: &[f64],
        t: f64,
        gmin: f64,
        dynamic: Option<(&[CapInst], &CapState, f64, Method)>,
        dc_sources: bool,
    ) {
        let n = self.layout.num_nodes();
        for i in 0..n {
            st.diagonal(i, gmin);
        }
        let mut vsrc_iter = self.layout.vsrc_rows().iter();
        for e in self.ckt.elements() {
            match e {
                Element::Resistor { a, b, ohms } => st.conductance(*a, *b, 1.0 / ohms),
                Element::Capacitor { .. } => {} // handled via the caps list
                Element::Vsrc { pos, neg, wave } => {
                    let (_, row) = *vsrc_iter.next().expect("layout matches circuit");
                    let v = if dc_sources { wave.dc_value() } else { wave.value_at(t) };
                    st.vsrc(row, *pos, *neg, v);
                }
                Element::Isrc { pos, neg, wave } => {
                    let i = if dc_sources { wave.dc_value() } else { wave.value_at(t) };
                    st.current_into(*pos, -i);
                    st.current_into(*neg, i);
                }
                Element::Mosfet { d, g, s, params } => {
                    let vd = node_voltage(x, *d);
                    let vg = node_voltage(x, *g);
                    let vs = node_voltage(x, *s);
                    let m = eval_mos(params, vd, vg, vs);
                    st.jacobian(*d, *d, m.g_d);
                    st.jacobian(*d, *g, m.g_g);
                    st.jacobian(*d, *s, m.g_s);
                    st.jacobian(*s, *d, -m.g_d);
                    st.jacobian(*s, *g, -m.g_g);
                    st.jacobian(*s, *s, -m.g_s);
                    let ieq = m.ids - m.g_d * vd - m.g_g * vg - m.g_s * vs;
                    st.current_into(*d, -ieq);
                    st.current_into(*s, ieq);
                }
            }
        }
        for (node, term) in &self.terminations {
            let v = node_voltage(x, *node);
            let (i0, g) = term.eval(t, v);
            st.jacobian(*node, *node, g);
            st.current_into(*node, -(i0 - g * v));
        }
        if let Some((caps, state, h, method)) = dynamic {
            for (k, cap) in caps.iter().enumerate() {
                let (geq, ieq) = method.companion(cap.farads, h, state.v_prev[k], state.i_prev[k]);
                st.conductance(cap.a, cap.b, geq);
                st.current_into(cap.a, ieq);
                st.current_into(cap.b, -ieq);
            }
        }
    }

    /// One Newton solve from `x0`. Returns the iteration count and leaves the
    /// solution in `ws.x`; `x0` is untouched, so a failed solve can be retried.
    #[allow(clippy::too_many_arguments)]
    fn solve_point(
        &self,
        ws: &mut Workspace,
        x0: &[f64],
        t: f64,
        gmin: f64,
        dynamic: Option<(&[CapInst], &CapState, f64, Method)>,
        dc_sources: bool,
        opts: &SimOptions,
    ) -> Result<usize, SimError> {
        let n = self.layout.num_nodes();
        let size = self.layout.size();
        ws.x.copy_from_slice(x0);
        for iter in 0..opts.max_newton {
            ws.st.clear();
            self.stamp(&mut ws.st, &ws.x, t, gmin, dynamic, dc_sources);
            let (triplets, rhs) = ws.st.system();
            let perm = self.ordering.get_or_init(|| pcv_sparse::order::rcm(&triplets.to_csc()));
            let permuted = perm.len() == size;
            let plan = &mut ws.plans[usize::from(dynamic.is_some())];
            if !plan.assemble(triplets) {
                *plan = triplets.record(permuted.then_some(perm));
                assert!(plan.assemble(triplets), "a plan matches the builder it records");
                ws.plan_builds += 1;
            }
            ws.lu.refactor(plan.matrix(), 1e-3)?;
            if permuted {
                for (b, &old) in ws.bp.iter_mut().zip(perm) {
                    *b = rhs[old];
                }
                ws.lu.solve_into(&ws.bp, &mut ws.xp);
                for (&xp, &old) in ws.xp.iter().zip(perm) {
                    ws.x_new[old] = xp;
                }
            } else {
                ws.lu.solve_into(rhs, &mut ws.x_new);
            }
            // Damped update on node voltages; branch currents move freely.
            let mut converged = true;
            for (i, (x, &x_new)) in ws.x.iter_mut().zip(&ws.x_new).enumerate() {
                let delta = x_new - *x;
                if i < n {
                    if delta.abs() > VTOL + RELTOL * x.abs() {
                        converged = false;
                    }
                    *x += delta.clamp(-DAMPING, DAMPING);
                } else {
                    *x = x_new;
                }
            }
            if converged {
                return Ok(iter + 1);
            }
        }
        Err(SimError::NoConvergence { t })
    }

    /// Solve the DC operating point (sources at their `t = 0⁻` values).
    ///
    /// Falls back to `gmin` stepping when the direct Newton solve fails.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoConvergence`] or [`SimError::Solver`] when even
    /// stepped solves fail.
    pub fn dc(&self, opts: &SimOptions) -> Result<Vec<f64>, SimError> {
        let mut ws = Workspace::new(self.layout.size());
        let x = self.dc_on(&mut ws, opts);
        pcv_trace::count("spice.asm.plan_builds", ws.plan_builds);
        x
    }

    fn dc_on(&self, ws: &mut Workspace, opts: &SimOptions) -> Result<Vec<f64>, SimError> {
        let mut x = vec![0.0; self.layout.size()];
        if self.solve_point(ws, &x, 0.0, GMIN, None, true, opts).is_err() {
            // gmin stepping: solve a heavily damped system first and
            // track the solution as gmin relaxes.
            let mut g = 1e-2;
            while g > GMIN * 1.001 {
                if self.solve_point(ws, &x, 0.0, g, None, true, opts).is_ok() {
                    x.copy_from_slice(&ws.x);
                }
                g *= 0.1;
            }
            self.solve_point(ws, &x, 0.0, GMIN, None, true, opts)?;
        }
        x.copy_from_slice(&ws.x);
        Ok(x)
    }

    /// Run a transient analysis to `tstop`, recording every non-ground node.
    ///
    /// # Errors
    ///
    /// Propagates DC failures and returns [`SimError::StepTooSmall`] when the
    /// integrator cannot find a convergent step.
    pub fn transient(&self, tstop: f64, opts: &SimOptions) -> Result<TranResult, SimError> {
        let probes: Vec<NodeId> = (0..self.layout.num_nodes()).map(NodeId::from_index).collect();
        self.transient_probed(tstop, opts, &probes)
    }

    /// Run a transient analysis recording only the given nodes (memory-light
    /// for chip-scale runs).
    ///
    /// # Errors
    ///
    /// Propagates DC failures and returns [`SimError::StepTooSmall`] when the
    /// integrator cannot find a convergent step, [`SimError::InvalidValue`]
    /// unless `tstop` and `opts.max_step_fraction` are finite and positive.
    ///
    /// # Panics
    ///
    /// Panics if a probe is ground.
    pub fn transient_probed(
        &self,
        tstop: f64,
        opts: &SimOptions,
        probes: &[NodeId],
    ) -> Result<TranResult, SimError> {
        assert!(probes.iter().all(|p| !p.is_ground()), "cannot probe ground");
        let mut ws = Workspace::new(self.layout.size());
        let mut result = TranResult {
            times: Vec::new(),
            probes: probes.to_vec(),
            data: vec![Vec::new(); probes.len()],
            steps: 0,
            newton_iters: 0,
        };
        let outcome = self.transient_on(&mut ws, &mut result, tstop, opts);
        // Once per run, whatever its outcome: what it cost, in counters.
        pcv_trace::count("spice.tran.steps", result.steps as u64);
        pcv_trace::count("spice.tran.newton_iters", result.newton_iters as u64);
        pcv_trace::count("spice.tran.rejected_steps", ws.rejected_steps);
        pcv_trace::count("spice.asm.plan_builds", ws.plan_builds);
        outcome.map(|()| result)
    }

    /// The transient loop proper, recording into `result`.
    fn transient_on(
        &self,
        ws: &mut Workspace,
        result: &mut TranResult,
        tstop: f64,
        opts: &SimOptions,
    ) -> Result<(), SimError> {
        // Breakpoints from source waveforms and termination stimuli, and the
        // end of their quiet prefix: the earliest time one of them leaves
        // the value the DC point was solved with (NaN if any says NaN).
        let mut bps: Vec<f64> = Vec::new();
        let mut quiet = f64::INFINITY;
        let mut earliest = |until: f64| {
            if until < quiet || until.is_nan() {
                quiet = until;
            }
        };
        for e in self.ckt.elements() {
            if let Element::Vsrc { wave, .. } | Element::Isrc { wave, .. } = e {
                bps.extend(wave.breakpoints(tstop));
                earliest(wave.starts_after());
            }
        }
        for (_, term) in &self.terminations {
            bps.extend(term.breakpoints(tstop));
            earliest(term.quiet_until());
        }
        let mut stepper = Stepper::new(tstop, opts.max_step_fraction, bps)
            .map_err(|what| SimError::InvalidValue { what })?;

        let caps = self.collect_caps();
        let mut x = self.dc_on(ws, opts)?;
        if x.iter().any(|v| !v.is_finite()) {
            return Err(SimError::NonFinite { t: 0.0 });
        }
        let mut state = CapState {
            v_prev: caps.iter().map(|c| node_voltage(&x, c.a) - node_voltage(&x, c.b)).collect(),
            i_prev: vec![0.0; caps.len()],
        };

        let TranResult { times, probes, data, .. } = result;
        times.push(0.0);
        for (samples, &probe) in data.iter_mut().zip(probes.iter()) {
            samples.push(node_voltage(&x, probe));
        }
        // Up to `quiet` the DC point is the solution: one sample, no step.
        if stepper.hold(quiet) {
            times.push(stepper.t());
            for (samples, &probe) in data.iter_mut().zip(probes.iter()) {
                samples.push(node_voltage(&x, probe));
            }
            pcv_trace::count("spice.tran.holds", 1);
            pcv_trace::value("spice.tran.held_fs", (stepper.t() * 1e15).round() as u64);
        }

        while let Some((h, method)) = stepper.next() {
            let t = stepper.t();
            let dynamic = Some((&caps[..], &state, h, method));
            match self.solve_point(ws, &x, t + h, GMIN, dynamic, false, opts) {
                Ok(iters) => {
                    if ws.x.iter().any(|v| !v.is_finite()) {
                        return Err(SimError::NonFinite { t: t + h });
                    }
                    // Accept: the solution becomes the state, the old state
                    // the next solve's scratch.
                    std::mem::swap(&mut x, &mut ws.x);
                    for (k, cap) in caps.iter().enumerate() {
                        let v_new = node_voltage(&x, cap.a) - node_voltage(&x, cap.b);
                        state.i_prev[k] =
                            method.current(cap.farads, h, v_new, state.v_prev[k], state.i_prev[k]);
                        state.v_prev[k] = v_new;
                    }
                    stepper.accepted(iters);
                    times.push(stepper.t());
                    for (samples, &probe) in data.iter_mut().zip(probes.iter()) {
                        samples.push(node_voltage(&x, probe));
                    }
                    result.steps += 1;
                    result.newton_iters += iters;
                }
                Err(SimError::NoConvergence { .. }) | Err(SimError::Solver(_)) => {
                    ws.rejected_steps += 1;
                    if stepper.rejected(opts.min_step) {
                        return Err(SimError::StepTooSmall { t });
                    }
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcv_netlist::termination::{ResistiveTermination, TheveninTermination};
    use pcv_netlist::{MosParams, SourceWave};

    const VDD: f64 = 2.5;

    use pcv_cells::library::{Cell, CellLibrary};
    use pcv_rng::Rng;

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// What a run did and how it ended, down to the last bit.
    type Outcome = Result<(usize, usize, Vec<u64>, Vec<Vec<u64>>), String>;

    fn outcome(res: Result<TranResult, SimError>) -> Outcome {
        match res {
            Ok(r) => Ok((
                r.steps,
                r.newton_iters,
                bits(&r.times),
                r.data.iter().map(|d| bits(d)).collect(),
            )),
            // The variant, its `t`, and a solver error's column.
            Err(e) => Err(format!("{e:?}")),
        }
    }

    /// FNV-1a over a DC point's bits or error and a transient's outcome.
    fn outcome_digest(dc: &Result<Vec<u64>, String>, tran: &Outcome) -> u64 {
        let mut bytes: Vec<u8> = Vec::new();
        // A NaN's payload is the optimizer's choice; every NaN is one word.
        let words = |bytes: &mut Vec<u8>, w: &[u64]| {
            for &v in w {
                let v = if f64::from_bits(v).is_nan() { f64::NAN.to_bits() } else { v };
                bytes.extend(v.to_le_bytes());
            }
        };
        match dc {
            Ok(x) => words(&mut bytes, x),
            Err(e) => bytes.extend(e.as_bytes()),
        }
        match tran {
            Ok((steps, iters, times, data)) => {
                words(&mut bytes, &[*steps as u64, *iters as u64]);
                words(&mut bytes, times);
                data.iter().for_each(|d| words(&mut bytes, d));
            }
            Err(e) => bytes.extend(e.as_bytes()),
        }
        bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        })
    }

    /// The DC point and the transient of `ckt` under `terms`, every node
    /// probed; returns the transient's outcome and [`outcome_digest`].
    /// `natural` pins an ordering of the wrong length, which sends the
    /// solves down the natural-order branch.
    fn recorded_run(
        ckt: &Circuit,
        terms: &[(NodeId, &dyn Termination)],
        tstop: f64,
        opts: &SimOptions,
        natural: bool,
    ) -> (Outcome, u64) {
        let sim = || {
            let mut sim = Simulator::new(ckt);
            for &(node, term) in terms {
                sim.add_termination(node, term);
            }
            if natural {
                sim.ordering.set(Vec::new()).unwrap();
            }
            sim
        };
        let probes: Vec<NodeId> = (0..ckt.num_nodes()).map(NodeId::from_index).collect();
        let dc = sim().dc(opts).map(|x| bits(&x)).map_err(|e| format!("{e:?}"));
        let tran = outcome(sim().transient_probed(tstop, opts, &probes));
        let digest = outcome_digest(&dc, &tran);
        (tran, digest)
    }

    /// A victim glitch as the cluster analysis would hand it over: `samples`
    /// points on an uneven grid, a bump of `amp` on the quiet level plus a
    /// little ringing, decimated to 400 PWL points when longer (the rule of
    /// `pcv_xtalk::check_receiver_propagation`).
    fn glitch_pwl(rng: &mut Rng, samples: usize, quiet: f64, amp: f64) -> Vec<(f64, f64)> {
        let t_end = rng.range_f64(2e-9, 5e-9);
        let (center, width) = (rng.range_f64(0.3, 0.6) * t_end, rng.range_f64(0.03, 0.15) * t_end);
        let mut times: Vec<f64> = (0..samples).map(|_| rng.range_f64(0.0, t_end)).collect();
        times[0] = 0.0;
        times[samples - 1] = t_end;
        times.sort_by(|a, b| a.partial_cmp(b).unwrap());
        times.dedup();
        let value = |t: f64| {
            let u = (t - center) / width;
            quiet + amp * (-u * u).exp() + 0.01 * amp * (40.0 * u).sin()
        };
        if times.len() <= 400 {
            return times.iter().map(|&t| (t, value(t))).collect();
        }
        let w = Waveform::from_samples(times.clone(), times.iter().map(|&t| value(t)).collect());
        (0..400)
            .map(|k| {
                let t = t_end * k as f64 / 399.0;
                (t, w.value_at(t))
            })
            .collect()
    }

    /// The receiver testbench of `check_receiver_propagation`: supply, PWL
    /// input tied to every input pin, the cell, a fanout-of-one load.
    fn receiver_bench(cell: &Cell, fingers: usize, pwl: Vec<(f64, f64)>) -> Circuit {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let inp = ckt.node("in");
        let out = ckt.node("out");
        ckt.add_vsrc(vdd, Circuit::GROUND, SourceWave::Dc(VDD));
        ckt.add_vsrc(inp, Circuit::GROUND, SourceWave::Pwl(pwl));
        let inputs = vec![inp; cell.kind.num_inputs()];
        for _ in 0..fingers {
            cell.build(&mut ckt, &inputs, out, vdd);
        }
        ckt.add_capacitor(out, Circuit::GROUND, cell.input_cap().max(1e-15));
        ckt
    }

    /// Raw Jacobian pushes of one transient iteration of `ckt`, and its
    /// unknown count: more than 20 pushes a column on average means some
    /// column is past the length up to which the assembly sort keeps push
    /// order.
    fn transient_pushes(ckt: &Circuit) -> (usize, usize) {
        let sim = Simulator::new(ckt);
        let size = sim.layout.size();
        let caps = sim.collect_caps();
        let state = CapState { v_prev: vec![0.0; caps.len()], i_prev: vec![0.0; caps.len()] };
        let mut st = Stamper::new(size);
        let dynamic = Some((&caps[..], &state, 1e-12, Method::Trapezoidal));
        sim.stamp(&mut st, &vec![0.0; size], 0.0, 1e-12, dynamic, false);
        (st.system().0.len(), size)
    }

    #[test]
    fn receiver_benches_keep_their_recorded_digests() {
        let lib = CellLibrary::standard_025();
        let mut rng = Rng::new(0x19_5eed);
        let opts = SimOptions::default();
        // Every driver kind of the library, and a six-finger NAND2 stage.
        let benches = [
            ("INVX4", 1),
            ("BUFX2", 1),
            ("NAND2X2", 1),
            ("NOR2X1", 1),
            ("TBUFX8", 1),
            ("NAND2X1", 6),
        ];
        let (mut switched, mut digests) = (0, Vec::new());
        for (k, (name, fingers)) in benches.into_iter().enumerate() {
            let cell = lib.cell(name).unwrap();
            for rising in [true, false] {
                // Short and long recordings alternate over kinds and polarities;
                // the long ones go through the 400-point decimation.
                let samples = if (k + usize::from(rising)) % 2 == 0 { 900 } else { 23 };
                let quiet = if rising { 0.0 } else { VDD };
                let amp = rng.range_f64(0.3, 2.4) * if rising { 1.0 } else { -1.0 };
                let pwl = glitch_pwl(&mut rng, samples, quiet, amp);
                let tstop = pwl.last().unwrap().0;
                let ckt = receiver_bench(cell, fingers, pwl);
                if fingers > 1 {
                    let (pushes, size) = transient_pushes(&ckt);
                    assert!(pushes > 20 * size, "{pushes} pushes over {size} columns");
                }
                let what = format!("{name}x{fingers} rising={rising} samples={samples}");
                let (got, digest) = recorded_run(&ckt, &[], tstop, &opts, false);
                assert!(got.is_ok(), "{what}: {got:?}");
                digests.push(digest);
                let out = &got.unwrap().3[ckt.find_node("out").unwrap().index()];
                let swing = out.iter().map(|&b| (f64::from_bits(b) - f64::from_bits(out[0])).abs());
                switched += usize::from(swing.fold(0.0, f64::max) > 0.5 * VDD);
            }
        }
        assert!(switched >= 2, "some glitches must flip the receiver ({switched})");
        assert_eq!(digests, RECEIVER_DIGESTS, "{digests:#018x?}");
    }

    /// [`outcome_digest`] of the twelve receiver benches, in bench order,
    /// rising then falling.
    const RECEIVER_DIGESTS: [u64; 12] = [
        0x15a78ed1e789c37b,
        0x3704a7f70b93dc74,
        0x61914e6bbad92d3d,
        0xdc39c0db197e1094,
        0x55b74e7809d89e10,
        0x4e3f6bfcd8d54a1c,
        0x6a05b912dae1bbc0,
        0x492552fc65b94341,
        0xfb954c00d218d3dc,
        0x027d5bfdd8b7329c,
        0xd51f11ee6a9b67cc,
        0x6c5a2725c02b6b33,
    ];

    /// A driver with a saturating (tanh) pull toward a ramping target: a
    /// nonlinear termination with its own breakpoints and capacitance.
    #[derive(Debug)]
    struct TanhDriver {
        target: SourceWave,
        imax: f64,
        cout: f64,
        /// Injects NaN from this time on (never, when infinite).
        poisoned_from: f64,
    }

    impl Termination for TanhDriver {
        fn eval(&self, t: f64, v: f64) -> (f64, f64) {
            if t >= self.poisoned_from {
                return (f64::NAN, 1e-3);
            }
            let u = (v - self.target.value_at(t)) / 0.5;
            (self.imax * u.tanh(), self.imax / 0.5 / u.cosh().powi(2))
        }
        fn capacitance(&self) -> f64 {
            self.cout
        }
        fn breakpoints(&self, tstop: f64) -> Vec<f64> {
            self.target.breakpoints(tstop)
        }
    }

    /// The SPICE-fallback rung's shape: `wires` coupled RC lines, a
    /// nonlinear driver at each near end, a capacitive load at each far end.
    fn rc_cluster(rng: &mut Rng, wires: usize, segs: usize) -> (Circuit, Vec<NodeId>) {
        let mut ckt = Circuit::new();
        let mut near = Vec::new();
        let mut nodes: Vec<Vec<NodeId>> = Vec::new();
        for w in 0..wires {
            let line: Vec<NodeId> = (0..=segs).map(|k| ckt.node(&format!("w{w}_{k}"))).collect();
            for pair in line.windows(2) {
                ckt.add_resistor(pair[0], pair[1], rng.range_f64(20.0, 80.0));
            }
            for &node in &line {
                ckt.add_capacitor(node, Circuit::GROUND, rng.range_f64(1e-15, 4e-15));
            }
            near.push(line[0]);
            nodes.push(line);
        }
        for pair in nodes.windows(2) {
            for (&a, &b) in pair[0].iter().zip(&pair[1]) {
                ckt.add_capacitor(a, b, rng.range_f64(2e-15, 6e-15));
            }
        }
        (ckt, near)
    }

    fn tanh_drivers(rng: &mut Rng, count: usize, poisoned_from: f64) -> Vec<TanhDriver> {
        (0..count)
            .map(|w| TanhDriver {
                target: if w % 2 == 1 {
                    SourceWave::step(0.0, VDD, rng.range_f64(0.2e-9, 0.6e-9), 0.1e-9)
                } else {
                    SourceWave::Dc(0.0)
                },
                imax: rng.range_f64(1e-3, 4e-3),
                cout: 5e-15,
                poisoned_from: if w == 1 { poisoned_from } else { f64::INFINITY },
            })
            .collect()
    }

    #[test]
    fn rc_clusters_with_nonlinear_terminations_keep_their_recorded_digests() {
        let mut rng = Rng::new(0xfa11_bac4);
        let opts = SimOptions::default();
        let mut digests = Vec::new();
        for (wires, segs, natural) in [(3, 8, false), (5, 12, false), (4, 6, true)] {
            let (ckt, near) = rc_cluster(&mut rng, wires, segs);
            let drivers = tanh_drivers(&mut rng, wires, f64::INFINITY);
            let terms: Vec<(NodeId, &dyn Termination)> =
                near.iter().zip(&drivers).map(|(&n, d)| (n, d as &dyn Termination)).collect();
            let what = format!("{wires}x{segs} natural={natural}");
            let (got, digest) = recorded_run(&ckt, &terms, 2e-9, &opts, natural);
            let steps = got.expect(&what).0;
            assert!(steps > 500, "{what}: {steps} steps");
            digests.push(digest);
        }
        assert_eq!(digests, CLUSTER_DIGESTS, "{digests:#018x?}");
    }

    /// [`outcome_digest`] of the three RC clusters.
    const CLUSTER_DIGESTS: [u64; 3] = [0x8e5e45a048af4c44, 0x08de55dde9d6780c, 0x55b3a14638f000bf];

    #[test]
    fn failures_keep_their_recorded_variant_and_time() {
        let mut rng = Rng::new(0xdead_10cc);
        let lib = CellLibrary::standard_025();
        let defaults = SimOptions::default();

        // A singular deck: two sources fight over one node, at any gmin.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_vsrc(a, Circuit::GROUND, SourceWave::Dc(1.0));
        ckt.add_vsrc(a, Circuit::GROUND, SourceWave::Dc(2.0));
        ckt.add_resistor(a, b, 100.0);
        ckt.add_capacitor(b, Circuit::GROUND, 1e-15);
        let mut digests = Vec::new();
        let mut run = |ckt: &Circuit, terms: &[(NodeId, &dyn Termination)], tstop, opts| {
            let (got, digest) = recorded_run(ckt, terms, tstop, opts, false);
            digests.push(digest);
            got
        };
        let err = run(&ckt, &[], 1e-9, &defaults).unwrap_err();
        assert!(err.starts_with("Solver(Singular"), "{err}");

        // A Newton budget too small for the steps the controller asks for:
        // the DC point is reached through gmin stepping, the run completes
        // through rejected steps and `h /= 4` retries.
        let tight = SimOptions { max_newton: 9, max_step_fraction: 0.1, ..SimOptions::default() };
        let pwl = vec![
            (0.0, 0.0),
            (1e-9, 0.0),
            (1.02e-9, 3.6),
            (1.5e-9, 3.6),
            (1.52e-9, 0.0),
            (3e-9, 0.0),
        ];
        let tstop = 3e-9;
        let ckt = receiver_bench(lib.cell("NAND2X4").unwrap(), 1, pwl);
        let sim = Simulator::new(&ckt);
        let mut ws = Workspace::new(sim.layout.size());
        let x0 = vec![0.0; sim.layout.size()];
        assert!(sim.solve_point(&mut ws, &x0, 0.0, GMIN, None, true, &tight).is_err());
        let mut result =
            TranResult { times: vec![], probes: vec![], data: vec![], steps: 0, newton_iters: 0 };
        sim.transient_on(&mut ws, &mut result, tstop, &tight).unwrap();
        assert!(ws.rejected_steps > 0, "the tight budget must reject steps");
        assert_eq!(ws.plan_builds, 2, "one DC plan, one transient plan, rejections or not");
        run(&ckt, &[], tstop, &tight).unwrap();

        // The same deck with a floor under the step: the retries run out.
        let floored = SimOptions { min_step: tstop / 100.0, ..tight.clone() };
        let err = run(&ckt, &[], tstop, &floored).unwrap_err();
        assert!(err.starts_with("StepTooSmall"), "{err}");

        // A DC point no budget reaches.
        let hopeless = SimOptions { max_newton: 1, ..SimOptions::default() };
        let err = run(&ckt, &[], tstop, &hopeless).unwrap_err();
        assert!(err.starts_with("NoConvergence { t: 0.0 }"), "{err}");

        // A termination that turns to NaN mid-run: NonFinite at that step.
        let (ckt, near) = rc_cluster(&mut rng, 3, 5);
        let drivers = tanh_drivers(&mut rng, 3, 0.8e-9);
        let terms: Vec<(NodeId, &dyn Termination)> =
            near.iter().zip(&drivers).map(|(&n, d)| (n, d as &dyn Termination)).collect();
        let err = run(&ckt, &terms, 2e-9, &defaults).unwrap_err();
        assert!(err.starts_with("NonFinite"), "{err}");
        // ... and from the start: NonFinite at the DC point.
        let drivers = tanh_drivers(&mut rng, 3, 0.0);
        let terms: Vec<(NodeId, &dyn Termination)> =
            near.iter().zip(&drivers).map(|(&n, d)| (n, d as &dyn Termination)).collect();
        let err = run(&ckt, &terms, 2e-9, &defaults).unwrap_err();
        assert_eq!(err, "NonFinite { t: 0.0 }");
        assert_eq!(digests, FAILURE_DIGESTS, "{digests:#018x?}");
    }

    /// [`outcome_digest`] of the six decks above, in order: singular,
    /// rejections, floor, dc, nan, nan dc. The rejections deck's input is
    /// quiet to 1 ns, where its walk holds: its digest was re-recorded when
    /// walks began to hold (the floor deck fails at the same point).
    const FAILURE_DIGESTS: [u64; 6] = [
        0xc1e730938a2ee659,
        0x93e4084aa5cf1827,
        0x4a390a7e0ccf78d6,
        0x620fff98f3b9ed05,
        0xc3fafcbb9b230b97,
        0xc69acbea76cc2eed,
    ];

    #[test]
    fn dc_voltage_divider() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_vsrc(a, Circuit::GROUND, SourceWave::Dc(3.0));
        ckt.add_resistor(a, b, 1000.0);
        ckt.add_resistor(b, Circuit::GROUND, 2000.0);
        let x = Simulator::new(&ckt).dc(&SimOptions::default()).unwrap();
        assert!((node_voltage(&x, b) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn dc_inverter_transfer() {
        // A CMOS inverter: input low → output at VDD; input high → output 0.
        for (vin, expect) in [(0.0, VDD), (VDD, 0.0)] {
            let mut ckt = Circuit::new();
            let vdd = ckt.node("vdd");
            let inp = ckt.node("in");
            let out = ckt.node("out");
            ckt.add_vsrc(vdd, Circuit::GROUND, SourceWave::Dc(VDD));
            ckt.add_vsrc(inp, Circuit::GROUND, SourceWave::Dc(vin));
            ckt.add_mosfet(out, inp, Circuit::GROUND, MosParams::nmos_025(1e-6));
            ckt.add_mosfet(out, inp, vdd, MosParams::pmos_025(2.5e-6));
            let x = Simulator::new(&ckt).dc(&SimOptions::default()).unwrap();
            assert!(
                (node_voltage(&x, out) - expect).abs() < 0.01,
                "vin={vin}: vout={} expect={expect}",
                node_voltage(&x, out)
            );
        }
    }

    #[test]
    fn rc_step_response_matches_analytic() {
        let mut ckt = Circuit::new();
        let inp = ckt.node("in");
        let out = ckt.node("out");
        ckt.add_vsrc(inp, Circuit::GROUND, SourceWave::step(0.0, 1.0, 1e-9, 1e-13));
        ckt.add_resistor(inp, out, 1000.0);
        ckt.add_capacitor(out, Circuit::GROUND, 1e-12);
        let res = Simulator::new(&ckt).transient(11e-9, &SimOptions::default()).unwrap();
        let w = res.waveform(out);
        // v(t) = 1 - exp(-(t - 1n)/1n)
        for &tt in &[2e-9, 3e-9, 5e-9, 9e-9] {
            let analytic = 1.0 - (-(tt - 1e-9) / 1e-9_f64).exp();
            assert!(
                (w.value_at(tt) - analytic).abs() < 5e-3,
                "t={tt}: {} vs {}",
                w.value_at(tt),
                analytic
            );
        }
    }

    #[test]
    fn coupled_rc_charge_sharing() {
        // Two grounded-cap nodes joined by a coupling cap: a step on the
        // aggressor injects a glitch on the floating victim.
        let mut ckt = Circuit::new();
        let agg_in = ckt.node("agg_in");
        let agg = ckt.node("agg");
        let vic = ckt.node("vic");
        ckt.add_vsrc(agg_in, Circuit::GROUND, SourceWave::step(0.0, VDD, 1e-9, 0.1e-9));
        ckt.add_resistor(agg_in, agg, 200.0);
        ckt.add_capacitor(agg, Circuit::GROUND, 20e-15);
        ckt.add_capacitor(agg, vic, 30e-15); // coupling
        ckt.add_capacitor(vic, Circuit::GROUND, 30e-15);
        ckt.add_resistor(vic, Circuit::GROUND, 1000.0); // weak holder
        let res = Simulator::new(&ckt).transient(5e-9, &SimOptions::default()).unwrap();
        let w = res.waveform(vic);
        let (_, peak) = w.peak_deviation(0.0);
        assert!(peak > 0.1, "coupled glitch should be visible, got {peak}");
        assert!(peak < VDD * 0.6, "glitch bounded by divider, got {peak}");
        // Glitch decays back through the holding resistor.
        assert!(w.value_at(5e-9).abs() < 0.05);
    }

    #[test]
    fn inverter_transient_switches() {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let inp = ckt.node("in");
        let out = ckt.node("out");
        ckt.add_vsrc(vdd, Circuit::GROUND, SourceWave::Dc(VDD));
        ckt.add_vsrc(inp, Circuit::GROUND, SourceWave::step(0.0, VDD, 0.5e-9, 0.1e-9));
        ckt.add_mosfet(out, inp, Circuit::GROUND, MosParams::nmos_025(2e-6));
        ckt.add_mosfet(out, inp, vdd, MosParams::pmos_025(5e-6));
        ckt.add_capacitor(out, Circuit::GROUND, 20e-15);
        let res = Simulator::new(&ckt).transient(4e-9, &SimOptions::default()).unwrap();
        let w = res.waveform(out);
        assert!((w.value_at(0.2e-9) - VDD).abs() < 0.02, "output starts high");
        assert!(w.value_at(4e-9).abs() < 0.02, "output ends low");
        let d = w.crossing(0.5 * VDD, false, 0.0).unwrap();
        assert!(d > 0.5e-9 && d < 2e-9, "plausible delay, got {d}");
    }

    #[test]
    fn termination_thevenin_drives_node() {
        // A node driven only by a Thevenin termination behaves like a
        // source behind a resistor.
        let mut ckt = Circuit::new();
        let n = ckt.node("n");
        ckt.add_capacitor(n, Circuit::GROUND, 1e-12);
        let term = TheveninTermination::new(1000.0, SourceWave::step(0.0, 1.0, 0.0, 1e-13));
        let mut sim = Simulator::new(&ckt);
        sim.add_termination(n, &term);
        let res = sim.transient(8e-9, &SimOptions::default()).unwrap();
        let w = res.waveform(n);
        assert!((w.value_at(8e-9) - 1.0).abs() < 0.01);
        // tau = 1 ns ⇒ at 1 ns: 63%.
        assert!((w.value_at(1e-9) - 0.632).abs() < 0.02);
    }

    #[test]
    fn resistive_termination_loads_divider() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_vsrc(a, Circuit::GROUND, SourceWave::Dc(2.0));
        ckt.add_resistor(a, b, 1000.0);
        let term = ResistiveTermination::new(1000.0);
        let mut sim = Simulator::new(&ckt);
        sim.add_termination(b, &term);
        let x = sim.dc(&SimOptions::default()).unwrap();
        assert!((node_voltage(&x, b) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn probed_transient_limits_recording() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_vsrc(a, Circuit::GROUND, SourceWave::Dc(1.0));
        ckt.add_resistor(a, b, 100.0);
        ckt.add_capacitor(b, Circuit::GROUND, 1e-15);
        let res =
            Simulator::new(&ckt).transient_probed(1e-9, &SimOptions::default(), &[b]).unwrap();
        assert!(res.try_waveform(b).is_ok());
        assert!(matches!(res.try_waveform(a), Err(SimError::UnknownProbe { .. })));
    }

    #[test]
    fn floating_node_survives_via_gmin() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("float");
        ckt.add_vsrc(a, Circuit::GROUND, SourceWave::Dc(1.0));
        ckt.add_capacitor(a, b, 1e-15); // b floats except through gmin
        let x = Simulator::new(&ckt).dc(&SimOptions::default()).unwrap();
        assert!(node_voltage(&x, b).abs() < 1.0 + 1e-6);
    }

    #[test]
    fn breakpoints_are_not_stepped_over() {
        // A very narrow pulse must still be seen by the integrator — also
        // when the span is so long that its ideal (1 fs) edges are closer
        // together than the resolution of the time axis.
        for (delay, edge, width, tstop) in
            [(5e-9, 1e-12, 20e-12, 10e-9), (0.1e-3, 0.0, 2e-9, 0.4e-3), (0.1e-3, 0.0, 2e-9, 2e-3)]
        {
            let mut ckt = Circuit::new();
            let a = ckt.node("a");
            ckt.add_vsrc(
                a,
                Circuit::GROUND,
                SourceWave::Pulse {
                    v0: 0.0,
                    v1: 1.0,
                    delay,
                    rise: edge,
                    fall: edge,
                    width,
                    period: f64::INFINITY,
                },
            );
            ckt.add_resistor(a, Circuit::GROUND, 1000.0);
            let res = Simulator::new(&ckt).transient(tstop, &SimOptions::default()).unwrap();
            let w = res.waveform(a);
            let (_, peak) = w.peak_deviation(0.0);
            assert!((peak - 1.0).abs() < 1e-3, "tstop {tstop}: pulse peak captured, got {peak}");
        }
    }

    #[test]
    fn every_edge_of_a_long_clock_is_a_sample_time() {
        // Ten periods over the span: every corner of every period is landed
        // on, not only those of the first four.
        let (period, tstop) = (1.2e-9, 12e-9);
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let clock = SourceWave::Pulse {
            v0: 0.0,
            v1: 2.5,
            delay: 0.05e-9,
            rise: 0.1e-9,
            fall: 0.1e-9,
            width: 0.45e-9,
            period,
        };
        ckt.add_vsrc(a, Circuit::GROUND, clock);
        ckt.add_resistor(a, Circuit::GROUND, 1000.0);
        let res = Simulator::new(&ckt).transient(tstop, &SimOptions::default()).unwrap();
        let tiny = tstop * 1e-12;
        for k in 0..10 {
            for corner in [0.0, 0.1e-9, 0.55e-9, 0.65e-9] {
                let edge = 0.05e-9 + corner + k as f64 * period;
                let nearest =
                    res.times().iter().map(|&t| (t - edge).abs()).fold(f64::MAX, f64::min);
                assert!(nearest <= tiny, "period {k}: edge {edge:e} missed by {nearest:e}");
            }
        }
    }

    #[test]
    fn a_bad_span_is_a_typed_error() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add_resistor(a, Circuit::GROUND, 1000.0);
        let sim = Simulator::new(&ckt);
        for tstop in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = sim.transient(tstop, &SimOptions::default()).unwrap_err();
            assert!(matches!(err, SimError::InvalidValue { what: "tstop" }), "{tstop}: {err}");
        }
        let opts = SimOptions { max_step_fraction: 0.0, ..SimOptions::default() };
        let err = sim.transient(1e-9, &opts).unwrap_err();
        assert!(matches!(err, SimError::InvalidValue { what: "max_step_fraction" }), "{err}");
    }

    #[test]
    fn errors_display() {
        let e = SimError::NoConvergence { t: 1e-9 };
        assert!(e.to_string().contains("converge"));
        let e = SimError::StepTooSmall { t: 0.0 };
        assert!(e.to_string().contains("underflow"));
        let e = SimError::NonFinite { t: 2e-9 };
        assert!(e.to_string().contains("non-finite"));
        assert!(e.to_string().contains("2e-9"));
    }
}
