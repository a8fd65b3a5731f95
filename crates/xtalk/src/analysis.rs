//! Glitch and coupled-delay analysis of pruned clusters, through either the
//! SyMPVL reduced engine (the paper's fast path) or the SPICE substrate
//! (its validation reference).
//!
//! Both engines consume exactly the same [`ClusterModel`] and driver
//! abstractions, so accuracy comparisons (Figures 3–7 of the paper) measure
//! modeling error, not setup differences.

use crate::build::{build_cluster, ClusterModel};
use crate::drivers::{make_termination, DriverModelKind, SwitchRole};
use crate::error::XtalkError;
use crate::prune::Cluster;
use pcv_cells::charlib::{CharCell, CharLibrary};
use pcv_cells::library::{Cell, CellKind, CellLibrary};
use pcv_mor::{simulate_memo, sympvl, DiagonalModel, ModalMemo, MorOptions, RcCluster};
use pcv_netlist::termination::Termination;
use pcv_netlist::{Circuit, Design, PNetId, ParasiticDb, SourceWave, Waveform};
use pcv_spice::{SimOptions, Simulator};
use std::time::{Duration, Instant};

/// Which engine analyzes the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// SyMPVL reduction + diagonalized nonlinear integration (fast path).
    Mor {
        /// Block Lanczos iterations (Padé order); 3–6 is typical.
        block_iters: usize,
    },
    /// Full MNA transient on the unreduced cluster (reference path).
    Spice,
}

/// Default aggressor/victim transition start (seconds): where every
/// aggressor switches when no switching window moves it.
pub const SWITCH_TIME: f64 = 1e-9;

/// Analysis knobs shared by glitch and delay runs.
#[derive(Debug, Clone)]
pub struct AnalysisOptions {
    /// Engine selection.
    pub engine: EngineKind,
    /// Simulated span (seconds).
    pub tstop: f64,
    /// Input slew handed to the driver models (seconds, 10–90 %).
    pub input_slew: f64,
    /// Supply voltage (volts).
    pub vdd: f64,
    /// Multiplier applied to the cluster's `gmin` regularization before
    /// reduction (1.0 = leave as extracted). The recovery ladder boosts
    /// this when Cholesky reports a non-SPD conductance matrix.
    pub gmin_scale: f64,
    /// Reduced-transient integration knobs (step limits, Newton budgets,
    /// cancellation), forwarded to [`pcv_mor::simulate`].
    pub mor: MorOptions,
}

impl Default for AnalysisOptions {
    fn default() -> Self {
        AnalysisOptions {
            engine: EngineKind::Mor { block_iters: 4 },
            tstop: 10e-9,
            input_slew: 0.2e-9,
            vdd: 2.5,
            gmin_scale: 1.0,
            mor: MorOptions::default(),
        }
    }
}

/// Everything an analysis needs to resolve nets to drivers and loads.
#[derive(Debug, Clone, Copy)]
pub struct AnalysisContext<'a> {
    /// Extracted parasitics.
    pub db: &'a ParasiticDb,
    /// Gate-level design (drivers, loads, windows, correlations), when
    /// available.
    pub design: Option<&'a Design>,
    /// Cell library (pin caps, netlists), when available.
    pub lib: Option<&'a CellLibrary>,
    /// Characterized library (driver models), when available.
    pub charlib: Option<&'a CharLibrary>,
    /// Driver abstraction to use.
    pub driver_model: DriverModelKind,
}

impl<'a> AnalysisContext<'a> {
    /// A design-less context with uniform fixed-resistance drivers — the
    /// Figure 3 configuration.
    pub fn fixed_resistance(db: &'a ParasiticDb, ohms: f64) -> Self {
        AnalysisContext {
            db,
            design: None,
            lib: None,
            charlib: None,
            driver_model: DriverModelKind::FixedResistance(ohms),
        }
    }

    /// A full context with design and library information.
    pub fn with_design(
        db: &'a ParasiticDb,
        design: &'a Design,
        lib: &'a CellLibrary,
        charlib: &'a CharLibrary,
        driver_model: DriverModelKind,
    ) -> Self {
        AnalysisContext {
            db,
            design: Some(design),
            lib: Some(lib),
            charlib: Some(charlib),
            driver_model,
        }
    }

    /// Total receiver pin capacitance on a net (0 without design data).
    pub fn load_cap(&self, net: PNetId) -> f64 {
        let (Some(design), Some(lib)) = (self.design, self.lib) else {
            return 0.0;
        };
        let Some(dnet) = design.find_net(self.db.net(net).name()) else {
            return 0.0;
        };
        design
            .loads_of(dnet)
            .iter()
            .filter_map(|&(inst, _)| lib.cell(&design.instance(inst).cell))
            .map(|c| c.input_cap())
            .sum()
    }

    /// The driver cell of a net. For tri-state buses this applies the
    /// paper's conservative rule: *the strongest of all bus drivers is
    /// assumed switching*.
    ///
    /// # Errors
    ///
    /// [`XtalkError::NoDriver`] when the design declares no driver, or
    /// [`XtalkError::InvalidConfig`] without design data.
    pub fn driver_cell(&self, net: PNetId) -> Result<&'a Cell, XtalkError> {
        let (Some(design), Some(lib)) = (self.design, self.lib) else {
            return Err(XtalkError::InvalidConfig {
                what: "cell-based driver models need design and library data",
            });
        };
        let name = self.db.net(net).name();
        let dnet =
            design.find_net(name).ok_or_else(|| XtalkError::NoDriver { net: name.to_owned() })?;
        let mut best: Option<&Cell> = None;
        for &inst in design.drivers_of(dnet) {
            if let Some(cell) = lib.cell(&design.instance(inst).cell) {
                let better = best.is_none_or(|b| cell.strength > b.strength);
                if better {
                    best = Some(cell);
                }
            }
        }
        best.ok_or_else(|| XtalkError::NoDriver { net: name.to_owned() })
    }

    /// The gate-level views a receiver check reads.
    ///
    /// # Errors
    ///
    /// [`XtalkError::InvalidConfig`] without design or library data.
    pub fn receiver_views(&self) -> Result<(&'a Design, &'a CellLibrary), XtalkError> {
        self.design.zip(self.lib).ok_or(XtalkError::InvalidConfig {
            what: "receiver checks need design and library data",
        })
    }

    /// The cell a glitch on the net named `name` is replayed into: its
    /// first non-latch load, else `INVX1` — a latch data pin is
    /// electrically a small inverter behind a transmission gate.
    ///
    /// # Errors
    ///
    /// [`XtalkError::InvalidConfig`] without design data or a fallback
    /// cell, [`XtalkError::NoDriver`] for a net the design does not know.
    pub fn receiver_cell(&self, name: &str) -> Result<&'a Cell, XtalkError> {
        let (design, lib) = self.receiver_views()?;
        let dnet =
            design.find_net(name).ok_or_else(|| XtalkError::NoDriver { net: name.to_owned() })?;
        design
            .loads_of(dnet)
            .iter()
            .filter_map(|&(inst, _)| lib.cell(&design.instance(inst).cell))
            .find(|c| c.kind != CellKind::Latch)
            .or_else(|| lib.cell("INVX1"))
            .ok_or(XtalkError::InvalidConfig { what: "no receiver cell available" })
    }

    /// Characterized data for a net's driver cell.
    ///
    /// # Errors
    ///
    /// Propagates missing drivers or missing characterization.
    pub fn char_cell(&self, net: PNetId) -> Result<&'a CharCell, XtalkError> {
        let cell = self.driver_cell(net)?;
        let ch = self
            .charlib
            .ok_or(XtalkError::InvalidConfig { what: "characterized library missing" })?;
        Ok(ch.require(&cell.name)?)
    }
}

/// One aggressor's planned activity for a glitch run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AggressorPlan {
    /// The aggressor net.
    pub net: PNetId,
    /// Whether it switches (quiet aggressors just hold).
    pub switching: bool,
    /// Transition start time (seconds).
    pub t0: f64,
}

/// Plan aggressor activity using switching windows and logic correlation —
/// the pessimism-reduction step of Section 2.
///
/// Without design annotations, every aggressor switches at
/// [`SWITCH_TIME`] (the fully conservative audit). With windows, the
/// alignment time that maximizes the *summed coupling of simultaneously
/// eligible aggressors* is chosen; aggressors whose windows exclude it stay
/// quiet. Complementary (e.g. flip-flop Q/QB) aggressor pairs never switch
/// in the same direction together — the weaker-coupled one is silenced.
///
/// No option is read; the parameter stays because `benchmark/` passes it.
pub fn plan_aggressors(
    ctx: &AnalysisContext<'_>,
    cluster: &Cluster,
    _opts: &AnalysisOptions,
) -> Vec<AggressorPlan> {
    let mut plans: Vec<AggressorPlan> = cluster
        .aggressors
        .iter()
        .map(|&(net, _)| AggressorPlan { net, switching: true, t0: SWITCH_TIME })
        .collect();

    if let Some(design) = ctx.design {
        // Gather windows; nets without a window are always eligible.
        let window_of = |net: PNetId| -> Option<(f64, f64)> {
            design.find_net(ctx.db.net(net).name()).and_then(|d| design.window(d))
        };
        // Candidate alignment instants: window endpoints.
        let mut candidates: Vec<f64> = vec![SWITCH_TIME];
        for &(net, _) in &cluster.aggressors {
            if let Some((a, b)) = window_of(net) {
                candidates.push(a);
                candidates.push(b);
            }
        }
        let contains = |w: Option<(f64, f64)>, t: f64| match w {
            None => true,
            Some((a, b)) => t >= a - 1e-18 && t <= b + 1e-18,
        };
        let score = |t: f64| -> f64 {
            cluster
                .aggressors
                .iter()
                .filter(|&&(net, _)| contains(window_of(net), t))
                .map(|&(_, cc)| cc)
                .sum()
        };
        let t_star = candidates
            .iter()
            .copied()
            .max_by(|a, b| score(*a).partial_cmp(&score(*b)).expect("finite scores"))
            .unwrap_or(SWITCH_TIME);
        for (plan, &(net, _)) in plans.iter_mut().zip(&cluster.aggressors) {
            if contains(window_of(net), t_star) {
                plan.t0 = t_star;
            } else {
                plan.switching = false;
            }
        }
        // Logic correlation: complementary pairs cannot switch the same
        // direction simultaneously — keep the stronger-coupled one.
        for i in 0..cluster.aggressors.len() {
            for j in (i + 1)..cluster.aggressors.len() {
                let (ni, ci) = cluster.aggressors[i];
                let (nj, cj) = cluster.aggressors[j];
                let di = design.find_net(ctx.db.net(ni).name());
                let dj = design.find_net(ctx.db.net(nj).name());
                if let (Some(di), Some(dj)) = (di, dj) {
                    if design.complement_of(di) == Some(dj)
                        && plans[i].switching
                        && plans[j].switching
                    {
                        if ci >= cj {
                            plans[j].switching = false;
                        } else {
                            plans[i].switching = false;
                        }
                    }
                }
            }
        }
    }
    plans
}

/// Result of a glitch analysis.
#[derive(Debug, Clone)]
pub struct GlitchResult {
    /// Signed peak deviation from the victim's quiet level (volts;
    /// positive for a rising glitch).
    pub peak: f64,
    /// When the peak occurs (seconds).
    pub t_peak: f64,
    /// Victim receiver waveform.
    pub waveform: Waveform,
    /// Newton iterations spent (CPU-cost proxy).
    pub newton_iters: usize,
    /// Reduced-model order (None for the SPICE engine).
    pub reduced_order: Option<usize>,
    /// Wall-clock analysis time.
    pub elapsed: Duration,
}

/// Result of a delay analysis.
#[derive(Debug, Clone)]
pub struct DelayResult {
    /// Interconnect delay: victim receiver 50 % crossing minus driver-pin
    /// 50 % crossing (seconds).
    pub delay: f64,
    /// Absolute receiver crossing time.
    pub far_crossing: f64,
    /// Absolute driver-pin crossing time.
    pub driver_crossing: f64,
    /// Victim receiver waveform.
    pub waveform: Waveform,
    /// Wall-clock analysis time.
    pub elapsed: Duration,
}

/// Delay-analysis coupling treatment (the Table 2 comparison).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DelayMode {
    /// Coupling kept; aggressors switch simultaneously with the victim —
    /// opposite direction for the worst case, same direction for the
    /// optimistic bound.
    Coupled {
        /// `true` → aggressors oppose the victim (worst case).
        aggressors_opposite: bool,
    },
    /// Coupling capacitance grounded (the naive decoupled estimate).
    Decoupled,
}

/// A pruned cluster made ready for analysis once: the assembled RC model,
/// the aggressor plan and — for [`EngineKind::Mor`] — the diagonalized
/// SyMPVL model.
///
/// None of the three depends on what the drivers do, so one value answers
/// either glitch polarity and either coupled delay mode; a polarity then
/// costs its terminations, the transient and the measurement. The reduced
/// model is kept together with the two options it was reduced under
/// (`block_iters`, `gmin_scale`) and replaced when a call arrives with
/// different ones, which is how a recovery-ladder rung re-reduces without
/// rebuilding the RC model. Apart from those two, the context and options of
/// later calls must be the ones the cluster was assembled under (the ladder
/// changes only the engine, the driver model and numerical limits).
#[derive(Debug, Clone)]
pub struct PreparedCluster {
    model: ClusterModel,
    plans: Vec<AggressorPlan>,
    rom: Option<Rom>,
}

/// A diagonalized reduced model, the options it was reduced under and the
/// modal decomposition its linear runs share: both polarities present the
/// same drivers' `(port, g, c)`, so the second rebuilds only its sources.
#[derive(Debug, Clone)]
struct Rom {
    block_iters: usize,
    gmin_scale: f64,
    diag: DiagonalModel,
    modal: ModalMemo,
}

impl PreparedCluster {
    /// Assemble the coupled RC model and plan the aggressors. The reduction
    /// happens in the first analysis call, which is where its errors surface.
    pub fn new(ctx: &AnalysisContext<'_>, cluster: &Cluster, opts: &AnalysisOptions) -> Self {
        PreparedCluster {
            model: build_cluster(ctx.db, cluster, &|n| ctx.load_cap(n), false),
            plans: plan_aggressors(ctx, cluster, opts),
            rom: None,
        }
    }

    /// Make sure the reduced model for `opts` exists: reduce and diagonalize
    /// unless the one held was reduced under the same `block_iters` and
    /// `gmin_scale`. A no-op for [`EngineKind::Spice`]. Every analysis call
    /// starts with this.
    ///
    /// Fails with [`XtalkError::InvalidConfig`] for transistor-level drivers
    /// under the reduced engine, otherwise with what the reduction reports
    /// (non-SPD conductance, cancellation, non-finite projection).
    fn prepare(
        &mut self,
        ctx: &AnalysisContext<'_>,
        opts: &AnalysisOptions,
    ) -> Result<(), XtalkError> {
        let EngineKind::Mor { block_iters } = opts.engine else {
            return Ok(());
        };
        if ctx.driver_model == DriverModelKind::TransistorLevel {
            return Err(XtalkError::InvalidConfig {
                what: "transistor-level drivers require the SPICE engine",
            });
        }
        let gmin_scale = opts.gmin_scale;
        if self.rom.as_ref().is_some_and(|r| {
            r.block_iters == block_iters && r.gmin_scale.to_bits() == gmin_scale.to_bits()
        }) {
            return Ok(());
        }
        let _span = pcv_trace::span("xtalk", "prepare");
        let cancel = opts.mor.cancel.as_ref();
        let reduced = if gmin_scale == 1.0 {
            sympvl::reduce_with(&self.model.rc, block_iters, cancel)?
        } else {
            let mut rc = self.model.rc.clone();
            rc.set_gmin(rc.gmin() * gmin_scale)?;
            sympvl::reduce_with(&rc, block_iters, cancel)?
        };
        let diag = reduced.diagonalize()?;
        self.rom = Some(Rom { block_iters, gmin_scale, diag, modal: ModalMemo::default() });
        Ok(())
    }

    /// The worst-case glitch of one polarity on the quiet victim: `rising`
    /// holds the victim low while the planned aggressors rise; otherwise the
    /// falling dual.
    ///
    /// # Errors
    ///
    /// Propagates engine and model-construction failures.
    pub fn glitch(
        &mut self,
        ctx: &AnalysisContext<'_>,
        rising: bool,
        opts: &AnalysisOptions,
    ) -> Result<GlitchResult, XtalkError> {
        let started = Instant::now();
        self.prepare(ctx, opts)?;
        let _span = if rising {
            pcv_trace::span("xtalk", "glitch_rise")
        } else {
            pcv_trace::span("xtalk", "glitch_fall")
        };
        // Quiet aggressors rest at the victim's level so only switching
        // activity produces coupling current.
        let hold = if rising { SwitchRole::HoldLow } else { SwitchRole::HoldHigh };
        let mut roles = Vec::with_capacity(self.model.members.len());
        roles.push(hold);
        roles.extend(self.plans.iter().map(|plan| {
            if plan.switching {
                edge(rising, plan.t0)
            } else {
                hold
            }
        }));
        let run = self.run(ctx, &roles, false, opts)?;
        let baseline = if rising { 0.0 } else { opts.vdd };
        let (t_peak, peak) = run.observe.peak_deviation(baseline);
        if !peak.is_finite() || !t_peak.is_finite() {
            return Err(XtalkError::Measurement { what: "finite glitch peak" });
        }
        Ok(GlitchResult {
            peak,
            t_peak,
            waveform: run.observe,
            newton_iters: run.newton_iters,
            reduced_order: run.reduced_order,
            elapsed: started.elapsed(),
        })
    }

    /// The victim's interconnect delay with coupling kept and every aggressor
    /// switching with it — against it when `aggressors_opposite` (the worst
    /// case), along with it otherwise (the optimistic bound).
    ///
    /// # Errors
    ///
    /// Propagates engine failures; [`XtalkError::Measurement`] if the victim
    /// never crosses 50 %.
    pub fn delay(
        &mut self,
        ctx: &AnalysisContext<'_>,
        victim_rising: bool,
        aggressors_opposite: bool,
        opts: &AnalysisOptions,
    ) -> Result<DelayResult, XtalkError> {
        let aggressor = edge(victim_rising ^ aggressors_opposite, SWITCH_TIME);
        self.delay_with(ctx, victim_rising, aggressor, opts)
    }

    /// Delay of the victim's own edge while every aggressor plays `aggressor`.
    fn delay_with(
        &mut self,
        ctx: &AnalysisContext<'_>,
        victim_rising: bool,
        aggressor: SwitchRole,
        opts: &AnalysisOptions,
    ) -> Result<DelayResult, XtalkError> {
        let started = Instant::now();
        self.prepare(ctx, opts)?;
        let _span = pcv_trace::span("xtalk", "delay");
        let mut roles = vec![aggressor; self.model.members.len()];
        roles[0] = edge(victim_rising, SWITCH_TIME);
        let run = self.run(ctx, &roles, true, opts)?;
        let half = 0.5 * opts.vdd;
        let far = run
            .observe
            .crossing(half, victim_rising, 0.0)
            .ok_or(XtalkError::Measurement { what: "victim receiver 50% crossing" })?;
        let near = (run.victim_driver.as_ref())
            .and_then(|w| w.crossing(half, victim_rising, 0.0))
            .ok_or(XtalkError::Measurement { what: "victim driver 50% crossing" })?;
        Ok(DelayResult {
            delay: far - near,
            far_crossing: far,
            driver_crossing: near,
            waveform: run.observe,
            elapsed: started.elapsed(),
        })
    }

    /// Run the prepared cluster with per-member roles on the selected engine;
    /// the victim driver's waveform too when `driver`.
    fn run(
        &mut self,
        ctx: &AnalysisContext<'_>,
        roles: &[SwitchRole],
        driver: bool,
        opts: &AnalysisOptions,
    ) -> Result<EngineRun, XtalkError> {
        let model = &self.model;
        if opts.engine == EngineKind::Spice {
            return run_spice(ctx, model, roles, driver, opts);
        }
        let rom = self.rom.as_mut().expect("prepare() ran for the reduced engine");
        let boxes = driver_terminations(ctx, model, roles, opts)?;
        let mut terms: Vec<Option<&dyn Termination>> = vec![None; model.rc.num_ports()];
        for (k, b) in boxes.iter().enumerate() {
            terms[model.driver_ports[k]] = Some(b.as_ref());
        }
        let res = simulate_memo(&rom.diag, &terms, opts.tstop, &opts.mor, &mut rom.modal)?;
        Ok(EngineRun {
            victim_driver: driver.then(|| res.waveform(model.victim_port())),
            newton_iters: res.newton_iters,
            reduced_order: Some(rom.diag.order()),
            observe: res.into_waveform(model.observe_port),
        })
    }
}

/// Analyze the worst-case glitch on a quiet victim: prepare the cluster,
/// then take one polarity ([`PreparedCluster::glitch`]). Callers that want
/// both polarities keep the [`PreparedCluster`] and pay for one reduction.
///
/// `rising` selects a rising glitch (victim held low, aggressors rising);
/// otherwise the falling dual.
///
/// # Errors
///
/// Propagates engine and model-construction failures.
pub fn analyze_glitch(
    ctx: &AnalysisContext<'_>,
    cluster: &Cluster,
    rising: bool,
    opts: &AnalysisOptions,
) -> Result<GlitchResult, XtalkError> {
    PreparedCluster::new(ctx, cluster, opts).glitch(ctx, rising, opts)
}

/// Analyze the victim's interconnect delay while aggressors act per `mode`.
///
/// # Errors
///
/// Propagates engine failures; [`XtalkError::Measurement`] if the victim
/// never crosses 50 %.
pub fn analyze_delay(
    ctx: &AnalysisContext<'_>,
    cluster: &Cluster,
    victim_rising: bool,
    mode: DelayMode,
    opts: &AnalysisOptions,
) -> Result<DelayResult, XtalkError> {
    let decouple = mode == DelayMode::Decoupled;
    // No glitch is asked of this value, so no aggressor plan is made.
    let mut prepared = PreparedCluster {
        model: build_cluster(ctx.db, cluster, &|n| ctx.load_cap(n), decouple),
        plans: Vec::new(),
        rom: None,
    };
    match mode {
        DelayMode::Coupled { aggressors_opposite } => {
            prepared.delay(ctx, victim_rising, aggressors_opposite, opts)
        }
        // Aggressors are electrically irrelevant once decoupled.
        DelayMode::Decoupled => {
            let hold = if victim_rising { SwitchRole::HoldLow } else { SwitchRole::HoldHigh };
            prepared.delay_with(ctx, victim_rising, hold, opts)
        }
    }
}

/// One termination per member of the cluster, playing its role.
fn driver_terminations(
    ctx: &AnalysisContext<'_>,
    model: &ClusterModel,
    roles: &[SwitchRole],
    opts: &AnalysisOptions,
) -> Result<Vec<Box<dyn Termination>>, XtalkError> {
    let mut boxes = Vec::with_capacity(roles.len());
    for (k, &role) in roles.iter().enumerate() {
        let ch = match ctx.driver_model {
            DriverModelKind::FixedResistance(_) => None,
            _ => Some(ctx.char_cell(model.members[k])?),
        };
        boxes.push(make_termination(ctx.driver_model, role, ch, opts.input_slew, opts.vdd)?);
    }
    Ok(boxes)
}

/// A driver's output edge starting at `t0`.
fn edge(rising: bool, t0: f64) -> SwitchRole {
    if rising {
        SwitchRole::Rise { t0 }
    } else {
        SwitchRole::Fall { t0 }
    }
}

/// Internal engine-run output.
struct EngineRun {
    observe: Waveform,
    /// Recorded for delay runs only.
    victim_driver: Option<Waveform>,
    newton_iters: usize,
    reduced_order: Option<usize>,
}

/// SPICE path: rebuild the cluster as a circuit, attach terminations or
/// transistor-level drivers, and run the full MNA transient.
fn run_spice(
    ctx: &AnalysisContext<'_>,
    model: &ClusterModel,
    roles: &[SwitchRole],
    driver: bool,
    opts: &AnalysisOptions,
) -> Result<EngineRun, XtalkError> {
    let mut ckt = Circuit::new();
    let node_ids: Vec<pcv_netlist::NodeId> =
        (0..model.rc.num_nodes()).map(|i| ckt.node(&format!("n{i}"))).collect();
    let map = |i: usize| {
        if i == RcCluster::GROUND {
            Circuit::GROUND
        } else {
            node_ids[i]
        }
    };
    for &(a, b, ohms) in model.rc.resistors() {
        ckt.add_resistor(map(a), map(b), ohms);
    }
    for &(a, b, farads) in model.rc.capacitors() {
        if farads > 0.0 {
            ckt.add_capacitor(map(a), map(b), farads);
        }
    }
    let transistor = ctx.driver_model == DriverModelKind::TransistorLevel;
    let mut boxes: Vec<Box<dyn Termination>> = Vec::new();
    if transistor {
        let vdd_node = ckt.node("vdd");
        ckt.add_vsrc(vdd_node, Circuit::GROUND, SourceWave::Dc(opts.vdd));
        for (k, &role) in roles.iter().enumerate() {
            let cell = ctx.driver_cell(model.members[k])?;
            let out = node_ids[model.rc.ports()[model.driver_ports[k]]];
            let inp = ckt.fresh_node("drv_in");
            let wave = transistor_input_wave(cell, role, opts);
            ckt.add_vsrc(inp, Circuit::GROUND, wave);
            let inputs = vec![inp; cell.kind.num_inputs()];
            cell.build(&mut ckt, &inputs, out, vdd_node);
        }
    } else {
        boxes = driver_terminations(ctx, model, roles, opts)?;
    }
    let mut sim = Simulator::new(&ckt);
    for (k, b) in boxes.iter().enumerate() {
        sim.add_termination(node_ids[model.rc.ports()[model.driver_ports[k]]], b.as_ref());
    }
    let observe_node = node_ids[model.rc.ports()[model.observe_port]];
    let victim_node = node_ids[model.rc.ports()[model.victim_port()]];
    let probes: &[_] = if driver { &[observe_node, victim_node] } else { &[observe_node] };
    let res = sim.transient_probed(opts.tstop, &SimOptions::default(), probes)?;
    Ok(EngineRun {
        victim_driver: driver.then(|| res.waveform(victim_node)),
        newton_iters: res.newton_iters,
        reduced_order: None,
        observe: res.into_waveform(observe_node),
    })
}

/// Input stimulus for a transistor-level driver so its *output* performs
/// the requested role.
fn transistor_input_wave(cell: &Cell, role: SwitchRole, opts: &AnalysisOptions) -> SourceWave {
    let inv = cell.kind.inverting();
    let vdd = opts.vdd;
    let ramp = opts.input_slew / 0.8;
    match role {
        SwitchRole::HoldLow => SourceWave::Dc(if inv { vdd } else { 0.0 }),
        SwitchRole::HoldHigh => SourceWave::Dc(if inv { 0.0 } else { vdd }),
        SwitchRole::Rise { t0 } => {
            if inv {
                SourceWave::step(vdd, 0.0, t0, ramp)
            } else {
                SourceWave::step(0.0, vdd, t0, ramp)
            }
        }
        SwitchRole::Fall { t0 } => {
            if inv {
                SourceWave::step(0.0, vdd, t0, ramp)
            } else {
                SourceWave::step(vdd, 0.0, t0, ramp)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prune::{prune_victim, PruneConfig};
    use pcv_netlist::{NetNodeRef, NetParasitics};

    /// Victim + two aggressors, RC lines with mid-point couplings.
    fn three_net_db() -> (ParasiticDb, PNetId) {
        let mut db = ParasiticDb::new();
        let mk = |name: &str| {
            let mut n = NetParasitics::new(name);
            let n1 = n.add_node();
            let n2 = n.add_node();
            n.add_resistor(0, n1, 150.0);
            n.add_resistor(n1, n2, 150.0);
            n.add_ground_cap(n1, 8e-15);
            n.add_ground_cap(n2, 8e-15);
            n.mark_load(n2);
            n
        };
        let vid = db.add_net(mk("v"));
        let a1 = db.add_net(mk("a1"));
        let a2 = db.add_net(mk("a2"));
        for agg in [a1, a2] {
            for node in [1usize, 2] {
                db.add_coupling(
                    NetNodeRef { net: vid, node },
                    NetNodeRef { net: agg, node },
                    12e-15,
                );
            }
        }
        (db, vid)
    }

    fn cluster(db: &ParasiticDb, vid: PNetId) -> Cluster {
        prune_victim(db, vid, &PruneConfig::default())
    }

    #[test]
    fn rising_glitch_is_positive_and_bounded() {
        let (db, vid) = three_net_db();
        let ctx = AnalysisContext::fixed_resistance(&db, 1000.0);
        let cl = cluster(&db, vid);
        let res = analyze_glitch(&ctx, &cl, true, &AnalysisOptions::default()).unwrap();
        assert!(res.peak > 0.05, "visible glitch, got {}", res.peak);
        assert!(res.peak < 2.5, "bounded by vdd");
        assert!(res.t_peak > 1e-9, "peak after the aggressor edge");
        assert!(res.reduced_order.is_some());
        assert!(res.newton_iters > 0);
    }

    #[test]
    fn falling_glitch_mirrors_rising() {
        let (db, vid) = three_net_db();
        let ctx = AnalysisContext::fixed_resistance(&db, 1000.0);
        let cl = cluster(&db, vid);
        let opts = AnalysisOptions::default();
        let up = analyze_glitch(&ctx, &cl, true, &opts).unwrap();
        let down = analyze_glitch(&ctx, &cl, false, &opts).unwrap();
        assert!(down.peak < 0.0, "falling glitch is negative");
        // Symmetric linear drivers → symmetric magnitudes.
        assert!((up.peak + down.peak).abs() < 0.02 * up.peak.abs());
    }

    #[test]
    fn spice_engine_agrees_with_mor() {
        let (db, vid) = three_net_db();
        let ctx = AnalysisContext::fixed_resistance(&db, 1000.0);
        let cl = cluster(&db, vid);
        let mut opts = AnalysisOptions::default();
        let mor = analyze_glitch(&ctx, &cl, true, &opts).unwrap();
        opts.engine = EngineKind::Spice;
        let spice = analyze_glitch(&ctx, &cl, true, &opts).unwrap();
        let rel = (mor.peak - spice.peak).abs() / spice.peak.abs();
        assert!(rel < 0.02, "mor {} vs spice {} ({rel})", mor.peak, spice.peak);
        assert!(spice.reduced_order.is_none());
    }

    #[test]
    fn a_bad_span_is_a_typed_error_on_either_engine() {
        let (db, vid) = three_net_db();
        let ctx = AnalysisContext::fixed_resistance(&db, 1000.0);
        let cl = cluster(&db, vid);
        for engine in [EngineKind::Spice, AnalysisOptions::default().engine] {
            for tstop in [0.0, -1.0, f64::NAN, f64::INFINITY] {
                let opts = AnalysisOptions { engine, tstop, ..AnalysisOptions::default() };
                let err = analyze_glitch(&ctx, &cl, true, &opts).unwrap_err();
                assert!(err.to_string().contains("tstop"), "{engine:?}, tstop {tstop}: {err}");
                let err = crate::chip::verify_chip(
                    &ctx,
                    &[vid],
                    &PruneConfig::default(),
                    &opts,
                    0.1,
                    0.2,
                );
                assert!(err.is_err(), "{engine:?}, tstop {tstop}");
            }
        }
    }

    #[test]
    fn coupled_delay_exceeds_decoupled_for_opposing_aggressors() {
        let (db, vid) = three_net_db();
        let ctx = AnalysisContext::fixed_resistance(&db, 800.0);
        let cl = cluster(&db, vid);
        let opts = AnalysisOptions::default();
        let worst =
            analyze_delay(&ctx, &cl, true, DelayMode::Coupled { aggressors_opposite: true }, &opts)
                .unwrap();
        let base = analyze_delay(&ctx, &cl, true, DelayMode::Decoupled, &opts).unwrap();
        let best = analyze_delay(
            &ctx,
            &cl,
            true,
            DelayMode::Coupled { aggressors_opposite: false },
            &opts,
        )
        .unwrap();
        assert!(
            worst.delay > base.delay,
            "opposing aggressors slow the victim: {} vs {}",
            worst.delay,
            base.delay
        );
        assert!(
            best.delay < base.delay,
            "helping aggressors speed the victim: {} vs {}",
            best.delay,
            base.delay
        );
    }

    #[test]
    fn planning_without_design_switches_everything() {
        let (db, vid) = three_net_db();
        let ctx = AnalysisContext::fixed_resistance(&db, 1000.0);
        let cl = cluster(&db, vid);
        let plans = plan_aggressors(&ctx, &cl, &AnalysisOptions::default());
        assert_eq!(plans.len(), 2);
        assert!(plans.iter().all(|p| p.switching));
    }

    #[test]
    fn windows_silence_nonoverlapping_aggressors() {
        let (db, vid) = three_net_db();
        let mut design = Design::new("t");
        let dv = design.add_net("v");
        let d1 = design.add_net("a1");
        let d2 = design.add_net("a2");
        // a1 can switch early, a2 late — never together.
        design.set_window(d1, 0.0, 2e-9);
        design.set_window(d2, 6e-9, 8e-9);
        let lib = CellLibrary::standard_025();
        let ctx = AnalysisContext {
            db: &db,
            design: Some(&design),
            lib: Some(&lib),
            charlib: None,
            driver_model: DriverModelKind::FixedResistance(1000.0),
        };
        let cl = cluster(&db, vid);
        let plans = plan_aggressors(&ctx, &cl, &AnalysisOptions::default());
        let active = plans.iter().filter(|p| p.switching).count();
        assert_eq!(active, 1, "only one window group can switch together");
        let _ = dv;
    }

    #[test]
    fn complementary_aggressors_do_not_both_switch() {
        let (db, vid) = three_net_db();
        let mut design = Design::new("t");
        let _dv = design.add_net("v");
        let d1 = design.add_net("a1");
        let d2 = design.add_net("a2");
        design.set_complementary(d1, d2);
        let lib = CellLibrary::standard_025();
        let ctx = AnalysisContext {
            db: &db,
            design: Some(&design),
            lib: Some(&lib),
            charlib: None,
            driver_model: DriverModelKind::FixedResistance(1000.0),
        };
        let cl = cluster(&db, vid);
        let plans = plan_aggressors(&ctx, &cl, &AnalysisOptions::default());
        let active = plans.iter().filter(|p| p.switching).count();
        assert_eq!(active, 1);
    }

    #[test]
    fn transistor_level_requires_spice() {
        let (db, vid) = three_net_db();
        let mut ctx = AnalysisContext::fixed_resistance(&db, 1000.0);
        ctx.driver_model = DriverModelKind::TransistorLevel;
        let cl = cluster(&db, vid);
        let err = analyze_glitch(&ctx, &cl, true, &AnalysisOptions::default());
        assert!(matches!(err, Err(XtalkError::InvalidConfig { .. })));
    }

    #[test]
    fn driver_cell_uses_strongest_bus_driver() {
        let (db, vid) = three_net_db();
        let mut design = Design::new("t");
        let dv = design.add_net("v");
        design.add_net("a1");
        design.add_net("a2");
        let i0 = design.add_net("i0");
        design.add_instance("t0", "TBUFX4", vec![i0], Some(dv), true);
        design.add_instance("t1", "TBUFX16", vec![i0], Some(dv), true);
        let lib = CellLibrary::standard_025();
        let ctx = AnalysisContext {
            db: &db,
            design: Some(&design),
            lib: Some(&lib),
            charlib: None,
            driver_model: DriverModelKind::FixedResistance(1000.0),
        };
        let cell = ctx.driver_cell(vid).unwrap();
        assert_eq!(cell.name, "TBUFX16");
    }

    #[test]
    fn missing_driver_is_reported() {
        let (db, vid) = three_net_db();
        let mut design = Design::new("t");
        design.add_net("v");
        design.add_net("a1");
        design.add_net("a2");
        let lib = CellLibrary::standard_025();
        let ctx = AnalysisContext {
            db: &db,
            design: Some(&design),
            lib: Some(&lib),
            charlib: None,
            driver_model: DriverModelKind::TimingLibrary,
        };
        assert!(matches!(ctx.driver_cell(vid), Err(XtalkError::NoDriver { .. })));
    }
}
