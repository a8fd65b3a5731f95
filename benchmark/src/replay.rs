//! The layer replay: walk a seeded sample of victims through the same
//! public calls a cluster job makes, one span per call.
//!
//! The engine's job is `prune → fingerprint → (build_cluster → reduce →
//! diagonalize → terminations → simulate) × {rise, fall} → receiver
//! check`; those spans are the *engine path* and are what the attribution
//! check sums. Two probes ride along outside that path: a stand-alone
//! sparse Cholesky factor + solve of the cluster's conductance matrix
//! (the cost `reduce` hides), and the reduced-vs-exact transfer-function
//! oracle.

use crate::span::Tracer;
use pcv_cells::library::CellKind;
use pcv_engine::{cluster_fingerprint, config_hash, EngineConfig, ResidentChip};
use pcv_mor::{simulate, sympvl, RcCluster, ReducedModel};
use pcv_netlist::termination::Termination;
use pcv_netlist::PNetId;
use pcv_sparse::{Dense, SparseCholesky};
use pcv_xtalk::analysis::plan_aggressors;
use pcv_xtalk::drivers::{make_termination, DriverModelKind, SwitchRole};
use pcv_xtalk::prune::{prune_victim_with_components, Cluster};
use pcv_xtalk::{build_cluster, check_receiver_propagation, AnalysisContext, EngineKind, Severity};

/// Spans that make up a cluster job in the engine, in call order.
pub const ENGINE_PATH: [&str; 8] = [
    "xtalk.prune",
    "engine.fingerprint",
    "xtalk.build_cluster",
    "mor.reduce",
    "mor.diagonalize",
    "xtalk.make_termination",
    "mor.simulate",
    "xtalk.receiver_check",
];

/// Frequency points of the transfer-function oracle (rad/s, real axis).
const ORACLE_S: [f64; 4] = [0.0, 1e8, 1e9, 1e10];

/// What the replay of one victim produced.
#[derive(Debug, Clone, PartialEq)]
pub struct VictimReplay {
    /// Index into `chip.victims()`.
    pub index: usize,
    /// Victim net name.
    pub name: String,
    /// Rise / fall peak, exact bits.
    pub peaks: (u64, u64),
    /// Receiver output peak bits when the receiver check ran.
    pub receiver: Option<u64>,
    /// Exactly repeatable counts: (steps, newton iterations, reduced
    /// order, Cholesky nnz), summed over both polarities where they apply.
    pub counts: [usize; 4],
}

/// Per-call observations that are not durations (those live in the
/// tracer's spans).
#[derive(Debug, Clone, Default)]
pub struct ReplayCounts {
    pub cluster_nets: Vec<f64>,
    pub neighbors_before: Vec<f64>,
    pub cluster_nodes: Vec<f64>,
    pub chol_nnz: Vec<f64>,
    pub reduced_order: Vec<f64>,
    pub ports: Vec<f64>,
    pub steps: Vec<f64>,
    pub newton_iters: Vec<f64>,
    pub sim_allocs: Vec<f64>,
    /// Worst relative transfer-function error over every replayed cluster
    /// and frequency point.
    pub transfer_max_rel_err: f64,
}

/// `H(s) = Bᵀ (G + sC)⁻¹ B` of the unreduced cluster through a sparse
/// factorization — `RcCluster::exact_transfer` is dense and cannot hold a
/// finely extracted cluster (10⁴ nodes); this computes the same matrix.
/// `G + sC` carries the coupling capacitors, so it is band-reordered (RCM)
/// first: in net-by-net order its factor would fill in.
pub fn exact_transfer_sparse(rc: &RcCluster, s: f64) -> Dense {
    let a = rc.conductance_matrix().add_scaled(s, &rc.capacitance_matrix());
    let perm = pcv_sparse::order::rcm(&a);
    let chol = SparseCholesky::factor(&a.permute_sym(&perm))
        .expect("G + sC is positive definite for s >= 0");
    let mut new_of = vec![0; perm.len()];
    for (new, &old) in perm.iter().enumerate() {
        new_of[old] = new;
    }
    let ports = rc.ports();
    let mut h = Dense::zeros(ports.len(), ports.len());
    for (j, &pj) in ports.iter().enumerate() {
        let mut e = vec![0.0; rc.num_nodes()];
        e[new_of[pj]] = 1.0;
        let x = chol.solve(&e);
        for (i, &pi) in ports.iter().enumerate() {
            h[(i, j)] = x[new_of[pi]];
        }
    }
    h
}

/// Largest entry-wise error of the reduced transfer matrix against the
/// exact one over [`ORACLE_S`], relative to the exact matrix's largest
/// entry at that frequency.
fn transfer_rel_err(rc: &RcCluster, rom: &ReducedModel) -> f64 {
    let mut worst: f64 = 0.0;
    for s in ORACLE_S {
        let exact = exact_transfer_sparse(rc, s);
        let Ok(reduced) = rom.transfer(s) else {
            return f64::INFINITY;
        };
        let p = rc.num_ports();
        let (mut scale, mut err): (f64, f64) = (0.0, 0.0);
        for i in 0..p {
            for j in 0..p {
                scale = scale.max(exact[(i, j)].abs());
                err = err.max((exact[(i, j)] - reduced[(i, j)]).abs());
            }
        }
        worst = worst.max(err / scale.max(f64::MIN_POSITIVE));
    }
    worst
}

/// The receiver cell the engine's in-job check picks for `name`: the first
/// non-latch load, else the latch input-stage-equivalent inverter.
fn receiver_cell<'a>(
    ctx: &AnalysisContext<'a>,
    name: &str,
) -> Option<&'a pcv_cells::library::Cell> {
    let (design, lib) = (ctx.design?, ctx.lib?);
    let dnet = design.find_net(name)?;
    design
        .loads_of(dnet)
        .iter()
        .filter_map(|&(inst, _)| lib.cell(&design.instance(inst).cell))
        .find(|c| c.kind != CellKind::Latch)
        .or_else(|| lib.cell("INVX1"))
}

/// Replay one victim. `probes` adds the off-path Cholesky and transfer
/// probes (skipped on the repeatability re-run).
fn replay_victim(
    chip: &ResidentChip,
    cfg: &EngineConfig,
    chash: u64,
    index: usize,
    t: &Tracer,
    counts: &mut ReplayCounts,
    probes: bool,
) -> VictimReplay {
    let ctx = chip.ctx();
    let db = chip.db();
    let vic: PNetId = chip.victims()[index];
    let name = db.net(vic).name().to_owned();
    let opts = &cfg.analysis;
    let EngineKind::Mor { block_iters } = opts.engine else {
        panic!("the layer replay mirrors the MOR engine path");
    };

    let cluster: Cluster = t.span_for("xtalk.prune", index, || {
        prune_victim_with_components(db, vic, &cfg.prune, chip.component_sizes())
    });
    let fp = t.span_for("engine.fingerprint", index, || cluster_fingerprint(&ctx, &cluster, chash));
    std::hint::black_box(fp);
    counts.cluster_nets.push(cluster.size() as f64);
    counts.neighbors_before.push(cluster.neighbors_before as f64);

    let mut peaks = [0.0f64; 2];
    let mut worse = None;
    let mut tally = [0usize; 4];
    if !cluster.aggressors.is_empty() {
        for (k, rising) in [true, false].into_iter().enumerate() {
            let model = t.span_for("xtalk.build_cluster", index, || {
                build_cluster(db, &cluster, &|n| ctx.load_cap(n), false)
            });
            let rom = t
                .span_for("mor.reduce", index, || sympvl::reduce_with(&model.rc, block_iters, None))
                .expect("replayed cluster reduces");
            let diag = t
                .span_for("mor.diagonalize", index, || rom.diagonalize())
                .expect("replayed model diagonalizes");
            let boxes: Vec<Box<dyn Termination>> =
                t.span_for("xtalk.make_termination", index, || {
                    let plans = plan_aggressors(&ctx, &cluster, opts);
                    let hold = if rising { SwitchRole::HoldLow } else { SwitchRole::HoldHigh };
                    let mut roles = vec![hold];
                    roles.extend(plans.iter().map(|p| match (p.switching, rising) {
                        (false, _) => hold,
                        (true, true) => SwitchRole::Rise { t0: p.t0 },
                        (true, false) => SwitchRole::Fall { t0: p.t0 },
                    }));
                    roles
                        .iter()
                        .enumerate()
                        .map(|(m, &role)| {
                            let ch = match ctx.driver_model {
                                DriverModelKind::FixedResistance(_) => None,
                                _ => Some(
                                    ctx.char_cell(model.members[m]).expect("driver characterized"),
                                ),
                            };
                            make_termination(ctx.driver_model, role, ch, opts.input_slew, opts.vdd)
                                .expect("termination builds")
                        })
                        .collect()
                });
            let mut terms: Vec<Option<&dyn Termination>> = vec![None; model.rc.num_ports()];
            for (m, b) in boxes.iter().enumerate() {
                terms[model.driver_ports[m]] = Some(b.as_ref());
            }
            let allocs0 = pcv_obs::mem::thread_totals().1;
            let res = t
                .span_for("mor.simulate", index, || simulate(&diag, &terms, opts.tstop, &opts.mor))
                .expect("replayed transient converges");
            counts.sim_allocs.push((pcv_obs::mem::thread_totals().1 - allocs0) as f64);
            let wave = res.waveform(model.observe_port);
            peaks[k] = wave.peak_deviation(if rising { 0.0 } else { opts.vdd }).1;
            if k == 0 || peaks[0].abs() < peaks[1].abs() {
                worse = Some((rising, wave));
            }
            counts.steps.push(res.steps as f64);
            counts.newton_iters.push(res.newton_iters as f64);
            counts.reduced_order.push(rom.order() as f64);
            counts.ports.push(model.rc.num_ports() as f64);
            tally[0] += res.steps;
            tally[1] += res.newton_iters;
            tally[2] += rom.order();

            if rising {
                counts.cluster_nodes.push(model.rc.num_nodes() as f64);
                let g =
                    t.span_for("mor.conductance_matrix", index, || model.rc.conductance_matrix());
                let chol = t
                    .span_for("sparse.chol_factor", index, || SparseCholesky::factor(&g))
                    .expect("conductance matrix factors");
                tally[3] = chol.nnz();
                if probes {
                    counts.chol_nnz.push(chol.nnz() as f64);
                    let rhs = vec![1.0; g.nrows()];
                    std::hint::black_box(
                        t.span_for("sparse.chol_solve", index, || chol.solve(&rhs)),
                    );
                    let err =
                        t.span_for("oracle.transfer", index, || transfer_rel_err(&model.rc, &rom));
                    counts.transfer_max_rel_err = counts.transfer_max_rel_err.max(err);
                }
            }
        }
    }

    // The engine's receiver rule: check flagged victims, reusing the
    // worse polarity's waveform.
    let worst_frac = peaks[0].abs().max(peaks[1].abs()) / opts.vdd;
    let flagged = if worst_frac >= cfg.fail_frac {
        Severity::Violation
    } else if worst_frac >= cfg.warn_frac {
        Severity::Warning
    } else {
        Severity::Clean
    } >= Severity::Warning;
    let mut receiver = None;
    if cfg.check_receivers && flagged {
        if let (Some(cell), Some((rising, wave))) = (receiver_cell(&ctx, &name), worse) {
            let quiet = if rising { 0.0 } else { opts.vdd };
            let check = t
                .span_for("xtalk.receiver_check", index, || {
                    check_receiver_propagation(cell, &wave, quiet, opts.vdd, cfg.fail_frac)
                })
                .expect("receiver check runs");
            receiver = Some(check.output_peak.to_bits());
        }
    }

    VictimReplay {
        index,
        name,
        peaks: (peaks[0].to_bits(), peaks[1].to_bits()),
        receiver,
        counts: tally,
    }
}

/// Replay `sample` (indices into `chip.victims()`) on the harness's own
/// thread — one, like the engine's one worker, so every call is timed under
/// the conditions it meets inside the engine and the layers can add up to
/// the engine's busy time. Then re-run the first two victims untraced and
/// require bit- and count-identical results: the counts a later change may
/// claim against must repeat exactly.
pub fn replay(
    chip: &ResidentChip,
    cfg: &EngineConfig,
    sample: &[usize],
    t: &Tracer,
) -> (Vec<VictimReplay>, ReplayCounts, Vec<String>) {
    let ctx = chip.ctx();
    let chash = config_hash(
        &ctx,
        &cfg.prune,
        &cfg.analysis,
        cfg.warn_frac,
        cfg.fail_frac,
        cfg.check_receivers,
    );
    let mut counts = ReplayCounts::default();
    let out: Vec<VictimReplay> =
        sample.iter().map(|&i| replay_victim(chip, cfg, chash, i, t, &mut counts, true)).collect();

    let mut mismatches = Vec::new();
    let quiet = Tracer::new(false);
    for first in out.iter().take(2) {
        let mut scratch = ReplayCounts::default();
        let again = replay_victim(chip, cfg, chash, first.index, &quiet, &mut scratch, false);
        if (again.peaks, again.receiver, again.counts)
            != (first.peaks, first.receiver, first.counts)
        {
            mismatches.push(format!("replay of {} did not repeat exactly", first.name));
        }
    }
    (out, counts, mismatches)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_exact_transfer_matches_the_dense_reference() {
        let mut rc = RcCluster::new();
        let nodes: Vec<usize> = (0..6).map(|_| rc.add_node()).collect();
        rc.add_resistor_to_ground(nodes[0], 1000.0).unwrap();
        for w in nodes.windows(2) {
            rc.add_resistor(w[0], w[1], 120.0).unwrap();
            rc.add_ground_cap(w[1], 9e-15).unwrap();
        }
        rc.add_capacitor(nodes[2], nodes[4], 20e-15).unwrap();
        rc.add_port(nodes[0]);
        rc.add_port(nodes[5]);
        for s in ORACLE_S {
            let dense = rc.exact_transfer(s).unwrap();
            let sparse = exact_transfer_sparse(&rc, s);
            for i in 0..2 {
                for j in 0..2 {
                    let (d, sp) = (dense[(i, j)], sparse[(i, j)]);
                    assert!((d - sp).abs() <= 1e-9 * d.abs(), "s={s} ({i},{j}): {d} vs {sp}");
                }
            }
        }
        let rom = sympvl::reduce(&rc, 4).unwrap();
        assert!(transfer_rel_err(&rc, &rom) < 1e-6);
    }
}
