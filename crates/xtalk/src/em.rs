//! Electromigration screening of cluster wires during switching events.
//!
//! The paper's introduction names "voltage levels that are unacceptable for
//! electromigration safety" among the coupling hazards. This module
//! quantifies the wire-current side: it replays a victim switching event
//! (worst-case opposing aggressors) through the SPICE engine with *every*
//! cluster node probed, computes average/RMS/peak current per wire segment,
//! and flags segments exceeding a current limit.

use crate::analysis::{driver_terminations, rc_circuit, AnalysisContext, AnalysisOptions};
use crate::build::build_cluster;
use crate::drivers::{DriverModelKind, SwitchRole};
use crate::error::XtalkError;
use crate::prune::Cluster;
use pcv_netlist::PNetId;
use pcv_spice::{SimOptions, Simulator};

/// Current statistics for one wire segment.
#[derive(Debug, Clone)]
pub struct SegmentCurrent {
    /// The net the segment belongs to.
    pub net: PNetId,
    /// Segment terminals (node indices within the net).
    pub a: usize,
    /// Second terminal.
    pub b: usize,
    /// RMS current over the event (amperes).
    pub rms: f64,
    /// Mean absolute current (amperes).
    pub avg: f64,
    /// Peak absolute current (amperes).
    pub peak: f64,
}

/// Screening result.
#[derive(Debug, Clone)]
pub struct EmScreenResult {
    /// Every wire segment's current statistics, worst RMS first.
    pub segments: Vec<SegmentCurrent>,
    /// RMS limit used (amperes).
    pub rms_limit: f64,
}

impl EmScreenResult {
    /// Segments whose RMS current exceeds the limit.
    pub fn violations(&self) -> impl Iterator<Item = &SegmentCurrent> {
        self.segments.iter().filter(move |s| s.rms > self.rms_limit)
    }
}

/// Screen a cluster's wire segments during a worst-case victim switching
/// event (victim rising, aggressors opposing).
///
/// `rms_limit` is the per-segment RMS current limit in amperes — for
/// 0.25 µm aluminum at minimum width, on the order of 1 mA.
///
/// # Errors
///
/// Propagates engine failures; [`XtalkError::InvalidConfig`] when the
/// context's driver model cannot provide terminations.
pub fn screen_cluster(
    ctx: &AnalysisContext<'_>,
    cluster: &Cluster,
    opts: &AnalysisOptions,
    rms_limit: f64,
) -> Result<EmScreenResult, XtalkError> {
    let model = build_cluster(ctx.db, cluster, &|n| ctx.load_cap(n), false);
    // Roles: victim rising, aggressors falling simultaneously (worst-case
    // opposing traffic maximizes coupling current).
    let mut roles = vec![SwitchRole::Rise { t0: opts.switch_time }];
    for _ in &cluster.aggressors {
        roles.push(SwitchRole::Fall { t0: opts.switch_time });
    }

    // The cluster as a circuit, every node probed.
    let (ckt, node_ids) = rc_circuit(&model.rc);
    if ctx.driver_model == DriverModelKind::TransistorLevel {
        return Err(XtalkError::InvalidConfig {
            what: "em screening uses termination-style drivers",
        });
    }
    let boxes = driver_terminations(ctx, &model, &roles, opts)?;
    let mut sim = Simulator::new(&ckt);
    for (k, b) in boxes.iter().enumerate() {
        sim.add_termination(node_ids[model.rc.ports()[model.driver_ports[k]]], b.as_ref());
    }
    let res = sim.transient_probed(opts.tstop, &SimOptions::default(), &node_ids)?;

    // Per-segment current statistics from the node waveforms. Segments are
    // mapped back to (net, local nodes) through the member offsets.
    let mut segments = Vec::new();
    for (m, &member) in model.members.iter().enumerate() {
        let offset = model.offsets[m];
        for &(a, b, ohms) in ctx.db.net(member).resistors() {
            let wa = res.waveform(node_ids[offset + a]);
            let wb = res.waveform(node_ids[offset + b]);
            let times = wa.times();
            let mut sum_sq = 0.0;
            let mut sum_abs = 0.0;
            let mut peak = 0.0f64;
            let mut total_t = 0.0;
            for k in 1..times.len() {
                let dt = times[k] - times[k - 1];
                let i = (wa.values()[k] - wb.values()[k]) / ohms;
                sum_sq += i * i * dt;
                sum_abs += i.abs() * dt;
                peak = peak.max(i.abs());
                total_t += dt;
            }
            let total_t = total_t.max(1e-30);
            segments.push(SegmentCurrent {
                net: member,
                a,
                b,
                rms: (sum_sq / total_t).sqrt(),
                avg: sum_abs / total_t,
                peak,
            });
        }
    }
    segments.sort_by(|x, y| y.rms.partial_cmp(&x.rms).expect("finite currents"));
    Ok(EmScreenResult { segments, rms_limit })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prune::{prune_victim, PruneConfig};
    use pcv_netlist::{NetNodeRef, NetParasitics, ParasiticDb};

    fn pair_db() -> (ParasiticDb, PNetId) {
        let mut db = ParasiticDb::new();
        let mk = |name: &str| {
            let mut n = NetParasitics::new(name);
            let n1 = n.add_node();
            let n2 = n.add_node();
            n.add_resistor(0, n1, 150.0);
            n.add_resistor(n1, n2, 150.0);
            n.add_ground_cap(n1, 10e-15);
            n.add_ground_cap(n2, 10e-15);
            n.mark_load(n2);
            n
        };
        let vid = db.add_net(mk("v"));
        let aid = db.add_net(mk("a"));
        db.add_coupling(NetNodeRef { net: vid, node: 1 }, NetNodeRef { net: aid, node: 1 }, 15e-15);
        (db, vid)
    }

    #[test]
    fn screening_reports_every_segment_sorted() {
        let (db, vid) = pair_db();
        let cluster = prune_victim(&db, vid, &PruneConfig::default());
        let ctx = AnalysisContext::fixed_resistance(&db, 500.0);
        let res = screen_cluster(&ctx, &cluster, &AnalysisOptions::default(), 1e-3).unwrap();
        // 2 nets x 2 segments.
        assert_eq!(res.segments.len(), 4);
        for w in res.segments.windows(2) {
            assert!(w[0].rms >= w[1].rms, "sorted by rms");
        }
        // Driver-side segments carry the charging current: nonzero stats.
        assert!(res.segments[0].rms > 1e-7);
        assert!(res.segments[0].peak >= res.segments[0].rms);
        assert!(res.segments[0].avg <= res.segments[0].peak);
    }

    #[test]
    fn tight_limit_flags_violations_loose_limit_passes() {
        let (db, vid) = pair_db();
        let cluster = prune_victim(&db, vid, &PruneConfig::default());
        let ctx = AnalysisContext::fixed_resistance(&db, 500.0);
        let opts = AnalysisOptions::default();
        let tight = screen_cluster(&ctx, &cluster, &opts, 1e-9).unwrap();
        assert!(tight.violations().count() > 0, "nano-amp limit must flag");
        let loose = screen_cluster(&ctx, &cluster, &opts, 1.0).unwrap();
        assert_eq!(loose.violations().count(), 0, "1 A limit passes everything");
    }

    #[test]
    fn transistor_driver_model_is_rejected() {
        let (db, vid) = pair_db();
        let cluster = prune_victim(&db, vid, &PruneConfig::default());
        let mut ctx = AnalysisContext::fixed_resistance(&db, 500.0);
        ctx.driver_model = DriverModelKind::TransistorLevel;
        let err = screen_cluster(&ctx, &cluster, &AnalysisOptions::default(), 1e-3);
        assert!(matches!(err, Err(XtalkError::InvalidConfig { .. })));
    }
}
