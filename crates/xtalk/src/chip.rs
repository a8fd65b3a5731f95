//! Chip-level verification: sweep victims, classify glitches against noise
//! margins, and report — the audit the paper runs on the DSP design.

use crate::analysis::{analyze_glitch, AnalysisContext, AnalysisOptions, PreparedCluster};
use crate::error::XtalkError;
use crate::prune::{prune_victim, Cluster, PruneConfig, PruningStats};
use crate::receiver::check_receiver_propagation;
use pcv_netlist::PNetId;
use pcv_trace::json::{self, Obj, Value};
use std::fmt;

/// Receiver-side verdict for a flagged victim (see [`audit_receivers`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ReceiverVerdict {
    /// Receiver cell the glitch was replayed into.
    pub cell: String,
    /// Output peak at the receiver (volts, signed).
    pub output_peak: f64,
    /// Whether the glitch propagates through the receiver.
    pub propagates: bool,
}

/// Verdict severity for one victim.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Below the warning threshold.
    Clean,
    /// Between warning and failure thresholds (paper: ~10 % of Vdd is where
    /// glitches start to matter for latch inputs).
    Warning,
    /// Above the failure threshold (paper: >20 % of Vdd peaks get tight
    /// error bounds because they are the dangerous ones).
    Violation,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl Severity {
    /// Classify a rise/fall peak pair against the noise-margin thresholds
    /// (`warn_frac` ≤ `fail_frac`, fractions of `vdd`): the worst peak as
    /// a fraction of Vdd, and the severity that fraction earns.
    pub fn classify(
        rise: f64,
        fall: f64,
        vdd: f64,
        warn_frac: f64,
        fail_frac: f64,
    ) -> (f64, Severity) {
        let worst_frac = rise.abs().max(fall.abs()) / vdd;
        let severity = if worst_frac >= fail_frac {
            Severity::Violation
        } else if worst_frac >= warn_frac {
            Severity::Warning
        } else {
            Severity::Clean
        };
        (worst_frac, severity)
    }

    /// The stable wire name: `clean`, `warning` or `VIOLATION`.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Clean => "clean",
            Severity::Warning => "warning",
            Severity::Violation => "VIOLATION",
        }
    }

    /// Inverse of [`Severity::name`].
    fn from_name(name: &str) -> Option<Severity> {
        match name {
            "clean" => Some(Severity::Clean),
            "warning" => Some(Severity::Warning),
            "VIOLATION" => Some(Severity::Violation),
            _ => None,
        }
    }
}

/// Per-victim audit record.
#[derive(Debug, Clone, PartialEq)]
pub struct NetVerdict {
    /// The audited victim.
    pub net: PNetId,
    /// Victim net name.
    pub name: String,
    /// Worst rising-glitch peak (volts).
    pub rise_peak: f64,
    /// Worst falling-glitch peak (volts, negative).
    pub fall_peak: f64,
    /// Worst peak as a fraction of Vdd.
    pub worst_frac: f64,
    /// Classification.
    pub severity: Severity,
    /// Cluster size after pruning.
    pub cluster_size: usize,
    /// Coupled neighbors before pruning.
    pub neighbors_before: usize,
    /// Receiver propagation check, when [`audit_receivers`] has run.
    pub receiver: Option<ReceiverVerdict>,
}

/// Chip-level audit report.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipReport {
    /// Per-victim verdicts, worst first.
    pub verdicts: Vec<NetVerdict>,
    /// Pruning statistics over the audited clusters.
    pub pruning: PruningStats,
    /// Warning threshold used (fraction of Vdd).
    pub warn_frac: f64,
    /// Violation threshold used (fraction of Vdd).
    pub fail_frac: f64,
}

impl ChipReport {
    /// The report over `verdicts` (one per audited victim, in input order)
    /// and the clusters they were analyzed on: verdicts worst first — a
    /// stable sort, so ties keep input order whatever computed them — and
    /// the pruning statistics of `clusters`.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite `worst_frac`.
    pub fn from_verdicts(
        mut verdicts: Vec<NetVerdict>,
        clusters: &[Cluster],
        warn_frac: f64,
        fail_frac: f64,
    ) -> ChipReport {
        verdicts.sort_by(|a, b| b.worst_frac.partial_cmp(&a.worst_frac).expect("finite fractions"));
        ChipReport { verdicts, pruning: PruningStats::compute(clusters), warn_frac, fail_frac }
    }

    /// Victims classified at or above [`Severity::Warning`].
    pub fn flagged(&self) -> impl Iterator<Item = &NetVerdict> {
        self.verdicts.iter().filter(|v| v.severity >= Severity::Warning)
    }

    /// Number of violations.
    pub fn num_violations(&self) -> usize {
        self.verdicts.iter().filter(|v| v.severity == Severity::Violation).count()
    }

    /// Render a plain-text report table.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "crosstalk audit: {} victims, {} warnings, {} violations\n",
            self.verdicts.len(),
            self.flagged().count() - self.num_violations(),
            self.num_violations()
        ));
        out.push_str(&format!(
            "pruning: mean coupled component {:.1} -> cluster {:.1} nets (max {})\n",
            self.pruning.mean_component, self.pruning.mean_after, self.pruning.max_after
        ));
        out.push_str(&format!(
            "{:<20} {:>10} {:>10} {:>8} {:>8}  {}\n",
            "net", "rise (V)", "fall (V)", "%vdd", "cluster", "verdict"
        ));
        for v in &self.verdicts {
            out.push_str(&format!(
                "{:<20} {:>10.4} {:>10.4} {:>7.1}% {:>8}  {}\n",
                v.name,
                v.rise_peak,
                v.fall_peak,
                100.0 * v.worst_frac,
                v.cluster_size,
                v.severity
            ));
        }
        out
    }
}

/// Audit a set of victim nets: prune, analyze both glitch polarities,
/// classify.
///
/// `warn_frac` / `fail_frac` are noise-margin thresholds as fractions of
/// Vdd (typical: 0.1 and 0.2).
///
/// # Errors
///
/// Propagates the first analysis failure.
///
/// # Panics
///
/// Panics if `warn_frac > fail_frac`.
pub fn verify_chip(
    ctx: &AnalysisContext<'_>,
    victims: &[PNetId],
    prune_cfg: &PruneConfig,
    opts: &AnalysisOptions,
    warn_frac: f64,
    fail_frac: f64,
) -> Result<ChipReport, XtalkError> {
    assert!(warn_frac <= fail_frac, "warning threshold must not exceed failure");
    let _span = pcv_trace::span("xtalk", "verify_chip");
    let mut verdicts = Vec::with_capacity(victims.len());
    let mut clusters: Vec<Cluster> = Vec::with_capacity(victims.len());
    for &vic in victims {
        let _victim_span =
            pcv_trace::span_labeled("xtalk", "victim", || ctx.db.net(vic).name().to_owned());
        let cluster = prune_victim(ctx.db, vic, prune_cfg);
        let (rise, fall) = if cluster.aggressors.is_empty() {
            (0.0, 0.0)
        } else {
            let mut prepared = PreparedCluster::new(ctx, &cluster, opts);
            let up = prepared.glitch(ctx, true, opts)?;
            let down = prepared.glitch(ctx, false, opts)?;
            (up.peak, down.peak)
        };
        let (worst_frac, severity) = Severity::classify(rise, fall, opts.vdd, warn_frac, fail_frac);
        verdicts.push(NetVerdict {
            net: vic,
            name: ctx.db.net(vic).name().to_owned(),
            rise_peak: rise,
            fall_peak: fall,
            worst_frac,
            severity,
            cluster_size: cluster.size(),
            neighbors_before: cluster.neighbors_before,
            receiver: None,
        });
        clusters.push(cluster);
    }
    Ok(ChipReport::from_verdicts(verdicts, &clusters, warn_frac, fail_frac))
}

impl NetVerdict {
    /// Write this verdict's members into an open JSON object — the one
    /// rendering shared, byte for byte, by [`ChipReport::to_json`] (and so
    /// every sign-off document), the daemon's `GET /runs/{id}/verdicts`,
    /// and the shard worker's verdict stream (which adds
    /// `"kind":"verdict"`). [`NetVerdict::from_json`] reads it back.
    pub fn write_members(&self, o: &mut Obj<'_>) {
        o.raw("net", self.net.0).str("name", &self.name);
        o.float("rise_peak", self.rise_peak).float("fall_peak", self.fall_peak);
        o.float("worst_frac", self.worst_frac).str("severity", self.severity.name());
        o.raw("cluster_size", self.cluster_size).raw("neighbors_before", self.neighbors_before);
        match &self.receiver {
            Some(r) => o.obj("receiver", |o| {
                o.str("cell", &r.cell).float("output_peak", r.output_peak);
                o.raw("propagates", r.propagates);
            }),
            None => o.raw("receiver", "null"),
        };
    }

    /// Read a [`NetVerdict::write_members`] object back, bit for bit. The
    /// object may come from another process, so the reader is strict: a
    /// float is its 16-digit `_bits` pattern, which must be finite and
    /// agree with the decimal beside it; `net` must be below `nets` (the
    /// reading side's net count); flags must be booleans and the severity
    /// a known name. Anything else is `None`.
    pub fn from_json(v: &Value, nets: usize) -> Option<NetVerdict> {
        fn float(v: &Value, key: &str, bits_key: &str) -> Option<f64> {
            let hex = v.get(bits_key)?.as_str()?;
            let x = f64::from_bits(u64::from_str_radix(hex, 16).ok()?);
            let agrees = v.get(key)?.as_f64()?.to_bits() == x.to_bits();
            (hex.len() == 16 && x.is_finite() && agrees).then_some(x)
        }
        let count = |key: &str| Some(v.get(key)?.as_u64()? as usize);
        let receiver = match v.get("receiver")? {
            Value::Null => None,
            r => Some(ReceiverVerdict {
                cell: r.get("cell")?.as_str()?.to_owned(),
                output_peak: float(r, "output_peak", "output_peak_bits")?,
                propagates: match r.get("propagates")? {
                    Value::Bool(b) => *b,
                    _ => return None,
                },
            }),
        };
        Some(NetVerdict {
            net: PNetId(count("net").filter(|&n| n < nets)?),
            name: v.get("name")?.as_str()?.to_owned(),
            rise_peak: float(v, "rise_peak", "rise_peak_bits")?,
            fall_peak: float(v, "fall_peak", "fall_peak_bits")?,
            worst_frac: float(v, "worst_frac", "worst_frac_bits")?,
            severity: Severity::from_name(v.get("severity")?.as_str()?)?,
            cluster_size: count("cluster_size")?,
            neighbors_before: count("neighbors_before")?,
            receiver,
        })
    }
}

impl ChipReport {
    /// Render the audit as deterministic JSON.
    ///
    /// Every float appears twice: a readable decimal (`x`) and its exact
    /// IEEE-754 bit pattern (`x_bits`), so a serialized report can be
    /// compared byte-for-byte across runs, worker counts, and cache states
    /// — the property the golden-report regression suite locks down.
    pub fn to_json(&self) -> String {
        json::object(|o| self.write_members(o))
    }

    /// Write [`ChipReport::to_json`]'s members into an open JSON object.
    pub fn write_members(&self, o: &mut Obj<'_>) {
        o.float("warn_frac", self.warn_frac).float("fail_frac", self.fail_frac);
        o.obj("pruning", |o| {
            let p = &self.pruning;
            o.float("mean_before", p.mean_before).float("mean_component", p.mean_component);
            o.float("mean_after", p.mean_after).raw("max_after", p.max_after);
            o.raw("active_clusters", p.active_clusters);
        });
        o.arr("verdicts", |a| {
            for v in &self.verdicts {
                a.obj(|o| v.write_members(o));
            }
        });
    }

    /// Render the audit as CSV (one row per victim, worst first) for
    /// downstream tooling.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "net,rise_peak_v,fall_peak_v,worst_frac_vdd,severity,cluster_size,\
             neighbors_before,receiver_cell,receiver_peak_v,receiver_propagates\n",
        );
        for v in &self.verdicts {
            let (rc_cell, rc_peak, rc_prop) = match &v.receiver {
                Some(r) => {
                    (r.cell.as_str(), format!("{:.6}", r.output_peak), r.propagates.to_string())
                }
                None => ("", String::new(), String::new()),
            };
            out.push_str(&format!(
                "{},{:.6},{:.6},{:.6},{},{},{},{},{},{}\n",
                v.name,
                v.rise_peak,
                v.fall_peak,
                v.worst_frac,
                v.severity,
                v.cluster_size,
                v.neighbors_before,
                rc_cell,
                rc_peak,
                rc_prop
            ));
        }
        out
    }
}

/// Deepen an audit with transistor-level *receiver* checks (the paper's
/// future-work direction): for every verdict at or above
/// [`Severity::Warning`], replay the worst-polarity glitch waveform into
/// the victim's receiving cell and record whether it propagates.
///
/// The receiving cell is [`AnalysisContext::receiver_cell`]'s.
///
/// # Errors
///
/// Propagates analysis or simulation failures.
pub fn audit_receivers(
    ctx: &AnalysisContext<'_>,
    report: &mut ChipReport,
    prune_cfg: &PruneConfig,
    opts: &AnalysisOptions,
) -> Result<(), XtalkError> {
    let _span = pcv_trace::span("xtalk", "audit_receivers");
    ctx.receiver_views()?;
    for v in report.verdicts.iter_mut() {
        if v.severity < Severity::Warning {
            continue;
        }
        let receiver_cell = ctx.receiver_cell(&v.name)?;

        // Re-run the worse polarity to recover the waveform.
        let rising = v.rise_peak.abs() >= v.fall_peak.abs();
        let cluster = prune_victim(ctx.db, v.net, prune_cfg);
        let glitch = analyze_glitch(ctx, &cluster, rising, opts)?;
        let quiet = if rising { 0.0 } else { opts.vdd };
        let check = check_receiver_propagation(
            receiver_cell,
            &glitch.waveform,
            quiet,
            opts.vdd,
            report.fail_frac,
        )?;
        v.receiver = Some(ReceiverVerdict {
            cell: receiver_cell.name.clone(),
            output_peak: check.output_peak,
            propagates: check.propagates,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcv_netlist::{NetNodeRef, NetParasitics, ParasiticDb};

    /// Two victims: one heavily coupled, one barely coupled.
    fn db() -> (ParasiticDb, PNetId, PNetId) {
        let mut db = ParasiticDb::new();
        let mk = |name: &str, cg: f64| {
            let mut n = NetParasitics::new(name);
            let n1 = n.add_node();
            n.add_resistor(0, n1, 200.0);
            n.add_ground_cap(n1, cg);
            n.mark_load(n1);
            n
        };
        let hot = db.add_net(mk("hot", 5e-15));
        let cold = db.add_net(mk("cold", 50e-15));
        let agg = db.add_net(mk("agg", 5e-15));
        db.add_coupling(NetNodeRef { net: hot, node: 1 }, NetNodeRef { net: agg, node: 1 }, 60e-15);
        db.add_coupling(
            NetNodeRef { net: cold, node: 1 },
            NetNodeRef { net: agg, node: 1 },
            0.4e-15,
        );
        (db, hot, cold)
    }

    #[test]
    fn audit_classifies_and_sorts() {
        let (db, hot, cold) = db();
        let ctx = AnalysisContext::fixed_resistance(&db, 2000.0);
        let report = verify_chip(
            &ctx,
            &[cold, hot],
            &PruneConfig::default(),
            &AnalysisOptions::default(),
            0.1,
            0.2,
        )
        .unwrap();
        assert_eq!(report.verdicts.len(), 2);
        // Sorted worst-first: the hot net leads.
        assert_eq!(report.verdicts[0].name, "hot");
        assert!(report.verdicts[0].worst_frac > report.verdicts[1].worst_frac);
        assert_eq!(report.verdicts[0].severity, Severity::Violation);
        assert_eq!(report.num_violations(), 1);
        assert!(report.flagged().count() >= 1);
    }

    #[test]
    fn quiet_nets_are_clean_without_simulation() {
        let (db, _, cold) = db();
        let ctx = AnalysisContext::fixed_resistance(&db, 2000.0);
        // The cold net's one weak coupling is pruned away entirely.
        let report = verify_chip(
            &ctx,
            &[cold],
            &PruneConfig { cap_ratio: 0.05, max_aggressors: 12 },
            &AnalysisOptions::default(),
            0.1,
            0.2,
        )
        .unwrap();
        assert_eq!(report.verdicts[0].severity, Severity::Clean);
        assert_eq!(report.verdicts[0].rise_peak, 0.0);
        assert_eq!(report.verdicts[0].cluster_size, 1);
    }

    #[test]
    fn text_report_contains_key_lines() {
        let (db, hot, _) = db();
        let ctx = AnalysisContext::fixed_resistance(&db, 2000.0);
        let report = verify_chip(
            &ctx,
            &[hot],
            &PruneConfig::default(),
            &AnalysisOptions::default(),
            0.1,
            0.2,
        )
        .unwrap();
        let text = report.to_text();
        assert!(text.contains("crosstalk audit"));
        assert!(text.contains("hot"));
        assert!(text.contains("pruning"));
    }

    #[test]
    fn receiver_audit_annotates_flagged_victims() {
        use pcv_cells::library::CellLibrary;
        use pcv_netlist::Design;
        let (db, hot, cold) = db();
        // Design view: drivers + an inverter load on the hot net.
        let mut design = Design::new("t");
        let dh = design.add_net("hot");
        let dc_ = design.add_net("cold");
        let da = design.add_net("agg");
        let pi = design.add_net("pi");
        design.add_instance("h_drv", "INVX2", vec![pi], Some(dh), false);
        design.add_instance("c_drv", "INVX2", vec![pi], Some(dc_), false);
        design.add_instance("a_drv", "BUFX4", vec![pi], Some(da), false);
        design.add_instance("h_rx", "INVX4", vec![dh], None, false);
        let lib = CellLibrary::standard_025();
        let ctx = AnalysisContext {
            db: &db,
            design: Some(&design),
            lib: Some(&lib),
            charlib: None,
            driver_model: crate::drivers::DriverModelKind::FixedResistance(2000.0),
        };
        let opts = AnalysisOptions::default();
        let mut report =
            verify_chip(&ctx, &[hot, cold], &PruneConfig::default(), &opts, 0.1, 0.2).unwrap();
        audit_receivers(&ctx, &mut report, &PruneConfig::default(), &opts).unwrap();
        // The hot (flagged) victim gets a receiver verdict; the clean one
        // does not.
        let hot_v = report.verdicts.iter().find(|v| v.name == "hot").unwrap();
        let rc = hot_v.receiver.as_ref().expect("flagged victim checked");
        assert_eq!(rc.cell, "INVX4");
        assert!(rc.output_peak.abs() >= 0.0);
        let cold_v = report.verdicts.iter().find(|v| v.name == "cold").unwrap();
        assert!(cold_v.receiver.is_none());
    }

    #[test]
    fn receiver_audit_requires_design() {
        let (db, hot, _) = db();
        let ctx = AnalysisContext::fixed_resistance(&db, 2000.0);
        let opts = AnalysisOptions::default();
        let mut report =
            verify_chip(&ctx, &[hot], &PruneConfig::default(), &opts, 0.1, 0.2).unwrap();
        let err = audit_receivers(&ctx, &mut report, &PruneConfig::default(), &opts);
        assert!(matches!(err, Err(XtalkError::InvalidConfig { .. })));
    }

    #[test]
    fn csv_export_has_header_and_rows() {
        let (db, hot, cold) = db();
        let ctx = AnalysisContext::fixed_resistance(&db, 2000.0);
        let report = verify_chip(
            &ctx,
            &[cold, hot],
            &PruneConfig::default(),
            &AnalysisOptions::default(),
            0.1,
            0.2,
        )
        .unwrap();
        let csv = report.to_csv();
        assert_eq!(csv.lines().count(), 3);
        let header: Vec<&str> = csv.lines().next().unwrap().split(',').collect();
        let columns = [
            "net",
            "rise_peak_v",
            "fall_peak_v",
            "worst_frac_vdd",
            "severity",
            "cluster_size",
            "neighbors_before",
            "receiver_cell",
            "receiver_peak_v",
            "receiver_propagates",
        ];
        assert_eq!(header, columns);
        for row in csv.lines().skip(1) {
            assert_eq!(row.split(',').count(), columns.len(), "{row}");
        }
        assert!(csv.contains("hot,"));
        assert!(csv.contains("VIOLATION"));
    }

    #[test]
    fn json_export_is_deterministic_and_bit_exact() {
        let (db, hot, cold) = db();
        let ctx = AnalysisContext::fixed_resistance(&db, 2000.0);
        let report = verify_chip(
            &ctx,
            &[cold, hot],
            &PruneConfig::default(),
            &AnalysisOptions::default(),
            0.1,
            0.2,
        )
        .unwrap();
        let a = report.to_json();
        assert_eq!(a, report.to_json());
        assert!(a.contains("\"name\":\"hot\""));
        assert!(a.contains("worst_frac_bits\":\""));
        assert!(a.contains("\"receiver\":null"));
        // The bits field round-trips the exact value.
        let v = &report.verdicts[0];
        let needle = format!("\"rise_peak_bits\":\"{:016x}\"", v.rise_peak.to_bits());
        assert!(a.contains(&needle));
    }

    #[test]
    fn severity_ordering_and_display() {
        assert!(Severity::Clean < Severity::Warning);
        assert!(Severity::Warning < Severity::Violation);
        assert_eq!(Severity::Violation.to_string(), "VIOLATION");
        assert_eq!(Severity::Clean.to_string(), "clean");
    }
}
