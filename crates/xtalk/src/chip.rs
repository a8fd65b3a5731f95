//! Chip-level verdicts: the per-victim record of an audit, its severity
//! against the noise margins, and the report's renderings. `pcv-engine`
//! computes the verdicts; this module is what they are.

use crate::prune::{Cluster, PruningStats};
use pcv_netlist::PNetId;
use pcv_trace::json::{self, Obj, Value};
use std::fmt;

/// Receiver-side verdict for a flagged victim: its worse-polarity glitch
/// replayed into the receiving cell ([`crate::check_receiver_propagation`]).
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
    /// Receiver propagation check, when the audit ran one on this victim.
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
            let x = f64::from_bits(pcv_trace::parse_hex(hex)?);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prune::{prune_victim, PruneConfig};
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

    /// The report over `victims` (input order), each with the given peaks
    /// and severity on a 2.5 V supply, at thresholds 0.1 / 0.2.
    fn report_over(db: &ParasiticDb, victims: &[(PNetId, f64, f64, Severity)]) -> ChipReport {
        let clusters: Vec<Cluster> =
            victims.iter().map(|&(v, ..)| prune_victim(db, v, &PruneConfig::default())).collect();
        let verdicts = (victims.iter().zip(&clusters))
            .map(|(&(net, rise_peak, fall_peak, severity), cluster)| NetVerdict {
                net,
                name: db.net(net).name().to_owned(),
                rise_peak,
                fall_peak,
                worst_frac: rise_peak.abs().max(fall_peak.abs()) / 2.5,
                severity,
                cluster_size: cluster.size(),
                neighbors_before: cluster.neighbors_before,
                receiver: None,
            })
            .collect();
        ChipReport::from_verdicts(verdicts, &clusters, 0.1, 0.2)
    }

    /// `cold` then `hot`, in that input order.
    fn cold_and_hot(db: &ParasiticDb, hot: PNetId, cold: PNetId) -> ChipReport {
        report_over(
            db,
            &[(cold, 0.012, -0.011, Severity::Clean), (hot, 0.81, -0.79, Severity::Violation)],
        )
    }

    #[test]
    fn audit_classifies_and_sorts() {
        let (db, hot, cold) = db();
        let report = cold_and_hot(&db, hot, cold);
        assert_eq!(report.verdicts.len(), 2);
        // Sorted worst-first: the hot net leads.
        assert_eq!(report.verdicts[0].name, "hot");
        assert!(report.verdicts[0].worst_frac > report.verdicts[1].worst_frac);
        assert_eq!(report.num_violations(), 1);
        assert_eq!(report.flagged().count(), 1);
        assert_eq!(
            report.pruning,
            PruningStats::compute(&[
                prune_victim(&db, cold, &PruneConfig::default()),
                prune_victim(&db, hot, &PruneConfig::default()),
            ])
        );
        // Ties keep input order, whatever computed them.
        let tied = report_over(
            &db,
            &[(hot, 0.3, 0.0, Severity::Warning), (cold, 0.0, -0.3, Severity::Warning)],
        );
        let names: Vec<&str> = tied.verdicts.iter().map(|v| v.name.as_str()).collect();
        assert_eq!(names, ["hot", "cold"]);
    }

    #[test]
    fn text_report_contains_key_lines() {
        let (db, hot, _) = db();
        let report = report_over(&db, &[(hot, 0.81, -0.79, Severity::Violation)]);
        let text = report.to_text();
        assert!(text.contains("crosstalk audit: 1 victims, 0 warnings, 1 violations"));
        assert!(text.contains("hot"));
        assert!(text.contains("pruning"));
    }

    #[test]
    fn receiver_audit_requires_design() {
        // A receiver audit replays each flagged verdict into its receiving
        // cell; without design data there is no cell to look up.
        let (db, hot, cold) = db();
        let ctx = crate::AnalysisContext::fixed_resistance(&db, 2000.0);
        let report = cold_and_hot(&db, hot, cold);
        assert!(matches!(ctx.receiver_views(), Err(crate::XtalkError::InvalidConfig { .. })));
        assert_eq!(report.flagged().count(), 1);
        for v in report.flagged() {
            let err = ctx.receiver_cell(&v.name);
            assert!(matches!(err, Err(crate::XtalkError::InvalidConfig { .. })), "{}", v.name);
        }
    }

    #[test]
    fn csv_export_has_header_and_rows() {
        let (db, hot, cold) = db();
        let report = cold_and_hot(&db, hot, cold);
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
        let report = cold_and_hot(&db, hot, cold);
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
    fn a_bits_field_is_sixteen_hex_digits() {
        // 1e-300's bits start with a zero digit, which a sign can replace
        // while the decimal beside the field still agrees.
        let v = NetVerdict {
            net: PNetId(3),
            name: "tiny".into(),
            rise_peak: 1e-300,
            fall_peak: 0.5,
            worst_frac: 0.2,
            severity: Severity::Warning,
            cluster_size: 2,
            neighbors_before: 4,
            receiver: None,
        };
        let doc = pcv_trace::json::object(|o| v.write_members(o));
        let read = |doc: &str| NetVerdict::from_json(&pcv_trace::json::parse(doc).unwrap(), 8);
        assert_eq!(read(&doc), Some(v));
        let signed = doc.replace("\"rise_peak_bits\":\"01a5", "\"rise_peak_bits\":\"+1a5");
        assert_ne!(signed, doc);
        assert_eq!(read(&signed), None, "{signed}");
    }

    #[test]
    fn severity_ordering_and_display() {
        assert!(Severity::Clean < Severity::Warning);
        assert!(Severity::Warning < Severity::Violation);
        assert_eq!(Severity::Violation.to_string(), "VIOLATION");
        assert_eq!(Severity::Clean.to_string(), "clean");
    }
}
