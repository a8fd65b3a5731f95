//! The cluster record: what one victim's analysis leaves behind, bit for
//! bit, and the only code that knows how it is spelled.
//!
//! Every path a result travels — the incremental cache, the checkpoint
//! journal, a shard's harvest, a replay — carries this one type
//! ([`JournalEntry`]; the name predates its wider use). A record is built
//! from a finished analysis by [`JournalEntry::new`] (or, when every
//! analysis failed, [`JournalEntry::worst_case`]) and turned into the
//! report's [`NetVerdict`] by [`JournalEntry::verdict`], whether it was
//! computed a moment ago or read back from disk.
//!
//! Two crate-private text adapters persist it: the tab-separated **cache
//! line** ([`crate::cache::ResultCache`] adds header and footer) and the
//! JSON **journal payload** ([`crate::durable::Journal`] adds the CRC
//! frame); DESIGN.md §6 tabulates the bytes. Both readers are equally
//! strict: a peak whose bits decode to NaN/∞, a flag that is not a flag,
//! an unknown rung or a missing field rejects the whole line, which the
//! caller counts as skipped and recomputes.

use crate::fs::crc32;
use crate::recovery::{Attempt, Degradation, RecoveryRung, Trail};
use pcv_netlist::PNetId;
use pcv_trace::json::{self, Value};
use pcv_xtalk::prune::Cluster;
use pcv_xtalk::{NetVerdict, ReceiverVerdict, Severity};
use std::fmt::Write;

/// One cluster's stored result — the exact bits needed to reconstruct its
/// [`NetVerdict`] and degradation record without re-running the analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalEntry {
    /// Victim net name.
    pub name: String,
    /// Cluster fingerprint at the time the verdict was computed; adopting
    /// the record requires it to match the current one.
    pub fingerprint: u64,
    /// Worst rising peak, as `f64` bits.
    pub rise_bits: u64,
    /// Worst falling peak, as `f64` bits.
    pub fall_bits: u64,
    /// Receiver check outcome, when one ran.
    pub receiver: Option<ReceiverVerdict>,
    /// Degradation trail, when the verdict came from a rung above
    /// baseline.
    pub degraded: Option<Trail>,
}

/// A stored peak: the hex digits of an `f64`'s bits. The engine never
/// stores a non-finite peak, so a pattern that parses but decodes to
/// NaN/∞ is corruption that slipped past the CRC — rejected rather than
/// allowed to poison a verdict.
fn peak_bits(hex: &str) -> Option<u64> {
    pcv_trace::parse_hex(hex).filter(|&bits: &u64| f64::from_bits(bits).is_finite())
}

impl JournalEntry {
    /// The record of a finished analysis of the cluster fingerprinted
    /// `fingerprint`: its peaks (volts), receiver check, and — when the
    /// result stood at a rung above baseline — the trail that led there.
    pub fn new(
        name: &str,
        fingerprint: u64,
        rise: f64,
        fall: f64,
        receiver: Option<ReceiverVerdict>,
        degraded: Option<Trail>,
    ) -> JournalEntry {
        JournalEntry {
            name: name.to_owned(),
            fingerprint,
            rise_bits: rise.to_bits(),
            fall_bits: fall.to_bits(),
            receiver,
            degraded,
        }
    }

    /// The conservative record of a cluster nothing could analyze:
    /// rail-to-rail peaks (`rise = vdd`, `fall = -vdd`, so the verdict is
    /// a violation at `worst_frac = 1.0`), no receiver check, and
    /// `attempts` as the trail to [`RecoveryRung::WorstCase`].
    pub fn worst_case(name: &str, fingerprint: u64, vdd: f64, attempts: Vec<Attempt>) -> Self {
        let trail = Trail { recovered: RecoveryRung::WorstCase, attempts };
        JournalEntry::new(name, fingerprint, vdd, -vdd, None, Some(trail))
    }

    /// The verdict (and degradation, if any) this record stands for, as
    /// victim `net` of a chip whose pruned cluster is `cluster`, classified
    /// against the run's thresholds.
    pub fn verdict(
        &self,
        net: PNetId,
        cluster: &Cluster,
        vdd: f64,
        warn_frac: f64,
        fail_frac: f64,
    ) -> (NetVerdict, Option<Degradation>) {
        let (rise_peak, fall_peak) =
            (f64::from_bits(self.rise_bits), f64::from_bits(self.fall_bits));
        let (worst_frac, severity) =
            Severity::classify(rise_peak, fall_peak, vdd, warn_frac, fail_frac);
        let verdict = NetVerdict {
            net,
            name: self.name.clone(),
            rise_peak,
            fall_peak,
            worst_frac,
            severity,
            cluster_size: cluster.size(),
            neighbors_before: cluster.neighbors_before,
            receiver: self.receiver.clone(),
        };
        let degradation = self.degraded.as_ref().map(|trail| Degradation {
            net,
            name: self.name.clone(),
            trail: trail.clone(),
        });
        (verdict, degradation)
    }

    /// Append this record as one cache line (CRC and newline included).
    /// The trail, if any, is not written: see [`crate::cache`].
    pub(crate) fn write_cache_line(&self, out: &mut String) {
        let start = out.len();
        let _ = write!(
            out,
            "{}\t{:016x}\t{:016x}\t{:016x}\t",
            self.name, self.fingerprint, self.rise_bits, self.fall_bits
        );
        let _ = match &self.receiver {
            Some(r) => write!(
                out,
                "{}\t{:016x}\t{}",
                r.cell,
                r.output_peak.to_bits(),
                if r.propagates { "1" } else { "0" }
            ),
            None => write!(out, "-\t-\t-"),
        };
        let crc = crc32(&out.as_bytes()[start..]);
        let _ = writeln!(out, "\t{crc:08x}");
    }

    /// Parse one cache line; `None` for malformed or CRC-damaged input.
    pub(crate) fn from_cache_line(line: &str) -> Option<JournalEntry> {
        // The trailing field is the CRC of everything before it.
        let (body, crc_hex) = line.rsplit_once('\t')?;
        if pcv_trace::parse_hex::<u32>(crc_hex)? != crc32(body.as_bytes()) {
            return None;
        }
        let mut f = body.split('\t');
        let name = f.next().filter(|n| !n.is_empty())?;
        let fingerprint = pcv_trace::parse_hex(f.next()?)?;
        let rise_bits = peak_bits(f.next()?)?;
        let fall_bits = peak_bits(f.next()?)?;
        let receiver = match (f.next()?, f.next()?, f.next()?) {
            ("-", "-", "-") => None,
            (cell, peak, prop) => Some(ReceiverVerdict {
                cell: cell.to_owned(),
                output_peak: f64::from_bits(peak_bits(peak)?),
                propagates: match prop {
                    "1" => true,
                    "0" => false,
                    _ => return None,
                },
            }),
        };
        if f.next().is_some() {
            return None;
        }
        Some(JournalEntry {
            name: name.to_owned(),
            fingerprint,
            rise_bits,
            fall_bits,
            receiver,
            degraded: None,
        })
    }

    /// Render as the journal's JSON payload (one line, unframed).
    pub(crate) fn to_journal_json(&self) -> String {
        json::object(|o| {
            o.str("kind", "cluster").str("name", &self.name).hex("fp", self.fingerprint);
            o.hex("rise", self.rise_bits).hex("fall", self.fall_bits);
            match &self.receiver {
                Some(r) => o.obj("receiver", |o| {
                    o.str("cell", &r.cell).hex("peak", r.output_peak.to_bits());
                    o.raw("propagates", r.propagates);
                }),
                None => o.raw("receiver", "null"),
            };
            match &self.degraded {
                Some(trail) => o.obj("degraded", |o| trail.write_members(o)),
                None => o.raw("degraded", "null"),
            };
        })
    }

    /// Parse a journal cluster payload; `None` for anything malformed (the
    /// caller counts it as skipped).
    pub(crate) fn from_journal_json(v: &Value) -> Option<JournalEntry> {
        let receiver = match v.get("receiver")? {
            Value::Null => None,
            r => Some(ReceiverVerdict {
                cell: r.get("cell")?.as_str()?.to_owned(),
                output_peak: f64::from_bits(peak_bits(r.get("peak")?.as_str()?)?),
                propagates: match r.get("propagates")? {
                    Value::Bool(b) => *b,
                    _ => return None,
                },
            }),
        };
        let degraded = match v.get("degraded")? {
            Value::Null => None,
            d => Some(Trail::from_json(d)?),
        };
        Some(JournalEntry {
            name: v.get("name")?.as_str()?.to_owned(),
            fingerprint: pcv_trace::parse_hex(v.get("fp")?.as_str()?)?,
            rise_bits: peak_bits(v.get("rise")?.as_str()?)?,
            fall_bits: peak_bits(v.get("fall")?.as_str()?)?,
            receiver,
            degraded,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stored_peak_is_hex_digits_only() {
        assert_eq!(peak_bits("3ff0000000000000"), Some(0x3ff0_0000_0000_0000));
        for hostile in ["+3ff0000000000000", "+0", " 3ff0000000000000", ""] {
            assert_eq!(peak_bits(hostile), None, "{hostile:?}");
        }
    }
}
