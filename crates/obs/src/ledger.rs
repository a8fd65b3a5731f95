//! The run ledger: one append-only JSONL record per engine run, written
//! next to the result cache, giving sign-off runs a cross-run trajectory
//! (wall time, stage split, cache behavior, memory) that per-run traces
//! cannot provide.
//!
//! Records are observational only — nothing reads them back into the
//! verification flow. The schema is versioned and flat so any line-
//! oriented tool (or [`crate::json::parse`]) can consume it.

use pcv_trace::json::{self, Value};
use std::path::{Path, PathBuf};

/// Current ledger schema version. Version 2 added `outcome`,
/// `journal_hits` and `skipped`; version-1 lines still parse with those
/// fields defaulted (`"complete"`, 0, 0).
pub const SCHEMA: u64 = 2;

/// One engine run, as recorded in the ledger.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunRecord {
    /// Configuration fingerprint (the engine's `config_hash`, tag v6).
    pub config_fingerprint: u64,
    /// Fingerprint of the audited chip slice (victim set + netlist shape).
    pub chip_fingerprint: u64,
    /// Victims submitted.
    pub victims: usize,
    /// Worker threads used.
    pub workers: usize,
    /// `std::thread::available_parallelism` on the host that ran it.
    pub host_parallelism: usize,
    /// Verdicts answered from the incremental cache.
    pub cache_hits: usize,
    /// Jobs that ran the full analysis.
    pub cache_misses: usize,
    /// Verdicts replayed from the checkpoint journal (resumed runs).
    pub journal_hits: usize,
    /// Clusters skipped by a cooperative stop (no verdict recorded).
    pub skipped: usize,
    /// How the run ended: `"complete"` or `"stopped"` (resumable).
    pub outcome: String,
    /// Verdicts produced by a recovery rung above baseline.
    pub degraded: usize,
    /// Failed-job records.
    pub errors: usize,
    /// Wall-clock time of the run, milliseconds.
    pub wall_ms: f64,
    /// Summed pruning time across workers, milliseconds.
    pub prune_ms: f64,
    /// Summed glitch-analysis time across workers, milliseconds.
    pub analysis_ms: f64,
    /// Summed receiver-check time across workers, milliseconds.
    pub receiver_ms: f64,
    /// Summed time inside failed recovery-ladder attempts, milliseconds —
    /// the cost of recovery itself, attributable thanks to per-attempt
    /// durations.
    pub recovery_ms: f64,
    /// Peak live bytes during the process (0 when allocation tracking is
    /// off).
    pub peak_alloc_bytes: u64,
    /// Allocations recorded (0 when tracking is off).
    pub allocs: u64,
}

impl RunRecord {
    /// Render as one JSONL line (no trailing newline). Fingerprints are
    /// hex strings so they survive JSON's f64 numbers unscathed.
    pub fn to_json(&self) -> String {
        // Room for every member, so a run's line costs one allocation
        // whatever its timings read.
        let mut out = String::with_capacity(640);
        json::write_object(&mut out, |o| {
            o.raw("schema", SCHEMA).hex("config_fingerprint", self.config_fingerprint);
            o.hex("chip_fingerprint", self.chip_fingerprint).raw("victims", self.victims);
            o.raw("workers", self.workers).raw("host_parallelism", self.host_parallelism);
            o.raw("cache_hits", self.cache_hits).raw("cache_misses", self.cache_misses);
            o.raw("journal_hits", self.journal_hits).raw("skipped", self.skipped);
            o.str("outcome", &self.outcome).raw("degraded", self.degraded);
            o.raw("errors", self.errors);
            o.f64("wall_ms", self.wall_ms).f64("prune_ms", self.prune_ms);
            o.f64("analysis_ms", self.analysis_ms).f64("receiver_ms", self.receiver_ms);
            o.f64("recovery_ms", self.recovery_ms);
            o.raw("peak_alloc_bytes", self.peak_alloc_bytes).raw("allocs", self.allocs);
        });
        out
    }

    /// Parse one ledger line back into a record. Returns `None` for
    /// malformed lines or unknown schema versions — a ledger reader must
    /// skip what it cannot understand, never fail the run.
    pub fn parse(line: &str) -> Option<RunRecord> {
        let v = json::parse(line.trim()).ok()?;
        let schema = v.get("schema")?.as_u64()?;
        if schema == 0 || schema > SCHEMA {
            return None;
        }
        let hex = |key: &str| -> Option<u64> { pcv_trace::parse_hex(v.get(key)?.as_str()?) };
        let uint = |key: &str| v.get(key).and_then(Value::as_u64);
        let ms = |key: &str| v.get(key).and_then(Value::as_f64);
        Some(RunRecord {
            config_fingerprint: hex("config_fingerprint")?,
            chip_fingerprint: hex("chip_fingerprint")?,
            victims: uint("victims")? as usize,
            workers: uint("workers")? as usize,
            host_parallelism: uint("host_parallelism")? as usize,
            cache_hits: uint("cache_hits")? as usize,
            cache_misses: uint("cache_misses")? as usize,
            // Durability fields arrived in schema 2; default them for v1.
            journal_hits: uint("journal_hits").unwrap_or(0) as usize,
            skipped: uint("skipped").unwrap_or(0) as usize,
            outcome: v.get("outcome").and_then(Value::as_str).unwrap_or("complete").to_owned(),
            degraded: uint("degraded")? as usize,
            errors: uint("errors")? as usize,
            wall_ms: ms("wall_ms")?,
            prune_ms: ms("prune_ms")?,
            analysis_ms: ms("analysis_ms")?,
            receiver_ms: ms("receiver_ms")?,
            recovery_ms: ms("recovery_ms")?,
            peak_alloc_bytes: uint("peak_alloc_bytes")?,
            allocs: uint("allocs")?,
        })
    }
}

/// The ledger an engine run over the cache at `cache` appends to:
/// `<cache>.ledger.jsonl`.
pub fn path_for(cache: &Path) -> PathBuf {
    let mut os = cache.as_os_str().to_owned();
    os.push(".ledger.jsonl");
    PathBuf::from(os)
}

/// Read every parseable record from a ledger file, and count the lines
/// that could not be parsed (skipped, never an error) — a non-zero count
/// usually means the final line was torn by a crash mid-append (the
/// journal/ledger recovery path) or the file was written by a newer schema.
/// Blank lines are ignored, not counted.
pub fn scan(path: &Path) -> (Vec<RunRecord>, usize) {
    let Ok(text) = std::fs::read_to_string(path) else {
        return (Vec::new(), 0);
    };
    let mut records = Vec::new();
    let mut skipped = 0usize;
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        match RunRecord::parse(line) {
            Some(rec) => records.push(rec),
            None => skipped += 1,
        }
    }
    (records, skipped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn sample() -> RunRecord {
        RunRecord {
            config_fingerprint: 0xdead_beef_0123_4567,
            chip_fingerprint: 0x0bad_cafe_89ab_cdef,
            victims: 42,
            workers: 4,
            host_parallelism: 8,
            cache_hits: 30,
            cache_misses: 12,
            journal_hits: 5,
            skipped: 1,
            outcome: "stopped".to_owned(),
            degraded: 2,
            errors: 1,
            wall_ms: 123.5,
            prune_ms: 10.25,
            analysis_ms: 88.0,
            receiver_ms: 4.75,
            recovery_ms: 9.125,
            peak_alloc_bytes: 1_234_567,
            allocs: 98_765,
        }
    }

    #[test]
    fn record_line_is_pinned() {
        let v1 = RunRecord { outcome: "complete".into(), ..RunRecord::default() };
        assert_eq!(
            [sample().to_json(), v1.to_json()],
            [
                concat!(
                    "{\"schema\":2,\"config_fingerprint\":\"deadbeef01234567\"",
                    ",\"chip_fingerprint\":\"0badcafe89abcdef\",\"victims\":42",
                    ",\"workers\":4,\"host_parallelism\":8,\"cache_hits\":30",
                    ",\"cache_misses\":12,\"journal_hits\":5,\"skipped\":1",
                    ",\"outcome\":\"stopped\",\"degraded\":2,\"errors\":1",
                    ",\"wall_ms\":123.5,\"prune_ms\":10.25,\"analysis_ms\":88.0",
                    ",\"receiver_ms\":4.75,\"recovery_ms\":9.125",
                    ",\"peak_alloc_bytes\":1234567,\"allocs\":98765}",
                ),
                concat!(
                    "{\"schema\":2,\"config_fingerprint\":\"0000000000000000\"",
                    ",\"chip_fingerprint\":\"0000000000000000\",\"victims\":0,\"workers\":0",
                    ",\"host_parallelism\":0,\"cache_hits\":0,\"cache_misses\":0",
                    ",\"journal_hits\":0,\"skipped\":0,\"outcome\":\"complete\"",
                    ",\"degraded\":0,\"errors\":0,\"wall_ms\":0.0",
                    ",\"prune_ms\":0.0,\"analysis_ms\":0.0,\"receiver_ms\":0.0",
                    ",\"recovery_ms\":0.0,\"peak_alloc_bytes\":0,\"allocs\":0}",
                ),
            ]
        );
    }

    #[test]
    fn record_round_trips_through_parse() {
        let rec = sample();
        let line = rec.to_json();
        assert!(!line.contains('\n'), "a record is one JSONL line");
        assert_eq!(RunRecord::parse(&line), Some(rec));
    }

    #[test]
    fn a_line_that_still_carries_steals_parses() {
        // Ledgers written while the pool stole work have a `steals` member.
        let line = sample().to_json().replace(",\"wall_ms\"", ",\"steals\":17,\"wall_ms\"");
        assert!(line.contains("\"steals\":17"));
        assert_eq!(RunRecord::parse(&line), Some(sample()));
    }

    #[test]
    fn a_fingerprint_is_hex_digits_only() {
        let line = sample().to_json();
        assert_eq!(RunRecord::parse(&line), Some(sample()));
        let signed = line.replace("\"0badcafe89abcdef\"", "\"+badcafe89abcdef\"");
        assert_ne!(signed, line);
        assert_eq!(RunRecord::parse(&signed), None, "{signed}");
    }

    #[test]
    fn unknown_schema_and_garbage_are_skipped() {
        assert_eq!(RunRecord::parse("not json"), None);
        assert_eq!(RunRecord::parse("{\"schema\":999}"), None);
        let truncated = "{\"schema\":1,\"victims\":3}";
        assert_eq!(RunRecord::parse(truncated), None);
    }

    #[test]
    fn append_accumulates_lines() {
        let dir = std::env::temp_dir().join("pcv-obs-ledger-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ledger.jsonl");
        let _ = std::fs::remove_file(&path);
        let mut rec = sample();
        let append = |rec: &RunRecord| {
            let mut f = std::fs::OpenOptions::new().create(true).append(true).open(&path).unwrap();
            writeln!(f, "{}", rec.to_json()).unwrap();
        };
        append(&rec);
        rec.victims = 43;
        append(&rec);
        let all = scan(&path).0;
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].victims, 42);
        assert_eq!(all[1].victims, 43);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn read_all_skips_bad_lines() {
        let dir = std::env::temp_dir().join("pcv-obs-ledger-mixed");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ledger.jsonl");
        let mut text = String::from("garbage line\n");
        text.push_str(&sample().to_json());
        text.push('\n');
        std::fs::write(&path, text).unwrap();
        assert_eq!(scan(&path).0.len(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn schema_v1_lines_parse_with_defaulted_durability_fields() {
        // A pre-durability (schema 1) record, verbatim from an old ledger.
        let v1 = "{\"schema\":1,\"config_fingerprint\":\"00000000000000aa\",\
                  \"chip_fingerprint\":\"00000000000000bb\",\"victims\":3,\"workers\":2,\
                  \"host_parallelism\":4,\"cache_hits\":1,\"cache_misses\":2,\"degraded\":0,\
                  \"errors\":0,\"steals\":5,\"wall_ms\":1.5,\"prune_ms\":0.5,\
                  \"analysis_ms\":0.75,\"receiver_ms\":0.25,\"recovery_ms\":0,\
                  \"peak_alloc_bytes\":0,\"allocs\":0}";
        let rec = RunRecord::parse(v1).expect("v1 line parses");
        assert_eq!(rec.journal_hits, 0);
        assert_eq!(rec.skipped, 0);
        assert_eq!(rec.outcome, "complete");
        assert_eq!(rec.victims, 3);
    }

    #[test]
    fn scan_counts_a_torn_final_line() {
        let dir = std::env::temp_dir().join("pcv-obs-ledger-torn");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ledger.jsonl");
        let full = sample().to_json();
        // Simulate a crash mid-append: the last record is cut short.
        let torn = &full[..full.len() / 2];
        std::fs::write(&path, format!("{full}\n{torn}")).unwrap();
        let (records, skipped) = scan(&path);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0], sample());
        assert_eq!(skipped, 1);
        let _ = std::fs::remove_file(&path);
    }
}
