//! On-disk incremental result cache.
//!
//! One [record](crate::record) per victim net, filed by name and guarded
//! by the cluster [fingerprint](crate::fingerprint): a hit requires the
//! stored fingerprint to match the one recomputed from the current
//! database, so any edit that could change the verdict — a coupling
//! capacitor, wire RC, a driver cell, an analysis knob — invalidates
//! exactly the entries it touches. Only healthy records are stored: a
//! verdict from a recovery rung must be recomputed next run, otherwise
//! cold and warm reports would diverge.
//!
//! The store is a line-oriented text file (`pcv-engine-cache v2`), one
//! record cache line each, bit-exact and crash-safe end to end: every
//! entry line carries a CRC32 of its fields, the file ends in a `#footer`
//! line (entry count + whole-body CRC), and saves go through the atomic
//! write-temp + fsync + rename path in [`crate::fs`]. Loading is
//! tolerant: a missing file is an empty cache, a v1 (or foreign) header
//! loads as empty, CRC-damaged lines are skipped and counted, and a
//! missing or mismatching footer flags the load as torn while the intact
//! lines still count — so a corrupt store degrades to cache misses, never
//! to wrong verdicts.

use crate::fs::{crc32, Fs};
use crate::record::JournalEntry;
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::path::Path;

/// Header line of the store format.
const HEADER: &str = "pcv-engine-cache v2";

/// Prefix of the file-level integrity footer.
const FOOTER_PREFIX: &str = "#footer ";

/// What a cache load found on disk — surfaced so callers (and chaos
/// drills) can tell a clean store from a damaged-but-recovered one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheLoadStats {
    /// Entries that loaded intact.
    pub entries: usize,
    /// Lines dropped for CRC or parse damage.
    pub skipped: usize,
    /// The integrity footer was missing, unparseable, or did not match —
    /// the signature of a torn (interrupted) write.
    pub torn: bool,
}

/// A record ordered and looked up by its own name, so the store holds each
/// name once and iterates in the order the file is written.
#[derive(Debug, Clone)]
struct ByName(JournalEntry);

impl Borrow<str> for ByName {
    fn borrow(&self) -> &str {
        &self.0.name
    }
}

impl Ord for ByName {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.name.cmp(&other.0.name)
    }
}

impl PartialOrd for ByName {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for ByName {
    fn eq(&self, other: &Self) -> bool {
        self.0.name == other.0.name
    }
}

impl Eq for ByName {}

/// In-memory cache: the healthy record of each victim net, by name.
#[derive(Debug, Clone, Default)]
pub struct ResultCache {
    entries: BTreeSet<ByName>,
}

impl ResultCache {
    /// Empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Look up an entry by victim name **and** fingerprint; a stale
    /// fingerprint is a miss.
    pub fn lookup(&self, name: &str, fingerprint: u64) -> Option<&JournalEntry> {
        self.entries.get(name).map(|e| &e.0).filter(|e| e.fingerprint == fingerprint)
    }

    /// Insert or replace the entry for `entry.name`. A degraded record is
    /// not stored (see the [module docs](self)); whatever the store held
    /// for that name stays.
    pub fn insert(&mut self, entry: JournalEntry) {
        if entry.degraded.is_none() {
            self.entries.replace(ByName(entry));
        }
    }

    /// Load a cache through `fs`, reporting what was found. A missing
    /// file or a non-v2 header yields an empty cache; damaged lines are
    /// skipped and counted.
    pub fn load_with(fs: &Fs, path: &Path) -> (Self, CacheLoadStats) {
        let mut cache = Self::new();
        let mut stats = CacheLoadStats::default();
        let Ok(text) = fs.read_to_string(path) else {
            return (cache, stats);
        };
        let mut lines: Vec<&str> = text.lines().collect();
        if lines.first() != Some(&HEADER) {
            return (cache, stats);
        }
        let footer = if lines.last().is_some_and(|l| l.starts_with(FOOTER_PREFIX)) {
            lines.pop()
        } else {
            None
        };
        let entry_lines = &lines[1..];
        for line in entry_lines {
            match JournalEntry::from_cache_line(line) {
                Some(entry) => cache.insert(entry),
                None => stats.skipped += 1,
            }
        }
        stats.entries = cache.len();
        stats.torn = match footer.and_then(parse_footer) {
            Some((count, crc)) => {
                // Re-derive the body exactly as it was written; an intact
                // file reproduces it byte for byte.
                let mut body = String::with_capacity(HEADER.len() + 1 + text.len());
                body.push_str(HEADER);
                body.push('\n');
                for line in entry_lines {
                    body.push_str(line);
                    body.push('\n');
                }
                count != entry_lines.len() || crc32(body.as_bytes()) != crc
            }
            None => true,
        };
        (cache, stats)
    }

    /// Write the cache through `fs`: CRC per entry line, an integrity
    /// footer, and an atomic replace of the destination — a reader never
    /// observes a half-written store. Entries are sorted by victim name so
    /// the file is stable across runs.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures — a failed save leaves any previous store
    /// intact and only costs future hits.
    pub fn save_with(&self, fs: &Fs, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(80 * (2 + self.entries.len()));
        out.push_str(HEADER);
        out.push('\n');
        for entry in &self.entries {
            entry.0.write_cache_line(&mut out);
        }
        let footer =
            format!("{FOOTER_PREFIX}{} {:08x}\n", self.entries.len(), crc32(out.as_bytes()));
        out.push_str(&footer);
        fs.write_atomic(path, out.as_bytes())
    }
}

/// Parse the footer line: `#footer <count> <crc32 hex>`.
fn parse_footer(line: &str) -> Option<(usize, u32)> {
    let mut f = line.strip_prefix(FOOTER_PREFIX)?.split(' ');
    let count = f.next()?.parse().ok()?;
    let crc = pcv_trace::parse_hex(f.next()?)?;
    if f.next().is_some() {
        return None;
    }
    Some((count, crc))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcv_xtalk::ReceiverVerdict;

    #[test]
    fn a_footer_crc_is_hex_digits_only() {
        assert_eq!(parse_footer("#footer 3 0abcdef1"), Some((3, 0x0abc_def1)));
        assert_eq!(parse_footer("#footer 3 +abcdef1"), None);
    }

    /// A valid v2 entry line for hand-built store fixtures.
    fn line(body: &str) -> String {
        format!("{body}\t{:08x}", crc32(body.as_bytes()))
    }

    /// A hand-built store with the given entry lines and a correct footer.
    fn store(entry_lines: &[String]) -> String {
        let mut out = format!("{HEADER}\n");
        for l in entry_lines {
            out.push_str(l);
            out.push('\n');
        }
        out.push_str(&format!(
            "{FOOTER_PREFIX}{} {:08x}\n",
            entry_lines.len(),
            crc32(out.as_bytes())
        ));
        out
    }

    fn sample() -> ResultCache {
        let mut c = ResultCache::new();
        c.insert(JournalEntry::new("bus0_1", 0xdead_beef, 0.31, -0.07, None, None));
        let rx = ReceiverVerdict { cell: "INVX4".into(), output_peak: -1.2, propagates: true };
        c.insert(JournalEntry::new("acc_q3", 1, 0.6, -0.58, Some(rx), None));
        c
    }

    #[test]
    fn roundtrip_is_bit_exact_and_clean() {
        let dir = std::env::temp_dir().join("pcv-engine-cache-test-rt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store");
        let c = sample();
        c.save_with(&Fs::real(), &path).unwrap();
        let (back, stats) = ResultCache::load_with(&Fs::real(), &path);
        assert_eq!(back.len(), 2);
        assert_eq!(stats, CacheLoadStats { entries: 2, skipped: 0, torn: false });
        assert_eq!(back.lookup("bus0_1", 0xdead_beef), c.lookup("bus0_1", 0xdead_beef));
        assert_eq!(back.lookup("acc_q3", 1), c.lookup("acc_q3", 1));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_fingerprint_misses() {
        let c = sample();
        assert!(c.lookup("bus0_1", 0xdead_beef).is_some());
        assert!(c.lookup("bus0_1", 0xdead_bee0).is_none());
        assert!(c.lookup("absent", 0xdead_beef).is_none());
    }

    #[test]
    fn missing_file_is_empty_cache() {
        let c = ResultCache::load_with(&Fs::real(), Path::new("/nonexistent/pcv-engine-cache")).0;
        assert!(c.is_empty());
    }

    #[test]
    fn malformed_and_crc_damaged_lines_are_skipped() {
        let good = line("w1\t0000000000000001\t0000000000000002\t0000000000000003\t-\t-\t-");
        // A valid body whose recorded CRC is wrong: one flipped store bit.
        let bad_crc = format!("{}\tdeadbeef", "w9\t1\t2\t3\t-\t-\t-");
        let text = store(&[
            good,
            "not a line".into(),
            line("w2\tzz\t0\t0\t-\t-\t-"),
            line("\t1\t2\t3\t-\t-\t-"),
            bad_crc,
        ]);
        let dir = std::env::temp_dir().join("pcv-engine-cache-test-bad");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store");
        std::fs::write(&path, text).unwrap();
        let (c, stats) = ResultCache::load_with(&Fs::real(), &path);
        assert_eq!(c.len(), 1);
        assert!(c.lookup("w1", 1).is_some());
        assert_eq!(stats.skipped, 4);
        assert!(!stats.torn, "the footer still matched the bytes on disk");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn non_finite_bit_patterns_are_misses() {
        let nan = f64::NAN.to_bits();
        let inf = f64::INFINITY.to_bits();
        let fin = 0.25_f64.to_bits();
        let text = store(&[
            line(&format!("w1\t1\t{nan:016x}\t{fin:016x}\t-\t-\t-")),
            line(&format!("w2\t1\t{fin:016x}\t{inf:016x}\t-\t-\t-")),
            line(&format!("w3\t1\t{fin:016x}\t{fin:016x}\tINVX1\t{nan:016x}\t1")),
            line(&format!("w4\t1\t{fin:016x}\t{fin:016x}\t-\t-\t-")),
        ]);
        let dir = std::env::temp_dir().join("pcv-engine-cache-test-nonfinite");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store");
        std::fs::write(&path, text).unwrap();
        let c = ResultCache::load_with(&Fs::real(), &path).0;
        assert_eq!(c.len(), 1, "only the all-finite entry survives");
        assert!(c.lookup("w4", 1).is_some());
        for poisoned in ["w1", "w2", "w3"] {
            assert!(c.lookup(poisoned, 1).is_none(), "{poisoned} must be a miss");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn old_and_foreign_headers_load_as_empty() {
        let dir = std::env::temp_dir().join("pcv-engine-cache-test-hdr");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store");
        // The v1 format had no line CRCs; it is versioned out, not parsed.
        std::fs::write(&path, "pcv-engine-cache v1\nw1\t1\t2\t3\t-\t-\t-\n").unwrap();
        assert!(ResultCache::load_with(&Fs::real(), &path).0.is_empty());
        std::fs::write(&path, "pcv-engine-cache v999\nw1\t1\t2\t3\t-\t-\t-\n").unwrap();
        assert!(ResultCache::load_with(&Fs::real(), &path).0.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_store_is_torn_but_intact_lines_survive() {
        let dir = std::env::temp_dir().join("pcv-engine-cache-test-torn");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store");
        sample().save_with(&Fs::real(), &path).unwrap();
        // Chop the file mid-way: the footer (and part of a line) is lost.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() * 2 / 3]).unwrap();
        let (c, stats) = ResultCache::load_with(&Fs::real(), &path);
        assert!(stats.torn, "a chopped store must read as torn");
        assert!(c.len() < 2, "the damaged tail cannot load fully");
        let original = sample();
        for ByName(entry) in &c.entries {
            assert_eq!(
                Some(entry),
                original.lookup(&entry.name, entry.fingerprint),
                "survivors are intact"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn footer_count_mismatch_reads_as_torn() {
        let good = line("w1\t1\t2\t3\t-\t-\t-");
        let mut text = store(std::slice::from_ref(&good));
        // Claim two entries where one exists.
        text = text.replace(&format!("{FOOTER_PREFIX}1 "), &format!("{FOOTER_PREFIX}2 "));
        let dir = std::env::temp_dir().join("pcv-engine-cache-test-count");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store");
        std::fs::write(&path, text).unwrap();
        let (c, stats) = ResultCache::load_with(&Fs::real(), &path);
        assert_eq!(c.len(), 1, "the intact line still loads");
        assert!(stats.torn);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_short_write_is_detected_on_load() {
        use crate::fault::Plan;
        use crate::fs::FsFaultKind;
        let dir = std::env::temp_dir().join("pcv-engine-cache-test-chaos");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store");
        let fs = Fs::with_faults(Plan::new().at(path.display(), 1, FsFaultKind::ShortWrite));
        sample().save_with(&fs, &path).unwrap();
        let (_, stats) = ResultCache::load_with(&fs, &path);
        assert!(stats.torn, "the torn save must not read back clean");
        std::fs::remove_dir_all(&dir).ok();
    }
}
