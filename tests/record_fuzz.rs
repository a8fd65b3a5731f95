//! A seeded mutation fuzzer of the engine's three on-disk record readers:
//! the checkpoint journal through [`Journal::load`] (CRC-framed JSON lines
//! under a header record), the result cache through
//! [`ResultCache::load_with`] (a header, CRC'd entry lines and an integrity
//! footer) and the run ledger through [`RunRecord::parse`] (one JSON record
//! a line). The seeds are files the workspace's own writers produced. Every
//! mutation must end in a typed result — what loaded and what was skipped —
//! never a panic or a hang, and a load may allocate no more than
//! 64 bytes per input byte plus 64 KiB, whatever a damaged record declares.
//!
//! Alone in its binary: it installs the tracking allocator.

use pcv_engine::{Attempt, Fs, Journal, JournalEntry, RecoveryRung, ResultCache, Trail};
use pcv_obs::{mem, RunRecord, TrackingAlloc};
use pcv_rng::Rng;
use pcv_xtalk::ReceiverVerdict;
use std::path::{Path, PathBuf};
use std::time::Duration;

#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc::system();

/// Four verdict records: plain, with a receiver verdict, degraded with a
/// trail (and a name and numbers a codec can get wrong), and all zeros.
fn entries() -> Vec<JournalEntry> {
    let receiver =
        Some(ReceiverVerdict { cell: "NAND2X2".into(), output_peak: -0.0, propagates: true });
    let trail = Trail {
        recovered: RecoveryRung::SofterNewton,
        attempts: vec![Attempt {
            rung: RecoveryRung::Baseline,
            reason: "reduced transient: budget exhausted at t = 1.5e-9 \"s\"\n".into(),
            elapsed: Duration::from_micros(1234),
        }],
    };
    vec![
        JournalEntry::new("bus0[3]", 0xfeed, 0.123, -0.0625, None, None),
        JournalEntry::new("g7_w2", 0x0123_4567_89ab_cdef, 0.5, -5e-324, receiver, None),
        JournalEntry::new("n\u{e9} \"q\"\\", u64::MAX, f64::MAX, -1e-300, None, Some(trail)),
        JournalEntry::new("a", 0, 0.0, 0.0, None, None),
    ]
}

/// The three seed files, as their writers put them on disk.
fn seeds(dir: &Path) -> [(&'static str, Vec<u8>); 3] {
    let fs = Fs::real();
    let journal_path = dir.join("seed.journal");
    let journal = Journal::begin(&fs, &journal_path, 0x7, 0x9).unwrap();
    let mut cache = ResultCache::new();
    for entry in entries() {
        journal.record(&entry).unwrap();
        cache.insert(entry);
    }
    let cache_path = dir.join("seed.cache");
    cache.save_with(&fs, &cache_path).unwrap();

    let ledger = [
        RunRecord {
            config_fingerprint: 0xdead_beef,
            chip_fingerprint: u64::MAX,
            victims: 2048,
            workers: 2,
            outcome: "complete".into(),
            wall_ms: 1.5e3,
            peak_alloc_bytes: 1 << 40,
            ..RunRecord::default()
        },
        RunRecord {
            outcome: "stopped".into(),
            skipped: 7,
            recovery_ms: 0.25,
            ..RunRecord::default()
        },
    ];
    let ledger: String = ledger.iter().map(|r| r.to_json() + "\n").collect();
    [
        ("journal", std::fs::read(&journal_path).unwrap()),
        ("cache", std::fs::read(&cache_path).unwrap()),
        ("ledger", ledger.into_bytes()),
    ]
}

/// One seeded mutation: a truncation, a lost or doubled span, or a hostile
/// token inserted or in place of a span.
fn mutate(input: &[u8], rng: &mut Rng) -> Vec<u8> {
    const TOKENS: &[&[u8]] = &[
        b"\n",
        b"\r\n",
        b" ",
        b"00000000 ",
        b"ffffffff ",
        b"-1 ",
        b"+0",
        b"#footer ",
        b"#footer 18446744073709551616 0\n",
        b"#footer 4 ffffffff\n",
        b"pcv-engine-cache v2\n",
        b"pcv-engine-cache v1\n",
        b"{\"kind\":\"run\",\"config\":\"7\",\"chip\":\"9\"}",
        b"{\"kind\":\"cluster\"}",
        b"\"schema\":3",
        b"\"schema\":1",
        b"\"\":",
        b"{",
        b"}",
        b"[[[[[[[[",
        b"\"",
        b"\\u",
        b"1e999",
        b"-0x1",
        b"18446744073709551616",
        b"\0",
        b"\xff\xfe",
        "é".as_bytes(),
    ];
    let (x, y) = (rng.range_usize(0, input.len() + 1), rng.range_usize(0, input.len() + 1));
    let (a, b) = (x.min(y), x.min(y) + (x.max(y) - x.min(y)).min(24));
    let token = TOKENS[rng.range_usize(0, TOKENS.len())];
    match rng.range_usize(0, 8) {
        0 => input[..a].to_vec(),
        1 | 2 => [&input[..a], &input[b..]].concat(),
        3 => [&input[..b], &input[a..b], &input[b..]].concat(),
        4 | 5 => [&input[..a], token, &input[a..]].concat(),
        _ => [&input[..a], token, &input[b..]].concat(),
    }
}

/// Bytes this thread allocated while `f` ran, and what it returned.
fn allocated<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = mem::thread_totals().0;
    let out = f();
    (mem::thread_totals().0 - before, out)
}

/// What one decode made of its input: records loaded and lines skipped.
fn decode(kind: &str, input: &[u8], path: &Path) -> (usize, usize) {
    let fs = Fs::real();
    let lines = input.split(|&b| b == b'\n').count();
    match kind {
        "journal" => {
            let load = Journal::load(&fs, path);
            let header = usize::from(load.header.is_some());
            assert!(header + load.entries.len() + load.skipped <= lines, "{load:?}");
            (load.entries.len(), load.skipped)
        }
        "cache" => {
            let (cache, stats) = ResultCache::load_with(&fs, path);
            assert_eq!(stats.entries, cache.len());
            // An intact footer vouches for every line under it: the writer
            // writes no line its reader skips.
            assert!(stats.torn || stats.skipped == 0, "{stats:?}");
            (stats.entries, stats.skipped)
        }
        _ => {
            let text = String::from_utf8_lossy(input);
            let records = text.lines().filter_map(RunRecord::parse).count();
            (records, text.lines().count() - records)
        }
    }
}

/// A temporary directory of this process, removed on drop.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Run `rounds` mutations, up to three deep, of each seed file through its
/// reader. Returns how many inputs loaded at least one record and how many
/// lost at least one line.
fn fuzz(rounds: usize, tag: &str) -> (usize, usize) {
    assert!(mem::active(), "the tracking allocator is installed in this binary");
    let dir = std::env::temp_dir().join(format!("pcv-record-fuzz-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let temp = TempDir(dir);
    let seeds = seeds(&temp.0);
    for (kind, seed) in &seeds {
        let path = temp.0.join(format!("intact.{kind}"));
        std::fs::write(&path, seed).unwrap();
        let (loaded, skipped) = decode(kind, seed, &path);
        // The degraded record is journalled, never cached.
        let want = match *kind {
            "journal" => entries().len(),
            "cache" => entries().len() - 1,
            _ => 2,
        };
        assert_eq!((loaded, skipped), (want, 0), "the {kind} seed loads whole");
    }
    let mut rng = Rng::new(0x7ec0_2d5f);
    let (mut loaded, mut damaged) = (0, 0);
    for (kind, seed) in &seeds {
        let path = temp.0.join(format!("mutated.{kind}"));
        for round in 0..rounds / seeds.len() {
            let mut input = mutate(seed, &mut rng);
            for _ in 0..rng.range_usize(0, 3) {
                input = mutate(&input, &mut rng);
            }
            std::fs::write(&path, &input).unwrap();
            let (bytes, (records, skipped)) = allocated(|| decode(kind, &input, &path));
            let bound = 64 * input.len() as u64 + (64 << 10);
            let what = String::from_utf8_lossy(&input);
            assert!(bytes <= bound, "{kind} round {round}: {bytes} bytes allocated\n{what}");
            loaded += usize::from(records > 0);
            damaged += usize::from(skipped > 0);
        }
    }
    (loaded, damaged)
}

#[test]
fn mutated_journals_caches_and_ledgers_load_or_skip_typed() {
    let (loaded, damaged) = fuzz(2000, "tier1");
    assert!(loaded > 600 && damaged > 600, "{loaded} loaded, {damaged} damaged of 2 000");
}

/// The same at 20 000 mutations — the `chaos` CI job's share.
#[test]
#[ignore = "20 000 mutations: run by the chaos CI job"]
fn twenty_thousand_mutated_journals_caches_and_ledgers_load_or_skip_typed() {
    let (loaded, damaged) = fuzz(20_000, "chaos");
    assert!(loaded > 6000 && damaged > 6000, "{loaded} loaded, {damaged} damaged of 20 000");
}
