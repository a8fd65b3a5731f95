//! Seeded round-trip and corruption properties for every adapter a
//! cluster result goes through: the cache line, the journal line, and the
//! verdict JSON object.
//!
//! Round trips must be bit-exact — ±0.0, subnormals and extreme exponents
//! included — for any name the adapter can spell (the journal and the
//! verdict object escape everything; a cache line cannot hold an empty
//! name, a tab or a newline, and must lose such a record rather than
//! mangle it). The two disk adapters are CRC-guarded, so any single-byte
//! corruption of a stored line must either drop the record or decode to
//! the identical one, never to a different one. The verdict object carries
//! no checksum — its stream is advisory, files are authoritative — but
//! every float in it is written twice, so a corrupted line may lose the
//! verdict yet never changes a number.

use pcv_engine::{Attempt, Fs, Journal, JournalEntry, RecoveryRung, ResultCache, Trail};
use pcv_netlist::PNetId;
use pcv_obs::json::{object, parse};
use pcv_rng::XorShift128Plus;
use pcv_xtalk::{NetVerdict, ReceiverVerdict, Severity};
use std::path::PathBuf;
use std::time::Duration;

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("pcv-codec-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// A finite `f64`, biased toward the values text codecs get wrong.
fn peak(rng: &mut XorShift128Plus) -> f64 {
    const EDGES: [f64; 12] = [
        0.0,
        -0.0,
        5e-324,
        -5e-324,
        f64::MIN_POSITIVE / 8.0,
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::MIN,
        1e-300,
        -1e300,
        0.1,
        -2.5,
    ];
    if rng.bool_with(0.4) {
        return EDGES[rng.range_usize(0, EDGES.len())];
    }
    loop {
        let x = f64::from_bits(rng.next_u64());
        if x.is_finite() {
            return x;
        }
    }
}

/// A name of 0–10 characters; `hostile` mixes in everything that needs
/// escaping somewhere.
fn name(rng: &mut XorShift128Plus, hostile: bool) -> String {
    const PLAIN: &[char] = &['a', 'Z', '0', '_', '.', '[', ']', '/', '-', ' ', 'é', '網'];
    const NASTY: &[char] = &['"', '\\', '\t', '\n', '\r', '\u{1}', '\u{1f}', '\u{7f}', '{', ','];
    let len = rng.range_usize(usize::from(!hostile), 11);
    (0..len)
        .map(|_| {
            if hostile && rng.bool_with(0.3) {
                NASTY[rng.range_usize(0, NASTY.len())]
            } else {
                PLAIN[rng.range_usize(0, PLAIN.len())]
            }
        })
        .collect()
}

fn receiver(rng: &mut XorShift128Plus, hostile: bool) -> Option<ReceiverVerdict> {
    rng.bool_with(0.5).then(|| ReceiverVerdict {
        // Cell names come from the library: never empty, never hostile in
        // a cache line, anything in JSON.
        cell: format!("C{}", name(rng, hostile)),
        output_peak: peak(rng),
        propagates: rng.bool_with(0.5),
    })
}

fn record(rng: &mut XorShift128Plus, hostile: bool, may_degrade: bool) -> JournalEntry {
    let trail = (may_degrade && rng.bool_with(0.4)).then(|| Trail {
        recovered: RecoveryRung::ALL[rng.range_usize(1, RecoveryRung::ALL.len())],
        attempts: (0..rng.range_usize(0, 4))
            .map(|_| Attempt {
                rung: RecoveryRung::ALL[rng.range_usize(0, RecoveryRung::ALL.len() - 1)],
                reason: name(rng, true),
                elapsed: Duration::ZERO,
            })
            .collect(),
    });
    let (name, fp) = (name(rng, hostile), rng.next_u64());
    JournalEntry::new(&name, fp, peak(rng), peak(rng), receiver(rng, hostile), trail)
}

/// `PartialEq` on a record compares the receiver peak as an `f64`, which
/// equates ±0.0; the codecs owe the bits.
fn assert_same_bits(got: &JournalEntry, want: &JournalEntry, what: &str) {
    assert_eq!(got, want, "{what}");
    let bits = |e: &JournalEntry| e.receiver.as_ref().map(|r| r.output_peak.to_bits());
    assert_eq!(bits(got), bits(want), "{what}: receiver peak bits");
}

/// A name a cache line can hold.
fn cache_spellable(name: &str) -> bool {
    !name.is_empty() && !name.contains(['\t', '\n'])
}

#[test]
fn cache_round_trip_is_bit_exact_or_a_miss() {
    let dir = temp_dir("cache-rt");
    let fs = Fs::real();
    for seed in 0..8u64 {
        let mut rng = XorShift128Plus::new(0xcac4e + seed);
        let mut records: Vec<JournalEntry> = Vec::new();
        for i in 0..64 {
            let mut r = record(&mut rng, i % 4 == 0, false);
            if r.receiver.as_ref().is_some_and(|rx| !cache_spellable(&rx.cell)) {
                r.receiver = None;
            }
            if !records.iter().any(|seen| seen.name == r.name) {
                records.push(r);
            }
        }
        let mut cache = ResultCache::new();
        for r in &records {
            cache.insert(r.clone());
        }
        let path = dir.join(format!("store{seed}"));
        cache.save_with(&fs, &path).unwrap();
        let (back, _) = ResultCache::load_with(&fs, &path);
        for r in &records {
            match back.lookup(&r.name, r.fingerprint) {
                Some(got) => assert_same_bits(got, r, "cache round trip"),
                None => assert!(!cache_spellable(&r.name), "lost a spellable record: {r:?}"),
            }
        }
        let spellable = records.iter().filter(|r| cache_spellable(&r.name)).count();
        assert_eq!(back.len(), spellable, "unspellable names load as nothing, not as something");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn journal_round_trip_is_bit_exact_for_any_name_and_trail() {
    let dir = temp_dir("journal-rt");
    let fs = Fs::real();
    let mut rng = XorShift128Plus::new(0x10a7a1);
    let records: Vec<JournalEntry> = (0..96).map(|i| record(&mut rng, i % 2 == 0, true)).collect();
    let path = dir.join("run.journal");
    let journal = Journal::begin(&fs, &path, 7, 9).unwrap();
    for r in &records {
        journal.record(r).unwrap();
    }
    let load = Journal::load(&fs, &path);
    assert_eq!((load.header, load.skipped), (Some((7, 9)), 0));
    assert_eq!(load.entries.len(), records.len());
    for (got, want) in load.entries.iter().zip(&records) {
        assert_same_bits(got, want, "journal round trip");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn verdict(rng: &mut XorShift128Plus) -> NetVerdict {
    NetVerdict {
        net: PNetId(rng.range_usize(0, 1000)),
        name: name(rng, true),
        rise_peak: peak(rng),
        fall_peak: peak(rng),
        worst_frac: peak(rng),
        severity: [Severity::Clean, Severity::Warning, Severity::Violation][rng.range_usize(0, 3)],
        cluster_size: rng.range_usize(0, 50),
        neighbors_before: rng.range_usize(0, 5000),
        receiver: receiver(rng, true),
    }
}

/// Every float of a verdict, as bits.
fn float_bits(v: &NetVerdict) -> [Option<u64>; 4] {
    [
        Some(v.rise_peak.to_bits()),
        Some(v.fall_peak.to_bits()),
        Some(v.worst_frac.to_bits()),
        v.receiver.as_ref().map(|r| r.output_peak.to_bits()),
    ]
}

#[test]
fn verdict_json_round_trip_is_bit_exact() {
    let mut rng = XorShift128Plus::new(0x7e4d1c7);
    for _ in 0..512 {
        let v = verdict(&mut rng);
        let text = object(|o| v.write_members(o));
        let doc = parse(&text).unwrap_or_else(|e| panic!("writer emitted bad JSON {text}: {e}"));
        let back = NetVerdict::from_json(&doc, 1000).unwrap_or_else(|| panic!("rejected {text}"));
        assert_eq!(back, v);
        assert_eq!(float_bits(&back), float_bits(&v), "{text}");
        assert_eq!(NetVerdict::from_json(&doc, v.net.0), None, "net must be below the bound");
    }
}

/// Three corruptions of byte `i`: lowest bit flipped, ASCII case bit
/// flipped, and a seeded arbitrary byte.
fn corruptions(bytes: &[u8], i: usize, rng: &mut XorShift128Plus) -> [Vec<u8>; 3] {
    let with = |b: u8| {
        let mut out = bytes.to_vec();
        out[i] = b;
        out
    };
    let arbitrary = loop {
        let b = rng.next_u64() as u8;
        if b != bytes[i] {
            break b;
        }
    };
    [with(bytes[i] ^ 0x01), with(bytes[i] ^ 0x20), with(arbitrary)]
}

#[test]
fn a_corrupted_cache_line_is_dropped_or_decodes_identically() {
    let dir = temp_dir("cache-corrupt");
    let fs = Fs::real();
    let mut rng = XorShift128Plus::new(0xbadcac4e);
    let (clean, dirty) = (dir.join("clean"), dir.join("dirty"));
    for _ in 0..16 {
        let r = record(&mut rng, false, false);
        let mut cache = ResultCache::new();
        cache.insert(r.clone());
        cache.save_with(&fs, &clean).unwrap();
        let bytes = std::fs::read(&clean).unwrap();
        let line_start = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        let line_end = line_start + bytes[line_start..].iter().position(|&b| b == b'\n').unwrap();
        for i in line_start..line_end {
            for mutated in corruptions(&bytes, i, &mut rng) {
                std::fs::write(&dirty, &mutated).unwrap();
                let (back, stats) = ResultCache::load_with(&fs, &dirty);
                if !back.is_empty() {
                    let got = back.lookup(&r.name, r.fingerprint).unwrap_or_else(|| {
                        panic!("byte {i} of {r:?} decoded to a different record")
                    });
                    assert_same_bits(got, &r, "corrupted cache line");
                    assert!(stats.torn, "the footer must notice the changed byte");
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_corrupted_journal_line_is_dropped_or_decodes_identically() {
    let dir = temp_dir("journal-corrupt");
    let fs = Fs::real();
    let mut rng = XorShift128Plus::new(0xbad10a7a1);
    let (clean, dirty) = (dir.join("clean.journal"), dir.join("dirty.journal"));
    for _ in 0..16 {
        let r = record(&mut rng, true, true);
        Journal::begin(&fs, &clean, 1, 2).unwrap().record(&r).unwrap();
        let bytes = std::fs::read(&clean).unwrap();
        let line_start = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        for i in line_start..bytes.len() - 1 {
            for mutated in corruptions(&bytes, i, &mut rng) {
                std::fs::write(&dirty, &mutated).unwrap();
                let load = Journal::load(&fs, &dirty);
                assert!(load.entries.len() <= 1);
                if let Some(got) = load.entries.first() {
                    assert_same_bits(got, &r, "corrupted journal line");
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_corrupted_verdict_object_never_changes_a_number() {
    let mut rng = XorShift128Plus::new(0xbad7e4d1c7);
    for _ in 0..24 {
        let v = verdict(&mut rng);
        let text = object(|o| v.write_members(o));
        let bytes = text.as_bytes();
        for i in 0..bytes.len() {
            for mutated in corruptions(bytes, i, &mut rng) {
                let Ok(mutated) = String::from_utf8(mutated) else { continue };
                let Ok(doc) = parse(&mutated) else { continue };
                if let Some(got) = NetVerdict::from_json(&doc, 1000) {
                    assert_eq!(float_bits(&got), float_bits(&v), "byte {i}: {mutated}");
                }
            }
        }
    }
}
