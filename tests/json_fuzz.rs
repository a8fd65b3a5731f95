//! A seeded mutation fuzzer of the workspace's one JSON reader
//! (`pcv_trace::json`) over the documents the workspace writes: a shard
//! worker's config line carrying SPEF text, a journal payload, a verdict
//! line and a ledger record. Every mutation must parse to a value or to a
//! typed error at an offset inside the text — never a panic, a hang or a
//! stack overflow. The string writer must be the identity under the reader
//! on strings full of quotes, backslashes, control characters and
//! non-ASCII text, and must write the bytes of the char-at-a-time escaper.

use pcv_designs::random::{random_cluster, RandomClusterConfig};
use pcv_designs::Technology;
use pcv_engine::{Attempt, Fs, Journal, JournalEntry, RecoveryRung, Trail};
use pcv_netlist::spef::write_spef;
use pcv_netlist::PNetId;
use pcv_obs::json::{parse, str_lit, Value};
use pcv_obs::RunRecord;
use pcv_rng::Rng;
use pcv_serve::{DesignSpec, VictimSel};
use pcv_xtalk::{NetVerdict, ReceiverVerdict, Severity};
use std::fmt::Write as _;
use std::time::Duration;

/// Characters a string codec can get wrong.
const HOSTILE: &[char] = &[
    '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{8}', '\u{c}', '\u{1f}', '\u{7f}', 'é', '網',
    '🦀', '\u{2028}', '\u{feff}', 'u', '{', '}', ' ',
];

/// A string of 0–40 characters drawn from [`HOSTILE`] and plain letters.
fn hostile_string(rng: &mut Rng) -> String {
    (0..rng.range_usize(0, 41))
        .map(|_| {
            if rng.bool_with(0.6) {
                HOSTILE[rng.range_usize(0, HOSTILE.len())]
            } else {
                char::from(b'a' + rng.range_usize(0, 26) as u8)
            }
        })
        .collect()
}

/// The four documents, each written by the workspace's own writer.
fn documents() -> Vec<(&'static str, String)> {
    let mut rng = Rng::new(0x15_0f_f2);
    let cluster = random_cluster(
        &RandomClusterConfig { n_aggressors: 3, seed: 5, ..Default::default() },
        &Technology::c025(),
    );
    let spec = DesignSpec::Spef {
        text: write_spef(&cluster.db),
        drive_ohms: 1000.0,
        victims: VictimSel::Named(vec!["victim".into(), hostile_string(&mut rng)]),
    };
    let spec = spec.to_json();
    let config = format!(
        "{},\"shards\":2,\"shard\":1,\"cache\":{},\"warn_frac\":0.05,\"hold_after\":3}}",
        &spec[..spec.len() - 1],
        str_lit("target/shard 1/\u{e9}.cache")
    );

    let dir = std::env::temp_dir().join(format!("pcv-json-fuzz-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("run.journal");
    let journal = Journal::begin(&Fs::real(), &path, 7, 9).unwrap();
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
    let entry =
        JournalEntry::new(&hostile_string(&mut rng), 0xfeed, 0.123, -5e-324, receiver, Some(trail));
    journal.record(&entry).unwrap();
    let framed = std::fs::read_to_string(&path).unwrap();
    let payload = framed.lines().last().unwrap().split_once(' ').unwrap().1.to_owned();
    let _ = std::fs::remove_dir_all(&dir);

    let verdict = NetVerdict {
        net: PNetId(7),
        name: hostile_string(&mut rng),
        rise_peak: 0.3125,
        fall_peak: -1e-300,
        worst_frac: 0.125,
        severity: Severity::Warning,
        cluster_size: 11,
        neighbors_before: 40,
        receiver: Some(ReceiverVerdict {
            cell: "INVX1".into(),
            output_peak: 0.001_234,
            propagates: false,
        }),
    };
    let mut verdict_line = String::from("{");
    verdict.write_members(&mut verdict_line);
    verdict_line.push_str(",\"kind\":\"verdict\"}");

    let ledger = RunRecord {
        config_fingerprint: 0xdead_beef,
        victims: 2048,
        outcome: "complete".into(),
        wall_ms: 1.5e3,
        peak_alloc_bytes: 1 << 40,
        ..RunRecord::default()
    };
    vec![
        ("config line", config),
        ("journal payload", payload),
        ("verdict line", verdict_line),
        ("ledger record", ledger.to_json()),
    ]
}

/// A char boundary of `text`, uniformly over its bytes.
fn boundary(text: &str, rng: &mut Rng) -> usize {
    let mut at = rng.range_usize(0, text.len() + 1);
    while !text.is_char_boundary(at) {
        at -= 1;
    }
    at
}

/// One seeded mutation: a truncation, a lost or doubled span, a hostile
/// token inserted or in place of a span, or the document buried in brackets.
fn mutate(text: &str, rng: &mut Rng) -> String {
    const TOKENS: &[&str] = &[
        "\"", "\\", "\\\"", "\\\\", "\\u", "\\u00e9", "\\ud83e", "\\x", "\\u{41}", "{", "}", "[",
        "]", ",", ":", "-", "1e999", "-0", ".5", "01", "1.", "tru", "null", "nul", "\u{0}", "\n",
        "é", "網", "🦀", "\"\":", ",,", "{}", "[]",
    ];
    let (a, b) = {
        let (x, y) = (boundary(text, rng), boundary(text, rng));
        (x.min(y), x.max(y))
    };
    let b = a + (b - a).min(16);
    let b = (b..=text.len()).find(|&i| text.is_char_boundary(i)).unwrap_or(text.len());
    let token = TOKENS[rng.range_usize(0, TOKENS.len())];
    match rng.range_usize(0, 16) {
        0 => text[..a].to_owned(),
        1..=3 => format!("{}{}", &text[..a], &text[b..]),
        4 | 5 => format!("{}{}{}", &text[..b], &text[a..b], &text[b..]),
        6..=10 => format!("{}{token}{}", &text[..a], &text[a..]),
        11..=14 => format!("{}{token}{}", &text[..a], &text[b..]),
        _ => {
            let n = rng.range_usize(1, 4000);
            let open = if rng.bool_with(0.5) { "[" } else { "{\"k\":" };
            format!("{}{text}{}", open.repeat(n), if open == "[" { "]" } else { "}" }.repeat(n))
        }
    }
}

/// Parse every document under `rounds` seeded mutations, up to three deep.
/// Returns how many parsed and how many were refused.
fn fuzz(rounds: usize) -> (usize, usize) {
    let docs = documents();
    let mut rng = Rng::new(0x750_f022);
    let (mut parsed, mut refused) = (0, 0);
    for (what, doc) in &docs {
        assert!(matches!(parse(doc), Ok(Value::Obj(_))), "{what} parses: {doc}");
        for round in 0..rounds / docs.len() {
            let mut text = mutate(doc, &mut rng);
            for _ in 0..rng.range_usize(0, 3) {
                text = mutate(&text, &mut rng);
            }
            match parse(&text) {
                Ok(_) => parsed += 1,
                Err(e) => {
                    refused += 1;
                    assert!(e.at <= text.len(), "{what} round {round}: {e} of {}", text.len());
                }
            }
        }
    }
    (parsed, refused)
}

#[test]
fn mutated_documents_parse_or_fail_typed() {
    let (parsed, refused) = fuzz(2000);
    assert!(parsed > 100 && refused > 1000, "{parsed} parsed, {refused} refused of 2 000");
}

/// The same at 20 000 mutations — the `chaos` CI job's share.
#[test]
#[ignore = "20 000 mutations: run by the chaos CI job"]
fn twenty_thousand_mutated_documents_parse_or_fail_typed() {
    let (parsed, refused) = fuzz(20_000);
    assert!(parsed > 1000 && refused > 10_000, "{parsed} parsed, {refused} refused of 20 000");
}

/// The escaper the run-copying writer replaced, char at a time.
fn escape_by_char(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[test]
fn a_written_string_reads_back_and_keeps_its_bytes() {
    let mut rng = Rng::new(0x57_219);
    for round in 0..5000 {
        let s = hostile_string(&mut rng);
        let lit = str_lit(&s);
        assert_eq!(lit, escape_by_char(&s), "round {round}: {s:?}");
        assert_eq!(parse(&lit), Ok(Value::Str(s.clone())), "round {round}: {lit}");
        // Inside a document, as a key and as a member.
        let doc = format!("{{{lit}:[{lit},1]}}");
        let v = parse(&doc).unwrap_or_else(|e| panic!("round {round}: {e}: {doc}"));
        assert_eq!(v.get(&s).and_then(Value::as_arr).map(|a| a[0].clone()), Some(Value::Str(s)));
    }
}
