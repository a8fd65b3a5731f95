//! Format pins: the exact bytes of every persisted or served rendering of
//! a cluster result. Two fixed results — one with a receiver check and a
//! two-attempt degradation trail whose reason needs every escape (`"`,
//! `\`, tab, a control byte), one with neither and signed-zero peaks —
//! are pinned as a cache file, a journal file, the verdict objects of
//! `ChipReport::to_json`, and the objects `GET /runs/{id}/verdicts`
//! serves.
//!
//! The disk pins run in both directions through calls that take and
//! return whole files: the pinned bytes must load with nothing skipped or
//! torn, and re-saving what was loaded must reproduce them byte for byte.
//! Nothing here names a codec-internal type, so this file reads the same
//! before and after any change to how the codecs are built.

use pcv_engine::{Fs, Journal, RecoveryRung, ResultCache};
use pcv_netlist::PNetId;
use pcv_serve::{Client, Server, ServerConfig};
use pcv_xtalk::prune::PruningStats;
use pcv_xtalk::{ChipReport, NetVerdict, ReceiverVerdict, Severity};
use std::path::PathBuf;

const CACHE: &str = "pcv-engine-cache v2\n\
acc_q3\t0000000000000001\t0000000000000000\t8000000000000000\t-\t-\t-\t21833c20\n\
bus0.3\t0123456789abcdef\t3fd3d70a3d70a3d7\tbfb1eb851eb851ec\tINVX4\tbff3333333333333\t1\ta29cbcda\n\
#footer 2 66a92af2\n";

const JOURNAL: &str = concat!(
    "fd927e20 {\"kind\":\"run\",\"config\":\"0000000000000abc\",\"chip\":\"0000000000000def\"}\n",
    "39292ebd {\"kind\":\"cluster\",\"name\":\"bus0.3\",\"fp\":\"0123456789abcdef\",",
    "\"rise\":\"3fd3d70a3d70a3d7\",\"fall\":\"bfb1eb851eb851ec\",",
    "\"receiver\":{\"cell\":\"INVX4\",\"peak\":\"bff3333333333333\",\"propagates\":true},",
    "\"degraded\":{\"recovered\":\"reduced_order\",\"attempts\":[",
    "{\"rung\":\"baseline\",\"reason\":\"pivot \\\"-1\\\" at C:\\\\tmp\\tcol 0\\u0001\"},",
    "{\"rung\":\"gmin_boost\",\"reason\":\"still not SPD\"}]}}\n",
    "aaf24028 {\"kind\":\"cluster\",\"name\":\"acc_q3\",\"fp\":\"0000000000000001\",",
    "\"rise\":\"0000000000000000\",\"fall\":\"8000000000000000\",",
    "\"receiver\":null,\"degraded\":null}\n",
);

const VERDICTS: &str = concat!(
    "{\"net\":7,\"name\":\"bus0.3\",\"rise_peak\":0.31,\"rise_peak_bits\":\"3fd3d70a3d70a3d7\",",
    "\"fall_peak\":-0.07,\"fall_peak_bits\":\"bfb1eb851eb851ec\",",
    "\"worst_frac\":0.124,\"worst_frac_bits\":\"3fbfbe76c8b43958\",\"severity\":\"warning\",",
    "\"cluster_size\":11,\"neighbors_before\":40,\"receiver\":{\"cell\":\"INVX4\",",
    "\"output_peak\":-1.2,\"output_peak_bits\":\"bff3333333333333\",\"propagates\":true}},",
    "{\"net\":0,\"name\":\"acc \\\"q3\\\"\",\"rise_peak\":0.0,\"rise_peak_bits\":\"0000000000000000\",",
    "\"fall_peak\":-0.0,\"fall_peak_bits\":\"8000000000000000\",",
    "\"worst_frac\":0.0,\"worst_frac_bits\":\"0000000000000000\",\"severity\":\"clean\",",
    "\"cluster_size\":1,\"neighbors_before\":0,\"receiver\":null}",
);

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("pcv-format-pin-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn cache_file_bytes_are_pinned() {
    let dir = temp_dir("cache");
    let (pinned, resaved) = (dir.join("pinned"), dir.join("resaved"));
    std::fs::write(&pinned, CACHE).unwrap();
    let fs = Fs::real();
    let (cache, stats) = ResultCache::load_with(&fs, &pinned);
    assert_eq!((stats.entries, stats.skipped, stats.torn), (2, 0, false));
    assert!(cache.lookup("bus0.3", 0x0123_4567_89ab_cdef).is_some());
    assert!(cache.lookup("bus0.3", 0).is_none(), "a stale fingerprint is a miss");
    assert!(cache.lookup("acc_q3", 1).is_some());
    cache.save_with(&fs, &resaved).unwrap();
    assert_eq!(std::fs::read_to_string(&resaved).unwrap(), CACHE);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn journal_file_bytes_are_pinned() {
    let dir = temp_dir("journal");
    let (pinned, resaved) = (dir.join("pinned.journal"), dir.join("resaved.journal"));
    std::fs::write(&pinned, JOURNAL).unwrap();
    let fs = Fs::real();
    let load = Journal::load(&fs, &pinned);
    assert_eq!(load.header, Some((0xabc, 0xdef)));
    assert_eq!((load.entries.len(), load.skipped), (2, 0));

    let bus = &load.entries[0];
    assert_eq!((bus.name.as_str(), bus.fingerprint), ("bus0.3", 0x0123_4567_89ab_cdef));
    assert_eq!((bus.rise_bits, bus.fall_bits), (0.31_f64.to_bits(), (-0.07_f64).to_bits()));
    let rx = bus.receiver.as_ref().expect("receiver check was journaled");
    assert_eq!((rx.cell.as_str(), rx.propagates), ("INVX4", true));
    let trail = bus.degraded.as_ref().expect("degradation trail was journaled");
    assert_eq!(trail.recovered, RecoveryRung::ReducedOrder);
    assert_eq!(trail.attempts.len(), 2);
    assert_eq!(trail.attempts[0].rung, RecoveryRung::Baseline);
    assert_eq!(trail.attempts[0].reason, "pivot \"-1\" at C:\\tmp\tcol 0\u{1}");
    assert_eq!(trail.attempts[1].rung, RecoveryRung::GminBoost);

    let acc = &load.entries[1];
    assert_eq!((acc.rise_bits, acc.fall_bits), (0.0_f64.to_bits(), (-0.0_f64).to_bits()));
    assert!(acc.receiver.is_none() && acc.degraded.is_none());

    let journal = Journal::begin(&fs, &resaved, 0xabc, 0xdef).unwrap();
    for entry in &load.entries {
        journal.record(entry).unwrap();
    }
    assert_eq!(std::fs::read_to_string(&resaved).unwrap(), JOURNAL);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn chip_report_verdict_objects_are_pinned() {
    let report = ChipReport {
        verdicts: vec![
            NetVerdict {
                net: PNetId(7),
                name: "bus0.3".into(),
                rise_peak: 0.31,
                fall_peak: -0.07,
                worst_frac: 0.31 / 2.5,
                severity: Severity::Warning,
                cluster_size: 11,
                neighbors_before: 40,
                receiver: Some(ReceiverVerdict {
                    cell: "INVX4".into(),
                    output_peak: -1.2,
                    propagates: true,
                }),
            },
            NetVerdict {
                net: PNetId(0),
                name: "acc \"q3\"".into(),
                rise_peak: 0.0,
                fall_peak: -0.0,
                worst_frac: 0.0,
                severity: Severity::Clean,
                cluster_size: 1,
                neighbors_before: 0,
                receiver: None,
            },
        ],
        pruning: PruningStats::compute(&[]),
        warn_frac: 0.1,
        fail_frac: 0.2,
    };
    let expected = format!(
        "{{\"warn_frac\":0.1,\"warn_frac_bits\":\"3fb999999999999a\",\
         \"fail_frac\":0.2,\"fail_frac_bits\":\"3fc999999999999a\",\
         \"pruning\":{{\"mean_before\":0.0,\"mean_before_bits\":\"0000000000000000\",\
         \"mean_component\":0.0,\"mean_component_bits\":\"0000000000000000\",\
         \"mean_after\":0.0,\"mean_after_bits\":\"0000000000000000\",\
         \"max_after\":0,\"active_clusters\":0}},\"verdicts\":[{VERDICTS}]}}"
    );
    assert_eq!(report.to_json(), expected);
}

/// The text of the JSON array that follows `"verdicts":[` in `doc`,
/// without its brackets.
fn verdict_array(doc: &str) -> &str {
    let start = doc.find("\"verdicts\":[").expect("a verdicts array") + "\"verdicts\":[".len();
    let mut depth = 0usize;
    for (i, b) in doc.bytes().enumerate().skip(start) {
        match b {
            b'[' | b'{' => depth += 1,
            b']' if depth == 0 => return &doc[start..i],
            b']' | b'}' => depth -= 1,
            _ => {}
        }
    }
    panic!("unterminated verdicts array in {doc}");
}

/// Split an array body into its top-level objects, keyed by `"name"`.
fn objects_by_name(array: &str) -> std::collections::BTreeMap<String, &str> {
    let mut out = std::collections::BTreeMap::new();
    let (mut depth, mut start) = (0usize, 0usize);
    for (i, b) in array.bytes().enumerate() {
        match b {
            b'{' => {
                if depth == 0 {
                    start = i;
                }
                depth += 1;
            }
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    let object = &array[start..=i];
                    let doc = pcv_obs::json::parse(object).expect("verdict object parses");
                    let name = doc.get("name").and_then(pcv_obs::json::Value::as_str).unwrap();
                    out.insert(name.to_owned(), object);
                }
            }
            _ => {}
        }
    }
    out
}

#[test]
fn served_verdict_objects_are_the_signoff_objects() {
    let data_dir = temp_dir("served");
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        data_dir: data_dir.clone(),
        ..ServerConfig::default()
    })
    .unwrap();
    let client = Client::new(server.addr().to_string());
    let field = |body: &str, key: &str| {
        let doc = pcv_obs::json::parse(body).unwrap_or_else(|e| panic!("bad JSON {body}: {e}"));
        doc.get(key).and_then(pcv_obs::json::Value::as_str).expect(key).to_owned()
    };

    // Receiver checks on, with the warning threshold between two victims'
    // peaks, so served verdicts come with and without the receiver object.
    let body = "{\"design\":{\"kind\":\"dsp\",\"buses\":1,\"bits\":4,\"random\":6}}";
    let resp = client.request("POST", "/sessions", body).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    // The first answer of a fresh daemon, pinned as bytes: the session's
    // info object with the request's correlation ID as its last member.
    assert_eq!(
        resp.body,
        "{\"session\":\"s1\",\"state\":\"ready\",\"nets\":10,\"victims\":6,\"corr\":\"c1\"}"
    );
    let session = field(&resp.body, "session");
    let overlay = "{\"warn_frac\":0.18,\"fail_frac\":0.2,\"check_receivers\":true}";
    let resp = client.request("POST", &format!("/sessions/{session}/runs"), overlay).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let run = field(&resp.body, "run");
    let status = client.stream(&format!("/runs/{run}/events"), |_| {}).unwrap();
    assert_eq!(status, 200);

    let signoff = client.request("GET", &format!("/runs/{run}/signoff"), "").unwrap();
    assert_eq!(signoff.status, 200, "{}", signoff.body);
    let served = client.request("GET", &format!("/runs/{run}/verdicts"), "").unwrap();
    assert_eq!(served.status, 200, "{}", served.body);

    let in_signoff = objects_by_name(verdict_array(&signoff.body));
    let in_served = objects_by_name(verdict_array(&served.body));
    for shape in ["\"receiver\":{", "\"receiver\":null"] {
        assert!(in_signoff.values().any(|o| o.contains(shape)), "no {shape}: {}", signoff.body);
    }
    assert_eq!(in_served, in_signoff, "served verdict objects are the sign-off's, byte for byte");

    let resp = client.request("POST", "/shutdown", "").unwrap();
    assert_eq!(resp.status, 200);
    server.join();
    let _ = std::fs::remove_dir_all(&data_dir);
}
