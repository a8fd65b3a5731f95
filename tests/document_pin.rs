//! Byte pins of the documents the workspace writes besides the cluster
//! result (`format_pin.rs`), each from a hand-built input whose wall-clock
//! fields are fixed: every engine event kind, the error body of every
//! status, an ECO plan, both kinds of session body, and a report's profile
//! and sign-off with a trace's Chrome export. The crate-private lines
//! (worker config, hello, beat and done lines, the queued answer, the
//! stream trailer, `runs.jsonl`, the flight dump, the ledger record) are
//! pinned in their modules' unit tests. Every pin was recorded from the
//! writers these documents had before they moved onto `pcv_trace::json`.

use pcv_netlist::PNetId;
use pcv_xtalk::prune::PruningStats;
use pcv_xtalk::ChipReport;

/// Every engine event kind, as the one JSONL line `pcv-serve` streams.
#[test]
fn engine_event_lines_are_pinned() {
    use pcv_obs::EngineEvent as E;
    use std::time::Duration;
    let name = |s: &str| s.to_owned();
    let lines: Vec<String> = [
        E::RunStarted { victims: 3, workers: 2 },
        E::ClusterQueued { name: name("bus0.3") },
        E::ClusterStarted { name: name("acc \"q3\"") },
        E::CacheHit { name: name("n\\1") },
        E::CacheMiss { name: name("tab\there\u{1}") },
        E::ClusterRetried { name: name("bus0.3"), rung: "baseline" },
        E::ClusterDegraded { name: name("bus0.3"), rung: "gmin_boost" },
        E::ClusterFinished {
            name: name("bus0.3"),
            cached: true,
            elapsed: Duration::from_micros(1500),
        },
        E::ClusterFinished {
            name: name("acc_q3"),
            cached: false,
            elapsed: Duration::from_nanos(123_456_789),
        },
        E::ClusterReplayed { name: name("r\u{e9}play") },
        E::ClusterSkipped { name: name("skipped") },
        E::RunResumed { replayable: 5 },
        E::RunStopped { completed: 4, skipped: 1 },
        E::StallWarning { completed: 9, stalled_ms: 2500 },
        E::RunFinished { victims: 6, wall: Duration::from_millis(2), cache_hits: 3, degraded: 1 },
    ]
    .iter()
    .map(E::to_json)
    .collect();
    assert_eq!(
        lines,
        [
            "{\"kind\":\"run_started\",\"victims\":3,\"workers\":2}",
            "{\"kind\":\"cluster_queued\",\"name\":\"bus0.3\"}",
            "{\"kind\":\"cluster_started\",\"name\":\"acc \\\"q3\\\"\"}",
            "{\"kind\":\"cache_hit\",\"name\":\"n\\\\1\"}",
            "{\"kind\":\"cache_miss\",\"name\":\"tab\\there\\u0001\"}",
            "{\"kind\":\"cluster_retried\",\"name\":\"bus0.3\",\"rung\":\"baseline\"}",
            "{\"kind\":\"cluster_degraded\",\"name\":\"bus0.3\",\"rung\":\"gmin_boost\"}",
            concat!(
                "{\"kind\":\"cluster_finished\",\"name\":\"bus0.3\",\"cached\":true",
                ",\"elapsed_ms\":1.5}",
            ),
            concat!(
                "{\"kind\":\"cluster_finished\",\"name\":\"acc_q3\",\"cached\":false",
                ",\"elapsed_ms\":123.456789}",
            ),
            "{\"kind\":\"cluster_replayed\",\"name\":\"réplay\"}",
            "{\"kind\":\"cluster_skipped\",\"name\":\"skipped\"}",
            "{\"kind\":\"run_resumed\",\"replayable\":5}",
            "{\"kind\":\"run_stopped\",\"completed\":4,\"skipped\":1}",
            "{\"kind\":\"stall_warning\",\"completed\":9,\"stalled_ms\":2500}",
            concat!(
                "{\"kind\":\"run_finished\",\"victims\":6,\"wall_ms\":2.0,\"cache_hits\":3",
                ",\"degraded\":1}",
            ),
        ]
    );
}

/// The `{"error":…,"message":…}` body of every status the service emits.
#[test]
fn api_error_bodies_are_pinned() {
    use pcv_serve::ApiError as A;
    let bodies: Vec<String> = [
        A::BadRequest("no \"design\" object".into()),
        A::NotFound("no run \"r9\"".into()),
        A::Conflict("run r1 is running".into()),
        A::Busy("run queue full (4 waiting, capacity 4)".into()),
        A::Internal("artifact C:\\tmp unreadable:\nno such file".into()),
        A::Timeout("deadline of 500ms".into()),
    ]
    .iter()
    .map(A::to_json)
    .collect();
    assert_eq!(
        bodies,
        [
            "{\"error\":\"bad_request\",\"message\":\"no \\\"design\\\" object\"}",
            "{\"error\":\"not_found\",\"message\":\"no run \\\"r9\\\"\"}",
            "{\"error\":\"conflict\",\"message\":\"run r1 is running\"}",
            "{\"error\":\"busy\",\"message\":\"run queue full (4 waiting, capacity 4)\"}",
            concat!(
                "{\"error\":\"internal\"",
                ",\"message\":\"artifact C:\\\\tmp unreadable:\\nno such file\"}",
            ),
            "{\"error\":\"deadline_exceeded\",\"message\":\"deadline of 500ms\"}",
        ]
    );
}

/// The ECO plan `POST /sessions/{id}/eco` answers and the ledger records.
#[test]
fn eco_plan_objects_are_pinned() {
    let names = |list: &[&str]| list.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>();
    let plan = pcv_engine::EcoPlan {
        edits: 3,
        touched: names(&["bus0.3", "acc \"q3\""]),
        candidates: names(&["bus0.2", "bus0.3", "bus0.4"]),
        dirty: names(&["bus0.3"]),
        clean: 2,
        retired: names(&["gone"]),
    };
    let noop = pcv_engine::EcoPlan {
        edits: 0,
        touched: Vec::new(),
        candidates: Vec::new(),
        dirty: Vec::new(),
        clean: 0,
        retired: Vec::new(),
    };
    assert_eq!(
        [plan.to_json(), noop.to_json()],
        [
            concat!(
                "{\"edits\":3,\"touched\":[\"bus0.3\",\"acc \\\"q3\\\"\"]",
                ",\"candidates\":[\"bus0.2\",\"bus0.3\",\"bus0.4\"],\"dirty\":[\"bus0.3\"]",
                ",\"clean\":2,\"retired\":[\"gone\"]",
                ",\"splice_fraction\":0.6666666666666666}",
            ),
            concat!(
                "{\"edits\":0,\"touched\":[],\"candidates\":[],\"dirty\":[],\"clean\":0",
                ",\"retired\":[],\"splice_fraction\":1.0}",
            ),
        ]
    );
}

/// Both kinds of `POST /sessions` body, as the benchmark posts them.
#[test]
fn design_spec_bodies_are_pinned() {
    use pcv_serve::{DesignSpec, VictimSel};
    let dsp = DesignSpec::Dsp {
        config: pcv_designs::dsp::DspConfig {
            n_buses: 2,
            bus_bits: 4,
            n_random_nets: 6,
            cycle: 10e-9,
            seed: 7,
        },
    };
    let named = DesignSpec::Spef {
        text: "*SPEF \"x\"\n*D_NET n0 1.0\n*END\n".into(),
        drive_ohms: 1000.0,
        victims: VictimSel::Named(vec!["n0".into(), "a\\b\t".into()]),
    };
    let all = DesignSpec::Spef { text: String::new(), drive_ohms: 37.5, victims: VictimSel::All };
    assert_eq!(
        [dsp.to_json(), named.to_json(), all.to_json()],
        [
            concat!(
                "{\"design\":{\"kind\":\"dsp\",\"buses\":2,\"bits\":4,\"random\":6",
                ",\"cycle\":0.00000001,\"seed\":7}}",
            ),
            concat!(
                "{\"design\":{\"kind\":\"spef\"",
                ",\"text\":\"*SPEF \\\"x\\\"\\n*D_NET n0 1.0\\n*END\\n\"",
                ",\"drive_ohms\":1000.0,\"victims\":[\"n0\",\"a\\\\b\\t\"]}}",
            ),
            concat!(
                "{\"design\":{\"kind\":\"spef\",\"text\":\"\",\"drive_ohms\":37.5",
                ",\"victims\":\"all\"}}",
            ),
        ]
    );
}

/// A hand-built report: its profile, its sign-off with a degradation
/// trail, and a hand-built trace's Chrome export.
#[test]
fn profile_signoff_and_chrome_trace_are_pinned() {
    use pcv_engine::{
        Attempt, ClusterCost, Degradation, EngineReport, EngineStats, RecoveryRung, Trail,
    };
    use pcv_trace::{Span, Trace};
    use std::time::Duration;
    let ms = Duration::from_micros;
    let cost = |name: &str, size, cached, prune, analysis, receiver| ClusterCost {
        net: PNetId(size),
        name: name.into(),
        cluster_size: size,
        cached,
        prune: ms(prune),
        analysis: ms(analysis),
        receiver: ms(receiver),
    };
    let report = EngineReport {
        chip: ChipReport {
            verdicts: Vec::new(),
            pruning: PruningStats::compute(&[]),
            warn_frac: 0.1,
            fail_frac: 0.2,
        },
        errors: Vec::new(),
        degradations: vec![Degradation {
            net: PNetId(4),
            name: "bus \"0\"".into(),
            trail: Trail {
                recovered: RecoveryRung::WorstCase,
                attempts: vec![
                    Attempt {
                        rung: RecoveryRung::Baseline,
                        reason: "not SPD\n".into(),
                        elapsed: ms(7),
                    },
                    Attempt {
                        rung: RecoveryRung::GminBoost,
                        reason: String::new(),
                        elapsed: ms(1),
                    },
                ],
            },
        }],
        stats: EngineStats {
            workers: 2,
            victims: 3,
            cache_hits: 1,
            cache_misses: 2,
            journal_hits: 0,
            skipped: 1,
            degraded: 1,
            prune_time: ms(1250),
            analysis_time: ms(40_000),
            receiver_time: Duration::ZERO,
            recovery_time: ms(8),
            wall_time: ms(25_000),
            worker_busy: vec![ms(20_000), ms(21_250)],
            steals: 0,
            peak_alloc_bytes: 1 << 20,
            allocs: 777,
            events_dropped: 2,
        },
        clusters: vec![
            cost("bus0.3", 11, false, 1000, 40_000, 0),
            cost("acc \"q3\"", 1, true, 250, 0, 0),
        ],
        trace: None,
        interrupted: true,
    };

    let mut trace = Trace::default();
    trace.spans.push(Span {
        cat: "xtalk",
        name: "prune",
        label: Some("bus0_1 \"a\"".into()),
        tid: 0,
        start_ns: 1500,
        dur_ns: 2_500_001,
        alloc_bytes: 4096,
        alloc_count: 12,
    });
    trace.spans.push(Span {
        cat: "mor",
        name: "reduce",
        label: None,
        tid: 3,
        start_ns: 4000,
        dur_ns: 1000,
        alloc_bytes: 0,
        alloc_count: 0,
    });
    trace.counters.insert("engine.cache.hit".into(), 7);
    trace.counters.insert("mor.reduce \"n\"".into(), 0);

    assert_eq!(
        [report.profile_json(), report.signoff_json(), trace.to_chrome_trace()],
        [
            concat!(
                "{\"engine\":{\"workers\":2,\"victims\":3,\"cache_hits\":1",
                ",\"cache_misses\":2,\"journal_hits\":0,\"skipped\":1,\"interrupted\":true",
                ",\"wall_ms\":25.0,\"prune_ms\":1.25,\"analysis_ms\":40.0",
                ",\"receiver_ms\":0.0,\"recovery_ms\":0.008",
                ",\"events_dropped\":2,\"utilization\":0.825,\"throughput\":120.0",
                ",\"errors\":0,\"degraded\":1},\"memory\":{\"peak_alloc_bytes\":1048576",
                ",\"allocs\":777},\"clusters\":[{\"name\":\"bus0.3\",\"cluster_size\":11",
                ",\"cached\":false,\"prune_ms\":1.0,\"analysis_ms\":40.0",
                ",\"receiver_ms\":0.0,\"total_ms\":41.0},{\"name\":\"acc \\\"q3\\\"\"",
                ",\"cluster_size\":1,\"cached\":true,\"prune_ms\":0.25,\"analysis_ms\":0.0",
                ",\"receiver_ms\":0.0,\"total_ms\":0.25}]}",
            ),
            concat!(
                "{\"chip\":{\"warn_frac\":0.1,\"warn_frac_bits\":\"3fb999999999999a\"",
                ",\"fail_frac\":0.2,\"fail_frac_bits\":\"3fc999999999999a\"",
                ",\"pruning\":{\"mean_before\":0.0",
                ",\"mean_before_bits\":\"0000000000000000\",\"mean_component\":0.0",
                ",\"mean_component_bits\":\"0000000000000000\",\"mean_after\":0.0",
                ",\"mean_after_bits\":\"0000000000000000\",\"max_after\":0",
                ",\"active_clusters\":0},\"verdicts\":[]},\"degradations\":[{\"net\":4",
                ",\"name\":\"bus \\\"0\\\"\",\"recovered\":\"worst_case\"",
                ",\"attempts\":[{\"rung\":\"baseline\",\"reason\":\"not SPD\\n\"}",
                ",{\"rung\":\"gmin_boost\",\"reason\":\"\"}]}]}",
            ),
            concat!(
                "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{\"name\":\"thread_name\"",
                ",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"worker-0\"}}",
                ",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":3",
                ",\"args\":{\"name\":\"worker-3\"}},{\"name\":\"prune\",\"cat\":\"xtalk\"",
                ",\"ph\":\"X\",\"ts\":1.500,\"dur\":2500.001,\"pid\":1,\"tid\":0",
                ",\"args\":{\"label\":\"bus0_1 \\\"a\\\"\",\"alloc_bytes\":4096",
                ",\"allocs\":12}},{\"name\":\"reduce\",\"cat\":\"mor\",\"ph\":\"X\"",
                ",\"ts\":4.000,\"dur\":1.000,\"pid\":1,\"tid\":3}",
                ",{\"name\":\"engine.cache.hit\",\"ph\":\"C\",\"ts\":0,\"pid\":1",
                ",\"args\":{\"value\":0}},{\"name\":\"engine.cache.hit\",\"ph\":\"C\"",
                ",\"ts\":2501.501,\"pid\":1,\"args\":{\"value\":7}}",
                ",{\"name\":\"mor.reduce \\\"n\\\"\",\"ph\":\"C\",\"ts\":0,\"pid\":1",
                ",\"args\":{\"value\":0}},{\"name\":\"mor.reduce \\\"n\\\"\",\"ph\":\"C\"",
                ",\"ts\":2501.501,\"pid\":1,\"args\":{\"value\":0}}]}",
            ),
        ]
    );
}
