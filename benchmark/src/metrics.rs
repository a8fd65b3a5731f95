//! The metric table: every name the harness may emit, with its unit,
//! direction and — for end-to-end metrics — the bound by which a later
//! change may worsen it. `BENCHMARK.json` at the repo root mirrors this
//! table and a self-test keeps the two equal.

/// Which direction is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric definition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// `Some(bound)` for an end-to-end metric (share of the parent's
    /// median it may worsen by), `None` for a per-layer metric.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef { name, unit, better: Better::Lower, bound: Some(bound) }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Lower, bound: None }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Higher, bound: None }
}

/// End-to-end metrics: measured with tracing off, on every workload.
///
/// The bounds are set by what the 2-vCPU sandbox can hold, not by what
/// one would like to guard: across sets of ten runs of one commit the
/// timings' interquartile spread reached 8 % of the median and the sets'
/// medians differed by up to 6 % (host noise — everything runs on one CPU
/// and the inputs do the same work for every seed), so a timing bound
/// under three times that would reject an unchanged program. Heap peaks
/// are deterministic except on `served_shard2` (4–5 %).
pub const END_TO_END: &[MetricDef] =
    &[e2e("setup_s", "s", 0.25), e2e("signoff_p50_s", "s", 0.25), e2e("peak_heap_mb", "MiB", 0.15)];

/// Per-layer metrics: measured by the traced pass. A metric reads 0 on a
/// workload that never enters its layer.
pub const PER_LAYER: &[MetricDef] = &[
    // End-to-end numbers that exist on one workload only, so they cannot
    // carry a bound (a bounded metric must be measured on every workload).
    lo("e2e.signoff_p90_s", "s"),
    lo("e2e.read_p50_ms", "ms"),
    lo("e2e.failed_frac", "ratio"),
    hi("netlist.parse_spef_mb_per_s", "MB/s"),
    lo("netlist.spef_bytes", "B"),
    lo("netlist.eco_diff_ms", "ms"),
    lo("designs.extract_ms", "ms"),
    lo("cells.liberty_load_ms", "ms"),
    lo("cells.characterize_ms_per_cell", "ms"),
    lo("engine.elaborate_ms", "ms"),
    lo("engine.fingerprint_us_per_victim", "us"),
    lo("engine.eco_plan_ms", "ms"),
    lo("engine.cache_load_ms", "ms"),
    lo("engine.cache_save_ms", "ms"),
    lo("engine.cache_entries", "count"),
    lo("engine.journal_append_us", "us"),
    lo("engine.journal_load_ms", "ms"),
    lo("engine.wall_s", "s"),
    lo("engine.busy_s", "s"),
    hi("engine.utilization", "ratio"),
    lo("engine.prune_s", "s"),
    lo("engine.analysis_s", "s"),
    lo("engine.receiver_s", "s"),
    lo("engine.unattributed_frac", "ratio"),
    lo("engine.steals", "count"),
    hi("engine.cache_hits", "count"),
    lo("engine.cache_misses", "count"),
    lo("engine.degraded", "count"),
    lo("engine.allocs", "count"),
    lo("engine.batch_wall_s", "s"),
    lo("xtalk.prune_us_per_victim", "us"),
    lo("xtalk.cluster_nets_mean", "count"),
    lo("xtalk.neighbors_before_mean", "count"),
    lo("xtalk.build_cluster_us_per_call", "us"),
    lo("xtalk.cluster_nodes_mean", "count"),
    lo("xtalk.receiver_check_ms_per_call", "ms"),
    lo("xtalk.receiver_checks", "count"),
    lo("sparse.chol_factor_us_per_call", "us"),
    lo("sparse.chol_nnz_mean", "count"),
    lo("sparse.chol_solve_us_per_call", "us"),
    lo("mor.reduce_ms_per_call", "ms"),
    lo("mor.reduced_order_mean", "count"),
    lo("mor.ports_mean", "count"),
    lo("mor.diagonalize_us_per_call", "us"),
    lo("mor.simulate_ms_per_call", "ms"),
    lo("mor.steps_per_call", "count"),
    lo("mor.newton_iters_per_call", "count"),
    lo("mor.us_per_step", "us"),
    lo("mor.allocs_per_step", "count"),
    lo("mor.transfer_max_rel_err", "ratio"),
    lo("spice.oracle_ms_per_analysis", "ms"),
    lo("spice.oracle_newton_iters", "count"),
    hi("spice.mpvl_speedup", "ratio"),
    lo("spice.avg_err_pct", "%"),
    lo("spice.max_err_pct", "%"),
    lo("serve.session_create_ms", "ms"),
    lo("serve.run_submit_ms", "ms"),
    lo("serve.signoff_fetch_ms", "ms"),
    lo("serve.spawn_to_hello_ms", "ms"),
    lo("serve.shard_imbalance", "ratio"),
    lo("serve.shard_restarts", "count"),
    lo("serve.worker_peak_heap_mb", "MiB"),
    lo("serve.events_lines", "count"),
    lo("serve.events_dropped", "count"),
    lo("serve.overhead_frac", "ratio"),
    lo("serve.http_parse_us", "us"),
    lo("serve.http_roundtrip_us", "us"),
    lo("serve.metrics_scrape_ms", "ms"),
    lo("serve.read_p90_ms", "ms"),
    lo("serve.reads", "count"),
    lo("serve.http_429", "count"),
    lo("attribution.residual_frac", "ratio"),
    // Estimated share of the engine's busy time spent in a layer (self
    // time of the replayed sample, scaled by the engine's own per-victim
    // costs); `share.numeric_of_op` is against the op's wall time.
    lo("share.mor_reduce", "ratio"),
    lo("share.mor_simulate", "ratio"),
    lo("share.xtalk_receiver_check", "ratio"),
    lo("share.xtalk_build_cluster", "ratio"),
    lo("share.numeric_of_op", "ratio"),
];

/// Look a metric up by name in either table.
pub fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// The four workloads, in run order, with why each exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "dsp_cold",
        "cold full-chip sign-off of a DSP-like block with nonlinear cell drivers and receiver checks: reduced Newton transient + receiver SPICE dominate",
    ),
    (
        "mesh_cold",
        "cold sign-off of long wires extracted at 2.5 um (~1400 RC nodes a net): Cholesky + block Lanczos dominate, a transient-only change must show nothing",
    ),
    (
        "eco_edit",
        "one-net ECO turnaround on a warm 2048-net field: SPEF parse, elaboration, diff, plan, fingerprints and cache/journal I/O dominate, numerics are <= 4 clusters",
    ),
    (
        "served_shard2",
        "full served lifecycle over HTTP with 2 worker processes and reads beside the run: framing, queue, spawn, re-elaboration, JSONL, journal merge",
    ),
];

/// How the driver invokes the benchmark, and for how long one run
/// measures.
const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];
const RUN_SECONDS: u64 = 10;

/// The `BENCHMARK.json` contract file, rendered from the tables above
/// (`pcv_benchmark manifest > BENCHMARK.json` regenerates it).
pub fn manifest_json() -> String {
    use pcv_trace::json::str_lit;
    let list = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    let metric = |m: &MetricDef| {
        let bound = m.bound.map_or(String::new(), |b| format!(", \"bound\": {b}"));
        format!(
            "{{\"name\": {}, \"unit\": {}, \"better\": {}{bound}}}",
            str_lit(m.name),
            str_lit(m.unit),
            str_lit(m.better.name())
        )
    };
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        COMMAND.iter().map(|c| str_lit(c)).collect::<Vec<_>>().join(", "),
        list(WORKLOADS
            .iter()
            .map(|(n, why)| format!("{{\"name\": {}, \"why\": {}}}", str_lit(n), str_lit(why)))
            .collect()),
        list(END_TO_END.iter().map(metric).collect()),
        list(PER_LAYER.iter().map(metric).collect()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcv_obs::json::{parse, Value};

    fn name_ok(s: &str) -> bool {
        let mut chars = s.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.len() <= 64
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(m.name), "bad metric name {:?}", m.name);
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {:?}",
                m.unit
            );
        }
        for (w, why) in WORKLOADS {
            assert!(name_ok(w) && seen.insert(w), "bad or duplicate workload name {w}");
            assert!(why.len() <= 200 && !why.contains('\n'), "why of {w} is too long");
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        let setup = def("setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound.unwrap() <= setup.bound.unwrap()));
        assert!(END_TO_END.iter().all(|m| m.bound.unwrap() <= 0.25));
    }

    /// `BENCHMARK.json` must name exactly what the harness emits: the file
    /// at the repo root is the rendered table, byte for byte.
    #[test]
    fn benchmark_json_is_the_rendered_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(on_disk, manifest_json(), "regenerate with `pcv_benchmark manifest`");
        let doc = parse(&on_disk).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]
        );
        let names = |key: &str| -> Vec<String> {
            let rows = doc.get(key).unwrap().as_arr().unwrap();
            rows.iter().map(|r| r.get("name").and_then(Value::as_str).unwrap().to_owned()).collect()
        };
        assert_eq!(names("end_to_end"), END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>());
        assert_eq!(names("per_layer"), PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>());
        assert_eq!(names("workloads"), WORKLOADS.iter().map(|w| w.0).collect::<Vec<_>>());
        assert!(on_disk.len() <= 64 * 1024);
    }
}
