//! The four workloads and what they share: run configuration, the
//! operation ledger behind `attempted` / `failed`, scratch directories,
//! and the verdict checks every sign-off goes through.

pub mod cold;
pub mod eco;
pub mod layers;
pub mod served;

use crate::span::{Span, Tracer};
use crate::stats::median;
use pcv_engine::{Engine, EngineConfig, EngineReport};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Engine worker threads for every in-process operation (and threads of
/// the layer replay, so both run under the same conditions). One, not
/// two: on the 2-vCPU sandboxes this benchmark is judged on, two compute
/// threads share a host allowance that swings between about 1.0 and 1.7
/// cores from minute to minute, which moved a 2-worker sign-off by ±25 %
/// run to run, while one thread is steady to ±2 %. A benchmark that cannot
/// hold its bounds guards nothing. For the same reason the whole harness
/// runs on one CPU (`crate::affinity`), the two worker processes of
/// `served_shard2` included.
pub const WORKERS: usize = 1;

/// How one run of one workload is configured.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Input seed: same seed, same inputs.
    pub seed: u64,
    /// Nominal measuring time; repetition counts are a fixed function of
    /// it (never a time-boxed loop), so sample counts and per-op peak
    /// heap are deterministic.
    pub seconds: u64,
    /// Record harness spans and run the layer replay, probes and oracles.
    pub trace: bool,
    /// Shrunken chips, same code paths and checks.
    pub smoke: bool,
}

impl RunConfig {
    /// Timed operations: `per_10s` for every ten nominal seconds, at
    /// least `floor`.
    pub fn ops(&self, per_10s: usize, floor: usize) -> usize {
        ((per_10s as u64 * self.seconds) as usize / 10).max(floor)
    }
}

/// A measured value and how many samples stand behind it.
pub type Measured = (f64, usize);

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (victim verdicts, plus HTTP requests served).
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
    /// Metric name → (value, sample count).
    pub metrics: BTreeMap<&'static str, Measured>,
    /// Harness spans of the traced pass (empty when untraced).
    pub spans: Vec<Span>,
}

/// The operation ledger: every checked operation is attempted once and
/// fails at most once.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Checks {
    /// Count one operation; `why` describes the failure.
    pub fn op(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(why);
        }
    }

    /// A failed check on an operation already counted as attempted (or on
    /// the run as a whole).
    pub fn fail(&mut self, why: impl FnOnce() -> String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(why());
        }
    }

    /// Fail once when `ok` is false, without counting a new operation.
    pub fn require(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.fail(why);
        }
    }
}

/// Everything a workload accumulates while it runs.
pub struct Run {
    pub cfg: RunConfig,
    pub tracer: Tracer,
    pub checks: Checks,
    pub metrics: BTreeMap<&'static str, Measured>,
    pub scratch: Scratch,
}

impl Run {
    pub fn new(cfg: RunConfig, workload: &str) -> Self {
        Run {
            cfg,
            tracer: Tracer::new(cfg.trace),
            checks: Checks::default(),
            metrics: BTreeMap::new(),
            scratch: Scratch::new(workload),
        }
    }

    /// Record a metric. Names must be in the metric table.
    pub fn put(&mut self, name: &'static str, value: f64, n: usize) {
        debug_assert!(crate::metrics::def(name).is_some(), "unknown metric {name}");
        self.metrics.insert(name, (value, n));
    }

    /// Record the median of `samples` (nothing when there are none).
    pub fn put_median(&mut self, name: &'static str, samples: &[f64], scale: f64) {
        if !samples.is_empty() {
            self.put(name, median(samples) * scale, samples.len());
        }
    }

    /// Record the mean of `samples` (nothing when there are none).
    pub fn put_mean(&mut self, name: &'static str, samples: &[f64], scale: f64) {
        if !samples.is_empty() {
            self.put(name, crate::stats::mean(samples) * scale, samples.len());
        }
    }

    /// Record the mean duration of every span named `span`, scaled from
    /// seconds (nothing when the span never ran).
    pub fn put_span_mean(&mut self, name: &'static str, span: &str, scale: f64) {
        let samples = self.tracer.durations(span);
        self.put_mean(name, &samples, scale);
    }

    /// Record the median duration of every span named `span`.
    pub fn put_span_median(&mut self, name: &'static str, span: &str, scale: f64) {
        let samples = self.tracer.durations(span);
        self.put_median(name, &samples, scale);
    }

    pub fn finish(mut self) -> Outcome {
        if self.cfg.trace && self.checks.attempted > 0 {
            let frac = self.checks.failed as f64 / self.checks.attempted as f64;
            self.put("e2e.failed_frac", frac, self.checks.attempted as usize);
        }
        Outcome {
            attempted: self.checks.attempted,
            failed: self.checks.failed,
            failures: self.checks.notes,
            metrics: self.metrics,
            spans: self.tracer.spans(),
        }
    }
}

/// A per-run scratch directory inside the benchmark's own `out/` (the
/// harness reads and writes nowhere else), removed on drop.
#[derive(Debug)]
pub struct Scratch {
    root: PathBuf,
}

impl Scratch {
    fn new(workload: &str) -> Self {
        let root = crate::out_dir().join("tmp").join(format!("{}-{workload}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("scratch directory under benchmark/out");
        Scratch { root }
    }

    /// Wipe and recreate the subdirectory `name` — every cold operation
    /// starts from an empty cache directory.
    pub fn fresh(&self, name: &str) -> PathBuf {
        let dir = self.root.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch subdirectory");
        dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// The engine as every in-process operation configures it: [`WORKERS`]
/// threads, cache + journal + lock + ledger on (the defaults), next to
/// `cache`.
pub fn engine_config(cache: &Path, check_receivers: bool) -> EngineConfig {
    EngineConfig {
        workers: WORKERS,
        cache_path: Some(cache.to_owned()),
        check_receivers,
        ..EngineConfig::default()
    }
}

/// Build the engine of [`engine_config`].
pub fn engine(cache: &Path, check_receivers: bool) -> Engine {
    Engine::new(engine_config(cache, check_receivers))
}

/// The bits of one verdict that the sign-off document serializes.
pub type VerdictBits = (u64, u64, Option<u64>);

/// Name → verdict bits of a report.
pub fn verdict_bits(report: &EngineReport) -> BTreeMap<String, VerdictBits> {
    report
        .chip
        .verdicts
        .iter()
        .map(|v| {
            let rx = v.receiver.as_ref().map(|r| r.output_peak.to_bits());
            (v.name.clone(), (v.rise_peak.to_bits(), v.fall_peak.to_bits(), rx))
        })
        .collect()
}

/// Check one sign-off, one operation per expected victim: the verdict
/// (`got` is [`verdict_bits`] of `report`) exists, is finite, did not come
/// from a recovery rung, and — when a reference is given — matches it bit
/// for bit.
pub fn check_verdicts(
    checks: &mut Checks,
    what: &str,
    report: &EngineReport,
    got: &BTreeMap<String, VerdictBits>,
    victims: &[String],
    reference: Option<&BTreeMap<String, VerdictBits>>,
) {
    let degraded: std::collections::BTreeSet<&str> =
        report.degradations.iter().map(|d| d.name.as_str()).collect();
    for name in victims {
        let verdict = got.get(name);
        let finite = verdict.is_some_and(|&(r, f, _)| {
            f64::from_bits(r).is_finite() && f64::from_bits(f).is_finite()
        });
        let matches = reference.is_none_or(|r| r.get(name) == verdict);
        checks.op(finite && matches && !degraded.contains(name.as_str()), || {
            format!("{what}: verdict for {name} missing, non-finite, degraded or mismatched")
        });
    }
    checks.require(report.errors.is_empty() && !report.interrupted, || {
        format!("{what}: {} engine errors, interrupted={}", report.errors.len(), report.interrupted)
    });
}

/// Victim names of a chip, in audit order.
pub fn victim_names(chip: &pcv_engine::ResidentChip) -> Vec<String> {
    chip.victims().iter().map(|&v| chip.db().net(v).name().to_owned()).collect()
}

/// Allocations the process has made so far; differences price one
/// operation.
pub fn allocs_now() -> u64 {
    pcv_obs::mem::snapshot().map_or(0, |s| s.allocs)
}

/// Peak live heap since the last `mem::reset_peak`, MiB.
pub fn peak_heap_mib() -> f64 {
    pcv_obs::mem::snapshot().map_or(0.0, |s| s.peak_bytes as f64 / (1024.0 * 1024.0))
}

/// Run one workload by name.
pub fn run(name: &str, cfg: RunConfig) -> Option<Outcome> {
    match name {
        "dsp_cold" => Some(cold::dsp_cold(cfg)),
        "mesh_cold" => Some(cold::mesh_cold(cfg)),
        "eco_edit" => Some(eco::eco_edit(cfg)),
        "served_shard2" => Some(served::served_shard2(cfg)),
        _ => None,
    }
}
