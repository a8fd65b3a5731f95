//! The statistical benchmark-regression gate: stable-schema benchmark
//! reports (`BENCH_signoff.json`), median/MAD summaries, and a noise-aware
//! pass/fail comparison against a checked-in baseline.
//!
//! The gate is deliberately conservative about noise: a run only counts as
//! regressed when its median exceeds the baseline median by **both** the
//! relative threshold (default 15%) *and* the combined noise band
//! (`NOISE_MADS` × the two runs' MADs). A jittery machine widens its own
//! band instead of flapping the gate; a real slowdown clears both bars.
//!
//! The gate binaries (`signoff_bench`, `eco_bench`, `scaleout_bench`) share
//! one command line ([`GateArgs`]) and one ending ([`finish`]).

use pcv_obs::json::{self, Value};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Schema version stamped into every benchmark report.
const SCHEMA: u64 = 1;

/// Default relative regression threshold: 15% over the baseline median.
const DEFAULT_THRESHOLD: f64 = 0.15;

/// Width of the noise band in combined MADs (baseline + current).
const NOISE_MADS: f64 = 3.0;

/// One benchmark run: raw samples plus the robust summary statistics the
/// gate compares. Serializes to a stable JSON schema.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Benchmark case name (stable identifier, e.g. `"signoff_bundle16"`).
    pub bench: String,
    /// Untimed warmup iterations that preceded the samples.
    pub warmup: usize,
    /// Per-iteration wall times, milliseconds, in run order.
    pub samples_ms: Vec<f64>,
    /// Median of the samples.
    pub median_ms: f64,
    /// Median absolute deviation of the samples — the robust noise scale.
    pub mad_ms: f64,
    /// Fastest sample.
    pub min_ms: f64,
    /// Slowest sample.
    pub max_ms: f64,
    /// Peak live heap bytes over the run (0 when the instrumented
    /// allocator is not installed).
    pub peak_alloc_bytes: u64,
}

/// Median of a non-empty, unsorted slice (averages the middle pair for
/// even lengths).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// Median absolute deviation around the median.
pub fn mad(samples: &[f64]) -> f64 {
    let m = median(samples);
    let deviations: Vec<f64> = samples.iter().map(|s| (s - m).abs()).collect();
    median(&deviations)
}

/// Summarize raw samples into a [`BenchReport`].
///
/// # Panics
///
/// Panics when `samples_ms` is empty.
pub fn summarize(
    bench: impl Into<String>,
    warmup: usize,
    samples_ms: Vec<f64>,
    peak_alloc_bytes: u64,
) -> BenchReport {
    let median_ms = median(&samples_ms);
    let mad_ms = mad(&samples_ms);
    let min_ms = samples_ms.iter().copied().fold(f64::INFINITY, f64::min);
    let max_ms = samples_ms.iter().copied().fold(0.0f64, f64::max);
    BenchReport {
        bench: bench.into(),
        warmup,
        samples_ms,
        median_ms,
        mad_ms,
        min_ms,
        max_ms,
        peak_alloc_bytes,
    }
}

impl BenchReport {
    /// Render the stable-schema JSON document (`BENCH_signoff.json`).
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.raw("schema", SCHEMA).str("bench", &self.bench).raw("warmup", self.warmup);
            o.raw("iterations", self.samples_ms.len()).f64("median_ms", self.median_ms);
            o.f64("mad_ms", self.mad_ms).f64("min_ms", self.min_ms).f64("max_ms", self.max_ms);
            o.raw("peak_alloc_bytes", self.peak_alloc_bytes);
            o.arr("samples_ms", |a| {
                for &s in &self.samples_ms {
                    a.f64(s);
                }
            });
        })
    }

    /// Parse a report back from its JSON form. `None` for malformed
    /// documents or unknown schema versions.
    pub fn parse(text: &str) -> Option<BenchReport> {
        let v = json::parse(text.trim()).ok()?;
        if v.get("schema")?.as_u64()? != SCHEMA {
            return None;
        }
        let num = |key: &str| v.get(key).and_then(Value::as_f64);
        let samples_ms: Vec<f64> =
            v.get("samples_ms")?.as_arr()?.iter().map(Value::as_f64).collect::<Option<_>>()?;
        if samples_ms.is_empty() {
            return None;
        }
        Some(BenchReport {
            bench: v.get("bench")?.as_str()?.to_owned(),
            warmup: v.get("warmup")?.as_u64()? as usize,
            samples_ms,
            median_ms: num("median_ms")?,
            mad_ms: num("mad_ms")?,
            min_ms: num("min_ms")?,
            max_ms: num("max_ms")?,
            peak_alloc_bytes: v.get("peak_alloc_bytes")?.as_u64()?,
        })
    }

    /// Write the report to `path` atomically (write-temp + fsync +
    /// rename), so a crash mid-write can never tear a baseline that the
    /// regression gate would later misread.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    fn write(&self, path: &Path) -> std::io::Result<()> {
        pcv_engine::fs::Fs::real().write_atomic(path, self.to_json().as_bytes())
    }

    /// Read and parse a report from `path`.
    fn read(path: &Path) -> Option<BenchReport> {
        BenchReport::parse(&std::fs::read_to_string(path).ok()?)
    }
}

/// The gate's decision for one baseline/current pair.
#[derive(Debug, Clone, PartialEq)]
struct GateVerdict {
    /// `true` when the current run is a regression.
    regressed: bool,
    /// current median / baseline median.
    ratio: f64,
    /// One-line human-readable explanation.
    detail: String,
}

/// Compare `current` against `baseline` with relative threshold
/// `threshold` (e.g. `0.15` for 15%). Regressed iff the current median
/// exceeds both `baseline × (1 + threshold)` and the noise band
/// `baseline + NOISE_MADS × (mad_baseline + mad_current)`.
fn gate(baseline: &BenchReport, current: &BenchReport, threshold: f64) -> GateVerdict {
    let threshold_limit = baseline.median_ms * (1.0 + threshold);
    let noise_limit = baseline.median_ms + NOISE_MADS * (baseline.mad_ms + current.mad_ms);
    let limit_ms = threshold_limit.max(noise_limit);
    let regressed = current.median_ms > limit_ms;
    let ratio =
        if baseline.median_ms > 0.0 { current.median_ms / baseline.median_ms } else { f64::NAN };
    let detail = format!(
        "{}: median {:.3} ms vs baseline {:.3} ms ({:.2}x, limit {:.3} ms) — {}",
        current.bench,
        current.median_ms,
        baseline.median_ms,
        ratio,
        limit_ms,
        if regressed { "REGRESSED" } else { "ok" }
    );
    GateVerdict { regressed, ratio, detail }
}

/// The command line the gate binaries share: `--iters N`, `--warmup N`,
/// `--out FILE`, `--baseline FILE`, `--threshold X`, `--serve-exe FILE`,
/// `--check`, `--bless`.
#[derive(Debug)]
pub struct GateArgs {
    /// Timed repetitions, at least 1.
    pub iters: usize,
    /// Untimed warmup repetitions; `None` in a gate that takes none (the
    /// flag is then unknown to it).
    pub warmup: Option<usize>,
    /// The `pcv_serve` binary to spawn workers from; `None` likewise.
    pub serve_exe: Option<PathBuf>,
    bin: &'static str,
    out: PathBuf,
    baseline: PathBuf,
    threshold: f64,
    check: bool,
    bless: bool,
}

impl GateArgs {
    /// Parse the process arguments of gate binary `bin` (`<what>_bench`)
    /// over its defaults; the report defaults to `target/BENCH_<what>.json`
    /// in the workspace, the baseline to the checked-in
    /// `baselines/BENCH_<what>.json`. A malformed
    /// command line is reported on stderr; the error is the exit code (2).
    pub fn parse(
        bin: &'static str,
        iters: usize,
        warmup: Option<usize>,
        serve_exe: Option<PathBuf>,
    ) -> Result<GateArgs, ExitCode> {
        let file = format!("BENCH_{}.json", bin.trim_end_matches("_bench"));
        let crate_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
        let baseline = crate_dir.join("baselines").join(&file);
        // Under the workspace's build directory, never beside the tracked
        // copies at the repo root: a local run leaves no tracked file dirty.
        let out = crate_dir.join("../../target").join(&file);
        let threshold = DEFAULT_THRESHOLD;
        let mut args = GateArgs {
            iters,
            warmup,
            serve_exe,
            bin,
            out,
            baseline,
            threshold,
            check: false,
            bless: false,
        };
        args.read(std::env::args().skip(1)).map_err(|e| {
            eprintln!("{bin}: {e}");
            ExitCode::from(2)
        })?;
        Ok(args)
    }

    fn read(&mut self, mut it: impl Iterator<Item = String>) -> Result<(), String> {
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            let count = |text: String| text.parse::<usize>().map_err(|e| e.to_string());
            match flag.as_str() {
                "--iters" => self.iters = count(value()?)?,
                "--warmup" if self.warmup.is_some() => self.warmup = Some(count(value()?)?),
                "--out" => self.out = value()?.into(),
                "--baseline" => self.baseline = value()?.into(),
                "--threshold" => self.threshold = value()?.parse().map_err(|e| format!("{e}"))?,
                "--serve-exe" if self.serve_exe.is_some() => self.serve_exe = Some(value()?.into()),
                "--check" => self.check = true,
                "--bless" => self.bless = true,
                other => return Err(format!("unknown flag {other}")),
            }
        }
        if self.iters == 0 {
            return Err("--iters must be at least 1".to_owned());
        }
        Ok(())
    }
}

/// End a gate binary's run: write `report` to `--out` and print it; under
/// `--bless` make it the new baseline; under `--check` ask `floors` (the
/// gate's own hard limits, which print what they find), then hold the report
/// to the baseline. Exit code 0, 1 for a regression or a missed floor, 2 for
/// an unwritable report or an unreadable baseline.
pub fn finish(report: &BenchReport, args: &GateArgs, floors: impl FnOnce() -> bool) -> ExitCode {
    let (bin, baseline) = (args.bin, args.baseline.display());
    if let Err(e) = report.write(&args.out) {
        eprintln!("{bin}: cannot write {}: {e}", args.out.display());
        return ExitCode::from(2);
    }
    println!("{}", report.to_json());
    if args.bless {
        if let Some(dir) = args.baseline.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Err(e) = report.write(&args.baseline) {
            eprintln!("{bin}: cannot bless {baseline}: {e}");
            return ExitCode::from(2);
        }
        eprintln!("{bin}: blessed new baseline at {baseline}");
    } else if args.check {
        if !floors() {
            return ExitCode::FAILURE;
        }
        let Some(checked_in) = BenchReport::read(&args.baseline) else {
            eprintln!("{bin}: no readable baseline at {baseline} (seed one with --bless)");
            return ExitCode::from(2);
        };
        let verdict = gate(&checked_in, report, args.threshold);
        eprintln!("{bin}: {}", verdict.detail);
        if verdict.regressed {
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(samples: &[f64]) -> BenchReport {
        summarize("signoff_bundle16", 2, samples.to_vec(), 1 << 20)
    }

    #[test]
    fn median_and_mad_are_robust() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // One wild outlier barely moves the robust statistics.
        let m = mad(&[10.0, 10.5, 9.5, 10.0, 100.0]);
        assert!(m <= 0.5, "MAD must shrug off the outlier, got {m}");
    }

    #[test]
    fn report_round_trips_through_json() {
        let r = report(&[12.0, 11.5, 12.5, 11.8, 12.2]);
        let parsed = BenchReport::parse(&r.to_json()).expect("well-formed");
        assert_eq!(parsed, r);
        assert_eq!(BenchReport::parse("not json"), None);
        assert_eq!(BenchReport::parse("{\"schema\":99}"), None);
    }

    #[test]
    fn identical_runs_pass_the_gate() {
        let base = report(&[10.0, 10.2, 9.8, 10.1, 9.9]);
        let v = gate(&base, &base.clone(), DEFAULT_THRESHOLD);
        assert!(!v.regressed, "{}", v.detail);
        assert!((v.ratio - 1.0).abs() < 1e-12);
    }

    #[test]
    fn a_synthetic_2x_slowdown_fails_the_gate() {
        // The acceptance drill: double every sample and the gate must trip.
        let base = report(&[10.0, 10.2, 9.8, 10.1, 9.9]);
        let slow = report(&[20.0, 20.4, 19.6, 20.2, 19.8]);
        let v = gate(&base, &slow, DEFAULT_THRESHOLD);
        assert!(v.regressed, "a 2x slowdown must regress: {}", v.detail);
        assert!((v.ratio - 2.0).abs() < 0.05);
        assert!(v.detail.contains("REGRESSED"));
    }

    #[test]
    fn noisy_runs_widen_their_own_band() {
        // A 20% median bump that sits inside the combined noise band must
        // NOT regress: the MADs are huge relative to the shift.
        let base = report(&[10.0, 13.0, 7.0, 11.0, 9.0]); // mad = 2.0
        let wobbly = report(&[12.0, 15.0, 9.0, 13.0, 11.0]); // mad = 2.0, median 12
        let v = gate(&base, &wobbly, DEFAULT_THRESHOLD);
        assert!(!v.regressed, "inside the noise band: {}", v.detail);
        // The same shift with tight samples IS a regression.
        let tight_base = report(&[10.0, 10.01, 9.99, 10.0, 10.0]);
        let tight_slow = report(&[12.0, 12.01, 11.99, 12.0, 12.0]);
        let v = gate(&tight_base, &tight_slow, DEFAULT_THRESHOLD);
        assert!(v.regressed, "tight 20% shift must regress: {}", v.detail);
    }

    #[test]
    fn gate_files_round_trip_on_disk() {
        let dir = std::env::temp_dir().join("pcv-bench-gate-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_signoff.json");
        let r = report(&[5.0, 5.5, 4.5]);
        r.write(&path).unwrap();
        assert_eq!(BenchReport::read(&path), Some(r));
        let _ = std::fs::remove_file(&path);
    }
}
