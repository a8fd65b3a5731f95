//! What a run leaves behind: the one-line driver result, the human
//! metric listing, `results.json`, and one Chrome trace per traced run.

use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::span::chrome_trace;
use crate::workloads::{Outcome, RunConfig};
use pcv_trace::json::str_lit;
use std::path::Path;

/// One run of one workload, ready to print or store.
#[derive(Debug)]
pub struct RunRecord {
    pub workload: String,
    pub cfg: RunConfig,
    pub outcome: Outcome,
}

/// A JSON number with all its digits; non-finite values have no JSON form
/// and are reported as 0 (the run is marked incorrect elsewhere).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

impl RunRecord {
    pub fn new(workload: &str, cfg: RunConfig, outcome: Outcome) -> Self {
        RunRecord { workload: workload.to_owned(), cfg, outcome }
    }

    /// The metrics this run must report: every end-to-end metric when
    /// untraced, every per-layer metric when traced.
    fn table(&self) -> &'static [MetricDef] {
        if self.cfg.trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Correct: at least one operation, none failed, and every end-to-end
    /// metric measured as a finite, nonzero number. (A per-layer metric
    /// may be absent: the workload never entered that layer; it reads 0.)
    pub fn correct(&self) -> bool {
        let measured = self.cfg.trace
            || END_TO_END.iter().all(|m| {
                self.outcome.metrics.get(m.name).is_some_and(|&(v, _)| v.is_finite() && v != 0.0)
            });
        self.outcome.attempted > 0
            && self.outcome.failed == 0
            && measured
            && self.outcome.metrics.values().all(|&(v, _)| v.is_finite())
    }

    /// `name value unit (n=samples)`, in table order.
    pub fn metric_lines(&self) -> Vec<String> {
        let mut lines: Vec<String> = self
            .table()
            .iter()
            .filter_map(|m| self.outcome.metrics.get(m.name).map(|&(v, n)| (m, v, n)))
            .map(|(m, v, n)| format!("  {:<36} {:>14.6} {:<6} (n={n})", m.name, v, m.unit))
            .collect();
        lines.push(format!(
            "  {} of {} operations failed; correct: {}",
            self.outcome.failed,
            self.outcome.attempted,
            self.correct()
        ));
        lines
    }

    fn metrics_json(&self, with_counts: bool) -> String {
        let mut out = String::from("{");
        for (i, m) in self.table().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let (value, n) = self.outcome.metrics.get(m.name).copied().unwrap_or((0.0, 0));
            out.push_str(&format!(
                "{}:{{\"value\":{},\"unit\":{}",
                str_lit(m.name),
                number(value),
                str_lit(m.unit)
            ));
            if with_counts {
                out.push_str(&format!(",\"n\":{n}"));
            }
            out.push('}');
        }
        out.push('}');
        out
    }

    /// The driver's result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn driver_json(&self) -> String {
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.correct(),
            self.outcome.attempted.max(1),
            self.outcome.failed,
            self.metrics_json(false)
        )
    }

    fn to_json(&self) -> String {
        let failures: Vec<String> = self.outcome.failures.iter().map(|f| str_lit(f)).collect();
        format!(
            "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"correct\":{},\
             \"attempted\":{},\"failed\":{},\"failures\":[{}],\"metrics\":{}}}",
            str_lit(&self.workload),
            self.cfg.seed,
            self.cfg.seconds,
            self.cfg.trace,
            self.correct(),
            self.outcome.attempted,
            self.outcome.failed,
            failures.join(","),
            self.metrics_json(true)
        )
    }

    /// Write this run's spans to `<dir>/trace-<workload>-seed<N>.json`.
    pub fn write_chrome_trace(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let file = dir.join(format!("trace-{}-seed{}.json", self.workload, self.cfg.seed));
        std::fs::write(file, chrome_trace(&self.outcome.spans))
    }
}

/// Where and on what the numbers were taken.
#[derive(Debug)]
pub struct Environment {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub git_commit: String,
    pub loadavg_1m: f64,
    /// Load average above half the cores when the run started: timings
    /// from such a run are suspect.
    pub noisy: bool,
}

/// First line of a helper command's output, or `unknown`. Run from the
/// benchmark directory; git may look no further up than the checkout that
/// holds it.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .env("GIT_CEILING_DIRECTORIES", concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

impl Environment {
    pub fn capture() -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        let loadavg_1m = std::fs::read_to_string("/proc/loadavg")
            .ok()
            .and_then(|t| t.split_whitespace().next().and_then(|v| v.parse().ok()))
            .unwrap_or(0.0);
        Environment {
            nproc,
            cpu_model,
            rustc: command_line("rustc", &["--version"]),
            git_commit: command_line("git", &["rev-parse", "HEAD"]),
            loadavg_1m,
            noisy: loadavg_1m > 0.5 * nproc as f64,
        }
    }
}

/// The `results.json` document: environment, then every run.
pub fn results_json(env: &Environment, seed: u64, smoke: bool, runs: &[RunRecord]) -> String {
    let runs: Vec<String> = runs.iter().map(RunRecord::to_json).collect();
    format!(
        "{{\"schema\":1,\"seed\":{seed},\"smoke\":{smoke},\"noisy\":{},\"environment\":{{\
         \"nproc\":{},\"cpu_model\":{},\"rustc\":{},\"git_commit\":{},\"loadavg_1m\":{}}},\
         \"runs\":[\n{}\n]}}\n",
        env.noisy,
        env.nproc,
        str_lit(&env.cpu_model),
        str_lit(&env.rustc),
        str_lit(&env.git_commit),
        number(env.loadavg_1m),
        runs.join(",\n")
    )
}
