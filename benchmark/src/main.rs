//! `pcv_benchmark`: the repo's one benchmark — end-to-end metrics with
//! tracing off, per-layer metrics from a separate traced pass, four
//! workloads, output checks on every operation.
//!
//! ```text
//! pcv_benchmark --workload W --seed N --seconds S --trace 0|1   one run, one JSON line
//! pcv_benchmark all [--seed N] [--runs K] [--seconds S] [--smoke] [--out FILE]
//! pcv_benchmark compare A.json B.json
//! pcv_benchmark prepare
//! pcv_benchmark manifest                                          print BENCHMARK.json
//! ```
//!
//! See `benchmark/README.md` for what is measured and why.

mod affinity;
mod compare;
mod gen;
mod metrics;
mod replay;
mod results;
mod span;
mod stats;
mod workloads;

use metrics::WORKLOADS;
use pcv_obs::TrackingAlloc;
use results::RunRecord;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::RunConfig;

// Per-operation peak heap and per-step allocation counts come from the
// instrumented allocator; shard workers report their own peak through it.
#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc::system();

/// Nominal measuring time when none is given.
const DEFAULT_SECONDS: u64 = 10;

/// Everything the benchmark writes goes under `benchmark/out/`.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// One-time work a checkout pays once: characterize the DSP driver cells
/// into `target/pcv_charlib_cache` (elaborating any DSP block fills it).
pub fn prepare() {
    use pcv_designs::dsp::DspConfig;
    let tiny = DspConfig { n_buses: 1, bus_bits: 2, n_random_nets: 0, cycle: 10e-9, seed: 1 };
    pcv_serve::session::elaborate(&pcv_serve::DesignSpec::Dsp { config: tiny })
        .expect("driver cells characterize");
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: pcv_benchmark --workload <{}> --seed N --seconds S --trace 0|1\n\
         \x20      pcv_benchmark all [--seed N] [--runs K] [--seconds S] [--smoke] [--out FILE]\n\
         \x20      pcv_benchmark compare A.json B.json\n\
         \x20      pcv_benchmark prepare\n\
         \x20      pcv_benchmark manifest",
        WORKLOADS.iter().map(|w| w.0).collect::<Vec<_>>().join("|")
    );
    ExitCode::from(2)
}

/// `--key value` pairs plus bare flags.
struct Flags(Vec<String>);

impl Flags {
    fn value(&self, key: &str) -> Option<&str> {
        self.0.iter().position(|a| a == key).and_then(|i| self.0.get(i + 1)).map(String::as_str)
    }

    fn number(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.value(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{key} needs a whole number, got {v:?}")),
        }
    }

    fn has(&self, key: &str) -> bool {
        self.0.iter().any(|a| a == key)
    }
}

/// The benchmark refuses a machine with fewer than two cores, then gives
/// one of them to itself and everything it starts (see [`affinity`]); the
/// other is left to the rest of the machine.
fn claim_a_core() -> bool {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    if cores < 2 {
        eprintln!("pcv_benchmark: needs at least 2 cores, found {cores}");
        return false;
    }
    if affinity::pin_to_one_cpu().is_none() {
        eprintln!("pcv_benchmark: cannot pin to one CPU here — timings will be noisier");
    }
    true
}

/// Run one workload once and print what it measured, one line a metric.
fn run_once(workload: &str, cfg: RunConfig) -> Option<RunRecord> {
    let outcome = workloads::run(workload, cfg)?;
    let record = RunRecord::new(workload, cfg, outcome);
    for line in record.metric_lines() {
        eprintln!("{line}");
    }
    for failure in &record.outcome.failures {
        eprintln!("  FAILED: {failure}");
    }
    Some(record)
}

/// Driver mode: one workload, one run, one JSON object on the last line.
fn cmd_driver(flags: &Flags) -> ExitCode {
    let Some(workload) = flags.value("--workload") else {
        return usage();
    };
    let parsed = (|| -> Result<RunConfig, String> {
        let trace = match flags.number("--trace", 0)? {
            0 => false,
            1 => true,
            other => return Err(format!("--trace is 0 or 1, got {other}")),
        };
        Ok(RunConfig {
            seed: flags.number("--seed", 1)?,
            seconds: flags.number("--seconds", DEFAULT_SECONDS)?.max(1),
            trace,
            smoke: flags.has("--smoke"),
        })
    })();
    let cfg = match parsed {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("pcv_benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if !claim_a_core() {
        return ExitCode::from(2);
    }
    let Some(record) = run_once(workload, cfg) else {
        eprintln!("pcv_benchmark: unknown workload {workload:?}");
        return usage();
    };
    if cfg.trace {
        if let Err(e) = record.write_chrome_trace(&out_dir()) {
            eprintln!("pcv_benchmark: cannot write the trace: {e}");
        }
    }
    println!("{}", record.driver_json());
    ExitCode::SUCCESS
}

/// The whole suite: every workload untraced, then every workload traced,
/// `--runs` times with consecutive seeds.
fn cmd_all(flags: &Flags) -> ExitCode {
    let parsed = (|| -> Result<(u64, u64, u64), String> {
        Ok((
            flags.number("--seed", 1)?,
            flags.number("--runs", 1)?.max(1),
            flags.number("--seconds", DEFAULT_SECONDS)?.max(1),
        ))
    })();
    let (seed, runs, seconds) = match parsed {
        Ok(p) => p,
        Err(e) => {
            eprintln!("pcv_benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    // Before pinning: the environment records the machine's core count.
    let env = results::Environment::capture();
    if !claim_a_core() {
        return ExitCode::from(2);
    }
    let smoke = flags.has("--smoke");
    let out = flags.value("--out").map_or_else(|| out_dir().join("results.json"), PathBuf::from);
    if env.noisy {
        eprintln!(
            "pcv_benchmark: load average {:.2} is high for {} cores — run marked noisy",
            env.loadavg_1m, env.nproc
        );
    }
    prepare();
    let mut records = Vec::new();
    for run in 0..runs {
        for trace in [false, true] {
            for (workload, _) in WORKLOADS {
                let cfg = RunConfig { seed: seed + run, seconds, trace, smoke };
                eprintln!("== {workload} seed {} trace {} ==", cfg.seed, u8::from(trace));
                let record = run_once(workload, cfg).expect("table workloads exist");
                if trace {
                    if let Err(e) = record.write_chrome_trace(&out_dir()) {
                        eprintln!("pcv_benchmark: cannot write the trace: {e}");
                    }
                }
                records.push(record);
            }
        }
    }
    let doc = results::results_json(&env, seed, smoke, &records);
    if let Some(dir) = out.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(&out, doc) {
        eprintln!("pcv_benchmark: cannot write {}: {e}", out.display());
        return ExitCode::from(2);
    }
    eprintln!("pcv_benchmark: wrote {}", out.display());
    let failed: u64 = records.iter().map(|r| r.outcome.failed).sum();
    if failed > 0 {
        eprintln!("pcv_benchmark: {failed} operations failed their checks");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Worker mode first, exactly as the daemon binary dispatches it: the
    // whole argv is `--shard-worker` and the config arrives on stdin.
    if args.first().map(String::as_str) == Some("--shard-worker") {
        std::process::exit(pcv_serve::worker::run_worker());
    }
    match args.first().map(String::as_str) {
        Some("all") => cmd_all(&Flags(args[1..].to_vec())),
        Some("compare") => match (args.get(1), args.get(2)) {
            (Some(a), Some(b)) => compare::cmd_compare(a.as_ref(), b.as_ref()),
            _ => usage(),
        },
        Some("prepare") => {
            prepare();
            ExitCode::SUCCESS
        }
        Some("manifest") => {
            print!("{}", metrics::manifest_json());
            ExitCode::SUCCESS
        }
        Some(flag) if flag.starts_with("--") => cmd_driver(&Flags(args)),
        _ => usage(),
    }
}
