//! `compare A.json B.json`: one row per workload × end-to-end metric with
//! both medians, the ratio (base: A), the bound, and a verdict — what an
//! A/A check and every later parent-vs-change comparison run.

use crate::metrics::{Better, END_TO_END, WORKLOADS};
use crate::stats::{median, spread};
use pcv_obs::json::{parse, Value};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

/// How one metric on one workload moved from A to B.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No worse than the bound allows.
    Ok,
    /// Worse by more than the bound.
    Regressed,
    /// The run-to-run spread of A or B is wider than the bound, so the
    /// medians cannot tell "unchanged" from "regressed".
    Unresolved,
}

/// Judge B against A. `spreads` are the sides' interquartile spreads as a
/// share of their medians, where at least two runs exist.
pub fn judge(a: f64, b: f64, better: Better, bound: f64, spreads: [Option<f64>; 2]) -> Verdict {
    if spreads.iter().flatten().any(|&s| s > bound) {
        return Verdict::Unresolved;
    }
    let worse_by = match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    };
    if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// (workload, metric) → the untraced runs' values, plus failed operations.
type Samples = BTreeMap<(String, String), Vec<f64>>;

fn load(path: &Path) -> Result<(Samples, u64), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let runs = doc.get("runs").and_then(Value::as_arr).ok_or("results file has no \"runs\"")?;
    let mut samples = Samples::new();
    let mut failed = 0;
    for run in runs {
        failed += run.get("failed").and_then(Value::as_u64).unwrap_or(0);
        if run.get("trace") != Some(&Value::Bool(false)) {
            continue;
        }
        let workload =
            run.get("workload").and_then(Value::as_str).ok_or("run without a workload")?;
        let metrics = run.get("metrics").and_then(Value::as_obj).ok_or("run without metrics")?;
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Value::as_f64) {
                samples.entry((workload.to_owned(), name.clone())).or_default().push(v);
            }
        }
    }
    Ok((samples, failed))
}

pub fn cmd_compare(a: &Path, b: &Path) -> ExitCode {
    let (sa, failed_a, sb, failed_b) = match (load(a), load(b)) {
        (Ok((sa, fa)), Ok((sb, fb))) => (sa, fa, sb, fb),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("pcv_benchmark compare: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<14} {:<14} {:>12} {:>12} {:>9} {:>7} {:>8} {:>8}  verdict",
        "workload", "metric", "A median", "B median", "B/A", "bound", "A iqr", "B iqr"
    );
    let (mut regressed, mut unresolved) = (0, 0);
    for (workload, _) in WORKLOADS {
        for m in END_TO_END {
            let key = ((*workload).to_owned(), m.name.to_owned());
            let (Some(va), Some(vb)) = (sa.get(&key), sb.get(&key)) else {
                println!("{workload:<14} {:<14} missing on one side", m.name);
                regressed += 1;
                continue;
            };
            let (ma, mb) = (median(va), median(vb));
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let spreads = [spread(va), spread(vb)];
            let verdict = judge(ma, mb, m.better, bound, spreads);
            regressed += usize::from(verdict == Verdict::Regressed);
            unresolved += usize::from(verdict == Verdict::Unresolved);
            let pct = |s: Option<f64>| s.map_or("n<2".to_owned(), |s| format!("{:.2}%", s * 100.0));
            println!(
                "{workload:<14} {:<14} {ma:>12.6} {mb:>12.6} {:>9.4} {:>6.0}% {:>8} {:>8}  {} ({}, n={}/{})",
                m.name,
                mb / ma,
                bound * 100.0,
                pct(spreads[0]),
                pct(spreads[1]),
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "REGRESSED",
                    Verdict::Unresolved => "unresolved",
                },
                m.unit,
                va.len(),
                vb.len()
            );
        }
    }
    println!("failed operations: A {failed_a}, B {failed_b}; {regressed} regressed, {unresolved} unresolved");
    if regressed > 0 || failed_b > failed_a {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_applies_bound_direction_and_spread() {
        let tight = [Some(0.01), Some(0.01)];
        assert_eq!(judge(1.0, 1.04, Better::Lower, 0.05, tight), Verdict::Ok);
        assert_eq!(judge(1.0, 1.06, Better::Lower, 0.05, tight), Verdict::Regressed);
        assert_eq!(judge(1.0, 0.5, Better::Lower, 0.05, tight), Verdict::Ok);
        assert_eq!(judge(1.0, 0.9, Better::Higher, 0.05, tight), Verdict::Regressed);
        assert_eq!(judge(1.0, 1.5, Better::Higher, 0.05, tight), Verdict::Ok);
        // A spread wider than the bound settles nothing either way.
        assert_eq!(judge(1.0, 1.5, Better::Lower, 0.05, [Some(0.2), None]), Verdict::Unresolved);
        // A single run per side has no spread: the ratio alone decides.
        assert_eq!(judge(1.0, 1.06, Better::Lower, 0.05, [None, None]), Verdict::Regressed);
    }
}
