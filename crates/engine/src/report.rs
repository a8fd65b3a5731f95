//! Engine run reports: the [`ChipReport`] plus fault records and
//! execution statistics.

use crate::recovery::Degradation;
use pcv_netlist::PNetId;
use pcv_trace::json;
use pcv_trace::Trace;
use pcv_xtalk::ChipReport;
use std::fmt;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// A cluster job that failed — by returning an analysis error or by
/// panicking — without taking the rest of the audit down. Joinable with
/// [`Degradation`] records through `net`/`name`.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineError {
    /// The victim whose job failed.
    pub net: PNetId,
    /// Victim net name.
    pub name: String,
    /// Recovery-ladder rung (stable lower-case name, e.g.
    /// `"spice_fallback"`) at which the failure stood — `"baseline"` for a
    /// panic outside the ladder's own unwind isolation.
    pub stage: String,
    /// Error or panic message.
    pub message: String,
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]: {}", self.name, self.stage, self.message)
    }
}

/// Where one cluster job's time went — the per-victim cost breakdown of
/// an engine run.
#[derive(Debug, Clone)]
pub struct ClusterCost {
    /// The audited victim.
    pub net: PNetId,
    /// Victim net name.
    pub name: String,
    /// Cluster size after pruning (victim + kept aggressors).
    pub cluster_size: usize,
    /// Whether the verdict came from the incremental cache.
    pub cached: bool,
    /// Time pruning this victim.
    pub prune: Duration,
    /// Time in glitch analysis (both polarities).
    pub analysis: Duration,
    /// Time in the receiver-propagation check, if it ran.
    pub receiver: Duration,
}

impl ClusterCost {
    /// Total accounted time for this job.
    pub fn total(&self) -> Duration {
        self.prune + self.analysis + self.receiver
    }
}

/// Execution statistics for one engine run.
#[derive(Debug, Clone, Default)]
pub struct EngineStats {
    /// Worker threads used.
    pub workers: usize,
    /// Victims submitted.
    pub victims: usize,
    /// Jobs answered from the incremental cache.
    pub cache_hits: usize,
    /// Jobs that ran the full analysis.
    pub cache_misses: usize,
    /// Jobs whose verdict was adopted from the checkpoint journal of an
    /// interrupted run ([`RunRequest::resume`](crate::RunRequest::resume)).
    pub journal_hits: usize,
    /// Jobs skipped because a graceful stop was requested mid-run.
    pub skipped: usize,
    /// Jobs whose verdict came from a recovery rung above baseline.
    pub degraded: usize,
    /// Summed time in pruning across all workers.
    pub prune_time: Duration,
    /// Summed time in glitch analysis across all workers.
    pub analysis_time: Duration,
    /// Summed time in receiver checks across all workers.
    pub receiver_time: Duration,
    /// Summed time inside *failed* recovery-ladder attempts across all
    /// workers — what the ladder cost before a verdict stood.
    pub recovery_time: Duration,
    /// Wall-clock time of the whole run.
    pub wall_time: Duration,
    /// Per-worker busy time (time spent inside jobs).
    pub worker_busy: Vec<Duration>,
    /// Jobs a worker stole from another worker's queue.
    pub steals: u64,
    /// Peak live heap bytes observed by the instrumented allocator
    /// ([`pcv_obs::TrackingAlloc`]); 0 when tracking is not installed.
    pub peak_alloc_bytes: u64,
    /// Allocations observed by the instrumented allocator; 0 when
    /// tracking is not installed.
    pub allocs: u64,
    /// Lifecycle events the configured [`pcv_obs::EventSink`] shed instead
    /// of delivering (a full [`pcv_obs::EventHub`] archive); 0 with no
    /// sink or an unbounded one.
    /// Observability never backpressures verification — this counter is
    /// how the loss stays visible.
    pub events_dropped: u64,
}

impl EngineStats {
    /// Fraction of jobs answered from the cache (0 when nothing ran).
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Mean worker busy-fraction over the wall-clock span (0 when
    /// wall time is zero).
    pub fn utilization(&self) -> f64 {
        if self.worker_busy.is_empty() || self.wall_time.is_zero() {
            return 0.0;
        }
        let busy: f64 = self.worker_busy.iter().map(Duration::as_secs_f64).sum();
        busy / (self.wall_time.as_secs_f64() * self.worker_busy.len() as f64)
    }

    /// Victims audited per wall-clock second (0 when wall time is zero).
    pub fn throughput(&self) -> f64 {
        if self.wall_time.is_zero() {
            0.0
        } else {
            self.victims as f64 / self.wall_time.as_secs_f64()
        }
    }
}

/// The result of one [`Engine::run`](crate::Engine::run): the
/// [`ChipReport`], plus per-job fault records and execution statistics.
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// Verdicts for every victim whose job completed, worst first —
    /// byte-identical for every worker count and cache state when no job
    /// failed.
    pub chip: ChipReport,
    /// Victims whose jobs failed (error or panic), in input order: the
    /// worst-cased victims, every one of which still has a (conservative)
    /// verdict in `chip` — plus, should a job ever panic outside the
    /// ladder's per-attempt isolation, that victim, with no verdict.
    pub errors: Vec<EngineError>,
    /// Victims whose verdict came from a recovery rung above baseline, in
    /// input order: the full attempt trail and the rung that stood.
    pub degradations: Vec<Degradation>,
    /// Execution statistics.
    pub stats: EngineStats,
    /// Per-cluster cost breakdown, most expensive first.
    pub clusters: Vec<ClusterCost>,
    /// Merged trace of the run when
    /// [`EngineConfig::trace`](crate::EngineConfig::trace) was set.
    pub trace: Option<Trace>,
    /// `true` when a cooperative stop interrupted the run: the report is
    /// partial ([`EngineStats::skipped`] clusters have no verdict) and the
    /// checkpoint journal on disk makes the run resumable.
    pub interrupted: bool,
}

impl EngineReport {
    /// Render the audit plus an engine summary as plain text.
    pub fn to_text(&self) -> String {
        let mut out = self.chip.to_text();
        if !self.errors.is_empty() {
            out.push_str(&format!("{} failed cluster job(s):\n", self.errors.len()));
            for e in &self.errors {
                out.push_str(&format!("  {e}\n"));
            }
        }
        if !self.degradations.is_empty() {
            out.push_str(&format!("{} degraded cluster(s):\n", self.degradations.len()));
            for d in &self.degradations {
                out.push_str(&format!("  {d}\n"));
            }
        }
        let s = &self.stats;
        out.push_str(&format!(
            "engine: {} workers, {} victims in {:.1} ms ({:.0} victims/s)\n",
            s.workers,
            s.victims,
            s.wall_time.as_secs_f64() * 1e3,
            s.throughput()
        ));
        out.push_str(&format!(
            "engine: cache {}/{} hits ({:.0}%), {} steals, {:.0}% utilization\n",
            s.cache_hits,
            s.cache_hits + s.cache_misses,
            100.0 * s.hit_rate(),
            s.steals,
            100.0 * s.utilization()
        ));
        if s.events_dropped > 0 {
            out.push_str(&format!(
                "engine: event sink shed {} event(s) (bounded buffer overflow)\n",
                s.events_dropped
            ));
        }
        if s.journal_hits > 0 {
            out.push_str(&format!(
                "engine: resumed — {} verdict(s) replayed from the checkpoint journal\n",
                s.journal_hits
            ));
        }
        if self.interrupted {
            out.push_str(&format!(
                "engine: run stopped early, {} cluster(s) left unaudited (resumable)\n",
                s.skipped
            ));
        }
        if !s.recovery_time.is_zero() {
            out.push_str(&format!(
                "engine: recovery ladder spent {:.2} ms in failed attempts\n",
                s.recovery_time.as_secs_f64() * 1e3
            ));
        }
        if s.peak_alloc_bytes > 0 {
            out.push_str(&format!(
                "engine: peak heap {:.2} MiB over {} allocations\n",
                s.peak_alloc_bytes as f64 / (1024.0 * 1024.0),
                s.allocs
            ));
        }
        for c in self.clusters.iter().take(3) {
            out.push_str(&format!(
                "engine: top cost {} ({} nets{}): {:.2} ms analysis, {:.2} ms total\n",
                c.name,
                c.cluster_size,
                if c.cached { ", cached" } else { "" },
                c.analysis.as_secs_f64() * 1e3,
                c.total().as_secs_f64() * 1e3
            ));
        }
        out
    }

    /// The run profile — engine statistics plus the per-cluster cost
    /// breakdown — as a JSON document for downstream tooling.
    pub fn profile_json(&self) -> String {
        let s = &self.stats;
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        json::object(|o| {
            o.obj("engine", |o| {
                o.raw("workers", s.workers).raw("victims", s.victims);
                o.raw("cache_hits", s.cache_hits).raw("cache_misses", s.cache_misses);
                o.raw("journal_hits", s.journal_hits).raw("skipped", s.skipped);
                o.raw("interrupted", self.interrupted).f64("wall_ms", ms(s.wall_time));
                o.f64("prune_ms", ms(s.prune_time)).f64("analysis_ms", ms(s.analysis_time));
                o.f64("receiver_ms", ms(s.receiver_time)).f64("recovery_ms", ms(s.recovery_time));
                o.raw("steals", s.steals).raw("events_dropped", s.events_dropped);
                o.f64("utilization", s.utilization()).f64("throughput", s.throughput());
                o.raw("errors", self.errors.len()).raw("degraded", s.degraded);
            });
            o.obj("memory", |o| {
                o.raw("peak_alloc_bytes", s.peak_alloc_bytes).raw("allocs", s.allocs);
            });
            o.arr("clusters", |a| {
                for c in &self.clusters {
                    a.obj(|o| {
                        o.str("name", &c.name).raw("cluster_size", c.cluster_size);
                        o.raw("cached", c.cached).f64("prune_ms", ms(c.prune));
                        o.f64("analysis_ms", ms(c.analysis)).f64("receiver_ms", ms(c.receiver));
                        o.f64("total_ms", ms(c.total()));
                    });
                }
            });
        })
    }

    /// The signoff document: the chip report plus the degradation trail,
    /// as one JSON object. The `"chip"` value is the
    /// unmodified [`ChipReport::to_json`] output (so golden chip-report
    /// bytes are embedded verbatim); `"degradations"` lists every recovered
    /// victim with its rung and attempt trail. Byte-identical across worker
    /// counts for a fixed input and fault plan.
    pub fn signoff_json(&self) -> String {
        let _span = pcv_trace::span("engine", "signoff_json");
        json::object(|o| {
            o.obj("chip", |o| self.chip.write_members(o));
            o.arr("degradations", |a| {
                for d in &self.degradations {
                    a.obj(|o| {
                        o.raw("net", d.net.0).str("name", &d.name);
                        d.trail.write_members(o);
                    });
                }
            });
        })
    }

    /// Write the run's artifacts next to `stem` through `fs`:
    /// `<stem>.profile.json` (always) and `<stem>.trace.json` (Chrome trace
    /// format, when the run was traced), each atomically (write-temp +
    /// fsync + rename), so a crash mid-export can never leave a torn JSON
    /// document behind. Returns the paths written.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write_profile_with(
        &self,
        fs: &crate::fs::Fs,
        stem: &Path,
    ) -> std::io::Result<Vec<PathBuf>> {
        let mut written = Vec::new();
        let with_ext = |ext: &str| {
            let mut os = stem.as_os_str().to_owned();
            os.push(ext);
            PathBuf::from(os)
        };
        let profile = with_ext(".profile.json");
        fs.write_atomic(&profile, self.profile_json().as_bytes())?;
        written.push(profile);
        if let Some(trace) = &self.trace {
            let path = with_ext(".trace.json");
            // Render in memory, then publish atomically.
            fs.write_atomic(&path, trace.to_chrome_trace().as_bytes())?;
            written.push(path);
        }
        Ok(written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_and_throughput_handle_empty_runs() {
        let s = EngineStats::default();
        assert_eq!(s.hit_rate(), 0.0);
        assert_eq!(s.throughput(), 0.0);
        assert_eq!(s.utilization(), 0.0);
    }

    #[test]
    fn hit_rate_counts_hits_over_total() {
        let s = EngineStats { cache_hits: 3, cache_misses: 1, ..Default::default() };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn utilization_is_busy_over_wall_per_worker() {
        let s = EngineStats {
            wall_time: Duration::from_secs(2),
            worker_busy: vec![Duration::from_secs(1), Duration::from_secs(1)],
            ..Default::default()
        };
        assert!((s.utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn engine_error_displays_name_stage_and_message() {
        let e = EngineError {
            net: PNetId(3),
            name: "bus0_2".into(),
            stage: "spice_fallback".into(),
            message: "injected fault".into(),
        };
        assert_eq!(e.to_string(), "bus0_2 [spice_fallback]: injected fault");
    }

    #[test]
    fn signoff_json_embeds_chip_and_degradations() {
        use crate::recovery::{RecoveryRung, Trail};
        let report = EngineReport {
            chip: ChipReport {
                verdicts: Vec::new(),
                pruning: pcv_xtalk::prune::PruningStats::compute(&[]),
                warn_frac: 0.1,
                fail_frac: 0.2,
            },
            errors: Vec::new(),
            degradations: vec![Degradation {
                net: PNetId(7),
                name: "bus0_2".into(),
                trail: Trail {
                    recovered: RecoveryRung::GminBoost,
                    attempts: vec![crate::recovery::Attempt {
                        rung: RecoveryRung::Baseline,
                        reason: "numeric \"failure\"".into(),
                        elapsed: Duration::from_millis(2),
                    }],
                },
            }],
            stats: EngineStats::default(),
            clusters: Vec::new(),
            trace: None,
            interrupted: false,
        };
        let json = report.signoff_json();
        assert!(json.starts_with("{\"chip\":{"));
        assert!(json.contains(&format!("{{\"chip\":{}", report.chip.to_json())));
        assert!(json.contains("\"recovered\":\"gmin_boost\""));
        assert!(json.contains("\"rung\":\"baseline\""));
        assert!(json.contains("numeric \\\"failure\\\""), "reasons must be escaped: {json}");
        // Wall-clock attempt durations must never leak into the signoff
        // document — it is byte-compared across worker counts.
        assert!(!json.contains("elapsed"), "signoff must not carry timings: {json}");
    }
}
