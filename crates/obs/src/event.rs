//! Engine lifecycle events and the pluggable sink they flow into.
//!
//! Events are *observational*: they describe what the engine did, they
//! never influence what it does. Sinks run on the engine's worker threads,
//! so implementations must be cheap and thread-safe; anything expensive
//! belongs behind an [`EventHub`](crate::EventHub).

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Duration;

/// One structured lifecycle event from an engine run.
///
/// Cluster-scoped events (`ClusterQueued` through `ClusterFinished`) fire a
/// deterministic number of times per kind for a fixed input, cache state
/// and fault plan — worker count and scheduling only change interleaving.
/// Run- and worker-scoped events (`RunStarted`, `WorkerIdle`, `RunFinished`,
/// `RunResumed`, `RunStopped`) scale with the execution environment instead,
/// and `ClusterSkipped` depends on stop timing.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineEvent {
    /// Verification started.
    RunStarted {
        /// Victims submitted.
        victims: usize,
        /// Worker threads the run will use.
        workers: usize,
    },
    /// A victim was queued as a cluster job (one per victim, before any
    /// job runs).
    ClusterQueued {
        /// Victim net name.
        name: String,
    },
    /// A worker picked up a cluster job.
    ClusterStarted {
        /// Victim net name.
        name: String,
    },
    /// A cluster job was answered from the incremental cache.
    CacheHit {
        /// Victim net name.
        name: String,
    },
    /// A cluster job missed the cache and ran the full analysis.
    CacheMiss {
        /// Victim net name.
        name: String,
    },
    /// One recovery-ladder attempt failed and the job is retrying at a
    /// higher rung (one event per failed attempt).
    ClusterRetried {
        /// Victim net name.
        name: String,
        /// Stable name of the rung that failed (e.g. `"baseline"`).
        rung: &'static str,
    },
    /// A cluster's standing verdict came from a rung above baseline.
    ClusterDegraded {
        /// Victim net name.
        name: String,
        /// Stable name of the rung that stood.
        rung: &'static str,
    },
    /// A cluster job completed with a verdict.
    ClusterFinished {
        /// Victim net name.
        name: String,
        /// Whether the verdict came from the cache.
        cached: bool,
        /// Time the job spent (prune + analysis + receiver).
        elapsed: Duration,
    },
    /// A cluster's verdict was replayed from the checkpoint journal on a
    /// resumed run (no analysis, no cache involvement).
    ClusterReplayed {
        /// Victim net name.
        name: String,
    },
    /// A queued cluster was skipped because a cooperative stop was
    /// requested before a worker picked it up. Timing-dependent: which
    /// clusters land here varies with worker count and scheduling.
    ClusterSkipped {
        /// Victim net name.
        name: String,
    },
    /// A resumed run loaded a checkpoint journal whose fingerprints match
    /// the current netlist and configuration.
    RunResumed {
        /// Journal entries eligible for replay.
        replayable: usize,
    },
    /// A cooperative stop drained the run early; the checkpoint journal
    /// makes it resumable.
    RunStopped {
        /// Clusters that finished with a verdict before the stop.
        completed: usize,
        /// Clusters skipped without a verdict.
        skipped: usize,
    },
    /// A worker ran out of work and left the pool (one per worker).
    WorkerIdle {
        /// Dense worker index.
        worker: usize,
    },
    /// A stall watchdog observed no cluster completions for its configured
    /// no-progress interval. Purely advisory — the watchdog never stops
    /// the run — and inherently timing-dependent, so the kind is excluded
    /// from every deterministic event-count contract.
    StallWarning {
        /// Clusters that had completed when the warning fired.
        completed: usize,
        /// The configured no-progress interval, in milliseconds.
        stalled_ms: u64,
    },
    /// Verification finished.
    RunFinished {
        /// Victims audited.
        victims: usize,
        /// Wall-clock time of the run.
        wall: Duration,
        /// Verdicts answered from the cache.
        cache_hits: usize,
        /// Clusters whose verdict came from a recovery rung.
        degraded: usize,
    },
}

impl EngineEvent {
    /// Stable lower-case kind name, used by counting sinks and displays.
    pub fn kind(&self) -> &'static str {
        match self {
            EngineEvent::RunStarted { .. } => "run_started",
            EngineEvent::ClusterQueued { .. } => "cluster_queued",
            EngineEvent::ClusterStarted { .. } => "cluster_started",
            EngineEvent::CacheHit { .. } => "cache_hit",
            EngineEvent::CacheMiss { .. } => "cache_miss",
            EngineEvent::ClusterRetried { .. } => "cluster_retried",
            EngineEvent::ClusterDegraded { .. } => "cluster_degraded",
            EngineEvent::ClusterFinished { .. } => "cluster_finished",
            EngineEvent::ClusterReplayed { .. } => "cluster_replayed",
            EngineEvent::ClusterSkipped { .. } => "cluster_skipped",
            EngineEvent::RunResumed { .. } => "run_resumed",
            EngineEvent::RunStopped { .. } => "run_stopped",
            EngineEvent::WorkerIdle { .. } => "worker_idle",
            EngineEvent::StallWarning { .. } => "stall_warning",
            EngineEvent::RunFinished { .. } => "run_finished",
        }
    }

    /// Render as one JSONL object (no trailing newline): always a `kind`
    /// member plus the event's fields, durations as `*_ms` decimal
    /// milliseconds. This is the wire form `pcv-serve` streams to event
    /// subscribers.
    pub fn to_json(&self) -> String {
        use pcv_trace::json::{f64_lit, str_lit};
        let ms = |d: &Duration| f64_lit(d.as_secs_f64() * 1e3);
        let body = match self {
            EngineEvent::RunStarted { victims, workers } => {
                format!("\"victims\":{victims},\"workers\":{workers}")
            }
            EngineEvent::ClusterQueued { name }
            | EngineEvent::ClusterStarted { name }
            | EngineEvent::CacheHit { name }
            | EngineEvent::CacheMiss { name }
            | EngineEvent::ClusterReplayed { name }
            | EngineEvent::ClusterSkipped { name } => format!("\"name\":{}", str_lit(name)),
            EngineEvent::ClusterRetried { name, rung }
            | EngineEvent::ClusterDegraded { name, rung } => {
                format!("\"name\":{},\"rung\":{}", str_lit(name), str_lit(rung))
            }
            EngineEvent::ClusterFinished { name, cached, elapsed } => format!(
                "\"name\":{},\"cached\":{cached},\"elapsed_ms\":{}",
                str_lit(name),
                ms(elapsed)
            ),
            EngineEvent::RunResumed { replayable } => format!("\"replayable\":{replayable}"),
            EngineEvent::RunStopped { completed, skipped } => {
                format!("\"completed\":{completed},\"skipped\":{skipped}")
            }
            EngineEvent::WorkerIdle { worker } => format!("\"worker\":{worker}"),
            EngineEvent::StallWarning { completed, stalled_ms } => {
                format!("\"completed\":{completed},\"stalled_ms\":{stalled_ms}")
            }
            EngineEvent::RunFinished { victims, wall, cache_hits, degraded } => format!(
                "\"victims\":{victims},\"wall_ms\":{},\"cache_hits\":{cache_hits},\
                 \"degraded\":{degraded}",
                ms(wall)
            ),
        };
        format!("{{\"kind\":{},{body}}}", str_lit(self.kind()))
    }

    /// `true` for cluster-scoped kinds, whose per-kind counts are
    /// deterministic across worker counts and scheduling orders.
    pub fn is_cluster_scoped(&self) -> bool {
        !matches!(
            self,
            EngineEvent::RunStarted { .. }
                | EngineEvent::WorkerIdle { .. }
                | EngineEvent::RunFinished { .. }
                | EngineEvent::RunResumed { .. }
                | EngineEvent::RunStopped { .. }
                | EngineEvent::ClusterSkipped { .. }
                | EngineEvent::StallWarning { .. }
        )
    }
}

/// Where engine events go. Called from worker threads concurrently; keep
/// implementations cheap and never panic (a sink must not take a run down).
pub trait EventSink: Send + Sync {
    /// Observe one event.
    fn event(&self, ev: &EngineEvent);

    /// Events this sink has *shed* (accepted the call but discarded the
    /// event) so far — non-zero only for bounded sinks under a slow
    /// consumer ([`EventHub`](crate::EventHub)). Unbounded sinks keep the
    /// default 0.
    /// The engine folds this into `EngineStats::events_dropped` at the end
    /// of a run, so shedding is never silent.
    fn dropped(&self) -> u64 {
        0
    }
}

/// A sink that counts events per kind — the workhorse of the event-stream
/// determinism tests.
#[derive(Debug, Default)]
pub struct CountingSink {
    /// Per kind: how many, and whether the kind is cluster-scoped.
    counts: Mutex<BTreeMap<&'static str, (u64, bool)>>,
}

impl CountingSink {
    /// Fresh sink with all counts at zero.
    pub fn new() -> Self {
        Self::default()
    }

    fn tally(&self, cluster_only: bool) -> BTreeMap<&'static str, u64> {
        let counts = self.counts.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        counts
            .iter()
            .filter(|(_, &(_, cluster_scoped))| cluster_scoped || !cluster_only)
            .map(|(&kind, &(n, _))| (kind, n))
            .collect()
    }

    /// Current per-kind counts.
    pub fn counts(&self) -> BTreeMap<&'static str, u64> {
        self.tally(false)
    }

    /// Counts restricted to the kinds [`EngineEvent::is_cluster_scoped`]
    /// accepts (the deterministic subset).
    pub fn cluster_counts(&self) -> BTreeMap<&'static str, u64> {
        self.tally(true)
    }

    /// Count for one kind (0 when never seen).
    pub fn count(&self, kind: &str) -> u64 {
        self.counts().get(kind).copied().unwrap_or(0)
    }
}

impl EventSink for CountingSink {
    fn event(&self, ev: &EngineEvent) {
        let mut counts = self.counts.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        counts.entry(ev.kind()).or_insert((0, ev.is_cluster_scoped())).0 += 1;
    }
}

/// Fan one event stream out to several sinks.
pub struct TeeSink {
    sinks: Vec<std::sync::Arc<dyn EventSink>>,
}

impl TeeSink {
    /// A sink that forwards every event to each of `sinks`, in order.
    pub fn new(sinks: Vec<std::sync::Arc<dyn EventSink>>) -> Self {
        TeeSink { sinks }
    }
}

impl EventSink for TeeSink {
    fn event(&self, ev: &EngineEvent) {
        for sink in &self.sinks {
            sink.event(ev);
        }
    }

    fn dropped(&self) -> u64 {
        self.sinks.iter().map(|s| s.dropped()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_stable_and_scoped() {
        let ev = EngineEvent::ClusterFinished {
            name: "v0".into(),
            cached: false,
            elapsed: Duration::ZERO,
        };
        assert_eq!(ev.kind(), "cluster_finished");
        assert!(ev.is_cluster_scoped());
        let run = EngineEvent::RunStarted { victims: 3, workers: 2 };
        assert_eq!(run.kind(), "run_started");
        assert!(!run.is_cluster_scoped());
        assert!(!EngineEvent::WorkerIdle { worker: 0 }.is_cluster_scoped());
    }

    #[test]
    fn durability_kinds_are_scoped_correctly() {
        let replayed = EngineEvent::ClusterReplayed { name: "v0".into() };
        assert_eq!(replayed.kind(), "cluster_replayed");
        assert!(replayed.is_cluster_scoped());
        let skipped = EngineEvent::ClusterSkipped { name: "v1".into() };
        assert_eq!(skipped.kind(), "cluster_skipped");
        assert!(!skipped.is_cluster_scoped());
        let resumed = EngineEvent::RunResumed { replayable: 3 };
        assert_eq!(resumed.kind(), "run_resumed");
        assert!(!resumed.is_cluster_scoped());
        let stopped = EngineEvent::RunStopped { completed: 2, skipped: 1 };
        assert_eq!(stopped.kind(), "run_stopped");
        assert!(!stopped.is_cluster_scoped());
        let stall = EngineEvent::StallWarning { completed: 5, stalled_ms: 250 };
        assert_eq!(stall.kind(), "stall_warning");
        assert!(!stall.is_cluster_scoped(), "watchdog warnings are timing-dependent");
        assert_eq!(
            stall.to_json(),
            "{\"kind\":\"stall_warning\",\"completed\":5,\"stalled_ms\":250}"
        );
        let sink = CountingSink::new();
        sink.event(&replayed);
        sink.event(&skipped);
        sink.event(&stopped);
        sink.event(&stall);
        let cluster = sink.cluster_counts();
        assert!(cluster.contains_key("cluster_replayed"));
        assert!(!cluster.contains_key("cluster_skipped"));
        assert!(!cluster.contains_key("run_stopped"));
        assert!(!cluster.contains_key("stall_warning"));
    }

    #[test]
    fn counting_sink_tallies_per_kind() {
        let sink = CountingSink::new();
        sink.event(&EngineEvent::RunStarted { victims: 2, workers: 1 });
        for name in ["a", "b"] {
            sink.event(&EngineEvent::ClusterStarted { name: name.into() });
            sink.event(&EngineEvent::CacheMiss { name: name.into() });
        }
        sink.event(&EngineEvent::WorkerIdle { worker: 0 });
        assert_eq!(sink.count("cluster_started"), 2);
        assert_eq!(sink.count("cache_miss"), 2);
        assert_eq!(sink.count("run_started"), 1);
        assert_eq!(sink.count("never_happened"), 0);
        let cluster = sink.cluster_counts();
        assert!(cluster.contains_key("cluster_started"));
        assert!(!cluster.contains_key("run_started"));
        assert!(!cluster.contains_key("worker_idle"));
    }

    #[test]
    fn event_json_is_one_line_with_kind_and_fields() {
        let ev = EngineEvent::ClusterFinished {
            name: "bus0_1\"q".into(),
            cached: true,
            elapsed: Duration::from_millis(3),
        };
        let json = ev.to_json();
        assert!(!json.contains('\n'));
        assert!(json.starts_with("{\"kind\":\"cluster_finished\""));
        assert!(json.contains("\"cached\":true"));
        assert!(json.contains("\"elapsed_ms\":3"));
        assert!(json.contains("bus0_1\\\"q"), "names must be escaped: {json}");
        let run = EngineEvent::RunFinished {
            victims: 2,
            wall: Duration::from_millis(10),
            cache_hits: 1,
            degraded: 0,
        };
        assert!(run.to_json().contains("\"wall_ms\":10"));
    }

    #[test]
    fn unbounded_sinks_report_zero_drops() {
        let sink = CountingSink::new();
        sink.event(&EngineEvent::ClusterQueued { name: "x".into() });
        assert_eq!(EventSink::dropped(&sink), 0);
        let tee = TeeSink::new(vec![std::sync::Arc::new(CountingSink::new())]);
        assert_eq!(EventSink::dropped(&tee), 0);
    }

    #[test]
    fn tee_fans_out() {
        let a = std::sync::Arc::new(CountingSink::new());
        let b = std::sync::Arc::new(CountingSink::new());
        let tee = TeeSink::new(vec![a.clone(), b.clone()]);
        tee.event(&EngineEvent::ClusterQueued { name: "x".into() });
        assert_eq!(a.count("cluster_queued"), 1);
        assert_eq!(b.count("cluster_queued"), 1);
    }
}
