//! Live progress over the event stream: throughput, EWMA-smoothed ETA,
//! per-stage completion counts, and a single-line stderr status display.
//!
//! Everything here observes wall-clock time, so it lives strictly outside
//! the deterministic report path: the status line renders to stderr (never
//! stdout, never the report) and nothing it computes flows back into the
//! engine.

use crate::event::{EngineEvent, EventSink};
use std::io::{IsTerminal, Write};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// EWMA smoothing factor for the inter-completion interval: high enough to
/// react to phase changes (cached prefix → expensive tail), low enough not
/// to chase single-cluster noise.
const EWMA_ALPHA: f64 = 0.15;

/// A point-in-time view of run progress.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProgressSnapshot {
    /// Clusters queued in total (0 before `RunStarted`).
    pub total: usize,
    /// Clusters finished.
    pub done: usize,
    /// Finished clusters answered from the cache.
    pub cached: usize,
    /// Clusters whose verdict came from a recovery rung.
    pub degraded: usize,
    /// Recovery-ladder retries observed so far.
    pub retries: usize,
    /// Wall time since `RunStarted`.
    pub elapsed: Duration,
    /// Clusters per second over the whole run so far.
    pub throughput: f64,
    /// EWMA-based estimate of time remaining (`None` until at least one
    /// cluster finishes, or after the run completes).
    pub eta: Option<Duration>,
    /// `true` once `RunFinished` was observed.
    pub finished: bool,
}

impl ProgressSnapshot {
    /// Completed fraction in `[0, 1]` (0 when the total is unknown).
    pub fn fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.done as f64 / self.total as f64
        }
    }

    /// Render the one-line status the stderr display shows.
    pub fn status_line(&self) -> String {
        let mut line = format!(
            "[pcv] {}/{} clusters ({:.0}%)",
            self.done,
            self.total,
            100.0 * self.fraction()
        );
        if self.throughput > 0.0 {
            line.push_str(&format!(" | {:.1}/s", self.throughput));
        }
        match self.eta {
            Some(eta) if !self.finished => {
                line.push_str(&format!(" | eta {:.1}s", eta.as_secs_f64()));
            }
            _ => {}
        }
        if self.cached > 0 {
            line.push_str(&format!(" | {} cached", self.cached));
        }
        if self.retries > 0 {
            line.push_str(&format!(" | {} retries", self.retries));
        }
        if self.degraded > 0 {
            line.push_str(&format!(" | {} degraded", self.degraded));
        }
        line
    }
}

#[derive(Debug, Default)]
struct MonitorState {
    total: usize,
    done: usize,
    cached: usize,
    degraded: usize,
    retries: usize,
    started: Option<Instant>,
    last_finish: Option<Instant>,
    /// EWMA of the interval between cluster completions, seconds.
    ewma_interval_s: Option<f64>,
    finished: bool,
}

/// The live stderr status line: an [`EventSink`] that folds the event
/// stream into progress statistics (completion counts, throughput, an
/// EWMA-based ETA) and repaints a single `\r`-rewritten line as clusters
/// finish, throttled so rendering never becomes the bottleneck.
///
/// The display is off (the sink still counts, but never writes) when it
/// was constructed quiet ([`StderrStatusLine::auto`] with `quiet = true`,
/// e.g. from a `--quiet` flag) or when stderr is not a terminal (CI logs
/// stay clean).
pub struct StderrStatusLine {
    state: Mutex<MonitorState>,
    enabled: bool,
    paint: Mutex<PaintState>,
}

#[derive(Debug, Default)]
struct PaintState {
    last: Option<Instant>,
    /// Width of the previous paint, so shorter lines fully overwrite it.
    width: usize,
}

/// Minimum interval between repaints.
const PAINT_INTERVAL: Duration = Duration::from_millis(100);

impl StderrStatusLine {
    /// A status line that paints unless `quiet` or stderr is not a TTY.
    pub fn auto(quiet: bool) -> Self {
        Self::with_enabled(!quiet && std::io::stderr().is_terminal())
    }

    /// A status line with the display forced on or off (tests use this;
    /// binaries should prefer [`StderrStatusLine::auto`]).
    pub fn with_enabled(enabled: bool) -> Self {
        StderrStatusLine { state: Mutex::default(), enabled, paint: Mutex::default() }
    }

    /// Whether the display will actually write to stderr.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Current progress (works whether or not the display is enabled).
    pub fn snapshot(&self) -> ProgressSnapshot {
        let s = self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let elapsed = s.started.map(|t| t.elapsed()).unwrap_or_default();
        let throughput = if elapsed.is_zero() || s.done == 0 {
            0.0
        } else {
            s.done as f64 / elapsed.as_secs_f64()
        };
        let remaining = s.total.saturating_sub(s.done);
        let eta = match (s.ewma_interval_s, s.finished) {
            (Some(interval), false) if s.done > 0 => {
                Some(Duration::from_secs_f64(interval * remaining as f64))
            }
            _ => None,
        };
        ProgressSnapshot {
            total: s.total,
            done: s.done,
            cached: s.cached,
            degraded: s.degraded,
            retries: s.retries,
            elapsed,
            throughput,
            eta,
            finished: s.finished,
        }
    }

    /// Fold one event into the statistics.
    fn count(&self, ev: &EngineEvent) {
        let mut s = self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        match ev {
            EngineEvent::RunStarted { victims, .. } => {
                *s = MonitorState {
                    total: *victims,
                    started: Some(Instant::now()),
                    ..Default::default()
                };
            }
            EngineEvent::ClusterFinished { cached, .. } => {
                s.done += 1;
                if *cached {
                    s.cached += 1;
                }
                let now = Instant::now();
                let anchor = s.last_finish.or(s.started);
                if let Some(prev) = anchor {
                    let interval = now.saturating_duration_since(prev).as_secs_f64();
                    s.ewma_interval_s = Some(match s.ewma_interval_s {
                        Some(ewma) => EWMA_ALPHA * interval + (1.0 - EWMA_ALPHA) * ewma,
                        None => interval,
                    });
                }
                s.last_finish = Some(now);
            }
            EngineEvent::ClusterRetried { .. } => s.retries += 1,
            EngineEvent::ClusterDegraded { .. } => s.degraded += 1,
            EngineEvent::RunFinished { .. } => s.finished = true,
            _ => {}
        }
    }

    fn paint(&self, force: bool, terminal: bool) {
        let mut p = self.paint.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let now = Instant::now();
        if !force && p.last.is_some_and(|t| now.saturating_duration_since(t) < PAINT_INTERVAL) {
            return;
        }
        p.last = Some(now);
        let line = self.snapshot().status_line();
        let pad = p.width.saturating_sub(line.len());
        p.width = line.len();
        let mut err = std::io::stderr().lock();
        let _ = write!(err, "\r{line}{:pad$}", "");
        if terminal {
            let _ = writeln!(err);
            p.width = 0;
        }
        let _ = err.flush();
    }
}

impl EventSink for StderrStatusLine {
    fn event(&self, ev: &EngineEvent) {
        self.count(ev);
        if !self.enabled {
            return;
        }
        match ev {
            EngineEvent::RunStarted { .. } => self.paint(true, false),
            EngineEvent::ClusterFinished { .. } | EngineEvent::ClusterDegraded { .. } => {
                self.paint(false, false)
            }
            EngineEvent::RunFinished { .. } => self.paint(true, true),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finished(name: &str, cached: bool) -> EngineEvent {
        EngineEvent::ClusterFinished { name: name.into(), cached, elapsed: Duration::ZERO }
    }

    #[test]
    fn monitor_tracks_counts_and_fraction() {
        let m = StderrStatusLine::with_enabled(false);
        m.event(&EngineEvent::RunStarted { victims: 4, workers: 2 });
        m.event(&finished("a", true));
        m.event(&finished("b", false));
        m.event(&EngineEvent::ClusterRetried { name: "c".into(), rung: "baseline" });
        m.event(&EngineEvent::ClusterDegraded { name: "c".into(), rung: "gmin_boost" });
        m.event(&finished("c", false));
        let s = m.snapshot();
        assert_eq!((s.total, s.done, s.cached, s.degraded, s.retries), (4, 3, 1, 1, 1));
        assert!((s.fraction() - 0.75).abs() < 1e-12);
        assert!(!s.finished);
        assert!(s.eta.is_some(), "an ETA exists once clusters finish");
        m.event(&EngineEvent::RunFinished {
            victims: 4,
            wall: Duration::ZERO,
            cache_hits: 1,
            degraded: 1,
        });
        let s = m.snapshot();
        assert!(s.finished);
        assert!(s.eta.is_none(), "no ETA after the run ends");
    }

    #[test]
    fn status_line_mentions_the_interesting_parts() {
        let snap = ProgressSnapshot {
            total: 10,
            done: 5,
            cached: 2,
            degraded: 1,
            retries: 3,
            elapsed: Duration::from_secs(1),
            throughput: 5.0,
            eta: Some(Duration::from_secs(1)),
            finished: false,
        };
        let line = snap.status_line();
        assert!(line.contains("5/10"));
        assert!(line.contains("50%"));
        assert!(line.contains("5.0/s"));
        assert!(line.contains("eta 1.0s"));
        assert!(line.contains("2 cached"));
        assert!(line.contains("3 retries"));
        assert!(line.contains("1 degraded"));
    }

    #[test]
    fn quiet_and_env_disable_the_display() {
        // The quiet flag wins regardless of the environment; without it,
        // the display paints exactly when stderr is a terminal.
        assert!(!StderrStatusLine::auto(true).is_enabled());
        assert_eq!(StderrStatusLine::auto(false).is_enabled(), std::io::stderr().is_terminal());
        // The forced-off display still counts events without writing.
        let line = StderrStatusLine::with_enabled(false);
        line.event(&EngineEvent::RunStarted { victims: 2, workers: 1 });
        line.event(&finished("a", false));
        assert_eq!(line.snapshot().done, 1);
    }

    #[test]
    fn a_fresh_run_resets_the_monitor() {
        let m = StderrStatusLine::with_enabled(false);
        m.event(&EngineEvent::RunStarted { victims: 2, workers: 1 });
        m.event(&finished("a", false));
        m.event(&EngineEvent::RunStarted { victims: 5, workers: 1 });
        let s = m.snapshot();
        assert_eq!((s.total, s.done), (5, 0));
    }
}
