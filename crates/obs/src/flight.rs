//! An always-on flight recorder: a bounded ring of recent observations.
//!
//! When a daemon wedges, panics, or trips its stall watchdog, the question
//! is always "what was it doing *just before*?" — and the answer must not
//! depend on having had verbose logging enabled in advance. The
//! [`FlightRecorder`] keeps the last N observations (engine events, HTTP
//! requests, watchdog notes) in a fixed-capacity ring, overwriting the
//! oldest; it costs one mutexed `VecDeque` push per note and nothing when
//! idle, so it can stay on for the life of the process.
//!
//! Two read paths: [`FlightRecorder::dump_json`] renders the ring as one
//! JSON document (for `GET /debug/flight` and for atomic crash dumps), and
//! the recorder implements [`EventSink`] so it can ride in a
//! [`TeeSink`](crate::TeeSink) next to the engine's real sinks.
//!
//! The recorder intentionally reports zero from [`EventSink::dropped`]:
//! overwriting old entries is its *design* (recency window), not shedding,
//! and must not inflate `EngineStats::events_dropped`.

use crate::event::{EngineEvent, EventSink};
use std::collections::VecDeque;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// One recorded observation.
#[derive(Debug, Clone)]
pub struct FlightEntry {
    /// Monotonic sequence number (never reused, survives overwrites).
    pub seq: u64,
    /// Milliseconds since the recorder was created.
    pub at_ms: f64,
    /// Who recorded it: `"engine"`, `"http"`, `"watchdog"`, ...
    pub source: &'static str,
    /// The observation itself — engine events store their JSON form.
    pub text: String,
}

struct Ring {
    entries: VecDeque<FlightEntry>,
    next_seq: u64,
    overwritten: u64,
}

/// A bounded ring of recent observations; see the module docs.
pub struct FlightRecorder {
    start: Instant,
    capacity: usize,
    ring: Mutex<Ring>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder").field("capacity", &self.capacity).finish()
    }
}

impl FlightRecorder {
    /// A recorder holding at most `capacity` entries (the most recent win).
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "flight recorder capacity must be positive");
        FlightRecorder {
            start: Instant::now(),
            capacity,
            ring: Mutex::new(Ring {
                entries: VecDeque::with_capacity(capacity),
                next_seq: 0,
                overwritten: 0,
            }),
        }
    }

    /// Record one observation, evicting the oldest entry when full.
    pub fn note(&self, source: &'static str, text: impl Into<String>) {
        let at_ms = self.start.elapsed().as_secs_f64() * 1e3;
        let mut ring = self.ring.lock().unwrap_or_else(PoisonError::into_inner);
        if ring.entries.len() == self.capacity {
            ring.entries.pop_front();
            ring.overwritten += 1;
        }
        let seq = ring.next_seq;
        ring.next_seq += 1;
        ring.entries.push_back(FlightEntry { seq, at_ms, source, text: text.into() });
    }

    /// Entries currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.ring.lock().unwrap_or_else(PoisonError::into_inner).entries.len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries evicted to make room for newer ones.
    pub fn overwritten(&self) -> u64 {
        self.ring.lock().unwrap_or_else(PoisonError::into_inner).overwritten
    }

    /// The ring as one JSON document:
    /// `{"overwritten":N,"entries":[{"seq":..,"at_ms":..,"source":..,"text":..},...]}`
    /// oldest-first. `text` is stored as an escaped string even when it is
    /// itself JSON, so the dump parses regardless of what was recorded.
    pub fn dump_json(&self) -> String {
        let ring = self.ring.lock().unwrap_or_else(PoisonError::into_inner);
        let mut out = String::with_capacity(64 + ring.entries.len() * 96);
        pcv_trace::json::write_object(&mut out, |o| {
            o.raw("overwritten", ring.overwritten);
            o.arr("entries", |a| {
                for e in &ring.entries {
                    a.obj(|o| {
                        o.raw("seq", e.seq).raw("at_ms", format_args!("{:.3}", e.at_ms));
                        o.str("source", e.source).str("text", &e.text);
                    });
                }
            });
        });
        out
    }
}

impl EventSink for FlightRecorder {
    fn event(&self, ev: &EngineEvent) {
        self.note("engine", ev.to_json());
    }
    // dropped() stays at the default 0: ring eviction is a recency window,
    // not shed telemetry (see module docs).
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn dump_bytes_are_pinned() {
        let entry =
            |seq, at_ms, source, text: &str| FlightEntry { seq, at_ms, source, text: text.into() };
        let fr = FlightRecorder::new(2);
        let empty = fr.dump_json();
        *fr.ring.lock().unwrap() = Ring {
            entries: VecDeque::from([
                entry(7, 0.0, "engine", "{\"kind\":\"run_started\",\"victims\":7}"),
                entry(8, 1234.56789, "http", "c1 GET /a\tb -> 200"),
            ]),
            next_seq: 9,
            overwritten: 7,
        };
        assert_eq!(
            [empty, fr.dump_json()],
            [
                "{\"overwritten\":0,\"entries\":[]}",
                concat!(
                    "{\"overwritten\":7,\"entries\":[{\"seq\":7,\"at_ms\":0.000",
                    ",\"source\":\"engine\",\"text\":\"{\\\"kind\\\":\\\"run_started\\\"",
                    ",\\\"victims\\\":7}\"},{\"seq\":8,\"at_ms\":1234.568",
                    ",\"source\":\"http\",\"text\":\"c1 GET /a\\tb -> 200\"}]}",
                ),
            ]
        );
    }

    #[test]
    fn ring_keeps_the_most_recent_entries() {
        let fr = FlightRecorder::new(3);
        assert!(fr.is_empty());
        for i in 0..5 {
            fr.note("test", format!("entry {i}"));
        }
        assert_eq!(fr.len(), 3);
        assert_eq!(fr.overwritten(), 2);
        let dump = fr.dump_json();
        assert!(!dump.contains("entry 0") && !dump.contains("entry 1"), "{dump}");
        assert!(dump.contains("entry 2") && dump.contains("entry 4"), "{dump}");
        // Sequence numbers survive eviction.
        assert!(dump.contains("\"seq\":4"), "{dump}");
    }

    #[test]
    fn dump_parses_even_when_entries_hold_json() {
        let fr = FlightRecorder::new(8);
        fr.event(&EngineEvent::RunStarted { victims: 7, workers: 2 });
        fr.note("http", "GET /metrics -> 200 \"quoted\"");
        let doc = json::parse(&fr.dump_json()).expect("flight dump is valid JSON");
        assert_eq!(doc.get("overwritten").and_then(|v| v.as_u64()), Some(0));
        let entries = doc.get("entries").and_then(|v| v.as_arr()).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].get("source").and_then(|v| v.as_str()), Some("engine"));
        let text = entries[0].get("text").and_then(|v| v.as_str()).unwrap();
        // The engine event round-trips: its JSON form is embedded as a string.
        let inner = json::parse(text).expect("embedded event is valid JSON");
        assert_eq!(inner.get("kind").and_then(|v| v.as_str()), Some("run_started"));
        assert_eq!(entries[1].get("source").and_then(|v| v.as_str()), Some("http"));
    }

    #[test]
    fn recorder_reports_no_shed_events() {
        let fr = FlightRecorder::new(1);
        for _ in 0..10 {
            fr.event(&EngineEvent::RunStarted { victims: 1, workers: 1 });
        }
        // Eviction is by design, not shedding — EngineStats must not count it.
        assert_eq!(EventSink::dropped(&fr), 0);
        assert_eq!(fr.overwritten(), 9);
    }
}
