//! Zero-dependency structured tracing and metrics for the PCV pipeline.
//!
//! The verification flow is a multi-stage pipeline (prune → cluster build →
//! SyMPVL reduction → nonlinear integration → receiver audit) whose
//! chip-level cost is dominated by per-cluster work. This crate gives every
//! stage an always-compiled instrumentation point that is effectively free
//! when tracing is off, and produces a deterministic merged profile when it
//! is on:
//!
//! - **Spans** ([`span`], [`span_labeled`]) — RAII guards timing a scope,
//!   with a category, a name, and an optional per-instance label (e.g. the
//!   victim net). Nesting falls out naturally from scope nesting.
//! - **Counters** ([`count`]) — monotonic event counts (cache hits, solver
//!   calls), summed across threads.
//! - **Histograms** ([`value`]) — sample distributions (reduced-model
//!   order, queue depth) in power-of-two buckets.
//! - **Sessions** ([`TraceSession`]) — start, run, [`TraceSession::finish`]
//!   into a [`Trace`]: spans sorted deterministically, metrics aggregated.
//!   With no session active (the default) every site costs one relaxed
//!   atomic load; an active one records into per-thread buffers, so
//!   recording threads never contend.
//! - **Export** — [`Trace::to_chrome_trace`] (loadable in
//!   `chrome://tracing` / Perfetto).
//! - **JSON** ([`json`]) — the workspace's one JSON module: the literal
//!   writers and the strict reader every crate's codecs are built from.
//!
//! # Example
//!
//! ```
//! let session = pcv_trace::TraceSession::start();
//! {
//!     let _outer = pcv_trace::span("demo", "outer");
//!     for i in 0..3u64 {
//!         let _inner = pcv_trace::span_labeled("demo", "step", || format!("step{i}"));
//!         pcv_trace::count("demo.steps", 1);
//!         pcv_trace::value("demo.size", 10 * (i + 1));
//!     }
//! }
//! let trace = session.finish();
//! assert_eq!(trace.spans.len(), 4);
//! assert_eq!(trace.counters["demo.steps"], 3);
//! assert_eq!(trace.histograms["demo.size"].max, 30);
//! let chrome = trace.to_chrome_trace();
//! assert!(chrome.contains("\"ph\":\"X\""));
//! ```

#![deny(missing_docs)]

pub mod export;
pub mod json;
pub mod mem;
pub mod session;
pub mod trace;

pub use session::{enabled, TraceSession};
pub use trace::{Histogram, Span, Trace};

use std::sync::Arc;
use std::time::Instant;

/// Read a hex field: a non-empty run of ASCII hex digits, either case, as
/// a number. Anything else — a sign, a space, an empty string, a value
/// above `T::MAX` — is `None`. Every hex field the workspace reads goes
/// through here; `from_str_radix` alone would also take a leading `+`.
///
/// ```
/// assert_eq!(pcv_trace::parse_hex::<u32>("0041"), Some(0x41));
/// assert_eq!(pcv_trace::parse_hex::<u32>("+041"), None);
/// assert_eq!(pcv_trace::parse_hex::<u32>("1ffffffff"), None);
/// ```
pub fn parse_hex<T: TryFrom<u64>>(digits: &str) -> Option<T> {
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    T::try_from(u64::from_str_radix(digits, 16).ok()?).ok()
}

/// An open span: records itself into the active session when dropped.
///
/// When tracing is disabled this is an empty shell — no clock is read and
/// drop does nothing.
pub struct SpanGuard(Option<ActiveSpan>);

struct ActiveSpan {
    collector: Arc<session::BufferCollector>,
    cat: &'static str,
    name: &'static str,
    label: Option<String>,
    start: Instant,
    /// This thread's cumulative `(bytes, allocs)` at span open, from the
    /// [`mem`] counters (zeros unless an instrumented allocator bumps them).
    mem0: (u64, u64),
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(active) = self.0.take() {
            let (bytes, allocs) = mem::thread_totals();
            active.collector.record_span(
                active.cat,
                active.name,
                active.label,
                active.start,
                Instant::now(),
                (bytes.saturating_sub(active.mem0.0), allocs.saturating_sub(active.mem0.1)),
            );
        }
    }
}

/// Open a span. The guard records the elapsed time when dropped.
///
/// `cat` groups related spans (by crate or subsystem); `name` is the
/// operation. Both must be static so the disabled path stays allocation-free.
#[inline]
pub fn span(cat: &'static str, name: &'static str) -> SpanGuard {
    open_span(cat, name, || None)
}

/// Open a span with a per-instance label (e.g. a net name). The label
/// closure only runs while a session is active, so the disabled path
/// never allocates.
#[inline]
pub fn span_labeled(
    cat: &'static str,
    name: &'static str,
    label: impl FnOnce() -> String,
) -> SpanGuard {
    open_span(cat, name, || Some(label()))
}

fn open_span(
    cat: &'static str,
    name: &'static str,
    label: impl FnOnce() -> Option<String>,
) -> SpanGuard {
    SpanGuard(session::with_collector(|c| (Arc::clone(c), label())).map(|(collector, label)| {
        ActiveSpan {
            collector,
            cat,
            name,
            label,
            start: Instant::now(),
            mem0: mem::thread_totals(),
        }
    }))
}

/// Add `delta` to a monotonic counter. No-op (one atomic load) when
/// tracing is off.
#[inline]
pub fn count(name: &'static str, delta: u64) {
    session::with_collector(|c| c.count(name, delta));
}

/// Record one sample of a distribution. No-op (one atomic load) when
/// tracing is off.
#[inline]
pub fn value(name: &'static str, value: u64) {
    session::with_collector(|c| c.value(name, value));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sites_are_inert() {
        let _gate = session::exclusive_gate();
        assert!(!enabled());
        let g = span("t", "nothing");
        drop(g);
        count("t.count", 1);
        value("t.value", 9);
        // Nothing to observe — the point is that none of this panics or
        // requires a collector.
    }

    #[test]
    fn labels_are_lazy() {
        let _gate = session::exclusive_gate();
        assert!(!enabled());
        let _g = span_labeled("t", "lazy", || panic!("label built while disabled"));
    }

    #[test]
    fn nested_spans_both_record() {
        let session = TraceSession::start();
        {
            let _outer = span("t", "outer");
            std::thread::sleep(std::time::Duration::from_millis(1));
            {
                let _inner = span_labeled("t", "inner", || "x".into());
            }
        }
        let trace = session.finish();
        assert_eq!(trace.spans.len(), 2);
        let outer = trace.spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = trace.spans.iter().find(|s| s.name == "inner").unwrap();
        assert!(outer.start_ns <= inner.start_ns);
        assert!(outer.dur_ns >= inner.dur_ns);
        assert_eq!(inner.label.as_deref(), Some("x"));
    }
}
