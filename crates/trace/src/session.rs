//! Trace sessions: start collecting, run instrumented code, drain a
//! deterministic merged [`Trace`].
//!
//! # Fast path
//!
//! The global dispatch is built so that *disabled* tracing — the default —
//! costs one relaxed atomic load per instrumentation site. When a session
//! is active, each thread caches an `Arc` to the live collector keyed by a
//! session generation counter, so the per-event cost is one atomic load,
//! one thread-local access, and the collector call itself.
//!
//! # Buffering
//!
//! The session's collector gives each recording thread its own buffer
//! (registered on first use, appended under an uncontended mutex), so
//! workers never contend on a shared event log. Draining locks every
//! buffer, merges, and sorts spans by `(start, thread, name)` — a
//! deterministic order for any fixed set of events.
//!
//! Sessions are serialized process-wide by a gate mutex: two tests (or two
//! engine runs) that both want tracing take turns instead of corrupting
//! each other's event streams.

use crate::trace::{Histogram, Span, Trace};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Is a session collecting? One relaxed load; the only cost paid by
/// instrumentation when tracing is off.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Generation counter: bumped on every session start/end so per-thread
/// collector caches know when to refresh.
static GENERATION: AtomicU64 = AtomicU64::new(0);

/// The active session's collector (None when tracing is off).
static CURRENT: Mutex<Option<Arc<BufferCollector>>> = Mutex::new(None);

/// Serializes sessions process-wide.
static GATE: Mutex<()> = Mutex::new(());

thread_local! {
    /// Per-thread cache of (generation, collector).
    static CACHED: RefCell<(u64, Option<Arc<BufferCollector>>)> = const { RefCell::new((0, None)) };
}

/// Lock a mutex, shrugging off poisoning (a panicked recording thread must
/// not take tracing down with it).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// `true` while a session is collecting. Instrumentation sites use this to
/// skip building labels or reading clocks when tracing is off.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Take the session gate *without* starting to collect: while the guard
/// lives, no [`TraceSession`] can start. Used by tests and benchmarks that
/// must observe disabled-mode behavior without racing a concurrent session.
pub fn exclusive_gate() -> MutexGuard<'static, ()> {
    lock(&GATE)
}

/// Run `f` with the active session's collector, if any. The disabled path
/// is a single relaxed load.
#[inline]
pub(crate) fn with_collector<R>(f: impl FnOnce(&Arc<BufferCollector>) -> R) -> Option<R> {
    if !enabled() {
        return None;
    }
    let generation = GENERATION.load(Ordering::Acquire);
    CACHED.with(|c| {
        let mut cached = c.borrow_mut();
        if cached.0 != generation {
            *cached = (generation, lock(&CURRENT).clone());
        }
        cached.1.as_ref().map(f)
    })
}

/// Make `collector` the process-wide event sink.
fn install(collector: Arc<BufferCollector>) {
    let mut cur = lock(&CURRENT);
    *cur = Some(collector);
    GENERATION.fetch_add(1, Ordering::Release);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Remove the installed collector, disabling tracing.
fn uninstall() {
    let mut cur = lock(&CURRENT);
    ENABLED.store(false, Ordering::Relaxed);
    *cur = None;
    GENERATION.fetch_add(1, Ordering::Release);
}

/// Buffer of one recording thread.
struct ThreadBuf {
    /// Dense thread index in registration order (stable within a session).
    tid: u32,
    events: Mutex<Vec<Event>>,
}

/// One buffered event.
enum Event {
    Span {
        cat: &'static str,
        name: &'static str,
        label: Option<String>,
        start_ns: u64,
        dur_ns: u64,
        alloc_bytes: u64,
        alloc_count: u64,
    },
    Count {
        name: &'static str,
        delta: u64,
    },
    Value {
        name: &'static str,
        value: u64,
    },
}

/// Next unique [`BufferCollector`] instance id (thread buffers are cached
/// per instance, so ids must never repeat within a process).
static NEXT_COLLECTOR_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// This thread's buffer in the collector it last recorded into.
    static THREAD_BUF: RefCell<Option<(u64, Arc<ThreadBuf>)>> = const { RefCell::new(None) };
}

/// The collector behind [`TraceSession`]: per-thread append-only buffers,
/// merged deterministically at drain time.
pub(crate) struct BufferCollector {
    id: u64,
    epoch: Instant,
    buffers: Mutex<Vec<Arc<ThreadBuf>>>,
}

impl BufferCollector {
    /// Fresh collector; its epoch (span time zero) is now.
    fn new() -> Self {
        BufferCollector {
            id: NEXT_COLLECTOR_ID.fetch_add(1, Ordering::Relaxed),
            epoch: Instant::now(),
            buffers: Mutex::new(Vec::new()),
        }
    }

    /// Run `f` on the calling thread's buffer, registering one on first
    /// use.
    fn with_buf(&self, f: impl FnOnce(&mut Vec<Event>)) {
        THREAD_BUF.with(|cell| {
            let mut cached = cell.borrow_mut();
            let stale = cached.as_ref().is_none_or(|(id, _)| *id != self.id);
            if stale {
                let mut bufs = lock(&self.buffers);
                let buf =
                    Arc::new(ThreadBuf { tid: bufs.len() as u32, events: Mutex::new(Vec::new()) });
                bufs.push(Arc::clone(&buf));
                *cached = Some((self.id, buf));
            }
            let (_, buf) = cached.as_ref().expect("buffer registered above");
            f(&mut lock(&buf.events));
        });
    }

    /// Nanoseconds since this collector's epoch.
    fn ns_since_epoch(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Merge every thread's buffer into one deterministic [`Trace`].
    ///
    /// Spans are sorted by `(start, thread, name, duration)`; counters and
    /// histograms are aggregated into ordered maps. Buffers are left empty.
    fn drain(&self) -> Trace {
        let buffers = lock(&self.buffers);
        let mut spans: Vec<Span> = Vec::new();
        let mut counters: BTreeMap<String, u64> = BTreeMap::new();
        let mut histograms: BTreeMap<String, Histogram> = BTreeMap::new();
        for buf in buffers.iter() {
            for ev in lock(&buf.events).drain(..) {
                match ev {
                    Event::Span {
                        cat,
                        name,
                        label,
                        start_ns,
                        dur_ns,
                        alloc_bytes,
                        alloc_count,
                    } => spans.push(Span {
                        cat,
                        name,
                        label,
                        tid: buf.tid,
                        start_ns,
                        dur_ns,
                        alloc_bytes,
                        alloc_count,
                    }),
                    Event::Count { name, delta } => {
                        *counters.entry(name.to_owned()).or_insert(0) += delta;
                    }
                    Event::Value { name, value } => {
                        histograms.entry(name.to_owned()).or_default().record(value);
                    }
                }
            }
        }
        spans.sort_by(|a, b| {
            (a.start_ns, a.tid, a.cat, a.name, a.dur_ns)
                .cmp(&(b.start_ns, b.tid, b.cat, b.name, b.dur_ns))
        });
        Trace { spans, counters, histograms }
    }

    /// Record one completed span. Times are absolute [`Instant`]s, anchored
    /// here to the collector's epoch; `alloc` is the `(bytes, count)`
    /// allocated on the recording thread while the span was open (zeros
    /// unless a [`crate::mem`] probe is registered).
    pub(crate) fn record_span(
        &self,
        cat: &'static str,
        name: &'static str,
        label: Option<String>,
        start: Instant,
        end: Instant,
        (alloc_bytes, alloc_count): (u64, u64),
    ) {
        let start_ns = self.ns_since_epoch(start);
        let dur_ns = end.saturating_duration_since(start).as_nanos() as u64;
        self.with_buf(|buf| {
            buf.push(Event::Span { cat, name, label, start_ns, dur_ns, alloc_bytes, alloc_count })
        });
    }

    /// Add `delta` to the named monotonic counter.
    pub(crate) fn count(&self, name: &'static str, delta: u64) {
        self.with_buf(|buf| buf.push(Event::Count { name, delta }));
    }

    /// Record one sample of the named distribution (histogram).
    pub(crate) fn value(&self, name: &'static str, value: u64) {
        self.with_buf(|buf| buf.push(Event::Value { name, value }));
    }
}

/// An active tracing session: created by [`TraceSession::start`], which
/// installs a fresh collector process-wide; finished by
/// [`TraceSession::finish`], which uninstalls it and returns the merged
/// [`Trace`].
///
/// Sessions serialize on a process-wide gate, so concurrent would-be
/// tracers (parallel tests, overlapping engine runs) take turns rather
/// than interleaving events. Dropping a session without calling `finish`
/// uninstalls the collector and discards its events.
pub struct TraceSession {
    collector: Arc<BufferCollector>,
    _gate: MutexGuard<'static, ()>,
}

impl TraceSession {
    /// Start a session: waits for any other session to finish, then
    /// installs a fresh collector.
    pub fn start() -> TraceSession {
        let gate = lock(&GATE);
        let collector = Arc::new(BufferCollector::new());
        install(Arc::clone(&collector));
        TraceSession { collector, _gate: gate }
    }

    /// Stop collecting and return the merged trace.
    pub fn finish(self) -> Trace {
        uninstall();
        self.collector.drain()
    }
}

impl Drop for TraceSession {
    fn drop(&mut self) {
        // `finish` consumed self via ManuallyDrop-free move; on a plain
        // drop the collector may still be installed — remove it so events
        // stop flowing into a dead session.
        if enabled() {
            uninstall();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_and_toggles_with_sessions() {
        let s = TraceSession::start();
        assert!(enabled());
        let trace = s.finish();
        assert!(trace.spans.is_empty());
        // Re-take the gate so no sibling test's session can flip the flag
        // back on between finish and the assertion.
        let _gate = exclusive_gate();
        assert!(!enabled());
    }

    #[test]
    fn events_from_many_threads_merge_deterministically() {
        let session = TraceSession::start();
        std::thread::scope(|scope| {
            for t in 0..4 {
                scope.spawn(move || {
                    for i in 0..10 {
                        crate::count("test.events", 1);
                        crate::value("test.dist", (t * 10 + i) as u64);
                        let _g = crate::span("test", "work");
                    }
                });
            }
        });
        let trace = session.finish();
        assert_eq!(trace.counters["test.events"], 40);
        assert_eq!(trace.histograms["test.dist"].count, 40);
        assert_eq!(trace.spans.len(), 40);
        // Sorted by start time.
        for w in trace.spans.windows(2) {
            assert!(w[0].start_ns <= w[1].start_ns);
        }
    }

    #[test]
    fn drop_without_finish_uninstalls() {
        {
            let _s = TraceSession::start();
            assert!(enabled());
        }
        let _gate = exclusive_gate();
        assert!(!enabled());
    }
}
