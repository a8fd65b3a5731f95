//! Harness-side spans: one per call into a layer's public API.
//!
//! The benchmark measures every layer *from outside* — spans wrap the
//! calls the harness makes into the crates, never code inside them. Spans
//! are kept in memory and written (as a Chrome trace) only when the run
//! ends, so recording costs two clock reads and a `Vec` push per call.

use std::cell::RefCell;
use std::time::Instant;

/// One recorded call. `name` is `layer.call` with the crate as the layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.call`, e.g. `mor.reduce`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The victim net the call worked on (spans of one victim share it);
    /// `None` for whole-chip calls.
    pub victim: Option<usize>,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

#[derive(Debug, Default)]
struct Inner {
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// An in-memory span recorder for the harness's own thread. Disabled, it
/// runs the wrapped call and records nothing (the untraced pass).
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    inner: RefCell<Inner>,
}

impl Tracer {
    /// A recorder; `enabled = false` makes every method a pass-through.
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, epoch: Instant::now(), inner: RefCell::default() }
    }

    /// Run `f` inside a whole-chip span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.record(name, None, f)
    }

    /// Run `f` inside a span tagged with the victim it works on.
    pub fn span_for<T>(&self, name: &'static str, victim: usize, f: impl FnOnce() -> T) -> T {
        self.record(name, Some(victim), f)
    }

    fn record<T>(&self, name: &'static str, victim: Option<usize>, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let idx = {
            let mut inner = self.inner.borrow_mut();
            let idx = inner.spans.len();
            let parent = inner.stack.last().copied();
            inner.spans.push(Span { name, start_ns: 0, end_ns: 0, parent, victim });
            inner.stack.push(idx);
            idx
        };
        let start = self.epoch.elapsed().as_nanos() as u64;
        let out = f();
        let end = self.epoch.elapsed().as_nanos() as u64;
        let mut inner = self.inner.borrow_mut();
        inner.spans[idx].start_ns = start;
        inner.spans[idx].end_ns = end;
        inner.stack.pop();
        out
    }

    /// How many spans have been opened so far.
    pub fn len(&self) -> usize {
        self.inner.borrow().spans.len()
    }

    /// Every finished span, in start order.
    pub fn spans(&self) -> Vec<Span> {
        self.inner.borrow().spans.clone()
    }

    /// Durations (seconds) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.inner.borrow().spans.iter().filter(|s| s.name == name).map(Span::secs).collect()
    }

    /// Summed duration (seconds) of every span named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }
}

/// Self time of each span: its duration minus the part its direct
/// children cover. Indexed like `spans`.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::secs).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.secs();
        }
    }
    own
}

/// Summed self time (seconds) per span name, sorted by name.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, f64, usize)> {
    let own = self_times(spans);
    let mut by: std::collections::BTreeMap<&'static str, (f64, usize)> = Default::default();
    for (s, t) in spans.iter().zip(own) {
        let e = by.entry(s.name).or_default();
        e.0 += t;
        e.1 += 1;
    }
    by.into_iter().map(|(k, (t, n))| (k, t, n)).collect()
}

/// Render spans as a Chrome trace (`chrome://tracing`, Perfetto): one
/// complete event per span, the layer as its category.
pub fn chrome_trace(spans: &[Span]) -> String {
    use pcv_trace::json::str_lit;
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let layer = s.name.split('.').next().unwrap_or(s.name);
        out.push_str(&format!(
            "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1,\
             \"args\":{{\"id\":{i},\"parent\":{},\"victim\":{}}}}}",
            str_lit(s.name),
            str_lit(layer),
            s.start_ns as f64 * 1e-3,
            (s.end_ns - s.start_ns) as f64 * 1e-3,
            s.parent.map_or("null".to_owned(), |p| p.to_string()),
            s.victim.map_or("null".to_owned(), |v| v.to_string()),
        ));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns: start, end_ns: end, parent, victim: None }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // op [0,100) > a [10,60) > b [20,30); op > c [70,90)
        let spans = vec![
            span("op", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 20, 30, Some(1)),
            span("c", 70, 90, Some(0)),
        ];
        let own: Vec<f64> = self_times(&spans).iter().map(|s| (s * 1e9).round()).collect();
        assert_eq!(own, vec![30.0, 40.0, 10.0, 20.0]);
        // Self times partition the root's duration.
        assert_eq!(own.iter().sum::<f64>(), 100.0);
    }

    #[test]
    fn tracer_nests_by_call_structure_and_tags_victims() {
        let t = Tracer::new(true);
        let v = t.span("outer", || t.span_for("inner", 7, || 42));
        assert_eq!(v, 42);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent, spans[0].victim), ("outer", None, None));
        assert_eq!((spans[1].name, spans[1].parent, spans[1].victim), ("inner", Some(0), Some(7)));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(t.durations("inner").len(), 1);
        let json = chrome_trace(&spans);
        assert!(pcv_obs::json::parse(&json).is_ok(), "{json}");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", || 1), 1);
        assert!(t.spans().is_empty());
    }
}
