//! Trace export: Chrome `trace_event` JSON (loadable in `chrome://tracing`
//! or [Perfetto](https://ui.perfetto.dev)).

use crate::json;
use crate::trace::Trace;
use std::collections::BTreeSet;

impl Trace {
    /// Render the trace in Chrome `trace_event` JSON object format:
    /// complete (`"ph":"X"`) events for spans, one counter (`"ph":"C"`)
    /// sample per counter, and thread-name metadata. Load the result in
    /// `chrome://tracing` or Perfetto. Times are microseconds (Chrome's
    /// native unit) to the nanosecond.
    pub fn to_chrome_trace(&self) -> String {
        let us = |ns: u64| ns as f64 / 1e3;
        let mut out = String::with_capacity(128 * (self.spans.len() + 16));
        json::write_object(&mut out, |o| {
            o.str("displayTimeUnit", "ms");
            o.arr("traceEvents", |events| {
                let threads: BTreeSet<u32> = self.spans.iter().map(|s| s.tid).collect();
                for tid in threads {
                    events.obj(|e| {
                        e.str("name", "thread_name").str("ph", "M").raw("pid", 1).raw("tid", tid);
                        e.obj("args", |a| {
                            a.str("name", &format!("worker-{tid}"));
                        });
                    });
                }
                for s in &self.spans {
                    events.obj(|e| {
                        e.str("name", s.name).str("cat", s.cat).str("ph", "X");
                        e.raw("ts", format_args!("{:.3}", us(s.start_ns)));
                        e.raw("dur", format_args!("{:.3}", us(s.dur_ns)));
                        e.raw("pid", 1).raw("tid", s.tid);
                        let allocs = s.alloc_bytes > 0 || s.alloc_count > 0;
                        if s.label.is_some() || allocs {
                            e.obj("args", |a| {
                                if let Some(label) = &s.label {
                                    a.str("label", label);
                                }
                                if allocs {
                                    a.raw("alloc_bytes", s.alloc_bytes)
                                        .raw("allocs", s.alloc_count);
                                }
                            });
                        }
                    });
                }
                let end = us(self.end_ns());
                for (name, total) in &self.counters {
                    for (ts, value) in [(format_args!("0"), 0), (format_args!("{end:.3}"), *total)]
                    {
                        events.obj(|e| {
                            e.str("name", name).str("ph", "C").raw("ts", ts).raw("pid", 1);
                            e.obj("args", |a| {
                                a.raw("value", value);
                            });
                        });
                    }
                }
            });
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Span;

    fn sample() -> Trace {
        let mut t = Trace::default();
        t.spans.push(Span {
            cat: "xtalk",
            name: "prune",
            label: Some("bus0_1".into()),
            tid: 0,
            start_ns: 1500,
            dur_ns: 2500,
            alloc_bytes: 4096,
            alloc_count: 12,
        });
        t.spans.push(Span {
            cat: "mor",
            name: "reduce",
            label: None,
            tid: 1,
            start_ns: 4000,
            dur_ns: 1000,
            alloc_bytes: 0,
            alloc_count: 0,
        });
        t.counters.insert("engine.cache.hit".into(), 7);
        t
    }

    #[test]
    fn chrome_trace_is_wellformed() {
        let doc = sample().to_chrome_trace();
        assert!(doc.starts_with("{\"displayTimeUnit\""));
        assert!(doc.ends_with("]}"));
        assert!(doc.contains("\"ph\":\"X\""));
        assert!(doc.contains("\"ph\":\"M\""));
        assert!(doc.contains("\"ph\":\"C\""));
        assert!(doc.contains("\"ts\":1.500"));
        assert!(doc.contains("\"dur\":2.500"));
        // Counters close at the trace's end: the latest span end (5000 ns).
        assert_eq!(sample().end_ns(), 5000);
        assert!(doc.contains("\"ph\":\"C\",\"ts\":5.000,"));
        assert!(doc.contains("\"label\":\"bus0_1\",\"alloc_bytes\":4096,\"allocs\":12"));
        // Balanced braces/brackets — a cheap well-formedness check.
        let braces = doc.matches('{').count();
        assert_eq!(braces, doc.matches('}').count());
        assert_eq!(doc.matches('[').count(), doc.matches(']').count());
    }

    #[test]
    fn empty_trace_exports_cleanly() {
        let t = Trace::default();
        assert_eq!(t.to_chrome_trace(), "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}");
    }
}
