//! Trace export: Chrome `trace_event` JSON (loadable in `chrome://tracing`
//! or [Perfetto](https://ui.perfetto.dev)).

use crate::json;
use crate::trace::Trace;

/// Microseconds (Chrome's native unit) from nanoseconds, with sub-µs
/// resolution preserved.
fn us(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e3)
}

impl Trace {
    /// Render the trace in Chrome `trace_event` JSON object format:
    /// complete (`"ph":"X"`) events for spans, one counter (`"ph":"C"`)
    /// sample per counter, and thread-name metadata. Load the result in
    /// `chrome://tracing` or Perfetto.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::with_capacity(128 * (self.spans.len() + 16));
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        let mut push = |out: &mut String, ev: String| {
            if !std::mem::take(&mut first) {
                out.push(',');
            }
            out.push_str(&ev);
        };
        let threads: std::collections::BTreeSet<u32> = self.spans.iter().map(|s| s.tid).collect();
        for tid in threads {
            push(
                &mut out,
                format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
                     \"args\":{{\"name\":\"worker-{tid}\"}}}}"
                ),
            );
        }
        for s in &self.spans {
            let mut fields = Vec::new();
            if let Some(label) = &s.label {
                fields.push(format!("\"label\":{}", json::str_lit(label)));
            }
            if s.alloc_bytes > 0 || s.alloc_count > 0 {
                fields.push(format!("\"alloc_bytes\":{}", s.alloc_bytes));
                fields.push(format!("\"allocs\":{}", s.alloc_count));
            }
            let args = if fields.is_empty() {
                String::new()
            } else {
                format!(",\"args\":{{{}}}", fields.join(","))
            };
            push(
                &mut out,
                format!(
                    "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                     \"pid\":1,\"tid\":{}{args}}}",
                    json::str_lit(s.name),
                    json::str_lit(s.cat),
                    us(s.start_ns),
                    us(s.dur_ns),
                    s.tid
                ),
            );
        }
        let end = us(self.end_ns());
        for (name, total) in &self.counters {
            push(
                &mut out,
                format!(
                    "{{\"name\":{n},\"ph\":\"C\",\"ts\":0,\"pid\":1,\
                     \"args\":{{\"value\":0}}}}",
                    n = json::str_lit(name)
                ),
            );
            push(
                &mut out,
                format!(
                    "{{\"name\":{n},\"ph\":\"C\",\"ts\":{end},\"pid\":1,\
                     \"args\":{{\"value\":{total}}}}}",
                    n = json::str_lit(name)
                ),
            );
        }
        out.push_str("]}");
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
