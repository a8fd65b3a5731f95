//! The merged output of a tracing session: spans, counters, histograms.

use std::collections::BTreeMap;

/// One completed span in the merged trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Category (crate or subsystem).
    pub cat: &'static str,
    /// Operation name.
    pub name: &'static str,
    /// Optional per-instance label (e.g. a net name).
    pub label: Option<String>,
    /// Recording thread (dense index in registration order).
    pub tid: u32,
    /// Start, nanoseconds since the session epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Bytes allocated on the recording thread while this span was open
    /// (0 unless an instrumented allocator is installed; see `pcv_trace::mem`).
    pub alloc_bytes: u64,
    /// Allocations made on the recording thread while this span was open.
    pub alloc_count: u64,
}

/// A power-of-two histogram of `u64` samples.
///
/// Bucket `i` counts samples whose bit length is `i` (bucket 0 holds the
/// value 0, bucket 1 holds 1, bucket 2 holds 2–3, bucket 3 holds 4–7, …),
/// so the full `u64` range fits in 65 fixed buckets with ~2x resolution —
/// plenty for latency and size distributions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples (saturating).
    pub sum: u64,
    /// Smallest sample (`u64::MAX` when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Power-of-two buckets, by sample bit length.
    pub buckets: [u64; 65],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { count: 0, sum: 0, min: u64::MAX, max: 0, buckets: [0; 65] }
    }
}

impl Histogram {
    /// Bucket index for a sample: its bit length.
    pub fn bucket_of(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[Self::bucket_of(value)] += 1;
    }

    /// Mean sample (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Largest sample that lands in bucket `i` — the inclusive upper edge
    /// a cumulative exposition (e.g. a Prometheus `le` bound) needs.
    /// Bucket 0 holds only the value 0; bucket `i` (i ≥ 1) tops out at
    /// `2^i - 1`; bucket 64 tops out at `u64::MAX`.
    pub fn bucket_ceiling(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            u64::MAX >> (64 - i.min(64))
        }
    }

    /// Fold `other` into `self` bucket-by-bucket (saturating sum). The
    /// merge of two histograms records exactly the union of their samples.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
    }
}

/// The deterministic merged output of a tracing session.
///
/// Spans are ordered by `(start, thread, category, name, duration)`;
/// counters and histograms live in ordered maps — so two sessions that
/// record the same events (whatever the thread interleaving) produce
/// traces that serialize identically modulo timing values.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Completed spans, deterministically ordered.
    pub spans: Vec<Span>,
    /// Monotonic counters, summed across threads.
    pub counters: BTreeMap<String, u64>,
    /// Sample distributions, merged across threads.
    pub histograms: BTreeMap<String, Histogram>,
}

impl Trace {
    /// Total duration of the trace: the latest span end (ns since epoch).
    pub fn end_ns(&self) -> u64 {
        self.spans.iter().map(|s| s.start_ns + s.dur_ns).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_bit_length() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(1023), 10);
        assert_eq!(Histogram::bucket_of(1024), 11);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
    }

    #[test]
    fn histogram_tracks_stats() {
        let mut h = Histogram::default();
        for v in [5u64, 10, 1, 100] {
            h.record(v);
        }
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 116);
        assert_eq!(h.min, 1);
        assert_eq!(h.max, 100);
        assert!((h.mean() - 29.0).abs() < 1e-12);
        assert_eq!(h.buckets.iter().sum::<u64>(), 4);
    }

    #[test]
    fn bucket_ceilings_bound_their_buckets() {
        assert_eq!(Histogram::bucket_ceiling(0), 0);
        assert_eq!(Histogram::bucket_ceiling(1), 1);
        assert_eq!(Histogram::bucket_ceiling(2), 3);
        assert_eq!(Histogram::bucket_ceiling(3), 7);
        assert_eq!(Histogram::bucket_ceiling(64), u64::MAX);
        // Every sample lands in the bucket whose ceiling bounds it.
        for v in [0u64, 1, 2, 3, 4, 100, 1 << 40, u64::MAX] {
            let i = Histogram::bucket_of(v);
            assert!(v <= Histogram::bucket_ceiling(i), "{v} exceeds bucket {i} ceiling");
            if i > 0 {
                assert!(v > Histogram::bucket_ceiling(i - 1), "{v} fits bucket {}", i - 1);
            }
        }
    }

    #[test]
    fn merge_is_the_union_of_samples() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        let mut both = Histogram::default();
        for v in [1u64, 9, 100] {
            a.record(v);
            both.record(v);
        }
        for v in [0u64, 7, 5000] {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
        // Merging an empty histogram is the identity.
        both.merge(&Histogram::default());
        assert_eq!(a, both);
    }
}
