//! Memory telemetry: an instrumented global allocator and its snapshot
//! API.
//!
//! [`TrackingAlloc`] wraps the system allocator and maintains process-wide
//! counters (current and peak live bytes, allocation/deallocation counts,
//! cumulative bytes) with relaxed atomics, plus the per-thread cumulative
//! counters of [`pcv_trace::mem`] that spans difference. The counters only
//! move in a binary that installs it; elsewhere [`mem::snapshot`] is `None`
//! and spans carry zeros.
//!
//! Install it in a binary that wants telemetry:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: pcv_obs::TrackingAlloc = pcv_obs::TrackingAlloc::system();
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// A point-in-time view of the process's tracked allocation state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemSnapshot {
    /// Live (allocated minus freed) bytes right now.
    pub current_bytes: u64,
    /// High-water mark of live bytes since process start (or the last
    /// [`mem::reset_peak`]).
    pub peak_bytes: u64,
    /// Allocations performed.
    pub allocs: u64,
    /// Deallocations performed.
    pub deallocs: u64,
    /// Cumulative bytes ever allocated (monotonic).
    pub total_bytes: u64,
}

/// The instrumented allocator. A unit struct: all counters are
/// process-global, so any number of references observe the same state.
#[derive(Debug, Clone, Copy, Default)]
pub struct TrackingAlloc;

impl TrackingAlloc {
    /// The allocator value to install as `#[global_allocator]`.
    pub const fn system() -> TrackingAlloc {
        TrackingAlloc
    }
}

static CURRENT: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static DEALLOCS: AtomicU64 = AtomicU64::new(0);
static TOTAL: AtomicU64 = AtomicU64::new(0);

#[inline]
fn on_alloc(size: usize) {
    let size = size as u64;
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    TOTAL.fetch_add(size, Ordering::Relaxed);
    let live = CURRENT.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(live, Ordering::Relaxed);
    pcv_trace::mem::on_alloc(size);
}

#[inline]
fn on_dealloc(size: usize) {
    DEALLOCS.fetch_add(1, Ordering::Relaxed);
    CURRENT.fetch_sub(size as u64, Ordering::Relaxed);
}

// SAFETY: every method delegates to `System` for the actual memory
// operations; the bookkeeping around them only touches atomics and
// destructor-free thread-locals, so the allocator contract is `System`'s.
unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        on_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            on_dealloc(layout.size());
            on_alloc(new_size);
        }
        p
    }
}

/// Snapshot accessors over the tracked allocation state.
pub mod mem {
    use super::{MemSnapshot, ALLOCS, CURRENT, DEALLOCS, PEAK, TOTAL};
    use std::sync::atomic::Ordering;

    pub use pcv_trace::mem::thread_totals;

    /// `true` once at least one allocation has been recorded (i.e.
    /// [`super::TrackingAlloc`] is installed as the global allocator, or
    /// exercised directly).
    pub fn active() -> bool {
        ALLOCS.load(Ordering::Relaxed) > 0
    }

    /// The current tracked state, or `None` when no allocation has been
    /// recorded yet. The peak is never below the current size: another
    /// thread's allocation may have raised the one and not yet the other.
    pub fn snapshot() -> Option<MemSnapshot> {
        if !active() {
            return None;
        }
        let current_bytes = CURRENT.load(Ordering::Relaxed);
        Some(MemSnapshot {
            current_bytes,
            peak_bytes: PEAK.load(Ordering::Relaxed).max(current_bytes),
            allocs: ALLOCS.load(Ordering::Relaxed),
            deallocs: DEALLOCS.load(Ordering::Relaxed),
            total_bytes: TOTAL.load(Ordering::Relaxed),
        })
    }

    /// Re-arm the peak watermark to the current live size, so the next
    /// [`snapshot`] reports the peak *since this call*. Benchmark
    /// harnesses call this between repetitions.
    pub fn reset_peak() {
        PEAK.store(CURRENT.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    mod enabled {
        use super::super::*;

        /// Drive the allocator directly (no global install needed) and
        /// check the counters respond.
        #[test]
        fn counters_track_alloc_and_free() {
            let a = TrackingAlloc::system();
            let layout = Layout::from_size_align(4096, 8).unwrap();
            let before = mem::snapshot().unwrap_or_default();
            unsafe {
                let p = a.alloc(layout);
                assert!(!p.is_null());
                let during = mem::snapshot().expect("tracking active after an alloc");
                assert!(during.allocs > before.allocs);
                assert!(during.total_bytes >= before.total_bytes + 4096);
                assert!(during.peak_bytes >= during.current_bytes.min(4096));
                a.dealloc(p, layout);
            }
            let after = mem::snapshot().unwrap();
            assert!(after.deallocs > before.deallocs);
        }

        /// Peak is monotone over a burst of allocations and never below
        /// current — even while other test threads allocate concurrently.
        #[test]
        fn peak_is_monotone_and_dominates_current() {
            let a = TrackingAlloc::system();
            let layout = Layout::from_size_align(1 << 16, 8).unwrap();
            let mut last_peak = 0u64;
            let mut held = Vec::new();
            for _ in 0..8 {
                unsafe { held.push(a.alloc(layout)) };
                let s = mem::snapshot().unwrap();
                assert!(s.peak_bytes >= last_peak, "peak regressed");
                assert!(s.peak_bytes >= s.current_bytes, "peak below current");
                last_peak = s.peak_bytes;
            }
            for p in held {
                unsafe { a.dealloc(p, layout) };
            }
        }

        /// Concurrent workers: global counts absorb every thread's
        /// traffic; per-thread totals see exactly their own.
        #[test]
        fn snapshots_stay_consistent_under_concurrency() {
            let before = {
                // Prime the counters so `active()` holds even if this test
                // runs first.
                let a = TrackingAlloc::system();
                let layout = Layout::from_size_align(8, 8).unwrap();
                unsafe {
                    let p = a.alloc(layout);
                    a.dealloc(p, layout);
                }
                mem::snapshot().unwrap()
            };
            const THREADS: usize = 4;
            const EACH: usize = 200;
            const SIZE: usize = 1024;
            std::thread::scope(|scope| {
                for _ in 0..THREADS {
                    scope.spawn(|| {
                        let a = TrackingAlloc::system();
                        let layout = Layout::from_size_align(SIZE, 8).unwrap();
                        let (tl_bytes0, tl_allocs0) = mem::thread_totals();
                        for _ in 0..EACH {
                            unsafe {
                                let p = a.alloc(layout);
                                assert!(!p.is_null());
                                a.dealloc(p, layout);
                            }
                        }
                        let (tl_bytes1, tl_allocs1) = mem::thread_totals();
                        assert!(tl_allocs1 >= tl_allocs0 + EACH as u64);
                        assert!(tl_bytes1 >= tl_bytes0 + (EACH * SIZE) as u64);
                    });
                }
            });
            let after = mem::snapshot().unwrap();
            let traffic = (THREADS * EACH) as u64;
            assert!(after.allocs >= before.allocs + traffic);
            assert!(after.deallocs >= before.deallocs + traffic);
            assert!(after.total_bytes >= before.total_bytes + traffic * SIZE as u64);
            assert!(after.peak_bytes >= after.current_bytes);
        }
    }
}
