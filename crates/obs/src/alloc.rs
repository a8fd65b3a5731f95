//! Memory telemetry: an instrumented global allocator and its snapshot
//! API.
//!
//! [`TrackingAlloc`] wraps the system allocator and, when the
//! `track-alloc` feature is on, maintains process-wide counters (current
//! and peak live bytes, allocation/deallocation counts, cumulative bytes)
//! with relaxed atomics plus per-thread cumulative counters used by the
//! [`pcv_trace`] span probe. With the feature off every method forwards
//! straight to the system allocator, the counters do not exist, and every
//! accessor in [`mem`] collapses to a constant — zero overhead, no
//! tracking symbols in the binary.
//!
//! Install it in a binary that wants telemetry:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: pcv_obs::TrackingAlloc = pcv_obs::TrackingAlloc::system();
//! ```

use std::alloc::{GlobalAlloc, Layout, System};

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

#[cfg(feature = "track-alloc")]
mod imp {
    use std::cell::Cell;
    use std::sync::atomic::{AtomicU64, Ordering};

    pub(super) static CURRENT: AtomicU64 = AtomicU64::new(0);
    pub(super) static PEAK: AtomicU64 = AtomicU64::new(0);
    pub(super) static ALLOCS: AtomicU64 = AtomicU64::new(0);
    pub(super) static DEALLOCS: AtomicU64 = AtomicU64::new(0);
    pub(super) static TOTAL: AtomicU64 = AtomicU64::new(0);

    thread_local! {
        // Cumulative per-thread counters for span attribution. `Cell<u64>`
        // has no destructor, so first access never allocates — safe to
        // touch from inside the allocator itself.
        pub(super) static TL_BYTES: Cell<u64> = const { Cell::new(0) };
        pub(super) static TL_ALLOCS: Cell<u64> = const { Cell::new(0) };
    }

    #[inline]
    pub(super) fn on_alloc(size: usize) {
        let size = size as u64;
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        TOTAL.fetch_add(size, Ordering::Relaxed);
        let live = CURRENT.fetch_add(size, Ordering::Relaxed) + size;
        PEAK.fetch_max(live, Ordering::Relaxed);
        let _ = TL_BYTES.try_with(|c| c.set(c.get() + size));
        let _ = TL_ALLOCS.try_with(|c| c.set(c.get() + 1));
    }

    #[inline]
    pub(super) fn on_dealloc(size: usize) {
        DEALLOCS.fetch_add(1, Ordering::Relaxed);
        CURRENT.fetch_sub(size as u64, Ordering::Relaxed);
    }
}

#[cfg(feature = "track-alloc")]
// SAFETY: every method delegates to `System` for the actual memory
// operations; the bookkeeping around them only touches atomics and
// destructor-free thread-locals, so the allocator contract is `System`'s.
unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            imp::on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        imp::on_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            imp::on_dealloc(layout.size());
            imp::on_alloc(new_size);
        }
        p
    }
}

#[cfg(not(feature = "track-alloc"))]
// SAFETY: a pure pass-through to `System`.
unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Snapshot accessors over the tracked allocation state.
pub mod mem {
    use super::MemSnapshot;

    /// `true` when allocation tracking is compiled in **and** at least one
    /// allocation has been recorded (i.e. [`super::TrackingAlloc`] is
    /// actually installed as the global allocator, or exercised directly).
    #[cfg(feature = "track-alloc")]
    pub fn active() -> bool {
        use std::sync::atomic::Ordering;
        super::imp::ALLOCS.load(Ordering::Relaxed) > 0
    }

    /// Always `false`: tracking is not compiled in.
    #[cfg(not(feature = "track-alloc"))]
    #[inline]
    pub fn active() -> bool {
        false
    }

    /// The current tracked state, or `None` when tracking is compiled out
    /// or no allocation has been recorded yet. The peak is never below the
    /// current size: another thread's allocation may have raised the one
    /// and not yet the other.
    #[cfg(feature = "track-alloc")]
    pub fn snapshot() -> Option<MemSnapshot> {
        use std::sync::atomic::Ordering;
        if !active() {
            return None;
        }
        let current_bytes = super::imp::CURRENT.load(Ordering::Relaxed);
        Some(MemSnapshot {
            current_bytes,
            peak_bytes: super::imp::PEAK.load(Ordering::Relaxed).max(current_bytes),
            allocs: super::imp::ALLOCS.load(Ordering::Relaxed),
            deallocs: super::imp::DEALLOCS.load(Ordering::Relaxed),
            total_bytes: super::imp::TOTAL.load(Ordering::Relaxed),
        })
    }

    /// Always `None`: tracking is not compiled in.
    #[cfg(not(feature = "track-alloc"))]
    #[inline]
    pub fn snapshot() -> Option<MemSnapshot> {
        None
    }

    /// Re-arm the peak watermark to the current live size, so the next
    /// [`snapshot`] reports the peak *since this call*. Benchmark
    /// harnesses call this between repetitions.
    #[cfg(feature = "track-alloc")]
    pub fn reset_peak() {
        use std::sync::atomic::Ordering;
        let live = super::imp::CURRENT.load(Ordering::Relaxed);
        super::imp::PEAK.store(live, Ordering::Relaxed);
    }

    /// No-op: tracking is not compiled in.
    #[cfg(not(feature = "track-alloc"))]
    #[inline]
    pub fn reset_peak() {}

    /// This thread's cumulative `(bytes_allocated, allocations)` — the
    /// monotonic pair the [`pcv_trace`] span probe differences to charge
    /// allocations to pipeline stages. `(0, 0)` when tracking is off.
    #[cfg(feature = "track-alloc")]
    pub fn thread_totals() -> (u64, u64) {
        let bytes = super::imp::TL_BYTES.try_with(std::cell::Cell::get).unwrap_or(0);
        let allocs = super::imp::TL_ALLOCS.try_with(std::cell::Cell::get).unwrap_or(0);
        (bytes, allocs)
    }

    /// Always `(0, 0)`: tracking is not compiled in.
    #[cfg(not(feature = "track-alloc"))]
    #[inline]
    pub fn thread_totals() -> (u64, u64) {
        (0, 0)
    }

    /// Register [`thread_totals`] as [`pcv_trace`]'s memory probe, so
    /// every span records the allocation delta of its scope. Idempotent;
    /// a no-op when tracking is compiled out (spans then carry zeros).
    pub fn install_trace_probe() {
        if active() {
            pcv_trace::mem::set_probe(thread_totals);
        }
    }
}

#[cfg(test)]
mod tests {
    // With the feature off, every accessor must collapse to its constant
    // form — the "disabled path" contract. (These run under
    // `cargo test -p pcv-obs`; workspace builds unify the feature on.)
    #[cfg(not(feature = "track-alloc"))]
    mod disabled {
        use super::super::*;

        #[test]
        fn snapshot_is_none_and_nothing_counts() {
            assert!(!mem::active());
            assert!(mem::snapshot().is_none());
            assert_eq!(mem::thread_totals(), (0, 0));
            // Exercising the allocator directly still records nothing.
            let a = TrackingAlloc::system();
            let layout = Layout::from_size_align(64, 8).unwrap();
            unsafe {
                let p = a.alloc(layout);
                assert!(!p.is_null());
                a.dealloc(p, layout);
            }
            assert!(mem::snapshot().is_none());
            mem::reset_peak(); // must be a no-op, not a panic
        }
    }

    #[cfg(feature = "track-alloc")]
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
