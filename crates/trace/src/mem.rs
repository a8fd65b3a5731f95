//! Per-thread allocation counters, sampled at span open and close, so every
//! span carries the allocation delta of its scope.
//!
//! `pcv-trace` stays dependency-free: an instrumented global allocator (see
//! `pcv-obs`) calls [`on_alloc`] for every allocation, and spans difference
//! two readings of [`thread_totals`]. In a binary without one, nothing
//! bumps the counters and spans record zeros.

use std::cell::Cell;

thread_local! {
    // `Cell<u64>` has no destructor, so first access never allocates: safe
    // to touch from inside the allocator itself.
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Charge one allocation of `size` bytes to this thread.
#[inline]
pub fn on_alloc(size: u64) {
    let _ = BYTES.try_with(|c| c.set(c.get() + size));
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

/// This thread's cumulative, monotonically increasing
/// `(bytes_allocated, allocations)`; `(0, 0)` once the thread's locals are
/// gone.
#[inline]
pub fn thread_totals() -> (u64, u64) {
    (BYTES.try_with(Cell::get).unwrap_or(0), ALLOCS.try_with(Cell::get).unwrap_or(0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocations_are_charged_to_the_thread_that_made_them() {
        // This test binary has the system allocator: only explicit charges
        // move the counters.
        let (bytes, allocs) = thread_totals();
        on_alloc(40);
        on_alloc(24);
        assert_eq!(thread_totals(), (bytes + 64, allocs + 2));
        std::thread::spawn(|| {
            let (bytes, allocs) = thread_totals();
            on_alloc(1000);
            assert_eq!(thread_totals(), (bytes + 1000, allocs + 1));
        })
        .join()
        .unwrap();
        assert_eq!(
            thread_totals(),
            (bytes + 64, allocs + 2),
            "another thread's charge stays there"
        );
    }
}
