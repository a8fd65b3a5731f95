//! Cooperative cancellation for long-running reductions and transients.
//!
//! A [`CancelToken`] is a cheap, clonable handle polled inside the block
//! Lanczos and Newton loops so a pathological cluster degrades (via the
//! engine's recovery ladder) instead of stalling a worker forever. Its one
//! trigger is an explicit flag ([`CancelToken::cancel`]), settable from
//! another thread. There is no wall-clock trigger: it would make a report
//! depend on machine speed. The engine's deterministic budgets
//! (`newton_budget` / `max_tran_steps` in [`crate::MorOptions`]) are the
//! stall protection.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A cooperative cancellation handle shared between a worker loop and its
/// supervisor. Cloning shares the underlying flag.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A token that never fires until [`cancel`](Self::cancel) is called.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Raise the cancellation flag. All clones observe it.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether the flag is raised.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_fires_across_clones() {
        let t = CancelToken::new();
        let t2 = t.clone();
        assert!(!t.is_cancelled());
        assert!(!t2.is_cancelled());
        t2.cancel();
        assert!(t.is_cancelled());
        assert!(t2.is_cancelled());
    }

    #[test]
    fn token_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CancelToken>();
    }
}
