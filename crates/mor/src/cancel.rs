//! A cooperative cancellation flag, settable from another thread.
//!
//! A [`CancelToken`] is a cheap, clonable handle. [`sympvl::reduce_with`]
//! polls an optional one once per Lanczos candidate vector; the transient
//! kernels poll nothing. The chip engine's stop flag wraps a token and
//! reads it only between cluster jobs: a job that has started runs to its
//! verdict, because a job cut short mid-analysis would escalate the
//! recovery ladder and change that verdict. There is no wall-clock
//! trigger, which would make a report depend on machine speed; the
//! deterministic budgets (`newton_budget` / `max_tran_steps` in
//! [`crate::MorOptions`]) are the stall protection.
//!
//! [`sympvl::reduce_with`]: crate::sympvl::reduce_with

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
