//! Multi-subscriber event fan-out: one producer (the engine), any number
//! of late-joining consumers, bounded memory, counted overflow.
//!
//! A verification *service* has several clients subscribing to the same
//! run's event stream, each at its own pace, possibly after the run
//! already started. [`EventHub`] provides that: events append to one
//! bounded archive, and every subscriber is an independent cursor over it,
//! so a subscriber attached mid-run still replays the run from the first
//! event. When the archive is full the hub sheds new events and counts
//! them ([`EventHub::dropped`]) — fan-out, like every other observability
//! path, must never apply backpressure to verification.

use crate::event::{EngineEvent, EventSink};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// A bounded, append-only event archive with replaying subscribers.
///
/// The hub is the [`EventSink`] handed to the engine; subscribers are
/// [`HubCursor`]s created with [`EventHub::subscribe`] at any time before,
/// during, or after the run. Closing the hub ([`EventHub::close`]) marks
/// the stream finished so cursors can distinguish "caught up, more may
/// come" from "caught up, stream over".
#[derive(Debug)]
pub struct EventHub {
    /// Archived events, in publication order. Appends take the write lock
    /// briefly; cursor reads share the read lock.
    archive: RwLock<Vec<EngineEvent>>,
    capacity: usize,
    dropped: AtomicU64,
    closed: AtomicBool,
}

impl EventHub {
    /// A hub archiving at most `capacity` events; further events are shed
    /// and counted.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "hub capacity must be positive");
        EventHub {
            archive: RwLock::new(Vec::new()),
            capacity,
            dropped: AtomicU64::new(0),
            closed: AtomicBool::new(false),
        }
    }

    /// A new independent cursor starting at the first archived event.
    pub fn subscribe(self: &Arc<Self>) -> HubCursor {
        HubCursor { hub: Arc::clone(self), pos: 0 }
    }

    /// Events shed because the archive was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Events archived so far.
    pub fn len(&self) -> usize {
        self.archive.read().unwrap_or_else(std::sync::PoisonError::into_inner).len()
    }

    /// Whether the archive is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Mark the stream finished. Idempotent; only affects what
    /// [`HubCursor::poll`] reports for an exhausted cursor.
    pub fn close(&self) {
        self.closed.store(true, Ordering::Release);
    }

    /// Whether [`EventHub::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }
}

impl EventSink for EventHub {
    fn event(&self, ev: &EngineEvent) {
        let mut archive = self.archive.write().unwrap_or_else(std::sync::PoisonError::into_inner);
        if archive.len() >= self.capacity {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        archive.push(ev.clone());
    }

    fn dropped(&self) -> u64 {
        EventHub::dropped(self)
    }
}

/// What a cursor sees when it has consumed every archived event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CursorState {
    /// The hub is still open: more events may arrive.
    Open,
    /// The hub is closed: the stream is complete.
    Closed,
}

/// One subscriber's position in an [`EventHub`] archive. Cursors are
/// independent — each consumes the full stream at its own pace.
#[derive(Debug)]
pub struct HubCursor {
    hub: Arc<EventHub>,
    pos: usize,
}

impl HubCursor {
    /// The next archived event, or `Err(state)` when caught up —
    /// [`CursorState::Closed`] means the stream is over.
    pub fn poll(&mut self) -> Result<EngineEvent, CursorState> {
        // Read the closed flag *before* the archive: an event published
        // before close() is therefore never misreported as Closed while
        // still unread.
        let closed = self.hub.is_closed();
        let archive = self.hub.archive.read().unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(ev) = archive.get(self.pos) {
            self.pos += 1;
            return Ok(ev.clone());
        }
        Err(if closed { CursorState::Closed } else { CursorState::Open })
    }

    /// Events this cursor has consumed.
    pub fn delivered(&self) -> usize {
        self.pos
    }

    /// Events the hub shed (shared across all cursors — the archive is
    /// the unit that overflows, not the subscriber).
    pub fn dropped(&self) -> u64 {
        self.hub.dropped()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &str) -> EngineEvent {
        EngineEvent::ClusterQueued { name: name.into() }
    }

    #[test]
    fn late_subscriber_replays_from_the_start() {
        let hub = Arc::new(EventHub::new(16));
        hub.event(&ev("a"));
        hub.event(&ev("b"));
        let mut early = hub.subscribe();
        assert_eq!(early.poll(), Ok(ev("a")));
        hub.event(&ev("c"));
        // A cursor created now still sees the full stream.
        let mut late = hub.subscribe();
        let mut seen = Vec::new();
        while let Ok(e) = late.poll() {
            seen.push(e);
        }
        assert_eq!(seen, vec![ev("a"), ev("b"), ev("c")]);
        assert_eq!(late.poll(), Err(CursorState::Open));
        hub.close();
        assert_eq!(late.poll(), Err(CursorState::Closed));
        // The early cursor is unaffected by the late one's progress.
        assert_eq!(early.poll(), Ok(ev("b")));
        assert_eq!(early.delivered(), 2);
    }

    #[test]
    fn overflow_is_counted_not_silent() {
        let hub = Arc::new(EventHub::new(2));
        hub.event(&ev("a"));
        hub.event(&ev("b"));
        hub.event(&ev("shed"));
        assert_eq!(hub.dropped(), 1);
        assert_eq!(hub.len(), 2);
        let mut cur = hub.subscribe();
        assert_eq!(cur.poll(), Ok(ev("a")));
        assert_eq!(cur.dropped(), 1);
        // Through the trait, too (the engine's view).
        let sink: &dyn EventSink = &*hub;
        assert_eq!(sink.dropped(), 1);
    }

    #[test]
    fn concurrent_publishers_and_subscribers_agree() {
        let hub = Arc::new(EventHub::new(4096));
        std::thread::scope(|scope| {
            for t in 0..4 {
                let hub = Arc::clone(&hub);
                scope.spawn(move || {
                    for i in 0..100 {
                        hub.event(&ev(&format!("t{t}_{i}")));
                    }
                });
            }
            let hub = Arc::clone(&hub);
            scope.spawn(move || {
                let mut cur = hub.subscribe();
                let mut n = 0;
                while n < 400 {
                    match cur.poll() {
                        Ok(_) => n += 1,
                        Err(_) => std::thread::yield_now(),
                    }
                }
            });
        });
        hub.close();
        let mut cur = hub.subscribe();
        let mut n = 0;
        while let Ok(_e) = cur.poll() {
            n += 1;
        }
        assert_eq!(n, 400);
        assert_eq!(hub.dropped(), 0);
    }
}
