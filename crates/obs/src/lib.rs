//! Observability for the chip-verification engine: streaming lifecycle
//! events, live progress, memory telemetry, and a cross-run ledger.
//!
//! The paper's pitch is making chip-level coupling verification *tractable
//! at scale* — which is only a claim you can stand behind if every long
//! sign-off run is observable while it happens and comparable after it
//! finishes. This crate is the std-only, zero-dependency layer that
//! provides exactly that, strictly outside the deterministic report path:
//!
//! - **Events** ([`EngineEvent`], [`EventSink`]) — structured lifecycle
//!   events the engine emits from its worker threads: run started, cluster
//!   started/finished/retried/degraded, cache hits, worker idle. Sinks are
//!   pluggable; event *counts* per cluster-scoped kind are a pure function
//!   of the input, independent of worker count and scheduling.
//! - **Fan-out** ([`EventHub`]) — a bounded archive with any number of
//!   replaying subscribers ([`HubCursor`]), for serving one run's event
//!   stream to several clients that may join mid-run; overflow is shed
//!   and counted, never backpressure.
//! - **Progress** ([`StderrStatusLine`], [`ProgressSnapshot`]) —
//!   throughput, EWMA-based ETA, per-stage completion, and a live
//!   single-line stderr status display that stays off when asked to be
//!   quiet or when stderr is not a TTY.
//! - **Memory** ([`TrackingAlloc`], [`mem`]) — an instrumented global
//!   allocator (relaxed atomics) recording current/peak bytes and
//!   allocation counts, globally and per thread; the per-thread counters
//!   are [`pcv_trace::mem`]'s, so every span carries its allocation delta.
//! - **Ledger** ([`ledger`]) — one append-only JSONL record per engine run
//!   (fingerprints, stage wall times, counters, peak memory), written next
//!   to the result cache, parseable back with the in-tree [`json`] reader
//!   (a re-export of [`pcv_trace::json`], the workspace's one JSON module).
//! - **Metrics** ([`Registry`]) — a process-lifetime store of counters,
//!   gauges, and fixed-bucket histograms rendered as deterministic
//!   Prometheus text exposition, with [`pcv_trace`] traces folded in.
//! - **Flight recorder** ([`FlightRecorder`]) — an always-on bounded ring
//!   of the most recent engine/HTTP observations, dumpable as JSON on
//!   panic, signal, or watchdog trip.
//!
//! Nothing in this crate feeds back into verification results: reports,
//! caches, and sign-off documents are byte-identical with observability on
//! or off.

#![deny(missing_docs)]

pub mod alloc;
pub mod event;
pub mod fanout;
pub mod flight;
pub mod ledger;
pub mod metrics;
pub mod progress;

pub use alloc::{mem, MemSnapshot, TrackingAlloc};
pub use event::{CountingSink, EngineEvent, EventSink, TeeSink};
pub use fanout::{CursorState, EventHub, HubCursor};
pub use flight::{FlightEntry, FlightRecorder};
pub use ledger::RunRecord;
pub use metrics::Registry;
pub use pcv_trace::json;
pub use progress::{ProgressSnapshot, StderrStatusLine};
