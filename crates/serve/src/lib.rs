//! # pcv-serve — resident verification-as-a-service
//!
//! Verification of a chip for parasitic-coupling violations has an
//! expensive fixed prelude — parse the netlist/SPEF, elaborate drivers
//! and characterize cells, partition the coupling graph — and a
//! comparatively cheap iterative tail: run, inspect, adjust thresholds,
//! run again. The batch flow pays the prelude on every invocation. This
//! crate keeps the elaborated chip **resident**: a long-lived localhost
//! daemon owns [`pcv_engine::ResidentChip`] sessions and serves runs,
//! live event streams, mid-run verdicts, and durable sign-off artifacts
//! over a minimal HTTP/1.1 + JSONL wire protocol.
//!
//! ## The API surface
//!
//! | Route | Meaning |
//! |---|---|
//! | `POST /sessions` | Load and elaborate a design once (DSP fixture or inline SPEF) |
//! | `GET /sessions/{id}` | Session state: `parsed → elaborated → ready → running → completed` |
//! | `POST /sessions/{id}/runs` | Queue a run with a per-run config overlay; 429 when the bounded queue is full |
//! | `GET /runs/{id}/events` | Chunked JSONL live event stream, ending in a `stream_trailer` with delivered/dropped counts |
//! | `GET /runs/{id}/verdicts?net=` | Per-net verdicts, including mid-run partials from the run's [`pcv_engine::VerdictSnapshot`] |
//! | `GET /runs/{id}/signoff` | The durable sign-off document — byte-identical to the offline batch flow |
//! | `GET /metrics` | Prometheus text exposition: HTTP/run/engine series from the daemon's [`Observatory`] |
//! | `GET /debug/flight` | The always-on flight recorder's ring of recent engine + HTTP observations |
//! | `GET /healthz` | Liveness + readiness: version, uptime, elaborating count, torn-ledger lines |
//! | `POST /shutdown` | Graceful drain: the in-flight run checkpoints via [`pcv_engine::StopFlag`] and stays resumable |
//!
//! Every failure is a typed [`ApiError`] with exactly one HTTP status;
//! engine-side contention ([`pcv_xtalk::XtalkError::Busy`]) surfaces as
//! 429, not a generic 500 — and every 429 carries a `Retry-After` header
//! the bundled client honors with bounded backoff.
//!
//! ## Observability (inert by construction)
//!
//! Each HTTP request is minted a correlation ID threaded through the
//! response body, the run it queues, the event-stream trailer, the daemon
//! run ledger, and the JSONL access log — one grep ties a client call to
//! everything it caused. A stall watchdog (opt-in via
//! [`ServerConfig::stall_timeout_ms`]) warns — never kills — when an
//! in-flight run stops publishing verdicts. None of it feeds back into
//! verification: sign-off artifacts are byte-identical with the
//! observatory enabled or disabled.
//!
//! ## One verdict object
//!
//! A verdict has one JSON rendering, [`pcv_xtalk::NetVerdict::write_members`]:
//! the object inside a sign-off document's `chip.verdicts`, the object
//! `GET /runs/{id}/verdicts` lists, and — with `"kind":"verdict"` added —
//! the line a [shard worker](worker) streams to its
//! [coordinator](shard), which reads it back with the strict
//! [`pcv_xtalk::NetVerdict::from_json`]. A client can byte-compare a
//! served verdict against a sign-off.
//!
//! ## Determinism contract
//!
//! A served run and an offline [`pcv_engine::Engine::run`] of the
//! same design with the same analysis knobs produce **byte-identical**
//! sign-off documents: the engine's config fingerprint covers only
//! result-affecting knobs, and worker count, event sinks and cache
//! placement are all outside it. The load-test suite and the CI
//! `serve-smoke` job both enforce this with byte comparisons.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod client;
pub mod error;
pub mod http;
pub mod observe;
pub mod server;
pub mod session;
pub mod shard;
pub mod worker;

mod http_fuzz;
mod overlay;

pub use client::{Client, Response};
pub use error::ApiError;
pub use observe::{check_access_log, check_exposition, Observatory};
pub use overlay::Thresholds;
pub use server::{Server, ServerConfig};
pub use session::{DesignSpec, Session, SessionState, VictimSel};
pub use shard::{Coordinator, CoordinatorConfig, ShardRunOutcome, ShardStats};
