//! The service's typed error surface and its one HTTP status mapping.
//!
//! Every handler returns [`ApiError`] on failure, and exactly one place —
//! [`ApiError::status`] — decides the wire status. Engine and analysis
//! failures arrive as [`XtalkError`] and convert through `From`, so the
//! typed run-lock contention ([`XtalkError::Busy`]) and malformed-request
//! ([`XtalkError::BadRequest`]) variants keep their meaning on the wire
//! (429 and 400) instead of collapsing into a generic 500.

use pcv_trace::json;
use pcv_xtalk::XtalkError;
use std::fmt;

/// A request-level failure, one variant per HTTP status the service emits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApiError {
    /// 400 — the request was malformed or referenced something that does
    /// not exist in the targeted session (bad JSON, unknown field, a net
    /// that is not a victim).
    BadRequest(String),
    /// 404 — no such route, session, run, or artifact.
    NotFound(String),
    /// 409 — the resource exists but is not in a state the request can be
    /// served from (sign-off fetch of an unfinished run).
    Conflict(String),
    /// 429 — the service cannot take more work right now: the bounded run
    /// queue is full, or the engine's advisory run lock is held.
    Busy(String),
    /// 500 — the run itself failed in a way the client cannot repair.
    Internal(String),
    /// 504 — a sharded run blew through its coordinator-side deadline;
    /// the workers were killed and the run failed with this typed error
    /// instead of leaving the client on a hung stream.
    Timeout(String),
}

impl ApiError {
    /// The HTTP status code, reason phrase, and stable machine-readable
    /// error code for this failure.
    pub fn status(&self) -> (u16, &'static str, &'static str) {
        match self {
            ApiError::BadRequest(_) => (400, "Bad Request", "bad_request"),
            ApiError::NotFound(_) => (404, "Not Found", "not_found"),
            ApiError::Conflict(_) => (409, "Conflict", "conflict"),
            ApiError::Busy(_) => (429, "Too Many Requests", "busy"),
            ApiError::Internal(_) => (500, "Internal Server Error", "internal"),
            ApiError::Timeout(_) => (504, "Gateway Timeout", "deadline_exceeded"),
        }
    }

    /// The human-readable detail message.
    pub fn message(&self) -> &str {
        match self {
            ApiError::BadRequest(m)
            | ApiError::NotFound(m)
            | ApiError::Conflict(m)
            | ApiError::Busy(m)
            | ApiError::Internal(m)
            | ApiError::Timeout(m) => m,
        }
    }

    /// The JSON body every error response carries:
    /// `{"error":"<code>","message":"<detail>"}`.
    pub fn to_json(&self) -> String {
        let (_, _, code) = self.status();
        json::object(|o| {
            o.str("error", code).str("message", self.message());
        })
    }
}

impl fmt::Display for ApiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (status, _, code) = self.status();
        write!(f, "{status} {code}: {}", self.message())
    }
}

impl std::error::Error for ApiError {}

impl From<XtalkError> for ApiError {
    fn from(e: XtalkError) -> Self {
        match e {
            // The engine's typed contention error IS the service's 429:
            // another writer owns the session's cache directory right now.
            XtalkError::Busy { path, pid } => {
                ApiError::Busy(format!("run lock {path} held by live pid {pid}"))
            }
            XtalkError::BadRequest { what } => ApiError::BadRequest(what),
            XtalkError::InvalidConfig { what } => ApiError::BadRequest(what.to_owned()),
            other => ApiError::Internal(other.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_status_per_variant() {
        assert_eq!(ApiError::BadRequest("x".into()).status().0, 400);
        assert_eq!(ApiError::NotFound("x".into()).status().0, 404);
        assert_eq!(ApiError::Conflict("x".into()).status().0, 409);
        assert_eq!(ApiError::Busy("x".into()).status().0, 429);
        assert_eq!(ApiError::Internal("x".into()).status().0, 500);
        assert_eq!(ApiError::Timeout("x".into()).status().0, 504);
        assert!(ApiError::Timeout("x".into()).to_json().contains("deadline_exceeded"));
    }

    #[test]
    fn engine_busy_maps_to_429_not_500() {
        let e = ApiError::from(XtalkError::Busy { path: "/tmp/c.lock".into(), pid: 77 });
        assert_eq!(e.status().0, 429);
        assert!(e.message().contains("77"));
        assert!(e.to_json().contains("\"error\":\"busy\""));
    }

    #[test]
    fn typed_bad_request_maps_to_400() {
        let e = ApiError::from(XtalkError::BadRequest { what: "no such net \"b9\"".into() });
        assert_eq!(e.status().0, 400);
        assert!(e.to_json().contains("\\\"b9\\\""), "message is escaped: {}", e.to_json());
        let e = ApiError::from(XtalkError::InvalidConfig { what: "mixed thresholds" });
        assert_eq!(e.status().0, 400);
    }

    #[test]
    fn other_engine_errors_are_internal() {
        let e = ApiError::from(XtalkError::Measurement { what: "crossing" });
        assert_eq!(e.status().0, 500);
        assert!(e.to_string().contains("crossing"));
    }
}
