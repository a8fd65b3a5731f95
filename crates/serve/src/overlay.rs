//! The threshold overlay: the per-run overrides that change verdict bytes.
//!
//! `warn_frac`, `fail_frac` and `check_receivers` enter the engine's
//! `config_hash`, so every process that takes part in one run — the daemon
//! that plans and merges it, the coordinator that fans it out, each shard
//! worker — must resolve them to the same [`EngineConfig`] or their cluster
//! fingerprints stop matching and shard results are discarded at merge.
//! They therefore travel as one type, [`Thresholds`], with one strict JSON
//! reader (`read_member`: the `POST …/runs` body and the worker config
//! line alike), one writer (`write_members`) and one resolution
//! (`engine_config`).

use crate::error::ApiError;
use pcv_engine::EngineConfig;
use pcv_obs::json::{Obj, Value};
use std::path::PathBuf;

/// Overrides of the engine's result-affecting thresholds; `None` keeps the
/// [`EngineConfig`] default.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Thresholds {
    /// Warning threshold (fraction of Vdd).
    pub warn_frac: Option<f64>,
    /// Failure threshold (fraction of Vdd).
    pub fail_frac: Option<f64>,
    /// Run receiver-propagation checks on flagged victims.
    pub check_receivers: Option<bool>,
}

impl Thresholds {
    /// Consume one `key: value` member if it names a threshold;
    /// `Ok(false)` means the key is not ours (the caller decides whether
    /// that is an error).
    ///
    /// # Errors
    ///
    /// [`ApiError::BadRequest`] for a threshold key with a value of the
    /// wrong JSON type — never a silent default.
    pub(crate) fn read_member(&mut self, key: &str, value: &Value) -> Result<bool, ApiError> {
        match key {
            "warn_frac" => self.warn_frac = Some(float(value, key)?),
            "fail_frac" => self.fail_frac = Some(float(value, key)?),
            "check_receivers" => self.check_receivers = Some(boolean(value, key)?),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Write a member into an open JSON object for every override that is
    /// set — the members `read_member` reads back to the same bits.
    pub(crate) fn write_members(&self, o: &mut Obj<'_>) {
        if let Some(w) = self.warn_frac {
            o.f64("warn_frac", w);
        }
        if let Some(f) = self.fail_frac {
            o.f64("fail_frac", f);
        }
        if let Some(c) = self.check_receivers {
            o.raw("check_receivers", c);
        }
    }

    /// The engine configuration of a run under these overrides, on
    /// `workers` threads over the cache at `cache_path` — everything else
    /// the default, in the daemon, the coordinator and a worker alike.
    pub(crate) fn engine_config(&self, workers: usize, cache_path: PathBuf) -> EngineConfig {
        let d = EngineConfig::default();
        EngineConfig {
            workers,
            cache_path: Some(cache_path),
            warn_frac: self.warn_frac.unwrap_or(d.warn_frac),
            fail_frac: self.fail_frac.unwrap_or(d.fail_frac),
            check_receivers: self.check_receivers.unwrap_or(d.check_receivers),
            ..d
        }
    }
}

/// An optional member of `obj`, read strictly: absent is `None`, present
/// with the wrong type is an error — never a silent default.
pub(crate) fn member<T>(
    obj: &Value,
    key: &str,
    read: fn(&Value, &str) -> Result<T, ApiError>,
) -> Result<Option<T>, ApiError> {
    obj.get(key).map(|v| read(v, key)).transpose()
}

pub(crate) fn float(v: &Value, key: &str) -> Result<f64, ApiError> {
    v.as_f64().ok_or_else(|| ApiError::BadRequest(format!("{key} must be a number")))
}

pub(crate) fn uint(v: &Value, key: &str) -> Result<usize, ApiError> {
    v.as_u64()
        .map(|n| n as usize)
        .ok_or_else(|| ApiError::BadRequest(format!("{key} must be a non-negative integer")))
}

pub(crate) fn boolean(v: &Value, key: &str) -> Result<bool, ApiError> {
    match v {
        Value::Bool(b) => Ok(*b),
        _ => Err(ApiError::BadRequest(format!("{key} must be a boolean"))),
    }
}
