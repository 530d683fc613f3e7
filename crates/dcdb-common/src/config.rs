//! Configuration primitives shared by Wintermute plugins.
//!
//! DCDB configures every plugin from its own configuration file; this
//! module provides [`KvConfig`], a loosely-typed key-value view used by
//! plugin configurators for their plugin-specific options (paper §V-C.2).

use crate::error::DcdbError;
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::collections::BTreeMap;

/// Loosely-typed configuration block for plugin-specific options.
///
/// Backed by JSON values; accessors return typed results with
/// config-flavoured errors so plugin configurators produce uniform
/// diagnostics.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
#[serde(transparent)]
pub struct KvConfig(pub BTreeMap<String, Value>);

impl KvConfig {
    /// Empty configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Parses a JSON object string into a config block.
    pub fn from_json(s: &str) -> Result<Self, DcdbError> {
        serde_json::from_str(s).map_err(|e| DcdbError::Config(format!("bad JSON config: {e}")))
    }

    /// Builder-style insertion.
    pub fn with(mut self, key: &str, value: impl Into<Value>) -> Self {
        self.0.insert(key.to_string(), value.into());
        self
    }

    /// Required string value.
    pub fn str(&self, key: &str) -> Result<&str, DcdbError> {
        self.0
            .get(key)
            .and_then(Value::as_str)
            .ok_or_else(|| DcdbError::Config(format!("missing or non-string key {key:?}")))
    }

    /// Optional string value.
    pub fn str_opt(&self, key: &str) -> Option<&str> {
        self.0.get(key).and_then(Value::as_str)
    }

    /// Required unsigned integer value.
    pub fn u64(&self, key: &str) -> Result<u64, DcdbError> {
        self.0
            .get(key)
            .and_then(Value::as_u64)
            .ok_or_else(|| DcdbError::Config(format!("missing or non-integer key {key:?}")))
    }

    /// Unsigned integer with a default.
    pub fn u64_or(&self, key: &str, default: u64) -> u64 {
        self.0.get(key).and_then(Value::as_u64).unwrap_or(default)
    }

    /// Required float value (integers are accepted and widened).
    pub fn f64(&self, key: &str) -> Result<f64, DcdbError> {
        self.0
            .get(key)
            .and_then(Value::as_f64)
            .ok_or_else(|| DcdbError::Config(format!("missing or non-numeric key {key:?}")))
    }

    /// Float with a default.
    pub fn f64_or(&self, key: &str, default: f64) -> f64 {
        self.0.get(key).and_then(Value::as_f64).unwrap_or(default)
    }

    /// Boolean with a default.
    pub fn bool_or(&self, key: &str, default: bool) -> bool {
        self.0.get(key).and_then(Value::as_bool).unwrap_or(default)
    }

    /// Required array of strings.
    pub fn str_list(&self, key: &str) -> Result<Vec<String>, DcdbError> {
        let arr = self
            .0
            .get(key)
            .and_then(Value::as_array)
            .ok_or_else(|| DcdbError::Config(format!("missing or non-array key {key:?}")))?;
        arr.iter()
            .map(|v| {
                v.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| DcdbError::Config(format!("non-string element in {key:?}")))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kv_typed_accessors() {
        let cfg = KvConfig::from_json(
            r#"{"name": "regressor", "window_ms": 5000, "threshold": 0.001,
                "parallel": true, "inputs": ["power", "temp"]}"#,
        )
        .unwrap();
        assert_eq!(cfg.str("name").unwrap(), "regressor");
        assert_eq!(cfg.u64("window_ms").unwrap(), 5000);
        assert!((cfg.f64("threshold").unwrap() - 0.001).abs() < 1e-12);
        assert!(cfg.bool_or("parallel", false));
        assert_eq!(cfg.str_list("inputs").unwrap(), vec!["power", "temp"]);
    }

    #[test]
    fn kv_errors_name_the_key() {
        let cfg = KvConfig::new().with("n", 3);
        let err = cfg.str("n").unwrap_err().to_string();
        assert!(err.contains("\"n\""), "{err}");
        assert!(cfg.u64("missing").is_err());
        assert!(cfg.f64("missing").is_err());
        assert!(cfg.str_list("n").is_err());
    }

    #[test]
    fn kv_defaults() {
        let cfg = KvConfig::new().with("x", 7);
        assert_eq!(cfg.u64_or("x", 1), 7);
        assert_eq!(cfg.u64_or("y", 1), 1);
        assert_eq!(cfg.f64_or("x", 0.5), 7.0);
        assert_eq!(cfg.f64_or("z", 0.5), 0.5);
        assert!(!cfg.bool_or("b", false));
    }

    #[test]
    fn kv_int_widens_to_float() {
        let cfg = KvConfig::new().with("k", 3);
        assert_eq!(cfg.f64("k").unwrap(), 3.0);
    }

    #[test]
    fn kv_rejects_bad_json() {
        assert!(KvConfig::from_json("not json").is_err());
        assert!(KvConfig::from_json("[1,2]").is_err());
    }

    #[test]
    fn kv_heterogeneous_list_rejected() {
        let cfg = KvConfig::from_json(r#"{"xs": ["a", 1]}"#).unwrap();
        assert!(cfg.str_list("xs").is_err());
    }
}
