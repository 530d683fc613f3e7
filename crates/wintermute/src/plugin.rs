//! Operator plugins and their configurators (paper §V-C.2).
//!
//! A plugin bundles an operator implementation with a *configurator*
//! that reads the plugin's configuration block and instantiates
//! operators together with their units. The [`UnitMode`] decides the
//! instantiation shape: sequential configs yield one operator holding
//! every unit; parallel configs yield one operator per unit.

use crate::operator::{Operator, OperatorMode, UnitMode};
use crate::tree::SensorNavigator;
use crate::unit::{resolve_units, Resolution, Unit, UnitTemplate};
use dcdb_common::config::{KvConfig, SamplingConfig};
use dcdb_common::error::{DcdbError, Result};
use serde::{Deserialize, Serialize};

/// Configuration of one plugin instance, as read from a Wintermute
/// configuration file.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PluginConfig {
    /// Instance name (unique per manager).
    pub name: String,
    /// Plugin kind, resolved against the plugin registry
    /// (e.g. `"regressor"`, `"perfmetrics"`).
    pub kind: String,
    /// Online vs on-demand operation.
    #[serde(flatten)]
    pub mode: OperatorMode,
    /// Sequential vs parallel unit management.
    #[serde(default)]
    pub unit_mode: UnitMode,
    /// Sampling/caching parameters (interval reused as the online
    /// computation interval when `mode` carries none).
    #[serde(default)]
    pub sampling: SamplingConfig,
    /// Input pattern expressions (paper §III-C syntax).
    #[serde(default)]
    pub inputs: Vec<String>,
    /// Output pattern expressions; the first defines the unit domain.
    #[serde(default)]
    pub outputs: Vec<String>,
    /// Plugin-specific options.
    #[serde(default)]
    pub options: KvConfig,
}

impl PluginConfig {
    /// A minimal online config (tests and examples).
    pub fn online(name: &str, kind: &str, interval_ms: u64) -> PluginConfig {
        PluginConfig {
            name: name.to_string(),
            kind: kind.to_string(),
            mode: OperatorMode::Online { interval_ms },
            unit_mode: UnitMode::Sequential,
            sampling: SamplingConfig::default(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            options: KvConfig::new(),
        }
    }

    /// Builder: set pattern expressions.
    pub fn with_patterns(mut self, inputs: &[&str], outputs: &[&str]) -> PluginConfig {
        self.inputs = inputs.iter().map(|s| s.to_string()).collect();
        self.outputs = outputs.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Builder: set unit mode.
    pub fn with_unit_mode(mut self, unit_mode: UnitMode) -> PluginConfig {
        self.unit_mode = unit_mode;
        self
    }

    /// Builder: set a plugin-specific option.
    pub fn with_option(mut self, key: &str, value: impl Into<serde_json::Value>) -> PluginConfig {
        self.options.0.insert(key.to_string(), value.into());
        self
    }

    /// The computation interval for online instances.
    pub fn interval_ms(&self) -> Option<u64> {
        match self.mode {
            OperatorMode::Online { interval_ms } => Some(interval_ms),
            OperatorMode::OnDemand => None,
        }
    }

    /// Parses the unit template from the pattern strings.
    pub fn template(&self) -> Result<UnitTemplate> {
        let inputs: Vec<&str> = self.inputs.iter().map(String::as_str).collect();
        let outputs: Vec<&str> = self.outputs.iter().map(String::as_str).collect();
        UnitTemplate::parse(&inputs, &outputs)
    }

    /// Resolves the template against a navigator.
    pub fn resolve(&self, nav: &SensorNavigator) -> Result<Resolution> {
        resolve_units(&self.template()?, nav)
    }
}

/// A whole Wintermute configuration file: the plugin instances one
/// Pusher or Collect Agent loads at startup.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct WintermuteConfig {
    /// Plugin instances to load, in order.
    pub plugins: Vec<PluginConfig>,
}

impl WintermuteConfig {
    /// Parses a JSON configuration document.
    pub fn from_json(s: &str) -> Result<WintermuteConfig> {
        serde_json::from_str(s)
            .map_err(|e| DcdbError::Config(format!("bad Wintermute config: {e}")))
    }
}

/// The plugin interface the Operator Manager loads: a factory producing
/// configured operators.
pub trait OperatorPlugin: Send + Sync {
    /// The plugin kind this factory builds (matches
    /// [`PluginConfig::kind`]).
    fn kind(&self) -> &str;

    /// Reads the config, resolves units against the sensor tree and
    /// instantiates operators.
    fn configure(
        &self,
        config: &PluginConfig,
        nav: &SensorNavigator,
    ) -> Result<Vec<Box<dyn Operator>>>;
}

/// Splits resolved units across operator instances according to the
/// unit mode and invokes `make` for each instance — the shared
/// scaffolding every concrete configurator uses.
///
/// `make(instance_name, units)` builds one operator.
pub fn instantiate<F>(
    config: &PluginConfig,
    units: Vec<Unit>,
    mut make: F,
) -> Result<Vec<Box<dyn Operator>>>
where
    F: FnMut(String, Vec<Unit>) -> Result<Box<dyn Operator>>,
{
    if units.is_empty() {
        return Err(DcdbError::Config(format!(
            "plugin {:?}: no units could be resolved",
            config.name
        )));
    }
    match config.unit_mode {
        UnitMode::Sequential => Ok(vec![make(config.name.clone(), units)?]),
        UnitMode::Parallel => units
            .into_iter()
            .enumerate()
            .map(|(i, u)| make(format!("{}#{}", config.name, i), vec![u]))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::{ComputeContext, Output};
    use dcdb_common::topic::Topic;

    fn t(s: &str) -> Topic {
        Topic::parse(s).unwrap()
    }

    struct NullOperator {
        name: String,
        units: Vec<Unit>,
    }
    impl Operator for NullOperator {
        fn name(&self) -> &str {
            &self.name
        }
        fn units(&self) -> &[Unit] {
            &self.units
        }
        fn compute(&mut self, _i: usize, _ctx: &ComputeContext<'_>) -> Result<Vec<Output>> {
            Ok(Vec::new())
        }
    }

    fn units(n: usize) -> Vec<Unit> {
        (0..n)
            .map(|i| {
                Unit::new(
                    t(&format!("/n{i}")),
                    vec![t(&format!("/n{i}/in"))],
                    vec![t(&format!("/n{i}/out"))],
                )
            })
            .collect()
    }

    #[test]
    fn sequential_yields_one_operator() {
        let cfg = PluginConfig::online("p", "null", 1000);
        let ops = instantiate(&cfg, units(5), |name, us| {
            Ok(Box::new(NullOperator { name, units: us }) as Box<dyn Operator>)
        })
        .unwrap();
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].units().len(), 5);
        assert_eq!(ops[0].name(), "p");
    }

    #[test]
    fn parallel_yields_one_operator_per_unit() {
        let cfg = PluginConfig::online("p", "null", 1000).with_unit_mode(UnitMode::Parallel);
        let ops = instantiate(&cfg, units(4), |name, us| {
            Ok(Box::new(NullOperator { name, units: us }) as Box<dyn Operator>)
        })
        .unwrap();
        assert_eq!(ops.len(), 4);
        assert!(ops.iter().all(|o| o.units().len() == 1));
        assert_eq!(ops[3].name(), "p#3");
    }

    #[test]
    fn zero_units_is_an_error() {
        let cfg = PluginConfig::online("p", "null", 1000);
        let err = match instantiate(&cfg, vec![], |name, us| {
            Ok(Box::new(NullOperator { name, units: us }) as Box<dyn Operator>)
        }) {
            Err(e) => e,
            Ok(_) => panic!("expected an error"),
        };
        assert!(err.to_string().contains("no units"));
    }

    #[test]
    fn config_serde_round_trip() {
        let json = r#"{
            "name": "power-regressor",
            "kind": "regressor",
            "mode": "online",
            "interval_ms": 250,
            "unit_mode": "parallel",
            "inputs": ["<bottomup, filter cpu>cycles"],
            "outputs": ["<bottomup-1>power-pred"],
            "options": {"window_ms": 5000}
        }"#;
        let cfg: PluginConfig = serde_json::from_str(json).unwrap();
        assert_eq!(cfg.name, "power-regressor");
        assert_eq!(cfg.interval_ms(), Some(250));
        assert_eq!(cfg.unit_mode, UnitMode::Parallel);
        assert_eq!(cfg.options.u64("window_ms").unwrap(), 5000);
        let template = cfg.template().unwrap();
        assert_eq!(template.inputs.len(), 1);
        // Round-trip through serde.
        let back: PluginConfig =
            serde_json::from_str(&serde_json::to_string(&cfg).unwrap()).unwrap();
        assert_eq!(back.name, cfg.name);
        assert_eq!(back.interval_ms(), cfg.interval_ms());
    }

    #[test]
    fn on_demand_has_no_interval() {
        let json = r#"{"name": "x", "kind": "y", "mode": "on_demand"}"#;
        let cfg: PluginConfig = serde_json::from_str(json).unwrap();
        assert_eq!(cfg.interval_ms(), None);
    }

    #[test]
    fn builder_helpers() {
        let cfg = PluginConfig::online("a", "b", 100)
            .with_patterns(&["<topdown>in"], &["<topdown>out"])
            .with_option("k", 3);
        assert_eq!(cfg.inputs, vec!["<topdown>in"]);
        assert_eq!(cfg.options.u64("k").unwrap(), 3);
        assert!(cfg.template().is_ok());
    }
}
