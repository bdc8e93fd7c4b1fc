//! The device-backend registry: names, parameter schemas, and strict
//! `name[:key=val,...]` specs.
//!
//! Every backend registers a [`BackendSchema`] (parameter names with
//! defaults and declared ranges) plus a builder. [`Registry::create`]
//! validates overrides against the schema *before* construction, so a
//! typo'd parameter or an out-of-range value is rejected with the full
//! registry listing instead of silently producing a nonsense device.
//!
//! # Examples
//!
//! ```
//! use cichar_dut::{DeviceSpec, Registry};
//!
//! let registry = Registry::builtin();
//! let spec: DeviceSpec = "netlist:levels=16,jitter=0.2".parse().unwrap();
//! let device = registry.create_from_spec(&spec).unwrap();
//! assert_eq!(device.name(), "netlist");
//! assert!(device.descriptor().contains("levels=16"));
//!
//! // Unknown backends and out-of-range values are rejected.
//! assert!(registry.create("dram", &[]).is_err());
//! assert!(registry.create("netlist", &[("levels".into(), 0.0)]).is_err());
//! ```

use crate::backend::Device;
use crate::logic::LogicDevice;
use crate::netlist::NetlistDevice;
use crate::device::MemoryDevice;
use crate::process::Die;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// One tunable structural parameter of a backend.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParamSpec {
    /// The `key` accepted in `--device name:key=val`.
    pub name: String,
    /// Value used when the spec does not override it.
    pub default: f64,
    /// Smallest accepted value (inclusive).
    pub min: f64,
    /// Largest accepted value (inclusive).
    pub max: f64,
    /// One-line description for the registry listing.
    pub doc: String,
}

/// A backend's public contract: name, documentation, stress axes and
/// parameter schema. Serializable so characterization artifacts can
/// record exactly which device family produced them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BackendSchema {
    /// Registry name (`"memory"`, `"netlist"`, `"logic"`, …).
    pub name: String,
    /// One-line description for the registry listing.
    pub doc: String,
    /// The stress axes the backend's breakdown model distinguishes.
    pub stress_axes: Vec<String>,
    /// Tunable parameters in canonical order.
    pub params: Vec<ParamSpec>,
}

impl BackendSchema {
    /// Resolves overrides against the schema: every key must name a
    /// declared parameter and every value must sit inside its declared
    /// range. Returns the full effective parameter vector in schema
    /// order.
    pub fn resolve(&self, overrides: &[(String, f64)]) -> Result<Vec<f64>, String> {
        for (key, value) in overrides {
            let spec = self
                .params
                .iter()
                .find(|p| p.name == *key)
                .ok_or_else(|| {
                    format!("backend '{}' has no parameter '{key}'", self.name)
                })?;
            if !value.is_finite() || *value < spec.min || *value > spec.max {
                return Err(format!(
                    "parameter '{key}'={value} out of declared range [{}, {}] for backend '{}'",
                    spec.min, spec.max, self.name
                ));
            }
        }
        Ok(self
            .params
            .iter()
            .map(|p| {
                overrides
                    .iter()
                    .rev()
                    .find(|(k, _)| *k == p.name)
                    .map_or(p.default, |(_, v)| *v)
            })
            .collect())
    }
}

/// A parsed, not-yet-constructed device selection: backend name plus raw
/// `key=val` overrides, exactly as given on a command line.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Backend name.
    pub name: String,
    /// Overrides in the order written.
    pub overrides: Vec<(String, f64)>,
}

impl DeviceSpec {
    /// The default selection: the `memory` backend with no overrides.
    pub fn default_backend() -> Self {
        Self {
            name: "memory".to_string(),
            overrides: Vec::new(),
        }
    }

    /// Whether this is the default selection (so callers can keep
    /// byte-identical default artifacts by omitting device metadata).
    pub fn is_default(&self) -> bool {
        self.name == "memory" && self.overrides.is_empty()
    }
}

impl FromStr for DeviceSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (name, rest) = match s.split_once(':') {
            Some((name, rest)) => (name, Some(rest)),
            None => (s, None),
        };
        if name.is_empty() {
            return Err("device spec has an empty backend name".to_string());
        }
        let mut overrides = Vec::new();
        if let Some(rest) = rest {
            for pair in rest.split(',') {
                let (key, value) = pair.split_once('=').ok_or_else(|| {
                    format!("malformed device parameter '{pair}' (expected key=val)")
                })?;
                if key.is_empty() {
                    return Err(format!("malformed device parameter '{pair}' (empty key)"));
                }
                let value: f64 = value.parse().map_err(|_| {
                    format!("malformed device parameter '{pair}' (value is not a number)")
                })?;
                overrides.push((key.to_string(), value));
            }
        }
        Ok(Self {
            name: name.to_string(),
            overrides,
        })
    }
}

impl fmt::Display for DeviceSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)?;
        for (i, (k, v)) in self.overrides.iter().enumerate() {
            write!(f, "{}{k}={v}", if i == 0 { ":" } else { "," })?;
        }
        Ok(())
    }
}

/// A registered backend: its schema plus a builder from resolved
/// parameter values (in schema order).
struct Entry {
    schema: BackendSchema,
    build: fn(&[f64]) -> Device,
}

/// The backend registry.
pub struct Registry {
    entries: Vec<Entry>,
}

fn spec(name: &str, default: f64, min: f64, max: f64, doc: &str) -> ParamSpec {
    ParamSpec {
        name: name.to_string(),
        default,
        min,
        max,
        doc: doc.to_string(),
    }
}

fn build_memory(_: &[f64]) -> Device {
    MemoryDevice::nominal().into()
}

fn build_netlist(p: &[f64]) -> Device {
    NetlistDevice::new(
        Die::nominal(),
        p[0].round() as u32,
        p[1].round() as u32,
        p[2].round() as u64,
        p[3],
        p[4],
    )
    .into()
}

fn build_logic(p: &[f64]) -> Device {
    LogicDevice::new(Die::nominal(), p[0].round() as u32, p[1], p[2], p[3]).into()
}

impl Registry {
    /// An empty registry (for tests that exercise registration itself).
    pub fn empty() -> Self {
        Self { entries: Vec::new() }
    }

    /// The registry with all built-in backends: `memory`, `netlist`,
    /// `logic`.
    pub fn builtin() -> Self {
        let mut registry = Self::empty();
        registry
            .register(
                BackendSchema {
                    name: "memory".to_string(),
                    doc: "calibrated 140 nm memory behavioral model (the paper's DUT)"
                        .to_string(),
                    stress_axes: vec![
                        "turnaround".to_string(),
                        "sso".to_string(),
                        "address".to_string(),
                        "row".to_string(),
                        "resonance".to_string(),
                        "interaction".to_string(),
                    ],
                    params: Vec::new(),
                },
                build_memory,
            )
            .expect("builtin memory registers once");
        registry
            .register(
                BackendSchema {
                    name: "netlist".to_string(),
                    doc: "gate-level timing netlist; pass/fail = strobe vs critical-path delay"
                        .to_string(),
                    stress_axes: vec![
                        "crosstalk".to_string(),
                        "turnaround".to_string(),
                        "resonance".to_string(),
                    ],
                    params: vec![
                        spec("levels", 12.0, 2.0, 64.0, "logic depth of the synthesized DAG"),
                        spec("width", 8.0, 1.0, 64.0, "gates per level"),
                        spec("seed", 7.0, 0.0, 4294967295.0, "synthesis seed"),
                        spec("jitter", 0.15, 0.0, 0.5, "fractional per-gate delay spread"),
                        spec("strobe_budget", 38.0, 10.0, 80.0, "capture window (ns)"),
                    ],
                },
                build_netlist,
            )
            .expect("builtin netlist registers once");
        registry
            .register(
                BackendSchema {
                    name: "logic".to_string(),
                    doc: "pipelined logic core; quadratic IR-droop stress, threshold vdd_min"
                        .to_string(),
                    stress_axes: vec![
                        "ir_droop".to_string(),
                        "turnaround_resonance".to_string(),
                        "toggle".to_string(),
                    ],
                    params: vec![
                        spec("depth", 9.0, 2.0, 40.0, "pipeline stages"),
                        spec("stage_ns", 0.90, 0.2, 5.0, "latch-to-latch delay (ns)"),
                        spec("ir_gain", 2.4, 0.0, 10.0, "quadratic IR-droop stress gain"),
                        spec("vth", 0.62, 0.3, 1.0, "device threshold (V)"),
                    ],
                },
                build_logic,
            )
            .expect("builtin logic registers once");
        registry
    }

    /// Registers a backend. Duplicate names are rejected: a registry with
    /// two owners for one name could silently change what a saved spec
    /// means.
    pub fn register(&mut self, schema: BackendSchema, build: fn(&[f64]) -> Device) -> Result<(), String> {
        if self.entries.iter().any(|e| e.schema.name == schema.name) {
            return Err(format!(
                "backend '{}' is already registered",
                schema.name
            ));
        }
        self.entries.push(Entry { schema, build });
        Ok(())
    }

    /// Registered backend names, in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|e| e.schema.name.as_str()).collect()
    }

    /// The schema of one backend.
    pub fn schema(&self, name: &str) -> Option<&BackendSchema> {
        self.entries
            .iter()
            .find(|e| e.schema.name == name)
            .map(|e| &e.schema)
    }

    /// All schemas, in registration order.
    pub fn schemas(&self) -> Vec<&BackendSchema> {
        self.entries.iter().map(|e| &e.schema).collect()
    }

    /// Creates a device: validates `overrides` against the backend's
    /// schema, then builds on the nominal die. Campaign layers re-die the
    /// prototype via [`Device::for_die`] / [`Device::sample_die`].
    pub fn create(&self, name: &str, overrides: &[(String, f64)]) -> Result<Device, String> {
        let entry = self
            .entries
            .iter()
            .find(|e| e.schema.name == name)
            .ok_or_else(|| format!("unknown device backend '{name}'"))?;
        let resolved = entry.schema.resolve(overrides)?;
        Ok((entry.build)(&resolved))
    }

    /// [`Self::create`] from a parsed [`DeviceSpec`].
    pub fn create_from_spec(&self, spec: &DeviceSpec) -> Result<Device, String> {
        self.create(&spec.name, &spec.overrides)
    }

    /// A human-readable listing of every registered backend and its
    /// parameter schema — what strict CLI parsing prints on rejection.
    pub fn listing(&self) -> String {
        let mut out = String::from("registered device backends:\n");
        for entry in &self.entries {
            let schema = &entry.schema;
            out.push_str(&format!("  {} — {}\n", schema.name, schema.doc));
            out.push_str(&format!(
                "      stress axes: {}\n",
                schema.stress_axes.join(", ")
            ));
            if schema.params.is_empty() {
                out.push_str("      (no parameters)\n");
            }
            for p in &schema.params {
                out.push_str(&format!(
                    "      {} = {} in [{}, {}] — {}\n",
                    p.name, p.default, p.min, p.max, p.doc
                ));
            }
        }
        out
    }
}

impl Default for Registry {
    fn default() -> Self {
        Self::builtin()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_registers_three_backends() {
        let registry = Registry::builtin();
        assert_eq!(registry.names(), vec!["memory", "netlist", "logic"]);
        for name in registry.names() {
            let device = registry.create(name, &[]).unwrap();
            assert_eq!(device.name(), name);
        }
    }

    #[test]
    fn duplicate_registration_is_rejected() {
        let mut registry = Registry::builtin();
        let err = registry
            .register(
                BackendSchema {
                    name: "memory".to_string(),
                    doc: String::new(),
                    stress_axes: Vec::new(),
                    params: Vec::new(),
                },
                build_memory,
            )
            .unwrap_err();
        assert!(err.contains("already registered"), "{err}");
    }

    #[test]
    fn unknown_backend_and_unknown_param_are_rejected() {
        let registry = Registry::builtin();
        assert!(registry.create("dram", &[]).unwrap_err().contains("unknown device backend"));
        let err = registry
            .create("netlist", &[("depth".to_string(), 3.0)])
            .unwrap_err();
        assert!(err.contains("no parameter 'depth'"), "{err}");
    }

    #[test]
    fn out_of_range_param_is_rejected_at_create() {
        let registry = Registry::builtin();
        for (name, key, value) in [
            ("netlist", "levels", 0.0),
            ("netlist", "jitter", 0.9),
            ("logic", "vth", 2.0),
            ("logic", "stage_ns", f64::NAN),
        ] {
            let err = registry
                .create(name, &[(key.to_string(), value)])
                .unwrap_err();
            assert!(err.contains("out of declared range"), "{name}:{key}={value}: {err}");
        }
    }

    #[test]
    fn overrides_change_the_built_device() {
        let registry = Registry::builtin();
        let default = registry.create("netlist", &[]).unwrap();
        let deep = registry
            .create("netlist", &[("levels".to_string(), 24.0)])
            .unwrap();
        assert_ne!(default.structural_key(), deep.structural_key());
        assert!(deep.descriptor().contains("levels=24"));
    }

    #[test]
    fn device_spec_parses_and_round_trips() {
        let spec: DeviceSpec = "netlist:levels=16,jitter=0.2".parse().unwrap();
        assert_eq!(spec.name, "netlist");
        assert_eq!(spec.overrides.len(), 2);
        assert_eq!(spec.to_string(), "netlist:levels=16,jitter=0.2");
        assert_eq!(spec.to_string().parse::<DeviceSpec>().unwrap(), spec);
        assert!("memory".parse::<DeviceSpec>().unwrap().is_default());
        assert!(!spec.is_default());
    }

    #[test]
    fn malformed_specs_are_rejected() {
        for bad in ["", ":levels=2", "netlist:levels", "netlist:=2", "netlist:levels=abc"] {
            assert!(bad.parse::<DeviceSpec>().is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn listing_names_every_backend_and_parameter() {
        let listing = Registry::builtin().listing();
        for needle in ["memory", "netlist", "logic", "levels", "strobe_budget", "ir_gain"] {
            assert!(listing.contains(needle), "listing missing {needle}:\n{listing}");
        }
    }
}
