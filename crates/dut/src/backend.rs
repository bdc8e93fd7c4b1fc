//! The pluggable device abstraction behind every campaign layer.
//!
//! The paper's method is device-agnostic: STP, DSV, GA hunts and wafer
//! streaming only assume a DUT that maps (stimulus features, conditions)
//! to parametric values with a single pass/fail crossing per measured
//! parameter. [`DeviceBackend`] captures exactly that contract as an
//! object-safe trait, and [`Device`] is the cheap shared handle the ATE
//! layers hold. `cichar_dut::conformance` is the admission test: a
//! backend that passes the battery is characterizable by the whole
//! engine.
//!
//! # Examples
//!
//! ```
//! use cichar_dut::{Device, MemoryDevice};
//!
//! let device: Device = MemoryDevice::nominal().into();
//! assert_eq!(device.name(), "memory");
//! let die = device.sample_die(42, 7);
//! let per_die = device.for_die(die);
//! assert_eq!(per_die.die().id(), 7);
//! // Re-dieing never changes the structural identity of the backend.
//! assert_eq!(per_die.structural_key(), device.structural_key());
//! ```

use crate::device::{MemoryDevice, Parametrics};
use crate::faults::FunctionalOutcome;
use crate::process::{Die, Lot, ProcessCorner};
use cichar_patterns::{Pattern, PatternFeatures, Test, TestConditions};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;
use std::sync::Arc;

/// FNV-1a over bytes; the stable structural-identity hash used by
/// [`DeviceBackend::structural_key`] implementations.
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    let mut h = h;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The FNV-1a offset basis — seed value for [`fnv1a`] chains.
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Hashes an `f64` into a [`fnv1a`] chain by its exact bit pattern, so
/// two backends differing in any parameter get different keys.
pub fn fnv1a_f64(h: u64, v: f64) -> u64 {
    fnv1a(h, &v.to_bits().to_le_bytes())
}

/// A condition-hoisted evaluator prepared once per touchdown for one
/// `(conditions, die)` pair — the constant-folding stage of the
/// zero-allocation probe path.
///
/// Backends hoist every condition- and die-invariant sub-expression of
/// [`DeviceBackend::evaluate_with_stress`] into the plan at
/// [`DeviceBackend::prepare`] time, leaving only the stress-dependent
/// arithmetic per probe. The contract, checked by
/// [`crate::conformance::check_prepared_parity`], is *bit-identity*: for
/// any stress total, [`PreparedEvaluator::evaluate_with_stress`] must
/// equal `backend.evaluate_with_stress(stress_total, plan.conditions())`
/// down to the last bit, because campaign determinism fingerprints hash
/// the parametrics these plans produce.
pub trait PreparedEvaluator: fmt::Debug + Send + Sync {
    /// The conditions this plan hoisted. Callers route a probe through
    /// the plan only when its conditions compare equal — see
    /// [`Device::evaluate_planned`].
    fn conditions(&self) -> &TestConditions;

    /// Evaluates a stress total at the prepared conditions.
    fn evaluate_with_stress(&self, stress_total: f64) -> Parametrics;

    /// Re-prepares the plan in place for `conditions`, returning whether
    /// it did. A session whose searches move between conditions then
    /// keeps one plan allocation instead of boxing a fresh plan each
    /// time.
    ///
    /// An override must leave the plan equal to what
    /// [`DeviceBackend::prepare`] returns at `conditions`, which it can
    /// only do if the plan kept the plain-data inputs of its hoist;
    /// [`crate::conformance::check_prepared_parity`] holds a retargeted
    /// plan to bit-identity with both a fresh plan and the scalar path.
    /// The default leaves the plan untouched and returns `false`, and
    /// the caller prepares a new plan.
    fn retarget(&mut self, _conditions: &TestConditions) -> bool {
        false
    }
}

/// A boxed prepared plan — what [`DeviceBackend::prepare`] returns.
pub type EvalPlan = Box<dyn PreparedEvaluator>;

/// The plan behind the default [`DeviceBackend::prepare`]: no hoisting,
/// just the backend's own scalar arithmetic at the recorded conditions.
/// Trivially bit-identical, so backends migrate to real hoists one at a
/// time.
#[derive(Debug)]
struct FallbackPlan {
    conditions: TestConditions,
    backend: Box<dyn DeviceBackend>,
}

impl PreparedEvaluator for FallbackPlan {
    fn conditions(&self) -> &TestConditions {
        &self.conditions
    }

    fn evaluate_with_stress(&self, stress_total: f64) -> Parametrics {
        self.backend
            .evaluate_with_stress(stress_total, &self.conditions)
    }
}

/// One device under test, behind any registered backend.
///
/// The contract every implementation must honor (and that
/// [`crate::conformance`] checks) is the single-crossing property the
/// search layers rely on:
///
/// * `vdd_min` must not depend on the forced `vdd`, and `f_max` must not
///   depend on the forced `clock` — otherwise a shmoo sweep along that
///   axis could cross pass/fail more than once and bisection would lose
///   its bracket;
/// * stress depends only on the stimulus features — never the die or the
///   conditions — so one hoisted stress total serves a whole batch and
///   every site of a touchdown sharing the same structure;
/// * `evaluate_batch` element `i` is bit-identical to the scalar
///   `evaluate_features(features, &conditions[i])`.
pub trait DeviceBackend: fmt::Debug + Send + Sync {
    /// The backend's registry name (`"memory"`, `"netlist"`, …).
    fn name(&self) -> &'static str;

    /// Effective structural parameters, in schema order (empty when the
    /// backend has no tunables). These are the values that entered
    /// construction — defaults merged with overrides.
    fn params(&self) -> Vec<(&'static str, f64)>;

    /// The stress axes this backend's breakdown model distinguishes.
    fn stress_axes(&self) -> &'static [&'static str];

    /// The die this instance carries.
    fn die(&self) -> &Die;

    /// Hash of the backend's *structural* identity: name, parameters and
    /// response-surface constants — everything except the die. Two
    /// instances with equal keys share stress arithmetic, which is what
    /// gates the multi-site shared-stress hoist.
    fn structural_key(&self) -> u64;

    /// The same structure re-instantiated on a different die — the
    /// per-site/per-die construction used by wafer touchdowns.
    fn for_die(&self, die: Die) -> Box<dyn DeviceBackend>;

    /// The total stress contribution of a stimulus. Must depend only on
    /// the pattern features.
    fn stress_total(&self, features: &PatternFeatures) -> f64;

    /// Evaluates one condition point with a pre-hoisted stress total.
    fn evaluate_with_stress(&self, stress_total: f64, conditions: &TestConditions) -> Parametrics;

    /// Evaluates pre-extracted features at one condition point.
    fn evaluate_features(
        &self,
        features: &PatternFeatures,
        conditions: &TestConditions,
    ) -> Parametrics {
        self.evaluate_with_stress(self.stress_total(features), conditions)
    }

    /// Evaluates one stimulus at many condition points — the SoA fast
    /// path behind batched oracle probing. The default allocates the
    /// result vector and delegates to [`Self::evaluate_batch_into`],
    /// which keeps element `i` bit-identical to the scalar call.
    fn evaluate_batch(
        &self,
        features: &PatternFeatures,
        conditions: &[TestConditions],
    ) -> Vec<Parametrics> {
        let mut out = Vec::with_capacity(conditions.len());
        self.evaluate_batch_into(features, conditions, &mut out);
        out
    }

    /// Like [`Self::evaluate_batch`], but appends into a caller-owned
    /// buffer instead of allocating — the steady-state form of the wafer
    /// hot path. Appends exactly `conditions.len()` elements and never
    /// clears `out`; appended element `i` is bit-identical to the scalar
    /// `evaluate_features(features, &conditions[i])`. The default hoists
    /// the stress total once and runs the scalar per-condition
    /// arithmetic.
    fn evaluate_batch_into(
        &self,
        features: &PatternFeatures,
        conditions: &[TestConditions],
        out: &mut Vec<Parametrics>,
    ) {
        let stress_total = self.stress_total(features);
        out.reserve(conditions.len());
        for c in conditions {
            out.push(self.evaluate_with_stress(stress_total, c));
        }
    }

    /// Prepares a condition-hoisted evaluation plan for probes at fixed
    /// conditions — called once per touchdown, amortized over every
    /// probe of the session. The default performs no hoisting (it
    /// evaluates through the backend's regular scalar arithmetic), so
    /// backends opt into real constant-folding individually;
    /// [`crate::conformance::check_prepared_parity`] holds every
    /// override to bit-identity with the scalar path.
    fn prepare(&self, conditions: &TestConditions) -> EvalPlan {
        Box::new(FallbackPlan {
            conditions: *conditions,
            backend: self.for_die(*self.die()),
        })
    }

    /// Functionally executes a pattern against the device's array. The
    /// default models a defect-free array: every cycle retires with no
    /// mismatches. Backends with a functional fault model (the memory
    /// array simulator) override this.
    fn execute_pattern(&self, pattern: &Pattern) -> FunctionalOutcome {
        FunctionalOutcome {
            mismatches: Vec::new(),
            cycles: pattern.len(),
        }
    }

    /// Samples die `index` of a lot seeded by `lot_seed`, using the
    /// backend's own process-variation model. The default salts the seed
    /// chain with the backend name before deriving the per-die stream, so
    /// two different backends given the same `(lot_seed, index)` draw
    /// *independent* (non-correlated) parameter streams while each stays
    /// individually reproducible and `derive_seed`-compatible.
    fn sample_die(&self, lot_seed: u64, index: u32) -> Die {
        let salt = fnv1a(FNV_OFFSET, self.name().as_bytes());
        let seed = cichar_exec::derive_seed(lot_seed ^ salt, u64::from(index));
        let mut rng = StdRng::seed_from_u64(seed);
        Lot::default().sample_die(&mut rng, index)
    }

    /// The deterministic die at a named process corner.
    fn corner_die(&self, corner: ProcessCorner) -> Die {
        Die::at_corner(corner)
    }
}

impl DeviceBackend for MemoryDevice {
    fn name(&self) -> &'static str {
        "memory"
    }

    fn params(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }

    fn stress_axes(&self) -> &'static [&'static str] {
        &[
            "turnaround",
            "sso",
            "address",
            "row",
            "resonance",
            "interaction",
        ]
    }

    fn die(&self) -> &Die {
        MemoryDevice::die(self)
    }

    fn structural_key(&self) -> u64 {
        let h = fnv1a(FNV_OFFSET, self.name().as_bytes());
        self.surface().structural_key(h)
    }

    fn for_die(&self, die: Die) -> Box<dyn DeviceBackend> {
        Box::new(
            MemoryDevice::with_surface(die, self.surface().clone())
                .with_faults(self.faults().clone()),
        )
    }

    fn stress_total(&self, features: &PatternFeatures) -> f64 {
        MemoryDevice::stress_total(self, features)
    }

    fn evaluate_with_stress(&self, stress_total: f64, conditions: &TestConditions) -> Parametrics {
        MemoryDevice::evaluate_with_stress(self, stress_total, conditions)
    }

    fn evaluate_features(
        &self,
        features: &PatternFeatures,
        conditions: &TestConditions,
    ) -> Parametrics {
        MemoryDevice::evaluate_features(self, features, conditions)
    }

    fn evaluate_batch(
        &self,
        features: &PatternFeatures,
        conditions: &[TestConditions],
    ) -> Vec<Parametrics> {
        MemoryDevice::evaluate_batch(self, features, conditions)
    }

    fn evaluate_batch_into(
        &self,
        features: &PatternFeatures,
        conditions: &[TestConditions],
        out: &mut Vec<Parametrics>,
    ) {
        MemoryDevice::evaluate_batch_into(self, features, conditions, out);
    }

    fn prepare(&self, conditions: &TestConditions) -> EvalPlan {
        Box::new(MemoryDevice::prepare(self, conditions))
    }

    fn execute_pattern(&self, pattern: &Pattern) -> FunctionalOutcome {
        MemoryDevice::execute_pattern(self, pattern)
    }
}

/// A cheap, clonable handle to a [`DeviceBackend`] instance — what the
/// ATE layers hold. Cloning shares the backend (devices are immutable
/// after construction), so per-session device clones stay free even for
/// structurally large backends like the gate netlist.
#[derive(Clone)]
pub struct Device {
    inner: Arc<dyn DeviceBackend>,
}

impl Device {
    /// Wraps a freshly built backend.
    pub fn from_backend(backend: Box<dyn DeviceBackend>) -> Self {
        Self {
            inner: Arc::from(backend),
        }
    }

    /// The backend's registry name.
    pub fn name(&self) -> &'static str {
        self.inner.name()
    }

    /// Effective structural parameters, in schema order.
    pub fn params(&self) -> Vec<(&'static str, f64)> {
        self.inner.params()
    }

    /// The stress axes the backend's breakdown model distinguishes.
    pub fn stress_axes(&self) -> &'static [&'static str] {
        self.inner.stress_axes()
    }

    /// Canonical `name[:key=value,...]` string of the *effective*
    /// structure — what enters journal fingerprints and manifests.
    pub fn descriptor(&self) -> String {
        let params = self.params();
        if params.is_empty() {
            return self.name().to_string();
        }
        let kv: Vec<String> = params.iter().map(|(k, v)| format!("{k}={v}")).collect();
        format!("{}:{}", self.name(), kv.join(","))
    }

    /// The die this instance carries.
    pub fn die(&self) -> &Die {
        self.inner.die()
    }

    /// Hash of the backend's die-independent structural identity.
    pub fn structural_key(&self) -> u64 {
        self.inner.structural_key()
    }

    /// The same structure on a different die.
    pub fn for_die(&self, die: Die) -> Device {
        Device::from_backend(self.inner.for_die(die))
    }

    /// Samples die `index` of a lot seeded by `lot_seed` through the
    /// backend's process-variation model.
    pub fn sample_die(&self, lot_seed: u64, index: u32) -> Die {
        self.inner.sample_die(lot_seed, index)
    }

    /// Samples `count` dies of one lot (ids `0..count`).
    pub fn sample_dies(&self, lot_seed: u64, count: usize) -> Vec<Die> {
        (0..count).map(|i| self.sample_die(lot_seed, i as u32)).collect()
    }

    /// The deterministic die at a named process corner.
    pub fn corner_die(&self, corner: ProcessCorner) -> Die {
        self.inner.corner_die(corner)
    }

    /// The total stress contribution of a stimulus.
    pub fn stress_total(&self, features: &PatternFeatures) -> f64 {
        self.inner.stress_total(features)
    }

    /// Evaluates one condition point with a pre-hoisted stress total.
    pub fn evaluate_with_stress(
        &self,
        stress_total: f64,
        conditions: &TestConditions,
    ) -> Parametrics {
        self.inner.evaluate_with_stress(stress_total, conditions)
    }

    /// Evaluates pre-extracted features at one condition point.
    pub fn evaluate_features(
        &self,
        features: &PatternFeatures,
        conditions: &TestConditions,
    ) -> Parametrics {
        self.inner.evaluate_features(features, conditions)
    }

    /// Evaluates one stimulus at many condition points (SoA fast path).
    pub fn evaluate_batch(
        &self,
        features: &PatternFeatures,
        conditions: &[TestConditions],
    ) -> Vec<Parametrics> {
        self.inner.evaluate_batch(features, conditions)
    }

    /// Appends batch evaluations into a caller-owned buffer — the
    /// allocation-free form of [`Self::evaluate_batch`]. Appends exactly
    /// `conditions.len()` elements and never clears `out`.
    pub fn evaluate_batch_into(
        &self,
        features: &PatternFeatures,
        conditions: &[TestConditions],
        out: &mut Vec<Parametrics>,
    ) {
        self.inner.evaluate_batch_into(features, conditions, out);
    }

    /// Prepares a condition-hoisted evaluation plan for probes at fixed
    /// conditions (once per touchdown; see [`PreparedEvaluator`]).
    pub fn prepare(&self, conditions: &TestConditions) -> EvalPlan {
        self.inner.prepare(conditions)
    }

    /// Evaluates a stress total through a prepared plan: the hoisted
    /// fast path when `conditions` equal the plan's, the regular scalar
    /// arithmetic otherwise — bit-identical either way.
    pub fn evaluate_planned(
        &self,
        plan: &dyn PreparedEvaluator,
        stress_total: f64,
        conditions: &TestConditions,
    ) -> Parametrics {
        if conditions == plan.conditions() {
            plan.evaluate_with_stress(stress_total)
        } else {
            self.inner.evaluate_with_stress(stress_total, conditions)
        }
    }

    /// Evaluates a complete test (stimulus at its own conditions).
    pub fn evaluate(&self, test: &Test) -> Parametrics {
        self.evaluate_at(test, test.conditions())
    }

    /// Evaluates a test's stimulus at overridden conditions.
    pub fn evaluate_at(&self, test: &Test, conditions: &TestConditions) -> Parametrics {
        self.evaluate_features(&test.stimulus().features(), conditions)
    }

    /// Functionally executes a pattern against the device's array.
    pub fn execute_pattern(&self, pattern: &Pattern) -> FunctionalOutcome {
        self.inner.execute_pattern(pattern)
    }
}

impl PartialEq for Device {
    /// Structural equality: same backend structure (name, parameters,
    /// surface constants) on the same die. Two handles cloned from one
    /// device always compare equal.
    fn eq(&self, other: &Self) -> bool {
        self.structural_key() == other.structural_key() && self.die() == other.die()
    }
}

impl fmt::Debug for Device {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Device").field(&self.descriptor()).finish()
    }
}

impl From<MemoryDevice> for Device {
    fn from(device: MemoryDevice) -> Self {
        Device::from_backend(Box::new(device))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cichar_patterns::march;

    fn march_features() -> PatternFeatures {
        PatternFeatures::extract(&march::march_c_minus(64))
    }

    #[test]
    fn memory_backend_matches_inherent_methods_bit_for_bit() {
        let inherent = MemoryDevice::nominal();
        let device: Device = inherent.clone().into();
        let f = march_features();
        let c = TestConditions::nominal();
        assert_eq!(device.evaluate_features(&f, &c), inherent.evaluate_features(&f, &c));
        assert_eq!(device.stress_total(&f), inherent.stress_total(&f));
        let batch = device.evaluate_batch(&f, &[c, c]);
        assert_eq!(batch, inherent.evaluate_batch(&f, &[c, c]));
    }

    #[test]
    fn for_die_preserves_structure_and_swaps_die() {
        let device: Device = MemoryDevice::nominal().into();
        let die = device.sample_die(9, 3);
        let redied = device.for_die(die);
        assert_eq!(redied.die().id(), 3);
        assert_eq!(redied.structural_key(), device.structural_key());
        // for_die on the nominal prototype is bit-identical to direct
        // construction — the wafer path depends on this.
        let direct = MemoryDevice::new(*redied.die());
        let f = march_features();
        let c = TestConditions::nominal();
        assert_eq!(redied.evaluate_features(&f, &c), direct.evaluate_features(&f, &c));
    }

    #[test]
    fn descriptor_of_parameterless_backend_is_bare_name() {
        let device: Device = MemoryDevice::nominal().into();
        assert_eq!(device.descriptor(), "memory");
        assert_eq!(format!("{device:?}"), "Device(\"memory\")");
    }

    /// A minimal backend that overrides nothing optional, so the default
    /// `prepare`/`evaluate_batch_into` code paths get exercised.
    #[derive(Debug, Clone)]
    struct PlainBackend(MemoryDevice);

    impl DeviceBackend for PlainBackend {
        fn name(&self) -> &'static str {
            "plain"
        }
        fn params(&self) -> Vec<(&'static str, f64)> {
            Vec::new()
        }
        fn stress_axes(&self) -> &'static [&'static str] {
            &[]
        }
        fn die(&self) -> &Die {
            MemoryDevice::die(&self.0)
        }
        fn structural_key(&self) -> u64 {
            fnv1a(FNV_OFFSET, self.name().as_bytes())
        }
        fn for_die(&self, die: Die) -> Box<dyn DeviceBackend> {
            Box::new(PlainBackend(MemoryDevice::with_surface(
                die,
                self.0.surface().clone(),
            )))
        }
        fn stress_total(&self, features: &PatternFeatures) -> f64 {
            self.0.stress_total(features)
        }
        fn evaluate_with_stress(
            &self,
            stress_total: f64,
            conditions: &TestConditions,
        ) -> Parametrics {
            self.0.evaluate_with_stress(stress_total, conditions)
        }
    }

    #[test]
    fn default_prepare_is_bit_identical_to_scalar_arithmetic() {
        let device = Device::from_backend(Box::new(PlainBackend(MemoryDevice::nominal())));
        let stress = device.stress_total(&march_features());
        let c = TestConditions::nominal();
        let plan = device.prepare(&c);
        assert_eq!(plan.conditions(), &c);
        assert_eq!(
            plan.evaluate_with_stress(stress),
            device.evaluate_with_stress(stress, &c)
        );
        // Off-plan conditions fall back through the device unchanged.
        let off = c.with_vdd(cichar_units::Volts::new(1.5));
        assert_eq!(
            device.evaluate_planned(plan.as_ref(), stress, &off),
            device.evaluate_with_stress(stress, &off)
        );
    }

    #[test]
    fn evaluate_batch_into_appends_without_clearing() {
        let device: Device = MemoryDevice::nominal().into();
        let f = march_features();
        let c = TestConditions::nominal();
        let conditions = [c, c.with_vdd(cichar_units::Volts::new(1.6))];
        let batch = device.evaluate_batch(&f, &conditions);
        let sentinel = batch[0];
        let mut out = vec![sentinel];
        device.evaluate_batch_into(&f, &conditions, &mut out);
        assert_eq!(out.len(), 1 + conditions.len());
        assert_eq!(out[0], sentinel);
        assert_eq!(&out[1..], &batch[..]);
    }

    #[test]
    fn memory_prepare_matches_scalar_across_dies() {
        let device: Device = MemoryDevice::nominal().into();
        let stress = device.stress_total(&march_features());
        for i in 0..4u32 {
            let per_die = device.for_die(device.sample_die(0xBEEF, i));
            for vdd in [1.4, 1.8, 2.0] {
                let c = TestConditions::nominal().with_vdd(cichar_units::Volts::new(vdd));
                let plan = per_die.prepare(&c);
                assert_eq!(
                    plan.evaluate_with_stress(stress),
                    per_die.evaluate_with_stress(stress, &c)
                );
            }
        }
    }

    #[test]
    fn sample_die_is_reproducible_and_index_sensitive() {
        let device: Device = MemoryDevice::nominal().into();
        assert_eq!(device.sample_die(7, 0), device.sample_die(7, 0));
        assert_ne!(device.sample_die(7, 0).speed(), device.sample_die(7, 1).speed());
        assert_ne!(device.sample_die(7, 0).speed(), device.sample_die(8, 0).speed());
    }
}
