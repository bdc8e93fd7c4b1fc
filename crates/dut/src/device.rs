//! The device under test: a die plus the response surface.

use crate::backend::PreparedEvaluator;
use crate::faults::{FaultSet, FunctionalOutcome, MemorySim};
use crate::physics::{ResponseSurface, SurfaceHoist};
use crate::process::Die;
use cichar_patterns::{Pattern, PatternFeatures, Test, TestConditions};
use cichar_units::{Megahertz, Nanoseconds, Volts};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The true (noise-free) parametric values a test provokes on a device.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Parametrics {
    /// Data-output valid time (§6's headline parameter).
    pub t_dq: Nanoseconds,
    /// Maximum operating frequency (§4's example parameter).
    pub f_max: Megahertz,
    /// Minimum operating voltage.
    pub vdd_min: Volts,
}

impl fmt::Display for Parametrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "t_dq={} f_max={} vdd_min={}",
            self.t_dq, self.f_max, self.vdd_min
        )
    }
}

/// A single device under test: one [`Die`] evaluated through one
/// [`ResponseSurface`].
///
/// The device is the *ground truth* of the simulation. The ATE simulator
/// wraps it with strobing, noise and drift; nothing else in the workspace
/// reads the true values directly (the searches would otherwise have
/// nothing to discover).
///
/// # Examples
///
/// ```
/// use cichar_dut::{Die, MemoryDevice, ProcessCorner};
/// use cichar_patterns::{march, Test};
///
/// let device = MemoryDevice::new(Die::at_corner(ProcessCorner::Slow));
/// let test = Test::deterministic("march_x", march::march_x(96));
/// let p = device.evaluate(&test);
/// assert!(p.f_max.value() > 50.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemoryDevice {
    die: Die,
    surface: ResponseSurface,
    faults: FaultSet,
}

impl MemoryDevice {
    /// Creates a device from a die, using the calibrated response surface.
    pub fn new(die: Die) -> Self {
        Self {
            die,
            surface: ResponseSurface::calibrated(),
            faults: FaultSet::none(),
        }
    }

    /// Creates a device with an explicit response surface (for ablations).
    pub fn with_surface(die: Die, surface: ResponseSurface) -> Self {
        Self {
            die,
            surface,
            faults: FaultSet::none(),
        }
    }

    /// Injects manufacturing defects into the device's array.
    pub fn with_faults(mut self, faults: FaultSet) -> Self {
        self.faults = faults;
        self
    }

    /// The injected defects (empty on a healthy device).
    pub fn faults(&self) -> &FaultSet {
        &self.faults
    }

    /// Functionally executes a pattern against the (possibly faulty)
    /// array, starting from power-up state.
    pub fn execute_pattern(&self, pattern: &Pattern) -> FunctionalOutcome {
        MemorySim::new(self.faults.clone()).execute(pattern)
    }

    /// The nominal-die device Table 1 is reproduced on.
    pub fn nominal() -> Self {
        Self::new(Die::nominal())
    }

    /// The device's die.
    pub fn die(&self) -> &Die {
        &self.die
    }

    /// The device's response surface.
    pub fn surface(&self) -> &ResponseSurface {
        &self.surface
    }

    /// Evaluates a complete test (stimulus at its own conditions).
    pub fn evaluate(&self, test: &Test) -> Parametrics {
        self.evaluate_at(test, test.conditions())
    }

    /// Evaluates a test's stimulus at *overridden* conditions — the shmoo
    /// engine forces conditions along its axes while keeping the stimulus.
    pub fn evaluate_at(&self, test: &Test, conditions: &TestConditions) -> Parametrics {
        self.evaluate_features(&test.stimulus().features(), conditions)
    }

    /// Evaluates pre-extracted features (hot path for search loops that
    /// re-measure the same stimulus at many parameter points).
    pub fn evaluate_features(
        &self,
        features: &PatternFeatures,
        conditions: &TestConditions,
    ) -> Parametrics {
        Parametrics {
            t_dq: self.surface.t_dq(features, conditions, &self.die),
            f_max: self.surface.f_max(features, conditions, &self.die),
            vdd_min: self.surface.vdd_min(features, conditions, &self.die),
        }
    }

    /// The total stress contribution of a stimulus, hoisted out of the
    /// per-condition arithmetic. Stress depends only on the pattern
    /// features — not on the die or the conditions — so one stress total
    /// can serve an entire batch of condition points *and* every site in
    /// a multi-site touchdown that shares the calibrated surface.
    pub fn stress_total(&self, features: &PatternFeatures) -> f64 {
        self.surface.stress_breakdown(features).total()
    }

    /// Evaluates one condition point with a pre-hoisted stress total (from
    /// [`Self::stress_total`]). Bit-identical to
    /// [`Self::evaluate_features`] when the stress total comes from the
    /// same features, because the per-condition terms go through exactly
    /// the same arithmetic.
    pub fn evaluate_with_stress(
        &self,
        stress_total: f64,
        conditions: &TestConditions,
    ) -> Parametrics {
        Parametrics {
            t_dq: self
                .surface
                .t_dq_with_stress(stress_total, conditions, &self.die),
            f_max: self
                .surface
                .f_max_with_stress(stress_total, conditions, &self.die),
            vdd_min: self
                .surface
                .vdd_min_with_stress(stress_total, conditions, &self.die),
        }
    }

    /// Evaluates one stimulus at many condition points in a single pass —
    /// the SoA fast path behind batched oracle probing.
    ///
    /// The stress terms depend only on the pattern features, so they are
    /// computed once for the whole batch instead of once per probe; every
    /// per-condition term then goes through exactly the same arithmetic as
    /// [`Self::evaluate_features`], making element `i` of the result
    /// bit-identical to `evaluate_features(features, &conditions[i])`.
    pub fn evaluate_batch(
        &self,
        features: &PatternFeatures,
        conditions: &[TestConditions],
    ) -> Vec<Parametrics> {
        let mut out = Vec::with_capacity(conditions.len());
        self.evaluate_batch_into(features, conditions, &mut out);
        out
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
        let stress_total = self.stress_total(features);
        out.reserve(conditions.len());
        for c in conditions {
            out.push(self.evaluate_with_stress(stress_total, c));
        }
    }

    /// Hoists the condition- and die-invariant surface products for
    /// probes at fixed conditions; the resulting plan is bit-identical
    /// to [`Self::evaluate_with_stress`] at those conditions because
    /// every hoisted factor keeps the original association order.
    pub(crate) fn prepare(&self, conditions: &TestConditions) -> MemoryPlan {
        MemoryPlan {
            conditions: *conditions,
            hoist: self.surface.hoist(conditions, &self.die),
        }
    }

    /// Whether the device functions at all under the given test: the test's
    /// clock must not exceed `f_max`, its supply must not drop below
    /// `vdd_min`, and every read of its pattern must return the expected
    /// data through the fault model. This is the production-test pass/fail
    /// of §1.
    pub fn functional_pass(&self, test: &Test) -> bool {
        let p = self.evaluate(test);
        test.conditions().clock <= p.f_max
            && test.conditions().vdd >= p.vdd_min
            && self.execute_pattern(&test.pattern()).pass()
    }
}

/// The memory backend's prepared plan: the response surface's hoisted
/// constants ([`SurfaceHoist`]) pinned to one condition point.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MemoryPlan {
    conditions: TestConditions,
    hoist: SurfaceHoist,
}

impl PreparedEvaluator for MemoryPlan {
    fn conditions(&self) -> &TestConditions {
        &self.conditions
    }

    fn evaluate_with_stress(&self, stress_total: f64) -> Parametrics {
        self.hoist.evaluate_with_stress(stress_total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProcessCorner;
    use cichar_patterns::march;
    use cichar_units::{Megahertz as Mhz, Volts as V};

    fn march_test() -> Test {
        Test::deterministic("march_c-", march::march_c_minus(64))
    }

    #[test]
    fn evaluate_uses_test_conditions() {
        let device = MemoryDevice::nominal();
        let t = march_test();
        let nominal = device.evaluate(&t);
        let starved = device.evaluate(&t.with_conditions(
            TestConditions::nominal().with_vdd(V::new(1.5)),
        ));
        assert!(starved.t_dq < nominal.t_dq);
    }

    #[test]
    fn evaluate_at_overrides_conditions() {
        let device = MemoryDevice::nominal();
        let t = march_test();
        let forced = device.evaluate_at(&t, &TestConditions::nominal().with_vdd(V::new(2.1)));
        assert!(forced.t_dq > device.evaluate(&t).t_dq);
    }

    #[test]
    fn evaluate_features_matches_evaluate() {
        let device = MemoryDevice::nominal();
        let t = march_test();
        let features = PatternFeatures::extract(&t.pattern());
        assert_eq!(
            device.evaluate_features(&features, t.conditions()),
            device.evaluate(&t)
        );
    }

    #[test]
    fn evaluate_batch_is_bit_identical_to_scalar_calls() {
        let device = MemoryDevice::nominal();
        let t = march_test();
        let features = PatternFeatures::extract(&t.pattern());
        let conditions: Vec<TestConditions> = (0..16)
            .map(|i| {
                TestConditions::nominal()
                    .with_vdd(V::new(1.5 + 0.04 * f64::from(i)))
                    .with_clock(Mhz::new(90.0 + 3.0 * f64::from(i)))
            })
            .collect();
        let batch = device.evaluate_batch(&features, &conditions);
        assert_eq!(batch.len(), conditions.len());
        for (c, got) in conditions.iter().zip(&batch) {
            assert_eq!(*got, device.evaluate_features(&features, c));
        }
    }

    #[test]
    fn functional_pass_at_nominal() {
        let device = MemoryDevice::nominal();
        assert!(device.functional_pass(&march_test()));
    }

    #[test]
    fn functional_fail_beyond_f_max() {
        let device = MemoryDevice::nominal();
        let t = march_test()
            .with_conditions(TestConditions::nominal().with_clock(Mhz::new(130.0)));
        assert!(!device.functional_pass(&t));
    }

    #[test]
    fn functional_fail_below_vdd_min() {
        let device = MemoryDevice::nominal();
        let t = march_test().with_conditions(TestConditions::nominal().with_vdd(V::new(1.3)));
        assert!(!device.functional_pass(&t));
    }

    #[test]
    fn corner_devices_order_t_dq() {
        let t = march_test();
        let fast = MemoryDevice::new(Die::at_corner(ProcessCorner::Fast)).evaluate(&t);
        let slow = MemoryDevice::new(Die::at_corner(ProcessCorner::Slow)).evaluate(&t);
        assert!(fast.t_dq > slow.t_dq);
        assert!(fast.f_max > slow.f_max);
        assert!(fast.vdd_min < slow.vdd_min);
    }

    #[test]
    fn parametrics_display_has_all_three() {
        let p = MemoryDevice::nominal().evaluate(&march_test());
        let s = p.to_string();
        assert!(s.contains("t_dq") && s.contains("f_max") && s.contains("vdd_min"));
    }
}
