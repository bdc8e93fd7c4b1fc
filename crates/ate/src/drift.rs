//! Session drift: the device heats up as measurements accumulate.

use serde::{Deserialize, Serialize};

/// Thermal drift across a test session.
///
/// §1 warns that "if the specification parameter changes over time due to
/// device heating or other factors, an inaccurate reading could result" —
/// it is the reason successive approximation exists. The model is a
/// first-order heat-up: die temperature rises with every applied vector
/// cycle and saturates at `max_rise` degrees above ambient.
///
/// # Examples
///
/// ```
/// use cichar_ate::DriftModel;
///
/// let drift = DriftModel::new(8.0, 5_000_000.0);
/// assert_eq!(drift.temperature_rise(0), 0.0);
/// let warm = drift.temperature_rise(2_000_000);
/// let hot = drift.temperature_rise(20_000_000);
/// assert!(warm > 0.0 && hot > warm && hot <= 8.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DriftModel {
    max_rise: f64,
    time_constant_cycles: f64,
}

impl DriftModel {
    /// Creates a drift model saturating at `max_rise` °C with the given
    /// time constant in vector cycles.
    ///
    /// # Panics
    ///
    /// Panics if `max_rise` is negative or `time_constant_cycles` is not
    /// positive.
    pub fn new(max_rise: f64, time_constant_cycles: f64) -> Self {
        assert!(max_rise >= 0.0, "negative max_rise {max_rise}");
        assert!(
            time_constant_cycles > 0.0,
            "non-positive time constant {time_constant_cycles}"
        );
        Self {
            max_rise,
            time_constant_cycles,
        }
    }

    /// No drift at all — the default for repeatable experiments.
    pub fn none() -> Self {
        Self {
            max_rise: 0.0,
            time_constant_cycles: 1.0,
        }
    }

    /// Saturation temperature rise in °C.
    pub fn max_rise(&self) -> f64 {
        self.max_rise
    }

    /// Whether this model never drifts, making verdicts independent of
    /// session history (the memoization cache is only sound in this
    /// regime).
    pub fn is_none(&self) -> bool {
        self.max_rise == 0.0
    }

    /// Die temperature rise after `cycles` total applied vector cycles.
    ///
    /// A drift-free model returns `+0.0` without evaluating the `exp` it
    /// would multiply by zero (every strobe asks): the formula gives
    /// `+0.0` too.
    pub fn temperature_rise(&self, cycles: u64) -> f64 {
        if self.max_rise == 0.0 {
            return 0.0;
        }
        self.max_rise * (1.0 - (-(cycles as f64) / self.time_constant_cycles).exp())
    }
}

impl Default for DriftModel {
    fn default() -> Self {
        Self::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_drifts() {
        // `+0.0`, sign bit clear, at any cycle count.
        for d in [
            DriftModel::none(),
            DriftModel::new(0.0, 1.0),
            DriftModel::new(0.0, 5e6),
        ] {
            for c in [0, 1, 1u64 << 53, u64::MAX / 2, u64::MAX] {
                let rise = d.temperature_rise(c);
                assert_eq!(rise.to_bits(), 0.0f64.to_bits(), "{d:?} at {c}");
            }
        }
    }

    #[test]
    fn drifting_models_follow_the_formula_bit_for_bit() {
        for (rise, tau) in [(8.0, 5e6), (60.0, 2e5), (1e-3, 1.0)] {
            let d = DriftModel::new(rise, tau);
            for c in [0, 1, 2_000_000, 20_000_000, 1u64 << 53, u64::MAX] {
                let formula = rise * (1.0 - (-(c as f64) / tau).exp());
                let got = d.temperature_rise(c);
                assert_eq!(got.to_bits(), formula.to_bits(), "{d:?} at {c}");
            }
        }
    }

    #[test]
    fn rise_is_monotone_and_saturating() {
        let d = DriftModel::new(10.0, 1e6);
        let mut prev = -1.0;
        for cycles in [0u64, 100_000, 1_000_000, 10_000_000, 100_000_000] {
            let r = d.temperature_rise(cycles);
            assert!(r >= prev);
            assert!(r <= 10.0);
            prev = r;
        }
        assert!(d.temperature_rise(100_000_000) > 9.9, "saturates near max");
    }

    #[test]
    fn time_constant_sets_63_percent_point() {
        let d = DriftModel::new(10.0, 1e6);
        let r = d.temperature_rise(1_000_000);
        assert!((r - 6.32).abs() < 0.1, "rise at tau = {r}");
    }

    #[test]
    #[should_panic(expected = "non-positive time constant")]
    fn rejects_zero_time_constant() {
        let _ = DriftModel::new(1.0, 0.0);
    }
}
