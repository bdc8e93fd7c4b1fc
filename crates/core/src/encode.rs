//! Neural-network input encoding of tests.

use cichar_patterns::{ConditionSpace, Test, FEATURE_COUNT};
use serde::{Deserialize, Serialize};

/// Width of the NN input vector: the pattern stress features plus the
/// three normalized condition channels.
pub const INPUT_WIDTH: usize = FEATURE_COUNT + 3;

/// Encodes a [`Test`] into the committee's input vector.
///
/// The encoding concatenates the normalized
/// [`PatternFeatures`](cichar_patterns::PatternFeatures) with the
/// test's conditions, each mapped into `[0, 1]` over the
/// [`ConditionSpace`] — the complete "input test" of fig. 4 as the network
/// sees it.
///
/// # Examples
///
/// ```
/// use cichar_core::encode::{TestEncoder, INPUT_WIDTH};
/// use cichar_patterns::{march, ConditionSpace, Test};
///
/// let encoder = TestEncoder::new(ConditionSpace::default());
/// let test = Test::deterministic("march_x", march::march_x(96));
/// let x = encoder.encode(&test);
/// assert_eq!(x.len(), INPUT_WIDTH);
/// assert!(x.iter().all(|v| (0.0..=1.0).contains(v)));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TestEncoder {
    space: ConditionSpace,
}

impl TestEncoder {
    /// Creates an encoder normalizing conditions over `space`.
    pub fn new(space: ConditionSpace) -> Self {
        Self { space }
    }

    /// The condition space used for normalization.
    pub fn space(&self) -> &ConditionSpace {
        &self.space
    }

    /// Encodes a test (one features pass over its stimulus).
    pub fn encode(&self, test: &Test) -> Vec<f64> {
        self.input(test).to_vec()
    }

    /// [`Self::encode`] on the stack, for callers that encode many tests.
    pub(crate) fn input(&self, test: &Test) -> [f64; INPUT_WIDTH] {
        let mut x = [0.0; INPUT_WIDTH];
        x[..FEATURE_COUNT].copy_from_slice(&test.stimulus().features().to_array());
        let c = test.conditions();
        x[FEATURE_COUNT] = self
            .space
            .vdd()
            .unlerp(self.space.vdd().clamp(c.vdd.value()));
        x[FEATURE_COUNT + 1] = self
            .space
            .temperature()
            .unlerp(self.space.temperature().clamp(c.temperature.value()));
        x[FEATURE_COUNT + 2] = self
            .space
            .clock()
            .unlerp(self.space.clock().clamp(c.clock.value()));
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cichar_patterns::{march, PatternFeatures, TestConditions};
    use cichar_units::Volts;

    #[test]
    fn width_and_bounds() {
        let enc = TestEncoder::new(ConditionSpace::default());
        let t = Test::deterministic("m", march::march_c_minus(64));
        let x = enc.encode(&t);
        assert_eq!(x.len(), INPUT_WIDTH);
        assert!(x.iter().all(|v| (0.0..=1.0).contains(v)), "{x:?}");
    }

    #[test]
    fn condition_channels_track_conditions() {
        let enc = TestEncoder::new(ConditionSpace::default());
        let t = Test::deterministic("m", march::march_c_minus(64));
        let low = t.with_conditions(TestConditions::nominal().with_vdd(Volts::new(1.5)));
        let high = t.with_conditions(TestConditions::nominal().with_vdd(Volts::new(2.1)));
        let xl = enc.encode(&low);
        let xh = enc.encode(&high);
        assert_eq!(xl[FEATURE_COUNT], 0.0, "vdd at space minimum");
        assert_eq!(xh[FEATURE_COUNT], 1.0, "vdd at space maximum");
        // Feature part identical — only the condition channel moved.
        assert_eq!(&xl[..FEATURE_COUNT], &xh[..FEATURE_COUNT]);
    }

    #[test]
    fn out_of_space_conditions_clamp() {
        let enc = TestEncoder::new(ConditionSpace::default());
        let t = Test::deterministic("m", march::march_c_minus(64))
            .with_conditions(TestConditions::nominal().with_vdd(Volts::new(5.0)));
        let x = enc.encode(&t);
        assert_eq!(x[FEATURE_COUNT], 1.0);
    }

    #[test]
    fn encoding_starts_with_the_pattern_features() {
        let enc = TestEncoder::new(ConditionSpace::default());
        let t = Test::deterministic("m", march::march_x(96));
        let f = PatternFeatures::extract(&t.pattern());
        assert_eq!(enc.encode(&t)[..FEATURE_COUNT], f.to_array());
    }
}
