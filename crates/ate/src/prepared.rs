//! Per-test hoisted measurement context.

use cichar_patterns::{PatternFeatures, StimulusDigest, Test};

/// Everything a trip-point search needs from a [`Test`], hoisted once:
/// the pattern features, the cycle count and the content hash, from one
/// walk over the stimulus ([`Stimulus::digest`]).
///
/// [`crate::TripOracle`] construction historically re-expanded the
/// pattern for every search — for program stimuli that is a full vector
/// expansion per search. A campaign that prepares its tests up front
/// ([`PreparedTest::new`] once per test) and hands the prepared context
/// to [`crate::Ate::trip_oracle_prepared`] performs no per-search
/// pattern work at all, mirroring how real ATE loads a pattern into
/// vector memory once and re-strobes it from there.
///
/// [`Stimulus::digest`]: cichar_patterns::Stimulus::digest
///
/// # Examples
///
/// ```
/// use cichar_ate::{Ate, MeasuredParam, PreparedTest};
/// use cichar_dut::MemoryDevice;
/// use cichar_patterns::{march, Test};
/// use cichar_search::{BinarySearch, RegionOrder};
///
/// let test = Test::deterministic("march_x", march::march_x(96));
/// let prepared = PreparedTest::new(&test);
/// let mut ate = Ate::noiseless(MemoryDevice::nominal());
/// let param = MeasuredParam::DataValidTime;
/// let search = BinarySearch::new(param.generous_range(), param.resolution());
/// let oracle = ate.trip_oracle_prepared(&prepared, param, Vec::new());
/// let outcome = search.run(param.region_order(), oracle);
/// assert!(outcome.converged);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct PreparedTest<'t> {
    test: &'t Test,
    digest: StimulusDigest,
}

impl<'t> PreparedTest<'t> {
    /// Walks the test's stimulus once and captures the derived context.
    /// No pattern is built, so preparation makes no allocator call.
    pub fn new(test: &'t Test) -> Self {
        Self {
            test,
            digest: test.stimulus().digest(),
        }
    }

    /// The prepared test.
    pub fn test(&self) -> &'t Test {
        self.test
    }

    /// The stimulus' extracted features.
    pub fn features(&self) -> &PatternFeatures {
        &self.digest.features
    }

    /// Cycles one application of the pattern costs.
    pub fn pattern_cycles(&self) -> u64 {
        self.digest.cycles
    }

    /// The pattern's stable content hash (memoization-key prefix).
    pub(crate) fn pattern_hash(&self) -> u64 {
        self.digest.content_hash
    }

    /// The test's [`Test::identity`], from the content hash hoisted at
    /// preparation instead of a second walk.
    pub fn identity(&self) -> u64 {
        self.test.identity_from_hash(self.digest.content_hash)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cichar_patterns::march;

    #[test]
    fn prepared_context_matches_fresh_expansion() {
        let test = Test::deterministic("march_c-", march::march_c_minus(64));
        let prepared = PreparedTest::new(&test);
        let pattern = test.pattern();
        assert_eq!(prepared.pattern_cycles(), pattern.len() as u64);
        assert_eq!(prepared.pattern_hash(), pattern.content_hash());
        assert_eq!(*prepared.features(), PatternFeatures::extract(&pattern));
        assert_eq!(prepared.test().name(), "march_c-");
        assert_eq!(prepared.identity(), test.identity());
    }

    mod properties {
        use super::*;
        use cichar_patterns::{Pattern, SegmentProgram, TestConditions, TestSource, TestVector};
        use cichar_units::{Celsius, Megahertz, Volts};
        use proptest::prelude::*;

        proptest! {
            /// The prepared identity is `Test::identity` for program and raw
            /// stimuli alike, at conditions away from nominal.
            #[test]
            fn prepared_identity_is_the_test_identity(
                genes in proptest::collection::vec(0u32..=u32::from(u16::MAX), SegmentProgram::GENE_COUNT),
                words in proptest::collection::vec(0u32..=u32::MAX, 1..1200),
                vdd in 1.2f64..2.4,
                temperature in -45.0f64..130.0,
                clock in 20.0f64..400.0,
            ) {
                let conditions = TestConditions::nominal()
                    .with_vdd(Volts::new(vdd))
                    .with_temperature(Celsius::new(temperature))
                    .with_clock(Megahertz::new(clock));
                let bounded: Vec<u32> = genes
                    .iter()
                    .zip(&SegmentProgram::gene_bounds())
                    .map(|(g, (lo, hi))| lo + g % (hi - lo + 1))
                    .collect();
                let program = SegmentProgram::from_genes(&bounded).expect("bounded genes decode");
                let vectors = words
                    .iter()
                    .map(|&w| match w % 3 {
                        0 => TestVector::write((w >> 2) as u16, (w >> 18) as u16),
                        1 => TestVector::read((w >> 2) as u16, (w >> 18) as u16),
                        _ => TestVector::nop(),
                    })
                    .collect();
                let tests = [
                    Test::from_program("p", TestSource::NeuralGa, program, conditions),
                    Test::new("r", TestSource::Random, Pattern::new_clamped(vectors), conditions),
                ];
                for test in &tests {
                    prop_assert_eq!(PreparedTest::new(test).identity(), test.identity());
                }
            }
        }
    }
}
