//! The characterization test: stimulus plus conditions.

use crate::conditions::TestConditions;
use crate::features::{FeatureFold, PatternFeatures};
use crate::pattern::{ContentHash, Pattern};
use crate::program::SegmentProgram;
use crate::vector::TestVector;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Where a test came from — Table 1's *Technique* column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TestSource {
    /// Pre-defined deterministic pattern (March & friends).
    Deterministic,
    /// The refs-\[9\]\[10\] random test generator.
    Random,
    /// Proposed by the fuzzy-neural test generator (sub-optimal candidate).
    Neural,
    /// Produced by the genetic-algorithm optimization.
    NeuralGa,
}

impl fmt::Display for TestSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TestSource::Deterministic => "Deterministic",
            TestSource::Random => "Random",
            TestSource::Neural => "Neural",
            TestSource::NeuralGa => "Neural & Genetic",
        })
    }
}

/// The stimulus half of a test: either a compact program or raw vectors.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Stimulus {
    /// An ALPG segment program, expanded on demand.
    Program(SegmentProgram),
    /// An explicit vector list (used by the deterministic generators).
    Raw(Pattern),
}

impl Stimulus {
    /// Expands (or clones) into the concrete vector stream.
    pub fn pattern(&self) -> Pattern {
        match self {
            Stimulus::Program(p) => p.expand(),
            Stimulus::Raw(p) => p.clone(),
        }
    }

    /// The pattern's features, cycle count and content hash from one walk
    /// over its vector stream; no [`Pattern`] is built or cloned.
    ///
    /// Equal, bit for bit, to [`PatternFeatures::extract`],
    /// [`Pattern::len`] and [`Pattern::content_hash`] of
    /// [`Self::pattern`].
    pub fn digest(&self) -> StimulusDigest {
        let mut features = FeatureFold::new();
        let mut hash = ContentHash::new();
        self.for_each_vector(|v| {
            features.push(v);
            hash.push(v);
        });
        StimulusDigest {
            cycles: features.cycles() as u64,
            features: features.finish(),
            content_hash: hash.finish(),
        }
    }

    /// [`Self::digest`]'s features alone, for a caller that needs neither
    /// the cycle count nor the hash.
    pub fn features(&self) -> PatternFeatures {
        let mut features = FeatureFold::new();
        self.for_each_vector(|v| features.push(v));
        features.finish()
    }

    /// Calls `emit` on each vector of [`Self::pattern`], in order.
    fn for_each_vector(&self, mut emit: impl FnMut(TestVector)) {
        match self {
            Stimulus::Program(p) => p.for_each_vector(emit),
            Stimulus::Raw(p) => p.iter().for_each(|&v| emit(v)),
        }
    }
}

/// What one walk over a stimulus yields: see [`Stimulus::digest`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StimulusDigest {
    /// The pattern's stress features.
    pub features: PatternFeatures,
    /// Cycles one application of the pattern costs.
    pub cycles: u64,
    /// The pattern's [`Pattern::content_hash`].
    pub content_hash: u64,
}

/// A complete characterization test: name, provenance, stimulus and
/// conditions.
///
/// This is the unit the whole pipeline moves around — what the ATE executes
/// (eq. 1's `T_n`), what the NN learns from, what the GA evolves, and what
/// the worst-case database stores.
///
/// # Examples
///
/// ```
/// use cichar_patterns::{march, Test, TestSource};
///
/// let test = Test::deterministic("march_c-", march::march_c_minus(64));
/// assert_eq!(test.source(), TestSource::Deterministic);
/// assert_eq!(test.pattern().len(), 640);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Test {
    name: String,
    source: TestSource,
    stimulus: Stimulus,
    conditions: TestConditions,
}

impl Test {
    /// Creates a test from an explicit pattern.
    pub fn new(
        name: impl Into<String>,
        source: TestSource,
        pattern: Pattern,
        conditions: TestConditions,
    ) -> Self {
        Self {
            name: name.into(),
            source,
            stimulus: Stimulus::Raw(pattern),
            conditions,
        }
    }

    /// Creates a test from a segment program.
    pub fn from_program(
        name: impl Into<String>,
        source: TestSource,
        program: SegmentProgram,
        conditions: TestConditions,
    ) -> Self {
        Self {
            name: name.into(),
            source,
            stimulus: Stimulus::Program(program),
            conditions,
        }
    }

    /// Convenience: a deterministic test at nominal conditions.
    pub fn deterministic(name: impl Into<String>, pattern: Pattern) -> Self {
        Self::new(
            name,
            TestSource::Deterministic,
            pattern,
            TestConditions::nominal(),
        )
    }

    /// The test's human-readable name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Provenance of the test.
    pub fn source(&self) -> TestSource {
        self.source
    }

    /// The stimulus, unexpanded.
    pub fn stimulus(&self) -> &Stimulus {
        &self.stimulus
    }

    /// The concrete vector stream this test applies.
    pub fn pattern(&self) -> Pattern {
        self.stimulus.pattern()
    }

    /// The environmental conditions this test runs at.
    pub fn conditions(&self) -> &TestConditions {
        &self.conditions
    }

    /// Returns a copy with different conditions (used when shmooing the
    /// same stimulus across a voltage axis).
    pub fn with_conditions(&self, conditions: TestConditions) -> Self {
        Self {
            conditions,
            ..self.clone()
        }
    }

    /// Returns a copy re-labelled with a new name and source (used when the
    /// GA promotes a candidate into the worst-case database).
    pub fn relabel(&self, name: impl Into<String>, source: TestSource) -> Self {
        Self {
            name: name.into(),
            source,
            ..self.clone()
        }
    }

    /// Stable identity for deduplication: stimulus hash plus quantized
    /// conditions.
    ///
    /// This walks the stimulus to hash it. A caller holding a
    /// `PreparedTest` (`cichar-ate`) has the hash already and should use
    /// that test's `identity()` instead.
    pub fn identity(&self) -> u64 {
        self.identity_from_hash(self.stimulus.digest().content_hash)
    }

    /// [`Self::identity`] from the [`Pattern::content_hash`] of this
    /// test's own pattern, for a caller that has already hashed it (for
    /// example through [`Stimulus::digest`]).
    pub fn identity_from_hash(&self, pattern_hash: u64) -> u64 {
        let mix = |h: u64, v: u64| {
            (h ^ v)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .rotate_left(31)
        };
        let q = |x: f64| (x * 1000.0).round() as i64 as u64;
        let mut h = pattern_hash;
        h = mix(h, q(self.conditions.vdd.value()));
        h = mix(h, q(self.conditions.temperature.value()));
        h = mix(h, q(self.conditions.clock.value()));
        h
    }
}

impl fmt::Display for Test {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] @ {}",
            self.name, self.source, self.conditions
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::tests::extract_reference;
    use crate::march;
    use crate::pattern::tests::content_hash_reference;
    use crate::program::tests::{expand_with_image, in_bounds, mode_combination};
    use crate::program::{AddrMode, DataMode, OpMode, Segment, SegmentProgram};
    use cichar_units::Volts;
    use proptest::prelude::*;

    /// Every feature's bits, so `-0.0` and `+0.0` differ (the derived
    /// `PartialEq` treats them as equal).
    fn feature_bits(f: &PatternFeatures) -> [u64; crate::FEATURE_COUNT] {
        f.to_array().map(f64::to_bits)
    }

    /// `stimulus`'s digest and features pass against the references run on
    /// `pattern`, the stimulus's pattern built by reference code: the
    /// collected-bursts extraction, the vector count and the byte-mixing
    /// hash, all compared by bits. The public `extract` and
    /// `content_hash` folds must agree too.
    fn check_digest(stimulus: &Stimulus, pattern: &Pattern) -> Result<(), String> {
        let want = feature_bits(&extract_reference(pattern));
        let digest = stimulus.digest();
        prop_assert_eq!(feature_bits(&digest.features), want);
        prop_assert_eq!(feature_bits(&stimulus.features()), want);
        prop_assert_eq!(feature_bits(&PatternFeatures::extract(pattern)), want);
        prop_assert_eq!(digest.cycles, pattern.len() as u64);
        prop_assert_eq!(digest.content_hash, content_hash_reference(pattern));
        prop_assert_eq!(pattern.content_hash(), digest.content_hash);
        Ok(())
    }

    fn check_program(program: &SegmentProgram) -> Result<(), String> {
        check_digest(
            &Stimulus::Program(program.clone()),
            &expand_with_image(program),
        )
    }

    /// Every op × address × data mode combination, among them programs
    /// cut at 1,000 vectors and programs padded to 100 (the expansion
    /// sweep in `program.rs` checks that both occur), then the shortest
    /// program (one 2-cycle segment) and the longest (8 × 125 cycles × 10
    /// loops).
    #[test]
    fn digest_of_every_mode_combination_matches_the_references() {
        for combo in 0..125u32 {
            check_program(&mode_combination(combo))
                .unwrap_or_else(|e| panic!("combination {combo}: {e}"));
        }
        let segment = |op, len| {
            Segment::new(op, AddrMode::Lcg { seed: 9 }, DataMode::Lcg(3), len, 0x0F00)
                .expect("valid")
        };
        let shortest = SegmentProgram::new(vec![segment(OpMode::ReadOnly, 2)]).expect("valid");
        let longest = SegmentProgram::new(vec![segment(OpMode::WritePairRead, 125); 8])
            .expect("valid")
            .with_loops(10);
        for program in [shortest, longest] {
            check_program(&program).unwrap_or_else(|e| panic!("{program}: {e}"));
        }
    }

    /// Read bursts at the resonance table's end (63, 64 and 65 reads),
    /// bursts longer than a segment (back-to-back read-only segments, and
    /// one looped), caps that fall inside a segment, and a raw pattern
    /// whose reads are split by NOPs.
    #[test]
    fn digest_of_burst_edges_and_cuts_matches_the_references() {
        let segment = |op, len| {
            Segment::new(
                op,
                AddrMode::Lcg { seed: 5 },
                DataMode::Alternating(0x5555),
                len,
                0x0200,
            )
            .expect("valid")
        };
        let reads = |len| segment(OpMode::ReadOnly, len);
        let writes = |len| segment(OpMode::WriteOnly, len);
        let program = |segments: Vec<Segment>, loops| {
            SegmentProgram::new(segments)
                .expect("valid")
                .with_loops(loops)
        };
        let longest_burst = |program: &SegmentProgram| {
            check_program(program).unwrap_or_else(|e| panic!("{program}: {e}"));
            let features = Stimulus::Program(program.clone()).features();
            (features.read_burst_max * 125.0).round() as usize
        };
        for len in [63, 64, 65] {
            let edge = program(vec![writes(8), reads(len), writes(8)], 1);
            assert_eq!(longest_burst(&edge), usize::from(len));
        }
        // 290 reads over three segments, and 900 over ten loops of one:
        // both clamp `read_burst_max` to 1.
        let chained = program(
            vec![writes(4), reads(125), reads(125), reads(40), writes(2)],
            1,
        );
        let looped = program(vec![reads(90)], 10);
        for long in [chained, looped] {
            assert_eq!(longest_burst(&long), 125, "{long}");
        }
        // 960 reads a loop, cut 40 reads into the second loop: the
        // 1,000-read burst closes at the cut. Then 492 cycles a loop, cut
        // 13 reads into the third loop's first read segment.
        let cut_long = program(vec![reads(120); 8], 2);
        let cut_short = program([writes(3), reads(120)].repeat(4), 3);
        for (cut, longest) in [(cut_long, 125), (cut_short, 120)] {
            assert!(cut.cycle_count() > crate::MAX_PATTERN_LEN, "{cut}");
            assert_eq!(longest_burst(&cut), longest, "{cut}");
        }

        // Each read pair spans a NOP, so it counts for SSO, but every NOP
        // closes a one-read burst.
        let vectors = (0..300u16)
            .map(|i| match i % 4 {
                0 => TestVector::read(i, 0x5555),
                2 => TestVector::read(i, 0xAAAA),
                _ => TestVector::nop(),
            })
            .collect();
        let raw = Pattern::new(vectors).expect("300 cycles");
        check_digest(&Stimulus::Raw(raw.clone()), &raw).expect("matches the references");
        let features = Stimulus::Raw(raw).features();
        assert_eq!(features.dq_sso_mean, 1.0);
        assert_eq!(features.read_burst_max, 1.0 / 125.0);
    }

    /// A stimulus read back refuses what the constructors never build: a
    /// raw pattern outside 100–1,000 vectors, a segment outside 2–125
    /// cycles, a program with no segment or more than eight, and a loop
    /// count outside 1–10. The texts at each limit are the serializer's
    /// own, and read back to the stimulus that wrote them.
    #[test]
    fn deserialized_stimuli_keep_the_constructors_rules() {
        let segment = |len: u16| {
            format!(
                r#"{{"op":"ReadOnly","addr":"Hold","data":{{"Constant":7}},"len":{len},"base":3}}"#
            )
        };
        let program = |lens: &[u16], loops: u16| {
            let segments: Vec<String> = lens.iter().map(|&len| segment(len)).collect();
            format!(
                r#"{{"Program":{{"segments":[{}],"loops":{loops}}}}}"#,
                segments.join(",")
            )
        };
        let nop = serde_json::to_string(&TestVector::nop()).expect("serializes");
        let raw = |n: usize| {
            format!(
                r#"{{"Raw":{{"vectors":[{}]}}}}"#,
                vec![nop.as_str(); n].join(",")
            )
        };

        let read_only = |len| {
            Segment::new(
                OpMode::ReadOnly,
                AddrMode::Hold,
                DataMode::Constant(7),
                len,
                3,
            )
            .expect("valid")
        };
        let at_limits = [
            (
                program(&[125], 1),
                Stimulus::Program(SegmentProgram::new(vec![read_only(125)]).expect("valid")),
            ),
            (
                program(&[2; 8], 10),
                Stimulus::Program(
                    SegmentProgram::new(vec![read_only(2); 8])
                        .expect("valid")
                        .with_loops(10),
                ),
            ),
            (
                raw(100),
                Stimulus::Raw(Pattern::new(vec![TestVector::nop(); 100]).expect("valid")),
            ),
            (
                raw(1000),
                Stimulus::Raw(Pattern::new(vec![TestVector::nop(); 1000]).expect("valid")),
            ),
        ];
        for (text, stimulus) in at_limits {
            assert_eq!(serde_json::to_string(&stimulus).expect("serializes"), text);
            let back: Stimulus = serde_json::from_str(&text).expect("deserializes");
            assert_eq!(back, stimulus);
        }

        let refused = [
            ("99 vectors", raw(99)),
            ("1,001 vectors", raw(1001)),
            ("a 1-cycle segment", program(&[1], 1)),
            ("a 126-cycle segment", program(&[126], 1)),
            ("no segment", program(&[], 1)),
            ("nine segments", program(&[2; 9], 1)),
            ("no loop", program(&[2], 0)),
            ("eleven loops", program(&[2], 11)),
        ];
        for (what, text) in refused {
            assert!(
                serde_json::from_str::<Stimulus>(&text).is_err(),
                "{what} deserialized"
            );
        }
    }

    /// A pattern without a read burst sums no resonance term: the
    /// feature keeps `Iterator::sum`'s `-0.0`.
    #[test]
    fn a_pattern_without_read_bursts_keeps_negative_zero_resonance() {
        let seg = Segment::new(
            OpMode::WriteOnly,
            AddrMode::Hold,
            DataMode::WalkingOne,
            40,
            7,
        )
        .expect("valid");
        let stimulus = Stimulus::Program(SegmentProgram::new(vec![seg]).expect("valid"));
        for features in [stimulus.digest().features, stimulus.features()] {
            assert_eq!(features.burst_resonance.to_bits(), (-0.0f64).to_bits());
        }
        check_digest(&stimulus, &stimulus.pattern()).expect("matches the references");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// Random in-bounds gene strings (1–8 segments of 2–125 cycles,
        /// 1–10 loops, every mode) and raw vector lists of 1–1,199
        /// words, clamped into a pattern.
        #[test]
        fn digest_matches_the_references(
            genes in proptest::collection::vec(0u32..=u32::from(u16::MAX), SegmentProgram::GENE_COUNT),
            words in proptest::collection::vec(0u32..=u32::MAX, 1..1200),
        ) {
            let program = SegmentProgram::from_genes(&in_bounds(&genes)).expect("bounded genes decode");
            check_program(&program)?;
            let vectors = words
                .iter()
                .map(|&w| match w % 3 {
                    // Few addresses, so reads often hit the last write.
                    0 => TestVector::write((w >> 2) as u16 & 0x3F, (w >> 18) as u16),
                    1 => TestVector::read((w >> 2) as u16 & 0x3F, (w >> 18) as u16),
                    _ => TestVector::nop(),
                })
                .collect();
            let raw = Pattern::new_clamped(vectors);
            check_digest(&Stimulus::Raw(raw.clone()), &raw)?;
        }
    }

    fn program_test() -> Test {
        let seg = Segment::new(
            OpMode::ReadOnly,
            AddrMode::Hold,
            DataMode::Constant(0),
            100,
            0,
        )
        .expect("valid");
        Test::from_program(
            "prog",
            TestSource::Random,
            SegmentProgram::new(vec![seg]).expect("valid"),
            TestConditions::nominal(),
        )
    }

    #[test]
    fn deterministic_constructor_sets_nominal_conditions() {
        let t = Test::deterministic("m", march::march_x(96));
        assert_eq!(*t.conditions(), TestConditions::nominal());
        assert_eq!(t.source(), TestSource::Deterministic);
        assert_eq!(t.name(), "m");
    }

    #[test]
    fn program_stimulus_expands_lazily() {
        let t = program_test();
        assert_eq!(t.pattern().len(), 100);
        assert!(matches!(t.stimulus(), Stimulus::Program(_)));
    }

    #[test]
    fn with_conditions_changes_only_conditions() {
        let t = program_test();
        let moved = t.with_conditions(TestConditions::nominal().with_vdd(Volts::new(1.6)));
        assert_eq!(moved.pattern(), t.pattern());
        assert_eq!(moved.conditions().vdd.value(), 1.6);
    }

    #[test]
    fn relabel_changes_name_and_source() {
        let t = program_test().relabel("wc_001", TestSource::NeuralGa);
        assert_eq!(t.name(), "wc_001");
        assert_eq!(t.source(), TestSource::NeuralGa);
    }

    #[test]
    fn identity_distinguishes_conditions() {
        let t = program_test();
        let moved = t.with_conditions(TestConditions::nominal().with_vdd(Volts::new(1.6)));
        assert_ne!(t.identity(), moved.identity());
        assert_eq!(t.identity(), program_test().identity());
    }

    #[test]
    fn display_mentions_name_and_technique() {
        let s = program_test().to_string();
        assert!(s.contains("prog") && s.contains("Random"), "{s}");
    }

    #[test]
    fn source_display_matches_table1_vocabulary() {
        assert_eq!(TestSource::NeuralGa.to_string(), "Neural & Genetic");
        assert_eq!(TestSource::Deterministic.to_string(), "Deterministic");
    }

    #[test]
    fn test_serde_round_trip() {
        let t = program_test();
        let json = serde_json::to_string(&t).expect("serialize");
        let back: Test = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, t);
    }
}
