//! The non-deterministic random test generator of the paper's refs \[9\]\[10\].
//!
//! §3 proposes determining the worst-case trip point "with respect to
//! different non-deterministic random tests" produced by "the random test
//! generator based on [9-10]". Those companion papers randomize both the
//! stimulus structure and the test conditions; we reproduce that by drawing
//! a random [`SegmentProgram`] (random segment count, random sequencing
//! modes and parameters) plus random [`TestConditions`] from a
//! [`ConditionSpace`].

use crate::conditions::{ConditionSpace, TestConditions};
use crate::program::{AddrMode, DataMode, OpMode, Segment, SegmentProgram};
use crate::test::{Test, TestSource};
use rand::Rng;
use std::fmt::Write as _;

/// Draws a random ALPG segment.
pub fn random_segment<R: Rng + ?Sized>(rng: &mut R) -> Segment {
    let op = match rng.gen_range(0..5) {
        0 => OpMode::WriteOnly,
        1 => OpMode::ReadOnly,
        2 => OpMode::WritePairRead,
        3 => OpMode::AlternateWriteRead,
        _ => OpMode::WriteOnceReadBurst,
    };
    let addr = match rng.gen_range(0..5) {
        0 => AddrMode::Sequential {
            stride: rng.gen_range(-8i16..=8),
        },
        1 => AddrMode::Toggle { mask: rng.gen() },
        2 => AddrMode::Hold,
        3 => AddrMode::Lcg { seed: rng.gen() },
        _ => AddrMode::RowBounce {
            distance: rng.gen_range(1..=128),
        },
    };
    let data = match rng.gen_range(0..5) {
        0 => DataMode::Constant(rng.gen()),
        1 => DataMode::Alternating(rng.gen()),
        2 => DataMode::InvertPrevious,
        3 => DataMode::WalkingOne,
        _ => DataMode::Lcg(rng.gen()),
    };
    Segment::new(op, addr, data, rng.gen_range(2..=125), rng.gen())
        .expect("sampled length is in range")
}

/// Draws a random segment program with 2–8 segments.
pub fn random_program<R: Rng + ?Sized>(rng: &mut R) -> SegmentProgram {
    let count = rng.gen_range(2..=SegmentProgram::MAX_SEGMENTS);
    let segments = (0..count).map(|_| random_segment(rng)).collect();
    SegmentProgram::new(segments)
        .expect("sampled count is in range")
        .with_loops(rng.gen_range(1..=10))
}

/// Draws a complete random test: random program and random conditions.
///
/// # Examples
///
/// ```
/// use cichar_patterns::{random::random_test, ConditionSpace};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let test = random_test(&mut rng, &ConditionSpace::default());
/// assert!(test.pattern().len() >= 100);
/// assert!(ConditionSpace::default().validate(test.conditions()).is_ok());
/// ```
pub fn random_test<R: Rng + ?Sized>(rng: &mut R, space: &ConditionSpace) -> Test {
    let program = random_program(rng);
    let conditions = space.sample(rng);
    Test::from_program(random_name(rng), TestSource::Random, program, conditions)
}

/// Draws a random test at fixed (typically nominal) conditions.
///
/// Table 1's *Random* row varies only the stimulus at Vdd = 1.8 V; this is
/// the generator for that row.
pub fn random_test_at<R: Rng + ?Sized>(rng: &mut R, conditions: TestConditions) -> Test {
    let program = random_program(rng);
    Test::from_program(random_name(rng), TestSource::Random, program, conditions)
}

/// `random_` and eight hex digits of the next draw, written into a string
/// sized for exactly that (`format!` would reserve less, then grow).
fn random_name<R: Rng + ?Sized>(rng: &mut R) -> String {
    let mut name = String::with_capacity("random_".len() + 8);
    let _ = write!(name, "random_{:08x}", rng.gen::<u32>());
    name
}

/// Draws `count` random tests.
pub fn random_suite<R: Rng + ?Sized>(
    rng: &mut R,
    space: &ConditionSpace,
    count: usize,
) -> Vec<Test> {
    (0..count).map(|_| random_test(rng, space)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    #[test]
    fn random_programs_expand_in_window() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..100 {
            let p = random_program(&mut rng).expand();
            assert!(p.len() >= crate::MIN_PATTERN_LEN);
            assert!(p.len() <= crate::MAX_PATTERN_LEN);
        }
    }

    #[test]
    fn random_tests_are_distinct() {
        let mut rng = StdRng::seed_from_u64(12);
        let space = ConditionSpace::default();
        let hashes: HashSet<u64> = (0..50)
            .map(|_| random_test(&mut rng, &space).pattern().content_hash())
            .collect();
        assert!(hashes.len() > 45, "only {} distinct patterns", hashes.len());
    }

    #[test]
    fn random_test_is_reproducible_by_seed() {
        let space = ConditionSpace::default();
        let a = random_test(&mut StdRng::seed_from_u64(99), &space);
        let b = random_test(&mut StdRng::seed_from_u64(99), &space);
        assert_eq!(a.pattern(), b.pattern());
        assert_eq!(a.conditions(), b.conditions());
    }

    #[test]
    fn random_names_fill_exactly_the_string_they_reserve() {
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..20 {
            let name = random_name(&mut rng);
            assert!(name.starts_with("random_"), "{name}");
            assert_eq!((name.len(), name.capacity()), (15, 15), "{name}");
        }
    }

    #[test]
    fn random_test_at_pins_conditions() {
        let mut rng = StdRng::seed_from_u64(5);
        let nominal = TestConditions::nominal();
        for _ in 0..20 {
            let t = random_test_at(&mut rng, nominal);
            assert_eq!(*t.conditions(), nominal);
        }
    }

    #[test]
    fn random_suite_has_requested_size_and_source() {
        let mut rng = StdRng::seed_from_u64(6);
        let suite = random_suite(&mut rng, &ConditionSpace::default(), 17);
        assert_eq!(suite.len(), 17);
        assert!(suite.iter().all(|t| t.source() == TestSource::Random));
    }

    #[test]
    fn random_segments_cover_all_op_modes() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut seen = HashSet::new();
        for _ in 0..200 {
            seen.insert(std::mem::discriminant(&random_segment(&mut rng).op));
        }
        assert_eq!(seen.len(), 5, "all five op modes should appear");
    }
}
