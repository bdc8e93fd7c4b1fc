//! Test patterns and test conditions for semiconductor device
//! characterization.
//!
//! A *test* in the sense of the DATE'05 paper is the pair of an input
//! stimulus (a short functional pattern of 100–1000 vector cycles, §3) and a
//! set of environmental *test conditions* (supply voltage, temperature,
//! clock). This crate provides:
//!
//! * the raw stimulus vocabulary — [`MemOp`], [`TestVector`], [`Pattern`];
//! * [`SegmentProgram`], a compact ALPG-style pattern representation that
//!   deterministically expands to a [`Pattern`] and doubles as the genome
//!   the genetic algorithm evolves;
//! * deterministic generators ([`march`]) and the random test generator of
//!   the paper's refs \[9\]\[10\] ([`random`]);
//! * [`TestConditions`] and [`ConditionSpace`] for condition randomization;
//! * [`PatternFeatures`] — the stress features (simultaneous-switching
//!   activity, address-bus activity, read-burst structure, …) that both the
//!   device model's response surface and the neural network's input
//!   encoding consume.
//!
//! # Examples
//!
//! ```
//! use cichar_patterns::{march, ConditionSpace, PatternFeatures, Test};
//! use rand::SeedableRng;
//!
//! // A deterministic March C- baseline at nominal conditions.
//! let test = Test::deterministic("march_c-", march::march_c_minus(64));
//! let features = PatternFeatures::extract(&test.pattern());
//! assert!(features.read_fraction > 0.0);
//!
//! // A random test per the paper's refs [9][10].
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let space = ConditionSpace::default();
//! let random = cichar_patterns::random::random_test(&mut rng, &space);
//! assert!(random.pattern().len() >= 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod conditions;
mod features;
pub mod march;
mod pattern;
mod program;
pub mod random;
mod test;
mod vector;

pub use conditions::{ConditionSpace, ConditionsError, TestConditions};
pub use features::{
    FeatureNames, PatternFeatures, FEATURE_COUNT, RESONANCE_SIGMA, RESONANT_BURST_LEN,
};
pub use pattern::{Pattern, PatternError, MAX_PATTERN_LEN, MIN_PATTERN_LEN};
pub use program::{
    power_up_word, AddrMode, DataMode, OpMode, ProgramError, Segment, SegmentProgram,
};
pub use test::{Stimulus, StimulusDigest, Test, TestSource};
pub use vector::{
    hamming, MemOp, TestVector, ADDR_BITS, ADDR_SPACE, COL_MASK, DATA_BITS, ROW_SHIFT,
};
