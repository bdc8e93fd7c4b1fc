//! Seeded mini campaign inputs shared by the golden-trace and
//! sink-independence suites: small enough for debug builds, yet each
//! exercises every phase of the campaign it feeds.

use cichar::core::compare::CompareConfig;
use cichar::core::learning::LearningConfig;
use cichar::core::optimization::OptimizationConfig;
use cichar::genetic::GaConfig;
use cichar::neural::TrainConfig;
use cichar::patterns::{random, ConditionSpace, Test};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Seed shared by all golden campaigns (distinct from the repro binaries'
/// seed so fixture churn never couples to `EXPERIMENTS.md` numbers).
pub const GOLD_SEED: u64 = 0x601D_DA7E;

/// `n` seeded random tests over the default condition space.
pub fn gold_tests(n: usize) -> Vec<Test> {
    let space = ConditionSpace::default();
    random::random_suite(&mut StdRng::seed_from_u64(GOLD_SEED), &space, n)
}

/// A Table 1 comparison small enough for a test but exercising all three
/// phases (march / random / nnga), including committee training (the
/// learning round measures 12 tests, comfortably above the 8 converged
/// inputs training needs) and the GA.
pub fn mini_table1_config() -> CompareConfig {
    CompareConfig {
        random_tests: 8,
        learning: LearningConfig {
            tests_per_round: 12,
            max_rounds: 1,
            committee_size: 2,
            hidden: vec![6],
            train: TrainConfig {
                epochs: 20,
                ..TrainConfig::default()
            },
            ..LearningConfig::default()
        },
        nn_candidates: 60,
        nn_seeds: 3,
        optimization: OptimizationConfig {
            ga: GaConfig {
                population_size: 8,
                islands: 1,
                generations: 3,
                ..GaConfig::default()
            },
            ..OptimizationConfig::default()
        },
        ..CompareConfig::default()
    }
}
