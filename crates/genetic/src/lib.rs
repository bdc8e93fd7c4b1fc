//! Genetic algorithm for worst-case test optimization.
//!
//! §5 of the paper: "In order to deal with two different types of
//! chromosomes — test sequences and test conditions — we have developed a
//! GA method evolving multiple populations of different individuals over a
//! number of generations", with fitness measured on the ATE, restart of "a
//! brand new population" whenever "GA fitness value can not improve
//! anymore", and termination on a step budget (fig. 5).
//!
//! The crate is domain-agnostic: an [`Individual`] is a fixed layout of
//! integer chromosomes described by [`GenomeSpec`]s; the characterization
//! stack supplies the decoding (genes → test) and the fitness (measured
//! WCR). The [`GaEngine`] provides tournament selection, one-point /
//! uniform crossover, bounded mutation, elitism, island populations with
//! migration, stagnation-triggered restarts and seeding (the fuzzy-neural
//! generator's sub-optimal tests initialize the first population).
//! [`GaEngine::run`] scores with a closure; [`GaEngine::run_seeded`] takes
//! seeds and any [`FitnessEvaluator`], which scores each generation's
//! brood as one batch.
//!
//! # Examples
//!
//! Maximize the number of ones — the canonical GA smoke test:
//!
//! ```
//! use cichar_genetic::{GaConfig, GaEngine, GenomeSpec, SpeciesLayout};
//! use rand::SeedableRng;
//!
//! let layout = SpeciesLayout::new(vec![GenomeSpec::uniform(32, 0, 1)]);
//! let config = GaConfig { generations: 60, ..GaConfig::default() };
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let result = GaEngine::new(config, layout).run(
//!     |ind| ind.chromosome(0).iter().sum::<u32>() as f64,
//!     &mut rng,
//! );
//! assert!(result.best_fitness >= 30.0, "got {}", result.best_fitness);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod genome;

pub use engine::{FitnessEvaluator, GaConfig, GaEngine, GaResult, GenerationStats};
pub use genome::{GenomeSpec, Individual, SpeciesLayout};
