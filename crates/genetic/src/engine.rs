//! The multi-population GA engine (fig. 5, steps 3–4).

use crate::genome::{Individual, SpeciesLayout};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// GA hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GaConfig {
    /// Individuals per island population.
    pub population_size: usize,
    /// Number of island populations ("evolving multiple populations of
    /// different individuals", §5).
    pub islands: usize,
    /// Generation budget across the whole run (fig. 5's "maximum
    /// optimization steps").
    pub generations: usize,
    /// Probability a selected pair recombines (else the parents clone).
    pub crossover_rate: f64,
    /// Per-locus mutation probability.
    pub mutation_rate: f64,
    /// Individuals copied unchanged into the next generation, per island.
    pub elitism: usize,
    /// Tournament size for parent selection.
    pub tournament: usize,
    /// Generations between migrations of the best individuals.
    pub migration_interval: usize,
    /// Individuals migrating per island at each migration.
    pub migrants: usize,
    /// Restart an island with fresh random individuals after this many
    /// generations without improvement (fig. 5: "a brand new population
    /// will start GA again"). Zero disables restarts.
    pub stagnation_restart: usize,
    /// Stop the run as soon as the best fitness reaches this value —
    /// fig. 5's "until … the worst case is detected based on worst case
    /// ratio theorem". `None` runs the full generation budget.
    pub target_fitness: Option<f64>,
}

impl Default for GaConfig {
    fn default() -> Self {
        Self {
            population_size: 40,
            islands: 3,
            generations: 80,
            crossover_rate: 0.9,
            mutation_rate: 0.08,
            elitism: 2,
            tournament: 3,
            migration_interval: 10,
            migrants: 2,
            stagnation_restart: 15,
            target_fitness: None,
        }
    }
}

/// Per-generation statistics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GenerationStats {
    /// Generation index (0-based).
    pub generation: usize,
    /// Best fitness seen so far (across all islands and generations).
    pub best_so_far: f64,
    /// Best fitness within this generation.
    pub generation_best: f64,
    /// Mean fitness of this generation across islands.
    pub mean: f64,
}

/// The result of a GA run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaResult {
    /// The best individual ever evaluated.
    pub best: Individual,
    /// Its fitness.
    pub best_fitness: f64,
    /// Per-generation statistics.
    pub history: Vec<GenerationStats>,
    /// Total fitness evaluations performed (= ATE measurements in the
    /// characterization setting).
    pub evaluations: usize,
    /// How many island restarts stagnation triggered.
    pub restarts: usize,
}

impl fmt::Display for GaResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "best fitness {:.4} after {} evaluations ({} restarts)",
            self.best_fitness, self.evaluations, self.restarts
        )
    }
}

#[derive(Debug, Clone)]
struct Scored {
    individual: Individual,
    fitness: f64,
}

/// Scores individuals for the engine.
///
/// The engine generates every child of a generation *before* scoring any
/// of them (generation draws from the engine RNG; scoring must not), then
/// hands the whole brood to [`FitnessEvaluator::evaluate_batch`]. A plain
/// `FnMut(&Individual) -> f64` closure is an evaluator via the blanket
/// impl and scores the batch one by one; measurement-backed evaluators
/// (the characterization stack's WCR fitness) override `evaluate_batch`
/// to fan the brood out across per-evaluation tester sessions. Either way
/// the engine's RNG stream and the order fitness values are consumed in
/// are identical, so the GA result is the same.
pub trait FitnessEvaluator {
    /// Scores one individual.
    fn evaluate(&mut self, individual: &Individual) -> f64;

    /// Scores a batch, returning fitnesses index-aligned with `batch`.
    /// Implementations may evaluate concurrently, but the returned order
    /// must match the input order.
    fn evaluate_batch(&mut self, batch: &[Individual]) -> Vec<f64> {
        batch.iter().map(|ind| self.evaluate(ind)).collect()
    }
}

impl<F: FnMut(&Individual) -> f64> FitnessEvaluator for F {
    fn evaluate(&mut self, individual: &Individual) -> f64 {
        self(individual)
    }
}

/// Scores `individuals` in order through the evaluator, charging the
/// engine's evaluation counter.
fn score_batch<F: FitnessEvaluator + ?Sized>(
    individuals: Vec<Individual>,
    evaluations: &mut usize,
    fitness: &mut F,
) -> Vec<Scored> {
    *evaluations += individuals.len();
    let fits = fitness.evaluate_batch(&individuals);
    debug_assert_eq!(fits.len(), individuals.len(), "evaluator must score all");
    individuals
        .into_iter()
        .zip(fits)
        .map(|(individual, fitness)| Scored {
            individual,
            fitness,
        })
        .collect()
}

/// The engine: island populations, tournament selection, elitism,
/// migration and stagnation restarts. Fitness is always *maximized*; the
/// characterization stack maximizes WCR directly (eqs. 5–6 are both
/// "largest WCR wins").
///
/// # Examples
///
/// See the [crate-level docs](crate) for a complete run.
#[derive(Debug, Clone, PartialEq)]
pub struct GaEngine {
    config: GaConfig,
    layout: SpeciesLayout,
}

impl GaEngine {
    /// Creates an engine.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate configuration (empty populations, zero
    /// islands, zero tournament).
    pub fn new(config: GaConfig, layout: SpeciesLayout) -> Self {
        assert!(config.population_size >= 2, "population too small");
        assert!(config.islands >= 1, "need at least one island");
        assert!(config.tournament >= 1, "tournament needs entrants");
        assert!(
            config.elitism < config.population_size,
            "elitism must leave room for offspring"
        );
        Self { config, layout }
    }

    /// The engine's layout.
    pub fn layout(&self) -> &SpeciesLayout {
        &self.layout
    }

    /// Runs with random initial populations.
    pub fn run<F, R>(&self, mut fitness: F, rng: &mut R) -> GaResult
    where
        F: FnMut(&Individual) -> f64,
        R: Rng + ?Sized,
    {
        self.run_seeded(Vec::new(), &mut fitness, rng)
    }

    /// Runs with the first population(s) seeded by known-promising
    /// individuals — fig. 5 step (1): "a number of GA test populations are
    /// initialized by a set of sub-optimal tests selected by fuzzy-neural
    /// network test generator".
    ///
    /// Seeds are distributed round-robin across islands; remaining slots
    /// fill randomly. Seeds that do not match the layout are ignored. The
    /// evaluator is borrowed so callers can inspect any state it
    /// accumulated after the run; closures are evaluators through the
    /// blanket impl.
    pub fn run_seeded<F, R>(&self, seeds: Vec<Individual>, fitness: &mut F, rng: &mut R) -> GaResult
    where
        F: FitnessEvaluator + ?Sized,
        R: Rng + ?Sized,
    {
        let c = &self.config;
        let mut evaluations = 0usize;

        // Initialize islands. Valid seeds go round-robin (capped at total
        // capacity), scored as one batch in seed order; each island's
        // random remainder is generated first — all engine-RNG draws —
        // then scored as a second batch.
        let accepted: Vec<Individual> = seeds
            .into_iter()
            .filter(|s| self.layout.validate(s))
            .take(c.islands * c.population_size)
            .collect();
        let mut islands: Vec<Vec<Scored>> = Vec::with_capacity(c.islands);
        for _ in 0..c.islands {
            islands.push(Vec::with_capacity(c.population_size));
        }
        for (j, scored) in score_batch(accepted, &mut evaluations, fitness)
            .into_iter()
            .enumerate()
        {
            islands[j % c.islands].push(scored);
        }
        for island in &mut islands {
            let fresh: Vec<Individual> = (island.len()..c.population_size)
                .map(|_| self.layout.random(rng))
                .collect();
            island.extend(score_batch(fresh, &mut evaluations, fitness));
        }

        let mut best: Scored = islands
            .iter()
            .flatten()
            .max_by(|a, b| a.fitness.total_cmp(&b.fitness))
            .expect("populations non-empty")
            .clone();
        let mut history = Vec::with_capacity(c.generations);
        let mut restarts = 0usize;
        let mut stagnant = vec![0usize; c.islands];
        let mut island_best = vec![f64::NEG_INFINITY; c.islands];

        for generation in 0..c.generations {
            // Migration: each island sends copies of its best to the next.
            if c.migration_interval > 0
                && c.islands > 1
                && generation > 0
                && generation % c.migration_interval == 0
            {
                // The collect is a deliberate snapshot: the placement loop
                // below mutates `islands`, so the emigrant reads cannot
                // borrow it lazily.
                #[allow(clippy::needless_collect)]
                let emigrants: Vec<Vec<Scored>> = islands
                    .iter()
                    .map(|island| {
                        let mut sorted: Vec<Scored> = island.clone();
                        sorted.sort_by(|a, b| b.fitness.total_cmp(&a.fitness));
                        sorted.into_iter().take(c.migrants).collect()
                    })
                    .collect();
                for (i, movers) in emigrants.into_iter().enumerate() {
                    let target = (i + 1) % c.islands;
                    let island = &mut islands[target];
                    island.sort_by(|a, b| b.fitness.total_cmp(&a.fitness));
                    for (slot, mover) in movers.into_iter().enumerate() {
                        let idx = island.len() - 1 - slot;
                        island[idx] = mover;
                    }
                }
            }

            // Evolve each island one generation. Selection and variation
            // read only the *previous* generation's fitness and exhaust
            // all engine-RNG draws up front, so the whole brood exists
            // before scoring starts and the evaluator may fan it out.
            for (i, island) in islands.iter_mut().enumerate() {
                island.sort_by(|a, b| b.fitness.total_cmp(&a.fitness));
                let elites: Vec<Scored> = island.iter().take(c.elitism).cloned().collect();
                let offspring = c.population_size - elites.len();
                let mut brood: Vec<Individual> = Vec::with_capacity(offspring);
                while brood.len() < offspring {
                    let pa = tournament(island, c.tournament, rng);
                    let pb = tournament(island, c.tournament, rng);
                    let (mut ca, mut cb) = if rng.gen::<f64>() < c.crossover_rate {
                        self.layout
                            .crossover(&pa.individual, &pb.individual, rng)
                    } else {
                        (pa.individual.clone(), pb.individual.clone())
                    };
                    self.layout.mutate(&mut ca, c.mutation_rate, rng);
                    self.layout.mutate(&mut cb, c.mutation_rate, rng);
                    // An odd brood still pays both children's variation
                    // draws; the spare child is simply never scored.
                    brood.push(ca);
                    if brood.len() < offspring {
                        brood.push(cb);
                    }
                }
                let mut next = elites;
                next.extend(score_batch(brood, &mut evaluations, fitness));
                *island = next;

                let gen_best = island
                    .iter()
                    .map(|s| s.fitness)
                    .fold(f64::NEG_INFINITY, f64::max);
                if gen_best > island_best[i] + 1e-12 {
                    island_best[i] = gen_best;
                    stagnant[i] = 0;
                } else {
                    stagnant[i] += 1;
                }

                // Stagnation restart: brand new random population, keeping
                // nothing (the hall-of-fame `best` survives outside).
                if c.stagnation_restart > 0 && stagnant[i] >= c.stagnation_restart {
                    restarts += 1;
                    stagnant[i] = 0;
                    island_best[i] = f64::NEG_INFINITY;
                    let fresh: Vec<Individual> = (0..c.population_size)
                        .map(|_| self.layout.random(rng))
                        .collect();
                    *island = score_batch(fresh, &mut evaluations, fitness);
                }
            }

            // Bookkeeping.
            let all: Vec<&Scored> = islands.iter().flatten().collect();
            let generation_best = all
                .iter()
                .map(|s| s.fitness)
                .fold(f64::NEG_INFINITY, f64::max);
            let mean = all.iter().map(|s| s.fitness).sum::<f64>() / all.len() as f64;
            if let Some(champion) = all
                .iter()
                .max_by(|a, b| a.fitness.total_cmp(&b.fitness))
            {
                if champion.fitness > best.fitness {
                    best = (*champion).clone();
                }
            }
            history.push(GenerationStats {
                generation,
                best_so_far: best.fitness,
                generation_best,
                mean,
            });
            if let Some(target) = c.target_fitness {
                if best.fitness >= target {
                    break;
                }
            }
        }

        GaResult {
            best: best.individual,
            best_fitness: best.fitness,
            history,
            evaluations,
            restarts,
        }
    }
}

fn tournament<'a, R: Rng + ?Sized>(
    island: &'a [Scored],
    k: usize,
    rng: &mut R,
) -> &'a Scored {
    let mut champion = &island[rng.gen_range(0..island.len())];
    for _ in 1..k {
        let challenger = &island[rng.gen_range(0..island.len())];
        if challenger.fitness > champion.fitness {
            champion = challenger;
        }
    }
    champion
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genome::GenomeSpec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn onemax_layout() -> SpeciesLayout {
        SpeciesLayout::new(vec![GenomeSpec::uniform(40, 0, 1)])
    }

    fn onemax(ind: &Individual) -> f64 {
        ind.chromosome(0).iter().sum::<u32>() as f64
    }

    #[test]
    fn solves_onemax() {
        let engine = GaEngine::new(
            GaConfig {
                generations: 80,
                ..GaConfig::default()
            },
            onemax_layout(),
        );
        let mut rng = StdRng::seed_from_u64(3);
        let result = engine.run(onemax, &mut rng);
        assert!(result.best_fitness >= 38.0, "{result}");
    }

    #[test]
    fn history_best_is_monotone() {
        let engine = GaEngine::new(GaConfig::default(), onemax_layout());
        let mut rng = StdRng::seed_from_u64(4);
        let result = engine.run(onemax, &mut rng);
        for pair in result.history.windows(2) {
            assert!(pair[1].best_so_far >= pair[0].best_so_far);
        }
        assert_eq!(result.history.len(), GaConfig::default().generations);
    }

    #[test]
    fn optimizes_two_chromosome_species() {
        // Sequence chromosome wants all-9s; condition chromosome wants the
        // exact value 500 in each locus — the two-species structure of §5.
        let layout = SpeciesLayout::new(vec![
            GenomeSpec::uniform(16, 0, 9),
            GenomeSpec::uniform(3, 0, 1000),
        ]);
        let engine = GaEngine::new(
            GaConfig {
                generations: 120,
                ..GaConfig::default()
            },
            layout,
        );
        let mut rng = StdRng::seed_from_u64(5);
        let result = engine.run(
            |ind| {
                let seq: f64 = ind.chromosome(0).iter().map(|&g| f64::from(g)).sum();
                let cond: f64 = ind
                    .chromosome(1)
                    .iter()
                    .map(|&g| 1.0 - (f64::from(g) - 500.0).abs() / 500.0)
                    .sum();
                seq / (16.0 * 9.0) + cond / 3.0
            },
            &mut rng,
        );
        assert!(result.best_fitness > 1.6, "{result}");
        for &g in result.best.chromosome(1) {
            assert!((f64::from(g) - 500.0).abs() < 120.0, "condition gene {g}");
        }
    }

    #[test]
    fn seeding_starts_from_known_good_individuals() {
        let layout = onemax_layout();
        // A seed two bits shy of optimal.
        let mut genes = vec![1u32; 40];
        genes[0] = 0;
        genes[1] = 0;
        let seed = Individual::new(vec![genes]);
        let engine = GaEngine::new(
            GaConfig {
                generations: 5,
                ..GaConfig::default()
            },
            layout,
        );
        let mut rng = StdRng::seed_from_u64(6);
        let seeded = engine.run_seeded(vec![seed], &mut onemax, &mut rng);
        // Even a 5-generation budget retains/improves the seed.
        assert!(seeded.best_fitness >= 38.0, "{seeded}");
    }

    #[test]
    fn invalid_seeds_are_ignored() {
        let engine = GaEngine::new(
            GaConfig {
                generations: 2,
                ..GaConfig::default()
            },
            onemax_layout(),
        );
        let bogus = Individual::new(vec![vec![5; 3]]); // wrong shape & bounds
        let mut rng = StdRng::seed_from_u64(7);
        let result = engine.run_seeded(vec![bogus], &mut onemax, &mut rng);
        assert!(result.best_fitness <= 40.0); // simply ran; no panic
    }

    #[test]
    fn stagnation_triggers_restarts_on_flat_fitness() {
        let engine = GaEngine::new(
            GaConfig {
                generations: 40,
                stagnation_restart: 5,
                islands: 2,
                ..GaConfig::default()
            },
            onemax_layout(),
        );
        let mut rng = StdRng::seed_from_u64(8);
        // Constant fitness: every island stagnates immediately.
        let result = engine.run(|_| 1.0, &mut rng);
        assert!(result.restarts >= 10, "restarts = {}", result.restarts);
        assert_eq!(result.best_fitness, 1.0);
    }

    #[test]
    fn zero_stagnation_disables_restarts() {
        let engine = GaEngine::new(
            GaConfig {
                generations: 30,
                stagnation_restart: 0,
                ..GaConfig::default()
            },
            onemax_layout(),
        );
        let mut rng = StdRng::seed_from_u64(9);
        let result = engine.run(|_| 1.0, &mut rng);
        assert_eq!(result.restarts, 0);
    }

    #[test]
    fn evaluations_are_counted() {
        let config = GaConfig {
            generations: 10,
            stagnation_restart: 0,
            ..GaConfig::default()
        };
        let engine = GaEngine::new(config, onemax_layout());
        let mut rng = StdRng::seed_from_u64(10);
        let result = engine.run(onemax, &mut rng);
        // Initial: islands × population; then per generation each island
        // evaluates (population − elitism) children.
        let init = config.islands * config.population_size;
        let per_gen = config.islands * (config.population_size - config.elitism);
        assert_eq!(result.evaluations, init + config.generations * per_gen);
    }

    #[test]
    fn single_island_without_migration_works() {
        let engine = GaEngine::new(
            GaConfig {
                islands: 1,
                migration_interval: 0,
                generations: 60,
                ..GaConfig::default()
            },
            onemax_layout(),
        );
        let mut rng = StdRng::seed_from_u64(11);
        let result = engine.run(onemax, &mut rng);
        assert!(result.best_fitness >= 36.0, "{result}");
    }

    #[test]
    #[should_panic(expected = "population too small")]
    fn rejects_tiny_population() {
        let _ = GaEngine::new(
            GaConfig {
                population_size: 1,
                ..GaConfig::default()
            },
            onemax_layout(),
        );
    }

    #[test]
    fn result_display_mentions_evaluations() {
        let engine = GaEngine::new(
            GaConfig {
                generations: 2,
                ..GaConfig::default()
            },
            onemax_layout(),
        );
        let mut rng = StdRng::seed_from_u64(12);
        let result = engine.run(onemax, &mut rng);
        assert!(result.to_string().contains("evaluations"));
    }

    /// Scores each batch back to front and returns the scores in input
    /// order, recording the batch sizes it saw.
    struct ReverseScorer {
        batches: Vec<usize>,
    }

    impl FitnessEvaluator for ReverseScorer {
        fn evaluate(&mut self, individual: &Individual) -> f64 {
            onemax(individual)
        }

        fn evaluate_batch(&mut self, batch: &[Individual]) -> Vec<f64> {
            self.batches.push(batch.len());
            let mut scores = vec![0.0; batch.len()];
            for (i, individual) in batch.iter().enumerate().rev() {
                scores[i] = self.evaluate(individual);
            }
            scores
        }
    }

    #[test]
    fn batch_scores_in_input_order_reproduce_the_closure_run() {
        // The batch contract: fitness comes back in input order, and the
        // order an evaluator scores in draws nothing from the engine's
        // RNG, so the whole trajectory matches the one-by-one closure.
        let engine = GaEngine::new(
            GaConfig {
                generations: 20,
                ..GaConfig::default()
            },
            onemax_layout(),
        );
        let sequential = engine.run(onemax, &mut StdRng::seed_from_u64(13));
        let mut reverse = ReverseScorer {
            batches: Vec::new(),
        };
        let batched = engine.run_seeded(Vec::new(), &mut reverse, &mut StdRng::seed_from_u64(13));
        assert_eq!(batched, sequential);
        assert_eq!(reverse.batches.iter().sum::<usize>(), batched.evaluations);
        assert!(
            reverse.batches.iter().any(|&n| n > 1),
            "broods are scored as batches"
        );
    }

    mod properties {
        use super::*;
        use crate::genome::GenomeSpec;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]
            #[test]
            fn evolution_never_leaves_the_gene_bounds(
                seed in 0u64..1000,
                lo in 0u32..50,
                span in 1u32..100,
            ) {
                let layout = SpeciesLayout::new(vec![
                    GenomeSpec::uniform(12, lo, lo + span),
                    GenomeSpec::uniform(3, 0, 10),
                ]);
                let engine = GaEngine::new(
                    GaConfig {
                        population_size: 8,
                        islands: 2,
                        generations: 6,
                        ..GaConfig::default()
                    },
                    layout.clone(),
                );
                let mut rng = StdRng::seed_from_u64(seed);
                let mut all_valid = true;
                let result = engine.run(
                    |ind| {
                        all_valid &= layout.validate(ind);
                        ind.chromosome(0).iter().map(|&g| f64::from(g)).sum()
                    },
                    &mut rng,
                );
                prop_assert!(all_valid, "every evaluated individual in bounds");
                prop_assert!(layout.validate(&result.best));
            }

            #[test]
            fn best_fitness_matches_a_reachable_value(seed in 0u64..200) {
                let layout = SpeciesLayout::new(vec![GenomeSpec::uniform(10, 0, 5)]);
                let engine = GaEngine::new(
                    GaConfig {
                        population_size: 6,
                        islands: 1,
                        generations: 4,
                        ..GaConfig::default()
                    },
                    layout,
                );
                let mut rng = StdRng::seed_from_u64(seed);
                let fitness =
                    |ind: &Individual| ind.chromosome(0).iter().map(|&g| f64::from(g)).sum();
                let result = engine.run(fitness, &mut rng);
                prop_assert_eq!(result.best_fitness, fitness(&result.best));
                prop_assert!(result.best_fitness <= 50.0);
            }
        }
    }
}
