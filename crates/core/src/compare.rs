//! The Table 1 harness: deterministic vs random vs NN+GA.
//!
//! §6 compares three techniques for finding the worst-case `T_DQ` at
//! Vdd = 1.8 V against the 20 ns spec:
//!
//! | Test name   | Technique        | WCR   | T_DQ    |
//! |-------------|------------------|-------|---------|
//! | March Test  | Deterministic    | 0.619 | 32.3 ns |
//! | Random Test | Random           | 0.701 | 28.5 ns |
//! | NNGA Test   | Neural & Genetic | 0.904 | 22.1 ns |
//!
//! [`Comparison::run`] reproduces the three rows on the simulated device
//! with the same measurement machinery for each technique, and reports the
//! per-technique ATE cost alongside (the paper notes its method trades
//! test time for coverage).

use crate::dsv::{DsvReport, MultiTripRunner, SearchStrategy};
use crate::generator::NeuralTestGenerator;
use crate::learning::{LearnedModel, LearningConfig, LearningScheme};
use crate::optimization::{OptimizationConfig, OptimizationOutcome, OptimizationScheme};
use crate::wcr::{CharacterizationObjective, WcrClass};
use crate::Sessions;
use cichar_ate::{Ate, MeasuredParam, MeasurementLedger, ParallelAte};
use cichar_exec::ExecPolicy;
use cichar_patterns::{march, random, Test, TestConditions};
use cichar_trace::{Telemetry, Tracer};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Configuration of the three-technique comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareConfig {
    /// The characterized parameter and WCR objective.
    pub param: MeasuredParam,
    /// WCR objective (Table 1 uses eq. 6 with vmin = 20 ns).
    pub objective: CharacterizationObjective,
    /// The fixed corner (Table 1: Vdd = 1.8 V).
    pub conditions: TestConditions,
    /// Random tests measured for the Random row (the paper overlays 1000).
    pub random_tests: usize,
    /// Learning-phase configuration for the NN+GA row.
    pub learning: LearningConfig,
    /// Candidates screened by the fuzzy-neural generator.
    pub nn_candidates: usize,
    /// Screened candidates seeding the GA.
    pub nn_seeds: usize,
    /// Optimization-phase configuration.
    pub optimization: OptimizationConfig,
}

impl Default for CompareConfig {
    /// A laptop-scale budget that preserves the Table 1 shape (see
    /// `DESIGN.md` §6). The paper's full budget is reached by raising
    /// `random_tests`, `learning.tests_per_round` and the GA generations.
    fn default() -> Self {
        Self {
            param: MeasuredParam::DataValidTime,
            objective: CharacterizationObjective::drift_to_minimum(20.0),
            conditions: TestConditions::nominal(),
            random_tests: 200,
            learning: LearningConfig::default(),
            nn_candidates: 1500,
            nn_seeds: 24,
            optimization: OptimizationConfig::default(),
        }
    }
}

/// One Table 1 row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table1Row {
    /// Test name column.
    pub test_name: String,
    /// Technique column.
    pub technique: String,
    /// WCR column (eq. 6).
    pub wcr: f64,
    /// `T_DQ` column in nanoseconds.
    pub t_dq: f64,
    /// Fig. 6 class (not printed by the paper but implied by fig. 6).
    pub class: WcrClass,
    /// ATE measurements this technique consumed (cost context the paper
    /// discusses in §7).
    pub measurements: u64,
}

/// The reproduced Table 1 plus the artifacts each technique produced.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// The three rows, in the paper's order.
    pub rows: Vec<Table1Row>,
    /// The random row's full DSV (feeds fig. 2 / fig. 8).
    pub random_report: DsvReport,
    /// The learned model (feeds fig. 8's NN-screened overlays).
    pub model: LearnedModel,
    /// The optimization outcome (worst-case database).
    pub optimization: OptimizationOutcome,
}

impl Comparison {
    /// Runs all three techniques on the given tester.
    ///
    /// # Panics
    ///
    /// Panics if any technique fails to measure a trip point — the default
    /// ranges bracket the simulated device by construction.
    pub fn run<R: Rng + ?Sized>(ate: &mut Ate, config: &CompareConfig, rng: &mut R) -> Self {
        Self::run_on(
            ate,
            config,
            Sessions::Shared,
            rng,
            &Tracer::disabled(),
            &Telemetry::disabled(),
        )
    }

    /// [`run`](Self::run) with the measurement-heavy stages fanned out
    /// across the thread policy: the Random row's thousand-test DSV and
    /// the NN+GA row's population fitness evaluation. The March search
    /// (one test) and the learning rounds (data-dependent) stay on the
    /// shared session.
    ///
    /// On a noiseless, drift-free tester this reproduces [`run`](Self::run)
    /// bit-for-bit; with noise or drift the parallel stages use per-test
    /// derived-seed sessions, so the result is still bit-identical across
    /// thread counts (just not to the shared-session sequential run).
    pub fn run_parallel<R: Rng + ?Sized>(
        ate: &mut Ate,
        config: &CompareConfig,
        policy: ExecPolicy,
        rng: &mut R,
    ) -> Self {
        Self::run_parallel_traced(ate, config, policy, rng, &Tracer::disabled())
    }

    /// [`run_parallel`](Self::run_parallel) with the campaign recorded
    /// into `tracer`: a phase-change event opens each technique's row
    /// ("march", "random", "nnga"), and the measurement-heavy stages
    /// record per-test / per-evaluation spans through their traced
    /// sub-runs.
    pub fn run_parallel_traced<R: Rng + ?Sized>(
        ate: &mut Ate,
        config: &CompareConfig,
        policy: ExecPolicy,
        rng: &mut R,
        tracer: &Tracer,
    ) -> Self {
        Self::run_parallel_observed(ate, config, policy, rng, tracer, &Telemetry::disabled())
    }

    /// [`run_parallel_traced`](Self::run_parallel_traced) with live
    /// telemetry threaded into the measurement-heavy stages: the Random
    /// row's DSV sweep ticks per merged test, the NN+GA row's fitness
    /// fold ticks per merged evaluation. The March baseline and the
    /// learning rounds are too short to heartbeat.
    pub fn run_parallel_observed<R: Rng + ?Sized>(
        ate: &mut Ate,
        config: &CompareConfig,
        policy: ExecPolicy,
        rng: &mut R,
        tracer: &Tracer,
        telemetry: &Telemetry,
    ) -> Self {
        let sessions = Sessions::PerTest(policy);
        Self::run_on(ate, config, sessions, rng, tracer, telemetry)
    }

    /// The Table 1 body. The March search and the learning rounds always
    /// run on the shared session; `sessions` decides where the Random
    /// row's DSV and the NN+GA row's fitness evaluations run. A row's cost
    /// is its `ate` ledger delta plus its per-test sessions' ledgers.
    fn run_on<R: Rng + ?Sized>(
        ate: &mut Ate,
        config: &CompareConfig,
        sessions: Sessions,
        rng: &mut R,
        tracer: &Tracer,
        telemetry: &Telemetry,
    ) -> Self {
        let runner = MultiTripRunner::new(config.param);

        // Row 1 — deterministic March test, the production baseline.
        tracer.phase("march");
        let march_test = Test::deterministic("March Test", march::march_c_minus(64))
            .with_conditions(config.conditions);
        let baseline = *ate.ledger();
        let march_report = runner.run_traced(ate, &[march_test], SearchStrategy::FullRange, tracer);
        let march_tp = march_report.entries[0]
            .trip_point
            .expect("March trip point in generous range");
        let march_cost = ate.ledger().measurements_since(&baseline);

        // Row 2 — the refs-[9][10] random generator, best of N tests.
        tracer.phase("random");
        let random_tests: Vec<Test> = (0..config.random_tests)
            .map(|_| random::random_test_at(rng, config.conditions))
            .collect();
        let baseline = *ate.ledger();
        let strategy = SearchStrategy::SearchUntilTrip;
        let (random_report, random_ledger) = match sessions {
            Sessions::Shared => (
                runner.run_traced(ate, &random_tests, strategy, tracer),
                MeasurementLedger::new(),
            ),
            Sessions::PerTest(policy) => runner.run_parallel_observed(
                &ParallelAte::from_ate(ate),
                &random_tests,
                strategy,
                policy,
                tracer,
                telemetry,
            ),
        };
        let random_tp = random_report.min().expect("random tests converge");
        let random_cost = ate.ledger().measurements_since(&baseline) + random_ledger.measurements();

        // Row 3 — the paper's method: learn (fig. 4), screen, optimize
        // (fig. 5).
        tracer.phase("nnga");
        let baseline = *ate.ledger();
        let model = LearningScheme::new(config.learning.clone()).run_traced(ate, rng, tracer);
        let generator = NeuralTestGenerator::new(&model);
        let seeds = generator.propose(
            config.nn_candidates,
            config.nn_seeds,
            Some(config.conditions),
            rng,
        );
        let scheme = OptimizationScheme::new(config.optimization.clone());
        let reference = Some(model.reference_trip_point);
        let (optimization, ga_ledger) = match sessions {
            Sessions::Shared => (
                scheme.run_traced(ate, &seeds, reference, rng, tracer),
                MeasurementLedger::new(),
            ),
            Sessions::PerTest(policy) => scheme.run_parallel_observed(
                &ParallelAte::from_ate(ate),
                &seeds,
                reference,
                policy,
                rng,
                tracer,
                telemetry,
            ),
        };
        let nnga_cost = ate.ledger().measurements_since(&baseline) + ga_ledger.measurements();
        let nnga_tp = optimization.best.trip_point;

        let row = |name: &str, technique: &str, tp: f64, cost: u64| Table1Row {
            test_name: name.to_string(),
            technique: technique.to_string(),
            wcr: config.objective.wcr(tp),
            t_dq: tp,
            class: config.objective.classify(tp),
            measurements: cost,
        };
        Self {
            rows: vec![
                row("March Test", "Deterministic", march_tp, march_cost),
                row("Random Test", "Random", random_tp, random_cost),
                row("NNGA Test", "Neural & Genetic", nnga_tp, nnga_cost),
            ],
            random_report,
            model,
            optimization,
        }
    }

    /// The row with the largest WCR — Table 1's verdict.
    pub fn winner(&self) -> &Table1Row {
        self.rows
            .iter()
            .max_by(|a, b| a.wcr.total_cmp(&b.wcr))
            .expect("three rows")
    }

    /// Renders the table the way the paper prints it.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "Table 1: Comparison of T_DQ with different approaches (Vdd 1.8 V)\n\
             Test Name    | Technique        |  WCR  | T_DQ (ns) | ATE measurements\n\
             -------------+------------------+-------+-----------+-----------------\n",
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{:<12} | {:<16} | {:.3} | {:>9.1} | {:>16}\n",
                r.test_name, r.technique, r.wcr, r.t_dq, r.measurements
            ));
        }
        out
    }
}

impl fmt::Display for Comparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// A laptop-sized configuration for tests and examples: the same pipeline
/// with budgets that run in seconds.
pub fn quick_config() -> CompareConfig {
    use cichar_genetic::GaConfig;
    use cichar_neural::TrainConfig;
    CompareConfig {
        random_tests: 80,
        learning: LearningConfig {
            tests_per_round: 80,
            max_rounds: 2,
            committee_size: 3,
            hidden: vec![12],
            train: TrainConfig {
                epochs: 150,
                ..TrainConfig::default()
            },
            ..LearningConfig::default()
        },
        nn_candidates: 600,
        nn_seeds: 16,
        optimization: OptimizationConfig {
            ga: GaConfig {
                population_size: 30,
                islands: 2,
                generations: 30,
                stagnation_restart: 10,
                target_fitness: Some(1.0),
                ..GaConfig::default()
            },
            ..OptimizationConfig::default()
        },
        ..CompareConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cichar_dut::MemoryDevice;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run_quick(seed: u64) -> Comparison {
        let mut ate = Ate::noiseless(MemoryDevice::nominal());
        let mut rng = StdRng::seed_from_u64(seed);
        Comparison::run(&mut ate, &quick_config(), &mut rng)
    }

    #[test]
    fn table1_shape_reproduces() {
        let cmp = run_quick(7);
        let march = &cmp.rows[0];
        let random = &cmp.rows[1];
        let nnga = &cmp.rows[2];
        // The paper's ordering: deterministic < random < NN+GA in severity
        // (i.e. T_DQ ordering reversed).
        assert!(
            nnga.t_dq < random.t_dq && random.t_dq < march.t_dq,
            "\n{}",
            cmp.render()
        );
        assert!(nnga.wcr > random.wcr && random.wcr > march.wcr);
        // March lands near its Table 1 value on the calibrated surface.
        assert!((march.t_dq - 32.3).abs() < 0.7, "march = {}", march.t_dq);
        // The NN+GA test provokes a genuinely deep drift.
        assert!(nnga.t_dq < 26.0, "nnga = {}", nnga.t_dq);
        assert_eq!(cmp.winner().test_name, "NNGA Test");
    }

    #[test]
    fn nnga_wins_across_seeds() {
        for seed in [11, 23] {
            let cmp = run_quick(seed);
            assert_eq!(cmp.winner().test_name, "NNGA Test", "seed {seed}:\n{cmp}");
        }
    }

    #[test]
    fn render_contains_paper_vocabulary() {
        let cmp = run_quick(9);
        let text = cmp.render();
        assert!(text.contains("March Test"));
        assert!(text.contains("Neural & Genetic"));
        assert!(text.contains("WCR"));
        assert!(text.contains("Vdd 1.8 V"));
    }

    #[test]
    fn costs_are_reported_per_technique() {
        let cmp = run_quick(13);
        // §7: "the test time is longer than in a single trip-point method".
        assert!(cmp.rows[2].measurements > cmp.rows[0].measurements);
        assert!(cmp.rows.iter().all(|r| r.measurements > 0));
    }

    #[test]
    fn parallel_comparison_reproduces_the_sequential_table() {
        let mut ate = Ate::noiseless(MemoryDevice::nominal());
        let mut rng = StdRng::seed_from_u64(7);
        let sequential = Comparison::run(&mut ate, &quick_config(), &mut rng);
        let mut ate = Ate::noiseless(MemoryDevice::nominal());
        let mut rng = StdRng::seed_from_u64(7);
        let parallel = Comparison::run_parallel(
            &mut ate,
            &quick_config(),
            ExecPolicy::with_threads(8),
            &mut rng,
        );
        assert_eq!(sequential.rows, parallel.rows);
        assert_eq!(sequential.random_report, parallel.random_report);
        assert_eq!(
            sequential.optimization.best.trip_point,
            parallel.optimization.best.trip_point
        );
        assert_eq!(
            sequential.optimization.measurements_used,
            parallel.optimization.measurements_used
        );
    }

    #[test]
    fn artifacts_are_exposed_for_figures() {
        let cmp = run_quick(17);
        assert!(cmp.random_report.spread().expect("converged") > 0.0);
        assert!(!cmp.optimization.database.is_empty());
        assert!(cmp.model.dataset_size > 0);
    }
}
