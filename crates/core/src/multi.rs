//! Multi-parameter characterization campaigns.
//!
//! §5: "It is very complicated to model a NN with multiple output
//! classification ability. Thus we propose to pre-select a set of DC or AC
//! critical parameters; and generate NNs individually for each parameter
//! or each characterization analysis task." And fig. 5's closing: "at the
//! end of the complete iterative analysis, a final set of worst case tests
//! is identified, covering all considered fitness variables."
//!
//! [`MultiParamCampaign`] runs the full learning + optimization pipeline
//! once per parameter — one committee, one GA, one database each — and
//! merges the results into a cross-parameter worst-case suite.

use crate::db::WorstCaseTest;
use crate::generator::NeuralTestGenerator;
use crate::learning::{LearnedModel, LearningConfig, LearningScheme};
use crate::optimization::{OptimizationConfig, OptimizationOutcome, OptimizationScheme};
use crate::wcr::CharacterizationObjective;
use crate::Sessions;
use cichar_ate::{Ate, MeasuredParam, MeasurementLedger, ParallelAte};
use cichar_patterns::TestConditions;
use cichar_search::RetryPolicy;
use cichar_trace::{Telemetry, Tracer};
use rand::Rng;
use std::fmt;

/// One parameter's analysis task: which parameter, which drift objective.
///
/// The objectives mirror the device's data sheet: `T_DQ` and `f_max` are
/// minimum-limited for the reading below... more precisely `T_DQ` is
/// minimum-limited (eq. 6), `f_max` maximum-referenced against the
/// operating point, `Vdd_min` maximum-limited (a rising `vdd_min` is the
/// drift direction that hurts).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalysisTask {
    /// The measured parameter.
    pub param: MeasuredParam,
    /// Its WCR objective.
    pub objective: CharacterizationObjective,
}

impl AnalysisTask {
    /// The default data-sheet task set:
    ///
    /// * `T_DQ` ≥ 20 ns (eq. 6, §6's experiment),
    /// * `f_max` must stay above the 100 MHz operating point (eq. 6 on a
    ///   minimum-limited reading of the spec),
    /// * `Vdd_min` must stay below 1.62 V, the minimum supported supply
    ///   rail minus margin (eq. 5).
    pub fn data_sheet() -> Vec<AnalysisTask> {
        vec![
            AnalysisTask {
                param: MeasuredParam::DataValidTime,
                objective: CharacterizationObjective::drift_to_minimum(20.0),
            },
            AnalysisTask {
                param: MeasuredParam::MaxFrequency,
                objective: CharacterizationObjective::drift_to_minimum(100.0),
            },
            AnalysisTask {
                param: MeasuredParam::MinVoltage,
                objective: CharacterizationObjective::drift_to_maximum(1.62),
            },
        ]
    }
}

/// One parameter's campaign result.
#[derive(Debug, Clone)]
pub struct TaskOutcome {
    /// The analysis task.
    pub task: AnalysisTask,
    /// The trained per-parameter model (fig. 4's "generate NNs
    /// individually for each parameter").
    pub model: LearnedModel,
    /// The optimization result with its database.
    pub optimization: OptimizationOutcome,
}

/// The merged multi-parameter result.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Per-task outcomes, in task order.
    pub tasks: Vec<TaskOutcome>,
    /// Total ATE measurements across the campaign.
    pub total_measurements: u64,
    /// The campaign-scoped measurement ledger: cost, fault, and recovery
    /// accounting for exactly this campaign's tester activity (parallel
    /// worker-session ledgers merged in). Every injected fault the tester
    /// reported during the campaign shows up here, whether it was retried
    /// away, voted down, or ended in a quarantined point.
    pub ledger: MeasurementLedger,
}

impl CampaignReport {
    /// The final cross-parameter worst-case suite: each task's worst test,
    /// labelled with its parameter — "covering all considered fitness
    /// variables".
    pub fn worst_case_suite(&self) -> Vec<(MeasuredParam, WorstCaseTest)> {
        self.tasks
            .iter()
            .map(|t| (t.task.param, t.optimization.best.clone()))
            .collect()
    }

    /// Whether any parameter's worst case crossed into fig. 6's weakness
    /// or fail band.
    pub fn has_findings(&self) -> bool {
        self.tasks.iter().any(|t| t.optimization.best.wcr > 0.8)
    }
}

impl fmt::Display for CampaignReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "multi-parameter campaign: {} tasks, {} measurements",
            self.tasks.len(),
            self.total_measurements
        )?;
        if self.ledger.injected_faults() > 0 || self.ledger.quarantined() > 0 {
            writeln!(
                f,
                "  tester faults: {} dropouts, {} flips, {} stuck, {} aborts → {} retries, {} quarantined",
                self.ledger.dropouts(),
                self.ledger.flips(),
                self.ledger.stuck_probes(),
                self.ledger.aborts(),
                self.ledger.retries(),
                self.ledger.quarantined()
            )?;
        }
        for t in &self.tasks {
            writeln!(
                f,
                "  {}: worst {} (WCR {:.3}, {})",
                t.task.param,
                t.optimization.best.test.name(),
                t.optimization.best.wcr,
                t.optimization.best.class
            )?;
        }
        Ok(())
    }
}

/// Runs the figs. 4+5 pipeline once per analysis task.
#[derive(Debug, Clone)]
pub struct MultiParamCampaign {
    tasks: Vec<AnalysisTask>,
    learning: LearningConfig,
    optimization: OptimizationConfig,
    nn_candidates: usize,
    nn_seeds: usize,
    conditions: TestConditions,
}

impl MultiParamCampaign {
    /// Creates a campaign over the given tasks with shared phase budgets.
    ///
    /// # Panics
    ///
    /// Panics if `tasks` is empty.
    pub fn new(
        tasks: Vec<AnalysisTask>,
        learning: LearningConfig,
        optimization: OptimizationConfig,
    ) -> Self {
        assert!(!tasks.is_empty(), "campaign needs at least one task");
        Self {
            tasks,
            learning,
            optimization,
            nn_candidates: 600,
            nn_seeds: 16,
            conditions: TestConditions::nominal(),
        }
    }

    /// Sets the fuzzy-neural screening budget.
    pub fn with_screening(mut self, candidates: usize, seeds: usize) -> Self {
        self.nn_candidates = candidates;
        self.nn_seeds = seeds;
        self
    }

    /// Applies a fault-recovery policy to every task's measured fitness
    /// evaluations (see [`OptimizationConfig::recovery`]). The learning
    /// rounds tolerate tester faults without it — unconverged trip points
    /// are simply excluded from the training set.
    pub fn with_recovery(mut self, policy: RetryPolicy) -> Self {
        self.optimization.recovery = Some(policy);
        self
    }

    /// The campaign's tasks.
    pub fn tasks(&self) -> &[AnalysisTask] {
        &self.tasks
    }

    /// Runs every task against the tester, with the campaign recorded
    /// into `tracer` (pass [`Tracer::disabled`] to record nothing): a
    /// phase-change event opens each task (named after its parameter),
    /// and the learning and optimization stages record their
    /// per-measurement spans through their traced sub-runs.
    ///
    /// The learning rounds always run on the shared session (they are
    /// data-dependent by design); `sessions` decides where each task's GA
    /// fitness evaluations run. [`Sessions::PerTest`] clones the tester
    /// into per-individual derived-seed sessions fanned out across the
    /// thread policy, and absorbs their spans in evaluation order, so the
    /// report and the event stream are identical for every thread count;
    /// on a noiseless, drift-free tester it is also bit-identical to
    /// [`Sessions::Shared`]. The report's ledger is `ate`'s own delta
    /// plus the per-evaluation sessions' ledgers.
    pub fn run<R: Rng + ?Sized>(
        &self,
        ate: &mut Ate,
        sessions: Sessions,
        rng: &mut R,
        tracer: &Tracer,
    ) -> CampaignReport {
        let start = *ate.ledger();
        let mut session_ledger = MeasurementLedger::new();
        let mut outcomes = Vec::with_capacity(self.tasks.len());
        for task in &self.tasks {
            tracer.phase(&task.param.to_string());
            let learning = LearningConfig {
                param: task.param,
                objective: task.objective,
                ..self.learning.clone()
            };
            let model = LearningScheme::new(learning).run(ate, rng, tracer);
            let generator = NeuralTestGenerator::new(&model);
            let seeds =
                generator.propose(self.nn_candidates, self.nn_seeds, Some(self.conditions), rng);
            let optimization = OptimizationConfig {
                param: task.param,
                objective: task.objective,
                pinned_conditions: self.conditions,
                ..self.optimization.clone()
            };
            let scheme = OptimizationScheme::new(optimization);
            let reference = Some(model.reference_trip_point);
            let (outcome, ledger) = match sessions {
                Sessions::Shared => (
                    scheme.run(ate, &seeds, reference, rng, tracer),
                    MeasurementLedger::new(),
                ),
                Sessions::PerTest(policy) => scheme.run_parallel(
                    &ParallelAte::from_ate(ate),
                    &seeds,
                    reference,
                    policy,
                    rng,
                    tracer,
                    &Telemetry::disabled(),
                ),
            };
            session_ledger.merge(&ledger);
            outcomes.push(TaskOutcome {
                task: *task,
                model,
                optimization: outcome,
            });
        }
        let mut ledger = ate.ledger().since(&start);
        ledger.merge(&session_ledger);
        CampaignReport {
            tasks: outcomes,
            total_measurements: ledger.measurements(),
            ledger,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cichar_dut::MemoryDevice;
    use cichar_exec::ExecPolicy;
    use cichar_fuzzy::coding::CodingScheme;
    use cichar_genetic::GaConfig;
    use cichar_neural::TrainConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_campaign() -> MultiParamCampaign {
        MultiParamCampaign::new(
            AnalysisTask::data_sheet(),
            LearningConfig {
                tests_per_round: 50,
                max_rounds: 1,
                committee_size: 2,
                hidden: vec![10],
                coding: CodingScheme::Numeric,
                train: TrainConfig {
                    epochs: 100,
                    ..TrainConfig::default()
                },
                ..LearningConfig::default()
            },
            OptimizationConfig {
                ga: GaConfig {
                    population_size: 14,
                    islands: 1,
                    generations: 8,
                    target_fitness: Some(1.0),
                    ..GaConfig::default()
                },
                database_capacity: 8,
                ..OptimizationConfig::default()
            },
        )
        .with_screening(200, 8)
    }

    #[test]
    fn campaign_covers_all_parameters() {
        let mut ate = Ate::noiseless(MemoryDevice::nominal());
        let mut rng = StdRng::seed_from_u64(31);
        let report = tiny_campaign().run(&mut ate, Sessions::Shared, &mut rng, &Tracer::disabled());
        assert_eq!(report.tasks.len(), 3);
        let suite = report.worst_case_suite();
        let params: Vec<MeasuredParam> = suite.iter().map(|(p, _)| *p).collect();
        assert_eq!(
            params,
            vec![
                MeasuredParam::DataValidTime,
                MeasuredParam::MaxFrequency,
                MeasuredParam::MinVoltage
            ]
        );
    }

    #[test]
    fn per_parameter_models_are_independent() {
        let mut ate = Ate::noiseless(MemoryDevice::nominal());
        let mut rng = StdRng::seed_from_u64(32);
        let report = tiny_campaign().run(&mut ate, Sessions::Shared, &mut rng, &Tracer::disabled());
        // Each task trained its own committee against its own objective.
        let rtps: Vec<f64> = report.tasks.iter().map(|t| t.model.reference_trip_point).collect();
        assert!(rtps[0] > 20.0 && rtps[0] < 36.0, "t_dq rtp {}", rtps[0]);
        assert!(rtps[1] > 90.0 && rtps[1] < 120.0, "f_max rtp {}", rtps[1]);
        assert!(rtps[2] > 1.3 && rtps[2] < 1.6, "vdd_min rtp {}", rtps[2]);
    }

    #[test]
    fn worst_cases_are_physically_ordered() {
        let mut ate = Ate::noiseless(MemoryDevice::nominal());
        let mut rng = StdRng::seed_from_u64(33);
        let report = tiny_campaign().run(&mut ate, Sessions::Shared, &mut rng, &Tracer::disabled());
        // The t_dq worst case provokes a deeper window than the March
        // baseline (the GA found something), and the vdd_min worst case
        // pushed vdd_min up, not down.
        let t_dq = &report.tasks[0].optimization.best;
        assert!(t_dq.trip_point < 30.0, "{}", t_dq.trip_point);
        let vdd_min = &report.tasks[2].optimization.best;
        assert!(vdd_min.trip_point > 1.36, "{}", vdd_min.trip_point);
    }

    #[test]
    fn measurements_accumulate_across_tasks() {
        let mut ate = Ate::noiseless(MemoryDevice::nominal());
        let mut rng = StdRng::seed_from_u64(34);
        let report = tiny_campaign().run(&mut ate, Sessions::Shared, &mut rng, &Tracer::disabled());
        assert_eq!(report.total_measurements, ate.ledger().measurements());
        let per_task: u64 = report
            .tasks
            .iter()
            .map(|t| t.model.measurements_used + t.optimization.measurements_used)
            .sum();
        assert_eq!(report.total_measurements, per_task);
    }

    #[test]
    fn parallel_campaign_reproduces_the_sequential_run() {
        let mut ate = Ate::noiseless(MemoryDevice::nominal());
        let mut rng = StdRng::seed_from_u64(31);
        let sequential =
            tiny_campaign().run(&mut ate, Sessions::Shared, &mut rng, &Tracer::disabled());
        let mut ate = Ate::noiseless(MemoryDevice::nominal());
        let mut rng = StdRng::seed_from_u64(31);
        let parallel = tiny_campaign().run(
            &mut ate,
            Sessions::PerTest(ExecPolicy::with_threads(8)),
            &mut rng,
            &Tracer::disabled(),
        );
        assert_eq!(sequential.total_measurements, parallel.total_measurements);
        for (s, p) in sequential.tasks.iter().zip(&parallel.tasks) {
            assert_eq!(s.model.reference_trip_point, p.model.reference_trip_point);
            assert_eq!(s.optimization.best.trip_point, p.optimization.best.trip_point);
            assert_eq!(s.optimization.best.test, p.optimization.best.test);
            assert_eq!(
                s.optimization.measurements_used,
                p.optimization.measurements_used
            );
        }
    }

    #[test]
    fn display_names_every_parameter() {
        let mut ate = Ate::noiseless(MemoryDevice::nominal());
        let mut rng = StdRng::seed_from_u64(35);
        let report = tiny_campaign().run(&mut ate, Sessions::Shared, &mut rng, &Tracer::disabled());
        let text = report.to_string();
        assert!(text.contains("T_DQ"), "{text}");
        assert!(text.contains("f_max"), "{text}");
        assert!(text.contains("Vdd_min"), "{text}");
    }

    #[test]
    fn faulty_campaign_accounts_faults_and_stays_thread_invariant() {
        use cichar_ate::{AteConfig, TesterFaultModel};
        use cichar_search::RetryPolicy;
        let config = AteConfig {
            faults: TesterFaultModel::transient(0.02, 0.01),
            seed: 41,
            ..AteConfig::default()
        };
        let campaign = tiny_campaign().with_recovery(RetryPolicy::new(3, 100.0).with_vote(2, 3));
        let run = |policy: ExecPolicy| {
            let mut ate = Ate::with_config(MemoryDevice::nominal(), config.clone());
            let mut rng = StdRng::seed_from_u64(41);
            campaign.run(
                &mut ate,
                Sessions::PerTest(policy),
                &mut rng,
                &Tracer::disabled(),
            )
        };
        let serial = run(ExecPolicy::serial());
        assert!(serial.ledger.injected_faults() > 0, "{}", serial.ledger);
        assert!(serial.ledger.retries() > 0, "{}", serial.ledger);
        assert_eq!(serial.total_measurements, serial.ledger.measurements());
        assert!(serial.to_string().contains("tester faults:"), "{serial}");
        let wide = run(ExecPolicy::with_threads(8));
        assert_eq!(wide.ledger, serial.ledger);
        for (s, w) in serial.tasks.iter().zip(&wide.tasks) {
            assert_eq!(s.optimization.best.trip_point, w.optimization.best.trip_point);
            assert_eq!(s.optimization.best.test, w.optimization.best.test);
        }
    }

    #[test]
    #[should_panic(expected = "at least one task")]
    fn rejects_empty_task_list() {
        let _ = MultiParamCampaign::new(
            vec![],
            LearningConfig::default(),
            OptimizationConfig::default(),
        );
    }
}
