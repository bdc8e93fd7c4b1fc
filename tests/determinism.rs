//! Reproducibility: every stochastic stage is seed-deterministic, end to
//! end — a hard requirement for a characterization tool whose findings
//! must be replayable on demand.

use cichar::ate::{Ate, AteConfig, MeasuredParam};
use cichar::core::learning::{LearningConfig, LearningScheme};
use cichar::core::optimization::{OptimizationConfig, OptimizationScheme};
use cichar::dut::{Lot, MemoryDevice};
use cichar::genetic::GaConfig;
use cichar::neural::TrainConfig;
use cichar::patterns::{random, ConditionSpace};
use cichar::trace::Tracer;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn random_test_generation_is_seed_stable() {
    let space = ConditionSpace::default();
    let a = random::random_suite(&mut StdRng::seed_from_u64(5), &space, 10);
    let b = random::random_suite(&mut StdRng::seed_from_u64(5), &space, 10);
    assert_eq!(a, b);
}

#[test]
fn lot_sampling_is_seed_stable() {
    let lot = Lot::default();
    let a = lot.sample_dies(&mut StdRng::seed_from_u64(6), 20);
    let b = lot.sample_dies(&mut StdRng::seed_from_u64(6), 20);
    assert_eq!(a, b);
}

#[test]
fn noisy_ate_sessions_replay_exactly() {
    let run = || {
        let mut ate = Ate::with_config(MemoryDevice::nominal(), AteConfig::default());
        let test = cichar::patterns::Test::deterministic(
            "m",
            cichar::patterns::march::march_c_minus(64),
        );
        (0..30)
            .map(|i| {
                ate.measure(&test, MeasuredParam::DataValidTime, 31.9 + 0.01 * f64::from(i))
                    .is_pass()
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

#[test]
fn learning_scheme_is_seed_stable() {
    let config = LearningConfig {
        tests_per_round: 40,
        max_rounds: 1,
        committee_size: 2,
        hidden: vec![8],
        train: TrainConfig {
            epochs: 60,
            ..TrainConfig::default()
        },
        ..LearningConfig::default()
    };
    let run = || {
        let mut ate = Ate::noiseless(MemoryDevice::nominal());
        let mut rng = StdRng::seed_from_u64(7);
        LearningScheme::new(config.clone()).run(&mut ate, &mut rng, &Tracer::disabled())
    };
    let a = run();
    let b = run();
    assert_eq!(a.committee, b.committee, "identical weight files");
    assert_eq!(a.reference_trip_point, b.reference_trip_point);
    assert_eq!(a.measurements_used, b.measurements_used);
}

#[test]
fn optimization_scheme_is_seed_stable() {
    let config = OptimizationConfig {
        ga: GaConfig {
            population_size: 10,
            islands: 1,
            generations: 5,
            ..GaConfig::default()
        },
        ..OptimizationConfig::default()
    };
    let run = || {
        let mut ate = Ate::noiseless(MemoryDevice::nominal());
        let mut rng = StdRng::seed_from_u64(8);
        let scheme = OptimizationScheme::new(config.clone());
        scheme.run(&mut ate, &[], Some(31.0), &mut rng, &Tracer::disabled())
    };
    let a = run();
    let b = run();
    assert_eq!(a.best.trip_point, b.best.trip_point);
    assert_eq!(a.ga.evaluations, b.ga.evaluations);
    assert_eq!(a.measurements_used, b.measurements_used);
}

#[test]
fn different_seeds_explore_differently() {
    let space = ConditionSpace::default();
    let a = random::random_suite(&mut StdRng::seed_from_u64(1), &space, 5);
    let b = random::random_suite(&mut StdRng::seed_from_u64(2), &space, 5);
    assert_ne!(a, b, "seeds must actually matter");
}

/// The batched oracle path's contract: element `i` of a batch is
/// bit-identical to the `i`-th sequential scalar call — same noise draws,
/// same injected faults, same ledger — so batching is a pure bookkeeping
/// optimization that can never change a characterization result.
mod batch_scalar_parity {
    use cichar::ate::{Ate, AteConfig, MeasuredParam, NoiseModel, TesterFaultModel};
    use cichar::dut::MemoryDevice;
    use cichar::patterns::{random, ConditionSpace, PatternFeatures};
    use cichar::search::{
        BatchOracle, PassFailOracle, Probe, RetryPolicy, RobustOracle, SearchScratch,
    };
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn device_batch_matches_scalar_evaluations(
            suite_seed in 0u64..1000,
            n in 1usize..32,
        ) {
            let mut rng = StdRng::seed_from_u64(suite_seed);
            let space = ConditionSpace::default();
            let conditions_seed = space.sample(&mut rng);
            let test = random::random_test_at(&mut rng, conditions_seed);
            let features = PatternFeatures::extract(&test.pattern());
            let conditions: Vec<_> = (0..n).map(|_| space.sample(&mut rng)).collect();
            let device = MemoryDevice::nominal();
            let batch = device.evaluate_batch(&features, &conditions);
            let scalar: Vec<_> = conditions
                .iter()
                .map(|c| device.evaluate_features(&features, c))
                .collect();
            prop_assert_eq!(batch, scalar);
        }

        #[test]
        fn oracle_batch_matches_scalar_probes_under_faults(
            campaign_seed in 0u64..=u64::from(u32::MAX),
            suite_seed in 0u64..1000,
        ) {
            let config = AteConfig {
                noise: NoiseModel::new(0.05, 0.1, 0.01),
                faults: TesterFaultModel::transient(0.02, 0.01),
                seed: campaign_seed,
                ..AteConfig::default()
            };
            let mut rng = StdRng::seed_from_u64(suite_seed);
            let space = ConditionSpace::default();
            let at = space.sample(&mut rng);
            let test = random::random_test_at(&mut rng, at);
            let values: Vec<f64> = (0..24).map(|i| 26.0 + 0.35 * f64::from(i)).collect();
            let param = MeasuredParam::DataValidTime;

            let mut a = Ate::with_config(MemoryDevice::nominal(), config.clone());
            let scalar: Vec<Probe> = {
                let mut oracle = a.trip_oracle(&test, param);
                values.iter().map(|&v| oracle.probe(v)).collect()
            };
            let mut b = Ate::with_config(MemoryDevice::nominal(), config.clone());
            let mut batch = Vec::new();
            b.trip_oracle(&test, param).probe_batch_into(&values, &mut batch);
            prop_assert_eq!(batch, scalar);
            prop_assert_eq!(a.ledger(), b.ledger());

            // The k-of-n voting wrapper batches its strobes too; the
            // retry/vote decisions must come out identical.
            let policy = RetryPolicy::new(3, 50.0).with_vote(2, 3);
            let mut scratch = SearchScratch::default();
            let mut a = Ate::with_config(MemoryDevice::nominal(), config.clone());
            let (robust_scalar, stats_scalar) = {
                let inner = a.trip_oracle(&test, param);
                let mut oracle = RobustOracle::from_scratch(inner, policy, &mut scratch);
                let probes: Vec<Probe> = values.iter().map(|&v| oracle.probe(v)).collect();
                (probes, oracle.recycle_parts(&mut scratch).1)
            };
            let mut b = Ate::with_config(MemoryDevice::nominal(), config);
            let (robust_batch, stats_batch) = {
                let inner = b.trip_oracle(&test, param);
                let mut oracle = RobustOracle::from_scratch(inner, policy, &mut scratch);
                let mut probes = Vec::new();
                oracle.probe_batch_into(&values, &mut probes);
                (probes, oracle.recycle_parts(&mut scratch).1)
            };
            prop_assert_eq!(robust_batch, robust_scalar);
            prop_assert_eq!(stats_batch, stats_scalar);
            prop_assert_eq!(a.ledger(), b.ledger());
        }
    }
}

/// The parallel layer's contract: `threads = 1` and `threads = 8` produce
/// bit-identical results for every campaign seed, because each work item's
/// random stream is a pure function of (campaign seed, item index) and
/// outputs merge by index, never by completion order.
mod parallel_bit_identity {
    use cichar::ate::{AteConfig, MeasuredParam, ParallelAte};
    use cichar::core::dsv::{MultiTripRunner, ReferenceRule, SearchStrategy};
    use cichar::dut::MemoryDevice;
    use cichar::exec::ExecPolicy;
    use cichar::patterns::{random, ConditionSpace, Test};
    use cichar::trace::{Telemetry, Tracer};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_tests(seed: u64, n: usize) -> Vec<Test> {
        let space = ConditionSpace::default();
        random::random_suite(&mut StdRng::seed_from_u64(seed), &space, n)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        #[test]
        fn dsv_results_match_across_thread_counts(
            campaign_seed in 0u64..=u64::from(u32::MAX),
            suite_seed in 0u64..1000,
        ) {
            // The default tester config injects noise, so this also proves
            // the per-test seed-derivation rule, not just pure-math replay.
            let blueprint = ParallelAte::new(
                MemoryDevice::nominal(),
                AteConfig { seed: campaign_seed, ..AteConfig::default() },
            );
            let tests = random_tests(suite_seed, 24);
            let runner = MultiTripRunner::new(MeasuredParam::DataValidTime);
            let run = |rule, policy| {
                let (tracer, telemetry) = (Tracer::disabled(), Telemetry::disabled());
                runner.run_parallel(&blueprint, &tests, rule, policy, &tracer, &telemetry)
            };
            for rule in [ReferenceRule::FullRange, ReferenceRule::Anchored] {
                let serial = run(rule, ExecPolicy::serial());
                let threaded = run(rule, ExecPolicy::with_threads(8));
                prop_assert_eq!(serial, threaded);
            }
        }

        #[test]
        fn faulty_dsv_results_match_across_thread_counts(
            campaign_seed in 0u64..=u64::from(u32::MAX),
            suite_seed in 0u64..1000,
        ) {
            // Fault injection and the recovery ladder must obey the same
            // seed-derivation rule as noise: retries, votes, and
            // quarantine decisions are all per-index deterministic.
            use cichar::ate::TesterFaultModel;
            use cichar::search::RetryPolicy;
            let blueprint = ParallelAte::new(
                MemoryDevice::nominal(),
                AteConfig {
                    faults: TesterFaultModel::transient(0.02, 0.01),
                    seed: campaign_seed,
                    ..AteConfig::default()
                },
            );
            let tests = random_tests(suite_seed, 24);
            let runner = MultiTripRunner::new(MeasuredParam::DataValidTime)
                .with_recovery(RetryPolicy::new(3, 50.0).with_vote(2, 3));
            let run = |rule, policy| {
                let (tracer, telemetry) = (Tracer::disabled(), Telemetry::disabled());
                runner.run_parallel(&blueprint, &tests, rule, policy, &tracer, &telemetry)
            };
            for rule in [ReferenceRule::FullRange, ReferenceRule::Anchored] {
                let (serial, serial_ledger) = run(rule, ExecPolicy::serial());
                let (threaded, threaded_ledger) = run(rule, ExecPolicy::with_threads(8));
                prop_assert_eq!(&serial, &threaded);
                prop_assert_eq!(serial_ledger, threaded_ledger);
                prop_assert_eq!(
                    serial_ledger.quarantined(),
                    serial.quarantined() as u64
                );
            }
        }

        #[test]
        fn speculative_and_warm_paths_match_across_thread_counts(
            campaign_seed in 0u64..=u64::from(u32::MAX),
            suite_seed in 0u64..1000,
        ) {
            // The probe-economy paths (speculative batched bisection and
            // committee-seeded warm starts) must honor the same
            // per-index seed-derivation rule as the plain runner, even
            // with fault injection and the recovery ladder engaged.
            use cichar::ate::TesterFaultModel;
            use cichar::search::{RetryPolicy, TripPrediction, WarmStartPlanner};
            let param = MeasuredParam::DataValidTime;
            let blueprint = ParallelAte::new(
                MemoryDevice::nominal(),
                AteConfig {
                    faults: TesterFaultModel::transient(0.02, 0.01),
                    seed: campaign_seed,
                    ..AteConfig::default()
                },
            );
            let tests = random_tests(suite_seed, 24);
            let runner = MultiTripRunner::new(param)
                .with_recovery(RetryPolicy::new(3, 50.0).with_vote(2, 3))
                .with_speculation();
            let run = |rule, policy| {
                let (tracer, telemetry) = (Tracer::disabled(), Telemetry::disabled());
                runner.run_parallel(&blueprint, &tests, rule, policy, &tracer, &telemetry)
            };
            let serial = run(ReferenceRule::FullRange, ExecPolicy::serial());
            let threaded = run(ReferenceRule::FullRange, ExecPolicy::with_threads(8));
            prop_assert_eq!(&serial, &threaded);

            // Warm starts: alternate trusted predictions with missing
            // slots so the fan-out exercises both rungs of the fallback
            // ladder at every thread count.
            let planner = WarmStartPlanner::new(param.generous_range(), 1.0);
            let predictions: Vec<Option<TripPrediction>> = serial.0.entries.iter()
                .enumerate()
                .map(|(i, e)| {
                    if i % 2 == 0 {
                        e.trip_point.map(|tp| TripPrediction { trip_point: tp, spread: 0.1 })
                    } else {
                        None
                    }
                })
                .collect();
            let warm = ReferenceRule::Warm(&predictions, &planner);
            let warm_serial = run(warm, ExecPolicy::serial());
            let warm_threaded = run(warm, ExecPolicy::with_threads(8));
            prop_assert_eq!(warm_serial, warm_threaded);
        }

        #[test]
        fn journaled_wafer_resume_is_bit_identical(
            campaign_seed in 0u64..=u64::from(u32::MAX),
            die_count in 6usize..40,
            sites in 1usize..5,
            chunk in 1usize..5,
            kill_salt in 0usize..8,
        ) {
            // Interrupt a journaled campaign after a random number of
            // committed chunks, resume at 8 threads, and demand the
            // exact report and ledger an uninterrupted serial run
            // produces — the tentpole durability invariant, fuzzed
            // over campaign shape and kill point.
            use cichar::ate::TesterFaultModel;
            use cichar::core::wafer::{WaferConfig, WaferRunner};
            use cichar::dut::Lot;

            let dies = Lot::default()
                .sample_dies(&mut StdRng::seed_from_u64(campaign_seed ^ 0x5EED), die_count);
            let tests = random_tests(campaign_seed % 1000, 3);
            let ate_config = AteConfig {
                faults: TesterFaultModel::transient(0.02, 0.01),
                seed: campaign_seed,
                ..AteConfig::default()
            };
            let strategy = SearchStrategy::SearchUntilTrip;
            let shape = |journal_dir| WaferConfig {
                sites,
                chunk_touchdowns: chunk,
                journal_dir,
                ..WaferConfig::default()
            };
            let plain = WaferRunner::new(MeasuredParam::DataValidTime)
                .with_config(shape(None))
                .run(&ate_config, &dies, &tests, strategy, ExecPolicy::serial())
                .expect("unjournaled campaigns do no I/O");

            let dir = std::env::temp_dir().join(format!(
                "cichar_prop_resume_{campaign_seed}_{die_count}_{sites}_{chunk}_{kill_salt}"
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let journaled = WaferRunner::new(MeasuredParam::DataValidTime)
                .with_config(shape(Some(dir.clone())));
            let chunk_count = die_count.div_ceil(sites).div_ceil(chunk);
            let kill_after = kill_salt % chunk_count;
            let committed = journaled
                .run_prefix(&ate_config, &dies, &tests, strategy, ExecPolicy::serial(), kill_after)
                .expect("prefix run journals cleanly");
            prop_assert_eq!(committed, kill_after as u64);

            let (report, ledger, stats) = journaled
                .resume_traced(
                    &ate_config,
                    &dies,
                    &tests,
                    strategy,
                    ExecPolicy::with_threads(8),
                    &Tracer::disabled(),
                )
                .expect("resume replays the journal");
            prop_assert_eq!(&report, &plain.0);
            prop_assert_eq!(&ledger, &plain.1);
            prop_assert_eq!(stats.chunks_replayed, kill_after as u64);
            prop_assert_eq!(stats.chunks_total, chunk_count as u64);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
