//! The full industrial arc through the public API: characterize a lot,
//! hunt the worst case, analyze it, derive the production program, screen
//! devices — §1's description of how characterization feeds manufacturing.

use cichar::ate::{Ate, MeasuredParam};
use cichar::core::analysis::WeaknessAnalyzer;
use cichar::core::compare::{quick_config, Comparison};
use cichar::core::production::{Bin, ProductionProgram};
use cichar::core::sample::{corner_grid, SampleCharacterization};
use cichar::core::wcr::CharacterizationObjective;
use cichar::dut::{Lot, MemoryDevice};
use cichar::exec::ExecPolicy;
use cichar::patterns::{march, Test};
use cichar::trace::Tracer;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn objective() -> CharacterizationObjective {
    CharacterizationObjective::drift_to_minimum(20.0)
}

#[test]
fn lot_campaign_produces_consistent_population_statistics() {
    let campaign = SampleCharacterization::new(
        MeasuredParam::DataValidTime,
        objective(),
        corner_grid(&[1.65, 1.95], &[25.0]),
    );
    let tests = vec![
        Test::deterministic("march_c-", march::march_c_minus(64)),
        Test::deterministic("checkerboard", march::checkerboard(128)),
    ];
    let mut rng = StdRng::seed_from_u64(501);
    let report = campaign.run(
        &Lot::default(),
        6,
        &tests,
        ExecPolicy::serial(),
        &mut rng,
        &Tracer::disabled(),
    );

    assert_eq!(report.dies.len(), 6);
    let worst = report.population_worst().expect("measured");
    let mean = report.population_mean().expect("measured");
    assert!(worst <= mean);
    assert!(report.spec_margin().expect("measured") > 0.0);
    // Every die's worst corner is at the starved supply.
    for die in &report.dies {
        let best_corner = die
            .corners
            .iter()
            .min_by(|a, b| {
                a.worst_trip_point
                    .unwrap_or(f64::INFINITY)
                    .total_cmp(&b.worst_trip_point.unwrap_or(f64::INFINITY))
            })
            .expect("corners");
        assert_eq!(best_corner.conditions.vdd.value(), 1.65);
    }
}

#[test]
fn worst_case_database_drives_a_working_production_program() {
    // Characterize on the golden die.
    let mut ate = Ate::new(MemoryDevice::nominal());
    let mut rng = StdRng::seed_from_u64(502);
    let comparison = Comparison::run(&mut ate, &quick_config(), &mut rng);

    let program = ProductionProgram::from_worst_cases(
        &comparison.optimization.database,
        MeasuredParam::DataValidTime,
        objective(),
        1.0,
        3,
    );
    assert!(program.steps().len() <= 3 && !program.steps().is_empty());
    // Limits sit on the pass side of the spec.
    for step in program.steps() {
        assert_eq!(step.limit, 21.0);
    }

    // The golden die passes its own program.
    let mut golden = Ate::noiseless(MemoryDevice::nominal());
    assert_eq!(program.screen(&mut golden), Bin::Good);
    assert_eq!(
        golden.ledger().measurements(),
        program.steps().len() as u64,
        "production economics: one measurement per step"
    );

    // A healthy lot yields mostly good parts.
    let mut rng = StdRng::seed_from_u64(503);
    let mut testers: Vec<Ate> = Lot::default()
        .sample_dies(&mut rng, 40)
        .into_iter()
        .map(|die| Ate::noiseless(MemoryDevice::new(die)))
        .collect();
    let good = testers
        .iter_mut()
        .map(|ate| program.screen(ate))
        .filter(|bin| bin.is_good())
        .count();
    assert!(good >= 30, "healthy lot yield {good}/40");
}

#[test]
fn weakness_analysis_explains_the_found_worst_case() {
    let mut ate = Ate::new(MemoryDevice::nominal());
    let mut rng = StdRng::seed_from_u64(504);
    let comparison = Comparison::run(&mut ate, &quick_config(), &mut rng);
    let worst = comparison.optimization.database.worst().expect("found");

    let analyzer = WeaknessAnalyzer::new();
    let march_report =
        analyzer.analyze(&Test::deterministic("march", march::march_c_minus(64)));
    let worst_report = analyzer.analyze(&worst.test);
    assert!(
        worst_report.proximity > march_report.proximity,
        "the found worst case must out-score the benign baseline: {} vs {}",
        worst_report.proximity,
        march_report.proximity
    );
    assert!(worst_report.dominant_cause().is_some());
}

#[test]
fn multi_param_campaign_through_public_api() {
    use cichar::core::learning::LearningConfig;
    use cichar::core::multi::{AnalysisTask, MultiParamCampaign};
    use cichar::core::optimization::OptimizationConfig;
    use cichar::core::Sessions;
    use cichar::genetic::GaConfig;
    use cichar::neural::TrainConfig;

    let campaign = MultiParamCampaign::new(
        AnalysisTask::data_sheet(),
        LearningConfig {
            tests_per_round: 40,
            max_rounds: 1,
            committee_size: 2,
            hidden: vec![8],
            train: TrainConfig {
                epochs: 60,
                ..TrainConfig::default()
            },
            ..LearningConfig::default()
        },
        OptimizationConfig {
            ga: GaConfig {
                population_size: 10,
                islands: 1,
                generations: 4,
                target_fitness: Some(1.0),
                ..GaConfig::default()
            },
            ..OptimizationConfig::default()
        },
    )
    .with_screening(100, 4);
    let mut ate = Ate::noiseless(MemoryDevice::nominal());
    let mut rng = StdRng::seed_from_u64(505);
    let report = campaign.run(&mut ate, Sessions::Shared, &mut rng, &Tracer::disabled());
    assert_eq!(report.worst_case_suite().len(), 3);
    assert_eq!(report.total_measurements, ate.ledger().measurements());
}
