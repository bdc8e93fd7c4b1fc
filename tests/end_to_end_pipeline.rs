//! End-to-end pipeline tests: the full figs. 4+5 flow through the public
//! umbrella API, including persistence of the worst-case database.

use cichar::ate::Ate;
use cichar::core::compare::{quick_config, Comparison};
use cichar::core::db::WorstCaseDatabase;
use cichar::core::generator::NeuralTestGenerator;
use cichar::core::multi::{AnalysisTask, MultiParamCampaign};
use cichar::core::wcr::WcrClass;
use cichar::core::Sessions;
use cichar::dut::MemoryDevice;
use cichar::exec::ExecPolicy;
use cichar::trace::Tracer;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn run_pipeline(seed: u64) -> (Comparison, Ate) {
    let mut ate = Ate::new(MemoryDevice::nominal());
    let mut rng = StdRng::seed_from_u64(seed);
    let cmp = Comparison::run(&mut ate, &quick_config(), &mut rng);
    (cmp, ate)
}

#[test]
fn table1_ordering_holds_through_public_api() {
    let (cmp, _) = run_pipeline(101);
    assert_eq!(cmp.rows.len(), 3);
    assert!(cmp.rows[2].t_dq < cmp.rows[1].t_dq, "{}", cmp.render());
    assert!(cmp.rows[1].t_dq < cmp.rows[0].t_dq, "{}", cmp.render());
    // The found worst case must sit near or inside the weakness band.
    assert!(cmp.rows[2].wcr > 0.78, "{}", cmp.render());
}

#[test]
fn learning_model_is_reusable_after_the_run() {
    let (cmp, _) = run_pipeline(102);
    // The model persists and can screen fresh candidates without any
    // further measurements.
    let generator = NeuralTestGenerator::new(&cmp.model);
    let mut rng = StdRng::seed_from_u64(103);
    let picks = generator.propose(100, 5, None, &mut rng);
    assert_eq!(picks.len(), 5);
    for pair in picks.windows(2) {
        assert!(pair[0].predicted_severity >= pair[1].predicted_severity);
    }
}

#[test]
fn worst_case_database_survives_disk_round_trip() {
    let (cmp, _) = run_pipeline(104);
    let db = &cmp.optimization.database;
    assert!(!db.is_empty());

    let dir = std::env::temp_dir().join("cichar_e2e");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("worst_case.json");
    db.save(&path).expect("save");
    let loaded = WorstCaseDatabase::load(&path).expect("load");
    assert_eq!(loaded.entries(), db.entries());

    // The stored tests replay to the same trip point on a fresh tester.
    let worst = loaded.worst().expect("non-empty");
    let mut ate = Ate::noiseless(MemoryDevice::nominal());
    use cichar::ate::MeasuredParam;
    use cichar::search::BinarySearch;
    let param = MeasuredParam::DataValidTime;
    let replayed = BinarySearch::new(param.generous_range(), param.resolution())
        .run(param.region_order(), ate.trip_oracle(&worst.test, param))
        .trip_point
        .expect("converged");
    assert!(
        (replayed - worst.trip_point).abs() < 0.3,
        "stored {} vs replayed {replayed}",
        worst.trip_point
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn database_entries_are_all_classified_and_sorted() {
    let (cmp, _) = run_pipeline(105);
    let db = &cmp.optimization.database;
    for pair in db.entries().windows(2) {
        assert!(pair[0].wcr >= pair[1].wcr);
    }
    for entry in db.entries() {
        assert_ne!(entry.class, WcrClass::Fail, "fails go to the failure store");
        assert_eq!(entry.class, WcrClass::from_wcr(entry.wcr));
    }
    for failure in db.failures() {
        assert_eq!(failure.class, WcrClass::Fail);
        assert!(failure.wcr > 1.0);
    }
}

#[test]
fn ate_cost_is_fully_attributed() {
    let (cmp, ate) = run_pipeline(106);
    let attributed: u64 = cmp.rows.iter().map(|r| r.measurements).sum();
    assert_eq!(
        attributed,
        ate.ledger().measurements(),
        "every measurement belongs to exactly one technique"
    );
}

/// Session routing shows in the caller's ledger. On a noisy tester the
/// shared-session entry points measure every stage on the caller's
/// session (`ate_cost_is_fully_attributed` pins `Comparison::run`); the
/// parallel ones return the Random DSV and GA ledgers separately, so the
/// caller's session records less than the campaign attributes.
#[test]
fn session_routing_shows_in_the_callers_ledger() {
    let config = quick_config();
    let policy = ExecPolicy::with_threads(2);
    let mut ate = Ate::new(MemoryDevice::nominal());
    let mut rng = StdRng::seed_from_u64(107);
    let cmp = Comparison::run_parallel(&mut ate, &config, policy, &mut rng);
    let attributed: u64 = cmp.rows.iter().map(|r| r.measurements).sum();
    assert!(ate.ledger().measurements() < attributed);

    let task = AnalysisTask::data_sheet()[0];
    let campaign = MultiParamCampaign::new(vec![task], config.learning, config.optimization);
    let mut ate = Ate::new(MemoryDevice::nominal());
    let mut rng = StdRng::seed_from_u64(108);
    let shared = campaign.run(&mut ate, Sessions::Shared, &mut rng, &Tracer::disabled());
    assert_eq!(ate.ledger().measurements(), shared.total_measurements);
    let mut ate = Ate::new(MemoryDevice::nominal());
    let mut rng = StdRng::seed_from_u64(108);
    let sessions = Sessions::PerTest(policy);
    let per_test = campaign.run(&mut ate, sessions, &mut rng, &Tracer::disabled());
    assert!(ate.ledger().measurements() < per_test.total_measurements);
}
