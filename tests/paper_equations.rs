//! The paper's numbered equations and named numbers, verified through the
//! public API.

use cichar::ate::{Ate, MeasuredParam};
use cichar::core::dsv::{MultiTripRunner, SearchStrategy};
use cichar::core::wcr::{CharacterizationObjective, WcrClass};
use cichar::dut::MemoryDevice;
use cichar::patterns::{march, random, Test, TestConditions};
use cichar::search::RegionOrder;
use cichar::trace::Tracer;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Eq. (1): the design specification becomes the *set* of trip points over
/// N tests, not a single number.
#[test]
fn eq1_dsv_is_a_set_over_tests() {
    let mut rng = StdRng::seed_from_u64(1);
    let tests: Vec<Test> = (0..10)
        .map(|_| random::random_test_at(&mut rng, TestConditions::nominal()))
        .collect();
    let mut ate = Ate::noiseless(MemoryDevice::nominal());
    let report = MultiTripRunner::new(MeasuredParam::DataValidTime).run(
        &mut ate,
        &tests,
        SearchStrategy::SearchUntilTrip,
        &Tracer::disabled(),
    );
    let dsv = report.trip_points();
    assert_eq!(dsv.len(), 10, "one TPV per test");
    let distinct = {
        let mut v = dsv.clone();
        v.sort_by(f64::total_cmp);
        v.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
        v.len()
    };
    assert!(distinct >= 5, "trip points differ across tests: {dsv:?}");
}

/// Eq. (2): the first test's trip point becomes the reference (RTP).
#[test]
fn eq2_first_trip_point_is_the_reference() {
    let tests: Vec<Test> = march::standard_suite()
        .into_iter()
        .map(|(n, p)| Test::deterministic(n, p))
        .collect();
    let mut ate = Ate::noiseless(MemoryDevice::nominal());
    let report = MultiTripRunner::new(MeasuredParam::DataValidTime).run(
        &mut ate,
        &tests,
        SearchStrategy::SearchUntilTrip,
        &Tracer::disabled(),
    );
    assert_eq!(report.reference_trip_point, report.entries[0].trip_point);
}

/// Eqs. (3)/(4): both region orientations are explicitly modelled and
/// mapped to the right parameters.
#[test]
fn eq3_eq4_orientations() {
    assert_eq!(
        MeasuredParam::MaxFrequency.region_order(),
        RegionOrder::PassBelowFail,
        "eq. 3: P < F for frequency"
    );
    assert_eq!(
        MeasuredParam::MinVoltage.region_order(),
        RegionOrder::PassAboveFail,
        "eq. 4: P > F for supply voltage"
    );
    assert_eq!(
        RegionOrder::PassBelowFail.flipped(),
        RegionOrder::PassAboveFail
    );
}

/// §4's worked example: spec 100 MHz, generous range 80–130 MHz, CR = 50.
#[test]
fn section4_frequency_example_numbers() {
    let range = MeasuredParam::MaxFrequency.generous_range();
    assert_eq!((range.start(), range.end()), (80.0, 130.0));
    assert_eq!(range.width(), 50.0);

    // And the simulated device actually fails somewhere inside that range
    // above its spec, like the paper's "fail if … above 110 MHz" device.
    let test = Test::deterministic("march_c-", march::march_c_minus(64));
    let mut ate = Ate::noiseless(MemoryDevice::nominal());
    let report = MultiTripRunner::new(MeasuredParam::MaxFrequency).run(
        &mut ate,
        std::slice::from_ref(&test),
        SearchStrategy::FullRange,
        &Tracer::disabled(),
    );
    let f_max = report.entries[0].trip_point.expect("in range");
    assert!((100.0..120.0).contains(&f_max), "f_max = {f_max}");
}

/// Eqs. (5)/(6) and fig. 6: WCR values and classes for the paper's own
/// Table 1 numbers.
#[test]
fn eq5_eq6_and_fig6_reference_numbers() {
    let eq6 = CharacterizationObjective::drift_to_minimum(20.0);
    for (t_dq, wcr, class) in [
        (32.3, 0.619, WcrClass::Pass),
        (28.5, 0.701, WcrClass::Pass),
        (22.1, 0.904, WcrClass::Weakness),
    ] {
        assert!((eq6.wcr(t_dq) - wcr).abs() < 0.001, "t_dq {t_dq}");
        assert_eq!(eq6.classify(t_dq), class, "t_dq {t_dq}");
    }
    let eq5 = CharacterizationObjective::drift_to_maximum(110.0);
    assert_eq!(eq5.classify(95.0), WcrClass::Weakness); // 0.86
    assert_eq!(eq5.classify(120.0), WcrClass::Fail);
    assert_eq!(eq5.classify(80.0), WcrClass::Pass); // 0.72
}

/// §6: the T_DQ spec constant is 20 ns and the nominal corner is 1.8 V.
#[test]
fn section6_experiment_constants() {
    assert_eq!(cichar::dut::T_DQ_SPEC.value(), 20.0);
    assert_eq!(TestConditions::nominal().vdd.value(), 1.8);
}

/// §3: patterns are 100–1000 vector cycles.
#[test]
fn section3_pattern_window() {
    assert_eq!(cichar::patterns::MIN_PATTERN_LEN, 100);
    assert_eq!(cichar::patterns::MAX_PATTERN_LEN, 1000);
    let mut rng = StdRng::seed_from_u64(9);
    for _ in 0..50 {
        let n = random::random_test_at(&mut rng, TestConditions::nominal())
            .pattern()
            .len();
        assert!((100..=1000).contains(&n));
    }
}
