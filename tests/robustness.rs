//! The fault-tolerant measurement pipeline, end to end: injected tester
//! faults must not change the characterization story, and every fault
//! must be visible in the ledger.
//!
//! Acceptance criteria of the robustness PR:
//!
//! * at 2% verdict flips + 1% dropouts, a seeded DSV campaign's
//!   worst-case trip point matches the fault-free one within one search
//!   resolution step;
//! * every injected fault is accounted for in the ledger's fault
//!   columns;
//! * zero quarantined points leak into the reported DSV extremum.

use cichar::ate::{Ate, AteConfig, MeasuredParam, TesterFaultModel};
use cichar::core::dsv::{MultiTripRunner, SearchStrategy, TripStatus};
use cichar::dut::MemoryDevice;
use cichar::patterns::{random, ConditionSpace, Test};
use cichar::search::RetryPolicy;
use cichar::trace::Tracer;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn suite(n: usize) -> Vec<Test> {
    let space = ConditionSpace::default();
    random::random_suite(&mut StdRng::seed_from_u64(0xD5C), &space, n)
}

fn campaign(faults: TesterFaultModel, recovery: Option<RetryPolicy>) -> (Ate, MultiTripRunner) {
    let ate = Ate::with_config(
        MemoryDevice::nominal(),
        AteConfig {
            faults,
            seed: 0xFA_17,
            ..AteConfig::default()
        },
    );
    let mut runner = MultiTripRunner::new(MeasuredParam::DataValidTime);
    if let Some(policy) = recovery {
        runner = runner.with_recovery(policy);
    }
    (ate, runner)
}

#[test]
fn faulty_campaign_matches_fault_free_worst_case_within_one_step() {
    let param = MeasuredParam::DataValidTime;
    let tests = suite(40);

    let (mut clean_ate, clean_runner) = campaign(TesterFaultModel::none(), None);
    let clean = clean_runner.run(
        &mut clean_ate,
        &tests,
        SearchStrategy::SearchUntilTrip,
        &Tracer::disabled(),
    );

    let (mut ate, runner) = campaign(
        TesterFaultModel::transient(0.02, 0.01),
        Some(RetryPolicy::new(4, 50.0).with_vote(2, 3)),
    );
    let faulty = runner.run(
        &mut ate,
        &tests,
        SearchStrategy::SearchUntilTrip,
        &Tracer::disabled(),
    );

    // The recovery ladder actually worked for its living.
    let ledger = ate.ledger();
    assert!(ledger.flips() > 0, "flips injected: {ledger}");
    assert!(ledger.dropouts() > 0, "dropouts injected: {ledger}");
    assert!(ledger.retries() > 0, "retries spent: {ledger}");
    assert!(ledger.backoff_time_us() > 0.0, "backoff charged: {ledger}");

    // The worst-case extremum survives fault injection to within one
    // search step (the binary search's own uncertainty).
    let step = param.search_factor().max(param.resolution());
    let clean_worst = clean.min().expect("clean campaign converges");
    let faulty_worst = faulty.min().expect("faulty campaign still reports");
    assert!(
        (clean_worst - faulty_worst).abs() <= step,
        "worst case moved: clean {clean_worst:.4}, faulty {faulty_worst:.4}, step {step:.4}"
    );
}

#[test]
fn every_injected_fault_is_accounted_in_the_ledger() {
    let faults = TesterFaultModel::transient(0.02, 0.01)
        .with_stuck_channels(0.002, 4)
        .with_session_aborts(0.002, 3);
    let (mut ate, runner) = campaign(faults, Some(RetryPolicy::new(4, 50.0).with_vote(2, 3)));
    let report = runner.run(
        &mut ate,
        &suite(40),
        SearchStrategy::SearchUntilTrip,
        &Tracer::disabled(),
    );

    let ledger = ate.ledger();
    assert!(ledger.injected_faults() > 0);
    assert_eq!(
        ledger.injected_faults(),
        ledger.dropouts() + ledger.flips() + ledger.stuck_probes() + ledger.aborts(),
        "fault columns partition the injected total"
    );
    // The quarantine column agrees with the report's classification.
    assert_eq!(ledger.quarantined(), report.quarantined() as u64);
    // Faults cost tester time, never less than the fault-free run.
    assert!(ledger.test_time_ms() > 0.0);
}

#[test]
fn quarantined_points_never_leak_into_the_extremum() {
    // Brutal dropout rate with no recovery: plenty of quarantined points.
    let (mut ate, runner) = campaign(TesterFaultModel::transient(0.0, 0.3), None);
    let report = runner.run(
        &mut ate,
        &suite(40),
        SearchStrategy::FullRange,
        &Tracer::disabled(),
    );
    assert!(report.quarantined() > 0, "rate high enough to quarantine");

    for entry in report.quarantined_entries() {
        assert_eq!(
            entry.trip_point, None,
            "quarantined entry {} carries no trip point",
            entry.test_name
        );
        assert!(matches!(entry.status, TripStatus::Quarantined { .. }));
    }
    // Eq. 1 extrema come from exactly the non-quarantined population.
    let trip_points = report.trip_points();
    assert_eq!(
        trip_points.len(),
        report.entries.len() - report.quarantined()
    );
    if let (Some(min), Some(max)) = (report.min(), report.max()) {
        assert!(trip_points.iter().all(|tp| (min..=max).contains(tp)));
    }
}

#[test]
fn recovery_restores_every_trip_point_on_a_noiseless_tester() {
    // With noise off, any surviving fault would shift a trip point; the
    // ladder must reproduce the fault-free answer bit for bit.
    use cichar::ate::NoiseModel;
    let tests = suite(24);
    let run = |faults: TesterFaultModel, recovery: Option<RetryPolicy>| {
        let mut ate = Ate::with_config(
            MemoryDevice::nominal(),
            AteConfig {
                noise: NoiseModel::noiseless(),
                faults,
                seed: 0xFA_17,
                ..AteConfig::default()
            },
        );
        let mut runner = MultiTripRunner::new(MeasuredParam::DataValidTime);
        if let Some(policy) = recovery {
            runner = runner.with_recovery(policy);
        }
        runner.run(
            &mut ate,
            &tests,
            SearchStrategy::FullRange,
            &Tracer::disabled(),
        )
    };
    let clean = run(TesterFaultModel::none(), None);
    let recovered = run(
        TesterFaultModel::transient(0.02, 0.01),
        Some(RetryPolicy::new(8, 50.0).with_vote(2, 3)),
    );
    assert_eq!(recovered.quarantined(), 0, "ladder rides out every fault");
    for (c, r) in clean.entries.iter().zip(&recovered.entries) {
        assert_eq!(c.trip_point, r.trip_point, "{}", c.test_name);
    }
}
