//! The backend conformance battery: every registered device backend must
//! satisfy the same physical and operational contract the rest of the
//! stack assumes of `memory`.
//!
//! The battery runs against **all** builtin backends by default; set
//! `CICHAR_DEVICE=<name>` to restrict it to one (the CI matrix runs one
//! job per backend this way). Each test loops over the selected backends
//! so a failure names the offender.
//!
//! Layers covered, bottom to top:
//!
//! 1. device physics — `cichar::dut::conformance::verify_device` (bounds,
//!    single-crossing monotonicity, stress hoist, batch parity, seeded
//!    sampling, corner ordering);
//! 2. the tester — every `MeasuredParam` search brackets exactly one
//!    pass/fail transition inside its §4 characterization range, and the
//!    batched hot path is bit-identical to the scalar path;
//! 3. sessions — same seed, same probe stream;
//! 4. the parallel DSV engine — threads 1 vs 8 produce bit-identical
//!    reports and ledgers;
//! 5. fault injection — the recovery ladder's accounting identities hold
//!    for every backend, not just the one it was written against.

use cichar::ate::{Ate, AteConfig, MeasuredParam, ParallelAte, TesterFaultModel};
use cichar::core::dsv::{MultiTripRunner, ReferenceRule, SearchStrategy};
use cichar::dut::{conformance, Device, Registry};
use cichar::exec::ExecPolicy;
use cichar::patterns::{march, random, ConditionSpace, PatternFeatures, Test};
use cichar::search::{BinarySearch, Probe, RetryPolicy};
use cichar::trace::{Telemetry, Tracer};
use cichar::units::ParamKind;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SEED: u64 = 0xC0F0_2005;

/// The backends under test: `CICHAR_DEVICE` selects one, default is every
/// registered backend (each with its default parameters).
fn backends() -> Vec<(String, Device)> {
    let registry = Registry::builtin();
    let names: Vec<String> = match std::env::var("CICHAR_DEVICE") {
        Ok(name) if !name.trim().is_empty() => vec![name.trim().to_string()],
        _ => registry.names().iter().map(|n| (*n).to_string()).collect(),
    };
    names
        .into_iter()
        .map(|name| {
            let device = registry
                .create(&name, &[])
                .unwrap_or_else(|err| panic!("create {name}: {err}"));
            (name, device)
        })
        .collect()
}

fn march_test() -> Test {
    Test::deterministic("conformance_march_c-", march::march_c_minus(64))
}

fn suite(n: usize) -> Vec<Test> {
    let space = ConditionSpace::default();
    random::random_suite(&mut StdRng::seed_from_u64(SEED), &space, n)
}

#[test]
fn every_backend_passes_the_device_battery() {
    let patterns = conformance::reference_patterns();
    for (name, device) in backends() {
        conformance::verify_device(&device, &patterns)
            .unwrap_or_else(|err| panic!("backend `{name}` fails the device battery: {err}"));
    }
}

/// §4's central premise, per backend and per parameter: swept across the
/// generous characterization range with the other axes relaxed, the
/// noiseless verdict sequence crosses pass→fail (in the parameter's
/// region order) **exactly once**, and a binary search brackets that
/// crossing inside the range.
#[test]
fn trip_searches_bracket_one_crossing_inside_the_cr() {
    let test = march_test();
    for (name, device) in backends() {
        for param in MeasuredParam::ALL {
            let mut ate = Ate::noiseless(device.clone());
            let range = param.generous_range();
            let steps = 80usize;
            let verdicts: Vec<Probe> = (0..=steps)
                .map(|i| {
                    let v = range.lerp(i as f64 / steps as f64);
                    ate.measure(&test, param, v)
                })
                .collect();
            assert!(
                verdicts.iter().all(|p| p.is_valid()),
                "`{name}` {param}: noiseless sweep produced invalid probes"
            );
            // Orient so the sweep should read pass…pass fail…fail.
            let oriented: Vec<bool> = match param.region_order().toward_fail() {
                f if f > 0.0 => verdicts.iter().map(|p| p.is_pass()).collect(),
                _ => verdicts.iter().rev().map(|p| p.is_pass()).collect(),
            };
            let transitions = oriented.windows(2).filter(|w| w[0] != w[1]).count();
            assert_eq!(
                transitions, 1,
                "`{name}` {param}: expected exactly one pass/fail crossing \
                 across {:?}, saw {transitions}",
                range
            );
            assert!(
                oriented[0] && !oriented[steps],
                "`{name}` {param}: crossing not oriented pass→fail toward the fail region"
            );

            let outcome = BinarySearch::new(range, param.resolution())
                .run(param.region_order(), ate.trip_oracle(&test, param));
            assert!(
                outcome.converged,
                "`{name}` {param}: binary search did not bracket a trip point"
            );
            let trip = outcome.trip_point.expect("converged search carries a trip point");
            assert!(
                range.contains(trip),
                "`{name}` {param}: trip {trip} outside CR {range:?}"
            );
        }
    }
}

/// The batched hot path must be bit-identical to the scalar path for
/// every backend — same verdicts, same ledger — under the default noisy
/// configuration (drift and RNG streams advance identically).
#[test]
fn batched_hot_path_matches_scalar_probes() {
    let test = march_test();
    let pattern = test.pattern();
    let features = PatternFeatures::extract(&pattern);
    let cycles = pattern.len() as u64;
    let base = MeasuredParam::DataValidTime.relax_forces().to_vec();
    let values: Vec<f64> = (0..48).map(|i| 20.0 + 0.35 * f64::from(i)).collect();
    for (name, device) in backends() {
        let config = AteConfig {
            seed: SEED,
            ..AteConfig::default()
        };
        let mut scalar = Ate::with_config(device.clone(), config.clone());
        let scalar_verdicts: Vec<Probe> = values
            .iter()
            .map(|&v| {
                let mut forces = base.clone();
                forces.push((ParamKind::StrobeDelay, v));
                scalar.measure_features(&features, cycles, &test, &forces)
            })
            .collect();

        let mut batched = Ate::with_config(device.clone(), config);
        let mut batch = Vec::new();
        batched.measure_features_batch_into(
            &features,
            cycles,
            &test,
            &base,
            ParamKind::StrobeDelay,
            &values,
            &mut batch,
        );
        assert_eq!(batch, scalar_verdicts, "`{name}`: batch diverges from scalar");
        assert_eq!(
            *batched.ledger(),
            *scalar.ledger(),
            "`{name}`: batch ledger diverges from scalar"
        );
    }
}

/// Two sessions with the same seed replay the same probe stream — noise,
/// drift and fault RNGs are all functions of the config seed, never of
/// wall-clock state, for every backend.
#[test]
fn seeded_sessions_reproduce_probe_streams() {
    let tests = suite(6);
    for (name, device) in backends() {
        let run = || {
            let mut ate = Ate::with_config(
                device.clone(),
                AteConfig {
                    seed: SEED,
                    ..AteConfig::default()
                },
            );
            let mut probes = Vec::new();
            for test in &tests {
                for param in MeasuredParam::ALL {
                    let mid = param.generous_range().midpoint();
                    probes.push(ate.measure(test, param, mid));
                }
            }
            (probes, *ate.ledger())
        };
        let (first, first_ledger) = run();
        let (second, second_ledger) = run();
        assert_eq!(first, second, "`{name}`: seeded sessions diverge");
        assert_eq!(first_ledger, second_ledger, "`{name}`: seeded ledgers diverge");
    }
}

/// A mini DSV campaign through the parallel engine is bit-identical at 1
/// and 8 worker threads: same report (entries in test order, same trip
/// points, same statuses) and same merged ledger.
#[test]
fn mini_dsv_is_thread_count_invariant() {
    let tests = suite(8);
    for (name, device) in backends() {
        let blueprint = ParallelAte::new(
            device.clone(),
            AteConfig {
                seed: SEED,
                ..AteConfig::default()
            },
        );
        let runner = MultiTripRunner::new(MeasuredParam::DataValidTime);
        let (report_1, ledger_1) = runner.run_parallel(
            &blueprint,
            &tests,
            ReferenceRule::Anchored,
            ExecPolicy::with_threads(1),
            &Tracer::disabled(),
            &Telemetry::disabled(),
        );
        let (report_8, ledger_8) = runner.run_parallel(
            &blueprint,
            &tests,
            ReferenceRule::Anchored,
            ExecPolicy::with_threads(8),
            &Tracer::disabled(),
            &Telemetry::disabled(),
        );
        assert_eq!(report_1, report_8, "`{name}`: DSV report depends on thread count");
        assert_eq!(ledger_1, ledger_8, "`{name}`: merged ledger depends on thread count");
        assert_eq!(report_1.entries.len(), tests.len(), "`{name}`: entry per test");
    }
}

/// Fault injection and recovery accounting hold per backend: the fault
/// columns partition the injected total, quarantine agrees between the
/// ledger and the report, and quarantined entries never carry trip
/// points.
#[test]
fn fault_recovery_accounting_holds_for_every_backend() {
    let tests = suite(16);
    for (name, device) in backends() {
        let mut ate = Ate::with_config(
            device.clone(),
            AteConfig {
                faults: TesterFaultModel::transient(0.02, 0.01),
                seed: SEED,
                ..AteConfig::default()
            },
        );
        let runner = MultiTripRunner::new(MeasuredParam::DataValidTime)
            .with_recovery(RetryPolicy::new(4, 50.0).with_vote(2, 3));
        let strategy = SearchStrategy::SearchUntilTrip;
        let report = runner.run(&mut ate, &tests, strategy, &Tracer::disabled());

        let ledger = ate.ledger();
        assert!(ledger.injected_faults() > 0, "`{name}`: rates high enough to inject");
        assert_eq!(
            ledger.injected_faults(),
            ledger.dropouts() + ledger.flips() + ledger.stuck_probes() + ledger.aborts(),
            "`{name}`: fault columns must partition the injected total"
        );
        assert_eq!(
            ledger.quarantined(),
            report.quarantined() as u64,
            "`{name}`: ledger and report disagree on quarantine"
        );
        for entry in report.quarantined_entries() {
            assert_eq!(
                entry.trip_point, None,
                "`{name}`: quarantined entry {} carries a trip point",
                entry.test_name
            );
        }
        // Whatever recovered must have cost retries.
        if report.recovered() > 0 {
            assert!(ledger.retries() > 0, "`{name}`: recovery without retries");
        }
    }
}
