//! The allocation-parity battery: every buffer-reusing `_into`/`_in`
//! form on the hot path must be bit-identical to its reference — same
//! verdicts, same ledger — for **every** registered device backend, and a
//! dirty [`SearchScratch`] must never leak state between searches.
//!
//! Property-tested (seeds, batch shapes and sweep values are generated)
//! because the `_into` forms are the wafer engine's steady state: a
//! divergence here would silently corrupt every campaign artifact.
//!
//! Layers covered, bottom to top:
//!
//! 1. `Device::evaluate_batch_into` vs `evaluate_batch` (the SoA device
//!    fast path), including the append-without-clearing contract;
//! 2. `Ate::measure_features_batch_into` vs a scalar
//!    `Ate::measure_features` loop, one call per value (the batched
//!    tester seam), ledgers compared too;
//! 3. `MultiSiteAte::measure_sites_into` vs one scalar
//!    `Ate::measure_features` call per solo-site session (the touchdown
//!    strobe), per-site and merged ledgers compared too;
//! 4. `TripOracle::probe_batch_into` / `probe_batch_speculative_into`
//!    vs their allocating defaults (the search↔ATE seam);
//! 5. the `*_in` search entry points fed a deliberately polluted
//!    scratch: summaries, traces and ledgers must match a fresh-buffer
//!    run exactly.

use cichar::ate::{Ate, AteConfig, MeasuredParam, MeasurementLedger, MultiSiteAte};
use cichar::dut::{Device, Registry};
use cichar::exec::derive_seed;
use cichar::patterns::{random, ConditionSpace, PatternFeatures, TestConditions};
use cichar::search::{
    BatchOracle, Probe, SearchScratch, SearchUntilTrip, SuccessiveApproximation,
};
use cichar::units::ParamKind;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SEED: u64 = 0xA110_0C8E;

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

/// A deliberately filthy scratch: every buffer pre-loaded with garbage a
/// previous die could plausibly have left behind. Only the trace clear is
/// the caller's job; everything else the consuming search must overwrite.
fn polluted_scratch() -> SearchScratch {
    let mut scratch = SearchScratch::default();
    scratch.trace.extend((0..7).map(|i| (900.0 + i as f64, Probe::Invalid)));
    scratch
        .forces
        .extend([(ParamKind::StrobeDelay, -1.0), (ParamKind::SupplyVoltage, 99.0)]);
    scratch.vote_values.extend([f64::NAN; 5]);
    scratch.vote_probes.extend([Probe::Fail; 5]);
    scratch.spec.extend([Probe::Invalid; 9]);
    scratch.trace.clear();
    scratch
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Layer 1: the device-level SoA batch. The `_into` form must append
    /// element-identical results after an untouched dirty prefix.
    #[test]
    fn device_evaluate_batch_into_appends_identically(
        seed in 0u64..1024,
        n in 1usize..16,
    ) {
        for (name, device) in backends() {
            let mut rng = StdRng::seed_from_u64(SEED ^ seed);
            let suite = random::random_suite(&mut rng, &ConditionSpace::default(), n.max(1));
            let features = PatternFeatures::extract(&suite[0].pattern());
            let conditions: Vec<TestConditions> =
                suite.iter().map(|t| *t.conditions()).collect();
            let fresh = device.evaluate_batch(&features, &conditions);
            // Dirty buffer: a full copy of the results acts as sentinel
            // prefix — any clear or in-place mutation shows up as a
            // prefix mismatch.
            let mut dirty = fresh.clone();
            device.evaluate_batch_into(&features, &conditions, &mut dirty);
            prop_assert_eq!(dirty.len(), fresh.len() * 2, "`{}`: wrong append count", name);
            prop_assert_eq!(&dirty[..fresh.len()], &fresh[..], "`{}`: prefix clobbered", name);
            prop_assert_eq!(&dirty[fresh.len()..], &fresh[..], "`{}`: tail diverges", name);
        }
    }

    /// Layer 2: the batched tester seam. Same config seed, same stimulus:
    /// the `_into` session must produce the verdicts *and* the ledger of
    /// one scalar measurement per value, in order.
    #[test]
    fn ate_measure_features_batch_into_matches_scalar_loop(
        seed in 0u64..1024,
        base in 20.0f64..30.0,
        step in 0.05f64..0.75,
    ) {
        let values: Vec<f64> = (0..17).map(|i| base + step * f64::from(i)).collect();
        for (name, device) in backends() {
            let config = AteConfig { seed: SEED ^ seed, ..AteConfig::default() };
            let mut rng = StdRng::seed_from_u64(seed);
            let test = random::random_test_at(&mut rng, TestConditions::nominal());
            let pattern = test.pattern();
            let features = PatternFeatures::extract(&pattern);
            let cycles = pattern.len() as u64;
            let relax = MeasuredParam::DataValidTime.relax_forces();

            let mut scalar = Ate::with_config(device.clone(), config.clone());
            let mut forces = relax.to_vec();
            forces.push((ParamKind::StrobeDelay, f64::NAN));
            let expected: Vec<Probe> = values
                .iter()
                .map(|&v| {
                    *forces.last_mut().expect("strobe slot") = (ParamKind::StrobeDelay, v);
                    scalar.measure_features(&features, cycles, &test, &forces)
                })
                .collect();

            let mut reusing = Ate::with_config(device.clone(), config);
            let mut out = vec![Probe::Invalid; 3];
            reusing.measure_features_batch_into(
                &features, cycles, &test, relax, ParamKind::StrobeDelay, &values, &mut out,
            );
            prop_assert_eq!(&out[..3], &[Probe::Invalid; 3][..], "`{}`: prefix clobbered", name);
            prop_assert_eq!(&out[3..], &expected[..], "`{}`: batch verdicts diverge", name);
            prop_assert_eq!(scalar.ledger(), reusing.ledger(), "`{}`: ledgers diverge", name);
        }
    }

    /// Layer 3: the touchdown strobe. Each site's verdict and ledger must
    /// match a solo session seeded as that site, measured scalar, and the
    /// merged ledger their fold in site order.
    #[test]
    fn multisite_measure_sites_into_matches_solo_sessions(
        seed in 0u64..1024,
        strobe in 20.0f64..34.0,
    ) {
        for (name, device) in backends() {
            let config = AteConfig { seed: SEED ^ seed, ..AteConfig::default() };
            let mut rng = StdRng::seed_from_u64(seed);
            let test = random::random_test_at(&mut rng, TestConditions::nominal());
            let pattern = test.pattern();
            let features = PatternFeatures::extract(&pattern);
            let cycles = pattern.len() as u64;
            let mut forces = MeasuredParam::DataValidTime.relax_forces().to_vec();
            forces.push((ParamKind::StrobeDelay, strobe));

            let mut solos: Vec<Ate> = (0..4u64)
                .map(|site| {
                    let seed = derive_seed(config.seed, site);
                    Ate::with_config(device.clone(), AteConfig { seed, ..config.clone() })
                })
                .collect();
            let expected: Vec<Probe> = solos
                .iter_mut()
                .map(|solo| solo.measure_features(&features, cycles, &test, &forces))
                .collect();

            let mut reusing = MultiSiteAte::new(vec![device.clone(); 4], config);
            let mut out = vec![Probe::Invalid; 2];
            reusing.measure_sites_into(&features, cycles, &test, &forces, &mut out);
            prop_assert_eq!(&out[..2], &[Probe::Invalid; 2][..], "`{}`: prefix clobbered", name);
            prop_assert_eq!(&out[2..], &expected[..], "`{}`: site verdicts diverge", name);
            let mut merged = MeasurementLedger::new();
            for (site, solo) in solos.iter().enumerate() {
                prop_assert_eq!(
                    reusing.site(site).ledger(), solo.ledger(),
                    "`{}`: site {} ledger diverges", name, site
                );
                merged.merge(solo.ledger());
            }
            prop_assert_eq!(reusing.merged_ledger(), merged, "`{}`: merged ledgers diverge", name);
        }
    }

    /// Layer 4: the search↔ATE seam. The trip oracle's buffer-reusing
    /// batch probes — plain and speculative — must match the allocating
    /// defaults verdict-for-verdict, ledger-for-ledger.
    #[test]
    fn trip_oracle_batch_into_matches_twin(
        seed in 0u64..1024,
        lo in 22.0f64..26.0,
        span in 0.5f64..6.0,
    ) {
        let values: Vec<f64> = (0..9).map(|i| lo + span * f64::from(i) / 8.0).collect();
        for (name, device) in backends() {
            let config = AteConfig { seed: SEED ^ seed, ..AteConfig::default() };
            let mut rng = StdRng::seed_from_u64(seed);
            let test = random::random_test_at(&mut rng, TestConditions::nominal());
            let param = MeasuredParam::DataValidTime;

            let mut twin = Ate::with_config(device.clone(), config.clone());
            let fresh = twin.trip_oracle(&test, param).probe_batch(&values);
            let fresh_spec = twin
                .trip_oracle(&test, param)
                .probe_batch_speculative(&values, values.len() / 2);

            let mut reusing = Ate::with_config(device.clone(), config);
            let mut out = vec![Probe::Invalid; 1];
            reusing.trip_oracle(&test, param).probe_batch_into(&values, &mut out);
            prop_assert_eq!(&out[1..], &fresh[..], "`{}`: probe_batch_into diverges", name);
            out.clear();
            reusing.trip_oracle(&test, param).probe_batch_speculative_into(
                &values, values.len() / 2, &mut out,
            );
            prop_assert_eq!(&out[..], &fresh_spec[..],
                "`{}`: probe_batch_speculative_into diverges", name);
            prop_assert_eq!(twin.ledger(), reusing.ledger(), "`{}`: ledgers diverge", name);
        }
    }

    /// Layer 5: a polluted scratch must not leak into results. Both `*_in`
    /// entry points run against a scratch whose every buffer holds garbage
    /// from a fictional previous die; summary, trace and ledger must be
    /// bit-identical to a fresh-buffer run.
    #[test]
    fn dirty_scratch_never_leaks_between_searches(seed in 0u64..1024) {
        for (name, device) in backends() {
            let config = AteConfig { seed: SEED ^ seed, ..AteConfig::default() };
            let mut rng = StdRng::seed_from_u64(seed);
            let test = random::random_test_at(&mut rng, TestConditions::nominal());
            let param = MeasuredParam::DataValidTime;
            let range = param.generous_range();
            let order = param.region_order();

            // Successive approximation: fresh vs dirty scratch.
            let sar = SuccessiveApproximation::new(range, param.resolution());
            let mut twin = Ate::with_config(device.clone(), config.clone());
            let fresh = sar.run(order, twin.trip_oracle(&test, param));
            let mut scratch = polluted_scratch();
            let mut reusing = Ate::with_config(device.clone(), config.clone());
            let summary = sar.run_in(order, reusing.trip_oracle(&test, param), &mut scratch);
            prop_assert_eq!(summary.trip_point, fresh.trip_point, "`{}`: SAR trip", name);
            prop_assert_eq!(summary.converged, fresh.converged, "`{}`: SAR convergence", name);
            prop_assert_eq!(&scratch.trace, &fresh.trace, "`{}`: SAR trace", name);
            prop_assert_eq!(twin.ledger(), reusing.ledger(), "`{}`: SAR ledgers", name);

            // Search-until-trip from the fresh run's trip point as RTP.
            if let Some(rtp) = fresh.trip_point.filter(|tp| range.contains(*tp)) {
                let stp = SearchUntilTrip::new(range, 2.0);
                let mut twin = Ate::with_config(device.clone(), config.clone());
                let fresh = stp.run(rtp, order, twin.trip_oracle(&test, param));
                let mut scratch = polluted_scratch();
                let mut reusing = Ate::with_config(device.clone(), config);
                let summary =
                    stp.run_in(rtp, order, reusing.trip_oracle(&test, param), &mut scratch);
                prop_assert_eq!(summary.trip_point, fresh.trip_point, "`{}`: STP trip", name);
                prop_assert_eq!(summary.converged, fresh.converged, "`{}`: STP convergence", name);
                prop_assert_eq!(&scratch.trace, &fresh.trace, "`{}`: STP trace", name);
                prop_assert_eq!(twin.ledger(), reusing.ledger(), "`{}`: STP ledgers", name);
            }
        }
    }
}
