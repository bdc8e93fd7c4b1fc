//! Criterion bench `probe_economy`: what a trip point costs in probes.
//!
//! ```text
//! cargo bench -p cichar-bench --bench probe_economy            # full run
//! cargo bench -p cichar-bench --bench probe_economy -- --test  # CI smoke
//! ```
//!
//! Compares four ways of finding the same trip points on the
//! `repro_table1`-style random-test workload (nominal conditions,
//! noiseless tester):
//!
//! - `full_range_scalar`   — full-range successive approximation, one
//!   probe at a time (the §1 state of the art, fig. 3's cost baseline);
//! - `full_range_batched`  — the same bisection with speculative batch
//!   probing: both children of the next level are pre-issued through
//!   `BatchOracle`, the unused half is ledgered as speculative;
//! - `stp_rtp_seeded`      — eq. 2 once, then eqs. 3–4 around the
//!   reference trip point (the paper's method);
//! - `warm_started_stp`    — STP seeded per test from the trained
//!   committee's predicted trip point (`LearnedModel::predict_trip`),
//!   with the RTP fallback ladder for distrusted votes.
//!
//! The probe accounting is asserted before anything is timed: every
//! variant must land on the full-range trip points (bit-equal for the
//! batched path, within search resolution for the seeded walks), the
//! warm-started walk must spend >= 30% fewer non-speculative probes per
//! trip point than the full-range baseline, and the warm and batched
//! paths must be bit-identical at 1 vs 8 worker threads. `--test` runs
//! exactly those assertions and skips the timing (and the JSON write).

use cichar_ate::{Ate, AteConfig, DriftModel, MeasuredParam, MeasurementLedger, NoiseModel, ParallelAte};
use cichar_core::dsv::{DsvReport, MultiTripRunner, ReferenceRule};
use cichar_core::learning::{LearningConfig, LearningScheme};
use cichar_dut::MemoryDevice;
use cichar_exec::ExecPolicy;
use cichar_neural::TrainConfig;
use cichar_patterns::{random, Test, TestConditions};
use cichar_search::{TripPrediction, WarmStartPlanner};
use cichar_trace::{Telemetry, Tracer};
use criterion::{black_box, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

const TESTS: usize = 120;
/// Largest committee-vote spread (ns) the planner still trusts.
const SPREAD_BAND: f64 = 2.0;

#[derive(Serialize)]
struct BenchRecord {
    id: String,
    mean_ns: f64,
    min_ns: f64,
    max_ns: f64,
    samples: usize,
}

/// One variant's probe bill, straight off the measurement ledger.
#[derive(Serialize, Clone, Copy)]
struct Economy {
    /// Probes the tester resolved, speculative included.
    probes: u64,
    /// Pre-issued bisection children that went unused.
    speculative: u64,
    /// The honest bill: probes the search actually needed.
    non_speculative: u64,
    /// Searches that converged on a trip point.
    trips: usize,
    /// `non_speculative / trips` — the headline economy number.
    non_speculative_probes_per_trip: f64,
}

#[derive(Serialize)]
struct ProbeEconomyReport {
    bench: &'static str,
    tests: usize,
    committee_accepted: bool,
    /// Predictions the planner trusted (spread within the band); the
    /// rest fell back to the reference trip point.
    trusted_predictions: usize,
    full_range_scalar: Economy,
    full_range_batched: Economy,
    stp_rtp_seeded: Economy,
    warm_started_stp: Economy,
    /// Non-speculative probes/trip saved by warm-started STP relative to
    /// full-range successive approximation. The acceptance floor is 30%.
    warm_saving_vs_full_range_pct: f64,
    batched_saving_vs_full_range_pct: f64,
    trip_points_match_full_range: bool,
    bit_identical_across_thread_counts: bool,
    results: Vec<BenchRecord>,
    note: String,
}

fn economy(report: &DsvReport, ledger: &MeasurementLedger) -> Economy {
    let trips = report
        .entries
        .iter()
        .filter(|e| e.trip_point.is_some())
        .count();
    let non_speculative = ledger.non_speculative_measurements();
    Economy {
        probes: ledger.measurements(),
        speculative: ledger.speculative_probes(),
        non_speculative,
        trips,
        non_speculative_probes_per_trip: non_speculative as f64 / trips.max(1) as f64,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    let param = MeasuredParam::DataValidTime;
    let config = AteConfig {
        noise: NoiseModel::noiseless(),
        drift: DriftModel::none(),
        seed: 0xECD0_0001,
        ..AteConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(0xECD0_0002);
    let tests: Vec<Test> = (0..TESTS)
        .map(|_| random::random_test_at(&mut rng, TestConditions::nominal()))
        .collect();
    let blueprint = ParallelAte::new(MemoryDevice::nominal(), config.clone());

    // Fig. 4 learning pass: train the committee whose trip predictions
    // seed the warm-started walks. Laptop-sized budget — same code path
    // as repro_table1's learning phase, scaled down.
    let model = {
        let mut ate = Ate::with_config(MemoryDevice::nominal(), config);
        let mut learn_rng = StdRng::seed_from_u64(0xECD0_0003);
        LearningScheme::new(LearningConfig {
            tests_per_round: 60,
            max_rounds: 2,
            committee_size: 3,
            hidden: vec![12],
            train: TrainConfig {
                epochs: 150,
                ..TrainConfig::default()
            },
            ..LearningConfig::default()
        })
        .run(&mut ate, &mut learn_rng, &Tracer::disabled())
    };
    let predictions: Vec<Option<TripPrediction>> =
        tests.iter().map(|t| model.predict_trip(t)).collect();
    let planner = WarmStartPlanner::new(param.generous_range(), SPREAD_BAND);

    let scalar_runner = MultiTripRunner::new(param);
    let batched_runner = MultiTripRunner::new(param).with_speculation();

    // ---- probe accounting (untimed), then the correctness gates ----
    let (full_report, full_ledger) = scalar_runner.run_parallel(
        &blueprint,
        &tests,
        ReferenceRule::FullRange,
        ExecPolicy::serial(),
        &Tracer::disabled(),
        &Telemetry::disabled(),
    );
    let (spec_report, spec_ledger) = batched_runner.run_parallel(
        &blueprint,
        &tests,
        ReferenceRule::FullRange,
        ExecPolicy::serial(),
        &Tracer::disabled(),
        &Telemetry::disabled(),
    );
    let (stp_report, stp_ledger) = scalar_runner.run_parallel(
        &blueprint,
        &tests,
        ReferenceRule::Anchored,
        ExecPolicy::serial(),
        &Tracer::disabled(),
        &Telemetry::disabled(),
    );
    let (warm_report, warm_ledger) = scalar_runner.run_parallel(
        &blueprint,
        &tests,
        ReferenceRule::Warm(&predictions, &planner),
        ExecPolicy::serial(),
        &Tracer::disabled(),
        &Telemetry::disabled(),
    );

    // Speculation may only change the probe accounting (each entry's
    // `measurements` count includes its pre-issued children), never the
    // answer: trip points must stay bit-equal.
    for (a, b) in full_report.entries.iter().zip(&spec_report.entries) {
        assert_eq!(
            a.trip_point, b.trip_point,
            "{}: speculative bisection must land on the scalar trip point",
            a.test_name
        );
    }
    // Seeded walks converge to the same physics within search resolution.
    let mut trips_match = true;
    for (reference, candidate) in [(&full_report, &stp_report), (&full_report, &warm_report)] {
        for (a, b) in reference.entries.iter().zip(&candidate.entries) {
            let (ta, tb) = (
                a.trip_point.expect("full-range converges"),
                b.trip_point.expect("seeded walk converges"),
            );
            assert!(
                (ta - tb).abs() <= 2.0 * param.resolution(),
                "{}: full-range {ta} vs seeded {tb}",
                a.test_name
            );
            trips_match &= (ta - tb).abs() <= 2.0 * param.resolution();
        }
    }

    // Thread-count invariance: the batched and warm-started paths must
    // not trade determinism for probe savings.
    let eight = ExecPolicy::with_threads(8);
    let spec_eight = batched_runner.run_parallel(
        &blueprint,
        &tests,
        ReferenceRule::FullRange,
        eight,
        &Tracer::disabled(),
        &Telemetry::disabled(),
    );
    assert_eq!(
        (&spec_report, &spec_ledger),
        (&spec_eight.0, &spec_eight.1),
        "batched full-range must be bit-identical at 8 threads"
    );
    let warm_eight = scalar_runner.run_parallel(
        &blueprint,
        &tests,
        ReferenceRule::Warm(&predictions, &planner),
        eight,
        &Tracer::disabled(),
        &Telemetry::disabled(),
    );
    assert_eq!(
        (&warm_report, &warm_ledger),
        (&warm_eight.0, &warm_eight.1),
        "warm-started STP must be bit-identical at 8 threads"
    );

    let full = economy(&full_report, &full_ledger);
    let spec = economy(&spec_report, &spec_ledger);
    let stp = economy(&stp_report, &stp_ledger);
    let warm = economy(&warm_report, &warm_ledger);
    let saving = |e: &Economy| {
        100.0 * (1.0 - e.non_speculative_probes_per_trip / full.non_speculative_probes_per_trip)
    };
    let warm_saving = saving(&warm);
    let batched_saving = saving(&spec);
    let trusted = predictions
        .iter()
        .enumerate()
        .filter(|(i, p)| {
            planner
                .plan(p.as_ref(), full_report.entries[*i].trip_point.unwrap_or(0.0))
                .is_predicted()
        })
        .count();
    assert!(
        warm_saving >= 30.0,
        "warm-started STP must spend >= 30% fewer non-speculative probes \
         per trip than full-range successive approximation, measured {warm_saving:.1}% \
         ({:.2} vs {:.2} probes/trip)",
        warm.non_speculative_probes_per_trip,
        full.non_speculative_probes_per_trip
    );
    println!(
        "probe economy (non-speculative probes/trip): full-range {:.2}, \
         batched {:.2}, stp {:.2}, warm {:.2} ({warm_saving:.1}% saving, \
         {trusted}/{TESTS} predictions trusted)",
        full.non_speculative_probes_per_trip,
        spec.non_speculative_probes_per_trip,
        stp.non_speculative_probes_per_trip,
        warm.non_speculative_probes_per_trip,
    );
    if smoke {
        println!("probe_economy smoke: accounting and determinism gates passed");
        return;
    }

    // ---- wall-clock timing ----
    let mut criterion = Criterion::default();
    {
        let mut group = criterion.benchmark_group("probe_economy");
        group.sample_size(10);
        group.bench_function("full_range_scalar", |b| {
            b.iter(|| {
                black_box(scalar_runner.run_parallel(
                    &blueprint,
                    black_box(&tests),
                    ReferenceRule::FullRange,
                    ExecPolicy::serial(),
                    &Tracer::disabled(),
                    &Telemetry::disabled(),
                ))
            });
        });
        group.bench_function("full_range_batched", |b| {
            b.iter(|| {
                black_box(batched_runner.run_parallel(
                    &blueprint,
                    black_box(&tests),
                    ReferenceRule::FullRange,
                    ExecPolicy::serial(),
                    &Tracer::disabled(),
                    &Telemetry::disabled(),
                ))
            });
        });
        group.bench_function("stp_rtp_seeded", |b| {
            b.iter(|| {
                black_box(scalar_runner.run_parallel(
                    &blueprint,
                    black_box(&tests),
                    ReferenceRule::Anchored,
                    ExecPolicy::serial(),
                    &Tracer::disabled(),
                    &Telemetry::disabled(),
                ))
            });
        });
        group.bench_function("warm_started_stp", |b| {
            b.iter(|| {
                black_box(scalar_runner.run_parallel(
                    &blueprint,
                    black_box(&tests),
                    ReferenceRule::Warm(black_box(&predictions), &planner),
                    ExecPolicy::serial(),
                    &Tracer::disabled(),
                    &Telemetry::disabled(),
                ))
            });
        });
        group.finish();
    }
    criterion.final_summary();

    let results: Vec<BenchRecord> = criterion
        .results()
        .iter()
        .map(|r| BenchRecord {
            id: r.id.clone(),
            mean_ns: r.mean_ns,
            min_ns: r.min_ns,
            max_ns: r.max_ns,
            samples: r.samples,
        })
        .collect();
    let report = ProbeEconomyReport {
        bench: "probe_economy",
        tests: TESTS,
        committee_accepted: model.accepted,
        trusted_predictions: trusted,
        full_range_scalar: full,
        full_range_batched: spec,
        stp_rtp_seeded: stp,
        warm_started_stp: warm,
        warm_saving_vs_full_range_pct: warm_saving,
        batched_saving_vs_full_range_pct: batched_saving,
        trip_points_match_full_range: trips_match,
        bit_identical_across_thread_counts: true,
        results,
        note: format!(
            "{TESTS} random tests at nominal conditions on a noiseless \
             tester (the repro_table1 workload shape). probes/trip counts \
             only non-speculative probes: pre-issued bisection children \
             that go unused are ledgered as speculative and excluded, so \
             the batched saving is honest eq. 1 accounting, not \
             double-counting. Warm starts seed STP from a committee of \
             {} nets; distrusted votes (spread > {SPREAD_BAND} ns) fall \
             back to the reference trip point.",
            3
        ),
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_probe_economy.json");
    std::fs::write(path, format!("{json}\n")).expect("write BENCH_probe_economy.json");
    println!("wrote {path}");
}
