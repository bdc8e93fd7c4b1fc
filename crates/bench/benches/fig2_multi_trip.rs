//! Criterion bench for fig. 2 (exp. id F2): the multiple-trip-point DSV
//! run over random tests, including pattern expansion and feature
//! extraction.

use cichar_ate::{Ate, MeasuredParam};
use cichar_core::dsv::{MultiTripRunner, SearchStrategy};
use cichar_dut::MemoryDevice;
use cichar_patterns::{random, PatternFeatures, Test, TestConditions};
use cichar_trace::Tracer;
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_dsv(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let tests: Vec<Test> = (0..25)
        .map(|_| random::random_test_at(&mut rng, TestConditions::nominal()))
        .collect();
    let runner = MultiTripRunner::new(MeasuredParam::DataValidTime);

    c.bench_function("fig2_multi_trip/dsv_25_random_tests", |b| {
        b.iter(|| {
            let mut ate = Ate::noiseless(MemoryDevice::nominal());
            let report = runner.run(
                &mut ate,
                black_box(&tests),
                SearchStrategy::SearchUntilTrip,
                &Tracer::disabled(),
            );
            black_box(report.spread())
        });
    });

    c.bench_function("fig2_multi_trip/feature_extraction", |b| {
        let pattern = tests[0].pattern();
        b.iter(|| black_box(PatternFeatures::extract(black_box(&pattern))));
    });

    c.bench_function("fig2_multi_trip/program_expansion", |b| {
        let cichar_patterns::Stimulus::Program(program) = tests[0].stimulus().clone() else {
            panic!("random tests are programs");
        };
        b.iter(|| black_box(black_box(&program).expand()));
    });
}

criterion_group!(benches, bench_dsv);
criterion_main!(benches);
