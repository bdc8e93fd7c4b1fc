//! Criterion bench for the Table 1 pipeline (exp. id T1 in DESIGN.md):
//! each technique's cost to find its worst case on a fresh tester.

use cichar_ate::{Ate, MeasuredParam};
use cichar_core::compare::{quick_config, Comparison};
use cichar_core::dsv::{MultiTripRunner, SearchStrategy};
use cichar_dut::MemoryDevice;
use cichar_patterns::{march, random, Test, TestConditions};
use cichar_trace::Tracer;
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_march_row(c: &mut Criterion) {
    c.bench_function("table1/march_row", |b| {
        let test = Test::deterministic("March Test", march::march_c_minus(64));
        let runner = MultiTripRunner::new(MeasuredParam::DataValidTime);
        b.iter(|| {
            let mut ate = Ate::noiseless(MemoryDevice::nominal());
            let report = runner.run(
                &mut ate,
                std::slice::from_ref(black_box(&test)),
                SearchStrategy::FullRange,
                &Tracer::disabled(),
            );
            black_box(report.min())
        });
    });
}

fn bench_random_row(c: &mut Criterion) {
    c.bench_function("table1/random_row_40_tests", |b| {
        let mut rng = StdRng::seed_from_u64(1);
        let tests: Vec<Test> = (0..40)
            .map(|_| random::random_test_at(&mut rng, TestConditions::nominal()))
            .collect();
        let runner = MultiTripRunner::new(MeasuredParam::DataValidTime);
        b.iter(|| {
            let mut ate = Ate::noiseless(MemoryDevice::nominal());
            let report = runner.run(
                &mut ate,
                black_box(&tests),
                SearchStrategy::SearchUntilTrip,
                &Tracer::disabled(),
            );
            black_box(report.min())
        });
    });
}

fn bench_full_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1");
    group.sample_size(10);
    group.bench_function("nnga_pipeline_quick", |b| {
        b.iter(|| {
            let mut ate = Ate::noiseless(MemoryDevice::nominal());
            let mut rng = StdRng::seed_from_u64(7);
            let cmp = Comparison::run(&mut ate, &quick_config(), &mut rng);
            black_box(cmp.winner().wcr)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_march_row, bench_random_row, bench_full_pipeline);
criterion_main!(benches);
