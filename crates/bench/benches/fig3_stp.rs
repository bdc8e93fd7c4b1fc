//! Criterion bench for fig. 3 (exp. id F3): full-range search vs
//! search-until-trip-point on the same test population — the measurement
//! saving is printed by `repro_fig3`; this bench times the two code paths.

use cichar_ate::{Ate, MeasuredParam};
use cichar_core::dsv::{MultiTripRunner, SearchStrategy};
use cichar_dut::MemoryDevice;
use cichar_patterns::{random, Test, TestConditions};
use cichar_trace::Tracer;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_strategies(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let tests: Vec<Test> = (0..30)
        .map(|_| random::random_test_at(&mut rng, TestConditions::nominal()))
        .collect();
    let runner = MultiTripRunner::new(MeasuredParam::DataValidTime);

    let mut group = c.benchmark_group("fig3_stp");
    for (name, strategy) in [
        ("full_range", SearchStrategy::FullRange),
        ("search_until_trip", SearchStrategy::SearchUntilTrip),
    ] {
        group.bench_with_input(
            BenchmarkId::new("strategy", name),
            &strategy,
            |b, &strategy| {
                b.iter(|| {
                    let mut ate = Ate::noiseless(MemoryDevice::nominal());
                    let report =
                        runner.run(&mut ate, black_box(&tests), strategy, &Tracer::disabled());
                    black_box(report.total_measurements)
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_strategies);
criterion_main!(benches);
