//! Criterion bench for the ablation axis (exp. id A1): cost of the §5
//! design choices — coding scheme, committee size, GA seeding.

use cichar_ate::Ate;
use cichar_core::generator::NeuralTestGenerator;
use cichar_core::learning::{LearningConfig, LearningScheme};
use cichar_dut::MemoryDevice;
use cichar_fuzzy::coding::CodingScheme;
use cichar_neural::TrainConfig;
use cichar_trace::Tracer;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn small_learning(coding: CodingScheme, committee: usize) -> LearningConfig {
    LearningConfig {
        tests_per_round: 60,
        max_rounds: 1,
        committee_size: committee,
        hidden: vec![12],
        coding,
        train: TrainConfig {
            epochs: 120,
            ..TrainConfig::default()
        },
        ..LearningConfig::default()
    }
}

fn bench_coding_schemes(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/coding");
    group.sample_size(10);
    for (name, coding) in [
        ("numeric", CodingScheme::Numeric),
        ("fuzzy", CodingScheme::Fuzzy),
    ] {
        group.bench_with_input(BenchmarkId::new("learning", name), &coding, |b, &coding| {
            b.iter(|| {
                let mut ate = Ate::noiseless(MemoryDevice::nominal());
                let mut rng = StdRng::seed_from_u64(5);
                let model = LearningScheme::new(small_learning(coding, 3)).run(
                    &mut ate,
                    &mut rng,
                    &Tracer::disabled(),
                );
                black_box(model.dataset_size)
            });
        });
    }
    group.finish();
}

fn bench_committee_sizes(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/committee");
    group.sample_size(10);
    for size in [1usize, 3, 5] {
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, &size| {
            b.iter(|| {
                let mut ate = Ate::noiseless(MemoryDevice::nominal());
                let mut rng = StdRng::seed_from_u64(6);
                let model = LearningScheme::new(small_learning(CodingScheme::Numeric, size)).run(
                    &mut ate,
                    &mut rng,
                    &Tracer::disabled(),
                );
                black_box(model.accepted)
            });
        });
    }
    group.finish();
}

fn bench_screening(c: &mut Criterion) {
    let mut ate = Ate::noiseless(MemoryDevice::nominal());
    let mut rng = StdRng::seed_from_u64(7);
    let model = LearningScheme::new(small_learning(CodingScheme::Numeric, 3)).run(
        &mut ate,
        &mut rng,
        &Tracer::disabled(),
    );
    c.bench_function("ablation/screen_500_candidates", |b| {
        b.iter(|| {
            let generator = NeuralTestGenerator::new(&model);
            let mut rng = StdRng::seed_from_u64(8);
            black_box(generator.propose(500, 10, None, &mut rng))
        });
    });
}

criterion_group!(
    benches,
    bench_coding_schemes,
    bench_committee_sizes,
    bench_screening
);
criterion_main!(benches);
