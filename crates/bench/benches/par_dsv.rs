//! Criterion bench `par_dsv`: sequential vs parallel multiple-trip-point
//! DSV throughput on a 1000-test population, emitting
//! `BENCH_par_dsv.json` with the measured speedup.
//!
//! ```text
//! cargo bench -p cichar-bench --bench par_dsv
//! ```
//!
//! The parallel path is bit-identical to `threads = 1` at every thread
//! count (asserted here before timing), so the speedup is pure
//! scheduling: it scales with physical cores and is ≈1× on a single-core
//! machine — the JSON records `hardware_threads` so the number can be
//! read honestly.

use cichar_ate::{AteConfig, MeasuredParam, ParallelAte};
use cichar_core::dsv::{MultiTripRunner, ReferenceRule};
use cichar_dut::MemoryDevice;
use cichar_exec::ExecPolicy;
use cichar_patterns::{random, Test, TestConditions};
use cichar_trace::{Telemetry, Tracer};
use criterion::{black_box, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

const TESTS: usize = 1000;

#[derive(Serialize)]
struct BenchRecord {
    id: String,
    mean_ns: f64,
    min_ns: f64,
    max_ns: f64,
    samples: usize,
}

#[derive(Serialize)]
struct ParDsvReport {
    bench: &'static str,
    tests: usize,
    hardware_threads: usize,
    /// mean(sequential) / mean(threads = 4).
    speedup_4_threads: f64,
    /// mean(sequential) / mean(threads = hardware parallelism), when that
    /// configuration was measured separately from 4 threads.
    speedup_hw_threads: Option<f64>,
    bit_identical_across_thread_counts: bool,
    results: Vec<BenchRecord>,
    note: String,
}

fn main() {
    let mut rng = StdRng::seed_from_u64(0xDA7E_2005);
    let tests: Vec<Test> = (0..TESTS)
        .map(|_| random::random_test_at(&mut rng, TestConditions::nominal()))
        .collect();
    let runner = MultiTripRunner::new(MeasuredParam::DataValidTime);
    let blueprint = ParallelAte::new(MemoryDevice::nominal(), AteConfig::default());
    let hardware_threads = std::thread::available_parallelism().map_or(1, |n| n.get());

    // Determinism gate before timing: the configurations being compared
    // must produce the same report, or the comparison is meaningless.
    let (serial_report, _) = runner.run_parallel(
        &blueprint,
        &tests,
        ReferenceRule::Anchored,
        ExecPolicy::serial(),
        &Tracer::disabled(),
        &Telemetry::disabled(),
    );
    let (four_report, _) = runner.run_parallel(
        &blueprint,
        &tests,
        ReferenceRule::Anchored,
        ExecPolicy::with_threads(4),
        &Tracer::disabled(),
        &Telemetry::disabled(),
    );
    assert_eq!(serial_report, four_report, "parallel DSV must be bit-identical");

    let mut criterion = Criterion::default();
    {
        let mut group = criterion.benchmark_group("par_dsv");
        group.sample_size(5);
        let mut bench_policy = |id: &str, policy: ExecPolicy| {
            group.bench_function(id, |b| {
                b.iter(|| {
                    let (report, ledger) = runner.run_parallel(
                        &blueprint,
                        black_box(&tests),
                        ReferenceRule::Anchored,
                        policy,
                        &Tracer::disabled(),
                        &Telemetry::disabled(),
                    );
                    black_box((report.total_measurements, ledger.measurements()))
                });
            });
        };
        bench_policy("sequential_1_thread", ExecPolicy::serial());
        bench_policy("parallel_4_threads", ExecPolicy::with_threads(4));
        if hardware_threads > 4 {
            bench_policy(
                "parallel_hw_threads",
                ExecPolicy::with_threads(hardware_threads),
            );
        }
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
    let mean_of = |suffix: &str| {
        results
            .iter()
            .find(|r| r.id.ends_with(suffix))
            .map(|r| r.mean_ns)
    };
    let sequential = mean_of("sequential_1_thread").expect("measured");
    let four = mean_of("parallel_4_threads").expect("measured");
    let speedup_4_threads = sequential / four;
    let speedup_hw_threads = mean_of("parallel_hw_threads").map(|hw| sequential / hw);

    let report = ParDsvReport {
        bench: "par_dsv",
        tests: TESTS,
        hardware_threads,
        speedup_4_threads,
        speedup_hw_threads,
        bit_identical_across_thread_counts: true,
        results,
        note: format!(
            "1000-test multiple-trip-point DSV (search-until-trip-point), \
             sequential vs parallel. Speedup is wall-clock mean(sequential) / \
             mean(parallel); with {hardware_threads} hardware thread(s) \
             available, 4 worker threads can exploit at most \
             {hardware_threads}-way parallelism, so the target 2x at 4 \
             threads requires >= 4 physical cores."
        ),
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_par_dsv.json");
    std::fs::write(path, format!("{json}\n")).expect("write BENCH_par_dsv.json");
    println!("speedup at 4 threads: {speedup_4_threads:.2}x (hardware threads: {hardware_threads})");
    println!("wrote {path}");
}
