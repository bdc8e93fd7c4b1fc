//! Regenerates **Fig. 3**: the search-until-trip-point economics — the
//! same multiple-trip-point run measured with full-range searches and with
//! STP, with per-test and total measurement counts.
//!
//! ```text
//! cargo run --release -p cichar-bench --bin repro_fig3
//! cargo run --release -p cichar-bench --bin repro_fig3 -- --threads 4
//! cargo run --release -p cichar-bench --bin repro_fig3 -- --fault-rate 0.02
//! cargo run --release -p cichar-bench --bin repro_fig3 -- --trace out.jsonl --manifest out.json
//! cargo run --release -p cichar-bench --bin repro_fig3 -- --manifest out.json --timings
//! cargo run --release -p cichar-bench --bin repro_fig3 -- --device netlist
//! ```

use cichar_ate::{AteConfig, MeasuredParam, ParallelAte};
use cichar_bench::{Cli, Flags};
use cichar_core::dsv::{MultiTripRunner, ReferenceRule};
use cichar_core::report::render_stp_saving;
use cichar_patterns::{random, Test, TestConditions};
use cichar_trace::RunManifest;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let cli = Cli::parse(&[
        Flags::Threads,
        Flags::Faults,
        Flags::TraceOutputs,
        Flags::Device,
    ]);
    let (scale, policy) = (cli.scale, cli.policy);
    let (tracer, telemetry) = cli.observe("fig3");
    let total = scale.random_tests();
    let mut rng = StdRng::seed_from_u64(scale.seed());
    let tests: Vec<Test> = (0..total)
        .map(|_| random::random_test_at(&mut rng, TestConditions::nominal()))
        .collect();

    let param = MeasuredParam::DataValidTime;
    let mut runner = MultiTripRunner::new(param);
    if let Some(policy) = cli.recovery {
        runner = runner.with_recovery(policy);
    }
    let config = AteConfig {
        faults: cli.faults,
        ..AteConfig::default()
    };
    let blueprint = ParallelAte::new(cli.device.clone(), config);
    tracer.phase("full_range");
    let (full, ledger_full) = runner.run_parallel(
        &blueprint,
        &tests,
        ReferenceRule::FullRange,
        policy,
        &tracer,
        &telemetry,
    );
    tracer.phase("stp");
    let (stp, ledger_stp) = runner.run_parallel(
        &blueprint,
        &tests,
        ReferenceRule::Anchored,
        policy,
        &tracer,
        &telemetry,
    );

    println!(
        "== Fig. 3 reproduction: search-until-trip-point saving ({total} tests, {} threads) ==\n",
        policy.threads()
    );
    // Per-test table for a readable subset, then totals for the whole run.
    let mut full_subset = full.clone();
    let mut stp_subset = stp.clone();
    full_subset.entries.truncate(16);
    stp_subset.entries.truncate(16);
    print!("{}", render_stp_saving(&full_subset, &stp_subset));
    println!("\nwhole population:");
    println!(
        "  full-range:        {} measurements ({:.1}/test), {:.1} ms tester time",
        full.total_measurements,
        full.mean_measurements_per_test(),
        ledger_full.test_time_ms()
    );
    println!(
        "  search-until-trip: {} measurements ({:.1}/test), {:.1} ms tester time",
        stp.total_measurements,
        stp.mean_measurements_per_test(),
        ledger_stp.test_time_ms()
    );
    let saving = 100.0 * (1.0 - stp.total_measurements as f64 / full.total_measurements as f64);
    println!("  saving:            {saving:.1}% of measurements");
    let max_delta = full
        .entries
        .iter()
        .zip(&stp.entries)
        .filter_map(|(a, b)| Some((a.trip_point? - b.trip_point?).abs()))
        .fold(0.0, f64::max);
    println!("  trip-point agreement: max |delta| = {max_delta:.4} ns");

    cli.commit(&tracer, None, || {
        RunManifest::new("fig3", scale.seed(), policy.threads())
            .with_config("scale", format!("{scale:?}"))
            .with_config("tests", total)
            .with_config("fault_rate", cli.faults.flip_rate())
            .with_config("trip_min", stp.min().expect("converged"))
            .with_config("trip_max", stp.max().expect("converged"))
    });
}
