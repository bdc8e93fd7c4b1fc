//! Regenerates **Fig. 2**: the multiple-trip-point concept — trip points
//! of many non-deterministic random tests over one parameter axis, with
//! the worst-case trip-point variation band.
//!
//! ```text
//! cargo run --release -p cichar-bench --bin repro_fig2
//! cargo run --release -p cichar-bench --bin repro_fig2 -- --threads 4
//! cargo run --release -p cichar-bench --bin repro_fig2 -- --fault-rate 0.02 --retries 4
//! cargo run --release -p cichar-bench --bin repro_fig2 -- --trace out.jsonl --manifest out.json
//! cargo run --release -p cichar-bench --bin repro_fig2 -- --manifest out.json --timings
//! cargo run --release -p cichar-bench --bin repro_fig2 -- --sites 4
//! cargo run --release -p cichar-bench --bin repro_fig2 -- --telemetry tele --heartbeat-every 10
//! cargo run --release -p cichar-bench --bin repro_fig2 -- --device netlist:levels=14
//! ```
//!
//! With `--sites N` (N > 1) the same program runs on `N` lot-sampled dies
//! per touchdown through the wafer engine; the default of 1 preserves the
//! historical single-device campaign bit-for-bit.
//!
//! A device whose trip points the generous range cannot bracket (a
//! netlist of 15 or more levels, for one) leaves no trip point to draw:
//! the binary then exits with status 1 and names the device.

use cichar_ate::{AteConfig, MeasuredParam, ParallelAte};
use cichar_bench::{unbracketed, Cli, Flags};
use cichar_core::dsv::{MultiTripRunner, ReferenceRule, SearchStrategy};
use cichar_core::report::render_multi_trip;
use cichar_core::wafer::{WaferConfig, WaferRunner};
use cichar_dut::Lot;
use cichar_patterns::{random, Test, TestConditions};
use cichar_trace::RunManifest;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let cli = Cli::parse(&[
        Flags::Threads,
        Flags::Faults,
        Flags::TraceOutputs,
        Flags::Sites,
        Flags::Device,
        Flags::Telemetry,
    ]);
    let (scale, policy, sites) = (cli.scale, cli.policy, cli.sites);
    let (tracer, telemetry) = cli.observe("fig2");
    let shown = 24usize;
    let total = scale.random_tests().max(shown);
    let mut rng = StdRng::seed_from_u64(scale.seed());
    let tests: Vec<Test> = (0..total)
        .map(|_| random::random_test_at(&mut rng, TestConditions::nominal()))
        .collect();

    let config = AteConfig {
        faults: cli.faults,
        ..AteConfig::default()
    };
    let param = MeasuredParam::DataValidTime;
    let mut runner = MultiTripRunner::new(param);
    if let Some(policy) = cli.recovery {
        runner = runner.with_recovery(policy);
    }

    let (trip_min, trip_max, health) = if sites > 1 {
        // Multi-site mode: one touchdown of `sites` lot-sampled dies, the
        // full fig. 2 population on each, streamed through the wafer
        // engine.
        // The default memory path keeps the historical sequential-RNG die
        // sampling bit-for-bit; other backends sample through their own
        // process model.
        let dies = if cli.default_device {
            let mut die_rng = StdRng::seed_from_u64(scale.seed() ^ 0xD1E5);
            Lot::default().sample_dies(&mut die_rng, sites)
        } else {
            cli.device.sample_dies(scale.seed() ^ 0xD1E5, sites)
        };
        let wafer = WaferRunner::from_runner(runner)
            .with_device(cli.device.clone())
            .with_config(WaferConfig {
                sites,
                ..WaferConfig::default()
            })
            .with_telemetry(telemetry.clone());
        tracer.phase("dsv");
        let (report, ledger) = wafer
            .run_traced(
                &config,
                &dies,
                &tests,
                SearchStrategy::SearchUntilTrip,
                policy,
                &tracer,
            )
            .expect("no journal configured, no I/O to fail");
        let health = cli.finish(&telemetry);
        let agg = &report.aggregate;
        let (Some(min), Some(max), Some(spread), Some(mean)) =
            (agg.min, agg.max, agg.spread(), agg.mean())
        else {
            unbracketed(&cli.device, param);
        };

        println!(
            "== Fig. 2 reproduction: multiple trip points ({total} random tests, {sites} sites, {} threads) ==\n",
            policy.threads()
        );
        println!("  entries measured:  {} ({} converged)", agg.entries, agg.converged);
        println!("  trip point range:  [{min:.3}, {max:.3}] ns");
        println!("  worst-case band:   {spread:.3} ns (mean {mean:.3})");
        println!(
            "  contact faults:    {} across {} touchdowns",
            report.contact_faults, report.touchdowns
        );
        println!("\n{ledger}");
        (min, max, health)
    } else {
        let blueprint = ParallelAte::new(cli.device.clone(), config);
        tracer.phase("dsv");
        let (report, ledger) = runner.run_parallel(
            &blueprint,
            &tests,
            ReferenceRule::Anchored,
            policy,
            &tracer,
            &telemetry,
        );
        let health = cli.finish(&telemetry);
        let (Some(min), Some(max), Some(spread), Some(mean), Some(std_dev), Some(worst), Some(rtp)) = (
            report.min(),
            report.max(),
            report.spread(),
            report.mean(),
            report.std_dev(),
            report.worst_entry(),
            report.reference_trip_point,
        ) else {
            unbracketed(&cli.device, param);
        };

        println!(
            "== Fig. 2 reproduction: multiple trip points ({total} random tests, {} threads) ==\n",
            policy.threads()
        );
        // Show a readable subset of bars, then the full-population statistics.
        let mut subset = report.clone();
        subset.entries.truncate(shown);
        print!("{}", render_multi_trip(&subset, param.kind().unit_symbol()));
        println!("\nfull population statistics:");
        println!("  tests measured:    {}", report.entries.len());
        println!("  trip point range:  [{min:.3}, {max:.3}] ns");
        println!("  worst-case band:   {spread:.3} ns (mean {mean:.3}, std {std_dev:.3})");
        println!("  worst-case test:   {}", worst.test_name);
        println!("  reference (eq. 2): {rtp:.3} ns");
        println!("\n{ledger}");
        (min, max, health)
    };

    cli.commit(&tracer, health, || {
        let manifest = RunManifest::new("fig2", scale.seed(), policy.threads())
            .with_config("scale", format!("{scale:?}"))
            .with_config("tests", total)
            .with_config("strategy", "search_until_trip")
            .with_config("fault_rate", cli.faults.flip_rate())
            .with_config("trip_min", trip_min)
            .with_config("trip_max", trip_max);
        if sites > 1 {
            manifest.with_config("sites", sites)
        } else {
            manifest
        }
    });
}
