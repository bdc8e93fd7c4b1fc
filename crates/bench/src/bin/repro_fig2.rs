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
//! cargo run --release -p cichar-bench --bin repro_fig2 -- --device netlist:levels=16
//! ```
//!
//! With `--sites N` (N > 1) the same program runs on `N` lot-sampled dies
//! per touchdown through the wafer engine; the default of 1 preserves the
//! historical single-device campaign bit-for-bit.

use cichar_ate::{AteConfig, MeasuredParam, ParallelAte};
use cichar_bench::{Cli, Flags};
use cichar_core::dsv::{MultiTripRunner, SearchStrategy};
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
            .expect("no spill directory configured, no I/O to fail");
        let health = cli.finish(&telemetry);

        println!(
            "== Fig. 2 reproduction: multiple trip points ({total} random tests, {sites} sites, {} threads) ==\n",
            policy.threads()
        );
        let agg = &report.aggregate;
        println!("  entries measured:  {} ({} converged)", agg.entries, agg.converged);
        println!(
            "  trip point range:  [{:.3}, {:.3}] ns",
            agg.min.expect("converged"),
            agg.max.expect("converged")
        );
        println!(
            "  worst-case band:   {:.3} ns (mean {:.3})",
            agg.spread().expect("converged"),
            agg.mean().expect("converged")
        );
        println!(
            "  contact faults:    {} across {} touchdowns",
            report.contact_faults, report.touchdowns
        );
        println!("\n{ledger}");
        (agg.min, agg.max, health)
    } else {
        let blueprint = ParallelAte::new(cli.device.clone(), config);
        tracer.phase("dsv");
        let (report, ledger) = runner.run_parallel_observed(
            &blueprint,
            &tests,
            SearchStrategy::SearchUntilTrip,
            policy,
            &tracer,
            &telemetry,
        );
        let health = cli.finish(&telemetry);

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
        println!(
            "  trip point range:  [{:.3}, {:.3}] ns",
            report.min().expect("converged"),
            report.max().expect("converged")
        );
        println!(
            "  worst-case band:   {:.3} ns (mean {:.3}, std {:.3})",
            report.spread().expect("converged"),
            report.mean().expect("converged"),
            report.std_dev().expect("converged")
        );
        println!(
            "  worst-case test:   {}",
            report.worst_entry().expect("converged").test_name
        );
        println!("  reference (eq. 2): {:.3} ns", report.reference_trip_point.expect("converged"));
        println!("\n{ledger}");
        (report.min(), report.max(), health)
    };

    cli.commit(&tracer, health, || {
        let manifest = RunManifest::new("fig2", scale.seed(), policy.threads())
            .with_config("scale", format!("{scale:?}"))
            .with_config("tests", total)
            .with_config("strategy", "search_until_trip")
            .with_config("fault_rate", cli.faults.flip_rate())
            .with_config("trip_min", trip_min.expect("converged"))
            .with_config("trip_max", trip_max.expect("converged"));
        if sites > 1 {
            manifest.with_config("sites", sites)
        } else {
            manifest
        }
    });
}
