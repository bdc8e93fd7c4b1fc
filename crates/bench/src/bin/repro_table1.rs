//! Regenerates **Table 1**: comparison of `T_DQ` with different
//! approaches at Vdd = 1.8 V (deterministic March vs random vs NN+GA).
//!
//! ```text
//! cargo run --release -p cichar-bench --bin repro_table1
//! CICHAR_SCALE=full cargo run --release -p cichar-bench --bin repro_table1
//! cargo run --release -p cichar-bench --bin repro_table1 -- --threads 4
//! cargo run --release -p cichar-bench --bin repro_table1 -- --fault-rate 0.02 --retries 4
//! cargo run --release -p cichar-bench --bin repro_table1 -- --trace out.jsonl --manifest out.json
//! cargo run --release -p cichar-bench --bin repro_table1 -- --manifest out.json --timings
//! cargo run --release -p cichar-bench --bin repro_table1 -- --device netlist:levels=14
//! cargo run --release -p cichar-bench --bin repro_table1 -- --telemetry tele
//! ```

use cichar_ate::{Ate, AteConfig};
use cichar_bench::{Cli, Flags};
use cichar_core::compare::Comparison;
use cichar_trace::RunManifest;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let cli = Cli::parse(&[
        Flags::Threads,
        Flags::Faults,
        Flags::TraceOutputs,
        Flags::Device,
        Flags::Telemetry,
    ]);
    let (scale, policy) = (cli.scale, cli.policy);
    let (tracer, telemetry) = cli.observe("table1");
    let mut config = scale.compare_config();
    config.optimization.recovery = cli.recovery;
    let mut ate = Ate::with_config(
        cli.device.clone(),
        AteConfig {
            faults: cli.faults,
            ..AteConfig::default()
        },
    );
    let mut rng = StdRng::seed_from_u64(scale.seed());

    println!(
        "== Table 1 reproduction ({scale:?} scale, {} threads) ==\n",
        policy.threads()
    );
    let comparison =
        Comparison::run_parallel_observed(&mut ate, &config, policy, &mut rng, &tracer, &telemetry);
    let health = cli.finish(&telemetry);
    println!("{}", comparison.render());
    println!(
        "paper reference:   March 0.619 / 32.3 ns | Random 0.701 / 28.5 ns | NNGA 0.904 / 22.1 ns"
    );
    println!(
        "\nwinner: {} ({}), class {}",
        comparison.winner().test_name,
        comparison.winner().technique,
        comparison.winner().class
    );
    println!("\nworst-case database after optimization:");
    print!("{}", comparison.optimization.database);
    let total: u64 = comparison.rows.iter().map(|r| r.measurements).sum();
    println!("\ntotal measurements across the three techniques: {total}");

    cli.commit(&tracer, health, || {
        let trips: Vec<f64> = comparison.rows.iter().map(|r| r.t_dq).collect();
        let mut manifest = RunManifest::new("table1", scale.seed(), policy.threads())
            .with_config("scale", format!("{scale:?}"))
            .with_config("random_tests", config.random_tests)
            .with_config("fault_rate", cli.faults.flip_rate());
        if let Some(min) = trips.iter().copied().reduce(f64::min) {
            manifest = manifest
                .with_config("trip_min", min)
                .with_config("trip_max", trips.iter().copied().fold(min, f64::max));
        }
        manifest
    });
}
