//! The full intelligent characterization pipeline (figs. 4 + 5):
//! learn the device from random tests, screen candidates with the
//! fuzzy-neural generator, optimize with the two-species GA, and print the
//! Table 1 comparison plus the worst-case database.
//!
//! ```text
//! cargo run --release --example worst_case_hunt
//! cargo run --release --example worst_case_hunt -- --fault-rate 0.02
//! cargo run --release --example worst_case_hunt -- --trace hunt.jsonl --manifest hunt.json --timings
//! cargo run --release --example worst_case_hunt -- --device netlist
//! ```

use cichar::ate::{Ate, AteConfig};
use cichar::bench::{Cli, Flags};
use cichar::core::compare::{quick_config, Comparison};
use cichar::core::report::render_timing_diagram;
use cichar::dut::T_DQ_SPEC;
use cichar::trace::RunManifest;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let cli = Cli::parse(&[
        Flags::Threads,
        Flags::Faults,
        Flags::TraceOutputs,
        Flags::Device,
    ]);
    let (policy, faults, recovery) = (cli.policy, cli.faults, cli.recovery);
    let (tracer, telemetry) = cli.observe("worst_case_hunt");
    let mut ate = Ate::with_config(
        cli.device.clone(),
        AteConfig {
            faults,
            ..AteConfig::default()
        },
    );
    let mut rng = StdRng::seed_from_u64(0xDA7E);
    let mut config = quick_config();
    config.optimization.recovery = recovery;

    println!("== intelligent worst-case hunt (figs. 4-5) ==\n");
    if !faults.is_none() {
        println!(
            "injecting tester faults: {:.1}% verdict flips, {:.1}% dropouts; \
             recovery ladder {} retries\n",
            100.0 * faults.flip_rate(),
            100.0 * faults.dropout_rate(),
            recovery.map_or(0, |p| p.max_retries()),
        );
    }
    let comparison =
        Comparison::run_parallel_observed(&mut ate, &config, policy, &mut rng, &tracer, &telemetry);

    println!("learning phase:     {}", comparison.model);
    println!(
        "optimization phase: {}\n",
        comparison.optimization
    );
    println!("{}", comparison.render());

    let winner = comparison.winner();
    println!(
        "verdict: the {} provokes T_DQ = {:.2} ns (WCR {:.3}, {}),\n\
         a drift no deterministic or random test exposed.\n",
        winner.test_name, winner.t_dq, winner.wcr, winner.class
    );

    println!("worst-case database (fig. 5's final artifact):");
    print!("{}", comparison.optimization.database);
    if !comparison.optimization.database.failures().is_empty() {
        println!("\nfunctional failures found (stored separately per fig. 5):");
        for f in comparison.optimization.database.failures() {
            println!("  {f}");
        }
    }

    println!("\ntiming diagram of the found worst case (fig. 7's view):");
    print!(
        "{}",
        render_timing_diagram(winner.t_dq, T_DQ_SPEC.value(), 60.0)
    );

    // §5's fuzzy analysis of WHY the worst case is bad — the stand-in for
    // fig. 5's "analyze the potential design weaknesses … in detail".
    if let Some(worst) = comparison.optimization.database.worst() {
        println!("\nfuzzy weakness analysis of {}:", worst.test.name());
        print!(
            "{}",
            cichar::core::analysis::WeaknessAnalyzer::new().analyze(&worst.test)
        );
    }
    println!("\n{}", ate.ledger());

    cli.commit(&tracer, None, || {
        let trips: Vec<f64> = comparison.rows.iter().map(|r| r.t_dq).collect();
        let mut manifest = RunManifest::new("worst_case_hunt", 0xDA7E, policy.threads())
            .with_config("random_tests", config.random_tests)
            .with_config("fault_rate", faults.flip_rate());
        if let Some(min) = trips.iter().copied().reduce(f64::min) {
            manifest = manifest
                .with_config("trip_min", min)
                .with_config("trip_max", trips.iter().copied().fold(min, f64::max));
        }
        manifest
    });
}
