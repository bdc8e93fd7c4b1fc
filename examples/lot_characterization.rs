//! Characterize a statistically significant device sample (§1): sampled
//! dies × environmental corner grid × the deterministic suite, with
//! population statistics and the final-spec margin.
//!
//! ```text
//! cargo run --release --example lot_characterization
//! cargo run --release --example lot_characterization -- --threads 4
//! cargo run --release --example lot_characterization -- --device netlist
//! ```
//!
//! Each die is characterized on its own tester session, so the per-die
//! sweeps fan out across `--threads` workers with bit-identical results.

use cichar::ate::MeasuredParam;
use cichar::bench::{Cli, Flags};
use cichar::core::sample::{corner_grid, SampleCharacterization};
use cichar::core::wcr::CharacterizationObjective;
use cichar::dut::Lot;
use cichar::patterns::{march, Test};
use cichar::trace::Tracer;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let Cli { policy, device, .. } = Cli::parse(&[Flags::Threads, Flags::Device]);
    let tests: Vec<Test> = march::standard_suite()
        .into_iter()
        .map(|(name, p)| Test::deterministic(name, p))
        .collect();
    let corners = corner_grid(&[1.65, 1.8, 1.95], &[-40.0, 25.0, 85.0]);
    let campaign = SampleCharacterization::new(
        MeasuredParam::DataValidTime,
        CharacterizationObjective::drift_to_minimum(20.0),
        corners,
    )
    .with_device(device);

    let mut rng = StdRng::seed_from_u64(1405);
    let report = campaign.run(
        &Lot::default(),
        12,
        &tests,
        policy,
        &mut rng,
        &Tracer::disabled(),
    );

    println!(
        "== lot characterization: 12 dies x 9 corners x 5 tests ({} threads) ==\n",
        policy.threads()
    );
    println!("die  | speed  | sens   | worst T_DQ | WCR   | class");
    println!("-----+--------+--------+------------+-------+------");
    for d in &report.dies {
        println!(
            "{:>4} | {:.3}  | {:.3}  | {:>7.2} ns | {:.3} | {}",
            d.die.id(),
            d.die.speed(),
            d.die.stress_sensitivity(),
            d.worst_trip_point.unwrap_or(f64::NAN),
            d.worst_wcr.unwrap_or(f64::NAN),
            d.class().map_or("?".into(), |c| c.to_string()),
        );
    }
    println!("\npopulation:");
    println!(
        "  worst {:.2} ns | mean {:.2} ns | std {:.3} ns",
        report.population_worst().expect("measured"),
        report.population_mean().expect("measured"),
        report.population_std().expect("n >= 2"),
    );
    println!(
        "  spec margin (vs 20 ns): {:.2} ns | failing dies: {}",
        report.spec_margin().expect("measured"),
        report.failing_dies().len()
    );
    println!(
        "  total measurements: {} (search-until-trip-point across the whole campaign)",
        report.total_measurements
    );
    if let Some(spec) = report.suggest_spec(3.0) {
        println!(
            "\nsuggested data-sheet limit (worst case - 3 sigma): T_DQ >= {spec:.2} ns\n\
             (the paper's \"define the final device specification\" step)"
        );
    }
}
