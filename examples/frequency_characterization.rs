//! §4's worked example, in the eq. (3) orientation: characterize the
//! maximum operating frequency over the generous range S1 = 80 MHz to
//! S2 = 130 MHz, then demonstrate the eq. (4) orientation on `Vdd_min`.
//!
//! ```text
//! cargo run --release --example frequency_characterization
//! cargo run --release --example frequency_characterization -- --device netlist
//! ```

use cichar::ate::{Ate, MeasuredParam};
use cichar::bench::{Cli, Flags};
use cichar::core::dsv::{MultiTripRunner, SearchStrategy};
use cichar::core::wcr::CharacterizationObjective;
use cichar::patterns::{march, random, Test, TestConditions};
use cichar::trace::Tracer;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let device = Cli::parse(&[Flags::Device]).device;
    let mut rng = StdRng::seed_from_u64(80);
    let mut tests: Vec<Test> = march::standard_suite()
        .into_iter()
        .map(|(name, p)| Test::deterministic(name, p))
        .collect();
    tests.extend((0..12).map(|_| random::random_test_at(&mut rng, TestConditions::nominal())));

    // --- eq. (3): pass region below the fail region (f_max) ---
    let mut ate = Ate::new(device);
    let param = MeasuredParam::MaxFrequency;
    println!(
        "== f_max characterization (eq. 3 orientation: {}) ==",
        param.region_order()
    );
    println!(
        "generous range {} MHz (the paper's S1 = 80, S2 = 130, CR = 50)\n",
        param.generous_range()
    );
    let strategy = SearchStrategy::SearchUntilTrip;
    let report = MultiTripRunner::new(param).run(&mut ate, &tests, strategy, &Tracer::disabled());
    for entry in &report.entries {
        match entry.trip_point {
            Some(tp) => println!(
                "  {:<20} f_max {tp:>7.2} MHz  ({} measurements)",
                entry.test_name, entry.measurements
            ),
            None => println!("  {:<20} did not converge", entry.test_name),
        }
    }
    // Specification check: does every test keep the device above the
    // 100 MHz operating point?
    let objective = CharacterizationObjective::drift_to_maximum(100.0);
    let worst = report.min().expect("converged");
    println!(
        "\n  worst f_max = {worst:.2} MHz; at the 100 MHz spec the margin-consuming\n\
         WCR (eq. 5 with the spec as reference) is {:.3} -> {}",
        100.0 / worst,
        if worst >= 100.0 { "device holds spec for every test" } else { "SPEC VIOLATION" }
    );
    let _ = objective;

    // --- eq. (4): pass region above the fail region (Vdd_min) ---
    let param = MeasuredParam::MinVoltage;
    println!(
        "\n== Vdd_min characterization (eq. 4 orientation: {}) ==\n",
        param.region_order()
    );
    let report = MultiTripRunner::new(param).run(&mut ate, &tests, strategy, &Tracer::disabled());
    for entry in &report.entries {
        if let Some(tp) = entry.trip_point {
            println!("  {:<20} vdd_min {tp:>6.3} V", entry.test_name);
        }
    }
    println!(
        "\n  vdd_min band across tests: [{:.3}, {:.3}] V — the same STP machinery\n\
         works in both region orientations.",
        report.min().expect("converged"),
        report.max().expect("converged")
    );
    println!("\n{}", ate.ledger());
}
