//! Multiple-trip-point characterization (§3): measure the `T_DQ` trip
//! point of the deterministic suite plus many random tests and show how
//! test-dependent the "specification" really is — fig. 2's message.
//!
//! ```text
//! cargo run --release --example multi_trip_point
//! cargo run --release --example multi_trip_point -- --device netlist
//! ```

use cichar::ate::{Ate, MeasuredParam};
use cichar::bench::{Cli, Flags};
use cichar::core::dsv::{MultiTripRunner, SearchStrategy};
use cichar::core::report::render_multi_trip;
use cichar::core::wcr::CharacterizationObjective;
use cichar::patterns::{march, random, Test, TestConditions};
use cichar::trace::Tracer;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let device = Cli::parse(&[Flags::Device]).device;
    // The test population: the full deterministic suite plus 20 random
    // tests at the same nominal corner.
    let mut rng = StdRng::seed_from_u64(2005);
    let mut tests: Vec<Test> = march::standard_suite()
        .into_iter()
        .map(|(name, p)| Test::deterministic(name, p))
        .collect();
    tests.extend((0..20).map(|_| random::random_test_at(&mut rng, TestConditions::nominal())));

    let mut ate = Ate::new(device);
    let param = MeasuredParam::DataValidTime;
    let runner = MultiTripRunner::new(param);
    let report = runner.run(
        &mut ate,
        &tests,
        SearchStrategy::SearchUntilTrip,
        &Tracer::disabled(),
    );

    println!("multiple trip point characterization of {param}\n");
    print!("{}", render_multi_trip(&report, param.kind().unit_symbol()));

    // Eq. 1's DSV, summarized, plus the worst case per eq. 6.
    let objective = CharacterizationObjective::drift_to_minimum(20.0);
    let trip_points = report.trip_points();
    let (worst_idx, worst_wcr) = objective
        .worst_case(trip_points.iter())
        .expect("trip points converged");
    println!("\nDSV statistics:");
    println!("  reference trip point (eq. 2): {:.3} ns", report.reference_trip_point.expect("converged"));
    println!(
        "  mean {:.3} ns, std {:.3} ns",
        report.mean().expect("converged"),
        report.std_dev().expect("n >= 2")
    );
    println!(
        "  worst case: {} at {:.3} ns, WCR {:.3} ({})",
        report.entries[worst_idx].test_name,
        trip_points[worst_idx],
        worst_wcr,
        objective.classify(trip_points[worst_idx])
    );
    println!(
        "\na single pre-defined test would have reported only its own row —\n\
         the {:.1} ns band across tests is invisible to the single-trip-point flow.",
        report.spread().expect("converged")
    );
    println!("\n{}", ate.ledger());
}
