//! Quickstart: measure one device's `T_DQ` trip point with all four
//! search algorithms and compare their measurement cost.
//!
//! ```text
//! cargo run --release --example quickstart
//! cargo run --release --example quickstart -- --device netlist
//! cargo run --release --example quickstart -- --device netlist:levels=14,jitter=0.2
//! ```
//!
//! A device whose trip point the generous range cannot bracket (a netlist
//! of 15 or more levels, for one) exits with status 1 and names the
//! device.

use cichar::ate::{Ate, MeasuredParam};
use cichar::bench::{unbracketed, Cli, Flags};
use cichar::dut::T_DQ_SPEC;
use cichar::patterns::{march, Test};
use cichar::search::{
    BinarySearch, LinearSearch, SearchOutcome, SearchUntilTrip, SuccessiveApproximation,
};

fn main() {
    let device = Cli::parse(&[Flags::Device]).device;
    // Load a nominal die on the tester and pick the production test.
    let mut ate = Ate::new(device);
    let test = Test::deterministic("march_c-", march::march_c_minus(64));
    let param = MeasuredParam::DataValidTime;
    let range = param.generous_range();
    let resolution = param.resolution();

    println!("characterizing {param}");
    println!(
        "generous range {range} {}, resolution {resolution} {}\n",
        param.kind().unit_symbol(),
        param.kind().unit_symbol()
    );

    // 1. Linear search: the §1 brute-force baseline.
    let linear = LinearSearch::new(range, 0.25).run(param.region_order(), ate.trip_oracle(&test, param));
    report("linear (0.25 ns steps)", &linear);

    // 2. Binary search: divide and conquer.
    let binary =
        BinarySearch::new(range, resolution).run(param.region_order(), ate.trip_oracle(&test, param));
    report("binary", &binary);

    // 3. Successive approximation: the drift-tolerant ATE standard.
    let successive = SuccessiveApproximation::new(range, resolution)
        .run(param.region_order(), ate.trip_oracle(&test, param));
    report("successive approximation", &successive);

    // 4. Search-until-trip-point: the paper's §4 method, re-using the
    //    binary result as the reference trip point.
    let rtp = binary
        .trip_point
        .unwrap_or_else(|| unbracketed(ate.device(), param));
    let stp = SearchUntilTrip::new(range, param.search_factor())
        .with_refinement(resolution)
        .run(rtp, param.region_order(), ate.trip_oracle(&test, param));
    report("search-until-trip-point", &stp);

    let t_dq = stp
        .trip_point
        .unwrap_or_else(|| unbracketed(ate.device(), param));
    println!(
        "\nmeasured T_DQ = {t_dq:.2} ns vs spec {} -> {}",
        T_DQ_SPEC,
        if t_dq >= T_DQ_SPEC.value() {
            "PASS"
        } else {
            "SPEC VIOLATION"
        }
    );
    println!("tester session total: {}", ate.ledger());
}

fn report(name: &str, outcome: &SearchOutcome) {
    match outcome.trip_point {
        Some(tp) => println!(
            "{name:<26} trip point {tp:>7.3} ns in {:>3} measurements",
            outcome.measurements()
        ),
        None => println!("{name:<26} did not converge"),
    }
}
