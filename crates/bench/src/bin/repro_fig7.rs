//! Regenerates **Fig. 7**: the timing diagram for the data-output valid
//! time, for a benign and for a worst-case test.
//!
//! ```text
//! cargo run --release -p cichar-bench --bin repro_fig7
//! cargo run --release -p cichar-bench --bin repro_fig7 -- --device netlist
//! ```
//!
//! A device whose trip point the generous range cannot bracket (a netlist
//! of 15 or more levels, for one) exits with status 1 and names the
//! device.

use cichar_ate::{Ate, MeasuredParam};
use cichar_bench::{unbracketed, Cli, Flags};
use cichar_core::report::render_timing_diagram;
use cichar_dut::T_DQ_SPEC;
use cichar_patterns::{march, Test};
use cichar_search::BinarySearch;

fn main() {
    // `--threads` is accepted for symmetry with the other repro binaries;
    // two dependent binary searches leave nothing worth fanning out.
    let cli = Cli::parse(&[Flags::Threads, Flags::Device]);
    let mut ate = Ate::new(cli.device);
    let param = MeasuredParam::DataValidTime;
    let cycle_ns = 60.0;

    println!("== Fig. 7 reproduction: T_DQ timing diagram ==\n");
    for (label, pattern) in [
        ("March C- (benign production test)", march::march_c_minus(64)),
        ("checkerboard (coupling stress)", march::checkerboard(128)),
    ] {
        let test = Test::deterministic(label, pattern);
        let outcome = BinarySearch::new(param.generous_range(), param.resolution())
            .run(param.region_order(), ate.trip_oracle(&test, param));
        let t_dq = outcome
            .trip_point
            .unwrap_or_else(|| unbracketed(ate.device(), param));
        println!("--- {label}: measured T_DQ = {t_dq:.1} ns ---");
        print!(
            "{}",
            render_timing_diagram(t_dq, T_DQ_SPEC.value(), cycle_ns)
        );
        println!();
    }
    println!(
        "the arrow direction of the paper's fig. 7: smaller T_DQ = less of the cycle\n\
         carries valid data = the processor waits longer = worse."
    );
}
