//! Regenerates **Fig. 1**: the single-trip-point concept — a binary
//! search over the generous range, plotted as search steps with pass/fail
//! verdicts.
//!
//! ```text
//! cargo run --release -p cichar-bench --bin repro_fig1
//! cargo run --release -p cichar-bench --bin repro_fig1 -- --device logic
//! ```

use cichar_ate::{Ate, MeasuredParam};
use cichar_bench::{Cli, Flags};
use cichar_core::report::render_search_trace;
use cichar_patterns::{march, Test};
use cichar_search::{BinarySearch, LinearSearch};

fn main() {
    // `--threads` is accepted for symmetry with the other repro binaries,
    // but a single binary search is data-dependent: each probe chooses the
    // next, so there is nothing to fan out.
    let cli = Cli::parse(&[Flags::Threads, Flags::Device]);
    if !cli.policy.is_serial() {
        println!("(note: one binary search has no parallel axis; running serially)\n");
    }
    let mut ate = Ate::new(cli.device);
    let test = Test::deterministic("march_c-", march::march_c_minus(64));
    let param = MeasuredParam::DataValidTime;

    println!("== Fig. 1 reproduction: single trip point via binary search ==");
    println!(
        "parameter: {param}, generous range {} {}\n",
        param.generous_range(),
        param.kind().unit_symbol()
    );
    let outcome = BinarySearch::new(param.generous_range(), param.resolution())
        .run(param.region_order(), ate.trip_oracle(&test, param));
    print!("{}", render_search_trace(&outcome, param.kind().unit_symbol()));

    // The §1 comparison point: the same trip point by linear search.
    let linear = LinearSearch::new(param.generous_range(), param.resolution())
        .run(param.region_order(), ate.trip_oracle(&test, param));
    println!(
        "\nfor contrast, a linear search at the same resolution needs {} measurements",
        linear.measurements()
    );
}
