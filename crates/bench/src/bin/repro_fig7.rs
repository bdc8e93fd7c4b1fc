//! Regenerates **Fig. 7**: the timing diagram for the data-output valid
//! time, for a benign and for a worst-case test.
//!
//! ```text
//! cargo run --release -p cichar-bench --bin repro_fig7
//! cargo run --release -p cichar-bench --bin repro_fig7 -- --device netlist
//! ```

use cichar_ate::{Ate, MeasuredParam};
use cichar_bench::{device_selection, thread_policy};
use cichar_core::report::render_timing_diagram;
use cichar_dut::T_DQ_SPEC;
use cichar_patterns::{march, Test};
use cichar_search::BinarySearch;

fn main() {
    // `--threads` is accepted for symmetry with the other repro binaries;
    // two dependent binary searches leave nothing worth fanning out.
    let _ = thread_policy();
    let device = device_selection();
    let mut ate = Ate::new(device.device);
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
        let t_dq = outcome.trip_point.expect("trip in range");
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
