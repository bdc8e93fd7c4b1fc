//! Shmoo plotting: rasterize Vdd × strobe-delay pass/fail maps for
//! individual tests and overlay them fig. 8 style.
//!
//! ```text
//! cargo run --release --example shmoo_plot
//! cargo run --release --example shmoo_plot -- --device netlist
//! ```

use cichar::ate::{Ate, OverlayShmoo, ShmooPlot};
use cichar::bench::{Cli, Flags};
use cichar::patterns::{march, random, Test, TestConditions};
use cichar::search::RegionOrder;
use cichar::units::{Axis, ParamKind};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let device = Cli::parse(&[Flags::Device]).device;
    let mut ate = Ate::new(device);
    let x = Axis::new(ParamKind::StrobeDelay, 16.0, 36.0, 41).expect("static axis");
    let y = Axis::new(ParamKind::SupplyVoltage, 1.5, 2.1, 13).expect("static axis");

    // One test's shmoo: the classic tester artifact.
    let march = Test::deterministic("march_c-", march::march_c_minus(64));
    let plot = ShmooPlot::capture(&mut ate, &march, x.clone(), y.clone());
    println!("March C- shmoo (Y: Vdd, X: T_DQ strobe; '*' pass, '.' fail):\n");
    print!("{plot}");
    println!(
        "\npass cells: {}/{}\n",
        plot.pass_count(),
        x.len() * y.len()
    );

    // Overlay 60 random tests: the trip point becomes a *band*.
    let mut rng = StdRng::seed_from_u64(88);
    let mut overlay = OverlayShmoo::new(x.clone(), y.clone(), RegionOrder::PassBelowFail);
    overlay.add(&plot);
    for _ in 0..60 {
        let test = random::random_test_at(&mut rng, TestConditions::nominal());
        overlay.add(&ShmooPlot::capture(&mut ate, &test, x.clone(), y.clone()));
    }
    println!("61 tests overlaid ('*' all pass, '.' none pass, digits = decile):\n");
    print!("{overlay}");
    if let Some((vdd, lo, hi)) = overlay.worst_spread() {
        println!(
            "\nworst-case parameter variation: {:.2} ns at Vdd {vdd:.2} V ([{lo:.2}, {hi:.2}])",
            hi - lo
        );
    }

    // CSV export for external plotting.
    let csv = plot.to_csv();
    println!(
        "\nCSV export of the March shmoo: {} rows (write it to disk with your own I/O)",
        csv.lines().count() - 1
    );
    println!("\n{}", ate.ledger());
}
