//! Regenerates **Fig. 8**: the worst-case device-parameter-variation
//! shmoo — Vdd on Y, `T_DQ` strobe on X, many tests overlaid, the
//! parameter-variation band marked.
//!
//! ```text
//! cargo run --release -p cichar-bench --bin repro_fig8
//! CICHAR_SCALE=full cargo run --release -p cichar-bench --bin repro_fig8   # 1000 tests
//! cargo run --release -p cichar-bench --bin repro_fig8 -- --threads 4
//! cargo run --release -p cichar-bench --bin repro_fig8 -- --device logic
//! ```

use cichar_ate::{Ate, OverlayShmoo, ParallelAte};
use cichar_bench::{device_selection, thread_policy, Scale};
use cichar_core::compare::Comparison;
use cichar_patterns::{random, Test, TestConditions};
use cichar_search::RegionOrder;
use cichar_units::{Axis, ParamKind};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let scale = Scale::from_env();
    let policy = thread_policy();
    let total = scale.random_tests();
    let mut rng = StdRng::seed_from_u64(scale.seed());

    // The overlaid population: the paper's 1000 tests are random tests
    // plus the GA-found worst cases, all at Vdd forced along the Y axis.
    let mut tests: Vec<Test> = (0..total)
        .map(|_| random::random_test_at(&mut rng, TestConditions::nominal()))
        .collect();

    // Add the three Table 1 tests so the plot shows the crossover story.
    let device = device_selection();
    let mut ate = Ate::new(device.device);
    let comparison = Comparison::run(&mut ate, &scale.compare_config(), &mut rng);
    tests.push(Test::deterministic(
        "March Test",
        cichar_patterns::march::march_c_minus(64),
    ));
    if let Some(worst) = comparison.optimization.database.worst() {
        tests.push(worst.test.clone());
    }

    let x = Axis::new(ParamKind::StrobeDelay, 16.0, 36.0, 41).expect("static axis");
    let y = Axis::new(ParamKind::SupplyVoltage, 1.5, 2.1, 13).expect("static axis");
    // Fan the per-test captures out across the thread policy: each test
    // gets its own derived-seed session, so the overlay is bit-identical
    // at any thread count.
    let blueprint = ParallelAte::from_ate(&ate);
    let (overlay, shmoo_ledger) = OverlayShmoo::capture_overlay(
        &blueprint,
        &tests,
        x,
        y.clone(),
        RegionOrder::PassBelowFail,
        policy,
    );

    println!(
        "== Fig. 8 reproduction: shmoo, {} tests overlapping ({} threads) ==",
        overlay.tests(),
        policy.threads()
    );
    println!("Y: Vdd (V) | X: T_DQ strobe (ns) | '*' all pass, '.' none, digits = decile\n");
    print!("{}", overlay.render_ascii());
    println!("\nper-row worst-case parameter variation (min/max trip point across tests):");
    for yi in (0..y.len()).step_by(2) {
        if let Some((lo, hi)) = overlay.row_spread(yi) {
            println!(
                "  Vdd {:.2} V: [{lo:.2}, {hi:.2}] ns (band {:.2} ns)",
                y.at(yi),
                hi - lo
            );
        }
    }
    if let Some((vdd, lo, hi)) = overlay.worst_spread() {
        println!(
            "\nwidest variation at Vdd {vdd:.2} V: {:.2} ns — the fig. 8 arrow",
            hi - lo
        );
    }
    let mut total_ledger = *ate.ledger();
    total_ledger.merge(&shmoo_ledger);
    println!("\n{total_ledger}");
}
