//! Ablation study over the paper's §5 design choices:
//!
//! * trip-point coding — fuzzy set data vs simple numerical coding;
//! * committee size — voting machine vs a single network;
//! * GA seeding — fuzzy-neural sub-optimal seeds vs random initialization;
//! * search strategy inside the measurement loop — STP vs full range.
//!
//! ```text
//! cargo run --release -p cichar-bench --bin repro_ablation
//! cargo run --release -p cichar-bench --bin repro_ablation -- --threads 4
//! cargo run --release -p cichar-bench --bin repro_ablation -- --device logic
//! ```

use cichar_ate::Ate;
use cichar_bench::{Cli, Flags};
use cichar_core::compare::{Comparison, CompareConfig};
use cichar_fuzzy::coding::CodingScheme;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn run_variant(name: &str, config: &CompareConfig, cli: &Cli) {
    let mut ate = Ate::new(cli.device.clone());
    let mut rng = StdRng::seed_from_u64(cli.scale.seed());
    let cmp = Comparison::run_parallel(&mut ate, config, cli.policy, &mut rng);
    let nnga = &cmp.rows[2];
    println!(
        "{name:<34} | t_dq {:>6.2} ns | WCR {:.3} | {:>8} measurements | committee accepted: {}",
        nnga.t_dq, nnga.wcr, nnga.measurements, cmp.model.accepted
    );
}

fn main() {
    let cli = Cli::parse(&[Flags::Threads, Flags::Device]);
    let base = cli.scale.compare_config();

    println!(
        "== Ablation: §5 design choices (NNGA row of Table 1 under each variant, {} threads) ==\n",
        cli.policy.threads()
    );

    run_variant("baseline (numeric, committee, seeds)", &base, &cli);

    let mut fuzzy = base.clone();
    fuzzy.learning.coding = CodingScheme::Fuzzy;
    run_variant("fuzzy trip-point coding", &fuzzy, &cli);

    let mut single = base.clone();
    single.learning.committee_size = 1;
    run_variant("single network (no voting machine)", &single, &cli);

    let mut unseeded = base;
    unseeded.nn_seeds = 1; // effectively no NN seeding
    unseeded.nn_candidates = 1;
    run_variant("GA without fuzzy-neural seeding", &unseeded, &cli);

    println!(
        "\n(all variants share the same random row and March row; only the NN+GA\n\
         pipeline changes. STP-vs-full-range economics are quantified by repro_fig3.)"
    );
}
