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
use cichar_bench::{thread_policy, Scale};
use cichar_core::compare::{Comparison, CompareConfig};
use cichar_exec::ExecPolicy;
use cichar_fuzzy::coding::CodingScheme;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn run_variant(name: &str, config: &CompareConfig, seed: u64, policy: ExecPolicy) {
    let device = cichar_bench::device_selection();
    let mut ate = Ate::new(device.device);
    let mut rng = StdRng::seed_from_u64(seed);
    let cmp = Comparison::run_parallel(&mut ate, config, policy, &mut rng);
    let nnga = &cmp.rows[2];
    println!(
        "{name:<34} | t_dq {:>6.2} ns | WCR {:.3} | {:>8} measurements | committee accepted: {}",
        nnga.t_dq, nnga.wcr, nnga.measurements, cmp.model.accepted
    );
}

fn main() {
    let scale = Scale::from_env();
    let policy = thread_policy();
    let seed = scale.seed();
    let base = scale.compare_config();

    println!(
        "== Ablation: §5 design choices (NNGA row of Table 1 under each variant, {} threads) ==\n",
        policy.threads()
    );

    run_variant("baseline (numeric, committee, seeds)", &base, seed, policy);

    let mut fuzzy = base.clone();
    fuzzy.learning.coding = CodingScheme::Fuzzy;
    run_variant("fuzzy trip-point coding", &fuzzy, seed, policy);

    let mut single = base.clone();
    single.learning.committee_size = 1;
    run_variant("single network (no voting machine)", &single, seed, policy);

    let mut unseeded = base;
    unseeded.nn_seeds = 1; // effectively no NN seeding
    unseeded.nn_candidates = 1;
    run_variant("GA without fuzzy-neural seeding", &unseeded, seed, policy);

    println!(
        "\n(all variants share the same random row and March row; only the NN+GA\n\
         pipeline changes. STP-vs-full-range economics are quantified by repro_fig3.)"
    );
}
