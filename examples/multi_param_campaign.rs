//! Multi-parameter campaign (§5): one NN + GA pipeline per data-sheet
//! parameter, merged into a final worst-case suite "covering all
//! considered fitness variables" — with a fuzzy weakness analysis of each
//! finding.
//!
//! ```text
//! cargo run --release --example multi_param_campaign
//! cargo run --release --example multi_param_campaign -- --threads 4
//! cargo run --release --example multi_param_campaign -- --trace campaign.jsonl --manifest campaign.json
//! cargo run --release --example multi_param_campaign -- --device netlist
//! ```
//!
//! Each parameter's GA fitness evaluation fans out across `--threads`
//! workers; the learning rounds stay on the shared session.

use cichar::ate::Ate;
use cichar::bench::{Cli, Flags};
use cichar::core::analysis::WeaknessAnalyzer;
use cichar::core::learning::LearningConfig;
use cichar::core::multi::{AnalysisTask, MultiParamCampaign};
use cichar::core::optimization::OptimizationConfig;
use cichar::core::Sessions;
use cichar::genetic::GaConfig;
use cichar::neural::TrainConfig;
use cichar::trace::RunManifest;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let cli = Cli::parse(&[Flags::Threads, Flags::TraceOutputs, Flags::Device]);
    let policy = cli.policy;
    let (tracer, _) = cli.observe("multi_param_campaign");
    let campaign = MultiParamCampaign::new(
        AnalysisTask::data_sheet(),
        LearningConfig {
            tests_per_round: 80,
            max_rounds: 2,
            committee_size: 3,
            hidden: vec![12],
            train: TrainConfig {
                epochs: 150,
                ..TrainConfig::default()
            },
            ..LearningConfig::default()
        },
        OptimizationConfig {
            ga: GaConfig {
                population_size: 20,
                islands: 2,
                generations: 15,
                target_fitness: Some(1.0),
                ..GaConfig::default()
            },
            ..OptimizationConfig::default()
        },
    )
    .with_screening(500, 12);

    let mut ate = Ate::new(cli.device.clone());
    let mut rng = StdRng::seed_from_u64(3);
    println!(
        "running the figs. 4+5 pipeline once per data-sheet parameter ({} threads)...\n",
        policy.threads()
    );
    let report = campaign.run(&mut ate, Sessions::PerTest(policy), &mut rng, &tracer);
    print!("{report}");

    println!("\nfinal worst-case suite with fuzzy weakness analysis (§5):");
    let analyzer = WeaknessAnalyzer::new();
    for (param, wc) in report.worst_case_suite() {
        println!("\n--- {param}: {} ---", wc);
        print!("{}", analyzer.analyze(&wc.test));
    }
    println!(
        "\nfindings requiring detailed analysis: {}",
        if report.has_findings() { "YES" } else { "none" }
    );

    cli.commit(&tracer, None, || {
        RunManifest::new("multi_param_campaign", 3, policy.threads())
            .with_config("parameters", report.worst_case_suite().len())
    });
}
