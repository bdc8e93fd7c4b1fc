//! Property tests on the metrics registry: whatever fault mix, recovery
//! policy, seed and thread count a campaign runs with, the final
//! [`MetricsSnapshot`] must satisfy the accounting invariants, be
//! independent of the execution schedule, and be re-derived exactly by
//! `cichar-report`'s offline fold of the recorded stream.

use cichar::ate::{AteConfig, MeasuredParam, ParallelAte, TesterFaultModel};
use cichar::core::dsv::{MultiTripRunner, SearchStrategy};
use cichar::dut::MemoryDevice;
use cichar::exec::ExecPolicy;
use cichar::patterns::{random, ConditionSpace, Test};
use cichar::report::TraceAnalysis;
use cichar::search::RetryPolicy;
use cichar::trace::{MetricsSnapshot, RingBufferSink, Tracer};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn suite(seed: u64, n: usize) -> Vec<Test> {
    let space = ConditionSpace::default();
    random::random_suite(&mut StdRng::seed_from_u64(seed), &space, n)
}

/// Runs a multi-trip campaign against a recording tracer and returns the
/// final snapshot, after checking that the trace analysis of the recorded
/// stream folds to the same snapshot, histograms included: live and
/// offline counts come from one derivation.
fn campaign_metrics(
    campaign_seed: u64,
    suite_seed: u64,
    faults: TesterFaultModel,
    recovery: Option<RetryPolicy>,
    strategy: SearchStrategy,
    threads: usize,
) -> MetricsSnapshot {
    let blueprint = ParallelAte::new(
        MemoryDevice::nominal(),
        AteConfig {
            faults,
            seed: campaign_seed,
            ..AteConfig::default()
        },
    );
    let mut runner = MultiTripRunner::new(MeasuredParam::DataValidTime);
    if let Some(policy) = recovery {
        runner = runner.with_recovery(policy);
    }
    let sink = Arc::new(RingBufferSink::unbounded());
    let tracer = Tracer::new(sink.clone());
    runner.run_parallel_traced(
        &blueprint,
        &suite(suite_seed, 16),
        strategy,
        ExecPolicy::with_threads(threads),
        &tracer,
    );
    let metrics = tracer.metrics();
    assert_eq!(
        TraceAnalysis::from_records(&sink.records()).metrics,
        metrics
    );
    metrics
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Every completed campaign satisfies the registry's accounting
    /// invariants: `probes_resolved == probes_cached + probes_issued`,
    /// and every histogram's observation count and sum reconcile with the
    /// matching counters (`searches_finished`, `search_steps`, `retries`).
    #[test]
    fn snapshots_satisfy_the_accounting_invariants(
        campaign_seed in 0u64..=u64::from(u32::MAX),
        suite_seed in 0u64..1000,
        flip_rate in 0.0f64..0.05,
        dropout_rate in 0.0f64..0.05,
    ) {
        let faults = TesterFaultModel::transient(flip_rate, dropout_rate);
        let recovery = Some(RetryPolicy::new(3, 50.0).with_vote(2, 3));
        for strategy in [SearchStrategy::FullRange, SearchStrategy::SearchUntilTrip] {
            let m = campaign_metrics(
                campaign_seed, suite_seed, faults, recovery, strategy, 4,
            );
            prop_assert_eq!(m.check_invariants(), None);
            prop_assert_eq!(m.probes_resolved, m.probes_cached + m.probes_issued);
            prop_assert_eq!(m.searches_finished, m.hist_probes_per_search.count);
            prop_assert_eq!(m.search_steps, m.hist_search_steps.sum);
            prop_assert_eq!(m.retries, m.hist_retry_depth.count);
            prop_assert!(m.searches_converged <= m.searches_finished);
            prop_assert!(m.probes_resolved > 0, "a 16-test campaign probes");
        }
    }

    /// `threads = 1` and `threads = 8` merge to the same snapshot —
    /// metrics shards combine like ledgers, by plain integer sums over
    /// per-index deterministic work.
    #[test]
    fn snapshots_merge_identically_across_thread_counts(
        campaign_seed in 0u64..=u64::from(u32::MAX),
        suite_seed in 0u64..1000,
        dropout_rate in 0.0f64..0.05,
    ) {
        let faults = TesterFaultModel::transient(0.01, dropout_rate);
        let recovery = Some(RetryPolicy::new(3, 50.0).with_vote(2, 3));
        for strategy in [SearchStrategy::FullRange, SearchStrategy::SearchUntilTrip] {
            let serial = campaign_metrics(
                campaign_seed, suite_seed, faults, recovery, strategy, 1,
            );
            let threaded = campaign_metrics(
                campaign_seed, suite_seed, faults, recovery, strategy, 8,
            );
            prop_assert_eq!(serial, threaded);
        }
    }

    /// Under a dropout-only fault model with recovery armed, a point can
    /// only be quarantined after the retry ladder was exhausted — so the
    /// retry counter always dominates the quarantine counter. (Flip
    /// faults break this: a flipped verdict can quarantine a search as
    /// inconsistent without a single silent strobe.)
    #[test]
    fn dropout_only_recovery_retries_dominate_quarantines(
        campaign_seed in 0u64..=u64::from(u32::MAX),
        suite_seed in 0u64..1000,
        dropout_rate in 0.01f64..0.2,
        retries in 1usize..4,
    ) {
        let faults = TesterFaultModel::transient(0.0, dropout_rate);
        let recovery = Some(RetryPolicy::new(retries, 50.0));
        let m = campaign_metrics(
            campaign_seed,
            suite_seed,
            faults,
            recovery,
            SearchStrategy::SearchUntilTrip,
            4,
        );
        prop_assert!(
            m.retries >= m.quarantined,
            "retries {} < quarantined {}",
            m.retries,
            m.quarantined
        );
        prop_assert_eq!(m.check_invariants(), None);
        prop_assert_eq!(m.faults_flip, 0);
    }
}
