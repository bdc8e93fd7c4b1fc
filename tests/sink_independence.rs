//! Sink independence: what a campaign reports about itself does not
//! depend on whether its tracer's sink keeps events.
//!
//! A span counts at the source and keeps its events only for a sink that
//! keeps them, so a `RingBufferSink` and a `NullSink` tracer take
//! different paths through the span. Each campaign below runs three
//! times — into a timed `RingBufferSink`, an untimed `NullSink` and a
//! timed `NullSink` — with telemetry armed at a short cadence, and the
//! runs must agree on:
//!
//! - the final `MetricsSnapshot`, which must also equal the offline fold
//!   (`TraceAnalysis::from_records`) of the kept stream, so a counter
//!   bump the span path drops fails here whichever sink dropped it;
//! - the per-phase probe counts of `Tracer::phases`;
//! - `heartbeat.jsonl` once wall-clock fields are normalized, and
//!   `metrics.prom` byte for byte;
//! - the timed runs' span count per phase.
//!
//! Wafer campaigns vary the fault mix, the retry ladder and its vote, the
//! stall watchdog and the site breaker, and the thread count (1, 2, 8);
//! one DSV and one GA (`OptimizationScheme`) campaign cover the other two
//! runners that absorb spans.

use cichar::ate::{AteConfig, MeasuredParam, ParallelAte, TesterFaultModel};
use cichar::core::dsv::{MultiTripRunner, SearchStrategy};
use cichar::core::optimization::{OptimizationConfig, OptimizationScheme};
use cichar::core::wafer::{WaferConfig, WaferRunner};
use cichar::dut::{Lot, MemoryDevice};
use cichar::exec::ExecPolicy;
use cichar::genetic::GaConfig;
use cichar::patterns::{random, ConditionSpace, Test, TestConditions};
use cichar::report::TraceAnalysis;
use cichar::search::RetryPolicy;
use cichar::trace::{
    AlarmRule, HeartbeatSnapshot, MetricsSnapshot, NullSink, RingBufferSink, Telemetry, Tracer,
    HEARTBEAT_FILE, METRICS_FILE,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::sync::Arc;

/// Everything a run reports about itself, wall clock normalized away.
#[derive(Debug, PartialEq)]
struct Observed {
    metrics: MetricsSnapshot,
    phase_probes: Vec<(String, u64)>,
    heartbeats: Vec<HeartbeatSnapshot>,
    exposition: String,
}

/// Runs `campaign` into a timed keeping tracer, a counting tracer and a
/// timed counting tracer, each with telemetry armed every `every_ms`
/// simulated milliseconds, and checks that all three report alike.
fn assert_sink_independent(name: &str, every_ms: u64, campaign: impl Fn(&Tracer, &Telemetry)) {
    let run = |label: &str, tracer: Tracer| {
        let dir = tmp_dir(&format!("{name}_{label}"));
        let telemetry = Telemetry::create_with(
            &dir,
            name,
            tracer.clone(),
            every_ms,
            AlarmRule::default_set(),
        )
        .expect("tmp is writable");
        campaign(&tracer, &telemetry);
        telemetry.finish().expect("sidecars flush");
        let heartbeats = std::fs::read_to_string(dir.join(HEARTBEAT_FILE))
            .expect("heartbeat stream")
            .lines()
            .map(|l| serde_json::from_str::<HeartbeatSnapshot>(l).expect("heartbeat parses"))
            .map(HeartbeatSnapshot::normalized)
            .collect();
        let exposition = std::fs::read_to_string(dir.join(METRICS_FILE)).expect("metrics.prom");
        let _ = std::fs::remove_dir_all(&dir);
        let spans_per_phase = tracer.timings().map(|t| {
            t.phases
                .into_iter()
                .map(|p| (p.phase, p.spans))
                .collect::<Vec<_>>()
        });
        let observed = Observed {
            metrics: tracer.metrics(),
            phase_probes: tracer
                .phases()
                .into_iter()
                .map(|p| (p.name, p.probes))
                .collect(),
            heartbeats,
            exposition,
        };
        (observed, spans_per_phase)
    };
    let ring = Arc::new(RingBufferSink::unbounded());
    let (keeping, kept_spans) = run("keeping", Tracer::timed(ring.clone()));
    let (counting, _) = run("counting", Tracer::new(Arc::new(NullSink)));
    let (timed, timed_spans) = run("timed", Tracer::timed(Arc::new(NullSink)));

    let records = ring.records();
    assert!(
        !records.is_empty(),
        "{name}: the keeping sink kept the stream"
    );
    assert_eq!(
        TraceAnalysis::from_records(&records).metrics,
        keeping.metrics,
        "{name}: live counts differ from the fold of the kept stream"
    );
    assert!(
        keeping.metrics.probes_resolved > 0,
        "{name}: the campaign probed"
    );
    assert!(!keeping.heartbeats.is_empty(), "{name}: telemetry beat");
    assert_eq!(
        counting, keeping,
        "{name}: a NullSink run reports differently"
    );
    assert_eq!(
        timed, keeping,
        "{name}: a timed NullSink run reports differently"
    );
    let kept_spans = kept_spans.expect("timed");
    assert!(
        kept_spans.iter().any(|(_, spans)| *spans > 0),
        "{name}: spans were timed"
    );
    assert_eq!(
        timed_spans.expect("timed"),
        kept_spans,
        "{name}: span counts per phase"
    );
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cichar_sink_indep_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The fault model of one generated wafer campaign: transient flips and
/// dropouts, plus optional stuck channels, session aborts and stalls.
fn fault_mix(flip: f64, dropout: f64, stuck: bool, abort: bool, stall: bool) -> TesterFaultModel {
    let mut model = TesterFaultModel::transient(flip, dropout);
    if stuck {
        model = model.with_stuck_channels(0.01, 3);
    }
    if abort {
        model = model.with_session_aborts(0.005, 4);
    }
    if stall {
        model = model.with_stalls(0.02, 400.0);
    }
    model
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn wafer_campaigns_report_alike_into_every_sink(
        seed in 0u64..1000,
        die_count in 6usize..20,
        flip in 0.0f64..0.05,
        dropout in 0.0f64..0.05,
        stuck in any::<bool>(),
        abort in any::<bool>(),
        stall in any::<bool>(),
        retries in 0usize..4,
        vote in any::<bool>(),
        watchdog in any::<bool>(),
        breaker in any::<bool>(),
        width in 0usize..3,
        every_ms in 2u64..12,
    ) {
        let threads = [1, 2, 8][width];
        let dies = Lot::default().sample_dies(&mut StdRng::seed_from_u64(seed ^ 0x5EED), die_count);
        let mut rng = StdRng::seed_from_u64(seed);
        let tests: Vec<Test> = (0..3)
            .map(|_| random::random_test_at(&mut rng, TestConditions::nominal()))
            .collect();
        let ate_config = AteConfig {
            faults: fault_mix(flip, dropout, stuck, abort, stall),
            seed,
            ..AteConfig::default()
        };
        let mut runner = WaferRunner::new(MeasuredParam::DataValidTime).with_config(WaferConfig {
            sites: 2,
            chunk_touchdowns: 2,
            chunk_timeout_ms: watchdog.then_some(2),
            site_fault_threshold: breaker.then_some(0.02),
            ..WaferConfig::default()
        });
        if retries > 0 {
            let policy = RetryPolicy::new(retries, 50.0);
            runner = runner.with_recovery(if vote { policy.with_vote(2, 3) } else { policy });
        }
        let name = format!("wafer_{seed}_{die_count}_{threads}");
        assert_sink_independent(&name, every_ms, |tracer, telemetry| {
            tracer.phase("wafer");
            runner
                .clone()
                .with_telemetry(telemetry.clone())
                .run_traced(
                    &ate_config,
                    &dies,
                    &tests,
                    SearchStrategy::SearchUntilTrip,
                    ExecPolicy::with_threads(threads),
                    tracer,
                )
                .expect("unjournaled campaigns do no I/O");
        });
    }
}

#[test]
fn dsv_campaigns_report_alike_into_every_sink() {
    let blueprint = ParallelAte::new(
        MemoryDevice::nominal(),
        AteConfig {
            faults: TesterFaultModel::transient(0.02, 0.02).with_stalls(0.01, 200.0),
            seed: 11,
            ..AteConfig::default()
        },
    );
    let runner = MultiTripRunner::new(MeasuredParam::DataValidTime)
        .with_recovery(RetryPolicy::new(3, 50.0).with_vote(2, 3));
    let tests = random::random_suite(
        &mut StdRng::seed_from_u64(11),
        &ConditionSpace::default(),
        24,
    );
    for threads in [1, 8] {
        assert_sink_independent(&format!("dsv_{threads}"), 5, |tracer, telemetry| {
            for (phase, strategy) in [
                ("full_range", SearchStrategy::FullRange),
                ("stp", SearchStrategy::SearchUntilTrip),
            ] {
                tracer.phase(phase);
                runner.run_parallel_observed(
                    &blueprint,
                    &tests,
                    strategy,
                    ExecPolicy::with_threads(threads),
                    tracer,
                    telemetry,
                );
            }
        });
    }
}

#[test]
fn ga_campaigns_report_alike_into_every_sink() {
    let scheme = OptimizationScheme::new(OptimizationConfig {
        ga: GaConfig {
            population_size: 12,
            islands: 2,
            generations: 4,
            ..GaConfig::default()
        },
        recovery: Some(RetryPolicy::new(2, 50.0)),
        ..OptimizationConfig::default()
    });
    let blueprint = ParallelAte::new(
        MemoryDevice::nominal(),
        AteConfig {
            faults: TesterFaultModel::transient(0.01, 0.02),
            seed: 3,
            ..AteConfig::default()
        },
    );
    for threads in [1, 8] {
        assert_sink_independent(&format!("ga_{threads}"), 5, |tracer, telemetry| {
            tracer.phase("ga");
            scheme.run_parallel_observed(
                &blueprint,
                &[],
                None,
                ExecPolicy::with_threads(threads),
                &mut StdRng::seed_from_u64(3),
                tracer,
                telemetry,
            );
        });
    }
}
