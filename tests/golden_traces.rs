//! Golden-trace locks on the observability layer: seeded mini versions of
//! the fig. 2, fig. 3 and Table 1 campaigns are replayed through a
//! [`RingBufferSink`], normalized (timestamps stripped), and diffed against
//! checked-in JSONL fixtures under `tests/goldens/`.
//!
//! Two properties are locked down at once:
//!
//! * **Thread invariance** — `threads = 1` and `threads = 8` must produce
//!   byte-identical normalized event streams and equal metrics snapshots,
//!   because spans are absorbed in input-index order with sequence numbers
//!   assigned at absorb time.
//! * **Stream stability** — the stream matches the checked-in golden, so
//!   any change to event taxonomy, ordering, or the machinery that emits
//!   them shows up as a reviewable fixture diff.
//!
//! Regenerate fixtures after an intentional change with:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test --test golden_traces
//! ```

use cichar::ate::{Ate, AteConfig, MeasuredParam, ParallelAte};
use cichar::core::compare::{CompareConfig, Comparison};
use cichar::core::dsv::{MultiTripRunner, SearchStrategy};
use cichar::core::learning::LearningConfig;
use cichar::core::optimization::OptimizationConfig;
use cichar::dut::MemoryDevice;
use cichar::exec::ExecPolicy;
use cichar::genetic::GaConfig;
use cichar::neural::TrainConfig;
use cichar::patterns::{random, ConditionSpace, Test};
use cichar::trace::{normalize_jsonl, MetricsSnapshot, RingBufferSink, Tracer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::sync::Arc;

/// Seed shared by all golden campaigns (distinct from the repro binaries'
/// seed so fixture churn never couples to `EXPERIMENTS.md` numbers).
const GOLD_SEED: u64 = 0x601D_DA7E;

/// Runs `campaign` against a fresh ring-buffer tracer and returns the
/// normalized JSONL stream plus the final metrics snapshot.
fn capture(campaign: impl FnOnce(&Tracer)) -> (String, MetricsSnapshot) {
    let sink = Arc::new(RingBufferSink::unbounded());
    let tracer = Tracer::new(sink.clone());
    campaign(&tracer);
    let mut out = String::new();
    for record in sink.records() {
        out.push_str(&serde_json::to_string(&record.normalized()).expect("record serializes"));
        out.push('\n');
    }
    (out, tracer.metrics())
}

/// The invariant harness: runs `campaign` at 1 and 8 threads, asserts the
/// normalized streams and metrics snapshots are identical, then diffs the
/// stream against `tests/goldens/<name>.jsonl` (or regenerates it when
/// `UPDATE_GOLDENS=1`).
fn check_golden(name: &str, campaign: impl Fn(ExecPolicy, &Tracer)) {
    let (serial, serial_metrics) = capture(|t| campaign(ExecPolicy::with_threads(1), t));
    let (threaded, threaded_metrics) = capture(|t| campaign(ExecPolicy::with_threads(8), t));
    assert_eq!(
        serial, threaded,
        "{name}: threads=1 and threads=8 normalized event streams must be byte-identical"
    );
    assert_eq!(
        serial_metrics, threaded_metrics,
        "{name}: metrics snapshots must merge identically across thread counts"
    );
    assert!(
        !serial.is_empty(),
        "{name}: the campaign must actually emit events"
    );
    // And at the environment's width: CI replays this suite under a
    // CICHAR_THREADS ∈ {1, 4} matrix, so the same fixtures lock every
    // deployed parallelism, not just the two pinned widths above.
    let (env_stream, _) = capture(|t| campaign(ExecPolicy::from_env(), t));
    assert_eq!(
        env_stream, serial,
        "{name}: the stream must not depend on CICHAR_THREADS"
    );

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(format!("{name}.jsonl"));
    if std::env::var("UPDATE_GOLDENS").as_deref() == Ok("1") {
        std::fs::create_dir_all(path.parent().expect("goldens dir")).expect("create goldens dir");
        std::fs::write(&path, &serial).expect("write golden fixture");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {}: {e}\nregenerate with: UPDATE_GOLDENS=1 cargo test --test golden_traces",
            path.display()
        )
    });
    // Normalize the fixture as well, so a stale timestamp in a hand-edited
    // fixture can never mask (or fake) a diff.
    assert_eq!(
        normalize_jsonl(&golden),
        serial,
        "{name}: event stream diverged from the golden fixture; if intentional, \
         regenerate with UPDATE_GOLDENS=1 cargo test --test golden_traces"
    );
}

fn gold_tests(n: usize) -> Vec<Test> {
    let space = ConditionSpace::default();
    random::random_suite(&mut StdRng::seed_from_u64(GOLD_SEED), &space, n)
}

/// Mini fig. 2: search-until-trip-point over a seeded random suite on the
/// default (noisy) tester, so the golden also locks the per-test noise
/// seed-derivation rule.
#[test]
fn fig2_campaign_trace_is_golden() {
    check_golden("fig2", |policy, tracer| {
        let blueprint = ParallelAte::new(
            MemoryDevice::nominal(),
            AteConfig {
                seed: GOLD_SEED,
                ..AteConfig::default()
            },
        );
        let runner = MultiTripRunner::new(MeasuredParam::DataValidTime);
        tracer.phase("dsv");
        runner.run_parallel_traced(
            &blueprint,
            &gold_tests(12),
            SearchStrategy::SearchUntilTrip,
            policy,
            tracer,
        );
    });
}

/// The fig. 2 campaign again, on the registry's `netlist` backend: locks
/// the gate-level device's seeded synthesis, its trip physics *and* the
/// registry construction path into a byte-stable fixture. A drift in any
/// netlist constant, the splitmix gate draws or the schema defaults shows
/// up here as a diff.
#[test]
fn fig2_netlist_campaign_trace_is_golden() {
    check_golden("fig2_netlist", |policy, tracer| {
        let device = cichar::dut::Registry::builtin()
            .create("netlist", &[])
            .expect("netlist backend registered");
        let blueprint = ParallelAte::new(
            device,
            AteConfig {
                seed: GOLD_SEED,
                ..AteConfig::default()
            },
        );
        let runner = MultiTripRunner::new(MeasuredParam::DataValidTime);
        tracer.phase("dsv");
        runner.run_parallel_traced(
            &blueprint,
            &gold_tests(12),
            SearchStrategy::SearchUntilTrip,
            policy,
            tracer,
        );
    });
}

/// Mini fig. 3: the same suite measured with full-range searches and with
/// STP, as two phases of one trace.
#[test]
fn fig3_campaign_trace_is_golden() {
    check_golden("fig3", |policy, tracer| {
        let blueprint = ParallelAte::new(
            MemoryDevice::nominal(),
            AteConfig {
                seed: GOLD_SEED,
                ..AteConfig::default()
            },
        );
        let runner = MultiTripRunner::new(MeasuredParam::DataValidTime);
        let tests = gold_tests(8);
        tracer.phase("full_range");
        runner.run_parallel_traced(&blueprint, &tests, SearchStrategy::FullRange, policy, tracer);
        tracer.phase("stp");
        runner.run_parallel_traced(
            &blueprint,
            &tests,
            SearchStrategy::SearchUntilTrip,
            policy,
            tracer,
        );
    });
}

/// A Table 1 comparison small enough for a test but exercising all three
/// phases (march / random / nnga), including committee training (the
/// learning round measures 12 tests, comfortably above the 8 converged
/// inputs training needs) and the GA.
fn mini_table1_config() -> CompareConfig {
    CompareConfig {
        random_tests: 8,
        learning: LearningConfig {
            tests_per_round: 12,
            max_rounds: 1,
            committee_size: 2,
            hidden: vec![6],
            train: TrainConfig {
                epochs: 20,
                ..TrainConfig::default()
            },
            ..LearningConfig::default()
        },
        nn_candidates: 60,
        nn_seeds: 3,
        optimization: OptimizationConfig {
            ga: GaConfig {
                population_size: 8,
                islands: 1,
                generations: 3,
                ..GaConfig::default()
            },
            ..OptimizationConfig::default()
        },
        ..CompareConfig::default()
    }
}

/// Mini Table 1: every event family in one trace — probes, searches,
/// phase changes, committee epochs, GA generations.
#[test]
fn table1_campaign_trace_is_golden() {
    check_golden("table1", |policy, tracer| {
        let mut ate = Ate::with_config(
            MemoryDevice::nominal(),
            AteConfig {
                seed: GOLD_SEED,
                ..AteConfig::default()
            },
        );
        let mut rng = StdRng::seed_from_u64(GOLD_SEED);
        Comparison::run_parallel_traced(&mut ate, &mini_table1_config(), policy, &mut rng, tracer);
    });
}

/// The wall-clock timing sidecar must stay OUT of the event stream: the
/// same campaign run through a plain [`Tracer`] and through a
/// [`Tracer::timed`] produces byte-identical normalized streams — only the
/// side-channel snapshot differs. This is what lets every golden fixture
/// stay valid whether or not `--timings` is on.
#[test]
fn timed_tracer_leaves_the_normalized_stream_byte_identical() {
    let run = |timed: bool| -> (String, bool) {
        let sink = Arc::new(RingBufferSink::unbounded());
        let tracer = if timed {
            Tracer::timed(sink.clone())
        } else {
            Tracer::new(sink.clone())
        };
        let blueprint = ParallelAte::new(
            MemoryDevice::nominal(),
            AteConfig {
                seed: GOLD_SEED,
                ..AteConfig::default()
            },
        );
        let runner = MultiTripRunner::new(MeasuredParam::DataValidTime);
        tracer.phase("dsv");
        runner.run_parallel_traced(
            &blueprint,
            &gold_tests(12),
            SearchStrategy::SearchUntilTrip,
            ExecPolicy::with_threads(8),
            &tracer,
        );
        let mut out = String::new();
        for record in sink.records() {
            out.push_str(&serde_json::to_string(&record.normalized()).expect("record serializes"));
            out.push('\n');
        }
        let has_timings = tracer.timings().is_some_and(|t| t.spans() > 0);
        (out, has_timings)
    };

    let (plain_stream, plain_timed) = run(false);
    let (timed_stream, timed_timed) = run(true);
    assert_eq!(
        plain_stream, timed_stream,
        "arming the timing sidecar must not change a single byte of the \
         normalized event stream"
    );
    assert!(!plain_timed, "a plain tracer has no timing sidecar");
    assert!(timed_timed, "the timed tracer captured span durations");
    // And the timed stream still matches the checked-in fig2 golden.
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/fig2.jsonl");
    if let Ok(golden) = std::fs::read_to_string(&path) {
        assert_eq!(
            normalize_jsonl(&golden),
            timed_stream,
            "timed stream diverged from the fig2 golden fixture"
        );
    }
}

/// The trace streams carry every event family the taxonomy defines for
/// these campaigns — a canary against silently dropping instrumentation.
#[test]
fn golden_fixtures_cover_the_event_taxonomy() {
    if std::env::var("UPDATE_GOLDENS").as_deref() == Ok("1") {
        // Regeneration runs concurrently with the campaign tests that
        // write the fixtures; check coverage on the next plain run.
        return;
    }
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens");
    let read = |name: &str| {
        std::fs::read_to_string(dir.join(name)).unwrap_or_else(|e| {
            panic!("missing fixture {name}: {e}; run UPDATE_GOLDENS=1 cargo test --test golden_traces")
        })
    };
    let fig3 = read("fig3.jsonl");
    for event in [
        "ProbeIssued",
        "ProbeResolved",
        "SearchStarted",
        "StepTaken",
        "Bracketed",
        "SearchFinished",
        "CampaignPhaseChanged",
    ] {
        assert!(fig3.contains(event), "fig3 golden lacks {event}");
    }
    let table1 = read("table1.jsonl");
    for event in [
        "CampaignPhaseChanged",
        "CommitteeEpochFinished",
        "GaGenerationEvaluated",
    ] {
        assert!(table1.contains(event), "table1 golden lacks {event}");
    }
    for phase in ["march", "random", "nnga"] {
        assert!(
            table1.contains(&format!("\"phase\":\"{phase}\"")),
            "table1 golden lacks phase {phase}"
        );
    }
}
