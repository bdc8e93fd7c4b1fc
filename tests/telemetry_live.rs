//! Live-telemetry invariants, locked by proptest:
//!
//! - Heartbeats are paced by **simulated ledger time**, so the heartbeat
//!   sequence is bit-identical across thread counts (the PR 7 watchdog
//!   discipline, extended to observability).
//! - Resuming a journaled campaign replays chunks silently: the resumed
//!   process's heartbeats cover only live work, yet its final snapshot
//!   reconciles with both the campaign totals and the live tracer's
//!   counters.
//! - The OpenMetrics exposition (`metrics.prom`) parses back and every
//!   counter sample equals the corresponding `MetricsSnapshot` field.
//! - The Table 1 hunt heartbeats from both of its fold points, the Random
//!   row's DSV merge and the GA's evaluation merge, identically at every
//!   thread count.
//! - The sidecar readers (`latest_heartbeat`, `parse_openmetrics`) return
//!   a value or an error for torn and corrupted files, never a panic.

use cichar::ate::{Ate, AteConfig, MeasuredParam, TesterFaultModel};
use cichar::core::compare::{quick_config, Comparison};
use cichar::core::dsv::SearchStrategy;
use cichar::core::wafer::{WaferConfig, WaferRunner};
use cichar::dut::{Lot, MemoryDevice};
use cichar::exec::ExecPolicy;
use cichar::patterns::{random, Test, TestConditions};
use cichar::report::latest_heartbeat;
use cichar::trace::{
    parse_openmetrics, AlarmRule, HeartbeatSnapshot, MetricsSnapshot, NullSink, Telemetry, Tracer,
    HEARTBEAT_FILE, METRICS_FILE,
};
use proptest::prelude::*;
use serde::{Serialize as _, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cichar_tele_live_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn campaign_inputs(seed: u64, die_count: usize) -> (Vec<cichar::dut::Die>, Vec<Test>) {
    let dies = Lot::default().sample_dies(&mut StdRng::seed_from_u64(seed ^ 0x5EED), die_count);
    let mut rng = StdRng::seed_from_u64(seed);
    let tests: Vec<Test> = (0..3)
        .map(|_| random::random_test_at(&mut rng, TestConditions::nominal()))
        .collect();
    (dies, tests)
}

fn heartbeats_in(dir: &Path) -> Vec<HeartbeatSnapshot> {
    let text = std::fs::read_to_string(dir.join(HEARTBEAT_FILE)).expect("heartbeat stream");
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| serde_json::from_str::<HeartbeatSnapshot>(l).expect("heartbeat line parses"))
        .collect()
}

/// Runs one telemetry-armed wafer campaign; returns the normalized
/// heartbeat sequence plus the tracer's final counter snapshot.
fn wafer_campaign(
    dir: &Path,
    seed: u64,
    die_count: usize,
    threads: usize,
    every_ms: u64,
) -> (Vec<HeartbeatSnapshot>, MetricsSnapshot) {
    let (dies, tests) = campaign_inputs(seed, die_count);
    let tracer = Tracer::new(Arc::new(NullSink));
    let telemetry = Telemetry::create_with(
        dir,
        "wafer",
        tracer.clone(),
        every_ms,
        AlarmRule::default_set(),
    )
    .expect("tmp is writable");
    let ate_config = AteConfig {
        faults: TesterFaultModel::transient(0.02, 0.01),
        seed,
        ..AteConfig::default()
    };
    WaferRunner::new(MeasuredParam::DataValidTime)
        .with_config(WaferConfig {
            sites: 2,
            ..WaferConfig::default()
        })
        .with_telemetry(telemetry.clone())
        .run_traced(
            &ate_config,
            &dies,
            &tests,
            SearchStrategy::SearchUntilTrip,
            ExecPolicy::with_threads(threads),
            &tracer,
        )
        .expect("unjournaled campaigns do no I/O");
    telemetry.finish().expect("sidecars flush");
    let beats = heartbeats_in(dir)
        .into_iter()
        .map(HeartbeatSnapshot::normalized)
        .collect();
    (beats, tracer.metrics())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn heartbeat_sequences_are_bit_identical_across_thread_counts(
        seed in 0u64..1000,
        die_count in 6usize..24,
        every_ms in 5u64..40,
    ) {
        let dir1 = tmp_dir(&format!("t1_{seed}_{die_count}_{every_ms}"));
        let dir8 = tmp_dir(&format!("t8_{seed}_{die_count}_{every_ms}"));
        let (serial, m1) = wafer_campaign(&dir1, seed, die_count, 1, every_ms);
        let (wide, m8) = wafer_campaign(&dir8, seed, die_count, 8, every_ms);
        // The sequences — cadence, counters, alarms — match snapshot for
        // snapshot once wall-clock fields are normalized away.
        prop_assert_eq!(&serial, &wide);
        prop_assert!(!serial.is_empty(), "finish() emits at least one heartbeat");
        prop_assert_eq!(m1, m8);
        // Heartbeats are strictly ordered and paced by simulated time.
        for (i, pair) in serial.windows(2).enumerate() {
            prop_assert_eq!(pair[1].seq, pair[0].seq + 1);
            prop_assert!(
                pair[1].progress.sim_time_us >= pair[0].progress.sim_time_us,
                "sim clock went backwards at heartbeat {i}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir1);
        let _ = std::fs::remove_dir_all(&dir8);
    }

    #[test]
    fn resumed_campaigns_heartbeat_only_live_work_yet_reconcile(
        seed in 0u64..1000,
        die_count in 8usize..24,
        kill_salt in 0usize..6,
    ) {
        let journal = tmp_dir(&format!("journal_{seed}_{die_count}_{kill_salt}"));
        let tele = tmp_dir(&format!("resume_{seed}_{die_count}_{kill_salt}"));
        let (dies, tests) = campaign_inputs(seed, die_count);
        let ate_config = AteConfig { seed, ..AteConfig::default() };
        let strategy = SearchStrategy::SearchUntilTrip;
        let shape = WaferConfig {
            sites: 2,
            chunk_touchdowns: 2,
            journal_dir: Some(journal.clone()),
            ..WaferConfig::default()
        };

        // Interrupt after a mid-campaign number of committed chunks
        // (telemetry off — the crashed process's stream is irrelevant).
        let chunk_count = die_count.div_ceil(2).div_ceil(2);
        let kill_after = 1 + kill_salt % (chunk_count - 1).max(1);
        WaferRunner::new(MeasuredParam::DataValidTime)
            .with_config(shape.clone())
            .run_prefix(&ate_config, &dies, &tests, strategy, ExecPolicy::serial(), kill_after)
            .expect("prefix run journals cleanly");

        // Resume with telemetry armed: replayed chunks must emit no live
        // heartbeats, only the live tail of the campaign does.
        let tracer = Tracer::new(Arc::new(NullSink));
        let telemetry =
            Telemetry::create_with(&tele, "wafer", tracer.clone(), 5, AlarmRule::default_set())
                .expect("tmp is writable");
        let (report, _ledger, stats) = WaferRunner::new(MeasuredParam::DataValidTime)
            .with_config(shape)
            .with_telemetry(telemetry.clone())
            .resume_traced(&ate_config, &dies, &tests, strategy, ExecPolicy::serial(), &tracer)
            .expect("resume replays the journal");
        let health = telemetry.finish().expect("sidecars flush").expect("enabled");

        let beats = heartbeats_in(&tele);
        prop_assert_eq!(beats.len() as u64, health.heartbeats);
        let last = beats.last().expect("finish() emits a final heartbeat");
        // The final snapshot reconciles with the campaign totals: every
        // (die, test) entry is accounted, replayed ones included...
        prop_assert_eq!(last.progress.units_done, report.aggregate.entries);
        prop_assert_eq!(last.progress.units_total, (dies.len() * tests.len()) as u64);
        prop_assert_eq!(last.progress.touchdowns_done, report.touchdowns);
        // ...while the probe counters come from the live tracer alone
        // (replay re-emits nothing).
        let metrics = tracer.metrics();
        prop_assert_eq!(last.metrics.probes_resolved, metrics.probes_resolved);
        prop_assert_eq!(last.metrics.searches_finished, metrics.searches_finished);
        prop_assert!(
            stats.chunks_replayed >= 1,
            "the kill point must actually exercise replay"
        );
        // Every live heartbeat postdates the replayed prefix: progress
        // starts beyond what the journal already held.
        let first = &beats[0];
        prop_assert!(
            first.progress.units_done > stats.entries_replayed.saturating_sub(1),
            "first heartbeat ({} units) predates the replayed prefix ({})",
            first.progress.units_done,
            stats.entries_replayed
        );
        let _ = std::fs::remove_dir_all(&journal);
        let _ = std::fs::remove_dir_all(&tele);
    }
}

#[test]
fn openmetrics_file_reconciles_with_the_metrics_snapshot() {
    let dir = tmp_dir("openmetrics");
    let (_beats, metrics) = wafer_campaign(&dir, 42, 12, 4, 10);
    let text = std::fs::read_to_string(dir.join(METRICS_FILE)).expect("metrics.prom");
    let samples = parse_openmetrics(&text).expect("exposition parses");

    // Field-for-field: every counter sample in the exposition equals the
    // tracer's final snapshot value, resolved through the snapshot's own
    // serialized field names — no hand-kept name table to drift.
    let value = metrics.to_value();
    let fields = value.as_map().expect("snapshot serializes as a map");
    let mut reconciled = 0usize;
    for (name, sample) in &samples {
        let Some(field) = name
            .strip_prefix("cichar_")
            .and_then(|n| n.strip_suffix("_total"))
        else {
            continue; // histogram buckets, gauges, heartbeat meta-counter
        };
        if field == "heartbeats" {
            continue;
        }
        let snapshot_value = fields
            .iter()
            .find(|(k, _)| k == field)
            .unwrap_or_else(|| panic!("exposition counter {name} has no snapshot field"));
        match &snapshot_value.1 {
            Value::U64(v) => assert_eq!(*sample, *v as f64, "{name}"),
            Value::I64(v) => assert_eq!(*sample, *v as f64, "{name}"),
            other => panic!("counter field {field} serialized as {other:?}"),
        }
        reconciled += 1;
    }
    assert!(
        reconciled >= 20,
        "expected the full counter table in the exposition, reconciled only {reconciled}"
    );
    assert!(
        samples.contains_key("cichar_heartbeats_total"),
        "heartbeat meta-counter missing"
    );
    assert!(
        samples.contains_key("cichar_probes_per_search_bucket{le=\"+Inf\"}"),
        "histogram buckets missing"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn telemetry_stays_out_of_the_normalized_event_stream() {
    // The sidecar discipline: the exact same campaign with and without
    // telemetry produces byte-identical normalized trace streams (goldens
    // and baselines never see heartbeats).
    use cichar::trace::{normalize_jsonl, JsonlSink};
    let run = |telemetry_dir: Option<PathBuf>| {
        let trace_path = std::env::temp_dir().join(format!(
            "cichar_tele_stream_{}_{}.jsonl",
            std::process::id(),
            telemetry_dir.is_some()
        ));
        let tracer = Tracer::new(Arc::new(JsonlSink::create(&trace_path).expect("writable")));
        let telemetry = match &telemetry_dir {
            Some(dir) => {
                Telemetry::create_with(dir, "wafer", tracer.clone(), 5, AlarmRule::default_set())
                    .expect("tmp is writable")
            }
            None => Telemetry::disabled(),
        };
        let (dies, tests) = campaign_inputs(7, 10);
        WaferRunner::new(MeasuredParam::DataValidTime)
            .with_config(WaferConfig {
                sites: 2,
                ..WaferConfig::default()
            })
            .with_telemetry(telemetry.clone())
            .run_traced(
                &AteConfig {
                    seed: 7,
                    ..AteConfig::default()
                },
                &dies,
                &tests,
                SearchStrategy::SearchUntilTrip,
                ExecPolicy::serial(),
                &tracer,
            )
            .expect("unjournaled campaigns do no I/O");
        telemetry.finish().expect("sidecars flush");
        tracer.finish().expect("stream commits");
        let text = std::fs::read_to_string(&trace_path).expect("stream exists");
        let _ = std::fs::remove_file(&trace_path);
        if let Some(dir) = telemetry_dir {
            let _ = std::fs::remove_dir_all(&dir);
        }
        normalize_jsonl(&text)
    };
    assert_eq!(run(None), run(Some(tmp_dir("stream_discipline"))));
}

#[test]
fn table1_hunt_heartbeats_are_bit_identical_across_thread_counts() {
    let mut config = quick_config();
    config.optimization.ga.generations = 6;
    let hunt = |threads: usize| {
        let dir = tmp_dir(&format!("table1_t{threads}"));
        let tracer = Tracer::new(Arc::new(NullSink));
        let telemetry =
            Telemetry::create_with(&dir, "table1", tracer.clone(), 10, AlarmRule::default_set())
                .expect("tmp is writable");
        let mut ate = Ate::new(MemoryDevice::nominal());
        let mut rng = StdRng::seed_from_u64(7);
        let policy = ExecPolicy::with_threads(threads);
        Comparison::run_parallel_observed(&mut ate, &config, policy, &mut rng, &tracer, &telemetry);
        telemetry.finish().expect("sidecars flush");
        let beats: Vec<HeartbeatSnapshot> = heartbeats_in(&dir)
            .into_iter()
            .map(HeartbeatSnapshot::normalized)
            .collect();
        let _ = std::fs::remove_dir_all(&dir);
        beats
    };
    let serial = hunt(1);
    assert_eq!(serial, hunt(4));
    // Both tick sites fire mid-hunt, not only the closing heartbeat.
    let live = &serial[..serial.len() - 1];
    for phase in ["dsv", "ga"] {
        let ticked = live.iter().any(|b| b.progress.phase == phase);
        assert!(ticked, "no live {phase} heartbeat");
    }
}

/// Feeds `read` every prefix of `text` and every single-byte replacement
/// by one of `structural`; a panic anywhere fails the calling test.
fn sweep_prefixes_and_mutations(text: &str, structural: &[u8], read: impl Fn(&str)) {
    for end in (0..text.len()).filter(|&end| text.is_char_boundary(end)) {
        read(&text[..end]);
    }
    let mut bytes = text.as_bytes().to_vec();
    let mut mutated = 0usize;
    for pos in 0..bytes.len() {
        let original = bytes[pos];
        for &b in structural.iter().filter(|&&b| b != original) {
            bytes[pos] = b;
            if let Ok(text) = std::str::from_utf8(&bytes) {
                read(text);
                mutated += 1;
            }
        }
        bytes[pos] = original;
    }
    assert!(
        mutated >= text.len() * (structural.len() - 1),
        "{mutated} mutations reached the reader"
    );
}

/// A live writer, a torn append or a bad disk can leave any bytes in the
/// telemetry directory. Every prefix of a real heartbeat line and of a
/// real `metrics.prom`, and each of their bytes replaced by one of the
/// format's structural bytes, must come back as a value or an error.
#[test]
fn no_prefix_or_byte_mutation_of_a_sidecar_panics() {
    let dir = tmp_dir("sidecar_mutation");
    wafer_campaign(&dir, 42, 12, 2, 10);
    let stream = std::fs::read_to_string(dir.join(HEARTBEAT_FILE)).expect("heartbeat stream");
    let line = stream.lines().last().expect("a heartbeat line");
    let exposition = std::fs::read_to_string(dir.join(METRICS_FILE)).expect("metrics.prom");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(latest_heartbeat(line).0.is_some(), "pristine line parses");
    assert!(
        parse_openmetrics(&exposition).is_ok(),
        "pristine exposition parses"
    );

    sweep_prefixes_and_mutations(line, b"{}[]:,\"\\ 0-.e", |text| {
        let _ = latest_heartbeat(text);
    });
    sweep_prefixes_and_mutations(&exposition, b"# \n{}=\"", |text| {
        let _ = parse_openmetrics(text);
    });
}
