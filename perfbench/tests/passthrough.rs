//! The benchmark's wrappers are pure pass-throughs: a campaign through a
//! wrapped device, sink or oracle produces bit-identical verdicts, ledgers
//! and aggregates to the unwrapped one, on a small lot of each workload's
//! shape.

use cichar_ate::{Ate, AteConfig, MeasuredParam, TesterFaultModel};
use cichar_core::compare::{quick_config, Comparison};
use cichar_core::dsv::SearchStrategy;
use cichar_core::wafer::{WaferConfig, WaferRunner};
use cichar_dut::{Device, DeviceBackend, MemoryDevice, NetlistDevice};
use cichar_exec::ExecPolicy;
use cichar_patterns::{random, ConditionSpace, Test, TestConditions};
use cichar_search::{RetryPolicy, ScriptedOracle, SuccessiveApproximation};
use cichar_trace::{NullSink, Telemetry, TraceSink, Tracer};
use perfbench::layers::{CountingBackend, CountingSink, DutSnapshot, RecordingOracle};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::sync::Arc;

const PARAM: MeasuredParam = MeasuredParam::DataValidTime;

fn tests_at(n: usize, seed: u64, random_conditions: bool) -> Vec<Test> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            if random_conditions {
                random::random_test(&mut rng, &ConditionSpace::default())
            } else {
                random::random_test_at(&mut rng, TestConditions::nominal())
            }
        })
        .collect()
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn counting_device_is_a_pure_pass_through_on_a_lot() {
    let plain: Device = MemoryDevice::nominal().into();
    let counting = CountingBackend::device(Box::new(MemoryDevice::nominal()));
    let dies = plain.sample_dies(7, 40);
    let tests = tests_at(12, 8, false);
    let run = |device: &Device| {
        WaferRunner::new(PARAM)
            .with_device(device.clone())
            .with_config(WaferConfig {
                sites: 8,
                ..WaferConfig::default()
            })
            .run(
                &AteConfig::default(),
                &dies,
                &tests,
                SearchStrategy::SearchUntilTrip,
                ExecPolicy::serial(),
            )
            .expect("no journal, no I/O")
    };
    let before = DutSnapshot::now();
    let wrapped = run(&counting);
    assert_eq!(wrapped, run(&plain), "report and ledger are bit-identical");
    let counts = DutSnapshot::now().since(&before);
    assert!(
        counts.evals >= wrapped.1.measurements(),
        "every strobe evaluated the device"
    );
    assert!(counts.prepares > 0 && counts.stress > 0);
    assert_eq!(
        counting.descriptor(),
        plain.descriptor(),
        "journal identity unchanged"
    );
}

#[test]
fn counting_device_and_sink_are_pure_pass_throughs_on_crash_resume() {
    let plain: Device = NetlistDevice::nominal().into();
    let netlist: Box<dyn DeviceBackend> = Box::new(NetlistDevice::nominal());
    let counting = CountingBackend::device(netlist);
    let dies = plain.sample_dies(3, 48);
    let tests = tests_at(10, 4, true);
    let ate = AteConfig {
        faults: TesterFaultModel::transient(0.02, 0.01),
        ..AteConfig::default()
    };
    let policy = ExecPolicy::with_threads(2);
    let runner = |device: &Device, journal: Option<PathBuf>, telemetry: Telemetry| {
        WaferRunner::new(PARAM)
            .with_device(device.clone())
            .with_config(WaferConfig {
                sites: 8,
                chunk_touchdowns: 1,
                journal_dir: journal,
                ..WaferConfig::default()
            })
            .with_telemetry(telemetry)
            .with_recovery(RetryPolicy::new(4, 50.0).with_vote(2, 3))
    };
    let resume = |device: &Device, sink: Arc<dyn TraceSink>, name: &str| {
        let dir = scratch_dir(name);
        let tracer = Tracer::new(sink);
        let telemetry =
            Telemetry::create(dir.join("telemetry"), name, tracer.clone()).expect("telemetry dir");
        let r = runner(device, Some(dir.join("journal")), telemetry.clone());
        r.run_prefix(
            &ate,
            &dies,
            &tests,
            SearchStrategy::SearchUntilTrip,
            policy,
            3,
        )
        .expect("journal dir");
        let out = r
            .resume_traced(
                &ate,
                &dies,
                &tests,
                SearchStrategy::SearchUntilTrip,
                policy,
                &tracer,
            )
            .expect("journal readable");
        telemetry.finish().expect("telemetry writable");
        let _ = std::fs::remove_dir_all(&dir);
        (out, telemetry.heartbeats())
    };
    let sink = Arc::new(CountingSink::new(Arc::new(NullSink)));
    let (wrapped, wrapped_beats) = resume(&counting, sink.clone(), "resume_wrapped");
    let (unwrapped, beats) = resume(&plain, Arc::new(NullSink), "resume_plain");
    assert_eq!(
        wrapped, unwrapped,
        "report, ledger and resume stats are bit-identical"
    );
    assert_eq!(wrapped_beats, beats);
    assert!(sink.records() > 0, "the sink saw the trace stream");
    assert_eq!(
        wrapped.0.aggregate.entries,
        (dies.len() * tests.len()) as u64
    );
    let uninterrupted = runner(&plain, None, Telemetry::disabled())
        .run(&ate, &dies, &tests, SearchStrategy::SearchUntilTrip, policy)
        .expect("no journal");
    assert_eq!(
        (wrapped.0, wrapped.1),
        uninterrupted,
        "resume equals the uninterrupted run"
    );
}

#[test]
fn wrapped_table1_hunt_matches_the_plain_hunt() {
    let hunt = |device: Device, tracer: &Tracer| {
        let mut ate = Ate::with_config(device, AteConfig::default());
        let mut rng = StdRng::seed_from_u64(11);
        let cmp = Comparison::run_parallel_observed(
            &mut ate,
            &quick_config(),
            ExecPolicy::serial(),
            &mut rng,
            tracer,
            &Telemetry::disabled(),
        );
        (cmp.rows, cmp.random_report, cmp.optimization.ga)
    };
    let sink = Arc::new(CountingSink::new(Arc::new(NullSink)));
    let wrapped = hunt(
        CountingBackend::device(Box::new(MemoryDevice::nominal())),
        &Tracer::new(sink.clone()),
    );
    assert_eq!(
        wrapped,
        hunt(MemoryDevice::nominal().into(), &Tracer::disabled())
    );
    assert!(sink.records() > 0);
    assert!(
        sink.training_us() > 0,
        "committee training spans were timed"
    );
}

#[test]
fn recording_oracle_passes_verdicts_through_and_replays_them() {
    let test = &tests_at(1, 5, false)[0];
    let search = SuccessiveApproximation::new(PARAM.generous_range(), PARAM.resolution());
    let order = PARAM.region_order();
    let mut plain = Ate::new(MemoryDevice::nominal());
    let mut wrapped = plain.clone();
    let direct = search.run(order, plain.trip_oracle(test, PARAM));
    let mut recording = RecordingOracle::new(wrapped.trip_oracle(test, PARAM));
    let recorded = search.run(order, &mut recording);
    let (_, verdicts) = recording.into_parts();
    assert_eq!(recorded, direct);
    assert_eq!(wrapped.ledger(), plain.ledger());
    assert_eq!(verdicts.len() as u64, plain.ledger().measurements());
    let replayed = search.run(order, ScriptedOracle::new(verdicts));
    assert_eq!(
        replayed, direct,
        "the scripted replay takes the same decisions"
    );
}
