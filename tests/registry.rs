//! Registry edge cases that cross crate boundaries: schema persistence
//! through the artifact store, and the wafer journal's refusal to resume
//! a campaign under a different device backend.
//!
//! (The registry's own parse/validate/create edge cases live as unit
//! tests in `cichar-dut`; this file covers the seams.)

use cichar::ate::{AteConfig, MeasuredParam};
use cichar::core::db::{load_artifact, save_artifact};
use cichar::core::dsv::SearchStrategy;
use cichar::core::wafer::{WaferConfig, WaferRunner};
use cichar::dut::{BackendSchema, DeviceSpec, Lot, Registry};
use cichar::exec::ExecPolicy;
use cichar::patterns::{random, ConditionSpace, Test};
use cichar::trace::Tracer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io;

fn suite(n: usize) -> Vec<Test> {
    let space = ConditionSpace::default();
    random::random_suite(&mut StdRng::seed_from_u64(0x9E61), &space, n)
}

#[test]
fn every_schema_round_trips_through_the_artifact_store() {
    let registry = Registry::builtin();
    let dir = std::env::temp_dir().join("cichar_registry_schema_roundtrip");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    for schema in registry.schemas() {
        let path = dir.join(format!("{}.json", schema.name));
        save_artifact(schema, &path).expect("schema serializes");
        let loaded: BackendSchema = load_artifact(&path).expect("schema deserializes");
        assert_eq!(&loaded, schema, "schema for `{}` mutated in flight", schema.name);
        // A reloaded schema still validates overrides exactly like the
        // original — persistence must not loosen the parameter ranges.
        for spec in &loaded.params {
            assert!(loaded.resolve(&[(spec.name.to_string(), spec.default)]).is_ok());
            let err = loaded
                .resolve(&[(spec.name.to_string(), spec.max + 1.0)])
                .expect_err("out-of-range override still rejected after reload");
            assert!(err.contains(spec.name.as_str()), "error names the parameter: {err}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn duplicate_registration_is_rejected_and_builtin_creates_validate() {
    let mut registry = Registry::builtin();
    let schema = registry.schema("memory").expect("memory registered").clone();
    let err = registry
        .register(schema, |_| Registry::builtin().create("memory", &[]).unwrap())
        .expect_err("second `memory` registration must fail");
    assert!(err.contains("memory"), "error names the duplicate: {err}");

    let registry = Registry::builtin();
    assert!(registry.create("vaporware", &[]).is_err(), "unknown backend rejected");
    assert!(
        registry.create("netlist", &[("levels".into(), 1e9)]).is_err(),
        "out-of-range parameter rejected at create"
    );
    assert!(
        registry.create("netlist", &[("no_such_knob".into(), 1.0)]).is_err(),
        "unknown parameter rejected at create"
    );
}

#[test]
fn device_specs_round_trip_through_display() {
    for raw in ["memory", "netlist", "netlist:levels=16,jitter=0.2", "logic:depth=12"] {
        let spec: DeviceSpec = raw.parse().expect("valid spec");
        let reparsed: DeviceSpec = spec.to_string().parse().expect("display re-parses");
        assert_eq!(spec, reparsed, "round trip for `{raw}`");
        Registry::builtin()
            .create_from_spec(&spec)
            .unwrap_or_else(|e| panic!("spec `{raw}` creates: {e}"));
    }
}

/// The journal fingerprint includes the device descriptor: an interrupted
/// `memory` campaign must refuse to resume under `logic` (or even under
/// `memory` with different parameters) with `InvalidData`, while the
/// matching runner resumes cleanly.
#[test]
fn journal_resume_refuses_a_different_backend() {
    let registry = Registry::builtin();
    let dir = std::env::temp_dir().join("cichar_registry_journal_xbackend");
    let _ = std::fs::remove_dir_all(&dir);

    let config = WaferConfig {
        sites: 2,
        chunk_touchdowns: 1,
        journal_dir: Some(dir.clone()),
        ..WaferConfig::default()
    };
    let runner_for = |name: &str| {
        WaferRunner::new(MeasuredParam::DataValidTime)
            .with_config(config.clone())
            .with_device(registry.create(name, &[]).unwrap())
    };

    let mut rng = StdRng::seed_from_u64(0xD1E);
    let dies = Lot::default().sample_dies(&mut rng, 4);
    let tests = suite(3);
    let ate_config = AteConfig::default();
    let strategy = SearchStrategy::SearchUntilTrip;

    // Interrupt a journaled memory campaign after its first chunk (4 dies
    // at 2 sites and 1 touchdown/chunk = 2 chunks, so 1 is incomplete).
    let committed = runner_for("memory")
        .run_prefix(&ate_config, &dies, &tests, strategy, ExecPolicy::serial(), 1)
        .expect("prefix run commits");
    assert_eq!(committed, 1, "campaign interrupted mid-journal");

    // A different backend must not adopt the orphaned journal.
    let err = runner_for("logic")
        .resume_traced(
            &ate_config,
            &dies,
            &tests,
            strategy,
            ExecPolicy::serial(),
            &Tracer::disabled(),
        )
        .expect_err("cross-backend resume must fail");
    assert_eq!(err.kind(), io::ErrorKind::InvalidData, "got: {err}");

    // Same family, different parameters: also a different campaign (the
    // descriptor carries the overrides).
    let err = WaferRunner::new(MeasuredParam::DataValidTime)
        .with_config(config.clone())
        .with_device(
            registry
                .create("netlist", &[("levels".into(), 16.0)])
                .unwrap(),
        )
        .resume_traced(
            &ate_config,
            &dies,
            &tests,
            strategy,
            ExecPolicy::serial(),
            &Tracer::disabled(),
        )
        .expect_err("parameterized backend is a different campaign too");
    assert_eq!(err.kind(), io::ErrorKind::InvalidData, "got: {err}");

    // The rightful owner resumes and completes.
    let (report, _ledger, stats) = runner_for("memory")
        .resume_traced(
            &ate_config,
            &dies,
            &tests,
            strategy,
            ExecPolicy::serial(),
            &Tracer::disabled(),
        )
        .expect("matching backend resumes");
    assert!(stats.chunks_replayed >= 1, "resume replayed the committed prefix");
    assert_eq!(report.dies as usize, dies.len());

    let _ = std::fs::remove_dir_all(&dir);
}
