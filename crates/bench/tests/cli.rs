//! CLI tests for the repro binaries: every bad flag value or unwritable
//! observability destination must exit with status 2 and a clear
//! diagnostic *before* any measurement work starts, and `--timings`
//! must land a timing sidecar in the saved manifest.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Runs the built `repro_fig2` binary with `args` and returns its output.
/// Fig. 2 is the cheapest repro, and all binaries share the same CLI
/// layer, so one binary exercises the whole flag surface.
fn run_fig2(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro_fig2"))
        .args(args)
        .env("CICHAR_SCALE", "quick")
        .output()
        .expect("repro_fig2 spawns")
}

fn stderr_of(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

#[test]
fn bad_trace_path_exits_2_before_measuring() {
    let output = run_fig2(&["--trace", "/nonexistent_cichar_dir/out.jsonl"]);
    assert_eq!(output.status.code(), Some(2), "{}", stderr_of(&output));
    let stderr = stderr_of(&output);
    assert!(stderr.contains("--trace"), "{stderr}");
    assert!(
        output.stdout.is_empty(),
        "must fail eagerly, before any campaign output"
    );
}

#[test]
fn manifest_to_read_only_dir_exits_2() {
    // A directory with the write bit cleared: `ensure_writable` must
    // reject it up front. Skip (vacuously pass) when running as root,
    // where permission bits don't bind.
    let dir = std::env::temp_dir().join("cichar_cli_readonly");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let original = std::fs::metadata(&dir).expect("metadata").permissions();
    let mut perms = original.clone();
    perms.set_readonly(true);
    std::fs::set_permissions(&dir, perms).expect("chmod");
    let probe = dir.join("probe");
    let readonly_binds = std::fs::write(&probe, b"").is_err();
    let _ = std::fs::remove_file(&probe);
    if !readonly_binds {
        let _ = std::fs::set_permissions(&dir, original);
        eprintln!("skipping: read-only directories do not bind for this user");
        return;
    }

    let target: PathBuf = dir.join("manifest.json");
    let output = run_fig2(&["--manifest", target.to_str().expect("utf-8 path")]);

    let _ = std::fs::set_permissions(&dir, original);

    assert_eq!(output.status.code(), Some(2), "{}", stderr_of(&output));
    let stderr = stderr_of(&output);
    assert!(stderr.contains("--manifest"), "{stderr}");
}

#[test]
fn out_of_range_fault_rate_exits_2() {
    for rate in ["1.5", "-0.1", "nope"] {
        let output = run_fig2(&["--fault-rate", rate]);
        assert_eq!(output.status.code(), Some(2), "rate {rate}");
        let stderr = stderr_of(&output);
        assert!(stderr.contains("--fault-rate"), "{stderr}");
        assert!(stderr.contains("[0, 1)"), "{stderr}");
    }
}

#[test]
fn timings_flag_lands_the_sidecar_in_the_manifest() {
    let dir = std::env::temp_dir().join("cichar_cli_timings");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let timed_path = dir.join("timed.json");
    let plain_path = dir.join("plain.json");

    let timed = run_fig2(&["--manifest", timed_path.to_str().unwrap(), "--timings"]);
    assert_eq!(timed.status.code(), Some(0), "{}", stderr_of(&timed));
    let stdout = String::from_utf8_lossy(&timed.stdout).into_owned();
    assert!(stdout.contains("span timings"), "{stdout}");

    let plain = run_fig2(&["--manifest", plain_path.to_str().unwrap()]);
    assert_eq!(plain.status.code(), Some(0), "{}", stderr_of(&plain));

    let load = |path: &std::path::Path| -> cichar_trace::RunManifest {
        let text = std::fs::read_to_string(path).expect("manifest saved");
        serde_json::from_str(&text).expect("manifest parses")
    };
    let timed_manifest = load(&timed_path);
    let plain_manifest = load(&plain_path);
    let timings = timed_manifest.timings.as_ref().expect("sidecar captured");
    assert!(timings.spans() > 0);
    assert_eq!(plain_manifest.timings, None, "no sidecar without --timings");
    // Both manifests record the trip-point extrema the diff gate compares.
    for key in ["trip_min", "trip_max"] {
        for manifest in [&timed_manifest, &plain_manifest] {
            assert!(
                manifest.config.iter().any(|(k, _)| k == key),
                "{key} missing from {}", manifest.campaign
            );
        }
    }
}

/// Runs the built `repro_wafer` binary — the only repro that carries the
/// durability flag family (`--journal`, `--resume`, timeouts, breaker).
fn run_wafer(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro_wafer"))
        .args(args)
        .env("CICHAR_SCALE", "quick")
        .output()
        .expect("repro_wafer spawns")
}

#[test]
fn bad_durability_flags_exit_2_before_measuring() {
    for (args, needle) in [
        (&["--journal", ""][..], "--journal"),
        (&["--journal"][..], "--journal"),
        (&["--chunk-timeout-ms", "0"][..], "--chunk-timeout-ms"),
        (&["--chunk-timeout-ms", "-5"][..], "--chunk-timeout-ms"),
        (&["--chunk-timeout-ms=junk"][..], "--chunk-timeout-ms"),
        (&["--site-fault-threshold", "1.5"][..], "(0, 1]"),
        (&["--site-fault-threshold", "0"][..], "(0, 1]"),
        (&["--site-fault-threshold=nan"][..], "(0, 1]"),
        (&["--site-fault-threshold"][..], "--site-fault-threshold"),
    ] {
        let output = run_wafer(args);
        assert_eq!(output.status.code(), Some(2), "{args:?}: {}", stderr_of(&output));
        let stderr = stderr_of(&output);
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
        assert!(
            output.stdout.is_empty(),
            "{args:?}: must fail eagerly, before any campaign output"
        );
    }
}

#[test]
fn resume_without_a_journal_exits_2() {
    let output = run_wafer(&["--resume"]);
    assert_eq!(output.status.code(), Some(2), "{}", stderr_of(&output));
    let stderr = stderr_of(&output);
    assert!(stderr.contains("--resume requires --journal"), "{stderr}");
}

#[test]
fn resume_against_a_missing_journal_exits_1() {
    let dir = std::env::temp_dir().join("cichar_cli_missing_journal");
    let _ = std::fs::remove_dir_all(&dir);
    let output = run_wafer(&["--journal", dir.to_str().unwrap(), "--resume", "--dies", "8"]);
    assert_eq!(output.status.code(), Some(1), "{}", stderr_of(&output));
    let stderr = stderr_of(&output);
    assert!(stderr.contains("resume failed"), "{stderr}");
}

/// The guarded crash-safe recipes of `repro_wafer`'s header and README.md,
/// at a small die count: a resume that repeats the flags of the run it
/// resumes replays the committed prefix, re-measures what the crash lost
/// and lands on the uninterrupted run's `wafer_summary.json`.
#[test]
fn documented_resume_recipes_reproduce_the_uninterrupted_summary() {
    let self_healing = ["--chunk-timeout-ms", "250", "--site-fault-threshold", "0.25"];
    for (name, flags) in [("watchdog", &self_healing[..2]), ("self_healing", &self_healing[..])] {
        let journal = std::env::temp_dir().join(format!("cichar_cli_recipe_{name}"));
        let _ = std::fs::remove_dir_all(&journal);
        let run = |extra: &[&str]| {
            // 96 one-site touchdowns make three chunks of 32.
            let mut args = vec!["--journal", journal.to_str().unwrap(), "--dies", "96"];
            args.extend_from_slice(extra);
            args.extend_from_slice(flags);
            let output = run_wafer(&args);
            assert_eq!(output.status.code(), Some(0), "{args:?}: {}", stderr_of(&output));
        };
        run(&[]);
        let summary = journal.join("wafer_summary.json");
        let uninterrupted = std::fs::read(&summary).expect("summary written");
        // A crash right after the first commit: the last two chunks and
        // the summary never landed.
        for lost in [
            "journal_chunk_00001.jsonl",
            "journal_chunk_00002.jsonl",
            "wafer_summary.json",
        ] {
            std::fs::remove_file(journal.join(lost)).expect("written by the first run");
        }
        run(&["--resume"]);
        let resumed = std::fs::read(&summary).expect("the resume writes the summary");
        assert!(resumed == uninterrupted, "{name}: the resumed summary differs");
        std::fs::remove_dir_all(&journal).ok();
    }
}

/// The watchdog budget changes which tests are quarantined, so a resume
/// that drops it or changes it is another campaign, and the journal
/// refuses it with status 1.
#[test]
fn a_resume_with_another_watchdog_budget_exits_1() {
    let journal = std::env::temp_dir().join("cichar_cli_recipe_budget");
    let _ = std::fs::remove_dir_all(&journal);
    let dir = journal.to_str().unwrap();
    let output = run_wafer(&["--journal", dir, "--dies", "8", "--chunk-timeout-ms", "250"]);
    assert_eq!(output.status.code(), Some(0), "{}", stderr_of(&output));
    for budget in [&["--chunk-timeout-ms", "500"][..], &[][..]] {
        let mut args = vec!["--journal", dir, "--dies", "8", "--resume"];
        args.extend_from_slice(budget);
        let output = run_wafer(&args);
        assert_eq!(output.status.code(), Some(1), "{args:?}: {}", stderr_of(&output));
        let stderr = stderr_of(&output);
        assert!(stderr.contains("belongs to a different campaign"), "{args:?}: {stderr}");
        // The watchdog budget lives in the fingerprint's `shape` part, and
        // the refusal prints only that part from each side.
        assert!(stderr.contains(": shape differs (journal shape:("), "{args:?}: {stderr}");
        assert!(!stderr.contains("runner:"), "{args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&journal).ok();
}

#[test]
fn bad_device_specs_exit_2_and_print_the_registry() {
    for (args, needle) in [
        // Unknown backend name.
        (&["--device", "vaporware"][..], "unknown device backend"),
        // Malformed key=val payloads.
        (&["--device", "netlist:levels"][..], "key=val"),
        (&["--device", "netlist:=4"][..], "empty key"),
        (&["--device", "netlist:levels=fast"][..], "levels"),
        (&["--device", "netlist:"][..], "--device"),
        (&["--device", ""][..], "--device"),
        (&["--device"][..], "--device"),
        // Valid syntax, rejected by the schema.
        (&["--device", "netlist:levels=9999"][..], "levels"),
        (&["--device", "netlist:warp=9"][..], "warp"),
        (&["--device=logic:depth=0"][..], "depth"),
    ] {
        // A bare `--device` (missing operand) also exits 2, but fails in
        // the flag layer before the registry is consulted.
        if args == ["--device"] {
            let output = run_fig2(args);
            assert_eq!(output.status.code(), Some(2));
            assert!(stderr_of(&output).contains("--device requires a value"));
            continue;
        }
        let output = run_fig2(args);
        assert_eq!(output.status.code(), Some(2), "{args:?}: {}", stderr_of(&output));
        let stderr = stderr_of(&output);
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
        // Every rejection teaches: the registry listing follows the error.
        assert!(
            stderr.contains("registered device backends"),
            "{args:?}: listing missing from {stderr}"
        );
        assert!(
            output.stdout.is_empty(),
            "{args:?}: must fail eagerly, before any campaign output"
        );
    }
}

#[test]
fn non_default_device_runs_and_stamps_the_manifest() {
    let dir = std::env::temp_dir().join("cichar_cli_device");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("netlist.json");
    let output = run_fig2(&[
        "--device",
        "netlist:levels=10",
        "--manifest",
        path.to_str().unwrap(),
    ]);
    assert_eq!(output.status.code(), Some(0), "{}", stderr_of(&output));
    let text = std::fs::read_to_string(&path).expect("manifest saved");
    let manifest: cichar_trace::RunManifest = serde_json::from_str(&text).expect("parses");
    // The stamped descriptor is canonical: backend name plus the *full*
    // effective parameter vector (the override folded in).
    let device = manifest
        .config
        .iter()
        .find(|(k, _)| k == "device")
        .map(|(_, v)| v.as_str())
        .expect("manifest records the device selection");
    assert!(device.starts_with("netlist:"), "{device}");
    assert!(device.contains("levels=10"), "override folded in: {device}");
}

#[test]
fn a_device_the_generous_range_cannot_bracket_exits_1_naming_it() {
    // A 16-level netlist's trip point lies outside the generous range,
    // so no search converges.
    let args = ["--device", "netlist:levels=16"];
    let fig2 = run_fig2(&args);
    let fig7 = Command::new(env!("CARGO_BIN_EXE_repro_fig7"))
        .args(args)
        .env("CICHAR_SCALE", "quick")
        .output()
        .expect("repro_fig7 spawns");
    for (bin, output) in [("repro_fig2", &fig2), ("repro_fig7", &fig7)] {
        assert_eq!(
            output.status.code(),
            Some(1),
            "{bin}: {}",
            stderr_of(output)
        );
        let stderr = stderr_of(output);
        assert!(
            stderr.contains("device netlist:levels=16,"),
            "{bin}: {stderr}"
        );
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(
            !stdout.contains("T_DQ ="),
            "{bin}: no figure without trip points"
        );
    }
    assert!(fig2.stdout.is_empty(), "no figure without trip points");
}

#[test]
fn missing_operands_exit_2() {
    for args in [
        &["--trace"][..],
        &["--manifest"][..],
        &["--threads"][..],
        &["--trace="][..],
    ] {
        let output = run_fig2(args);
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(!stderr_of(&output).is_empty(), "{args:?}");
    }
}
