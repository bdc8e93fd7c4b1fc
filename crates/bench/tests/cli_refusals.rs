//! Every repro binary reads its whole command line before it measures.
//! A misspelled flag, a flag of a group the binary does not take, a
//! repeated flag, a `CICHAR_SCALE` other than `quick` or `full`, a
//! `CICHAR_THREADS` that is not a thread count, and bytes that are not
//! UTF-8 each exit with status 2 and name the offender, with nothing on
//! stdout and nothing written to the working directory.

use std::process::Command;

/// Each binary with a misspelled flag and a flag of a group it does not
/// take. `repro_wafer` takes every group, so it gets a stray operand.
const BINARIES: [(&str, &str, [&str; 2], &[&str]); 9] = [
    (
        "repro_fig1",
        env!("CARGO_BIN_EXE_repro_fig1"),
        ["--thraeds", "2"],
        &["--trace", "x.jsonl"],
    ),
    (
        "repro_fig2",
        env!("CARGO_BIN_EXE_repro_fig2"),
        ["--site", "4"],
        &["--journal", "j"],
    ),
    (
        "repro_fig3",
        env!("CARGO_BIN_EXE_repro_fig3"),
        ["--fault_rate", "0.1"],
        &["--sites", "4"],
    ),
    (
        "repro_fig6",
        env!("CARGO_BIN_EXE_repro_fig6"),
        ["--devise", "logic"],
        &["--fault-rate", "0.1"],
    ),
    (
        "repro_fig7",
        env!("CARGO_BIN_EXE_repro_fig7"),
        ["-threads", "2"],
        &["--manifest", "m.json"],
    ),
    (
        "repro_fig8",
        env!("CARGO_BIN_EXE_repro_fig8"),
        ["--Threads", "2"],
        &["--telemetry", "tele"],
    ),
    (
        "repro_table1",
        env!("CARGO_BIN_EXE_repro_table1"),
        ["--retry", "2"],
        &["--dies", "8"],
    ),
    (
        "repro_ablation",
        env!("CARGO_BIN_EXE_repro_ablation"),
        ["--device:logic", "x"],
        &["--trace", "x.jsonl"],
    ),
    (
        "repro_wafer",
        env!("CARGO_BIN_EXE_repro_wafer"),
        ["--site", "8"],
        &["stray", "--sites", "4"],
    ),
];

#[test]
fn every_binary_refuses_what_it_does_not_take_before_measuring() {
    for (name, exe, misspelled, untaken) in BINARIES {
        let dir =
            std::env::temp_dir().join(format!("cichar_cli_refusals_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let quick = [("CICHAR_SCALE", "quick")];
        for (args, vars, needle) in [
            (
                &misspelled[..],
                &quick[..],
                format!("unexpected argument {:?}", misspelled[0]),
            ),
            (
                untaken,
                &quick[..],
                format!("unexpected argument {:?}", untaken[0]),
            ),
            (
                &["--threads", "1", "--threads=2"][..],
                &quick[..],
                "--threads given more than once".into(),
            ),
            (
                &[][..],
                &[("CICHAR_SCALE", "ful")][..],
                "invalid CICHAR_SCALE value \"ful\"".into(),
            ),
            (
                &[][..],
                &[("CICHAR_SCALE", "quick"), ("CICHAR_THREADS", "junk")][..],
                "invalid CICHAR_THREADS value \"junk\"".into(),
            ),
        ] {
            let output = Command::new(exe)
                .args(args)
                .envs(vars.iter().copied())
                .current_dir(&dir)
                .output()
                .expect("binary spawns");
            let stderr = String::from_utf8_lossy(&output.stderr);
            let what = format!("{vars:?} {name} {}", args.join(" "));
            assert_eq!(output.status.code(), Some(2), "{what}: {stderr}");
            assert!(stderr.contains(&needle), "{what}: {stderr}");
            assert!(
                output.stdout.is_empty(),
                "{what}: must fail before any campaign output"
            );
        }
        let left: Vec<_> = std::fs::read_dir(&dir).expect("tmp dir").collect();
        assert!(left.is_empty(), "{name} wrote {left:?}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn bytes_that_are_not_utf8_exit_2_instead_of_panicking() {
    use std::os::unix::ffi::OsStrExt;
    let junk = std::ffi::OsStr::from_bytes(b"--threads=\xff");
    for (name, exe, ..) in BINARIES {
        for (args, var) in [
            (&[junk][..], None),
            (&[][..], Some("CICHAR_SCALE")),
            (&[][..], Some("CICHAR_THREADS")),
        ] {
            let mut command = Command::new(exe);
            command.args(args).env("CICHAR_SCALE", "quick");
            if let Some(var) = var {
                command.env(var, junk);
            }
            let output = command.output().expect("binary spawns");
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert_eq!(
                output.status.code(),
                Some(2),
                "{name} {args:?} {var:?}: {stderr}"
            );
            assert!(
                stderr.contains("\\xFF"),
                "{name} names the bad bytes: {stderr}"
            );
            assert!(
                output.stdout.is_empty(),
                "{name}: must fail before any campaign output"
            );
        }
    }
}
