//! Shared scaffolding for the reproduction binaries and benches.
//!
//! Every `repro_*` binary regenerates one table or figure of the paper
//! (see `DESIGN.md` §5 and `EXPERIMENTS.md`). Budgets follow the
//! `CICHAR_SCALE` environment variable: `quick` (default — seconds) or
//! `full` (minutes, closer to the paper's measurement counts).
//!
//! The binaries and the workspace examples read their command line
//! through one [`Cli`]: each names the [`Flags`] groups it takes, and an
//! unknown, repeated or untaken flag, a stray operand or a bad
//! `CICHAR_SCALE` or `CICHAR_THREADS` exits with status 2 before any
//! measurement.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cichar_ate::{MeasuredParam, TesterFaultModel};
use cichar_core::compare::{quick_config, CompareConfig};
use cichar_core::learning::LearningConfig;
use cichar_core::optimization::OptimizationConfig;
use cichar_dut::{Device, DeviceSpec, Registry};
use cichar_exec::ExecPolicy;
use cichar_genetic::GaConfig;
use cichar_neural::TrainConfig;
use cichar_search::RetryPolicy;
use cichar_trace::{
    ensure_writable, AlarmRule, HealthSection, JsonlSink, NullSink, RunManifest, Telemetry,
    TraceSink, Tracer, DEFAULT_HEARTBEAT_EVERY_MS,
};
use std::ffi::OsString;
use std::path::PathBuf;
use std::sync::Arc;

/// A group of command-line flags. A binary names the groups it takes
/// when it calls [`Cli::parse`]; a flag of any other group is refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flags {
    /// `--threads N`.
    Threads,
    /// `--fault-rate R` and `--retries N`.
    Faults,
    /// `--sites N`.
    Sites,
    /// `--dies N`.
    Dies,
    /// `--device NAME[:key=val,...]`.
    Device,
    /// `--journal DIR`, `--resume`, `--chunk-timeout-ms N` and
    /// `--site-fault-threshold X`.
    Durability,
    /// `--trace PATH`, `--manifest PATH` and `--timings`.
    TraceOutputs,
    /// `--telemetry DIR` and `--heartbeat-every N`.
    Telemetry,
}

/// Every flag: its spelling, its group and its operand (empty for a
/// switch). An operand follows as the next token or after `=`.
const FLAGS: [(&str, Flags, &str); 15] = [
    ("--threads", Flags::Threads, "N"),
    ("--fault-rate", Flags::Faults, "R"),
    ("--retries", Flags::Faults, "N"),
    ("--sites", Flags::Sites, "N"),
    ("--dies", Flags::Dies, "N"),
    ("--device", Flags::Device, "NAME[:key=val,...]"),
    ("--journal", Flags::Durability, "DIR"),
    ("--resume", Flags::Durability, ""),
    ("--chunk-timeout-ms", Flags::Durability, "N"),
    ("--site-fault-threshold", Flags::Durability, "X"),
    ("--trace", Flags::TraceOutputs, "PATH"),
    ("--manifest", Flags::TraceOutputs, "PATH"),
    ("--timings", Flags::TraceOutputs, ""),
    ("--telemetry", Flags::Telemetry, "DIR"),
    ("--heartbeat-every", Flags::Telemetry, "N"),
];

/// Strict parser for positive-integer operands: every count-style flag
/// (`--threads`, `--sites`, `--dies`, `--chunk-timeout-ms`,
/// `--heartbeat-every`) rejects `0`, negatives and junk with the same
/// diagnostic.
fn parse_count(flag: &str, raw: &str) -> Result<u64, String> {
    match raw.trim().parse::<u64>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!(
            "invalid {flag} value {raw:?}: expected a positive integer"
        )),
    }
}

/// Strict parser for rate operands on the unit interval. The two
/// booleans select which endpoint is admitted, so `--fault-rate`
/// (`[0, 1)`) and `--site-fault-threshold` (`(0, 1]`) share one
/// implementation; the diagnostic renders the exact interval.
fn parse_rate(flag: &str, raw: &str, include_zero: bool, include_one: bool) -> Result<f64, String> {
    let ok = |r: f64| {
        r.is_finite()
            && (r > 0.0 || (include_zero && r == 0.0))
            && (r < 1.0 || (include_one && r == 1.0))
    };
    match raw.trim().parse::<f64>() {
        Ok(r) if ok(r) => Ok(r),
        _ => Err(format!(
            "invalid {flag} value {raw:?}: expected a rate in {}0, 1{}",
            if include_zero { '[' } else { '(' },
            if include_one { ']' } else { ')' },
        )),
    }
}

fn usage_error(err: &str) -> ! {
    eprintln!("error: {err}");
    std::process::exit(2);
}

/// A binary's whole command line, read in one pass. Fields of flag
/// groups the binary does not take hold their defaults.
#[derive(Debug)]
pub struct Cli {
    /// The run scale, from `CICHAR_SCALE`.
    pub scale: Scale,
    /// `--threads N`, otherwise `CICHAR_THREADS`, otherwise the
    /// machine's available parallelism.
    pub policy: ExecPolicy,
    /// `--fault-rate R` injects transient verdict flips at rate `R` and
    /// probe-contact dropouts at `R/2` ([`TesterFaultModel::none`] at 0).
    pub faults: TesterFaultModel,
    /// The recovery ladder: `--retries N` bounds it (4 when faults are
    /// on), and any nonzero fault rate adds 2-of-3 majority-vote
    /// strobes. `None` without faults and without `--retries`.
    pub recovery: Option<RetryPolicy>,
    /// Touchdown width, `--sites N` (default 1).
    pub sites: usize,
    /// Die-count override, `--dies N`.
    pub dies: Option<usize>,
    /// The prototype device of `--device NAME[:key=val,...]` on the
    /// nominal die (default: the calibrated `memory` backend).
    pub device: Device,
    /// Whether the device is the default backend. Repro binaries then
    /// keep their historical die sampling, and manifests omit the
    /// device, so default artifacts match the pre-registry engine.
    pub default_device: bool,
    /// `--journal DIR` arms chunk-granular crash checkpoints.
    pub journal: Option<PathBuf>,
    /// `--resume` replays the journal instead of starting over.
    pub resume: bool,
    /// `--chunk-timeout-ms N` arms the stall watchdog (simulated
    /// milliseconds per site-touchdown).
    pub chunk_timeout_ms: Option<u64>,
    /// `--site-fault-threshold X` arms the site health breaker, `X` in
    /// `(0, 1]`.
    pub site_fault_threshold: Option<f64>,
    trace: Option<PathBuf>,
    manifest: Option<PathBuf>,
    timings: bool,
    telemetry: Option<PathBuf>,
    heartbeat_every_ms: Option<u64>,
}

impl Cli {
    /// Reads the process's command line, `CICHAR_SCALE` and
    /// `CICHAR_THREADS`, taking only the flags of `groups`. Any error — a
    /// bad value, a missing operand, an unknown, repeated or untaken flag,
    /// a stray operand, bytes that are not UTF-8 — prints a diagnostic
    /// and exits with status 2.
    pub fn parse(groups: &[Flags]) -> Cli {
        std::env::args_os()
            .skip(1)
            .map(|arg| {
                arg.into_string()
                    .map_err(|arg| format!("argument {arg:?} is not valid UTF-8"))
            })
            .collect::<Result<Vec<_>, _>>()
            .and_then(|args| Cli::from_args(groups, args))
            .unwrap_or_else(|err| usage_error(&err))
    }

    /// [`Cli::parse`] over an explicit argument list, with errors
    /// returned (testable). `CICHAR_SCALE` and `CICHAR_THREADS` are still
    /// read from the environment, and a bad value of either is an error.
    pub fn from_args<I>(groups: &[Flags], args: I) -> Result<Cli, String>
    where
        I: IntoIterator<Item = String>,
    {
        let mut cli = Cli {
            scale: Scale::from_var(std::env::var_os("CICHAR_SCALE"))?,
            policy: ExecPolicy::from_env()?,
            faults: TesterFaultModel::none(),
            recovery: None,
            sites: 1,
            dies: None,
            device: Registry::builtin().create_from_spec(&DeviceSpec::default_backend())?,
            default_device: true,
            journal: None,
            resume: false,
            chunk_timeout_ms: None,
            site_fault_threshold: None,
            trace: None,
            manifest: None,
            timings: false,
            telemetry: None,
            heartbeat_every_ms: None,
        };
        let (mut fault_rate, mut retries) = (0.0, None);
        let mut spec = DeviceSpec::default_backend();
        let mut seen = Vec::new();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let (name, inline) = match arg.split_once('=') {
                Some((name, value)) => (name, Some(value)),
                None => (arg.as_str(), None),
            };
            let Some(&(flag, _, operand)) = FLAGS
                .iter()
                .find(|(f, group, _)| *f == name && groups.contains(group))
            else {
                let taken: Vec<String> = FLAGS
                    .iter()
                    .filter(|(_, group, _)| groups.contains(group))
                    .map(|(f, _, operand)| format!("{f} {operand}").trim_end().to_string())
                    .collect();
                return Err(format!(
                    "unexpected argument {arg:?} (this binary takes {})",
                    taken.join(", ")
                ));
            };
            if seen.contains(&flag) {
                return Err(format!("{flag} given more than once"));
            }
            seen.push(flag);
            let value = match (operand.is_empty(), inline) {
                (true, None) => String::new(),
                (true, Some(_)) => return Err(format!("{flag} takes no value")),
                (false, Some(value)) => value.to_string(),
                (false, None) => args
                    .next()
                    .ok_or_else(|| format!("{flag} requires a value"))?,
            };
            match operand {
                "DIR" if value.trim().is_empty() => {
                    return Err(format!(
                        "invalid {flag} value {value:?}: expected a directory path"
                    ))
                }
                "PATH" if value.trim().is_empty() => {
                    return Err(format!("{flag} requires a non-empty path"))
                }
                _ => {}
            }
            match flag {
                "--threads" => {
                    cli.policy = ExecPolicy::with_threads(parse_count(flag, &value)? as usize)
                }
                "--fault-rate" => fault_rate = parse_rate(flag, &value, true, false)?,
                "--retries" => {
                    retries = Some(value.trim().parse::<usize>().map_err(|_| {
                        format!(
                            "invalid --retries value {value:?}: expected a non-negative integer"
                        )
                    })?)
                }
                "--sites" => cli.sites = parse_count(flag, &value)? as usize,
                "--dies" => cli.dies = Some(parse_count(flag, &value)? as usize),
                "--device" => {
                    spec = value.trim().parse().map_err(|err| {
                        format!(
                            "invalid --device value {value:?}: {err}\n{}",
                            Registry::builtin().listing()
                        )
                    })?
                }
                "--journal" => cli.journal = Some(PathBuf::from(value)),
                "--resume" => cli.resume = true,
                "--chunk-timeout-ms" => cli.chunk_timeout_ms = Some(parse_count(flag, &value)?),
                "--site-fault-threshold" => {
                    cli.site_fault_threshold = Some(parse_rate(flag, &value, false, true)?)
                }
                "--trace" => cli.trace = Some(PathBuf::from(value)),
                "--manifest" => cli.manifest = Some(PathBuf::from(value)),
                "--timings" => cli.timings = true,
                "--telemetry" => cli.telemetry = Some(PathBuf::from(value)),
                "--heartbeat-every" => cli.heartbeat_every_ms = Some(parse_count(flag, &value)?),
                _ => unreachable!("{flag} is in FLAGS without an arm here"),
            }
        }
        if cli.resume && cli.journal.is_none() {
            return Err(String::from(
                "--resume requires --journal DIR (there is no journal to resume without one)",
            ));
        }
        if cli.heartbeat_every_ms.is_some() && cli.telemetry.is_none() {
            return Err(String::from(
                "--heartbeat-every requires --telemetry DIR (there is no heartbeat stream without one)",
            ));
        }
        if fault_rate > 0.0 {
            cli.faults = TesterFaultModel::transient(fault_rate, fault_rate / 2.0);
        }
        if fault_rate > 0.0 || retries.is_some() {
            let policy = RetryPolicy::new(retries.unwrap_or(4), 50.0);
            cli.recovery = Some(if fault_rate > 0.0 {
                policy.with_vote(2, 3)
            } else {
                policy
            });
        }
        if !spec.is_default() {
            cli.device = Registry::builtin().create_from_spec(&spec).map_err(|err| {
                format!(
                    "invalid --device value: {err}\n{}",
                    Registry::builtin().listing()
                )
            })?;
            cli.default_device = false;
        }
        Ok(cli)
    }

    /// Builds the run's tracer and live telemetry for `campaign`. Every
    /// destination is checked before any measurement: an unwritable
    /// `--trace` or `--manifest` path, or a `--telemetry` directory that
    /// cannot be written, exits with status 2.
    ///
    /// The tracer streams to a [`JsonlSink`] with `--trace`. With only
    /// `--manifest`, `--timings` or `--telemetry` it counts into a
    /// [`NullSink`]: metrics and phases still accumulate, and heartbeats
    /// read them. Otherwise it is disabled. `--timings` adds the
    /// wall-clock timing sidecar without touching the event stream.
    pub fn observe(&self, campaign: &str) -> (Tracer, Telemetry) {
        self.try_observe(campaign)
            .unwrap_or_else(|err| usage_error(&err))
    }

    fn try_observe(&self, campaign: &str) -> Result<(Tracer, Telemetry), String> {
        if let Some(path) = &self.manifest {
            ensure_writable(path).map_err(|e| {
                format!(
                    "cannot write --manifest destination {}: {e}",
                    path.display()
                )
            })?;
        }
        let sink: Arc<dyn TraceSink> = match &self.trace {
            Some(path) => Arc::new(JsonlSink::create(path).map_err(|e| {
                format!("cannot write --trace destination {}: {e}", path.display())
            })?),
            None if self.artifacts() || self.telemetry.is_some() => Arc::new(NullSink),
            None => return Ok((Tracer::disabled(), Telemetry::disabled())),
        };
        let tracer = if self.timings {
            Tracer::timed(sink)
        } else {
            Tracer::new(sink)
        };
        let telemetry = match &self.telemetry {
            None => Telemetry::disabled(),
            Some(dir) => Telemetry::create_with(
                dir,
                campaign,
                tracer.clone(),
                self.heartbeat_every_ms
                    .unwrap_or(DEFAULT_HEARTBEAT_EVERY_MS),
                AlarmRule::default_set(),
            )
            .map_err(|e| format!("cannot write --telemetry directory {}: {e}", dir.display()))?,
        };
        Ok((tracer, telemetry))
    }

    /// Whether `--trace`, `--manifest` or `--timings` asked for run
    /// artifacts.
    fn artifacts(&self) -> bool {
        self.trace.is_some() || self.manifest.is_some() || self.timings
    }

    /// Finishes `telemetry` — its last heartbeat and OpenMetrics file —
    /// and returns the run's health (`None` when disabled). A sidecar
    /// write that failed exits with status 1.
    pub fn finish(&self, telemetry: &Telemetry) -> Option<HealthSection> {
        telemetry.finish().unwrap_or_else(|err| {
            eprintln!("error: telemetry sidecar failed: {err}");
            std::process::exit(1);
        })
    }

    /// Closes a run that asked for artifacts; does nothing otherwise.
    /// `manifest` supplies the campaign's own config keys and sections.
    /// This stamps a non-default device, captures the tracer's metrics,
    /// phases and timings, and records the host and `health`. It then
    /// prints the manifest and commits the trace stream and the
    /// `--manifest` file (both atomically). A failed commit exits with
    /// status 1.
    pub fn commit(
        &self,
        tracer: &Tracer,
        health: Option<HealthSection>,
        manifest: impl FnOnce() -> RunManifest,
    ) {
        if !self.artifacts() {
            return;
        }
        let mut manifest = manifest();
        if !self.default_device {
            manifest = manifest.with_config("device", self.device.descriptor());
        }
        let mut manifest = manifest.capture(tracer).with_host();
        manifest.health = health;
        println!("\n{}", manifest.render());
        let committed = tracer
            .finish()
            .map_err(|e| format!("failed to commit trace stream: {e}"))
            .and_then(|()| match &self.manifest {
                Some(path) => cichar_core::db::save_artifact(&manifest, path)
                    .map_err(|e| format!("failed to save manifest {}: {e}", path.display())),
                None => Ok(()),
            });
        if let Err(err) = committed {
            eprintln!("error: {err}");
            std::process::exit(1);
        }
    }
}

/// Refuses a device whose `param` trip point the generous range cannot
/// bracket (a `netlist` of 15 or more levels, for one): with no trip point
/// there is nothing to characterize, so this names the device and the
/// range on stderr and exits with status 1.
pub fn unbracketed(device: &Device, param: MeasuredParam) -> ! {
    eprintln!(
        "error: device {} has no {param} trip point inside the generous range {} {}",
        device.descriptor(),
        param.generous_range(),
        param.kind().unit_symbol()
    );
    std::process::exit(1);
}

/// The run scale selected through `CICHAR_SCALE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-long budgets for CI and smoke runs.
    Quick,
    /// The budget used for `EXPERIMENTS.md` numbers.
    Full,
}

impl Scale {
    /// The scale a `CICHAR_SCALE` value names: `quick` (also when
    /// unset) or `full`. Any other value is an error.
    fn from_var(var: Option<OsString>) -> Result<Self, String> {
        match var {
            None => Ok(Scale::Quick),
            Some(raw) if raw == "quick" => Ok(Scale::Quick),
            Some(raw) if raw == "full" => Ok(Scale::Full),
            Some(raw) => Err(format!(
                "invalid CICHAR_SCALE value {raw:?}: expected quick or full"
            )),
        }
    }

    /// Number of random tests for the fig. 2 / fig. 8 style sweeps
    /// (the paper overlays 1000).
    pub fn random_tests(self) -> usize {
        match self {
            Scale::Quick => 120,
            Scale::Full => 1000,
        }
    }

    /// The Table 1 comparison configuration at this scale.
    pub fn compare_config(self) -> CompareConfig {
        match self {
            Scale::Quick => quick_config(),
            Scale::Full => CompareConfig {
                random_tests: 1000,
                learning: LearningConfig {
                    tests_per_round: 300,
                    max_rounds: 3,
                    committee_size: 5,
                    hidden: vec![16, 8],
                    train: TrainConfig {
                        epochs: 300,
                        ..TrainConfig::default()
                    },
                    ..LearningConfig::default()
                },
                nn_candidates: 5000,
                nn_seeds: 40,
                optimization: OptimizationConfig {
                    ga: GaConfig {
                        population_size: 40,
                        islands: 3,
                        generations: 80,
                        stagnation_restart: 12,
                        target_fitness: Some(1.0),
                        ..GaConfig::default()
                    },
                    ..OptimizationConfig::default()
                },
                ..CompareConfig::default()
            },
        }
    }

    /// Wafer-campaign shape at this scale: `(dies, tests per die)`. The
    /// full shape lands at the ROADMAP's 10^5 (test, die) searches.
    pub fn wafer_shape(self) -> (usize, usize) {
        match self {
            Scale::Quick => (96, 4),
            Scale::Full => (2000, 50),
        }
    }

    /// Deterministic RNG seed shared by all repro binaries.
    pub fn seed(self) -> u64 {
        0xDA7E_2005
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    /// Every group: what the parser tests below read with.
    const ALL: [Flags; 8] = [
        Flags::Threads,
        Flags::Faults,
        Flags::Sites,
        Flags::Dies,
        Flags::Device,
        Flags::Durability,
        Flags::TraceOutputs,
        Flags::Telemetry,
    ];

    fn cli(args: &[&str]) -> Result<Cli, String> {
        Cli::from_args(&ALL, strings(args))
    }

    #[test]
    fn default_scale_is_quick() {
        // The test environment does not set CICHAR_SCALE=full.
        if std::env::var("CICHAR_SCALE").is_err() {
            assert_eq!(cli(&[]).unwrap().scale, Scale::Quick);
        }
    }

    #[test]
    fn scale_accepts_only_quick_and_full() {
        let var = |raw: &str| Scale::from_var(Some(raw.into()));
        assert_eq!(Scale::from_var(None), Ok(Scale::Quick));
        assert_eq!(var("quick"), Ok(Scale::Quick));
        assert_eq!(var("full"), Ok(Scale::Full));
        for raw in ["ful", "", "FULL", " full", "quick,full"] {
            let err = var(raw).unwrap_err();
            assert!(
                err.contains("CICHAR_SCALE") && err.contains("quick or full"),
                "{raw:?} -> {err}"
            );
        }
        use std::os::unix::ffi::OsStrExt;
        let junk = std::ffi::OsStr::from_bytes(b"\xff");
        let err = Scale::from_var(Some(junk.into())).unwrap_err();
        assert!(err.contains("\\xFF"), "{err}");
    }

    #[test]
    fn threads_flag_is_parsed_in_both_spellings() {
        let a = cli(&["--threads", "4"]).unwrap();
        assert_eq!(a.policy.threads(), 4);
        let b = cli(&["--threads=7"]).unwrap();
        assert_eq!(b.policy.threads(), 7);
    }

    #[test]
    fn bad_or_zero_thread_values_are_rejected_with_a_clear_error() {
        for args in [
            &["--threads", "0"][..],
            &["--threads=junk"][..],
            &["--threads", "-3"][..],
            &["--threads"][..],
        ] {
            let err = cli(args).unwrap_err();
            assert!(err.contains("--threads"), "{err}");
        }
        let err = cli(&["--threads=0"]).unwrap_err();
        assert!(err.contains("positive integer"), "{err}");
    }

    #[test]
    fn absent_flag_defers_to_the_environment() {
        // The test environment does not set CICHAR_THREADS.
        if std::env::var("CICHAR_THREADS").is_err() {
            assert_eq!(Ok(cli(&[]).unwrap().policy), ExecPolicy::from_env());
        }
    }

    #[test]
    fn sites_flag_is_strict_in_both_spellings_and_defaults_to_one() {
        assert_eq!(cli(&[]).unwrap().sites, 1);
        assert_eq!(cli(&["--sites", "4"]).unwrap().sites, 4);
        assert_eq!(cli(&["--threads=2", "--sites=8"]).unwrap().sites, 8);
        for args in [
            &["--sites", "0"][..],
            &["--sites=junk"][..],
            &["--sites", "-2"][..],
            &["--sites"][..],
        ] {
            let err = cli(args).unwrap_err();
            assert!(err.contains("--sites"), "{err}");
        }
    }

    #[test]
    fn dies_flag_is_a_strict_optional_count() {
        assert_eq!(cli(&["--dies", "640"]).unwrap().dies, Some(640));
        assert_eq!(cli(&[]).unwrap().dies, None);
        assert!(cli(&["--dies=0"]).is_err());
    }

    #[test]
    fn robustness_defaults_to_off() {
        let r = cli(&[]).unwrap();
        assert!(r.faults.is_none());
        assert!(r.recovery.is_none());
    }

    #[test]
    fn fault_rate_enables_injection_and_voting_recovery() {
        let r = cli(&["--fault-rate", "0.02"]).unwrap();
        assert!((r.faults.flip_rate() - 0.02).abs() < 1e-12);
        assert!((r.faults.dropout_rate() - 0.01).abs() < 1e-12);
        let policy = r.recovery.expect("faults imply recovery");
        assert_eq!(policy.max_retries(), 4);
        assert_eq!(policy.vote(), Some((2, 3)));
    }

    #[test]
    fn retries_flag_overrides_the_ladder_depth() {
        let r = cli(&["--fault-rate=0.1", "--retries", "9"]).unwrap();
        assert_eq!(r.recovery.expect("recovery on").max_retries(), 9);
        // A retry budget without faults still arms recovery (real testers
        // fault on their own), but without the voting overhead.
        let bare = cli(&["--retries=2"]).unwrap();
        let policy = bare.recovery.expect("recovery armed");
        assert_eq!(policy.max_retries(), 2);
        assert_eq!(policy.vote(), None);
        assert!(bare.faults.is_none());
    }

    #[test]
    fn bad_robustness_values_are_rejected() {
        for args in [
            &["--fault-rate", "1.5"][..],
            &["--fault-rate=nope"][..],
            &["--fault-rate", "-0.1"][..],
            &["--retries", "many"][..],
            &["--retries"][..],
        ] {
            assert!(cli(args).is_err(), "{args:?}");
        }
    }

    #[test]
    fn trace_outputs_parse_both_flags_in_both_spellings() {
        let o = cli(&["--trace", "a.jsonl", "--manifest=b.json"]).unwrap();
        assert_eq!(o.trace.as_deref(), Some(Path::new("a.jsonl")));
        assert_eq!(o.manifest.as_deref(), Some(Path::new("b.json")));
        assert!(o.artifacts());
        let absent = cli(&["--threads", "4"]).unwrap();
        assert_eq!(
            (&absent.trace, &absent.manifest, absent.timings),
            (&None, &None, false)
        );
        assert!(!absent.artifacts());
        assert!(!absent.try_observe("x").unwrap().0.is_enabled());
    }

    #[test]
    fn missing_or_empty_trace_operands_are_rejected() {
        for args in [
            &["--trace"][..],
            &["--manifest"][..],
            &["--trace="][..],
            &["--manifest="][..],
        ] {
            assert!(cli(args).is_err(), "{args:?}");
        }
    }

    #[test]
    fn timings_flag_arms_the_wall_clock_sidecar() {
        use cichar_trace::TraceEvent;
        let o = cli(&["--timings"]).unwrap();
        assert!(o.timings);
        assert!(o.artifacts(), "--timings alone still prints a manifest");
        let (tracer, _) = o.try_observe("x").expect("NullSink needs no path");
        assert!(tracer.is_enabled());
        tracer.phase("dsv");
        let span = tracer.span(0);
        span.emit(TraceEvent::ProbeIssued {
            value: 1.0,
            speculative: false,
        });
        span.mark_done();
        tracer.absorb(span);
        let timings = tracer.timings().expect("sidecar armed");
        assert_eq!(timings.phases[0].phase, "dsv");
        assert_eq!(timings.phases[0].spans, 1);
        // Without the flag there is no sidecar to pay for.
        let plain = cli(&[]).unwrap();
        assert!(!plain.timings);
        assert_eq!(plain.try_observe("x").unwrap().0.timings(), None);
    }

    #[test]
    fn unwritable_destinations_fail_eagerly() {
        let missing = std::env::temp_dir().join("cichar_no_such_dir");
        for (flag, file) in [("--trace", "t.jsonl"), ("--manifest", "m.json")] {
            let path = missing.join(file);
            let o = cli(&[flag, path.to_str().unwrap()]).unwrap();
            let err = o.try_observe("x").map(|_| ()).unwrap_err();
            assert!(err.contains(flag), "{err}");
        }
    }

    #[test]
    fn manifest_only_runs_accumulate_metrics_and_commit() {
        use cichar_trace::TraceEvent;
        let dir = std::env::temp_dir().join("cichar_bench_trace_test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("m.json");
        let _ = std::fs::remove_file(&path);
        let o = cli(&["--manifest", path.to_str().unwrap()]).unwrap();
        let (tracer, _) = o.try_observe("selftest").expect("tmp is writable");
        assert!(tracer.is_enabled());
        let span = tracer.span(0);
        span.emit(TraceEvent::ProbeIssued {
            value: 1.0,
            speculative: false,
        });
        tracer.absorb(span);
        o.commit(&tracer, None, || RunManifest::new("selftest", 1, 1));
        let saved: RunManifest =
            serde_json::from_str(&std::fs::read_to_string(&path).expect("manifest saved"))
                .expect("manifest parses");
        assert_eq!(saved.metrics.probes_issued, 1);
        assert!(
            saved.hardware_threads.is_some(),
            "the epilogue records the host"
        );
    }

    #[test]
    fn wafer_durability_parses_all_flags_in_both_spellings() {
        let d = cli(&[
            "--journal",
            "/tmp/j",
            "--resume",
            "--chunk-timeout-ms=250",
            "--site-fault-threshold",
            "0.25",
        ])
        .unwrap();
        assert_eq!(d.journal.as_deref(), Some(Path::new("/tmp/j")));
        assert!(d.resume);
        assert_eq!(d.chunk_timeout_ms, Some(250));
        assert_eq!(d.site_fault_threshold, Some(0.25));
        let d = cli(&[]).unwrap();
        assert_eq!(
            (
                d.journal,
                d.resume,
                d.chunk_timeout_ms,
                d.site_fault_threshold
            ),
            (None, false, None, None)
        );
    }

    #[test]
    fn wafer_durability_rejects_invalid_values_with_the_flag_name() {
        for (args, needle) in [
            (&["--journal", ""][..], "--journal"),
            (&["--journal"][..], "--journal"),
            (&["--chunk-timeout-ms", "0"][..], "--chunk-timeout-ms"),
            (&["--chunk-timeout-ms=junk"][..], "--chunk-timeout-ms"),
            (&["--site-fault-threshold", "1.5"][..], "(0, 1]"),
            (&["--site-fault-threshold", "0"][..], "(0, 1]"),
            (&["--site-fault-threshold=nan"][..], "(0, 1]"),
            (&["--resume"][..], "--resume requires --journal"),
        ] {
            let err = cli(args).unwrap_err();
            assert!(err.contains(needle), "{args:?} -> {err}");
        }
    }

    #[test]
    fn count_flags_share_one_negative_path() {
        // Every count-style flag is backed by parse_count, so the same
        // bad operands are rejected with the same diagnostic everywhere.
        for raw in ["0", "-3", "junk", "1.5", ""] {
            for flag in [
                "--threads",
                "--sites",
                "--dies",
                "--chunk-timeout-ms",
                "--heartbeat-every",
            ] {
                let err = parse_count(flag, raw).unwrap_err();
                assert!(err.contains(flag), "{flag} {raw:?} -> {err}");
                assert!(err.contains("positive integer"), "{flag} {raw:?} -> {err}");
                let mut args = vec![flag, raw];
                if flag == "--heartbeat-every" {
                    args.extend(["--telemetry", "d"]);
                }
                assert_eq!(cli(&args).unwrap_err(), err, "{args:?}");
            }
        }
        assert_eq!(parse_count("--dies", " 640 ").unwrap(), 640);
    }

    #[test]
    fn rate_flags_share_one_negative_path_with_exact_intervals() {
        for raw in ["1.5", "-0.1", "nan", "inf", "nope", ""] {
            let err = parse_rate("--fault-rate", raw, true, false).unwrap_err();
            assert!(err.contains("[0, 1)"), "{raw:?} -> {err}");
            let err = parse_rate("--site-fault-threshold", raw, false, true).unwrap_err();
            assert!(err.contains("(0, 1]"), "{raw:?} -> {err}");
        }
        // Endpoint admission differs per interval and only per interval.
        assert_eq!(parse_rate("--fault-rate", "0", true, false).unwrap(), 0.0);
        assert!(parse_rate("--fault-rate", "1", true, false).is_err());
        assert!(parse_rate("--site-fault-threshold", "0", false, true).is_err());
        assert_eq!(
            parse_rate("--site-fault-threshold", "1", false, true).unwrap(),
            1.0
        );
    }

    #[test]
    fn device_flag_builds_the_selected_backend() {
        let default = cli(&[]).unwrap();
        assert!(default.default_device);
        assert_eq!(default.device.descriptor(), "memory");
        assert!(cli(&["--device", "memory"]).unwrap().default_device);
        let netlist = cli(&["--device=netlist:levels=10"]).unwrap();
        assert!(!netlist.default_device);
        assert!(netlist.device.descriptor().contains("levels=10"));
        for (args, needle) in [
            (&["--device", "vaporware"][..], "unknown device backend"),
            (&["--device", "netlist:levels=9999"][..], "levels"),
            (&["--device", ""][..], "--device"),
        ] {
            let err = cli(args).unwrap_err();
            assert!(err.contains(needle), "{args:?} -> {err}");
            assert!(
                err.contains("registered device backends"),
                "{args:?} -> {err}"
            );
        }
        assert_eq!(cli(&["--device"]).unwrap_err(), "--device requires a value");
    }

    #[test]
    fn every_flag_given_twice_is_refused_by_name() {
        for (flag, _, operand) in FLAGS {
            let once = match operand {
                "" => flag.to_string(),
                "R" | "X" => format!("{flag}=0.5"),
                "N" => format!("{flag}=1"),
                _ => format!("{flag}=memory"),
            };
            let err = cli(&[&once, &once]).unwrap_err();
            assert_eq!(err, format!("{flag} given more than once"));
        }
        // Both spellings are the same flag.
        let err = cli(&["--threads", "1", "--threads=2"]).unwrap_err();
        assert_eq!(err, "--threads given more than once");
    }

    #[test]
    fn unknown_untaken_and_stray_tokens_are_refused_by_name() {
        let fig1 = [Flags::Threads, Flags::Device];
        for token in [
            "--thraeds",
            "--trace",
            "--trace=x.jsonl",
            "--devise",
            "netlist",
            "-t",
            "--",
            "",
        ] {
            let err = Cli::from_args(&fig1, strings(&[token, "x"])).unwrap_err();
            assert!(
                err.starts_with(&format!("unexpected argument {token:?}")),
                "{err}"
            );
            assert!(
                err.contains("--threads N, --device NAME[:key=val,...]"),
                "{err}"
            );
        }
        assert!(cli(&["--threads", "2", "stray"])
            .unwrap_err()
            .contains("\"stray\""));
        assert_eq!(
            cli(&["--resume=yes", "--journal", "j"]).unwrap_err(),
            "--resume takes no value"
        );
    }

    #[test]
    fn an_operand_is_consumed_once_and_never_read_as_a_flag() {
        let o = cli(&["--trace", "--sites"]).unwrap();
        assert_eq!(o.trace.as_deref(), Some(Path::new("--sites")));
        assert_eq!(o.sites, 1);
        let err = cli(&["--threads", "--sites", "4"]).unwrap_err();
        assert!(err.contains("invalid --threads value \"--sites\""), "{err}");
    }

    /// Feeds `check` every prefix of each of `valid` and every
    /// replacement of one of its characters by one of `alphabet`, on top
    /// of the input itself.
    fn sweep(valid: &[&str], alphabet: &str, check: impl Fn(&str)) {
        for text in valid {
            check(text);
            for (at, _) in text.char_indices() {
                check(&text[..at]);
            }
            for (at, c) in text.char_indices() {
                for sub in alphabet.chars() {
                    let mut mutated = String::with_capacity(text.len() + 4);
                    mutated.push_str(&text[..at]);
                    mutated.push(sub);
                    mutated.push_str(&text[at + c.len_utf8()..]);
                    check(&mutated);
                }
            }
        }
    }

    /// Characters that shift a token's meaning: separators, signs,
    /// exponents, special-value spellings, whitespace and non-ASCII.
    const MUTATIONS: &str = ":,=.+-eE0179aNnifx _\t\u{0}\u{e9}\u{1F600}";

    #[test]
    fn no_prefix_or_substitution_panics_the_device_spec_parser() {
        let valid = [
            "memory",
            "netlist:levels=16,jitter=0.2",
            "logic:depth=12",
            "netlist:levels=1e3,jitter=-0.5,seed=NaN,x=inf",
        ];
        sweep(&valid, MUTATIONS, |raw| {
            let Ok(spec) = raw.parse::<DeviceSpec>() else {
                return;
            };
            let shown = spec.to_string();
            let back: DeviceSpec = shown
                .parse()
                .unwrap_or_else(|e| panic!("{raw:?} displays as {shown:?}, which fails: {e}"));
            assert_eq!(back.name, spec.name, "{raw:?}");
            assert_eq!(back.overrides.len(), spec.overrides.len(), "{raw:?}");
            for ((k, v), (bk, bv)) in spec.overrides.iter().zip(&back.overrides) {
                assert_eq!(bk, k, "{raw:?}");
                assert!(
                    bv == v || (v.is_nan() && bv.is_nan()),
                    "{raw:?}: {v} re-parsed as {bv}"
                );
            }
        });
    }

    #[test]
    fn no_prefix_or_substitution_panics_the_count_and_rate_parsers() {
        let counts = ["1", "8", " 640 ", "18446744073709551615"];
        sweep(&counts, MUTATIONS, |raw| {
            if let Ok(n) = parse_count("--dies", raw) {
                assert!(n > 0, "{raw:?} -> {n}");
                assert_eq!(parse_count("--dies", &n.to_string()), Ok(n), "{raw:?}");
            }
        });
        let rates = ["0", "1", "0.5", "0.02", "1e-3", " 0.25 ", "9.99e-1"];
        let intervals = [(true, false), (false, true), (true, true), (false, false)];
        for (include_zero, include_one) in intervals {
            sweep(&rates, MUTATIONS, |raw| {
                if let Ok(r) = parse_rate("--rate", raw, include_zero, include_one) {
                    assert!(r.is_finite() && (0.0..=1.0).contains(&r), "{raw:?} -> {r}");
                    assert!(include_zero || r > 0.0, "{raw:?} -> {r}");
                    assert!(include_one || r < 1.0, "{raw:?} -> {r}");
                    let again = parse_rate("--rate", &r.to_string(), include_zero, include_one);
                    assert_eq!(again, Ok(r), "{raw:?}");
                }
            });
        }
    }

    /// Each binary's and example's flag groups with its documented
    /// command lines (file headers, README.md, EXPERIMENTS.md, CI).
    fn documented() -> Vec<(&'static str, Vec<Flags>, Vec<&'static str>)> {
        use Flags::*;
        let netlist = "--device netlist";
        let traced = "--trace out.jsonl --manifest out.json";
        let timed = "--manifest out.json --timings";
        vec![
            ("repro_fig1", vec![Threads, Device], vec!["", "--device logic"]),
            (
                "repro_fig2",
                vec![Threads, Faults, TraceOutputs, Sites, Device, Telemetry],
                vec![
                    "",
                    "--threads 4",
                    "--fault-rate 0.02 --retries 4",
                    traced,
                    timed,
                    "--sites 4",
                    "--telemetry tele --heartbeat-every 10",
                    "--device netlist:levels=14",
                    "--device logic --manifest fig2_device.json",
                    "--threads 4 --manifest fig2.json --trace fig2.jsonl",
                    "--trace fig2.jsonl --manifest fig2.json --timings",
                ],
            ),
            (
                "repro_fig3",
                vec![Threads, Faults, TraceOutputs, Device],
                vec!["", "--threads 4", "--fault-rate 0.02", traced, timed, netlist],
            ),
            ("repro_fig6", vec![Threads, Device], vec![""]),
            ("repro_fig7", vec![Threads, Device], vec!["", netlist]),
            ("repro_fig8", vec![Threads, Device], vec!["", "--threads 4", "--device logic"]),
            (
                "repro_table1",
                vec![Threads, Faults, TraceOutputs, Device, Telemetry],
                vec![
                    "",
                    "--threads 4",
                    "--fault-rate 0.02 --retries 4",
                    traced,
                    timed,
                    "--device netlist:levels=14",
                    "--telemetry tele",
                ],
            ),
            ("repro_ablation", vec![Threads, Device], vec!["", "--threads 4", "--device logic"]),
            (
                "repro_wafer",
                ALL.to_vec(),
                vec![
                    "",
                    "--sites 8 --threads 4",
                    "--dies 640 --manifest out.json",
                    "--fault-rate 0.02 --retries 4",
                    "--journal /tmp/j --chunk-timeout-ms 250",
                    "--journal /tmp/j --chunk-timeout-ms 250 --resume",
                    "--device logic:depth=12",
                    "--telemetry tele --heartbeat-every 10",
                    "--journal /tmp/lot7 --dies 2000",
                    "--journal /tmp/lot7 --dies 2000 --resume",
                    "--journal /tmp/lot8 --dies 2000 --chunk-timeout-ms 250 --site-fault-threshold 0.25",
                    "--journal /tmp/lot8 --dies 2000 --resume --chunk-timeout-ms 250 --site-fault-threshold 0.25",
                    "--threads 8 --sites 4 --journal /tmp/lot7 --telemetry /tmp/lot7_tele --heartbeat-every 10",
                    "--threads 2 --sites 4 --trace t.jsonl --telemetry tele --manifest m.json",
                    "--threads 2 --sites 4 --journal wafer_journal --resume --manifest wafer_resumed.json",
                ],
            ),
            (
                "quickstart",
                vec![Device],
                vec!["", netlist, "--device netlist:levels=14,jitter=0.2"],
            ),
            ("multi_trip_point", vec![Device], vec!["", netlist]),
            ("shmoo_plot", vec![Device], vec!["", netlist]),
            ("frequency_characterization", vec![Device], vec!["", netlist]),
            ("production_screen", vec![Device], vec!["", netlist]),
            ("lot_characterization", vec![Threads, Device], vec!["", "--threads 4", netlist]),
            (
                "multi_param_campaign",
                vec![Threads, TraceOutputs, Device],
                vec!["", "--threads 4", "--trace campaign.jsonl --manifest campaign.json", netlist],
            ),
            (
                "worst_case_hunt",
                vec![Threads, Faults, TraceOutputs, Device],
                vec!["", "--fault-rate 0.02", "--trace hunt.jsonl --manifest hunt.json --timings", netlist],
            ),
        ]
    }

    /// Substitute tokens besides the bare flags: inline operands, bad and
    /// extreme operands, separators and non-ASCII.
    const TOKENS: [&str; 24] = [
        "",
        "-",
        "--",
        "=",
        "--=",
        "0",
        "-1",
        "1.5",
        "nan",
        "1e999",
        "18446744073709551616",
        "x",
        "\u{e9}",
        "\u{0}",
        "--threads=",
        "--device=",
        "netlist:levels=",
        "memory:x=1",
        "--resume=1",
        "--sites=0",
        "--fault-rate=1",
        "--site-fault-threshold=0",
        "--heartbeat-every=5",
        "--dies",
    ];

    #[test]
    fn documented_command_lines_parse_and_no_prefix_or_substitution_panics() {
        for (binary, groups, lines) in documented() {
            for line in lines {
                let tokens: Vec<&str> = line.split_whitespace().collect();
                let parse = |args: &[&str]| Cli::from_args(&groups, strings(args));
                assert!(
                    parse(&tokens).is_ok(),
                    "{binary} {line}: {:?}",
                    parse(&tokens).err()
                );
                for end in 0..tokens.len() {
                    let _ = parse(&tokens[..end]);
                }
                let flags = FLAGS.iter().map(|(flag, ..)| *flag);
                for at in 0..tokens.len() {
                    for sub in TOKENS.into_iter().chain(flags.clone()) {
                        let mut mutated = tokens.clone();
                        mutated[at] = sub;
                        let _ = parse(&mutated);
                    }
                }
            }
        }
    }

    #[test]
    fn telemetry_setup_parses_both_flags_in_both_spellings() {
        let t = cli(&["--telemetry", "tele", "--heartbeat-every=10"]).unwrap();
        assert_eq!(t.telemetry.as_deref(), Some(Path::new("tele")));
        assert_eq!(t.heartbeat_every_ms, Some(10));
        let absent = cli(&["--threads", "4"]).unwrap();
        assert_eq!(
            (&absent.telemetry, absent.heartbeat_every_ms),
            (&None, None)
        );
        assert!(!absent.try_observe("x").unwrap().1.is_enabled());
    }

    #[test]
    fn telemetry_setup_rejects_invalid_values_with_the_flag_name() {
        for (args, needle) in [
            (&["--telemetry", ""][..], "--telemetry"),
            (&["--telemetry"][..], "--telemetry"),
            (
                &["--telemetry=d", "--heartbeat-every", "0"][..],
                "--heartbeat-every",
            ),
            (
                &["--telemetry=d", "--heartbeat-every=junk"][..],
                "--heartbeat-every",
            ),
            (&["--heartbeat-every", "5"][..], "requires --telemetry"),
        ] {
            let err = cli(args).unwrap_err();
            assert!(err.contains(needle), "{args:?} -> {err}");
        }
    }

    #[test]
    fn telemetry_without_trace_outputs_forces_an_enabled_tracer() {
        let dir = std::env::temp_dir().join(format!("cichar_bench_forced_{}", std::process::id()));
        let dir = dir.to_str().unwrap();
        // Without telemetry the tracer stays disabled (zero overhead)...
        assert!(!cli(&[]).unwrap().try_observe("x").unwrap().0.is_enabled());
        // ...but an armed telemetry dir needs a live metrics registry.
        let (tracer, _) = cli(&["--telemetry", dir])
            .unwrap()
            .try_observe("x")
            .unwrap();
        assert!(tracer.is_enabled());
        // When a trace output exists already, that tracer is reused as-is.
        let (tracer, _) = cli(&["--telemetry", dir, "--timings"])
            .unwrap()
            .try_observe("x")
            .unwrap();
        assert!(tracer.timings().is_some());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn telemetry_build_writes_the_sidecars_into_the_directory() {
        use cichar_trace::{HEARTBEAT_FILE, METRICS_FILE};
        let dir = std::env::temp_dir().join(format!("cichar_bench_tele_{}", std::process::id()));
        let t = cli(&[
            "--telemetry",
            dir.to_str().unwrap(),
            "--heartbeat-every",
            "5",
        ])
        .unwrap();
        let (_, telemetry) = t.try_observe("selftest").expect("tmp is writable");
        assert!(telemetry.is_enabled());
        telemetry.tick(|| cichar_trace::Progress::units("selftest", 6_000, 1, 2));
        let health = t.finish(&telemetry).expect("enabled");
        assert!(health.heartbeats >= 1);
        assert!(dir.join(HEARTBEAT_FILE).exists());
        assert!(dir.join(METRICS_FILE).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn full_scale_is_larger_everywhere() {
        let q = Scale::Quick.compare_config();
        let f = Scale::Full.compare_config();
        assert!(f.random_tests > q.random_tests);
        assert!(f.learning.tests_per_round > q.learning.tests_per_round);
        assert!(f.optimization.ga.generations > q.optimization.ga.generations);
        assert_eq!(Scale::Full.random_tests(), 1000, "the paper's 1000 tests");
    }
}
