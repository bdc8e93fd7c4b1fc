//! Shared scaffolding for the reproduction binaries and benches.
//!
//! Every `repro_*` binary regenerates one table or figure of the paper
//! (see `DESIGN.md` §5 and `EXPERIMENTS.md`). Budgets follow the
//! `CICHAR_SCALE` environment variable: `quick` (default — seconds) or
//! `full` (minutes, closer to the paper's measurement counts).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cichar_ate::TesterFaultModel;
use cichar_core::compare::{quick_config, CompareConfig};
use cichar_core::learning::LearningConfig;
use cichar_core::optimization::OptimizationConfig;
use cichar_dut::{Device, DeviceSpec, Registry};
use cichar_exec::ExecPolicy;
use cichar_genetic::GaConfig;
use cichar_neural::TrainConfig;
use cichar_search::RetryPolicy;
use cichar_trace::{
    ensure_writable, AlarmRule, JsonlSink, NullSink, RunManifest, Telemetry, Tracer,
    DEFAULT_HEARTBEAT_EVERY_MS,
};
use std::path::PathBuf;
use std::sync::Arc;

/// Shared strict parser for positive-integer operands. Every count-style
/// flag (`--threads`, `--sites`, `--dies`, `--chunk-timeout-ms`,
/// `--heartbeat-every`) routes through this one implementation, so they
/// all reject `0`, negatives, and junk with the same diagnostic shape.
pub fn parse_count(flag: &str, raw: &str) -> Result<u64, String> {
    match raw.trim().parse::<u64>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!(
            "invalid {flag} value {raw:?}: expected a positive integer"
        )),
    }
}

/// Shared strict parser for rate-style operands on the unit interval.
/// The two booleans select which endpoint is admitted, so
/// `--fault-rate` (`[0, 1)`) and `--site-fault-threshold` (`(0, 1]`)
/// share one implementation; the diagnostic renders the exact interval.
pub fn parse_rate(flag: &str, raw: &str, include_zero: bool, include_one: bool) -> Result<f64, String> {
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

/// Execution policy for a repro binary: `--threads N` from the command
/// line when given, otherwise `CICHAR_THREADS`, otherwise the machine's
/// available parallelism.
///
/// A present-but-invalid `--threads` value (zero, negative, or
/// non-numeric) is a usage error: the binary prints a diagnostic to
/// stderr and exits with status 2 rather than silently running at an
/// unrequested width.
pub fn thread_policy() -> ExecPolicy {
    thread_policy_from(std::env::args().skip(1)).unwrap_or_else(|err| usage_error(&err))
}

/// [`thread_policy`] over an explicit argument list (testable).
///
/// Accepts `--threads N` and `--threads=N`. An absent flag defers to
/// [`ExecPolicy::from_env`]; `0`, a non-numeric value, or a missing
/// operand is rejected with a descriptive error.
pub fn thread_policy_from<I>(args: I) -> Result<ExecPolicy, String>
where
    I: IntoIterator<Item = String>,
{
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if let Some(raw) = flag_value("--threads", &arg, &mut args)? {
            return parse_count("--threads", &raw).map(|n| ExecPolicy::with_threads(n as usize));
        }
    }
    Ok(ExecPolicy::from_env())
}

/// Fault-injection and recovery settings for a repro binary, from
/// `--fault-rate R` and `--retries N`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Robustness {
    /// The tester fault model: transient flips at the requested rate and
    /// dropouts at half of it ([`TesterFaultModel::none`] at rate 0).
    pub faults: TesterFaultModel,
    /// The recovery policy, `None` when no faults are injected and no
    /// retry budget was requested.
    pub recovery: Option<RetryPolicy>,
}

impl Robustness {
    /// No injected faults, no recovery — the historical behaviour of
    /// every repro binary.
    pub fn off() -> Self {
        Robustness {
            faults: TesterFaultModel::none(),
            recovery: None,
        }
    }
}

/// Robustness settings for a repro binary: `--fault-rate R` injects
/// transient verdict flips at rate `R` and probe-contact dropouts at
/// `R/2`; `--retries N` bounds the recovery ladder (default 4 when
/// faults are on). Any nonzero fault rate also enables 2-of-3
/// majority-vote strobes. Exits with status 2 on an invalid value.
pub fn robustness() -> Robustness {
    robustness_from(std::env::args().skip(1)).unwrap_or_else(|err| usage_error(&err))
}

/// [`robustness`] over an explicit argument list (testable).
pub fn robustness_from<I>(args: I) -> Result<Robustness, String>
where
    I: IntoIterator<Item = String>,
{
    let mut fault_rate = 0.0f64;
    let mut retries: Option<usize> = None;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if let Some(raw) = flag_value("--fault-rate", &arg, &mut args)? {
            fault_rate = parse_rate("--fault-rate", &raw, true, false)?;
        } else if let Some(raw) = flag_value("--retries", &arg, &mut args)? {
            retries = match raw.trim().parse::<usize>() {
                Ok(n) => Some(n),
                Err(_) => {
                    return Err(format!(
                        "invalid --retries value {raw:?}: expected a non-negative integer"
                    ))
                }
            };
        }
    }
    let faults = if fault_rate > 0.0 {
        TesterFaultModel::transient(fault_rate, fault_rate / 2.0)
    } else {
        TesterFaultModel::none()
    };
    let recovery = match (fault_rate > 0.0, retries) {
        (false, None) => None,
        (injecting, budget) => {
            let policy = RetryPolicy::new(budget.unwrap_or(4), 50.0);
            Some(if injecting { policy.with_vote(2, 3) } else { policy })
        }
    };
    Ok(Robustness { faults, recovery })
}

/// Touchdown width for a repro binary: `--sites N`, defaulting to 1 —
/// the historical single-site behaviour. Exits with status 2 on an
/// invalid value.
pub fn site_count() -> usize {
    site_count_from(std::env::args().skip(1)).unwrap_or_else(|err| usage_error(&err))
}

/// [`site_count`] over an explicit argument list (testable).
pub fn site_count_from<I>(args: I) -> Result<usize, String>
where
    I: IntoIterator<Item = String>,
{
    Ok(positive_count_from(args, "--sites")?.unwrap_or(1))
}

/// Shared strict parser for `FLAG N` positive-integer operands — one
/// implementation behind `--sites` (and any future count-style flag), so
/// every binary rejects `0`, junk, and missing operands with the same
/// diagnostic instead of growing its own copy of the loop.
pub fn positive_count_from<I>(args: I, flag: &str) -> Result<Option<usize>, String>
where
    I: IntoIterator<Item = String>,
{
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if let Some(raw) = flag_value(flag, &arg, &mut args)? {
            return parse_count(flag, &raw).map(|n| Some(n as usize));
        }
    }
    Ok(None)
}

/// Extracts the operand of `flag` from `arg` (either `flag=value` or
/// `flag` followed by the next argument). `Ok(None)` when `arg` is not
/// this flag; an error when the operand is missing.
fn flag_value<I>(flag: &str, arg: &str, rest: &mut I) -> Result<Option<String>, String>
where
    I: Iterator<Item = String>,
{
    if let Some(v) = arg.strip_prefix(flag) {
        if let Some(v) = v.strip_prefix('=') {
            return Ok(Some(v.to_string()));
        }
        if v.is_empty() {
            return match rest.next() {
                Some(v) => Ok(Some(v)),
                None => Err(format!("{flag} requires a value")),
            };
        }
    }
    Ok(None)
}

fn usage_error(err: &str) -> ! {
    eprintln!("error: {err}");
    std::process::exit(2);
}

/// The device backend a repro binary characterizes: the parsed spec plus
/// the constructed prototype device.
#[derive(Debug, Clone)]
pub struct DeviceSelection {
    /// The parsed `--device` spec (default: `memory`, no overrides).
    pub spec: DeviceSpec,
    /// The prototype device built from the spec on the nominal die.
    pub device: Device,
}

impl DeviceSelection {
    /// Whether this is the default selection. Repro binaries omit device
    /// metadata from manifests on the default path, keeping default
    /// artifacts byte-identical to the pre-registry engine.
    pub fn is_default(&self) -> bool {
        self.spec.is_default()
    }

    /// Canonical `name[:key=val,...]` of the effective device.
    pub fn descriptor(&self) -> String {
        self.device.descriptor()
    }

    /// Samples `count` dies through the selected backend's process model
    /// (per-die seeds derive from `lot_seed` and the die index).
    pub fn sample_dies(&self, lot_seed: u64, count: usize) -> Vec<cichar_dut::Die> {
        self.device.sample_dies(lot_seed, count)
    }
}

/// Device backend for a repro binary: strict `--device NAME[:key=val,...]`,
/// defaulting to the calibrated `memory` backend. An unknown backend,
/// unknown parameter, out-of-range value or malformed `key=val` exits
/// with status 2 and prints the full registry listing.
pub fn device_selection() -> DeviceSelection {
    device_selection_from(std::env::args().skip(1)).unwrap_or_else(|err| usage_error(&err))
}

/// [`device_selection`] over an explicit argument list (testable).
pub fn device_selection_from<I>(args: I) -> Result<DeviceSelection, String>
where
    I: IntoIterator<Item = String>,
{
    let mut args = args.into_iter();
    let mut spec = DeviceSpec::default_backend();
    while let Some(arg) = args.next() {
        if let Some(raw) = flag_value("--device", &arg, &mut args)? {
            spec = raw
                .trim()
                .parse()
                .map_err(|err| format!("invalid --device value {raw:?}: {err}\n{}", Registry::builtin().listing()))?;
        }
    }
    let device = Registry::builtin()
        .create_from_spec(&spec)
        .map_err(|err| format!("invalid --device value: {err}\n{}", Registry::builtin().listing()))?;
    Ok(DeviceSelection { spec, device })
}

/// Durability knobs of a wafer campaign, parsed from the CLI:
/// `--journal DIR` arms chunk-granular crash checkpoints, `--resume`
/// replays an interrupted journal instead of starting over,
/// `--chunk-timeout-ms N` arms the stall watchdog (simulated
/// milliseconds per site-touchdown), and `--site-fault-threshold X`
/// arms the site health circuit breaker.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WaferDurability {
    /// Journal directory (`--journal DIR`); `None` runs unjournaled.
    pub journal: Option<PathBuf>,
    /// Whether to resume the journal rather than start fresh (`--resume`).
    pub resume: bool,
    /// Stall-watchdog budget (`--chunk-timeout-ms N`).
    pub chunk_timeout_ms: Option<u64>,
    /// Breaker threshold in `(0, 1]` (`--site-fault-threshold X`).
    pub site_fault_threshold: Option<f64>,
}

/// [`wafer_durability_from`] over the process arguments, exiting with
/// status 2 on an invalid flag (matching every other strict repro flag).
pub fn wafer_durability() -> WaferDurability {
    wafer_durability_from(std::env::args().skip(1)).unwrap_or_else(|err| usage_error(&err))
}

/// Strict parser for the wafer durability flags (testable). Rejects
/// empty journal paths, non-positive timeouts, thresholds outside
/// `(0, 1]`, and `--resume` without `--journal`.
pub fn wafer_durability_from<I>(args: I) -> Result<WaferDurability, String>
where
    I: IntoIterator<Item = String>,
{
    let mut durability = WaferDurability::default();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if let Some(dir) = flag_value("--journal", &arg, &mut args)? {
            if dir.trim().is_empty() {
                return Err(format!(
                    "invalid --journal value {dir:?}: expected a directory path"
                ));
            }
            durability.journal = Some(PathBuf::from(dir));
        } else if arg == "--resume" {
            durability.resume = true;
        } else if let Some(raw) = flag_value("--chunk-timeout-ms", &arg, &mut args)? {
            durability.chunk_timeout_ms = Some(parse_count("--chunk-timeout-ms", &raw)?);
        } else if let Some(raw) = flag_value("--site-fault-threshold", &arg, &mut args)? {
            durability.site_fault_threshold =
                Some(parse_rate("--site-fault-threshold", &raw, false, true)?);
        }
    }
    if durability.resume && durability.journal.is_none() {
        return Err(String::from(
            "--resume requires --journal DIR (there is no journal to resume without one)",
        ));
    }
    Ok(durability)
}

/// Observability destinations for a repro binary: `--trace out.jsonl`
/// streams the structured event log, `--manifest out.json` saves the
/// [`RunManifest`] artifact, and `--timings` arms the wall-clock span
/// timing sidecar (reported in the manifest's `timings` section).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceOutputs {
    /// JSONL event-stream destination, when `--trace PATH` was given.
    pub trace: Option<PathBuf>,
    /// Run-manifest destination, when `--manifest PATH` was given.
    pub manifest: Option<PathBuf>,
    /// Whether `--timings` armed the wall-clock timing sidecar.
    pub timings: bool,
}

impl TraceOutputs {
    /// Whether any observability output was requested.
    pub fn enabled(&self) -> bool {
        self.trace.is_some() || self.manifest.is_some() || self.timings
    }

    /// Builds the tracer for this run, validating every destination
    /// eagerly: an unwritable `--trace` or `--manifest` path is a usage
    /// error (status 2) *before* any measurement happens, not after.
    pub fn tracer(&self) -> Tracer {
        self.build_tracer().unwrap_or_else(|err| usage_error(&err))
    }

    /// [`TraceOutputs::tracer`] with errors returned (testable).
    ///
    /// The tracer is backed by a [`JsonlSink`] when `--trace` was given,
    /// a [`NullSink`] when only `--manifest` / `--timings` were (metrics
    /// and phases are still accumulated), and is disabled entirely
    /// otherwise. With `--timings`, the returned tracer carries the
    /// wall-clock timing sidecar — the event stream itself is unaffected.
    pub fn build_tracer(&self) -> Result<Tracer, String> {
        if let Some(path) = &self.manifest {
            ensure_writable(path).map_err(|e| {
                format!("cannot write --manifest destination {}: {e}", path.display())
            })?;
        }
        let sink: Arc<dyn cichar_trace::TraceSink> = match &self.trace {
            Some(path) => Arc::new(JsonlSink::create(path).map_err(|e| {
                format!("cannot write --trace destination {}: {e}", path.display())
            })?),
            None if self.manifest.is_some() || self.timings => Arc::new(NullSink),
            None => return Ok(Tracer::disabled()),
        };
        if self.timings {
            Ok(Tracer::timed(sink))
        } else {
            Ok(Tracer::new(sink))
        }
    }

    /// Commits the run's artifacts: closes the trace stream (the JSONL
    /// file appears atomically) and saves the manifest through
    /// `cichar_core::db::save_artifact` (also atomic). Called once, after
    /// the campaign finished.
    pub fn commit(&self, tracer: &Tracer, manifest: &RunManifest) -> Result<(), String> {
        tracer
            .finish()
            .map_err(|e| format!("failed to commit trace stream: {e}"))?;
        if let Some(path) = &self.manifest {
            cichar_core::db::save_artifact(manifest, path)
                .map_err(|e| format!("failed to save manifest {}: {e}", path.display()))?;
        }
        Ok(())
    }
}

/// Observability destinations from the command line (`--trace PATH`,
/// `--manifest PATH`, `--timings`). Exits with status 2 on a missing
/// operand.
pub fn trace_outputs() -> TraceOutputs {
    trace_outputs_from(std::env::args().skip(1)).unwrap_or_else(|err| usage_error(&err))
}

/// [`trace_outputs`] over an explicit argument list (testable).
pub fn trace_outputs_from<I>(args: I) -> Result<TraceOutputs, String>
where
    I: IntoIterator<Item = String>,
{
    let mut outputs = TraceOutputs::default();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if let Some(raw) = flag_value("--trace", &arg, &mut args)? {
            if raw.trim().is_empty() {
                return Err(String::from("--trace requires a non-empty path"));
            }
            outputs.trace = Some(PathBuf::from(raw));
        } else if let Some(raw) = flag_value("--manifest", &arg, &mut args)? {
            if raw.trim().is_empty() {
                return Err(String::from("--manifest requires a non-empty path"));
            }
            outputs.manifest = Some(PathBuf::from(raw));
        } else if arg == "--timings" {
            outputs.timings = true;
        }
    }
    Ok(outputs)
}

/// Live-telemetry destination for a repro binary: `--telemetry DIR`
/// arms the deterministic heartbeat stream (`heartbeat.jsonl`) and
/// OpenMetrics textfile (`metrics.prom`) inside `DIR`;
/// `--heartbeat-every N` tunes the cadence in **simulated**
/// milliseconds (default [`DEFAULT_HEARTBEAT_EVERY_MS`]). Everything
/// telemetry writes stays outside the golden normalized event stream.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TelemetrySetup {
    /// Telemetry directory (`--telemetry DIR`); `None` disables.
    pub dir: Option<PathBuf>,
    /// Heartbeat cadence override in simulated ms (`--heartbeat-every N`).
    pub heartbeat_every_ms: Option<u64>,
}

impl TelemetrySetup {
    /// Whether `--telemetry` armed the sidecars.
    pub fn enabled(&self) -> bool {
        self.dir.is_some()
    }

    /// The tracer a telemetry-armed run should observe. Heartbeats read
    /// the tracer's metrics registry, and a disabled tracer has none —
    /// so when telemetry is on but no `--trace`/`--manifest`/`--timings`
    /// output was requested, this substitutes a [`NullSink`]-backed
    /// enabled tracer (metrics accumulate, no event stream is written).
    pub fn tracer_for(&self, outputs: &TraceOutputs) -> Result<Tracer, String> {
        let tracer = outputs.build_tracer()?;
        if self.enabled() && !tracer.is_enabled() {
            return Ok(Tracer::new(Arc::new(NullSink)));
        }
        Ok(tracer)
    }

    /// Builds the live [`Telemetry`] handle for `campaign`, observing
    /// `tracer` (use [`TelemetrySetup::tracer_for`] to obtain one that
    /// is guaranteed enabled). Disabled setups cost nothing.
    pub fn build(&self, campaign: &str, tracer: &Tracer) -> Result<Telemetry, String> {
        match &self.dir {
            None => Ok(Telemetry::disabled()),
            Some(dir) => Telemetry::create_with(
                dir,
                campaign,
                tracer.clone(),
                self.heartbeat_every_ms.unwrap_or(DEFAULT_HEARTBEAT_EVERY_MS),
                AlarmRule::default_set(),
            )
            .map_err(|e| format!("cannot write --telemetry directory {}: {e}", dir.display())),
        }
    }
}

/// Telemetry destination from the command line (`--telemetry DIR`,
/// `--heartbeat-every N`). Exits with status 2 on an invalid value.
pub fn telemetry_setup() -> TelemetrySetup {
    telemetry_setup_from(std::env::args().skip(1)).unwrap_or_else(|err| usage_error(&err))
}

/// [`telemetry_setup`] over an explicit argument list (testable).
/// Rejects empty directories, non-positive cadences, and
/// `--heartbeat-every` without `--telemetry` (there would be nothing to
/// beat into).
pub fn telemetry_setup_from<I>(args: I) -> Result<TelemetrySetup, String>
where
    I: IntoIterator<Item = String>,
{
    let mut setup = TelemetrySetup::default();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if let Some(dir) = flag_value("--telemetry", &arg, &mut args)? {
            if dir.trim().is_empty() {
                return Err(format!(
                    "invalid --telemetry value {dir:?}: expected a directory path"
                ));
            }
            setup.dir = Some(PathBuf::from(dir));
        } else if let Some(raw) = flag_value("--heartbeat-every", &arg, &mut args)? {
            setup.heartbeat_every_ms = Some(parse_count("--heartbeat-every", &raw)?);
        }
    }
    if setup.heartbeat_every_ms.is_some() && setup.dir.is_none() {
        return Err(String::from(
            "--heartbeat-every requires --telemetry DIR (there is no heartbeat stream without one)",
        ));
    }
    Ok(setup)
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
    /// Reads `CICHAR_SCALE` (`quick` unless set to `full`).
    pub fn from_env() -> Self {
        match std::env::var("CICHAR_SCALE").as_deref() {
            Ok("full") => Scale::Full,
            _ => Scale::Quick,
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

    #[test]
    fn default_scale_is_quick() {
        // The test environment does not set CICHAR_SCALE=full.
        if std::env::var("CICHAR_SCALE").is_err() {
            assert_eq!(Scale::from_env(), Scale::Quick);
        }
    }

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn threads_flag_is_parsed_in_both_spellings() {
        let a = thread_policy_from(strings(&["--threads", "4"])).unwrap();
        assert_eq!(a.threads(), 4);
        let b = thread_policy_from(strings(&["--scale", "full", "--threads=7"])).unwrap();
        assert_eq!(b.threads(), 7);
    }

    #[test]
    fn bad_or_zero_thread_values_are_rejected_with_a_clear_error() {
        for args in [
            &["--threads", "0"][..],
            &["--threads=junk"][..],
            &["--threads", "-3"][..],
            &["--threads"][..],
        ] {
            let err = thread_policy_from(strings(args)).unwrap_err();
            assert!(err.contains("--threads"), "{err}");
        }
        let err = thread_policy_from(strings(&["--threads=0"])).unwrap_err();
        assert!(err.contains("positive integer"), "{err}");
    }

    #[test]
    fn absent_flag_defers_to_the_environment() {
        // The test environment does not set CICHAR_THREADS.
        if std::env::var("CICHAR_THREADS").is_err() {
            assert_eq!(
                thread_policy_from(strings(&[])).unwrap(),
                ExecPolicy::from_env()
            );
        }
    }

    #[test]
    fn sites_flag_is_strict_in_both_spellings_and_defaults_to_one() {
        assert_eq!(site_count_from(strings(&[])).unwrap(), 1);
        assert_eq!(site_count_from(strings(&["--sites", "4"])).unwrap(), 4);
        assert_eq!(site_count_from(strings(&["--threads=2", "--sites=8"])).unwrap(), 8);
        for args in [
            &["--sites", "0"][..],
            &["--sites=junk"][..],
            &["--sites", "-2"][..],
            &["--sites"][..],
        ] {
            let err = site_count_from(strings(args)).unwrap_err();
            assert!(err.contains("--sites"), "{err}");
        }
    }

    #[test]
    fn positive_count_parser_is_reusable_for_other_flags() {
        let dies = positive_count_from(strings(&["--dies", "640"]), "--dies").unwrap();
        assert_eq!(dies, Some(640));
        assert_eq!(positive_count_from(strings(&[]), "--dies").unwrap(), None);
        assert!(positive_count_from(strings(&["--dies=0"]), "--dies").is_err());
    }

    #[test]
    fn robustness_defaults_to_off() {
        let r = robustness_from(strings(&[])).unwrap();
        assert_eq!(r, Robustness::off());
        assert!(r.faults.is_none());
        assert!(r.recovery.is_none());
    }

    #[test]
    fn fault_rate_enables_injection_and_voting_recovery() {
        let r = robustness_from(strings(&["--fault-rate", "0.02"])).unwrap();
        assert!((r.faults.flip_rate() - 0.02).abs() < 1e-12);
        assert!((r.faults.dropout_rate() - 0.01).abs() < 1e-12);
        let policy = r.recovery.expect("faults imply recovery");
        assert_eq!(policy.max_retries(), 4);
        assert_eq!(policy.vote(), Some((2, 3)));
    }

    #[test]
    fn retries_flag_overrides_the_ladder_depth() {
        let r = robustness_from(strings(&["--fault-rate=0.1", "--retries", "9"])).unwrap();
        assert_eq!(r.recovery.expect("recovery on").max_retries(), 9);
        // A retry budget without faults still arms recovery (real testers
        // fault on their own), but without the voting overhead.
        let bare = robustness_from(strings(&["--retries=2"])).unwrap();
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
            assert!(robustness_from(strings(args)).is_err(), "{args:?}");
        }
    }

    #[test]
    fn trace_outputs_parse_both_flags_in_both_spellings() {
        let o = trace_outputs_from(strings(&["--trace", "a.jsonl", "--manifest=b.json"])).unwrap();
        assert_eq!(o.trace.as_deref(), Some(std::path::Path::new("a.jsonl")));
        assert_eq!(o.manifest.as_deref(), Some(std::path::Path::new("b.json")));
        assert!(o.enabled());
        let absent = trace_outputs_from(strings(&["--threads", "4"])).unwrap();
        assert_eq!(absent, TraceOutputs::default());
        assert!(!absent.enabled());
        assert!(!absent.build_tracer().unwrap().is_enabled());
    }

    #[test]
    fn missing_or_empty_trace_operands_are_rejected() {
        for args in [
            &["--trace"][..],
            &["--manifest"][..],
            &["--trace="][..],
            &["--manifest="][..],
        ] {
            assert!(trace_outputs_from(strings(args)).is_err(), "{args:?}");
        }
    }

    #[test]
    fn timings_flag_arms_the_wall_clock_sidecar() {
        use cichar_trace::TraceEvent;
        let o = trace_outputs_from(strings(&["--timings"])).unwrap();
        assert!(o.timings);
        assert!(o.enabled(), "--timings alone still prints a manifest");
        let tracer = o.build_tracer().expect("NullSink needs no path");
        assert!(tracer.is_enabled());
        tracer.phase("dsv");
        let span = tracer.span(0);
        span.emit(TraceEvent::ProbeIssued { value: 1.0, speculative: false });
        span.mark_done();
        tracer.absorb(span);
        let timings = tracer.timings().expect("sidecar armed");
        assert_eq!(timings.phases[0].phase, "dsv");
        assert_eq!(timings.phases[0].spans, 1);
        // Without the flag there is no sidecar to pay for.
        let plain = trace_outputs_from(strings(&[])).unwrap();
        assert!(!plain.timings);
        assert_eq!(plain.build_tracer().unwrap().timings(), None);
    }

    #[test]
    fn unwritable_destinations_fail_eagerly() {
        let missing = std::env::temp_dir().join("cichar_no_such_dir");
        let o = TraceOutputs {
            trace: Some(missing.join("t.jsonl")),
            ..TraceOutputs::default()
        };
        let err = o.build_tracer().unwrap_err();
        assert!(err.contains("--trace"), "{err}");
        let o = TraceOutputs {
            manifest: Some(missing.join("m.json")),
            ..TraceOutputs::default()
        };
        let err = o.build_tracer().unwrap_err();
        assert!(err.contains("--manifest"), "{err}");
    }

    #[test]
    fn manifest_only_runs_accumulate_metrics_and_commit() {
        use cichar_trace::TraceEvent;
        let dir = std::env::temp_dir().join("cichar_bench_trace_test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let o = TraceOutputs {
            manifest: Some(dir.join("m.json")),
            ..TraceOutputs::default()
        };
        let tracer = o.build_tracer().expect("tmp is writable");
        assert!(tracer.is_enabled());
        let span = tracer.span(0);
        span.emit(TraceEvent::ProbeIssued { value: 1.0, speculative: false });
        tracer.absorb(span);
        let manifest = RunManifest::new("selftest", 1, 1).capture(&tracer);
        assert_eq!(manifest.metrics.probes_issued, 1);
        o.commit(&tracer, &manifest).expect("commit succeeds");
        assert!(dir.join("m.json").exists());
    }

    #[test]
    fn wafer_durability_parses_all_flags_in_both_spellings() {
        let d = wafer_durability_from(strings(&[
            "--journal",
            "/tmp/j",
            "--resume",
            "--chunk-timeout-ms=250",
            "--site-fault-threshold",
            "0.25",
        ]))
        .unwrap();
        assert_eq!(d.journal.as_deref(), Some(std::path::Path::new("/tmp/j")));
        assert!(d.resume);
        assert_eq!(d.chunk_timeout_ms, Some(250));
        assert_eq!(d.site_fault_threshold, Some(0.25));
        assert_eq!(wafer_durability_from(strings(&[])).unwrap(), WaferDurability::default());
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
            let err = wafer_durability_from(strings(args)).unwrap_err();
            assert!(err.contains(needle), "{args:?} -> {err}");
        }
    }

    #[test]
    fn count_flags_share_one_negative_path() {
        // Every count-style flag is backed by parse_count, so the same
        // bad operands are rejected with the same diagnostic everywhere.
        for raw in ["0", "-3", "junk", "1.5", ""] {
            for flag in ["--threads", "--sites", "--dies", "--chunk-timeout-ms", "--heartbeat-every"] {
                let err = parse_count(flag, raw).unwrap_err();
                assert!(err.contains(flag), "{flag} {raw:?} -> {err}");
                assert!(err.contains("positive integer"), "{flag} {raw:?} -> {err}");
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
        assert_eq!(parse_rate("--site-fault-threshold", "1", false, true).unwrap(), 1.0);
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
                assert!(bv == v || (v.is_nan() && bv.is_nan()), "{raw:?}: {v} re-parsed as {bv}");
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

    #[test]
    fn telemetry_setup_parses_both_flags_in_both_spellings() {
        let t = telemetry_setup_from(strings(&["--telemetry", "tele", "--heartbeat-every=10"]))
            .unwrap();
        assert_eq!(t.dir.as_deref(), Some(std::path::Path::new("tele")));
        assert_eq!(t.heartbeat_every_ms, Some(10));
        assert!(t.enabled());
        let absent = telemetry_setup_from(strings(&["--threads", "4"])).unwrap();
        assert_eq!(absent, TelemetrySetup::default());
        assert!(!absent.enabled());
        assert!(!absent.build("x", &Tracer::disabled()).unwrap().is_enabled());
    }

    #[test]
    fn telemetry_setup_rejects_invalid_values_with_the_flag_name() {
        for (args, needle) in [
            (&["--telemetry", ""][..], "--telemetry"),
            (&["--telemetry"][..], "--telemetry"),
            (&["--telemetry=d", "--heartbeat-every", "0"][..], "--heartbeat-every"),
            (&["--telemetry=d", "--heartbeat-every=junk"][..], "--heartbeat-every"),
            (&["--heartbeat-every", "5"][..], "requires --telemetry"),
        ] {
            let err = telemetry_setup_from(strings(args)).unwrap_err();
            assert!(err.contains(needle), "{args:?} -> {err}");
        }
    }

    #[test]
    fn telemetry_without_trace_outputs_forces_an_enabled_tracer() {
        let t = telemetry_setup_from(strings(&["--telemetry", "tele"])).unwrap();
        let outputs = TraceOutputs::default();
        // Without telemetry the tracer stays disabled (zero overhead)...
        assert!(!TelemetrySetup::default().tracer_for(&outputs).unwrap().is_enabled());
        // ...but an armed telemetry dir needs a live metrics registry.
        let tracer = t.tracer_for(&outputs).unwrap();
        assert!(tracer.is_enabled());
        // When a trace output exists already, that tracer is reused as-is.
        let o = TraceOutputs { timings: true, ..TraceOutputs::default() };
        assert!(t.tracer_for(&o).unwrap().timings().is_some());
    }

    #[test]
    fn telemetry_build_writes_the_sidecars_into_the_directory() {
        use cichar_trace::{HEARTBEAT_FILE, METRICS_FILE};
        let dir = std::env::temp_dir().join(format!("cichar_bench_tele_{}", std::process::id()));
        let t = TelemetrySetup { dir: Some(dir.clone()), heartbeat_every_ms: Some(5) };
        let tracer = t.tracer_for(&TraceOutputs::default()).unwrap();
        let telemetry = t.build("selftest", &tracer).expect("tmp is writable");
        assert!(telemetry.is_enabled());
        telemetry.tick(|| cichar_trace::Progress::units("selftest", 6_000, 1, 2));
        let health = telemetry.finish().expect("no io error").expect("enabled");
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
