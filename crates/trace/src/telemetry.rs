//! Live campaign telemetry: deterministic heartbeats, an OpenMetrics
//! textfile, and a health-alarm engine.
//!
//! Post-hoc observability (traces, manifests) answers questions after a
//! campaign ends; this module answers them *mid-flight*. A telemetry-armed
//! campaign periodically emits a [`HeartbeatSnapshot`] — its [`Progress`]
//! sample, the tracer's whole [`MetricsSnapshot`], derived rates and
//! active alarms — appended atomically to `heartbeat.jsonl`, and rewrites
//! `metrics.prom`, an OpenMetrics/Prometheus textfile rendered from the
//! same snapshot. `cichar-report watch` tails those files.
//!
//! # Determinism contract
//!
//! Heartbeat cadence is measured in **simulated ledger time**, not wall
//! time — the same discipline as the stall watchdog. Campaign engines call
//! [`Telemetry::tick`] only from their coordinator fold points (where
//! spans absorb and ledgers merge in input-index order), and a heartbeat
//! fires when the merged simulated time crosses the next interval
//! boundary. Both the tick sites and the simulated clock are pure
//! functions of the seeded campaign, so `threads=1` and `threads=8` emit
//! **bit-identical heartbeat sequences** up to the wall-clock fields that
//! [`HeartbeatSnapshot::normalized`] strips (exactly how
//! [`TraceRecord::normalized`](crate::TraceRecord::normalized) strips
//! `ts_us`). Journal replay never ticks, mirroring how replay emits no
//! trace events.
//!
//! # Health alarms
//!
//! Every heartbeat is evaluated against a set of [`AlarmRule`]s over the
//! snapshot's *deterministic* fields only, so alarm raise/clear sequences
//! inherit the heartbeat determinism. Transitions emit typed
//! [`TraceEvent::AlarmRaised`] / [`TraceEvent::AlarmCleared`] campaign
//! events and accumulate into the manifest's [`HealthSection`].
//!
//! Telemetry is a **sidecar**: a campaign run with telemetry disabled
//! emits a byte-identical normalized trace stream, so golden traces and
//! baseline manifests are unaffected.

use crate::event::TraceEvent;
use crate::metrics::MetricsSnapshot;
use crate::tracer::Tracer;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{self, Write as _};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// File name of the heartbeat stream inside a telemetry directory.
pub const HEARTBEAT_FILE: &str = "heartbeat.jsonl";
/// File name of the OpenMetrics textfile inside a telemetry directory.
pub const METRICS_FILE: &str = "metrics.prom";
/// Default heartbeat interval in simulated milliseconds.
pub const DEFAULT_HEARTBEAT_EVERY_MS: u64 = 25;
/// Heartbeats retained for rolling-window alarm rules.
const HISTORY_CAP: usize = 64;

/// One live progress/health sample of a running campaign: the
/// coordinator's progress sample and the tracer's metrics snapshot as of
/// the heartbeat, the rates derived from them, the active alarms, and the
/// wall-clock fields.
///
/// Everything but the wall-clock fields (`wall_ms`, `trips_per_sec`,
/// `eta_ms`) is a pure function of the seeded campaign and its simulated
/// ledger clock; [`Self::normalized`] clears those so heartbeat sequences
/// can be compared bit-for-bit across thread counts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HeartbeatSnapshot {
    /// Position in the heartbeat sequence (0-based).
    pub seq: u64,
    /// The campaign name (`wafer`, `fig2`, `table1`, …).
    pub campaign: String,
    /// The progress sample the heartbeat was taken from.
    pub progress: Progress,
    /// The tracer's counters and histograms as of the heartbeat.
    pub metrics: MetricsSnapshot,
    /// Quarantined fraction of finished searches (0 when none finished).
    pub quarantine_rate: f64,
    /// Finished searches per simulated second — the deterministic
    /// throughput figure.
    pub sim_trips_per_sec: f64,
    /// Names of the alarms active as of this heartbeat, ascending.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub alarms_active: Vec<String>,
    /// Wall-clock milliseconds since telemetry was armed. Not
    /// deterministic.
    pub wall_ms: u64,
    /// Work units per wall-clock second. Not deterministic.
    pub trips_per_sec: f64,
    /// Estimated wall-clock milliseconds to completion, extrapolated from
    /// progress so far (`None` before any progress or without a known
    /// total). Not deterministic.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub eta_ms: Option<u64>,
}

impl HeartbeatSnapshot {
    /// The snapshot with its wall-clock fields cleared — the form the
    /// cross-thread bit-identity tests compare in.
    pub fn normalized(mut self) -> Self {
        self.wall_ms = 0;
        self.trips_per_sec = 0.0;
        self.eta_ms = None;
        self
    }

    /// Fraction of the campaign completed, in `[0, 1]` (`None` without a
    /// known total).
    pub fn fraction_done(&self) -> Option<f64> {
        let p = &self.progress;
        (p.units_total > 0).then(|| p.units_done as f64 / p.units_total as f64)
    }
}

/// A coordinator-side progress sample handed to [`Telemetry::tick`].
///
/// Built inside the tick closure, so a disabled telemetry handle never
/// pays for it.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Progress {
    /// The campaign phase (`wafer`, `dsv`, `ga`, …).
    pub phase: String,
    /// Simulated tester time of the merged ledger, in microseconds — the
    /// deterministic clock that paces heartbeats.
    pub sim_time_us: u64,
    /// Work units folded so far ((die, test) entries for wafer campaigns,
    /// tests for DSV sweeps, evaluations for GA hunts).
    pub units_done: u64,
    /// Total work units of the campaign (0 when unknown up front).
    pub units_total: u64,
    /// Touchdowns folded so far (wafer campaigns; 0 elsewhere).
    pub touchdowns_done: u64,
    /// Chunks committed so far (wafer campaigns; 0 elsewhere).
    pub chunks_done: u64,
    /// Site positions whose health breaker is latched open, ascending.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub breaker_open_sites: Vec<u64>,
}

impl Progress {
    /// A progress sample for flat campaigns (DSV sweeps, GA hunts) that
    /// have units but no touchdown/chunk/breaker structure.
    pub fn units(phase: &str, sim_time_us: u64, done: u64, total: u64) -> Self {
        Self {
            phase: phase.to_string(),
            sim_time_us,
            units_done: done,
            units_total: total,
            ..Self::default()
        }
    }
}

/// One health-alarm rule, evaluated at every heartbeat over the
/// snapshot's deterministic fields.
#[derive(Debug, Clone, PartialEq)]
pub enum AlarmRule {
    /// Injected-fault rate over the trailing `window` heartbeats exceeds
    /// `max_rate` faults per resolved probe.
    FaultRateSpike {
        /// Heartbeats in the rolling window (including the current one).
        window: usize,
        /// Faults per resolved probe above which the alarm raises.
        max_rate: f64,
    },
    /// The campaign-wide quarantine rate exceeds `max_rate`.
    QuarantineRateCeiling {
        /// Quarantined fraction of finished searches above which the
        /// alarm raises.
        max_rate: f64,
    },
    /// Simulated throughput of the latest heartbeat interval fell below
    /// `min_fraction` of the campaign's own trailing mean.
    ThroughputDrop {
        /// Prior intervals averaged into the trailing mean.
        window: usize,
        /// Fraction of the trailing mean below which the alarm raises.
        min_fraction: f64,
    },
    /// Simulated time advanced at least `max_silent_ms` since the
    /// previous heartbeat without a single probe resolving — the
    /// signature of a stalled tester channel.
    StallSilence {
        /// Probe-silent simulated milliseconds above which the alarm
        /// raises.
        max_silent_ms: u64,
    },
}

impl AlarmRule {
    /// The stable alarm identifier used in trace events, heartbeats and
    /// the manifest health section.
    pub fn name(&self) -> &'static str {
        match self {
            AlarmRule::FaultRateSpike { .. } => "fault_rate_spike",
            AlarmRule::QuarantineRateCeiling { .. } => "quarantine_rate_ceiling",
            AlarmRule::ThroughputDrop { .. } => "throughput_drop",
            AlarmRule::StallSilence { .. } => "stall_silence",
        }
    }

    /// The default rule set armed by [`Telemetry::create`].
    pub fn default_set() -> Vec<AlarmRule> {
        vec![
            AlarmRule::FaultRateSpike {
                window: 4,
                max_rate: 0.25,
            },
            AlarmRule::QuarantineRateCeiling { max_rate: 0.10 },
            AlarmRule::ThroughputDrop {
                window: 4,
                min_fraction: 0.25,
            },
            AlarmRule::StallSilence { max_silent_ms: 250 },
        ]
    }

    /// Evaluates the rule against the current snapshot and the trailing
    /// heartbeat history (most recent last, current excluded). Returns a
    /// human-readable detail string when the rule fires.
    fn evaluate(&self, history: &[HeartbeatSnapshot], current: &HeartbeatSnapshot) -> Option<String> {
        match *self {
            AlarmRule::FaultRateSpike { window, max_rate } => {
                let base = history
                    .len()
                    .checked_sub(window.max(1).saturating_sub(1))
                    .map(|i| &history[i])?;
                let faults = current
                    .metrics
                    .faults()
                    .saturating_sub(base.metrics.faults());
                let probes = current
                    .metrics
                    .probes_resolved
                    .saturating_sub(base.metrics.probes_resolved);
                let rate = faults as f64 / probes.max(1) as f64;
                (rate > max_rate).then(|| {
                    format!("{faults} faults over {probes} probes ({rate:.3} > {max_rate:.3})")
                })
            }
            AlarmRule::QuarantineRateCeiling { max_rate } => {
                let m = &current.metrics;
                (m.searches_finished > 0 && current.quarantine_rate > max_rate).then(|| {
                    format!(
                        "{} of {} searches quarantined ({:.3} > {max_rate:.3})",
                        m.quarantined, m.searches_finished, current.quarantine_rate
                    )
                })
            }
            AlarmRule::ThroughputDrop {
                window,
                min_fraction,
            } => {
                // Needs `window` prior intervals, i.e. window + 1 prior
                // heartbeats.
                if history.len() < window.max(1) + 1 {
                    return None;
                }
                let tail = &history[history.len() - (window.max(1) + 1)..];
                let mut mean = 0.0;
                for pair in tail.windows(2) {
                    mean += interval_throughput(&pair[0], &pair[1]);
                }
                mean /= window.max(1) as f64;
                let last = tail.last().expect("window is non-empty");
                if current.progress.sim_time_us == last.progress.sim_time_us {
                    // Zero-length interval (e.g. the final heartbeat
                    // re-sampling the last fold point): no throughput
                    // signal to judge.
                    return None;
                }
                let now = interval_throughput(last, current);
                (mean > 0.0 && now < min_fraction * mean).then(|| {
                    format!(
                        "{now:.1} units/sim-s vs trailing mean {mean:.1} \
                         (below {min_fraction:.2}x)"
                    )
                })
            }
            AlarmRule::StallSilence { max_silent_ms } => {
                let prev = history.last()?;
                let silent_us = current
                    .progress
                    .sim_time_us
                    .saturating_sub(prev.progress.sim_time_us);
                let silent = current.metrics.probes_resolved == prev.metrics.probes_resolved
                    && silent_us >= max_silent_ms.saturating_mul(1000);
                silent.then(|| {
                    format!(
                        "no probe resolved for {:.1} simulated ms (budget {max_silent_ms} ms)",
                        silent_us as f64 / 1000.0
                    )
                })
            }
        }
    }
}

/// Units folded per simulated second between two heartbeats (0 when no
/// simulated time elapsed).
fn interval_throughput(prev: &HeartbeatSnapshot, current: &HeartbeatSnapshot) -> f64 {
    let (prev, current) = (&prev.progress, &current.progress);
    let dt_us = current.sim_time_us.saturating_sub(prev.sim_time_us);
    if dt_us == 0 {
        return 0.0;
    }
    let units = current.units_done.saturating_sub(prev.units_done);
    units as f64 * 1e6 / dt_us as f64
}

/// One alarm's raise (and eventual clear) within a run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AlarmIncident {
    /// The alarm identifier ([`AlarmRule::name`]).
    pub alarm: String,
    /// Heartbeat sequence number the alarm raised at.
    pub raised_at: u64,
    /// Heartbeat sequence number the alarm cleared at (`None` when still
    /// active at the end of the run).
    pub cleared_at: Option<u64>,
    /// The rule's detail string at raise time.
    pub detail: String,
}

/// The health section of a [`RunManifest`](crate::RunManifest):
/// heartbeat and alarm accounting for a telemetry-armed run.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct HealthSection {
    /// Heartbeats emitted.
    pub heartbeats: u64,
    /// Alarm raise transitions.
    pub alarms_raised: u64,
    /// Alarm clear transitions.
    pub alarms_cleared: u64,
    /// Alarms still active when the run finished, ascending.
    pub active_alarms: Vec<String>,
    /// Every raise (and eventual clear), in raise order.
    pub incidents: Vec<AlarmIncident>,
}

/// The live state behind an enabled [`Telemetry`] handle.
struct TelemetryCore {
    dir: PathBuf,
    /// `heartbeat.jsonl`, opened (and truncated) once when telemetry is
    /// armed and appended to at every heartbeat.
    stream: File,
    /// The heartbeat line and the OpenMetrics exposition, built in
    /// buffers reused from one heartbeat to the next.
    line: String,
    exposition: String,
    /// `metrics.prom` and the temp file it is published from.
    metrics_path: PathBuf,
    metrics_scratch: PathBuf,
    campaign: String,
    every_us: u64,
    tracer: Tracer,
    rules: Vec<AlarmRule>,
    started: Instant,
    seq: u64,
    next_deadline_us: u64,
    last_progress: Option<Progress>,
    history: Vec<HeartbeatSnapshot>,
    active: BTreeMap<String, usize>,
    incidents: Vec<AlarmIncident>,
    io_error: Option<io::Error>,
}

/// The campaign-level telemetry handle: paces heartbeats on simulated
/// ledger time, appends them to `heartbeat.jsonl`, rewrites
/// `metrics.prom`, and runs the alarm engine.
///
/// Cheap to clone (an `Arc`); the disabled handle (the default for every
/// campaign run without `--telemetry`) costs one branch per tick.
#[derive(Clone, Default)]
pub struct Telemetry {
    core: Option<Arc<Mutex<TelemetryCore>>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Telemetry {
    /// The inert handle: every tick is a no-op.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Arms telemetry into `dir` with the default heartbeat interval and
    /// alarm rules. `tracer` must be the same tracer the campaign reports
    /// into — heartbeat counters are its metrics snapshots, and alarm
    /// transitions are emitted as campaign events through it.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and file-creation failures (the
    /// heartbeat stream is created — truncated — eagerly, so an
    /// unwritable destination fails before any measurement).
    pub fn create(dir: impl Into<PathBuf>, campaign: &str, tracer: Tracer) -> io::Result<Self> {
        Self::create_with(
            dir,
            campaign,
            tracer,
            DEFAULT_HEARTBEAT_EVERY_MS,
            AlarmRule::default_set(),
        )
    }

    /// [`Self::create`] with an explicit heartbeat interval (simulated
    /// milliseconds) and alarm rule set.
    ///
    /// # Errors
    ///
    /// As [`Self::create`].
    pub fn create_with(
        dir: impl Into<PathBuf>,
        campaign: &str,
        tracer: Tracer,
        heartbeat_every_ms: u64,
        rules: Vec<AlarmRule>,
    ) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        // Fresh stream per process: a resumed campaign's heartbeats cover
        // exactly the work this process performs, like its trace does.
        let stream = OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join(HEARTBEAT_FILE))?;
        stream.set_len(0)?;
        let every_us = heartbeat_every_ms.max(1).saturating_mul(1000);
        let mut core = TelemetryCore {
            stream,
            line: String::new(),
            exposition: String::new(),
            metrics_path: dir.join(METRICS_FILE),
            metrics_scratch: dir.join(format!("{METRICS_FILE}.tmp")),
            dir,
            campaign: campaign.to_string(),
            every_us,
            tracer,
            rules,
            started: Instant::now(),
            seq: 0,
            next_deadline_us: every_us,
            last_progress: None,
            history: Vec::new(),
            active: BTreeMap::new(),
            incidents: Vec::new(),
            io_error: None,
        };
        core.write_metrics(&MetricsSnapshot::default(), 0, 0)?;
        Ok(Self {
            core: Some(Arc::new(Mutex::new(core))),
        })
    }

    /// Whether telemetry is live.
    pub fn is_enabled(&self) -> bool {
        self.core.is_some()
    }

    /// The telemetry directory, when enabled.
    pub fn dir(&self) -> Option<PathBuf> {
        self.core
            .as_ref()
            .map(|core| core.lock().expect("telemetry lock").dir.clone())
    }

    /// Offers a progress sample from a coordinator fold point. The
    /// closure runs only when telemetry is enabled; a heartbeat is
    /// emitted when the sample's simulated time crossed the next interval
    /// boundary (at most one per tick — the deadline then advances past
    /// the sample, so a burst of simulated time never back-fills a run of
    /// stale heartbeats).
    ///
    /// **Call only from the coordinating thread, at deterministic fold
    /// points** — that placement is what makes heartbeat sequences
    /// thread-count invariant.
    pub fn tick(&self, progress: impl FnOnce() -> Progress) {
        let Some(core) = &self.core else { return };
        let mut core = core.lock().expect("telemetry lock");
        let progress = progress();
        let due = progress.sim_time_us >= core.next_deadline_us;
        core.last_progress = Some(progress);
        if due {
            core.heartbeat();
            let every = core.every_us;
            let sim = core.last_progress.as_ref().expect("just stored").sim_time_us;
            core.next_deadline_us = (sim / every + 1) * every;
        }
    }

    /// Emits the final heartbeat (unconditionally, from the last progress
    /// sample), rewrites the final OpenMetrics file, and returns the
    /// run's [`HealthSection`]. `None` for a disabled handle.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error any heartbeat write latched.
    pub fn finish(&self) -> io::Result<Option<HealthSection>> {
        let Some(core) = &self.core else {
            return Ok(None);
        };
        let mut core = core.lock().expect("telemetry lock");
        if core.last_progress.is_some() {
            core.heartbeat();
        }
        if let Some(err) = core.io_error.take() {
            return Err(err);
        }
        Ok(Some(core.health()))
    }

    /// The health accounting so far (`None` for a disabled handle).
    pub fn health(&self) -> Option<HealthSection> {
        self.core
            .as_ref()
            .map(|core| core.lock().expect("telemetry lock").health())
    }

    /// Heartbeats emitted so far (0 for a disabled handle).
    pub fn heartbeats(&self) -> u64 {
        self.core
            .as_ref()
            .map_or(0, |core| core.lock().expect("telemetry lock").seq)
    }
}

impl TelemetryCore {
    /// Takes one heartbeat from the stored progress sample: snapshot the
    /// tracer's metrics, evaluate the alarm rules, append the heartbeat
    /// line, rewrite the OpenMetrics file.
    fn heartbeat(&mut self) {
        let Some(progress) = self.last_progress.clone() else {
            return;
        };
        let metrics = self.tracer.metrics();
        let wall_ms = self.started.elapsed().as_millis() as u64;
        let quarantine_rate = if metrics.searches_finished == 0 {
            0.0
        } else {
            metrics.quarantined as f64 / metrics.searches_finished as f64
        };
        let sim_trips_per_sec = if progress.sim_time_us == 0 {
            0.0
        } else {
            metrics.searches_finished as f64 * 1e6 / progress.sim_time_us as f64
        };
        let trips_per_sec = if wall_ms == 0 {
            0.0
        } else {
            progress.units_done as f64 * 1000.0 / wall_ms as f64
        };
        let eta_ms = (progress.units_total > progress.units_done && progress.units_done > 0)
            .then(|| {
                let remaining = progress.units_total - progress.units_done;
                (wall_ms as f64 * remaining as f64 / progress.units_done as f64) as u64
            });
        let mut hb = HeartbeatSnapshot {
            seq: self.seq,
            campaign: self.campaign.clone(),
            progress,
            metrics,
            quarantine_rate,
            sim_trips_per_sec,
            alarms_active: Vec::new(),
            wall_ms,
            trips_per_sec,
            eta_ms,
        };
        self.evaluate_alarms(&mut hb);
        if let Err(err) = self.append_heartbeat(&hb) {
            self.latch(err);
        }
        // Re-snapshot after the alarm events so the textfile's alarm
        // counters include this heartbeat's own transitions.
        let metrics = self.tracer.metrics();
        if let Err(err) = self.write_metrics(&metrics, self.seq + 1, hb.alarms_active.len()) {
            self.latch(err);
        }
        self.history.push(hb);
        if self.history.len() > HISTORY_CAP {
            self.history.remove(0);
        }
        self.seq += 1;
    }

    /// Runs every rule against the new snapshot, records raise/clear
    /// transitions, and stamps the snapshot's active-alarm list.
    fn evaluate_alarms(&mut self, hb: &mut HeartbeatSnapshot) {
        for rule in &self.rules {
            let name = rule.name();
            let firing = rule.evaluate(&self.history, hb);
            let was_active = self.active.contains_key(name);
            match (was_active, firing) {
                (false, Some(detail)) => {
                    self.active.insert(name.to_string(), self.incidents.len());
                    self.incidents.push(AlarmIncident {
                        alarm: name.to_string(),
                        raised_at: hb.seq,
                        cleared_at: None,
                        detail: detail.clone(),
                    });
                    self.tracer.emit_campaign(TraceEvent::AlarmRaised {
                        alarm: name.to_string(),
                        heartbeat: hb.seq,
                        detail,
                    });
                }
                (true, None) => {
                    if let Some(index) = self.active.remove(name) {
                        self.incidents[index].cleared_at = Some(hb.seq);
                    }
                    self.tracer.emit_campaign(TraceEvent::AlarmCleared {
                        alarm: name.to_string(),
                        heartbeat: hb.seq,
                    });
                }
                _ => {}
            }
        }
        hb.alarms_active = self.active.keys().cloned().collect();
    }

    /// Appends one heartbeat line — a single `write` of a full line, so a
    /// concurrent `watch` reader never observes a torn record.
    fn append_heartbeat(&mut self, hb: &HeartbeatSnapshot) -> io::Result<()> {
        self.line.clear();
        hb.write_json(&mut self.line);
        self.line.push('\n');
        self.stream.write_all(self.line.as_bytes())
    }

    /// Rewrites the OpenMetrics textfile via temp + rename (the same
    /// atomic-commit contract as `JsonlSink`), so a scraper never reads a
    /// truncated exposition.
    fn write_metrics(
        &mut self,
        metrics: &MetricsSnapshot,
        heartbeats: u64,
        active: usize,
    ) -> io::Result<()> {
        let body = &mut self.exposition;
        body.clear();
        write_openmetrics_body(body, metrics);
        let _ = writeln!(body, "# HELP cichar_heartbeats Heartbeats emitted by the live telemetry sidecar.");
        let _ = writeln!(body, "# TYPE cichar_heartbeats counter");
        let _ = writeln!(body, "cichar_heartbeats_total {heartbeats}");
        let _ = writeln!(body, "# HELP cichar_alarms_active Health alarms currently active.");
        let _ = writeln!(body, "# TYPE cichar_alarms_active gauge");
        let _ = writeln!(body, "cichar_alarms_active {active}");
        body.push_str("# EOF\n");
        std::fs::write(&self.metrics_scratch, body.as_bytes())?;
        std::fs::rename(&self.metrics_scratch, &self.metrics_path)
    }

    /// Latches the first I/O error; later heartbeats keep accumulating
    /// in memory so the campaign itself is never disturbed.
    fn latch(&mut self, err: io::Error) {
        if self.io_error.is_none() {
            self.io_error = Some(err);
        }
    }

    /// The health section; every raise opened one incident and every
    /// clear closed one, so the incidents are the raise/clear counts.
    fn health(&self) -> HealthSection {
        let cleared = self.incidents.iter().filter(|i| i.cleared_at.is_some());
        HealthSection {
            heartbeats: self.seq,
            alarms_raised: self.incidents.len() as u64,
            alarms_cleared: cleared.count() as u64,
            active_alarms: self.active.keys().cloned().collect(),
            incidents: self.incidents.clone(),
        }
    }
}

/// Appends the metrics body without the `# EOF` terminator (the
/// telemetry writer appends its own sidecar samples before terminating).
fn write_openmetrics_body(out: &mut String, m: &MetricsSnapshot) {
    for (name, help, value) in m.counters() {
        let _ = writeln!(out, "# HELP cichar_{name} {help}");
        let _ = writeln!(out, "# TYPE cichar_{name} counter");
        let _ = writeln!(out, "cichar_{name}_total {value}");
    }
    for (name, help, hist) in m.histograms() {
        let _ = writeln!(out, "# HELP cichar_{name} {help}");
        let _ = writeln!(out, "# TYPE cichar_{name} histogram");
        let mut cumulative = 0u64;
        for (bound, count) in hist.bounds.iter().zip(&hist.counts) {
            cumulative += count;
            let _ = writeln!(out, "cichar_{name}_bucket{{le=\"{bound}\"}} {cumulative}");
        }
        let _ = writeln!(out, "cichar_{name}_bucket{{le=\"+Inf\"}} {}", hist.count);
        let _ = writeln!(out, "cichar_{name}_sum {}", hist.sum);
        let _ = writeln!(out, "cichar_{name}_count {}", hist.count);
    }
}

/// Renders a [`MetricsSnapshot`] as a complete OpenMetrics exposition:
/// HELP/TYPE metadata per family, `_total`-suffixed counter samples,
/// classic cumulative histogram encoding, and the mandatory `# EOF`
/// terminator.
pub fn render_openmetrics(m: &MetricsSnapshot) -> String {
    let mut out = String::new();
    write_openmetrics_body(&mut out, m);
    out.push_str("# EOF\n");
    out
}

/// Parses an OpenMetrics exposition back into its samples, keyed by
/// sample name (labels included verbatim, e.g.
/// `cichar_retry_depth_bucket{le="2"}`).
///
/// # Errors
///
/// Rejects a missing `# EOF` terminator, samples after it, and malformed
/// sample lines — the shape of error a half-written scrape would show.
pub fn parse_openmetrics(text: &str) -> Result<BTreeMap<String, f64>, String> {
    let mut samples = BTreeMap::new();
    let mut terminated = false;
    for (number, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if terminated {
            return Err(format!("line {}: content after # EOF", number + 1));
        }
        if line == "# EOF" {
            terminated = true;
            continue;
        }
        if line.starts_with('#') {
            if !(line.starts_with("# HELP ") || line.starts_with("# TYPE ")) {
                return Err(format!("line {}: unknown comment {line:?}", number + 1));
            }
            continue;
        }
        let (name, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: malformed sample {line:?}", number + 1))?;
        let value: f64 = value
            .parse()
            .map_err(|_| format!("line {}: non-numeric value {value:?}", number + 1))?;
        samples.insert(name.to_string(), value);
    }
    if !terminated {
        return Err(String::from("missing # EOF terminator"));
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::RingBufferSink;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cichar_telemetry_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("tmp dir");
        dir
    }

    fn beat(seq: u64, sim_ms: u64, units: u64, probes: u64) -> HeartbeatSnapshot {
        HeartbeatSnapshot {
            seq,
            campaign: String::from("t"),
            progress: Progress::units("p", sim_ms * 1000, units, 100),
            metrics: MetricsSnapshot {
                probes_resolved: probes,
                probes_issued: probes,
                searches_finished: units,
                searches_converged: units,
                ..MetricsSnapshot::default()
            },
            quarantine_rate: 0.0,
            sim_trips_per_sec: 0.0,
            alarms_active: Vec::new(),
            wall_ms: 7,
            trips_per_sec: 3.0,
            eta_ms: Some(9),
        }
    }

    #[test]
    fn normalization_clears_only_the_wall_clock_fields() {
        let hb = beat(3, 50, 10, 40);
        let norm = hb.clone().normalized();
        assert_eq!(norm.wall_ms, 0);
        assert_eq!(norm.trips_per_sec, 0.0);
        assert_eq!(norm.eta_ms, None);
        assert_eq!(norm.seq, hb.seq);
        assert_eq!(norm.progress, hb.progress);
        assert_eq!(norm.metrics, hb.metrics);
    }

    #[test]
    fn heartbeats_round_trip_through_json_and_hide_empty_lists() {
        let hb = beat(0, 25, 5, 20);
        let json = serde_json::to_string(&hb).expect("serializes");
        assert!(!json.contains("breaker_open_sites"), "{json}");
        assert!(!json.contains("alarms_active"), "{json}");
        let back: HeartbeatSnapshot = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, hb);
    }

    #[test]
    fn disabled_handle_is_inert() {
        let telemetry = Telemetry::disabled();
        assert!(!telemetry.is_enabled());
        telemetry.tick(|| unreachable!("closure must not run when disabled"));
        assert_eq!(telemetry.finish().expect("trivially ok"), None);
        assert_eq!(telemetry.health(), None);
        assert_eq!(telemetry.heartbeats(), 0);
    }

    #[test]
    fn heartbeats_fire_on_simulated_deadlines_not_per_tick() {
        let dir = tmp_dir("cadence");
        let tracer = Tracer::new(Arc::new(RingBufferSink::unbounded()));
        let telemetry =
            Telemetry::create_with(&dir, "t", tracer, 10, Vec::new()).expect("tmp is writable");
        // 3 ticks inside the first interval: no heartbeat yet.
        for sim_ms in [2u64, 5, 9] {
            telemetry.tick(|| Progress::units("p", sim_ms * 1000, sim_ms, 100));
        }
        assert_eq!(telemetry.heartbeats(), 0);
        // Crossing 10 ms fires exactly one.
        telemetry.tick(|| Progress::units("p", 11_000, 11, 100));
        assert_eq!(telemetry.heartbeats(), 1);
        // A burst across several intervals still fires one, and the
        // deadline advances past the burst.
        telemetry.tick(|| Progress::units("p", 57_000, 57, 100));
        assert_eq!(telemetry.heartbeats(), 2);
        telemetry.tick(|| Progress::units("p", 59_000, 59, 100));
        assert_eq!(telemetry.heartbeats(), 2, "next deadline is 60 ms");
        let health = telemetry.finish().expect("no I/O error").expect("enabled");
        assert_eq!(health.heartbeats, 3, "finish emits the final snapshot");
        let stream = std::fs::read_to_string(dir.join(HEARTBEAT_FILE)).expect("stream exists");
        let seqs: Vec<u64> = stream
            .lines()
            .map(|l| serde_json::from_str::<HeartbeatSnapshot>(l).expect("parses").seq)
            .collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stall_silence_alarm_raises_and_clears_with_trace_events() {
        let dir = tmp_dir("stall");
        let sink = Arc::new(RingBufferSink::unbounded());
        let tracer = Tracer::new(sink.clone());
        let telemetry = Telemetry::create_with(
            &dir,
            "t",
            tracer.clone(),
            10,
            vec![AlarmRule::StallSilence { max_silent_ms: 15 }],
        )
        .expect("tmp is writable");
        // First heartbeat: no history, rule cannot fire.
        let span = tracer.span(0);
        span.emit(TraceEvent::ProbeResolved {
            value: 1.0,
            verdict: crate::event::TraceVerdict::Pass,
            cached: false,
        });
        tracer.absorb(span);
        telemetry.tick(|| Progress::units("p", 12_000, 1, 4));
        // Second: 20 simulated ms passed, zero probes resolved — stall.
        telemetry.tick(|| Progress::units("p", 32_000, 1, 4));
        // Third: a probe resolved — clears.
        let span = tracer.span(1);
        span.emit(TraceEvent::ProbeResolved {
            value: 1.0,
            verdict: crate::event::TraceVerdict::Pass,
            cached: false,
        });
        tracer.absorb(span);
        telemetry.tick(|| Progress::units("p", 45_000, 2, 4));
        let health = telemetry.finish().expect("no I/O error").expect("enabled");
        assert_eq!(health.alarms_raised, 1);
        assert_eq!(health.alarms_cleared, 1);
        assert!(health.active_alarms.is_empty());
        assert_eq!(health.incidents.len(), 1);
        assert_eq!(health.incidents[0].alarm, "stall_silence");
        assert_eq!(health.incidents[0].raised_at, 1);
        assert_eq!(health.incidents[0].cleared_at, Some(2));
        let events: Vec<String> = sink
            .records()
            .iter()
            .filter_map(|r| match &r.event {
                TraceEvent::AlarmRaised { alarm, .. } => Some(format!("raised:{alarm}")),
                TraceEvent::AlarmCleared { alarm, .. } => Some(format!("cleared:{alarm}")),
                _ => None,
            })
            .collect();
        assert_eq!(events, vec!["raised:stall_silence", "cleared:stall_silence"]);
        assert_eq!(tracer.metrics().alarms_raised, 1);
        assert_eq!(tracer.metrics().alarms_cleared, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quarantine_ceiling_and_fault_spike_fire_on_their_signatures() {
        let quarantine = AlarmRule::QuarantineRateCeiling { max_rate: 0.1 };
        let mut hb = beat(5, 100, 50, 200);
        hb.metrics.quarantined = 20;
        hb.quarantine_rate = 0.4;
        assert!(quarantine.evaluate(&[], &hb).is_some());
        hb.quarantine_rate = 0.05;
        assert!(quarantine.evaluate(&[], &hb).is_none());

        let spike = AlarmRule::FaultRateSpike {
            window: 2,
            max_rate: 0.5,
        };
        let history = vec![beat(0, 10, 10, 100)];
        let mut hb = beat(1, 20, 12, 110);
        hb.metrics.faults_flip = 9; // 9 faults over 10 probes
        assert!(spike.evaluate(&history, &hb).is_some());
        hb.metrics.faults_flip = 2;
        assert!(spike.evaluate(&history, &hb).is_none());
        assert!(spike.evaluate(&[], &hb).is_none(), "needs history");
    }

    #[test]
    fn throughput_drop_compares_against_the_trailing_mean() {
        let rule = AlarmRule::ThroughputDrop {
            window: 2,
            min_fraction: 0.5,
        };
        // Three prior heartbeats -> two prior intervals at 1 unit/ms.
        let history = vec![beat(0, 10, 10, 10), beat(1, 20, 20, 20), beat(2, 30, 30, 30)];
        // Next interval: 10 ms pass, 0 units -> 0 throughput.
        let stalled = beat(3, 40, 30, 40);
        assert!(rule.evaluate(&history, &stalled).is_some());
        let healthy = beat(3, 40, 40, 40);
        assert!(rule.evaluate(&history, &healthy).is_none());
        assert!(rule.evaluate(&history[..2], &stalled).is_none(), "needs window+1");
    }

    #[test]
    fn openmetrics_renders_metadata_and_round_trips_through_the_parser() {
        let mut m = MetricsSnapshot {
            probes_resolved: 42,
            probes_issued: 40,
            probes_cached: 2,
            retries: 3,
            ..MetricsSnapshot::default()
        };
        m.hist_retry_depth.bounds = vec![1, 2];
        m.hist_retry_depth.counts = vec![2, 1, 0];
        m.hist_retry_depth.count = 3;
        m.hist_retry_depth.sum = 4;
        let text = render_openmetrics(&m);
        assert!(text.contains("# HELP cichar_probes_resolved "), "{text}");
        assert!(text.contains("# TYPE cichar_probes_resolved counter"), "{text}");
        assert!(text.contains("cichar_probes_resolved_total 42"), "{text}");
        assert!(text.ends_with("# EOF\n"), "{text}");
        let samples = parse_openmetrics(&text).expect("parses");
        assert_eq!(samples.get("cichar_probes_resolved_total"), Some(&42.0));
        assert_eq!(samples.get("cichar_retry_depth_bucket{le=\"1\"}"), Some(&2.0));
        assert_eq!(
            samples.get("cichar_retry_depth_bucket{le=\"2\"}"),
            Some(&3.0),
            "buckets are cumulative"
        );
        assert_eq!(samples.get("cichar_retry_depth_bucket{le=\"+Inf\"}"), Some(&3.0));
        assert_eq!(samples.get("cichar_retry_depth_sum"), Some(&4.0));
        assert_eq!(samples.get("cichar_retry_depth_count"), Some(&3.0));
    }

    #[test]
    fn parser_rejects_torn_expositions() {
        assert!(parse_openmetrics("cichar_x_total 1\n").is_err(), "no EOF");
        assert!(parse_openmetrics("# EOF\ncichar_x_total 1\n").is_err(), "content after EOF");
        assert!(parse_openmetrics("not a sample\n# EOF\n").is_err(), "malformed sample");
        assert!(parse_openmetrics("cichar_x_total nan_ish_junk\n# EOF\n").is_err());
        assert!(parse_openmetrics("# BOGUS comment\n# EOF\n").is_err());
        assert!(parse_openmetrics("# EOF\n").expect("empty is fine").is_empty());
    }

    #[test]
    fn counter_table_covers_every_snapshot_counter_field() {
        // Serialize a snapshot and check the exposition names every
        // integer field: the table `registry!` generates must reach the
        // textfile for every counter the snapshot serializes.
        use serde::{Serialize as _, Value};
        let snapshot = MetricsSnapshot::default();
        let value = snapshot.to_value();
        let object = value.as_map().expect("snapshot is a JSON object").to_vec();
        let text = render_openmetrics(&snapshot);
        let mut counters = 0usize;
        for (field, value) in &object {
            if matches!(value, Value::U64(_) | Value::I64(_)) {
                counters += 1;
                assert!(
                    text.contains(&format!("cichar_{field}_total ")),
                    "counter {field} missing from the OpenMetrics exposition"
                );
            } else {
                assert!(field.starts_with("hist_"), "unexpected field {field}");
            }
        }
        assert_eq!(
            snapshot.counters().count(),
            counters,
            "table and snapshot disagree on the counter count"
        );
    }

    #[test]
    fn metrics_file_reconciles_with_the_tracer_snapshot() {
        let dir = tmp_dir("prom");
        let tracer = Tracer::new(Arc::new(RingBufferSink::unbounded()));
        let telemetry =
            Telemetry::create_with(&dir, "t", tracer.clone(), 5, Vec::new()).expect("writable");
        let span = tracer.span(0);
        span.emit(TraceEvent::ProbeIssued {
            value: 1.0,
            speculative: false,
        });
        span.emit(TraceEvent::ProbeResolved {
            value: 1.0,
            verdict: crate::event::TraceVerdict::Pass,
            cached: false,
        });
        tracer.absorb(span);
        telemetry.tick(|| Progress::units("p", 6_000, 1, 2));
        telemetry.finish().expect("no I/O error");
        let text = std::fs::read_to_string(dir.join(METRICS_FILE)).expect("file exists");
        let samples = parse_openmetrics(&text).expect("parses");
        let snapshot = tracer.metrics();
        assert_eq!(samples.get("cichar_probes_issued_total"), Some(&1.0));
        assert_eq!(
            samples.get("cichar_probes_resolved_total").copied(),
            Some(snapshot.probes_resolved as f64)
        );
        assert_eq!(samples.get("cichar_heartbeats_total"), Some(&2.0));
        assert_eq!(samples.get("cichar_alarms_active"), Some(&0.0));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
