//! Run manifests: the one-file summary artifact of a traced campaign.

use crate::metrics::MetricsSnapshot;
use crate::telemetry::HealthSection;
use crate::timing::TimingSnapshot;
use crate::tracer::{PhaseSummary, Tracer};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::process::Command;

/// The manifest of one campaign run: everything needed to identify,
/// reproduce and account for it.
///
/// Serializable as a JSON artifact (the repro binaries save it through
/// `cichar_core::db::save_artifact`, which commits atomically) and
/// renderable as a summary table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunManifest {
    /// The campaign name (`fig2`, `fig3`, `table1`, …).
    pub campaign: String,
    /// The RNG seed the campaign ran with.
    pub seed: u64,
    /// Worker threads of the execution policy.
    pub threads: u64,
    /// The code version: `git describe --always --dirty` when available,
    /// the crate version otherwise.
    pub version: String,
    /// Campaign configuration, as sorted key/value pairs.
    pub config: Vec<(String, String)>,
    /// The final metrics snapshot.
    pub metrics: MetricsSnapshot,
    /// Per-phase wall-clock and probe totals, in phase order.
    pub phases: Vec<PhaseSummary>,
    /// The wall-clock timing sidecar (per-phase span-duration
    /// histograms), present when the run used a
    /// [`Tracer::timed`]. `None` parses from manifests
    /// written before timings existed.
    pub timings: Option<TimingSnapshot>,
    /// Hardware threads of the host the run executed on — recorded so a
    /// downstream gate can tell a real speedup regression from a
    /// 1-core CI box that never had the parallelism to begin with.
    /// `None` parses from manifests written before this field existed.
    #[serde(default)]
    pub hardware_threads: Option<u64>,
    /// Peak resident set size of the process, in bytes, when the platform
    /// exposes it (Linux `VmHWM`). `None` parses from older manifests and
    /// on platforms without the counter.
    #[serde(default)]
    pub peak_rss_bytes: Option<u64>,
    /// Allocator calls per finished trip-point search, measured by a
    /// counting global allocator in allocation-aware campaign binaries
    /// (`repro_wafer`). The steady-state hot path reuses scratch arenas
    /// and prepared evaluators, so this number should stay near the
    /// per-campaign setup cost amortized over the lot. `None` parses
    /// from older manifests and from binaries without the counter.
    #[serde(default)]
    pub allocs_per_trip: Option<f64>,
    /// Durability accounting for journaled campaigns: how much of the run
    /// was replayed from a checkpoint journal and what the self-healing
    /// machinery did. `None` for unjournaled runs and parses from
    /// manifests written before the section existed.
    #[serde(default)]
    pub recovery: Option<RecoverySection>,
    /// Live-telemetry health accounting: heartbeats emitted and alarms
    /// raised/cleared. `None` for runs without `--telemetry` and parses
    /// from manifests written before the section existed.
    #[serde(default)]
    pub health: Option<HealthSection>,
}

/// The durability section of a [`RunManifest`]: journal-replay and
/// self-healing accounting for a crash-safe wafer campaign.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RecoverySection {
    /// Whether the run resumed from an existing journal (as opposed to
    /// writing one from scratch).
    pub resumed: bool,
    /// Touchdown chunks replayed from the journal instead of re-measured.
    pub chunks_replayed: u64,
    /// Total touchdown chunks in the campaign.
    pub chunks_total: u64,
    /// Touchdowns replayed from the journal.
    pub touchdowns_replayed: u64,
    /// Wafer entries replayed from the journal.
    pub entries_replayed: u64,
    /// Tests quarantined by the stall watchdog.
    pub watchdog_timeouts: u64,
    /// Site health breakers latched open during the run.
    pub breaker_trips: u64,
    /// Site positions excluded from later touchdowns by their breaker.
    pub quarantined_sites: Vec<u64>,
}

impl RunManifest {
    /// Starts a manifest for `campaign`.
    pub fn new(campaign: &str, seed: u64, threads: usize) -> Self {
        Self {
            campaign: campaign.to_string(),
            seed,
            threads: threads as u64,
            version: describe_version(),
            config: Vec::new(),
            metrics: MetricsSnapshot::default(),
            phases: Vec::new(),
            timings: None,
            hardware_threads: None,
            peak_rss_bytes: None,
            allocs_per_trip: None,
            recovery: None,
            health: None,
        }
    }

    /// Records the host environment: hardware thread count now, and the
    /// process's peak resident set size where the platform exposes it.
    /// Call this *after* the campaign so the RSS high-water mark covers
    /// the measured work.
    pub fn with_host(mut self) -> Self {
        self.hardware_threads = std::thread::available_parallelism()
            .ok()
            .map(|n| n.get() as u64);
        self.peak_rss_bytes = peak_rss_bytes();
        self
    }

    /// Adds one configuration entry (kept sorted by key for deterministic
    /// serialization).
    pub fn with_config(mut self, key: &str, value: impl ToString) -> Self {
        self.config.push((key.to_string(), value.to_string()));
        self.config.sort();
        self
    }

    /// Captures the tracer's final metrics snapshot, phase summaries and
    /// (when the tracer carries a timing sidecar) the timing section.
    pub fn capture(mut self, tracer: &Tracer) -> Self {
        self.metrics = tracer.metrics();
        self.phases = tracer.phases();
        self.timings = tracer.timings().filter(|t| !t.is_empty());
        self
    }

    /// Total wall-clock milliseconds across the recorded phases.
    pub fn total_wall_ms(&self) -> u64 {
        self.phases.iter().map(|p| p.wall_ms).sum()
    }

    /// Non-speculative probe verdicts spent per finished trip-point
    /// search — the probe-economy headline number. Speculative pre-issues
    /// are subtracted so eq. 1 accounting stays honest; `None` when the
    /// run finished no searches.
    pub fn probes_per_trip(&self) -> Option<f64> {
        if self.metrics.searches_finished == 0 {
            return None;
        }
        let honest = self
            .metrics
            .probes_resolved
            .saturating_sub(self.metrics.probes_speculative);
        Some(honest as f64 / self.metrics.searches_finished as f64)
    }

    /// Finished trip-point searches per wall-clock second — the
    /// wafer-throughput headline. `None` when the run finished no
    /// searches or recorded no wall time.
    pub fn trips_per_second(&self) -> Option<f64> {
        let wall_ms = self.total_wall_ms();
        if wall_ms == 0 || self.metrics.searches_finished == 0 {
            return None;
        }
        Some(self.metrics.searches_finished as f64 * 1000.0 / wall_ms as f64)
    }

    /// [`Self::trips_per_second`] normalized by worker threads — the
    /// number that stays comparable when baseline and current ran on
    /// hosts with different core counts.
    pub fn trips_per_second_per_core(&self) -> Option<f64> {
        self.trips_per_second()
            .map(|tps| tps / self.threads.max(1) as f64)
    }

    /// The manifest as a human-readable summary table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "run manifest: {} (seed {:#x}, {} threads, version {})",
            self.campaign, self.seed, self.threads, self.version
        );
        if !self.config.is_empty() {
            let _ = writeln!(out, "  config:");
            for (key, value) in &self.config {
                let _ = writeln!(out, "    {key} = {value}");
            }
        }
        let _ = writeln!(
            out,
            "  {:<14} {:>10} {:>10}",
            "phase", "wall ms", "probes"
        );
        for phase in &self.phases {
            let _ = writeln!(
                out,
                "  {:<14} {:>10} {:>10}",
                phase.name, phase.wall_ms, phase.probes
            );
        }
        let _ = writeln!(
            out,
            "  {:<14} {:>10} {:>10}",
            "total",
            self.total_wall_ms(),
            self.metrics.probes_resolved
        );
        let m = &self.metrics;
        let _ = writeln!(
            out,
            "  probes: {} resolved ({} issued, {} cached, {} speculative) | searches: {}/{} converged | steps: {}",
            m.probes_resolved,
            m.probes_issued,
            m.probes_cached,
            m.probes_speculative,
            m.searches_converged,
            m.searches_finished,
            m.search_steps
        );
        if let Some(ppt) = self.probes_per_trip() {
            let _ = writeln!(out, "  probe economy: {ppt:.2} non-speculative probes/trip");
        }
        if let (Some(tps), Some(per_core)) =
            (self.trips_per_second(), self.trips_per_second_per_core())
        {
            let _ = writeln!(
                out,
                "  throughput: {tps:.1} trips/s ({per_core:.1} trips/s per core)"
            );
        }
        if self.hardware_threads.is_some() || self.peak_rss_bytes.is_some() {
            let hw = self
                .hardware_threads
                .map_or("unknown".to_string(), |n| n.to_string());
            // RSS accounting is best-effort: hosts without a /proc VmHWM
            // counter record None, and the manifest says so explicitly
            // rather than implying a missing measurement step.
            let rss = self.peak_rss_bytes.map_or(
                "unavailable (no VmHWM counter on this host)".to_string(),
                |b| format!("{:.1} MiB", b as f64 / (1 << 20) as f64),
            );
            let _ = writeln!(out, "  host: {hw} hardware threads | peak rss: {rss}");
        }
        if let Some(allocs) = self.allocs_per_trip {
            let _ = writeln!(out, "  allocation economy: {allocs:.2} allocator calls/trip");
        }
        let _ = writeln!(
            out,
            "  recovery: {} retries, {} votes, {} quarantined | faults: {} dropout, {} flip, {} stuck, {} abort",
            m.retries,
            m.vote_rounds,
            m.quarantined,
            m.faults_dropout,
            m.faults_flip,
            m.faults_stuck,
            m.faults_abort
        );
        if let Some(rec) = &self.recovery {
            let _ = writeln!(
                out,
                "  durability: {} {}/{} chunks replayed ({} touchdowns, {} entries) | {} watchdog timeouts, {} breaker trips{}",
                if rec.resumed { "resumed," } else { "journaled," },
                rec.chunks_replayed,
                rec.chunks_total,
                rec.touchdowns_replayed,
                rec.entries_replayed,
                rec.watchdog_timeouts,
                rec.breaker_trips,
                if rec.quarantined_sites.is_empty() {
                    String::new()
                } else {
                    format!(" | quarantined sites: {:?}", rec.quarantined_sites)
                }
            );
        }
        if let Some(health) = &self.health {
            let _ = writeln!(
                out,
                "  health: {} heartbeats | {} alarms raised, {} cleared{}",
                health.heartbeats,
                health.alarms_raised,
                health.alarms_cleared,
                if health.active_alarms.is_empty() {
                    String::new()
                } else {
                    format!(" | still active: {}", health.active_alarms.join(", "))
                }
            );
        }
        if let Some(timings) = &self.timings {
            let _ = writeln!(
                out,
                "  span timings ({} spans, {:.1} ms total):",
                timings.spans(),
                timings.total_ns() as f64 / 1e6
            );
            let _ = writeln!(
                out,
                "    {:<14} {:>7} {:>11} {:>11} {:>11} {:>11}",
                "phase", "spans", "total ms", "mean us", "min us", "max us"
            );
            for phase in &timings.phases {
                let _ = writeln!(
                    out,
                    "    {:<14} {:>7} {:>11.1} {:>11.1} {:>11.1} {:>11.1}",
                    phase.phase,
                    phase.spans,
                    phase.total_ns as f64 / 1e6,
                    phase.mean_ns() as f64 / 1e3,
                    phase.min_ns as f64 / 1e3,
                    phase.max_ns as f64 / 1e3
                );
            }
        }
        out
    }
}

/// The process's peak resident set size in bytes, read from the
/// platform's high-water-mark counter (Linux `VmHWM`). `None` where the
/// counter is unavailable — callers treat memory accounting as an
/// optional metric, never a hard requirement, and the manifest renders an
/// explicit "unavailable" note instead of failing.
pub fn peak_rss_bytes() -> Option<u64> {
    peak_rss_bytes_from(Path::new("/proc/self/status"))
}

/// Parses the `VmHWM:` high-water mark out of a `/proc/<pid>/status`-shaped
/// file. Split out of [`peak_rss_bytes`] so the degradation paths — no
/// `/proc` filesystem, a status file without the counter, a malformed
/// value — are testable on any host: every failure degrades to `None`.
pub fn peak_rss_bytes_from(path: &Path) -> Option<u64> {
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

/// The code version for manifests: `git describe --always --dirty` when
/// the binary runs inside a git checkout, the crate version otherwise.
pub fn describe_version() -> String {
    let described = Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty());
    described.unwrap_or_else(|| format!("v{}", env!("CARGO_PKG_VERSION")))
}

/// Verifies that `path` can be created and written, by creating and
/// removing a probe file next to it. Repro binaries call this eagerly so
/// an unwritable `--manifest` destination fails before hours of
/// measurement, not after.
///
/// # Errors
///
/// Returns the underlying I/O error (read-only directory, missing parent).
pub fn ensure_writable(path: impl AsRef<Path>) -> io::Result<()> {
    let path = path.as_ref();
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_else(|| "artifact".into());
    name.push(".probe");
    let probe = path.with_file_name(name);
    std::fs::write(&probe, b"")?;
    std::fs::remove_file(&probe)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_round_trips_through_json() {
        let manifest = RunManifest::new("fig2", 0xDA7E_2005, 4)
            .with_config("tests", 120)
            .with_config("scale", "quick");
        let json = serde_json::to_string(&manifest).expect("serializes");
        let back: RunManifest = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, manifest);
        // Config is sorted by key.
        assert_eq!(back.config[0].0, "scale");
    }

    #[test]
    fn render_mentions_every_phase_and_total() {
        let mut manifest = RunManifest::new("table1", 7, 1);
        manifest.phases = vec![
            PhaseSummary {
                name: String::from("march"),
                wall_ms: 10,
                probes: 100,
            },
            PhaseSummary {
                name: String::from("nnga"),
                wall_ms: 20,
                probes: 300,
            },
        ];
        manifest.metrics.probes_resolved = 400;
        let table = manifest.render();
        assert!(table.contains("march"), "{table}");
        assert!(table.contains("nnga"), "{table}");
        assert!(table.contains("total"), "{table}");
        assert_eq!(manifest.total_wall_ms(), 30);
    }

    #[test]
    fn manifest_with_timings_round_trips_and_renders() {
        use crate::sink::NullSink;
        use std::sync::Arc;

        let timed = Tracer::timed(Arc::new(NullSink));
        timed.phase("dsv");
        let span = timed.span(0);
        span.emit(crate::event::TraceEvent::ProbeIssued { value: 1.0, speculative: false });
        span.mark_done();
        timed.absorb(span);
        let manifest = RunManifest::new("fig2", 1, 1).capture(&timed);
        let timings = manifest.timings.as_ref().expect("timing sidecar captured");
        assert_eq!(timings.phases[0].phase, "dsv");
        let json = serde_json::to_string(&manifest).expect("serializes");
        let back: RunManifest = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, manifest);
        let table = manifest.render();
        assert!(table.contains("span timings"), "{table}");
        assert!(table.contains("mean us"), "{table}");
    }

    #[test]
    fn manifests_without_a_timings_field_still_parse() {
        // A pre-timings, pre-host-accounting manifest: the fields are
        // simply absent.
        let manifest = RunManifest::new("fig3", 2, 4);
        let json = serde_json::to_string(&manifest)
            .expect("serializes")
            .replace(",\"timings\":null", "")
            .replace(",\"hardware_threads\":null", "")
            .replace(",\"peak_rss_bytes\":null", "")
            .replace(",\"allocs_per_trip\":null", "")
            .replace(",\"recovery\":null", "")
            .replace(",\"health\":null", "");
        assert!(!json.contains("timings"), "{json}");
        assert!(!json.contains("hardware_threads"), "{json}");
        assert!(!json.contains("recovery"), "{json}");
        assert!(!json.contains("health"), "{json}");
        let back: RunManifest = serde_json::from_str(&json).expect("old manifests parse");
        assert_eq!(back.timings, None);
        assert_eq!(back.hardware_threads, None);
        assert_eq!(back.peak_rss_bytes, None);
        assert_eq!(back.allocs_per_trip, None);
        assert_eq!(back.recovery, None);
        assert_eq!(back.health, None);
        assert!(!back.render().contains("span timings"));
        assert!(!back.render().contains("host:"));
        assert!(!back.render().contains("durability:"));
        assert!(!back.render().contains("health:"));
    }

    #[test]
    fn recovery_section_round_trips_and_renders() {
        let mut manifest = RunManifest::new("wafer", 3, 2);
        manifest.recovery = Some(RecoverySection {
            resumed: true,
            chunks_replayed: 2,
            chunks_total: 3,
            touchdowns_replayed: 64,
            entries_replayed: 256,
            watchdog_timeouts: 4,
            breaker_trips: 1,
            quarantined_sites: vec![2],
        });
        let json = serde_json::to_string(&manifest).expect("serializes");
        let back: RunManifest = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, manifest);
        let table = manifest.render();
        assert!(table.contains("resumed, 2/3 chunks replayed"), "{table}");
        assert!(table.contains("4 watchdog timeouts, 1 breaker trips"), "{table}");
        assert!(table.contains("quarantined sites: [2]"), "{table}");
    }

    #[test]
    fn trips_per_second_derives_from_searches_and_wall_time() {
        let mut manifest = RunManifest::new("wafer", 1, 4);
        assert_eq!(manifest.trips_per_second(), None, "no searches, no wall");
        manifest.metrics.searches_finished = 500;
        manifest.phases = vec![PhaseSummary {
            name: String::from("wafer"),
            wall_ms: 2000,
            probes: 5000,
        }];
        assert_eq!(manifest.trips_per_second(), Some(250.0));
        assert_eq!(manifest.trips_per_second_per_core(), Some(62.5));
        let table = manifest.render();
        assert!(table.contains("250.0 trips/s (62.5 trips/s per core)"), "{table}");
    }

    #[test]
    fn with_host_records_hardware_threads_and_linux_peak_rss() {
        let manifest = RunManifest::new("wafer", 1, 4).with_host();
        assert!(manifest.hardware_threads.is_some_and(|n| n >= 1));
        if cfg!(target_os = "linux") {
            let rss = manifest.peak_rss_bytes.expect("VmHWM available on Linux");
            assert!(rss > 1 << 20, "peak rss {rss} should exceed a MiB");
        }
        assert!(manifest.render().contains("host:"));
    }

    #[test]
    fn allocs_per_trip_round_trips_and_renders() {
        let mut manifest = RunManifest::new("wafer", 1, 2);
        assert!(!manifest.render().contains("allocation economy"));
        manifest.allocs_per_trip = Some(5.25);
        let json = serde_json::to_string(&manifest).expect("serializes");
        let back: RunManifest = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, manifest);
        let table = manifest.render();
        assert!(table.contains("5.25 allocator calls/trip"), "{table}");
    }

    #[test]
    fn probes_per_trip_subtracts_speculation() {
        let mut manifest = RunManifest::new("fig2", 1, 1);
        assert_eq!(manifest.probes_per_trip(), None, "no searches yet");
        manifest.metrics.searches_finished = 10;
        manifest.metrics.probes_resolved = 130;
        manifest.metrics.probes_speculative = 30;
        assert_eq!(manifest.probes_per_trip(), Some(10.0));
        let table = manifest.render();
        assert!(table.contains("10.00 non-speculative probes/trip"), "{table}");
    }

    #[test]
    fn health_section_round_trips_and_renders() {
        use crate::telemetry::AlarmIncident;

        let mut manifest = RunManifest::new("wafer", 9, 8);
        manifest.health = Some(HealthSection {
            heartbeats: 12,
            alarms_raised: 2,
            alarms_cleared: 1,
            active_alarms: vec![String::from("stall_silence")],
            incidents: vec![AlarmIncident {
                alarm: String::from("stall_silence"),
                raised_at: 7,
                cleared_at: None,
                detail: String::from("no probe resolved for 20.0 simulated ms"),
            }],
        });
        let json = serde_json::to_string(&manifest).expect("serializes");
        let back: RunManifest = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, manifest);
        let table = manifest.render();
        assert!(table.contains("health: 12 heartbeats"), "{table}");
        assert!(table.contains("2 alarms raised, 1 cleared"), "{table}");
        assert!(table.contains("still active: stall_silence"), "{table}");
    }

    #[test]
    fn peak_rss_reader_degrades_to_none_off_linux_shapes() {
        let dir = std::env::temp_dir().join("cichar_rss_test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        // No /proc at all: the status file simply does not exist.
        assert_eq!(peak_rss_bytes_from(&dir.join("no_such_status")), None);
        // A status file without the VmHWM counter (e.g. a non-Linux shim).
        let no_counter = dir.join("status_no_vmhwm");
        std::fs::write(&no_counter, "Name:\tcichar\nVmRSS:\t 10 kB\n").expect("writable");
        assert_eq!(peak_rss_bytes_from(&no_counter), None);
        // A malformed value degrades instead of panicking.
        let malformed = dir.join("status_malformed");
        std::fs::write(&malformed, "VmHWM:\tlots kB\n").expect("writable");
        assert_eq!(peak_rss_bytes_from(&malformed), None);
        // The genuine shape parses (kB -> bytes).
        let good = dir.join("status_good");
        std::fs::write(&good, "Name:\tcichar\nVmHWM:\t  2048 kB\n").expect("writable");
        assert_eq!(peak_rss_bytes_from(&good), Some(2048 * 1024));
    }

    #[test]
    fn render_notes_rss_unavailability_instead_of_dropping_the_host_line() {
        let mut manifest = RunManifest::new("wafer", 1, 4);
        manifest.hardware_threads = Some(8);
        manifest.peak_rss_bytes = None;
        let table = manifest.render();
        assert!(
            table.contains("peak rss: unavailable (no VmHWM counter on this host)"),
            "{table}"
        );
    }

    #[test]
    fn version_is_never_empty() {
        assert!(!describe_version().is_empty());
    }

    #[test]
    fn ensure_writable_accepts_tmp_and_rejects_missing_dirs() {
        let dir = std::env::temp_dir().join("cichar_manifest_test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        ensure_writable(dir.join("m.json")).expect("tmp is writable");
        assert!(ensure_writable(
            std::env::temp_dir()
                .join("cichar_no_such_dir")
                .join("m.json")
        )
        .is_err());
    }
}
