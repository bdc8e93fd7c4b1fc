//! The live campaign follower: turns the telemetry sidecars
//! (`heartbeat.jsonl`, `metrics.prom`, and any co-located wafer journal)
//! into a progress/health view.
//!
//! The `cichar-report watch <dir>` subcommand refreshes this view until
//! interrupted; `--once` renders a single frame and `--json` emits the
//! latest heartbeat verbatim for scripting. All parsing lives here so it
//! is unit-testable without a terminal.

use cichar_trace::{parse_openmetrics, HeartbeatSnapshot};
use std::fmt::Write as _;
use std::path::Path;

/// One frame of the follower: the latest heartbeat plus everything else
/// the telemetry directory reveals about the run.
#[derive(Debug, Clone, PartialEq)]
pub struct WatchView {
    /// The newest parseable heartbeat in the stream.
    pub heartbeat: HeartbeatSnapshot,
    /// Heartbeat lines that failed to parse (torn tails are not fatal —
    /// the stream is appended live).
    pub skipped_lines: u64,
    /// Wafer-journal chunk files co-located with the sidecars (0 when
    /// the campaign runs unjournaled or journals elsewhere).
    pub journal_chunks: u64,
    /// OpenMetrics exposition state: `None` when `metrics.prom` is
    /// absent, `Ok(samples)` when it parsed, `Err(why)` when torn.
    pub metrics: Option<Result<usize, String>>,
}

/// Scans a `heartbeat.jsonl` stream for its newest parseable snapshot.
/// Returns the snapshot (if any line parsed) and the count of lines that
/// did not — a live stream's last line may be mid-append.
pub fn latest_heartbeat(text: &str) -> (Option<HeartbeatSnapshot>, u64) {
    let mut latest: Option<HeartbeatSnapshot> = None;
    let mut skipped = 0u64;
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        match serde_json::from_str::<HeartbeatSnapshot>(line) {
            Ok(snapshot) => latest = Some(snapshot),
            Err(_) => skipped += 1,
        }
    }
    (latest, skipped)
}

/// Assembles a [`WatchView`] from the telemetry directory's current
/// contents. `Ok(None)` when no heartbeat has been written yet.
pub fn read_watch_view(dir: &Path) -> Result<Option<WatchView>, String> {
    let path = dir.join(cichar_trace::HEARTBEAT_FILE);
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Err(format!("no heartbeat stream at {}", path.display()))
        }
        Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
    };
    let (heartbeat, skipped_lines) = latest_heartbeat(&text);
    let Some(heartbeat) = heartbeat else {
        return Ok(None);
    };
    let metrics = std::fs::read_to_string(dir.join(cichar_trace::METRICS_FILE))
        .ok()
        .map(|text| parse_openmetrics(&text).map(|samples| samples.len()));
    let journal_chunks = std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok())
                .filter(|e| {
                    let name = e.file_name();
                    let name = name.to_string_lossy();
                    name.starts_with("journal_chunk_") && name.ends_with(".jsonl")
                })
                .count() as u64
        })
        .unwrap_or(0);
    Ok(Some(WatchView {
        heartbeat,
        skipped_lines,
        journal_chunks,
        metrics,
    }))
}

/// A 24-cell progress bar for `fraction` in `[0, 1]`.
fn bar(fraction: f64) -> String {
    const CELLS: usize = 24;
    let filled = (fraction.clamp(0.0, 1.0) * CELLS as f64).round() as usize;
    format!("[{}{}]", "=".repeat(filled), " ".repeat(CELLS - filled))
}

/// Renders the follower's progress/health table.
pub fn render_watch(view: &WatchView) -> String {
    let hb = &view.heartbeat;
    let (p, m) = (&hb.progress, &hb.metrics);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "campaign {} | phase {} | heartbeat #{}",
        hb.campaign, p.phase, hb.seq
    );

    if let Some(fraction) = hb.fraction_done() {
        let _ = writeln!(
            out,
            "  progress:   {} {:5.1}% ({}/{} units)",
            bar(fraction),
            100.0 * fraction,
            p.units_done,
            p.units_total
        );
    } else {
        let _ = writeln!(out, "  progress:   {} units (total open-ended)", p.units_done);
    }
    if p.touchdowns_done > 0 || p.chunks_done > 0 {
        let _ = writeln!(
            out,
            "  wafer:      {} touchdowns, {} chunks committed{}",
            p.touchdowns_done,
            p.chunks_done,
            if view.journal_chunks > 0 {
                format!(" ({} journal chunks on disk)", view.journal_chunks)
            } else {
                String::new()
            }
        );
    }
    let _ = writeln!(
        out,
        "  sim clock:  {:.1} ms | {:.1} trips/s (sim)",
        p.sim_time_us as f64 / 1e3,
        hb.sim_trips_per_sec
    );
    let _ = writeln!(
        out,
        "  wall clock: {:.1} s | {:.1} trips/s{}",
        hb.wall_ms as f64 / 1e3,
        hb.trips_per_sec,
        hb.eta_ms
            .map(|eta| format!(" | eta {:.1} s", eta as f64 / 1e3))
            .unwrap_or_default()
    );
    let _ = writeln!(
        out,
        "  probes:     {} resolved ({} issued, {} cached, {} speculative)",
        m.probes_resolved, m.probes_issued, m.probes_cached, m.probes_speculative
    );
    let _ = writeln!(
        out,
        "  searches:   {} finished, {} converged, {} quarantined ({:.1}%)",
        m.searches_finished,
        m.searches_converged,
        m.quarantined,
        100.0 * hb.quarantine_rate
    );
    if m.faults() + m.retries + m.vote_rounds + m.watchdog_timeouts > 0 {
        let _ = writeln!(
            out,
            "  funnel:     {} faults, {} retries, {} votes, {} watchdog timeouts",
            m.faults(),
            m.retries,
            m.vote_rounds,
            m.watchdog_timeouts
        );
    }
    if !p.breaker_open_sites.is_empty() {
        let _ = writeln!(out, "  breakers:   sites open: {:?}", p.breaker_open_sites);
    }
    if hb.alarms_active.is_empty() {
        let _ = writeln!(out, "  health:     OK (no active alarms)");
    } else {
        let _ = writeln!(out, "  health:     ALARM {}", hb.alarms_active.join(", "));
    }
    match &view.metrics {
        None => {}
        Some(Ok(samples)) => {
            let _ = writeln!(out, "  metrics:    {samples} OpenMetrics samples");
        }
        Some(Err(why)) => {
            let _ = writeln!(out, "  metrics:    torn exposition ({why})");
        }
    }
    if view.skipped_lines > 0 {
        let _ = writeln!(
            out,
            "  (skipped {} unparseable heartbeat lines — stream may be mid-append)",
            view.skipped_lines
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cichar_trace::{MetricsSnapshot, Progress};

    fn heartbeat() -> HeartbeatSnapshot {
        HeartbeatSnapshot {
            seq: 0,
            campaign: String::from("wafer"),
            progress: Progress {
                phase: String::from("wafer"),
                sim_time_us: 25_000,
                units_done: 48,
                units_total: 384,
                touchdowns_done: 12,
                chunks_done: 1,
                breaker_open_sites: vec![2],
            },
            metrics: MetricsSnapshot {
                probes_resolved: 500,
                probes_issued: 480,
                probes_cached: 20,
                searches_finished: 48,
                searches_converged: 47,
                retries: 2,
                vote_rounds: 1,
                quarantined: 1,
                faults_dropout: 1,
                faults_flip: 1,
                ..MetricsSnapshot::default()
            },
            quarantine_rate: 0.0208,
            sim_trips_per_sec: 1920.0,
            alarms_active: vec![String::from("stall_silence")],
            wall_ms: 40,
            trips_per_sec: 1200.0,
            eta_ms: Some(280),
        }
    }

    #[test]
    fn latest_heartbeat_takes_the_newest_line_and_tolerates_torn_tails() {
        let a = serde_json::to_string(&heartbeat()).expect("serializes");
        let mut b = heartbeat();
        b.seq = 7;
        let b = serde_json::to_string(&b).expect("serializes");
        let text = format!("{a}\n{b}\n{{\"seq\":8,\"camp");
        let (latest, skipped) = latest_heartbeat(&text);
        assert_eq!(latest.expect("two parseable lines").seq, 7);
        assert_eq!(skipped, 1);
        assert_eq!(latest_heartbeat(""), (None, 0));
    }

    #[test]
    fn render_covers_progress_funnel_breakers_and_alarms() {
        let view = WatchView {
            heartbeat: heartbeat(),
            skipped_lines: 1,
            journal_chunks: 2,
            metrics: Some(Ok(31)),
        };
        let rendered = render_watch(&view);
        for needle in [
            "campaign wafer",
            "heartbeat #0",
            "12.5%",
            "48/384 units",
            "12 touchdowns",
            "2 journal chunks on disk",
            "25.0 ms",
            "eta 0.3 s",
            "500 resolved",
            "1 quarantined (2.1%)",
            "2 faults, 2 retries, 1 votes",
            "sites open: [2]",
            "ALARM stall_silence",
            "31 OpenMetrics samples",
            "skipped 1 unparseable",
        ] {
            assert!(rendered.contains(needle), "missing {needle:?} in:\n{rendered}");
        }
    }

    #[test]
    fn healthy_open_ended_runs_render_without_noise() {
        let mut hb = heartbeat();
        hb.progress.units_total = 0;
        hb.progress.breaker_open_sites.clear();
        hb.metrics = MetricsSnapshot {
            probes_resolved: 500,
            ..MetricsSnapshot::default()
        };
        hb.alarms_active.clear();
        hb.eta_ms = None;
        let view = WatchView {
            heartbeat: hb,
            skipped_lines: 0,
            journal_chunks: 0,
            metrics: Some(Err(String::from("missing `# EOF` terminator"))),
        };
        let rendered = render_watch(&view);
        assert!(rendered.contains("total open-ended"), "{rendered}");
        assert!(rendered.contains("OK (no active alarms)"), "{rendered}");
        assert!(rendered.contains("torn exposition"), "{rendered}");
        assert!(!rendered.contains("funnel:"), "{rendered}");
        assert!(!rendered.contains("breakers:"), "{rendered}");
        assert!(!rendered.contains("eta"), "{rendered}");
    }

    #[test]
    fn read_watch_view_reports_absent_streams_and_empty_streams_apart() {
        let dir = std::env::temp_dir().join(format!("cichar_watch_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        std::fs::remove_file(dir.join(cichar_trace::HEARTBEAT_FILE)).ok();
        let err = read_watch_view(&dir).expect_err("no stream yet");
        assert!(err.contains("no heartbeat stream"), "{err}");
        std::fs::write(dir.join(cichar_trace::HEARTBEAT_FILE), b"").expect("touch");
        assert_eq!(read_watch_view(&dir).expect("readable"), None);
        let line = serde_json::to_string(&heartbeat()).expect("serializes");
        std::fs::write(dir.join(cichar_trace::HEARTBEAT_FILE), format!("{line}\n"))
            .expect("write");
        let view = read_watch_view(&dir).expect("readable").expect("one heartbeat");
        assert_eq!(view.heartbeat.seq, 0);
        assert_eq!(view.metrics, None, "no metrics.prom in this dir");
        std::fs::remove_dir_all(&dir).ok();
    }
}
