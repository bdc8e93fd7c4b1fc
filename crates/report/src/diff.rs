//! Manifest diffing with a regression gate.
//!
//! `cichar-report diff baseline.json current.json --gate` compares two
//! [`RunManifest`] artifacts and exits non-zero when the current run
//! drifted past configurable thresholds on the metrics that matter for a
//! characterization campaign: probe budget (the paper's test-time
//! currency), quarantine rate (measurement trustworthiness), wall time
//! (optional — meaningless across machines, useful on one), and the
//! trip-point extrema recorded in the manifest config.

use cichar_trace::RunManifest;
use std::fmt::Write as _;

/// Gate thresholds. Every threshold has a CLI flag; the defaults are
/// deliberately loose enough to absorb seed-stable noise and tight
/// enough to catch a real regression (the acceptance bar is a 2×
/// probe-count blowup, caught at +10%).
#[derive(Debug, Clone, PartialEq)]
pub struct GateConfig {
    /// Maximum allowed growth of resolved/issued probe counts, percent.
    pub max_probe_growth_pct: f64,
    /// Maximum allowed growth of the probe-economy headline — honest
    /// (non-speculative) probes per finished trip-point search — percent.
    pub max_probes_per_trip_growth_pct: f64,
    /// Maximum allowed quarantine-rate increase, percentage points.
    pub max_quarantine_delta_pts: f64,
    /// Maximum allowed wall-clock growth, percent. `None` disables the
    /// wall gate (the default: wall time is machine-dependent, so gating
    /// it in shared CI is flake, not signal).
    pub max_wall_growth_pct: Option<f64>,
    /// Maximum allowed relative drift of the `trip_min` / `trip_max`
    /// config extrema, percent.
    pub max_extrema_drift_pct: f64,
    /// Maximum allowed drop of the trips/s-per-core throughput, percent.
    /// `None` disables the throughput gate. Per-core (not absolute)
    /// throughput is gated so the check survives baseline and current
    /// runs landing on hosts with different core counts.
    pub max_throughput_drop_pct: Option<f64>,
    /// Maximum allowed growth of the peak resident set size, percent.
    /// `None` disables the memory gate.
    pub max_peak_rss_growth_pct: Option<f64>,
    /// Maximum allowed growth of allocator calls per finished trip-point
    /// search, percent. `None` disables the allocation gate. Recorded by
    /// allocation-aware campaign binaries (`repro_wafer`'s counting
    /// global allocator); the scratch-arena hot path keeps the number
    /// near the amortized per-campaign setup cost, so growth here means
    /// per-trip allocations crept back in.
    pub max_allocs_per_trip_growth_pct: Option<f64>,
    /// Maximum live probe bill of a **resumed** run, as a percentage of
    /// the baseline's resolved probes. `None` disables the gate; when
    /// armed it judges only manifests whose durability section says the
    /// run was resumed (anything else is skipped with a note). A resumed
    /// campaign replays its journal instead of re-measuring, so its live
    /// probes should be a small fraction of the uninterrupted bill —
    /// growth here means recovery is re-doing committed work.
    pub max_recovery_overhead_pct: Option<f64>,
}

impl Default for GateConfig {
    fn default() -> Self {
        Self {
            max_probe_growth_pct: 10.0,
            max_probes_per_trip_growth_pct: 10.0,
            max_quarantine_delta_pts: 0.5,
            max_wall_growth_pct: None,
            max_extrema_drift_pct: 0.25,
            max_throughput_drop_pct: None,
            max_peak_rss_growth_pct: None,
            max_allocs_per_trip_growth_pct: None,
            max_recovery_overhead_pct: None,
        }
    }
}

/// One compared quantity.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffRow {
    /// What was compared.
    pub metric: String,
    /// Baseline rendering.
    pub baseline: String,
    /// Current rendering.
    pub current: String,
    /// Delta rendering (`+12.0%`, `+0.3pts`, `=`).
    pub delta: String,
    /// The gate breach this row caused, if any.
    pub breach: Option<String>,
}

/// The full comparison of two manifests.
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestDiff {
    /// Every compared quantity, in report order.
    pub rows: Vec<DiffRow>,
    /// Human-readable breach descriptions (empty ⇒ gate passes).
    pub breaches: Vec<String>,
    /// Comparisons that were skipped rather than judged — optional
    /// metrics present in only one manifest, or gates that don't apply
    /// on this host. Notes never fail the gate; they keep the report
    /// honest about what it did *not* check.
    pub notes: Vec<String>,
}

fn growth_pct(baseline: u64, current: u64) -> f64 {
    if baseline == 0 {
        if current == 0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        100.0 * (current as f64 / baseline as f64 - 1.0)
    }
}

fn fmt_pct(p: f64) -> String {
    if p.is_infinite() {
        "+inf%".to_string()
    } else if p == 0.0 {
        "=".to_string()
    } else {
        format!("{p:+.1}%")
    }
}

fn config_f64(manifest: &RunManifest, key: &str) -> Option<f64> {
    manifest
        .config
        .iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| v.parse::<f64>().ok())
}

impl ManifestDiff {
    /// Compares `current` against `baseline` under `gate`.
    pub fn compare(baseline: &RunManifest, current: &RunManifest, gate: &GateConfig) -> Self {
        let mut rows = Vec::new();
        let mut breaches = Vec::new();
        let mut notes = Vec::new();
        let mut push = |row: DiffRow| {
            if let Some(breach) = &row.breach {
                breaches.push(breach.clone());
            }
            rows.push(row);
        };

        // Identity: comparing different campaigns is a gate failure, not a
        // silent apples-to-oranges report.
        push(DiffRow {
            metric: "campaign".into(),
            baseline: baseline.campaign.clone(),
            current: current.campaign.clone(),
            delta: if baseline.campaign == current.campaign {
                "=".into()
            } else {
                "differs".into()
            },
            breach: (baseline.campaign != current.campaign).then(|| {
                format!(
                    "campaign mismatch: baseline is {:?}, current is {:?}",
                    baseline.campaign, current.campaign
                )
            }),
        });
        push(DiffRow {
            metric: "seed".into(),
            baseline: format!("{:#x}", baseline.seed),
            current: format!("{:#x}", current.seed),
            delta: if baseline.seed == current.seed { "=".into() } else { "differs".into() },
            breach: None,
        });

        // Probe budget: the paper's test-time currency.
        for (name, base, cur) in [
            (
                "probes_resolved",
                baseline.metrics.probes_resolved,
                current.metrics.probes_resolved,
            ),
            (
                "probes_issued",
                baseline.metrics.probes_issued,
                current.metrics.probes_issued,
            ),
        ] {
            let growth = growth_pct(base, cur);
            push(DiffRow {
                metric: name.into(),
                baseline: base.to_string(),
                current: cur.to_string(),
                delta: fmt_pct(growth),
                breach: (growth > gate.max_probe_growth_pct).then(|| {
                    format!(
                        "{name} grew {} (limit +{:.1}%): {base} -> {cur}",
                        fmt_pct(growth),
                        gate.max_probe_growth_pct
                    )
                }),
            });
        }
        // Probe economy: honest (non-speculative) probes per finished
        // trip-point search — the headline the warm-start and speculation
        // machinery exists to shrink. One-sided values (searches finished
        // in only one run) are not comparable: reported and skipped, never
        // a hard error — a baseline from an older binary must not brick
        // the gate.
        match (baseline.probes_per_trip(), current.probes_per_trip()) {
            (Some(base), Some(cur)) => {
                let growth = if base == 0.0 {
                    if cur == 0.0 {
                        0.0
                    } else {
                        f64::INFINITY
                    }
                } else {
                    100.0 * (cur / base - 1.0)
                };
                push(DiffRow {
                    metric: "probes_per_trip".into(),
                    baseline: format!("{base:.2}"),
                    current: format!("{cur:.2}"),
                    delta: fmt_pct(growth),
                    breach: (growth > gate.max_probes_per_trip_growth_pct).then(|| {
                        format!(
                            "probes_per_trip grew {} (limit +{:.1}%): {base:.2} -> {cur:.2}",
                            fmt_pct(growth),
                            gate.max_probes_per_trip_growth_pct
                        )
                    }),
                });
            }
            (None, None) => {}
            (base, cur) => {
                push(DiffRow {
                    metric: "probes_per_trip".into(),
                    baseline: base.map_or("absent".into(), |v| format!("{v:.2}")),
                    current: cur.map_or("absent".into(), |v| format!("{v:.2}")),
                    delta: "not comparable — skipped".into(),
                    breach: None,
                });
                notes.push(String::from(
                    "probes_per_trip computable in only one manifest — \
                     not comparable, skipped (regenerate the baseline to re-arm)",
                ));
            }
        }
        push(DiffRow {
            metric: "searches_finished".into(),
            baseline: baseline.metrics.searches_finished.to_string(),
            current: current.metrics.searches_finished.to_string(),
            delta: fmt_pct(growth_pct(
                baseline.metrics.searches_finished,
                current.metrics.searches_finished,
            )),
            breach: None,
        });

        // Quarantine rate, in percentage points of resolved probes.
        let rate = |m: &RunManifest| {
            if m.metrics.probes_resolved == 0 {
                0.0
            } else {
                100.0 * m.metrics.quarantined as f64 / m.metrics.probes_resolved as f64
            }
        };
        let (base_rate, cur_rate) = (rate(baseline), rate(current));
        let delta_pts = cur_rate - base_rate;
        push(DiffRow {
            metric: "quarantine_rate".into(),
            baseline: format!("{base_rate:.3}%"),
            current: format!("{cur_rate:.3}%"),
            delta: if delta_pts == 0.0 {
                "=".into()
            } else {
                format!("{delta_pts:+.3}pts")
            },
            breach: (delta_pts > gate.max_quarantine_delta_pts).then(|| {
                format!(
                    "quarantine rate rose {delta_pts:+.3}pts (limit +{:.3}pts): \
                     {base_rate:.3}% -> {cur_rate:.3}%",
                    gate.max_quarantine_delta_pts
                )
            }),
        });

        // Wall time: gated only when explicitly armed, and only on a host
        // that actually had the cores the run asked for — on an
        // underprovisioned box (hardware_threads < worker threads) a
        // wall-clock "speedup regression" is scheduling noise, so the
        // check is skipped with an explicit note and throughput-per-core
        // carries the gate instead.
        let (base_wall, cur_wall) = (baseline.total_wall_ms(), current.total_wall_ms());
        let wall_growth = growth_pct(base_wall, cur_wall);
        let underprovisioned = [baseline, current].into_iter().find_map(|m| {
            m.hardware_threads
                .and_then(|hw| (hw < m.threads).then_some((hw, m.threads)))
        });
        let wall_breach = match (gate.max_wall_growth_pct, underprovisioned) {
            (Some(_), Some((hw, workers))) => {
                notes.push(format!(
                    "wall gate skipped: host offered {hw} hardware threads for {workers} \
                     workers, so wall-clock growth is scheduling noise — \
                     trips_per_sec_per_core carries the throughput gate instead"
                ));
                None
            }
            (Some(limit), None) => (wall_growth > limit).then(|| {
                format!(
                    "wall time grew {} (limit +{limit:.1}%): {base_wall}ms -> {cur_wall}ms",
                    fmt_pct(wall_growth)
                )
            }),
            (None, _) => None,
        };
        push(DiffRow {
            metric: "wall_ms".into(),
            baseline: base_wall.to_string(),
            current: cur_wall.to_string(),
            delta: if gate.max_wall_growth_pct.is_some() && underprovisioned.is_some() {
                format!("{} (not gated)", fmt_pct(wall_growth))
            } else {
                fmt_pct(wall_growth)
            },
            breach: wall_breach,
        });

        // Wafer throughput: finished searches per second per worker
        // thread, and the memory high-water mark — both optional
        // (recorded by throughput-aware campaigns), both skipped with a
        // note when only one side carries them.
        match (
            baseline.trips_per_second_per_core(),
            current.trips_per_second_per_core(),
        ) {
            (Some(base), Some(cur)) => {
                let drop_pct = 100.0 * (1.0 - cur / base);
                push(DiffRow {
                    metric: "trips_per_sec_per_core".into(),
                    baseline: format!("{base:.2}"),
                    current: format!("{cur:.2}"),
                    delta: if drop_pct == 0.0 {
                        "=".into()
                    } else {
                        format!("{:+.1}%", -drop_pct)
                    },
                    breach: gate.max_throughput_drop_pct.and_then(|limit| {
                        (drop_pct > limit).then(|| {
                            format!(
                                "trips_per_sec_per_core dropped {drop_pct:.1}% \
                                 (limit -{limit:.1}%): {base:.2} -> {cur:.2}",
                            )
                        })
                    }),
                });
            }
            (None, None) => {}
            (base, cur) => {
                push(DiffRow {
                    metric: "trips_per_sec_per_core".into(),
                    baseline: base.map_or("absent".into(), |v| format!("{v:.2}")),
                    current: cur.map_or("absent".into(), |v| format!("{v:.2}")),
                    delta: "not comparable — skipped".into(),
                    breach: None,
                });
                notes.push(String::from(
                    "trips_per_sec_per_core derivable in only one manifest — \
                     not comparable, skipped",
                ));
            }
        }
        let fmt_rss = |bytes: u64| format!("{:.1} MiB", bytes as f64 / (1 << 20) as f64);
        match (baseline.peak_rss_bytes, current.peak_rss_bytes) {
            (Some(base), Some(cur)) => {
                let growth = growth_pct(base, cur);
                push(DiffRow {
                    metric: "peak_rss".into(),
                    baseline: fmt_rss(base),
                    current: fmt_rss(cur),
                    delta: fmt_pct(growth),
                    breach: gate.max_peak_rss_growth_pct.and_then(|limit| {
                        (growth > limit).then(|| {
                            format!(
                                "peak rss grew {} (limit +{limit:.1}%): {} -> {}",
                                fmt_pct(growth),
                                fmt_rss(base),
                                fmt_rss(cur)
                            )
                        })
                    }),
                });
            }
            (None, None) => {}
            (base, cur) => {
                push(DiffRow {
                    metric: "peak_rss".into(),
                    baseline: base.map_or("absent".into(), fmt_rss),
                    current: cur.map_or("absent".into(), fmt_rss),
                    delta: "not comparable — skipped".into(),
                    breach: None,
                });
                notes.push(String::from(
                    "peak_rss recorded in only one manifest — not comparable, skipped",
                ));
            }
        }
        // Allocation economy: allocator calls per finished trip-point
        // search, recorded by allocation-aware campaign binaries. One-sided
        // (older baseline or counter-less binary) is a skip with a note,
        // never a breach — same convention as peak_rss.
        match (baseline.allocs_per_trip, current.allocs_per_trip) {
            (Some(base), Some(cur)) => {
                let growth = if base == 0.0 {
                    if cur == 0.0 {
                        0.0
                    } else {
                        f64::INFINITY
                    }
                } else {
                    100.0 * (cur / base - 1.0)
                };
                push(DiffRow {
                    metric: "allocs_per_trip".into(),
                    baseline: format!("{base:.2}"),
                    current: format!("{cur:.2}"),
                    delta: fmt_pct(growth),
                    breach: gate.max_allocs_per_trip_growth_pct.and_then(|limit| {
                        (growth > limit).then(|| {
                            format!(
                                "allocs_per_trip grew {} (limit +{limit:.1}%): \
                                 {base:.2} -> {cur:.2}",
                                fmt_pct(growth)
                            )
                        })
                    }),
                });
            }
            (None, None) => {}
            (base, cur) => {
                push(DiffRow {
                    metric: "allocs_per_trip".into(),
                    baseline: base.map_or("absent".into(), |v| format!("{v:.2}")),
                    current: cur.map_or("absent".into(), |v| format!("{v:.2}")),
                    delta: "not comparable — skipped".into(),
                    breach: None,
                });
                notes.push(String::from(
                    "allocs_per_trip recorded in only one manifest — not comparable, \
                     skipped (regenerate the baseline to re-arm)",
                ));
            }
        }

        // Recovery overhead: how much of the baseline's probe bill a
        // *resumed* run re-measured live. Journal replay re-folds
        // committed chunks without issuing probes, so a healthy resume
        // stays far below the uninterrupted bill. Armed but not resumed
        // (or resumed against an empty baseline) is a skip, not a breach.
        match (
            gate.max_recovery_overhead_pct,
            current.recovery.as_ref().filter(|r| r.resumed),
        ) {
            (Some(limit), Some(recovery)) => {
                let (base, cur) = (
                    baseline.metrics.probes_resolved,
                    current.metrics.probes_resolved,
                );
                let overhead = if base == 0 {
                    if cur == 0 {
                        0.0
                    } else {
                        f64::INFINITY
                    }
                } else {
                    100.0 * cur as f64 / base as f64
                };
                push(DiffRow {
                    metric: "recovery_overhead".into(),
                    baseline: format!("{base} probes"),
                    current: format!(
                        "{cur} live ({}/{} chunks replayed)",
                        recovery.chunks_replayed, recovery.chunks_total
                    ),
                    delta: if overhead.is_infinite() {
                        "+inf%".into()
                    } else {
                        format!("{overhead:.1}% of baseline")
                    },
                    breach: (overhead > limit).then(|| {
                        format!(
                            "recovery overhead: resumed run re-measured {overhead:.1}% \
                             of the baseline probe bill (limit {limit:.1}%): {cur} live \
                             probes vs {base} baseline"
                        )
                    }),
                });
            }
            (Some(_), None) => {
                push(DiffRow {
                    metric: "recovery_overhead".into(),
                    baseline: "-".into(),
                    current: "not a resumed run".into(),
                    delta: "not comparable — skipped".into(),
                    breach: None,
                });
                notes.push(String::from(
                    "recovery overhead gate skipped: current manifest carries no \
                     resumed durability section",
                ));
            }
            (None, _) => {}
        }

        // Trip-point extrema, when both manifests record them.
        for key in ["trip_min", "trip_max"] {
            let (base, cur) = (config_f64(baseline, key), config_f64(current, key));
            match (base, cur) {
                (Some(base), Some(cur)) => {
                    let scale = base.abs().max(1e-12);
                    let drift_pct = 100.0 * (cur - base).abs() / scale;
                    push(DiffRow {
                        metric: key.into(),
                        baseline: format!("{base}"),
                        current: format!("{cur}"),
                        delta: if drift_pct == 0.0 {
                            "=".into()
                        } else {
                            format!("{drift_pct:.3}% drift")
                        },
                        breach: (drift_pct > gate.max_extrema_drift_pct).then(|| {
                            format!(
                                "{key} drifted {drift_pct:.3}% (limit {:.3}%): {base} -> {cur}",
                                gate.max_extrema_drift_pct
                            )
                        }),
                    });
                }
                (None, None) => {}
                _ => {
                    push(DiffRow {
                        metric: key.into(),
                        baseline: base.map_or("absent".into(), |v| format!("{v}")),
                        current: cur.map_or("absent".into(), |v| format!("{v}")),
                        delta: "not comparable — skipped".into(),
                        breach: None,
                    });
                    notes.push(format!(
                        "{key} recorded in only one manifest — not comparable, skipped \
                         (regenerate the baseline to re-arm)"
                    ));
                }
            }
        }

        ManifestDiff { rows, breaches, notes }
    }

    /// Whether the gate passes (no breaches).
    pub fn passes(&self) -> bool {
        self.breaches.is_empty()
    }

    /// The comparison as a table, with breach lines at the bottom.
    pub fn render(&self, gated: bool) -> String {
        let mut out = String::new();
        let width = self
            .rows
            .iter()
            .map(|r| r.metric.len())
            .max()
            .unwrap_or(8)
            .max("metric".len());
        let _ = writeln!(
            out,
            "{:<width$}  {:>16} {:>16} {:>14}",
            "metric", "baseline", "current", "delta"
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{:<width$}  {:>16} {:>16} {:>14}{}",
                row.metric,
                row.baseline,
                row.current,
                row.delta,
                if row.breach.is_some() { "  <- BREACH" } else { "" }
            );
        }
        if !self.notes.is_empty() {
            let _ = writeln!(out, "\nnotes:");
            for note in &self.notes {
                let _ = writeln!(out, "  - {note}");
            }
        }
        if gated {
            if self.passes() {
                let _ = writeln!(out, "\ngate: PASS");
            } else {
                let _ = writeln!(out, "\ngate: FAIL ({} breaches)", self.breaches.len());
                for breach in &self.breaches {
                    let _ = writeln!(out, "  - {breach}");
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest(probes: u64, quarantined: u64, wall_ms: u64) -> RunManifest {
        let mut m = RunManifest::new("fig2", 0xDA7E_2005, 1)
            .with_config("trip_min", 82.5)
            .with_config("trip_max", 118.75);
        m.metrics.probes_resolved = probes;
        m.metrics.probes_issued = probes;
        m.metrics.searches_finished = 12;
        m.metrics.quarantined = quarantined;
        m.phases = vec![cichar_trace::PhaseSummary {
            name: "dsv".into(),
            wall_ms,
            probes,
        }];
        m
    }

    #[test]
    fn self_compare_passes() {
        let m = manifest(1000, 2, 40);
        let diff = ManifestDiff::compare(&m, &m, &GateConfig::default());
        assert!(diff.passes(), "breaches: {:?}", diff.breaches);
        assert!(diff.render(true).contains("gate: PASS"));
    }

    #[test]
    fn doubled_probe_count_breaches() {
        let base = manifest(1000, 2, 40);
        let cur = manifest(2000, 2, 40);
        let diff = ManifestDiff::compare(&base, &cur, &GateConfig::default());
        assert!(!diff.passes());
        assert!(
            diff.breaches.iter().any(|b| b.contains("probes_resolved")),
            "{:?}",
            diff.breaches
        );
        assert!(diff.render(true).contains("gate: FAIL"));
    }

    #[test]
    fn quarantine_rate_gate_uses_percentage_points() {
        let base = manifest(1000, 0, 40);
        let cur = manifest(1000, 10, 40); // 1.0% > 0.5pts limit
        let diff = ManifestDiff::compare(&base, &cur, &GateConfig::default());
        assert!(diff.breaches.iter().any(|b| b.contains("quarantine")));
        // Within the limit: 4 of 1000 is +0.4pts.
        let ok = ManifestDiff::compare(&base, &manifest(1000, 4, 40), &GateConfig::default());
        assert!(ok.passes(), "{:?}", ok.breaches);
    }

    #[test]
    fn wall_gate_is_off_by_default_and_arms_explicitly() {
        let base = manifest(1000, 0, 10);
        let cur = manifest(1000, 0, 1000); // 100x slower
        assert!(ManifestDiff::compare(&base, &cur, &GateConfig::default()).passes());
        let armed = GateConfig {
            max_wall_growth_pct: Some(50.0),
            ..GateConfig::default()
        };
        let diff = ManifestDiff::compare(&base, &cur, &armed);
        assert!(diff.breaches.iter().any(|b| b.contains("wall time")));
    }

    #[test]
    fn extrema_drift_breaches_and_one_sided_extrema_breach() {
        let base = manifest(1000, 0, 40);
        let mut cur = manifest(1000, 0, 40);
        for (k, v) in cur.config.iter_mut() {
            if k == "trip_max" {
                *v = "119.75".into(); // ~0.84% drift > 0.25% limit
            }
        }
        let diff = ManifestDiff::compare(&base, &cur, &GateConfig::default());
        assert!(diff.breaches.iter().any(|b| b.contains("trip_max")), "{:?}", diff.breaches);

        let mut naked = manifest(1000, 0, 40);
        naked.config.retain(|(k, _)| !k.starts_with("trip_"));
        let diff = ManifestDiff::compare(&base, &naked, &GateConfig::default());
        assert!(diff.passes(), "one-sided optional metric must not fail the gate");
        assert!(
            diff.notes.iter().any(|n| n.contains("trip_min") && n.contains("skipped")),
            "{:?}",
            diff.notes
        );
        assert!(diff.render(true).contains("not comparable — skipped"));
    }

    #[test]
    fn probes_per_trip_gate_rewards_speculation_and_catches_regression() {
        // Same resolved probes, but the current run marks a third of them
        // speculative: the honest per-trip bill *improves* and the gate
        // passes with headroom.
        let base = manifest(1200, 0, 40);
        let mut improved = manifest(1200, 0, 40);
        improved.metrics.probes_speculative = 400;
        let diff = ManifestDiff::compare(&base, &improved, &GateConfig::default());
        assert!(diff.passes(), "{:?}", diff.breaches);
        let row = diff
            .rows
            .iter()
            .find(|r| r.metric == "probes_per_trip")
            .expect("row present");
        assert_eq!(row.baseline, "100.00");
        assert_eq!(row.current, "66.67");
        // The reverse direction — losing the speculation accounting —
        // reads as a +50% per-trip blowup and breaches.
        let diff = ManifestDiff::compare(&improved, &base, &GateConfig::default());
        assert!(
            diff.breaches.iter().any(|b| b.contains("probes_per_trip")),
            "{:?}",
            diff.breaches
        );
    }

    #[test]
    fn one_sided_probes_per_trip_is_skipped_with_a_note() {
        let base = manifest(1000, 0, 40);
        let mut searchless = manifest(1000, 0, 40);
        searchless.metrics.searches_finished = 0;
        let diff = ManifestDiff::compare(&base, &searchless, &GateConfig::default());
        assert!(diff.passes(), "{:?}", diff.breaches);
        assert!(
            diff.notes
                .iter()
                .any(|n| n.contains("probes_per_trip") && n.contains("only one manifest")),
            "{:?}",
            diff.notes
        );
    }

    #[test]
    fn wall_gate_defers_to_per_core_throughput_on_underprovisioned_hosts() {
        // Baseline from a 8-core box, current from a 1-core box running a
        // 4-thread policy: the armed wall gate must skip (with a note),
        // while the armed throughput gate still judges per-core numbers.
        let armed = GateConfig {
            max_wall_growth_pct: Some(20.0),
            max_throughput_drop_pct: Some(30.0),
            ..GateConfig::default()
        };
        let mut base = manifest(1000, 0, 100);
        base.threads = 4;
        base.hardware_threads = Some(8);
        let mut cur = manifest(1000, 0, 400); // 4x slower wall
        cur.threads = 4;
        cur.hardware_threads = Some(1);
        let diff = ManifestDiff::compare(&base, &cur, &armed);
        assert!(
            !diff.breaches.iter().any(|b| b.contains("wall time")),
            "{:?}",
            diff.breaches
        );
        assert!(
            diff.notes.iter().any(|n| n.contains("wall gate skipped")),
            "{:?}",
            diff.notes
        );
        // 12 searches in 100ms vs 400ms: per-core throughput dropped 75%.
        assert!(
            diff.breaches
                .iter()
                .any(|b| b.contains("trips_per_sec_per_core")),
            "{:?}",
            diff.breaches
        );
        // On a fully provisioned host the same wall growth breaches.
        cur.hardware_threads = Some(8);
        let diff = ManifestDiff::compare(&base, &cur, &armed);
        assert!(diff.breaches.iter().any(|b| b.contains("wall time")));
    }

    #[test]
    fn peak_rss_gate_judges_growth_and_skips_one_sided() {
        let armed = GateConfig {
            max_peak_rss_growth_pct: Some(25.0),
            ..GateConfig::default()
        };
        let mut base = manifest(1000, 0, 40);
        base.peak_rss_bytes = Some(100 << 20);
        let mut cur = manifest(1000, 0, 40);
        cur.peak_rss_bytes = Some(200 << 20);
        let diff = ManifestDiff::compare(&base, &cur, &armed);
        assert!(diff.breaches.iter().any(|b| b.contains("peak rss")), "{:?}", diff.breaches);

        // Baseline without the field (older binary): skipped, not failed.
        let naked = manifest(1000, 0, 40);
        let diff = ManifestDiff::compare(&naked, &cur, &armed);
        assert!(diff.passes(), "{:?}", diff.breaches);
        assert!(diff.notes.iter().any(|n| n.contains("peak_rss")), "{:?}", diff.notes);
    }

    #[test]
    fn allocs_per_trip_gate_judges_growth_and_skips_one_sided() {
        let armed = GateConfig {
            max_allocs_per_trip_growth_pct: Some(20.0),
            ..GateConfig::default()
        };
        let mut base = manifest(1000, 0, 40);
        base.allocs_per_trip = Some(6.0);
        let mut cur = manifest(1000, 0, 40);
        cur.allocs_per_trip = Some(6.5); // +8.3% — within the limit
        let diff = ManifestDiff::compare(&base, &cur, &armed);
        assert!(diff.passes(), "{:?}", diff.breaches);

        cur.allocs_per_trip = Some(21.0); // the pre-arena bill creeping back
        let diff = ManifestDiff::compare(&base, &cur, &armed);
        assert!(
            diff.breaches.iter().any(|b| b.contains("allocs_per_trip")),
            "{:?}",
            diff.breaches
        );
        // Unarmed, the same growth is reported but never breaches.
        let diff = ManifestDiff::compare(&base, &cur, &GateConfig::default());
        assert!(diff.passes(), "{:?}", diff.breaches);
        assert!(diff.render(false).contains("allocs_per_trip"));

        // Baseline without the counter (older binary): skipped, not failed.
        let naked = manifest(1000, 0, 40);
        let diff = ManifestDiff::compare(&naked, &cur, &armed);
        assert!(diff.passes(), "{:?}", diff.breaches);
        assert!(
            diff.notes.iter().any(|n| n.contains("allocs_per_trip")),
            "{:?}",
            diff.notes
        );
    }

    #[test]
    fn recovery_overhead_gate_judges_resumed_runs_only() {
        let armed = GateConfig {
            max_recovery_overhead_pct: Some(5.0),
            ..GateConfig::default()
        };
        let base = manifest(1000, 0, 40);

        // A healthy resume: the journal replayed nearly everything, the
        // live bill is 2% of baseline.
        let mut resumed = manifest(20, 0, 40);
        resumed.recovery = Some(cichar_trace::RecoverySection {
            resumed: true,
            chunks_replayed: 9,
            chunks_total: 10,
            ..cichar_trace::RecoverySection::default()
        });
        let diff = ManifestDiff::compare(&base, &resumed, &armed);
        assert!(diff.passes(), "{:?}", diff.breaches);
        assert!(diff.render(false).contains("9/10 chunks replayed"));

        // A resume that re-measured half the campaign breaches.
        let mut wasteful = manifest(500, 0, 40);
        wasteful.recovery = resumed.recovery;
        let diff = ManifestDiff::compare(&base, &wasteful, &armed);
        assert!(
            diff.breaches.iter().any(|b| b.contains("recovery")),
            "{:?}",
            diff.breaches
        );

        // Armed against a non-resumed current: skipped with a note, and
        // the probe gate still judges the run on its own merits.
        let fresh = manifest(1000, 0, 40);
        let diff = ManifestDiff::compare(&base, &fresh, &armed);
        assert!(diff.passes(), "{:?}", diff.breaches);
        assert!(
            diff.notes.iter().any(|n| n.contains("recovery overhead gate skipped")),
            "{:?}",
            diff.notes
        );
    }

    #[test]
    fn campaign_mismatch_breaches() {
        let base = manifest(1000, 0, 40);
        let mut cur = manifest(1000, 0, 40);
        cur.campaign = "fig3".into();
        let diff = ManifestDiff::compare(&base, &cur, &GateConfig::default());
        assert!(diff.breaches.iter().any(|b| b.contains("campaign mismatch")));
    }

    #[test]
    fn zero_baseline_growth_is_infinite_and_breaches() {
        let base = manifest(0, 0, 40);
        let cur = manifest(10, 0, 40);
        let diff = ManifestDiff::compare(&base, &cur, &GateConfig::default());
        assert!(!diff.passes());
        assert!(diff.render(false).contains("+inf%"));
    }
}
