//! The trace-query engine: loads a JSONL trace stream and computes the
//! campaign's *search anatomy* — where the probes went.
//!
//! The paper's efficiency claims (fig. 3's STP saving, Table 1's
//! technique comparison) are statements about probe budgets; this module
//! turns a raw event stream back into those numbers, per search and per
//! phase: probes per search, STP step-count distributions split by the
//! eq. 3 / eq. 4 walk orientations, cache-hit ratios, the
//! retry → vote → quarantine recovery funnel, and GA / committee
//! convergence trajectories.

use cichar_trace::{MetricsRegistry, MetricsSnapshot, TraceEvent, TraceRecord};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One finished trip-point search, reassembled from its events.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchAnatomy {
    /// The test index the search belongs to (`None` for campaign-scoped
    /// searches, which the current instrumentation never emits).
    pub test: Option<u64>,
    /// The algorithm (`stp`, `successive_approximation`, …).
    pub strategy: String,
    /// The walk orientation: `eq3` (pass below fail) or `eq4`.
    pub order: String,
    /// The reference trip point anchoring an STP walk, if any.
    pub reference: Option<f64>,
    /// STP window-walk iterations observed.
    pub steps: u64,
    /// Steps whose growing window saturated at the `CR` edge.
    pub clamped_steps: u64,
    /// Probe verdicts observed during the search.
    pub probes: u64,
    /// Of those, answered from the oracle memo cache.
    pub cached: u64,
    /// Whether the search converged on a trip point.
    pub converged: bool,
    /// The reported trip point, when converged.
    pub trip_point: Option<f64>,
    /// Wall-clock microseconds from start to finish record (0 in
    /// normalized streams, whose timestamps are stripped).
    pub wall_us: u64,
}

/// Summary statistics over one quantity (integer-valued observations).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Stats {
    /// Number of observations.
    pub count: u64,
    /// Sum of the observations.
    pub sum: u64,
    /// Smallest observation (0 when `count == 0`).
    pub min: u64,
    /// Largest observation.
    pub max: u64,
}

impl Stats {
    fn observe(&mut self, value: u64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum += value;
    }

    /// Mean observation (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// One GA generation's convergence record (fitness trajectory from the
/// event stream; probe cost is amortized, see
/// [`TraceAnalysis::ga_amortized_probes_per_generation`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaGeneration {
    /// The generation index (0-based).
    pub generation: u64,
    /// Best fitness seen so far.
    pub best_so_far: f64,
    /// Best fitness within this generation.
    pub generation_best: f64,
    /// Mean fitness of this generation.
    pub mean: f64,
}

/// One campaign phase's share of the stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseSlice {
    /// The phase name.
    pub phase: String,
    /// Records attributed to the phase.
    pub records: u64,
    /// Probe verdicts observed during the phase.
    pub probes: u64,
    /// Searches finished during the phase.
    pub searches: u64,
    /// Wall-clock microseconds covered by the phase (from record
    /// timestamps; 0 in normalized streams).
    pub wall_us: u64,
}

/// A search still being assembled while scanning the stream.
#[derive(Debug)]
struct OpenSearch {
    anatomy: SearchAnatomy,
    started_us: u64,
}

/// The full analysis of one trace stream.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TraceAnalysis {
    /// Records analyzed.
    pub records: u64,
    /// Input lines that failed to parse as trace records.
    pub skipped_lines: u64,
    /// Every finished search, in stream order.
    pub searches: Vec<SearchAnatomy>,
    /// The stream's counters and histograms, folded by the tracer's own
    /// [`MetricsRegistry::observe`]: for a complete stream, equal to the
    /// snapshot the live tracer took.
    pub metrics: MetricsSnapshot,
    /// Quarantined measurement points, by reason.
    pub quarantined: BTreeMap<String, u64>,
    /// GA generations, in emission order.
    pub ga: Vec<GaGeneration>,
    /// Committee learning rounds: (epoch, members, train_error).
    pub committee: Vec<(u64, u64, f64)>,
    /// Per-phase slices, in phase order.
    pub phases: Vec<PhaseSlice>,
}

impl TraceAnalysis {
    /// Analyzes a JSONL trace stream. Unparseable lines are counted in
    /// [`TraceAnalysis::skipped_lines`], not fatal — a truncated or
    /// hand-edited trace still yields the anatomy of what parsed.
    pub fn from_jsonl(text: &str) -> Self {
        let mut records = Vec::new();
        let mut skipped = 0u64;
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            match serde_json::from_str::<TraceRecord>(line) {
                Ok(record) => records.push(record),
                Err(_) => skipped += 1,
            }
        }
        let mut analysis = Self::from_records(&records);
        analysis.skipped_lines = skipped;
        analysis
    }

    /// Analyzes a record stream directly (the in-memory path).
    pub fn from_records(records: &[TraceRecord]) -> Self {
        let mut analysis = TraceAnalysis::default();
        // One search can be open per test at a time: events of one span
        // are contiguous in the stream, and searches within a span are
        // strictly sequential.
        let mut open: BTreeMap<Option<u64>, OpenSearch> = BTreeMap::new();
        let mut last_ts = 0u64;
        let registry = MetricsRegistry::new();
        let mut steps_in_search = 0u64;

        for record in records {
            registry.observe(&record.event, &mut steps_in_search);
            analysis.records += 1;
            last_ts = last_ts.max(record.ts_us);
            if let Some(slice) = analysis.phases.last_mut() {
                slice.records += 1;
            }
            match &record.event {
                TraceEvent::CampaignPhaseChanged { phase } => {
                    if let Some(previous) = analysis.phases.last_mut() {
                        previous.records -= 1; // the change belongs to the new phase
                    }
                    analysis.close_phase(record.ts_us);
                    analysis.phases.push(PhaseSlice {
                        phase: phase.clone(),
                        records: 1,
                        probes: 0,
                        searches: 0,
                        wall_us: record.ts_us, // start mark; closed later
                    });
                }
                TraceEvent::ProbeResolved { cached, .. } => {
                    if let Some(slice) = analysis.phases.last_mut() {
                        slice.probes += 1;
                    }
                    if let Some(search) = open.get_mut(&record.test) {
                        search.anatomy.probes += 1;
                        if *cached {
                            search.anatomy.cached += 1;
                        }
                    }
                }
                TraceEvent::SearchStarted {
                    strategy,
                    order,
                    reference,
                    ..
                } => {
                    open.insert(
                        record.test,
                        OpenSearch {
                            anatomy: SearchAnatomy {
                                test: record.test,
                                strategy: strategy.to_string(),
                                order: order.to_string(),
                                reference: *reference,
                                steps: 0,
                                clamped_steps: 0,
                                probes: 0,
                                cached: 0,
                                converged: false,
                                trip_point: None,
                                wall_us: 0,
                            },
                            started_us: record.ts_us,
                        },
                    );
                }
                TraceEvent::StepTaken { clamped, .. } => {
                    if let Some(search) = open.get_mut(&record.test) {
                        search.anatomy.steps += 1;
                        if *clamped {
                            search.anatomy.clamped_steps += 1;
                        }
                    }
                }
                TraceEvent::SearchFinished {
                    trip_point,
                    converged,
                    ..
                } => {
                    if let Some(mut search) = open.remove(&record.test) {
                        search.anatomy.converged = *converged;
                        search.anatomy.trip_point = *trip_point;
                        search.anatomy.wall_us =
                            record.ts_us.saturating_sub(search.started_us);
                        analysis.searches.push(search.anatomy);
                        if let Some(slice) = analysis.phases.last_mut() {
                            slice.searches += 1;
                        }
                    }
                }
                TraceEvent::Quarantined { reason } => {
                    *analysis.quarantined.entry(reason.to_string()).or_insert(0) += 1;
                }
                TraceEvent::GaGenerationEvaluated {
                    generation,
                    best_so_far,
                    generation_best,
                    mean,
                } => analysis.ga.push(GaGeneration {
                    generation: *generation,
                    best_so_far: *best_so_far,
                    generation_best: *generation_best,
                    mean: *mean,
                }),
                TraceEvent::CommitteeEpochFinished {
                    epoch,
                    members,
                    train_error,
                } => analysis.committee.push((*epoch, *members, *train_error)),
                _ => {}
            }
        }
        analysis.close_phase(last_ts);
        analysis.metrics = registry.snapshot();
        analysis
    }

    /// Closes the open phase slice: its `wall_us` start mark becomes the
    /// covered duration.
    fn close_phase(&mut self, now_us: u64) {
        if let Some(slice) = self.phases.last_mut() {
            slice.wall_us = now_us.saturating_sub(slice.wall_us);
        }
    }

    /// Cache-hit ratio over all resolved probes, in [0, 1].
    pub fn cache_hit_ratio(&self) -> f64 {
        let m = &self.metrics;
        if m.probes_resolved == 0 {
            0.0
        } else {
            m.probes_cached as f64 / m.probes_resolved as f64
        }
    }

    /// Probes-per-search statistics over searches matching `filter`.
    pub fn probe_stats(&self, filter: impl Fn(&SearchAnatomy) -> bool) -> Stats {
        let mut stats = Stats::default();
        for search in self.searches.iter().filter(|s| filter(s)) {
            stats.observe(search.probes);
        }
        stats
    }

    /// Step-count statistics over STP walks with the given orientation
    /// (`eq3` or `eq4`) — the paper's two step-factor directions.
    pub fn step_stats(&self, order: &str) -> Stats {
        let mut stats = Stats::default();
        for search in self
            .searches
            .iter()
            .filter(|s| s.order == order && s.reference.is_some())
        {
            stats.observe(search.steps);
        }
        stats
    }

    /// Searches that walked from a reference trip point (eqs. 3/4).
    pub fn stp_walks(&self) -> impl Iterator<Item = &SearchAnatomy> {
        self.searches.iter().filter(|s| s.reference.is_some())
    }

    /// Amortized probe cost per GA generation: probes in the stream
    /// divided by generations. Per-generation attribution is impossible
    /// from the stream alone — generation events are emitted as a batch
    /// after the run — so this is an average, labeled as such.
    pub fn ga_amortized_probes_per_generation(&self) -> Option<f64> {
        if self.ga.is_empty() {
            return None;
        }
        let ga_phase_probes: u64 = self
            .phases
            .iter()
            .filter(|p| p.phase.contains("nnga") || p.phase.contains("ga"))
            .map(|p| p.probes)
            .sum();
        let probes = if ga_phase_probes > 0 {
            ga_phase_probes
        } else {
            self.metrics.probes_resolved
        };
        Some(probes as f64 / self.ga.len() as f64)
    }

    /// The human-readable summary table (`cichar-report summarize`).
    pub fn render(&self) -> String {
        let m = &self.metrics;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace summary: {} records{}",
            self.records,
            if self.skipped_lines > 0 {
                format!(" ({} unparseable lines skipped)", self.skipped_lines)
            } else {
                String::new()
            }
        );
        let _ = writeln!(
            out,
            "probes: {} resolved ({} issued, {} cached) | cache-hit ratio {:.1}%",
            m.probes_resolved,
            m.probes_issued,
            m.probes_cached,
            100.0 * self.cache_hit_ratio()
        );
        let converged = self.searches.iter().filter(|s| s.converged).count();
        let _ = writeln!(
            out,
            "searches: {} finished, {} converged ({:.1}%)",
            self.searches.len(),
            converged,
            if self.searches.is_empty() {
                100.0
            } else {
                100.0 * converged as f64 / self.searches.len() as f64
            }
        );

        let _ = writeln!(out, "\nsearch anatomy:");
        let _ = writeln!(
            out,
            "  {:<24} {:>7} {:>14} {:>13}",
            "kind", "count", "probes/search", "steps/search"
        );
        let full = self.probe_stats(|s| s.reference.is_none());
        let _ = writeln!(
            out,
            "  {:<24} {:>7} {:>14.1} {:>13}",
            "full-range (eq. 2)", full.count, full.mean(), "-"
        );
        for order in ["eq3", "eq4"] {
            let probes = self.probe_stats(|s| s.reference.is_some() && s.order == order);
            let steps = self.step_stats(order);
            let _ = writeln!(
                out,
                "  {:<24} {:>7} {:>14.1} {:>10.1} [{}..{}]",
                format!("stp walk ({order})"),
                probes.count,
                probes.mean(),
                steps.mean(),
                steps.min,
                steps.max
            );
        }
        let clamped: u64 = self.searches.iter().map(|s| s.clamped_steps).sum();
        if clamped > 0 {
            let _ = writeln!(out, "  window clamps at CR edge: {clamped}");
        }

        if m.faults() + m.retries + m.vote_rounds + m.quarantined > 0 {
            let _ = writeln!(out, "\nrecovery funnel:");
            let _ = writeln!(
                out,
                "  faults injected: {} ({} dropout, {} flip, {} stuck, {} abort, {} stall)",
                m.faults(),
                m.faults_dropout,
                m.faults_flip,
                m.faults_stuck,
                m.faults_abort,
                m.faults_stall
            );
            if m.watchdog_timeouts + m.breaker_trips > 0 {
                let _ = writeln!(
                    out,
                    "  -> watchdog timeouts: {} | breaker trips: {}",
                    m.watchdog_timeouts, m.breaker_trips
                );
            }
            let _ = writeln!(out, "  -> retries scheduled: {}", m.retries);
            let _ = writeln!(out, "  -> votes resolved:    {}", m.vote_rounds);
            let quarantined: Vec<String> = self
                .quarantined
                .iter()
                .map(|(reason, n)| format!("{reason}: {n}"))
                .collect();
            let _ = writeln!(
                out,
                "  -> quarantined:       {}{}",
                m.quarantined,
                if quarantined.is_empty() {
                    String::new()
                } else {
                    format!(" ({})", quarantined.join(", "))
                }
            );
        }

        if m.alarms_raised > 0 {
            let _ = writeln!(
                out,
                "\nhealth alarms: {} raised, {} cleared",
                m.alarms_raised, m.alarms_cleared
            );
        }

        if !self.phases.is_empty() {
            let _ = writeln!(out, "\nphases:");
            let _ = writeln!(
                out,
                "  {:<16} {:>9} {:>9} {:>9} {:>11}",
                "phase", "records", "probes", "searches", "wall ms"
            );
            for slice in &self.phases {
                let _ = writeln!(
                    out,
                    "  {:<16} {:>9} {:>9} {:>9} {:>11.1}",
                    slice.phase,
                    slice.records,
                    slice.probes,
                    slice.searches,
                    slice.wall_us as f64 / 1e3
                );
            }
        }

        if !self.ga.is_empty() {
            let best = self
                .ga
                .iter()
                .map(|g| g.best_so_far)
                .fold(f64::NEG_INFINITY, f64::max);
            let _ = writeln!(
                out,
                "\nga: {} generations, best fitness {:.4}, amortized {:.1} probes/generation",
                self.ga.len(),
                best,
                self.ga_amortized_probes_per_generation().unwrap_or(0.0)
            );
            let _ = writeln!(
                out,
                "  {:>5} {:>13} {:>13} {:>13}",
                "gen", "best_so_far", "gen_best", "mean"
            );
            for g in &self.ga {
                let _ = writeln!(
                    out,
                    "  {:>5} {:>13.4} {:>13.4} {:>13.4}",
                    g.generation, g.best_so_far, g.generation_best, g.mean
                );
            }
        }
        if !self.committee.is_empty() {
            let _ = writeln!(out, "\ncommittee epochs:");
            for (epoch, members, error) in &self.committee {
                let _ = writeln!(
                    out,
                    "  epoch {epoch}: {members} members, train error {error:.5}"
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cichar_trace::{FaultKind, TraceVerdict};

    fn record(seq: u64, test: Option<u64>, ts_us: u64, event: TraceEvent) -> TraceRecord {
        TraceRecord { seq, test, ts_us, event }
    }

    /// A two-phase mini stream: one full-range search, one eq3 STP walk
    /// with a cached probe, a retry, and a quarantine.
    fn stream() -> Vec<TraceRecord> {
        let mut seq = 0u64;
        let mut next = |test: Option<u64>, ts: u64, event: TraceEvent| {
            let r = record(seq, test, ts, event);
            seq += 1;
            r
        };
        vec![
            next(None, 0, TraceEvent::CampaignPhaseChanged { phase: "full_range".into() }),
            next(Some(0), 10, TraceEvent::SearchStarted {
                strategy: "successive_approximation".into(),
                order: "eq3".into(),
                window: [80.0, 130.0],
                reference: None,
                sf: None,
            }),
            next(Some(0), 11, TraceEvent::ProbeIssued { value: 105.0, speculative: false }),
            next(Some(0), 12, TraceEvent::ProbeResolved {
                value: 105.0,
                verdict: TraceVerdict::Pass,
                cached: false,
            }),
            next(Some(0), 20, TraceEvent::SearchFinished {
                strategy: "successive_approximation".into(),
                trip_point: Some(105.0),
                converged: true,
                probes: 1,
            }),
            next(None, 30, TraceEvent::CampaignPhaseChanged { phase: "stp".into() }),
            next(Some(1), 40, TraceEvent::SearchStarted {
                strategy: "stp".into(),
                order: "eq3".into(),
                window: [80.0, 130.0],
                reference: Some(105.0),
                sf: Some(1.0),
            }),
            next(Some(1), 41, TraceEvent::ProbeResolved {
                value: 105.0,
                verdict: TraceVerdict::Pass,
                cached: true,
            }),
            next(Some(1), 42, TraceEvent::StepTaken {
                iteration: 1,
                step_factor: 1.0,
                value: 106.0,
                clamped: false,
                verdict: TraceVerdict::Fail,
            }),
            next(Some(1), 43, TraceEvent::RetryScheduled { attempt: 1, backoff_us: 50.0 }),
            next(Some(1), 44, TraceEvent::FaultInjected { kind: FaultKind::Dropout }),
            next(Some(1), 45, TraceEvent::StepTaken {
                iteration: 2,
                step_factor: 2.0,
                value: 108.0,
                clamped: true,
                verdict: TraceVerdict::Fail,
            }),
            next(Some(1), 50, TraceEvent::SearchFinished {
                strategy: "stp".into(),
                trip_point: Some(105.5),
                converged: true,
                probes: 2,
            }),
            next(Some(2), 55, TraceEvent::Quarantined { reason: "dropout".into() }),
            next(None, 60, TraceEvent::GaGenerationEvaluated {
                generation: 0,
                best_so_far: 0.8,
                generation_best: 0.8,
                mean: 0.5,
            }),
        ]
    }

    #[test]
    fn anatomy_reassembles_searches() {
        let analysis = TraceAnalysis::from_records(&stream());
        assert_eq!(analysis.searches.len(), 2);
        let full = &analysis.searches[0];
        assert_eq!(full.strategy, "successive_approximation");
        assert_eq!(full.reference, None);
        assert_eq!(full.probes, 1);
        assert_eq!(full.wall_us, 10);
        let stp = &analysis.searches[1];
        assert_eq!(stp.order, "eq3");
        assert_eq!(stp.steps, 2);
        assert_eq!(stp.clamped_steps, 1);
        assert_eq!(stp.cached, 1);
        assert!(stp.converged);
    }

    #[test]
    fn aggregates_split_full_range_from_stp_walks() {
        let analysis = TraceAnalysis::from_records(&stream());
        let full = analysis.probe_stats(|s| s.reference.is_none());
        assert_eq!((full.count, full.sum), (1, 1));
        let eq3 = analysis.step_stats("eq3");
        assert_eq!((eq3.count, eq3.sum, eq3.min, eq3.max), (1, 2, 2, 2));
        assert_eq!(analysis.step_stats("eq4").count, 0);
        assert_eq!(analysis.stp_walks().count(), 1);
        assert!((analysis.cache_hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn funnel_and_phases_are_accounted() {
        let analysis = TraceAnalysis::from_records(&stream());
        assert_eq!(analysis.metrics.retries, 1);
        assert_eq!(analysis.metrics.faults_dropout, 1);
        assert_eq!(analysis.metrics.quarantined, 1);
        assert_eq!(analysis.quarantined.get("dropout"), Some(&1));
        assert_eq!(analysis.phases.len(), 2);
        assert_eq!(analysis.phases[0].phase, "full_range");
        assert_eq!(analysis.phases[0].probes, 1);
        assert_eq!(analysis.phases[0].searches, 1);
        assert_eq!(analysis.phases[1].probes, 1);
        assert_eq!(analysis.ga.len(), 1);
    }

    #[test]
    fn jsonl_path_counts_skipped_lines() {
        let mut text = String::new();
        for r in stream() {
            text.push_str(&serde_json::to_string(&r).expect("serializes"));
            text.push('\n');
        }
        text.push_str("not json\n\n");
        let analysis = TraceAnalysis::from_jsonl(&text);
        assert_eq!(analysis.records, 15);
        assert_eq!(analysis.skipped_lines, 1);
        assert_eq!(analysis, {
            let mut direct = TraceAnalysis::from_records(&stream());
            direct.skipped_lines = 1;
            direct
        });
    }

    #[test]
    fn render_mentions_every_section() {
        let rendered = TraceAnalysis::from_records(&stream()).render();
        for needle in [
            "trace summary",
            "cache-hit ratio",
            "full-range (eq. 2)",
            "stp walk (eq3)",
            "recovery funnel",
            "quarantined",
            "phases:",
            "ga: 1 generations",
        ] {
            assert!(rendered.contains(needle), "missing {needle:?} in:\n{rendered}");
        }
    }

    #[test]
    fn alarm_events_are_counted_and_the_analysis_round_trips_as_json() {
        let mut records = stream();
        let n = records.len() as u64;
        records.push(record(n, None, 70, TraceEvent::AlarmRaised {
            alarm: "stall_silence".into(),
            heartbeat: 3,
            detail: "no probes resolved".into(),
        }));
        records.push(record(n + 1, None, 80, TraceEvent::AlarmCleared {
            alarm: "stall_silence".into(),
            heartbeat: 4,
        }));
        let analysis = TraceAnalysis::from_records(&records);
        let m = &analysis.metrics;
        assert_eq!((m.alarms_raised, m.alarms_cleared), (1, 1));
        assert!(analysis.render().contains("health alarms: 1 raised, 1 cleared"));
        // The machine-readable path (`summarize --json`) is the same
        // struct serialized; it must survive a round trip losslessly.
        let json = serde_json::to_string(&analysis).expect("serializes");
        let back: TraceAnalysis = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, analysis);
    }

    #[test]
    fn empty_stream_is_harmless() {
        let analysis = TraceAnalysis::from_records(&[]);
        assert_eq!(analysis.records, 0);
        assert_eq!(analysis.cache_hit_ratio(), 0.0);
        assert_eq!(analysis.ga_amortized_probes_per_generation(), None);
        assert!(analysis.render().contains("0 records"));
    }
}
