//! The typed event taxonomy of the observability layer.
//!
//! Events describe what the characterization machinery *did*, not what it
//! concluded — conclusions live in the reports and ledgers. Every event is
//! serializable so sinks can persist a campaign as one JSON value per line
//! and golden tests can diff normalized streams.

use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// `skip_serializing_if` helper: omit a `false` flag from the wire format.
#[allow(clippy::trivially_copy_pass_by_ref)]
fn is_false(flag: &bool) -> bool {
    !*flag
}

/// A probe verdict as seen by the trace layer.
///
/// Mirrors `cichar_search::Probe` without depending on it — the trace crate
/// sits below every instrumented crate in the dependency graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceVerdict {
    /// The device met the specification at the probed value.
    Pass,
    /// The device violated the specification at the probed value.
    Fail,
    /// The tester produced no verdict (dropout, abort, dead channel).
    Invalid,
}

/// The kind of tester fault the fault model injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// A probe contact dropout: the strobe returned no verdict.
    Dropout,
    /// A transient verdict flip.
    Flip,
    /// A stuck channel replaying its latched verdict.
    Stuck,
    /// A session abort burst starting.
    Abort,
    /// A hung strobe: the verdict arrived, but only after a long simulated
    /// stall on the tester channel.
    Stall,
}

/// One structured trace event.
///
/// Serialized externally tagged (`{"StepTaken": {...}}`), one event per
/// line in a [`JsonlSink`](crate::JsonlSink) stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// A campaign entered a new phase (march baseline, random sweep,
    /// learning, optimization, …).
    CampaignPhaseChanged {
        /// The phase name.
        phase: String,
    },
    /// A physical measurement is about to be issued to the tester.
    ///
    /// Cache hits resolve without an issue event, which is what makes the
    /// `probes == cached + issued` metrics invariant hold by construction.
    ProbeIssued {
        /// The parameter value being probed.
        value: f64,
        /// Whether this probe was pre-issued speculatively (e.g. a child of
        /// the next bisection level) and may be discarded unused. Skipped
        /// when `false` so pre-existing traces stay byte-identical.
        #[serde(default, skip_serializing_if = "is_false")]
        speculative: bool,
    },
    /// A probe request produced a verdict.
    ProbeResolved {
        /// The parameter value that was probed.
        value: f64,
        /// The verdict.
        verdict: TraceVerdict,
        /// Whether the verdict came from the oracle memo cache instead of
        /// a physical measurement.
        cached: bool,
    },
    /// A trip-point search began.
    SearchStarted {
        /// The algorithm: `stp`, `successive_approximation`, `binary`,
        /// `linear`. Emitters borrow a static name, so building the
        /// event allocates nothing; a parsed stream owns its text.
        strategy: Cow<'static, str>,
        /// The region order: `eq3` (pass below fail) or `eq4` (pass above
        /// fail), the paper's two step-factor orientations.
        order: Cow<'static, str>,
        /// The generous range `CR` as `[start, end]`.
        window: [f64; 2],
        /// The reference trip point anchoring an STP walk, if any.
        reference: Option<f64>,
        /// The programmable search factor `SF`, for STP.
        sf: Option<f64>,
    },
    /// One iteration of the STP window walk (eqs. 3/4).
    StepTaken {
        /// The iteration counter `IT` (1-based).
        iteration: u64,
        /// The step factor `SF(IT) = SF·IT` of this iteration.
        step_factor: f64,
        /// The probed parameter value after clamping.
        value: f64,
        /// Whether the growing window saturated at the `CR` edge.
        clamped: bool,
        /// The verdict at `value`.
        verdict: TraceVerdict,
    },
    /// A search bracketed the trip point between a pass and a fail.
    Bracketed {
        /// The passing side of the bracket.
        pass_value: f64,
        /// The failing side of the bracket.
        fail_value: f64,
    },
    /// A trip-point search finished.
    SearchFinished {
        /// The algorithm (same names as [`TraceEvent::SearchStarted`]).
        strategy: Cow<'static, str>,
        /// The reported trip point, when converged.
        trip_point: Option<f64>,
        /// Whether the search converged.
        converged: bool,
        /// Probe requests the search consumed.
        probes: u64,
    },
    /// A silent strobe is being retried after an exponential backoff.
    RetryScheduled {
        /// The retry attempt number (1-based).
        attempt: u64,
        /// The simulated settle wait before this retry, in microseconds.
        backoff_us: f64,
    },
    /// A k-of-n majority vote over strobes reached its decision.
    VoteResolved {
        /// Strobes that answered pass.
        passes: u64,
        /// Strobes that answered fail.
        fails: u64,
        /// Strobes that produced no verdict.
        invalids: u64,
        /// The decided verdict ([`TraceVerdict::Invalid`] on a tie).
        verdict: TraceVerdict,
    },
    /// The tester fault model injected a fault into a measurement.
    FaultInjected {
        /// What kind of fault.
        kind: FaultKind,
    },
    /// A measurement point was quarantined: the recovery ladder could not
    /// produce a trustworthy trip point.
    Quarantined {
        /// Why: `dropout`, `unconverged`, `inconsistent trace`, `timed out`
        /// or `site breaker` (a static name, as for
        /// [`TraceEvent::SearchStarted`]'s `strategy`).
        reason: Cow<'static, str>,
    },
    /// A site's stall watchdog expired mid test program: the remaining
    /// tests of the touchdown were quarantined instead of waiting on a
    /// hung strobe.
    WatchdogFired {
        /// The site position within the touchdown.
        site: u64,
        /// The touchdown whose budget expired.
        touchdown: u64,
        /// The per-site simulated tester-time budget, in milliseconds.
        budget_ms: u64,
        /// Tests quarantined without running.
        skipped_tests: u64,
    },
    /// A site's health circuit breaker latched open at a chunk boundary:
    /// later touchdowns exclude the site from characterization.
    SiteBreakerTripped {
        /// The site position within the touchdown.
        site: u64,
        /// The chunk index after which the breaker latched.
        chunk: u64,
        /// The rolling fault rate that crossed the threshold.
        fault_rate: f64,
    },
    /// A GA generation finished evaluating.
    GaGenerationEvaluated {
        /// The generation index (0-based).
        generation: u64,
        /// Best fitness seen so far.
        best_so_far: f64,
        /// Best fitness within this generation.
        generation_best: f64,
        /// Mean fitness of this generation.
        mean: f64,
    },
    /// A health alarm latched on: a telemetry
    /// [`AlarmRule`](crate::AlarmRule) started firing at a heartbeat.
    AlarmRaised {
        /// The alarm identifier (`fault_rate_spike`, `stall_silence`, …).
        alarm: String,
        /// The heartbeat sequence number the alarm raised at.
        heartbeat: u64,
        /// The rule's human-readable detail at raise time.
        detail: String,
    },
    /// A health alarm released: the rule stopped firing.
    AlarmCleared {
        /// The alarm identifier.
        alarm: String,
        /// The heartbeat sequence number the alarm cleared at.
        heartbeat: u64,
    },
    /// A committee learning round finished.
    CommitteeEpochFinished {
        /// The learning round (0-based).
        epoch: u64,
        /// Committee members trained.
        members: u64,
        /// Mean final validation error across members.
        train_error: f64,
    },
}

/// One sequenced record in a trace stream: an event stamped with its
/// deterministic sequence number, the test index it belongs to (if any)
/// and a wall-clock timestamp.
///
/// Determinism contract: `seq`, `test` and `event` are identical across
/// thread counts for a seeded campaign; `ts_us` is wall time and is the
/// only field [`TraceRecord::normalized`] clears.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Position in the deterministic event stream (0-based).
    pub seq: u64,
    /// The campaign-level test index the event belongs to, or `None` for
    /// campaign-scoped events (phases, GA generations, committee epochs).
    pub test: Option<u64>,
    /// Microseconds since the tracer was created. Not deterministic.
    pub ts_us: u64,
    /// The event itself.
    pub event: TraceEvent,
}

impl TraceRecord {
    /// The record with its wall-clock timestamp cleared — the form golden
    /// traces are compared in.
    pub fn normalized(mut self) -> Self {
        self.ts_us = 0;
        self
    }
}

/// Normalizes a JSONL trace stream: parses each line as a [`TraceRecord`],
/// clears the timestamp, and re-serializes. Lines that fail to parse are
/// passed through untouched so a diff still shows them.
pub fn normalize_jsonl(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        match serde_json::from_str::<TraceRecord>(line) {
            Ok(record) => {
                out.push_str(
                    &serde_json::to_string(&record.normalized())
                        .expect("a parsed record re-serializes"),
                );
            }
            Err(_) => out.push_str(line),
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_round_trip_through_json() {
        let record = TraceRecord {
            seq: 7,
            test: Some(3),
            ts_us: 1234,
            event: TraceEvent::StepTaken {
                iteration: 2,
                step_factor: 2.0,
                value: 113.0,
                clamped: false,
                verdict: TraceVerdict::Fail,
            },
        };
        let json = serde_json::to_string(&record).expect("serializes");
        let back: TraceRecord = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, record);
    }

    #[test]
    fn normalization_clears_only_the_timestamp() {
        let record = TraceRecord {
            seq: 1,
            test: None,
            ts_us: 999,
            event: TraceEvent::CampaignPhaseChanged {
                phase: String::from("dsv"),
            },
        };
        let normalized = record.clone().normalized();
        assert_eq!(normalized.ts_us, 0);
        assert_eq!(normalized.seq, record.seq);
        assert_eq!(normalized.event, record.event);
    }

    #[test]
    fn jsonl_normalization_is_idempotent_and_total() {
        let record = TraceRecord {
            seq: 0,
            test: Some(0),
            ts_us: 55,
            event: TraceEvent::ProbeIssued {
                value: 1.5,
                speculative: false,
            },
        };
        let line = serde_json::to_string(&record).expect("serializes");
        let text = format!("{line}\nnot json\n\n");
        let once = normalize_jsonl(&text);
        assert_eq!(normalize_jsonl(&once), once, "idempotent");
        assert!(once.contains("\"ts_us\":0"), "{once}");
        assert!(once.contains("not json"), "unparseable lines survive");
        assert_eq!(once.lines().count(), 2, "blank lines dropped");
    }

    #[test]
    fn speculative_flag_is_invisible_when_false() {
        let plain = serde_json::to_string(&TraceEvent::ProbeIssued {
            value: 2.5,
            speculative: false,
        })
        .expect("serializes");
        assert!(
            !plain.contains("speculative"),
            "false flag must not appear on the wire: {plain}"
        );
        // Pre-flag traces (no field at all) parse as non-speculative.
        let legacy: TraceEvent =
            serde_json::from_str(r#"{"ProbeIssued":{"value":2.5}}"#).expect("parses");
        assert_eq!(
            legacy,
            TraceEvent::ProbeIssued {
                value: 2.5,
                speculative: false
            }
        );
        let marked = serde_json::to_string(&TraceEvent::ProbeIssued {
            value: 2.5,
            speculative: true,
        })
        .expect("serializes");
        assert!(marked.contains("\"speculative\":true"), "{marked}");
    }
}
