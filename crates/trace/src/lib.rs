//! Structured campaign observability for the characterization pipeline.
//!
//! The paper's argument is statistical — trip-point distributions (fig. 2),
//! STP step savings (fig. 3, eqs. 3/4), GA and committee convergence
//! (table 1) — so the evidence has to be *accounted for*: every probe,
//! search step, vote, retry and generation. This crate provides that
//! accounting as three layers:
//!
//! * **Events** ([`TraceEvent`], [`TraceRecord`]): a typed taxonomy of what
//!   the machinery did, streamed to a [`TraceSink`] ([`NullSink`],
//!   [`RingBufferSink`], or the atomically-committed [`JsonlSink`]). Events
//!   are built only for a sink that keeps them
//!   ([`TraceSink::keeps_events`]).
//! * **Metrics** ([`MetricsRegistry`], [`MetricsSnapshot`]): lock-free
//!   counters and fixed-bucket histograms derived from events by one fold
//!   ([`MetricsRegistry::observe`]) where they are emitted, whatever the
//!   sink, and merged deterministically across worker shards like ledgers
//!   are.
//! * **Manifests** ([`RunManifest`]): the per-run artifact tying seed,
//!   config, code version, metrics and per-phase totals together.
//! * **Timings** ([`Tracer::timed`], [`TimingRegistry`]): an opt-in
//!   wall-clock sidecar of per-span and per-phase durations. Wall time is
//!   nondeterministic, so it is kept strictly out of the event stream —
//!   a timed and an untimed tracer emit byte-identical normalized traces
//!   — and lands in the manifest's `timings` section instead.
//!
//! # Determinism contract
//!
//! Per-test events are counted (and, for a keeping sink, collected) in
//! [`SpanTrace`]s by whichever thread runs the test, and absorbed by the
//! coordinator **in input-index order** ([`Tracer::absorb`]). Counts are
//! added and sequence numbers assigned at absorb time, so `threads=1` and
//! `threads=8` runs of a seeded campaign emit identical event streams up
//! to wall-clock timestamps — which
//! [`TraceRecord::normalized`] / [`normalize_jsonl`] strip, making golden
//! traces diffable byte-for-byte.
//!
//! # Examples
//!
//! ```
//! use cichar_trace::{RingBufferSink, TraceEvent, Tracer};
//! use std::sync::Arc;
//!
//! let sink = Arc::new(RingBufferSink::unbounded());
//! let tracer = Tracer::new(sink.clone());
//! let span = tracer.span(0);
//! span.emit(TraceEvent::ProbeIssued { value: 110.0, speculative: false });
//! tracer.absorb(span);
//! assert_eq!(sink.records().len(), 1);
//! assert_eq!(tracer.metrics().probes_issued, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod manifest;
mod metrics;
mod sink;
mod telemetry;
mod timing;
mod tracer;

pub use event::{normalize_jsonl, FaultKind, TraceEvent, TraceRecord, TraceVerdict};
pub use manifest::{
    describe_version, ensure_writable, peak_rss_bytes, peak_rss_bytes_from, RecoverySection,
    RunManifest,
};
pub use metrics::{HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
pub use sink::{JsonlSink, NullSink, RingBufferSink, TraceSink};
pub use telemetry::{
    parse_openmetrics, render_openmetrics, AlarmIncident, AlarmRule, HealthSection,
    HeartbeatSnapshot, Progress, Telemetry, DEFAULT_HEARTBEAT_EVERY_MS, HEARTBEAT_FILE,
    METRICS_FILE,
};
pub use timing::{PhaseTiming, SpanClock, TimingRegistry, TimingSnapshot, UNPHASED};
pub use tracer::{PhaseSummary, SpanTrace, Tracer};
