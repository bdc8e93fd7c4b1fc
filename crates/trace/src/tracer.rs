//! The tracer: per-test spans, deterministic absorption, metrics
//! derivation and per-phase accounting.
//!
//! # Determinism contract
//!
//! Worker threads never write to the sink directly. Each unit of parallel
//! work (one test index) collects its events into a [`SpanTrace`]; the
//! coordinating thread absorbs finished spans **in input-index order** —
//! exactly how measurement ledgers already merge — assigning the global
//! sequence numbers at absorb time. A `threads=1` and a `threads=8` run of
//! the same seeded campaign therefore emit identical event streams (up to
//! wall-clock timestamps) and identical metrics snapshots.

use crate::event::{TraceEvent, TraceRecord};
use crate::metrics::{MetricsRegistry, MetricsSnapshot};
use crate::sink::TraceSink;
use crate::timing::{SpanClock, TimingRegistry, TimingSnapshot};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A per-test event collector handed down through the measurement stack.
///
/// Cloning shares the underlying buffer, so the tester's fault model, the
/// recovery ladder and the search walk all interleave their events in true
/// probe order even though they hold separate clones. A disabled span
/// (the default everywhere tracing is not requested) reduces every
/// operation to one branch on a `None`.
#[derive(Debug, Clone, Default)]
pub struct SpanTrace {
    events: Option<Arc<Mutex<Vec<TraceEvent>>>>,
    clock: Option<Arc<SpanClock>>,
    test: u64,
}

impl SpanTrace {
    /// The inert span: every emit is a no-op.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// An enabled span for `test`, unattached to any tracer — useful in
    /// unit tests that assert on emitted events directly.
    pub fn for_test(test: u64) -> Self {
        Self {
            events: Some(Arc::new(Mutex::new(Vec::new()))),
            clock: None,
            test,
        }
    }

    /// An enabled span for `test` carrying a monotonic [`SpanClock`] — the
    /// form a timing-enabled tracer hands out.
    fn for_test_timed(test: u64) -> Self {
        Self {
            events: Some(Arc::new(Mutex::new(Vec::new()))),
            clock: Some(Arc::new(SpanClock::new())),
            test,
        }
    }

    /// Stamps the span's wall-clock end as of now (no-op without a clock,
    /// and on every call after the first).
    ///
    /// The instrumented measurement paths call this the moment a test's
    /// work finishes on its worker thread, so the recorded duration
    /// excludes the coordinator's absorb latency.
    pub fn mark_done(&self) {
        if let Some(clock) = &self.clock {
            clock.mark_done();
        }
    }

    fn duration_ns(&self) -> Option<u64> {
        self.clock.as_ref().map(|clock| clock.duration_ns())
    }

    /// Whether events are being collected.
    pub fn is_enabled(&self) -> bool {
        self.events.is_some()
    }

    /// The test index this span belongs to.
    pub fn test_index(&self) -> u64 {
        self.test
    }

    /// Records an event (no-op when disabled).
    pub fn emit(&self, event: TraceEvent) {
        if let Some(events) = &self.events {
            events.lock().expect("span lock").push(event);
        }
    }

    /// Records the event built by `f`, building it only when enabled —
    /// use when constructing the event allocates.
    pub fn emit_with(&self, f: impl FnOnce() -> TraceEvent) {
        if let Some(events) = &self.events {
            events.lock().expect("span lock").push(f());
        }
    }

    /// A copy of the collected events.
    pub fn events(&self) -> Vec<TraceEvent> {
        match &self.events {
            Some(events) => events.lock().expect("span lock").clone(),
            None => Vec::new(),
        }
    }

    fn drain(&self) -> Vec<TraceEvent> {
        match &self.events {
            Some(events) => std::mem::take(&mut *events.lock().expect("span lock")),
            None => Vec::new(),
        }
    }
}

/// One campaign phase's accounting for the run manifest.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PhaseSummary {
    /// The phase name.
    pub name: String,
    /// Wall-clock time spent in the phase, in milliseconds.
    pub wall_ms: u64,
    /// Probe requests resolved during the phase.
    pub probes: u64,
}

struct OpenPhase {
    name: String,
    entered: Instant,
    probes_at_entry: u64,
}

struct TracerCore {
    sink: Arc<dyn TraceSink>,
    metrics: MetricsRegistry,
    seq: AtomicU64,
    started: Instant,
    phase_state: Mutex<(Vec<PhaseSummary>, Option<OpenPhase>)>,
    /// The wall-clock timing sidecar, present only for timing-enabled
    /// tracers ([`Tracer::timed`]). Never feeds the event stream: the
    /// normalized trace is byte-identical with and without it.
    timing: Option<Arc<TimingRegistry>>,
}

/// The campaign-level trace handle: creates spans, absorbs them in index
/// order, tracks phases and owns the metrics registry.
///
/// Cheap to clone (an `Arc`); a disabled tracer (the default for every
/// untraced `run` entry point) costs one branch per interaction.
#[derive(Clone, Default)]
pub struct Tracer {
    core: Option<Arc<TracerCore>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Tracer {
    /// The inert tracer: spans are disabled, absorb is a no-op.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// A tracer recording into `sink`.
    pub fn new(sink: Arc<dyn TraceSink>) -> Self {
        Self::build(sink, None)
    }

    /// A tracer recording into `sink` with the wall-clock timing sidecar
    /// armed: spans carry a monotonic [`SpanClock`], and absorbed
    /// durations aggregate per phase in a [`TimingRegistry`] that
    /// [`Self::timings`] reads.
    ///
    /// The event stream is **byte-identical** to an untimed tracer's
    /// (timings are a separate artifact — they land in
    /// `RunManifest.timings`, never in the trace). Golden tests assert
    /// that identity.
    ///
    /// # Examples
    ///
    /// ```
    /// use cichar_trace::{NullSink, TraceEvent, Tracer};
    /// use std::sync::Arc;
    ///
    /// let timed = Tracer::timed(Arc::new(NullSink));
    /// timed.phase("dsv");
    /// let span = timed.span(0);
    /// span.emit(TraceEvent::ProbeIssued { value: 110.0, speculative: false });
    /// span.mark_done();
    /// timed.absorb(span);
    /// let timings = timed.timings().expect("timing sidecar armed");
    /// assert_eq!(timings.phases[0].phase, "dsv");
    /// assert_eq!(timings.phases[0].spans, 1);
    /// ```
    pub fn timed(sink: Arc<dyn TraceSink>) -> Self {
        Self::build(sink, Some(Arc::new(TimingRegistry::new())))
    }

    fn build(sink: Arc<dyn TraceSink>, timing: Option<Arc<TimingRegistry>>) -> Self {
        Self {
            core: Some(Arc::new(TracerCore {
                sink,
                metrics: MetricsRegistry::new(),
                seq: AtomicU64::new(0),
                started: Instant::now(),
                phase_state: Mutex::new((Vec::new(), None)),
                timing,
            })),
        }
    }

    /// Whether tracing is live.
    pub fn is_enabled(&self) -> bool {
        self.core.is_some()
    }

    /// A span for test index `test` (disabled when the tracer is; clocked
    /// when the tracer carries a timing sidecar).
    pub fn span(&self, test: u64) -> SpanTrace {
        match &self.core {
            Some(core) if core.timing.is_some() => SpanTrace::for_test_timed(test),
            Some(_) => SpanTrace::for_test(test),
            None => SpanTrace::disabled(),
        }
    }

    /// Absorbs a finished span: stamps its events with the next sequence
    /// numbers, the span's test index and a wall timestamp, forwards them
    /// to the sink, and derives metrics. With a timing sidecar, the span's
    /// wall-clock duration is also folded into the open phase's timing —
    /// after the events are written, so timing can never perturb the
    /// deterministic stream.
    ///
    /// Call this from the coordinating thread in **input-index order** —
    /// that ordering is the whole determinism contract.
    pub fn absorb(&self, span: SpanTrace) {
        let Some(core) = &self.core else { return };
        let events = span.drain();
        core.write(Some(span.test_index()), events);
        if let (Some(timing), Some(dur_ns)) = (&core.timing, span.duration_ns()) {
            timing.record_span(dur_ns);
        }
    }

    /// Records a campaign-scoped event (GA generation, committee epoch)
    /// carrying no test index.
    pub fn emit_campaign(&self, event: TraceEvent) {
        let Some(core) = &self.core else { return };
        core.write(None, vec![event]);
    }

    /// Enters a campaign phase: emits [`TraceEvent::CampaignPhaseChanged`]
    /// and starts the phase's wall/probe accounting, closing any open
    /// phase.
    pub fn phase(&self, name: &str) {
        let Some(core) = &self.core else { return };
        core.write(
            None,
            vec![TraceEvent::CampaignPhaseChanged {
                phase: name.to_string(),
            }],
        );
        let probes = core.metrics.snapshot().probes_resolved;
        let mut state = core.phase_state.lock().expect("phase lock");
        let (summaries, open) = &mut *state;
        if let Some(previous) = open.take() {
            summaries.push(close_phase(previous, probes));
        }
        *open = Some(OpenPhase {
            name: name.to_string(),
            entered: Instant::now(),
            probes_at_entry: probes,
        });
        if let Some(timing) = &core.timing {
            timing.enter_phase(name);
        }
    }

    /// The per-phase summaries so far; the currently open phase is closed
    /// as of now.
    pub fn phases(&self) -> Vec<PhaseSummary> {
        let Some(core) = &self.core else {
            return Vec::new();
        };
        let probes = core.metrics.snapshot().probes_resolved;
        let mut state = core.phase_state.lock().expect("phase lock");
        let (summaries, open) = &mut *state;
        if let Some(previous) = open.take() {
            summaries.push(close_phase(previous, probes));
        }
        summaries.clone()
    }

    /// A deterministic snapshot of the metrics registry.
    pub fn metrics(&self) -> MetricsSnapshot {
        match &self.core {
            Some(core) => core.metrics.snapshot(),
            None => MetricsSnapshot::default(),
        }
    }

    /// A snapshot of the wall-clock timing sidecar, or `None` for tracers
    /// without one (everything except a [`Tracer::timed`]).
    pub fn timings(&self) -> Option<TimingSnapshot> {
        self.core
            .as_ref()
            .and_then(|core| core.timing.as_ref())
            .map(|timing| timing.snapshot())
    }

    /// Flushes and publishes the sink (the atomic commit for file-backed
    /// sinks). A disabled tracer finishes trivially.
    ///
    /// # Errors
    ///
    /// Propagates the sink's latched or commit-time I/O error.
    pub fn finish(&self) -> io::Result<()> {
        match &self.core {
            Some(core) => core.sink.finish(),
            None => Ok(()),
        }
    }
}

fn close_phase(open: OpenPhase, probes_now: u64) -> PhaseSummary {
    PhaseSummary {
        name: open.name,
        wall_ms: open.entered.elapsed().as_millis() as u64,
        probes: probes_now.saturating_sub(open.probes_at_entry),
    }
}

impl TracerCore {
    /// Sequences `events` into the sink and folds them into the metrics.
    fn write(&self, test: Option<u64>, events: Vec<TraceEvent>) {
        let ts_us = self.started.elapsed().as_micros() as u64;
        // Steps since the last SearchStarted: searches within one span are
        // strictly sequential, so a local counter suffices.
        let mut steps_in_search = 0u64;
        for event in events {
            self.metrics.observe(&event, &mut steps_in_search);
            let seq = self.seq.fetch_add(1, Ordering::Relaxed);
            self.sink.record(&TraceRecord {
                seq,
                test,
                ts_us,
                event,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceVerdict;
    use crate::sink::RingBufferSink;

    fn search_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::SearchStarted {
                strategy: String::from("stp"),
                order: String::from("eq3"),
                window: [80.0, 130.0],
                reference: Some(110.0),
                sf: Some(1.0),
            },
            TraceEvent::ProbeIssued { value: 110.0, speculative: false },
            TraceEvent::ProbeResolved {
                value: 110.0,
                verdict: TraceVerdict::Pass,
                cached: false,
            },
            TraceEvent::StepTaken {
                iteration: 1,
                step_factor: 1.0,
                value: 111.0,
                clamped: false,
                verdict: TraceVerdict::Fail,
            },
            TraceEvent::Bracketed {
                pass_value: 110.0,
                fail_value: 111.0,
            },
            TraceEvent::SearchFinished {
                strategy: String::from("stp"),
                trip_point: Some(110.0),
                converged: true,
                probes: 2,
            },
        ]
    }

    #[test]
    fn disabled_tracer_and_span_are_inert() {
        let tracer = Tracer::disabled();
        let span = tracer.span(0);
        assert!(!tracer.is_enabled());
        assert!(!span.is_enabled());
        span.emit(TraceEvent::ProbeIssued { value: 1.0, speculative: false });
        assert!(span.events().is_empty());
        tracer.absorb(span);
        assert_eq!(tracer.metrics(), MetricsSnapshot::default());
        tracer.finish().expect("trivially ok");
    }

    #[test]
    fn absorb_sequences_and_stamps_test_index() {
        let sink = Arc::new(RingBufferSink::unbounded());
        let tracer = Tracer::new(sink.clone());
        for test in 0..3u64 {
            let span = tracer.span(test);
            for event in search_events() {
                span.emit(event);
            }
            tracer.absorb(span);
        }
        let records = sink.records();
        assert_eq!(records.len(), 18);
        let seqs: Vec<u64> = records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, (0..18).collect::<Vec<u64>>());
        assert_eq!(records[0].test, Some(0));
        assert_eq!(records[17].test, Some(2));
    }

    #[test]
    fn metrics_are_derived_from_the_event_stream() {
        let tracer = Tracer::new(Arc::new(RingBufferSink::unbounded()));
        let span = tracer.span(0);
        for event in search_events() {
            span.emit(event);
        }
        span.emit(TraceEvent::RetryScheduled {
            attempt: 1,
            backoff_us: 100.0,
        });
        tracer.absorb(span);
        let m = tracer.metrics();
        assert_eq!(m.probes_resolved, 1);
        assert_eq!(m.probes_issued, 1);
        assert_eq!(m.probes_cached, 0);
        assert_eq!(m.searches_started, 1);
        assert_eq!(m.searches_finished, 1);
        assert_eq!(m.searches_converged, 1);
        assert_eq!(m.search_steps, 1);
        assert_eq!(m.brackets, 1);
        assert_eq!(m.retries, 1);
        assert_eq!(m.hist_probes_per_search.count, 1);
        assert_eq!(m.hist_probes_per_search.sum, 2);
        assert_eq!(m.hist_search_steps.sum, 1);
        assert_eq!(m.hist_backoff_ns.sum, 100_000);
        assert_eq!(m.check_invariants(), None);
    }

    #[test]
    fn cloned_spans_share_one_buffer() {
        let span = SpanTrace::for_test(5);
        let clone = span.clone();
        clone.emit(TraceEvent::ProbeIssued { value: 1.0, speculative: false });
        span.emit(TraceEvent::ProbeResolved {
            value: 1.0,
            verdict: TraceVerdict::Pass,
            cached: false,
        });
        assert_eq!(span.events().len(), 2, "interleaved in emit order");
        assert_eq!(clone.test_index(), 5);
    }

    #[test]
    fn timed_tracer_records_span_durations_per_phase() {
        let sink = Arc::new(RingBufferSink::unbounded());
        let timed = Tracer::timed(sink.clone());
        timed.phase("full_range");
        for test in 0..2u64 {
            let span = timed.span(test);
            for event in search_events() {
                span.emit(event);
            }
            span.mark_done();
            timed.absorb(span);
        }
        timed.phase("stp");
        let span = timed.span(2);
        span.emit(TraceEvent::ProbeIssued { value: 1.0, speculative: false });
        timed.absorb(span); // unmarked: falls back to absorb-time duration
        let timings = timed.timings().expect("timing sidecar armed");
        assert_eq!(timings.phases.len(), 2);
        assert_eq!(timings.phases[0].phase, "full_range");
        assert_eq!(timings.phases[0].spans, 2);
        assert!(timings.phases[0].total_ns > 0);
        assert_eq!(timings.phases[1].spans, 1);
        // The sidecar never touches the stream: record count matches an
        // untimed tracer's for the same campaign.
        assert_eq!(sink.records().len(), 2 * 6 + 1 + 2, "events + phase changes");
    }

    #[test]
    fn untimed_tracer_has_no_timing_sidecar() {
        let tracer = Tracer::new(Arc::new(RingBufferSink::unbounded()));
        assert_eq!(tracer.timings(), None);
        let span = tracer.span(0);
        span.mark_done(); // a clockless span ignores the stamp
        tracer.absorb(span);
        assert_eq!(tracer.timings(), None);
        assert_eq!(Tracer::disabled().timings(), None);
    }

    #[test]
    fn phases_account_walls_and_probes() {
        let tracer = Tracer::new(Arc::new(RingBufferSink::unbounded()));
        tracer.phase("march");
        let span = tracer.span(0);
        span.emit(TraceEvent::ProbeResolved {
            value: 1.0,
            verdict: TraceVerdict::Pass,
            cached: false,
        });
        tracer.absorb(span);
        tracer.phase("random");
        let phases = tracer.phases();
        assert_eq!(phases.len(), 2);
        assert_eq!(phases[0].name, "march");
        assert_eq!(phases[0].probes, 1);
        assert_eq!(phases[1].name, "random");
        assert_eq!(phases[1].probes, 0);
        assert_eq!(tracer.metrics().phases, 2);
    }
}
