//! The tracer: per-test spans, deterministic absorption, metrics
//! derivation and per-phase accounting.
//!
//! # Determinism contract
//!
//! Worker threads never write to the sink or the registry directly. Each
//! unit of parallel work (one test index) counts its events into a
//! [`SpanTrace`], and keeps them too when the sink keeps events; the
//! coordinating thread absorbs finished spans **in input-index order** —
//! exactly how measurement ledgers already merge — adding each span's
//! counts to the registry and assigning the global sequence numbers at
//! absorb time. A `threads=1` and a `threads=8` run of the same seeded
//! campaign therefore emit identical event streams (up to wall-clock
//! timestamps) and identical metrics snapshots, and heartbeats read the
//! same counts at the same fold points whatever the sink.

use crate::event::{TraceEvent, TraceRecord};
use crate::metrics::{MetricsRegistry, MetricsSnapshot, SingleWriter};
use crate::sink::TraceSink;
use crate::timing::{SpanClock, TimingRegistry, TimingSnapshot};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A per-test collector handed down through the measurement stack.
///
/// Cloning shares one state, so the tester's fault model, the recovery
/// ladder and the search walk all report in true probe order even though
/// they hold separate clones. An enabled span **counts at the source**:
/// each emit folds the event into the span's own counter delta through
/// the body of [`MetricsRegistry::observe`], the one derivation of
/// metrics from events, with plain adds (one thread writes a span at a
/// time). It keeps the event itself only when its tracer's sink keeps
/// events ([`TraceSink::keeps_events`]); a counting span takes no lock
/// and allocates nothing per emit. A disabled span (the default
/// everywhere tracing is not requested) reduces every operation to one
/// branch on a `None`.
#[derive(Debug, Clone, Default)]
pub struct SpanTrace {
    state: Option<Arc<SpanState>>,
}

/// What the clones of one enabled span share: a single allocation.
#[derive(Debug)]
struct SpanState {
    test: u64,
    /// The span's counters, moved into the tracer's registry on absorb.
    delta: MetricsRegistry,
    /// STP steps since the span's last `SearchStarted`: the fold's
    /// per-span state (searches within a span are strictly sequential).
    steps_in_search: AtomicU64,
    /// The events themselves, present only for a sink that keeps them.
    events: Option<Mutex<Vec<TraceEvent>>>,
    /// The wall-clock stopwatch of a timing-enabled tracer's span.
    clock: Option<SpanClock>,
}

impl SpanTrace {
    /// The inert span: every emit is a no-op.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// An enabled span for `test` that keeps its events, unattached to
    /// any tracer — useful in unit tests that assert on emitted events
    /// directly.
    pub fn for_test(test: u64) -> Self {
        Self::enabled(test, true, false)
    }

    fn enabled(test: u64, keeps_events: bool, clocked: bool) -> Self {
        Self {
            state: Some(Arc::new(SpanState {
                test,
                delta: MetricsRegistry::new(),
                steps_in_search: AtomicU64::new(0),
                events: keeps_events.then(|| Mutex::new(Vec::new())),
                clock: clocked.then(SpanClock::new),
            })),
        }
    }

    /// Stamps the span's wall-clock end as of now (no-op without a clock,
    /// and on every call after the first).
    ///
    /// The instrumented measurement paths call this the moment a test's
    /// work finishes on its worker thread, so the recorded duration
    /// excludes the coordinator's absorb latency.
    pub fn mark_done(&self) {
        if let Some(clock) = self.state.as_ref().and_then(|s| s.clock.as_ref()) {
            clock.mark_done();
        }
    }

    /// Whether the span is enabled: counting, and keeping events when its
    /// sink does.
    pub fn is_enabled(&self) -> bool {
        self.state.is_some()
    }

    /// The test index this span belongs to (0 for a disabled span).
    pub fn test_index(&self) -> u64 {
        self.state.as_ref().map_or(0, |s| s.test)
    }

    /// Records an event (no-op when disabled).
    #[inline(always)]
    pub fn emit(&self, event: TraceEvent) {
        match &self.state {
            Some(state) => state.record(event),
            None => discard(event),
        }
    }

    /// Records the event built by `f`, building it only when enabled —
    /// use when the payload takes work to compute.
    #[inline(always)]
    pub fn emit_with(&self, f: impl FnOnce() -> TraceEvent) {
        if let Some(state) = &self.state {
            state.record(f());
        }
    }

    /// A copy of the kept events (empty for a disabled or counting span).
    pub fn events(&self) -> Vec<TraceEvent> {
        match self.state.as_ref().and_then(|s| s.events.as_ref()) {
            Some(events) => events.lock().expect("span lock").clone(),
            None => Vec::new(),
        }
    }
}

impl SpanState {
    /// Counts `event` into the delta, then keeps it if the span keeps
    /// events.
    ///
    /// Relaxed loads and stores suffice, for the step count and for the
    /// delta's counters alike ([`SingleWriter`]): a span's clones report
    /// from one thread at a time (its test's worker), and the finished
    /// span reaches the coordinator through the join that ends the
    /// parallel work. Inlined into the emit site with the fold, where the
    /// event's variant is known: the counter it bumps is picked there,
    /// and a counting span frees the event there (usually nothing to
    /// free); only a keeping span moves it out of line.
    #[inline(always)]
    fn record(&self, event: TraceEvent) {
        let mut steps = self.steps_in_search.load(Ordering::Relaxed);
        self.delta.fold::<SingleWriter>(&event, &mut steps);
        self.steps_in_search.store(steps, Ordering::Relaxed);
        match &self.events {
            Some(events) => keep(events, event),
            None => discard(event),
        }
    }
}

/// Appends an event to a keeping span's buffer.
#[inline(never)]
fn keep(events: &Mutex<Vec<TraceEvent>>, event: TraceEvent) {
    events.lock().expect("span lock").push(event);
}

/// Drops an event that nothing keeps. The variants that own no text
/// (every per-probe event) are forgotten, which is a drop that does
/// nothing; spelled out so that at an emit site, where the variant is
/// known, no drop call remains. A variant listed here must own nothing:
/// forgetting one that owned text would leak it.
#[inline(always)]
fn discard(event: TraceEvent) {
    match event {
        TraceEvent::ProbeIssued { .. }
        | TraceEvent::ProbeResolved { .. }
        | TraceEvent::StepTaken { .. }
        | TraceEvent::Bracketed { .. }
        | TraceEvent::RetryScheduled { .. }
        | TraceEvent::VoteResolved { .. }
        | TraceEvent::FaultInjected { .. }
        | TraceEvent::WatchdogFired { .. }
        | TraceEvent::SiteBreakerTripped { .. }
        | TraceEvent::GaGenerationEvaluated { .. }
        | TraceEvent::CommitteeEpochFinished { .. } => std::mem::forget(event),
        owning => drop(owning),
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
    /// The sink's [`TraceSink::keeps_events`], asked once.
    keeps_events: bool,
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
                keeps_events: sink.keeps_events(),
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

    /// A span for test index `test`: disabled when the tracer is,
    /// keeping events only when the sink does, clocked when the tracer
    /// carries a timing sidecar.
    pub fn span(&self, test: u64) -> SpanTrace {
        match &self.core {
            Some(core) => SpanTrace::enabled(test, core.keeps_events, core.timing.is_some()),
            None => SpanTrace::disabled(),
        }
    }

    /// Absorbs a finished span. Its counter delta moves into the metrics
    /// registry, which heartbeats, phases and manifests read; for a sink
    /// that keeps events, its events are then stamped with the next
    /// sequence numbers, the span's test index and a wall timestamp, and
    /// recorded. With a timing sidecar, the span's wall-clock duration is
    /// also folded into the open phase's timing — after the events are
    /// written, so timing can never perturb the deterministic stream.
    ///
    /// Call this from the coordinating thread in **input-index order** —
    /// that ordering is the whole determinism contract.
    pub fn absorb(&self, span: SpanTrace) {
        let (Some(core), Some(state)) = (&self.core, &span.state) else {
            return;
        };
        core.metrics.absorb(&state.delta);
        if let Some(events) = &state.events {
            let events = std::mem::take(&mut *events.lock().expect("span lock"));
            core.write(Some(state.test), events);
        }
        if let (Some(timing), Some(clock)) = (&core.timing, &state.clock) {
            timing.record_span(clock.duration_ns());
        }
    }

    /// Records a campaign-scoped event (GA generation, committee epoch)
    /// carrying no test index.
    pub fn emit_campaign(&self, event: TraceEvent) {
        let Some(core) = &self.core else { return };
        core.emit_campaign(event);
    }

    /// Enters a campaign phase: emits [`TraceEvent::CampaignPhaseChanged`]
    /// and starts the phase's wall/probe accounting, closing any open
    /// phase.
    pub fn phase(&self, name: &str) {
        let Some(core) = &self.core else { return };
        core.emit_campaign(TraceEvent::CampaignPhaseChanged {
            phase: name.to_string(),
        });
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
    /// Counts a campaign-scoped event, then records it if the sink keeps
    /// events.
    fn emit_campaign(&self, event: TraceEvent) {
        self.metrics.observe(&event, &mut 0);
        if self.keeps_events {
            self.write(None, [event]);
        }
    }

    /// Sequences `events` into the sink. Metrics are already counted.
    fn write(&self, test: Option<u64>, events: impl IntoIterator<Item = TraceEvent>) {
        let ts_us = self.started.elapsed().as_micros() as u64;
        for event in events {
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
    use crate::event::{FaultKind, TraceVerdict};
    use crate::sink::{NullSink, RingBufferSink};

    fn search_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::SearchStarted {
                strategy: "stp".into(),
                order: "eq3".into(),
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
                strategy: "stp".into(),
                trip_point: Some(110.0),
                converged: true,
                probes: 2,
            },
        ]
    }

    /// xorshift64*: a seeded stream of draws, so the fold test needs no
    /// RNG crate.
    struct Draws(u64);

    impl Draws {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn flag(&mut self) -> bool {
            self.below(2) == 1
        }

        fn verdict(&mut self) -> TraceVerdict {
            [TraceVerdict::Pass, TraceVerdict::Fail, TraceVerdict::Invalid][self.below(3) as usize]
        }
    }

    /// Every variant of the taxonomy, by position; the exhaustive match
    /// fails to compile when a variant is added without a case here.
    const VARIANTS: usize = 17;

    fn variant(event: &TraceEvent) -> usize {
        match event {
            TraceEvent::CampaignPhaseChanged { .. } => 0,
            TraceEvent::ProbeIssued { .. } => 1,
            TraceEvent::ProbeResolved { .. } => 2,
            TraceEvent::SearchStarted { .. } => 3,
            TraceEvent::StepTaken { .. } => 4,
            TraceEvent::Bracketed { .. } => 5,
            TraceEvent::SearchFinished { .. } => 6,
            TraceEvent::RetryScheduled { .. } => 7,
            TraceEvent::VoteResolved { .. } => 8,
            TraceEvent::FaultInjected { .. } => 9,
            TraceEvent::Quarantined { .. } => 10,
            TraceEvent::WatchdogFired { .. } => 11,
            TraceEvent::SiteBreakerTripped { .. } => 12,
            TraceEvent::GaGenerationEvaluated { .. } => 13,
            TraceEvent::AlarmRaised { .. } => 14,
            TraceEvent::AlarmCleared { .. } => 15,
            TraceEvent::CommitteeEpochFinished { .. } => 16,
        }
    }

    /// A random event of any variant, with payloads that reach every
    /// histogram's overflow bucket.
    fn random_event(d: &mut Draws) -> TraceEvent {
        let value = d.below(2_000) as f64 / 10.0;
        match d.below(VARIANTS as u64) {
            0 => TraceEvent::CampaignPhaseChanged { phase: format!("phase{}", d.below(4)) },
            1 => TraceEvent::ProbeIssued { value, speculative: d.flag() },
            2 => TraceEvent::ProbeResolved { value, verdict: d.verdict(), cached: d.flag() },
            3 => TraceEvent::SearchStarted {
                strategy: "stp".into(),
                order: "eq3".into(),
                window: [80.0, 130.0],
                reference: d.flag().then_some(value),
                sf: None,
            },
            4 => TraceEvent::StepTaken {
                iteration: d.below(30),
                step_factor: 1.0,
                value,
                clamped: d.flag(),
                verdict: d.verdict(),
            },
            5 => TraceEvent::Bracketed { pass_value: value, fail_value: value + 1.0 },
            6 => TraceEvent::SearchFinished {
                strategy: "stp".into(),
                trip_point: d.flag().then_some(value),
                converged: d.flag(),
                probes: d.below(100),
            },
            7 => TraceEvent::RetryScheduled {
                attempt: d.below(12),
                backoff_us: d.below(20_000_000) as f64 / 1000.0,
            },
            8 => TraceEvent::VoteResolved {
                passes: d.below(3),
                fails: d.below(3),
                invalids: d.below(3),
                verdict: d.verdict(),
            },
            9 => TraceEvent::FaultInjected {
                kind: [FaultKind::Dropout, FaultKind::Flip, FaultKind::Stuck, FaultKind::Abort, FaultKind::Stall]
                    [d.below(5) as usize],
            },
            10 => TraceEvent::Quarantined { reason: "dropout".into() },
            11 => TraceEvent::WatchdogFired { site: 1, touchdown: 2, budget_ms: 3, skipped_tests: 4 },
            12 => TraceEvent::SiteBreakerTripped { site: 1, chunk: 2, fault_rate: 0.5 },
            13 => TraceEvent::GaGenerationEvaluated {
                generation: d.below(50),
                best_so_far: value,
                generation_best: value,
                mean: value,
            },
            14 => TraceEvent::AlarmRaised {
                alarm: "stall_silence".to_string(),
                heartbeat: d.below(9),
                detail: "no progress".to_string(),
            },
            15 => TraceEvent::AlarmCleared { alarm: "stall_silence".to_string(), heartbeat: d.below(9) },
            _ => TraceEvent::CommitteeEpochFinished { epoch: d.below(9), members: 5, train_error: value },
        }
    }

    #[test]
    fn span_fold_and_observe_agree_on_random_streams_of_every_variant() {
        let mut d = Draws(0x9E37_79B9_7F4A_7C15);
        let mut seen = [false; VARIANTS];
        for _ in 0..64 {
            let stream: Vec<TraceEvent> = (0..d.below(300)).map(|_| random_event(&mut d)).collect();
            let reference = MetricsRegistry::new();
            let mut steps = 0;
            for event in &stream {
                seen[variant(event)] = true;
                reference.observe(event, &mut steps);
            }
            let want = reference.snapshot();
            // A counting span, a keeping span, and either absorbed.
            let ring = Arc::new(RingBufferSink::unbounded());
            for tracer in [Tracer::new(Arc::new(NullSink)), Tracer::new(ring.clone())] {
                let span = tracer.span(0);
                for event in &stream {
                    span.emit(event.clone());
                }
                let state = span.state.as_ref().expect("enabled");
                assert_eq!(state.delta.snapshot(), want, "the span's own delta");
                tracer.absorb(span);
                assert_eq!(tracer.metrics(), want, "the absorbed campaign registry");
            }
            let kept: Vec<TraceEvent> = ring.records().into_iter().map(|r| r.event).collect();
            assert_eq!(kept, stream, "a keeping span keeps every event in order");
        }
        assert_eq!(seen, [true; VARIANTS], "the streams cover every variant");
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
    fn counting_spans_derive_the_same_metrics_and_keep_nothing() {
        let ring = Arc::new(RingBufferSink::unbounded());
        let keeping = Tracer::new(ring.clone());
        let counting = Tracer::new(Arc::new(NullSink));
        for tracer in [&keeping, &counting] {
            tracer.phase("dsv");
            for test in 0..3u64 {
                let span = tracer.span(test);
                for event in search_events() {
                    span.emit(event);
                }
                tracer.absorb(span);
            }
        }
        let span = counting.span(3);
        span.emit(TraceEvent::ProbeIssued { value: 1.0, speculative: true });
        assert!(span.is_enabled());
        assert!(span.events().is_empty(), "a counting span keeps no events");
        assert_eq!(ring.len(), 1 + 3 * 6);
        assert_eq!(counting.metrics(), keeping.metrics());
        let probes = |t: &Tracer| t.phases().iter().map(|p| p.probes).collect::<Vec<_>>();
        assert_eq!(probes(&counting), probes(&keeping));
    }

    #[test]
    fn a_timed_counting_tracer_keeps_its_span_clocks() {
        let timed = Tracer::timed(Arc::new(NullSink));
        timed.phase("wafer");
        for test in 0..4u64 {
            let span = timed.span(test);
            span.emit(TraceEvent::ProbeIssued { value: 1.0, speculative: false });
            span.mark_done();
            timed.absorb(span);
        }
        let timings = timed.timings().expect("timing sidecar armed");
        assert_eq!(timings.phases[0].spans, 4);
        assert!(timings.phases[0].total_ns > 0);
        assert_eq!(timed.metrics().probes_issued, 4);
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
