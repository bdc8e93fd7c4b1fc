//! The wall-clock timing sidecar: monotonic per-span and per-phase
//! durations, kept **outside** the deterministic event stream.
//!
//! Wall-clock time is inherently nondeterministic — two runs of the same
//! seeded campaign never take exactly the same nanoseconds — so timings
//! must never leak into the normalized trace that golden tests diff
//! byte-for-byte. The sidecar therefore lives in its own registry next to
//! the [`Tracer`](crate::Tracer): spans carry a monotonic [`SpanClock`],
//! the absorb path folds each finished span's duration into the
//! [`TimingRegistry`] under the currently open campaign phase, and the
//! aggregate lands in the run manifest's `timings` section — a separate
//! artifact from the trace stream, which stays byte-identical whether
//! timing is on or off.

use crate::metrics::{Atomic, Histogram, HistogramSnapshot};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Span-duration bucket bounds, in microseconds (10 µs … 100 ms). A
/// trip-point search on the simulated ATE lands in the tens-of-µs to
/// single-digit-ms range; the overflow bucket catches pathological spans.
const SPAN_US_BOUNDS: &[u64] = &[
    10, 30, 100, 300, 1_000, 3_000, 10_000, 30_000, 100_000,
];

/// A monotonic per-span stopwatch, shared by every clone of a span.
///
/// Created when the span is (so the start is the moment the worker picked
/// the test up); the instrumented measurement path stamps the end with
/// [`SpanClock::mark_done`] as soon as the test's work finishes, which
/// keeps coordinator absorb latency out of the recorded duration. An
/// unmarked clock falls back to measuring up to absorb time.
#[derive(Debug)]
pub struct SpanClock {
    started: Instant,
    done_ns: AtomicU64,
}

impl SpanClock {
    pub(crate) fn new() -> Self {
        Self {
            started: Instant::now(),
            done_ns: AtomicU64::new(0),
        }
    }

    /// Stamps the span's end as of now (first call wins; later calls are
    /// no-ops so retries of an already-finished span cannot stretch it).
    pub fn mark_done(&self) {
        let elapsed = self.started.elapsed().as_nanos().max(1) as u64;
        let _ = self
            .done_ns
            .compare_exchange(0, elapsed, Ordering::Relaxed, Ordering::Relaxed);
    }

    /// The span's duration: creation to [`SpanClock::mark_done`], or to
    /// now when the end was never stamped.
    pub fn duration_ns(&self) -> u64 {
        match self.done_ns.load(Ordering::Relaxed) {
            0 => self.started.elapsed().as_nanos().max(1) as u64,
            ns => ns,
        }
    }
}

/// One phase's span-duration accounting (live form).
struct PhaseSlot {
    name: String,
    spans: u64,
    total_ns: u64,
    min_ns: u64,
    max_ns: u64,
    hist_us: Histogram,
}

impl PhaseSlot {
    fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            spans: 0,
            total_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
            hist_us: Histogram::new(SPAN_US_BOUNDS),
        }
    }

    fn record(&mut self, dur_ns: u64) {
        self.spans += 1;
        self.total_ns += dur_ns;
        self.min_ns = self.min_ns.min(dur_ns);
        self.max_ns = self.max_ns.max(dur_ns);
        self.hist_us.observe::<Atomic>(dur_ns / 1_000);
    }

    fn snapshot(&self) -> PhaseTiming {
        PhaseTiming {
            phase: self.name.clone(),
            spans: self.spans,
            total_ns: self.total_ns,
            min_ns: if self.spans == 0 { 0 } else { self.min_ns },
            max_ns: self.max_ns,
            hist_span_us: self.hist_us.snapshot(),
        }
    }
}

/// The live timing sidecar: per-phase span-duration statistics.
///
/// Recording happens on the absorb path — single-threaded by the tracer's
/// determinism contract — so a plain mutex-guarded slot list keyed by
/// first-seen phase order is both sufficient and deterministic in shape
/// (the *durations* inside are wall clock and therefore never are).
#[derive(Debug, Default)]
pub struct TimingRegistry {
    state: Mutex<TimingState>,
}

#[derive(Debug, Default)]
struct TimingState {
    phases: Vec<PhaseSlot>,
    current: Option<usize>,
}

impl std::fmt::Debug for PhaseSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PhaseSlot")
            .field("name", &self.name)
            .field("spans", &self.spans)
            .finish_non_exhaustive()
    }
}

/// The phase name spans recorded before any [`TimingRegistry::enter_phase`]
/// are filed under.
pub const UNPHASED: &str = "(unphased)";

impl TimingRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens (or re-opens) the slot for `phase`; subsequent span durations
    /// are filed under it.
    pub fn enter_phase(&self, phase: &str) {
        let mut state = self.state.lock().expect("timing lock");
        let index = match state.phases.iter().position(|p| p.name == phase) {
            Some(index) => index,
            None => {
                state.phases.push(PhaseSlot::new(phase));
                state.phases.len() - 1
            }
        };
        state.current = Some(index);
    }

    /// Folds one span duration into the currently open phase (or the
    /// [`UNPHASED`] slot when no phase was ever entered).
    pub fn record_span(&self, dur_ns: u64) {
        let mut state = self.state.lock().expect("timing lock");
        let index = match state.current {
            Some(index) => index,
            None => {
                state.phases.push(PhaseSlot::new(UNPHASED));
                let index = state.phases.len() - 1;
                state.current = Some(index);
                index
            }
        };
        state.phases[index].record(dur_ns);
    }

    /// An immutable snapshot of every phase's timing statistics, in
    /// first-seen phase order.
    pub fn snapshot(&self) -> TimingSnapshot {
        let state = self.state.lock().expect("timing lock");
        TimingSnapshot {
            phases: state.phases.iter().map(PhaseSlot::snapshot).collect(),
        }
    }
}

/// One phase's span-duration statistics, as serialized into
/// `RunManifest.timings`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseTiming {
    /// The phase name.
    pub phase: String,
    /// Spans absorbed while the phase was open.
    pub spans: u64,
    /// Total span wall time, in nanoseconds.
    pub total_ns: u64,
    /// Shortest span, in nanoseconds (0 when the phase saw no spans).
    pub min_ns: u64,
    /// Longest span, in nanoseconds.
    pub max_ns: u64,
    /// Span-duration histogram, bucketed in microseconds.
    pub hist_span_us: HistogramSnapshot,
}

impl PhaseTiming {
    /// Mean span duration in nanoseconds (0 when the phase saw no spans).
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.spans).unwrap_or(0)
    }
}

/// The timing sidecar of one run: per-phase span-duration statistics, in
/// phase order. Lives in `RunManifest.timings`; never in the trace stream.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TimingSnapshot {
    /// Per-phase statistics, in first-seen phase order.
    pub phases: Vec<PhaseTiming>,
}

impl TimingSnapshot {
    /// Total span wall time across every phase, in nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.phases.iter().map(|p| p.total_ns).sum()
    }

    /// Total spans recorded across every phase.
    pub fn spans(&self) -> u64 {
        self.phases.iter().map(|p| p.spans).sum()
    }

    /// Whether any span was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_clock_prefers_the_marked_end() {
        let clock = SpanClock::new();
        clock.mark_done();
        let first = clock.duration_ns();
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert_eq!(clock.duration_ns(), first, "mark_done froze the duration");
        clock.mark_done();
        assert_eq!(clock.duration_ns(), first, "second mark is a no-op");
    }

    #[test]
    fn unmarked_clock_measures_to_now() {
        let clock = SpanClock::new();
        let early = clock.duration_ns();
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(clock.duration_ns() > early);
    }

    #[test]
    fn registry_files_spans_under_the_open_phase() {
        let registry = TimingRegistry::new();
        registry.enter_phase("full_range");
        registry.record_span(2_000_000);
        registry.record_span(4_000_000);
        registry.enter_phase("stp");
        registry.record_span(1_000_000);
        let snap = registry.snapshot();
        assert_eq!(snap.phases.len(), 2);
        assert_eq!(snap.phases[0].phase, "full_range");
        assert_eq!(snap.phases[0].spans, 2);
        assert_eq!(snap.phases[0].total_ns, 6_000_000);
        assert_eq!(snap.phases[0].min_ns, 2_000_000);
        assert_eq!(snap.phases[0].max_ns, 4_000_000);
        assert_eq!(snap.phases[0].mean_ns(), 3_000_000);
        assert_eq!(snap.phases[1].phase, "stp");
        assert_eq!(snap.phases[1].spans, 1);
        assert_eq!(snap.total_ns(), 7_000_000);
        assert_eq!(snap.spans(), 3);
        assert!(!snap.is_empty());
    }

    #[test]
    fn spans_without_a_phase_go_to_the_unphased_slot() {
        let registry = TimingRegistry::new();
        registry.record_span(500_000);
        let snap = registry.snapshot();
        assert_eq!(snap.phases.len(), 1);
        assert_eq!(snap.phases[0].phase, UNPHASED);
        assert_eq!(snap.phases[0].spans, 1);
    }

    #[test]
    fn reentering_a_phase_reuses_its_slot() {
        let registry = TimingRegistry::new();
        registry.enter_phase("dsv");
        registry.record_span(1_000);
        registry.enter_phase("analysis");
        registry.enter_phase("dsv");
        registry.record_span(3_000);
        let snap = registry.snapshot();
        assert_eq!(snap.phases.len(), 2);
        assert_eq!(snap.phases[0].spans, 2, "dsv slot accumulated both");
    }

    #[test]
    fn timing_snapshot_round_trips_through_json() {
        let registry = TimingRegistry::new();
        registry.enter_phase("march");
        registry.record_span(42_000);
        let snap = registry.snapshot();
        let json = serde_json::to_string(&snap).expect("serializes");
        let back: TimingSnapshot = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, snap);
        assert!(snap.phases[0].hist_span_us.is_consistent());
    }

    #[test]
    fn empty_snapshot_is_empty() {
        assert!(TimingRegistry::new().snapshot().is_empty());
        assert_eq!(TimingSnapshot::default().total_ns(), 0);
    }
}
