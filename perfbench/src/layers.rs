//! Pass-through wrappers that count calls into one layer from outside it.
//!
//! Every wrapper forwards each call unchanged to the wrapped object and
//! only counts it (or records what it returned); `tests/passthrough.rs`
//! checks that wrapped and unwrapped campaigns agree bit for bit.
//!
//! * [`CountingBackend`] / its plans sit at `DeviceBackend` /
//!   `PreparedEvaluator`, reached through [`Device::from_backend`]: the
//!   `dut` layer's work counts.
//! * [`RecordingOracle`] sits at `BatchOracle`, between the tester's
//!   `TripOracle` and the search algorithms, and records the verdict
//!   stream so the same searches can be replayed against a zero-cost
//!   `ScriptedOracle`.
//! * [`CountingSink`] sits at `TraceSink`: the `trace` layer's event count,
//!   plus the committee-training spans of the `neural` layer, which the
//!   learning scheme brackets with its own trace records.
//!
//! The wrappers time nothing per call. A clock read costs ~65 ns here and
//! serializes the pipeline around a ~6 ns device evaluation, so per-call
//! spans would measure the clock. Per-operation costs come from
//! `isolate`, which times whole loops of the same operations on the
//! workload's own inputs.

use cichar_dut::{Device, DeviceBackend, Die, EvalPlan, FunctionalOutcome, Parametrics};
use cichar_dut::{PreparedEvaluator, ProcessCorner};
use cichar_patterns::{Pattern, PatternFeatures, TestConditions};
use cichar_search::{BatchOracle, PassFailOracle, Probe};
use cichar_trace::{TraceEvent, TraceRecord, TraceSink};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Device-layer call counts by kind. Statistics only, hence `Relaxed`.
#[derive(Debug, Default)]
struct DutCounts {
    evals: AtomicU64,
    prepares: AtomicU64,
    stress: AtomicU64,
}

impl DutCounts {
    fn fields(&self) -> [&AtomicU64; 3] {
        [&self.evals, &self.prepares, &self.stress]
    }

    fn drain_into(&self, into: &DutCounts) {
        for (from, to) in self.fields().into_iter().zip(into.fields()) {
            to.fetch_add(from.swap(0, Ordering::Relaxed), Ordering::Relaxed);
        }
    }
}

fn bump(counter: &AtomicU64, n: u64) {
    counter.fetch_add(n, Ordering::Relaxed);
}

/// Process-wide device totals. Each wrapper instance counts into its own
/// counters (one die's session lives on one worker thread, so they stay
/// uncontended) and drains them here when it is dropped.
fn dut_totals() -> &'static DutCounts {
    static DUT: OnceLock<DutCounts> = OnceLock::new();
    DUT.get_or_init(DutCounts::default)
}

/// The drained device totals. Counts held by wrappers still alive are not
/// included, so read it after the campaign's devices are dropped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DutSnapshot {
    /// Parametric evaluations (scalar, planned and batch elements).
    pub evals: u64,
    /// `prepare` calls — one per plan-cache miss.
    pub prepares: u64,
    /// `stress_total` calls — one per search set-up.
    pub stress: u64,
}

impl DutSnapshot {
    /// Reads the process-wide totals.
    pub fn now() -> Self {
        let [evals, prepares, stress] = dut_totals().fields().map(|c| c.load(Ordering::Relaxed));
        Self {
            evals,
            prepares,
            stress,
        }
    }

    /// The totals accumulated after `earlier`.
    pub fn since(&self, earlier: &DutSnapshot) -> DutSnapshot {
        DutSnapshot {
            evals: self.evals - earlier.evals,
            prepares: self.prepares - earlier.prepares,
            stress: self.stress - earlier.stress,
        }
    }
}

/// Pass-through `DeviceBackend` that counts every evaluation, plan
/// preparation and stress hoist.
#[derive(Debug)]
pub struct CountingBackend {
    inner: Box<dyn DeviceBackend>,
    counts: DutCounts,
}

impl CountingBackend {
    /// Wraps a backend into a [`Device`] whose every per-die copy
    /// ([`DeviceBackend::for_die`]) and prepared plan is wrapped too.
    pub fn device(inner: Box<dyn DeviceBackend>) -> Device {
        Device::from_backend(Box::new(Self::wrap(inner)))
    }

    fn wrap(inner: Box<dyn DeviceBackend>) -> Self {
        Self {
            inner,
            counts: DutCounts::default(),
        }
    }
}

impl Drop for CountingBackend {
    fn drop(&mut self) {
        self.counts.drain_into(dut_totals());
    }
}

impl DeviceBackend for CountingBackend {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn params(&self) -> Vec<(&'static str, f64)> {
        self.inner.params()
    }

    fn stress_axes(&self) -> &'static [&'static str] {
        self.inner.stress_axes()
    }

    fn die(&self) -> &Die {
        self.inner.die()
    }

    fn structural_key(&self) -> u64 {
        self.inner.structural_key()
    }

    fn for_die(&self, die: Die) -> Box<dyn DeviceBackend> {
        Box::new(Self::wrap(self.inner.for_die(die)))
    }

    fn stress_total(&self, features: &PatternFeatures) -> f64 {
        bump(&self.counts.stress, 1);
        self.inner.stress_total(features)
    }

    fn evaluate_with_stress(&self, stress_total: f64, conditions: &TestConditions) -> Parametrics {
        bump(&self.counts.evals, 1);
        self.inner.evaluate_with_stress(stress_total, conditions)
    }

    fn evaluate_features(
        &self,
        features: &PatternFeatures,
        conditions: &TestConditions,
    ) -> Parametrics {
        bump(&self.counts.evals, 1);
        self.inner.evaluate_features(features, conditions)
    }

    fn evaluate_batch(
        &self,
        features: &PatternFeatures,
        conditions: &[TestConditions],
    ) -> Vec<Parametrics> {
        bump(&self.counts.evals, conditions.len() as u64);
        self.inner.evaluate_batch(features, conditions)
    }

    fn evaluate_batch_into(
        &self,
        features: &PatternFeatures,
        conditions: &[TestConditions],
        out: &mut Vec<Parametrics>,
    ) {
        bump(&self.counts.evals, conditions.len() as u64);
        self.inner.evaluate_batch_into(features, conditions, out);
    }

    fn prepare(&self, conditions: &TestConditions) -> EvalPlan {
        bump(&self.counts.prepares, 1);
        Box::new(CountingPlan {
            inner: self.inner.prepare(conditions),
            evals: AtomicU64::new(0),
        })
    }

    fn execute_pattern(&self, pattern: &Pattern) -> FunctionalOutcome {
        self.inner.execute_pattern(pattern)
    }

    fn sample_die(&self, lot_seed: u64, index: u32) -> Die {
        self.inner.sample_die(lot_seed, index)
    }

    fn corner_die(&self, corner: ProcessCorner) -> Die {
        self.inner.corner_die(corner)
    }
}

/// Pass-through `PreparedEvaluator`: planned evaluations count as device
/// evaluations.
#[derive(Debug)]
struct CountingPlan {
    inner: EvalPlan,
    evals: AtomicU64,
}

impl Drop for CountingPlan {
    fn drop(&mut self) {
        bump(&dut_totals().evals, self.evals.swap(0, Ordering::Relaxed));
    }
}

impl PreparedEvaluator for CountingPlan {
    fn conditions(&self) -> &TestConditions {
        self.inner.conditions()
    }

    fn evaluate_with_stress(&self, stress_total: f64) -> Parametrics {
        bump(&self.evals, 1);
        self.inner.evaluate_with_stress(stress_total)
    }
}

/// Pass-through `BatchOracle` recording every verdict the oracle below it
/// returns, in order.
#[derive(Debug)]
pub struct RecordingOracle<O> {
    inner: O,
    verdicts: Vec<Probe>,
}

impl<O: BatchOracle> RecordingOracle<O> {
    /// Wraps `inner`.
    pub fn new(inner: O) -> Self {
        Self {
            inner,
            verdicts: Vec::new(),
        }
    }

    /// The wrapped oracle and the recorded verdicts.
    pub fn into_parts(self) -> (O, Vec<Probe>) {
        (self.inner, self.verdicts)
    }
}

impl<O: BatchOracle> PassFailOracle for RecordingOracle<O> {
    fn probe(&mut self, value: f64) -> Probe {
        let verdict = self.inner.probe(value);
        self.verdicts.push(verdict);
        verdict
    }
}

impl<O: BatchOracle> BatchOracle for RecordingOracle<O> {
    fn probe_batch_into(&mut self, values: &[f64], out: &mut Vec<Probe>) {
        let start = out.len();
        self.inner.probe_batch_into(values, out);
        self.verdicts.extend_from_slice(&out[start..]);
    }

    fn probe_batch_speculative_into(
        &mut self,
        values: &[f64],
        first_speculative: usize,
        out: &mut Vec<Probe>,
    ) {
        let start = out.len();
        self.inner
            .probe_batch_speculative_into(values, first_speculative, out);
        self.verdicts.extend_from_slice(&out[start..]);
    }
}

/// Pass-through `TraceSink` counting records, and timing the committee
/// training the learning scheme brackets: the span from the record before
/// each `CommitteeEpochFinished` event (the round's last measurement) to
/// that event, on the tracer's own record timestamps.
pub struct CountingSink {
    inner: Arc<dyn TraceSink>,
    records: AtomicU64,
    last_ts_us: AtomicU64,
    training_us: AtomicU64,
}

impl CountingSink {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn TraceSink>) -> Self {
        Self {
            inner,
            records: AtomicU64::new(0),
            last_ts_us: AtomicU64::new(0),
            training_us: AtomicU64::new(0),
        }
    }

    /// Records passed through.
    pub fn records(&self) -> u64 {
        self.records.load(Ordering::Relaxed)
    }

    /// Summed committee-training time in microseconds.
    pub fn training_us(&self) -> u64 {
        self.training_us.load(Ordering::Relaxed)
    }
}

impl TraceSink for CountingSink {
    fn record(&self, record: &TraceRecord) {
        bump(&self.records, 1);
        let previous = self.last_ts_us.swap(record.ts_us, Ordering::Relaxed);
        if matches!(record.event, TraceEvent::CommitteeEpochFinished { .. }) {
            bump(&self.training_us, record.ts_us.saturating_sub(previous));
        }
        self.inner.record(record);
    }

    fn finish(&self) -> io::Result<()> {
        self.inner.finish()
    }
}
