//! The tester: executes tests with forced parameters, returns verdicts.

use crate::drift::DriftModel;
use crate::fault::{FaultState, TesterFaultModel};
use crate::ledger::MeasurementLedger;
use crate::noise::NoiseModel;
use crate::oracle::TripOracle;
use crate::params::MeasuredParam;
use crate::prepared::PreparedTest;
use cichar_dut::{Device, EvalPlan, Parametrics};
use cichar_patterns::{PatternFeatures, Test, TestConditions};
use cichar_search::{Probe, RecoveryStats, RetryPolicy, RobustOracle};
use cichar_trace::{FaultKind, SpanTrace, TraceEvent};
use cichar_units::{Celsius, Megahertz, ParamKind, Volts};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::fmt;

/// Stream-split salt for the fault RNG: the fault stream must never share
/// draws with the noise stream, or enabling faults would perturb the noise
/// sequence of historical seeds.
const FAULT_STREAM: u64 = 0xFA_u64 << 56 | 0x17;

/// Key of one memoized probe: a hash of the exact stimulus (pattern,
/// conditions, and every forced parameter including the probed value).
pub(crate) type ProbeKey = u64;

/// Mixes one word into a probe-identity hash. The chain is sequential, so
/// a prefix of the mix (pattern + conditions + relaxation forces) can be
/// precomputed once per search and extended per probe.
pub(crate) fn mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29)
}

/// Hashes the *exact* stimulus a probe applies: pattern content, the
/// test's own conditions (full `f64` bits, unlike `Test::identity`'s
/// quantization — the cache must never alias two different stimuli), and
/// every forced parameter in order.
pub(crate) fn probe_identity(
    pattern_hash: u64,
    conditions: &cichar_patterns::TestConditions,
    forces: &[(ParamKind, f64)],
) -> u64 {
    let mut h = mix(0x51CA_C4E5_D00D_F00D, pattern_hash);
    h = mix(h, conditions.vdd.value().to_bits());
    h = mix(h, conditions.temperature.value().to_bits());
    h = mix(h, conditions.clock.value().to_bits());
    for &(kind, value) in forces {
        h = mix(h, kind as u64);
        h = mix(h, value.to_bits());
    }
    h
}

/// Applies forced parameters over a test's base conditions, returning the
/// effective conditions and the forced strobe delay (if any). Force order
/// matters: a later force of the same parameter wins, exactly as the
/// historical inline loop behaved.
pub(crate) fn apply_forces(
    base: &TestConditions,
    forces: &[(ParamKind, f64)],
) -> (TestConditions, Option<f64>) {
    let mut conditions = *base;
    let mut strobe: Option<f64> = None;
    for &(kind, value) in forces {
        match kind {
            ParamKind::StrobeDelay => strobe = Some(value),
            ParamKind::SupplyVoltage => conditions = conditions.with_vdd(Volts::new(value)),
            ParamKind::ClockFrequency => {
                conditions = conditions.with_clock(Megahertz::new(value))
            }
            ParamKind::Temperature => {
                conditions = conditions.with_temperature(Celsius::new(value))
            }
        }
    }
    (conditions, strobe)
}

/// Reusable buffers behind the batched measurement path. Taken out of the
/// session for the duration of one batch call (the fault layer needs
/// `&mut self`) and always restored **empty** — with capacity — so cloned
/// sessions start from a blank scratch and session semantics never depend
/// on what a previous batch left behind.
#[derive(Debug, Clone, Default)]
struct BatchScratch {
    conditions: Vec<TestConditions>,
    strobes: Vec<Option<f64>>,
    params: Vec<Parametrics>,
}

/// The session's installed [`EvalPlan`]: condition-hoisted device
/// constants prepared once per search setup. Acceleration state only — a
/// plan is conformance-proven bit-identical to the scalar arithmetic at
/// its own conditions and bypassed entirely at any other conditions — so
/// clones start cold and the debug form is opaque.
#[derive(Default)]
struct PlanCache(Option<EvalPlan>);

impl Clone for PlanCache {
    fn clone(&self) -> Self {
        PlanCache(None)
    }
}

impl fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("PlanCache")
    }
}

/// Tester configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct AteConfig {
    /// Measurement noise model.
    pub noise: NoiseModel,
    /// Session thermal drift.
    pub drift: DriftModel,
    /// Tester fault injection (dropouts, flips, stuck channels, aborts).
    pub faults: TesterFaultModel,
    /// RNG seed for the noise and fault streams (sessions are
    /// reproducible; the two streams are split from this one seed).
    pub seed: u64,
}

impl Default for AteConfig {
    fn default() -> Self {
        Self {
            noise: NoiseModel::default(),
            drift: DriftModel::none(),
            faults: TesterFaultModel::none(),
            seed: 0x1CA7_ACE5,
        }
    }
}

/// The simulated automatic test equipment.
///
/// One `Ate` holds one device on its load board. A *measurement* applies a
/// test's pattern at its conditions — with zero or more parameters forced
/// to explicit values — and compares against the device's (noisy) limits:
///
/// * the forced strobe delay must lie within the data-valid window,
/// * the effective clock must not exceed `f_max`,
/// * the effective supply must not drop below `vdd_min`.
///
/// Only the [`Probe`] verdict leaves the tester; true parametrics stay
/// hidden, exactly like real ATE.
///
/// # Examples
///
/// ```
/// use cichar_ate::{Ate, MeasuredParam};
/// use cichar_dut::MemoryDevice;
/// use cichar_patterns::{march, Test};
/// use cichar_search::Probe;
///
/// let mut ate = Ate::new(MemoryDevice::nominal());
/// let test = Test::deterministic("march_x", march::march_x(96));
/// // Strobing far inside the valid window passes…
/// assert_eq!(ate.measure(&test, MeasuredParam::DataValidTime, 15.0), Probe::Pass);
/// // …strobing far beyond it fails.
/// assert_eq!(ate.measure(&test, MeasuredParam::DataValidTime, 39.0), Probe::Fail);
/// ```
#[derive(Debug, Clone)]
pub struct Ate {
    device: Device,
    config: AteConfig,
    ledger: MeasurementLedger,
    rng: StdRng,
    /// Fault-injection RNG, split from the session seed on its own stream
    /// so a fault-free session draws from it never and historical noise
    /// sequences stay stable.
    fault_rng: StdRng,
    /// Active stuck-channel / session-abort bursts.
    fault_state: FaultState,
    /// Oracle memoization cache (probe stimulus hash → verdict), present
    /// when enabled via [`Ate::with_memoization`]. Only consulted when
    /// the configuration is noiseless and drift-free — the sole regime
    /// where a verdict is a pure function of the stimulus.
    cache: Option<HashMap<ProbeKey, Probe>>,
    /// The active trace span. Fault injection emits `FaultInjected` events
    /// into it; disabled (the default) it costs one branch per fault.
    trace: SpanTrace,
    /// Scratch buffers for the batched measurement path (always empty
    /// between calls).
    batch: BatchScratch,
    /// The prepared-evaluator cache for the current search's conditions.
    plan: PlanCache,
}

impl Ate {
    /// Loads a device with the default configuration.
    pub fn new(device: impl Into<Device>) -> Self {
        Self::with_config(device, AteConfig::default())
    }

    /// Loads a device with an explicit configuration.
    pub fn with_config(device: impl Into<Device>, config: AteConfig) -> Self {
        let rng = StdRng::seed_from_u64(config.seed);
        let fault_rng = StdRng::seed_from_u64(cichar_exec::derive_seed(config.seed, FAULT_STREAM));
        Self {
            device: device.into(),
            config,
            ledger: MeasurementLedger::new(),
            rng,
            fault_rng,
            fault_state: FaultState::default(),
            cache: None,
            trace: SpanTrace::disabled(),
            batch: BatchScratch::default(),
            plan: PlanCache::default(),
        }
    }

    /// Installs the trace span fault injection and probes report into.
    /// Runners install the span of the test being measured and reset to
    /// [`SpanTrace::disabled`] when done.
    pub fn set_trace(&mut self, span: SpanTrace) {
        self.trace = span;
    }

    /// The currently installed trace span.
    pub fn trace(&self) -> &SpanTrace {
        &self.trace
    }

    /// Enables the oracle memoization cache: repeated probes of the same
    /// test at the same parameter point are answered from memory instead
    /// of re-applying the pattern (STP re-probes near the reference trip
    /// point constantly). Cache hits are counted separately in the ledger
    /// ([`MeasurementLedger::cached_probes`]), so measurement-economy
    /// numbers stay honest.
    ///
    /// The cache is only *consulted* when the session is noiseless and
    /// drift-free; a noisy or drifting tester re-measures every probe,
    /// because its verdicts are not pure functions of the stimulus.
    pub fn with_memoization(mut self) -> Self {
        self.cache = Some(HashMap::new());
        self
    }

    /// Whether memoization was enabled on this session.
    pub fn memoization_enabled(&self) -> bool {
        self.cache.is_some()
    }

    /// Whether memoized verdicts may be served right now: the cache is
    /// enabled and the configuration makes verdicts stimulus-pure (no
    /// noise, no drift, and no fault injection — a glitching tester's
    /// verdicts must never be replayed from memory).
    pub(crate) fn memo_active(&self) -> bool {
        self.cache.is_some()
            && self.config.noise.is_noiseless()
            && self.config.drift.is_none()
            && self.config.faults.is_none()
    }

    /// Serves a probe from the cache, charging the ledger's cached-probe
    /// counter. Returns `None` on miss or when memoization is inactive.
    pub(crate) fn cache_lookup(&mut self, key: ProbeKey) -> Option<Probe> {
        if !self.memo_active() {
            return None;
        }
        let verdict = *self.cache.as_ref()?.get(&key)?;
        self.ledger.record_cached();
        Some(verdict)
    }

    /// Remembers a measured verdict for future probes of the same key.
    pub(crate) fn cache_store(&mut self, key: ProbeKey, verdict: Probe) {
        if self.memo_active() {
            if let Some(cache) = self.cache.as_mut() {
                cache.insert(key, verdict);
            }
        }
    }

    /// Installs the prepared evaluator for `conditions`: keeps a plan
    /// already there, re-prepares the installed plan in place when it can
    /// ([`PreparedEvaluator::retarget`]), and prepares a new one only
    /// otherwise — so a session whose searches move between conditions
    /// allocates one plan, not one per search. The plan only serves
    /// measurements whose effective conditions equal its own — everything
    /// else falls back to the scalar arithmetic — so a stale plan can
    /// never change a verdict, only miss.
    ///
    /// [`PreparedEvaluator::retarget`]: cichar_dut::PreparedEvaluator::retarget
    pub(crate) fn install_plan(&mut self, conditions: &TestConditions) {
        if let Some(plan) = self.plan.0.as_mut() {
            if plan.conditions() == conditions || plan.retarget(conditions) {
                return;
            }
        }
        self.plan.0 = Some(self.device.prepare(conditions));
    }

    /// Evaluates through the installed plan when the conditions match it,
    /// bit-identically to [`Device::evaluate_with_stress`] either way.
    fn evaluate_cached(&self, stress_total: f64, conditions: &TestConditions) -> Parametrics {
        match self.plan.0.as_ref() {
            Some(plan) if plan.conditions() == conditions => {
                plan.evaluate_with_stress(stress_total)
            }
            _ => self.device.evaluate_with_stress(stress_total, conditions),
        }
    }

    /// A noiseless, drift-free tester — physics assertions in tests and
    /// reproducible examples use this.
    pub fn noiseless(device: impl Into<Device>) -> Self {
        Self::with_config(
            device,
            AteConfig {
                noise: NoiseModel::noiseless(),
                drift: DriftModel::none(),
                faults: TesterFaultModel::none(),
                seed: 0,
            },
        )
    }

    /// The measurement ledger (running totals for this session).
    pub fn ledger(&self) -> &MeasurementLedger {
        &self.ledger
    }

    /// The loaded device (read-only; the characterization stack must not
    /// peek at true values, but reports may describe the die).
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// The tester configuration.
    pub fn config(&self) -> &AteConfig {
        &self.config
    }

    /// Measures the test with one parameter forced to `value`.
    ///
    /// This is the elementary trip-point probe: for
    /// [`MeasuredParam::DataValidTime`] the strobe delay is forced, for
    /// [`MeasuredParam::MaxFrequency`] the vector clock, for
    /// [`MeasuredParam::MinVoltage`] the supply.
    pub fn measure(&mut self, test: &Test, param: MeasuredParam, value: f64) -> Probe {
        let mut forces: Vec<(ParamKind, f64)> = param.relax_forces().to_vec();
        forces.push((param.kind(), value));
        self.measure_forced(test, &forces)
    }

    /// Measures the test with an arbitrary set of forced parameters
    /// (the shmoo engine forces two at once).
    pub fn measure_forced(&mut self, test: &Test, forces: &[(ParamKind, f64)]) -> Probe {
        let digest = test.stimulus().digest();
        if self.memo_active() {
            let key = probe_identity(digest.content_hash, test.conditions(), forces);
            if let Some(verdict) = self.cache_lookup(key) {
                return verdict;
            }
            let verdict = self.measure_features(&digest.features, digest.cycles, test, forces);
            self.cache_store(key, verdict);
            return verdict;
        }
        self.measure_features(&digest.features, digest.cycles, test, forces)
    }

    /// Hot path: measure with pre-extracted features (search loops apply
    /// the same pattern at many parameter points; extraction is pure so it
    /// can be hoisted).
    pub fn measure_features(
        &mut self,
        features: &PatternFeatures,
        pattern_cycles: u64,
        test: &Test,
        forces: &[(ParamKind, f64)],
    ) -> Probe {
        let (conditions, strobe) = self.conditioned(test, forces);
        self.ledger.record(pattern_cycles, conditions.clock.value());
        let true_params = self.device.evaluate_features(features, &conditions);
        self.finish_measurement(&true_params, strobe, &conditions)
    }

    /// [`Ate::measure_features`] with the stimulus' stress total already
    /// hoisted by the caller — the multi-site hot path, where one stress
    /// breakdown serves every site of a touchdown batch
    /// ([`crate::MultiSiteAte`]). Bit-identical to `measure_features` when
    /// `stress_total` comes from this device's stimulus (the scalar path
    /// itself evaluates through the same stress-hoisted arithmetic).
    pub(crate) fn measure_features_with_stress(
        &mut self,
        stress_total: f64,
        pattern_cycles: u64,
        test: &Test,
        forces: &[(ParamKind, f64)],
    ) -> Probe {
        let (conditions, strobe) = self.conditioned(test, forces);
        self.ledger.record(pattern_cycles, conditions.clock.value());
        let true_params = self.evaluate_cached(stress_total, &conditions);
        self.finish_measurement(&true_params, strobe, &conditions)
    }

    /// The effective conditions and strobe of one measurement: forced
    /// environmental parameters applied over the test's own conditions,
    /// plus the session's drift-heated ambient.
    fn conditioned(
        &self,
        test: &Test,
        forces: &[(ParamKind, f64)],
    ) -> (TestConditions, Option<f64>) {
        let (mut conditions, strobe) = apply_forces(test.conditions(), forces);
        // Session drift heats the die on top of the forced ambient.
        let rise = self.config.drift.temperature_rise(self.ledger.cycles());
        if rise > 0.0 {
            conditions =
                conditions.with_temperature(conditions.temperature + Celsius::new(rise));
        }
        (conditions, strobe)
    }

    /// The measurement back half shared by the scalar, stress-hoisted and
    /// batched paths: three noise draws (t_dq, f_max, vdd_min order), the
    /// verdict, and the fault layer. The ledger entry is recorded by the
    /// caller *before* the device evaluation, matching the historical
    /// order.
    fn finish_measurement(
        &mut self,
        true_params: &Parametrics,
        strobe: Option<f64>,
        conditions: &TestConditions,
    ) -> Probe {
        let noise = &self.config.noise;
        let verdict = if noise.strobe_passes(&mut self.rng, true_params, strobe, conditions) {
            Probe::Pass
        } else {
            Probe::Fail
        };
        self.inject_faults(verdict)
    }

    /// Batched hot path: measures the same test at many values of one
    /// swept parameter in a single call, appending exactly `values.len()`
    /// verdicts to a caller-owned buffer (never clearing it).
    ///
    /// The per-element physics is **bit-identical** to calling
    /// [`Ate::measure_features`] once per value in order — drift advances
    /// by the pattern's cycle count between elements, and the noise and
    /// fault RNG streams are consumed in exactly the scalar order — but
    /// the device response is evaluated once over the whole batch
    /// ([`Device::evaluate_batch`] hoists the pattern's stress
    /// breakdown out of the per-value loop), which is what the batched
    /// oracle call sites buy. The per-element conditions, strobes and
    /// device responses live in session-owned scratch buffers that are
    /// reused across calls, so the call allocates nothing in steady state.
    ///
    /// `base_forces` are applied to every element (§4 relaxation);
    /// `swept` is forced to each of `values` in turn.
    #[allow(clippy::too_many_arguments)]
    pub fn measure_features_batch_into(
        &mut self,
        features: &PatternFeatures,
        pattern_cycles: u64,
        test: &Test,
        base_forces: &[(ParamKind, f64)],
        swept: ParamKind,
        values: &[f64],
        out: &mut Vec<Probe>,
    ) {
        if values.is_empty() {
            return;
        }
        // The scratch is taken for the duration of the call (the fault
        // layer below needs `&mut self`) and restored empty at the end.
        let mut scratch = std::mem::take(&mut self.batch);
        scratch.conditions.clear();
        scratch.conditions.reserve(values.len());
        scratch.strobes.clear();
        scratch.strobes.reserve(values.len());
        // Pass 1: per-element conditions. Drift for element `i` is known
        // analytically — every element of the batch applies the same
        // pattern, so its cycle counter reads `c0 + i·pattern_cycles`.
        let c0 = self.ledger.cycles();
        for (i, &value) in values.iter().enumerate() {
            let mut conditions = *test.conditions();
            let mut strobe: Option<f64> = None;
            let swept_force = (swept, value);
            for &(kind, forced) in base_forces.iter().chain(std::iter::once(&swept_force)) {
                match kind {
                    ParamKind::StrobeDelay => strobe = Some(forced),
                    ParamKind::SupplyVoltage => {
                        conditions = conditions.with_vdd(Volts::new(forced))
                    }
                    ParamKind::ClockFrequency => {
                        conditions = conditions.with_clock(Megahertz::new(forced))
                    }
                    ParamKind::Temperature => {
                        conditions = conditions.with_temperature(Celsius::new(forced))
                    }
                }
            }
            let rise = self
                .config
                .drift
                .temperature_rise(c0 + i as u64 * pattern_cycles);
            if rise > 0.0 {
                conditions =
                    conditions.with_temperature(conditions.temperature + Celsius::new(rise));
            }
            scratch.conditions.push(conditions);
            scratch.strobes.push(strobe);
        }

        // One pure device evaluation over the whole batch: the stress
        // total is hoisted once, and elements whose conditions match the
        // installed plan go through its pre-folded constants —
        // bit-identical to [`Device::evaluate_batch`] either way.
        let stress_total = self.device.stress_total(features);
        scratch.params.clear();
        scratch.params.reserve(values.len());
        for c in &scratch.conditions {
            scratch.params.push(self.evaluate_cached(stress_total, c));
        }

        // Pass 2: sequential bookkeeping in exactly the scalar order —
        // ledger record, three noise draws, verdict, fault layer.
        out.reserve(values.len());
        for (i, params) in scratch.params.iter().enumerate() {
            let conditions = &scratch.conditions[i];
            self.ledger.record(pattern_cycles, conditions.clock.value());
            out.push(self.finish_measurement(params, scratch.strobes[i], conditions));
        }

        scratch.conditions.clear();
        scratch.strobes.clear();
        scratch.params.clear();
        self.batch = scratch;
    }

    /// Marks the `n` most recent measurements as speculative pre-issues in
    /// the ledger (batched oracles call this for the discardable tail of a
    /// speculative batch).
    pub(crate) fn record_speculative(&mut self, n: u64) {
        for _ in 0..n {
            self.ledger.record_speculative();
        }
    }

    /// Passes the true verdict through the tester's fault layer. A healthy
    /// tester short-circuits without touching the fault RNG; a faulty one
    /// draws a fixed number of uniforms per measurement so replay is exact
    /// regardless of which faults fire.
    fn inject_faults(&mut self, verdict: Probe) -> Probe {
        if self.config.faults.is_none() {
            return verdict;
        }
        // Active session abort: the handler lost the device; every verdict
        // in the burst is unavailable.
        if self.fault_state.abort_remaining > 0 {
            self.fault_state.abort_remaining -= 1;
            self.ledger.record_dropout();
            self.trace.emit(TraceEvent::FaultInjected {
                kind: FaultKind::Dropout,
            });
            return Probe::Invalid;
        }
        // Active stuck channel: the comparator repeats its latched verdict.
        if let (true, Some(stuck)) = (
            self.fault_state.stuck_remaining > 0,
            self.fault_state.stuck_verdict,
        ) {
            self.fault_state.stuck_remaining -= 1;
            if self.fault_state.stuck_remaining == 0 {
                self.fault_state.stuck_verdict = None;
            }
            self.ledger.record_stuck_probe();
            self.trace.emit(TraceEvent::FaultInjected {
                kind: FaultKind::Stuck,
            });
            return stuck;
        }
        // Fixed draw order — abort, dropout, stuck, flip, then stall — so
        // the stream consumption per measurement is constant and
        // replayable. The stall uniform is drawn only when the config
        // enables stalls: it was added after the first four, and gating it
        // on the *config* (never on which fault fired) keeps every
        // pre-stall seed's fault stream bit-identical.
        let faults = self.config.faults;
        let r_abort: f64 = self.fault_rng.gen();
        let r_dropout: f64 = self.fault_rng.gen();
        let r_stuck: f64 = self.fault_rng.gen();
        let r_flip: f64 = self.fault_rng.gen();
        let r_stall: Option<f64> = (faults.stall_rate() > 0.0).then(|| self.fault_rng.gen());
        if r_abort < faults.abort_rate() {
            // This measurement is the first casualty of the abort burst.
            self.fault_state.abort_remaining = faults.abort_len() - 1;
            self.ledger.record_abort();
            self.ledger.record_dropout();
            self.trace.emit(TraceEvent::FaultInjected {
                kind: FaultKind::Abort,
            });
            return Probe::Invalid;
        }
        if r_dropout < faults.dropout_rate() {
            self.ledger.record_dropout();
            self.trace.emit(TraceEvent::FaultInjected {
                kind: FaultKind::Dropout,
            });
            return Probe::Invalid;
        }
        if r_stuck < faults.stuck_rate() {
            // The channel latches this (true) verdict for the next burst.
            self.fault_state.stuck_remaining = faults.stuck_len();
            self.fault_state.stuck_verdict = Some(verdict);
            return verdict;
        }
        if r_flip < faults.flip_rate() {
            self.ledger.record_flip();
            self.trace.emit(TraceEvent::FaultInjected {
                kind: FaultKind::Flip,
            });
            return verdict.flipped();
        }
        // Lowest precedence: a hung strobe. The verdict is correct — the
        // channel just took `stall_us` of extra simulated tester time to
        // produce it, which is what the wafer watchdog budgets against.
        if r_stall.is_some_and(|r| r < faults.stall_rate()) {
            self.ledger.record_stall(faults.stall_us());
            self.trace.emit(TraceEvent::FaultInjected {
                kind: FaultKind::Stall,
            });
        }
        verdict
    }

    /// Borrows the tester as a search oracle for one test and parameter.
    pub fn trip_oracle<'a>(&'a mut self, test: &'a Test, param: MeasuredParam) -> TripOracle<'a> {
        TripOracle::new(self, test, param)
    }

    /// [`Ate::trip_oracle`] from per-campaign hoisted test context and a
    /// recycled forces buffer — the allocation-free form. The oracle
    /// performs no pattern expansion, feature extraction or hashing; pass
    /// an empty `Vec` on the first search and feed each oracle's
    /// [`TripOracle::into_forces`] back into the next.
    pub fn trip_oracle_prepared<'a>(
        &'a mut self,
        prepared: &PreparedTest<'a>,
        param: MeasuredParam,
        forces: Vec<(ParamKind, f64)>,
    ) -> TripOracle<'a> {
        TripOracle::from_prepared(self, prepared, param, forces)
    }

    /// Borrows the tester as a fault-tolerant search oracle: a
    /// [`RobustOracle`] applying `policy`'s retry / backoff / voting
    /// ladder over the raw [`TripOracle`]. After the search, release the
    /// borrow with [`RobustOracle::into_stats`] and charge the recovery
    /// cost back with [`Ate::absorb_recovery`].
    pub fn robust_oracle<'a>(
        &'a mut self,
        test: &'a Test,
        param: MeasuredParam,
        policy: RetryPolicy,
    ) -> RobustOracle<TripOracle<'a>> {
        let span = self.trace.clone();
        RobustOracle::new(TripOracle::new(self, test, param), policy).with_trace(span)
    }

    /// Charges a [`RobustOracle`]'s recovery tally to this session's
    /// ledger: re-issued strobes and simulated backoff settle time. The
    /// retried measurements themselves were already recorded when they
    /// ran.
    pub fn absorb_recovery(&mut self, stats: &RecoveryStats) {
        self.ledger.record_recovery(stats.retries, stats.backoff_us);
    }

    /// Records in the ledger that a characterization point measured on
    /// this session was quarantined — excluded from the reported result
    /// because recovery could not produce a trustworthy trip point.
    pub fn quarantine(&mut self) {
        self.ledger.record_quarantined();
    }

    /// Records that the stall watchdog abandoned a test on this session:
    /// the point is quarantined *and* counted as a timeout, so breaker
    /// and durability accounting can tell "gave up waiting" apart from
    /// "measured but untrustworthy".
    pub fn time_out(&mut self) {
        self.ledger.record_timeout();
        self.ledger.record_quarantined();
    }

    /// One production-style application: the pattern runs once with
    /// `param` forced to `limit`, and the verdict combines the parametric
    /// envelope with a cycle-accurate data compare against the device's
    /// fault model — §1's "determines if the device meets its design
    /// specification", in a single measurement.
    pub fn measure_production(
        &mut self,
        test: &Test,
        param: MeasuredParam,
        limit: f64,
    ) -> Probe {
        let parametric = self.measure(test, param, limit);
        if parametric != Probe::Pass {
            return Probe::Fail;
        }
        // Same pattern application: the data compare costs no extra
        // tester time, so it is not charged to the ledger again.
        if self.device.execute_pattern(&test.pattern()).pass() {
            Probe::Pass
        } else {
            Probe::Fail
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cichar_dut::MemoryDevice;
    use cichar_patterns::{march, random, TestConditions};
    use cichar_search::{BinarySearch, SearchUntilTrip, SuccessiveApproximation};

    fn march_test() -> Test {
        Test::deterministic("march_c-", march::march_c_minus(64))
    }

    #[test]
    fn strobe_verdicts_bracket_t_dq() {
        let mut ate = Ate::noiseless(MemoryDevice::nominal());
        let t = march_test();
        // March C- true t_dq ≈ 32.3 ns on the nominal die.
        assert_eq!(ate.measure(&t, MeasuredParam::DataValidTime, 30.0), Probe::Pass);
        assert_eq!(ate.measure(&t, MeasuredParam::DataValidTime, 34.0), Probe::Fail);
    }

    #[test]
    fn frequency_verdicts_bracket_f_max() {
        let mut ate = Ate::noiseless(MemoryDevice::nominal());
        let t = march_test();
        assert_eq!(ate.measure(&t, MeasuredParam::MaxFrequency, 100.0), Probe::Pass);
        assert_eq!(ate.measure(&t, MeasuredParam::MaxFrequency, 125.0), Probe::Fail);
    }

    #[test]
    fn voltage_verdicts_bracket_vdd_min() {
        let mut ate = Ate::noiseless(MemoryDevice::nominal());
        let t = march_test();
        assert_eq!(ate.measure(&t, MeasuredParam::MinVoltage, 1.8), Probe::Pass);
        assert_eq!(ate.measure(&t, MeasuredParam::MinVoltage, 1.2), Probe::Fail);
    }

    #[test]
    fn ledger_counts_each_measurement() {
        let mut ate = Ate::noiseless(MemoryDevice::nominal());
        let t = march_test();
        for _ in 0..5 {
            let _ = ate.measure(&t, MeasuredParam::DataValidTime, 20.0);
        }
        assert_eq!(ate.ledger().measurements(), 5);
        assert_eq!(ate.ledger().cycles(), 5 * 640);
    }

    #[test]
    fn binary_search_recovers_true_t_dq() {
        let mut ate = Ate::noiseless(MemoryDevice::nominal());
        let t = march_test();
        let param = MeasuredParam::DataValidTime;
        let search = BinarySearch::new(param.generous_range(), 0.02);
        let outcome = search.run(param.region_order(), ate.trip_oracle(&t, param));
        let trip = outcome.trip_point.expect("in range");
        assert!((trip - 32.3).abs() < 0.5, "trip = {trip}");
    }

    #[test]
    fn vdd_min_search_uses_eq4_orientation() {
        let mut ate = Ate::noiseless(MemoryDevice::nominal());
        let t = march_test();
        let param = MeasuredParam::MinVoltage;
        let search = BinarySearch::new(param.generous_range(), param.resolution());
        let outcome = search.run(param.region_order(), ate.trip_oracle(&t, param));
        let trip = outcome.trip_point.expect("in range");
        assert!((1.3..1.5).contains(&trip), "vdd_min trip = {trip}");
    }

    #[test]
    fn forcing_vdd_shifts_the_t_dq_verdict() {
        let mut ate = Ate::noiseless(MemoryDevice::nominal());
        let t = march_test();
        // Passing strobe at nominal Vdd…
        let nominal = ate.measure_forced(
            &t,
            &[(ParamKind::StrobeDelay, 31.0), (ParamKind::SupplyVoltage, 1.8)],
        );
        // …fails when the supply is starved (window shrinks below 31 ns).
        let starved = ate.measure_forced(
            &t,
            &[(ParamKind::StrobeDelay, 31.0), (ParamKind::SupplyVoltage, 1.5)],
        );
        assert_eq!(nominal, Probe::Pass);
        assert_eq!(starved, Probe::Fail);
    }

    #[test]
    fn noise_flips_verdicts_only_near_the_boundary() {
        let device = MemoryDevice::nominal();
        let mut noisy = Ate::with_config(
            device,
            AteConfig {
                noise: NoiseModel::new(0.05, 0.0, 0.0),
                drift: DriftModel::none(),
                seed: 7,
                ..AteConfig::default()
            },
        );
        let t = march_test();
        let mut far_flips = 0;
        let mut near_mixed = (0, 0);
        for _ in 0..100 {
            if !matches!(noisy.measure(&t, MeasuredParam::DataValidTime, 20.0), Probe::Pass) {
                far_flips += 1;
            }
            match noisy.measure(&t, MeasuredParam::DataValidTime, 32.3) {
                Probe::Pass => near_mixed.0 += 1,
                Probe::Fail => near_mixed.1 += 1,
                Probe::Invalid => unreachable!("no fault injection configured"),
            }
        }
        assert_eq!(far_flips, 0, "20 ns is about 246σ from the 32.3 ns boundary");
        assert!(
            near_mixed.0 > 5 && near_mixed.1 > 5,
            "at the boundary noise must produce both verdicts, got {near_mixed:?}"
        );
    }

    #[test]
    fn clear_cut_strobes_skip_the_noise_transform() {
        // Each strobe draws three noise samples. Only those whose limit
        // lies within both bounds of the forced value need the Box–Muller
        // transform: `Z_MAX·σ`, then the draw's own bin bound. STP walks
        // spend most strobes away from the trip point. These walks make
        // 0.19 transforms per strobe, 0.77 with the first bound alone.
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let tests: Vec<Test> = (0..64)
            .map(|_| random::random_test_at(&mut rng, TestConditions::nominal()))
            .collect();
        let mut ate = Ate::with_config(MemoryDevice::nominal(), AteConfig::default());
        let transforms = || crate::noise::TRANSFORMS.with(std::cell::Cell::get);
        let before = transforms();
        for param in MeasuredParam::ALL {
            let full = SuccessiveApproximation::new(param.generous_range(), param.resolution());
            let stp = SearchUntilTrip::new(param.generous_range(), param.search_factor())
                .with_refinement(param.resolution());
            let mut reference = None;
            for t in &tests {
                let oracle = ate.trip_oracle(t, param);
                let outcome = match reference {
                    None => full.run(param.region_order(), oracle),
                    Some(rtp) => stp.run(rtp, param.region_order(), oracle),
                };
                reference = outcome.trip_point.or(reference);
            }
        }
        let strobes = ate.ledger().measurements();
        let per_strobe = (transforms() - before) as f64 / strobes as f64;
        assert!(strobes > 500, "{strobes} strobes");
        assert!(per_strobe < 0.35, "{per_strobe:.2} transforms per strobe (3 without the bounds)");
    }

    #[test]
    fn drift_erodes_margin_over_long_sessions() {
        let config = AteConfig {
            noise: NoiseModel::noiseless(),
            drift: DriftModel::new(60.0, 2e5),
            seed: 0,
            ..AteConfig::default()
        };
        let mut ate = Ate::with_config(MemoryDevice::nominal(), config);
        let t = march_test();
        // Just inside the window when cold…
        assert_eq!(ate.measure(&t, MeasuredParam::DataValidTime, 32.0), Probe::Pass);
        // …after a long session the die is hot and the window shrank.
        for _ in 0..2000 {
            let _ = ate.measure(&t, MeasuredParam::DataValidTime, 5.0);
        }
        assert_eq!(ate.measure(&t, MeasuredParam::DataValidTime, 32.0), Probe::Fail);
    }

    #[test]
    fn drifting_session_still_converges_with_successive_approximation() {
        let config = AteConfig {
            noise: NoiseModel::noiseless(),
            drift: DriftModel::new(20.0, 5e4),
            seed: 0,
            ..AteConfig::default()
        };
        let mut ate = Ate::with_config(MemoryDevice::nominal(), config);
        let t = march_test();
        let param = MeasuredParam::DataValidTime;
        let search = SuccessiveApproximation::new(param.generous_range(), param.resolution());
        let outcome = search.run(param.region_order(), ate.trip_oracle(&t, param));
        assert!(outcome.converged, "drift-tolerant search should converge");
    }

    fn faulty_config(faults: TesterFaultModel, seed: u64) -> AteConfig {
        AteConfig {
            noise: NoiseModel::noiseless(),
            drift: DriftModel::none(),
            faults,
            seed,
        }
    }

    #[test]
    fn fault_free_sessions_ignore_the_fault_layer() {
        // Same seed, faults explicitly none vs default: identical verdict
        // streams and zero fault columns.
        let t = march_test();
        let mut ate = Ate::with_config(
            MemoryDevice::nominal(),
            faulty_config(TesterFaultModel::none(), 42),
        );
        for i in 0..50 {
            let v = ate.measure(&t, MeasuredParam::DataValidTime, 20.0 + 0.2 * f64::from(i));
            assert!(v.is_valid());
        }
        assert_eq!(ate.ledger().injected_faults(), 0);
    }

    #[test]
    fn dropouts_return_invalid_and_are_ledgered() {
        let t = march_test();
        let faults = TesterFaultModel::transient(0.0, 0.3);
        let mut ate = Ate::with_config(MemoryDevice::nominal(), faulty_config(faults, 9));
        let mut invalids = 0;
        for _ in 0..200 {
            if !ate.measure(&t, MeasuredParam::DataValidTime, 20.0).is_valid() {
                invalids += 1;
            }
        }
        assert!(invalids > 20, "30% dropout must show, got {invalids}");
        assert_eq!(ate.ledger().dropouts(), invalids);
        assert_eq!(ate.ledger().flips(), 0);
    }

    #[test]
    fn flips_invert_verdicts_and_are_ledgered() {
        let t = march_test();
        let faults = TesterFaultModel::transient(0.3, 0.0);
        let mut ate = Ate::with_config(MemoryDevice::nominal(), faulty_config(faults, 11));
        // 20 ns is deep inside the valid window: every Fail is a flip.
        let mut fails = 0;
        for _ in 0..200 {
            if ate.measure(&t, MeasuredParam::DataValidTime, 20.0) == Probe::Fail {
                fails += 1;
            }
        }
        assert!(fails > 20, "30% flips must show, got {fails}");
        assert_eq!(ate.ledger().flips(), fails);
        assert_eq!(ate.ledger().dropouts(), 0);
    }

    #[test]
    fn stuck_channel_repeats_latched_verdict() {
        let t = march_test();
        // Certain stick on the first measurement (rate ~1), long burst.
        let faults = TesterFaultModel::none().with_stuck_channels(0.999, 4);
        let mut ate = Ate::with_config(MemoryDevice::nominal(), faulty_config(faults, 3));
        // First measurement passes (deep in window) and latches the channel…
        assert_eq!(ate.measure(&t, MeasuredParam::DataValidTime, 20.0), Probe::Pass);
        // …so the next four verdicts are Pass even far beyond the window.
        for _ in 0..4 {
            assert_eq!(ate.measure(&t, MeasuredParam::DataValidTime, 39.5), Probe::Pass);
        }
        assert_eq!(ate.ledger().stuck_probes(), 4);
    }

    #[test]
    fn session_abort_masks_a_burst_of_verdicts() {
        let t = march_test();
        let faults = TesterFaultModel::none().with_session_aborts(0.999, 3);
        let mut ate = Ate::with_config(MemoryDevice::nominal(), faulty_config(faults, 5));
        for _ in 0..3 {
            assert_eq!(ate.measure(&t, MeasuredParam::DataValidTime, 20.0), Probe::Invalid);
        }
        assert_eq!(ate.ledger().aborts(), 1, "one abort event");
        assert_eq!(ate.ledger().dropouts(), 3, "every masked verdict counted");
    }

    #[test]
    fn faulty_sessions_replay_bit_identically() {
        let faults = TesterFaultModel::transient(0.05, 0.05)
            .with_stuck_channels(0.01, 3)
            .with_session_aborts(0.005, 4);
        let run = || {
            let mut ate =
                Ate::with_config(MemoryDevice::nominal(), faulty_config(faults, 1234));
            let t = march_test();
            let verdicts: Vec<Probe> = (0..120)
                .map(|i| ate.measure(&t, MeasuredParam::DataValidTime, 25.0 + 0.1 * f64::from(i)))
                .collect();
            (verdicts, *ate.ledger())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn faults_disable_memoization() {
        let faults = TesterFaultModel::transient(0.0, 0.2);
        let ate = Ate::with_config(MemoryDevice::nominal(), faulty_config(faults, 1))
            .with_memoization();
        assert!(ate.memoization_enabled());
        assert!(!ate.memo_active(), "glitching verdicts must not be cached");
    }

    #[test]
    fn robust_oracle_recovers_dropouts_and_charges_ledger() {
        let t = march_test();
        let faults = TesterFaultModel::transient(0.0, 0.3);
        let mut ate = Ate::with_config(MemoryDevice::nominal(), faulty_config(faults, 21));
        let policy = cichar_search::RetryPolicy::new(5, 100.0);
        let mut oracle = ate.robust_oracle(&t, MeasuredParam::DataValidTime, policy);
        use cichar_search::PassFailOracle;
        for _ in 0..50 {
            // Deep in the window: with retries, every verdict resolves.
            assert_eq!(oracle.probe(20.0), Probe::Pass);
        }
        let stats = oracle.into_stats();
        assert!(stats.retries > 0, "30% dropouts need retries");
        ate.absorb_recovery(&stats);
        assert_eq!(ate.ledger().retries(), stats.retries);
        assert!(ate.ledger().backoff_time_us() > 0.0);
        assert!(ate.ledger().dropouts() >= stats.retries, "every retry was caused by a dropout");
    }

    #[test]
    fn batch_measurement_is_bit_identical_to_scalar_sequence() {
        // The nastiest regime: noise, drift AND fault injection all on.
        // Batch element i must consume exactly the RNG draws, drift cycles
        // and fault-state transitions of the i-th sequential measurement.
        let faults = TesterFaultModel::transient(0.05, 0.05)
            .with_stuck_channels(0.02, 3)
            .with_session_aborts(0.01, 4);
        let config = AteConfig {
            noise: NoiseModel::new(0.05, 0.1, 0.01),
            drift: DriftModel::new(30.0, 1e5),
            faults,
            seed: 77,
        };
        let t = march_test();
        let pattern = t.pattern();
        let features = PatternFeatures::extract(&pattern);
        let cycles = pattern.len() as u64;
        let base = MeasuredParam::DataValidTime.relax_forces().to_vec();
        let values: Vec<f64> = (0..60).map(|i| 25.0 + 0.25 * f64::from(i)).collect();

        let mut scalar = Ate::with_config(MemoryDevice::nominal(), config.clone());
        let scalar_verdicts: Vec<Probe> = values
            .iter()
            .map(|&v| {
                let mut forces = base.clone();
                forces.push((ParamKind::StrobeDelay, v));
                scalar.measure_features(&features, cycles, &t, &forces)
            })
            .collect();

        let mut batched = Ate::with_config(MemoryDevice::nominal(), config);
        let mut batch = Vec::new();
        batched.measure_features_batch_into(
            &features,
            cycles,
            &t,
            &base,
            ParamKind::StrobeDelay,
            &values,
            &mut batch,
        );
        assert_eq!(batch, scalar_verdicts);
        assert_eq!(*batched.ledger(), *scalar.ledger());
    }

    #[test]
    fn batch_of_one_equals_one_measurement() {
        let t = march_test();
        let pattern = t.pattern();
        let features = PatternFeatures::extract(&pattern);
        let cycles = pattern.len() as u64;
        let base = MeasuredParam::DataValidTime.relax_forces().to_vec();
        let mut a = Ate::noiseless(MemoryDevice::nominal());
        let mut forces = base.clone();
        forces.push((ParamKind::StrobeDelay, 30.0));
        let scalar = a.measure_features(&features, cycles, &t, &forces);
        let mut b = Ate::noiseless(MemoryDevice::nominal());
        let mut batch = Vec::new();
        let mut measure = |values: &[f64]| {
            b.measure_features_batch_into(
                &features,
                cycles,
                &t,
                &base,
                ParamKind::StrobeDelay,
                values,
                &mut batch,
            );
        };
        measure(&[30.0]);
        measure(&[]);
        assert_eq!(batch, vec![scalar], "an empty batch appends nothing");
        assert_eq!(*b.ledger(), *a.ledger());
    }

    #[test]
    fn batch_into_appends_and_leaves_scratch_empty() {
        let t = march_test();
        let pattern = t.pattern();
        let features = PatternFeatures::extract(&pattern);
        let cycles = pattern.len() as u64;
        let base = MeasuredParam::DataValidTime.relax_forces().to_vec();
        let values = [28.0, 30.0, 34.0];
        let mut a = Ate::new(MemoryDevice::nominal());
        let mut whole = Vec::new();
        a.measure_features_batch_into(
            &features,
            cycles,
            &t,
            &base,
            ParamKind::StrobeDelay,
            &values,
            &mut whole,
        );
        let mut b = Ate::new(MemoryDevice::nominal());
        let mut out = vec![Probe::Invalid];
        // Two batches through one session: the second reuses the scratch.
        b.measure_features_batch_into(
            &features,
            cycles,
            &t,
            &base,
            ParamKind::StrobeDelay,
            &values[..2],
            &mut out,
        );
        b.measure_features_batch_into(
            &features,
            cycles,
            &t,
            &base,
            ParamKind::StrobeDelay,
            &values[2..],
            &mut out,
        );
        assert_eq!(out[0], Probe::Invalid, "sentinel survives");
        assert_eq!(&out[1..], &whole[..], "two batches replay one");
        assert!(b.batch.conditions.is_empty() && b.batch.strobes.is_empty());
        assert!(b.batch.params.is_empty());
        assert!(b.batch.conditions.capacity() >= 2, "capacity is retained");
    }

    #[test]
    fn installed_plan_never_changes_verdicts() {
        // With a matching plan, a stale plan, or no plan at all, the
        // verdict stream and ledger are bit-identical — the plan is pure
        // acceleration.
        let t = march_test();
        let pattern = t.pattern();
        let features = PatternFeatures::extract(&pattern);
        let cycles = pattern.len() as u64;
        let config = AteConfig {
            noise: NoiseModel::new(0.05, 0.1, 0.01),
            seed: 13,
            ..AteConfig::default()
        };
        let mut plain = Ate::with_config(MemoryDevice::nominal(), config.clone());
        let mut planned = Ate::with_config(MemoryDevice::nominal(), config.clone());
        planned.install_plan(t.conditions());
        let mut stale = Ate::with_config(MemoryDevice::nominal(), config);
        stale.install_plan(&TestConditions::nominal().with_vdd(Volts::new(1.5)));
        for i in 0..40 {
            let forces = [(ParamKind::StrobeDelay, 28.0 + 0.2 * f64::from(i))];
            let stress = plain.device().stress_total(&features);
            let a = plain.measure_features_with_stress(stress, cycles, &t, &forces);
            let b = planned.measure_features_with_stress(stress, cycles, &t, &forces);
            let c = stale.measure_features_with_stress(stress, cycles, &t, &forces);
            assert_eq!(a, b, "matching plan");
            assert_eq!(a, c, "stale plan falls back");
        }
        assert_eq!(*plain.ledger(), *planned.ledger());
        assert_eq!(*plain.ledger(), *stale.ledger());
    }

    #[test]
    fn install_plan_keeps_a_matching_plan_and_clones_start_cold() {
        let mut ate = Ate::noiseless(MemoryDevice::nominal());
        let c = TestConditions::nominal();
        ate.install_plan(&c);
        assert!(ate.plan.0.is_some());
        let clone = ate.clone();
        assert!(clone.plan.0.is_none(), "plans are session-local");
        // Re-installing at the same conditions keeps the existing plan.
        ate.install_plan(&c);
        assert_eq!(ate.plan.0.as_ref().map(|p| *p.conditions()), Some(c));
    }

    #[test]
    fn sessions_are_seed_reproducible() {
        let run = || {
            let mut ate = Ate::with_config(MemoryDevice::nominal(), AteConfig::default());
            let t = march_test();
            (0..50)
                .map(|i| {
                    ate.measure(&t, MeasuredParam::DataValidTime, 31.0 + 0.05 * f64::from(i))
                        .is_pass()
                })
                .collect::<Vec<bool>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn conditions_from_test_are_respected() {
        let mut ate = Ate::noiseless(MemoryDevice::nominal());
        let cold = march_test();
        let starved = cold.with_conditions(TestConditions::nominal().with_vdd(Volts::new(1.5)));
        // The same strobe passes at nominal but fails on the starved test.
        assert_eq!(ate.measure(&cold, MeasuredParam::DataValidTime, 31.0), Probe::Pass);
        assert_eq!(
            ate.measure(&starved, MeasuredParam::DataValidTime, 31.0),
            Probe::Fail
        );
    }
}
