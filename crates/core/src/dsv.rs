//! Multiple-trip-point characterization (§3, eq. 1).
//!
//! `DSV = TPV(T_1 .. T_N)`: the device specification becomes the *set* of
//! trip points over many tests. The first test runs a full-range
//! successive-approximation search (eq. 2 — the reference trip point);
//! every further test runs search-until-trip-point around that reference
//! (eqs. 3–4), which is where the measurement saving of fig. 3 comes from.

use cichar_ate::{Ate, MeasuredParam, MeasurementLedger, ParallelAte, PreparedTest};
use cichar_exec::ExecPolicy;
use cichar_patterns::Test;
use cichar_search::{
    trace_is_consistent, RebracketingStp, RetryPolicy, RobustOracle, SearchScratch,
    SearchUntilTrip, SuccessiveApproximation, TripPrediction, WarmStartPlanner,
};
use cichar_trace::{Progress, SpanTrace, Telemetry, TraceEvent, Tracer};
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::fmt;

/// How each test's trip point is searched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SearchStrategy {
    /// Every test gets a full-range successive-approximation search — the
    /// §1 state of the art, used as the fig. 3 cost baseline.
    FullRange,
    /// Eq. 2 for the first test, then eqs. 3–4 around the reference trip
    /// point — the paper's method.
    SearchUntilTrip,
}

/// Why a test's trip point was withheld from the DSV.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QuarantineReason {
    /// The verdict channel stayed unavailable — a probe-contact dropout or
    /// tester session abort the retry ladder could not ride out.
    Dropout,
    /// The search exhausted the generous range without finding a trip.
    Unconverged,
    /// The search converged but its trace puts pass probes beyond fail
    /// probes for the region ordering — the trip point cannot be trusted.
    InconsistentTrace,
    /// The stall watchdog abandoned the test: the site's touchdown budget
    /// expired before this search could run.
    TimedOut,
    /// The site's health circuit breaker was open: the test was never
    /// measured because the site had been quarantined wholesale.
    SiteBreaker,
}

impl QuarantineReason {
    /// The reason's name, as displayed and as a `Quarantined` trace event
    /// carries it.
    pub fn as_str(self) -> &'static str {
        match self {
            QuarantineReason::Dropout => "dropout",
            QuarantineReason::Unconverged => "unconverged",
            QuarantineReason::InconsistentTrace => "inconsistent trace",
            QuarantineReason::TimedOut => "timed out",
            QuarantineReason::SiteBreaker => "site breaker",
        }
    }
}

impl fmt::Display for QuarantineReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Per-test measurement health in a DSV campaign.
///
/// A faulty tester session no longer panics a campaign or silently poisons
/// eq. 1: every test records how its trip point was obtained, and
/// quarantined tests are excluded from the worst-case extraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TripStatus {
    /// The search converged with no recovery action.
    Clean,
    /// The search converged, but only after the recovery ladder stepped in.
    Recovered {
        /// Strobes the retry ladder re-issued.
        retries: u64,
        /// Whether the full-range re-bracketing fallback produced the
        /// trip point after the STP walk failed.
        rebracketed: bool,
    },
    /// No trustworthy trip point: the entry carries no value and is
    /// excluded from the eq. 1 extraction.
    Quarantined {
        /// Why the point was excluded.
        reason: QuarantineReason,
    },
}

impl TripStatus {
    /// Whether this entry was excluded from the DSV.
    pub fn is_quarantined(&self) -> bool {
        matches!(self, TripStatus::Quarantined { .. })
    }

    /// Whether this entry needed retries or re-bracketing to converge.
    pub fn is_recovered(&self) -> bool {
        matches!(self, TripStatus::Recovered { .. })
    }
}

impl fmt::Display for TripStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TripStatus::Clean => f.write_str("clean"),
            TripStatus::Recovered { retries, rebracketed } => {
                write!(f, "recovered ({retries} retries")?;
                if *rebracketed {
                    f.write_str(", rebracketed")?;
                }
                f.write_str(")")
            }
            TripStatus::Quarantined { reason } => write!(f, "quarantined ({reason})"),
        }
    }
}

/// One test's entry in the DSV.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DsvEntry {
    /// Name of the test.
    pub test_name: String,
    /// The measured trip point. `None` whenever the entry is quarantined,
    /// so eq. 1 extraction excludes it automatically.
    pub trip_point: Option<f64>,
    /// Measurements this test's search consumed.
    pub measurements: u64,
    /// How the trip point was obtained (or why it is missing).
    pub status: TripStatus,
}

/// A streamed per-test outcome: everything a [`DsvEntry`] records except
/// the test's name — streaming consumers carry the test *index* instead,
/// so handing one over allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct StreamedEntry {
    /// The measured trip point (`None` when quarantined).
    pub trip_point: Option<f64>,
    /// Measurements this test's search consumed.
    pub measurements: u64,
    /// How the trip point was obtained (or why it is missing).
    pub status: TripStatus,
}

/// The design-specification-value set of eq. 1 plus cost accounting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DsvReport {
    /// Parameter that was characterized.
    pub param: MeasuredParam,
    /// Strategy used.
    pub strategy: SearchStrategy,
    /// The reference trip point (the first converged trip point; with RTP
    /// refresh enabled, the most recently re-anchored one).
    pub reference_trip_point: Option<f64>,
    /// Per-test results, in execution order.
    pub entries: Vec<DsvEntry>,
    /// Total measurements across all searches.
    pub total_measurements: u64,
}

impl DsvReport {
    /// Converged trip points in execution order.
    pub fn trip_points(&self) -> Vec<f64> {
        self.entries.iter().filter_map(|e| e.trip_point).collect()
    }

    /// Smallest trip point (the §6 worst case for minimization).
    pub fn min(&self) -> Option<f64> {
        self.trip_points().into_iter().min_by(f64::total_cmp)
    }

    /// Largest trip point.
    pub fn max(&self) -> Option<f64> {
        self.trip_points().into_iter().max_by(f64::total_cmp)
    }

    /// The worst-case trip-point variation band (fig. 2): `max − min`.
    pub fn spread(&self) -> Option<f64> {
        match (self.min(), self.max()) {
            (Some(lo), Some(hi)) => Some(hi - lo),
            _ => None,
        }
    }

    /// Mean of converged trip points.
    pub fn mean(&self) -> Option<f64> {
        let tps = self.trip_points();
        if tps.is_empty() {
            return None;
        }
        Some(tps.iter().sum::<f64>() / tps.len() as f64)
    }

    /// Sample standard deviation of converged trip points.
    pub fn std_dev(&self) -> Option<f64> {
        let tps = self.trip_points();
        if tps.len() < 2 {
            return None;
        }
        let mean = self.mean().expect("non-empty");
        let var = tps.iter().map(|t| (t - mean).powi(2)).sum::<f64>() / (tps.len() - 1) as f64;
        Some(var.sqrt())
    }

    /// Mean measurements per test — fig. 3's cost axis.
    pub fn mean_measurements_per_test(&self) -> f64 {
        if self.entries.is_empty() {
            return 0.0;
        }
        self.total_measurements as f64 / self.entries.len() as f64
    }

    /// Entries quarantined out of the DSV.
    pub fn quarantined(&self) -> usize {
        self.entries.iter().filter(|e| e.status.is_quarantined()).count()
    }

    /// Entries that converged only through retries or re-bracketing.
    pub fn recovered(&self) -> usize {
        self.entries.iter().filter(|e| e.status.is_recovered()).count()
    }

    /// The quarantined entries, in execution order.
    pub fn quarantined_entries(&self) -> Vec<&DsvEntry> {
        self.entries.iter().filter(|e| e.status.is_quarantined()).collect()
    }

    /// The entry with the smallest trip point, if any converged.
    pub fn worst_entry(&self) -> Option<&DsvEntry> {
        self.entries
            .iter()
            .filter(|e| e.trip_point.is_some())
            .min_by(|a, b| {
                a.trip_point
                    .expect("filtered")
                    .total_cmp(&b.trip_point.expect("filtered"))
            })
    }
}

impl fmt::Display for DsvReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DSV over {} tests: [{:.3}, {:.3}] spread {:.3}, {:.1} measurements/test",
            self.entries.len(),
            self.min().unwrap_or(f64::NAN),
            self.max().unwrap_or(f64::NAN),
            self.spread().unwrap_or(f64::NAN),
            self.mean_measurements_per_test(),
        )?;
        let (recovered, quarantined) = (self.recovered(), self.quarantined());
        if recovered > 0 || quarantined > 0 {
            write!(f, " ({recovered} recovered, {quarantined} quarantined)")?;
        }
        Ok(())
    }
}

/// Runs multiple-trip-point characterization over a set of tests.
///
/// # Sessions
///
/// [`run`](Self::run) measures every test on the caller's shared
/// [`Ate`], in order, and a re-bracketed fallback re-anchors the
/// reference. [`run_parallel`](Self::run_parallel) puts each test on its
/// own derived-seed session from a [`ParallelAte`], so results are
/// identical for every thread count. With noise or drift the two give
/// different answers; without either they agree exactly.
///
/// # Examples
///
/// ```
/// use cichar_ate::{Ate, MeasuredParam};
/// use cichar_core::dsv::{MultiTripRunner, SearchStrategy};
/// use cichar_dut::MemoryDevice;
/// use cichar_patterns::{march, Test};
/// use cichar_trace::Tracer;
///
/// let mut ate = Ate::noiseless(MemoryDevice::nominal());
/// let tests: Vec<Test> = cichar_patterns::march::standard_suite()
///     .into_iter()
///     .map(|(name, p)| Test::deterministic(name, p))
///     .collect();
/// let runner = MultiTripRunner::new(MeasuredParam::DataValidTime);
/// let strategy = SearchStrategy::SearchUntilTrip;
/// let report = runner.run(&mut ate, &tests, strategy, &Tracer::disabled());
/// assert_eq!(report.entries.len(), 8);
/// assert!(report.spread().expect("converged") > 0.0, "trip point is test dependent");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MultiTripRunner {
    param: MeasuredParam,
    refine: bool,
    rtp_refresh: Option<usize>,
    recovery: Option<RetryPolicy>,
    speculative: bool,
}

impl MultiTripRunner {
    /// Creates a runner for a parameter, with STP refinement enabled (the
    /// measured trip points then carry full search resolution).
    pub fn new(param: MeasuredParam) -> Self {
        Self {
            param,
            refine: true,
            rtp_refresh: None,
            recovery: None,
            speculative: false,
        }
    }

    /// Enables speculative bisection on the full-range searches: both
    /// children of the next level are pre-issued alongside each midpoint
    /// as one batch, and the unused half is discarded. Trip points are
    /// bit-identical; the ledger marks the discarded probes speculative so
    /// eq. 1 accounting stays honest.
    pub fn with_speculation(mut self) -> Self {
        self.speculative = true;
        self
    }

    /// Disables STP bisection refinement — the raw §4 algorithm.
    pub fn without_refinement(mut self) -> Self {
        self.refine = false;
        self
    }

    /// Re-establishes the reference trip point with a fresh full-range
    /// search every `every` tests. Long sessions drift (§1's device
    /// heating); a stale reference slowly inflates STP walk lengths, and a
    /// periodic refresh keeps the reference tracking the drifted device.
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    pub fn with_rtp_refresh(mut self, every: usize) -> Self {
        assert!(every > 0, "refresh interval must be positive");
        self.rtp_refresh = Some(every);
        self
    }

    /// Enables the fault-tolerant measurement ladder: every strobe runs
    /// through a [`cichar_search::RobustOracle`] applying `policy`'s
    /// retries, backoff and voting; STP walks that fail or produce an
    /// inconsistent trace re-bracket with a fresh full-range search (which
    /// also refreshes the reference trip point on the sequential path);
    /// and tests that still cannot yield a trustworthy trip point are
    /// quarantined instead of poisoning the DSV.
    pub fn with_recovery(mut self, policy: RetryPolicy) -> Self {
        self.recovery = Some(policy);
        self
    }

    /// The active recovery policy, if fault tolerance is enabled.
    pub fn recovery(&self) -> Option<RetryPolicy> {
        self.recovery
    }

    /// The characterized parameter.
    pub fn param(&self) -> MeasuredParam {
        self.param
    }

    /// The eq. 2 full-range search and the eq. 3/4 STP wrapped with its
    /// re-bracketing fallback, as configured for this runner.
    pub(crate) fn searches(&self) -> (SuccessiveApproximation, RebracketingStp) {
        let param = self.param;
        let mut full = SuccessiveApproximation::new(param.generous_range(), param.resolution());
        if self.speculative {
            full = full.with_speculation();
        }
        let mut stp = SearchUntilTrip::new(param.generous_range(), param.search_factor());
        if self.refine {
            stp = stp.with_refinement(param.resolution());
        }
        (full.clone(), RebracketingStp::new(stp, full))
    }

    /// Runs the characterization on the caller's shared session,
    /// consuming measurements from `ate`, with per-test spans recorded
    /// into `tracer` (pass [`Tracer::disabled`] to record nothing).
    ///
    /// Each test gets a span keyed by its input index; the span is
    /// absorbed (sequenced into the sink) as soon as the test's search
    /// completes, so the sequential event stream is ordered by test index
    /// by construction.
    pub fn run(
        &self,
        ate: &mut Ate,
        tests: &[Test],
        strategy: SearchStrategy,
        tracer: &Tracer,
    ) -> DsvReport {
        self.run_inner(
            ate,
            tests,
            strategy,
            |index| tracer.span(index as u64),
            |span| tracer.absorb(span),
        )
    }

    /// [`run`](Self::run) with every test's events recorded into one
    /// caller-owned span — used by per-die characterization, where the
    /// span identifies the die rather than the test.
    pub(crate) fn run_in_span(
        &self,
        ate: &mut Ate,
        tests: &[Test],
        strategy: SearchStrategy,
        span: &SpanTrace,
    ) -> DsvReport {
        self.run_inner(ate, tests, strategy, |_| span, |_| {})
    }

    /// [`run_in_span`](Self::run_in_span) without materializing a
    /// [`DsvReport`]: each test's outcome streams to `sink` (keyed by test
    /// index) as its search completes. This is the wafer engine's hot
    /// path — it shares [`Self::fold_inner`] with the report-building
    /// runs, so every entry is classified identically either way; only
    /// the packaging differs. No per-entry name strings, no entries
    /// vector — the caller owns whatever it accumulates.
    ///
    /// `deadline_us` arms the stall watchdog: it caps the session's total
    /// **simulated** tester time. Once the ledger crosses the budget,
    /// every remaining test is quarantined as
    /// [`QuarantineReason::TimedOut`] (ledgered as a timeout plus a
    /// quarantine, with a `Quarantined` trace event) instead of being
    /// measured. Simulated time makes the watchdog deterministic: whether
    /// it fires is a pure function of the seeded campaign, never of host
    /// scheduling.
    /// `tests` arrives pre-hoisted as [`PreparedTest`]s (pattern expansion,
    /// feature extraction and hashing paid once per campaign, not per die)
    /// and every search reuses the caller's `scratch` buffers, so the
    /// steady-state fold allocates nothing.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_fold(
        &self,
        ate: &mut Ate,
        tests: &[PreparedTest<'_>],
        strategy: SearchStrategy,
        span: &SpanTrace,
        deadline_us: Option<f64>,
        scratch: &mut SearchScratch,
        sink: impl FnMut(usize, StreamedEntry),
    ) {
        self.fold_inner(
            ate,
            tests,
            strategy,
            |_| span,
            |_| {},
            deadline_us,
            scratch,
            sink,
        );
    }

    /// The single sequential campaign body, packaged as a report.
    /// `with_span` produces the span a test's search reports into, owned
    /// or borrowed (a shared span is lent, not cloned, per test); `done`
    /// disposes of it afterwards (absorbing it into a tracer, or nothing
    /// for shared/disabled spans).
    fn run_inner<S: Borrow<SpanTrace>>(
        &self,
        ate: &mut Ate,
        tests: &[Test],
        strategy: SearchStrategy,
        with_span: impl FnMut(usize) -> S,
        done: impl FnMut(S),
    ) -> DsvReport {
        let prepared: Vec<PreparedTest<'_>> = tests.iter().map(PreparedTest::new).collect();
        let mut scratch = SearchScratch::new();
        let mut entries = Vec::with_capacity(tests.len());
        let mut total = 0u64;
        let rtp = self.fold_inner(
            ate,
            &prepared,
            strategy,
            with_span,
            done,
            None,
            &mut scratch,
            |index, entry| {
                total += entry.measurements;
                entries.push(DsvEntry {
                    test_name: tests[index].name().to_string(),
                    trip_point: entry.trip_point,
                    measurements: entry.measurements,
                    status: entry.status,
                });
            },
        );
        DsvReport {
            param: self.param,
            strategy,
            reference_trip_point: rtp,
            entries,
            total_measurements: total,
        }
    }

    /// The sequential campaign loop itself: per-test searches with the
    /// RTP refresh/re-anchor discipline, streaming each outcome to `sink`.
    /// Both the report-building and the wafer fold paths run exactly this
    /// code. Returns the final reference trip point.
    #[allow(clippy::too_many_arguments)]
    fn fold_inner<S: Borrow<SpanTrace>>(
        &self,
        ate: &mut Ate,
        tests: &[PreparedTest<'_>],
        strategy: SearchStrategy,
        mut with_span: impl FnMut(usize) -> S,
        mut done: impl FnMut(S),
        deadline_us: Option<f64>,
        scratch: &mut SearchScratch,
        mut sink: impl FnMut(usize, StreamedEntry),
    ) -> Option<f64> {
        let (full, rebracket) = self.searches();

        let mut rtp: Option<f64> = None;
        let mut expired = false;
        for (index, prepared) in tests.iter().enumerate() {
            // Stall watchdog: once the session's simulated tester time
            // crosses the budget, stop measuring — the remaining tests
            // are abandoned as timed out, not left to hang on a stalled
            // channel. The latch is one-way; time only moves forward.
            if let Some(budget_us) = deadline_us {
                expired = expired || ate.ledger().test_time_ms() * 1000.0 > budget_us;
            }
            if expired {
                let span = with_span(index);
                ate.time_out();
                span.borrow().emit_with(|| TraceEvent::Quarantined {
                    reason: QuarantineReason::TimedOut.as_str().into(),
                });
                span.borrow().mark_done();
                done(span);
                sink(
                    index,
                    StreamedEntry {
                        trip_point: None,
                        measurements: 0,
                        status: TripStatus::Quarantined {
                            reason: QuarantineReason::TimedOut,
                        },
                    },
                );
                continue;
            }
            // Periodic reference refresh: drop the stale RTP so the next
            // search runs full-range and re-anchors the reference.
            if let Some(every) = self.rtp_refresh {
                if index > 0 && index % every == 0 {
                    rtp = None;
                }
            }
            let baseline = *ate.ledger();
            // Eq. 2 for the first (or any un-referenced) test, eqs. 3–4
            // around the RTP for the rest.
            let reference = match strategy {
                SearchStrategy::FullRange => None,
                SearchStrategy::SearchUntilTrip => rtp,
            };
            let span = with_span(index);
            let measured = measure_with_recovery(
                ate,
                prepared,
                self.param,
                reference,
                &full,
                &rebracket,
                self.recovery,
                span.borrow(),
                scratch,
            );
            span.borrow().mark_done();
            done(span);
            let measurements = ate.ledger().measurements_since(&baseline);
            if strategy == SearchStrategy::SearchUntilTrip {
                if let Some(fresh) = measured.refreshed_reference {
                    // Re-bracketing already paid for a full search; its
                    // trip point re-anchors the reference (sequential runs
                    // only — the parallel fan-out must stay index-pure).
                    rtp = Some(fresh);
                } else if rtp.is_none() {
                    rtp = measured.trip_point;
                }
            }
            sink(
                index,
                StreamedEntry {
                    trip_point: measured.trip_point,
                    measurements,
                    status: measured.status,
                },
            );
        }
        rtp
    }

    /// Runs the characterization across worker threads, spawning one
    /// deterministic tester session per test from `blueprint`; `rule`
    /// says where each test's search starts.
    ///
    /// Results and ledgers are merged **by test index**, and each test's
    /// session seed is derived from (campaign seed, test index), so the
    /// report is bit-identical for every thread count — including
    /// [`ExecPolicy::serial`], which executes the same schedule inline.
    /// For a noiseless, drift-free blueprint the report under
    /// [`ReferenceRule::FullRange`] or [`ReferenceRule::Anchored`] also
    /// matches [`MultiTripRunner::run`] with the matching
    /// [`SearchStrategy`] on a single shared session exactly: with zero
    /// noise the session RNG is never consumed, and without drift a
    /// verdict does not depend on previously applied cycles, so splitting
    /// the session per test changes no verdict.
    ///
    /// The reference trip point keeps its eq. 2 data dependence: under an
    /// anchoring rule the head of each refresh window runs full-range
    /// searches sequentially until one converges and anchors the
    /// reference, and only the anchored remainder of the window fans out.
    ///
    /// Per-test spans are recorded into `tracer`: workers fill their
    /// test's span privately, and the coordinator absorbs spans at the
    /// same index-ordered merge points where entries and ledgers fold in,
    /// then offers `telemetry` a progress sample, so the sequenced event
    /// stream, the metrics derived from it and the heartbeat cadence are
    /// identical for every thread count. Telemetry lives in a parameter —
    /// not a runner field — because the wafer journal fingerprint embeds
    /// this runner's `Debug` output.
    ///
    /// Returns the report plus the merged measurement ledger (per-test
    /// session ledgers folded in index order).
    ///
    /// # Panics
    ///
    /// Panics when a [`ReferenceRule::Warm`] rule does not carry one
    /// prediction slot per test.
    pub fn run_parallel(
        &self,
        blueprint: &ParallelAte,
        tests: &[Test],
        rule: ReferenceRule<'_>,
        policy: ExecPolicy,
        tracer: &Tracer,
        telemetry: &Telemetry,
    ) -> (DsvReport, MeasurementLedger) {
        if let ReferenceRule::Warm(predictions, _) = rule {
            assert_eq!(
                tests.len(),
                predictions.len(),
                "one prediction slot per test"
            );
        }
        let (full, rebracket) = self.searches();
        let prepared: Vec<PreparedTest<'_>> = tests.iter().map(PreparedTest::new).collect();

        // One test on its own derived-seed session; the session's ledger
        // is the per-test cost record. Fan-out workers run the same
        // recovery ladder as the sequential path, but a re-bracketed
        // fallback never updates the shared reference: the anchor must
        // stay a pure function of the schedule, not of which worker
        // finished first. Each worker owns one `SearchScratch`, reused
        // across every test it claims.
        let probe_one = |index: usize,
                         pt: &PreparedTest<'_>,
                         reference: Option<f64>,
                         scratch: &mut SearchScratch| {
            let span = tracer.span(index as u64);
            let mut session = blueprint.session(index as u64);
            let measured = measure_with_recovery(
                &mut session,
                pt,
                self.param,
                reference,
                &full,
                &rebracket,
                self.recovery,
                &span,
                scratch,
            );
            // Stamp the span's wall clock on the worker, so a timing
            // sidecar measures the search itself, not absorb latency.
            span.mark_done();
            let entry = DsvEntry {
                test_name: pt.test().name().to_string(),
                trip_point: measured.trip_point,
                measurements: session.ledger().measurements(),
                status: measured.status,
            };
            (entry, *session.ledger(), span)
        };

        let mut entries = Vec::with_capacity(tests.len());
        let mut ledger = MeasurementLedger::new();
        // The index-ordered merge point, and the telemetry fold point.
        let mut fold = |(entry, session_ledger, span): (DsvEntry, MeasurementLedger, SpanTrace)| {
            ledger.merge(&session_ledger);
            tracer.absorb(span);
            entries.push(entry);
            telemetry.tick(|| {
                Progress::units(
                    "dsv",
                    (ledger.test_time_ms() * 1000.0) as u64,
                    entries.len() as u64,
                    tests.len() as u64,
                )
            });
        };

        // Full-range searches are all independent: one window, no anchor.
        let anchored = !matches!(rule, ReferenceRule::FullRange);
        let window = match self.rtp_refresh {
            Some(every) if anchored => every,
            _ => tests.len().max(1),
        };
        let mut rtp: Option<f64> = None;
        let mut anchor_scratch = SearchScratch::new();
        let mut start = 0;
        while start < tests.len() {
            let end = (start + window).min(tests.len());
            // Anchor sequentially: full-range searches until one
            // converges (normally just the window's first test).
            let mut anchor: Option<f64> = None;
            let mut cursor = start;
            while anchored && cursor < end && anchor.is_none() {
                let record = probe_one(cursor, &prepared[cursor], None, &mut anchor_scratch);
                anchor = record.0.trip_point;
                fold(record);
                cursor += 1;
            }
            for record in cichar_exec::par_map_ref_scratch(
                policy,
                &prepared[cursor..end],
                SearchScratch::new,
                |i, pt, scratch| {
                    probe_one(cursor + i, pt, rule.reference(cursor + i, anchor), scratch)
                },
            ) {
                fold(record);
            }
            rtp = anchor;
            start = end;
        }

        let total = entries.iter().map(|e| e.measurements).sum();
        (
            DsvReport {
                param: self.param,
                strategy: if anchored {
                    SearchStrategy::SearchUntilTrip
                } else {
                    SearchStrategy::FullRange
                },
                reference_trip_point: rtp,
                entries,
                total_measurements: total,
            },
            ledger,
        )
    }
}

/// Where each fanned-out test's search starts in
/// [`MultiTripRunner::run_parallel`].
#[derive(Debug, Clone, Copy)]
pub enum ReferenceRule<'a> {
    /// Eq. 2 full-range searches for every test, with no anchor — the
    /// fig. 3 cost baseline; every test fans out.
    FullRange,
    /// Eqs. 3–4 around the refresh window's anchored reference trip
    /// point — the paper's method.
    Anchored,
    /// Eqs. 3–4 from each test's *predicted warm start*: a fanned-out
    /// test seeds its STP walk from `planner.plan` over its own committee
    /// prediction (`predictions[i]` belongs to test `i`), falling back to
    /// the sequentially anchored reference trip point when the prediction
    /// is missing or untrusted (and, under recovery, to a full-range
    /// re-bracket when even the seed turns out wrong — so trip points
    /// never depend on prediction quality, only the probe bill does). The
    /// anchor head of each refresh window still runs eq. 2 full-range,
    /// exactly as under [`ReferenceRule::Anchored`], so the fallback
    /// reference exists before any fan-out.
    Warm(&'a [Option<TripPrediction>], &'a WarmStartPlanner),
}

impl ReferenceRule<'_> {
    /// The reference test `index` searches from, given its window's
    /// anchor. Only anchored tests fan out under an anchoring rule, so
    /// `anchor` is set whenever a warm start reads it.
    fn reference(self, index: usize, anchor: Option<f64>) -> Option<f64> {
        match self {
            ReferenceRule::FullRange => None,
            ReferenceRule::Anchored => anchor,
            ReferenceRule::Warm(predictions, planner) => {
                let warm = planner.plan(predictions[index].as_ref(), anchor.expect("anchored"));
                Some(warm.reference)
            }
        }
    }
}

/// The shared fault-tolerant search ladder: robust-oracle strobes,
/// re-bracketing fallback, trace-consistency screening, and quarantine
/// accounting. Every characterization path in this crate (DSV runs, GA
/// fitness evaluations, sample sweeps) measures through this single
/// function so faults are classified identically everywhere.
#[allow(clippy::too_many_arguments)]
pub(crate) fn measure_with_recovery(
    ate: &mut Ate,
    prepared: &PreparedTest<'_>,
    param: MeasuredParam,
    reference: Option<f64>,
    full: &SuccessiveApproximation,
    rebracket: &RebracketingStp,
    recovery: Option<RetryPolicy>,
    span: &SpanTrace,
    scratch: &mut SearchScratch,
) -> Measured {
    // Install the span on the tester for the duration of this measurement
    // so probe, fault and retry events report into it, then detach — the
    // tester outlives the span, and a stale span must never leak events
    // from a later test into an earlier test's stream.
    ate.set_trace(span.clone());
    let measured = measure_traced(
        ate, prepared, param, reference, full, rebracket, recovery, span, scratch,
    );
    ate.set_trace(SpanTrace::disabled());
    measured
}

/// [`measure_with_recovery`] minus the span install/detach bracketing.
///
/// Every buffer the search ladder needs — probe trace, relaxation forces,
/// vote tallies — lives in `scratch` and is reused across calls, so a
/// steady-state measurement allocates nothing.
#[allow(clippy::too_many_arguments)]
fn measure_traced(
    ate: &mut Ate,
    prepared: &PreparedTest<'_>,
    param: MeasuredParam,
    reference: Option<f64>,
    full: &SuccessiveApproximation,
    rebracket: &RebracketingStp,
    recovery: Option<RetryPolicy>,
    span: &SpanTrace,
    scratch: &mut SearchScratch,
) -> Measured {
    let order = param.region_order();
    let has_invalid = |trace: &[(f64, cichar_search::Probe)]| {
        trace.iter().any(|(_, p)| !p.is_valid())
    };
    let Some(policy) = recovery else {
        // Raw path: no retries, no re-bracketing. Searches still abort
        // honestly on an unavailable verdict, and the entry records why
        // a trip point is missing.
        scratch.trace.clear();
        let forces = std::mem::take(&mut scratch.forces);
        let mut oracle = ate.trip_oracle_prepared(prepared, param, forces);
        let summary = match reference {
            None => full.run_traced_in(order, &mut oracle, span, scratch),
            Some(r) => rebracket
                .stp()
                .run_traced_in(r, order, &mut oracle, span, scratch),
        };
        scratch.forces = oracle.into_forces();
        let status = match summary.trip_point {
            Some(_) => TripStatus::Clean,
            None => {
                ate.quarantine();
                let reason = if has_invalid(&scratch.trace) {
                    QuarantineReason::Dropout
                } else {
                    QuarantineReason::Unconverged
                };
                span.emit_with(|| TraceEvent::Quarantined {
                    reason: reason.as_str().into(),
                });
                TripStatus::Quarantined { reason }
            }
        };
        return Measured {
            trip_point: summary.trip_point,
            status,
            refreshed_reference: None,
        };
    };

    let tolerance = rebracket.tolerance();
    scratch.trace.clear();
    let forces = std::mem::take(&mut scratch.forces);
    let oracle_span = ate.trace().clone();
    let inner = ate.trip_oracle_prepared(prepared, param, forces);
    let mut oracle = RobustOracle::from_scratch(inner, policy, scratch).with_trace(oracle_span);
    let (summary, rebracketed, consistent, refreshed) = match reference {
        None => {
            let summary = full.run_traced_in(order, &mut oracle, span, scratch);
            let consistent = trace_is_consistent(&scratch.trace, order, tolerance);
            (summary, false, consistent, None)
        }
        Some(r) => {
            let result = rebracket.run_traced_in(r, order, &mut oracle, span, scratch);
            // Without a re-bracket the authoritative slice is the STP walk,
            // which the search has just found consistent at this tolerance
            // (it re-brackets otherwise), so only a fallback's slice is
            // scanned.
            let authoritative = &scratch.trace[result.authoritative_from..];
            let consistent = if result.rebracketed {
                trace_is_consistent(authoritative, order, tolerance)
            } else {
                debug_assert!(trace_is_consistent(authoritative, order, tolerance));
                true
            };
            // A converged fallback is a fresh eq. 2 anchor.
            let refreshed = if result.rebracketed {
                result.summary.trip_point
            } else {
                None
            };
            (result.summary, result.rebracketed, consistent, refreshed)
        }
    };
    let (inner, stats) = oracle.recycle_parts(scratch);
    scratch.forces = inner.into_forces();
    ate.absorb_recovery(&stats);

    if !summary.converged {
        ate.quarantine();
        let reason = if has_invalid(&scratch.trace) {
            QuarantineReason::Dropout
        } else {
            QuarantineReason::Unconverged
        };
        span.emit_with(|| TraceEvent::Quarantined {
            reason: reason.as_str().into(),
        });
        return Measured {
            trip_point: None,
            status: TripStatus::Quarantined { reason },
            refreshed_reference: None,
        };
    }
    if !consistent {
        ate.quarantine();
        span.emit_with(|| TraceEvent::Quarantined {
            reason: QuarantineReason::InconsistentTrace.as_str().into(),
        });
        return Measured {
            trip_point: None,
            status: TripStatus::Quarantined {
                reason: QuarantineReason::InconsistentTrace,
            },
            refreshed_reference: None,
        };
    }
    let status = if stats.retries > 0 || rebracketed {
        TripStatus::Recovered {
            retries: stats.retries,
            rebracketed,
        }
    } else {
        TripStatus::Clean
    };
    Measured {
        trip_point: summary.trip_point,
        status,
        refreshed_reference: refreshed,
    }
}

/// The product of one test's search: what lands in the [`DsvEntry`], plus
/// the fresh reference a re-bracketing fallback discovered (only the
/// sequential path may act on it).
pub(crate) struct Measured {
    pub(crate) trip_point: Option<f64>,
    pub(crate) status: TripStatus,
    pub(crate) refreshed_reference: Option<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use cichar_dut::MemoryDevice;
    use cichar_patterns::{march, random, ConditionSpace, TestConditions};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn suite() -> Vec<Test> {
        march::standard_suite()
            .into_iter()
            .map(|(name, p)| Test::deterministic(name, p))
            .collect()
    }

    fn random_tests(n: usize) -> Vec<Test> {
        let mut rng = StdRng::seed_from_u64(21);
        (0..n)
            .map(|_| random::random_test_at(&mut rng, TestConditions::nominal()))
            .collect()
    }

    #[test]
    fn stp_converges_to_same_trip_points_as_full_search() {
        let tests = suite();
        let runner = MultiTripRunner::new(MeasuredParam::DataValidTime);
        let mut ate_a = Ate::noiseless(MemoryDevice::nominal());
        let full = runner.run(
            &mut ate_a,
            &tests,
            SearchStrategy::FullRange,
            &Tracer::disabled(),
        );
        let mut ate_b = Ate::noiseless(MemoryDevice::nominal());
        let stp = runner.run(
            &mut ate_b,
            &tests,
            SearchStrategy::SearchUntilTrip,
            &Tracer::disabled(),
        );
        for (a, b) in full.entries.iter().zip(&stp.entries) {
            let (ta, tb) = (
                a.trip_point.expect("full converges"),
                b.trip_point.expect("stp converges"),
            );
            assert!(
                (ta - tb).abs() <= 2.0 * MeasuredParam::DataValidTime.resolution(),
                "{}: {ta} vs {tb}",
                a.test_name
            );
        }
    }

    #[test]
    fn stp_costs_fewer_measurements_than_full_search() {
        // The fig. 3 claim, on a 30-test random batch.
        let tests = random_tests(30);
        let runner = MultiTripRunner::new(MeasuredParam::DataValidTime);
        let mut ate_a = Ate::noiseless(MemoryDevice::nominal());
        let full = runner.run(
            &mut ate_a,
            &tests,
            SearchStrategy::FullRange,
            &Tracer::disabled(),
        );
        let mut ate_b = Ate::noiseless(MemoryDevice::nominal());
        let stp = runner.run(
            &mut ate_b,
            &tests,
            SearchStrategy::SearchUntilTrip,
            &Tracer::disabled(),
        );
        assert!(
            (stp.total_measurements as f64) < 0.8 * full.total_measurements as f64,
            "stp {} vs full {}",
            stp.total_measurements,
            full.total_measurements
        );
    }

    #[test]
    fn trip_points_are_test_dependent() {
        let report = MultiTripRunner::new(MeasuredParam::DataValidTime).run(
            &mut Ate::noiseless(MemoryDevice::nominal()),
            &suite(),
            SearchStrategy::SearchUntilTrip,
            &Tracer::disabled(),
        );
        assert!(report.spread().expect("converged") > 0.5, "{report}");
    }

    #[test]
    fn first_converged_trip_becomes_reference() {
        let report = MultiTripRunner::new(MeasuredParam::DataValidTime).run(
            &mut Ate::noiseless(MemoryDevice::nominal()),
            &suite(),
            SearchStrategy::SearchUntilTrip,
            &Tracer::disabled(),
        );
        let first = report.entries[0].trip_point.expect("converges");
        assert_eq!(report.reference_trip_point, Some(first));
    }

    #[test]
    fn full_range_strategy_has_no_reference() {
        let report = MultiTripRunner::new(MeasuredParam::DataValidTime).run(
            &mut Ate::noiseless(MemoryDevice::nominal()),
            &suite()[..2],
            SearchStrategy::FullRange,
            &Tracer::disabled(),
        );
        assert_eq!(report.reference_trip_point, None);
    }

    #[test]
    fn statistics_are_consistent() {
        let report = MultiTripRunner::new(MeasuredParam::DataValidTime).run(
            &mut Ate::noiseless(MemoryDevice::nominal()),
            &suite(),
            SearchStrategy::SearchUntilTrip,
            &Tracer::disabled(),
        );
        let min = report.min().expect("converged");
        let max = report.max().expect("converged");
        let mean = report.mean().expect("converged");
        assert!(min <= mean && mean <= max);
        assert!(report.std_dev().expect("n >= 2") >= 0.0);
        assert_eq!(
            report.total_measurements,
            report.entries.iter().map(|e| e.measurements).sum::<u64>()
        );
    }

    #[test]
    fn worst_entry_is_minimum_trip_point() {
        let report = MultiTripRunner::new(MeasuredParam::DataValidTime).run(
            &mut Ate::noiseless(MemoryDevice::nominal()),
            &suite(),
            SearchStrategy::SearchUntilTrip,
            &Tracer::disabled(),
        );
        let worst = report.worst_entry().expect("converged");
        assert_eq!(worst.trip_point, report.min());
    }

    #[test]
    fn works_for_eq4_parameter_too() {
        // Vdd_min characterization: pass region above the fail region.
        let report = MultiTripRunner::new(MeasuredParam::MinVoltage).run(
            &mut Ate::noiseless(MemoryDevice::nominal()),
            &suite(),
            SearchStrategy::SearchUntilTrip,
            &Tracer::disabled(),
        );
        for entry in &report.entries {
            let tp = entry.trip_point.expect("converges");
            assert!((1.3..1.6).contains(&tp), "{}: {tp}", entry.test_name);
        }
    }

    #[test]
    fn random_condition_tests_widen_the_band() {
        // Fig. 2's point: non-deterministic tests (varying conditions too)
        // fluctuate the trip point far more than the deterministic suite.
        let mut rng = StdRng::seed_from_u64(33);
        let space = ConditionSpace::default();
        let tests: Vec<Test> = (0..20).map(|_| random::random_test(&mut rng, &space)).collect();
        let report = MultiTripRunner::new(MeasuredParam::DataValidTime).run(
            &mut Ate::noiseless(MemoryDevice::nominal()),
            &tests,
            SearchStrategy::SearchUntilTrip,
            &Tracer::disabled(),
        );
        assert!(report.spread().expect("converged") > 3.0, "{report}");
    }

    #[test]
    fn rtp_refresh_tracks_a_drifting_session() {
        use cichar_ate::{AteConfig, DriftModel, NoiseModel};
        // Strong thermal drift: by the end of a 60-test session the die is
        // tens of degrees hotter and the true window has shrunk.
        let config = AteConfig {
            noise: NoiseModel::noiseless(),
            drift: DriftModel::new(60.0, 3e5),
            seed: 0,
            ..AteConfig::default()
        };
        let tests = random_tests(60);
        let stale = MultiTripRunner::new(MeasuredParam::DataValidTime).run(
            &mut Ate::with_config(MemoryDevice::nominal(), config.clone()),
            &tests,
            SearchStrategy::SearchUntilTrip,
            &Tracer::disabled(),
        );
        let refreshed = MultiTripRunner::new(MeasuredParam::DataValidTime)
            .with_rtp_refresh(10)
            .run(
                &mut Ate::with_config(MemoryDevice::nominal(), config),
                &tests,
                SearchStrategy::SearchUntilTrip,
                &Tracer::disabled(),
            );
        // Both converge on every test (STP's accelerating walk absorbs the
        // drift either way), but only the refreshed session's reference
        // tracks the heated device: it ends well below the cold reference.
        assert!(refreshed.entries.iter().all(|e| e.trip_point.is_some()));
        assert!(stale.entries.iter().all(|e| e.trip_point.is_some()));
        let cold_ref = stale.reference_trip_point.expect("converged");
        let tracked_ref = refreshed.reference_trip_point.expect("converged");
        assert!(
            tracked_ref < cold_ref - 0.3,
            "tracked {tracked_ref} must sit below cold {cold_ref}"
        );
        // And the refresh costs only a handful of extra full searches.
        let overhead =
            refreshed.total_measurements as f64 / stale.total_measurements as f64;
        assert!(overhead < 1.5, "refresh overhead {overhead}");
    }

    #[test]
    #[should_panic(expected = "refresh interval must be positive")]
    fn zero_refresh_interval_rejected() {
        let _ = MultiTripRunner::new(MeasuredParam::DataValidTime).with_rtp_refresh(0);
    }

    #[test]
    fn parallel_run_matches_sequential_on_noiseless_sessions() {
        use cichar_ate::{AteConfig, DriftModel, NoiseModel, ParallelAte};
        use cichar_exec::ExecPolicy;
        let config = AteConfig {
            noise: NoiseModel::noiseless(),
            drift: DriftModel::none(),
            seed: 11,
            ..AteConfig::default()
        };
        let tests = random_tests(24);
        for (strategy, rule) in [
            (SearchStrategy::FullRange, ReferenceRule::FullRange),
            (SearchStrategy::SearchUntilTrip, ReferenceRule::Anchored),
        ] {
            let runner = MultiTripRunner::new(MeasuredParam::DataValidTime);
            let sequential = runner.run(
                &mut Ate::with_config(MemoryDevice::nominal(), config.clone()),
                &tests,
                strategy,
                &Tracer::disabled(),
            );
            let blueprint = ParallelAte::new(MemoryDevice::nominal(), config.clone());
            let (parallel, _) = runner.run_parallel(
                &blueprint,
                &tests,
                rule,
                ExecPolicy::with_threads(4),
                &Tracer::disabled(),
                &Telemetry::disabled(),
            );
            assert_eq!(parallel, sequential, "{strategy:?}");
        }
    }

    #[test]
    fn parallel_run_is_thread_count_invariant_even_with_noise() {
        use cichar_ate::{AteConfig, ParallelAte};
        use cichar_exec::ExecPolicy;
        // Default config is noisy: per-test derived seeds make the result a
        // pure function of the schedule, not of who ran what where.
        let blueprint =
            ParallelAte::new(MemoryDevice::nominal(), AteConfig { seed: 77, ..AteConfig::default() });
        let tests = random_tests(24);
        let runner = MultiTripRunner::new(MeasuredParam::DataValidTime).with_rtp_refresh(7);
        let run = |policy: ExecPolicy| {
            runner.run_parallel(
                &blueprint,
                &tests,
                ReferenceRule::Anchored,
                policy,
                &Tracer::disabled(),
                &Telemetry::disabled(),
            )
        };
        let (serial_report, serial_ledger) = run(ExecPolicy::serial());
        let (wide_report, wide_ledger) = run(ExecPolicy::with_threads(8));
        assert_eq!(wide_report, serial_report);
        assert_eq!(wide_ledger, serial_ledger);
    }

    #[test]
    fn parallel_ledger_accounts_every_measurement() {
        use cichar_ate::{AteConfig, DriftModel, NoiseModel, ParallelAte};
        use cichar_exec::ExecPolicy;
        let config = AteConfig {
            noise: NoiseModel::noiseless(),
            drift: DriftModel::none(),
            seed: 5,
            ..AteConfig::default()
        };
        let blueprint = ParallelAte::new(MemoryDevice::nominal(), config);
        let tests = suite();
        let (report, ledger) = MultiTripRunner::new(MeasuredParam::DataValidTime).run_parallel(
            &blueprint,
            &tests,
            ReferenceRule::Anchored,
            ExecPolicy::with_threads(4),
            &Tracer::disabled(),
            &Telemetry::disabled(),
        );
        assert_eq!(ledger.measurements(), report.total_measurements);
        assert_eq!(
            report.total_measurements,
            report.entries.iter().map(|e| e.measurements).sum::<u64>()
        );
    }

    #[test]
    fn parallel_report_preserves_input_test_order() {
        use cichar_ate::{AteConfig, ParallelAte};
        use cichar_exec::ExecPolicy;
        let blueprint = ParallelAte::new(MemoryDevice::nominal(), AteConfig::default());
        let tests = suite();
        let (report, _) = MultiTripRunner::new(MeasuredParam::DataValidTime).run_parallel(
            &blueprint,
            &tests,
            ReferenceRule::FullRange,
            ExecPolicy::with_threads(8),
            &Tracer::disabled(),
            &Telemetry::disabled(),
        );
        // Entries land by input index, never by worker completion order.
        let got: Vec<&str> = report.entries.iter().map(|e| e.test_name.as_str()).collect();
        let expected: Vec<&str> = tests.iter().map(|t| t.name()).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn quarantined_points_never_reach_the_extremes() {
        use cichar_ate::{AteConfig, TesterFaultModel};
        // Brutal dropout rate with no recovery ladder: searches abort on
        // the first unavailable verdict and the entries quarantine.
        let config = AteConfig {
            faults: TesterFaultModel::transient(0.0, 0.25),
            seed: 9,
            ..AteConfig::default()
        };
        let mut ate = Ate::with_config(MemoryDevice::nominal(), config);
        let report = MultiTripRunner::new(MeasuredParam::DataValidTime).run(
            &mut ate,
            &suite(),
            SearchStrategy::SearchUntilTrip,
            &Tracer::disabled(),
        );
        assert!(report.quarantined() > 0, "{report}");
        for entry in report.quarantined_entries() {
            assert_eq!(entry.trip_point, None, "{}", entry.test_name);
            assert_eq!(
                entry.status,
                TripStatus::Quarantined {
                    reason: QuarantineReason::Dropout
                }
            );
        }
        // Eq. 1 extraction only ever sees surviving entries.
        assert_eq!(
            report.trip_points().len(),
            report.entries.len() - report.quarantined()
        );
        // Every quarantine is accounted in the ledger.
        assert_eq!(ate.ledger().quarantined(), report.quarantined() as u64);
        assert!(ate.ledger().dropouts() > 0);
    }

    #[test]
    fn retry_ladder_rides_out_dropouts() {
        use cichar_ate::{AteConfig, NoiseModel, TesterFaultModel};
        // The same brutal dropout rate, now with bounded retries: every
        // verdict eventually resolves, and because dropouts hide but never
        // alter verdicts, the trip points match a fault-free session
        // exactly.
        let config = AteConfig {
            noise: NoiseModel::noiseless(),
            faults: TesterFaultModel::transient(0.0, 0.25),
            seed: 9,
            ..AteConfig::default()
        };
        let mut ate = Ate::with_config(MemoryDevice::nominal(), config);
        let runner = MultiTripRunner::new(MeasuredParam::DataValidTime)
            .with_recovery(RetryPolicy::new(8, 50.0));
        let report = runner.run(
            &mut ate,
            &suite(),
            SearchStrategy::SearchUntilTrip,
            &Tracer::disabled(),
        );
        assert_eq!(report.quarantined(), 0, "{report}");
        assert!(report.recovered() > 0, "25% dropouts must need retries");
        assert!(ate.ledger().retries() > 0);
        assert!(ate.ledger().backoff_time_us() > 0.0, "backoff settles in simulated time");

        let baseline = MultiTripRunner::new(MeasuredParam::DataValidTime).run(
            &mut Ate::noiseless(MemoryDevice::nominal()),
            &suite(),
            SearchStrategy::SearchUntilTrip,
            &Tracer::disabled(),
        );
        for (faulty, clean) in report.entries.iter().zip(&baseline.entries) {
            assert_eq!(faulty.trip_point, clean.trip_point, "{}", faulty.test_name);
        }
    }

    #[test]
    fn rebracketing_recovers_aborted_stp_walks_and_reanchors() {
        use cichar_ate::{AteConfig, NoiseModel, TesterFaultModel};
        // Session aborts knock out bursts of 5 strobes — exactly one retry
        // ladder. The aborted probe exhausts its retries inside the burst
        // and stays unavailable, the STP walk dies, and the full-range
        // fallback re-brackets right after the burst clears; the fresh
        // trip point re-anchors the reference.
        let config = AteConfig {
            noise: NoiseModel::noiseless(),
            faults: TesterFaultModel::none().with_session_aborts(0.02, 5),
            seed: 5,
            ..AteConfig::default()
        };
        let mut ate = Ate::with_config(MemoryDevice::nominal(), config);
        let tests = random_tests(20);
        let runner = MultiTripRunner::new(MeasuredParam::DataValidTime)
            .with_recovery(RetryPolicy::new(4, 50.0));
        let report = runner.run(
            &mut ate,
            &tests,
            SearchStrategy::SearchUntilTrip,
            &Tracer::disabled(),
        );
        let rebracketed: Vec<&DsvEntry> = report
            .entries
            .iter()
            .filter(|e| matches!(e.status, TripStatus::Recovered { rebracketed: true, .. }))
            .collect();
        assert!(!rebracketed.is_empty(), "aborts must trigger re-bracketing: {report}");
        for entry in &rebracketed {
            assert!(entry.trip_point.is_some(), "{}", entry.test_name);
        }
        // The last fallback's trip point is the reference the run ended on.
        assert_eq!(
            report.reference_trip_point,
            rebracketed.last().expect("non-empty").trip_point
        );
        assert!(ate.ledger().aborts() > 0);
    }

    #[test]
    fn parallel_faulty_run_is_thread_count_invariant() {
        use cichar_ate::{AteConfig, ParallelAte, TesterFaultModel};
        use cichar_exec::ExecPolicy;
        // Fault injection and recovery live inside the per-test derived
        //-seed sessions, so a faulty campaign stays a pure function of the
        // schedule.
        let blueprint = ParallelAte::new(
            MemoryDevice::nominal(),
            AteConfig {
                faults: TesterFaultModel::transient(0.02, 0.01),
                seed: 99,
                ..AteConfig::default()
            },
        );
        let tests = random_tests(24);
        let runner = MultiTripRunner::new(MeasuredParam::DataValidTime)
            .with_recovery(RetryPolicy::new(3, 100.0).with_vote(2, 3));
        let run = |policy: ExecPolicy| {
            runner.run_parallel(
                &blueprint,
                &tests,
                ReferenceRule::Anchored,
                policy,
                &Tracer::disabled(),
                &Telemetry::disabled(),
            )
        };
        let (serial_report, serial_ledger) = run(ExecPolicy::serial());
        let (wide_report, wide_ledger) = run(ExecPolicy::with_threads(8));
        assert_eq!(wide_report, serial_report);
        assert_eq!(wide_ledger, serial_ledger);
        // The merged ledger accounts the campaign's quarantines.
        assert_eq!(serial_ledger.quarantined(), serial_report.quarantined() as u64);
        assert!(serial_ledger.injected_faults() > 0);
    }

    #[test]
    fn speculative_runner_preserves_trip_points_and_marks_waste() {
        let tests = suite();
        let runner = MultiTripRunner::new(MeasuredParam::DataValidTime);
        let mut plain_ate = Ate::noiseless(MemoryDevice::nominal());
        let plain = runner.run(
            &mut plain_ate,
            &tests,
            SearchStrategy::FullRange,
            &Tracer::disabled(),
        );
        let mut spec_ate = Ate::noiseless(MemoryDevice::nominal());
        let spec = runner.clone().with_speculation().run(
            &mut spec_ate,
            &tests,
            SearchStrategy::FullRange,
            &Tracer::disabled(),
        );
        for (a, b) in plain.entries.iter().zip(&spec.entries) {
            assert_eq!(a.trip_point, b.trip_point, "{}", a.test_name);
        }
        let ledger = spec_ate.ledger();
        assert!(ledger.speculative_probes() > 0, "children were pre-issued");
        // The honest eq. 1 bill (speculation subtracted) undercuts the
        // plain bisection: resolved pending children replace every other
        // level's midpoint measurement (the un-speculated bracketing
        // probes keep the ratio above the asymptotic one half).
        assert!(
            ledger.non_speculative_measurements() < plain_ate.ledger().measurements() * 3 / 4,
            "honest {} vs plain {}",
            ledger.non_speculative_measurements(),
            plain_ate.ledger().measurements()
        );
    }

    fn perfect_predictions(report: &DsvReport) -> Vec<Option<cichar_search::TripPrediction>> {
        report
            .entries
            .iter()
            .map(|e| {
                e.trip_point.map(|tp| cichar_search::TripPrediction {
                    trip_point: tp,
                    spread: 0.05,
                })
            })
            .collect()
    }

    #[test]
    fn warm_starts_cut_probes_without_moving_trip_points() {
        use cichar_ate::{AteConfig, DriftModel, NoiseModel, ParallelAte};
        use cichar_exec::ExecPolicy;
        use cichar_search::WarmStartPlanner;
        let config = AteConfig {
            noise: NoiseModel::noiseless(),
            drift: DriftModel::none(),
            seed: 3,
            ..AteConfig::default()
        };
        let tests = random_tests(30);
        let param = MeasuredParam::DataValidTime;
        let runner = MultiTripRunner::new(param);
        let blueprint = ParallelAte::new(MemoryDevice::nominal(), config);
        let (stp, _) = runner.run_parallel(
            &blueprint,
            &tests,
            ReferenceRule::Anchored,
            ExecPolicy::serial(),
            &Tracer::disabled(),
            &Telemetry::disabled(),
        );
        let predictions = perfect_predictions(&stp);
        let planner = WarmStartPlanner::new(param.generous_range(), 1.0);
        let (warm, ledger) = runner.run_parallel(
            &blueprint,
            &tests,
            ReferenceRule::Warm(&predictions, &planner),
            ExecPolicy::serial(),
            &Tracer::disabled(),
            &Telemetry::disabled(),
        );
        for (a, b) in stp.entries.iter().zip(&warm.entries) {
            let (ta, tb) = (
                a.trip_point.expect("stp converges"),
                b.trip_point.expect("warm converges"),
            );
            assert!(
                (ta - tb).abs() <= 2.0 * param.resolution(),
                "{}: {ta} vs {tb}",
                a.test_name
            );
        }
        assert!(
            warm.total_measurements < stp.total_measurements,
            "warm {} must undercut rtp-seeded {}",
            warm.total_measurements,
            stp.total_measurements
        );
        assert_eq!(ledger.measurements(), warm.total_measurements);
    }

    #[test]
    fn untrusted_predictions_reduce_to_plain_stp() {
        use cichar_ate::{AteConfig, ParallelAte};
        use cichar_exec::ExecPolicy;
        use cichar_search::{TripPrediction, WarmStartPlanner};
        let blueprint = ParallelAte::new(
            MemoryDevice::nominal(),
            AteConfig {
                seed: 19,
                ..AteConfig::default()
            },
        );
        let tests = random_tests(16);
        let param = MeasuredParam::DataValidTime;
        let runner = MultiTripRunner::new(param).with_rtp_refresh(5);
        let (plain, plain_ledger) = runner.run_parallel(
            &blueprint,
            &tests,
            ReferenceRule::Anchored,
            ExecPolicy::with_threads(4),
            &Tracer::disabled(),
            &Telemetry::disabled(),
        );
        // Every prediction's vote scatter blows the trust band: the ladder
        // must land on the RTP rung for every test, reproducing the plain
        // campaign bit for bit.
        let wild: Vec<Option<TripPrediction>> = tests
            .iter()
            .map(|_| {
                Some(TripPrediction {
                    trip_point: 5.0,
                    spread: 50.0,
                })
            })
            .collect();
        let planner = WarmStartPlanner::new(param.generous_range(), 1.0);
        let (warm, warm_ledger) = runner.run_parallel(
            &blueprint,
            &tests,
            ReferenceRule::Warm(&wild, &planner),
            ExecPolicy::with_threads(4),
            &Tracer::disabled(),
            &Telemetry::disabled(),
        );
        assert_eq!(warm, plain);
        assert_eq!(warm_ledger, plain_ledger);
    }

    #[test]
    fn warm_run_is_thread_count_invariant() {
        use cichar_ate::{AteConfig, ParallelAte, TesterFaultModel};
        use cichar_exec::ExecPolicy;
        use cichar_search::{TripPrediction, WarmStartPlanner};
        // Noisy and faulty: the hardest determinism regime.
        let blueprint = ParallelAte::new(
            MemoryDevice::nominal(),
            AteConfig {
                faults: TesterFaultModel::transient(0.01, 0.01),
                seed: 41,
                ..AteConfig::default()
            },
        );
        let tests = random_tests(24);
        let param = MeasuredParam::DataValidTime;
        let runner = MultiTripRunner::new(param)
            .with_recovery(RetryPolicy::new(3, 100.0).with_vote(2, 3));
        let predictions: Vec<Option<TripPrediction>> = (0..tests.len())
            .map(|i| {
                (i % 2 == 0).then_some(TripPrediction {
                    trip_point: 29.0 + 0.1 * i as f64,
                    spread: 0.2,
                })
            })
            .collect();
        let planner = WarmStartPlanner::new(param.generous_range(), 1.0);
        let run = |policy: ExecPolicy| {
            runner.run_parallel(
                &blueprint,
                &tests,
                ReferenceRule::Warm(&predictions, &planner),
                policy,
                &Tracer::disabled(),
                &Telemetry::disabled(),
            )
        };
        let (serial_report, serial_ledger) = run(ExecPolicy::serial());
        let (wide_report, wide_ledger) = run(ExecPolicy::with_threads(8));
        assert_eq!(wide_report, serial_report);
        assert_eq!(wide_ledger, serial_ledger);
    }

    #[test]
    #[should_panic(expected = "one prediction slot per test")]
    fn mismatched_prediction_slots_panic() {
        use cichar_ate::{AteConfig, ParallelAte};
        use cichar_exec::ExecPolicy;
        use cichar_search::WarmStartPlanner;
        let blueprint = ParallelAte::new(MemoryDevice::nominal(), AteConfig::default());
        let param = MeasuredParam::DataValidTime;
        let planner = WarmStartPlanner::new(param.generous_range(), 1.0);
        let _ = MultiTripRunner::new(param).run_parallel(
            &blueprint,
            &suite(),
            ReferenceRule::Warm(&[None], &planner),
            ExecPolicy::serial(),
            &Tracer::disabled(),
            &Telemetry::disabled(),
        );
    }

    #[test]
    fn display_summarizes_cost() {
        let report = MultiTripRunner::new(MeasuredParam::DataValidTime).run(
            &mut Ate::noiseless(MemoryDevice::nominal()),
            &suite()[..2],
            SearchStrategy::SearchUntilTrip,
            &Tracer::disabled(),
        );
        assert!(report.to_string().contains("measurements/test"));
    }
}
