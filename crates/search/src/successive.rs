//! Drift-tolerant successive approximation.

use crate::outcome::{Probe, SearchOutcome, SearchSummary};
use crate::scratch::SearchScratch;
use crate::traits::{BatchOracle, RegionOrder};
use cichar_trace::{SpanTrace, TraceEvent};
use cichar_units::ParamRange;

/// The §1 successive-approximation search, "recommended for device
/// performance characterization at most of the ATE today".
///
/// Like a binary search it halves a pass/fail bracket, but it additionally
/// "can sense a drifting specification parameter and make a judgment as to
/// the direction and span of the search": after the bracket converges the
/// pass side is *re-verified*. If the device meanwhile drifted (§4 names
/// device heating as the typical cause) the verification fails, and the
/// search re-opens the bracket toward the pass region and converges again,
/// up to [`Self::max_drift_retries`] times.
///
/// This is also the algorithm eq. (2) uses to establish the *reference trip
/// point* for the first test of a multiple-trip-point run.
///
/// # Examples
///
/// ```
/// use cichar_search::{FnOracle, RegionOrder, SuccessiveApproximation};
/// use cichar_units::ParamRange;
///
/// let mut oracle = FnOracle::new(|v| v <= 110.0);
/// let search = SuccessiveApproximation::new(ParamRange::new(80.0, 130.0)?, 0.1);
/// let outcome = search.run(RegionOrder::PassBelowFail, &mut oracle);
/// assert!((outcome.trip_point.expect("bracketed") - 110.0).abs() <= 0.1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SuccessiveApproximation {
    range: ParamRange,
    resolution: f64,
    max_drift_retries: usize,
    speculative: bool,
}

impl SuccessiveApproximation {
    /// Creates a search over `range` converging to `resolution`, allowing
    /// two drift-recovery rounds.
    ///
    /// # Panics
    ///
    /// Panics if `resolution` is not positive finite.
    pub fn new(range: ParamRange, resolution: f64) -> Self {
        Self::with_retries(range, resolution, 2)
    }

    /// Creates a search with an explicit drift-retry budget.
    ///
    /// # Panics
    ///
    /// Panics if `resolution` is not positive finite.
    pub fn with_retries(range: ParamRange, resolution: f64, max_drift_retries: usize) -> Self {
        assert!(
            resolution.is_finite() && resolution > 0.0,
            "invalid resolution {resolution}"
        );
        Self {
            range,
            resolution,
            max_drift_retries,
            speculative: false,
        }
    }

    /// Enables speculative bisection: while halving, both children of the
    /// *next* bisection level are pre-issued alongside the current midpoint
    /// as one [`BatchOracle`] batch. Whichever child the midpoint's verdict
    /// selects resolves the next level without a fresh round trip; the
    /// other half is discarded. Both children are marked speculative so a
    /// measurement ledger can keep eq. 1 probe accounting honest.
    ///
    /// Off by default: speculation trades extra (ledgered) probes for
    /// fewer oracle round trips, which only pays off when a batch is
    /// cheaper than two sequential calls.
    pub fn with_speculation(mut self) -> Self {
        self.speculative = true;
        self
    }

    /// Whether speculative bisection is enabled.
    pub fn speculative(&self) -> bool {
        self.speculative
    }

    /// The searched range.
    pub fn range(&self) -> ParamRange {
        self.range
    }

    /// The convergence resolution.
    pub fn resolution(&self) -> f64 {
        self.resolution
    }

    /// The drift-recovery budget.
    pub fn max_drift_retries(&self) -> usize {
        self.max_drift_retries
    }

    /// Runs the search.
    pub fn run<O: BatchOracle>(&self, order: RegionOrder, oracle: O) -> SearchOutcome {
        self.run_traced(order, oracle, &SpanTrace::disabled())
    }

    /// [`run`](Self::run), emitting `SearchStarted`, the initial
    /// `Bracketed` pair and `SearchFinished` into `span`.
    pub fn run_traced<O: BatchOracle>(
        &self,
        order: RegionOrder,
        oracle: O,
        span: &SpanTrace,
    ) -> SearchOutcome {
        let mut scratch = SearchScratch::default();
        let summary = self.run_traced_in(order, oracle, span, &mut scratch);
        summary.into_outcome(scratch.trace)
    }

    /// [`run`](Self::run) with a caller-owned [`SearchScratch`]: probes
    /// are appended to `scratch.trace` (which the caller clears between
    /// searches) and speculative-bisection batches reuse `scratch.spec`,
    /// so steady-state searching allocates nothing.
    pub fn run_in<O: BatchOracle>(
        &self,
        order: RegionOrder,
        oracle: O,
        scratch: &mut SearchScratch,
    ) -> SearchSummary {
        self.run_traced_in(order, oracle, &SpanTrace::disabled(), scratch)
    }

    /// [`run_traced`](Self::run_traced) with a caller-owned
    /// [`SearchScratch`] — the event shape is identical; the probe trace
    /// lands in `scratch.trace` instead of a fresh vector.
    pub fn run_traced_in<O: BatchOracle>(
        &self,
        order: RegionOrder,
        oracle: O,
        span: &SpanTrace,
        scratch: &mut SearchScratch,
    ) -> SearchSummary {
        span.emit_with(|| TraceEvent::SearchStarted {
            strategy: "successive_approximation".into(),
            order: order.equation_tag().into(),
            window: [self.range.start(), self.range.end()],
            reference: None,
            sf: None,
        });
        let start = scratch.trace.len();
        let summary = self.approximate(order, oracle, span, scratch);
        span.emit_with(|| TraceEvent::SearchFinished {
            strategy: "successive_approximation".into(),
            trip_point: summary.trip_point,
            converged: summary.converged,
            probes: (scratch.trace.len() - start) as u64,
        });
        summary
    }

    /// The search body shared by the plain and traced entry points,
    /// appending probes to `scratch.trace`.
    fn approximate<O: BatchOracle>(
        &self,
        order: RegionOrder,
        mut oracle: O,
        span: &SpanTrace,
        scratch: &mut SearchScratch,
    ) -> SearchSummary {
        let trace = &mut scratch.trace;
        let spec = &mut scratch.spec;
        let (pass_end, fail_end) = match order {
            RegionOrder::PassBelowFail => (self.range.start(), self.range.end()),
            RegionOrder::PassAboveFail => (self.range.end(), self.range.start()),
        };
        let probe = |oracle: &mut O, trace: &mut Vec<(f64, Probe)>, v: f64| {
            let verdict = oracle.probe(v);
            trace.push((v, verdict));
            verdict
        };

        // Bracket-finding: boundary + halfway point, continuing to the
        // other end when both agree (the paper's phrasing of the scan).
        if probe(&mut oracle, trace, pass_end) != Probe::Pass {
            return SearchSummary::unconverged();
        }
        let mid = pass_end + (fail_end - pass_end) / 2.0;
        let (mut lo_pass, mut hi_fail) = match probe(&mut oracle, trace, mid) {
            Probe::Fail => (pass_end, mid),
            Probe::Pass => {
                // Same result as the boundary: continue to the other end.
                match probe(&mut oracle, trace, fail_end) {
                    Probe::Fail => (mid, fail_end),
                    Probe::Pass | Probe::Invalid => return SearchSummary::unconverged(),
                }
            }
            Probe::Invalid => return SearchSummary::unconverged(),
        };
        span.emit(TraceEvent::Bracketed {
            pass_value: lo_pass,
            fail_value: hi_fail,
        });

        let mut retries = self.max_drift_retries;
        loop {
            // Halve until the bracket closes. With speculation on, a level
            // may pre-issue both children of the next level in the same
            // batch as its midpoint; the verdict then selects one child to
            // resolve that next level (`pending`) and discards the other.
            let mut pending: Option<(f64, Probe)> = None;
            while (hi_fail - lo_pass).abs() > self.resolution {
                let mid = lo_pass + (hi_fail - lo_pass) / 2.0;
                let next_open = (hi_fail - lo_pass).abs() / 2.0 > self.resolution;
                let (verdict, children) = match pending.take() {
                    Some((value, verdict)) if value == mid => (verdict, None),
                    _ if self.speculative && next_open => {
                        // Children mirror the next iteration's midpoint
                        // expression exactly for either verdict, so the
                        // selected child resolves it bit-for-bit.
                        let left = lo_pass + (mid - lo_pass) / 2.0;
                        let right = mid + (hi_fail - mid) / 2.0;
                        spec.clear();
                        oracle.probe_batch_speculative_into(&[mid, left, right], 1, spec);
                        trace.push((mid, spec[0]));
                        trace.push((left, spec[1]));
                        trace.push((right, spec[2]));
                        (spec[0], Some(((left, spec[1]), (right, spec[2]))))
                    }
                    _ => (probe(&mut oracle, trace, mid), None),
                };
                match verdict {
                    Probe::Pass => {
                        lo_pass = mid;
                        pending = children.map(|(_, right)| right);
                    }
                    Probe::Fail => {
                        hi_fail = mid;
                        pending = children.map(|(left, _)| left);
                    }
                    Probe::Invalid => return SearchSummary::unconverged(),
                }
            }
            // Drift check: the pass side must still pass. A missing verdict
            // is not drift — it is a dead channel, so give up.
            let reverify = probe(&mut oracle, trace, lo_pass);
            if reverify == Probe::Invalid {
                return SearchSummary::unconverged();
            }
            if reverify == Probe::Pass {
                return SearchSummary {
                    trip_point: Some(lo_pass),
                    converged: true,
                };
            }
            if retries == 0 {
                return SearchSummary::unconverged();
            }
            retries -= 1;
            // The spec drifted toward the pass region: re-open the bracket
            // by doubling spans back toward the pass end until the device
            // passes again.
            hi_fail = lo_pass;
            let dir = (pass_end - fail_end).signum();
            let mut span = self.resolution.max((hi_fail - pass_end).abs() / 8.0);
            loop {
                let candidate = self.range.clamp(hi_fail + dir * span);
                let verdict = probe(&mut oracle, trace, candidate);
                if verdict == Probe::Invalid {
                    return SearchSummary::unconverged();
                }
                if verdict == Probe::Pass {
                    lo_pass = candidate;
                    break;
                }
                if (candidate - pass_end).abs() < 1e-12 {
                    // Walked all the way back without a pass.
                    return SearchSummary::unconverged();
                }
                span *= 2.0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::FnOracle;
    use proptest::prelude::*;
    use std::cell::Cell;

    fn range() -> ParamRange {
        ParamRange::new(80.0, 130.0).expect("valid")
    }

    #[test]
    fn matches_binary_on_stable_device() {
        let mut oracle = FnOracle::new(|v| v <= 112.4);
        let o = SuccessiveApproximation::new(range(), 0.05)
            .run(RegionOrder::PassBelowFail, &mut oracle);
        let tp = o.trip_point.expect("bracketed");
        assert!((tp - 112.4).abs() <= 0.05, "tp = {tp}");
    }

    #[test]
    fn handles_boundary_in_first_half() {
        let mut oracle = FnOracle::new(|v| v <= 90.0);
        let o = SuccessiveApproximation::new(range(), 0.1)
            .run(RegionOrder::PassBelowFail, &mut oracle);
        let tp = o.trip_point.expect("bracketed");
        assert!((tp - 90.0).abs() <= 0.1, "tp = {tp}");
    }

    #[test]
    fn recovers_from_downward_drift() {
        // The boundary drops by 3 MHz after the 6th measurement — as if
        // the device heated up mid-search.
        let probes = Cell::new(0usize);
        let mut oracle = FnOracle::new(|v| {
            probes.set(probes.get() + 1);
            let boundary = if probes.get() <= 6 { 110.0 } else { 107.0 };
            v <= boundary
        });
        let o = SuccessiveApproximation::new(range(), 0.05)
            .run(RegionOrder::PassBelowFail, &mut oracle);
        let tp = o.trip_point.expect("recovered from drift");
        assert!((tp - 107.0).abs() <= 0.5, "tp = {tp} should track drifted spec");
    }

    #[test]
    fn gives_up_after_retry_budget() {
        // Pathological device: every re-verification fails.
        let probes = Cell::new(0usize);
        let mut oracle = FnOracle::new(|v| {
            probes.set(probes.get() + 1);
            // Boundary collapses by 10 after every few probes; it outruns
            // the search forever.
            let boundary = 110.0 - (probes.get() / 3) as f64 * 10.0;
            v <= boundary
        });
        let o = SuccessiveApproximation::with_retries(range(), 0.05, 1)
            .run(RegionOrder::PassBelowFail, &mut oracle);
        assert!(!o.converged);
    }

    #[test]
    fn pass_above_fail_orientation() {
        let r = ParamRange::new(1.2, 2.1).expect("valid");
        let mut oracle = FnOracle::new(|v| v >= 1.52);
        let o = SuccessiveApproximation::new(r, 0.01).run(RegionOrder::PassAboveFail, &mut oracle);
        let tp = o.trip_point.expect("bracketed");
        assert!((tp - 1.52).abs() <= 0.01, "tp = {tp}");
        assert!(tp >= 1.52 - 1e-9);
    }

    #[test]
    fn unconverged_when_range_misses_boundary() {
        let o = SuccessiveApproximation::new(range(), 0.1)
            .run(RegionOrder::PassBelowFail, FnOracle::new(|_| true));
        assert!(!o.converged);
        let o = SuccessiveApproximation::new(range(), 0.1)
            .run(RegionOrder::PassBelowFail, FnOracle::new(|_| false));
        assert!(!o.converged);
        assert_eq!(o.measurements(), 1, "first probe already failing");
    }

    #[test]
    fn speculation_is_off_by_default() {
        let search = SuccessiveApproximation::new(range(), 0.05);
        assert!(!search.speculative());
        assert!(search.with_speculation().speculative());
    }

    #[test]
    fn speculative_matches_plain_trip_point() {
        let mut plain_oracle = FnOracle::new(|v| v <= 112.4);
        let plain = SuccessiveApproximation::new(range(), 0.05)
            .run(RegionOrder::PassBelowFail, &mut plain_oracle);
        let mut spec_oracle = FnOracle::new(|v| v <= 112.4);
        let spec = SuccessiveApproximation::new(range(), 0.05)
            .with_speculation()
            .run(RegionOrder::PassBelowFail, &mut spec_oracle);
        // On a deterministic device the selected children carry the exact
        // verdicts sequential probes would have, so the trip point is
        // bit-identical — speculation only adds discarded measurements.
        assert_eq!(spec.trip_point, plain.trip_point);
        assert!(spec.converged);
        assert!(
            spec_oracle.probes() > plain_oracle.probes(),
            "speculation must cost extra probes ({} vs {})",
            spec_oracle.probes(),
            plain_oracle.probes()
        );
    }

    #[test]
    fn speculative_recovers_from_drift_too() {
        let probes = Cell::new(0usize);
        let mut oracle = FnOracle::new(|v| {
            probes.set(probes.get() + 1);
            let boundary = if probes.get() <= 6 { 110.0 } else { 107.0 };
            v <= boundary
        });
        let o = SuccessiveApproximation::new(range(), 0.05)
            .with_speculation()
            .run(RegionOrder::PassBelowFail, &mut oracle);
        let tp = o.trip_point.expect("recovered from drift");
        assert!((tp - 107.0).abs() <= 0.5, "tp = {tp} should track drifted spec");
    }

    #[test]
    fn run_in_matches_allocating_run_with_and_without_speculation() {
        let mut scratch = crate::SearchScratch::default();
        for speculative in [false, true] {
            let mut search = SuccessiveApproximation::new(range(), 0.05);
            if speculative {
                search = search.with_speculation();
            }
            for boundary in [90.0, 112.4, 200.0] {
                scratch.trace.clear();
                let summary = search.run_in(
                    RegionOrder::PassBelowFail,
                    FnOracle::new(|v| v <= boundary),
                    &mut scratch,
                );
                let outcome =
                    search.run(RegionOrder::PassBelowFail, FnOracle::new(|v| v <= boundary));
                assert_eq!(summary.trip_point, outcome.trip_point);
                assert_eq!(summary.converged, outcome.converged);
                assert_eq!(scratch.trace, outcome.trace);
            }
        }
    }

    proptest! {
        #[test]
        fn stable_device_converges_within_resolution(
            boundary in 81.0f64..129.0,
            resolution in 0.01f64..0.5,
        ) {
            let mut oracle = FnOracle::new(|v| v <= boundary);
            let o = SuccessiveApproximation::new(range(), resolution)
                .run(RegionOrder::PassBelowFail, &mut oracle);
            let tp = o.trip_point.expect("inside range");
            prop_assert!(tp <= boundary + 1e-9);
            prop_assert!(boundary - tp <= resolution + 1e-9);
        }

        #[test]
        fn speculation_never_changes_a_stable_trip_point(
            boundary in 81.0f64..129.0,
            resolution in 0.01f64..0.5,
        ) {
            let search = SuccessiveApproximation::new(range(), resolution);
            let plain = search.run(RegionOrder::PassBelowFail, FnOracle::new(|v| v <= boundary));
            let spec = search
                .with_speculation()
                .run(RegionOrder::PassBelowFail, FnOracle::new(|v| v <= boundary));
            prop_assert_eq!(spec.trip_point, plain.trip_point);
        }
    }
}
