//! Search-until-trip-point — the paper's §4 contribution.

use crate::outcome::{Probe, SearchOutcome, SearchSummary};
use crate::scratch::SearchScratch;
use crate::traits::{PassFailOracle, RegionOrder};
use cichar_trace::{SpanTrace, TraceEvent};
use cichar_units::ParamRange;

/// The search-until-trip-point (STP) algorithm of §4, eqs. (2)–(4).
///
/// Multiple-trip-point characterization repeats the trip-point measurement
/// for every random test. Re-running a full-range search each time is
/// wasteful, because "the variations of semiconductor device parameters …
/// are only expected in a very narrow range with respect to different input
/// tests if the devices are properly designed". STP therefore:
///
/// 1. takes the *reference trip point* `RTP` from the first test's
///    full-range search (eq. 2 — see
///    [`SuccessiveApproximation`](crate::SuccessiveApproximation));
/// 2. probes the new test **at** `RTP`;
/// 3. if it passes, steps toward the fail region with the growing step
///    `SF(IT) = SF·IT` — probe positions `RTP + SF·1`, `RTP + SF·1 + SF·2`,
///    … — until the first failure; if it fails, steps the other way until
///    the first pass (eq. 3; signs mirror for eq. 4's orientation);
/// 4. reports the last passing value as the trip point.
///
/// §4's "SF will further increase with IT" is read literally: the *step*
/// grows each iteration, so the walk accelerates away from `RTP`. That
/// keeps the search cheap near `RTP` (first step is just `SF`) yet still
/// converges in `O(√distance)` probes when "unexpected drift of design
/// performance" puts the new trip point far away — the flexibility §4
/// calls out, "while keeping smallest effort of searching".
///
/// An optional refinement bisects the final pass/fail pair down to
/// `resolution`, recovering full accuracy for a couple of extra probes.
///
/// # Examples
///
/// ```
/// use cichar_search::{FnOracle, RegionOrder, SearchUntilTrip};
/// use cichar_units::ParamRange;
///
/// let range = ParamRange::new(80.0, 130.0)?;
/// // RTP from a previous test was 110; this test trips slightly lower.
/// let mut oracle = FnOracle::new(|v| v <= 108.2);
/// let stp = SearchUntilTrip::new(range, 1.0).with_refinement(0.1);
/// let outcome = stp.run(110.0, RegionOrder::PassBelowFail, &mut oracle);
/// let tp = outcome.trip_point.expect("found");
/// assert!((tp - 108.2).abs() <= 0.1);
/// // Far fewer probes than a full-range binary search would need.
/// assert!(outcome.measurements() <= 9);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SearchUntilTrip {
    range: ParamRange,
    /// The programmable search-factor resolution `SF` ("such as 1 MHz or
    /// 2 MHz per step").
    sf: f64,
    /// Bisect the final bracket down to this resolution; `None` reports
    /// the raw last-pass value, exactly as §4 states the algorithm.
    refine_to: Option<f64>,
    /// Safety bound on iterations (the range edge stops the search anyway).
    max_iterations: usize,
}

impl SearchUntilTrip {
    /// Creates an STP search with search factor `sf`, no refinement.
    ///
    /// # Panics
    ///
    /// Panics if `sf` is not positive finite.
    pub fn new(range: ParamRange, sf: f64) -> Self {
        assert!(sf.is_finite() && sf > 0.0, "invalid search factor {sf}");
        Self {
            range,
            sf,
            refine_to: None,
            max_iterations: 10_000,
        }
    }

    /// Enables final bisection refinement to `resolution`.
    ///
    /// # Panics
    ///
    /// Panics if `resolution` is not positive finite.
    pub fn with_refinement(mut self, resolution: f64) -> Self {
        assert!(
            resolution.is_finite() && resolution > 0.0,
            "invalid resolution {resolution}"
        );
        self.refine_to = Some(resolution);
        self
    }

    /// The clamping range (the original generous range `CR`).
    pub fn range(&self) -> ParamRange {
        self.range
    }

    /// The search factor `SF`.
    pub fn sf(&self) -> f64 {
        self.sf
    }

    /// Runs STP around the reference trip point `rtp`.
    ///
    /// # Panics
    ///
    /// Panics if `rtp` lies outside the search range — the reference must
    /// come from a search over the same range.
    pub fn run<O: PassFailOracle>(&self, rtp: f64, order: RegionOrder, oracle: O) -> SearchOutcome {
        self.run_traced(rtp, order, oracle, &SpanTrace::disabled())
    }

    /// [`run`](Self::run), emitting the full event shape of the walk into
    /// `span`: a `SearchStarted` carrying the window, reference and `SF`;
    /// one `StepTaken` per eq. 3/4 iteration with the growing step factor
    /// `SF·IT` and its clamp state at the `CR` edge; a `Bracketed` on the
    /// first state change; and a closing `SearchFinished`.
    ///
    /// # Panics
    ///
    /// Panics if `rtp` lies outside the search range.
    pub fn run_traced<O: PassFailOracle>(
        &self,
        rtp: f64,
        order: RegionOrder,
        oracle: O,
        span: &SpanTrace,
    ) -> SearchOutcome {
        let mut scratch = SearchScratch::default();
        let summary = self.run_traced_in(rtp, order, oracle, span, &mut scratch);
        summary.into_outcome(scratch.trace)
    }

    /// [`run`](Self::run) with a caller-owned [`SearchScratch`]: probes
    /// are appended to `scratch.trace` (which the caller clears between
    /// searches) and only the copyable [`SearchSummary`] is returned, so
    /// steady-state searching allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `rtp` lies outside the search range.
    pub fn run_in<O: PassFailOracle>(
        &self,
        rtp: f64,
        order: RegionOrder,
        oracle: O,
        scratch: &mut SearchScratch,
    ) -> SearchSummary {
        self.run_traced_in(rtp, order, oracle, &SpanTrace::disabled(), scratch)
    }

    /// [`run_traced`](Self::run_traced) with a caller-owned
    /// [`SearchScratch`] — the event shape is identical; the probe trace
    /// lands in `scratch.trace` instead of a fresh vector.
    ///
    /// # Panics
    ///
    /// Panics if `rtp` lies outside the search range.
    pub fn run_traced_in<O: PassFailOracle>(
        &self,
        rtp: f64,
        order: RegionOrder,
        oracle: O,
        span: &SpanTrace,
        scratch: &mut SearchScratch,
    ) -> SearchSummary {
        span.emit_with(|| TraceEvent::SearchStarted {
            strategy: "stp".into(),
            order: order.equation_tag().into(),
            window: [self.range.start(), self.range.end()],
            reference: Some(rtp),
            sf: Some(self.sf),
        });
        let start = scratch.trace.len();
        let summary = self.walk(rtp, order, oracle, span, &mut scratch.trace);
        span.emit_with(|| TraceEvent::SearchFinished {
            strategy: "stp".into(),
            trip_point: summary.trip_point,
            converged: summary.converged,
            probes: (scratch.trace.len() - start) as u64,
        });
        summary
    }

    /// The eq. 3/4 window walk itself (shared by [`run`](Self::run) and
    /// [`run_traced`](Self::run_traced)), appending probes to `trace`.
    fn walk<O: PassFailOracle>(
        &self,
        rtp: f64,
        order: RegionOrder,
        mut oracle: O,
        span: &SpanTrace,
        trace: &mut Vec<(f64, Probe)>,
    ) -> SearchSummary {
        assert!(
            self.range.contains(rtp),
            "rtp {rtp} outside range {}",
            self.range
        );
        let probe = |oracle: &mut O, trace: &mut Vec<(f64, Probe)>, v: f64| {
            let verdict = oracle.probe(v);
            trace.push((v, verdict));
            verdict
        };
        let toward_fail = order.toward_fail();

        let at_rtp = probe(&mut oracle, trace, rtp);
        if at_rtp == Probe::Invalid {
            // No verdict at the anchor: the walk has no direction.
            return SearchSummary::unconverged();
        }
        // Walk away from RTP with the growing step SF·IT. Direction depends
        // on the verdict at RTP: passing walks toward the fail region
        // looking for the first failure, failing walks away from it looking
        // for the first pass.
        let dir = match at_rtp {
            Probe::Pass => toward_fail,
            _ => -toward_fail,
        };
        // The window growth SF(IT) = SF·IT saturates at the generous-range
        // edge: the walk never probes outside the physically meaningful
        // axis, and the edge itself is probed at most once.
        let edge = if dir > 0.0 {
            self.range.end()
        } else {
            self.range.start()
        };
        let max_offset = (edge - rtp).abs();
        let mut last = (rtp, at_rtp);
        let mut offset = 0.0;
        for it in 1..=self.max_iterations {
            offset = (offset + self.sf * it as f64).min(max_offset);
            let at_edge = offset >= max_offset;
            let value = if at_edge { edge } else { rtp + dir * offset };
            let verdict = probe(&mut oracle, trace, value);
            span.emit_with(|| TraceEvent::StepTaken {
                iteration: it as u64,
                step_factor: self.sf * it as f64,
                value,
                clamped: at_edge,
                verdict: verdict.into(),
            });
            if verdict == Probe::Invalid {
                return SearchSummary::unconverged();
            }
            if verdict != at_rtp {
                // First state change: the trip point is bracketed between
                // `last` and `value`.
                let (mut pass_v, mut fail_v) = match verdict {
                    Probe::Fail => (last.0, value),
                    _ => (value, last.0),
                };
                span.emit(TraceEvent::Bracketed {
                    pass_value: pass_v,
                    fail_value: fail_v,
                });
                if let Some(resolution) = self.refine_to {
                    while (fail_v - pass_v).abs() > resolution {
                        let mid = pass_v + (fail_v - pass_v) / 2.0;
                        match probe(&mut oracle, trace, mid) {
                            Probe::Pass => pass_v = mid,
                            Probe::Fail => fail_v = mid,
                            Probe::Invalid => return SearchSummary::unconverged(),
                        }
                    }
                }
                return SearchSummary {
                    trip_point: Some(pass_v),
                    converged: true,
                };
            }
            last = (value, verdict);
            if at_edge {
                // The whole window up to the range edge shares RTP's state.
                break;
            }
        }
        SearchSummary::unconverged()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binary::BinarySearch;
    use crate::traits::FnOracle;
    use proptest::prelude::*;

    fn range() -> ParamRange {
        ParamRange::new(80.0, 130.0).expect("valid")
    }

    #[test]
    fn passing_rtp_walks_toward_fail_region() {
        // Trip slightly above RTP.
        let mut oracle = FnOracle::new(|v| v <= 112.5);
        let o = SearchUntilTrip::new(range(), 1.0).run(110.0, RegionOrder::PassBelowFail, &mut oracle);
        let tp = o.trip_point.expect("found");
        // Probes: 110 pass, 111 pass, 113 fail → trip reported at 111.
        assert!((110.0..=112.5).contains(&tp), "tp = {tp}");
        assert!(o.measurements() <= 5, "used {}", o.measurements());
    }

    #[test]
    fn failing_rtp_walks_back_toward_pass_region() {
        // The new test trips below RTP: device fails at RTP.
        let mut oracle = FnOracle::new(|v| v <= 106.0);
        let o = SearchUntilTrip::new(range(), 1.0).run(110.0, RegionOrder::PassBelowFail, &mut oracle);
        let tp = o.trip_point.expect("found");
        assert!(tp <= 106.0, "trip reported on pass side, tp = {tp}");
        assert!(o.measurements() <= 5, "used {}", o.measurements());
    }

    #[test]
    fn growing_step_reaches_distant_trip_quickly() {
        // Unexpected drift: trip point 18 units above RTP.
        let mut oracle = FnOracle::new(|v| v <= 128.0);
        let o = SearchUntilTrip::new(range(), 1.0).run(110.0, RegionOrder::PassBelowFail, &mut oracle);
        assert!(o.converged);
        // Positions visited: 111, 112, 114(≠: SF·IT = 1,2,3,…): 111,112,113,
        // …, distance grows linearly: ~6 probes to cover 18 units? SF·IT
        // reaches 18 at IT=18 linearly-spaced probes… ensure at most that.
        assert!(
            o.measurements() <= 8,
            "accelerating walk should need few probes, used {}",
            o.measurements()
        );
    }

    #[test]
    fn eq4_orientation_mirrors_directions() {
        // Vdd-style: passes above 1.5. RTP at 1.52, new test trips at 1.56.
        let r = ParamRange::new(1.2, 2.1).expect("valid");
        let mut oracle = FnOracle::new(|v| v >= 1.56);
        let o = SearchUntilTrip::new(r, 0.01).run(1.52, RegionOrder::PassAboveFail, &mut oracle);
        let tp = o.trip_point.expect("found");
        assert!(tp >= 1.56 - 1e-9, "tp = {tp} must be on the pass side");
        assert!(tp <= 1.62, "tp = {tp} near the true boundary");
    }

    #[test]
    fn refinement_recovers_fine_resolution() {
        let coarse = SearchUntilTrip::new(range(), 2.0);
        let fine = SearchUntilTrip::new(range(), 2.0).with_refinement(0.05);
        let mut o1 = FnOracle::new(|v| v <= 111.3);
        let mut o2 = FnOracle::new(|v| v <= 111.3);
        let c = coarse.run(110.0, RegionOrder::PassBelowFail, &mut o1);
        let f = fine.run(110.0, RegionOrder::PassBelowFail, &mut o2);
        let ctp = c.trip_point.expect("found");
        let ftp = f.trip_point.expect("found");
        assert!((ftp - 111.3).abs() <= 0.05, "refined tp = {ftp}");
        assert!((ctp - 111.3).abs() <= 2.0, "coarse tp = {ctp}");
        assert!(f.measurements() > c.measurements());
    }

    #[test]
    fn window_growth_clamps_at_generous_range_edge() {
        // All-pass device: the walk saturates at the range edge, probes it
        // exactly once, and gives up instead of stepping outside CR.
        let mut oracle = FnOracle::new(|_| true);
        let o =
            SearchUntilTrip::new(range(), 5.0).run(110.0, RegionOrder::PassBelowFail, &mut oracle);
        assert!(!o.converged);
        let edge_probes = o.trace.iter().filter(|(v, _)| *v == 130.0).count();
        assert_eq!(edge_probes, 1, "range edge probed exactly once");
        assert!(o.trace.iter().all(|(v, _)| range().contains(*v)));
    }

    #[test]
    fn invalid_rtp_verdict_aborts_walk() {
        let o = SearchUntilTrip::new(range(), 1.0).run(
            110.0,
            RegionOrder::PassBelowFail,
            crate::robust::ScriptedOracle::new(vec![Probe::Invalid]),
        );
        assert!(!o.converged);
        assert_eq!(o.measurements(), 1);
    }

    #[test]
    fn unconverged_when_no_boundary_in_range() {
        let o = SearchUntilTrip::new(range(), 5.0).run(
            110.0,
            RegionOrder::PassBelowFail,
            FnOracle::new(|_| true),
        );
        assert!(!o.converged);
    }

    #[test]
    #[should_panic(expected = "outside range")]
    fn rejects_rtp_outside_range() {
        let _ = SearchUntilTrip::new(range(), 1.0).run(
            200.0,
            RegionOrder::PassBelowFail,
            FnOracle::new(|_| true),
        );
    }

    #[test]
    fn stp_is_cheaper_than_full_binary_near_rtp() {
        // The fig. 3 economics: for a trip point near RTP, STP beats a
        // fresh full-range binary search.
        let boundary = 109.2;
        let stp = SearchUntilTrip::new(range(), 1.0).with_refinement(0.1);
        let bin = BinarySearch::new(range(), 0.1);
        let s = stp.run(
            110.0,
            RegionOrder::PassBelowFail,
            FnOracle::new(|v| v <= boundary),
        );
        let b = bin.run(RegionOrder::PassBelowFail, FnOracle::new(|v| v <= boundary));
        assert!(s.converged && b.converged);
        assert!(
            s.measurements() < b.measurements(),
            "stp {} vs binary {}",
            s.measurements(),
            b.measurements()
        );
    }

    /// The `StepTaken` records of a traced STP run, in emission order.
    fn steps_of(span: &SpanTrace) -> Vec<(u64, f64, f64, bool)> {
        span.events()
            .into_iter()
            .filter_map(|e| match e {
                TraceEvent::StepTaken {
                    iteration,
                    step_factor,
                    value,
                    clamped,
                    ..
                } => Some((iteration, step_factor, value, clamped)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn eq3_walk_grows_step_factor_linearly() {
        // Pass-below-fail, trip far above RTP: the walk must accelerate
        // with SF(IT) = SF·IT, not a constant step — check every probe
        // position of the walk, not just the final trip point.
        let span = SpanTrace::for_test(0);
        let sf = 1.5;
        let mut oracle = FnOracle::new(|v| v <= 127.0);
        let o = SearchUntilTrip::new(range(), sf).run_traced(
            100.0,
            RegionOrder::PassBelowFail,
            &mut oracle,
            &span,
        );
        assert!(o.converged);
        let steps = steps_of(&span);
        assert!(steps.len() >= 3, "distant trip needs several steps");
        let mut expected_offset = 0.0;
        for (i, (iteration, step_factor, value, clamped)) in steps.iter().enumerate() {
            let it = (i + 1) as u64;
            assert_eq!(*iteration, it, "iterations count 1, 2, 3, …");
            assert!(
                (*step_factor - sf * it as f64).abs() < 1e-12,
                "step factor must be SF·IT = {} at IT = {it}, got {step_factor}",
                sf * it as f64
            );
            expected_offset += sf * it as f64;
            if !clamped {
                assert!(
                    (*value - (100.0 + expected_offset)).abs() < 1e-9,
                    "probe {i} at RTP + ΣSF·IT, got {value}"
                );
            }
        }
        // The walk accelerates: consecutive probe spacings strictly grow.
        for w in steps.windows(2) {
            if !w[1].3 {
                assert!(w[1].2 - w[0].2 > 0.0, "eq. 3 walks upward");
            }
        }
    }

    #[test]
    fn eq4_walk_mirrors_direction_with_same_growth() {
        // Pass-above-fail (eq. 4): a passing RTP walks *down* toward the
        // fail region with the same SF·IT growth.
        let span = SpanTrace::for_test(0);
        let r = ParamRange::new(1.2, 2.1).expect("valid");
        let sf = 0.02;
        let mut oracle = FnOracle::new(|v| v >= 1.31);
        let o = SearchUntilTrip::new(r, sf).run_traced(
            1.9,
            RegionOrder::PassAboveFail,
            &mut oracle,
            &span,
        );
        assert!(o.converged);
        let steps = steps_of(&span);
        assert!(steps.len() >= 3);
        let mut expected_offset = 0.0;
        for (i, (iteration, step_factor, value, clamped)) in steps.iter().enumerate() {
            let it = (i + 1) as u64;
            assert_eq!(*iteration, it);
            assert!((*step_factor - sf * it as f64).abs() < 1e-12);
            expected_offset += sf * it as f64;
            if !clamped {
                assert!(
                    (*value - (1.9 - expected_offset)).abs() < 1e-9,
                    "eq. 4 probe {i} at RTP − ΣSF·IT, got {value}"
                );
            }
        }
        for w in steps.windows(2) {
            if !w[1].3 {
                assert!(w[1].2 - w[0].2 < 0.0, "eq. 4 walks downward");
            }
        }
    }

    #[test]
    fn failing_rtp_reverses_walk_in_step_events() {
        // Fails at RTP under eq. 3: StepTaken values must walk *down*,
        // away from the fail region, with the same growing step.
        let span = SpanTrace::for_test(0);
        let mut oracle = FnOracle::new(|v| v <= 93.0);
        let o = SearchUntilTrip::new(range(), 1.0).run_traced(
            110.0,
            RegionOrder::PassBelowFail,
            &mut oracle,
            &span,
        );
        assert!(o.converged);
        let steps = steps_of(&span);
        assert!(!steps.is_empty());
        assert!(steps[0].2 < 110.0, "first step heads back toward pass");
        for w in steps.windows(2) {
            assert!(w[1].2 < w[0].2, "reversed walk keeps heading down");
        }
    }

    #[test]
    fn clamped_step_marks_cr_edge_exactly_once() {
        // All-pass device: the final step saturates at the CR edge and is
        // flagged `clamped`; no step probes outside the range, and the
        // walk stops right after the clamped probe.
        let span = SpanTrace::for_test(0);
        let mut oracle = FnOracle::new(|_| true);
        let o = SearchUntilTrip::new(range(), 5.0).run_traced(
            110.0,
            RegionOrder::PassBelowFail,
            &mut oracle,
            &span,
        );
        assert!(!o.converged);
        let steps = steps_of(&span);
        let clamped: Vec<_> = steps.iter().filter(|s| s.3).collect();
        assert_eq!(clamped.len(), 1, "edge step flagged exactly once");
        assert_eq!(clamped[0].2, 130.0, "clamped value is the CR edge");
        assert!(
            steps.last().expect("walked").3,
            "clamped step is the last one"
        );
        assert!(steps.iter().all(|s| range().contains(s.2)));
        // Unclamped step factors still follow SF·IT right up to the edge.
        for (i, s) in steps.iter().enumerate() {
            assert!((s.1 - 5.0 * (i + 1) as f64).abs() < 1e-12);
        }
    }

    #[test]
    fn traced_walk_event_order_is_started_steps_bracket_finished() {
        let span = SpanTrace::for_test(7);
        let mut oracle = FnOracle::new(|v| v <= 112.5);
        let o = SearchUntilTrip::new(range(), 1.0).run_traced(
            110.0,
            RegionOrder::PassBelowFail,
            &mut oracle,
            &span,
        );
        assert!(o.converged);
        let events = span.events();
        assert!(
            matches!(
                &events[0],
                TraceEvent::SearchStarted { strategy, reference, sf, .. }
                    if strategy == "stp" && *reference == Some(110.0) && *sf == Some(1.0)
            ),
            "first event opens the search"
        );
        assert!(matches!(events[1], TraceEvent::StepTaken { iteration: 1, .. }));
        let bracket_at = events
            .iter()
            .position(|e| matches!(e, TraceEvent::Bracketed { .. }))
            .expect("bracket emitted");
        assert!(
            events[..bracket_at]
                .iter()
                .skip(1)
                .all(|e| matches!(e, TraceEvent::StepTaken { .. })),
            "only steps between start and bracket"
        );
        assert!(
            matches!(
                events.last(),
                Some(TraceEvent::SearchFinished { converged: true, .. })
            ),
            "last event closes the search"
        );
    }

    #[test]
    fn untraced_run_is_identical_to_traced_run() {
        let mut a = FnOracle::new(|v| v <= 112.5);
        let mut b = FnOracle::new(|v| v <= 112.5);
        let stp = SearchUntilTrip::new(range(), 1.0).with_refinement(0.1);
        let plain = stp.run(110.0, RegionOrder::PassBelowFail, &mut a);
        let traced = stp.run_traced(
            110.0,
            RegionOrder::PassBelowFail,
            &mut b,
            &SpanTrace::for_test(0),
        );
        assert_eq!(plain, traced, "tracing must not perturb the search");
    }

    #[test]
    fn run_in_matches_allocating_run() {
        let stp = SearchUntilTrip::new(range(), 1.0).with_refinement(0.1);
        let mut scratch = crate::SearchScratch::default();
        for boundary in [93.0, 112.5, 200.0] {
            scratch.trace.clear();
            let summary = stp.run_in(
                110.0,
                RegionOrder::PassBelowFail,
                FnOracle::new(|v| v <= boundary),
                &mut scratch,
            );
            let outcome = stp.run(
                110.0,
                RegionOrder::PassBelowFail,
                FnOracle::new(|v| v <= boundary),
            );
            assert_eq!(summary.trip_point, outcome.trip_point);
            assert_eq!(summary.converged, outcome.converged);
            assert_eq!(scratch.trace, outcome.trace);
        }
    }

    proptest! {
        #[test]
        fn stp_brackets_true_boundary(
            boundary in 85.0f64..125.0,
            rtp in 85.0f64..125.0,
            sf in 0.5f64..3.0,
        ) {
            let mut oracle = FnOracle::new(|v| v <= boundary);
            let o = SearchUntilTrip::new(range(), sf)
                .with_refinement(0.05)
                .run(rtp, RegionOrder::PassBelowFail, &mut oracle);
            let tp = o.trip_point.expect("boundary inside range");
            prop_assert!(tp <= boundary + 1e-9);
            prop_assert!(boundary - tp <= 0.05 + 1e-9);
        }

        #[test]
        fn stp_never_probes_outside_range(
            boundary in 85.0f64..125.0,
            rtp in 81.0f64..129.0,
        ) {
            let mut oracle = FnOracle::new(|v| v <= boundary);
            let o = SearchUntilTrip::new(range(), 2.0)
                .run(rtp, RegionOrder::PassBelowFail, &mut oracle);
            for (v, _) in &o.trace {
                prop_assert!(range().contains(*v));
            }
        }
    }
}
