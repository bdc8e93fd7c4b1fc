//! Linear trip-point search.

use crate::outcome::{Probe, SearchOutcome};
use crate::traits::{PassFailOracle, RegionOrder};
use cichar_trace::{SpanTrace, TraceEvent};
use cichar_units::ParamRange;

/// The §1 linear search: start at one boundary and step through a
/// specified resolution until the state changes or the end boundary is
/// reached.
///
/// The paper notes its disadvantages — a small resolution makes it time
/// consuming, and drift during the long sweep corrupts the reading — which
/// is why it serves here mainly as the measurement-cost upper bound the
/// smarter searches are compared against.
///
/// The sweep starts inside the pass region (range start for
/// [`RegionOrder::PassBelowFail`], range end otherwise) and walks toward
/// the fail region.
///
/// # Examples
///
/// ```
/// use cichar_search::{FnOracle, LinearSearch, RegionOrder};
/// use cichar_units::ParamRange;
///
/// let mut oracle = FnOracle::new(|v| v <= 110.0);
/// let search = LinearSearch::new(ParamRange::new(80.0, 130.0)?, 1.0);
/// let outcome = search.run(RegionOrder::PassBelowFail, &mut oracle);
/// assert_eq!(outcome.trip_point, Some(110.0));
/// // Costly: one measurement per step from 80 to the first failure at 111.
/// assert_eq!(outcome.measurements(), 32);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LinearSearch {
    range: ParamRange,
    step: f64,
}

impl LinearSearch {
    /// Creates a linear search over `range` with the given step size.
    ///
    /// # Panics
    ///
    /// Panics if `step` is not positive finite.
    pub fn new(range: ParamRange, step: f64) -> Self {
        assert!(step.is_finite() && step > 0.0, "invalid step {step}");
        Self { range, step }
    }

    /// The searched range.
    pub fn range(&self) -> ParamRange {
        self.range
    }

    /// The step size (the search's resolution).
    pub fn step(&self) -> f64 {
        self.step
    }

    /// Runs the sweep.
    ///
    /// Returns the last passing value as the trip point once the first
    /// failure appears. If the device never changes state across the range
    /// the outcome is unconverged.
    pub fn run<O: PassFailOracle>(&self, order: RegionOrder, oracle: O) -> SearchOutcome {
        self.run_traced(order, oracle, &SpanTrace::disabled())
    }

    /// [`run`](Self::run), emitting `SearchStarted` and `SearchFinished`
    /// into `span`.
    pub fn run_traced<O: PassFailOracle>(
        &self,
        order: RegionOrder,
        oracle: O,
        span: &SpanTrace,
    ) -> SearchOutcome {
        span.emit_with(|| TraceEvent::SearchStarted {
            strategy: "linear".into(),
            order: order.equation_tag().into(),
            window: [self.range.start(), self.range.end()],
            reference: None,
            sf: None,
        });
        let outcome = self.sweep(order, oracle);
        span.emit_with(|| TraceEvent::SearchFinished {
            strategy: "linear".into(),
            trip_point: outcome.trip_point,
            converged: outcome.converged,
            probes: outcome.measurements() as u64,
        });
        outcome
    }

    /// The sweep shared by the plain and traced entry points.
    fn sweep<O: PassFailOracle>(&self, order: RegionOrder, mut oracle: O) -> SearchOutcome {
        let dir = order.toward_fail();
        let start = match order {
            RegionOrder::PassBelowFail => self.range.start(),
            RegionOrder::PassAboveFail => self.range.end(),
        };
        let mut trace = Vec::new();
        let mut last_pass: Option<f64> = None;
        let steps = self
            .range
            .steps_at(self.step)
            .expect("step validated in constructor");
        for i in 0..=steps {
            let value = self.range.clamp(start + dir * self.step * i as f64);
            let verdict = oracle.probe(value);
            trace.push((value, verdict));
            match verdict {
                Probe::Pass => last_pass = Some(value),
                Probe::Fail => {
                    return match last_pass {
                        Some(tp) => SearchOutcome {
                            trip_point: Some(tp),
                            converged: true,
                            trace,
                        },
                        // Failing from the very first probe: the pass
                        // region lies outside the range.
                        None => SearchOutcome::unconverged(trace),
                    };
                }
                // Lost verdict mid-sweep: the state change may have hidden
                // inside the gap, so the sweep cannot be trusted.
                Probe::Invalid => return SearchOutcome::unconverged(trace),
            }
        }
        SearchOutcome::unconverged(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::FnOracle;
    use proptest::prelude::*;

    fn range() -> ParamRange {
        ParamRange::new(80.0, 130.0).expect("valid")
    }

    #[test]
    fn finds_trip_from_below() {
        let mut oracle = FnOracle::new(|v| v <= 110.0);
        let o = LinearSearch::new(range(), 1.0).run(RegionOrder::PassBelowFail, &mut oracle);
        assert_eq!(o.trip_point, Some(110.0));
        assert!(o.converged);
    }

    #[test]
    fn finds_trip_from_above() {
        // Vdd-style: passes down to 1.45 V.
        let r = ParamRange::new(1.2, 2.1).expect("valid");
        let mut oracle = FnOracle::new(|v| v >= 1.45);
        let o = LinearSearch::new(r, 0.05).run(RegionOrder::PassAboveFail, &mut oracle);
        let tp = o.trip_point.expect("converged");
        assert!((tp - 1.45).abs() < 0.05 + 1e-9, "tp = {tp}");
    }

    #[test]
    fn all_pass_range_is_unconverged() {
        let mut oracle = FnOracle::new(|_| true);
        let o = LinearSearch::new(range(), 5.0).run(RegionOrder::PassBelowFail, &mut oracle);
        assert!(!o.converged);
        assert_eq!(o.trip_point, None);
        assert_eq!(o.fails(), 0);
    }

    #[test]
    fn all_fail_range_is_unconverged() {
        let mut oracle = FnOracle::new(|_| false);
        let o = LinearSearch::new(range(), 5.0).run(RegionOrder::PassBelowFail, &mut oracle);
        assert!(!o.converged);
        assert_eq!(o.measurements(), 1, "stops at first failure");
    }

    #[test]
    fn cost_is_linear_in_resolution() {
        let cheap = LinearSearch::new(range(), 2.0)
            .run(RegionOrder::PassBelowFail, FnOracle::new(|v| v <= 110.0));
        let costly = LinearSearch::new(range(), 0.25)
            .run(RegionOrder::PassBelowFail, FnOracle::new(|v| v <= 110.0));
        assert!(costly.measurements() > 4 * cheap.measurements());
    }

    #[test]
    #[should_panic(expected = "invalid step")]
    fn rejects_nonpositive_step() {
        let _ = LinearSearch::new(range(), 0.0);
    }

    proptest! {
        #[test]
        fn trip_is_within_step_of_true_boundary(
            boundary in 81.0f64..129.0,
            step in 0.1f64..2.0,
        ) {
            let mut oracle = FnOracle::new(|v| v <= boundary);
            let o = LinearSearch::new(range(), step).run(RegionOrder::PassBelowFail, &mut oracle);
            let tp = o.trip_point.expect("boundary inside range");
            prop_assert!(tp <= boundary + 1e-9);
            prop_assert!(boundary - tp <= step + 1e-9);
        }
    }
}
