//! Binary (divide-by-two) trip-point search.

use crate::outcome::{Probe, SearchOutcome};
use crate::traits::{PassFailOracle, RegionOrder};
use cichar_units::ParamRange;

/// The §1 binary search: "the delta between the last known true and last
/// known false condition are halved until the trip point is found".
///
/// Both range endpoints are probed first (the algorithm "requires that
/// starting points be chosen on both sides of the good to bad crossover",
/// §4); if they share a state the search reports unconverged instead of
/// guessing.
///
/// # Examples
///
/// ```
/// use cichar_search::{BinarySearch, FnOracle, RegionOrder};
/// use cichar_units::ParamRange;
///
/// let mut oracle = FnOracle::new(|v| v <= 110.0);
/// let search = BinarySearch::new(ParamRange::new(80.0, 130.0)?, 0.1);
/// let outcome = search.run(RegionOrder::PassBelowFail, &mut oracle);
/// let trip = outcome.trip_point.expect("bracketed");
/// assert!((trip - 110.0).abs() <= 0.1);
/// // log2(50 / 0.1) ≈ 9 halvings plus the two endpoint checks.
/// assert!(outcome.measurements() <= 12);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BinarySearch {
    range: ParamRange,
    resolution: f64,
}

impl BinarySearch {
    /// Creates a binary search over `range`, halving until the bracket is
    /// narrower than `resolution`.
    ///
    /// # Panics
    ///
    /// Panics if `resolution` is not positive finite.
    pub fn new(range: ParamRange, resolution: f64) -> Self {
        assert!(
            resolution.is_finite() && resolution > 0.0,
            "invalid resolution {resolution}"
        );
        Self { range, resolution }
    }

    /// The searched range.
    pub fn range(&self) -> ParamRange {
        self.range
    }

    /// The convergence resolution.
    pub fn resolution(&self) -> f64 {
        self.resolution
    }

    /// Runs the search. The trip point is reported on the pass side of the
    /// final bracket (fig. 1: "the trip point is a device pass").
    pub fn run<O: PassFailOracle>(&self, order: RegionOrder, mut oracle: O) -> SearchOutcome {
        let mut trace = Vec::new();
        let (pass_end, fail_end) = match order {
            RegionOrder::PassBelowFail => (self.range.start(), self.range.end()),
            RegionOrder::PassAboveFail => (self.range.end(), self.range.start()),
        };
        let v_pass = oracle.probe(pass_end);
        trace.push((pass_end, v_pass));
        let v_fail = oracle.probe(fail_end);
        trace.push((fail_end, v_fail));
        if v_pass != Probe::Pass || v_fail != Probe::Fail {
            // No crossover inside the range.
            return SearchOutcome::unconverged(trace);
        }
        let (mut lo_pass, mut hi_fail) = (pass_end, fail_end);
        while (hi_fail - lo_pass).abs() > self.resolution {
            let mid = lo_pass + (hi_fail - lo_pass) / 2.0;
            let verdict = oracle.probe(mid);
            trace.push((mid, verdict));
            match verdict {
                Probe::Pass => lo_pass = mid,
                Probe::Fail => hi_fail = mid,
                // A verdictless probe mid-bracket: abort rather than guess.
                Probe::Invalid => return SearchOutcome::unconverged(trace),
            }
        }
        SearchOutcome {
            trip_point: Some(lo_pass),
            converged: true,
            trace,
        }
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
    fn converges_to_resolution() {
        let mut oracle = FnOracle::new(|v| v <= 107.3);
        let o = BinarySearch::new(range(), 0.05).run(RegionOrder::PassBelowFail, &mut oracle);
        let tp = o.trip_point.expect("bracketed");
        assert!((tp - 107.3).abs() <= 0.05, "tp = {tp}");
        assert!(tp <= 107.3, "trip point reported on the pass side");
    }

    #[test]
    fn pass_above_fail_orientation() {
        let r = ParamRange::new(1.2, 2.1).expect("valid");
        let mut oracle = FnOracle::new(|v| v >= 1.47);
        let o = BinarySearch::new(r, 0.005).run(RegionOrder::PassAboveFail, &mut oracle);
        let tp = o.trip_point.expect("bracketed");
        assert!((tp - 1.47).abs() <= 0.005, "tp = {tp}");
        assert!(tp >= 1.47, "trip point on the pass side");
    }

    #[test]
    fn measurement_cost_is_logarithmic() {
        let mut oracle = FnOracle::new(|v| v <= 110.0);
        let o = BinarySearch::new(range(), 0.1).run(RegionOrder::PassBelowFail, &mut oracle);
        // ceil(log2(50/0.1)) = 9 halvings + 2 endpoint probes.
        assert!(o.measurements() <= 11, "used {}", o.measurements());
        assert!(o.converged);
    }

    #[test]
    fn whole_range_passing_is_unconverged() {
        let o = BinarySearch::new(range(), 0.1)
            .run(RegionOrder::PassBelowFail, FnOracle::new(|_| true));
        assert!(!o.converged);
        assert_eq!(o.measurements(), 2, "only the endpoint checks");
    }

    #[test]
    fn whole_range_failing_is_unconverged() {
        let o = BinarySearch::new(range(), 0.1)
            .run(RegionOrder::PassBelowFail, FnOracle::new(|_| false));
        assert!(!o.converged);
    }

    #[test]
    #[should_panic(expected = "invalid resolution")]
    fn rejects_nan_resolution() {
        let _ = BinarySearch::new(range(), f64::NAN);
    }

    proptest! {
        #[test]
        fn bracket_always_contains_boundary(
            boundary in 81.0f64..129.0,
            resolution in 0.01f64..1.0,
        ) {
            let mut oracle = FnOracle::new(|v| v <= boundary);
            let o = BinarySearch::new(range(), resolution)
                .run(RegionOrder::PassBelowFail, &mut oracle);
            let tp = o.trip_point.expect("boundary inside range");
            prop_assert!(tp <= boundary + 1e-9);
            prop_assert!(boundary - tp <= resolution + 1e-9);
        }

        #[test]
        fn cost_beats_linear_for_fine_resolution(
            boundary in 85.0f64..125.0,
        ) {
            let resolution = 0.05;
            let binary = BinarySearch::new(range(), resolution)
                .run(RegionOrder::PassBelowFail, FnOracle::new(|v| v <= boundary));
            let linear = crate::linear::LinearSearch::new(range(), resolution)
                .run(RegionOrder::PassBelowFail, FnOracle::new(|v| v <= boundary));
            prop_assert!(binary.measurements() < linear.measurements());
        }
    }
}
