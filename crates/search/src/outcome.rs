//! Search results: trip point, probe trace and measurement cost.

use crate::traits::RegionOrder;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A single pass/fail verdict from the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Probe {
    /// The device met its expected behaviour at the probed value.
    Pass,
    /// The device failed at the probed value.
    Fail,
    /// No verdict was available — a probe-contact dropout or session abort
    /// left the strobe channel silent. Searches treat this as "cannot
    /// continue" rather than guessing a state.
    Invalid,
}

impl Probe {
    /// `true` for [`Probe::Pass`].
    pub fn is_pass(self) -> bool {
        matches!(self, Probe::Pass)
    }

    /// `true` for [`Probe::Fail`].
    pub fn is_fail(self) -> bool {
        matches!(self, Probe::Fail)
    }

    /// `true` when a verdict was actually delivered (pass or fail).
    pub fn is_valid(self) -> bool {
        !matches!(self, Probe::Invalid)
    }

    /// The opposite verdict; [`Probe::Invalid`] stays invalid (there is
    /// nothing to flip).
    pub fn flipped(self) -> Self {
        match self {
            Probe::Pass => Probe::Fail,
            Probe::Fail => Probe::Pass,
            Probe::Invalid => Probe::Invalid,
        }
    }
}

impl From<Probe> for cichar_trace::TraceVerdict {
    fn from(probe: Probe) -> Self {
        match probe {
            Probe::Pass => cichar_trace::TraceVerdict::Pass,
            Probe::Fail => cichar_trace::TraceVerdict::Fail,
            Probe::Invalid => cichar_trace::TraceVerdict::Invalid,
        }
    }
}

impl fmt::Display for Probe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Probe::Pass => "PASS",
            Probe::Fail => "FAIL",
            Probe::Invalid => "INVALID",
        })
    }
}

/// Whether an ordered-region probe trace is self-consistent: no passing
/// probe sits beyond a failing probe (modulo `tolerance`) on the axis, per
/// the orientation's eq. 3/4 ordering. Invalid probes carry no position
/// information and are ignored.
///
/// An inconsistent trace is the signature of a transient verdict flip —
/// a monotone device cannot pass above a failure (eq. 3) no matter how the
/// search walked the axis.
pub fn trace_is_consistent(trace: &[(f64, Probe)], order: RegionOrder, tolerance: f64) -> bool {
    let mut extreme_pass: Option<f64> = None;
    let mut extreme_fail: Option<f64> = None;
    for &(v, p) in trace {
        match p {
            Probe::Pass => {
                extreme_pass = Some(match order {
                    RegionOrder::PassBelowFail => extreme_pass.map_or(v, |e| e.max(v)),
                    RegionOrder::PassAboveFail => extreme_pass.map_or(v, |e| e.min(v)),
                });
            }
            Probe::Fail => {
                extreme_fail = Some(match order {
                    RegionOrder::PassBelowFail => extreme_fail.map_or(v, |e| e.min(v)),
                    RegionOrder::PassAboveFail => extreme_fail.map_or(v, |e| e.max(v)),
                });
            }
            Probe::Invalid => {}
        }
    }
    match (extreme_pass, extreme_fail) {
        (Some(p), Some(f)) => match order {
            RegionOrder::PassBelowFail => p <= f + tolerance,
            RegionOrder::PassAboveFail => p >= f - tolerance,
        },
        _ => true,
    }
}

/// The result of one trip-point search.
///
/// `measurements` is the cost currency of the whole paper: §4 exists
/// because multiple-trip-point characterization multiplies measurement
/// count, and fig. 3's saving is measured in it.
///
/// # Examples
///
/// ```
/// use cichar_search::{Probe, SearchOutcome};
///
/// let outcome = SearchOutcome {
///     trip_point: Some(110.0),
///     converged: true,
///     trace: vec![(105.0, Probe::Pass), (115.0, Probe::Fail), (110.0, Probe::Pass)],
/// };
/// assert_eq!(outcome.measurements(), 3);
/// assert_eq!(outcome.passes(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchOutcome {
    /// The pass-side boundary value, if the search bracketed one.
    pub trip_point: Option<f64>,
    /// Whether the search actually bracketed a pass→fail transition inside
    /// its range. `false` means the device passed (or failed) across the
    /// entire searched span — §4's "easy to underestimate the range" case.
    pub converged: bool,
    /// Every probe in order: `(parameter value, verdict)`.
    pub trace: Vec<(f64, Probe)>,
}

impl SearchOutcome {
    /// A search that found nothing because the whole range had one state.
    pub fn unconverged(trace: Vec<(f64, Probe)>) -> Self {
        Self {
            trip_point: None,
            converged: false,
            trace,
        }
    }

    /// Number of device measurements consumed.
    pub fn measurements(&self) -> usize {
        self.trace.len()
    }

    /// Number of passing probes.
    pub fn passes(&self) -> usize {
        self.trace.iter().filter(|(_, p)| p.is_pass()).count()
    }

    /// Number of failing probes.
    pub fn fails(&self) -> usize {
        self.trace.iter().filter(|(_, p)| p.is_fail()).count()
    }

    /// Number of probes that returned no verdict ([`Probe::Invalid`]).
    pub fn invalids(&self) -> usize {
        self.trace.iter().filter(|(_, p)| !p.is_valid()).count()
    }
}

/// The copyable core of a search result: trip point and convergence,
/// without the probe trace.
///
/// The `*_in` search entry points append their trace into a borrowed
/// [`SearchScratch`](crate::SearchScratch) and return this summary, so
/// steady-state searching moves no heap data at all. A summary plus the
/// scratch's trace slice carries exactly the information of a
/// [`SearchOutcome`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchSummary {
    /// The pass-side boundary value, if the search bracketed one.
    pub trip_point: Option<f64>,
    /// Whether the search bracketed a pass→fail transition in range.
    pub converged: bool,
}

impl SearchSummary {
    /// A search that found nothing because the whole range had one state.
    pub fn unconverged() -> Self {
        Self {
            trip_point: None,
            converged: false,
        }
    }

    /// Rehydrates a full [`SearchOutcome`] by attaching the probe trace.
    pub fn into_outcome(self, trace: Vec<(f64, Probe)>) -> SearchOutcome {
        SearchOutcome {
            trip_point: self.trip_point,
            converged: self.converged,
            trace,
        }
    }
}

impl fmt::Display for SearchOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.converged, self.trip_point) {
            (true, Some(tp)) => write!(
                f,
                "trip point {tp:.4} in {} measurements",
                self.measurements()
            ),
            _ => write!(f, "no trip point ({} measurements)", self.measurements()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> SearchOutcome {
        SearchOutcome {
            trip_point: Some(1.5),
            converged: true,
            trace: vec![(1.0, Probe::Pass), (2.0, Probe::Fail), (1.5, Probe::Pass)],
        }
    }

    #[test]
    fn counts_partition_trace() {
        let o = demo();
        assert_eq!(o.passes() + o.fails(), o.measurements());
        assert_eq!(o.passes(), 2);
        assert_eq!(o.fails(), 1);
    }

    #[test]
    fn unconverged_has_no_trip() {
        let o = SearchOutcome::unconverged(vec![(1.0, Probe::Pass)]);
        assert!(!o.converged);
        assert_eq!(o.trip_point, None);
        assert_eq!(o.measurements(), 1);
    }

    #[test]
    fn display_converged_vs_not() {
        assert!(demo().to_string().contains("trip point 1.5"));
        assert!(SearchOutcome::unconverged(vec![])
            .to_string()
            .contains("no trip point"));
    }

    #[test]
    fn probe_display_and_predicate() {
        assert!(Probe::Pass.is_pass());
        assert!(!Probe::Fail.is_pass());
        assert_eq!(Probe::Pass.to_string(), "PASS");
        assert_eq!(Probe::Fail.to_string(), "FAIL");
        assert_eq!(Probe::Invalid.to_string(), "INVALID");
        assert!(Probe::Pass.is_valid() && Probe::Fail.is_valid());
        assert!(!Probe::Invalid.is_valid());
        assert_eq!(Probe::Pass.flipped(), Probe::Fail);
        assert_eq!(Probe::Fail.flipped(), Probe::Pass);
        assert_eq!(Probe::Invalid.flipped(), Probe::Invalid);
    }

    #[test]
    fn invalid_probes_are_counted_separately() {
        let o = SearchOutcome::unconverged(vec![
            (1.0, Probe::Pass),
            (2.0, Probe::Invalid),
            (3.0, Probe::Fail),
        ]);
        assert_eq!(o.passes(), 1);
        assert_eq!(o.fails(), 1);
        assert_eq!(o.invalids(), 1);
        assert_eq!(o.measurements(), 3);
    }

    #[test]
    fn consistency_detects_pass_beyond_fail() {
        use crate::traits::RegionOrder;
        // eq. 3 ordering: pass below fail. A pass at 120 above a fail at
        // 110 is physically impossible for a monotone device.
        let bad = vec![(110.0, Probe::Fail), (120.0, Probe::Pass)];
        assert!(!trace_is_consistent(&bad, RegionOrder::PassBelowFail, 0.0));
        // The same trace is fine under the mirrored eq. 4 ordering.
        assert!(trace_is_consistent(&bad, RegionOrder::PassAboveFail, 0.0));
        let good = vec![(100.0, Probe::Pass), (110.0, Probe::Fail)];
        assert!(trace_is_consistent(&good, RegionOrder::PassBelowFail, 0.0));
        // Tolerance forgives boundary jitter within one step.
        let close = vec![(110.0, Probe::Fail), (110.4, Probe::Pass)];
        assert!(trace_is_consistent(&close, RegionOrder::PassBelowFail, 0.5));
        assert!(!trace_is_consistent(&close, RegionOrder::PassBelowFail, 0.1));
        // Invalid probes carry no ordering information.
        let with_invalid = vec![(130.0, Probe::Invalid), (100.0, Probe::Pass)];
        assert!(trace_is_consistent(
            &with_invalid,
            RegionOrder::PassBelowFail,
            0.0
        ));
    }
}
