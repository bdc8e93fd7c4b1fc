//! Re-bracketing: STP with a full-range fallback.
//!
//! The §4 search-until-trip-point algorithm leans entirely on the
//! reference trip point: when the window walk fails — a dropout silenced a
//! strobe, the whole window shared one state, or the trace violates the
//! eq. 3/4 pass/fail ordering — returning the STP result would poison the
//! DSV with garbage. [`RebracketingStp`] detects those cases and falls
//! back to a fresh full-`CR` successive-approximation search (eq. 2), so
//! the caller gets either a trustworthy trip point or an honest failure,
//! plus a refreshed reference trip point to re-anchor subsequent tests.

use crate::outcome::{Probe, SearchOutcome, SearchSummary};
use crate::scratch::SearchScratch;
use crate::stp::SearchUntilTrip;
use crate::successive::SuccessiveApproximation;
use crate::traits::{BatchOracle, RegionOrder};
use cichar_trace::SpanTrace;

/// The result of a re-bracketing search.
#[derive(Debug, Clone, PartialEq)]
pub struct RebracketedOutcome {
    /// The combined search result. The trace concatenates every probe made
    /// (STP walk first, then the fallback if one ran) so measurement cost
    /// stays honest; the trip point comes from the authoritative search.
    pub outcome: SearchOutcome,
    /// Whether the full-range fallback ran.
    pub rebracketed: bool,
    /// Index into `outcome.trace` where the authoritative probes start
    /// (`0` when the STP walk itself was trusted).
    pub authoritative_from: usize,
}

impl RebracketedOutcome {
    /// The probes of the search that produced the reported trip point.
    pub fn authoritative_trace(&self) -> &[(f64, Probe)] {
        &self.outcome.trace[self.authoritative_from..]
    }

    /// Whether the reported trip point can be trusted: the authoritative
    /// search converged and its own trace respects the region ordering.
    pub fn is_trustworthy(&self, order: RegionOrder, tolerance: f64) -> bool {
        self.outcome.converged
            && crate::outcome::trace_is_consistent(self.authoritative_trace(), order, tolerance)
    }
}

/// The copyable core of a re-bracketing search result, for the
/// scratch-based [`RebracketingStp::run_traced_in`] entry point: the
/// probe trace lives in the caller's [`SearchScratch`] and the
/// authoritative slice is `&scratch.trace[authoritative_from..]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RebracketSummary {
    /// Trip point and convergence of the authoritative search.
    pub summary: SearchSummary,
    /// Whether the full-range fallback ran.
    pub rebracketed: bool,
    /// Index into the scratch trace where the authoritative probes start.
    pub authoritative_from: usize,
}

/// [`SearchUntilTrip`] wrapped with failure detection and a fresh
/// full-range [`SuccessiveApproximation`] fallback.
///
/// # Examples
///
/// ```
/// use cichar_search::{FnOracle, RebracketingStp, RegionOrder, SearchUntilTrip,
///     SuccessiveApproximation};
/// use cichar_units::ParamRange;
///
/// let range = ParamRange::new(80.0, 130.0)?;
/// let search = RebracketingStp::new(
///     SearchUntilTrip::new(range, 1.0).with_refinement(0.1),
///     SuccessiveApproximation::new(range, 0.1),
/// );
/// let mut oracle = FnOracle::new(|v| v <= 108.2);
/// let r = search.run(110.0, RegionOrder::PassBelowFail, &mut oracle);
/// assert!(!r.rebracketed, "healthy STP needs no fallback");
/// assert!((r.outcome.trip_point.expect("found") - 108.2).abs() <= 0.1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RebracketingStp {
    stp: SearchUntilTrip,
    fallback: SuccessiveApproximation,
}

impl RebracketingStp {
    /// Combines an STP window search with a full-range fallback.
    pub fn new(stp: SearchUntilTrip, fallback: SuccessiveApproximation) -> Self {
        Self { stp, fallback }
    }

    /// The trace-consistency tolerance: the STP search factor. Verdicts
    /// within one window step of each other are boundary jitter, anything
    /// beyond is a flipped verdict.
    pub fn tolerance(&self) -> f64 {
        self.stp.sf()
    }

    /// The wrapped STP search.
    pub fn stp(&self) -> &SearchUntilTrip {
        &self.stp
    }

    /// The full-range fallback search.
    pub fn fallback(&self) -> &SuccessiveApproximation {
        &self.fallback
    }

    /// Whether an STP outcome warrants the full-range fallback: it failed
    /// to bracket, a probe went silent, or the trace breaks the eq. 3/4
    /// pass/fail ordering.
    pub fn needs_rebracket(&self, outcome: &SearchOutcome, order: RegionOrder) -> bool {
        !outcome.converged
            || outcome.has_invalid()
            || !outcome.is_consistent(order, self.tolerance())
    }

    /// Runs STP around `rtp`; on failure, re-brackets with a fresh
    /// full-range search over the same oracle.
    ///
    /// # Panics
    ///
    /// Panics if `rtp` lies outside the STP range (same contract as
    /// [`SearchUntilTrip::run`]).
    pub fn run<O: BatchOracle>(
        &self,
        rtp: f64,
        order: RegionOrder,
        oracle: O,
    ) -> RebracketedOutcome {
        self.run_traced(rtp, order, oracle, &SpanTrace::disabled())
    }

    /// [`run`](Self::run), emitting each constituent search's events into
    /// `span`: one `SearchStarted`/`SearchFinished` pair for the STP walk
    /// and, when the fallback runs, a second pair for it.
    ///
    /// # Panics
    ///
    /// Panics if `rtp` lies outside the STP range (same contract as
    /// [`SearchUntilTrip::run`]).
    pub fn run_traced<O: BatchOracle>(
        &self,
        rtp: f64,
        order: RegionOrder,
        oracle: O,
        span: &SpanTrace,
    ) -> RebracketedOutcome {
        let mut scratch = SearchScratch::default();
        let r = self.run_traced_in(rtp, order, oracle, span, &mut scratch);
        RebracketedOutcome {
            outcome: r.summary.into_outcome(scratch.trace),
            rebracketed: r.rebracketed,
            authoritative_from: r.authoritative_from,
        }
    }

    /// [`run_traced`](Self::run_traced) with a caller-owned
    /// [`SearchScratch`]: the STP walk and (if it runs) the full-range
    /// fallback append to `scratch.trace` back to back, exactly the
    /// concatenated trace the allocating entry point builds, and only the
    /// copyable [`RebracketSummary`] is returned.
    ///
    /// # Panics
    ///
    /// Panics if `rtp` lies outside the STP range (same contract as
    /// [`SearchUntilTrip::run`]).
    pub fn run_traced_in<O: BatchOracle>(
        &self,
        rtp: f64,
        order: RegionOrder,
        mut oracle: O,
        span: &SpanTrace,
        scratch: &mut SearchScratch,
    ) -> RebracketSummary {
        let start = scratch.trace.len();
        let first = self.stp.run_traced_in(rtp, order, &mut oracle, span, scratch);
        let stp_trace = &scratch.trace[start..];
        let needs_rebracket = !first.converged
            || stp_trace.iter().any(|(_, p)| !p.is_valid())
            || !crate::outcome::trace_is_consistent(stp_trace, order, self.tolerance());
        if !needs_rebracket {
            return RebracketSummary {
                summary: first,
                rebracketed: false,
                authoritative_from: start,
            };
        }
        let authoritative_from = scratch.trace.len();
        let fresh = self.fallback.run_traced_in(order, &mut oracle, span, scratch);
        RebracketSummary {
            summary: fresh,
            rebracketed: true,
            authoritative_from,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::FnOracle;
    use cichar_units::ParamRange;

    fn range() -> ParamRange {
        ParamRange::new(80.0, 130.0).expect("valid")
    }

    fn search() -> RebracketingStp {
        RebracketingStp::new(
            SearchUntilTrip::new(range(), 1.0).with_refinement(0.1),
            SuccessiveApproximation::new(range(), 0.1),
        )
    }

    /// Drops the first `dropouts` strobes, then answers from a boundary.
    struct FlakyContact {
        boundary: f64,
        dropouts: usize,
        calls: usize,
    }

    impl crate::traits::PassFailOracle for FlakyContact {
        fn probe(&mut self, value: f64) -> Probe {
            self.calls += 1;
            if self.calls <= self.dropouts {
                Probe::Invalid
            } else if value <= self.boundary {
                Probe::Pass
            } else {
                Probe::Fail
            }
        }
    }

    impl BatchOracle for FlakyContact {}

    #[test]
    fn healthy_stp_is_passed_through_untouched() {
        let mut a = FnOracle::new(|v| v <= 108.2);
        let mut b = FnOracle::new(|v| v <= 108.2);
        let plain = search().stp.run(110.0, RegionOrder::PassBelowFail, &mut a);
        let wrapped = search().run(110.0, RegionOrder::PassBelowFail, &mut b);
        assert!(!wrapped.rebracketed);
        assert_eq!(wrapped.outcome, plain);
        assert_eq!(wrapped.authoritative_from, 0);
        assert!(wrapped.is_trustworthy(RegionOrder::PassBelowFail, 1.0));
    }

    #[test]
    fn dropout_at_rtp_falls_back_to_full_range() {
        let mut oracle = FlakyContact {
            boundary: 112.4,
            dropouts: 1,
            calls: 0,
        };
        let r = search().run(110.0, RegionOrder::PassBelowFail, &mut oracle);
        assert!(r.rebracketed);
        assert!(r.outcome.converged);
        let tp = r.outcome.trip_point.expect("fallback brackets");
        assert!((tp - 112.4).abs() <= 0.1, "tp = {tp}");
        // The dead probe is still in the trace (cost is honest) but not in
        // the authoritative slice.
        assert_eq!(r.authoritative_from, 1);
        assert!(r.outcome.has_invalid());
        assert!(r.is_trustworthy(RegionOrder::PassBelowFail, 1.0));
    }

    #[test]
    fn whole_window_one_state_rebrackets() {
        // RTP anchored wildly wrong (device passes everywhere near it and
        // all the way up): STP cannot bracket, fallback can't either here,
        // so the failure stays honest.
        let r = search().run(110.0, RegionOrder::PassBelowFail, FnOracle::new(|_| true));
        assert!(r.rebracketed);
        assert!(!r.outcome.converged);
        assert!(!r.is_trustworthy(RegionOrder::PassBelowFail, 1.0));
    }

    #[test]
    fn run_traced_in_matches_allocating_run() {
        // One healthy STP case and one fallback case, both through a
        // reused (dirty) scratch.
        let mut scratch = SearchScratch::default();
        for dropouts in [0usize, 1] {
            scratch.trace.clear();
            let mut a = FlakyContact {
                boundary: 112.4,
                dropouts,
                calls: 0,
            };
            let r = search().run_traced_in(
                110.0,
                RegionOrder::PassBelowFail,
                &mut a,
                &SpanTrace::disabled(),
                &mut scratch,
            );
            let mut b = FlakyContact {
                boundary: 112.4,
                dropouts,
                calls: 0,
            };
            let plain = search().run(110.0, RegionOrder::PassBelowFail, &mut b);
            assert_eq!(r.summary.trip_point, plain.outcome.trip_point);
            assert_eq!(r.summary.converged, plain.outcome.converged);
            assert_eq!(r.rebracketed, plain.rebracketed);
            assert_eq!(r.authoritative_from, plain.authoritative_from);
            assert_eq!(scratch.trace, plain.outcome.trace);
        }
    }

    #[test]
    fn inconsistent_trace_warrants_rebracket() {
        let s = search();
        // A converged outcome whose trace claims a pass two window steps
        // above a fail — physically impossible under eq. 3.
        let bad = SearchOutcome {
            trip_point: Some(112.0),
            converged: true,
            trace: vec![(110.0, Probe::Fail), (112.0, Probe::Pass)],
        };
        assert!(s.needs_rebracket(&bad, RegionOrder::PassBelowFail));
        assert!(!s.needs_rebracket(&bad, RegionOrder::PassAboveFail));
        let good = SearchOutcome {
            trip_point: Some(110.0),
            converged: true,
            trace: vec![(110.0, Probe::Pass), (111.0, Probe::Fail)],
        };
        assert!(!s.needs_rebracket(&good, RegionOrder::PassBelowFail));
    }
}
