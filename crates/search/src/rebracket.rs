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

use crate::outcome::SearchSummary;
use crate::scratch::SearchScratch;
use crate::stp::SearchUntilTrip;
use crate::successive::SuccessiveApproximation;
use crate::traits::{BatchOracle, RegionOrder};
use cichar_trace::SpanTrace;

/// The copyable result of a re-bracketing search: the probe trace lives
/// in the caller's [`SearchScratch`] (STP walk first, then the fallback if
/// one ran, so measurement cost stays honest), and the probes of the
/// search that produced the reported trip point are
/// `&scratch.trace[authoritative_from..]`.
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
/// use cichar_search::{FnOracle, RebracketingStp, RegionOrder, SearchScratch,
///     SearchUntilTrip, SuccessiveApproximation};
/// use cichar_trace::SpanTrace;
/// use cichar_units::ParamRange;
///
/// let range = ParamRange::new(80.0, 130.0)?;
/// let search = RebracketingStp::new(
///     SearchUntilTrip::new(range, 1.0).with_refinement(0.1),
///     SuccessiveApproximation::new(range, 0.1),
/// );
/// let mut oracle = FnOracle::new(|v| v <= 108.2);
/// let mut scratch = SearchScratch::default();
/// let r = search.run_traced_in(
///     110.0,
///     RegionOrder::PassBelowFail,
///     &mut oracle,
///     &SpanTrace::disabled(),
///     &mut scratch,
/// );
/// assert!(!r.rebracketed, "healthy STP needs no fallback");
/// assert!((r.summary.trip_point.expect("found") - 108.2).abs() <= 0.1);
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

    /// Runs STP around `rtp`; when the walk fails to bracket, a probe
    /// went silent, or its trace breaks the eq. 3/4 pass/fail ordering,
    /// re-brackets with a fresh full-range search over the same oracle.
    ///
    /// Each constituent search emits its events into `span`: one
    /// `SearchStarted`/`SearchFinished` pair for the STP walk and, when
    /// the fallback runs, a second pair for it. Both append their probes
    /// to `scratch.trace` back to back (the caller clears it between
    /// searches), and only the copyable [`RebracketSummary`] is returned.
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
    use crate::outcome::{trace_is_consistent, Probe};
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

    /// Runs the re-bracketing search untraced on a fresh scratch.
    fn run<O: BatchOracle>(oracle: O) -> (RebracketSummary, SearchScratch) {
        let mut scratch = SearchScratch::default();
        let r = search().run_traced_in(
            110.0,
            RegionOrder::PassBelowFail,
            oracle,
            &SpanTrace::disabled(),
            &mut scratch,
        );
        (r, scratch)
    }

    /// Whether the reported trip point can be trusted: the authoritative
    /// search converged and its own trace respects the region ordering.
    fn trustworthy(r: &RebracketSummary, scratch: &SearchScratch) -> bool {
        r.summary.converged
            && trace_is_consistent(
                &scratch.trace[r.authoritative_from..],
                RegionOrder::PassBelowFail,
                1.0,
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
        let plain = search().stp.run(110.0, RegionOrder::PassBelowFail, &mut a);
        let (r, scratch) = run(FnOracle::new(|v| v <= 108.2));
        assert!(!r.rebracketed);
        assert_eq!(r.summary.into_outcome(scratch.trace.clone()), plain);
        assert_eq!(r.authoritative_from, 0);
        assert!(trustworthy(&r, &scratch));
    }

    #[test]
    fn dropout_at_rtp_falls_back_to_full_range() {
        let (r, scratch) = run(FlakyContact {
            boundary: 112.4,
            dropouts: 1,
            calls: 0,
        });
        assert!(r.rebracketed);
        assert!(r.summary.converged);
        let tp = r.summary.trip_point.expect("fallback brackets");
        assert!((tp - 112.4).abs() <= 0.1, "tp = {tp}");
        // The dead probe is still in the trace (cost is honest) but not in
        // the authoritative slice.
        assert_eq!(r.authoritative_from, 1);
        assert_eq!(scratch.trace[0].1, Probe::Invalid);
        assert!(trustworthy(&r, &scratch));
    }

    #[test]
    fn whole_window_one_state_rebrackets() {
        // RTP anchored wildly wrong (device passes everywhere near it and
        // all the way up): STP cannot bracket, fallback can't either here,
        // so the failure stays honest.
        let (r, scratch) = run(FnOracle::new(|_| true));
        assert!(r.rebracketed);
        assert!(!r.summary.converged);
        assert!(!trustworthy(&r, &scratch));
    }

    #[test]
    fn reused_scratch_matches_a_fresh_one() {
        // One healthy STP case and one fallback case, both through a
        // reused (dirty) scratch.
        let mut scratch = SearchScratch::default();
        for dropouts in [0usize, 1] {
            scratch.trace.clear();
            let oracle = |dropouts| FlakyContact {
                boundary: 112.4,
                dropouts,
                calls: 0,
            };
            let r = search().run_traced_in(
                110.0,
                RegionOrder::PassBelowFail,
                oracle(dropouts),
                &SpanTrace::disabled(),
                &mut scratch,
            );
            let (fresh, fresh_scratch) = run(oracle(dropouts));
            assert_eq!(r, fresh);
            assert_eq!(r.rebracketed, dropouts > 0);
            assert_eq!(scratch.trace, fresh_scratch.trace);
        }
    }
}
