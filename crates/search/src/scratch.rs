//! Per-worker scratch buffers for allocation-free searching.
//!
//! Every trip-point search needs a handful of small vectors: the probe
//! trace, the relaxation-forces buffer the ATE strobes through, vote
//! tallies for k-of-n recovery and the speculative-bisection verdict
//! batch. Allocating them per search costs real throughput at wafer
//! scale (10^5 searches per lot), so a [`SearchScratch`] owns them all
//! and is reused across every search a worker runs: buffers are cleared,
//! never dropped, and grow to the high-water mark of the workload.
//!
//! The `*_in` search entry points ([`SearchUntilTrip::run_traced_in`],
//! [`SuccessiveApproximation::run_traced_in`],
//! [`RebracketingStp::run_traced_in`]) **append** to [`SearchScratch::trace`]
//! without clearing it — the caller owns the clear, which lets a
//! re-bracketing search concatenate its STP walk and full-range fallback
//! into one contiguous trace for free.
//!
//! [`SearchUntilTrip::run_traced_in`]: crate::SearchUntilTrip::run_traced_in
//! [`SuccessiveApproximation::run_traced_in`]: crate::SuccessiveApproximation::run_traced_in
//! [`RebracketingStp::run_traced_in`]: crate::RebracketingStp::run_traced_in

use crate::outcome::Probe;
use cichar_units::ParamKind;

/// Reusable buffers for one search worker.
///
/// A scratch is plain data: it carries no results between searches, only
/// capacity. Any content left by a previous search is overwritten or
/// cleared by the next `*_in` call (the trace is cleared by the *caller*,
/// everything else by the consuming search), so a dirty scratch can never
/// leak verdicts between dies.
///
/// # Examples
///
/// ```
/// use cichar_search::{FnOracle, RegionOrder, SearchScratch, SearchUntilTrip};
/// use cichar_trace::SpanTrace;
/// use cichar_units::ParamRange;
///
/// let range = ParamRange::new(80.0, 130.0)?;
/// let stp = SearchUntilTrip::new(range, 1.0);
/// let span = SpanTrace::disabled();
/// let mut scratch = SearchScratch::default();
/// for boundary in [108.2, 112.9] {
///     scratch.trace.clear();
///     let mut oracle = FnOracle::new(|v| v <= boundary);
///     let order = RegionOrder::PassBelowFail;
///     let summary = stp.run_traced_in(110.0, order, &mut oracle, &span, &mut scratch);
///     assert!(summary.converged);
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Default)]
pub struct SearchScratch {
    /// The probe trace of the current search: `(value, verdict)` in probe
    /// order. `*_in` searches append; the caller clears between searches.
    pub trace: Vec<(f64, Probe)>,
    /// Relaxation-forces buffer for the ATE's trip oracle: the §4 relax
    /// forces plus one trailing strobe slot, rebuilt per search but never
    /// reallocated.
    pub forces: Vec<(ParamKind, f64)>,
    /// Repeated probe values for a k-of-n vote's mandatory upfront batch.
    pub vote_values: Vec<f64>,
    /// Verdicts of the vote's upfront batch, consumed in strobe order.
    pub vote_probes: Vec<Probe>,
    /// Verdict buffer for speculative bisection (midpoint + both
    /// pre-issued children of the next level).
    pub spec: Vec<Probe>,
}

impl SearchScratch {
    /// A scratch with empty (unallocated) buffers — identical to
    /// `Default`, provided for call sites that want a named constructor.
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::FnOracle;
    use crate::RegionOrder;
    use cichar_trace::SpanTrace;
    use cichar_units::ParamRange;

    #[test]
    fn default_scratch_is_empty_and_unallocated() {
        let s = SearchScratch::default();
        assert!(s.trace.is_empty() && s.trace.capacity() == 0);
        assert!(s.forces.is_empty() && s.forces.capacity() == 0);
        assert!(s.vote_values.is_empty() && s.vote_values.capacity() == 0);
        assert!(s.vote_probes.is_empty() && s.vote_probes.capacity() == 0);
        assert!(s.spec.is_empty() && s.spec.capacity() == 0);
    }

    #[test]
    fn reused_scratch_matches_fresh_scratch_run() {
        // The "dirty scratch can't leak state" invariant at the unit
        // level: a scratch that just ran one search produces the same
        // outcome as a fresh one on the next search.
        let range = ParamRange::new(80.0, 130.0).expect("valid");
        let stp = crate::SearchUntilTrip::new(range, 1.0).with_refinement(0.1);
        let span = SpanTrace::disabled();
        let run = |boundary: f64, scratch: &mut SearchScratch| {
            let oracle = FnOracle::new(move |v| v <= boundary);
            stp.run_traced_in(110.0, RegionOrder::PassBelowFail, oracle, &span, scratch)
        };
        let mut dirty = SearchScratch::default();
        let _ = run(93.0, &mut dirty);
        dirty.trace.clear();
        let reused = run(112.5, &mut dirty);
        let mut fresh = SearchScratch::default();
        let clean = run(112.5, &mut fresh);
        assert_eq!(reused, clean);
        assert_eq!(dirty.trace, fresh.trace);
    }
}
