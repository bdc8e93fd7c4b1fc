//! Fault-tolerant probing: bounded retries, exponential backoff and
//! k-of-n majority voting over any [`PassFailOracle`].
//!
//! Real ATE glitches: probe contacts drop out, strobed verdicts flip,
//! channels stick. [`RobustOracle`] wraps a raw oracle with a recovery
//! ladder so the searches above it see clean verdicts where recovery is
//! possible, and an honest [`Probe::Invalid`] where it is not:
//!
//! 1. every strobe that returns [`Probe::Invalid`] is retried up to
//!    [`RetryPolicy::max_retries`] times, waiting an exponentially growing
//!    simulated settle time before each retry;
//! 2. with voting enabled, each probe request is answered by up to `n`
//!    strobes and decided when one verdict reaches `k` agreeing strobes
//!    (`2k > n`, so at most one side can win); a tie or too many dropouts
//!    yields [`Probe::Invalid`].
//!
//! All costs are tallied in [`RecoveryStats`] so the tester's ledger can
//! charge the simulated backoff time and count the retries.

use crate::outcome::Probe;
use crate::scratch::SearchScratch;
use crate::traits::{BatchOracle, PassFailOracle};
use cichar_trace::{SpanTrace, TraceEvent};
use serde::{Deserialize, Serialize};

/// How hard a [`RobustOracle`] fights for a verdict.
///
/// The default — 3 retries, 100 µs initial backoff, no voting — recovers
/// transient dropouts while remaining bit-identical to the raw oracle on a
/// fault-free tester (one strobe per probe request, no extra randomness).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    max_retries: usize,
    backoff_base_us: f64,
    vote: Option<(usize, usize)>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::new(3, 100.0)
    }
}

impl RetryPolicy {
    /// A policy retrying each silent strobe up to `max_retries` times, the
    /// first retry after `backoff_base_us` simulated microseconds and each
    /// further retry after double the previous wait.
    ///
    /// # Panics
    ///
    /// Panics if `backoff_base_us` is negative or not finite.
    pub fn new(max_retries: usize, backoff_base_us: f64) -> Self {
        assert!(
            backoff_base_us.is_finite() && backoff_base_us >= 0.0,
            "invalid backoff base {backoff_base_us}"
        );
        Self {
            max_retries,
            backoff_base_us,
            vote: None,
        }
    }

    /// A do-nothing policy: no retries, no voting — the wrapped oracle is
    /// consulted exactly once per probe request.
    pub fn none() -> Self {
        Self::new(0, 0.0)
    }

    /// Enables k-of-n majority voting on every probe request.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= k <= n` and `2k > n` (a strict majority, so
    /// pass and fail cannot both reach `k`).
    pub fn with_vote(mut self, k: usize, n: usize) -> Self {
        assert!(
            k >= 1 && k <= n && 2 * k > n,
            "vote {k}-of-{n} is not a strict majority"
        );
        self.vote = Some((k, n));
        self
    }

    /// The per-strobe retry budget.
    pub fn max_retries(&self) -> usize {
        self.max_retries
    }

    /// The first retry's simulated settle time, in microseconds.
    pub fn backoff_base_us(&self) -> f64 {
        self.backoff_base_us
    }

    /// The `(k, n)` voting scheme, if enabled.
    pub fn vote(&self) -> Option<(usize, usize)> {
        self.vote
    }
}

/// Cost and outcome tally of a [`RobustOracle`]'s recovery work, to be
/// charged back to the tester's measurement ledger.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct RecoveryStats {
    /// Strobes re-issued after a silent (dropout) strobe.
    pub retries: u64,
    /// Extra strobes spent on majority voting beyond the first.
    pub vote_strobes: u64,
    /// Probe requests whose final answer was still [`Probe::Invalid`]
    /// after the full recovery ladder.
    pub dropouts: u64,
    /// Total simulated backoff settle time, in microseconds.
    pub backoff_us: f64,
}

impl RecoveryStats {
    /// Accumulates another tally into this one.
    pub fn merge(&mut self, other: &RecoveryStats) {
        self.retries += other.retries;
        self.vote_strobes += other.vote_strobes;
        self.dropouts += other.dropouts;
        self.backoff_us += other.backoff_us;
    }
}

/// A [`PassFailOracle`] decorator applying a [`RetryPolicy`] to every
/// probe request.
///
/// # Examples
///
/// ```
/// use cichar_search::{
///     PassFailOracle, Probe, RetryPolicy, RobustOracle, ScriptedOracle, SearchScratch,
/// };
///
/// // A probe contact that drops out once, then answers.
/// let flaky = ScriptedOracle::new(vec![Probe::Invalid, Probe::Pass]);
/// let mut scratch = SearchScratch::default();
/// let mut robust = RobustOracle::from_scratch(flaky, RetryPolicy::default(), &mut scratch);
/// assert_eq!(robust.probe(1.0), Probe::Pass);
/// let (_, stats) = robust.recycle_parts(&mut scratch);
/// assert_eq!(stats.retries, 1);
/// assert!(stats.backoff_us > 0.0);
/// ```
#[derive(Debug)]
pub struct RobustOracle<O> {
    inner: O,
    policy: RetryPolicy,
    stats: RecoveryStats,
    trace: SpanTrace,
    /// Value/verdict buffers for the vote's mandatory upfront batch,
    /// borrowed from a [`SearchScratch`] and reused across probe requests
    /// and searches.
    vote_values: Vec<f64>,
    vote_probes: Vec<Probe>,
}

impl<O: PassFailOracle> RobustOracle<O> {
    /// Wraps `inner` with the given recovery policy, borrowing the vote
    /// buffers from a [`SearchScratch`] so repeated searches reuse one
    /// allocation. Hand the buffers back with [`Self::recycle_parts`]
    /// when the search is done.
    pub fn from_scratch(inner: O, policy: RetryPolicy, scratch: &mut SearchScratch) -> Self {
        let mut vote_values = std::mem::take(&mut scratch.vote_values);
        vote_values.clear();
        let mut vote_probes = std::mem::take(&mut scratch.vote_probes);
        vote_probes.clear();
        Self {
            inner,
            policy,
            stats: RecoveryStats::default(),
            trace: SpanTrace::disabled(),
            vote_values,
            vote_probes,
        }
    }

    /// Attaches a trace span; recovery work then emits `RetryScheduled`
    /// and `VoteResolved` events into it.
    pub fn with_trace(mut self, span: SpanTrace) -> Self {
        self.trace = span;
        self
    }

    /// Consumes the wrapper, returning the vote buffers to `scratch` and
    /// the inner oracle (to reclaim *its* buffers too) and the final
    /// recovery tally to the caller, without dropping a single
    /// allocation.
    pub fn recycle_parts(self, scratch: &mut SearchScratch) -> (O, RecoveryStats) {
        scratch.vote_values = self.vote_values;
        scratch.vote_probes = self.vote_probes;
        (self.inner, self.stats)
    }

    /// Applies the retry ladder to an already-issued strobe's verdict:
    /// re-issue silent strobes up to the retry budget, doubling the
    /// simulated settle wait each time.
    fn settle(&mut self, value: f64, first: Probe) -> Probe {
        let mut verdict = first;
        let mut attempt = 0u32;
        while verdict == Probe::Invalid && (attempt as usize) < self.policy.max_retries {
            let backoff_us = self.policy.backoff_base_us * 2f64.powi(attempt.min(60) as i32);
            self.stats.backoff_us += backoff_us;
            self.stats.retries += 1;
            self.trace.emit(TraceEvent::RetryScheduled {
                attempt: u64::from(attempt) + 1,
                backoff_us,
            });
            verdict = self.inner.probe(value);
            attempt += 1;
        }
        verdict
    }

    /// One strobe through the retry ladder.
    fn strobe(&mut self, value: f64) -> Probe {
        let first = self.inner.probe(value);
        self.settle(value, first)
    }
}

impl<O: BatchOracle> PassFailOracle for RobustOracle<O> {
    fn probe(&mut self, value: f64) -> Probe {
        let verdict = match self.policy.vote {
            None => self.strobe(value),
            Some((k, n)) => {
                let (mut passes, mut fails) = (0usize, 0usize);
                let mut strobes = 0usize;
                let mut decided = Probe::Invalid;
                // No vote can resolve before min(k, n−k+1) strobes: a
                // verdict needs k agreeing strobes, and undecidability
                // needs n−k+1 silent ones. That mandatory prefix is
                // issued as one batch so the tester amortizes its
                // bookkeeping; silent strobes in the batch still run
                // their retry ladder, in strobe order, before tallying.
                let upfront = k.min(n - k + 1);
                self.vote_values.clear();
                self.vote_values.resize(upfront, value);
                self.vote_probes.clear();
                self.inner
                    .probe_batch_into(&self.vote_values, &mut self.vote_probes);
                let mut served = 0usize;
                for i in 0..n {
                    if i > 0 {
                        self.stats.vote_strobes += 1;
                    }
                    strobes += 1;
                    // Upfront verdicts are consumed in strobe order;
                    // beyond them, fresh scalar strobes.
                    let verdict = if served < self.vote_probes.len() {
                        let first = self.vote_probes[served];
                        served += 1;
                        self.settle(value, first)
                    } else {
                        self.strobe(value)
                    };
                    match verdict {
                        Probe::Pass => passes += 1,
                        Probe::Fail => fails += 1,
                        Probe::Invalid => {}
                    }
                    if passes >= k {
                        decided = Probe::Pass;
                        break;
                    }
                    if fails >= k {
                        decided = Probe::Fail;
                        break;
                    }
                    let remaining = n - i - 1;
                    if passes + remaining < k && fails + remaining < k {
                        // Neither side can reach k any more: tie or too
                        // many dropouts.
                        break;
                    }
                }
                self.trace.emit_with(|| TraceEvent::VoteResolved {
                    passes: passes as u64,
                    fails: fails as u64,
                    invalids: (strobes - passes - fails) as u64,
                    verdict: decided.into(),
                });
                decided
            }
        };
        if verdict == Probe::Invalid {
            self.stats.dropouts += 1;
        }
        verdict
    }
}

/// Each batched value runs the full recovery ladder in order (votes are
/// already batched internally, so the default scalar loop is exact).
impl<O: BatchOracle> BatchOracle for RobustOracle<O> {}

/// A test oracle replaying a fixed verdict script; once the script is
/// exhausted the last verdict repeats.
///
/// Used throughout the robustness tests to stage exact fault sequences —
/// something a closure-backed [`FnOracle`](crate::FnOracle) cannot express
/// because it only answers pass or fail.
#[derive(Debug, Clone)]
pub struct ScriptedOracle {
    script: Vec<Probe>,
    served: usize,
}

impl ScriptedOracle {
    /// Creates an oracle that replays `script` in order.
    ///
    /// # Panics
    ///
    /// Panics if the script is empty.
    pub fn new(script: Vec<Probe>) -> Self {
        assert!(!script.is_empty(), "scripted oracle needs at least one verdict");
        Self { script, served: 0 }
    }

    /// How many probes have been served.
    pub fn served(&self) -> usize {
        self.served
    }
}

impl PassFailOracle for ScriptedOracle {
    fn probe(&mut self, _value: f64) -> Probe {
        let verdict = *self
            .script
            .get(self.served)
            .unwrap_or_else(|| self.script.last().expect("non-empty script"));
        self.served += 1;
        verdict
    }
}

impl BatchOracle for ScriptedOracle {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::FnOracle;

    /// Wraps `inner` on a fresh scratch.
    fn robust<O: BatchOracle>(inner: O, policy: RetryPolicy) -> RobustOracle<O> {
        RobustOracle::from_scratch(inner, policy, &mut SearchScratch::default())
    }

    /// The inner oracle and the final recovery tally.
    fn finish<O: BatchOracle>(robust: RobustOracle<O>) -> (O, RecoveryStats) {
        robust.recycle_parts(&mut SearchScratch::default())
    }

    #[test]
    fn passthrough_policy_is_transparent() {
        let mut oracle = robust(FnOracle::new(|v| v < 5.0), RetryPolicy::none());
        assert_eq!(oracle.probe(1.0), Probe::Pass);
        assert_eq!(oracle.probe(9.0), Probe::Fail);
        let (inner, stats) = finish(oracle);
        assert_eq!(inner.probes(), 2, "exactly one strobe per request");
        assert_eq!(stats, RecoveryStats::default());
    }

    #[test]
    fn retry_recovers_single_dropout() {
        let flaky = ScriptedOracle::new(vec![Probe::Invalid, Probe::Fail]);
        let mut oracle = robust(flaky, RetryPolicy::new(3, 50.0));
        assert_eq!(oracle.probe(0.0), Probe::Fail);
        let (_, stats) = finish(oracle);
        assert_eq!(stats.retries, 1);
        assert_eq!(stats.dropouts, 0);
        assert_eq!(stats.backoff_us, 50.0);
    }

    #[test]
    fn backoff_doubles_each_retry_until_budget_exhausted() {
        let dead = ScriptedOracle::new(vec![Probe::Invalid]);
        let mut oracle = robust(dead, RetryPolicy::new(3, 100.0));
        assert_eq!(oracle.probe(0.0), Probe::Invalid);
        let (_, stats) = finish(oracle);
        assert_eq!(stats.retries, 3);
        assert_eq!(stats.dropouts, 1, "final verdict unavailable");
        assert_eq!(stats.backoff_us, 100.0 + 200.0 + 400.0);
    }

    #[test]
    fn vote_outvotes_single_flip() {
        // 2-of-3: one flipped verdict in three strobes loses the vote.
        let flaky = ScriptedOracle::new(vec![Probe::Pass, Probe::Fail, Probe::Pass]);
        let mut oracle = robust(flaky, RetryPolicy::none().with_vote(2, 3));
        assert_eq!(oracle.probe(0.0), Probe::Pass);
        let (_, stats) = finish(oracle);
        assert_eq!(stats.vote_strobes, 2);
        assert_eq!(stats.dropouts, 0);
    }

    #[test]
    fn vote_exits_early_once_majority_is_reached() {
        let clean = ScriptedOracle::new(vec![Probe::Fail]);
        let mut oracle = robust(clean, RetryPolicy::none().with_vote(2, 3));
        assert_eq!(oracle.probe(0.0), Probe::Fail);
        let (inner, stats) = finish(oracle);
        assert_eq!(inner.served(), 2, "third strobe is unnecessary");
        assert_eq!(stats.vote_strobes, 1);
    }

    #[test]
    fn vote_tie_yields_invalid() {
        // Pass, fail, dropout: neither side reaches k = 2.
        let torn = ScriptedOracle::new(vec![Probe::Pass, Probe::Fail, Probe::Invalid]);
        let mut oracle = robust(torn, RetryPolicy::none().with_vote(2, 3));
        assert_eq!(oracle.probe(0.0), Probe::Invalid);
        assert_eq!(finish(oracle).1.dropouts, 1);
    }

    #[test]
    fn vote_all_dropout_yields_invalid() {
        let dead = ScriptedOracle::new(vec![Probe::Invalid]);
        let mut oracle = robust(dead, RetryPolicy::new(1, 10.0).with_vote(2, 3));
        assert_eq!(oracle.probe(0.0), Probe::Invalid);
        let (_, stats) = finish(oracle);
        assert_eq!(stats.dropouts, 1, "one unanswerable probe request");
        assert!(stats.retries >= 2, "each voting strobe ran its retry ladder");
    }

    #[test]
    fn vote_aborts_once_undecidable() {
        // First two of five strobes drop out with k = 3: still decidable.
        // After the third dropout no side can reach 3 — stop strobing.
        let dead = ScriptedOracle::new(vec![Probe::Invalid]);
        let mut oracle = robust(dead, RetryPolicy::none().with_vote(3, 5));
        assert_eq!(oracle.probe(0.0), Probe::Invalid);
        let (inner, _) = finish(oracle);
        assert_eq!(inner.served(), 3, "stops when 3 dropouts make k unreachable");
    }

    #[test]
    #[should_panic(expected = "not a strict majority")]
    fn rejects_non_majority_vote() {
        let _ = RetryPolicy::default().with_vote(2, 4);
    }

    #[test]
    #[should_panic(expected = "not a strict majority")]
    fn rejects_zero_vote_threshold() {
        let _ = RetryPolicy::default().with_vote(0, 3);
    }

    #[test]
    fn from_scratch_votes_identically_and_recycles_buffers() {
        let mut scratch = SearchScratch::default();
        let policy = RetryPolicy::none().with_vote(2, 3);
        // A fresh scratch per construction.
        let flaky = ScriptedOracle::new(vec![Probe::Pass, Probe::Fail, Probe::Pass]);
        let mut plain = robust(flaky, policy);
        let plain_verdict = plain.probe(0.0);
        let (_, plain_stats) = finish(plain);
        // One scratch, twice, recycling in between.
        for _ in 0..2 {
            let flaky = ScriptedOracle::new(vec![Probe::Pass, Probe::Fail, Probe::Pass]);
            let mut oracle = RobustOracle::from_scratch(flaky, policy, &mut scratch);
            assert_eq!(oracle.probe(0.0), plain_verdict);
            let (_, stats) = oracle.recycle_parts(&mut scratch);
            assert_eq!(stats, plain_stats);
        }
        assert!(
            scratch.vote_values.capacity() >= 2,
            "recycled buffers keep their capacity"
        );
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut a = RecoveryStats {
            retries: 1,
            vote_strobes: 2,
            dropouts: 3,
            backoff_us: 4.0,
        };
        a.merge(&RecoveryStats {
            retries: 10,
            vote_strobes: 20,
            dropouts: 30,
            backoff_us: 40.0,
        });
        assert_eq!(a.retries, 11);
        assert_eq!(a.vote_strobes, 22);
        assert_eq!(a.dropouts, 33);
        assert_eq!(a.backoff_us, 44.0);
    }
}
