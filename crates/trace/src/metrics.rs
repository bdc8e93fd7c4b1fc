//! A lock-free metrics registry with deterministic snapshots.
//!
//! Counters and fixed-bucket histograms are plain `AtomicU64`s updated with
//! relaxed ordering — cheap enough for hot paths, and exact because every
//! update is an integer increment: integer addition commutes, so the final
//! totals are independent of scheduling. Anything that is a duration is
//! accumulated in integer nanoseconds for the same reason (summing `f64`
//! microseconds would make the total depend on absorb order).
//!
//! A registry holds its histogram buckets inline, so each enabled span
//! carries one as its counter delta without touching the heap. How an
//! update adds is the fold's type parameter ([`Add`]): a registry any
//! thread may write uses an atomic read-modify-write, a span's delta —
//! written by one thread at a time — a plain load and store.

use crate::event::{FaultKind, TraceEvent};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Relaxed is enough: counters are independent monotone sums, and every
/// snapshot happens-after the updates it observes through the surrounding
/// join/merge structure.
const ORDER: Ordering = Ordering::Relaxed;

/// How a fold adds `n` to a counter.
pub(crate) trait Add {
    fn add(counter: &AtomicU64, n: u64);
}

/// `fetch_add`, a locked read-modify-write: exact whatever threads write.
/// A tracer's campaign registry needs it: [`crate::Tracer::emit_campaign`]
/// is public on a `Sync` handle, and absorb and `summarize` write the
/// same registry.
pub(crate) enum Atomic {}

impl Add for Atomic {
    #[inline]
    fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, ORDER);
    }
}

/// A relaxed load plus a store, with no lock prefix: exact only while a
/// single thread writes the counter, as for a span's delta (its clones
/// report from one thread at a time, its test's worker, and the finished
/// span reaches the absorbing thread through the join that ends the
/// parallel work).
pub(crate) enum SingleWriter {}

impl Add for SingleWriter {
    #[inline]
    fn add(counter: &AtomicU64, n: u64) {
        counter.store(counter.load(ORDER).wrapping_add(n), ORDER);
    }
}

/// Bucket slots a [`Histogram`] holds inline: the longest bound list
/// (ten bounds) plus its overflow bucket.
const MAX_BUCKETS: usize = 11;

/// A fixed-bucket histogram: `bounds[i]` is the inclusive upper bound of
/// bucket `i`, with one final overflow bucket after the last bound.
///
/// The buckets live inline, so a registry allocates nothing: every
/// counting span carries one.
#[derive(Debug)]
pub(crate) struct Histogram {
    bounds: &'static [u64],
    /// Per-bucket counts; only the first `bounds.len() + 1` are used.
    counts: [AtomicU64; MAX_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    pub(crate) fn new(bounds: &'static [u64]) -> Self {
        assert!(bounds.len() < MAX_BUCKETS, "{} bounds exceed the inline buckets", bounds.len());
        Self {
            bounds,
            counts: [const { AtomicU64::new(0) }; MAX_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    #[inline]
    pub(crate) fn observe<A: Add>(&self, value: u64) {
        let bucket = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        A::add(&self.counts[bucket], 1);
        A::add(&self.count, 1);
        A::add(&self.sum, value);
    }

    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.to_vec(),
            counts: self.counts[..=self.bounds.len()]
                .iter()
                .map(|c| c.load(ORDER))
                .collect(),
            count: self.count.load(ORDER),
            sum: self.sum.load(ORDER),
        }
    }

    /// Moves `delta`'s observations into `self`, leaving `delta` empty.
    fn absorb(&self, delta: &Histogram) {
        debug_assert_eq!(self.bounds, delta.bounds, "histogram bucket layouts differ");
        if delta.count.load(ORDER) == 0 {
            return;
        }
        for (total, part) in self.counts.iter().zip(&delta.counts) {
            move_count(total, part);
        }
        move_count(&self.count, &delta.count);
        move_count(&self.sum, &delta.sum);
    }
}

/// An immutable histogram state: bucket bounds, per-bucket counts (one
/// extra overflow bucket), total observation count and integer sum.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Inclusive upper bounds of the fixed buckets.
    pub bounds: Vec<u64>,
    /// Per-bucket observation counts; `counts.len() == bounds.len() + 1`
    /// (the last bucket collects overflow).
    pub counts: Vec<u64>,
    /// Total number of observations.
    pub count: u64,
    /// Sum of all observed values (native integer units).
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Accumulates another snapshot taken with the same bounds.
    ///
    /// # Panics
    ///
    /// Panics if the bucket layouts differ.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if self.bounds.is_empty() && self.counts.is_empty() {
            *self = other.clone();
            return;
        }
        assert_eq!(self.bounds, other.bounds, "histogram bucket layouts differ");
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Whether the per-bucket counts add up to the total count.
    pub fn is_consistent(&self) -> bool {
        self.counts.iter().sum::<u64>() == self.count
    }
}

/// Declares every counter and histogram once: its name, its doc line
/// (which doubles as the OpenMetrics HELP text) and its place in the live
/// [`MetricsRegistry`], the serialized [`MetricsSnapshot`], `merge` and
/// the exposition tables.
macro_rules! registry {
    (
        $(#[doc = $doc:literal] $name:ident),+ $(,)?
        @defaulted $(#[doc = $ddoc:literal] $dname:ident),+ $(,)?
        @histograms $(#[doc = $hdoc:literal] $hist:ident as $family:literal in $bounds:expr),+ $(,)?
    ) => {
        /// The live counter set (see [`MetricsSnapshot`] for meanings).
        #[derive(Debug, Default)]
        struct Counters {
            $(#[doc = $doc] $name: AtomicU64,)+
            $(#[doc = $ddoc] $dname: AtomicU64,)+
        }

        /// The live, lock-free metrics registry behind a [`Tracer`](crate::Tracer).
        #[derive(Debug)]
        pub struct MetricsRegistry {
            counters: Counters,
            $($hist: Histogram,)+
        }

        impl MetricsRegistry {
            /// An empty registry with the standard bucket layouts.
            pub fn new() -> Self {
                Self {
                    counters: Counters::default(),
                    $($hist: Histogram::new($bounds),)+
                }
            }

            /// Moves every counter and histogram of `delta` into `self`,
            /// leaving `delta` zeroed: how [`Tracer::absorb`](crate::Tracer::absorb)
            /// adds a span's counts to the campaign's.
            pub(crate) fn absorb(&self, delta: &MetricsRegistry) {
                let (c, d) = (&self.counters, &delta.counters);
                $(move_count(&c.$name, &d.$name);)+
                $(move_count(&c.$dname, &d.$dname);)+
                $(self.$hist.absorb(&delta.$hist);)+
            }

            /// A deterministic snapshot of every counter and histogram.
            pub fn snapshot(&self) -> MetricsSnapshot {
                let c = &self.counters;
                MetricsSnapshot {
                    $($name: c.$name.load(ORDER),)+
                    $($dname: c.$dname.load(ORDER),)+
                    $($hist: self.$hist.snapshot(),)+
                }
            }
        }

        /// A deterministic, serializable snapshot of the metrics registry.
        ///
        /// Two seeded runs of the same campaign produce equal snapshots
        /// regardless of thread count: every field is an integer total, and
        /// totals of integer increments are schedule-independent.
        #[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
        pub struct MetricsSnapshot {
            $(#[doc = $doc] pub $name: u64,)+
            // Counters registered after manifests were first committed
            // deserialize as zero when a baseline predates them.
            $(#[doc = $ddoc] #[serde(default)] pub $dname: u64,)+
            $(#[doc = $hdoc] pub $hist: HistogramSnapshot,)+
        }

        impl MetricsSnapshot {
            /// Accumulates another snapshot — the same way ledgers merge
            /// across worker shards: plain integer sums, so the result is
            /// independent of merge order.
            pub fn merge(&mut self, other: &MetricsSnapshot) {
                $(self.$name += other.$name;)+
                $(self.$dname += other.$dname;)+
                $(self.$hist.merge(&other.$hist);)+
            }

            /// Every counter as `(name, help, value)`, in registration
            /// order: the table the OpenMetrics writer walks.
            pub(crate) fn counters(&self) -> impl Iterator<Item = (&'static str, &'static str, u64)> {
                [
                    $((stringify!($name), $doc.trim(), self.$name),)+
                    $((stringify!($dname), $ddoc.trim(), self.$dname),)+
                ]
                .into_iter()
            }

            /// Every histogram as `(family, help, snapshot)`: the table the
            /// OpenMetrics writer and [`Self::check_invariants`] walk.
            pub(crate) fn histograms(
                &self,
            ) -> impl Iterator<Item = (&'static str, &'static str, &HistogramSnapshot)> {
                [$(($family, $hdoc.trim(), &self.$hist),)+].into_iter()
            }
        }
    };
}

registry! {
    /// Probe requests that produced a verdict (cached or measured).
    probes_resolved,
    /// Probe requests answered from the oracle memo cache.
    probes_cached,
    /// Probe requests issued to the tester as physical measurements.
    probes_issued,
    /// Issued probes that were pre-issued speculatively (subset of issued; subtracting them yields the honest eq. 1 cost).
    probes_speculative,
    /// Trip-point searches started.
    searches_started,
    /// Trip-point searches finished.
    searches_finished,
    /// Finished searches that converged on a trip point.
    searches_converged,
    /// STP window-walk iterations taken (eqs. 3/4).
    search_steps,
    /// Pass/fail brackets established.
    brackets,
    /// Strobes re-issued after a silent strobe.
    retries,
    /// k-of-n majority votes resolved.
    vote_rounds,
    /// Measurement points quarantined after recovery failed.
    quarantined,
    /// Probe-contact dropouts injected by the fault model.
    faults_dropout,
    /// Transient verdict flips injected by the fault model.
    faults_flip,
    /// Stuck-channel replays injected by the fault model.
    faults_stuck,
    /// Session-abort bursts injected by the fault model.
    faults_abort,
    /// GA generations evaluated.
    ga_generations,
    /// Committee learning rounds finished.
    committee_epochs,
    /// Campaign phase transitions.
    phases,
    @defaulted
    /// Hung-strobe stalls injected by the fault model.
    faults_stall,
    /// Stall-watchdog firings: per-site touchdown budgets that expired.
    watchdog_timeouts,
    /// Site health circuit breakers latched open.
    breaker_trips,
    /// Health alarms raised by the live telemetry engine.
    alarms_raised,
    /// Health alarms cleared by the live telemetry engine.
    alarms_cleared,
    @histograms
    /// Probe requests consumed per finished trip-point search.
    hist_probes_per_search as "probes_per_search" in PROBE_BOUNDS,
    /// STP window-walk steps taken per finished search.
    hist_search_steps as "search_steps_per_search" in STEP_BOUNDS,
    /// Retry-ladder depth reached per scheduled retry.
    hist_retry_depth as "retry_depth" in RETRY_BOUNDS,
    /// Simulated backoff settle time per retry, in nanoseconds.
    hist_backoff_ns as "backoff_ns" in BACKOFF_BOUNDS,
}

impl MetricsSnapshot {
    /// The invariants every snapshot of a completed campaign satisfies.
    /// Returns the first violated invariant's description, or `None`.
    pub fn check_invariants(&self) -> Option<String> {
        if self.probes_resolved != self.probes_cached + self.probes_issued {
            return Some(format!(
                "probes_resolved {} != cached {} + issued {}",
                self.probes_resolved, self.probes_cached, self.probes_issued
            ));
        }
        if self.probes_speculative > self.probes_issued {
            return Some(format!(
                "probes_speculative {} > issued {}",
                self.probes_speculative, self.probes_issued
            ));
        }
        if self.searches_finished != self.hist_probes_per_search.count {
            return Some(format!(
                "searches_finished {} != probes-per-search observations {}",
                self.searches_finished, self.hist_probes_per_search.count
            ));
        }
        if self.searches_finished != self.hist_search_steps.count {
            return Some(format!(
                "searches_finished {} != search-steps observations {}",
                self.searches_finished, self.hist_search_steps.count
            ));
        }
        if self.search_steps != self.hist_search_steps.sum {
            return Some(format!(
                "search_steps {} != search-steps histogram sum {}",
                self.search_steps, self.hist_search_steps.sum
            ));
        }
        if self.retries != self.hist_retry_depth.count {
            return Some(format!(
                "retries {} != retry-depth observations {}",
                self.retries, self.hist_retry_depth.count
            ));
        }
        if self.retries != self.hist_backoff_ns.count {
            return Some(format!(
                "retries {} != backoff observations {}",
                self.retries, self.hist_backoff_ns.count
            ));
        }
        for (name, _, hist) in self.histograms() {
            if !hist.is_consistent() {
                return Some(format!("histogram {name} buckets do not sum to its count"));
            }
        }
        None
    }

    /// Injected faults of every kind: the top of the recovery funnel.
    pub fn faults(&self) -> u64 {
        self.faults_dropout + self.faults_flip + self.faults_stuck + self.faults_abort + self.faults_stall
    }
}

/// Bucket bounds: probes consumed per trip-point search.
const PROBE_BOUNDS: &[u64] = &[2, 4, 6, 8, 12, 16, 24, 32, 48, 64];
/// Bucket bounds: STP walk steps per search.
const STEP_BOUNDS: &[u64] = &[1, 2, 3, 4, 6, 8, 12, 16, 24];
/// Bucket bounds: retry-ladder depth.
const RETRY_BOUNDS: &[u64] = &[1, 2, 3, 4, 6, 8];
/// Bucket bounds: per-retry backoff in nanoseconds (50 µs … 12.8 ms).
const BACKOFF_BOUNDS: &[u64] = &[
    50_000, 100_000, 200_000, 400_000, 800_000, 1_600_000, 3_200_000, 12_800_000,
];

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// Folds one event into the counters and histograms: the single
    /// derivation of metrics from events. Every enabled span folds its
    /// events into a registry of its own as they are emitted (the delta
    /// [`Tracer::absorb`](crate::Tracer::absorb) adds to the campaign's),
    /// the tracer folds its campaign-scoped events straight into its own,
    /// and offline analysis folds a recorded stream.
    ///
    /// `steps_in_search` counts STP steps since the last
    /// [`TraceEvent::SearchStarted`]; keep one per span (searches within
    /// a span are strictly sequential), starting at zero.
    pub fn observe(&self, event: &TraceEvent, steps_in_search: &mut u64) {
        self.fold::<Atomic>(event, steps_in_search);
    }

    /// The body of [`Self::observe`], generic over how it adds. Always
    /// inlined, so at a span's emit site, where the event is built, the
    /// match folds away to the one variant's counters.
    #[inline(always)]
    pub(crate) fn fold<A: Add>(&self, event: &TraceEvent, steps_in_search: &mut u64) {
        let c = &self.counters;
        match event {
            TraceEvent::CampaignPhaseChanged { .. } => A::add(&c.phases, 1),
            TraceEvent::ProbeIssued { speculative, .. } => {
                A::add(&c.probes_issued, 1);
                if *speculative {
                    A::add(&c.probes_speculative, 1);
                }
            }
            TraceEvent::ProbeResolved { cached, .. } => {
                A::add(&c.probes_resolved, 1);
                if *cached {
                    A::add(&c.probes_cached, 1);
                }
            }
            TraceEvent::SearchStarted { .. } => {
                A::add(&c.searches_started, 1);
                *steps_in_search = 0;
            }
            TraceEvent::StepTaken { .. } => {
                A::add(&c.search_steps, 1);
                *steps_in_search += 1;
            }
            TraceEvent::Bracketed { .. } => A::add(&c.brackets, 1),
            TraceEvent::SearchFinished {
                converged, probes, ..
            } => {
                A::add(&c.searches_finished, 1);
                if *converged {
                    A::add(&c.searches_converged, 1);
                }
                self.hist_probes_per_search.observe::<A>(*probes);
                self.hist_search_steps.observe::<A>(*steps_in_search);
                *steps_in_search = 0;
            }
            TraceEvent::RetryScheduled {
                attempt,
                backoff_us,
            } => {
                A::add(&c.retries, 1);
                self.hist_retry_depth.observe::<A>(*attempt);
                // Integer nanoseconds: summation stays exact and
                // order-independent.
                self.hist_backoff_ns
                    .observe::<A>((backoff_us * 1000.0).round() as u64);
            }
            TraceEvent::VoteResolved { .. } => A::add(&c.vote_rounds, 1),
            TraceEvent::FaultInjected { kind } => match kind {
                FaultKind::Dropout => A::add(&c.faults_dropout, 1),
                FaultKind::Flip => A::add(&c.faults_flip, 1),
                FaultKind::Stuck => A::add(&c.faults_stuck, 1),
                FaultKind::Abort => A::add(&c.faults_abort, 1),
                FaultKind::Stall => A::add(&c.faults_stall, 1),
            },
            TraceEvent::Quarantined { .. } => A::add(&c.quarantined, 1),
            TraceEvent::WatchdogFired { .. } => A::add(&c.watchdog_timeouts, 1),
            TraceEvent::SiteBreakerTripped { .. } => A::add(&c.breaker_trips, 1),
            TraceEvent::GaGenerationEvaluated { .. } => A::add(&c.ga_generations, 1),
            TraceEvent::CommitteeEpochFinished { .. } => A::add(&c.committee_epochs, 1),
            TraceEvent::AlarmRaised { .. } => A::add(&c.alarms_raised, 1),
            TraceEvent::AlarmCleared { .. } => A::add(&c.alarms_cleared, 1),
        }
    }
}

/// Adds `part` to `total` and zeroes it; a zero part costs one load.
fn move_count(total: &AtomicU64, part: &AtomicU64) {
    if part.load(ORDER) != 0 {
        Atomic::add(total, part.swap(0, ORDER));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_overflow() {
        let h = Histogram::new(&[2, 4]);
        for v in [1, 2, 3, 4, 5, 100] {
            h.observe::<Atomic>(v);
        }
        let s = h.snapshot();
        assert_eq!(s.counts, vec![2, 2, 2], "≤2, ≤4, overflow");
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 115);
        assert!(s.is_consistent());
    }

    #[test]
    fn snapshot_merge_is_commutative() {
        let a = MetricsRegistry::new();
        let b = MetricsRegistry::new();
        Atomic::add(&a.counters.probes_resolved, 3);
        a.hist_probes_per_search.observe::<Atomic>(5);
        Atomic::add(&b.counters.probes_resolved, 4);
        b.hist_probes_per_search.observe::<Atomic>(30);
        let (sa, sb) = (a.snapshot(), b.snapshot());
        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb.clone();
        ba.merge(&sa);
        assert_eq!(ab, ba);
        assert_eq!(ab.probes_resolved, 7);
        assert_eq!(ab.hist_probes_per_search.count, 2);
    }

    #[test]
    fn absorb_moves_a_delta_and_leaves_it_empty() {
        let (total, delta) = (MetricsRegistry::new(), MetricsRegistry::new());
        Atomic::add(&total.counters.retries, 1);
        total.hist_retry_depth.observe::<Atomic>(1);
        let mut steps = 0;
        for event in [
            TraceEvent::RetryScheduled { attempt: 2, backoff_us: 100.0 },
            TraceEvent::FaultInjected { kind: FaultKind::Stall },
        ] {
            delta.observe(&event, &mut steps);
        }
        total.absorb(&delta);
        let snap = total.snapshot();
        assert_eq!((snap.retries, snap.faults_stall), (2, 1));
        assert_eq!(snap.hist_retry_depth.counts, vec![1, 1, 0, 0, 0, 0, 0]);
        assert_eq!(snap.hist_backoff_ns.sum, 100_000);
        assert_eq!(delta.snapshot(), MetricsRegistry::new().snapshot());
        total.absorb(&delta);
        assert_eq!(total.snapshot(), snap, "an absorbed delta adds nothing twice");
    }

    #[test]
    fn empty_snapshot_satisfies_invariants() {
        assert_eq!(MetricsRegistry::new().snapshot().check_invariants(), None);
    }

    #[test]
    fn invariant_checker_catches_probe_imbalance() {
        let r = MetricsRegistry::new();
        Atomic::add(&r.counters.probes_resolved, 1);
        let violation = r.snapshot().check_invariants().expect("imbalanced");
        assert!(violation.contains("probes_resolved"), "{violation}");
    }

    #[test]
    fn snapshots_without_the_recovery_counters_still_parse() {
        // Baseline manifests committed before the durability PR carry no
        // faults_stall / watchdog_timeouts / breaker_trips fields; they
        // must deserialize as zero, not fail.
        let json = serde_json::to_string(&MetricsSnapshot::default()).expect("serializes");
        let legacy = json
            .replace(",\"faults_stall\":0", "")
            .replace(",\"watchdog_timeouts\":0", "")
            .replace(",\"breaker_trips\":0", "")
            .replace(",\"alarms_raised\":0", "")
            .replace(",\"alarms_cleared\":0", "");
        assert!(!legacy.contains("watchdog_timeouts"), "{legacy}");
        assert!(!legacy.contains("alarms_raised"), "{legacy}");
        let back: MetricsSnapshot = serde_json::from_str(&legacy).expect("parses");
        assert_eq!(back, MetricsSnapshot::default());
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let r = MetricsRegistry::new();
        Atomic::add(&r.counters.retries, 2);
        r.hist_retry_depth.observe::<Atomic>(1);
        r.hist_retry_depth.observe::<Atomic>(2);
        r.hist_backoff_ns.observe::<Atomic>(100_000);
        r.hist_backoff_ns.observe::<Atomic>(200_000);
        let snap = r.snapshot();
        let json = serde_json::to_string(&snap).expect("serializes");
        let back: MetricsSnapshot = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, snap);
    }
}
