//! Streaming DSV aggregation: eq. 1 extrema and percentile sketches in
//! O(1) memory per observed trip point.
//!
//! Wafer-scale campaigns produce 10^5–10^6 (test, die) trip points; the
//! materialize-everything [`DsvReport`](crate::dsv::DsvReport) cannot hold
//! them. This module provides the incremental replacement the
//! [`wafer`](crate::wafer) pipeline folds entries into and then drops
//! them:
//!
//! * **extrema** (eq. 1's worst case) accumulate bit-exactly — the same
//!   `f64::total_cmp` ordering over non-quarantined trip points the
//!   materialized report uses;
//! * **percentiles** come from a fixed-bucket [`QuantileSketch`] over the
//!   parameter's search range, with error bounded by one bucket width;
//! * quarantined entries carry no trip point and are excluded from both,
//!   exactly as `DsvReport` excludes them.

use crate::dsv::{DsvEntry, TripStatus};
use serde::{Deserialize, Serialize};

/// A fixed-bucket quantile sketch over a known value range.
///
/// Simpler than P² and exactly bounded: every observation lands in one of
/// `buckets` equal-width bins spanning `[lo, hi]` (values outside clamp to
/// the edge bins), and any quantile query returns the midpoint of the bin
/// holding the requested rank — so the error against the exact sample
/// quantile is at most one bucket width ([`Self::resolution`]) for
/// in-range data. Trip points are always in range here: searches clamp to
/// the parameter's generous range by construction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantileSketch {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    total: u64,
}

impl QuantileSketch {
    /// Builds a sketch of `buckets` equal-width bins over `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics when the range is empty/non-finite or `buckets` is zero.
    pub fn new(lo: f64, hi: f64, buckets: usize) -> Self {
        assert!(lo.is_finite() && hi.is_finite() && hi > lo, "non-empty finite range");
        assert!(buckets > 0, "at least one bucket");
        Self {
            lo,
            hi,
            counts: vec![0; buckets],
            total: 0,
        }
    }

    /// The bucket width — the worst-case quantile error for in-range data.
    pub fn resolution(&self) -> f64 {
        (self.hi - self.lo) / self.counts.len() as f64
    }

    /// Observations absorbed so far.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Absorbs one observation (NaN is ignored; out-of-range values clamp
    /// to the edge bins).
    pub fn observe(&mut self, value: f64) {
        if value.is_nan() {
            return;
        }
        let width = self.resolution();
        let raw = ((value - self.lo) / width).floor();
        let index = (raw.max(0.0) as usize).min(self.counts.len() - 1);
        self.counts[index] += 1;
        self.total += 1;
    }

    /// The approximate `q`-quantile (q in `[0, 1]`): the midpoint of the
    /// bucket holding the sample of rank `ceil(q·n)`. `None` before any
    /// observation.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (index, &count) in self.counts.iter().enumerate() {
            cumulative += count;
            if cumulative >= rank {
                let width = self.resolution();
                return Some(self.lo + (index as f64 + 0.5) * width);
            }
        }
        // Unreachable: cumulative reaches `total >= rank` on the last bin.
        None
    }

    /// Merges another sketch of identical geometry (chunked wafer workers
    /// fold their shard sketches in index order).
    ///
    /// # Panics
    ///
    /// Panics when the geometries differ.
    pub fn merge(&mut self, other: &Self) {
        assert!(
            self.lo == other.lo && self.hi == other.hi && self.counts.len() == other.counts.len(),
            "sketch geometries must match"
        );
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
    }
}

/// Incremental eq. 1 aggregate over a stream of trip-point entries.
///
/// Replaces the materialized `Vec<DsvEntry>` for wafer-scale runs:
/// extrema and counters are exact (and bit-identical to the materialized
/// [`DsvReport`](crate::dsv::DsvReport) statistics), percentiles are
/// sketch-approximate within [`QuantileSketch::resolution`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TripAggregate {
    /// Entries observed, including quarantined ones.
    pub entries: u64,
    /// Entries carrying a trip point.
    pub converged: u64,
    /// Entries excluded from eq. 1 (no trustworthy trip point).
    pub quarantined: u64,
    /// Entries that needed the recovery ladder to converge.
    pub recovered: u64,
    /// Smallest trip point (`f64::total_cmp`, bit-exact).
    pub min: Option<f64>,
    /// Largest trip point (`f64::total_cmp`, bit-exact).
    pub max: Option<f64>,
    /// Sum of trip points (for the mean).
    pub sum: f64,
    /// The percentile sketch.
    pub sketch: QuantileSketch,
}

impl TripAggregate {
    /// An empty aggregate sketching over `[lo, hi]` with `buckets` bins —
    /// callers pass the measured parameter's generous range.
    pub fn new(lo: f64, hi: f64, buckets: usize) -> Self {
        Self {
            entries: 0,
            converged: 0,
            quarantined: 0,
            recovered: 0,
            min: None,
            max: None,
            sum: 0.0,
            sketch: QuantileSketch::new(lo, hi, buckets),
        }
    }

    /// Absorbs one measurement outcome. Quarantined entries (no trip
    /// point) advance only the exclusion counters, exactly like the
    /// materialized report's `filter_map` over `trip_point`.
    pub fn observe(&mut self, trip_point: Option<f64>, status: &TripStatus) {
        self.entries += 1;
        if status.is_quarantined() {
            self.quarantined += 1;
        }
        if status.is_recovered() {
            self.recovered += 1;
        }
        let Some(trip) = trip_point else {
            return;
        };
        self.converged += 1;
        self.sum += trip;
        self.min = Some(match self.min {
            Some(m) if m.total_cmp(&trip).is_le() => m,
            _ => trip,
        });
        self.max = Some(match self.max {
            Some(m) if m.total_cmp(&trip).is_ge() => m,
            _ => trip,
        });
        self.sketch.observe(trip);
    }

    /// Absorbs one materialized entry (fold-and-drop call site).
    pub fn observe_entry(&mut self, entry: &DsvEntry) {
        self.observe(entry.trip_point, &entry.status);
    }

    /// Mean trip point over converged entries.
    pub fn mean(&self) -> Option<f64> {
        (self.converged > 0).then(|| self.sum / self.converged as f64)
    }

    /// The eq. 1 worst-case band: `max - min`.
    pub fn spread(&self) -> Option<f64> {
        match (self.min, self.max) {
            (Some(lo), Some(hi)) => Some(hi - lo),
            _ => None,
        }
    }

    /// Sketch-approximate `q`-quantile of the converged trip points.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        self.sketch.quantile(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsv::{DsvReport, QuarantineReason, SearchStrategy};
    use cichar_ate::MeasuredParam;
    use proptest::prelude::*;

    fn entry(trip: Option<f64>, status: TripStatus) -> DsvEntry {
        DsvEntry {
            test_name: String::from("t"),
            trip_point: trip,
            measurements: 10,
            status,
        }
    }

    /// The materialized baseline the streaming aggregate must agree with.
    fn materialized(entries: Vec<DsvEntry>) -> DsvReport {
        DsvReport {
            param: MeasuredParam::DataValidTime,
            strategy: SearchStrategy::FullRange,
            reference_trip_point: None,
            entries,
            total_measurements: 0,
        }
    }

    /// Exact sample quantile under the sketch's rank convention: the
    /// `ceil(q·n)`-th smallest value.
    fn exact_quantile(values: &mut [f64], q: f64) -> Option<f64> {
        if values.is_empty() {
            return None;
        }
        values.sort_by(f64::total_cmp);
        let rank = ((q * values.len() as f64).ceil() as usize).max(1);
        Some(values[rank - 1])
    }

    #[test]
    fn empty_aggregate_reports_nothing() {
        let agg = TripAggregate::new(0.0, 40.0, 64);
        assert_eq!(agg.min, None);
        assert_eq!(agg.max, None);
        assert_eq!(agg.mean(), None);
        assert_eq!(agg.spread(), None);
        assert_eq!(agg.quantile(0.5), None);
    }

    #[test]
    fn quarantined_entries_are_excluded_from_extrema() {
        let mut agg = TripAggregate::new(0.0, 40.0, 64);
        agg.observe_entry(&entry(Some(30.0), TripStatus::Clean));
        agg.observe_entry(&entry(
            None,
            TripStatus::Quarantined {
                reason: QuarantineReason::Dropout,
            },
        ));
        agg.observe_entry(&entry(
            Some(32.0),
            TripStatus::Recovered {
                retries: 2,
                rebracketed: false,
            },
        ));
        assert_eq!(agg.entries, 3);
        assert_eq!(agg.converged, 2);
        assert_eq!(agg.quarantined, 1);
        assert_eq!(agg.recovered, 1);
        assert_eq!(agg.min, Some(30.0));
        assert_eq!(agg.max, Some(32.0));
        assert_eq!(agg.spread(), Some(2.0));
    }

    #[test]
    fn sketch_merge_matches_single_stream() {
        let mut whole = QuantileSketch::new(0.0, 10.0, 20);
        let mut left = QuantileSketch::new(0.0, 10.0, 20);
        let mut right = QuantileSketch::new(0.0, 10.0, 20);
        for i in 0..100 {
            let v = f64::from(i) / 10.0;
            whole.observe(v);
            if i % 2 == 0 { left.observe(v) } else { right.observe(v) }
        }
        left.merge(&right);
        assert_eq!(left, whole);
    }

    #[test]
    fn out_of_range_and_nan_observations_are_safe() {
        let mut sketch = QuantileSketch::new(0.0, 10.0, 10);
        sketch.observe(-5.0);
        sketch.observe(15.0);
        sketch.observe(f64::NAN);
        assert_eq!(sketch.total(), 2);
        assert_eq!(sketch.quantile(0.0), Some(0.5), "clamped low lands in bin 0");
        assert_eq!(sketch.quantile(1.0), Some(9.5), "clamped high lands in the last bin");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Satellite: the incremental aggregate against the materialized
        /// `DsvReport` baseline — extrema and counters bit-exact,
        /// percentiles within the sketch's bucket resolution, quarantined
        /// entries excluded identically.
        #[test]
        fn streaming_aggregate_matches_materialized_report(
            observations in proptest::collection::vec((5.0f64..39.5, 0u8..10), 1..200),
            buckets in 16usize..512,
        ) {
            let range = MeasuredParam::DataValidTime.generous_range();
            let (lo, hi) = (range.start(), range.end());
            let entries: Vec<DsvEntry> = observations
                .iter()
                .map(|&(trip, tag)| match tag {
                    // ~20% quarantined, cycling through the reasons.
                    0 => entry(None, TripStatus::Quarantined { reason: QuarantineReason::Dropout }),
                    1 => entry(None, TripStatus::Quarantined { reason: QuarantineReason::Unconverged }),
                    2 => entry(Some(trip), TripStatus::Recovered { retries: 1, rebracketed: false }),
                    _ => entry(Some(trip), TripStatus::Clean),
                })
                .collect();

            let mut agg = TripAggregate::new(lo, hi, buckets);
            for e in &entries {
                agg.observe_entry(e);
            }
            let baseline = materialized(entries.clone());

            // Extrema and counters: bit-exact against the materialized report.
            prop_assert_eq!(agg.min, baseline.min());
            prop_assert_eq!(agg.max, baseline.max());
            prop_assert_eq!(agg.spread(), baseline.spread());
            prop_assert_eq!(agg.quarantined as usize, baseline.quarantined());
            prop_assert_eq!(agg.recovered as usize, baseline.recovered());
            prop_assert_eq!(agg.entries as usize, baseline.entries.len());
            prop_assert_eq!(agg.converged as usize, baseline.trip_points().len());
            if let (Some(stream_mean), Some(report_mean)) = (agg.mean(), baseline.mean()) {
                prop_assert!((stream_mean - report_mean).abs() < 1e-9);
            } else {
                prop_assert_eq!(agg.mean().is_some(), baseline.mean().is_some());
            }

            // Percentiles: within one bucket width of the exact sample
            // quantile under the same rank convention.
            let mut trips: Vec<f64> = baseline.trip_points();
            for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
                match (agg.quantile(q), exact_quantile(&mut trips, q)) {
                    (Some(approx), Some(exact)) => prop_assert!(
                        (approx - exact).abs() <= agg.sketch.resolution(),
                        "q={} approx={} exact={} resolution={}",
                        q, approx, exact, agg.sketch.resolution()
                    ),
                    (a, b) => prop_assert_eq!(a.is_some(), b.is_some()),
                }
            }
        }
    }
}
