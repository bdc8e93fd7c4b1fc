//! Measurement accounting — the cost currency of the paper.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Per-measurement tester overhead in microseconds (pattern load, settle,
/// strobe arm). A realistic figure for a memory tester applying a short
/// pattern.
const MEASUREMENT_OVERHEAD_US: f64 = 50.0;

/// Counts every measurement the tester performs and estimates test time.
///
/// §4's entire motivation is measurement economy ("characterization is a
/// lengthy process since it involves multiple repetitions of a test"), and
/// fig. 3's saving is denominated in search steps. The ledger gives every
/// experiment the same cost axis.
///
/// # Examples
///
/// ```
/// use cichar_ate::MeasurementLedger;
///
/// let mut ledger = MeasurementLedger::new();
/// ledger.record(640, 100.0); // one 640-cycle pattern at 100 MHz
/// assert_eq!(ledger.measurements(), 1);
/// assert_eq!(ledger.cycles(), 640);
/// assert!(ledger.test_time_ms() > 0.05, "overhead dominates short patterns");
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct MeasurementLedger {
    measurements: u64,
    cycles: u64,
    pattern_time_us: f64,
    /// Probes answered from the memoization cache instead of the tester.
    /// Tracked apart from `measurements` so cached probes never inflate
    /// the paper's measurement-saving numbers (fig. 3).
    cached: u64,
    /// Measurements issued speculatively (pre-probed children of a
    /// bisection level that may be discarded). They are real pattern
    /// applications and count under `measurements` too; this column lets
    /// eq. 1 economy numbers subtract the speculative waste honestly.
    speculative: u64,
    /// Injected probe-contact dropouts (verdict unavailable), including
    /// every silent measurement inside a session-abort burst.
    dropouts: u64,
    /// Injected transient verdict flips.
    flips: u64,
    /// Measurements answered by a stuck-verdict channel instead of the
    /// device.
    stuck_probes: u64,
    /// Mid-search session-abort events (each masks a burst of
    /// measurements, counted under `dropouts`).
    aborts: u64,
    /// Recovery strobes re-issued after silent measurements.
    retries: u64,
    /// Test points excluded from characterization results because
    /// recovery could not produce a trustworthy trip point.
    quarantined: u64,
    /// Simulated settle time spent in retry backoff, in microseconds.
    backoff_time_us: f64,
    /// Hung strobes: measurements that answered only after a long stall.
    /// Postdates the first serialized ledgers; absent fields parse as 0.
    #[serde(default)]
    stalls: u64,
    /// Simulated tester time burned inside stalls, in microseconds.
    #[serde(default)]
    stall_time_us: f64,
    /// Tests the stall watchdog abandoned when a site's touchdown budget
    /// expired (each is also counted under `quarantined`).
    #[serde(default)]
    timeouts: u64,
}

impl MeasurementLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one measurement of a `cycles`-long pattern at `clock_mhz`.
    pub fn record(&mut self, cycles: u64, clock_mhz: f64) {
        self.measurements += 1;
        self.cycles += cycles;
        if clock_mhz > 0.0 {
            self.pattern_time_us += cycles as f64 / clock_mhz;
        }
    }

    /// Records one probe served from the memoization cache. The device
    /// never sees the pattern, so only the cached counter moves —
    /// measurements, cycles, and tester time all stay put.
    pub fn record_cached(&mut self) {
        self.cached += 1;
    }

    /// Records that the most recent measurement was issued speculatively.
    /// The measurement itself is already counted by [`Self::record`]; this
    /// marks it as pre-issued work that may be discarded unused.
    pub fn record_speculative(&mut self) {
        self.speculative += 1;
    }

    /// Records one injected probe-contact dropout (verdict unavailable).
    pub fn record_dropout(&mut self) {
        self.dropouts += 1;
    }

    /// Records one injected transient verdict flip.
    pub fn record_flip(&mut self) {
        self.flips += 1;
    }

    /// Records one measurement answered by a stuck-verdict channel.
    pub fn record_stuck_probe(&mut self) {
        self.stuck_probes += 1;
    }

    /// Records one mid-search session-abort event.
    pub fn record_abort(&mut self) {
        self.aborts += 1;
    }

    /// Charges a recovery effort to the ledger: `retries` re-issued
    /// strobes and `backoff_us` of simulated settle time. The retried
    /// measurements themselves are already counted by [`Self::record`];
    /// this adds only the recovery-specific bookkeeping.
    pub fn record_recovery(&mut self, retries: u64, backoff_us: f64) {
        self.retries += retries;
        self.backoff_time_us += backoff_us;
    }

    /// Records one quarantined test point.
    pub fn record_quarantined(&mut self) {
        self.quarantined += 1;
    }

    /// Records one hung strobe: the verdict arrived after `stall_us` extra
    /// microseconds of simulated tester time.
    pub fn record_stall(&mut self, stall_us: f64) {
        self.stalls += 1;
        self.stall_time_us += stall_us;
    }

    /// Records one test the stall watchdog abandoned. The quarantine
    /// itself is charged separately via [`Self::record_quarantined`].
    pub fn record_timeout(&mut self) {
        self.timeouts += 1;
    }

    /// Total measurements performed.
    pub fn measurements(&self) -> u64 {
        self.measurements
    }

    /// Total probes served from the memoization cache.
    pub fn cached_probes(&self) -> u64 {
        self.cached
    }

    /// Measurements that were issued speculatively.
    pub fn speculative_probes(&self) -> u64 {
        self.speculative
    }

    /// Measurements net of speculative pre-issues — the honest probe
    /// economy denominator of eq. 1 accounting.
    pub fn non_speculative_measurements(&self) -> u64 {
        self.measurements.saturating_sub(self.speculative)
    }

    /// Total vector cycles applied.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Injected probe-contact dropouts.
    pub fn dropouts(&self) -> u64 {
        self.dropouts
    }

    /// Injected transient verdict flips.
    pub fn flips(&self) -> u64 {
        self.flips
    }

    /// Measurements answered by a stuck-verdict channel.
    pub fn stuck_probes(&self) -> u64 {
        self.stuck_probes
    }

    /// Session-abort events.
    pub fn aborts(&self) -> u64 {
        self.aborts
    }

    /// Recovery strobes re-issued after silent measurements.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Test points quarantined out of characterization results.
    pub fn quarantined(&self) -> u64 {
        self.quarantined
    }

    /// Simulated retry-backoff settle time, in microseconds.
    pub fn backoff_time_us(&self) -> f64 {
        self.backoff_time_us
    }

    /// Hung strobes that answered only after a stall.
    pub fn stalls(&self) -> u64 {
        self.stalls
    }

    /// Simulated tester time burned inside stalls, in microseconds.
    pub fn stall_time_us(&self) -> f64 {
        self.stall_time_us
    }

    /// Tests abandoned by the stall watchdog.
    pub fn timeouts(&self) -> u64 {
        self.timeouts
    }

    /// Total injected tester faults of all kinds (saturating, like
    /// [`Self::merge`]).
    pub fn injected_faults(&self) -> u64 {
        [self.flips, self.stuck_probes, self.aborts, self.stalls]
            .into_iter()
            .fold(self.dropouts, u64::saturating_add)
    }

    /// Estimated tester-occupancy time in milliseconds (pattern time plus
    /// per-measurement overhead plus retry-backoff settle and stall time).
    pub fn test_time_ms(&self) -> f64 {
        (self.pattern_time_us
            + self.measurements as f64 * MEASUREMENT_OVERHEAD_US
            + self.backoff_time_us
            + self.stall_time_us)
            / 1000.0
    }

    /// Measurements performed since `baseline` (for scoping one search
    /// inside a longer session).
    pub fn measurements_since(&self, baseline: &MeasurementLedger) -> u64 {
        self.measurements - baseline.measurements
    }

    /// The full ledger delta since `baseline` — every counter, not just
    /// measurements. Scopes a whole campaign (cost, fault, and recovery
    /// accounting alike) inside a longer tester session. `baseline` must
    /// be an earlier snapshot of this ledger; counters saturate at zero
    /// rather than underflow if it is not.
    pub fn since(&self, baseline: &MeasurementLedger) -> MeasurementLedger {
        MeasurementLedger {
            measurements: self.measurements.saturating_sub(baseline.measurements),
            cycles: self.cycles.saturating_sub(baseline.cycles),
            pattern_time_us: (self.pattern_time_us - baseline.pattern_time_us).max(0.0),
            cached: self.cached.saturating_sub(baseline.cached),
            speculative: self.speculative.saturating_sub(baseline.speculative),
            dropouts: self.dropouts.saturating_sub(baseline.dropouts),
            flips: self.flips.saturating_sub(baseline.flips),
            stuck_probes: self.stuck_probes.saturating_sub(baseline.stuck_probes),
            aborts: self.aborts.saturating_sub(baseline.aborts),
            retries: self.retries.saturating_sub(baseline.retries),
            quarantined: self.quarantined.saturating_sub(baseline.quarantined),
            backoff_time_us: (self.backoff_time_us - baseline.backoff_time_us).max(0.0),
            stalls: self.stalls.saturating_sub(baseline.stalls),
            stall_time_us: (self.stall_time_us - baseline.stall_time_us).max(0.0),
            timeouts: self.timeouts.saturating_sub(baseline.timeouts),
        }
    }

    /// Folds another ledger's counters into this one. The parallel
    /// execution layer gives every worker session its own ledger and
    /// merges them **by test index**, so totals are identical to the
    /// sequential path no matter how work was scheduled. Counts saturate
    /// at `u64::MAX` rather than overflow, so a crafted journal ledger
    /// cannot panic a replay before its integrity check runs.
    pub fn merge(&mut self, other: &MeasurementLedger) {
        self.measurements = self.measurements.saturating_add(other.measurements);
        self.cycles = self.cycles.saturating_add(other.cycles);
        self.pattern_time_us += other.pattern_time_us;
        self.cached = self.cached.saturating_add(other.cached);
        self.speculative = self.speculative.saturating_add(other.speculative);
        self.dropouts = self.dropouts.saturating_add(other.dropouts);
        self.flips = self.flips.saturating_add(other.flips);
        self.stuck_probes = self.stuck_probes.saturating_add(other.stuck_probes);
        self.aborts = self.aborts.saturating_add(other.aborts);
        self.retries = self.retries.saturating_add(other.retries);
        self.quarantined = self.quarantined.saturating_add(other.quarantined);
        self.backoff_time_us += other.backoff_time_us;
        self.stalls = self.stalls.saturating_add(other.stalls);
        self.stall_time_us += other.stall_time_us;
        self.timeouts = self.timeouts.saturating_add(other.timeouts);
    }

    /// Resets all counters.
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

impl fmt::Display for MeasurementLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} measurements, {} cycles, {:.2} ms tester time",
            self.measurements,
            self.cycles,
            self.test_time_ms()
        )?;
        if self.cached > 0 {
            write!(f, " ({} cached probes)", self.cached)?;
        }
        if self.speculative > 0 {
            write!(f, " ({} speculative probes)", self.speculative)?;
        }
        if self.injected_faults() > 0 || self.retries > 0 || self.quarantined > 0 {
            write!(
                f,
                "; faults: {} dropouts, {} flips, {} stuck, {} aborts → {} retries, {} quarantined",
                self.dropouts,
                self.flips,
                self.stuck_probes,
                self.aborts,
                self.retries,
                self.quarantined
            )?;
        }
        if self.stalls > 0 || self.timeouts > 0 {
            write!(
                f,
                "; stalls: {} ({:.2} ms) → {} timeouts",
                self.stalls,
                self.stall_time_us / 1000.0,
                self.timeouts
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate() {
        let mut l = MeasurementLedger::new();
        l.record(100, 100.0);
        l.record(900, 50.0);
        assert_eq!(l.measurements(), 2);
        assert_eq!(l.cycles(), 1000);
    }

    #[test]
    fn test_time_includes_overhead_and_pattern() {
        let mut l = MeasurementLedger::new();
        l.record(1000, 100.0); // 10 µs pattern + 50 µs overhead
        assert!((l.test_time_ms() - 0.060).abs() < 1e-9);
    }

    #[test]
    fn measurements_since_scopes_a_window() {
        let mut l = MeasurementLedger::new();
        l.record(100, 100.0);
        let baseline = l;
        l.record(100, 100.0);
        l.record(100, 100.0);
        assert_eq!(l.measurements_since(&baseline), 2);
    }

    #[test]
    fn since_scopes_every_counter() {
        let mut l = MeasurementLedger::new();
        l.record(100, 100.0);
        l.record_flip();
        let baseline = l;
        l.record(900, 50.0);
        l.record_dropout();
        l.record_recovery(2, 300.0);
        l.record_quarantined();
        let delta = l.since(&baseline);
        assert_eq!(delta.measurements(), 1);
        assert_eq!(delta.cycles(), 900);
        assert_eq!(delta.flips(), 0, "pre-baseline faults are scoped out");
        assert_eq!(delta.dropouts(), 1);
        assert_eq!(delta.retries(), 2);
        assert_eq!(delta.quarantined(), 1);
        assert!((delta.backoff_time_us() - 300.0).abs() < 1e-12);
        let mut rebuilt = baseline;
        rebuilt.merge(&delta);
        assert_eq!(rebuilt, l, "baseline + delta reconstructs the ledger");
    }

    #[test]
    fn reset_clears_everything() {
        let mut l = MeasurementLedger::new();
        l.record(500, 100.0);
        l.reset();
        assert_eq!(l, MeasurementLedger::new());
    }

    #[test]
    fn zero_clock_is_tolerated() {
        let mut l = MeasurementLedger::new();
        l.record(100, 0.0);
        assert_eq!(l.measurements(), 1);
        assert!(l.test_time_ms() > 0.0, "overhead still counted");
    }

    #[test]
    fn display_reports_all_counters() {
        let mut l = MeasurementLedger::new();
        l.record(640, 100.0);
        let s = l.to_string();
        assert!(s.contains("1 measurements") && s.contains("640 cycles"), "{s}");
    }

    #[test]
    fn cached_probes_do_not_count_as_measurements() {
        let mut l = MeasurementLedger::new();
        l.record(640, 100.0);
        let time_before = l.test_time_ms();
        l.record_cached();
        l.record_cached();
        assert_eq!(l.measurements(), 1, "cache hits are not measurements");
        assert_eq!(l.cached_probes(), 2);
        assert_eq!(l.cycles(), 640, "cache hits apply no vectors");
        assert_eq!(l.test_time_ms(), time_before, "cache hits cost no tester time");
    }

    #[test]
    fn speculative_probes_stay_inside_measurements() {
        let mut l = MeasurementLedger::new();
        l.record(640, 100.0);
        l.record(640, 100.0);
        l.record_speculative();
        assert_eq!(l.measurements(), 2, "speculative probes are real measurements");
        assert_eq!(l.speculative_probes(), 1);
        assert_eq!(l.non_speculative_measurements(), 1);
        let baseline = l;
        l.record(640, 100.0);
        l.record_speculative();
        let delta = l.since(&baseline);
        assert_eq!(delta.speculative_probes(), 1);
        let mut merged = baseline;
        merged.merge(&delta);
        assert_eq!(merged, l);
        assert!(l.to_string().contains("2 speculative probes"), "{l}");
    }

    #[test]
    fn display_mentions_cached_probes_only_when_present() {
        let mut l = MeasurementLedger::new();
        l.record(640, 100.0);
        assert!(!l.to_string().contains("cached"));
        l.record_cached();
        assert!(l.to_string().contains("1 cached probes"), "{l}");
    }

    #[test]
    fn merge_adds_all_counters() {
        let mut a = MeasurementLedger::new();
        a.record(100, 100.0);
        a.record_cached();
        let mut b = MeasurementLedger::new();
        b.record(900, 50.0);
        b.record(500, 100.0);
        b.record_cached();
        b.record_cached();
        let mut merged = a;
        merged.merge(&b);
        assert_eq!(merged.measurements(), 3);
        assert_eq!(merged.cycles(), 1500);
        assert_eq!(merged.cached_probes(), 3);
        let expected_time = a.test_time_ms() + b.test_time_ms();
        assert!((merged.test_time_ms() - expected_time).abs() < 1e-12);
    }

    #[test]
    fn merge_order_does_not_change_counts() {
        let mut parts = [MeasurementLedger::new(); 3];
        parts[0].record(100, 100.0);
        parts[1].record(250, 50.0);
        parts[1].record_cached();
        parts[2].record(640, 100.0);
        let fold = |order: [usize; 3]| {
            let mut total = MeasurementLedger::new();
            for i in order {
                total.merge(&parts[i]);
            }
            total
        };
        assert_eq!(fold([0, 1, 2]), fold([2, 0, 1]));
        assert_eq!(fold([0, 1, 2]), fold([1, 2, 0]));
    }

    #[test]
    fn fault_columns_accumulate_and_merge() {
        let mut a = MeasurementLedger::new();
        a.record(100, 100.0);
        a.record_dropout();
        a.record_flip();
        a.record_flip();
        a.record_stuck_probe();
        a.record_abort();
        a.record_recovery(3, 700.0);
        a.record_quarantined();
        assert_eq!(a.dropouts(), 1);
        assert_eq!(a.flips(), 2);
        assert_eq!(a.stuck_probes(), 1);
        assert_eq!(a.aborts(), 1);
        assert_eq!(a.retries(), 3);
        assert_eq!(a.quarantined(), 1);
        assert_eq!(a.injected_faults(), 5);
        assert_eq!(a.backoff_time_us(), 700.0);
        let mut merged = MeasurementLedger::new();
        merged.merge(&a);
        merged.merge(&a);
        assert_eq!(merged.flips(), 4);
        assert_eq!(merged.retries(), 6);
        assert_eq!(merged.quarantined(), 2);
        assert_eq!(merged.backoff_time_us(), 1400.0);
    }

    #[test]
    fn backoff_time_is_charged_to_test_time() {
        let mut l = MeasurementLedger::new();
        l.record(1000, 100.0);
        let before = l.test_time_ms();
        l.record_recovery(1, 500.0);
        assert!((l.test_time_ms() - before - 0.5).abs() < 1e-12);
    }

    #[test]
    fn display_mentions_faults_only_when_present() {
        let mut l = MeasurementLedger::new();
        l.record(640, 100.0);
        assert!(!l.to_string().contains("faults"));
        l.record_dropout();
        l.record_recovery(1, 100.0);
        let s = l.to_string();
        assert!(s.contains("1 dropouts") && s.contains("1 retries"), "{s}");
    }

    #[test]
    fn stall_columns_accumulate_merge_and_scope() {
        let mut l = MeasurementLedger::new();
        l.record(1000, 100.0);
        let before = l.test_time_ms();
        l.record_stall(2_000.0);
        l.record_stall(2_000.0);
        l.record_timeout();
        assert_eq!(l.stalls(), 2);
        assert_eq!(l.stall_time_us(), 4_000.0);
        assert_eq!(l.timeouts(), 1);
        assert_eq!(l.injected_faults(), 2, "stalls are injected faults");
        assert!((l.test_time_ms() - before - 4.0).abs() < 1e-12, "stalls burn tester time");
        let baseline = l;
        l.record_stall(500.0);
        l.record_timeout();
        let delta = l.since(&baseline);
        assert_eq!(delta.stalls(), 1);
        assert_eq!(delta.stall_time_us(), 500.0);
        assert_eq!(delta.timeouts(), 1);
        let mut rebuilt = baseline;
        rebuilt.merge(&delta);
        assert_eq!(rebuilt, l);
        let s = l.to_string();
        assert!(s.contains("stalls: 3") && s.contains("2 timeouts"), "{s}");
    }

    #[test]
    fn pre_stall_serialized_ledgers_parse_with_zero_stall_columns() {
        let mut l = MeasurementLedger::new();
        l.record(640, 100.0);
        let json = serde_json::to_string(&l)
            .expect("serialize")
            .replace(",\"stalls\":0", "")
            .replace(",\"stall_time_us\":0.0", "")
            .replace(",\"timeouts\":0", "");
        assert!(!json.contains("stall"), "{json}");
        let back: MeasurementLedger = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, l);
    }

    #[test]
    fn fault_columns_survive_serde() {
        let mut l = MeasurementLedger::new();
        l.record(640, 100.0);
        l.record_flip();
        l.record_quarantined();
        let json = serde_json::to_string(&l).expect("serialize");
        let back: MeasurementLedger = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, l);
        assert_eq!(back.flips(), 1);
        assert_eq!(back.quarantined(), 1);
    }

    #[test]
    fn merged_ledger_round_trips_through_serde() {
        let mut l = MeasurementLedger::new();
        l.record(640, 100.0);
        l.record_cached();
        let json = serde_json::to_string(&l).expect("serialize");
        let back: MeasurementLedger = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, l);
        assert_eq!(back.cached_probes(), 1);
    }
}
