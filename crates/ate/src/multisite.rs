//! Multi-site tester: N sites share one test program, each keeping its own
//! device, ledger, noise/drift state, fault state and RNG streams.
//!
//! Real ATE amortizes touchdown cost by strobing many dies at once. The
//! simulator mirrors that: a [`MultiSiteAte`] is a vector of per-site
//! [`Ate`] sessions whose seeds derive from the campaign seed and the site
//! index ([`cichar_exec::derive_seed`]), so every site's verdict stream is
//! a pure function of its identity — bit-identical to running that site
//! alone, and therefore independent of how sites are grouped into
//! touchdowns, which site is strobed first, or how many worker threads the
//! campaign uses.
//!
//! The throughput win is structural: all sites of a touchdown apply the
//! *same* stimulus, and the stress breakdown of a stimulus depends only on
//! its pattern features (never on the die), so one
//! [`Device::stress_total`] hoist serves the entire batch. Each site's
//! measurement then runs the exact per-condition arithmetic of the
//! scalar path ([`Device::evaluate_with_stress`]).

use crate::ledger::MeasurementLedger;
use crate::tester::{Ate, AteConfig};
use cichar_dut::Device;
use cichar_patterns::{PatternFeatures, Test};
use cichar_search::Probe;
use cichar_units::ParamKind;

/// A touchdown's worth of tester sites sharing one test program.
///
/// # Examples
///
/// ```
/// use cichar_ate::{AteConfig, MultiSiteAte};
/// use cichar_dut::{Die, MemoryDevice};
/// use cichar_patterns::{march, PatternFeatures, Test};
/// use cichar_units::ParamKind;
///
/// let devices = vec![MemoryDevice::nominal(), MemoryDevice::nominal()];
/// let mut sites = MultiSiteAte::new(devices, AteConfig::default());
/// let test = Test::deterministic("march_x", march::march_x(96));
/// let pattern = test.pattern();
/// let features = PatternFeatures::extract(&pattern);
/// let verdicts = sites.measure_sites(
///     &features,
///     pattern.len() as u64,
///     &test,
///     &[(ParamKind::StrobeDelay, 15.0)],
/// );
/// assert_eq!(verdicts.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct MultiSiteAte {
    sites: Vec<Ate>,
    /// Whether every site shares one backend structure — the regime where
    /// a single stress hoist is provably identical to per-site hoists.
    uniform_surface: bool,
}

impl MultiSiteAte {
    /// Loads one device per site. Site `i`'s session seed is
    /// `derive_seed(config.seed, i)`, mirroring
    /// [`ParallelAte::session`](crate::ParallelAte::session), so per-site
    /// streams never alias and results are reproducible from the campaign
    /// seed alone.
    ///
    /// # Panics
    ///
    /// Panics when `devices` is empty — a touchdown needs at least one
    /// site.
    pub fn new<D: Into<Device>>(devices: Vec<D>, config: AteConfig) -> Self {
        let campaign = config.seed;
        let sites = devices
            .into_iter()
            .enumerate()
            .map(|(i, device)| {
                Ate::with_config(
                    device,
                    AteConfig {
                        seed: cichar_exec::derive_seed(campaign, i as u64),
                        ..config.clone()
                    },
                )
            })
            .collect();
        Self::from_sessions(sites)
    }

    /// Assembles a touchdown from caller-seeded sessions. The wafer runner
    /// uses this so a die's seed derives from its *global* die index, which
    /// makes results invariant under re-grouping dies into touchdowns of
    /// any site count.
    ///
    /// # Panics
    ///
    /// Panics when `sites` is empty.
    pub fn from_sessions(sites: Vec<Ate>) -> Self {
        assert!(!sites.is_empty(), "a touchdown needs at least one site");
        let uniform_surface = sites
            .windows(2)
            .all(|w| w[0].device().structural_key() == w[1].device().structural_key());
        Self {
            sites,
            uniform_surface,
        }
    }

    /// Number of sites on the touchdown.
    pub fn site_count(&self) -> usize {
        self.sites.len()
    }

    /// The per-site sessions.
    pub fn sites(&self) -> &[Ate] {
        &self.sites
    }

    /// One site's session.
    ///
    /// # Panics
    ///
    /// Panics when `site` is out of range.
    pub fn site(&self, site: usize) -> &Ate {
        &self.sites[site]
    }

    /// One site's session, mutably — per-site span installation, searches
    /// and quarantine accounting go through here.
    ///
    /// # Panics
    ///
    /// Panics when `site` is out of range.
    pub fn site_mut(&mut self, site: usize) -> &mut Ate {
        &mut self.sites[site]
    }

    /// Releases the per-site sessions (the wafer runner folds their
    /// ledgers after a touchdown completes).
    pub fn into_sessions(self) -> Vec<Ate> {
        self.sites
    }

    /// The campaign-level ledger: per-site ledgers folded in site order.
    /// Per-site accounting always reconciles with this merge — merging is
    /// column-wise addition, so any counter here equals the sum of that
    /// counter across [`Self::sites`].
    pub fn merged_ledger(&self) -> MeasurementLedger {
        let mut merged = MeasurementLedger::new();
        for site in &self.sites {
            merged.merge(site.ledger());
        }
        merged
    }

    /// Strobes every site once with the same stimulus and forces — the
    /// shared-test-program touchdown strobe. One stress hoist serves the
    /// whole batch; each site's verdict, noise draws, drift cycles and
    /// fault transitions are bit-identical to a scalar
    /// [`Ate::measure_features`] call on that site alone.
    pub fn measure_sites(
        &mut self,
        features: &PatternFeatures,
        pattern_cycles: u64,
        test: &Test,
        forces: &[(ParamKind, f64)],
    ) -> Vec<Probe> {
        let mut out = Vec::with_capacity(self.sites.len());
        self.measure_sites_into(features, pattern_cycles, test, forces, &mut out);
        out
    }

    /// [`Self::measure_sites`] appending into a caller-owned buffer — the
    /// allocation-free form. Appends exactly [`Self::site_count`] verdicts
    /// in site order and never clears `out`.
    pub fn measure_sites_into(
        &mut self,
        features: &PatternFeatures,
        pattern_cycles: u64,
        test: &Test,
        forces: &[(ParamKind, f64)],
        out: &mut Vec<Probe>,
    ) {
        let shared = self.shared_stress(features);
        out.reserve(self.sites.len());
        for site in 0..self.sites.len() {
            let stress = self.stress_for(site, features, shared);
            out.push(self.sites[site].measure_features_with_stress(
                stress,
                pattern_cycles,
                test,
                forces,
            ));
        }
    }

    /// The batch-wide stress total, when all sites share a surface.
    fn shared_stress(&self, features: &PatternFeatures) -> Option<f64> {
        self.uniform_surface
            .then(|| self.sites[0].device().stress_total(features))
    }

    /// A site's stress total: the shared hoist, or (heterogeneous
    /// surfaces — ablation rigs) its own device's.
    fn stress_for(&self, site: usize, features: &PatternFeatures, shared: Option<f64>) -> f64 {
        shared.unwrap_or_else(|| self.sites[site].device().stress_total(features))
    }
}

/// Minimum observations (measurements plus watchdog-abandoned tests) a
/// site must accumulate before its breaker may latch — small-sample fault
/// bursts must not condemn a healthy site.
const BREAKER_MIN_OBSERVATIONS: u64 = 8;

/// A per-site-position health circuit breaker for multi-site campaigns.
///
/// The wafer engine feeds it one per-touchdown ledger delta per site (in
/// the deterministic fold order) and evaluates trips only at **chunk
/// boundaries** via [`Self::end_chunk`] — so whether a site latches is a
/// pure function of the campaign schedule, never of thread interleaving.
/// Once latched, a breaker stays open for the rest of the campaign:
/// the engine excludes the site position from later touchdowns and
/// quarantines its tests instead of measuring them.
///
/// The health signal is the site's rolling fault rate: injected tester
/// faults plus watchdog-abandoned tests, over measurements performed.
///
/// # Examples
///
/// ```
/// use cichar_ate::{MeasurementLedger, SiteHealthBreaker};
///
/// let mut breaker = SiteHealthBreaker::new(0.5);
/// let mut sick = MeasurementLedger::new();
/// for _ in 0..10 {
///     sick.record(64, 100.0);
///     sick.record_dropout();
/// }
/// breaker.observe(1, &sick);
/// assert_eq!(breaker.end_chunk(), vec![1], "site 1 latches");
/// assert!(breaker.is_open(1));
/// assert!(!breaker.is_open(0));
/// ```
#[derive(Debug, Clone, Default)]
pub struct SiteHealthBreaker {
    threshold: f64,
    sites: Vec<SiteHealth>,
}

#[derive(Debug, Clone, Copy, Default)]
struct SiteHealth {
    measurements: u64,
    faults: u64,
    timeouts: u64,
    tripped: bool,
}

impl SiteHealthBreaker {
    /// A breaker that latches a site whose rolling fault rate reaches
    /// `threshold`.
    ///
    /// # Panics
    ///
    /// Panics unless `threshold` is in `(0, 1]` — a zero threshold would
    /// quarantine every site on its first fault-free chunk.
    pub fn new(threshold: f64) -> Self {
        assert!(
            threshold.is_finite() && threshold > 0.0 && threshold <= 1.0,
            "site fault threshold {threshold} outside (0, 1]"
        );
        Self {
            threshold,
            sites: Vec::new(),
        }
    }

    /// Accumulates one per-touchdown ledger delta for `site`. Call in the
    /// deterministic fold order (the wafer engine's per-touchdown,
    /// per-site merge loop) so replayed and live campaigns agree.
    pub fn observe(&mut self, site: usize, delta: &MeasurementLedger) {
        if site >= self.sites.len() {
            self.sites.resize(site + 1, SiteHealth::default());
        }
        let health = &mut self.sites[site];
        health.measurements = health.measurements.saturating_add(delta.measurements());
        health.faults = health.faults.saturating_add(delta.injected_faults());
        health.timeouts = health.timeouts.saturating_add(delta.timeouts());
    }

    /// Evaluates trip conditions at a chunk boundary, latching every site
    /// whose rolling fault rate reached the threshold. Returns the site
    /// positions that latched **on this call**, in ascending order.
    pub fn end_chunk(&mut self) -> Vec<usize> {
        let mut newly = Vec::new();
        for (site, health) in self.sites.iter_mut().enumerate() {
            if health.tripped {
                continue;
            }
            if health.measurements.saturating_add(health.timeouts) < BREAKER_MIN_OBSERVATIONS {
                continue;
            }
            if Self::rate(health) >= self.threshold {
                health.tripped = true;
                newly.push(site);
            }
        }
        newly
    }

    /// Whether `site`'s breaker has latched open.
    pub fn is_open(&self, site: usize) -> bool {
        self.sites.get(site).is_some_and(|h| h.tripped)
    }

    /// The site's current rolling fault rate (0 when unobserved).
    pub fn fault_rate(&self, site: usize) -> f64 {
        self.sites.get(site).map_or(0.0, Self::rate)
    }

    /// Every latched site position, ascending.
    pub fn open_sites(&self) -> Vec<u64> {
        self.sites
            .iter()
            .enumerate()
            .filter(|(_, h)| h.tripped)
            .map(|(site, _)| site as u64)
            .collect()
    }

    fn rate(health: &SiteHealth) -> f64 {
        health.faults.saturating_add(health.timeouts) as f64 / health.measurements.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cichar_dut::MemoryDevice;
    use crate::drift::DriftModel;
    use crate::fault::TesterFaultModel;
    use crate::noise::NoiseModel;
    use cichar_dut::{Die, ProcessCorner};
    use cichar_patterns::march;

    fn march_test() -> Test {
        Test::deterministic("march_c-", march::march_c_minus(64))
    }

    fn harsh_config(seed: u64) -> AteConfig {
        AteConfig {
            noise: NoiseModel::new(0.05, 0.1, 0.01),
            drift: DriftModel::new(30.0, 1e5),
            faults: TesterFaultModel::transient(0.05, 0.05)
                .with_stuck_channels(0.02, 3)
                .with_session_aborts(0.01, 4),
            seed,
        }
    }

    fn corner_devices(n: usize) -> Vec<MemoryDevice> {
        let corners = [
            ProcessCorner::Typical,
            ProcessCorner::Fast,
            ProcessCorner::Slow,
            ProcessCorner::Noisy,
        ];
        (0..n)
            .map(|i| MemoryDevice::new(Die::at_corner(corners[i % corners.len()])))
            .collect()
    }

    /// A solo session identical to site `i` of `MultiSiteAte::new`.
    fn solo_site(i: usize, config: &AteConfig) -> Ate {
        let device = corner_devices(i + 1).pop().expect("device");
        Ate::with_config(
            device,
            AteConfig {
                seed: cichar_exec::derive_seed(config.seed, i as u64),
                ..config.clone()
            },
        )
    }

    #[test]
    fn touchdown_strobe_matches_solo_sessions_bit_exactly() {
        // The nastiest regime: noise, drift AND faults on, across four
        // sites with different dies.
        let config = harsh_config(0x5EED);
        let t = march_test();
        let pattern = t.pattern();
        let features = PatternFeatures::extract(&pattern);
        let cycles = pattern.len() as u64;
        let mut touchdown = MultiSiteAte::new(corner_devices(4), config.clone());

        let values: Vec<f64> = (0..40).map(|i| 25.0 + 0.3 * f64::from(i)).collect();
        let mut batched: Vec<Vec<Probe>> = vec![Vec::new(); 4];
        for &v in &values {
            let verdicts = touchdown.measure_sites(
                &features,
                cycles,
                &t,
                &[(ParamKind::StrobeDelay, v)],
            );
            for (site, verdict) in verdicts.into_iter().enumerate() {
                batched[site].push(verdict);
            }
        }

        for (site, batched) in batched.iter().enumerate() {
            let mut solo = solo_site(site, &config);
            let scalar: Vec<Probe> = values
                .iter()
                .map(|&v| {
                    solo.measure_features(
                        &features,
                        cycles,
                        &t,
                        &[(ParamKind::StrobeDelay, v)],
                    )
                })
                .collect();
            assert_eq!(*batched, scalar, "site {site} verdict stream");
            assert_eq!(
                *touchdown.site(site).ledger(),
                *solo.ledger(),
                "site {site} ledger"
            );
        }
    }

    #[test]
    fn merged_ledger_reconciles_with_per_site_ledgers() {
        let config = harsh_config(0xACC0);
        let t = march_test();
        let pattern = t.pattern();
        let features = PatternFeatures::extract(&pattern);
        let cycles = pattern.len() as u64;
        let mut touchdown = MultiSiteAte::new(corner_devices(3), config);
        for i in 0..30 {
            let _ = touchdown.measure_sites(
                &features,
                cycles,
                &t,
                &[(ParamKind::StrobeDelay, 28.0 + 0.2 * f64::from(i))],
            );
        }
        touchdown.site_mut(1).quarantine();

        let merged = touchdown.merged_ledger();
        let sum = |f: fn(&MeasurementLedger) -> u64| -> u64 {
            touchdown.sites().iter().map(|s| f(s.ledger())).sum()
        };
        assert_eq!(merged.measurements(), sum(MeasurementLedger::measurements));
        assert_eq!(merged.dropouts(), sum(MeasurementLedger::dropouts));
        assert_eq!(merged.flips(), sum(MeasurementLedger::flips));
        assert_eq!(merged.quarantined(), sum(MeasurementLedger::quarantined));
        assert_eq!(merged.quarantined(), 1);
        assert_eq!(merged.measurements(), 3 * 30);
    }

    fn ledger_with(measurements: u64, dropouts: u64, timeouts: u64) -> MeasurementLedger {
        let mut l = MeasurementLedger::new();
        for _ in 0..measurements {
            l.record(64, 100.0);
        }
        for _ in 0..dropouts {
            l.record_dropout();
        }
        for _ in 0..timeouts {
            l.record_timeout();
        }
        l
    }

    #[test]
    fn breaker_latches_only_past_threshold_and_min_observations() {
        let mut breaker = SiteHealthBreaker::new(0.5);
        // Faulty but under the observation floor: no trip yet.
        breaker.observe(0, &ledger_with(2, 2, 0));
        assert_eq!(breaker.end_chunk(), Vec::<usize>::new());
        assert!(!breaker.is_open(0));
        // More of the same pushes it over the floor and the threshold.
        breaker.observe(0, &ledger_with(6, 4, 0));
        assert_eq!(breaker.end_chunk(), vec![0]);
        assert!(breaker.is_open(0));
        assert_eq!(breaker.open_sites(), vec![0]);
        // Already-latched sites are not re-reported.
        breaker.observe(0, &ledger_with(4, 4, 0));
        assert_eq!(breaker.end_chunk(), Vec::<usize>::new());
    }

    #[test]
    fn healthy_sites_never_trip() {
        let mut breaker = SiteHealthBreaker::new(0.2);
        for _ in 0..50 {
            breaker.observe(0, &ledger_with(20, 1, 0));
            assert_eq!(breaker.end_chunk(), Vec::<usize>::new());
        }
        assert!(breaker.open_sites().is_empty());
        assert!(breaker.fault_rate(0) < 0.2);
        assert_eq!(breaker.fault_rate(7), 0.0, "unobserved sites are healthy");
    }

    #[test]
    fn watchdog_timeouts_count_toward_the_fault_rate() {
        let mut breaker = SiteHealthBreaker::new(0.5);
        // A site so hung it barely measures: timeouts alone must trip it.
        breaker.observe(2, &ledger_with(1, 0, 8));
        assert_eq!(breaker.end_chunk(), vec![2]);
        assert!(breaker.fault_rate(2) >= 0.5);
    }

    #[test]
    fn trips_evaluate_only_at_chunk_boundaries() {
        let mut breaker = SiteHealthBreaker::new(0.5);
        breaker.observe(1, &ledger_with(10, 10, 0));
        // No end_chunk yet: the site stays in service mid-chunk.
        assert!(!breaker.is_open(1));
        assert_eq!(breaker.end_chunk(), vec![1]);
    }

    #[test]
    #[should_panic(expected = "outside (0, 1]")]
    fn breaker_rejects_zero_threshold() {
        let _ = SiteHealthBreaker::new(0.0);
    }
}
