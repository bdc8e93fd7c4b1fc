//! Characterization over a statistically significant device sample.
//!
//! §1: "select a statistically significant sample of devices, and repeat
//! the test for every combination of two or more environmental variables.
//! … This set of information helps to define the final device
//! specification at the end of the characterization phase."
//!
//! [`SampleCharacterization`] runs a multiple-trip-point sweep for every
//! sampled die at every environmental corner and aggregates the population
//! statistics the final specification is cut from.

use crate::dsv::{MultiTripRunner, SearchStrategy};
use cichar_search::RetryPolicy;
use crate::wcr::{CharacterizationObjective, WcrClass};
use cichar_ate::{Ate, AteConfig, MeasuredParam};
use cichar_dut::{Device, Die, Lot, MemoryDevice};
use cichar_exec::ExecPolicy;
use cichar_patterns::{Test, TestConditions};
use cichar_trace::{SpanTrace, Tracer};
use cichar_units::{Celsius, Volts};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One die's result at one environmental corner.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CornerResult {
    /// The forced environmental corner.
    pub conditions: TestConditions,
    /// Worst (minimum for eq.-6 objectives) trip point across the tests.
    pub worst_trip_point: Option<f64>,
    /// Trip-point spread across the tests at this corner.
    pub spread: Option<f64>,
    /// Measurements spent at this corner.
    pub measurements: u64,
    /// Tests quarantined out of this corner's DSV (fault recovery could
    /// not produce a trustworthy trip point for them).
    pub quarantined: u64,
    /// Tests that converged only through retries or re-bracketing.
    pub recovered: u64,
}

/// One die's results across all corners.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DieResult {
    /// The sampled die.
    pub die: Die,
    /// Per-corner results, in corner order.
    pub corners: Vec<CornerResult>,
    /// The die's overall worst trip point across corners.
    pub worst_trip_point: Option<f64>,
    /// WCR of the overall worst trip point.
    pub worst_wcr: Option<f64>,
}

impl DieResult {
    /// Fig. 6 class of the die's worst corner.
    pub fn class(&self) -> Option<WcrClass> {
        self.worst_wcr.map(WcrClass::from_wcr)
    }
}

/// The population report the specification is cut from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SampleReport {
    /// Per-die results.
    pub dies: Vec<DieResult>,
    /// The characterized parameter.
    pub param: MeasuredParam,
    /// The WCR objective.
    pub objective: CharacterizationObjective,
    /// Total measurements across the whole sample.
    pub total_measurements: u64,
}

impl SampleReport {
    /// Tests quarantined across the whole sample — every one of them was
    /// excluded from the population statistics below.
    pub fn quarantined(&self) -> u64 {
        self.dies
            .iter()
            .flat_map(|d| &d.corners)
            .map(|c| c.quarantined)
            .sum()
    }

    /// Tests that needed fault recovery across the whole sample.
    pub fn recovered(&self) -> u64 {
        self.dies
            .iter()
            .flat_map(|d| &d.corners)
            .map(|c| c.recovered)
            .sum()
    }

    /// Worst trip points of every die that produced one.
    pub fn worst_trip_points(&self) -> Vec<f64> {
        self.dies
            .iter()
            .filter_map(|d| d.worst_trip_point)
            .collect()
    }

    /// The population's worst-case trip point — the number the final
    /// specification must cover.
    pub fn population_worst(&self) -> Option<f64> {
        self.worst_trip_points()
            .into_iter()
            .min_by(f64::total_cmp)
    }

    /// Mean of per-die worst trip points.
    pub fn population_mean(&self) -> Option<f64> {
        let v = self.worst_trip_points();
        if v.is_empty() {
            return None;
        }
        Some(v.iter().sum::<f64>() / v.len() as f64)
    }

    /// Sample standard deviation of per-die worst trip points.
    pub fn population_std(&self) -> Option<f64> {
        let v = self.worst_trip_points();
        if v.len() < 2 {
            return None;
        }
        let mean = self.population_mean().expect("non-empty");
        Some(
            (v.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (v.len() - 1) as f64).sqrt(),
        )
    }

    /// Dies whose worst corner violates the specification (fig. 6 fail).
    pub fn failing_dies(&self) -> Vec<&DieResult> {
        self.dies
            .iter()
            .filter(|d| d.class() == Some(WcrClass::Fail))
            .collect()
    }

    /// Margin between the population worst case and the specification, in
    /// the parameter's unit (negative = violation).
    pub fn spec_margin(&self) -> Option<f64> {
        let worst = self.population_worst()?;
        Some(match self.objective {
            CharacterizationObjective::DriftToMinimum { vmin } => worst - vmin,
            CharacterizationObjective::DriftToMaximum { vmax } => vmax - worst,
        })
    }

    /// The data-sheet limit this campaign supports — §1's "this set of
    /// information helps to define the final device specification".
    ///
    /// The suggested limit is the population worst case backed off by
    /// `k_sigma` population standard deviations (toward the conservative
    /// side for the objective's drift direction), so unseen dies from the
    /// same distribution stay covered.
    ///
    /// Returns `None` until at least two dies measured.
    pub fn suggest_spec(&self, k_sigma: f64) -> Option<f64> {
        let worst = self.population_worst()?;
        let sigma = self.population_std()?;
        Some(match self.objective {
            // Minimum-limited (eq. 6): promise less than the worst die.
            CharacterizationObjective::DriftToMinimum { .. } => worst - k_sigma * sigma,
            // Maximum-limited (eq. 5): promise more headroom than needed.
            CharacterizationObjective::DriftToMaximum { .. } => worst + k_sigma * sigma,
        })
    }
}

impl fmt::Display for SampleReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "sample of {} dies, {} corners each: population worst {:?}, mean {:?}, spec margin {:?}",
            self.dies.len(),
            self.dies.first().map_or(0, |d| d.corners.len()),
            self.population_worst(),
            self.population_mean(),
            self.spec_margin(),
        )
    }
}

/// Builds the §1 corner grid: every combination of the given supply and
/// temperature values at the nominal clock.
pub fn corner_grid(vdds: &[f64], temperatures: &[f64]) -> Vec<TestConditions> {
    let mut corners = Vec::with_capacity(vdds.len() * temperatures.len());
    for &v in vdds {
        for &t in temperatures {
            corners.push(
                TestConditions::nominal()
                    .with_vdd(Volts::new(v))
                    .with_temperature(Celsius::new(t)),
            );
        }
    }
    corners
}

/// Runs a characterization campaign over a sampled lot.
///
/// # Examples
///
/// ```
/// use cichar_core::sample::{corner_grid, SampleCharacterization};
/// use cichar_core::wcr::CharacterizationObjective;
/// use cichar_ate::MeasuredParam;
/// use cichar_dut::Lot;
/// use cichar_exec::ExecPolicy;
/// use cichar_patterns::{march, Test};
/// use cichar_trace::Tracer;
/// use rand::SeedableRng;
///
/// let campaign = SampleCharacterization::new(
///     MeasuredParam::DataValidTime,
///     CharacterizationObjective::drift_to_minimum(20.0),
///     corner_grid(&[1.65, 1.8, 1.95], &[25.0]),
/// );
/// let tests = vec![Test::deterministic("march_c-", march::march_c_minus(64))];
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let serial = ExecPolicy::serial();
/// let report = campaign.run(&Lot::default(), 5, &tests, serial, &mut rng, &Tracer::disabled());
/// assert_eq!(report.dies.len(), 5);
/// assert!(report.spec_margin().expect("measured") > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SampleCharacterization {
    param: MeasuredParam,
    objective: CharacterizationObjective,
    corners: Vec<TestConditions>,
    strategy: SearchStrategy,
    ate_config: AteConfig,
    recovery: Option<RetryPolicy>,
    /// The device prototype each die is characterized on (re-died via
    /// [`Device::for_die`]). Defaults to the nominal `memory` backend.
    device: Device,
}

impl SampleCharacterization {
    /// Creates a campaign over the given corners.
    ///
    /// # Panics
    ///
    /// Panics if `corners` is empty.
    pub fn new(
        param: MeasuredParam,
        objective: CharacterizationObjective,
        corners: Vec<TestConditions>,
    ) -> Self {
        assert!(!corners.is_empty(), "campaign needs at least one corner");
        Self {
            param,
            objective,
            corners,
            strategy: SearchStrategy::SearchUntilTrip,
            ate_config: AteConfig::default(),
            recovery: None,
            device: MemoryDevice::nominal().into(),
        }
    }

    /// Characterizes a different device backend: every die of the sample
    /// is instantiated as `device.for_die(die)`, so the campaign's
    /// structure carries to any registered backend.
    pub fn with_device(mut self, device: impl Into<Device>) -> Self {
        self.device = device.into();
        self
    }

    /// Uses an explicit tester configuration (noise/drift injection).
    pub fn with_ate_config(mut self, config: AteConfig) -> Self {
        self.ate_config = config;
        self
    }

    /// Uses full-range searches instead of STP (the cost baseline).
    pub fn with_full_range_searches(mut self) -> Self {
        self.strategy = SearchStrategy::FullRange;
        self
    }

    /// Enables the fault-tolerant measurement ladder on every die's sweep
    /// (see [`MultiTripRunner::with_recovery`]).
    pub fn with_recovery(mut self, policy: RetryPolicy) -> Self {
        self.recovery = Some(policy);
        self
    }

    /// The campaign's corners.
    pub fn corners(&self) -> &[TestConditions] {
        &self.corners
    }

    /// Samples `die_count` dies from `lot` and characterizes each over
    /// every corner with the given tests, with the per-die sweeps fanned
    /// out across worker threads and per-die spans recorded into `tracer`
    /// (pass [`Tracer::disabled`] to record nothing).
    ///
    /// Every die measures on a fresh tester session of its own with the
    /// campaign's configuration, so the per-die work is independent by
    /// construction: the report is bit-identical at every thread count,
    /// [`ExecPolicy::serial`] included, for every configuration — noisy
    /// and drifting testers too. There is no separate sequential body.
    ///
    /// Each sampled die gets one span keyed by its sample index; every
    /// search at every corner of that die reports into it. Workers fill
    /// their die's span privately; the coordinator absorbs spans in
    /// sample-index order, so the sequenced stream is identical for every
    /// thread count.
    pub fn run<R: Rng + ?Sized>(
        &self,
        lot: &Lot,
        die_count: usize,
        tests: &[Test],
        policy: ExecPolicy,
        rng: &mut R,
        tracer: &Tracer,
    ) -> SampleReport {
        let runner = self.runner();
        let sampled = lot.sample_dies(rng, die_count);
        let results = cichar_exec::par_map(policy, sampled, |index, die| {
            let span = tracer.span(index as u64);
            let result = self.characterize_die(&runner, die, tests, &span);
            // Stamp on the worker: the timing sidecar should measure the
            // die sweep, not the coordinator's absorb latency.
            span.mark_done();
            (result, span)
        });
        let dies = results
            .into_iter()
            .map(|(result, span)| {
                tracer.absorb(span);
                result
            })
            .collect();
        self.assemble(dies)
    }

    /// The per-die DSV runner with this campaign's recovery policy.
    fn runner(&self) -> MultiTripRunner {
        let runner = MultiTripRunner::new(self.param);
        match self.recovery {
            Some(policy) => runner.with_recovery(policy),
            None => runner,
        }
    }

    /// Runs one die's full corner sweep on its own fresh tester session,
    /// reporting every search into the die's `span`.
    fn characterize_die(
        &self,
        runner: &MultiTripRunner,
        die: Die,
        tests: &[Test],
        span: &SpanTrace,
    ) -> DieResult {
        // Each die goes onto a fresh tester session.
        let mut ate = Ate::with_config(self.device.for_die(die), self.ate_config.clone());
        let mut corners = Vec::with_capacity(self.corners.len());
        for &conditions in &self.corners {
            let corner_tests: Vec<Test> =
                tests.iter().map(|t| t.with_conditions(conditions)).collect();
            let baseline = *ate.ledger();
            let report = runner.run_in_span(&mut ate, &corner_tests, self.strategy, span);
            let measurements = ate.ledger().measurements_since(&baseline);
            corners.push(CornerResult {
                conditions,
                worst_trip_point: report.min(),
                spread: report.spread(),
                measurements,
                quarantined: report.quarantined() as u64,
                recovered: report.recovered() as u64,
            });
        }
        let worst_trip_point = corners
            .iter()
            .filter_map(|c| c.worst_trip_point)
            .min_by(f64::total_cmp);
        let worst_wcr = worst_trip_point.map(|tp| self.objective.wcr(tp));
        DieResult {
            die,
            corners,
            worst_trip_point,
            worst_wcr,
        }
    }

    fn assemble(&self, dies: Vec<DieResult>) -> SampleReport {
        let total = dies
            .iter()
            .flat_map(|d| &d.corners)
            .map(|c| c.measurements)
            .sum();
        SampleReport {
            dies,
            param: self.param,
            objective: self.objective,
            total_measurements: total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cichar_patterns::march;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn suite() -> Vec<Test> {
        vec![
            Test::deterministic("march_c-", march::march_c_minus(64)),
            Test::deterministic("checkerboard", march::checkerboard(128)),
        ]
    }

    fn campaign() -> SampleCharacterization {
        SampleCharacterization::new(
            MeasuredParam::DataValidTime,
            CharacterizationObjective::drift_to_minimum(20.0),
            corner_grid(&[1.65, 1.8, 1.95], &[25.0, 85.0]),
        )
    }

    #[test]
    fn corner_grid_is_a_full_product() {
        let corners = corner_grid(&[1.6, 1.8], &[-40.0, 25.0, 125.0]);
        assert_eq!(corners.len(), 6);
        assert!(corners
            .iter()
            .any(|c| c.vdd.value() == 1.6 && c.temperature.value() == 125.0));
    }

    #[test]
    fn every_die_gets_every_corner() {
        let mut rng = StdRng::seed_from_u64(3);
        let report = campaign().run(
            &Lot::default(),
            4,
            &suite(),
            ExecPolicy::serial(),
            &mut rng,
            &Tracer::disabled(),
        );
        assert_eq!(report.dies.len(), 4);
        for die in &report.dies {
            assert_eq!(die.corners.len(), 6);
            assert!(die.worst_trip_point.is_some());
        }
    }

    #[test]
    fn worst_corner_is_cold_supply_hot_die() {
        let mut rng = StdRng::seed_from_u64(4);
        let report = campaign().run(
            &Lot::default(),
            3,
            &suite(),
            ExecPolicy::serial(),
            &mut rng,
            &Tracer::disabled(),
        );
        for die in &report.dies {
            let worst_corner = die
                .corners
                .iter()
                .filter(|c| c.worst_trip_point.is_some())
                .min_by(|a, b| {
                    a.worst_trip_point
                        .expect("filtered")
                        .total_cmp(&b.worst_trip_point.expect("filtered"))
                })
                .expect("corners measured");
            assert_eq!(worst_corner.conditions.vdd.value(), 1.65);
            assert_eq!(worst_corner.conditions.temperature.value(), 85.0);
        }
    }

    #[test]
    fn population_statistics_are_consistent() {
        let mut rng = StdRng::seed_from_u64(5);
        let report = campaign().run(
            &Lot::default(),
            6,
            &suite(),
            ExecPolicy::serial(),
            &mut rng,
            &Tracer::disabled(),
        );
        let worst = report.population_worst().expect("measured");
        let mean = report.population_mean().expect("measured");
        assert!(worst <= mean);
        assert!(report.population_std().expect("n >= 2") >= 0.0);
        assert!(report.spec_margin().expect("measured") > 0.0, "healthy lot");
        assert!(report.failing_dies().is_empty());
        assert_eq!(
            report.total_measurements,
            report
                .dies
                .iter()
                .flat_map(|d| &d.corners)
                .map(|c| c.measurements)
                .sum::<u64>()
        );
    }

    #[test]
    fn die_variation_shows_in_the_population() {
        let mut rng = StdRng::seed_from_u64(6);
        let report = campaign().run(
            &Lot::default(),
            10,
            &suite(),
            ExecPolicy::serial(),
            &mut rng,
            &Tracer::disabled(),
        );
        let std = report.population_std().expect("n >= 2");
        assert!(std > 0.05, "die-to-die spread must be visible: {std}");
    }

    #[test]
    fn stp_campaign_is_cheaper_than_full_range() {
        let mut rng_a = StdRng::seed_from_u64(7);
        let stp = campaign().run(
            &Lot::default(),
            2,
            &suite(),
            ExecPolicy::serial(),
            &mut rng_a,
            &Tracer::disabled(),
        );
        let mut rng_b = StdRng::seed_from_u64(7);
        let full = campaign().with_full_range_searches().run(
            &Lot::default(),
            2,
            &suite(),
            ExecPolicy::serial(),
            &mut rng_b,
            &Tracer::disabled(),
        );
        assert!(
            stp.total_measurements < full.total_measurements,
            "{} vs {}",
            stp.total_measurements,
            full.total_measurements
        );
        // Same dies (same seed), same worst-case conclusion.
        let a = stp.population_worst().expect("measured");
        let b = full.population_worst().expect("measured");
        assert!((a - b).abs() < 0.2, "{a} vs {b}");
    }

    #[test]
    fn suggested_spec_is_conservative_and_covers_the_sample() {
        let mut rng = StdRng::seed_from_u64(9);
        let report = campaign().run(
            &Lot::default(),
            8,
            &suite(),
            ExecPolicy::serial(),
            &mut rng,
            &Tracer::disabled(),
        );
        let worst = report.population_worst().expect("measured");
        let spec = report.suggest_spec(3.0).expect("n >= 2");
        // Minimum-limited: the suggested limit sits below every measured
        // die's worst case.
        assert!(spec < worst);
        for die in &report.dies {
            assert!(die.worst_trip_point.expect("measured") > spec);
        }
        // Tighter k gives a less conservative (higher) limit.
        let loose = report.suggest_spec(1.0).expect("n >= 2");
        assert!(loose > spec);
    }

    #[test]
    fn parallel_run_is_bit_identical_even_with_noise() {
        use cichar_ate::{AteConfig, NoiseModel};
        let noisy = campaign().with_ate_config(AteConfig {
            noise: NoiseModel::new(0.02, 0.02, 0.002),
            seed: 41,
            ..AteConfig::default()
        });
        let mut rng_a = StdRng::seed_from_u64(11);
        let sequential = noisy.run(
            &Lot::default(),
            5,
            &suite(),
            ExecPolicy::serial(),
            &mut rng_a,
            &Tracer::disabled(),
        );
        let mut rng_b = StdRng::seed_from_u64(11);
        let parallel = noisy.run(
            &Lot::default(),
            5,
            &suite(),
            ExecPolicy::with_threads(8),
            &mut rng_b,
            &Tracer::disabled(),
        );
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn parallel_run_is_thread_count_invariant() {
        let mut rng_a = StdRng::seed_from_u64(12);
        let one = campaign().run(
            &Lot::default(),
            4,
            &suite(),
            ExecPolicy::serial(),
            &mut rng_a,
            &Tracer::disabled(),
        );
        let mut rng_b = StdRng::seed_from_u64(12);
        let many = campaign().run(
            &Lot::default(),
            4,
            &suite(),
            ExecPolicy::with_threads(8),
            &mut rng_b,
            &Tracer::disabled(),
        );
        assert_eq!(one, many);
    }

    #[test]
    #[should_panic(expected = "at least one corner")]
    fn rejects_empty_corner_list() {
        let _ = SampleCharacterization::new(
            MeasuredParam::DataValidTime,
            CharacterizationObjective::drift_to_minimum(20.0),
            vec![],
        );
    }

    #[test]
    fn display_summarizes_population() {
        let mut rng = StdRng::seed_from_u64(8);
        let report = campaign().run(
            &Lot::default(),
            2,
            &suite(),
            ExecPolicy::serial(),
            &mut rng,
            &Tracer::disabled(),
        );
        let s = report.to_string();
        assert!(s.contains("2 dies") && s.contains("spec margin"), "{s}");
    }

    #[test]
    fn faulty_sample_recovers_the_fault_free_specification() {
        use cichar_ate::{NoiseModel, TesterFaultModel};
        use cichar_search::RetryPolicy;
        // Dropout-prone probes across a sampled lot: the retry ladder
        // resolves every verdict, so the per-die worst cases — and the
        // specification cut from them — match the fault-free campaign
        // exactly (dropouts hide verdicts but never alter them).
        let faulty = campaign()
            .with_ate_config(AteConfig {
                noise: NoiseModel::noiseless(),
                faults: TesterFaultModel::transient(0.0, 0.15),
                seed: 17,
                ..AteConfig::default()
            })
            .with_recovery(RetryPolicy::new(8, 50.0));
        let mut rng_a = StdRng::seed_from_u64(19);
        let report = faulty.run(
            &Lot::default(),
            4,
            &suite(),
            ExecPolicy::serial(),
            &mut rng_a,
            &Tracer::disabled(),
        );
        assert!(report.recovered() > 0, "15% dropouts must need retries");

        let clean = campaign().with_ate_config(AteConfig {
            noise: NoiseModel::noiseless(),
            seed: 17,
            ..AteConfig::default()
        });
        let mut rng_b = StdRng::seed_from_u64(19);
        let baseline = clean.run(
            &Lot::default(),
            4,
            &suite(),
            ExecPolicy::serial(),
            &mut rng_b,
            &Tracer::disabled(),
        );
        // The only quarantines left are genuine unmeasurables (tests with
        // no trip in the generous range) that the fault-free campaign
        // withholds too — none are fault-induced.
        assert_eq!(report.quarantined(), baseline.quarantined(), "{report}");
        assert_eq!(report.population_worst(), baseline.population_worst());
        assert_eq!(report.suggest_spec(3.0), baseline.suggest_spec(3.0));
    }
}
