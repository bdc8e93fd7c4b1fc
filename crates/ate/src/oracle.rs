//! Adapter: the tester as a search oracle.

use crate::params::MeasuredParam;
use crate::prepared::PreparedTest;
use crate::tester::Ate;
use cichar_patterns::{PatternFeatures, Test};
use cichar_units::ParamKind;
use cichar_search::{BatchOracle, PassFailOracle, Probe};
use cichar_trace::TraceEvent;

/// Borrows an [`Ate`] as a [`PassFailOracle`] for one test and one
/// parameter, so any `cichar-search` algorithm can drive the tester.
///
/// Pattern features are extracted once at construction: a trip-point search
/// applies the *same* stimulus at many parameter points, so the (pure)
/// feature extraction is hoisted out of the probe loop, mirroring how real
/// ATE loads the pattern into vector memory once per search.
///
/// Probes report `ProbeIssued` / `ProbeResolved` into the tester's
/// installed span, read through the borrowed tester at each emit (the
/// exclusive borrow keeps it from changing mid-search) rather than held
/// as a clone, with [`cichar_trace::SpanTrace::emit_with`], so a disabled
/// span never builds (or drops) an event.
///
/// # Examples
///
/// ```
/// use cichar_ate::{Ate, MeasuredParam};
/// use cichar_dut::MemoryDevice;
/// use cichar_patterns::{march, Test};
/// use cichar_search::{RegionOrder, SearchUntilTrip};
///
/// let mut ate = Ate::noiseless(MemoryDevice::nominal());
/// let test = Test::deterministic("march_y", march::march_y(96));
/// let param = MeasuredParam::MaxFrequency;
/// let stp = SearchUntilTrip::new(param.generous_range(), param.search_factor());
/// let outcome = stp.run(108.0, param.region_order(), ate.trip_oracle(&test, param));
/// assert!(outcome.converged);
/// ```
#[derive(Debug)]
pub struct TripOracle<'a> {
    ate: &'a mut Ate,
    test: &'a Test,
    param: MeasuredParam,
    features: PatternFeatures,
    pattern_cycles: u64,
    /// The stimulus' stress total, hoisted once per search: stress depends
    /// only on the pattern features, so every probe of the search shares
    /// one value (bit-identical to re-deriving it per probe — the scalar
    /// device path evaluates through the same stress-hoisted arithmetic).
    stress_total: f64,
    /// §4 relaxation forces plus one trailing slot for the strobed value,
    /// allocated once per search instead of once per probe. The last
    /// element is overwritten with `(param.kind(), value)` at each probe.
    forces: Vec<(ParamKind, f64)>,
    /// Precomputed memoization-key prefix (pattern + conditions +
    /// relaxation forces), present when the session can serve cached
    /// verdicts. Each probe extends it with the strobed value.
    memo_base: Option<u64>,
}

impl<'a> TripOracle<'a> {
    /// Creates the adapter (called via [`Ate::trip_oracle`]), expanding
    /// the pattern for this one search.
    pub(crate) fn new(ate: &'a mut Ate, test: &'a Test, param: MeasuredParam) -> Self {
        let prepared = PreparedTest::new(test);
        Self::from_prepared(ate, &prepared, param, Vec::new())
    }

    /// Creates the adapter from per-campaign hoisted test context and a
    /// recycled forces buffer (called via [`Ate::trip_oracle_prepared`]).
    /// The buffer is cleared and refilled with the §4 relaxation forces
    /// plus the trailing strobe slot; reclaim it after the search with
    /// [`TripOracle::into_forces`].
    pub(crate) fn from_prepared(
        ate: &'a mut Ate,
        prepared: &PreparedTest<'a>,
        param: MeasuredParam,
        mut forces: Vec<(ParamKind, f64)>,
    ) -> Self {
        let test = prepared.test();
        let memo_base = ate.memo_active().then(|| {
            crate::tester::probe_identity(
                prepared.pattern_hash(),
                test.conditions(),
                param.relax_forces(),
            )
        });
        // Install the prepared evaluator for the §4-relaxed conditions
        // this search probes at. Sweeps that vary an environmental
        // parameter (clock, supply) bypass the plan per probe; the strobe
        // sweep — the dominant workload — hits it on every probe.
        let (relaxed, _) = crate::tester::apply_forces(test.conditions(), param.relax_forces());
        ate.install_plan(&relaxed);
        let stress_total = ate.device().stress_total(prepared.features());
        forces.clear();
        forces.extend_from_slice(param.relax_forces());
        forces.push((param.kind(), f64::NAN));
        Self {
            ate,
            test,
            param,
            features: *prepared.features(),
            pattern_cycles: prepared.pattern_cycles(),
            stress_total,
            forces,
            memo_base,
        }
    }

    /// Consumes the oracle, releasing the tester borrow and returning the
    /// forces buffer for the next search to recycle.
    pub fn into_forces(self) -> Vec<(ParamKind, f64)> {
        self.forces
    }

    /// The parameter this oracle strobes.
    pub fn param(&self) -> MeasuredParam {
        self.param
    }

    /// The test this oracle applies.
    pub fn test(&self) -> &Test {
        self.test
    }

    /// One scalar probe, optionally marked speculative. Cache hits never
    /// count as speculative — they cost no measurement to discard.
    fn probe_marked(&mut self, value: f64, speculative: bool) -> Probe {
        let key = self.memo_base.map(|base| {
            let h = crate::tester::mix(base, self.param.kind() as u64);
            crate::tester::mix(h, value.to_bits())
        });
        if let Some(key) = key {
            if let Some(verdict) = self.ate.cache_lookup(key) {
                self.ate.trace().emit_with(|| TraceEvent::ProbeResolved {
                    value,
                    verdict: verdict.into(),
                    cached: true,
                });
                return verdict;
            }
        }
        self.ate
            .trace()
            .emit_with(|| TraceEvent::ProbeIssued { value, speculative });
        // §4 relaxation: non-measured parameters are forced to relaxed
        // values so only the strobed parameter can cause failure. The
        // strobed value lands in the preallocated trailing slot.
        *self.forces.last_mut().expect("trailing strobe slot") = (self.param.kind(), value);
        let verdict = self.ate.measure_features_with_stress(
            self.stress_total,
            self.pattern_cycles,
            self.test,
            &self.forces,
        );
        if speculative {
            self.ate.record_speculative(1);
        }
        if let Some(key) = key {
            self.ate.cache_store(key, verdict);
        }
        self.ate.trace().emit_with(|| TraceEvent::ProbeResolved {
            value,
            verdict: verdict.into(),
            cached: false,
        });
        verdict
    }
}

impl PassFailOracle for TripOracle<'_> {
    fn probe(&mut self, value: f64) -> Probe {
        self.probe_marked(value, false)
    }
}

impl BatchOracle for TripOracle<'_> {
    fn probe_batch_into(&mut self, values: &[f64], out: &mut Vec<Probe>) {
        self.probe_batch_speculative_into(values, values.len(), out);
    }

    /// Resolves the batch with bit-identical verdicts to the scalar loop,
    /// appending into a caller-owned buffer.
    ///
    /// With memoization active (noiseless, drift-free, fault-free session)
    /// the values are walked scalar-style so in-batch duplicates hit the
    /// cache exactly as sequential probes would. Otherwise every value is
    /// a physical measurement and the whole batch funnels into one
    /// [`Ate::measure_features_batch_into`] call, amortizing condition
    /// setup and the device's stress evaluation across the batch.
    fn probe_batch_speculative_into(
        &mut self,
        values: &[f64],
        first_speculative: usize,
        out: &mut Vec<Probe>,
    ) {
        if self.memo_base.is_some() {
            out.reserve(values.len());
            for (i, &v) in values.iter().enumerate() {
                let verdict = self.probe_marked(v, i >= first_speculative);
                out.push(verdict);
            }
            return;
        }
        for (i, &value) in values.iter().enumerate() {
            self.ate.trace().emit_with(|| TraceEvent::ProbeIssued {
                value,
                speculative: i >= first_speculative,
            });
        }
        // The relaxation prefix of the hoisted buffer (the trailing slot
        // is the scalar path's strobe; the batch strobes via `values`).
        let relax = &self.forces[..self.forces.len() - 1];
        let start = out.len();
        self.ate.measure_features_batch_into(
            &self.features,
            self.pattern_cycles,
            self.test,
            relax,
            self.param.kind(),
            values,
            out,
        );
        let speculated = values.len().saturating_sub(first_speculative) as u64;
        if speculated > 0 {
            self.ate.record_speculative(speculated);
        }
        for (&value, &verdict) in values.iter().zip(&out[start..]) {
            self.ate.trace().emit_with(|| TraceEvent::ProbeResolved {
                value,
                verdict: verdict.into(),
                cached: false,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cichar_dut::MemoryDevice;
    use cichar_patterns::march;
    use cichar_search::{BinarySearch, RegionOrder};

    #[test]
    fn oracle_probe_matches_direct_measure() {
        let test = Test::deterministic("march_x", march::march_x(96));
        let mut a = Ate::noiseless(MemoryDevice::nominal());
        let mut b = Ate::noiseless(MemoryDevice::nominal());
        let direct = a.measure(&test, MeasuredParam::DataValidTime, 30.0);
        let via_oracle = b
            .trip_oracle(&test, MeasuredParam::DataValidTime)
            .probe(30.0);
        assert_eq!(direct, via_oracle);
    }

    #[test]
    fn oracle_accessors_expose_context() {
        let test = Test::deterministic("march_x", march::march_x(96));
        let mut ate = Ate::noiseless(MemoryDevice::nominal());
        let oracle = ate.trip_oracle(&test, MeasuredParam::MinVoltage);
        assert_eq!(oracle.param(), MeasuredParam::MinVoltage);
        assert_eq!(oracle.test().name(), "march_x");
    }

    #[test]
    fn probe_batch_matches_scalar_probes_with_noise() {
        use crate::noise::NoiseModel;
        use crate::tester::AteConfig;
        let config = AteConfig {
            noise: NoiseModel::new(0.05, 0.1, 0.01),
            seed: 31,
            ..AteConfig::default()
        };
        let test = Test::deterministic("march_x", march::march_x(96));
        let values: Vec<f64> = (0..24).map(|i| 28.0 + 0.4 * f64::from(i)).collect();
        let mut a = Ate::with_config(MemoryDevice::nominal(), config.clone());
        let scalar: Vec<Probe> = {
            let mut oracle = a.trip_oracle(&test, MeasuredParam::DataValidTime);
            values.iter().map(|&v| oracle.probe(v)).collect()
        };
        let mut b = Ate::with_config(MemoryDevice::nominal(), config);
        let mut batch = Vec::new();
        b.trip_oracle(&test, MeasuredParam::DataValidTime)
            .probe_batch_into(&values, &mut batch);
        assert_eq!(batch, scalar);
        assert_eq!(*a.ledger(), *b.ledger());
    }

    #[test]
    fn speculative_tail_is_ledgered_but_verdicts_match() {
        let test = Test::deterministic("march_x", march::march_x(96));
        let values = [30.0, 28.0, 34.0];
        let mut plain_ate = Ate::noiseless(MemoryDevice::nominal());
        let mut plain = Vec::new();
        plain_ate
            .trip_oracle(&test, MeasuredParam::DataValidTime)
            .probe_batch_into(&values, &mut plain);
        let mut spec_ate = Ate::noiseless(MemoryDevice::nominal());
        let mut spec = Vec::new();
        spec_ate
            .trip_oracle(&test, MeasuredParam::DataValidTime)
            .probe_batch_speculative_into(&values, 1, &mut spec);
        assert_eq!(spec, plain, "the marker never changes physics");
        assert_eq!(plain_ate.ledger().speculative_probes(), 0);
        assert_eq!(spec_ate.ledger().speculative_probes(), 2);
        assert_eq!(spec_ate.ledger().non_speculative_measurements(), 1);
        assert_eq!(
            plain_ate.ledger().measurements(),
            spec_ate.ledger().measurements(),
            "speculative probes are still real measurements"
        );
    }

    #[test]
    fn prepared_oracle_matches_legacy_oracle_bit_for_bit() {
        // Harsh regime — noise, drift and faults all on — and a dirty,
        // recycled forces buffer across three different parameters: the
        // prepared construction must replay the legacy verdict and ledger
        // streams exactly.
        use crate::fault::TesterFaultModel;
        use crate::noise::NoiseModel;
        use crate::tester::AteConfig;
        let config = AteConfig {
            noise: NoiseModel::new(0.05, 0.1, 0.01),
            drift: crate::DriftModel::new(30.0, 1e5),
            faults: TesterFaultModel::transient(0.05, 0.05),
            seed: 99,
        };
        let test = Test::deterministic("march_x", march::march_x(96));
        let prepared = crate::PreparedTest::new(&test);
        let mut forces = Vec::new();
        for param in MeasuredParam::ALL {
            let values: Vec<f64> = {
                let r = param.generous_range();
                (0..24)
                    .map(|i| r.start() + r.width() * f64::from(i) / 23.0)
                    .collect()
            };
            let mut legacy_ate = Ate::with_config(MemoryDevice::nominal(), config.clone());
            let legacy: Vec<Probe> = {
                let mut oracle = legacy_ate.trip_oracle(&test, param);
                values.iter().map(|&v| oracle.probe(v)).collect()
            };
            let mut fresh_ate = Ate::with_config(MemoryDevice::nominal(), config.clone());
            let mut oracle =
                fresh_ate.trip_oracle_prepared(&prepared, param, std::mem::take(&mut forces));
            let got: Vec<Probe> = values.iter().map(|&v| oracle.probe(v)).collect();
            forces = oracle.into_forces();
            assert_eq!(got, legacy, "{param}");
            assert_eq!(*fresh_ate.ledger(), *legacy_ate.ledger(), "{param}");
        }
    }

    #[test]
    fn prepared_oracle_batches_match_legacy_batches() {
        let test = Test::deterministic("march_x", march::march_x(96));
        let prepared = crate::PreparedTest::new(&test);
        let values = [30.0, 28.0, 34.0, 31.5];
        let mut legacy_ate = Ate::new(MemoryDevice::nominal());
        let mut legacy = Vec::new();
        legacy_ate
            .trip_oracle(&test, MeasuredParam::DataValidTime)
            .probe_batch_speculative_into(&values, 2, &mut legacy);
        let mut fresh_ate = Ate::new(MemoryDevice::nominal());
        let mut oracle =
            fresh_ate.trip_oracle_prepared(&prepared, MeasuredParam::DataValidTime, Vec::new());
        let mut got = Vec::new();
        oracle.probe_batch_speculative_into(&values, 2, &mut got);
        drop(oracle);
        assert_eq!(got, legacy);
        assert_eq!(*fresh_ate.ledger(), *legacy_ate.ledger());
    }

    #[test]
    fn probe_batch_into_appends_without_clearing() {
        let test = Test::deterministic("march_x", march::march_x(96));
        let mut ate = Ate::noiseless(MemoryDevice::nominal());
        let mut out = vec![Probe::Invalid];
        ate.trip_oracle(&test, MeasuredParam::DataValidTime)
            .probe_batch_into(&[30.0, 34.0], &mut out);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0], Probe::Invalid, "sentinel survives");
        let mut twin = Ate::noiseless(MemoryDevice::nominal());
        let mut oracle = twin.trip_oracle(&test, MeasuredParam::DataValidTime);
        let scalar = [oracle.probe(30.0), oracle.probe(34.0)];
        assert_eq!(&out[1..], &scalar[..]);
    }

    #[test]
    fn memoized_batch_into_serves_duplicates_from_cache() {
        let test = Test::deterministic("march_x", march::march_x(96));
        let mut ate = Ate::noiseless(MemoryDevice::nominal()).with_memoization();
        let mut out = Vec::new();
        ate.trip_oracle(&test, MeasuredParam::DataValidTime)
            .probe_batch_into(&[30.0, 30.0, 34.0, 30.0], &mut out);
        assert_eq!(
            out,
            vec![Probe::Pass, Probe::Pass, Probe::Fail, Probe::Pass]
        );
        assert_eq!(ate.ledger().measurements(), 2);
        assert_eq!(ate.ledger().cached_probes(), 2);
    }

    #[test]
    fn searches_through_oracle_record_in_ledger() {
        let test = Test::deterministic("march_x", march::march_x(96));
        let mut ate = Ate::noiseless(MemoryDevice::nominal());
        let param = MeasuredParam::DataValidTime;
        let outcome = BinarySearch::new(param.generous_range(), param.resolution()).run(
            RegionOrder::PassBelowFail,
            ate.trip_oracle(&test, param),
        );
        assert_eq!(ate.ledger().measurements(), outcome.measurements() as u64);
    }
}
