//! The fuzzy-neural test generator (fig. 5, step 1).
//!
//! "A number of GA test populations are initialized by a set of
//! sub-optimal tests selected by fuzzy-neural network test generator based
//! on its previous learning experience (NN weight file). It is called
//! sub-optimal because neural network can not guarantee that the generated
//! output will closely match the perfect approximation."
//!
//! The generator samples random candidate tests, asks the committee to
//! vote on each *without any measurement*, and returns the most severe
//! candidates. Software screening is orders of magnitude cheaper than ATE
//! time, so thousands of candidates can be sifted for each measured one.

use crate::learning::LearnedModel;
use cichar_neural::VoteScratch;
use cichar_patterns::{random, Test, TestConditions, TestSource};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;

/// One screened candidate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Candidate {
    /// The proposed test (re-labelled [`TestSource::Neural`]).
    pub test: Test,
    /// Committee-predicted severity in `[0, 1]`.
    pub predicted_severity: f64,
    /// Vote confidence in `[0, 1]`.
    pub confidence: f64,
}

/// Screens random tests through the learned committee.
///
/// # Examples
///
/// See [`crate::compare`] for the full pipeline; the proposal call is
///
/// ```ignore
/// let generator = NeuralTestGenerator::new(&model);
/// let seeds = generator.propose(2000, 24, None, &mut rng);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NeuralTestGenerator<'a> {
    model: &'a LearnedModel,
}

impl<'a> NeuralTestGenerator<'a> {
    /// Creates a generator over a learned model.
    pub fn new(model: &'a LearnedModel) -> Self {
        Self { model }
    }

    /// The backing model.
    pub fn model(&self) -> &LearnedModel {
        self.model
    }

    /// Samples `candidates` random tests, votes on each, and returns the
    /// `top_k` most severe, ordered worst-first; candidates of equal
    /// severity keep their sampling order.
    ///
    /// With `conditions` set, every candidate is pinned to those
    /// conditions (Table 1's fixed corner); otherwise conditions randomize
    /// over the model's space.
    ///
    /// Only the best `top_k` seen so far are held, and every vote reuses
    /// one scratch, so a screened candidate costs the allocations of its
    /// random test and nothing more.
    ///
    /// # Panics
    ///
    /// Panics if `top_k` is zero or exceeds `candidates`.
    pub fn propose<R: Rng + ?Sized>(
        &self,
        candidates: usize,
        top_k: usize,
        conditions: Option<TestConditions>,
        rng: &mut R,
    ) -> Vec<Candidate> {
        assert!(top_k > 0 && top_k <= candidates, "invalid top_k {top_k}");
        let mut scratch = VoteScratch::default();
        let mut kept: Vec<(usize, Candidate)> = Vec::with_capacity(top_k + 1);
        for i in 0..candidates {
            let test = match conditions {
                Some(c) => random::random_test_at(rng, c),
                None => random::random_test(rng, self.model.encoder.space()),
            };
            let (severity, confidence) = self.model.predict_severity(&test, &mut scratch);
            let candidate = Candidate {
                test,
                predicted_severity: severity,
                confidence,
            };
            keep_top(&mut kept, top_k, (i, candidate), |(_, c)| {
                c.predicted_severity
            });
        }
        kept.into_iter()
            .map(|(i, c)| Candidate {
                test: c
                    .test
                    .relabel(format!("nn_candidate_{i:05}"), TestSource::Neural),
                ..c
            })
            .collect()
    }
}

/// Offers `item` to `kept`, the at most `k` items of largest `key` seen so
/// far, largest first under `total_cmp`.
///
/// A newcomer goes after every kept item of equal key, so `kept` always
/// holds what a stable descending `sort_by` of every item offered,
/// truncated to `k`, would hold.
fn keep_top<T>(kept: &mut Vec<T>, k: usize, item: T, key: impl Fn(&T) -> f64) {
    let at = kept.partition_point(|e| key(e).total_cmp(&key(&item)) != Ordering::Less);
    if at < k {
        kept.insert(at, item);
        kept.truncate(k);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::learning::{LearningConfig, LearningScheme};
    use cichar_ate::Ate;
    use cichar_dut::MemoryDevice;
    use cichar_fuzzy::coding::CodingScheme;
    use cichar_neural::TrainConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model() -> LearnedModel {
        let mut ate = Ate::noiseless(MemoryDevice::nominal());
        let mut rng = StdRng::seed_from_u64(11);
        LearningScheme::new(LearningConfig {
            tests_per_round: 60,
            max_rounds: 2,
            committee_size: 3,
            hidden: vec![12],
            coding: CodingScheme::Numeric,
            train: TrainConfig {
                epochs: 150,
                ..TrainConfig::default()
            },
            ..LearningConfig::default()
        })
        .run(&mut ate, &mut rng)
    }

    /// The screen before bounded selection: every candidate scored and
    /// named, then a stable sort, worst first, and a truncation.
    fn propose_reference(
        model: &LearnedModel,
        candidates: usize,
        top_k: usize,
        conditions: Option<TestConditions>,
        rng: &mut StdRng,
    ) -> Vec<Candidate> {
        let mut scratch = VoteScratch::default();
        let mut scored: Vec<Candidate> = (0..candidates)
            .map(|i| {
                let test = match conditions {
                    Some(c) => random::random_test_at(rng, c),
                    None => random::random_test(rng, model.encoder.space()),
                };
                let (severity, confidence) = model.predict_severity(&test, &mut scratch);
                Candidate {
                    test: test.relabel(format!("nn_candidate_{i:05}"), TestSource::Neural),
                    predicted_severity: severity,
                    confidence,
                }
            })
            .collect();
        scored.sort_by(|a, b| b.predicted_severity.total_cmp(&a.predicted_severity));
        scored.truncate(top_k);
        scored
    }

    /// Severities drawn from a small pool, so ties are common, with both
    /// zeros, both infinities and NaNs of either sign.
    #[test]
    fn keep_top_matches_a_stable_sort_and_truncate() {
        let pool = [
            0.25,
            0.5,
            0.75,
            0.0,
            -0.0,
            1.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            0.5 + f64::EPSILON,
        ];
        let mut rng = StdRng::seed_from_u64(21);
        for round in 0..200 {
            let n = rng.gen_range(1..60);
            let keys: Vec<f64> = (0..n).map(|_| pool[rng.gen_range(0..pool.len())]).collect();
            let k = rng.gen_range(1..=n);
            let mut reference: Vec<(usize, f64)> = keys.iter().copied().enumerate().collect();
            reference.sort_by(|a, b| b.1.total_cmp(&a.1));
            reference.truncate(k);
            let mut kept = Vec::new();
            for item in keys.iter().copied().enumerate() {
                keep_top(&mut kept, k, item, |&(_, key)| key);
            }
            let bits = |v: &[(usize, f64)]| -> Vec<(usize, u64)> {
                v.iter().map(|&(i, key)| (i, key.to_bits())).collect()
            };
            assert_eq!(
                bits(&kept),
                bits(&reference),
                "round {round}: {keys:?}, k = {k}"
            );
        }
    }

    /// Same tests, names, severities and confidences as scoring every
    /// candidate and sorting, with free and pinned conditions.
    #[test]
    fn propose_matches_score_all_then_sort() {
        let model = model();
        let generator = NeuralTestGenerator::new(&model);
        for (seed, top_k, conditions) in [(17, 10, None), (18, 1, Some(TestConditions::nominal()))]
        {
            let got = generator.propose(300, top_k, conditions, &mut StdRng::seed_from_u64(seed));
            let want = propose_reference(
                &model,
                300,
                top_k,
                conditions,
                &mut StdRng::seed_from_u64(seed),
            );
            assert_eq!(got, want);
            let bits = |c: &[Candidate]| -> Vec<(u64, u64)> {
                c.iter()
                    .map(|c| (c.predicted_severity.to_bits(), c.confidence.to_bits()))
                    .collect()
            };
            assert_eq!(bits(&got), bits(&want));
        }
    }

    #[test]
    fn proposes_sorted_candidates() {
        let model = model();
        let generator = NeuralTestGenerator::new(&model);
        let mut rng = StdRng::seed_from_u64(12);
        let picks = generator.propose(200, 10, None, &mut rng);
        assert_eq!(picks.len(), 10);
        for pair in picks.windows(2) {
            assert!(pair[0].predicted_severity >= pair[1].predicted_severity);
        }
        assert!(picks
            .iter()
            .all(|c| c.test.source() == cichar_patterns::TestSource::Neural));
    }

    #[test]
    fn screened_tests_beat_random_average_on_the_real_device() {
        // The whole point of the generator: its top picks must actually
        // provoke lower t_dq than the random average when measured.
        use cichar_patterns::PatternFeatures;
        let model = model();
        let generator = NeuralTestGenerator::new(&model);
        let mut rng = StdRng::seed_from_u64(13);
        let nominal = TestConditions::nominal();
        let picks = generator.propose(400, 8, Some(nominal), &mut rng);

        let device = MemoryDevice::nominal();
        let measure = |t: &Test| {
            device
                .evaluate_features(&PatternFeatures::extract(&t.pattern()), &nominal)
                .t_dq
                .value()
        };
        let picked_mean: f64 =
            picks.iter().map(|c| measure(&c.test)).sum::<f64>() / picks.len() as f64;
        let mut rng2 = StdRng::seed_from_u64(14);
        let random_mean: f64 = (0..60)
            .map(|_| measure(&cichar_patterns::random::random_test_at(&mut rng2, nominal)))
            .sum::<f64>()
            / 60.0;
        assert!(
            picked_mean < random_mean - 0.3,
            "screened mean {picked_mean} vs random mean {random_mean}"
        );
    }

    #[test]
    fn conditions_pin_when_requested() {
        let model = model();
        let generator = NeuralTestGenerator::new(&model);
        let mut rng = StdRng::seed_from_u64(15);
        let nominal = TestConditions::nominal();
        let picks = generator.propose(50, 5, Some(nominal), &mut rng);
        assert!(picks.iter().all(|c| *c.test.conditions() == nominal));
    }

    #[test]
    #[should_panic(expected = "invalid top_k")]
    fn rejects_zero_top_k() {
        let model = model();
        let generator = NeuralTestGenerator::new(&model);
        let mut rng = StdRng::seed_from_u64(16);
        let _ = generator.propose(10, 0, None, &mut rng);
    }
}
