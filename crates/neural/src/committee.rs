//! The NN voting machine: bagged networks voting in parallel.

use crate::dataset::{Dataset, NeuralError};
use crate::mlp::{Mlp, Scratch};
use crate::train::{TrainConfig, TrainReport, Trainer};
use rand::Rng;
use serde::{Deserialize, Serialize, Value};
use std::fmt;

/// One committee prediction: the member votes, their mean and spread.
///
/// Fig. 4's step (1): "to measure how confident the neural net is in its
/// classification, we propose to use the NN voting machine algorithm, such
/// that multiple NNs are trained on different subsets of the training input
/// tests, then vote in parallel on unknown input tests."
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Vote {
    /// Mean of the member outputs (element-wise).
    pub mean: Vec<f64>,
    /// Standard deviation of the member outputs (element-wise).
    pub std_dev: Vec<f64>,
    /// Every member's raw output.
    pub members: Vec<Vec<f64>>,
}

impl Vote {
    /// Consistency-check confidence in `[0, 1]`: 1 when all members agree
    /// exactly, falling as the vote spread grows.
    pub fn confidence(&self) -> f64 {
        let spread =
            self.std_dev.iter().sum::<f64>() / self.std_dev.len().max(1) as f64;
        1.0 / (1.0 + 10.0 * spread)
    }
}

impl fmt::Display for Vote {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "vote mean {:?} (confidence {:.2})",
            self.mean,
            self.confidence()
        )
    }
}

/// The buffers [`Committee::vote_in`] reuses from one input to the next:
/// the members' forward-pass scratch and the vote it fills.
#[derive(Debug, Default)]
pub struct VoteScratch {
    forward: Scratch,
    vote: Vote,
}

/// A bagged committee of identically-shaped networks.
///
/// Each member trains on an independent bootstrap resample of the training
/// tests; prediction averages the member outputs, and the vote spread is
/// the consistency check of fig. 4's step (4).
///
/// # Examples
///
/// ```
/// use cichar_neural::{Committee, Dataset, TrainConfig};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let inputs: Vec<Vec<f64>> = (0..60).map(|i| vec![i as f64 / 59.0]).collect();
/// let targets: Vec<Vec<f64>> = inputs.iter().map(|x| vec![1.0 - x[0]]).collect();
/// let data = Dataset::new(inputs, targets)?;
/// let committee = Committee::train(&[1, 8, 1], 5, &TrainConfig::default(), &data, &mut rng)?;
/// let vote = committee.vote(&[0.25]);
/// assert!((vote.mean[0] - 0.75).abs() < 0.1);
/// assert!(vote.confidence() > 0.5);
/// # Ok::<(), cichar_neural::NeuralError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Committee {
    members: Vec<Mlp>,
    reports: Vec<TrainReport>,
}

impl Deserialize for Committee {
    /// Refuses an empty committee or members of different topologies, as
    /// [`Committee::from_members`] does.
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        #[derive(Deserialize)]
        struct CommitteeFile {
            members: Vec<Mlp>,
            reports: Vec<TrainReport>,
        }
        let CommitteeFile { members, reports } = CommitteeFile::from_value(v)?;
        check_members(&members).map_err(|e| serde::Error::custom(e.to_string()))?;
        Ok(Self { members, reports })
    }
}

/// A committee needs at least one member, and all members one topology.
fn check_members(members: &[Mlp]) -> Result<(), NeuralError> {
    match members.first() {
        Some(first) if members.iter().all(|m| m.topology() == first.topology()) => Ok(()),
        _ => Err(NeuralError::BadTopology),
    }
}

/// Checks a committee's training request before any member draws from
/// the RNG: a non-zero size, and a dataset as wide as the topology's input
/// and output layers.
fn check_request(topology: &[usize], size: usize, data: &Dataset) -> Result<(), NeuralError> {
    let (Some(&inputs), Some(&outputs)) = (topology.first(), topology.last()) else {
        return Err(NeuralError::BadTopology);
    };
    if size == 0 || data.target_width() != outputs {
        return Err(NeuralError::BadTopology);
    }
    if data.input_width() != inputs {
        return Err(NeuralError::InputWidth {
            expected: inputs,
            got: data.input_width(),
        });
    }
    Ok(())
}

impl Committee {
    /// Trains `size` members of the given topology on bootstrap resamples.
    ///
    /// # Errors
    ///
    /// Propagates topology errors; `size` of zero, or targets of another
    /// width than the output layer, is a topology error too, and inputs of
    /// another width than the input layer are [`NeuralError::InputWidth`].
    pub fn train<R: Rng + ?Sized>(
        topology: &[usize],
        size: usize,
        config: &TrainConfig,
        data: &Dataset,
        rng: &mut R,
    ) -> Result<Self, NeuralError> {
        check_request(topology, size, data)?;
        let trainer = Trainer::new(*config);
        let mut members = Vec::with_capacity(size);
        let mut reports = Vec::with_capacity(size);
        for _ in 0..size {
            let subset = data.bootstrap(rng);
            let mut mlp = Mlp::new(topology, rng)?;
            let report = trainer.train(&mut mlp, &subset, rng);
            members.push(mlp);
            reports.push(report);
        }
        Ok(Self { members, reports })
    }

    /// Builds a committee from pre-trained members (used when re-loading a
    /// persisted weight file).
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::BadTopology`] when empty or heterogeneous.
    pub fn from_members(members: Vec<Mlp>) -> Result<Self, NeuralError> {
        check_members(&members)?;
        Ok(Self {
            reports: Vec::new(),
            members,
        })
    }

    /// Number of members.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// The members' training reports (empty for re-loaded committees).
    pub fn reports(&self) -> &[TrainReport] {
        &self.reports
    }

    /// The members themselves.
    pub fn members(&self) -> &[Mlp] {
        &self.members
    }

    /// Average of the members' final validation errors — fig. 4's "the
    /// confidence in the classification is determined by averaging the
    /// mean error for each network".
    pub fn mean_validation_error(&self) -> f64 {
        if self.reports.is_empty() {
            return f64::NAN;
        }
        self.reports.iter().map(|r| r.final_val_mse).sum::<f64>() / self.reports.len() as f64
    }

    /// Whether every member passed both the learnability and the
    /// generalization check.
    pub fn accepted(&self) -> bool {
        !self.reports.is_empty() && self.reports.iter().all(TrainReport::accepted)
    }

    /// All members vote in parallel on an unknown input.
    ///
    /// # Panics
    ///
    /// Panics if `input` has the wrong width.
    pub fn vote(&self, input: &[f64]) -> Vote {
        let mut scratch = VoteScratch::default();
        self.vote_in(input, &mut scratch);
        scratch.vote
    }

    /// [`Self::vote`] into `scratch`'s buffers, which later votes reuse:
    /// once they have grown to this committee's shape, a vote makes no
    /// allocator call.
    ///
    /// # Panics
    ///
    /// Panics if `input` has the wrong width.
    pub fn vote_in<'s>(&self, input: &[f64], scratch: &'s mut VoteScratch) -> &'s Vote {
        let VoteScratch { forward, vote } = scratch;
        let Vote {
            mean,
            std_dev,
            members,
        } = vote;
        members.resize_with(self.members.len(), Vec::new);
        for (mlp, output) in self.members.iter().zip(members.iter_mut()) {
            output.clear();
            output.extend_from_slice(mlp.forward(input, forward));
        }
        let width = members[0].len();
        let n = members.len() as f64;
        mean.clear();
        mean.extend((0..width).map(|i| members.iter().map(|v| v[i]).sum::<f64>() / n));
        std_dev.clear();
        std_dev.extend((0..width).map(|i| {
            let var = members
                .iter()
                .map(|v| (v[i] - mean[i]).powi(2))
                .sum::<f64>()
                / n;
            var.sqrt()
        }));
        vote
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn line_dataset(n: usize) -> Dataset {
        let inputs: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 / (n - 1) as f64]).collect();
        let targets: Vec<Vec<f64>> = inputs.iter().map(|x| vec![0.1 + 0.8 * x[0]]).collect();
        Dataset::new(inputs, targets).expect("valid")
    }

    /// The vote as the committee computed it before [`VoteScratch`]: every
    /// member's output collected, then the mean and spread summed over them.
    fn vote_reference(committee: &Committee, input: &[f64]) -> Vote {
        let members: Vec<Vec<f64>> = committee.members.iter().map(|m| m.predict(input)).collect();
        let width = members[0].len();
        let n = members.len() as f64;
        let mean: Vec<f64> = (0..width)
            .map(|i| members.iter().map(|v| v[i]).sum::<f64>() / n)
            .collect();
        let std_dev: Vec<f64> = (0..width)
            .map(|i| {
                let var =
                    members.iter().map(|v| (v[i] - mean[i]).powi(2)).sum::<f64>() / n;
                var.sqrt()
            })
            .collect();
        Vote {
            mean,
            std_dev,
            members,
        }
    }

    fn vote_bits(vote: &Vote) -> Vec<u64> {
        let rows = [&vote.mean, &vote.std_dev].into_iter().chain(&vote.members);
        rows.flatten().map(|v| v.to_bits()).collect()
    }

    /// One scratch serves many inputs, and two committees of different
    /// shapes in turn; every vote matches the reference bit for bit.
    #[test]
    fn vote_in_reuses_one_scratch_and_matches_the_reference() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(20);
        let committees: Vec<Committee> = [[3, 5, 2].as_slice(), &[3, 4, 4, 1]]
            .iter()
            .zip([4, 2])
            .map(|(topology, size)| {
                let members = (0..size)
                    .map(|_| Mlp::new(topology, &mut rng).expect("valid"))
                    .collect();
                Committee::from_members(members).expect("homogeneous")
            })
            .collect();
        let mut scratch = VoteScratch::default();
        for round in 0..24 {
            let committee = &committees[round % 2];
            let input: Vec<f64> = (0..3).map(|_| rng.gen_range(-1.0..2.0)).collect();
            let want = vote_bits(&vote_reference(committee, &input));
            assert_eq!(vote_bits(committee.vote_in(&input, &mut scratch)), want);
            assert_eq!(vote_bits(&committee.vote(&input)), want);
        }
    }

    #[test]
    fn committee_trains_and_votes() {
        let mut rng = StdRng::seed_from_u64(8);
        let c = Committee::train(&[1, 8, 1], 5, &TrainConfig::default(), &line_dataset(60), &mut rng)
            .expect("trains");
        assert_eq!(c.size(), 5);
        let v = c.vote(&[0.5]);
        assert!((v.mean[0] - 0.5).abs() < 0.1, "vote {v}");
        assert_eq!(v.members.len(), 5);
    }

    #[test]
    fn confident_on_trained_region() {
        let mut rng = StdRng::seed_from_u64(9);
        let c = Committee::train(&[1, 8, 1], 5, &TrainConfig::default(), &line_dataset(60), &mut rng)
            .expect("trains");
        assert!(c.vote(&[0.4]).confidence() > 0.6);
        assert!(c.accepted(), "all members should pass checks");
        assert!(c.mean_validation_error() < 0.01);
    }

    #[test]
    fn datasets_of_another_width_are_rejected() {
        let wide_inputs = Dataset::new(vec![vec![0.1, 0.2]; 4], vec![vec![0.5]; 4]);
        let wide_targets = Dataset::new(vec![vec![0.1]; 4], vec![vec![0.5, 0.5]; 4]);
        let config = TrainConfig::default();
        for (data, want) in [
            (wide_inputs, NeuralError::InputWidth { expected: 1, got: 2 }),
            (wide_targets, NeuralError::BadTopology),
        ] {
            let data = data.expect("valid");
            let mut rng = StdRng::seed_from_u64(17);
            let trained = Committee::train(&[1, 4, 1], 2, &config, &data, &mut rng);
            assert_eq!(trained, Err(want));
        }
    }

    #[test]
    fn empty_or_mixed_committee_files_are_refused() {
        let mut rng = StdRng::seed_from_u64(18);
        let a = Mlp::new(&[2, 3, 1], &mut rng).expect("valid");
        let b = Mlp::new(&[2, 4, 1], &mut rng).expect("valid");
        for members in [vec![], vec![a.clone(), b]] {
            let json = serde_json::to_string(&Committee { members, reports: Vec::new() })
                .expect("serializes");
            assert!(serde_json::from_str::<Committee>(&json).is_err(), "{json}");
        }
        let json = serde_json::to_string(&Committee::from_members(vec![a]).expect("one member"))
            .expect("serializes");
        assert!(serde_json::from_str::<Committee>(&json).is_ok());
    }

    /// Every prefix and every single-byte mutation of a committee file
    /// either fails to load or loads a committee that can vote.
    #[test]
    fn no_prefix_or_byte_mutation_of_a_committee_file_panics() {
        let mut rng = StdRng::seed_from_u64(19);
        let members = (0..2)
            .map(|_| Mlp::new(&[2, 1, 1], &mut rng).expect("valid"))
            .collect();
        let committee = Committee::from_members(members).expect("homogeneous");
        let json = serde_json::to_string(&committee).expect("serializes");
        let vote = |text: &str| {
            if let Ok(c) = serde_json::from_str::<Committee>(text) {
                let _ = c.vote(&vec![0.5; c.members()[0].input_width()]);
            }
        };
        for end in 0..json.len() {
            vote(&json[..end]);
        }
        let mut bytes = json.into_bytes();
        for pos in 0..bytes.len() {
            let original = bytes[pos];
            for b in (0..=255u8).filter(|&b| b != original) {
                bytes[pos] = b;
                if let Ok(text) = std::str::from_utf8(&bytes) {
                    vote(text);
                }
            }
            bytes[pos] = original;
        }
    }

    #[test]
    fn zero_size_is_rejected() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(matches!(
            Committee::train(&[1, 1], 0, &TrainConfig::default(), &line_dataset(10), &mut rng),
            Err(NeuralError::BadTopology)
        ));
    }

    #[test]
    fn from_members_validates_homogeneity() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = Mlp::new(&[2, 3, 1], &mut rng).expect("valid");
        let b = Mlp::new(&[2, 4, 1], &mut rng).expect("valid");
        assert!(matches!(
            Committee::from_members(vec![a.clone(), b]),
            Err(NeuralError::BadTopology)
        ));
        assert!(Committee::from_members(vec![]).is_err());
        let c = Committee::from_members(vec![a.clone(), a]).expect("homogeneous");
        assert_eq!(c.size(), 2);
        assert!(c.mean_validation_error().is_nan(), "no reports when re-loaded");
    }

    #[test]
    fn identical_members_vote_with_full_confidence() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = Mlp::new(&[1, 3, 1], &mut rng).expect("valid");
        let c = Committee::from_members(vec![m.clone(), m.clone(), m]).expect("homogeneous");
        let v = c.vote(&[0.3]);
        assert!(v.std_dev[0] < 1e-15);
        assert!((v.confidence() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn vote_display_mentions_confidence() {
        let mut rng = StdRng::seed_from_u64(4);
        let m = Mlp::new(&[1, 2, 1], &mut rng).expect("valid");
        let c = Committee::from_members(vec![m]).expect("single member");
        assert!(c.vote(&[0.5]).to_string().contains("confidence"));
    }
}
