//! Training datasets and the crate error type.

use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Error raised by dataset or network construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NeuralError {
    /// Inputs and targets differ in count, or the set is empty.
    ShapeMismatch {
        /// Number of input rows provided.
        inputs: usize,
        /// Number of target rows provided.
        targets: usize,
    },
    /// Rows have inconsistent widths.
    RaggedRows,
    /// A network topology had fewer than two layers or a zero-width layer,
    /// or does not fit the committee or the targets it is used with.
    BadTopology,
    /// Input width at prediction time differs from the trained width.
    InputWidth {
        /// Width the network expects.
        expected: usize,
        /// Width the caller provided.
        got: usize,
    },
}

impl fmt::Display for NeuralError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NeuralError::ShapeMismatch { inputs, targets } => {
                write!(f, "dataset has {inputs} inputs but {targets} targets")
            }
            NeuralError::RaggedRows => f.write_str("dataset rows have inconsistent widths"),
            NeuralError::BadTopology => f.write_str(
                "network topology needs >= 2 non-empty layers matching its committee and targets",
            ),
            NeuralError::InputWidth { expected, got } => {
                write!(f, "network expects {expected} inputs, got {got}")
            }
        }
    }
}

impl Error for NeuralError {}

/// A supervised dataset: input rows and aligned target rows.
///
/// # Examples
///
/// ```
/// use cichar_neural::Dataset;
///
/// let d = Dataset::new(
///     vec![vec![0.0, 1.0], vec![1.0, 0.0]],
///     vec![vec![1.0], vec![0.0]],
/// )?;
/// assert_eq!(d.len(), 2);
/// assert_eq!(d.input_width(), 2);
/// assert_eq!(d.target_width(), 1);
/// # Ok::<(), cichar_neural::NeuralError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    inputs: Vec<Vec<f64>>,
    targets: Vec<Vec<f64>>,
}

impl Dataset {
    /// Builds a dataset, validating alignment and rectangularity.
    ///
    /// # Errors
    ///
    /// [`NeuralError::ShapeMismatch`] when counts differ or are zero;
    /// [`NeuralError::RaggedRows`] when any row's width differs.
    pub fn new(inputs: Vec<Vec<f64>>, targets: Vec<Vec<f64>>) -> Result<Self, NeuralError> {
        if inputs.is_empty() || inputs.len() != targets.len() {
            return Err(NeuralError::ShapeMismatch {
                inputs: inputs.len(),
                targets: targets.len(),
            });
        }
        let iw = inputs[0].len();
        let tw = targets[0].len();
        if iw == 0
            || tw == 0
            || inputs.iter().any(|r| r.len() != iw)
            || targets.iter().any(|r| r.len() != tw)
        {
            return Err(NeuralError::RaggedRows);
        }
        Ok(Self { inputs, targets })
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.inputs.len()
    }

    /// Whether the dataset is empty (construction forbids it, so `false`).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Width of every input row.
    pub fn input_width(&self) -> usize {
        self.inputs[0].len()
    }

    /// Width of every target row.
    pub fn target_width(&self) -> usize {
        self.targets[0].len()
    }

    /// The input rows.
    pub fn inputs(&self) -> &[Vec<f64>] {
        &self.inputs
    }

    /// The target rows.
    pub fn targets(&self) -> &[Vec<f64>] {
        &self.targets
    }

    /// Sample `(input, target)` at `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn sample(&self, i: usize) -> (&[f64], &[f64]) {
        (&self.inputs[i], &self.targets[i])
    }

    /// Splits into `(train, validation)` with `train_fraction` of samples
    /// (shuffled) in the training half. Both halves keep at least one
    /// sample.
    pub fn split<R: Rng + ?Sized>(&self, train_fraction: f64, rng: &mut R) -> (Dataset, Dataset) {
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.shuffle(rng);
        let cut = ((self.len() as f64 * train_fraction).round() as usize)
            .clamp(1, self.len().saturating_sub(1).max(1));
        let take = |ids: &[usize]| Dataset {
            inputs: ids.iter().map(|&i| self.inputs[i].clone()).collect(),
            targets: ids.iter().map(|&i| self.targets[i].clone()).collect(),
        };
        if self.len() == 1 {
            return (self.clone(), self.clone());
        }
        (take(&order[..cut]), take(&order[cut..]))
    }

    /// A bootstrap resample of the same size (sampling with replacement) —
    /// the "different subsets of the training input tests" each committee
    /// member trains on.
    pub fn bootstrap<R: Rng + ?Sized>(&self, rng: &mut R) -> Dataset {
        let ids: Vec<usize> = (0..self.len()).map(|_| rng.gen_range(0..self.len())).collect();
        Dataset {
            inputs: ids.iter().map(|&i| self.inputs[i].clone()).collect(),
            targets: ids.iter().map(|&i| self.targets[i].clone()).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn numbered(n: usize) -> Dataset {
        Dataset::new(
            (0..n).map(|i| vec![i as f64]).collect(),
            (0..n).map(|i| vec![i as f64 * 2.0]).collect(),
        )
        .expect("valid")
    }

    #[test]
    fn rejects_mismatched_and_ragged() {
        assert!(matches!(
            Dataset::new(vec![vec![1.0]], vec![]),
            Err(NeuralError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            Dataset::new(vec![vec![1.0], vec![1.0, 2.0]], vec![vec![1.0], vec![1.0]]),
            Err(NeuralError::RaggedRows)
        ));
        assert!(matches!(
            Dataset::new(vec![], vec![]),
            Err(NeuralError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn split_partitions_samples() {
        let d = numbered(10);
        let mut rng = StdRng::seed_from_u64(3);
        let (train, val) = d.split(0.8, &mut rng);
        assert_eq!(train.len(), 8);
        assert_eq!(val.len(), 2);
        let mut all: Vec<f64> = train
            .inputs()
            .iter()
            .chain(val.inputs())
            .map(|r| r[0])
            .collect();
        all.sort_by(f64::total_cmp);
        assert_eq!(all, (0..10).map(|i| i as f64).collect::<Vec<_>>());
    }

    #[test]
    fn split_keeps_both_halves_nonempty() {
        let d = numbered(2);
        let mut rng = StdRng::seed_from_u64(3);
        let (train, val) = d.split(0.99, &mut rng);
        assert_eq!(train.len(), 1);
        assert_eq!(val.len(), 1);
    }

    #[test]
    fn bootstrap_keeps_size_and_pairing() {
        let d = numbered(20);
        let mut rng = StdRng::seed_from_u64(9);
        let b = d.bootstrap(&mut rng);
        assert_eq!(b.len(), 20);
        for i in 0..b.len() {
            let (x, y) = b.sample(i);
            assert_eq!(y[0], x[0] * 2.0, "pairing preserved");
        }
    }

    #[test]
    fn bootstrap_differs_from_original() {
        let d = numbered(50);
        let mut rng = StdRng::seed_from_u64(9);
        let b = d.bootstrap(&mut rng);
        assert_ne!(b.inputs(), d.inputs(), "resample should repeat/omit rows");
    }

    #[test]
    fn error_display_is_specific() {
        let e = NeuralError::InputWidth { expected: 17, got: 3 };
        assert!(e.to_string().contains("17") && e.to_string().contains('3'));
    }
}
