//! Training loop with the paper's learnability and generalization checks.

use crate::dataset::Dataset;
use crate::mlp::{Mlp, Scratch};
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Maximum epochs.
    pub epochs: usize,
    /// Backpropagation step size.
    pub learning_rate: f64,
    /// Momentum coefficient.
    pub momentum: f64,
    /// Fraction of samples in the training split (rest validates).
    pub train_fraction: f64,
    /// Stop early once training MSE falls below this — fig. 4's "until
    /// learning and generalization error is small enough".
    pub target_mse: f64,
    /// Stop when validation MSE has not improved for this many epochs.
    pub patience: usize,
    /// Learnability bound: training MSE above this after the full budget
    /// means the network failed to learn the mapping.
    pub learnability_mse: f64,
    /// Generalization bound: validation MSE may exceed training MSE by at
    /// most this factor (plus an absolute floor) before the run is flagged
    /// as over-fitted.
    pub generalization_ratio: f64,
    /// L2 weight decay applied during backpropagation (0 disables).
    pub weight_decay: f64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 300,
            learning_rate: 0.2,
            momentum: 0.6,
            train_fraction: 0.8,
            target_mse: 1e-4,
            patience: 50,
            learnability_mse: 0.02,
            generalization_ratio: 4.0,
            weight_decay: 0.0,
        }
    }
}

/// The outcome of one training run.
///
/// Carries the two checks fig. 4's step (4) iterates on: *learnability*
/// (did the network fit the training tests?) and *generalization* (does it
/// transfer to held-out tests?). The learning scheme loops back to gather
/// more ATE data when either fails.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainReport {
    /// Epochs actually run.
    pub epochs_run: usize,
    /// Final mean squared error on the training split.
    pub final_train_mse: f64,
    /// Final mean squared error on the validation split.
    pub final_val_mse: f64,
    /// Training-MSE history, one entry per epoch.
    pub history: Vec<f64>,
    /// Whether training MSE reached the learnability bound.
    pub learnable: bool,
    /// Whether validation error stayed within the generalization bound.
    pub generalizes: bool,
}

impl TrainReport {
    /// Both checks passed — the weight file is ready for the optimization
    /// phase.
    pub fn accepted(&self) -> bool {
        self.learnable && self.generalizes
    }
}

impl fmt::Display for TrainReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} epochs, train mse {:.5}, val mse {:.5}, learnable={}, generalizes={}",
            self.epochs_run, self.final_train_mse, self.final_val_mse, self.learnable, self.generalizes
        )
    }
}

/// Mini-batch trainer with early stopping.
///
/// # Examples
///
/// ```
/// use cichar_neural::{Dataset, Mlp, TrainConfig, Trainer};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(5);
/// // y = x² on [0, 1].
/// let inputs: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64 / 49.0]).collect();
/// let targets: Vec<Vec<f64>> = inputs.iter().map(|x| vec![x[0] * x[0]]).collect();
/// let data = Dataset::new(inputs, targets)?;
/// let mut mlp = Mlp::new(&[1, 10, 1], &mut rng)?;
/// let report = Trainer::new(TrainConfig::default()).train(&mut mlp, &data, &mut rng);
/// assert!(report.accepted(), "{report}");
/// # Ok::<(), cichar_neural::NeuralError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Trainer {
    config: TrainConfig,
}

impl Trainer {
    /// Creates a trainer.
    pub fn new(config: TrainConfig) -> Self {
        Self { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Trains `mlp` on `data`, splitting off a validation set internally.
    ///
    /// # Panics
    ///
    /// Panics if `data`'s input or target width differs from the
    /// network's.
    pub fn train<R: Rng + ?Sized>(&self, mlp: &mut Mlp, data: &Dataset, rng: &mut R) -> TrainReport {
        assert_eq!(
            (data.input_width(), data.target_width()),
            (mlp.input_width(), mlp.output_width()),
            "dataset (input, target) width != network (input, output) width"
        );
        let c = &self.config;
        let mut scratch = Scratch::default();
        let (train, val) = data.split(c.train_fraction, rng);
        let mut history = Vec::with_capacity(c.epochs);
        let mut best_val = f64::INFINITY;
        let mut stale = 0usize;
        let mut order: Vec<usize> = (0..train.len()).collect();
        let mut epochs_run = 0;
        // Validation feeds only the patience counter, which rises at most
        // once per epoch: with more patience than epochs it can never stop
        // training, so the pass is skipped.
        let validate = c.patience <= c.epochs;
        for _ in 0..c.epochs {
            epochs_run += 1;
            order.shuffle(rng);
            let mut epoch_err = 0.0;
            for &i in &order {
                let (x, t) = train.sample(i);
                epoch_err += mlp.train_sample_decay(
                    x,
                    t,
                    c.learning_rate,
                    c.momentum,
                    c.weight_decay,
                    &mut scratch,
                );
            }
            let train_mse = epoch_err / train.len() as f64;
            history.push(train_mse);
            if train_mse < c.target_mse {
                break;
            }
            if !validate {
                continue;
            }
            let val_mse = mlp.mse_in(val.inputs(), val.targets(), &mut scratch);
            if val_mse + 1e-12 < best_val {
                best_val = val_mse;
                stale = 0;
            } else {
                stale += 1;
                if stale >= c.patience {
                    break;
                }
            }
        }
        let final_train_mse = mlp.mse_in(train.inputs(), train.targets(), &mut scratch);
        let final_val_mse = mlp.mse_in(val.inputs(), val.targets(), &mut scratch);
        let learnable = final_train_mse <= c.learnability_mse;
        let generalizes =
            final_val_mse <= c.generalization_ratio * final_train_mse.max(1e-4) + 1e-3;
        TrainReport {
            epochs_run,
            final_train_mse,
            final_val_mse,
            history,
            learnable,
            generalizes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn smooth_dataset(n: usize) -> Dataset {
        let inputs: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let x = i as f64 / (n - 1) as f64;
                vec![x, 1.0 - x]
            })
            .collect();
        let targets: Vec<Vec<f64>> = inputs
            .iter()
            .map(|x| vec![0.5 + 0.4 * (std::f64::consts::PI * x[0]).sin() * x[1]])
            .collect();
        Dataset::new(inputs, targets).expect("valid")
    }

    #[test]
    fn learns_a_smooth_function() {
        let mut rng = StdRng::seed_from_u64(2);
        let data = smooth_dataset(80);
        let mut mlp = Mlp::new(&[2, 10, 1], &mut rng).expect("valid");
        let report = Trainer::new(TrainConfig::default()).train(&mut mlp, &data, &mut rng);
        assert!(report.learnable, "{report}");
        assert!(report.generalizes, "{report}");
        assert!(report.accepted());
    }

    #[test]
    fn history_is_mostly_decreasing() {
        let mut rng = StdRng::seed_from_u64(3);
        let data = smooth_dataset(60);
        let mut mlp = Mlp::new(&[2, 8, 1], &mut rng).expect("valid");
        let report = Trainer::new(TrainConfig {
            epochs: 100,
            patience: 100,
            target_mse: 0.0,
            ..TrainConfig::default()
        })
        .train(&mut mlp, &data, &mut rng);
        let first = report.history[..5].iter().sum::<f64>() / 5.0;
        let last = report.history[report.history.len() - 5..].iter().sum::<f64>() / 5.0;
        assert!(last < first, "error should fall: {first} -> {last}");
    }

    #[test]
    fn early_stop_on_target_mse() {
        let mut rng = StdRng::seed_from_u64(4);
        let data = smooth_dataset(60);
        let mut mlp = Mlp::new(&[2, 10, 1], &mut rng).expect("valid");
        let report = Trainer::new(TrainConfig {
            epochs: 100_000,
            target_mse: 0.01,
            patience: 100_000,
            ..TrainConfig::default()
        })
        .train(&mut mlp, &data, &mut rng);
        assert!(report.epochs_run < 100_000, "stopped at {}", report.epochs_run);
    }

    #[test]
    fn unlearnable_noise_fails_learnability_check() {
        // Pure noise with one sample per input point and a tiny epoch
        // budget: training error stays high.
        let mut rng = StdRng::seed_from_u64(5);
        let inputs: Vec<Vec<f64>> = (0..64).map(|_| vec![rng.gen(), rng.gen()]).collect();
        let targets: Vec<Vec<f64>> = (0..64).map(|_| vec![f64::from(rng.gen::<bool>())]).collect();
        let data = Dataset::new(inputs, targets).expect("valid");
        let mut mlp = Mlp::new(&[2, 3, 1], &mut rng).expect("valid");
        let report = Trainer::new(TrainConfig {
            epochs: 30,
            learnability_mse: 0.01,
            patience: 1000,
            ..TrainConfig::default()
        })
        .train(&mut mlp, &data, &mut rng);
        assert!(!report.learnable, "{report}");
        assert!(!report.accepted());
    }

    #[test]
    fn patience_stops_stagnant_training() {
        let mut rng = StdRng::seed_from_u64(6);
        let data = smooth_dataset(40);
        let mut mlp = Mlp::new(&[2, 4, 1], &mut rng).expect("valid");
        let report = Trainer::new(TrainConfig {
            epochs: 100_000,
            learning_rate: 0.0, // cannot improve ⇒ patience must fire
            target_mse: 0.0,
            patience: 10,
            ..TrainConfig::default()
        })
        .train(&mut mlp, &data, &mut rng);
        assert!(report.epochs_run <= 12, "stopped at {}", report.epochs_run);
    }

    /// `patience = epochs` validates every epoch but cannot fire on
    /// finite data (the first epoch always improves on infinity);
    /// `usize::MAX` skips validation. Networks and reports agree bit for
    /// bit.
    #[test]
    fn skipping_validation_that_cannot_stop_training_changes_nothing() {
        let train = |patience: usize| {
            let mut rng = StdRng::seed_from_u64(9);
            let mut mlp = Mlp::new(&[2, 6, 1], &mut rng).expect("valid");
            let report = Trainer::new(TrainConfig {
                epochs: 40,
                target_mse: 0.0,
                patience,
                ..TrainConfig::default()
            })
            .train(&mut mlp, &smooth_dataset(50), &mut rng);
            // `Debug` prints every float exactly, `-0.0` included.
            (format!("{mlp:?}"), format!("{report:?}"))
        };
        let (validated, skipped) = (train(40), train(usize::MAX));
        assert_eq!(validated, skipped);
        assert!(validated.1.contains("epochs_run: 40"), "{}", validated.1);
    }

    #[test]
    #[should_panic(expected = "width")]
    fn training_on_a_dataset_of_another_width_panics() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut mlp = Mlp::new(&[3, 4, 1], &mut rng).expect("valid");
        Trainer::new(TrainConfig::default()).train(&mut mlp, &smooth_dataset(20), &mut rng);
    }

    #[test]
    fn report_display_mentions_checks() {
        let mut rng = StdRng::seed_from_u64(7);
        let data = smooth_dataset(40);
        let mut mlp = Mlp::new(&[2, 6, 1], &mut rng).expect("valid");
        let report = Trainer::new(TrainConfig::default()).train(&mut mlp, &data, &mut rng);
        let s = report.to_string();
        assert!(s.contains("learnable=") && s.contains("generalizes="), "{s}");
    }
}
