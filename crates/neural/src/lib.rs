//! From-scratch neural networks for device characterization.
//!
//! §5 of the paper uses "single/multiple neural networks" under supervised
//! learning — the ATE provides trip-point labels for random tests — with
//! "iterative network learnability and generalization check" and an "NN
//! voting machine algorithm, such that multiple NNs are trained on
//! different subsets of the training input tests, then vote in parallel on
//! unknown input tests" (fig. 4, steps 1 and 4). This crate implements that
//! stack with no external dependencies beyond `rand`:
//!
//! * [`Mlp`] — a multilayer perceptron with backpropagation and momentum
//!   (the classic recipe of the paper's refs \[12\]\[14\]);
//! * [`Trainer`] / [`TrainReport`] — mini-batch training with early
//!   stopping plus the learnability and generalization checks;
//! * [`Committee`] — bagged networks with mean voting and the
//!   "confidence … determined by averaging the mean error for each
//!   network" consistency check;
//! * [`MinMaxScaler`] — feature/target normalization.
//!
//! # Examples
//!
//! Learn XOR — the canonical "is backprop wired correctly" check:
//!
//! ```
//! use cichar_neural::{Dataset, Mlp, TrainConfig, Trainer};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(42);
//! let dataset = Dataset::new(
//!     vec![vec![0., 0.], vec![0., 1.], vec![1., 0.], vec![1., 1.]],
//!     vec![vec![0.], vec![1.], vec![1.], vec![0.]],
//! )?;
//! let mut mlp = Mlp::new(&[2, 8, 1], &mut rng)?;
//! let report = Trainer::new(TrainConfig {
//!     epochs: 4000,
//!     learning_rate: 0.6,
//!     ..TrainConfig::default()
//! })
//! .train(&mut mlp, &dataset, &mut rng);
//! assert!(report.final_train_mse < 0.05, "mse = {}", report.final_train_mse);
//! assert!(mlp.predict(&[1.0, 0.0])[0] > 0.7);
//! # Ok::<(), cichar_neural::NeuralError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod activation;
mod committee;
mod dataset;
mod mlp;
mod scale;
mod train;

pub use activation::Activation;
pub use committee::{Committee, Vote, VoteScratch};
pub use dataset::{Dataset, NeuralError};
pub use mlp::Mlp;
pub use scale::MinMaxScaler;
pub use train::{TrainConfig, TrainReport, Trainer};
