//! Centralised (non-federated) training loop.
//!
//! Used in two places of the reproduction: pretraining the global model on
//! the source domain before federated learning starts, and the "Centralised"
//! upper-bound baseline of Tables II and IV.

use crate::block::BlockNet;
use crate::freeze::FreezeLevel;
use crate::optimizer::{Sgd, SgdConfig};
use crate::{NnError, Result};
use fedft_tensor::{rng, Matrix};
use rand::seq::SliceRandom;
use serde::{Deserialize, Serialize};

/// Configuration of the centralised trainer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainerConfig {
    /// Number of passes over the training data.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Optimiser hyper-parameters.
    pub sgd: SgdConfig,
    /// Which part of the model to train.
    pub freeze: FreezeLevel,
    /// Seed controlling batch shuffling.
    pub seed: u64,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        TrainerConfig {
            epochs: 5,
            batch_size: 32,
            sgd: SgdConfig::default(),
            freeze: FreezeLevel::Full,
            seed: 0,
        }
    }
}

impl TrainerConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] for zero epochs or batch size, or
    /// an invalid optimiser configuration.
    pub fn validate(&self) -> Result<()> {
        if self.epochs == 0 {
            return Err(NnError::InvalidConfig {
                what: "epochs must be non-zero".into(),
            });
        }
        if self.batch_size == 0 {
            return Err(NnError::InvalidConfig {
                what: "batch_size must be non-zero".into(),
            });
        }
        self.sgd.validate()
    }
}

/// Mini-batch SGD trainer for a [`BlockNet`].
///
/// # Example
///
/// ```
/// use fedft_nn::{BlockNet, BlockNetConfig, FreezeLevel, Trainer, TrainerConfig};
/// use fedft_tensor::Matrix;
///
/// # fn main() -> Result<(), fedft_nn::NnError> {
/// let mut net = BlockNet::new(&BlockNetConfig::new(4, 2).with_hidden(8, 8, 8), 0);
/// let x = Matrix::from_rows(&[vec![1.0, 0.0, 0.0, 0.0], vec![0.0, 0.0, 0.0, 1.0]]).unwrap();
/// let trainer = Trainer::new(TrainerConfig { epochs: 20, ..Default::default() })?;
/// trainer.fit(&mut net, &x, &[0, 1])?;
/// let report = net.evaluate_from(FreezeLevel::Full, &x, &[0, 1])?;
/// assert!(report.accuracy >= 0.5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Trainer {
    config: TrainerConfig,
}

impl Trainer {
    /// Creates a trainer after validating the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] when the configuration is invalid.
    pub fn new(config: TrainerConfig) -> Result<Self> {
        config.validate()?;
        Ok(Trainer { config })
    }

    /// The trainer configuration.
    pub fn config(&self) -> &TrainerConfig {
        &self.config
    }

    /// Trains `model` on `(features, labels)` and returns the mean training
    /// loss of the final epoch.
    ///
    /// # Errors
    ///
    /// Returns an error when the data is empty or inconsistent with the
    /// model.
    pub fn fit(&self, model: &mut BlockNet, features: &Matrix, labels: &[usize]) -> Result<f32> {
        if features.rows() == 0 || features.rows() != labels.len() {
            return Err(NnError::InvalidConfig {
                what: format!(
                    "training data mismatch: {} feature rows vs {} labels",
                    features.rows(),
                    labels.len()
                ),
            });
        }
        let mut optimizer = Sgd::new(self.config.sgd)?;
        let mut order: Vec<usize> = (0..features.rows()).collect();
        let mut last_epoch_loss = 0.0;
        for epoch in 0..self.config.epochs {
            let mut shuffle_rng =
                rng::rng_for_indexed(self.config.seed, "trainer-shuffle", epoch as u64);
            order.shuffle(&mut shuffle_rng);
            let mut epoch_loss = 0.0;
            let mut batches = 0;
            for chunk in order.chunks(self.config.batch_size) {
                let batch_x = features.select_rows(chunk);
                let batch_y: Vec<usize> = chunk.iter().map(|&i| labels[i]).collect();
                epoch_loss +=
                    model.train_batch(&batch_x, &batch_y, &mut optimizer, self.config.freeze)?;
                batches += 1;
            }
            last_epoch_loss = epoch_loss / batches.max(1) as f32;
        }
        Ok(last_epoch_loss)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockNetConfig;
    use fedft_tensor::init;

    /// Builds a linearly separable two-class toy problem.
    fn toy_problem(n_per_class: usize, dim: usize, seed: u64) -> (Matrix, Vec<usize>) {
        let mut r = rng::rng_for(seed, "toy");
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for class in 0..2usize {
            let offset = if class == 0 { -1.0 } else { 1.0 };
            let noise = init::normal(&mut r, n_per_class, dim, offset, 0.3);
            for i in 0..n_per_class {
                rows.push(noise.row(i).to_vec());
                labels.push(class);
            }
        }
        (Matrix::from_rows(&rows).unwrap(), labels)
    }

    #[test]
    fn config_validation() {
        assert!(TrainerConfig::default().validate().is_ok());
        assert!(TrainerConfig {
            epochs: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(TrainerConfig {
            batch_size: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(Trainer::new(TrainerConfig {
            epochs: 0,
            ..Default::default()
        })
        .is_err());
    }

    #[test]
    fn fit_learns_separable_problem() {
        let (x, y) = toy_problem(40, 6, 3);
        let mut net = BlockNet::new(&BlockNetConfig::new(6, 2).with_hidden(16, 16, 16), 7);
        let trainer = Trainer::new(TrainerConfig {
            epochs: 10,
            batch_size: 16,
            ..Default::default()
        })
        .unwrap();
        trainer.fit(&mut net, &x, &y).unwrap();
        let report = net.evaluate_from(FreezeLevel::Full, &x, &y).unwrap();
        assert!(report.accuracy > 0.9, "accuracy={}", report.accuracy);
        assert_eq!(report.samples, 80);
    }

    #[test]
    fn fit_is_deterministic_for_same_seed() {
        let (x, y) = toy_problem(20, 4, 5);
        let run = |seed: u64| {
            let mut net = BlockNet::new(&BlockNetConfig::new(4, 2).with_hidden(8, 8, 8), 1);
            let trainer = Trainer::new(TrainerConfig {
                epochs: 3,
                batch_size: 8,
                seed,
                ..Default::default()
            })
            .unwrap();
            trainer.fit(&mut net, &x, &y).unwrap();
            net.full_vector()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn fit_rejects_mismatched_data() {
        let (x, _) = toy_problem(5, 4, 1);
        let mut net = BlockNet::new(&BlockNetConfig::new(4, 2).with_hidden(8, 8, 8), 1);
        let trainer = Trainer::new(TrainerConfig::default()).unwrap();
        assert!(trainer.fit(&mut net, &x, &[0, 1]).is_err());
        assert!(net.evaluate_from(FreezeLevel::Full, &x, &[0]).is_err());
        assert!(trainer.fit(&mut net, &Matrix::zeros(0, 4), &[]).is_err());
    }

    #[test]
    fn classifier_only_training_still_learns_something() {
        let (x, y) = toy_problem(40, 6, 13);
        let mut net = BlockNet::new(&BlockNetConfig::new(6, 2).with_hidden(16, 16, 16), 7);
        let trainer = Trainer::new(TrainerConfig {
            epochs: 15,
            batch_size: 16,
            freeze: FreezeLevel::Classifier,
            ..Default::default()
        })
        .unwrap();
        trainer.fit(&mut net, &x, &y).unwrap();
        let report = net.evaluate_from(FreezeLevel::Full, &x, &y).unwrap();
        assert!(report.accuracy > 0.7, "accuracy={}", report.accuracy);
    }
}
