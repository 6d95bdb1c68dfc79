//! Centralised (non-federated) training loop.
//!
//! Used in two places of the reproduction: pretraining the global model on
//! the source domain before federated learning starts, and the "Centralised"
//! upper-bound baseline of Tables II and IV. Both train every parameter, so
//! [`fit`] trains a [`FreezeLevel::Full`] snapshot — the same
//! [`crate::SuffixNet`] step a federated client runs — and writes it back.

use crate::block::BlockNet;
use crate::freeze::FreezeLevel;
use crate::optimizer::{Sgd, SgdConfig};
use crate::{NnError, Result};
use fedft_tensor::{rng, Matrix};
use rand::seq::SliceRandom;

/// Mini-batch size of [`fit`].
pub const BATCH_SIZE: usize = 64;

/// Trains every parameter of `model` on `(features, labels)` for `epochs`
/// passes of mini-batch SGD and returns the mean training loss of the final
/// epoch. Each epoch visits the rows in an order shuffled from `seed`, in
/// batches of [`BATCH_SIZE`].
///
/// The steps run on [`BlockNet::trainable_suffix`] at
/// [`FreezeLevel::Full`], whose boundary is the batch itself, and the
/// trained parameters are written back once, through
/// [`BlockNet::set_trainable_vector`]; on an error `model` is unchanged.
///
/// # Example
///
/// ```
/// use fedft_nn::{fit, BlockNet, BlockNetConfig, FreezeLevel, SgdConfig};
/// use fedft_tensor::Matrix;
///
/// # fn main() -> Result<(), fedft_nn::NnError> {
/// let mut net = BlockNet::new(&BlockNetConfig::new(4, 2).with_hidden(8, 8, 8), 0);
/// let x = Matrix::from_rows(&[vec![1.0, 0.0, 0.0, 0.0], vec![0.0, 0.0, 0.0, 1.0]]).unwrap();
/// fit(&mut net, &x, &[0, 1], 20, SgdConfig::default(), 0)?;
/// let report = net.evaluate_from(FreezeLevel::Full, &x, &[0, 1])?;
/// assert!(report.accuracy >= 0.5);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Returns [`NnError::InvalidConfig`] for zero epochs, an invalid optimiser
/// configuration, or data that is empty or has a label count other than
/// its row count; a shape error when the data does not fit the model.
pub fn fit(
    model: &mut BlockNet,
    features: &Matrix,
    labels: &[usize],
    epochs: usize,
    sgd: SgdConfig,
    seed: u64,
) -> Result<f32> {
    if epochs == 0 {
        return Err(NnError::InvalidConfig {
            what: "epochs must be non-zero".into(),
        });
    }
    let mut optimizer = Sgd::new(sgd)?;
    if features.rows() == 0 || features.rows() != labels.len() {
        return Err(NnError::InvalidConfig {
            what: format!(
                "training data mismatch: {} feature rows vs {} labels",
                features.rows(),
                labels.len()
            ),
        });
    }
    let mut suffix = model.trainable_suffix(FreezeLevel::Full);
    let mut order: Vec<usize> = (0..features.rows()).collect();
    let mut batch = Matrix::default();
    let mut batch_labels = Vec::with_capacity(BATCH_SIZE);
    let mut last_epoch_loss = 0.0;
    for epoch in 0..epochs {
        let mut shuffle_rng = rng::rng_for_indexed(seed, "trainer-shuffle", epoch as u64);
        order.shuffle(&mut shuffle_rng);
        let mut epoch_loss = 0.0;
        let mut batches = 0;
        for chunk in order.chunks(BATCH_SIZE) {
            features.select_rows_into(chunk, &mut batch);
            batch_labels.clear();
            batch_labels.extend(chunk.iter().map(|&i| labels[i]));
            epoch_loss += suffix.train_batch(&batch, &batch_labels, &mut optimizer)?;
            batches += 1;
        }
        last_epoch_loss = epoch_loss / batches.max(1) as f32;
    }
    // Free the momentum before `θ` is flattened, so the model, the snapshot,
    // the momentum and the flattened copy are never alive at once: that
    // moment would be pretraining's memory peak.
    drop(optimizer);
    model.set_trainable_vector(FreezeLevel::Full, &suffix.trainable_vector())?;
    Ok(last_epoch_loss)
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
        let (x, y) = toy_problem(5, 4, 1);
        let mut net = BlockNet::new(&BlockNetConfig::new(4, 2).with_hidden(8, 8, 8), 1);
        assert!(fit(&mut net, &x, &y, 1, SgdConfig::default(), 0).is_ok());
        assert!(fit(&mut net, &x, &y, 0, SgdConfig::default(), 0).is_err());
        let bad_sgd = SgdConfig {
            learning_rate: 0.0,
            ..SgdConfig::default()
        };
        assert!(fit(&mut net, &x, &y, 1, bad_sgd, 0).is_err());
    }

    #[test]
    fn fit_learns_separable_problem() {
        let (x, y) = toy_problem(40, 6, 3);
        let mut net = BlockNet::new(&BlockNetConfig::new(6, 2).with_hidden(16, 16, 16), 7);
        fit(&mut net, &x, &y, 10, SgdConfig::default(), 0).unwrap();
        let report = net.evaluate_from(FreezeLevel::Full, &x, &y).unwrap();
        assert!(report.accuracy > 0.9, "accuracy={}", report.accuracy);
        assert_eq!(report.samples, 80);
    }

    #[test]
    fn fit_is_deterministic_for_same_seed() {
        // 100 rows: two batches, whose members the seed decides.
        let (x, y) = toy_problem(50, 4, 5);
        let run = |seed: u64| {
            let mut net = BlockNet::new(&BlockNetConfig::new(4, 2).with_hidden(8, 8, 8), 1);
            fit(&mut net, &x, &y, 3, SgdConfig::default(), seed).unwrap();
            net.full_vector()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn fit_rejects_mismatched_data() {
        let (x, _) = toy_problem(5, 4, 1);
        let mut net = BlockNet::new(&BlockNetConfig::new(4, 2).with_hidden(8, 8, 8), 1);
        let sgd = SgdConfig::default();
        assert!(fit(&mut net, &x, &[0, 1], 5, sgd, 0).is_err());
        assert!(net.evaluate_from(FreezeLevel::Full, &x, &[0]).is_err());
        assert!(fit(&mut net, &Matrix::zeros(0, 4), &[], 5, sgd, 0).is_err());
    }
}
