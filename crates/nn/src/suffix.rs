//! The trainable suffix `θ` of a [`crate::BlockNet`], detached from the
//! frozen backbone `ϕ`.
//!
//! Partial fine-tuning only ever trains the blocks above the freeze
//! boundary, so a client does not need its own copy of the backbone: it can
//! share the server's model for the (read-only) frozen forward pass and keep
//! a private [`SuffixNet`] — an `O(|θ|)` snapshot of just the trainable
//! blocks — for local training. All suffix arithmetic lives in the
//! crate-private helpers below, which [`crate::BlockNet`] delegates to as
//! well, so the full-model and split paths are the *same code* on the same
//! inputs and therefore produce bit-identical results.

use crate::freeze::FreezeLevel;
use crate::loss::SoftmaxCrossEntropy;
use crate::optimizer::Sgd;
use crate::params::ParamVector;
use crate::sequential::{chain, Sequential};
use crate::Result;
use fedft_tensor::{stats, Matrix};

/// Forward pass through a run of blocks, starting from boundary activations:
/// the activation-storing pass when `training`, [`infer_blocks`] otherwise.
pub(crate) fn forward_blocks(
    blocks: &mut [Sequential],
    input: &Matrix,
    training: bool,
) -> Result<Matrix> {
    if !training {
        return infer_blocks(blocks, input);
    }
    chain(blocks, input, |block, x| block.forward(x, true))
}

/// Inference pass through a run of blocks via a shared reference: the one
/// read-only forward behind [`crate::BlockNet::forward_frozen`] (the blocks
/// below a boundary) and [`crate::BlockNet::forward_from`] (the blocks above
/// it).
pub(crate) fn infer_blocks(blocks: &[Sequential], input: &Matrix) -> Result<Matrix> {
    chain(blocks, input, |block, x| block.forward_frozen(x))
}

/// One training step on a run of blocks: forward from the boundary
/// activations, loss, backward through every block, optimiser step.
///
/// This is the single implementation of the suffix training step;
/// [`crate::BlockNet::train_batch`] and [`SuffixNet::train_batch`] both
/// lower to it, which is what pins their bit-identity.
pub(crate) fn train_blocks(
    blocks: &mut [Sequential],
    loss: &SoftmaxCrossEntropy,
    input: &Matrix,
    labels: &[usize],
    optimizer: &mut Sgd,
) -> Result<f32> {
    let logits = forward_blocks(blocks, input, true)?;
    let (loss_value, mut grad) = loss.forward_backward(&logits, labels)?;
    for block in blocks.iter_mut() {
        block.zero_grads();
    }
    // Backward through the trainable blocks only, in reverse order.
    for block in blocks.iter_mut().rev() {
        grad = block.backward(&grad)?;
    }
    let grads: Vec<Matrix> = blocks
        .iter()
        .flat_map(|b| b.grads().into_iter().cloned())
        .collect();
    let mut params: Vec<&mut Matrix> = blocks.iter_mut().flat_map(|b| b.params_mut()).collect();
    let grad_refs: Vec<&Matrix> = grads.iter().collect();
    optimizer.step(&mut params, &grad_refs)?;
    Ok(loss_value)
}

/// The trainable part `θ` of a block network under a fixed freeze level.
///
/// A `SuffixNet` is produced by [`crate::BlockNet::trainable_suffix`]: it
/// clones only the blocks above the freeze boundary, so a client holding one
/// costs `O(|θ|)` memory instead of `O(|ϕ| + |θ|)` for a full model clone.
/// Inference never stores activations, so a snapshot is `O(|θ|)` whatever
/// the global model was evaluated on, and stays so when a whole shard is
/// scored with [`SuffixNet::forward`]`(_, false)` or
/// [`SuffixNet::predict_proba`]; only a training step keeps its mini-batch.
/// Its inputs are **boundary activations** — the output of
/// [`crate::BlockNet::forward_frozen`] on raw features (or a cached copy of
/// it), never the raw features themselves (except at
/// [`FreezeLevel::Full`], where the boundary *is* the input).
#[derive(Debug, Clone)]
pub struct SuffixNet {
    blocks: Vec<Sequential>,
    freeze: FreezeLevel,
    loss: SoftmaxCrossEntropy,
}

impl SuffixNet {
    /// Builds a suffix from pre-cloned trainable blocks.
    pub(crate) fn from_blocks(blocks: Vec<Sequential>, freeze: FreezeLevel) -> Self {
        SuffixNet {
            blocks,
            freeze,
            loss: SoftmaxCrossEntropy::new(),
        }
    }

    /// The freeze level this suffix was split at.
    pub fn freeze(&self) -> FreezeLevel {
        self.freeze
    }

    /// Number of trainable blocks in the suffix.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Number of trainable scalar parameters.
    pub fn trainable_parameter_count(&self) -> usize {
        self.blocks.iter().map(|b| b.parameter_count()).sum()
    }

    /// Forward pass from boundary activations to logits. Only a `training`
    /// pass keeps activations for the backward pass.
    ///
    /// # Errors
    ///
    /// Returns an error if the boundary width does not match the first
    /// trainable block.
    pub fn forward(&mut self, boundary: &Matrix, training: bool) -> Result<Matrix> {
        forward_blocks(&mut self.blocks, boundary, training)
    }

    /// Class probabilities from boundary activations, using a softmax with
    /// the given temperature (the paper's hardened softmax for ρ < 1).
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatch.
    pub fn predict_proba(&mut self, boundary: &Matrix, temperature: f32) -> Result<Matrix> {
        let logits = self.forward(boundary, false)?;
        Ok(stats::softmax_with_temperature(&logits, temperature)?)
    }

    /// One training step on a batch of boundary activations; returns the
    /// batch loss. Bit-identical to [`crate::BlockNet::train_batch`] on the
    /// same boundary activations (both lower to the same implementation).
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatch, invalid labels, or optimiser
    /// misconfiguration.
    pub fn train_batch(
        &mut self,
        boundary: &Matrix,
        labels: &[usize],
        optimizer: &mut Sgd,
    ) -> Result<f32> {
        train_blocks(&mut self.blocks, &self.loss, boundary, labels, optimizer)
    }

    /// Flattens the suffix parameters (`θ`) into a vector, in the same order
    /// as [`crate::BlockNet::trainable_vector`] at the matching freeze level.
    pub fn trainable_vector(&self) -> ParamVector {
        let params: Vec<&Matrix> = self.blocks.iter().flat_map(|b| b.params()).collect();
        ParamVector::from_params(&params)
    }

    /// Writes a flattened `θ` vector back into the suffix.
    ///
    /// # Errors
    ///
    /// Returns [`crate::NnError::ParamLengthMismatch`] when the vector length
    /// does not match the suffix parameter count.
    pub fn set_trainable_vector(&mut self, vector: &ParamVector) -> Result<()> {
        let mut params: Vec<&mut Matrix> = self
            .blocks
            .iter_mut()
            .flat_map(|b| b.params_mut())
            .collect();
        vector.write_to(&mut params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{BlockNet, BlockNetConfig};
    use crate::optimizer::SgdConfig;

    fn net() -> BlockNet {
        BlockNet::new(&BlockNetConfig::new(6, 3).with_hidden(8, 8, 8), 11)
    }

    #[test]
    fn suffix_mirrors_the_trainable_part_of_the_model() {
        let model = net();
        for freeze in FreezeLevel::all() {
            let suffix = model.trainable_suffix(freeze);
            assert_eq!(suffix.freeze(), freeze);
            assert_eq!(suffix.num_blocks(), 4 - freeze.frozen_blocks());
            assert_eq!(
                suffix.trainable_parameter_count(),
                model.trainable_parameter_count(freeze)
            );
            assert_eq!(suffix.trainable_vector(), model.trainable_vector(freeze));
        }
    }

    #[test]
    fn suffix_forward_from_boundary_matches_full_forward() {
        let mut model = net();
        let x = Matrix::from_rows(&[
            vec![0.5, -1.0, 2.0, 0.1, -0.3, 0.7],
            vec![1.5, 0.3, -0.7, 0.0, 0.9, -0.2],
        ])
        .unwrap();
        let full = model.forward(&x).unwrap();
        for freeze in FreezeLevel::all() {
            let boundary = model.forward_frozen(freeze, &x).unwrap();
            let mut suffix = model.trainable_suffix(freeze);
            let split = suffix.forward(&boundary, false).unwrap();
            assert_eq!(full, split, "freeze {freeze}");
        }
    }

    #[test]
    fn suffix_training_is_bit_identical_to_full_model_training() {
        let freeze = FreezeLevel::Moderate;
        let mut model = net();
        let mut suffix = net().trainable_suffix(freeze);
        let x = Matrix::from_rows(&[
            vec![1.0, 0.0, 0.5, -0.5, 0.2, 0.1],
            vec![0.0, 1.0, -0.5, 0.5, -0.2, 0.3],
        ])
        .unwrap();
        let labels = [1usize, 2];
        let mut sgd_a = Sgd::new(SgdConfig::default()).unwrap();
        let mut sgd_b = Sgd::new(SgdConfig::default()).unwrap();
        for _ in 0..5 {
            let boundary = model.forward_frozen(freeze, &x).unwrap();
            let loss_full = model.train_batch(&x, &labels, &mut sgd_a, freeze).unwrap();
            let loss_suffix = suffix.train_batch(&boundary, &labels, &mut sgd_b).unwrap();
            assert_eq!(loss_full.to_bits(), loss_suffix.to_bits());
        }
        assert_eq!(model.trainable_vector(freeze), suffix.trainable_vector());
    }

    /// Whether any block of `suffix` holds activations: a block's backward
    /// pass succeeds only if a forward pass stored some.
    fn holds_activations(suffix: &mut SuffixNet, rows: usize) -> bool {
        suffix.blocks.iter_mut().any(|block| {
            let width = block.params().last().unwrap().cols();
            match block.backward(&Matrix::zeros(rows, width)) {
                Ok(_) => true,
                Err(crate::NnError::BackwardBeforeForward { .. }) => false,
                Err(other) => panic!("unexpected backward error: {other}"),
            }
        })
    }

    #[test]
    fn snapshots_of_an_evaluated_model_hold_no_activations() {
        let x = Matrix::from_rows(&[
            vec![1.0, 0.0, 0.5, -0.5, 0.2, 0.1],
            vec![0.0, 1.0, -0.5, 0.5, -0.2, 0.3],
        ])
        .unwrap();
        let labels = [1usize, 2];
        let mut evaluated = net();
        evaluated.evaluate_accuracy(&x, &labels).unwrap();
        evaluated.evaluate_loss(&x, &labels).unwrap();
        evaluated.predict_proba(&x, 0.1).unwrap();
        evaluated.forward_collect(&x).unwrap();

        for freeze in FreezeLevel::all() {
            let mut snapshot = evaluated.trainable_suffix(freeze);
            assert!(!holds_activations(&mut snapshot, 2), "suffix at {freeze}");
            let mut of_clone = evaluated.clone().trainable_suffix(freeze);
            assert!(!holds_activations(&mut of_clone, 2), "clone at {freeze}");

            // Scoring with the snapshot itself stores nothing either.
            let boundary = evaluated.forward_frozen(freeze, &x).unwrap();
            snapshot.forward(&boundary, false).unwrap();
            snapshot.predict_proba(&boundary, 0.1).unwrap();
            assert!(!holds_activations(&mut snapshot, 2), "scored at {freeze}");

            // And training from it is training from a never-evaluated model.
            let mut fresh = net().trainable_suffix(freeze);
            let mut sgd_a = Sgd::new(SgdConfig::default()).unwrap();
            let mut sgd_b = Sgd::new(SgdConfig::default()).unwrap();
            for _ in 0..5 {
                let a = snapshot
                    .train_batch(&boundary, &labels, &mut sgd_a)
                    .unwrap();
                let b = fresh.train_batch(&boundary, &labels, &mut sgd_b).unwrap();
                assert_eq!(a.to_bits(), b.to_bits(), "loss at {freeze}");
            }
            assert_eq!(snapshot.trainable_vector(), fresh.trainable_vector());
            assert!(holds_activations(&mut snapshot, 2), "trained at {freeze}");
        }
    }

    #[test]
    fn set_trainable_vector_roundtrip_and_length_check() {
        let model = net();
        let mut suffix = net().trainable_suffix(FreezeLevel::Classifier);
        let theta = model.trainable_vector(FreezeLevel::Classifier);
        suffix.set_trainable_vector(&theta).unwrap();
        assert_eq!(suffix.trainable_vector(), theta);
        let bad = ParamVector::from_values(vec![0.0; 2]);
        assert!(suffix.set_trainable_vector(&bad).is_err());
    }
}
