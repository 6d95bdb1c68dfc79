//! The [`Layer`] trait implemented by every network building block.

use crate::Result;
use fedft_tensor::Matrix;

/// A differentiable network layer with manually implemented forward and
/// backward passes.
///
/// A **training** forward pass stores whatever `backward` needs (inputs,
/// masks, normalisation statistics) to compute parameter gradients and the
/// gradient with respect to the layer input. Inference never stores
/// activations, so a layer that has only been evaluated holds its parameters
/// and gradient buffers and nothing else, and cloning it — which is what a
/// model snapshot does — costs `O(parameters)` whatever it was evaluated on.
///
/// The trait is object safe; models store layers as `Box<dyn Layer>`.
/// Layers must be `Send + Sync` so that client models can be trained on
/// worker threads during the federated simulation.
pub trait Layer: Send + Sync {
    /// Short, human-readable layer name used in error messages and reports.
    fn name(&self) -> &'static str;

    /// Runs the forward pass.
    ///
    /// `training` toggles behaviour that differs between training and
    /// inference (dropout masks, batch-norm statistics) and is the only
    /// mode that writes the activation cache [`Layer::backward`] reads.
    /// With `training == false` the output is that of
    /// [`Layer::forward_frozen`], bit for bit, and no activation is stored.
    ///
    /// # Errors
    ///
    /// Returns an error if the input shape is incompatible with the layer.
    fn forward(&mut self, input: &Matrix, training: bool) -> Result<Matrix>;

    /// Runs the forward pass through a shared reference, without caching
    /// anything for a later backward pass.
    ///
    /// This is the inference forward: frozen blocks, evaluation and
    /// selection scoring all run it. None of them back-propagates, so the
    /// activation caches a training [`Layer::forward`] writes would be dead
    /// weight, and the shared-reference signature lets one model serve many
    /// clients concurrently. For stateless-at-inference layers (dense,
    /// convolution, activations) the arithmetic is identical to
    /// [`Layer::forward`], so the two paths produce bit-identical outputs on
    /// the same input.
    ///
    /// # Errors
    ///
    /// Returns an error if the input shape is incompatible with the layer.
    fn forward_frozen(&self, input: &Matrix) -> Result<Matrix>;

    /// Runs the backward pass for the most recent training `forward` call.
    ///
    /// Accumulates parameter gradients internally and returns the gradient of
    /// the loss with respect to the layer input.
    ///
    /// # Errors
    ///
    /// Returns [`crate::NnError::BackwardBeforeForward`] when no training
    /// `forward` has run, or a tensor error on shape mismatch.
    fn backward(&mut self, grad_output: &Matrix) -> Result<Matrix>;

    /// Immutable views of the layer's learnable parameter tensors.
    fn params(&self) -> Vec<&Matrix>;

    /// Mutable views of the layer's learnable parameter tensors, in the same
    /// order as [`Layer::params`].
    fn params_mut(&mut self) -> Vec<&mut Matrix>;

    /// Gradients accumulated by the most recent backward pass, in the same
    /// order as [`Layer::params`].
    fn grads(&self) -> Vec<&Matrix>;

    /// Resets accumulated gradients to zero.
    fn zero_grads(&mut self);

    /// Total number of learnable scalar parameters.
    fn parameter_count(&self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }

    /// Estimated floating-point operations for a forward pass on a single
    /// sample. Used by the training-time cost model.
    fn forward_flops_per_sample(&self) -> u64;

    /// Estimated floating-point operations for a backward pass on a single
    /// sample. By convention roughly twice the forward cost for parameterised
    /// layers.
    fn backward_flops_per_sample(&self) -> u64 {
        2 * self.forward_flops_per_sample()
    }

    /// Clones the layer into a boxed trait object.
    fn clone_box(&self) -> Box<dyn Layer>;
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Dense;

    #[test]
    fn boxed_layers_are_cloneable() {
        let layer: Box<dyn Layer> = Box::new(Dense::new(3, 2, 7));
        let cloned = layer.clone();
        assert_eq!(cloned.parameter_count(), layer.parameter_count());
        assert_eq!(cloned.name(), layer.name());
    }

    #[test]
    fn default_backward_flops_doubles_forward() {
        let layer = Dense::new(4, 4, 1);
        assert_eq!(
            layer.backward_flops_per_sample(),
            2 * layer.forward_flops_per_sample()
        );
    }
}
