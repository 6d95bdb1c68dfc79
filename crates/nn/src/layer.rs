//! The [`Layer`] trait implemented by every network building block.

use crate::Result;
use fedft_tensor::Matrix;
use std::any::Any;

/// A differentiable network layer with manually implemented forward and
/// backward passes.
///
/// A **training** forward pass stores whatever `backward` needs (the layer
/// input) to compute parameter gradients and the gradient with respect to
/// that input. Inference never stores
/// activations, so a layer that has only been evaluated holds its parameters
/// and gradient buffers and nothing else; and what a training pass stored is
/// scratch that a clone leaves behind, so cloning a layer — which is what a
/// model snapshot does — costs `O(parameters)` whatever it was evaluated or
/// trained on.
///
/// The trait is object safe; models store layers as `Box<dyn Layer>`.
/// Layers must be `Send + Sync` so that client models can be trained on
/// worker threads during the federated simulation.
pub trait Layer: Any + Send + Sync {
    /// Short, human-readable layer name used in error messages and reports.
    fn name(&self) -> &'static str;

    /// Runs the forward pass and returns its output in a fresh matrix; see
    /// [`Layer::forward_into`], which this wraps.
    ///
    /// # Errors
    ///
    /// Returns an error if the input shape is incompatible with the layer.
    fn forward(&mut self, input: &Matrix, training: bool) -> Result<Matrix> {
        let mut out = Matrix::default();
        self.forward_into(input, training, &mut out)?;
        Ok(out)
    }

    /// Runs the forward pass, writing the output into `out` (reshaped and
    /// overwritten; its buffer is reused, so a training loop that hands the
    /// same `out` back every step stops allocating once warm).
    ///
    /// `training` is the only mode that writes the activation cache
    /// [`Layer::backward`] reads.
    /// With `training == false` the output is that of
    /// [`Layer::forward_frozen`], bit for bit, and no activation is stored.
    ///
    /// # Errors
    ///
    /// Returns an error if the input shape is incompatible with the layer.
    fn forward_into(&mut self, input: &Matrix, training: bool, out: &mut Matrix) -> Result<()>;

    /// Runs the forward pass through a shared reference, without caching
    /// anything for a later backward pass.
    ///
    /// This is the inference forward: frozen blocks, evaluation and
    /// selection scoring all run it. None of them back-propagates, so the
    /// activation caches a training [`Layer::forward`] writes would be dead
    /// weight, and the shared-reference signature lets one model serve many
    /// clients concurrently. The arithmetic is identical to
    /// [`Layer::forward`], so the two paths produce bit-identical outputs on
    /// the same input.
    ///
    /// # Errors
    ///
    /// Returns an error if the input shape is incompatible with the layer.
    fn forward_frozen(&self, input: &Matrix) -> Result<Matrix>;

    /// Runs the backward pass for the most recent training `forward` call.
    ///
    /// Overwrites the layer's parameter gradients ([`Layer::grads`]) with
    /// those of this call — it does not add to what an earlier call left.
    ///
    /// **The input-gradient rule.** The gradient of the loss with respect to
    /// the layer input is computed only when the caller names a destination:
    /// with `grad_input == Some(out)` it is written into `out` (reshaped and
    /// overwritten, buffer reused); with `None` the layer does none of that
    /// work — for a dense layer the `dY·Wᵀ` product. Parameter gradients are
    /// the same bits either way. The caller that passes `None` is the
    /// training step, for the first layer above the freeze boundary: nothing
    /// below it is trained, so nobody would read that gradient. This is
    /// where back-propagation stops under partial fine-tuning, at every
    /// [`crate::FreezeLevel`] including `Full`, where the layer's input is
    /// the data itself.
    ///
    /// # Errors
    ///
    /// Returns [`crate::NnError::BackwardBeforeForward`] when no training
    /// `forward` has run (whether or not an input gradient was asked for),
    /// or a tensor error on shape mismatch.
    fn backward(&mut self, grad_output: &Matrix, grad_input: Option<&mut Matrix>) -> Result<()>;

    /// Immutable views of the layer's learnable parameter tensors.
    fn params(&self) -> Vec<&Matrix>;

    /// Mutable views of the layer's learnable parameter tensors, in the same
    /// order as [`Layer::params`].
    fn params_mut(&mut self) -> Vec<&mut Matrix>;

    /// Parameter gradients written by the most recent backward pass, in the
    /// same order as [`Layer::params`].
    fn grads(&self) -> Vec<&Matrix>;

    /// Calls `f(parameter, its gradient)` for every learnable tensor, in
    /// [`Layer::params`] order, stopping at the first error. This is how an
    /// optimiser step reaches parameters and gradients together without the
    /// `Vec`s [`Layer::params_mut`] and [`Layer::grads`] build.
    ///
    /// # Errors
    ///
    /// Returns the first error `f` returned.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &Matrix) -> Result<()>)
        -> Result<()>;

    /// Sets every parameter gradient to zero, whatever it held — a
    /// non-finite value included.
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

    /// Takes over `source`'s state while keeping this layer's buffers, and
    /// returns `true`: every forward, backward and optimiser step on this
    /// layer then gives the bits it would give on `source.clone_box()`.
    /// Returns `false`, having changed nothing, when it cannot — `source` is
    /// another kind of layer or differs in any dimension — and the caller
    /// clones instead.
    ///
    /// Required, so that a new layer kind cannot be silently cloned per
    /// client: an implementation must carry *all* of the layer's state, which
    /// may be more than [`Layer::params`]. Two things are deliberately not
    /// carried, because every training step writes them before it reads
    /// them: parameter gradients ([`Layer::backward`] overwrites) and stored
    /// activations (scratch).
    fn refresh_from(&mut self, source: &dyn Layer) -> bool;
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// What a training pass leaves behind for itself: the activations a layer's
/// `forward` stores for its `backward`, the buffers a training step reuses.
///
/// Scratch has no identity, so a clone starts empty (`T::default()`): a model
/// snapshot costs `O(parameters)` even when the model it is taken of has just
/// trained on a batch. Everything else a layer holds — parameters and
/// gradients — is state and is cloned as usual. Dereferences to `T`.
#[derive(Debug, Default)]
pub(crate) struct Scratch<T>(T);

impl<T: Default> Clone for Scratch<T> {
    fn clone(&self) -> Self {
        Scratch::default()
    }
}

impl<T> std::ops::Deref for Scratch<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> std::ops::DerefMut for Scratch<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

/// The full backward pass of one layer, input gradient included, in a fresh
/// matrix: what layer tests compare against finite differences.
#[cfg(test)]
pub(crate) fn backward_full(layer: &mut dyn Layer, grad_output: &Matrix) -> Result<Matrix> {
    let mut grad_input = Matrix::default();
    layer.backward(grad_output, Some(&mut grad_input))?;
    Ok(grad_input)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::layers::Dense;

    #[test]
    fn boxed_layers_are_cloneable() {
        let layer: Box<dyn Layer> = Box::new(Dense::new(3, 2, 7));
        let cloned = layer.clone();
        assert_eq!(cloned.parameter_count(), layer.parameter_count());
        assert_eq!(cloned.name(), layer.name());
    }

    /// One of each layer kind with an input it accepts.
    pub(crate) fn one_of_each() -> Vec<(Box<dyn Layer>, Matrix)> {
        use crate::layers::Relu;
        let mut r = fedft_tensor::rng::rng_for(3, "layer-oracle");
        let mut x = |cols| fedft_tensor::init::normal(&mut r, 5, cols, 0.0, 1.0);
        vec![
            (Box::new(Dense::new(7, 4, 1)), x(7)),
            (Box::new(Relu::new(6)), x(6)),
        ]
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn skipping_the_input_gradient_leaves_parameter_gradients_bit_identical() {
        for (mut full, x) in one_of_each() {
            let mut skipped = full.clone();
            let y = full.forward(&x, true).unwrap();
            assert_eq!(skipped.forward(&x, true).unwrap(), y);
            let mut r = fedft_tensor::rng::rng_for(4, full.name());
            let grad_output = fedft_tensor::init::normal(&mut r, y.rows(), y.cols(), 0.0, 1.0);

            let grad_input = backward_full(full.as_mut(), &grad_output).unwrap();
            assert_eq!(grad_input.shape(), x.shape(), "{}", full.name());
            skipped.backward(&grad_output, None).unwrap();

            assert_eq!(full.grads().len(), full.params().len());
            for (a, b) in full.grads().into_iter().zip(skipped.grads()) {
                assert_eq!(a.shape(), b.shape());
                assert_eq!(bits(a), bits(b), "{}", full.name());
            }
        }
    }

    #[test]
    fn backward_before_a_training_forward_is_an_error_with_or_without_input_gradient() {
        for (mut layer, x) in one_of_each() {
            let y = layer.forward(&x, false).unwrap();
            let grad_output = Matrix::zeros(y.rows(), y.cols());
            for wanted in [true, false] {
                let mut grad_input = Matrix::default();
                let err = layer
                    .backward(&grad_output, wanted.then_some(&mut grad_input))
                    .unwrap_err();
                assert!(
                    matches!(err, crate::NnError::BackwardBeforeForward { layer: name } if name == layer.name()),
                    "{}: {err}",
                    layer.name()
                );
            }
        }
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
