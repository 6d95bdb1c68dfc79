//! A sequential container of layers.

use crate::layer::Layer;
use crate::Result;
use fedft_tensor::Matrix;

/// Threads `input` through `stages` in order, handing each stage the
/// previous stage's output.
///
/// The first stage reads the borrowed `input` itself, so a pass over a large
/// matrix (a test set, a client shard) copies it only when there is no stage
/// at all and the copy *is* the result.
pub(crate) fn chain<S>(
    stages: impl IntoIterator<Item = S>,
    input: &Matrix,
    mut step: impl FnMut(S, &Matrix) -> Result<Matrix>,
) -> Result<Matrix> {
    let mut current: Option<Matrix> = None;
    for stage in stages {
        current = Some(step(stage, current.as_ref().unwrap_or(input))?);
    }
    Ok(current.unwrap_or_else(|| input.clone()))
}

/// [`chain`] for a training step: every stage writes into one of the two
/// reused buffers in `bufs` (reading the other, or the borrowed `input` for
/// the first stage), so a loop that hands the same `bufs` back every step
/// allocates only while they grow. Returns the last stage's output — a view
/// of `input` itself when there is no stage.
pub(crate) fn chain_into<'a, S>(
    stages: impl IntoIterator<Item = S>,
    input: &'a Matrix,
    bufs: &'a mut [Matrix; 2],
    mut step: impl FnMut(S, &Matrix, &mut Matrix) -> Result<()>,
) -> Result<&'a Matrix> {
    let [a, b] = bufs;
    let (mut src, mut dst) = (a, b);
    let mut any = false;
    for stage in stages {
        step(stage, if any { &*src } else { input }, dst)?;
        std::mem::swap(&mut src, &mut dst);
        any = true;
    }
    Ok(if any { src } else { input })
}

/// Backward pass through `layers` (given in forward order), last layer
/// first, on the ping-pong buffers of [`chain_into`]. The first layer is
/// asked for its input gradient only when `need_input_grad`; the return
/// value is that gradient, or `None` when it was not computed.
pub(crate) fn backward_layers<'a, 'l>(
    layers: impl DoubleEndedIterator<Item = &'l mut Box<dyn Layer>>,
    grad_output: &'a Matrix,
    bufs: &'a mut [Matrix; 2],
    need_input_grad: bool,
) -> Result<Option<&'a Matrix>> {
    let mut rest = layers.rev().peekable();
    let stages = std::iter::from_fn(|| {
        let layer = rest.next()?;
        Some((layer, rest.peek().is_none()))
    });
    let grad = chain_into(stages, grad_output, bufs, |(layer, is_first), grad, out| {
        let wanted = need_input_grad || !is_first;
        layer.backward(grad, wanted.then_some(out))
    })?;
    Ok(need_input_grad.then_some(grad))
}

/// An ordered stack of layers applied one after another.
///
/// `Sequential` is used both directly (for simple models) and as the building
/// block of [`crate::BlockNet`], which groups several `Sequential` stacks into
/// the paper's low / mid / up / classifier layer groups.
#[derive(Clone, Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sequential")
            .field(
                "layers",
                &self.layers.iter().map(|l| l.name()).collect::<Vec<_>>(),
            )
            .field("parameters", &self.parameter_count())
            .finish()
    }
}

impl Sequential {
    /// Creates an empty container.
    pub fn new() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Appends a layer, returning `self` for chaining.
    pub fn push(mut self, layer: Box<dyn Layer>) -> Self {
        self.layers.push(layer);
        self
    }

    /// Appends a layer in place.
    pub fn add(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of layers in the container.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Returns `true` when the container holds no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Runs the forward pass through every layer. Only a `training` pass
    /// leaves activations behind for [`Sequential::backward`]; with
    /// `training == false` the result and the stored state are those of
    /// [`Sequential::forward_frozen`] (see [`crate::Layer::forward`]).
    ///
    /// # Errors
    ///
    /// Propagates the first layer error encountered.
    pub fn forward(&mut self, input: &Matrix, training: bool) -> Result<Matrix> {
        chain(&mut self.layers, input, |layer, x| {
            layer.forward(x, training)
        })
    }

    /// Runs the inference forward pass through every layer via a shared
    /// reference, without caching activations for a backward pass.
    ///
    /// This is the inference pass of the whole crate: frozen blocks
    /// ([`crate::BlockNet::forward_frozen`]) and every evaluation or scoring
    /// entry point ([`crate::BlockNet::forward_from`]) lower to it; see
    /// [`crate::Layer::forward_frozen`] for the exact semantics.
    ///
    /// # Errors
    ///
    /// Propagates the first layer error encountered.
    pub fn forward_frozen(&self, input: &Matrix) -> Result<Matrix> {
        chain(&self.layers, input, |layer, x| layer.forward_frozen(x))
    }

    /// Runs the backward pass through every layer in reverse order and
    /// returns the gradient with respect to the container's input. (The
    /// training step, which never reads that gradient, runs the same pass
    /// without asking the first layer for it; see [`Layer::backward`].)
    ///
    /// # Errors
    ///
    /// Propagates the first layer error encountered.
    pub fn backward(&mut self, grad_output: &Matrix) -> Result<Matrix> {
        let mut bufs = [Matrix::default(), Matrix::default()];
        let grad_input = backward_layers(self.layers.iter_mut(), grad_output, &mut bufs, true)?;
        Ok(grad_input
            .expect("the input gradient was asked for")
            .clone())
    }

    /// [`Layer::refresh_from`], layer by layer. `false` means some layer
    /// could not and the container is part old, part new: replace it.
    pub(crate) fn refresh_from(&mut self, source: &Sequential) -> bool {
        self.layers.len() == source.layers.len()
            && self
                .layers
                .iter_mut()
                .zip(&source.layers)
                .all(|(layer, source)| layer.refresh_from(source.as_ref()))
    }

    /// The layers, for passes that run across several containers.
    pub(crate) fn layers_mut(&mut self) -> &mut [Box<dyn Layer>] {
        &mut self.layers
    }

    /// Immutable views of all parameters, layer by layer.
    pub fn params(&self) -> Vec<&Matrix> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    /// Mutable views of all parameters, in the same order as
    /// [`Sequential::params`].
    pub fn params_mut(&mut self) -> Vec<&mut Matrix> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    /// Gradients of all parameters, in the same order as
    /// [`Sequential::params`].
    pub fn grads(&self) -> Vec<&Matrix> {
        self.layers.iter().flat_map(|l| l.grads()).collect()
    }

    /// Sets every parameter gradient to zero.
    pub fn zero_grads(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grads();
        }
    }

    /// Total number of learnable scalar parameters.
    pub fn parameter_count(&self) -> usize {
        self.layers.iter().map(|l| l.parameter_count()).sum()
    }

    /// Estimated forward FLOPs for one sample.
    pub fn forward_flops_per_sample(&self) -> u64 {
        self.layers
            .iter()
            .map(|l| l.forward_flops_per_sample())
            .sum()
    }

    /// Estimated backward FLOPs for one sample.
    pub fn backward_flops_per_sample(&self) -> u64 {
        self.layers
            .iter()
            .map(|l| l.backward_flops_per_sample())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Relu};
    use crate::loss::SoftmaxCrossEntropy;

    fn tiny_net(seed: u64) -> Sequential {
        Sequential::new()
            .push(Box::new(Dense::new(4, 8, seed)))
            .push(Box::new(Relu::new(8)))
            .push(Box::new(Dense::new(8, 3, seed + 1)))
    }

    #[test]
    fn forward_shapes_flow_through() {
        let mut net = tiny_net(0);
        let y = net.forward(&Matrix::zeros(5, 4), true).unwrap();
        assert_eq!(y.shape(), (5, 3));
    }

    #[test]
    fn parameter_accounting() {
        let net = tiny_net(0);
        assert_eq!(net.parameter_count(), 4 * 8 + 8 + 8 * 3 + 3);
        assert_eq!(net.params().len(), 4);
        assert!(net.forward_flops_per_sample() > 0);
        assert!(net.backward_flops_per_sample() > net.forward_flops_per_sample());
    }

    #[test]
    fn clone_is_independent() {
        let mut net = tiny_net(1);
        let mut cloned = net.clone();
        let x = Matrix::full(2, 4, 1.0);
        let before = cloned.forward(&x, false).unwrap();
        // Train the original a little; the clone must not change.
        let loss = SoftmaxCrossEntropy::new();
        for _ in 0..5 {
            let logits = net.forward(&x, true).unwrap();
            let (_, grad) = loss.forward_backward(&logits, &[0, 1]).unwrap();
            net.zero_grads();
            net.backward(&grad).unwrap();
            let grads: Vec<Matrix> = net.grads().iter().map(|g| (*g).clone()).collect();
            for (p, g) in net.params_mut().into_iter().zip(grads.iter()) {
                p.add_scaled_assign(g, -0.5).unwrap();
            }
        }
        let after = cloned.forward(&x, false).unwrap();
        assert!(before.approx_eq(&after, 0.0));
    }

    #[test]
    fn training_reduces_loss_on_toy_problem() {
        let mut net = tiny_net(7);
        let loss = SoftmaxCrossEntropy::new();
        let x = Matrix::from_rows(&[
            vec![1.0, 0.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0, 0.0],
            vec![0.0, 0.0, 1.0, 0.0],
        ])
        .unwrap();
        let labels = [0usize, 1, 2];
        let initial = loss
            .loss(&net.forward(&x, false).unwrap(), &labels)
            .unwrap();
        for _ in 0..200 {
            let logits = net.forward(&x, true).unwrap();
            let (_, grad) = loss.forward_backward(&logits, &labels).unwrap();
            net.zero_grads();
            net.backward(&grad).unwrap();
            let grads: Vec<Matrix> = net.grads().iter().map(|g| (*g).clone()).collect();
            for (p, g) in net.params_mut().into_iter().zip(grads.iter()) {
                p.add_scaled_assign(g, -0.5).unwrap();
            }
        }
        let trained = loss
            .loss(&net.forward(&x, false).unwrap(), &labels)
            .unwrap();
        assert!(
            trained < initial * 0.5,
            "training did not reduce loss: {initial} -> {trained}"
        );
    }

    #[test]
    fn empty_sequential_is_identity() {
        let mut net = Sequential::new();
        assert!(net.is_empty());
        let x = Matrix::full(2, 3, 4.0);
        assert!(net.forward(&x, true).unwrap().approx_eq(&x, 0.0));
        assert!(net.backward(&x).unwrap().approx_eq(&x, 0.0));
    }
}
