//! Fully-connected and activation layers.

use crate::layer::{Layer, Scratch};
use crate::{NnError, Result};
use fedft_tensor::{init, rng, Matrix};
use std::any::Any;

/// Fully-connected (affine) layer: `Y = X·W + b`.
///
/// Weights use He-normal initialisation, biases start at zero.
///
/// # Example
///
/// ```
/// use fedft_nn::{Dense, Layer};
/// use fedft_tensor::Matrix;
///
/// # fn main() -> Result<(), fedft_nn::NnError> {
/// let mut layer = Dense::new(4, 3, 0);
/// let x = Matrix::zeros(5, 4);
/// let y = layer.forward(&x, true)?;
/// assert_eq!(y.shape(), (5, 3));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Dense {
    weight: Matrix,
    bias: Matrix,
    grad_weight: Matrix,
    grad_bias: Matrix,
    cached_input: Scratch<Option<Matrix>>,
    in_features: usize,
    out_features: usize,
}

impl Dense {
    /// Creates a new dense layer with `in_features` inputs and `out_features`
    /// outputs, initialised deterministically from `seed`.
    pub fn new(in_features: usize, out_features: usize, seed: u64) -> Self {
        let mut r = rng::rng_for(seed, "dense-init");
        Dense {
            weight: init::he_normal(&mut r, in_features, out_features),
            bias: Matrix::zeros(1, out_features),
            grad_weight: Matrix::zeros(in_features, out_features),
            grad_bias: Matrix::zeros(1, out_features),
            cached_input: Scratch::default(),
            in_features,
            out_features,
        }
    }

    /// Number of input features.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Number of output features.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Immutable view of the weight matrix (shape `in_features × out_features`).
    pub fn weight(&self) -> &Matrix {
        &self.weight
    }

    /// Immutable view of the bias row vector.
    pub fn bias(&self) -> &Matrix {
        &self.bias
    }

    /// `out = input·W + b`: the one arithmetic behind every forward path.
    fn affine_into(&self, input: &Matrix, out: &mut Matrix) -> Result<()> {
        input.matmul_into(&self.weight, out)?;
        Ok(out.add_row_broadcast_assign(&self.bias)?)
    }
}

impl Layer for Dense {
    fn name(&self) -> &'static str {
        "dense"
    }

    fn forward_into(&mut self, input: &Matrix, training: bool, out: &mut Matrix) -> Result<()> {
        self.affine_into(input, out)?;
        if training {
            self.cached_input
                .get_or_insert_with(Matrix::default)
                .clone_from(input);
        }
        Ok(())
    }

    fn forward_frozen(&self, input: &Matrix) -> Result<Matrix> {
        let mut out = Matrix::default();
        self.affine_into(input, &mut out)?;
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Matrix, grad_input: Option<&mut Matrix>) -> Result<()> {
        let input = self
            .cached_input
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward { layer: "dense" })?;
        // dW = X^T · dY and db = Σ_rows dY, written straight into the buffers.
        input.matmul_tn_into(grad_output, &mut self.grad_weight)?;
        grad_output.sum_rows_into(&mut self.grad_bias);
        // dX = dY · W^T, only for a caller that reads it.
        if let Some(grad_input) = grad_input {
            grad_output.matmul_nt_into(&self.weight, grad_input)?;
        }
        Ok(())
    }

    fn params(&self) -> Vec<&Matrix> {
        vec![&self.weight, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Matrix> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn grads(&self) -> Vec<&Matrix> {
        vec![&self.grad_weight, &self.grad_bias]
    }

    fn visit_params(
        &mut self,
        f: &mut dyn FnMut(&mut Matrix, &Matrix) -> Result<()>,
    ) -> Result<()> {
        f(&mut self.weight, &self.grad_weight)?;
        f(&mut self.bias, &self.grad_bias)
    }

    fn zero_grads(&mut self) {
        self.grad_weight.as_mut_slice().fill(0.0);
        self.grad_bias.as_mut_slice().fill(0.0);
    }

    fn forward_flops_per_sample(&self) -> u64 {
        // One multiply-add per weight plus the bias add.
        (2 * self.in_features * self.out_features + self.out_features) as u64
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn refresh_from(&mut self, source: &dyn Layer) -> bool {
        match (source as &dyn Any).downcast_ref::<Dense>() {
            Some(source) if source.weight.shape() == self.weight.shape() => {
                self.weight.clone_from(&source.weight);
                self.bias.clone_from(&source.bias);
                true
            }
            _ => false,
        }
    }
}

/// Rectified linear unit activation.
#[derive(Debug, Clone, Default)]
pub struct Relu {
    cached_input: Scratch<Option<Matrix>>,
    features_hint: usize,
}

impl Relu {
    /// Creates a ReLU layer. `features_hint` is only used for FLOP accounting.
    pub fn new(features_hint: usize) -> Self {
        Relu {
            cached_input: Scratch::default(),
            features_hint,
        }
    }
}

impl Layer for Relu {
    fn name(&self) -> &'static str {
        "relu"
    }

    fn forward_into(&mut self, input: &Matrix, training: bool, out: &mut Matrix) -> Result<()> {
        if training {
            self.cached_input
                .get_or_insert_with(Matrix::default)
                .clone_from(input);
        }
        input.map_into(out, |v| v.max(0.0));
        Ok(())
    }

    fn forward_frozen(&self, input: &Matrix) -> Result<Matrix> {
        Ok(input.map(|v| v.max(0.0)))
    }

    fn backward(&mut self, grad_output: &Matrix, grad_input: Option<&mut Matrix>) -> Result<()> {
        let input = self
            .cached_input
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward { layer: "relu" })?;
        if input.shape() != grad_output.shape() {
            return Err(NnError::Tensor(fedft_tensor::TensorError::ShapeMismatch {
                op: "relu_backward",
                lhs: input.shape(),
                rhs: grad_output.shape(),
            }));
        }
        if let Some(grad_input) = grad_input {
            // dX = dY ⊙ [X > 0], the mask applied as a factor (not a select)
            // so a masked entry keeps the product's signed zero and NaN.
            input.zip_with_into(grad_output, "relu_backward", grad_input, |x, g| {
                g * if x > 0.0 { 1.0 } else { 0.0 }
            })?;
        }
        Ok(())
    }

    fn params(&self) -> Vec<&Matrix> {
        Vec::new()
    }

    fn params_mut(&mut self) -> Vec<&mut Matrix> {
        Vec::new()
    }

    fn grads(&self) -> Vec<&Matrix> {
        Vec::new()
    }

    fn visit_params(
        &mut self,
        _f: &mut dyn FnMut(&mut Matrix, &Matrix) -> Result<()>,
    ) -> Result<()> {
        Ok(())
    }

    fn zero_grads(&mut self) {}

    fn forward_flops_per_sample(&self) -> u64 {
        self.features_hint as u64
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn refresh_from(&mut self, source: &dyn Layer) -> bool {
        // Stateless but for the hint.
        (source as &dyn Any)
            .downcast_ref::<Relu>()
            .is_some_and(|source| source.features_hint == self.features_hint)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::backward_full;

    fn finite_difference_check(
        mut forward: impl FnMut(&Matrix) -> f32,
        input: &Matrix,
        analytic: &Matrix,
        eps: f32,
        tol: f32,
    ) {
        for r in 0..input.rows() {
            for c in 0..input.cols() {
                let mut plus = input.clone();
                plus.set(r, c, input.get(r, c) + eps);
                let mut minus = input.clone();
                minus.set(r, c, input.get(r, c) - eps);
                let numeric = (forward(&plus) - forward(&minus)) / (2.0 * eps);
                let diff = (numeric - analytic.get(r, c)).abs();
                assert!(
                    diff < tol,
                    "finite-difference mismatch at ({r},{c}): numeric={numeric}, analytic={}",
                    analytic.get(r, c)
                );
            }
        }
    }

    #[test]
    fn dense_forward_shape_and_bias() {
        let mut layer = Dense::new(3, 2, 1);
        let x = Matrix::zeros(4, 3);
        let y = layer.forward(&x, true).unwrap();
        assert_eq!(y.shape(), (4, 2));
        // Zero input -> output equals bias (zero).
        assert_eq!(y.sum(), 0.0);
    }

    #[test]
    fn dense_backward_before_forward_errors() {
        let mut layer = Dense::new(3, 2, 1);
        let err = backward_full(&mut layer, &Matrix::zeros(1, 2)).unwrap_err();
        assert!(matches!(err, NnError::BackwardBeforeForward { .. }));
    }

    #[test]
    fn dense_input_gradient_matches_finite_difference() {
        let mut layer = Dense::new(3, 2, 3);
        let x = Matrix::from_rows(&[vec![0.5, -1.0, 2.0], vec![1.5, 0.3, -0.7]]).unwrap();
        // Scalar objective: sum of outputs.
        let y = layer.forward(&x, true).unwrap();
        let grad_out = Matrix::full(y.rows(), y.cols(), 1.0);
        let grad_in = backward_full(&mut layer, &grad_out).unwrap();

        let mut probe = layer.clone();
        finite_difference_check(
            |input| probe.forward(input, true).unwrap().sum(),
            &x,
            &grad_in,
            1e-2,
            1e-2,
        );
    }

    #[test]
    fn dense_weight_gradient_matches_finite_difference() {
        let mut layer = Dense::new(2, 2, 5);
        let x = Matrix::from_rows(&[vec![1.0, -2.0], vec![0.5, 0.25]]).unwrap();
        let y = layer.forward(&x, true).unwrap();
        backward_full(&mut layer, &Matrix::full(y.rows(), y.cols(), 1.0)).unwrap();
        let analytic = layer.grads()[0].clone();

        let eps = 1e-2;
        for r in 0..2 {
            for c in 0..2 {
                let mut plus = layer.clone();
                plus.params_mut()[0].set(r, c, layer.params()[0].get(r, c) + eps);
                let mut minus = layer.clone();
                minus.params_mut()[0].set(r, c, layer.params()[0].get(r, c) - eps);
                let f_plus = plus.forward(&x, true).unwrap().sum();
                let f_minus = minus.forward(&x, true).unwrap().sum();
                let numeric = (f_plus - f_minus) / (2.0 * eps);
                assert!((numeric - analytic.get(r, c)).abs() < 1e-2);
            }
        }
    }

    #[test]
    fn dense_backward_overwrites_gradients_and_zero_grads_clears_them() {
        let mut layer = Dense::new(2, 2, 5);
        let x = Matrix::full(1, 2, 1.0);
        let g = Matrix::full(1, 2, 1.0);
        layer.forward(&x, true).unwrap();
        backward_full(&mut layer, &g).unwrap();
        let first: Vec<Matrix> = layer.grads().into_iter().cloned().collect();
        // A second pass replaces what the first left; it does not add to it.
        layer.forward(&x, true).unwrap();
        backward_full(&mut layer, &g.scale(3.0)).unwrap();
        for (second, first) in layer.grads().into_iter().zip(&first) {
            assert_eq!(second, &first.scale(3.0));
        }
        layer.zero_grads();
        assert!(layer
            .grads()
            .iter()
            .all(|g| g.as_slice().iter().all(|v| v.to_bits() == 0)));
    }

    /// One non-finite gradient must not outlive `zero_grads`: `NaN × 0` is
    /// `NaN`, so zeroing by scaling kept it in the buffers (and in every
    /// snapshot cloned from them) for good.
    #[test]
    fn a_nan_gradient_does_not_survive_zero_grads() {
        let x =
            Matrix::from_rows(&[vec![0.5, -1.0, 2.0, 0.25], vec![1.5, 0.3, -0.7, 1.0]]).unwrap();
        let mut layer = Dense::new(4, 3, 1);
        let y = layer.forward(&x, true).unwrap();
        let mut poisoned = Matrix::full(y.rows(), y.cols(), 1.0);
        poisoned.set(0, 0, f32::NAN);
        layer.backward(&poisoned, None).unwrap();
        assert!(
            layer.grads().iter().any(|g| !g.is_finite()),
            "the NaN reached the gradients"
        );

        layer.zero_grads();
        assert!(
            layer
                .grads()
                .iter()
                .all(|g| g.as_slice().iter().all(|v| v.to_bits() == 0)),
            "zero_grads leaves exact zeros"
        );
        layer.forward(&x, true).unwrap();
        let clean = Matrix::full(y.rows(), y.cols(), 1.0);
        layer.backward(&clean, None).unwrap();
        assert!(
            layer.grads().iter().all(|g| g.is_finite()),
            "the next clean step is finite"
        );
    }

    #[test]
    fn relu_clamps_and_masks_gradient() {
        let mut relu = Relu::new(3);
        let x = Matrix::from_rows(&[vec![-1.0, 0.0, 2.0]]).unwrap();
        let y = relu.forward(&x, true).unwrap();
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0]);
        let g = backward_full(&mut relu, &Matrix::full(1, 3, 1.0)).unwrap();
        assert_eq!(g.as_slice(), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn relu_backward_shape_mismatch_errors() {
        let mut relu = Relu::new(3);
        relu.forward(&Matrix::zeros(1, 3), true).unwrap();
        assert!(backward_full(&mut relu, &Matrix::zeros(1, 4)).is_err());
    }

    #[test]
    fn forward_frozen_matches_inference_forward_bit_for_bit() {
        let x = Matrix::from_rows(&[vec![0.5, -1.0, 2.0], vec![1.5, 0.3, -0.7]]).unwrap();
        let mut dense = Dense::new(3, 4, 1);
        assert_eq!(
            dense.forward_frozen(&x).unwrap(),
            dense.forward(&x, false).unwrap()
        );
        let mut relu = Relu::new(3);
        assert_eq!(
            relu.forward_frozen(&x).unwrap(),
            relu.forward(&x, false).unwrap()
        );
    }

    #[test]
    fn inference_forward_stores_nothing_for_backward() {
        let x = Matrix::from_rows(&[vec![0.5, -1.0, 2.0], vec![1.5, 0.3, -0.7]]).unwrap();
        let mut dense = Dense::new(3, 4, 1);
        dense.forward(&x, false).unwrap();
        assert!(matches!(
            backward_full(&mut dense, &Matrix::zeros(2, 4)),
            Err(NnError::BackwardBeforeForward { layer: "dense" })
        ));
        let mut relu = Relu::new(3);
        relu.forward(&x, false).unwrap();
        assert!(matches!(
            backward_full(&mut relu, &x),
            Err(NnError::BackwardBeforeForward { layer: "relu" })
        ));
        // A training forward is what arms the backward pass.
        dense.forward(&x, true).unwrap();
        assert!(backward_full(&mut dense, &Matrix::zeros(2, 4)).is_ok());
    }

    #[test]
    fn parameter_counts() {
        let d = Dense::new(10, 5, 0);
        assert_eq!(d.parameter_count(), 55);
        let r = Relu::new(4);
        assert_eq!(r.parameter_count(), 0);
    }

    #[test]
    fn flops_are_nonzero_for_parameterised_layers() {
        assert!(Dense::new(4, 4, 0).forward_flops_per_sample() > 0);
    }
}
