//! Fully-connected, activation, dropout and normalisation layers.

use crate::layer::{Layer, Scratch};
use crate::{NnError, Result};
use fedft_tensor::{init, rng, Matrix};
use rand::Rng;
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

/// Inverted dropout: active only during training, identity at inference.
#[derive(Debug, Clone)]
pub struct Dropout {
    rate: f32,
    seed: u64,
    calls: u64,
    mask: Scratch<Option<Matrix>>,
    features_hint: usize,
}

impl Dropout {
    /// Creates a dropout layer that zeroes each activation with probability
    /// `rate` during training.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not in `[0, 1)`.
    pub fn new(rate: f32, seed: u64, features_hint: usize) -> Self {
        assert!((0.0..1.0).contains(&rate), "dropout rate must be in [0, 1)");
        Dropout {
            rate,
            seed,
            calls: 0,
            mask: Scratch::default(),
            features_hint,
        }
    }

    /// The configured dropout probability.
    pub fn rate(&self) -> f32 {
        self.rate
    }
}

impl Layer for Dropout {
    fn name(&self) -> &'static str {
        "dropout"
    }

    fn forward_into(&mut self, input: &Matrix, training: bool, out: &mut Matrix) -> Result<()> {
        if !training || self.rate == 0.0 {
            *self.mask = None;
            out.clone_from(input);
            return Ok(());
        }
        self.calls += 1;
        let mut r = rng::rng_for_indexed(self.seed, "dropout", self.calls);
        let keep = 1.0 - self.rate;
        let mask = self.mask.get_or_insert_with(Matrix::default);
        mask.resize_zeroed(input.rows(), input.cols());
        for m in mask.as_mut_slice() {
            if r.gen::<f32>() < keep {
                *m = 1.0 / keep;
            }
        }
        Ok(input.zip_with_into(mask, "hadamard", out, |x, m| x * m)?)
    }

    fn forward_frozen(&self, input: &Matrix) -> Result<Matrix> {
        // Frozen blocks always run in inference mode, where dropout is the
        // identity.
        Ok(input.clone())
    }

    fn backward(&mut self, grad_output: &Matrix, grad_input: Option<&mut Matrix>) -> Result<()> {
        let Some(grad_input) = grad_input else {
            return Ok(());
        };
        match &*self.mask {
            Some(mask) => grad_output.zip_with_into(mask, "hadamard", grad_input, |g, m| g * m)?,
            None => grad_input.clone_from(grad_output),
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
}

/// Batch normalisation over features for 2-D activations, with running
/// statistics for inference.
#[derive(Debug, Clone)]
pub struct BatchNorm1d {
    gamma: Matrix,
    beta: Matrix,
    grad_gamma: Matrix,
    grad_beta: Matrix,
    running_mean: Matrix,
    running_var: Matrix,
    momentum: f32,
    eps: f32,
    features: usize,
    cache: Scratch<Option<BnCache>>,
}

#[derive(Debug, Default)]
struct BnCache {
    normalised: Matrix,
    std_inv: Vec<f32>,
}

impl BatchNorm1d {
    /// Creates a batch-norm layer over `features` columns.
    pub fn new(features: usize) -> Self {
        BatchNorm1d {
            gamma: Matrix::full(1, features, 1.0),
            beta: Matrix::zeros(1, features),
            grad_gamma: Matrix::zeros(1, features),
            grad_beta: Matrix::zeros(1, features),
            running_mean: Matrix::zeros(1, features),
            running_var: Matrix::full(1, features, 1.0),
            momentum: 0.1,
            eps: 1e-5,
            features,
            cache: Scratch::default(),
        }
    }

    /// Number of normalised features.
    pub fn features(&self) -> usize {
        self.features
    }

    /// The normalisation arithmetic shared by every forward path:
    /// `out = γ · (x − mean) / √(var + ε) + β`, also writing the normalised
    /// activations and inverse standard deviations the backward pass reads
    /// into `cache`. One implementation keeps the training, inference and
    /// frozen paths bit-identical by construction.
    fn normalise(
        &self,
        input: &Matrix,
        mean: &Matrix,
        var: &Matrix,
        out: &mut Matrix,
        cache: &mut BnCache,
    ) {
        cache.std_inv.clear();
        cache
            .std_inv
            .extend((0..self.features).map(|c| 1.0 / (var.get(0, c) + self.eps).sqrt()));
        cache.normalised.resize_zeroed(input.rows(), self.features);
        out.resize_zeroed(input.rows(), self.features);
        for r in 0..input.rows() {
            for (c, &si) in cache.std_inv.iter().enumerate() {
                let x_hat = (input.get(r, c) - mean.get(0, c)) * si;
                cache.normalised.set(r, c, x_hat);
                out.set(r, c, self.gamma.get(0, c) * x_hat + self.beta.get(0, c));
            }
        }
    }

    fn check_width(&self, input: &Matrix) -> Result<()> {
        if input.cols() != self.features {
            return Err(NnError::Tensor(fedft_tensor::TensorError::ShapeMismatch {
                op: "batchnorm_forward",
                lhs: input.shape(),
                rhs: (1, self.features),
            }));
        }
        Ok(())
    }
}

impl Layer for BatchNorm1d {
    fn name(&self) -> &'static str {
        "batchnorm1d"
    }

    fn forward_into(&mut self, input: &Matrix, training: bool, out: &mut Matrix) -> Result<()> {
        self.check_width(input)?;
        let n = input.rows().max(1) as f32;
        let (mean, var) = if training && input.rows() > 1 {
            let mean = input.mean_rows()?;
            let mut var = Matrix::zeros(1, self.features);
            for r in 0..input.rows() {
                for c in 0..self.features {
                    let d = input.get(r, c) - mean.get(0, c);
                    var.set(0, c, var.get(0, c) + d * d);
                }
            }
            var.scale_assign(1.0 / n);
            // Update running statistics.
            for c in 0..self.features {
                let rm = self.running_mean.get(0, c);
                let rv = self.running_var.get(0, c);
                self.running_mean.set(
                    0,
                    c,
                    (1.0 - self.momentum) * rm + self.momentum * mean.get(0, c),
                );
                self.running_var.set(
                    0,
                    c,
                    (1.0 - self.momentum) * rv + self.momentum * var.get(0, c),
                );
            }
            (mean, var)
        } else {
            (self.running_mean.clone(), self.running_var.clone())
        };

        // Only a training pass keeps what it normalised, in the buffers the
        // previous step left.
        let mut cache = self.cache.take().unwrap_or_default();
        self.normalise(input, &mean, &var, out, &mut cache);
        *self.cache = training.then_some(cache);
        Ok(())
    }

    fn forward_frozen(&self, input: &Matrix) -> Result<Matrix> {
        self.check_width(input)?;
        // The inference path of `forward`: running statistics, no cache.
        let mut out = Matrix::default();
        self.normalise(
            input,
            &self.running_mean,
            &self.running_var,
            &mut out,
            &mut BnCache::default(),
        );
        Ok(out)
    }

    fn backward(
        &mut self,
        grad_output: &Matrix,
        mut grad_input: Option<&mut Matrix>,
    ) -> Result<()> {
        let cache = self.cache.as_ref().ok_or(NnError::BackwardBeforeForward {
            layer: "batchnorm1d",
        })?;
        let n = grad_output.rows() as f32;
        if let Some(grad_input) = grad_input.as_deref_mut() {
            grad_input.resize_zeroed(grad_output.rows(), self.features);
        }

        for c in 0..self.features {
            let mut sum_dy = 0.0_f32;
            let mut sum_dy_xhat = 0.0_f32;
            for r in 0..grad_output.rows() {
                let dy = grad_output.get(r, c);
                sum_dy += dy;
                sum_dy_xhat += dy * cache.normalised.get(r, c);
            }
            self.grad_beta.set(0, c, sum_dy);
            self.grad_gamma.set(0, c, sum_dy_xhat);
            let Some(grad_input) = grad_input.as_deref_mut() else {
                continue;
            };
            let gamma = self.gamma.get(0, c);
            for r in 0..grad_output.rows() {
                let dy = grad_output.get(r, c);
                let x_hat = cache.normalised.get(r, c);
                let dx = gamma * cache.std_inv[c] / n * (n * dy - sum_dy - x_hat * sum_dy_xhat);
                grad_input.set(r, c, dx);
            }
        }
        Ok(())
    }

    fn params(&self) -> Vec<&Matrix> {
        vec![&self.gamma, &self.beta]
    }

    fn params_mut(&mut self) -> Vec<&mut Matrix> {
        vec![&mut self.gamma, &mut self.beta]
    }

    fn grads(&self) -> Vec<&Matrix> {
        vec![&self.grad_gamma, &self.grad_beta]
    }

    fn visit_params(
        &mut self,
        f: &mut dyn FnMut(&mut Matrix, &Matrix) -> Result<()>,
    ) -> Result<()> {
        f(&mut self.gamma, &self.grad_gamma)?;
        f(&mut self.beta, &self.grad_beta)
    }

    fn zero_grads(&mut self) {
        self.grad_gamma.as_mut_slice().fill(0.0);
        self.grad_beta.as_mut_slice().fill(0.0);
    }

    fn forward_flops_per_sample(&self) -> u64 {
        (self.features * 4) as u64
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::backward_full;
    use fedft_tensor::stats;

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
        let shape = crate::conv::VolumeShape::new(1, 2, 2);
        let mut layers: Vec<Box<dyn Layer>> = vec![
            Box::new(Dense::new(4, 3, 1)),
            Box::new(BatchNorm1d::new(4)),
            Box::new(crate::conv::Conv2d::new(shape, 2, 2, 0, 3).unwrap()),
        ];
        for layer in &mut layers {
            let y = layer.forward(&x, true).unwrap();
            let mut poisoned = Matrix::full(y.rows(), y.cols(), 1.0);
            poisoned.set(0, 0, f32::NAN);
            layer.backward(&poisoned, None).unwrap();
            assert!(
                layer.grads().iter().any(|g| !g.is_finite()),
                "{}: the NaN reached the gradients",
                layer.name()
            );

            layer.zero_grads();
            assert!(
                layer
                    .grads()
                    .iter()
                    .all(|g| g.as_slice().iter().all(|v| v.to_bits() == 0)),
                "{}: zero_grads leaves exact zeros",
                layer.name()
            );
            layer.forward(&x, true).unwrap();
            let clean = Matrix::full(y.rows(), y.cols(), 1.0);
            layer.backward(&clean, None).unwrap();
            assert!(
                layer.grads().iter().all(|g| g.is_finite()),
                "{}: the next clean step is finite",
                layer.name()
            );
        }
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
    fn dropout_is_identity_at_inference() {
        let mut d = Dropout::new(0.5, 7, 4);
        let x = Matrix::full(2, 4, 3.0);
        let y = d.forward(&x, false).unwrap();
        assert!(y.approx_eq(&x, 0.0));
    }

    #[test]
    fn dropout_preserves_expected_scale_in_training() {
        let mut d = Dropout::new(0.5, 7, 512);
        let x = Matrix::full(8, 512, 1.0);
        let y = d.forward(&x, true).unwrap();
        // Inverted dropout: mean stays near 1.
        assert!((y.mean() - 1.0).abs() < 0.1, "mean={}", y.mean());
    }

    #[test]
    fn dropout_backward_applies_same_mask() {
        let mut d = Dropout::new(0.5, 9, 16);
        let x = Matrix::full(4, 16, 1.0);
        let y = d.forward(&x, true).unwrap();
        let g = backward_full(&mut d, &Matrix::full(4, 16, 1.0)).unwrap();
        assert!(g.approx_eq(&y, 1e-6));
    }

    #[test]
    #[should_panic(expected = "dropout rate")]
    fn dropout_rejects_invalid_rate() {
        let _ = Dropout::new(1.0, 0, 4);
    }

    #[test]
    fn batchnorm_normalises_training_batch() {
        let mut bn = BatchNorm1d::new(2);
        let x = Matrix::from_rows(&[vec![1.0, 10.0], vec![3.0, 20.0], vec![5.0, 30.0]]).unwrap();
        let y = bn.forward(&x, true).unwrap();
        for c in 0..2 {
            let col = y.column(c);
            assert!(stats::mean(&col).abs() < 1e-4);
            assert!((stats::variance(&col) - 1.0).abs() < 0.1);
        }
    }

    #[test]
    fn batchnorm_rejects_wrong_width() {
        let mut bn = BatchNorm1d::new(2);
        assert!(bn.forward(&Matrix::zeros(3, 5), true).is_err());
    }

    #[test]
    fn batchnorm_backward_requires_forward() {
        let mut bn = BatchNorm1d::new(2);
        assert!(backward_full(&mut bn, &Matrix::zeros(3, 2)).is_err());
    }

    #[test]
    fn batchnorm_inference_uses_running_stats() {
        let mut bn = BatchNorm1d::new(1);
        let x = Matrix::from_rows(&[vec![2.0], vec![4.0], vec![6.0]]).unwrap();
        for _ in 0..50 {
            bn.forward(&x, true).unwrap();
        }
        let y = bn
            .forward(&Matrix::from_rows(&[vec![4.0]]).unwrap(), false)
            .unwrap();
        // 4.0 is the running mean, so the normalised output is near zero.
        assert!(y.get(0, 0).abs() < 0.2, "got {}", y.get(0, 0));
    }

    #[test]
    fn batchnorm_input_gradient_matches_finite_difference() {
        let mut bn = BatchNorm1d::new(2);
        let x = Matrix::from_rows(&[vec![0.3, -1.2], vec![1.1, 0.4], vec![-0.5, 2.0]]).unwrap();
        let y = bn.forward(&x, true).unwrap();
        // Objective: weighted sum so gradients differ per element.
        let weights =
            Matrix::from_rows(&[vec![1.0, 2.0], vec![-1.0, 0.5], vec![0.25, -2.0]]).unwrap();
        let analytic = backward_full(&mut bn, &weights).unwrap();
        let _ = y;

        let mut probe = BatchNorm1d::new(2);
        finite_difference_check(
            |input| {
                probe
                    .forward(input, true)
                    .unwrap()
                    .hadamard(&weights)
                    .unwrap()
                    .sum()
            },
            &x,
            &analytic,
            1e-3,
            2e-2,
        );
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
        let mut dropout = Dropout::new(0.5, 7, 3);
        assert_eq!(
            dropout.forward_frozen(&x).unwrap(),
            dropout.forward(&x, false).unwrap()
        );
        let mut bn = BatchNorm1d::new(3);
        // Accumulate some running statistics first so the inference path is
        // non-trivial.
        for _ in 0..3 {
            bn.forward(&x, true).unwrap();
        }
        assert_eq!(
            bn.forward_frozen(&x).unwrap(),
            bn.forward(&x, false).unwrap()
        );
        assert!(bn.forward_frozen(&Matrix::zeros(1, 5)).is_err());
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
        let bn = BatchNorm1d::new(8);
        assert_eq!(bn.parameter_count(), 16);
        let r = Relu::new(4);
        assert_eq!(r.parameter_count(), 0);
    }

    #[test]
    fn flops_are_nonzero_for_parameterised_layers() {
        assert!(Dense::new(4, 4, 0).forward_flops_per_sample() > 0);
        assert!(BatchNorm1d::new(4).forward_flops_per_sample() > 0);
    }
}
