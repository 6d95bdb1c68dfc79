//! The one building block of every model in the crate: a dense layer,
//! followed by a ReLU in all but the classifier head; and what a training
//! step keeps per trained block ([`BlockStep`]), which both passes of the
//! ReLU rewrite in place.

use crate::{NnError, Result};
use fedft_tensor::{init, rng, Matrix, TensorError};
use std::ops::Range;

/// What one training step keeps for one block: its output, the gradient of
/// the loss at that output, and the parameter gradients its backward writes.
/// One entry per trained block lives in the suffix's step workspace
/// ([`crate::SuffixNet`]), and the entries chain: a block reads its input
/// from the `output` of the entry below it (the first block from the
/// caller's batch), and its backward writes the input gradient into that
/// entry's `grad_output`. A block itself holds none of it.
#[derive(Debug, Default)]
pub(crate) struct BlockStep {
    /// `Y`, written by every training forward; the sign of a ReLU block's
    /// `Y` is its mask.
    pub(crate) output: Matrix,
    /// `dY`, written by the loss or by the backward of the block above, and
    /// turned into `dZ` in place by this block's backward.
    pub(crate) grad_output: Matrix,
    /// `dW`, rewritten by every backward.
    pub(crate) grad_weight: Matrix,
    /// `db`, rewritten by every backward.
    pub(crate) grad_bias: Matrix,
}

impl BlockStep {
    /// The parameter gradients the last backward pass wrote, in
    /// [`DenseBlock::params`] order.
    pub(crate) fn grads(&self) -> [&Matrix; 2] {
        [&self.grad_weight, &self.grad_bias]
    }
}

/// `Y = max(0, X·W + b)`, or `Y = X·W + b` for the classifier head, with a
/// manual backward pass: the four blocks of a [`crate::BlockNet`] and the
/// suffix of them a client trains ([`crate::SuffixNet`]).
///
/// Weights are He-normal from the block's seed, biases start at zero. The
/// parameters are the weight then the bias ([`DenseBlock::params`]): that is
/// the `θ` layout, block by block, which aggregation, `tier_freeze` suffix
/// slicing, the pretrained head transfer and the frozen fingerprint all read.
///
/// A block is its parameters and nothing else: every pass reads it through a
/// shared reference, and what a training step keeps — the trace and the
/// gradients — goes into the [`BlockStep`] it is handed. So cloning a block,
/// which is what a model snapshot does, costs `O(parameters)` whatever it was
/// evaluated or trained on.
#[derive(Clone)]
pub(crate) struct DenseBlock {
    weight: Matrix,
    bias: Matrix,
    relu: bool,
}

impl std::fmt::Debug for DenseBlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DenseBlock")
            .field("shape", &self.weight.shape())
            .field("relu", &self.relu)
            .finish_non_exhaustive()
    }
}

impl DenseBlock {
    /// A block with `in_features` inputs and `out_features` outputs,
    /// initialised deterministically from `seed`; `relu` is `false` for the
    /// classifier head only.
    pub(crate) fn new(in_features: usize, out_features: usize, seed: u64, relu: bool) -> Self {
        let mut r = rng::rng_for(seed, "dense-init");
        DenseBlock {
            weight: init::he_normal(&mut r, in_features, out_features),
            bias: Matrix::zeros(1, out_features),
            relu,
        }
    }

    /// The block's name in errors.
    pub(crate) fn name(&self) -> &'static str {
        if self.relu {
            "dense+relu"
        } else {
            "dense"
        }
    }

    /// The inference forward of rows `rows` of `input`, written into `out`
    /// (`rows.len() ×` the block's width): the product reads those rows in
    /// place, and the bias and the ReLU are applied while `out` is still in
    /// cache. Through a shared reference and storing nothing: frozen blocks,
    /// evaluation and selection scoring all run it
    /// ([`crate::suffix::infer_blocks`]), none of them back-propagates, and
    /// the shared reference lets one model serve many clients concurrently.
    /// Equal bit for bit to those rows of [`DenseBlock::train_forward_into`]
    /// on `input`.
    ///
    /// # Errors
    ///
    /// Returns an error if the input width is not the block's.
    pub(crate) fn infer_rows_into(
        &self,
        input: &Matrix,
        rows: Range<usize>,
        out: &mut [f32],
    ) -> Result<()> {
        input.matmul_rows_into(rows, &self.weight, out)?;
        self.add_bias_and_activate(out);
        Ok(())
    }

    /// The epilogue of both forwards: adds the bias to every row of `out`
    /// (the product `X·W`, the block's width a row) and, in a ReLU block,
    /// clamps at zero in the same pass, while the row is still in cache.
    fn add_bias_and_activate(&self, out: &mut [f32]) {
        let bias = self.bias.as_slice();
        for row in out.chunks_exact_mut(bias.len()) {
            let pairs = row.iter_mut().zip(bias);
            if self.relu {
                pairs.for_each(|(v, &b)| *v = (*v + b).max(0.0));
            } else {
                pairs.for_each(|(v, &b)| *v += b);
            }
        }
    }

    /// The weight's `(inputs, outputs)`.
    pub(crate) fn shape(&self) -> (usize, usize) {
        self.weight.shape()
    }

    /// The training forward of `input`, written into `step.output`
    /// (reshaped and overwritten; its buffer is reused, so a loop that hands
    /// the same `step` back every step stops allocating once warm): the
    /// product, then the bias and the ReLU in one pass in place — the
    /// epilogue [`DenseBlock::infer_rows_into`] runs.
    ///
    /// # Errors
    ///
    /// Returns an error if the input width is not the block's.
    pub(crate) fn train_forward_into(&self, input: &Matrix, step: &mut BlockStep) -> Result<()> {
        input.matmul_into(&self.weight, &mut step.output)?;
        self.add_bias_and_activate(step.output.as_mut_slice());
        Ok(())
    }

    /// The backward pass for the training forward of `input` that last
    /// wrote `step`. Reads `dY` from `step.grad_output` and turns it into
    /// `dZ` there, in place; overwrites the step's parameter gradients with
    /// those of this call — it does not add to what an earlier call left.
    ///
    /// A ReLU block masks with `[Y > 0]`, the mask `[Z > 0]` would be:
    /// `max(0, z) > 0` exactly when `z > 0`, NaN included.
    ///
    /// **The input-gradient rule.** The gradient of the loss with respect to
    /// the block input is computed only when the caller names a destination:
    /// with `grad_input == Some(out)` it is written into `out` (reshaped and
    /// overwritten, buffer reused); with `None` the block skips the `dZ·Wᵀ`
    /// product. Parameter gradients are the same bits either way. The caller
    /// that passes `None` is the training step, for the first block above the
    /// freeze boundary: nothing below it is trained, so nobody would read
    /// that gradient. This is where back-propagation stops under partial
    /// fine-tuning, at every [`crate::FreezeLevel`] including `Full`, where
    /// the block's input is the data itself.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BackwardBeforeForward`] when `step.output` is not
    /// `input.rows() ×` the block's width — no training forward of this
    /// block on a batch of that height wrote it — whether or not an input
    /// gradient was asked for; or, having written nothing, a tensor error
    /// when `input` is not the block's width or `step.grad_output` is not
    /// the shape of the output.
    pub(crate) fn backward(
        &self,
        input: &Matrix,
        step: &mut BlockStep,
        grad_input: Option<&mut Matrix>,
    ) -> Result<()> {
        let (inputs, outputs) = self.weight.shape();
        if step.output.shape() != (input.rows(), outputs) {
            return Err(NnError::BackwardBeforeForward { layer: self.name() });
        }
        // Checked up front: `Xᵀ·dZ` alone accepts any `X` and `dZ` of the
        // batch's height and would reshape the gradient buffers to them.
        let expected = [(input.rows(), inputs), step.output.shape()];
        let found = [input.shape(), step.grad_output.shape()];
        if let Some((lhs, rhs)) = expected.into_iter().zip(found).find(|(e, f)| e != f) {
            let op = "dense_backward";
            return Err(NnError::Tensor(TensorError::ShapeMismatch { op, lhs, rhs }));
        }
        let grad = &mut step.grad_output;
        if self.relu {
            // dZ = dY ⊙ [Y > 0], the mask applied as a factor (not a select)
            // so a masked entry keeps the product's signed zero and NaN.
            let pairs = grad.as_mut_slice().iter_mut().zip(step.output.as_slice());
            pairs.for_each(|(g, &y)| *g *= if y > 0.0 { 1.0 } else { 0.0 });
        }
        // dW = Xᵀ·dZ and db = Σ_rows dZ, written straight into the step.
        input.matmul_tn_into(grad, &mut step.grad_weight)?;
        grad.sum_rows_into(&mut step.grad_bias);
        // dX = dZ·Wᵀ, only for a caller that reads it.
        if let Some(grad_input) = grad_input {
            grad.matmul_nt_into(&self.weight, grad_input)?;
        }
        Ok(())
    }

    /// The learnable tensors, weight then bias: the order of `θ`.
    pub(crate) fn params(&self) -> [&Matrix; 2] {
        [&self.weight, &self.bias]
    }

    /// [`DenseBlock::params`], mutably: the one walk that writes them, for
    /// an optimiser step and for a write of `θ`.
    pub(crate) fn params_mut(&mut self) -> [&mut Matrix; 2] {
        [&mut self.weight, &mut self.bias]
    }

    /// Number of learnable scalars.
    pub(crate) fn parameter_count(&self) -> usize {
        self.weight.len() + self.bias.len()
    }

    /// Floating-point operations of a forward pass on one sample, for the
    /// training-time cost model: a multiply-add per weight and the bias add
    /// (`2·in·out + out`), plus one `max` per output of a ReLU.
    pub(crate) fn forward_flops_per_sample(&self) -> u64 {
        let (inputs, outputs) = self.weight.shape();
        let activation = if self.relu { outputs } else { 0 };
        (2 * inputs * outputs + outputs + activation) as u64
    }

    /// Floating-point operations of a backward pass on one sample: by
    /// convention twice the forward.
    pub(crate) fn backward_flops_per_sample(&self) -> u64 {
        2 * self.forward_flops_per_sample()
    }

    /// Takes over `source`'s parameters while keeping this block's buffers,
    /// and returns `true`: the block is then equal to `source.clone()`.
    /// Returns `false`, having changed nothing, when `source` differs in
    /// shape or in whether it ends in a ReLU — the caller clones instead.
    pub(crate) fn refresh_from(&mut self, source: &DenseBlock) -> bool {
        if self.relu != source.relu || self.weight.shape() != source.weight.shape() {
            return false;
        }
        self.weight.clone_from(&source.weight);
        self.bias.clone_from(&source.bias);
        true
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Both shapes of block — hidden (with ReLU) and head — over one input.
    pub(crate) fn one_of_each() -> Vec<(DenseBlock, Matrix)> {
        let mut r = rng::rng_for(3, "layer-oracle");
        let x = init::normal(&mut r, 5, 7, 0.0, 1.0);
        vec![
            (DenseBlock::new(7, 4, 1, true), x.clone()),
            (DenseBlock::new(7, 4, 1, false), x),
        ]
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// The inference pass of `block` alone.
    fn infer(block: &DenseBlock, input: &Matrix) -> Result<Matrix> {
        crate::suffix::infer_blocks(std::slice::from_ref(block), input)
    }

    /// The inference forward as it was before the row-blocked walk, kept as
    /// the oracle [`DenseBlock::infer_rows_into`] must equal bit for bit: the
    /// product over the whole input into a fresh matrix, then the bias over
    /// all of it, then the ReLU over all of it.
    pub(crate) fn reference_infer(block: &DenseBlock, input: &Matrix) -> Result<Matrix> {
        let out = input
            .matmul(&block.weight)?
            .add_row_broadcast(&block.bias)?;
        Ok(if block.relu {
            out.map(|v| v.max(0.0))
        } else {
            out
        })
    }

    /// The training forward of `block` on `x` into `step`, and a copy of
    /// its output.
    fn forward(block: &DenseBlock, x: &Matrix, step: &mut BlockStep) -> Result<Matrix> {
        block.train_forward_into(x, step)?;
        Ok(step.output.clone())
    }

    /// The backward of `block` for its forward of `x`, from `dY =
    /// grad_output`, with the input gradient asked for when `wanted`;
    /// returns that gradient (empty when not asked for).
    fn backward(
        block: &DenseBlock,
        x: &Matrix,
        step: &mut BlockStep,
        grad_output: &Matrix,
        wanted: bool,
    ) -> Result<Matrix> {
        step.grad_output.clone_from(grad_output);
        let mut grad_input = Matrix::default();
        block.backward(x, step, wanted.then_some(&mut grad_input))?;
        Ok(grad_input)
    }

    #[test]
    fn skipping_the_input_gradient_leaves_parameter_gradients_bit_identical() {
        for (block, x) in one_of_each() {
            let (mut full, mut skipped) = (BlockStep::default(), BlockStep::default());
            let y = forward(&block, &x, &mut full).unwrap();
            assert_eq!(forward(&block, &x, &mut skipped).unwrap(), y);
            let mut r = rng::rng_for(4, block.name());
            let grad_output = init::normal(&mut r, y.rows(), y.cols(), 0.0, 1.0);

            let grad_input = backward(&block, &x, &mut full, &grad_output, true).unwrap();
            assert_eq!(grad_input.shape(), x.shape(), "{}", block.name());
            backward(&block, &x, &mut skipped, &grad_output, false).unwrap();

            for (a, b) in full.grads().into_iter().zip(skipped.grads()) {
                assert_eq!(a.shape(), b.shape());
                assert_eq!(bits(a), bits(b), "{}", block.name());
            }
        }
    }

    /// Either way: with or without an input gradient asked for. Inference
    /// writes no step entry, so after it the backward is still an error; a
    /// training forward is what arms it, for a batch of its height only.
    #[test]
    fn backward_before_a_training_forward_is_an_error_either_way() {
        for (block, x) in one_of_each() {
            let y = infer(&block, &x).unwrap();
            let grad_output = Matrix::zeros(y.rows(), y.cols());
            let mut step = BlockStep::default();
            for wanted in [true, false] {
                let err = backward(&block, &x, &mut step, &grad_output, wanted).unwrap_err();
                assert!(
                    matches!(err, NnError::BackwardBeforeForward { layer } if layer == block.name()),
                    "{}: {err}",
                    block.name()
                );
            }
            forward(&block, &x.select_rows(&[0, 1, 2]), &mut step).unwrap();
            let err = backward(&block, &x, &mut step, &grad_output, true).unwrap_err();
            assert!(matches!(err, NnError::BackwardBeforeForward { .. }));
            forward(&block, &x, &mut step).unwrap();
            assert!(backward(&block, &x, &mut step, &grad_output, true).is_ok());
        }
    }

    #[test]
    fn inference_equals_the_training_forward_bit_for_bit() {
        for (block, x) in one_of_each() {
            let inferred = infer(&block, &x).unwrap();
            assert_eq!(inferred.shape(), (5, 4));
            assert_eq!(bits(&inferred), bits(&reference_infer(&block, &x).unwrap()));
            let trained = forward(&block, &x, &mut BlockStep::default()).unwrap();
            assert_eq!(bits(&inferred), bits(&trained));
            // A zero input gives the (zero) bias.
            let zero = infer(&block, &Matrix::zeros(2, 7)).unwrap();
            assert_eq!(zero.as_slice().iter().sum::<f32>(), 0.0);
        }
    }

    #[test]
    fn relu_clamps_and_masks_the_gradient() {
        let mut block = DenseBlock::new(3, 3, 1, true);
        block.weight = Matrix::identity(3);
        let mut step = BlockStep::default();
        let x = Matrix::from_rows(&[vec![-1.0, 0.0, 2.0]]).unwrap();
        let y = forward(&block, &x, &mut step).unwrap();
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0]);
        let g = backward(&block, &x, &mut step, &Matrix::full(1, 3, 1.0), true).unwrap();
        assert_eq!(g.as_slice(), &[0.0, 0.0, 1.0]);
        assert_eq!(step.grads()[1].as_slice(), &[0.0, 0.0, 1.0]);
    }

    /// Central differences of `Σ infer(x)` against the analytic gradient of
    /// the same objective, for the block input and for both parameters. The
    /// inputs keep every pre-activation well away from the ReLU's kink.
    #[test]
    fn input_and_parameter_gradients_match_finite_differences() {
        let eps = 1e-2;
        let x = Matrix::from_rows(&[vec![0.5, -1.0, 2.0], vec![1.5, 0.3, -0.7]]).unwrap();
        for relu in [true, false] {
            let block = DenseBlock::new(3, 4, 3, relu);
            let kind = block.name();
            let without_relu = DenseBlock {
                relu: false,
                ..block.clone()
            };
            let pre = infer(&without_relu, &x).unwrap();
            assert!(
                pre.as_slice().iter().all(|z| z.abs() > 10.0 * eps),
                "{pre:?}"
            );
            let objective = |block: &DenseBlock, x: &Matrix| {
                infer(block, x).unwrap().as_slice().iter().sum::<f32>()
            };
            let mut step = BlockStep::default();
            let y = forward(&block, &x, &mut step).unwrap();
            let ones = Matrix::full(y.rows(), y.cols(), 1.0);
            let grad_input = backward(&block, &x, &mut step, &ones, true).unwrap();

            for r in 0..x.rows() {
                for c in 0..x.cols() {
                    let (mut plus, mut minus) = (x.clone(), x.clone());
                    plus.set(r, c, x.get(r, c) + eps);
                    minus.set(r, c, x.get(r, c) - eps);
                    let numeric =
                        (objective(&block, &plus) - objective(&block, &minus)) / (2.0 * eps);
                    let analytic = grad_input.get(r, c);
                    assert!(
                        (numeric - analytic).abs() < 1e-2,
                        "{kind} dX ({r},{c}): {numeric} vs {analytic}"
                    );
                }
            }
            for k in 0..2 {
                let analytic = step.grads()[k];
                for r in 0..analytic.rows() {
                    for c in 0..analytic.cols() {
                        let nudged = |delta: f32| {
                            let mut probe = block.clone();
                            let param = &mut probe.params_mut()[k];
                            param.set(r, c, param.get(r, c) + delta);
                            objective(&probe, &x)
                        };
                        let numeric = (nudged(eps) - nudged(-eps)) / (2.0 * eps);
                        let at = format!("{kind} param {k} ({r},{c})");
                        assert!(
                            (numeric - analytic.get(r, c)).abs() < 1e-2,
                            "{at}: {numeric}"
                        );
                    }
                }
            }
        }
    }

    /// Every backward replaces the gradients the step entry held: a second
    /// pass does not add to the first, and a non-finite gradient does not
    /// outlive its pass — the next clean one leaves finite gradients.
    #[test]
    fn backward_overwrites_gradients_and_a_nan_does_not_outlive_its_pass() {
        for (block, x) in one_of_each() {
            let kind = block.name();
            let mut step = BlockStep::default();
            let y = forward(&block, &x, &mut step).unwrap();
            let g = Matrix::full(y.rows(), y.cols(), 1.0);
            backward(&block, &x, &mut step, &g, true).unwrap();
            let first: Vec<Matrix> = step.grads().into_iter().cloned().collect();
            // A second pass replaces what the first left; it does not add to
            // it. (Doubling is exact, so the products double bit for bit.)
            forward(&block, &x, &mut step).unwrap();
            backward(&block, &x, &mut step, &g.scale(2.0), true).unwrap();
            for (second, first) in step.grads().into_iter().zip(&first) {
                assert_eq!(second, &first.scale(2.0), "{kind}");
            }

            let mut poisoned = g.clone();
            poisoned.set(0, 0, f32::NAN);
            backward(&block, &x, &mut step, &poisoned, false).unwrap();
            let reached = step.grads().iter().any(|g| !g.is_finite());
            assert!(reached, "{kind}: the NaN reached the gradients");
            forward(&block, &x, &mut step).unwrap();
            backward(&block, &x, &mut step, &g, false).unwrap();
            let finite = step.grads().iter().all(|g| g.is_finite());
            assert!(finite, "{kind}: the next clean step is finite");
            assert!(step.grads().into_iter().eq(&first), "{kind}");
        }
    }

    /// A `dY` that is not the output's shape, or an input that is not the
    /// block's width, is refused before anything is written.
    #[test]
    fn a_gradient_of_the_wrong_shape_is_an_error_and_writes_nothing() {
        for (block, x) in one_of_each() {
            let mut step = BlockStep::default();
            forward(&block, &x, &mut step).unwrap();
            let grads_before: Vec<Matrix> = step.grads().into_iter().cloned().collect();
            let narrow = Matrix::zeros(5, 6);
            // The output is 5 × 4: a wrong width, a wrong height, then the
            // right `dY` for an input one column short.
            for (input, rows, cols) in [(&x, 5, 3), (&x, 4, 4), (&narrow, 5, 4)] {
                for wanted in [true, false] {
                    let grad_output = Matrix::zeros(rows, cols);
                    let result = backward(&block, input, &mut step, &grad_output, wanted);
                    assert!(
                        matches!(result, Err(NnError::Tensor(_))),
                        "{} {rows}×{cols}",
                        block.name()
                    );
                    assert!(step.grads().into_iter().eq(&grads_before));
                }
            }
        }
    }

    #[test]
    fn parameter_and_flop_counts() {
        let hidden = DenseBlock::new(10, 5, 0, true);
        let head = DenseBlock::new(10, 5, 0, false);
        assert_eq!(hidden.parameter_count(), 55);
        assert_eq!(head.parameter_count(), 55);
        // 2·in·out + out, and one more `max` per output behind a ReLU.
        assert_eq!(head.forward_flops_per_sample(), 105);
        assert_eq!(hidden.forward_flops_per_sample(), 110);
        assert_eq!(head.backward_flops_per_sample(), 210);
        assert_eq!(hidden.backward_flops_per_sample(), 220);
    }

    #[test]
    fn refresh_refuses_another_shape_or_kind_and_changes_nothing() {
        let mut kept = DenseBlock::new(7, 4, 1, true);
        let before = bits(kept.params()[0]);
        for source in [
            DenseBlock::new(7, 4, 2, false),
            DenseBlock::new(7, 5, 2, true),
            DenseBlock::new(6, 4, 2, true),
        ] {
            assert!(!kept.refresh_from(&source), "{source:?}");
            assert_eq!(bits(kept.params()[0]), before);
        }
        let source = DenseBlock::new(7, 4, 2, true);
        assert!(kept.refresh_from(&source));
        assert_eq!(kept.params(), source.params());
    }
}
