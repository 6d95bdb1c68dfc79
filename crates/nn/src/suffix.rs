//! The trainable suffix `θ` of a [`crate::BlockNet`], detached from the
//! frozen backbone `ϕ`.
//!
//! Partial fine-tuning only ever trains the blocks above the freeze
//! boundary, so a client does not need its own copy of the backbone: it can
//! share the server's model for the (read-only) frozen forward pass and keep
//! a private [`SuffixNet`] — an `O(|θ|)` snapshot of just the trainable
//! blocks — for local training. A [`SuffixNet`] is the only thing that
//! trains: centralised training ([`crate::fit`]) steps a snapshot at
//! [`FreezeLevel::Full`] the same way. All suffix arithmetic lives in the
//! crate-private helpers below, whose inference half
//! [`crate::BlockNet`] delegates to as well, so the full-model and split
//! passes are the *same code* on the same inputs and therefore produce
//! bit-identical results.
//!
//! A training step's state is one `BlockStep` per trained block — the
//! block's output and the gradient at it, and its parameter gradients —
//! kept by the suffix between steps: each block reads the output of the one
//! below in place, and nothing else is stored beside the entries.
//!
//! Inference is one walk over 128-row blocks. The worker pool
//! cuts it at both levels ([`fedft_tensor::pool::row_runs`]): runs of whole
//! blocks, one per core, go to [`fedft_tensor::pool::run_parts`], which
//! decides whether they run inline, and each run loops over its blocks.

use crate::dense::{BlockStep, DenseBlock};
use crate::freeze::FreezeLevel;
use crate::loss::{log_probability, SoftmaxCrossEntropy};
use crate::optimizer::Sgd;
use crate::params::ParamVector;
use crate::{NnError, Result};
use fedft_tensor::{pool, stats, Matrix, TensorError};
use std::cell::RefCell;
use std::ops::Range;

/// What a training pass leaves behind for itself: the buffers a training
/// step writes and reuses.
///
/// Scratch has no identity, so a clone starts empty (`T::default()`): a
/// suffix snapshot costs `O(|θ|)` even when the suffix it is taken of has
/// just trained on a batch. Dereferences to `T`.
#[derive(Debug, Default)]
struct Scratch<T>(T);

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

/// Rows per block of the inference walk ([`infer_blocks`],
/// [`evaluate_blocks`]). At the workloads' width of 256 a block's two
/// activation buffers (128 KB each) and a 256×256 weight (256 KB) fit in the
/// L2 cache, so each layer reads what the layer before it wrote while it is
/// still there; a block is sixteen full 8-row register slabs, and its
/// largest product (128×256×256) stays on the direct kernel.
///
/// Measured on a 2-vCPU AVX-512 Xeon, minimum of seven alternated
/// processes, over 10,000 rows of a 48 → 256 → 256 → 256 → 10 model:
///
/// | rows per block           | 32   | 64   | 128  | 256  | 512  | whole |
/// |--------------------------|------|------|------|------|------|-------|
/// | `forward_frozen`, ms     | 16.9 | 18.2 | 13.6 | 22.3 | 20.8 | 29.5  |
/// | `evaluate_from`, ms      | 1.43 | 1.40 | 1.12 | 1.21 | 1.30 | 1.59  |
///
/// (`forward_frozen` at the `Classifier` level, three layers; `evaluate_from`
/// the head and the loss on its output; "whole" is the pass this walk
/// replaced, each layer over all the rows before the next.)
const ROW_BLOCK: usize = 128;

thread_local! {
    /// The inference walk's buffers on this thread, kept between calls: they
    /// grow to one row block of the widest layer and stay, so a warm pass
    /// allocates only what it returns. Per-thread scratch, never a model
    /// field, so a model or a snapshot holds no activations.
    static WALK: RefCell<Walk> = RefCell::new(Walk::default());
}

/// What one thread's inference walk writes besides its output.
#[derive(Default)]
struct Walk {
    /// Two ping-pong activation buffers: a hidden block writes one while the
    /// next reads the other.
    activations: [Matrix; 2],
    /// One row block's logits, which evaluation reduces and drops.
    logits: Vec<f32>,
}

/// Checks, before any row block runs, that `input` chains through `blocks`,
/// and returns the width the last one produces (the input's with no block).
/// A mismatch is the error the first mismatched product would return.
fn output_width(blocks: &[DenseBlock], input: &Matrix) -> Result<usize> {
    let mut width = input.cols();
    for block in blocks {
        let (inputs, outputs) = block.shape();
        if width != inputs {
            return Err(NnError::Tensor(TensorError::ShapeMismatch {
                op: "matmul",
                lhs: (input.rows(), width),
                rhs: (inputs, outputs),
            }));
        }
        width = outputs;
    }
    Ok(width)
}

/// Runs rows `rows` of `input` through every block into `out`
/// (`rows.len() ×` the last block's width): the first block reads its rows
/// of `input` in place, every hidden block writes one of `activations` while
/// the next reads the other, and the last writes `out`. With no block, `out`
/// is a copy of the rows.
fn walk_rows(
    blocks: &[DenseBlock],
    input: &Matrix,
    rows: Range<usize>,
    activations: &mut [Matrix; 2],
    out: &mut [f32],
) -> Result<()> {
    let Some((last, hidden)) = blocks.split_last() else {
        let cols = input.cols();
        out.copy_from_slice(&input.as_slice()[rows.start * cols..rows.end * cols]);
        return Ok(());
    };
    let n = rows.len();
    let [a, b] = activations;
    let (mut src, mut dst) = (a, b);
    for (i, block) in hidden.iter().enumerate() {
        let width = block.shape().1;
        if dst.cols() != width || dst.rows() < n {
            dst.resize_zeroed(n, width);
        }
        let (from, from_rows) = if i == 0 {
            (input, rows.clone())
        } else {
            (&*src, 0..n)
        };
        block.infer_rows_into(from, from_rows, &mut dst.as_mut_slice()[..n * width])?;
        std::mem::swap(&mut src, &mut dst);
    }
    let (from, from_rows) = if hidden.is_empty() {
        (input, rows)
    } else {
        (&*src, 0..n)
    };
    last.infer_rows_into(from, from_rows, out)
}

/// Runs `body` over `0..rows` in contiguous runs of whole row blocks, one
/// per core, each with its rows of `out` (`per_row` values a row), and
/// returns what each run returned, in row order. The runs are the pool's
/// parts ([`pool::row_runs`], [`pool::run_parts`]): a pass of one block is
/// one run on the caller, whose products keep the kernels' own row split,
/// and a run the pool hands a thread has its products inline.
fn on_row_blocks<T: Send>(
    rows: usize,
    out: &mut [f32],
    per_row: usize,
    body: impl Fn(Range<usize>, &mut [f32]) -> Result<T> + Sync,
) -> Result<Vec<T>> {
    let run_rows = pool::chunk_len(rows.div_ceil(ROW_BLOCK), pool::hardware_threads()) * ROW_BLOCK;
    let runs = pool::row_runs(0..rows, run_rows, out, per_row);
    pool::run_parts(runs, |(rows, out)| body(rows, out))
        .into_iter()
        .collect()
}

/// Inference pass through a run of blocks via a shared reference: the one
/// read-only forward behind [`crate::BlockNet::forward_frozen`] (the blocks
/// below a boundary), [`crate::BlockNet::forward_from`] (the blocks above
/// it), [`SuffixNet::forward`] and, through [`evaluate_blocks`],
/// [`crate::BlockNet::evaluate_from`].
///
/// It walks `input` in blocks of [`ROW_BLOCK`] rows, each through every
/// block in this thread's two reused activation buffers: the first block
/// reads its rows of `input` in place, and the last writes straight into its
/// rows of the result, so the result is the only matrix a warm pass
/// allocates. Every element is the multiply-add chain of the whole-matrix
/// pass, so the rows come out the same bit for bit, on any thread.
///
/// # Errors
///
/// Returns an error, before any row block runs, if the input width does not
/// match the first block.
pub(crate) fn infer_blocks(blocks: &[DenseBlock], input: &Matrix) -> Result<Matrix> {
    let width = output_width(blocks, input)?;
    let mut result = Matrix::zeros(input.rows(), width);
    on_row_blocks(input.rows(), result.as_mut_slice(), width, |rows, out| {
        WALK.with_borrow_mut(|walk| {
            for (block_rows, block_out) in pool::row_runs(rows, ROW_BLOCK, out, width) {
                walk_rows(blocks, input, block_rows, &mut walk.activations, block_out)?;
            }
            Ok(())
        })
    })?;
    Ok(result)
}

/// Accuracy and mean cross-entropy of the logits of `blocks` on
/// `(input, labels)`, from the walk of [`infer_blocks`] without a logits
/// matrix: each row block's logits stay in this thread's buffer, which
/// yields every row's log-probability of its label
/// ([`crate::loss::log_probability`]) into a per-row slot and whether its
/// argmax ([`stats::argmax`], first maximum wins) hits the label. The terms
/// are then folded in row order, as [`SoftmaxCrossEntropy::loss`] folds
/// them, so both values equal [`stats::accuracy`] and
/// [`SoftmaxCrossEntropy::loss`] on [`infer_blocks`]' logits bit for bit.
///
/// # Errors
///
/// Returns, before any row block runs, the error that pair would: a width
/// mismatch, then an empty input or a label count that is not the row
/// count, then the first label out of range.
pub(crate) fn evaluate_blocks(
    blocks: &[DenseBlock],
    input: &Matrix,
    labels: &[usize],
) -> Result<(f32, f32)> {
    let classes = output_width(blocks, input)?;
    let rows = input.rows();
    if rows == 0 {
        return Err(NnError::Tensor(TensorError::EmptyMatrix { op: "accuracy" }));
    }
    if rows != labels.len() {
        return Err(NnError::Tensor(TensorError::ShapeMismatch {
            op: "accuracy",
            lhs: (rows, classes),
            rhs: (labels.len(), 1),
        }));
    }
    if let Some(&label) = labels.iter().find(|&&label| label >= classes) {
        return Err(NnError::LabelOutOfRange {
            label,
            num_classes: classes,
        });
    }
    let mut terms = vec![0.0_f32; rows];
    let hits = on_row_blocks(rows, &mut terms, 1, |rows, terms| {
        WALK.with_borrow_mut(|walk| {
            let Walk {
                activations,
                logits,
            } = walk;
            let mut hits = 0_usize;
            for (block_rows, block_terms) in pool::row_runs(rows, ROW_BLOCK, terms, 1) {
                let logits = grown(logits, block_rows.len() * classes);
                let block_labels = &labels[block_rows.clone()];
                walk_rows(blocks, input, block_rows, activations, logits)?;
                let scored = logits.chunks_exact(classes).zip(block_labels);
                for ((row, &label), term) in scored.zip(block_terms) {
                    *term = log_probability(row, label);
                    hits += usize::from(stats::argmax(row) == label);
                }
            }
            Ok(hits)
        })
    })?;
    let mut total = 0.0_f32;
    for term in &terms {
        total -= term;
    }
    let hits: usize = hits.into_iter().sum();
    Ok((hits as f32 / rows as f32, total / rows as f32))
}

/// The first `len` values of `buffer`, grown to hold them if it is shorter.
fn grown(buffer: &mut Vec<f32>, len: usize) -> &mut [f32] {
    if buffer.len() < len {
        buffer.resize(len, 0.0);
    }
    &mut buffer[..len]
}

/// One training step on a run of blocks: forward from the boundary
/// activations, loss, backward, optimiser step — each writing into `steps`,
/// one [`BlockStep`] per block, or into the blocks' parameters, never into a
/// fresh matrix.
///
/// The entries chain: block `i` reads the batch (`i = 0`) or entry `i − 1`'s
/// output in place, the loss writes the gradient at the last output into the
/// last entry, and each block's backward writes the gradient at its input
/// into the entry below. The backward pass stops at the boundary: the first
/// block computes its parameter gradients but not the gradient with respect
/// to `input`, which nothing reads — the blocks below are frozen, or, at
/// [`FreezeLevel::Full`], `input` is the data. That is decided here, by
/// position, for every caller. With no blocks the step is the loss of
/// `input`.
///
/// This is the single implementation of the training step, behind
/// [`SuffixNet::train_batch`].
fn train_blocks(
    blocks: &mut [DenseBlock],
    input: &Matrix,
    labels: &[usize],
    optimizer: &mut Sgd,
    steps: &mut Vec<BlockStep>,
) -> Result<f32> {
    steps.resize_with(blocks.len(), BlockStep::default);
    let mut x = input;
    for (block, step) in blocks.iter().zip(steps.iter_mut()) {
        block.train_forward_into(x, step)?;
        x = &step.output;
    }
    let loss = SoftmaxCrossEntropy::new();
    let loss_value = match steps.last_mut() {
        Some(last) => loss.forward_backward_into(&last.output, labels, &mut last.grad_output)?,
        None => loss.loss(input, labels)?,
    };
    for (i, block) in blocks.iter().enumerate().rev() {
        let (below, from_here) = steps.split_at_mut(i);
        let step = &mut from_here[0];
        match below.last_mut() {
            Some(prev) => block.backward(&prev.output, step, Some(&mut prev.grad_output))?,
            None => block.backward(input, step, None)?,
        }
    }

    let params = blocks.iter().flat_map(DenseBlock::params);
    let mut step = optimizer.begin_step(params.clone().count(), params.map(Matrix::len).sum())?;
    let pairs = blocks.iter_mut().zip(steps.iter());
    for (param, grad) in pairs.flat_map(|(b, e)| b.params_mut().into_iter().zip(e.grads())) {
        step.update(param, grad)?;
    }
    Ok(loss_value)
}

/// The trainable part `θ` of a block network under a fixed freeze level.
///
/// A `SuffixNet` is produced by [`crate::BlockNet::trainable_suffix`]: it
/// clones only the blocks above the freeze boundary, so a client holding one
/// costs `O(|θ|)` memory instead of `O(|ϕ| + |θ|)` for a full model clone.
/// Inference never stores activations and a clone leaves behind those a
/// training step stored, so a snapshot is `O(|θ|)` whatever the global model
/// was evaluated or trained on, and stays so when a whole shard is scored
/// with [`SuffixNet::forward`]; only a training step keeps activations, a
/// block output and the gradient at it per trained block.
/// Its inputs are **boundary activations** — the output of
/// [`crate::BlockNet::forward_frozen`] on raw features (or a cached copy of
/// it), never the raw features themselves (except at
/// [`FreezeLevel::Full`], where the boundary *is* the input).
///
/// The [`Default`] suffix has no blocks; it is what a holder that keeps one
/// between clients starts from ([`crate::BlockNet::refresh_suffix`]).
#[derive(Debug, Clone, Default)]
pub struct SuffixNet {
    blocks: Vec<DenseBlock>,
    freeze: FreezeLevel,
    workspace: Scratch<Vec<BlockStep>>,
}

impl SuffixNet {
    /// Builds a suffix from pre-cloned trainable blocks.
    pub(crate) fn from_blocks(blocks: Vec<DenseBlock>, freeze: FreezeLevel) -> Self {
        SuffixNet {
            blocks,
            freeze,
            workspace: Scratch::default(),
        }
    }

    /// Becomes a snapshot of `blocks` at `freeze` — the one implementation
    /// behind [`crate::BlockNet::trainable_suffix`] and
    /// [`crate::BlockNet::refresh_suffix`]. A suffix of the same freeze
    /// level whose every block can take over its counterpart's parameters
    /// ([`DenseBlock::refresh_from`]) is refreshed in place, keeping its
    /// parameter buffers and the scratch of its last training step; any
    /// other — a new one, another level, another width — is replaced by a
    /// clone of `blocks`.
    pub(crate) fn refresh_from(&mut self, blocks: &[DenseBlock], freeze: FreezeLevel) {
        let in_place = self.freeze == freeze
            && self.blocks.len() == blocks.len()
            && self
                .blocks
                .iter_mut()
                .zip(blocks)
                .all(|(kept, source)| kept.refresh_from(source));
        if !in_place {
            *self = SuffixNet::from_blocks(blocks.to_vec(), freeze);
        }
    }

    /// Inference forward pass from boundary activations to logits; it
    /// stores nothing.
    ///
    /// # Errors
    ///
    /// Returns an error if the boundary width does not match the first
    /// trainable block.
    pub fn forward(&self, boundary: &Matrix) -> Result<Matrix> {
        infer_blocks(&self.blocks, boundary)
    }

    /// One training step on a batch of boundary activations; returns the
    /// batch loss. At [`FreezeLevel::Full`] the boundary activations are the
    /// raw features.
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
        train_blocks(
            &mut self.blocks,
            boundary,
            labels,
            optimizer,
            &mut self.workspace,
        )
    }

    /// Writes a flattened `θ`, in [`SuffixNet::trainable_vector`]'s order,
    /// into the suffix's parameters. After
    /// [`crate::BlockNet::refresh_suffix`]`(freeze, ..)` the suffix is then
    /// a snapshot of the model that
    /// [`crate::BlockNet::set_trainable_vector`]`(freeze, vector)` would
    /// make, with no model cloned or written: how an older model version
    /// trains on a live backbone when only its `θ` was kept.
    ///
    /// # Errors
    ///
    /// Returns [`crate::NnError::ParamLengthMismatch`], having written
    /// nothing, when the length differs from the suffix's parameter count.
    #[inline]
    pub fn set_trainable_vector(&mut self, vector: &ParamVector) -> Result<()> {
        let mut params: Vec<&mut Matrix> = self
            .blocks
            .iter_mut()
            .flat_map(DenseBlock::params_mut)
            .collect();
        vector.write_to(&mut params)
    }

    /// Flattens the suffix parameters (`θ`) into a vector, in the same order
    /// as [`crate::BlockNet::trainable_vector`] at the matching freeze level.
    pub fn trainable_vector(&self) -> ParamVector {
        self.trainable_vector_into(Vec::new())
    }

    /// [`SuffixNet::trainable_vector`] written into `buffer` (contents
    /// discarded, capacity kept): with a buffer that already holds `|θ|`
    /// values' worth of capacity — a recycled upload — flattening allocates
    /// nothing θ-sized.
    pub fn trainable_vector_into(&self, buffer: Vec<f32>) -> ParamVector {
        let params: Vec<&Matrix> = self.blocks.iter().flat_map(|b| b.params()).collect();
        ParamVector::from_params_into(&params, buffer)
    }
}

/// The training step as it was before it stopped at the boundary and went
/// in place, kept as the oracle [`train_blocks`] must equal bit for bit:
/// every block writes a fresh [`BlockStep`] and hands the next a copy of its
/// output, the inputs are kept in a list of their own, the backward pass runs
/// through the first block too (its input gradient computed and dropped),
/// each gradient at an output is a fresh matrix, gradients are cloned out of
/// the steps and the optimiser steps over `Vec`s of references. Returns the
/// loss and the gradients, in `θ` order.
#[cfg(test)]
fn reference_train_blocks(
    blocks: &mut [DenseBlock],
    input: &Matrix,
    labels: &[usize],
    optimizer: &mut Sgd,
) -> Result<(f32, Vec<Matrix>)> {
    let mut per_block: Vec<BlockStep> = blocks.iter().map(|_| BlockStep::default()).collect();
    // Every block's input, then the logits.
    let mut inputs = vec![input.clone()];
    for (block, entry) in blocks.iter().zip(&mut per_block) {
        block.train_forward_into(&inputs[inputs.len() - 1], entry)?;
        inputs.push(entry.output.clone());
    }
    let logits = inputs.pop().expect("the input is in the list");
    let mut grad = Matrix::default();
    let loss_value =
        SoftmaxCrossEntropy::new().forward_backward_into(&logits, labels, &mut grad)?;
    let traced = blocks.iter().zip(&mut per_block).zip(&inputs);
    for ((block, entry), x) in traced.rev() {
        entry.grad_output = grad;
        let mut grad_input = Matrix::default();
        block.backward(x, entry, Some(&mut grad_input))?;
        grad = grad_input;
    }
    let grads: Vec<Matrix> = per_block
        .iter()
        .flat_map(BlockStep::grads)
        .cloned()
        .collect();
    let mut params: Vec<&mut Matrix> = blocks.iter_mut().flat_map(DenseBlock::params_mut).collect();
    let grad_refs: Vec<&Matrix> = grads.iter().collect();
    optimizer.step(&mut params, &grad_refs)?;
    Ok((loss_value, grads))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{BlockNet, BlockNetConfig};
    use crate::optimizer::{ProximalTerm, SgdConfig};
    use fedft_tensor::parallel;

    fn net() -> BlockNet {
        BlockNet::new(&BlockNetConfig::new(6, 3).with_hidden(8, 8, 8), 11)
    }

    #[test]
    fn suffix_mirrors_the_trainable_part_of_the_model() {
        let model = net();
        for freeze in FreezeLevel::all() {
            let suffix = model.trainable_suffix(freeze);
            assert_eq!(suffix.freeze, freeze);
            assert_eq!(
                suffix.trainable_vector().len(),
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
            let suffix = model.trainable_suffix(freeze);
            let split = suffix.forward(&boundary).unwrap();
            assert_eq!(full, split, "freeze {freeze}");
        }
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn boundary_stopped_in_place_step_equals_the_reference_step_bit_for_bit() {
        // Widths that no register tile or transpose tile divides.
        let config = BlockNetConfig::new(19, 5).with_hidden(17, 33, 9);
        let model = BlockNet::new(&config, 23);
        let mut r = fedft_tensor::rng::rng_for(5, "step-oracle");
        // Batches of changing height, so the reused buffers change shape.
        let batches: Vec<(Matrix, Vec<usize>)> = [7usize, 3, 12, 1]
            .iter()
            .map(|&rows| {
                let x = fedft_tensor::init::normal(&mut r, rows, 19, 0.0, 1.0);
                let labels = (0..rows).map(|i| (i * 3 + rows) % 5).collect();
                (x, labels)
            })
            .collect();
        let optimizers = [
            ("plain", 0.0, 0.0, None),
            ("momentum+decay", 0.9, 1e-3, None),
            ("fedprox", 0.5, 0.0, Some(0.1_f32)),
        ];

        for freeze in FreezeLevel::all() {
            for (name, momentum, weight_decay, mu) in optimizers {
                let optimizer = || {
                    let mut sgd = Sgd::new(SgdConfig {
                        learning_rate: 0.05,
                        momentum,
                        weight_decay,
                    })
                    .unwrap();
                    sgd.set_proximal(mu.map(|mu| ProximalTerm {
                        mu,
                        reference: model.trainable_vector(freeze),
                    }));
                    sgd
                };
                let (mut sgd, mut sgd_ref) = (optimizer(), optimizer());
                let mut stepped = model.trainable_suffix(freeze);
                let mut reference = model.trainable_suffix(freeze);

                for step in 0..20 {
                    let (x, labels) = &batches[step % batches.len()];
                    let boundary = model.forward_frozen(freeze, x).unwrap();
                    let loss = stepped.train_batch(&boundary, labels, &mut sgd).unwrap();
                    let (loss_ref, grads_ref) = reference_train_blocks(
                        &mut reference.blocks,
                        &boundary,
                        labels,
                        &mut sgd_ref,
                    )
                    .unwrap();
                    let at = format!("{freeze} {name} step {step}");
                    assert_eq!(loss.to_bits(), loss_ref.to_bits(), "loss at {at}");
                    assert_eq!(
                        bits(stepped.trainable_vector().values()),
                        bits(reference.trainable_vector().values()),
                        "theta at {at}"
                    );
                    let grads = stepped.workspace.iter().flat_map(BlockStep::grads);
                    assert_eq!(grads.clone().count(), grads_ref.len(), "gradients at {at}");
                    for (g, g_ref) in grads.zip(&grads_ref) {
                        assert_eq!(g.shape(), g_ref.shape(), "gradient shape at {at}");
                        assert_eq!(
                            bits(g.as_slice()),
                            bits(g_ref.as_slice()),
                            "gradient at {at}"
                        );
                    }
                }
            }
        }
    }

    /// The inference pass as it was before the row-blocked walk, kept as
    /// the oracle [`infer_blocks`] must equal bit for bit: every block over
    /// the whole input in turn, each into a fresh matrix.
    fn reference_infer_blocks(blocks: &[DenseBlock], input: &Matrix) -> Result<Matrix> {
        let mut current = input.clone();
        for block in blocks {
            current = crate::dense::tests::reference_infer(block, &current)?;
        }
        Ok(current)
    }

    /// Evaluation as it was before it reduced per row block: the reference
    /// logits, then [`stats::accuracy`] and [`SoftmaxCrossEntropy::loss`].
    fn reference_evaluate(
        blocks: &[DenseBlock],
        input: &Matrix,
        labels: &[usize],
    ) -> Result<(f32, f32)> {
        let logits = reference_infer_blocks(blocks, input)?;
        let accuracy = stats::accuracy(&logits, labels)?;
        Ok((accuracy, SoftmaxCrossEntropy::new().loss(&logits, labels)?))
    }

    /// `f` on the worker pool where the host has the cores, or inside
    /// [`parallel::single_threaded`] — an executor runner's scope.
    fn on<T>(pooled: bool, f: impl FnOnce() -> T) -> T {
        if pooled {
            f()
        } else {
            parallel::single_threaded(f)
        }
    }

    fn assert_bits(actual: &Matrix, expected: &Matrix, at: &str) {
        assert_eq!(actual.shape(), expected.shape(), "{at}");
        assert_eq!(bits(actual.as_slice()), bits(expected.as_slice()), "{at}");
    }

    /// Every inference pass — the frozen prefix, the blocks above it, a
    /// suffix scoring a shard, evaluation — at every freeze level against the
    /// whole-matrix reference, on inputs that end just before, on and just
    /// after a row-block boundary and that span several blocks, on the pool
    /// and inside a runner's single-threaded scope.
    #[test]
    fn row_blocked_inference_equals_the_whole_matrix_pass_bit_for_bit() {
        let b = ROW_BLOCK;
        // Widths that no register tile divides: the first model's run only
        // narrow and padded tiles, the second's also the wide ones.
        let models = [
            BlockNet::new(&BlockNetConfig::new(19, 5).with_hidden(17, 33, 9), 23),
            BlockNet::new(&BlockNetConfig::new(37, 11).with_hidden(40, 35, 21), 29),
        ];
        let mut r = fedft_tensor::rng::rng_for(7, "row-blocks");
        for model in &models {
            let all = model.trainable_suffix(FreezeLevel::Full).blocks;
            let classes = model.num_classes();
            for rows in [1, b - 1, b, b + 1, 2 * b + 1, 4 * b + 3] {
                let x = fedft_tensor::init::normal(&mut r, rows, model.input_dim(), 0.0, 2.0);
                let labels: Vec<usize> = (0..rows).map(|i| (i * 7 + rows) % classes).collect();
                for freeze in FreezeLevel::all() {
                    let (frozen, above) = all.split_at(freeze.frozen_blocks());
                    let boundary = reference_infer_blocks(frozen, &x).unwrap();
                    let logits = reference_infer_blocks(above, &boundary).unwrap();
                    let (accuracy, loss) = reference_evaluate(above, &boundary, &labels).unwrap();
                    let suffix = model.trainable_suffix(freeze);
                    for pooled in [true, false] {
                        let at = format!("{rows} rows, {freeze}, pooled {pooled}");
                        let frozen_out = on(pooled, || model.forward_frozen(freeze, &x)).unwrap();
                        assert_bits(&frozen_out, &boundary, &format!("forward_frozen, {at}"));
                        let from = on(pooled, || model.forward_from(freeze, &boundary)).unwrap();
                        assert_bits(&from, &logits, &format!("forward_from, {at}"));
                        let scored = on(pooled, || suffix.forward(&boundary)).unwrap();
                        assert_bits(&scored, &logits, &format!("SuffixNet::forward, {at}"));

                        let report =
                            on(pooled, || model.evaluate_from(freeze, &boundary, &labels)).unwrap();
                        let accuracy_bits = report.accuracy.to_bits();
                        assert_eq!(accuracy_bits, accuracy.to_bits(), "accuracy, {at}");
                        assert_eq!(report.loss.to_bits(), loss.to_bits(), "loss, {at}");
                        assert_eq!(report.samples, rows, "{at}");
                    }
                }
            }
        }
    }

    /// A NaN or an infinity in a row reaches that row's outputs only, and
    /// evaluation still folds what the whole-matrix reference folds.
    #[test]
    fn a_non_finite_row_affects_only_its_own_row() {
        let b = ROW_BLOCK;
        let model = BlockNet::new(&BlockNetConfig::new(37, 11).with_hidden(70, 45, 21), 31);
        let all = model.trainable_suffix(FreezeLevel::Full).blocks;
        let mut r = fedft_tensor::rng::rng_for(8, "row-blocks-non-finite");
        let rows = 3 * b + 5;
        let clean = fedft_tensor::init::normal(&mut r, rows, model.input_dim(), 0.0, 1.0);
        let labels: Vec<usize> = (0..rows).map(|i| i % model.num_classes()).collect();
        let poisoned_rows = [
            (0, f32::NAN),
            (b - 1, f32::INFINITY),
            (b, f32::NEG_INFINITY),
            (rows - 1, f32::NAN),
        ];
        let clean_logits = model.forward_from(FreezeLevel::Full, &clean).unwrap();
        let mut x = clean.clone();
        for (row, value) in poisoned_rows {
            x.set(row, row % x.cols(), value);
        }
        for pooled in [true, false] {
            for freeze in FreezeLevel::all() {
                let at = format!("{freeze}, pooled {pooled}");
                let (frozen, above) = all.split_at(freeze.frozen_blocks());
                let boundary = on(pooled, || model.forward_frozen(freeze, &x)).unwrap();
                assert_bits(&boundary, &reference_infer_blocks(frozen, &x).unwrap(), &at);
                let logits = on(pooled, || model.forward_from(freeze, &boundary)).unwrap();
                assert_bits(
                    &logits,
                    &reference_infer_blocks(above, &boundary).unwrap(),
                    &at,
                );

                for row in 0..rows {
                    let poisoned = poisoned_rows.iter().any(|&(p, _)| p == row);
                    let (got, clean) = (bits(logits.row(row)), bits(clean_logits.row(row)));
                    assert_eq!(got != clean, poisoned, "row {row}, {at}");
                }

                let report =
                    on(pooled, || model.evaluate_from(freeze, &boundary, &labels)).unwrap();
                let (accuracy, loss) = reference_evaluate(above, &boundary, &labels).unwrap();
                assert_eq!(report.accuracy.to_bits(), accuracy.to_bits(), "{at}");
                assert_eq!(report.loss.to_bits(), loss.to_bits(), "{at}");
            }
        }
    }

    /// A width mismatch — at the first block or at a boundary of the wrong
    /// level —, an empty input, a label count that is not the row count and
    /// a label out of range each return the whole-matrix pass's error, on
    /// inputs of several row blocks.
    #[test]
    fn inference_errors_are_the_whole_matrix_pass_errors() {
        let model = BlockNet::new(&BlockNetConfig::new(19, 5).with_hidden(17, 33, 9), 23);
        let all = model.trainable_suffix(FreezeLevel::Full).blocks;
        let rows = 2 * ROW_BLOCK + 1;
        let mut r = fedft_tensor::rng::rng_for(9, "row-blocks-errors");
        let x = fedft_tensor::init::normal(&mut r, rows, 19, 0.0, 1.0);
        let wide = fedft_tensor::init::normal(&mut r, rows, 20, 0.0, 1.0);
        let labels: Vec<usize> = (0..rows).map(|i| i % 5).collect();
        let mut out_of_range = labels.clone();
        out_of_range[ROW_BLOCK + 3] = 7;
        out_of_range[2 * ROW_BLOCK] = 5;
        let too_many: Vec<usize> = labels.iter().copied().chain([0]).collect();
        let boundary = model.forward_frozen(FreezeLevel::Moderate, &x).unwrap();

        let cases: [(&str, FreezeLevel, &Matrix, &[usize]); 7] = [
            ("width", FreezeLevel::Full, &wide, &labels),
            ("wrong level", FreezeLevel::Classifier, &x, &labels),
            ("empty", FreezeLevel::Full, &Matrix::zeros(0, 19), &[]),
            (
                "empty and too wide",
                FreezeLevel::Full,
                &Matrix::zeros(0, 20),
                &[],
            ),
            ("too few labels", FreezeLevel::Full, &x, &labels[1..]),
            (
                "too many labels",
                FreezeLevel::Moderate,
                &boundary,
                &too_many,
            ),
            ("label out of range", FreezeLevel::Full, &x, &out_of_range),
        ];
        for (name, freeze, input, labels) in cases {
            let above = &all[freeze.frozen_blocks()..];
            let err = model.evaluate_from(freeze, input, labels).unwrap_err();
            let expected = reference_evaluate(above, input, labels).unwrap_err();
            assert_eq!(err, expected, "evaluate_from, {name}");
            let forward = model.forward_from(freeze, input);
            match reference_infer_blocks(above, input) {
                Ok(logits) => assert_bits(&forward.unwrap(), &logits, name),
                Err(expected) => assert_eq!(forward.unwrap_err(), expected, "forward_from, {name}"),
            }
        }
        let err = model
            .forward_frozen(FreezeLevel::Classifier, &wide)
            .unwrap_err();
        assert_eq!(err, reference_infer_blocks(&all[..3], &wide).unwrap_err());
        assert!(matches!(
            model
                .evaluate_from(FreezeLevel::Full, &x, &out_of_range)
                .unwrap_err(),
            crate::NnError::LabelOutOfRange {
                label: 7,
                num_classes: 5
            }
        ));
    }

    #[test]
    fn workspace_is_scratch_and_is_not_cloned() {
        let model = net();
        let mut suffix = model.trainable_suffix(FreezeLevel::Moderate);
        let x = Matrix::full(4, 6, 0.5);
        let boundary = model.forward_frozen(FreezeLevel::Moderate, &x).unwrap();
        let mut sgd = Sgd::new(SgdConfig::default()).unwrap();
        suffix
            .train_batch(&boundary, &[0, 1, 2, 0], &mut sgd)
            .unwrap();
        assert_eq!(suffix.workspace.len(), suffix.blocks.len());
        assert!(suffix.workspace.iter().all(|e| !e.grad_output.is_empty()));
        let copy = suffix.clone();
        assert!(copy.workspace.is_empty());
        assert_eq!(copy.trainable_vector(), suffix.trainable_vector());
    }

    /// The step's memory account: after warm steps at every freeze level the
    /// workspace is one entry per trained block, and an entry is the block's
    /// output and the gradient at it (`rows × out`), `dW` (`in × out`) and
    /// `db` (`1 × out`). The pattern names every field, so it stops
    /// compiling if an entry grows another.
    #[test]
    fn a_warm_step_holds_an_output_and_three_gradients_per_trained_block() {
        let model = net();
        let (x, labels) = batch();
        for freeze in FreezeLevel::all() {
            let mut suffix = model.trainable_suffix(freeze);
            let boundary = model.forward_frozen(freeze, &x).unwrap();
            let mut sgd = Sgd::new(SgdConfig::default()).unwrap();
            for _ in 0..2 {
                suffix.train_batch(&boundary, &labels, &mut sgd).unwrap();
            }
            // Four blocks, the frozen ones below the boundary.
            let trained = 4 - freeze.frozen_blocks();
            assert_eq!(suffix.workspace.len(), trained, "{freeze}");
            for (block, entry) in suffix.blocks.iter().zip(suffix.workspace.iter()) {
                let (inputs, outputs) = block.shape();
                let BlockStep {
                    output,
                    grad_output,
                    grad_weight,
                    grad_bias,
                } = entry;
                assert_eq!(output.shape(), (x.rows(), outputs), "{freeze}");
                assert_eq!(grad_output.shape(), (x.rows(), outputs), "{freeze}");
                assert_eq!(grad_weight.shape(), (inputs, outputs), "{freeze}");
                assert_eq!(grad_bias.shape(), (1, outputs), "{freeze}");
            }
        }
    }

    /// Whether `suffix` holds activations for any of its blocks: a block's
    /// backward pass succeeds only on a step entry a forward pass on a
    /// batch of `rows` rows wrote.
    fn holds_activations(suffix: &mut SuffixNet, rows: usize) -> bool {
        let entries = suffix.workspace.iter_mut();
        suffix.blocks.iter().zip(entries).any(|(block, entry)| {
            let (inputs, outputs) = block.shape();
            entry.grad_output = Matrix::zeros(rows, outputs);
            match block.backward(&Matrix::zeros(rows, inputs), entry, None) {
                Ok(_) => true,
                Err(crate::NnError::BackwardBeforeForward { .. }) => false,
                Err(other) => panic!("unexpected backward error: {other}"),
            }
        })
    }

    fn batch() -> (Matrix, [usize; 2]) {
        let x = Matrix::from_rows(&[
            vec![1.0, 0.0, 0.5, -0.5, 0.2, 0.1],
            vec![0.0, 1.0, -0.5, 0.5, -0.2, 0.3],
        ])
        .unwrap();
        (x, [1, 2])
    }

    /// At every freeze level a snapshot of `model` (and of a clone of it)
    /// holds no activations, scoring with it stores none, and training from
    /// it is training from a snapshot of `pristine` — the same parameters in
    /// a model that was never evaluated or trained — bit for bit.
    fn assert_snapshots_hold_parameters_only(model: &BlockNet, pristine: &BlockNet) {
        let (x, labels) = batch();
        for freeze in FreezeLevel::all() {
            let mut snapshot = model.trainable_suffix(freeze);
            assert!(!holds_activations(&mut snapshot, 2), "suffix at {freeze}");
            let mut of_clone = model.clone().trainable_suffix(freeze);
            assert!(!holds_activations(&mut of_clone, 2), "clone at {freeze}");

            let boundary = model.forward_frozen(freeze, &x).unwrap();
            snapshot.forward(&boundary).unwrap();
            assert!(!holds_activations(&mut snapshot, 2), "scored at {freeze}");

            let mut fresh = pristine.trainable_suffix(freeze);
            let mut sgd_a = Sgd::new(SgdConfig::default()).unwrap();
            let mut sgd_b = Sgd::new(SgdConfig::default()).unwrap();
            for _ in 0..5 {
                let a = snapshot
                    .train_batch(&boundary, &labels, &mut sgd_a)
                    .unwrap();
                let b = fresh.train_batch(&boundary, &labels, &mut sgd_b).unwrap();
                assert_eq!(a.to_bits(), b.to_bits(), "loss at {freeze}");
            }
            assert_eq!(
                bits(snapshot.trainable_vector().values()),
                bits(fresh.trainable_vector().values()),
                "theta at {freeze}"
            );
            // Those steps stored their activations in the snapshot; a copy of it
            // starts empty again.
            assert!(!holds_activations(&mut snapshot.clone(), 2));
            assert!(holds_activations(&mut snapshot, 2), "trained at {freeze}");
        }
    }

    #[test]
    fn snapshots_of_an_evaluated_model_hold_no_activations() {
        let (x, labels) = batch();
        let mut evaluated = net();
        evaluated.evaluate_accuracy(&x, &labels).unwrap();
        evaluated.evaluate_loss(&x, &labels).unwrap();
        assert_snapshots_hold_parameters_only(&evaluated, &net());
    }

    #[test]
    fn snapshots_of_a_trained_model_hold_no_activations() {
        let (x, labels) = batch();
        // A model whose every block was trained — the state of a run's
        // global model, which is pretrained before the first round
        // snapshots it: a trained snapshot written back.
        let mut trained = net();
        let mut sgd = Sgd::new(SgdConfig::default()).unwrap();
        let mut suffix = trained.trainable_suffix(FreezeLevel::Full);
        suffix.train_batch(&x, &labels, &mut sgd).unwrap();
        trained.set_full_vector(&suffix.trainable_vector()).unwrap();
        let mut never_trained = net();
        never_trained
            .set_full_vector(&trained.full_vector())
            .unwrap();
        assert_snapshots_hold_parameters_only(&trained, &never_trained);
    }

    /// Everything a holder of `suffix` can observe before and through one
    /// more step: `θ`, the logits of an inference pass (which may read
    /// state a training pass does not), the loss of a training step and the
    /// `θ` it leaves.
    fn observe(suffix: &mut SuffixNet, x: &Matrix, labels: &[usize], sgd: &mut Sgd) -> Vec<u32> {
        let mut seen = bits(suffix.trainable_vector().values());
        seen.extend(bits(suffix.forward(x).unwrap().as_slice()));
        seen.push(suffix.train_batch(x, labels, sgd).unwrap().to_bits());
        seen.extend(bits(suffix.trainable_vector().values()));
        seen
    }

    #[test]
    fn a_refreshed_suffix_is_a_fresh_snapshot_for_every_layer_kind() {
        let freeze = FreezeLevel::Classifier;
        let momentum = SgdConfig {
            learning_rate: 0.05,
            momentum: 0.9,
            weight_decay: 1e-3,
        };
        // Per client: rows in its batch, optimiser, FedProx coefficient. The
        // kept suffix and optimiser meet a smaller batch, FedProx switched
        // on and then off, and another `SgdConfig`, each after having
        // trained under the previous line.
        let clients = [
            (5, SgdConfig::default(), None),
            (3, SgdConfig::default(), Some(0.1_f32)),
            (5, SgdConfig::default(), Some(0.1)),
            (4, SgdConfig::default(), None),
            (5, momentum, None),
            (2, momentum, Some(0.3)),
        ];
        for (block, x) in crate::dense::tests::one_of_each() {
            let kind = block.name();
            let width = block.shape().1;
            // The model the snapshots are taken of: the block under test and
            // a dense head, advanced between clients by training.
            let head = DenseBlock::new(width, 3, 5, false);
            let mut model = SuffixNet::from_blocks(vec![block, head], freeze);
            let mut model_sgd = Sgd::new(SgdConfig::default()).unwrap();
            let (mut kept, mut kept_sgd) = (SuffixNet::default(), Sgd::default());
            let mut buffers = Vec::new();

            for (client, (rows, config, mu)) in clients.into_iter().enumerate() {
                let at = format!("{kind}, client {client}");
                let batch = x.select_rows(&(0..rows).collect::<Vec<_>>());
                let labels: Vec<usize> = (0..rows).map(|i| (i + client) % 3).collect();
                let proximal = |suffix: &SuffixNet| {
                    mu.map(|mu| ProximalTerm {
                        mu,
                        reference: suffix.trainable_vector(),
                    })
                };

                kept.refresh_from(&model.blocks, freeze);
                kept_sgd.restart(config).unwrap();
                kept_sgd.set_proximal(proximal(&kept));
                let mut fresh = SuffixNet::from_blocks(model.blocks.to_vec(), freeze);
                let mut fresh_sgd = Sgd::new(config).unwrap();
                fresh_sgd.set_proximal(proximal(&fresh));
                // Two steps: the second reads the first's momentum.
                for step in 0..2 {
                    assert_eq!(
                        observe(&mut kept, &batch, &labels, &mut kept_sgd),
                        observe(&mut fresh, &batch, &labels, &mut fresh_sgd),
                        "{at}, step {step}"
                    );
                }

                // Where the head's weights live: a refresh in place keeps it.
                buffers.push(kept.blocks[1].params()[0].as_slice().as_ptr());
                model
                    .train_batch(&x, &[0, 1, 2, 0, 1], &mut model_sgd)
                    .unwrap();
            }
            assert!(
                buffers.iter().all(|b| *b == buffers[0]),
                "{kind}: every layer kind refreshes in place"
            );
        }
    }

    /// An older version kept as its `θ` alone trains, on the live model's
    /// shapes, as a snapshot of that model written with the `θ` would.
    #[test]
    fn a_suffix_set_to_a_theta_is_a_snapshot_of_the_model_written_with_it() {
        let (x, labels) = batch();
        let model = net();
        let mut kept = SuffixNet::default();
        let mut kept_sgd = Sgd::default();
        for freeze in [
            FreezeLevel::Moderate,
            FreezeLevel::Classifier,
            FreezeLevel::Full,
        ] {
            let theta = BlockNet::new(model.config(), 29).trainable_vector(freeze);
            model.refresh_suffix(freeze, &mut kept);
            kept.set_trainable_vector(&theta).unwrap();
            let mut written = model.clone();
            written.set_trainable_vector(freeze, &theta).unwrap();
            let mut fresh = written.trainable_suffix(freeze);
            kept_sgd.restart(SgdConfig::default()).unwrap();
            let mut fresh_sgd = Sgd::new(SgdConfig::default()).unwrap();
            let boundary = model.forward_frozen(freeze, &x).unwrap();
            for step in 0..2 {
                assert_eq!(
                    observe(&mut kept, &boundary, &labels, &mut kept_sgd),
                    observe(&mut fresh, &boundary, &labels, &mut fresh_sgd),
                    "{freeze}, step {step}"
                );
            }
        }
        // A θ of another level is refused, not written in part.
        let head = model.trainable_vector(FreezeLevel::Classifier);
        model.refresh_suffix(FreezeLevel::Moderate, &mut kept);
        assert!(matches!(
            kept.set_trainable_vector(&head),
            Err(NnError::ParamLengthMismatch { .. })
        ));
        assert_eq!(
            kept.trainable_vector(),
            model.trainable_vector(FreezeLevel::Moderate)
        );
    }

    #[test]
    fn a_suffix_of_another_level_or_width_is_replaced_by_a_fresh_snapshot() {
        let (x, labels) = batch();
        let wide = BlockNet::new(&BlockNetConfig::new(6, 3).with_hidden(8, 12, 8), 2);
        let mut kept = SuffixNet::default();
        let mut kept_sgd = Sgd::default();
        for (model, freeze) in [
            (net(), FreezeLevel::Moderate),
            (net(), FreezeLevel::Large),
            (wide.clone(), FreezeLevel::Large),
            (net(), FreezeLevel::Classifier),
            (wide, FreezeLevel::Full),
        ] {
            model.refresh_suffix(freeze, &mut kept);
            kept_sgd.restart(SgdConfig::default()).unwrap();
            let mut fresh = model.trainable_suffix(freeze);
            let mut fresh_sgd = Sgd::new(SgdConfig::default()).unwrap();
            assert_eq!(kept.freeze, freeze);
            let boundary = model.forward_frozen(freeze, &x).unwrap();
            for _ in 0..2 {
                assert_eq!(
                    observe(&mut kept, &boundary, &labels, &mut kept_sgd),
                    observe(&mut fresh, &boundary, &labels, &mut fresh_sgd),
                    "{freeze}"
                );
            }
        }
    }
}
