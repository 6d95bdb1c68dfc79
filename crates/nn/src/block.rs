//! Block-structured network mirroring the paper's WRN layer groups.

use crate::dense::DenseBlock;
use crate::flops::FlopsBreakdown;
use crate::freeze::FreezeLevel;
use crate::loss::SoftmaxCrossEntropy;
use crate::params::ParamVector;
use crate::suffix::{self, SuffixNet};
use crate::{NnError, Result};
use fedft_tensor::{stats, Matrix};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// The next [`BlockNet::parameter_stamp`]. `Relaxed`: a stamp publishes
/// nothing, it only has to differ from every other draw.
static NEXT_STAMP: AtomicU64 = AtomicU64::new(0);

fn draw_stamp() -> u64 {
    NEXT_STAMP.fetch_add(1, Ordering::Relaxed)
}

/// Identifier of a layer group inside a [`BlockNet`].
///
/// These correspond to the paper's *low*, *mid* and *up* layer groups of the
/// WRN (used for the CKA analysis of Figures 2–4) plus the classifier head.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BlockId {
    /// Lowest layer group (first part of the feature extractor).
    Low,
    /// Middle layer group.
    Mid,
    /// Upper layer group.
    Up,
    /// Classifier head producing logits.
    Classifier,
}

impl BlockId {
    /// All block identifiers in forward order.
    pub fn all() -> [BlockId; 4] {
        [BlockId::Low, BlockId::Mid, BlockId::Up, BlockId::Classifier]
    }

    /// Position of the block in forward order.
    pub fn index(self) -> usize {
        match self {
            BlockId::Low => 0,
            BlockId::Mid => 1,
            BlockId::Up => 2,
            BlockId::Classifier => 3,
        }
    }
}

impl std::fmt::Display for BlockId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            BlockId::Low => "low",
            BlockId::Mid => "mid",
            BlockId::Up => "up",
            BlockId::Classifier => "classifier",
        };
        f.write_str(name)
    }
}

/// Configuration of a [`BlockNet`].
///
/// The defaults give a small model suitable for fast simulation; the
/// experiment harness widens it for paper-scale runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockNetConfig {
    /// Number of input features.
    pub input_dim: usize,
    /// Number of output classes.
    pub num_classes: usize,
    /// Width of the low block.
    pub hidden_low: usize,
    /// Width of the mid block.
    pub hidden_mid: usize,
    /// Width of the up block.
    pub hidden_up: usize,
}

impl BlockNetConfig {
    /// Creates a configuration with default hidden widths (64/64/64).
    pub fn new(input_dim: usize, num_classes: usize) -> Self {
        BlockNetConfig {
            input_dim,
            num_classes,
            hidden_low: 64,
            hidden_mid: 64,
            hidden_up: 64,
        }
    }

    /// Overrides the three hidden widths.
    pub fn with_hidden(mut self, low: usize, mid: usize, up: usize) -> Self {
        self.hidden_low = low;
        self.hidden_mid = mid;
        self.hidden_up = up;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if any dimension is zero.
    pub fn validate(&self) -> Result<()> {
        for (name, value) in [
            ("input_dim", self.input_dim),
            ("num_classes", self.num_classes),
            ("hidden_low", self.hidden_low),
            ("hidden_mid", self.hidden_mid),
            ("hidden_up", self.hidden_up),
        ] {
            if value == 0 {
                return Err(NnError::InvalidConfig {
                    what: format!("{name} must be non-zero"),
                });
            }
        }
        Ok(())
    }
}

/// Evaluation summary produced by [`BlockNet::evaluate_from`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EvalReport {
    /// Top-1 accuracy in `[0, 1]`.
    pub accuracy: f32,
    /// Mean cross-entropy loss.
    pub loss: f32,
    /// Number of evaluated samples.
    pub samples: usize,
}

/// A four-block feed-forward network: low → mid → up → classifier, each a
/// dense layer, the first three followed by a ReLU.
///
/// The lower blocks play the role of the paper's pretrained feature extractor
/// `ϕ`; the upper blocks are the trainable part `θ`. Which blocks belong to
/// `θ` is decided per call through a [`FreezeLevel`], so the same model
/// serves FedAvg (`θ` is everything), FedFT (`θ` is the upper part only) and
/// the Figure 10a ablation.
///
/// The model itself does not train: it holds the parameters, runs inference
/// and fingerprints its frozen prefix. Training steps a
/// [`BlockNet::trainable_suffix`] snapshot, and the trained `θ` comes back
/// through [`BlockNet::set_trainable_vector`], the one parameter writer.
#[derive(Debug, Clone)]
pub struct BlockNet {
    config: BlockNetConfig,
    blocks: Vec<DenseBlock>,
    /// [`BlockNet::frozen_fingerprint`] per freeze level, indexed by
    /// [`FreezeLevel::frozen_blocks`]; an empty slot is hashed on demand.
    /// `blocks` is private and written only by
    /// [`BlockNet::set_trainable_vector`], which empties the slots it
    /// invalidates, so a filled slot always describes the current parameters
    /// — a clone's too, which is why cloning carries it.
    fingerprints: [OnceLock<u64>; 4],
    /// [`BlockNet::parameter_stamp`]: drawn at construction, re-drawn by the
    /// same writer, carried by a clone for the same reason.
    stamp: u64,
}

impl BlockNet {
    /// Builds a network from a configuration and a deterministic seed.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid; use
    /// [`BlockNetConfig::validate`] to check it beforehand when the values
    /// come from user input.
    #[allow(
        clippy::expect_used,
        reason = "the documented panic: `validate` is the fallible check"
    )]
    pub fn new(config: &BlockNetConfig, seed: u64) -> Self {
        config.validate().expect("invalid BlockNetConfig");
        let widths = [
            config.input_dim,
            config.hidden_low,
            config.hidden_mid,
            config.hidden_up,
            config.num_classes,
        ];
        // Block `i` draws its weights from `seed + i`.
        let blocks = BlockId::all()
            .into_iter()
            .zip(widths.windows(2))
            .map(|(id, w)| {
                let relu = id != BlockId::Classifier;
                DenseBlock::new(w[0], w[1], seed.wrapping_add(id.index() as u64), relu)
            })
            .collect();
        BlockNet {
            config: *config,
            blocks,
            fingerprints: Default::default(),
            stamp: draw_stamp(),
        }
    }

    /// The configuration used to build the network.
    pub fn config(&self) -> &BlockNetConfig {
        &self.config
    }

    /// Number of output classes.
    pub fn num_classes(&self) -> usize {
        self.config.num_classes
    }

    /// Number of input features.
    pub fn input_dim(&self) -> usize {
        self.config.input_dim
    }

    /// Inference forward pass producing logits:
    /// [`BlockNet::forward_from`] the raw input. Takes `&mut self` only for
    /// source compatibility; it changes nothing in the model.
    ///
    /// # Errors
    ///
    /// Returns an error if the input width differs from
    /// [`BlockNet::input_dim`].
    pub fn forward(&mut self, input: &Matrix) -> Result<Matrix> {
        self.forward_from(FreezeLevel::Full, input)
    }

    /// Top-1 accuracy on `(input, labels)`.
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatch.
    pub fn evaluate_accuracy(&mut self, input: &Matrix, labels: &[usize]) -> Result<f32> {
        let logits = self.forward(input)?;
        Ok(stats::accuracy(&logits, labels)?)
    }

    /// Mean cross-entropy loss on `(input, labels)`.
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatch or invalid labels.
    pub fn evaluate_loss(&mut self, input: &Matrix, labels: &[usize]) -> Result<f32> {
        let logits = self.forward(input)?;
        SoftmaxCrossEntropy::new().loss(&logits, labels)
    }

    /// Inference forward pass through the **frozen prefix** only, producing
    /// the boundary activations the trainable suffix consumes.
    ///
    /// Works through a shared reference (inference stores no activations),
    /// which is what lets one global model serve every client's frozen pass
    /// concurrently. At [`FreezeLevel::Full`] there is no frozen prefix and
    /// the input is returned unchanged.
    ///
    /// # Errors
    ///
    /// Returns an error if the input width differs from
    /// [`BlockNet::input_dim`].
    pub fn forward_frozen(&self, freeze: FreezeLevel, input: &Matrix) -> Result<Matrix> {
        suffix::infer_blocks(&self.blocks[..freeze.frozen_blocks()], input)
    }

    /// Inference forward pass through the blocks **above** a boundary, from
    /// boundary activations to logits: the other half of
    /// [`BlockNet::forward_frozen`], through the same shared reference, so
    /// `forward_from(f, &forward_frozen(f, x)?)` equals
    /// `forward_from(FreezeLevel::Full, x)` bit for bit at every level `f`.
    /// This is the inference pass behind [`BlockNet::forward`],
    /// [`BlockNet::evaluate_accuracy`] and [`BlockNet::evaluate_loss`];
    /// [`BlockNet::evaluate_from`] runs the same row-block walk and reduces
    /// its logits as it goes.
    ///
    /// # Errors
    ///
    /// Returns an error if the boundary width does not match the first block
    /// above the boundary.
    pub fn forward_from(&self, from: FreezeLevel, boundary: &Matrix) -> Result<Matrix> {
        suffix::infer_blocks(&self.blocks[from.frozen_blocks()..], boundary)
    }

    /// Accuracy **and** loss on `(boundary, labels)` from one inference
    /// pass, where `boundary` is [`BlockNet::forward_frozen`]`(from,
    /// features)` (the raw features themselves at [`FreezeLevel::Full`]).
    /// Equal bit for bit to [`BlockNet::evaluate_accuracy`] and
    /// [`BlockNet::evaluate_loss`] on those features, at one forward pass
    /// through the blocks above the boundary instead of two through all of
    /// them — which is what a caller whose frozen prefix never changes (the
    /// federated round loop) wants to pay per evaluation. The pass reduces
    /// each row block's logits as it goes, so no logits matrix is built.
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatch or invalid labels, before any
    /// inference runs.
    pub fn evaluate_from(
        &self,
        from: FreezeLevel,
        boundary: &Matrix,
        labels: &[usize],
    ) -> Result<EvalReport> {
        let blocks = &self.blocks[from.frozen_blocks()..];
        let (accuracy, loss) = suffix::evaluate_blocks(blocks, boundary, labels)?;
        Ok(EvalReport {
            accuracy,
            loss,
            samples: labels.len(),
        })
    }

    /// Clones the trainable suffix `θ` into a standalone [`SuffixNet`] —
    /// the `O(|θ|)` model snapshot a client needs for local training when
    /// the frozen backbone is shared, and the one thing that trains: the
    /// trained `θ` comes back through [`BlockNet::set_trainable_vector`].
    /// `O(|θ|)` holds whatever the model has been evaluated on: inference
    /// never stores activations.
    pub fn trainable_suffix(&self, freeze: FreezeLevel) -> SuffixNet {
        let mut suffix = SuffixNet::default();
        self.refresh_suffix(freeze, &mut suffix);
        suffix
    }

    /// [`BlockNet::trainable_suffix`] into a suffix the caller keeps between
    /// clients: afterwards `kept` scores, trains and flattens exactly as a
    /// new snapshot would, but when it already is a suffix of this shape at
    /// this level the copy goes into its own buffers — nothing `θ`-sized is
    /// allocated, and its next training step starts warm.
    pub fn refresh_suffix(&self, freeze: FreezeLevel, kept: &mut SuffixNet) {
        kept.refresh_from(&self.blocks[freeze.frozen_blocks()..], freeze);
    }

    /// A fingerprint of the frozen prefix under a freeze level: a hash over
    /// the frozen blocks' parameter bits and shapes.
    ///
    /// Feature caches key their entries on this value so that cached
    /// boundary activations are never served for a *different* backbone —
    /// if `ϕ` ever changes (a new run, a different pretrained model), the
    /// fingerprint changes and the cache rebuilds. During one federated run
    /// `ϕ` is frozen, so the fingerprint is invariant round to round.
    ///
    /// The hash is `O(|ϕ|)` and memoised per level on the model: it runs on
    /// the first call after construction or after a write to a block of the
    /// level's frozen prefix, and every other call — on this model or a
    /// clone of it — reads the stored value. A round loop that only writes
    /// the blocks above its freeze level therefore hashes once per run.
    pub fn frozen_fingerprint(&self, freeze: FreezeLevel) -> u64 {
        *self.fingerprints[freeze.frozen_blocks()].get_or_init(|| self.hash_frozen_prefix(freeze))
    }

    /// The hash behind [`BlockNet::frozen_fingerprint`], computed from the
    /// parameters as they are now.
    fn hash_frozen_prefix(&self, freeze: FreezeLevel) -> u64 {
        #[cfg(test)]
        FULL_HASHES.with(|count| count.set(count.get() + 1));
        // FNV-1a over the structure and parameter bits; not cryptographic,
        // just collision-resistant enough for cache keying.
        let mut hash = 0xcbf2_9ce4_8422_2325_u64;
        let mut mix = |value: u64| {
            hash ^= value;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        };
        mix(freeze.frozen_blocks() as u64);
        for block in &self.blocks[..freeze.frozen_blocks()] {
            for param in block.params() {
                mix(param.rows() as u64);
                mix(param.cols() as u64);
                for &value in param.as_slice() {
                    mix(u64::from(value.to_bits()));
                }
            }
        }
        hash
    }

    /// A name for the model's parameters as they are now, `ϕ` and `θ` alike:
    /// unique in the process, drawn anew before every write and carried by a
    /// clone, so two models with equal stamps hold equal parameters. (The
    /// converse does not hold — two equal models built apart differ in it —
    /// which only costs whoever keys on it a recomputation.) It is what lets
    /// a result computed from one model version be shared among the clients
    /// that train on that version without hashing anything `θ`-sized.
    pub fn parameter_stamp(&self) -> u64 {
        self.stamp
    }

    /// Number of trainable scalar parameters under a freeze level.
    pub fn trainable_parameter_count(&self, freeze: FreezeLevel) -> usize {
        self.blocks[freeze.frozen_blocks()..]
            .iter()
            .map(|b| b.parameter_count())
            .sum()
    }

    /// Total number of scalar parameters.
    pub fn total_parameter_count(&self) -> usize {
        self.blocks.iter().map(|b| b.parameter_count()).sum()
    }

    /// Flattens the trainable part of the model (`θ`) into a vector.
    pub fn trainable_vector(&self, freeze: FreezeLevel) -> ParamVector {
        let params: Vec<&Matrix> = self.blocks[freeze.frozen_blocks()..]
            .iter()
            .flat_map(|b| b.params())
            .collect();
        ParamVector::from_params(&params)
    }

    /// Writes a flattened trainable vector (`θ`) back into the model: the
    /// one writer of its parameters.
    ///
    /// Before it writes `blocks[f..]` for `f = freeze.frozen_blocks()`, the
    /// parameters get a new [`BlockNet::parameter_stamp`], and the memoised
    /// fingerprint of every level whose frozen prefix reaches into the
    /// written blocks (the levels that freeze more than `f` blocks) is
    /// emptied.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ParamLengthMismatch`] when the vector length does
    /// not match the trainable parameter count.
    pub fn set_trainable_vector(
        &mut self,
        freeze: FreezeLevel,
        vector: &ParamVector,
    ) -> Result<()> {
        self.stamp = draw_stamp();
        for memo in &mut self.fingerprints[freeze.frozen_blocks() + 1..] {
            memo.take();
        }
        let mut params: Vec<&mut Matrix> = self.blocks[freeze.frozen_blocks()..]
            .iter_mut()
            .flat_map(DenseBlock::params_mut)
            .collect();
        vector.write_to(&mut params)
    }

    /// Flattens every parameter of the model (`ϕ` and `θ`).
    pub fn full_vector(&self) -> ParamVector {
        self.trainable_vector(FreezeLevel::Full)
    }

    /// Writes a full parameter vector back into the model.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ParamLengthMismatch`] when the vector length does
    /// not match the total parameter count.
    pub fn set_full_vector(&mut self, vector: &ParamVector) -> Result<()> {
        self.set_trainable_vector(FreezeLevel::Full, vector)
    }

    /// FLOP breakdown for one sample under a freeze level.
    pub fn flops_per_sample(&self, freeze: FreezeLevel) -> FlopsBreakdown {
        let boundary = freeze.frozen_blocks();
        let forward_frozen: u64 = self.blocks[..boundary]
            .iter()
            .map(|b| b.forward_flops_per_sample())
            .sum();
        let forward_trainable: u64 = self.blocks[boundary..]
            .iter()
            .map(|b| b.forward_flops_per_sample())
            .sum();
        let backward_trainable: u64 = self.blocks[boundary..]
            .iter()
            .map(|b| b.backward_flops_per_sample())
            .sum();
        FlopsBreakdown {
            forward_frozen,
            forward_trainable,
            backward_trainable,
        }
    }
}

#[cfg(test)]
thread_local! {
    /// How many times this thread ran [`BlockNet::hash_frozen_prefix`].
    static FULL_HASHES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::{Sgd, SgdConfig};

    fn config() -> BlockNetConfig {
        BlockNetConfig::new(6, 3).with_hidden(8, 8, 8)
    }

    /// One training step as every caller takes it: a snapshot of `θ` at
    /// `freeze`, stepped on the batch's boundary activations and written
    /// back. Returns the batch loss.
    fn train_step(
        net: &mut BlockNet,
        x: &Matrix,
        labels: &[usize],
        sgd: &mut Sgd,
        freeze: FreezeLevel,
    ) -> f32 {
        let boundary = net.forward_frozen(freeze, x).unwrap();
        let mut suffix = net.trainable_suffix(freeze);
        let loss = suffix.train_batch(&boundary, labels, sgd).unwrap();
        net.set_trainable_vector(freeze, &suffix.trainable_vector())
            .unwrap();
        loss
    }

    #[test]
    fn construction_and_shapes() {
        let mut net = BlockNet::new(&config(), 1);
        let x = Matrix::zeros(4, 6);
        let y = net.forward(&x).unwrap();
        assert_eq!(y.shape(), (4, 3));
        assert_eq!(net.num_classes(), 3);
        assert_eq!(net.input_dim(), 6);
    }

    #[test]
    fn config_validation_rejects_zero_dims() {
        let bad = BlockNetConfig::new(0, 3);
        assert!(bad.validate().is_err());
        let bad = BlockNetConfig::new(4, 3).with_hidden(0, 8, 8);
        assert!(bad.validate().is_err());
    }

    #[test]
    fn trainable_parameter_count_decreases_with_freezing() {
        let net = BlockNet::new(&config(), 1);
        let counts: Vec<usize> = FreezeLevel::all()
            .iter()
            .map(|f| net.trainable_parameter_count(*f))
            .collect();
        assert!(counts[0] > counts[1]);
        assert!(counts[1] > counts[2]);
        assert!(counts[2] > counts[3]);
        assert_eq!(counts[0], net.total_parameter_count());
    }

    #[test]
    fn trainable_vector_roundtrip() {
        let net = BlockNet::new(&config(), 2);
        let mut other = BlockNet::new(&config(), 99);
        let theta = net.trainable_vector(FreezeLevel::Moderate);
        other
            .set_trainable_vector(FreezeLevel::Moderate, &theta)
            .unwrap();
        assert_eq!(other.trainable_vector(FreezeLevel::Moderate), theta);
        // The frozen part of `other` remains different from `net`'s.
        assert_ne!(other.full_vector(), net.full_vector());
    }

    #[test]
    fn full_vector_roundtrip_makes_models_identical() {
        let mut net = BlockNet::new(&config(), 2);
        let mut other = BlockNet::new(&config(), 99);
        other.set_full_vector(&net.full_vector()).unwrap();
        let x = Matrix::full(3, 6, 0.5);
        assert!(net
            .forward(&x)
            .unwrap()
            .approx_eq(&other.forward(&x).unwrap(), 1e-6));
    }

    #[test]
    fn set_trainable_vector_rejects_wrong_length() {
        let mut net = BlockNet::new(&config(), 2);
        let bad = ParamVector::from_values(vec![0.0; 3]);
        assert!(net
            .set_trainable_vector(FreezeLevel::Classifier, &bad)
            .is_err());
    }

    #[test]
    fn frozen_blocks_do_not_change_during_training() {
        let mut net = BlockNet::new(&config(), 5);
        let frozen_before = {
            let params: Vec<&Matrix> = net.blocks[..2].iter().flat_map(|b| b.params()).collect();
            ParamVector::from_params(&params)
        };
        let mut sgd = Sgd::new(SgdConfig::default()).unwrap();
        let x = Matrix::from_rows(&[vec![1.0, 0.0, 0.5, -0.5, 0.2, 0.1]]).unwrap();
        for _ in 0..10 {
            train_step(&mut net, &x, &[1], &mut sgd, FreezeLevel::Moderate);
        }
        let frozen_after = {
            let params: Vec<&Matrix> = net.blocks[..2].iter().flat_map(|b| b.params()).collect();
            ParamVector::from_params(&params)
        };
        assert_eq!(frozen_before, frozen_after);
        // The trainable part did change.
        assert_ne!(
            net.trainable_vector(FreezeLevel::Moderate),
            BlockNet::new(&config(), 5).trainable_vector(FreezeLevel::Moderate)
        );
    }

    #[test]
    fn training_reduces_loss() {
        let mut net = BlockNet::new(&config(), 11);
        let mut sgd = Sgd::new(SgdConfig {
            learning_rate: 0.1,
            momentum: 0.5,
            weight_decay: 0.0,
        })
        .unwrap();
        let x = Matrix::from_rows(&[
            vec![1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            vec![0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
            vec![0.0, 0.0, 0.0, 0.0, 1.0, 0.0],
        ])
        .unwrap();
        let labels = [0usize, 1, 2];
        let before = net.evaluate_loss(&x, &labels).unwrap();
        for _ in 0..100 {
            train_step(&mut net, &x, &labels, &mut sgd, FreezeLevel::Full);
        }
        let after = net.evaluate_loss(&x, &labels).unwrap();
        assert!(after < before * 0.5, "loss {before} -> {after}");
        assert!(net.evaluate_accuracy(&x, &labels).unwrap() > 0.9);
    }

    #[test]
    fn flops_decrease_with_more_freezing() {
        let net = BlockNet::new(&config(), 1);
        let full = net.flops_per_sample(FreezeLevel::Full).training_flops();
        let moderate = net.flops_per_sample(FreezeLevel::Moderate).training_flops();
        let classifier = net
            .flops_per_sample(FreezeLevel::Classifier)
            .training_flops();
        assert!(full > moderate);
        assert!(moderate > classifier);
        // Inference cost is identical regardless of freezing.
        assert_eq!(
            net.flops_per_sample(FreezeLevel::Full).inference_flops(),
            net.flops_per_sample(FreezeLevel::Classifier)
                .inference_flops()
        );
    }

    /// Simulated seconds are FLOPs, and they are part of every history: the
    /// counts are pinned at values read before the layers were fused into
    /// blocks (Dense `2·in·out + out`, a ReLU `out`, backward twice forward).
    #[test]
    fn flops_per_sample_is_pinned_at_every_freeze_level() {
        let net = BlockNet::new(&BlockNetConfig::new(19, 5).with_hidden(17, 33, 9), 1);
        let pinned = [
            (FreezeLevel::Full, 0, 2575, 5150),
            (FreezeLevel::Large, 680, 1895, 3790),
            (FreezeLevel::Moderate, 1868, 707, 1414),
            (FreezeLevel::Classifier, 2480, 95, 190),
        ];
        for (freeze, forward_frozen, forward_trainable, backward_trainable) in pinned {
            let expected = FlopsBreakdown {
                forward_frozen,
                forward_trainable,
                backward_trainable,
            };
            assert_eq!(net.flops_per_sample(freeze), expected, "{freeze}");
        }
    }

    /// The frozen prefix's output equals the activations of its blocks run
    /// one at a time, each on the one before's output.
    #[test]
    fn forward_frozen_matches_prefix_of_forward_collect() {
        let net = BlockNet::new(&config(), 9);
        let x = Matrix::from_rows(&[
            vec![0.4, -0.2, 1.0, 0.0, -1.0, 0.6],
            vec![-0.4, 0.2, -1.0, 0.5, 1.0, -0.6],
        ])
        .unwrap();
        let mut collected: Vec<Matrix> = Vec::with_capacity(net.blocks.len());
        for block in &net.blocks {
            let current = collected.last().unwrap_or(&x);
            let activation = suffix::infer_blocks(std::slice::from_ref(block), current).unwrap();
            collected.push(activation);
        }
        for freeze in [
            FreezeLevel::Large,
            FreezeLevel::Moderate,
            FreezeLevel::Classifier,
        ] {
            let boundary = net.forward_frozen(freeze, &x).unwrap();
            assert_eq!(boundary, collected[freeze.frozen_blocks() - 1]);
        }
        // No frozen prefix: the boundary is the input itself.
        assert_eq!(net.forward_frozen(FreezeLevel::Full, &x).unwrap(), x);
    }

    #[test]
    fn forward_trainable_from_boundary_matches_full_forward() {
        let mut net = BlockNet::new(&config(), 4);
        let x = Matrix::full(3, 6, 0.3);
        let full = net.forward(&x).unwrap();
        for freeze in FreezeLevel::all() {
            let boundary = net.forward_frozen(freeze, &x).unwrap();
            let split = net.forward_from(freeze, &boundary).unwrap();
            assert_eq!(full, split, "freeze {freeze}");
        }
    }

    #[test]
    fn boundary_evaluation_equals_two_pass_evaluation_bit_for_bit() {
        let mut net = BlockNet::new(&config(), 4);
        let x = Matrix::from_rows(&[
            vec![0.4, -0.2, 1.0, 0.0, -1.0, 0.6],
            vec![-0.4, 0.2, -1.0, 0.5, 1.0, -0.6],
            vec![1.0, 0.0, 0.5, -0.5, 0.2, 0.1],
        ])
        .unwrap();
        let labels = [2usize, 0, 1];
        // Move θ off its initial value so the logits are not near-uniform.
        let mut sgd = Sgd::new(SgdConfig::default()).unwrap();
        for _ in 0..3 {
            train_step(&mut net, &x, &labels, &mut sgd, FreezeLevel::Full);
        }
        let accuracy = net.evaluate_accuracy(&x, &labels).unwrap();
        let loss = net.evaluate_loss(&x, &labels).unwrap();
        for freeze in FreezeLevel::all() {
            let boundary = net.forward_frozen(freeze, &x).unwrap();
            let report = net.evaluate_from(freeze, &boundary, &labels).unwrap();
            assert_eq!(report.accuracy.to_bits(), accuracy.to_bits(), "{freeze}");
            assert_eq!(report.loss.to_bits(), loss.to_bits(), "{freeze}");
            assert_eq!(report.samples, 3);
        }
        // A boundary of the wrong level is a shape error, not a wrong answer.
        let shallow = net.forward_frozen(FreezeLevel::Full, &x).unwrap();
        assert!(net
            .evaluate_from(FreezeLevel::Classifier, &shallow, &labels)
            .is_err());
    }

    #[test]
    fn frozen_fingerprint_tracks_the_frozen_prefix_only() {
        let net = BlockNet::new(&config(), 2);
        let freeze = FreezeLevel::Moderate;
        let fp = net.frozen_fingerprint(freeze);
        assert_eq!(fp, net.frozen_fingerprint(freeze), "deterministic");

        // Updating θ (the trainable part) must not change the fingerprint.
        let mut theta_changed = net.clone();
        let theta = BlockNet::new(&config(), 99).trainable_vector(freeze);
        theta_changed.set_trainable_vector(freeze, &theta).unwrap();
        assert_eq!(theta_changed.frozen_fingerprint(freeze), fp);

        // A different backbone or a different freeze level must change it.
        let other = BlockNet::new(&config(), 3);
        assert_ne!(other.frozen_fingerprint(freeze), fp);
        assert_ne!(net.frozen_fingerprint(FreezeLevel::Classifier), fp);
    }

    /// A stale memo is a silent wrong-backbone cache hit, so the memo is held
    /// against the hash of the parameters as they are, at every level, after
    /// every step of a seeded walk over everything that writes, copies or
    /// reads it. The stamp walks along: a stale one is a silent wrong-model
    /// score, so every write must draw one no version has had, and nothing
    /// else may touch it.
    #[test]
    fn memoised_fingerprint_equals_the_uncached_hash_along_a_random_walk() {
        use rand::Rng;
        let mut r = fedft_tensor::rng::rng_for(41, "fingerprint-walk");
        let mut net = BlockNet::new(&config(), 1);
        let levels = FreezeLevel::all();
        let mut stamps = std::collections::HashSet::from([net.parameter_stamp()]);
        for step in 0..2_500 {
            let level = levels[r.gen_range(0..levels.len())];
            let op = r.gen_range(0..5);
            let mut random_theta = |len: usize| {
                let values = fedft_tensor::init::normal(&mut r, 1, len, 0.0, 1.0);
                ParamVector::from_values(values.as_slice().to_vec())
            };
            let (stamp_before, parameters_before) = (net.parameter_stamp(), net.full_vector());
            match op {
                0 => {
                    let theta = random_theta(net.trainable_parameter_count(level));
                    net.set_trainable_vector(level, &theta).unwrap();
                }
                1 => {
                    let all = random_theta(net.total_parameter_count());
                    net.set_full_vector(&all).unwrap();
                }
                2 => {
                    // Train a snapshot at `level` and write it back.
                    let x = fedft_tensor::init::normal(&mut r, 2, 6, 0.0, 1.0);
                    let mut sgd = Sgd::new(SgdConfig::default()).unwrap();
                    train_step(&mut net, &x, &[0, 2], &mut sgd, level);
                }
                3 => net = net.clone(),
                _ => {
                    net.frozen_fingerprint(level);
                }
            }
            if op <= 2 {
                assert!(
                    stamps.insert(net.parameter_stamp()),
                    "step {step}: writer {op} reused a stamp"
                );
            } else {
                assert_eq!(net.parameter_stamp(), stamp_before, "step {step} (op {op})");
                assert_eq!(net.full_vector(), parameters_before);
            }
            // Checked on a copy, so that which slots of `net` are filled is
            // decided by the walk alone.
            let probe = net.clone();
            for level in levels {
                assert_eq!(
                    probe.frozen_fingerprint(level),
                    probe.hash_frozen_prefix(level),
                    "step {step} (op {op}), level {level}"
                );
            }
        }
        // Equal stamps imply equal parameters, not the other way round.
        let (twin, built_apart) = (BlockNet::new(&config(), 1), BlockNet::new(&config(), 1));
        assert_eq!(twin.full_vector(), built_apart.full_vector());
        assert_ne!(twin.parameter_stamp(), built_apart.parameter_stamp());
    }

    /// The round loop's access pattern: θ written once a round, then one
    /// lookup per client on the model and on the snapshots taken of it.
    #[test]
    fn the_full_hash_runs_once_per_write_into_the_looked_up_prefix() {
        let full_hashes = |lookup: FreezeLevel| {
            let written = FreezeLevel::Moderate;
            let mut net = BlockNet::new(&config(), 2);
            let theta = BlockNet::new(&config(), 99).trainable_vector(written);
            let before = FULL_HASHES.with(std::cell::Cell::get);
            for _ in 0..100 {
                net.set_trainable_vector(written, &theta).unwrap();
                for _ in 0..10 {
                    net.frozen_fingerprint(lookup);
                }
                let snapshot = net.clone();
                for _ in 0..10 {
                    snapshot.frozen_fingerprint(lookup);
                }
            }
            FULL_HASHES.with(std::cell::Cell::get) - before
        };
        // Nothing below the written blocks changes: hashed once, for good.
        assert_eq!(full_hashes(FreezeLevel::Moderate), 1);
        // A deeper level's prefix contains a written block: once per write.
        assert_eq!(full_hashes(FreezeLevel::Classifier), 100);
    }

    #[test]
    fn block_id_ordering() {
        assert_eq!(BlockId::Low.index(), 0);
        assert_eq!(BlockId::Classifier.index(), 3);
        assert_eq!(BlockId::Mid.to_string(), "mid");
    }

    #[test]
    fn wrong_input_width_is_an_error() {
        let mut net = BlockNet::new(&config(), 1);
        assert!(net.forward(&Matrix::zeros(2, 5)).is_err());
    }
}
