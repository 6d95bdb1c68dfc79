//! The two per-round selection decisions.
//!
//! The simulation makes two selection decisions every round:
//!
//! 1. **Data selection** — which local samples each participating client
//!    trains on: [`crate::SelectionStrategy::select`] over a
//!    [`SelectionContext`]. The paper's EDS is one variant; the others are
//!    the all/random baselines and the loss-proportional / gradient-norm
//!    rules of the paper's precursor (Shi & Radu 2021). A score is a
//!    function of its [`ScoreKind`] ([`ScoreKind::score`] of the suffix's
//!    logits on the client's boundary), so the context scores any kind the
//!    same way and a rule chooses only how to order the samples.
//! 2. **Client selection** — which clients participate at all:
//!    [`ClientSelection`], resolved once per run into a [`ClientSampler`].
//!    Uniform sampling is the default; the tier-aware (bias toward slow
//!    tiers that miss deadlines) and label-distribution-similarity-aware
//!    (Famá et al. 2024) rules draw with per-client weights.
//!
//! Both are closed enums: a config carries its choice as plain data, and a
//! new rule is a new variant with its arm in one `match`.
//!
//! # Bit-identity contract
//!
//! The default variants of each decision (`All`/`Random`/`Entropy` data
//! selection, `Uniform` client selection) run **exactly** the code that
//! predates the policy layer, on the same named RNG streams
//! (`"rds-client-{id}"`, `"participation"`). Every other variant draws
//! from its own stream (`"lds-client-{id}"`, `"tier-participation"`,
//! `"similarity-participation"`) or none at all, so enabling one rule
//! never perturbs the seeded history of another. This is pinned by the
//! back-compat e2e suite.

use crate::cache::{ScoreKind, ScoreSlot};
use crate::participation::ParticipationModel;
use crate::Result;
use fedft_data::Dataset;
use fedft_nn::{BlockNet, FreezeLevel, SuffixNet};
use fedft_tensor::Matrix;
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt::Debug;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Data selection
// ---------------------------------------------------------------------------

/// Everything [`crate::SelectionStrategy::select`] may consult when picking
/// this round's training subset for one client.
///
/// A score is a function of its [`ScoreKind`] ([`ScoreKind::score`]) applied
/// to the suffix's logits on the client's whole boundary, so a scoring pass
/// is one suffix forward, or none when the score slot
/// ([`SelectionContext::with_score_slot`]) serves the scores. A context built
/// on the frozen prefix runs it at the first scoring pass and keeps the
/// result: a strategy that never scores samples (`All`, `Random`) never runs
/// it.
pub struct SelectionContext<'a> {
    suffix: &'a mut SuffixNet,
    labels: &'a [usize],
    pub(crate) round: usize,
    pub(crate) client_id: usize,
    pub(crate) seed: u64,
    boundary: BoundarySource<'a>,
    /// The whole boundary a scoring pass built by running the frozen prefix.
    built: Option<Matrix>,
    /// Where scores other clients of the shard computed under this model
    /// version are found and this client's are left, and the buffer they
    /// are copied out into.
    shared: Option<(ScoreSlot<'a>, &'a mut Vec<f32>)>,
}

/// Where one local update's boundary activations (the frozen prefix's
/// output, the suffix's input) come from: decided once an update and read by
/// both its selection and its local epochs.
#[derive(Debug, Clone, Copy)]
pub(crate) enum BoundarySource<'a> {
    /// The whole boundary, materialised: the registry's cached activations,
    /// or the raw features when no block is frozen.
    Whole(&'a Matrix),
    /// The frozen prefix of `model` at `freeze`, run over the rows of
    /// `features` that are needed: a batch at a time by training, all of
    /// them once by a scoring pass.
    Prefix {
        model: &'a BlockNet,
        freeze: FreezeLevel,
        features: &'a Matrix,
    },
}

impl BoundarySource<'_> {
    /// The boundary rows `rows`, in order: gathered into `gather` from a
    /// whole boundary, or the frozen prefix run over them.
    pub(crate) fn rows<'g>(
        &self,
        rows: &[usize],
        gather: &'g mut Matrix,
    ) -> Result<Cow<'g, Matrix>> {
        match *self {
            BoundarySource::Whole(boundary) => {
                boundary.select_rows_into(rows, gather);
                Ok(Cow::Borrowed(gather))
            }
            BoundarySource::Prefix {
                model,
                freeze,
                features,
            } => {
                features.select_rows_into(rows, gather);
                Ok(Cow::Owned(model.forward_frozen(freeze, gather)?))
            }
        }
    }
}

impl<'a> SelectionContext<'a> {
    /// Context over `boundary`, however the update resolved it.
    pub(crate) fn new(
        suffix: &'a mut SuffixNet,
        boundary: BoundarySource<'a>,
        labels: &'a [usize],
        round: usize,
        client_id: usize,
        seed: u64,
    ) -> Self {
        SelectionContext {
            suffix,
            labels,
            round,
            client_id,
            seed,
            boundary,
            built: None,
            shared: None,
        }
    }

    /// Context over already-materialised boundary activations.
    pub fn with_boundary(
        suffix: &'a mut SuffixNet,
        boundary: &'a Matrix,
        labels: &'a [usize],
        round: usize,
        client_id: usize,
        seed: u64,
    ) -> Self {
        let boundary = BoundarySource::Whole(boundary);
        SelectionContext::new(suffix, boundary, labels, round, client_id, seed)
    }

    /// Context whose boundary activations are computed on demand by running
    /// `model`'s frozen prefix over `features`.
    #[allow(clippy::too_many_arguments)] // mirrors the client round state 1:1
    pub fn with_lazy_boundary(
        suffix: &'a mut SuffixNet,
        model: &'a BlockNet,
        freeze: FreezeLevel,
        features: &'a Matrix,
        labels: &'a [usize],
        round: usize,
        client_id: usize,
        seed: u64,
    ) -> Self {
        let boundary = BoundarySource::Prefix {
            model,
            freeze,
            features,
        };
        SelectionContext::new(suffix, boundary, labels, round, client_id, seed)
    }

    /// Shares the context's scores through `slot`: a score the slot holds
    /// for this model version is copied into `buffer` instead of running the
    /// suffix, and one the context computes is left in the slot. The slot
    /// must be the one of the context's shard, freeze level and model
    /// ([`crate::CacheRegistry::score_slot`]); scores are a function of
    /// those and their kind alone, so sharing them changes no selection.
    pub fn with_score_slot(mut self, slot: ScoreSlot<'a>, buffer: &'a mut Vec<f32>) -> Self {
        self.shared = Some((slot, buffer));
        self
    }

    /// Number of local samples available for selection.
    pub fn num_samples(&self) -> usize {
        self.labels.len()
    }

    /// The `kind` score of every sample: borrowed from the shared buffer
    /// when the slot answered, otherwise one suffix forward over the whole
    /// boundary reduced by [`ScoreKind::score`] and left in the slot.
    pub(crate) fn scores(&mut self, kind: ScoreKind) -> Result<Cow<'_, [f32]>> {
        let served = match &mut self.shared {
            Some((slot, buffer)) => slot.read_into(kind, buffer),
            None => false,
        };
        if let (true, Some((_, buffer))) = (served, &self.shared) {
            return Ok(Cow::Borrowed(buffer.as_slice()));
        }
        let boundary: &Matrix = match self.boundary {
            BoundarySource::Whole(boundary) => boundary,
            BoundarySource::Prefix {
                model,
                freeze,
                features,
            } => match &mut self.built {
                Some(built) => built,
                built => built.insert(model.forward_frozen(freeze, features)?),
            },
        };
        let computed = kind.score(&self.suffix.forward(boundary)?, self.labels)?;
        if let Some((slot, _)) = &self.shared {
            slot.store(kind, &computed);
        }
        Ok(Cow::Owned(computed))
    }
}

impl Debug for SelectionContext<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SelectionContext")
            .field("num_samples", &self.labels.len())
            .field("round", &self.round)
            .field("client_id", &self.client_id)
            .finish_non_exhaustive()
    }
}

// ---------------------------------------------------------------------------
// Client selection
// ---------------------------------------------------------------------------

/// Serialisable descriptor of the client-selection rule, stored in
/// [`crate::FlConfig::client_selection`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum ClientSelection {
    /// Uniform sampling without replacement — the pre-policy behaviour,
    /// bit-identical on the `"participation"` stream.
    #[default]
    Uniform,
    /// Weight clients inversely to their tier's compute multiplier, biasing
    /// rounds toward the slow tiers that miss deadlines. Draws from the
    /// `"tier-participation"` stream.
    TierAware,
    /// Weight clients by the similarity of their shard's label distribution
    /// to the global one (Famá et al. 2024), computed once per shard from
    /// [`Dataset`] label histograms. Draws from the
    /// `"similarity-participation"` stream.
    SimilarityAware,
}

impl ClientSelection {
    /// Short name used in reports (`uniform`, `tier`, `sim`).
    pub fn short_name(&self) -> &'static str {
        match self {
            ClientSelection::Uniform => "uniform",
            ClientSelection::TierAware => "tier",
            ClientSelection::SimilarityAware => "sim",
        }
    }

    /// Resolves the descriptor into its sampler for a concrete client pool:
    /// `tier_compute` holds each client's tier compute multiplier and
    /// `shards` each client's data shard.
    pub fn policy(&self, tier_compute: &[f64], shards: &[Arc<Dataset>]) -> ClientSampler {
        match self {
            ClientSelection::Uniform => ClientSampler::Uniform {
                total: shards.len(),
            },
            ClientSelection::TierAware => ClientSampler::Weighted {
                stream: "tier-participation",
                weights: tier_aware_weights(tier_compute),
            },
            ClientSelection::SimilarityAware => ClientSampler::Weighted {
                stream: "similarity-participation",
                weights: similarity_weights(shards),
            },
        }
    }
}

/// A client-selection rule resolved for one client pool
/// ([`ClientSelection::policy`]): picks, per round, which client ids
/// participate.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientSampler {
    /// Uniform sampling over a pool of `total` clients, verbatim
    /// [`ParticipationModel::sample_round`] on the `"participation"` stream.
    Uniform {
        /// Size of the client pool.
        total: usize,
    },
    /// Efraimidis–Spirakis sampling with one weight per client, on its own
    /// named `stream`.
    Weighted {
        /// The RNG stream label the draw uses.
        stream: &'static str,
        /// One weight per client id.
        weights: Vec<f64>,
    },
}

impl ClientSampler {
    /// Chooses the participating client ids for `round`. Returned ids are
    /// sorted ascending.
    pub fn sample_round(
        &self,
        participation: &ParticipationModel,
        round: usize,
        seed: u64,
    ) -> Vec<usize> {
        match self {
            ClientSampler::Uniform { total } => participation.sample_round(*total, round, seed),
            ClientSampler::Weighted { stream, weights } => {
                participation.sample_round_weighted(weights, round, seed, stream)
            }
        }
    }
}

/// Tier-aware weights: the inverse of each client's tier compute multiplier,
/// so a tier at 0.25× compute is sampled 4× as eagerly as a 1× tier. Slow
/// tiers are exactly the ones that miss deadlines, so this counteracts the
/// participation skew a deadline introduces.
fn tier_aware_weights(tier_compute: &[f64]) -> Vec<f64> {
    tier_compute
        .iter()
        .map(|&c| {
            if c.is_finite() && c > 0.0 {
                1.0 / c
            } else {
                1.0
            }
        })
        .collect()
}

/// Similarity weights à la Famá et al. 2024: one minus half the L1 distance
/// between the shard's label distribution and the global label distribution
/// (i.e. `1 − TV(p_shard, p_global)`), floored at `0.05` so dissimilar
/// shards keep a small selection chance. The global histogram spans the
/// widest shard's classes; a class a shard does not declare counts zero
/// there. Computed **once per distinct shard** — logical clients sharing an
/// `Arc`'d shard share the weight.
fn similarity_weights(shards: &[Arc<Dataset>]) -> Vec<f64> {
    let num_classes = shards.iter().map(|s| s.num_classes()).max().unwrap_or(0);
    let mut global = vec![0.0f64; num_classes];
    let mut total = 0.0f64;
    for shard in shards {
        for (class, &count) in shard.class_counts().iter().enumerate() {
            global[class] += count as f64;
            total += count as f64;
        }
    }
    if total <= 0.0 {
        return vec![1.0; shards.len()];
    }
    for g in &mut global {
        *g /= total;
    }
    let mut per_shard: HashMap<*const Dataset, f64> = HashMap::new();
    shards
        .iter()
        .map(|shard| {
            *per_shard
                .entry(Arc::as_ptr(shard))
                .or_insert_with(|| shard_similarity(shard, &global))
        })
        .collect()
}

fn shard_similarity(shard: &Dataset, global: &[f64]) -> f64 {
    let counts = shard.class_counts();
    let local_total: f64 = counts.iter().map(|&c| c as f64).sum();
    if local_total <= 0.0 {
        return 0.05;
    }
    let l1: f64 = global
        .iter()
        .enumerate()
        .map(|(class, &g)| {
            let c = counts.get(class).map_or(0.0, |&c| c as f64);
            (c / local_total - g).abs()
        })
        .sum();
    (1.0 - 0.5 * l1).max(0.05)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entropy::rank_by_entropy;
    use crate::SelectionStrategy;
    use fedft_nn::BlockNetConfig;

    fn model() -> BlockNet {
        BlockNet::new(&BlockNetConfig::new(6, 4).with_hidden(10, 10, 10), 3)
    }

    fn dataset(n: usize) -> Dataset {
        let features =
            Matrix::from_vec(n, 6, (0..n * 6).map(|v| (v % 13) as f32 * 0.1).collect()).unwrap();
        Dataset::new(features, (0..n).map(|i| i % 4).collect(), 4).unwrap()
    }

    fn select_with(
        strategy: SelectionStrategy,
        model: &BlockNet,
        data: &Dataset,
        freeze: FreezeLevel,
        round: usize,
    ) -> Vec<usize> {
        let mut suffix = model.trainable_suffix(freeze);
        let mut ctx = SelectionContext::with_lazy_boundary(
            &mut suffix,
            model,
            freeze,
            data.features(),
            data.labels(),
            round,
            3,
            7,
        );
        strategy.select(&mut ctx).unwrap()
    }

    #[test]
    fn default_policies_match_the_legacy_selection_paths() {
        let m = model();
        let d = dataset(24);
        let freeze = FreezeLevel::Moderate;
        // All.
        let all = select_with(SelectionStrategy::All, &m, &d, freeze, 0);
        assert_eq!(all, (0..24).collect::<Vec<_>>());
        // Random: the "rds-client-{id}" stream indexed by round, in the
        // order the pre-policy code drew it (recorded from it at seed 7,
        // client 3) — the same subset every time, another one next round.
        let rds = SelectionStrategy::Random { fraction: 0.5 };
        assert_eq!(
            select_with(rds, &m, &d, freeze, 2),
            [4, 14, 22, 8, 6, 18, 7, 17, 21, 0, 12, 20]
        );
        assert_eq!(
            select_with(rds, &m, &d, freeze, 3),
            [5, 21, 6, 17, 10, 20, 8, 18, 19, 22, 7, 15]
        );
        // Entropy: the entropy ranking of the boundary scores, truncated.
        let eds = SelectionStrategy::Entropy {
            fraction: 0.25,
            temperature: 0.1,
        };
        let via_policy = select_with(eds, &m, &d, freeze, 0);
        let boundary = m.forward_frozen(freeze, d.features()).unwrap();
        let suffix = m.trainable_suffix(freeze);
        let entropies = ScoreKind::entropy(0.1)
            .score(&suffix.forward(&boundary).unwrap(), &[])
            .unwrap();
        assert_eq!(via_policy, rank_by_entropy(&entropies)[..6]);
    }

    #[test]
    fn policy_metadata_matches_the_strategy_descriptor() {
        let strategies = [
            SelectionStrategy::All,
            SelectionStrategy::Random { fraction: 0.4 },
            SelectionStrategy::Entropy {
                fraction: 0.4,
                temperature: 0.1,
            },
            SelectionStrategy::LossProportional { fraction: 0.4 },
            SelectionStrategy::GradientNorm { fraction: 0.4 },
        ];
        for s in strategies {
            assert_eq!(s.policy(), s);
            assert_eq!(
                s.selected_count(10),
                if s.fraction() < 1.0 { 4 } else { 10 }
            );
            assert_eq!(s.selected_count(0), 0);
        }
        // ceil(fraction · n), at least one sample, at most all of them.
        let tenth = SelectionStrategy::Random { fraction: 0.1 };
        assert_eq!(tenth.selected_count(100), 10);
        assert_eq!(tenth.selected_count(5), 1);
        assert_eq!(tenth.selected_count(1), 1);
        assert_eq!(SelectionStrategy::All.selected_count(7), 7);
    }

    #[test]
    fn loss_proportional_is_deterministic_and_biased_toward_high_loss() {
        let m = model();
        let d = dataset(30);
        let lds = SelectionStrategy::LossProportional { fraction: 0.2 };
        let a = select_with(lds, &m, &d, FreezeLevel::Moderate, 0);
        let b = select_with(lds, &m, &d, FreezeLevel::Moderate, 0);
        let c = select_with(lds, &m, &d, FreezeLevel::Moderate, 1);
        assert_eq!(a, b, "same round must reproduce");
        assert_ne!(a, c, "different rounds must resample");
        assert_eq!(a.len(), 6);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 6, "sampling is without replacement");
        // Bias check: across many rounds, the top-loss third of the samples
        // must be selected more often than the bottom-loss third.
        let freeze = FreezeLevel::Moderate;
        let boundary = m.forward_frozen(freeze, d.features()).unwrap();
        let suffix = m.trainable_suffix(freeze);
        let losses = ScoreKind::Loss
            .score(&suffix.forward(&boundary).unwrap(), d.labels())
            .unwrap();
        let ranked = rank_by_entropy(&losses);
        let top: Vec<usize> = ranked[..10].to_vec();
        let bottom: Vec<usize> = ranked[20..].to_vec();
        let (mut top_hits, mut bottom_hits) = (0usize, 0usize);
        for round in 0..300 {
            for i in select_with(lds, &m, &d, freeze, round) {
                if top.contains(&i) {
                    top_hits += 1;
                } else if bottom.contains(&i) {
                    bottom_hits += 1;
                }
            }
        }
        assert!(
            top_hits > bottom_hits,
            "high-loss samples must be favoured: {top_hits} vs {bottom_hits}"
        );
    }

    #[test]
    fn gradient_norm_policy_is_a_deterministic_top_k() {
        let m = model();
        let d = dataset(20);
        let gns = SelectionStrategy::GradientNorm { fraction: 0.3 };
        let a = select_with(gns, &m, &d, FreezeLevel::Classifier, 0);
        let b = select_with(gns, &m, &d, FreezeLevel::Classifier, 5);
        assert_eq!(a, b, "no RNG stream: round must not matter");
        assert_eq!(a.len(), 6);
        // The selected samples dominate the unselected ones in score.
        let freeze = FreezeLevel::Classifier;
        let boundary = m.forward_frozen(freeze, d.features()).unwrap();
        let suffix = m.trainable_suffix(freeze);
        let norms = ScoreKind::GradientNorm
            .score(&suffix.forward(&boundary).unwrap(), d.labels())
            .unwrap();
        let min_sel = a.iter().map(|&i| norms[i]).fold(f32::INFINITY, f32::min);
        let max_unsel = (0..20)
            .filter(|i| !a.contains(i))
            .map(|i| norms[i])
            .fold(f32::NEG_INFINITY, f32::max);
        assert!(min_sel >= max_unsel - 1e-6);
    }

    #[test]
    fn score_policies_are_independent_of_the_rds_stream() {
        // Drawing from "lds-client-3" must not move the "rds-client-3"
        // history, and vice versa.
        let m = model();
        let d = dataset(16);
        let rds = SelectionStrategy::Random { fraction: 0.5 };
        let before = select_with(rds, &m, &d, FreezeLevel::Moderate, 0);
        let _ = select_with(
            SelectionStrategy::LossProportional { fraction: 0.5 },
            &m,
            &d,
            FreezeLevel::Moderate,
            0,
        );
        assert_eq!(select_with(rds, &m, &d, FreezeLevel::Moderate, 0), before);
    }

    #[test]
    fn selection_context_reports_empty_pools() {
        let m = model();
        let empty = Matrix::zeros(0, 6);
        let labels: Vec<usize> = vec![];
        let mut suffix = m.trainable_suffix(FreezeLevel::Moderate);
        let mut ctx = SelectionContext::with_lazy_boundary(
            &mut suffix,
            &m,
            FreezeLevel::Moderate,
            &empty,
            &labels,
            0,
            0,
            0,
        );
        assert!(SelectionStrategy::All.select(&mut ctx).is_err());
        assert_eq!(ctx.num_samples(), 0);
        assert!(format!("{ctx:?}").contains("SelectionContext"));
    }

    #[test]
    fn client_selection_descriptors() {
        assert_eq!(ClientSelection::default(), ClientSelection::Uniform);
        assert_eq!(ClientSelection::Uniform.short_name(), "uniform");
        assert_eq!(ClientSelection::TierAware.short_name(), "tier");
        assert_eq!(ClientSelection::SimilarityAware.short_name(), "sim");
    }

    #[test]
    fn uniform_policy_is_bit_identical_to_participation_model() {
        let shards: Vec<Arc<Dataset>> = (0..10).map(|_| Arc::new(dataset(8))).collect();
        let policy = ClientSelection::Uniform.policy(&[1.0; 10], &shards);
        assert_eq!(policy, ClientSampler::Uniform { total: 10 });
        let p = ParticipationModel::new(0.3).unwrap();
        assert_eq!(policy.sample_round(&p, 0, 42), vec![0, 2, 6]);
        assert_eq!(policy.sample_round(&p, 1, 42), vec![1, 2, 7]);
        assert_eq!(policy.sample_round(&p, 2, 42), vec![2, 7, 9]);
    }

    #[test]
    fn tier_aware_weights_invert_compute() {
        let w = tier_aware_weights(&[1.0, 0.25, 2.0, 0.0, f64::NAN]);
        assert_eq!(w[0], 1.0);
        assert_eq!(w[1], 4.0);
        assert_eq!(w[2], 0.5);
        assert_eq!(w[3], 1.0, "degenerate compute falls back to weight 1");
        assert_eq!(w[4], 1.0);
        // Slow clients get picked more often.
        let p = ParticipationModel::new(0.25).unwrap();
        let compute: Vec<f64> = (0..20).map(|i| if i < 10 { 0.1 } else { 1.0 }).collect();
        let policy = ClientSelection::TierAware.policy(&compute, &[]);
        assert_eq!(
            policy,
            ClientSampler::Weighted {
                stream: "tier-participation",
                weights: tier_aware_weights(&compute),
            }
        );
        let mut slow_hits = 0usize;
        let mut total = 0usize;
        for round in 0..200 {
            for id in policy.sample_round(&p, round, 11) {
                total += 1;
                if id < 10 {
                    slow_hits += 1;
                }
            }
        }
        assert!(
            slow_hits as f64 > 0.7 * total as f64,
            "slow tier should dominate: {slow_hits}/{total}"
        );
    }

    #[test]
    fn similarity_weights_favour_balanced_shards() {
        // Shard 0 is balanced across 4 classes; shard 1 holds one class.
        let balanced = Arc::new(dataset(16));
        let skewed = {
            let features = Matrix::from_vec(16, 6, vec![0.5; 96]).unwrap();
            Arc::new(Dataset::new(features, vec![0; 16], 4).unwrap())
        };
        let shards = vec![balanced.clone(), skewed.clone(), balanced.clone()];
        let w = similarity_weights(&shards);
        assert_eq!(w.len(), 3);
        assert!(
            w[0] > w[1],
            "balanced shard must outweigh skewed shard: {w:?}"
        );
        assert_eq!(w[0], w[2], "shared Arc shards share one weight");
        assert!(w.iter().all(|&x| (0.05..=1.0).contains(&x)));
    }

    #[test]
    fn similarity_weights_span_the_widest_shard() {
        // Shards declaring 4 and 10 classes: the global histogram spans all
        // 10, and the classes the narrow shard does not declare count zero
        // there. Classes 0..8 hold one sample each, so each shard is at
        // total-variation distance 1/2 from the global distribution.
        let shard = |labels: Vec<usize>, classes: usize| {
            let features = Matrix::from_vec(4, 6, vec![0.5; 24]).unwrap();
            Arc::new(Dataset::new(features, labels, classes).unwrap())
        };
        let shards = vec![shard(vec![0, 1, 2, 3], 4), shard(vec![4, 5, 6, 7], 10)];
        assert_eq!(similarity_weights(&shards), [0.5, 0.5]);
    }

    #[test]
    fn weighted_policies_never_perturb_the_uniform_stream() {
        let shards: Vec<Arc<Dataset>> = (0..10).map(|_| Arc::new(dataset(8))).collect();
        let p = ParticipationModel::new(0.3).unwrap();
        let before = p.sample_round(10, 0, 42);
        // Each weighted draw's first rounds, pinned on its own stream.
        let pinned = [
            (
                ClientSelection::TierAware,
                [[0, 2, 6], [4, 6, 8], [2, 6, 7]],
            ),
            (
                ClientSelection::SimilarityAware,
                [[0, 1, 8], [4, 5, 6], [0, 8, 9]],
            ),
        ];
        for (selection, rounds) in pinned {
            let policy = selection.policy(&[0.5; 10], &shards);
            for (round, expected) in rounds.iter().enumerate() {
                assert_eq!(policy.sample_round(&p, round, 42), expected);
            }
        }
        assert_eq!(p.sample_round(10, 0, 42), before);
        assert_eq!(before, vec![0, 2, 6], "pinned history must not move");
    }
}
