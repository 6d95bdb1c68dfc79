//! Pluggable policy layers for the two per-round decision points.
//!
//! The simulation makes two policy decisions every round:
//!
//! 1. **Data selection** — which local samples each participating client
//!    trains on ([`DataSelectionPolicy`]). The paper's EDS is one member of
//!    a family that also contains the all/random baselines and the
//!    loss-proportional / gradient-norm rules of the paper's precursor
//!    (Shi & Radu 2021).
//! 2. **Client selection** — which clients participate at all
//!    ([`ClientSelectionPolicy`]). Uniform sampling is one member of a
//!    family that also contains tier-aware (bias toward slow tiers that
//!    miss deadlines) and label-distribution-similarity-aware (Famá et
//!    al. 2024) rules.
//!
//! Both families are resolved from small serialisable descriptors
//! ([`crate::SelectionStrategy`], [`ClientSelection`]) into trait objects,
//! so report code can enumerate policies generically while configs stay
//! plain data.
//!
//! # Bit-identity contract
//!
//! The default members of each family (`All`/`Random`/`Entropy` data
//! selection, `Uniform` client selection) run **exactly** the code that
//! predates the policy layer, on the same named RNG streams
//! (`"rds-client-{id}"`, `"participation"`). Every non-default policy draws
//! from its own stream (`"lds-client-{id}"`, `"tier-participation"`,
//! `"similarity-participation"`) or none at all, so enabling one policy
//! never perturbs the seeded history of another. This is pinned by the
//! back-compat e2e suite.

use crate::cache::{ScoreKind, ScoreSlot};
use crate::entropy::{
    rank_by_entropy, sample_entropies_from_boundary, sample_gradient_norms_from_boundary,
    sample_losses_from_boundary,
};
use crate::participation::ParticipationModel;
use crate::selection::SelectionStrategy;
use crate::{FlError, Result};
use fedft_data::Dataset;
use fedft_nn::{BlockNet, FreezeLevel, SuffixNet};
use fedft_tensor::{rng, Matrix};
use rand::Rng;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt::Debug;
use std::sync::Arc;

/// Floor substituted for non-finite or non-positive loss weights in
/// loss-proportional sampling, so a perfectly-fit sample (loss 0) keeps a
/// vanishing but non-zero chance of selection.
const MIN_SCORE_WEIGHT: f64 = 1e-12;

// ---------------------------------------------------------------------------
// Data-selection policies
// ---------------------------------------------------------------------------

/// Everything a data-selection policy may consult when picking this round's
/// training subset for one client.
///
/// The boundary activations (frozen-prefix output) are resolved lazily: a
/// policy that never scores samples (`All`, `Random`) never triggers the
/// frozen forward pass, preserving the cost profile of the pre-policy code.
pub struct SelectionContext<'a> {
    suffix: &'a mut SuffixNet,
    labels: &'a [usize],
    round: usize,
    client_id: usize,
    seed: u64,
    boundary: BoundarySource<'a>,
    /// Where scores other clients of the shard computed under this model
    /// version are found and this client's are left, and the buffer they
    /// are copied out into.
    shared: Option<(ScoreSlot<'a>, &'a mut Vec<f32>)>,
}

enum BoundarySource<'a> {
    /// Boundary activations already materialised — a cache hit, or the raw
    /// features themselves when no block is frozen.
    Ready(&'a Matrix),
    /// Frozen prefix not yet run; computed on first use and memoised.
    Lazy {
        model: &'a BlockNet,
        freeze: FreezeLevel,
        features: &'a Matrix,
        built: Option<Matrix>,
    },
}

impl<'a> SelectionContext<'a> {
    /// Context over already-materialised boundary activations.
    pub fn with_boundary(
        suffix: &'a mut SuffixNet,
        boundary: &'a Matrix,
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
            boundary: BoundarySource::Ready(boundary),
            shared: None,
        }
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
        SelectionContext {
            suffix,
            labels,
            round,
            client_id,
            seed,
            boundary: BoundarySource::Lazy {
                model,
                freeze,
                features,
                built: None,
            },
            shared: None,
        }
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

    /// Per-sample entropies under a hardened softmax (the EDS score).
    pub fn entropies(&mut self, temperature: f32) -> Result<Cow<'_, [f32]>> {
        self.scores(ScoreKind::entropy(temperature), |suffix, boundary| {
            sample_entropies_from_boundary(suffix, boundary, temperature)
        })
    }

    /// Per-sample cross-entropy losses (the loss-proportional score).
    pub fn losses(&mut self) -> Result<Cow<'_, [f32]>> {
        let labels = self.labels;
        self.scores(ScoreKind::Loss, |suffix, boundary| {
            sample_losses_from_boundary(suffix, boundary, labels)
        })
    }

    /// Per-sample output-layer gradient norms (the gradient-norm score).
    pub fn gradient_norms(&mut self) -> Result<Cow<'_, [f32]>> {
        let labels = self.labels;
        self.scores(ScoreKind::GradientNorm, |suffix, boundary| {
            sample_gradient_norms_from_boundary(suffix, boundary, labels)
        })
    }

    /// The one scoring path: borrowed from the shared buffer when the slot
    /// answered, owned when `score` ran.
    fn scores<F>(&mut self, kind: ScoreKind, score: F) -> Result<Cow<'_, [f32]>>
    where
        F: FnOnce(&mut SuffixNet, &Matrix) -> Result<Vec<f32>>,
    {
        let served = match &mut self.shared {
            Some((slot, buffer)) => slot.read_into(kind, buffer),
            None => false,
        };
        if let (true, Some((_, buffer))) = (served, &self.shared) {
            return Ok(Cow::Borrowed(buffer.as_slice()));
        }
        let boundary: &Matrix = match &mut self.boundary {
            BoundarySource::Ready(b) => b,
            BoundarySource::Lazy {
                model,
                freeze,
                features,
                built,
            } => {
                if built.is_none() {
                    *built = Some(model.forward_frozen(*freeze, features)?);
                }
                built.as_ref().expect("boundary was just built")
            }
        };
        let computed = score(&mut *self.suffix, boundary)?;
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

/// A member of the data-selection policy family: picks, per round and per
/// client, which local sample indices to train on.
pub trait DataSelectionPolicy: Debug + Send + Sync {
    /// Short name used in reports (`all`, `rds`, `eds`, `lds`, `gns`).
    fn short_name(&self) -> &'static str;

    /// Fraction of local data the policy keeps.
    fn fraction(&self) -> f64;

    /// Whether the policy needs a forward pass over the whole local dataset
    /// (and therefore incurs the cost model's selection overhead).
    fn needs_inference_pass(&self) -> bool;

    /// Selects the training subset for this round.
    ///
    /// # Errors
    ///
    /// Returns an error when the context holds no samples or scoring fails.
    fn select(&self, ctx: &mut SelectionContext<'_>) -> Result<Vec<usize>>;

    /// Number of samples kept out of `available`:
    /// `ceil(fraction · available)` clamped to `[1, available]`.
    fn selected_count(&self, available: usize) -> usize {
        if available == 0 {
            return 0;
        }
        let keep = (self.fraction() * available as f64).ceil() as usize;
        keep.clamp(1, available)
    }
}

fn require_samples(ctx: &SelectionContext<'_>) -> Result<()> {
    if ctx.num_samples() == 0 {
        return Err(FlError::InvalidConfig {
            what: format!("client {} has no local data to select from", ctx.client_id),
        });
    }
    Ok(())
}

/// Train on every local sample (FedAvg, FedProx, FedFT-ALL).
#[derive(Debug, Clone, Copy)]
pub struct AllData;

impl DataSelectionPolicy for AllData {
    fn short_name(&self) -> &'static str {
        "all"
    }

    fn fraction(&self) -> f64 {
        1.0
    }

    fn needs_inference_pass(&self) -> bool {
        false
    }

    fn select(&self, ctx: &mut SelectionContext<'_>) -> Result<Vec<usize>> {
        require_samples(ctx)?;
        Ok((0..ctx.num_samples()).collect())
    }
}

/// Uniform random selection refreshed every round (the `-RDS` baselines).
/// Draws from the `"rds-client-{id}"` stream — the exact stream and shuffle
/// the pre-policy code used, so seeded histories are unchanged.
#[derive(Debug, Clone, Copy)]
pub struct RandomSubset {
    /// Fraction `Pds ∈ (0, 1]` of local samples to keep.
    pub fraction: f64,
}

impl DataSelectionPolicy for RandomSubset {
    fn short_name(&self) -> &'static str {
        "rds"
    }

    fn fraction(&self) -> f64 {
        self.fraction
    }

    fn needs_inference_pass(&self) -> bool {
        false
    }

    fn select(&self, ctx: &mut SelectionContext<'_>) -> Result<Vec<usize>> {
        require_samples(ctx)?;
        let n = ctx.num_samples();
        Ok(rng::seeded_subset(
            ctx.seed,
            &format!("rds-client-{}", ctx.client_id),
            ctx.round as u64,
            n,
            self.selected_count(n),
        ))
    }
}

/// The paper's EDS: keep the top-`Pds` highest-entropy samples under a
/// hardened softmax. Deterministic given the model — no RNG stream.
#[derive(Debug, Clone, Copy)]
pub struct EntropyTopK {
    /// Fraction `Pds ∈ (0, 1]` of local samples to keep.
    pub fraction: f64,
    /// Softmax temperature ρ; the paper uses `0.1`.
    pub temperature: f32,
}

impl DataSelectionPolicy for EntropyTopK {
    fn short_name(&self) -> &'static str {
        "eds"
    }

    fn fraction(&self) -> f64 {
        self.fraction
    }

    fn needs_inference_pass(&self) -> bool {
        true
    }

    fn select(&self, ctx: &mut SelectionContext<'_>) -> Result<Vec<usize>> {
        require_samples(ctx)?;
        let entropies = ctx.entropies(self.temperature)?;
        let mut ranked = rank_by_entropy(&entropies);
        ranked.truncate(self.selected_count(entropies.len()));
        Ok(ranked)
    }
}

/// Loss-proportional selection (Shi & Radu 2021): draw without replacement
/// with probability proportional to per-sample loss, via Efraimidis–Spirakis
/// keys on the `"lds-client-{id}"` stream (indexed by round). Output is in
/// descending key order (most important first), like the entropy ranking.
#[derive(Debug, Clone, Copy)]
pub struct LossProportionalSampling {
    /// Fraction `Pds ∈ (0, 1]` of local samples to keep.
    pub fraction: f64,
}

impl DataSelectionPolicy for LossProportionalSampling {
    fn short_name(&self) -> &'static str {
        "lds"
    }

    fn fraction(&self) -> f64 {
        self.fraction
    }

    fn needs_inference_pass(&self) -> bool {
        true
    }

    fn select(&self, ctx: &mut SelectionContext<'_>) -> Result<Vec<usize>> {
        require_samples(ctx)?;
        let mut r = rng::rng_for_indexed(
            ctx.seed,
            &format!("lds-client-{}", ctx.client_id),
            ctx.round as u64,
        );
        let losses = ctx.losses()?;
        let mut keyed: Vec<(f64, usize)> = losses
            .iter()
            .enumerate()
            .map(|(i, &loss)| {
                let u: f64 = r.gen();
                let w = if loss.is_finite() && loss > 0.0 {
                    f64::from(loss)
                } else {
                    MIN_SCORE_WEIGHT
                };
                (u.powf(1.0 / w), i)
            })
            .collect();
        keyed.sort_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .unwrap_or(Ordering::Equal)
                .then(a.1.cmp(&b.1))
        });
        keyed.truncate(self.selected_count(losses.len()));
        Ok(keyed.into_iter().map(|(_, i)| i).collect())
    }
}

/// Gradient-norm selection (Shi & Radu 2021): keep the samples with the
/// largest output-layer gradient norm. Deterministic top-k — no RNG stream.
#[derive(Debug, Clone, Copy)]
pub struct GradientNormTopK {
    /// Fraction `Pds ∈ (0, 1]` of local samples to keep.
    pub fraction: f64,
}

impl DataSelectionPolicy for GradientNormTopK {
    fn short_name(&self) -> &'static str {
        "gns"
    }

    fn fraction(&self) -> f64 {
        self.fraction
    }

    fn needs_inference_pass(&self) -> bool {
        true
    }

    fn select(&self, ctx: &mut SelectionContext<'_>) -> Result<Vec<usize>> {
        require_samples(ctx)?;
        let norms = ctx.gradient_norms()?;
        let mut ranked = rank_by_entropy(&norms);
        ranked.truncate(self.selected_count(norms.len()));
        Ok(ranked)
    }
}

impl SelectionStrategy {
    /// Resolves the serialisable strategy descriptor into its policy-family
    /// member.
    pub fn policy(&self) -> Box<dyn DataSelectionPolicy> {
        match *self {
            SelectionStrategy::All => Box::new(AllData),
            SelectionStrategy::Random { fraction } => Box::new(RandomSubset { fraction }),
            SelectionStrategy::Entropy {
                fraction,
                temperature,
            } => Box::new(EntropyTopK {
                fraction,
                temperature,
            }),
            SelectionStrategy::LossProportional { fraction } => {
                Box::new(LossProportionalSampling { fraction })
            }
            SelectionStrategy::GradientNorm { fraction } => Box::new(GradientNormTopK { fraction }),
        }
    }
}

// ---------------------------------------------------------------------------
// Client-selection policies
// ---------------------------------------------------------------------------

/// Serialisable descriptor of the client-selection policy, stored in
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

    /// Resolves the descriptor into its policy-family member for a concrete
    /// client pool: `tiers` holds each client's tier compute multiplier and
    /// `shards` each client's data shard.
    pub fn policy(
        &self,
        tier_compute: &[f64],
        shards: &[Arc<Dataset>],
    ) -> Box<dyn ClientSelectionPolicy> {
        match self {
            ClientSelection::Uniform => Box::new(UniformClientSelection {
                total: shards.len(),
            }),
            ClientSelection::TierAware => Box::new(WeightedClientSelection {
                name: "tier",
                stream: "tier-participation",
                weights: tier_aware_weights(tier_compute),
            }),
            ClientSelection::SimilarityAware => Box::new(WeightedClientSelection {
                name: "sim",
                stream: "similarity-participation",
                weights: similarity_weights(shards),
            }),
        }
    }
}

/// A member of the client-selection policy family: picks, per round, which
/// client ids participate.
pub trait ClientSelectionPolicy: Debug + Send + Sync {
    /// Short name used in reports.
    fn short_name(&self) -> &'static str;

    /// Chooses the participating client ids for `round`. Returned ids are
    /// sorted ascending.
    fn sample_round(
        &self,
        participation: &ParticipationModel,
        round: usize,
        seed: u64,
    ) -> Vec<usize>;
}

/// The default uniform policy — delegates verbatim to
/// [`ParticipationModel::sample_round`] on the `"participation"` stream.
#[derive(Debug, Clone, Copy)]
pub struct UniformClientSelection {
    /// Size of the client pool.
    pub total: usize,
}

impl ClientSelectionPolicy for UniformClientSelection {
    fn short_name(&self) -> &'static str {
        "uniform"
    }

    fn sample_round(
        &self,
        participation: &ParticipationModel,
        round: usize,
        seed: u64,
    ) -> Vec<usize> {
        participation.sample_round(self.total, round, seed)
    }
}

/// A weighted policy — delegates to
/// [`ParticipationModel::sample_round_weighted`] on its own named stream.
#[derive(Debug, Clone)]
pub struct WeightedClientSelection {
    name: &'static str,
    stream: &'static str,
    weights: Vec<f64>,
}

impl WeightedClientSelection {
    /// Builds a weighted policy from explicit weights and a stream label.
    pub fn new(name: &'static str, stream: &'static str, weights: Vec<f64>) -> Self {
        WeightedClientSelection {
            name,
            stream,
            weights,
        }
    }

    /// The per-client weights the policy samples with.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }
}

impl ClientSelectionPolicy for WeightedClientSelection {
    fn short_name(&self) -> &'static str {
        self.name
    }

    fn sample_round(
        &self,
        participation: &ParticipationModel,
        round: usize,
        seed: u64,
    ) -> Vec<usize> {
        participation.sample_round_weighted(&self.weights, round, seed, self.stream)
    }
}

/// Tier-aware weights: the inverse of each client's tier compute multiplier,
/// so a tier at 0.25× compute is sampled 4× as eagerly as a 1× tier. Slow
/// tiers are exactly the ones that miss deadlines, so this counteracts the
/// participation skew a deadline introduces.
pub fn tier_aware_weights(tier_compute: &[f64]) -> Vec<f64> {
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
/// shards keep a small selection chance. Computed **once per distinct
/// shard** — logical clients sharing an `Arc`'d shard share the weight.
pub fn similarity_weights(shards: &[Arc<Dataset>]) -> Vec<f64> {
    let num_classes = shards.first().map_or(0, |s| s.num_classes());
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
    let l1: f64 = counts
        .iter()
        .zip(global)
        .map(|(&c, &g)| (c as f64 / local_total - g).abs())
        .sum();
    (1.0 - 0.5 * l1).max(0.05)
}

#[cfg(test)]
mod tests {
    use super::*;
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
        strategy.policy().select(&mut ctx).unwrap()
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
        let mut suffix = m.trainable_suffix(freeze);
        let entropies = sample_entropies_from_boundary(&mut suffix, &boundary, 0.1).unwrap();
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
            let p = s.policy();
            assert_eq!(p.short_name(), s.short_name());
            assert_eq!(p.fraction(), s.fraction());
            assert_eq!(p.needs_inference_pass(), s.needs_inference_pass());
            assert_eq!(
                p.selected_count(10),
                if s.fraction() < 1.0 { 4 } else { 10 }
            );
            assert_eq!(p.selected_count(0), 0);
        }
        // ceil(fraction · n), at least one sample, at most all of them.
        let tenth = RandomSubset { fraction: 0.1 };
        assert_eq!(tenth.selected_count(100), 10);
        assert_eq!(tenth.selected_count(5), 1);
        assert_eq!(tenth.selected_count(1), 1);
        assert_eq!(AllData.selected_count(7), 7);
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
        let mut suffix = m.trainable_suffix(freeze);
        let losses = sample_losses_from_boundary(&mut suffix, &boundary, d.labels()).unwrap();
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
        let mut suffix = m.trainable_suffix(freeze);
        let norms =
            sample_gradient_norms_from_boundary(&mut suffix, &boundary, d.labels()).unwrap();
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
        assert!(AllData.select(&mut ctx).is_err());
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
        let policy = WeightedClientSelection::new(
            "tier",
            "tier-participation",
            tier_aware_weights(&compute),
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
    fn weighted_policies_never_perturb_the_uniform_stream() {
        let shards: Vec<Arc<Dataset>> = (0..10).map(|_| Arc::new(dataset(8))).collect();
        let p = ParticipationModel::new(0.3).unwrap();
        let before = p.sample_round(10, 0, 42);
        for selection in [ClientSelection::TierAware, ClientSelection::SimilarityAware] {
            let policy = selection.policy(&[0.5; 10], &shards);
            let ids = policy.sample_round(&p, 0, 42);
            assert_eq!(ids.len(), 3);
            assert!(ids.windows(2).all(|w| w[0] < w[1]));
        }
        assert_eq!(p.sample_round(10, 0, 42), before);
        assert_eq!(before, vec![0, 2, 6], "pinned history must not move");
    }
}
