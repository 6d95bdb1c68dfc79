//! Client-side local update (paper Algorithm 1, lines 6–9).

use crate::cache::{FeatureCache, ShardKey};
use crate::config::{FlConfig, LocalAlgorithm};
use crate::policy::SelectionContext;
use crate::{FlError, Result};
use fedft_data::Dataset;
use fedft_nn::flops::FlopsBreakdown;
use fedft_nn::{BlockNet, ParamVector, ProximalTerm, Sgd, SuffixNet};
use fedft_tensor::{rng, Matrix};
use rand::seq::SliceRandom;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The result of one client's local round, uploaded to the server.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClientUpdate {
    /// Id of the client that produced the update.
    pub client_id: usize,
    /// Updated trainable parameters `θ_k^{t+1}`.
    pub theta: ParamVector,
    /// Number of locally selected training samples `|D_{k,select}^t|` — used
    /// as the aggregation weight.
    pub selected_samples: usize,
    /// Size of the client's full local dataset `|D_k|`.
    pub local_samples: usize,
    /// Mean local training loss over the final local epoch.
    pub train_loss: f32,
    /// Simulated client compute time for this round, in seconds, under the
    /// paper-faithful workload accounting (the frozen prefix runs on every
    /// batch and selection pass, as on the paper's devices).
    pub compute_seconds: f64,
    /// Simulated client compute time for this round under the **cached**
    /// workload accounting: boundary activations served from a feature
    /// cache, so only the trainable suffix runs (steady state; the one-time
    /// cache build is amortised out — see
    /// [`crate::CostModel::client_round_seconds`], here applied with
    /// `forward_frozen = 0`). Reported
    /// unconditionally, whatever [`FlConfig::feature_cache`] says, so both
    /// accountings are always available and histories stay independent of
    /// the knob.
    pub cached_compute_seconds: f64,
}

/// What a thread that trains one client after another keeps between them,
/// so that only a runner's first client pays for it: the `θ` snapshot
/// (refreshed in place from each client's model, its training step's
/// scratch staying warm), the optimiser (restarted, its velocities zeroed
/// instead of re-made), FedProx's reference vector, and the index, label and
/// batch-gather buffers of the local epochs, and the buffer selection scores
/// shared through the registry are copied out into.
///
/// It carries nothing from one client into the next but capacity: an update
/// computed in a used workspace equals one computed in a new one bit for
/// bit, whatever the previous client's model width, freeze level, batch size
/// or algorithm was ([`Client::local_update_in`]).
#[derive(Debug, Default)]
pub struct ClientWorkspace {
    suffix: SuffixNet,
    optimizer: Sgd,
    order: Vec<usize>,
    selected_labels: Vec<usize>,
    batch_rows: Vec<usize>,
    batch_labels: Vec<usize>,
    gather: Matrix,
    scores: Vec<f32>,
}

/// A federated client holding a (possibly shared) shard of data.
///
/// A `Client` is stateless between rounds apart from its dataset and its
/// [`FeatureCache`]: every round it downloads the current global trainable
/// parameters, selects local data, fine-tunes and uploads the new parameters
/// — matching the paper's setting where the momentum/optimiser state is not
/// carried across rounds. The feature cache is pure memoisation of the
/// (round-invariant) frozen-prefix activations, keyed by backbone
/// fingerprint and source checksum, so it never alters results; clones
/// share it. The shard lives behind an `Arc` so a *logical client pool*
/// (many simulated clients over few physical shards — see
/// [`crate::simulation::ClientPool`]) holds each distinct shard once.
#[derive(Debug, Clone)]
pub struct Client {
    id: usize,
    shard: Arc<KeyedShard>,
    cache: FeatureCache,
}

/// A physical shard and what the registry calls it, derived once so that no
/// lookup walks the shard again — and held once per shard, not per client:
/// a pool of 20k logical clients over 100 shards keeps 100 of these.
#[derive(Debug)]
pub(crate) struct KeyedShard {
    data: Arc<Dataset>,
    key: ShardKey,
}

impl KeyedShard {
    pub(crate) fn new(data: Arc<Dataset>) -> Arc<Self> {
        let key = ShardKey::of(&data);
        Arc::new(KeyedShard { data, key })
    }
}

impl Client {
    /// Creates a client owning its private data shard and a private
    /// (unbounded) cache.
    pub fn new(id: usize, data: Dataset) -> Self {
        Client::from_shard(id, Arc::new(data), FeatureCache::new())
    }

    /// Creates a client over a shared physical shard and an explicit cache
    /// handle — the constructor logical client pools use: clients of the
    /// same shard share the `Arc` (one copy of the data in memory) and,
    /// with [`FeatureCache::shared`], one registry of boundary activations.
    pub fn from_shard(id: usize, data: Arc<Dataset>, cache: FeatureCache) -> Self {
        Client::from_keyed_shard(id, KeyedShard::new(data), cache)
    }

    /// [`Client::from_shard`] for a pool that keyed the shard once for all
    /// its logical clients.
    pub(crate) fn from_keyed_shard(id: usize, shard: Arc<KeyedShard>, cache: FeatureCache) -> Self {
        Client { id, shard, cache }
    }

    /// The client id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The client's dataset.
    pub fn data(&self) -> &Dataset {
        &self.shard.data
    }

    /// The shared handle onto the client's physical shard (clients of one
    /// shard in a logical pool return the same allocation).
    pub fn shard(&self) -> &Arc<Dataset> {
        &self.shard.data
    }

    /// What the cache registry calls the client's shard.
    pub(crate) fn shard_key(&self) -> ShardKey {
        self.shard.key
    }

    /// Number of local samples `|D_k|`.
    pub fn num_samples(&self) -> usize {
        self.shard.data.len()
    }

    /// The client's frozen-feature cache (empty until a cached round runs).
    pub fn feature_cache(&self) -> &FeatureCache {
        &self.cache
    }

    /// Runs one local round.
    ///
    /// `global_model` is the server's current global model (both the shared
    /// frozen part `ϕ` and the trainable part `θ^t`). The client never
    /// clones the frozen backbone: `ϕ` is read through the shared reference
    /// (and, with [`FlConfig::feature_cache`] on, through cached boundary
    /// activations), while local training works on a private `O(|θ|)`
    /// [`fedft_nn::SuffixNet`] snapshot of the trainable part. Returns the
    /// uploaded [`ClientUpdate`].
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is invalid or the local dataset
    /// is empty.
    pub fn local_update(
        &self,
        global_model: &BlockNet,
        config: &FlConfig,
        round: usize,
    ) -> Result<ClientUpdate> {
        let mut workspace = ClientWorkspace::default();
        self.local_update_in(&mut workspace, Vec::new(), global_model, config, round)
    }

    /// [`Client::local_update`] on memory the caller keeps: the round runs
    /// in `workspace` and the new `θ` is written into `upload` (contents
    /// discarded), which comes back as [`ClientUpdate::theta`]. The update
    /// is the same, bit for bit, whatever either held before; with a
    /// workspace that has served a client of this model shape and an
    /// `upload` of capacity `|θ|`, nothing `θ`-sized is allocated.
    ///
    /// # Errors
    ///
    /// As [`Client::local_update`].
    pub fn local_update_in(
        &self,
        workspace: &mut ClientWorkspace,
        upload: Vec<f32>,
        global_model: &BlockNet,
        config: &FlConfig,
        round: usize,
    ) -> Result<ClientUpdate> {
        let freeze = config.freeze_for_client(self.id);
        let KeyedShard { data, key } = &*self.shard;
        if data.is_empty() {
            return Err(FlError::InvalidConfig {
                what: format!("client {} has no local data to select from", self.id),
            });
        }
        // At FreezeLevel::Full there is no frozen prefix: the boundary is
        // the raw input, so caching it would only duplicate the dataset.
        let use_cache = config.feature_cache && freeze.frozen_blocks() > 0;
        let cached_boundary: Option<Arc<Matrix>> = if use_cache {
            Some(self.cache.registry().get_or_build_keyed(
                *key,
                global_model,
                freeze,
                data.features(),
            )?)
        } else {
            None
        };

        let ClientWorkspace {
            suffix,
            optimizer,
            order,
            selected_labels,
            batch_rows,
            batch_labels,
            gather,
            scores,
        } = workspace;
        // The client's private trainable part θ — an O(|θ|) snapshot; the
        // backbone ϕ stays shared behind `global_model`.
        global_model.refresh_suffix(freeze, suffix);

        // --- Data selection (Equations 2-3, hardened softmax Equation 6),
        // by the configured strategy. The context resolves boundary
        // activations lazily: model-free strategies (All/Random) never touch
        // the model, score-based ones see either the cached boundary,
        // the raw features (no frozen prefix), or a one-off frozen forward
        // pass — the exact three paths the pre-policy dispatch took. A
        // client that took its boundary from the registry takes its scores
        // there too: the other clients of its shard that train on this model
        // version need the same ones.
        let selected_indices = {
            let mut ctx = match &cached_boundary {
                Some(boundary) => SelectionContext::with_boundary(
                    suffix,
                    boundary,
                    data.labels(),
                    round,
                    self.id,
                    config.seed,
                )
                .with_score_slot(
                    self.cache.registry().score_slot(*key, global_model, freeze),
                    scores,
                ),
                // No frozen prefix: the boundary is the raw features —
                // score them directly instead of copying the dataset.
                None if freeze.frozen_blocks() == 0 => SelectionContext::with_boundary(
                    suffix,
                    data.features(),
                    data.labels(),
                    round,
                    self.id,
                    config.seed,
                ),
                None => SelectionContext::with_lazy_boundary(
                    suffix,
                    global_model,
                    freeze,
                    data.features(),
                    data.labels(),
                    round,
                    self.id,
                    config.seed,
                ),
            };
            config.selection.select(&mut ctx)?
        };
        selected_labels.clear();
        selected_labels.extend(selected_indices.iter().map(|&i| data.labels()[i]));

        // --- Local fine-tuning of the trainable part θ (Equation 4). The
        // reference vector of the previous FedProx round, if there was one,
        // carries this one's.
        let reference = optimizer.take_proximal().map(|p| p.reference.into_values());
        optimizer.restart(config.sgd)?;
        if let LocalAlgorithm::FedProx { mu } = config.algorithm {
            optimizer.set_proximal(Some(ProximalTerm {
                mu,
                reference: suffix.trainable_vector_into(reference.unwrap_or_default()),
            }));
        }
        order.clear();
        order.extend(0..selected_indices.len());
        let mut train_loss = 0.0_f32;
        // The RNG stream name only varies per (client, round).
        let shuffle_stream = format!("client-{}-round-{round}-epoch", self.id);
        for epoch in 0..config.local_epochs {
            let mut shuffle_rng = rng::rng_for_indexed(config.seed, &shuffle_stream, epoch as u64);
            order.shuffle(&mut shuffle_rng);
            let mut epoch_loss = 0.0_f32;
            let mut batches = 0usize;
            for chunk in order.chunks(config.batch_size) {
                batch_rows.clear();
                batch_rows.extend(chunk.iter().map(|&i| selected_indices[i]));
                batch_labels.clear();
                batch_labels.extend(chunk.iter().map(|&i| selected_labels[i]));
                // Boundary activations for this batch: gathered from the
                // cache, or recomputed through the shared frozen prefix.
                // Both paths run the same kernels on the same per-row
                // inputs, so the suffix sees bit-identical values.
                let frozen_out: Matrix;
                let boundary: &Matrix = match &cached_boundary {
                    Some(all) => {
                        all.select_rows_into(batch_rows, gather);
                        &*gather
                    }
                    None if freeze.frozen_blocks() == 0 => {
                        data.features().select_rows_into(batch_rows, gather);
                        &*gather
                    }
                    None => {
                        data.features().select_rows_into(batch_rows, gather);
                        frozen_out = global_model.forward_frozen(freeze, gather)?;
                        &frozen_out
                    }
                };
                epoch_loss += suffix.train_batch(boundary, batch_labels, optimizer)?;
                batches += 1;
            }
            train_loss = epoch_loss / batches.max(1) as f32;
        }

        // --- Cost accounting for the learning-efficiency metric, priced as
        // the executor predicted it at admission. The cached accounting
        // drops the frozen forward work, whether the cache actually ran.
        let flops = global_model.flops_per_sample(freeze);
        let compute_seconds = config.client_compute_seconds(&flops, data.len());
        let cached_compute_seconds = config.client_compute_seconds(
            &FlopsBreakdown {
                forward_frozen: 0,
                ..flops
            },
            data.len(),
        );

        Ok(ClientUpdate {
            client_id: self.id,
            theta: suffix.trainable_vector_into(upload),
            selected_samples: selected_indices.len(),
            local_samples: data.len(),
            train_loss,
            compute_seconds,
            cached_compute_seconds,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selection::SelectionStrategy;
    use fedft_nn::{BlockNetConfig, FreezeLevel};
    use fedft_tensor::init;

    fn client_dataset(n: usize, seed: u64) -> Dataset {
        let mut r = rng::rng_for(seed, "client-test-data");
        let features = init::normal(&mut r, n, 6, 0.0, 1.0);
        Dataset::new(features, (0..n).map(|i| i % 3).collect(), 3).unwrap()
    }

    fn global_model() -> BlockNet {
        BlockNet::new(&BlockNetConfig::new(6, 3).with_hidden(10, 10, 10), 5)
    }

    fn quick_config() -> FlConfig {
        FlConfig::default()
            .with_rounds(1)
            .with_local_epochs(2)
            .with_batch_size(8)
    }

    #[test]
    fn local_update_produces_consistent_metadata() {
        let client = Client::new(3, client_dataset(30, 1));
        let update = client
            .local_update(&global_model(), &quick_config(), 0)
            .unwrap();
        assert_eq!(update.client_id, 3);
        assert_eq!(update.local_samples, 30);
        assert_eq!(update.selected_samples, 30);
        assert!(update.compute_seconds > 0.0);
        assert_eq!(
            update.theta.len(),
            global_model().trainable_parameter_count(FreezeLevel::Moderate)
        );
        assert_eq!(client.id(), 3);
        assert_eq!(client.num_samples(), 30);
        assert_eq!(client.data().len(), 30);
    }

    #[test]
    fn local_update_changes_theta_but_is_deterministic() {
        let client = Client::new(0, client_dataset(24, 2));
        let model = global_model();
        let config = quick_config();
        let a = client.local_update(&model, &config, 0).unwrap();
        let b = client.local_update(&model, &config, 0).unwrap();
        assert_eq!(a, b, "same inputs must give identical updates");
        assert_ne!(
            a.theta,
            model.trainable_vector(FreezeLevel::Moderate),
            "local training must move the trainable parameters"
        );
    }

    #[test]
    fn selection_fraction_reduces_selected_and_cost() {
        let client = Client::new(0, client_dataset(40, 3));
        let model = global_model();
        let full = client.local_update(&model, &quick_config(), 0).unwrap();
        let reduced_cfg =
            quick_config().with_selection(SelectionStrategy::Random { fraction: 0.1 });
        let reduced = client.local_update(&model, &reduced_cfg, 0).unwrap();
        assert_eq!(reduced.selected_samples, 4);
        assert!(reduced.compute_seconds < full.compute_seconds);
    }

    #[test]
    fn entropy_selection_costs_more_than_random_for_same_fraction() {
        let client = Client::new(0, client_dataset(40, 4));
        let model = global_model();
        let rds = quick_config().with_selection(SelectionStrategy::Random { fraction: 0.25 });
        let eds = quick_config().with_selection(SelectionStrategy::Entropy {
            fraction: 0.25,
            temperature: 0.1,
        });
        let rds_update = client.local_update(&model, &rds, 0).unwrap();
        let eds_update = client.local_update(&model, &eds, 0).unwrap();
        assert_eq!(rds_update.selected_samples, eds_update.selected_samples);
        assert!(
            eds_update.compute_seconds > rds_update.compute_seconds,
            "entropy selection must pay for its inference pass"
        );
    }

    #[test]
    fn fedprox_stays_closer_to_the_global_model_than_fedavg() {
        let client = Client::new(0, client_dataset(30, 5));
        let model = global_model();
        let theta0 = model.trainable_vector(FreezeLevel::Moderate);
        let fedavg = client.local_update(&model, &quick_config(), 0).unwrap();
        let fedprox_cfg = quick_config().with_algorithm(LocalAlgorithm::FedProx { mu: 10.0 });
        let fedprox = client.local_update(&model, &fedprox_cfg, 0).unwrap();
        let d_avg = fedavg.theta.distance_sq(&theta0).unwrap();
        let d_prox = fedprox.theta.distance_sq(&theta0).unwrap();
        assert!(
            d_prox < d_avg,
            "strong proximal term must keep θ closer to the global model ({d_prox} vs {d_avg})"
        );
    }

    #[test]
    fn cached_local_update_is_bit_identical_to_uncached() {
        let client = Client::new(0, client_dataset(40, 7));
        let model = global_model();
        for freeze in FreezeLevel::all() {
            for selection in [
                SelectionStrategy::All,
                SelectionStrategy::Random { fraction: 0.3 },
                SelectionStrategy::Entropy {
                    fraction: 0.3,
                    temperature: 0.1,
                },
            ] {
                let base = quick_config().with_freeze(freeze).with_selection(selection);
                let uncached = client.local_update(&model, &base, 0).unwrap();
                let cached_cfg = base.clone().with_feature_cache(true);
                // Run twice so both the cold (build) and warm (hit) paths
                // are exercised.
                let cold = client.local_update(&model, &cached_cfg, 0).unwrap();
                let warm = client.local_update(&model, &cached_cfg, 0).unwrap();
                assert_eq!(
                    uncached,
                    cold,
                    "freeze {freeze}, {}",
                    selection.short_name()
                );
                assert_eq!(
                    uncached,
                    warm,
                    "freeze {freeze}, {}",
                    selection.short_name()
                );
            }
        }
        assert!(!client.feature_cache().is_empty());
    }

    #[test]
    fn both_workload_accountings_are_reported() {
        let client = Client::new(0, client_dataset(30, 8));
        let model = global_model();
        // With a frozen prefix the cached accounting is strictly cheaper…
        let update = client.local_update(&model, &quick_config(), 0).unwrap();
        assert!(update.cached_compute_seconds < update.compute_seconds);
        // …and at FreezeLevel::Full the two coincide (nothing is frozen).
        let full = client
            .local_update(&model, &quick_config().with_freeze(FreezeLevel::Full), 0)
            .unwrap();
        assert_eq!(
            full.cached_compute_seconds.to_bits(),
            full.compute_seconds.to_bits()
        );
    }

    #[test]
    fn clients_sharing_a_shard_and_registry_produce_identical_updates() {
        use crate::cache::CacheRegistry;
        let shard = Arc::new(client_dataset(30, 9));
        let registry = CacheRegistry::new();
        let a = Client::from_shard(
            7,
            Arc::clone(&shard),
            FeatureCache::shared(registry.clone()),
        );
        let b = Client::from_shard(
            7,
            Arc::clone(&shard),
            FeatureCache::shared(registry.clone()),
        );
        assert!(Arc::ptr_eq(a.shard(), b.shard()), "one copy of the data");
        let model = global_model();
        let config =
            quick_config()
                .with_feature_cache(true)
                .with_selection(SelectionStrategy::Entropy {
                    fraction: 0.5,
                    temperature: 0.1,
                });
        let ua = a.local_update(&model, &config, 0).unwrap();
        let ub = b.local_update(&model, &config, 0).unwrap();
        assert_eq!(ua, ub, "same id, shard and model ⇒ same update");
        let stats = registry.stats();
        assert_eq!(stats.misses, 1, "the second client hits the shared entry");
        assert!(stats.hits >= 1);
    }

    /// Loss and gradient-norm scores read the labels, which the boundary
    /// key does not cover: two shards equal in features share one boundary,
    /// and must not share those scores.
    #[test]
    fn shards_equal_in_features_keep_their_own_label_dependent_scores() {
        use crate::cache::CacheRegistry;
        let shard_a = client_dataset(30, 9);
        let relabelled: Vec<usize> = shard_a.labels().iter().map(|&y| (y + 1) % 3).collect();
        let shard_b = Dataset::new(shard_a.features().clone(), relabelled, 3).unwrap();
        let model = global_model();
        for selection in [
            SelectionStrategy::LossProportional { fraction: 0.3 },
            SelectionStrategy::GradientNorm { fraction: 0.3 },
        ] {
            let config = quick_config()
                .with_feature_cache(true)
                .with_selection(selection);
            let registry = CacheRegistry::new();
            let shared = |shard: &Dataset| {
                Client::from_shard(
                    7,
                    Arc::new(shard.clone()),
                    FeatureCache::shared(registry.clone()),
                )
            };
            let (a, b) = (shared(&shard_a), shared(&shard_b));
            for round in 0..2 {
                a.local_update(&model, &config, round).unwrap();
                let after_a = b.local_update(&model, &config, round).unwrap();
                let alone = Client::new(7, shard_b.clone())
                    .local_update(&model, &config, round)
                    .unwrap();
                assert_eq!(after_a, alone, "{}, round {round}", selection.short_name());
            }
            assert_eq!(registry.stats().misses, 1, "one boundary for both shards");
            let scores = registry.score_stats();
            assert_eq!((scores.served, scores.computed, scores.slots), (2, 2, 2));
        }
    }

    #[test]
    fn classifier_only_update_is_cheaper_than_full_update() {
        let client = Client::new(0, client_dataset(30, 6));
        let model = global_model();
        let full_cfg = quick_config().with_freeze(FreezeLevel::Full);
        let head_cfg = quick_config().with_freeze(FreezeLevel::Classifier);
        let full = client.local_update(&model, &full_cfg, 0).unwrap();
        let head = client.local_update(&model, &head_cfg, 0).unwrap();
        assert!(head.compute_seconds < full.compute_seconds);
        assert!(head.theta.len() < full.theta.len());
    }
}
