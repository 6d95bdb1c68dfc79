//! The synchronous federated-learning round loop (paper Algorithm 1) and
//! the logical client pool it trains.

use crate::cache::{CacheRegistry, CacheStats, FeatureCache};
use crate::client::{Client, KeyedShard};
use crate::config::{check_logical_clients, FlConfig};
use crate::metrics::{RoundRecord, RunResult};
use crate::participation::ParticipationModel;
use crate::server::Server;
use crate::{FlError, Result};
use fedft_data::{Dataset, FederatedDataset};
use fedft_nn::BlockNet;
use fedft_tensor::Matrix;
use std::sync::Arc;

/// The run's client population: `N` logical clients mapped onto the
/// federated dataset's `M` physical shards (logical client `i` holds shard
/// `i % M`), each distinct shard held **once** behind an `Arc`.
///
/// With [`FlConfig::logical_clients`] unset this is exactly one client per
/// shard, as before. With `N ≫ M` it simulates a large cohort over a small
/// corpus — the regime where a cache per client would multiply the same
/// boundary activations `N/M` times. The pool therefore hands every client
/// a handle onto **one** [`CacheRegistry`] (budgeted by
/// [`FlConfig::cache_budget_bytes`]), so cache memory scales with `M`.
#[derive(Debug, Clone)]
pub struct ClientPool {
    clients: Vec<Client>,
    registry: CacheRegistry,
}

impl ClientPool {
    /// Builds the pool described by `config` over `data`'s shards.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::InvalidConfig`] for zero logical clients or more
    /// than [`crate::config::MAX_LOGICAL_CLIENTS`] — re-checked here, before
    /// anything is allocated, so a pool built without [`FlConfig::validate`]
    /// errs.
    pub fn build(data: &FederatedDataset, config: &FlConfig) -> Result<ClientPool> {
        let physical_shards = data.num_clients();
        let logical = config.logical_clients.unwrap_or(physical_shards);
        check_logical_clients(logical)?;
        let registry = CacheRegistry::with_budget(config.cache_budget_bytes);
        // Keyed here, once per physical shard, for every logical client of it.
        let shards: Vec<Arc<KeyedShard>> = data
            .clients()
            .iter()
            .map(|shard| KeyedShard::new(Arc::new(shard.clone())))
            .collect();
        let clients = (0..logical)
            .map(|id| {
                Client::from_keyed_shard(
                    id,
                    Arc::clone(&shards[id % physical_shards]),
                    FeatureCache::shared(registry.clone()),
                )
            })
            .collect();
        Ok(ClientPool { clients, registry })
    }

    /// The pool's clients, in logical-id order.
    pub fn clients(&self) -> &[Client] {
        &self.clients
    }

    /// The counters of the registry every client of the pool shares.
    pub fn cache_stats(&self) -> CacheStats {
        self.registry.stats()
    }
}

/// Runs a complete federated-learning simulation.
///
/// The simulation owns a validated [`FlConfig`]; [`Simulation::run`] takes
/// the federated dataset and the initial global model (pretrained or not) and
/// returns the per-round history.
#[derive(Debug, Clone)]
pub struct Simulation {
    config: FlConfig,
}

impl Simulation {
    /// Creates a simulation after validating the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::InvalidConfig`] when the configuration is invalid.
    pub fn new(config: FlConfig) -> Result<Self> {
        config.validate()?;
        Ok(Simulation { config })
    }

    /// The simulation configuration.
    pub fn config(&self) -> &FlConfig {
        &self.config
    }

    /// Runs the simulation with a descriptive label attached to the result.
    ///
    /// # Errors
    ///
    /// Returns an error if any round fails (empty client shard, model/shape
    /// mismatch, no participants).
    pub fn run_labelled(
        &self,
        label: impl Into<String>,
        data: &FederatedDataset,
        initial_model: &BlockNet,
    ) -> Result<RunResult> {
        let label = label.into();
        let test = data.test();
        if test.is_empty() {
            return Err(FlError::InvalidConfig {
                what: "the federated dataset has an empty test set".into(),
            });
        }
        if test.feature_dim() != initial_model.input_dim() {
            return Err(FlError::InvalidConfig {
                what: format!(
                    "test set feature dim {} does not match model input dim {}",
                    test.feature_dim(),
                    initial_model.input_dim()
                ),
            });
        }
        for (k, shard) in data.clients().iter().enumerate() {
            if shard.is_empty() {
                return Err(FlError::InvalidConfig {
                    what: format!("client {k} has an empty data shard"),
                });
            }
            if shard.feature_dim() != initial_model.input_dim() {
                return Err(FlError::InvalidConfig {
                    what: format!(
                        "client {k} feature dim {} does not match model input dim {}",
                        shard.feature_dim(),
                        initial_model.input_dim()
                    ),
                });
            }
        }

        let pool = ClientPool::build(data, &self.config)?;
        let clients = pool.clients();
        let participation = ParticipationModel::new(self.config.participation)?;
        let server = Server::new();
        let executor = self
            .config
            .execution
            .executor_with_workers(self.config.worker_threads);

        let mut global_model = initial_model.clone();
        let mut rounds = Vec::with_capacity(self.config.rounds);
        let mut cumulative_seconds = 0.0_f64;
        let mut cumulative_seconds_cached = 0.0_f64;
        let mut cumulative_wall = 0.0_f64;
        let hetero = &self.config.heterogeneity;
        // Device profiles are fixed for the whole run by (seed, client id).
        let profiles: Vec<_> = (0..clients.len())
            .map(|id| hetero.profile_for(id, self.config.seed))
            .collect();
        // Resolve the client-selection policy once: its weights (tier
        // compute, shard label histograms) are fixed for the whole run.
        let tier_compute: Vec<f64> = profiles.iter().map(|p| p.tier.compute).collect();
        let shards: Vec<Arc<Dataset>> = clients.iter().map(|c| Arc::clone(c.shard())).collect();
        let client_selection = self.config.client_selection.policy(&tier_compute, &shards);
        let mut cache_stats_before = pool.cache_stats();
        // ϕ(x_test), once: aggregation only ever writes the blocks above
        // `config.freeze` (validation keeps every `tier_freeze` entry at
        // least that deep), so the test set's boundary activations are
        // fixed for the run and each round evaluates the suffix on them.
        // With no frozen prefix the boundary is the test features themselves.
        let frozen_test: Matrix;
        let test_boundary: &Matrix = if self.config.freeze.frozen_blocks() == 0 {
            test.features()
        } else {
            frozen_test = global_model.forward_frozen(self.config.freeze, test.features())?;
            &frozen_test
        };

        for round in 0..self.config.rounds {
            let participant_ids =
                client_selection.sample_round(&participation, round, self.config.seed);
            let participants: Vec<&Client> =
                participant_ids.iter().map(|&id| &clients[id]).collect();
            let mut outcome =
                executor.run_round(&participants, &global_model, &self.config, round)?;
            let update_staleness = outcome.update_staleness();
            // Every backend reports its own simulated wall clock: the gap
            // between consecutive aggregations — on a synchronous backend the
            // slowest survivor, or the deadline when someone dropped.
            let timing = outcome.timing.take().unwrap_or_default();
            let updates = &outcome.updates;

            if !updates.is_empty() {
                // One weight rule for every backend: at staleness 0 (every
                // synchronous backend, and event ones that kept up) its
                // discounts are all 1, so this is bit-identical to the
                // pre-async aggregation whenever no update is stale; a
                // streaming flush is a batch of stale updates like any
                // other.
                let theta = if self.config.tier_freeze.is_some() {
                    // Per-tier freezes upload θ vectors of differing length;
                    // align each as a suffix of the global θ. (Validation
                    // confines tier_freeze to synchronous backends, where
                    // every update is fresh.)
                    let current = global_model.trainable_vector(self.config.freeze);
                    server.aggregate_mixed(updates, &current, round)?
                } else {
                    server.aggregate_stale(updates, &update_staleness, round)?
                };
                global_model.set_trainable_vector(self.config.freeze, &theta)?;
            }
            // An all-dropped round (every sampled device offline or past the
            // deadline) leaves the global model unchanged but is still a
            // round: the server waited for it.

            let test_eval =
                global_model.evaluate_from(self.config.freeze, test_boundary, test.labels())?;
            let round_client_seconds: f64 = updates.iter().map(|u| u.compute_seconds).sum();
            cumulative_seconds += round_client_seconds;
            let round_client_seconds_cached: f64 =
                updates.iter().map(|u| u.cached_compute_seconds).sum();
            cumulative_seconds_cached += round_client_seconds_cached;
            let mean_train_loss =
                updates.iter().map(|u| u.train_loss).sum::<f32>() / updates.len().max(1) as f32;
            let selected_samples = updates.iter().map(|u| u.selected_samples).sum();

            let mut tier_participants = vec![0usize; hetero.num_tiers()];
            for update in updates {
                tier_participants[profiles[update.client_id].tier_index] += 1;
            }
            cumulative_wall += timing.round_wall_seconds;
            // Cache activity of this round: monotone counters differenced
            // against the previous snapshot, the peak read as-is (it is a
            // running maximum, so per-round peaks are monotone too).
            let cache_stats = pool.cache_stats();
            let cache_round = cache_stats.delta_since(&cache_stats_before);
            cache_stats_before = cache_stats;

            rounds.push(RoundRecord {
                round: round + 1,
                test_accuracy: test_eval.accuracy,
                test_loss: test_eval.loss,
                mean_train_loss,
                participants: updates.len(),
                dropped_clients: outcome.dropped(),
                tier_participants,
                selected_samples,
                update_staleness,
                round_client_seconds,
                cumulative_client_seconds: cumulative_seconds,
                round_client_seconds_cached,
                cumulative_client_seconds_cached: cumulative_seconds_cached,
                round_wall_seconds: timing.round_wall_seconds,
                cumulative_wall_seconds: cumulative_wall,
                cache_hits: cache_round.hits,
                cache_misses: cache_round.misses,
                cache_evictions: cache_round.evictions,
                cache_peak_bytes: cache_round.peak_bytes,
                flush: timing.flush,
            });
            // The round is on record: its uploads carry the next one's.
            executor.recycle(outcome.updates);
        }
        Ok(RunResult::new(label, rounds))
    }

    /// Runs the simulation with an automatically generated label.
    ///
    /// # Errors
    ///
    /// See [`Simulation::run_labelled`].
    pub fn run(&self, data: &FederatedDataset, initial_model: &BlockNet) -> Result<RunResult> {
        let label = format!(
            "{}-{}-{}",
            self.config.algorithm.short_name(),
            self.config.selection.short_name(),
            self.config.freeze
        );
        self.run_labelled(label, data, initial_model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::ExecutionBackend;
    use crate::methods::Method;
    use crate::selection::SelectionStrategy;
    use fedft_data::federated::PartitionScheme;
    use fedft_data::{domains, Dataset};
    use fedft_nn::BlockNetConfig;

    fn tiny_setup(num_clients: usize) -> (FederatedDataset, BlockNet) {
        let bundle = domains::cifar10_like()
            .with_samples_per_class(12)
            .with_test_samples_per_class(4)
            .generate(5)
            .unwrap();
        let fed = FederatedDataset::partition(
            &bundle.train,
            bundle.test.clone(),
            num_clients,
            PartitionScheme::Dirichlet { alpha: 0.5 },
            7,
        )
        .unwrap();
        let model_cfg = BlockNetConfig::new(bundle.train.feature_dim(), 10).with_hidden(16, 16, 16);
        let model = BlockNet::new(&model_cfg, 3);
        (fed, model)
    }

    fn quick_config(rounds: usize) -> FlConfig {
        FlConfig::default()
            .with_rounds(rounds)
            .with_local_epochs(1)
            .with_batch_size(16)
            .serial()
    }

    #[test]
    fn a_pool_above_the_logical_bound_is_refused_before_it_is_allocated() {
        let (fed, _) = tiny_setup(3);
        for n in [1_000_000_000, usize::MAX] {
            // Unvalidated: the pool's own check is what stops it.
            let config = quick_config(1).with_logical_clients(n);
            assert!(
                matches!(
                    ClientPool::build(&fed, &config),
                    Err(FlError::InvalidConfig { .. })
                ),
                "{n} logical clients"
            );
        }
    }

    #[test]
    fn client_pool_maps_logical_clients_onto_shards_round_robin() {
        let (fed, _) = tiny_setup(3);
        let config = quick_config(1)
            .with_logical_clients(10)
            .with_feature_cache(true);
        let pool = ClientPool::build(&fed, &config).unwrap();
        assert_eq!(pool.clients().len(), 10);
        for (i, client) in pool.clients().iter().enumerate() {
            assert_eq!(client.id(), i);
            // Logical client i holds shard i % 3 — the *same allocation*,
            // not a copy.
            assert!(std::sync::Arc::ptr_eq(
                client.shard(),
                pool.clients()[i % 3].shard()
            ));
        }
        // Every client reads one registry.
        let a = pool.clients()[0].feature_cache().registry().clone();
        let stats_before = pool.cache_stats();
        assert_eq!(stats_before, a.stats());

        // Without the knob the pool is one client per shard.
        let plain = ClientPool::build(&fed, &quick_config(1)).unwrap();
        assert_eq!(plain.clients().len(), 3);
    }

    /// The pool's budget is the registry's, whole: a boundary that fills it
    /// exactly is kept, on any host, even with other shards in the pool.
    #[test]
    fn a_budget_the_largest_boundary_fills_exactly_keeps_that_boundary() {
        use fedft_nn::FreezeLevel;
        let (fed, model) = tiny_setup(4);
        let freeze = FreezeLevel::Moderate;
        let largest = (0..4).max_by_key(|&i| fed.clients()[i].len()).unwrap();
        let features = fed.clients()[largest].features();
        let boundary = model.forward_frozen(freeze, features).unwrap();
        let budget = boundary.rows() * boundary.cols() * std::mem::size_of::<f32>();
        let config = quick_config(1)
            .with_feature_cache(true)
            .with_cache_budget(budget);
        let pool = ClientPool::build(&fed, &config).unwrap();
        let cache = pool.clients()[largest].feature_cache();
        for _ in 0..2 {
            let served = cache.get_or_build(&model, freeze, features).unwrap();
            assert_eq!(*served, boundary);
        }
        let stats = pool.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.peak_bytes, budget);
    }

    /// The score tier's `computed` count is exact on every synchronous
    /// backend: one scoring pass per distinct (shard, model version, freeze
    /// level) a round trains, however many logical clients share each, and
    /// one boundary build per (shard, freeze level). `Sequential` trains the
    /// clients of a shard one after another; the pooled backends hand them
    /// to one runner, as long as the shard fits one unit.
    #[test]
    fn a_round_scores_each_shard_once_per_model_version_and_freeze_level() {
        use crate::device::HeterogeneityModel;
        use fedft_nn::FreezeLevel;
        use std::collections::HashSet;
        let (fed, model) = tiny_setup(3);
        let plain = Method::FedFtEds { pds: 0.5 }
            .configure(quick_config(1))
            .with_logical_clients(12)
            .with_feature_cache(true);
        let tiered = plain
            .clone()
            .with_heterogeneity(HeterogeneityModel::two_tier())
            .with_freeze(FreezeLevel::Large)
            .with_tier_freeze(vec![FreezeLevel::Large, FreezeLevel::Classifier]);
        tiered.validate().unwrap();
        let backends = [
            (ExecutionBackend::Sequential, None),
            (ExecutionBackend::Parallel, Some(2)),
            (ExecutionBackend::Deadline, Some(2)),
        ];
        for config in [plain, tiered] {
            for (backend, cap) in backends {
                let pool = ClientPool::build(&fed, &config).unwrap();
                let executor = backend.executor_with_workers(cap);
                // Six logical clients over three shards, two each: at two
                // workers a unit holds up to ⌈6 / 4⌉ = 2 clients, so no shard
                // is cut into two units that could both build and score it.
                let n = 6;
                let cohort: Vec<&Client> = pool.clients()[..n].iter().collect();
                let per_round = cohort
                    .iter()
                    .map(|c| (c.id() % 3, config.freeze_for_client(c.id())))
                    .collect::<HashSet<_>>()
                    .len();
                let levels = if config.tier_freeze.is_some() { 2 } else { 1 };
                assert!(per_round >= 3 * levels - 1, "the cohort mixes levels");
                let registry = pool.clients()[0].feature_cache().registry();
                let stats = || registry.score_stats();

                executor.run_round(&cohort, &model, &config, 0).unwrap();
                assert_eq!(
                    (stats().computed, stats().served),
                    (per_round, n - per_round),
                    "{backend:?}"
                );
                // The same version again, through a clone: nothing to compute.
                let same = model.clone();
                executor.run_round(&cohort, &same, &config, 1).unwrap();
                assert_eq!(
                    (stats().computed, stats().served),
                    (per_round, 2 * n - per_round),
                    "{backend:?}"
                );
                // A θ write is a new version.
                let mut next = model.clone();
                let theta = next.trainable_vector(config.freeze);
                next.set_trainable_vector(config.freeze, &theta).unwrap();
                executor.run_round(&cohort, &next, &config, 2).unwrap();
                assert_eq!(stats().computed, 2 * per_round, "{backend:?}");
                assert_eq!(stats().slots, per_round, "overwritten in place");
                // The backbone never changed: one build per shard and level,
                // on a registry that never evicts.
                assert_eq!(registry.stats().misses, per_round, "{backend:?}");
            }
        }
    }

    #[test]
    fn logical_pool_run_scales_participants_independently_of_shards() {
        let (fed, model) = tiny_setup(3);
        let config = quick_config(2)
            .with_logical_clients(12)
            .with_participation(0.5)
            .with_feature_cache(true);
        let result = Simulation::new(config).unwrap().run(&fed, &model).unwrap();
        // 50% of 12 logical clients, although only 3 physical shards exist.
        assert!(result.rounds.iter().all(|r| r.participants == 6));
        assert!(
            result.total_cache_misses() <= 3,
            "at most one build per shard"
        );
        assert!(result.total_cache_hits() > 0);
        assert!(result.peak_cache_bytes() > 0);
    }

    #[test]
    fn run_produces_one_record_per_round() {
        let (fed, model) = tiny_setup(4);
        let sim = Simulation::new(quick_config(3)).unwrap();
        let result = sim.run(&fed, &model).unwrap();
        assert_eq!(result.rounds.len(), 3);
        assert!(result.rounds.iter().all(|r| r.participants == 4));
        assert!(result.total_client_seconds() > 0.0);
        assert!(result
            .rounds
            .windows(2)
            .all(|w| w[0].round + 1 == w[1].round));
        assert!(result
            .rounds
            .windows(2)
            .all(|w| w[1].cumulative_client_seconds >= w[0].cumulative_client_seconds));
    }

    #[test]
    fn parallel_and_serial_runs_are_identical() {
        let (fed, model) = tiny_setup(4);
        let serial = Simulation::new(quick_config(2))
            .unwrap()
            .run(&fed, &model)
            .unwrap();
        let parallel_cfg = quick_config(2).with_execution(ExecutionBackend::Parallel);
        let parallel = Simulation::new(parallel_cfg)
            .unwrap()
            .run(&fed, &model)
            .unwrap();
        assert_eq!(serial.rounds, parallel.rounds);
        assert_eq!(serial.label, parallel.label);
    }

    #[test]
    fn runs_are_deterministic_in_the_seed() {
        let (fed, model) = tiny_setup(3);
        let a = Simulation::new(quick_config(2).with_seed(1))
            .unwrap()
            .run(&fed, &model)
            .unwrap();
        let b = Simulation::new(quick_config(2).with_seed(1))
            .unwrap()
            .run(&fed, &model)
            .unwrap();
        let c = Simulation::new(quick_config(2).with_seed(2))
            .unwrap()
            .run(&fed, &model)
            .unwrap();
        assert_eq!(a.rounds, b.rounds);
        assert_ne!(a.rounds, c.rounds);
    }

    #[test]
    fn wall_clock_and_tier_metrics_are_recorded() {
        let (fed, model) = tiny_setup(4);
        let sim = Simulation::new(quick_config(2)).unwrap();
        let result = sim.run(&fed, &model).unwrap();
        for r in &result.rounds {
            // Uniform model, one tier: everyone is in tier 0 and no one drops.
            assert_eq!(r.tier_participants, vec![r.participants]);
            assert_eq!(r.dropped_clients, 0);
            // Wall clock is the slowest client plus transfer time, so it is
            // positive yet below the summed per-client compute seconds for
            // multi-client rounds with negligible traffic.
            assert!(r.round_wall_seconds > 0.0);
        }
        assert!(result
            .rounds
            .windows(2)
            .all(|w| w[1].cumulative_wall_seconds > w[0].cumulative_wall_seconds));
        assert_eq!(result.total_dropped_clients(), 0);
        assert!((result.mean_participants() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn deadline_backend_with_neutral_knobs_matches_sequential_history() {
        let (fed, model) = tiny_setup(5);
        let sequential = Simulation::new(quick_config(2))
            .unwrap()
            .run(&fed, &model)
            .unwrap();
        let deadline = Simulation::new(quick_config(2).with_execution(ExecutionBackend::Deadline))
            .unwrap()
            .run(&fed, &model)
            .unwrap();
        assert_eq!(sequential.rounds, deadline.rounds);
    }

    #[test]
    fn impossible_deadline_yields_empty_rounds_not_errors() {
        let (fed, model) = tiny_setup(3);
        let config = quick_config(2)
            .with_execution(ExecutionBackend::Deadline)
            .with_deadline(1e-12);
        let result = Simulation::new(config).unwrap().run(&fed, &model).unwrap();
        assert_eq!(result.rounds.len(), 2);
        for r in &result.rounds {
            assert_eq!(r.participants, 0);
            assert_eq!(r.dropped_clients, 3);
            assert_eq!(r.round_wall_seconds, 1e-12);
            assert_eq!(r.selected_samples, 0);
        }
        // The global model never moved, so accuracy equals the initial one.
        let initial = model
            .clone()
            .evaluate_accuracy(fed.test().features(), fed.test().labels())
            .unwrap();
        assert_eq!(result.rounds[0].test_accuracy, initial);
    }

    #[test]
    fn async_zero_staleness_matches_sequential_history() {
        let (fed, model) = tiny_setup(5);
        let sequential = Simulation::new(quick_config(3))
            .unwrap()
            .run(&fed, &model)
            .unwrap();
        let zero = Simulation::new(quick_config(3).with_async(0))
            .unwrap()
            .run(&fed, &model)
            .unwrap();
        assert_eq!(sequential.rounds, zero.rounds);
        assert_eq!(sequential.label, zero.label);
        assert_eq!(zero.max_update_staleness(), 0);
    }

    #[test]
    fn async_records_bounded_staleness_with_partial_participation() {
        let (fed, model) = tiny_setup(8);
        let config = quick_config(4)
            .with_participation(0.5)
            .with_heterogeneity(crate::device::HeterogeneityModel::two_tier())
            .with_async(2);
        let result = Simulation::new(config).unwrap().run(&fed, &model).unwrap();
        for r in &result.rounds {
            assert_eq!(r.update_staleness.len(), r.participants);
            assert!(r.update_staleness.iter().all(|&s| s <= 2));
        }
        assert!(result.max_update_staleness() <= 2);
    }

    #[test]
    fn an_unbounded_staleness_bound_is_a_bound_of_the_run_length() {
        let (fed, model) = tiny_setup(6);
        let rounds = 4;
        let base = quick_config(rounds)
            .with_participation(0.5)
            .with_heterogeneity(crate::device::HeterogeneityModel::two_tier());
        let buffered = crate::StreamingParams::new(2);
        for (bounded, unbounded) in [
            (
                ExecutionBackend::Async {
                    max_staleness: rounds,
                },
                ExecutionBackend::Async {
                    max_staleness: usize::MAX,
                },
            ),
            (
                ExecutionBackend::Streaming(buffered.with_max_staleness(rounds)),
                ExecutionBackend::Streaming(buffered.with_max_staleness(usize::MAX)),
            ),
        ] {
            let run = |backend| {
                Simulation::new(base.clone().with_execution(backend))
                    .unwrap()
                    .run(&fed, &model)
                    .unwrap()
            };
            let reference = run(bounded);
            assert!(reference.stale_update_count() > 0, "{bounded:?}");
            assert_eq!(
                run(unbounded).learning_history(),
                reference.learning_history(),
                "{unbounded:?}"
            );
        }
    }

    #[test]
    fn partial_participation_uses_fewer_clients() {
        let (fed, model) = tiny_setup(8);
        let sim = Simulation::new(quick_config(2).with_participation(0.25)).unwrap();
        let result = sim.run(&fed, &model).unwrap();
        assert!(result.rounds.iter().all(|r| r.participants == 2));
    }

    #[test]
    fn federated_training_improves_over_the_initial_model() {
        let (fed, mut model) = tiny_setup(4);
        let initial_acc = model
            .evaluate_accuracy(fed.test().features(), fed.test().labels())
            .unwrap();
        let config = Method::FedFtEds { pds: 0.5 }.configure(quick_config(10).with_local_epochs(2));
        let result = Simulation::new(config).unwrap().run(&fed, &model).unwrap();
        assert!(
            result.best_accuracy() > initial_acc,
            "FL did not improve over the initial model: {} vs {initial_acc}",
            result.best_accuracy()
        );
    }

    #[test]
    fn selection_strategy_reduces_selected_samples() {
        let (fed, model) = tiny_setup(4);
        let all = Simulation::new(quick_config(1))
            .unwrap()
            .run(&fed, &model)
            .unwrap();
        let ten_percent = Simulation::new(
            quick_config(1).with_selection(SelectionStrategy::Random { fraction: 0.1 }),
        )
        .unwrap()
        .run(&fed, &model)
        .unwrap();
        assert!(ten_percent.rounds[0].selected_samples < all.rounds[0].selected_samples);
    }

    #[test]
    fn empty_shard_and_mismatched_model_are_rejected() {
        let (fed, model) = tiny_setup(3);
        // Model with the wrong input width.
        let bad_model = BlockNet::new(&BlockNetConfig::new(5, 10).with_hidden(8, 8, 8), 0);
        let sim = Simulation::new(quick_config(1)).unwrap();
        assert!(sim.run(&fed, &bad_model).is_err());

        // Dataset with an empty shard.
        let empty_shard = Dataset::empty(fed.test().feature_dim(), 10);
        let shards = vec![fed.client(0).clone(), empty_shard];
        let bad_fed = FederatedDataset::from_shards(shards, fed.test().clone()).unwrap();
        assert!(sim.run(&bad_fed, &model).is_err());
    }

    #[test]
    fn mismatched_test_set_is_rejected_before_any_round_runs() {
        let (fed, model) = tiny_setup(2);
        let narrow_test = Dataset::new(Matrix::zeros(4, 5), vec![0, 1, 2, 3], 10).unwrap();
        let bad_fed = FederatedDataset::from_shards(fed.clients().to_vec(), narrow_test).unwrap();
        let err = Simulation::new(quick_config(1))
            .unwrap()
            .run(&bad_fed, &model)
            .unwrap_err();
        assert!(
            matches!(&err, FlError::InvalidConfig { what } if what.contains("test set feature dim 5")),
            "expected a typed test-set error, got {err:?}"
        );
    }

    #[test]
    fn invalid_configurations_are_rejected_at_construction() {
        assert!(Simulation::new(quick_config(0)).is_err());
        assert!(Simulation::new(quick_config(1).with_participation(2.0)).is_err());
    }

    #[test]
    fn run_label_mentions_algorithm_and_selection() {
        let (fed, model) = tiny_setup(2);
        let config = Method::FedFtEds { pds: 0.5 }.configure(quick_config(1));
        let result = Simulation::new(config).unwrap().run(&fed, &model).unwrap();
        assert!(result.label.contains("eds"));
        assert!(result.label.contains("fedavg"));
    }
}
