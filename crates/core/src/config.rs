//! Simulation configuration.

use crate::device::HeterogeneityModel;
use crate::executor::{ExecutionBackend, StreamingParams};
use crate::policy::ClientSelection;
use crate::selection::SelectionStrategy;
use crate::{CostModel, FlError, Result};
use fedft_nn::flops::FlopsBreakdown;
use fedft_nn::{FreezeLevel, SgdConfig};
use serde::{Deserialize, Serialize};

/// The local objective optimised on clients.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LocalAlgorithm {
    /// Plain local SGD on the local loss (FedAvg-style local updates).
    FedAvg,
    /// FedProx: local loss plus a proximal term `μ/2‖w − w_global‖²` that
    /// keeps local updates close to the global model.
    FedProx {
        /// Proximal coefficient μ.
        mu: f32,
    },
}

impl LocalAlgorithm {
    /// Short name used in reports.
    pub fn short_name(&self) -> &'static str {
        match self {
            LocalAlgorithm::FedAvg => "fedavg",
            LocalAlgorithm::FedProx { .. } => "fedprox",
        }
    }
}

/// Full configuration of one federated-learning simulation run.
///
/// Defaults follow the paper's experimental setup: 50 rounds, `E = 5` local
/// epochs, SGD with learning rate 0.1 and momentum 0.5, the upper part of the
/// model trainable (`FreezeLevel::Moderate`), full client participation, and
/// no data selection (plain FedAvg). Use [`crate::Method`] to obtain the
/// configuration of each named method in the paper.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlConfig {
    /// Number of communication rounds `T`.
    pub rounds: usize,
    /// Local update epochs `E` per round.
    pub local_epochs: usize,
    /// Mini-batch size for local updates.
    pub batch_size: usize,
    /// Local optimiser hyper-parameters.
    pub sgd: SgdConfig,
    /// Which part of the model clients train.
    pub freeze: FreezeLevel,
    /// Local data selection strategy.
    pub selection: SelectionStrategy,
    /// Local objective (FedAvg or FedProx).
    pub algorithm: LocalAlgorithm,
    /// Fraction of the client pool that participates each round
    /// (`fn` in the paper's straggler experiments). `1.0` means full
    /// participation.
    pub participation: f64,
    /// How the participating subset is *chosen* when `participation < 1`:
    /// uniformly (the default, bit-identical to the pre-policy behaviour on
    /// the `"participation"` stream) or weighted, each rule on its own named
    /// stream ([`crate::ClientSampler::Weighted`]).
    pub client_selection: ClientSelection,
    /// Optional per-tier freeze levels, indexed like
    /// [`HeterogeneityModel::tiers`]: clients in tier `t` train at
    /// `tier_freeze[t]` instead of the global [`FlConfig::freeze`], so slow
    /// tiers can carry a smaller θ. Every entry must freeze **at least** as
    /// many blocks as the global level — each tier's parameter vector is
    /// then a suffix of the global θ, which is what makes mixed-freeze
    /// aggregation ([`crate::Server::aggregate_mixed`]) well-defined. `None`
    /// (the default) trains every tier at the global level. Rejected in
    /// combination with the async/streaming backends, whose staleness
    /// snapshots assume one uniform θ layout.
    pub tier_freeze: Option<Vec<FreezeLevel>>,
    /// Cost model converting work to simulated client seconds.
    pub cost: CostModel,
    /// Device-heterogeneity model of the client population: tiers with
    /// compute/network multipliers and per-round availability. The default
    /// is a single nominal tier (no heterogeneity). Used for the simulated
    /// wall-clock accounting on every backend and for straggler scheduling
    /// by [`ExecutionBackend::Deadline`].
    pub heterogeneity: HeterogeneityModel,
    /// Synchronous round deadline in simulated seconds. Clients whose
    /// predicted round time exceeds it are dropped by
    /// [`ExecutionBackend::Deadline`]; `f64::INFINITY` (the default)
    /// disables deadline drops.
    pub deadline_seconds: f64,
    /// Serve frozen-prefix boundary activations from a
    /// [`crate::cache::FeatureCache`] instead of re-running the frozen
    /// blocks on every batch, epoch, round and selection pass.
    ///
    /// The cache is a *simulator* optimisation: run histories are
    /// bit-identical with the knob on or off (same kernels on the same
    /// inputs — pinned by `tests/feature_cache_e2e.rs`), and the simulated
    /// cost accounting always reports both the paper-faithful and the
    /// cached workload regardless of this setting. Off by default so the
    /// executed work mirrors the paper's device workload; turn it on to
    /// scale the client pool. Has no effect at [`FreezeLevel::Full`]
    /// (there is no frozen prefix to cache).
    ///
    /// Every client of a run holds a handle onto one run-wide
    /// [`crate::cache::CacheRegistry`], so logical clients holding the same
    /// shard share one entry and cache memory scales with distinct shards.
    pub feature_cache: bool,
    /// Byte budget of the shared [`crate::cache::CacheRegistry`], enforced
    /// by least-recently-used eviction: peak cache bytes never exceed it,
    /// at the price of rebuilding evicted entries on their next access
    /// (results are unchanged — eviction only forces recomputation of the
    /// same values). `None` (the default) means unbounded.
    pub cache_budget_bytes: Option<usize>,
    /// Size of the *logical* client pool: `Some(n)` simulates `n` clients
    /// mapped round-robin onto the federated dataset's physical shards
    /// (logical client `i` holds shard `i % num_shards`), so the simulated
    /// cohort size scales independently of data (and, with the shared
    /// cache registry, of memory). `None` (the default) runs one client
    /// per physical shard, exactly as before.
    pub logical_clients: Option<usize>,
    /// Master seed controlling every stochastic component of the run.
    pub seed: u64,
    /// How client updates are executed each round. `Sequential` and
    /// `Parallel` produce identical results and only affect wall-clock time
    /// of the simulation; `Deadline` additionally drops stragglers based on
    /// the heterogeneity model and deadline; `Async` overlaps rounds under a
    /// bounded-staleness discipline (and reduces to `Sequential` at
    /// `max_staleness = 0` when no tier has an offline probability);
    /// `Streaming` serves a continuous arrival process with FedBuff-style
    /// buffered flushes (and reduces to `Sequential` under its degenerate
    /// parameters — see [`ExecutionBackend::Streaming`]).
    pub execution: ExecutionBackend,
    /// Cap on the worker threads the round executor dispatches per round
    /// through the persistent pool ([`fedft_tensor::pool`]). `None` (the
    /// default) uses every hardware thread. The cap changes scheduling
    /// only, never results: the workers take the clients of one shard at a
    /// time and every update is put back at its participant position, so every
    /// backend is bit-identical at any cap. What does follow the schedule
    /// is the order of cache lookups, hence the hit/miss/eviction counters
    /// of a budgeted cache — which is why
    /// [`crate::RunResult::learning_history`] leaves them out.
    /// Ignored by [`ExecutionBackend::Sequential`]. Must be non-zero.
    pub worker_threads: Option<usize>,
}

impl Default for FlConfig {
    fn default() -> Self {
        FlConfig {
            rounds: 50,
            local_epochs: 5,
            batch_size: 32,
            sgd: SgdConfig::default(),
            freeze: FreezeLevel::Moderate,
            selection: SelectionStrategy::All,
            algorithm: LocalAlgorithm::FedAvg,
            participation: 1.0,
            client_selection: ClientSelection::Uniform,
            tier_freeze: None,
            cost: CostModel::default(),
            heterogeneity: HeterogeneityModel::uniform(),
            deadline_seconds: f64::INFINITY,
            feature_cache: false,
            cache_budget_bytes: None,
            logical_clients: None,
            seed: 0,
            execution: ExecutionBackend::Parallel,
            worker_threads: None,
        }
    }
}

impl FlConfig {
    /// Sets the number of communication rounds.
    pub fn with_rounds(mut self, rounds: usize) -> Self {
        self.rounds = rounds;
        self
    }

    /// Sets the number of local epochs.
    pub fn with_local_epochs(mut self, epochs: usize) -> Self {
        self.local_epochs = epochs;
        self
    }

    /// Sets the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the participation fraction.
    pub fn with_participation(mut self, participation: f64) -> Self {
        self.participation = participation;
        self
    }

    /// Sets the selection strategy.
    pub fn with_selection(mut self, selection: SelectionStrategy) -> Self {
        self.selection = selection;
        self
    }

    /// Sets the client-selection policy.
    pub fn with_client_selection(mut self, client_selection: ClientSelection) -> Self {
        self.client_selection = client_selection;
        self
    }

    /// Maps each device tier to its own freeze level (indexed like
    /// [`HeterogeneityModel::tiers`]).
    pub fn with_tier_freeze(mut self, tier_freeze: Vec<FreezeLevel>) -> Self {
        self.tier_freeze = Some(tier_freeze);
        self
    }

    /// Sets the freeze level.
    pub fn with_freeze(mut self, freeze: FreezeLevel) -> Self {
        self.freeze = freeze;
        self
    }

    /// Sets the local algorithm.
    pub fn with_algorithm(mut self, algorithm: LocalAlgorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Sets the batch size.
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size;
        self
    }

    /// Sets the device-heterogeneity model of the client population.
    pub fn with_heterogeneity(mut self, heterogeneity: HeterogeneityModel) -> Self {
        self.heterogeneity = heterogeneity;
        self
    }

    /// Sets the synchronous round deadline in simulated seconds
    /// (`f64::INFINITY` disables deadline drops).
    pub fn with_deadline(mut self, deadline_seconds: f64) -> Self {
        self.deadline_seconds = deadline_seconds;
        self
    }

    /// Enables or disables the frozen-feature cache.
    pub fn with_feature_cache(mut self, enabled: bool) -> Self {
        self.feature_cache = enabled;
        self
    }

    /// Caps the shared cache registry at `bytes`, enforced by LRU eviction.
    pub fn with_cache_budget(mut self, bytes: usize) -> Self {
        self.cache_budget_bytes = Some(bytes);
        self
    }

    /// Simulates a pool of `n` logical clients mapped round-robin onto the
    /// dataset's physical shards.
    pub fn with_logical_clients(mut self, n: usize) -> Self {
        self.logical_clients = Some(n);
        self
    }

    /// Selects the execution backend for client updates.
    pub fn with_execution(mut self, execution: ExecutionBackend) -> Self {
        self.execution = execution;
        self
    }

    /// Disables multi-threaded client updates
    /// (shorthand for [`ExecutionBackend::Sequential`]).
    pub fn serial(mut self) -> Self {
        self.execution = ExecutionBackend::Sequential;
        self
    }

    /// Selects asynchronous bounded-staleness execution
    /// (shorthand for [`ExecutionBackend::Async`]).
    pub fn with_async(mut self, max_staleness: usize) -> Self {
        self.execution = ExecutionBackend::Async { max_staleness };
        self
    }

    /// Selects streaming buffered execution
    /// (shorthand for [`ExecutionBackend::Streaming`]).
    pub fn with_streaming(mut self, params: StreamingParams) -> Self {
        self.execution = ExecutionBackend::Streaming(params);
        self
    }

    /// Caps the worker threads dispatched per round (must be non-zero).
    pub fn with_worker_threads(mut self, n: usize) -> Self {
        self.worker_threads = Some(n);
        self
    }

    /// The freeze level clients in tier `tier_index` train at: the per-tier
    /// override when [`FlConfig::tier_freeze`] is set, the global
    /// [`FlConfig::freeze`] otherwise (or for an out-of-range index).
    pub fn effective_freeze(&self, tier_index: usize) -> FreezeLevel {
        match &self.tier_freeze {
            Some(map) => map.get(tier_index).copied().unwrap_or(self.freeze),
            None => self.freeze,
        }
    }

    /// The freeze level `client_id` trains at, resolved through the
    /// heterogeneity model's deterministic tier assignment.
    ///
    /// Without per-tier freezes this returns [`FlConfig::freeze`] directly —
    /// no tier lookup, no RNG draw — so the default configuration's cost and
    /// history profile is untouched by the per-tier machinery.
    pub fn freeze_for_client(&self, client_id: usize) -> FreezeLevel {
        if self.tier_freeze.is_none() {
            return self.freeze;
        }
        let profile = self.heterogeneity.profile_for(client_id, self.seed);
        self.effective_freeze(profile.tier_index)
    }

    /// Simulated compute seconds of one client round over `local_samples`
    /// samples at the per-sample cost `flops`: the round trains on
    /// [`SelectionStrategy::selected_count`] of them for
    /// [`FlConfig::local_epochs`] epochs, plus the selection pass when the
    /// strategy needs one, priced by [`FlConfig::cost`].
    ///
    /// The one derivation of a round's work: the executor's admission-time
    /// prediction ([`crate::HeterogeneityModel::predicted_seconds_from_parts`])
    /// and the trained update's [`crate::ClientUpdate::compute_seconds`] and
    /// [`crate::ClientUpdate::cached_compute_seconds`] all call it, so a
    /// prediction is the duration by construction.
    pub fn client_compute_seconds(&self, flops: &FlopsBreakdown, local_samples: usize) -> f64 {
        self.cost.client_round_seconds(
            flops,
            local_samples,
            self.selection.selected_count(local_samples),
            self.local_epochs,
            self.selection.needs_inference_pass(),
        )
    }

    /// Validates the configuration, one concern at a time.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::InvalidConfig`] for zero rounds/epochs/batch size,
    /// a participation fraction outside `(0, 1]`, an invalid optimiser
    /// configuration, an invalid selection strategy, a non-positive FedProx
    /// μ, invalid execution knobs (non-positive deadline, bad streaming
    /// parameters, a zero worker-thread cap, or a finite deadline combined
    /// with the async or streaming backend — those replace deadline drops
    /// with their own scheduling), or
    /// invalid cache/pool knobs (zero logical clients, a zero byte budget).
    pub fn validate(&self) -> Result<()> {
        self.validate_round_loop()?;
        self.validate_population()?;
        self.validate_local_objective()?;
        self.validate_execution()?;
        self.validate_cache()?;
        self.validate_tier_freeze()?;
        self.sgd.validate().map_err(FlError::from)?;
        self.selection.validate()?;
        self.cost.validate()?;
        self.heterogeneity.validate()?;
        Ok(())
    }

    /// The round loop itself: rounds, local epochs, batch size.
    fn validate_round_loop(&self) -> Result<()> {
        if self.rounds == 0 {
            return Err(FlError::InvalidConfig {
                what: "rounds must be non-zero".into(),
            });
        }
        if self.local_epochs == 0 {
            return Err(FlError::InvalidConfig {
                what: "local_epochs must be non-zero".into(),
            });
        }
        if self.batch_size == 0 {
            return Err(FlError::InvalidConfig {
                what: "batch_size must be non-zero".into(),
            });
        }
        Ok(())
    }

    /// The client population: participation fraction and the logical pool.
    fn validate_population(&self) -> Result<()> {
        if !(self.participation > 0.0 && self.participation <= 1.0) {
            return Err(FlError::InvalidConfig {
                what: format!(
                    "participation must be in (0, 1], got {}",
                    self.participation
                ),
            });
        }
        if self.logical_clients == Some(0) {
            return Err(FlError::InvalidConfig {
                what: "logical_clients must be non-zero when set".into(),
            });
        }
        Ok(())
    }

    /// The local objective optimised on clients.
    fn validate_local_objective(&self) -> Result<()> {
        if let LocalAlgorithm::FedProx { mu } = self.algorithm {
            if !(mu.is_finite() && mu > 0.0) {
                return Err(FlError::InvalidConfig {
                    what: format!("FedProx mu must be positive, got {mu}"),
                });
            }
        }
        Ok(())
    }

    /// Execution scheduling: the deadline knob, per-backend parameters, and
    /// conflicting knob combinations.
    fn validate_execution(&self) -> Result<()> {
        if self.deadline_seconds.is_nan() || self.deadline_seconds <= 0.0 {
            return Err(FlError::InvalidConfig {
                what: format!(
                    "deadline_seconds must be positive (or infinite), got {}",
                    self.deadline_seconds
                ),
            });
        }
        // Deadlines are a synchronous concept: an event round never waits a
        // deadline out, it lets the straggler's update arrive stale.
        if matches!(
            self.execution,
            ExecutionBackend::Async { .. } | ExecutionBackend::Streaming(_)
        ) && self.deadline_seconds.is_finite()
        {
            return Err(FlError::InvalidConfig {
                what: format!(
                    "the {} backend replaces deadline drops with stale updates; \
                     leave deadline_seconds infinite (got {})",
                    self.execution.short_name(),
                    self.deadline_seconds
                ),
            });
        }
        if let ExecutionBackend::Streaming(params) = &self.execution {
            params.validate()?;
        }
        if self.worker_threads == Some(0) {
            return Err(FlError::InvalidConfig {
                what: "worker_threads must be non-zero when set \
                       (use the sequential backend to disable parallelism)"
                    .into(),
            });
        }
        Ok(())
    }

    /// Per-tier freeze levels: must align with the tier list, must only
    /// deepen the global freeze, and need a θ layout the backend preserves.
    fn validate_tier_freeze(&self) -> Result<()> {
        let Some(map) = &self.tier_freeze else {
            return Ok(());
        };
        let tiers = self.heterogeneity.num_tiers();
        if map.len() != tiers {
            return Err(FlError::InvalidConfig {
                what: format!(
                    "tier_freeze has {} entries but the heterogeneity model has {tiers} tiers",
                    map.len()
                ),
            });
        }
        for (tier, freeze) in map.iter().enumerate() {
            if freeze.frozen_blocks() < self.freeze.frozen_blocks() {
                return Err(FlError::InvalidConfig {
                    what: format!(
                        "tier_freeze[{tier}] = {freeze} trains more blocks than the global \
                         freeze {}; per-tier levels may only deepen the freeze so every \
                         tier's θ stays a suffix of the global θ",
                        self.freeze
                    ),
                });
            }
        }
        if matches!(
            self.execution,
            ExecutionBackend::Async { .. } | ExecutionBackend::Streaming(_)
        ) {
            return Err(FlError::InvalidConfig {
                what: "tier_freeze is not supported by the async/streaming backends: their \
                       staleness snapshots reconstruct models from one uniform θ layout"
                    .into(),
            });
        }
        Ok(())
    }

    /// The feature cache and its shared registry.
    fn validate_cache(&self) -> Result<()> {
        if self.cache_budget_bytes == Some(0) {
            return Err(FlError::InvalidConfig {
                what: "cache_budget_bytes must be non-zero when set \
                       (disable the cache instead of budgeting it to zero)"
                    .into(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_setup() {
        let c = FlConfig::default();
        assert_eq!(c.rounds, 50);
        assert_eq!(c.local_epochs, 5);
        assert_eq!(c.sgd.learning_rate, 0.1);
        assert_eq!(c.sgd.momentum, 0.5);
        assert_eq!(c.freeze, FreezeLevel::Moderate);
        assert_eq!(c.participation, 1.0);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builder_methods_apply() {
        let c = FlConfig::default()
            .with_rounds(7)
            .with_local_epochs(2)
            .with_seed(42)
            .with_participation(0.2)
            .with_batch_size(8)
            .with_freeze(FreezeLevel::Classifier)
            .with_algorithm(LocalAlgorithm::FedProx { mu: 0.01 })
            .with_selection(SelectionStrategy::Random { fraction: 0.1 })
            .serial();
        assert_eq!(c.rounds, 7);
        assert_eq!(c.local_epochs, 2);
        assert_eq!(c.seed, 42);
        assert_eq!(c.participation, 0.2);
        assert_eq!(c.batch_size, 8);
        assert_eq!(c.freeze, FreezeLevel::Classifier);
        assert_eq!(c.execution, ExecutionBackend::Sequential);
        assert!(c.validate().is_ok());
        let p = FlConfig::default().with_execution(ExecutionBackend::Parallel);
        assert_eq!(p.execution, ExecutionBackend::Parallel);
    }

    #[test]
    fn worker_threads_knob_defaults_to_auto_and_rejects_zero() {
        let c = FlConfig::default();
        assert_eq!(c.worker_threads, None);
        let capped = FlConfig::default().with_worker_threads(4);
        assert_eq!(capped.worker_threads, Some(4));
        assert!(capped.validate().is_ok());
        assert!(FlConfig::default()
            .with_worker_threads(0)
            .validate()
            .is_err());
    }

    #[test]
    fn validation_catches_bad_values() {
        assert!(FlConfig::default().with_rounds(0).validate().is_err());
        assert!(FlConfig::default().with_local_epochs(0).validate().is_err());
        assert!(FlConfig::default().with_batch_size(0).validate().is_err());
        assert!(FlConfig::default()
            .with_participation(0.0)
            .validate()
            .is_err());
        assert!(FlConfig::default()
            .with_participation(1.5)
            .validate()
            .is_err());
        assert!(FlConfig::default()
            .with_algorithm(LocalAlgorithm::FedProx { mu: 0.0 })
            .validate()
            .is_err());
        assert!(FlConfig::default()
            .with_selection(SelectionStrategy::Random { fraction: 0.0 })
            .validate()
            .is_err());
        let mut c = FlConfig::default();
        c.sgd.learning_rate = -1.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn heterogeneity_and_deadline_knobs_apply_and_validate() {
        let c = FlConfig::default();
        assert_eq!(c.heterogeneity, HeterogeneityModel::uniform());
        assert!(c.deadline_seconds.is_infinite());

        let c = FlConfig::default()
            .with_heterogeneity(HeterogeneityModel::two_tier())
            .with_deadline(12.5)
            .with_execution(ExecutionBackend::Deadline);
        assert_eq!(c.heterogeneity.num_tiers(), 2);
        assert_eq!(c.deadline_seconds, 12.5);
        assert_eq!(c.execution, ExecutionBackend::Deadline);
        assert!(c.validate().is_ok());

        assert!(FlConfig::default().with_deadline(0.0).validate().is_err());
        assert!(FlConfig::default().with_deadline(-1.0).validate().is_err());
        assert!(FlConfig::default()
            .with_deadline(f64::NAN)
            .validate()
            .is_err());
        assert!(FlConfig::default()
            .with_heterogeneity(HeterogeneityModel::from_tiers(vec![]))
            .validate()
            .is_err());
    }

    #[test]
    fn async_backend_knob_applies_and_validates() {
        let c = FlConfig::default().with_async(3);
        assert_eq!(c.execution, ExecutionBackend::Async { max_staleness: 3 });
        assert!(c.validate().is_ok());
        // max_staleness = 0 is the synchronous degenerate case, still valid.
        assert!(FlConfig::default().with_async(0).validate().is_ok());
        // Deadlines are a synchronous concept: rejected under async.
        assert!(FlConfig::default()
            .with_async(2)
            .with_deadline(10.0)
            .validate()
            .is_err());
        assert!(FlConfig::default()
            .with_async(2)
            .with_deadline(f64::INFINITY)
            .validate()
            .is_ok());
    }

    #[test]
    fn streaming_backend_knob_applies_and_validates() {
        use crate::device::ArrivalModel;
        let params = StreamingParams::new(32)
            .with_flush_seconds(60.0)
            .with_max_staleness(2)
            .with_arrival(ArrivalModel::Burst {
                mean_offset_seconds: 10.0,
            });
        let c = FlConfig::default().with_streaming(params);
        assert_eq!(c.execution, ExecutionBackend::Streaming(params));
        assert!(c.validate().is_ok());
        // The degenerate configuration (K buffer, steady, staleness 0) is
        // valid — it is the bit-identity contract's anchor.
        assert!(FlConfig::default()
            .with_streaming(StreamingParams::new(8))
            .validate()
            .is_ok());
        // Bad streaming parameters are caught at config validation.
        assert!(FlConfig::default()
            .with_streaming(StreamingParams::new(0))
            .validate()
            .is_err());
        assert!(FlConfig::default()
            .with_streaming(StreamingParams::new(8).with_flush_seconds(0.0))
            .validate()
            .is_err());
        assert!(FlConfig::default()
            .with_streaming(StreamingParams::new(8).with_arrival(ArrivalModel::Burst {
                mean_offset_seconds: f64::NAN,
            }))
            .validate()
            .is_err());
        // Deadlines are a synchronous concept: rejected under streaming,
        // exactly like under async.
        assert!(FlConfig::default()
            .with_streaming(StreamingParams::new(8))
            .with_deadline(10.0)
            .validate()
            .is_err());
        assert!(FlConfig::default()
            .with_streaming(StreamingParams::new(8))
            .with_deadline(f64::INFINITY)
            .validate()
            .is_ok());
    }

    #[test]
    fn feature_cache_knob_applies_and_defaults_off() {
        let c = FlConfig::default();
        assert!(!c.feature_cache, "paper-faithful workload by default");
        let c = FlConfig::default().with_feature_cache(true);
        assert!(c.feature_cache);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn cache_registry_and_logical_pool_knobs_apply_and_validate() {
        let c = FlConfig::default();
        assert_eq!(c.cache_budget_bytes, None);
        assert_eq!(c.logical_clients, None);

        let c = FlConfig::default()
            .with_feature_cache(true)
            .with_cache_budget(1 << 20)
            .with_logical_clients(10_000);
        assert_eq!(c.cache_budget_bytes, Some(1 << 20));
        assert_eq!(c.logical_clients, Some(10_000));
        assert!(c.validate().is_ok());

        // Zero logical clients and zero budgets are configuration mistakes.
        assert!(FlConfig::default()
            .with_logical_clients(0)
            .validate()
            .is_err());
        assert!(FlConfig::default().with_cache_budget(0).validate().is_err());
    }

    #[test]
    fn client_selection_knob_applies_and_defaults_to_uniform() {
        let c = FlConfig::default();
        assert_eq!(c.client_selection, ClientSelection::Uniform);
        for policy in [
            ClientSelection::Uniform,
            ClientSelection::TierAware,
            ClientSelection::SimilarityAware,
        ] {
            let c = FlConfig::default()
                .with_client_selection(policy)
                .with_participation(0.3);
            assert_eq!(c.client_selection, policy);
            assert!(c.validate().is_ok());
        }
    }

    #[test]
    fn tier_freeze_knob_applies_and_validates() {
        let c = FlConfig::default();
        assert_eq!(c.tier_freeze, None, "uniform freeze by default");
        assert_eq!(c.effective_freeze(0), FreezeLevel::Moderate);
        assert_eq!(c.freeze_for_client(5), FreezeLevel::Moderate);

        // Two tiers: the slow tier deepens to classifier-only training.
        let c = FlConfig::default()
            .with_heterogeneity(HeterogeneityModel::two_tier())
            .with_tier_freeze(vec![FreezeLevel::Moderate, FreezeLevel::Classifier]);
        assert!(c.validate().is_ok());
        assert_eq!(c.effective_freeze(0), FreezeLevel::Moderate);
        assert_eq!(c.effective_freeze(1), FreezeLevel::Classifier);
        // Out-of-range tiers fall back to the global level.
        assert_eq!(c.effective_freeze(9), FreezeLevel::Moderate);
        // Client resolution goes through the deterministic tier assignment.
        for id in 0..8 {
            let tier = c.heterogeneity.profile_for(id, c.seed).tier_index;
            assert_eq!(c.freeze_for_client(id), c.effective_freeze(tier));
        }

        // Length must match the tier list.
        assert!(FlConfig::default()
            .with_heterogeneity(HeterogeneityModel::two_tier())
            .with_tier_freeze(vec![FreezeLevel::Moderate])
            .validate()
            .is_err());
        // Per-tier levels may only deepen the freeze, never shallow it.
        assert!(FlConfig::default()
            .with_heterogeneity(HeterogeneityModel::two_tier())
            .with_tier_freeze(vec![FreezeLevel::Moderate, FreezeLevel::Full])
            .validate()
            .is_err());
        // The async/streaming staleness snapshots assume one θ layout.
        assert!(FlConfig::default()
            .with_heterogeneity(HeterogeneityModel::two_tier())
            .with_tier_freeze(vec![FreezeLevel::Moderate, FreezeLevel::Classifier])
            .with_async(2)
            .validate()
            .is_err());
        assert!(FlConfig::default()
            .with_heterogeneity(HeterogeneityModel::two_tier())
            .with_tier_freeze(vec![FreezeLevel::Moderate, FreezeLevel::Classifier])
            .with_streaming(StreamingParams::new(4))
            .validate()
            .is_err());
        // The deadline backend keeps the synchronous θ layout and is fine.
        assert!(FlConfig::default()
            .with_heterogeneity(HeterogeneityModel::two_tier())
            .with_tier_freeze(vec![FreezeLevel::Moderate, FreezeLevel::Classifier])
            .with_execution(ExecutionBackend::Deadline)
            .with_deadline(100.0)
            .validate()
            .is_ok());
    }

    #[test]
    fn algorithm_names() {
        assert_eq!(LocalAlgorithm::FedAvg.short_name(), "fedavg");
        assert_eq!(LocalAlgorithm::FedProx { mu: 0.1 }.short_name(), "fedprox");
    }
}
