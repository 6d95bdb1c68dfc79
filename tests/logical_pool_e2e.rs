//! End-to-end contract of the logical client pool and the shared,
//! byte-budgeted cache registry: a pool of N logical clients over M ≪ N
//! physical shards must produce a learning history **bit-identical** to the
//! same pool with the cache off entirely — whatever the byte budget — and
//! the updates of clients that each keep a registry of their own, while peak
//! cache bytes stay under the budget and scale with M, not N.

use fedft::core::{
    Client, ClientPool, ClientUpdate, ExecutionBackend, FeatureCache, FlConfig, HeterogeneityModel,
    Method, ParticipationModel, RunResult, SelectionStrategy, Server, Simulation, StreamingParams,
};
use fedft::data::federated::PartitionScheme;
use fedft::data::{domains, FederatedDataset};
use fedft::nn::{BlockNet, BlockNetConfig, FreezeLevel};
use std::sync::Arc;

const SHARDS: usize = 6;
const LOGICAL: usize = 120;

fn setup() -> (FederatedDataset, BlockNet) {
    let bundle = domains::cifar10_like()
        .with_samples_per_class(12)
        .with_test_samples_per_class(4)
        .generate(5)
        .unwrap();
    let fed = FederatedDataset::partition(
        &bundle.train,
        bundle.test.clone(),
        SHARDS,
        PartitionScheme::Dirichlet { alpha: 0.5 },
        7,
    )
    .unwrap();
    let model_cfg = BlockNetConfig::new(bundle.train.feature_dim(), 10).with_hidden(16, 16, 16);
    (fed, BlockNet::new(&model_cfg, 3))
}

fn pool_config() -> FlConfig {
    FlConfig::default()
        .with_rounds(3)
        .with_local_epochs(1)
        .with_batch_size(16)
        .with_logical_clients(LOGICAL)
        .with_participation(0.1)
        .with_selection(SelectionStrategy::Entropy {
            fraction: 0.5,
            temperature: 0.1,
        })
        .serial()
}

/// The three policies that score samples with the current model.
fn score_policies() -> [SelectionStrategy; 3] {
    [
        SelectionStrategy::Entropy {
            fraction: 0.5,
            temperature: 0.1,
        },
        SelectionStrategy::LossProportional { fraction: 0.5 },
        SelectionStrategy::GradientNorm { fraction: 0.5 },
    ]
}

fn run(label: &str, config: FlConfig, fed: &FederatedDataset, model: &BlockNet) -> RunResult {
    Simulation::new(config)
        .unwrap()
        .run_labelled(label, fed, model)
        .unwrap()
}

#[test]
fn shared_registry_is_bit_identical_to_per_client_and_cache_off() {
    let (fed, model) = setup();
    let off = run("off", pool_config(), &fed, &model);
    let shared = run(
        "shared",
        pool_config().with_feature_cache(true),
        &fed,
        &model,
    );
    assert_eq!(off.learning_history(), shared.learning_history());

    // Dedup: the shared registry builds at most one entry per distinct
    // shard, however many logical clients hold it.
    assert!(shared.total_cache_misses() <= SHARDS);
    assert!(shared.total_cache_hits() > 0);
    // A cache-off run reports no cache activity at all.
    assert_eq!(off.total_cache_hits() + off.total_cache_misses(), 0);
    assert_eq!(off.peak_cache_bytes(), 0);

    // The third leg — boundary cached, nothing shared: the pool's logical
    // clients built by hand, each over a registry of its own, upload the
    // bits the pool's shared clients upload, round after round.
    let shards: Vec<_> = fed.clients().iter().cloned().map(Arc::new).collect();
    let private: Vec<Client> = (0..LOGICAL)
        .map(|id| Client::from_shard(id, Arc::clone(&shards[id % SHARDS]), FeatureCache::new()))
        .collect();
    let served = |client: &Client| client.feature_cache().registry().score_stats().served;
    for selection in score_policies() {
        let config = pool_config()
            .with_selection(selection)
            .with_feature_cache(true);
        let pool = ClientPool::build(&fed, &config).unwrap();
        assert_eq!(
            uploads(pool.clients(), &config, &model),
            uploads(&private, &config, &model),
            "{}",
            selection.short_name()
        );
        assert!(served(&pool.clients()[0]) > 0, "the pool shared no score");
    }
    // The private clients did cache their boundaries, and were served no
    // score: nobody else writes to their registries.
    assert!(private.iter().any(|c| !c.feature_cache().is_empty()));
    assert_eq!(private.iter().map(served).sum::<usize>(), 0);
}

/// `config.rounds` rounds of the simulation's loop over `clients` — sample,
/// `run_round`, aggregate — and every round's updates.
fn uploads(clients: &[Client], config: &FlConfig, model: &BlockNet) -> Vec<Vec<ClientUpdate>> {
    let participation = ParticipationModel::new(config.participation).unwrap();
    let executor = config
        .execution
        .executor_with_workers(config.worker_threads);
    let mut global = model.clone();
    (0..config.rounds)
        .map(|round| {
            let ids = participation.sample_round(clients.len(), round, config.seed);
            let cohort: Vec<&Client> = ids.iter().map(|&id| &clients[id]).collect();
            let outcome = executor.run_round(&cohort, &global, config, round).unwrap();
            let theta = Server::new().aggregate(&outcome.updates, round).unwrap();
            global.set_trainable_vector(config.freeze, &theta).unwrap();
            outcome.updates
        })
        .collect()
}

#[test]
fn byte_budget_bounds_peak_and_preserves_the_history() {
    let (fed, model) = setup();
    let unbounded = run(
        "unbounded",
        pool_config().with_feature_cache(true),
        &fed,
        &model,
    );
    let full_bytes = unbounded.peak_cache_bytes();
    assert!(full_bytes > 0);

    // A budget of half the deduplicated working set forces LRU churn…
    let budget = full_bytes / 2;
    let budgeted = run(
        "budgeted",
        pool_config()
            .with_feature_cache(true)
            .with_cache_budget(budget),
        &fed,
        &model,
    );
    // …but the learning history is unchanged bit for bit,
    assert_eq!(unbounded.learning_history(), budgeted.learning_history());
    // the peak respects the budget in every round,
    assert!(budgeted.peak_cache_bytes() <= budget);
    for record in &budgeted.rounds {
        assert!(record.cache_peak_bytes <= budget);
    }
    // and evictions (with the rebuilds they force) actually happened.
    assert!(budgeted.total_cache_evictions() > 0);
    assert!(budgeted.total_cache_misses() > unbounded.total_cache_misses());
}

#[test]
fn pool_histories_hold_across_all_execution_backends() {
    // The pool is orthogonal to scheduling: sequential, parallel, deadline
    // (neutral knobs) and async(0) replay the same logical-pool history.
    let (fed, model) = setup();
    let base = pool_config()
        .with_feature_cache(true)
        .with_cache_budget(1 << 20);
    let reference = run("seq", base.clone(), &fed, &model);
    for backend in [
        ExecutionBackend::Parallel,
        ExecutionBackend::Deadline,
        ExecutionBackend::Async { max_staleness: 0 },
    ] {
        let result = run(
            backend.short_name(),
            base.clone().with_execution(backend),
            &fed,
            &model,
        );
        assert_eq!(
            reference.learning_history(),
            result.learning_history(),
            "{} diverged",
            backend.short_name()
        );
    }
}

#[test]
fn logical_pool_composes_with_the_paper_method_lineup() {
    let (fed, model) = setup();
    for method in [Method::FedAvg, Method::FedFtEds { pds: 0.5 }] {
        let config = method.configure(pool_config());
        let off = run("off", config.clone(), &fed, &model);
        let on = run("on", config.with_feature_cache(true), &fed, &model);
        assert_eq!(off.learning_history(), on.learning_history(), "{method:?}");
        assert!(off.rounds.iter().all(|r| r.participants == LOGICAL / 10));
    }
    // FreezeLevel::Full has no frozen prefix: nothing is cached even with
    // the registry on, and the history still matches.
    let full = pool_config()
        .with_freeze(FreezeLevel::Full)
        .with_feature_cache(true);
    let result = run("full", full, &fed, &model);
    assert_eq!(result.total_cache_misses(), 0);
    assert_eq!(result.peak_cache_bytes(), 0);
}

// --- Shared selection scores (the registry's score tier). Logical clients
// of one shard that train on one model version take their selection scores
// from the shared registry; a cache-off run bypasses the tier, so
// `shared ≡ off` is also `scores shared ≡ scores recomputed`.

/// `off` and shared runs of `config`, asserted equal; returns the shared
/// one.
fn assert_scopes_agree(
    what: &str,
    config: FlConfig,
    fed: &FederatedDataset,
    model: &BlockNet,
) -> RunResult {
    let off = run("off", config.clone(), fed, model);
    let shared = run("shared", config.with_feature_cache(true), fed, model);
    assert_eq!(
        off.learning_history(),
        shared.learning_history(),
        "{what}: shared"
    );
    assert!(shared.total_cache_hits() > 0, "{what}: nothing was shared");
    shared
}

#[test]
fn shared_scores_change_no_history_for_any_score_policy_on_any_backend() {
    let (fed, model) = setup();
    let backends = [
        ExecutionBackend::Sequential,
        ExecutionBackend::Parallel,
        ExecutionBackend::Deadline,
        ExecutionBackend::Async { max_staleness: 1 },
        ExecutionBackend::Streaming(StreamingParams::new(5).with_max_staleness(1)),
    ];
    for backend in backends {
        for selection in score_policies() {
            let config = pool_config()
                .with_heterogeneity(HeterogeneityModel::two_tier())
                .with_selection(selection)
                .with_execution(backend);
            let what = format!("{} under {}", selection.short_name(), backend.short_name());
            assert_scopes_agree(&what, config, &fed, &model);
        }
    }
}

#[test]
fn stale_versions_in_flight_over_shared_shards_score_against_their_own_model() {
    // Two device tiers and a staleness window of three: one round's cohort
    // trains on several model versions at once, clients of one shard among
    // them, and every version must select from its own scores.
    let (fed, model) = setup();
    let config = pool_config()
        .with_rounds(8)
        .with_participation(0.2)
        .with_heterogeneity(HeterogeneityModel::two_tier())
        .with_execution(ExecutionBackend::Async { max_staleness: 3 });
    let shared = assert_scopes_agree("async(3)", config, &fed, &model);
    let most_versions = shared
        .rounds
        .iter()
        .map(|r| {
            let mut stale: Vec<usize> = r
                .update_staleness
                .iter()
                .copied()
                .filter(|&s| s > 0)
                .collect();
            stale.sort_unstable();
            stale.dedup();
            stale.len()
        })
        .max()
        .unwrap();
    assert!(
        most_versions >= 2,
        "no round trained on two stale versions at once ({most_versions})"
    );
}

#[test]
fn clients_of_one_shard_at_two_freeze_levels_keep_their_scores_apart() {
    let (fed, model) = setup();
    let config = pool_config()
        .with_heterogeneity(HeterogeneityModel::two_tier())
        .with_freeze(FreezeLevel::Large)
        .with_tier_freeze(vec![FreezeLevel::Large, FreezeLevel::Classifier]);
    config.validate().unwrap();
    // The case is only the one it claims to be if some round trains two
    // logical clients of one shard at different levels.
    let participation = ParticipationModel::new(config.participation).unwrap();
    let mixed = (0..config.rounds).any(|round| {
        let cohort = participation.sample_round(LOGICAL, round, config.seed);
        cohort.iter().any(|&a| {
            cohort.iter().any(|&b| {
                a % SHARDS == b % SHARDS
                    && config.freeze_for_client(a) != config.freeze_for_client(b)
            })
        })
    });
    assert!(
        mixed,
        "no shard was trained at two freeze levels in one round"
    );
    assert_scopes_agree("tier_freeze", config, &fed, &model);
}
