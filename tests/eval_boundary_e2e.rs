//! Boundary evaluation ≡ two-pass raw-feature evaluation.
//!
//! `Simulation::run` computes the test set's boundary activations
//! `ϕ(x_test)` once per run and, each round, takes accuracy and loss from
//! one forward pass of the blocks above the boundary. The contract is that
//! nobody can tell: every `RoundRecord`'s `(test_accuracy, test_loss)` must
//! equal, bit for bit, what the public two-pass API —
//! `BlockNet::evaluate_accuracy` then `BlockNet::evaluate_loss`, each a full
//! forward over the raw test features — reports for that round's global θ.
//!
//! The round's θ is not part of a `RunResult`, so the suite re-drives the
//! round loop through public functions only (pool, sampling, executor,
//! aggregation, `set_trainable_vector`), evaluates the two-pass way after
//! every round, and compares. It does so at every freeze level, on a
//! synchronous backend and on the streaming backend with stale, carried-over
//! updates, and under per-tier freeze levels, where aggregation writes θ
//! vectors of mixed length above the one prefix the run keeps fixed.

use fedft::core::{
    Client, ClientPool, ExecutionBackend, FlConfig, HeterogeneityModel, Method, ParticipationModel,
    RunResult, Server, Simulation, StreamingParams,
};
use fedft::data::federated::PartitionScheme;
use fedft::data::{domains, FederatedDataset};
use fedft::nn::{BlockNet, BlockNetConfig, FreezeLevel};
use std::sync::Arc;

const CLIENTS: usize = 8;
const SEED: u64 = 17;

fn setup() -> (FederatedDataset, BlockNet) {
    let target = domains::cifar10_like()
        .with_samples_per_class(20)
        .with_test_samples_per_class(8)
        .generate(6)
        .expect("target generation");
    let fed = FederatedDataset::partition(
        &target.train,
        target.test.clone(),
        CLIENTS,
        PartitionScheme::Dirichlet { alpha: 0.5 },
        7,
    )
    .expect("partitioning");
    let model_cfg = BlockNetConfig::new(target.train.feature_dim(), target.train.num_classes())
        .with_hidden(24, 20, 16);
    (fed, BlockNet::new(&model_cfg, 5))
}

fn base_config(freeze: FreezeLevel) -> FlConfig {
    Method::FedFtEds { pds: 0.5 }
        .configure(
            FlConfig::default()
                .with_rounds(4)
                .with_local_epochs(2)
                .with_batch_size(16)
                .with_seed(SEED),
        )
        .with_freeze(freeze)
}

/// `(accuracy bits, loss bits, participants)` per round.
type EvalHistory = Vec<(u32, u32, usize)>;

/// The round loop of `Simulation::run_labelled` through public functions,
/// evaluating each round's global model on the **raw** test features with
/// the two single-metric entry points.
fn two_pass_history(config: &FlConfig, fed: &FederatedDataset, model: &BlockNet) -> EvalHistory {
    let pool = ClientPool::build(fed, config).expect("pool");
    let clients = pool.clients();
    let participation = ParticipationModel::new(config.participation).expect("participation");
    let server = Server::new();
    let executor = config
        .execution
        .executor_with_workers(config.worker_threads);
    let tier_compute: Vec<f64> = (0..clients.len())
        .map(|id| {
            config
                .heterogeneity
                .profile_for(id, config.seed)
                .tier
                .compute
        })
        .collect();
    let shards: Vec<_> = clients.iter().map(|c| Arc::clone(c.shard())).collect();
    let client_selection = config.client_selection.policy(&tier_compute, &shards);

    let mut global = model.clone();
    let test = fed.test();
    let mut history = Vec::with_capacity(config.rounds);
    for round in 0..config.rounds {
        let ids = client_selection.sample_round(&participation, round, config.seed);
        let participants: Vec<&Client> = ids.iter().map(|&id| &clients[id]).collect();
        let outcome = executor
            .run_round(&participants, &global, config, round)
            .expect("round");
        let updates = &outcome.updates;
        let staleness = outcome.update_staleness();
        let is_flush = outcome.timing.as_ref().is_some_and(|t| t.flush.is_some());
        if !updates.is_empty() {
            let theta = if config.tier_freeze.is_some() {
                let current = global.trainable_vector(config.freeze);
                server.aggregate_mixed(updates, &current, round)
            } else if is_flush {
                server.aggregate_buffered(updates, &staleness, round)
            } else {
                server.aggregate_stale(updates, &staleness, round)
            }
            .expect("aggregation");
            global
                .set_trainable_vector(config.freeze, &theta)
                .expect("θ write-back");
        }
        let accuracy = global
            .evaluate_accuracy(test.features(), test.labels())
            .expect("accuracy");
        let loss = global
            .evaluate_loss(test.features(), test.labels())
            .expect("loss");
        history.push((accuracy.to_bits(), loss.to_bits(), updates.len()));
    }
    history
}

fn assert_boundary_evaluation_matches(name: &str, config: FlConfig) -> RunResult {
    let (fed, model) = setup();
    let result = Simulation::new(config.clone())
        .expect("valid config")
        .run(&fed, &model)
        .expect("simulation succeeds");
    let recorded: EvalHistory = result
        .rounds
        .iter()
        .map(|r| {
            (
                r.test_accuracy.to_bits(),
                r.test_loss.to_bits(),
                r.participants,
            )
        })
        .collect();
    assert_eq!(
        recorded,
        two_pass_history(&config, &fed, &model),
        "{name}: the round loop's boundary evaluation differs from two-pass \
         evaluation on raw test features"
    );
    // θ moved during the run, so the equality above is not one value
    // compared with itself four times.
    assert!(
        recorded.windows(2).any(|w| w[0].1 != w[1].1),
        "{name}: test loss never changed"
    );
    result
}

#[test]
fn sequential_rounds_match_two_pass_evaluation_at_every_freeze_level() {
    for freeze in FreezeLevel::all() {
        assert_boundary_evaluation_matches(
            &format!("sequential/{freeze}"),
            base_config(freeze).with_execution(ExecutionBackend::Sequential),
        );
    }
}

#[test]
fn streaming_flushes_match_two_pass_evaluation_at_every_freeze_level() {
    // A shallow buffer over a two-tier population: flushes aggregate stale
    // and carried-over updates, the staleness-discounted path.
    for freeze in FreezeLevel::all() {
        let result = assert_boundary_evaluation_matches(
            &format!("streaming/{freeze}"),
            base_config(freeze)
                .with_rounds(6)
                .with_heterogeneity(HeterogeneityModel::two_tier())
                .with_streaming(StreamingParams::new(CLIENTS / 2).with_max_staleness(2)),
        );
        assert!(result.max_update_staleness() > 0, "no stale update ran");
    }
}

#[test]
fn per_tier_freeze_levels_match_two_pass_evaluation() {
    // The fast tier trains from the global boundary, the slow tier only the
    // classifier: θ uploads of two lengths, one fixed prefix below `Large`.
    let result = assert_boundary_evaluation_matches(
        "tier_freeze",
        base_config(FreezeLevel::Large)
            .with_execution(ExecutionBackend::Parallel)
            .with_heterogeneity(HeterogeneityModel::two_tier())
            .with_tier_freeze(vec![FreezeLevel::Large, FreezeLevel::Classifier]),
    );
    // Both tiers took part, so both θ lengths were aggregated.
    let per_tier = result.rounds.iter().fold([0, 0], |mut sum, r| {
        sum[0] += r.tier_participants[0];
        sum[1] += r.tier_participants[1];
        sum
    });
    assert!(per_tier[0] > 0 && per_tier[1] > 0, "tiers: {per_tier:?}");
}
