//! A round keeps its memory, and nobody can tell.
//!
//! The executor owns what a round allocates: a free list of θ upload buffers
//! that `Executor::recycle` feeds, and one training workspace per runner.
//! The contract is that this is memory and never state. A `Simulation::run`
//! — which recycles every round — must produce the `learning_history()` of
//! a hand-driven `run_round` loop that never recycles, and of one that feeds
//! the free list rubbish; an executor that has served other runs, other
//! model widths and mixed-length `tier_freeze` rounds must produce what a new
//! one does; and an update carried over in the streaming buffer must reach
//! its flush intact although rounds in between recycled and refilled buffers
//! around it.
//!
//! The hand-driven loop is `Simulation::run_labelled` through public
//! functions (as in `tests/eval_boundary_e2e.rs`), building whole
//! `RoundRecord`s, so "equal" means every field of the learning history.

use fedft::core::{
    Client, ClientPool, ClientUpdate, ExecutionBackend, Executor, FlConfig, HeterogeneityModel,
    Method, ParticipationModel, RoundRecord, Server, Simulation, StreamingParams,
};
use fedft::data::federated::PartitionScheme;
use fedft::data::{domains, FederatedDataset};
use fedft::nn::{BlockNet, BlockNetConfig, FreezeLevel, ParamVector};
use std::sync::Arc;

const CLIENTS: usize = 8;
const SEED: u64 = 23;

fn data() -> FederatedDataset {
    let target = domains::cifar10_like()
        .with_samples_per_class(20)
        .with_test_samples_per_class(8)
        .generate(6)
        .expect("target generation");
    FederatedDataset::partition(
        &target.train,
        target.test.clone(),
        CLIENTS,
        PartitionScheme::Dirichlet { alpha: 0.5 },
        7,
    )
    .expect("partitioning")
}

fn model(fed: &FederatedDataset, hidden: (usize, usize, usize)) -> BlockNet {
    let test = fed.test();
    let config = BlockNetConfig::new(test.feature_dim(), test.num_classes())
        .with_hidden(hidden.0, hidden.1, hidden.2);
    BlockNet::new(&config, 5)
}

const NARROW: (usize, usize, usize) = (24, 20, 16);
const WIDE: (usize, usize, usize) = (16, 40, 28);

/// Five rounds over a two-tier population, three workers on the pooled
/// backends, the feature cache on.
fn config(backend: ExecutionBackend) -> FlConfig {
    Method::FedFtEds { pds: 0.5 }.configure(
        FlConfig::default()
            .with_rounds(5)
            .with_local_epochs(2)
            .with_batch_size(16)
            .with_seed(SEED)
            .with_feature_cache(true)
            .with_heterogeneity(HeterogeneityModel::two_tier())
            .with_worker_threads(3)
            .with_execution(backend),
    )
}

/// A shallow buffer and burst-free arrivals over two device tiers: every
/// flush leaves stragglers behind, so later flushes aggregate carried-over
/// updates.
fn streaming() -> ExecutionBackend {
    ExecutionBackend::Streaming(StreamingParams::new(CLIENTS / 2).with_max_staleness(2))
}

fn backends() -> [ExecutionBackend; 5] {
    [
        ExecutionBackend::Sequential,
        ExecutionBackend::Parallel,
        ExecutionBackend::Deadline,
        ExecutionBackend::Async { max_staleness: 2 },
        streaming(),
    ]
}

fn executor(config: &FlConfig) -> Executor {
    config
        .execution
        .executor_with_workers(config.worker_threads)
}

/// What the hand-driven loop gives back to the executor after each round.
enum Recycle<'a> {
    /// Nothing, ever: every upload is a fresh allocation.
    Never,
    /// The round's own updates, as `Simulation::run` does.
    Aggregated,
    /// The round's own updates are dropped; the free list gets `foreign`
    /// updates (another executor's, of another model width) and copies of
    /// them with an empty, a short and an over-long θ, all of it `NaN`.
    Rubbish { foreign: &'a [ClientUpdate] },
}

/// `Simulation::run_labelled`'s round loop on `executor`, through public
/// functions, with the cache counters a learning history zeroes left at zero
/// (and the flush bookkeeping it clears kept: these tests compare
/// that too).
fn drive(
    executor: &Executor,
    config: &FlConfig,
    fed: &FederatedDataset,
    initial: &BlockNet,
    recycle: &Recycle<'_>,
) -> Vec<RoundRecord> {
    let pool = ClientPool::build(fed, config).expect("pool");
    let clients = pool.clients();
    let participation = ParticipationModel::new(config.participation).expect("participation");
    let server = Server::new();
    let hetero = &config.heterogeneity;
    let profiles: Vec<_> = (0..clients.len())
        .map(|id| hetero.profile_for(id, config.seed))
        .collect();
    let tier_compute: Vec<f64> = profiles.iter().map(|p| p.tier.compute).collect();
    let shards: Vec<_> = clients.iter().map(|c| Arc::clone(c.shard())).collect();
    let client_selection = config.client_selection.policy(&tier_compute, &shards);

    let mut global = initial.clone();
    let test = fed.test();
    let mut rounds: Vec<RoundRecord> = Vec::with_capacity(config.rounds);
    for round in 0..config.rounds {
        let ids = client_selection.sample_round(&participation, round, config.seed);
        let participants: Vec<&Client> = ids.iter().map(|&id| &clients[id]).collect();
        let mut outcome = executor
            .run_round(&participants, &global, config, round)
            .expect("round");
        let update_staleness = outcome.update_staleness();
        let timing = outcome.timing.take().expect("every backend reports timing");
        let updates = &outcome.updates;
        if !updates.is_empty() {
            let theta = if config.tier_freeze.is_some() {
                let current = global.trainable_vector(config.freeze);
                server.aggregate_mixed(updates, &current, round)
            } else {
                server.aggregate_stale(updates, &update_staleness, round)
            }
            .expect("aggregation");
            global
                .set_trainable_vector(config.freeze, &theta)
                .expect("θ write-back");
        }
        let eval = global
            .evaluate_from(FreezeLevel::Full, test.features(), test.labels())
            .expect("evaluation");

        let previous = rounds.last();
        let round_client_seconds: f64 = updates.iter().map(|u| u.compute_seconds).sum();
        let round_client_seconds_cached: f64 =
            updates.iter().map(|u| u.cached_compute_seconds).sum();
        let mut tier_participants = vec![0usize; hetero.num_tiers()];
        for update in updates {
            tier_participants[profiles[update.client_id].tier_index] += 1;
        }
        rounds.push(RoundRecord {
            round: round + 1,
            test_accuracy: eval.accuracy,
            test_loss: eval.loss,
            mean_train_loss: updates.iter().map(|u| u.train_loss).sum::<f32>()
                / updates.len().max(1) as f32,
            participants: updates.len(),
            dropped_clients: outcome.dropped(),
            tier_participants,
            selected_samples: updates.iter().map(|u| u.selected_samples).sum(),
            update_staleness,
            round_client_seconds,
            cumulative_client_seconds: previous.map_or(0.0, |p| p.cumulative_client_seconds)
                + round_client_seconds,
            round_client_seconds_cached,
            cumulative_client_seconds_cached: previous
                .map_or(0.0, |p| p.cumulative_client_seconds_cached)
                + round_client_seconds_cached,
            round_wall_seconds: timing.round_wall_seconds,
            cumulative_wall_seconds: previous.map_or(0.0, |p| p.cumulative_wall_seconds)
                + timing.round_wall_seconds,
            cache_hits: 0,
            cache_misses: 0,
            cache_evictions: 0,
            cache_peak_bytes: 0,
            flush: timing.flush,
        });

        match recycle {
            Recycle::Never => {}
            Recycle::Aggregated => executor.recycle(outcome.updates),
            Recycle::Rubbish { foreign } => {
                let theta_len = global.trainable_parameter_count(config.freeze);
                let mut rubbish = foreign.to_vec();
                for len in [0, theta_len / 2, 3 * theta_len] {
                    rubbish.push(ClientUpdate {
                        theta: ParamVector::from_values(vec![f32::NAN; len]),
                        ..foreign[0].clone()
                    });
                }
                executor.recycle(rubbish);
            }
        }
    }
    rounds
}

/// One round's updates from an executor and a model width no test below
/// uses, every θ overwritten with `NaN`.
fn foreign_updates(fed: &FederatedDataset) -> Vec<ClientUpdate> {
    let config = config(ExecutionBackend::Sequential);
    let pool = ClientPool::build(fed, &config).expect("pool");
    let participants: Vec<&Client> = pool.clients().iter().collect();
    let mut outcome = executor(&config)
        .run_round(&participants, &model(fed, (12, 12, 12)), &config, 0)
        .expect("foreign round");
    for update in &mut outcome.updates {
        update.theta = ParamVector::from_values(vec![f32::NAN; update.theta.len()]);
    }
    outcome.updates
}

#[test]
fn a_run_equals_a_hand_driven_loop_that_never_recycles_and_one_fed_rubbish() {
    let fed = data();
    let initial = model(&fed, NARROW);
    let foreign = foreign_updates(&fed);
    for backend in backends() {
        let config = config(backend);
        let result = Simulation::new(config.clone())
            .expect("valid config")
            .run(&fed, &initial)
            .expect("simulation succeeds");
        // The learning history, and the flush bookkeeping it clears put
        // back: memory may not move the schedule either.
        let run: Vec<RoundRecord> = result
            .learning_history()
            .into_iter()
            .zip(&result.rounds)
            .map(|(learning, recorded)| RoundRecord {
                flush: recorded.flush.clone(),
                ..learning
            })
            .collect();
        // θ moved, updates were aggregated: the equalities below compare
        // five different rounds.
        assert!(run.windows(2).all(|w| w[0].test_loss != w[1].test_loss));
        for (name, recycle) in [
            ("never recycles", Recycle::Never),
            ("recycles what it aggregated", Recycle::Aggregated),
            ("recycles rubbish", Recycle::Rubbish { foreign: &foreign }),
        ] {
            assert_eq!(
                drive(&executor(&config), &config, &fed, &initial, &recycle),
                run,
                "{backend:?}: a hand-driven loop that {name}"
            );
        }
    }
}

#[test]
fn carried_over_updates_keep_their_buffers_until_their_flush() {
    // The rounds between a straggler's training and its flush recycle the
    // buffers of everything flushed meanwhile and train new clients into
    // them. Were a buffered update's θ among them, the flush would aggregate
    // another client's parameters, and the histories would part.
    let fed = data();
    let initial = model(&fed, NARROW);
    let config = config(streaming()).with_rounds(8);
    let recycled = drive(
        &executor(&config),
        &config,
        &fed,
        &initial,
        &Recycle::Aggregated,
    );
    let carried: usize = recycled
        .iter()
        .map(|r| r.flush.as_ref().expect("streaming records flushes").carried)
        .sum();
    assert!(carried >= 4, "only {carried} updates were carried over");
    assert!(recycled
        .iter()
        .any(|r| r.update_staleness.iter().any(|&s| s > 0)));
    assert_eq!(
        recycled,
        drive(&executor(&config), &config, &fed, &initial, &Recycle::Never)
    );
}

#[test]
fn one_executor_serves_runs_of_other_widths_and_mixed_theta_lengths_like_a_new_one() {
    let fed = data();
    for backend in backends() {
        // Per-tier freeze levels upload θ of two lengths in one round;
        // validation confines them to the synchronous backends.
        let synchronous = !matches!(
            backend,
            ExecutionBackend::Async { .. } | ExecutionBackend::Streaming(..)
        );
        let plain = config(backend);
        let mut runs = vec![
            ("narrow", plain.clone(), model(&fed, NARROW)),
            ("wide", plain.clone(), model(&fed, WIDE)),
        ];
        if synchronous {
            let tiered = plain
                .clone()
                .with_freeze(FreezeLevel::Large)
                .with_tier_freeze(vec![FreezeLevel::Large, FreezeLevel::Classifier]);
            tiered.validate().expect("a valid per-tier configuration");
            runs.push(("tier_freeze", tiered, model(&fed, NARROW)));
        }
        runs.push(("narrow again", plain, model(&fed, NARROW)));

        let kept = executor(&runs[0].1);
        for (name, config, initial) in &runs {
            let served = drive(&kept, config, &fed, initial, &Recycle::Aggregated);
            assert_eq!(
                served,
                drive(
                    &executor(config),
                    config,
                    &fed,
                    initial,
                    &Recycle::Aggregated
                ),
                "{backend:?}, {name}: a used executor against a new one"
            );
            if *name == "tier_freeze" {
                let both_tiers = served
                    .iter()
                    .any(|r| r.tier_participants.iter().all(|&n| n > 0));
                assert!(both_tiers, "no round mixed θ lengths");
            }
        }
    }
}
