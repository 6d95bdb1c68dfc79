//! The round executor's two shapes, pinned against each other.
//!
//! There is one executor with a synchronous round (`Sequential`, `Parallel`,
//! `Deadline`) and an event round (`Async`, `Streaming`). Two equalities say
//! that the five backends are parameterisations of those two shapes and
//! nothing more:
//!
//! * `Async { max_staleness: s }` is the *drain case* of the buffered flush:
//!   `Streaming` with a buffer nobody can fill, no flush timer, steady
//!   arrivals and staleness bound `s` learns the same history — stale
//!   updates, offline drops, discounted aggregation and simulated wall clock
//!   included — and differs only in carrying a `FlushRecord`.
//! * `Sequential`, `Parallel` at any worker cap and `Deadline` with neutral
//!   knobs return the same `RoundOutcome`, timing and all: the wall clock of
//!   a plain round is the deadline rule with nobody dropped.

use fedft::core::{
    Client, ClientPool, DeviceTier, ExecutionBackend, FlConfig, HeterogeneityModel, Method,
    RunResult, Simulation, StreamingParams,
};
use fedft::data::federated::PartitionScheme;
use fedft::data::{domains, FederatedDataset};
use fedft::nn::{BlockNet, BlockNetConfig};

const CLIENTS: usize = 12;

fn setup() -> (FederatedDataset, BlockNet) {
    let target = domains::cifar10_like()
        .with_samples_per_class(24)
        .with_test_samples_per_class(6)
        .generate(2)
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
        .with_hidden(24, 24, 24);
    (fed, BlockNet::new(&model_cfg, 5))
}

fn base_config(seed: u64) -> FlConfig {
    Method::FedFtEds { pds: 0.25 }.configure(
        FlConfig::default()
            .with_rounds(8)
            .with_local_epochs(1)
            .with_batch_size(16)
            .with_seed(seed),
    )
}

/// The two-tier straggler mix, with a slow tier that is offline one round in
/// ten — so every event round also exercises the shared admission step.
fn flaky_two_tier() -> HeterogeneityModel {
    HeterogeneityModel::from_tiers(vec![
        DeviceTier::new("fast", 0.5, 1.0),
        DeviceTier::new("slow", 0.5, 0.25)
            .with_network(0.5, 0.5)
            .with_drop_probability(0.1),
    ])
}

fn run(config: FlConfig, fed: &FederatedDataset, model: &BlockNet) -> RunResult {
    Simulation::new(config)
        .expect("valid config")
        .run(fed, model)
        .expect("simulation succeeds")
}

#[test]
fn async_is_the_drain_case_of_streaming() {
    let (fed, model) = setup();
    let mut stale_updates = 0;
    let mut drops = 0;
    for max_staleness in 0..=3 {
        for seed in [1, 4, 9, 13] {
            for participation in [0.5, 1.0] {
                let config = base_config(seed)
                    .with_participation(participation)
                    .with_heterogeneity(flaky_two_tier());
                let async_run = run(config.clone().with_async(max_staleness), &fed, &model);
                let drain = StreamingParams::new(usize::MAX).with_max_staleness(max_staleness);
                let streaming_run = run(config.with_streaming(drain), &fed, &model);

                let case = format!("s={max_staleness} seed={seed} participation={participation}");
                assert_eq!(
                    async_run.learning_history(),
                    streaming_run.learning_history(),
                    "{case}"
                );
                // The flush bookkeeping is the one thing that differs, and
                // `learning_history` zeroes it: async rounds carry none
                // (their records must equal a synchronous backend's at
                // s = 0), streaming rounds always do.
                assert!(async_run.rounds.iter().all(|r| r.flush.is_none()), "{case}");
                assert_eq!(streaming_run.flush_count(), 8, "{case}");
                assert!(async_run.max_update_staleness() <= max_staleness, "{case}");
                stale_updates += async_run.stale_update_count();
                drops += async_run.total_dropped_clients();
            }
        }
    }
    // Not vacuous: the equality above covered genuinely stale, discounted
    // updates and offline drops.
    assert!(stale_updates > 100, "only {stale_updates} stale updates");
    assert!(drops > 0, "the offline tier never dropped anyone");
}

#[test]
fn plain_and_neutral_deadline_backends_return_one_outcome_timing_included() {
    let (fed, model) = setup();
    // Uniform devices and a two-tier mix without offline draws, infinite
    // deadline: nothing for `Deadline` to act on.
    for hetero in [
        HeterogeneityModel::uniform(),
        HeterogeneityModel::two_tier(),
    ] {
        let config = base_config(4).with_heterogeneity(hetero);
        let pool = ClientPool::build(&fed, &config).expect("pool");
        let participants: Vec<&Client> = pool.clients().iter().collect();
        let reference = ExecutionBackend::Sequential
            .executor_with_workers(None)
            .run_round(&participants, &model, &config, 0)
            .expect("sequential round");

        assert_eq!(reference.updates.len(), CLIENTS);
        assert!(reference.drops.is_empty());
        let timing = reference.timing.as_ref().expect("every backend times");
        assert_eq!(timing.per_update.len(), CLIENTS);
        assert!(timing.flush.is_none());
        let slowest = timing
            .per_update
            .iter()
            .map(|t| t.simulated_seconds)
            .fold(0.0_f64, f64::max);
        assert!(slowest > 0.0);
        assert_eq!(timing.round_wall_seconds.to_bits(), slowest.to_bits());

        for backend in [ExecutionBackend::Parallel, ExecutionBackend::Deadline] {
            for cap in [1, 2, 7] {
                let outcome = backend
                    .executor_with_workers(Some(cap))
                    .run_round(&participants, &model, &config, 0)
                    .expect("round");
                assert_eq!(reference, outcome, "{backend:?} at {cap} workers");
            }
        }
    }
}
