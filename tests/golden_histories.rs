//! Golden histories: absolute pins of whole learning histories.
//!
//! Every other contract compares two runs of the same build, so a change
//! that moves every path alike — a reordered multiply-add chain, a shifted
//! RNG stream, a cost-model constant — passes all of them. Here each small
//! configuration's [`RunResult::history_digest`] is pinned as a literal.
//! Together the cases cover every execution backend, every freeze level,
//! every data-selection strategy, FedProx, per-tier freezes under a deadline
//! with an offline tier, a budgeted logical pool and bursty streaming.
//!
//! A change that moves a digest on purpose says so, with the reason, and
//! re-pins it; a digest that moves by accident is a bug. The literals hold in
//! the debug and the release profile alike.

use fedft::core::{
    ArrivalModel, DeviceTier, ExecutionBackend, FlConfig, HeterogeneityModel, Method, RunResult,
    Simulation, StreamingParams,
};
use fedft::data::federated::PartitionScheme;
use fedft::data::{domains, FederatedDataset};
use fedft::nn::{BlockNet, BlockNetConfig, FreezeLevel};

const CLIENTS: usize = 8;

fn setup() -> (FederatedDataset, BlockNet) {
    let bundle = domains::cifar10_like()
        .with_samples_per_class(12)
        .with_test_samples_per_class(4)
        .generate(5)
        .expect("target generation");
    let fed = FederatedDataset::partition(
        &bundle.train,
        bundle.test.clone(),
        CLIENTS,
        PartitionScheme::Dirichlet { alpha: 0.5 },
        7,
    )
    .expect("partitioning");
    let model_cfg = BlockNetConfig::new(bundle.train.feature_dim(), 10).with_hidden(16, 16, 16);
    (fed, BlockNet::new(&model_cfg, 3))
}

fn base(rounds: usize, seed: u64) -> FlConfig {
    FlConfig::default()
        .with_rounds(rounds)
        .with_local_epochs(1)
        .with_batch_size(16)
        .with_seed(seed)
}

/// A fast tier and a slow one that is offline one round in three.
fn flaky_two_tier() -> HeterogeneityModel {
    HeterogeneityModel::from_tiers(vec![
        DeviceTier::new("fast", 0.5, 1.0),
        DeviceTier::new("slow", 0.5, 0.25)
            .with_network(0.5, 0.5)
            .with_drop_probability(0.35),
    ])
}

/// Runs `config` and checks its digest against the pinned literal.
fn pinned(config: FlConfig, fed: &FederatedDataset, model: &BlockNet, expected: u64) -> RunResult {
    let result = Simulation::new(config)
        .expect("valid config")
        .run(fed, model)
        .expect("simulation succeeds");
    let digest = result.history_digest();
    assert_eq!(
        digest, expected,
        "the learning history moved: digest {digest:#018x}, pinned {expected:#018x}"
    );
    result
}

/// The predicted round seconds of every client under `config`, largest
/// last — what the deadline scheduler compares against.
fn sorted_predictions(fed: &FederatedDataset, model: &BlockNet, config: &FlConfig) -> Vec<f64> {
    let mut times = config.heterogeneity.predicted_times(fed, model, config);
    times.sort_by(f64::total_cmp);
    times
}

#[test]
fn sequential_fedavg_full_model_all_data() {
    let (fed, model) = setup();
    let config = Method::FedAvg.configure(base(3, 1)).serial();
    pinned(config, &fed, &model, 0x5775_4af4_77c4_ab5b);
}

#[test]
fn parallel_fedft_eds_moderate() {
    let (fed, model) = setup();
    let config = Method::FedFtEds { pds: 0.5 }
        .configure(base(3, 2))
        .with_execution(ExecutionBackend::Parallel)
        .with_worker_threads(2);
    pinned(config, &fed, &model, 0x4183_6a40_4d96_4183);
}

#[test]
fn sequential_fedft_rds_large() {
    let (fed, model) = setup();
    let config = Method::FedFtRds { pds: 0.5 }
        .configure(base(3, 3))
        .with_freeze(FreezeLevel::Large)
        .serial();
    pinned(config, &fed, &model, 0x8b5a_5e16_cb0e_edb9);
}

#[test]
fn parallel_fedprox_with_random_selection() {
    let (fed, model) = setup();
    let config = Method::FedProxRds { mu: 0.01, pds: 0.5 }
        .configure(base(3, 4))
        .with_participation(0.75)
        .with_execution(ExecutionBackend::Parallel);
    pinned(config, &fed, &model, 0x895c_6f02_aeb0_67f5);
}

#[test]
fn deadline_drops_the_clients_that_miss_it() {
    let (fed, model) = setup();
    let config = Method::FedFtAll
        .configure(base(3, 5))
        .with_heterogeneity(HeterogeneityModel::two_tier())
        .with_execution(ExecutionBackend::Deadline);
    let times = sorted_predictions(&fed, &model, &config);
    let deadline = times[CLIENTS / 2];
    let result = pinned(
        config.with_deadline(deadline),
        &fed,
        &model,
        0xb59d_4cd7_3607_81d1,
    );
    assert!(
        result.total_dropped_clients() > 0,
        "nobody missed the deadline"
    );
    assert!(result.rounds.iter().all(|r| r.participants > 0));
}

#[test]
fn deadline_with_tier_freeze_waits_out_offline_clients() {
    let (fed, model) = setup();
    let config = Method::FedFtEds { pds: 0.5 }
        .configure(base(4, 6))
        .with_heterogeneity(flaky_two_tier())
        .with_tier_freeze(vec![FreezeLevel::Moderate, FreezeLevel::Classifier])
        .with_execution(ExecutionBackend::Deadline);
    // Twice the slowest prediction at the global level, whose θ is the
    // largest: every online client makes it, so each drop is offline.
    let deadline = 2.0 * sorted_predictions(&fed, &model, &config)[CLIENTS - 1];
    let result = pinned(
        config.with_deadline(deadline),
        &fed,
        &model,
        0x12c4_9c92_986a_6cdd,
    );
    let offline_rounds: Vec<_> = result
        .rounds
        .iter()
        .filter(|r| r.dropped_clients > 0)
        .collect();
    assert!(!offline_rounds.is_empty(), "the offline tier never dropped");
    assert!(
        offline_rounds
            .iter()
            .all(|r| r.round_wall_seconds == deadline),
        "a round that dropped someone lasts the deadline"
    );
    assert!(result
        .rounds
        .iter()
        .any(|r| r.dropped_clients == 0 && r.round_wall_seconds < deadline));
}

#[test]
fn async_lds_classifier_with_an_offline_tier() {
    let (fed, model) = setup();
    let config = Method::FedFtLds { pds: 0.5 }
        .configure(base(4, 7))
        .with_freeze(FreezeLevel::Classifier)
        .with_participation(0.5)
        .with_heterogeneity(flaky_two_tier())
        .with_async(2);
    let result = pinned(config, &fed, &model, 0x48c8_e95b_a02d_562a);
    assert!(result.stale_update_count() > 0, "no update was stale");
}

#[test]
fn async_at_staleness_zero_drops_offline_clients_without_a_deadline() {
    let (fed, model) = setup();
    let config = Method::FedFtEds { pds: 0.25 }
        .configure(base(3, 10))
        .with_heterogeneity(flaky_two_tier())
        .with_async(0);
    let result = pinned(config, &fed, &model, 0xdf48_ea67_9cb7_32ca);
    assert!(result.total_dropped_clients() > 0, "nobody was offline");
    assert_eq!(result.max_update_staleness(), 0);
}

#[test]
fn streaming_gns_burst_arrivals_into_a_small_buffer() {
    let (fed, model) = setup();
    let config = Method::FedFtGns { pds: 0.5 }
        .configure(base(4, 8))
        .with_heterogeneity(flaky_two_tier());
    let mean_offset_seconds = sorted_predictions(&fed, &model, &config)[CLIENTS / 2];
    let params = StreamingParams::new(3)
        .with_max_staleness(2)
        .with_arrival(ArrivalModel::Burst {
            mean_offset_seconds,
        });
    let result = pinned(
        config.with_streaming(params),
        &fed,
        &model,
        0xdf23_5388_5a07_df9f,
    );
    assert!(result.total_carried_updates() > 0, "nothing was carried");
    assert!(result.stale_update_count() > 0, "no update was stale");
}

#[test]
fn budgeted_logical_pool_with_shared_scores() {
    let (fed, model) = setup();
    let config = Method::FedFtEds { pds: 0.5 }
        .configure(base(3, 9))
        .with_logical_clients(6 * CLIENTS)
        .with_participation(0.25)
        .with_feature_cache(true)
        .with_cache_budget(4 << 10)
        .with_execution(ExecutionBackend::Parallel)
        .with_worker_threads(2);
    let result = pinned(config, &fed, &model, 0x6fc9_122b_995d_d7bf);
    assert!(result.total_cache_evictions() > 0, "the budget never bit");
}
