//! Allocation guard for the local update: on a workspace that has served one
//! client, with a recycled upload buffer, [`Client::local_update_in`]
//! allocates nothing as large as `θ` — no model snapshot, no gradient
//! buffers, no velocities, no FedProx reference, no upload.
//!
//! This extends `crates/nn/tests/step_allocs.rs` (a warm *step* allocates
//! nothing) across the client boundary: a round is one or two steps per
//! client, so the step is only ever warm if what it runs on outlives the
//! client. Smaller allocations remain and are not this guard's business: the
//! selection scores, the indices a policy returns, a scoring pass over the
//! shard. Of those, the scores shared through the registry get a guard of
//! their own: a slot of the score tier outlives the update that fills it, so
//! once it exists neither a put nor a read may allocate at all.
//!
//! The counter is per thread and the allocator per test binary, so every test
//! here counts only what its own thread allocates.

use fedft_core::{
    CacheRegistry, Client, ClientWorkspace, FlConfig, LocalAlgorithm, ScoreKind, SelectionStrategy,
    ShardKey,
};
use fedft_data::Dataset;
use fedft_nn::{BlockNet, BlockNetConfig, FreezeLevel};
use fedft_tensor::{init, parallel, rng};

#[path = "support/counting_allocator.rs"]
mod counting_allocator;
use counting_allocator::{large_allocations, CountingAllocator};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn a_warm_local_update_allocates_nothing_theta_sized() {
    // A shard small against θ, as in `logical_pool`: every matrix a scoring
    // pass or a frozen forward makes (20 × 48 floats) is well under 4·|θ|.
    let config = BlockNetConfig::new(24, 10).with_hidden(48, 48, 48);
    let model = BlockNet::new(&config, 17);
    let mut r = rng::rng_for(17, "update-allocs");
    let features = init::normal(&mut r, 20, 24, 0.0, 1.0);
    let shard = Dataset::new(features, (0..20).map(|i| i % 10).collect(), 10).unwrap();
    let client = Client::new(4, shard);

    let entropy = SelectionStrategy::Entropy {
        fraction: 0.5,
        temperature: 0.1,
    };
    // Ten selected samples in batches of 8: a full batch and a short one.
    let base = FlConfig::default()
        .with_rounds(3)
        .with_local_epochs(2)
        .with_batch_size(8);
    let paths = [
        (
            "cached",
            base.clone()
                .with_selection(entropy)
                .with_feature_cache(true),
        ),
        (
            "uncached, FedProx",
            base.clone()
                .with_selection(entropy)
                .with_algorithm(LocalAlgorithm::FedProx { mu: 0.1 }),
        ),
        ("full", base.with_freeze(FreezeLevel::Full)),
    ];

    // One workspace through all three: each path's first update also meets
    // what the previous path's freeze level and algorithm left behind.
    let mut workspace = ClientWorkspace::default();
    for (path, config) in paths {
        let theta_bytes = 4 * model.trainable_parameter_count(config.freeze);
        let mut upload = Vec::new();
        for round in 0..3 {
            // Under `single_threaded` no kernel hands work to a pool thread,
            // whose allocations this thread's counter would not see.
            let (large, update) = large_allocations(theta_bytes, || {
                parallel::single_threaded(|| {
                    client.local_update_in(&mut workspace, upload, &model, &config, round)
                })
                .unwrap()
            });
            assert_eq!(
                update,
                client.local_update(&model, &config, round).unwrap(),
                "{path}, round {round}"
            );
            if round == 0 {
                assert!(large > 0, "{path}: the counter sees a cold update");
            } else {
                assert_eq!(
                    large, 0,
                    "{path}, round {round}: allocations of {theta_bytes} bytes or more"
                );
            }
            // What `Executor::recycle` does with an aggregated update.
            upload = update.theta.into_values();
        }
    }
}

#[test]
fn a_warm_score_slot_allocates_nothing_per_put_or_read() {
    let config = BlockNetConfig::new(24, 10).with_hidden(48, 48, 48);
    let mut model = BlockNet::new(&config, 17);
    let mut r = rng::rng_for(17, "slot-allocs");
    let features = init::normal(&mut r, 20, 24, 0.0, 1.0);
    let shard = Dataset::new(features, (0..20).map(|i| i % 10).collect(), 10).unwrap();
    let key = ShardKey::of(&shard);
    let registry = CacheRegistry::new();
    let freeze = FreezeLevel::Moderate;
    let kind = ScoreKind::entropy(0.1);
    let mut out = Vec::new();

    // One model version a round, as the server's aggregation makes them: the
    // first to score pays for the slot and the reader's buffer, no later one
    // for anything.
    for round in 0..4 {
        let theta = BlockNet::new(&config, 100 + round).trainable_vector(freeze);
        model.set_trainable_vector(freeze, &theta).unwrap();
        let scores: Vec<f32> = (0..shard.len())
            .map(|i| (i as u64 + round) as f32)
            .collect();
        let (allocations, ()) = large_allocations(1, || {
            let slot = registry.score_slot(key, &model, freeze);
            assert!(
                !slot.read_into(kind, &mut out),
                "round {round}: stale scores"
            );
            slot.store(kind, &scores);
            assert!(slot.read_into(kind, &mut out));
        });
        assert_eq!(out, scores);
        if round == 0 {
            assert!(allocations > 0, "the counter sees the slot being made");
        } else {
            assert_eq!(allocations, 0, "round {round}: a put or a read allocated");
        }
    }
    assert_eq!(registry.score_stats().slots, 1);
}
