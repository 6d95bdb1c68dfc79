//! Allocation guard for the stale-version path of an event round: a warm
//! `Streaming` round whose flush trains dispatches of three or more older
//! model versions allocates nothing as large as a frozen block's weight —
//! no model is built for an older version. An older version is the live
//! global model as backbone with the version's `θ` snapshot, which the event
//! clock already holds, so the only copies of `ϕ` a run makes are the
//! caller's.
//!
//! The counting allocator is `support/counting_allocator.rs`, shared with
//! `update_allocs.rs`: per thread, so the round runs inline (one worker) and
//! single-threaded, and every allocation the executor and its clients make
//! is seen here.

use fedft_core::{
    Client, ExecutionBackend, FlConfig, HeterogeneityModel, Method, Server, StreamingParams,
};
use fedft_data::Dataset;
use fedft_nn::{BlockNet, BlockNetConfig, FreezeLevel};
use fedft_tensor::{init, parallel, rng};
use std::collections::HashSet;

#[path = "support/counting_allocator.rs"]
mod counting_allocator;
use counting_allocator::{large_allocations, CountingAllocator};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn a_warm_flush_of_stale_versions_allocates_no_frozen_block() {
    // A frozen prefix wide against θ: the lower block's weight (64 × 128
    // floats, 32 KB) is the smallest frozen one, and it outweighs θ at
    // `Moderate` (about 4.5k floats), every upload and snapshot of it, and
    // every activation matrix of a shard of at most 45 rows.
    let model_config = BlockNetConfig::new(64, 10).with_hidden(128, 128, 32);
    let frozen_weight_bytes = 4 * 64 * 128;
    let clients: Vec<Client> = (0..8)
        .map(|id| {
            let samples = 10 + 5 * id;
            let mut r = rng::rng_for_indexed(23, "stale-round-allocs", id as u64);
            let features = init::normal(&mut r, samples, 64, 0.0, 1.0);
            let labels = (0..samples).map(|i| i % 10).collect();
            Client::new(id, Dataset::new(features, labels, 10).unwrap())
        })
        .collect();
    let cohort: Vec<&Client> = clients.iter().collect();

    // The counter sees a model copy: two frozen blocks at least.
    let (copies, _) = large_allocations(frozen_weight_bytes, || {
        BlockNet::new(&model_config, 5).clone()
    });
    assert!(copies >= 2, "a model copy allocates its frozen blocks");

    for cache in [false, true] {
        // A buffer of 4 against 8 arrivals a round: the backlog grows, and
        // later flushes train dispatches of several older versions at once.
        let config = Method::FedFtEds { pds: 0.5 }
            .configure(FlConfig::default())
            .with_local_epochs(1)
            .with_batch_size(8)
            .with_freeze(FreezeLevel::Moderate)
            .with_feature_cache(cache)
            .with_heterogeneity(HeterogeneityModel::two_tier())
            .with_seed(3);
        let executor =
            ExecutionBackend::Streaming(StreamingParams::new(4)).executor_with_workers(Some(1));
        let mut global = BlockNet::new(&model_config, 5);
        let mut widest_warm_flush = 0;
        for round in 0..10 {
            let (large, outcome) = large_allocations(frozen_weight_bytes, || {
                parallel::single_threaded(|| executor.run_round(&cohort, &global, &config, round))
                    .unwrap()
            });
            let stale: HashSet<usize> = outcome
                .update_staleness()
                .into_iter()
                .filter(|&lag| lag > 0)
                .collect();
            // Round 0 is the cold one: workspaces, buffers and, with the cache
            // on, every shard's boundary are made there.
            if round > 0 {
                assert_eq!(
                    large,
                    0,
                    "cache {cache}, round {round}: a flush of {} stale versions made {large} \
                     allocations of {frozen_weight_bytes} bytes or more",
                    stale.len()
                );
                widest_warm_flush = widest_warm_flush.max(stale.len());
            }
            // Advance the model as the simulation would, so the versions
            // differ in θ, and hand the uploads back.
            let theta = Server::new()
                .aggregate_stale(&outcome.updates, &outcome.update_staleness(), round)
                .unwrap();
            global.set_trainable_vector(config.freeze, &theta).unwrap();
            executor.recycle(outcome.updates);
        }
        assert!(
            widest_warm_flush >= 3,
            "cache {cache}: no warm flush trained three stale versions (at most {widest_warm_flush})"
        );
    }
}
