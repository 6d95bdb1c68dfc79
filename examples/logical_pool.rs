//! Logical client pools over a shared, byte-budgeted cache registry.
//!
//! The same 8-shard federated task is run as pools of 8, 80 and 800
//! *logical* clients (logical client `i` holds physical shard `i % 8`),
//! with the frozen-feature cache on. Under the shared `CacheRegistry`
//! every client holding the same shard resolves to one cached copy of the
//! boundary activations, so **peak cache bytes stay flat while the cohort
//! grows 100×** — the sweep prints the per-run hit/miss/peak counters to
//! show it.
//!
//! Run with: `cargo run --release --example logical_pool`

use fedft::core::{FlConfig, Method, RunResult, Simulation};
use fedft::data::federated::PartitionScheme;
use fedft::data::{domains, FederatedDataset};
use fedft::nn::{BlockNet, BlockNetConfig};

const SHARDS: usize = 8;
const ROUNDS: usize = 3;
const SEED: u64 = 17;
/// Every round samples about this many logical clients, however large the
/// pool is, so the sweep's compute stays constant while the cohort grows.
const PARTICIPANTS_PER_ROUND: usize = 8;

fn describe(label: &str, result: &RunResult) {
    println!(
        "{label:<24} {:>8.2} {:>9.1} {:>7} {:>7} {:>7} {:>12}",
        result.best_accuracy() * 100.0,
        result.mean_participants(),
        result.total_cache_hits(),
        result.total_cache_misses(),
        result.total_cache_evictions(),
        result.peak_cache_bytes(),
    );
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let target = domains::cifar10_like()
        .with_samples_per_class(24)
        .with_test_samples_per_class(6)
        .generate(2)?;
    let fed = FederatedDataset::partition(
        &target.train,
        target.test.clone(),
        SHARDS,
        PartitionScheme::Dirichlet { alpha: 0.5 },
        3,
    )?;
    let model_cfg = BlockNetConfig::new(target.train.feature_dim(), target.train.num_classes())
        .with_hidden(24, 24, 24);
    let model = BlockNet::new(&model_cfg, 5);

    let base = |logical: usize| {
        Method::FedFtEds { pds: 0.5 }.configure(
            FlConfig::default()
                .with_rounds(ROUNDS)
                .with_local_epochs(1)
                .with_batch_size(16)
                .with_seed(SEED)
                .with_logical_clients(logical)
                .with_participation(PARTICIPANTS_PER_ROUND as f64 / logical as f64)
                .with_feature_cache(true)
                .serial(),
        )
    };

    println!(
        "{SHARDS} physical shards, Dirichlet(0.5), {ROUNDS} rounds, \
         ~{PARTICIPANTS_PER_ROUND} participants per round\n"
    );
    println!(
        "{:<24} {:>8} {:>9} {:>7} {:>7} {:>7} {:>12}",
        "pool", "acc (%)", "clients", "hits", "misses", "evicts", "peak bytes"
    );

    let mut shared_peak = 0usize;
    for logical in [SHARDS, 10 * SHARDS, 100 * SHARDS] {
        let result = Simulation::new(base(logical))?.run_labelled(
            format!("{logical} logical (shared)"),
            &fed,
            &model,
        )?;
        shared_peak = shared_peak.max(result.peak_cache_bytes());
        describe(&result.label.clone(), &result);
    }

    println!(
        "\nShared-registry peak stays at {shared_peak} bytes (≤ one entry per\n\
         distinct shard) while the pool grows 100×."
    );
    Ok(())
}
