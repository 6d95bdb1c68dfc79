//! Asynchronous bounded-staleness rounds: overlap instead of dropping.
//!
//! The deadline scheduler (`examples/heterogeneity.rs`) answers stragglers
//! by dropping them; the async executor answers them by letting rounds
//! *overlap*. A 24-client two-tier pool with 50% participation runs the
//! same FedFT-EDS task under a sweep of `max_staleness` bounds:
//!
//! * `s ≤ 0` stalls every dispatch until the current global model exists —
//!   the synchronous reference, bit-identical to the `Sequential` backend
//!   (asserted below);
//! * larger bounds let clients train against models up to `s` versions old,
//!   so fast devices no longer idle while a slow-tier client finishes and
//!   the simulated wall clock shrinks — at the price of stale updates,
//!   which the server discounts by `1 / (1 + staleness)` during
//!   aggregation.
//!
//! Run with: `cargo run --release --example async_staleness`

use fedft::core::pretrain::pretrain_global_model;
use fedft::core::{FlConfig, HeterogeneityModel, Method, Simulation};
use fedft::data::federated::PartitionScheme;
use fedft::data::{domains, FederatedDataset};
use fedft::nn::BlockNetConfig;

const CLIENTS: usize = 24;
const ROUNDS: usize = 8;
const SEED: u64 = 11;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let source = domains::source_imagenet32()
        .with_samples_per_class(80)
        .generate(1)?;
    let target = domains::cifar10_like()
        .with_samples_per_class(32)
        .generate(2)?;
    let fed = FederatedDataset::partition(
        &target.train,
        target.test.clone(),
        CLIENTS,
        PartitionScheme::Dirichlet { alpha: 0.5 },
        3,
    )?;
    let model_cfg = BlockNetConfig::new(target.train.feature_dim(), target.train.num_classes());
    let pretrained = pretrain_global_model(&model_cfg, &source, 15, 7)?;

    let base = Method::FedFtEds { pds: 0.1 }.configure(
        FlConfig::default()
            .with_rounds(ROUNDS)
            .with_local_epochs(2)
            .with_seed(SEED)
            .with_participation(0.5)
            .with_heterogeneity(HeterogeneityModel::two_tier()),
    );

    // The synchronous reference every async run is compared against.
    let sequential =
        Simulation::new(base.clone().serial())?.run_labelled("seq", &fed, &pretrained)?;
    let sync_wall = sequential.total_wall_seconds();

    println!(
        "{CLIENTS} clients, two-tier mix, 50% participation, {ROUNDS} rounds\n\
         synchronous wall clock: {sync_wall:.1}s simulated\n"
    );
    println!(
        "{:<12} {:>8} {:>10} {:>9} {:>11} {:>11}",
        "bound", "acc (%)", "wall (s)", "speedup", "mean stale", "max stale"
    );
    for max_staleness in [0usize, 1, 2, 4] {
        let config = base.clone().with_async(max_staleness);
        let label = format!("async s≤{max_staleness}");
        let result = Simulation::new(config)?.run_labelled(label.clone(), &fed, &pretrained)?;
        if max_staleness == 0 {
            // The determinism contract: a zero staleness bound reproduces
            // the sequential round history bit for bit.
            assert_eq!(
                result.rounds, sequential.rounds,
                "async s<=0 must match the sequential history"
            );
        }
        assert!(result.max_update_staleness() <= max_staleness);
        println!(
            "{label:<12} {:>8.2} {:>10.1} {:>8.2}x {:>11.2} {:>11}",
            result.best_accuracy() * 100.0,
            result.total_wall_seconds(),
            sync_wall / result.total_wall_seconds(),
            result.mean_update_staleness(),
            result.max_update_staleness(),
        );
    }
    println!(
        "\nA zero bound stalls dispatch until the fresh model exists (and is\n\
         bit-identical to the sequential backend, asserted above); relaxing\n\
         it overlaps rounds, shrinking the simulated wall clock while the\n\
         server discounts stale updates during aggregation."
    );
    Ok(())
}
