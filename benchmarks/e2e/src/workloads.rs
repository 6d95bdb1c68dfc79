//! The four benchmark workloads and their set-up.
//!
//! Set-up is everything a user does before `Simulation::run`: generate the
//! source and target domains, partition the target across shards and
//! pretrain the global model. Every random choice in it but the partition
//! (see `PARTITION_SEED`), and `FlConfig::seed`, derives from the one
//! `--seed`; the simulator sees only the generated inputs.

use fedft_core::pretrain::pretrain_global_model;
use fedft_core::{
    ArrivalModel, ExecutionBackend, FlConfig, HeterogeneityModel, Method, StreamingParams,
};
use fedft_data::federated::PartitionScheme;
use fedft_data::{domains, FederatedDataset};
use fedft_nn::{BlockNet, BlockNetConfig, FreezeLevel};
use fedft_tensor::rng::derive_seed;

/// Source-domain samples per class and pretraining epochs: the same small
/// pretraining on every workload, so `setup_s` differs between workloads
/// only through data size and model width.
const SOURCE_PER_CLASS: usize = 60;
const PRETRAIN_EPOCHS: usize = 5;
/// The partition does not follow `--seed`: shard sizes, and with them the
/// work in a round and its split over the workers, would differ from seed
/// to seed by more than the regression bounds. The seed still decides every
/// feature value, the model's initial weights, and through `FlConfig::seed`
/// who is sampled, who drops, who arrives when and which samples are kept.
const PARTITION_SEED: u64 = 0x5EED_5A4D;
/// `--quick` divides every workload's rounds by this.
const QUICK_DIVISOR: usize = 5;

/// One workload: its data sizes, model width, round count and `FlConfig`.
pub struct Workload {
    pub name: &'static str,
    /// One line on which layers the workload stresses and which it bypasses.
    pub why: &'static str,
    train_per_class: usize,
    test_per_class: usize,
    shards: usize,
    hidden: usize,
    rounds: usize,
    configure: fn(FlConfig, &FederatedDataset, usize) -> FlConfig,
}

/// What set-up hands to the simulator.
pub struct Inputs {
    pub data: FederatedDataset,
    pub model: BlockNet,
    pub config: FlConfig,
}

/// The workloads, in the order every report lists them.
///
/// Round counts are the issue's prototype counts (30, 50, 160 and 100) times
/// 0.4, and times 0.3 for `logical_pool`, whose rounds turned out slower
/// than the prototype's: cut so that one `Simulation::run` takes about two
/// seconds on two cores and several timed runs fit in one measuring window.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "paper_default",
        why: "Table II setting: suffix training dominates, cache read-mostly, Parallel backend",
        train_per_class: 600,
        test_per_class: 100,
        shards: 10,
        hidden: 256,
        rounds: 12,
        configure: |base, _, _| {
            Method::FedFtEds { pds: 0.5 }.configure(
                base.with_local_epochs(5)
                    .with_batch_size(32)
                    .with_feature_cache(true),
            )
        },
    },
    Workload {
        name: "eval_heavy",
        why: "2-client cohort, 10k test set: per-round evaluation dominates; bypasses training and the pool",
        train_per_class: 100,
        test_per_class: 1000,
        shards: 10,
        hidden: 256,
        rounds: 20,
        configure: |base, _, _| {
            Method::FedFtEds { pds: 0.5 }
                .configure(
                    base.with_local_epochs(1)
                        .with_batch_size(32)
                        .with_participation(0.2)
                        .with_feature_cache(true)
                        .serial(),
                )
                .with_freeze(FreezeLevel::Classifier)
        },
    },
    Workload {
        name: "logical_pool",
        why: "20k logical clients, tiny updates, half-size cache budget: selection, cache misses and fixed costs dominate",
        train_per_class: 240,
        test_per_class: 100,
        shards: 100,
        hidden: 96,
        rounds: 48,
        configure: |base, data, hidden| {
            // Half the bytes of every shard's boundary activations, so the
            // cache keeps evicting and rebuilding: its write path.
            let working_set = data.total_train_samples() * hidden * std::mem::size_of::<f32>();
            Method::FedFtEds { pds: 0.1 }.configure(
                base.with_local_epochs(1)
                    .with_batch_size(16)
                    .with_logical_clients(20_000)
                    .with_participation(0.02)
                    .with_feature_cache(true)
                    .with_cache_budget(working_set / 2)
                    .with_heterogeneity(HeterogeneityModel::three_tier())
                    .with_execution(ExecutionBackend::Deadline),
            )
        },
    },
    Workload {
        name: "stream_nocache",
        why: "Streaming backend, cache off: event clock, stale buffered aggregation, frozen prefix recomputed per batch",
        train_per_class: 600,
        test_per_class: 100,
        shards: 40,
        hidden: 192,
        rounds: 40,
        configure: |base, _, _| {
            Method::FedFtEds { pds: 0.5 }
                .configure(
                    base.with_local_epochs(2)
                        .with_batch_size(16)
                        .with_participation(0.5)
                        .with_heterogeneity(HeterogeneityModel::three_tier())
                        .with_streaming(
                            StreamingParams::new(12)
                                .with_max_staleness(2)
                                .with_arrival(ArrivalModel::Burst {
                                    mean_offset_seconds: 2.0,
                                }),
                        ),
                )
                .with_freeze(FreezeLevel::Large)
        },
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Rounds per `Simulation::run`; `quick` is for smoke runs only.
    pub fn rounds(&self, quick: bool) -> usize {
        if quick {
            (self.rounds / QUICK_DIVISOR).max(1)
        } else {
            self.rounds
        }
    }

    /// Runs the whole set-up for `seed`.
    pub fn setup(&self, seed: u64, quick: bool) -> Result<Inputs, Box<dyn std::error::Error>> {
        let source = domains::source_imagenet32()
            .with_samples_per_class(SOURCE_PER_CLASS)
            .generate(derive_seed(seed, "bench-source"))?;
        let target = domains::cifar10_like()
            .with_samples_per_class(self.train_per_class)
            .with_test_samples_per_class(self.test_per_class)
            .generate(derive_seed(seed, "bench-target"))?;
        let data = FederatedDataset::partition(
            &target.train,
            target.test.clone(),
            self.shards,
            PartitionScheme::Dirichlet { alpha: 0.5 },
            PARTITION_SEED,
        )?;
        let model_cfg = BlockNetConfig::new(target.train.feature_dim(), target.train.num_classes())
            .with_hidden(self.hidden, self.hidden, self.hidden);
        let model = pretrain_global_model(
            &model_cfg,
            &source,
            PRETRAIN_EPOCHS,
            derive_seed(seed, "bench-pretrain"),
        )?;
        let base = FlConfig::default()
            .with_rounds(self.rounds(quick))
            .with_seed(derive_seed(seed, "bench-fl"));
        let config = (self.configure)(base, &data, self.hidden);
        Ok(Inputs {
            data,
            model,
            config,
        })
    }
}
