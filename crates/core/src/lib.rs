//! # fedft-core
//!
//! The federated-learning engine of the FedFT-EDS reproduction, implementing
//! the paper's proposed method and every baseline it compares against:
//!
//! * **FedFT-EDS** — federated fine-tuning of the upper part of a pretrained
//!   model, with per-round entropy-based data selection using a hardened
//!   softmax (temperature ρ < 1).
//! * **Baselines** — FedAvg, FedProx (proximal term), their random-data-
//!   selection variants (FedAvg-RDS, FedProx-RDS), FedFT-RDS (partial
//!   fine-tuning + random selection), FedFT-ALL (partial fine-tuning, all
//!   data), FedAvg without pretraining, and a centralised upper bound.
//! * **Simulation machinery** — synchronous rounds, client participation /
//!   straggler modelling, weighted aggregation of the trainable parameters,
//!   a deterministic FLOP-based training-time cost model, and per-round
//!   metrics (test accuracy, learning curves, learning efficiency).
//! * **Device heterogeneity** — tiered device populations
//!   ([`device::HeterogeneityModel`]) with compute/network multipliers and
//!   per-round availability, plus a virtual-clock
//!   [`ExecutionBackend::Deadline`] backend that drops clients missing a
//!   round deadline — making the paper's straggler effect *emergent* instead
//!   of a fixed participation fraction.
//! * **Asynchronous bounded-staleness rounds** — the event-driven
//!   [`ExecutionBackend::Async`] backend overlaps aggregation rounds instead
//!   of dropping stragglers: clients train against the global-model version
//!   available at dispatch (at most `max_staleness` versions behind) and
//!   [`Server::aggregate_stale`] discounts stale updates under the one
//!   weight rule every aggregation uses; `max_staleness = 0` (with no
//!   offline probability) reproduces the synchronous backends bit for bit.
//! * **Streaming serving mode** — [`ExecutionBackend::Streaming`] turns
//!   rounds into continuous update traffic: clients arrive per a pluggable
//!   [`device::ArrivalModel`] (steady/burst/diurnal, on a dedicated seeded
//!   RNG stream), train on the freshest model at dispatch, and the server
//!   flushes its buffer FedBuff-style every `K` updates or `T` simulated
//!   seconds ([`Server::aggregate_buffered`]); the degenerate configuration
//!   (`K` = cohort size, steady arrivals, staleness bound 0) reproduces the
//!   synchronous backends bit for bit.
//! * **Logical client pools & shard-deduplicated caching** — a
//!   [`simulation::ClientPool`] maps `N` simulated clients onto `M ≪ N`
//!   physical shards, and a shared [`cache::CacheRegistry`] (keyed by
//!   source checksum, backbone fingerprint and freeze level, with an
//!   optional LRU byte budget) holds each shard's frozen-prefix boundary
//!   activations **once**, so both data and cache memory scale with shards
//!   rather than with the simulated cohort size.
//!
//! ## Example
//!
//! ```no_run
//! use fedft_core::{FlConfig, Method, Simulation};
//! use fedft_core::pretrain::pretrain_global_model;
//! use fedft_data::{domains, FederatedDataset, federated::PartitionScheme};
//! use fedft_nn::BlockNetConfig;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Source domain (pretraining) and target domain (federated task).
//! let source = domains::source_imagenet32().with_samples_per_class(30).generate(1)?;
//! let target = domains::cifar10_like().with_samples_per_class(30).generate(2)?;
//!
//! let model_cfg = BlockNetConfig::new(target.train.feature_dim(), target.train.num_classes());
//! let global = pretrain_global_model(&model_cfg, &source, 3, 11)?;
//!
//! let fed = FederatedDataset::partition(
//!     &target.train,
//!     target.test.clone(),
//!     10,
//!     PartitionScheme::Dirichlet { alpha: 0.1 },
//!     3,
//! )?;
//!
//! let config = Method::FedFtEds { pds: 0.1 }.configure(FlConfig::default().with_rounds(10));
//! let result = Simulation::new(config)?.run(&fed, &global)?;
//! println!("best accuracy: {:.2}%", 100.0 * result.best_accuracy());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod error;

pub mod baseline;
pub mod cache;
pub mod client;
pub mod comm;
pub mod config;
pub mod cost;
pub mod device;
pub mod entropy;
pub mod executor;
pub mod methods;
pub mod metrics;
pub mod participation;
pub mod policy;
pub mod pretrain;
pub mod selection;
pub mod server;
pub mod simulation;

pub use cache::{
    CacheRegistry, CacheStats, FeatureCache, ScoreKind, ScoreSlot, ScoreStats, ShardKey,
};
pub use client::{Client, ClientUpdate, ClientWorkspace};
pub use config::{FlConfig, LocalAlgorithm};
pub use cost::CostModel;
pub use device::{ArrivalModel, DeviceProfile, DeviceTier, HeterogeneityModel};
pub use error::FlError;
pub use executor::{
    DropReason, DroppedClient, ExecutionBackend, Executor, FlushRecord, FlushTrigger, RoundOutcome,
    RoundTiming, StreamingParams, UpdateTiming,
};
pub use methods::Method;
pub use metrics::{RoundRecord, RunResult};
pub use participation::ParticipationModel;
pub use policy::{ClientSampler, ClientSelection, SelectionContext};
pub use selection::SelectionStrategy;
pub use server::Server;
pub use simulation::{ClientPool, Simulation};

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, FlError>;
