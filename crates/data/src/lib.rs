//! # fedft-data
//!
//! Dataset substrate for the FedFT-EDS reproduction: an in-memory labelled
//! [`Dataset`] type, synthetic latent-factor classification *domains* standing
//! in for CIFAR-10, CIFAR-100, Small-ImageNet-32 and Google Speech Commands
//! (no real datasets can be downloaded in the reproduction environment — see
//! `ARCHITECTURE.md` for the substitution argument), and the Dirichlet non-IID
//! partitioner used throughout the paper's experiments.
//!
//! ## Example
//!
//! ```
//! use fedft_data::{domains, partition};
//!
//! # fn main() -> Result<(), fedft_data::DataError> {
//! // A small CIFAR-10-like domain: 10 classes in a shared latent space.
//! let spec = domains::cifar10_like().with_samples_per_class(20);
//! let bundle = spec.generate(42)?;
//! assert_eq!(bundle.train.num_classes(), 10);
//!
//! // Partition the training data across 5 clients with strong label skew.
//! let shards = partition::dirichlet_partition(&bundle.train, 5, 0.1, 7)?;
//! assert_eq!(shards.iter().map(Vec::len).sum::<usize>(), bundle.train.len());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;

pub mod dataset;
pub mod domains;
pub mod federated;
pub mod partition;

pub use dataset::Dataset;
pub use domains::{DomainBundle, DomainSpec};
pub use error::DataError;
pub use federated::FederatedDataset;

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, DataError>;
