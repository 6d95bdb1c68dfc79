//! # fedft-nn
//!
//! Neural-network substrate for the FedFT-EDS reproduction: a
//! block-structured model mirroring the paper's WRN layer groups — four
//! dense blocks (low → mid → up, each Dense + ReLU, then a Dense head) with
//! manual forward/backward passes —, an SGD optimiser with momentum and an
//! optional FedProx proximal term, parameter (de)serialisation for
//! client/server communication, FLOP accounting for the training-time cost
//! model, and [`fit`], the centralised loop used for pretraining and the
//! "Centralised" baseline.
//!
//! One thing trains: [`SuffixNet`], a snapshot of the blocks above a freeze
//! boundary. [`BlockNet`] holds parameters, runs inference and fingerprints
//! its frozen prefix; a trained snapshot goes back into it through
//! [`BlockNet::set_trainable_vector`], its one parameter writer.
//!
//! The paper trains a WRN-16-1 on CIFAR with PyTorch; this substrate
//! substitutes a pure-Rust block MLP, as documented in `ARCHITECTURE.md`. The
//! federated-learning mechanics only require a model that can be split into a
//! frozen lower part and a trainable upper part, which [`BlockNet`] provides
//! (and [`SuffixNet`], the trainable part on its own).
//!
//! ## Example
//!
//! ```
//! use fedft_nn::{BlockNet, BlockNetConfig, FreezeLevel};
//! use fedft_tensor::Matrix;
//!
//! # fn main() -> Result<(), fedft_nn::NnError> {
//! let config = BlockNetConfig::new(8, 4).with_hidden(16, 16, 16);
//! let mut net = BlockNet::new(&config, 42);
//! let x = Matrix::zeros(2, 8);
//! let logits = net.forward(&x)?;
//! assert_eq!(logits.shape(), (2, 4));
//! assert!(net.trainable_parameter_count(FreezeLevel::Moderate)
//!     < net.trainable_parameter_count(FreezeLevel::Full));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod dense;
mod error;

pub mod block;
pub mod flops;
pub mod freeze;
pub mod loss;
pub mod optimizer;
pub mod params;
pub mod suffix;
pub mod trainer;

pub use block::{BlockId, BlockNet, BlockNetConfig, EvalReport};
pub use error::NnError;
pub use freeze::FreezeLevel;
pub use loss::SoftmaxCrossEntropy;
pub use optimizer::{ProximalTerm, Sgd, SgdConfig};
pub use params::ParamVector;
pub use suffix::SuffixNet;
pub use trainer::fit;

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, NnError>;
