//! # fedft-tensor
//!
//! Dense `f32` matrix and numerical substrate for the FedFT-EDS reproduction.
//!
//! The crate provides the small amount of linear algebra required by the
//! neural-network and federated-learning crates of this workspace:
//!
//! * [`Matrix`] — a row-major, heap-allocated dense `f32` matrix with the
//!   elementwise, reduction and matrix-product operations needed for
//!   forward/backward passes.
//! * [`init`] — deterministic weight initialisation schemes (Xavier/Glorot,
//!   He/Kaiming, uniform, normal).
//! * [`stats`] — numerically stable softmax / log-softmax, Shannon entropy,
//!   argmax, accuracy and summary statistics.
//! * [`rng`] — seed-derivation helpers so that every component of the
//!   simulation can own an independent but reproducible random stream.
//! * [`pool`] — the process-wide persistent worker pool every parallel hot
//!   path (kernel row splits, round executors, aggregation) dispatches
//!   through, with deterministic chunk boundaries so parallelism never
//!   changes results.
//!
//! Everything is deterministic given a seed, which the rest of the workspace
//! relies on for reproducible federated-learning simulations.
//!
//! ## Example
//!
//! ```
//! use fedft_tensor::Matrix;
//!
//! # fn main() -> Result<(), fedft_tensor::TensorError> {
//! let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]])?;
//! let b = Matrix::identity(2);
//! let c = a.matmul(&b)?;
//! assert_eq!(c.get(1, 0), 3.0);
//! # Ok(())
//! # }
//! ```

// `deny` rather than `forbid`: the worker pool's job hand-off to parked
// threads needs a scoped lifetime erasure (the same one every scoped-thread
// library performs) and carries a module-local allowance with a documented
// soundness argument — see `pool.rs`. Every other module stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod kernels;
mod matrix;

pub mod init;
pub mod parallel;
pub mod pool;
pub mod rng;
pub mod stats;

pub use error::TensorError;
pub use matrix::Matrix;

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, TensorError>;
