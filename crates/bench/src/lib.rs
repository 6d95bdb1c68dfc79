//! # fedft-bench
//!
//! Experiment harness regenerating every table and figure of the FedFT-EDS
//! paper. The crate has three layers:
//!
//! * [`profile`] — experiment scaling profiles (`fast` for CI-sized runs,
//!   `paper` for paper-scale runs); every experiment is parameterised by a
//!   profile so the same code produces both.
//! * [`setup`] — shared plumbing: building the synthetic domains, pretraining
//!   the global model, partitioning clients, and running named methods.
//! * [`experiments`] — one module per table/figure with a `run` function that
//!   returns the rows/series the paper reports.
//!
//! The `src/bin/*` binaries are thin wrappers that run an experiment, print
//! its tables and write CSV files under `results/`. [`regression`] holds
//! only the JSON parser `benchmarks/e2e` reads its documents with; every
//! timing belongs to that benchmark.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod output;
pub mod profile;
pub mod regression;
pub mod setup;

pub use profile::ExperimentProfile;
