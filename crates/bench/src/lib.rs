//! # fedft-bench
//!
//! Experiment harness regenerating every table and figure of the FedFT-EDS
//! paper. The crate has four layers:
//!
//! * [`profile`] — experiment scaling profiles (`tiny` for the unit tests
//!   and the CI smoke, `fast` for the default minutes-long runs, `paper` for
//!   paper-scale runs); every experiment is parameterised by a profile so
//!   the same code produces all three.
//! * [`setup`] — the [`setup::World`] of one target task: its data, the
//!   pretrained and scratch models and the centralised upper bound, built
//!   once and split across clients at any Dirichlet α; plus the base
//!   configurations.
//! * [`scenario`] — the one runner: a lineup of labelled configurations,
//!   each with its initial model, played on one (task, α) split of a world
//!   into a [`scenario::Scenario`], and the long-format tables rendered from
//!   a list of scenarios.
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
pub mod scenario;
pub mod setup;

pub use profile::ExperimentProfile;
