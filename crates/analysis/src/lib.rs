//! # fedft-analysis
//!
//! Analysis utilities for the FedFT-EDS reproduction:
//!
//! * [`cka`] — linear Centered Kernel Alignment between client-updated
//!   models, reproducing the model-shift analysis of Figures 2–4.
//! * [`curves`] — learning-curve and learning-efficiency summaries over
//!   [`fedft_core::RunResult`]s (Figures 5–9).
//! * [`report`] — plain-text / Markdown / CSV table builders used by the
//!   experiment harness to print the paper's tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cka;
pub mod curves;
pub mod report;

pub use report::Table;
