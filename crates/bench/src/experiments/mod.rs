//! One module per table / figure of the paper.
//!
//! | Module | Reproduces |
//! |---|---|
//! | [`table1`] | Table I — pretraining improves FedAvg |
//! | [`entropy_fig`] | Figure 1 (right) — entropy distribution vs softmax temperature |
//! | [`cka_fig`] | Figures 2–4 — CKA similarity across client-updated models |
//! | [`table2`] | Table II + Figures 5–6 — close-domain evaluation, 10 clients |
//! | [`table3`] | Table III + Figures 7–9 — 100-client straggler scenario |
//! | [`table4`] | Table IV — cross-domain (speech) evaluation |
//! | [`ablation`] | Figure 10 — fine-tuned part, heterogeneity and temperature ablations |
//! | [`policy_matrix`] | Policy layer — policy × heterogeneity mix grid (not in the paper) |

pub mod ablation;
pub mod cka_fig;
pub mod entropy_fig;
pub mod policy_matrix;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
