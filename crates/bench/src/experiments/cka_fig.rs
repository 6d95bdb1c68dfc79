//! Figures 2–4 — CKA similarity between client-updated models.
//!
//! Ten clients each perform one round of full-model local updates starting
//! from the same global model (with or without pretraining) on heterogeneous
//! data; the pairwise CKA of their activations on the shared test set
//! measures how far the local models drift apart (the *model shift* problem).
//! Pretraining yields markedly higher similarity, especially in the upper
//! layers, which is the paper's motivation for freezing the pretrained
//! feature extractor.

use crate::profile::ExperimentProfile;
use crate::setup::{self, Task, World};
use fedft_analysis::cka::{client_cka_matrix, mean_offdiagonal};
use fedft_analysis::Table;
use fedft_core::{FlConfig, FlError, Method};
use fedft_nn::{BlockId, BlockNet};
use serde::{Deserialize, Serialize};

/// CKA summary for one (pretraining, alpha, block level) combination.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CkaCell {
    /// Whether the clients started from a pretrained global model.
    pub pretrained: bool,
    /// Dirichlet concentration of the partition.
    pub alpha: f64,
    /// Block depth at which activations were compared.
    pub block: String,
    /// Mean off-diagonal CKA over all client pairs (Figure 4's bar height).
    pub mean_cka: f64,
    /// Full pairwise matrix (Figures 2 and 3's heatmap).
    pub matrix: Vec<Vec<f64>>,
}

/// Result of the CKA experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CkaResult {
    /// One cell per combination.
    pub cells: Vec<CkaCell>,
}

impl CkaResult {
    /// Renders the Figure 4 summary (mean CKA per layer level).
    pub fn to_table(&self) -> Table {
        let mut table = Table::new(vec![
            "alpha".into(),
            "pretrained".into(),
            "block".into(),
            "mean CKA".into(),
        ]);
        for cell in &self.cells {
            let _ = table.add_row(vec![
                format!("{}", cell.alpha),
                cell.pretrained.to_string(),
                cell.block.clone(),
                format!("{:.3}", cell.mean_cka),
            ]);
        }
        table
    }
}

/// The three depths the paper probes.
pub const BLOCKS: [BlockId; 3] = [BlockId::Low, BlockId::Mid, BlockId::Up];

/// Runs the CKA experiment for the given heterogeneity levels.
///
/// # Errors
///
/// Propagates data generation, training and CKA errors.
pub fn run(profile: &ExperimentProfile, alphas: &[f64]) -> Result<CkaResult, FlError> {
    let world = World::build(profile, Task::Cifar10)?;

    let mut cells = Vec::new();
    for &alpha in alphas {
        let fed = world.federate(profile.clients_small, alpha)?;
        for (is_pretrained, initial) in [(false, world.scratch()), (true, world.pretrained())] {
            // One round of full-model local updates per client (FedAvg-style),
            // without aggregation: we want the *locally drifted* models.
            let config: FlConfig = Method::FedAvg.configure(setup::base_config(profile, 1));
            let mut client_models: Vec<BlockNet> = Vec::with_capacity(fed.num_clients());
            for k in 0..fed.num_clients() {
                let client = fedft_core::Client::new(k, fed.client(k).clone());
                let update = client.local_update(initial, &config, 0)?;
                let mut model = initial.clone();
                model.set_trainable_vector(config.freeze, &update.theta)?;
                client_models.push(model);
            }
            for block in BLOCKS {
                let matrix = client_cka_matrix(&mut client_models, fed.test().features(), block)?;
                cells.push(CkaCell {
                    pretrained: is_pretrained,
                    alpha,
                    block: block.to_string(),
                    mean_cka: mean_offdiagonal(&matrix),
                    matrix,
                });
            }
        }
    }
    Ok(CkaResult { cells })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_matrices_for_all_levels() {
        let profile = ExperimentProfile::tiny();
        let result = run(&profile, &[0.5]).unwrap();
        // 2 (pretrain) × 3 (blocks) cells for one alpha.
        assert_eq!(result.cells.len(), 6);
        for cell in &result.cells {
            assert_eq!(cell.matrix.len(), profile.clients_small);
            assert!((0.0..=1.0).contains(&cell.mean_cka));
            // The diagonal is exactly 1.
            assert!((cell.matrix[0][0] - 1.0).abs() < 1e-9);
        }
        assert_eq!(result.to_table().len(), 6);
    }
}
