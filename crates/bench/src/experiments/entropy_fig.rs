//! Figure 1 (right panel) — distribution of per-sample entropy for one
//! client's local data under different softmax temperatures ρ.
//!
//! Lower temperatures ("hardened" softmax) push most samples into the
//! low-entropy region, leaving only a thin high-entropy tail, which makes the
//! most uncertain samples easy to separate.

use crate::profile::ExperimentProfile;
use crate::setup::{Task, World};
use fedft_analysis::Table;
use fedft_core::entropy::{sample_entropies, EntropyHistogram};
use fedft_core::FlError;
use serde::{Deserialize, Serialize};

/// Entropy histogram of one client's data at one temperature.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TemperatureHistogram {
    /// Softmax temperature ρ.
    pub temperature: f32,
    /// Mean entropy over the client's samples.
    pub mean_entropy: f32,
    /// Fraction of samples in the top 20% entropy range.
    pub high_entropy_fraction: f64,
    /// Bin counts spanning `[0, ln(num_classes)]`.
    pub counts: Vec<usize>,
}

/// Result of the Figure 1 experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EntropyFigResult {
    /// One histogram per temperature, in the order requested.
    pub histograms: Vec<TemperatureHistogram>,
    /// Number of samples on the probed client.
    pub client_samples: usize,
}

impl EntropyFigResult {
    /// Renders the histograms as a table (one row per temperature).
    pub fn to_table(&self) -> Table {
        let mut table = Table::new(vec![
            "temperature".into(),
            "mean entropy".into(),
            "high-entropy fraction".into(),
            "bin counts".into(),
        ]);
        for h in &self.histograms {
            let _ = table.add_row(vec![
                format!("{:.2}", h.temperature),
                format!("{:.4}", h.mean_entropy),
                format!("{:.3}", h.high_entropy_fraction),
                format!("{:?}", h.counts),
            ]);
        }
        table
    }
}

/// Number of histogram bins used in the figure.
pub const BINS: usize = 10;

/// Runs the Figure 1 experiment: pretrain the global model, take the first
/// client's non-IID shard of the CIFAR-100-like task, and histogram the
/// per-sample entropies at each temperature.
///
/// # Errors
///
/// Propagates generation, pretraining and inference errors.
pub fn run(profile: &ExperimentProfile, temperatures: &[f32]) -> Result<EntropyFigResult, FlError> {
    let world = World::build(profile, Task::Cifar100)?;
    let mut model = world.pretrained().clone();
    let fed = world.federate(profile.clients_small, 0.1)?;
    let client_data = fed.client(0);

    let mut histograms = Vec::with_capacity(temperatures.len());
    for &temperature in temperatures {
        let entropies = sample_entropies(&mut model, client_data.features(), temperature)?;
        let histogram =
            EntropyHistogram::from_entropies(&entropies, client_data.num_classes(), BINS)?;
        let mean_entropy = entropies.iter().sum::<f32>() / entropies.len() as f32;
        histograms.push(TemperatureHistogram {
            temperature,
            mean_entropy,
            high_entropy_fraction: histogram.high_entropy_fraction(2),
            counts: histogram.counts,
        });
    }
    Ok(EntropyFigResult {
        histograms,
        client_samples: client_data.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hardened_softmax_concentrates_low_entropy_mass() {
        let profile = ExperimentProfile::tiny();
        let result = run(&profile, &[1.0, 0.1]).unwrap();
        assert_eq!(result.histograms.len(), 2);
        assert!(result.client_samples > 0);
        let standard = &result.histograms[0];
        let hardened = &result.histograms[1];
        assert!(hardened.mean_entropy < standard.mean_entropy);
        // All samples are accounted for in every histogram.
        for h in &result.histograms {
            assert_eq!(h.counts.iter().sum::<usize>(), result.client_samples);
            assert_eq!(h.counts.len(), BINS);
        }
        assert_eq!(result.to_table().len(), 2);
    }
}
