//! Figure 10 — ablation studies on the CIFAR-100-like task with the large
//! client pool and `P_ds = 50%`:
//!
//! * **(a)** which part of the model is fine-tuned (Full / Large / Moderate /
//!   Classifier),
//! * **(b)** the level of data heterogeneity (Dirichlet α sweep),
//! * **(c)** the temperature ρ of the hardened softmax.
//!
//! Every point is reported for both entropy-based (EDS) and random (RDS)
//! selection so the gap between them can be read directly.

use crate::profile::ExperimentProfile;
use crate::scenario::{RunSpec, Scenario};
use crate::setup::{self, Task, World};
use fedft_analysis::{report, Table};
use fedft_core::{FlError, RunResult, SelectionStrategy};
use fedft_nn::FreezeLevel;
use serde::{Deserialize, Serialize};

/// Selection proportion used throughout the ablation (paper: 50%).
pub const ABLATION_PDS: f64 = 0.5;

/// One ablation measurement: a swept value and the accuracies of EDS and RDS.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AblationPoint {
    /// The swept setting, rendered as text (freeze level, alpha or ρ).
    pub setting: String,
    /// Best accuracy with entropy-based data selection.
    pub eds_accuracy: f32,
    /// Best accuracy with random data selection.
    pub rds_accuracy: f32,
}

/// Result of one ablation sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AblationSweep {
    /// Which quantity was swept (`finetuned-part`, `heterogeneity`,
    /// `temperature`).
    pub name: String,
    /// Measurements in sweep order.
    pub points: Vec<AblationPoint>,
}

impl AblationSweep {
    /// Renders the sweep as a table.
    pub fn to_table(&self) -> Table {
        let mut table = Table::new(vec![
            self.name.clone(),
            "FedFT-EDS".into(),
            "FedFT-RDS".into(),
        ]);
        for p in &self.points {
            let _ = table.add_row(vec![
                p.setting.clone(),
                report::pct(f64::from(p.eds_accuracy)),
                report::pct(f64::from(p.rds_accuracy)),
            ]);
        }
        table
    }
}

/// The world every sweep runs on: the CIFAR-100-like task.
///
/// # Errors
///
/// Propagates [`World::build`] errors.
pub fn world(profile: &ExperimentProfile) -> Result<World, FlError> {
    World::build(profile, Task::Cifar100)
}

/// Entropy-based selection of `P_ds` at softmax temperature ρ.
fn eds(temperature: f32) -> SelectionStrategy {
    SelectionStrategy::Entropy {
        fraction: ABLATION_PDS,
        temperature,
    }
}

/// Random selection of `P_ds`.
const RDS: SelectionStrategy = SelectionStrategy::Random {
    fraction: ABLATION_PDS,
};

/// Runs FedFT from the pretrained model at each (freeze level, selection)
/// of `runs` on the world's Dirichlet(`alpha`) split of the large pool, and
/// returns each run's best accuracy, in order.
fn best_accuracies(
    world: &World,
    alpha: f64,
    runs: &[(FreezeLevel, SelectionStrategy)],
) -> Result<Vec<f32>, FlError> {
    let profile = world.profile();
    let scenario = Scenario::run(world, profile.clients_large, alpha, |_| {
        runs.iter()
            .map(|&(freeze, selection)| RunSpec {
                label: format!("FedFT-{}", selection.short_name().to_uppercase()),
                config: setup::base_config(profile, profile.rounds_large)
                    .with_freeze(freeze)
                    .with_selection(selection),
                initial: world.pretrained(),
            })
            .collect()
    })?;
    Ok(scenario.runs.iter().map(RunResult::best_accuracy).collect())
}

/// Figure 10a: sweep over the fine-tuned part of the model.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn finetuned_part_sweep(
    world: &World,
    levels: &[FreezeLevel],
) -> Result<AblationSweep, FlError> {
    let runs: Vec<_> = levels
        .iter()
        .flat_map(|&level| [(level, eds(0.1)), (level, RDS)])
        .collect();
    let accuracies = best_accuracies(world, 0.1, &runs)?;
    let points = levels
        .iter()
        .zip(accuracies.chunks(2))
        .map(|(level, pair)| AblationPoint {
            setting: level.to_string(),
            eds_accuracy: pair[0],
            rds_accuracy: pair[1],
        })
        .collect();
    Ok(AblationSweep {
        name: "finetuned-part".into(),
        points,
    })
}

/// Figure 10b: sweep over the Dirichlet heterogeneity level.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn heterogeneity_sweep(world: &World, alphas: &[f64]) -> Result<AblationSweep, FlError> {
    let pair = [
        (FreezeLevel::Moderate, eds(0.1)),
        (FreezeLevel::Moderate, RDS),
    ];
    let mut points = Vec::new();
    for &alpha in alphas {
        let accuracies = best_accuracies(world, alpha, &pair)?;
        points.push(AblationPoint {
            setting: format!("Diri({alpha})"),
            eds_accuracy: accuracies[0],
            rds_accuracy: accuracies[1],
        });
    }
    Ok(AblationSweep {
        name: "heterogeneity".into(),
        points,
    })
}

/// Figure 10c: sweep over the softmax temperature ρ.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn temperature_sweep(world: &World, temperatures: &[f32]) -> Result<AblationSweep, FlError> {
    // RDS does not depend on the temperature; run it once as the baseline.
    let mut runs = vec![(FreezeLevel::Moderate, RDS)];
    runs.extend(
        temperatures
            .iter()
            .map(|&t| (FreezeLevel::Moderate, eds(t))),
    );
    let accuracies = best_accuracies(world, 0.1, &runs)?;
    let points = temperatures
        .iter()
        .zip(&accuracies[1..])
        .map(|(temperature, &eds)| AblationPoint {
            setting: format!("rho={temperature}"),
            eds_accuracy: eds,
            rds_accuracy: accuracies[0],
        })
        .collect();
    Ok(AblationSweep {
        name: "temperature".into(),
        points,
    })
}

/// The paper's sweep values for Figure 10.
pub mod paper_sweeps {
    use fedft_nn::FreezeLevel;

    /// Figure 10a freeze levels.
    pub const FREEZE_LEVELS: [FreezeLevel; 4] = [
        FreezeLevel::Full,
        FreezeLevel::Large,
        FreezeLevel::Moderate,
        FreezeLevel::Classifier,
    ];
    /// Figure 10b Dirichlet alphas.
    pub const ALPHAS: [f64; 5] = [0.01, 0.05, 0.1, 0.5, 1.0];
    /// Figure 10c softmax temperatures.
    pub const TEMPERATURES: [f32; 7] = [0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finetuned_part_sweep_runs_both_selectors() {
        let world = world(&ExperimentProfile::tiny()).unwrap();
        let sweep = finetuned_part_sweep(&world, &[FreezeLevel::Moderate, FreezeLevel::Classifier])
            .unwrap();
        assert_eq!(sweep.points.len(), 2);
        assert_eq!(sweep.to_table().len(), 2);
        for p in &sweep.points {
            assert!(p.eds_accuracy > 0.0);
            assert!(p.rds_accuracy > 0.0);
        }
    }

    #[test]
    fn temperature_sweep_uses_one_rds_baseline() {
        let world = world(&ExperimentProfile::tiny()).unwrap();
        let sweep = temperature_sweep(&world, &[0.1, 5.0]).unwrap();
        assert_eq!(sweep.points.len(), 2);
        assert_eq!(sweep.points[0].rds_accuracy, sweep.points[1].rds_accuracy);
    }

    #[test]
    fn heterogeneity_sweep_runs() {
        let world = world(&ExperimentProfile::tiny()).unwrap();
        let sweep = heterogeneity_sweep(&world, &[0.5]).unwrap();
        assert_eq!(sweep.points.len(), 1);
        assert!(sweep.points[0].setting.contains("0.5"));
    }

    #[test]
    fn paper_sweeps_have_expected_sizes() {
        assert_eq!(paper_sweeps::FREEZE_LEVELS.len(), 4);
        assert_eq!(paper_sweeps::ALPHAS.len(), 5);
        assert_eq!(paper_sweeps::TEMPERATURES.len(), 7);
    }
}
