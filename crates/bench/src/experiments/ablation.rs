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
use crate::setup::{self, Task};
use fedft_analysis::{report, Table};
use fedft_core::{FlError, SelectionStrategy, Simulation};
use fedft_data::FederatedDataset;
use fedft_nn::{BlockNet, FreezeLevel};
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

struct AblationContext {
    fed: FederatedDataset,
    pretrained: BlockNet,
}

fn context(profile: &ExperimentProfile, alpha: f64) -> Result<AblationContext, FlError> {
    let source = setup::source_bundle(profile)?;
    let target = setup::target_bundle(profile, Task::Cifar100)?;
    let pretrained = setup::pretrained_model(profile, &source, &target)?;
    let fed = setup::federate(&target, profile.clients_large, alpha, profile.seed)?;
    Ok(AblationContext { fed, pretrained })
}

fn run_pair(
    profile: &ExperimentProfile,
    ctx: &AblationContext,
    freeze: FreezeLevel,
    temperature: f32,
) -> Result<(f32, f32), FlError> {
    let base = setup::base_config(profile, profile.rounds_large).with_freeze(freeze);
    let eds_cfg = base.clone().with_selection(SelectionStrategy::Entropy {
        fraction: ABLATION_PDS,
        temperature,
    });
    let rds_cfg = base.with_selection(SelectionStrategy::Random {
        fraction: ABLATION_PDS,
    });
    let eds = Simulation::new(eds_cfg)?.run_labelled("FedFT-EDS", &ctx.fed, &ctx.pretrained)?;
    let rds = Simulation::new(rds_cfg)?.run_labelled("FedFT-RDS", &ctx.fed, &ctx.pretrained)?;
    Ok((eds.best_accuracy(), rds.best_accuracy()))
}

/// Figure 10a: sweep over the fine-tuned part of the model.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn finetuned_part_sweep(
    profile: &ExperimentProfile,
    levels: &[FreezeLevel],
) -> Result<AblationSweep, FlError> {
    let ctx = context(profile, 0.1)?;
    let mut points = Vec::new();
    for &level in levels {
        let (eds, rds) = run_pair(profile, &ctx, level, 0.1)?;
        points.push(AblationPoint {
            setting: level.to_string(),
            eds_accuracy: eds,
            rds_accuracy: rds,
        });
    }
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
pub fn heterogeneity_sweep(
    profile: &ExperimentProfile,
    alphas: &[f64],
) -> Result<AblationSweep, FlError> {
    let mut points = Vec::new();
    for &alpha in alphas {
        let ctx = context(profile, alpha)?;
        let (eds, rds) = run_pair(profile, &ctx, FreezeLevel::Moderate, 0.1)?;
        points.push(AblationPoint {
            setting: format!("Diri({alpha})"),
            eds_accuracy: eds,
            rds_accuracy: rds,
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
pub fn temperature_sweep(
    profile: &ExperimentProfile,
    temperatures: &[f32],
) -> Result<AblationSweep, FlError> {
    let ctx = context(profile, 0.1)?;
    // RDS does not depend on the temperature; run it once as the baseline.
    let base = setup::base_config(profile, profile.rounds_large).with_freeze(FreezeLevel::Moderate);
    let rds_cfg = base.clone().with_selection(SelectionStrategy::Random {
        fraction: ABLATION_PDS,
    });
    let rds = Simulation::new(rds_cfg)?
        .run_labelled("FedFT-RDS", &ctx.fed, &ctx.pretrained)?
        .best_accuracy();

    let mut points = Vec::new();
    for &temperature in temperatures {
        let eds_cfg = base.clone().with_selection(SelectionStrategy::Entropy {
            fraction: ABLATION_PDS,
            temperature,
        });
        let eds = Simulation::new(eds_cfg)?
            .run_labelled("FedFT-EDS", &ctx.fed, &ctx.pretrained)?
            .best_accuracy();
        points.push(AblationPoint {
            setting: format!("rho={temperature}"),
            eds_accuracy: eds,
            rds_accuracy: rds,
        });
    }
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
        let profile = ExperimentProfile::tiny();
        let sweep =
            finetuned_part_sweep(&profile, &[FreezeLevel::Moderate, FreezeLevel::Classifier])
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
        let profile = ExperimentProfile::tiny();
        let sweep = temperature_sweep(&profile, &[0.1, 5.0]).unwrap();
        assert_eq!(sweep.points.len(), 2);
        assert_eq!(sweep.points[0].rds_accuracy, sweep.points[1].rds_accuracy);
    }

    #[test]
    fn heterogeneity_sweep_runs() {
        let profile = ExperimentProfile::tiny();
        let sweep = heterogeneity_sweep(&profile, &[0.5]).unwrap();
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
