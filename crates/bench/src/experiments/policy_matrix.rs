//! Policy matrix — the policy-layer scenario study.
//!
//! Crosses the selection rules of the policy layer (data-selection
//! strategies, client-selection rules and per-tier freeze levels) with
//! device-heterogeneity mixes on the parallel backend, and reports best
//! accuracy per cell in a Table III-style grid.
//!
//! The first row of every grid is the **baseline**: the paper's FedFT-EDS
//! defaults (entropy data selection, uniform client selection, one global
//! freeze level). Per the policy layer's bit-identity contract, this row runs
//! exactly the pre-policy code path — every other row changes exactly one
//! policy axis against it:
//!
//! * **Data selection** — random, loss-proportional and gradient-norm
//!   selection in place of entropy ([`fedft_core::SelectionStrategy`]).
//! * **Client selection** — tier-aware and label-distribution-similarity
//!   weighting in place of uniform sampling ([`fedft_core::ClientSelection`]).
//! * **Per-tier freeze** — slow tiers fine-tune a smaller suffix
//!   ([`fedft_core::FlConfig::with_tier_freeze`]), exercising mixed-length
//!   aggregation ([`fedft_core::Server::aggregate_mixed`]).

use crate::profile::ExperimentProfile;
use crate::setup::{self, Task};
use fedft_analysis::{report, Table};
use fedft_core::{
    ClientSelection, ExecutionBackend, FlConfig, FlError, HeterogeneityModel, Method, RunResult,
    SelectionStrategy, Simulation,
};
use fedft_nn::FreezeLevel;
use serde::{Deserialize, Serialize};

/// The data-selection proportion `P_ds` shared by every policy of the matrix,
/// so rows differ only in *how* they select, never in how much.
pub const MATRIX_PDS: f64 = 0.5;

/// The participation fraction of the matrix. Deliberately partial: under full
/// participation every client-selection policy returns the whole cohort and
/// the client-selection rows would collapse onto the baseline.
pub const MATRIX_PARTICIPATION: f64 = 0.5;

/// One policy axis of the matrix: the single change a row applies to the
/// baseline configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PolicyVariant {
    /// The paper's defaults: entropy data selection, uniform client
    /// selection, one global freeze level. Bit-identical to the pre-policy
    /// code path.
    Baseline,
    /// Replace entropy data selection with another
    /// [`SelectionStrategy`] (same fraction).
    Data(SelectionStrategy),
    /// Replace uniform client selection with a weighted
    /// [`ClientSelection`] family member.
    Client(ClientSelection),
    /// Keep the defaults but freeze deeper on slower tiers: the slowest tier
    /// trains only the classifier head, every other tier trains the default
    /// suffix.
    TierFreeze,
}

impl PolicyVariant {
    /// Row label of the variant.
    pub fn label(&self) -> String {
        match self {
            PolicyVariant::Baseline => "eds (baseline)".to_string(),
            PolicyVariant::Data(strategy) => format!("data: {}", strategy.short_name()),
            PolicyVariant::Client(selection) => format!("client: {}", selection.short_name()),
            PolicyVariant::TierFreeze => "tier-freeze".to_string(),
        }
    }

    /// Applies the variant on top of a baseline configuration whose
    /// heterogeneity model has `num_tiers` tiers.
    fn apply(&self, base: FlConfig, num_tiers: usize) -> FlConfig {
        match self {
            PolicyVariant::Baseline => base,
            PolicyVariant::Data(strategy) => base.with_selection(*strategy),
            PolicyVariant::Client(selection) => base.with_client_selection(*selection),
            PolicyVariant::TierFreeze => {
                let mut freezes = vec![FreezeLevel::Moderate; num_tiers];
                if let Some(last) = freezes.last_mut() {
                    *last = FreezeLevel::Classifier;
                }
                base.with_tier_freeze(freezes)
            }
        }
    }
}

/// The policy rows of the matrix: baseline first, then one row per policy
/// change.
pub fn policy_lineup() -> Vec<PolicyVariant> {
    vec![
        PolicyVariant::Baseline,
        PolicyVariant::Data(SelectionStrategy::Random {
            fraction: MATRIX_PDS,
        }),
        PolicyVariant::Data(SelectionStrategy::LossProportional {
            fraction: MATRIX_PDS,
        }),
        PolicyVariant::Data(SelectionStrategy::GradientNorm {
            fraction: MATRIX_PDS,
        }),
        PolicyVariant::Client(ClientSelection::TierAware),
        PolicyVariant::Client(ClientSelection::SimilarityAware),
        PolicyVariant::TierFreeze,
    ]
}

/// A device-heterogeneity mix of the matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Mix {
    /// The minimal straggler-producing half/half mix.
    TwoTier,
    /// The high/mid/low mix with occasional offline devices.
    ThreeTier,
}

impl Mix {
    /// Column label fragment.
    pub fn label(&self) -> &'static str {
        match self {
            Mix::TwoTier => "2-tier",
            Mix::ThreeTier => "3-tier",
        }
    }

    /// The heterogeneity model of the mix.
    pub fn model(&self) -> HeterogeneityModel {
        match self {
            Mix::TwoTier => HeterogeneityModel::two_tier(),
            Mix::ThreeTier => HeterogeneityModel::three_tier(),
        }
    }
}

/// The mixes of the default matrix.
pub fn mix_lineup() -> Vec<Mix> {
    vec![Mix::TwoTier, Mix::ThreeTier]
}

/// One cell of the matrix: a policy run under a heterogeneity mix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyCell {
    /// Row label ([`PolicyVariant::label`]).
    pub policy: String,
    /// Heterogeneity-mix label.
    pub mix: String,
    /// The simulation run of the cell.
    pub run: RunResult,
}

/// Result of the policy-matrix experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyMatrixResult {
    /// Every (policy, mix) cell, rows varying slowest.
    pub cells: Vec<PolicyCell>,
}

impl PolicyMatrixResult {
    /// Row/column labels in first-appearance order.
    fn axes(&self) -> (Vec<String>, Vec<String>) {
        let mut policies: Vec<String> = Vec::new();
        let mut mixes: Vec<String> = Vec::new();
        for cell in &self.cells {
            if !policies.contains(&cell.policy) {
                policies.push(cell.policy.clone());
            }
            if !mixes.contains(&cell.mix) {
                mixes.push(cell.mix.clone());
            }
        }
        (policies, mixes)
    }

    /// The cell for a (policy, mix) pair, if present.
    pub fn cell(&self, policy: &str, mix: &str) -> Option<&PolicyCell> {
        self.cells
            .iter()
            .find(|c| c.policy == policy && c.mix == mix)
    }

    /// Renders the Table III-style grid: one row per policy, one column per
    /// mix, best accuracy per cell.
    pub fn to_table(&self) -> Table {
        let (policies, mixes) = self.axes();
        let mut headers = vec!["Policy".to_string()];
        headers.extend(mixes.iter().cloned());
        let mut table = Table::new(headers);
        for policy in &policies {
            let mut row = vec![policy.clone()];
            for mix in &mixes {
                row.push(self.cell(policy, mix).map_or("-".into(), |c| {
                    report::pct(f64::from(c.run.best_accuracy()))
                }));
            }
            let _ = table.add_row(row);
        }
        table
    }

    /// Renders the per-cell participation/straggler summary: mean
    /// participants, total drops and simulated wall clock — the columns where
    /// client-selection and per-tier-freeze policies leave their mark even
    /// when accuracies are close.
    pub fn participation_table(&self) -> Table {
        let mut table = Table::new(vec![
            "policy".into(),
            "mix".into(),
            "best_accuracy_pct".into(),
            "mean_participants".into(),
            "dropped_total".into(),
            "wall_clock_s".into(),
        ]);
        for cell in &self.cells {
            let _ = table.add_row(vec![
                cell.policy.clone(),
                cell.mix.clone(),
                report::pct(f64::from(cell.run.best_accuracy())),
                format!("{:.1}", cell.run.mean_participants()),
                cell.run.total_dropped_clients().to_string(),
                format!("{:.1}", cell.run.total_wall_seconds()),
            ]);
        }
        table
    }
}

/// Runs the matrix over explicit policy and mix lineups.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn run_matrix(
    profile: &ExperimentProfile,
    policies: &[PolicyVariant],
    mixes: &[Mix],
) -> Result<PolicyMatrixResult, FlError> {
    let source = setup::source_bundle(profile)?;
    let target = setup::target_bundle(profile, Task::Cifar10)?;
    let pretrained = setup::pretrained_model(profile, &source, &target)?;
    let fed = setup::federate(&target, profile.clients_small, 0.5, profile.seed)?;

    let method = Method::FedFtEds { pds: MATRIX_PDS };
    let mut cells = Vec::new();
    for policy in policies {
        for &mix in mixes {
            let hetero = mix.model();
            let base = method
                .configure(setup::base_config(profile, profile.rounds_small))
                .with_participation(MATRIX_PARTICIPATION)
                .with_heterogeneity(hetero.clone())
                .with_execution(ExecutionBackend::Parallel);
            let config = policy.apply(base, hetero.num_tiers());
            let label = format!("{} [{}]", policy.label(), mix.label());
            let run = Simulation::new(config)?.run_labelled(label, &fed, &pretrained)?;
            cells.push(PolicyCell {
                policy: policy.label(),
                mix: mix.label().to_string(),
                run,
            });
        }
    }
    Ok(PolicyMatrixResult { cells })
}

/// Runs the full default matrix: every policy of [`policy_lineup`] under
/// every mix.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn run(profile: &ExperimentProfile) -> Result<PolicyMatrixResult, FlError> {
    run_matrix(profile, &policy_lineup(), &mix_lineup())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lineups_cover_the_advertised_axes() {
        let policies = policy_lineup();
        assert_eq!(policies[0], PolicyVariant::Baseline);
        // ≥2 alternative data-selection policies and ≥2 client-selection
        // policies beyond the defaults, plus per-tier freeze.
        let data = policies
            .iter()
            .filter(|p| matches!(p, PolicyVariant::Data(_)))
            .count();
        let client = policies
            .iter()
            .filter(|p| matches!(p, PolicyVariant::Client(_)))
            .count();
        assert!(data >= 3);
        assert!(client >= 2);
        assert!(policies.contains(&PolicyVariant::TierFreeze));
        assert_eq!(mix_lineup().len(), 2);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(PolicyVariant::Baseline.label(), "eds (baseline)");
        assert_eq!(
            PolicyVariant::Data(SelectionStrategy::LossProportional { fraction: 0.5 }).label(),
            "data: lds"
        );
        assert_eq!(
            PolicyVariant::Client(ClientSelection::SimilarityAware).label(),
            "client: sim"
        );
        assert_eq!(PolicyVariant::TierFreeze.label(), "tier-freeze");
        assert_eq!(Mix::ThreeTier.label(), "3-tier");
    }

    #[test]
    fn tier_freeze_variant_freezes_the_slowest_tier_deeper() {
        let base = FlConfig::default().with_heterogeneity(HeterogeneityModel::two_tier());
        let config = PolicyVariant::TierFreeze.apply(base, 2);
        let freezes = config.tier_freeze.as_ref().unwrap();
        assert_eq!(
            freezes,
            &vec![FreezeLevel::Moderate, FreezeLevel::Classifier]
        );
        assert!(config.validate().is_ok());
    }

    #[test]
    fn tiny_matrix_produces_distinct_policies() {
        let profile = ExperimentProfile::tiny();
        let policies = vec![
            PolicyVariant::Baseline,
            PolicyVariant::Data(SelectionStrategy::GradientNorm {
                fraction: MATRIX_PDS,
            }),
            PolicyVariant::Client(ClientSelection::TierAware),
            PolicyVariant::TierFreeze,
        ];
        let result = run_matrix(&profile, &policies, &[Mix::TwoTier]).unwrap();
        assert_eq!(result.cells.len(), 4);
        let baseline = &result.cell("eds (baseline)", "2-tier").unwrap().run;
        for policy in ["data: gns", "client: tier", "tier-freeze"] {
            let cell = &result.cell(policy, "2-tier").unwrap().run;
            assert_ne!(
                cell.learning_history(),
                baseline.learning_history(),
                "{policy} must diverge from the baseline"
            );
        }
        let table = result.to_table();
        assert_eq!(table.len(), 4);
        assert_eq!(result.participation_table().len(), 4);
    }
}
