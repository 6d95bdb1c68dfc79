//! Named methods from the paper, mapped to simulation configurations.

use crate::config::{FlConfig, LocalAlgorithm};
use crate::entropy::DEFAULT_TEMPERATURE;
use crate::selection::SelectionStrategy;
use fedft_nn::FreezeLevel;
use serde::{Deserialize, Serialize};

/// Every federated method evaluated in the paper's tables.
///
/// Calling [`Method::configure`] on a base [`FlConfig`] (which carries the
/// run-level settings: rounds, seeds, participation, cost model) overrides the
/// method-specific fields: freeze level, selection strategy and local
/// algorithm. The `pds` field is the paper's data-selection proportion
/// `P_ds ∈ (0, 1]`.
///
/// The centralised upper bound is not a federated method; it is provided by
/// [`crate::baseline::centralised_baseline`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Method {
    /// FedAvg trained from scratch (no pretrained global model). The caller
    /// is responsible for starting the simulation from a randomly initialised
    /// model.
    FedAvgScratch,
    /// FedAvg with a pretrained global model, full-model local updates on all
    /// local data.
    FedAvg,
    /// FedAvg with uniform random data selection of a fraction `pds`.
    FedAvgRds {
        /// Fraction of local data selected per round.
        pds: f64,
    },
    /// FedProx with proximal coefficient `mu`, full data.
    FedProx {
        /// Proximal coefficient μ.
        mu: f32,
    },
    /// FedProx with random data selection.
    FedProxRds {
        /// Proximal coefficient μ.
        mu: f32,
        /// Fraction of local data selected per round.
        pds: f64,
    },
    /// Partial fine-tuning (upper part only) with random data selection.
    FedFtRds {
        /// Fraction of local data selected per round.
        pds: f64,
    },
    /// The paper's proposed method: partial fine-tuning with entropy-based
    /// data selection under a hardened softmax.
    FedFtEds {
        /// Fraction of local data selected per round.
        pds: f64,
    },
    /// Partial fine-tuning on all local data (the FedFT-ALL baseline of
    /// Table III).
    FedFtAll,
    /// Partial fine-tuning with loss-proportional data selection
    /// ([`SelectionStrategy::LossProportional`]): samples are drawn without
    /// replacement with probability proportional to their cross-entropy loss.
    /// Not in the paper's tables; an alternative importance-sampling policy
    /// for the policy-matrix study.
    FedFtLds {
        /// Fraction of local data selected per round.
        pds: f64,
    },
    /// Partial fine-tuning with gradient-norm top-k data selection
    /// ([`SelectionStrategy::GradientNorm`]): keeps the samples with the
    /// largest last-layer gradient magnitude `‖softmax(z) − onehot(y)‖₂`.
    /// Not in the paper's tables; an alternative importance-sampling policy
    /// for the policy-matrix study.
    FedFtGns {
        /// Fraction of local data selected per round.
        pds: f64,
    },
}

impl Method {
    /// Default FedProx proximal coefficient used when the paper does not
    /// specify one.
    pub const DEFAULT_MU: f32 = 0.01;

    /// Human-readable name matching the paper's tables.
    pub fn name(&self) -> String {
        match self {
            Method::FedAvgScratch => "FedAvg w/o pretraining".to_string(),
            Method::FedAvg => "FedAvg".to_string(),
            Method::FedAvgRds { pds } => format!("FedAvg-RDS ({:.0}%)", pds * 100.0),
            Method::FedProx { .. } => "FedProx".to_string(),
            Method::FedProxRds { pds, .. } => format!("FedProx-RDS ({:.0}%)", pds * 100.0),
            Method::FedFtRds { pds } => format!("FedFT-RDS ({:.0}%)", pds * 100.0),
            Method::FedFtEds { pds } => format!("FedFT-EDS ({:.0}%)", pds * 100.0),
            Method::FedFtAll => "FedFT-ALL".to_string(),
            Method::FedFtLds { pds } => format!("FedFT-LDS ({:.0}%)", pds * 100.0),
            Method::FedFtGns { pds } => format!("FedFT-GNS ({:.0}%)", pds * 100.0),
        }
    }

    /// Whether the method starts from a pretrained global model.
    pub fn uses_pretraining(&self) -> bool {
        !matches!(self, Method::FedAvgScratch)
    }

    /// Applies the method's settings on top of a base configuration.
    pub fn configure(&self, base: FlConfig) -> FlConfig {
        let mut config = base;
        match *self {
            Method::FedAvgScratch | Method::FedAvg => {
                config.freeze = FreezeLevel::Full;
                config.selection = SelectionStrategy::All;
                config.algorithm = LocalAlgorithm::FedAvg;
            }
            Method::FedAvgRds { pds } => {
                config.freeze = FreezeLevel::Full;
                config.selection = SelectionStrategy::Random { fraction: pds };
                config.algorithm = LocalAlgorithm::FedAvg;
            }
            Method::FedProx { mu } => {
                config.freeze = FreezeLevel::Full;
                config.selection = SelectionStrategy::All;
                config.algorithm = LocalAlgorithm::FedProx { mu };
            }
            Method::FedProxRds { mu, pds } => {
                config.freeze = FreezeLevel::Full;
                config.selection = SelectionStrategy::Random { fraction: pds };
                config.algorithm = LocalAlgorithm::FedProx { mu };
            }
            Method::FedFtRds { pds } => {
                config.freeze = FreezeLevel::Moderate;
                config.selection = SelectionStrategy::Random { fraction: pds };
                config.algorithm = LocalAlgorithm::FedAvg;
            }
            Method::FedFtEds { pds } => {
                config.freeze = FreezeLevel::Moderate;
                config.selection = SelectionStrategy::Entropy {
                    fraction: pds,
                    temperature: DEFAULT_TEMPERATURE,
                };
                config.algorithm = LocalAlgorithm::FedAvg;
            }
            Method::FedFtAll => {
                config.freeze = FreezeLevel::Moderate;
                config.selection = SelectionStrategy::All;
                config.algorithm = LocalAlgorithm::FedAvg;
            }
            Method::FedFtLds { pds } => {
                config.freeze = FreezeLevel::Moderate;
                config.selection = SelectionStrategy::LossProportional { fraction: pds };
                config.algorithm = LocalAlgorithm::FedAvg;
            }
            Method::FedFtGns { pds } => {
                config.freeze = FreezeLevel::Moderate;
                config.selection = SelectionStrategy::GradientNorm { fraction: pds };
                config.algorithm = LocalAlgorithm::FedAvg;
            }
        }
        config
    }
}

impl std::fmt::Display for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_the_paper() {
        assert_eq!(Method::FedAvg.name(), "FedAvg");
        assert_eq!(Method::FedAvgRds { pds: 0.1 }.name(), "FedAvg-RDS (10%)");
        assert_eq!(Method::FedFtEds { pds: 0.5 }.name(), "FedFT-EDS (50%)");
        assert_eq!(Method::FedFtAll.name(), "FedFT-ALL");
        assert_eq!(Method::FedFtLds { pds: 0.1 }.name(), "FedFT-LDS (10%)");
        assert_eq!(Method::FedFtGns { pds: 0.1 }.name(), "FedFT-GNS (10%)");
        assert_eq!(Method::FedAvgScratch.to_string(), "FedAvg w/o pretraining");
    }

    #[test]
    fn pretraining_and_partial_finetuning_flags() {
        assert!(!Method::FedAvgScratch.uses_pretraining());
        assert!(Method::FedAvg.uses_pretraining());
        // Partial fine-tuning is the freeze level `configure` sets.
        let freeze = |method: Method| method.configure(FlConfig::default()).freeze;
        assert_ne!(freeze(Method::FedFtEds { pds: 0.1 }), FreezeLevel::Full);
        assert_eq!(freeze(Method::FedProx { mu: 0.01 }), FreezeLevel::Full);
    }

    #[test]
    fn configure_sets_freeze_selection_and_algorithm() {
        let base = FlConfig::default().with_rounds(3).with_seed(9);
        let eds = Method::FedFtEds { pds: 0.1 }.configure(base.clone());
        assert_eq!(eds.freeze, FreezeLevel::Moderate);
        assert!(matches!(
            eds.selection,
            SelectionStrategy::Entropy { fraction, temperature }
                if (fraction - 0.1).abs() < 1e-12 && (temperature - 0.1).abs() < 1e-6
        ));
        assert_eq!(eds.rounds, 3);
        assert_eq!(eds.seed, 9);

        let prox = Method::FedProxRds { mu: 0.05, pds: 0.2 }.configure(base.clone());
        assert_eq!(prox.freeze, FreezeLevel::Full);
        assert!(
            matches!(prox.algorithm, LocalAlgorithm::FedProx { mu } if (mu - 0.05).abs() < 1e-9)
        );
        assert!(matches!(prox.selection, SelectionStrategy::Random { .. }));

        let avg = Method::FedAvg.configure(base);
        assert_eq!(avg.freeze, FreezeLevel::Full);
        assert!(matches!(avg.selection, SelectionStrategy::All));
    }

    #[test]
    fn configured_methods_are_valid() {
        let base = FlConfig::default().with_rounds(2);
        for method in [
            Method::FedAvgScratch,
            Method::FedAvg,
            Method::FedAvgRds { pds: 0.1 },
            Method::FedProx {
                mu: Method::DEFAULT_MU,
            },
            Method::FedProxRds {
                mu: Method::DEFAULT_MU,
                pds: 0.1,
            },
            Method::FedFtRds { pds: 0.1 },
            Method::FedFtEds { pds: 0.1 },
            Method::FedFtAll,
            Method::FedFtLds { pds: 0.1 },
            Method::FedFtGns { pds: 0.1 },
        ] {
            assert!(
                method.configure(base.clone()).validate().is_ok(),
                "{method}"
            );
        }
    }
}
