//! Per-round local data selection strategies (paper §III-C and §IV-A3).

use crate::cache::ScoreKind;
use crate::entropy::rank_by_entropy;
use crate::participation::weighted_order;
use crate::policy::SelectionContext;
use crate::{FlError, Result};
use fedft_tensor::rng;
use serde::{Deserialize, Serialize};

/// How a client chooses which local samples to train on in a round: the
/// serialisable choice an [`crate::FlConfig`] carries, and the rule that
/// makes it ([`SelectionStrategy::select`]).
///
/// * [`SelectionStrategy::All`] — train on every local sample (FedAvg,
///   FedProx, FedFT-ALL).
/// * [`SelectionStrategy::Random`] — uniformly re-sample a fraction `Pds` of
///   the local data at the start of every round (the `-RDS` baselines).
/// * [`SelectionStrategy::Entropy`] — the paper's EDS: one forward pass over
///   the local data, entropy under a hardened softmax, keep the top-`Pds`
///   most-uncertain samples.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SelectionStrategy {
    /// Use the full local dataset.
    All,
    /// Uniform random selection of a fraction of the local data, refreshed
    /// every round.
    Random {
        /// Fraction `Pds ∈ (0, 1]` of local samples to keep.
        fraction: f64,
    },
    /// Entropy-based data selection with a hardened softmax.
    Entropy {
        /// Fraction `Pds ∈ (0, 1]` of local samples to keep.
        fraction: f64,
        /// Softmax temperature ρ; the paper uses `0.1`.
        temperature: f32,
    },
    /// Loss-proportional data selection (Shi & Radu 2021): samples are drawn
    /// without replacement with probability proportional to their per-sample
    /// cross-entropy loss under the current model. Like entropy selection it
    /// needs one inference pass per round; selection itself draws from the
    /// `"lds-client-{id}"` RNG stream.
    LossProportional {
        /// Fraction `Pds ∈ (0, 1]` of local samples to keep.
        fraction: f64,
    },
    /// Gradient-norm data selection (Shi & Radu 2021): keep the samples with
    /// the largest output-layer gradient norm `‖softmax(z) − onehot(y)‖₂`, a
    /// backward-free proxy for per-sample gradient magnitude. Deterministic
    /// top-k, no RNG stream.
    GradientNorm {
        /// Fraction `Pds ∈ (0, 1]` of local samples to keep.
        fraction: f64,
    },
}

impl SelectionStrategy {
    /// The fraction of local data the strategy keeps (`1.0` for
    /// [`SelectionStrategy::All`]).
    pub fn fraction(&self) -> f64 {
        match self {
            SelectionStrategy::All => 1.0,
            SelectionStrategy::Random { fraction } => *fraction,
            SelectionStrategy::Entropy { fraction, .. } => *fraction,
            SelectionStrategy::LossProportional { fraction } => *fraction,
            SelectionStrategy::GradientNorm { fraction } => *fraction,
        }
    }

    /// The score the strategy ranks or draws by, `None` for the model-free
    /// strategies.
    fn score_kind(&self) -> Option<ScoreKind> {
        match *self {
            SelectionStrategy::All | SelectionStrategy::Random { .. } => None,
            SelectionStrategy::Entropy { temperature, .. } => Some(ScoreKind::entropy(temperature)),
            SelectionStrategy::LossProportional { .. } => Some(ScoreKind::Loss),
            SelectionStrategy::GradientNorm { .. } => Some(ScoreKind::GradientNorm),
        }
    }

    /// Returns `true` when the strategy needs a forward pass over the whole
    /// local dataset (and therefore incurs the selection overhead accounted
    /// for by the cost model).
    pub(crate) fn needs_inference_pass(&self) -> bool {
        self.score_kind().is_some()
    }

    /// Short name used in reports (`all`, `rds`, `eds`, `lds`, `gns`).
    pub fn short_name(&self) -> &'static str {
        match self {
            SelectionStrategy::All => "all",
            SelectionStrategy::Random { .. } => "rds",
            SelectionStrategy::Entropy { .. } => "eds",
            SelectionStrategy::LossProportional { .. } => "lds",
            SelectionStrategy::GradientNorm { .. } => "gns",
        }
    }

    /// Validates the strategy parameters.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::InvalidConfig`] for fractions outside `(0, 1]` or a
    /// non-positive temperature.
    pub fn validate(&self) -> Result<()> {
        let fraction = self.fraction();
        if !(fraction > 0.0 && fraction <= 1.0) {
            return Err(FlError::InvalidConfig {
                what: format!("selection fraction must be in (0, 1], got {fraction}"),
            });
        }
        if let SelectionStrategy::Entropy { temperature, .. } = self {
            if !(temperature.is_finite() && *temperature > 0.0) {
                return Err(FlError::InvalidConfig {
                    what: format!("selection temperature must be positive, got {temperature}"),
                });
            }
        }
        Ok(())
    }

    /// Number of samples kept out of `available`:
    /// `ceil(fraction · available)` clamped to `[1, available]`.
    pub(crate) fn selected_count(&self, available: usize) -> usize {
        if available == 0 {
            return 0;
        }
        let keep = (self.fraction() * available as f64).ceil() as usize;
        keep.clamp(1, available)
    }

    /// Selects this round's training subset, most important sample first
    /// for the score-based strategies. A score-based strategy names its
    /// [`ScoreKind`] and takes the scores from the context, so the strategy
    /// chooses only how to order the samples:
    ///
    /// * `All` — every sample, in order.
    /// * `Random` — a seeded subset on the `"rds-client-{id}"` stream
    ///   indexed by round, the exact stream and shuffle of the pre-policy
    ///   code.
    /// * `Entropy` — the top entropies under the hardened softmax; no RNG.
    /// * `LossProportional` — a draw without replacement with probability
    ///   proportional to per-sample loss (Efraimidis–Spirakis keys on the
    ///   `"lds-client-{id}"` stream indexed by round), in descending key
    ///   order.
    /// * `GradientNorm` — the largest output-layer gradient norms; no RNG.
    ///
    /// # Errors
    ///
    /// Returns an error when the context holds no samples or scoring fails.
    pub fn select(&self, ctx: &mut SelectionContext<'_>) -> Result<Vec<usize>> {
        let available = ctx.num_samples();
        if available == 0 {
            return Err(FlError::InvalidConfig {
                what: format!("client {} has no local data to select from", ctx.client_id),
            });
        }
        let keep = self.selected_count(available);
        let mut order = match (self, self.score_kind()) {
            (SelectionStrategy::Random { .. }, _) => rng::seeded_subset(
                ctx.seed,
                &format!("rds-client-{}", ctx.client_id),
                ctx.round as u64,
                available,
                keep,
            ),
            (_, None) => (0..available).collect(),
            (SelectionStrategy::LossProportional { .. }, Some(kind)) => {
                let mut r = rng::rng_for_indexed(
                    ctx.seed,
                    &format!("lds-client-{}", ctx.client_id),
                    ctx.round as u64,
                );
                weighted_order(&mut r, ctx.scores(kind)?.iter().map(|&l| f64::from(l)))
            }
            (_, Some(kind)) => rank_by_entropy(&ctx.scores(kind)?),
        };
        order.truncate(keep);
        Ok(order)
    }

    /// The strategy itself. It stays only for callers that spell a
    /// selection `config.selection.policy().select(..)`; new code calls
    /// [`SelectionStrategy::select`].
    pub fn policy(&self) -> SelectionStrategy {
        *self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    #[test]
    fn fractions_and_names() {
        assert_eq!(SelectionStrategy::All.fraction(), 1.0);
        assert_eq!(
            SelectionStrategy::Random { fraction: 0.25 }.fraction(),
            0.25
        );
        assert_eq!(SelectionStrategy::All.short_name(), "all");
        assert_eq!(
            SelectionStrategy::Random { fraction: 0.1 }.short_name(),
            "rds"
        );
        assert_eq!(
            SelectionStrategy::Entropy {
                fraction: 0.1,
                temperature: 0.1
            }
            .short_name(),
            "eds"
        );
        assert!(SelectionStrategy::Entropy {
            fraction: 0.1,
            temperature: 0.1
        }
        .needs_inference_pass());
        assert!(!SelectionStrategy::Random { fraction: 0.1 }.needs_inference_pass());
        // The Shi & Radu 2021 score-based strategies: both need an inference
        // pass (their scores come from the current model's predictions).
        let lds = SelectionStrategy::LossProportional { fraction: 0.3 };
        let gns = SelectionStrategy::GradientNorm { fraction: 0.3 };
        assert_eq!(lds.short_name(), "lds");
        assert_eq!(gns.short_name(), "gns");
        assert_eq!(lds.fraction(), 0.3);
        assert_eq!(gns.fraction(), 0.3);
        assert!(lds.needs_inference_pass());
        assert!(gns.needs_inference_pass());
        assert!(SelectionStrategy::LossProportional { fraction: 0.0 }
            .validate()
            .is_err());
        assert!(SelectionStrategy::GradientNorm { fraction: 2.0 }
            .validate()
            .is_err());
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        assert!(SelectionStrategy::Random { fraction: 0.0 }
            .validate()
            .is_err());
        assert!(SelectionStrategy::Random { fraction: 1.5 }
            .validate()
            .is_err());
        assert!(SelectionStrategy::Entropy {
            fraction: 0.5,
            temperature: 0.0
        }
        .validate()
        .is_err());
        assert!(SelectionStrategy::Entropy {
            fraction: 0.5,
            temperature: 0.1
        }
        .validate()
        .is_ok());
    }
}
