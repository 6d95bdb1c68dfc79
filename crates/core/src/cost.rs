//! Deterministic training-time cost model.
//!
//! The paper's learning-efficiency metric divides the best test accuracy by
//! the *total client training time in seconds* measured on the authors'
//! hardware. This reproduction has no such hardware, so client time is
//! modelled deterministically from the amount of work performed:
//!
//! * the forward+backward FLOPs of the trainable part of the model plus the
//!   forward FLOPs of the frozen part, per sample, per local epoch,
//! * plus the selection overhead: one forward pass over the entire local
//!   dataset for entropy-based selection (the paper notes this overhead when
//!   comparing FedFT-EDS to FedFT-RDS in Figure 7),
//! * divided by a nominal device throughput to express the result in
//!   simulated seconds.
//!
//! Because every method uses the same device throughput, all *ratios* between
//! methods — which is what Figures 6 and 7 compare — depend only on the work
//! counts, exactly as in the paper.

use crate::{FlError, Result};
use fedft_nn::flops::FlopsBreakdown;
use serde::{Deserialize, Serialize};

/// Converts per-sample FLOP counts into simulated client seconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Simulated device throughput in FLOP/s. The default (50 MFLOP/s of
    /// effective training throughput) models a constrained IoT-class edge
    /// device.
    pub device_flops_per_second: f64,
    /// Fixed per-round overhead in seconds (model download/upload handling,
    /// process wake-up). Applied once per participating client per round.
    pub per_round_overhead_seconds: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            device_flops_per_second: 5.0e7,
            per_round_overhead_seconds: 0.002,
        }
    }
}

impl CostModel {
    /// Validates the model parameters.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::InvalidConfig`] for a non-positive throughput or a
    /// negative overhead.
    pub fn validate(&self) -> Result<()> {
        if !(self.device_flops_per_second.is_finite() && self.device_flops_per_second > 0.0) {
            return Err(FlError::InvalidConfig {
                what: format!(
                    "device_flops_per_second must be positive, got {}",
                    self.device_flops_per_second
                ),
            });
        }
        if !(self.per_round_overhead_seconds.is_finite() && self.per_round_overhead_seconds >= 0.0)
        {
            return Err(FlError::InvalidConfig {
                what: format!(
                    "per_round_overhead_seconds must be non-negative, got {}",
                    self.per_round_overhead_seconds
                ),
            });
        }
        Ok(())
    }

    /// Simulated seconds for one client's local round.
    ///
    /// * `flops` — per-sample FLOP breakdown of the model under the client's
    ///   freeze level,
    /// * `local_samples` — size of the client's full local dataset,
    /// * `selected_samples` — number of samples actually trained on,
    /// * `epochs` — local epochs `E`,
    /// * `selection_pass` — whether a full-dataset inference pass was needed
    ///   to select the data (entropy-based selection).
    pub fn client_round_seconds(
        &self,
        flops: &FlopsBreakdown,
        local_samples: usize,
        selected_samples: usize,
        epochs: usize,
        selection_pass: bool,
    ) -> f64 {
        let training_flops =
            flops.training_flops() as f64 * selected_samples as f64 * epochs as f64;
        let selection_flops = if selection_pass {
            flops.inference_flops() as f64 * local_samples as f64
        } else {
            0.0
        };
        (training_flops + selection_flops) / self.device_flops_per_second
            + self.per_round_overhead_seconds
    }

    /// Simulated seconds for one client's local round under the **cached**
    /// workload accounting: boundary activations of the frozen prefix are
    /// served from a [`crate::cache::FeatureCache`], so both the training
    /// steps and the selection pass run only the trainable suffix.
    ///
    /// This is the steady-state cost — the one-time cache build (one frozen
    /// forward pass over the local dataset,
    /// [`FlopsBreakdown::forward_frozen`] per sample) amortises towards
    /// zero across rounds and is deliberately excluded so the accounting is
    /// round-invariant and independent of participation history.
    ///
    /// Parameters mirror [`CostModel::client_round_seconds`], which prices
    /// the paper-faithful workload; at `FreezeLevel::Full` (no frozen
    /// prefix) the two accountings coincide.
    pub fn cached_client_round_seconds(
        &self,
        flops: &FlopsBreakdown,
        local_samples: usize,
        selected_samples: usize,
        epochs: usize,
        selection_pass: bool,
    ) -> f64 {
        let training_flops =
            flops.cached_training_flops() as f64 * selected_samples as f64 * epochs as f64;
        let selection_flops = if selection_pass {
            flops.cached_inference_flops() as f64 * local_samples as f64
        } else {
            0.0
        };
        (training_flops + selection_flops) / self.device_flops_per_second
            + self.per_round_overhead_seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flops() -> FlopsBreakdown {
        FlopsBreakdown {
            forward_frozen: 1_000,
            forward_trainable: 500,
            backward_trainable: 1_000,
        }
    }

    #[test]
    fn default_is_valid() {
        assert!(CostModel::default().validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_values() {
        let bad = CostModel {
            device_flops_per_second: 0.0,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
        let bad = CostModel {
            per_round_overhead_seconds: -1.0,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn fewer_selected_samples_cost_less() {
        let cost = CostModel::default();
        let all = cost.client_round_seconds(&flops(), 100, 100, 5, false);
        let subset = cost.client_round_seconds(&flops(), 100, 10, 5, false);
        assert!(subset < all);
        // The ratio approaches the sample ratio once the fixed overhead is
        // subtracted.
        let fixed = cost.per_round_overhead_seconds;
        assert!(((all - fixed) / (subset - fixed) - 10.0).abs() < 1e-6);
    }

    #[test]
    fn selection_pass_adds_overhead() {
        let cost = CostModel::default();
        let without = cost.client_round_seconds(&flops(), 100, 10, 5, false);
        let with = cost.client_round_seconds(&flops(), 100, 10, 5, true);
        assert!(with > without);
        let expected_extra =
            flops().inference_flops() as f64 * 100.0 / cost.device_flops_per_second;
        assert!((with - without - expected_extra).abs() < 1e-9);
    }

    #[test]
    fn partial_training_is_cheaper_than_full_training() {
        // Same selected samples, smaller trainable part -> fewer FLOPs -> less time.
        let cost = CostModel::default();
        let full = FlopsBreakdown {
            forward_frozen: 0,
            forward_trainable: 1_500,
            backward_trainable: 3_000,
        };
        let partial = FlopsBreakdown {
            forward_frozen: 1_000,
            forward_trainable: 500,
            backward_trainable: 1_000,
        };
        let t_full = cost.client_round_seconds(&full, 50, 50, 5, false);
        let t_partial = cost.client_round_seconds(&partial, 50, 50, 5, false);
        assert!(t_partial < t_full);
    }

    #[test]
    fn zero_work_costs_only_the_overhead() {
        let cost = CostModel::default();
        let t = cost.client_round_seconds(&FlopsBreakdown::default(), 0, 0, 5, false);
        assert!((t - cost.per_round_overhead_seconds).abs() < 1e-12);
    }

    #[test]
    fn zero_selected_samples_still_pay_for_the_selection_pass() {
        // A client whose selection kept nothing trains nothing, but the
        // entropy pass over the full local dataset was still performed.
        let cost = CostModel::default();
        let t = cost.client_round_seconds(&flops(), 100, 0, 5, true);
        let expected = flops().inference_flops() as f64 * 100.0 / cost.device_flops_per_second
            + cost.per_round_overhead_seconds;
        assert!((t - expected).abs() < 1e-12);
        // Without the pass, zero selected samples cost only the overhead.
        let bare = cost.client_round_seconds(&flops(), 100, 0, 5, false);
        assert!((bare - cost.per_round_overhead_seconds).abs() < 1e-12);
    }

    #[test]
    fn zero_local_samples_with_selection_pass_cost_only_the_overhead() {
        let cost = CostModel::default();
        let t = cost.client_round_seconds(&flops(), 0, 0, 3, true);
        assert!((t - cost.per_round_overhead_seconds).abs() < 1e-12);
    }

    #[test]
    fn zero_epochs_remove_the_training_term() {
        let cost = CostModel::default();
        let t = cost.client_round_seconds(&flops(), 50, 50, 0, false);
        assert!((t - cost.per_round_overhead_seconds).abs() < 1e-12);
    }

    #[test]
    fn cost_is_monotone_across_real_freeze_levels() {
        // Evaluated on an actual model so every freeze level exercises the
        // real FLOP breakdowns, not hand-written ones.
        use fedft_nn::{BlockNet, BlockNetConfig, FreezeLevel};
        let model = BlockNet::new(&BlockNetConfig::new(12, 4).with_hidden(16, 16, 16), 0);
        let cost = CostModel::default();
        let times: Vec<f64> = FreezeLevel::all()
            .iter()
            .map(|&freeze| {
                cost.client_round_seconds(&model.flops_per_sample(freeze), 40, 40, 2, false)
            })
            .collect();
        assert!(
            times.windows(2).all(|w| w[0] > w[1]),
            "freezing more blocks must strictly reduce cost: {times:?}"
        );
        assert!(times.iter().all(|&t| t > cost.per_round_overhead_seconds));
    }

    #[test]
    fn cached_accounting_is_cheaper_when_a_prefix_is_frozen() {
        let cost = CostModel::default();
        let paper = cost.client_round_seconds(&flops(), 100, 50, 5, true);
        let cached = cost.cached_client_round_seconds(&flops(), 100, 50, 5, true);
        assert!(cached < paper);
        // The saving is exactly the frozen forward work that no longer runs.
        let saved =
            (flops().forward_frozen as f64 * (50.0 * 5.0 + 100.0)) / cost.device_flops_per_second;
        assert!((paper - cached - saved).abs() < 1e-9);
        // Without a frozen prefix the two accountings coincide.
        let full = FlopsBreakdown {
            forward_frozen: 0,
            forward_trainable: 1_500,
            backward_trainable: 3_000,
        };
        let a = cost.client_round_seconds(&full, 100, 50, 5, true);
        let b = cost.cached_client_round_seconds(&full, 100, 50, 5, true);
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn validation_rejects_non_finite_parameters() {
        for bad in [f64::NAN, f64::INFINITY, -1.0, 0.0] {
            let c = CostModel {
                device_flops_per_second: bad,
                ..Default::default()
            };
            assert!(c.validate().is_err(), "throughput {bad} must be rejected");
        }
        for bad in [f64::NAN, f64::INFINITY, -0.5] {
            let c = CostModel {
                per_round_overhead_seconds: bad,
                ..Default::default()
            };
            assert!(c.validate().is_err(), "overhead {bad} must be rejected");
        }
        // Zero overhead is explicitly allowed.
        let free = CostModel {
            per_round_overhead_seconds: 0.0,
            ..Default::default()
        };
        assert!(free.validate().is_ok());
    }
}
