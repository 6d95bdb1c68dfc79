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
//!
//! The model has two constants and no knob: [`DEVICE_FLOPS_PER_SECOND`]
//! (50 MFLOP/s) and [`PER_ROUND_OVERHEAD_SECONDS`] (2 ms).

use fedft_nn::flops::FlopsBreakdown;

/// Simulated device throughput in FLOP/s: 50 MFLOP/s of effective training
/// throughput, a constrained IoT-class edge device.
pub const DEVICE_FLOPS_PER_SECOND: f64 = 5.0e7;

/// Fixed per-round overhead in seconds (model download/upload handling,
/// process wake-up), paid once per participating client per round.
pub const PER_ROUND_OVERHEAD_SECONDS: f64 = 0.002;

/// Simulated seconds for one client's local round.
///
/// * `flops` — per-sample FLOP breakdown of the model under the client's
///   freeze level,
/// * `local_samples` — size of the client's full local dataset,
/// * `selected_samples` — number of samples actually trained on,
/// * `epochs` — local epochs `E`,
/// * `selection_pass` — whether a full-dataset inference pass was needed
///   to select the data (entropy-based selection).
///
/// This prices both workload accountings. The paper-faithful one passes
/// the model's breakdown; the **cached** one, where the feature cache
/// serves the frozen prefix's boundary activations, passes the same
/// breakdown with [`FlopsBreakdown::forward_frozen`] set to zero. That is
/// the steady state: the one-time cache build (one frozen forward pass over
/// the local dataset) amortises towards zero across rounds and is left out,
/// so the accounting is round-invariant and independent of participation
/// history. `FlConfig::client_compute_seconds` is the one caller that fills
/// in the round's other arguments.
pub(crate) fn client_round_seconds(
    flops: &FlopsBreakdown,
    local_samples: usize,
    selected_samples: usize,
    epochs: usize,
    selection_pass: bool,
) -> f64 {
    let training_flops = flops.training_flops() as f64 * selected_samples as f64 * epochs as f64;
    let selection_flops = if selection_pass {
        flops.inference_flops() as f64 * local_samples as f64
    } else {
        0.0
    };
    (training_flops + selection_flops) / DEVICE_FLOPS_PER_SECOND + PER_ROUND_OVERHEAD_SECONDS
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
    fn fewer_selected_samples_cost_less() {
        let all = client_round_seconds(&flops(), 100, 100, 5, false);
        let subset = client_round_seconds(&flops(), 100, 10, 5, false);
        assert!(subset < all);
        // The ratio approaches the sample ratio once the fixed overhead is
        // subtracted.
        let fixed = PER_ROUND_OVERHEAD_SECONDS;
        assert!(((all - fixed) / (subset - fixed) - 10.0).abs() < 1e-6);
    }

    #[test]
    fn selection_pass_adds_overhead() {
        let without = client_round_seconds(&flops(), 100, 10, 5, false);
        let with = client_round_seconds(&flops(), 100, 10, 5, true);
        assert!(with > without);
        let expected_extra = flops().inference_flops() as f64 * 100.0 / DEVICE_FLOPS_PER_SECOND;
        assert!((with - without - expected_extra).abs() < 1e-9);
    }

    #[test]
    fn partial_training_is_cheaper_than_full_training() {
        // Same selected samples, smaller trainable part -> fewer FLOPs -> less time.
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
        let t_full = client_round_seconds(&full, 50, 50, 5, false);
        let t_partial = client_round_seconds(&partial, 50, 50, 5, false);
        assert!(t_partial < t_full);
    }

    #[test]
    fn zero_work_costs_only_the_overhead() {
        let t = client_round_seconds(&FlopsBreakdown::default(), 0, 0, 5, false);
        assert!((t - PER_ROUND_OVERHEAD_SECONDS).abs() < 1e-12);
    }

    #[test]
    fn zero_selected_samples_still_pay_for_the_selection_pass() {
        // A client whose selection kept nothing trains nothing, but the
        // entropy pass over the full local dataset was still performed.
        let t = client_round_seconds(&flops(), 100, 0, 5, true);
        let expected = flops().inference_flops() as f64 * 100.0 / DEVICE_FLOPS_PER_SECOND
            + PER_ROUND_OVERHEAD_SECONDS;
        assert!((t - expected).abs() < 1e-12);
        // Without the pass, zero selected samples cost only the overhead.
        let bare = client_round_seconds(&flops(), 100, 0, 5, false);
        assert!((bare - PER_ROUND_OVERHEAD_SECONDS).abs() < 1e-12);
    }

    #[test]
    fn zero_local_samples_with_selection_pass_cost_only_the_overhead() {
        let t = client_round_seconds(&flops(), 0, 0, 3, true);
        assert!((t - PER_ROUND_OVERHEAD_SECONDS).abs() < 1e-12);
    }

    #[test]
    fn zero_epochs_remove_the_training_term() {
        let t = client_round_seconds(&flops(), 50, 50, 0, false);
        assert!((t - PER_ROUND_OVERHEAD_SECONDS).abs() < 1e-12);
    }

    #[test]
    fn cost_is_monotone_across_real_freeze_levels() {
        // Evaluated on an actual model so every freeze level exercises the
        // real FLOP breakdowns, not hand-written ones.
        use fedft_nn::{BlockNet, BlockNetConfig, FreezeLevel};
        let model = BlockNet::new(&BlockNetConfig::new(12, 4).with_hidden(16, 16, 16), 0);
        let times: Vec<f64> = FreezeLevel::all()
            .iter()
            .map(|&freeze| client_round_seconds(&model.flops_per_sample(freeze), 40, 40, 2, false))
            .collect();
        assert!(
            times.windows(2).all(|w| w[0] > w[1]),
            "freezing more blocks must strictly reduce cost: {times:?}"
        );
        assert!(times.iter().all(|&t| t > PER_ROUND_OVERHEAD_SECONDS));
    }

    #[test]
    fn cached_accounting_is_cheaper_when_a_prefix_is_frozen() {
        // The cached accounting prices the same breakdown without its
        // frozen forward work.
        let cached_flops = FlopsBreakdown {
            forward_frozen: 0,
            ..flops()
        };
        let paper = client_round_seconds(&flops(), 100, 50, 5, true);
        let cached = client_round_seconds(&cached_flops, 100, 50, 5, true);
        assert!(cached < paper);
        // The saving is exactly the frozen forward work that no longer runs.
        let saved =
            (flops().forward_frozen as f64 * (50.0 * 5.0 + 100.0)) / DEVICE_FLOPS_PER_SECOND;
        assert!((paper - cached - saved).abs() < 1e-9);
    }
}
