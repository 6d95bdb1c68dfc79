//! Learning-curve and learning-efficiency summaries.

use fedft_core::RunResult;
use serde::{Deserialize, Serialize};

/// One point of the learning-efficiency scatter plots (Figures 6 and 7):
/// a method's best accuracy against its accuracy-per-second efficiency.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EfficiencyPoint {
    /// Method label.
    pub label: String,
    /// Best test accuracy over the run, in percentage points.
    pub best_accuracy_pct: f64,
    /// Learning efficiency: accuracy points per simulated client second,
    /// under the paper-faithful workload accounting (frozen prefix
    /// recomputed every batch and selection pass).
    pub efficiency: f64,
    /// Total simulated client seconds of the run (paper-faithful).
    pub total_client_seconds: f64,
    /// Learning efficiency under the **cached** workload accounting:
    /// frozen-prefix activations served from a feature cache, so clients
    /// only pay for the trainable suffix. Quantifies the extra headroom
    /// partial training offers once frozen work is memoised on-device.
    pub cached_efficiency: f64,
    /// Total simulated client seconds of the run under the cached
    /// accounting.
    pub total_client_seconds_cached: f64,
}

/// Builds the learning-efficiency points for a collection of runs, carrying
/// both workload accountings (paper-faithful and cached).
pub fn efficiency_points(runs: &[RunResult]) -> Vec<EfficiencyPoint> {
    runs.iter()
        .map(|run| EfficiencyPoint {
            label: run.label.clone(),
            best_accuracy_pct: f64::from(run.best_accuracy()) * 100.0,
            efficiency: run.learning_efficiency(),
            total_client_seconds: run.total_client_seconds(),
            cached_efficiency: run.cached_learning_efficiency(),
            total_client_seconds_cached: run.total_client_seconds_cached(),
        })
        .collect()
}

/// A learning curve: per-round test accuracies (in percentage points) for one
/// method, as plotted in Figures 5, 8 and 9.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LearningCurve {
    /// Method label.
    pub label: String,
    /// Per-round accuracy in percentage points, index 0 is round 1.
    pub accuracy_pct: Vec<f64>,
}

/// Extracts learning curves from a collection of runs.
pub fn learning_curves(runs: &[RunResult]) -> Vec<LearningCurve> {
    runs.iter()
        .map(|run| LearningCurve {
            label: run.label.clone(),
            accuracy_pct: run
                .accuracy_curve()
                .into_iter()
                .map(|a| f64::from(a) * 100.0)
                .collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedft_core::RoundRecord;

    fn run(label: &str, accs: &[f32], seconds_per_round: f64) -> RunResult {
        let rounds = accs
            .iter()
            .enumerate()
            .map(|(i, &acc)| RoundRecord {
                round: i + 1,
                test_accuracy: acc,
                test_loss: 1.0 - acc,
                mean_train_loss: 0.1,
                participants: 4,
                dropped_clients: 0,
                tier_participants: vec![4],
                selected_samples: 40,
                update_staleness: vec![0; 4],
                round_client_seconds: seconds_per_round,
                cumulative_client_seconds: seconds_per_round * (i + 1) as f64,
                round_client_seconds_cached: seconds_per_round / 2.0,
                cumulative_client_seconds_cached: seconds_per_round * (i + 1) as f64 / 2.0,
                round_wall_seconds: seconds_per_round,
                cumulative_wall_seconds: seconds_per_round * (i + 1) as f64,
                cache_hits: 0,
                cache_misses: 0,
                cache_evictions: 0,
                cache_peak_bytes: 0,
                flush: None,
            })
            .collect();
        RunResult::new(label, rounds)
    }

    #[test]
    fn efficiency_points_extract_summaries() {
        let runs = vec![
            run("fast", &[0.4, 0.6], 1.0),
            run("slow", &[0.5, 0.7], 10.0),
        ];
        let points = efficiency_points(&runs);
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].label, "fast");
        assert!((points[0].best_accuracy_pct - 60.0).abs() < 1e-3);
        assert!(points[0].efficiency > points[1].efficiency);
        assert!((points[1].total_client_seconds - 20.0).abs() < 1e-9);
        // The cached accounting rides along: the helper records half the
        // paper-faithful seconds per round, so cached efficiency doubles.
        assert!((points[1].total_client_seconds_cached - 10.0).abs() < 1e-9);
        assert!((points[0].cached_efficiency - 2.0 * points[0].efficiency).abs() < 1e-9);
    }

    #[test]
    fn learning_curves_are_percentages() {
        let curves = learning_curves(&[run("m", &[0.25, 0.5], 1.0)]);
        assert_eq!(curves[0].accuracy_pct, vec![25.0, 50.0]);
    }
}
