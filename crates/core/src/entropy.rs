//! Per-sample entropy scoring with the hardened softmax (paper §III-E), and
//! the ranking and histogram of selection scores.
//!
//! The entropy-based data selector performs one forward pass over a client's
//! local data, converts the logits to probabilities with a temperature-scaled
//! softmax (Equation 6 of the paper; ρ < 1 "hardens" the distribution) and
//! computes the Shannon entropy of each sample (Equation 3). High-entropy
//! samples are the ones the model is most uncertain about and therefore the
//! most valuable to train on.
//!
//! A selection score is a function of its [`crate::ScoreKind`]: entropy,
//! loss and gradient norm are each one reduction of the suffix's logits on
//! the client's boundary activations ([`crate::ScoreKind::score`]).
//! [`sample_entropies`] is the entropy score of a whole model on raw
//! features, for analyses that have no federated client.

use crate::{FlError, Result};
use fedft_nn::BlockNet;
use fedft_tensor::{stats, Matrix};

/// Default hardened-softmax temperature used by the paper (ρ = 0.1).
pub const DEFAULT_TEMPERATURE: f32 = 0.1;

/// Computes the per-sample Shannon entropy of `model`'s predictions on
/// `features`, using a softmax with temperature `temperature`.
///
/// # Errors
///
/// Returns an error when the features are empty or the temperature is not a
/// positive finite number.
pub fn sample_entropies(
    model: &mut BlockNet,
    features: &Matrix,
    temperature: f32,
) -> Result<Vec<f32>> {
    // Fused softmax+entropy on the logits: bit-identical to
    // `stats::softmax_with_temperature` + a per-row `shannon_entropy`, without
    // materialising the probability matrix (see `stats::softmax_entropy_rows`).
    let logits = model.forward(features)?;
    Ok(stats::softmax_entropy_rows(&logits, temperature)?)
}

/// Returns the indices of `entropies` sorted by decreasing score
/// (most-uncertain first). Ties are broken by the original index so the
/// ordering is fully deterministic.
///
/// Any per-sample score ranks this way: EDS ranks entropies with it and the
/// gradient-norm strategy ranks gradient norms
/// ([`crate::SelectionStrategy::select`]).
///
/// The comparison is [`f32::total_cmp`], a strict total order, so
/// non-finite entropies (possible when logits overflow to `±∞` or `NaN`)
/// cannot corrupt the sort: the previous
/// `partial_cmp(..).unwrap_or(Equal)` fallback is **not** a strict weak
/// ordering in the presence of `NaN`, and `sort_by` may then produce an
/// arbitrary (even input-order-dependent) permutation. The total order is
/// sign-aware: positive-sign `NaN` ranks above `+∞` (first in this
/// descending ranking) and negative-sign `NaN` below `−∞` (last). Where a
/// corrupted score lands is incidental; the contract is that it lands in
/// the *same place every time*.
pub fn rank_by_entropy(entropies: &[f32]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..entropies.len()).collect();
    order.sort_by(|&a, &b| entropies[b].total_cmp(&entropies[a]).then(a.cmp(&b)));
    order
}

/// A histogram of entropy values, used to reproduce the entropy-distribution
/// panel of Figure 1.
#[derive(Debug, Clone, PartialEq)]
pub struct EntropyHistogram {
    /// Inclusive lower edge of the first bin.
    pub min: f32,
    /// Exclusive upper edge of the last bin.
    pub max: f32,
    /// Number of samples falling into each bin.
    pub counts: Vec<usize>,
}

impl EntropyHistogram {
    /// Builds a histogram with `bins` equal-width bins spanning
    /// `[0, ln(num_classes)]`, the achievable entropy range for
    /// `num_classes`-way predictions.
    ///
    /// # Errors
    ///
    /// Returns an error for zero bins or fewer than two classes.
    pub fn from_entropies(entropies: &[f32], num_classes: usize, bins: usize) -> Result<Self> {
        if bins == 0 {
            return Err(FlError::InvalidConfig {
                what: "histogram needs at least one bin".into(),
            });
        }
        if num_classes < 2 {
            return Err(FlError::InvalidConfig {
                what: "entropy histogram needs at least two classes".into(),
            });
        }
        let max = (num_classes as f32).ln();
        let mut counts = vec![0usize; bins];
        for &h in entropies {
            let clamped = h.clamp(0.0, max);
            let mut bin = ((clamped / max) * bins as f32) as usize;
            if bin == bins {
                bin -= 1;
            }
            counts[bin] += 1;
        }
        Ok(EntropyHistogram {
            min: 0.0,
            max,
            counts,
        })
    }

    /// Fraction of samples in the top `tail_bins` bins (the high-entropy
    /// tail).
    pub fn high_entropy_fraction(&self, tail_bins: usize) -> f64 {
        let total: usize = self.counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let tail = tail_bins.min(self.counts.len());
        let tail_count: usize = self.counts[self.counts.len() - tail..].iter().sum();
        tail_count as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScoreKind;
    use fedft_nn::{BlockNetConfig, SuffixNet};
    use fedft_tensor::rng;
    use rand::Rng;

    /// One scoring pass: the suffix over `boundary`, reduced by `kind`.
    fn score(
        kind: ScoreKind,
        suffix: &SuffixNet,
        boundary: &Matrix,
        labels: &[usize],
    ) -> Result<Vec<f32>> {
        kind.score(&suffix.forward(boundary)?, labels)
    }

    fn model() -> BlockNet {
        BlockNet::new(&BlockNetConfig::new(8, 5).with_hidden(12, 12, 12), 3)
    }

    fn random_features(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut r = rng::rng_for(seed, "entropy-test");
        Matrix::from_vec(
            rows,
            cols,
            (0..rows * cols)
                .map(|_| r.gen::<f32>() * 2.0 - 1.0)
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn entropies_are_bounded_by_log_num_classes() {
        let mut m = model();
        let x = random_features(20, 8, 1);
        let h = sample_entropies(&mut m, &x, 1.0).unwrap();
        assert_eq!(h.len(), 20);
        let bound = (5.0_f32).ln() + 1e-4;
        assert!(h.iter().all(|&v| v >= 0.0 && v <= bound));
    }

    #[test]
    fn hardened_softmax_lowers_mean_entropy() {
        let mut m = model();
        let x = random_features(50, 8, 2);
        let h_standard = sample_entropies(&mut m, &x, 1.0).unwrap();
        let h_hardened = sample_entropies(&mut m, &x, 0.1).unwrap();
        let mean = |v: &[f32]| v.iter().sum::<f32>() / v.len() as f32;
        assert!(
            mean(&h_hardened) < mean(&h_standard),
            "hardened mean {} should be below standard mean {}",
            mean(&h_hardened),
            mean(&h_standard)
        );
    }

    #[test]
    fn invalid_inputs_error() {
        let mut m = model();
        assert!(sample_entropies(&mut m, &Matrix::zeros(0, 8), 1.0).is_err());
        let x = random_features(4, 8, 3);
        assert!(sample_entropies(&mut m, &x, 0.0).is_err());
        assert!(sample_entropies(&mut m, &x, f32::NAN).is_err());
    }

    #[test]
    fn ranking_is_descending_and_deterministic() {
        let entropies = vec![0.5, 2.0, 1.0, 2.0, 0.1];
        let order = rank_by_entropy(&entropies);
        assert_eq!(order, vec![1, 3, 2, 0, 4]);
    }

    #[test]
    fn histogram_counts_all_samples() {
        let entropies = vec![0.0, 0.1, 0.5, 1.0, 1.5, 1.6];
        let hist = EntropyHistogram::from_entropies(&entropies, 5, 4).unwrap();
        assert_eq!(hist.counts.iter().sum::<usize>(), 6);
        assert!((hist.max - (5.0_f32).ln()).abs() < 1e-6);
    }

    #[test]
    fn histogram_tail_fraction() {
        let entropies = vec![0.0, 0.0, 0.0, 1.6, 1.6];
        let hist = EntropyHistogram::from_entropies(&entropies, 5, 4).unwrap();
        let frac = hist.high_entropy_fraction(1);
        assert!((frac - 0.4).abs() < 1e-9);
        assert_eq!(hist.high_entropy_fraction(0), 0.0);
    }

    #[test]
    fn histogram_tail_fraction_edge_cases() {
        // tail_bins = 0: an empty tail holds no mass.
        let entropies = vec![0.0, 0.4, 0.8, 1.2, 1.6];
        let hist = EntropyHistogram::from_entropies(&entropies, 5, 4).unwrap();
        assert_eq!(hist.high_entropy_fraction(0), 0.0);
        // tail_bins > bins: clamped to the whole histogram, fraction 1.
        assert!((hist.high_entropy_fraction(10) - 1.0).abs() < 1e-12);
        assert_eq!(
            hist.high_entropy_fraction(4),
            hist.high_entropy_fraction(400)
        );
        // An empty histogram (no samples) has no tail at any width.
        let empty = EntropyHistogram::from_entropies(&[], 5, 4).unwrap();
        assert_eq!(empty.counts.iter().sum::<usize>(), 0);
        for tail in [0, 1, 4, 9] {
            assert_eq!(empty.high_entropy_fraction(tail), 0.0);
        }
    }

    #[test]
    fn histogram_validation() {
        assert!(EntropyHistogram::from_entropies(&[0.1], 5, 0).is_err());
        assert!(EntropyHistogram::from_entropies(&[0.1], 1, 4).is_err());
    }

    #[test]
    fn boundary_entropies_are_bit_identical_to_full_forward() {
        use fedft_nn::FreezeLevel;
        let mut m = model();
        let x = random_features(40, 8, 4);
        let full = sample_entropies(&mut m, &x, 0.1).unwrap();
        for freeze in FreezeLevel::all() {
            let boundary = m.forward_frozen(freeze, &x).unwrap();
            let suffix = m.trainable_suffix(freeze);
            let cached = score(ScoreKind::entropy(0.1), &suffix, &boundary, &[]).unwrap();
            let as_bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(as_bits(&full), as_bits(&cached), "freeze {freeze}");
        }
        // The boundary path validates its inputs like the full path does.
        let suffix = m.trainable_suffix(FreezeLevel::Moderate);
        assert!(score(ScoreKind::entropy(0.1), &suffix, &Matrix::zeros(0, 12), &[]).is_err());
        let boundary = m.forward_frozen(FreezeLevel::Moderate, &x).unwrap();
        assert!(score(ScoreKind::entropy(0.0), &suffix, &boundary, &[]).is_err());
    }

    #[test]
    fn loss_scores_match_manual_cross_entropy() {
        use fedft_nn::FreezeLevel;
        let m = model();
        let x = random_features(18, 8, 6);
        let labels: Vec<usize> = (0..18).map(|i| i % 5).collect();
        for freeze in FreezeLevel::all() {
            let boundary = m.forward_frozen(freeze, &x).unwrap();
            let suffix = m.trainable_suffix(freeze);
            let losses = score(ScoreKind::Loss, &suffix, &boundary, &labels).unwrap();
            assert_eq!(losses.len(), 18);
            // Cross-entropy of a softmax is non-negative and finite here.
            assert!(losses.iter().all(|&l| l >= 0.0 && l.is_finite()));
            // Manual check on row 0: −ln p_y from the probability matrix.
            let logits = suffix.forward(&boundary).unwrap();
            let proba = stats::softmax(&logits).unwrap();
            let expected = -proba.get(0, labels[0]).ln();
            assert!((losses[0] - expected).abs() < 1e-6, "freeze {freeze}");
        }
    }

    #[test]
    fn gradient_norm_scores_match_explicit_residual_norm() {
        use fedft_nn::FreezeLevel;
        let m = model();
        let x = random_features(14, 8, 7);
        let labels: Vec<usize> = (0..14).map(|i| (i * 3) % 5).collect();
        let freeze = FreezeLevel::Moderate;
        let boundary = m.forward_frozen(freeze, &x).unwrap();
        let suffix = m.trainable_suffix(freeze);
        let norms = score(ScoreKind::GradientNorm, &suffix, &boundary, &labels).unwrap();
        let logits = suffix.forward(&boundary).unwrap();
        let proba = stats::softmax(&logits).unwrap();
        for (row, &y) in labels.iter().enumerate() {
            let residual_sq: f32 = proba
                .row(row)
                .iter()
                .enumerate()
                .map(|(j, &p)| {
                    let r = p - if j == y { 1.0 } else { 0.0 };
                    r * r
                })
                .sum();
            assert!(
                (norms[row] - residual_sq.sqrt()).abs() < 1e-6,
                "row {row}: {} vs {}",
                norms[row],
                residual_sq.sqrt()
            );
            assert!(norms[row] >= 0.0 && norms[row] <= (2.0_f32).sqrt() + 1e-5);
        }
    }

    #[test]
    fn label_aware_scores_validate_inputs() {
        use fedft_nn::FreezeLevel;
        let m = model();
        let x = random_features(6, 8, 8);
        let boundary = m.forward_frozen(FreezeLevel::Moderate, &x).unwrap();
        let suffix = m.trainable_suffix(FreezeLevel::Moderate);
        // Mismatched label count.
        assert!(score(ScoreKind::Loss, &suffix, &boundary, &[0, 1]).is_err());
        // Out-of-range label (model has 5 classes).
        let bad = vec![0, 1, 2, 3, 4, 9];
        assert!(score(ScoreKind::GradientNorm, &suffix, &boundary, &bad).is_err());
        // Empty boundary.
        assert!(score(ScoreKind::Loss, &suffix, &Matrix::zeros(0, 12), &[]).is_err());
    }

    #[test]
    fn single_class_predictions_have_zero_entropy_everywhere() {
        // A one-class model's softmax output is identically 1, so every
        // sample's entropy is exactly zero and the ranking degenerates to
        // the original index order.
        let mut m = BlockNet::new(&BlockNetConfig::new(8, 1).with_hidden(12, 12, 12), 3);
        let x = random_features(25, 8, 5);
        let h = sample_entropies(&mut m, &x, 0.1).unwrap();
        assert_eq!(h.len(), 25);
        assert!(h.iter().all(|&v| v == 0.0), "entropies {h:?}");
        assert_eq!(rank_by_entropy(&h), (0..25).collect::<Vec<_>>());
    }

    #[test]
    fn exact_entropy_ties_rank_in_deterministic_index_order() {
        // All-equal entropies: the ranking must be the identity permutation.
        let tied = vec![0.75_f32; 6];
        assert_eq!(rank_by_entropy(&tied), vec![0, 1, 2, 3, 4, 5]);
        // Mixed values with an exact three-way tie: tied indices stay in
        // ascending order between the strictly larger and smaller values.
        let mixed = vec![0.5, 0.9, 0.5, 1.2, 0.5, 0.1];
        assert_eq!(rank_by_entropy(&mixed), vec![3, 1, 0, 2, 4, 5]);
        // Equal NaN bit patterns are exact ties under the total order and
        // fall back to index order.
        let with_nan = vec![f32::NAN, f32::NAN];
        assert_eq!(rank_by_entropy(&with_nan), vec![0, 1]);
    }

    #[test]
    fn non_finite_entropies_rank_deterministically() {
        // Regression: `partial_cmp(..).unwrap_or(Equal)` is not a strict
        // weak ordering when a NaN is present (NaN "equals" everything while
        // the finite values still compare), so the selection order became
        // arbitrary. Under `total_cmp`, descending order is
        // NaN > +inf > finite > -inf, with index tie-breaks.
        let entropies = vec![
            1.0,
            f32::NAN,
            0.5,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ];
        assert_eq!(rank_by_entropy(&entropies), vec![1, 5, 3, 0, 2, 4]);
        // Negative-sign NaN sits at the other end of the total order,
        // below -inf — still a fixed, deterministic position.
        let negative_nan = vec![-f32::NAN, 0.0, f32::NEG_INFINITY];
        assert_eq!(rank_by_entropy(&negative_nan), vec![1, 2, 0]);
        // The ranking is a permutation and is stable across repeated calls.
        let again = rank_by_entropy(&entropies);
        assert_eq!(again, vec![1, 5, 3, 0, 2, 4]);
        let mut sorted = again;
        sorted.sort_unstable();
        assert_eq!(sorted, (0..entropies.len()).collect::<Vec<_>>());
    }

    #[test]
    fn histogram_with_a_single_bin_collects_everything() {
        let entropies = vec![0.0, 0.3, 1.0, 1.55, 1.7];
        let hist = EntropyHistogram::from_entropies(&entropies, 5, 1).unwrap();
        assert_eq!(hist.counts, vec![5]);
        assert_eq!(hist.min, 0.0);
        assert!((hist.max - (5.0_f32).ln()).abs() < 1e-6);
        // With one bin the whole distribution is the "tail".
        assert!((hist.high_entropy_fraction(1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_shifts_left_with_hardened_softmax() {
        // The paper's Figure 1: with a lower temperature most samples move to
        // the low-entropy bins, leaving a thin high-entropy tail.
        let mut m = model();
        let x = random_features(200, 8, 9);
        let standard = sample_entropies(&mut m, &x, 1.0).unwrap();
        let hardened = sample_entropies(&mut m, &x, 0.1).unwrap();
        let hist_standard = EntropyHistogram::from_entropies(&standard, 5, 10).unwrap();
        let hist_hardened = EntropyHistogram::from_entropies(&hardened, 5, 10).unwrap();
        // Low-entropy mass (first half of the bins) grows under hardening.
        let low_mass = |h: &EntropyHistogram| h.counts[..5].iter().sum::<usize>();
        assert!(low_mass(&hist_hardened) > low_mass(&hist_standard));
    }
}
