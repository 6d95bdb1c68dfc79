//! Numerically stable statistics: softmax, entropy, argmax, accuracy.
//!
//! These routines are used both inside the training loss (`fedft-nn`) and in
//! the entropy-based data selector (`fedft-core`), which applies a
//! temperature-scaled ("hardened") softmax before computing Shannon entropy.

use crate::{Matrix, Result, TensorError};

/// Row-wise softmax with temperature.
///
/// Each row of `logits` is transformed to `softmax(z / temperature)`. A
/// temperature below `1.0` is the paper's *hardened* softmax (sharper
/// distribution), above `1.0` the *softened* softmax used in knowledge
/// distillation. The computation subtracts the row maximum before
/// exponentiation for numerical stability.
///
/// # Errors
///
/// Returns [`TensorError::InvalidTemperature`] when `temperature` is not a
/// positive finite number, and [`TensorError::EmptyMatrix`] for an empty
/// input.
pub fn softmax_with_temperature(logits: &Matrix, temperature: f32) -> Result<Matrix> {
    check_temperature(temperature)?;
    if logits.is_empty() {
        return Err(TensorError::EmptyMatrix { op: "softmax" });
    }
    let mut out = Matrix::zeros(logits.rows(), logits.cols());
    for r in 0..logits.rows() {
        let row = logits.row(r);
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut denom = 0.0_f32;
        let out_row = out.row_mut(r);
        for (o, &z) in out_row.iter_mut().zip(row.iter()) {
            let e = ((z - max) / temperature).exp();
            *o = e;
            denom += e;
        }
        // denom >= 1 because the max element contributes exp(0) = 1.
        for o in out_row.iter_mut() {
            *o /= denom;
        }
    }
    Ok(out)
}

/// Row-wise Shannon entropy of the temperature-scaled softmax of `logits`,
/// fused into a single pass per row.
///
/// Semantically [`shannon_entropy`] of every row of
/// `softmax_with_temperature(logits, t)?`, and **bit-identical** to that
/// two-pass form: the same max-subtracted exponentials are accumulated into
/// the same denominator in the same order, each probability is formed by
/// the same division, and the entropy sum adds `-p·ln p` for the same
/// (strictly positive) terms left to right.
/// What the fusion removes is the `rows × cols` probability matrix the
/// two-pass form materialises, writes and re-reads — the selector only ever
/// needs the per-row entropies, not the probabilities.
///
/// # Errors
///
/// Returns [`TensorError::InvalidTemperature`] when `temperature` is not a
/// positive finite number, and [`TensorError::EmptyMatrix`] for an empty
/// input.
pub fn softmax_entropy_rows(logits: &Matrix, temperature: f32) -> Result<Vec<f32>> {
    check_temperature(temperature)?;
    if logits.is_empty() {
        return Err(TensorError::EmptyMatrix {
            op: "softmax_entropy",
        });
    }
    let mut scratch = vec![0.0_f32; logits.cols()];
    let mut entropies = Vec::with_capacity(logits.rows());
    for r in 0..logits.rows() {
        let row = logits.row(r);
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut denom = 0.0_f32;
        for (e, &z) in scratch.iter_mut().zip(row.iter()) {
            let v = ((z - max) / temperature).exp();
            *e = v;
            denom += v;
        }
        // denom >= 1 because the max element contributes exp(0) = 1. The
        // entropy accumulation mirrors `shannon_entropy` exactly — same
        // iterator pipeline, so even the signed zero of an all-certain row
        // matches the two-pass form bit for bit.
        let h: f32 = scratch
            .iter()
            .map(|&e| e / denom)
            .filter(|&p| p > 0.0)
            .map(|p| -p * p.ln())
            .sum();
        entropies.push(h);
    }
    Ok(entropies)
}

fn check_temperature(temperature: f32) -> Result<()> {
    if temperature.is_finite() && temperature > 0.0 {
        Ok(())
    } else {
        Err(TensorError::InvalidTemperature {
            bits: temperature.to_bits(),
        })
    }
}

/// Row-wise softmax at temperature 1.
///
/// # Errors
///
/// Returns [`TensorError::EmptyMatrix`] for an empty input.
pub fn softmax(logits: &Matrix) -> Result<Matrix> {
    softmax_with_temperature(logits, 1.0)
}

/// Row-wise log-softmax (numerically stable).
///
/// # Errors
///
/// Returns [`TensorError::EmptyMatrix`] for an empty input.
pub fn log_softmax(logits: &Matrix) -> Result<Matrix> {
    if logits.is_empty() {
        return Err(TensorError::EmptyMatrix { op: "log_softmax" });
    }
    let mut out = Matrix::zeros(logits.rows(), logits.cols());
    for r in 0..logits.rows() {
        let row = logits.row(r);
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let log_sum: f32 = row.iter().map(|&z| (z - max).exp()).sum::<f32>().ln() + max;
        for (o, &z) in out.row_mut(r).iter_mut().zip(row.iter()) {
            *o = z - log_sum;
        }
    }
    Ok(out)
}

/// Shannon entropy (natural log) of a single probability vector.
///
/// Zero probabilities contribute zero (the `p ln p → 0` limit).
///
/// # Example
///
/// ```
/// use fedft_tensor::stats::shannon_entropy;
///
/// let uniform = [0.25_f32; 4];
/// assert!((shannon_entropy(&uniform) - (4.0_f32).ln()).abs() < 1e-6);
/// assert_eq!(shannon_entropy(&[1.0, 0.0, 0.0]), 0.0);
/// ```
pub fn shannon_entropy(probabilities: &[f32]) -> f32 {
    probabilities
        .iter()
        .filter(|&&p| p > 0.0)
        .map(|&p| -p * p.ln())
        .sum()
}

/// Index of the largest element in a slice (first one wins on ties).
///
/// # Panics
///
/// Panics if the slice is empty.
pub fn argmax(values: &[f32]) -> usize {
    assert!(!values.is_empty(), "argmax of an empty slice");
    let mut best = 0;
    let mut best_val = values[0];
    for (i, &v) in values.iter().enumerate().skip(1) {
        if v > best_val {
            best = i;
            best_val = v;
        }
    }
    best
}

/// Row-wise argmax (predicted class per sample).
fn argmax_rows(logits: &Matrix) -> Vec<usize> {
    (0..logits.rows()).map(|r| argmax(logits.row(r))).collect()
}

/// Top-1 accuracy of `logits` against integer `labels`, in `[0, 1]`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if the number of rows differs from
/// the number of labels, or [`TensorError::EmptyMatrix`] for empty inputs.
pub fn accuracy(logits: &Matrix, labels: &[usize]) -> Result<f32> {
    if logits.rows() == 0 {
        return Err(TensorError::EmptyMatrix { op: "accuracy" });
    }
    if logits.rows() != labels.len() {
        return Err(TensorError::ShapeMismatch {
            op: "accuracy",
            lhs: logits.shape(),
            rhs: (labels.len(), 1),
        });
    }
    let correct = argmax_rows(logits)
        .iter()
        .zip(labels.iter())
        .filter(|(p, l)| p == l)
        .count();
    Ok(correct as f32 / labels.len() as f32)
}

/// Mean of a slice; `0.0` for an empty slice.
pub fn mean(values: &[f32]) -> f32 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f32>() / values.len() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn logits() -> Matrix {
        Matrix::from_rows(&[
            vec![1.0, 2.0, 3.0],
            vec![0.0, 0.0, 0.0],
            vec![5.0, 1.0, 1.0],
        ])
        .unwrap()
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let p = softmax(&logits()).unwrap();
        for r in 0..p.rows() {
            let s: f32 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_uniform_for_equal_logits() {
        let p = softmax(&logits()).unwrap();
        for &v in p.row(1) {
            assert!((v - 1.0 / 3.0).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let m = Matrix::from_rows(&[vec![1000.0, 1001.0, 999.0]]).unwrap();
        let p = softmax(&m).unwrap();
        assert!(p.is_finite());
        assert!((p.row(0).iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn hardened_softmax_sharpens_distribution() {
        let m = Matrix::from_rows(&[vec![2.0, 1.0, 0.0]]).unwrap();
        let p1 = softmax_with_temperature(&m, 1.0).unwrap();
        let p01 = softmax_with_temperature(&m, 0.1).unwrap();
        // Lower temperature concentrates probability on the argmax.
        assert!(p01.get(0, 0) > p1.get(0, 0));
        assert!(shannon_entropy(p01.row(0)) < shannon_entropy(p1.row(0)));
    }

    #[test]
    fn softened_softmax_raises_entropy() {
        let m = Matrix::from_rows(&[vec![2.0, 1.0, 0.0]]).unwrap();
        let p1 = softmax_with_temperature(&m, 1.0).unwrap();
        let p5 = softmax_with_temperature(&m, 5.0).unwrap();
        assert!(shannon_entropy(p5.row(0)) > shannon_entropy(p1.row(0)));
    }

    #[test]
    #[should_panic(expected = "InvalidTemperature { bits: 0 }")]
    fn softmax_rejects_zero_temperature() {
        // The rejection is a typed error; unwrapping it is what panics.
        softmax_with_temperature(&logits(), 0.0).unwrap();
    }

    #[test]
    fn softmax_rejects_empty() {
        assert!(softmax(&Matrix::zeros(0, 0)).is_err());
    }

    #[test]
    fn log_softmax_matches_log_of_softmax() {
        let m = logits();
        let p = softmax(&m).unwrap().map(|v| v.ln());
        let lp = log_softmax(&m).unwrap();
        assert!(p.approx_eq(&lp, 1e-5));
    }

    #[test]
    fn entropy_bounds() {
        let uniform = vec![0.1_f32; 10];
        let h = shannon_entropy(&uniform);
        assert!((h - (10.0_f32).ln()).abs() < 1e-5);
        assert_eq!(shannon_entropy(&[1.0]), 0.0);
        assert_eq!(shannon_entropy(&[]), 0.0);
    }

    #[test]
    fn fused_softmax_entropy_is_bit_identical_to_two_pass() {
        // The cases that stress every branch of the fusion: mixed logits,
        // exact ties (uniform rows), numerically large values where the
        // max-subtraction matters, hardened and softened temperatures, and
        // -inf logits whose probability underflows to exactly zero (the
        // `p > 0` filter must skip them in both forms).
        let matrices = [
            logits(),
            Matrix::from_rows(&[vec![1000.0, 1001.0, 999.0], vec![-1000.0, 0.0, 1000.0]]).unwrap(),
            Matrix::from_rows(&[vec![f32::NEG_INFINITY, 0.0, 2.0]]).unwrap(),
            Matrix::from_rows(&[vec![0.5]]).unwrap(),
            Matrix::from_vec(
                7,
                11,
                (0..77)
                    .map(|i| ((i * 37 % 19) as f32 - 9.0) * 1.7)
                    .collect(),
            )
            .unwrap(),
        ];
        for (i, m) in matrices.iter().enumerate() {
            for temperature in [0.1, 0.5, 1.0, 5.0] {
                let probabilities = softmax_with_temperature(m, temperature).unwrap();
                let two_pass: Vec<f32> = (0..probabilities.rows())
                    .map(|r| shannon_entropy(probabilities.row(r)))
                    .collect();
                let fused = softmax_entropy_rows(m, temperature).unwrap();
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&two_pass),
                    bits(&fused),
                    "matrix {i}, temperature {temperature}"
                );
            }
        }
    }

    #[test]
    fn fused_softmax_entropy_validates_like_softmax() {
        assert!(softmax_entropy_rows(&Matrix::zeros(0, 0), 1.0).is_err());
    }

    #[test]
    #[should_panic(expected = "InvalidTemperature { bits: 0 }")]
    fn fused_softmax_entropy_rejects_zero_temperature() {
        softmax_entropy_rows(&logits(), 0.0).unwrap();
    }

    #[test]
    fn a_temperature_that_is_not_positive_and_finite_is_an_error_not_a_panic() {
        for temperature in [0.0, -0.0, -1.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let expected = Some(TensorError::InvalidTemperature {
                bits: temperature.to_bits(),
            });
            assert_eq!(
                softmax_with_temperature(&logits(), temperature).err(),
                expected
            );
            assert_eq!(softmax_entropy_rows(&logits(), temperature).err(), expected);
            // The temperature is checked before the input.
            let empty = Matrix::zeros(0, 0);
            assert_eq!(softmax_entropy_rows(&empty, temperature).err(), expected);
        }
    }

    #[test]
    fn argmax_first_on_ties() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0]), 1);
        assert_eq!(argmax(&[5.0]), 0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn argmax_empty_panics() {
        let _ = argmax(&[]);
    }

    #[test]
    fn accuracy_counts_matches() {
        let l = logits();
        // argmax per row: 2, 0, 0
        assert_eq!(accuracy(&l, &[2, 0, 0]).unwrap(), 1.0);
        assert!((accuracy(&l, &[2, 1, 1]).unwrap() - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn accuracy_shape_checks() {
        let l = logits();
        assert!(accuracy(&l, &[0, 1]).is_err());
        assert!(accuracy(&Matrix::zeros(0, 3), &[]).is_err());
    }

    #[test]
    fn summary_statistics() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert!((mean(&v) - 2.5).abs() < 1e-6);
        assert_eq!(mean(&[]), 0.0);
    }
}
