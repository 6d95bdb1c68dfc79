//! Softmax cross-entropy loss.

use crate::{NnError, Result};
use fedft_tensor::Matrix;

/// Combined softmax + cross-entropy loss with integer targets.
///
/// Combining the two yields the numerically pleasant gradient
/// `softmax(logits) - one_hot(labels)` (averaged over the batch).
///
/// # Example
///
/// ```
/// use fedft_nn::SoftmaxCrossEntropy;
/// use fedft_tensor::Matrix;
///
/// # fn main() -> Result<(), fedft_nn::NnError> {
/// let loss = SoftmaxCrossEntropy::new();
/// let logits = Matrix::from_rows(&[vec![5.0, 0.0], vec![0.0, 5.0]]).unwrap();
/// let (value, grad) = loss.forward_backward(&logits, &[0, 1])?;
/// assert!(value < 0.1);           // confident and correct -> small loss
/// assert_eq!(grad.shape(), (2, 2));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct SoftmaxCrossEntropy {
    _private: (),
}

impl SoftmaxCrossEntropy {
    /// Creates the loss function.
    pub fn new() -> Self {
        SoftmaxCrossEntropy { _private: () }
    }

    /// Computes the mean cross-entropy loss over the batch.
    ///
    /// Reads one log-probability per row without building the matrix: the
    /// row's max, its left-to-right sum of shifted exponentials and
    /// `z[label] − (ln sum + max)` are the operations of [`log_softmax`] on
    /// that entry, so the value is the same bit for bit.
    ///
    /// [`log_softmax`]: fedft_tensor::stats::log_softmax
    ///
    /// # Errors
    ///
    /// Returns an error when shapes and labels are inconsistent.
    pub fn loss(&self, logits: &Matrix, labels: &[usize]) -> Result<f32> {
        self.check(logits, labels)?;
        let mut total = 0.0_f32;
        for (r, &label) in labels.iter().enumerate() {
            let row = logits.row(r);
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let log_sum = row.iter().map(|&z| (z - max).exp()).sum::<f32>().ln() + max;
            total -= row[label] - log_sum;
        }
        Ok(total / labels.len() as f32)
    }

    /// Computes the loss value and the gradient with respect to the logits.
    ///
    /// The gradient is already divided by the batch size, so downstream
    /// layers receive the gradient of the *mean* loss.
    ///
    /// # Errors
    ///
    /// Returns an error when shapes and labels are inconsistent.
    pub fn forward_backward(&self, logits: &Matrix, labels: &[usize]) -> Result<(f32, Matrix)> {
        let mut grad = Matrix::default();
        let value = self.forward_backward_into(logits, labels, &mut grad)?;
        Ok((value, grad))
    }

    /// [`SoftmaxCrossEntropy::forward_backward`] with the gradient written
    /// into `grad` (reshaped and overwritten, buffer reused).
    ///
    /// One pass per row yields both outputs: the max-subtracted exponentials
    /// and their left-to-right sum are exactly what [`stats::softmax`]
    /// divides and what [`stats::log_softmax`] takes the logarithm of, so
    /// loss and gradient equal the two-matrix formulation bit for bit.
    ///
    /// [`stats::softmax`]: fedft_tensor::stats::softmax
    /// [`stats::log_softmax`]: fedft_tensor::stats::log_softmax
    ///
    /// # Errors
    ///
    /// Returns an error when shapes and labels are inconsistent.
    pub fn forward_backward_into(
        &self,
        logits: &Matrix,
        labels: &[usize],
        grad: &mut Matrix,
    ) -> Result<f32> {
        self.check(logits, labels)?;
        let n = labels.len() as f32;
        let mut total = 0.0_f32;
        grad.resize_zeroed(logits.rows(), logits.cols());
        for (r, &label) in labels.iter().enumerate() {
            let row = logits.row(r);
            let grad_row = grad.row_mut(r);
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut denom = 0.0_f32;
            for (g, &z) in grad_row.iter_mut().zip(row) {
                let e = (z - max).exp();
                *g = e;
                denom += e;
            }
            // denom >= 1 because the max element contributes exp(0) = 1.
            total -= row[label] - (denom.ln() + max);
            for g in grad_row.iter_mut() {
                *g /= denom;
            }
            grad_row[label] -= 1.0;
        }
        grad.scale_assign(1.0 / n);
        Ok(total / n)
    }

    fn check(&self, logits: &Matrix, labels: &[usize]) -> Result<()> {
        if logits.rows() == 0 || logits.rows() != labels.len() {
            return Err(NnError::Tensor(fedft_tensor::TensorError::ShapeMismatch {
                op: "cross_entropy",
                lhs: logits.shape(),
                rhs: (labels.len(), 1),
            }));
        }
        for &label in labels {
            if label >= logits.cols() {
                return Err(NnError::LabelOutOfRange {
                    label,
                    num_classes: logits.cols(),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedft_tensor::stats;

    #[test]
    fn uniform_logits_give_log_c_loss() {
        let loss = SoftmaxCrossEntropy::new();
        let logits = Matrix::zeros(4, 10);
        let value = loss.loss(&logits, &[0, 1, 2, 3]).unwrap();
        assert!((value - (10.0_f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn confident_correct_predictions_have_small_loss() {
        let loss = SoftmaxCrossEntropy::new();
        let logits = Matrix::from_rows(&[vec![10.0, 0.0], vec![0.0, 10.0]]).unwrap();
        assert!(loss.loss(&logits, &[0, 1]).unwrap() < 1e-3);
        assert!(loss.loss(&logits, &[1, 0]).unwrap() > 5.0);
    }

    #[test]
    fn gradient_matches_softmax_minus_onehot() {
        let loss = SoftmaxCrossEntropy::new();
        let logits = Matrix::from_rows(&[vec![1.0, 2.0, 0.5]]).unwrap();
        let (_, grad) = loss.forward_backward(&logits, &[1]).unwrap();
        let probs = stats::softmax(&logits).unwrap();
        assert!((grad.get(0, 0) - probs.get(0, 0)).abs() < 1e-6);
        assert!((grad.get(0, 1) - (probs.get(0, 1) - 1.0)).abs() < 1e-6);
        // Gradient rows sum to zero.
        assert!(grad.sum_rows().as_slice().iter().all(|_| true));
        assert!(grad.row(0).iter().sum::<f32>().abs() < 1e-6);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let loss = SoftmaxCrossEntropy::new();
        let logits = Matrix::from_rows(&[vec![0.3, -0.7, 1.2], vec![2.0, 0.0, -1.0]]).unwrap();
        let labels = [2, 0];
        let (_, grad) = loss.forward_backward(&logits, &labels).unwrap();
        let eps = 1e-2;
        for r in 0..2 {
            for c in 0..3 {
                let mut plus = logits.clone();
                plus.set(r, c, logits.get(r, c) + eps);
                let mut minus = logits.clone();
                minus.set(r, c, logits.get(r, c) - eps);
                let numeric = (loss.loss(&plus, &labels).unwrap()
                    - loss.loss(&minus, &labels).unwrap())
                    / (2.0 * eps);
                assert!((numeric - grad.get(r, c)).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn fused_pass_equals_the_two_matrix_formulation_bit_for_bit() {
        let loss = SoftmaxCrossEntropy::new();
        let mut r = fedft_tensor::rng::rng_for(7, "loss-oracle");
        let mut grad = Matrix::full(9, 9, f32::NAN);
        for (rows, cols) in [(1, 1), (2, 3), (32, 10), (5, 100)] {
            let logits = fedft_tensor::init::normal(&mut r, rows, cols, 0.0, 3.0);
            let labels: Vec<usize> = (0..rows).map(|i| (i * 7) % cols).collect();

            // The formulation this replaced: softmax and log-softmax as two
            // matrices.
            let mut expected = stats::softmax(&logits).unwrap();
            let log_probs = stats::log_softmax(&logits).unwrap();
            let mut total = 0.0_f32;
            for (i, &label) in labels.iter().enumerate() {
                total -= log_probs.get(i, label);
                expected.set(i, label, expected.get(i, label) - 1.0);
            }
            expected.scale_assign(1.0 / rows as f32);

            let value = loss
                .forward_backward_into(&logits, &labels, &mut grad)
                .unwrap();
            assert_eq!(value.to_bits(), (total / rows as f32).to_bits());
            assert_eq!(grad.shape(), expected.shape());
            for (a, b) in grad.as_slice().iter().zip(expected.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits(), "{rows}x{cols}");
            }
            assert_eq!(
                value.to_bits(),
                loss.loss(&logits, &labels).unwrap().to_bits()
            );
        }
    }

    /// The formulation [`SoftmaxCrossEntropy::loss`] replaced: a
    /// log-softmax matrix, one entry read per row.
    fn log_softmax_loss(logits: &Matrix, labels: &[usize]) -> f32 {
        let log_probs = stats::log_softmax(logits).unwrap();
        let mut total = 0.0_f32;
        for (i, &label) in labels.iter().enumerate() {
            total -= log_probs.get(i, label);
        }
        total / labels.len() as f32
    }

    #[test]
    fn loss_equals_the_log_softmax_formulation_bit_for_bit() {
        let loss = SoftmaxCrossEntropy::new();
        let assert_same = |logits: &Matrix, labels: &[usize], context: &str| {
            let expected = log_softmax_loss(logits, labels);
            let value = loss.loss(logits, labels).unwrap();
            if expected.is_nan() {
                assert!(value.is_nan(), "{context}: {value}");
            } else {
                assert_eq!(value.to_bits(), expected.to_bits(), "{context}");
            }
        };
        let mut r = fedft_tensor::rng::rng_for(11, "loss-matrix-free");
        for (rows, cols) in [(1, 1), (3, 2), (64, 10), (7, 33)] {
            let logits = fedft_tensor::init::normal(&mut r, rows, cols, 0.0, 4.0);
            let labels: Vec<usize> = (0..rows).map(|i| (i * 5) % cols).collect();
            assert_same(&logits, &labels, &format!("{rows}x{cols}"));
        }
        // Each non-finite row on its own and at every label, so that one
        // NaN does not hide what the others compute.
        let (inf, nan) = (f32::INFINITY, f32::NAN);
        for row in [
            [inf, 0.0, 1.0],
            [-inf, 0.0, 1.0],
            [-inf, -inf, -inf],
            [nan, 0.0, 1.0],
            [0.5, nan, -inf],
            [inf, -inf, nan],
        ] {
            let logits = Matrix::from_rows(&[row.to_vec()]).unwrap();
            for label in 0..row.len() {
                assert_same(&logits, &[label], &format!("{row:?}, label {label}"));
            }
        }
    }

    #[test]
    fn rejects_bad_labels_and_shapes() {
        let loss = SoftmaxCrossEntropy::new();
        let logits = Matrix::zeros(2, 3);
        assert!(matches!(
            loss.loss(&logits, &[0, 5]).unwrap_err(),
            NnError::LabelOutOfRange { label: 5, .. }
        ));
        assert!(loss.loss(&logits, &[0]).is_err());
        assert!(loss.loss(&Matrix::zeros(0, 3), &[]).is_err());
    }
}
