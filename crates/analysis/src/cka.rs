//! Linear Centered Kernel Alignment (CKA) between model representations.
//!
//! The paper uses CKA (Kornblith et al., 2019) to quantify how far
//! client-updated models drift apart under heterogeneous data: for every pair
//! of clients it compares the activations their models produce on the shared
//! test set, at three depths (low / mid / up layer groups). Pretrained models
//! drift less, which shows up as higher pairwise CKA.

use fedft_core::FlError;
use fedft_nn::{BlockId, BlockNet, FreezeLevel};
use fedft_tensor::Matrix;

/// `x` with each column centred to zero mean: the column sums, taken top to
/// bottom, scaled by `1/rows` and subtracted from every row.
fn center_columns(x: &Matrix) -> Matrix {
    let mut means = Matrix::default();
    x.sum_rows_into(&mut means);
    means.scale_assign(1.0 / x.rows() as f32);
    let mut out = x.clone();
    for row in out.as_mut_slice().chunks_exact_mut(x.cols().max(1)) {
        for (v, &mean) in row.iter_mut().zip(means.as_slice()) {
            *v -= mean;
        }
    }
    out
}

/// Computes the linear CKA similarity between two activation matrices with
/// one sample per row.
///
/// `CKA(X, Y) = ‖Yᵀ X‖²_F / (‖Xᵀ X‖_F · ‖Yᵀ Y‖_F)` on column-centred
/// activations. The value lies in `[0, 1]`; `1.0` means the representations
/// are identical up to an orthogonal transform and isotropic scaling.
///
/// # Errors
///
/// Returns an error if the two matrices have different numbers of rows, or
/// fewer than two rows (CKA needs at least two samples to centre).
fn linear_cka(x: &Matrix, y: &Matrix) -> Result<f64, FlError> {
    if x.rows() != y.rows() {
        return Err(FlError::InvalidConfig {
            what: format!(
                "CKA requires the same number of samples, got {} and {}",
                x.rows(),
                y.rows()
            ),
        });
    }
    if x.rows() < 2 {
        return Err(FlError::InvalidConfig {
            what: "CKA requires at least two samples".into(),
        });
    }
    let xc = center_columns(x);
    let yc = center_columns(y);
    // Cross and self Gram matrices in feature space (d_x × d_y etc.).
    let xty = xc.matmul_tn(&yc).map_err(FlError::from)?;
    let xtx = xc.matmul_tn(&xc).map_err(FlError::from)?;
    let yty = yc.matmul_tn(&yc).map_err(FlError::from)?;
    let numerator = f64::from(xty.norm_sq());
    let denominator = f64::from(xtx.norm()) * f64::from(yty.norm());
    if denominator <= f64::EPSILON {
        // One of the representations is constant; define similarity as zero.
        return Ok(0.0);
    }
    Ok((numerator / denominator).clamp(0.0, 1.0))
}

/// Computes the full pairwise CKA matrix between the representations listed
/// in `activations` (one activation matrix per model, all computed on the
/// same inputs).
///
/// # Errors
///
/// Returns an error if any pair is incompatible (see [`linear_cka`]).
fn pairwise_cka_matrix(activations: &[Matrix]) -> Result<Vec<Vec<f64>>, FlError> {
    let n = activations.len();
    let mut out = vec![vec![0.0; n]; n];
    for i in 0..n {
        for j in i..n {
            let value = if i == j {
                1.0
            } else {
                linear_cka(&activations[i], &activations[j])?
            };
            out[i][j] = value;
            out[j][i] = value;
        }
    }
    Ok(out)
}

/// Mean of the off-diagonal entries of a pairwise similarity matrix — the
/// summary statistic plotted in Figure 4.
pub fn mean_offdiagonal(matrix: &[Vec<f64>]) -> f64 {
    let n = matrix.len();
    if n < 2 {
        return 1.0;
    }
    let mut total = 0.0;
    let mut count = 0usize;
    for (i, row) in matrix.iter().enumerate() {
        for (j, &v) in row.iter().enumerate() {
            if i != j {
                total += v;
                count += 1;
            }
        }
    }
    total / count as f64
}

/// Extracts the activation of `block` that `model` produces on `inputs`:
/// the output of block `k` below the head is the boundary of the freeze
/// level that freezes `k + 1` blocks, and the head's is the logits.
///
/// # Errors
///
/// Returns an error when the inputs are incompatible with the model.
fn block_activation(
    model: &mut BlockNet,
    inputs: &Matrix,
    block: BlockId,
) -> Result<Matrix, FlError> {
    let activation = match FreezeLevel::all().get(block.index() + 1) {
        Some(&freeze) => model.forward_frozen(freeze, inputs),
        None => model.forward(inputs),
    };
    activation.map_err(FlError::from)
}

/// Computes the pairwise CKA matrix across `models` at the given block depth,
/// evaluating every model on the same `inputs` (typically the global test
/// set), as in Figures 2 and 3.
///
/// # Errors
///
/// Returns an error when the inputs are incompatible with any model.
pub fn client_cka_matrix(
    models: &mut [BlockNet],
    inputs: &Matrix,
    block: BlockId,
) -> Result<Vec<Vec<f64>>, FlError> {
    let mut activations = Vec::with_capacity(models.len());
    for model in models.iter_mut() {
        activations.push(block_activation(model, inputs, block)?);
    }
    pairwise_cka_matrix(&activations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedft_nn::BlockNetConfig;
    use fedft_tensor::{init, rng};

    fn random_activations(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut r = rng::rng_for(seed, "cka-test");
        init::normal(&mut r, rows, cols, 0.0, 1.0)
    }

    #[test]
    fn cka_of_identical_representations_is_one() {
        let x = random_activations(20, 6, 1);
        let value = linear_cka(&x, &x).unwrap();
        assert!((value - 1.0).abs() < 1e-5, "got {value}");
    }

    #[test]
    fn cka_is_invariant_to_isotropic_scaling() {
        let x = random_activations(20, 6, 2);
        let y = x.scale(3.5);
        assert!((linear_cka(&x, &y).unwrap() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn cka_is_symmetric_and_bounded() {
        let x = random_activations(30, 8, 3);
        let y = random_activations(30, 5, 4);
        let a = linear_cka(&x, &y).unwrap();
        let b = linear_cka(&y, &x).unwrap();
        assert!((a - b).abs() < 1e-5);
        assert!((0.0..=1.0).contains(&a));
    }

    #[test]
    fn independent_representations_have_low_cka() {
        let x = random_activations(200, 10, 5);
        let y = random_activations(200, 10, 6);
        let value = linear_cka(&x, &y).unwrap();
        assert!(
            value < 0.4,
            "independent random features should have low CKA, got {value}"
        );
    }

    #[test]
    fn constant_representation_yields_zero() {
        let x = random_activations(10, 4, 7);
        let y = Matrix::full(10, 4, 2.0);
        assert_eq!(linear_cka(&x, &y).unwrap(), 0.0);
    }

    #[test]
    fn errors_on_incompatible_inputs() {
        let x = random_activations(10, 4, 8);
        let y = random_activations(12, 4, 9);
        assert!(linear_cka(&x, &y).is_err());
        assert!(linear_cka(&Matrix::zeros(1, 4), &Matrix::zeros(1, 4)).is_err());
    }

    #[test]
    fn center_columns_zero_mean() {
        let x = random_activations(7, 3, 12);
        let centred = center_columns(&x);
        for c in 0..3 {
            let mean = (0..7).map(|r| centred.get(r, c)).sum::<f32>() / 7.0;
            assert!(mean.abs() < 1e-6, "column {c} mean {mean}");
        }
    }

    #[test]
    fn pairwise_matrix_is_symmetric_with_unit_diagonal() {
        let acts = vec![
            random_activations(15, 4, 1),
            random_activations(15, 6, 2),
            random_activations(15, 5, 3),
        ];
        let m = pairwise_cka_matrix(&acts).unwrap();
        for (i, row) in m.iter().enumerate() {
            assert_eq!(row[i], 1.0);
            for (j, &v) in row.iter().enumerate() {
                assert!((v - m[j][i]).abs() < 1e-12);
            }
        }
        let mean = mean_offdiagonal(&m);
        assert!((0.0..=1.0).contains(&mean));
        assert_eq!(mean_offdiagonal(&[vec![1.0]]), 1.0);
    }

    #[test]
    fn client_cka_matrix_over_models() {
        let cfg = BlockNetConfig::new(6, 3).with_hidden(8, 8, 8);
        let mut models = vec![
            BlockNet::new(&cfg, 1),
            BlockNet::new(&cfg, 2),
            BlockNet::new(&cfg, 1),
        ];
        let inputs = random_activations(25, 6, 10);
        let m = client_cka_matrix(&mut models, &inputs, BlockId::Up).unwrap();
        // Models 0 and 2 are identical (same seed), so their CKA is 1.
        assert!((m[0][2] - 1.0).abs() < 1e-4);
        // A different model should not be perfectly aligned.
        assert!(m[0][1] < 0.999_9);
    }

    #[test]
    fn block_activation_returns_requested_depth() {
        let cfg = BlockNetConfig::new(6, 3).with_hidden(8, 12, 16);
        let mut model = BlockNet::new(&cfg, 1);
        let inputs = random_activations(5, 6, 11);
        assert_eq!(
            block_activation(&mut model, &inputs, BlockId::Low)
                .unwrap()
                .cols(),
            8
        );
        assert_eq!(
            block_activation(&mut model, &inputs, BlockId::Mid)
                .unwrap()
                .cols(),
            12
        );
        assert_eq!(
            block_activation(&mut model, &inputs, BlockId::Up)
                .unwrap()
                .cols(),
            16
        );
        assert_eq!(
            block_activation(&mut model, &inputs, BlockId::Classifier)
                .unwrap()
                .cols(),
            3
        );
    }
}
