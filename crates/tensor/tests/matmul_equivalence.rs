//! Equivalence tests for the blocked matrix-product kernels against the
//! naive reference (`Matrix::matmul_naive` and explicit transposes), over
//! randomised shapes that straddle every register-tile remainder case.

use fedft_tensor::rng::rng_for_indexed;
use fedft_tensor::{init, Matrix};

const TOLERANCE: f32 = 1e-5;

/// `N(0, 0.1)` inputs: products are ~1e-2, so the one-rounding-vs-two
/// difference between the FMA kernel and the naive reference stays orders of
/// magnitude below [`TOLERANCE`] even after the longest reduction here.
fn random(rows: usize, cols: usize, case: u64, stream: &str) -> Matrix {
    let mut r = rng_for_indexed(0xB10C, stream, case);
    init::normal(&mut r, rows, cols, 0.0, 0.1)
}

/// Shapes covering: unit dims, sizes below/at/above the 8×16 register tile,
/// non-multiples of the tile in every dimension, long-thin and short-wide
/// panels, and a size large enough to cross the parallel-dispatch threshold.
fn shapes() -> Vec<(usize, usize, usize)> {
    vec![
        (1, 1, 1),
        (1, 7, 1),
        (2, 2, 2),
        (3, 4, 5),
        (4, 4, 4),
        (5, 5, 5),
        (6, 9, 7),
        (8, 8, 8),
        (13, 11, 17),
        (16, 16, 16),
        (21, 33, 19),
        (1, 64, 128),
        (128, 64, 1),
        (64, 3, 64),
        (96, 96, 96),
        (192, 192, 192), // crosses the parallel threshold on multi-core hosts
    ]
}

#[test]
fn blocked_matmul_matches_naive_reference() {
    for (case, &(m, k, n)) in shapes().iter().enumerate() {
        let a = random(m, k, case as u64, "nn-a");
        let b = random(k, n, case as u64, "nn-b");
        let blocked = a.matmul(&b).unwrap();
        let naive = a.matmul_naive(&b).unwrap();
        assert!(
            blocked.approx_eq(&naive, TOLERANCE),
            "matmul mismatch at shape ({m},{k},{n})"
        );
    }
}

#[test]
fn blocked_matmul_tn_matches_explicit_transpose() {
    for (case, &(m, k, n)) in shapes().iter().enumerate() {
        // `a` is k×m so a^T · b is m×n.
        let a = random(k, m, case as u64, "tn-a");
        let b = random(k, n, case as u64, "tn-b");
        let fused = a.matmul_tn(&b).unwrap();
        let explicit = a.transpose().matmul_naive(&b).unwrap();
        assert_eq!(fused.shape(), (m, n));
        assert!(
            fused.approx_eq(&explicit, TOLERANCE),
            "matmul_tn mismatch at shape ({m},{k},{n})"
        );
    }
}

#[test]
fn blocked_matmul_nt_matches_explicit_transpose() {
    for (case, &(m, k, n)) in shapes().iter().enumerate() {
        // `b` is n×k so a · b^T is m×n.
        let a = random(m, k, case as u64, "nt-a");
        let b = random(n, k, case as u64, "nt-b");
        let fused = a.matmul_nt(&b).unwrap();
        let explicit = a.matmul_naive(&b.transpose()).unwrap();
        assert_eq!(fused.shape(), (m, n));
        assert!(
            fused.approx_eq(&explicit, TOLERANCE),
            "matmul_nt mismatch at shape ({m},{k},{n})"
        );
    }
}

#[test]
fn repeated_products_are_bit_identical() {
    // The kernel must be deterministic run-to-run (and thread-count cannot
    // change accumulation order): same inputs, bit-identical outputs.
    let a = random(192, 192, 99, "det-a");
    let b = random(192, 192, 99, "det-b");
    let first = a.matmul(&b).unwrap();
    for _ in 0..3 {
        assert_eq!(a.matmul(&b).unwrap(), first);
    }
}

/// The element-strided transpose `Matrix::transpose` used to be, and both
/// transposed products used to materialise: the oracle for the tiled one.
fn strided_transpose(m: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(m.cols(), m.rows());
    for r in 0..m.rows() {
        for c in 0..m.cols() {
            out.set(c, r, m.get(r, c));
        }
    }
    out
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Shapes the 16×16 transpose tile and the 8×16 / 12×32 register tiles do
/// not divide, the empty and one-wide edges, the `paper_default` weight
/// (256×256) and a tall classifier-like operand (192×10).
fn transposed_operand_shapes() -> Vec<(usize, usize)> {
    vec![
        (0, 5),
        (5, 0),
        (1, 9),
        (9, 1),
        (17, 33),
        (31, 257),
        (256, 256),
        (192, 10),
    ]
}

#[test]
fn tiled_transpose_equals_the_strided_transpose_bit_for_bit() {
    for (case, &(rows, cols)) in transposed_operand_shapes().iter().enumerate() {
        let m = random(rows, cols, case as u64, "transpose");
        let tiled = m.transpose();
        let strided = strided_transpose(&m);
        assert_eq!(tiled.shape(), (cols, rows));
        assert_eq!(bits(&tiled), bits(&strided), "transpose of {rows}x{cols}");
    }
}

#[test]
fn transposed_products_equal_the_materialised_transpose_path_bit_for_bit() {
    // One destination for every product: it arrives holding the previous
    // (differently shaped) result, which `*_into` must not leak.
    let mut out = Matrix::full(3, 3, f32::NAN);
    for (case, &(rows, cols)) in transposed_operand_shapes().iter().enumerate() {
        for other_width in [1usize, 10, 33] {
            let t = random(rows, cols, case as u64, "t-operand");

            // t^T · b, with b sharing t's row count: what `matmul_tn` was —
            // a strided transpose handed to the blocked kernel.
            let b = random(rows, other_width, case as u64, "tn-b");
            let expected = strided_transpose(&t).matmul(&b).unwrap();
            let fused = t.matmul_tn(&b).unwrap();
            assert_eq!(fused.shape(), (cols, other_width));
            assert_eq!(bits(&fused), bits(&expected), "matmul_tn {rows}x{cols}");
            t.matmul_tn_into(&b, &mut out).unwrap();
            assert_eq!(out.shape(), expected.shape());
            assert_eq!(bits(&out), bits(&expected), "matmul_tn_into {rows}x{cols}");

            // a · t^T, with a sharing t's column count: what `matmul_nt` was.
            let a = random(other_width, cols, case as u64, "nt-a");
            let expected = a.matmul(&strided_transpose(&t)).unwrap();
            let fused = a.matmul_nt(&t).unwrap();
            assert_eq!(fused.shape(), (other_width, rows));
            assert_eq!(bits(&fused), bits(&expected), "matmul_nt {rows}x{cols}");
            a.matmul_nt_into(&t, &mut out).unwrap();
            assert_eq!(out.shape(), expected.shape());
            assert_eq!(bits(&out), bits(&expected), "matmul_nt_into {rows}x{cols}");

            // And the plain product into a reused destination.
            let c = random(cols, other_width, case as u64, "nn-c");
            t.matmul_into(&c, &mut out).unwrap();
            assert_eq!(bits(&out), bits(&t.matmul(&c).unwrap()));
        }
    }
}

#[test]
fn transposed_products_reject_mismatched_shapes() {
    let a = Matrix::zeros(4, 3);
    let mut out = Matrix::default();
    assert!(a.matmul_tn_into(&Matrix::zeros(5, 2), &mut out).is_err());
    assert!(a.matmul_nt_into(&Matrix::zeros(2, 4), &mut out).is_err());
    assert!(a.matmul_into(&Matrix::zeros(4, 2), &mut out).is_err());
}

/// One dense layer's backward products at the given sizes, each against the
/// strided-transpose path: `dW = xᵀ · dy` (`matmul_tn`, `x` is
/// `batch × inputs`) and `dX = dy · wᵀ` (`matmul_nt`, `w` is
/// `inputs × outputs`).
fn assert_backward_products_match(batch: usize, inputs: usize, outputs: usize, case: u64) {
    let context = format!("batch {batch}, {inputs} -> {outputs}");
    let x = random(batch, inputs, case, "side-x");
    let dy = random(batch, outputs, case, "side-dy");
    let w = random(inputs, outputs, case, "side-w");

    let expected = strided_transpose(&x).matmul(&dy).unwrap();
    let fused = x.matmul_tn(&dy).unwrap();
    assert_eq!(fused.shape(), (inputs, outputs));
    assert_eq!(bits(&fused), bits(&expected), "matmul_tn, {context}");

    let expected = dy.matmul(&strided_transpose(&w)).unwrap();
    let fused = dy.matmul_nt(&w).unwrap();
    assert_eq!(fused.shape(), (batch, inputs));
    assert_eq!(bits(&fused), bits(&expected), "matmul_nt, {context}");
}

#[test]
fn transposed_products_do_not_depend_on_the_side_that_moves() {
    // A transposed product transposes whichever side is smaller: the
    // transposed operand, or the other operand and the result. `dy · wᵀ`
    // moves `dy` and the result when batch·(outputs+inputs) < inputs·outputs;
    // `xᵀ · dy` moves `dy` and the result when
    // outputs·(batch+inputs) < inputs·batch. The workloads' layers at full,
    // short and odd batches land on both sides of both rules: a 192² or 256²
    // weight moves the batch side of `dX` and the `x` side of `dW`; the
    // 256 → 10 head moves its weight for `dX` from ten rows up and `dy` for
    // `dW` from eleven.
    let mut case = 0;
    for (inputs, outputs) in [(192, 192), (256, 256), (256, 10)] {
        for batch in [1, 7, 16, 33] {
            assert_backward_products_match(batch, inputs, outputs, case);
            case += 1;
        }
    }
    // Small layers walked across both rules one row at a time. 4 → 4: the two
    // sides of the `dX` rule are equal at batch 2 (2·(4+4) = 4·4); 12 → 6 and
    // 6 → 12: at batch 4 (4·(6+12) = 12·6). 12 → 3: the `dW` rule is equal at
    // batch 4 (3·(4+12) = 12·4); 20 → 4: at batch 5 (4·(5+20) = 20·5).
    for (inputs, outputs) in [(4, 4), (12, 6), (6, 12), (12, 3), (20, 4)] {
        for batch in 1..=8 {
            assert_backward_products_match(batch, inputs, outputs, case);
            case += 1;
        }
    }
}

/// One multiply-add step as the kernels perform it: fused where the target
/// has the instruction, two roundings where it does not.
fn mac(acc: f32, s: f32, b: f32) -> f32 {
    if cfg!(target_feature = "fma") {
        s.mul_add(b, acc)
    } else {
        acc + s * b
    }
}

/// `a · b`, every element one chain of [`mac`] steps from `+0.0` over
/// ascending `k` — what every kernel route has to reproduce.
fn scalar_chain(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let mut acc = 0.0f32;
            for k in 0..a.cols() {
                acc = mac(acc, a.get(i, k), b.get(k, j));
            }
            out.set(i, j, acc);
        }
    }
    out
}

/// Finite values bit-equal, NaN exactly where the chain is NaN, infinities
/// equal; and nothing non-finite outside `row` and `col`.
fn assert_same_class(actual: &Matrix, chain: &Matrix, row: usize, col: usize, context: &str) {
    assert_eq!(actual.shape(), chain.shape(), "{context}");
    for i in 0..chain.rows() {
        for j in 0..chain.cols() {
            let (got, want) = (actual.get(i, j), chain.get(i, j));
            if want.is_nan() {
                assert!(got.is_nan(), "{context}: ({i},{j}) is {got}, chain is NaN");
            } else {
                assert_eq!(got.to_bits(), want.to_bits(), "{context}: ({i},{j})");
            }
            if i != row && j != col {
                assert!(got.is_finite(), "{context}: ({i},{j}) = {got} leaked");
            }
        }
    }
}

#[test]
fn non_finite_values_stay_in_their_row_and_column() {
    // 11×9×21 has both remainders at once: 11 rows are one full slab and
    // three rows of a second whose five missing rows alias row 10; 21 columns
    // are one full tile and five lanes of a zero-padded panel. The last row
    // of A and the last column of B are where the non-finite values go, so
    // the aliased rows compute NaN and ∞, and the panel's zero lanes compute
    // 0·∞ — and none of it may reach C outside that row and that column. The
    // other two shapes are ones where `matmul_nt` (11×40×21) and `matmul_tn`
    // (21×40×5) move the other side, so the padding is that of the
    // transposed product.
    let poisons = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
    for (m, k, n) in [(11, 9, 21), (11, 40, 21), (21, 40, 5)] {
        for (case, poison) in poisons.into_iter().enumerate() {
            let mut a = random(m, k, case as u64, "poison-a");
            let mut b = random(k, n, case as u64, "poison-b");
            a.set(m - 1, 2, poison);
            a.set(m - 1, k - 1, f32::INFINITY);
            b.set(0, n - 1, poison);
            b.set(k - 2, n - 1, f32::NEG_INFINITY);
            b.set(k - 1, n - 1, 0.0);
            let chain = scalar_chain(&a, &b);
            assert!(chain.get(m - 1, n - 1).is_nan(), "the corner is ∞·0");

            let context = format!("{m}x{k}x{n}, poison {poison}");
            let (row, col) = (m - 1, n - 1);
            assert_same_class(&a.matmul(&b).unwrap(), &chain, row, col, &context);
            let fused = strided_transpose(&a).matmul_tn(&b).unwrap();
            assert_same_class(&fused, &chain, row, col, &format!("{context}, tn"));
            let fused = a.matmul_nt(&strided_transpose(&b)).unwrap();
            assert_same_class(&fused, &chain, row, col, &format!("{context}, nt"));
        }
    }
}

/// `a · b`, `aᵀ · b` and `a · bᵀ` at the logical shape `(m, k, n)`, each
/// with the operands stored as the product reads them, against the scalar
/// chain bit for bit.
fn assert_every_form_equals_the_chain(m: usize, k: usize, n: usize, case: u64) {
    let context = format!("({m},{k},{n})");
    let a = random(m, k, case, "step-a");
    let b = random(k, n, case, "step-b");
    let chain = bits(&scalar_chain(&a, &b));
    assert_eq!(bits(&a.matmul(&b).unwrap()), chain, "nn {context}");
    let tn = strided_transpose(&a).matmul_tn(&b).unwrap();
    assert_eq!(bits(&tn), chain, "tn {context}");
    let nt = a.matmul_nt(&strided_transpose(&b)).unwrap();
    assert_eq!(bits(&nt), chain, "nt {context}");
}

#[test]
fn the_workloads_step_products_equal_the_scalar_chain() {
    // (batch, inputs, outputs) of the layers the workloads train: the
    // 192- and 256-wide suffix blocks at full and selected batches, the
    // 96-wide pool clients' blocks at a full and a three-row batch, and the
    // pretraining batch. Each layer's forward `x · W`, `dW = xᵀ · dy` and
    // `dX = dy · Wᵀ` is one logical shape, and each runs in all three forms.
    let mut case = 0;
    for (batch, inputs, outputs) in [
        (16, 192, 192),
        (32, 256, 256),
        (150, 192, 192),
        (24, 96, 96),
        (3, 96, 96),
        (64, 48, 256),
    ] {
        for (m, k, n) in [
            (batch, inputs, outputs),
            (inputs, batch, outputs),
            (batch, outputs, inputs),
        ] {
            assert_every_form_equals_the_chain(m, k, n, case);
            case += 1;
        }
    }
}
