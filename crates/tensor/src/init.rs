//! Deterministic weight-initialisation schemes.
//!
//! The schemes mirror the initialisers used by common deep-learning
//! frameworks so that the reproduced models behave like their PyTorch
//! counterparts at the start of training:
//!
//! * [`he_normal`] — He et al. (2015), suited to ReLU layers; used by the
//!   block networks in `fedft-nn`.
//! * [`normal`] / [`uniform`] — generic parameterised fills.

use crate::Matrix;
use rand::Rng;
use rand_distr::{Distribution, Normal, Uniform};

/// He/Kaiming normal initialisation: `N(0, sqrt(2 / fan_in))`.
///
/// # Panics
///
/// Panics if `fan_in == 0` (a zero-input layer is a configuration bug).
pub fn he_normal<R: Rng + ?Sized>(rng: &mut R, fan_in: usize, fan_out: usize) -> Matrix {
    assert!(fan_in > 0, "he_normal requires fan_in > 0");
    let std = (2.0 / fan_in as f32).sqrt();
    let dist = Normal::new(0.0, std).expect("std is finite and positive");
    fill(rng, fan_in, fan_out, &dist)
}

/// Fills a `rows`×`cols` matrix with samples from `N(mean, std)`.
///
/// # Panics
///
/// Panics if `std` is negative or non-finite.
pub fn normal<R: Rng + ?Sized>(
    rng: &mut R,
    rows: usize,
    cols: usize,
    mean: f32,
    std: f32,
) -> Matrix {
    assert!(
        std.is_finite() && std >= 0.0,
        "std must be finite and non-negative"
    );
    if std == 0.0 {
        return Matrix::full(rows, cols, mean);
    }
    let dist = Normal::new(mean, std).expect("validated above");
    fill(rng, rows, cols, &dist)
}

/// Fills a `rows`×`cols` matrix with samples from `U(low, high)`.
///
/// # Panics
///
/// Panics if `low > high`.
pub fn uniform<R: Rng + ?Sized>(
    rng: &mut R,
    rows: usize,
    cols: usize,
    low: f32,
    high: f32,
) -> Matrix {
    assert!(low <= high, "uniform requires low <= high");
    if low == high {
        return Matrix::full(rows, cols, low);
    }
    let dist = Uniform::new(low, high);
    fill(rng, rows, cols, &dist)
}

fn fill<R: Rng + ?Sized, D: Distribution<f32>>(
    rng: &mut R,
    rows: usize,
    cols: usize,
    dist: &D,
) -> Matrix {
    let data: Vec<f32> = (0..rows * cols).map(|_| dist.sample(rng)).collect();
    Matrix::from_vec(rows, cols, data).expect("length matches by construction")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_for;
    use crate::stats;

    #[test]
    fn he_normal_std_is_plausible() {
        let mut rng = rng_for(2, "he");
        let m = he_normal(&mut rng, 256, 256);
        let mean = stats::mean(m.as_slice());
        let var = stats::mean(m.map(|v| (v - mean) * (v - mean)).as_slice());
        let expected = 2.0 / 256.0;
        assert!(
            (var - expected).abs() < expected * 0.3,
            "var={var}, expected≈{expected}"
        );
    }

    #[test]
    #[should_panic(expected = "fan_in > 0")]
    fn he_normal_rejects_zero_fan_in() {
        let mut rng = rng_for(2, "he");
        let _ = he_normal(&mut rng, 0, 4);
    }

    #[test]
    fn normal_zero_std_is_constant() {
        let mut rng = rng_for(3, "n");
        let m = normal(&mut rng, 3, 3, 1.5, 0.0);
        assert!(m.approx_eq(&Matrix::full(3, 3, 1.5), 0.0));
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = rng_for(4, "u");
        let m = uniform(&mut rng, 10, 10, -0.25, 0.75);
        assert!(m.min() >= -0.25);
        assert!(m.max() < 0.75);
    }

    #[test]
    fn uniform_degenerate_range_is_constant() {
        let mut rng = rng_for(4, "u");
        let m = uniform(&mut rng, 2, 2, 0.5, 0.5);
        assert!(m.approx_eq(&Matrix::full(2, 2, 0.5), 0.0));
    }

    #[test]
    fn initialisation_is_deterministic_per_seed() {
        let a = he_normal(&mut rng_for(9, "w"), 8, 8);
        let b = he_normal(&mut rng_for(9, "w"), 8, 8);
        assert_eq!(a, b);
        let c = he_normal(&mut rng_for(10, "w"), 8, 8);
        assert_ne!(a, c);
    }
}
