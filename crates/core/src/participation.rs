//! Client participation / straggler modelling.
//!
//! In the paper's 100-client experiments (Table III) FedAvg suffers from
//! stragglers: only a fraction `fn` of clients manages to complete the heavy
//! full-model update each round, while FedFT variants assume full
//! participation because their workload is small enough for every device.
//! This module models that by sampling a subset of clients uniformly at
//! random each round.
//!
//! # RNG stream
//!
//! Sampling draws exclusively from the `"participation"` stream (derived
//! from the master seed via [`fedft_tensor::rng::rng_for_indexed`], indexed
//! by round). The device-heterogeneity subsystem draws from its own
//! `"device-tier"` / `"device-availability"` streams (see
//! [`crate::device`]), so enabling heterogeneity or deadline scheduling
//! never perturbs a previously seeded participation history — pinned by a
//! regression test below.

use crate::{FlError, Result};
use fedft_tensor::rng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Floor substituted for non-finite or non-positive weights in
/// [`weighted_order`], so a degenerate weight (a perfectly fit sample's loss
/// of 0, a NaN compute multiplier) keeps a vanishing but non-zero chance of
/// being drawn.
const MIN_WEIGHT: f64 = 1e-12;

/// Efraimidis–Spirakis weighted order without replacement: one uniform `u_i`
/// per weight, drawn from `rng` in index order, keyed `u_i^{1/w_i}`; returns
/// every index, largest key first, ties by ascending index. Keeping the
/// first `k` is a weighted draw of `k` without replacement.
pub(crate) fn weighted_order<R: Rng>(
    rng: &mut R,
    weights: impl IntoIterator<Item = f64>,
) -> Vec<usize> {
    let mut keyed: Vec<(f64, usize)> = weights
        .into_iter()
        .enumerate()
        .map(|(i, raw)| {
            let u: f64 = rng.gen();
            let w = if raw.is_finite() && raw > 0.0 {
                raw
            } else {
                MIN_WEIGHT
            };
            (u.powf(1.0 / w), i)
        })
        .collect();
    // `u ∈ [0, 1)` and `1/w > 0`, so every key lies in `[0, 1]` and is never
    // NaN or -0.0: `total_cmp` orders the keys exactly as `partial_cmp` would.
    keyed.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    keyed.into_iter().map(|(_, i)| i).collect()
}

/// Selects which clients participate in each round.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ParticipationModel {
    /// Fraction of the client pool available per round, in `(0, 1]`.
    pub fraction: f64,
}

impl Default for ParticipationModel {
    fn default() -> Self {
        ParticipationModel { fraction: 1.0 }
    }
}

impl ParticipationModel {
    /// Creates a participation model.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::InvalidConfig`] for fractions outside `(0, 1]` and
    /// for NaN fractions. NaN is rejected explicitly rather than relying on
    /// the range comparison (`!(NaN > 0.0)` happens to be true, but that is
    /// an accident of IEEE comparison semantics, not a contract).
    pub fn new(fraction: f64) -> Result<Self> {
        if fraction.is_nan() {
            return Err(FlError::InvalidConfig {
                what: "participation fraction must not be NaN".into(),
            });
        }
        if !(fraction > 0.0 && fraction <= 1.0) {
            return Err(FlError::InvalidConfig {
                what: format!("participation fraction must be in (0, 1], got {fraction}"),
            });
        }
        Ok(ParticipationModel { fraction })
    }

    /// Number of clients that participate out of `total`.
    ///
    /// The count is `round(fraction · total)` clamped to `[1, total]`: small
    /// fractions whose product rounds to zero (e.g. `fraction = 0.04` with
    /// `total = 10`) still field **one** participant, because a round with no
    /// updates would stall aggregation. An empty pool (`total = 0`) is the
    /// only case that yields zero.
    pub fn participants_per_round(&self, total: usize) -> usize {
        if total == 0 {
            return 0;
        }
        ((self.fraction * total as f64).round() as usize).clamp(1, total)
    }

    /// Chooses the participating client ids for `round`.
    ///
    /// Full participation returns all ids in order; partial participation
    /// samples without replacement, deterministically in `(seed, round)`.
    pub fn sample_round(&self, total: usize, round: usize, seed: u64) -> Vec<usize> {
        let k = self.participants_per_round(total);
        if k == total {
            return (0..total).collect();
        }
        let mut ids = rng::seeded_subset(seed, "participation", round as u64, total, k);
        ids.sort_unstable();
        ids
    }

    /// Chooses participating client ids for `round` with per-client weights
    /// ([`weighted_order`], keeping the first `k`).
    ///
    /// One generator is created per round on the caller-supplied `stream`
    /// label and uniforms are drawn in client-id order, so the draw is
    /// deterministic in `(seed, stream, round)` and independent of every
    /// other named stream — a weighted client-selection rule never perturbs
    /// the `"participation"` history of uniform sampling. Non-finite or
    /// non-positive weights are floored to a tiny positive value rather than
    /// rejected. Returned ids are sorted ascending.
    pub(crate) fn sample_round_weighted(
        &self,
        weights: &[f64],
        round: usize,
        seed: u64,
        stream: &str,
    ) -> Vec<usize> {
        let total = weights.len();
        let k = self.participants_per_round(total);
        if k == total {
            return (0..total).collect();
        }
        let mut r = rng::rng_for_indexed(seed, stream, round as u64);
        let mut ids = weighted_order(&mut r, weights.iter().copied());
        ids.truncate(k);
        ids.sort_unstable();
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates_fraction() {
        assert!(ParticipationModel::new(0.0).is_err());
        assert!(ParticipationModel::new(1.2).is_err());
        assert!(ParticipationModel::new(0.2).is_ok());
        assert_eq!(ParticipationModel::default().fraction, 1.0);
    }

    #[test]
    fn construction_rejects_nan_explicitly() {
        let err = ParticipationModel::new(f64::NAN).unwrap_err();
        assert!(
            err.to_string().contains("NaN"),
            "NaN must be called out explicitly, got: {err}"
        );
    }

    #[test]
    fn participant_counts() {
        let p = ParticipationModel::new(0.1).unwrap();
        assert_eq!(p.participants_per_round(100), 10);
        assert_eq!(p.participants_per_round(5), 1);
        assert_eq!(p.participants_per_round(0), 0);
        assert_eq!(ParticipationModel::default().participants_per_round(7), 7);
    }

    #[test]
    fn fractions_rounding_to_zero_clamp_to_one_participant() {
        // 0.04 · 10 = 0.4 rounds to 0; the clamp guarantees one participant.
        let p = ParticipationModel::new(0.04).unwrap();
        assert_eq!(p.participants_per_round(10), 1);
        assert_eq!(p.sample_round(10, 0, 42).len(), 1);
        // Only the empty pool yields zero participants.
        assert_eq!(p.participants_per_round(0), 0);
    }

    #[test]
    fn weighted_sampling_is_deterministic_and_biased() {
        let p = ParticipationModel::new(0.25).unwrap();
        let heavy: Vec<f64> = (0..20).map(|i| if i < 4 { 50.0 } else { 0.1 }).collect();
        let a = p.sample_round_weighted(&heavy, 0, 7, "tier-participation");
        let b = p.sample_round_weighted(&heavy, 0, 7, "tier-participation");
        assert_eq!(a, b);
        assert_eq!(a.len(), 5);
        assert!(a.windows(2).all(|w| w[0] < w[1]), "ids sorted ascending");
        // Over many rounds the heavy clients dominate.
        let mut heavy_hits = 0usize;
        let mut total_hits = 0usize;
        for round in 0..200 {
            for id in p.sample_round_weighted(&heavy, round, 7, "tier-participation") {
                total_hits += 1;
                if id < 4 {
                    heavy_hits += 1;
                }
            }
        }
        assert!(
            heavy_hits as f64 > 0.5 * total_hits as f64,
            "4 heavy clients out of 20 should take most slots: {heavy_hits}/{total_hits}"
        );
    }

    #[test]
    fn weighted_sampling_tolerates_degenerate_weights() {
        let p = ParticipationModel::new(0.5).unwrap();
        let weights = [f64::NAN, 0.0, -3.0, f64::INFINITY, 1.0, 1.0];
        let ids = p.sample_round_weighted(&weights, 3, 9, "tier-participation");
        assert_eq!(ids.len(), 3);
        assert!(ids.iter().all(|&id| id < 6));
        // Full participation short-circuits without drawing.
        let full = ParticipationModel::default();
        assert_eq!(
            full.sample_round_weighted(&weights, 0, 9, "tier-participation"),
            vec![0, 1, 2, 3, 4, 5]
        );
    }

    #[test]
    fn weighted_streams_do_not_perturb_uniform_history() {
        let p = ParticipationModel::new(0.3).unwrap();
        let before = p.sample_round(10, 0, 42);
        let w = vec![1.0; 10];
        let _ = p.sample_round_weighted(&w, 0, 42, "tier-participation");
        let _ = p.sample_round_weighted(&w, 0, 42, "similarity-participation");
        assert_eq!(p.sample_round(10, 0, 42), before);
        assert_eq!(before, vec![0, 2, 6], "must match the pinned history");
    }

    #[test]
    fn full_participation_returns_everyone() {
        let p = ParticipationModel::default();
        assert_eq!(p.sample_round(4, 3, 0), vec![0, 1, 2, 3]);
    }

    #[test]
    fn partial_participation_is_deterministic_and_varies_by_round() {
        let p = ParticipationModel::new(0.3).unwrap();
        let a = p.sample_round(20, 0, 7);
        let b = p.sample_round(20, 0, 7);
        let c = p.sample_round(20, 1, 7);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 6);
        assert!(
            a.windows(2).all(|w| w[0] < w[1]),
            "ids are sorted and unique"
        );
        assert!(a.iter().all(|&id| id < 20));
    }

    #[test]
    fn sampled_histories_are_pinned_across_releases() {
        // Regression guard for the `"participation"` RNG stream: these
        // exact histories were recorded before the device-heterogeneity
        // subsystem existed. If adding (or consuming) any other random
        // stream ever changes them, seeded experiment histories are no
        // longer reproducible — fix the stream separation, not this test.
        let p = ParticipationModel::new(0.3).unwrap();
        assert_eq!(p.sample_round(10, 0, 42), vec![0, 2, 6]);
        assert_eq!(p.sample_round(10, 1, 42), vec![1, 2, 7]);
        assert_eq!(p.sample_round(10, 2, 42), vec![2, 7, 9]);
        assert_eq!(p.sample_round(10, 3, 42), vec![6, 7, 8]);
        let q = ParticipationModel::new(0.2).unwrap();
        assert_eq!(q.sample_round(20, 0, 7), vec![0, 9, 11, 12]);
        assert_eq!(q.sample_round(20, 1, 7), vec![0, 13, 18, 19]);
    }

    #[test]
    fn participation_stream_is_independent_of_device_streams() {
        use crate::device::HeterogeneityModel;
        // Interleave device-tier and availability draws with participation
        // sampling: every draw builds its own generator from a disjoint
        // label, so the participation history must not move.
        let p = ParticipationModel::new(0.3).unwrap();
        let hetero = HeterogeneityModel::three_tier();
        let before = p.sample_round(10, 0, 42);
        for id in 0..10 {
            let profile = hetero.profile_for(id, 42);
            let _ = hetero.is_offline(&profile, 0, 42);
        }
        assert_eq!(before, p.sample_round(10, 0, 42));
        assert_eq!(before, vec![0, 2, 6], "must match the pinned history");
    }

    #[test]
    fn over_many_rounds_every_client_eventually_participates() {
        let p = ParticipationModel::new(0.2).unwrap();
        let mut seen = vec![false; 10];
        for round in 0..50 {
            for id in p.sample_round(10, round, 3) {
                seen[id] = true;
            }
        }
        assert!(
            seen.iter().all(|&s| s),
            "some client never participated: {seen:?}"
        );
    }
}
