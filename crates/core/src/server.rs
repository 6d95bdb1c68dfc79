//! Server-side aggregation (paper Algorithm 1, lines 11–13, Equation 5).

use crate::client::ClientUpdate;
use crate::{FlError, Result};
use fedft_nn::ParamVector;

/// The federated server: collects client updates and produces the next
/// global trainable parameters.
///
/// Aggregation follows Equation 5 of the paper: a weighted average of the
/// uploaded `θ_k^{t+1}` with weights proportional to the number of *selected*
/// samples `|D_{k,select}^t|` (not the full local dataset size), normalised
/// over the participating clients.
///
/// Large cohorts accumulate on the persistent worker pool — see
/// [`ParamVector::weighted_average_refs`] for the element-partitioning
/// scheme that keeps the pooled average bit-identical to the sequential
/// one at any worker count.
#[derive(Debug, Clone, Copy, Default)]
pub struct Server {
    _private: (),
}

impl Server {
    /// Creates a server.
    pub fn new() -> Self {
        Server { _private: () }
    }

    /// Aggregates client updates into the next global trainable parameters:
    /// [`Server::aggregate_stale`] with every update fresh.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::NoParticipants`] when `updates` is empty (the
    /// `round` argument is only used for the error message), and an error if
    /// the uploaded parameter vectors disagree in length.
    pub fn aggregate(&self, updates: &[ClientUpdate], round: usize) -> Result<ParamVector> {
        self.weighted_sum(updates, self.aggregation_weights(updates), round)
    }

    /// The aggregation weights that [`Server::aggregate`] would use, exposed
    /// for reporting and tests: [`Server::staleness_weights`] at staleness
    /// 0, i.e. proportional to `selected_samples`, or uniform for a round
    /// where no client selected any sample.
    pub fn aggregation_weights(&self, updates: &[ClientUpdate]) -> Vec<f32> {
        self.staleness_weights(updates, &vec![0; updates.len()])
    }

    /// `Σ wᵢθᵢ` over `updates`, the one accumulation every aggregation of
    /// full-length θ vectors runs. The uploaded vectors are borrowed
    /// straight into the accumulation — cloning every client's θ here used
    /// to double the memory traffic of the whole aggregation.
    fn weighted_sum(
        &self,
        updates: &[ClientUpdate],
        weights: Vec<f32>,
        round: usize,
    ) -> Result<ParamVector> {
        if updates.is_empty() {
            return Err(FlError::NoParticipants { round });
        }
        let entries: Vec<(&ParamVector, f32)> = updates
            .iter()
            .zip(weights)
            .map(|(u, w)| (&u.theta, w))
            .collect();
        ParamVector::weighted_average_refs(&entries).map_err(FlError::from)
    }

    /// Aggregates client updates whose trainable vectors were produced at
    /// **different freeze levels** (per-tier freeze,
    /// [`crate::FlConfig::tier_freeze`]).
    ///
    /// Because a deeper freeze's θ is bit-for-bit the *tail* of a shallower
    /// freeze's θ (block parameters flatten in order), an update of length
    /// `l` aligns against the global vector of length `L` at offset
    /// `L − l`. Each global position is the weighted average of the clients
    /// that actually trained it; positions no participant reached (the front
    /// of the vector, when every client this round trained a deeper freeze)
    /// keep their current global value. When every update has the full
    /// length the method delegates to [`Server::aggregate`], so uniform
    /// rounds stay bit-identical to the plain path.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::NoParticipants`] for an empty round and
    /// [`FlError::InvalidConfig`] when an update is longer than the global
    /// vector.
    pub fn aggregate_mixed(
        &self,
        updates: &[ClientUpdate],
        current_global: &ParamVector,
        round: usize,
    ) -> Result<ParamVector> {
        if updates.is_empty() {
            return Err(FlError::NoParticipants { round });
        }
        let base_len = current_global.values().len();
        if updates.iter().all(|u| u.theta.values().len() == base_len) {
            return self.aggregate(updates, round);
        }
        if let Some(bad) = updates.iter().find(|u| u.theta.values().len() > base_len) {
            return Err(FlError::InvalidConfig {
                what: format!(
                    "client {} uploaded {} trainable parameters but the global θ has {base_len}; \
                     per-tier freezes may only shrink the trainable part",
                    bad.client_id,
                    bad.theta.values().len()
                ),
            });
        }
        let weights = self.aggregation_weights(updates);
        let mut acc = vec![0.0f32; base_len];
        let mut wsum = vec![0.0f32; base_len];
        for (u, w) in updates.iter().zip(weights) {
            let theta = u.theta.values();
            let offset = base_len - theta.len();
            for (j, &v) in theta.iter().enumerate() {
                acc[offset + j] += w * v;
                wsum[offset + j] += w;
            }
        }
        let global = current_global.values();
        let out: Vec<f32> = (0..base_len)
            .map(|j| {
                if wsum[j] > 0.0 {
                    acc[j] / wsum[j]
                } else {
                    global[j]
                }
            })
            .collect();
        Ok(ParamVector::from_values(out))
    }

    /// The multiplicative discount applied to an update that lagged
    /// `staleness` global-model versions behind its aggregation round: the
    /// polynomial schedule `1 / (1 + s)`, so a fresh update keeps its full
    /// weight and every extra version of lag halves, thirds, … it.
    pub fn staleness_discount(staleness: usize) -> f32 {
        1.0 / (1.0 + staleness as f32)
    }

    /// Aggregates client updates whose `staleness[i]` records how many
    /// global-model versions update `i` lagged behind this round (produced
    /// by the event backends, [`crate::ExecutionBackend::Async`] and
    /// [`crate::ExecutionBackend::Streaming`]).
    ///
    /// The weights are [`Server::staleness_weights`], the one weight rule,
    /// and the sum is the one [`Server::aggregate`] runs. When every update
    /// is fresh (`staleness == 0` throughout, in particular for
    /// `max_staleness = 0`), every discount is `1` and the weights are
    /// [`Server::aggregation_weights`], so the result is **bit-identical**
    /// to synchronous aggregation.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::NoParticipants`] for an empty round,
    /// [`FlError::InvalidConfig`] when `staleness` and `updates` disagree in
    /// length, and an error if the parameter vectors disagree in length.
    pub fn aggregate_stale(
        &self,
        updates: &[ClientUpdate],
        staleness: &[usize],
        round: usize,
    ) -> Result<ParamVector> {
        if staleness.len() != updates.len() {
            return Err(FlError::InvalidConfig {
                what: format!(
                    "aggregate_stale got {} staleness entries for {} updates",
                    staleness.len(),
                    updates.len()
                ),
            });
        }
        self.weighted_sum(updates, self.staleness_weights(updates, staleness), round)
    }

    /// Aggregates one **flush** of the streaming backend's update buffer
    /// (FedBuff-style buffered asynchronous aggregation, produced by
    /// [`crate::ExecutionBackend::Streaming`]).
    ///
    /// A flushed buffer is just a batch of updates whose model versions lag
    /// the flush round by `staleness[i]` — for updates carried over from an
    /// earlier flush interval the lag reflects the *actual* age at
    /// aggregation time, which may exceed the dispatch-time staleness bound.
    /// The weighting is therefore exactly the bounded-staleness rule: this
    /// method is [`Server::aggregate_stale`], whose weights at staleness 0
    /// are the synchronous ones (which is what makes the degenerate
    /// streaming configuration bit-identical to the synchronous path). The
    /// round loop calls [`Server::aggregate_stale`] directly; this name is
    /// kept for the two callers that pin it, `benchmarks/e2e/src/mirror.rs`
    /// and `tests/eval_boundary_e2e.rs`.
    ///
    /// # Errors
    ///
    /// Same as [`Server::aggregate_stale`]: an empty flush, a length
    /// mismatch, or disagreeing parameter vectors.
    pub fn aggregate_buffered(
        &self,
        updates: &[ClientUpdate],
        staleness: &[usize],
        round: usize,
    ) -> Result<ParamVector> {
        self.aggregate_stale(updates, staleness, round)
    }

    /// The one weight rule of every aggregation (Equation 5 with a
    /// staleness term): proportional to `selected_samples ×`
    /// [`Server::staleness_discount`], normalised to sum to one — a convex
    /// combination. Falls back to discount-only weights, uniform when every
    /// update is fresh, when no update selected any samples.
    ///
    /// The total is summed in `f32`. At staleness 0 it equals the integer
    /// total `Σ selected_samples` bit for bit only while that total is at
    /// most 2²⁴ per round, the range in which every partial sum is an
    /// exactly representable integer; every configured workload stays
    /// orders of magnitude below it.
    pub fn staleness_weights(&self, updates: &[ClientUpdate], staleness: &[usize]) -> Vec<f32> {
        let raw: Vec<f32> = updates
            .iter()
            .zip(staleness)
            .map(|(u, &s)| u.selected_samples as f32 * Self::staleness_discount(s))
            .collect();
        let total: f32 = raw.iter().sum();
        if total > 0.0 {
            return raw.into_iter().map(|w| w / total).collect();
        }
        let raw: Vec<f32> = staleness
            .iter()
            .map(|&s| Self::staleness_discount(s))
            .collect();
        let total: f32 = raw.iter().sum();
        raw.into_iter().map(|w| w / total).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn update(id: usize, theta: Vec<f32>, selected: usize) -> ClientUpdate {
        ClientUpdate {
            client_id: id,
            theta: ParamVector::from_values(theta),
            selected_samples: selected,
            local_samples: selected * 2,
            train_loss: 0.5,
            compute_seconds: 1.0,
            cached_compute_seconds: 0.5,
        }
    }

    #[test]
    fn aggregation_weights_by_selected_samples() {
        let server = Server::new();
        let updates = vec![update(0, vec![0.0, 0.0], 10), update(1, vec![4.0, 8.0], 30)];
        let theta = server.aggregate(&updates, 0).unwrap();
        // Weights 0.25 / 0.75.
        assert_eq!(theta.values(), &[3.0, 6.0]);
        assert_eq!(server.aggregation_weights(&updates), vec![0.25, 0.75]);
    }

    #[test]
    fn aggregation_of_identical_updates_is_identity() {
        let server = Server::new();
        let updates = vec![
            update(0, vec![1.0, -2.0, 3.0], 5),
            update(1, vec![1.0, -2.0, 3.0], 17),
        ];
        let theta = server.aggregate(&updates, 1).unwrap();
        for (a, b) in theta.values().iter().zip(&[1.0, -2.0, 3.0]) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn aggregate_stays_within_the_convex_hull() {
        let server = Server::new();
        let updates = vec![
            update(0, vec![0.0], 1),
            update(1, vec![10.0], 2),
            update(2, vec![5.0], 3),
        ];
        let theta = server.aggregate(&updates, 0).unwrap();
        assert!(theta.values()[0] >= 0.0 && theta.values()[0] <= 10.0);
        let weights = server.aggregation_weights(&updates);
        assert!((weights.iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn empty_round_is_an_error() {
        let server = Server::new();
        assert!(matches!(
            server.aggregate(&[], 7).unwrap_err(),
            FlError::NoParticipants { round: 7 }
        ));
    }

    #[test]
    fn zero_selected_samples_fall_back_to_uniform() {
        let server = Server::new();
        let updates = vec![update(0, vec![2.0], 0), update(1, vec![4.0], 0)];
        let theta = server.aggregate(&updates, 0).unwrap();
        assert!((theta.values()[0] - 3.0).abs() < 1e-6);
        assert_eq!(server.aggregation_weights(&updates), vec![0.5, 0.5]);
    }

    #[test]
    fn mismatched_theta_lengths_error() {
        let server = Server::new();
        let updates = vec![update(0, vec![1.0, 2.0], 4), update(1, vec![1.0], 4)];
        assert!(server.aggregate(&updates, 0).is_err());
    }

    #[test]
    fn mixed_aggregation_aligns_suffixes_by_offset() {
        let server = Server::new();
        // Global θ of length 4; client 0 trained the full vector, client 1
        // (deeper freeze) only the last two positions. Equal selected
        // samples → equal weights 0.5.
        let global = ParamVector::from_values(vec![10.0, 20.0, 30.0, 40.0]);
        let updates = vec![
            update(0, vec![1.0, 2.0, 3.0, 4.0], 5),
            update(1, vec![7.0, 9.0], 5),
        ];
        let theta = server.aggregate_mixed(&updates, &global, 0).unwrap();
        // Front positions: only client 0 trained them → its values verbatim.
        assert!((theta.values()[0] - 1.0).abs() < 1e-6);
        assert!((theta.values()[1] - 2.0).abs() < 1e-6);
        // Tail positions: average of both clients.
        assert!((theta.values()[2] - 5.0).abs() < 1e-6);
        assert!((theta.values()[3] - 6.5).abs() < 1e-6);
    }

    #[test]
    fn mixed_aggregation_keeps_untrained_positions_at_the_global_value() {
        let server = Server::new();
        let global = ParamVector::from_values(vec![10.0, 20.0, 30.0]);
        // Mixed lengths (2 and 1) force the offset path; position 0 is
        // trained by nobody and must keep its global value.
        let updates = vec![update(0, vec![1.0, 2.0], 4), update(1, vec![8.0], 4)];
        let theta = server.aggregate_mixed(&updates, &global, 0).unwrap();
        assert!((theta.values()[0] - 10.0).abs() < 1e-6);
        assert!((theta.values()[1] - 1.0).abs() < 1e-6);
        assert!((theta.values()[2] - 5.0).abs() < 1e-6);
    }

    #[test]
    fn mixed_aggregation_with_uniform_lengths_is_bit_identical_to_aggregate() {
        let server = Server::new();
        let global = ParamVector::from_values(vec![0.0, 0.0]);
        let updates = vec![update(0, vec![0.1, 0.9], 7), update(1, vec![0.3, -0.4], 13)];
        let plain = server.aggregate(&updates, 2).unwrap();
        let mixed = server.aggregate_mixed(&updates, &global, 2).unwrap();
        for (a, b) in plain.values().iter().zip(mixed.values()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn mixed_aggregation_validates_inputs() {
        let server = Server::new();
        let global = ParamVector::from_values(vec![0.0, 0.0]);
        assert!(matches!(
            server.aggregate_mixed(&[], &global, 3).unwrap_err(),
            FlError::NoParticipants { round: 3 }
        ));
        // An update longer than the global vector cannot be aligned.
        let updates = vec![update(0, vec![1.0, 2.0, 3.0], 4), update(1, vec![1.0], 4)];
        assert!(matches!(
            server.aggregate_mixed(&updates, &global, 0).unwrap_err(),
            FlError::InvalidConfig { .. }
        ));
    }

    #[test]
    fn staleness_discount_is_polynomial() {
        assert_eq!(Server::staleness_discount(0), 1.0);
        assert_eq!(Server::staleness_discount(1), 0.5);
        assert_eq!(Server::staleness_discount(3), 0.25);
    }

    #[test]
    fn zero_staleness_aggregation_is_bit_identical_to_the_synchronous_path() {
        let server = Server::new();
        let updates = vec![
            update(0, vec![0.1, 0.9], 7),
            update(1, vec![0.3, -0.4], 13),
            update(2, vec![-0.2, 0.5], 29),
        ];
        let sync = server.aggregate(&updates, 2).unwrap();
        let stale = server.aggregate_stale(&updates, &[0, 0, 0], 2).unwrap();
        for (a, b) in sync.values().iter().zip(stale.values()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn stale_updates_are_discounted() {
        let server = Server::new();
        // Equal sample counts: the only weight difference is the discount.
        let updates = vec![update(0, vec![0.0], 10), update(1, vec![8.0], 10)];
        let fresh = server.aggregate_stale(&updates, &[0, 0], 0).unwrap();
        assert!((fresh.values()[0] - 4.0).abs() < 1e-6);
        // Client 1 three versions stale: weight 10*0.25 vs 10*1.0 → 0.2.
        let stale = server.aggregate_stale(&updates, &[0, 3], 0).unwrap();
        assert!((stale.values()[0] - 1.6).abs() < 1e-6);
        let weights = server.staleness_weights(&updates, &[0, 3]);
        assert!((weights[0] - 0.8).abs() < 1e-6);
        assert!((weights[1] - 0.2).abs() < 1e-6);
    }

    #[test]
    fn staleness_weights_are_convex() {
        let server = Server::new();
        let selected = [0usize, 3, 11, 40];
        let stale = [0usize, 1, 2, 7];
        for (i, &a) in selected.iter().enumerate() {
            for &b in &selected {
                let updates = vec![update(0, vec![1.0], a), update(1, vec![2.0], b)];
                let staleness = [stale[i], stale[(i + 1) % stale.len()]];
                let weights = server.staleness_weights(&updates, &staleness);
                assert!((weights.iter().sum::<f32>() - 1.0).abs() < 1e-6);
                assert!(weights.iter().all(|&w| (0.0..=1.0).contains(&w)));
            }
        }
    }

    #[test]
    fn buffered_aggregation_is_the_stale_rule_bit_for_bit() {
        let server = Server::new();
        let updates = vec![
            update(0, vec![0.2, -0.1], 9),
            update(1, vec![-0.7, 0.4], 21),
        ];
        // A flush can carry staleness beyond any dispatch bound; the weights
        // are still the 1/(1+s) rule.
        for staleness in [[0usize, 0], [0, 2], [5, 1]] {
            let buffered = server.aggregate_buffered(&updates, &staleness, 3).unwrap();
            let stale = server.aggregate_stale(&updates, &staleness, 3).unwrap();
            for (a, b) in buffered.values().iter().zip(stale.values()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        assert!(matches!(
            server.aggregate_buffered(&[], &[], 4).unwrap_err(),
            FlError::NoParticipants { round: 4 }
        ));
    }

    #[test]
    fn aggregate_stale_validates_inputs() {
        let server = Server::new();
        assert!(matches!(
            server.aggregate_stale(&[], &[], 5).unwrap_err(),
            FlError::NoParticipants { round: 5 }
        ));
        let updates = vec![update(0, vec![1.0], 4)];
        assert!(matches!(
            server.aggregate_stale(&updates, &[0, 1], 0).unwrap_err(),
            FlError::InvalidConfig { .. }
        ));
    }
}
