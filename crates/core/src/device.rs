//! Device-heterogeneity modelling: tiers, per-client profiles, drop sampling.
//!
//! The paper's premise is that weak edge devices cannot sustain full-model
//! training: under a synchronous round deadline they become stragglers and
//! drop out, which Table III models with a *fixed* participation fraction.
//! This module makes the straggler effect **emergent** instead: a client
//! pool is composed of device tiers with different compute speeds, network
//! rates and availability, and the [`crate::ExecutionBackend::Deadline`]
//! backend drops exactly those clients whose simulated round time exceeds the
//! deadline — so "FedAvg loses the slow tier, FedFT keeps it" falls out of
//! the workload model rather than being configured.
//!
//! # RNG streams
//!
//! All randomness is derived from the master seed with
//! [`fedft_tensor::rng`] labels that are **disjoint from every existing
//! stream** (notably the `"participation"` stream used by
//! [`crate::ParticipationModel`]), so enabling heterogeneity never perturbs
//! previously seeded histories:
//!
//! * `"device-tier"` (indexed by client id) — the one-time tier assignment,
//! * `"device-availability"` (indexed by `(client id << 32) | round`) — the
//!   per-round offline draw,
//! * `"client-arrival"` (indexed by `(client id << 32) | round`) — the
//!   per-round arrival-offset draw of the streaming backend's
//!   [`ArrivalModel`].
//!
//! Each draw constructs its own generator from `(seed, label, index)`, so
//! results are independent of call order and of the execution backend.

use crate::comm::{round_traffic, RoundTraffic};
use crate::config::FlConfig;
use crate::{FlError, Result};
use fedft_data::FederatedDataset;
use fedft_nn::flops::FlopsBreakdown;
use fedft_nn::BlockNet;
use fedft_tensor::rng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// One class of devices in the client population.
///
/// Multipliers are relative to the nominal device of the [`crate::cost`]
/// model (compute) and the [`HeterogeneityModel`]'s nominal link rates
/// (network): `1.0` is nominal, `0.25` is four times slower.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceTier {
    /// Human-readable tier name used in reports.
    pub name: String,
    /// Relative share of the client pool assigned to this tier. Shares are
    /// normalised over all tiers, so any positive scale works.
    pub weight: f64,
    /// Compute-speed multiplier applied to the cost model's throughput.
    pub compute: f64,
    /// Uplink-rate multiplier applied to the nominal uplink.
    pub uplink: f64,
    /// Downlink-rate multiplier applied to the nominal downlink.
    pub downlink: f64,
    /// Probability that a device of this tier is offline in any given round
    /// (battery, churn, lost connectivity), in `[0, 1)`.
    pub drop_probability: f64,
}

impl DeviceTier {
    /// A tier with the given name and compute multiplier, nominal network
    /// and no availability drops.
    pub fn new(name: impl Into<String>, weight: f64, compute: f64) -> Self {
        DeviceTier {
            name: name.into(),
            weight,
            compute,
            uplink: 1.0,
            downlink: 1.0,
            drop_probability: 0.0,
        }
    }

    /// Sets the network multipliers.
    #[must_use]
    pub fn with_network(mut self, uplink: f64, downlink: f64) -> Self {
        self.uplink = uplink;
        self.downlink = downlink;
        self
    }

    /// Sets the per-round offline probability.
    #[must_use]
    pub fn with_drop_probability(mut self, p: f64) -> Self {
        self.drop_probability = p;
        self
    }

    /// Validates the tier parameters.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::InvalidConfig`] for non-positive weights or
    /// multipliers, or a drop probability outside `[0, 1)`.
    pub fn validate(&self) -> Result<()> {
        for (what, value) in [
            ("weight", self.weight),
            ("compute multiplier", self.compute),
            ("uplink multiplier", self.uplink),
            ("downlink multiplier", self.downlink),
        ] {
            if !(value.is_finite() && value > 0.0) {
                return Err(FlError::InvalidConfig {
                    what: format!(
                        "device tier `{}`: {what} must be positive, got {value}",
                        self.name
                    ),
                });
            }
        }
        if !(self.drop_probability.is_finite() && (0.0..1.0).contains(&self.drop_probability)) {
            return Err(FlError::InvalidConfig {
                what: format!(
                    "device tier `{}`: drop probability must be in [0, 1), got {}",
                    self.name, self.drop_probability
                ),
            });
        }
        Ok(())
    }
}

/// The resolved device identity of one client: which tier the client's
/// device belongs to under a given master seed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceProfile {
    /// The client this profile belongs to.
    pub client_id: usize,
    /// Index of the client's tier in [`HeterogeneityModel::tiers`].
    pub tier_index: usize,
    /// The client's tier parameters.
    pub tier: DeviceTier,
}

/// A population model: device tiers over the nominal link rates
/// [`HeterogeneityModel::UPLINK_BYTES_PER_SECOND`] and
/// [`HeterogeneityModel::DOWNLINK_BYTES_PER_SECOND`].
///
/// The default ([`HeterogeneityModel::uniform`]) is a single nominal tier
/// with no drops, under which every simulated round time reduces to the
/// plain cost-model time plus a uniform transfer time — existing
/// fixed-fraction experiments are unaffected.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HeterogeneityModel {
    /// The device tiers making up the population.
    pub tiers: Vec<DeviceTier>,
}

impl Default for HeterogeneityModel {
    fn default() -> Self {
        Self::uniform()
    }
}

impl HeterogeneityModel {
    /// Nominal uplink of a constrained edge link (client → server): 1 MB/s.
    pub const UPLINK_BYTES_PER_SECOND: f64 = 1.0e6;
    /// Nominal downlink of a constrained edge link (server → client): 4 MB/s.
    pub const DOWNLINK_BYTES_PER_SECOND: f64 = 4.0e6;

    /// Builds a model from explicit tiers.
    pub fn from_tiers(tiers: Vec<DeviceTier>) -> Self {
        HeterogeneityModel { tiers }
    }

    /// A homogeneous population of nominal devices (the default).
    pub fn uniform() -> Self {
        Self::from_tiers(vec![DeviceTier::new("standard", 1.0, 1.0)])
    }

    /// A half/half mix of nominal devices and devices four times slower
    /// with half the bandwidth — the minimal straggler-producing mix.
    pub fn two_tier() -> Self {
        Self::from_tiers(vec![
            DeviceTier::new("fast", 0.5, 1.0),
            DeviceTier::new("slow", 0.5, 0.25).with_network(0.5, 0.5),
        ])
    }

    /// A high/mid/low mix modelled on a realistic fleet: a few powerful
    /// devices, a majority of nominal ones and a low tier that is both five
    /// times slower and occasionally offline.
    pub fn three_tier() -> Self {
        Self::from_tiers(vec![
            DeviceTier::new("high", 0.2, 2.0).with_network(2.0, 2.0),
            DeviceTier::new("mid", 0.5, 1.0),
            DeviceTier::new("low", 0.3, 0.2)
                .with_network(0.25, 0.25)
                .with_drop_probability(0.05),
        ])
    }

    /// Number of tiers in the model.
    pub fn num_tiers(&self) -> usize {
        self.tiers.len()
    }

    /// The tier names, in tier-index order.
    pub fn tier_names(&self) -> Vec<&str> {
        self.tiers.iter().map(|t| t.name.as_str()).collect()
    }

    /// Validates the model.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::InvalidConfig`] for an empty tier list or an
    /// invalid tier.
    pub fn validate(&self) -> Result<()> {
        if self.tiers.is_empty() {
            return Err(FlError::InvalidConfig {
                what: "heterogeneity model needs at least one device tier".into(),
            });
        }
        for tier in &self.tiers {
            tier.validate()?;
        }
        Ok(())
    }

    /// The device profile of a client under a master seed.
    ///
    /// Tier assignment is a single draw from the `"device-tier"` stream
    /// indexed by client id: deterministic in `(seed, client_id)`, identical
    /// on every execution backend and independent of every other stream.
    pub fn profile_for(&self, client_id: usize, seed: u64) -> DeviceProfile {
        let tier_index = if self.tiers.len() == 1 {
            0
        } else {
            let total: f64 = self.tiers.iter().map(|t| t.weight).sum();
            let mut r = rng::rng_for_indexed(seed, "device-tier", client_id as u64);
            let draw: f64 = r.gen::<f64>() * total;
            let mut cumulative = 0.0;
            let mut index = self.tiers.len() - 1;
            for (i, tier) in self.tiers.iter().enumerate() {
                cumulative += tier.weight;
                if draw < cumulative {
                    index = i;
                    break;
                }
            }
            index
        };
        DeviceProfile {
            client_id,
            tier_index,
            tier: self.tiers[tier_index].clone(),
        }
    }

    /// Whether the client's device is offline in `round`.
    ///
    /// One Bernoulli draw from the `"device-availability"` stream indexed
    /// by `(client_id << 32) | round`: deterministic in
    /// `(seed, client_id, round)` and independent of call order, so
    /// availability histories never shift when other streams are added or
    /// consumed.
    pub(crate) fn is_offline(&self, profile: &DeviceProfile, round: usize, seed: u64) -> bool {
        if profile.tier.drop_probability <= 0.0 {
            return false;
        }
        let index = ((profile.client_id as u64) << 32) | round as u64;
        let mut r = rng::rng_for_indexed(seed, "device-availability", index);
        r.gen_bool(profile.tier.drop_probability)
    }

    /// Simulated wall-clock seconds of one client round on this device:
    /// compute time scaled by the tier's speed plus the transfer time of the
    /// round's traffic over the tier's links.
    fn simulated_round_seconds(
        &self,
        profile: &DeviceProfile,
        compute_seconds: f64,
        traffic: &RoundTraffic,
    ) -> f64 {
        let tier = &profile.tier;
        compute_seconds / tier.compute
            + traffic.download_bytes as f64 / (Self::DOWNLINK_BYTES_PER_SECOND * tier.downlink)
            + traffic.upload_bytes as f64 / (Self::UPLINK_BYTES_PER_SECOND * tier.uplink)
    }

    /// Predicted simulated round seconds for a client *before* training:
    /// the round's compute seconds, from the same function the trained
    /// update's own cost accounting calls, scaled by the device and plus the
    /// round traffic.
    ///
    /// The round executor times every admitted client, and drops those that
    /// miss a deadline, with this before paying for their local updates; it
    /// is exact (not an estimate) by construction, because the prediction
    /// and the update price the round through the same function.
    pub fn predicted_client_seconds(
        &self,
        profile: &DeviceProfile,
        model: &BlockNet,
        local_samples: usize,
        config: &FlConfig,
    ) -> f64 {
        self.predicted_seconds_from_parts(
            profile,
            &model.flops_per_sample(config.freeze),
            &round_traffic(model, config.freeze),
            local_samples,
            config,
        )
    }

    /// [`HeterogeneityModel::predicted_client_seconds`] with the
    /// client-invariant parts (FLOP breakdown, round traffic) precomputed —
    /// the form the executor uses inside its participant loop so the model
    /// is analysed once per round, not once per client.
    pub(crate) fn predicted_seconds_from_parts(
        &self,
        profile: &DeviceProfile,
        flops: &FlopsBreakdown,
        traffic: &RoundTraffic,
        local_samples: usize,
        config: &FlConfig,
    ) -> f64 {
        let compute_seconds = config.client_compute_seconds(flops, local_samples);
        self.simulated_round_seconds(profile, compute_seconds, traffic)
    }

    /// Predicted simulated round seconds of every client shard in `fed`
    /// under `config` — one entry per client id. The single source for
    /// deadline calibration (benches, examples, tests), guaranteed to match
    /// what the deadline scheduler enforces.
    pub fn predicted_times(
        &self,
        fed: &FederatedDataset,
        model: &BlockNet,
        config: &FlConfig,
    ) -> Vec<f64> {
        let flops = model.flops_per_sample(config.freeze);
        let traffic = round_traffic(model, config.freeze);
        fed.clients()
            .iter()
            .enumerate()
            .map(|(id, shard)| {
                let profile = self.profile_for(id, config.seed);
                self.predicted_seconds_from_parts(&profile, &flops, &traffic, shard.len(), config)
            })
            .collect()
    }
}

/// When a sampled client becomes available to start training after its
/// round is announced, as a simulated-seconds offset drawn per
/// `(client, round)` from the dedicated `"client-arrival"` RNG stream.
///
/// Arrival models drive the streaming backend
/// ([`crate::ExecutionBackend::Streaming`]): where the offline draw answers
/// *whether* a device shows up at all, the arrival model answers *when*.
/// Like every other device stream, draws are indexed by
/// `(client_id << 32) | round`, so enabling arrivals never perturbs tier
/// assignment, availability or participation histories, and offsets are
/// independent of call order and execution backend.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum ArrivalModel {
    /// Every client is ready the instant its round is announced (offset
    /// exactly `0.0`, no RNG draw) — the degenerate model under which
    /// streaming reproduces synchronous histories.
    #[default]
    Steady,
    /// Memoryless churn: offsets are exponentially distributed, so most
    /// clients arrive quickly and a long tail trickles in.
    Burst {
        /// Mean arrival offset in simulated seconds (must be positive).
        mean_offset_seconds: f64,
    },
}

impl ArrivalModel {
    /// Short name used in reports and labels.
    pub fn short_name(&self) -> &'static str {
        match self {
            ArrivalModel::Steady => "steady",
            ArrivalModel::Burst { .. } => "burst",
        }
    }

    /// Validates the model parameters.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::InvalidConfig`] for a non-positive or non-finite
    /// burst mean.
    pub fn validate(&self) -> Result<()> {
        match *self {
            ArrivalModel::Steady => Ok(()),
            ArrivalModel::Burst {
                mean_offset_seconds,
            } => {
                if !(mean_offset_seconds.is_finite() && mean_offset_seconds > 0.0) {
                    return Err(FlError::InvalidConfig {
                        what: format!(
                            "burst arrival model: mean offset must be positive and finite, \
                             got {mean_offset_seconds}"
                        ),
                    });
                }
                Ok(())
            }
        }
    }

    /// The client's arrival offset for `round`, in simulated seconds after
    /// the round is announced. Always finite and non-negative; `Steady`
    /// returns `0.0` without touching the RNG.
    ///
    /// One draw from the `"client-arrival"` stream indexed by
    /// `(client_id << 32) | round`: deterministic in
    /// `(seed, client_id, round)` and independent of call order.
    pub(crate) fn arrival_offset_seconds(&self, client_id: usize, round: usize, seed: u64) -> f64 {
        if matches!(self, ArrivalModel::Steady) {
            return 0.0;
        }
        let index = ((client_id as u64) << 32) | round as u64;
        let mut r = rng::rng_for_indexed(seed, "client-arrival", index);
        let u: f64 = r.gen::<f64>();
        match *self {
            ArrivalModel::Steady => 0.0,
            // Inverse-CDF of Exp(1/mean); u < 1, so ln(1 − u) is finite.
            ArrivalModel::Burst {
                mean_offset_seconds,
            } => -mean_offset_seconds * (1.0 - u).ln(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedft_nn::BlockNetConfig;

    fn model() -> BlockNet {
        BlockNet::new(&BlockNetConfig::new(6, 3).with_hidden(8, 8, 8), 1)
    }

    #[test]
    fn presets_are_valid() {
        assert!(HeterogeneityModel::uniform().validate().is_ok());
        assert!(HeterogeneityModel::two_tier().validate().is_ok());
        assert!(HeterogeneityModel::three_tier().validate().is_ok());
        assert_eq!(HeterogeneityModel::default(), HeterogeneityModel::uniform());
        assert_eq!(HeterogeneityModel::two_tier().num_tiers(), 2);
        assert_eq!(
            HeterogeneityModel::three_tier().tier_names(),
            vec!["high", "mid", "low"]
        );
    }

    #[test]
    fn validation_rejects_bad_models() {
        assert!(HeterogeneityModel::from_tiers(vec![]).validate().is_err());
        let bad_compute = HeterogeneityModel::from_tiers(vec![DeviceTier::new("t", 1.0, 0.0)]);
        assert!(bad_compute.validate().is_err());
        let bad_weight = HeterogeneityModel::from_tiers(vec![DeviceTier::new("t", -1.0, 1.0)]);
        assert!(bad_weight.validate().is_err());
        let bad_drop = HeterogeneityModel::from_tiers(vec![
            DeviceTier::new("t", 1.0, 1.0).with_drop_probability(1.0)
        ]);
        assert!(bad_drop.validate().is_err());
        let bad_net = HeterogeneityModel::from_tiers(vec![
            DeviceTier::new("t", 1.0, 1.0).with_network(0.0, 1.0)
        ]);
        assert!(bad_net.validate().is_err());
    }

    #[test]
    fn uniform_model_assigns_every_client_to_the_single_tier() {
        let m = HeterogeneityModel::uniform();
        for id in 0..16 {
            let p = m.profile_for(id, 3);
            assert_eq!(p.tier_index, 0);
            assert_eq!(p.client_id, id);
        }
    }

    #[test]
    fn tier_assignment_is_deterministic_in_seed_and_client() {
        let m = HeterogeneityModel::three_tier();
        for id in 0..32 {
            assert_eq!(m.profile_for(id, 7), m.profile_for(id, 7));
        }
        let a: Vec<usize> = (0..64).map(|id| m.profile_for(id, 7).tier_index).collect();
        let b: Vec<usize> = (0..64).map(|id| m.profile_for(id, 8).tier_index).collect();
        assert_ne!(a, b, "different seeds must reshuffle tier assignment");
    }

    #[test]
    fn tier_assignment_roughly_follows_weights() {
        let m = HeterogeneityModel::two_tier();
        let n = 400;
        let slow = (0..n)
            .filter(|&id| m.profile_for(id, 1).tier_index == 1)
            .count();
        let share = slow as f64 / n as f64;
        assert!(
            (share - 0.5).abs() < 0.12,
            "slow-tier share {share} far from its 0.5 weight"
        );
    }

    #[test]
    fn drop_sequence_is_deterministic_and_respects_zero_probability() {
        let m = HeterogeneityModel::three_tier();
        let low = m
            .profile_for(
                (0..64)
                    .find(|&id| m.profile_for(id, 5).tier_index == 2)
                    .expect("some client lands in the low tier"),
                5,
            )
            .clone();
        let a: Vec<bool> = (0..200).map(|r| m.is_offline(&low, r, 5)).collect();
        let b: Vec<bool> = (0..200).map(|r| m.is_offline(&low, r, 5)).collect();
        assert_eq!(a, b);
        assert!(a.iter().any(|&off| off), "5% drops over 200 rounds");
        assert!(!a.iter().all(|&off| off));

        let mid = m.profile_for(
            (0..64)
                .find(|&id| m.profile_for(id, 5).tier_index == 1)
                .expect("some client lands in the mid tier"),
            5,
        );
        assert!((0..200).all(|r| !m.is_offline(&mid, r, 5)));
    }

    #[test]
    fn simulated_seconds_scale_with_tier_speed_and_links() {
        let m = HeterogeneityModel::two_tier();
        let traffic = RoundTraffic {
            download_bytes: 4_000_000,
            upload_bytes: 1_000_000,
        };
        let fast = DeviceProfile {
            client_id: 0,
            tier_index: 0,
            tier: m.tiers[0].clone(),
        };
        let slow = DeviceProfile {
            client_id: 1,
            tier_index: 1,
            tier: m.tiers[1].clone(),
        };
        let t_fast = m.simulated_round_seconds(&fast, 10.0, &traffic);
        let t_slow = m.simulated_round_seconds(&slow, 10.0, &traffic);
        // Fast tier: 10 s compute + 1 s down + 1 s up.
        assert!((t_fast - 12.0).abs() < 1e-9);
        // Slow tier: 40 s compute + 2 s down + 2 s up.
        assert!((t_slow - 44.0).abs() < 1e-9);
    }

    #[test]
    fn steady_arrivals_are_exactly_zero() {
        let m = ArrivalModel::Steady;
        assert!(m.validate().is_ok());
        for client in 0..32 {
            for round in 0..8 {
                assert_eq!(m.arrival_offset_seconds(client, round, 11), 0.0);
            }
        }
        assert_eq!(m.short_name(), "steady");
        assert_eq!(ArrivalModel::default(), ArrivalModel::Steady);
    }

    #[test]
    fn arrival_offsets_are_deterministic_in_seed_client_and_round() {
        let model = ArrivalModel::Burst {
            mean_offset_seconds: 5.0,
        };
        let a: Vec<f64> = (0..64)
            .map(|i| model.arrival_offset_seconds(i % 8, i / 8, 3))
            .collect();
        let b: Vec<f64> = (0..64)
            .map(|i| model.arrival_offset_seconds(i % 8, i / 8, 3))
            .collect();
        assert_eq!(a, b, "{model:?} must be replayable");
        let other_seed: Vec<f64> = (0..64)
            .map(|i| model.arrival_offset_seconds(i % 8, i / 8, 4))
            .collect();
        assert_ne!(a, other_seed, "{model:?} must depend on the seed");
        // Distinct (client, round) pairs draw from distinct stream
        // indices, so offsets differ between clients and between rounds.
        assert_ne!(
            model.arrival_offset_seconds(0, 0, 3),
            model.arrival_offset_seconds(1, 0, 3)
        );
        assert_ne!(
            model.arrival_offset_seconds(0, 0, 3),
            model.arrival_offset_seconds(0, 1, 3)
        );
    }

    #[test]
    fn burst_offsets_match_the_configured_mean_rate() {
        let mean = 7.5;
        let model = ArrivalModel::Burst {
            mean_offset_seconds: mean,
        };
        let n = 2000;
        let sum: f64 = (0..n)
            .map(|i| {
                let t = model.arrival_offset_seconds(i, 0, 9);
                assert!(t.is_finite() && t >= 0.0);
                t
            })
            .sum();
        let empirical = sum / n as f64;
        assert!(
            (empirical - mean).abs() < mean * 0.15,
            "empirical mean {empirical} far from configured {mean}"
        );
    }

    #[test]
    fn arrival_validation_rejects_bad_parameters() {
        for bad in [
            ArrivalModel::Burst {
                mean_offset_seconds: 0.0,
            },
            ArrivalModel::Burst {
                mean_offset_seconds: -1.0,
            },
            ArrivalModel::Burst {
                mean_offset_seconds: f64::NAN,
            },
            ArrivalModel::Burst {
                mean_offset_seconds: f64::INFINITY,
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?} must be rejected");
        }
        assert!(ArrivalModel::Burst {
            mean_offset_seconds: 3.0
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn arrival_draws_leave_the_availability_stream_untouched() {
        // Arrival offsets come from their own labelled stream: drawing them
        // must never change what the offline draw for the same (client,
        // round) index returns.
        let m = HeterogeneityModel::from_tiers(vec![
            DeviceTier::new("flaky", 1.0, 1.0).with_drop_probability(0.4)
        ]);
        let profile = m.profile_for(3, 5);
        let before: Vec<bool> = (0..50).map(|r| m.is_offline(&profile, r, 5)).collect();
        let burst = ArrivalModel::Burst {
            mean_offset_seconds: 2.0,
        };
        for r in 0..50 {
            let _ = burst.arrival_offset_seconds(3, r, 5);
        }
        let after: Vec<bool> = (0..50).map(|r| m.is_offline(&profile, r, 5)).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn predicted_seconds_match_the_cost_model_exactly() {
        let m = HeterogeneityModel::uniform();
        let model = model();
        let config = FlConfig::default()
            .with_rounds(1)
            .with_local_epochs(3)
            .with_batch_size(8);
        let profile = m.profile_for(0, 0);
        let local_samples = 25;
        let predicted = m.predicted_client_seconds(&profile, &model, local_samples, &config);
        let flops = model.flops_per_sample(config.freeze);
        let base = crate::cost::client_round_seconds(&flops, 25, 25, 3, false);
        let traffic = round_traffic(&model, config.freeze);
        let expected = m.simulated_round_seconds(&profile, base, &traffic);
        assert_eq!(predicted.to_bits(), expected.to_bits());
    }

    /// The executor times every update by its admission-time prediction:
    /// bit for bit the duration the trained update's own cost accounting
    /// gives, for every selection strategy and freeze level, and under
    /// per-tier freezes.
    #[test]
    fn a_prediction_is_the_duration_of_the_trained_update() {
        use crate::client::Client;
        use crate::selection::SelectionStrategy;
        use fedft_data::Dataset;
        use fedft_nn::FreezeLevel;
        use fedft_tensor::init;

        let hetero = HeterogeneityModel::three_tier();
        let model = model();
        let strategies = [
            SelectionStrategy::All,
            SelectionStrategy::Random { fraction: 0.4 },
            SelectionStrategy::Entropy {
                fraction: 0.3,
                temperature: 0.1,
            },
            SelectionStrategy::LossProportional { fraction: 0.5 },
            SelectionStrategy::GradientNorm { fraction: 0.7 },
        ];
        let base = FlConfig::default()
            .with_local_epochs(2)
            .with_batch_size(8)
            .with_seed(4)
            .with_heterogeneity(hetero.clone());
        let mut configs = Vec::new();
        for selection in strategies {
            for freeze in FreezeLevel::all() {
                configs.push(base.clone().with_selection(selection).with_freeze(freeze));
            }
            configs.push(
                base.clone()
                    .with_selection(selection)
                    .with_freeze(FreezeLevel::Large)
                    .with_tier_freeze(vec![
                        FreezeLevel::Large,
                        FreezeLevel::Moderate,
                        FreezeLevel::Classifier,
                    ]),
            );
        }
        let clients: Vec<Client> = (0..12)
            .map(|id| {
                let samples = 7 + 3 * id;
                let mut r = rng::rng_for_indexed(2, "device-test", id as u64);
                let features = init::normal(&mut r, samples, 6, 0.0, 1.0);
                let labels = (0..samples).map(|i| i % 3).collect();
                Client::new(id, Dataset::new(features, labels, 3).unwrap())
            })
            .collect();
        let mut tiers_seen = [false; 3];
        for config in &configs {
            for client in &clients {
                let profile = hetero.profile_for(client.id(), config.seed);
                tiers_seen[profile.tier_index] = true;
                let freeze = config.effective_freeze(profile.tier_index);
                let traffic = round_traffic(&model, freeze);
                let update = client.local_update(&model, config, 1).unwrap();
                assert_eq!(
                    update.selected_samples,
                    config.selection.selected_count(client.num_samples()),
                    "the priced sample count is the trained one"
                );
                let trained =
                    hetero.simulated_round_seconds(&profile, update.compute_seconds, &traffic);
                let predicted = hetero.predicted_seconds_from_parts(
                    &profile,
                    &model.flops_per_sample(freeze),
                    &traffic,
                    client.num_samples(),
                    config,
                );
                assert_eq!(
                    trained.to_bits(),
                    predicted.to_bits(),
                    "{:?} at {:?} (tier freeze {:?}), client {}",
                    config.selection,
                    freeze,
                    config.tier_freeze,
                    client.id()
                );
            }
        }
        assert_eq!(tiers_seen, [true; 3], "every tier is exercised");
    }
}
