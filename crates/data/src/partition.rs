//! IID and Dirichlet non-IID partitioning of a dataset across clients.
//!
//! Following the paper (and the common practice it cites), client data
//! heterogeneity is simulated with a Dirichlet distribution `Diri(α)` over
//! class proportions: for every class, a vector of per-client proportions is
//! drawn from `Dir(α, …, α)` and the class's samples are assigned
//! accordingly. Small `α` (e.g. `0.1`) produces strong label skew; large `α`
//! approaches an IID split.

use crate::dataset::Dataset;
use crate::{DataError, Result};
use fedft_tensor::rng;
use rand::seq::SliceRandom;
use rand::Rng;
use rand_distr::{Distribution, Gamma};
use serde::{Deserialize, Serialize};

/// Minimum number of samples every client must end up with; shards below the
/// minimum are topped up from the largest shard so that every client can run
/// at least one local update.
const MIN_SAMPLES_PER_CLIENT: usize = 2;

/// Splits `dataset` into `num_clients` IID shards of (almost) equal size.
///
/// # Errors
///
/// Returns [`DataError::InvalidConfig`] for zero clients or more clients than
/// samples, and [`DataError::EmptyDataset`] for an empty dataset.
pub(crate) fn iid_partition(
    dataset: &Dataset,
    num_clients: usize,
    seed: u64,
) -> Result<Vec<Vec<usize>>> {
    validate(dataset, num_clients)?;
    let mut order: Vec<usize> = (0..dataset.len()).collect();
    let mut r = rng::rng_for(seed, "iid-partition");
    order.shuffle(&mut r);
    let mut shards = vec![Vec::new(); num_clients];
    for (i, idx) in order.into_iter().enumerate() {
        shards[i % num_clients].push(idx);
    }
    Ok(shards)
}

/// Splits `dataset` into `num_clients` label-skewed shards using a Dirichlet
/// distribution with concentration `alpha`.
///
/// Every sample is assigned to exactly one client. Clients that end up with
/// fewer than two samples are topped up from the largest shard so that every
/// client can participate in training.
///
/// # Errors
///
/// Returns [`DataError::InvalidConfig`] for zero clients, more clients than
/// samples or a non-positive `alpha`, and [`DataError::EmptyDataset`] for an
/// empty dataset.
pub fn dirichlet_partition(
    dataset: &Dataset,
    num_clients: usize,
    alpha: f64,
    seed: u64,
) -> Result<Vec<Vec<usize>>> {
    validate(dataset, num_clients)?;
    if !(alpha.is_finite() && alpha > 0.0) {
        return Err(DataError::InvalidConfig {
            what: format!("Dirichlet alpha must be positive, got {alpha}"),
        });
    }
    let mut shards: Vec<Vec<usize>> = vec![Vec::new(); num_clients];
    for class in 0..dataset.num_classes() {
        let mut indices = dataset.indices_of_class(class);
        if indices.is_empty() {
            continue;
        }
        let mut r = rng::rng_for_indexed(seed, "dirichlet-partition", class as u64);
        indices.shuffle(&mut r);
        let proportions = sample_dirichlet(&mut r, num_clients, alpha);
        // Convert proportions to integer counts that sum to the class size.
        let total = indices.len();
        let mut counts: Vec<usize> = proportions
            .iter()
            .map(|&p| (p * total as f64).floor() as usize)
            .collect();
        let mut assigned: usize = counts.iter().sum();
        // Distribute the remainder to the clients with the largest fractional
        // parts. `total_cmp` plus the explicit index tie-break makes this a
        // strict total order — `partial_cmp(..).unwrap_or(Equal)` is not a
        // strict weak ordering if a proportion is NaN, and exact fractional
        // ties (common for small alpha, where proportions collapse to 0/1)
        // previously left the winner to the sort algorithm's whims instead
        // of pinning it, so shard assignment was not provably deterministic.
        let mut remainders: Vec<(usize, f64)> = proportions
            .iter()
            .enumerate()
            .map(|(i, &p)| (i, p * total as f64 - (p * total as f64).floor()))
            .collect();
        remainders.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut cursor = 0;
        while assigned < total {
            counts[remainders[cursor % num_clients].0] += 1;
            assigned += 1;
            cursor += 1;
        }
        let mut offset = 0;
        for (client, &count) in counts.iter().enumerate() {
            shards[client].extend_from_slice(&indices[offset..offset + count]);
            offset += count;
        }
    }
    rebalance_small_shards(&mut shards);
    Ok(shards)
}

/// Draws one sample from `Dir(alpha, …, alpha)` by normalising Gamma draws.
///
/// Degenerate draws (all components zero, which can happen for very small
/// `alpha` in `f64`) fall back to assigning all mass to one random component,
/// which is the correct limiting behaviour of the Dirichlet as `alpha → 0`.
fn sample_dirichlet<R: Rng + ?Sized>(rng: &mut R, k: usize, alpha: f64) -> Vec<f64> {
    let gamma = Gamma::new(alpha, 1.0).expect("alpha validated by caller");
    let mut draws: Vec<f64> = (0..k).map(|_| gamma.sample(rng)).collect();
    let sum: f64 = draws.iter().sum();
    if sum <= f64::MIN_POSITIVE || !sum.is_finite() {
        let winner = rng.gen_range(0..k);
        draws = vec![0.0; k];
        draws[winner] = 1.0;
        return draws;
    }
    draws.iter().map(|&d| d / sum).collect()
}

/// Moves samples from the largest shards into shards below the minimum size.
fn rebalance_small_shards(shards: &mut [Vec<usize>]) {
    loop {
        let Some(small) = shards.iter().position(|s| s.len() < MIN_SAMPLES_PER_CLIENT) else {
            return;
        };
        let largest = shards
            .iter()
            .enumerate()
            .max_by_key(|(_, s)| s.len())
            .map(|(i, _)| i)
            .expect("shards is non-empty");
        if largest == small || shards[largest].len() <= MIN_SAMPLES_PER_CLIENT {
            // Nothing left to move; give up rather than loop forever.
            return;
        }
        let moved = shards[largest].pop().expect("largest shard is non-empty");
        shards[small].push(moved);
    }
}

fn validate(dataset: &Dataset, num_clients: usize) -> Result<()> {
    if dataset.is_empty() {
        return Err(DataError::EmptyDataset { op: "partition" });
    }
    if num_clients == 0 {
        return Err(DataError::InvalidConfig {
            what: "num_clients must be non-zero".into(),
        });
    }
    if num_clients > dataset.len() {
        return Err(DataError::InvalidConfig {
            what: format!(
                "cannot partition {} samples across {num_clients} clients",
                dataset.len()
            ),
        });
    }
    Ok(())
}

/// Summary statistics of a partition, used in reports and tests.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PartitionStats {
    /// Number of samples per client.
    pub shard_sizes: Vec<usize>,
    /// Number of distinct classes present on each client.
    pub classes_per_client: Vec<usize>,
    /// Mean over clients of the normalised label-distribution entropy
    /// (`1.0` = perfectly uniform labels on every client, `0.0` = every
    /// client holds a single class).
    pub mean_label_entropy: f64,
}

impl PartitionStats {
    /// Computes statistics for a partition of `dataset`.
    pub fn compute(dataset: &Dataset, shards: &[Vec<usize>]) -> PartitionStats {
        let num_classes = dataset.num_classes();
        let mut shard_sizes = Vec::with_capacity(shards.len());
        let mut classes_per_client = Vec::with_capacity(shards.len());
        let mut entropies = Vec::with_capacity(shards.len());
        for shard in shards {
            shard_sizes.push(shard.len());
            let mut counts = vec![0usize; num_classes];
            for &idx in shard {
                counts[dataset.labels()[idx]] += 1;
            }
            classes_per_client.push(counts.iter().filter(|&&c| c > 0).count());
            let total: usize = counts.iter().sum();
            let entropy: f64 = if total == 0 || num_classes < 2 {
                0.0
            } else {
                counts
                    .iter()
                    .filter(|&&c| c > 0)
                    .map(|&c| {
                        let p = c as f64 / total as f64;
                        -p * p.ln()
                    })
                    .sum::<f64>()
                    / (num_classes as f64).ln()
            };
            entropies.push(entropy);
        }
        let mean_label_entropy = if entropies.is_empty() {
            0.0
        } else {
            entropies.iter().sum::<f64>() / entropies.len() as f64
        };
        PartitionStats {
            shard_sizes,
            classes_per_client,
            mean_label_entropy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedft_tensor::Matrix;

    fn dataset(samples_per_class: usize, num_classes: usize) -> Dataset {
        let total = samples_per_class * num_classes;
        let features = Matrix::zeros(total, 4);
        let labels: Vec<usize> = (0..total).map(|i| i % num_classes).collect();
        Dataset::new(features, labels, num_classes).unwrap()
    }

    fn assert_is_partition(shards: &[Vec<usize>], total: usize) {
        let mut all: Vec<usize> = shards.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all.len(), total, "every sample assigned exactly once");
        all.dedup();
        assert_eq!(all.len(), total, "no sample assigned twice");
    }

    #[test]
    fn iid_partition_is_balanced() {
        let d = dataset(20, 5);
        let shards = iid_partition(&d, 4, 1).unwrap();
        assert_is_partition(&shards, d.len());
        for shard in &shards {
            assert_eq!(shard.len(), 25);
        }
    }

    #[test]
    fn dirichlet_partition_conserves_samples() {
        let d = dataset(30, 10);
        for &alpha in &[0.01, 0.1, 0.5, 1.0, 10.0] {
            let shards = dirichlet_partition(&d, 7, alpha, 3).unwrap();
            assert_is_partition(&shards, d.len());
        }
    }

    #[test]
    fn small_alpha_is_more_skewed_than_large_alpha() {
        let d = dataset(60, 10);
        let skewed = dirichlet_partition(&d, 10, 0.05, 5).unwrap();
        let uniform = dirichlet_partition(&d, 10, 100.0, 5).unwrap();
        let s_skewed = PartitionStats::compute(&d, &skewed);
        let s_uniform = PartitionStats::compute(&d, &uniform);
        assert!(
            s_skewed.mean_label_entropy < s_uniform.mean_label_entropy,
            "skewed entropy {} should be below uniform entropy {}",
            s_skewed.mean_label_entropy,
            s_uniform.mean_label_entropy
        );
        // With a huge alpha every client should see most classes.
        assert!(s_uniform.classes_per_client.iter().all(|&c| c >= 8));
    }

    #[test]
    fn dirichlet_largest_remainder_assignment_is_pinned() {
        // Regression for the largest-remainder sort: with
        // `partial_cmp(..).unwrap_or(Equal)` and no index tie-break the
        // winner of tied fractional parts depended on the sort algorithm,
        // so shard assignment was not provably deterministic. The exact
        // assignment below is pinned; any change to the remainder ordering
        // (or an accidental reintroduction of the unstable comparator)
        // shows up as a diff here.
        let d = dataset(6, 3);
        let shards = dirichlet_partition(&d, 4, 0.3, 11).unwrap();
        assert_eq!(
            shards,
            vec![
                vec![3, 9, 2, 14],
                vec![4, 7, 13, 10, 1, 16],
                vec![6, 0, 12, 15, 11, 5],
                vec![8, 17],
            ]
        );
        assert_is_partition(&shards, d.len());
    }

    #[test]
    fn near_tied_remainders_assign_deterministically() {
        // A huge alpha drives every proportion towards 1/k, so per-class
        // remainders tie up to f64 noise — exactly the regime where the old
        // comparator (no index tie-break) left the outcome to the sort
        // algorithm. The assignment must be identical across runs and the
        // resulting sizes are pinned.
        let d = dataset(5, 2);
        let a = dirichlet_partition(&d, 4, 1e12, 1).unwrap();
        let b = dirichlet_partition(&d, 4, 1e12, 1).unwrap();
        assert_eq!(a, b);
        let sizes: Vec<usize> = a.iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![4, 2, 2, 2]);
        assert_is_partition(&a, d.len());
    }

    #[test]
    fn partition_is_deterministic_in_the_seed() {
        let d = dataset(20, 5);
        let a = dirichlet_partition(&d, 5, 0.1, 9).unwrap();
        let b = dirichlet_partition(&d, 5, 0.1, 9).unwrap();
        let c = dirichlet_partition(&d, 5, 0.1, 10).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn every_client_gets_a_minimum_number_of_samples() {
        let d = dataset(50, 4);
        let shards = dirichlet_partition(&d, 20, 0.01, 2).unwrap();
        for shard in &shards {
            assert!(
                shard.len() >= MIN_SAMPLES_PER_CLIENT,
                "shard too small: {}",
                shard.len()
            );
        }
        assert_is_partition(&shards, d.len());
    }

    #[test]
    fn validation_errors() {
        let d = dataset(2, 2);
        assert!(dirichlet_partition(&d, 0, 0.1, 0).is_err());
        assert!(dirichlet_partition(&d, 100, 0.1, 0).is_err());
        assert!(dirichlet_partition(&d, 2, 0.0, 0).is_err());
        assert!(dirichlet_partition(&d, 2, f64::NAN, 0).is_err());
        assert!(iid_partition(&Dataset::empty(3, 2), 2, 0).is_err());
    }

    #[test]
    fn sample_dirichlet_is_a_distribution() {
        let mut r = rng::rng_for(1, "test-dir");
        for &alpha in &[0.01, 0.5, 5.0] {
            let p = sample_dirichlet(&mut r, 8, alpha);
            assert_eq!(p.len(), 8);
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn partition_stats_shapes() {
        let d = dataset(10, 3);
        let shards = iid_partition(&d, 3, 0).unwrap();
        let stats = PartitionStats::compute(&d, &shards);
        assert_eq!(stats.shard_sizes.len(), 3);
        assert_eq!(stats.classes_per_client.len(), 3);
        assert!(stats.mean_label_entropy > 0.5);
    }
}
