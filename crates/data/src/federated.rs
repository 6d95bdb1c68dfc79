//! Convenience type bundling client shards and the global test set.

use crate::dataset::Dataset;
use crate::partition;
use crate::{DataError, Result};
use serde::{Deserialize, Serialize};

/// How a dataset is divided across clients.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PartitionScheme {
    /// Independent and identically distributed shards.
    Iid,
    /// Label-skewed shards drawn from a Dirichlet distribution with the given
    /// concentration `α`.
    Dirichlet {
        /// Concentration parameter; smaller is more heterogeneous.
        alpha: f64,
    },
}

/// A federated view of a dataset: one private shard per client plus the
/// global held-out test set used to evaluate the global model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FederatedDataset {
    client_shards: Vec<Dataset>,
    test: Dataset,
}

impl FederatedDataset {
    /// Partitions `train` across `num_clients` clients using `scheme` and
    /// attaches `test` as the global evaluation set.
    ///
    /// # Errors
    ///
    /// Propagates partitioning errors (zero clients, empty dataset,
    /// non-positive alpha…).
    pub fn partition(
        train: &Dataset,
        test: Dataset,
        num_clients: usize,
        scheme: PartitionScheme,
        seed: u64,
    ) -> Result<Self> {
        let shards = match scheme {
            PartitionScheme::Iid => partition::iid_partition(train, num_clients, seed)?,
            PartitionScheme::Dirichlet { alpha } => {
                partition::dirichlet_partition(train, num_clients, alpha, seed)?
            }
        };
        let client_shards = shards
            .iter()
            .map(|indices| train.subset(indices))
            .collect::<Result<Vec<_>>>()?;
        Ok(FederatedDataset {
            client_shards,
            test,
        })
    }

    /// Builds a federated dataset directly from pre-computed shards.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidConfig`] when no shards are provided.
    pub fn from_shards(client_shards: Vec<Dataset>, test: Dataset) -> Result<Self> {
        if client_shards.is_empty() {
            return Err(DataError::InvalidConfig {
                what: "a federated dataset needs at least one client shard".into(),
            });
        }
        Ok(FederatedDataset {
            client_shards,
            test,
        })
    }

    /// Number of clients.
    pub fn num_clients(&self) -> usize {
        self.client_shards.len()
    }

    /// Shard of client `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn client(&self, k: usize) -> &Dataset {
        &self.client_shards[k]
    }

    /// All client shards in order.
    pub fn clients(&self) -> &[Dataset] {
        &self.client_shards
    }

    /// Global test set.
    pub fn test(&self) -> &Dataset {
        &self.test
    }

    /// Total number of training samples across all clients.
    pub fn total_train_samples(&self) -> usize {
        self.client_shards.iter().map(Dataset::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedft_tensor::Matrix;

    fn train_and_test() -> (Dataset, Dataset) {
        let features = Matrix::zeros(60, 4);
        let labels: Vec<usize> = (0..60).map(|i| i % 6).collect();
        let train = Dataset::new(features, labels, 6).unwrap();
        let test = Dataset::new(Matrix::zeros(12, 4), (0..12).map(|i| i % 6).collect(), 6).unwrap();
        (train, test)
    }

    #[test]
    fn partition_iid_and_dirichlet() {
        let (train, test) = train_and_test();
        let iid =
            FederatedDataset::partition(&train, test.clone(), 6, PartitionScheme::Iid, 1).unwrap();
        assert_eq!(iid.num_clients(), 6);
        assert_eq!(iid.total_train_samples(), 60);
        assert_eq!(iid.test().len(), 12);

        let noniid = FederatedDataset::partition(
            &train,
            test,
            6,
            PartitionScheme::Dirichlet { alpha: 0.1 },
            1,
        )
        .unwrap();
        assert_eq!(noniid.total_train_samples(), 60);
    }

    #[test]
    fn from_shards_validates() {
        let (_, test) = train_and_test();
        assert!(FederatedDataset::from_shards(vec![], test.clone()).is_err());
        let shard = Dataset::new(Matrix::zeros(3, 4), vec![0, 1, 2], 6).unwrap();
        let fd = FederatedDataset::from_shards(vec![shard.clone(), shard], test).unwrap();
        assert_eq!(fd.num_clients(), 2);
        assert_eq!(fd.client(0).len(), 3);
        assert_eq!(fd.clients().len(), 2);
    }
}
