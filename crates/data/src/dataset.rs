//! In-memory labelled dataset.

use crate::{DataError, Result};
use fedft_tensor::Matrix;
use serde::{Deserialize, Serialize};

/// A labelled classification dataset held in memory.
///
/// Features are stored as one sample per row; labels are integers in
/// `0..num_classes`. The type is intentionally immutable-ish: `subset`
/// returns a new dataset rather than mutating in place, which keeps
/// federated shards independent.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    features: Matrix,
    labels: Vec<usize>,
    num_classes: usize,
}

impl Dataset {
    /// Creates a dataset from features, labels and a class count.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::LengthMismatch`] when the number of feature rows
    /// differs from the number of labels, and
    /// [`DataError::LabelOutOfRange`] when any label is `>= num_classes`.
    pub fn new(features: Matrix, labels: Vec<usize>, num_classes: usize) -> Result<Self> {
        if features.rows() != labels.len() {
            return Err(DataError::LengthMismatch {
                features: features.rows(),
                labels: labels.len(),
            });
        }
        if let Some(&bad) = labels.iter().find(|&&l| l >= num_classes) {
            return Err(DataError::LabelOutOfRange {
                label: bad,
                num_classes,
            });
        }
        Ok(Dataset {
            features,
            labels,
            num_classes,
        })
    }

    /// Creates an empty dataset with the given feature width and class count.
    pub fn empty(feature_dim: usize, num_classes: usize) -> Self {
        Dataset {
            features: Matrix::zeros(0, feature_dim),
            labels: Vec::new(),
            num_classes,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Returns `true` when the dataset holds no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of feature columns.
    pub fn feature_dim(&self) -> usize {
        self.features.cols()
    }

    /// Declared number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Borrow the feature matrix (one sample per row).
    pub fn features(&self) -> &Matrix {
        &self.features
    }

    /// Borrow the label vector.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Number of samples per class, indexed by class id.
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_classes];
        for &l in &self.labels {
            counts[l] += 1;
        }
        counts
    }

    /// Builds a new dataset from the samples at `indices` (in order, indices
    /// may repeat).
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidConfig`] if any index is out of bounds.
    pub fn subset(&self, indices: &[usize]) -> Result<Dataset> {
        if let Some(&bad) = indices.iter().find(|&&i| i >= self.len()) {
            return Err(DataError::InvalidConfig {
                what: format!(
                    "subset index {bad} out of bounds for {} samples",
                    self.len()
                ),
            });
        }
        Ok(Dataset {
            features: self.features.select_rows(indices),
            labels: indices.iter().map(|&i| self.labels[i]).collect(),
            num_classes: self.num_classes,
        })
    }

    /// Indices of all samples with the given label.
    pub(crate) fn indices_of_class(&self, class: usize) -> Vec<usize> {
        self.labels
            .iter()
            .enumerate()
            .filter_map(|(i, &l)| (l == class).then_some(i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        let features = Matrix::from_rows(&[
            vec![0.0, 0.0],
            vec![1.0, 1.0],
            vec![2.0, 2.0],
            vec![3.0, 3.0],
            vec![4.0, 4.0],
            vec![5.0, 5.0],
        ])
        .unwrap();
        Dataset::new(features, vec![0, 1, 0, 1, 2, 2], 3).unwrap()
    }

    #[test]
    fn construction_validates_inputs() {
        let features = Matrix::zeros(3, 2);
        assert!(Dataset::new(features.clone(), vec![0, 1], 2).is_err());
        assert!(matches!(
            Dataset::new(features, vec![0, 1, 5], 3).unwrap_err(),
            DataError::LabelOutOfRange { label: 5, .. }
        ));
    }

    #[test]
    fn basic_accessors() {
        let d = toy();
        assert_eq!(d.len(), 6);
        assert!(!d.is_empty());
        assert_eq!(d.feature_dim(), 2);
        assert_eq!(d.num_classes(), 3);
        assert_eq!(d.class_counts(), vec![2, 2, 2]);
        assert_eq!(d.indices_of_class(1), vec![1, 3]);
    }

    #[test]
    fn empty_dataset() {
        let d = Dataset::empty(4, 10);
        assert!(d.is_empty());
        assert_eq!(d.feature_dim(), 4);
        assert_eq!(d.class_counts(), vec![0; 10]);
    }

    #[test]
    fn subset_preserves_order_and_validates() {
        let d = toy();
        let s = d.subset(&[4, 0]).unwrap();
        assert_eq!(s.labels(), &[2, 0]);
        assert_eq!(s.features().row(0), &[4.0, 4.0]);
        assert!(d.subset(&[99]).is_err());
    }

    #[test]
    fn serde_derives_exist() {
        fn assert_serde<T: serde::Serialize + for<'de> serde::Deserialize<'de>>() {}
        assert_serde::<Dataset>();
    }
}
