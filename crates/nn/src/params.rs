//! Flat parameter vectors used for client/server communication and
//! aggregation.

use crate::{NnError, Result};
use fedft_tensor::{pool, Matrix};
use serde::{Deserialize, Serialize};

/// A flattened view of a set of parameter tensors.
///
/// In the federated-learning engine clients upload and download model
/// parameters as `ParamVector`s: the *trainable* part of the model (the upper
/// layer groups, `θ` in the paper) is flattened in a stable order, shipped to
/// the server, averaged, and written back into the model. The frozen feature
/// extractor `ϕ` is never transported, which is where the paper's
/// communication saving comes from.
///
/// # Example
///
/// ```
/// use fedft_nn::ParamVector;
///
/// let v = ParamVector::from_values(vec![1.0, 2.0, 3.0]);
/// let w = ParamVector::from_values(vec![3.0, 2.0, 1.0]);
/// let avg = ParamVector::weighted_average_refs(&[(&v, 0.5), (&w, 0.5)]).unwrap();
/// assert_eq!(avg.values(), &[2.0, 2.0, 2.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ParamVector {
    values: Vec<f32>,
}

impl ParamVector {
    /// Creates an empty parameter vector.
    pub fn new() -> Self {
        ParamVector { values: Vec::new() }
    }

    /// Wraps an existing buffer of values.
    pub fn from_values(values: Vec<f32>) -> Self {
        ParamVector { values }
    }

    /// Flattens a list of parameter tensors in order.
    pub(crate) fn from_params(params: &[&Matrix]) -> Self {
        Self::from_params_into(params, Vec::new())
    }

    /// [`ParamVector::from_params`] into a buffer the caller already owns:
    /// its contents are discarded, and it is grown only when its capacity
    /// is short of the parameters' total size — so an upload flattened into
    /// a recycled buffer allocates nothing.
    pub(crate) fn from_params_into(params: &[&Matrix], mut values: Vec<f32>) -> Self {
        values.clear();
        values.reserve(params.iter().map(|p| p.len()).sum());
        for p in params {
            values.extend_from_slice(p.as_slice());
        }
        ParamVector { values }
    }

    /// Number of scalar values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` when the vector holds no values.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Borrow the underlying values.
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Consumes the vector and returns the underlying buffer.
    pub fn into_values(self) -> Vec<f32> {
        self.values
    }

    /// Writes the values back into a list of parameter tensors, consuming the
    /// vector's content in order.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ParamLengthMismatch`] if the total size of `params`
    /// differs from the vector length.
    pub(crate) fn write_to(&self, params: &mut [&mut Matrix]) -> Result<()> {
        let expected: usize = params.iter().map(|p| p.len()).sum();
        if expected != self.values.len() {
            return Err(NnError::ParamLengthMismatch {
                expected,
                found: self.values.len(),
            });
        }
        let mut offset = 0;
        for p in params.iter_mut() {
            let n = p.len();
            p.as_mut_slice()
                .copy_from_slice(&self.values[offset..offset + n]);
            offset += n;
        }
        Ok(())
    }

    /// Euclidean (L2) norm of the vector.
    pub fn norm(&self) -> f32 {
        self.values.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Squared Euclidean distance to another vector.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ParamLengthMismatch`] when lengths differ.
    pub fn distance_sq(&self, other: &ParamVector) -> Result<f32> {
        if self.len() != other.len() {
            return Err(NnError::ParamLengthMismatch {
                expected: self.len(),
                found: other.len(),
            });
        }
        Ok(self
            .values
            .iter()
            .zip(other.values.iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum())
    }

    /// Computes `Σ wᵢ · vᵢ` over borrowed `(vector, weight)` pairs.
    ///
    /// This is the FedAvg aggregation primitive and the aggregation hot
    /// path: the server averages every selected client's `θ` each round
    /// without cloning it. Weights are used as given and are *not*
    /// re-normalised here (the caller decides the convention).
    ///
    /// Large cohorts (entry count × parameter count ≥ 2²⁰) accumulate on
    /// the persistent worker pool ([`fedft_tensor::pool`]): the *output
    /// elements* are split into contiguous ranges and every worker walks
    /// the full entry list in order over its range, so each element sees
    /// exactly the same `+=` sequence as the sequential loop and the result
    /// stays bit-identical at any worker count.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] for an empty input and
    /// [`NnError::ParamLengthMismatch`] when the vectors disagree in length.
    pub fn weighted_average_refs(entries: &[(&ParamVector, f32)]) -> Result<ParamVector> {
        let Some(((first, _), _)) = entries.split_first() else {
            return Err(NnError::InvalidConfig {
                what: "weighted_average requires at least one entry".into(),
            });
        };
        let len = first.len();
        for &(vector, _) in entries {
            if vector.len() != len {
                return Err(NnError::ParamLengthMismatch {
                    expected: len,
                    found: vector.len(),
                });
            }
        }

        // Below this much accumulation work the pool wake costs more than
        // the loop; 200 clients × a 10k-parameter head clears it easily.
        const PARALLEL_WORK_THRESHOLD: usize = 1 << 20;
        let workers = if entries.len().saturating_mul(len) >= PARALLEL_WORK_THRESHOLD {
            pool::hardware_threads()
        } else {
            1
        };
        // Every range of the output is one part, with its own slice of the
        // one output, allocated here.
        let mut out = vec![0.0_f32; len];
        let runs = pool::row_runs(0..len, pool::chunk_len(len, workers), &mut out, 1);
        pool::run_parts(runs, |(range, out)| {
            for &(vector, weight) in entries {
                for (o, &v) in out.iter_mut().zip(&vector.values[range.clone()]) {
                    *o += weight * v;
                }
            }
        });
        Ok(ParamVector { values: out })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flatten_and_write_back_roundtrip() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = Matrix::from_vec(1, 3, vec![5.0, 6.0, 7.0]).unwrap();
        let v = ParamVector::from_params(&[&a, &b]);
        assert_eq!(v.len(), 7);

        let mut a2 = Matrix::zeros(2, 2);
        let mut b2 = Matrix::zeros(1, 3);
        v.write_to(&mut [&mut a2, &mut b2]).unwrap();
        assert_eq!(a2, a);
        assert_eq!(b2, b);
    }

    #[test]
    fn write_to_rejects_length_mismatch() {
        let v = ParamVector::from_values(vec![1.0, 2.0]);
        let mut m = Matrix::zeros(3, 1);
        assert!(matches!(
            v.write_to(&mut [&mut m]).unwrap_err(),
            NnError::ParamLengthMismatch {
                expected: 3,
                found: 2
            }
        ));
    }

    #[test]
    fn weighted_average_is_convex_combination() {
        let a = ParamVector::from_values(vec![0.0, 10.0]);
        let b = ParamVector::from_values(vec![10.0, 0.0]);
        let avg = ParamVector::weighted_average_refs(&[(&a, 0.25), (&b, 0.75)]).unwrap();
        assert_eq!(avg.values(), &[7.5, 2.5]);
    }

    #[test]
    fn weighted_average_single_entry_identity() {
        let a = ParamVector::from_values(vec![1.0, -2.0, 3.0]);
        let avg = ParamVector::weighted_average_refs(&[(&a, 1.0)]).unwrap();
        assert_eq!(avg, a);
    }

    #[test]
    fn weighted_average_errors() {
        assert!(ParamVector::weighted_average_refs(&[]).is_err());
        let a = ParamVector::from_values(vec![1.0]);
        let b = ParamVector::from_values(vec![1.0, 2.0]);
        assert!(ParamVector::weighted_average_refs(&[(&a, 0.5), (&b, 0.5)]).is_err());
    }

    #[test]
    fn weighted_average_pooled_path_is_bit_identical_to_sequential() {
        // 128 entries × 16 384 parameters = 2²¹ accumulation steps — over
        // the pool threshold, so this exercises the element-partitioned
        // path against a reference built with the sequential loop shape.
        let len = 16_384_usize;
        let vectors: Vec<ParamVector> = (0..128)
            .map(|i| {
                ParamVector::from_values(
                    (0..len)
                        .map(|j| ((i * len + j) as f32 * 0.001).sin())
                        .collect(),
                )
            })
            .collect();
        let refs: Vec<(&ParamVector, f32)> = vectors
            .iter()
            .enumerate()
            .map(|(i, v)| (v, 1.0 / (i + 1) as f32))
            .collect();

        let mut expected = vec![0.0_f32; len];
        for &(vector, weight) in &refs {
            for (o, &v) in expected.iter_mut().zip(vector.values().iter()) {
                *o += weight * v;
            }
        }
        let pooled = ParamVector::weighted_average_refs(&refs).unwrap();
        let expected_bits: Vec<u32> = expected.iter().map(|x| x.to_bits()).collect();
        let pooled_bits: Vec<u32> = pooled.values().iter().map(|x| x.to_bits()).collect();
        assert_eq!(expected_bits, pooled_bits);
    }

    #[test]
    fn norms_and_distances() {
        let a = ParamVector::from_values(vec![3.0, 4.0]);
        let b = ParamVector::from_values(vec![0.0, 0.0]);
        assert_eq!(a.norm(), 5.0);
        assert_eq!(a.distance_sq(&b).unwrap(), 25.0);
        assert!(a.distance_sq(&ParamVector::from_values(vec![1.0])).is_err());
    }

    #[test]
    fn serde_derives_exist() {
        fn assert_serde<T: serde::Serialize + for<'de> serde::Deserialize<'de>>() {}
        assert_serde::<ParamVector>();
    }
}
