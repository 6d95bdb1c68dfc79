//! FLOP accounting used by the training-time cost model.
//!
//! The paper's learning-efficiency metric (Figures 6 and 7) divides the best
//! global accuracy by the *total client training time*. In this reproduction
//! wall-clock time on the authors' testbed is replaced by a deterministic
//! FLOP-based cost model; this module provides the building blocks, and
//! `fedft-core::cost` converts FLOPs to simulated seconds.

use serde::{Deserialize, Serialize};

/// FLOP counts for one sample processed by a model under a given freeze
/// configuration.
///
/// The **cached** workload accounting, where a feature cache serves the
/// frozen prefix's boundary activations, is the same sums with
/// `forward_frozen` set to zero: only the trainable suffix runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FlopsBreakdown {
    /// Forward FLOPs through the frozen blocks (always paid, even when only
    /// fine-tuning the upper part, because activations must flow through).
    pub forward_frozen: u64,
    /// Forward FLOPs through the trainable blocks.
    pub forward_trainable: u64,
    /// Backward FLOPs through the trainable blocks (the frozen part is never
    /// back-propagated through, which is where FedFT saves compute).
    pub backward_trainable: u64,
}

impl FlopsBreakdown {
    /// Total FLOPs for one training step on one sample
    /// (forward everywhere + backward through the trainable part).
    pub fn training_flops(&self) -> u64 {
        self.forward_frozen + self.forward_trainable + self.backward_trainable
    }

    /// Total FLOPs for one inference pass on one sample, e.g. the selection
    /// forward pass used by entropy-based data selection.
    pub fn inference_flops(&self) -> u64 {
        self.forward_frozen + self.forward_trainable
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_add_up() {
        let b = FlopsBreakdown {
            forward_frozen: 100,
            forward_trainable: 50,
            backward_trainable: 120,
        };
        assert_eq!(b.training_flops(), 270);
        assert_eq!(b.inference_flops(), 150);
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(FlopsBreakdown::default().training_flops(), 0);
    }
}
