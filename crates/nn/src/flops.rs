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

    /// Total FLOPs for one training step on one sample when the boundary
    /// activations of the frozen prefix are served from a feature cache:
    /// only the trainable suffix runs, forward and backward.
    ///
    /// This is the **cached** workload accounting; [`FlopsBreakdown::
    /// training_flops`] is the paper-faithful one that re-runs the frozen
    /// prefix every step. The one-time cost of building the cache is one
    /// frozen forward pass, [`FlopsBreakdown::forward_frozen`] per sample.
    pub fn cached_training_flops(&self) -> u64 {
        self.forward_trainable + self.backward_trainable
    }

    /// Total FLOPs for one inference pass on one sample from cached boundary
    /// activations (e.g. the entropy-selection pass through the suffix).
    pub fn cached_inference_flops(&self) -> u64 {
        self.forward_trainable
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
        assert_eq!(b.cached_training_flops(), 170);
        assert_eq!(b.cached_inference_flops(), 50);
    }

    #[test]
    fn cached_accounting_never_exceeds_the_paper_faithful_one() {
        let b = FlopsBreakdown {
            forward_frozen: 100,
            forward_trainable: 50,
            backward_trainable: 120,
        };
        assert!(b.cached_training_flops() <= b.training_flops());
        assert!(b.cached_inference_flops() <= b.inference_flops());
        // Without a frozen prefix the two accountings coincide.
        let full = FlopsBreakdown {
            forward_frozen: 0,
            forward_trainable: 150,
            backward_trainable: 120,
        };
        assert_eq!(full.cached_training_flops(), full.training_flops());
        assert_eq!(full.cached_inference_flops(), full.inference_flops());
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(FlopsBreakdown::default().training_flops(), 0);
    }
}
