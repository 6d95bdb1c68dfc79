//! Stochastic gradient descent with momentum, weight decay and an optional
//! FedProx proximal term.

use crate::params::ParamVector;
use crate::{NnError, Result};
use fedft_tensor::Matrix;
use serde::{Deserialize, Serialize};

/// Hyper-parameters of the SGD optimiser.
///
/// The paper uses SGD with a learning rate of `0.1` and momentum `0.5` for
/// local updates, which is this type's [`Default`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SgdConfig {
    /// Step size λ.
    pub learning_rate: f32,
    /// Momentum coefficient in `[0, 1)`.
    pub momentum: f32,
    /// L2 weight decay coefficient.
    pub weight_decay: f32,
}

impl Default for SgdConfig {
    fn default() -> Self {
        SgdConfig {
            learning_rate: 0.1,
            momentum: 0.5,
            weight_decay: 0.0,
        }
    }
}

impl SgdConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if the learning rate is not
    /// positive, the momentum is outside `[0, 1)` or the weight decay is
    /// negative.
    pub fn validate(&self) -> Result<()> {
        if !(self.learning_rate.is_finite() && self.learning_rate > 0.0) {
            return Err(NnError::InvalidConfig {
                what: format!("learning rate must be positive, got {}", self.learning_rate),
            });
        }
        if !(0.0..1.0).contains(&self.momentum) {
            return Err(NnError::InvalidConfig {
                what: format!("momentum must be in [0, 1), got {}", self.momentum),
            });
        }
        if self.weight_decay < 0.0 {
            return Err(NnError::InvalidConfig {
                what: format!(
                    "weight decay must be non-negative, got {}",
                    self.weight_decay
                ),
            });
        }
        Ok(())
    }
}

/// FedProx proximal regulariser `μ/2 · ‖w − w_global‖²` added to the local
/// objective; its gradient `μ · (w − w_global)` is applied inside the
/// optimiser step.
#[derive(Debug, Clone, PartialEq)]
pub struct ProximalTerm {
    /// Proximal coefficient μ.
    pub mu: f32,
    /// Flattened reference parameters (the global model at the start of the
    /// round), aligned with the parameters a training step updates, in its
    /// order ([`crate::SuffixNet::train_batch`]).
    pub reference: ParamVector,
}

/// SGD optimiser with momentum.
///
/// The optimiser keeps one velocity buffer per parameter tensor. Every step
/// between two restarts must update the same parameter tensors (same count,
/// same shapes, same order), as [`crate::SuffixNet::train_batch`] does.
#[derive(Debug, Clone)]
pub struct Sgd {
    config: SgdConfig,
    velocities: Vec<Matrix>,
    proximal: Option<ProximalTerm>,
    /// No step has run since construction or [`Sgd::reset_state`]: the next
    /// one may be over other tensors than the kept velocities were made for.
    unstarted: bool,
}

impl Default for Sgd {
    /// The paper's optimiser ([`SgdConfig::default`]), before its first step.
    fn default() -> Self {
        Sgd {
            config: SgdConfig::default(),
            velocities: Vec::new(),
            proximal: None,
            unstarted: true,
        }
    }
}

impl Sgd {
    /// Creates an optimiser with the given configuration.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] when the configuration is invalid.
    pub fn new(config: SgdConfig) -> Result<Self> {
        let mut sgd = Sgd::default();
        sgd.restart(config)?;
        Ok(sgd)
    }

    /// Starts over under `config`: afterwards the optimiser steps exactly as
    /// [`Sgd::new`]`(config)` would — no momentum, no proximal term — but on
    /// the velocity buffers it already has (zeroed in place). This is
    /// how one optimiser serves a runner's clients one after another.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] when the configuration is invalid,
    /// leaving the optimiser as it was.
    pub fn restart(&mut self, config: SgdConfig) -> Result<()> {
        config.validate()?;
        self.config = config;
        self.proximal = None;
        self.reset_state();
        Ok(())
    }

    /// The optimiser configuration.
    pub fn config(&self) -> SgdConfig {
        self.config
    }

    /// Installs (or clears) a FedProx proximal term.
    pub fn set_proximal(&mut self, proximal: Option<ProximalTerm>) {
        self.proximal = proximal;
    }

    /// Removes and returns the proximal term, so that its reference buffer
    /// can carry the next round's reference.
    pub fn take_proximal(&mut self) -> Option<ProximalTerm> {
        self.proximal.take()
    }

    /// Applies one SGD update to `params` using `grads`: [`Sgd::begin_step`]
    /// over two slices, for the reference-step oracle in `suffix.rs` and the
    /// optimiser's own tests. Training steps through `begin_step`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if the number of parameter tensors
    /// changes between calls, a tensor error if shapes are inconsistent, or
    /// [`NnError::ParamLengthMismatch`] if the proximal reference does not
    /// match the total parameter size.
    #[cfg(test)]
    pub(crate) fn step(&mut self, params: &mut [&mut Matrix], grads: &[&Matrix]) -> Result<()> {
        if params.len() != grads.len() {
            return Err(NnError::InvalidConfig {
                what: format!(
                    "parameter/gradient count mismatch: {} vs {}",
                    params.len(),
                    grads.len()
                ),
            });
        }
        let total = params.iter().map(|p| p.len()).sum();
        let mut step = self.begin_step(params.len(), total)?;
        for (param, grad) in params.iter_mut().zip(grads) {
            step.update(param, grad)?;
        }
        Ok(())
    }

    /// Opens one SGD update over `tensors` parameter tensors holding `total`
    /// scalars, checked against the optimiser's state before anything is
    /// written; the caller then feeds the tensors, in their fixed order, to
    /// [`SgdStep::update`]. The training step drives it with each
    /// parameter of `DenseBlock::params_mut` and that block's gradient from
    /// its step-workspace entry, which needs no `Vec` of references.
    pub(crate) fn begin_step(&mut self, tensors: usize, total: usize) -> Result<SgdStep<'_>> {
        let first = self.unstarted;
        if !first && self.velocities.len() != tensors {
            return Err(NnError::InvalidConfig {
                what: format!(
                    "optimiser was initialised with {} tensors but received {}",
                    self.velocities.len(),
                    tensors
                ),
            });
        }
        if let Some(prox) = &self.proximal {
            if prox.reference.len() != total {
                return Err(NnError::ParamLengthMismatch {
                    expected: total,
                    found: prox.reference.len(),
                });
            }
        }
        if first {
            self.velocities.truncate(tensors);
            self.unstarted = false;
        }
        Ok(SgdStep {
            sgd: self,
            first,
            tensor: 0,
            offset: 0,
        })
    }

    /// Forgets all momentum (used when a client restarts local training
    /// from a freshly downloaded global model). The velocity buffers stay,
    /// at zero, and the next step may be over a different set of tensors: it
    /// re-makes the velocity of any tensor whose shape is not the kept one's.
    pub(crate) fn reset_state(&mut self) {
        for velocity in &mut self.velocities {
            velocity.as_mut_slice().fill(0.0);
        }
        self.unstarted = true;
    }
}

/// One SGD update in progress: where in the optimiser's per-tensor state
/// (velocity index, offset into the proximal reference) the next tensor
/// lands. Created by [`Sgd::begin_step`].
pub(crate) struct SgdStep<'a> {
    sgd: &'a mut Sgd,
    /// The first step since the optimiser (re)started: kept velocities are
    /// all zero, so one of another shape than its tensor can be re-made.
    first: bool,
    tensor: usize,
    offset: usize,
}

impl SgdStep<'_> {
    /// Updates the next parameter tensor in place from its gradient. The
    /// first step an optimiser takes creates each tensor's velocity here, at
    /// zero, unless it kept one of that shape.
    pub(crate) fn update(&mut self, param: &mut Matrix, grad: &Matrix) -> Result<()> {
        let Sgd {
            config,
            velocities,
            proximal,
            ..
        } = &mut *self.sgd;
        if self.tensor == velocities.len() {
            velocities.push(Matrix::zeros(param.rows(), param.cols()));
        }
        let velocity = &mut velocities[self.tensor];
        if self.first && velocity.shape() != param.shape() {
            velocity.resize_zeroed(param.rows(), param.cols());
        }
        if param.shape() != grad.shape() || param.shape() != velocity.shape() {
            return Err(NnError::Tensor(fedft_tensor::TensorError::ShapeMismatch {
                op: "sgd_step",
                lhs: param.shape(),
                rhs: grad.shape(),
            }));
        }
        let n = param.len();
        let reference = proximal
            .as_ref()
            .map(|p| (&p.reference.values()[self.offset..self.offset + n], p.mu));
        // Zipped slices, not indices: no bounds check stands between the
        // compiler and a vector loop. The arithmetic is elementwise, so
        // vector width changes no bit.
        let elements = param
            .as_mut_slice()
            .iter_mut()
            .zip(grad.as_slice())
            .zip(velocity.as_mut_slice());
        match reference {
            None => {
                for ((p, &g), v) in elements {
                    *v = config.momentum * *v + (g + config.weight_decay * *p);
                    *p -= config.learning_rate * *v;
                }
            }
            Some((reference, mu)) => {
                for (((p, &g), v), &r) in elements.zip(reference) {
                    let g = g + config.weight_decay * *p + mu * (*p - r);
                    *v = config.momentum * *v + g;
                    *p -= config.learning_rate * *v;
                }
            }
        }
        self.tensor += 1;
        self.offset += n;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_grad(param: &Matrix) -> Matrix {
        // Gradient of f(w) = 0.5 * ||w||^2 is w.
        param.clone()
    }

    #[test]
    fn config_validation() {
        assert!(SgdConfig::default().validate().is_ok());
        assert!(SgdConfig {
            learning_rate: 0.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(SgdConfig {
            momentum: 1.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(SgdConfig {
            weight_decay: -0.1,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(Sgd::new(SgdConfig {
            learning_rate: -1.0,
            ..Default::default()
        })
        .is_err());
    }

    #[test]
    fn default_matches_paper_hyperparameters() {
        let c = SgdConfig::default();
        assert_eq!(c.learning_rate, 0.1);
        assert_eq!(c.momentum, 0.5);
    }

    #[test]
    fn plain_sgd_minimises_quadratic() {
        let mut sgd = Sgd::new(SgdConfig {
            learning_rate: 0.1,
            momentum: 0.0,
            weight_decay: 0.0,
        })
        .unwrap();
        let mut w = Matrix::full(2, 2, 10.0);
        for _ in 0..200 {
            let g = quadratic_grad(&w);
            sgd.step(&mut [&mut w], &[&g]).unwrap();
        }
        assert!(w.norm() < 1e-3, "did not converge: norm={}", w.norm());
    }

    #[test]
    fn momentum_accelerates_convergence() {
        let run = |momentum: f32| {
            let mut sgd = Sgd::new(SgdConfig {
                learning_rate: 0.05,
                momentum,
                weight_decay: 0.0,
            })
            .unwrap();
            let mut w = Matrix::full(1, 4, 5.0);
            for _ in 0..30 {
                let g = quadratic_grad(&w);
                sgd.step(&mut [&mut w], &[&g]).unwrap();
            }
            w.norm()
        };
        assert!(run(0.9) < run(0.0));
    }

    #[test]
    fn weight_decay_shrinks_weights_without_gradient() {
        let mut sgd = Sgd::new(SgdConfig {
            learning_rate: 0.1,
            momentum: 0.0,
            weight_decay: 0.5,
        })
        .unwrap();
        let mut w = Matrix::full(1, 3, 1.0);
        let zero_grad = Matrix::zeros(1, 3);
        sgd.step(&mut [&mut w], &[&zero_grad]).unwrap();
        assert!(w.max() < 1.0);
    }

    #[test]
    fn proximal_term_pulls_towards_reference() {
        let reference = ParamVector::from_values(vec![1.0, 1.0, 1.0]);
        let mut sgd = Sgd::new(SgdConfig {
            learning_rate: 0.1,
            momentum: 0.0,
            weight_decay: 0.0,
        })
        .unwrap();
        sgd.set_proximal(Some(ProximalTerm { mu: 1.0, reference }));
        let mut w = Matrix::full(1, 3, 5.0);
        let zero_grad = Matrix::zeros(1, 3);
        for _ in 0..300 {
            sgd.step(&mut [&mut w], &[&zero_grad]).unwrap();
        }
        // With zero task gradient the proximal term drags w to the reference.
        for &v in w.as_slice() {
            assert!((v - 1.0).abs() < 1e-2, "w={v}");
        }
    }

    #[test]
    fn proximal_length_is_validated() {
        let mut sgd = Sgd::new(SgdConfig::default()).unwrap();
        sgd.set_proximal(Some(ProximalTerm {
            mu: 0.1,
            reference: ParamVector::from_values(vec![0.0; 2]),
        }));
        let mut w = Matrix::zeros(1, 3);
        let g = Matrix::zeros(1, 3);
        assert!(matches!(
            sgd.step(&mut [&mut w], &[&g]).unwrap_err(),
            NnError::ParamLengthMismatch { .. }
        ));
    }

    #[test]
    fn mismatched_counts_and_shapes_error() {
        let mut sgd = Sgd::new(SgdConfig::default()).unwrap();
        let mut w = Matrix::zeros(1, 3);
        assert!(sgd.step(&mut [&mut w], &[]).is_err());
        let g = Matrix::zeros(2, 2);
        assert!(sgd.step(&mut [&mut w], &[&g]).is_err());
    }

    #[test]
    fn reset_state_allows_new_topology() {
        let mut sgd = Sgd::new(SgdConfig::default()).unwrap();
        let mut a = Matrix::zeros(1, 2);
        let ga = Matrix::zeros(1, 2);
        sgd.step(&mut [&mut a], &[&ga]).unwrap();
        // Different number of tensors without reset -> error.
        let mut b = Matrix::zeros(1, 2);
        let gb = Matrix::zeros(1, 2);
        assert!(sgd.step(&mut [&mut a, &mut b], &[&ga, &gb]).is_err());
        sgd.reset_state();
        assert!(sgd.step(&mut [&mut a, &mut b], &[&ga, &gb]).is_ok());
    }
}
